//! Deterministic discrete-event simulation of the MDS cluster.
//!
//! Models exactly the mechanisms cluster throughput depends on in the
//! paper's EC2 evaluation:
//!
//! * each MDS is a FIFO service station with a fixed worker count (the
//!   2-core instances of Sec. VI);
//! * every client→server or server→server message costs a configurable
//!   one-way latency (the 100 Mbps links);
//! * an update whose target is replicated (global layer) serialises
//!   through the Zookeeper-style lock service — one lock per node, as a
//!   real Zookeeper deployment would grant — holding the lock while all
//!   `M` replicas apply the mutation; hold time grows with the cluster
//!   size, the paper's explanation for RA's slower scaling;
//! * clients are closed-loop: each has one outstanding request, mirroring
//!   the fixed 200-client base.
//!
//! Everything is deterministic under a fixed seed, so experiments are
//! exactly reproducible.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use d2tree_core::Partitioner;
use d2tree_metrics::MdsId;
use d2tree_namespace::{NamespaceTree, NodeId, NodeIdMap};
use d2tree_telemetry::trace::{span_names, ArgKey, Span, SpanCtx, Tracer};
use d2tree_telemetry::{names, FaultKind, LocalHistogram, MetricKey, Registry};
use d2tree_workload::{OpKind, Operation, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fault::{FaultDecision, FaultInjector, FaultPlan, NetEdge};

/// Simulation parameters, defaulted to the EC2-like setup of Sec. VI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Closed-loop client count (the paper fixes 200).
    pub clients: usize,
    /// Concurrent workers per MDS (DualCore instances → 2).
    pub workers_per_mds: usize,
    /// One-way client↔server latency in nanoseconds.
    pub client_latency_ns: u64,
    /// One-way server→server forwarding latency in nanoseconds.
    pub hop_latency_ns: u64,
    /// Service time of a query (read/write) in nanoseconds.
    pub read_service_ns: u64,
    /// Service time of an update in nanoseconds.
    pub update_service_ns: u64,
    /// Fixed lock-service overhead per global-layer update.
    pub lock_base_ns: u64,
    /// Per-replica apply cost while the lock is held; total hold time grows
    /// linearly with the cluster size.
    pub replica_apply_ns: u64,
    /// Client resend timeout after a fault-injected message drop.
    pub retry_timeout_ns: u64,
    /// Seed for routing randomness (which MDS serves a global-layer hit).
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            clients: 200,
            workers_per_mds: 2,
            client_latency_ns: 250_000,
            hop_latency_ns: 250_000,
            read_service_ns: 100_000,
            update_service_ns: 150_000,
            lock_base_ns: 100_000,
            replica_apply_ns: 30_000,
            retry_timeout_ns: 2_000_000,
            seed: 0,
        }
    }
}

impl SimConfig {
    /// Lock hold: fixed coordination cost, the leader's own apply, one
    /// replica apply and a parallel broadcast round trip. The per-M
    /// scaling cost is the real apply *work* each replica performs
    /// (enqueued on commit), not a serial hold.
    fn lock_hold_ns(&self) -> u64 {
        self.lock_base_ns + self.update_service_ns + self.replica_apply_ns + 2 * self.hop_latency_ns
    }
}

/// Results of one trace replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Operations completed (always the full trace).
    pub completed: usize,
    /// Virtual wall-clock the replay took, in seconds.
    pub sim_seconds: f64,
    /// Operations per virtual second.
    pub throughput: f64,
    /// Mean end-to-end latency in microseconds.
    pub mean_latency_us: f64,
    /// 99th-percentile latency in microseconds.
    pub p99_latency_us: f64,
    /// Per-server busy time in nanoseconds (utilisation numerator).
    pub server_busy_ns: Vec<u64>,
    /// Operations whose request each server ultimately served (empirical
    /// load, the quantity the paper's balance experiments measure).
    pub served_ops: Vec<u64>,
    /// Lock-service busy time in nanoseconds.
    pub lock_busy_ns: u64,
    /// Total inter-server forwarding hops.
    pub total_hops: u64,
}

impl ReplayOutcome {
    /// Per-server utilisation: busy time over (virtual wall-clock ×
    /// workers).
    #[must_use]
    pub fn utilization(&self, workers_per_mds: usize) -> Vec<f64> {
        let wall_ns = (self.sim_seconds * 1e9).max(1.0);
        self.server_busy_ns
            .iter()
            .map(|&b| b as f64 / (wall_ns * workers_per_mds as f64))
            .collect()
    }
}

/// Result of a [`Simulator::replay_with_rebalance`] run: the overall
/// outcome plus the per-round balance trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalancedReplay {
    /// Merged outcome over every chunk (throughput is ops over the summed
    /// virtual time).
    pub overall: ReplayOutcome,
    /// Def. 5 balance over each chunk's measured served-op counts, in
    /// chunk order.
    pub balance_per_round: Vec<f64>,
    /// Migrations the scheme performed after each chunk.
    pub migrations_per_round: Vec<usize>,
}

#[derive(Debug, Clone)]
struct ReqState {
    /// Position in the client's visit list of the server now serving.
    next_visit: usize,
    kind: OpKind,
    target: NodeId,
    issued_at: u64,
    /// Whether this request takes the lock-service path on arrival.
    locked: bool,
    /// Times an injected fault has dropped this request so far.
    resends: u32,
    /// Root span context when this operation was sampled for tracing.
    ctx: Option<SpanCtx>,
    /// Virtual time the in-flight hop arrived (queue start), for span
    /// durations covering queue + service.
    hop_arrived_at: u64,
}

/// What a queued event does when it fires. `who` in the event key is the
/// client, except for `ApplyDone` and `Waste`, where it is the server.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// A client pulls its next trace operation.
    Issue,
    /// A request lands in a server's queue.
    Arrive,
    /// A server finishes one service slot for the request.
    ServeDone,
    /// A global-layer update reaches the lock service.
    LockArrive,
    /// The lock holder commits; replicas start applying.
    LockDone,
    /// A server finishes a replica apply or a wasted duplicate.
    ApplyDone,
    /// A client re-sends a request whose first copy an injected fault
    /// dropped (fires after `retry_timeout_ns`).
    Resend,
    /// A fault-duplicated request copy arrives: the server does the full
    /// service work, then discards the result.
    Waste,
}

/// An event key `(t, seq, who, kind)`; `seq` is unique, so events pop in
/// `(t, seq)` order.
type EventKey = (u64, u64, u32, EventKind);

/// Most slots a calendar opens; a delay past its horizon goes to the
/// overflow heap. The default configuration needs 256 (its longest delay,
/// the 2 ms resend timeout, is 200 steps of 10 µs).
const MAX_SLOTS: usize = 1 << 12;

/// End of a slot's FIFO and of the pool's free list.
const NIL: u32 = u32::MAX;

/// An event in the calendar's pool, linked to the next one in its slot
/// (or, once popped, in the free list).
#[derive(Debug, Clone, Copy)]
struct Pooled {
    key: EventKey,
    next: u32,
}

/// The pending-event set, popping in `(t, seq)` order: an exact calendar
/// queue (Brown, CACM 1988).
///
/// Every event is pushed at `now + d`, where `now` (the time of the last
/// pop) never decreases and `d` is a sum of configuration constants, so
/// every event time lies on a grid of `step` ns, their gcd. The calendar
/// has one slot per grid step, a power of two of them; the slot at the
/// cursor holds the events at `now`, the one `k` slots on those at
/// `now + k·step`. Within `horizon` of `now` a slot therefore holds a
/// single time, and its FIFO, appended in push order, is in `seq` order.
/// Pop takes the first occupied slot at or after the cursor and moves the
/// cursor there. An event off the grid or past the horizon goes to one
/// binary heap whose top joins the same `(t, seq)` minimum.
#[derive(Debug)]
struct EventQueue {
    /// Time of the last pop.
    now: u64,
    seq: u64,
    /// Grid step in ns: every slot is one step wide.
    step: u64,
    /// `ceil(2^63 / step)`, so `delay / step` is a multiply and a shift.
    recip: u64,
    /// Grid delays below this go to the calendar.
    horizon: u64,
    /// Grid time of the cursor slot: `now` when `now` is on the grid,
    /// the grid point below it otherwise.
    base: u64,
    cursor: usize,
    /// Front and back pool index of each slot's FIFO; a slot is empty
    /// when its head is `NIL`.
    heads: Vec<u32>,
    tails: Vec<u32>,
    /// Storage for every calendar event in flight, slots linked through it.
    pool: Vec<Pooled>,
    free: u32,
    /// Events in the calendar (the overflow heap not counted).
    queued: usize,
    overflow: BinaryHeap<Reverse<EventKey>>,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl EventQueue {
    /// The queue for one replay under `cfg`: the grid step is the gcd of
    /// every delay the replay can schedule — 1 ms among them when a fault
    /// plan adds whole-millisecond delays — and the horizon covers the
    /// longest of them.
    fn for_replay(cfg: &SimConfig, faulty: bool) -> Self {
        let delays = [
            cfg.client_latency_ns,
            cfg.hop_latency_ns,
            cfg.read_service_ns,
            cfg.update_service_ns,
            cfg.replica_apply_ns,
            cfg.lock_hold_ns(),
            cfg.retry_timeout_ns,
        ];
        let fault_ms = if faulty { 1_000_000 } else { 0 };
        let step = delays.iter().fold(fault_ms, |g, &d| gcd(g, d));
        EventQueue::new(step, delays.into_iter().max().unwrap_or(0))
    }

    /// A queue on a grid of `step` ns (0 counts as 1) whose calendar
    /// reaches at least `longest` ns ahead, up to `MAX_SLOTS` steps.
    fn new(step: u64, longest: u64) -> Self {
        let step = step.max(1);
        let slots = ((longest / step).min(MAX_SLOTS as u64 - 1) as usize + 1).next_power_of_two();
        // Below 2^62 the reciprocal quotient is exact or one too high, so
        // checking it against the delay decides grid membership exactly.
        let horizon = step.saturating_mul(slots as u64).min(1 << 62);
        EventQueue {
            now: 0,
            seq: 0,
            step,
            recip: ((1u64 << 63) - 1) / step + 1,
            horizon,
            base: 0,
            cursor: 0,
            heads: vec![NIL; slots],
            tails: vec![NIL; slots],
            pool: Vec::new(),
            free: NIL,
            queued: 0,
            overflow: BinaryHeap::new(),
        }
    }

    fn push(&mut self, at: u64, who: u32, kind: EventKind) {
        debug_assert!(at >= self.now, "event at {at} before now {}", self.now);
        let delay = at - self.now;
        self.seq += 1;
        let key = (at, self.seq, who, kind);
        if self.now == self.base && delay < self.horizon {
            let steps = ((u128::from(delay) * u128::from(self.recip)) >> 63) as u64;
            if steps * self.step == delay {
                let slot = (self.cursor + steps as usize) & (self.heads.len() - 1);
                self.enqueue(slot, key);
                return;
            }
        }
        self.overflow.push(Reverse(key));
    }

    /// Appends `key` to `slot`'s FIFO.
    fn enqueue(&mut self, slot: usize, key: EventKey) {
        let pooled = Pooled { key, next: NIL };
        let i = if self.free == NIL {
            self.pool.push(pooled);
            u32::try_from(self.pool.len() - 1).expect("fewer than 2^32 events in flight")
        } else {
            let i = self.free;
            self.free = self.pool[i as usize].next;
            self.pool[i as usize] = pooled;
            i
        };
        match self.heads[slot] {
            NIL => self.heads[slot] = i,
            _ => self.pool[self.tails[slot] as usize].next = i,
        }
        self.tails[slot] = i;
        self.queued += 1;
    }

    fn pop(&mut self) -> Option<EventKey> {
        let mask = self.heads.len() - 1;
        let mut slot = self.cursor;
        let front = if self.queued == 0 {
            None
        } else {
            while self.heads[slot] == NIL {
                slot = (slot + 1) & mask;
            }
            Some(self.heads[slot])
        };
        let key = match (front, self.overflow.peek()) {
            (Some(i), Some(&Reverse(o))) if o < self.pool[i as usize].key => self.pop_overflow()?,
            (Some(i), _) => {
                let Pooled { key, next } = self.pool[i as usize];
                self.heads[slot] = next;
                self.pool[i as usize].next = self.free;
                self.free = i;
                self.queued -= 1;
                self.cursor = slot;
                self.base = key.0;
                key
            }
            (None, _) => self.pop_overflow()?,
        };
        self.now = key.0;
        Some(key)
    }

    /// Pops the overflow heap's top and moves the cursor to the grid
    /// point at or below its time.
    fn pop_overflow(&mut self) -> Option<EventKey> {
        let Reverse(key) = self.overflow.pop()?;
        let steps = (key.0 - self.base) / self.step;
        self.cursor = self.cursor.wrapping_add(steps as usize) & (self.heads.len() - 1);
        self.base += steps * self.step;
        Some(key)
    }
}

/// A unit of work in a server's FIFO queue: a client request stage, the
/// local apply of a committed global-layer update, or wasted service of
/// a fault-duplicated request copy. Apply/waste jobs carry the trace
/// context of the operation that spawned them (if sampled) so the span
/// lands on the server that actually did the work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Job {
    Request(u32),
    Apply(Option<SpanCtx>),
    Waste(Option<SpanCtx>),
}

/// Resend cap per client per request: past this, deliver unconditionally
/// so a 100%-drop plan cannot hang the closed loop forever.
const MAX_RESENDS: u32 = 64;

/// Numeric op-kind tag used in root-span args (read 0, write 1, update 2).
pub(crate) fn op_kind_code(kind: OpKind) -> u64 {
    match kind {
        OpKind::Read => 0,
        OpKind::Write => 1,
        OpKind::Update => 2,
    }
}

#[derive(Debug, Default)]
struct Server {
    busy_workers: usize,
    queue: VecDeque<Job>,
    busy_ns: u64,
}

/// Per-replay telemetry accumulator. The event loop is single-threaded,
/// so everything is buffered in plain (non-atomic) locals and flushed to
/// the shared [`Registry`] once at the end of the replay — the per-event
/// cost of enabled telemetry is ordinary integer arithmetic.
struct ReplayTelemetry {
    ops: Vec<u64>,
    queue_depth: Vec<u64>,
    queue_peak: Vec<u64>,
    latency_all: LocalHistogram,
    latency_read: LocalHistogram,
    latency_write: LocalHistogram,
    latency_update: LocalHistogram,
}

impl ReplayTelemetry {
    fn new(m: usize) -> Self {
        ReplayTelemetry {
            ops: vec![0; m],
            queue_depth: vec![0; m],
            queue_peak: vec![0; m],
            latency_all: LocalHistogram::new(),
            latency_read: LocalHistogram::new(),
            latency_write: LocalHistogram::new(),
            latency_update: LocalHistogram::new(),
        }
    }

    fn record_latency(&mut self, kind: OpKind, latency_ns: u64) {
        let us = latency_ns / 1_000;
        self.latency_all.record(us);
        match kind {
            OpKind::Read => self.latency_read.record(us),
            OpKind::Write => self.latency_write.record(us),
            OpKind::Update => self.latency_update.record(us),
        }
    }

    fn queue_pushed(&mut self, server: usize, depth: usize) {
        self.queue_depth[server] = depth as u64;
        self.queue_peak[server] = self.queue_peak[server].max(depth as u64);
    }

    fn queue_popped(&mut self, server: usize, depth: usize) {
        self.queue_depth[server] = depth as u64;
    }

    /// Publishes everything accumulated during the replay.
    fn flush(&self, registry: &Registry) {
        for (k, &n) in self.ops.iter().enumerate() {
            registry
                .counter(MetricKey::mds(names::MDS_OPS_TOTAL, k as u16))
                .add(n);
        }
        for (k, &d) in self.queue_depth.iter().enumerate() {
            registry
                .gauge(MetricKey::mds(names::MDS_QUEUE_DEPTH, k as u16))
                .set(d);
        }
        for (k, &p) in self.queue_peak.iter().enumerate() {
            registry
                .gauge(MetricKey::mds(names::MDS_QUEUE_DEPTH_PEAK, k as u16))
                .max(p);
        }
        self.latency_all
            .flush_into(&registry.histogram(MetricKey::global(names::OP_LATENCY_US)));
        self.latency_read
            .flush_into(&registry.histogram(MetricKey::global(names::OP_LATENCY_US_READ)));
        self.latency_write
            .flush_into(&registry.histogram(MetricKey::global(names::OP_LATENCY_US_WRITE)));
        self.latency_update
            .flush_into(&registry.histogram(MetricKey::global(names::OP_LATENCY_US_UPDATE)));
    }
}

/// The discrete-event simulator.
///
/// # Example
///
/// ```
/// use d2tree_cluster::{SimConfig, Simulator};
/// use d2tree_core::{D2TreeConfig, D2TreeScheme, Partitioner};
/// use d2tree_metrics::ClusterSpec;
/// use d2tree_workload::{TraceProfile, WorkloadBuilder};
///
/// let w = WorkloadBuilder::new(TraceProfile::dtr().with_nodes(1_000).with_operations(5_000))
///     .seed(1)
///     .build();
/// let pop = w.popularity();
/// let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default());
/// scheme.build(&w.tree, &pop, &ClusterSpec::homogeneous(4, 1.0));
///
/// let sim = Simulator::new(SimConfig { clients: 16, ..SimConfig::default() });
/// let out = sim.replay(&w.tree, &w.trace, &scheme);
/// assert_eq!(out.completed, 5_000);
/// assert!(out.throughput > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    config: SimConfig,
    registry: Option<Arc<Registry>>,
    faults: Option<FaultPlan>,
    tracer: Option<Arc<Tracer>>,
}

impl Simulator {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if `clients` or `workers_per_mds` is zero.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        assert!(config.clients > 0, "need at least one client");
        assert!(
            config.workers_per_mds > 0,
            "need at least one worker per MDS"
        );
        Simulator {
            config,
            registry: None,
            faults: None,
            tracer: None,
        }
    }

    /// Attaches a telemetry registry: subsequent replays record per-MDS
    /// op counts, busy time, queue depths and per-op-type latency
    /// histograms into it.
    #[must_use]
    pub fn with_registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Attaches a fault plan: every client→MDS send in subsequent replays
    /// consults a fresh seeded [`FaultInjector`], so dropped requests are
    /// resent after [`SimConfig::retry_timeout_ns`], delayed ones arrive
    /// late, and duplicated ones burn wasted service time on the target.
    /// The injector is rebuilt per replay, keeping replays deterministic.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Attaches a tracer: subsequent replays record, for every *sampled*
    /// operation, a root `op` span plus child spans for each network
    /// send, server visit (queue + service), lock hold and replica
    /// apply, stamped with virtual time so identically-seeded replays
    /// produce byte-identical span streams. Fault-injected sends tag
    /// their spans with the injected [`FaultKind`]. Tracing is purely
    /// observational: it never changes scheduling or outcomes.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The attached telemetry registry, if any.
    #[must_use]
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.registry.as_ref()
    }

    /// The attached tracer, if any.
    #[must_use]
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Replays `trace` in `rounds` chunks, rebalancing the scheme between
    /// chunks against popularity measured from the replayed prefix (with
    /// the paper's decaying counters) — the experimental loop behind
    /// Fig. 7's "subtraces are replayed to these clusters for 20 times".
    ///
    /// Returns the merged outcome plus per-round balance/migration
    /// trajectories.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0` or the trace has fewer operations than
    /// rounds.
    pub fn replay_with_rebalance(
        &self,
        tree: &NamespaceTree,
        trace: &Trace,
        scheme: &mut dyn Partitioner,
        cluster: &d2tree_metrics::ClusterSpec,
        rounds: usize,
        decay: f64,
    ) -> RebalancedReplay {
        self.replay_with_rebalance_recorded(tree, trace, scheme, cluster, rounds, decay, None)
    }

    /// [`replay_with_rebalance`](Self::replay_with_rebalance), but with
    /// an optional flight recorder sampled once per round: each tick
    /// carries that round's Def. 5 balance (from served ops), the Def. 3
    /// locality of the placement *after* the round's adjustment (the
    /// trajectory shows the rebalancer catching up to drift), cumulative
    /// op/hop/migration counts, and — when a registry is attached —
    /// fault and WAL signals.
    ///
    /// # Panics
    ///
    /// As for [`replay_with_rebalance`](Self::replay_with_rebalance).
    #[allow(
        clippy::too_many_arguments,
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    pub fn replay_with_rebalance_recorded(
        &self,
        tree: &NamespaceTree,
        trace: &Trace,
        scheme: &mut dyn Partitioner,
        cluster: &d2tree_metrics::ClusterSpec,
        rounds: usize,
        decay: f64,
        mut recorder: Option<&mut d2tree_telemetry::FlightRecorder>,
    ) -> RebalancedReplay {
        assert!(rounds > 0, "need at least one round");
        assert!(trace.len() >= rounds, "need at least one op per round");
        let chunk = trace.len() / rounds;
        let mut pop = d2tree_namespace::Popularity::new(tree);
        let mut balance_per_round = Vec::with_capacity(rounds);
        let mut migrations_per_round = Vec::with_capacity(rounds);
        let mut merged: Option<ReplayOutcome> = None;
        // Cumulative inputs for the flight recorder; it differences them
        // into per-tick deltas itself.
        let (mut cum_ops, mut cum_hops, mut cum_migs, mut cum_secs) = (0u64, 0u64, 0u64, 0f64);

        for r in 0..rounds {
            let start = r * chunk;
            let end = if r + 1 == rounds {
                trace.len()
            } else {
                start + chunk
            };
            let sub = &trace.ops()[start..end];

            let out = self.replay_ops(tree, sub, scheme);
            let loads: Vec<f64> = out.served_ops.iter().map(|&s| s as f64).collect();
            let total: f64 = loads.iter().sum();
            let measured = d2tree_metrics::ClusterSpec::homogeneous(
                cluster.len(),
                (total / cluster.len() as f64).max(f64::MIN_POSITIVE),
            );
            balance_per_round.push(d2tree_metrics::balance(&loads, &measured));

            // Decayed counters, then one adjustment round.
            pop.decay(decay);
            for op in sub {
                pop.record(op.target, 1.0);
            }
            pop.rollup(tree);
            migrations_per_round.push(scheme.rebalance(tree, &pop, cluster).len());

            if let Some(rec) = recorder.as_deref_mut() {
                cum_ops += out.completed as u64;
                cum_hops += out.total_hops;
                cum_migs += *migrations_per_round.last().expect("just pushed") as u64;
                cum_secs += out.sim_seconds;
                rec.sample(
                    d2tree_telemetry::TickSample {
                        t_us: (cum_secs * 1e6) as u64,
                        locality: scheme.locality(tree, &pop).locality,
                        balance: *balance_per_round.last().expect("just pushed"),
                        ops_total: cum_ops,
                        retries_total: cum_hops,
                        migrations_total: cum_migs,
                        loads: out.served_ops.iter().map(|&s| s as f64).collect(),
                    },
                    self.registry.as_deref(),
                );
                if let Some(r) = &self.registry {
                    r.counter(MetricKey::global(names::HEALTH_TICKS_TOTAL))
                        .inc();
                }
            }

            merged = Some(match merged.take() {
                None => out,
                Some(mut acc) => {
                    acc.completed += out.completed;
                    acc.sim_seconds += out.sim_seconds;
                    acc.total_hops += out.total_hops;
                    acc.lock_busy_ns += out.lock_busy_ns;
                    for (a, b) in acc.server_busy_ns.iter_mut().zip(&out.server_busy_ns) {
                        *a += b;
                    }
                    for (a, b) in acc.served_ops.iter_mut().zip(&out.served_ops) {
                        *a += b;
                    }
                    // Latency stats: weighted merge by completed counts.
                    let w_old = (acc.completed - out.completed) as f64;
                    let w_new = out.completed as f64;
                    acc.mean_latency_us = (acc.mean_latency_us * w_old
                        + out.mean_latency_us * w_new)
                        / (w_old + w_new);
                    acc.p99_latency_us = acc.p99_latency_us.max(out.p99_latency_us);
                    acc
                }
            });
        }
        let mut overall = merged.expect("at least one round ran");
        overall.throughput = overall.completed as f64 / overall.sim_seconds;
        RebalancedReplay {
            overall,
            balance_per_round,
            migrations_per_round,
        }
    }

    /// Replays `trace` against `scheme`'s current placement and routing.
    ///
    /// Runs until every operation completes; the virtual elapsed time
    /// yields the throughput.
    ///
    /// # Panics
    ///
    /// Panics if the scheme routes to an empty visit list (never happens
    /// for a built scheme).
    #[must_use]
    pub fn replay(
        &self,
        tree: &NamespaceTree,
        trace: &Trace,
        scheme: &dyn Partitioner,
    ) -> ReplayOutcome {
        self.replay_ops(tree, trace.ops(), scheme)
    }

    /// [`replay`](Self::replay) over a borrowed run of operations, so a
    /// chunked replay needs no copy of each chunk.
    fn replay_ops(
        &self,
        tree: &NamespaceTree,
        ops: &[Operation],
        scheme: &dyn Partitioner,
    ) -> ReplayOutcome {
        let cfg = &self.config;
        let m = scheme.placement().cluster_size();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // The placement is borrowed for the whole replay, so one router
        // serves every operation of it.
        let mut router = scheme.router(tree);
        let clients = cfg.clients.min(ops.len().max(1));
        let mut run = Replay {
            cfg,
            tracer: self.tracer.as_deref(),
            // Fresh injector per replay: its RNG restarts from the plan seed,
            // so identical replays see identical fault decisions.
            injector: self.faults.as_ref().map(|plan| {
                let inj = FaultInjector::new(plan);
                match &self.registry {
                    Some(r) => inj.with_registry(Arc::clone(r)),
                    None => inj,
                }
            }),
            queue: EventQueue::for_replay(cfg, self.faults.is_some()),
            servers: (0..m).map(|_| Server::default()).collect(),
            states: vec![None; clients],
            visits: vec![Vec::new(); clients],
            waste_ctx: vec![VecDeque::new(); m],
            tel: self.registry.is_some().then(|| ReplayTelemetry::new(m)),
            served_ops: vec![0; m],
            latencies: Vec::with_capacity(ops.len()),
        };
        // Per-node lock state: a held node maps to its FIFO of waiters.
        let mut lock_waiters: NodeIdMap<VecDeque<u32>> = NodeIdMap::default();
        let mut lock_busy_ns = 0u64;
        let hold_ns = cfg.lock_hold_ns();

        let mut cursor = 0usize; // shared trace cursor
        let mut total_hops = 0u64;

        for client in 0..clients as u32 {
            run.queue.push(0, client, EventKind::Issue);
        }
        while let Some((t, _, who, kind)) = run.queue.pop() {
            let c = who as usize;
            match kind {
                EventKind::Issue => {
                    let Some(&op) = ops.get(cursor) else {
                        continue; // this client retires
                    };
                    cursor += 1;
                    let plan = router.route(op.target, &mut rng);
                    total_hops += plan.hops() as u64;
                    run.visits[c].clear();
                    run.visits[c].extend_from_slice(plan.visits);
                    run.states[c] = Some(ReqState {
                        locked: plan.target_replicated && op.kind == OpKind::Update,
                        resends: 0,
                        next_visit: 0,
                        kind: op.kind,
                        target: op.target,
                        issued_at: t,
                        ctx: run.tracer.and_then(Tracer::begin),
                        hop_arrived_at: t,
                    });
                    run.send(who, t);
                }
                EventKind::Resend => run.send(who, t),
                EventKind::Waste => {
                    // The server burns one read-sized service slot on the
                    // duplicate.
                    let wctx = run.waste_ctx[c].pop_front().flatten();
                    run.offer(c, Job::Waste(wctx), t);
                }
                EventKind::Arrive => {
                    let state = run.states[c].as_mut().expect("arrival without a request");
                    state.hop_arrived_at = t;
                    let server = run.visits[c][state.next_visit].index();
                    run.offer(server, Job::Request(who), t);
                }
                EventKind::ServeDone => {
                    let state = run.states[c]
                        .as_mut()
                        .expect("completion without a request");
                    let server = run.visits[c][state.next_visit].index();
                    state.next_visit += 1;
                    let finished = state.next_visit == run.visits[c].len();
                    if let (Some(tr), Some(ctx)) = (run.tracer, state.ctx) {
                        let arrived = state.hop_arrived_at;
                        tr.record(
                            Span::child(
                                ctx,
                                tr.next_span(ctx.trace),
                                span_names::SERVE,
                                arrived / 1_000,
                                (t - arrived) / 1_000,
                            )
                            .on_mds(server as u16),
                        );
                    }
                    run.admit_next(server, t);
                    if finished {
                        run.complete(who, t);
                    } else {
                        run.queue
                            .push(t + cfg.hop_latency_ns, who, EventKind::Arrive);
                    }
                }
                EventKind::ApplyDone => run.admit_next(c, t),
                EventKind::LockArrive => {
                    let state = run.states[c].as_mut().expect("lock arrival state");
                    state.hop_arrived_at = t;
                    match lock_waiters.entry(state.target) {
                        Entry::Occupied(held) => held.into_mut().push_back(who),
                        Entry::Vacant(free) => {
                            free.insert(VecDeque::new());
                            lock_busy_ns += hold_ns;
                            run.queue.push(t + hold_ns, who, EventKind::LockDone);
                        }
                    }
                }
                EventKind::LockDone => {
                    let state = run.states[c].as_ref().expect("lock holder state");
                    let (node, ctx, arrived) = (state.target, state.ctx, state.hop_arrived_at);
                    let leader = run.visits[c][0].0;
                    // The next waiter, if any, takes the lock over.
                    let waiters = lock_waiters.get_mut(&node).expect("held lock");
                    if let Some(next) = waiters.pop_front() {
                        lock_busy_ns += hold_ns;
                        run.queue.push(t + hold_ns, next, EventKind::LockDone);
                    } else {
                        lock_waiters.remove(&node);
                    }
                    // Lock span: the wait (if any) plus the hold, charged to
                    // the commit leader. Replica applies parent on it so the
                    // viewer shows the causal fan-out of the commit.
                    let lock_ctx = match (run.tracer, ctx) {
                        (Some(tr), Some(ctx)) => {
                            let id = tr.next_span(ctx.trace);
                            tr.record(
                                Span::child(
                                    ctx,
                                    id,
                                    span_names::LOCK,
                                    arrived / 1_000,
                                    (t - arrived) / 1_000,
                                )
                                .on_mds(leader)
                                .with_arg(ArgKey::Node, node.index() as u64),
                            );
                            Some(SpanCtx {
                                trace: ctx.trace,
                                span: id,
                            })
                        }
                        _ => None,
                    };
                    // Every replica applies the committed mutation —
                    // real work on every replica's queue, which is what
                    // slows update-heavy traces as the cluster grows.
                    let replicas = scheme.placement().replicas();
                    for s in 0..m {
                        if replicas.contains(MdsId(s as u16)) {
                            run.offer(s, Job::Apply(lock_ctx), t);
                        }
                    }
                    run.complete(who, t);
                }
            }
        }

        let Replay {
            queue,
            servers,
            tel,
            served_ops,
            mut latencies,
            ..
        } = run;
        let completed = latencies.len();
        // Pops never go back in time, so the last one is the end.
        let sim_seconds = queue.now.max(1) as f64 / 1e9;
        let (mean_latency_us, p99_latency_us) = if latencies.is_empty() {
            (0.0, 0.0)
        } else {
            let mean = latencies.iter().sum::<u64>() as f64 / completed as f64 / 1e3;
            let rank = (completed * 99 / 100).min(completed - 1);
            (mean, *latencies.select_nth_unstable(rank).1 as f64 / 1e3)
        };
        let server_busy_ns: Vec<u64> = servers.into_iter().map(|s| s.busy_ns).collect();
        if let Some(registry) = self.registry.as_deref() {
            if let Some(tel) = &tel {
                tel.flush(registry);
            }
            for (k, &busy) in server_busy_ns.iter().enumerate() {
                registry
                    .counter(MetricKey::mds(names::MDS_BUSY_NS, k as u16))
                    .add(busy);
            }
            registry
                .counter(MetricKey::global(names::LOCK_BUSY_NS))
                .add(lock_busy_ns);
            registry
                .counter(MetricKey::global(names::ROUTE_EXTRA_HOPS))
                .add(total_hops);
        }
        ReplayOutcome {
            completed,
            sim_seconds,
            throughput: completed as f64 / sim_seconds,
            mean_latency_us,
            p99_latency_us,
            server_busy_ns,
            served_ops,
            lock_busy_ns,
            total_hops,
        }
    }
}

/// The mutable state of one replay that more than one event kind
/// touches; [`Simulator::replay`]'s event loop drives it.
struct Replay<'a> {
    cfg: &'a SimConfig,
    tracer: Option<&'a Tracer>,
    injector: Option<FaultInjector>,
    queue: EventQueue,
    servers: Vec<Server>,
    /// The request each closed-loop client has outstanding.
    states: Vec<Option<ReqState>>,
    /// The servers each client's outstanding request visits, in order:
    /// one buffer per client, refilled at every issue.
    visits: Vec<Vec<MdsId>>,
    /// Trace contexts for in-flight fault-duplicated copies, FIFO per
    /// server: pushed when a duplicate is scheduled, popped when its
    /// `Waste` event fires. Only populated while a tracer is attached,
    /// so push/pop stay aligned within a replay.
    waste_ctx: Vec<VecDeque<Option<SpanCtx>>>,
    tel: Option<ReplayTelemetry>,
    served_ops: Vec<u64>,
    latencies: Vec<u64>,
}

impl Replay<'_> {
    /// Sends (or re-sends) `client`'s outstanding request to its first
    /// server through the possibly faulty network: a dropped request is
    /// resent after `retry_timeout_ns`, a delayed one arrives late, a
    /// duplicated one arrives with a copy that wastes a service slot. The
    /// network-leg span is tagged with the injected fault, if any.
    fn send(&mut self, client: u32, t: u64) {
        let cfg = self.cfg;
        let state = self.states[client as usize]
            .as_mut()
            .expect("send without a request");
        let (first, ctx) = (self.visits[client as usize][0].0, state.ctx);
        let decision = match &self.injector {
            Some(inj) => inj.decide(NetEdge::ClientToMds(first), t / 1_000_000),
            None => FaultDecision::Deliver,
        };
        let arrival = t + cfg.client_latency_ns;
        // When the send's outcome reaches its receiver, and the fault to
        // tag the leg with. Past the resend cap a drop delivers instead.
        let (at, fault) = match decision {
            FaultDecision::Drop if state.resends < MAX_RESENDS => {
                state.resends += 1;
                (t + cfg.retry_timeout_ns, Some(FaultKind::Drop))
            }
            FaultDecision::Deliver | FaultDecision::Drop => (arrival, None),
            FaultDecision::Delay(ms) => (
                arrival + ms * 1_000_000,
                (ms > 0).then_some(FaultKind::Delay),
            ),
            FaultDecision::DeliverTwice => (arrival, Some(FaultKind::Duplicate)),
        };
        let arrive = if state.locked {
            EventKind::LockArrive
        } else {
            EventKind::Arrive
        };
        let (dropped, duplicated) = (
            fault == Some(FaultKind::Drop),
            fault == Some(FaultKind::Duplicate),
        );
        if let Some(tr) = self.tracer {
            // The eventual `Waste` event attributes its service time here.
            if duplicated {
                self.waste_ctx[first as usize].push_back(ctx);
            }
            if let Some(ctx) = ctx {
                let name = if dropped {
                    span_names::RESEND_WAIT
                } else {
                    span_names::NET
                };
                let id = tr.next_span(ctx.trace);
                let mut span =
                    Span::child(ctx, id, name, t / 1_000, (at - t) / 1_000).on_mds(first);
                span.fault = fault;
                tr.record(span);
            }
        }
        if dropped {
            self.queue.push(at, client, EventKind::Resend);
        } else {
            self.queue.push(at, client, arrive);
            if duplicated {
                self.queue.push(at, u32::from(first), EventKind::Waste);
            }
        }
    }

    /// Hands `job` to `server`: a free worker starts it, otherwise it
    /// waits in the server's FIFO.
    fn offer(&mut self, server: usize, job: Job, t: u64) {
        if self.servers[server].busy_workers < self.cfg.workers_per_mds {
            self.start(server, job, t);
        } else {
            self.servers[server].queue.push_back(job);
            if let Some(tel) = &mut self.tel {
                tel.queue_pushed(server, self.servers[server].queue.len());
            }
        }
    }

    /// Frees the worker whose job just finished on `server` and admits
    /// the next queued job.
    fn admit_next(&mut self, server: usize, t: u64) {
        self.servers[server].busy_workers -= 1;
        if let Some(job) = self.servers[server].queue.pop_front() {
            self.start(server, job, t);
        }
        if let Some(tel) = &mut self.tel {
            tel.queue_popped(server, self.servers[server].queue.len());
        }
    }

    /// Occupies one worker of `server` with `job` for its service time.
    fn start(&mut self, server: usize, job: Job, t: u64) {
        let cfg = self.cfg;
        let (svc, who, done, span) = match job {
            Job::Request(client) => {
                let state = self.states[client as usize]
                    .as_ref()
                    .expect("queued request state");
                let terminal = state.next_visit + 1 == self.visits[client as usize].len();
                let svc = if terminal && state.kind == OpKind::Update {
                    cfg.update_service_ns
                } else {
                    cfg.read_service_ns
                };
                (svc, client, EventKind::ServeDone, None)
            }
            Job::Apply(ctx) => (
                cfg.replica_apply_ns,
                server as u32,
                EventKind::ApplyDone,
                ctx.map(|ctx| (ctx, span_names::APPLY, None)),
            ),
            Job::Waste(ctx) => (
                cfg.read_service_ns,
                server as u32,
                EventKind::ApplyDone,
                ctx.map(|ctx| (ctx, span_names::WASTE, Some(FaultKind::Duplicate))),
            ),
        };
        if let (Some(tr), Some((ctx, name, fault))) = (self.tracer, span) {
            let id = tr.next_span(ctx.trace);
            let mut span = Span::child(ctx, id, name, t / 1_000, svc / 1_000).on_mds(server as u16);
            span.fault = fault;
            tr.record(span);
        }
        self.servers[server].busy_workers += 1;
        self.servers[server].busy_ns += svc;
        self.queue.push(t + svc, who, done);
    }

    /// Completes `client`'s request at `t`: the reply travels back, the
    /// operation is charged to the server that served it (for a locked
    /// update, the commit leader the client first contacted), and the
    /// client issues its next operation on receipt.
    fn complete(&mut self, client: u32, t: u64) {
        let state = self.states[client as usize].take().expect("request state");
        let visits = &self.visits[client as usize];
        let (served_by, hops) = if state.locked {
            (visits[0].index(), 0)
        } else {
            let last = visits.last().expect("non-empty");
            (last.index(), visits.len() as u64 - 1)
        };
        self.served_ops[served_by] += 1;
        let done_at = t + self.cfg.client_latency_ns;
        let latency = done_at - state.issued_at;
        self.latencies.push(latency);
        if let (Some(tr), Some(ctx)) = (self.tracer, state.ctx) {
            tr.record(
                Span::root(
                    ctx,
                    span_names::OP,
                    state.issued_at / 1_000,
                    latency / 1_000,
                )
                .with_arg(ArgKey::Target, state.target.index() as u64)
                .with_arg(ArgKey::Kind, op_kind_code(state.kind))
                .with_arg(ArgKey::Hops, hops)
                .with_arg(ArgKey::Locked, u64::from(state.locked)),
            );
        }
        if let Some(tel) = &mut self.tel {
            tel.ops[served_by] += 1;
            tel.record_latency(state.kind, latency);
        }
        self.queue.push(done_at, client, EventKind::Issue);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2tree_baselines::{HashMapping, StaticSubtree};
    use d2tree_core::{D2TreeConfig, D2TreeScheme};
    use d2tree_metrics::ClusterSpec;
    use d2tree_workload::{TraceProfile, WorkloadBuilder};

    fn workload(ops: usize) -> (d2tree_workload::Workload, d2tree_namespace::Popularity) {
        let w = WorkloadBuilder::new(TraceProfile::dtr().with_nodes(1_500).with_operations(ops))
            .seed(3)
            .build();
        let pop = w.popularity();
        (w, pop)
    }

    fn sim(clients: usize) -> Simulator {
        Simulator::new(SimConfig {
            clients,
            seed: 1,
            ..SimConfig::default()
        })
    }

    #[test]
    fn event_queue_pops_in_binary_heap_order() {
        use rand::Rng;
        const KINDS: [EventKind; 8] = [
            EventKind::Issue,
            EventKind::Arrive,
            EventKind::ServeDone,
            EventKind::LockArrive,
            EventKind::LockDone,
            EventKind::ApplyDone,
            EventKind::Resend,
            EventKind::Waste,
        ];
        // Multiples of 7 µs: hold 112 µs, longest delay the 700 µs resend.
        let odd = SimConfig {
            client_latency_ns: 21_000,
            hop_latency_ns: 28_000,
            read_service_ns: 35_000,
            update_service_ns: 35_000,
            lock_base_ns: 7_000,
            replica_apply_ns: 14_000,
            retry_timeout_ns: 700_000,
            ..SimConfig::default()
        };
        // (config, fault plan attached, derived step, slots)
        let grids = [
            (SimConfig::default(), false, 10_000, 256),
            (SimConfig::default(), true, 10_000, 256),
            (odd, false, 7_000, 128),
            (odd, true, 1_000, 1_024),
        ];
        for seed in 0..16 {
            let (cfg, faulty, step, slots) = grids[seed as usize % grids.len()];
            let mut queue = EventQueue::for_replay(&cfg, faulty);
            assert_eq!((queue.step, queue.heads.len()), (step, slots));
            let horizon = step * slots as u64;
            assert_eq!(queue.horizon, horizon);

            let mut rng = StdRng::seed_from_u64(seed);
            let mut heap: BinaryHeap<Reverse<EventKey>> = BinaryHeap::new();
            // The delay each event was pushed with, by `seq`.
            let mut delays = vec![0];
            let (mut now, mut last_delay) = (0u64, 0u64);
            let (mut calendar, mut off_grid, mut past_horizon, mut mixed_ties) = (0, 0, 0, 0);
            for step_no in 0..6_000 {
                // Push-heavy first so the queues fill, then drain.
                if step_no < 4_000 && rng.gen_bool(0.55) {
                    // Grid points from the first one at or after `now`, so
                    // a replay pushed off the grid can return to it.
                    let grid = now.div_ceil(step) * step;
                    let at = match rng.gen_range(0..20) {
                        // Zero, and short grid delays that tie on `t`.
                        0 => now,
                        1..=12 => grid + step * rng.gen_range(0..25),
                        13..=15 => grid + step * rng.gen_range(25..slots as u64),
                        16..=17 => grid + horizon + step * rng.gen_range(0..50),
                        _ => grid + step * rng.gen_range(0..40) + rng.gen_range(1..step),
                    };
                    let (delay, who, kind) = (
                        at - now,
                        rng.gen_range(0..200u32),
                        KINDS[rng.gen_range(0..8)],
                    );
                    heap.push(Reverse((at, delays.len() as u64, who, kind)));
                    delays.push(delay);
                    let overflowed = queue.overflow.len();
                    queue.push(at, who, kind);
                    let to_overflow = queue.overflow.len() > overflowed;
                    let on_grid = now % step == 0 && delay % step == 0;
                    assert_eq!(to_overflow, !on_grid || delay >= horizon, "delay {delay}");
                    calendar += usize::from(!to_overflow);
                    off_grid += usize::from(!on_grid);
                    past_horizon += usize::from(on_grid && delay >= horizon);
                } else {
                    let expected = heap.pop().map(|r| r.0);
                    assert_eq!(queue.pop(), expected, "seed {seed}, step {step_no}");
                    if let Some((t, seq, ..)) = expected {
                        let delay = delays[seq as usize];
                        mixed_ties += usize::from(t == now && delay != last_delay);
                        (now, last_delay) = (t, delay);
                    }
                }
            }
            assert!(heap.is_empty() && queue.pop().is_none());
            assert!(calendar > 1_000, "only {calendar} calendar pushes");
            assert!(off_grid > 50 && past_horizon > 50);
            assert!(
                mixed_ties > 500,
                "only {mixed_ties} equal-time pops pushed from different delays"
            );
        }
    }

    #[test]
    fn completes_every_operation() {
        let (w, pop) = workload(4_000);
        let cluster = ClusterSpec::homogeneous(4, 1.0);
        let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default());
        scheme.build(&w.tree, &pop, &cluster);
        let out = sim(32).replay(&w.tree, &w.trace, &scheme);
        assert_eq!(out.completed, 4_000);
        assert!(out.sim_seconds > 0.0);
        assert!(out.mean_latency_us > 0.0);
        assert!(out.p99_latency_us >= out.mean_latency_us * 0.5);
    }

    #[test]
    fn deterministic_replay() {
        let (w, pop) = workload(2_000);
        let cluster = ClusterSpec::homogeneous(3, 1.0);
        let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default());
        scheme.build(&w.tree, &pop, &cluster);
        let a = sim(16).replay(&w.tree, &w.trace, &scheme);
        let b = sim(16).replay(&w.tree, &w.trace, &scheme);
        assert_eq!(a, b);
    }

    #[test]
    fn d2tree_scales_with_cluster_size_on_read_heavy_trace() {
        let (w, pop) = workload(8_000);
        let mut results = Vec::new();
        for m in [2, 8] {
            let cluster = ClusterSpec::homogeneous(m, 1.0);
            let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default());
            scheme.build(&w.tree, &pop, &cluster);
            results.push(sim(64).replay(&w.tree, &w.trace, &scheme).throughput);
        }
        assert!(
            results[1] > results[0] * 1.5,
            "8 MDSs should clearly outrun 2: {results:?}"
        );
    }

    #[test]
    fn hash_mapping_pays_for_hops() {
        let (w, pop) = workload(4_000);
        let cluster = ClusterSpec::homogeneous(8, 1.0);
        let mut d2 = D2TreeScheme::new(D2TreeConfig::paper_default());
        d2.build(&w.tree, &pop, &cluster);
        let mut hash = HashMapping::new(5);
        hash.build(&w.tree, &pop, &cluster);
        let s = sim(64);
        let d2_out = s.replay(&w.tree, &w.trace, &d2);
        let hash_out = s.replay(&w.tree, &w.trace, &hash);
        assert!(hash_out.total_hops > d2_out.total_hops * 2);
        assert!(
            d2_out.throughput > hash_out.throughput,
            "D2-Tree {} vs hash {}",
            d2_out.throughput,
            hash_out.throughput
        );
    }

    #[test]
    fn update_heavy_trace_contends_on_the_lock() {
        let w = WorkloadBuilder::new(TraceProfile::ra().with_nodes(1_500).with_operations(4_000))
            .seed(4)
            .build();
        let pop = w.popularity();
        let cluster = ClusterSpec::homogeneous(8, 1.0);
        let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default());
        scheme.build(&w.tree, &pop, &cluster);
        let out = sim(64).replay(&w.tree, &w.trace, &scheme);
        assert!(
            out.lock_busy_ns > 0,
            "RA updates must exercise the lock service"
        );
    }

    #[test]
    fn static_subtree_skew_limits_throughput() {
        let (w, pop) = workload(6_000);
        let cluster = ClusterSpec::homogeneous(8, 1.0);
        let mut st = StaticSubtree::new(2);
        st.build(&w.tree, &pop, &cluster);
        let out = sim(64).replay(&w.tree, &w.trace, &st);
        // The busiest server should be far busier than the idlest —
        // static partitioning cannot spread a skewed workload.
        let max = out.server_busy_ns.iter().max().unwrap();
        let min = out.server_busy_ns.iter().min().unwrap();
        assert!(max > &(min * 2), "busy {max} vs idle {min}");
    }

    #[test]
    fn rebalanced_replay_conserves_ops_and_reports_rounds() {
        let (w, pop) = workload(6_000);
        let cluster = ClusterSpec::homogeneous(4, pop.sum_individual() / 4.0);
        let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default());
        scheme.build(&w.tree, &pop, &cluster);
        let out = sim(32).replay_with_rebalance(&w.tree, &w.trace, &mut scheme, &cluster, 5, 0.5);
        assert_eq!(out.overall.completed, 6_000);
        assert_eq!(out.balance_per_round.len(), 5);
        assert_eq!(out.migrations_per_round.len(), 5);
        assert_eq!(out.overall.served_ops.iter().sum::<u64>(), 6_000);
        assert!(out.overall.throughput > 0.0);
        for b in &out.balance_per_round {
            assert!(*b > 0.0);
        }
    }

    #[test]
    fn recorded_replay_ticks_once_per_round_and_matches_trajectories() {
        let (w, pop) = workload(6_000);
        let cluster = ClusterSpec::homogeneous(4, pop.sum_individual() / 4.0);
        let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default());
        scheme.build(&w.tree, &pop, &cluster);
        let registry = Arc::new(Registry::new());
        let mut rec = d2tree_telemetry::FlightRecorder::new(16);
        let out = sim(32)
            .with_registry(Arc::clone(&registry))
            .replay_with_rebalance_recorded(
                &w.tree,
                &w.trace,
                &mut scheme,
                &cluster,
                5,
                0.5,
                Some(&mut rec),
            );
        assert_eq!(rec.len(), 5, "one tick per round");
        let ticks: Vec<_> = rec.ticks().cloned().collect();
        // The recorder's balance trajectory is exactly the replay's.
        for (tick, b) in ticks.iter().zip(&out.balance_per_round) {
            assert!((tick.balance - b).abs() < 1e-12);
        }
        for (tick, m) in ticks.iter().zip(&out.migrations_per_round) {
            assert_eq!(tick.migrations, *m as u64);
        }
        assert_eq!(ticks.iter().map(|t| t.ops).sum::<u64>(), 6_000);
        assert!(ticks
            .iter()
            .all(|t| t.locality.is_finite() && t.locality > 0.0));
        assert!(
            ticks.windows(2).all(|w| w[0].t_us < w[1].t_us),
            "virtual time advances"
        );
        assert_eq!(
            registry
                .counter(MetricKey::global(names::HEALTH_TICKS_TOTAL))
                .get(),
            5
        );
        // Same seed, no recorder: outcome identical (recording is passive).
        let mut scheme2 = D2TreeScheme::new(D2TreeConfig::paper_default());
        scheme2.build(&w.tree, &pop, &cluster);
        let out2 = sim(32).replay_with_rebalance(&w.tree, &w.trace, &mut scheme2, &cluster, 5, 0.5);
        assert_eq!(out.balance_per_round, out2.balance_per_round);
        assert_eq!(out.overall.completed, out2.overall.completed);
    }

    #[test]
    fn utilization_is_a_fraction() {
        let (w, pop) = workload(2_000);
        let cluster = ClusterSpec::homogeneous(3, 1.0);
        let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default());
        scheme.build(&w.tree, &pop, &cluster);
        let config = SimConfig {
            clients: 32,
            seed: 1,
            ..SimConfig::default()
        };
        let out = Simulator::new(config).replay(&w.tree, &w.trace, &scheme);
        for u in out.utilization(config.workers_per_mds) {
            assert!(
                (0.0..=1.0 + 1e-9).contains(&u),
                "utilisation {u} out of range"
            );
        }
    }

    #[test]
    fn telemetry_agrees_with_outcome_and_leaves_results_unchanged() {
        let (w, pop) = workload(2_000);
        let cluster = ClusterSpec::homogeneous(3, 1.0);
        let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default());
        scheme.build(&w.tree, &pop, &cluster);
        let registry = Arc::new(Registry::new());
        let out = sim(16)
            .with_registry(Arc::clone(&registry))
            .replay(&w.tree, &w.trace, &scheme);

        let per_mds_ops: u64 = (0..3)
            .map(|k| {
                registry
                    .counter(MetricKey::mds(names::MDS_OPS_TOTAL, k))
                    .get()
            })
            .sum();
        assert_eq!(per_mds_ops, out.completed as u64);
        for (k, &served) in out.served_ops.iter().enumerate() {
            assert_eq!(
                registry
                    .counter(MetricKey::mds(names::MDS_OPS_TOTAL, k as u16))
                    .get(),
                served
            );
            assert_eq!(
                registry
                    .counter(MetricKey::mds(names::MDS_BUSY_NS, k as u16))
                    .get(),
                out.server_busy_ns[k]
            );
        }
        let h = registry.histogram(MetricKey::global(names::OP_LATENCY_US));
        assert_eq!(h.count(), out.completed as u64);
        let p99 = h.quantile(0.99) as f64;
        assert!(
            (p99 - out.p99_latency_us).abs() <= out.p99_latency_us * 0.08 + 1.0,
            "histogram p99 {p99} vs exact {}",
            out.p99_latency_us
        );
        assert_eq!(
            registry
                .counter(MetricKey::global(names::ROUTE_EXTRA_HOPS))
                .get(),
            out.total_hops
        );

        // Telemetry must be purely observational.
        let plain = sim(16).replay(&w.tree, &w.trace, &scheme);
        assert_eq!(plain, out);
    }

    #[test]
    fn faulty_replay_is_deterministic_lossless_and_slower() {
        use crate::fault::{FaultAction, FaultRule, FaultScope};
        let (w, pop) = workload(2_000);
        let cluster = ClusterSpec::homogeneous(3, 1.0);
        let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default());
        scheme.build(&w.tree, &pop, &cluster);
        let plan = FaultPlan::new(9)
            .with_rule(
                FaultRule::new(FaultScope::AllLinks, FaultAction::Drop).with_probability(0.05),
            )
            .with_rule(
                FaultRule::new(
                    FaultScope::Mds(0),
                    FaultAction::Delay {
                        fixed_ms: 1,
                        jitter_ms: 1,
                    },
                )
                .with_probability(0.2),
            )
            .with_rule(
                FaultRule::new(FaultScope::Mds(1), FaultAction::Duplicate).with_probability(0.1),
            );
        let a = sim(16)
            .with_faults(plan.clone())
            .replay(&w.tree, &w.trace, &scheme);
        let b = sim(16).with_faults(plan).replay(&w.tree, &w.trace, &scheme);
        assert_eq!(a, b, "same plan must replay identically");
        assert_eq!(a.completed, 2_000, "faults may slow ops, never lose them");
        let clean = sim(16).replay(&w.tree, &w.trace, &scheme);
        assert!(
            a.sim_seconds > clean.sim_seconds,
            "drops/delays must cost virtual time: faulty {} vs clean {}",
            a.sim_seconds,
            clean.sim_seconds
        );
    }

    /// The fields of a [`ReplayOutcome`] the golden table pins, floats by
    /// bit pattern: throughput, p99, mean, hops, served ops, lock time.
    type Fingerprint = (u64, u64, u64, u64, Vec<u64>, u64);

    fn fingerprint(out: &ReplayOutcome) -> Fingerprint {
        (
            out.throughput.to_bits(),
            out.p99_latency_us.to_bits(),
            out.mean_latency_us.to_bits(),
            out.total_hops,
            out.served_ops.clone(),
            out.lock_busy_ns,
        )
    }

    /// A plan whose delay jitter (1–25 ms) reaches past the event
    /// queue's 2.56 ms calendar horizon, so the overflow heap carries
    /// real traffic.
    fn wide_jitter_plan() -> FaultPlan {
        use crate::fault::{FaultAction, FaultRule, FaultScope};
        FaultPlan::new(9)
            .with_rule(
                FaultRule::new(FaultScope::AllLinks, FaultAction::Drop).with_probability(0.05),
            )
            .with_rule(
                FaultRule::new(FaultScope::AllLinks, FaultAction::Duplicate).with_probability(0.05),
            )
            .with_rule(
                FaultRule::new(
                    FaultScope::AllLinks,
                    FaultAction::Delay {
                        fixed_ms: 1,
                        jitter_ms: 24,
                    },
                )
                .with_probability(0.5),
            )
    }

    #[test]
    fn replay_outcomes_match_the_goldens_recorded_before_the_event_queue_change() {
        let w = WorkloadBuilder::new(TraceProfile::ra().with_nodes(1_500).with_operations(3_000))
            .seed(3)
            .build();
        let pop = w.popularity();
        let cluster = ClusterSpec::homogeneous(4, 1.0);
        let mut got = Vec::new();
        for mut scheme in d2tree_baselines::extended_lineup(0.01, 3) {
            scheme.build(&w.tree, &pop, &cluster);
            got.push((
                scheme.name(),
                fingerprint(&sim(32).replay(&w.tree, &w.trace, scheme.as_ref())),
            ));
            if scheme.name() == "D2-Tree" {
                let faulty = sim(32).with_faults(wide_jitter_plan()).replay(
                    &w.tree,
                    &w.trace,
                    scheme.as_ref(),
                );
                assert_eq!(faulty.completed, 3_000);
                got.push(("D2-Tree + wide-jitter faults", fingerprint(&faulty)));
            }
        }
        // Recorded at the parent commit (binary-heap event queue,
        // string-hash and recount baseline builds). An intended change
        // of simulated behaviour re-records them and says why.
        #[rustfmt::skip]
        let golden: Vec<(&str, Fingerprint)> = vec![
            ("D2-Tree", (4676764048501880100, 4653344314980564992, 4649105477753162957, 152, vec![740, 721, 792, 747], 28080000)),
            ("D2-Tree + wide-jitter faults", (4661648436356102123, 4672766088373600256, 4664417841097540457, 152, vec![740, 721, 792, 747], 28080000)),
            ("Static Subtree", (4673616671830841029, 4654751689864118272, 4652587411176003994, 0, vec![29, 682, 361, 1928], 0)),
            ("Dynamic Subtree", (4673088729536663843, 4655411396840783872, 4652943872845728973, 1636, vec![927, 720, 591, 762], 0)),
            ("DROP", (4675377128747471351, 4654311885213007872, 4650668836686310059, 746, vec![754, 748, 752, 746], 0)),
            ("AngleCut", (4675428993298591875, 4655411396840783872, 4650611515480115336, 1027, vec![772, 734, 748, 746], 0)),
            ("Hash Mapping", (4671728731750173616, 4660464752282042368, 4654107742554117461, 3851, vec![613, 874, 739, 774], 0)),
        ];
        assert_eq!(got, golden);
    }

    #[test]
    fn more_clients_do_not_lose_operations() {
        let (w, pop) = workload(1_000);
        let cluster = ClusterSpec::homogeneous(2, 1.0);
        let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default());
        scheme.build(&w.tree, &pop, &cluster);
        // More clients than operations: the simulator clamps.
        let out = Simulator::new(SimConfig {
            clients: 5_000,
            ..SimConfig::default()
        })
        .replay(&w.tree, &w.trace, &scheme);
        assert_eq!(out.completed, 1_000);
    }
}
