//! A real multi-threaded MDS cluster in one process: M [`NetMds`] — the
//! serving core `d2tree serve` runs — one per OS thread, `std::sync::mpsc`
//! channels as the network carrying the wire codec's frames, a Monitor
//! thread doing heartbeat-based failure detection, and fail-over that
//! re-homes a dead server's subtrees onto the survivors. Membership and
//! GL leases live in one mutex-guarded `ControlState` that every
//! command, ownership decisions included, is applied to as it is issued.
//!
//! A server thread keeps only heartbeats, the crash flag, index fetches
//! and the fault edges of its links; the cluster adds a GL replication
//! group and the Monitor's migrations to what the daemon does alone.
//!
//! This runtime exists to exercise true concurrency — races between
//! clients, the Monitor and fail-over — that the deterministic simulator
//! cannot. The integration tests and the `rebalance_on_failure` example
//! run on it.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use d2tree_core::{Heartbeat, LocalIndex, Subtree};
use d2tree_metrics::{Assignment, ClusterSpec, MdsId, Migration, Placement};
use d2tree_namespace::{NamespaceTree, NodeId, VersionedAttr};
use d2tree_store::StoreConfig;
use d2tree_telemetry::trace::{span_names, ArgKey, Span, SpanCtx, SpanName, Tracer};
use d2tree_telemetry::{
    names, Counter, Event, EventKind, FaultKind, FlightRecorder, HealthTick, MetricKey, Registry,
    TickSample,
};
use d2tree_workload::Operation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub use crate::client::ClientError;
use crate::client::{
    CacheStats, ClientCache, Outcome, RequestMachine, RetryPolicy, RouteDecision, Step,
};
use crate::consensus::Command;
use crate::fault::{FaultDecision, FaultInjector, FaultPlan, NetEdge};
use crate::lock::LockService;
use crate::mds::ServeSpan;
use crate::message::{Request, RequestId, Response, REQUEST_FRAME_BYTES};
use crate::monitor::{ClusterEvent, Monitor, MonitorConfig};
use crate::net::NetMds;
use crate::sync;

/// Tuning of the live runtime.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// How often each MDS heartbeats the Monitor.
    pub heartbeat_interval: Duration,
    /// Monitor failure-declaration timeout.
    pub failure_timeout: Duration,
    /// Client-side per-attempt response timeout.
    pub request_timeout: Duration,
    /// Client retry policy: attempt budget, backoff and overall deadline.
    pub retry: RetryPolicy,
    /// How long a client's cached local index stays fresh before it
    /// re-fetches (the GFS-style lease of Sec. IV-A2).
    pub index_lease: Duration,
    /// Live rebalancing trigger: the Monitor migrates a hot subtree when
    /// the busiest server's recent local-layer load exceeds the lightest's
    /// by this factor. `f64::INFINITY` disables live rebalancing.
    pub rebalance_factor: f64,
    /// Root directory for durable per-MDS state (`<root>/mds-<k>`).
    /// `None` runs the cluster purely in memory, as before; `Some`
    /// makes every MDS journal ownership changes, attribute commits
    /// and popularity counters to a write-ahead log, and
    /// [`LiveCluster::restart`] then recovers locally from disk.
    pub store_root: Option<PathBuf>,
    /// WAL / snapshot tuning used when `store_root` is set.
    pub store: StoreConfig,
    /// Tracer every hop (client attempts, server serves, lock holds,
    /// monitor decisions, WAL I/O) records spans into; `None` disables
    /// tracing, leaving one branch per potential span on the hot path.
    pub tracer: Option<Arc<Tracer>>,
    /// Flight-recorder ring capacity; `Some(n)` makes the Monitor sample
    /// one [`HealthTick`] per heartbeat interval (balance from live
    /// subtree counters, op/forward/migration deltas, WAL fsync p99),
    /// keeping the newest `n`. `None` disables health recording.
    pub recorder_capacity: Option<usize>,
}

impl LiveConfig {
    /// Attaches a tracer; spans from every hop land in its sink.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Enables the Monitor's flight recorder with room for `capacity`
    /// health ticks.
    #[must_use]
    pub fn with_recorder(mut self, capacity: usize) -> Self {
        self.recorder_capacity = Some(capacity);
        self
    }
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            heartbeat_interval: Duration::from_millis(20),
            failure_timeout: Duration::from_millis(120),
            request_timeout: Duration::from_millis(50),
            retry: RetryPolicy::default(),
            index_lease: Duration::from_millis(500),
            rebalance_factor: 3.0,
            store_root: None,
            store: StoreConfig::default(),
            tracer: None,
            recorder_capacity: None,
        }
    }
}

#[derive(Debug)]
enum ServerMsg {
    Frame(Vec<u8>, SyncSender<Vec<u8>>),
    /// Control-plane request for the current local index (clients refresh
    /// their cache through this; it is not part of the data-path codec).
    FetchIndex(SyncSender<LocalIndex>),
    Shutdown,
}

/// Cluster-level state: all per-MDS state is in the MDSs' `NetMds`.
#[derive(Debug)]
struct Shared {
    tree: Arc<NamespaceTree>,
    migrations: AtomicU64,
    /// The cluster's one control plane: GL leases are taken through it,
    /// and the Monitor applies its membership and migration commands to
    /// the `ControlState` it is a view of.
    locks: LockService,
    killed: Vec<AtomicBool>,
    /// Wall-ms timestamp of each server's last [`LiveCluster::restart`]
    /// (`u64::MAX` when never restarted, or already consumed by the
    /// Monitor's rejoin-latency measurement).
    restarted_at: Vec<AtomicU64>,
    epoch: Instant,
    /// Cluster-wide telemetry: counters plus the event journal the
    /// Monitor also writes membership transitions into.
    registry: Arc<Registry>,
    /// Seeded fault injector both transport directions consult; `None`
    /// runs the cluster fault-free with zero overhead.
    faults: Option<FaultInjector>,
    /// Tracer shared by every component, `None` when tracing is off.
    tracer: Option<Arc<Tracer>>,
    /// Monitor-sampled health trajectory, `None` when recording is off.
    /// Locked once per heartbeat interval by the Monitor and on reads.
    recorder: Option<Mutex<FlightRecorder>>,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_deref()
    }

    fn alive(&self, k: usize) -> bool {
        !self.killed[k].load(Ordering::SeqCst)
    }

    /// Consults the fault plan for one message on `edge` (a no-op
    /// `Deliver` when the cluster runs fault-free).
    fn fault(&self, edge: NetEdge) -> FaultDecision {
        match &self.faults {
            Some(inj) => inj.decide(edge, self.now_ms()),
            None => FaultDecision::Deliver,
        }
    }
}

/// The global layer's replication group inside a [`LiveCluster`]: it
/// serialises a member's replicated update through the lock service,
/// across the member's `MdsToLock` fault edge, and propagates the
/// committed record, version-gated, to every live sibling replica.
#[derive(Debug)]
pub(crate) struct GlGroup {
    shared: Arc<Shared>,
    members: Weak<Vec<Arc<NetMds>>>,
}

impl GlGroup {
    /// Commits an update of global-layer `node` for member `me`: `local`
    /// commits it on `me`'s replica under the node's lease, released
    /// once the siblings have it, and a `gl_lock` span nested in `serve`
    /// records the wait and the hold. `false` when the lock edge dropped
    /// the request: it dies here, its `serve` span tagged with the drop,
    /// and the client's retry policy copes.
    pub(crate) fn commit(
        &self,
        me: MdsId,
        node: NodeId,
        serve: Option<ServeSpan<'_>>,
        local: impl FnOnce() -> VersionedAttr,
    ) -> bool {
        let shared = &*self.shared;
        let lock_fault = shared.fault(NetEdge::MdsToLock(me.0));
        match lock_fault {
            FaultDecision::Drop => {
                if let Some(sp) = serve {
                    sp.tracer
                        .record(sp.close(me, node).with_fault(FaultKind::Drop));
                }
                return false;
            }
            FaultDecision::Delay(ms) => std::thread::sleep(Duration::from_millis(ms)),
            _ => {}
        }
        let lock_t0 = serve.map(|sp| sp.tracer.now_us());
        let (token, spins) = shared.locks.acquire_spin(node, || shared.now_ms());
        let committed = local();
        // A killed replica is a crashed process: it misses propagation
        // and re-syncs through the lock service on restart.
        if let Some(members) = self.members.upgrade() {
            for (k, sibling) in members.iter().enumerate() {
                if k != me.index() && shared.alive(k) {
                    sibling.replicate(node, committed);
                }
            }
        }
        let released = shared.locks.release(token);
        debug_assert!(released, "fresh token releases cleanly");
        if let (Some(serve), Some(start)) = (serve, lock_t0) {
            let tr = serve.tracer;
            let parent = SpanCtx {
                span: serve.id,
                ..serve.ctx
            };
            let mut sp = Span::child(
                parent,
                tr.next_span(parent.trace),
                span_names::LOCK,
                start,
                tr.now_us().saturating_sub(start),
            )
            .on_mds(me.0)
            .with_arg(ArgKey::Node, node.index() as u64)
            .with_arg(ArgKey::Spins, spins);
            sp.fault = lock_fault.kind();
            tr.record(sp);
        }
        true
    }
}

/// Final report returned by [`LiveCluster::shutdown`].
#[derive(Debug, Clone)]
pub struct LiveReport {
    /// Operations served per MDS.
    pub served: Vec<u64>,
    /// Redirect responses issued (mis-routed requests).
    pub redirects: u64,
    /// Live subtree migrations the Monitor performed.
    pub migrations: u64,
    /// Membership events the Monitor recorded.
    pub events: Vec<ClusterEvent>,
    /// Full structured event journal of the run, oldest first: heartbeats,
    /// failures, subtree sheds/claims, forwards and cache misses.
    pub journal: Vec<Event>,
}

/// A running in-process MDS cluster.
///
/// Start it with a complete [`Placement`] (usually from a built scheme),
/// obtain any number of [`LiveClient`]s, optionally [`kill`] servers to
/// test fail-over, then [`shutdown`] for the final report.
///
/// [`kill`]: LiveCluster::kill
/// [`shutdown`]: LiveCluster::shutdown
#[derive(Debug)]
pub struct LiveCluster {
    shared: Arc<Shared>,
    /// The MDSs, by id. Every migration reaches every view, a crashed
    /// MDS's too, so daemon 0's is the one the Monitor plans over.
    daemons: Arc<Vec<Arc<NetMds>>>,
    config: LiveConfig,
    server_txs: Vec<Sender<ServerMsg>>,
    server_handles: Vec<JoinHandle<()>>,
    monitor_handle: Option<JoinHandle<Monitor>>,
    monitor_stop: Arc<AtomicBool>,
}

impl LiveCluster {
    /// Spawns `placement.cluster_size()` server threads plus the Monitor.
    ///
    /// # Panics
    ///
    /// Panics if the placement is not complete for `tree`.
    #[must_use]
    pub fn start(tree: Arc<NamespaceTree>, placement: Placement, config: LiveConfig) -> Self {
        Self::start_with_index(tree, placement, LocalIndex::new(), config)
    }

    /// Like [`start`](Self::start), seeding the servers with a local index
    /// (usually `D2TreeScheme::local_index().clone()`), which clients then
    /// cache and route by. Without one, clients fall back to contacting
    /// arbitrary servers and following redirects.
    ///
    /// # Panics
    ///
    /// Panics if the placement is not complete for `tree`.
    #[must_use]
    pub fn start_with_index(
        tree: Arc<NamespaceTree>,
        placement: Placement,
        index: LocalIndex,
        config: LiveConfig,
    ) -> Self {
        Self::start_inner(tree, placement, index, config, None)
    }

    /// Like [`start_with_index`](Self::start_with_index), with a seeded
    /// [`FaultPlan`] that every transport edge (client↔MDS, MDS↔Monitor,
    /// MDS↔lock-service) consults on each message. Injected faults are
    /// journaled as [`EventKind::FaultInjected`] and counted in the
    /// `faults_dropped/delayed/duplicated_total` counters.
    ///
    /// # Panics
    ///
    /// Panics if the placement is not complete for `tree`.
    #[must_use]
    pub fn start_with_faults(
        tree: Arc<NamespaceTree>,
        placement: Placement,
        index: LocalIndex,
        config: LiveConfig,
        plan: FaultPlan,
    ) -> Self {
        Self::start_inner(tree, placement, index, config, Some(plan))
    }

    fn start_inner(
        tree: Arc<NamespaceTree>,
        placement: Placement,
        mut index: LocalIndex,
        config: LiveConfig,
        plan: Option<FaultPlan>,
    ) -> Self {
        let m = placement.cluster_size();
        let registry = Arc::new(Registry::new());
        let faults = plan
            .filter(|p| !p.is_empty())
            .map(|p| FaultInjector::new(&p).with_registry(Arc::clone(&registry)));
        let shared = Arc::new(Shared {
            tree: Arc::clone(&tree),
            migrations: AtomicU64::new(0),
            locks: LockService::new(1_000),
            killed: (0..m).map(|_| AtomicBool::new(false)).collect(),
            restarted_at: (0..m).map(|_| AtomicU64::new(u64::MAX)).collect(),
            epoch: Instant::now(),
            registry: Arc::clone(&registry),
            faults,
            tracer: config.tracer.clone(),
            recorder: config
                .recorder_capacity
                .map(|c| Mutex::new(FlightRecorder::new(c))),
        });
        // Labelled once, the index's table is shared by every copy.
        index.relabel(&tree);
        // With durable stores, each server resumes what a previous run
        // left on disk and journals the subtrees the seeded index gives it.
        let daemons = Arc::new_cyclic(|members| {
            let group = Arc::new(GlGroup {
                shared: Arc::clone(&shared),
                members: Weak::clone(members),
            });
            (0..m)
                .map(|k| {
                    let mut mds = NetMds::new(
                        Arc::clone(&tree),
                        placement.clone(),
                        index.clone(),
                        MdsId(k as u16),
                        Arc::clone(&registry),
                    )
                    .with_gl_group(Arc::clone(&group));
                    if let Some(tracer) = &config.tracer {
                        mds = mds.with_tracer(Arc::clone(tracer));
                    }
                    if let Some(root) = &config.store_root {
                        mds = mds.with_store_root(root, config.store);
                    }
                    Arc::new(mds)
                })
                .collect()
        });

        let (hb_tx, hb_rx) = channel::<Heartbeat>();
        let mut server_txs = Vec::with_capacity(m);
        let mut server_handles = Vec::with_capacity(m);
        for (k, mds) in daemons.iter().enumerate() {
            let (tx, rx) = channel::<ServerMsg>();
            server_txs.push(tx);
            let shared = Arc::clone(&shared);
            let mds = Arc::clone(mds);
            let hb_tx = hb_tx.clone();
            let (interval, retry) = (config.heartbeat_interval, config.retry);
            server_handles.push(std::thread::spawn(move || {
                server_main(&shared, &mds, k, &rx, &hb_tx, interval, retry);
            }));
        }
        drop(hb_tx);

        let monitor_stop = Arc::new(AtomicBool::new(false));
        let monitor_handle = {
            let shared = Arc::clone(&shared);
            let daemons = Arc::clone(&daemons);
            let stop = Arc::clone(&monitor_stop);
            let config = config.clone();
            std::thread::spawn(move || monitor_main(&shared, &daemons, &config, &hb_rx, &stop))
        };

        LiveCluster {
            shared,
            daemons,
            config,
            server_txs,
            server_handles,
            monitor_handle: Some(monitor_handle),
            monitor_stop,
        }
    }

    /// A new client handle (clients are cheap; make one per thread).
    #[must_use]
    pub fn client(&self, seed: u64) -> LiveClient {
        let registry = &self.shared.registry;
        LiveClient {
            cache_hits: registry.counter(MetricKey::global(names::CLIENT_CACHE_HITS)),
            cache_misses: registry.counter(MetricKey::global(names::CLIENT_CACHE_MISSES)),
            monitor_retries: registry.counter(MetricKey::global(names::MONITOR_RETRIES_TOTAL)),
            client_id: seed,
            shared: Arc::clone(&self.shared),
            server_txs: self.server_txs.clone(),
            timeout: self.config.request_timeout,
            retry: self.config.retry,
            cache: ClientCache::new(self.config.index_lease.as_millis() as u64),
            next_id: 1,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Crash-stops one MDS: it silently drops every message and stops
    /// heartbeating, exactly like a crashed process behind a live socket.
    ///
    /// Idempotent and panic-free: killing an already-dead or unknown
    /// `MdsId` is a no-op. Returns whether the call changed state (the
    /// server was alive and is now dead).
    pub fn kill(&self, mds: MdsId) -> bool {
        let changed = match self.shared.killed.get(mds.index()) {
            Some(flag) => !flag.swap(true, Ordering::SeqCst),
            None => false,
        };
        if changed {
            // The crash happens at an arbitrary point in the group-commit
            // window: a prefix of the unsynced buffer tears into the
            // file, the rest is lost.
            let at = self.shared.now_ms() as usize;
            self.daemons[mds.index()]
                .crash_store(|pending| at.wrapping_mul(2_654_435_761) % (pending + 1));
        }
        changed
    }

    /// Crash-**restarts** a previously-[`kill`](Self::kill)ed MDS,
    /// running the recovery half of the paper's dynamic-adjustment
    /// protocol:
    ///
    /// 1. With durability enabled ([`LiveConfig::store_root`]), the MDS
    ///    first recovers locally from disk: it reopens its store
    ///    (snapshot + WAL replay, truncating a torn final record),
    ///    inserts the journaled commits into a fresh attribute table,
    ///    resumes its own popularity counters from its journal, and
    ///    sheds — durably — any subtree the cluster re-homed while it
    ///    was down. The recovery time lands in the `recovery_ms`
    ///    histogram and an [`EventKind::StoreRecovered`] journal event.
    /// 2. The replica then **delta-syncs** its global-layer state
    ///    through the lock service: only nodes where some live replica
    ///    holds a *newer* version than the local (recovered) copy are
    ///    locked and copied — a version-gated delta, not the full GL
    ///    sweep. The entries transferred are journaled as
    ///    [`EventKind::GlDeltaSync`] and counted in
    ///    `gl_delta_sync_entries_total`. (A killed replica misses all
    ///    GL propagation while down, so this is what makes it safe to
    ///    serve again.)
    /// 3. It resumes heartbeating, which re-registers it with the
    ///    Monitor: the Monitor sees a heartbeat from a declared-dead
    ///    server, journals [`EventKind::MdsRejoined`] and hands it
    ///    subtrees from the pending pool via the mirror-division
    ///    claiming path (Sec. IV-B).
    ///
    /// Idempotent and panic-free: restarting an alive or unknown
    /// `MdsId` is a no-op. Returns whether the call changed state (the
    /// server was dead and is now rejoining).
    ///
    /// # Panics
    ///
    /// Panics if durability is enabled and the on-disk store cannot be
    /// recovered (I/O failure or corruption worse than a torn tail) —
    /// an MDS must not serve from state it cannot trust.
    pub fn restart(&self, mds: MdsId) -> bool {
        let shared = &*self.shared;
        let Some(flag) = shared.killed.get(mds.index()) else {
            return false;
        };
        if !flag.load(Ordering::SeqCst) {
            return false;
        }
        let me = mds.index();
        let daemon = &self.daemons[me];
        let registry = &shared.registry;
        // Phase 1: local recovery from disk (durability enabled only).
        // The crash wiped the process: the table and the counters are
        // the durable state alone. Unsynced commits inside the last
        // group-commit window are gone — for GL nodes the delta sync
        // below re-fetches them from live replicas.
        if let Some(root) = &self.config.store_root {
            let info = daemon.recover(root, self.config.store, false);
            let recovery_ms = info.duration.as_millis() as u64;
            registry
                .histogram(MetricKey::mds(names::RECOVERY_MS, mds.0))
                .record(recovery_ms);
            registry.journal().record(EventKind::StoreRecovered {
                mds: mds.0,
                records: info.records_replayed,
                torn_bytes: info.torn_bytes,
                recovery_ms,
            });
        }
        // Phase 2: version-gated GL delta sync. Only nodes where a live
        // replica is ahead of the local copy are locked and copied; the
        // common case after a short outage touches a handful of nodes
        // instead of the whole global layer.
        let (placement, _) = daemon.view();
        let replicated: Vec<NodeId> = (shared.tree.nodes())
            .map(|(id, _)| id)
            .filter(|&id| placement.assignment(id) == Assignment::Replicated)
            .collect();
        let siblings = || {
            self.daemons
                .iter()
                .enumerate()
                .filter(move |&(k, _)| k != me && shared.alive(k))
                .map(|(_, sibling)| sibling)
        };
        let mut entries = 0u64;
        for node in replicated {
            let mine = daemon.attr(node).version;
            if !siblings().any(|s| s.attr(node).version > mine) {
                continue; // already current: no lock, no copy
            }
            // Fetch under the node's lease so a concurrent writer cannot
            // interleave a partial commit, re-reading the freshest copy
            // now that we hold it.
            let (token, _) = shared.locks.acquire_spin(node, || shared.now_ms());
            let freshest = siblings()
                .map(|s| s.attr(node))
                .max_by_key(|attr| attr.version);
            if freshest.is_some_and(|attr| daemon.replicate(node, attr)) {
                entries += 1;
            }
            let released = shared.locks.release(token);
            debug_assert!(released, "fresh token releases cleanly");
        }
        registry
            .counter(MetricKey::global(names::GL_DELTA_SYNC_ENTRIES))
            .add(entries);
        registry.journal().record(EventKind::GlDeltaSync {
            mds: mds.0,
            entries,
        });
        // What the recovery and the sync journaled is durable before the
        // MDS serves again.
        daemon.sync();
        shared.restarted_at[me].store(shared.now_ms(), Ordering::SeqCst);
        // Clearing the flag resumes serving and heartbeating; the
        // Monitor completes the rejoin on the next heartbeat.
        flag.store(false, Ordering::SeqCst);
        true
    }

    /// Machine-checks the cluster's ownership and replication
    /// invariants at a quiesce point (no kill/restart/partition
    /// currently in flight and fail-over given time to settle):
    ///
    /// * every live MDS routes by the Monitor's placement and index;
    /// * the placement is complete — no node lost its assignment;
    /// * every single-owner node's owner is a live (non-killed) MDS;
    /// * the published local index agrees with the placement (no
    ///   subtree double-owned between the index and the placement), and
    ///   no published subtree is split across servers (Def. 3);
    /// * global-layer attribute versions agree across live replicas;
    /// * with durable stores, each live MDS's journal names the subtrees
    ///   the index gives it, its journal and its attribute table hold
    ///   the same nodes at the same versions — both ways — and its
    ///   journaled popularity counts are the ones it keeps.
    ///
    /// Returns human-readable violation descriptions (empty = healthy).
    /// Mid-fail-over the checker legitimately reports transient
    /// violations; poll until empty instead of asserting immediately.
    #[must_use]
    pub fn check_invariants(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let shared = &*self.shared;
        let tree = &shared.tree;
        let live: Vec<(usize, &Arc<NetMds>)> = self
            .daemons
            .iter()
            .enumerate()
            .filter(|&(k, _)| shared.alive(k))
            .collect();
        let (placement, index) = self.daemons[0].view();
        for &(k, mds) in &live {
            let (p, i) = mds.view();
            if p != placement || i != index {
                violations.push(format!(
                    "mds{k} routes by another placement or index than the Monitor's"
                ));
            }
        }
        if !placement.is_complete(tree) {
            violations.push("placement incomplete: some node lost its assignment".to_string());
        }
        for (id, _) in tree.nodes() {
            let owner = placement.assignment(id).owner();
            if let Some(dead) = owner.filter(|o| !shared.alive(o.index())) {
                violations.push(format!("node {} owned by dead mds{}", id.index(), dead.0));
            }
        }
        for (root, owner) in index.iter() {
            match placement.assignment(root).owner() {
                Some(o) if o == owner => {}
                other => violations.push(format!(
                    "index points subtree {} at mds{} but placement says {:?}",
                    root.index(),
                    owner.0,
                    other
                )),
            }
        }
        // Def. 3: a published subtree is one unit of ownership — every
        // single-owner node under its root belongs to the root's owner.
        for (root, owner) in index.iter() {
            let stray =
                tree.descendants(root)
                    .find_map(|id| match placement.assignment(id).owner() {
                        Some(o) if o != owner => Some((id, o)),
                        _ => None,
                    });
            if let Some((id, o)) = stray {
                violations.push(format!(
                    "subtree {} of mds{} is split: node {} is on mds{}",
                    root.index(),
                    owner.0,
                    id.index(),
                    o.0
                ));
            }
        }
        for (id, _) in tree.nodes() {
            if placement.assignment(id) != Assignment::Replicated {
                continue;
            }
            let versions: Vec<(usize, u64)> = live
                .iter()
                .map(|&(k, mds)| (k, mds.attr_version(id)))
                .collect();
            if versions.windows(2).any(|w| w[0].1 != w[1].1) {
                violations.push(format!(
                    "GL replica divergence on node {}: {versions:?}",
                    id.index()
                ));
            }
        }
        // Durable-store invariants: each live MDS's journaled state must
        // agree with what it serves — what a crash right now would
        // recover is exactly what the MDS is serving.
        for (_, mds) in &live {
            violations.extend(mds.store_violations());
        }
        violations
    }

    /// Snapshot of the current placement (e.g. to observe fail-over).
    #[must_use]
    pub fn placement_snapshot(&self) -> Placement {
        self.daemons[0].view().0
    }

    /// The cluster's telemetry registry: per-MDS counters plus the
    /// structured event journal (shared with the Monitor). Snapshot it any
    /// time — including while the cluster is running — to export metrics
    /// via [`d2tree_telemetry::export`].
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.shared.registry
    }

    /// The Monitor's health trajectory so far, oldest tick first — empty
    /// unless the cluster was started with
    /// [`LiveConfig::with_recorder`]. Safe to call while running; the
    /// recorder is locked only for the copy.
    #[must_use]
    pub fn health_ticks(&self) -> Vec<HealthTick> {
        self.shared
            .recorder
            .as_ref()
            .map_or_else(Vec::new, |r| sync::lock(r).ticks().cloned().collect())
    }

    /// The attribute version server `mds` holds for `node` — used to
    /// verify replica convergence after global-layer updates.
    #[must_use]
    pub fn attr_version(&self, mds: MdsId, node: NodeId) -> u64 {
        self.daemons[mds.index()].attr_version(node)
    }

    /// Stops every thread and returns the run's report.
    ///
    /// # Panics
    ///
    /// Panics if a server or the Monitor thread panicked.
    #[must_use]
    pub fn shutdown(mut self) -> LiveReport {
        for tx in &self.server_txs {
            let _ = tx.send(ServerMsg::Shutdown);
        }
        for h in self.server_handles.drain(..) {
            h.join().expect("server thread panicked");
        }
        self.monitor_stop.store(true, Ordering::SeqCst);
        let monitor = self
            .monitor_handle
            .take()
            .expect("shutdown called once")
            .join()
            .expect("monitor thread panicked");
        // A clean shutdown leaves every surviving store durable up to
        // its last append.
        for mds in self.daemons.iter() {
            mds.sync();
        }
        LiveReport {
            served: self.daemons.iter().map(|mds| mds.served()).collect(),
            redirects: self.daemons.iter().map(|mds| mds.redirects()).sum(),
            migrations: self.shared.migrations.load(Ordering::SeqCst),
            events: monitor.events(),
            journal: self.shared.registry.journal().snapshot(),
        }
    }
}

/// One server thread: heartbeats, and each request frame served and
/// committed through one `ServeScope` before the reply leaves.
fn server_main(
    shared: &Shared,
    mds: &NetMds,
    me: usize,
    rx: &Receiver<ServerMsg>,
    hb_tx: &Sender<Heartbeat>,
    interval: Duration,
    retry: RetryPolicy,
) {
    let my_id = MdsId(me as u16);
    // Cache the counter handle once; the loop must not take the
    // registry's map locks.
    let monitor_retries = shared
        .registry
        .counter(MetricKey::global(names::MONITOR_RETRIES_TOTAL));
    // Heartbeat resends are spaced by the same capped-exponential +
    // seeded-jitter policy the clients use; seeded per server so runs
    // stay reproducible.
    let mut hb_rng = StdRng::seed_from_u64(0x6d6f_6e5f_7274_7279 ^ me as u64);
    let mut last_hb = Instant::now() - interval; // heartbeat immediately
    loop {
        if shared.alive(me) && last_hb.elapsed() >= interval {
            let hb = Heartbeat {
                mds: my_id,
                load: mds.served() as f64,
            };
            match shared.fault(NetEdge::MdsToMonitor(my_id.0)) {
                FaultDecision::Drop => {
                    // Heartbeat lost in transit. A silent loss costs a
                    // whole interval and edges the server toward a false
                    // failure declaration, so retry a bounded number of
                    // times under the shared policy instead of the old
                    // fire-and-forget. Backoff is capped well below the
                    // interval: the serve loop must not stall.
                    for attempt in 0..2 {
                        monitor_retries.inc();
                        let pause = retry.backoff(attempt, &mut hb_rng).min(interval / 8);
                        std::thread::sleep(pause);
                        if !shared.alive(me) {
                            break;
                        }
                        if shared.fault(NetEdge::MdsToMonitor(my_id.0)) != FaultDecision::Drop {
                            let _ = hb_tx.send(hb);
                            break;
                        }
                    }
                }
                // Heartbeats are idempotent, so a duplicate is harmless.
                decision => {
                    let hb_tx = hb_tx.clone();
                    deliver(hb, decision, move |hb| {
                        let _ = hb_tx.send(hb);
                    });
                }
            }
            last_hb = Instant::now();
        }
        match rx.recv_timeout(interval) {
            Ok(ServerMsg::Shutdown) => break,
            Ok(ServerMsg::FetchIndex(reply)) => {
                if shared.alive(me) {
                    let _ = reply.send(mds.view().1);
                }
            }
            Ok(ServerMsg::Frame(mut frame, reply)) => {
                if !shared.alive(me) {
                    continue; // crashed: silently drop
                }
                let Some(req) = Request::decode_frame(&frame) else {
                    continue;
                };
                let reply_fault = shared.fault(NetEdge::MdsToClient(my_id.0));
                let mut scope = mds.begin_batch();
                let resp = scope.serve_or_drop(req, reply_fault.kind());
                // The reply acknowledges durable state: commit, then send.
                scope.commit();
                let Some(resp) = resp else {
                    continue; // dropped on the way to the lock service
                };
                frame.clear();
                resp.encode_into(&mut frame);
                // A lost reply leaves the client to time out; the
                // capacity-1 slot keeps one copy of a duplicate.
                deliver(frame, reply_fault, move |frame| {
                    let _ = reply.try_send(frame);
                });
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// Hands `msg` to `send` as the fault plan decided — never, late (from
/// a thread of its own, not stalling the sender), twice or once. `send`
/// must not block: an unbounded channel's `send`, or a bounded one's
/// `try_send`, which drops what finds the slot full.
fn deliver<T, F>(msg: T, decision: FaultDecision, send: F)
where
    T: Clone + Send + 'static,
    F: Fn(T) + Send + 'static,
{
    match decision {
        FaultDecision::Drop => {}
        FaultDecision::Delay(ms) => {
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(ms));
                send(msg);
            });
        }
        FaultDecision::DeliverTwice => {
            send(msg.clone());
            send(msg);
        }
        FaultDecision::Deliver => send(msg),
    }
}

fn monitor_main(
    shared: &Shared,
    daemons: &[Arc<NetMds>],
    live_config: &LiveConfig,
    hb_rx: &Receiver<Heartbeat>,
    stop: &AtomicBool,
) -> Monitor {
    let m = daemons.len();
    let config = MonitorConfig {
        heartbeat_interval_ms: live_config.heartbeat_interval.as_millis() as u64,
        failure_timeout_ms: live_config.failure_timeout.as_millis() as u64,
        ..MonitorConfig::default()
    };
    // Share the registry's journal so membership transitions land in the
    // same ordered stream as sheds/claims/forwards.
    let mut mon = Monitor::with_journal(config, m, Arc::clone(shared.registry.journal()));
    let failures_total = shared
        .registry
        .counter(MetricKey::global(names::MDS_FAILURES_TOTAL));
    let rejoins_total = shared
        .registry
        .counter(MetricKey::global(names::REJOINS_TOTAL));
    let rejoin_latency = shared
        .registry
        .histogram(MetricKey::global(names::REJOIN_FIRST_CLAIM_MS));
    let health_ticks_total = shared
        .registry
        .counter(MetricKey::global(names::HEALTH_TICKS_TOTAL));
    let tick_ms = config.heartbeat_interval_ms.max(1);
    let mut next_sample_ms = 0u64;
    let tick = Duration::from_millis(tick_ms);
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match hb_rx.recv_timeout(tick) {
            Ok(hb) => {
                let hb_t0 = shared.tracer().map(Tracer::now_us);
                let now = shared.now_ms();
                let back = hb.mds;
                // A first heartbeat registers; one from a committed-dead
                // server is a rejoin.
                let rejoining = shared.locks.control().alive.get(&back.0) == Some(&false);
                // (Bound first: a guard in the `if let` scrutinee would
                // still be held when `commit` locks again.)
                let verdict = mon.on_heartbeat(hb, now, &shared.locks.control());
                if let Some(cmd) = verdict {
                    commit(shared, &mut mon, cmd);
                }
                if rejoining {
                    let owned = ownership_table(shared, daemons, None);
                    let plan = mon.plan_rejoin(back, &owned, &shared.locks.control());
                    for &mg in &plan {
                        apply_migration(shared, daemons, mg);
                    }
                    let claimed = plan.iter().filter(|mg| mg.to == back).count();
                    // The heartbeat that flipped an MDS back to alive is a
                    // monitor decision worth a span of its own.
                    monitor_span(
                        shared,
                        span_names::HEARTBEAT,
                        hb_t0,
                        [
                            (ArgKey::Mds, u64::from(back.0)),
                            (ArgKey::Claimed, claimed as u64),
                        ],
                    );
                    rejoins_total.inc();
                    let restarted =
                        shared.restarted_at[back.index()].swap(u64::MAX, Ordering::SeqCst);
                    if restarted != u64::MAX {
                        rejoin_latency.record(now.saturating_sub(restarted));
                    }
                    shared.registry.journal().record(EventKind::MdsRejoined {
                        mds: back.0,
                        claimed: claimed as u64,
                    });
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        let now = shared.now_ms();
        live_rebalance(shared, daemons, live_config.rebalance_factor);
        // Fixed-interval health sampling: one tick per heartbeat
        // interval, no matter how bursty the heartbeat traffic is.
        if let Some(rec) = &shared.recorder {
            if now >= next_sample_ms {
                next_sample_ms = now + tick_ms;
                let (_, loads) = per_server_load(daemons);
                let total: f64 = loads.iter().sum();
                #[allow(clippy::cast_precision_loss)]
                let spec = ClusterSpec::homogeneous(m, (total / m as f64).max(f64::MIN_POSITIVE));
                sync::lock(rec).sample(
                    TickSample {
                        t_us: shared.registry.uptime_us(),
                        // Live locality needs a namespace popularity
                        // model the data plane does not maintain; NaN
                        // marks it unknown (exported as null).
                        locality: f64::NAN,
                        balance: d2tree_metrics::balance(&loads, &spec),
                        ops_total: daemons.iter().map(|mds| mds.served()).sum(),
                        retries_total: daemons.iter().map(|mds| mds.redirects()).sum(),
                        migrations_total: shared.migrations.load(Ordering::Relaxed),
                        loads,
                    },
                    Some(&shared.registry),
                );
                health_ticks_total.inc();
            }
        }
        let detect_t0 = shared.tracer().map(Tracer::now_us);
        let verdicts = mon.detect_failures(now, &shared.locks.control());
        if !verdicts.is_empty() {
            let failures = (ArgKey::Failures, verdicts.len() as u64);
            monitor_span(shared, span_names::DETECT, detect_t0, [failures]);
        }
        for cmd in verdicts {
            let Command::MdsDead { mds } = cmd else {
                continue;
            };
            let dead = MdsId(mds);
            commit(shared, &mut mon, cmd);
            failures_total.inc();
            let failover_t0 = shared.tracer().map(Tracer::now_us);
            // Re-home the dead server's subtrees, whole, onto the
            // survivors. The claimers journal their acquisitions durably;
            // the dead owner's store is down and sheds these subtrees
            // when it recovers and reconciles.
            let owned = ownership_table(shared, daemons, Some(dead));
            let plan = mon.plan_failover(
                dead,
                &owned,
                &ClusterSpec::homogeneous(m, 1.0),
                &shared.locks.control(),
            );
            for &mg in &plan {
                apply_migration(shared, daemons, mg);
            }
            monitor_span(
                shared,
                span_names::FAILOVER,
                failover_t0,
                [
                    (ArgKey::Mds, u64::from(dead.0)),
                    (ArgKey::Rehomed, plan.len() as u64),
                ],
            );
        }
    }
    mon
}

/// Records one Monitor decision as a root span running from `t0` (read
/// off the tracer's clock when the decision began) to now.
fn monitor_span<const N: usize>(
    shared: &Shared,
    name: SpanName,
    t0: Option<u64>,
    args: [(ArgKey, u64); N],
) {
    let Some(tr) = shared.tracer() else { return };
    let Some(ctx) = tr.begin() else { return };
    let start = t0.unwrap_or(0);
    let span = Span::root(ctx, name, start, tr.now_us().saturating_sub(start));
    tr.record(
        args.into_iter()
            .fold(span, |sp, (key, value)| sp.with_arg(key, value)),
    );
}

/// Commits one control-plane command. The live runtime is the
/// one-replica case: the Monitor's proposal is applied to the shared
/// `ControlState` as it is issued, and membership flips are journaled
/// there, once.
fn commit(shared: &Shared, mon: &mut Monitor, cmd: Command) {
    let applied = shared
        .locks
        .control()
        .apply_command(cmd, Some(shared.registry.journal()));
    mon.on_applied(&applied);
}

/// The served-op count of every counted subtree root, summed over the
/// daemons that counted it.
fn popularity(daemons: &[Arc<NetMds>]) -> HashMap<NodeId, f64> {
    let mut sum = HashMap::new();
    for (root, count) in daemons.iter().flat_map(|mds| mds.popularity()) {
        *sum.entry(root).or_insert(0.0) += count;
    }
    sum
}

/// The subtree-ownership table the Monitor plans over: every published
/// index root with its owner, weighted by its access counter. With
/// `orphaned_by`, the maximal subtrees that server owns in the placement
/// under no published root are listed too — a cluster started without a
/// seeded index publishes nothing — so fail-over re-homes, and
/// publishes, them as whole subtrees as well.
fn ownership_table(
    shared: &Shared,
    daemons: &[Arc<NetMds>],
    orphaned_by: Option<MdsId>,
) -> Vec<(Subtree, MdsId)> {
    let counts = popularity(daemons);
    let tree = &shared.tree;
    let describe = |root: NodeId, owner: MdsId| {
        let parent = tree.node(root).and_then(|n| n.parent()).unwrap_or(root);
        let subtree = Subtree {
            root,
            parent,
            // +1 keeps weights positive so mirror division spreads even
            // never-accessed subtrees.
            popularity: counts.get(&root).copied().unwrap_or(0.0) + 1.0,
            size: tree.subtree_size(root),
        };
        (subtree, owner)
    };
    let (placement, index) = daemons[0].view();
    let mut owned: Vec<(Subtree, MdsId)> = index.iter().map(|(r, o)| describe(r, o)).collect();
    if let Some(dead) = orphaned_by {
        let on_dead = |id: NodeId| placement.assignment(id).owner() == Some(dead);
        for (id, node) in tree.nodes() {
            if on_dead(id)
                && !node.parent().is_some_and(on_dead)
                && index.locate(tree, id).is_none()
            {
                owned.push(describe(id, dead));
            }
        }
    }
    owned
}

/// Executes one committed subtree re-homing — fail-over, rejoin and
/// live rebalancing all end here: the `Migrate` lands in the control
/// state, every daemon's view points the subtree at its new owner (so
/// (re-)fetched client caches route there), both ends journal the
/// ownership change (a crashed store is out of its slot and reconciles
/// on recovery), and the move is counted and journaled as a shed/claim
/// pair.
fn apply_migration(shared: &Shared, daemons: &[Arc<NetMds>], mg: Migration) {
    let journal = shared.registry.journal();
    let subtree = mg.node.index() as u64;
    let _ = shared.locks.control().apply_command(
        Command::Migrate {
            subtree,
            from: mg.from.0,
            to: mg.to.0,
        },
        Some(journal),
    );
    for mds in daemons {
        mds.apply_migration(mg);
    }
    shared.migrations.fetch_add(1, Ordering::Relaxed);
    shared
        .registry
        .counter(MetricKey::global(names::MIGRATIONS_TOTAL))
        .inc();
    let size = shared.tree.subtree_size(mg.node) as u64;
    let popularity = popularity(daemons).get(&mg.node).copied().unwrap_or(0.0);
    journal.record(EventKind::SubtreeShed {
        from: mg.from.0,
        subtree,
        size,
        popularity,
    });
    journal.record(EventKind::SubtreeClaimed {
        to: mg.to.0,
        subtree,
        size,
        popularity,
    });
}

/// The subtree access counters and the recent local-layer load per
/// server they add up to by current owner (the quantity live
/// rebalancing triggers on).
fn per_server_load(daemons: &[Arc<NetMds>]) -> (Vec<(NodeId, f64)>, Vec<f64>) {
    let counts: Vec<(NodeId, f64)> = popularity(daemons).into_iter().collect();
    let (placement, _) = daemons[0].view();
    let mut per_server = vec![0.0f64; daemons.len()];
    for &(root, c) in &counts {
        if let Some(owner) = placement.assignment(root).owner() {
            per_server[owner.index()] += c;
        }
    }
    (counts, per_server)
}

/// One live rebalancing inspection (Sec. IV-B's dynamic adjustment,
/// driven by the access counters the servers accumulate): when the
/// busiest alive server's recent local-layer load exceeds the lightest's
/// by `factor`, its hottest subtree migrates to the lightest.
fn live_rebalance(shared: &Shared, daemons: &[Arc<NetMds>], factor: f64) {
    if !factor.is_finite() {
        return;
    }
    let t0 = shared.tracer().map(Tracer::now_us);
    let (counts, per_server) = per_server_load(daemons);
    if counts.is_empty() {
        return;
    }
    let alive: Vec<usize> = {
        let control = shared.locks.control();
        (0..daemons.len())
            .filter(|&k| control.is_alive(k as u16))
            .collect()
    };
    if alive.len() < 2 {
        return;
    }
    let &busy = alive
        .iter()
        .max_by(|&&a, &&b| per_server[a].total_cmp(&per_server[b]))
        .expect("non-empty");
    let &light = alive
        .iter()
        .min_by(|&&a, &&b| per_server[a].total_cmp(&per_server[b]))
        .expect("non-empty");
    if per_server[busy] < factor * per_server[light].max(1.0) {
        return;
    }
    // Shed the busy server's hottest subtree to the light one.
    let (placement, _) = daemons[0].view();
    let hottest = counts
        .iter()
        .filter(|(root, _)| placement.assignment(*root).owner() == Some(MdsId(busy as u16)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|&(root, _)| root);
    let Some(root) = hottest else { return };
    let mg = Migration {
        node: root,
        from: MdsId(busy as u16),
        to: MdsId(light as u16),
    };
    apply_migration(shared, daemons, mg);
    monitor_span(
        shared,
        span_names::REBALANCE,
        t0,
        [
            (ArgKey::Subtree, root.index() as u64),
            (ArgKey::From, busy as u64),
            (ArgKey::To, light as u64),
        ],
    );
    // Decay the counters so the next decision reflects fresh traffic.
    for mds in daemons {
        mds.decay_popularity();
    }
}

/// A client of the live cluster: routes through its cached local index,
/// retries, follows redirects, refreshes the index when its lease expires
/// and survives fail-over.
#[derive(Debug)]
pub struct LiveClient {
    shared: Arc<Shared>,
    server_txs: Vec<Sender<ServerMsg>>,
    timeout: Duration,
    retry: RetryPolicy,
    cache: ClientCache,
    next_id: u64,
    rng: StdRng,
    /// The seed this client was created with, reported in `CacheMiss`
    /// journal events.
    client_id: u64,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    monitor_retries: Arc<Counter>,
}

impl LiveClient {
    fn random_server(&mut self) -> MdsId {
        MdsId(self.rng.gen_range(0..self.server_txs.len()) as u16)
    }

    /// Fetches a fresh index copy from some responsive server.
    fn refresh_cache(&mut self) {
        for attempt in 0..self.server_txs.len().max(1) {
            if attempt > 0 {
                // Re-probing after a lost or timed-out fetch is a retry:
                // space it under the same capped-exponential + jittered
                // policy as the data path instead of hammering the next
                // server immediately.
                self.monitor_retries.inc();
                std::thread::sleep(
                    self.retry
                        .backoff(attempt - 1, &mut self.rng)
                        .min(self.timeout),
                );
            }
            let dest = self.random_server();
            // The index fetch crosses the same client↔MDS link as the
            // data path, so the fault plan applies to it too.
            match self.shared.fault(NetEdge::ClientToMds(dest.0)) {
                FaultDecision::Drop => continue, // fetch lost; try another
                FaultDecision::Delay(ms) => {
                    std::thread::sleep(Duration::from_millis(ms).min(self.timeout));
                }
                _ => {}
            }
            let (tx, rx) = sync_channel(1);
            if self.server_txs[dest.index()]
                .send(ServerMsg::FetchIndex(tx))
                .is_err()
            {
                continue;
            }
            if let Ok(index) = rx.recv_timeout(self.timeout) {
                self.cache.refresh(index, self.shared.now_ms());
                return;
            }
        }
        // Every server timed out; leave the cache stale and let the
        // data-path retries cope via redirects.
    }

    /// Hit/miss statistics of this client's index cache.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Executes one metadata operation to completion.
    ///
    /// Routing follows the paper's client logic: consult the cached local
    /// index; on a prefix hit go straight to the owner, otherwise any MDS
    /// will do (the global layer is everywhere). Stale routes surface as
    /// redirects or timeouts and are retried under the configured
    /// [`RetryPolicy`]: failed attempts back off exponentially with
    /// jitter, and the whole request is bounded by both the attempt
    /// budget and the policy deadline. A timed-out destination is
    /// remembered and avoided on the next attempt (the hint was stale);
    /// each such re-route is journaled as [`EventKind::Forwarded`].
    ///
    /// # Errors
    ///
    /// * [`ClientError::NotFound`] — no server admits owning the target.
    /// * [`ClientError::RetriesExhausted`] — attempt budget spent, but
    ///   servers were responding (e.g. a redirect storm mid-fail-over).
    /// * [`ClientError::Timeout`] — attempt budget spent without any
    ///   server ever responding.
    /// * [`ClientError::DeadlineExceeded`] — the policy deadline elapsed
    ///   first.
    ///
    /// When the cluster was started with a tracer, a sampled operation
    /// records one root `op` span plus one `attempt` span per try, and
    /// its trace context rides the request frame so servers parent
    /// their serve spans on it.
    pub fn execute(&mut self, op: Operation) -> Result<Response, ClientError> {
        let tracer = self.shared.tracer.clone();
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let mut machine =
            RequestMachine::new(id, op, self.retry, Instant::now(), tracer.as_deref());
        let mut forced: Option<MdsId> = None;
        // The server whose reply last timed out or never left: its
        // hint is stale, so the next routed attempt steers around it.
        let mut stale_dest: Option<MdsId> = None;
        loop {
            let (mut dest, route_code) = match forced {
                Some(d) => (d, RouteDecision::REDIRECT_CODE),
                None => self.route(op.target),
            };
            if let Some(stale) = stale_dest.take() {
                if dest == stale && self.server_txs.len() > 1 {
                    // The cache still points at the server that just
                    // timed out — steer around it and journal the
                    // re-route so the operator can see hint staleness.
                    while dest == stale {
                        dest = self.random_server();
                    }
                    self.shared.registry.journal().record(EventKind::Forwarded {
                        from: stale.0,
                        to: dest.0,
                    });
                }
            }
            let mut frame = Vec::with_capacity(REQUEST_FRAME_BYTES);
            machine.attempt(dest.0, route_code).encode_into(&mut frame);
            let send_fault = self.shared.fault(NetEdge::ClientToMds(dest.0));
            let outcome = self.exchange(dest, frame, send_fault);
            if matches!(outcome, Outcome::TimedOut | Outcome::Lost) {
                stale_dest = Some(dest);
            }
            let now = Instant::now();
            match machine.outcome(outcome, send_fault.kind(), now, &mut self.rng) {
                Step::Done(result) => return result,
                Step::Again { backoff, forced: f } => {
                    if let Some(pause) = backoff {
                        std::thread::sleep(pause);
                    }
                    forced = f;
                }
            }
        }
    }

    /// Routes by the cached index, refreshing it first when its lease
    /// has run out: the owner on a prefix hit, any server otherwise.
    /// Returns the destination and the decision's span code.
    fn route(&mut self, target: NodeId) -> (MdsId, u64) {
        let now = self.shared.now_ms();
        let decision = self.cache.route(&self.shared.tree, target, now);
        let dest = match decision {
            RouteDecision::Owner(owner) => {
                self.cache_hits.inc();
                owner
            }
            RouteDecision::AnyMds => {
                self.cache_hits.inc();
                self.random_server()
            }
            RouteDecision::StaleCache => {
                self.cache_misses.inc();
                self.shared.registry.journal().record(EventKind::CacheMiss {
                    client: self.client_id,
                });
                self.refresh_cache();
                match self.cache.route(&self.shared.tree, target, now) {
                    RouteDecision::Owner(owner) => owner,
                    _ => self.random_server(),
                }
            }
        };
        (dest, decision.code())
    }

    /// One attempt over the channel transport: sends `frame` to `dest`
    /// through the fault plan's decision for it and waits for the
    /// answer.
    fn exchange(&self, dest: MdsId, frame: Vec<u8>, send_fault: FaultDecision) -> Outcome {
        let server = &self.server_txs[dest.index()];
        let (tx, rx) = sync_channel(1);
        let sent = match send_fault {
            FaultDecision::Drop => false, // request lost
            FaultDecision::Delay(ms) => {
                std::thread::sleep(Duration::from_millis(ms).min(self.timeout));
                server.send(ServerMsg::Frame(frame, tx)).is_ok()
            }
            FaultDecision::DeliverTwice => {
                // The duplicate's reply channel is already closed, so
                // the server's answer to it is discarded harmlessly.
                let (dup_tx, _) = sync_channel::<Vec<u8>>(1);
                let sent = server.send(ServerMsg::Frame(frame.clone(), tx)).is_ok();
                let _ = server.send(ServerMsg::Frame(frame, dup_tx));
                sent
            }
            FaultDecision::Deliver => server.send(ServerMsg::Frame(frame, tx)).is_ok(),
        };
        if !sent {
            // Injected drop or server thread gone.
            return Outcome::Lost;
        }
        match rx.recv_timeout(self.timeout) {
            Ok(frame) => Response::decode_frame(&frame).map_or(Outcome::Lost, Outcome::from),
            // Dead or overloaded server.
            Err(_) => Outcome::TimedOut,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ResponseBody;
    use d2tree_core::{D2TreeConfig, D2TreeScheme, Partitioner};
    use d2tree_workload::{OpKind, TraceProfile, WorkloadBuilder};

    fn build_cluster(m: usize) -> (Arc<NamespaceTree>, LiveCluster, d2tree_workload::Trace) {
        build_cluster_with(m, LiveConfig::default())
    }

    fn build_cluster_with(
        m: usize,
        config: LiveConfig,
    ) -> (Arc<NamespaceTree>, LiveCluster, d2tree_workload::Trace) {
        let w = WorkloadBuilder::new(TraceProfile::dtr().with_nodes(600).with_operations(600))
            .seed(10)
            .build();
        let pop = w.popularity();
        let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default());
        scheme.build(&w.tree, &pop, &ClusterSpec::homogeneous(m, 1.0));
        let placement = scheme.placement().clone();
        let index = scheme.local_index().clone();
        let tree = Arc::new(w.tree);
        let cluster = LiveCluster::start_with_index(Arc::clone(&tree), placement, index, config);
        (tree, cluster, w.trace)
    }

    /// A fresh store root under the system temp directory.
    fn temp_store_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!(
            "d2tree-live-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos()
        ));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    /// Polls the invariant checker until it reports clean or `within`
    /// passes, returning the last report.
    fn settle(cluster: &LiveCluster, within: Duration) -> Vec<String> {
        let deadline = Instant::now() + within;
        loop {
            let violations = cluster.check_invariants();
            if violations.is_empty() || Instant::now() >= deadline {
                return violations;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Runs `deliver` on a thread of its own and fails, instead of
    /// hanging, if it does not return promptly.
    fn deliver_without_blocking<F>(msg: u64, decision: FaultDecision, send: F)
    where
        F: Fn(u64) + Send + 'static,
    {
        let (done_tx, done_rx) = channel();
        std::thread::spawn(move || {
            deliver(msg, decision, send);
            let _ = done_tx.send(());
        });
        assert!(
            done_rx.recv_timeout(Duration::from_secs(5)).is_ok(),
            "{decision:?} blocked its caller"
        );
    }

    /// Both channel kinds the runtime delivers on, under every fault
    /// decision: the unbounded heartbeat channel never drops, the
    /// capacity-1 reply slot keeps one copy of a duplicate, a delay
    /// arrives after the call returned, and no call blocks.
    #[test]
    fn deliver_applies_each_decision_to_both_channel_kinds() {
        const DELAY_MS: u64 = 200;
        let cases = [
            (FaultDecision::Drop, 0, 0),
            (FaultDecision::Deliver, 1, 1),
            (FaultDecision::DeliverTwice, 2, 1),
            (FaultDecision::Delay(DELAY_MS), 1, 1),
        ];
        for (decision, heartbeats, replies) in cases {
            let (hb_tx, hb_rx) = channel::<u64>();
            deliver_without_blocking(1, decision, move |hb| {
                let _ = hb_tx.send(hb);
            });
            let (reply_tx, reply_rx) = sync_channel::<u64>(1);
            deliver_without_blocking(2, decision, move |frame| {
                let _ = reply_tx.try_send(frame);
            });
            if let FaultDecision::Delay(_) = decision {
                // Back from both calls well inside the delay: neither
                // copy has landed yet.
                assert!(
                    hb_rx.try_recv().is_err(),
                    "a delayed heartbeat was sent inline"
                );
                assert!(
                    reply_rx.try_recv().is_err(),
                    "a delayed reply was sent inline"
                );
            }
            // Each receiver ends once its closure, and with it the
            // sender, is dropped: after the call, or after the delay.
            assert_eq!(
                hb_rx.iter().count(),
                heartbeats,
                "heartbeats under {decision:?}"
            );
            assert_eq!(
                reply_rx.iter().count(),
                replies,
                "replies under {decision:?}"
            );
        }
    }

    /// The store invariant runs both ways: a record the table holds and
    /// the journal does not is reported, in node order.
    #[test]
    fn a_record_the_journal_lacks_is_a_violation() {
        let w = WorkloadBuilder::new(TraceProfile::ra().with_nodes(400).with_operations(300))
            .seed(12)
            .build();
        let pop = w.popularity();
        let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default());
        scheme.build(&w.tree, &pop, &ClusterSpec::homogeneous(2, 1.0));
        let store_root = temp_store_root("two-way");
        let config = LiveConfig {
            store_root: Some(store_root.clone()),
            ..LiveConfig::default()
        };
        let cluster = LiveCluster::start_with_index(
            Arc::new(w.tree),
            scheme.placement().clone(),
            scheme.local_index().clone(),
            config,
        );
        let mut client = cluster.client(1);
        for op in w.trace.iter() {
            client.execute(*op).expect("op served");
        }
        drop(client);
        let daemons = &cluster.daemons;
        assert!(
            daemons.iter().all(|mds| mds.attr_records() > 0),
            "RA updates reached both servers"
        );
        assert_eq!(cluster.check_invariants(), Vec::<String>::new());

        // Two local-layer updates that skip the journal, the higher
        // node first.
        let placement = cluster.placement_snapshot();
        let untouched: Vec<NodeId> = (0..cluster.shared.tree.arena_size())
            .map(NodeId::from_index)
            .filter(|&id| placement.assignment(id).owner().is_some())
            .filter(|&id| daemons[1].attr_version(id) == 0)
            .take(2)
            .collect();
        for &id in untouched.iter().rev() {
            daemons[1].update_unjournaled(id);
        }
        let expected: Vec<String> = untouched
            .iter()
            .map(|id| {
                format!(
                    "mds1 serves attr version 1 for node {}, journaled none",
                    id.index()
                )
            })
            .collect();
        assert_eq!(cluster.check_invariants(), expected);
        let _ = cluster.shutdown();
        let _ = std::fs::remove_dir_all(&store_root);
    }

    #[test]
    fn traced_live_run_links_client_and_server_spans() {
        use d2tree_telemetry::trace::Sampler;
        use std::collections::HashSet;
        let w = WorkloadBuilder::new(TraceProfile::dtr().with_nodes(400).with_operations(200))
            .seed(11)
            .build();
        let pop = w.popularity();
        let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default());
        scheme.build(&w.tree, &pop, &ClusterSpec::homogeneous(3, 1.0));
        let placement = scheme.placement().clone();
        let index = scheme.local_index().clone();
        let tree = Arc::new(w.tree);
        let tracer = Arc::new(Tracer::new(Sampler::always(0)));
        let config = LiveConfig::default().with_tracer(Arc::clone(&tracer));
        let cluster = LiveCluster::start_with_index(Arc::clone(&tree), placement, index, config);
        let mut client = cluster.client(2);
        for op in w.trace.iter().take(100) {
            client.execute(*op).expect("op served");
        }
        let _ = cluster.shutdown();
        let spans = tracer.drain();
        let roots: Vec<_> = spans
            .iter()
            .filter(|s| s.name == span_names::OP && s.parent.is_none())
            .collect();
        assert_eq!(roots.len(), 100, "one root span per traced op");
        // Each traced op made at least one client attempt, and some MDS
        // recorded a serve span in the same trace — the context crossed
        // the wire.
        let attempt_traces: HashSet<u64> = spans
            .iter()
            .filter(|s| s.name == span_names::ATTEMPT)
            .map(|s| s.trace.0)
            .collect();
        let serve_traces: HashSet<u64> = spans
            .iter()
            .filter(|s| s.name == span_names::SERVE)
            .map(|s| s.trace.0)
            .collect();
        for root in &roots {
            assert!(attempt_traces.contains(&root.trace.0), "missing attempt");
            assert!(serve_traces.contains(&root.trace.0), "missing serve");
        }
        for s in spans.iter().filter(|s| s.name == span_names::SERVE) {
            assert!(s.mds.is_some(), "serve spans are attributed to an MDS");
            assert!(s.parent.is_some(), "serve spans parent on the op root");
        }
        // Replicated updates went through the lock service under a
        // gl_lock span nested in the serving MDS's serve span.
        let serve_ids: HashSet<u64> = spans
            .iter()
            .filter(|s| s.name == span_names::SERVE)
            .map(|s| s.id.0)
            .collect();
        let locks: Vec<_> = spans
            .iter()
            .filter(|s| s.name == span_names::LOCK)
            .collect();
        for l in &locks {
            let parent = l.parent.expect("lock spans have a parent");
            assert!(serve_ids.contains(&parent.0), "lock nests under a serve");
        }
    }

    #[test]
    fn dropped_heartbeats_are_resent_under_the_shared_retry_policy() {
        use crate::fault::{FaultAction, FaultRule, FaultScope};
        let w = WorkloadBuilder::new(TraceProfile::dtr().with_nodes(400).with_operations(100))
            .seed(17)
            .build();
        let pop = w.popularity();
        let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default());
        scheme.build(&w.tree, &pop, &ClusterSpec::homogeneous(3, 1.0));
        let placement = scheme.placement().clone();
        let index = scheme.local_index().clone();
        let tree = Arc::new(w.tree);
        // Drop MDS 0's heartbeats for the first 80 ms (shorter than the
        // 120 ms failure timeout, so no false failure declaration): each
        // loss must be re-sent under the shared retry policy and counted
        // in monitor_retries_total, not silently eaten.
        let plan = FaultPlan::new(99)
            .with_rule(FaultRule::new(FaultScope::MonitorLink(0), FaultAction::Drop).during(0, 80));
        let cluster = LiveCluster::start_with_faults(
            Arc::clone(&tree),
            placement,
            index,
            LiveConfig::default(),
            plan,
        );
        std::thread::sleep(Duration::from_millis(200));
        let snap = cluster.registry().snapshot();
        let retries = snap
            .counters
            .iter()
            .find(|(k, _)| k.name == names::MONITOR_RETRIES_TOTAL)
            .map_or(0, |(_, v)| *v);
        let report = cluster.shutdown();
        assert!(
            retries > 0,
            "dropped heartbeats must be retried and counted (got {retries})"
        );
        assert!(
            !report
                .events
                .iter()
                .any(|e| matches!(e, ClusterEvent::MdsFailed(_))),
            "retried heartbeats keep the server alive through the drop window"
        );
    }

    #[test]
    fn monitor_records_health_ticks_while_serving() {
        let w = WorkloadBuilder::new(TraceProfile::dtr().with_nodes(500).with_operations(400))
            .seed(13)
            .build();
        let pop = w.popularity();
        let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default());
        scheme.build(&w.tree, &pop, &ClusterSpec::homogeneous(3, 1.0));
        let placement = scheme.placement().clone();
        let index = scheme.local_index().clone();
        let tree = Arc::new(w.tree);
        let config = LiveConfig::default().with_recorder(64);
        let cluster = LiveCluster::start_with_index(Arc::clone(&tree), placement, index, config);
        let mut client = cluster.client(5);
        for op in w.trace.iter().take(200) {
            client.execute(*op).expect("op served");
        }
        // Give the Monitor at least a couple of heartbeat intervals to
        // sample after the load landed.
        std::thread::sleep(Duration::from_millis(120));
        let ticks = cluster.health_ticks();
        assert!(!ticks.is_empty(), "monitor sampled no health ticks");
        assert!(
            ticks.windows(2).all(|w| w[0].tick + 1 == w[1].tick),
            "tick numbering is contiguous"
        );
        assert!(
            ticks.iter().all(|t| t.locality.is_nan()),
            "live layer has no popularity model; locality must be NaN"
        );
        let served_so_far: u64 = ticks.iter().map(|t| t.ops).sum();
        assert!(served_so_far <= 200, "deltas cannot exceed ops issued");
        let last = ticks.last().expect("non-empty");
        assert!(last.balance > 0.0, "balance is a positive Def. 5 score");
        assert_eq!(last.loads.len(), 3, "one load lane per MDS");
        assert!(
            cluster
                .registry()
                .snapshot()
                .counters
                .iter()
                .any(|(k, v)| k.name == names::HEALTH_TICKS_TOTAL && *v > 0),
            "health tick counter advances"
        );
        let _ = cluster.shutdown();
    }

    #[test]
    fn serves_a_whole_trace() {
        let (_tree, cluster, trace) = build_cluster(3);
        let mut client = cluster.client(1);
        for op in trace.iter().take(300) {
            let resp = client.execute(*op).expect("op served");
            assert!(matches!(resp.body, ResponseBody::Served { .. }));
        }
        let report = cluster.shutdown();
        assert_eq!(report.served.iter().sum::<u64>(), 300);
    }

    #[test]
    fn concurrent_clients_all_complete() {
        let (_tree, cluster, trace) = build_cluster(4);
        let cluster = Arc::new(cluster);
        let trace = Arc::new(trace);
        let mut handles = Vec::new();
        for c in 0..4u64 {
            let mut client = cluster.client(c);
            let trace = Arc::clone(&trace);
            handles.push(std::thread::spawn(move || {
                trace
                    .iter()
                    .skip(c as usize * 100)
                    .take(100)
                    .map(|op| client.execute(*op).is_ok())
                    .filter(|&ok| ok)
                    .count()
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 400);
        let cluster = Arc::try_unwrap(cluster).expect("all clients done");
        let report = cluster.shutdown();
        assert_eq!(report.served.iter().sum::<u64>(), 400);
    }

    #[test]
    fn failover_rehomes_a_dead_servers_nodes() {
        let (tree, cluster, _trace) = build_cluster(3);
        // Find any single-owner node and kill its server.
        let (victim_node, dead_mds) = {
            let placement = cluster.placement_snapshot();
            tree.nodes()
                .filter_map(|(id, _)| placement.assignment(id).owner().map(|o| (id, o)))
                .next()
                .expect("some node has a single owner")
        };
        // Let every server heartbeat at least once so the Monitor knows
        // it (a never-seen server counts as joining, not failed).
        std::thread::sleep(Duration::from_millis(100));
        cluster.kill(dead_mds);
        // Wait for the monitor to declare the failure and re-home.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let owner = cluster.placement_snapshot().assignment(victim_node).owner();
            if owner.is_some() && owner != Some(dead_mds) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "fail-over did not happen in time"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        // The node is reachable again through a fresh client.
        let mut client = cluster.client(7);
        let resp = client
            .execute(Operation {
                target: victim_node,
                kind: OpKind::Read,
            })
            .expect("served after fail-over");
        assert!(matches!(resp.body, ResponseBody::Served { .. }));
        let report = cluster.shutdown();
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, ClusterEvent::MdsFailed(m) if *m == dead_mds)));
    }

    #[test]
    fn monitor_migrates_a_hammered_subtree() {
        let (tree, cluster, _trace) = build_cluster(3);
        std::thread::sleep(Duration::from_millis(80)); // servers known
                                                       // Find an indexed local-layer subtree and hammer it.
        let placement = cluster.placement_snapshot();
        let (root, original_owner) = tree
            .nodes()
            .filter_map(|(id, _)| placement.assignment(id).owner().map(|o| (id, o)))
            .next()
            .expect("some single-owner node");
        let mut client = cluster.client(50);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            for _ in 0..200 {
                let _ = client.execute(Operation {
                    target: root,
                    kind: OpKind::Read,
                });
            }
            let owner = cluster.placement_snapshot().assignment(root).owner();
            if owner.is_some() && owner != Some(original_owner) {
                break; // migrated away from the hot server
            }
            assert!(
                Instant::now() < deadline,
                "monitor never rebalanced the hot subtree"
            );
        }
        let report = cluster.shutdown();
        assert!(report.migrations > 0);
    }

    /// Without a store and with one: with durable GL writes each server
    /// propagates into its siblings' stores while their own batches may
    /// hold them, so a lock-order inversion between two servers updating
    /// two GL nodes would hang the clients — the joins are bounded to
    /// catch it.
    #[test]
    fn concurrent_gl_updates_converge_on_all_replicas() {
        for store_root in [None, Some(temp_store_root("gl-converge"))] {
            let config = LiveConfig {
                store_root: store_root.clone(),
                ..LiveConfig::default()
            };
            let (tree, cluster, _trace) = build_cluster_with(3, config);
            let cluster = Arc::new(cluster);
            let root = tree.root();
            let placement = cluster.placement_snapshot();
            let other = tree
                .nodes()
                .map(|(id, _)| id)
                .find(|&id| id != root && placement.assignment(id) == Assignment::Replicated)
                .expect("a second global-layer node");
            let mut handles = Vec::new();
            for c in 0..4u64 {
                let mut client = cluster.client(100 + c);
                handles.push(std::thread::spawn(move || {
                    for target in [root, other].repeat(25) {
                        client
                            .execute(Operation {
                                target,
                                kind: OpKind::Update,
                            })
                            .expect("update served");
                    }
                }));
            }
            let deadline = Instant::now() + Duration::from_secs(30);
            while !handles.iter().all(JoinHandle::is_finished) {
                assert!(
                    Instant::now() < deadline,
                    "GL updates hung (store: {})",
                    store_root.is_some()
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            for h in handles {
                h.join().unwrap();
            }
            // Every replica saw every one of the 100 lock-serialised
            // commits of each node.
            for node in [root, other] {
                let versions: Vec<u64> = (0..3)
                    .map(|k| cluster.attr_version(MdsId(k), node))
                    .collect();
                assert_eq!(
                    versions,
                    vec![100, 100, 100],
                    "replicas diverged: {versions:?}"
                );
            }
            assert_eq!(cluster.check_invariants(), Vec::<String>::new());
            let _ = Arc::try_unwrap(cluster).unwrap().shutdown();
            if let Some(root) = store_root {
                let _ = std::fs::remove_dir_all(root);
            }
        }
    }

    /// Live rebalancing halves every counter after a migration; with a
    /// store each daemon journals the halved values, so a daemon that
    /// restarts resumes the counts it kept, not the undecayed ones.
    #[test]
    fn decayed_counts_are_journaled_and_survive_a_restart() {
        let store_root = temp_store_root("decay");
        let config = LiveConfig {
            store_root: Some(store_root.clone()),
            rebalance_factor: 1.5,
            ..LiveConfig::default()
        };
        let (tree, cluster, _trace) = build_cluster_with(3, config);
        std::thread::sleep(Duration::from_millis(80)); // servers known
        let (placement, index) = cluster.daemons[0].view();
        let (root, original_owner) = index
            .iter()
            .find(|&(root, _)| tree.subtree_size(root) > 1)
            .expect("a multi-node indexed subtree");
        let deep = tree
            .descendants(root)
            .find(|&id| id != root)
            .expect("a node below the root");
        assert_eq!(placement.assignment(deep).owner(), Some(original_owner));
        let mut client = cluster.client(60);
        let deadline = Instant::now() + Duration::from_secs(5);
        while cluster.placement_snapshot().assignment(root).owner() == Some(original_owner) {
            for _ in 0..100 {
                let _ = client.execute(Operation {
                    target: deep,
                    kind: OpKind::Read,
                });
            }
            assert!(Instant::now() < deadline, "the hot subtree never moved");
        }
        assert!(cluster.shared.migrations.load(Ordering::SeqCst) > 0);
        let violations = settle(&cluster, Duration::from_secs(5));
        assert!(violations.is_empty(), "after the migration: {violations:?}");

        assert!(cluster.kill(original_owner));
        std::thread::sleep(Duration::from_millis(300)); // declared, failed over
        assert!(cluster.restart(original_owner));
        let violations = settle(&cluster, Duration::from_secs(5));
        assert!(violations.is_empty(), "after the restart: {violations:?}");
        drop(client);
        let _ = cluster.shutdown();
        let _ = std::fs::remove_dir_all(&store_root);
    }

    /// The two fault tags a live server writes on spans: the lock edge's
    /// on `gl_lock`, the reply edge's on `serve`.
    #[test]
    fn live_spans_carry_lock_and_reply_fault_tags() {
        use crate::fault::{FaultAction, FaultRule, FaultScope};
        use d2tree_telemetry::trace::Sampler;
        let w = WorkloadBuilder::new(TraceProfile::dtr().with_nodes(400).with_operations(100))
            .seed(19)
            .build();
        let pop = w.popularity();
        let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default());
        scheme.build(&w.tree, &pop, &ClusterSpec::homogeneous(2, 1.0));
        let tree = Arc::new(w.tree);
        let tracer = Arc::new(Tracer::new(Sampler::always(0)));
        let mut plan = FaultPlan::new(23);
        for k in 0..2 {
            let delay = FaultAction::Delay {
                fixed_ms: 1,
                jitter_ms: 0,
            };
            plan = plan
                .with_rule(FaultRule::new(FaultScope::LockLink(k), delay))
                .with_rule(
                    FaultRule::new(FaultScope::ClientLink(k), FaultAction::Drop)
                        .with_probability(0.3),
                );
        }
        let cluster = LiveCluster::start_with_faults(
            Arc::clone(&tree),
            scheme.placement().clone(),
            scheme.local_index().clone(),
            LiveConfig::default().with_tracer(Arc::clone(&tracer)),
            plan,
        );
        let mut client = cluster.client(4);
        for i in 0..40 {
            let kind = if i % 2 == 0 {
                OpKind::Update
            } else {
                OpKind::Read
            };
            let _ = client.execute(Operation {
                target: tree.root(),
                kind,
            });
        }
        drop(client);
        let _ = cluster.shutdown();
        let spans = tracer.drain();
        assert!(
            spans
                .iter()
                .any(|s| s.name == span_names::LOCK && s.fault == Some(FaultKind::Delay)),
            "no gl_lock span tagged with the lock edge's delay"
        );
        let answered = |s: &Span| s.args.as_slice().iter().any(|&(k, _)| k == ArgKey::Body);
        assert!(
            spans.iter().any(|s| s.name == span_names::SERVE
                && s.fault == Some(FaultKind::Drop)
                && answered(s)),
            "no answered serve span tagged with the reply edge's drop"
        );
    }

    #[test]
    fn seeded_index_cuts_redirects() {
        let w = WorkloadBuilder::new(TraceProfile::dtr().with_nodes(600).with_operations(600))
            .seed(10)
            .build();
        let pop = w.popularity();
        let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default());
        scheme.build(&w.tree, &pop, &ClusterSpec::homogeneous(4, 1.0));
        let placement = scheme.placement().clone();
        let index = scheme.local_index().clone();
        let tree = Arc::new(w.tree);

        let run = |with_index: bool| {
            let cluster = if with_index {
                LiveCluster::start_with_index(
                    Arc::clone(&tree),
                    placement.clone(),
                    index.clone(),
                    LiveConfig::default(),
                )
            } else {
                LiveCluster::start(Arc::clone(&tree), placement.clone(), LiveConfig::default())
            };
            let mut client = cluster.client(3);
            for op in w.trace.iter().take(400) {
                client.execute(*op).expect("served");
            }
            cluster.shutdown().redirects
        };
        let with_index = run(true);
        let without = run(false);
        assert!(
            with_index < without,
            "index-cached routing should redirect less: {with_index} vs {without}"
        );
    }

    #[test]
    fn updates_on_global_layer_take_the_lock() {
        let (tree, cluster, _trace) = build_cluster(2);
        let mut client = cluster.client(3);
        // The root is always in the global layer.
        let resp = client
            .execute(Operation {
                target: tree.root(),
                kind: OpKind::Update,
            })
            .expect("update served");
        assert!(matches!(resp.body, ResponseBody::Served { .. }));
        let _ = cluster.shutdown();
    }
}
