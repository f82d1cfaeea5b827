//! A real multi-threaded MDS cluster: one OS thread per server, crossbeam
//! channels as the network, the `bytes` wire codec on every message, a
//! Monitor thread doing heartbeat-based failure detection, and fail-over
//! that re-homes a dead server's subtrees onto the survivors. Membership,
//! GL leases and ownership decisions live in one mutex-guarded
//! `ControlState` that every command is applied to as it is issued.
//!
//! This runtime exists to exercise true concurrency — races between
//! clients, the Monitor and fail-over — that the deterministic simulator
//! cannot. The integration tests and the `rebalance_on_failure` example
//! run on it.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use d2tree_core::{Heartbeat, Subtree};
use d2tree_metrics::{Assignment, ClusterSpec, MdsId, Migration, Placement};
use d2tree_namespace::{AttrTable, NamespaceTree, NodeId, VersionedAttr};
use d2tree_store::{MdsRecord, MdsStore, StoreConfig};
use d2tree_workload::{OpKind, Operation};
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use d2tree_core::LocalIndex;

use d2tree_telemetry::trace::{span_names, ArgKey, Span, SpanCtx, SpanName, Tracer};
use d2tree_telemetry::{
    names, Counter, Event, EventKind, FaultKind, FlightRecorder, HealthTick, MetricKey, Registry,
    TickSample,
};

pub use crate::client::ClientError;
use crate::client::{
    CacheStats, ClientCache, Outcome, RequestMachine, RetryPolicy, RouteDecision, Step,
};
use crate::consensus::Command;
use crate::fault::{FaultDecision, FaultInjector, FaultPlan, NetEdge};
use crate::lock::LockService;
use crate::mds::{attr_state, duty, open_and_recover, Duty, ServeSpan};
use crate::message::{Request, RequestId, Response, ResponseBody};
use crate::monitor::{ClusterEvent, Monitor, MonitorConfig};

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
    Frame(Bytes, Sender<Bytes>),
    /// Control-plane request for the current local index (clients refresh
    /// their cache through this; it is not part of the data-path codec).
    FetchIndex(Sender<LocalIndex>),
    Shutdown,
}

#[derive(Debug)]
struct Shared {
    tree: Arc<NamespaceTree>,
    placement: RwLock<Placement>,
    index: RwLock<LocalIndex>,
    /// One attribute store per server — the replicated metadata state.
    /// Global-layer mutations commit on the serving replica and propagate
    /// version-gated to the others while the per-node lock is held.
    attr_stores: Vec<RwLock<AttrTable>>,
    /// Recent served-op counts per local-layer subtree root — the access
    /// counters MDSs report so the Monitor can rebalance (Sec. IV-B).
    /// Decayed by the Monitor after each inspection.
    subtree_counts: RwLock<HashMap<NodeId, f64>>,
    rebalance_factor: f64,
    migrations: AtomicU64,
    /// The cluster's one control plane: server threads take GL leases
    /// through it, and the Monitor applies its membership and migration
    /// commands to the `ControlState` it is a view of.
    locks: LockService,
    killed: Vec<AtomicBool>,
    /// Wall-ms timestamp of each server's last [`LiveCluster::restart`]
    /// (`u64::MAX` when never restarted, or already consumed by the
    /// Monitor's rejoin-latency measurement).
    restarted_at: Vec<AtomicU64>,
    served: Vec<AtomicU64>,
    redirects: AtomicU64,
    epoch: Instant,
    /// Cluster-wide telemetry: counters plus the event journal the
    /// Monitor also writes membership transitions into.
    registry: Arc<Registry>,
    /// Seeded fault injector both transport directions consult; `None`
    /// runs the cluster fault-free with zero overhead.
    faults: Option<FaultInjector>,
    /// Per-MDS durable stores (empty when durability is disabled).
    /// `None` inside a slot means that MDS is crashed: its store died
    /// with it and is reopened — recovered from disk — on restart.
    /// Lock order: a store mutex is always taken *last*, after any
    /// placement/index/attr/counts locks are released or while only
    /// read guards are held that nothing else orders after it.
    stores: Vec<Mutex<Option<MdsStore>>>,
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

    /// Consults the fault plan for one message on `edge` (a no-op
    /// `Deliver` when the cluster runs fault-free).
    fn fault(&self, edge: NetEdge) -> FaultDecision {
        match &self.faults {
            Some(inj) => inj.decide(edge, self.now_ms()),
            None => FaultDecision::Deliver,
        }
    }

    /// Appends one record to MDS `k`'s WAL. A no-op when durability is
    /// disabled or the MDS is crashed (its store is out of its slot —
    /// exactly like a write racing a real crash: it never happened).
    fn journal_record(&self, k: usize, record: MdsRecord) {
        if let Some(slot) = self.stores.get(k) {
            if let Some(store) = slot.lock().as_mut() {
                store.append(record).expect("WAL append failed");
            }
        }
    }

    /// Journals an attribute commit on MDS `k`.
    fn journal_attr(&self, k: usize, node: NodeId, gl: bool, committed: VersionedAttr) {
        self.journal_record(
            k,
            MdsRecord::AttrCommit {
                node: node.index() as u64,
                gl,
                attr: attr_state(committed),
            },
        );
    }

    /// Journals a subtree ownership change on MDS `k`.
    fn journal_ownership(&self, k: usize, root: NodeId, acquired: bool) {
        self.journal_record(
            k,
            MdsRecord::Ownership {
                root: root.index() as u64,
                acquired,
            },
        );
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
        index: LocalIndex,
        config: LiveConfig,
        plan: Option<FaultPlan>,
    ) -> Self {
        assert!(
            placement.is_complete(&tree),
            "live cluster needs a complete placement"
        );
        let m = placement.cluster_size();
        let registry = Arc::new(Registry::new());
        let faults = plan
            .filter(|p| !p.is_empty())
            .map(|p| FaultInjector::new(&p).with_registry(Arc::clone(&registry)));
        let mut attr_stores: Vec<RwLock<AttrTable>> =
            (0..m).map(|_| RwLock::new(AttrTable::new(&tree))).collect();
        let mut subtree_counts = HashMap::new();
        // Durable stores: each server resumes what a previous run left
        // on disk and journals the subtrees the seeded index gives it.
        let stores: Vec<Mutex<Option<MdsStore>>> = match &config.store_root {
            Some(root) => (0..m)
                .map(|k| {
                    let recovered = open_and_recover(
                        root,
                        config.store,
                        MdsId(k as u16),
                        &registry,
                        config.tracer.as_ref(),
                        &tree,
                        &index,
                        true,
                    );
                    attr_stores[k] = RwLock::new(recovered.attrs);
                    for (root, bits) in recovered.popularity {
                        subtree_counts
                            .entry(root)
                            .or_insert_with(|| f64::from_bits(bits));
                    }
                    Mutex::new(Some(recovered.store))
                })
                .collect(),
            None => Vec::new(),
        };
        let shared = Arc::new(Shared {
            tree,
            placement: RwLock::new(placement),
            index: RwLock::new(index),
            attr_stores,
            subtree_counts: RwLock::new(subtree_counts),
            rebalance_factor: config.rebalance_factor,
            migrations: AtomicU64::new(0),
            locks: LockService::new(1_000),
            killed: (0..m).map(|_| AtomicBool::new(false)).collect(),
            restarted_at: (0..m).map(|_| AtomicU64::new(u64::MAX)).collect(),
            served: (0..m).map(|_| AtomicU64::new(0)).collect(),
            redirects: AtomicU64::new(0),
            epoch: Instant::now(),
            registry,
            faults,
            stores,
            tracer: config.tracer.clone(),
            recorder: config
                .recorder_capacity
                .map(|c| Mutex::new(FlightRecorder::new(c))),
        });

        let (hb_tx, hb_rx) = unbounded::<Heartbeat>();
        let mut server_txs = Vec::with_capacity(m);
        let mut server_handles = Vec::with_capacity(m);
        for k in 0..m {
            let (tx, rx) = unbounded::<ServerMsg>();
            server_txs.push(tx);
            let shared = Arc::clone(&shared);
            let hb_tx = hb_tx.clone();
            let interval = config.heartbeat_interval;
            let retry = config.retry;
            server_handles.push(std::thread::spawn(move || {
                server_main(&shared, k, &rx, &hb_tx, interval, retry);
            }));
        }
        drop(hb_tx);

        let monitor_stop = Arc::new(AtomicBool::new(false));
        let monitor_handle = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&monitor_stop);
            let mon_config = MonitorConfig {
                heartbeat_interval_ms: config.heartbeat_interval.as_millis() as u64,
                failure_timeout_ms: config.failure_timeout.as_millis() as u64,
                ..MonitorConfig::default()
            };
            std::thread::spawn(move || monitor_main(&shared, m, mon_config, &hb_rx, &stop))
        };

        LiveCluster {
            shared,
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
            if let Some(slot) = self.shared.stores.get(mds.index()) {
                if let Some(store) = slot.lock().take() {
                    // The crash happens at an arbitrary point in the
                    // group-commit window: a prefix of the unsynced
                    // buffer tears into the file, the rest is lost.
                    let pending = store.pending_bytes();
                    let keep = if pending == 0 {
                        0
                    } else {
                        (self.shared.now_ms() as usize).wrapping_mul(2_654_435_761) % (pending + 1)
                    };
                    store.simulate_crash(keep).expect("crash simulation failed");
                }
            }
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
    ///    re-seeds its popularity counters, and sheds — durably — any
    ///    subtree the cluster re-homed while it was down. The recovery
    ///    time lands in the `recovery_ms` histogram and an
    ///    [`EventKind::StoreRecovered`] journal event.
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
        let Some(flag) = self.shared.killed.get(mds.index()) else {
            return false;
        };
        if !flag.load(Ordering::SeqCst) {
            return false;
        }
        let me = mds.index();
        // Phase 1: local recovery from disk (durability enabled only).
        let mut recovered = None;
        if let Some(root) = &self.config.store_root {
            // Anything the Monitor re-homed while we were down is
            // durably shed before we serve again.
            let index = self.shared.index.read().clone();
            let r = open_and_recover(
                root,
                self.config.store,
                mds,
                &self.shared.registry,
                self.shared.tracer.as_ref(),
                &self.shared.tree,
                &index,
                false,
            );
            let recovery_ms = r.info.duration.as_millis() as u64;
            self.shared
                .registry
                .histogram(MetricKey::mds(names::RECOVERY_MS, me as u16))
                .record(recovery_ms);
            self.shared
                .registry
                .journal()
                .record(EventKind::StoreRecovered {
                    mds: me as u16,
                    records: r.info.records_replayed,
                    torn_bytes: r.info.torn_bytes,
                    recovery_ms,
                });
            // The crash wiped the process: the in-memory table is the
            // durable state alone. Unsynced commits inside the last
            // group-commit window are gone — for GL nodes the delta
            // sync below re-fetches them from live replicas.
            *self.shared.attr_stores[me].write() = r.attrs;
            // Live popularity (accumulated by the survivors since the
            // crash) wins over journaled values.
            let mut counts = self.shared.subtree_counts.write();
            for (root, bits) in r.popularity {
                counts.entry(root).or_insert_with(|| f64::from_bits(bits));
            }
            recovered = Some(r.store);
        }
        // Phase 2: version-gated GL delta sync. Only nodes where a live
        // replica is ahead of the local copy are locked and copied; the
        // common case after a short outage touches a handful of nodes
        // instead of the whole global layer.
        let replicated: Vec<NodeId> = {
            let placement = self.shared.placement.read();
            self.shared
                .tree
                .nodes()
                .map(|(id, _)| id)
                .filter(|&id| placement.assignment(id) == Assignment::Replicated)
                .collect()
        };
        let mut entries = 0u64;
        for node in replicated {
            let mine = self.shared.attr_stores[me].read().get(node).version;
            let behind = self
                .shared
                .attr_stores
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != me && !self.shared.killed[k].load(Ordering::SeqCst))
                .any(|(_, store)| store.read().get(node).version > mine);
            if !behind {
                continue; // already current: no lock, no copy
            }
            // Fetch under the node's lock so a concurrent writer cannot
            // interleave a partial commit, re-reading the freshest copy
            // now that we hold it.
            let (token, _) = self
                .shared
                .locks
                .acquire_spin(node, || self.shared.now_ms());
            let freshest = self
                .shared
                .attr_stores
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != me && !self.shared.killed[k].load(Ordering::SeqCst))
                .map(|(_, store)| store.read().get(node))
                .max_by_key(|attr| attr.version);
            if let Some(attr) = freshest {
                if self.shared.attr_stores[me]
                    .write()
                    .apply_if_newer(node, attr)
                {
                    entries += 1;
                    if let Some(store) = recovered.as_mut() {
                        store
                            .append(MdsRecord::AttrCommit {
                                node: node.index() as u64,
                                gl: true,
                                attr: attr_state(attr),
                            })
                            .expect("WAL append failed");
                    }
                }
            }
            let released = self.shared.locks.release(token);
            debug_assert!(released, "fresh token releases cleanly");
        }
        self.shared
            .registry
            .counter(MetricKey::global(names::GL_DELTA_SYNC_ENTRIES))
            .add(entries);
        self.shared
            .registry
            .journal()
            .record(EventKind::GlDeltaSync {
                mds: me as u16,
                entries,
            });
        // Publish the recovered store so the serve path journals again.
        if let Some(mut store) = recovered {
            store.sync().expect("WAL sync failed");
            *self.shared.stores[me].lock() = Some(store);
        }
        self.shared.restarted_at[me].store(self.shared.now_ms(), Ordering::SeqCst);
        // Clearing the flag resumes serving and heartbeating; the
        // Monitor completes the rejoin on the next heartbeat.
        flag.store(false, Ordering::SeqCst);
        true
    }

    /// Machine-checks the cluster's ownership and replication
    /// invariants at a quiesce point (no kill/restart/partition
    /// currently in flight and fail-over given time to settle):
    ///
    /// * the placement is complete — no node lost its assignment;
    /// * every single-owner node's owner is a live (non-killed) MDS;
    /// * the published local index agrees with the placement (no
    ///   subtree double-owned between the index and the placement), and
    ///   no published subtree is split across servers (Def. 3);
    /// * global-layer attribute versions agree across live replicas;
    /// * with durable stores, each live MDS's journal names the subtrees
    ///   the index gives it, and its journal and its attribute table
    ///   hold the same nodes at the same versions — both ways.
    ///
    /// Returns human-readable violation descriptions (empty = healthy).
    /// Mid-fail-over the checker legitimately reports transient
    /// violations; poll until empty instead of asserting immediately.
    #[must_use]
    pub fn check_invariants(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let alive = |k: MdsId| -> bool { !self.shared.killed[k.index()].load(Ordering::SeqCst) };
        let placement = self.shared.placement.read().clone();
        if !placement.is_complete(&self.shared.tree) {
            violations.push("placement incomplete: some node lost its assignment".to_string());
        }
        for (id, _) in self.shared.tree.nodes() {
            if let Some(owner) = placement.assignment(id).owner() {
                if owner.index() >= self.shared.killed.len() {
                    violations.push(format!(
                        "node {} owned by unknown mds{}",
                        id.index(),
                        owner.0
                    ));
                } else if !alive(owner) {
                    violations.push(format!("node {} owned by dead mds{}", id.index(), owner.0));
                }
            }
        }
        let index = self.shared.index.read().clone();
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
            let stray = self.shared.tree.descendants(root).find_map(|id| {
                match placement.assignment(id).owner() {
                    Some(o) if o != owner => Some((id, o)),
                    _ => None,
                }
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
        for (id, _) in self.shared.tree.nodes() {
            if placement.assignment(id) != Assignment::Replicated {
                continue;
            }
            let versions: Vec<(usize, u64)> = self
                .shared
                .attr_stores
                .iter()
                .enumerate()
                .filter(|&(k, _)| alive(MdsId(k as u16)))
                .map(|(k, store)| (k, store.read().get(id).version))
                .collect();
            if versions.windows(2).any(|w| w[0].1 != w[1].1) {
                violations.push(format!(
                    "GL replica divergence on node {}: {versions:?}",
                    id.index()
                ));
            }
        }
        // Durable-store invariants (durability enabled only): each live
        // MDS's journaled state must agree with the cluster's in-memory
        // state — what a crash right now would recover is exactly what
        // the MDS is serving.
        for (k, slot) in self.shared.stores.iter().enumerate() {
            if !alive(MdsId(k as u16)) {
                continue;
            }
            let guard = slot.lock();
            let Some(store) = guard.as_ref() else {
                violations.push(format!("live mds{k} has no open store"));
                continue;
            };
            let state = store.state();
            let index_owned: std::collections::BTreeSet<u64> = index
                .iter()
                .filter(|(_, owner)| owner.index() == k)
                .map(|(root, _)| root.index() as u64)
                .collect();
            if state.owned != index_owned {
                violations.push(format!(
                    "mds{k} journaled ownership {:?} disagrees with index {:?}",
                    state.owned, index_owned
                ));
            }
            let table = self.shared.attr_stores[k].read();
            for (&node, a) in &state.attrs {
                let live = table.get(NodeId::from_index(node as usize)).version;
                if live != a.version {
                    violations.push(format!(
                        "mds{k} journaled attr version {} for node {node}, serving {live}",
                        a.version
                    ));
                }
            }
            // ... and the other way round: a record the table holds and the
            // journal does not is an update a crash right now would lose.
            // (One the journal holds at another version is reported above.)
            let mut unjournaled: Vec<(usize, u64)> = table
                .records()
                .filter(|(id, _)| !state.attrs.contains_key(&(id.index() as u64)))
                .map(|(id, rec)| (id.index(), rec.version))
                .collect();
            unjournaled.sort_unstable();
            for (node, version) in unjournaled {
                violations.push(format!(
                    "mds{k} serves attr version {version} for node {node}, journaled none"
                ));
            }
        }
        violations
    }

    /// Snapshot of the current placement (e.g. to observe fail-over).
    #[must_use]
    pub fn placement_snapshot(&self) -> Placement {
        self.shared.placement.read().clone()
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
            .map_or_else(Vec::new, |r| r.lock().ticks().cloned().collect())
    }

    /// The attribute version server `mds` holds for `node` — used to
    /// verify replica convergence after global-layer updates.
    #[must_use]
    pub fn attr_version(&self, mds: MdsId, node: NodeId) -> u64 {
        self.shared.attr_stores[mds.index()]
            .read()
            .get(node)
            .version
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
        for slot in &self.shared.stores {
            if let Some(store) = slot.lock().as_mut() {
                store.sync().expect("WAL sync failed");
            }
        }
        LiveReport {
            served: self
                .shared
                .served
                .iter()
                .map(|s| s.load(Ordering::SeqCst))
                .collect(),
            redirects: self.shared.redirects.load(Ordering::SeqCst),
            migrations: self.shared.migrations.load(Ordering::SeqCst),
            events: monitor.events(),
            journal: self.shared.registry.journal().snapshot(),
        }
    }
}

fn server_main(
    shared: &Shared,
    me: usize,
    rx: &Receiver<ServerMsg>,
    hb_tx: &Sender<Heartbeat>,
    interval: Duration,
    retry: RetryPolicy,
) {
    let my_id = MdsId(me as u16);
    // Cache counter handles once; the serve loop must not take the
    // registry's map locks.
    let served_total = shared
        .registry
        .counter(MetricKey::mds(names::SERVER_SERVED_TOTAL, me as u16));
    let forwarded_total = shared
        .registry
        .counter(MetricKey::global(names::FORWARDED_TOTAL));
    let monitor_retries = shared
        .registry
        .counter(MetricKey::global(names::MONITOR_RETRIES_TOTAL));
    // Heartbeat resends are spaced by the same capped-exponential +
    // seeded-jitter policy the clients use; seeded per server so runs
    // stay reproducible.
    let mut hb_rng = StdRng::seed_from_u64(0x6d6f_6e5f_7274_7279 ^ me as u64);
    let mut last_hb = Instant::now() - interval; // heartbeat immediately
    loop {
        if !shared.killed[me].load(Ordering::SeqCst) && last_hb.elapsed() >= interval {
            let load = shared.served[me].load(Ordering::SeqCst) as f64;
            let hb = Heartbeat { mds: my_id, load };
            match shared.fault(NetEdge::MdsToMonitor(me as u16)) {
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
                        if shared.killed[me].load(Ordering::SeqCst) {
                            break;
                        }
                        if shared.fault(NetEdge::MdsToMonitor(me as u16)) != FaultDecision::Drop {
                            let _ = hb_tx.send(hb);
                            break;
                        }
                    }
                }
                FaultDecision::Delay(ms) => {
                    let hb_tx = hb_tx.clone();
                    std::thread::spawn(move || {
                        std::thread::sleep(Duration::from_millis(ms));
                        let _ = hb_tx.send(hb);
                    });
                }
                FaultDecision::DeliverTwice => {
                    let _ = hb_tx.send(hb);
                    let _ = hb_tx.send(hb); // heartbeats are idempotent
                }
                FaultDecision::Deliver => {
                    let _ = hb_tx.send(hb);
                }
            }
            last_hb = Instant::now();
        }
        match rx.recv_timeout(interval) {
            Ok(ServerMsg::Shutdown) => break,
            Ok(ServerMsg::FetchIndex(reply)) => {
                if !shared.killed[me].load(Ordering::SeqCst) {
                    let _ = reply.send(shared.index.read().clone());
                }
            }
            Ok(ServerMsg::Frame(mut frame, reply)) => {
                if shared.killed[me].load(Ordering::SeqCst) {
                    continue; // crashed: silently drop
                }
                let Some(req) = Request::decode(&mut frame) else {
                    continue;
                };
                let serve_span = ServeSpan::open(shared.tracer(), &req);
                let duty = duty(&shared.tree, &shared.placement.read(), my_id, req.target);
                let body = match duty {
                    Duty::Replicated => {
                        if req.kind == OpKind::Update {
                            // The lock service sits across the network:
                            // consult the fault plan before talking to it.
                            // Partitioned from it, the server cannot
                            // serialise the update — drop the request and
                            // let the client's retry policy cope.
                            let lock_fault = shared.fault(NetEdge::MdsToLock(me as u16));
                            let lock_fault_kind = lock_fault.kind();
                            match lock_fault {
                                FaultDecision::Drop => {
                                    // Partitioned from the lock service: the
                                    // request dies here — attribute the loss
                                    // to this hop before dropping it.
                                    if let Some(sp) = serve_span {
                                        sp.tracer.record(
                                            sp.close(my_id, req.target).with_fault(FaultKind::Drop),
                                        );
                                    }
                                    continue;
                                }
                                FaultDecision::Delay(ms) => {
                                    std::thread::sleep(Duration::from_millis(ms));
                                }
                                _ => {}
                            }
                            // Global-layer mutation: serialise through the
                            // lock service (spin until granted), commit on
                            // this replica, propagate to the others while
                            // the lock is held.
                            let lock_t0 = shared.tracer().map(Tracer::now_us);
                            // Spin until granted *and still live at apply
                            // time*: a lease that expired while the write
                            // was in flight (e.g. behind an injected
                            // delay) must not authorise the mutation —
                            // re-acquire under a fresh fence instead of
                            // applying stale.
                            let mut spins = 0u64;
                            let token = loop {
                                let (t, s) =
                                    shared.locks.acquire_spin(req.target, || shared.now_ms());
                                spins += s;
                                if shared.locks.validate(t, shared.now_ms()) {
                                    break t;
                                }
                                spins += 1;
                            };
                            let now = shared.now_ms();
                            let committed = shared.attr_stores[me]
                                .write()
                                .update(req.target, |a| a.mtime = now);
                            shared.journal_attr(me, req.target, true, committed);
                            for (k, store) in shared.attr_stores.iter().enumerate() {
                                // A killed replica is a crashed process: it
                                // misses propagation and must re-sync through
                                // the lock service on restart.
                                if k != me && !shared.killed[k].load(Ordering::SeqCst) {
                                    // Each replica that actually advanced
                                    // journals the propagated commit; a
                                    // stale duplicate is not re-journaled.
                                    if store.write().apply_if_newer(req.target, committed) {
                                        shared.journal_attr(k, req.target, true, committed);
                                    }
                                }
                            }
                            let released = shared.locks.release(token);
                            debug_assert!(released, "fresh token releases cleanly");
                            // Wait + hold of the global-layer lock, nested
                            // under this server's serve span.
                            if let Some(serve) = serve_span {
                                let tr = serve.tracer;
                                let start = lock_t0.unwrap_or(0);
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
                                .on_mds(me as u16)
                                .with_arg(ArgKey::Node, req.target.index() as u64)
                                .with_arg(ArgKey::Spins, spins);
                                if let Some(k) = lock_fault_kind {
                                    sp = sp.with_fault(k);
                                }
                                tr.record(sp);
                            }
                        }
                        ResponseBody::Served { node: req.target }
                    }
                    Duty::Mine => {
                        if req.kind == OpKind::Update {
                            // Local-layer mutation: single copy, no lock.
                            let now = shared.now_ms();
                            let committed = shared.attr_stores[me]
                                .write()
                                .update(req.target, |a| a.mtime = now);
                            shared.journal_attr(me, req.target, false, committed);
                        }
                        ResponseBody::Served { node: req.target }
                    }
                    Duty::Other(owner) => {
                        shared.redirects.fetch_add(1, Ordering::Relaxed);
                        forwarded_total.inc();
                        shared.registry.journal().record(EventKind::Forwarded {
                            from: me as u16,
                            to: owner.0,
                        });
                        ResponseBody::Redirect { owner }
                    }
                    Duty::Unknown => ResponseBody::NotFound,
                };
                if matches!(body, ResponseBody::Served { .. }) {
                    shared.served[me].fetch_add(1, Ordering::Relaxed);
                    served_total.inc();
                    if duty == Duty::Mine {
                        if let Some((root, _)) =
                            shared.index.read().locate(&shared.tree, req.target)
                        {
                            let bits = {
                                let mut counts = shared.subtree_counts.write();
                                let v = counts.entry(root).or_insert(0.0);
                                *v += 1.0;
                                v.to_bits()
                            };
                            // Journal the counter's new absolute value so
                            // recovery restores popularity exactly.
                            shared.journal_record(
                                me,
                                MdsRecord::Popularity {
                                    root: root.index() as u64,
                                    bits,
                                },
                            );
                        }
                    }
                }
                let resp = Response {
                    id: req.id,
                    from: my_id,
                    body,
                    hops: req.hops,
                };
                let frame = resp.encode();
                let reply_fault = shared.fault(NetEdge::MdsToClient(me as u16));
                if let Some(serve) = serve_span {
                    let mut sp = serve.close(my_id, req.target).with_arg(
                        ArgKey::Body,
                        match body {
                            ResponseBody::Served { .. } => 0,
                            ResponseBody::Redirect { .. } => 1,
                            ResponseBody::NotFound => 2,
                        },
                    );
                    sp.fault = reply_fault.kind();
                    serve.tracer.record(sp);
                }
                match reply_fault {
                    FaultDecision::Drop => {} // reply lost; client times out
                    FaultDecision::Delay(ms) => {
                        // Deliver late without stalling the serve loop.
                        std::thread::spawn(move || {
                            std::thread::sleep(Duration::from_millis(ms));
                            let _ = reply.try_send(frame);
                        });
                    }
                    FaultDecision::DeliverTwice => {
                        let _ = reply.send(frame.clone());
                        // The client consumes one copy and drops the
                        // channel; never block on the duplicate.
                        let _ = reply.try_send(frame);
                    }
                    FaultDecision::Deliver => {
                        let _ = reply.send(frame);
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

fn monitor_main(
    shared: &Shared,
    m: usize,
    config: MonitorConfig,
    hb_rx: &Receiver<Heartbeat>,
    stop: &AtomicBool,
) -> Monitor {
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
                    let owned = ownership_table(shared, None);
                    let plan = mon.plan_rejoin(back, &owned, &shared.locks.control());
                    for &mg in &plan {
                        apply_migration(shared, mg);
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
        live_rebalance(shared, m);
        // Fixed-interval health sampling: one tick per heartbeat
        // interval, no matter how bursty the heartbeat traffic is.
        if let Some(rec) = &shared.recorder {
            if now >= next_sample_ms {
                next_sample_ms = now + tick_ms;
                let (_, loads) = per_server_load(shared, m);
                let total: f64 = loads.iter().sum();
                #[allow(clippy::cast_precision_loss)]
                let spec = ClusterSpec::homogeneous(m, (total / m as f64).max(f64::MIN_POSITIVE));
                rec.lock().sample(
                    TickSample {
                        t_us: shared.registry.uptime_us(),
                        // Live locality needs a namespace popularity
                        // model the data plane does not maintain; NaN
                        // marks it unknown (exported as null).
                        locality: f64::NAN,
                        balance: d2tree_metrics::balance(&loads, &spec),
                        ops_total: shared
                            .served
                            .iter()
                            .map(|s| s.load(Ordering::Relaxed))
                            .sum(),
                        retries_total: shared.redirects.load(Ordering::Relaxed),
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
            let owned = ownership_table(shared, Some(dead));
            let plan = mon.plan_failover(
                dead,
                &owned,
                &ClusterSpec::homogeneous(m, 1.0),
                &shared.locks.control(),
            );
            for &mg in &plan {
                apply_migration(shared, mg);
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

/// The subtree-ownership table the Monitor plans over: every published
/// index root with its owner, weighted by its access counter. With
/// `orphaned_by`, the maximal subtrees that server owns in the placement
/// under no published root are listed too — a cluster started without a
/// seeded index publishes nothing — so fail-over re-homes, and
/// publishes, them as whole subtrees as well.
fn ownership_table(shared: &Shared, orphaned_by: Option<MdsId>) -> Vec<(Subtree, MdsId)> {
    // Snapshot popularity before touching the index lock: servers take
    // index.read → subtree_counts.write, so taking subtree_counts under
    // an index guard would invert the order.
    let counts: HashMap<NodeId, f64> = shared.subtree_counts.read().clone();
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
    let index = shared.index.read();
    let mut owned: Vec<(Subtree, MdsId)> = index.iter().map(|(r, o)| describe(r, o)).collect();
    if let Some(dead) = orphaned_by {
        let placement = shared.placement.read();
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
/// state, placement and the published index are rewritten so
/// (re-)fetched client caches route to the new owner, both stores
/// journal the ownership change (a crashed store is out of its slot and
/// reconciles on recovery), and the move is counted and journaled as a
/// shed/claim pair.
fn apply_migration(shared: &Shared, mg: Migration) {
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
    shared
        .placement
        .write()
        .assign_subtree(&shared.tree, mg.node, mg.to);
    shared.index.write().insert(mg.node, mg.to);
    shared.journal_ownership(mg.from.index(), mg.node, false);
    shared.journal_ownership(mg.to.index(), mg.node, true);
    shared.migrations.fetch_add(1, Ordering::Relaxed);
    shared
        .registry
        .counter(MetricKey::global(names::MIGRATIONS_TOTAL))
        .inc();
    let size = shared.tree.subtree_size(mg.node) as u64;
    let popularity = shared
        .subtree_counts
        .read()
        .get(&mg.node)
        .copied()
        .unwrap_or(0.0);
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
fn per_server_load(shared: &Shared, m: usize) -> (Vec<(NodeId, f64)>, Vec<f64>) {
    let counts_snapshot: Vec<(NodeId, f64)> = {
        let counts = shared.subtree_counts.read();
        counts.iter().map(|(&k, &v)| (k, v)).collect()
    };
    let placement = shared.placement.read();
    let mut per_server = vec![0.0f64; m];
    for &(root, c) in &counts_snapshot {
        if let Some(owner) = placement.assignment(root).owner() {
            per_server[owner.index()] += c;
        }
    }
    (counts_snapshot, per_server)
}

/// One live rebalancing inspection (Sec. IV-B's dynamic adjustment,
/// driven by the access counters the servers accumulate): when the
/// busiest alive server's recent local-layer load exceeds the lightest's
/// by the configured factor, its hottest subtree migrates to the
/// lightest.
fn live_rebalance(shared: &Shared, m: usize) {
    if !shared.rebalance_factor.is_finite() {
        return;
    }
    let t0 = shared.tracer().map(Tracer::now_us);
    let (counts_snapshot, per_server) = per_server_load(shared, m);
    if counts_snapshot.is_empty() {
        return;
    }
    let alive: Vec<usize> = {
        let control = shared.locks.control();
        (0..m).filter(|&k| control.is_alive(k as u16)).collect()
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
    if per_server[busy] < shared.rebalance_factor * per_server[light].max(1.0) {
        return;
    }
    // Shed the busy server's hottest subtree to the light one.
    let placement = shared.placement.read();
    let hottest = counts_snapshot
        .iter()
        .filter(|(root, _)| placement.assignment(*root).owner() == Some(MdsId(busy as u16)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|&(root, _)| root);
    drop(placement);
    let Some(root) = hottest else { return };
    let mg = Migration {
        node: root,
        from: MdsId(busy as u16),
        to: MdsId(light as u16),
    };
    apply_migration(shared, mg);
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
    let mut counts = shared.subtree_counts.write();
    for v in counts.values_mut() {
        *v *= 0.5;
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
            let (tx, rx) = bounded(1);
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
            let frame = machine.attempt(dest.0, route_code).encode();
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
    fn exchange(&self, dest: MdsId, frame: Bytes, send_fault: FaultDecision) -> Outcome {
        let server = &self.server_txs[dest.index()];
        let (tx, rx) = bounded(1);
        let sent = match send_fault {
            FaultDecision::Drop => false, // request lost
            FaultDecision::Delay(ms) => {
                std::thread::sleep(Duration::from_millis(ms).min(self.timeout));
                server.send(ServerMsg::Frame(frame, tx)).is_ok()
            }
            FaultDecision::DeliverTwice => {
                // The duplicate's reply channel is already closed, so
                // the server's answer to it is discarded harmlessly.
                let (dup_tx, _) = bounded::<Bytes>(1);
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
            Ok(mut frame) => Response::decode(&mut frame).map_or(Outcome::Lost, Outcome::from),
            // Dead or overloaded server.
            Err(_) => Outcome::TimedOut,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2tree_core::{D2TreeConfig, D2TreeScheme, Partitioner};
    use d2tree_metrics::ClusterSpec;
    use d2tree_workload::{TraceProfile, WorkloadBuilder};

    fn build_cluster(m: usize) -> (Arc<NamespaceTree>, LiveCluster, d2tree_workload::Trace) {
        let w = WorkloadBuilder::new(TraceProfile::dtr().with_nodes(600).with_operations(600))
            .seed(10)
            .build();
        let pop = w.popularity();
        let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default());
        scheme.build(&w.tree, &pop, &ClusterSpec::homogeneous(m, 1.0));
        let placement = scheme.placement().clone();
        let index = scheme.local_index().clone();
        let tree = Arc::new(w.tree);
        let cluster = LiveCluster::start_with_index(
            Arc::clone(&tree),
            placement,
            index,
            LiveConfig::default(),
        );
        (tree, cluster, w.trace)
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
        let store_root = std::env::temp_dir().join(format!(
            "d2tree-live-two-way-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos()
        ));
        let _ = std::fs::remove_dir_all(&store_root);
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
        let tables = &cluster.shared.attr_stores;
        assert!(
            tables.iter().all(|t| t.read().record_count() > 0),
            "RA updates reached both servers"
        );
        assert_eq!(cluster.check_invariants(), Vec::<String>::new());

        // Two local-layer updates that skip the journal, the higher
        // node first.
        let placement = cluster.placement_snapshot();
        let untouched: Vec<NodeId> = (0..tables[1].read().len())
            .map(NodeId::from_index)
            .filter(|&id| placement.assignment(id).owner().is_some())
            .filter(|&id| tables[1].read().get(id).version == 0)
            .take(2)
            .collect();
        for &id in untouched.iter().rev() {
            tables[1].write().update(id, |a| a.size = 1);
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

    #[test]
    fn concurrent_gl_updates_converge_on_all_replicas() {
        let (tree, cluster, _trace) = build_cluster(3);
        let cluster = Arc::new(cluster);
        let root = tree.root();
        let mut handles = Vec::new();
        for c in 0..4u64 {
            let mut client = cluster.client(100 + c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..25 {
                    client
                        .execute(Operation {
                            target: root,
                            kind: OpKind::Update,
                        })
                        .expect("update served");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every replica saw every one of the 100 lock-serialised commits.
        let versions: Vec<u64> = (0..3)
            .map(|k| cluster.attr_version(MdsId(k), root))
            .collect();
        assert_eq!(
            versions,
            vec![100, 100, 100],
            "replicas diverged: {versions:?}"
        );
        let _ = Arc::try_unwrap(cluster).unwrap().shutdown();
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
