//! Real TCP serving layer: the wire codec of [`crate::message`] carried
//! over `std::net` sockets instead of channel shims.
//!
//! The paper's evaluation (Sec. VI, throughput in Fig. 5) measures
//! metadata servers answering clients over a real network (EC2 instances
//! on 100 Mbps links). This module supplies that substrate in-workspace:
//!
//! * [`FrameBuf`] / [`FrameReader`] — incremental length-prefixed frame
//!   reassembly that is correct under arbitrarily short reads (a TCP
//!   stream may deliver one byte at a time) and rejects absurd length
//!   prefixes instead of buffering unboundedly. Frames are handed out
//!   as slices borrowed from the read buffer; consuming one advances a
//!   cursor, and the buffer compacts once per received chunk.
//! * [`NetMds`] — one MDS worth of serving state (placement, local
//!   index, attribute table, optional WAL-backed durable store, metrics,
//!   tracing), and the one serving core: every request a `d2tree serve`
//!   daemon or a [`LiveCluster`](crate::live::LiveCluster) server
//!   answers goes through a per-batch [`ServeScope`]
//!   ([`NetMds::begin_batch`] → [`ServeScope::serve`]… →
//!   [`ServeScope::commit`]); [`NetMds::serve`], [`NetMds::serve_batch`]
//!   and [`NetMds::serve_deferred`] are thin entries over it.
//!   Replicated global-layer nodes serve anywhere, single-owner nodes
//!   either serve locally or redirect, unknown targets report
//!   not-found.
//! * [`NetServer`] — a blocking thread-per-connection TCP server:
//!   accept loop on its own thread, one handler thread per client
//!   connection running a *batched* serve loop (every complete frame
//!   the last read buffered is decoded in place, served inside one
//!   [`ServeScope`] and its response encoded straight into the reused
//!   write buffer; the batch's WAL appends share one group-committed
//!   fsync, and all responses leave in one write), graceful shutdown
//!   via a stop flag plus a self-connect listener wake, and
//!   per-connection error isolation (a poisoned or reset connection
//!   dies alone; the listener and its siblings keep serving).
//! * [`NetClient`] — a blocking single-connection client speaking the
//!   same codec: request/response via [`NetClient::call`], or a
//!   pipelined window via [`NetClient::send_batch`] +
//!   [`NetClient::recv`].
//! * [`run_load`] — a multi-connection load generator driving seeded
//!   workload streams in closed-loop (each worker issues back-to-back)
//!   or open-loop (target QPS with a pacing clock; latency measured
//!   from the scheduled send time, so queueing delay is not omitted)
//!   modes, with owner-routing through a derived [`LocalIndex`], the
//!   request life-cycle of [`crate::client`] (redirect following,
//!   retry/timeout under the shared [`RetryPolicy`]), and a
//!   per-connection window ([`LoadConfig::pipeline`]) of up to N
//!   requests in flight, latency still measured per operation.
//!
//! Trace contexts ride the 17-byte trailer of every [`Request`] frame,
//! so a sampled operation's span chain — client `op` root, per-try
//! `attempt` children, server `serve` span — links across the socket
//! exactly as it does over the in-process transport.
//!
//! One caveat versus the in-process cluster: only there is a daemon in a
//! GL replication group, which serialises a global-layer update through
//! the lock service (Sec. IV-A3) and hands it to the sibling replicas; a
//! `d2tree serve` process commits it on its own replica. See DESIGN.md §14.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use d2tree_core::LocalIndex;
use d2tree_metrics::{MdsId, Migration, Placement};
use d2tree_namespace::{AttrTable, NamespaceTree, NodeId, VersionedAttr};
use d2tree_store::{MdsRecord, MdsStore, RecoveryInfo, StoreConfig};
use d2tree_telemetry::trace::{ArgKey, Tracer};
use d2tree_telemetry::{
    names, Counter, FaultKind, Histogram, HistogramSnapshot, MetricKey, Registry,
};
use d2tree_workload::{OpKind, Operation, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::client::{ClientError, Outcome, RequestMachine, RetryPolicy, RouteDecision, Step};
use crate::live::GlGroup;
use crate::mds::{attr_state, duty, open_and_recover, Duty, ServeSpan};
use crate::message::{Request, RequestId, Response, ResponseBody};
use crate::sync;

/// Default cap on a single frame's body length. The real codec's frames
/// are tens of bytes; anything near this cap is garbage (a desynced
/// stream or a port scanner), and rejecting it bounds per-connection
/// memory.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Incremental assembly of length-prefixed frames from a byte stream.
///
/// Feed arbitrary chunks in with [`extend`](Self::extend); take complete
/// frames (4-byte big-endian length prefix *plus* body, so the `decode`
/// functions consume them directly) out with
/// [`next_slice`](Self::next_slice), borrowed from the buffer, or
/// [`next_frame`](Self::next_frame), copied out. Handles frames split
/// across any number of chunks, including one byte at a time, and
/// multiple frames arriving in one chunk.
///
/// Taking a frame only advances a read cursor. The consumed prefix is
/// reclaimed by the next `extend` (one move of the unconsumed tail, at
/// most a partial frame when the consumer keeps up), so a borrowed frame
/// is valid until then and the cost of a frame does not grow with the
/// number of frames buffered behind it.
#[derive(Debug)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Read cursor: `buf[..head]` has been handed out.
    head: usize,
    max_frame: usize,
}

impl FrameBuf {
    /// An empty buffer rejecting frames whose body exceeds `max_frame`.
    #[must_use]
    pub fn new(max_frame: usize) -> Self {
        FrameBuf {
            buf: Vec::new(),
            head: 0,
            max_frame,
        }
    }

    /// Appends one received chunk, first dropping the consumed prefix.
    pub fn extend(&mut self, chunk: &[u8]) {
        if self.head > 0 {
            self.buf.copy_within(self.head.., 0);
            self.buf.truncate(self.buf.len() - self.head);
            self.head = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes buffered but not yet returned as a complete frame.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Length (prefix + body) of the complete frame at the cursor, or
    /// `None` when more bytes are needed — the one place frames are
    /// parsed.
    fn ready(&self) -> io::Result<Option<usize>> {
        let unread = &self.buf[self.head..];
        let Some(prefix) = unread.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_be_bytes(*prefix) as usize;
        if len > self.max_frame {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "frame body of {len} bytes exceeds the {} cap",
                    self.max_frame
                ),
            ));
        }
        Ok((unread.len() >= 4 + len).then_some(4 + len))
    }

    /// Takes the next complete frame (prefix + body) as a slice of the
    /// buffer, valid until the next [`extend`](Self::extend).
    ///
    /// `Ok(None)` means more bytes are needed.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] when the length prefix exceeds the
    /// configured cap — the stream is desynced or hostile and cannot be
    /// re-synchronised; the caller should drop the connection. Nothing
    /// is consumed, so the error cannot be skipped past.
    pub fn next_slice(&mut self) -> io::Result<Option<&[u8]>> {
        let Some(total) = self.ready()? else {
            return Ok(None);
        };
        let start = self.head;
        self.head += total;
        Ok(Some(&self.buf[start..self.head]))
    }

    /// [`next_slice`](Self::next_slice), copied into an owned [`Bytes`]
    /// for callers that keep frames past the next `extend`.
    ///
    /// # Errors
    ///
    /// As [`next_slice`](Self::next_slice).
    pub fn next_frame(&mut self) -> io::Result<Option<Bytes>> {
        Ok(self.next_slice()?.map(Bytes::copy_from_slice))
    }
}

/// A [`FrameBuf`] fed from any [`Read`] — the server and client side of
/// every connection read frames through this.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    buf: FrameBuf,
    scratch: Box<[u8]>,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `inner`, rejecting frame bodies larger than `max_frame`.
    pub fn new(inner: R, max_frame: usize) -> Self {
        FrameReader {
            inner,
            buf: FrameBuf::new(max_frame),
            scratch: vec![0u8; 16 * 1024].into_boxed_slice(),
        }
    }

    /// Reads until at least one complete frame is buffered.
    ///
    /// `Ok(false)` is a clean EOF at a frame boundary (the peer closed
    /// between frames).
    ///
    /// # Errors
    ///
    /// * [`io::ErrorKind::UnexpectedEof`] — the peer closed mid-frame.
    /// * [`io::ErrorKind::InvalidData`] — oversized length prefix.
    /// * `WouldBlock` / `TimedOut` — propagated from a read timeout so
    ///   pollers can check their stop flag; buffered partial-frame bytes
    ///   are kept and the next call resumes where this one left off.
    pub fn fill(&mut self) -> io::Result<bool> {
        loop {
            if self.buf.ready()?.is_some() {
                return Ok(true);
            }
            match self.inner.read(&mut self.scratch) {
                Ok(0) => {
                    return if self.buf.pending() == 0 {
                        Ok(false)
                    } else {
                        Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "connection closed mid-frame",
                        ))
                    };
                }
                Ok(n) => self.buf.extend(&self.scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Takes the next frame the last read left buffered, without
    /// reading: after one [`fill`](Self::fill), calling this until it
    /// returns `Ok(None)` drains a pipelining client's whole burst — N
    /// frames written back-to-back typically land in one `read()` — as
    /// one batch. The slice is valid until the next `fill`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] on an oversized length prefix; it
    /// stays in place, so the next `fill` reports it again.
    pub fn buffered_frame(&mut self) -> io::Result<Option<&[u8]>> {
        self.buf.next_slice()
    }

    /// Reads until one complete frame is buffered and returns it.
    ///
    /// `Ok(None)` is a clean EOF at a frame boundary.
    ///
    /// # Errors
    ///
    /// As [`fill`](Self::fill).
    pub fn next_frame(&mut self) -> io::Result<Option<&[u8]>> {
        if !self.fill()? {
            return Ok(None);
        }
        self.buf.next_slice()
    }
}

/// Entries the slow-request log keeps.
const SLOW_LOG_CAPACITY: usize = 16;

/// One slow batch in the slow-request log: how long it ran, and the
/// request it is named by — the batch's last request with a trace
/// context, or else its last request — with where that was aimed, how
/// it ended, and the trace id to pull its span chain with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowEntry {
    /// Server-side duration of the batch, read → durable, microseconds:
    /// the server latency of every request in it.
    pub dur_us: u64,
    /// Completion time as registry uptime, microseconds.
    pub t_us: u64,
    /// The requested operation kind.
    pub kind: OpKind,
    /// Target node index.
    pub target: u64,
    /// How it ended: 0 served, 1 redirect, 2 not-found.
    pub outcome: u8,
    /// Trace id from the wire trailer, when the request was sampled.
    pub trace: Option<u64>,
}

/// Bounded top-N-by-duration log of served batches, one entry each.
///
/// The publish path is gated on a lock-free floor: once the log is
/// full, only a batch slower than the current N-th slowest takes the
/// mutex, so steady-state fast batches cost one relaxed load.
#[derive(Debug)]
struct SlowLog {
    /// Duration of the slowest entry *not* worth logging — batches at
    /// or under this skip the lock. Zero until the log fills.
    floor: AtomicU64,
    entries: Mutex<Vec<SlowEntry>>,
}

impl SlowLog {
    fn new() -> Self {
        SlowLog {
            floor: AtomicU64::new(0),
            entries: Mutex::new(Vec::with_capacity(SLOW_LOG_CAPACITY)),
        }
    }

    /// Whether a batch of this duration can enter the log — the one
    /// relaxed load a fast batch pays; only then is its entry built.
    fn admits(&self, dur_us: u64) -> bool {
        dur_us > self.floor.load(Ordering::Relaxed)
    }

    fn observe(&self, e: SlowEntry) {
        let mut entries = sync::lock(&self.entries);
        if entries.len() < SLOW_LOG_CAPACITY {
            entries.push(e);
        } else {
            let (i, slowest_min) = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, x)| x.dur_us)
                .map(|(i, x)| (i, x.dur_us))
                .expect("full log is non-empty");
            if slowest_min >= e.dur_us {
                return; // the floor moved under us; still not worth it
            }
            entries[i] = e;
        }
        if entries.len() == SLOW_LOG_CAPACITY {
            let floor = entries
                .iter()
                .map(|x| x.dur_us)
                .min()
                .expect("full log is non-empty");
            self.floor.store(floor, Ordering::Relaxed);
        }
    }

    /// Entries sorted slowest first.
    fn top(&self) -> Vec<SlowEntry> {
        let mut v = sync::lock(&self.entries).clone();
        v.sort_by(|a, b| b.dur_us.cmp(&a.dur_us).then(a.t_us.cmp(&b.t_us)));
        v
    }
}

/// Row index for a request kind in the server-side latency matrix.
fn kind_index(kind: OpKind) -> usize {
    match kind {
        OpKind::Read => 0,
        OpKind::Write => 1,
        OpKind::Update => 2,
    }
}

/// A daemon's view and counters, under one lock: a migration changes
/// them together, a batch reads them under one read guard.
#[derive(Debug)]
struct Routing {
    placement: Placement,
    index: LocalIndex,
    /// Served-op counts (`f64` bits) by index slot, one per local-layer
    /// subtree root, journaled so a restarted daemon recovers its
    /// popularity signal. Every root of the index has one, whoever owns
    /// it (a served node is counted under its shallowest indexed
    /// ancestor, which nested roots can make another MDS's). A migration
    /// never moves a root's slot, so a bump is one atomic update at the
    /// slot `locate_slot` answers with: no probe, no lock of its own.
    counts: Vec<AtomicU64>,
}

/// One MDS worth of serving state, behind a real socket or a
/// [`LiveCluster`](crate::live::LiveCluster)'s channels.
///
/// Built from the same deterministic workspace derivation the load
/// generator uses (profile + seed → tree, trace popularity → placement
/// and local index), so a `serve` daemon and its `load` clients agree on
/// routing without any control-plane exchange.
#[derive(Debug)]
pub struct NetMds {
    tree: Arc<NamespaceTree>,
    me: MdsId,
    routing: RwLock<Routing>,
    attrs: RwLock<AttrTable>,
    /// `None` when no store was ever attached, so a store-less daemon
    /// never touches a lock for it; the inner `Option` empties when
    /// [`simulate_store_crash`](Self::simulate_store_crash) takes the
    /// store away.
    store: Option<Mutex<Option<MdsStore>>>,
    /// Set only inside a `LiveCluster`; without it a replicated update
    /// commits on this replica alone.
    group: Option<Arc<GlGroup>>,
    epoch: Instant,
    registry: Arc<Registry>,
    tracer: Option<Arc<Tracer>>,
    /// Migrations applied to this daemon's view (the registry's
    /// `migrations_total` counts the cluster's).
    migrations: AtomicU64,
    served_total: Arc<Counter>,
    forwarded_total: Arc<Counter>,
    /// Group commits on the serving path: one per batch whose journaled
    /// mutations were fsynced together before responding.
    wal_group_commits: Arc<Counter>,
    /// Server-side latency histograms, `[kind][outcome]` with outcome
    /// 0 served / 1 redirect / 2 not-found — the measurement the admin
    /// plane's `/metrics` reports next to client-observed latencies. A
    /// request's sample is its batch's read → durable time, clocked once
    /// per [`ServeScope`].
    srv_latency: [[Arc<Histogram>; 3]; 3],
    slow: SlowLog,
}

impl NetMds {
    /// Serving state for MDS `me` of the cluster described by
    /// `placement`/`index` over `tree`.
    ///
    /// # Panics
    ///
    /// Panics if the placement is not complete for `tree` — a daemon
    /// must know the assignment of every node it can be asked about.
    #[must_use]
    pub fn new(
        tree: Arc<NamespaceTree>,
        placement: Placement,
        mut index: LocalIndex,
        me: MdsId,
        registry: Arc<Registry>,
    ) -> Self {
        assert!(
            placement.is_complete(&tree),
            "net MDS needs a complete placement"
        );
        // A no-op for an index that comes labelled for this very tree
        // (`D2TreeScheme::build`, tree moved into the `Arc`). For one
        // labelled over the tree this is a clone of, it is the
        // difference between two loads and a chain walk per request.
        index.relabel(&tree);
        let attrs = RwLock::new(AttrTable::new(&tree));
        let served_total = registry.counter(MetricKey::mds(names::SERVER_SERVED_TOTAL, me.0));
        let forwarded_total = registry.counter(MetricKey::global(names::FORWARDED_TOTAL));
        let wal_group_commits =
            registry.counter(MetricKey::mds(names::WAL_GROUP_COMMITS_TOTAL, me.0));
        let srv_names = [
            [
                names::SRV_LATENCY_US_READ_OK,
                names::SRV_LATENCY_US_READ_REDIRECT,
                names::SRV_LATENCY_US_READ_ERROR,
            ],
            [
                names::SRV_LATENCY_US_WRITE_OK,
                names::SRV_LATENCY_US_WRITE_REDIRECT,
                names::SRV_LATENCY_US_WRITE_ERROR,
            ],
            [
                names::SRV_LATENCY_US_UPDATE_OK,
                names::SRV_LATENCY_US_UPDATE_REDIRECT,
                names::SRV_LATENCY_US_UPDATE_ERROR,
            ],
        ];
        let srv_latency =
            srv_names.map(|row| row.map(|name| registry.histogram(MetricKey::mds(name, me.0))));
        let counts = (0..index.len())
            .map(|_| AtomicU64::new(0f64.to_bits()))
            .collect();
        NetMds {
            tree,
            me,
            routing: RwLock::new(Routing {
                placement,
                index,
                counts,
            }),
            attrs,
            store: None,
            group: None,
            epoch: Instant::now(),
            registry,
            tracer: None,
            migrations: AtomicU64::new(0),
            served_total,
            forwarded_total,
            wal_group_commits,
            srv_latency,
            slow: SlowLog::new(),
        }
    }

    /// Attaches a durable store at `<root>/mds-<k>`: recovers whatever a
    /// previous run left on disk (the journaled attribute records and
    /// popularity counters), then converges the journaled ownership set
    /// on the seeded index, exactly like the in-process cluster does.
    ///
    /// A journaled counter of a root the seeded index holds continues
    /// from its journaled value. One of a root the index lacks is
    /// dropped: nothing can be counted under it again. The store keeps
    /// its record; only this daemon does not carry it.
    ///
    /// # Panics
    ///
    /// Panics if the store cannot be opened or recovered — a daemon must
    /// not serve from state it cannot trust.
    #[must_use]
    pub fn with_store_root(mut self, root: &Path, config: StoreConfig) -> Self {
        self.store = Some(Mutex::new(None));
        self.recover(root, config, true);
        self
    }

    /// Opens the store through [`open_and_recover`] against this
    /// daemon's index and takes over the table, the store and each
    /// counter's journaled value (or zero). A rejoining daemon acquires
    /// nothing: the Monitor hands it subtrees afterwards.
    pub(crate) fn recover(&self, root: &Path, config: StoreConfig, acquire: bool) -> RecoveryInfo {
        let routing = sync::read(&self.routing);
        let recovered = open_and_recover(
            root,
            config,
            self.me,
            &self.registry,
            self.tracer.as_ref(),
            &self.tree,
            &routing.index,
            acquire,
        );
        *sync::write(&self.attrs) = recovered.attrs;
        for (root, count) in routing.counters() {
            let journaled = recovered.popularity.get(&root).copied();
            count.store(journaled.unwrap_or(0), Ordering::Relaxed);
        }
        if let Some(store) = self.lock_store().as_deref_mut() {
            *store = Some(recovered.store);
        }
        recovered.info
    }

    /// Attaches a tracer; sampled requests record `serve` spans parented
    /// on the trace context riding the request frame.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Puts this daemon's replicated updates through `group`.
    pub(crate) fn with_gl_group(mut self, group: Arc<GlGroup>) -> Self {
        self.group = Some(group);
        self
    }

    /// This daemon's view: the placement and the index it routes by.
    pub(crate) fn view(&self) -> (Placement, LocalIndex) {
        let routing = sync::read(&self.routing);
        (routing.placement.clone(), routing.index.clone())
    }

    /// The served-op count of every root of this daemon's index that
    /// has one.
    pub(crate) fn popularity(&self) -> Vec<(NodeId, f64)> {
        let routing = sync::read(&self.routing);
        let count = |c: &AtomicU64| f64::from_bits(c.load(Ordering::Relaxed));
        let counts = routing.counters().map(|(root, c)| (root, count(c)));
        counts.filter(|&(_, c)| c > 0.0).collect()
    }

    /// Applies a committed re-homing to this daemon's view — a root new
    /// to the index gets a zero counter in the next slot — and, at either
    /// end of it, journals the shed or the acquisition durably.
    pub(crate) fn apply_migration(&self, mg: Migration) {
        {
            let mut routing = sync::write(&self.routing);
            routing.placement.assign_subtree(&self.tree, mg.node, mg.to);
            if routing.index.slot_of(mg.node).is_none() {
                routing.counts.push(AtomicU64::new(0f64.to_bits()));
            }
            routing.index.insert(mg.node, mg.to);
            routing.index.relabel(&self.tree);
        }
        self.migrations.fetch_add(1, Ordering::Relaxed);
        let mut scope = self.begin_batch();
        for (end, acquired) in [(mg.from, false), (mg.to, true)] {
            if end == self.me {
                let root = mg.node.index() as u64;
                scope.journal(MdsRecord::Ownership { root, acquired });
            }
        }
        scope.commit();
    }

    /// The Monitor's decay after a rebalancing round that moved a
    /// subtree: halves every counter, journals each that changed and
    /// commits once.
    pub(crate) fn decay_popularity(&self) {
        let mut scope = self.begin_batch();
        let mut store = lock_once(self, &mut scope.store);
        let half = |bits| (f64::from_bits(bits) * 0.5).to_bits();
        for (root, count) in scope.routing.counters() {
            let changed = count.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some(half(bits)).filter(|&h| h != bits)
            });
            // A zero stays zero and journals nothing.
            if let (Ok(prev), Some(store)) = (changed, store.as_deref_mut()) {
                store
                    .append_deferred(MdsRecord::Popularity {
                        root: root.index() as u64,
                        bits: half(prev),
                    })
                    .expect("WAL append failed");
            }
        }
        scope.commit();
    }

    /// The attribute record this MDS holds for `node`.
    pub(crate) fn attr(&self, node: NodeId) -> VersionedAttr {
        sync::read(&self.attrs).get(node)
    }

    /// Installs a sibling replica's commit of global-layer `node` if it
    /// is newer. The record is journaled like any other and becomes
    /// durable at this daemon's next commit.
    pub(crate) fn replicate(&self, node: NodeId, committed: VersionedAttr) -> bool {
        // The table is let go first: a batch holding the store takes it.
        let newer = sync::write(&self.attrs).apply_if_newer(node, committed);
        if newer {
            if let Some(store) = self.lock_store().as_deref_mut().and_then(Option::as_mut) {
                store
                    .append_deferred(MdsRecord::AttrCommit {
                        node: node.index() as u64,
                        gl: true,
                        attr: attr_state(committed),
                    })
                    .expect("WAL append failed");
            }
        }
        newer
    }

    /// Where a crash now would recover other than what this daemon
    /// serves (read at a quiesce point): owned subtrees, attribute
    /// records both ways, counters. Empty without a store.
    pub(crate) fn store_violations(&self) -> Vec<String> {
        let k = self.me.0;
        let routing = sync::read(&self.routing);
        let Some(guard) = self.lock_store() else {
            return Vec::new();
        };
        let Some(store) = guard.as_ref() else {
            return vec![format!("live mds{k} has no open store")];
        };
        let mut violations = Vec::new();
        let state = store.state();
        let index_owned: BTreeSet<u64> = routing
            .index
            .iter()
            .filter(|&(_, owner)| owner == self.me)
            .map(|(root, _)| root.index() as u64)
            .collect();
        if state.owned != index_owned {
            violations.push(format!(
                "mds{k} journaled ownership {:?} disagrees with index {:?}",
                state.owned, index_owned
            ));
        }
        let table = sync::read(&self.attrs);
        let mut served: BTreeMap<u64, u64> = table
            .records()
            .map(|(id, r)| (id.index() as u64, r.version))
            .collect();
        for (&node, a) in &state.attrs {
            let live = served.remove(&node).unwrap_or(0);
            if live != a.version {
                violations.push(format!(
                    "mds{k} journaled attr version {} for node {node}, serving {live}",
                    a.version
                ));
            }
        }
        // What is left, the table holds and the journal does not: an
        // update a crash right now would lose.
        for (node, version) in served {
            violations.push(format!(
                "mds{k} serves attr version {version} for node {node}, journaled none"
            ));
        }
        for (root, count) in routing.counters() {
            let root = root.index() as u64;
            let journaled = state.popularity.get(&root).copied().unwrap_or(0);
            let live = count.load(Ordering::Relaxed);
            if live != journaled {
                let (journaled, live) = (f64::from_bits(journaled), f64::from_bits(live));
                violations.push(format!(
                    "mds{k} journaled popularity {journaled} for subtree {root}, counts {live}"
                ));
            }
        }
        violations
    }

    /// The telemetry registry this MDS instruments itself against.
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Operations this MDS has served (not redirected), read from its
    /// `server_served_total` counter.
    #[must_use]
    pub fn served(&self) -> u64 {
        self.served_total.get()
    }

    /// Redirect responses this MDS has issued: the sample counts of its
    /// three `[kind][redirect]` latency lanes.
    #[must_use]
    pub fn redirects(&self) -> u64 {
        self.srv_latency.iter().map(|row| row[1].count()).sum()
    }

    /// The tracer attached with [`with_tracer`](Self::with_tracer), if
    /// any — the admin plane reads live spans through it.
    #[must_use]
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// The slowest batches this daemon has served, slowest first, one
    /// entry per batch named by one of its requests (bounded at
    /// `SLOW_LOG_CAPACITY` entries).
    #[must_use]
    pub fn slow_requests(&self) -> Vec<SlowEntry> {
        self.slow.top()
    }

    /// A flight-recorder sample of this daemon's running totals.
    ///
    /// A single daemon has no popularity model and no sibling loads,
    /// so Def. 3 locality is NaN (unknown, exempt from health rules)
    /// and Def. 5 balance is +∞ (one replica is trivially balanced);
    /// redirects stand in for the retry signal, exactly the extra-hop
    /// meaning the rules assign it.
    #[must_use]
    pub fn tick_sample(&self) -> d2tree_telemetry::TickSample {
        let served = self.served();
        d2tree_telemetry::TickSample {
            t_us: self.registry.uptime_us(),
            locality: f64::NAN,
            balance: f64::INFINITY,
            ops_total: served,
            retries_total: self.redirects(),
            migrations_total: self.migrations.load(Ordering::Relaxed),
            loads: vec![served as f64],
        }
    }

    /// The attribute version this MDS holds for `node` — used by tests
    /// to verify updates actually committed.
    #[must_use]
    pub fn attr_version(&self, node: NodeId) -> u64 {
        sync::read(&self.attrs).get(node).version
    }

    /// How many nodes this MDS holds an attribute record for: the ones
    /// it has updated or recovered from its journal, not the namespace.
    #[must_use]
    pub fn attr_records(&self) -> usize {
        sync::read(&self.attrs).record_count()
    }

    /// Flushes the durable store (if any) so a clean shutdown leaves the
    /// WAL durable up to its last append.
    pub fn sync(&self) {
        if let Some(store) = self.lock_store().as_deref_mut().and_then(Option::as_mut) {
            store.sync().expect("WAL sync failed");
        }
    }

    /// The store's lock, or `None` — without locking anything — when no
    /// store was ever attached.
    fn lock_store(&self) -> Option<MutexGuard<'_, Option<MdsStore>>> {
        self.store.as_ref().map(sync::lock)
    }

    /// Group-commits everything journaled so far: one fsync covers
    /// every buffered append, and the `wal_group_commits_total` counter
    /// ticks once per fsync actually issued. A no-op when no store is
    /// attached or nothing is pending (e.g. a read-only batch, or a
    /// sibling connection's commit already covered our appends —
    /// cross-connection coalescing is free and correct, since a later
    /// fsync makes every earlier buffered append durable too).
    pub fn commit_batch(&self) {
        self.begin_batch().commit();
    }

    /// Opens the serve scope of one batch: serve each request through
    /// [`ServeScope::serve`], then [`ServeScope::commit`] before any of
    /// the responses is acknowledged to a remote peer.
    #[must_use]
    pub fn begin_batch(&self) -> ServeScope<'_> {
        ServeScope {
            mds: self,
            routing: sync::read(&self.routing),
            opened: Instant::now(),
            store: None,
            lanes: [[0; 3]; 3],
            named: None,
        }
    }

    /// Serves a batch of decoded requests and issues one group-committed
    /// fsync for every mutation the batch journaled, so the responses —
    /// written back by the caller *after* this returns — acknowledge
    /// durable state: one fsync per batch instead of one per mutating
    /// request.
    #[must_use]
    pub fn serve_batch(&self, reqs: &[Request]) -> Vec<Response> {
        let mut scope = self.begin_batch();
        let resps = reqs.iter().map(|&req| scope.serve(req)).collect();
        scope.commit();
        resps
    }

    /// Serves one decoded request with durability deferred: journaled
    /// mutations stay buffered until the next [`commit_batch`] (or any
    /// other commit of this daemon). Callers must not acknowledge the
    /// response to a remote peer before committing. Public for crash
    /// tests that need to open the ack-before-fsync window on purpose;
    /// everything else wants [`serve`](Self::serve),
    /// [`serve_batch`](Self::serve_batch) or a [`ServeScope`].
    ///
    /// [`commit_batch`]: Self::commit_batch
    #[must_use]
    pub fn serve_deferred(&self, req: Request) -> Response {
        self.begin_batch().serve(req)
    }

    /// Serves one decoded request durably: a batch of one — any
    /// journaled mutation is group-committed before the response is
    /// returned. See [`ServeScope::serve`] for the serving semantics.
    #[must_use]
    pub fn serve(&self, req: Request) -> Response {
        let mut scope = self.begin_batch();
        let resp = scope.serve(req);
        scope.commit();
        resp
    }

    /// The attached store's next LSN (records journaled so far), if a
    /// store is attached. Lets tests and diagnostics account journal
    /// growth without reaching into the store.
    #[must_use]
    pub fn store_next_lsn(&self) -> Option<u64> {
        self.lock_store()?.as_ref().map(MdsStore::next_lsn)
    }

    /// Crash-models the attached store: tears `keep` bytes of whatever
    /// is buffered-but-unsynced into the WAL file and drops the store
    /// (further serving continues without journaling, like a daemon
    /// whose disk died). Returns whether a store was attached. Test
    /// hook — pairs with [`serve_deferred`](Self::serve_deferred) to
    /// open a mid-group-commit window and verify recovery semantics.
    pub fn simulate_store_crash(&self, keep: usize) -> bool {
        self.crash_store(|_| keep)
    }

    /// [`simulate_store_crash`](Self::simulate_store_crash), keeping
    /// `keep(pending)` of the `pending` unsynced bytes.
    pub(crate) fn crash_store(&self, keep: impl FnOnce(usize) -> usize) -> bool {
        match self.lock_store().and_then(|mut guard| guard.take()) {
            Some(store) => {
                let keep = keep(store.pending_bytes());
                store.simulate_crash(keep).expect("simulated crash failed");
                true
            }
            None => false,
        }
    }
}

impl Routing {
    /// Every root of the index with its counter.
    fn counters(&self) -> impl Iterator<Item = (NodeId, &AtomicU64)> {
        self.index.iter().map(|(root, _)| {
            let slot = self
                .index
                .slot_of(root)
                .expect("an indexed root has a slot");
            (root, &self.counts[slot])
        })
    }
}

/// `mds`'s store, locked into `held` on first use and kept there;
/// `None`, and no lock, without one.
fn lock_once<'s, 'a>(
    mds: &'a NetMds,
    held: &'s mut Option<MutexGuard<'a, Option<MdsStore>>>,
) -> Option<&'s mut MdsStore> {
    let lock = mds.store.as_ref()?;
    held.get_or_insert_with(|| sync::lock(lock)).as_mut()
}

/// The serving context of one batch of requests on one thread — the
/// one request-in → response-plus-effects-out body behind
/// [`NetMds::serve`], [`NetMds::serve_batch`], [`NetMds::serve_deferred`]
/// and the connection loop.
///
/// What a batch shares is paid once here, not per request. The clock is
/// read twice per scope: when it opens and when it ends. A request only
/// tallies its `[kind][outcome]` lane; when the scope ends, the served
/// and redirect counts are published and every non-empty lane books the
/// batch's duration once per request it holds. [`commit`](Self::commit)
/// ends the scope after its fsync, so that duration — each request's
/// server latency — runs from the batch's read to the point its
/// responses may leave, group-commit wait included. The store mutex is
/// taken at most once — at the first journaled record — and held until
/// the scope ends. Dropping the scope leaves journaled records buffered;
/// only [`commit`](Self::commit) makes them durable.
///
/// The price of the single lock: with a store attached, connections
/// serialise batch by batch from a batch's first journaled record (for
/// most, its first local-layer request) to its commit, where they used
/// to interleave record by record and wait only on each other's fsync.
/// A connection that waits has bumped no popularity count yet, so each
/// root's counts are journaled in bump order; recovery keeps the last.
/// A GL group's update lets go of the store first: no thread holds two.
/// The view is read-locked for the scope; migrations land between.
#[derive(Debug)]
pub struct ServeScope<'a> {
    mds: &'a NetMds,
    routing: RwLockReadGuard<'a, Routing>,
    /// When the scope opened: the batch's start and every `Update`'s
    /// mtime.
    opened: Instant,
    store: Option<MutexGuard<'a, Option<MdsStore>>>,
    /// Requests answered so far, `[kind][outcome]` with outcome
    /// 0 served / 1 redirect / 2 not-found.
    lanes: [[u64; 3]; 3],
    /// The request a slow batch is logged under, with its outcome: the
    /// last one carrying a trace context, or else the last one. `None`
    /// until the scope answers a request.
    named: Option<(Request, u8)>,
}

impl ServeScope<'_> {
    /// Buffers one record in the store's WAL; durability comes from
    /// [`commit`](Self::commit).
    fn journal(&mut self, record: MdsRecord) {
        if let Some(store) = lock_once(self.mds, &mut self.store) {
            store.append_deferred(record).expect("WAL append failed");
        }
    }

    /// Commits an `Update` of `node`: bumps its mtime to the batch's
    /// opening stamp and journals the committed attributes.
    fn commit_update(&mut self, node: NodeId, gl: bool) -> VersionedAttr {
        let mds = self.mds;
        let now_ms = self.opened.duration_since(mds.epoch).as_millis() as u64;
        let committed = sync::write(&mds.attrs).update(node, |a| a.mtime = now_ms);
        self.journal(MdsRecord::AttrCommit {
            node: node.index() as u64,
            gl,
            attr: attr_state(committed),
        });
        committed
    }

    /// Commits an `Update` of global-layer `node`; `false` when the GL
    /// group's lock edge dropped it.
    fn commit_gl_update(&mut self, node: NodeId, serve_span: Option<ServeSpan<'_>>) -> bool {
        let mds = self.mds;
        let Some(group) = &mds.group else {
            // Single-replica global layer: no cross-process lock service
            // exists yet, so the commit is local-only (DESIGN.md §14
            // spells out the divergence risk when several daemons of one
            // cluster run concurrently).
            self.commit_update(node, true);
            return true;
        };
        // Neither wait on the lock service nor write into a sibling's
        // store holding our own: two daemons doing both would deadlock.
        self.store = None;
        group.commit(mds.me, node, serve_span, || {
            let committed = self.commit_update(node, true);
            self.store = None;
            committed
        })
    }

    /// Serves one decoded request. Journaled mutations stay buffered
    /// until [`commit`](Self::commit).
    ///
    /// Never panics on out-of-range targets: a request for a node this
    /// tree does not have answers `NotFound` (a foreign client built
    /// from a different workload derivation must not crash the daemon).
    pub fn serve(&mut self, req: Request) -> Response {
        self.serve_or_drop(req, None)
            .expect("only a GL group's lock edge drops a request")
    }

    /// [`serve`](Self::serve) for a transport with fault edges: the
    /// `serve` span carries `reply_fault`, the fault the reply is about
    /// to meet, and `None` comes back for a request the GL group's lock
    /// edge dropped, which gets no answer.
    pub(crate) fn serve_or_drop(
        &mut self,
        req: Request,
        reply_fault: Option<FaultKind>,
    ) -> Option<Response> {
        let mds = self.mds;
        let serve_span = ServeSpan::open(mds.tracer.as_deref(), &req);
        let (body, outcome) = match duty(&mds.tree, &self.routing.placement, mds.me, req.target) {
            Duty::Replicated => {
                if req.kind == OpKind::Update && !self.commit_gl_update(req.target, serve_span) {
                    return None;
                }
                (ResponseBody::Served { node: req.target }, 0u8)
            }
            Duty::Mine => {
                if req.kind == OpKind::Update {
                    self.commit_update(req.target, false);
                }
                if let Some((slot, root, _)) = self.routing.index.locate_slot(&mds.tree, req.target)
                {
                    // The store is locked before the bump, so counts
                    // reach the journal in the order they were bumped,
                    // whichever connection bumps.
                    let store = lock_once(mds, &mut self.store);
                    let count = &self.routing.counts[slot];
                    let prev = count
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                            Some((f64::from_bits(bits) + 1.0).to_bits())
                        })
                        .expect("the update closure never declines");
                    if let Some(store) = store {
                        store
                            .append_deferred(MdsRecord::Popularity {
                                root: root.index() as u64,
                                bits: (f64::from_bits(prev) + 1.0).to_bits(),
                            })
                            .expect("WAL append failed");
                    }
                }
                (ResponseBody::Served { node: req.target }, 0)
            }
            Duty::Other(owner) => (ResponseBody::Redirect { owner }, 1),
            Duty::Unknown => (ResponseBody::NotFound, 2),
        };
        self.lanes[kind_index(req.kind)][usize::from(outcome)] += 1;
        if req.trace.is_some() || self.named.is_none_or(|(n, _)| n.trace.is_none()) {
            self.named = Some((req, outcome));
        }
        if let Some(sp) = serve_span {
            let mut span = sp
                .close(mds.me, req.target)
                .with_arg(ArgKey::Body, u64::from(outcome));
            span.fault = reply_fault;
            sp.tracer.record(span);
        }
        Some(Response {
            id: req.id,
            from: mds.me,
            body,
            hops: req.hops,
        })
    }

    /// Ends the scope with one group-committed fsync covering every
    /// record journaled so far (this scope's and any left buffered by
    /// earlier uncommitted ones); responses may be acknowledged once
    /// this returns. The scope ends after the fsync, so its requests'
    /// server latency includes it.
    pub fn commit(mut self) {
        let mut guard = self.store.take().or_else(|| self.mds.lock_store());
        if let Some(store) = guard.as_deref_mut().and_then(Option::as_mut) {
            if store.pending_bytes() > 0 {
                store.sync().expect("WAL sync failed");
                self.mds.wal_group_commits.inc();
            }
        }
    }
}

impl Drop for ServeScope<'_> {
    /// Publishes the batch: counts, one latency booking per non-empty
    /// lane and at most one slow-log entry. A scope that answered
    /// nothing publishes nothing and skips the closing clock read.
    fn drop(&mut self) {
        let Some((req, outcome)) = self.named else {
            return;
        };
        let mds = self.mds;
        let batch_us = self.opened.elapsed().as_micros() as u64;
        let [served, redirects] = [0, 1].map(|o| self.lanes.iter().map(|row| row[o]).sum());
        if served > 0 {
            mds.served_total.add(served);
        }
        if redirects > 0 {
            mds.forwarded_total.add(redirects);
        }
        for (hists, counts) in mds.srv_latency.iter().zip(&self.lanes) {
            for (hist, &n) in hists.iter().zip(counts) {
                hist.record_n(batch_us, n);
            }
        }
        if mds.slow.admits(batch_us) {
            mds.slow.observe(SlowEntry {
                dur_us: batch_us,
                t_us: mds.registry.uptime_us(),
                kind: req.kind,
                target: req.target.index() as u64,
                outcome,
                trace: req.trace.map(|(t, _)| t),
            });
        }
    }
}

/// The accept-loop/shutdown machinery shared by the frame-codec
/// [`NetServer`] and the admin plane's HTTP listener
/// ([`crate::admin::AdminServer`]): a bound listener, an accept thread
/// spawning one handler thread per connection, and graceful shutdown
/// via a stop flag plus a self-connect wake of the blocking accept.
///
/// The handler runs on its own thread and receives the shared stop
/// flag; it is expected to poll the flag (via a socket read timeout)
/// so shutdown completes within one poll interval.
#[derive(Debug)]
pub(crate) struct AcceptLoop {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl AcceptLoop {
    /// Binds `addr` (port 0 for ephemeral) and starts accepting;
    /// `handler` runs per connection on a dedicated thread.
    pub(crate) fn spawn<A, F>(
        addr: A,
        poll_interval: Duration,
        handler: F,
    ) -> io::Result<AcceptLoop>
    where
        A: ToSocketAddrs,
        F: Fn(TcpStream, &AtomicBool) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_handle = {
            let stop = Arc::clone(&stop);
            let handler = Arc::new(handler);
            std::thread::spawn(move || {
                let mut handles: Vec<JoinHandle<()>> = Vec::new();
                loop {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            if stop.load(Ordering::SeqCst) {
                                break; // the shutdown wake-up connect, or a racer
                            }
                            let handler = Arc::clone(&handler);
                            let stop = Arc::clone(&stop);
                            handles.push(std::thread::spawn(move || handler(stream, &stop)));
                        }
                        Err(_) if stop.load(Ordering::SeqCst) => break,
                        Err(_) => {
                            // Transient accept failure (e.g. fd exhaustion):
                            // don't spin the core; the listener is alive.
                            std::thread::sleep(poll_interval);
                        }
                    }
                }
                handles
            })
        };
        Ok(AcceptLoop {
            addr,
            stop,
            accept_handle: Some(accept_handle),
        })
    }

    /// The address actually bound (resolves port 0).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The stop flag shared with every handler thread, for sibling
    /// threads (e.g. a sampling ticker) that must stop with the server.
    pub(crate) fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Stops accepting and drains every handler thread. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if the accept loop or a handler thread panicked.
    pub(crate) fn stop_and_join(&mut self) {
        let Some(handle) = self.accept_handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept; a refused connect is fine too (the
        // listener may already be gone if its thread errored out).
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        let conn_handles = handle.join().expect("accept thread panicked");
        for h in conn_handles {
            h.join().expect("connection thread panicked");
        }
    }
}

impl Drop for AcceptLoop {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Read timeout on serving and admin sockets, which doubles as the
/// stop-flag poll granularity: the default of
/// [`NetServerConfig::poll_interval`] and the admin plane's fixed one.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Tuning of a [`NetServer`].
#[derive(Debug, Clone, Copy)]
pub struct NetServerConfig {
    /// Read timeout on connection sockets, which doubles as the stop-flag
    /// poll granularity: a shutdown completes within roughly one interval.
    pub poll_interval: Duration,
    /// Per-frame body-size cap (see [`MAX_FRAME_BYTES`]).
    pub max_frame: usize,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            poll_interval: POLL_INTERVAL,
            max_frame: MAX_FRAME_BYTES,
        }
    }
}

/// Totals a [`NetServer`] accumulated over its lifetime, reported by
/// [`NetServer::shutdown`]. Values are read from the shared registry's
/// `net_*` counters, so when several servers share one registry these
/// are registry-wide totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetServerStats {
    /// Connections accepted.
    pub conns: u64,
    /// Frames read off or written onto connections.
    pub frames: u64,
    /// Frames that failed to decode (connection then dropped).
    pub decode_errors: u64,
    /// Connections ending in an I/O error or mid-frame EOF.
    pub conn_resets: u64,
    /// Request batches served (one batch = every complete frame drained
    /// from one read, served together).
    pub batches: u64,
}

#[derive(Debug, Clone)]
struct NetCounters {
    conns: Arc<Counter>,
    frames: Arc<Counter>,
    decode_errors: Arc<Counter>,
    resets: Arc<Counter>,
    batches: Arc<Counter>,
    batch_depth: Arc<Histogram>,
}

impl NetCounters {
    fn from_registry(registry: &Registry) -> Self {
        NetCounters {
            conns: registry.counter(MetricKey::global(names::NET_CONNS_TOTAL)),
            frames: registry.counter(MetricKey::global(names::NET_FRAMES_TOTAL)),
            decode_errors: registry.counter(MetricKey::global(names::NET_DECODE_ERRORS_TOTAL)),
            resets: registry.counter(MetricKey::global(names::NET_CONN_RESETS_TOTAL)),
            batches: registry.counter(MetricKey::global(names::NET_BATCHES_TOTAL)),
            batch_depth: registry.histogram(MetricKey::global(names::NET_BATCH_DEPTH)),
        }
    }
}

/// A blocking thread-per-connection TCP server fronting one [`NetMds`].
#[derive(Debug)]
pub struct NetServer {
    acceptor: AcceptLoop,
    counters: NetCounters,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop. Each accepted connection gets its own handler thread
    /// running, per batch, read → (decode in place →
    /// [`ServeScope::serve`] → encode into the write buffer)… →
    /// [`ServeScope::commit`] → one write, until the peer closes, an
    /// error poisons the connection, or the server shuts down.
    ///
    /// # Errors
    ///
    /// Propagates bind failures (address in use, permission denied).
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        mds: Arc<NetMds>,
        config: NetServerConfig,
    ) -> io::Result<NetServer> {
        let counters = NetCounters::from_registry(mds.registry());
        let active = mds
            .registry()
            .gauge(MetricKey::global(names::NET_ACTIVE_CONNS));
        let acceptor = {
            let counters = counters.clone();
            AcceptLoop::spawn(addr, config.poll_interval, move |stream, stop| {
                counters.conns.inc();
                active.add(1);
                conn_main(stream, &mds, &counters, stop, config);
                active.sub(1);
            })?
        };
        Ok(NetServer { acceptor, counters })
    }

    /// The address the server actually bound (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.acceptor.local_addr()
    }

    /// Stops accepting, drains every connection handler (each notices the
    /// stop flag within one poll interval), and reports totals.
    ///
    /// # Panics
    ///
    /// Panics if the accept loop or a connection handler panicked.
    #[must_use]
    pub fn shutdown(mut self) -> NetServerStats {
        self.acceptor.stop_and_join();
        NetServerStats {
            conns: self.counters.conns.get(),
            frames: self.counters.frames.get(),
            decode_errors: self.counters.decode_errors.get(),
            conn_resets: self.counters.resets.get(),
            batches: self.counters.batches.get(),
        }
    }
}

/// One connection's serve loop, batch-oriented: every complete frame
/// the last read left buffered is decoded straight out of the read
/// buffer, served inside one [`ServeScope`] (one group-committed fsync
/// for the whole batch's mutations) and its response encoded straight
/// into the reused write buffer, which goes back in a single write. A
/// non-pipelining client degenerates to batches of one; a pipelining
/// client amortises syscalls and fsyncs across its window. Nothing is
/// allocated per request or, once the buffers have grown, per batch.
///
/// Errors are isolated here: whatever goes wrong, this thread cleans up
/// its own socket and exits without touching the listener or any
/// sibling connection.
fn conn_main(
    stream: TcpStream,
    mds: &NetMds,
    counters: &NetCounters,
    stop: &AtomicBool,
    config: NetServerConfig,
) {
    let _ = stream.set_nodelay(true);
    // The read timeout doubles as the stop-flag poll interval.
    let _ = stream.set_read_timeout(Some(config.poll_interval));
    let Ok(read_half) = stream.try_clone() else {
        counters.resets.inc();
        return;
    };
    let mut reader = FrameReader::new(read_half, config.max_frame);
    let mut write_half = stream;
    let mut out: Vec<u8> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match reader.fill() {
            Ok(true) => {}
            Ok(false) => break, // clean close at a frame boundary
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue; // poll tick: re-check the stop flag
            }
            Err(e) => {
                if e.kind() == io::ErrorKind::InvalidData {
                    counters.decode_errors.inc();
                } else {
                    counters.resets.inc();
                }
                break;
            }
        }
        out.clear();
        let (mut read, mut served) = (0u64, 0u64);
        let mut scope = mds.begin_batch();
        // Drain what that read buffered; no more syscalls. An oversized
        // length prefix mid-batch ends the drain: the good frames ahead
        // of it are served now and the next `fill` surfaces the error.
        while let Ok(Some(frame)) = reader.buffered_frame() {
            read += 1;
            let Some(req) = Request::decode_frame(frame) else {
                // A byte stream cannot re-synchronise past a bad frame;
                // serve the valid prefix of the batch, then drop the
                // connection, keep the server.
                counters.decode_errors.inc();
                break;
            };
            scope.serve(req).encode_into(&mut out);
            served += 1;
        }
        // Responses acknowledge durable state: commit, then write.
        scope.commit();
        counters.frames.add(read);
        counters.batches.inc();
        counters.batch_depth.record(read);
        if !out.is_empty() && write_half.write_all(&out).is_err() {
            counters.resets.inc();
            break;
        }
        counters.frames.add(served);
        if served < read {
            break; // poisoned by the frame that failed to decode
        }
    }
}

/// A blocking client connection: one outstanding request at a time over
/// one TCP stream, speaking the same frame codec as the server.
#[derive(Debug)]
pub struct NetClient {
    write_half: TcpStream,
    reader: FrameReader<TcpStream>,
    /// Encode buffer of [`send_batch`](Self::send_batch), reused.
    send_buf: Vec<u8>,
}

impl NetClient {
    /// Connects to `addr` (a `host:port` string) with `timeout` bounding
    /// both the connect and each subsequent read.
    ///
    /// # Errors
    ///
    /// Propagates resolution and connect failures; an unresolvable
    /// address reports [`io::ErrorKind::InvalidInput`].
    pub fn connect(addr: &str, timeout: Duration) -> io::Result<NetClient> {
        let sockaddr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "address resolved empty"))?;
        let stream = TcpStream::connect_timeout(&sockaddr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let read_half = stream.try_clone()?;
        Ok(NetClient {
            write_half: stream,
            reader: FrameReader::new(read_half, MAX_FRAME_BYTES),
            send_buf: Vec::new(),
        })
    }

    /// Sends one request and blocks for its response frame.
    ///
    /// After any error the connection must be discarded: a late response
    /// to a timed-out request would desync the request/response pairing.
    ///
    /// # Errors
    ///
    /// * `TimedOut` / `WouldBlock` — no response within the read timeout.
    /// * [`io::ErrorKind::UnexpectedEof`] — the server closed on us.
    /// * [`io::ErrorKind::InvalidData`] — the response failed to decode.
    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        self.send_batch(std::slice::from_ref(req))?;
        self.recv()
    }

    /// Writes every request as one contiguous buffered write — a
    /// pipelining client's whole window leaves in a single syscall and
    /// typically lands in a single server-side read, which is what lets
    /// the server serve it as one batch. Responses come back in request
    /// order via [`recv`](Self::recv), one call per request.
    ///
    /// # Errors
    ///
    /// Propagates write failures; the connection must then be discarded.
    pub fn send_batch(&mut self, reqs: &[Request]) -> io::Result<()> {
        self.send_buf.clear();
        for req in reqs {
            req.encode_into(&mut self.send_buf);
        }
        self.write_half.write_all(&self.send_buf)
    }

    /// Blocks for the next response frame.
    ///
    /// After any error the connection must be discarded: a late response
    /// to a timed-out request would desync the request/response pairing.
    ///
    /// # Errors
    ///
    /// * `TimedOut` / `WouldBlock` — no response within the read timeout.
    /// * [`io::ErrorKind::UnexpectedEof`] — the server closed on us.
    /// * [`io::ErrorKind::InvalidData`] — the response failed to decode.
    pub fn recv(&mut self) -> io::Result<Response> {
        match self.reader.next_frame()? {
            Some(frame) => Response::decode_frame(frame).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    "response frame failed to decode",
                )
            }),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
        }
    }
}

/// How [`run_load`] paces its workers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// Each worker issues its next operation the moment the previous one
    /// completes — measures peak sustainable throughput.
    Closed,
    /// Operations are released on a fixed schedule targeting this many
    /// operations per second across all workers; latency is measured
    /// from the *scheduled* send time, so a server falling behind shows
    /// up as queueing delay instead of being silently omitted.
    Open {
        /// Aggregate target rate, operations per second.
        target_qps: f64,
    },
}

/// Configuration of one [`run_load`] run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server addresses indexed by `MdsId` (`addrs[k]` serves MDS `k`).
    /// Owners beyond the list wrap modulo its length, so a single
    /// address can absorb a multi-MDS derivation for smoke tests.
    pub addrs: Vec<String>,
    /// Concurrent worker connections.
    pub conns: usize,
    /// Operations to issue in total (the trace is cycled if shorter).
    pub ops: usize,
    /// Closed- or open-loop pacing.
    pub mode: LoadMode,
    /// Per-attempt connect/read/write timeout.
    pub timeout: Duration,
    /// Retry budget, backoff and deadline shared with the live cluster.
    pub retry: RetryPolicy,
    /// Seed for per-worker routing/backoff randomness.
    pub seed: u64,
    /// Requests each worker may have in flight on one connection (≥ 1).
    ///
    /// A worker writes up to this many consecutive same-destination
    /// operations that are due in one buffered write and reads the
    /// responses back in order; at 1 that is strictly request/response.
    /// In a closed loop every operation is due at once, so windows are
    /// full; in an open loop one is due at its scheduled time, so a
    /// window holds more than one only while the worker is behind its
    /// schedule. Latency stays per-operation, measured from the issue
    /// (closed) or scheduled (open) time of *that* operation, so
    /// pipelining adds no coordinated omission. An operation its first
    /// attempt does not end (redirect, not-found, transport error) makes
    /// its further attempts one at a time once the window has drained.
    pub pipeline: usize,
}

/// What one [`run_load`] run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Operations issued (completed + errors).
    pub attempted: u64,
    /// Operations that completed with a `Served` response.
    pub completed: u64,
    /// Operations that failed after exhausting their retry policy.
    pub errors: u64,
    /// Errors that were [`ClientError::Timeout`] (no server ever responded).
    pub timeouts: u64,
    /// Errors that were [`ClientError::RetriesExhausted`].
    pub retries_exhausted: u64,
    /// Errors that were [`ClientError::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Errors that were [`ClientError::NotFound`].
    pub not_found: u64,
    /// Redirect responses followed to the advertised owner.
    pub redirects_followed: u64,
    /// Connections dropped (timeout, reset, desync) and later reopened.
    pub reconnects: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// `completed / elapsed`, operations per second.
    pub achieved_qps: f64,
    /// End-to-end latency of completed operations, microseconds.
    pub latency: HistogramSnapshot,
}

#[derive(Debug, Default, Clone, Copy)]
struct WorkerStats {
    attempted: u64,
    completed: u64,
    errors: u64,
    timeouts: u64,
    retries_exhausted: u64,
    deadline_exceeded: u64,
    not_found: u64,
    redirects: u64,
    reconnects: u64,
}

/// One operation between its first attempt and its end: its request
/// machine and `t0`, the origin of its latency — the moment it was
/// issued (closed loop) or was scheduled to be (open loop), so that
/// queueing behind the schedule, redirect chases and retries all count.
struct Inflight<'a> {
    machine: RequestMachine<'a>,
    t0: Instant,
}

/// One load worker: its connections, its routing and retry state, and
/// where it books results.
struct LoadWorker<'a> {
    addrs: &'a [String],
    conns: Vec<Option<NetClient>>,
    tree: &'a NamespaceTree,
    index: &'a LocalIndex,
    timeout: Duration,
    retry: RetryPolicy,
    rng: StdRng,
    tracer: Option<&'a Tracer>,
    counters: NetCounters,
    hist: &'a Histogram,
    op_latency: Arc<Histogram>,
    stats: WorkerStats,
    next_id: u64,
}

impl<'a> LoadWorker<'a> {
    /// Maps an owner id onto an address slot (wrapping, see
    /// [`LoadConfig::addrs`]).
    fn slot(&self, owner: MdsId) -> usize {
        owner.index() % self.addrs.len()
    }

    /// Routes one operation at a server slot — the located owner's, or
    /// a random one for global-layer targets any MDS can serve — and
    /// says which it was as a [`RouteDecision`] code.
    fn route(&mut self, op: Operation) -> (usize, u64) {
        match self.index.locate(self.tree, op.target) {
            Some((_, owner)) => (self.slot(owner), 0),
            None => (self.rng.gen_range(0..self.addrs.len()), 1),
        }
    }

    /// Forgets a connection whose request/response pairing is gone —
    /// a late answer to an abandoned request would pair with the wrong
    /// one — so that its replacement starts clean.
    fn drop_conn(&mut self, dest: usize) {
        self.counters.resets.inc();
        self.conns[dest] = None;
        self.stats.reconnects += 1;
    }

    /// Writes `reqs` to `dest` in one buffered write, connecting first
    /// if need be. `false` means none of them will be answered: the
    /// server is unreachable (down, or not listening yet) or the write
    /// failed.
    fn send(&mut self, dest: usize, reqs: &[Request]) -> bool {
        if self.conns[dest].is_none() {
            let Ok(conn) = NetClient::connect(&self.addrs[dest], self.timeout) else {
                return false;
            };
            self.counters.conns.inc();
            self.conns[dest] = Some(conn);
        }
        self.counters.frames.add(reqs.len() as u64);
        let conn = self.conns[dest].as_mut().expect("just ensured");
        let sent = conn.send_batch(reqs).is_ok();
        if !sent {
            self.drop_conn(dest);
        }
        sent
    }

    /// Reads the answer to request `id`, the oldest outstanding on
    /// `dest`'s connection.
    fn recv(&mut self, dest: usize, id: RequestId) -> Outcome {
        let Some(conn) = self.conns[dest].as_mut() else {
            // An earlier answer of the same window took the connection
            // down, and this one with it.
            return Outcome::Lost;
        };
        match conn.recv() {
            Ok(resp) if resp.id == id => {
                self.counters.frames.inc();
                resp.into()
            }
            other => {
                // A desynced stream (an id that is not ours), or a
                // timeout, reset or garble: same cure.
                self.drop_conn(dest);
                if other.is_ok() {
                    Outcome::Lost
                } else {
                    Outcome::TimedOut
                }
            }
        }
    }

    /// Reports how `inf`'s attempt in flight ended.
    fn feed(&mut self, inf: &mut Inflight<'a>, outcome: Outcome) -> Step {
        self.stats.redirects += u64::from(matches!(outcome, Outcome::Redirect(_)));
        inf.machine
            .outcome(outcome, None, Instant::now(), &mut self.rng)
    }

    /// Takes an operation from the step its last attempt led to
    /// through to its end, one attempt at a time, and books the result:
    /// a served response records its latency from `t0`, an error lands
    /// in the taxonomy.
    fn finish(&mut self, mut inf: Inflight<'a>, mut step: Step) {
        let result = loop {
            let (backoff, forced) = match step {
                Step::Done(result) => break result,
                Step::Again { backoff, forced } => (backoff, forced),
            };
            if let Some(pause) = backoff {
                std::thread::sleep(pause);
            }
            let (dest, route) = match forced {
                Some(owner) => (self.slot(owner), RouteDecision::REDIRECT_CODE),
                None => self.route(inf.machine.op()),
            };
            let req = inf.machine.attempt(dest as u16, route);
            let outcome = if self.send(dest, &[req]) {
                self.recv(dest, req.id)
            } else {
                Outcome::TimedOut
            };
            step = self.feed(&mut inf, outcome);
        };
        match result {
            Ok(_) => {
                let us = inf.t0.elapsed().as_micros() as u64;
                self.hist.record(us);
                self.op_latency.record(us);
                self.stats.completed += 1;
            }
            Err(e) => {
                self.stats.errors += 1;
                match e {
                    ClientError::Timeout { .. } => self.stats.timeouts += 1,
                    ClientError::RetriesExhausted { .. } => self.stats.retries_exhausted += 1,
                    ClientError::DeadlineExceeded { .. } => self.stats.deadline_exceeded += 1,
                    ClientError::NotFound => self.stats.not_found += 1,
                }
            }
        }
    }

    /// The worker body: operations `first`, `first + stride`, … of
    /// `ops`, each making its first attempt through a window of at most
    /// `pipeline` requests in flight on one connection.
    ///
    /// A window is the run of operations that are due by now and routed
    /// at one server: written in one buffered write, answered in order.
    /// In a closed loop (`interval` is `None`) every operation is due
    /// the moment the previous window has drained; in an open loop the
    /// `k`-th is due at `started + k * interval`, the worker sleeps
    /// until the first of a window is, and a window grows past one only
    /// when the worker has fallen behind its schedule. An operation
    /// that its first attempt does not end (a redirect, a not-found, a
    /// lost connection) goes on in the same machine — redirect hint,
    /// hop count, trace context, budgets and `t0` kept — once the
    /// window has drained, since its next attempt may need this
    /// connection.
    fn run(
        &mut self,
        ops: &[Operation],
        first: usize,
        stride: usize,
        pipeline: usize,
        interval: Option<Duration>,
        started: Instant,
    ) {
        let due = |k: u32| interval.map(|iv| started + iv * k);
        let mut window: Vec<Inflight<'a>> = Vec::with_capacity(pipeline);
        let mut reqs: Vec<Request> = Vec::with_capacity(pipeline);
        let mut unfinished: Vec<(Inflight<'a>, Step)> = Vec::new();
        // The route of `ops[i]`, when the last window stopped at it.
        let mut routed = None;
        let (mut i, mut k) = (first, 0u32);
        while i < ops.len() {
            let (dest, mut route) = routed.take().unwrap_or_else(|| self.route(ops[i]));
            if let Some(wait) = due(k).and_then(|at| at.checked_duration_since(Instant::now())) {
                std::thread::sleep(wait);
            }
            loop {
                let now = Instant::now();
                let id = RequestId(self.next_id);
                self.next_id += 1;
                let mut inf = Inflight {
                    machine: RequestMachine::new(id, ops[i], self.retry, now, self.tracer),
                    t0: due(k).unwrap_or(now),
                };
                reqs.push(inf.machine.attempt(dest as u16, route));
                window.push(inf);
                i += stride;
                k += 1;
                if i >= ops.len() || window.len() == pipeline || due(k).is_some_and(|at| at > now) {
                    break;
                }
                let next = self.route(ops[i]);
                if next.0 != dest {
                    routed = Some(next);
                    break;
                }
                route = next.1;
            }
            self.stats.attempted += window.len() as u64;
            let sent = self.send(dest, &reqs);
            for (mut inf, req) in window.drain(..).zip(reqs.drain(..)) {
                let outcome = if sent {
                    self.recv(dest, req.id)
                } else {
                    Outcome::TimedOut
                };
                match self.feed(&mut inf, outcome) {
                    done @ Step::Done(_) => self.finish(inf, done),
                    again => unfinished.push((inf, again)),
                }
            }
            for (inf, step) in unfinished.drain(..) {
                self.finish(inf, step);
            }
        }
    }
}

/// Drives `cfg.ops` operations from `trace` against the servers at
/// `cfg.addrs` over `cfg.conns` concurrent connections, routing each
/// operation at its owner through `index` (derived client-side from the
/// same workload flags the servers were started with).
///
/// Completed-operation latencies land in the returned report's
/// histogram *and* in the registry's `op_latency_us` histogram; the
/// `net_*` counters account connections, frames and resets.
///
/// # Panics
///
/// Panics if `cfg.addrs` is empty, `cfg.conns` is zero, the trace is
/// empty while `cfg.ops > 0`, or a worker thread panics.
#[must_use]
pub fn run_load(
    cfg: &LoadConfig,
    tree: &Arc<NamespaceTree>,
    index: &LocalIndex,
    trace: &Trace,
    registry: &Arc<Registry>,
    tracer: Option<&Arc<Tracer>>,
) -> LoadReport {
    assert!(!cfg.addrs.is_empty(), "load needs at least one server");
    assert!(cfg.conns >= 1, "load needs at least one connection");
    assert!(cfg.pipeline >= 1, "pipeline depth must be at least 1");
    assert!(
        cfg.ops == 0 || !trace.is_empty(),
        "load needs a non-empty trace"
    );
    let ops: Vec<Operation> = (0..cfg.ops).map(|i| trace.ops()[i % trace.len()]).collect();
    let hist = Histogram::new();
    let op_latency = registry.histogram(MetricKey::global(names::OP_LATENCY_US));
    let counters = NetCounters::from_registry(registry);
    let interval = match cfg.mode {
        LoadMode::Closed => None,
        LoadMode::Open { target_qps } => {
            assert!(
                target_qps > 0.0,
                "open-loop load needs a positive target QPS"
            );
            Some(Duration::from_secs_f64(cfg.conns as f64 / target_qps))
        }
    };
    let started = Instant::now();
    let worker_stats: Vec<WorkerStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.conns)
            .map(|w| {
                let ops = &ops;
                let hist = &hist;
                let op_latency = Arc::clone(&op_latency);
                let counters = counters.clone();
                let tracer = tracer.map(Arc::as_ref);
                s.spawn(move || {
                    let mut worker = LoadWorker {
                        addrs: &cfg.addrs,
                        conns: (0..cfg.addrs.len()).map(|_| None).collect(),
                        tree,
                        index,
                        timeout: cfg.timeout,
                        retry: cfg.retry,
                        rng: StdRng::seed_from_u64(
                            cfg.seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(w as u64 + 1),
                        ),
                        tracer,
                        counters,
                        hist,
                        op_latency,
                        stats: WorkerStats::default(),
                        // Ids unique across workers so a desynced frame
                        // can never pair with another worker's request.
                        next_id: (w as u64) << 48 | 1,
                    };
                    worker.run(ops, w, cfg.conns, cfg.pipeline, interval, started);
                    worker.stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load worker panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    let mut total = WorkerStats::default();
    for ws in &worker_stats {
        total.attempted += ws.attempted;
        total.completed += ws.completed;
        total.errors += ws.errors;
        total.timeouts += ws.timeouts;
        total.retries_exhausted += ws.retries_exhausted;
        total.deadline_exceeded += ws.deadline_exceeded;
        total.not_found += ws.not_found;
        total.redirects += ws.redirects;
        total.reconnects += ws.reconnects;
    }
    let achieved_qps = if elapsed.as_secs_f64() > 0.0 {
        total.completed as f64 / elapsed.as_secs_f64()
    } else {
        0.0
    };
    LoadReport {
        attempted: total.attempted,
        completed: total.completed,
        errors: total.errors,
        timeouts: total.timeouts,
        retries_exhausted: total.retries_exhausted,
        deadline_exceeded: total.deadline_exceeded,
        not_found: total.not_found,
        redirects_followed: total.redirects,
        reconnects: total.reconnects,
        elapsed,
        achieved_qps,
        latency: hist.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2tree_metrics::Assignment;
    use d2tree_namespace::NodeKind;

    impl NetMds {
        /// Updates `node` behind the journal's back, for tests of the
        /// check that catches it.
        pub(crate) fn update_unjournaled(&self, node: NodeId) {
            sync::write(&self.attrs).update(node, |a| a.size = 1);
        }
    }

    /// The served-op count under index root `root`, if `mds` keeps one.
    fn subtree_count(mds: &NetMds, root: NodeId) -> Option<f64> {
        let routing = sync::read(&mds.routing);
        let (_, count) = routing.counters().find(|&(r, _)| r == root)?;
        Some(f64::from_bits(count.load(Ordering::Relaxed)))
    }

    fn request_frame(id: u64, target: u32) -> Vec<u8> {
        Request {
            id: RequestId(id),
            kind: OpKind::Read,
            target: NodeId::from_index(target as usize),
            hops: 0,
            trace: None,
        }
        .encode()
        .to_vec()
    }

    #[test]
    fn frame_buf_reassembles_split_frames() {
        let a = request_frame(1, 0);
        let b = request_frame(2, 7);
        let mut stream = Vec::new();
        stream.extend_from_slice(&a);
        stream.extend_from_slice(&b);
        // Feed in ragged chunks of 3 bytes.
        let mut fb = FrameBuf::new(MAX_FRAME_BYTES);
        let mut out = Vec::new();
        for chunk in stream.chunks(3) {
            fb.extend(chunk);
            while let Some(frame) = fb.next_slice().unwrap() {
                out.push(frame.to_vec());
            }
        }
        assert_eq!(out, vec![a.clone(), b]);
        assert_eq!(fb.pending(), 0);
        // The owned variant hands out the same bytes.
        fb.extend(&a);
        assert_eq!(fb.next_frame().unwrap().expect("complete")[..], a[..]);
    }

    #[test]
    fn frame_buf_rejects_oversize_length_prefix() {
        let mut fb = FrameBuf::new(1024);
        fb.extend(&u32::MAX.to_be_bytes());
        let err = fb.next_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn frame_buf_accepts_frame_exactly_at_cap() {
        let mut fb = FrameBuf::new(8);
        fb.extend(&8u32.to_be_bytes());
        fb.extend(&[0xAB; 8]);
        let frame = fb.next_frame().unwrap().expect("complete frame");
        assert_eq!(frame.len(), 12);
    }

    /// A reader that returns one byte per `read` call — the worst case a
    /// TCP stack can legally deliver.
    struct OneByteReader {
        data: Vec<u8>,
        pos: usize,
    }

    impl Read for OneByteReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn frame_reader_reassembles_one_byte_at_a_time() {
        let a = request_frame(9, 3);
        let b = request_frame(10, 4);
        let mut data = Vec::new();
        data.extend_from_slice(&a);
        data.extend_from_slice(&b);
        let mut reader = FrameReader::new(OneByteReader { data, pos: 0 }, MAX_FRAME_BYTES);
        let first = reader.next_frame().unwrap().expect("first frame");
        assert_eq!(first.to_vec(), a);
        // The reassembled frame decodes to the original request.
        let req = Request::decode_frame(first).expect("decodes");
        assert_eq!(req.id, RequestId(9));
        let second = reader.next_frame().unwrap().expect("second frame");
        assert_eq!(second.to_vec(), b);
        assert!(reader.next_frame().unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn frame_reader_mid_frame_eof_is_unexpected_eof() {
        let mut data = request_frame(1, 0);
        data.truncate(data.len() - 1); // peer died one byte short
        let mut reader = FrameReader::new(OneByteReader { data, pos: 0 }, MAX_FRAME_BYTES);
        let err = reader.next_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn frame_reader_empty_stream_is_clean_eof() {
        let mut reader = FrameReader::new(
            OneByteReader {
                data: Vec::new(),
                pos: 0,
            },
            MAX_FRAME_BYTES,
        );
        assert!(reader.next_frame().unwrap().is_none());
    }

    /// Smallest possible end-to-end check kept module-local; the real
    /// loopback suites live in `tests/net_serve.rs`.
    #[test]
    fn loopback_single_request_roundtrip() {
        let mut tree = NamespaceTree::new();
        let sub = tree
            .create(tree.root(), "s", NodeKind::Directory)
            .expect("create");
        let tree = Arc::new(tree);
        let mut placement = Placement::new(&tree, 1);
        for (id, _) in tree.nodes() {
            placement.set(id, Assignment::Single(MdsId(0)));
        }
        let mut index = LocalIndex::new();
        index.insert(tree.root(), MdsId(0));
        let registry = Arc::new(Registry::new());
        let mds = Arc::new(NetMds::new(
            Arc::clone(&tree),
            placement,
            index,
            MdsId(0),
            registry,
        ));
        let server = NetServer::bind("127.0.0.1:0", Arc::clone(&mds), NetServerConfig::default())
            .expect("bind");
        let addr = server.local_addr().to_string();
        let mut client = NetClient::connect(&addr, Duration::from_secs(2)).expect("connect");
        let resp = client
            .call(&Request {
                id: RequestId(42),
                kind: OpKind::Read,
                target: sub,
                hops: 0,
                trace: None,
            })
            .expect("call");
        assert_eq!(resp.id, RequestId(42));
        assert_eq!(resp.body, ResponseBody::Served { node: sub });
        drop(client);
        let stats = server.shutdown();
        assert_eq!(stats.conns, 1);
        assert!(stats.frames >= 2, "one request + one response");
        assert_eq!(stats.decode_errors, 0);
        assert_eq!(mds.served(), 1);
    }

    /// The existence check reads the tree, not the index: an id past
    /// the arena answers `NotFound` even where the index names an owner
    /// for it, and does not count as served.
    #[test]
    fn out_of_range_targets_answer_not_found() {
        let mut tree = NamespaceTree::new();
        let kept = tree
            .create(tree.root(), "kept", NodeKind::Directory)
            .expect("create");
        let mut placement = Placement::new(&tree, 1);
        for (id, _) in tree.nodes() {
            placement.set(id, Assignment::Single(MdsId(0)));
        }
        let beyond = NodeId::from_index(tree.arena_size());
        let tree = Arc::new(tree);
        let mut index = LocalIndex::new();
        index.insert(kept, MdsId(0));
        index.insert(beyond, MdsId(0));
        let mds = NetMds::new(
            Arc::clone(&tree),
            placement,
            index,
            MdsId(0),
            Arc::new(Registry::new()),
        );
        let ask = |target: NodeId| {
            mds.serve(Request {
                id: RequestId(target.index() as u64),
                kind: OpKind::Update,
                target,
                hops: 0,
                trace: None,
            })
            .body
        };
        assert_eq!(ask(beyond), ResponseBody::NotFound);
        assert_eq!(
            ask(NodeId::from_index(u32::MAX as usize)),
            ResponseBody::NotFound
        );
        assert_eq!(mds.served(), 0);
        assert_eq!(ask(kept), ResponseBody::Served { node: kept });
        assert_eq!(mds.served(), 1);
    }

    /// An embedder that serves a clone of the tree its index was
    /// labelled over still gets the table, not the walk.
    #[test]
    fn a_daemon_relabels_an_index_built_over_another_tree() {
        let mut tree = NamespaceTree::new();
        let dir = tree
            .create(tree.root(), "dir", NodeKind::Directory)
            .expect("create");
        let mut placement = Placement::new(&tree, 1);
        for (id, _) in tree.nodes() {
            placement.set(id, Assignment::Single(MdsId(0)));
        }
        let mut index = LocalIndex::new();
        index.insert(dir, MdsId(0));
        index.relabel(&tree);
        let served = Arc::new(tree.clone());
        assert!(index.labelled_for(&tree) && !index.labelled_for(&served));
        let mds = NetMds::new(
            served,
            placement,
            index,
            MdsId(0),
            Arc::new(Registry::new()),
        );
        assert!(mds.view().1.labelled_for(&mds.tree));
    }

    #[test]
    fn garbage_frame_drops_connection_not_server() {
        let tree = Arc::new(NamespaceTree::new());
        let mut placement = Placement::new(&tree, 1);
        for (id, _) in tree.nodes() {
            placement.set(id, Assignment::Single(MdsId(0)));
        }
        let registry = Arc::new(Registry::new());
        let mds = Arc::new(NetMds::new(
            Arc::clone(&tree),
            placement,
            LocalIndex::new(),
            MdsId(0),
            registry,
        ));
        let server = NetServer::bind("127.0.0.1:0", Arc::clone(&mds), NetServerConfig::default())
            .expect("bind");
        let addr = server.local_addr().to_string();
        // First connection sends garbage with a plausible length prefix:
        // the decoder rejects it and the server drops just this conn.
        {
            let mut bad = NetClient::connect(&addr, Duration::from_secs(2)).expect("connect");
            let mut junk = Vec::new();
            junk.extend_from_slice(&10u32.to_be_bytes());
            junk.extend_from_slice(&[0xFF; 10]);
            bad.write_half.write_all(&junk).expect("write junk");
            // The server closes on us; the next read sees EOF (or a
            // reset, depending on timing) rather than hanging.
            let err = bad.call(&Request {
                id: RequestId(1),
                kind: OpKind::Read,
                target: tree.root(),
                hops: 0,
                trace: None,
            });
            assert!(err.is_err(), "poisoned connection must not answer");
        }
        // A fresh connection still gets served.
        let mut good = NetClient::connect(&addr, Duration::from_secs(2)).expect("connect");
        let resp = good
            .call(&Request {
                id: RequestId(2),
                kind: OpKind::Read,
                target: tree.root(),
                hops: 0,
                trace: None,
            })
            .expect("server survived the bad peer");
        assert_eq!(resp.id, RequestId(2));
        drop(good);
        let stats = server.shutdown();
        assert_eq!(stats.decode_errors, 1);
        assert_eq!(stats.conns, 2);
    }

    /// A reader that returns each predefined chunk in one `read` call —
    /// models a TCP stack delivering bytes at arbitrary boundaries.
    struct ChunkReader {
        chunks: Vec<Vec<u8>>,
        pos: usize,
    }

    impl Read for ChunkReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some(chunk) = self.chunks.get(self.pos) else {
                return Ok(0);
            };
            assert!(buf.len() >= chunk.len(), "test chunks fit the scratch");
            buf[..chunk.len()].copy_from_slice(chunk);
            self.pos += 1;
            Ok(chunk.len())
        }
    }

    /// Drains one batch the way `conn_main` does: block for the first
    /// frame, then take every frame that read left buffered.
    fn next_batch<R: Read>(reader: &mut FrameReader<R>) -> io::Result<Vec<Vec<u8>>> {
        let mut batch = Vec::new();
        if reader.fill()? {
            while let Ok(Some(frame)) = reader.buffered_frame() {
                batch.push(frame.to_vec());
            }
        }
        Ok(batch)
    }

    /// Property sweep for the batch drain: three back-to-back frames (a
    /// pipelined client's burst) split at *every* byte boundary must
    /// reassemble to exactly those frames, in order, regardless of how
    /// the cut lands relative to length prefixes and bodies.
    #[test]
    fn frame_reader_drains_pipelined_frames_split_at_every_boundary() {
        let frames = [
            request_frame(1, 0),
            request_frame(2, 7),
            request_frame(3, 9),
        ];
        let stream = frames.concat();
        for cut in 0..=stream.len() {
            let chunks: Vec<Vec<u8>> = [&stream[..cut], &stream[cut..]]
                .iter()
                .filter(|c| !c.is_empty())
                .map(|c| c.to_vec())
                .collect();
            let mut reader = FrameReader::new(ChunkReader { chunks, pos: 0 }, MAX_FRAME_BYTES);
            let mut got: Vec<Vec<u8>> = Vec::new();
            let mut batches = Vec::new();
            loop {
                let batch = next_batch(&mut reader).expect("no error in sweep");
                if batch.is_empty() {
                    break;
                }
                batches.push(batch.len());
                got.extend(batch);
            }
            assert_eq!(got, frames.to_vec(), "cut at byte {cut}");
            // A cut mid-stream yields at most one batch per chunk.
            assert!(batches.len() <= 2, "cut at byte {cut}: {batches:?}");
            assert_eq!(batches.iter().sum::<usize>(), 3, "cut at byte {cut}");
        }
    }

    /// Same sweep with the final frame truncated: every complete frame
    /// ahead of the tear is delivered, then the reader reports
    /// `UnexpectedEof` — never a silent drop, never a hang.
    #[test]
    fn frame_reader_truncated_final_frame_yields_prefix_then_eof_error() {
        let frames = [
            request_frame(4, 1),
            request_frame(5, 2),
            request_frame(6, 3),
        ];
        let stream = frames.concat();
        let whole = stream.len();
        for tear in (whole - frames[2].len() + 1)..whole {
            let mut reader = FrameReader::new(
                OneByteReader {
                    data: stream[..tear].to_vec(),
                    pos: 0,
                },
                MAX_FRAME_BYTES,
            );
            let mut got: Vec<Vec<u8>> = Vec::new();
            let err = loop {
                match next_batch(&mut reader) {
                    Ok(batch) if batch.is_empty() => {
                        panic!("tear at {tear}: clean EOF despite a partial frame")
                    }
                    Ok(batch) => got.extend(batch),
                    Err(e) => break e,
                }
            };
            assert_eq!(got, frames[..2].to_vec(), "tear at byte {tear}");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "tear at {tear}");
        }
    }

    /// The read cursor and its once-per-chunk compaction: 100 k frames
    /// dribbled in odd-sized chunks, consumer keeping up. What is left
    /// buffered never reaches one frame plus one chunk, and after the
    /// first lap over the chunk sizes the buffer never grows again.
    #[test]
    fn frame_buf_stays_bounded_under_a_dribble() {
        const FRAMES: u64 = 100_000;
        let chunk_sizes = [1usize, 3, 7, 37, 38, 39, 41, 101, 5];
        let frame_len = request_frame(0, 0).len();
        let mut fb = FrameBuf::new(MAX_FRAME_BYTES);
        let mut staged: Vec<u8> = Vec::new();
        let (mut queued, mut taken) = (0u64, 0u64);
        let mut settled_capacity = None;
        for lap in 0.. {
            for size in chunk_sizes {
                while staged.len() < size && queued < FRAMES {
                    staged.extend(request_frame(queued, queued as u32));
                    queued += 1;
                }
                let n = size.min(staged.len());
                fb.extend(&staged[..n]);
                staged.drain(..n);
                while let Some(frame) = fb.next_slice().expect("well-formed stream") {
                    let req = Request::decode_frame(frame).expect("decodes");
                    assert_eq!(req.id, RequestId(taken), "frames leave in order");
                    taken += 1;
                }
                assert!(
                    fb.pending() < frame_len + size,
                    "{} bytes pending after a {size}-byte chunk",
                    fb.pending()
                );
            }
            match settled_capacity {
                None => settled_capacity = Some(fb.buf.capacity()),
                Some(cap) => assert_eq!(fb.buf.capacity(), cap, "buffer grew on lap {lap}"),
            }
            if taken == FRAMES {
                break;
            }
        }
        assert_eq!(fb.pending(), 0);
    }

    /// An oversized length prefix in the middle of a pipelined batch:
    /// the valid frames ahead of it are served and answered, then the
    /// connection — and only that connection — is dropped as a decode
    /// error.
    #[test]
    fn oversized_prefix_mid_batch_serves_the_valid_prefix_then_drops_the_conn() {
        let tree = Arc::new(NamespaceTree::new());
        let mut placement = Placement::new(&tree, 1);
        placement.set(tree.root(), Assignment::Single(MdsId(0)));
        let mds = Arc::new(NetMds::new(
            Arc::clone(&tree),
            placement,
            LocalIndex::new(),
            MdsId(0),
            Arc::new(Registry::new()),
        ));
        let server = NetServer::bind("127.0.0.1:0", Arc::clone(&mds), NetServerConfig::default())
            .expect("bind");
        let addr = server.local_addr().to_string();

        let mut burst = [request_frame(1, 0), request_frame(2, 0)].concat();
        burst.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_be_bytes());
        burst.extend_from_slice(&request_frame(3, 0));
        let mut bad = NetClient::connect(&addr, Duration::from_secs(2)).expect("connect");
        bad.write_half.write_all(&burst).expect("one write");
        for id in [1, 2] {
            assert_eq!(bad.recv().expect("valid prefix answered").id, RequestId(id));
        }
        let err = bad
            .recv()
            .expect_err("nothing past the bad prefix is served");
        assert!(
            !matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "the server hung up instead of leaving the client to time out: {err}"
        );

        let mut good = NetClient::connect(&addr, Duration::from_secs(2)).expect("connect");
        let resp = good
            .call(&Request {
                id: RequestId(9),
                kind: OpKind::Read,
                target: tree.root(),
                hops: 0,
                trace: None,
            })
            .expect("server survived the bad peer");
        assert_eq!(resp.id, RequestId(9));
        drop((bad, good));
        let stats = server.shutdown();
        assert_eq!(stats.decode_errors, 1);
        assert_eq!(mds.served(), 3);
    }

    /// A pipelined window over a real socket: eight requests leave in
    /// one buffered write, eight responses come back in request order.
    #[test]
    fn loopback_pipelined_window_roundtrips_in_order() {
        let mut tree = NamespaceTree::new();
        let sub = tree
            .create(tree.root(), "s", NodeKind::Directory)
            .expect("create");
        let tree = Arc::new(tree);
        let mut placement = Placement::new(&tree, 1);
        for (id, _) in tree.nodes() {
            placement.set(id, Assignment::Single(MdsId(0)));
        }
        let mut index = LocalIndex::new();
        index.insert(tree.root(), MdsId(0));
        let registry = Arc::new(Registry::new());
        let mds = Arc::new(NetMds::new(
            Arc::clone(&tree),
            placement,
            index,
            MdsId(0),
            registry,
        ));
        let server = NetServer::bind("127.0.0.1:0", Arc::clone(&mds), NetServerConfig::default())
            .expect("bind");
        let addr = server.local_addr().to_string();
        let mut client = NetClient::connect(&addr, Duration::from_secs(2)).expect("connect");
        let reqs: Vec<Request> = (0..8)
            .map(|i| Request {
                id: RequestId(100 + i),
                kind: if i % 2 == 0 {
                    OpKind::Read
                } else {
                    OpKind::Update
                },
                target: sub,
                hops: 0,
                trace: None,
            })
            .collect();
        client.send_batch(&reqs).expect("one buffered write");
        for req in &reqs {
            let resp = client.recv().expect("in-order response");
            assert_eq!(resp.id, req.id);
            assert_eq!(resp.body, ResponseBody::Served { node: sub });
        }
        drop(client);
        let stats = server.shutdown();
        assert_eq!(mds.served(), 8);
        assert!(
            (1..=8).contains(&stats.batches),
            "8 frames arrived in {} batch(es)",
            stats.batches
        );
        assert_eq!(stats.frames, 16, "8 requests + 8 responses");
    }

    /// The group-commit contract of `serve_batch`: one batch of
    /// mutations costs exactly one fsync (`wal_group_commits_total`
    /// ticks once), a read-only batch costs none, and every journaled
    /// record is on disk when the call returns.
    #[test]
    fn serve_batch_group_commits_once_per_mutating_batch() {
        let dir = std::env::temp_dir().join(format!(
            "d2tree-net-gc-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut tree = NamespaceTree::new();
        let sub = tree
            .create(tree.root(), "s", NodeKind::Directory)
            .expect("create");
        let tree = Arc::new(tree);
        let mut placement = Placement::new(&tree, 1);
        for (id, _) in tree.nodes() {
            placement.set(id, Assignment::Single(MdsId(0)));
        }
        let mut index = LocalIndex::new();
        index.insert(tree.root(), MdsId(0));
        let registry = Arc::new(Registry::new());
        let mds = NetMds::new(
            Arc::clone(&tree),
            placement,
            index,
            MdsId(0),
            Arc::clone(&registry),
        )
        .with_store_root(&dir, StoreConfig::manual());
        let commits = registry.counter(MetricKey::mds(names::WAL_GROUP_COMMITS_TOTAL, 0));
        let commits_0 = commits.get();

        let req = |i: u64, kind: OpKind| Request {
            id: RequestId(i),
            kind,
            target: sub,
            hops: 0,
            trace: None,
        };
        // A batch that journals nothing (unassigned target → NotFound)
        // must not fsync at all.
        let miss = Request {
            id: RequestId(1),
            kind: OpKind::Read,
            target: NodeId::from_index(9_999),
            hops: 0,
            trace: None,
        };
        let resps = mds.serve_batch(&[miss]);
        assert_eq!(resps[0].body, ResponseBody::NotFound);
        assert_eq!(commits.get(), commits_0, "nothing journaled, no fsync");
        // Mutating batch: four updates (each journals an AttrCommit
        // plus a Popularity record) share one group commit.
        let lsn_before = mds.store_next_lsn().expect("store attached");
        let batch: Vec<Request> = (10..14).map(|i| req(i, OpKind::Update)).collect();
        let resps = mds.serve_batch(&batch);
        assert!(resps
            .iter()
            .all(|r| matches!(r.body, ResponseBody::Served { .. })));
        assert_eq!(commits.get(), commits_0 + 1, "one fsync for the batch");
        let lsn_after = mds.store_next_lsn().expect("store attached");
        assert!(
            lsn_after >= lsn_before + 4,
            "each update journaled at least its AttrCommit"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A batch is timed once: every request it answers books the same
    /// sample in its `[kind][outcome]` lane, the slow log takes one
    /// entry for it, named by its last traced request, and a scope that
    /// answers nothing books nothing.
    #[test]
    fn one_batch_books_one_duration_in_every_lane_it_touched() {
        let mut tree = NamespaceTree::new();
        let [mine, theirs, moved] = ["mine", "theirs", "moved"].map(|name| {
            tree.create(tree.root(), name, NodeKind::Directory)
                .expect("create")
        });
        let tree = Arc::new(tree);
        let mut placement = Placement::new(&tree, 2);
        placement.set(tree.root(), Assignment::Replicated);
        let mut index = LocalIndex::new();
        for (node, owner) in [(mine, 0), (theirs, 1), (moved, 1)] {
            placement.set(node, Assignment::Single(MdsId(owner)));
            index.insert(node, MdsId(owner));
        }
        let mds = NetMds::new(
            Arc::clone(&tree),
            placement,
            index,
            MdsId(0),
            Arc::new(Registry::new()),
        );
        let lane_counts = || {
            mds.srv_latency
                .each_ref()
                .map(|row| row.each_ref().map(|h| h.count()))
        };

        // Scopes that answer nothing.
        mds.commit_batch();
        mds.apply_migration(Migration {
            node: moved,
            from: MdsId(1),
            to: MdsId(0),
        });
        mds.decay_popularity();
        assert_eq!(lane_counts(), [[0; 3]; 3], "an empty scope books no sample");
        assert!(mds.slow_requests().is_empty(), "nor a slow-log entry");

        let missing = NodeId::from_index(9_999);
        let kinds = [OpKind::Read, OpKind::Write, OpKind::Update];
        // Per kind: served `k + 1` times, redirected `k + 2`, missing once.
        let mut batch = Vec::new();
        for (k, kind) in kinds.into_iter().enumerate() {
            let targets = [(mine, k + 1), (theirs, k + 2), (missing, 1)];
            for (target, times) in targets {
                batch.extend((0..times).map(|_| (kind, target)));
            }
        }
        let traced = 2; // a redirected Read
        let mut scope = mds.begin_batch();
        for (i, &(kind, target)) in batch.iter().enumerate() {
            scope.serve(Request {
                id: RequestId(i as u64),
                kind,
                target,
                hops: 0,
                trace: (i == traced).then_some((77, 1)),
            });
        }
        // Long enough that the batch is slow for the (empty) log.
        std::thread::sleep(Duration::from_millis(2));
        scope.commit();

        let want = [0, 1, 2].map(|k| [k + 1, k + 2, 1].map(|n| n as u64));
        assert_eq!(lane_counts(), want, "each lane books every request it saw");
        assert_eq!(mds.served(), 1 + 2 + 3);
        assert_eq!(mds.redirects(), 2 + 3 + 4);
        // The registry is the one home of these counts: a redirect is
        // counted in `forwarded_total` and its lane, not journaled.
        let registry = mds.registry();
        assert_eq!(
            registry.journal().recorded(),
            0,
            "a redirect journals nothing"
        );
        let served_total = registry.counter(MetricKey::mds(names::SERVER_SERVED_TOTAL, 0));
        let forwarded = registry.counter(MetricKey::global(names::FORWARDED_TOTAL));
        let [served_lanes, redirect_lanes] = [0, 1].map(|o| want.iter().map(|row| row[o]).sum());
        assert_eq!(
            (mds.served(), served_total.get()),
            (served_lanes, served_lanes)
        );
        assert_eq!(
            (mds.redirects(), forwarded.get()),
            (redirect_lanes, redirect_lanes)
        );
        let batch_us = mds.srv_latency[0][0].snapshot().max;
        assert!(batch_us >= 2_000, "the scope's whole duration: {batch_us}");
        for hist in mds.srv_latency.iter().flatten() {
            let s = hist.snapshot();
            assert_eq!((s.min, s.max), (batch_us, batch_us), "one value per batch");
        }
        let named = |e: &SlowEntry| (e.kind, e.target, e.outcome, e.trace);
        let slow = mds.slow_requests();
        assert_eq!(slow.len(), 1, "one entry per batch");
        let (kind, target) = batch[traced];
        let want = (kind, target.index() as u64, 1, Some(77));
        assert_eq!(named(&slow[0]), want);
        assert_eq!(slow[0].dur_us, batch_us);

        // Untraced, a batch is named by its last request.
        let mut scope = mds.begin_batch();
        for (i, target) in [missing, theirs, mine].into_iter().enumerate() {
            scope.serve(Request {
                id: RequestId(i as u64),
                kind: OpKind::Write,
                target,
                hops: 0,
                trace: None,
            });
        }
        std::thread::sleep(Duration::from_millis(2));
        scope.commit();
        let slow = mds.slow_requests();
        assert_eq!(slow.len(), 2);
        let want = (OpKind::Write, mine.index() as u64, 0, None);
        assert!(slow.iter().map(named).any(|n| n == want));
    }

    /// Server latency runs to the point the batch is durable: an
    /// update's sample and its slow-log entry cover the group commit.
    #[test]
    fn server_latency_covers_the_group_commit() {
        let dir = std::env::temp_dir().join(format!(
            "d2tree-net-durable-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut tree = NamespaceTree::new();
        let file = tree
            .create(tree.root(), "f", NodeKind::File)
            .expect("create");
        let tree = Arc::new(tree);
        let mut placement = Placement::new(&tree, 1);
        for (id, _) in tree.nodes() {
            placement.set(id, Assignment::Single(MdsId(0)));
        }
        let mut index = LocalIndex::new();
        index.insert(tree.root(), MdsId(0));
        let mds = NetMds::new(
            Arc::clone(&tree),
            placement,
            index,
            MdsId(0),
            Arc::new(Registry::new()),
        )
        .with_store_root(&dir, StoreConfig::manual());

        let mut scope = mds.begin_batch();
        let resp = scope.serve(Request {
            id: RequestId(1),
            kind: OpKind::Update,
            target: file,
            hops: 0,
            trace: None,
        });
        assert_eq!(resp.body, ResponseBody::Served { node: file });
        let started = Instant::now();
        scope.commit();
        let commit_us = started.elapsed().as_micros() as u64;

        let lane = mds.srv_latency[2][0].snapshot();
        assert_eq!(lane.count, 1);
        assert!(
            lane.max >= commit_us,
            "update_ok booked {} µs, the commit alone took {commit_us} µs",
            lane.max
        );
        let slow = mds.slow_requests();
        let entry = slow.first().expect("the batch is in the slow log");
        assert!(entry.dur_us >= commit_us);
        assert_eq!(
            (entry.kind, entry.target),
            (OpKind::Update, file.index() as u64)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Nested index roots: a node this MDS serves whose shallowest
    /// indexed ancestor belongs to another MDS is still counted, and
    /// journaled, under that root.
    #[test]
    fn popularity_counts_under_a_root_another_mds_owns() {
        let dir = std::env::temp_dir().join(format!(
            "d2tree-net-nested-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut tree = NamespaceTree::new();
        let outer = tree
            .create(tree.root(), "outer", NodeKind::Directory)
            .expect("create");
        let inner = tree
            .create(outer, "inner", NodeKind::Directory)
            .expect("create");
        let file = tree.create(inner, "f", NodeKind::File).expect("create");
        let tree = Arc::new(tree);
        let mut placement = Placement::new(&tree, 2);
        for (id, _) in tree.nodes() {
            placement.set(id, Assignment::Single(MdsId(0)));
        }
        let mut index = LocalIndex::new();
        index.insert(outer, MdsId(1));
        index.insert(inner, MdsId(0));
        assert_eq!(index.locate(&tree, file), Some((outer, MdsId(1))));
        let mds = NetMds::new(
            Arc::clone(&tree),
            placement,
            index,
            MdsId(0),
            Arc::new(Registry::new()),
        )
        .with_store_root(&dir, StoreConfig::manual());

        let lsn_before = mds.store_next_lsn().expect("store attached");
        for i in 0..3 {
            let resp = mds.serve(Request {
                id: RequestId(i),
                kind: OpKind::Read,
                target: file,
                hops: 0,
                trace: None,
            });
            assert_eq!(resp.body, ResponseBody::Served { node: file });
        }
        assert_eq!(subtree_count(&mds, outer), Some(3.0));
        assert_eq!(subtree_count(&mds, inner), Some(0.0));
        assert_eq!(
            mds.store_next_lsn().expect("store attached"),
            lsn_before + 3,
            "one Popularity record per served read"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A migration re-points a daemon's view: a node's request turns
    /// from one end's to the other's, each end journals its half
    /// durably, a root the index held keeps its slot and its count, and
    /// a root the migration publishes gets the next slot, where the next
    /// bump lands.
    #[test]
    fn apply_migration_moves_duty_journals_both_ends_and_keeps_slots() {
        let dir = std::env::temp_dir().join(format!(
            "d2tree-net-migrate-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut tree = NamespaceTree::new();
        let [a, b] = ["a", "b"].map(|name| {
            tree.create(tree.root(), name, NodeKind::Directory)
                .expect("create")
        });
        let fa = tree.create(a, "f", NodeKind::File).expect("create");
        let fb = tree.create(b, "f", NodeKind::File).expect("create");
        let tree = Arc::new(tree);
        let mut placement = Placement::new(&tree, 2);
        placement.set(tree.root(), Assignment::Replicated);
        for (node, owner) in [(a, 0), (fa, 0), (b, 1), (fb, 1)] {
            placement.set(node, Assignment::Single(MdsId(owner)));
        }
        let mut index = LocalIndex::new();
        index.insert(a, MdsId(0));
        let daemon = |k| {
            NetMds::new(
                Arc::clone(&tree),
                placement.clone(),
                index.clone(),
                MdsId(k),
                Arc::new(Registry::new()),
            )
            .with_store_root(&dir, StoreConfig::manual())
        };
        let (d0, d1) = (daemon(0), daemon(1));
        let read = |mds: &NetMds, target: NodeId| {
            mds.serve(Request {
                id: RequestId(0),
                kind: OpKind::Read,
                target,
                hops: 0,
                trace: None,
            })
            .body
        };
        // The subtrees each store holds as owned, all of it durable.
        let owned = |mds: &NetMds| {
            let guard = mds.lock_store().expect("store attached");
            let store = guard.as_ref().expect("store open");
            assert_eq!(store.pending_bytes(), 0, "journaled durably");
            store.state().owned.iter().copied().collect::<Vec<u64>>()
        };
        let id = |node: NodeId| node.index() as u64;
        let both = |mg: Migration| {
            d0.apply_migration(mg);
            d1.apply_migration(mg);
        };

        assert_eq!(read(&d0, fa), ResponseBody::Served { node: fa });
        assert_eq!(read(&d1, fa), ResponseBody::Redirect { owner: MdsId(0) });
        let slot_a = sync::read(&d0.routing).index.slot_of(a);
        assert_eq!(subtree_count(&d0, a), Some(1.0));

        both(Migration {
            node: a,
            from: MdsId(0),
            to: MdsId(1),
        });
        assert_eq!(read(&d0, fa), ResponseBody::Redirect { owner: MdsId(1) });
        assert_eq!(read(&d1, fa), ResponseBody::Served { node: fa });
        assert_eq!((owned(&d0), owned(&d1)), (vec![], vec![id(a)]));
        assert_eq!(sync::read(&d0.routing).index.slot_of(a), slot_a);
        assert_eq!(subtree_count(&d0, a), Some(1.0), "the count stays put");
        assert_eq!(subtree_count(&d1, a), Some(1.0));

        both(Migration {
            node: b,
            from: MdsId(1),
            to: MdsId(0),
        });
        assert_eq!((owned(&d0), owned(&d1)), (vec![id(b)], vec![id(a)]));
        assert_eq!(sync::read(&d0.routing).index.slot_of(b), Some(1));
        assert_eq!(subtree_count(&d0, b), Some(0.0));
        assert_eq!(read(&d0, fb), ResponseBody::Served { node: fb });
        assert_eq!(read(&d1, fb), ResponseBody::Redirect { owner: MdsId(0) });
        assert_eq!(subtree_count(&d0, b), Some(1.0));
        assert_eq!(d0.tick_sample().migrations_total, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A daemon reopened on its store: the journaled counter of a root
    /// the seeded index holds continues from its journaled value; that
    /// of a root the index no longer holds is not carried, while the
    /// store keeps its record.
    #[test]
    fn reopened_daemon_continues_index_counters_and_drops_the_rest() {
        let dir = std::env::temp_dir().join(format!(
            "d2tree-net-reopen-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut tree = NamespaceTree::new();
        let kept = tree
            .create(tree.root(), "kept", NodeKind::Directory)
            .expect("create");
        let gone = tree
            .create(tree.root(), "gone", NodeKind::Directory)
            .expect("create");
        let kept_file = tree.create(kept, "f", NodeKind::File).expect("create");
        let gone_file = tree.create(gone, "f", NodeKind::File).expect("create");
        let tree = Arc::new(tree);
        let mut placement = Placement::new(&tree, 1);
        for (id, _) in tree.nodes() {
            placement.set(id, Assignment::Single(MdsId(0)));
        }
        let daemon = |index: LocalIndex| {
            NetMds::new(
                Arc::clone(&tree),
                placement.clone(),
                index,
                MdsId(0),
                Arc::new(Registry::new()),
            )
            .with_store_root(&dir, StoreConfig::manual())
        };
        let read = |mds: &NetMds, i: u64, target: NodeId| {
            let resp = mds.serve(Request {
                id: RequestId(i),
                kind: OpKind::Read,
                target,
                hops: 0,
                trace: None,
            });
            assert_eq!(resp.body, ResponseBody::Served { node: target });
        };

        let mut both = LocalIndex::new();
        both.insert(gone, MdsId(0));
        both.insert(kept, MdsId(0));
        let mds = daemon(both);
        for i in 0..3 {
            read(&mds, i, kept_file);
        }
        read(&mds, 3, gone_file);
        assert_eq!(subtree_count(&mds, kept), Some(3.0));
        assert_eq!(subtree_count(&mds, gone), Some(1.0));
        mds.sync();
        drop(mds);

        // `kept` now sits in slot 0, where `gone` was before.
        let mut only_kept = LocalIndex::new();
        only_kept.insert(kept, MdsId(0));
        let mds = daemon(only_kept);
        assert_eq!(subtree_count(&mds, kept), Some(3.0));
        assert_eq!(subtree_count(&mds, gone), None);
        assert_eq!(
            sync::read(&mds.routing).counts.len(),
            1,
            "one counter per index root"
        );
        read(&mds, 4, kept_file);
        read(&mds, 5, gone_file);
        assert_eq!(subtree_count(&mds, kept), Some(4.0));
        mds.sync();
        drop(mds);

        let (store, _) = MdsStore::open(dir.join("mds-0"), StoreConfig::manual()).expect("reopen");
        let journaled =
            |root: NodeId| f64::from_bits(store.state().popularity[&(root.index() as u64)]);
        assert_eq!(journaled(kept), 4.0, "continued from the journaled 3");
        assert_eq!(journaled(gone), 1.0, "the store keeps what it journaled");
        let _ = std::fs::remove_dir_all(&dir);
    }
    /// Two connections updating one node: every version the table hands
    /// out reaches the journal exactly once. (Fetching the record to
    /// journal under a second lock let the other connection's bump in
    /// between: one version journaled twice, its predecessor never.)
    #[test]
    fn contended_updates_journal_each_version_exactly_once() {
        const PER_THREAD: u64 = 20_000;
        let dir = std::env::temp_dir().join(format!(
            "d2tree-net-contend-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut tree = NamespaceTree::new();
        let hot = tree
            .create(tree.root(), "hot", NodeKind::File)
            .expect("create");
        let tree = Arc::new(tree);
        let mut placement = Placement::new(&tree, 1);
        for (id, _) in tree.nodes() {
            placement.set(id, Assignment::Single(MdsId(0)));
        }
        let mut index = LocalIndex::new();
        index.insert(tree.root(), MdsId(0));
        let mds = NetMds::new(
            Arc::clone(&tree),
            placement,
            index,
            MdsId(0),
            Arc::new(Registry::new()),
        )
        .with_store_root(&dir, StoreConfig::manual());

        let start = std::sync::Barrier::new(2);
        std::thread::scope(|threads| {
            for t in 0..2 {
                let (mds, start) = (&mds, &start);
                threads.spawn(move || {
                    start.wait();
                    for i in 0..PER_THREAD {
                        let resp = mds.serve_deferred(Request {
                            id: RequestId(t * PER_THREAD + i),
                            kind: OpKind::Update,
                            target: hot,
                            hops: 0,
                            trace: None,
                        });
                        assert_eq!(resp.body, ResponseBody::Served { node: hot });
                    }
                });
            }
        });
        assert_eq!(mds.attr_version(hot), 2 * PER_THREAD);
        assert_eq!(mds.attr_records(), 1);
        mds.sync();
        drop(mds);

        let mut journaled = Vec::new();
        let scan = d2tree_store::wal::scan_log(&dir.join("mds-0"), 0, |f| {
            if let MdsRecord::AttrCommit { node, attr, .. } = f.record {
                if node == hot.index() as u64 {
                    journaled.push(attr.version);
                }
            }
            Ok(())
        })
        .expect("clean WAL");
        assert_eq!(scan.torn_bytes, 0);
        journaled.sort_unstable();
        assert_eq!(journaled, (1..=2 * PER_THREAD).collect::<Vec<_>>());
        let (store, _) = MdsStore::open(dir.join("mds-0"), StoreConfig::manual()).expect("reopen");
        assert_eq!(
            store.state().attrs[&(hot.index() as u64)].version,
            2 * PER_THREAD
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
