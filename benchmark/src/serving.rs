//! The three serving workloads: daemons run in-process behind real
//! loopback TCP (`NetServer::bind`), driven by the benchmark's own
//! closed-loop client on `NetClient::send_batch`/`recv`.
//!
//! Closed loop because the paper's load is 200 blocking clients (Sec. VI):
//! each connection carries a fixed window of callers that wait for their
//! replies, so a slow server receives less load.

use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use d2tree_cluster::{
    NetClient, NetMds, NetServer, NetServerConfig, Request, RequestId, Response, ResponseBody,
};
use d2tree_core::{D2TreeConfig, D2TreeScheme, LocalIndex, Partitioner};
use d2tree_metrics::{ClusterSpec, MdsId};
use d2tree_namespace::{NamespaceTree, NodeId, Popularity};
use d2tree_store::{MdsStore, StoreConfig};
use d2tree_telemetry::{names, Registry};
use d2tree_workload::{OpKind, OpMix, Operation, Trace, TraceProfile, WorkloadBuilder};

use crate::manifest::{Report, Values};
use crate::spans::Recorder;
use crate::{host, out_dir, stats, Args, Scale};

/// Every `SAMPLE_STRIDE`-th operation's latency is kept. Prime, so the
/// samples walk through every position of a 64- or 128-op window instead
/// of aliasing onto one.
pub const SAMPLE_STRIDE: u64 = 61;

/// Global-layer proportion of every D2-Tree build (the paper's 1 %).
pub const GL_PROPORTION: f64 = 0.01;

const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// What distinguishes one serving workload from another.
#[derive(Debug, Clone)]
pub struct ServingSpec {
    pub name: &'static str,
    pub profile: TraceProfile,
    pub daemons: usize,
    pub durable: bool,
    pub client_threads: usize,
    pub window: usize,
    /// Every n-th local-layer operation is sent to the wrong daemon
    /// (0 = never), so `Redirect` + follow is exercised at a known rate.
    pub misroute_every: u64,
    /// Acknowledged operations per slice of the measured phase: a fixed
    /// amount of work, holding several of everything the program does
    /// periodically (see [`run`]).
    pub slice_ops: u64,
    /// Whether time is read from the process's CPU clock instead of the
    /// wall clock, which leaves out the stretches in which the CPU idled
    /// waiting for the disk (see [`Stamp`]).
    pub busy_clock: bool,
}

impl ServingSpec {
    pub fn by_name(name: &str, scale: &Scale) -> Option<ServingSpec> {
        let sized = |p: TraceProfile| p.with_nodes(scale.nodes).with_operations(scale.trace_ops);
        match name {
            "hot_read" => Some(ServingSpec {
                name: "hot_read",
                profile: sized(TraceProfile::lmbe()),
                daemons: 1,
                durable: false,
                client_threads: 1,
                window: 128,
                misroute_every: 0,
                slice_ops: scale.slice_ops,
                busy_clock: false,
            }),
            "durable_mix" => Some(ServingSpec {
                name: "durable_mix",
                // A tenth of the others' trace, so that it is cycled more
                // than once in every episode even at durable speeds: the
                // set of nodes touched (locate memos, journaled attributes,
                // snapshot size) then saturates and the workload is
                // stationary; with the long trace, memory and snapshot
                // cost grew with however far a run happened to get.
                profile: sized(TraceProfile::ra()).with_operations(scale.trace_ops / 10),
                daemons: 1,
                durable: true,
                client_threads: 2,
                // Deep enough that a connection's batch costs more CPU
                // (~2.5 µs × 256) than its fsync (0.2–0.6 ms here, swinging
                // 2× with the host's disk): while one connection waits on
                // the disk the other serves, and throughput follows the
                // store's CPU and fsync count, not the disk's mood.
                window: 256,
                misroute_every: 0,
                // Four times the others': ~5 snapshots (one per 1024
                // records, ~3100 operations) and ~30 group commits. A
                // slice that holds one or two snapshots is fast when it
                // happens to hold one.
                slice_ops: 4 * scale.slice_ops,
                // `fdatasync` on this VM's disk swings between 0.2 and
                // 1.2 ms from hour to hour and between 0.5 and 3 ms inside
                // a minute, and the serve path waits for every one (the
                // store lock is held across it), so wall-clock figures
                // follow the host's disk. Counts of fsyncs, records and
                // bytes per operation are exact per-layer metrics.
                busy_clock: true,
            }),
            "cluster_route" => {
                // Queries only: NetMds commits a global-layer update on
                // the receiving daemon alone, so two daemons would
                // diverge (ROADMAP, "make the socket path correct").
                let mix = OpMix::dtr();
                let queries = mix.read + mix.write;
                Some(ServingSpec {
                    name: "cluster_route",
                    profile: sized(TraceProfile::dtr()).with_op_mix(OpMix::new(
                        mix.read / queries,
                        mix.write / queries,
                        0.0,
                    )),
                    daemons: 2,
                    durable: false,
                    client_threads: 1,
                    window: 128,
                    misroute_every: 20,
                    slice_ops: scale.slice_ops,
                    busy_clock: false,
                })
            }
            _ => None,
        }
    }
}

/// Removes its directory when dropped, so store roots vanish on every
/// exit path.
#[derive(Debug)]
pub struct ScratchDir(pub PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Wall seconds of each set-up stage of one episode.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    /// Fastest core-speed tick read between the stages: the clock the
    /// set-up ran at ([`host::core_speed_tick_us`]).
    pub tick_us: f64,
    pub synth_s: f64,
    pub popularity_s: f64,
    pub build_s: f64,
    pub mds_new_s: f64,
    pub store_open_s: f64,
    pub bind_s: f64,
    pub connect_s: f64,
    pub warmup_s: f64,
}

impl Stages {
    const NAMES: [&'static str; 8] = [
        "synth",
        "popularity",
        "build",
        "mds_new",
        "store_open",
        "bind",
        "connect",
        "warm-up",
    ];

    /// Reads the core's clock once more.
    pub fn tick(&mut self) {
        self.tick_us = self.tick_us.min(host::core_speed_tick_us());
    }

    fn parts(&self) -> [f64; 8] {
        [
            self.synth_s,
            self.popularity_s,
            self.build_s,
            self.mds_new_s,
            self.store_open_s,
            self.bind_s,
            self.connect_s,
            self.warmup_s,
        ]
    }
}

#[derive(Debug)]
pub struct Daemon {
    pub mds: Arc<NetMds>,
    pub registry: Arc<Registry>,
    pub addr: String,
    server: Option<NetServer>,
}

/// One episode's freshly built system: tree, trace, scheme and running
/// daemons.
#[derive(Debug)]
pub struct Cluster {
    pub spec: ServingSpec,
    pub tree: Arc<NamespaceTree>,
    pub trace: Trace,
    pub pop: Popularity,
    pub scheme: D2TreeScheme,
    pub daemons: Vec<Daemon>,
    pub store_root: Option<ScratchDir>,
    pub stages: Stages,
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed().as_secs_f64();
    out
}

impl Cluster {
    /// Synthesises the workload from `seed` and starts its daemons.
    /// `store_dir` is only created for a durable workload.
    pub fn start(spec: &ServingSpec, seed: u64, store_dir: &Path) -> io::Result<Cluster> {
        let mut st = Stages {
            tick_us: host::core_speed_tick_us(),
            ..Stages::default()
        };
        let workload = timed(&mut st.synth_s, || {
            WorkloadBuilder::new(spec.profile.clone())
                .seed(seed)
                .build()
        });
        st.tick();
        let tree = Arc::new(workload.tree);
        let trace = workload.trace;
        let pop = timed(&mut st.popularity_s, || trace.popularity(&tree));
        st.tick();
        let scheme = timed(&mut st.build_s, || {
            let mut s =
                D2TreeScheme::new(D2TreeConfig::by_proportion(GL_PROPORTION).with_seed(seed));
            s.build(&tree, &pop, &ClusterSpec::homogeneous(spec.daemons, 1.0));
            s
        });
        st.tick();
        let store_root = spec.durable.then(|| ScratchDir(store_dir.to_path_buf()));
        let mut daemons = Vec::with_capacity(spec.daemons);
        for k in 0..spec.daemons {
            let registry = Arc::new(Registry::new());
            names::register_all(&registry);
            let mut mds = timed(&mut st.mds_new_s, || {
                NetMds::new(
                    Arc::clone(&tree),
                    scheme.placement().clone(),
                    scheme.local_index().clone(),
                    MdsId(k as u16),
                    Arc::clone(&registry),
                )
            });
            if let Some(root) = &store_root {
                mds = timed(&mut st.store_open_s, || {
                    mds.with_store_root(&root.0, StoreConfig::default())
                });
            }
            let mds = Arc::new(mds);
            let server = timed(&mut st.bind_s, || {
                NetServer::bind("127.0.0.1:0", Arc::clone(&mds), NetServerConfig::default())
            })?;
            daemons.push(Daemon {
                mds,
                registry,
                addr: server.local_addr().to_string(),
                server: Some(server),
            });
            st.tick();
        }
        Ok(Cluster {
            spec: spec.clone(),
            tree,
            trace,
            pop,
            scheme,
            daemons,
            store_root,
            stages: st,
        })
    }

    /// A client holding one fresh connection to every daemon. It walks
    /// the trace from `start` in steps of `step`, cycling. Also returns
    /// the seconds the connects took (a set-up stage).
    pub fn client(&self, start: usize, step: usize) -> io::Result<(Client<'_>, f64)> {
        let t0 = Instant::now();
        let conns = self
            .daemons
            .iter()
            .map(|d| NetClient::connect(&d.addr, IO_TIMEOUT))
            .collect::<io::Result<Vec<_>>>()?;
        let connect_s = t0.elapsed().as_secs_f64();
        let client = Client {
            conns,
            router: Router::new(
                &self.tree,
                self.scheme.local_index().clone(),
                self.daemons.len(),
                self.spec.misroute_every,
            ),
            ops: self.trace.ops(),
            cursor: start,
            step,
            shape: Shape::sliding(self.spec.window),
            busy_clock: self.spec.busy_clock,
            id_base: (start as u64) << 48,
            seq: 0,
            tally: Tally::default(),
            samples: Vec::new(),
            sample_stride: SAMPLE_STRIDE,
            update_acks: self
                .spec
                .durable
                .then(|| vec![0u32; self.tree.arena_size()]),
            chunk_rtts_us: Vec::new(),
            acked_shared: None,
            inflight: VecDeque::new(),
            spare: Vec::new(),
            redirected: Vec::new(),
            scratch: Vec::new(),
        };
        Ok((client, connect_s))
    }

    /// Stops the daemons. `NetServer::shutdown` polls at 25 ms, so this
    /// is only ever called after the clock has stopped.
    pub fn shutdown(&mut self) {
        for d in &mut self.daemons {
            if let Some(server) = d.server.take() {
                let _ = server.shutdown();
            }
        }
    }

    /// Crash-models the durable daemon (unsynced bytes discarded), reopens
    /// its store from disk and checks that every acknowledged update
    /// survived: per node, recovered attr version ≥ acknowledged updates.
    /// Returns (nodes violating that, recovery milliseconds).
    pub fn crash_and_recover(&self, acked_updates: &[u32]) -> (u64, f64) {
        let root = self.store_root.as_ref().expect("durable workload");
        assert!(
            self.daemons[0].mds.simulate_store_crash(0),
            "store attached"
        );
        let (store, info) = MdsStore::open(root.0.join("mds-0"), StoreConfig::default())
            .expect("recovery of the run's own store failed");
        let attrs = &store.state().attrs;
        let lost = acked_updates
            .iter()
            .enumerate()
            .filter(|&(node, &acked)| {
                let recovered = attrs.get(&(node as u64)).map_or(0, |a| a.version);
                recovered < u64::from(acked)
            })
            .count() as u64;
        (lost, info.duration.as_secs_f64() * 1e3)
    }
}

/// Client-side routing: the owner from the cached local index, or any
/// daemon (round-robin) for a global-layer target.
#[derive(Debug)]
pub struct Router<'a> {
    tree: &'a NamespaceTree,
    index: LocalIndex,
    daemons: usize,
    misroute_every: u64,
    gl_next: usize,
    ll_seen: u64,
}

impl<'a> Router<'a> {
    pub fn new(
        tree: &'a NamespaceTree,
        index: LocalIndex,
        daemons: usize,
        misroute_every: u64,
    ) -> Self {
        Router {
            tree,
            index,
            daemons,
            misroute_every,
            gl_next: 0,
            ll_seen: 0,
        }
    }

    pub fn route(&mut self, target: NodeId) -> usize {
        match self.index.locate(self.tree, target) {
            Some((_, owner)) => {
                self.ll_seen += 1;
                let wrong =
                    self.misroute_every != 0 && self.ll_seen.is_multiple_of(self.misroute_every);
                (owner.index() + usize::from(wrong)) % self.daemons
            }
            None => {
                self.gl_next = (self.gl_next + 1) % self.daemons;
                self.gl_next
            }
        }
    }
}

/// Operation counts of one client.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub acked: u64,
    pub failed: u64,
    pub redirects: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.acked += other.acked;
        self.failed += other.failed;
        self.redirects += other.redirects;
    }
}

/// What one phase of client work amounted to.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub acked: u64,
    pub wall_s: f64,
    pub chunks: u64,
}

/// One sampled client-observed latency: reply decoded − chunk written,
/// on the workload's clock.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub done: Instant,
    pub us: f64,
    pub kind: OpKind,
}

/// A reading of the workload's clock. The wall clock, except where
/// [`ServingSpec::busy_clock`] says otherwise: there, `busy_s` is the
/// process's CPU time, which — the whole process being pinned to one CPU
/// — advances exactly while that CPU works for the process and stands
/// still while it idles, waiting for the disk.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    pub wall: Instant,
    busy_s: Option<f64>,
}

impl Stamp {
    pub fn now(busy_clock: bool) -> Stamp {
        Stamp {
            wall: Instant::now(),
            busy_s: busy_clock.then(host::cpu_seconds),
        }
    }

    /// Seconds from `earlier` to `self` on the clock both were read from.
    pub fn seconds_since(&self, earlier: Stamp) -> f64 {
        match (self.busy_s, earlier.busy_s) {
            (Some(now), Some(then)) => now - then,
            _ => (self.wall - earlier.wall).as_secs_f64(),
        }
    }
}

/// A request in flight. `first_sent` is set on a followed request: the
/// time its original chunk was written, so the redirect and the second
/// trip count as that operation's latency.
#[derive(Debug, Clone, Copy)]
struct Sent {
    req: Request,
    first_sent: Option<Stamp>,
}

/// Requests written together, per destination daemon, and when.
#[derive(Debug)]
struct Chunk {
    t0: Stamp,
    per_dest: Vec<Vec<Sent>>,
}

/// How a client keeps its window full: `depth` chunks of `chunk`
/// requests in flight; whenever the oldest chunk has been answered a new
/// one is written.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub chunk: usize,
    pub depth: usize,
}

impl Shape {
    /// A window of `window` callers refilled a quarter at a time, as that
    /// many independent blocking callers would trickle in — not in lock
    /// step (write all, wait for all), where the server sits idle until
    /// the whole window has been written and every window pays two full
    /// hand-offs.
    pub fn sliding(window: usize) -> Shape {
        Shape {
            chunk: (window / 4).max(1),
            depth: 4,
        }
    }

    pub const DEPTH_ONE: Shape = Shape { chunk: 1, depth: 1 };
}

/// A closed-loop client: a fixed number of requests in flight on its
/// connections, each reply validated, redirects followed.
#[derive(Debug)]
pub struct Client<'a> {
    conns: Vec<NetClient>,
    router: Router<'a>,
    ops: &'a [Operation],
    cursor: usize,
    step: usize,
    shape: Shape,
    /// Which clock latencies are read from (see [`Stamp`]).
    pub busy_clock: bool,
    id_base: u64,
    seq: u64,
    pub tally: Tally,
    /// Sampled client-observed latencies.
    pub samples: Vec<Sample>,
    pub sample_stride: u64,
    /// Acknowledged updates per node, kept on durable workloads for the
    /// crash-recovery check.
    pub update_acks: Option<Vec<u32>>,
    /// Microseconds from a chunk's write to its last reply, kept on
    /// traced passes only.
    pub chunk_rtts_us: Vec<f64>,
    /// Where every client thread of a measured phase adds its
    /// acknowledgements, chunk by chunk, for the slice marks.
    pub acked_shared: Option<&'a AtomicU64>,
    inflight: VecDeque<Chunk>,
    spare: Vec<Chunk>,
    /// Redirected requests waiting to ride the next chunk to their owner.
    redirected: Vec<(usize, Sent)>,
    scratch: Vec<Request>,
}

fn span<T>(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    parent: Option<usize>,
    id: u64,
    f: impl FnOnce() -> T,
) -> T {
    match (rec.as_deref_mut(), parent) {
        (Some(r), Some(p)) => r.child(name, p, id, f),
        _ => f(),
    }
}

impl Client<'_> {
    /// Position in the trace of the next operation to issue.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Repositions the trace cursor, so a pass can repeat the operations
    /// of an earlier one.
    pub fn seek(&mut self, cursor: usize) {
        self.cursor = cursor;
    }

    /// Routes the next `n` trace operations (plus any waiting redirected
    /// requests) into a chunk. `kind_override` replaces the trace's
    /// operation kind — the depth-1 probes ask for one kind at a time.
    fn fill(&mut self, n: usize, kind_override: Option<OpKind>) -> Chunk {
        let mut chunk = self.spare.pop().unwrap_or_else(|| Chunk {
            t0: Stamp::now(false),
            per_dest: vec![Vec::new(); self.conns.len()],
        });
        for (dest, sent) in self.redirected.drain(..) {
            chunk.per_dest[dest].push(sent);
        }
        for _ in 0..n {
            let op = self.ops[self.cursor % self.ops.len()];
            self.cursor += self.step;
            let req = Request {
                id: RequestId(self.id_base + self.seq),
                kind: kind_override.unwrap_or(op.kind),
                target: op.target,
                hops: 0,
                trace: None,
            };
            self.seq += 1;
            chunk.per_dest[self.router.route(op.target)].push(Sent {
                req,
                first_sent: None,
            });
        }
        self.tally.attempted += n as u64;
        chunk
    }

    fn send(&mut self, mut chunk: Chunk) -> io::Result<()> {
        chunk.t0 = Stamp::now(self.busy_clock);
        for (conn, batch) in self.conns.iter_mut().zip(&chunk.per_dest) {
            if !batch.is_empty() {
                self.scratch.clear();
                self.scratch.extend(batch.iter().map(|s| s.req));
                conn.send_batch(&self.scratch)?;
            }
        }
        self.inflight.push_back(chunk);
        Ok(())
    }

    /// Receives and validates every reply of the oldest chunk in flight;
    /// returns the microseconds since that chunk was written.
    fn drain_oldest(&mut self) -> io::Result<f64> {
        let mut chunk = self.inflight.pop_front().expect("a chunk is in flight");
        let acked0 = self.tally.acked;
        for dest in 0..self.conns.len() {
            for i in 0..chunk.per_dest[dest].len() {
                let resp = self.conns[dest].recv()?;
                self.settle(chunk.per_dest[dest][i], &resp, chunk.t0);
            }
            chunk.per_dest[dest].clear();
        }
        let rtt_us = chunk.t0.wall.elapsed().as_secs_f64() * 1e6;
        self.spare.push(chunk);
        if let Some(total) = self.acked_shared {
            total.fetch_add(self.tally.acked - acked0, Ordering::Relaxed);
        }
        Ok(rtt_us)
    }

    /// Books one reply. Anything but `Served{node == target}` carrying the
    /// request's id — after at most one followed `Redirect` — is a failure.
    fn settle(&mut self, sent: Sent, resp: &Response, chunk_t0: Stamp) {
        let req = sent.req;
        if resp.id != req.id {
            self.tally.failed += 1;
            return;
        }
        match resp.body {
            ResponseBody::Served { node } if node == req.target => {
                self.tally.acked += 1;
                if (req.id.0 - self.id_base).is_multiple_of(self.sample_stride) {
                    let done = Stamp::now(self.busy_clock);
                    let t0 = sent.first_sent.unwrap_or(chunk_t0);
                    self.samples.push(Sample {
                        done: done.wall,
                        us: done.seconds_since(t0) * 1e6,
                        kind: req.kind,
                    });
                }
                if req.kind == OpKind::Update {
                    if let Some(acks) = &mut self.update_acks {
                        acks[req.target.index()] += 1;
                    }
                }
            }
            ResponseBody::Redirect { owner }
                if sent.first_sent.is_none() && owner.index() < self.conns.len() =>
            {
                self.tally.redirects += 1;
                self.redirected.push((
                    owner.index(),
                    Sent {
                        req: Request {
                            hops: req.hops + 1,
                            ..req
                        },
                        first_sent: Some(chunk_t0),
                    },
                ));
            }
            _ => self.tally.failed += 1,
        }
    }

    /// The closed loop. Each cycle waits for the oldest chunk once the
    /// window is full, then writes a new chunk while `more` says so; when
    /// it no longer does, the loop runs until nothing is in flight and no
    /// redirect is left to follow. With `rec`, every cycle is a
    /// `client.cycle` span with `client.wait`/`.route`/`.send` children.
    fn pump(
        &mut self,
        shape: Shape,
        kind_override: Option<OpKind>,
        rec: &mut Option<&mut Recorder>,
        mut more: impl FnMut(u64) -> bool,
    ) -> io::Result<u64> {
        let mut issued = 0;
        loop {
            let want_more = more(issued);
            if !want_more && self.inflight.is_empty() && self.redirected.is_empty() {
                return Ok(issued);
            }
            let parent = rec.as_deref_mut().map(|r| r.open("client.cycle", issued));
            let full = self.inflight.len() >= shape.depth;
            if full || (!want_more && !self.inflight.is_empty()) {
                let rtt_us = span(rec, "client.wait", parent, issued, || self.drain_oldest())?;
                if rec.is_some() {
                    self.chunk_rtts_us.push(rtt_us);
                }
            }
            if want_more || !self.redirected.is_empty() {
                let n = if want_more { shape.chunk } else { 0 };
                let chunk = span(rec, "client.route", parent, issued, || {
                    self.fill(n, kind_override)
                });
                span(rec, "client.send", parent, issued, || self.send(chunk))?;
                issued += u64::from(want_more);
            }
            if let (Some(r), Some(p)) = (rec.as_deref_mut(), parent) {
                r.close(p);
            }
        }
    }

    /// Issues whole chunks until at least `ops` operations were issued,
    /// and waits for all of them.
    pub fn run_ops(&mut self, ops: u64, mut rec: Option<&mut Recorder>) -> io::Result<Phase> {
        let shape = self.shape;
        let chunks = ops.div_ceil(shape.chunk as u64);
        let acked0 = self.tally.acked;
        let t0 = Instant::now();
        self.pump(shape, None, &mut rec, |issued| issued < chunks)?;
        Ok(Phase {
            acked: self.tally.acked - acked0,
            wall_s: t0.elapsed().as_secs_f64(),
            chunks,
        })
    }

    /// Keeps the window full for `secs` seconds, then waits for what is
    /// in flight (counted, with its time). `on_cycle` runs once per cycle —
    /// the hook the slice marks hang on.
    pub fn run_for(&mut self, secs: f64, mut on_cycle: impl FnMut()) -> io::Result<Phase> {
        let shape = self.shape;
        let acked0 = self.tally.acked;
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs_f64(secs);
        let chunks = self.pump(shape, None, &mut None, |_| {
            on_cycle();
            Instant::now() < deadline
        })?;
        Ok(Phase {
            acked: self.tally.acked - acked0,
            wall_s: t0.elapsed().as_secs_f64(),
            chunks,
        })
    }

    /// `calls` depth-1 round trips of one operation kind; returns each
    /// call's latency in microseconds.
    pub fn depth_one(&mut self, calls: usize, kind: OpKind) -> io::Result<Vec<f64>> {
        let mut lat = Vec::with_capacity(calls);
        for _ in 0..calls {
            let t0 = Instant::now();
            self.pump(Shape::DEPTH_ONE, Some(kind), &mut None, |issued| issued < 1)?;
            lat.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        Ok(lat)
    }
}

/// Share of an episode's slices that make up its quiet set (see
/// [`run`]), and the fewest slices a quiet set may hold.
pub const QUIET_SHARE: f64 = 0.05;
pub const QUIET_AT_LEAST: usize = 4;

/// One slice of a measured phase, its figures scaled to the reference
/// core clock by the faster of the ticks read at its two ends
/// ([`host::clock_factor`]).
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub ops_per_s: f64,
    /// Server-side CPU microseconds per acknowledged operation.
    pub cpu_us_per_op: f64,
    /// Median of the latencies sampled in the slice.
    pub p50_us: f64,
}

/// One episode's measured numbers (before aggregation over episodes).
#[derive(Debug, Clone, Default)]
pub struct Episode {
    /// Episode start to end of warm-up, scaled to the reference core clock
    /// by the fastest tick read between the set-up's stages.
    pub setup_s: f64,
    /// `VmHWM` when the episode ended (daemons shut down), MiB.
    pub end_hwm_mib: f64,
    /// Whole measured phase, as timed: acknowledged operations ÷ seconds
    /// on the workload's clock.
    pub ops_per_s: f64,
    /// Whole measured phase, as timed: server-side CPU ÷ acknowledged
    /// operations.
    pub cpu_us_per_op: f64,
    /// Share of the measured phase's wall time in which the process was
    /// off its CPU.
    pub idle_share: f64,
    /// Tenth percentile of the core-speed ticks taken at the episode's
    /// slice boundaries, microseconds ([`host::core_speed_tick_us`]).
    pub core_tick_us: f64,
    pub slices: Vec<Slice>,
    /// Medians over the episode's quiet set: the fastest [`QUIET_SHARE`]
    /// of its slices, ranked by throughput. One set of slices behind all
    /// three figures. `None` when the episode was too short for
    /// [`QUIET_AT_LEAST`] slices.
    pub quiet: Option<Slice>,
    pub samples: Vec<f64>,
    pub tally: Tally,
    pub stages: Stages,
    /// Acknowledged-but-lost updates after the simulated crash.
    pub lost_updates: u64,
}

/// Set-up → fixed-count warm-up → fixed-time measured phase, then (after
/// the clock stops) the durability check and shutdown.
pub fn run_episode(
    spec: &ServingSpec,
    scale: &Scale,
    seed: u64,
    secs: f64,
    store_dir: &Path,
) -> io::Result<Episode> {
    let t_setup = Stamp::now(spec.busy_clock);
    let mut cluster = Cluster::start(spec, seed, store_dir)?;
    let mut ep = Episode::default();
    let acks = measure(&cluster, scale, secs, t_setup, &mut ep)?;
    if let Some(acks) = &acks {
        ep.lost_updates = cluster.crash_and_recover(acks).0;
    }
    cluster.shutdown();
    ep.end_hwm_mib = host::peak_rss_mib();
    Ok(ep)
}

/// A reading of both clocks, the shared acknowledgement count and the
/// client threads' CPU time, taken by client thread 0 as it crosses a
/// slice boundary (and by the main thread around the whole phase).
#[derive(Debug, Clone, Copy)]
struct Mark {
    wall: Instant,
    /// CPU seconds of the whole process.
    busy_s: f64,
    /// CPU seconds of the client threads: the load generator's own cost
    /// (routing, encoding, validation). What remains of `busy_s` is the
    /// daemons' accept and connection threads — the system under test —
    /// so `cpu_us_per_op` is not simply the inverse of the throughput
    /// when everything shares one CPU.
    clients_s: f64,
    acked: u64,
    /// The core's clock at this instant ([`host::core_speed_tick_us`]).
    core_tick_us: f64,
}

impl Mark {
    fn take(client_tids: &[AtomicUsize], acked: &AtomicU64) -> Mark {
        Mark {
            wall: Instant::now(),
            busy_s: host::cpu_seconds(),
            clients_s: client_tids
                .iter()
                .map(|t| host::thread_cpu_seconds(t.load(Ordering::SeqCst)))
                .sum(),
            acked: acked.load(Ordering::Relaxed),
            core_tick_us: host::core_speed_tick_us(),
        }
    }

    /// (operations per second on the chosen clock, server-side CPU
    /// microseconds per operation) between `earlier` and `self`.
    fn rates_since(&self, earlier: &Mark, busy_clock: bool) -> (f64, f64) {
        let ops = (self.acked - earlier.acked) as f64;
        let busy_s = self.busy_s - earlier.busy_s;
        let clock_s = if busy_clock {
            busy_s
        } else {
            (self.wall - earlier.wall).as_secs_f64()
        };
        let server_s = busy_s - (self.clients_s - earlier.clients_s);
        (ops / clock_s, server_s * 1e6 / ops)
    }
}

/// The client side of an episode: connect, warm up, then drive every
/// client thread for `secs` between two barriers so that no thread's
/// warm-up overlaps another's measured phase; two more keep every client
/// thread (and its CPU clock) alive until the last has finished and the
/// clocks have been read.
/// Returns the acknowledged updates per node on a durable workload.
fn measure(
    cluster: &Cluster,
    scale: &Scale,
    secs: f64,
    t_setup: Stamp,
    ep: &mut Episode,
) -> io::Result<Option<Vec<u32>>> {
    let threads = cluster.spec.client_threads;
    ep.stages = cluster.stages;
    let acked_total = AtomicU64::new(0);
    let tids: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
    let mut clients = Vec::with_capacity(threads);
    for t in 0..threads {
        let (client, connect_s) = cluster.client(t, threads)?;
        ep.stages.connect_s += connect_s;
        clients.push(client);
    }
    let warmup_each = scale.warmup_ops.div_ceil(threads as u64);
    let barrier = Barrier::new(threads + 1);
    let t_warm = Instant::now();
    let (results, phase_start, phase_end) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(t, mut client)| {
                let (barrier, acked_total, tids) = (&barrier, &acked_total, &tids);
                let slice_ops = cluster.spec.slice_ops;
                scope.spawn(move || -> io::Result<(Phase, Client<'_>, Vec<Mark>)> {
                    // SeqCst with the barrier below: every tid is
                    // published before any thread reads the list.
                    tids[t].store(host::thread_id(), Ordering::SeqCst);
                    let warm = client.run_ops(warmup_each, None);
                    barrier.wait(); // warm-up done everywhere
                    barrier.wait(); // clock started
                    client.acked_shared = Some(acked_total);
                    let mut marks = Vec::new();
                    let mut next = 0;
                    let phase = warm.and_then(|_| {
                        client.run_for(secs, || {
                            if t == 0 && acked_total.load(Ordering::Relaxed) >= next {
                                let mark = Mark::take(tids, acked_total);
                                next = mark.acked + slice_ops;
                                marks.push(mark);
                            }
                        })
                    });
                    barrier.wait(); // every client thread done
                    barrier.wait(); // and its CPU clock read
                    Ok((phase?, client, marks))
                })
            })
            .collect();
        barrier.wait();
        ep.stages.warmup_s = t_warm.elapsed().as_secs_f64();
        let setup_s = Stamp::now(cluster.spec.busy_clock).seconds_since(t_setup);
        ep.stages.tick();
        ep.setup_s = setup_s / host::clock_factor(ep.stages.tick_us);
        let phase_start = Mark::take(&tids, &acked_total);
        barrier.wait();
        barrier.wait();
        let phase_end = Mark::take(&tids, &acked_total);
        barrier.wait();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (results, phase_start, phase_end)
    });
    let mut acks: Option<Vec<u32>> = None;
    let mut marks = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();
    for r in results {
        let (_, client, thread_marks) = r?;
        ep.tally.add(client.tally);
        samples.extend(&client.samples);
        marks.extend(thread_marks);
        if let Some(a) = client.update_acks {
            match &mut acks {
                Some(sum) => sum.iter_mut().zip(&a).for_each(|(s, v)| *s += v),
                None => acks = Some(a),
            }
        }
    }
    let ticks: Vec<f64> = marks.iter().map(|m| m.core_tick_us).collect();
    ep.core_tick_us = stats::percentile(&ticks, 0.10);
    samples.sort_by_key(|s| s.done);
    ep.samples = samples.iter().map(|s| s.us).collect();
    let busy_clock = cluster.spec.busy_clock;
    let mut next_sample = samples.partition_point(|s| s.done < marks[0].wall);
    for w in marks.windows(2) {
        let first = next_sample;
        next_sample += samples[first..].partition_point(|s| s.done < w[1].wall);
        let lat: Vec<f64> = samples[first..next_sample].iter().map(|s| s.us).collect();
        // A full-size slice holds ~`slice_ops / SAMPLE_STRIDE` (67 or 268)
        // latency samples; a toy-size one may hold none and is left out.
        if !lat.is_empty() {
            let (ops_per_s, cpu_us_per_op) = w[1].rates_since(&w[0], busy_clock);
            let clock = host::clock_factor(w[0].core_tick_us.min(w[1].core_tick_us));
            ep.slices.push(Slice {
                ops_per_s: ops_per_s * clock,
                cpu_us_per_op: cpu_us_per_op / clock,
                p50_us: stats::median(&lat) / clock,
            });
        }
    }
    if ep.slices.len() >= QUIET_AT_LEAST {
        let quiet = stats::top_share(&ep.slices, QUIET_SHARE, QUIET_AT_LEAST, |s| s.ops_per_s);
        let median_of =
            |f: fn(&Slice) -> f64| stats::median(&quiet.iter().map(f).collect::<Vec<_>>());
        ep.quiet = Some(Slice {
            ops_per_s: median_of(|s| s.ops_per_s),
            cpu_us_per_op: median_of(|s| s.cpu_us_per_op),
            p50_us: median_of(|s| s.p50_us),
        });
    }
    (ep.ops_per_s, ep.cpu_us_per_op) = phase_end.rates_since(&phase_start, busy_clock);
    ep.idle_share = 1.0
        - (phase_end.busy_s - phase_start.busy_s)
            / (phase_end.wall - phase_start.wall).as_secs_f64();
    Ok(acks)
}

/// The end-to-end run: `--episodes` fresh systems, alternating between the
/// first two allowed CPUs, the whole process on one CPU at a time.
///
/// Why one CPU: with client and server on different vCPUs every hand-off
/// is a cross-CPU wake-up, whose cost in a VM swings with the hypervisor
/// (measured here: every statistic tried spreads 15–30 % between runs on
/// two CPUs, the one below 2–3 % on one). What it costs: nothing runs in
/// parallel, so lock contention and cross-connection overlap are out of
/// this benchmark's scope.
///
/// Why a quiet set: the host's noise is one-sided. Neighbours on the same
/// hardware only ever slow a stretch of the run down (by up to 1.5×, in
/// bursts of milliseconds, for a share of the time that drifts between 10
/// and 100 % over minutes), so that share moves every mean and median
/// with it, while the level the undisturbed slices reach repeats. A slice
/// is a fixed amount of work ([`ServingSpec::slice_ops`]); an episode's
/// slices are ranked by throughput, the fastest [`QUIET_SHARE`] of them
/// form its quiet set, and the episode's three time-based figures are the
/// medians *over that one set of slices*, so they describe the same
/// stretches of the run.
///
/// Why the runner-up episode: now and then an episode runs ~8 % faster
/// than the level the others reach, from start to end (the host in an
/// unusually idle state), and in a bad minute all but one or two are
/// disturbed throughout. The episode with the second-best quiet set
/// stands for the run: one outlying instance cannot set the figure, and
/// two undisturbed episodes in a run are enough (measured: 2-7 % spread
/// against 3-12 % for the best episode and 11-20 % for the median over
/// episodes). The whole-phase figures of every episode are printed too.
///
/// Why the reference clock: the host's other tenants push the core
/// through turbo steps 100 MHz apart, for seconds to minutes at a time,
/// and an undisturbed slice's speed follows the clock it ran at. Every
/// slice is therefore scaled by the tick read at its ends, and every
/// set-up by the fastest tick read between its stages
/// ([`host::clock_factor`]): the figures are what the measured core cycles
/// take at the reference clock.
///
/// Why the lower quartile of the set-ups: a set-up is 0.3 s of one call
/// after another and cannot be cut into slices, so it has no quiet set;
/// a neighbour only ever lengthens it, and the median over episodes moved
/// by 32-41 % between two sets of ten runs where the lower quartile moved
/// by 22-30 % (9-12 % once scaled to the reference clock).
pub fn run(args: &Args, scale: &Scale) -> io::Result<Report> {
    let spec = ServingSpec::by_name(&args.workload, scale).expect("validated workload name");
    let secs = args.seconds / args.episodes as f64;
    let cpus = host::allowed_cpus();
    let mut episodes = Vec::with_capacity(args.episodes);
    let mut on_cpu = Vec::with_capacity(args.episodes);
    for e in 0..args.episodes {
        let cpu = cpus[e % 2];
        host::pin_current_thread(&[cpu]);
        on_cpu.push(cpu as f64);
        let dir = out_dir()
            .join(spec.name)
            .join(format!("{}-{e}", std::process::id()));
        episodes.push(run_episode(&spec, scale, args.seed, secs, &dir)?);
    }
    let of = |f: fn(&Episode) -> f64| episodes.iter().map(f).collect::<Vec<f64>>();
    let setup = of(|e| e.setup_s);
    let mut quiet: Vec<Slice> = episodes.iter().filter_map(|e| e.quiet).collect();
    quiet.sort_by(|a, b| b.ops_per_s.partial_cmp(&a.ops_per_s).expect("NaN rate"));
    let Some(&figures) = quiet.get(1).or(quiet.first()) else {
        return Err(io::Error::other(format!(
            "no episode acknowledged {QUIET_AT_LEAST} slices of {} operations in its {secs} s: \
             raise --seconds",
            spec.slice_ops
        )));
    };
    let slices: usize = episodes.iter().map(|e| e.slices.len()).sum();
    let samples: usize = episodes.iter().map(|e| e.samples.len()).sum();
    println!(
        "# {slices} slices of {} ops and {samples} latency samples over {} episodes; per-episode \
         values for audit (whole measured phase as timed; set-up and the episode's quiet set at \
         the reference clock, a tick of {} us):",
        spec.slice_ops,
        episodes.len(),
        host::REFERENCE_TICK_US
    );
    crate::print_list("on cpu", &on_cpu);
    crate::print_list("ops_per_s as timed", &of(|e| e.ops_per_s));
    crate::print_list("p50_us as timed", &of(|e| stats::median(&e.samples)));
    crate::print_list("cpu_us_per_op as timed", &of(|e| e.cpu_us_per_op));
    crate::print_list("share of wall time off the CPU", &of(|e| e.idle_share));
    crate::print_list("core-speed tick, us (p10)", &of(|e| e.core_tick_us));
    crate::print_list("core-speed tick in set-up, us", &of(|e| e.stages.tick_us));
    crate::print_list("setup_s", &setup);
    crate::print_list("VmHWM at episode end, MiB", &of(|e| e.end_hwm_mib));
    // One figure of every episode's quiet set (0 where it has none).
    let of_quiet = |f: fn(&Slice) -> f64| -> Vec<f64> {
        episodes
            .iter()
            .map(|e| e.quiet.as_ref().map_or(0.0, f))
            .collect()
    };
    crate::print_list("quiet ops_per_s", &of_quiet(|q| q.ops_per_s));
    crate::print_list("quiet p50_us", &of_quiet(|q| q.p50_us));
    crate::print_list("quiet cpu_us_per_op", &of_quiet(|q| q.cpu_us_per_op));
    let stages: Vec<String> = Stages::NAMES
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let per_episode: Vec<f64> = episodes.iter().map(|e| e.stages.parts()[i]).collect();
            format!("{name} {:.4}", stats::median(&per_episode))
        })
        .collect();
    println!(
        "#   set-up stages as timed, median over episodes (s): {}",
        stages.join(" ")
    );
    let mut tally = Tally::default();
    episodes.iter().for_each(|e| tally.add(e.tally));
    let lost: u64 = episodes.iter().map(|e| e.lost_updates).sum();
    println!(
        "# checks: {} attempted, {} acknowledged, {} failed, {} redirects followed, {} acknowledged \
         updates lost across the simulated crash",
        tally.attempted, tally.acked, tally.failed, tally.redirects, lost
    );
    let values = Values::from([
        ("ops_per_s", figures.ops_per_s),
        ("p50_us", figures.p50_us),
        ("cpu_us_per_op", figures.cpu_us_per_op),
        ("setup_s", stats::percentile(&setup, 0.25)),
        // After the first episode only: later episodes inherit whatever
        // the allocator kept of earlier ones (VmHWM creeps from ~80 to
        // ~105 MiB over six episodes of hot_read), which is the harness
        // repeating itself in one process, not the system's footprint.
        ("peak_rss_mb", episodes[0].end_hwm_mib),
    ]);
    Ok(Report {
        correct: tally.failed == 0 && lost == 0 && tally.acked == tally.attempted,
        attempted: tally.attempted,
        failed: tally.failed,
        values,
    })
}
