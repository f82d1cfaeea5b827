//! Integration tests of the real TCP serving layer: a [`NetServer`]
//! daemon fronting live MDS logic over the length-prefixed frame codec,
//! driven by the multi-connection load generator.
//!
//! Everything runs over loopback on ephemeral ports (port 0), so the
//! suite is safe to run in parallel with itself and in CI sandboxes.

use std::sync::Arc;
use std::time::Duration;

use d2tree::cluster::{
    run_load, LoadConfig, LoadMode, NetMds, NetServer, NetServerConfig, RetryPolicy,
};
use d2tree::core::{D2TreeConfig, D2TreeScheme, LocalIndex, Partitioner};
use d2tree::metrics::{ClusterSpec, MdsId, Placement};
use d2tree::namespace::NamespaceTree;
use d2tree::telemetry::trace::span_names;
use d2tree::telemetry::{names, Registry, Sampler, Tracer};
use d2tree::workload::{Trace, TraceProfile, WorkloadBuilder};

/// Derives the pieces one serving cluster needs: the synthetic tree and
/// trace, the D2-Tree placement over the trace's popularity, and a
/// fresh owner index per call site (the index is not `Clone`).
fn derive(m: usize, seed: u64) -> (Arc<NamespaceTree>, Trace, Placement, Vec<(u64, u16)>) {
    let w = WorkloadBuilder::new(TraceProfile::dtr().with_nodes(500).with_operations(1_200))
        .seed(seed)
        .build();
    let pop = w.popularity();
    let mut scheme = D2TreeScheme::new(D2TreeConfig::by_proportion(0.01).with_seed(seed));
    scheme.build(&w.tree, &pop, &ClusterSpec::homogeneous(m, 1.0));
    let owners: Vec<(u64, u16)> = scheme
        .local_index()
        .iter()
        .map(|(root, owner)| (root.index() as u64, owner.0))
        .collect();
    (
        Arc::new(w.tree),
        w.trace,
        scheme.placement().clone(),
        owners,
    )
}

fn index_from(owners: &[(u64, u16)]) -> LocalIndex {
    let mut index = LocalIndex::new();
    for &(root, owner) in owners {
        index.insert(
            d2tree::namespace::NodeId::from_index(root as usize),
            MdsId(owner),
        );
    }
    index
}

fn start_mds(
    tree: &Arc<NamespaceTree>,
    placement: &Placement,
    owners: &[(u64, u16)],
    me: u16,
    registry: &Arc<Registry>,
    tracer: Option<&Arc<Tracer>>,
) -> (Arc<NetMds>, NetServer) {
    let mut mds = NetMds::new(
        Arc::clone(tree),
        placement.clone(),
        index_from(owners),
        MdsId(me),
        Arc::clone(registry),
    );
    if let Some(tr) = tracer {
        mds = mds.with_tracer(Arc::clone(tr));
    }
    let mds = Arc::new(mds);
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&mds), NetServerConfig::default())
        .expect("bind ephemeral port");
    (mds, server)
}

fn load_cfg(addrs: Vec<String>, conns: usize, ops: usize, mode: LoadMode) -> LoadConfig {
    LoadConfig {
        addrs,
        conns,
        ops,
        mode,
        timeout: Duration::from_secs(2),
        retry: RetryPolicy::default(),
        seed: 7,
        pipeline: 1,
    }
}

#[test]
fn closed_loop_completes_every_op_over_n_connections() {
    let (tree, trace, placement, owners) = derive(1, 11);
    let registry = Arc::new(Registry::new());
    names::register_all(&registry);
    let (mds, server) = start_mds(&tree, &placement, &owners, 0, &registry, None);

    let conns = 4usize;
    let ops = 800usize;
    let cfg = load_cfg(
        vec![server.local_addr().to_string()],
        conns,
        ops,
        LoadMode::Closed,
    );
    let report = run_load(&cfg, &tree, &index_from(&owners), &trace, &registry, None);

    assert_eq!(report.attempted, ops as u64);
    assert_eq!(report.completed, ops as u64, "errors: {}", report.errors);
    assert_eq!(report.errors, 0);
    assert_eq!(report.latency.count, ops as u64);
    assert!(report.achieved_qps > 0.0);
    assert_eq!(mds.served(), ops as u64);

    let stats = server.shutdown();
    // `net_conns_total` counts both sides of the shared registry: one
    // accept per worker connection plus one client-side connect.
    assert_eq!(stats.conns, 2 * conns as u64);
    // Every op is one request + one response frame, counted on both
    // sides of the socket.
    assert!(stats.frames >= 2 * ops as u64, "frames: {}", stats.frames);
    assert_eq!(stats.decode_errors, 0);
}

#[test]
fn redirects_route_back_to_the_owner_across_two_daemons() {
    let (tree, trace, placement, owners) = derive(2, 23);
    let registry = Arc::new(Registry::new());
    names::register_all(&registry);
    let (mds0, server0) = start_mds(&tree, &placement, &owners, 0, &registry, None);
    let (mds1, server1) = start_mds(&tree, &placement, &owners, 1, &registry, None);
    assert!(
        owners.iter().any(|&(_, o)| o == 0) && owners.iter().any(|&(_, o)| o == 1),
        "derivation must actually split ownership"
    );

    let ops = 600usize;
    let cfg = load_cfg(
        vec![
            server0.local_addr().to_string(),
            server1.local_addr().to_string(),
        ],
        3,
        ops,
        LoadMode::Closed,
    );
    // A client with an EMPTY owner index routes every op at a random
    // daemon; wrong guesses come back as redirects the worker must
    // follow to the advertised owner. Everything still completes.
    let blind = LocalIndex::new();
    let report = run_load(&cfg, &tree, &blind, &trace, &registry, None);

    assert_eq!(report.completed, ops as u64, "errors: {}", report.errors);
    assert!(
        report.redirects_followed > 0,
        "random routing over two daemons must miss sometimes"
    );
    assert!(mds0.served() > 0 && mds1.served() > 0);
    assert_eq!(
        mds0.served() + mds1.served(),
        ops as u64,
        "each op is served exactly once"
    );
    let _ = server0.shutdown();
    let _ = server1.shutdown();
}

#[test]
fn dead_server_surfaces_client_errors_within_the_retry_budget() {
    let (tree, trace, placement, owners) = derive(1, 31);
    let registry = Arc::new(Registry::new());
    names::register_all(&registry);
    let (_mds, server) = start_mds(&tree, &placement, &owners, 0, &registry, None);
    let addr = server.local_addr().to_string();
    let _ = server.shutdown(); // the port is now closed

    let ops = 40usize;
    let mut cfg = load_cfg(vec![addr], 2, ops, LoadMode::Closed);
    cfg.timeout = Duration::from_millis(200);
    cfg.retry = RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(1),
        jitter: Duration::from_millis(1),
        deadline: Duration::from_millis(500),
    };
    let started = std::time::Instant::now();
    let report = run_load(&cfg, &tree, &index_from(&owners), &trace, &registry, None);

    assert_eq!(report.completed, 0);
    assert_eq!(report.errors, ops as u64, "every op fails, none hang");
    // No server ever answered, so every failure is a Timeout (or the
    // per-op deadline fired first) — never a silent stall.
    assert_eq!(
        report.timeouts + report.deadline_exceeded,
        ops as u64,
        "timeouts: {}, deadline: {}",
        report.timeouts,
        report.deadline_exceeded
    );
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "a dead server must fail fast, took {:?}",
        started.elapsed()
    );
}

#[test]
fn killing_the_server_mid_load_never_hangs_the_generator() {
    let (tree, trace, placement, owners) = derive(1, 41);
    let registry = Arc::new(Registry::new());
    names::register_all(&registry);
    let (_mds, server) = start_mds(&tree, &placement, &owners, 0, &registry, None);
    let addr = server.local_addr().to_string();

    let ops = 4_000usize;
    let mut cfg = load_cfg(vec![addr], 2, ops, LoadMode::Closed);
    cfg.timeout = Duration::from_millis(200);
    cfg.retry = RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(1),
        jitter: Duration::from_millis(1),
        deadline: Duration::from_millis(300),
    };
    let load = {
        let tree = Arc::clone(&tree);
        let registry = Arc::clone(&registry);
        let index = index_from(&owners);
        let trace = trace.clone();
        std::thread::spawn(move || run_load(&cfg, &tree, &index, &trace, &registry, None))
    };
    std::thread::sleep(Duration::from_millis(30));
    let _ = server.shutdown();

    let started = std::time::Instant::now();
    let report = load.join().expect("load generator panicked");
    assert_eq!(report.completed + report.errors, ops as u64);
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "generator must drain after the kill, took {:?} past the join",
        started.elapsed()
    );
}

#[test]
fn open_loop_pacing_holds_the_schedule() {
    let (tree, trace, placement, owners) = derive(1, 53);
    let registry = Arc::new(Registry::new());
    names::register_all(&registry);
    let (_mds, server) = start_mds(&tree, &placement, &owners, 0, &registry, None);

    let ops = 300usize;
    let target_qps = 1_000.0;
    let cfg = load_cfg(
        vec![server.local_addr().to_string()],
        2,
        ops,
        LoadMode::Open { target_qps },
    );
    let report = run_load(&cfg, &tree, &index_from(&owners), &trace, &registry, None);

    assert_eq!(report.completed, ops as u64, "errors: {}", report.errors);
    // 300 ops at 1000 ops/s is a 0.3 s schedule; a closed loop over
    // loopback would finish far faster, so elapsed time near the
    // schedule proves the pacer actually held ops back.
    assert!(
        report.elapsed >= Duration::from_millis(250),
        "pacer released too fast: {:?}",
        report.elapsed
    );
    assert!(
        report.achieved_qps <= target_qps * 1.5,
        "achieved {} qps against a {target_qps} target",
        report.achieved_qps
    );
    let _ = server.shutdown();
}

#[test]
fn trace_trailer_links_client_and_server_spans_across_the_socket() {
    let (tree, trace, placement, owners) = derive(1, 67);
    let registry = Arc::new(Registry::new());
    names::register_all(&registry);
    let tracer = Arc::new(Tracer::new(Sampler::always(0)));
    let (_mds, server) = start_mds(&tree, &placement, &owners, 0, &registry, Some(&tracer));

    let ops = 60usize;
    let cfg = load_cfg(
        vec![server.local_addr().to_string()],
        2,
        ops,
        LoadMode::Closed,
    );
    let report = run_load(
        &cfg,
        &tree,
        &index_from(&owners),
        &trace,
        &registry,
        Some(&tracer),
    );
    assert_eq!(report.completed, ops as u64);
    let _ = server.shutdown();

    let spans = tracer.drain();
    let ops_spans: Vec<_> = spans.iter().filter(|s| s.name == span_names::OP).collect();
    let serves: Vec<_> = spans
        .iter()
        .filter(|s| s.name == span_names::SERVE)
        .collect();
    assert_eq!(ops_spans.len(), ops, "one client root span per op");
    assert_eq!(serves.len(), ops, "one server-side serve span per op");
    for serve in &serves {
        assert_eq!(serve.mds, Some(0), "serve spans run on the daemon");
        let parent = serve.parent.expect("serve spans parent on the trailer");
        let root = ops_spans
            .iter()
            .find(|o| o.id == parent)
            .unwrap_or_else(|| panic!("serve span {:?} has no client root", serve.id));
        assert_eq!(
            root.trace, serve.trace,
            "client and server halves share one trace id carried by the wire trailer"
        );
    }
    // Attempt spans (the client-side socket half) also hang off the
    // same roots, completing the client -> socket -> server chain.
    let attempts: Vec<_> = spans
        .iter()
        .filter(|s| s.name == span_names::ATTEMPT)
        .collect();
    assert!(attempts.len() >= ops);
    for a in &attempts {
        let parent = a.parent.expect("attempt spans are children");
        assert!(
            ops_spans
                .iter()
                .any(|o| o.id == parent && o.trace == a.trace),
            "attempt span must chain to a client root"
        );
    }
}

#[test]
fn pipelined_closed_loop_completes_and_batches_on_the_server() {
    let (tree, trace, placement, owners) = derive(1, 31);
    let registry = Arc::new(Registry::new());
    names::register_all(&registry);
    let (mds, server) = start_mds(&tree, &placement, &owners, 0, &registry, None);

    let ops = 800usize;
    let mut cfg = load_cfg(
        vec![server.local_addr().to_string()],
        2,
        ops,
        LoadMode::Closed,
    );
    cfg.pipeline = 8;
    let report = run_load(&cfg, &tree, &index_from(&owners), &trace, &registry, None);

    assert_eq!(report.attempted, ops as u64);
    assert_eq!(report.completed, ops as u64, "errors: {}", report.errors);
    assert_eq!(report.errors, 0);
    assert_eq!(report.latency.count, ops as u64, "latency is still per-op");
    assert_eq!(mds.served(), ops as u64);

    let stats = server.shutdown();
    assert!(
        stats.batches > 0,
        "the batched serve loop must be exercised"
    );
    assert!(
        stats.batches < ops as u64,
        "8-deep bursts over loopback must coalesce: {} batches for {ops} ops",
        stats.batches
    );
    assert_eq!(stats.decode_errors, 0);
}

#[test]
fn pipelined_load_follows_redirects_to_completion() {
    let (tree, trace, placement, owners) = derive(2, 47);
    let registry = Arc::new(Registry::new());
    names::register_all(&registry);
    let (mds0, server0) = start_mds(&tree, &placement, &owners, 0, &registry, None);
    let (mds1, server1) = start_mds(&tree, &placement, &owners, 1, &registry, None);

    let ops = 600usize;
    let mut cfg = load_cfg(
        vec![
            server0.local_addr().to_string(),
            server1.local_addr().to_string(),
        ],
        3,
        ops,
        LoadMode::Closed,
    );
    cfg.pipeline = 8;
    // A blind client pipelines at whichever daemon it guesses; wrong
    // guesses come back as in-window redirects that fall back to the
    // sequential retry path. Everything still completes exactly once.
    let blind = LocalIndex::new();
    let report = run_load(&cfg, &tree, &blind, &trace, &registry, None);

    assert_eq!(report.completed, ops as u64, "errors: {}", report.errors);
    assert!(
        report.redirects_followed > 0,
        "random routing over two daemons must miss sometimes"
    );
    assert_eq!(
        mds0.served() + mds1.served(),
        ops as u64,
        "each op is served exactly once"
    );
    let _ = server0.shutdown();
    let _ = server1.shutdown();
}

#[test]
fn a_misrouted_op_costs_one_redirect_and_two_round_trips_at_any_depth() {
    use d2tree::metrics::Assignment;
    let (tree, trace, placement, owners) = derive(2, 47);
    let registry = Arc::new(Registry::new());
    names::register_all(&registry);
    let (mds0, server0) = start_mds(&tree, &placement, &owners, 0, &registry, None);
    let (mds1, server1) = start_mds(&tree, &placement, &owners, 1, &registry, None);

    // The client's index is wrong about every other subtree of MDS 1:
    // it sends their operations to MDS 0, which redirects them.
    let mut wrong = owners.clone();
    for entry in wrong.iter_mut().filter(|e| e.1 == 1).step_by(2) {
        entry.1 = 0;
    }
    let ops = 600usize;
    let index = index_from(&wrong);
    let misrouted = (0..ops)
        .map(|i| trace.ops()[i % trace.len()].target)
        .filter(|&target| match index.locate(&tree, target) {
            Some((_, guess)) => placement.assignment(target) != Assignment::Single(guess),
            None => false, // global layer: any daemon serves it
        })
        .count() as u64;
    assert!(
        misrouted > 0 && misrouted < ops as u64,
        "the wrong index must misroute some operations and not all: {misrouted}"
    );

    let mut redirected = 0;
    for pipeline in [1usize, 8] {
        // The client counts its frames in a registry of its own.
        let client_registry = Arc::new(Registry::new());
        names::register_all(&client_registry);
        let mut cfg = load_cfg(
            vec![
                server0.local_addr().to_string(),
                server1.local_addr().to_string(),
            ],
            3,
            ops,
            LoadMode::Closed,
        );
        cfg.pipeline = pipeline;
        let report = run_load(&cfg, &tree, &index, &trace, &client_registry, None);

        assert_eq!(report.completed, ops as u64, "depth {pipeline}");
        assert_eq!(report.errors, 0, "depth {pipeline}");
        assert_eq!(report.reconnects, 0, "depth {pipeline}");
        assert_eq!(
            report.redirects_followed, misrouted,
            "depth {pipeline}: one followed redirect per misrouted op"
        );
        // Two requests sent and two responses read for a misrouted op,
        // one of each for the rest: a redirect resumes where it points,
        // it does not start over through the same wrong index.
        let frames = client_registry
            .counter(d2tree::telemetry::MetricKey::global(
                names::NET_FRAMES_TOTAL,
            ))
            .get();
        assert_eq!(frames, 2 * ops as u64 + 2 * misrouted, "depth {pipeline}");
        redirected += misrouted;
        assert_eq!(mds0.redirects() + mds1.redirects(), redirected);
    }
    assert_eq!(mds0.served() + mds1.served(), 2 * ops as u64);
    let _ = server0.shutdown();
    let _ = server1.shutdown();
}
