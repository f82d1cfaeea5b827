//! Integration tests of the live admin plane: an [`AdminServer`]
//! riding next to a [`NetServer`] daemon, scraped over loopback while
//! the data plane is under load.
//!
//! Everything runs on ephemeral ports (port 0), so the suite is safe
//! to run in parallel with itself and in CI sandboxes.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use d2tree::cluster::{
    admin_get, run_load, AdminConfig, AdminServer, LoadConfig, LoadMode, NetMds, NetServer,
    NetServerConfig, RetryPolicy,
};
use d2tree::core::{D2TreeConfig, D2TreeScheme, LocalIndex, Partitioner};
use d2tree::metrics::{ClusterSpec, MdsId, Placement};
use d2tree::namespace::NamespaceTree;
use d2tree::telemetry::export::{parse_metrics_json, MetricsDoc};
use d2tree::telemetry::{names, Registry, Sampler, Tracer};
use d2tree::workload::{Trace, TraceProfile, WorkloadBuilder};

/// Derives the pieces one serving cluster needs (mirrors net_serve.rs).
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

/// Everything a test drives or inspects of one running daemon.
type Stack = (
    Arc<NamespaceTree>,
    Trace,
    Vec<(u64, u16)>,
    Arc<Registry>,
    Arc<NetMds>,
    NetServer,
    AdminServer,
);

/// Starts one daemon plus its admin plane; a fast flight-recorder tick
/// keeps `/health` populated within milliseconds.
fn start_stack(seed: u64, tracer: Option<&Arc<Tracer>>) -> Stack {
    let (tree, trace, placement, owners) = derive(1, seed);
    let registry = Arc::new(Registry::new());
    names::register_all(&registry);
    let mut mds = NetMds::new(
        Arc::clone(&tree),
        placement,
        index_from(&owners),
        MdsId(0),
        Arc::clone(&registry),
    );
    if let Some(tr) = tracer {
        mds = mds.with_tracer(Arc::clone(tr));
    }
    let mds = Arc::new(mds);
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&mds), NetServerConfig::default())
        .expect("bind data plane");
    let admin = AdminServer::bind(
        "127.0.0.1:0",
        Arc::clone(&mds),
        AdminConfig {
            tick_interval: Duration::from_millis(20),
            ..AdminConfig::default()
        },
    )
    .expect("bind admin plane");
    (tree, trace, owners, registry, mds, server, admin)
}

fn load_cfg(addrs: Vec<String>, conns: usize, ops: usize) -> LoadConfig {
    LoadConfig {
        addrs,
        conns,
        ops,
        mode: LoadMode::Closed,
        timeout: Duration::from_secs(2),
        retry: RetryPolicy::default(),
        seed: 7,
        pipeline: 1,
    }
}

const GET_TIMEOUT: Duration = Duration::from_secs(2);

/// Total server-observed requests in a parsed `/metrics.json`.
fn srv_ops(doc: &MetricsDoc) -> u64 {
    doc.histogram_count_where(|n| n.starts_with("srv_latency_us_"))
}

#[test]
fn mid_load_scrapes_see_monotone_histograms_and_healthy_rules() {
    let (tree, trace, owners, registry, mds, server, admin) = start_stack(11, None);
    let admin_addr = admin.local_addr().to_string();
    let ops = 4_000usize;
    let cfg = load_cfg(vec![server.local_addr().to_string()], 3, ops);
    let load = {
        let tree = Arc::clone(&tree);
        let registry = Arc::clone(&registry);
        let index = index_from(&owners);
        let trace = trace.clone();
        std::thread::spawn(move || run_load(&cfg, &tree, &index, &trace, &registry, None))
    };

    // Scrape while the load is in flight: per-op histogram counts must
    // only ever grow, and a healthy daemon must answer /health with 200.
    let mut totals = Vec::new();
    let mut healths = Vec::new();
    while !load.is_finished() {
        let (status, body) = admin_get(&admin_addr, "/metrics.json", GET_TIMEOUT).expect("scrape");
        assert_eq!(status, 200, "{body}");
        let doc = parse_metrics_json(&body).expect("exporter output parses");
        totals.push(srv_ops(&doc));
        let (hstatus, hbody) = admin_get(&admin_addr, "/health", GET_TIMEOUT).expect("health");
        healths.push((hstatus, hbody));
        std::thread::sleep(Duration::from_millis(5));
    }
    let report = load.join().expect("load generator panicked");
    assert_eq!(report.completed, ops as u64, "errors: {}", report.errors);

    assert!(
        totals.windows(2).all(|w| w[0] <= w[1]),
        "histogram counts must be monotone under concurrent scrape: {totals:?}"
    );
    let (final_status, final_body) =
        admin_get(&admin_addr, "/metrics.json", GET_TIMEOUT).expect("final scrape");
    assert_eq!(final_status, 200);
    let final_doc = parse_metrics_json(&final_body).expect("final scrape parses");
    assert_eq!(
        srv_ops(&final_doc),
        ops as u64,
        "every served op lands in exactly one latency lane"
    );
    // A loopback closed loop is fast; the scrape cadence still has to
    // catch the counters mid-climb at least once.
    assert!(
        totals.iter().any(|&t| t > 0 && t < ops as u64),
        "no scrape observed the run in flight: {totals:?}"
    );
    // Owner-routed single-daemon load breaks no flight-recorder rule.
    for (status, body) in &healths {
        assert_eq!(*status, 200, "healthy load must never see 503: {body}");
    }
    let (hstatus, hbody) = admin_get(&admin_addr, "/health", GET_TIMEOUT).expect("health");
    assert_eq!(hstatus, 200, "{hbody}");
    assert!(hbody.contains("\"status\":\"ok\""), "{hbody}");

    // The Prometheus rendering carries the same families.
    let (pstatus, ptext) = admin_get(&admin_addr, "/metrics", GET_TIMEOUT).expect("prometheus");
    assert_eq!(pstatus, 200);
    assert!(
        ptext.contains("d2tree_srv_latency_us_read_ok_count"),
        "{ptext}"
    );
    assert!(ptext.contains("d2tree_net_active_conns"), "{ptext}");

    let stats = admin.shutdown();
    assert!(stats.scrapes >= totals.len() as u64 * 2);
    assert_eq!(mds.served(), ops as u64);
    let _ = server.shutdown();
}

#[test]
fn trace_and_slow_endpoints_expose_served_requests() {
    let tracer = Arc::new(Tracer::new(Sampler::always(0)));
    let (tree, trace, owners, registry, _mds, server, admin) = start_stack(23, Some(&tracer));
    let admin_addr = admin.local_addr().to_string();
    // One connection and >SEAL_SPANS ops: the daemon's conn thread
    // records a serve span per trailered request, so its local span
    // buffer seals at least one segment — which is what /trace reads.
    let ops = 2_000usize;
    let cfg = load_cfg(vec![server.local_addr().to_string()], 1, ops);
    let report = run_load(
        &cfg,
        &tree,
        &index_from(&owners),
        &trace,
        &registry,
        Some(&tracer),
    );
    assert_eq!(report.completed, ops as u64);

    // Segments seal in cross-thread timing order and the daemon's conn
    // thread flushes its tail on EOF, slightly after run_load returns —
    // so ask for a deep tail and poll briefly for that flush to land.
    let mut body = String::new();
    for _ in 0..100 {
        let (status, b) = admin_get(&admin_addr, "/trace?n=4096", GET_TIMEOUT).expect("trace");
        assert_eq!(status, 200);
        assert!(b.contains("\"traceEvents\":["), "{b}");
        body = b;
        if body.contains("\"serve\"") {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        body.contains("\"serve\""),
        "sealed serve spans must be visible: {body}"
    );

    let (sstatus, sbody) = admin_get(&admin_addr, "/slow", GET_TIMEOUT).expect("slow");
    assert_eq!(sstatus, 200);
    assert!(sbody.contains("\"dur_us\":"), "{sbody}");

    let _ = admin.shutdown();
    let _ = server.shutdown();
}

#[test]
fn shutdown_mid_scrape_drops_only_the_scrape_connection() {
    let (tree, trace, owners, registry, _mds, server, admin) = start_stack(31, None);

    // A scraper that has sent only half its request head when the
    // admin plane goes away…
    let mut stalled = TcpStream::connect(admin.local_addr()).expect("connect admin");
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    stalled.write_all(b"GET /metr").expect("partial head");
    let _ = admin.shutdown();

    // …gets its connection dropped (EOF or reset, never a hang)…
    let mut rest = Vec::new();
    let drained = stalled.read_to_end(&mut rest);
    assert!(
        drained.is_err() || rest.is_empty() || String::from_utf8_lossy(&rest).starts_with("HTTP/"),
        "a half-sent scrape must be dropped or answered, got {rest:?}"
    );

    // …while the data plane keeps serving as if nothing happened.
    let ops = 300usize;
    let cfg = load_cfg(vec![server.local_addr().to_string()], 2, ops);
    let report = run_load(&cfg, &tree, &index_from(&owners), &trace, &registry, None);
    assert_eq!(report.completed, ops as u64, "errors: {}", report.errors);
    let _ = server.shutdown();
}

/// Sends `raw` as-is and returns the status code of the answer.
fn raw_request(addr: std::net::SocketAddr, raw: &[u8]) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect admin");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    stream.write_all(raw).expect("send request");
    stream.shutdown(std::net::Shutdown::Write).ok();
    let mut resp = String::new();
    stream.read_to_string(&mut resp).expect("read response");
    resp.split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {resp:?}"))
}

#[test]
fn admin_protocol_rejects_garbage_with_the_right_status_codes() {
    let (_tree, _trace, _owners, registry, _mds, server, admin) = start_stack(41, None);
    let addr = admin.local_addr();

    // Garbled request line → 400.
    assert_eq!(raw_request(addr, b"this is not http\r\n\r\n"), 400);
    // Non-UTF8 head → 400.
    assert_eq!(raw_request(addr, b"GET /\xff\xfe HTTP/1.0\r\n\r\n"), 400);
    // Relative path → 400.
    assert_eq!(raw_request(addr, b"GET metrics HTTP/1.0\r\n\r\n"), 400);
    // Oversized path → 414 (AdminConfig::max_path defaults to 1 KiB).
    let long = format!("GET /{} HTTP/1.0\r\n\r\n", "x".repeat(4_096));
    assert_eq!(raw_request(addr, long.as_bytes()), 414);
    // Non-GET method → 405.
    assert_eq!(raw_request(addr, b"POST /metrics HTTP/1.0\r\n\r\n"), 405);
    // Unknown endpoint → 404.
    assert_eq!(raw_request(addr, b"GET /nope HTTP/1.0\r\n\r\n"), 404);
    // Bare-newline head separators are accepted.
    assert_eq!(raw_request(addr, b"GET /health HTTP/1.0\n\n"), 200);

    let stats = admin.shutdown();
    assert!(stats.errors >= 6, "rejections must be counted: {stats:?}");
    let _ = server.shutdown();

    // Rejections land in the error counter, not the scrape counter.
    let snap = registry.snapshot();
    let counter = |n: &str| {
        snap.counters
            .iter()
            .find(|(k, _)| k.name == n)
            .map_or(0, |(_, v)| *v)
    };
    assert!(counter(names::ADMIN_ERRORS_TOTAL) >= 6);
    assert_eq!(counter(names::ADMIN_SCRAPES_TOTAL), 1);
}

#[test]
fn one_byte_at_a_time_requests_still_parse() {
    let (_tree, _trace, _owners, _registry, _mds, server, admin) = start_stack(53, None);

    // Mirrors the FrameReader boundary tests: a client dribbling its
    // request one byte per write must still get a full answer.
    let mut stream = TcpStream::connect(admin.local_addr()).expect("connect admin");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    for b in b"GET /metrics.json HTTP/1.0\r\n\r\n" {
        stream.write_all(&[*b]).expect("dribble byte");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut resp = String::new();
    stream.read_to_string(&mut resp).expect("read response");
    assert!(resp.starts_with("HTTP/1.0 200 OK"), "{resp}");
    let body = resp.split("\r\n\r\n").nth(1).expect("body present");
    assert!(
        parse_metrics_json(body).is_some(),
        "dribbled request must yield a parseable document: {body:?}"
    );

    let _ = admin.shutdown();
    let _ = server.shutdown();
}
