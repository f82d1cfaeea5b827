//! The socket-side commands: `serve` (one MDS daemon), `load` (the
//! load generator) and `top` (the admin-plane poller).

use std::sync::Arc;
use std::time::Duration;

use d2tree_cluster::{
    admin_get, run_load, AdminConfig, AdminServer, LoadConfig, LoadMode, NetMds, NetServer,
    NetServerConfig, RetryPolicy,
};
use d2tree_core::{D2TreeConfig, D2TreeScheme, LocalIndex, Partitioner};
use d2tree_metrics::{ClusterSpec, MdsId, Placement};
use d2tree_namespace::NamespaceTree;
use d2tree_store::StoreConfig;
use d2tree_telemetry::export::{parse_metrics_json, MetricsDoc};
use d2tree_telemetry::trace::{Sampler, Tracer};
use d2tree_telemetry::{json, names, Registry};
use d2tree_workload::{Trace, WorkloadBuilder};

use crate::opts::{profile_by_name, Opts};
use crate::CliError;

/// Derives the cluster both sides of the TCP serving layer agree on:
/// the synthetic tree + trace from the workload flags, and the D2-Tree
/// placement/local-index built over that trace's popularity. `serve`
/// and `load` must be given identical --profile/--nodes/--ops/--seed/
/// --gl/--mds values — the placement depends on trace popularity, so a
/// mismatched client would route at a cluster nobody is serving.
fn derive_cluster(
    opts: &Opts,
) -> Result<(Arc<NamespaceTree>, Trace, Placement, LocalIndex, usize), CliError> {
    let profile = profile_by_name(opts.get("profile").unwrap_or("dtr"))?
        .with_nodes(opts.num("nodes", 2_000usize)?)
        .with_operations(opts.num("ops", 10_000usize)?);
    let seed = opts.num("seed", 42u64)?;
    let gl = opts.num("gl", 0.01f64)?;
    let m = opts.num("mds", 1usize)?;
    if m == 0 {
        return Err(CliError::Usage("--mds must be at least 1".to_owned()));
    }
    let workload = WorkloadBuilder::new(profile).seed(seed).build();
    let tree = Arc::new(workload.tree);
    let trace = workload.trace;
    let pop = trace.popularity(&tree);
    let mut scheme = D2TreeScheme::new(D2TreeConfig::by_proportion(gl).with_seed(seed));
    scheme.build(&tree, &pop, &ClusterSpec::homogeneous(m, 1.0));
    let placement = scheme.placement().clone();
    let index = scheme.local_index().clone();
    Ok((tree, trace, placement, index, m))
}

pub(crate) fn cmd_serve(opts: &Opts) -> Result<String, CliError> {
    let (tree, _trace, placement, index, m) = derive_cluster(opts)?;
    let mds_id = opts.num("mds-id", 0u16)?;
    if usize::from(mds_id) >= m {
        return Err(CliError::Usage(format!(
            "--mds-id {mds_id} is outside the {m}-MDS derivation (see --mds)"
        )));
    }
    let addr = opts.get("addr").unwrap_or("127.0.0.1:0");
    let duration_ms = opts.num("duration-ms", 0u64)?;
    let sample = opts.num("sample", 0.0f64)?;
    let seed = opts.num("seed", 42u64)?;
    let store_root = opts.get("store-root");
    let port_file = opts.get("port-file");
    let admin_addr = opts.get("admin-addr");
    let admin_port_file = opts.get("admin-port-file");
    let admin_tick = Duration::from_millis(opts.num("admin-tick-ms", 250u64)?);
    if admin_addr.is_none() && admin_port_file.is_some() {
        return Err(CliError::Usage(
            "--admin-port-file needs --admin-addr".to_owned(),
        ));
    }
    // Before anything binds: a daemon never returns to `run`'s check.
    opts.reject_unread()?;

    let registry = Arc::new(Registry::new());
    names::register_all(&registry);
    let mut mds = NetMds::new(
        Arc::clone(&tree),
        placement,
        index,
        MdsId(mds_id),
        Arc::clone(&registry),
    );
    if sample > 0.0 {
        mds = mds.with_tracer(Arc::new(Tracer::new(Sampler::new(seed, sample))));
    }
    if let Some(root) = store_root {
        mds = mds.with_store_root(std::path::Path::new(root), StoreConfig::default());
    }
    let mds = Arc::new(mds);
    let server = NetServer::bind(addr, Arc::clone(&mds), NetServerConfig::default())?;
    let bound = server.local_addr();
    if let Some(port_file) = port_file {
        write_port_file(port_file, &bound.to_string())?;
    }
    let admin = admin_addr
        .map(|admin_addr| {
            let config = AdminConfig {
                tick_interval: admin_tick,
                ..AdminConfig::default()
            };
            AdminServer::bind(admin_addr, Arc::clone(&mds), config)
        })
        .transpose()?;
    if let (Some(admin), Some(port_file)) = (&admin, admin_port_file) {
        write_port_file(port_file, &admin.local_addr().to_string())?;
    }
    if duration_ms == 0 {
        // Daemon mode: serve until the process is killed. (`park` can
        // wake spuriously, hence the loop.)
        loop {
            std::thread::park();
        }
    }
    std::thread::sleep(Duration::from_millis(duration_ms));
    // Admin first: its ticker samples the MDS, so stop the scrape plane
    // before tearing the data plane down.
    let admin_line = match admin {
        Some(admin) => {
            let admin_bound = admin.local_addr();
            let stats = admin.shutdown();
            format!(
                "admin on {admin_bound}: {} scrapes, {} errors\n",
                stats.scrapes, stats.errors
            )
        }
        None => String::new(),
    };
    mds.sync();
    let served = mds.served();
    let redirects = mds.redirects();
    let stats = server.shutdown();
    Ok(format!(
        "mds {mds_id} served on {bound} for {duration_ms} ms\n\
         served: {served} ops, redirects: {redirects}\n\
         connections: {}, frames: {}, decode errors: {}, resets: {}\n{admin_line}",
        stats.conns, stats.frames, stats.decode_errors, stats.conn_resets
    ))
}

/// Writes `addr` to `path` via write-then-rename so a polling reader
/// never sees a half-written address.
fn write_port_file(path: &str, addr: &str) -> Result<(), CliError> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, format!("{addr}\n"))?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Total server-observed requests: every lane of the op × outcome matrix.
fn srv_ops(doc: &MetricsDoc) -> u64 {
    doc.histogram_count_where(|n| n.starts_with("srv_latency_us_"))
}

/// A `/health` field as text; `n/a` when absent or `null` (the recorder
/// serialises NaN/∞ as null).
fn health_field<'a>(body: &'a str, key: &str) -> &'a str {
    match json::field(body, key) {
        None | Some("null" | "") => "n/a",
        Some(token) => token,
    }
}

/// One refresh line of `d2tree top`: ops/s from scrape-to-scrape count
/// deltas, quantiles from the busiest server-side histogram lane,
/// Def. 3/5 and status from `/health`.
fn top_line(doc: &MetricsDoc, prev: Option<&MetricsDoc>, health: &(u16, String)) -> String {
    let ops = srv_ops(doc);
    let redirects =
        doc.histogram_count_where(|n| n.starts_with("srv_latency_us_") && n.ends_with("_redirect"));
    let (delta_ops, delta_us) = match prev {
        // First refresh: rate over the daemon's whole lifetime.
        None => (ops, doc.uptime_us),
        Some(p) => (
            ops.saturating_sub(srv_ops(p)),
            doc.uptime_us.saturating_sub(p.uptime_us),
        ),
    };
    let rate = delta_ops as f64 / (delta_us.max(1) as f64 / 1e6);
    let busiest = doc
        .histograms
        .iter()
        .filter(|(name, _, _)| name.starts_with("srv_latency_us_"))
        .max_by_key(|(_, _, h)| h.count);
    let (p50, p99) = busiest.map_or((0, 0), |(_, _, h)| (h.p50, h.p99));
    let redirect_pct = if ops == 0 {
        0.0
    } else {
        redirects as f64 * 100.0 / ops as f64
    };
    let (health_status, health_body) = health;
    format!(
        "up {:>8.1}s  ops {ops} ({rate:.0}/s)  redirects {redirect_pct:.1}%  conns {}  \
         srv p50 {p50} µs  p99 {p99} µs  locality {}  balance {}  health {}",
        doc.uptime_us as f64 / 1e6,
        doc.gauge(names::NET_ACTIVE_CONNS),
        health_field(health_body, "locality"),
        health_field(health_body, "balance"),
        if *health_status == 200 {
            "ok"
        } else {
            "UNHEALTHY"
        },
    )
}

pub(crate) fn cmd_top(opts: &Opts) -> Result<String, CliError> {
    let addr = opts.required("admin-addr")?.to_owned();
    let refresh = Duration::from_millis(opts.num("refresh-ms", 1_000u64)?);
    let iters = opts.num("iters", 0u64)?;
    let timeout = Duration::from_millis(opts.num("timeout-ms", 2_000u64)?);
    // Before the loop: streaming mode never returns to `run`'s check.
    opts.reject_unread()?;
    let mut out = String::new();
    let mut prev: Option<MetricsDoc> = None;
    let mut refreshes = 0u64;
    loop {
        let (status, body) = admin_get(&addr, "/metrics.json", timeout)?;
        if status != 200 {
            return Err(CliError::Bench(format!(
                "admin plane at {addr} answered /metrics.json with HTTP {status}"
            )));
        }
        let doc = parse_metrics_json(&body).ok_or_else(|| {
            CliError::Bench(format!(
                "admin plane at {addr} returned an unparsable /metrics.json"
            ))
        })?;
        let health = admin_get(&addr, "/health", timeout)?;
        let line = top_line(&doc, prev.as_ref(), &health);
        if iters == 0 {
            // Streaming mode: the loop never returns, so print live.
            println!("{line}");
        } else {
            out.push_str(&line);
            out.push('\n');
        }
        prev = Some(doc);
        refreshes += 1;
        if iters > 0 && refreshes >= iters {
            return Ok(out);
        }
        std::thread::sleep(refresh);
    }
}

pub(crate) fn cmd_load(opts: &Opts) -> Result<String, CliError> {
    // Every flag is read, and a stray one rejected, before the first
    // complaint about a missing one and before any connection opens.
    let (tree, trace, _placement, index, _m) = derive_cluster(opts)?;
    let addr_list = opts.get("addr");
    let conns = opts.num("conns", 4usize)?;
    let count = opts.num("count", trace.len())?;
    let qps = opts.num("qps", 2_000.0f64)?;
    let timeout = Duration::from_millis(opts.num("timeout-ms", 2_000u64)?);
    let seed = opts.num("seed", 42u64)?;
    let check_p99_us = opts.num("check-p99-us", 0u64)?;
    let mode = opts.get("mode").unwrap_or("closed");
    let pipeline_list = opts.get("pipeline").unwrap_or("1");
    opts.reject_unread()?;

    let addrs: Vec<String> = addr_list
        .ok_or_else(|| CliError::Usage("missing required --addr".to_owned()))?
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(ToOwned::to_owned)
        .collect();
    if addrs.is_empty() {
        return Err(CliError::Usage(
            "--addr needs at least one ip:port".to_owned(),
        ));
    }
    if conns == 0 {
        return Err(CliError::Usage("--conns must be at least 1".to_owned()));
    }
    if qps <= 0.0 {
        return Err(CliError::Usage("--qps must be positive".to_owned()));
    }
    let modes: Vec<(&str, LoadMode)> = match mode {
        "closed" => vec![("closed", LoadMode::Closed)],
        "open" => vec![("open", LoadMode::Open { target_qps: qps })],
        "both" => vec![
            ("closed", LoadMode::Closed),
            ("open", LoadMode::Open { target_qps: qps }),
        ],
        other => {
            return Err(CliError::Usage(format!(
                "--mode expects closed, open or both, got {other:?}"
            )))
        }
    };
    let pipelines: Vec<usize> = pipeline_list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse::<usize>().map_err(|_| {
                CliError::Usage(format!(
                    "--pipeline expects a comma list of depths, got {s:?}"
                ))
            })
        })
        .collect::<Result<_, _>>()?;
    if pipelines.is_empty() || pipelines.contains(&0) {
        return Err(CliError::Usage(
            "--pipeline needs at least one depth, every depth ≥ 1".to_owned(),
        ));
    }

    let registry = Arc::new(Registry::new());
    names::register_all(&registry);
    let mut text = String::new();
    let mut failures = Vec::new();
    let mut dead_sections = Vec::new();
    for (mode_name, mode) in &modes {
        for &pipeline in &pipelines {
            let name = if pipeline == 1 {
                (*mode_name).to_owned()
            } else {
                format!("{mode_name}_p{pipeline}")
            };
            let cfg = LoadConfig {
                addrs: addrs.clone(),
                conns,
                ops: count,
                mode: *mode,
                timeout,
                retry: RetryPolicy::default(),
                seed,
                pipeline,
            };
            let report = run_load(&cfg, &tree, &index, &trace, &registry, None);
            text.push_str(&format!(
                "{name}: {}/{} ops over {conns} conn(s) in {:.2} s — {:.0} ops/s, \
                 p50 {} µs, p99 {} µs ({} redirects, {} errors)\n",
                report.completed,
                report.attempted,
                report.elapsed.as_secs_f64(),
                report.achieved_qps,
                report.latency.p50,
                report.latency.p99,
                report.redirects_followed,
                report.reconnects + report.errors,
            ));
            if report.completed == 0 {
                dead_sections.push(name);
            } else if check_p99_us > 0 && report.latency.p99 > check_p99_us {
                failures.push(format!(
                    "{name}: p99 {} µs exceeds the {check_p99_us} µs ceiling",
                    report.latency.p99
                ));
            }
        }
    }
    // A section that completed nothing measured nothing, whatever its
    // percentiles say: that is a failed run, not a fast one.
    if !dead_sections.is_empty() {
        return Err(CliError::Bench(format!(
            "zero operations completed in section(s) {}\n\n{text}",
            dead_sections.join(", ")
        )));
    }
    if !failures.is_empty() {
        return Err(CliError::Bench(failures.join("; ")));
    }
    if check_p99_us > 0 {
        text.push_str(&format!(
            "check passed: every mode's p99 is under {check_p99_us} µs\n"
        ));
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use crate::test_support::{args, tmp_prefix};
    use crate::{run, CliError};

    #[test]
    fn serve_load_loopback_roundtrip() {
        let port_file = format!("{}.port", tmp_prefix("serve"));
        // A single-MDS derivation: one daemon owns every subtree, so the
        // load run must complete all ops. (Redirect-following across two
        // daemons is exercised in tests/net_serve.rs.)
        let shared = [
            "--profile",
            "dtr",
            "--nodes",
            "300",
            "--ops",
            "600",
            "--seed",
            "7",
            "--mds",
            "1",
        ];

        let server = {
            let port_file = port_file.clone();
            std::thread::spawn(move || {
                let mut a = args(&[
                    "serve",
                    "--addr",
                    "127.0.0.1:0",
                    "--mds-id",
                    "0",
                    "--duration-ms",
                    "4000",
                    "--port-file",
                    &port_file,
                ]);
                a.extend(args(&shared));
                run(&a).unwrap()
            })
        };

        // The daemon writes the bound address once it is listening.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let addr = loop {
            if let Ok(s) = std::fs::read_to_string(&port_file) {
                break s.trim().to_owned();
            }
            assert!(
                std::time::Instant::now() < deadline,
                "port file never appeared"
            );
            std::thread::sleep(Duration::from_millis(20));
        };

        let mut a = args(&[
            "load",
            "--addr",
            &addr,
            "--conns",
            "2",
            "--count",
            "400",
            "--mode",
            "both",
            "--qps",
            "800",
            "--check-p99-us",
            "2000000",
        ]);
        a.extend(args(&shared));
        let out = run(&a).unwrap();
        assert!(out.contains("closed: 400/400 ops"), "{out}");
        assert!(out.contains("open: 400/400 ops"), "{out}");
        assert!(out.contains("check passed"), "{out}");

        let served = server.join().unwrap();
        assert!(served.contains("mds 0 served"), "{served}");

        // A mismatched --mds-id must be rejected before binding anything.
        assert!(matches!(
            run(&args(&["serve", "--mds-id", "9", "--nodes", "200", "--ops", "200"])),
            Err(CliError::Usage(msg)) if msg.contains("--mds-id")
        ));
        assert!(matches!(
            run(&args(&["load", "--conns", "2"])),
            Err(CliError::Usage(msg)) if msg.contains("--addr")
        ));

        let _ = std::fs::remove_file(&port_file);
    }

    #[test]
    fn load_against_a_dead_port_names_the_dead_sections() {
        // Bind then drop: a loopback port nobody listens on.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .to_string();
        let err = run(&args(&[
            "load",
            "--addr",
            &addr,
            "--nodes",
            "200",
            "--ops",
            "200",
            "--conns",
            "1",
            "--count",
            "1",
            "--mode",
            "both",
            "--timeout-ms",
            "100",
            "--check-p99-us",
            "2000000",
        ]));
        assert!(
            matches!(&err, Err(CliError::Bench(msg))
                if msg.contains("zero operations completed in section(s) closed, open")),
            "{err:?}"
        );
    }

    /// Polls a `--port-file` until the daemon writes the bound address.
    fn wait_port_file(path: &str) -> String {
        for _ in 0..200 {
            if let Ok(addr) = std::fs::read_to_string(path) {
                let addr = addr.trim().to_owned();
                if !addr.is_empty() {
                    return addr;
                }
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        panic!("daemon never wrote {path}");
    }

    #[test]
    fn serve_admin_load_and_top_round_trip() {
        let prefix = tmp_prefix("adminplane");
        let port_file = format!("{prefix}.port");
        let admin_port_file = format!("{prefix}.admin.port");
        let serve = {
            let (port_file, admin_port_file) = (port_file.clone(), admin_port_file.clone());
            std::thread::spawn(move || {
                run(&args(&[
                    "serve",
                    "--nodes",
                    "300",
                    "--ops",
                    "1500",
                    "--duration-ms",
                    "6000",
                    "--port-file",
                    &port_file,
                    "--admin-addr",
                    "127.0.0.1:0",
                    "--admin-port-file",
                    &admin_port_file,
                    "--admin-tick-ms",
                    "50",
                ]))
            })
        };
        let addr = wait_port_file(&port_file);
        let admin_addr = wait_port_file(&admin_port_file);

        let out = run(&args(&[
            "load", "--nodes", "300", "--ops", "1500", "--addr", &addr, "--conns", "2",
        ]))
        .unwrap();
        assert!(out.contains("closed: 1500/1500 ops"), "{out}");

        // `top` renders bounded refreshes with the served ops visible.
        let top = run(&args(&[
            "top",
            "--admin-addr",
            &admin_addr,
            "--iters",
            "2",
            "--refresh-ms",
            "50",
        ]))
        .unwrap();
        assert_eq!(top.lines().count(), 2, "{top}");
        for line in top.lines() {
            assert!(line.contains("ops 1500"), "the load pass is visible: {top}");
            assert!(line.contains("health ok"), "{top}");
            assert!(line.contains("srv p50"), "{top}");
        }

        let summary = serve.join().expect("serve thread panicked").unwrap();
        assert!(summary.contains("served: 1500 ops"), "{summary}");
        assert!(summary.contains("admin on "), "{summary}");
        assert!(summary.contains(" scrapes"), "{summary}");
        for f in [port_file, admin_port_file] {
            let _ = std::fs::remove_file(f);
        }
    }
}
