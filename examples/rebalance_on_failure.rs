//! Fail-over demo on the live multi-threaded cluster: start an MDS
//! cluster, drive client load, crash a server mid-run and watch the
//! Monitor detect the failure and re-home its metadata. Exits non-zero
//! if any node is still homed on the dead server.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example rebalance_on_failure
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use d2tree::cluster::live::{LiveCluster, LiveConfig};
use d2tree::core::{D2TreeConfig, D2TreeScheme, Partitioner};
use d2tree::metrics::{ClusterSpec, MdsId};
use d2tree::telemetry::{names, MetricKey};
use d2tree::workload::{TraceProfile, WorkloadBuilder};

fn main() -> ExitCode {
    let workload =
        WorkloadBuilder::new(TraceProfile::ra().with_nodes(2_000).with_operations(4_000))
            .seed(5)
            .build();
    let pop = workload.popularity();
    let cluster_spec = ClusterSpec::homogeneous(4, 1.0);
    let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default());
    scheme.build(&workload.tree, &pop, &cluster_spec);

    let tree = Arc::new(workload.tree);
    println!("starting a live 4-MDS cluster…");
    let cluster = LiveCluster::start_with_index(
        Arc::clone(&tree),
        scheme.placement().clone(),
        scheme.local_index().clone(),
        LiveConfig::default(),
    );
    std::thread::sleep(Duration::from_millis(100)); // let everyone heartbeat

    let mut client = cluster.client(1);
    let mut ok = 0usize;
    for op in workload.trace.iter().take(1_000) {
        if client.execute(*op).is_ok() {
            ok += 1;
        }
    }
    println!("phase 1: {ok}/1000 operations served across 4 servers");

    let victim = MdsId(1);
    println!("\ncrash-stopping {victim}…");
    cluster.kill(victim);
    // Give the Monitor a chance to miss heartbeats, declare the failure
    // and re-home the victim's metadata.
    std::thread::sleep(Duration::from_millis(400));

    let started = Instant::now();
    let mut ok = 0usize;
    let mut failed = 0usize;
    for op in workload.trace.iter().skip(1_000).take(1_000) {
        match client.execute(*op) {
            Ok(_) => ok += 1,
            Err(_) => failed += 1,
        }
    }
    println!(
        "phase 2 (during/after fail-over, {:?} elapsed): {ok} served, {failed} failed",
        started.elapsed()
    );

    // Check that nothing is still assigned to the dead server.
    let placement = cluster.placement_snapshot();
    let orphaned = tree
        .nodes()
        .filter(|(id, _)| placement.assignment(*id).owner() == Some(victim))
        .count();
    println!("nodes still homed on the dead server: {orphaned}");

    // One-line per-MDS utilization from the telemetry registry: each
    // server's share of the cluster-wide served total.
    let registry = cluster.registry().clone();
    let served: Vec<u64> = (0..4)
        .map(|k| {
            registry
                .counter(MetricKey::mds(names::SERVER_SERVED_TOTAL, k))
                .get()
        })
        .collect();
    let total = served.iter().sum::<u64>().max(1) as f64;
    let util: Vec<String> = served
        .iter()
        .enumerate()
        .map(|(k, &s)| format!("mds{k} {:.0}%", 100.0 * s as f64 / total))
        .collect();
    println!("per-MDS utilization: {}", util.join("  "));

    let report = cluster.shutdown();
    println!("\nper-server served counts: {:?}", report.served);
    println!("membership events: {:?}", report.events);
    let failures = report
        .journal
        .iter()
        .filter(|e| matches!(e.kind, d2tree::telemetry::EventKind::MdsDown { .. }))
        .count();
    let claims = report
        .journal
        .iter()
        .filter(|e| matches!(e.kind, d2tree::telemetry::EventKind::SubtreeClaimed { .. }))
        .count();
    println!(
        "journal: {} events ({failures} failures, {claims} subtree claims)",
        report.journal.len()
    );
    if orphaned == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
