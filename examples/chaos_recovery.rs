//! Chaos-recovery demo: a live MDS cluster survives a seeded fault
//! schedule — lossy links, a crash-stop, a Monitor-link partition and a
//! rejoin — with the ownership/replication invariants machine-checked
//! at the end, plus a pass through the deterministic chaos engine to
//! show the same schedule replays bit-identically. Exits non-zero if
//! either run's invariants are not clean or the replays differ.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example chaos_recovery
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use d2tree::cluster::live::{LiveCluster, LiveConfig};
use d2tree::cluster::{run_chaos, ChaosConfig, FaultAction, FaultPlan, FaultRule, FaultScope};
use d2tree::core::{D2TreeConfig, D2TreeScheme, Partitioner};
use d2tree::metrics::{ClusterSpec, MdsId};
use d2tree::workload::{TraceProfile, WorkloadBuilder};

fn main() -> ExitCode {
    let seed = 42u64;

    // ── Part 1: live threaded cluster under an adversarial network ──
    let workload =
        WorkloadBuilder::new(TraceProfile::dtr().with_nodes(1_500).with_operations(4_000))
            .seed(seed)
            .build();
    let pop = workload.popularity();
    let cluster_spec = ClusterSpec::homogeneous(4, 1.0);
    let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default());
    scheme.build(&workload.tree, &pop, &cluster_spec);

    // 2% of every message dropped, mds1's links jittery, and mds2 cut
    // off from the Monitor for a 300 ms window mid-run.
    let plan = FaultPlan::new(seed)
        .with_rule(FaultRule::new(FaultScope::AllLinks, FaultAction::Drop).with_probability(0.02))
        .with_rule(
            FaultRule::new(
                FaultScope::Mds(1),
                FaultAction::Delay {
                    fixed_ms: 0,
                    jitter_ms: 2,
                },
            )
            .with_probability(0.10),
        )
        .with_rule(FaultRule::partition(FaultScope::MonitorLink(2), 400, 700));

    let tree = Arc::new(workload.tree);
    println!("starting a live 4-MDS cluster behind a seeded lossy network (seed {seed})…");
    let cluster = LiveCluster::start_with_faults(
        Arc::clone(&tree),
        scheme.placement().clone(),
        scheme.local_index().clone(),
        LiveConfig::default(),
        plan,
    );
    std::thread::sleep(Duration::from_millis(100));

    let mut client = cluster.client(1);
    let mut ok = 0usize;
    for op in workload.trace.iter().take(1_000) {
        if client.execute(*op).is_ok() {
            ok += 1;
        }
    }
    println!("phase 1 (lossy but whole): {ok}/1000 operations served");

    let victim = MdsId(1);
    println!("\ncrash-stopping {victim}…");
    cluster.kill(victim);
    std::thread::sleep(Duration::from_millis(400));
    let mut ok = 0usize;
    for op in workload.trace.iter().skip(1_000).take(1_000) {
        if client.execute(*op).is_ok() {
            ok += 1;
        }
    }
    println!("phase 2 (one server down, ownership re-homed): {ok}/1000 served");

    println!("\nrestarting {victim} — GL re-sync through the lock service, then rejoin…");
    cluster.restart(victim);
    let deadline = Instant::now() + Duration::from_secs(5);
    let violations = loop {
        let v = cluster.check_invariants();
        if v.is_empty() || Instant::now() >= deadline {
            break v;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let live_clean = violations.is_empty();
    match live_clean {
        true => println!("invariants: clean (single live owner per subtree, GL converged)"),
        false => println!("invariants: VIOLATED: {violations:#?}"),
    }

    let mut ok = 0usize;
    for op in workload.trace.iter().skip(2_000).take(1_000) {
        if client.execute(*op).is_ok() {
            ok += 1;
        }
    }
    println!("phase 3 (rejoined): {ok}/1000 served");
    drop(client);

    let report = cluster.shutdown();
    println!("\nper-MDS ops served: {:?}", report.served);

    // ── Part 2: the deterministic chaos engine, replayed twice ──
    println!("\nreplaying a virtual-time chaos schedule (seed {seed}) twice…");
    let config = ChaosConfig::lone_monitor();
    let a = run_chaos(seed, &config);
    let b = run_chaos(seed, &config);
    println!(
        "kills: {}  restarts: {}  partitions: {}  rejoins: {} ({} reclaimed a subtree)",
        a.kills, a.restarts, a.partitions, a.rejoins, a.rejoins_with_claims
    );
    println!(
        "faults injected: {} dropped, {} delayed, {} duplicated",
        a.faults_dropped, a.faults_delayed, a.faults_duplicated
    );
    println!(
        "journal: {} events — identical across runs: {}",
        a.journal.len(),
        a == b
    );
    println!(
        "invariant violations: {}",
        if a.violations.is_empty() {
            "none".to_owned()
        } else {
            format!("{:?}", a.violations)
        }
    );
    if live_clean && a == b && a.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
