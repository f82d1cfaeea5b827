//! Chaos-verified recovery: seeded fault schedules drive crash-restart,
//! rejoin and partition scenarios through both the deterministic chaos
//! engine and the live threaded cluster, with the ownership/replication
//! invariants machine-checked at every quiesce point.
//!
//! CI runs this suite once per seed in its matrix by exporting
//! `CHAOS_SEED=<n>`; without the variable every seed in the default
//! list is exercised.

use std::sync::Arc;
use std::time::{Duration, Instant};

use d2tree::cluster::live::{ClientError, LiveCluster, LiveConfig};
use d2tree::cluster::{
    run_chaos, ChaosConfig, FaultAction, FaultPlan, FaultRule, FaultScope, RetryPolicy,
};
use d2tree::core::{D2TreeConfig, D2TreeScheme, Partitioner};
use d2tree::metrics::{ClusterSpec, MdsId};
use d2tree::telemetry::names;
use d2tree::workload::{OpKind, Operation, TraceProfile, WorkloadBuilder};

/// Seeds the CI matrix replays one at a time via `CHAOS_SEED`.
const DEFAULT_SEEDS: &[u64] = &[1, 7, 42];

fn seeds_under_test() -> Vec<u64> {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("CHAOS_SEED must be an integer")],
        Err(_) => DEFAULT_SEEDS.to_vec(),
    }
}

fn start_faulty(
    m: usize,
    seed: u64,
    config: LiveConfig,
    plan: FaultPlan,
) -> (
    Arc<d2tree::namespace::NamespaceTree>,
    LiveCluster,
    d2tree::workload::Trace,
) {
    let w = WorkloadBuilder::new(TraceProfile::dtr().with_nodes(600).with_operations(1_500))
        .seed(seed)
        .build();
    let pop = w.popularity();
    let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default());
    scheme.build(&w.tree, &pop, &ClusterSpec::homogeneous(m, 1.0));
    let tree = Arc::new(w.tree);
    let cluster = LiveCluster::start_with_faults(
        Arc::clone(&tree),
        scheme.placement().clone(),
        scheme.local_index().clone(),
        config,
        plan,
    );
    (tree, cluster, w.trace)
}

/// Polls the cluster's invariant checker until it reports clean or the
/// deadline passes; recovery is asynchronous, so transient violations
/// mid-fail-over are expected and only a *persistent* violation fails.
fn settle_clean(cluster: &LiveCluster, within: Duration) -> Vec<String> {
    let deadline = Instant::now() + within;
    loop {
        let violations = cluster.check_invariants();
        if violations.is_empty() || Instant::now() >= deadline {
            return violations;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn counter_value(cluster: &LiveCluster, name: &str) -> u64 {
    cluster
        .registry()
        .snapshot()
        .counters
        .iter()
        .find(|(k, _)| k.name == name)
        .map(|&(_, v)| v)
        .unwrap_or(0)
}

#[test]
fn chaos_engine_is_reproducible_and_clean_across_seeds() {
    let config = ChaosConfig::lone_monitor();
    for seed in seeds_under_test() {
        let a = run_chaos(seed, &config);
        let b = run_chaos(seed, &config);
        assert_eq!(a, b, "seed {seed}: same seed must replay identically");
        assert!(
            a.violations.is_empty(),
            "seed {seed}: invariant violations: {:?}",
            a.violations
        );
        assert_eq!(a.kills, config.kills, "seed {seed}");
        assert_eq!(a.restarts, a.kills, "seed {seed}: every crash restarts");
        assert!(
            a.rejoins >= a.restarts,
            "seed {seed}: every restart must rejoin (got {} of {})",
            a.rejoins,
            a.restarts
        );
        assert!(
            a.rejoins_with_claims >= 1,
            "seed {seed}: at least one rejoiner must re-claim a subtree"
        );
        assert!(!a.journal.is_empty(), "seed {seed}: journal must record");
        assert!(
            a.blocked_updates > 0 && a.gl_writes > a.blocked_updates,
            "seed {seed}: a victim dying on the GL lease must block updates \
             until the lease expires, never forever"
        );
        assert_eq!(
            a.stale_probes_confirmed, 1,
            "seed {seed}: the expired-fence probe must be rejected, not applied"
        );
        assert!(
            a.fence_rejections >= 1,
            "seed {seed}: the stale write must show up as a rejection"
        );
    }
}

#[test]
fn live_cluster_recovers_from_kill_restart_under_faults() {
    for seed in seeds_under_test() {
        let plan = FaultPlan::new(seed)
            .with_rule(
                FaultRule::new(FaultScope::AllLinks, FaultAction::Drop).with_probability(0.02),
            )
            .with_rule(
                FaultRule::new(
                    FaultScope::Mds(1),
                    FaultAction::Delay {
                        fixed_ms: 0,
                        jitter_ms: 2,
                    },
                )
                .with_probability(0.10),
            );
        let (_tree, cluster, trace) = start_faulty(4, seed, LiveConfig::default(), plan);
        let cluster = Arc::new(cluster);

        // Foreground load while the victim dies and comes back.
        let mut client = cluster.client(seed);
        for op in trace.iter().take(200) {
            let _ = client.execute(*op);
        }

        let victim = MdsId(1);
        assert!(cluster.kill(victim), "first kill changes state");
        // Let the Monitor declare the failure and migrate ownership.
        std::thread::sleep(Duration::from_millis(300));
        for op in trace.iter().skip(200).take(200) {
            let _ = client.execute(*op);
        }
        let after_failover = settle_clean(&cluster, Duration::from_secs(5));
        assert!(
            after_failover.is_empty(),
            "seed {seed}: fail-over left violations: {after_failover:?}"
        );

        assert!(cluster.restart(victim), "restart changes state");
        let after_rejoin = settle_clean(&cluster, Duration::from_secs(5));
        assert!(
            after_rejoin.is_empty(),
            "seed {seed}: rejoin left violations: {after_rejoin:?}"
        );

        // The Monitor saw the returning heartbeat and journaled the rejoin.
        let deadline = Instant::now() + Duration::from_secs(5);
        while counter_value(&cluster, names::REJOINS_TOTAL) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(
            counter_value(&cluster, names::REJOINS_TOTAL) >= 1,
            "seed {seed}: rejoin not recorded"
        );

        for op in trace.iter().skip(400).take(200) {
            let _ = client.execute(*op);
        }
        drop(client);
        let report = Arc::try_unwrap(cluster).unwrap().shutdown();
        assert!(
            report.served.iter().sum::<u64>() > 0,
            "seed {seed}: cluster served nothing"
        );
    }
}

#[test]
fn kill_and_restart_are_idempotent_and_panic_free() {
    let (_tree, cluster, _trace) = start_faulty(3, 5, LiveConfig::default(), FaultPlan::new(5));
    // Unknown ids are no-ops, never panics.
    assert!(!cluster.kill(MdsId(99)));
    assert!(!cluster.restart(MdsId(99)));
    // Restarting an alive server changes nothing.
    assert!(!cluster.restart(MdsId(0)));
    // First kill flips state; the second is a no-op.
    assert!(cluster.kill(MdsId(2)));
    assert!(!cluster.kill(MdsId(2)));
    // First restart flips state back; the second is a no-op.
    assert!(cluster.restart(MdsId(2)));
    assert!(!cluster.restart(MdsId(2)));
    let _ = cluster.shutdown();
}

#[test]
fn client_distinguishes_timeout_from_deadline() {
    // Every server dead: each attempt times out and the attempt budget
    // runs dry without a single response.
    let config = LiveConfig {
        request_timeout: Duration::from_millis(10),
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            jitter: Duration::from_millis(1),
            deadline: Duration::from_secs(30),
        },
        ..LiveConfig::default()
    };
    let (tree, cluster, _trace) = start_faulty(2, 6, config, FaultPlan::new(6));
    cluster.kill(MdsId(0));
    cluster.kill(MdsId(1));
    let mut client = cluster.client(1);
    let op = Operation {
        target: tree.root(),
        kind: OpKind::Read,
    };
    match client.execute(op) {
        Err(ClientError::Timeout { attempts }) => assert_eq!(attempts, 3),
        other => panic!("expected Timeout, got {other:?}"),
    }
    drop(client);
    let _ = cluster.shutdown();

    // Same dead cluster, but the overall deadline elapses before the
    // attempt budget does.
    let config = LiveConfig {
        request_timeout: Duration::from_millis(50),
        retry: RetryPolicy {
            max_attempts: 1_000,
            base_backoff: Duration::from_millis(5),
            jitter: Duration::from_millis(1),
            deadline: Duration::from_millis(120),
        },
        ..LiveConfig::default()
    };
    let (tree, cluster, _trace) = start_faulty(2, 6, config, FaultPlan::new(6));
    cluster.kill(MdsId(0));
    cluster.kill(MdsId(1));
    let mut client = cluster.client(2);
    let op = Operation {
        target: tree.root(),
        kind: OpKind::Read,
    };
    match client.execute(op) {
        Err(ClientError::DeadlineExceeded { elapsed }) => {
            assert!(elapsed >= Duration::from_millis(120));
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    drop(client);
    let _ = cluster.shutdown();
}

#[test]
fn gl_replicas_reconverge_after_restart() {
    let (tree, cluster, _trace) = start_faulty(3, 8, LiveConfig::default(), FaultPlan::new(8));
    let mut client = cluster.client(3);
    let root = tree.root();
    let update = Operation {
        target: root,
        kind: OpKind::Update,
    };

    for _ in 0..10 {
        client
            .execute(update)
            .expect("root update on healthy cluster");
    }
    let victim = MdsId(2);
    assert!(cluster.kill(victim));
    // The dead replica misses this batch of global-layer commits.
    for _ in 0..10 {
        client
            .execute(update)
            .expect("root update with one replica down");
    }
    let live_version = cluster.attr_version(MdsId(0), root);
    assert!(
        cluster.attr_version(victim, root) < live_version,
        "killed replica should have missed GL propagation"
    );

    // Restart re-syncs through the lock service before serving resumes.
    assert!(cluster.restart(victim));
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let versions: Vec<u64> = (0..3)
            .map(|k| cluster.attr_version(MdsId(k), root))
            .collect();
        if versions.windows(2).all(|w| w[0] == w[1]) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replicas never reconverged: {versions:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let violations = settle_clean(&cluster, Duration::from_secs(5));
    assert!(violations.is_empty(), "{violations:?}");
    drop(client);
    let _ = cluster.shutdown();
}
