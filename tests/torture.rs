//! Long-running churn scenario: a D2-Tree deployment lives through
//! popularity drift, repeated rebalancing, cluster expansion and layer
//! re-cut planning, with every structural invariant re-verified by the
//! `validate` checker at each step.

use d2tree::core::{
    check_d2tree, plan_recut, D2TreeConfig, D2TreeScheme, Partitioner, SampleStrategy,
};
use d2tree::metrics::ClusterSpec;
use d2tree::namespace::Popularity;
use d2tree::workload::{DriftingWorkload, TraceProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn assert_valid(w: &DriftingWorkload, scheme: &D2TreeScheme, step: &str) {
    let violations = check_d2tree(
        &w.tree,
        scheme.placement(),
        scheme.global_layer(),
        scheme.local_index(),
    );
    assert!(violations.is_empty(), "after {step}: {violations:?}");
}

#[test]
fn d2tree_survives_sustained_churn() {
    let workload = DriftingWorkload::generate(
        TraceProfile::ra().with_nodes(3_000).with_operations(60_000),
        6,
        77,
    );
    let mut rng = StdRng::seed_from_u64(78);
    let mut pop = Popularity::new(&workload.tree);
    let mut m = 4usize;
    let mut cluster = ClusterSpec::homogeneous(m, 1.0);

    let mut scheme = D2TreeScheme::new(
        D2TreeConfig::paper_default()
            .with_sampling(SampleStrategy::Uniform, 500)
            .with_seed(77),
    );

    // Phase 0 bootstraps the deployment.
    for op in &workload.phases[0] {
        pop.record(op.target, 1.0);
    }
    pop.rollup(&workload.tree);
    scheme.build(&workload.tree, &pop, &cluster);
    assert_valid(&workload, &scheme, "build");

    for (phase_no, phase) in workload.phases.iter().enumerate().skip(1) {
        // Drift: decay old heat, absorb the new phase.
        pop.decay(0.4);
        for op in phase {
            pop.record(op.target, 1.0);
        }
        pop.rollup(&workload.tree);

        // Sometimes the operator adds servers before rebalancing.
        if rng.gen_bool(0.5) && m < 12 {
            m += rng.gen_range(1..=2);
            cluster = ClusterSpec::homogeneous(m, 1.0);
            let _ = scheme.expand_cluster(&workload.tree, &pop, &cluster);
            assert_valid(
                &workload,
                &scheme,
                &format!("expand to {m} (phase {phase_no})"),
            );
        }

        // A few adjustment rounds.
        for round in 0..3 {
            let migrations = scheme.rebalance(&workload.tree, &pop, &cluster);
            assert_valid(
                &workload,
                &scheme,
                &format!(
                    "rebalance round {round} (phase {phase_no}, {} moves)",
                    migrations.len()
                ),
            );
        }

        // The (infrequent) global-layer re-cut stays well-formed even when
        // only planned.
        let plan = plan_recut(&workload.tree, &pop, |_| 0.0, 0.01, scheme.global_layer());
        assert!(plan.new_layer.is_closed_under_parents(&workload.tree));

        // Routing still terminates at owners for a random sample.
        let mut router = scheme.router(&workload.tree);
        for _ in 0..50 {
            let idx = rng.gen_range(0..workload.tree.arena_size());
            let id = d2tree::namespace::NodeId::from_index(idx);
            if !workload.tree.contains(id) {
                continue;
            }
            let plan = router.route(id, &mut rng);
            if let Some(owner) = scheme.placement().assignment(id).owner() {
                assert_eq!(plan.terminal(), owner);
            }
        }
    }

    // After all churn the cluster grew and the state is still coherent.
    assert!(scheme.placement().cluster_size() >= 4);
    assert_valid(&workload, &scheme, "final");
}

#[test]
fn replication_limited_scheme_survives_expansion() {
    let workload = DriftingWorkload::generate(
        TraceProfile::dtr()
            .with_nodes(2_000)
            .with_operations(20_000),
        2,
        79,
    );
    let mut pop = Popularity::new(&workload.tree);
    for op in &workload.phases[0] {
        pop.record(op.target, 1.0);
    }
    pop.rollup(&workload.tree);

    let mut scheme = D2TreeScheme::new(
        D2TreeConfig::paper_default()
            .with_replication_limit(2)
            .with_seed(79),
    );
    let small = ClusterSpec::homogeneous(4, 1.0);
    scheme.build(&workload.tree, &pop, &small);
    assert_valid(&workload, &scheme, "limited build");

    let big = ClusterSpec::homogeneous(8, 1.0);
    let _ = scheme.expand_cluster(&workload.tree, &pop, &big);
    assert_valid(&workload, &scheme, "limited expand");
    // The replica set survives expansion (still 2 replicas).
    assert_eq!(scheme.placement().replicas().count(8), 2);
}
