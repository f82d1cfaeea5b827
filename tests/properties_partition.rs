//! Property-based tests over the partitioning schemes: structural
//! invariants that must hold for every seed, cluster size and trace shape.

use d2tree::baselines::extended_lineup;
use d2tree::core::{
    collect_subtrees, split_to_proportion, D2TreeConfig, D2TreeScheme, Partitioner,
};
use d2tree::metrics::ClusterSpec;
use d2tree::workload::{TraceProfile, WorkloadBuilder};
use proptest::prelude::*;

fn small_workload(seed: u64, nodes: usize) -> d2tree::workload::Workload {
    WorkloadBuilder::new(
        TraceProfile::ra()
            .with_nodes(nodes)
            .with_operations(nodes * 8),
    )
    .seed(seed)
    .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_scheme_covers_every_node(seed in 0u64..1000, m in 1usize..12) {
        let w = small_workload(seed, 400);
        let pop = w.popularity();
        let cluster = ClusterSpec::homogeneous(m, 10.0);
        for mut scheme in extended_lineup(0.02, seed) {
            scheme.build(&w.tree, &pop, &cluster);
            prop_assert!(
                scheme.placement().is_complete(&w.tree),
                "{} incomplete at m={m} seed={seed}", scheme.name()
            );
        }
    }

    #[test]
    fn global_layer_is_closed_and_sized(seed in 0u64..1000, pct in 1u32..60) {
        let w = small_workload(seed, 500);
        let pop = w.popularity();
        let proportion = f64::from(pct) / 100.0;
        let (gl, implied) = split_to_proportion(&w.tree, &pop, |_| 0.0, proportion);
        prop_assert!(gl.is_closed_under_parents(&w.tree));
        let target = ((w.tree.node_count() as f64 * proportion).ceil() as usize).max(1);
        // The greedy split can only overshoot if the frontier empties.
        prop_assert!(gl.len() == target || gl.len() == w.tree.node_count());
        prop_assert_eq!(implied.global_nodes, gl.len());
    }

    #[test]
    fn subtrees_partition_local_layer_exactly(seed in 0u64..1000, pct in 1u32..30) {
        let w = small_workload(seed, 500);
        let pop = w.popularity();
        let (gl, _) = split_to_proportion(&w.tree, &pop, |_| 0.0, f64::from(pct) / 100.0);
        let subtrees = collect_subtrees(&w.tree, &gl, &pop);
        let covered: usize = subtrees.iter().map(|s| s.size).sum();
        prop_assert_eq!(covered + gl.len(), w.tree.node_count());
        // No subtree root is in the layer; every parent is.
        for s in &subtrees {
            prop_assert!(!gl.contains(s.root));
            prop_assert!(gl.contains(s.parent));
        }
    }

    #[test]
    fn d2tree_jumps_bounded_by_one(seed in 0u64..1000, m in 1usize..10) {
        let w = small_workload(seed, 300);
        let pop = w.popularity();
        let cluster = ClusterSpec::homogeneous(m, 10.0);
        let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default().with_seed(seed));
        scheme.build(&w.tree, &pop, &cluster);
        for (id, _) in w.tree.nodes() {
            prop_assert!(scheme.jumps(&w.tree, id) <= 1, "Eq. 7 violated at {id}");
        }
    }

    #[test]
    fn routes_end_at_an_owning_server(seed in 0u64..1000, m in 2usize..10) {
        use rand::{rngs::StdRng, SeedableRng};
        let w = small_workload(seed, 300);
        let pop = w.popularity();
        let cluster = ClusterSpec::homogeneous(m, 10.0);
        let mut rng = StdRng::seed_from_u64(seed);
        for mut scheme in extended_lineup(0.02, seed) {
            scheme.build(&w.tree, &pop, &cluster);
            let mut router = scheme.router(&w.tree);
            for (id, _) in w.tree.nodes().take(40) {
                let plan = router.route(id, &mut rng);
                prop_assert!(!plan.visits.is_empty());
                let terminal = plan.terminal();
                prop_assert!(terminal.index() < m);
                match scheme.placement().assignment(id) {
                    d2tree::metrics::Assignment::Single(owner) => {
                        prop_assert_eq!(terminal, owner, "{} misroutes", scheme.name());
                    }
                    d2tree::metrics::Assignment::Replicated => {
                        prop_assert!(plan.target_replicated);
                    }
                    d2tree::metrics::Assignment::Unassigned => {
                        prop_assert!(false, "unassigned node in complete placement");
                    }
                }
            }
        }
    }

    #[test]
    fn rebalance_never_loses_or_duplicates_nodes(seed in 0u64..500, m in 2usize..8) {
        let w = small_workload(seed, 400);
        let mut pop = w.popularity();
        let cluster = ClusterSpec::homogeneous(m, 10.0);
        for mut scheme in extended_lineup(0.02, seed) {
            scheme.build(&w.tree, &pop, &cluster);
            // Drift then rebalance twice.
            let hot = w.tree.nodes().map(|(id, _)| id).nth(seed as usize % 100).unwrap();
            pop.record(hot, 5_000.0);
            pop.rollup(&w.tree);
            for _ in 0..2 {
                let _ = scheme.rebalance(&w.tree, &pop, &cluster);
                prop_assert!(
                    scheme.placement().is_complete(&w.tree),
                    "{} broke completeness during rebalance", scheme.name()
                );
            }
        }
    }

    #[test]
    fn locality_and_balance_are_finite_and_positive(seed in 0u64..500, m in 2usize..10) {
        let w = small_workload(seed, 300);
        let pop = w.popularity();
        let cluster = ClusterSpec::homogeneous(m, pop.sum_individual() / m as f64);
        for mut scheme in extended_lineup(0.02, seed) {
            scheme.build(&w.tree, &pop, &cluster);
            let loc = scheme.locality(&w.tree, &pop);
            prop_assert!(loc.locality > 0.0);
            prop_assert!(loc.weighted_jumps >= 0.0);
            let loads = scheme.loads(&w.tree, &pop);
            let b = d2tree::metrics::balance(&loads, &cluster);
            prop_assert!(b > 0.0);
        }
    }
}
