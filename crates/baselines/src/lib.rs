//! Comparison schemes from the D2-Tree paper's evaluation (Sec. VI):
//!
//! * [`StaticSubtree`] — static subtree partitioning: directories near the
//!   root are hashed to servers once, whole subtrees follow, nothing ever
//!   moves.
//! * [`DynamicSubtree`] — Ceph-style dynamic subtree partitioning: finer
//!   initial subtrees, overloaded servers migrate their hottest subtrees to
//!   the lightest server.
//! * [`HashMapping`] — CalvinFS/Giga+-style hashing: every node is placed
//!   independently by a pathname hash.
//! * [`DropScheme`] — DROP: locality-preserving hashing of the namespace
//!   onto a key ring, with histogram-based dynamic load balancing (HDLB)
//!   moving the range boundaries.
//! * [`AngleCut`] — AngleCut: locality-preserving projection onto
//!   per-depth Chord-like rings with per-ring sector boundaries.
//!
//! All of them implement [`Partitioner`], so every
//! experiment harness treats them and D2-Tree uniformly.
//!
//! DROP and AngleCut have no open-source implementations; both are
//! re-implemented here from their papers' algorithmic descriptions (see
//! `DESIGN.md` §4 for the substitution argument).
//!
//! [`Partitioner`]: d2tree_core::Partitioner

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod anglecut;
mod drop_scheme;
mod dynamic_subtree;
mod hash_mapping;
pub mod keys;
mod static_subtree;

pub use anglecut::AngleCut;
pub use drop_scheme::DropScheme;
pub use dynamic_subtree::DynamicSubtree;
pub use hash_mapping::HashMapping;
pub use static_subtree::StaticSubtree;

use d2tree_core::{D2TreeConfig, D2TreeScheme, Partitioner, SampleStrategy};

/// Builds the full scheme line-up of the paper's figures, D2-Tree first.
///
/// The D2-Tree instance uses `gl_proportion` for its global layer (the
/// paper uses 1%) and — like the paper's system — allocates local-layer
/// subtrees from a *sampled* popularity CDF rather than full information
/// (Sec. IV-B's random walk; Thm. 3/4 bound the resulting balance error).
#[must_use]
pub fn paper_lineup(gl_proportion: f64, seed: u64) -> Vec<Box<dyn Partitioner>> {
    vec![
        Box::new(D2TreeScheme::new(
            D2TreeConfig::by_proportion(gl_proportion)
                .with_sampling(SampleStrategy::Uniform, 2_000)
                .with_seed(seed),
        )),
        Box::new(StaticSubtree::new(seed)),
        Box::new(DynamicSubtree::new(seed)),
        Box::new(DropScheme::new(seed)),
        Box::new(AngleCut::new(seed)),
    ]
}

/// Like [`paper_lineup`] but with plain hash mapping appended, for
/// experiments that also want the classic baseline.
#[must_use]
pub fn extended_lineup(gl_proportion: f64, seed: u64) -> Vec<Box<dyn Partitioner>> {
    let mut v = paper_lineup(gl_proportion, seed);
    v.push(Box::new(HashMapping::new(seed)));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2tree_core::{Router, CLIENT_CACHED_DEPTH};
    use d2tree_metrics::{path_jumps, Assignment, ClusterSpec, MdsId, Placement};
    use d2tree_namespace::{NamespaceTree, NodeId, Popularity};
    use d2tree_workload::{TraceProfile, WorkloadBuilder};
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// The trees the single-pass builds are checked on against their
    /// string/recount oracles: a deep one (DTR, depth 49), a wide one
    /// (LMBE), and one with tombstones and a subtree moved under a
    /// younger directory, so arena order is not parent-before-child.
    pub(crate) fn oracle_trees(seed: u64) -> Vec<(&'static str, NamespaceTree)> {
        let synth = |profile: TraceProfile| {
            WorkloadBuilder::new(profile.with_nodes(1_500).with_operations(10))
                .seed(seed)
                .build()
                .tree
        };
        let mut edited = synth(TraceProfile::ra());
        let mut dirs: Vec<_> = edited
            .nodes()
            .filter(|(_, n)| n.kind().is_directory() && n.parent() == Some(edited.root()))
            .map(|(id, _)| id)
            .collect();
        assert!(dirs.len() >= 3, "need three first-level directories");
        let removed = dirs.remove(1);
        assert!(edited.remove_subtree(removed).expect("live directory") > 1);
        // The oldest directory goes under the youngest.
        let (oldest, youngest) = (dirs[0], *dirs.last().expect("non-empty"));
        assert!(oldest < youngest && edited.subtree_size(oldest) > 1);
        edited
            .move_subtree(oldest, youngest)
            .expect("disjoint subtrees");
        assert!(edited.arena_size() > edited.node_count());
        vec![
            ("dtr", synth(TraceProfile::dtr())),
            ("lmbe", synth(TraceProfile::lmbe())),
            ("edited", edited),
        ]
    }

    /// The per-operation walk `Router` replaced, kept as its oracle:
    /// collect the chain, reverse it, skip the client-cached levels (but
    /// never the target), collapse consecutive repeats, and pick a random
    /// MDS when nothing pinned the traversal.
    fn chain_route_from(
        tree: &NamespaceTree,
        placement: &Placement,
        node: NodeId,
        rng: &mut dyn RngCore,
        start_depth: usize,
    ) -> (Vec<MdsId>, bool) {
        let mut chain: Vec<NodeId> = tree.chain_up(node).collect();
        chain.reverse();
        let start = start_depth.min(chain.len() - 1);
        let mut visits: Vec<MdsId> = Vec::new();
        for &id in &chain[start..] {
            match placement.assignment(id) {
                Assignment::Unassigned => panic!("routing requires a complete placement"),
                Assignment::Replicated => {}
                Assignment::Single(m) => {
                    if visits.last() != Some(&m) {
                        visits.push(m);
                    }
                }
            }
        }
        if visits.is_empty() {
            visits.push(MdsId(rng.gen_range(0..placement.cluster_size()) as u16));
        }
        (visits, placement.assignment(node).is_replicated())
    }

    #[test]
    fn the_router_is_the_walk() {
        // Requests whose traversal never pinned, so the rng picked the MDS.
        let mut random_picks = 0usize;
        for seed in [1, 2] {
            for (name, tree) in oracle_trees(seed) {
                let mut pop = Popularity::new(&tree);
                let mut weights = StdRng::seed_from_u64(seed);
                for (id, _) in tree.nodes() {
                    pop.record(id, f64::from(weights.gen_range(1..100u32)));
                }
                pop.rollup(&tree);
                for m in [1, 7, 16] {
                    for mut scheme in extended_lineup(0.01, seed) {
                        scheme.build(&tree, &pop, &ClusterSpec::homogeneous(m, 1.0));
                        let placement = scheme.placement();
                        // The default router of the five baselines, and the
                        // full walk `StrictChainRoute` asks for, over all six
                        // placements (D2-Tree's has replicated chains).
                        let mut routers = vec![(0, Router::chain(&tree, placement, 0))];
                        if scheme.name() != "D2-Tree" {
                            routers.push((CLIENT_CACHED_DEPTH, scheme.router(&tree)));
                        }
                        for (start_depth, mut router) in routers {
                            let ctx = format!(
                                "{name} tree, seed {seed}, M = {m}, {}, depth {start_depth}",
                                scheme.name()
                            );
                            let mut rng = StdRng::seed_from_u64(seed ^ 0xd2);
                            let mut oracle_rng = rng.clone();
                            for round in ["miss", "hit"] {
                                for (id, _) in tree.nodes() {
                                    let plan = router.route(id, &mut rng);
                                    let (visits, replicated) = chain_route_from(
                                        &tree,
                                        placement,
                                        id,
                                        &mut oracle_rng,
                                        start_depth,
                                    );
                                    assert_eq!(plan.visits, visits, "{ctx}, {round}, node {id}");
                                    assert_eq!(plan.target_replicated, replicated, "{ctx}");
                                    random_picks += usize::from(replicated);
                                    if start_depth == 0 {
                                        // Def. 1, independently of the oracle.
                                        assert_eq!(
                                            plan.hops() as u32,
                                            path_jumps(&tree, placement, id),
                                            "{ctx}, {round}, node {id}"
                                        );
                                    }
                                }
                            }
                            assert_eq!(rng.next_u64(), oracle_rng.next_u64(), "{ctx}");
                        }
                    }
                }
            }
        }
        assert!(
            random_picks > 0,
            "a global-layer target routes to a random MDS"
        );
    }

    #[test]
    fn every_scheme_builds_a_complete_placement() {
        let w = WorkloadBuilder::new(TraceProfile::ra().with_nodes(1_200).with_operations(12_000))
            .seed(6)
            .build();
        let pop = w.popularity();
        let cluster = ClusterSpec::homogeneous(5, 100.0);
        for mut scheme in extended_lineup(0.01, 3) {
            scheme.build(&w.tree, &pop, &cluster);
            assert!(
                scheme.placement().is_complete(&w.tree),
                "{} left nodes unassigned",
                scheme.name()
            );
            let loads = scheme.loads(&w.tree, &pop);
            assert_eq!(loads.len(), 5);
            assert!(loads.iter().sum::<f64>() > 0.0);
        }
    }

    #[test]
    fn lineup_names_are_distinct() {
        let names: Vec<&str> = extended_lineup(0.01, 0).iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(
            dedup.len(),
            names.len(),
            "duplicate scheme names: {names:?}"
        );
    }
}
