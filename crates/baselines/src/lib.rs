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
    use d2tree_metrics::ClusterSpec;
    use d2tree_namespace::NamespaceTree;
    use d2tree_workload::{TraceProfile, WorkloadBuilder};

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
