//! Phased workloads with drifting hotspots.
//!
//! The paper's Dynamic-Adjustment exists because "both the size and
//! popularity of subtrees change over time in an unpredictable manner"
//! (Sec. IV-B). This module generates that: a trace split into phases,
//! each re-drawing which nodes are hot (while keeping the profile's depth
//! bias and operation mix), so rebalancing machinery has something real
//! to chase.

use d2tree_namespace::NamespaceTree;

use crate::profile::TraceProfile;
use crate::synth::synthesize_tree;
use crate::trace::{Trace, TraceGen};

/// A workload whose hot set shifts between phases.
#[derive(Debug, Clone)]
pub struct DriftingWorkload {
    /// The profile all phases share.
    pub profile: TraceProfile,
    /// The namespace (fixed across phases).
    pub tree: NamespaceTree,
    /// One trace per phase, in order.
    pub phases: Vec<Trace>,
}

impl DriftingWorkload {
    /// Generates `phases` traces over one synthesised namespace.
    ///
    /// Each phase re-seeds the hotness noise, so the identity of the hot
    /// nodes shifts phase over phase — strongly for low
    /// `shallow_bias` profiles (hotness is mostly noise) and mildly for
    /// high-bias ones (depth pins most of the ranking). Operation counts
    /// per phase are `profile.operations / phases`.
    ///
    /// # Panics
    ///
    /// Panics if `phases == 0` or the profile has fewer operations than
    /// phases.
    #[must_use]
    pub fn generate(profile: TraceProfile, phases: usize, seed: u64) -> Self {
        assert!(phases > 0, "need at least one phase");
        assert!(
            profile.operations >= phases,
            "need at least one operation per phase"
        );
        let (tree, _) = synthesize_tree(&profile, seed);
        let per_phase = profile.operations / phases;
        let phase_profile = profile.clone().with_operations(per_phase);
        let traces = (0..phases)
            .map(|p| {
                // Different seed → different hotness noise → drifted hot set.
                TraceGen::new(&phase_profile, &tree, seed.wrapping_add(1 + p as u64)).collect()
            })
            .collect();
        DriftingWorkload {
            profile,
            tree,
            phases: traces,
        }
    }

    /// Fraction of the top-`k` hot nodes of phase `a` that are still in
    /// the top-`k` of phase `b` — a direct measure of how hard the drift
    /// is for a rebalancer.
    ///
    /// # Panics
    ///
    /// Panics if a phase index is out of range or `k == 0`.
    #[must_use]
    pub fn hot_overlap(&self, a: usize, b: usize, k: usize) -> f64 {
        assert!(k > 0, "k must be positive");
        let top = |phase: &Trace| {
            let mut counts = std::collections::HashMap::new();
            for op in phase {
                *counts.entry(op.target).or_insert(0u64) += 1;
            }
            let mut v: Vec<_> = counts.into_iter().collect();
            v.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
            v.into_iter()
                .take(k)
                .map(|(id, _)| id)
                .collect::<std::collections::HashSet<_>>()
        };
        let ta = top(&self.phases[a]);
        let tb = top(&self.phases[b]);
        ta.intersection(&tb).count() as f64 / k as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_share_tree_and_split_ops() {
        let w = DriftingWorkload::generate(
            TraceProfile::lmbe().with_nodes(500).with_operations(9_000),
            3,
            5,
        );
        assert_eq!(w.phases.len(), 3);
        for phase in &w.phases {
            assert_eq!(phase.len(), 3_000);
            for op in phase {
                assert!(w.tree.contains(op.target));
            }
        }
    }

    #[test]
    fn hotspots_drift_between_phases() {
        // LMBE's hotness is mostly noise-ranked, so the hot set should
        // shift substantially between phases.
        let w = DriftingWorkload::generate(
            TraceProfile::lmbe()
                .with_nodes(2_000)
                .with_operations(40_000),
            2,
            9,
        );
        let self_overlap = w.hot_overlap(0, 0, 50);
        let cross_overlap = w.hot_overlap(0, 1, 50);
        assert_eq!(self_overlap, 1.0);
        assert!(
            cross_overlap < 0.9,
            "phases too similar: overlap {cross_overlap}"
        );
    }

    #[test]
    fn deep_bias_pins_more_of_the_hot_set() {
        let noisy = DriftingWorkload::generate(
            TraceProfile::lmbe()
                .with_nodes(2_000)
                .with_operations(40_000),
            2,
            11,
        );
        let pinned = DriftingWorkload::generate(
            TraceProfile::dtr()
                .with_nodes(2_000)
                .with_operations(40_000),
            2,
            11,
        );
        assert!(
            pinned.hot_overlap(0, 1, 30) >= noisy.hot_overlap(0, 1, 30),
            "depth-pinned DTR should drift less than noise-ranked LMBE"
        );
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn zero_phases_panics() {
        let _ = DriftingWorkload::generate(TraceProfile::dtr().with_nodes(200), 0, 1);
    }
}
