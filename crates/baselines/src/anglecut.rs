//! AngleCut: locality-preserving projection onto Chord-like rings.

use d2tree_core::Partitioner;
use d2tree_metrics::{Assignment, ClusterSpec, MdsId, Migration, Placement};
use d2tree_namespace::{NamespaceTree, Popularity};

use crate::keys::{locality_keys, range_owner, weighted_boundaries};

/// AngleCut (Liu et al., DASFAA'17), reimplemented from its published
/// description: the namespace tree is projected onto multiple concentric
/// Chord-like rings — one ring per depth band — where a node's *angle* is
/// a locality-preserving subdivision of its parent's angular range. Each
/// ring is cut into per-MDS sectors; sector boundaries are tuned per ring
/// from popularity histograms, which gives hashing-grade balance, while
/// the angular inheritance keeps parent/child pairs in the same sector
/// *most* of the time — but every ring boundary a path crosses costs a
/// jump, so locality degrades as the cluster (and boundary count) grows.
#[derive(Debug)]
pub struct AngleCut {
    seed: u64,
    rings: usize,
    placement: Option<Placement>,
    angles: Vec<f64>,
    /// Per-ring sector boundaries, indexed `[ring][mds]`.
    boundaries: Vec<Vec<f64>>,
}

impl AngleCut {
    /// Creates the scheme with the default of 4 depth-band rings.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        AngleCut {
            seed,
            rings: 4,
            placement: None,
            angles: Vec::new(),
            boundaries: Vec::new(),
        }
    }

    /// Overrides the number of rings (depth bands).
    ///
    /// # Panics
    ///
    /// Panics if `rings == 0`.
    #[must_use]
    pub fn with_rings(mut self, rings: usize) -> Self {
        assert!(rings > 0, "need at least one ring");
        self.rings = rings;
        self
    }

    /// The ring (depth band) a node of the given depth projects to.
    fn ring_of_depth(&self, depth: usize, max_depth: usize) -> usize {
        if max_depth == 0 {
            return 0;
        }
        (depth * self.rings / (max_depth + 1)).min(self.rings - 1)
    }

    fn retune(&mut self, tree: &NamespaceTree, pop: &Popularity, cluster: &ClusterSpec) {
        let max_depth = tree.max_depth();
        let shares: Vec<f64> = cluster.ids().map(|k| cluster.capacity_share(k)).collect();
        let jitter = (self.seed % 89) as f64 * 1e-15;
        let mut per_ring: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.rings];
        let mut depth = vec![0usize; tree.arena_size()];
        for (id, node) in tree.nodes() {
            if let Some(p) = node.parent() {
                depth[id.index()] = depth[p.index()] + 1;
            }
            let ring = self.ring_of_depth(depth[id.index()], max_depth);
            per_ring[ring].push((self.angles[id.index()] + jitter, pop.individual(id)));
        }
        self.boundaries = per_ring
            .iter_mut()
            .map(|points| {
                if points.is_empty() {
                    // An unused ring: uniform sectors.
                    let m = shares.len();
                    (1..=m).map(|k| k as f64 / m as f64).collect()
                } else {
                    weighted_boundaries(points, &shares)
                }
            })
            .collect();
    }

    fn rebuild_placement(&self, tree: &NamespaceTree, m: usize) -> Placement {
        let max_depth = tree.max_depth();
        let mut placement = Placement::new(tree, m);
        let mut slots = placement.writer(tree);
        let mut depth = vec![0usize; tree.arena_size()];
        for (id, node) in tree.nodes() {
            if let Some(p) = node.parent() {
                depth[id.index()] = depth[p.index()] + 1;
            }
            let ring = self.ring_of_depth(depth[id.index()], max_depth);
            let owner = range_owner(&self.boundaries[ring], self.angles[id.index()]);
            slots.set(id, Assignment::Single(MdsId(owner as u16)));
        }
        placement
    }
}

impl Partitioner for AngleCut {
    fn name(&self) -> &'static str {
        "AngleCut"
    }

    fn build(&mut self, tree: &NamespaceTree, pop: &Popularity, cluster: &ClusterSpec) {
        self.angles = locality_keys(tree);
        self.retune(tree, pop, cluster);
        self.placement = Some(self.rebuild_placement(tree, cluster.len()));
    }

    fn placement(&self) -> &Placement {
        self.placement.as_ref().expect("AngleCut used before build")
    }

    fn rebalance(
        &mut self,
        tree: &NamespaceTree,
        pop: &Popularity,
        cluster: &ClusterSpec,
    ) -> Vec<Migration> {
        let old = self.placement.take().expect("AngleCut used before build");
        self.retune(tree, pop, cluster);
        let fresh = self.rebuild_placement(tree, cluster.len());
        let migrations = tree
            .nodes()
            .filter_map(|(id, _)| {
                let from = old.assignment(id).owner()?;
                let to = fresh.assignment(id).owner()?;
                (from != to).then_some(Migration { node: id, from, to })
            })
            .collect();
        self.placement = Some(fresh);
        migrations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2tree_metrics::balance;
    use d2tree_workload::{TraceProfile, WorkloadBuilder};

    fn setup(m: usize) -> (d2tree_workload::Workload, Popularity, AngleCut, ClusterSpec) {
        let w = WorkloadBuilder::new(TraceProfile::ra().with_nodes(2_000).with_operations(40_000))
            .seed(9)
            .build();
        let pop = w.popularity();
        let cluster = ClusterSpec::homogeneous(m, 100.0);
        let mut s = AngleCut::new(5);
        s.build(&w.tree, &pop, &cluster);
        (w, pop, s, cluster)
    }

    #[test]
    fn placement_complete() {
        let (w, _pop, s, _) = setup(5);
        assert!(s.placement().is_complete(&w.tree));
    }

    #[test]
    fn per_ring_tuning_balances_loads() {
        let (w, pop, s, cluster) = setup(8);
        let loads = s.loads(&w.tree, &pop);
        let total: f64 = loads.iter().sum();
        for l in &loads {
            assert!(
                *l <= 2.5 * total / 8.0 + 1e-9,
                "load {l} vs ideal {}",
                total / 8.0
            );
        }
        assert!(balance(&loads, &cluster).is_finite());
    }

    #[test]
    fn angular_inheritance_keeps_many_edges_local() {
        let (w, _pop, s, _) = setup(4);
        // Most parent/child pairs in the same ring share an owner thanks to
        // nested angular intervals.
        let mut same = 0usize;
        let mut total = 0usize;
        for (id, node) in w.tree.nodes() {
            if let Some(p) = node.parent() {
                total += 1;
                if s.placement().assignment(id) == s.placement().assignment(p) {
                    same += 1;
                }
            }
        }
        assert!(
            same as f64 / total as f64 > 0.5,
            "too few co-located edges: {same}/{total}"
        );
    }

    #[test]
    fn rebalance_tracks_drift() {
        let (w, mut pop, mut s, cluster) = setup(4);
        let victim = w.tree.nodes().map(|(id, _)| id).nth(321).unwrap();
        pop.record(victim, 300_000.0);
        pop.rollup(&w.tree);
        let before = balance(&s.loads(&w.tree, &pop), &cluster);
        let _ = s.rebalance(&w.tree, &pop, &cluster);
        let after = balance(&s.loads(&w.tree, &pop), &cluster);
        assert!(
            after >= before * 0.5,
            "retuning should roughly keep or improve balance"
        );
    }

    #[test]
    fn ring_assignment_spans_depth_bands() {
        let s = AngleCut::new(0).with_rings(3);
        assert_eq!(s.ring_of_depth(0, 9), 0);
        assert_eq!(s.ring_of_depth(9, 9), 2);
        assert_eq!(s.ring_of_depth(5, 9), 1);
        assert_eq!(s.ring_of_depth(0, 0), 0);
    }
}
