//! Static subtree partitioning.

use d2tree_core::Partitioner;
use d2tree_metrics::{Assignment, ClusterSpec, MdsId, Placement};
use d2tree_namespace::{NamespaceTree, NodeId, Popularity};

use crate::keys::stable_hash;

/// Static subtree partitioning (Sec. II / Sec. VI "Implements"): "the
/// initial metadata partition was created by hashing directories near the
/// root of the hierarchy".
///
/// Every directory at `cut_depth` (default 1 — the children of the root)
/// roots an immutable subtree; the subtree is hashed by its pathname to a
/// server and never moves. Nodes above the cut (the root itself for
/// `cut_depth` 1) are hashed individually.
///
/// The scheme has excellent locality (whole application directories stay
/// on one server) but no answer to skew, which is exactly the trade-off
/// the paper's Figs. 5–7 show.
#[derive(Debug)]
pub struct StaticSubtree {
    seed: u64,
    cut_depth: usize,
    placement: Option<Placement>,
}

impl StaticSubtree {
    /// Creates the scheme with the paper's near-root cut (depth 1).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        StaticSubtree {
            seed,
            cut_depth: 1,
            placement: None,
        }
    }

    /// Overrides how far below the root the immutable subtrees start.
    ///
    /// # Panics
    ///
    /// Panics if `cut_depth == 0`.
    #[must_use]
    pub fn with_cut_depth(mut self, cut_depth: usize) -> Self {
        assert!(cut_depth > 0, "cut depth must be at least 1");
        self.cut_depth = cut_depth;
        self
    }

    fn hash_to_mds(&self, tree: &NamespaceTree, id: NodeId, m: usize) -> MdsId {
        let path = tree.path_of(id).to_string();
        let h = stable_hash(path.as_bytes()) ^ self.seed;
        MdsId((h % m as u64) as u16)
    }
}

impl Partitioner for StaticSubtree {
    fn name(&self) -> &'static str {
        "Static Subtree"
    }

    fn build(&mut self, tree: &NamespaceTree, _pop: &Popularity, cluster: &ClusterSpec) {
        let m = cluster.len();
        let mut placement = Placement::new(tree, m);
        let mut slots = placement.writer(tree);
        // Depth-first walk carrying the current depth; subtree roots at
        // cut_depth fix the owner for their whole subtree.
        let mut stack: Vec<(NodeId, usize, Option<MdsId>)> = vec![(tree.root(), 0, None)];
        while let Some((id, depth, inherited)) = stack.pop() {
            let owner = match inherited {
                Some(o) => o,
                None => self.hash_to_mds(tree, id, m),
            };
            slots.set(id, Assignment::Single(owner));
            if let Some(node) = tree.node(id) {
                // Children strictly below the cut inherit the owner; the
                // subtree roots at the cut (and anything above it) hash
                // independently.
                let next = if depth + 1 > self.cut_depth {
                    Some(owner)
                } else {
                    None
                };
                for (_, c) in node.children() {
                    stack.push((c, depth + 1, next));
                }
            }
        }
        self.placement = Some(placement);
    }

    fn placement(&self) -> &Placement {
        self.placement
            .as_ref()
            .expect("StaticSubtree used before build")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2tree_workload::{TraceProfile, WorkloadBuilder};

    fn build(m: usize) -> (d2tree_workload::Workload, StaticSubtree) {
        let w = WorkloadBuilder::new(TraceProfile::dtr().with_nodes(1_000).with_operations(5_000))
            .seed(1)
            .build();
        let pop = w.popularity();
        let mut s = StaticSubtree::new(42);
        s.build(&w.tree, &pop, &ClusterSpec::homogeneous(m, 10.0));
        (w, s)
    }

    #[test]
    fn subtrees_are_intact() {
        let (w, s) = build(4);
        // Every node at depth >= 1 shares its owner with its depth-1
        // ancestor.
        for (id, _) in w.tree.nodes() {
            if id == w.tree.root() {
                continue;
            }
            let chain = w.tree.path_from_root(id);
            let top = chain[1]; // depth-1 ancestor
            assert_eq!(
                s.placement().assignment(id),
                s.placement().assignment(top),
                "node {id} strayed from its subtree"
            );
        }
    }

    #[test]
    fn placement_complete_and_static() {
        let (w, mut s) = build(3);
        assert!(s.placement().is_complete(&w.tree));
        let pop = w.popularity();
        let migrations = s.rebalance(&w.tree, &pop, &ClusterSpec::homogeneous(3, 10.0));
        assert!(migrations.is_empty(), "static partitioning never migrates");
    }

    #[test]
    fn different_seeds_give_different_placements() {
        let w = WorkloadBuilder::new(TraceProfile::lmbe().with_nodes(500).with_operations(1_000))
            .seed(2)
            .build();
        let pop = w.popularity();
        let cluster = ClusterSpec::homogeneous(4, 10.0);
        let mut a = StaticSubtree::new(1);
        let mut b = StaticSubtree::new(2);
        a.build(&w.tree, &pop, &cluster);
        b.build(&w.tree, &pop, &cluster);
        let differs = w
            .tree
            .nodes()
            .any(|(id, _)| a.placement().assignment(id) != b.placement().assignment(id));
        assert!(differs);
    }

    #[test]
    fn deeper_cut_creates_finer_subtrees() {
        let w = WorkloadBuilder::new(TraceProfile::dtr().with_nodes(1_500).with_operations(1_000))
            .seed(3)
            .build();
        let pop = w.popularity();
        let cluster = ClusterSpec::homogeneous(8, 10.0);
        let mut coarse = StaticSubtree::new(9);
        let mut fine = StaticSubtree::new(9).with_cut_depth(3);
        coarse.build(&w.tree, &pop, &cluster);
        fine.build(&w.tree, &pop, &cluster);
        let distinct = |s: &StaticSubtree| {
            let mut owners: Vec<_> = w
                .tree
                .nodes()
                .map(|(id, _)| s.placement().assignment(id))
                .collect();
            owners.sort_by_key(|a| format!("{a:?}"));
            owners.dedup();
            owners.len()
        };
        assert!(distinct(&fine) >= distinct(&coarse));
    }
}
