//! Static subtree partitioning.

use d2tree_core::Partitioner;
use d2tree_metrics::{Assignment, ClusterSpec, MdsId, Placement};
use d2tree_namespace::{NamespaceTree, NodeId, Popularity};

use crate::keys::stable_hash;

/// Depth of the directories that root the immutable subtrees: the
/// children of the root.
const CUT_DEPTH: usize = 1;

/// Static subtree partitioning (Sec. II / Sec. VI "Implements"): "the
/// initial metadata partition was created by hashing directories near the
/// root of the hierarchy".
///
/// Every directory at depth 1 — a child of the root — roots an immutable
/// subtree; the subtree is hashed by its pathname to a
/// server and never moves. The root, above the cut, is hashed on its
/// own.
///
/// The scheme has excellent locality (whole application directories stay
/// on one server) but no answer to skew, which is exactly the trade-off
/// the paper's Figs. 5–7 show.
#[derive(Debug)]
pub struct StaticSubtree {
    seed: u64,
    placement: Option<Placement>,
}

impl StaticSubtree {
    /// Creates the scheme with the paper's near-root cut (depth 1).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        StaticSubtree {
            seed,
            placement: None,
        }
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
        // Arena order puts every parent before its children: a node down
        // to the cut hashes its own pathname, and a node below it takes
        // its parent's owner, which is its subtree root's.
        for (id, node) in tree.nodes() {
            let below_cut = tree.ancestors(id).nth(CUT_DEPTH).is_some();
            let assignment = match node.parent() {
                Some(parent) if below_cut => slots.get(parent),
                _ => Assignment::Single(self.hash_to_mds(tree, id, m)),
            };
            slots.set(id, assignment);
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
}
