//! Hash-based mapping: every node placed independently by pathname hash.

use d2tree_core::Partitioner;
use d2tree_metrics::{Assignment, ClusterSpec, MdsId, Migration, Placement};
use d2tree_namespace::{NamespaceTree, NodeId, Popularity};

use crate::keys::{finalise, fnv1a, fnv1a_extend};

/// Static hash-based mapping (Sec. II; CalvinFS \[9\], Giga+ \[15\]):
/// hash the full pathname, take it modulo the cluster size.
///
/// Balance is essentially perfect and nothing ever migrates, but a
/// pathname traversal visits a fresh random server at almost every step —
/// the worst-case locality the paper contrasts against. The scheme also
/// exposes the rename problem: [`moved_by_rename`] counts how many
/// nodes would rehash when a directory is renamed.
///
/// [`moved_by_rename`]: HashMapping::moved_by_rename
#[derive(Debug)]
pub struct HashMapping {
    seed: u64,
    placement: Option<Placement>,
}

impl HashMapping {
    /// Creates the scheme.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        HashMapping {
            seed,
            placement: None,
        }
    }

    /// The server a pathname with raw FNV-1a state `h` hashes to.
    fn owner_of(&self, h: u64, m: usize) -> MdsId {
        MdsId(((finalise(h) ^ self.seed) % m as u64) as u16)
    }

    /// The string form of [`owner_of`](Self::owner_of): the oracle the
    /// incremental walks are tested against.
    #[cfg(test)]
    fn owner(&self, path: &str, m: usize) -> MdsId {
        self.owner_of(fnv1a(path.as_bytes()), m)
    }

    /// How many nodes change servers if the subtree at `root` is renamed:
    /// every descendant's pathname (and hence hash) changes, so in
    /// expectation `(M−1)/M` of the subtree migrates. This is the
    /// "considerable rehashing overhead" of Sec. II.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Partitioner::build`].
    #[must_use]
    pub fn moved_by_rename(&self, tree: &NamespaceTree, root: NodeId, new_name: &str) -> usize {
        let m = self.placement().cluster_size();
        let Some(parent) = tree.path_of(root).parent() else {
            return 0;
        };
        // As a prefix the root contributes nothing: `/a`, not `//a`.
        let prefix = if parent.depth() == 0 {
            fnv1a(b"")
        } else {
            fnv1a(parent.to_string().as_bytes())
        };
        let old_name = tree.node(root).expect("a node of the tree").name();
        let start = [old_name, new_name].map(|name| extend_path(prefix, name));
        let mut moved = 0;
        walk_hashed(tree, root, start, |_, [old, new]| {
            moved += usize::from(self.owner_of(old, m) != self.owner_of(new, m));
        });
        moved
    }
}

/// Extends a pathname's raw FNV-1a state by one component, `"/" + name`.
fn extend_path(h: u64, name: &str) -> u64 {
    fnv1a_extend(fnv1a_extend(h, b"/"), name.as_bytes())
}

/// Visits every node of the subtree at `root` with the raw FNV-1a
/// state(s) of its pathname, given `root`'s own: each child extends its
/// parent's state by one component, so the walk hashes every pathname
/// without building one. `N` states ride along so that a rename can hash
/// the old and the new pathname in one pass.
fn walk_hashed<const N: usize>(
    tree: &NamespaceTree,
    root: NodeId,
    start: [u64; N],
    mut visit: impl FnMut(NodeId, [u64; N]),
) {
    let mut stack = vec![(root, start)];
    while let Some((id, states)) = stack.pop() {
        visit(id, states);
        let node = tree.node(id).expect("children are nodes");
        for (sym, child) in node.children() {
            let name = tree.symbols().resolve(sym);
            stack.push((child, states.map(|h| extend_path(h, name))));
        }
    }
}

impl Partitioner for HashMapping {
    fn name(&self) -> &'static str {
        "Hash Mapping"
    }

    fn build(&mut self, tree: &NamespaceTree, _pop: &Popularity, cluster: &ClusterSpec) {
        let m = cluster.len();
        let mut placement = Placement::new(tree, m);
        let mut slots = placement.writer(tree);
        walk_hashed(tree, tree.root(), [fnv1a(b"")], |id, [h]| {
            // As a prefix the root is empty, but its own pathname is "/".
            let h = if id == tree.root() { fnv1a(b"/") } else { h };
            slots.set(id, Assignment::Single(self.owner_of(h, m)));
        });
        self.placement = Some(placement);
    }

    fn placement(&self) -> &Placement {
        self.placement
            .as_ref()
            .expect("HashMapping used before build")
    }

    fn rebalance(
        &mut self,
        _tree: &NamespaceTree,
        _pop: &Popularity,
        _cluster: &ClusterSpec,
    ) -> Vec<Migration> {
        Vec::new() // the hash is the balance policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2tree_workload::{TraceProfile, WorkloadBuilder};

    fn setup(m: usize) -> (d2tree_workload::Workload, HashMapping) {
        let w = WorkloadBuilder::new(
            TraceProfile::lmbe()
                .with_nodes(1_500)
                .with_operations(3_000),
        )
        .seed(4)
        .build();
        let pop = w.popularity();
        let mut s = HashMapping::new(17);
        s.build(&w.tree, &pop, &ClusterSpec::homogeneous(m, 10.0));
        (w, s)
    }

    #[test]
    fn node_counts_spread_evenly() {
        let (w, s) = setup(4);
        let mut counts = [0usize; 4];
        for (id, _) in w.tree.nodes() {
            counts[s.placement().assignment(id).owner().unwrap().index()] += 1;
        }
        let ideal = w.tree.node_count() / 4;
        for c in counts {
            assert!(
                (c as i64 - ideal as i64).abs() < (ideal as i64) / 2,
                "counts {counts:?}"
            );
        }
    }

    #[test]
    fn locality_is_poor() {
        use d2tree_core::Partitioner as _;
        let (w, s) = setup(8);
        // Deep nodes should accumulate many jumps.
        let deepest = w
            .tree
            .nodes()
            .map(|(id, _)| id)
            .max_by_key(|&id| w.tree.depth(id))
            .unwrap();
        assert!(w.tree.depth(deepest) >= 5);
        assert!(s.jumps(&w.tree, deepest) >= 2);
    }

    #[test]
    fn a_rename_forces_rehashing() {
        let (w, s) = setup(4);
        // Find a directory with a reasonably large subtree.
        let dir = w
            .tree
            .nodes()
            .filter(|(_, n)| n.kind().is_directory())
            .map(|(id, _)| id)
            .filter(|&id| id != w.tree.root())
            .max_by_key(|&id| w.tree.subtree_size(id))
            .unwrap();
        let size = w.tree.subtree_size(dir);
        let moved = s.moved_by_rename(&w.tree, dir, "renamed");
        // Expect roughly (M-1)/M = 75% of descendants to move.
        assert!(size >= 10);
        assert!(
            moved as f64 >= 0.4 * size as f64,
            "rename moved only {moved} of {size} nodes"
        );
    }

    /// The string-building count `moved_by_rename` replaced, kept as
    /// the oracle.
    fn moved_by_rename_by_strings(
        s: &HashMapping,
        tree: &NamespaceTree,
        root: NodeId,
        new_name: &str,
    ) -> usize {
        let m = s.placement().cluster_size();
        let old_prefix = tree.path_of(root).to_string();
        let new_prefix = match tree.path_of(root).parent() {
            Some(parent) => format!("{parent}/{new_name}").replace("//", "/"),
            None => return 0,
        };
        tree.descendants(root)
            .filter(|&id| {
                let old_path = tree.path_of(id).to_string();
                let new_path = format!("{new_prefix}{}", &old_path[old_prefix.len()..]);
                s.owner(&old_path, m) != s.owner(&new_path, m)
            })
            .count()
    }

    #[test]
    fn single_pass_build_and_rename_match_the_pathname_strings() {
        for seed in [1, 2] {
            for (name, tree) in crate::tests::oracle_trees(seed) {
                let pop = Popularity::new(&tree);
                for m in [1, 7, 16] {
                    let mut s = HashMapping::new(seed * 31);
                    s.build(&tree, &pop, &ClusterSpec::homogeneous(m, 1.0));
                    assert!(s.placement().is_complete(&tree));
                    for (id, _) in tree.nodes() {
                        assert_eq!(
                            s.placement().assignment(id).owner(),
                            Some(s.owner(&tree.path_of(id).to_string(), m)),
                            "{name} tree, seed {seed}, M = {m}, {}",
                            tree.path_of(id)
                        );
                    }
                    // Renames at the top (parent is the root), of the
                    // largest directory, and of the root itself.
                    let dirs = tree
                        .nodes()
                        .filter(|(id, n)| n.kind().is_directory() && *id != tree.root());
                    let biggest = dirs
                        .map(|(id, _)| id)
                        .max_by_key(|&id| tree.subtree_size(id))
                        .expect("a directory");
                    let deep = tree
                        .nodes()
                        .map(|(id, _)| id)
                        .max_by_key(|&id| tree.depth(id))
                        .expect("a node");
                    let deep_dir = tree.node(deep).and_then(|n| n.parent()).expect("parent");
                    for root in [biggest, deep_dir, tree.root()] {
                        assert_eq!(
                            s.moved_by_rename(&tree, root, "renamed"),
                            moved_by_rename_by_strings(&s, &tree, root, "renamed"),
                            "{name} tree, seed {seed}, M = {m}, rename of {}",
                            tree.path_of(root)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rebalance_is_a_noop() {
        let (w, mut s) = setup(4);
        let pop = w.popularity();
        assert!(s
            .rebalance(&w.tree, &pop, &ClusterSpec::homogeneous(4, 10.0))
            .is_empty());
    }
}
