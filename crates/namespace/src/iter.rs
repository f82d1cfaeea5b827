//! Tree traversal iterators.

use crate::node::NodeId;
use crate::tree::NamespaceTree;

/// Iterator over the strict ancestors of a node, parent first, root last.
///
/// Produced by [`NamespaceTree::ancestors`].
#[derive(Debug, Clone)]
pub struct Ancestors<'a> {
    tree: &'a NamespaceTree,
    next: Option<NodeId>,
}

impl<'a> Ancestors<'a> {
    pub(crate) fn new(tree: &'a NamespaceTree, start: NodeId) -> Self {
        Ancestors {
            tree,
            next: tree.parent_of(start),
        }
    }
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.tree.parent_of(cur);
        Some(cur)
    }
}

/// Allocation-free iterator over the root-to-node chain, walked upward:
/// the node itself first, then its parent, up to the root.
///
/// This visits exactly the ids of
/// [`NamespaceTree::path_from_root`](crate::NamespaceTree::path_from_root)
/// in reverse, without materialising the chain.
/// Produced by [`NamespaceTree::chain_up`](crate::NamespaceTree::chain_up).
#[derive(Debug, Clone)]
pub struct ChainUp<'a> {
    tree: &'a NamespaceTree,
    next: Option<NodeId>,
}

impl<'a> ChainUp<'a> {
    pub(crate) fn new(tree: &'a NamespaceTree, start: NodeId) -> Self {
        ChainUp {
            tree,
            next: Some(start),
        }
    }
}

impl Iterator for ChainUp<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.tree.parent_of(cur);
        Some(cur)
    }
}

/// Pre-order depth-first iterator over a subtree, including its root.
///
/// Children are visited in name order, so traversal order is deterministic.
/// Produced by [`NamespaceTree::descendants`].
#[derive(Debug, Clone)]
pub struct Descendants<'a> {
    tree: &'a NamespaceTree,
    stack: Vec<NodeId>,
}

impl<'a> Descendants<'a> {
    pub(crate) fn new(tree: &'a NamespaceTree, start: NodeId) -> Self {
        let mut walk = Descendants {
            tree,
            stack: Vec::new(),
        };
        walk.restart(start);
        walk
    }

    /// Starts the walk over at `start`, keeping the stack's allocation, so
    /// one walker can visit many subtrees for one allocation.
    pub fn restart(&mut self, start: NodeId) -> &mut Self {
        self.stack.clear();
        if self.tree.contains(start) {
            self.stack.push(start);
        }
        self
    }
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.stack.pop()?;
        // Push in reverse name order so name order pops first.
        let kids = self.tree.child_edges(cur).iter().rev();
        self.stack.extend(kids.map(|&(_, id)| id));
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use crate::{NamespaceTree, NodeId, NodeKind};

    #[test]
    fn ancestors_of_root_is_empty() {
        let t = NamespaceTree::new();
        assert_eq!(t.ancestors(t.root()).count(), 0);
    }

    #[test]
    fn descendants_of_missing_node_is_empty() {
        let t = NamespaceTree::new();
        assert_eq!(t.descendants(NodeId::from_index(1)).count(), 0);
    }

    #[test]
    fn descendants_visit_children_in_name_order() {
        let mut t = NamespaceTree::new();
        let d = t.create(t.root(), "d", NodeKind::Directory).unwrap();
        let z = t.create(d, "z", NodeKind::File).unwrap();
        let a = t.create(d, "a", NodeKind::File).unwrap();
        let m = t.create(d, "m", NodeKind::File).unwrap();
        let order: Vec<_> = t.descendants(d).collect();
        assert_eq!(order, vec![d, a, m, z]);
    }

    #[test]
    fn a_restarted_walk_visits_what_a_fresh_one_does() {
        let mut t = NamespaceTree::new();
        let a = t.create(t.root(), "a", NodeKind::Directory).unwrap();
        let b = t.create(a, "b", NodeKind::Directory).unwrap();
        t.create(b, "f", NodeKind::File).unwrap();
        let gone = NodeId::from_index(t.arena_size());
        let mut walk = t.descendants(t.root());
        walk.next();
        for start in [b, t.root(), gone, a] {
            let fresh: Vec<_> = t.descendants(start).collect();
            assert_eq!(walk.restart(start).collect::<Vec<_>>(), fresh);
        }
    }

    #[test]
    fn preorder_parent_before_children() {
        let mut t = NamespaceTree::new();
        let a = t.create(t.root(), "a", NodeKind::Directory).unwrap();
        let b = t.create(a, "b", NodeKind::Directory).unwrap();
        let c = t.create(b, "c", NodeKind::File).unwrap();
        let order: Vec<_> = t.descendants(t.root()).collect();
        let pos = |x| order.iter().position(|&y| y == x).unwrap();
        assert!(pos(t.root()) < pos(a));
        assert!(pos(a) < pos(b));
        assert!(pos(b) < pos(c));
    }
}
