//! Per-node access popularity (Def. 2 of the paper).
//!
//! Every node carries an *individual* popularity `p'_j` (how often the node
//! itself is the target of an operation). Its *total* popularity `p_j` adds
//! the popularity flowing through it from its whole subtree, because a
//! POSIX pathname traversal touches every ancestor of the target.
//!
//! The paper's Def. 2 writes the roll-up over direct children's individual
//! popularity only; the surrounding text ("the overall access popularity
//! from its children passing by this node") and the traversal semantics it
//! models require the full recursive roll-up, which is what we implement:
//! `p_j = p'_j + Σ_{c ∈ children(j)} p_c`.

use serde::{Deserialize, Serialize};

use crate::node::NodeId;
use crate::tree::NamespaceTree;

/// Dense per-node popularity table.
///
/// Indexed by [`NodeId::index`]; size it with
/// [`NamespaceTree::arena_size`]. Totals are cached and recomputed by
/// [`rollup`](Popularity::rollup) after individual counts change.
///
/// # Example
///
/// ```
/// use d2tree_namespace::{NamespaceTree, NodeKind, Popularity};
///
/// # fn main() -> Result<(), d2tree_namespace::TreeError> {
/// let mut tree = NamespaceTree::new();
/// let d = tree.create(tree.root(), "d", NodeKind::Directory)?;
/// let f = tree.create(d, "f", NodeKind::File)?;
///
/// let mut pop = Popularity::new(&tree);
/// pop.record(f, 10.0);
/// pop.record(d, 2.0);
/// pop.rollup(&tree);
/// assert_eq!(pop.total(d), 12.0); // own 2 + child 10
/// assert_eq!(pop.total(tree.root()), 12.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Popularity {
    individual: Vec<f64>,
    total: Vec<f64>,
    rolled_up: bool,
}

impl Popularity {
    /// Creates a zeroed table sized for `tree`.
    #[must_use]
    pub fn new(tree: &NamespaceTree) -> Self {
        let n = tree.arena_size();
        Popularity {
            individual: vec![0.0; n],
            total: vec![0.0; n],
            rolled_up: true,
        }
    }

    /// Grows the table to cover nodes created after the table was built.
    pub fn resize_for(&mut self, tree: &NamespaceTree) {
        let n = tree.arena_size();
        if n > self.individual.len() {
            self.individual.resize(n, 0.0);
            self.total.resize(n, 0.0);
        }
    }

    /// Adds `weight` accesses to the node's individual popularity.
    ///
    /// # Panics
    ///
    /// Panics if the id is outside the table; call
    /// [`resize_for`](Self::resize_for) after creating nodes.
    pub fn record(&mut self, id: NodeId, weight: f64) {
        self.individual[id.index()] += weight;
        self.rolled_up = false;
    }

    /// Overwrites the node's individual popularity.
    pub fn set_individual(&mut self, id: NodeId, weight: f64) {
        self.individual[id.index()] = weight;
        self.rolled_up = false;
    }

    /// The node's individual popularity `p'_j`.
    #[must_use]
    pub fn individual(&self, id: NodeId) -> f64 {
        self.individual[id.index()]
    }

    /// The node's total popularity `p_j` as of the last
    /// [`rollup`](Self::rollup).
    ///
    /// # Panics
    ///
    /// In debug builds, panics if individual counts changed since the last
    /// roll-up.
    #[must_use]
    pub fn total(&self, id: NodeId) -> f64 {
        debug_assert!(
            self.rolled_up,
            "call Popularity::rollup before reading totals"
        );
        self.total[id.index()]
    }

    /// Whether cached totals are in sync with the individual counts.
    #[must_use]
    pub fn is_rolled_up(&self) -> bool {
        self.rolled_up
    }

    /// Recomputes all totals bottom-up in `O(n)`.
    ///
    /// Pre-order lists a node before its descendants, so walking it
    /// backwards meets every node after all of its children have their
    /// final totals, regardless of how subtrees were moved around; each
    /// directory then adds its children in name order.
    pub fn rollup(&mut self, tree: &NamespaceTree) {
        self.resize_for(tree);
        self.total.copy_from_slice(&self.individual);
        let mut order = Vec::with_capacity(tree.node_count());
        order.extend(tree.descendants(tree.root()));
        for &id in order.iter().rev() {
            for &(_, child) in tree.child_edges(id) {
                self.total[id.index()] += self.total[child.index()];
            }
        }
        self.rolled_up = true;
    }

    /// Sum of all individual popularities (= total popularity of the root
    /// after a roll-up, Eq. 5 of the paper).
    #[must_use]
    pub fn sum_individual(&self) -> f64 {
        self.individual.iter().sum()
    }

    /// Multiplies every individual popularity by `factor`.
    ///
    /// This is the decay step of the paper's dynamic adjustment: access
    /// counters "decay over time" so stale hotness fades.
    pub fn decay(&mut self, factor: f64) {
        for v in &mut self.individual {
            *v *= factor;
        }
        self.rolled_up = false;
    }

    /// Number of slots in the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.individual.len()
    }

    /// Whether the table has no slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.individual.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeKind;

    fn chain() -> (NamespaceTree, Vec<NodeId>) {
        let mut t = NamespaceTree::new();
        let mut ids = vec![t.root()];
        for name in ["a", "b", "c"] {
            let id = t
                .create(*ids.last().unwrap(), name, NodeKind::Directory)
                .unwrap();
            ids.push(id);
        }
        (t, ids)
    }

    #[test]
    fn rollup_accumulates_along_chain() {
        let (t, ids) = chain();
        let mut pop = Popularity::new(&t);
        pop.record(ids[3], 5.0);
        pop.record(ids[1], 1.0);
        pop.rollup(&t);
        assert_eq!(pop.total(ids[3]), 5.0);
        assert_eq!(pop.total(ids[2]), 5.0);
        assert_eq!(pop.total(ids[1]), 6.0);
        assert_eq!(pop.total(ids[0]), 6.0);
        assert_eq!(pop.sum_individual(), 6.0);
    }

    #[test]
    fn rollup_correct_after_subtree_move() {
        let mut t = NamespaceTree::new();
        let a = t.create(t.root(), "a", NodeKind::Directory).unwrap();
        let f = t.create(a, "f", NodeKind::File).unwrap();
        // `b` is created after `a`, then `a` is moved under `b`: parent ids
        // no longer precede child ids.
        let b = t.create(t.root(), "b", NodeKind::Directory).unwrap();
        t.move_subtree(a, b).unwrap();

        let mut pop = Popularity::new(&t);
        pop.record(f, 3.0);
        pop.rollup(&t);
        assert_eq!(pop.total(b), 3.0);
        assert_eq!(pop.total(t.root()), 3.0);
    }

    #[test]
    fn decay_scales_everything() {
        let (t, ids) = chain();
        let mut pop = Popularity::new(&t);
        pop.record(ids[3], 8.0);
        pop.decay(0.5);
        pop.rollup(&t);
        assert_eq!(pop.individual(ids[3]), 4.0);
        assert_eq!(pop.total(ids[0]), 4.0);
    }

    #[test]
    fn resize_for_covers_new_nodes() {
        let (mut t, ids) = chain();
        let mut pop = Popularity::new(&t);
        let extra = t.create(ids[3], "x", NodeKind::File).unwrap();
        pop.resize_for(&t);
        pop.record(extra, 2.0);
        pop.rollup(&t);
        assert_eq!(pop.total(ids[0]), 2.0);
    }

    #[test]
    fn set_individual_overwrites() {
        let (t, ids) = chain();
        let mut pop = Popularity::new(&t);
        pop.record(ids[2], 7.0);
        pop.set_individual(ids[2], 1.0);
        pop.rollup(&t);
        assert_eq!(pop.total(ids[0]), 1.0);
    }
}
