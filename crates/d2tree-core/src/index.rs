//! The local index: inter node → owners of its local-layer subtrees.
//!
//! Clients cache this index. A query whose path prefix hits an inter node
//! goes straight to the MDS owning the corresponding subtree; a query whose
//! prefix never leaves the global layer can be served by any MDS
//! (Sec. IV-A2 of the paper).

use std::collections::hash_map::Entry;
use std::sync::{Arc, OnceLock};

use d2tree_metrics::MdsId;
use d2tree_namespace::{NamespaceTree, NodeId, NodeIdMap};
use serde::{Deserialize, Serialize};

/// Label of an arena slot that no indexed subtree root covers: a
/// global-layer node or a tombstone.
const NO_ROOT: u32 = u32::MAX;

/// The answers of [`LocalIndex::locate`] for one state of one tree, one
/// label per arena slot: the position in `LocalIndex::roots` of the
/// node's shallowest indexed ancestor (itself included), or [`NO_ROOT`].
///
/// Immutable once built. A label names a *root*, never an owner, so it
/// outlives owner changes; it is wrong as soon as the set of roots or
/// the tree's structure changes, which the index handles by dropping the
/// table and `locate` by comparing `stamp`.
#[derive(Debug)]
struct Labels {
    /// `(identity, version)` of the tree the labels were computed over.
    stamp: (u64, u64),
    of: Vec<u32>,
}

impl Labels {
    fn stamp_of(tree: &NamespaceTree) -> (u64, u64) {
        (tree.identity(), tree.version())
    }

    /// Labels the subtree at `from` in pre-order: a node inherits its
    /// parent's label, and an unlabelled node that is indexed starts a
    /// new one — so the shallowest root on a chain wins, as in the
    /// client walk of Sec. IV-A2. A tombstoned `from` labels itself
    /// alone, which is its whole chain.
    fn paint(&mut self, index: &LocalIndex, tree: &NamespaceTree, from: NodeId) {
        let mut stack = vec![(from, NO_ROOT)];
        while let Some((id, inherited)) = stack.pop() {
            let label = if inherited == NO_ROOT {
                index.slots.get(&id).copied().unwrap_or(NO_ROOT)
            } else {
                inherited
            };
            self.of[id.index()] = label;
            if let Some(node) = tree.node(id) {
                stack.extend(node.children().map(|(_, child)| (child, label)));
            }
        }
    }

    /// One pass over the whole tree.
    fn build(index: &LocalIndex, tree: &NamespaceTree) -> Self {
        let mut labels = Labels {
            stamp: Self::stamp_of(tree),
            of: vec![NO_ROOT; tree.arena_size()],
        };
        labels.paint(index, tree, tree.root());
        // The pass never reaches a tombstone; one that is still indexed
        // answers with itself, like the uncached walk.
        for &(root, _) in index.roots.iter() {
            if labels.of.get(root.index()) == Some(&NO_ROOT) {
                labels.paint(index, tree, root);
            }
        }
        labels
    }
}

/// Versioned map from local-layer subtree roots to their owning MDS.
///
/// The version number supports the paper's client-cache consistency story
/// (version number + timeout + lease, borrowed from GFS): a client whose
/// cached version lags the server's re-fetches the index.
///
/// [`locate`](LocalIndex::locate) — the per-operation routing query —
/// reads a flat label table (one `u32` per tree node, built by one
/// pre-order pass) instead of walking the target's ancestor chain. The
/// table is derived state: clones share it, equality ignores it, an
/// owner change leaves it alone and a change to the *set* of roots drops
/// it, to be built again by the next `locate` or by
/// [`relabel`](LocalIndex::relabel).
///
/// The root table itself is copy-on-write: a clone — a client's cache,
/// each daemon's copy — shares it until either side inserts, removes or
/// replaces a root. A root's *slot*, its position in that table (see
/// [`locate_slot`](LocalIndex::locate_slot)), is in `0..len()` and stays
/// put until a root is removed or the table replaced.
///
/// # Example
///
/// ```
/// use d2tree_core::LocalIndex;
/// use d2tree_metrics::MdsId;
/// use d2tree_namespace::{NamespaceTree, NodeKind};
///
/// # fn main() -> Result<(), d2tree_namespace::TreeError> {
/// let mut tree = NamespaceTree::new();
/// let a = tree.create(tree.root(), "a", NodeKind::Directory)?;
/// let mut idx = LocalIndex::new();
/// idx.insert(a, MdsId(1));
/// assert_eq!(idx.owner_of(a), Some(MdsId(1)));
/// assert_eq!(idx.version(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct LocalIndex {
    /// Subtree root → its position in `roots`.
    slots: Arc<NodeIdMap<u32>>,
    /// `(subtree root, owner)` by slot — what the labels point into. A
    /// slice, so `locate` reaches an entry in one load from the index, as
    /// it did from a `Vec`; adding or removing a root copies it, which
    /// the relabel such a change causes dwarfs.
    roots: Arc<[(NodeId, MdsId)]>,
    version: u64,
    /// Derived from `slots` and one tree state; empty until first needed
    /// and after every change to the set of roots. Behind an `Arc` so
    /// that clones (a client router, each daemon) read one array.
    labels: OnceLock<Arc<Labels>>,
}

impl LocalIndex {
    /// Creates an empty index at version 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of indexed subtree roots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.roots.len()
    }

    /// Whether the index is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Monotonic version, bumped on every mutation.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Registers (or re-registers) a subtree root's owner. Re-registering
    /// — what a migration does — is one store; a new root drops the label
    /// table.
    pub fn insert(&mut self, subtree_root: NodeId, owner: MdsId) {
        match self.slot_of(subtree_root) {
            Some(slot) => Arc::make_mut(&mut self.roots)[slot].1 = owner,
            None => {
                Arc::make_mut(&mut self.slots).insert(subtree_root, self.roots.len() as u32);
                let old = self.roots.iter().copied();
                self.roots = old.chain([(subtree_root, owner)]).collect();
                self.labels.take();
            }
        }
        self.version += 1;
    }

    /// Removes a subtree root (e.g. when it is promoted into the global
    /// layer). Returns the previous owner, if any. The root that held the
    /// last slot moves into the vacated one.
    pub fn remove(&mut self, subtree_root: NodeId) -> Option<MdsId> {
        let slot = self.slot_of(subtree_root)?;
        let slots = Arc::make_mut(&mut self.slots);
        slots.remove(&subtree_root);
        let mut roots = self.roots.to_vec();
        let (_, owner) = roots.swap_remove(slot);
        if let Some(&(moved, _)) = roots.get(slot) {
            slots.insert(moved, slot as u32);
        }
        self.roots = roots.into();
        self.labels.take();
        self.version += 1;
        Some(owner)
    }

    /// Direct owner lookup for a known subtree root.
    #[must_use]
    pub fn owner_of(&self, subtree_root: NodeId) -> Option<MdsId> {
        let slot = self.slot_of(subtree_root)?;
        Some(self.roots[slot].1)
    }

    /// The slot of a known subtree root.
    #[must_use]
    pub fn slot_of(&self, subtree_root: NodeId) -> Option<usize> {
        self.slots.get(&subtree_root).map(|&slot| slot as usize)
    }

    /// The client lookup of Sec. IV-A2: find the first (shallowest)
    /// indexed subtree root on the root-to-`target` chain and return it
    /// with its owner.
    ///
    /// `None` means every prefix node is in the global layer, so the query
    /// may be sent to any MDS.
    ///
    /// With a label table built over this state of `tree` the answer is
    /// two array loads: no lock, no hashing, no write. A missing table is
    /// built here, once per burst of changes to the root set. A table
    /// built over another tree, or over this one before it was mutated,
    /// is left alone and the answer comes from
    /// [`locate_uncached`](Self::locate_uncached) — correct and slower;
    /// whoever mutates a tree under a live index calls
    /// [`relabel`](Self::relabel) to get the fast path back.
    #[must_use]
    pub fn locate(&self, tree: &NamespaceTree, target: NodeId) -> Option<(NodeId, MdsId)> {
        let slot = self.root_slot(tree, target)?;
        Some(self.roots[slot])
    }

    /// [`locate`](Self::locate), answering with the root's slot as well:
    /// `(slot, subtree root, owner)`, from the same label load.
    #[must_use]
    pub fn locate_slot(
        &self,
        tree: &NamespaceTree,
        target: NodeId,
    ) -> Option<(usize, NodeId, MdsId)> {
        let slot = self.root_slot(tree, target)?;
        let (root, owner) = self.roots[slot];
        Some((slot, root, owner))
    }

    /// The slot of `target`'s shallowest indexed ancestor. Answers with a
    /// slot alone, not the root and owner as well, so that both callers
    /// get it back in registers.
    fn root_slot(&self, tree: &NamespaceTree, target: NodeId) -> Option<usize> {
        let labels = self
            .labels
            .get_or_init(|| Arc::new(Labels::build(self, tree)));
        if labels.stamp != Labels::stamp_of(tree) {
            return self.walk(tree, target);
        }
        match labels.of.get(target.index()) {
            Some(&NO_ROOT) => None,
            Some(&slot) => Some(slot as usize),
            // Past the arena: not a node of this tree, though nothing
            // stops a caller from having indexed it.
            None => self.walk(tree, target),
        }
    }

    /// Builds the label table for this state of `tree` unless it is
    /// already in place. For whoever holds both mutably: build it before
    /// cloning the index and every clone shares the one array.
    pub fn relabel(&mut self, tree: &NamespaceTree) {
        if !self.labelled_for(tree) {
            self.labels = OnceLock::from(Arc::new(Labels::build(self, tree)));
        }
    }

    /// Whether a label table built over this state of `tree` is in
    /// place, i.e. [`locate`](Self::locate) is two loads. Worth asserting
    /// where an index that went through [`relabel`](Self::relabel) meets
    /// the tree it will serve: `false` there means the tree was cloned
    /// (a clone is another tree) or mutated since, and every `locate`
    /// walks.
    #[must_use]
    pub fn labelled_for(&self, tree: &NamespaceTree) -> bool {
        self.labels.get().map(|l| l.stamp) == Some(Labels::stamp_of(tree))
    }

    /// [`locate`](Self::locate) without the table: one allocation-free
    /// upward walk of the parent chain, keeping the shallowest indexed
    /// hit. The oracle the table is tested against, and the answer path
    /// when the table does not match the tree.
    #[must_use]
    pub fn locate_uncached(&self, tree: &NamespaceTree, target: NodeId) -> Option<(NodeId, MdsId)> {
        let slot = self.walk(tree, target)?;
        Some(self.roots[slot])
    }

    /// The slot [`locate_uncached`](Self::locate_uncached) answers with.
    /// Out of line, so that its hash probes and register saves stay out
    /// of `locate`'s two loads.
    #[inline(never)]
    fn walk(&self, tree: &NamespaceTree, target: NodeId) -> Option<usize> {
        // Walking upward visits the chain deepest-first, so the last hit
        // seen is the shallowest — the one the downward client walk of
        // Sec. IV-A2 would report first.
        tree.chain_up(target)
            .filter_map(|id| self.slots.get(&id))
            .last()
            .map(|&slot| slot as usize)
    }

    /// Iterates over `(subtree_root, owner)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, MdsId)> + '_ {
        // The map's order, not the slots': fail-over and rejoin journal
        // their claims in iteration order, and that order is what it was
        // when the map held the owners itself.
        self.slots.values().map(|&slot| self.roots[slot as usize])
    }

    /// Rebuilds the index from an aligned `(subtree_root, owner)` listing,
    /// bumping the version once.
    pub fn replace_all<I>(&mut self, entries: I)
    where
        I: IntoIterator<Item = (NodeId, MdsId)>,
    {
        let entries = entries.into_iter();
        // A fresh map reserved up front, as collecting into one would:
        // the bucket count decides the iteration order (see `iter`).
        let mut slots = NodeIdMap::default();
        slots.reserve(entries.size_hint().0);
        let mut roots: Vec<(NodeId, MdsId)> = Vec::with_capacity(entries.size_hint().0);
        for (subtree_root, owner) in entries {
            match slots.entry(subtree_root) {
                Entry::Occupied(slot) => roots[*slot.get() as usize].1 = owner,
                Entry::Vacant(slot) => {
                    slot.insert(roots.len() as u32);
                    roots.push((subtree_root, owner));
                }
            }
        }
        self.slots = Arc::new(slots);
        self.roots = roots.into();
        self.labels.take();
        self.version += 1;
    }
}

impl PartialEq for LocalIndex {
    fn eq(&self, other: &Self) -> bool {
        self.version == other.version
            && self.len() == other.len()
            && self
                .iter()
                .all(|(root, owner)| other.owner_of(root) == Some(owner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2tree_namespace::NodeKind;

    fn deep_tree() -> (NamespaceTree, NodeId, NodeId, NodeId) {
        let mut t = NamespaceTree::new();
        let a = t.create(t.root(), "a", NodeKind::Directory).unwrap();
        let b = t.create(a, "b", NodeKind::Directory).unwrap();
        let c = t.create(b, "c", NodeKind::File).unwrap();
        (t, a, b, c)
    }

    #[test]
    fn locate_finds_nearest_indexed_prefix() {
        let (t, _a, b, c) = deep_tree();
        let mut idx = LocalIndex::new();
        idx.insert(b, MdsId(2));
        // Looking up c: prefix chain root, a, b, c — b is indexed.
        assert_eq!(idx.locate(&t, c), Some((b, MdsId(2))));
        // Looking up the subtree root itself also resolves.
        assert_eq!(idx.locate(&t, b), Some((b, MdsId(2))));
    }

    #[test]
    fn locate_returns_none_for_global_layer_targets() {
        let (t, a, b, _c) = deep_tree();
        let mut idx = LocalIndex::new();
        idx.insert(b, MdsId(0));
        assert_eq!(idx.locate(&t, a), None);
        assert_eq!(idx.locate(&t, t.root()), None);
    }

    #[test]
    fn locate_prefers_the_shallowest_indexed_ancestor() {
        let (t, a, b, c) = deep_tree();
        let mut idx = LocalIndex::new();
        idx.insert(a, MdsId(1));
        idx.insert(b, MdsId(2));
        // Both a and b lie on c's chain; the client walk hits a first.
        assert_eq!(idx.locate(&t, c), Some((a, MdsId(1))));
        assert_eq!(idx.locate_uncached(&t, c), Some((a, MdsId(1))));
    }

    #[test]
    fn versions_bump_on_mutation_only() {
        let (_t, a, b, _c) = deep_tree();
        let mut idx = LocalIndex::new();
        assert_eq!(idx.version(), 0);
        idx.insert(a, MdsId(0));
        assert_eq!(idx.version(), 1);
        idx.insert(a, MdsId(1)); // re-registration still bumps
        assert_eq!(idx.version(), 2);
        assert_eq!(idx.remove(b), None);
        assert_eq!(idx.version(), 2, "removing a missing key does not bump");
        assert_eq!(idx.remove(a), Some(MdsId(1)));
        assert_eq!(idx.version(), 3);
    }

    #[test]
    fn replace_all_swaps_contents() {
        let (_t, a, b, _c) = deep_tree();
        let mut idx = LocalIndex::new();
        idx.insert(a, MdsId(0));
        idx.replace_all([(b, MdsId(1))]);
        assert_eq!(idx.owner_of(a), None);
        assert_eq!(idx.owner_of(b), Some(MdsId(1)));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn labels_follow_index_mutations() {
        let (t, a, b, c) = deep_tree();
        let mut idx = LocalIndex::new();
        idx.insert(b, MdsId(2));
        assert_eq!(idx.locate(&t, c), Some((b, MdsId(2))));
        // Re-register b elsewhere: the answer names the new owner.
        idx.insert(b, MdsId(5));
        assert_eq!(idx.locate(&t, c), Some((b, MdsId(5))));
        // Indexing a shallower ancestor changes the answer too, even
        // though no label mentioned it yet.
        idx.insert(a, MdsId(7));
        assert_eq!(idx.locate(&t, c), Some((a, MdsId(7))));
        idx.remove(a);
        assert_eq!(idx.locate(&t, c), Some((b, MdsId(5))));
        idx.remove(b);
        assert_eq!(idx.locate(&t, c), None);
        idx.replace_all([(b, MdsId(6))]);
        assert_eq!(idx.locate(&t, c), Some((b, MdsId(6))));
        assert_eq!(idx.locate(&t, a), None);
    }

    #[test]
    fn a_mutated_tree_is_answered_by_the_walk_until_relabelled() {
        let (mut t, a, b, c) = deep_tree();
        let mut idx = LocalIndex::new();
        idx.insert(a, MdsId(1));
        assert_eq!(idx.locate(&t, c), Some((a, MdsId(1))));
        let built = Arc::clone(idx.labels.get().unwrap());
        // Move b (and its child c) to the root: a leaves c's chain.
        t.move_subtree(b, t.root()).unwrap();
        assert_eq!(idx.locate(&t, c), None);
        assert_eq!(idx.locate(&t, b), None);
        assert!(
            Arc::ptr_eq(&built, idx.labels.get().unwrap()),
            "a stamp mismatch reads around the table, it does not rebuild it"
        );
        idx.relabel(&t);
        assert!(idx.labelled_for(&t));
        assert_eq!(idx.locate(&t, c), None);
        idx.insert(b, MdsId(3));
        assert_eq!(idx.locate(&t, c), Some((b, MdsId(3))));
    }

    #[test]
    fn a_second_tree_is_answered_correctly_by_an_index_built_on_the_first() {
        let (t, a, _b, c) = deep_tree();
        let mut idx = LocalIndex::new();
        idx.insert(a, MdsId(1));
        assert_eq!(idx.locate(&t, c), Some((a, MdsId(1))));
        // Same ids, same version counter, another shape: only the
        // identity tells the two trees apart.
        let mut other = NamespaceTree::new();
        let x = other
            .create(other.root(), "x", NodeKind::Directory)
            .unwrap();
        let y = other
            .create(other.root(), "y", NodeKind::Directory)
            .unwrap();
        let z = other.create(y, "z", NodeKind::File).unwrap();
        assert_eq!((x, other.version()), (a, t.version()));
        assert_eq!(idx.locate(&other, z), None);
        assert_eq!(idx.locate(&other, x), Some((a, MdsId(1))));
        // A clone of the first tree is a second tree too.
        let copy = t.clone();
        assert_eq!(idx.locate(&copy, c), Some((a, MdsId(1))));
        assert_eq!(idx.locate(&t, c), Some((a, MdsId(1))));
    }

    #[test]
    fn tombstoned_and_out_of_range_targets_match_the_walk() {
        let (mut t, a, b, c) = deep_tree();
        let beyond = NodeId::from_index(t.arena_size() + 7);
        let mut idx = LocalIndex::new();
        idx.insert(a, MdsId(1));
        idx.insert(b, MdsId(2));
        idx.insert(beyond, MdsId(3));
        t.remove_subtree(b).unwrap();
        // A tombstone's chain is the node alone: b still answers with
        // itself, c (never indexed) with nothing, and a is untouched.
        for target in [
            t.root(),
            a,
            b,
            c,
            beyond,
            NodeId::from_index(beyond.index() + 1),
        ] {
            assert_eq!(idx.locate(&t, target), idx.locate_uncached(&t, target));
        }
        assert!(idx.labelled_for(&t));
        assert_eq!(idx.locate(&t, b), Some((b, MdsId(2))));
        assert_eq!(idx.locate(&t, c), None);
        assert_eq!(idx.locate(&t, beyond), Some((beyond, MdsId(3))));
    }

    #[test]
    fn clone_and_eq_ignore_the_labels() {
        let (t, _a, b, c) = deep_tree();
        let mut idx = LocalIndex::new();
        idx.insert(b, MdsId(2));
        let cold = idx.clone();
        let answer = idx.locate(&t, c);
        assert_eq!(idx, cold, "a built table must not affect equality");
        assert_eq!(cold.locate(&t, c), answer);
        assert_eq!(idx, cold);
        // Same owners reached by another insertion order are equal too.
        let mut other = LocalIndex::new();
        other.insert(c, MdsId(9));
        other.insert(b, MdsId(2));
        other.remove(c);
        assert_ne!(idx, other, "versions differ");
        idx.insert(c, MdsId(9));
        idx.remove(c);
        assert_eq!(idx, other);
        assert!(
            !Arc::ptr_eq(&idx.roots, &other.roots),
            "equal by contents, not by sharing a table"
        );
        idx.insert(b, MdsId(3));
        other.insert(b, MdsId(4));
        assert_ne!(idx, other, "same version, another owner");
    }

    /// What the serving set-up relies on: the index is labelled once,
    /// and the router's and every daemon's clone read that one array —
    /// through owner changes, until a clone changes its own root set.
    #[test]
    fn clones_share_the_label_array_until_their_root_set_changes() {
        let (t, a, b, c) = deep_tree();
        let mut idx = LocalIndex::new();
        idx.insert(b, MdsId(2));
        idx.relabel(&t);
        let shared = |x: &LocalIndex, y: &LocalIndex| match (x.labels.get(), y.labels.get()) {
            (Some(x), Some(y)) => Arc::ptr_eq(x, y),
            _ => false,
        };
        let mut router = idx.clone();
        let mut daemon = idx.clone();
        assert!(shared(&idx, &router) && shared(&idx, &daemon));
        // A migration re-points an existing root: one store, same array.
        daemon.insert(b, MdsId(4));
        assert!(shared(&idx, &daemon));
        assert_eq!(daemon.locate(&t, c), Some((b, MdsId(4))));
        assert_eq!(router.locate(&t, c), Some((b, MdsId(2))));
        // A new root is private to the clone that took it.
        router.insert(a, MdsId(7));
        assert_eq!(router.locate(&t, c), Some((a, MdsId(7))));
        assert!(!shared(&idx, &router) && shared(&idx, &daemon));
        assert_eq!(idx.locate(&t, c), Some((b, MdsId(2))));
        assert_eq!(daemon.locate(&t, c), Some((b, MdsId(4))));
    }

    /// A clone shares the root table until either side writes, and the
    /// write lands on the writer alone, whichever side that is.
    #[test]
    fn clones_share_the_root_table_until_one_side_writes() {
        use std::collections::BTreeMap;

        let (mut t, a, b, c) = deep_tree();
        let d = t.create(t.root(), "d", NodeKind::Directory).unwrap();
        let other_tree = t.clone();
        let mut base = LocalIndex::new();
        base.insert(b, MdsId(2));
        base.insert(d, MdsId(3));
        base.relabel(&t);
        let reads = |idx: &LocalIndex| {
            let answers: Vec<_> = [t.root(), a, b, c, d]
                .into_iter()
                .map(|n| (idx.locate_slot(&t, n), idx.locate_uncached(&t, n)))
                .collect();
            let owners: BTreeMap<_, _> = idx.iter().collect();
            (idx.version(), idx.len(), owners, answers)
        };
        let shared = |x: &LocalIndex, y: &LocalIndex| Arc::ptr_eq(&x.roots, &y.roots);
        type Write<'a> = Box<dyn Fn(&mut LocalIndex) + 'a>;
        let writes: [(&str, bool, Write); 5] = [
            (
                "insert of an existing root",
                true,
                Box::new(|i| i.insert(b, MdsId(5))),
            ),
            (
                "insert of a new root",
                true,
                Box::new(|i| i.insert(a, MdsId(7))),
            ),
            (
                "remove",
                true,
                Box::new(|i| assert_eq!(i.remove(b), Some(MdsId(2)))),
            ),
            (
                "replace_all",
                true,
                Box::new(|i| i.replace_all([(c, MdsId(1))])),
            ),
            ("relabel", false, Box::new(|i| i.relabel(&other_tree))),
        ];
        let before = reads(&base);
        for (name, writes_roots, write) in &writes {
            let mut copy = base.clone();
            assert!(shared(&copy, &base) && copy == base, "{name}");
            write(&mut copy);
            assert_eq!(!shared(&copy, &base), *writes_roots, "{name}");
            assert_eq!(
                reads(&base),
                before,
                "{name} on a clone reached the original"
            );

            let mut original = base.clone();
            let kept = original.clone();
            write(&mut original);
            assert_eq!(
                reads(&kept),
                before,
                "{name} on the original reached a clone"
            );
            assert_eq!(
                reads(&original),
                reads(&copy),
                "{name}: the same write, the same index"
            );
        }
        // A miss writes nothing and copies nothing.
        let mut copy = base.clone();
        assert_eq!(copy.remove(c), None);
        assert!(shared(&copy, &base) && copy == base);
    }

    #[test]
    fn repeat_locates_agree_with_uncached() {
        let (t, a, b, c) = deep_tree();
        let mut idx = LocalIndex::new();
        idx.insert(a, MdsId(4));
        for target in [t.root(), a, b, c] {
            for _ in 0..3 {
                assert_eq!(idx.locate(&t, target), idx.locate_uncached(&t, target));
            }
        }
    }

    /// Two sibling subtrees: re-registering one root changes the answers
    /// under it and no answer under the other.
    #[test]
    fn an_owner_change_moves_only_its_own_subtree() {
        let mut t = NamespaceTree::new();
        let left = t.create(t.root(), "left", NodeKind::Directory).unwrap();
        let right = t.create(t.root(), "right", NodeKind::Directory).unwrap();
        let leaves: Vec<NodeId> = (0..8)
            .map(|i| t.create(left, &format!("f{i}"), NodeKind::File).unwrap())
            .collect();
        let rleaf = t.create(right, "r0", NodeKind::File).unwrap();

        let mut idx = LocalIndex::new();
        idx.insert(left, MdsId(1));
        idx.insert(right, MdsId(2));
        for &leaf in &leaves {
            assert_eq!(idx.locate(&t, leaf), Some((left, MdsId(1))));
        }
        assert_eq!(idx.locate(&t, rleaf), Some((right, MdsId(2))));

        idx.insert(right, MdsId(3));
        for &leaf in &leaves {
            assert_eq!(idx.locate(&t, leaf), Some((left, MdsId(1))));
        }
        assert_eq!(idx.locate(&t, rleaf), Some((right, MdsId(3))));
    }

    /// Every root re-registered between two rounds of locates — a whole
    /// cluster's worth of migrations in one burst.
    #[test]
    fn a_burst_of_owner_changes_is_seen_by_the_next_locates() {
        let mut t = NamespaceTree::new();
        let roots: Vec<NodeId> = (0..36)
            .map(|i| {
                t.create(t.root(), &format!("d{i}"), NodeKind::Directory)
                    .unwrap()
            })
            .collect();
        let mut idx = LocalIndex::new();
        for (i, &r) in roots.iter().enumerate() {
            idx.insert(r, MdsId(i as u16));
        }
        for (i, &r) in roots.iter().enumerate() {
            assert_eq!(idx.locate(&t, r), Some((r, MdsId(i as u16))));
        }
        for (i, &r) in roots.iter().enumerate() {
            idx.insert(r, MdsId(100 + i as u16));
        }
        for (i, &r) in roots.iter().enumerate() {
            assert_eq!(idx.locate(&t, r), Some((r, MdsId(100 + i as u16))));
        }
    }

    /// Randomised interleaving of everything that can move an answer —
    /// new roots, removed roots, owner changes, tree mutations, clones
    /// taken mid-sequence, explicit relabels — against the uncached
    /// walk, on the original and on every clone. Each clone also carries
    /// a plain map of what was done to *it*: a write to one clone that
    /// leaked into a sibling (through the shared label array, say)
    /// shows up as that sibling's owners or answers drifting from its
    /// own model.
    #[test]
    fn interleaved_mutations_always_agree_with_uncached() {
        use std::collections::BTreeMap;

        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rng = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let mut t = NamespaceTree::new();
        // Every id ever minted stays a target: tombstones are part of
        // the domain.
        let mut nodes = vec![t.root()];
        for i in 0..40 {
            let parent = nodes[rng(nodes.len())];
            if let Ok(id) = t.create(parent, &format!("n{i}"), NodeKind::Directory) {
                nodes.push(id);
            }
        }
        let check = |t: &NamespaceTree,
                     worlds: &[(LocalIndex, BTreeMap<NodeId, MdsId>)],
                     target: NodeId,
                     step: usize| {
            for (k, (idx, model)) in worlds.iter().enumerate() {
                let walked = idx.locate_uncached(t, target);
                assert_eq!(
                    idx.locate(t, target),
                    walked,
                    "step {step} clone {k} target {target:?}"
                );
                // The slot is the root's, through every swap a removal made.
                let slotted = idx.locate_slot(t, target);
                assert_eq!(slotted.map(|(_, root, owner)| (root, owner)), walked);
                if let Some((slot, root, _)) = slotted {
                    assert_eq!(idx.slot_of(root), Some(slot), "step {step} clone {k}");
                }
                let modelled = t
                    .chain_up(target)
                    .filter_map(|id| model.get(&id).map(|&owner| (id, owner)))
                    .last();
                assert_eq!(walked, modelled, "step {step} clone {k} target {target:?}");
            }
        };
        let mut worlds = vec![(LocalIndex::new(), BTreeMap::new())];
        let mut kinds = [0usize; 9];
        for step in 0..2_000 {
            let n = nodes[rng(nodes.len())];
            let k = rng(worlds.len());
            let (idx, model) = &mut worlds[k];
            let kind = rng(16);
            match kind {
                0 => {
                    // A new root, or an owner change when `n` is one.
                    let owner = MdsId(rng(8) as u16);
                    idx.insert(n, owner);
                    model.insert(n, owner);
                }
                1 => assert_eq!(idx.remove(n), model.remove(&n)),
                2 | 3 if !model.is_empty() => {
                    let (&root, _) = model.iter().nth(rng(model.len())).unwrap();
                    if kind == 2 {
                        assert_eq!(idx.remove(root), model.remove(&root));
                    } else {
                        let owner = MdsId(rng(8) as u16);
                        idx.insert(root, owner);
                        model.insert(root, owner);
                    }
                }
                4 => {
                    if let Ok(id) = t.create(n, &format!("s{step}"), NodeKind::Directory) {
                        nodes.push(id);
                    }
                }
                5 => {
                    let _ = t.move_subtree(n, nodes[rng(nodes.len())]);
                }
                // Rarely, and never near the top: the tree has to last.
                6 if rng(4) == 0 && t.contains(n) && t.depth(n) > 2 => {
                    t.remove_subtree(n).unwrap();
                }
                7 => {
                    let copy = worlds[k].clone();
                    if worlds.len() < 4 {
                        worlds.push(copy);
                    } else {
                        let victim = rng(worlds.len());
                        worlds[victim] = copy;
                    }
                }
                8 => idx.relabel(&t),
                _ => {}
            }
            kinds[kind.min(8)] += 1;
            for (idx, model) in &worlds {
                assert_eq!(&idx.iter().collect::<BTreeMap<_, _>>(), model);
            }
            check(&t, &worlds, n, step);
            check(
                &t,
                &worlds,
                NodeId::from_index(t.arena_size() + rng(3)),
                step,
            );
            if step % 100 == 0 {
                for &target in &nodes {
                    check(&t, &worlds, target, step);
                }
            }
        }
        assert!(kinds.iter().all(|&n| n > 50), "every kind of step ran");
        assert!(t.arena_size() > t.node_count(), "something was tombstoned");
    }
}
