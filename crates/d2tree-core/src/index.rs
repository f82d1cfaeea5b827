//! The local index: inter node → owners of its local-layer subtrees.
//!
//! Clients cache this index. A query whose path prefix hits an inter node
//! goes straight to the MDS owning the corresponding subtree; a query whose
//! prefix never leaves the global layer can be served by any MDS
//! (Sec. IV-A2 of the paper).

use std::sync::Mutex;

use d2tree_metrics::MdsId;
use d2tree_namespace::{ChainUp, NamespaceTree, NodeId, NodeIdMap};
use serde::{Deserialize, Serialize};

/// One memoised [`LocalIndex::locate`] answer.
///
/// Targeted invalidation needs no more than the answer itself: with the
/// tree unchanged (tree mutations are handled by the tree stamp), the
/// answer is the *shallowest* indexed node on the root-to-target chain,
/// so an index mutation at `D` can change it only if `D` lies on that
/// chain at or above the answer's root — or anywhere on it when there
/// is no answer. That stretch is [`MemoEntry::deciding_chain`], re-walked
/// from the tree when a mutation has to be checked instead of being
/// stored per entry (it is the global-layer prefix, a few nodes long,
/// and an entry is a third of the size without it).
#[derive(Debug)]
struct MemoEntry {
    answer: Option<(NodeId, MdsId)>,
    /// Dirty-log frontier this entry was last validated against. Probing
    /// an entry only has to check the log *suffix* recorded after this
    /// point, and a successful probe moves the stamp forward.
    epoch: u64,
}

impl MemoEntry {
    /// The nodes whose indexing decides this entry's answer for
    /// `target`: the answer's root and its ancestors, or the target's
    /// whole chain when nothing on it is indexed.
    fn deciding_chain<'t>(&self, tree: &'t NamespaceTree, target: NodeId) -> ChainUp<'t> {
        tree.chain_up(self.answer.map_or(target, |(root, _)| root))
    }
}

/// Past this many pending dirty roots, the next settle amortises them in
/// one sweep over the memo (evict every entry whose chain intersects the
/// log, reset the log) instead of letting probe-time suffix checks grow.
const DIRTY_ROOT_CAP: usize = 32;

/// Cache of [`LocalIndex::locate`] results with per-subtree dirty-root
/// invalidation.
///
/// Tree mutations (identity or version change) still discard everything:
/// the index cannot scope a structural change it never saw. Index
/// mutations instead append the mutated subtree root to `dirty_log` in
/// O(1); entries validate *lazily* — a probe re-checks the entry's
/// deciding chain against only the log suffix newer than the entry's
/// `epoch`, evicting on intersection and re-stamping on survival. Once
/// the log passes [`DIRTY_ROOT_CAP`], one settle sweep pays the
/// full-memo scan for the whole batch and resets the log. `dirty_all` is
/// the wholesale fallback, used for [`LocalIndex::replace_all`] and when
/// the owner opts out via [`LocalIndex::set_wholesale_invalidation`].
#[derive(Debug, Default)]
struct LocateMemo {
    tree_stamp: Option<(u64, u64)>,
    nearest: NodeIdMap<MemoEntry>,
    /// Subtree roots mutated since `base_epoch`, in mutation order.
    dirty_log: Vec<NodeId>,
    /// Epoch of `dirty_log[0]`; `base_epoch + dirty_log.len()` is the
    /// current frontier.
    base_epoch: u64,
    dirty_all: bool,
}

impl LocateMemo {
    fn frontier(&self) -> u64 {
        self.base_epoch + self.dirty_log.len() as u64
    }

    fn mark_dirty(&mut self, root: NodeId) {
        if !self.dirty_all {
            self.dirty_log.push(root);
        }
    }

    fn mark_dirty_all(&mut self) {
        self.dirty_all = true;
        self.dirty_log.clear();
    }

    /// Applies pending invalidation that cannot stay lazy: tree-stamp
    /// mismatches and wholesale requests clear everything, and a dirty
    /// log past [`DIRTY_ROOT_CAP`] is amortised into one sweep.
    fn settle(&mut self, tree: &NamespaceTree) {
        let tree_stamp = (tree.identity(), tree.version());
        if self.tree_stamp != Some(tree_stamp) {
            // A tree we have never seen, or one that mutated under us:
            // any cached chain may be stale, so everything goes.
            self.nearest.clear();
            self.tree_stamp = Some(tree_stamp);
            self.base_epoch = self.frontier();
            self.dirty_log.clear();
        } else if self.dirty_all {
            self.nearest.clear();
            self.base_epoch = self.frontier();
        } else if self.dirty_log.len() > DIRTY_ROOT_CAP {
            let dirty: std::collections::HashSet<NodeId> = self.dirty_log.iter().copied().collect();
            let frontier = self.frontier();
            self.nearest.retain(|&target, e| {
                if e.deciding_chain(tree, target).any(|n| dirty.contains(&n)) {
                    false
                } else {
                    e.epoch = frontier;
                    true
                }
            });
            self.base_epoch = frontier;
            self.dirty_log.clear();
        }
        self.dirty_all = false;
    }

    /// Memo probe with lazy validation: a hit whose deciding chain
    /// holds a dirty root logged after the entry's epoch is evicted
    /// (reported as a miss); a clean hit is re-stamped at the current
    /// frontier so the next probe checks even less.
    fn probe(&mut self, tree: &NamespaceTree, target: NodeId) -> Option<Option<(NodeId, MdsId)>> {
        let frontier = self.frontier();
        let entry = self.nearest.get_mut(&target)?;
        let unseen = &self.dirty_log[(entry.epoch - self.base_epoch) as usize..];
        if !unseen.is_empty()
            && entry
                .deciding_chain(tree, target)
                .any(|n| unseen.contains(&n))
        {
            self.nearest.remove(&target);
            None
        } else {
            entry.epoch = frontier;
            Some(entry.answer)
        }
    }
}

/// Versioned map from local-layer subtree roots to their owning MDS.
///
/// The version number supports the paper's client-cache consistency story
/// (version number + timeout + lease, borrowed from GFS): a client whose
/// cached version lags the server's re-fetches the index.
///
/// [`locate`](LocalIndex::locate) — the per-operation routing query —
/// memoises its nearest-owner answers per target node, so repeat lookups
/// are O(1) hash probes instead of O(depth) chain walks. Tree mutations
/// discard the memo wholesale; index mutations evict per affected
/// subtree (a mutation at root `D` only evicts answers that `D`'s
/// indexing can decide: those whose chain passes through `D` at or above
/// the cached answer's root). The memo is invisible to every other API:
/// clones start cold and equality ignores it.
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
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct LocalIndex {
    owners: NodeIdMap<MdsId>,
    version: u64,
    memo: Mutex<LocateMemo>,
    wholesale: bool,
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
        self.owners.len()
    }

    /// Whether the index is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.owners.is_empty()
    }

    /// Monotonic version, bumped on every mutation.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Registers (or re-registers) a subtree root's owner.
    pub fn insert(&mut self, subtree_root: NodeId, owner: MdsId) {
        self.owners.insert(subtree_root, owner);
        self.version += 1;
        self.note_mutation(subtree_root);
    }

    /// Removes a subtree root (e.g. when it is promoted into the global
    /// layer). Returns the previous owner, if any.
    pub fn remove(&mut self, subtree_root: NodeId) -> Option<MdsId> {
        let prev = self.owners.remove(&subtree_root);
        if prev.is_some() {
            self.version += 1;
            self.note_mutation(subtree_root);
        }
        prev
    }

    /// Records a mutation at `subtree_root` for the next memo settle.
    /// `&mut self` guarantees no concurrent `locate`, so the lock is
    /// uncontended.
    fn note_mutation(&mut self, subtree_root: NodeId) {
        let memo = self.memo.get_mut().expect("locate memo poisoned");
        if self.wholesale {
            memo.mark_dirty_all();
        } else {
            memo.mark_dirty(subtree_root);
        }
    }

    /// Forces the memo back to wholesale invalidation: any index mutation
    /// discards every cached answer, as before per-subtree dirty-root
    /// tracking existed. Exists so benchmarks can compare the two
    /// strategies on identical workloads; answers are unaffected.
    pub fn set_wholesale_invalidation(&mut self, wholesale: bool) {
        self.wholesale = wholesale;
        if wholesale {
            self.memo
                .get_mut()
                .expect("locate memo poisoned")
                .mark_dirty_all();
        }
    }

    /// Number of memoised `locate` answers currently cached. Includes
    /// entries a pending dirty root will evict on their next probe —
    /// invalidation is lazy, so stale entries linger until probed or
    /// swept. Exposed for tests, benchmarks and debugging.
    #[must_use]
    pub fn memo_len(&self) -> usize {
        self.memo
            .lock()
            .expect("locate memo poisoned")
            .nearest
            .len()
    }

    /// Direct owner lookup for a known subtree root.
    #[must_use]
    pub fn owner_of(&self, subtree_root: NodeId) -> Option<MdsId> {
        self.owners.get(&subtree_root).copied()
    }

    /// The client lookup of Sec. IV-A2: find the first (shallowest)
    /// indexed subtree root on the root-to-`target` chain and return it
    /// with its owner.
    ///
    /// `None` means every prefix node is in the global layer, so the query
    /// may be sent to any MDS.
    ///
    /// Answers are memoised per target. A repeat lookup against unchanged
    /// structures is a single hash probe. Tree mutations (or a different
    /// tree instance) still discard the whole memo, but
    /// [`insert`](Self::insert) and [`remove`](Self::remove) evict only
    /// the entries whose answer the mutated subtree root can decide —
    /// hot targets in untouched subtrees stay warm across unrelated
    /// writes. [`replace_all`](Self::replace_all) falls back to
    /// a wholesale clear.
    #[must_use]
    pub fn locate(&self, tree: &NamespaceTree, target: NodeId) -> Option<(NodeId, MdsId)> {
        let mut memo = self.memo.lock().expect("locate memo poisoned");
        memo.settle(tree);
        if let Some(answer) = memo.probe(tree, target) {
            return answer;
        }
        let answer = self.locate_uncached(tree, target);
        let epoch = memo.frontier();
        memo.nearest.insert(target, MemoEntry { answer, epoch });
        answer
    }

    /// [`locate`](Self::locate) without the memo: one allocation-free
    /// upward walk of the parent chain, keeping the shallowest indexed
    /// hit. Exposed for benchmarking and for callers that query each
    /// target at most once.
    #[must_use]
    pub fn locate_uncached(&self, tree: &NamespaceTree, target: NodeId) -> Option<(NodeId, MdsId)> {
        // Walking upward visits the chain deepest-first, so the last hit
        // seen is the shallowest — the one the downward client walk of
        // Sec. IV-A2 would report first.
        let mut hit = None;
        for id in tree.chain_up(target) {
            if let Some(&owner) = self.owners.get(&id) {
                hit = Some((id, owner));
            }
        }
        hit
    }

    /// Iterates over `(subtree_root, owner)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, MdsId)> + '_ {
        self.owners.iter().map(|(&k, &v)| (k, v))
    }

    /// Rebuilds the index from an aligned `(subtree_root, owner)` listing,
    /// bumping the version once.
    pub fn replace_all<I>(&mut self, entries: I)
    where
        I: IntoIterator<Item = (NodeId, MdsId)>,
    {
        self.owners = entries.into_iter().collect();
        self.version += 1;
        // A full swap has no single affected root; clear wholesale.
        self.memo
            .get_mut()
            .expect("locate memo poisoned")
            .mark_dirty_all();
    }
}

impl Clone for LocalIndex {
    fn clone(&self) -> Self {
        LocalIndex {
            owners: self.owners.clone(),
            version: self.version,
            // The memo is derived state; a cold one re-fills on demand.
            memo: Mutex::new(LocateMemo::default()),
            wholesale: self.wholesale,
        }
    }
}

impl PartialEq for LocalIndex {
    fn eq(&self, other: &Self) -> bool {
        self.owners == other.owners && self.version == other.version
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
    fn memo_invalidates_on_index_mutation() {
        let (t, a, b, c) = deep_tree();
        let mut idx = LocalIndex::new();
        idx.insert(b, MdsId(2));
        assert_eq!(idx.locate(&t, c), Some((b, MdsId(2))));
        // Re-register b elsewhere: the cached answer must not survive.
        idx.insert(b, MdsId(5));
        assert_eq!(idx.locate(&t, c), Some((b, MdsId(5))));
        // Indexing a shallower ancestor changes the answer too.
        idx.insert(a, MdsId(7));
        assert_eq!(idx.locate(&t, c), Some((a, MdsId(7))));
        idx.remove(a);
        idx.remove(b);
        assert_eq!(idx.locate(&t, c), None);
    }

    #[test]
    fn memo_invalidates_on_tree_mutation() {
        let (mut t, a, b, c) = deep_tree();
        let mut idx = LocalIndex::new();
        idx.insert(a, MdsId(1));
        assert_eq!(idx.locate(&t, c), Some((a, MdsId(1))));
        // Move b (and its child c) to the root: a leaves c's chain.
        t.move_subtree(b, t.root()).unwrap();
        assert_eq!(idx.locate(&t, c), None);
        assert_eq!(idx.locate(&t, b), None);
        idx.insert(b, MdsId(3));
        assert_eq!(idx.locate(&t, c), Some((b, MdsId(3))));
    }

    #[test]
    fn clone_and_eq_ignore_the_memo() {
        let (t, _a, b, c) = deep_tree();
        let mut idx = LocalIndex::new();
        idx.insert(b, MdsId(2));
        let warm = idx.locate(&t, c);
        let cloned = idx.clone();
        assert_eq!(idx, cloned, "warm memo must not affect equality");
        assert_eq!(cloned.locate(&t, c), warm);
        assert_eq!(idx, cloned);
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

    /// Two sibling subtrees, many cached answers under one: mutating the
    /// *other* subtree's root must leave all of them warm, while wholesale
    /// mode throws every one of them away.
    #[test]
    fn unrelated_mutation_keeps_the_memo_warm() {
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
        assert_eq!(idx.memo_len(), 9);

        // Re-register the right subtree: only the right answer is stale.
        // Eviction is lazy, so the stale rleaf entry lingers (memo still
        // holds 9) until its own probe evicts and recomputes it; the 8
        // left-subtree answers stay warm throughout.
        idx.insert(right, MdsId(3));
        for &leaf in &leaves {
            assert_eq!(idx.locate(&t, leaf), Some((left, MdsId(1))));
        }
        assert_eq!(
            idx.memo_len(),
            9,
            "no left-subtree answer was evicted by the right-subtree write"
        );
        assert_eq!(idx.locate(&t, rleaf), Some((right, MdsId(3))));
        assert_eq!(idx.memo_len(), 9, "rleaf was evicted and re-memoised");

        // Same sequence in wholesale mode loses the whole memo.
        let mut whole = LocalIndex::new();
        whole.set_wholesale_invalidation(true);
        whole.insert(left, MdsId(1));
        whole.insert(right, MdsId(2));
        for &leaf in &leaves {
            let _ = whole.locate(&t, leaf);
        }
        let _ = whole.locate(&t, rleaf);
        whole.insert(right, MdsId(3));
        let _ = whole.locate(&t, leaves[0]);
        assert_eq!(whole.memo_len(), 1, "wholesale mode recomputes from cold");
        assert_eq!(whole.locate(&t, rleaf), Some((right, MdsId(3))));
    }

    /// Inserting a *new* shallower root must evict cached answers that
    /// pass through it, even though no cached answer mentions it yet —
    /// the deciding chain runs from the answer's root up to the tree's.
    #[test]
    fn inserting_a_shallower_root_on_the_chain_evicts() {
        let (t, a, b, c) = deep_tree();
        let mut idx = LocalIndex::new();
        idx.insert(b, MdsId(2));
        assert_eq!(idx.locate(&t, c), Some((b, MdsId(2))));
        idx.insert(a, MdsId(9)); // a is on c's chain but was unindexed
        assert_eq!(idx.locate(&t, c), Some((a, MdsId(9))));
        idx.remove(a);
        assert_eq!(idx.locate(&t, c), Some((b, MdsId(2))));
    }

    #[test]
    fn replace_all_discards_the_whole_memo() {
        let (t, a, b, c) = deep_tree();
        let mut idx = LocalIndex::new();
        idx.insert(a, MdsId(1));
        assert_eq!(idx.locate(&t, c), Some((a, MdsId(1))));
        idx.replace_all([(b, MdsId(6))]);
        assert_eq!(idx.locate(&t, c), Some((b, MdsId(6))));
        assert_eq!(idx.locate(&t, a), None);
    }

    /// Past DIRTY_ROOT_CAP dirty roots between locates, the next settle
    /// amortises the whole batch into one sweep — answers must stay
    /// correct across the overflow.
    #[test]
    fn dirty_root_overflow_falls_back_to_wholesale() {
        let mut t = NamespaceTree::new();
        let roots: Vec<NodeId> = (0..DIRTY_ROOT_CAP + 4)
            .map(|i| {
                t.create(t.root(), &format!("d{i}"), NodeKind::Directory)
                    .unwrap()
            })
            .collect();
        let mut idx = LocalIndex::new();
        for (i, &r) in roots.iter().enumerate() {
            idx.insert(r, MdsId(i as u16));
        }
        for &r in &roots {
            let _ = idx.locate(&t, r);
        }
        // Mutate more roots than the cap tracks, then verify every answer.
        for (i, &r) in roots.iter().enumerate() {
            idx.insert(r, MdsId(100 + i as u16));
        }
        for (i, &r) in roots.iter().enumerate() {
            assert_eq!(idx.locate(&t, r), Some((r, MdsId(100 + i as u16))));
        }
    }

    /// Randomised interleaving of mutations and locates: the memoised
    /// answer must always agree with an uncached walk, in both modes.
    #[test]
    fn interleaved_mutations_always_agree_with_uncached() {
        let mut t = NamespaceTree::new();
        let mut nodes = vec![t.root()];
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..40 {
            let parent = nodes[(rng() % nodes.len() as u64) as usize];
            if let Ok(id) = t.create(parent, &format!("n{i}"), NodeKind::Directory) {
                nodes.push(id);
            }
        }
        for wholesale in [false, true] {
            let mut idx = LocalIndex::new();
            idx.set_wholesale_invalidation(wholesale);
            for _ in 0..2_000 {
                let n = nodes[(rng() % nodes.len() as u64) as usize];
                match rng() % 10 {
                    0 => idx.insert(n, MdsId((rng() % 8) as u16)),
                    1 => {
                        idx.remove(n);
                    }
                    _ => {
                        assert_eq!(
                            idx.locate(&t, n),
                            idx.locate_uncached(&t, n),
                            "wholesale={wholesale} target={n:?}"
                        );
                    }
                }
            }
        }
    }
}
