//! The arena-backed namespace tree.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::children::ChildPool;
use crate::error::TreeError;
use crate::intern::{Sym, SymbolTable};
use crate::iter::{Ancestors, ChainUp, Descendants};
use crate::node::{Node, NodeId, NodeKind};
use crate::path::NsPath;

/// Source of unique tree identities, so tables derived from a tree (see
/// `LocalIndex::locate`'s labels) can tell two trees apart even when their
/// mutation counters coincide.
static NEXT_TREE_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_tree_id() -> u64 {
    NEXT_TREE_ID.fetch_add(1, Ordering::Relaxed)
}

/// `parent` entry of the root and of every tombstone.
const NO_PARENT: u32 = u32::MAX;

/// Whether `id`'s bit is set in a one-bit-per-arena-slot column; `false`
/// past its end.
pub(crate) fn bit(bits: &[u64], id: NodeId) -> bool {
    bits.get(id.index() / 64)
        .is_some_and(|word| word & (1 << (id.index() % 64)) != 0)
}

/// Writes `id`'s bit, growing the column by a word when `id` is the
/// first slot of one.
fn set_bit(bits: &mut Vec<u64>, id: NodeId, on: bool) {
    let (word, mask) = (id.index() / 64, 1 << (id.index() % 64));
    if word == bits.len() {
        bits.push(0);
    }
    if on {
        bits[word] |= mask;
    } else {
        bits[word] &= !mask;
    }
}

fn check_component(name: &str) -> Result<(), TreeError> {
    if name.is_empty() || name.contains('/') {
        return Err(TreeError::InvalidPath(name.to_owned()));
    }
    Ok(())
}

/// A POSIX-style namespace tree of files and directories.
///
/// Nodes live in an arena indexed by [`NodeId`]; ids are never reused, so
/// dense side tables (popularity, placement) indexed by [`NodeId::index`]
/// stay valid across removals. Removed nodes are tombstoned and skipped by
/// all traversals.
///
/// The arena is columns, not records: a parent id, a name symbol and two
/// bits (live, directory) per slot, plus a span of one shared child-edge
/// pool — no pointer and no allocation per node. Name components are
/// interned in a per-tree [`SymbolTable`] and child edges are
/// `(Sym, NodeId)` pairs, so path resolution hashes each component once
/// and then compares `u32` handles instead of strings. [`Node`] is the
/// read-only view over one slot.
///
/// # Example
///
/// ```
/// use d2tree_namespace::{NamespaceTree, NodeKind};
///
/// # fn main() -> Result<(), d2tree_namespace::TreeError> {
/// let mut tree = NamespaceTree::new();
/// let etc = tree.create(tree.root(), "etc", NodeKind::Directory)?;
/// tree.create(etc, "hosts", NodeKind::File)?;
/// assert_eq!(tree.node_count(), 3); // root, etc, hosts
/// assert_eq!(tree.subtree_size(etc), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NamespaceTree {
    /// Raw parent id per arena slot, [`NO_PARENT`] for the root and for
    /// tombstones — so an upward walk stops at a dead node by itself.
    parent: Vec<u32>,
    /// Name symbol per arena slot.
    sym: Vec<Sym>,
    /// One bit per arena slot, set while the node is part of the tree
    /// and cleared when it is removed — the only record of liveness, so
    /// [`contains`](Self::contains) answers from these 25 KB (at 200 k
    /// nodes) without touching another column.
    live_bits: Vec<u64>,
    /// One bit per arena slot, set for directories.
    dir_bits: Vec<u64>,
    children: ChildPool,
    live: usize,
    symbols: SymbolTable,
    /// Bumped on every structural mutation; see [`version`](Self::version).
    version: u64,
    /// Process-unique identity; see [`identity`](Self::identity).
    identity: u64,
}

impl NamespaceTree {
    /// Creates a tree containing only the root directory.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates a tree containing only the root directory, with room for
    /// `nodes` nodes with distinct names, the root included.
    ///
    /// The columns, the span table, the name offsets and the intern probe
    /// table are reserved at the size `nodes` creates would grow them to,
    /// so building the tree copies no column and rehashes no name. What
    /// `nodes` does not determine — the name bytes and the child-edge
    /// pool — still grows; [`shrink_to_fit`](Self::shrink_to_fit) drops
    /// its slack once the tree is built.
    #[must_use]
    pub fn with_capacity(nodes: usize) -> Self {
        let words = nodes.div_ceil(64);
        let mut tree = NamespaceTree {
            parent: Vec::with_capacity(nodes),
            sym: Vec::with_capacity(nodes),
            live_bits: Vec::with_capacity(words),
            dir_bits: Vec::with_capacity(words),
            children: ChildPool::with_capacity(nodes),
            live: 0,
            symbols: SymbolTable::with_capacity(nodes),
            version: 0,
            identity: fresh_tree_id(),
        };
        let root_sym = tree.symbols.intern("");
        tree.push_node(NO_PARENT, root_sym, NodeKind::Directory);
        tree
    }

    /// Appends one live arena slot and returns its id.
    fn push_node(&mut self, parent: u32, sym: Sym, kind: NodeKind) -> NodeId {
        let id = NodeId::from_index(self.parent.len());
        self.parent.push(parent);
        self.sym.push(sym);
        set_bit(&mut self.live_bits, id, true);
        set_bit(&mut self.dir_bits, id, kind.is_directory());
        self.children.push_node();
        self.live += 1;
        id
    }

    /// The root directory's id.
    #[must_use]
    pub fn root(&self) -> NodeId {
        NodeId::ROOT
    }

    /// Number of live nodes, including the root.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.live
    }

    /// Size of the underlying arena (live + tombstoned nodes).
    ///
    /// Dense side tables indexed by [`NodeId::index`] should be sized to this
    /// value, not to [`node_count`](Self::node_count).
    #[must_use]
    pub fn arena_size(&self) -> usize {
        self.parent.len()
    }

    /// Monotonic mutation counter: bumped by every `create`, `rename`,
    /// `move_subtree` and `remove_subtree`. Tables derived from the tree's
    /// structure (e.g. the local index's nearest-owner labels) stay valid
    /// exactly while this value is unchanged.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// A process-unique identity for this tree instance. Cloning produces
    /// a tree with a fresh identity, so `(identity, version)` pairs never
    /// collide across trees and are safe as cache stamps.
    #[must_use]
    pub fn identity(&self) -> u64 {
        self.identity
    }

    /// The tree's name intern table.
    #[must_use]
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Returns a view of the node, or `None` if the id is out of range or
    /// the node has been removed.
    #[must_use]
    pub fn node(&self, id: NodeId) -> Option<Node<'_>> {
        self.contains(id).then(|| Node::new(self, id))
    }

    /// Whether `id` refers to a live node: one load from the liveness
    /// bitmap, `false` for a tombstone and for an id past the arena.
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        bit(&self.live_bits, id)
    }

    fn get(&self, id: NodeId) -> Result<Node<'_>, TreeError> {
        self.node(id).ok_or(TreeError::NodeNotFound(id))
    }

    /// The parent of `id`; `None` for the root, a tombstone and an id
    /// past the arena. One load from the `parent` column.
    #[inline]
    pub(crate) fn parent_of(&self, id: NodeId) -> Option<NodeId> {
        match self.parent.get(id.index()) {
            Some(&raw) if raw != NO_PARENT => Some(NodeId(raw)),
            _ => None,
        }
    }

    /// The name symbol of arena slot `id`.
    pub(crate) fn sym_of(&self, id: NodeId) -> Sym {
        self.sym[id.index()]
    }

    /// The kind of arena slot `id`.
    pub(crate) fn kind_of(&self, id: NodeId) -> NodeKind {
        if bit(&self.dir_bits, id) {
            NodeKind::Directory
        } else {
            NodeKind::File
        }
    }

    /// The directory bitmap: one bit per arena slot, tombstones included.
    pub(crate) fn dir_bits(&self) -> &[u64] {
        &self.dir_bits
    }

    /// The `(name_sym, id)` edges of `id`'s children in name order;
    /// empty for files, tombstones and ids past the arena.
    #[inline]
    pub(crate) fn child_edges(&self, id: NodeId) -> &[(Sym, NodeId)] {
        self.children.of(id)
    }

    /// The child of `id` whose name is `sym`.
    #[inline]
    pub(crate) fn child_by_sym(&self, id: NodeId, sym: Sym) -> Option<NodeId> {
        self.children.get(id, sym)
    }

    /// Looks up a child of `parent` by name.
    ///
    /// `None` if `parent` is not live, has no such child, or the name has
    /// never been interned (then no node in the whole tree carries it).
    #[must_use]
    pub fn child_of(&self, parent: NodeId, name: &str) -> Option<NodeId> {
        let sym = self.symbols.lookup(name)?;
        self.child_by_sym(parent, sym)
    }

    /// Interns `name` — one hash, one probe — for an entry of `dir`, and
    /// refuses it if a child of `dir` other than `current` already has
    /// it. A symbol this call minted names no node yet, so only a known
    /// one costs the sibling scan.
    fn claim_name(
        &mut self,
        dir: NodeId,
        name: &str,
        current: Option<Sym>,
    ) -> Result<Sym, TreeError> {
        let (sym, minted) = self.symbols.intern_new(name);
        if !minted && Some(sym) != current && self.child_by_sym(dir, sym).is_some() {
            return Err(TreeError::DuplicateName(name.to_owned()));
        }
        Ok(sym)
    }

    /// Creates a child of `parent` and returns its id.
    ///
    /// # Errors
    ///
    /// * [`TreeError::NodeNotFound`] — `parent` is not a live node.
    /// * [`TreeError::NotADirectory`] — `parent` is a file.
    /// * [`TreeError::DuplicateName`] — a sibling named `name` exists.
    /// * [`TreeError::InvalidPath`] — `name` is empty or contains `/`.
    pub fn create(
        &mut self,
        parent: NodeId,
        name: &str,
        kind: NodeKind,
    ) -> Result<NodeId, TreeError> {
        check_component(name)?;
        if !self.get(parent)?.kind().is_directory() {
            return Err(TreeError::NotADirectory(parent));
        }
        let sym = self.claim_name(parent, name, None)?;
        let id = self.push_node(parent.0, sym, kind);
        self.children.insert(parent, sym, id, &self.symbols);
        self.version += 1;
        Ok(id)
    }

    /// Creates every missing directory along `path` and returns the id of the
    /// final component.
    ///
    /// The final component is created with `kind`; intermediate components
    /// are directories.
    ///
    /// # Errors
    ///
    /// Fails if an intermediate component already exists as a file, or the
    /// final component exists with a different kind.
    pub fn create_path(&mut self, path: &NsPath, kind: NodeKind) -> Result<NodeId, TreeError> {
        let mut cur = self.root();
        let n = path.depth();
        for (i, comp) in path.components().enumerate() {
            let last = i + 1 == n;
            let want = if last { kind } else { NodeKind::Directory };
            self.get(cur)?;
            match self.child_of(cur, comp) {
                Some(next) => {
                    let existing = self.get(next)?.kind();
                    if last && existing != want {
                        return Err(TreeError::DuplicateName(comp.to_owned()));
                    }
                    if !last && !existing.is_directory() {
                        return Err(TreeError::NotADirectory(next));
                    }
                    cur = next;
                }
                None => cur = self.create(cur, comp, want)?,
            }
        }
        Ok(cur)
    }

    /// Resolves an absolute path to a node id.
    ///
    /// Each component costs one intern-table probe (an FNV hash plus one
    /// string verification) and a contiguous `u32` scan of the directory's
    /// children — no per-level string comparisons and no allocation.
    #[must_use]
    pub fn resolve(&self, path: &NsPath) -> Option<NodeId> {
        let mut cur = self.root();
        for comp in path.components() {
            cur = self.child_of(cur, comp)?;
        }
        Some(cur)
    }

    /// Pre-interns every component of `path` against this tree's symbol
    /// table, for repeat resolution via
    /// [`resolve_syms`](Self::resolve_syms).
    ///
    /// `None` means some component names no symbol this tree has ever
    /// seen, so the path cannot resolve. The returned symbols are only
    /// meaningful against this tree (and trees cloned from it); they
    /// stay valid across mutations because symbols are never reclaimed.
    #[must_use]
    pub fn intern_path(&self, path: &NsPath) -> Option<Vec<Sym>> {
        path.components()
            .map(|comp| self.symbols.lookup(comp))
            .collect()
    }

    /// Resolves a pre-interned component sequence (see
    /// [`intern_path`](Self::intern_path)): the hot-path form of
    /// [`resolve`](Self::resolve) for paths looked up repeatedly. Each
    /// component costs only the contiguous `u32` scan of the directory's
    /// children — no hashing, no string comparisons, no allocation.
    #[must_use]
    pub fn resolve_syms(&self, syms: &[Sym]) -> Option<NodeId> {
        let mut cur = self.root();
        for &sym in syms {
            cur = self.child_by_sym(cur, sym)?;
        }
        Some(cur)
    }

    /// Convenience: parse `path` and resolve it.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::InvalidPath`] for malformed strings and
    /// [`TreeError::PathNotFound`] when the path does not exist.
    pub fn resolve_str(&self, path: &str) -> Result<NodeId, TreeError> {
        let p: NsPath = path.parse()?;
        self.resolve(&p)
            .ok_or_else(|| TreeError::PathNotFound(path.to_owned()))
    }

    /// Reconstructs the absolute path of a live node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live node.
    #[must_use]
    pub fn path_of(&self, id: NodeId) -> NsPath {
        assert!(self.contains(id), "path_of of a live node");
        let mut comps: Vec<&str> = Vec::new();
        let mut cur = id;
        while let Some(parent) = self.parent_of(cur) {
            comps.push(self.symbols.resolve(self.sym_of(cur)));
            cur = parent;
        }
        comps.reverse();
        NsPath::from_components(comps).expect("stored names are valid components")
    }

    /// Depth of a node: the root has depth 0.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live node.
    #[must_use]
    pub fn depth(&self, id: NodeId) -> usize {
        self.ancestors(id).count()
    }

    /// Iterates over the strict ancestors of `id`, from its parent up to the
    /// root (the set `A_j` of Def. 1 in the paper).
    #[must_use]
    pub fn ancestors(&self, id: NodeId) -> Ancestors<'_> {
        Ancestors::new(self, id)
    }

    /// The node ids on the root-to-`id` path, inclusive of both ends.
    ///
    /// This is the chain a POSIX pathname traversal touches; the locality
    /// metric counts server changes along it. Allocates the chain — use
    /// [`chain_up`](Self::chain_up) on hot paths where the walk direction
    /// does not matter.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live node.
    #[must_use]
    pub fn path_from_root(&self, id: NodeId) -> Vec<NodeId> {
        let mut chain: Vec<NodeId> = self.ancestors(id).collect();
        chain.reverse();
        chain.push(id);
        chain
    }

    /// Allocation-free walk of the same chain as
    /// [`path_from_root`](Self::path_from_root), but upward: `id` first,
    /// then its parent, up to the root. Direction-agnostic consumers
    /// (nearest-owner search, jump counting) should prefer this.
    #[must_use]
    pub fn chain_up(&self, id: NodeId) -> ChainUp<'_> {
        ChainUp::new(self, id)
    }

    /// Pre-order depth-first traversal of the subtree rooted at `id`,
    /// including `id` itself.
    #[must_use]
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        Descendants::new(self, id)
    }

    /// Number of live nodes in the subtree rooted at `id` (including `id`).
    #[must_use]
    pub fn subtree_size(&self, id: NodeId) -> usize {
        self.descendants(id).count()
    }

    /// Whether `a` is a strict ancestor of `b`.
    #[must_use]
    pub fn is_ancestor_of(&self, a: NodeId, b: NodeId) -> bool {
        self.ancestors(b).any(|x| x == a)
    }

    /// Renames a node in place.
    ///
    /// # Errors
    ///
    /// * [`TreeError::RootImmutable`] — `id` is the root.
    /// * [`TreeError::DuplicateName`] — a sibling named `new_name` exists.
    /// * [`TreeError::InvalidPath`] — `new_name` is malformed.
    pub fn rename(&mut self, id: NodeId, new_name: &str) -> Result<(), TreeError> {
        check_component(new_name)?;
        let node = self.get(id)?;
        let parent = node.parent().ok_or(TreeError::RootImmutable)?;
        let old_sym = node.name_sym();
        let new_sym = self.claim_name(parent, new_name, Some(old_sym))?;
        if new_sym == old_sym {
            return Ok(());
        }
        self.children.remove(parent, old_sym);
        self.children.insert(parent, new_sym, id, &self.symbols);
        self.sym[id.index()] = new_sym;
        self.version += 1;
        Ok(())
    }

    /// Moves the subtree rooted at `id` under `new_parent`.
    ///
    /// # Errors
    ///
    /// * [`TreeError::RootImmutable`] — `id` is the root.
    /// * [`TreeError::NotADirectory`] — `new_parent` is a file.
    /// * [`TreeError::DuplicateName`] — `new_parent` has a child with the
    ///   same name.
    /// * [`TreeError::MoveIntoDescendant`] — `new_parent` lies inside the
    ///   moved subtree.
    pub fn move_subtree(&mut self, id: NodeId, new_parent: NodeId) -> Result<(), TreeError> {
        let node = self.get(id)?;
        let old_parent = node.parent().ok_or(TreeError::RootImmutable)?;
        let sym = node.name_sym();
        let dest = self.get(new_parent)?;
        if !dest.kind().is_directory() {
            return Err(TreeError::NotADirectory(new_parent));
        }
        if new_parent == id || self.is_ancestor_of(id, new_parent) {
            return Err(TreeError::MoveIntoDescendant {
                subject: id,
                destination: new_parent,
            });
        }
        if new_parent == old_parent {
            return Ok(());
        }
        if dest.child_by_sym(sym).is_some() {
            let name = self.symbols.resolve(sym).to_owned();
            return Err(TreeError::DuplicateName(name));
        }
        self.children.remove(old_parent, sym);
        self.children.insert(new_parent, sym, id, &self.symbols);
        self.parent[id.index()] = new_parent.0;
        self.version += 1;
        Ok(())
    }

    /// Removes the subtree rooted at `id` and returns how many nodes were
    /// removed.
    ///
    /// Removed ids become tombstones: they are never reused and all lookups
    /// on them fail.
    ///
    /// # Errors
    ///
    /// * [`TreeError::RootImmutable`] — `id` is the root.
    /// * [`TreeError::NodeNotFound`] — `id` is not live.
    pub fn remove_subtree(&mut self, id: NodeId) -> Result<usize, TreeError> {
        let node = self.get(id)?;
        let parent = node.parent().ok_or(TreeError::RootImmutable)?;
        let sym = node.name_sym();
        let victims: Vec<NodeId> = self.descendants(id).collect();
        self.children.remove(parent, sym);
        for &v in &victims {
            self.children.clear(v);
            self.parent[v.index()] = NO_PARENT;
            set_bit(&mut self.live_bits, v, false);
        }
        self.live -= victims.len();
        self.version += 1;
        Ok(victims.len())
    }

    /// Iterates over all live nodes as `(id, node)` in id (creation) order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, Node<'_>)> + '_ {
        (0..self.arena_size())
            .map(NodeId::from_index)
            .filter(|&id| self.contains(id))
            .map(|id| (id, Node::new(self, id)))
    }

    /// Number of live directories.
    #[must_use]
    pub fn directory_count(&self) -> usize {
        let both = self.live_bits.iter().zip(&self.dir_bits);
        both.map(|(live, dir)| (live & dir).count_ones() as usize)
            .sum()
    }

    /// Number of live files.
    #[must_use]
    pub fn file_count(&self) -> usize {
        self.live - self.directory_count()
    }

    /// Maximum depth over all live nodes (the paper's Table I "Max Depth").
    #[must_use]
    pub fn max_depth(&self) -> usize {
        self.depths().into_iter().max().unwrap_or(0) as usize
    }

    /// The depth of every arena slot, indexed by [`NodeId::index`]; 0 for
    /// the root and for tombstones.
    ///
    /// One pass in arena order. A node whose parent sits later in the
    /// arena — one [`move_subtree`](Self::move_subtree) put under a
    /// younger directory — walks up to its nearest ancestor already
    /// computed and fills in the chain on the way down, so every slot is
    /// computed once and the pass is O(arena) for any tree; for a tree
    /// built by creates alone, every parent is already known.
    #[must_use]
    pub fn depths(&self) -> Vec<u32> {
        const UNKNOWN: u32 = u32::MAX;
        let mut depth = vec![UNKNOWN; self.arena_size()];
        let mut chain = Vec::new();
        for slot in 0..self.arena_size() {
            let mut cur = NodeId::from_index(slot);
            while depth[cur.index()] == UNKNOWN {
                match self.parent_of(cur) {
                    Some(parent) => {
                        chain.push(cur);
                        cur = parent;
                    }
                    None => depth[cur.index()] = 0,
                }
            }
            let mut d = depth[cur.index()];
            while let Some(id) = chain.pop() {
                d += 1;
                depth[id.index()] = d;
            }
        }
        depth
    }

    /// Drops the spare capacity of every column and pool, for a tree that
    /// is done growing. A later mutation grows them again as usual.
    pub fn shrink_to_fit(&mut self) {
        self.parent.shrink_to_fit();
        self.sym.shrink_to_fit();
        self.live_bits.shrink_to_fit();
        self.dir_bits.shrink_to_fit();
        self.children.shrink_to_fit();
        self.symbols.shrink_to_fit();
    }
}

impl Clone for NamespaceTree {
    fn clone(&self) -> Self {
        NamespaceTree {
            parent: self.parent.clone(),
            sym: self.sym.clone(),
            live_bits: self.live_bits.clone(),
            dir_bits: self.dir_bits.clone(),
            children: self.children.clone(),
            live: self.live,
            symbols: self.symbols.clone(),
            version: self.version,
            // A clone is a distinct tree: caches stamped with the source's
            // identity must not be read against the copy.
            identity: fresh_tree_id(),
        }
    }
}

impl Default for NamespaceTree {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (NamespaceTree, NodeId, NodeId, NodeId) {
        let mut t = NamespaceTree::new();
        let home = t.create(t.root(), "home", NodeKind::Directory).unwrap();
        let a = t.create(home, "a", NodeKind::Directory).unwrap();
        let f = t.create(a, "f.txt", NodeKind::File).unwrap();
        (t, home, a, f)
    }

    #[test]
    fn create_resolve_path_roundtrip() {
        let (t, _, _, f) = sample();
        let p = t.path_of(f);
        assert_eq!(p.to_string(), "/home/a/f.txt");
        assert_eq!(t.resolve(&p), Some(f));
        assert_eq!(t.resolve_str("/home/a/f.txt").unwrap(), f);
    }

    #[test]
    fn resolve_str_names_the_missing_path_not_the_root() {
        let (t, ..) = sample();
        let err = t.resolve_str("/home/nope/f.txt").unwrap_err();
        assert_eq!(err, TreeError::PathNotFound("/home/nope/f.txt".into()));
        assert_eq!(err.to_string(), "path \"/home/nope/f.txt\" not found");
        assert!(matches!(
            t.resolve_str("no-leading-slash"),
            Err(TreeError::InvalidPath(_))
        ));
    }

    #[test]
    fn preinterned_resolution_matches_resolve() {
        let (mut t, _, a, f) = sample();
        let p = t.path_of(f);
        let syms = t.intern_path(&p).expect("every component is known");
        assert_eq!(t.resolve_syms(&syms), Some(f));
        // Unknown names cannot be interned against this tree.
        assert_eq!(t.intern_path(&"/home/nope".parse().unwrap()), None);
        // Symbols survive mutations elsewhere in the tree and keep
        // tracking the renamed-away-and-back name.
        let g = t.create(a, "g", NodeKind::File).unwrap();
        assert_eq!(t.resolve_syms(&syms), Some(f));
        t.remove_subtree(g).unwrap();
        assert_eq!(t.resolve_syms(&syms), Some(f));
        t.rename(f, "f2.txt").unwrap();
        assert_eq!(t.resolve_syms(&syms), None, "old name no longer binds");
        t.rename(f, "f.txt").unwrap();
        assert_eq!(t.resolve_syms(&syms), Some(f));
    }

    #[test]
    fn create_rejects_duplicates_and_bad_parents() {
        let (mut t, home, _, f) = sample();
        assert_eq!(
            t.create(home, "a", NodeKind::Directory),
            Err(TreeError::DuplicateName("a".into()))
        );
        assert_eq!(
            t.create(f, "x", NodeKind::File),
            Err(TreeError::NotADirectory(f))
        );
        assert!(matches!(
            t.create(home, "x/y", NodeKind::File),
            Err(TreeError::InvalidPath(_))
        ));
    }

    #[test]
    fn create_path_builds_intermediates() {
        let mut t = NamespaceTree::new();
        let p: NsPath = "/x/y/z.dat".parse().unwrap();
        let id = t.create_path(&p, NodeKind::File).unwrap();
        assert_eq!(t.path_of(id), p);
        assert_eq!(t.node_count(), 4);
        // Idempotent for an existing node of the same kind.
        assert_eq!(t.create_path(&p, NodeKind::File).unwrap(), id);
        // Conflicting kind fails.
        assert!(t.create_path(&p, NodeKind::Directory).is_err());
    }

    #[test]
    fn ancestors_and_depth() {
        let (t, home, a, f) = sample();
        let anc: Vec<NodeId> = t.ancestors(f).collect();
        assert_eq!(anc, vec![a, home, t.root()]);
        assert_eq!(t.depth(f), 3);
        assert_eq!(t.depth(t.root()), 0);
        assert_eq!(t.path_from_root(f), vec![t.root(), home, a, f]);
    }

    #[test]
    fn chain_up_matches_path_from_root_reversed() {
        let (t, _, _, f) = sample();
        let mut down = t.path_from_root(f);
        down.reverse();
        let up: Vec<NodeId> = t.chain_up(f).collect();
        assert_eq!(up, down);
        // The root's chain is just itself.
        assert_eq!(t.chain_up(t.root()).collect::<Vec<_>>(), vec![t.root()]);
    }

    #[test]
    fn chain_up_of_dead_node_yields_only_the_node() {
        let (mut t, _, a, f) = sample();
        t.remove_subtree(a).unwrap();
        assert_eq!(t.chain_up(f).collect::<Vec<_>>(), vec![f]);
    }

    #[test]
    fn descendants_preorder() {
        let (t, home, a, f) = sample();
        let desc: Vec<NodeId> = t.descendants(home).collect();
        assert_eq!(desc, vec![home, a, f]);
        assert_eq!(t.subtree_size(home), 3);
        assert_eq!(t.subtree_size(f), 1);
    }

    #[test]
    fn rename_updates_resolution() {
        let (mut t, _, a, f) = sample();
        t.rename(a, "b").unwrap();
        assert_eq!(t.resolve_str("/home/b/f.txt").unwrap(), f);
        assert!(t.resolve_str("/home/a/f.txt").is_err());
        assert_eq!(t.rename(t.root(), "r"), Err(TreeError::RootImmutable));
    }

    #[test]
    fn rename_to_same_name_is_noop() {
        let (mut t, _, a, _) = sample();
        let v = t.version();
        t.rename(a, "a").unwrap();
        assert!(t.resolve_str("/home/a").is_ok());
        assert_eq!(t.version(), v, "no-op rename must not invalidate caches");
    }

    #[test]
    fn move_subtree_rewires_paths() {
        let (mut t, home, a, f) = sample();
        let var = t.create(t.root(), "var", NodeKind::Directory).unwrap();
        t.move_subtree(a, var).unwrap();
        assert_eq!(t.path_of(f).to_string(), "/var/a/f.txt");
        assert!(!t.is_ancestor_of(home, f));
        assert!(t.is_ancestor_of(var, f));
    }

    #[test]
    fn move_into_descendant_rejected() {
        let (mut t, home, a, _) = sample();
        assert!(matches!(
            t.move_subtree(home, a),
            Err(TreeError::MoveIntoDescendant { .. })
        ));
        assert!(matches!(
            t.move_subtree(home, home),
            Err(TreeError::MoveIntoDescendant { .. })
        ));
    }

    #[test]
    fn remove_subtree_tombstones() {
        let (mut t, home, a, f) = sample();
        let removed = t.remove_subtree(a).unwrap();
        assert_eq!(removed, 2);
        assert!(!t.contains(a));
        assert!(!t.contains(f));
        assert!(t.contains(home));
        assert_eq!(t.node_count(), 2);
        assert_eq!(t.arena_size(), 4); // tombstones keep the arena dense
        assert_eq!(t.remove_subtree(a), Err(TreeError::NodeNotFound(a)));
        assert_eq!(t.remove_subtree(t.root()), Err(TreeError::RootImmutable));
    }

    /// The bitmap is the only record of liveness, so it is checked
    /// against the structure: a slot's bit is set exactly when the node
    /// is reachable from the root through child maps — for every slot,
    /// live, tombstoned and past the arena, after any mix of mutations,
    /// on clones too — and `node` and `node_count` say the same.
    #[test]
    fn liveness_bitmap_is_the_set_reachable_from_the_root() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        fn assert_bitmap_matches(t: &NamespaceTree) {
            let mut reachable = vec![false; t.arena_size() + 64];
            let mut stack = vec![t.root()];
            while let Some(id) = stack.pop() {
                reachable[id.index()] = true;
                stack.extend(t.child_edges(id).iter().map(|&(_, c)| c));
            }
            for (slot, &live) in reachable.iter().enumerate() {
                let id = NodeId::from_index(slot);
                assert_eq!(t.contains(id), live, "slot {slot}");
                assert_eq!(t.node(id).is_some(), live, "slot {slot}");
            }
            assert_eq!(t.node_count(), reachable.iter().filter(|&&r| r).count());
            assert_eq!(t.nodes().count(), t.node_count());
        }

        let mut rng = StdRng::seed_from_u64(0xb17);
        let mut trees = vec![NamespaceTree::new()];
        for step in 0..3_000 {
            let clones = trees.len();
            let t = &mut trees[rng.gen_range(0..clones)];
            let a = NodeId::from_index(rng.gen_range(0..t.arena_size()));
            let b = NodeId::from_index(rng.gen_range(0..t.arena_size()));
            // Failed mutations (dead node, file parent, cycle) are part
            // of the mix: they must leave the bitmap alone.
            match rng.gen_range(0..10) {
                0..=5 => {
                    let kind = if rng.gen_range(0..4) == 0 {
                        NodeKind::File
                    } else {
                        NodeKind::Directory
                    };
                    let _ = t.create(a, &format!("n{step}"), kind);
                }
                6 => {
                    let _ = t.remove_subtree(a);
                }
                7 | 8 => {
                    let _ = t.move_subtree(a, b);
                }
                _ if clones < 4 => {
                    let copy = t.clone();
                    trees.push(copy);
                }
                _ => {}
            }
            if step % 100 == 0 {
                trees.iter().for_each(assert_bitmap_matches);
            }
        }
        for t in &trees {
            assert_bitmap_matches(t);
            assert!(
                t.arena_size() > t.node_count(),
                "the mix tombstoned something"
            );
        }
    }

    #[test]
    fn counts_and_max_depth() {
        let (t, ..) = sample();
        assert_eq!(t.directory_count(), 3); // root, home, a
        assert_eq!(t.file_count(), 1);
        assert_eq!(t.max_depth(), 3);
    }

    /// A subtree moved under a younger directory has its parent later in
    /// the arena; its depths still follow the parent chain.
    #[test]
    fn depths_follow_a_parent_that_sits_later_in_the_arena() {
        let mut t = NamespaceTree::new();
        let a = t.create(t.root(), "a", NodeKind::Directory).unwrap();
        let x = t.create(a, "x", NodeKind::File).unwrap();
        let b = t.create(t.root(), "b", NodeKind::Directory).unwrap();
        t.move_subtree(a, b).unwrap();
        assert_eq!(t.depth(x), 3);
        assert_eq!(t.max_depth(), 3);
        let depths = t.depths();
        for (id, _) in t.nodes() {
            assert_eq!(depths[id.index()] as usize, t.depth(id), "{id:?}");
        }
        // A tombstone reads 0.
        t.remove_subtree(a).unwrap();
        assert_eq!(t.depths(), [0, 0, 0, 1]);
        assert_eq!(t.max_depth(), 1);
    }

    #[test]
    fn a_presized_tree_copies_no_column_and_equals_the_grown_one() {
        let build = |mut t: NamespaceTree| {
            let mut dirs = vec![t.root()];
            for i in 0..500 {
                let kind = if i % 3 == 0 {
                    NodeKind::Directory
                } else {
                    NodeKind::File
                };
                let id = t
                    .create(dirs[i % dirs.len()], &format!("n{i}"), kind)
                    .unwrap();
                if kind.is_directory() {
                    dirs.push(id);
                }
            }
            t
        };
        let grown = build(NamespaceTree::new());
        let mut presized = build(NamespaceTree::with_capacity(501));
        assert_eq!(presized.parent.capacity(), 501, "no column grew");
        presized.shrink_to_fit();
        let paths = |t: &NamespaceTree| -> Vec<String> {
            t.nodes().map(|(id, _)| t.path_of(id).to_string()).collect()
        };
        assert_eq!(paths(&grown), paths(&presized));
        assert_eq!(grown.depths(), presized.depths());
    }

    #[test]
    fn clone_preserves_structure() {
        let (t, _, _, f) = sample();
        let c = t.clone();
        assert_eq!(c.resolve_str("/home/a/f.txt").unwrap(), f);
        assert_eq!(c.node_count(), t.node_count());
    }

    #[test]
    fn clone_gets_a_fresh_identity() {
        let (t, ..) = sample();
        let c = t.clone();
        assert_ne!(t.identity(), c.identity());
        assert_eq!(t.version(), c.version());
    }

    #[test]
    fn version_bumps_on_every_mutation_kind() {
        let mut t = NamespaceTree::new();
        assert_eq!(t.version(), 0);
        let a = t.create(t.root(), "a", NodeKind::Directory).unwrap();
        let v1 = t.version();
        assert!(v1 > 0);
        let b = t.create(t.root(), "b", NodeKind::Directory).unwrap();
        t.rename(b, "c").unwrap();
        let v2 = t.version();
        assert!(v2 > v1);
        t.move_subtree(b, a).unwrap();
        let v3 = t.version();
        assert!(v3 > v2);
        t.remove_subtree(b).unwrap();
        assert!(t.version() > v3);
    }

    #[test]
    fn child_of_resolves_and_misses() {
        let (t, home, a, _) = sample();
        assert_eq!(t.child_of(t.root(), "home"), Some(home));
        assert_eq!(t.child_of(home, "a"), Some(a));
        assert_eq!(t.child_of(home, "zzz"), None);
        assert_eq!(t.child_of(a, "never-interned"), None);
    }
}
