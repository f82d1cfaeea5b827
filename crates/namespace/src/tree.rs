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
/// node counts coincide.
static NEXT_TREE_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_tree_id() -> u64 {
    NEXT_TREE_ID.fetch_add(1, Ordering::Relaxed)
}

/// `parent` entry of the root.
const NO_PARENT: u32 = u32::MAX;

/// Whether `id`'s bit is set in a one-bit-per-arena-slot column; `false`
/// past its end.
pub(crate) fn bit(bits: &[u64], id: NodeId) -> bool {
    bits.get(id.index() / 64)
        .is_some_and(|word| word & (1 << (id.index() % 64)) != 0)
}

/// Sets `id`'s bit if `on`, growing the column by a word when `id` is
/// the first slot of one; a new slot's bit starts clear.
fn set_bit(bits: &mut Vec<u64>, id: NodeId, on: bool) {
    let (word, mask) = (id.index() / 64, 1 << (id.index() % 64));
    if word == bits.len() {
        bits.push(0);
    }
    if on {
        bits[word] |= mask;
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
/// Nodes live in an arena indexed by [`NodeId`], and the tree only grows:
/// a node is appended after its parent, so its id is greater than its
/// parent's, and no node is ever removed, renamed or moved. Dense side
/// tables (popularity, placement) indexed by [`NodeId::index`] therefore
/// stay valid as the tree grows, every id below
/// [`arena_size`](Self::arena_size) is a node, and a whole-tree pass that
/// needs parents before children walks the arena forward (children
/// before parents: backward) with no traversal stack.
///
/// The arena is columns, not records: a parent id, a name symbol and a
/// directory bit per slot, plus a range of one shared child-edge array —
/// no pointer and no allocation per node. Name components are
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
    /// Raw parent id per arena slot, less than the slot's own index;
    /// [`NO_PARENT`] for the root.
    parent: Vec<u32>,
    /// Name symbol per arena slot.
    sym: Vec<Sym>,
    /// One bit per arena slot, set for directories.
    dir_bits: Vec<u64>,
    children: ChildPool,
    symbols: SymbolTable,
    /// Process-unique identity; see [`identity`](Self::identity).
    identity: u64,
}

impl NamespaceTree {
    /// Creates a tree containing only the root directory.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// A tree containing only the root directory, with room for `nodes`
    /// nodes with distinct names, the root included: the columns, the
    /// child offsets, the name offsets and the intern probe table are
    /// reserved at the size `nodes` appends grow them to, so building
    /// the tree copies no column and rehashes no name.
    fn with_capacity(nodes: usize) -> Self {
        let words = nodes.div_ceil(64);
        let mut tree = NamespaceTree {
            parent: Vec::with_capacity(nodes),
            sym: Vec::with_capacity(nodes),
            dir_bits: Vec::with_capacity(words),
            children: ChildPool::with_capacity(nodes),
            symbols: SymbolTable::with_capacity(nodes),
            identity: fresh_tree_id(),
        };
        let root_sym = tree.symbols.intern("");
        tree.push_node(NO_PARENT, root_sym, NodeKind::Directory);
        tree
    }

    /// Builds a tree in one pass from nodes that arrive parent-first.
    ///
    /// `fill` appends every node but the root through a [`NodeAppender`],
    /// each taking the next id as [`create`](Self::create) would give
    /// it; `nodes`, the root included, sizes the columns so that they
    /// grow without a copy. Once `fill` returns, the appended names are
    /// interned a block at a time, the child edges are laid out once at
    /// their exact count, each directory's sorted by name, and no column
    /// keeps spare capacity. The tree is the one the same sequence of
    /// `create`s builds — ids, names, kinds, symbols and child order —
    /// and takes later `create`s the same way.
    ///
    /// # Errors
    ///
    /// * `fill`'s error, which ends the build: [`NodeAppender::append`]
    ///   refuses what `create` refuses, sibling names aside, and `fill`
    ///   may fail with errors of its own.
    /// * [`TreeError::DuplicateName`] — two children of one directory
    ///   share a name; checked after `fill`, when the edges are sorted.
    ///
    /// # Example
    ///
    /// ```
    /// use d2tree_namespace::{NamespaceTree, NodeId, NodeKind, TreeError};
    ///
    /// # fn main() -> Result<(), TreeError> {
    /// let tree = NamespaceTree::build(3, |tree| {
    ///     let etc = tree.append(NodeId::ROOT, "etc", NodeKind::Directory)?;
    ///     tree.append(etc, "hosts", NodeKind::File)?;
    ///     Ok::<_, TreeError>(())
    /// })?;
    /// assert_eq!(tree.resolve_str("/etc/hosts")?.index(), 2);
    /// # Ok(())
    /// # }
    /// ```
    pub fn build<E: From<TreeError>>(
        nodes: usize,
        fill: impl FnOnce(&mut NodeAppender<'_>) -> Result<(), E>,
    ) -> Result<Self, E> {
        let mut tree = Self::with_capacity(nodes);
        let first = tree.symbols.len();
        fill(&mut NodeAppender { tree: &mut tree })?;
        if let Some(merged) = tree.symbols.settle(first) {
            for sym in &mut tree.sym {
                if let Some(i) = sym.index().checked_sub(first) {
                    *sym = merged[i];
                }
            }
        }
        let links = (1..tree.arena_size())
            .map(|i| (NodeId(tree.parent[i]), tree.sym[i], NodeId::from_index(i)));
        tree.children
            .lay_out(links, &tree.symbols)
            .map_err(|sym| TreeError::DuplicateName(tree.symbols.resolve(sym).to_owned()))?;
        tree.parent.shrink_to_fit();
        tree.sym.shrink_to_fit();
        tree.dir_bits.shrink_to_fit();
        tree.children.shrink_to_fit();
        tree.symbols.shrink_to_fit();
        Ok(tree)
    }

    /// Appends one arena slot and returns its id.
    fn push_node(&mut self, parent: u32, sym: Sym, kind: NodeKind) -> NodeId {
        let id = NodeId::from_index(self.parent.len());
        self.parent.push(parent);
        self.sym.push(sym);
        set_bit(&mut self.dir_bits, id, kind.is_directory());
        self.children.push_node();
        id
    }

    /// The root directory's id.
    #[must_use]
    pub fn root(&self) -> NodeId {
        NodeId::ROOT
    }

    /// Number of nodes, including the root.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.parent.len()
    }

    /// Size of the underlying arena: the number of nodes, since none is
    /// ever removed. The length to give dense side tables indexed by
    /// [`NodeId::index`].
    #[must_use]
    pub fn arena_size(&self) -> usize {
        self.parent.len()
    }

    /// A process-unique identity for this tree instance. Cloning produces
    /// a tree with a fresh identity. A tree only grows, so
    /// `(identity, node_count)` names one state of one tree and is safe
    /// as a stamp for tables derived from its structure.
    #[must_use]
    pub fn identity(&self) -> u64 {
        self.identity
    }

    /// The tree's name intern table.
    #[must_use]
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Returns a view of the node, or `None` if the id is past the arena.
    #[must_use]
    pub fn node(&self, id: NodeId) -> Option<Node<'_>> {
        self.contains(id).then(|| Node::new(self, id))
    }

    /// Whether `id` refers to a node of this tree: a bounds check, since
    /// every slot of the arena is one.
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        id.index() < self.parent.len()
    }

    fn get(&self, id: NodeId) -> Result<Node<'_>, TreeError> {
        self.node(id).ok_or(TreeError::NodeNotFound(id))
    }

    /// The parent of `id`, whose index is less than `id`'s; `None` for
    /// the root and an id past the arena. One load from the `parent`
    /// column.
    #[inline]
    #[must_use]
    pub fn parent_of(&self, id: NodeId) -> Option<NodeId> {
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

    /// The directory bitmap: one bit per arena slot.
    pub(crate) fn dir_bits(&self) -> &[u64] {
        &self.dir_bits
    }

    /// The `(name_sym, id)` edges of `id`'s children in name order;
    /// empty for files and ids past the arena.
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
    /// `None` if `parent` is not a node, has no such child, or the name has
    /// never been interned (then no node in the whole tree carries it).
    #[must_use]
    pub fn child_of(&self, parent: NodeId, name: &str) -> Option<NodeId> {
        let sym = self.symbols.lookup(name)?;
        self.child_by_sym(parent, sym)
    }

    /// Interns `name` — one hash, one probe — for an entry of `dir`, and
    /// refuses it if a child of `dir` already has it. A symbol this call
    /// minted names no node yet, so only a known one costs the sibling
    /// scan.
    fn claim_name(&mut self, dir: NodeId, name: &str) -> Result<Sym, TreeError> {
        let (sym, minted) = self.symbols.intern_new(name);
        if !minted && self.child_by_sym(dir, sym).is_some() {
            return Err(TreeError::DuplicateName(name.to_owned()));
        }
        Ok(sym)
    }

    /// Creates a child of `parent` and returns its id.
    ///
    /// Shifts the child edges and offsets that follow the new edge, so a
    /// create costs O(n) in the tree's size: it suits small trees and
    /// the odd late node, and a tree of any size is built with
    /// [`build`](Self::build).
    ///
    /// # Errors
    ///
    /// * [`TreeError::NodeNotFound`] — `parent` is not a node.
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
        let sym = self.claim_name(parent, name)?;
        let id = self.push_node(parent.0, sym, kind);
        self.children.insert(parent, sym, id, &self.symbols);
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
    /// stay valid as the tree grows because symbols are never reclaimed.
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

    /// Reconstructs the absolute path of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this tree.
    #[must_use]
    pub fn path_of(&self, id: NodeId) -> NsPath {
        assert!(self.contains(id), "path_of of a node of this tree");
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

    /// Number of nodes in the subtree rooted at `id` (including `id`).
    #[must_use]
    pub fn subtree_size(&self, id: NodeId) -> usize {
        self.descendants(id).count()
    }

    /// Iterates over all nodes as `(id, node)` in id (creation) order,
    /// so every parent before its children.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, Node<'_>)> + '_ {
        (0..self.arena_size())
            .map(NodeId::from_index)
            .map(|id| (id, Node::new(self, id)))
    }

    /// Number of directories.
    #[must_use]
    pub fn directory_count(&self) -> usize {
        self.dir_bits
            .iter()
            .map(|word| word.count_ones() as usize)
            .sum()
    }

    /// Number of files.
    #[must_use]
    pub fn file_count(&self) -> usize {
        self.node_count() - self.directory_count()
    }

    /// Maximum depth over all nodes (the paper's Table I "Max Depth").
    #[must_use]
    pub fn max_depth(&self) -> usize {
        self.depths().into_iter().max().unwrap_or(0) as usize
    }

    /// The depth of every node, indexed by [`NodeId::index`]: one
    /// forward pass over the arena, each node one deeper than its
    /// parent, whose depth is already known.
    #[must_use]
    pub fn depths(&self) -> Vec<u32> {
        let mut depth = vec![0; self.arena_size()];
        for i in 1..depth.len() {
            depth[i] = depth[self.parent[i] as usize] + 1;
        }
        depth
    }
}

/// Appends the nodes of a tree that [`NamespaceTree::build`] lays out
/// once they are all in.
#[derive(Debug)]
pub struct NodeAppender<'a> {
    tree: &'a mut NamespaceTree,
}

impl NodeAppender<'_> {
    /// Number of nodes appended so far, including the root.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.tree.node_count()
    }

    /// Appends a child of `parent`, which must be appended already, and
    /// returns its id: the next one.
    ///
    /// # Errors
    ///
    /// * [`TreeError::InvalidPath`] — `name` is empty or contains `/`.
    /// * [`TreeError::NodeNotFound`] — `parent` is not appended yet.
    /// * [`TreeError::NotADirectory`] — `parent` is a file.
    ///
    /// A refused node leaves the tree as it was. A duplicate sibling
    /// name is not refused here; [`NamespaceTree::build`] reports it.
    pub fn append(
        &mut self,
        parent: NodeId,
        name: &str,
        kind: NodeKind,
    ) -> Result<NodeId, TreeError> {
        check_component(name)?;
        let tree = &mut *self.tree;
        if !tree.get(parent)?.kind().is_directory() {
            return Err(TreeError::NotADirectory(parent));
        }
        let sym = tree.symbols.push_name(name);
        Ok(tree.push_node(parent.0, sym, kind))
    }
}

impl Clone for NamespaceTree {
    fn clone(&self) -> Self {
        NamespaceTree {
            parent: self.parent.clone(),
            sym: self.sym.clone(),
            dir_bits: self.dir_bits.clone(),
            children: self.children.clone(),
            symbols: self.symbols.clone(),
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
        // Symbols survive creates elsewhere in the tree.
        t.create(a, "g", NodeKind::File).unwrap();
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
    fn descendants_preorder() {
        let (t, home, a, f) = sample();
        let desc: Vec<NodeId> = t.descendants(home).collect();
        assert_eq!(desc, vec![home, a, f]);
        assert_eq!(t.subtree_size(home), 3);
        assert_eq!(t.subtree_size(f), 1);
    }

    /// `contains` is a bounds check, so it is checked against the
    /// structure: a slot is reachable from the root through child edges
    /// exactly when it lies in the arena — for every slot and a few past
    /// it, after any mix of creates, failed ones included, on clones
    /// too — and `node` and `node_count` say the same.
    #[test]
    fn the_arena_is_the_set_reachable_from_the_root() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        fn assert_arena_matches(t: &NamespaceTree) {
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
            // Failed creates (file parent, id past the arena) are part
            // of the mix: they must leave the arena alone.
            let parent = NodeId::from_index(rng.gen_range(0..t.arena_size() + 2));
            match rng.gen_range(0..10) {
                0..=8 => {
                    let kind = if rng.gen_range(0..4) == 0 {
                        NodeKind::File
                    } else {
                        NodeKind::Directory
                    };
                    let _ = t.create(parent, &format!("n{step}"), kind);
                }
                _ if clones < 4 => {
                    let copy = t.clone();
                    trees.push(copy);
                }
                _ => {}
            }
            if step % 100 == 0 {
                trees.iter().for_each(assert_arena_matches);
            }
        }
        trees.iter().for_each(assert_arena_matches);
    }

    #[test]
    fn counts_and_max_depth() {
        let (t, ..) = sample();
        assert_eq!(t.directory_count(), 3); // root, home, a
        assert_eq!(t.file_count(), 1);
        assert_eq!(t.max_depth(), 3);
    }

    /// Columns reserved for more nodes than arrive neither grow nor keep
    /// the surplus.
    #[test]
    fn a_built_tree_grows_no_column_and_keeps_no_slack() {
        let tree = NamespaceTree::build(1_000, |t| {
            let mut dirs = vec![NodeId::ROOT];
            for i in 0..500 {
                let kind = if i % 3 == 0 {
                    NodeKind::Directory
                } else {
                    NodeKind::File
                };
                let id = t.append(dirs[i % dirs.len()], &format!("n{i}"), kind)?;
                if kind.is_directory() {
                    dirs.push(id);
                }
            }
            assert_eq!(t.tree.parent.capacity(), 1_000, "no column grew");
            Ok::<_, TreeError>(())
        })
        .unwrap();
        assert_eq!(tree.node_count(), 501);
        assert_eq!((tree.parent.capacity(), tree.sym.capacity()), (501, 501));
        assert_eq!(tree.resolve_str("/n0/n3").unwrap().index(), 4);
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
        assert_eq!(t.node_count(), c.node_count());
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
