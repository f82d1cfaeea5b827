//! Node identity and payload types.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use crate::intern::Sym;
use crate::tree::NamespaceTree;

/// Stable identifier of a node inside a [`NamespaceTree`](crate::NamespaceTree).
///
/// Ids are arena indices: they are never reused, remain valid across
/// mutations of other nodes, and order follows creation order. The root is
/// always [`NodeId::ROOT`].
///
/// # Example
///
/// ```
/// use d2tree_namespace::{NamespaceTree, NodeId};
///
/// let tree = NamespaceTree::new();
/// assert_eq!(tree.root(), NodeId::ROOT);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The id of the root directory of every tree.
    pub const ROOT: NodeId = NodeId(0);

    /// Returns the raw arena index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a raw arena index.
    ///
    /// Intended for dense per-node side tables (popularity, placement); the
    /// caller is responsible for the index referring to a live node of the
    /// intended tree.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index fits in u32"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Hasher for [`NodeIdMap`]: one multiply and one fold of the id.
///
/// Ids are dense arena indices this process minted, bounded by the
/// tree's node count — a peer can pick *which* id it asks about but
/// cannot mint one, so the collision-flooding defence SipHash pays for
/// on every probe buys nothing here. The fold of the high half keeps
/// strided id sets (every 1024th node, say) from sharing low bits.
#[derive(Debug, Default, Clone, Copy)]
pub struct NodeIdHasher(u64);

impl Hasher for NodeIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        // `NodeId` hashes through `write_u32`; this keeps the trait
        // total for any other key a caller might feed.
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        let h = (self.0 ^ u64::from(n)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by [`NodeId`] with a multiplicative hash in place
/// of SipHash, for the per-operation probes of the routing hot path.
pub type NodeIdMap<V> = HashMap<NodeId, V, BuildHasherDefault<NodeIdHasher>>;

/// Whether a node is a directory (may hold children) or a file (leaf).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An internal node that can hold children.
    Directory,
    /// A leaf node.
    File,
}

impl NodeKind {
    /// Returns `true` for [`NodeKind::Directory`].
    #[must_use]
    pub fn is_directory(self) -> bool {
        matches!(self, NodeKind::Directory)
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeKind::Directory => f.write_str("directory"),
            NodeKind::File => f.write_str("file"),
        }
    }
}

/// A view of one live node: name, kind, parent link and (for
/// directories) the name-ordered children.
///
/// The tree stores no per-node record — a node is a row of its columns
/// and a span of its child-edge pool — so this is a `Copy` handle (tree
/// reference + id) that reads them on demand. Children are keyed by
/// interned [`Sym`] handles but kept sorted by name, so traversal order
/// is deterministic — which keeps every downstream experiment
/// reproducible under a fixed seed — while child lookup is a contiguous
/// `u32` scan instead of a string-keyed search.
#[derive(Clone, Copy)]
pub struct Node<'a> {
    tree: &'a NamespaceTree,
    id: NodeId,
}

impl<'a> Node<'a> {
    /// A view of `id`, which the caller has checked is live in `tree`.
    pub(crate) fn new(tree: &'a NamespaceTree, id: NodeId) -> Self {
        Node { tree, id }
    }

    /// The node's own name component (empty string for the root).
    #[must_use]
    pub fn name(self) -> &'a str {
        self.tree.symbols().resolve(self.name_sym())
    }

    /// The interned symbol of the node's name, valid in the owning tree's
    /// [`SymbolTable`](crate::SymbolTable).
    #[must_use]
    pub fn name_sym(self) -> Sym {
        self.tree.sym_of(self.id)
    }

    /// The node's kind.
    #[must_use]
    pub fn kind(self) -> NodeKind {
        self.tree.kind_of(self.id)
    }

    /// The parent id, or `None` for the root.
    #[must_use]
    pub fn parent(self) -> Option<NodeId> {
        self.tree.parent_of(self.id)
    }

    /// Number of live children.
    #[must_use]
    pub fn child_count(self) -> usize {
        self.tree.child_edges(self.id).len()
    }

    /// Iterates over `(name_sym, id)` pairs of live children in name order.
    ///
    /// Resolve a symbol to its string with
    /// [`NamespaceTree::symbols`](crate::NamespaceTree::symbols) when the
    /// name itself is needed; traversals that only follow ids (the common
    /// case) pay nothing for it.
    pub fn children(self) -> std::iter::Copied<std::slice::Iter<'a, (Sym, NodeId)>> {
        self.tree.child_edges(self.id).iter().copied()
    }

    /// Looks up a child by its interned name symbol.
    #[must_use]
    pub fn child_by_sym(self, sym: Sym) -> Option<NodeId> {
        self.tree.child_by_sym(self.id, sym)
    }
}

impl fmt::Debug for Node<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .field("name", &self.name())
            .field("kind", &self.kind())
            .field("parent", &self.parent())
            .field("children", &self.child_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrips_through_index() {
        let id = NodeId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.to_string(), "n42");
    }

    #[test]
    fn root_is_index_zero() {
        assert_eq!(NodeId::ROOT.index(), 0);
    }

    #[test]
    fn kind_predicates() {
        assert!(NodeKind::Directory.is_directory());
        assert!(!NodeKind::File.is_directory());
        assert_eq!(NodeKind::File.to_string(), "file");
    }

    #[test]
    fn node_ids_order_by_creation() {
        assert!(NodeId::from_index(1) < NodeId::from_index(2));
    }
}
