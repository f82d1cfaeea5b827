//! Node identity and payload types.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

use crate::intern::{Sym, SymbolTable};

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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

/// A directory's children: `(Sym, NodeId)` entries kept sorted by the
/// child's *name string*, so iteration order is identical to the old
/// `BTreeMap<Box<str>, NodeId>` representation (every seeded experiment
/// depends on that traversal order) while lookups compare interned `u32`
/// handles instead of strings.
///
/// Mutations need the owning tree's [`SymbolTable`] to find the sorted
/// insertion point, so they live on [`NamespaceTree`](crate::NamespaceTree).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct ChildMap {
    entries: Vec<(Sym, NodeId)>,
}

impl ChildMap {
    pub(crate) fn new() -> Self {
        ChildMap {
            entries: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Membership/lookup by interned symbol: a linear `u32` scan. Typical
    /// fanouts are small and the entries are contiguous, so this beats
    /// pointer-chasing B-tree nodes by a wide margin.
    #[inline]
    pub(crate) fn get(&self, sym: Sym) -> Option<NodeId> {
        self.entries
            .iter()
            .find(|&&(s, _)| s == sym)
            .map(|&(_, id)| id)
    }

    /// Inserts keeping name order; the caller guarantees `sym` is absent.
    pub(crate) fn insert(&mut self, sym: Sym, id: NodeId, table: &SymbolTable) {
        let name = table.resolve(sym);
        let at = self
            .entries
            .partition_point(|&(s, _)| table.resolve(s) < name);
        self.entries.insert(at, (sym, id));
    }

    pub(crate) fn remove(&mut self, sym: Sym) -> Option<NodeId> {
        let at = self.entries.iter().position(|&(s, _)| s == sym)?;
        Some(self.entries.remove(at).1)
    }

    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    pub(crate) fn iter(&self) -> std::slice::Iter<'_, (Sym, NodeId)> {
        self.entries.iter()
    }
}

/// A single metadata node: name, kind, parent link and (for directories) a
/// name-ordered child map.
///
/// Children are keyed by interned [`Sym`] handles but kept sorted by name,
/// so traversal order is deterministic — which keeps every downstream
/// experiment reproducible under a fixed seed — while child lookup is a
/// contiguous `u32` scan instead of a string-keyed B-tree probe.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Node {
    pub(crate) name: Box<str>,
    /// The interned handle for `name` in the owning tree's symbol table.
    pub(crate) sym: Sym,
    pub(crate) kind: NodeKind,
    pub(crate) parent: Option<NodeId>,
    pub(crate) children: ChildMap,
}

impl Node {
    /// The node's own name component (empty string for the root).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The interned symbol of the node's name, valid in the owning tree's
    /// [`SymbolTable`](crate::SymbolTable).
    #[must_use]
    pub fn name_sym(&self) -> Sym {
        self.sym
    }

    /// The node's kind.
    #[must_use]
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// The parent id, or `None` for the root.
    #[must_use]
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// Number of live children.
    #[must_use]
    pub fn child_count(&self) -> usize {
        self.children.len()
    }

    /// Iterates over `(name_sym, id)` pairs of live children in name order.
    ///
    /// Resolve a symbol to its string with
    /// [`NamespaceTree::symbols`](crate::NamespaceTree::symbols) when the
    /// name itself is needed; traversals that only follow ids (the common
    /// case) pay nothing for it.
    pub fn children(&self) -> impl Iterator<Item = (Sym, NodeId)> + '_ {
        self.children.iter().copied()
    }

    /// Looks up a child by its interned name symbol.
    #[must_use]
    pub fn child_by_sym(&self, sym: Sym) -> Option<NodeId> {
        self.children.get(sym)
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

    #[test]
    fn child_map_keeps_name_order() {
        let mut table = SymbolTable::new();
        let mut map = ChildMap::new();
        for (i, name) in ["z", "a", "m"].iter().enumerate() {
            let sym = table.intern(name);
            map.insert(sym, NodeId::from_index(i + 1), &table);
        }
        let names: Vec<&str> = map.iter().map(|&(s, _)| table.resolve(s)).collect();
        assert_eq!(names, vec!["a", "m", "z"]);
        let a = table.lookup("a").unwrap();
        assert_eq!(map.get(a), Some(NodeId::from_index(2)));
        assert_eq!(map.remove(a), Some(NodeId::from_index(2)));
        assert_eq!(map.get(a), None);
        assert_eq!(map.len(), 2);
    }
}
