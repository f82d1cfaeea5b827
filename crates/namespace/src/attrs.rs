//! POSIX-style file attributes — the actual *metadata* an MDS stores.
//!
//! The partitioning machinery only needs the tree structure, but a
//! metadata server ultimately serves `stat`-like records. [`AttrTable`]
//! is the per-node store the cluster runtimes read and mutate — sparse,
//! like the durable store's `MdsState::attrs`: a server holds a record
//! only for a node it has mutated. Every mutation bumps a per-node
//! version, which is what the global-layer consistency machinery
//! (fencing tokens, client leases) synchronises on.

use crate::node::{NodeId, NodeIdMap};
use crate::tree::{bit, NamespaceTree};

/// A `stat`-like attribute record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileAttr {
    /// Permission bits (the low 12 bits of `st_mode`).
    pub mode: u16,
    /// Owning user id.
    pub uid: u32,
    /// Owning group id.
    pub gid: u32,
    /// Logical size in bytes (0 for directories).
    pub size: u64,
    /// Modification time, seconds since the epoch.
    pub mtime: u64,
}

impl Default for FileAttr {
    fn default() -> Self {
        FileAttr {
            mode: 0o644,
            uid: 0,
            gid: 0,
            size: 0,
            mtime: 0,
        }
    }
}

impl FileAttr {
    /// A default directory record (`rwxr-xr-x`).
    #[must_use]
    pub fn directory() -> Self {
        FileAttr {
            mode: 0o755,
            ..FileAttr::default()
        }
    }

    /// Whether `uid`/`gid` may traverse (execute) this entry — the check a
    /// POSIX pathname walk performs on every ancestor.
    #[must_use]
    pub fn allows_traversal(&self, uid: u32, gid: u32) -> bool {
        if uid == 0 {
            return true;
        }
        let shift = if uid == self.uid {
            6
        } else if gid == self.gid {
            3
        } else {
            0
        };
        self.mode >> shift & 0o1 == 0o1
    }
}

/// A versioned attribute record as stored by the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionedAttr {
    /// The attributes.
    pub attr: FileAttr,
    /// Bumped on every mutation; replicas compare versions to converge.
    pub version: u64,
}

/// Per-node attribute store: a record for every node that has left its
/// default, and the node's kind — one bit — for every other.
///
/// A node nobody has updated reads as [`FileAttr::directory`] or
/// [`FileAttr::default`] at version 0, answered from a copy of the
/// tree's directory bitmap, so the table's memory follows the nodes
/// this server has mutated (a map entry is 56–100 bytes, growth slack
/// included), not the size of the namespace.
///
/// # Example
///
/// ```
/// use d2tree_namespace::{AttrTable, FileAttr, NamespaceTree, NodeKind};
///
/// # fn main() -> Result<(), d2tree_namespace::TreeError> {
/// let mut tree = NamespaceTree::new();
/// let f = tree.create(tree.root(), "f", NodeKind::File)?;
/// let mut attrs = AttrTable::new(&tree);
/// assert_eq!(attrs.record_count(), 0);
///
/// let v0 = attrs.get(f).version;
/// let committed = attrs.update(f, |a| a.size = 4096);
/// assert_eq!(attrs.get(f), committed);
/// assert_eq!(committed.attr.size, 4096);
/// assert!(committed.version > v0);
/// assert_eq!(attrs.record_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AttrTable {
    /// The nodes whose record is not their kind's default at version 0.
    records: NodeIdMap<VersionedAttr>,
    /// The tree's directory bitmap as of `new` / the last `resize_for`.
    /// A slot keeps its kind for life, tombstoned or not.
    dir_bits: Vec<u64>,
    /// Arena slots covered; ids at or past it are outside the table.
    slots: usize,
}

impl AttrTable {
    /// Creates a table covering `tree`'s arena, every node at its kind's
    /// default: directory defaults for directories, file defaults for
    /// files.
    #[must_use]
    pub fn new(tree: &NamespaceTree) -> Self {
        AttrTable {
            records: NodeIdMap::default(),
            dir_bits: tree.dir_bits().to_vec(),
            slots: tree.arena_size(),
        }
    }

    /// Grows the table to cover nodes created after it was built, each
    /// at its kind's default.
    pub fn resize_for(&mut self, tree: &NamespaceTree) {
        if tree.arena_size() > self.slots {
            tree.dir_bits().clone_into(&mut self.dir_bits);
            self.slots = tree.arena_size();
        }
    }

    /// What `id` reads as until something mutates it.
    fn default_of(&self, id: NodeId) -> VersionedAttr {
        assert!(
            id.index() < self.slots,
            "node {} is outside the {}-slot attribute table",
            id.index(),
            self.slots
        );
        let attr = if bit(&self.dir_bits, id) {
            FileAttr::directory()
        } else {
            FileAttr::default()
        };
        VersionedAttr { attr, version: 0 }
    }

    /// Reads a node's versioned record.
    ///
    /// # Panics
    ///
    /// Panics if the id is outside the table.
    #[must_use]
    pub fn get(&self, id: NodeId) -> VersionedAttr {
        match self.records.get(&id) {
            Some(&rec) => rec,
            None => self.default_of(id),
        }
    }

    /// Mutates a node's attributes in place and bumps its version;
    /// returns the record this update committed, whose `version` no
    /// other update of the node will carry.
    ///
    /// # Panics
    ///
    /// Panics if the id is outside the table.
    pub fn update<F>(&mut self, id: NodeId, mutate: F) -> VersionedAttr
    where
        F: FnOnce(&mut FileAttr),
    {
        let default = self.default_of(id);
        let rec = self.records.entry(id).or_insert(default);
        mutate(&mut rec.attr);
        rec.version += 1;
        *rec
    }

    /// Applies a replica record if it is newer; returns whether it was
    /// applied. This is the convergence rule replicas use after a
    /// global-layer commit.
    ///
    /// # Panics
    ///
    /// Panics if the id is outside the table.
    pub fn apply_if_newer(&mut self, id: NodeId, incoming: VersionedAttr) -> bool {
        let newer = incoming.version > self.get(id).version;
        if newer {
            self.records.insert(id, incoming);
        }
        newer
    }

    /// Walks the root-to-`node` chain checking traversal permission on
    /// every ancestor and read permission on the target — the POSIX check
    /// the paper's Sec. I invokes to motivate locality.
    #[must_use]
    pub fn permission_walk(&self, tree: &NamespaceTree, node: NodeId, uid: u32, gid: u32) -> bool {
        for anc in tree.ancestors(node) {
            if !self.get(anc).attr.allows_traversal(uid, gid) {
                return false;
            }
        }
        let target = self.get(node).attr;
        let shift = if uid == 0 {
            return true;
        } else if uid == target.uid {
            6
        } else if gid == target.gid {
            3
        } else {
            0
        };
        target.mode >> shift & 0o4 == 0o4
    }

    /// Number of slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots
    }

    /// Whether the table has no slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots == 0
    }

    /// How many nodes hold a record of their own — the ones some
    /// `update` or `apply_if_newer` has touched.
    #[must_use]
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// The nodes holding a record of their own, in no particular order.
    pub fn records(&self) -> impl Iterator<Item = (NodeId, VersionedAttr)> + '_ {
        self.records.iter().map(|(&id, &rec)| (id, rec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeKind;

    fn tree_with_file() -> (NamespaceTree, NodeId, NodeId) {
        let mut t = NamespaceTree::new();
        let d = t.create(t.root(), "d", NodeKind::Directory).unwrap();
        let f = t.create(d, "f", NodeKind::File).unwrap();
        (t, d, f)
    }

    #[test]
    fn directories_get_executable_defaults() {
        let (t, d, f) = tree_with_file();
        let attrs = AttrTable::new(&t);
        assert_eq!(attrs.get(d).attr.mode, 0o755);
        assert_eq!(attrs.get(f).attr.mode, 0o644);
    }

    #[test]
    fn updates_bump_versions_monotonically() {
        let (t, _, f) = tree_with_file();
        let mut attrs = AttrTable::new(&t);
        let v1 = attrs.update(f, |a| a.size = 1);
        let v2 = attrs.update(f, |a| a.mtime = 99);
        assert!(v2.version > v1.version);
        assert_eq!(attrs.get(f).attr.size, 1);
        assert_eq!(attrs.get(f).attr.mtime, 99);
    }

    #[test]
    fn replica_convergence_is_version_gated() {
        let (t, _, f) = tree_with_file();
        let mut primary = AttrTable::new(&t);
        let mut replica = AttrTable::new(&t);
        primary.update(f, |a| a.size = 7);
        let record = primary.get(f);
        assert!(replica.apply_if_newer(f, record));
        assert_eq!(replica.get(f).attr.size, 7);
        // Re-applying the same version is a no-op; older never wins.
        assert!(!replica.apply_if_newer(f, record));
        replica.update(f, |a| a.size = 8);
        assert!(!replica.apply_if_newer(f, record));
        assert_eq!(replica.get(f).attr.size, 8);
    }

    #[test]
    fn permission_walk_requires_every_ancestor() {
        let (t, d, f) = tree_with_file();
        let mut attrs = AttrTable::new(&t);
        assert!(
            attrs.permission_walk(&t, f, 1000, 1000),
            "defaults are world-readable"
        );
        // Lock the directory: no world execute.
        attrs.update(d, |a| a.mode = 0o700);
        assert!(!attrs.permission_walk(&t, f, 1000, 1000));
        assert!(attrs.permission_walk(&t, f, 0, 0), "root bypasses");
        // The directory owner can still traverse.
        attrs.update(d, |a| a.uid = 1000);
        assert!(attrs.permission_walk(&t, f, 1000, 1000));
    }

    #[test]
    fn group_permissions_apply() {
        let (t, _, f) = tree_with_file();
        let mut attrs = AttrTable::new(&t);
        attrs.update(f, |a| {
            a.mode = 0o040; // group-readable only
            a.uid = 1;
            a.gid = 50;
        });
        assert!(attrs.permission_walk(&t, f, 2, 50));
        assert!(!attrs.permission_walk(&t, f, 2, 51));
    }

    #[test]
    fn update_returns_the_record_it_committed() {
        let (t, _, f) = tree_with_file();
        let mut attrs = AttrTable::new(&t);
        for round in 1..=3 {
            let committed = attrs.update(f, |a| a.size += 10);
            assert_eq!(committed, attrs.get(f));
            assert_eq!(committed.version, round);
            assert_eq!(committed.attr.size, 10 * round);
        }
    }

    #[test]
    fn only_mutated_nodes_hold_a_record() {
        let (t, d, f) = tree_with_file();
        let mut attrs = AttrTable::new(&t);
        assert_eq!((attrs.len(), attrs.record_count()), (3, 0));
        attrs.update(f, |a| a.size = 1);
        attrs.update(f, |a| a.size = 2);
        // A replica record no newer than the default leaves none behind.
        assert!(!attrs.apply_if_newer(d, attrs.get(d)));
        assert_eq!(attrs.records().collect::<Vec<_>>(), [(f, attrs.get(f))]);
        assert_eq!(attrs.clone().get(f), attrs.get(f));
    }

    #[test]
    fn resize_for_covers_new_nodes() {
        let (mut t, d, _) = tree_with_file();
        let mut attrs = AttrTable::new(&t);
        let extra = t.create(d, "extra", NodeKind::File).unwrap();
        attrs.resize_for(&t);
        assert_eq!(attrs.get(extra).version, 0);
    }

    #[test]
    fn late_directories_get_directory_defaults() {
        let (mut t, _, _) = tree_with_file();
        let mut attrs = AttrTable::new(&t);
        let dir = t.create(t.root(), "late", NodeKind::Directory).unwrap();
        let file = t.create(dir, "f", NodeKind::File).unwrap();
        attrs.resize_for(&t);
        assert_eq!(attrs.get(dir).attr, FileAttr::directory());
        assert_eq!(attrs.get(file).attr, FileAttr::default());
        // A file-mode (`0o644`) parent denied every non-root caller here.
        assert!(attrs.permission_walk(&t, file, 1000, 1000));
    }

    #[test]
    #[should_panic(expected = "outside the 3-slot attribute table")]
    fn nodes_created_after_the_table_are_outside_it_until_resized() {
        let (mut t, d, _) = tree_with_file();
        let attrs = AttrTable::new(&t);
        let extra = t.create(d, "extra", NodeKind::File).unwrap();
        let _ = attrs.get(extra);
    }
}
