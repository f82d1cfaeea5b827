//! Node-to-server placement with replication support.

use std::iter;
use std::sync::Arc;

use d2tree_namespace::{NamespaceTree, NodeId, Popularity};
use serde::{Deserialize, Serialize};

use crate::cluster_spec::{ClusterSpec, MdsId};

/// Where one namespace node lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Assignment {
    /// Not yet placed (placements under construction only).
    Unassigned,
    /// Replicated to every MDS — the paper's global layer.
    Replicated,
    /// Hosted by exactly one MDS — the paper's local layer and all
    /// single-copy baselines.
    Single(MdsId),
}

impl Assignment {
    /// Whether the node is replicated to the whole cluster.
    #[must_use]
    pub fn is_replicated(self) -> bool {
        matches!(self, Assignment::Replicated)
    }

    /// The single owner, if any.
    #[must_use]
    pub fn owner(self) -> Option<MdsId> {
        match self {
            Assignment::Single(m) => Some(m),
            _ => None,
        }
    }
}

/// A planned subtree/node migration between servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Migration {
    /// Root of the moved subtree.
    pub node: NodeId,
    /// Source server.
    pub from: MdsId,
    /// Destination server.
    pub to: MdsId,
}

/// Which servers hold the replicated ([`Assignment::Replicated`]) nodes.
///
/// The paper replicates the global layer to *every* MDS; its Sec. VII
/// future work proposes "setting a threshold to control the number of
/// replications of global layer" — [`ReplicaSet::Subset`] implements that
/// extension.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplicaSet {
    /// Every server in the cluster holds a replica (the paper's default).
    All,
    /// Only these servers hold replicas.
    Subset(Vec<MdsId>),
}

impl ReplicaSet {
    /// Number of replicas under a cluster of `m` servers.
    #[must_use]
    pub fn count(&self, m: usize) -> usize {
        match self {
            ReplicaSet::All => m,
            ReplicaSet::Subset(s) => s.len(),
        }
    }

    /// Whether `mds` holds a replica.
    #[must_use]
    pub fn contains(&self, mds: MdsId) -> bool {
        match self {
            ReplicaSet::All => true,
            ReplicaSet::Subset(s) => s.contains(&mds),
        }
    }
}

/// Dense per-node assignment table for one cluster size.
///
/// Indexed by [`NodeId::index`]; size it with
/// [`NamespaceTree::arena_size`]. Copy-on-write: a clone shares the
/// table until either side writes, so the copies a cluster hands to each
/// server cost nothing until one of them migrates a subtree. Equality
/// compares what [`assignment`](Self::assignment) reads, so a table
/// grown for a late node equals one that never was.
///
/// # Example
///
/// ```
/// use d2tree_metrics::{Assignment, MdsId, Placement};
/// use d2tree_namespace::{NamespaceTree, NodeKind};
///
/// # fn main() -> Result<(), d2tree_namespace::TreeError> {
/// let mut tree = NamespaceTree::new();
/// let a = tree.create(tree.root(), "a", NodeKind::Directory)?;
/// let mut p = Placement::new(&tree, 2);
/// p.set(tree.root(), Assignment::Replicated);
/// p.set(a, Assignment::Single(MdsId(1)));
/// assert!(p.is_complete(&tree));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Placement {
    /// One slot per arena slot: read per routed operation, so one
    /// indirection from the placement to the slot.
    assignments: Arc<[Assignment]>,
    cluster_size: usize,
    replicas: ReplicaSet,
}

impl Placement {
    /// Creates an all-[`Unassigned`](Assignment::Unassigned) placement for
    /// `tree` on a cluster of `cluster_size` servers.
    ///
    /// # Panics
    ///
    /// Panics if `cluster_size == 0`.
    #[must_use]
    pub fn new(tree: &NamespaceTree, cluster_size: usize) -> Self {
        assert!(cluster_size > 0, "cluster must have at least one MDS");
        Placement {
            assignments: iter::repeat_n(Assignment::Unassigned, tree.arena_size()).collect(),
            cluster_size,
            replicas: ReplicaSet::All,
        }
    }

    /// The table to write, unshared and at least `len` slots long. Growth
    /// copies the table once; it only happens for nodes created after
    /// the placement was.
    fn slots_mut(&mut self, len: usize) -> &mut [Assignment] {
        if len > self.assignments.len() {
            let old = self.assignments.iter().copied();
            let padding = iter::repeat(Assignment::Unassigned);
            self.assignments = old.chain(padding).take(len).collect();
        }
        Arc::make_mut(&mut self.assignments)
    }

    /// Number of servers this placement targets.
    #[must_use]
    pub fn cluster_size(&self) -> usize {
        self.cluster_size
    }

    /// The servers holding the [`Assignment::Replicated`] nodes.
    #[must_use]
    pub fn replicas(&self) -> &ReplicaSet {
        &self.replicas
    }

    /// Restricts replication to a subset of the cluster (the Sec. VII
    /// replication-threshold extension).
    ///
    /// # Panics
    ///
    /// Panics if the subset is empty or any member is outside the cluster.
    pub fn set_replicas(&mut self, replicas: ReplicaSet) {
        if let ReplicaSet::Subset(s) = &replicas {
            assert!(!s.is_empty(), "replica subset must be non-empty");
            assert!(
                s.iter().all(|m| m.index() < self.cluster_size),
                "replica subset outside cluster"
            );
        }
        self.replicas = replicas;
    }

    /// Grows the placement to a larger cluster (servers join with no
    /// assignments; use a rebalancing round to fill them).
    ///
    /// # Panics
    ///
    /// Panics if `new_size` is smaller than the current cluster size.
    pub fn grow_cluster(&mut self, new_size: usize) {
        assert!(
            new_size >= self.cluster_size,
            "cannot shrink a placement ({} -> {new_size}); re-partition instead",
            self.cluster_size
        );
        self.cluster_size = new_size;
    }

    /// The assignment of a node.
    ///
    /// Nodes created after the placement was built read as
    /// [`Assignment::Unassigned`].
    #[must_use]
    pub fn assignment(&self, id: NodeId) -> Assignment {
        self.assignments
            .get(id.index())
            .copied()
            .unwrap_or(Assignment::Unassigned)
    }

    /// Sets the assignment of one node. Unshares the table first, which
    /// is an atomic read-modify-write even when it is not shared: to set
    /// many nodes, use a [`writer`](Self::writer).
    ///
    /// # Panics
    ///
    /// Panics if a [`Assignment::Single`] id is outside the cluster.
    pub fn set(&mut self, id: NodeId, assignment: Assignment) {
        let cluster_size = self.cluster_size;
        PlacementWriter {
            slots: self.slots_mut(id.index() + 1),
            cluster_size,
        }
        .set(id, assignment);
    }

    /// The table unshared once, for setting any number of the nodes of
    /// `tree`: what a scheme that places every node at build time writes
    /// through.
    pub fn writer(&mut self, tree: &NamespaceTree) -> PlacementWriter<'_> {
        let cluster_size = self.cluster_size;
        PlacementWriter {
            slots: self.slots_mut(tree.arena_size()),
            cluster_size,
        }
    }

    /// Assigns the whole subtree rooted at `root` to one server.
    ///
    /// # Panics
    ///
    /// Panics if `mds` is outside the cluster.
    pub fn assign_subtree(&mut self, tree: &NamespaceTree, root: NodeId, mds: MdsId) {
        self.assign_subtrees(tree, [(root, mds)]);
    }

    /// Assigns each `(root, mds)` subtree to its server, in order, with
    /// one traversal stack for all of them. Unshares the table even when
    /// `subtrees` is empty.
    ///
    /// # Panics
    ///
    /// Panics if a server is outside the cluster.
    pub fn assign_subtrees<I>(&mut self, tree: &NamespaceTree, subtrees: I)
    where
        I: IntoIterator<Item = (NodeId, MdsId)>,
    {
        let mut slots = self.writer(tree);
        // One stack for every subtree: `restart` keeps its allocation.
        let mut walk = tree.descendants(tree.root());
        for (root, mds) in subtrees {
            for id in walk.restart(root) {
                slots.set(id, Assignment::Single(mds));
            }
        }
    }

    /// Whether every live node has an assignment (the paper's Eq. 4).
    #[must_use]
    pub fn is_complete(&self, tree: &NamespaceTree) -> bool {
        tree.nodes()
            .all(|(id, _)| self.assignment(id) != Assignment::Unassigned)
    }

    /// Count of replicated (global-layer) nodes.
    #[must_use]
    pub fn replicated_count(&self, tree: &NamespaceTree) -> usize {
        tree.nodes()
            .filter(|(id, _)| self.assignment(*id).is_replicated())
            .count()
    }

    /// Per-server loads `L_k`: the requests each server serves.
    ///
    /// A node contributes its *individual* popularity `p'_j` (how often it
    /// is the target of an operation) to its hosting server; a replicated
    /// node spreads `p'_j / M` over every server, because any MDS can (and
    /// in D2-Tree does, uniformly at random) serve a global-layer access.
    ///
    /// Using individual rather than rolled-up popularity matches the
    /// paper's balance results: pass-through ancestor "touches" are not
    /// server work in their accounting (otherwise the root's owner would
    /// carry the whole trace under every single-copy scheme and no
    /// hash-based scheme could ever balance). Forwarding costs do exist —
    /// the discrete-event simulator charges them as service time — but the
    /// Def. 5 balance metric is over served requests.
    #[must_use]
    pub fn loads(&self, tree: &NamespaceTree, pop: &Popularity) -> Vec<f64> {
        let mut loads = vec![0.0; self.cluster_size];
        let replica_count = self.replicas.count(self.cluster_size);
        let share = 1.0 / replica_count as f64;
        for (id, _) in tree.nodes() {
            let p = pop.individual(id);
            match self.assignment(id) {
                Assignment::Unassigned => {}
                Assignment::Replicated => match &self.replicas {
                    ReplicaSet::All => {
                        for l in &mut loads {
                            *l += p * share;
                        }
                    }
                    ReplicaSet::Subset(s) => {
                        for m in s {
                            loads[m.index()] += p * share;
                        }
                    }
                },
                Assignment::Single(m) => loads[m.index()] += p,
            }
        }
        loads
    }

    /// Applies a batch of migrations: each moves the whole subtree rooted at
    /// `migration.node` to `migration.to`.
    pub fn apply_migrations(&mut self, tree: &NamespaceTree, migrations: &[Migration]) {
        self.assign_subtrees(tree, migrations.iter().map(|m| (m.node, m.to)));
    }

    /// Iterates over `(node, assignment)` for all live nodes of `tree`.
    pub fn iter<'a>(
        &'a self,
        tree: &'a NamespaceTree,
    ) -> impl Iterator<Item = (NodeId, Assignment)> + 'a {
        tree.nodes().map(move |(id, _)| (id, self.assignment(id)))
    }

    /// Validates the placement against a cluster spec (sizes must agree).
    ///
    /// # Panics
    ///
    /// Panics if the cluster size differs.
    pub fn check_cluster(&self, cluster: &ClusterSpec) {
        assert_eq!(
            self.cluster_size,
            cluster.len(),
            "placement built for a different cluster size"
        );
    }
}

impl PartialEq for Placement {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.assignments.len() <= other.assignments.len() {
            (&self.assignments, &other.assignments)
        } else {
            (&other.assignments, &self.assignments)
        };
        let (head, tail) = long.split_at(short.len());
        self.cluster_size == other.cluster_size
            && self.replicas == other.replicas
            && head == &short[..]
            && tail.iter().all(|&a| a == Assignment::Unassigned)
    }
}

/// A [`Placement`]'s table, unshared once for many writes (see
/// [`Placement::writer`]).
#[derive(Debug)]
pub struct PlacementWriter<'a> {
    slots: &'a mut [Assignment],
    cluster_size: usize,
}

impl PlacementWriter<'_> {
    /// Sets the assignment of one node.
    ///
    /// # Panics
    ///
    /// Panics if a [`Assignment::Single`] id is outside the cluster, or
    /// if `id` is not a node of the tree the writer was made for.
    pub fn set(&mut self, id: NodeId, assignment: Assignment) {
        if let Assignment::Single(m) = assignment {
            assert!(
                m.index() < self.cluster_size,
                "{m} outside cluster of {}",
                self.cluster_size
            );
        }
        self.slots[id.index()] = assignment;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2tree_namespace::NodeKind;

    fn tree3() -> (NamespaceTree, NodeId, NodeId) {
        let mut t = NamespaceTree::new();
        let a = t.create(t.root(), "a", NodeKind::Directory).unwrap();
        let f = t.create(a, "f", NodeKind::File).unwrap();
        (t, a, f)
    }

    #[test]
    fn unassigned_until_set() {
        let (t, a, _) = tree3();
        let mut p = Placement::new(&t, 2);
        assert_eq!(p.assignment(a), Assignment::Unassigned);
        assert!(!p.is_complete(&t));
        p.set(t.root(), Assignment::Replicated);
        p.assign_subtree(&t, a, MdsId(0));
        assert!(p.is_complete(&t));
        assert_eq!(p.replicated_count(&t), 1);
    }

    #[test]
    fn loads_split_replicated_evenly() {
        let (t, a, f) = tree3();
        let mut pop = Popularity::new(&t);
        pop.record(f, 8.0);
        pop.record(t.root(), 6.0);
        pop.rollup(&t);

        let mut p = Placement::new(&t, 2);
        p.set(t.root(), Assignment::Replicated);
        p.set(a, Assignment::Single(MdsId(0)));
        p.set(f, Assignment::Single(MdsId(0)));
        let loads = p.loads(&t, &pop);
        // The replicated root's 6 requests split 3/3; f's 8 requests land
        // on its owner mds0; pass-through traversal is not load.
        assert_eq!(loads, vec![11.0, 3.0]);
    }

    #[test]
    fn migrations_move_whole_subtrees() {
        let (t, a, f) = tree3();
        let mut p = Placement::new(&t, 2);
        p.set(t.root(), Assignment::Replicated);
        p.assign_subtree(&t, a, MdsId(0));
        p.apply_migrations(
            &t,
            &[Migration {
                node: a,
                from: MdsId(0),
                to: MdsId(1),
            }],
        );
        assert_eq!(p.assignment(a), Assignment::Single(MdsId(1)));
        assert_eq!(p.assignment(f), Assignment::Single(MdsId(1)));
    }

    #[test]
    #[should_panic(expected = "outside cluster")]
    fn set_outside_cluster_panics() {
        let (t, a, _) = tree3();
        let mut p = Placement::new(&t, 2);
        p.set(a, Assignment::Single(MdsId(5)));
    }

    #[test]
    fn assignment_accessors() {
        assert!(Assignment::Replicated.is_replicated());
        assert_eq!(Assignment::Single(MdsId(3)).owner(), Some(MdsId(3)));
        assert_eq!(Assignment::Replicated.owner(), None);
    }

    #[test]
    fn limited_replication_concentrates_gl_load() {
        let (t, a, f) = tree3();
        let mut pop = Popularity::new(&t);
        pop.record(t.root(), 12.0);
        pop.rollup(&t);
        let mut p = Placement::new(&t, 3);
        p.set(t.root(), Assignment::Replicated);
        p.set(a, Assignment::Single(MdsId(2)));
        p.set(f, Assignment::Single(MdsId(2)));
        p.set_replicas(ReplicaSet::Subset(vec![MdsId(0), MdsId(1)]));
        let loads = p.loads(&t, &pop);
        // The root's 12 requests split 6/6 over the two replicas only.
        assert_eq!(loads, vec![6.0, 6.0, 0.0]);
        assert!(p.replicas().contains(MdsId(0)));
        assert!(!p.replicas().contains(MdsId(2)));
        assert_eq!(p.replicas().count(3), 2);
    }

    #[test]
    #[should_panic(expected = "outside cluster")]
    fn replica_subset_must_be_in_cluster() {
        let (t, _, _) = tree3();
        let mut p = Placement::new(&t, 2);
        p.set_replicas(ReplicaSet::Subset(vec![MdsId(7)]));
    }

    #[test]
    fn grow_cluster_admits_new_servers() {
        let (t, a, _) = tree3();
        let mut p = Placement::new(&t, 2);
        p.grow_cluster(4);
        assert_eq!(p.cluster_size(), 4);
        p.set(a, Assignment::Single(MdsId(3))); // now valid
        assert_eq!(p.assignment(a).owner(), Some(MdsId(3)));
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn grow_cluster_rejects_shrinking() {
        let (t, _, _) = tree3();
        let mut p = Placement::new(&t, 3);
        p.grow_cluster(2);
    }

    #[test]
    fn set_grows_table_for_new_nodes() {
        let (mut t, a, _) = tree3();
        let mut p = Placement::new(&t, 2);
        let n = t.create(a, "new", NodeKind::File).unwrap();
        p.set(n, Assignment::Single(MdsId(1)));
        assert_eq!(p.assignment(n), Assignment::Single(MdsId(1)));
    }

    /// A clone shares the table until either side writes, and the write
    /// lands on the writer alone, whichever side that is — including a
    /// write that grows the table for a node created after the build.
    #[test]
    fn clones_share_the_table_until_one_side_writes() {
        let (mut t, a, f) = tree3();
        let mut base = Placement::new(&t, 2);
        base.set(t.root(), Assignment::Replicated);
        base.assign_subtree(&t, a, MdsId(0));
        let late = t.create(a, "late", NodeKind::File).unwrap();
        let reads = |p: &Placement| -> Vec<Assignment> {
            (0..t.arena_size() + 2)
                .map(|i| p.assignment(NodeId::from_index(i)))
                .collect()
        };
        let shared = |x: &Placement, y: &Placement| Arc::ptr_eq(&x.assignments, &y.assignments);
        let to_1 = Assignment::Single(MdsId(1));
        let migration = Migration {
            node: a,
            from: MdsId(0),
            to: MdsId(1),
        };
        type Write<'a> = Box<dyn Fn(&mut Placement) + 'a>;
        let writes: [(&str, Write); 5] = [
            ("set", Box::new(|p| p.set(f, to_1))),
            ("writer", Box::new(|p| p.writer(&t).set(f, to_1))),
            (
                "assign_subtree",
                Box::new(|p| p.assign_subtree(&t, a, MdsId(1))),
            ),
            ("set past the table", Box::new(|p| p.set(late, to_1))),
            (
                "apply_migrations",
                Box::new(|p| p.apply_migrations(&t, &[migration])),
            ),
        ];
        let before = reads(&base);
        for (name, write) in &writes {
            let mut copy = base.clone();
            assert!(shared(&copy, &base) && copy == base, "{name}");
            write(&mut copy);
            assert!(!shared(&copy, &base), "{name}");
            assert_eq!(
                reads(&base),
                before,
                "{name} on a clone reached the original"
            );
            assert_ne!(copy, base, "{name}");

            let mut original = base.clone();
            let kept = original.clone();
            write(&mut original);
            assert_eq!(
                reads(&kept),
                before,
                "{name} on the original reached a clone"
            );
            assert_eq!(original, copy, "{name}: the same write, the same table");
        }
    }

    /// Equality is by what `assignment` reads, not by table identity or
    /// length: slots past the end read as unassigned.
    #[test]
    fn equality_compares_contents() {
        let (mut t, a, f) = tree3();
        let build = |t: &NamespaceTree| {
            let mut p = Placement::new(t, 2);
            p.set(t.root(), Assignment::Replicated);
            p.assign_subtree(t, a, MdsId(1));
            p
        };
        let (x, y) = (build(&t), build(&t));
        assert!(!Arc::ptr_eq(&x.assignments, &y.assignments));
        assert_eq!(x, y);
        let late = t.create(a, "late", NodeKind::File).unwrap();
        let mut grown = x.clone();
        grown.set(late, Assignment::Unassigned);
        assert!(grown.assignments.len() > y.assignments.len());
        assert_eq!(grown, y);
        assert_eq!(y, grown);
        grown.set(late, Assignment::Single(MdsId(0)));
        assert_ne!(grown, y);
        assert_ne!(y, grown);
        let mut other = y.clone();
        other.set(f, Assignment::Single(MdsId(0)));
        assert_ne!(other, x);
        let mut wider = x.clone();
        wider.grow_cluster(3);
        assert_ne!(wider, x, "the cluster size is part of a placement");
    }
}
