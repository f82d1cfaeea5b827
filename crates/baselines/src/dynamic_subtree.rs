//! Dynamic subtree partitioning (Ceph-style).

use d2tree_core::Partitioner;
use d2tree_metrics::{Assignment, ClusterSpec, MdsId, Migration, Placement};
use d2tree_namespace::{NamespaceTree, NodeId, Popularity};

use crate::keys::stable_hash;

/// Depth at which the migratable units root.
const CUT_DEPTH: usize = 3;
/// A server whose load exceeds this multiple of its ideal sheds units.
const OVERLOAD_FACTOR: f64 = 1.05;
/// Bound on the migrations of one rebalancing round.
const MAX_MOVES_PER_ROUND: usize = 64;

/// Dynamic subtree partitioning (Sec. II, as in Ceph \[8\] / Kosha \[16\]).
///
/// Initialisation follows the paper: like [`StaticSubtree`] but "the
/// subtrees need to be split into smaller subtrees with finer granularity"
/// — the migratable units root at depth 3. When a server becomes heavily
/// loaded (above 1.05× its ideal load) it migrates subdirectories to the
/// least-loaded server, one hot unit at a time, until it drops below that
/// threshold or runs out of units.
///
/// The paper's critique — migration granularity is whole directories, and
/// a handful of flow-control subtrees can dominate the load so migration
/// "cannot break the imbalance" — emerges naturally: a unit hotter than
/// the ideal load keeps some server overloaded no matter where it goes,
/// and thrashes back and forth (bounded here by 64 moves per round).
///
/// [`StaticSubtree`]: crate::StaticSubtree
#[derive(Debug)]
pub struct DynamicSubtree {
    seed: u64,
    placement: Option<Placement>,
    units: Vec<NodeId>,
    owners: Vec<MdsId>,
}

impl DynamicSubtree {
    /// Creates the scheme.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        DynamicSubtree {
            seed,
            placement: None,
            units: Vec::new(),
            owners: Vec::new(),
        }
    }

    /// The migratable units (subtree roots) with their current owners.
    pub fn units(&self) -> impl Iterator<Item = (NodeId, MdsId)> + '_ {
        self.units.iter().copied().zip(self.owners.iter().copied())
    }

    fn reassign(&mut self, tree: &NamespaceTree, slot: usize, to: MdsId) {
        self.owners[slot] = to;
        let placement = self.placement.as_mut().expect("built");
        placement.assign_subtree(tree, self.units[slot], to);
    }
}

impl Partitioner for DynamicSubtree {
    fn name(&self) -> &'static str {
        "Dynamic Subtree"
    }

    fn build(&mut self, tree: &NamespaceTree, _pop: &Popularity, cluster: &ClusterSpec) {
        let m = cluster.len();
        let mut placement = Placement::new(tree, m);
        let mut units = Vec::new();
        let mut owners = Vec::new();
        // DFS: nodes shallower than the cut hash individually; a node at
        // the cut (or a leaf above it) roots a migratable unit.
        let mut stack: Vec<(NodeId, usize)> = vec![(tree.root(), 0)];
        while let Some((id, depth)) = stack.pop() {
            let node = tree.node(id).expect("a stacked id is in the arena");
            let is_unit_root = depth == CUT_DEPTH || (depth < CUT_DEPTH && node.child_count() == 0);
            if is_unit_root {
                let h = stable_hash(tree.path_of(id).to_string().as_bytes()) ^ self.seed;
                let owner = MdsId((h % m as u64) as u16);
                placement.assign_subtree(tree, id, owner);
                units.push(id);
                owners.push(owner);
                continue;
            }
            let h = stable_hash(tree.path_of(id).to_string().as_bytes()) ^ self.seed;
            placement.set(id, Assignment::Single(MdsId((h % m as u64) as u16)));
            for (_, c) in node.children() {
                stack.push((c, depth + 1));
            }
        }
        self.placement = Some(placement);
        self.units = units;
        self.owners = owners;
    }

    fn placement(&self) -> &Placement {
        self.placement
            .as_ref()
            .expect("DynamicSubtree used before build")
    }

    fn rebalance(
        &mut self,
        tree: &NamespaceTree,
        pop: &Popularity,
        cluster: &ClusterSpec,
    ) -> Vec<Migration> {
        // Full served-request loads (shallow nodes included), so the
        // migration decisions optimise the same objective Def. 5 measures;
        // only the units below the cut are migratable, though.
        let mut loads = self
            .placement
            .as_ref()
            .expect("DynamicSubtree used before build")
            .loads(tree, pop);
        let total: f64 = loads.iter().sum();
        if total <= 0.0 {
            return Vec::new();
        }
        let mu = cluster.ideal_load_factor(total);
        let mut migrations = Vec::new();

        for _ in 0..MAX_MOVES_PER_ROUND {
            // Most overloaded server relative to its ideal.
            let (busy, ratio) = loads
                .iter()
                .enumerate()
                .map(|(k, &l)| (k, l / (mu * cluster.capacity(MdsId(k as u16)))))
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty cluster");
            if ratio <= OVERLOAD_FACTOR {
                break;
            }
            let (light, _) = loads
                .iter()
                .enumerate()
                .map(|(k, &l)| (k, l / (mu * cluster.capacity(MdsId(k as u16)))))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty cluster");
            if light == busy {
                break;
            }
            // Migrate the hottest unit that still narrows the busy/light
            // gap (moving more than half the gap would overshoot and
            // thrash); if every unit is too hot, move the smallest one —
            // the paper's "flow-control subtrees" case where migration
            // cannot break the imbalance.
            let gap = loads[busy] - loads[light];
            let mine = self
                .units
                .iter()
                .enumerate()
                .filter(|(i, _)| self.owners[*i].index() == busy);
            let slot = match mine
                .clone()
                .filter(|(_, u)| pop.total(**u) <= gap / 2.0)
                .max_by(|a, b| pop.total(*a.1).total_cmp(&pop.total(*b.1)))
                .or_else(|| {
                    mine.filter(|(_, u)| pop.total(**u) < gap)
                        .min_by(|a, b| pop.total(*a.1).total_cmp(&pop.total(*b.1)))
                }) {
                Some((slot, _)) => slot,
                None => break, // every unit is hotter than the gap: stuck
            };
            let weight = pop.total(self.units[slot]);
            let from = MdsId(busy as u16);
            let to = MdsId(light as u16);
            self.reassign(tree, slot, to);
            loads[busy] -= weight;
            loads[light] += weight;
            migrations.push(Migration {
                node: self.units[slot],
                from,
                to,
            });
        }
        migrations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2tree_metrics::balance;
    use d2tree_workload::{TraceProfile, WorkloadBuilder};

    fn setup(
        m: usize,
    ) -> (
        d2tree_workload::Workload,
        Popularity,
        DynamicSubtree,
        ClusterSpec,
    ) {
        let w = WorkloadBuilder::new(
            TraceProfile::dtr()
                .with_nodes(2_000)
                .with_operations(40_000),
        )
        .seed(5)
        .build();
        let pop = w.popularity();
        let cluster = ClusterSpec::homogeneous(m, 100.0);
        let mut s = DynamicSubtree::new(11);
        s.build(&w.tree, &pop, &cluster);
        (w, pop, s, cluster)
    }

    #[test]
    fn units_cover_whole_tree() {
        let (w, _pop, s, _) = setup(4);
        assert!(s.placement().is_complete(&w.tree));
        let covered: usize = s.units().map(|(u, _)| w.tree.subtree_size(u)).sum();
        let shallow = w
            .tree
            .nodes()
            .filter(|(id, n)| {
                w.tree.depth(*id) < 3 && !(n.child_count() == 0 || s.units().any(|(u, _)| u == *id))
            })
            .count();
        assert_eq!(covered + shallow, w.tree.node_count());
    }

    #[test]
    fn rebalance_reduces_imbalance() {
        let (w, pop, mut s, cluster) = setup(4);
        let before = balance(&s.loads(&w.tree, &pop), &cluster);
        let migrations = s.rebalance(&w.tree, &pop, &cluster);
        let after = balance(&s.loads(&w.tree, &pop), &cluster);
        if migrations.is_empty() {
            assert!(
                before >= after * 0.99,
                "no migrations only if already balanced"
            );
        } else {
            assert!(
                after >= before,
                "balance should not regress: {before} -> {after}"
            );
        }
    }

    #[test]
    fn migrations_move_whole_units() {
        let (w, pop, mut s, cluster) = setup(8);
        let migrations = s.rebalance(&w.tree, &pop, &cluster);
        for m in &migrations {
            let owner = s.placement().assignment(m.node).owner().unwrap();
            for id in w.tree.descendants(m.node) {
                assert_eq!(s.placement().assignment(id).owner(), Some(owner));
            }
        }
    }

    #[test]
    fn repeated_rounds_converge_or_bound_thrash() {
        let (w, pop, mut s, cluster) = setup(4);
        let mut total_moves = 0;
        for _ in 0..10 {
            total_moves += s.rebalance(&w.tree, &pop, &cluster).len();
        }
        // The thrash bound: no unbounded migration storms.
        assert!(total_moves <= 10 * 64);
    }
}
