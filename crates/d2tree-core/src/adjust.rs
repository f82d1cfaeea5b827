//! Dynamic-Adjustment: heartbeat-driven rebalancing through the Monitor's
//! pending pool, plus periodic global-layer re-cuts.

use std::sync::Arc;

use d2tree_metrics::{ClusterSpec, MdsId, Migration};
use d2tree_namespace::{NamespaceTree, NodeId, Popularity};
use d2tree_telemetry::{EventJournal, EventKind};

use crate::allocate::Subtree;
use crate::split::{split_to_proportion, GlobalLayer};

/// Periodic load report an MDS sends the Monitor (Sec. IV-B): current load
/// `L_k`; the Monitor derives the relative capacity `Re_k = L_k − μ·C_k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Heartbeat {
    /// Reporting server.
    pub mds: MdsId,
    /// Its current load.
    pub load: f64,
}

/// A shed subtree waiting in the Monitor's pending pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolEntry {
    /// The shed subtree.
    pub subtree: Subtree,
    /// The overloaded server that shed it.
    pub from: MdsId,
}

/// The Monitor's pending pool: subtrees shed by overloaded servers,
/// waiting for light servers to claim them (Sec. IV-B).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PendingPool {
    entries: Vec<PoolEntry>,
}

impl PendingPool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pooled subtrees.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the pool is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total popularity waiting in the pool.
    #[must_use]
    pub fn total_popularity(&self) -> f64 {
        self.entries.iter().map(|e| e.subtree.popularity).sum()
    }

    /// Offers a shed subtree to the pool.
    pub fn offer(&mut self, entry: PoolEntry) {
        self.entries.push(entry);
    }

    /// The pooled entries, in offer order.
    #[must_use]
    pub fn entries(&self) -> &[PoolEntry] {
        &self.entries
    }

    /// Drains the whole pool.
    pub fn drain_all(&mut self) -> Vec<PoolEntry> {
        std::mem::take(&mut self.entries)
    }
}

/// Thresholds governing when servers shed and claim (our concretisation of
/// the paper's "relatively overloaded" / "lightly loaded" language).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdjustPolicy {
    /// A server sheds once `L_k > overload_factor · I_k`.
    pub overload_factor: f64,
    /// Shedding stops once the load is back at `shed_target · I_k`.
    pub shed_target: f64,
}

impl Default for AdjustPolicy {
    fn default() -> Self {
        // 5% hysteresis above ideal triggers shedding, shed back to ideal.
        AdjustPolicy {
            overload_factor: 1.05,
            shed_target: 1.0,
        }
    }
}

/// The Monitor-side rebalancing engine: accepts heartbeats, tells
/// overloaded servers what to shed, and assigns the pending pool to light
/// servers by mirror division of the pool CDF against the deficit CDF.
#[derive(Debug, Clone, Default)]
pub struct DynamicAdjuster {
    policy: AdjustPolicy,
    pool: PendingPool,
    journal: Option<Arc<EventJournal>>,
}

impl DynamicAdjuster {
    /// Creates an adjuster with the given policy.
    #[must_use]
    pub fn new(policy: AdjustPolicy) -> Self {
        DynamicAdjuster {
            policy,
            pool: PendingPool::new(),
            journal: None,
        }
    }

    /// Attaches a telemetry journal; every shed and claim the adjuster
    /// decides is then recorded as a structured event (with subtree size
    /// and popularity).
    #[must_use]
    pub fn with_journal(mut self, journal: Arc<EventJournal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// The current pending pool.
    #[must_use]
    pub fn pool(&self) -> &PendingPool {
        &self.pool
    }

    /// One full adjustment round.
    ///
    /// `owned` lists every local-layer subtree with its current owner;
    /// loads are derived from subtree popularity (the replicated global
    /// layer adds the same share to every server, so it cancels out of the
    /// balance decision). Returns the migrations light servers should
    /// execute; the pool is left empty unless no server had spare ideal
    /// capacity.
    #[must_use]
    pub fn rebalance(
        &mut self,
        owned: &[(Subtree, MdsId)],
        cluster: &ClusterSpec,
    ) -> Vec<Migration> {
        let m = cluster.len();
        let mut loads = vec![0.0; m];
        for (s, owner) in owned {
            loads[owner.index()] += s.popularity;
        }
        let total: f64 = loads.iter().sum();
        if total <= 0.0 {
            return Vec::new();
        }
        let mu = cluster.ideal_load_factor(total);

        // Phase 1: overloaded servers shed into the pending pool.
        // Greedy best-fit: shed the largest subtree that fits the excess;
        // when nothing fits, shed the smallest to still make progress.
        for mds in cluster.ids() {
            let ideal = mu * cluster.capacity(mds);
            if loads[mds.index()] <= self.policy.overload_factor * ideal {
                continue;
            }
            let mut mine: Vec<&(Subtree, MdsId)> =
                owned.iter().filter(|(_, o)| *o == mds).collect();
            mine.sort_by(|a, b| b.0.popularity.total_cmp(&a.0.popularity));
            let target = self.policy.shed_target * ideal;
            let mut load = loads[mds.index()];
            let mut i = 0;
            while load > target && !mine.is_empty() {
                let excess = load - target;
                // First subtree (scanning big → small) that fits the excess;
                // otherwise the smallest one.
                let pick = mine[i..]
                    .iter()
                    .position(|(s, _)| s.popularity <= excess)
                    .map(|off| i + off)
                    .unwrap_or(mine.len() - 1);
                let (subtree, _) = *mine.remove(pick);
                i = pick.min(mine.len().saturating_sub(1));
                load -= subtree.popularity;
                if let Some(journal) = &self.journal {
                    journal.record(EventKind::SubtreeShed {
                        from: mds.0,
                        subtree: subtree.root.index() as u64,
                        size: subtree.size as u64,
                        popularity: subtree.popularity,
                    });
                }
                self.pool.offer(PoolEntry { subtree, from: mds });
                if pick == mine.len() {
                    break; // shed the smallest; nothing else can help
                }
            }
            loads[mds.index()] = load;
        }

        if self.pool.is_empty() {
            return Vec::new();
        }

        // Phase 2: light servers claim from the pool proportionally to
        // their deficit (Eq. 10's mirror interval, with remaining capacity
        // R_k = deficit below ideal).
        let deficits: Vec<f64> = cluster
            .ids()
            .map(|mds| (mu * cluster.capacity(mds) - loads[mds.index()]).max(0.0))
            .collect();
        if deficits.iter().sum::<f64>() <= 0.0 {
            // Nobody can take anything; keep the pool for the next round.
            return Vec::new();
        }
        let entries = self.pool.drain_all();
        let weights: Vec<f64> = entries.iter().map(|e| e.subtree.popularity).collect();
        let buckets = d2tree_metrics::mirror::mirror_divide(&weights, &deficits);
        entries
            .into_iter()
            .zip(buckets)
            .filter(|(e, b)| e.from != MdsId(*b as u16))
            .map(|(e, b)| {
                let to = MdsId(b as u16);
                if let Some(journal) = &self.journal {
                    journal.record(EventKind::SubtreeClaimed {
                        to: to.0,
                        subtree: e.subtree.root.index() as u64,
                        size: e.subtree.size as u64,
                        popularity: e.subtree.popularity,
                    });
                }
                Migration {
                    node: e.subtree.root,
                    from: e.from,
                    to,
                }
            })
            .collect()
    }
}

/// A planned global-layer re-cut (the infrequent adjustment of Sec. IV-B —
/// "typically once a day in our experiments").
#[derive(Debug, Clone, PartialEq)]
pub struct RecutPlan {
    /// The new global layer.
    pub new_layer: GlobalLayer,
    /// Nodes promoted from the local into the global layer.
    pub promoted: Vec<NodeId>,
    /// Nodes demoted from the global into the local layer.
    pub demoted: Vec<NodeId>,
}

impl RecutPlan {
    /// Number of nodes whose layer changes.
    #[must_use]
    pub fn churn(&self) -> usize {
        self.promoted.len() + self.demoted.len()
    }

    /// Records this re-cut in a telemetry journal as a
    /// [`EventKind::GlRecut`] event.
    pub fn record_to(&self, journal: &EventJournal) {
        journal.record(EventKind::GlRecut {
            promoted: self.promoted.len() as u64,
            demoted: self.demoted.len() as u64,
            churn: self.churn() as u64,
        });
    }
}

/// Recomputes the global layer against current (decayed) popularity and
/// diffs it against the old layer.
///
/// # Panics
///
/// Panics if `proportion` is outside `(0, 1]`; in debug builds, panics if
/// `pop` is not rolled up.
#[must_use]
pub fn plan_recut<F>(
    tree: &NamespaceTree,
    pop: &Popularity,
    update_of: F,
    proportion: f64,
    old: &GlobalLayer,
) -> RecutPlan
where
    F: FnMut(NodeId) -> f64,
{
    let (new_layer, _) = split_to_proportion(tree, pop, update_of, proportion);
    let promoted = new_layer
        .members()
        .iter()
        .copied()
        .filter(|&id| !old.contains(id))
        .collect();
    let demoted = old
        .members()
        .iter()
        .copied()
        .filter(|&id| !new_layer.contains(id))
        .collect();
    RecutPlan {
        new_layer,
        promoted,
        demoted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subtree(idx: u32, popularity: f64) -> Subtree {
        Subtree {
            root: NodeId::from_index(idx as usize + 1),
            parent: NodeId::ROOT,
            popularity,
            size: 1,
        }
    }

    #[test]
    fn balanced_cluster_produces_no_migrations() {
        let cluster = ClusterSpec::homogeneous(2, 100.0);
        let owned = vec![(subtree(0, 10.0), MdsId(0)), (subtree(1, 10.0), MdsId(1))];
        let mut adj = DynamicAdjuster::new(AdjustPolicy::default());
        assert!(adj.rebalance(&owned, &cluster).is_empty());
        assert!(adj.pool().is_empty());
    }

    #[test]
    fn overload_sheds_to_light_server() {
        let cluster = ClusterSpec::homogeneous(2, 100.0);
        let owned = vec![
            (subtree(0, 10.0), MdsId(0)),
            (subtree(1, 10.0), MdsId(0)),
            (subtree(2, 10.0), MdsId(0)),
            (subtree(3, 10.0), MdsId(0)),
        ];
        let mut adj = DynamicAdjuster::new(AdjustPolicy::default());
        let migrations = adj.rebalance(&owned, &cluster);
        assert!(!migrations.is_empty());
        assert!(migrations
            .iter()
            .all(|m| m.from == MdsId(0) && m.to == MdsId(1)));
        // Shedding should move about half the load.
        let moved: f64 = migrations
            .iter()
            .map(|m| {
                owned
                    .iter()
                    .find(|(s, _)| s.root == m.node)
                    .unwrap()
                    .0
                    .popularity
            })
            .sum();
        assert!((moved - 20.0).abs() < 10.0 + 1e-9);
    }

    #[test]
    fn heterogeneous_ideal_respected() {
        // Server 1 has 3x the capacity: a 25/75 split is ideal for a total
        // of 100.
        let cluster = ClusterSpec::new(vec![100.0, 300.0]);
        let owned = vec![
            (subtree(0, 50.0), MdsId(0)),
            (subtree(1, 25.0), MdsId(0)),
            (subtree(2, 25.0), MdsId(1)),
        ];
        let mut adj = DynamicAdjuster::new(AdjustPolicy::default());
        let migrations = adj.rebalance(&owned, &cluster);
        assert!(migrations.iter().all(|m| m.to == MdsId(1)));
        assert!(!migrations.is_empty());
    }

    #[test]
    fn pool_is_retained_when_nobody_can_claim() {
        // Two servers, both overloaded relative to a tiny third: shedding
        // happens, but if every candidate claimer is itself at ideal the
        // pool keeps the entries for the next round instead of dropping
        // them.
        let cluster = ClusterSpec::new(vec![100.0, 100.0]);
        // Each server carries exactly one huge indivisible subtree plus
        // one small one; ideals are met only by trading the small ones.
        let owned = vec![
            (subtree(0, 90.0), MdsId(0)),
            (subtree(1, 10.0), MdsId(0)),
            (subtree(2, 50.0), MdsId(1)),
        ];
        let mut adj = DynamicAdjuster::new(AdjustPolicy::default());
        let migrations = adj.rebalance(&owned, &cluster);
        // Whatever was shed was either claimed by mds1 (deficit 25) or
        // retained; no migration may target the overloaded mds0.
        assert!(migrations.iter().all(|m| m.to == MdsId(1)));
        // A second round from a balanced state neither sheds nor claims.
        let rebalanced: Vec<(Subtree, MdsId)> = owned
            .iter()
            .map(|&(s, o)| {
                let moved = migrations.iter().find(|m| m.node == s.root);
                (s, moved.map_or(o, |m| m.to))
            })
            .collect();
        let second = adj.rebalance(&rebalanced, &cluster);
        assert!(
            second.len() <= 1,
            "should be settled or nearly so: {second:?}"
        );
    }

    #[test]
    fn empty_load_is_a_noop() {
        let cluster = ClusterSpec::homogeneous(3, 10.0);
        let mut adj = DynamicAdjuster::new(AdjustPolicy::default());
        assert!(adj.rebalance(&[], &cluster).is_empty());
    }

    #[test]
    fn pool_accounting() {
        let mut pool = PendingPool::new();
        assert!(pool.is_empty());
        pool.offer(PoolEntry {
            subtree: subtree(0, 5.0),
            from: MdsId(0),
        });
        pool.offer(PoolEntry {
            subtree: subtree(1, 7.0),
            from: MdsId(1),
        });
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.total_popularity(), 12.0);
        let drained = pool.drain_all();
        assert_eq!(drained.len(), 2);
        assert!(pool.is_empty());
    }

    #[test]
    fn journal_records_sheds_and_claims_with_size_and_popularity() {
        let journal = Arc::new(EventJournal::new(64));
        let cluster = ClusterSpec::homogeneous(2, 100.0);
        let owned = vec![
            (subtree(0, 10.0), MdsId(0)),
            (subtree(1, 10.0), MdsId(0)),
            (subtree(2, 10.0), MdsId(0)),
            (subtree(3, 10.0), MdsId(0)),
        ];
        let mut adj =
            DynamicAdjuster::new(AdjustPolicy::default()).with_journal(Arc::clone(&journal));
        let migrations = adj.rebalance(&owned, &cluster);
        assert!(!migrations.is_empty());
        let events = journal.snapshot();
        let sheds: Vec<_> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::SubtreeShed {
                    from,
                    size,
                    popularity,
                    ..
                } => Some((from, size, popularity)),
                _ => None,
            })
            .collect();
        assert!(!sheds.is_empty());
        assert!(sheds
            .iter()
            .all(|&(from, size, pop)| from == 0 && size == 1 && pop == 10.0));
        let claims = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SubtreeClaimed { to: 1, .. }))
            .count();
        assert_eq!(claims, migrations.len());
    }

    #[test]
    fn recut_tracks_popularity_drift() {
        use d2tree_namespace::NodeKind;
        let mut t = NamespaceTree::new();
        let a = t.create(t.root(), "a", NodeKind::Directory).unwrap();
        let b = t.create(t.root(), "b", NodeKind::Directory).unwrap();
        let mut pop = Popularity::new(&t);
        pop.record(a, 100.0);
        pop.record(b, 1.0);
        pop.rollup(&t);
        let (old, _) = split_to_proportion(&t, &pop, |_| 0.0, 0.5);
        assert!(old.contains(a));
        assert!(!old.contains(b));

        // Popularity flips.
        pop.set_individual(a, 1.0);
        pop.set_individual(b, 100.0);
        pop.rollup(&t);
        let plan = plan_recut(&t, &pop, |_| 0.0, 0.5, &old);
        assert_eq!(plan.promoted, vec![b]);
        assert_eq!(plan.demoted, vec![a]);
        assert_eq!(plan.churn(), 2);
        assert!(plan.new_layer.contains(b));

        let journal = EventJournal::new(8);
        plan.record_to(&journal);
        assert!(matches!(
            journal.snapshot()[0].kind,
            EventKind::GlRecut {
                promoted: 1,
                demoted: 1,
                churn: 2
            }
        ));
    }
}
