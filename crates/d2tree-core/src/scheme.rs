//! The pluggable partitioning-scheme interface and the D2-Tree
//! implementation of it.

use d2tree_metrics::{
    locality_from_jumps, path_jumps, Assignment, ClusterSpec, LocalityReport, MdsId, Migration,
    Placement, ReplicaSet,
};
use d2tree_namespace::{NamespaceTree, NodeId, Popularity};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::adjust::{AdjustPolicy, DynamicAdjuster};
use crate::allocate::{allocate_full, allocate_sampled, collect_subtrees, SampleStrategy, Subtree};
use crate::index::LocalIndex;
use crate::split::{split_to_proportion, tree_split, GlobalLayer, SplitBounds, SplitError};

/// The sequence of MDSs one metadata access visits, in order, borrowed
/// from the [`Router`] that planned it.
///
/// The first server is the one the client contacts; each further entry is
/// a forwarding hop. Replicated (global-layer) targets record whether the
/// plan may be served by *any* server, which the throughput simulator uses
/// to spread load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessPlan<'r> {
    /// Servers visited, in order. Never empty.
    pub visits: &'r [MdsId],
    /// Whether the target node is replicated cluster-wide.
    pub target_replicated: bool,
}

impl AccessPlan<'_> {
    /// Number of inter-server forwarding hops (visits − 1).
    #[must_use]
    pub fn hops(&self) -> usize {
        self.visits.len().saturating_sub(1)
    }

    /// The server that ultimately serves the request.
    #[must_use]
    pub fn terminal(&self) -> MdsId {
        *self.visits.last().expect("plans are never empty")
    }
}

/// How many top levels of the namespace every client is assumed to have
/// cached: the owners of the root and of the first-level directories
/// essentially never change, so no production client re-resolves them per
/// operation. Routing therefore starts the physical traversal below this
/// depth (the Def. 1 *jump metric* still counts the full chain — caching
/// affects who does work, not the formal locality measure).
pub const CLIENT_CACHED_DEPTH: usize = 2;

/// Routes accesses for one scheme over one tree, for as long as it
/// borrows both — one per replay, from [`Partitioner::router`].
///
/// The borrow is what lets a chain-routed router remember: the placement
/// and the tree cannot change while it exists, so the walk a node's first
/// request does is still the answer on every later request and nothing is
/// ever invalidated. What is remembered is the walk, not the plan: a
/// traversal that never pins to a server draws its random MDS on every
/// request, so the caller's rng is consumed per operation exactly as an
/// unremembered walk would consume it.
#[derive(Debug)]
pub struct Router<'a> {
    tree: &'a NamespaceTree,
    placement: &'a Placement,
    rule: Rule<'a>,
    /// Holds a plan that is not a remembered walk: the random pick of a
    /// never-pinned traversal, D2-Tree's one or two visits.
    scratch: [MdsId; 2],
}

#[derive(Debug)]
enum Rule<'a> {
    Chain(ChainMemo),
    D2Tree { state: &'a State, index_miss: f64 },
}

/// The chain walks one router has done so far.
#[derive(Debug)]
struct ChainMemo {
    /// Depth of the shallowest traversed chain node.
    start_depth: usize,
    /// Per arena slot of the tree: where in `lists` the node's visits
    /// begin, 0 until its first request.
    first_visit: Vec<u32>,
    /// Every routed node's visits, each list behind one header element
    /// holding its length.
    lists: Vec<MdsId>,
}

impl ChainMemo {
    /// Walks `node`'s chain over a single-copy placement, appends the
    /// servers a POSIX traversal visits (consecutive repeats collapsed,
    /// replicated chain nodes served wherever the traversal already is)
    /// and returns where the list begins. The top `start_depth` levels
    /// are client-cached and skipped — without this the root's owner
    /// would serve every operation in the cluster — but the target is
    /// always traversed, however shallow; a removed node has no parent
    /// left, so its chain is the node alone. A list may come out empty:
    /// the traversal never pinned to a server.
    fn walk(&mut self, tree: &NamespaceTree, placement: &Placement, node: NodeId) -> usize {
        self.lists.push(MdsId(0));
        let at = self.lists.len();
        // `lead` climbs `start_depth` levels ahead of the walk and runs
        // off the root as the walk reaches the shallowest traversed level.
        let mut lead = tree.chain_up(node).skip(self.start_depth + 1);
        for id in tree.chain_up(node) {
            match placement.assignment(id) {
                Assignment::Unassigned => panic!("routing requires a complete placement"),
                Assignment::Replicated => {}
                Assignment::Single(m) => {
                    if self.lists[at..].last() != Some(&m) {
                        self.lists.push(m);
                    }
                }
            }
            if lead.next().is_none() {
                break;
            }
        }
        // Collected target-first; a traversal runs root-first.
        self.lists[at..].reverse();
        let len = u16::try_from(self.lists.len() - at).expect("visit list fits its u16 header");
        self.lists[at - 1] = MdsId(len);
        self.first_visit[node.index()] = u32::try_from(at).expect("visit lists fit u32 offsets");
        at
    }
}

impl<'a> Router<'a> {
    /// The POSIX-traversal router every baseline uses (see
    /// [`Partitioner::router`]), with an explicit first traversed depth.
    ///
    /// `start_depth = 0` walks the full root-to-target chain with no
    /// client caching. Under a full walk the visit count minus one equals
    /// Def. 1's [`path_jumps`] exactly — the property the trace analyzer
    /// verifies per operation against observed spans.
    #[must_use]
    pub fn chain(tree: &'a NamespaceTree, placement: &'a Placement, start_depth: usize) -> Self {
        Router {
            tree,
            placement,
            rule: Rule::Chain(ChainMemo {
                start_depth,
                first_visit: vec![0; tree.arena_size()],
                lists: Vec::new(),
            }),
            scratch: [MdsId(0); 2],
        }
    }

    /// The servers an access to `node` visits.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the tree's arena or a chain node is
    /// unassigned.
    pub fn route(&mut self, node: NodeId, rng: &mut dyn RngCore) -> AccessPlan<'_> {
        let m = self.placement.cluster_size();
        match &mut self.rule {
            Rule::Chain(memo) => {
                let at = match memo.first_visit[node.index()] {
                    0 => memo.walk(self.tree, self.placement, node),
                    at => at as usize,
                };
                let len = usize::from(memo.lists[at - 1].0);
                let visits = if len == 0 {
                    self.scratch[0] = MdsId(rng.gen_range(0..m) as u16);
                    &self.scratch[..1]
                } else {
                    &memo.lists[at..at + len]
                };
                AccessPlan {
                    visits,
                    target_replicated: self.placement.assignment(node).is_replicated(),
                }
            }
            Rule::D2Tree { state, index_miss } => {
                if state.layer.contains(node) {
                    self.scratch[0] = match self.placement.replicas() {
                        ReplicaSet::All => MdsId(rng.gen_range(0..m) as u16),
                        ReplicaSet::Subset(set) => set[rng.gen_range(0..set.len())],
                    };
                    return AccessPlan {
                        visits: &self.scratch[..1],
                        target_replicated: true,
                    };
                }
                let (_, owner) = state
                    .index
                    .locate(self.tree, node)
                    .expect("local-layer nodes always have an indexed subtree root");
                // A fresh client index points straight at the owner; a
                // stale entry (probability grows with cluster size, see
                // `D2TreeConfig::index_miss_per_mds`) costs one extra hop
                // through an arbitrary MDS, which — holding the replicated
                // local index — forwards to the owner.
                let mut first = owner;
                if rng.gen_range(0.0..1.0) < *index_miss {
                    first = MdsId(rng.gen_range(0..m) as u16);
                }
                self.scratch = [first, owner];
                AccessPlan {
                    visits: &self.scratch[usize::from(first == owner)..],
                    target_replicated: false,
                }
            }
        }
    }
}

/// A namespace partitioning scheme: D2-Tree or any of the baselines.
///
/// The lifecycle is `build` once, then interleave metric queries
/// ([`jumps`](Partitioner::jumps), [`locality`](Partitioner::locality)),
/// routing (through a [`router`](Partitioner::router)) and periodic
/// [`rebalance`](Partitioner::rebalance) rounds as the workload evolves.
pub trait Partitioner {
    /// Scheme name as it appears in the paper's figures.
    fn name(&self) -> &'static str;

    /// Partitions `tree` across `cluster` using rolled-up popularity.
    fn build(&mut self, tree: &NamespaceTree, pop: &Popularity, cluster: &ClusterSpec);

    /// The current placement.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before [`build`](Self::build).
    fn placement(&self) -> &Placement;

    /// Def. 1 jump count for an access to `node`.
    fn jumps(&self, tree: &NamespaceTree, node: NodeId) -> u32 {
        path_jumps(tree, self.placement(), node)
    }

    /// A router over the current placement and `tree`. The default walks
    /// the target's ancestor chain below the client-cached levels;
    /// D2-Tree overrides it with its global-layer/local-index rule.
    fn router<'a>(&'a self, tree: &'a NamespaceTree) -> Router<'a> {
        Router::chain(tree, self.placement(), CLIENT_CACHED_DEPTH)
    }

    /// One dynamic-rebalancing round; returns the migrations performed
    /// (already applied to the scheme's own placement).
    fn rebalance(
        &mut self,
        tree: &NamespaceTree,
        pop: &Popularity,
        cluster: &ClusterSpec,
    ) -> Vec<Migration> {
        let _ = (tree, pop, cluster);
        Vec::new()
    }

    /// Def. 3 system locality under this scheme's jump rule.
    fn locality(&self, tree: &NamespaceTree, pop: &Popularity) -> LocalityReport {
        locality_from_jumps(tree, pop, |n| self.jumps(tree, n))
    }

    /// Per-server loads under this scheme's placement.
    fn loads(&self, tree: &NamespaceTree, pop: &Popularity) -> Vec<f64> {
        self.placement().loads(tree, pop)
    }
}

/// How the global layer is selected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SplitSpec {
    /// Grow until the layer holds this fraction of all nodes (the paper's
    /// experimental setting; 1% by default).
    Proportion(f64),
    /// Run Alg. 1 against explicit `L0`/`U0` bounds.
    Bounds(SplitBounds),
}

/// Configuration of [`D2TreeScheme`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct D2TreeConfig {
    /// Global-layer selection rule.
    pub split: SplitSpec,
    /// Sampled allocation: strategy and per-MDS sample size. `None` uses
    /// full-information mirror division.
    pub sampling: Option<(SampleStrategy, usize)>,
    /// Dynamic-adjustment thresholds.
    pub policy: AdjustPolicy,
    /// Seed for routing/sampling randomness.
    pub seed: u64,
    /// Update-cost model when no measured update popularity is supplied:
    /// `u_j = assumed_update_fraction × p'_j`.
    pub assumed_update_fraction: f64,
    /// Cap on the number of global-layer replicas (Sec. VII's proposed
    /// extension: "setting a threshold to control the number of
    /// replications of global layer"). `None` replicates to every MDS,
    /// the paper's default. With a cap `R < M` the layer lives on the `R`
    /// servers that received the least local-layer load, trading some
    /// load spreading for an `M/R`-fold cut in replicated-update cost.
    pub replication_limit: Option<usize>,
    /// Client local-index staleness per MDS: a local-layer access misses
    /// the client's cached index — and pays one extra forwarding hop
    /// through a random MDS — with probability
    /// `min(index_miss_per_mds × M, 0.75)`.
    ///
    /// Rationale: pending-pool migrations scale with the cluster size, so
    /// the fraction of stale client index entries does too. This is the
    /// mechanism behind the paper's LMBE observation that "many queries in
    /// the local layer need more jumps among MDS's to perform path
    /// traversal as the cluster is scaled" (and Eq. 7 accordingly accounts
    /// one jump for every local-layer access).
    pub index_miss_per_mds: f64,
}

impl D2TreeConfig {
    /// The paper's default: a 1% global layer, full-information
    /// allocation.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::by_proportion(0.01)
    }

    /// Selects the global layer by node proportion.
    #[must_use]
    pub fn by_proportion(proportion: f64) -> Self {
        D2TreeConfig {
            split: SplitSpec::Proportion(proportion),
            sampling: None,
            policy: AdjustPolicy::default(),
            seed: 0,
            assumed_update_fraction: 0.05,
            replication_limit: None,
            index_miss_per_mds: 0.02,
        }
    }

    /// Caps the number of global-layer replicas.
    ///
    /// # Panics
    ///
    /// Panics if `limit == 0`.
    #[must_use]
    pub fn with_replication_limit(mut self, limit: usize) -> Self {
        assert!(limit > 0, "need at least one replica");
        self.replication_limit = Some(limit);
        self
    }

    /// Selects the global layer by explicit Alg. 1 bounds.
    #[must_use]
    pub fn by_bounds(bounds: SplitBounds) -> Self {
        D2TreeConfig {
            split: SplitSpec::Bounds(bounds),
            ..Self::by_proportion(0.01)
        }
    }

    /// Enables sampled allocation.
    #[must_use]
    pub fn with_sampling(mut self, strategy: SampleStrategy, sample_size: usize) -> Self {
        self.sampling = Some((strategy, sample_size));
        self
    }

    /// Sets the randomness seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The D2-Tree partitioning scheme (Sec. IV).
///
/// # Example
///
/// ```
/// use d2tree_core::{D2TreeConfig, D2TreeScheme, Partitioner};
/// use d2tree_metrics::ClusterSpec;
/// use d2tree_workload::{TraceProfile, WorkloadBuilder};
///
/// let w = WorkloadBuilder::new(TraceProfile::lmbe().with_nodes(1_000).with_operations(10_000))
///     .seed(0)
///     .build();
/// let pop = w.popularity();
/// let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default());
/// scheme.build(&w.tree, &pop, &ClusterSpec::homogeneous(8, 100.0));
///
/// // Every access jumps at most once (Eq. 7).
/// for (id, _) in w.tree.nodes() {
///     assert!(scheme.jumps(&w.tree, id) <= 1);
/// }
/// ```
#[derive(Debug)]
pub struct D2TreeScheme {
    config: D2TreeConfig,
    update_pop: Option<Popularity>,
    state: Option<State>,
    rng: StdRng,
}

#[derive(Debug)]
struct State {
    layer: GlobalLayer,
    subtrees: Vec<Subtree>,
    owners: Vec<MdsId>,
    placement: Placement,
    index: LocalIndex,
    adjuster: DynamicAdjuster,
}

impl D2TreeScheme {
    /// Creates an unbuilt scheme.
    #[must_use]
    pub fn new(config: D2TreeConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        D2TreeScheme {
            config,
            update_pop: None,
            state: None,
            rng,
        }
    }

    /// Supplies measured per-node *update* popularity, used as the Alg. 1
    /// update-cost input `u_j` instead of the configured approximation.
    pub fn set_update_popularity(&mut self, update_pop: Popularity) {
        self.update_pop = Some(update_pop);
    }

    /// Fallible build: Alg. 1 with explicit bounds can fail (Eq. 6
    /// infeasible), proportion-driven splits cannot.
    ///
    /// The local index is labelled against *this* `tree` value (see
    /// [`local_index`](Self::local_index)): serve from the tree that was
    /// built over — move it into its `Arc`, do not clone it.
    ///
    /// # Errors
    ///
    /// Propagates [`SplitError::Infeasible`] from [`tree_split`].
    pub fn try_build(
        &mut self,
        tree: &NamespaceTree,
        pop: &Popularity,
        cluster: &ClusterSpec,
    ) -> Result<(), SplitError> {
        let fraction = self.config.assumed_update_fraction;
        let update_pop = self.update_pop.as_ref();
        let update_of = |id: NodeId| match update_pop {
            Some(u) => u.individual(id),
            None => fraction * pop.individual(id),
        };
        let layer = match self.config.split {
            SplitSpec::Proportion(p) => split_to_proportion(tree, pop, update_of, p).0,
            SplitSpec::Bounds(b) => tree_split(tree, pop, update_of, b)?,
        };
        let subtrees = collect_subtrees(tree, &layer, pop);
        let owners = match self.config.sampling {
            None => allocate_full(&subtrees, cluster),
            Some((strategy, k)) => {
                allocate_sampled(&subtrees, cluster, tree, &layer, strategy, k, &mut self.rng)
            }
        };

        let mut placement = Placement::new(tree, cluster.len());
        let mut slots = placement.writer(tree);
        for &id in layer.members() {
            slots.set(id, Assignment::Replicated);
        }
        if let Some(limit) = self.config.replication_limit {
            if limit < cluster.len() {
                // Host the layer on the servers with the least local-layer
                // load, which evens total load while cutting the
                // replicated-update cost to `limit` applies.
                let mut ll_loads = vec![0.0f64; cluster.len()];
                for (s, &o) in subtrees.iter().zip(&owners) {
                    ll_loads[o.index()] += s.popularity;
                }
                let mut order: Vec<usize> = (0..cluster.len()).collect();
                order.sort_by(|&a, &b| ll_loads[a].total_cmp(&ll_loads[b]).then(a.cmp(&b)));
                let subset: Vec<MdsId> = order
                    .into_iter()
                    .take(limit)
                    .map(|k| MdsId(k as u16))
                    .collect();
                placement.set_replicas(ReplicaSet::Subset(subset));
            }
        }
        let mut index = LocalIndex::new();
        index.replace_all(subtrees.iter().zip(&owners).map(|(s, &o)| (s.root, o)));
        // Labelled here, before anyone clones it: a client router and
        // every daemon of a cluster then read this one array.
        index.relabel(tree);
        placement.assign_subtrees(
            tree,
            subtrees.iter().zip(&owners).map(|(s, &o)| (s.root, o)),
        );

        self.state = Some(State {
            layer,
            subtrees,
            owners,
            placement,
            index,
            adjuster: DynamicAdjuster::new(self.config.policy),
        });
        Ok(())
    }

    fn state(&self) -> &State {
        self.state.as_ref().expect("D2TreeScheme used before build")
    }

    /// The current global layer.
    #[must_use]
    pub fn global_layer(&self) -> &GlobalLayer {
        &self.state().layer
    }

    /// The local-layer subtrees with their current owners.
    pub fn subtrees(&self) -> impl Iterator<Item = (&Subtree, MdsId)> + '_ {
        let s = self.state();
        s.subtrees.iter().zip(s.owners.iter().copied())
    }

    /// The local index clients cache, labelled for the tree `build` was
    /// given. Clones of it share that label array and answer
    /// [`locate`](LocalIndex::locate) with two loads against that same
    /// tree; against a `tree.clone()` (a new identity) or after the tree
    /// is mutated they stay correct but walk the parent chain on every
    /// call, until [`LocalIndex::relabel`] is run on them.
    #[must_use]
    pub fn local_index(&self) -> &LocalIndex {
        &self.state().index
    }

    /// Admits new servers into a running scheme (the Monitor's "new MDS
    /// added" flow): the placement grows, the new servers start empty and
    /// the next [`rebalance`](Partitioner::rebalance) rounds fill them
    /// from the pending pool.
    ///
    /// # Panics
    ///
    /// Panics if called before build, or if `new_cluster` is smaller than
    /// the cluster the scheme was built for.
    pub fn expand_cluster(
        &mut self,
        tree: &NamespaceTree,
        pop: &Popularity,
        new_cluster: &ClusterSpec,
    ) -> Vec<Migration> {
        {
            let state = self.state.as_mut().expect("D2TreeScheme used before build");
            state.placement.grow_cluster(new_cluster.len());
        }
        self.rebalance(tree, pop, new_cluster)
    }

    /// Fraction of trace operations whose target lies in the global layer
    /// — the statistic the paper quotes per trace (83.06% for DTR, …).
    #[must_use]
    pub fn global_hit_fraction<'a, I>(&self, targets: I) -> f64
    where
        I: IntoIterator<Item = &'a NodeId>,
    {
        let layer = &self.state().layer;
        let mut hits = 0usize;
        let mut total = 0usize;
        for id in targets {
            total += 1;
            if layer.contains(*id) {
                hits += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

impl Partitioner for D2TreeScheme {
    fn name(&self) -> &'static str {
        "D2-Tree"
    }

    /// # Panics
    ///
    /// Panics if Alg. 1 bounds are infeasible; use
    /// [`D2TreeScheme::try_build`] to handle that case.
    fn build(&mut self, tree: &NamespaceTree, pop: &Popularity, cluster: &ClusterSpec) {
        self.try_build(tree, pop, cluster)
            .expect("split bounds are infeasible");
    }

    fn placement(&self) -> &Placement {
        &self.state().placement
    }

    /// Eq. 7's convention: global-layer accesses never jump; local-layer
    /// accesses jump exactly once (the query first lands on an arbitrary
    /// MDS, then hops to the subtree owner).
    fn jumps(&self, _tree: &NamespaceTree, node: NodeId) -> u32 {
        u32::from(!self.state().layer.contains(node))
    }

    fn router<'a>(&'a self, tree: &'a NamespaceTree) -> Router<'a> {
        let state = self.state();
        let m = state.placement.cluster_size();
        Router {
            tree,
            placement: &state.placement,
            rule: Rule::D2Tree {
                state,
                index_miss: (self.config.index_miss_per_mds * m as f64).min(0.75),
            },
            scratch: [MdsId(0); 2],
        }
    }

    fn rebalance(
        &mut self,
        tree: &NamespaceTree,
        pop: &Popularity,
        cluster: &ClusterSpec,
    ) -> Vec<Migration> {
        let state = self.state.as_mut().expect("D2TreeScheme used before build");
        // Refresh subtree popularity from the latest counters.
        for s in &mut state.subtrees {
            s.popularity = pop.total(s.root);
        }
        let owned: Vec<(Subtree, MdsId)> = state
            .subtrees
            .iter()
            .copied()
            .zip(state.owners.iter().copied())
            .collect();
        let migrations = state.adjuster.rebalance(&owned, cluster);
        for m in &migrations {
            if let Some(slot) = state.subtrees.iter().position(|s| s.root == m.node) {
                state.owners[slot] = m.to;
                state.index.insert(m.node, m.to);
                state.placement.assign_subtree(tree, m.node, m.to);
            }
        }
        migrations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2tree_metrics::balance;
    use d2tree_workload::{TraceProfile, WorkloadBuilder};

    fn built(nodes: usize, m: usize) -> (d2tree_workload::Workload, Popularity, D2TreeScheme) {
        let w = WorkloadBuilder::new(
            TraceProfile::dtr()
                .with_nodes(nodes)
                .with_operations(nodes * 20),
        )
        .seed(7)
        .build();
        let pop = w.popularity();
        let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default().with_seed(1));
        scheme.build(&w.tree, &pop, &ClusterSpec::homogeneous(m, 1_000.0));
        (w, pop, scheme)
    }

    #[test]
    fn placement_is_complete_and_layered() {
        let (w, _pop, scheme) = built(2_000, 4);
        let placement = scheme.placement();
        assert!(placement.is_complete(&w.tree));
        // GL proportion target: 1% of 2000 = 20 nodes.
        assert_eq!(
            placement.replicated_count(&w.tree),
            scheme.global_layer().len()
        );
        assert_eq!(scheme.global_layer().len(), 20);
    }

    #[test]
    fn jumps_follow_eq7() {
        let (w, _pop, scheme) = built(1_000, 3);
        for (id, _) in w.tree.nodes() {
            let expect = u32::from(!scheme.global_layer().contains(id));
            assert_eq!(scheme.jumps(&w.tree, id), expect);
        }
    }

    #[test]
    fn routes_reach_owner_in_at_most_two_visits() {
        let (w, _pop, scheme) = built(1_000, 4);
        let mut rng = StdRng::seed_from_u64(9);
        let mut router = scheme.router(&w.tree);
        let mut extra_hops = 0usize;
        let mut total = 0usize;
        for (id, _) in w.tree.nodes().take(400) {
            let plan = router.route(id, &mut rng);
            total += 1;
            assert!(plan.hops() <= 1, "Eq. 7: at most one jump");
            if plan.target_replicated {
                assert_eq!(plan.visits.len(), 1, "global-layer hits are direct");
            } else {
                let owner = scheme.placement().assignment(id).owner().unwrap();
                assert_eq!(plan.terminal(), owner, "local-layer ends at the owner");
                extra_hops += plan.hops();
            }
        }
        // Staleness misses are rare at M=4 (miss probability 0.08).
        assert!(
            extra_hops < total / 4,
            "too many stale-index hops: {extra_hops}/{total}"
        );
    }

    #[test]
    fn chain_router_traverses_shallow_and_removed_targets_alone() {
        use d2tree_namespace::NodeKind::{Directory, File};
        // /a/b/c/f on servers 1,1,2,1 under a root on 0; /x/y on 3,2 is
        // removed after placement; /r is replicated.
        let mut tree = NamespaceTree::new();
        let root = tree.root();
        let a = tree.create(root, "a", Directory).unwrap();
        let b = tree.create(a, "b", Directory).unwrap();
        let c = tree.create(b, "c", Directory).unwrap();
        let f = tree.create(c, "f", File).unwrap();
        let x = tree.create(root, "x", Directory).unwrap();
        let y = tree.create(x, "y", File).unwrap();
        let r = tree.create(root, "r", Directory).unwrap();
        let mut placement = Placement::new(&tree, 4);
        for (id, k) in [(root, 0), (a, 1), (b, 1), (c, 2), (f, 1), (x, 3), (y, 2)] {
            placement.set(id, Assignment::Single(MdsId(k)));
        }
        placement.set(r, Assignment::Replicated);
        assert_eq!(tree.remove_subtree(x).unwrap(), 2);

        let full: [(NodeId, &[u16]); 7] = [
            (root, &[0]),
            (a, &[0, 1]),
            (b, &[0, 1]),
            (c, &[0, 1, 2]),
            (f, &[0, 1, 2, 1]),
            // A removed node has no chain left: it is traversed alone.
            (x, &[3]),
            (y, &[2]),
        ];
        let cached: [(NodeId, &[u16]); 7] = [
            // Above the client-cached depth the target is still traversed.
            (root, &[0]),
            (a, &[1]),
            (b, &[1]),
            (c, &[1, 2]),
            (f, &[1, 2, 1]),
            (x, &[3]),
            (y, &[2]),
        ];
        for (start_depth, expected) in [(0, full), (CLIENT_CACHED_DEPTH, cached)] {
            let mut router = Router::chain(&tree, &placement, start_depth);
            let mut rng = StdRng::seed_from_u64(3);
            for round in ["miss", "hit"] {
                for (node, visits) in expected {
                    let plan = router.route(node, &mut rng);
                    let got: Vec<u16> = plan.visits.iter().map(|m| m.0).collect();
                    assert_eq!(got, visits, "depth {start_depth}, {round}, node {node}");
                    assert!(!plan.target_replicated);
                }
            }
            // None of those drew from the rng. /r is pinned by the root's
            // owner under a full walk; below the cached levels nothing pins
            // it, and it draws on every request, remembered or not.
            let mut fresh = StdRng::seed_from_u64(3);
            for _ in 0..2 {
                let plan = router.route(r, &mut rng);
                assert!(plan.target_replicated);
                let pick = match start_depth {
                    0 => MdsId(0),
                    _ => MdsId(fresh.gen_range(0..4usize) as u16),
                };
                assert_eq!(plan.visits, [pick], "depth {start_depth}");
            }
            assert_eq!(rng.next_u64(), fresh.next_u64(), "depth {start_depth}");
        }
    }

    #[test]
    fn dtr_queries_mostly_hit_global_layer() {
        let (w, _pop, scheme) = built(4_000, 4);
        let targets: Vec<_> = w.trace.iter().map(|o| o.target).collect();
        let hit = scheme.global_hit_fraction(targets.iter());
        // The paper measures 83.06% for DTR with a 1% layer at production
        // scale; the presets are calibrated to that at 50k nodes (see the
        // `calibrate` bench binary). The scale-free invariant asserted
        // here is concentration: the 1% global layer must capture far more
        // than 1% of the queries.
        assert!(hit > 0.1, "DTR global-layer hit fraction too low: {hit}");
    }

    #[test]
    fn rebalance_improves_degraded_balance() {
        let (w, mut pop, mut scheme) = built(3_000, 4);
        let cluster = ClusterSpec::homogeneous(4, 1_000.0);
        // Drift: make one cold subtree suddenly hot.
        let victim = {
            let mut roots: Vec<_> = scheme.subtrees().map(|(s, _)| s.root).collect();
            roots.sort();
            *roots.last().unwrap()
        };
        pop.record(victim, 200_000.0);
        pop.rollup(&w.tree);

        let before = balance(&scheme.loads(&w.tree, &pop), &cluster);
        let migrations = scheme.rebalance(&w.tree, &pop, &cluster);
        let after = balance(&scheme.loads(&w.tree, &pop), &cluster);
        assert!(!migrations.is_empty(), "drift should trigger migrations");
        assert!(
            after > before,
            "balance should improve: {before} -> {after}"
        );
    }

    #[test]
    fn bounds_build_propagates_infeasibility() {
        let w = WorkloadBuilder::new(TraceProfile::ra().with_nodes(500).with_operations(5_000))
            .seed(2)
            .build();
        let pop = w.popularity();
        let mut scheme = D2TreeScheme::new(D2TreeConfig::by_bounds(SplitBounds {
            min_locality: 1.0, // absurdly strict
            max_update: 1e-12, // no budget
        }));
        let err = scheme.try_build(&w.tree, &pop, &ClusterSpec::homogeneous(2, 10.0));
        assert!(err.is_err());
    }

    #[test]
    fn sampled_build_completes() {
        let w = WorkloadBuilder::new(
            TraceProfile::lmbe()
                .with_nodes(2_000)
                .with_operations(20_000),
        )
        .seed(3)
        .build();
        let pop = w.popularity();
        let mut scheme = D2TreeScheme::new(
            D2TreeConfig::paper_default()
                .with_sampling(SampleStrategy::Uniform, 500)
                .with_seed(4),
        );
        scheme.build(&w.tree, &pop, &ClusterSpec::homogeneous(5, 100.0));
        assert!(scheme.placement().is_complete(&w.tree));
    }

    #[test]
    fn replication_limit_confines_the_layer() {
        let w = WorkloadBuilder::new(
            TraceProfile::dtr()
                .with_nodes(2_000)
                .with_operations(40_000),
        )
        .seed(8)
        .build();
        let pop = w.popularity();
        let cluster = ClusterSpec::homogeneous(6, 1.0);
        let mut scheme = D2TreeScheme::new(
            D2TreeConfig::paper_default()
                .with_replication_limit(2)
                .with_seed(8),
        );
        scheme.build(&w.tree, &pop, &cluster);
        let replicas = scheme.placement().replicas().clone();
        assert_eq!(replicas.count(6), 2);
        // Global-layer routes only land on replica servers.
        let mut rng = StdRng::seed_from_u64(5);
        let mut router = scheme.router(&w.tree);
        for &id in scheme.global_layer().members() {
            let plan = router.route(id, &mut rng);
            assert!(
                replicas.contains(plan.terminal()),
                "routed off the replica set"
            );
        }
        // Replicated load is concentrated on the two replicas but the
        // overall placement stays complete.
        assert!(scheme.placement().is_complete(&w.tree));
        let loads = scheme.loads(&w.tree, &pop);
        let total: f64 = loads.iter().sum();
        assert!((total - pop.sum_individual()).abs() < 1e-6 * total);
    }

    #[test]
    fn expand_cluster_fills_new_servers() {
        let w = WorkloadBuilder::new(
            TraceProfile::lmbe()
                .with_nodes(3_000)
                .with_operations(60_000),
        )
        .seed(9)
        .build();
        let pop = w.popularity();
        let small = ClusterSpec::homogeneous(3, 1.0);
        let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default().with_seed(9));
        scheme.build(&w.tree, &pop, &small);

        let big = ClusterSpec::homogeneous(6, 1.0);
        let migrations = scheme.expand_cluster(&w.tree, &pop, &big);
        assert!(!migrations.is_empty(), "new servers should claim subtrees");
        assert!(
            migrations.iter().any(|m| m.to.index() >= 3),
            "migrations reach new servers"
        );
        assert!(scheme.placement().is_complete(&w.tree));
        assert_eq!(scheme.placement().cluster_size(), 6);
        // A couple more rounds should keep things stable.
        for _ in 0..3 {
            let _ = scheme.rebalance(&w.tree, &pop, &big);
        }
        let loads = scheme.loads(&w.tree, &pop);
        assert!(
            loads[3..].iter().any(|&l| l > 0.0),
            "new servers carry load"
        );
    }

    #[test]
    fn local_index_matches_owners() {
        let (w, _pop, scheme) = built(1_500, 3);
        for (s, owner) in scheme.subtrees() {
            assert_eq!(scheme.local_index().owner_of(s.root), Some(owner));
            assert_eq!(scheme.placement().assignment(s.root).owner(), Some(owner));
        }
        // Index lookup from a deep node inside a subtree resolves to the
        // same owner.
        let first = scheme.subtrees().next().map(|(s, owner)| (s.root, owner));
        if let Some((root, owner)) = first {
            for id in w.tree.descendants(root).take(10) {
                assert_eq!(
                    scheme.local_index().locate(&w.tree, id),
                    Some((root, owner))
                );
            }
        }
    }
}
