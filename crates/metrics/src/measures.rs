//! The paper's formal metrics: jumps (Def. 1), locality (Def. 3),
//! update cost (Def. 4) and balance degree (Def. 5).

use d2tree_namespace::{NamespaceTree, NodeId, Popularity};

use crate::cluster_spec::ClusterSpec;
use crate::placement::{Assignment, Placement};

/// Counts the jumps a pathname traversal to `node` performs (Def. 1).
///
/// The traversal walks the root-to-node chain. A *jump* happens whenever the
/// next chain node cannot be served by the server currently holding the
/// traversal. Replicated nodes are served by every server, so they never
/// force a jump and never constrain the follow-up server — this generalises
/// the paper's definition to the replicated global layer (a chain that is
/// entirely replicated has zero jumps, matching Eq. 7's `jp_j = 0` for
/// global-layer nodes).
///
/// Note that D2-Tree itself accounts one jump for every local-layer node
/// (Eq. 7's conservative convention that a query first lands on a random
/// MDS); its scheme implementation counts jumps that way rather than through
/// this chain walk. Baselines with single-copy placements get exactly
/// Def. 1 from this function.
///
/// # Panics
///
/// Panics if a chain node is [`Assignment::Unassigned`].
#[must_use]
pub fn path_jumps(tree: &NamespaceTree, placement: &Placement, node: NodeId) -> u32 {
    #[derive(Clone, Copy, PartialEq)]
    enum Holder {
        Any,
        One(usize),
    }
    // Jump counting is direction-symmetric: the number of adjacent
    // single-holder changes along the chain is the same walked up or
    // down, and the upward parent-pointer walk needs no allocation.
    let mut jumps = 0;
    let mut holder = Holder::Any;
    for id in tree.chain_up(node) {
        match placement.assignment(id) {
            Assignment::Unassigned => panic!("jump counting requires a complete placement"),
            Assignment::Replicated => {}
            Assignment::Single(m) => match holder {
                Holder::Any => holder = Holder::One(m.index()),
                Holder::One(k) if k == m.index() => {}
                Holder::One(_) => {
                    jumps += 1;
                    holder = Holder::One(m.index());
                }
            },
        }
    }
    jumps
}

/// The system-locality computation of Def. 3: `locality = 1 / Σ jp_j · p_j`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalityReport {
    /// The weighted jump sum `Σ jp_j · p_j` (the denominator).
    pub weighted_jumps: f64,
    /// `1 / weighted_jumps`; infinite when no access ever jumps.
    pub locality: f64,
}

/// Computes Def. 3 locality over all live nodes, with per-node jumps
/// supplied by `jumps_of` and weights taken from rolled-up total
/// popularity.
///
/// Schemes plug in their own jump rule: baselines use
/// [`path_jumps`], D2-Tree uses its Eq. 7 layer rule.
///
/// # Example
///
/// ```
/// use d2tree_metrics::{locality_from_jumps, Assignment, MdsId, Placement, path_jumps};
/// use d2tree_namespace::{NamespaceTree, NodeKind, Popularity};
///
/// # fn main() -> Result<(), d2tree_namespace::TreeError> {
/// let mut tree = NamespaceTree::new();
/// let a = tree.create(tree.root(), "a", NodeKind::File)?;
/// let mut pop = Popularity::new(&tree);
/// pop.record(a, 4.0);
/// pop.rollup(&tree);
///
/// let mut p = Placement::new(&tree, 2);
/// p.set(tree.root(), Assignment::Single(MdsId(0)));
/// p.set(a, Assignment::Single(MdsId(1)));
/// let report = locality_from_jumps(&tree, &pop, |n| path_jumps(&tree, &p, n));
/// // Accessing `a` jumps once, weighted by its popularity 4; the root's
/// // own traversal never jumps.
/// assert_eq!(report.weighted_jumps, 4.0);
/// assert_eq!(report.locality, 0.25);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn locality_from_jumps<F>(
    tree: &NamespaceTree,
    pop: &Popularity,
    mut jumps_of: F,
) -> LocalityReport
where
    F: FnMut(NodeId) -> u32,
{
    let mut weighted = 0.0;
    for (id, _) in tree.nodes() {
        let j = jumps_of(id);
        if j > 0 {
            weighted += f64::from(j) * pop.total(id);
        }
    }
    let locality = if weighted > 0.0 {
        1.0 / weighted
    } else {
        f64::INFINITY
    };
    LocalityReport {
        weighted_jumps: weighted,
        locality,
    }
}

/// Total update cost over the global layer (Def. 4): `Σ_{n_j ∈ GL} u_j`.
///
/// `cost_of` supplies the per-node update cost `u_j`; the common model is
/// `u_j = update_rate_j × replication_factor`, since every replica of a
/// global-layer node must apply the mutation.
#[must_use]
pub fn update_cost<I, F>(global_layer: I, cost_of: F) -> f64
where
    I: IntoIterator<Item = NodeId>,
    F: FnMut(NodeId) -> f64,
{
    global_layer.into_iter().map(cost_of).sum()
}

/// The load-balance degree of Def. 5:
/// `balance = 1 / ( (1/(M−1)) Σ_k (L_k/C_k − μ)² )`.
///
/// Returns `+∞` for a perfectly balanced cluster and for `M = 1` (a single
/// server is trivially balanced).
///
/// # Panics
///
/// Panics if `loads.len()` differs from the cluster size.
#[must_use]
pub fn balance(loads: &[f64], cluster: &ClusterSpec) -> f64 {
    assert_eq!(loads.len(), cluster.len(), "one load per MDS");
    let m = cluster.len();
    if m == 1 {
        return f64::INFINITY;
    }
    let total: f64 = loads.iter().sum();
    let mu = cluster.ideal_load_factor(total);
    let sum_sq: f64 = loads
        .iter()
        .zip(cluster.capacities())
        .map(|(&l, &c)| {
            let d = l / c - mu;
            d * d
        })
        .sum();
    let variance = sum_sq / (m as f64 - 1.0);
    if variance > 0.0 {
        1.0 / variance
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster_spec::MdsId;
    use d2tree_namespace::NodeKind;

    fn chain_tree(n: usize) -> (NamespaceTree, Vec<NodeId>) {
        let mut t = NamespaceTree::new();
        let mut ids = vec![t.root()];
        for i in 0..n {
            let id = t
                .create(*ids.last().unwrap(), &format!("c{i}"), NodeKind::Directory)
                .unwrap();
            ids.push(id);
        }
        (t, ids)
    }

    #[test]
    fn jumps_count_server_changes_on_chain() {
        let (t, ids) = chain_tree(3);
        let mut p = Placement::new(&t, 3);
        p.set(ids[0], Assignment::Single(MdsId(0)));
        p.set(ids[1], Assignment::Single(MdsId(0)));
        p.set(ids[2], Assignment::Single(MdsId(1)));
        p.set(ids[3], Assignment::Single(MdsId(2)));
        assert_eq!(path_jumps(&t, &p, ids[0]), 0);
        assert_eq!(path_jumps(&t, &p, ids[1]), 0);
        assert_eq!(path_jumps(&t, &p, ids[2]), 1);
        assert_eq!(path_jumps(&t, &p, ids[3]), 2);
    }

    #[test]
    fn replicated_nodes_never_jump() {
        let (t, ids) = chain_tree(3);
        let mut p = Placement::new(&t, 3);
        p.set(ids[0], Assignment::Replicated);
        p.set(ids[1], Assignment::Replicated);
        p.set(ids[2], Assignment::Single(MdsId(1)));
        p.set(ids[3], Assignment::Single(MdsId(1)));
        assert_eq!(path_jumps(&t, &p, ids[1]), 0);
        // Replicated prefix narrows onto mds1 without a jump; the whole
        // subtree is co-located.
        assert_eq!(path_jumps(&t, &p, ids[3]), 0);
    }

    #[test]
    fn replication_between_singles_does_not_mask_a_change() {
        let (t, ids) = chain_tree(2);
        let mut p = Placement::new(&t, 2);
        p.set(ids[0], Assignment::Single(MdsId(0)));
        p.set(ids[1], Assignment::Replicated);
        p.set(ids[2], Assignment::Single(MdsId(1)));
        // mds0 cannot serve ids[2]; the replica of ids[1] exists on mds1
        // but the holder was pinned to mds0 → one jump.
        assert_eq!(path_jumps(&t, &p, ids[2]), 1);
    }

    #[test]
    #[should_panic(expected = "complete placement")]
    fn unassigned_chain_panics() {
        let (t, ids) = chain_tree(1);
        let p = Placement::new(&t, 2);
        let _ = path_jumps(&t, &p, ids[1]);
    }

    #[test]
    fn locality_is_infinite_on_single_server() {
        let (t, ids) = chain_tree(2);
        let mut pop = Popularity::new(&t);
        pop.record(ids[2], 5.0);
        pop.rollup(&t);
        let mut p = Placement::new(&t, 1);
        for &id in &ids {
            p.set(id, Assignment::Single(MdsId(0)));
        }
        let r = locality_from_jumps(&t, &pop, |n| path_jumps(&t, &p, n));
        assert!(r.locality.is_infinite());
        assert_eq!(r.weighted_jumps, 0.0);
    }

    #[test]
    fn update_cost_sums_over_global_layer() {
        let (_, ids) = chain_tree(2);
        let cost = update_cost(ids.iter().copied().take(2), |_| 3.0);
        assert_eq!(cost, 6.0);
    }

    #[test]
    fn balance_orders_configurations() {
        let c = ClusterSpec::homogeneous(4, 100.0);
        let perfect = balance(&[10.0; 4], &c);
        let slight = balance(&[11.0, 10.0, 10.0, 9.0], &c);
        let bad = balance(&[40.0, 0.0, 0.0, 0.0], &c);
        assert!(perfect.is_infinite());
        assert!(slight > bad);
    }

    #[test]
    fn balance_respects_heterogeneous_capacity() {
        // Loads proportional to capacity are perfectly balanced.
        let c = ClusterSpec::new(vec![10.0, 30.0]);
        assert!(balance(&[5.0, 15.0], &c).is_infinite());
        assert!(balance(&[15.0, 5.0], &c).is_finite());
    }

    #[test]
    fn single_server_balance_is_infinite() {
        let c = ClusterSpec::homogeneous(1, 10.0);
        assert!(balance(&[123.0], &c).is_infinite());
    }
}
