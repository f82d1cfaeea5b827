//! Tree-Splitting (Alg. 1): greedy global-layer selection.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;

use d2tree_namespace::{NamespaceTree, NodeId, Popularity};

/// The constraints of Alg. 1: a minimum system locality `L0` and a maximum
/// global-layer update cost `U0` (Eq. 6).
///
/// Locality is the Def. 3 value `1 / Σ_{LL} p_j` under the D2-Tree
/// convention of Eq. 7, so larger `min_locality` forces more nodes into the
/// global layer, while smaller `max_update` caps how many can go in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitBounds {
    /// `L0`: the locality value the split must reach (`locality ≥ L0`).
    pub min_locality: f64,
    /// `U0`: the update-cost budget the global layer must stay under.
    pub max_update: f64,
}

/// The bounds implied by a proportion-driven split: the locality actually
/// achieved and the update cost actually spent (the two curves of Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImpliedBounds {
    /// Achieved locality value `1 / Σ_{LL} p_j`.
    pub locality: f64,
    /// Accumulated global-layer update cost.
    pub update_cost: f64,
    /// Number of global-layer nodes.
    pub global_nodes: usize,
}

impl SplitBounds {
    /// Derives the `(L0, U0)` pair that makes Alg. 1 produce a layer of
    /// the given node proportion — the paper's calibration step ("we chose
    /// proper `U0` and `L0` to make global layer account for 1% nodes").
    ///
    /// The returned bounds are feasible by construction: running
    /// [`tree_split`] with them succeeds, meets `L0`, and admits at least
    /// the nodes of the proportion split (exactly those when every node
    /// has positive update cost; zero-cost nodes may ride along for
    /// free).
    ///
    /// # Panics
    ///
    /// Panics if `proportion` is outside `(0, 1]`.
    pub fn for_proportion<F>(
        tree: &NamespaceTree,
        pop: &Popularity,
        update_of: F,
        proportion: f64,
    ) -> SplitBounds
    where
        F: FnMut(NodeId) -> f64,
    {
        let (_, implied) = split_to_proportion(tree, pop, update_of, proportion);
        SplitBounds {
            min_locality: implied.locality,
            // The budget must strictly exceed the spend (Alg. 1 refuses an
            // admission that *reaches* the budget).
            max_update: implied.update_cost.max(f64::MIN_POSITIVE) * (1.0 + 1e-9)
                + f64::MIN_POSITIVE,
        }
    }
}

/// Failure of Alg. 1.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum SplitError {
    /// The update budget `U0` was exhausted before the locality bound `L0`
    /// could be met — Alg. 1's "return {}" case.
    Infeasible {
        /// Locality value reached when the budget ran out.
        achieved_locality: f64,
    },
}

impl fmt::Display for SplitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SplitError::Infeasible { achieved_locality } => write!(
                f,
                "update budget exhausted before locality bound was met (reached {achieved_locality:.3e})"
            ),
        }
    }
}

impl Error for SplitError {}

/// The replicated upper half of the namespace: membership set plus the
/// greedy inclusion order.
///
/// Invariant: the global layer is *closed under parents* — if a node is in
/// it, so are all its ancestors. Alg. 1 guarantees this because it only
/// ever admits children of members.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalLayer {
    member: Vec<bool>,
    order: Vec<NodeId>,
}

impl GlobalLayer {
    fn with_root(tree: &NamespaceTree) -> Self {
        let mut member = vec![false; tree.arena_size()];
        member[tree.root().index()] = true;
        GlobalLayer {
            member,
            order: vec![tree.root()],
        }
    }

    /// Whether `id` is in the global layer.
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        self.member.get(id.index()).copied().unwrap_or(false)
    }

    /// Number of global-layer nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// A global layer always contains at least the root.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Members in greedy inclusion order (root first).
    #[must_use]
    pub fn members(&self) -> &[NodeId] {
        &self.order
    }

    /// The *inter nodes*: global-layer nodes with at least one child in the
    /// local layer (the yellow nodes of Fig. 2).
    #[must_use]
    pub fn inter_nodes(&self, tree: &NamespaceTree) -> Vec<NodeId> {
        self.order
            .iter()
            .copied()
            .filter(|&id| {
                tree.node(id)
                    .map(|n| n.children().any(|(_, c)| !self.contains(c)))
                    .unwrap_or(false)
            })
            .collect()
    }

    /// Roots of the local-layer subtrees `Δ_1..Δ_H`: children of
    /// global-layer nodes that are themselves outside the layer.
    #[must_use]
    pub fn subtree_roots(&self, tree: &NamespaceTree) -> Vec<NodeId> {
        let mut roots = Vec::new();
        for &id in &self.order {
            if let Some(node) = tree.node(id) {
                for (_, child) in node.children() {
                    if !self.contains(child) {
                        roots.push(child);
                    }
                }
            }
        }
        roots
    }

    /// The Eq. 7 locality denominator `Σ_{n_j ∈ LL} p_j`.
    #[must_use]
    pub fn locality_denominator(&self, tree: &NamespaceTree, pop: &Popularity) -> f64 {
        tree.nodes()
            .filter(|(id, _)| !self.contains(*id))
            .map(|(id, _)| pop.total(id))
            .sum()
    }

    /// The Eq. 7 locality value `1 / Σ_{LL} p_j`; infinite when the whole
    /// tree is in the global layer.
    #[must_use]
    pub fn locality_value(&self, tree: &NamespaceTree, pop: &Popularity) -> f64 {
        let d = self.locality_denominator(tree, pop);
        if d > 0.0 {
            1.0 / d
        } else {
            f64::INFINITY
        }
    }

    /// Checks the closed-under-parents invariant (used by tests).
    #[must_use]
    pub fn is_closed_under_parents(&self, tree: &NamespaceTree) -> bool {
        self.order.iter().all(|&id| {
            tree.node(id)
                .and_then(|n| n.parent())
                .map(|p| self.contains(p))
                .unwrap_or(true) // the root has no parent
        })
    }
}

/// Max-heap entry ordered by total popularity, ties broken by smaller
/// `NodeId` for determinism.
#[derive(Debug, PartialEq)]
struct Candidate {
    p: f64,
    id: NodeId,
}

impl Eq for Candidate {}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.p
            .total_cmp(&other.p)
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Greedy split driven by a stop condition on `(gl, next_candidate)`.
fn greedy_split<F, S>(
    tree: &NamespaceTree,
    pop: &Popularity,
    mut update_of: F,
    mut stop: S,
) -> (GlobalLayer, f64, f64)
where
    F: FnMut(NodeId) -> f64,
    S: FnMut(&GlobalLayer, f64 /* u_after */, f64 /* l_after */) -> bool,
{
    let mut gl = GlobalLayer::with_root(tree);
    let mut heap = BinaryHeap::new();
    let root = tree.root();
    if let Some(node) = tree.node(root) {
        for (_, c) in node.children() {
            heap.push(Candidate {
                p: pop.total(c),
                id: c,
            });
        }
    }
    // Eq. 7 denominator with GL = {root}: every node except the root.
    let mut l_tmp: f64 = tree
        .nodes()
        .filter(|(id, _)| *id != root)
        .map(|(id, _)| pop.total(id))
        .sum();
    let mut u_tmp = 0.0;

    while let Some(Candidate { p, id }) = heap.pop() {
        let u_after = u_tmp + update_of(id);
        let l_after = l_tmp - p;
        if stop(&gl, u_after, l_after) {
            break;
        }
        u_tmp = u_after;
        l_tmp = l_after;
        gl.member[id.index()] = true;
        gl.order.push(id);
        if let Some(node) = tree.node(id) {
            for (_, c) in node.children() {
                heap.push(Candidate {
                    p: pop.total(c),
                    id: c,
                });
            }
        }
    }
    (gl, u_tmp, l_tmp)
}

/// Alg. 1 — Tree-Splitting.
///
/// From the root downwards, repeatedly admit the frontier node with the
/// largest total popularity into the global layer, accumulating its update
/// cost, until the update budget `U0` would be exceeded. Then verify the
/// locality bound `L0` is met.
///
/// `update_of` supplies the per-node update cost `u_j` (commonly the
/// node's update-operation rate; the replication factor can be folded in
/// by the caller).
///
/// Deviation from the paper's listing: the listing initialises the
/// locality accumulator to `Σp` including the root even though the root is
/// already in the global layer; we start from `Σp − p_root` so the
/// accumulator equals Eq. 7's denominator at every step.
///
/// # Errors
///
/// [`SplitError::Infeasible`] when `U0` is exhausted before the locality
/// value reaches `L0` (the listing's "return {}" branch).
///
/// # Panics
///
/// In debug builds, panics if `pop` is not rolled up.
pub fn tree_split<F>(
    tree: &NamespaceTree,
    pop: &Popularity,
    update_of: F,
    bounds: SplitBounds,
) -> Result<GlobalLayer, SplitError>
where
    F: FnMut(NodeId) -> f64,
{
    // Alg. 1 admits as long as the update budget lasts (more global layer
    // only improves locality) and checks the locality bound at the end.
    let target_denominator = if bounds.min_locality > 0.0 {
        1.0 / bounds.min_locality
    } else {
        f64::INFINITY
    };
    let (gl, _u, l) = greedy_split(tree, pop, update_of, |_, u_after, _| {
        u_after >= bounds.max_update
    });
    let achieved = if l > 0.0 { 1.0 / l } else { f64::INFINITY };
    if l > target_denominator {
        Err(SplitError::Infeasible {
            achieved_locality: achieved,
        })
    } else {
        Ok(gl)
    }
}

/// Proportion-driven split: grow the global layer until it holds
/// `proportion` of all live nodes, and report the implied `L0` / `U0`.
///
/// This is the experimental knob of Sec. VI-C ("we chose proper `U0` and
/// `L0` to make global layer account for 1% nodes of the whole namespace
/// tree") and the generator of Fig. 8's two curves.
///
/// # Panics
///
/// Panics if `proportion` is not within `(0, 1]`.
pub fn split_to_proportion<F>(
    tree: &NamespaceTree,
    pop: &Popularity,
    update_of: F,
    proportion: f64,
) -> (GlobalLayer, ImpliedBounds)
where
    F: FnMut(NodeId) -> f64,
{
    assert!(
        proportion > 0.0 && proportion <= 1.0,
        "global-layer proportion must be in (0, 1], got {proportion}"
    );
    let target = ((tree.node_count() as f64 * proportion).ceil() as usize).max(1);
    let (gl, u, l) = greedy_split(tree, pop, update_of, |gl, _, _| gl.len() >= target);
    let locality = if l > 0.0 { 1.0 / l } else { f64::INFINITY };
    let implied = ImpliedBounds {
        locality,
        update_cost: u,
        global_nodes: gl.len(),
    };
    (gl, implied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2tree_namespace::NodeKind;

    /// root -> {hot (100), cold (1)}; hot -> {h1 (60), h2 (30)}.
    fn skewed_tree() -> (NamespaceTree, Popularity, [NodeId; 5]) {
        let mut t = NamespaceTree::new();
        let hot = t.create(t.root(), "hot", NodeKind::Directory).unwrap();
        let cold = t.create(t.root(), "cold", NodeKind::Directory).unwrap();
        let h1 = t.create(hot, "h1", NodeKind::File).unwrap();
        let h2 = t.create(hot, "h2", NodeKind::File).unwrap();
        let mut pop = Popularity::new(&t);
        pop.record(hot, 10.0);
        pop.record(cold, 1.0);
        pop.record(h1, 60.0);
        pop.record(h2, 30.0);
        pop.rollup(&t);
        let root = t.root();
        (t, pop, [root, hot, cold, h1, h2])
    }

    #[test]
    fn greedy_admits_by_total_popularity() {
        let (t, pop, [root, hot, _cold, h1, _h2]) = skewed_tree();
        // Budget for exactly two admissions at cost 1 each.
        let (gl, implied) = split_to_proportion(&t, &pop, |_| 1.0, 3.0 / 5.0);
        assert_eq!(implied.global_nodes, 3);
        assert!(gl.contains(root));
        assert!(gl.contains(hot), "hot subtree root (p=100) admitted first");
        assert!(gl.contains(h1), "h1 (p=60) admitted second");
        assert!(gl.is_closed_under_parents(&t));
    }

    #[test]
    fn split_respects_update_budget() {
        let (t, pop, _) = skewed_tree();
        // Each admission costs 1; budget 2 admits exactly one node
        // (the second would reach the budget and is refused).
        let bounds = SplitBounds {
            min_locality: 0.0,
            max_update: 2.0,
        };
        let gl = tree_split(&t, &pop, |_| 1.0, bounds).unwrap();
        assert_eq!(gl.len(), 2); // root + 1
    }

    #[test]
    fn split_fails_when_bounds_conflict() {
        let (t, pop, _) = skewed_tree();
        let err = tree_split(
            &t,
            &pop,
            |_| 1_000.0, // any admission blows the budget
            SplitBounds {
                min_locality: 1.0,
                max_update: 1.0,
            },
        )
        .unwrap_err();
        let SplitError::Infeasible { achieved_locality } = err;
        assert!(achieved_locality < 1.0);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn locality_denominator_matches_eq7() {
        let (t, pop, [_, hot, cold, h1, h2]) = skewed_tree();
        let (gl, implied) = split_to_proportion(&t, &pop, |_| 0.0, 2.0 / 5.0);
        // GL = {root, hot}; LL = {cold, h1, h2} with totals 1 + 60 + 30.
        assert!(gl.contains(hot));
        assert!(!gl.contains(cold));
        let denom = gl.locality_denominator(&t, &pop);
        assert_eq!(denom, pop.total(cold) + pop.total(h1) + pop.total(h2));
        assert!((implied.locality - 1.0 / denom).abs() < 1e-15);
    }

    #[test]
    fn inter_nodes_and_subtree_roots() {
        let (t, pop, [root, hot, cold, h1, h2]) = skewed_tree();
        let (gl, _) = split_to_proportion(&t, &pop, |_| 0.0, 2.0 / 5.0);
        // GL = {root, hot}: root still has LL child `cold`, hot has both
        // children in LL.
        let inter = gl.inter_nodes(&t);
        assert!(inter.contains(&root));
        assert!(inter.contains(&hot));
        let mut roots = gl.subtree_roots(&t);
        roots.sort();
        let mut expect = vec![cold, h1, h2];
        expect.sort();
        assert_eq!(roots, expect);
    }

    #[test]
    fn full_tree_gl_has_infinite_locality() {
        let (t, pop, _) = skewed_tree();
        let (gl, implied) = split_to_proportion(&t, &pop, |_| 0.0, 1.0);
        assert_eq!(gl.len(), t.node_count());
        assert!(implied.locality.is_infinite());
        assert!(gl.subtree_roots(&t).is_empty());
        assert!(gl.inter_nodes(&t).is_empty());
    }

    #[test]
    fn update_cost_grows_with_proportion() {
        let (t, pop, _) = skewed_tree();
        let (_, small) = split_to_proportion(&t, &pop, |_| 1.0, 0.4);
        let (_, large) = split_to_proportion(&t, &pop, |_| 1.0, 1.0);
        assert!(large.update_cost > small.update_cost);
        assert!(large.locality >= small.locality);
    }

    #[test]
    fn derived_bounds_are_feasible() {
        let (t, pop, _) = skewed_tree();
        let update_of = |id: NodeId| pop.individual(id).max(0.1);
        let bounds = SplitBounds::for_proportion(&t, &pop, update_of, 0.4);
        let gl = tree_split(&t, &pop, update_of, bounds).expect("derived bounds feasible");
        let (by_prop, _) = split_to_proportion(&t, &pop, update_of, 0.4);
        assert!(gl.len() >= by_prop.len());
        assert!(gl.locality_value(&t, &pop) >= bounds.min_locality);
        for &id in by_prop.members() {
            assert!(gl.contains(id), "proportion-split member {id} missing");
        }
    }

    #[test]
    #[should_panic(expected = "proportion")]
    fn zero_proportion_panics() {
        let (t, pop, _) = skewed_tree();
        let _ = split_to_proportion(&t, &pop, |_| 0.0, 0.0);
    }
}
