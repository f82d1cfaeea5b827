//! Subtree-Allocation: mirror division of local-layer subtrees onto MDSs.

use d2tree_metrics::mirror::mirror_divide;
use d2tree_metrics::{ClusterSpec, MdsId};
use d2tree_namespace::{NamespaceTree, NodeId, Popularity};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::split::GlobalLayer;

/// One local-layer subtree `Δ_i`: its root, the inter node above it, its
/// popularity `s_i` (the total popularity of its root) and its node count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Subtree {
    /// Root of the subtree (a local-layer node).
    pub root: NodeId,
    /// The inter node the subtree hangs off (a global-layer node).
    pub parent: NodeId,
    /// Popularity `s_i` — the rolled-up popularity of `root`.
    pub popularity: f64,
    /// Number of nodes in the subtree.
    pub size: usize,
}

/// Collects the local-layer subtrees `Δ_1..Δ_H` below a global layer.
///
/// # Panics
///
/// In debug builds, panics if `pop` is not rolled up.
#[must_use]
pub fn collect_subtrees(tree: &NamespaceTree, gl: &GlobalLayer, pop: &Popularity) -> Vec<Subtree> {
    let mut subtrees = Vec::new();
    // One stack sizes every subtree: `restart` keeps its allocation.
    let mut walk = tree.descendants(tree.root());
    for &inter in &gl.inter_nodes(tree) {
        let node = tree.node(inter).expect("inter nodes are live");
        for (_, child) in node.children() {
            if !gl.contains(child) {
                subtrees.push(Subtree {
                    root: child,
                    parent: inter,
                    popularity: pop.total(child),
                    size: walk.restart(child).count(),
                });
            }
        }
    }
    subtrees
}

/// Full-information mirror division: every subtree's popularity is known
/// exactly, so the cumulative-popularity axis is matched exactly against
/// the cumulative-capacity axis (Fig. 4).
///
/// Returns one [`MdsId`] per subtree, aligned with the input order.
///
/// # Panics
///
/// Panics if the cluster is empty.
#[must_use]
pub fn allocate_full(subtrees: &[Subtree], cluster: &ClusterSpec) -> Vec<MdsId> {
    let weights: Vec<f64> = subtrees.iter().map(|s| s.popularity).collect();
    mirror_divide(&weights, cluster.capacities())
        .into_iter()
        .map(|b| MdsId(b as u16))
        .collect()
}

/// How the sampled allocator draws its subtree sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SampleStrategy {
    /// Uniform with replacement over the pending pool — the idealised
    /// sampling Lemma 1 analyses. Stands in for the full-information
    /// overlay lookups of the paper's reference \[20\].
    Uniform,
    /// A random walk down the namespace: start at the root, descend
    /// uniformly random children until crossing the cut line. Cheap to run
    /// against the real tree but mildly biased towards shallow subtrees;
    /// the ablation bench quantifies the difference.
    TreeWalk,
}

/// Sampled mirror division: each MDS estimates the popularity CDF from
/// `sample_size` sampled subtrees instead of reading all `H` of them.
///
/// The estimated cumulative mass index of subtree `t` is
/// `F̂(s_t) = (sampled mass strictly below s_t + jitter·mass at s_t) /
/// sampled total mass`; the subtree goes to the MDS whose cumulative
/// capacity interval contains the index (Eq. 10). With
/// `sample_size` per Lemma 1 the per-subtree index error is below `δ`
/// w.h.p., and Thm. 3/4 bound the resulting balance error.
///
/// # Panics
///
/// Panics if the cluster is empty or `sample_size == 0` while subtrees are
/// non-empty.
#[must_use]
pub fn allocate_sampled<R: Rng + ?Sized>(
    subtrees: &[Subtree],
    cluster: &ClusterSpec,
    tree: &NamespaceTree,
    gl: &GlobalLayer,
    strategy: SampleStrategy,
    sample_size: usize,
    rng: &mut R,
) -> Vec<MdsId> {
    assert!(!cluster.is_empty(), "cluster must have at least one MDS");
    if subtrees.is_empty() {
        return Vec::new();
    }
    assert!(sample_size > 0, "sample_size must be positive");

    let sample: Vec<f64> = match strategy {
        SampleStrategy::Uniform => (0..sample_size)
            .map(|_| subtrees[rng.gen_range(0..subtrees.len())].popularity)
            .collect(),
        SampleStrategy::TreeWalk => (0..sample_size)
            .map(|_| tree_walk_sample(tree, gl, subtrees, rng))
            .collect(),
    };
    let sample_total: f64 = sample.iter().sum();

    // Cumulative capacity boundaries.
    let total_cap = cluster.total_capacity();
    let mut cap_bounds: Vec<f64> = Vec::with_capacity(cluster.len());
    let mut acc = 0.0;
    for &c in cluster.capacities() {
        acc += c / total_cap;
        cap_bounds.push(acc);
    }
    *cap_bounds.last_mut().expect("non-empty cluster") = 1.0;

    let mut sorted_sample = sample;
    sorted_sample.sort_by(f64::total_cmp);

    subtrees
        .iter()
        .map(|s| {
            let below = sorted_sample.partition_point(|&w| w < s.popularity);
            let at_or_below = sorted_sample.partition_point(|&w| w <= s.popularity);
            let mass_below: f64 = sorted_sample[..below].iter().sum();
            let mass_at: f64 = sorted_sample[below..at_or_below].iter().sum();
            let jitter: f64 = rng.gen_range(0.0..1.0);
            let index = if sample_total > 0.0 {
                (mass_below + jitter * mass_at) / sample_total
            } else {
                jitter
            };
            let bucket = cap_bounds
                .partition_point(|&b| b < index)
                .min(cluster.len() - 1);
            MdsId(bucket as u16)
        })
        .collect()
}

/// One random-walk draw: descend from the root through uniformly random
/// children until leaving the global layer, returning that subtree's
/// popularity. Falls back to a uniform draw if the walk dead-ends inside
/// the layer (an inter-node-free branch).
fn tree_walk_sample<R: Rng + ?Sized>(
    tree: &NamespaceTree,
    gl: &GlobalLayer,
    subtrees: &[Subtree],
    rng: &mut R,
) -> f64 {
    let mut cur = tree.root();
    for _ in 0..tree.max_depth() + 1 {
        let node = match tree.node(cur) {
            Some(n) => n,
            None => break,
        };
        let kids: Vec<NodeId> = node.children().map(|(_, id)| id).collect();
        if kids.is_empty() {
            break;
        }
        let next = kids[rng.gen_range(0..kids.len())];
        if !gl.contains(next) {
            // Crossed the cut line: `next` is a subtree root.
            if let Some(s) = subtrees.iter().find(|s| s.root == next) {
                return s.popularity;
            }
            break;
        }
        cur = next;
    }
    subtrees[rng.gen_range(0..subtrees.len())].popularity
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::split_to_proportion;
    use d2tree_metrics::mirror::bucket_loads;
    use d2tree_workload::{TraceProfile, WorkloadBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn workload() -> (NamespaceTree, Popularity, GlobalLayer, Vec<Subtree>) {
        let w = WorkloadBuilder::new(
            TraceProfile::dtr()
                .with_nodes(3_000)
                .with_operations(60_000),
        )
        .seed(2)
        .build();
        let pop = w.popularity();
        let (gl, _) = split_to_proportion(&w.tree, &pop, |_| 0.0, 0.01);
        let subtrees = collect_subtrees(&w.tree, &gl, &pop);
        (w.tree, pop, gl, subtrees)
    }

    #[test]
    fn subtrees_partition_the_local_layer() {
        let (tree, _pop, gl, subtrees) = workload();
        let covered: usize = subtrees.iter().map(|s| s.size).sum();
        assert_eq!(covered + gl.len(), tree.node_count());
        for s in &subtrees {
            assert!(gl.contains(s.parent), "parent must be an inter node");
            assert!(!gl.contains(s.root), "root must be in the local layer");
        }
    }

    #[test]
    fn full_allocation_balances_proportionally() {
        let (_tree, _pop, _gl, subtrees) = workload();
        let cluster = ClusterSpec::homogeneous(4, 100.0);
        let owners = allocate_full(&subtrees, &cluster);
        assert_eq!(owners.len(), subtrees.len());
        let weights: Vec<f64> = subtrees.iter().map(|s| s.popularity).collect();
        let buckets: Vec<usize> = owners.iter().map(|m| m.index()).collect();
        let loads = bucket_loads(&weights, &buckets, 4);
        let total: f64 = loads.iter().sum();
        let heaviest_subtree = weights.iter().cloned().fold(0.0_f64, f64::max);
        for l in &loads {
            // Each server's load is within one subtree granule of ideal.
            assert!((l - total / 4.0).abs() <= heaviest_subtree + 1e-9);
        }
    }

    #[test]
    fn sampled_allocation_close_to_full() {
        let (tree, _pop, gl, subtrees) = workload();
        let cluster = ClusterSpec::homogeneous(4, 100.0);
        let mut rng = StdRng::seed_from_u64(3);
        let owners = allocate_sampled(
            &subtrees,
            &cluster,
            &tree,
            &gl,
            SampleStrategy::Uniform,
            2_000,
            &mut rng,
        );
        let weights: Vec<f64> = subtrees.iter().map(|s| s.popularity).collect();
        let buckets: Vec<usize> = owners.iter().map(|m| m.index()).collect();
        let loads = bucket_loads(&weights, &buckets, 4);
        let total: f64 = loads.iter().sum();
        let heaviest = weights.iter().cloned().fold(0.0_f64, f64::max);
        for l in &loads {
            // Subtrees are indivisible, so even a perfect allocator can miss
            // the ideal by one heaviest-subtree granule; the sampling adds a
            // small CDF-estimation error on top.
            let slack = heaviest + 0.1 * total;
            assert!(
                (l - total / 4.0).abs() <= slack,
                "sampled load {l} too far from ideal {} (slack {slack})",
                total / 4.0
            );
        }
    }

    #[test]
    fn tree_walk_strategy_produces_complete_assignment() {
        let (tree, _pop, gl, subtrees) = workload();
        let cluster = ClusterSpec::homogeneous(3, 100.0);
        let mut rng = StdRng::seed_from_u64(4);
        let owners = allocate_sampled(
            &subtrees,
            &cluster,
            &tree,
            &gl,
            SampleStrategy::TreeWalk,
            500,
            &mut rng,
        );
        assert_eq!(owners.len(), subtrees.len());
        assert!(owners.iter().all(|m| m.index() < 3));
    }

    #[test]
    fn heterogeneous_capacities_respected() {
        let (_tree, _pop, _gl, subtrees) = workload();
        let cluster = ClusterSpec::new(vec![100.0, 300.0]);
        let owners = allocate_full(&subtrees, &cluster);
        let weights: Vec<f64> = subtrees.iter().map(|s| s.popularity).collect();
        let buckets: Vec<usize> = owners.iter().map(|m| m.index()).collect();
        let loads = bucket_loads(&weights, &buckets, 2);
        assert!(
            loads[1] > loads[0],
            "the 3x-capacity server takes more load"
        );
    }

    #[test]
    fn empty_subtrees_allocate_to_nothing() {
        let cluster = ClusterSpec::homogeneous(2, 1.0);
        assert!(allocate_full(&[], &cluster).is_empty());
        let tree = NamespaceTree::new();
        let pop = Popularity::new(&tree);
        let (gl, _) = split_to_proportion(&tree, &pop, |_| 0.0, 1.0);
        let mut rng = StdRng::seed_from_u64(0);
        let owners = allocate_sampled(
            &[],
            &cluster,
            &tree,
            &gl,
            SampleStrategy::Uniform,
            10,
            &mut rng,
        );
        assert!(owners.is_empty());
    }
}
