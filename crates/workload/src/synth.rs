//! Namespace-tree synthesis from a [`TraceProfile`].

use d2tree_namespace::{NamespaceTree, NodeId, NodeKind, TreeError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::profile::TraceProfile;

/// Summary of a synthesised namespace, reported next to Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthesisReport {
    /// Node count (including the root).
    pub nodes: usize,
    /// Directory count.
    pub directories: usize,
    /// File count.
    pub files: usize,
    /// Maximum node depth (equals the profile's `max_depth`).
    pub max_depth: usize,
    /// Mean node depth.
    pub mean_depth: f64,
}

/// Synthesises a namespace tree matching `profile`'s shape parameters.
///
/// The tree always contains one "spine" path reaching exactly
/// `profile.max_depth`, so the published Table I maximum depths are met
/// precisely. The remaining nodes attach to existing directories chosen
/// depth-weighted by `depth_gamma^depth`: values above 1 grow deep,
/// DTR-like chains, values below 1 grow wide, LMBE-like crowns.
///
/// Generation is fully determined by `seed`.
///
/// # Panics
///
/// Panics if `profile.nodes` is smaller than `profile.max_depth + 1`
/// (the spine alone needs that many nodes) or `max_depth` is zero.
///
/// # Example
///
/// ```
/// use d2tree_workload::{synthesize_tree, TraceProfile};
///
/// let profile = TraceProfile::lmbe().with_nodes(1_000);
/// let (tree, report) = synthesize_tree(&profile, 7);
/// assert_eq!(report.nodes, 1_000);
/// assert_eq!(tree.max_depth(), 9);
/// ```
#[must_use]
pub fn synthesize_tree(profile: &TraceProfile, seed: u64) -> (NamespaceTree, SynthesisReport) {
    assert!(profile.max_depth >= 1, "max_depth must be at least 1");
    assert!(
        profile.nodes > profile.max_depth,
        "need at least max_depth + 1 nodes for the spine"
    );
    let mut rng = StdRng::seed_from_u64(seed);

    // Directories eligible for children, bucketed by depth: a node picks
    // a depth, then a directory at it.
    let mut dirs_at: Vec<Vec<NodeId>> = vec![Vec::new(); profile.max_depth];
    dirs_at[0].push(NodeId::ROOT);
    let mut next_name = 0usize;

    // An attachment depth is drawn proportional to count_d * gamma^d.
    // `weights` holds the running sums of those terms; a directory added
    // at depth d changes only the sums from d on, which are recomputed in
    // the same order from the same gamma powers, so every float is the
    // one a full recomputation would give.
    let gamma_pow: Vec<f64> = std::iter::successors(Some(1.0), |g| Some(g * profile.depth_gamma))
        .take(profile.max_depth)
        .collect();
    let mut weights = vec![0.0; profile.max_depth];
    let resum = |weights: &mut [f64], dirs_at: &[Vec<NodeId>], from: usize| {
        let mut total = if from == 0 { 0.0 } else { weights[from - 1] };
        for d in from..weights.len() {
            total += dirs_at[d].len() as f64 * gamma_pow[d];
            weights[d] = total;
        }
    };
    let mut name = String::new();
    // Depths are summed and maxed as nodes arrive: the spine's node at
    // depth d for every d in 1..=max_depth, then each node one below
    // the directory it attaches to.
    let mut depth_sum = profile.max_depth * (profile.max_depth + 1) / 2;
    let mut max_depth = profile.max_depth;
    // Every node arrives after its parent, so the tree is built in one
    // pass: appended here, each directory's children placed and sorted
    // by name once at the end.
    let tree = NamespaceTree::build(profile.nodes, |tree| {
        // Spine: directories to depth max_depth - 1, a file at max_depth.
        let mut cur = NodeId::ROOT;
        for (d, level) in dirs_at.iter_mut().enumerate().skip(1) {
            cur = tree.append(cur, &format!("spine{d}"), NodeKind::Directory)?;
            level.push(cur);
        }
        tree.append(cur, "spine_leaf", NodeKind::File)?;

        resum(&mut weights, &dirs_at, 0);
        while tree.node_count() < profile.nodes {
            let total = weights[profile.max_depth - 1];
            let x: f64 = rng.gen_range(0.0..total);
            let depth = weights
                .partition_point(|&w| w <= x)
                .min(profile.max_depth - 1);
            let dirs = &dirs_at[depth];
            let parent = dirs[rng.gen_range(0..dirs.len())];

            let make_dir = rng.gen_bool(profile.dir_ratio.clamp(0.0, 1.0));
            next_name += 1;
            name.clear();
            let (prefix, kind) = if make_dir {
                ('d', NodeKind::Directory)
            } else {
                ('f', NodeKind::File)
            };
            push_numbered(&mut name, prefix, next_name);
            let id = tree.append(parent, &name, kind)?;
            depth_sum += depth + 1;
            max_depth = max_depth.max(depth + 1);
            if make_dir && depth + 1 < profile.max_depth {
                dirs_at[depth + 1].push(id);
                resum(&mut weights, &dirs_at, depth + 1);
            }
        }
        Ok::<_, TreeError>(())
    })
    .expect("generated names are unique");

    let report = SynthesisReport {
        nodes: tree.node_count(),
        directories: tree.directory_count(),
        files: tree.file_count(),
        max_depth,
        mean_depth: depth_sum as f64 / tree.node_count() as f64,
    };
    (tree, report)
}

/// Appends `prefix` and `n` in decimal to `name`: what
/// `write!(name, "{prefix}{n}")` appends, without the formatting
/// machinery's per-call cost, paid once per synthesised node.
fn push_numbered(name: &mut String, prefix: char, mut n: usize) {
    let mut digits = [0; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    name.push(prefix);
    name.push_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbered_names_are_the_formatted_ones() {
        let mut name = String::new();
        for n in [0, 1, 9, 10, 99, 100, 123_456, 1_999_999, usize::MAX] {
            name.clear();
            push_numbered(&mut name, 'd', n);
            assert_eq!(name, format!("d{n}"));
        }
    }

    #[test]
    fn hits_exact_node_count_and_depth() {
        for profile in [
            TraceProfile::dtr(),
            TraceProfile::lmbe(),
            TraceProfile::ra(),
        ] {
            let profile = profile.with_nodes(1_500);
            let (tree, report) = synthesize_tree(&profile, 3);
            assert_eq!(tree.node_count(), 1_500);
            assert_eq!(report.max_depth, profile.max_depth);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let p = TraceProfile::ra().with_nodes(800);
        let (a, _) = synthesize_tree(&p, 11);
        let (b, _) = synthesize_tree(&p, 11);
        let pa: Vec<String> = a.nodes().map(|(id, _)| a.path_of(id).to_string()).collect();
        let pb: Vec<String> = b.nodes().map(|(id, _)| b.path_of(id).to_string()).collect();
        assert_eq!(pa, pb);
    }

    #[test]
    fn different_seeds_differ() {
        let p = TraceProfile::lmbe().with_nodes(600);
        let (a, _) = synthesize_tree(&p, 1);
        let (b, _) = synthesize_tree(&p, 2);
        let pa: Vec<String> = a.nodes().map(|(id, _)| a.path_of(id).to_string()).collect();
        let pb: Vec<String> = b.nodes().map(|(id, _)| b.path_of(id).to_string()).collect();
        assert_ne!(pa, pb);
    }

    #[test]
    fn gamma_shapes_mean_depth() {
        let deep = TraceProfile::dtr().with_nodes(3_000);
        let wide = TraceProfile::lmbe().with_nodes(3_000);
        let (_, rd) = synthesize_tree(&deep, 5);
        let (_, rw) = synthesize_tree(&wide, 5);
        assert!(
            rd.mean_depth > rw.mean_depth,
            "DTR ({}) should be deeper on average than LMBE ({})",
            rd.mean_depth,
            rw.mean_depth
        );
    }

    #[test]
    #[should_panic(expected = "spine")]
    fn too_few_nodes_panics() {
        let p = TraceProfile::dtr().with_nodes(10); // spine alone needs 50
        let _ = synthesize_tree(&p, 0);
    }
}
