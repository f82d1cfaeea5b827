//! Namespace-tree synthesis from a [`TraceProfile`].

use std::fmt::Write as _;

use d2tree_namespace::{NamespaceTree, NodeId, NodeKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::profile::TraceProfile;

/// Summary of a synthesised namespace, reported next to Table I.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SynthesisReport {
    /// Live node count (including the root).
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
    let mut tree = NamespaceTree::new();

    // Directories eligible for children, bucketed by depth. Depth-level
    // sampling keeps attachment O(max_depth) per node.
    let mut dirs_at: Vec<Vec<NodeId>> = vec![Vec::new(); profile.max_depth];
    dirs_at[0].push(tree.root());
    let mut next_name = 0usize;

    // Spine: directories to depth max_depth - 1, a file at max_depth.
    let mut cur = tree.root();
    for (d, level) in dirs_at.iter_mut().enumerate().skip(1) {
        cur = tree
            .create(cur, &format!("spine{d}"), NodeKind::Directory)
            .expect("spine names are unique");
        level.push(cur);
    }
    tree.create(cur, "spine_leaf", NodeKind::File)
        .expect("fresh leaf name");

    // One cumulative-weight buffer and one name buffer serve every node.
    let mut weights = Vec::with_capacity(profile.max_depth);
    let mut name = String::new();
    while tree.node_count() < profile.nodes {
        // Pick an attachment depth proportional to count_d * gamma^d.
        weights.clear();
        let mut total = 0.0;
        let mut gamma_pow = 1.0;
        for dirs in &dirs_at {
            total += dirs.len() as f64 * gamma_pow;
            gamma_pow *= profile.depth_gamma;
            weights.push(total);
        }
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
        write!(name, "{prefix}{next_name}").expect("writing to a String cannot fail");
        let id = tree
            .create(parent, &name, kind)
            .expect("generated names are unique");
        if make_dir && depth + 1 < profile.max_depth {
            dirs_at[depth + 1].push(id);
        }
    }

    let mut depth_sum = 0usize;
    let mut count = 0usize;
    let mut depth = vec![0usize; tree.arena_size()];
    for (id, node) in tree.nodes() {
        if let Some(p) = node.parent() {
            depth[id.index()] = depth[p.index()] + 1;
        }
        depth_sum += depth[id.index()];
        count += 1;
    }
    let report = SynthesisReport {
        nodes: tree.node_count(),
        directories: tree.directory_count(),
        files: tree.file_count(),
        max_depth: tree.max_depth(),
        mean_depth: depth_sum as f64 / count as f64,
    };
    (tree, report)
}

#[cfg(test)]
mod tests {
    use super::*;

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
