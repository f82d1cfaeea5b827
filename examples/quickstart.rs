//! Quickstart: build a namespace, split it into global and local layers,
//! allocate the subtrees onto a 4-MDS cluster and inspect the result.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use d2tree::core::{D2TreeConfig, D2TreeScheme, Partitioner};
use d2tree::metrics::{balance, ClusterSpec};
use d2tree::namespace::{NamespaceTree, NodeKind, Popularity};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build a small namespace by hand: a project tree with one hot
    //    directory and some cold archives.
    let mut tree = NamespaceTree::new();
    for path in [
        "/projects/website/index.html",
        "/projects/website/style.css",
        "/projects/website/app.js",
        "/projects/ml/train.py",
        "/projects/ml/data/batch_0.bin",
        "/projects/ml/data/batch_1.bin",
        "/archive/2019/report.pdf",
        "/archive/2020/report.pdf",
        "/home/alice/notes.txt",
        "/home/bob/todo.md",
    ] {
        tree.create_path(&path.parse()?, NodeKind::File)?;
    }
    tree.create_path(&"/tmp".parse()?, NodeKind::Directory)?;
    println!(
        "namespace: {} nodes, max depth {}",
        tree.node_count(),
        tree.max_depth()
    );

    // 2. Record access popularity: the website is hot, archives are cold.
    let mut pop = Popularity::new(&tree);
    pop.record(tree.resolve_str("/projects/website/index.html")?, 500.0);
    pop.record(tree.resolve_str("/projects/website/app.js")?, 300.0);
    pop.record(tree.resolve_str("/projects/ml/train.py")?, 120.0);
    pop.record(tree.resolve_str("/projects/ml/data/batch_0.bin")?, 40.0);
    pop.record(tree.resolve_str("/archive/2019/report.pdf")?, 2.0);
    pop.record(tree.resolve_str("/home/alice/notes.txt")?, 25.0);
    pop.record(tree.resolve_str("/home/bob/todo.md")?, 10.0);
    pop.rollup(&tree);

    // 3. Partition with D2-Tree: the hottest ~25% of nodes become the
    //    replicated global layer, the rest split into per-MDS subtrees.
    let cluster = ClusterSpec::homogeneous(4, 1_000.0);
    let mut scheme = D2TreeScheme::new(D2TreeConfig::by_proportion(0.25));
    scheme.build(&tree, &pop, &cluster);

    let layer = scheme.global_layer();
    println!("\nglobal layer ({} nodes):", layer.len());
    for &id in layer.members() {
        println!("  {}", tree.path_of(id));
    }

    println!("\nlocal-layer subtrees:");
    for (subtree, owner) in scheme.subtrees() {
        println!(
            "  {} ({} nodes, popularity {:.0}) -> {owner}",
            tree.path_of(subtree.root),
            subtree.size,
            subtree.popularity
        );
    }

    // 4. Ask the scheme where accesses go.
    let mut rng = rand::thread_rng();
    let mut router = scheme.router(&tree);
    for path in ["/projects/website/app.js", "/archive/2020/report.pdf"] {
        let node = tree.resolve_str(path)?;
        let plan = router.route(node, &mut rng);
        println!(
            "\naccess {path}: served by {}{}",
            plan.terminal(),
            if plan.target_replicated {
                " (any replica)"
            } else {
                ""
            }
        );
    }

    // 5. Measure the formal metrics of the paper.
    let locality = scheme.locality(&tree, &pop);
    let loads = scheme.loads(&tree, &pop);
    println!("\nlocality (Def. 3): {:.6}", locality.locality);
    println!("per-MDS loads: {loads:?}");
    println!("balance (Def. 5): {:.3}", balance(&loads, &cluster));
    Ok(())
}
