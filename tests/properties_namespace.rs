//! Property-based tests of the namespace-tree substrate.

mod support;

use d2tree::namespace::{NamespaceTree, NodeId, NodeKind, NsPath, Popularity, TreeBuilder};
use rand::rngs::StdRng;
use rand::Rng;
use support::cases;

/// One plausible absolute path: 1–6 components of 1–2 letters from
/// `a`–`d`, a tiny alphabet so prefixes collide often (exercising
/// shared-directory code paths).
fn path(rng: &mut StdRng) -> String {
    let mut p = String::new();
    for _ in 0..rng.gen_range(1..=6) {
        p.push('/');
        for _ in 0..rng.gen_range(1..=2) {
            p.push(char::from(rng.gen_range(b'a'..=b'd')));
        }
    }
    p
}

/// 1–39 such paths.
fn paths(rng: &mut StdRng) -> Vec<String> {
    (0..rng.gen_range(1..40)).map(|_| path(rng)).collect()
}

/// The tree of one draw of [`paths`], each created as a file; a path
/// that conflicts with an earlier one (file vs directory) is skipped.
fn random_tree(rng: &mut StdRng) -> NamespaceTree {
    let mut builder = TreeBuilder::new();
    for p in &paths(rng) {
        let _ = builder.file(p);
    }
    builder.build()
}

/// Every node but the root, in id order.
fn non_root(tree: &NamespaceTree) -> Vec<NodeId> {
    tree.nodes()
        .map(|(id, _)| id)
        .filter(|&id| id != tree.root())
        .collect()
}

/// Every directory, in id order.
fn dirs(tree: &NamespaceTree) -> Vec<NodeId> {
    tree.nodes()
        .filter(|(_, n)| n.kind().is_directory())
        .map(|(id, _)| id)
        .collect()
}

#[test]
fn build_resolve_roundtrip() {
    cases("build_resolve_roundtrip", 32, |rng| {
        let paths = paths(rng);
        let mut builder = TreeBuilder::new();
        let mut created = Vec::new();
        for p in &paths {
            // Conflicts (file vs dir on the same path) may legitimately
            // error; only successful creations must resolve.
            if let Ok(id) = builder.file(p) {
                created.push((p.clone(), id));
            }
        }
        let tree = builder.build();
        for (p, id) in created {
            let parsed: NsPath = p.parse().unwrap();
            assert_eq!(tree.resolve(&parsed), Some(id));
            assert_eq!(tree.path_of(id).to_string(), p);
        }
    });
}

#[test]
fn node_count_equals_descendants_of_root() {
    cases("node_count_equals_descendants_of_root", 32, |rng| {
        let tree = random_tree(rng);
        assert_eq!(tree.node_count(), tree.descendants(tree.root()).count());
        assert_eq!(
            tree.node_count(),
            tree.directory_count() + tree.file_count()
        );
    });
}

#[test]
fn ancestor_chain_lengths_match_depth() {
    cases("ancestor_chain_lengths_match_depth", 32, |rng| {
        let tree = random_tree(rng);
        for (id, _) in tree.nodes() {
            let depth = tree.depth(id);
            assert_eq!(tree.ancestors(id).count(), depth);
            assert_eq!(tree.path_from_root(id).len(), depth + 1);
            assert_eq!(tree.path_of(id).depth(), depth);
        }
    });
}

#[test]
fn removal_conserves_counts() {
    cases("removal_conserves_counts", 32, |rng| {
        let mut tree = random_tree(rng);
        let candidates = non_root(&tree);
        if candidates.is_empty() {
            return;
        }
        let victim = candidates[rng.gen_range(0..candidates.len())];
        let before = tree.node_count();
        let sub = tree.subtree_size(victim);
        let removed = tree.remove_subtree(victim).unwrap();
        assert_eq!(removed, sub);
        assert_eq!(tree.node_count(), before - removed);
        assert!(!tree.contains(victim));
    });
}

#[test]
fn move_preserves_subtree_and_count() {
    cases("move_preserves_subtree_and_count", 32, |rng| {
        let mut tree = random_tree(rng);
        let nodes = non_root(&tree);
        let dirs = dirs(&tree);
        if nodes.is_empty() || dirs.is_empty() {
            return;
        }
        let subject = nodes[rng.gen_range(0..nodes.len())];
        let dest = dirs[rng.gen_range(0..dirs.len())];
        let before = tree.node_count();
        let sub_size = tree.subtree_size(subject);
        match tree.move_subtree(subject, dest) {
            Ok(()) => {
                assert_eq!(tree.node_count(), before);
                assert_eq!(tree.subtree_size(subject), sub_size);
                let parent = tree.node(subject).unwrap().parent();
                assert_eq!(parent, Some(dest));
            }
            Err(_) => {
                // Rejected moves must leave the tree untouched.
                assert_eq!(tree.node_count(), before);
                assert_eq!(tree.subtree_size(subject), sub_size);
            }
        }
    });
}

#[test]
fn popularity_rollup_is_sum_of_individuals() {
    cases("popularity_rollup_is_sum_of_individuals", 32, |rng| {
        let tree = random_tree(rng);
        let weights: Vec<f64> = (0..40).map(|_| rng.gen_range(0.0..100.0)).collect();
        let mut pop = Popularity::new(&tree);
        let ids: Vec<_> = tree.nodes().map(|(id, _)| id).collect();
        for (i, id) in ids.iter().enumerate() {
            pop.record(*id, weights[i % weights.len()]);
        }
        pop.rollup(&tree);
        // Root total equals the sum of all individuals.
        let sum: f64 = ids.iter().map(|&id| pop.individual(id)).sum();
        assert!((pop.total(tree.root()) - sum).abs() < 1e-6);
        // Every node's total is at least its own individual and at most
        // its parent's total.
        for &id in &ids {
            assert!(pop.total(id) + 1e-9 >= pop.individual(id));
            if let Some(parent) = tree.node(id).unwrap().parent() {
                assert!(pop.total(parent) + 1e-9 >= pop.total(id));
            }
        }
    });
}

#[test]
fn rename_is_observable_and_reversible() {
    cases("rename_is_observable_and_reversible", 32, |rng| {
        let mut tree = random_tree(rng);
        let Some(&victim) = non_root(&tree).first() else {
            return;
        };
        let old_name = tree.node(victim).unwrap().name().to_owned();
        let unique = "zz_renamed";
        if tree.rename(victim, unique).is_ok() {
            assert_eq!(tree.node(victim).unwrap().name(), unique);
            tree.rename(victim, &old_name).unwrap();
            assert_eq!(tree.node(victim).unwrap().name(), old_name.as_str());
        }
    });
}

#[test]
fn create_path_agrees_with_manual_creation() {
    let mut a = NamespaceTree::new();
    let p: NsPath = "/x/y/z".parse().unwrap();
    let via_path = a.create_path(&p, NodeKind::File).unwrap();

    let mut b = NamespaceTree::new();
    let x = b.create(b.root(), "x", NodeKind::Directory).unwrap();
    let y = b.create(x, "y", NodeKind::Directory).unwrap();
    let z = b.create(y, "z", NodeKind::File).unwrap();

    assert_eq!(a.path_of(via_path), b.path_of(z));
    assert_eq!(a.node_count(), b.node_count());
}

/// I/O round-trip property: any tree built from generated paths survives
/// `write_tree` → `read_tree` with identical structure, and any trace over
/// it survives `write_trace` → `read_trace`.
mod io_roundtrip {
    use super::*;
    use d2tree::workload::io::{read_trace, read_tree, write_trace, write_tree};
    use d2tree::workload::{OpKind, Operation, Trace};
    use std::io::BufReader;

    #[test]
    fn tree_and_trace_roundtrip() {
        cases("tree_and_trace_roundtrip", 32, |rng| {
            let tree = random_tree(rng);

            let mut buf = Vec::new();
            write_tree(&mut buf, &tree).unwrap();
            let back = read_tree(BufReader::new(buf.as_slice())).unwrap();
            assert_eq!(back.node_count(), tree.node_count());
            for (id, node) in tree.nodes() {
                let p = tree.path_of(id);
                let there = back.resolve(&p);
                assert!(there.is_some(), "missing {}", p);
                assert_eq!(back.node(there.unwrap()).unwrap().kind(), node.kind());
            }

            // A random trace over the original tree replays over the copy.
            let ids: Vec<_> = tree.nodes().map(|(id, _)| id).collect();
            let kinds = [OpKind::Read, OpKind::Write, OpKind::Update];
            let ops: Vec<Operation> = (0..rng.gen_range(1..50))
                .map(|i| Operation {
                    target: ids[rng.gen_range(0..ids.len())],
                    kind: kinds[i % 3],
                })
                .collect();
            let trace = Trace::from_ops(ops);
            let mut tbuf = Vec::new();
            write_trace(&mut tbuf, &trace, &tree).unwrap();
            let trace_back = read_trace(BufReader::new(tbuf.as_slice()), &back).unwrap();
            assert_eq!(trace_back.len(), trace.len());
            for (a, b) in trace_back.iter().zip(&trace) {
                assert_eq!(a.kind, b.kind);
                assert_eq!(back.path_of(a.target), tree.path_of(b.target));
            }
        });
    }
}

/// Equivalence properties for the interned hot path: `intern_path` +
/// `resolve_syms` and the memoised `LocalIndex::locate` must agree with
/// a naive string-walk reference model, before and after arbitrary
/// rename / move / delete sequences (which exercise both symbol-table
/// stability and memo invalidation).
mod interned_hot_path {
    use super::*;
    use d2tree::core::LocalIndex;
    use d2tree::metrics::MdsId;

    /// Reference resolver: walks components by comparing name *strings*
    /// against each child, independent of the symbol table and of the
    /// child-map representation.
    fn string_walk(tree: &NamespaceTree, path: &NsPath) -> Option<NodeId> {
        let mut cur = tree.root();
        for comp in path.components() {
            cur = tree
                .node(cur)?
                .children()
                .find_map(|(sym, child)| (tree.symbols().resolve(sym) == comp).then_some(child))?;
        }
        Some(cur)
    }

    /// Reference locate: first indexed node on the root→target chain
    /// (i.e. the shallowest, per D2-Tree's nearest-indexed-ancestor
    /// convention).
    fn walk_locate(
        tree: &NamespaceTree,
        index: &LocalIndex,
        target: NodeId,
    ) -> Option<(NodeId, MdsId)> {
        tree.path_from_root(target)
            .into_iter()
            .find_map(|id| index.owner_of(id).map(|owner| (id, owner)))
    }

    /// Asserts all three resolution routes agree for every live node,
    /// and that `locate` (memoised) == `locate_uncached` == reference.
    fn assert_equivalent(tree: &NamespaceTree, index: &LocalIndex) {
        for (id, _) in tree.nodes() {
            let path = tree.path_of(id);
            assert_eq!(tree.resolve(&path), Some(id));
            assert_eq!(string_walk(tree, &path), Some(id));
            let syms = tree.intern_path(&path);
            assert!(syms.is_some(), "live path {} must intern", path);
            assert_eq!(tree.resolve_syms(&syms.unwrap()), Some(id));

            let reference = walk_locate(tree, index, id);
            assert_eq!(index.locate(tree, id), reference);
            assert_eq!(index.locate_uncached(tree, id), reference);
        }
    }

    fn spread_index(tree: &NamespaceTree) -> LocalIndex {
        let mut index = LocalIndex::new();
        for (i, (id, _)) in tree.nodes().enumerate() {
            // Index every third node so plenty of targets resolve via a
            // strict ancestor and some via themselves.
            if i % 3 == 0 {
                index.insert(id, MdsId((i % 5) as u16));
            }
        }
        index
    }

    #[test]
    fn interned_resolution_matches_string_walk() {
        cases("interned_resolution_matches_string_walk", 32, |rng| {
            let tree = random_tree(rng);
            let index = spread_index(&tree);
            assert_equivalent(&tree, &index);
        });
    }

    #[test]
    fn equivalence_survives_mutation_sequences() {
        cases("equivalence_survives_mutation_sequences", 32, |rng| {
            let mut tree = random_tree(rng);
            let mut index = spread_index(&tree);
            for _ in 0..12 {
                let nodes = non_root(&tree);
                if nodes.is_empty() {
                    break;
                }
                let subject = nodes[rng.gen_range(0..nodes.len())];
                match rng.gen_range(0..4) {
                    0 => {
                        // Rename to a name outside the generator alphabet
                        // (collision-free), then keep it — later rounds
                        // may rename it again.
                        let fresh = format!("r{}", subject.index());
                        let _ = tree.rename(subject, &fresh);
                    }
                    1 => {
                        let dirs = dirs(&tree);
                        let dest = dirs[rng.gen_range(0..dirs.len())];
                        let _ = tree.move_subtree(subject, dest);
                    }
                    2 => {
                        if tree.remove_subtree(subject).is_ok() {
                            // Drop index entries whose nodes died, as the
                            // owning MDS would.
                            let dead: Vec<NodeId> = index
                                .iter()
                                .map(|(id, _)| id)
                                .filter(|&id| !tree.contains(id))
                                .collect();
                            for id in dead {
                                index.remove(id);
                            }
                        }
                    }
                    _ => {
                        // Index churn: toggle the subject's entry.
                        if index.owner_of(subject).is_some() {
                            index.remove(subject);
                        } else {
                            index.insert(subject, MdsId(rng.gen_range(0..7)));
                        }
                    }
                }
                assert_equivalent(&tree, &index);
            }
        });
    }

    #[test]
    fn stale_syms_track_renames() {
        cases("stale_syms_track_renames", 32, |rng| {
            let mut tree = random_tree(rng);
            let Some(&victim) = non_root(&tree).first() else {
                return;
            };
            let path = tree.path_of(victim);
            let syms = tree.intern_path(&path).unwrap();
            let old_name = tree.node(victim).unwrap().name().to_owned();
            if tree.rename(victim, "zz_stale").is_ok() {
                // The pre-rename symbol sequence no longer names a node…
                assert_eq!(tree.resolve_syms(&syms), None);
                // …until the rename is undone, when it must work again
                // (symbols are never reclaimed, so the Vec<Sym> is still
                // valid).
                tree.rename(victim, &old_name).unwrap();
                assert_eq!(tree.resolve_syms(&syms), Some(victim));
            }
        });
    }
}

/// The synthesised namespaces and the traces generated over them are
/// pinned against the builds that recorded `results/tree_digests.txt`
/// and `results/trace_op_digests.txt`: a storage-layout change that
/// renumbers a node, loses a name, reorders a directory's children or
/// alters an operation moves a digest.
mod same_trees {
    use super::*;
    use d2tree::workload::{synthesize_tree, OpKind, Operation, TraceGen, TraceProfile};

    const PROFILES: [&str; 3] = ["dtr", "lmbe", "ra"];

    /// `(seed, nodes, ops)` of every recorded digest line, per profile:
    /// three seeds at 25 000 nodes, then seed 1 at the benchmark's scale,
    /// whose DTR tree grows weight suffixes 49 levels long and whose Zipf
    /// table has 200 000 ranks.
    const SIZES: [(u64, usize, usize); 4] = [
        (1, 25_000, 100_000),
        (7, 25_000, 100_000),
        (42, 25_000, 100_000),
        (1, 200_000, 1_000_000),
    ];

    fn profile(name: &str) -> TraceProfile {
        match name {
            "dtr" => TraceProfile::dtr(),
            "lmbe" => TraceProfile::lmbe(),
            _ => TraceProfile::ra(),
        }
    }

    /// The data lines of a digest file: comments and blank lines dropped.
    fn recorded(file: &str) -> Vec<&str> {
        file.lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .collect()
    }

    /// One FNV-1a step over `bytes`.
    fn fnv1a(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// FNV-1a over every node in id order: parent, name, kind, then the
    /// children in the order `children()` yields them.
    fn tree_digest(tree: &NamespaceTree) -> u64 {
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| fnv1a(&mut h, bytes);
        let word = |index: usize| u32::try_from(index).expect("fits").to_le_bytes();
        for (id, node) in tree.nodes() {
            eat(&word(id.index()));
            eat(&node.parent().map_or([0xff; 4], |p| word(p.index())));
            eat(node.name().as_bytes());
            eat(&[0xff, u8::from(node.kind().is_directory())]);
            eat(&word(node.child_count()));
            for (sym, child) in node.children() {
                eat(tree.symbols().resolve(sym).as_bytes());
                eat(&word(child.index()));
            }
        }
        h
    }

    #[test]
    fn synthesised_trees_match_the_recorded_digests() {
        let mut recomputed = Vec::new();
        for name in PROFILES {
            for (seed, nodes, _) in SIZES {
                let (tree, _) = synthesize_tree(&profile(name).with_nodes(nodes), seed);
                recomputed.push(format!("{name} {seed} {nodes} {:016x}", tree_digest(&tree)));
            }
        }
        assert_eq!(
            recorded(include_str!("../results/tree_digests.txt")),
            recomputed,
            "synthesised trees differ from results/tree_digests.txt; recomputed lines:\n{}",
            recomputed.join("\n")
        );
    }

    /// FNV-1a over every operation in order: the target's id as a
    /// little-endian `u32`, then the kind as one byte.
    fn trace_digest(ops: impl Iterator<Item = Operation>) -> u64 {
        let mut h = FNV_OFFSET;
        for op in ops {
            let target = u32::try_from(op.target.index()).expect("fits");
            let kind = match op.kind {
                OpKind::Read => 0u8,
                OpKind::Write => 1,
                OpKind::Update => 2,
            };
            fnv1a(&mut h, &target.to_le_bytes());
            fnv1a(&mut h, &[kind]);
        }
        h
    }

    #[test]
    fn generated_traces_match_the_recorded_digests() {
        let mut recomputed = Vec::new();
        for name in PROFILES {
            for (seed, nodes, ops) in SIZES {
                let profile = profile(name).with_nodes(nodes).with_operations(ops);
                let (tree, _) = synthesize_tree(&profile, seed);
                let digest = trace_digest(TraceGen::new(&profile, &tree, seed));
                recomputed.push(format!("{name} {seed} {nodes} {ops} {digest:016x}"));
            }
        }
        assert_eq!(
            recorded(include_str!("../results/trace_op_digests.txt")),
            recomputed,
            "generated traces differ from results/trace_op_digests.txt; recomputed lines:\n{}",
            recomputed.join("\n")
        );
    }
}

/// The one-pass constructor against the `create`s it stands in for:
/// random parent-first node lists — bursts of children of random size
/// under random directories, names repeated across directories — some
/// with one defect (a duplicate sibling, a file parent, an invalid name
/// or a parent not appended yet). Both builds give the same tree, down
/// to symbol numbering and `version()`, or fail with the same error.
mod one_pass_build {
    use super::*;
    use d2tree::namespace::TreeError;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    /// `(parent, name, kind)` in arrival order.
    type NodeList = Vec<(NodeId, String, NodeKind)>;

    const BURSTS: [usize; 9] = [1, 1, 2, 3, 5, 9, 17, 33, 65];

    fn node_list(rng: &mut StdRng) -> NodeList {
        let mut list = NodeList::new();
        let mut dirs = vec![NodeId::ROOT];
        let mut names = vec![BTreeSet::new()];
        let target = rng.gen_range(0..600);
        let mut defect =
            (rng.gen_range(0..2) == 0).then(|| (rng.gen_range(0..=target), rng.gen_range(0..4)));
        while list.len() < target {
            if let Some((_, kind)) = defect.filter(|&(at, _)| at <= list.len() && !list.is_empty())
            {
                let next = NodeId::from_index(list.len() + 1);
                let (parent, name) = match kind {
                    // A duplicate sibling: an earlier node's parent and name.
                    0 => {
                        let (parent, name, _) = list[rng.gen_range(0..list.len())].clone();
                        (parent, name)
                    }
                    // A file parent (with no file yet, a parent not appended).
                    1 => match (1..=list.len())
                        .map(NodeId::from_index)
                        .find(|&id| !dirs.contains(&id))
                    {
                        Some(file) => (file, "x".to_owned()),
                        None => (next, "x".to_owned()),
                    },
                    // An invalid name.
                    2 => (
                        dirs[rng.gen_range(0..dirs.len())],
                        ["", "a/b", "/"][rng.gen_range(0..3)].to_owned(),
                    ),
                    // A parent not appended yet.
                    _ => (
                        NodeId::from_index(next.index() + rng.gen_range(0..3)),
                        "x".to_owned(),
                    ),
                };
                list.push((parent, name, NodeKind::File));
                names.push(BTreeSet::new());
                defect = None;
                continue;
            }
            let parent = dirs[rng.gen_range(0..dirs.len())];
            for _ in 0..BURSTS[rng.gen_range(0..BURSTS.len())] {
                let name = format!(
                    "{}{}",
                    ["a", "b", "é"][rng.gen_range(0..3)],
                    rng.gen_range(0..80)
                );
                if !names[parent.index()].insert(name.clone()) {
                    continue;
                }
                let kind = if rng.gen_range(0..3) == 0 {
                    NodeKind::Directory
                } else {
                    NodeKind::File
                };
                list.push((parent, name, kind));
                names.push(BTreeSet::new());
                if kind.is_directory() {
                    dirs.push(NodeId::from_index(list.len()));
                }
            }
        }
        list
    }

    fn by_creates(list: &NodeList) -> Result<NamespaceTree, TreeError> {
        let mut tree = NamespaceTree::new();
        for (parent, name, kind) in list {
            tree.create(*parent, name, *kind)?;
        }
        Ok(tree)
    }

    fn in_one_pass(list: &NodeList) -> Result<NamespaceTree, TreeError> {
        NamespaceTree::build(list.len() + 1, |tree| {
            for (i, (parent, name, kind)) in list.iter().enumerate() {
                let id = tree.append(*parent, name, *kind)?;
                assert_eq!(id.index(), i + 1, "each node takes the next id");
                assert_eq!(tree.node_count(), i + 2);
            }
            Ok(())
        })
    }

    /// Node for node: parent, name, symbol, kind and the children in
    /// iteration order; then the counters.
    fn assert_identical(a: &NamespaceTree, b: &NamespaceTree) {
        assert_eq!(a.arena_size(), b.arena_size());
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.version(), b.version());
        assert_eq!(a.symbols().len(), b.symbols().len());
        for slot in 0..a.arena_size() {
            let id = NodeId::from_index(slot);
            let (x, y) = (a.node(id).expect("live"), b.node(id).expect("live"));
            assert_eq!(x.parent(), y.parent());
            assert_eq!(x.name(), y.name());
            assert_eq!(x.name_sym(), y.name_sym());
            assert_eq!(x.kind(), y.kind());
            assert_eq!(
                x.children().collect::<Vec<_>>(),
                y.children().collect::<Vec<_>>(),
                "children of {}",
                id
            );
        }
    }

    #[test]
    fn one_pass_build_equals_the_creates_it_replaces() {
        cases(
            "one_pass_build_equals_the_creates_it_replaces",
            200,
            |rng| {
                let list = node_list(rng);
                match (by_creates(&list), in_one_pass(&list)) {
                    (Ok(want), Ok(got)) => {
                        assert_identical(&want, &got);
                        // Both keep growing the same way from there.
                        let (mut want, mut got) = (want, got);
                        for tree in [&mut want, &mut got] {
                            for slot in 0..tree.arena_size() {
                                let _ = tree.create(NodeId::from_index(slot), "z", NodeKind::File);
                            }
                        }
                        assert_identical(&want, &got);
                    }
                    (want, got) => assert_eq!(want.err(), got.err()),
                }
            },
        );
    }

    /// Every outcome is generated: a clean list and each defect.
    #[test]
    fn the_generator_covers_every_outcome() {
        let mut seen = BTreeSet::new();
        for seed in 0..400 {
            let outcome = match by_creates(&node_list(&mut StdRng::seed_from_u64(seed))) {
                Ok(_) => "ok",
                Err(TreeError::DuplicateName(_)) => "duplicate",
                Err(TreeError::NotADirectory(_)) => "file parent",
                Err(TreeError::InvalidPath(_)) => "invalid name",
                Err(TreeError::NodeNotFound(_)) => "not appended",
                Err(other) => panic!("unexpected {other:?}"),
            };
            seen.insert(outcome);
        }
        assert_eq!(seen.len(), 5, "{seen:?}");
    }
}

/// Model check of the arena across span moves: random `create` /
/// `rename` / `move_subtree` / `remove_subtree` against a
/// `BTreeMap<String, NodeId>`-per-directory model that knows nothing of
/// columns, symbols or the edge pool. Fan-outs cross every span size
/// class up to 256 on the way up and on the way down, and removals
/// vacate spans that later growth reuses.
mod arena_model {
    use super::*;
    use std::collections::BTreeMap;

    /// `(parent, name, kind)` per arena slot, `None` once removed, and
    /// each slot's children by name.
    struct Model {
        nodes: Vec<Option<(Option<NodeId>, String, NodeKind)>>,
        kids: Vec<BTreeMap<String, NodeId>>,
    }

    impl Model {
        fn new() -> Self {
            Model {
                nodes: vec![Some((None, String::new(), NodeKind::Directory))],
                kids: vec![BTreeMap::new()],
            }
        }

        fn live(&self, id: NodeId) -> Option<&(Option<NodeId>, String, NodeKind)> {
            self.nodes.get(id.index())?.as_ref()
        }

        fn is_dir(&self, id: NodeId) -> bool {
            self.live(id).is_some_and(|n| n.2.is_directory())
        }

        fn preorder(&self, id: NodeId, out: &mut Vec<NodeId>) {
            out.push(id);
            for &child in self.kids[id.index()].values() {
                self.preorder(child, out);
            }
        }

        fn path(&self, id: NodeId) -> String {
            let mut comps = Vec::new();
            let mut cur = id;
            while let (Some(parent), name, _) = self.live(cur).expect("live") {
                comps.push(name.as_str());
                cur = *parent;
            }
            comps.reverse();
            format!("/{}", comps.join("/"))
        }

        fn create(&mut self, parent: NodeId, name: &str, kind: NodeKind) -> Option<NodeId> {
            if !self.is_dir(parent) || self.kids[parent.index()].contains_key(name) {
                return None;
            }
            let id = NodeId::from_index(self.nodes.len());
            self.nodes.push(Some((Some(parent), name.to_owned(), kind)));
            self.kids.push(BTreeMap::new());
            self.kids[parent.index()].insert(name.to_owned(), id);
            Some(id)
        }

        fn rename(&mut self, id: NodeId, new_name: &str) -> bool {
            let Some((Some(parent), name, _)) = self.live(id).cloned() else {
                return false;
            };
            if name == new_name {
                return true;
            }
            let siblings = &mut self.kids[parent.index()];
            if siblings.contains_key(new_name) {
                return false;
            }
            siblings.remove(&name);
            siblings.insert(new_name.to_owned(), id);
            self.nodes[id.index()].as_mut().expect("live").1 = new_name.to_owned();
            true
        }

        fn move_subtree(&mut self, id: NodeId, dest: NodeId) -> bool {
            let Some((Some(parent), name, _)) = self.live(id).cloned() else {
                return false;
            };
            let mut inside = Vec::new();
            self.preorder(id, &mut inside);
            if !self.is_dir(dest) || inside.contains(&dest) {
                return false;
            }
            if dest == parent {
                return true;
            }
            if self.kids[dest.index()].contains_key(&name) {
                return false;
            }
            self.kids[parent.index()].remove(&name);
            self.kids[dest.index()].insert(name, id);
            self.nodes[id.index()].as_mut().expect("live").0 = Some(dest);
            true
        }

        fn remove_subtree(&mut self, id: NodeId) -> Option<usize> {
            let (Some(parent), name, _) = self.live(id).cloned()? else {
                return None;
            };
            let mut victims = Vec::new();
            self.preorder(id, &mut victims);
            self.kids[parent.index()].remove(&name);
            for v in &victims {
                self.nodes[v.index()] = None;
                self.kids[v.index()].clear();
            }
            Some(victims.len())
        }
    }

    /// One directory's children: ids and names, in iteration order.
    fn assert_same_children(tree: &NamespaceTree, model: &Model, dir: NodeId) {
        let node = tree.node(dir).expect("live");
        let got: Vec<(&str, NodeId)> = node
            .children()
            .map(|(sym, id)| (tree.symbols().resolve(sym), id))
            .collect();
        let want: Vec<(&str, NodeId)> = model.kids[dir.index()]
            .iter()
            .map(|(name, &id)| (name.as_str(), id))
            .collect();
        assert_eq!(node.child_count(), want.len());
        assert_eq!(got, want, "children of {}", dir);
    }

    fn assert_same(tree: &NamespaceTree, model: &Model) {
        assert_eq!(tree.arena_size(), model.nodes.len());
        let live = model.nodes.iter().flatten().count();
        assert_eq!(tree.node_count(), live);
        assert_eq!(tree.nodes().count(), live);
        for slot in 0..model.nodes.len() {
            let id = NodeId::from_index(slot);
            let Some((parent, name, kind)) = model.live(id) else {
                assert!(tree.node(id).is_none() && !tree.contains(id));
                assert_eq!(tree.chain_up(id).collect::<Vec<_>>(), vec![id]);
                assert_eq!(tree.descendants(id).count(), 0);
                continue;
            };
            let node = tree.node(id).expect("live in the model");
            assert_eq!(node.parent(), *parent);
            assert_eq!(node.name(), name.as_str());
            assert_eq!(node.kind(), *kind);
            assert_same_children(tree, model, id);
            let path = tree.path_of(id);
            assert_eq!(path.to_string(), model.path(id));
            assert_eq!(tree.resolve(&path), Some(id));
        }
        let mut preorder = Vec::new();
        model.preorder(tree.root(), &mut preorder);
        assert_eq!(tree.descendants(tree.root()).collect::<Vec<_>>(), preorder);
    }

    /// Fan-out steps that land on and just past each span size class.
    const BURSTS: [usize; 10] = [1, 1, 2, 3, 5, 9, 17, 33, 65, 257];

    #[test]
    fn arena_matches_a_btreemap_model_across_span_moves() {
        cases(
            "arena_matches_a_btreemap_model_across_span_moves",
            10,
            |rng| {
                let mut model = Model::new();
                // Names from a small space, scattered so inserts land
                // anywhere in a span and collide now and then.
                let name = |rng: &mut StdRng| {
                    format!(
                        "{}{}",
                        ["a", "b", "é"][rng.gen_range(0..3)],
                        rng.gen_range(0..900)
                    )
                };

                // The tree starts built in one pass, so what follows mutates
                // the span layout that path produces: a hub and a side
                // directory with a random head start, and a few more
                // directories with children of their own.
                let (hub, side) = (NodeId::from_index(1), NodeId::from_index(2));
                let mut tree = NamespaceTree::build(0, |tree| {
                    let mut dirs = vec![NodeId::ROOT];
                    for label in ["hub", "side"] {
                        let id = tree.append(NodeId::ROOT, label, NodeKind::Directory)?;
                        assert_eq!(
                            model.create(NodeId::ROOT, label, NodeKind::Directory),
                            Some(id)
                        );
                        dirs.push(id);
                    }
                    for _ in 0..rng.gen_range(0..200) {
                        let dir = dirs[rng.gen_range(0..dirs.len())];
                        let name = name(rng);
                        let kind = if rng.gen_range(0..8) == 0 {
                            NodeKind::Directory
                        } else {
                            NodeKind::File
                        };
                        if let Some(id) = model.create(dir, &name, kind) {
                            assert_eq!(tree.append(dir, &name, kind)?, id);
                            if kind.is_directory() {
                                dirs.push(id);
                            }
                        }
                    }
                    Ok(())
                })
                .expect("the model admits only valid nodes");
                assert_same(&tree, &model);

                // Up through every size class one child at a time, then
                // down again from the middle, beside a second directory
                // whose growth interleaves with it in the pool.
                while model.kids[hub.index()].len() < 300 {
                    for dir in [hub, side] {
                        let name = name(rng);
                        let made = tree.create(dir, &name, NodeKind::File).ok();
                        assert_eq!(made, model.create(dir, &name, NodeKind::File));
                        assert_same_children(&tree, &model, dir);
                    }
                }
                assert_same(&tree, &model);
                while model.kids[hub.index()].len() > 3 {
                    let at = rng.gen_range(0..model.kids[hub.index()].len());
                    let victim = *model.kids[hub.index()].values().nth(at).unwrap();
                    assert_eq!(
                        tree.remove_subtree(victim).ok(),
                        model.remove_subtree(victim)
                    );
                    assert_same_children(&tree, &model, hub);
                }
                assert_same(&tree, &model);

                for step in 0..40 {
                    let any_id =
                        |rng: &mut StdRng| NodeId::from_index(rng.gen_range(0..model.nodes.len()));
                    let subject = any_id(rng);
                    // Mostly a live directory; sometimes any slot, so files
                    // and tombstones are refused the same way.
                    let dirs: Vec<NodeId> = (0..model.nodes.len())
                        .map(NodeId::from_index)
                        .filter(|&id| model.is_dir(id))
                        .collect();
                    let dir = if rng.gen_range(0..8) == 0 {
                        any_id(rng)
                    } else {
                        dirs[rng.gen_range(0..dirs.len())]
                    };
                    match rng.gen_range(0..10) {
                        0..=4 => {
                            for _ in 0..BURSTS[rng.gen_range(0..BURSTS.len())] {
                                let name = name(rng);
                                let kind = if rng.gen_range(0..4) == 0 {
                                    NodeKind::Directory
                                } else {
                                    NodeKind::File
                                };
                                let made = tree.create(dir, &name, kind).ok();
                                assert_eq!(made, model.create(dir, &name, kind));
                            }
                        }
                        5 | 6 => {
                            let name = name(rng);
                            assert_eq!(
                                tree.rename(subject, &name).is_ok(),
                                model.rename(subject, &name)
                            );
                        }
                        7 | 8 => {
                            assert_eq!(
                                tree.move_subtree(subject, dir).is_ok(),
                                model.move_subtree(subject, dir)
                            );
                        }
                        _ => {
                            assert_eq!(tree.remove_subtree(dir).ok(), model.remove_subtree(dir));
                        }
                    }
                    assert_same(&tree, &model);
                    if step % 8 == 7 {
                        // Carry on in a clone: same content, its own identity.
                        let copy = tree.clone();
                        assert_ne!(copy.identity(), tree.identity());
                        assert_eq!(copy.version(), tree.version());
                        assert_same(&copy, &model);
                        tree = copy;
                    }
                }
            },
        );
    }
}

/// Model check of the sparse attribute table: seeded `update` /
/// `apply_if_newer` / `create` + `resize_for` / `clone` sequences
/// against the dense one-record-per-slot table it replaced, which knows
/// nothing of maps or bitmaps.
mod attr_model {
    use super::*;
    use d2tree::namespace::{AttrTable, FileAttr, VersionedAttr};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The parent commit's `AttrTable` — a `VersionedAttr` per arena
    /// slot — with its one bug fixed: a slot's default comes from the
    /// node's kind whenever the slot is made, not only in `new`.
    struct Dense {
        records: Vec<VersionedAttr>,
    }

    impl Dense {
        fn new(tree: &NamespaceTree) -> Self {
            let mut dense = Dense {
                records: Vec::new(),
            };
            dense.resize_for(tree);
            dense
        }

        fn resize_for(&mut self, tree: &NamespaceTree) {
            for slot in self.records.len()..tree.arena_size() {
                let node = tree
                    .node(NodeId::from_index(slot))
                    .expect("nothing is removed");
                self.records.push(default_of(node.kind()));
            }
        }

        fn update(&mut self, id: NodeId, mutate: impl FnOnce(&mut FileAttr)) -> VersionedAttr {
            let rec = &mut self.records[id.index()];
            mutate(&mut rec.attr);
            rec.version += 1;
            *rec
        }

        fn apply_if_newer(&mut self, id: NodeId, incoming: VersionedAttr) -> bool {
            let rec = &mut self.records[id.index()];
            let newer = incoming.version > rec.version;
            if newer {
                *rec = incoming;
            }
            newer
        }

        fn permission_walk(&self, tree: &NamespaceTree, node: NodeId, uid: u32, gid: u32) -> bool {
            let traversable = tree
                .ancestors(node)
                .all(|anc| self.records[anc.index()].attr.allows_traversal(uid, gid));
            let target = self.records[node.index()].attr;
            let shift = if uid == target.uid {
                6
            } else if gid == target.gid {
                3
            } else {
                0
            };
            traversable && (uid == 0 || target.mode >> shift & 0o4 == 0o4)
        }
    }

    fn default_of(kind: NodeKind) -> VersionedAttr {
        let attr = if kind.is_directory() {
            FileAttr::directory()
        } else {
            FileAttr::default()
        };
        VersionedAttr { attr, version: 0 }
    }

    /// Owners and callers come from the same three ids, so owner, group
    /// and other bits all get exercised.
    const IDS: [u32; 3] = [0, 1, 1000];
    const MODES: [u16; 6] = [0o755, 0o644, 0o700, 0o040, 0o001, 0o000];

    fn random_attr(rng: &mut StdRng) -> FileAttr {
        FileAttr {
            mode: MODES[rng.gen_range(0..MODES.len())],
            uid: IDS[rng.gen_range(0..IDS.len())],
            gid: IDS[rng.gen_range(0..IDS.len())],
            size: rng.gen_range(0..1 << 20),
            mtime: rng.gen_range(0..1 << 30),
        }
    }

    fn assert_same(table: &AttrTable, dense: &Dense, tree: &NamespaceTree, rng: &mut StdRng) {
        assert_eq!(table.len(), dense.records.len());
        let mut left_default = 0;
        for (slot, &want) in dense.records.iter().enumerate() {
            let id = NodeId::from_index(slot);
            assert_eq!(table.get(id), want, "slot {}", slot);
            let kind = tree.node(id).expect("nothing is removed").kind();
            left_default += usize::from(want != default_of(kind));
        }
        // Sparse means sparse: a record per slot that left its default.
        assert_eq!(table.record_count(), left_default);
        assert_eq!(table.records().count(), left_default);
        for _ in 0..8 {
            let node = NodeId::from_index(rng.gen_range(0..dense.records.len()));
            let (uid, gid) = (IDS[rng.gen_range(0..3)], IDS[rng.gen_range(0..3)]);
            assert_eq!(
                table.permission_walk(tree, node, uid, gid),
                dense.permission_walk(tree, node, uid, gid),
                "walk to {} as {}:{}",
                node,
                uid,
                gid
            );
        }
    }

    /// Every entry point refuses an id outside the table by panicking.
    fn assert_outside(table: &AttrTable, tree: &NamespaceTree, id: NodeId) {
        let incoming = VersionedAttr {
            attr: FileAttr::default(),
            version: 9,
        };
        let mut scratch = table.clone();
        assert!(catch_unwind(|| table.get(id)).is_err());
        // As root, so no ancestor ends the walk before it reaches `id`.
        assert!(catch_unwind(|| table.permission_walk(tree, id, 0, 0)).is_err());
        assert!(catch_unwind(AssertUnwindSafe(|| scratch.update(id, |a| a.size = 1))).is_err());
        assert!(catch_unwind(AssertUnwindSafe(|| scratch.apply_if_newer(id, incoming))).is_err());
    }

    #[test]
    fn sparse_table_matches_the_dense_one_it_replaced() {
        cases(
            "sparse_table_matches_the_dense_one_it_replaced",
            24,
            |rng| {
                let mut tree = NamespaceTree::new();
                let mut dirs = vec![tree.root()];
                let mut grow = |tree: &mut NamespaceTree, rng: &mut StdRng, at_least: usize| {
                    for _ in 0..rng.gen_range(at_least..70) {
                        let parent = dirs[rng.gen_range(0..dirs.len())];
                        let kind = if rng.gen_range(0..3) == 0 {
                            NodeKind::Directory
                        } else {
                            NodeKind::File
                        };
                        let id = tree
                            .create(parent, &format!("n{}", tree.arena_size()), kind)
                            .unwrap();
                        if kind.is_directory() {
                            dirs.push(id);
                        }
                    }
                };
                grow(&mut tree, rng, 0);
                let mut table = AttrTable::new(&tree);
                let mut dense = Dense::new(&tree);
                assert_same(&table, &dense, &tree, rng);

                for _ in 0..120 {
                    let node = NodeId::from_index(rng.gen_range(0..tree.arena_size()));
                    match rng.gen_range(0..10) {
                        0..=3 => {
                            let to = random_attr(rng);
                            // Sometimes a mutation that changes nothing: the
                            // version still moves, so the record stays.
                            let changes = rng.gen_range(0..5) != 0;
                            let mutate = |a: &mut FileAttr| {
                                if changes {
                                    *a = to
                                }
                            };
                            assert_eq!(table.update(node, mutate), dense.update(node, mutate));
                        }
                        4..=6 => {
                            // Older, equal and newer in equal measure.
                            let version = (dense.records[node.index()].version
                                + rng.gen_range(0..3u64))
                            .saturating_sub(1);
                            let incoming = VersionedAttr {
                                attr: random_attr(rng),
                                version,
                            };
                            assert_eq!(
                                table.apply_if_newer(node, incoming),
                                dense.apply_if_newer(node, incoming)
                            );
                        }
                        7 | 8 => {
                            let first_new = NodeId::from_index(tree.arena_size());
                            grow(&mut tree, rng, 1);
                            assert_outside(&table, &tree, first_new);
                            table.resize_for(&tree);
                            dense.resize_for(&tree);
                        }
                        _ => table = table.clone(),
                    }
                    assert_same(&table, &dense, &tree, rng);
                }
                assert_outside(&table, &tree, NodeId::from_index(tree.arena_size()));
            },
        );
    }
}
