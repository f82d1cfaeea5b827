//! Property-based tests of the namespace-tree substrate.

mod support;

use d2tree::namespace::{NamespaceTree, NodeId, NodeKind, NsPath, Popularity, TreeError};
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
    let mut tree = NamespaceTree::new();
    for p in &paths(rng) {
        let _ = tree.create_path(&p.parse().unwrap(), NodeKind::File);
    }
    tree
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

/// The counters, then node for node: parent, name, symbol, kind and the
/// children in iteration order.
fn assert_identical(a: &NamespaceTree, b: &NamespaceTree) {
    assert_eq!(a.arena_size(), b.arena_size());
    assert_eq!(a.node_count(), b.node_count());
    assert_eq!(a.symbols().len(), b.symbols().len());
    for slot in 0..a.arena_size() {
        let id = NodeId::from_index(slot);
        let (x, y) = (a.node(id).expect("in a"), b.node(id).expect("in b"));
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
fn build_resolve_roundtrip() {
    cases("build_resolve_roundtrip", 32, |rng| {
        let paths = paths(rng);
        let mut tree = NamespaceTree::new();
        let mut created = Vec::new();
        for p in &paths {
            // Conflicts (file vs dir on the same path) may legitimately
            // error; only successful creations must resolve.
            if let Ok(id) = tree.create_path(&p.parse().unwrap(), NodeKind::File) {
                created.push((p.clone(), id));
            }
        }
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

/// A node's id is greater than its parent's however the tree was built —
/// in one pass (the synthesiser), by `create`, by `create_path` or by
/// loading a `ws.tree` file — and the whole-tree passes that walk the
/// arena on the strength of it, forward (`depths`, the local index's
/// labels, the locality keys) or backward (`Popularity::rollup`, the
/// keys' subtree sizes), agree with oracles that follow the tree's
/// links instead.
mod arena_order {
    use super::*;
    use d2tree::baselines::keys::locality_keys;
    use d2tree::core::LocalIndex;
    use d2tree::metrics::MdsId;
    use d2tree::workload::io::{read_tree, write_tree};
    use d2tree::workload::{synthesize_tree, TraceProfile};

    /// The recount implementation `locality_keys` replaced, kept as its
    /// oracle: `subtree_size` per child, two `Vec`s per node.
    fn locality_keys_by_recount(tree: &NamespaceTree) -> Vec<f64> {
        let mut keys = vec![f64::NAN; tree.arena_size()];
        let mut stack: Vec<(NodeId, f64, f64)> = vec![(tree.root(), 0.0, 1.0)];
        while let Some((id, start, end)) = stack.pop() {
            keys[id.index()] = start;
            let node = match tree.node(id) {
                Some(n) => n,
                None => continue,
            };
            let kids: Vec<NodeId> = node.children().map(|(_, c)| c).collect();
            if kids.is_empty() {
                continue;
            }
            let sizes: Vec<f64> = kids.iter().map(|&k| tree.subtree_size(k) as f64).collect();
            let total: f64 = sizes.iter().sum();
            let span = end - start;
            let lead = span * 1e-9;
            let mut cursor = start + lead;
            for (k, sz) in kids.iter().zip(&sizes) {
                let width = (span - lead) * sz / total;
                stack.push((*k, cursor, cursor + width));
                cursor += width;
            }
        }
        keys
    }

    /// A tree of random `create`s: each under a random directory, some
    /// refused as duplicates.
    fn by_creates(rng: &mut StdRng) -> NamespaceTree {
        let mut tree = NamespaceTree::new();
        let mut dirs = vec![tree.root()];
        for _ in 0..rng.gen_range(0..400) {
            let parent = dirs[rng.gen_range(0..dirs.len())];
            let name = format!("c{}", rng.gen_range(0..60));
            let kind = if rng.gen_range(0..3) == 0 {
                NodeKind::Directory
            } else {
                NodeKind::File
            };
            if let Ok(id) = tree.create(parent, &name, kind) {
                if kind.is_directory() {
                    dirs.push(id);
                }
            }
        }
        tree
    }

    fn check(how: &str, tree: &NamespaceTree, rng: &mut StdRng) {
        assert_eq!(tree.node_count(), tree.arena_size(), "{how}");
        assert_eq!(tree.parent_of(tree.root()), None, "{how}");
        for (id, _) in tree.nodes().skip(1) {
            let parent = tree
                .parent_of(id)
                .expect("every node but the root has a parent");
            assert!(parent < id, "{how}: {parent} is the parent of {id}");
        }

        let depths = tree.depths();
        for (id, _) in tree.nodes() {
            assert_eq!(
                depths[id.index()] as usize,
                tree.ancestors(id).count(),
                "{how}"
            );
        }

        // Roots at random, nested ones among them, and one past the arena.
        let mut index = LocalIndex::new();
        for (id, _) in tree.nodes() {
            if rng.gen_range(0..6) == 0 {
                index.insert(id, MdsId(rng.gen_range(0..8)));
            }
        }
        index.insert(NodeId::from_index(tree.arena_size() + 1), MdsId(0));
        index.relabel(tree);
        assert!(index.labelled_for(tree), "{how}");
        for slot in 0..tree.arena_size() + 3 {
            let id = NodeId::from_index(slot);
            assert_eq!(
                index.locate(tree, id),
                index.locate_uncached(tree, id),
                "{how}"
            );
        }

        // Whole-number weights, so that the descendant sums are exact in
        // any order.
        let mut pop = Popularity::new(tree);
        for (id, _) in tree.nodes() {
            pop.record(id, f64::from(rng.gen_range(0..1_000u32)));
        }
        pop.rollup(tree);
        for (id, _) in tree.nodes() {
            let below: f64 = tree.descendants(id).map(|d| pop.individual(d)).sum();
            assert_eq!(pop.total(id), below, "{how}: {id}");
        }

        let bits = |keys: Vec<f64>| keys.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(
            bits(locality_keys(tree)),
            bits(locality_keys_by_recount(tree)),
            "{how}"
        );
    }

    #[test]
    fn every_parent_precedes_its_children_and_the_passes_match_their_oracles() {
        cases(
            "every_parent_precedes_its_children_and_the_passes_match_their_oracles",
            24,
            |rng| {
                let profile = match rng.gen_range(0..3) {
                    0 => TraceProfile::dtr(),
                    1 => TraceProfile::lmbe(),
                    _ => TraceProfile::ra(),
                };
                let nodes = rng.gen_range(1_000..2_000);
                let (synthesised, _) =
                    synthesize_tree(&profile.with_nodes(nodes), rng.gen_range(0..1 << 32));
                check("build", &synthesised, rng);
                check("create", &by_creates(rng), rng);
                check("create_path", &random_tree(rng), rng);
                let mut file = Vec::new();
                write_tree(&mut file, &synthesised).unwrap();
                let loaded = read_tree(file.as_slice()).unwrap();
                assert_eq!(loaded.node_count(), synthesised.node_count());
                check("ws.tree", &loaded, rng);
            },
        );
    }
}

/// I/O round-trip property: any tree built from generated paths survives
/// `write_tree` → `read_tree` with identical structure, and any trace over
/// it survives `write_trace` → `read_trace`.
mod io_roundtrip {
    use super::*;
    use d2tree::workload::io::{read_trace, read_tree, write_trace, write_tree};
    use d2tree::workload::{OpKind, Operation, Trace};
    use std::collections::BTreeSet;
    use std::io::BufReader;

    /// A bare listing of one draw of [`paths`], shuffled: a path that
    /// leads to another is a `D` line and any other an `F` line, each
    /// listed once, plus `D` lines that repeat a directory, often
    /// before the line that first creates it.
    fn bare_listing(rng: &mut StdRng) -> Vec<String> {
        let paths = paths(rng);
        let dirs: BTreeSet<&str> = paths
            .iter()
            .flat_map(|p| p.match_indices('/').skip(1).map(move |(at, _)| &p[..at]))
            .collect();
        let mut lines: Vec<String> = paths
            .iter()
            .map(|p| {
                let tag = if dirs.contains(p.as_str()) { 'D' } else { 'F' };
                format!("{tag} {p}")
            })
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let dirs: Vec<&str> = dirs.into_iter().collect();
        for _ in 0..rng.gen_range(0..=dirs.len()) {
            lines.push(format!("D {}", dirs[rng.gen_range(0..dirs.len())]));
        }
        for i in (1..lines.len()).rev() {
            lines.swap(i, rng.gen_range(0..=i));
        }
        lines
    }

    #[test]
    fn reading_a_bare_listing_equals_create_path_over_its_lines() {
        cases(
            "reading_a_bare_listing_equals_create_path_over_its_lines",
            64,
            |rng| {
                let lines = bare_listing(rng);
                let mut want = NamespaceTree::new();
                for line in &lines {
                    let (tag, path) = line.split_at(1);
                    let kind = if tag == "D" {
                        NodeKind::Directory
                    } else {
                        NodeKind::File
                    };
                    want.create_path(&path[1..].parse().unwrap(), kind).unwrap();
                }
                let got = read_tree(lines.join("\n").as_bytes()).unwrap();
                assert_identical(&want, &got);
            },
        );
    }

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
/// create and index-churn sequences (which exercise both symbol-table
/// growth and label invalidation).
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

    /// Asserts all three resolution routes agree for every node,
    /// and that `locate` (memoised) == `locate_uncached` == reference.
    fn assert_equivalent(tree: &NamespaceTree, index: &LocalIndex) {
        for (id, _) in tree.nodes() {
            let path = tree.path_of(id);
            assert_eq!(tree.resolve(&path), Some(id));
            assert_eq!(string_walk(tree, &path), Some(id));
            let syms = tree.intern_path(&path);
            assert!(syms.is_some(), "path {} must intern", path);
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
                    0 | 1 => {
                        // A create under a directory, with a name outside
                        // the generator alphabet (collision-free) or from
                        // it (it may collide and be refused).
                        let dirs = dirs(&tree);
                        let dest = dirs[rng.gen_range(0..dirs.len())];
                        let name = match rng.gen_range(0..2) {
                            0 => format!("r{}", tree.arena_size()),
                            _ => path(rng)[1..].split('/').next().unwrap().to_owned(),
                        };
                        let _ = tree.create(dest, &name, NodeKind::File);
                    }
                    2 => {
                        // A new table that keeps every other root.
                        let kept: Vec<_> = index.iter().step_by(2).collect();
                        index.replace_all(kept);
                    }
                    _ => {
                        // Index churn: a new root or an owner change.
                        index.insert(subject, MdsId(rng.gen_range(0..7)));
                    }
                }
                assert_equivalent(&tree, &index);
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
/// under random directories, names repeated across directories and
/// siblings whose names tie on their first eight bytes — some
/// with one defect (a duplicate sibling, a file parent, an invalid name
/// or a parent not appended yet). Both builds give the same tree, down
/// to symbol numbering, or fail with the same error.
mod one_pass_build {
    use super::*;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    /// `(parent, name, kind)` in arrival order.
    type NodeList = Vec<(NodeId, String, NodeKind)>;

    const BURSTS: [usize; 9] = [1, 1, 2, 3, 5, 9, 17, 33, 65];

    /// Name stems, each taken bare or with a number. The short ones
    /// differ within the first eight bytes, which the layout sorts by
    /// first; the long ones share those eight, so their order falls to
    /// the whole names: "twinpref" is a proper prefix of "twinpref7",
    /// and an embedded NUL ("a\0", "twinpref\0") pads like a name's end.
    const STEMS: [&str; 6] = ["a", "b", "é", "a\0", "twinpref", "twinpref\0"];

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
                let stem = STEMS[rng.gen_range(0..STEMS.len())];
                let name = match rng.gen_range(0..4) {
                    0 => stem.to_owned(),
                    _ => format!("{stem}{}", rng.gen_range(0..80)),
                };
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

/// Model check of the arena and its exact child layout: random
/// `create`s against a `BTreeMap<String, NodeId>`-per-directory model
/// that knows nothing of columns, symbols or the edge array. Two
/// directories grow to 300 children one interleaved create at a time,
/// and bursts of up to 257 land anywhere in the tree.
mod arena_model {
    use super::*;
    use std::collections::BTreeMap;

    /// `(parent, name, kind)` per arena slot and each slot's children by
    /// name.
    struct Model {
        nodes: Vec<(Option<NodeId>, String, NodeKind)>,
        kids: Vec<BTreeMap<String, NodeId>>,
    }

    impl Model {
        fn new() -> Self {
            Model {
                nodes: vec![(None, String::new(), NodeKind::Directory)],
                kids: vec![BTreeMap::new()],
            }
        }

        fn node(&self, id: NodeId) -> Option<&(Option<NodeId>, String, NodeKind)> {
            self.nodes.get(id.index())
        }

        fn is_dir(&self, id: NodeId) -> bool {
            self.node(id).is_some_and(|n| n.2.is_directory())
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
            while let (Some(parent), name, _) = self.node(cur).expect("in the model") {
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
            self.nodes.push((Some(parent), name.to_owned(), kind));
            self.kids.push(BTreeMap::new());
            self.kids[parent.index()].insert(name.to_owned(), id);
            Some(id)
        }
    }

    /// One directory's children: ids and names, in iteration order.
    fn assert_same_children(tree: &NamespaceTree, model: &Model, dir: NodeId) {
        let node = tree.node(dir).expect("a node");
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
        assert_eq!(tree.node_count(), model.nodes.len());
        assert_eq!(tree.nodes().count(), model.nodes.len());
        for slot in 0..model.nodes.len() + 2 {
            let id = NodeId::from_index(slot);
            let Some((parent, name, kind)) = model.node(id) else {
                assert!(tree.node(id).is_none() && !tree.contains(id));
                assert_eq!(tree.chain_up(id).collect::<Vec<_>>(), vec![id]);
                assert_eq!(tree.descendants(id).count(), 0);
                continue;
            };
            let node = tree.node(id).expect("in the model");
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

    /// Fan-out steps, from one child to 257.
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

                // The tree starts built in one pass, so what follows grows
                // the layout that path produces: a hub and a side
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
                    Ok::<_, TreeError>(())
                })
                .expect("the model admits only valid nodes");
                assert_same(&tree, &model);

                // To 300 children one create at a time, beside a second
                // directory whose edges interleave with its own.
                while model.kids[hub.index()].len() < 300 {
                    for dir in [hub, side] {
                        let name = name(rng);
                        let made = tree.create(dir, &name, NodeKind::File).ok();
                        assert_eq!(made, model.create(dir, &name, NodeKind::File));
                        assert_same_children(&tree, &model, dir);
                    }
                }
                assert_same(&tree, &model);

                for step in 0..40 {
                    // Mostly a directory; sometimes any slot or one just
                    // past the arena, so files and missing parents are
                    // refused the same way.
                    let dirs: Vec<NodeId> = (0..model.nodes.len())
                        .map(NodeId::from_index)
                        .filter(|&id| model.is_dir(id))
                        .collect();
                    let dir = if rng.gen_range(0..8) == 0 {
                        NodeId::from_index(rng.gen_range(0..model.nodes.len() + 2))
                    } else {
                        dirs[rng.gen_range(0..dirs.len())]
                    };
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
                    assert_same(&tree, &model);
                    if step % 8 == 7 {
                        // Carry on in a clone: same content, its own identity.
                        let copy = tree.clone();
                        assert_ne!(copy.identity(), tree.identity());
                        assert_eq!(copy.node_count(), tree.node_count());
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
