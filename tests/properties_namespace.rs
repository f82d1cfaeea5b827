//! Property-based tests of the namespace-tree substrate.

use d2tree::namespace::{NamespaceTree, NodeKind, NsPath, Popularity, TreeBuilder};
use proptest::prelude::*;

/// Strategy: a list of plausible absolute paths over a tiny alphabet so
/// prefixes collide often (exercising shared-directory code paths).
fn path_strategy() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("(/[a-d]{1,2}){1,6}", 1..40)
}

proptest! {
    #[test]
    fn build_resolve_roundtrip(paths in path_strategy()) {
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
            prop_assert_eq!(tree.resolve(&parsed), Some(id));
            prop_assert_eq!(tree.path_of(id).to_string(), p);
        }
    }

    #[test]
    fn node_count_equals_descendants_of_root(paths in path_strategy()) {
        let mut builder = TreeBuilder::new();
        for p in &paths {
            let _ = builder.file(p);
        }
        let tree = builder.build();
        prop_assert_eq!(tree.node_count(), tree.descendants(tree.root()).count());
        prop_assert_eq!(
            tree.node_count(),
            tree.directory_count() + tree.file_count()
        );
    }

    #[test]
    fn ancestor_chain_lengths_match_depth(paths in path_strategy()) {
        let mut builder = TreeBuilder::new();
        for p in &paths {
            let _ = builder.file(p);
        }
        let tree = builder.build();
        for (id, _) in tree.nodes() {
            let depth = tree.depth(id);
            prop_assert_eq!(tree.ancestors(id).count(), depth);
            prop_assert_eq!(tree.path_from_root(id).len(), depth + 1);
            prop_assert_eq!(tree.path_of(id).depth(), depth);
        }
    }

    #[test]
    fn removal_conserves_counts(paths in path_strategy(), pick in any::<prop::sample::Index>()) {
        let mut builder = TreeBuilder::new();
        for p in &paths {
            let _ = builder.file(p);
        }
        let mut tree = builder.build();
        let candidates: Vec<_> =
            tree.nodes().map(|(id, _)| id).filter(|&id| id != tree.root()).collect();
        if candidates.is_empty() {
            return Ok(());
        }
        let victim = candidates[pick.index(candidates.len())];
        let before = tree.node_count();
        let sub = tree.subtree_size(victim);
        let removed = tree.remove_subtree(victim).unwrap();
        prop_assert_eq!(removed, sub);
        prop_assert_eq!(tree.node_count(), before - removed);
        prop_assert!(!tree.contains(victim));
    }

    #[test]
    fn move_preserves_subtree_and_count(paths in path_strategy(), a in any::<prop::sample::Index>(), b in any::<prop::sample::Index>()) {
        let mut builder = TreeBuilder::new();
        for p in &paths {
            let _ = builder.file(p);
        }
        let mut tree = builder.build();
        let nodes: Vec<_> =
            tree.nodes().map(|(id, _)| id).filter(|&id| id != tree.root()).collect();
        let dirs: Vec<_> = tree
            .nodes()
            .filter(|(_, n)| n.kind().is_directory())
            .map(|(id, _)| id)
            .collect();
        if nodes.is_empty() || dirs.is_empty() {
            return Ok(());
        }
        let subject = nodes[a.index(nodes.len())];
        let dest = dirs[b.index(dirs.len())];
        let before = tree.node_count();
        let sub_size = tree.subtree_size(subject);
        match tree.move_subtree(subject, dest) {
            Ok(()) => {
                prop_assert_eq!(tree.node_count(), before);
                prop_assert_eq!(tree.subtree_size(subject), sub_size);
                let parent = tree.node(subject).unwrap().parent();
                prop_assert_eq!(parent, Some(dest));
            }
            Err(_) => {
                // Rejected moves must leave the tree untouched.
                prop_assert_eq!(tree.node_count(), before);
                prop_assert_eq!(tree.subtree_size(subject), sub_size);
            }
        }
    }

    #[test]
    fn popularity_rollup_is_sum_of_individuals(paths in path_strategy(), weights in proptest::collection::vec(0.0f64..100.0, 40)) {
        let mut builder = TreeBuilder::new();
        for p in &paths {
            let _ = builder.file(p);
        }
        let tree = builder.build();
        let mut pop = Popularity::new(&tree);
        let ids: Vec<_> = tree.nodes().map(|(id, _)| id).collect();
        for (i, id) in ids.iter().enumerate() {
            pop.record(*id, weights[i % weights.len()]);
        }
        pop.rollup(&tree);
        // Root total equals the sum of all individuals.
        let sum: f64 = ids.iter().map(|&id| pop.individual(id)).collect::<Vec<_>>().iter().sum();
        prop_assert!((pop.total(tree.root()) - sum).abs() < 1e-6);
        // Every node's total is at least its own individual and at most
        // its parent's total.
        for &id in &ids {
            prop_assert!(pop.total(id) + 1e-9 >= pop.individual(id));
            if let Some(parent) = tree.node(id).unwrap().parent() {
                prop_assert!(pop.total(parent) + 1e-9 >= pop.total(id));
            }
        }
    }

    #[test]
    fn rename_is_observable_and_reversible(paths in path_strategy()) {
        let mut builder = TreeBuilder::new();
        for p in &paths {
            let _ = builder.file(p);
        }
        let mut tree = builder.build();
        let victim = match tree.nodes().map(|(id, _)| id).find(|&id| id != tree.root()) {
            Some(v) => v,
            None => return Ok(()),
        };
        let old_name = tree.node(victim).unwrap().name().to_owned();
        let unique = "zz_renamed";
        if tree.rename(victim, unique).is_ok() {
            prop_assert_eq!(tree.node(victim).unwrap().name(), unique);
            tree.rename(victim, &old_name).unwrap();
            prop_assert_eq!(tree.node(victim).unwrap().name(), old_name.as_str());
        }
    }
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

    proptest! {
        #[test]
        fn tree_and_trace_roundtrip(paths in super::path_strategy(), picks in proptest::collection::vec(any::<prop::sample::Index>(), 1..50)) {
            let mut builder = TreeBuilder::new();
            for p in &paths {
                let _ = builder.file(p);
            }
            let tree = builder.build();

            let mut buf = Vec::new();
            write_tree(&mut buf, &tree).unwrap();
            let back = read_tree(BufReader::new(buf.as_slice())).unwrap();
            prop_assert_eq!(back.node_count(), tree.node_count());
            for (id, node) in tree.nodes() {
                let p = tree.path_of(id);
                let there = back.resolve(&p);
                prop_assert!(there.is_some(), "missing {}", p);
                prop_assert_eq!(back.node(there.unwrap()).unwrap().kind(), node.kind());
            }

            // A random trace over the original tree replays over the copy.
            let ids: Vec<_> = tree.nodes().map(|(id, _)| id).collect();
            let kinds = [OpKind::Read, OpKind::Write, OpKind::Update];
            let ops: Vec<Operation> = picks
                .iter()
                .enumerate()
                .map(|(i, pick)| Operation {
                    target: ids[pick.index(ids.len())],
                    kind: kinds[i % 3],
                })
                .collect();
            let trace = Trace::from_ops(ops);
            let mut tbuf = Vec::new();
            write_trace(&mut tbuf, &trace, &tree).unwrap();
            let trace_back = read_trace(BufReader::new(tbuf.as_slice()), &back).unwrap();
            prop_assert_eq!(trace_back.len(), trace.len());
            for (a, b) in trace_back.iter().zip(&trace) {
                prop_assert_eq!(a.kind, b.kind);
                prop_assert_eq!(back.path_of(a.target), tree.path_of(b.target));
            }
        }
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
    use d2tree::namespace::NodeId;

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
    fn assert_equivalent(tree: &NamespaceTree, index: &LocalIndex) -> Result<(), TestCaseError> {
        for (id, _) in tree.nodes() {
            let path = tree.path_of(id);
            prop_assert_eq!(tree.resolve(&path), Some(id));
            prop_assert_eq!(string_walk(tree, &path), Some(id));
            let syms = tree.intern_path(&path);
            prop_assert!(syms.is_some(), "live path {} must intern", path);
            prop_assert_eq!(tree.resolve_syms(&syms.unwrap()), Some(id));

            let reference = walk_locate(tree, index, id);
            prop_assert_eq!(index.locate(tree, id), reference);
            prop_assert_eq!(index.locate_uncached(tree, id), reference);
        }
        Ok(())
    }

    fn build(paths: &[String]) -> NamespaceTree {
        let mut builder = TreeBuilder::new();
        for p in paths {
            let _ = builder.file(p);
        }
        builder.build()
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

    proptest! {
        #[test]
        fn interned_resolution_matches_string_walk(paths in path_strategy()) {
            let tree = build(&paths);
            let index = spread_index(&tree);
            assert_equivalent(&tree, &index)?;
        }

        #[test]
        fn equivalence_survives_mutation_sequences(
            paths in path_strategy(),
            kinds in proptest::collection::vec(0u8..4, 12),
            picks_a in proptest::collection::vec(any::<prop::sample::Index>(), 12),
            picks_b in proptest::collection::vec(any::<prop::sample::Index>(), 12),
        ) {
            let mut tree = build(&paths);
            let mut index = spread_index(&tree);
            for ((&kind, a), b) in kinds.iter().zip(&picks_a).zip(&picks_b) {
                let nodes: Vec<NodeId> = tree
                    .nodes()
                    .map(|(id, _)| id)
                    .filter(|&id| id != tree.root())
                    .collect();
                if nodes.is_empty() {
                    break;
                }
                let subject = nodes[a.index(nodes.len())];
                match kind {
                    0 => {
                        // Rename to a name outside the generator alphabet
                        // (collision-free), then keep it — later rounds
                        // may rename it again.
                        let fresh = format!("r{}", subject.index());
                        let _ = tree.rename(subject, &fresh);
                    }
                    1 => {
                        let dirs: Vec<NodeId> = tree
                            .nodes()
                            .filter(|(_, n)| n.kind().is_directory())
                            .map(|(id, _)| id)
                            .collect();
                        let dest = dirs[b.index(dirs.len())];
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
                            index.insert(subject, MdsId((b.index(7)) as u16));
                        }
                    }
                }
                assert_equivalent(&tree, &index)?;
            }
        }

        #[test]
        fn stale_syms_track_renames(paths in path_strategy()) {
            let mut tree = build(&paths);
            let victim = match tree.nodes().map(|(id, _)| id).find(|&id| id != tree.root()) {
                Some(v) => v,
                None => return Ok(()),
            };
            let path = tree.path_of(victim);
            let syms = tree.intern_path(&path).unwrap();
            let old_name = tree.node(victim).unwrap().name().to_owned();
            if tree.rename(victim, "zz_stale").is_ok() {
                // The pre-rename symbol sequence no longer names a node…
                prop_assert_eq!(tree.resolve_syms(&syms), None);
                // …until the rename is undone, when it must work again
                // (symbols are never reclaimed, so the Vec<Sym> is still
                // valid).
                tree.rename(victim, &old_name).unwrap();
                prop_assert_eq!(tree.resolve_syms(&syms), Some(victim));
            }
        }
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
    const SEEDS: [u64; 3] = [1, 7, 42];

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
            for seed in SEEDS {
                let (tree, _) = synthesize_tree(&profile(name).with_nodes(25_000), seed);
                recomputed.push(format!("{name} {seed} 25000 {:016x}", tree_digest(&tree)));
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
            for seed in SEEDS {
                let profile = profile(name).with_nodes(25_000).with_operations(100_000);
                let (tree, _) = synthesize_tree(&profile, seed);
                let digest = trace_digest(TraceGen::new(&profile, &tree, seed));
                recomputed.push(format!("{name} {seed} 25000 100000 {digest:016x}"));
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

/// Model check of the arena across span moves: random `create` /
/// `rename` / `move_subtree` / `remove_subtree` against a
/// `BTreeMap<String, NodeId>`-per-directory model that knows nothing of
/// columns, symbols or the edge pool. Fan-outs cross every span size
/// class up to 256 on the way up and on the way down, and removals
/// vacate spans that later growth reuses.
mod arena_model {
    use super::*;
    use d2tree::namespace::NodeId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
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
    fn assert_same_children(
        tree: &NamespaceTree,
        model: &Model,
        dir: NodeId,
    ) -> Result<(), TestCaseError> {
        let node = tree.node(dir).expect("live");
        let got: Vec<(&str, NodeId)> = node
            .children()
            .map(|(sym, id)| (tree.symbols().resolve(sym), id))
            .collect();
        let want: Vec<(&str, NodeId)> = model.kids[dir.index()]
            .iter()
            .map(|(name, &id)| (name.as_str(), id))
            .collect();
        prop_assert_eq!(node.child_count(), want.len());
        prop_assert_eq!(got, want, "children of {}", dir);
        Ok(())
    }

    fn assert_same(tree: &NamespaceTree, model: &Model) -> Result<(), TestCaseError> {
        prop_assert_eq!(tree.arena_size(), model.nodes.len());
        let live = model.nodes.iter().flatten().count();
        prop_assert_eq!(tree.node_count(), live);
        prop_assert_eq!(tree.nodes().count(), live);
        for slot in 0..model.nodes.len() {
            let id = NodeId::from_index(slot);
            let Some((parent, name, kind)) = model.live(id) else {
                prop_assert!(tree.node(id).is_none() && !tree.contains(id));
                prop_assert_eq!(tree.chain_up(id).collect::<Vec<_>>(), vec![id]);
                prop_assert_eq!(tree.descendants(id).count(), 0);
                continue;
            };
            let node = tree.node(id).expect("live in the model");
            prop_assert_eq!(node.parent(), *parent);
            prop_assert_eq!(node.name(), name.as_str());
            prop_assert_eq!(node.kind(), *kind);
            assert_same_children(tree, model, id)?;
            let path = tree.path_of(id);
            prop_assert_eq!(path.to_string(), model.path(id));
            prop_assert_eq!(tree.resolve(&path), Some(id));
        }
        let mut preorder = Vec::new();
        model.preorder(tree.root(), &mut preorder);
        prop_assert_eq!(tree.descendants(tree.root()).collect::<Vec<_>>(), preorder);
        Ok(())
    }

    /// Fan-out steps that land on and just past each span size class.
    const BURSTS: [usize; 10] = [1, 1, 2, 3, 5, 9, 17, 33, 65, 257];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn arena_matches_a_btreemap_model_across_span_moves(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut tree = NamespaceTree::new();
            let mut model = Model::new();
            // Names from a small space, scattered so inserts land
            // anywhere in a span and collide now and then.
            let name = |rng: &mut StdRng| format!("{}{}", ["a", "b", "é"][rng.gen_range(0..3)], rng.gen_range(0..900));

            // Up through every size class one child at a time, then
            // down again from the middle, beside a second directory
            // whose growth interleaves with it in the pool.
            let hub = tree.create(tree.root(), "hub", NodeKind::Directory).unwrap();
            let side = tree.create(tree.root(), "side", NodeKind::Directory).unwrap();
            prop_assert_eq!(model.create(tree.root(), "hub", NodeKind::Directory), Some(hub));
            prop_assert_eq!(model.create(tree.root(), "side", NodeKind::Directory), Some(side));
            while model.kids[hub.index()].len() < 300 {
                for dir in [hub, side] {
                    let name = name(&mut rng);
                    let made = tree.create(dir, &name, NodeKind::File).ok();
                    prop_assert_eq!(made, model.create(dir, &name, NodeKind::File));
                    assert_same_children(&tree, &model, dir)?;
                }
            }
            assert_same(&tree, &model)?;
            while model.kids[hub.index()].len() > 3 {
                let at = rng.gen_range(0..model.kids[hub.index()].len());
                let victim = *model.kids[hub.index()].values().nth(at).unwrap();
                prop_assert_eq!(tree.remove_subtree(victim).ok(), model.remove_subtree(victim));
                assert_same_children(&tree, &model, hub)?;
            }
            assert_same(&tree, &model)?;

            for step in 0..40 {
                let any_id = |rng: &mut StdRng| NodeId::from_index(rng.gen_range(0..model.nodes.len()));
                let subject = any_id(&mut rng);
                // Mostly a live directory; sometimes any slot, so files
                // and tombstones are refused the same way.
                let dirs: Vec<NodeId> = (0..model.nodes.len())
                    .map(NodeId::from_index)
                    .filter(|&id| model.is_dir(id))
                    .collect();
                let dir = if rng.gen_range(0..8) == 0 {
                    any_id(&mut rng)
                } else {
                    dirs[rng.gen_range(0..dirs.len())]
                };
                match rng.gen_range(0..10) {
                    0..=4 => {
                        for _ in 0..BURSTS[rng.gen_range(0..BURSTS.len())] {
                            let name = name(&mut rng);
                            let kind = if rng.gen_range(0..4) == 0 {
                                NodeKind::Directory
                            } else {
                                NodeKind::File
                            };
                            let made = tree.create(dir, &name, kind).ok();
                            prop_assert_eq!(made, model.create(dir, &name, kind));
                        }
                    }
                    5 | 6 => {
                        let name = name(&mut rng);
                        prop_assert_eq!(tree.rename(subject, &name).is_ok(), model.rename(subject, &name));
                    }
                    7 | 8 => {
                        prop_assert_eq!(tree.move_subtree(subject, dir).is_ok(), model.move_subtree(subject, dir));
                    }
                    _ => {
                        prop_assert_eq!(tree.remove_subtree(dir).ok(), model.remove_subtree(dir));
                    }
                }
                assert_same(&tree, &model)?;
                if step % 8 == 7 {
                    // Carry on in a clone: same content, its own identity.
                    let copy = tree.clone();
                    prop_assert_ne!(copy.identity(), tree.identity());
                    prop_assert_eq!(copy.version(), tree.version());
                    assert_same(&copy, &model)?;
                    tree = copy;
                }
            }
        }
    }
}

/// Model check of the sparse attribute table: seeded `update` /
/// `apply_if_newer` / `create` + `resize_for` / `clone` sequences
/// against the dense one-record-per-slot table it replaced, which knows
/// nothing of maps or bitmaps.
mod attr_model {
    use super::*;
    use d2tree::namespace::{AttrTable, FileAttr, NodeId, VersionedAttr};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
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

    fn assert_same(
        table: &AttrTable,
        dense: &Dense,
        tree: &NamespaceTree,
        rng: &mut StdRng,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(table.len(), dense.records.len());
        let mut left_default = 0;
        for (slot, &want) in dense.records.iter().enumerate() {
            let id = NodeId::from_index(slot);
            prop_assert_eq!(table.get(id), want, "slot {}", slot);
            let kind = tree.node(id).expect("nothing is removed").kind();
            left_default += usize::from(want != default_of(kind));
        }
        // Sparse means sparse: a record per slot that left its default.
        prop_assert_eq!(table.record_count(), left_default);
        prop_assert_eq!(table.records().count(), left_default);
        for _ in 0..8 {
            let node = NodeId::from_index(rng.gen_range(0..dense.records.len()));
            let (uid, gid) = (IDS[rng.gen_range(0..3)], IDS[rng.gen_range(0..3)]);
            prop_assert_eq!(
                table.permission_walk(tree, node, uid, gid),
                dense.permission_walk(tree, node, uid, gid),
                "walk to {} as {}:{}",
                node,
                uid,
                gid
            );
        }
        Ok(())
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn sparse_table_matches_the_dense_one_it_replaced(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut tree = NamespaceTree::new();
            let mut dirs = vec![tree.root()];
            let mut grow = |tree: &mut NamespaceTree, rng: &mut StdRng, at_least: usize| {
                for _ in 0..rng.gen_range(at_least..70) {
                    let parent = dirs[rng.gen_range(0..dirs.len())];
                    let kind = if rng.gen_range(0..3) == 0 { NodeKind::Directory } else { NodeKind::File };
                    let id = tree.create(parent, &format!("n{}", tree.arena_size()), kind).unwrap();
                    if kind.is_directory() {
                        dirs.push(id);
                    }
                }
            };
            grow(&mut tree, &mut rng, 0);
            let mut table = AttrTable::new(&tree);
            let mut dense = Dense::new(&tree);
            assert_same(&table, &dense, &tree, &mut rng)?;

            for _ in 0..120 {
                let node = NodeId::from_index(rng.gen_range(0..tree.arena_size()));
                match rng.gen_range(0..10) {
                    0..=3 => {
                        let to = random_attr(&mut rng);
                        // Sometimes a mutation that changes nothing: the
                        // version still moves, so the record stays.
                        let changes = rng.gen_range(0..5) != 0;
                        let mutate = |a: &mut FileAttr| if changes { *a = to };
                        prop_assert_eq!(table.update(node, mutate), dense.update(node, mutate));
                    }
                    4..=6 => {
                        // Older, equal and newer in equal measure.
                        let version = (dense.records[node.index()].version + rng.gen_range(0..3u64)).saturating_sub(1);
                        let incoming = VersionedAttr { attr: random_attr(&mut rng), version };
                        prop_assert_eq!(table.apply_if_newer(node, incoming), dense.apply_if_newer(node, incoming));
                    }
                    7 | 8 => {
                        let first_new = NodeId::from_index(tree.arena_size());
                        grow(&mut tree, &mut rng, 1);
                        assert_outside(&table, &tree, first_new);
                        table.resize_for(&tree);
                        dense.resize_for(&tree);
                    }
                    _ => table = table.clone(),
                }
                assert_same(&table, &dense, &tree, &mut rng)?;
            }
            assert_outside(&table, &tree, NodeId::from_index(tree.arena_size()));
        }
    }
}
