//! Operation streams over a synthesised namespace.

use d2tree_namespace::{NamespaceTree, NodeId, Popularity};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::profile::TraceProfile;
use crate::synth::{synthesize_tree, SynthesisReport};
use crate::zipf::Zipf;

/// Kind of a metadata operation (the paper's filtered trace, Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Metadata read — a pure query against the MDS cluster.
    Read,
    /// Metadata write (e.g. create/stat-update on open) — also served as a
    /// query; the paper notes read and write "only cause simply a query
    /// operation to MDS's".
    Write,
    /// Metadata update — mutates the node; takes the global-layer lock if
    /// the target is replicated.
    Update,
}

impl OpKind {
    /// Whether the operation mutates metadata.
    #[must_use]
    pub fn is_mutation(self) -> bool {
        matches!(self, OpKind::Update)
    }
}

/// One trace record: an operation aimed at a namespace node.
///
/// Packed to 5 bytes, where alignment would pad it to 8: a trace is
/// held whole, a million records per process at benchmark scale. Read
/// the fields by value (`op.target`); a reference to a field of a packed
/// struct does not compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[repr(C, packed)]
pub struct Operation {
    /// Target node.
    pub target: NodeId,
    /// Operation kind.
    pub kind: OpKind,
}

/// A materialised operation trace.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    ops: Vec<Operation>,
}

impl Trace {
    /// Wraps a vector of operations.
    #[must_use]
    pub fn from_ops(ops: Vec<Operation>) -> Self {
        Trace { ops }
    }

    /// Number of operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operations in replay order.
    #[must_use]
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// Iterates over the operations.
    pub fn iter(&self) -> impl Iterator<Item = &Operation> + '_ {
        self.ops.iter()
    }

    /// Accumulates per-node individual popularity from this trace
    /// (1 unit per operation, any kind) and rolls it up.
    #[must_use]
    pub fn popularity(&self, tree: &NamespaceTree) -> Popularity {
        let mut pop = Popularity::new(tree);
        for op in &self.ops {
            pop.record(op.target, 1.0);
        }
        pop.rollup(tree);
        pop
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Operation;
    type IntoIter = std::slice::Iter<'a, Operation>;

    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter()
    }
}

impl FromIterator<Operation> for Trace {
    fn from_iter<T: IntoIterator<Item = Operation>>(iter: T) -> Self {
        Trace {
            ops: iter.into_iter().collect(),
        }
    }
}

impl Extend<Operation> for Trace {
    fn extend<T: IntoIterator<Item = Operation>>(&mut self, iter: T) {
        self.ops.extend(iter);
    }
}

/// Lazy, seeded operation generator.
///
/// Popularity ranks are fixed at construction: node hotness is
/// `shallow_bias · normalised_depth + (1 − shallow_bias) · noise`
/// (lower is hotter), and the `k`-th hottest node receives the `k`-th Zipf
/// rank. Each [`next`](Iterator::next) then draws a target by Zipf rank and
/// a kind by the profile's operation mix.
#[derive(Debug)]
pub struct TraceGen {
    order: Vec<NodeId>,
    zipf: Zipf,
    read: f64,
    write: f64,
    remaining: usize,
    rng: StdRng,
}

impl TraceGen {
    /// Builds a generator over `tree` for `profile`, seeded by `seed`.
    #[must_use]
    pub fn new(profile: &TraceProfile, tree: &NamespaceTree, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let max_depth = tree.max_depth().max(1) as f64;

        let mut depth = vec![0usize; tree.arena_size()];
        let mut keyed: Vec<(f64, NodeId)> = Vec::with_capacity(tree.node_count());
        for (id, node) in tree.nodes() {
            if let Some(p) = node.parent() {
                depth[id.index()] = depth[p.index()] + 1;
            }
            let noise: f64 = rng.gen_range(0.0..1.0);
            let key = profile.shallow_bias * (depth[id.index()] as f64 / max_depth)
                + (1.0 - profile.shallow_bias) * noise;
            keyed.push((key, id));
        }
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let order: Vec<NodeId> = keyed.into_iter().map(|(_, id)| id).collect();
        let zipf = Zipf::with_shift(order.len(), profile.zipf_exponent, profile.zipf_shift);
        TraceGen {
            order,
            zipf,
            read: profile.op_mix.read,
            write: profile.op_mix.write,
            remaining: profile.operations,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The hotness ordering: element 0 is the hottest node.
    #[must_use]
    pub fn hot_order(&self) -> &[NodeId] {
        &self.order
    }
}

impl Iterator for TraceGen {
    type Item = Operation;

    fn next(&mut self) -> Option<Operation> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let target = self.order[self.zipf.sample(&mut self.rng)];
        let x: f64 = self.rng.gen_range(0.0..1.0);
        let kind = if x < self.read {
            OpKind::Read
        } else if x < self.read + self.write {
            OpKind::Write
        } else {
            OpKind::Update
        };
        Some(Operation { target, kind })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for TraceGen {}

/// A fully generated workload: the synthesised tree plus its trace.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The profile the workload was generated from.
    pub profile: TraceProfile,
    /// Synthesised namespace tree.
    pub tree: NamespaceTree,
    /// Shape summary of the synthesis.
    pub report: SynthesisReport,
    /// Generated operation trace.
    pub trace: Trace,
}

impl Workload {
    /// Popularity accumulated from the whole trace, rolled up.
    #[must_use]
    pub fn popularity(&self) -> Popularity {
        self.trace.popularity(&self.tree)
    }
}

/// Builder tying a [`TraceProfile`] and a seed into a [`Workload`].
///
/// # Example
///
/// ```
/// use d2tree_workload::{TraceProfile, WorkloadBuilder};
///
/// let w = WorkloadBuilder::new(TraceProfile::ra().with_nodes(500).with_operations(1_000))
///     .seed(1)
///     .build();
/// assert_eq!(w.trace.len(), 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    profile: TraceProfile,
    seed: u64,
}

impl WorkloadBuilder {
    /// Starts a builder for `profile` with seed 0.
    #[must_use]
    pub fn new(profile: TraceProfile) -> Self {
        WorkloadBuilder { profile, seed: 0 }
    }

    /// Sets the generation seed (tree and trace both derive from it).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Synthesises the tree and generates the trace.
    #[must_use]
    pub fn build(self) -> Workload {
        let (tree, report) = synthesize_tree(&self.profile, self.seed);
        let trace: Trace = TraceGen::new(&self.profile, &tree, self.seed).collect();
        Workload {
            profile: self.profile,
            tree,
            report,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::OpMix;

    fn small(profile: TraceProfile) -> Workload {
        WorkloadBuilder::new(profile.with_nodes(1_000).with_operations(20_000))
            .seed(5)
            .build()
    }

    #[test]
    fn generates_requested_op_count() {
        let w = small(TraceProfile::dtr());
        assert_eq!(w.trace.len(), 20_000);
    }

    #[test]
    fn op_mix_close_to_profile() {
        let w = small(TraceProfile::ra());
        let updates = w.trace.iter().filter(|o| o.kind == OpKind::Update).count() as f64;
        let frac = updates / w.trace.len() as f64;
        assert!(
            (frac - OpMix::ra().update).abs() < 0.02,
            "update fraction {frac}"
        );
    }

    #[test]
    fn shallow_bias_concentrates_on_shallow_nodes() {
        let deep_biased = small(TraceProfile::dtr().with_shallow_bias(0.95));
        let unbiased = small(TraceProfile::dtr().with_shallow_bias(0.0));
        let mean_depth = |w: &Workload| {
            let total: usize = w.trace.iter().map(|o| w.tree.depth(o.target)).sum();
            total as f64 / w.trace.len() as f64
        };
        assert!(mean_depth(&deep_biased) < mean_depth(&unbiased));
    }

    #[test]
    fn popularity_counts_every_op() {
        let w = small(TraceProfile::lmbe());
        let pop = w.popularity();
        assert_eq!(pop.total(w.tree.root()), w.trace.len() as f64);
    }

    #[test]
    fn trace_is_deterministic() {
        let a = small(TraceProfile::dtr());
        let b = small(TraceProfile::dtr());
        assert_eq!(a.trace.ops(), b.trace.ops());
    }

    #[test]
    fn mutation_predicate() {
        assert!(OpKind::Update.is_mutation());
        assert!(!OpKind::Read.is_mutation());
        assert!(!OpKind::Write.is_mutation());
    }

    #[test]
    fn trace_collects_from_iterator() {
        let w = small(TraceProfile::lmbe());
        let reads: Trace = w
            .trace
            .iter()
            .copied()
            .filter(|o| o.kind == OpKind::Read)
            .collect();
        assert!(!reads.is_empty());
        assert!(reads.len() < w.trace.len());
    }

    #[test]
    fn hot_order_covers_all_nodes() {
        let p = TraceProfile::dtr().with_nodes(300).with_operations(1);
        let (tree, _) = synthesize_tree(&p, 2);
        let gen = TraceGen::new(&p, &tree, 2);
        assert_eq!(gen.hot_order().len(), tree.node_count());
    }
}
