//! Operation streams over a synthesised namespace.

use d2tree_namespace::{NamespaceTree, NodeId, Popularity};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::profile::TraceProfile;
use crate::synth::{synthesize_tree, SynthesisReport};
use crate::zipf::{Zipf, BLOCK};

/// Kind of a metadata operation (the paper's filtered trace, Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, packed)]
pub struct Operation {
    /// Target node.
    pub target: NodeId,
    /// Operation kind.
    pub kind: OpKind,
}

/// A materialised operation trace.
#[derive(Debug, Clone, Default)]
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
    /// Pushes through `for_each`, so a [`TraceGen`] hands over its ops a
    /// block at a time.
    fn from_iter<T: IntoIterator<Item = Operation>>(iter: T) -> Self {
        let iter = iter.into_iter();
        let mut ops = Vec::with_capacity(iter.size_hint().0);
        iter.for_each(|op| ops.push(op));
        Trace { ops }
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
/// rank. Each op then draws a target by Zipf rank and a kind by the
/// profile's operation mix.
///
/// Ops are drawn 64 at a time, in passes — every op's two uniforms in
/// stream order, then every Zipf rank, then every target — so the table
/// loads of a block overlap instead of waiting on each other;
/// [`next`](Iterator::next) and [`fold`](Iterator::fold) serve from the
/// block. The uniforms come off the RNG in the order one-op-at-a-time
/// drawing takes them, so the ops are the same whatever the consumer
/// takes.
#[derive(Debug)]
pub struct TraceGen {
    order: Vec<NodeId>,
    zipf: Zipf,
    read: f64,
    write: f64,
    /// Ops not yet drawn into `block`.
    remaining: usize,
    rng: StdRng,
    block: [Operation; BLOCK],
    /// `block[served..drawn]` are drawn and not yet served.
    served: usize,
    drawn: usize,
}

impl TraceGen {
    /// Builds a generator over `tree` for `profile`, seeded by `seed`.
    #[must_use]
    pub fn new(profile: &TraceProfile, tree: &NamespaceTree, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let depth = tree.depths();
        let max_depth = f64::from(depth.iter().copied().max().unwrap_or(0).max(1));

        // Each node's hotness key and id packed into one integer whose
        // order is `(key by f64::total_cmp, id)`: the keys are unique —
        // no two share an id — so the unstable sort yields the one order
        // a stable sort would.
        let mut keyed: Vec<u128> = Vec::with_capacity(tree.node_count());
        for (id, _) in tree.nodes() {
            let noise: f64 = rng.gen_range(0.0..1.0);
            let key = profile.shallow_bias * (f64::from(depth[id.index()]) / max_depth)
                + (1.0 - profile.shallow_bias) * noise;
            keyed.push(u128::from(total_order_bits(key)) << 32 | id.index() as u128);
        }
        keyed.sort_unstable();
        let order: Vec<NodeId> = keyed
            .into_iter()
            .map(|k| NodeId::from_index(k as u32 as usize))
            .collect();
        let zipf = Zipf::with_shift(order.len(), profile.zipf_exponent, profile.zipf_shift);
        TraceGen {
            order,
            zipf,
            read: profile.op_mix.read,
            write: profile.op_mix.write,
            remaining: profile.operations,
            rng: StdRng::seed_from_u64(seed),
            block: [Operation {
                target: NodeId::ROOT,
                kind: OpKind::Read,
            }; BLOCK],
            served: 0,
            drawn: 0,
        }
    }

    /// Draws the next block of ops.
    fn draw_block(&mut self) {
        let n = self.remaining.min(BLOCK);
        self.remaining -= n;
        let total = self.zipf.total();
        let (mut xs, mut us) = ([0.0; BLOCK], [0.0; BLOCK]);
        for (x, u) in xs[..n].iter_mut().zip(&mut us[..n]) {
            *x = self.rng.gen_range(0.0..total);
            *u = self.rng.gen_range(0.0..1.0);
        }
        let mut ranks = [0; BLOCK];
        self.zipf.ranks_of(&xs[..n], &mut ranks[..n]);
        for ((op, &rank), &u) in self.block.iter_mut().zip(&ranks[..n]).zip(&us[..n]) {
            let kind = if u < self.read {
                OpKind::Read
            } else if u < self.read + self.write {
                OpKind::Write
            } else {
                OpKind::Update
            };
            *op = Operation {
                target: self.order[rank as usize],
                kind,
            };
        }
        self.served = 0;
        self.drawn = n;
    }
}

/// The bits of `x` as an unsigned integer that orders as
/// [`f64::total_cmp`] orders the floats — negative keys included, which
/// an out-of-range `shallow_bias` makes.
fn total_order_bits(x: f64) -> u64 {
    // `total_cmp`'s transform to a signed integer: flip the magnitude
    // bits of negatives. Flipping the sign bit then orders it unsigned.
    let bits = x.to_bits() as i64;
    let signed = bits ^ (((bits >> 63) as u64) >> 1) as i64;
    signed as u64 ^ (1 << 63)
}

impl Iterator for TraceGen {
    type Item = Operation;

    fn next(&mut self) -> Option<Operation> {
        if self.served == self.drawn {
            if self.remaining == 0 {
                return None;
            }
            self.draw_block();
        }
        self.served += 1;
        Some(self.block[self.served - 1])
    }

    /// Serves what is left of the block, then block after block, in one
    /// tight loop each instead of a call to `next` per op.
    fn fold<B, F: FnMut(B, Operation) -> B>(mut self, init: B, mut f: F) -> B {
        let mut acc = init;
        loop {
            for &op in &self.block[self.served..self.drawn] {
                acc = f(acc, op);
            }
            if self.remaining == 0 {
                return acc;
            }
            self.draw_block();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.remaining + (self.drawn - self.served);
        (left, Some(left))
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

    /// Blocked drawing yields the ops one-at-a-time drawing does — a
    /// Zipf sample, then the kind's uniform, per op — however they are
    /// taken: op by op, collected through `next` or `fold`, or cut short
    /// on either side of a block boundary; and `len()` is exact between
    /// any two ops.
    #[test]
    fn blocked_draws_equal_one_op_at_a_time() {
        let p = TraceProfile::lmbe()
            .with_nodes(500)
            .with_operations(3 * BLOCK + 8);
        let (tree, _) = synthesize_tree(&p, 4);
        let gen = || TraceGen::new(&p, &tree, 4);
        let reference: Vec<Operation> = {
            let g = gen();
            let mut rng = StdRng::seed_from_u64(4);
            (0..p.operations)
                .map(|_| {
                    let target = g.order[g.zipf.sample(&mut rng)];
                    let u: f64 = rng.gen_range(0.0..1.0);
                    let kind = if u < g.read {
                        OpKind::Read
                    } else if u < g.read + g.write {
                        OpKind::Write
                    } else {
                        OpKind::Update
                    };
                    Operation { target, kind }
                })
                .collect()
        };
        let mut g = gen();
        let mut one_by_one = Vec::new();
        for taken in 0..p.operations {
            assert_eq!(g.len(), p.operations - taken);
            one_by_one.push(g.next().expect("len() ops remain"));
        }
        assert_eq!(g.len(), 0);
        assert_eq!(g.next(), None);
        assert_eq!(one_by_one, reference);
        assert_eq!(gen().collect::<Vec<_>>(), reference);
        // A `Trace` collects through `fold`, block by block.
        assert_eq!(gen().collect::<Trace>().ops(), reference);
        for k in [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, p.operations] {
            let mut g = gen();
            let head: Vec<Operation> = g.by_ref().take(k).collect();
            assert_eq!(head, reference[..k], "take({k})");
            assert_eq!(g.len(), p.operations - k, "len() after take({k})");
            assert_eq!(
                g.collect::<Trace>().ops(),
                &reference[k..],
                "the rest after take({k})"
            );
        }
    }

    /// The packed hot-order keys compare as `f64::total_cmp` does,
    /// signs, zeros, infinities and NaNs included.
    #[test]
    fn total_order_bits_order_as_total_cmp() {
        let xs = [
            f64::NEG_INFINITY,
            -2.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 2.0,
            0.3,
            1.0,
            1.0f64.next_up(),
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(
                    total_order_bits(a).cmp(&total_order_bits(b)),
                    a.total_cmp(&b),
                    "{a:e} vs {b:e}"
                );
            }
        }
    }
}
