//! Seeded Zipf sampling over `n` ranks.

use rand::Rng;

/// The most draws [`Zipf::ranks_of`] ranks at once.
pub(crate) const BLOCK: usize = 64;

/// A Zipf–Mandelbrot(`n`, `s`, `q`) distribution sampler.
///
/// Rank `k` (1-based) is drawn with probability proportional to
/// `1 / (k + q)^s`; `q = 0` is the classic Zipf law. The shift `q`
/// flattens the head of the distribution — with `q = 0` rank 1 can hold
/// 20%+ of all mass, which is far more concentrated than real filesystem
/// traces, while the top-1% aggregate share (what the global layer
/// captures) stays tunable through `s`.
///
/// The sampler precomputes the cumulative weight table once (`O(n)`
/// memory) and draws by inverting it, which — unlike rejection samplers
/// — exactly matches the weights used for analytic popularity
/// assignment. A guide table beside it (one `u32` per rank) cuts the
/// total mass into `n` equal buckets and records the first rank each
/// one can hold, so a draw binary-searches only its bucket's few ranks:
/// `O(1)` expected per sample instead of `O(log n)`, and the same rank.
///
/// # Example
///
/// ```
/// use d2tree_workload::Zipf;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let zipf = Zipf::new(1_000, 1.1);
/// let mut rng = StdRng::seed_from_u64(7);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 1_000);
/// // Rank 0 is the most likely single rank.
/// assert!(zipf.weight(0) > zipf.weight(1));
///
/// // A shifted distribution has a much flatter head.
/// let shifted = Zipf::with_shift(1_000, 1.1, 50.0);
/// assert!(shifted.weight(0) < zipf.weight(0));
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
    /// `guide[b]` is the number of ranks whose cumulative weight falls
    /// in a bucket below `b` (see [`bucket`](Self::bucket)): the first
    /// rank a draw from bucket `b` can return.
    guide: Vec<u32>,
    /// Buckets per unit of weight: `n / total`.
    scale: f64,
    exponent: f64,
    shift: f64,
}

impl Zipf {
    /// Builds the classic (unshifted) sampler for `n` ranks with
    /// exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n` exceeds `u32::MAX`, or `s` is negative
    /// or non-finite.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        Self::with_shift(n, s, 0.0)
    }

    /// Builds a Zipf–Mandelbrot sampler with head-flattening shift `q`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n` exceeds `u32::MAX`, `s` is negative or
    /// non-finite, or `q` is negative or non-finite.
    #[must_use]
    pub fn with_shift(n: usize, s: f64, q: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            s.is_finite() && s >= 0.0,
            "Zipf exponent must be finite and non-negative"
        );
        assert!(
            q.is_finite() && q >= 0.0,
            "Zipf shift must be finite and non-negative"
        );
        assert!(u32::try_from(n).is_ok(), "Zipf ranks must fit in u32");
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64 + q).powf(s);
            cumulative.push(acc);
        }
        let mut zipf = Zipf {
            scale: n as f64 / acc,
            cumulative,
            guide: Vec::with_capacity(n),
            exponent: s,
            shift: q,
        };
        let mut rank = 0;
        for b in 0..n {
            while rank < n && zipf.bucket(zipf.cumulative[rank]) < b {
                rank += 1;
            }
            zipf.guide.push(rank as u32);
        }
        zipf
    }

    /// The guide bucket of weight `w`, one of `n`. Monotone in `w` — a
    /// rounded product with a positive constant, floored and clamped — so
    /// a cumulative weight in a lower bucket than `x` is at most `x`, and
    /// one in a higher bucket is above it.
    fn bucket(&self, w: f64) -> usize {
        ((w * self.scale) as usize).min(self.cumulative.len() - 1)
    }

    /// Number of ranks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the distribution has no ranks (never true for a constructed
    /// sampler).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// The exponent `s`.
    #[must_use]
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// The Mandelbrot shift `q` (0 for classic Zipf).
    #[must_use]
    pub fn shift(&self) -> f64 {
        self.shift
    }

    /// Probability mass of 0-based rank `k`.
    #[must_use]
    pub fn weight(&self, k: usize) -> f64 {
        let prev = if k == 0 { 0.0 } else { self.cumulative[k - 1] };
        (self.cumulative[k] - prev) / self.total()
    }

    /// Draws a 0-based rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let mut rank = [0];
        self.ranks_of(&[rng.gen_range(0.0..self.total())], &mut rank);
        rank[0] as usize
    }

    /// The unnormalised total weight: draws are uniform in `[0, total)`.
    pub(crate) fn total(&self) -> f64 {
        *self.cumulative.last().expect("non-empty")
    }

    /// The rank each draw `xs[i]` in `[0, total)` selects, into
    /// `ranks[i]`: the number of cumulative weights at most the draw.
    /// Since [`bucket`](Self::bucket) is monotone, every rank below
    /// `guide[b]` has a weight at most `x` and every rank from
    /// `guide[b + 1]` on one above it, so searching that bracket gives
    /// the full search's rank.
    ///
    /// Two passes — every draw's bracket, then every bracket's search —
    /// so the loads of one pass do not wait on each other and a block
    /// of draws pays its cache misses together, not one chain at a time.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or hold more than
    /// [`BLOCK`] draws.
    pub(crate) fn ranks_of(&self, xs: &[f64], ranks: &mut [u32]) {
        assert!(xs.len() == ranks.len() && xs.len() <= BLOCK);
        let c = &self.cumulative;
        let mut his = [0u32; BLOCK];
        for ((&x, lo), hi) in xs.iter().zip(ranks.iter_mut()).zip(&mut his) {
            let b = self.bucket(x);
            *lo = self.guide[b];
            *hi = self.guide.get(b + 1).map_or(c.len() as u32, |&r| r);
        }
        for ((&x, rank), &hi) in xs.iter().zip(ranks.iter_mut()).zip(&his) {
            let lo = *rank as usize;
            *rank += c[lo..hi as usize].partition_point(|&w| w <= x) as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn weights_sum_to_one() {
        let z = Zipf::new(100, 1.2);
        let total: f64 = (0..100).map(|k| z.weight(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skew_increases_with_exponent() {
        let flat = Zipf::new(1000, 0.0);
        let skewed = Zipf::new(1000, 1.5);
        assert!((flat.weight(0) - 0.001).abs() < 1e-9);
        assert!(skewed.weight(0) > 0.1);
    }

    #[test]
    fn sampling_matches_weights_roughly() {
        let z = Zipf::new(10, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (k, &count) in counts.iter().enumerate() {
            let expected = z.weight(k) * n as f64;
            let got = count as f64;
            assert!(
                (got - expected).abs() < 5.0 * expected.sqrt().max(10.0),
                "rank {k}: expected ~{expected}, got {got}"
            );
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let z = Zipf::new(500, 1.1);
        let a: Vec<usize> = (0..50)
            .scan(StdRng::seed_from_u64(9), |r, _| Some(z.sample(r)))
            .collect();
        let b: Vec<usize> = (0..50)
            .scan(StdRng::seed_from_u64(9), |r, _| Some(z.sample(r)))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        let _ = Zipf::new(0, 1.0);
    }

    /// The guide-table search, in blocks of draws, picks the rank the
    /// full binary search would, and the guide brackets it, for random
    /// draws, at every cumulative weight and its two float neighbours,
    /// and just below the total — across sizes, the three presets'
    /// exponents and shifts, and the flat `s = 0`.
    #[test]
    fn guide_table_rank_equals_the_full_search() {
        use crate::TraceProfile;
        let shapes = [
            TraceProfile::dtr(),
            TraceProfile::lmbe(),
            TraceProfile::ra(),
        ]
        .map(|p| (p.zipf_exponent, p.zipf_shift));
        let mut rng = StdRng::seed_from_u64(0x6a1de);
        for n in [1, 2, 3, 1_000, 200_000] {
            for (s, q) in shapes.into_iter().chain([(0.0, 0.0)]) {
                let z = Zipf::with_shift(n, s, q);
                let c = &z.cumulative;
                let total = c[n - 1];
                let full = |x: f64| c.partition_point(|&w| w <= x);
                let mut xs: Vec<f64> = (0..20_000).map(|_| rng.gen_range(0.0..total)).collect();
                for &w in c {
                    xs.extend([w.next_down(), w, w.next_up()]);
                }
                xs.extend([0.0, total.next_down()]);
                xs.retain(|x| (0.0..total).contains(x));
                let mut ranks = vec![0; xs.len()];
                for (chunk, out) in xs.chunks(BLOCK).zip(ranks.chunks_mut(BLOCK)) {
                    z.ranks_of(chunk, out);
                }
                for (x, got) in xs.into_iter().zip(ranks) {
                    let rank = full(x);
                    assert_eq!(got as usize, rank, "n {n}, s {s}, q {q}, x {x:e}");
                    // The guide brackets the rank, which is what lets
                    // `ranks_of` search only the bracket.
                    let b = z.bucket(x);
                    let hi = z.guide.get(b + 1).map_or(n, |&r| r as usize);
                    assert!(
                        (z.guide[b] as usize..=hi).contains(&rank),
                        "n {n}, s {s}, q {q}, x {x:e}: rank {rank} outside bucket {b}"
                    );
                }
            }
        }
    }
}
