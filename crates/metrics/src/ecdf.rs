//! Empirical CDFs and equi-probability histograms (Def. 6).

/// An empirical cumulative distribution function over `f64` samples.
///
/// Backing store is the sorted sample vector; evaluation is a binary
/// search. This is the `F_k(·)` of Theorem 2 and the workhorse behind
/// mirror division.
///
/// # Example
///
/// ```
/// use d2tree_metrics::Ecdf;
///
/// let e = Ecdf::from_samples(vec![1.0, 2.0, 2.0, 4.0]);
/// assert_eq!(e.eval(0.5), 0.0);
/// assert_eq!(e.eval(2.0), 0.75);
/// assert_eq!(e.eval(9.0), 1.0);
/// assert_eq!(e.quantile(0.5), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF, sorting the samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains non-finite values.
    #[must_use]
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "ECDF needs at least one sample");
        assert!(
            samples.iter().all(|v| v.is_finite()),
            "ECDF samples must be finite"
        );
        samples.sort_by(f64::total_cmp);
        Ecdf { sorted: samples }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the ECDF has no samples (never true once constructed).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F(x)`: fraction of samples `≤ x`.
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        let below = self.sorted.partition_point(|&s| s <= x);
        below as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`): smallest sample `v` with
    /// `F(v) ≥ q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be within [0, 1]");
        if q == 0.0 {
            return self.sorted[0];
        }
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted[rank - 1]
    }

    /// The Kolmogorov–Smirnov statistic `sup |F(x) − G(x)|` against another
    /// ECDF, the quantity the DKW inequality (Thm. 2) bounds.
    #[must_use]
    pub fn sup_distance(&self, other: &Ecdf) -> f64 {
        let mut sup: f64 = 0.0;
        for &x in self.sorted.iter().chain(&other.sorted) {
            sup = sup.max((self.eval(x) - other.eval(x)).abs());
            // Also check just below each jump point.
            let eps = x.abs().max(1.0) * 1e-12;
            sup = sup.max((self.eval(x - eps) - other.eval(x - eps)).abs());
        }
        sup
    }

    /// Minimum sample.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum sample.
    #[must_use]
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }
}

/// The equi-probability histogram of Def. 6: boundaries
/// `{x_i, i = 1..k; Δx}` such that every interval `[x_i, x_i+1]` carries the
/// same probability mass `Δx = 1/(k−1)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    boundaries: Vec<f64>,
}

impl Histogram {
    /// Builds a `k`-boundary (`k−1`-bin) equi-probability histogram from an
    /// ECDF.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    #[must_use]
    pub fn equi_probability(ecdf: &Ecdf, k: usize) -> Self {
        assert!(k >= 2, "a histogram needs at least two boundaries");
        let boundaries = (0..k)
            .map(|i| ecdf.quantile(i as f64 / (k - 1) as f64))
            .collect();
        Histogram { boundaries }
    }

    /// The boundary values `x_1 ≤ x_2 ≤ … ≤ x_k`.
    #[must_use]
    pub fn boundaries(&self) -> &[f64] {
        &self.boundaries
    }

    /// The per-bin probability mass `Δx = 1/(k−1)` (Eq. 8–9).
    #[must_use]
    pub fn delta(&self) -> f64 {
        1.0 / (self.boundaries.len() as f64 - 1.0)
    }

    /// Index of the bin containing `x` (clamped to the outermost bins).
    #[must_use]
    pub fn bin_of(&self, x: f64) -> usize {
        let k = self.boundaries.len();
        let idx = self.boundaries.partition_point(|&b| b <= x);
        idx.saturating_sub(1).min(k - 2)
    }

    /// Number of bins (`k − 1`).
    #[must_use]
    pub fn bin_count(&self) -> usize {
        self.boundaries.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_is_a_step_function() {
        let e = Ecdf::from_samples(vec![3.0, 1.0, 2.0]);
        assert_eq!(e.eval(0.9), 0.0);
        assert!((e.eval(1.0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((e.eval(2.5) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(e.eval(3.0), 1.0);
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 3.0);
    }

    #[test]
    fn quantiles_invert_eval() {
        let e = Ecdf::from_samples((1..=100).map(f64::from).collect());
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(0.5), 50.0);
        assert_eq!(e.quantile(1.0), 100.0);
    }

    #[test]
    fn sup_distance_of_identical_is_zero() {
        let e = Ecdf::from_samples(vec![1.0, 2.0, 3.0]);
        assert_eq!(e.sup_distance(&e.clone()), 0.0);
    }

    #[test]
    fn sup_distance_detects_shift() {
        let a = Ecdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
        let b = Ecdf::from_samples(vec![101.0, 102.0, 103.0, 104.0]);
        assert_eq!(a.sup_distance(&b), 1.0);
        assert_eq!(b.sup_distance(&a), 1.0);
    }

    #[test]
    fn sup_distance_shrinks_with_sample_size() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1);
        let full: Vec<f64> = (0..20_000).map(|_| rng.gen_range(0.0..1.0)).collect();
        let small = Ecdf::from_samples(full[..100].to_vec());
        let big = Ecdf::from_samples(full[..10_000].to_vec());
        let reference = Ecdf::from_samples(full.clone());
        assert!(big.sup_distance(&reference) < small.sup_distance(&reference));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_ecdf_panics() {
        let _ = Ecdf::from_samples(vec![]);
    }

    #[test]
    fn histogram_bins_have_equal_mass() {
        let e = Ecdf::from_samples((1..=1000).map(f64::from).collect());
        let h = Histogram::equi_probability(&e, 6);
        assert_eq!(h.bin_count(), 5);
        assert!((h.delta() - 0.2).abs() < 1e-12);
        // Each bin should hold ~200 of the 1000 uniform samples.
        let b = h.boundaries();
        for w in b.windows(2) {
            let mass = e.eval(w[1]) - e.eval(w[0]);
            assert!((0.15..=0.21).contains(&mass), "bin mass {mass}");
        }
    }

    #[test]
    fn bin_of_clamps_to_edges() {
        let e = Ecdf::from_samples((1..=10).map(f64::from).collect());
        let h = Histogram::equi_probability(&e, 3);
        assert_eq!(h.bin_of(-5.0), 0);
        assert_eq!(h.bin_of(1e9), h.bin_count() - 1);
    }
}
