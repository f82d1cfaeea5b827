//! Trace profiles: the published characteristics of DTR, LMBE and RA.

/// Read/write/update fractions of a trace (Table II of the paper).
///
/// *Read* and *write* are plain metadata queries to the MDS cluster; an
/// *update* modifies metadata and therefore takes the global-layer lock when
/// its target is replicated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    /// Fraction of read operations.
    pub read: f64,
    /// Fraction of write operations.
    pub write: f64,
    /// Fraction of update operations.
    pub update: f64,
}

impl OpMix {
    /// Builds a mix, validating that the fractions are non-negative and sum
    /// to 1 within floating-point tolerance.
    ///
    /// # Panics
    ///
    /// Panics if any fraction is negative or the sum deviates from 1 by more
    /// than `1e-6`.
    #[must_use]
    pub fn new(read: f64, write: f64, update: f64) -> Self {
        assert!(
            read >= 0.0 && write >= 0.0 && update >= 0.0,
            "fractions must be non-negative"
        );
        let sum = read + write + update;
        assert!(
            (sum - 1.0).abs() < 1e-6,
            "fractions must sum to 1, got {sum}"
        );
        OpMix {
            read,
            write,
            update,
        }
    }

    /// DTR operation breakdown (67.743% / 26.137% / 6.119%, renormalised).
    #[must_use]
    pub fn dtr() -> Self {
        Self::normalised(0.67743, 0.26137, 0.06119)
    }

    /// LMBE operation breakdown (78.877% / 21.108% / 0.015%).
    #[must_use]
    pub fn lmbe() -> Self {
        Self::normalised(0.78877, 0.21108, 0.00015)
    }

    /// RA operation breakdown (47.734% / 36.174% / 16.102%).
    #[must_use]
    pub fn ra() -> Self {
        Self::normalised(0.47734, 0.36174, 0.16102)
    }

    fn normalised(read: f64, write: f64, update: f64) -> Self {
        let sum = read + write + update;
        OpMix {
            read: read / sum,
            write: write / sum,
            update: update / sum,
        }
    }
}

/// Full description of a synthetic trace: namespace shape, access skew and
/// operation mix.
///
/// The presets [`dtr`](TraceProfile::dtr), [`lmbe`](TraceProfile::lmbe) and
/// [`ra`](TraceProfile::ra) carry the published values from Tables I–II plus
/// shape parameters tuned so the paper's measured layer hit-rates emerge
/// (see the crate docs). All knobs can be overridden with the `with_*`
/// builder methods.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceProfile {
    /// Human-readable trace name ("DTR", "LMBE", "RA", or custom).
    pub name: String,
    /// Target number of live namespace nodes to synthesise.
    pub nodes: usize,
    /// Number of operations to generate.
    pub operations: usize,
    /// Maximum namespace depth (Table I: DTR 49, LMBE 9, RA 13).
    pub max_depth: usize,
    /// Fraction of non-root nodes that are directories.
    pub dir_ratio: f64,
    /// Depth attachment bias `γ`: a directory at depth `d` attracts new
    /// children with weight `γ^d`. `γ > 1` grows deep chains (DTR),
    /// `γ < 1` grows wide flat trees (LMBE).
    pub depth_gamma: f64,
    /// Zipf exponent of the per-node popularity distribution.
    pub zipf_exponent: f64,
    /// Zipf–Mandelbrot head-flattening shift `q` (weights `∝ 1/(k+q)^s`).
    ///
    /// Real traces concentrate a large share of accesses on the top *set*
    /// of nodes without any single node dominating; the shift reproduces
    /// that: the top-1% aggregate share is set by `s` while `q` keeps the
    /// rank-1 share realistic (a couple of percent at most).
    pub zipf_shift: f64,
    /// How strongly popularity concentrates on *shallow* nodes, in `[0, 1]`.
    ///
    /// Hotness ranks are assigned by sorting nodes by
    /// `shallow_bias · normalised_depth + (1 − shallow_bias) · noise`:
    /// at 1.0 the shallowest nodes take the top Zipf ranks (queries land in
    /// the global layer, like DTR); at 0.0 hotness is independent of depth
    /// (queries scatter into the local layer, like LMBE).
    pub shallow_bias: f64,
    /// Operation mix (Table II).
    pub op_mix: OpMix,
    /// Published record count of the original trace, for Table I reporting.
    pub paper_records: u64,
    /// Published on-disk size of the original trace in GB, for Table I.
    pub paper_size_gb: f64,
}

impl TraceProfile {
    /// *Development Tools Release*: deep tree (depth 49), read-heavy,
    /// strongly shallow-skewed accesses — the paper measures ≈83% of queries
    /// hitting a 1% global layer.
    #[must_use]
    pub fn dtr() -> Self {
        TraceProfile {
            name: "DTR".to_owned(),
            nodes: 200_000,
            operations: 2_000_000,
            max_depth: 49,
            dir_ratio: 0.35,
            depth_gamma: 1.0,
            zipf_exponent: 1.70,
            zipf_shift: 30.0,
            shallow_bias: 0.92,
            op_mix: OpMix::dtr(),
            paper_records: 34_349_109,
            paper_size_gb: 5.9,
        }
    }

    /// *Live Maps Back End*: shallow wide tree (depth 9), read-heavy but
    /// with hotness spread across deep files — the paper measures ≈58.6% of
    /// queries going to the local layer.
    #[must_use]
    pub fn lmbe() -> Self {
        TraceProfile {
            name: "LMBE".to_owned(),
            nodes: 200_000,
            operations: 2_000_000,
            max_depth: 9,
            dir_ratio: 0.18,
            depth_gamma: 0.75,
            zipf_exponent: 1.36,
            zipf_shift: 80.0,
            shallow_bias: 0.32,
            op_mix: OpMix::lmbe(),
            paper_records: 88_160_590,
            paper_size_gb: 15.1,
        }
    }

    /// *Radius Authentication*: medium tree (depth 13), update-heavy (16.1%
    /// updates, of which the paper measures ≈67% directed at the global
    /// layer).
    #[must_use]
    pub fn ra() -> Self {
        TraceProfile {
            name: "RA".to_owned(),
            nodes: 200_000,
            operations: 2_000_000,
            max_depth: 13,
            dir_ratio: 0.25,
            depth_gamma: 0.95,
            zipf_exponent: 1.52,
            zipf_shift: 50.0,
            shallow_bias: 0.73,
            op_mix: OpMix::ra(),
            paper_records: 259_915_851,
            paper_size_gb: 39.3,
        }
    }

    /// All three paper presets, in Table I order.
    #[must_use]
    pub fn paper_presets() -> Vec<TraceProfile> {
        vec![Self::dtr(), Self::lmbe(), Self::ra()]
    }

    /// Overrides the synthesised node count.
    #[must_use]
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Overrides the generated operation count.
    #[must_use]
    pub fn with_operations(mut self, operations: usize) -> Self {
        self.operations = operations;
        self
    }

    /// Overrides the Zipf exponent.
    #[must_use]
    pub fn with_zipf_exponent(mut self, s: f64) -> Self {
        self.zipf_exponent = s;
        self
    }

    /// Overrides the Zipf–Mandelbrot shift.
    #[must_use]
    pub fn with_zipf_shift(mut self, q: f64) -> Self {
        self.zipf_shift = q;
        self
    }

    /// Overrides the shallow bias.
    #[must_use]
    pub fn with_shallow_bias(mut self, bias: f64) -> Self {
        self.shallow_bias = bias;
        self
    }

    /// Overrides the operation mix.
    #[must_use]
    pub fn with_op_mix(mut self, mix: OpMix) -> Self {
        self.op_mix = mix;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_sum_to_one() {
        for mix in [OpMix::dtr(), OpMix::lmbe(), OpMix::ra()] {
            assert!((mix.read + mix.write + mix.update - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn table_two_values_match_paper() {
        let dtr = OpMix::dtr();
        assert!((dtr.read - 0.67743).abs() < 0.01);
        assert!((dtr.update - 0.06119).abs() < 0.01);
        let ra = OpMix::ra();
        assert!((ra.update - 0.16102).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_mix_panics() {
        let _ = OpMix::new(0.5, 0.5, 0.5);
    }

    #[test]
    fn presets_carry_table_one_depths() {
        assert_eq!(TraceProfile::dtr().max_depth, 49);
        assert_eq!(TraceProfile::lmbe().max_depth, 9);
        assert_eq!(TraceProfile::ra().max_depth, 13);
        assert_eq!(TraceProfile::paper_presets().len(), 3);
    }

    #[test]
    fn builder_overrides() {
        let p = TraceProfile::dtr()
            .with_nodes(10)
            .with_operations(20)
            .with_zipf_exponent(0.5);
        assert_eq!(p.nodes, 10);
        assert_eq!(p.operations, 20);
        assert_eq!(p.zipf_exponent, 0.5);
    }
}
