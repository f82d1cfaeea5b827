//! Trace statistics backing Tables I and II.

use std::fmt;

use d2tree_namespace::NamespaceTree;

use crate::trace::{OpKind, Trace};

/// Histogram of operation-target depths.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DepthHistogram {
    counts: Vec<u64>,
}

impl DepthHistogram {
    /// Builds the histogram of target depths for `trace` over `tree`.
    #[must_use]
    pub fn new(trace: &Trace, tree: &NamespaceTree) -> Self {
        let mut counts = Vec::new();
        for op in trace {
            let d = tree.depth(op.target);
            if counts.len() <= d {
                counts.resize(d + 1, 0);
            }
            counts[d] += 1;
        }
        DepthHistogram { counts }
    }

    /// Count of accesses at `depth`.
    #[must_use]
    pub fn count(&self, depth: usize) -> u64 {
        self.counts.get(depth).copied().unwrap_or(0)
    }

    /// All per-depth counts, index = depth.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Mean target depth.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(d, &c)| d as u64 * c)
            .sum();
        weighted as f64 / total as f64
    }
}

/// Aggregate statistics of a trace (our analogue of Tables I and II).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Trace name.
    pub name: String,
    /// Operation count.
    pub records: u64,
    /// Node count of the namespace.
    pub nodes: usize,
    /// Maximum namespace depth.
    pub max_depth: usize,
    /// Fraction of read operations.
    pub read_frac: f64,
    /// Fraction of write operations.
    pub write_frac: f64,
    /// Fraction of update operations.
    pub update_frac: f64,
    /// Mean depth of accessed targets.
    pub mean_access_depth: f64,
}

impl TraceStats {
    /// Measures `trace` over `tree`.
    #[must_use]
    pub fn measure(name: &str, trace: &Trace, tree: &NamespaceTree) -> Self {
        let mut read = 0u64;
        let mut write = 0u64;
        let mut update = 0u64;
        for op in trace {
            match op.kind {
                OpKind::Read => read += 1,
                OpKind::Write => write += 1,
                OpKind::Update => update += 1,
            }
        }
        let total = (read + write + update).max(1) as f64;
        let hist = DepthHistogram::new(trace, tree);
        TraceStats {
            name: name.to_owned(),
            records: read + write + update,
            nodes: tree.node_count(),
            max_depth: tree.max_depth(),
            read_frac: read as f64 / total,
            write_frac: write as f64 / total,
            update_frac: update as f64 / total,
            mean_access_depth: hist.mean(),
        }
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} ops over {} nodes (max depth {}), r/w/u = {:.1}%/{:.1}%/{:.1}%",
            self.name,
            self.records,
            self.nodes,
            self.max_depth,
            self.read_frac * 100.0,
            self.write_frac * 100.0,
            self.update_frac * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::TraceProfile;
    use crate::trace::WorkloadBuilder;

    #[test]
    fn stats_fracs_sum_to_one() {
        let w = WorkloadBuilder::new(TraceProfile::ra().with_nodes(500).with_operations(5_000))
            .seed(3)
            .build();
        let s = TraceStats::measure("RA", &w.trace, &w.tree);
        assert_eq!(s.records, 5_000);
        assert!((s.read_frac + s.write_frac + s.update_frac - 1.0).abs() < 1e-9);
        assert_eq!(s.max_depth, 13);
        assert!(!s.to_string().is_empty());
    }

    #[test]
    fn histogram_counts_all_ops() {
        let w = WorkloadBuilder::new(TraceProfile::lmbe().with_nodes(400).with_operations(2_000))
            .seed(4)
            .build();
        let h = DepthHistogram::new(&w.trace, &w.tree);
        let total: u64 = h.counts().iter().sum();
        assert_eq!(total, 2_000);
        assert!(h.mean() > 0.0);
        assert_eq!(h.count(1_000), 0);
    }

    #[test]
    fn empty_trace_histogram() {
        let tree = d2tree_namespace::NamespaceTree::new();
        let h = DepthHistogram::new(&Trace::default(), &tree);
        assert_eq!(h.mean(), 0.0);
        assert!(h.counts().is_empty());
    }
}
