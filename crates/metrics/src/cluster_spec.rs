//! The MDS cluster model: server identities and capacities.

use std::fmt;

/// Identifier of a metadata server within a cluster.
///
/// Ids are dense indices `0..cluster_size`, matching the paper's
/// `m_1..m_M` (zero-based here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MdsId(pub u16);

impl MdsId {
    /// The raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MdsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mds{}", self.0)
    }
}

/// Cluster description: one capacity `C_k` per MDS (Sec. III-B).
///
/// Capacity is the paper's abstract throughput limit; all load/balance
/// computations normalise by it, so heterogeneous clusters are supported
/// throughout.
///
/// # Example
///
/// ```
/// use d2tree_metrics::ClusterSpec;
///
/// let c = ClusterSpec::new(vec![100.0, 100.0, 200.0]);
/// assert_eq!(c.len(), 3);
/// // μ = ΣL/ΣC; with total load 200 over capacity 400, μ = 0.5 and the
/// // big server's ideal load is 100.
/// assert_eq!(c.ideal_load_factor(200.0), 0.5);
/// assert_eq!(c.ideal_loads(200.0)[2], 100.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    capacities: Vec<f64>,
}

impl ClusterSpec {
    /// Builds a cluster from explicit capacities.
    ///
    /// # Panics
    ///
    /// Panics if `capacities` is empty or any capacity is not positive.
    #[must_use]
    pub fn new(capacities: Vec<f64>) -> Self {
        assert!(!capacities.is_empty(), "a cluster needs at least one MDS");
        assert!(
            capacities.iter().all(|&c| c.is_finite() && c > 0.0),
            "capacities must be positive and finite"
        );
        ClusterSpec { capacities }
    }

    /// Builds a cluster of `m` identical servers with capacity `c` each.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `c <= 0`.
    #[must_use]
    pub fn homogeneous(m: usize, c: f64) -> Self {
        Self::new(vec![c; m])
    }

    /// Number of MDSs (`M`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.capacities.len()
    }

    /// Whether the cluster has no servers (never true once constructed).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.capacities.is_empty()
    }

    /// Iterates over all server ids.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = MdsId> {
        (0..self.capacities.len() as u16).map(MdsId)
    }

    /// Capacity `C_k` of one server.
    #[must_use]
    pub fn capacity(&self, id: MdsId) -> f64 {
        self.capacities[id.index()]
    }

    /// All capacities, indexed by [`MdsId::index`].
    #[must_use]
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }

    /// Total capacity `ΣC_i`.
    #[must_use]
    pub fn total_capacity(&self) -> f64 {
        self.capacities.iter().sum()
    }

    /// The ideal load factor `μ = ΣL_i / ΣC_i` for a given total load.
    #[must_use]
    pub fn ideal_load_factor(&self, total_load: f64) -> f64 {
        total_load / self.total_capacity()
    }

    /// Ideal per-server loads `I_k = μ·C_k`.
    #[must_use]
    pub fn ideal_loads(&self, total_load: f64) -> Vec<f64> {
        let mu = self.ideal_load_factor(total_load);
        self.capacities.iter().map(|&c| mu * c).collect()
    }

    /// Relative capacities `Re_k = L_k − μ·C_k`; positive means the server
    /// is heavily loaded, negative means light (Sec. III-B).
    #[must_use]
    pub fn relative_capacities(&self, loads: &[f64]) -> Vec<f64> {
        assert_eq!(loads.len(), self.len(), "one load per MDS");
        let total: f64 = loads.iter().sum();
        let mu = self.ideal_load_factor(total);
        loads
            .iter()
            .zip(&self.capacities)
            .map(|(&l, &c)| l - mu * c)
            .collect()
    }

    /// Capacity share `p_k = C_k / ΣC_i` of one server (Thm. 3).
    #[must_use]
    pub fn capacity_share(&self, id: MdsId) -> f64 {
        self.capacity(id) / self.total_capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_basics() {
        let c = ClusterSpec::homogeneous(5, 10.0);
        assert_eq!(c.len(), 5);
        assert_eq!(c.total_capacity(), 50.0);
        assert_eq!(c.ids().count(), 5);
        assert_eq!(c.capacity(MdsId(3)), 10.0);
        assert!((c.capacity_share(MdsId(0)) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn relative_capacity_signs() {
        let c = ClusterSpec::homogeneous(2, 10.0);
        let re = c.relative_capacities(&[15.0, 5.0]);
        assert!(re[0] > 0.0, "overloaded server has positive Re");
        assert!(re[1] < 0.0, "light server has negative Re");
        assert!(
            (re[0] + re[1]).abs() < 1e-12,
            "relative capacities sum to zero"
        );
    }

    #[test]
    fn heterogeneous_ideal_loads_scale_with_capacity() {
        let c = ClusterSpec::new(vec![10.0, 30.0]);
        let ideal = c.ideal_loads(40.0);
        assert_eq!(ideal, vec![10.0, 30.0]);
    }

    #[test]
    #[should_panic(expected = "at least one MDS")]
    fn empty_cluster_panics() {
        let _ = ClusterSpec::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = ClusterSpec::new(vec![1.0, 0.0]);
    }

    #[test]
    fn display_of_ids() {
        assert_eq!(MdsId(7).to_string(), "mds7");
    }
}
