//! Formal metrics and statistical tools of the D2-Tree paper.
//!
//! This crate is the "measurement currency" of the reproduction:
//!
//! * [`ClusterSpec`] / [`MdsId`] — the MDS cluster model with per-server
//!   capacities, the ideal load factor `μ` (Sec. III-B) and ideal loads.
//! * [`Placement`] — which MDS hosts each namespace node, with the paper's
//!   replication-aware load accounting.
//! * [`measures`] — jump counting (Def. 1), system locality (Def. 3 /
//!   Eq. 7), update cost (Def. 4) and the load-balance degree (Def. 5).
//! * [`Ecdf`] / [`Histogram`] — empirical CDFs and equi-probability
//!   histograms (Def. 6) used by mirror division.
//! * [`dkw`] — the Dvoretzky–Kiefer–Wolfowitz bound (Thm. 2) and the
//!   paper's sample-size formulas (Lem. 1, Thm. 3).
//! * [`mirror`] — the mirror-division interval assignment of Fig. 4.
//!
//! # Example
//!
//! ```
//! use d2tree_metrics::{balance, ClusterSpec};
//!
//! let cluster = ClusterSpec::homogeneous(4, 100.0);
//! // Perfectly even loads → tiny variance → huge balance degree.
//! let even = balance(&[25.0, 25.0, 25.0, 25.0], &cluster);
//! let skew = balance(&[70.0, 10.0, 10.0, 10.0], &cluster);
//! assert!(even > skew);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cluster_spec;
pub mod dkw;
mod ecdf;
pub mod measures;
pub mod mirror;
mod placement;

pub use cluster_spec::{ClusterSpec, MdsId};
pub use ecdf::{Ecdf, Histogram};
pub use measures::{balance, locality_from_jumps, path_jumps, update_cost, LocalityReport};
pub use placement::{Assignment, Migration, Placement, PlacementWriter, ReplicaSet};
