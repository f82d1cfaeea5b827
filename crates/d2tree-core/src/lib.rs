//! The D2-Tree scheme: double-layer namespace partitioning.
//!
//! This crate implements the paper's contribution in three phases plus the
//! glue that makes it a pluggable partitioning scheme:
//!
//! * [`split`] — **Tree-Splitting** (Alg. 1): greedily grow the replicated
//!   *global layer* from the root by descending total popularity, bounded
//!   by a locality constraint `L0` and an update-cost constraint `U0`.
//! * [`allocate`] — **Subtree-Allocation**: place the *local layer*
//!   subtrees onto MDSs by mirror division of the popularity CDF against
//!   the capacity CDF (Fig. 4), either with full information or from a
//!   random-walk sample (Lem. 1 / Thm. 3 govern the sample size).
//! * [`adjust`] — **Dynamic-Adjustment**: heartbeat-driven pending-pool
//!   rebalancing, decaying access counters and periodic global-layer
//!   re-cuts.
//! * [`scheme`] — the [`Partitioner`] trait every scheme (D2-Tree and all
//!   baselines) implements, and [`D2TreeScheme`], the reference
//!   implementation.
//! * [`index`] — the *local index* mapping inter nodes to the owners of
//!   their local-layer subtrees, which clients cache.
//!
//! # Example
//!
//! ```
//! use d2tree_core::{D2TreeConfig, D2TreeScheme, Partitioner};
//! use d2tree_metrics::ClusterSpec;
//! use d2tree_workload::{TraceProfile, WorkloadBuilder};
//!
//! let w = WorkloadBuilder::new(TraceProfile::dtr().with_nodes(2_000).with_operations(20_000))
//!     .seed(1)
//!     .build();
//! let pop = w.popularity();
//! let cluster = ClusterSpec::homogeneous(4, 1_000.0);
//!
//! let mut scheme = D2TreeScheme::new(D2TreeConfig::by_proportion(0.01));
//! scheme.build(&w.tree, &pop, &cluster);
//! assert!(scheme.placement().is_complete(&w.tree));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adjust;
pub mod allocate;
pub mod index;
pub mod scheme;
pub mod split;
pub mod validate;

pub use adjust::{
    plan_recut, AdjustPolicy, DynamicAdjuster, Heartbeat, PendingPool, PoolEntry, RecutPlan,
};
pub use allocate::{allocate_full, allocate_sampled, collect_subtrees, SampleStrategy, Subtree};
pub use index::LocalIndex;
pub use scheme::{
    AccessPlan, D2TreeConfig, D2TreeScheme, Partitioner, Router, CLIENT_CACHED_DEPTH,
};
pub use split::{
    split_to_proportion, tree_split, GlobalLayer, ImpliedBounds, SplitBounds, SplitError,
};
pub use validate::{check_d2tree, check_placement, Violation};
