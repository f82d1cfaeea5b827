//! Trace analyzer: reconstructs per-operation hop counts from recorded
//! spans and cross-checks them against the paper's formal metrics —
//! Def. 1 (`path_jumps`) per operation, Def. 3 (`SystemLocality`) in
//! aggregate — treating any disagreement as a hard error.
//!
//! The check only makes sense when the replay routed every access over
//! the *full* root-to-target chain, because Def. 1 counts jumps from
//! the root while production routing skips the client-cached top
//! levels and D2-Tree's own router short-circuits through the local
//! index. [`StrictChainRoute`] wraps any built scheme and swaps its
//! router for `Router::chain(…, start_depth = 0)`; under that walk
//! the deduplicated visit sequence jumps exactly where Def. 1 jumps,
//! so the span-derived hop count (serve spans − 1) must equal
//! `path_jumps` for every traced operation. Replicated targets route
//! to a single random replica and never jump, matching Def. 1's rule
//! that replicated chain nodes neither jump nor pin.
//!
//! The analyzer also attributes fault-injected latency: every span the
//! simulator tagged with a [`FaultKind`] is rolled up per kind and per
//! MDS, answering "which hops did the chaos schedule actually hurt,
//! and by how much".

use std::collections::BTreeMap;

use d2tree_core::{Partitioner, Router};
use d2tree_metrics::{
    locality_from_jumps, path_jumps, ClusterSpec, LocalityReport, Migration, Placement,
};
use d2tree_namespace::{NamespaceTree, NodeId, Popularity};
use d2tree_telemetry::trace::{span_names, ArgKey, Span};
use d2tree_telemetry::FaultKind;

/// Verification-mode router: delegates everything to the wrapped
/// (already built) scheme except [`Partitioner::router`], which walks
/// the full root-to-target chain with no client caching, and
/// [`Partitioner::jumps`], which is pinned to Def. 1's `path_jumps`
/// (not a scheme-specific convention like D2-Tree's Eq. 7).
pub struct StrictChainRoute<'a>(pub &'a dyn Partitioner);

impl std::fmt::Debug for StrictChainRoute<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("StrictChainRoute")
            .field(&self.name())
            .finish()
    }
}

impl Partitioner for StrictChainRoute<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    /// Unsupported: the wrapper verifies an existing placement.
    ///
    /// # Panics
    ///
    /// Always panics; build the wrapped scheme first.
    fn build(&mut self, _tree: &NamespaceTree, _pop: &Popularity, _cluster: &ClusterSpec) {
        panic!("StrictChainRoute wraps an already-built scheme");
    }

    fn placement(&self) -> &Placement {
        self.0.placement()
    }

    fn jumps(&self, tree: &NamespaceTree, node: NodeId) -> u32 {
        path_jumps(tree, self.placement(), node)
    }

    fn router<'a>(&'a self, tree: &'a NamespaceTree) -> Router<'a> {
        Router::chain(tree, self.placement(), 0)
    }

    fn rebalance(
        &mut self,
        _tree: &NamespaceTree,
        _pop: &Popularity,
        _cluster: &ClusterSpec,
    ) -> Vec<Migration> {
        // Verification replays never rebalance mid-run.
        Vec::new()
    }
}

/// One operation reconstructed from its spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracedOp {
    /// Trace id of the operation.
    pub trace: u64,
    /// Target node of the access.
    pub target: NodeId,
    /// Whether the op went through the global-layer lock path.
    pub locked: bool,
    /// Forwarding hops observed from spans: serve spans − 1 (0 for
    /// lock-path ops, which a single leader commits).
    pub observed_hops: u32,
    /// Def. 1 `path_jumps` for the same target.
    pub analytic_jumps: u32,
    /// End-to-end latency of the op's root span, microseconds.
    pub latency_us: u64,
}

/// Latency attributed to one injected fault kind.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultAttribution {
    /// Fault-tagged spans seen.
    pub count: u64,
    /// Summed duration of those spans, microseconds.
    pub total_us: u64,
    /// The same, split by the MDS the faulted hop targeted.
    pub per_mds: BTreeMap<u16, u64>,
}

/// The analyzer's verdict over one traced replay.
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    /// Operations reconstructed (one per root span).
    pub ops: Vec<TracedOp>,
    /// Mean observed hops per operation.
    pub mean_observed_hops: f64,
    /// Def. 3 locality computed from *observed* per-target jumps
    /// (falling back to `path_jumps` for targets the sample missed).
    pub observed_locality: LocalityReport,
    /// Def. 3 locality computed purely analytically.
    pub analytic_locality: LocalityReport,
    /// Injected-fault latency, rolled up per fault kind.
    pub faults: BTreeMap<FaultKind, FaultAttribution>,
}

/// A disagreement between observed spans and the paper's metrics, or a
/// structurally broken trace. Each is a hard error: it means the
/// implementation's routing and the analytic model diverged.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceCheckError {
    /// An operation's span-derived hop count ≠ Def. 1 `path_jumps`.
    HopMismatch {
        /// Trace id of the offending operation.
        trace: u64,
        /// Target node index.
        target: usize,
        /// Hops counted from serve spans.
        observed: u32,
        /// Def. 1 jump count.
        analytic: u32,
    },
    /// Aggregate Def. 3 locality disagreed beyond f64 tolerance.
    LocalityMismatch {
        /// Locality from observed jumps.
        observed: f64,
        /// Locality from `path_jumps`.
        analytic: f64,
    },
    /// A child span referenced a trace with no root `op` span (the
    /// sink overflowed, or the producer is broken).
    OrphanSpans {
        /// Trace id lacking a root.
        trace: u64,
        /// Child spans found for it.
        spans: usize,
    },
    /// A root span was missing a required argument.
    MalformedRoot {
        /// Trace id of the malformed root.
        trace: u64,
        /// The missing argument key.
        missing: &'static str,
    },
}

impl std::fmt::Display for TraceCheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceCheckError::HopMismatch {
                trace,
                target,
                observed,
                analytic,
            } => write!(
                f,
                "trace {trace}: op on node {target} observed {observed} hop(s) \
                 but Def. 1 path_jumps says {analytic}"
            ),
            TraceCheckError::LocalityMismatch { observed, analytic } => write!(
                f,
                "Def. 3 locality mismatch: observed {observed} vs analytic {analytic}"
            ),
            TraceCheckError::OrphanSpans { trace, spans } => write!(
                f,
                "trace {trace} has {spans} span(s) but no root op span \
                 (span sink overflow?)"
            ),
            TraceCheckError::MalformedRoot { trace, missing } => {
                write!(f, "trace {trace}: root span lacks the '{missing}' arg")
            }
        }
    }
}

impl std::error::Error for TraceCheckError {}

fn root_arg(span: &Span, key: ArgKey) -> Result<u64, TraceCheckError> {
    span.args
        .iter()
        .find(|(k, _)| *k == key)
        .map(|&(_, v)| v)
        .ok_or(TraceCheckError::MalformedRoot {
            trace: span.trace.0,
            missing: key.name(),
        })
}

/// Reconstructs per-operation hop counts from `spans` and cross-checks
/// them against Def. 1 and Def. 3.
///
/// `spans` must come from a replay routed through [`StrictChainRoute`]
/// (full-chain walk) at 100% sampling for the per-op equality to be
/// meaningful; `placement` is the placement that replay routed over and
/// `pop` must already be rolled up. Any disagreement — per-op or
/// aggregate — returns an error rather than a warning.
///
/// # Errors
///
/// See [`TraceCheckError`] for every way the cross-check can fail.
///
/// # Panics
///
/// Panics if `pop` was not rolled up (propagated from
/// `Popularity::total`).
pub fn analyze(
    spans: &[Span],
    tree: &NamespaceTree,
    placement: &Placement,
    pop: &Popularity,
) -> Result<TraceAnalysis, TraceCheckError> {
    // Group: roots and serve counts per trace, fault roll-up globally.
    let mut roots: BTreeMap<u64, &Span> = BTreeMap::new();
    let mut serves: BTreeMap<u64, u32> = BTreeMap::new();
    let mut children: BTreeMap<u64, usize> = BTreeMap::new();
    let mut faults: BTreeMap<FaultKind, FaultAttribution> = BTreeMap::new();

    for s in spans {
        if s.name == span_names::OP && s.parent.is_none() {
            roots.insert(s.trace.0, s);
        } else {
            *children.entry(s.trace.0).or_default() += 1;
            if s.name == span_names::SERVE {
                *serves.entry(s.trace.0).or_default() += 1;
            }
        }
        if let Some(kind) = s.fault {
            let att = faults.entry(kind).or_default();
            att.count += 1;
            att.total_us += s.dur_us;
            if let Some(m) = s.mds {
                *att.per_mds.entry(m).or_default() += s.dur_us;
            }
        }
    }

    for (&trace, &n) in &children {
        if !roots.contains_key(&trace) {
            return Err(TraceCheckError::OrphanSpans { trace, spans: n });
        }
    }

    // Per-op Def. 1 check.
    let mut ops = Vec::with_capacity(roots.len());
    let mut observed_jumps: BTreeMap<NodeId, u32> = BTreeMap::new();
    let mut hop_sum = 0u64;
    for (&trace, root) in &roots {
        let target = NodeId::from_index(root_arg(root, ArgKey::Target)? as usize);
        let locked = root_arg(root, ArgKey::Locked)? == 1;
        let serve_count = serves.get(&trace).copied().unwrap_or(0);
        // Lock-path ops commit on one leader (no forwarding chain);
        // both conventions agree on 0 for their replicated targets.
        let observed = serve_count.saturating_sub(1);
        let analytic = path_jumps(tree, placement, target);
        if observed != analytic {
            return Err(TraceCheckError::HopMismatch {
                trace,
                target: target.index(),
                observed,
                analytic,
            });
        }
        observed_jumps.insert(target, observed);
        hop_sum += u64::from(observed);
        ops.push(TracedOp {
            trace,
            target,
            locked,
            observed_hops: observed,
            analytic_jumps: analytic,
            latency_us: root.dur_us,
        });
    }

    // Aggregate Def. 3 check: substitute observed jumps where we have
    // them, fall back to the analytic value elsewhere, and require the
    // two localities to agree to f64 tolerance.
    let analytic_locality = locality_from_jumps(tree, pop, |n| path_jumps(tree, placement, n));
    let observed_locality = locality_from_jumps(tree, pop, |n| {
        observed_jumps
            .get(&n)
            .copied()
            .unwrap_or_else(|| path_jumps(tree, placement, n))
    });
    let (o, a) = (observed_locality.locality, analytic_locality.locality);
    let agree = if o.is_finite() && a.is_finite() {
        (o - a).abs() <= 1e-9 * a.abs().max(1.0)
    } else {
        o == a
    };
    if !agree {
        return Err(TraceCheckError::LocalityMismatch {
            observed: o,
            analytic: a,
        });
    }

    let mean_observed_hops = if ops.is_empty() {
        0.0
    } else {
        hop_sum as f64 / ops.len() as f64
    };
    Ok(TraceAnalysis {
        ops,
        mean_observed_hops,
        observed_locality,
        analytic_locality,
        faults,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultAction, FaultPlan, FaultRule, FaultScope};
    use crate::sim::{SimConfig, Simulator};
    use d2tree_core::{D2TreeConfig, D2TreeScheme};
    use d2tree_metrics::ClusterSpec;
    use d2tree_telemetry::trace::{Sampler, Tracer};
    use d2tree_telemetry::TraceId;
    use std::sync::Arc;

    fn built_scheme(
        ops: usize,
        m: usize,
        seed: u64,
    ) -> (d2tree_workload::Workload, Popularity, D2TreeScheme) {
        let w = d2tree_workload::WorkloadBuilder::new(
            d2tree_workload::TraceProfile::dtr()
                .with_nodes(1_500)
                .with_operations(ops),
        )
        .seed(seed)
        .build();
        let pop = w.popularity();
        let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default());
        scheme.build(&w.tree, &pop, &ClusterSpec::homogeneous(m, 1.0));
        (w, pop, scheme)
    }

    fn traced_strict_replay(
        seed: u64,
        plan: Option<FaultPlan>,
    ) -> (Vec<d2tree_telemetry::Span>, TraceAnalysis) {
        let (w, pop, scheme) = built_scheme(2_000, 4, seed);
        let strict = StrictChainRoute(&scheme);
        let tracer = Arc::new(Tracer::new(Sampler::always(seed)));
        let mut sim = Simulator::new(SimConfig {
            clients: 16,
            seed,
            ..SimConfig::default()
        })
        .with_tracer(Arc::clone(&tracer));
        if let Some(plan) = plan {
            sim = sim.with_faults(plan);
        }
        let out = sim.replay(&w.tree, &w.trace, &strict);
        assert_eq!(out.completed, 2_000);
        let spans = tracer.drain();
        let analysis =
            analyze(&spans, &w.tree, scheme.placement(), &pop).expect("cross-check must pass");
        (spans, analysis)
    }

    #[test]
    fn every_op_matches_def1_and_def3_under_full_sampling() {
        let (spans, analysis) = traced_strict_replay(1, None);
        assert_eq!(analysis.ops.len(), 2_000, "one root span per op");
        assert!(
            spans.len() > 2_000 * 2,
            "roots plus hop spans expected, got {}",
            spans.len()
        );
        // The replay uses the strict router, so observed == analytic is
        // already enforced per-op; spot-check the aggregate too.
        assert_eq!(
            analysis.observed_locality.weighted_jumps,
            analysis.analytic_locality.weighted_jumps
        );
        assert!(analysis.mean_observed_hops >= 0.0);
    }

    #[test]
    fn multi_hop_routes_also_match_def1() {
        // D2-Tree keeps jumps at 0 by construction; a hash mapping
        // scatters the chain, so this exercises observed_hops > 0.
        let (w, pop, _) = built_scheme(2_000, 4, 11);
        let mut hash = d2tree_baselines::HashMapping::new(5);
        hash.build(&w.tree, &pop, &ClusterSpec::homogeneous(4, 1.0));
        let strict = StrictChainRoute(&hash);
        let tracer = Arc::new(Tracer::new(Sampler::always(11)));
        let out = Simulator::new(SimConfig {
            clients: 16,
            seed: 11,
            ..SimConfig::default()
        })
        .with_tracer(Arc::clone(&tracer))
        .replay(&w.tree, &w.trace, &strict);
        assert_eq!(out.completed, 2_000);
        let spans = tracer.drain();
        let analysis =
            analyze(&spans, &w.tree, hash.placement(), &pop).expect("cross-check must pass");
        assert!(
            analysis.ops.iter().any(|o| o.observed_hops > 0),
            "hash mapping must produce multi-hop ops"
        );
    }

    #[test]
    fn tampered_span_counts_are_rejected() {
        let (mut spans, _) = traced_strict_replay(2, None);
        // Duplicate one serve span: its trace now over-counts hops.
        let extra = spans
            .iter()
            .find(|s| s.name == span_names::SERVE)
            .expect("serve spans exist")
            .clone();
        spans.push(extra);
        let (w, pop, scheme) = built_scheme(2_000, 4, 2);
        let err = analyze(&spans, &w.tree, scheme.placement(), &pop)
            .expect_err("tampered trace must fail the Def. 1 check");
        assert!(matches!(err, TraceCheckError::HopMismatch { .. }), "{err}");
    }

    #[test]
    fn orphan_spans_are_detected() {
        let (mut spans, _) = traced_strict_replay(3, None);
        // Invent a child span for a trace id that has no root.
        let mut orphan = spans
            .iter()
            .find(|s| s.name == span_names::SERVE)
            .expect("serve spans exist")
            .clone();
        orphan.trace = TraceId(u64::MAX);
        spans.push(orphan);
        let (w, pop, scheme) = built_scheme(2_000, 4, 3);
        let err = analyze(&spans, &w.tree, scheme.placement(), &pop)
            .expect_err("orphan spans must be rejected");
        assert!(matches!(err, TraceCheckError::OrphanSpans { .. }), "{err}");
    }

    #[test]
    fn chaos_seed7_tags_every_injected_fault_kind_and_attributes_latency() {
        let plan = FaultPlan::new(7)
            .with_rule(
                FaultRule::new(FaultScope::AllLinks, FaultAction::Drop).with_probability(0.05),
            )
            .with_rule(
                FaultRule::new(
                    FaultScope::AllLinks,
                    FaultAction::Delay {
                        fixed_ms: 1,
                        jitter_ms: 1,
                    },
                )
                .with_probability(0.1),
            )
            .with_rule(
                FaultRule::new(FaultScope::AllLinks, FaultAction::Duplicate).with_probability(0.05),
            );
        let (_, analysis) = traced_strict_replay(7, Some(plan));
        for kind in [FaultKind::Drop, FaultKind::Delay, FaultKind::Duplicate] {
            let att = analysis
                .faults
                .get(&kind)
                .unwrap_or_else(|| panic!("no span tagged with {:?}", kind));
            assert!(att.count > 0);
            assert!(
                att.total_us > 0,
                "{kind:?} spans must carry the latency they cost"
            );
            assert!(
                !att.per_mds.is_empty(),
                "{kind:?} latency must be attributed to a faulted hop"
            );
        }
    }

    #[test]
    fn same_seed_produces_identical_digests() {
        let run = |seed: u64| {
            let (w, _pop, scheme) = built_scheme(1_000, 3, seed);
            let strict = StrictChainRoute(&scheme);
            let tracer = Arc::new(Tracer::new(Sampler::always(seed)));
            let _ = Simulator::new(SimConfig {
                clients: 8,
                seed,
                ..SimConfig::default()
            })
            .with_tracer(Arc::clone(&tracer))
            .replay(&w.tree, &w.trace, &strict);
            d2tree_telemetry::trace::digest(&tracer.drain())
        };
        assert_eq!(run(42), run(42), "same seed must be byte-identical");
        assert_ne!(run(42), run(43), "different seeds should differ");
    }

    #[test]
    fn tracing_is_purely_observational() {
        let (w, _pop, scheme) = built_scheme(1_500, 3, 5);
        let sim = Simulator::new(SimConfig {
            clients: 16,
            seed: 5,
            ..SimConfig::default()
        });
        let plain = sim.replay(&w.tree, &w.trace, &scheme);
        let traced = sim
            .clone()
            .with_tracer(Arc::new(Tracer::new(Sampler::always(5))))
            .replay(&w.tree, &w.trace, &scheme);
        assert_eq!(plain, traced, "tracing must never change outcomes");
    }
}
