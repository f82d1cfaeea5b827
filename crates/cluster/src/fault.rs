//! Deterministic fault injection for the cluster transports.
//!
//! A [`FaultPlan`] is plain seeded data: a list of [`FaultRule`]s, each
//! scoping a perturbation ([`FaultAction`]) to a set of network edges
//! ([`FaultScope`]) with a firing probability and an optional activity
//! window. Both the live threaded runtime ([`crate::live`]) and the
//! discrete-event simulator ([`crate::sim`]) consult the plan at every
//! send through a [`FaultInjector`] — the runtime companion that owns the
//! seeded RNG and (optionally) journals every injected fault to a
//! [`Registry`].
//!
//! Determinism: an injector created twice from the same plan and asked
//! the same sequence of [`FaultInjector::decide`] questions returns the
//! same sequence of [`FaultDecision`]s. The simulator and the chaos
//! engine ([`crate::chaos`]) exploit this for replayable failure
//! schedules; the live cluster is wall-clock driven, so there the plan
//! reproduces the *distribution* of faults, not an identical trace.
//!
//! Partitions are not a separate mechanism: a bidirectional partition of
//! an MDS is a set of [`FaultAction::Drop`] rules at probability 1.0
//! over all of its edges, bounded by an activity window — see
//! [`FaultRule::partition`].

use std::sync::{Arc, Mutex};

use d2tree_telemetry::{names, Counter, EventKind, FaultKind, MetricKey, Registry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::sync;

/// One directed network edge in the cluster. The `u16` is always the
/// MDS id on the server end of the edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetEdge {
    /// A client request travelling to an MDS.
    ClientToMds(u16),
    /// An MDS reply travelling back to a client.
    MdsToClient(u16),
    /// An MDS heartbeat (or registration) travelling to the Monitor.
    MdsToMonitor(u16),
    /// An MDS interaction with the global-layer lock service.
    MdsToLock(u16),
}

impl NetEdge {
    /// The MDS on the server end of this edge.
    #[must_use]
    pub fn mds(self) -> u16 {
        match self {
            NetEdge::ClientToMds(m)
            | NetEdge::MdsToClient(m)
            | NetEdge::MdsToMonitor(m)
            | NetEdge::MdsToLock(m) => m,
        }
    }
}

/// Which edges a rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScope {
    /// Every edge in the cluster.
    AllLinks,
    /// Every edge touching one MDS (client, monitor and lock links) —
    /// with a [`FaultAction::Drop`] this is a bidirectional partition.
    Mds(u16),
    /// The client↔MDS edges of one MDS, both directions.
    ClientLink(u16),
    /// The MDS↔Monitor edge of one MDS.
    MonitorLink(u16),
    /// The MDS↔lock-service edge of one MDS.
    LockLink(u16),
}

impl FaultScope {
    fn matches(self, edge: NetEdge) -> bool {
        match self {
            FaultScope::AllLinks => true,
            FaultScope::Mds(m) => edge.mds() == m,
            FaultScope::ClientLink(m) => {
                matches!(edge, NetEdge::ClientToMds(k) | NetEdge::MdsToClient(k) if k == m)
            }
            FaultScope::MonitorLink(m) => matches!(edge, NetEdge::MdsToMonitor(k) if k == m),
            FaultScope::LockLink(m) => matches!(edge, NetEdge::MdsToLock(k) if k == m),
        }
    }
}

/// What a firing rule does to the message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Silently discard the message.
    Drop,
    /// Postpone delivery by `fixed_ms` plus a uniform jitter in
    /// `0..=jitter_ms`.
    Delay {
        /// Deterministic component of the delay.
        fixed_ms: u64,
        /// Upper bound of the uniform random component.
        jitter_ms: u64,
    },
    /// Deliver the message twice.
    Duplicate,
}

/// One scoped, probabilistic perturbation with an optional activity
/// window (in the clock domain of the transport consulting the plan —
/// virtual ms for the simulator/chaos engine, wall ms since cluster
/// start for the live runtime).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRule {
    /// Which edges the rule watches.
    pub scope: FaultScope,
    /// What it does when it fires.
    pub action: FaultAction,
    /// Per-message firing probability in `[0, 1]`.
    pub probability: f64,
    /// Half-open `[from_ms, until_ms)` activity window; `None` means
    /// always active.
    pub active_ms: Option<(u64, u64)>,
}

impl FaultRule {
    /// A rule that always fires, with no activity window.
    #[must_use]
    pub fn new(scope: FaultScope, action: FaultAction) -> Self {
        FaultRule {
            scope,
            action,
            probability: 1.0,
            active_ms: None,
        }
    }

    /// Sets the per-message firing probability.
    #[must_use]
    pub fn with_probability(mut self, p: f64) -> Self {
        self.probability = p.clamp(0.0, 1.0);
        self
    }

    /// Restricts the rule to the half-open window `[from_ms, until_ms)`.
    #[must_use]
    pub fn during(mut self, from_ms: u64, until_ms: u64) -> Self {
        self.active_ms = Some((from_ms, until_ms));
        self
    }

    /// A bidirectional partition: drop everything in `scope` during
    /// `[from_ms, until_ms)`.
    #[must_use]
    pub fn partition(scope: FaultScope, from_ms: u64, until_ms: u64) -> Self {
        FaultRule::new(scope, FaultAction::Drop).during(from_ms, until_ms)
    }

    fn active_at(&self, now_ms: u64) -> bool {
        match self.active_ms {
            None => true,
            Some((from, until)) => now_ms >= from && now_ms < until,
        }
    }
}

/// A seeded, serializable-in-spirit fault schedule: pure data, no
/// runtime state. Feed it to [`FaultInjector::new`],
/// `LiveCluster::start_with_faults` or `Simulator::with_faults`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for the injector's RNG.
    pub seed: u64,
    /// The rules, consulted in order; the first firing rule wins.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Appends a rule (builder style).
    #[must_use]
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Whether the plan has no rules.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// The injector's verdict for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver normally.
    Deliver,
    /// Discard the message.
    Drop,
    /// Deliver after this many milliseconds.
    Delay(u64),
    /// Deliver the message twice.
    DeliverTwice,
}

impl FaultDecision {
    /// The [`FaultKind`] a tracer should tag the affected hop's span
    /// with, or `None` for a clean delivery.
    #[must_use]
    pub fn kind(&self) -> Option<FaultKind> {
        match self {
            FaultDecision::Deliver => None,
            FaultDecision::Drop => Some(FaultKind::Drop),
            FaultDecision::Delay(_) => Some(FaultKind::Delay),
            FaultDecision::DeliverTwice => Some(FaultKind::Duplicate),
        }
    }
}

struct FaultTelemetry {
    registry: Arc<Registry>,
    dropped: Arc<Counter>,
    delayed: Arc<Counter>,
    duplicated: Arc<Counter>,
}

/// Runtime companion of a [`FaultPlan`]: owns the seeded RNG and the
/// optional telemetry handles. Cheap to consult when the plan is empty.
pub struct FaultInjector {
    rules: Vec<FaultRule>,
    rng: Mutex<StdRng>,
    telemetry: Option<FaultTelemetry>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("rules", &self.rules.len())
            .field("instrumented", &self.telemetry.is_some())
            .finish()
    }
}

impl FaultInjector {
    /// An injector for `plan`, with a fresh RNG seeded from
    /// `plan.seed`. Two injectors built from the same plan make
    /// identical decision sequences.
    #[must_use]
    pub fn new(plan: &FaultPlan) -> Self {
        FaultInjector {
            rules: plan.rules.clone(),
            rng: Mutex::new(StdRng::seed_from_u64(plan.seed)),
            telemetry: None,
        }
    }

    /// Journals every injected fault to `registry` and counts them in
    /// `faults_dropped/delayed/duplicated_total`.
    #[must_use]
    pub fn with_registry(mut self, registry: Arc<Registry>) -> Self {
        let dropped = registry.counter(MetricKey::global(names::FAULTS_DROPPED));
        let delayed = registry.counter(MetricKey::global(names::FAULTS_DELAYED));
        let duplicated = registry.counter(MetricKey::global(names::FAULTS_DUPLICATED));
        self.telemetry = Some(FaultTelemetry {
            registry,
            dropped,
            delayed,
            duplicated,
        });
        self
    }

    /// Whether the injector has any rules at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Decides the fate of one message crossing `edge` at `now_ms`.
    /// Rules are consulted in plan order; the first firing rule wins.
    /// Every non-`Deliver` decision is journaled and counted when a
    /// registry is attached.
    pub fn decide(&self, edge: NetEdge, now_ms: u64) -> FaultDecision {
        if self.rules.is_empty() {
            return FaultDecision::Deliver;
        }
        let mut rng = sync::lock(&self.rng);
        for rule in &self.rules {
            if !rule.active_at(now_ms) || !rule.scope.matches(edge) {
                continue;
            }
            let fires = rule.probability >= 1.0
                || (rule.probability > 0.0 && rng.gen_bool(rule.probability));
            if !fires {
                continue;
            }
            let (decision, kind) = match rule.action {
                FaultAction::Drop => (FaultDecision::Drop, FaultKind::Drop),
                FaultAction::Delay {
                    fixed_ms,
                    jitter_ms,
                } => {
                    let jitter = if jitter_ms == 0 {
                        0
                    } else {
                        rng.gen_range(0..=jitter_ms)
                    };
                    (FaultDecision::Delay(fixed_ms + jitter), FaultKind::Delay)
                }
                FaultAction::Duplicate => (FaultDecision::DeliverTwice, FaultKind::Duplicate),
            };
            drop(rng);
            if let Some(tel) = &self.telemetry {
                let counter = match decision {
                    FaultDecision::Drop => &tel.dropped,
                    FaultDecision::DeliverTwice => &tel.duplicated,
                    _ => &tel.delayed,
                };
                counter.inc();
                tel.registry.journal().record(EventKind::FaultInjected {
                    fault: kind,
                    mds: edge.mds(),
                });
            }
            return decision;
        }
        FaultDecision::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_always_delivers() {
        let inj = FaultInjector::new(&FaultPlan::new(1));
        for k in 0..8 {
            assert_eq!(
                inj.decide(NetEdge::ClientToMds(k), 0),
                FaultDecision::Deliver
            );
        }
    }

    #[test]
    fn same_plan_same_decisions() {
        let plan = FaultPlan::new(42)
            .with_rule(
                FaultRule::new(FaultScope::AllLinks, FaultAction::Drop).with_probability(0.3),
            )
            .with_rule(FaultRule::new(
                FaultScope::Mds(1),
                FaultAction::Delay {
                    fixed_ms: 2,
                    jitter_ms: 5,
                },
            ));
        let a = FaultInjector::new(&plan);
        let b = FaultInjector::new(&plan);
        for i in 0..200u16 {
            let edge = NetEdge::ClientToMds(i % 3);
            assert_eq!(a.decide(edge, u64::from(i)), b.decide(edge, u64::from(i)));
        }
    }

    #[test]
    fn partitions_respect_their_window() {
        let plan =
            FaultPlan::new(7).with_rule(FaultRule::partition(FaultScope::MonitorLink(2), 100, 200));
        let inj = FaultInjector::new(&plan);
        assert_eq!(
            inj.decide(NetEdge::MdsToMonitor(2), 50),
            FaultDecision::Deliver
        );
        assert_eq!(
            inj.decide(NetEdge::MdsToMonitor(2), 150),
            FaultDecision::Drop
        );
        assert_eq!(
            inj.decide(NetEdge::MdsToMonitor(2), 200),
            FaultDecision::Deliver
        );
        // Other MDSs and other edges of the same MDS are untouched.
        assert_eq!(
            inj.decide(NetEdge::MdsToMonitor(1), 150),
            FaultDecision::Deliver
        );
        assert_eq!(
            inj.decide(NetEdge::ClientToMds(2), 150),
            FaultDecision::Deliver
        );
    }

    #[test]
    fn scopes_match_the_right_edges() {
        assert!(FaultScope::Mds(3).matches(NetEdge::MdsToLock(3)));
        assert!(FaultScope::Mds(3).matches(NetEdge::MdsToClient(3)));
        assert!(!FaultScope::Mds(3).matches(NetEdge::ClientToMds(2)));
        assert!(FaultScope::ClientLink(1).matches(NetEdge::ClientToMds(1)));
        assert!(FaultScope::ClientLink(1).matches(NetEdge::MdsToClient(1)));
        assert!(!FaultScope::ClientLink(1).matches(NetEdge::MdsToMonitor(1)));
        assert!(FaultScope::LockLink(0).matches(NetEdge::MdsToLock(0)));
        assert!(!FaultScope::LockLink(0).matches(NetEdge::MdsToMonitor(0)));
    }

    #[test]
    fn delay_includes_fixed_and_bounded_jitter() {
        let plan = FaultPlan::new(5).with_rule(FaultRule::new(
            FaultScope::AllLinks,
            FaultAction::Delay {
                fixed_ms: 10,
                jitter_ms: 4,
            },
        ));
        let inj = FaultInjector::new(&plan);
        for _ in 0..100 {
            match inj.decide(NetEdge::ClientToMds(0), 0) {
                FaultDecision::Delay(ms) => assert!((10..=14).contains(&ms), "delay {ms}"),
                other => panic!("expected delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn injector_journals_and_counts_faults() {
        let registry = Arc::new(Registry::new());
        let plan = FaultPlan::new(9)
            .with_rule(FaultRule::new(FaultScope::AllLinks, FaultAction::Duplicate));
        let inj = FaultInjector::new(&plan).with_registry(Arc::clone(&registry));
        assert_eq!(
            inj.decide(NetEdge::ClientToMds(4), 0),
            FaultDecision::DeliverTwice
        );
        let snap = registry.snapshot();
        let dup = snap
            .counters
            .iter()
            .find(|(k, _)| k.name == names::FAULTS_DUPLICATED)
            .map(|(_, v)| *v);
        assert_eq!(dup, Some(1));
        assert!(registry.journal().snapshot().iter().any(|e| matches!(
            e.kind,
            EventKind::FaultInjected {
                fault: FaultKind::Duplicate,
                mds: 4
            }
        )));
    }
}
