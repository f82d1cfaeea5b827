//! Property-based tests of the replicated Monitor control plane.
//!
//! Raft's two core safety properties must hold under *arbitrary* seeded
//! message-level perturbation of the replica↔replica links — drops,
//! delays, duplicates, reorders and partition windows:
//!
//! * **Election safety** — at most one leader per term, ever.
//! * **Log matching** — if two replicas hold an entry with the same
//!   index and term, their logs are identical up to and including it.
//!
//! And the whole control plane must be reproducible: the same seed and
//! fault plan yield the identical journal, observer state and leader
//! history across two independent runs (seeds 1/7/42, matching the CI
//! chaos matrix).

mod support;

use std::collections::BTreeMap;
use std::sync::Arc;

use d2tree::cluster::{
    Applied, Command, ConsensusCluster, ConsensusConfig, ControlState, FaultAction, FaultInjector,
    FaultPlan, FaultRule, FaultScope, LeaderClient,
};
use d2tree::telemetry::{EventKind, Registry};
use rand::{Rng, RngCore};
use support::cases;

const REPLICAS: usize = 3;
const TICK_MS: u64 = 10;

/// A fault plan touching every replica↔replica link with every fault
/// kind the injector knows, scaled by the generated knobs. Partition
/// windows close well before the run ends so liveness can be asserted
/// at the final tick.
fn peer_fault_plan(
    seed: u64,
    drop_p: f64,
    delay_ms: u64,
    dup_p: f64,
    reorder_ms: u64,
    partition_victim: u16,
    partition_ticks: u64,
) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    for r in 0..REPLICAS as u16 {
        if drop_p > 0.0 {
            plan = plan.with_rule(
                FaultRule::new(FaultScope::PeerLink(r), FaultAction::Drop).with_probability(drop_p),
            );
        }
        if delay_ms > 0 {
            plan = plan.with_rule(
                FaultRule::new(
                    FaultScope::PeerLink(r),
                    FaultAction::Delay {
                        fixed_ms: delay_ms,
                        jitter_ms: delay_ms,
                    },
                )
                .with_probability(0.3),
            );
        }
        if dup_p > 0.0 {
            plan = plan.with_rule(
                FaultRule::new(FaultScope::PeerLink(r), FaultAction::Duplicate)
                    .with_probability(dup_p),
            );
        }
        if reorder_ms > 0 {
            plan = plan.with_rule(
                FaultRule::new(
                    FaultScope::PeerLink(r),
                    FaultAction::Reorder {
                        jitter_ms: reorder_ms,
                    },
                )
                .with_probability(0.25),
            );
        }
    }
    if partition_ticks > 0 {
        // Isolate one replica for a bounded window mid-run.
        let from = 50 * TICK_MS;
        plan = plan.with_rule(FaultRule::partition(
            FaultScope::PeerLink(partition_victim),
            from,
            from + partition_ticks * TICK_MS,
        ));
    }
    plan
}

/// Drives a 3-replica cluster for `ticks` virtual ticks under `plan`,
/// submitting lease traffic through a redirect-following client and
/// crash-restarting the leader once mid-run. Returns everything a
/// property could want to inspect.
fn run_consensus(
    seed: u64,
    plan: &FaultPlan,
    ticks: u64,
) -> (ConsensusCluster, Vec<EventKind>, BTreeMap<u64, u16>, u64) {
    let reg = Arc::new(Registry::with_journal_capacity(8_192));
    let mut c = ConsensusCluster::new(seed, ConsensusConfig::default())
        .with_journal(Arc::clone(reg.journal()));
    let injector = FaultInjector::new(plan);
    let mut client = LeaderClient::new(seed, REPLICAS as u16);
    let kill_at = ticks / 3;
    let restart_at = kill_at + 40;
    for tick in 0..ticks {
        let now = tick * TICK_MS;
        if tick == kill_at {
            if let Some(l) = c.leader() {
                c.kill(l, now);
            }
        }
        if tick == restart_at {
            for r in 0..REPLICAS as u16 {
                if !c.is_up(r) {
                    c.restart(r, now);
                }
            }
        }
        let node = 1 + tick % 4;
        let _ = client.try_submit(
            &mut c,
            Command::LeaseAcquire {
                node,
                holder: 9,
                now_ms: now,
            },
            now,
        );
        c.tick(now, Some(&injector));
    }
    let events: Vec<EventKind> = reg.journal().snapshot().iter().map(|e| e.kind).collect();
    let leaders = c.leaders_by_term().clone();
    let retries = client.retries();
    (c, events, leaders, retries)
}

/// The classic log-matching check, stated directly on the replica logs:
/// find the highest index where two logs agree on the term; everything
/// up to and including it must be identical.
fn assert_log_matching(c: &ConsensusCluster) {
    for i in 0..REPLICAS as u16 {
        for j in (i + 1)..REPLICAS as u16 {
            let a = c.replica(i).log();
            let b = c.replica(j).log();
            let common = a.len().min(b.len());
            let agree = (0..common).rev().find(|&k| a[k].term == b[k].term);
            if let Some(k) = agree {
                assert_eq!(
                    &a[..=k],
                    &b[..=k],
                    "log matching violated between replicas {} and {} up to index {}",
                    i,
                    j,
                    k + 1
                );
            }
        }
    }
}

/// Election safety + log matching survive arbitrary combinations of
/// drop/delay/duplicate/reorder rules plus a partition window, and
/// the cluster still ends the run live (a leader exists and the
/// state machine made progress) once faults have cleared.
#[test]
fn safety_holds_under_seeded_peer_faults() {
    cases("safety_holds_under_seeded_peer_faults", 12, |rng| {
        let seed = rng.gen_range(0..512);
        let plan = peer_fault_plan(
            seed ^ 0xfa17,
            rng.gen_range(0.0..0.30),
            rng.gen_range(0..4),
            rng.gen_range(0.0..0.20),
            rng.gen_range(0..3),
            rng.gen_range(0..REPLICAS as u16),
            rng.gen_range(0..60),
        );
        let (c, _events, leaders, _retries) = run_consensus(seed, &plan, 1_200);
        let violations = c.check_invariants();
        assert!(
            violations.is_empty(),
            "violations under seed {seed}: {violations:?}"
        );
        // Election safety: the per-term leader map is total over every
        // term that elected anyone, and terms never repeat a leader
        // inconsistently (a double leader would already be a violation;
        // this asserts the record is well-formed and non-trivial).
        assert!(!leaders.is_empty(), "no leader was ever elected");
        let terms: Vec<_> = leaders.keys().collect();
        assert!(
            terms.windows(2).all(|t| t[0] < t[1]),
            "terms must be strictly increasing"
        );
        assert_log_matching(&c);
        // Liveness after the faults cleared: all partition windows close
        // by tick 110 and probabilistic faults never exceed 30% drop, so
        // by tick 1200 a leader must exist and have committed traffic.
        assert!(c.leader().is_some(), "cluster ended the run leaderless");
        assert!(c.observer().applied > 0, "nothing was ever committed");
        assert!(c.observer().grants > 0, "no lease traffic survived");
    });
}

/// Committed state never forks: every replica's committed prefix is
/// a prefix of the longest one, and fencing tokens observed in grant
/// order are strictly monotonic.
#[test]
fn committed_prefixes_never_fork() {
    cases("committed_prefixes_never_fork", 12, |rng| {
        let (seed, drop_p) = (rng.gen_range(0..512), rng.gen_range(0.0..0.25));
        let victim = rng.gen_range(0..REPLICAS as u16);
        let plan = peer_fault_plan(seed ^ 0x10f5, drop_p, 2, 0.1, 1, victim, 30);
        let (c, events, _leaders, _retries) = run_consensus(seed, &plan, 1_000);
        assert!(c.check_invariants().is_empty());
        for i in 0..REPLICAS as u16 {
            for j in (i + 1)..REPLICAS as u16 {
                let a = c.replica(i);
                let b = c.replica(j);
                let common = (a.commit_index().min(b.commit_index())) as usize;
                assert_eq!(
                    &a.log()[..common.min(a.log().len())],
                    &b.log()[..common.min(b.log().len())],
                    "committed prefixes diverged between {i} and {j}"
                );
            }
        }
        let fences: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                EventKind::LeaseGranted { fence, .. } => Some(*fence),
                _ => None,
            })
            .collect();
        assert!(
            fences.windows(2).all(|w| w[0] < w[1]),
            "fencing tokens must be strictly monotonic across failover: {fences:?}"
        );
    });
}

/// The one lease table, driven directly: over any interleaving of
/// acquires, writes and releases by 3 holders on 2 nodes under a
/// non-decreasing clock, fences strictly increase across all
/// grants, at most one fence per node is valid at any instant, and
/// a write lands exactly when `validate` says its fence is live.
#[test]
fn lease_table_grants_fence_and_validate_agree() {
    cases("lease_table_grants_fence_and_validate_agree", 64, |rng| {
        let words: Vec<u64> = (0..rng.gen_range(1..200)).map(|_| rng.next_u64()).collect();
        const LEASE_MS: u64 = 50;
        let mut state = ControlState::new(LEASE_MS);
        let mut now = 0u64;
        let mut last_fence = 0u64;
        // Every token ever granted, stale ones included: (node, fence).
        let mut tokens: Vec<(u64, u64)> = Vec::new();
        for w in words {
            now += (w >> 8) % 40; // may stand still, never runs back
            let node = (w >> 16) % 2;
            let holder = ((w >> 24) % 3) as u16;
            let pick = (w >> 32) as usize;
            match w % 3 {
                0 => {
                    let cmd = Command::LeaseAcquire {
                        node,
                        holder,
                        now_ms: now,
                    };
                    if let Applied::Granted { fence, .. } = state.apply_command(cmd, None) {
                        assert!(fence > last_fence, "fence {fence} after {last_fence}");
                        last_fence = fence;
                        tokens.push((node, fence));
                    }
                }
                1 if !tokens.is_empty() => {
                    let (node, fence) = tokens[pick % tokens.len()];
                    let live = state.validate(node, fence, now);
                    let before = state.gl_version(node);
                    let out = state.apply_command(
                        Command::GlWrite {
                            node,
                            fence,
                            now_ms: now,
                        },
                        None,
                    );
                    if live {
                        assert_eq!(
                            out,
                            Applied::GlWritten {
                                node,
                                version: before + 1
                            }
                        );
                    } else {
                        assert_eq!(out, Applied::Rejected { node, fence });
                        assert_eq!(state.gl_version(node), before);
                    }
                }
                2 if !tokens.is_empty() => {
                    let (node, fence) = tokens[pick % tokens.len()];
                    let _ = state.apply_command(Command::LeaseRelease { node, fence }, None);
                    assert!(
                        !state.validate(node, fence, now),
                        "released fence still valid"
                    );
                }
                _ => {}
            }
            for n in 0..2u64 {
                let valid = tokens
                    .iter()
                    .filter(|&&(tn, f)| tn == n && state.validate(n, f, now))
                    .count();
                assert!(
                    valid <= 1,
                    "{} fences valid on node {} at t={}",
                    valid,
                    n,
                    now
                );
            }
        }
        assert_eq!(state.max_fence(), last_fence);
    });
}

/// FNV-1a over the journal's `Debug` rendering.
fn journal_fingerprint(events: &[EventKind]) -> (usize, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in events {
        for b in format!("{e:?}").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (events.len(), h)
}

/// Journal length and fingerprint of the double-run test below at seeds
/// 1/7/42, recorded from the build *before* a one-replica cluster could
/// commit (`Replica::propose` running the commit rule): with peers that
/// rule finds nothing new at propose time, so three-replica journals
/// must not move.
const RECORDED_JOURNALS: [(u64, usize, u64); 3] = [
    (1, 234, 0x657e_e682_d2e3_b45e),
    (7, 232, 0xbb5e_6d82_8494_d5c4),
    (42, 234, 0xfa72_b1ac_7a3a_56ad),
];

/// The CI chaos matrix seeds, replayed twice each: journal, observer
/// state, leader history and client retry counts must be identical —
/// the control plane is deterministic end to end, faults included.
#[test]
fn seeds_1_7_42_reproduce_identical_journals() {
    let run = |seed: u64| -> (Vec<EventKind>, ControlState, BTreeMap<u64, u16>, u64) {
        let plan = peer_fault_plan(seed ^ 0xd0_07, 0.2, 2, 0.1, 2, (seed % 3) as u16, 40);
        let (c, events, leaders, retries) = run_consensus(seed, &plan, 1_200);
        assert!(
            c.check_invariants().is_empty(),
            "seed {seed} violated safety: {:?}",
            c.check_invariants()
        );
        (events, c.observer().clone(), leaders, retries)
    };
    let mut fingerprints = Vec::new();
    for &(seed, len, fnv) in &RECORDED_JOURNALS {
        let a = run(seed);
        let b = run(seed);
        assert_eq!(
            journal_fingerprint(&a.0),
            (len, fnv),
            "seed {seed}: the three-replica journal changed"
        );
        assert_eq!(a.0, b.0, "seed {seed}: journals differ between runs");
        assert_eq!(a.1, b.1, "seed {seed}: observer states differ");
        assert_eq!(a.2, b.2, "seed {seed}: leader histories differ");
        assert_eq!(a.3, b.3, "seed {seed}: retry counts differ");
        fingerprints.push(a);
    }
    // The seeds genuinely explore different schedules.
    assert!(
        fingerprints[0].0 != fingerprints[1].0 || fingerprints[1].0 != fingerprints[2].0,
        "all three seeds produced identical journals — the seed is not reaching the schedule"
    );
}
