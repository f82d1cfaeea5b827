//! Deterministic virtual-time chaos engines.
//!
//! [`run_chaos`] replays a seeded schedule of MDS crashes, restarts,
//! Monitor-link partitions, Monitor-replica crashes, peer partitions and
//! forced split votes against the whole control plane — a
//! [`ConsensusCluster`] of `replicas ∈ {1, 3}` Monitor replicas, the
//! real [`Monitor`] verdict logic, the replicated lease table and the
//! mirror-division fail-over and rejoin planners — on a virtual
//! millisecond clock. Nothing takes effect until it commits: the
//! engine proposes [`Command`]s and folds the [`Applied`] outcomes back
//! into its world model. Unlike the wall-clock live runtime, every run
//! with the same seed and config produces an *identical* event journal,
//! so a failing schedule is a reproducible test case, not an anecdote.
//!
//! The engine machine-checks the cluster's safety invariants at every
//! quiesce point (a leader up, no partition active, every crash
//! declared and failed over, nothing in flight, schedule given time to
//! settle) and again at the end:
//!
//! * no local-layer subtree is lost — the ownership table always covers
//!   exactly the subtrees the initial placement published;
//! * no subtree is owned by a crashed server once fail-over settles;
//! * global-layer versions converge across all live replicas (a crashed
//!   replica freezes, misses commits, and must re-sync on restart);
//! * election safety, log matching and strictly increasing fencing
//!   tokens across every crash, partition and re-election.
//!
//! Crashes are adversarial: the schedule's next victim leads the
//! global-layer updates, so it dies *holding* the GL lease (or grabs it
//! with its last breath), and the schedule also exercises the
//! lease-expiry path (updates stay blocked until the dead holder's
//! lease runs out, never forever). Monitor crashes are aimed at
//! whoever leads at fire time.
//!
//! [`run_store_chaos`] is the durability counterpart: it drives real
//! [`MdsStore`]s on disk through a seeded schedule of appends, group
//! commits, snapshots and crashes with injected storage faults (torn
//! writes, lying fsyncs, bit-flipped durable records) and machine-checks
//! the store's recovery contract — a reopened store is always the exact
//! replay of a prefix of its history, never less than the fsynced
//! floor, and detected corruption always fails loudly.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use d2tree_core::{D2TreeConfig, D2TreeScheme, Heartbeat, Partitioner, Subtree};
use d2tree_metrics::{ClusterSpec, MdsId};
use d2tree_namespace::{NamespaceTree, NodeId};
use d2tree_store::wal::{list_segments, FRAME_HEADER, SEGMENT_MAGIC};
use d2tree_store::{AttrState, MdsRecord, MdsState, MdsStore, StoreConfig};
use d2tree_telemetry::{names, EventJournal, EventKind, FaultKind, MetricKey, Registry};
use d2tree_workload::{TraceProfile, WorkloadBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::consensus::{
    Applied, Command, ConsensusCluster, ConsensusConfig, ConsensusTiming, LeaderClient,
};
use crate::fault::{FaultDecision, FaultInjector, FaultPlan, FaultRule, FaultScope, NetEdge};
use crate::monitor::{Monitor, MonitorConfig};

/// Shape of a chaos run. The schedule itself (who dies when, where the
/// partitions fall) is derived deterministically from the seed passed
/// to [`run_chaos`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Data-plane cluster size (MDS servers sending heartbeats).
    pub mds: usize,
    /// Monitor replicas: 1 is the paper's lone Monitor (every proposal
    /// commits as it is made; a Monitor crash is an outage), 3
    /// tolerates one crash.
    pub replicas: usize,
    /// Namespace-tree size the placement is built over.
    pub nodes: usize,
    /// Virtual ticks to run; disruptions are scheduled in the first 60%,
    /// the tail is settle time.
    pub ticks: u64,
    /// Virtual milliseconds per tick (one heartbeat round).
    pub tick_ms: u64,
    /// MDS crash-restart cycles to schedule.
    pub kills: usize,
    /// Monitor-link partition windows to schedule (long enough to cause
    /// false failure declarations, so recovery must also cope with
    /// resurrections of servers that never actually died).
    pub partitions: usize,
    /// Monitor-leader crash/restart cycles to schedule.
    pub monitor_kills: usize,
    /// Replica-link partition windows (one replica loses its inbound
    /// peer traffic for a while — long enough to force a re-election
    /// when the victim is the leader).
    pub peer_partitions: usize,
    /// Forced split votes (every live replica campaigns at once; the
    /// randomized timeouts must untangle it).
    pub split_votes: usize,
    /// When set, a window late in the run crashes all but one replica:
    /// the cluster must degrade to read-only serving (no panics, reads
    /// keep answering, writes blocked) and recover when quorum returns.
    pub quorum_loss: bool,
}

impl ChaosConfig {
    /// The paper's deployment: one Monitor, and a schedule of MDS
    /// crashes and Monitor-link partitions.
    #[must_use]
    pub fn lone_monitor() -> Self {
        ChaosConfig {
            mds: 4,
            replicas: 1,
            nodes: 600,
            ticks: 400,
            tick_ms: 20,
            kills: 2,
            partitions: 1,
            monitor_kills: 0,
            peer_partitions: 0,
            split_votes: 0,
            quorum_loss: false,
        }
    }

    /// Three Monitor replicas under leader crashes, a peer partition
    /// and a forced split vote, with one MDS crash so fail-over
    /// decisions flow through the log while the control plane itself
    /// is being disrupted.
    #[must_use]
    pub fn replicated() -> Self {
        ChaosConfig {
            mds: 4,
            replicas: 3,
            nodes: 400,
            ticks: 900,
            tick_ms: 10,
            kills: 1,
            partitions: 0,
            monitor_kills: 2,
            peer_partitions: 1,
            split_votes: 1,
            quorum_loss: false,
        }
    }

    /// The replica timing a run uses, all derived from the tick.
    #[must_use]
    pub fn timing(&self) -> ConsensusTiming {
        ConsensusTiming {
            heartbeat_ms: 2 * self.tick_ms,
            election_min_ms: 10 * self.tick_ms,
            election_jitter_ms: 10 * self.tick_ms,
            net_delay_ms: 1,
        }
    }
}

/// What a chaos run did and found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosReport {
    /// The seed the schedule was derived from.
    pub seed: u64,
    /// Ticks executed.
    pub ticks: u64,
    /// MDS crashes injected.
    pub kills: usize,
    /// MDS restarts performed.
    pub restarts: usize,
    /// Monitor-link partition windows injected.
    pub partitions: usize,
    /// Rejoin protocols run (restarts of declared-dead servers plus
    /// partition resurrections).
    pub rejoins: usize,
    /// Rejoins in which the returning server was handed at least one
    /// subtree.
    pub rejoins_with_claims: usize,
    /// Global-layer updates blocked by a crashed lock holder's
    /// still-live lease (they unblock at lease expiry).
    pub blocked_updates: u64,
    /// Monitor-replica crashes injected.
    pub monitor_kills: usize,
    /// Monitor-replica restarts performed.
    pub monitor_restarts: usize,
    /// Elections started across all replicas (`elections_total`).
    pub elections: u64,
    /// Distinct leader handovers (`leader_changes_total`).
    pub leader_changes: u64,
    /// Entries committed through the replicated log (`log_commits_total`).
    pub commits: u64,
    /// Leases granted by the replicated lock state machine.
    pub grants: u64,
    /// Global-layer writes committed under a valid lease.
    pub gl_writes: u64,
    /// Writes rejected for stale or expired fencing tokens.
    pub fence_rejections: u64,
    /// Deliberate expired-fence probes that were correctly rejected.
    pub stale_probes_confirmed: usize,
    /// Control-plane submissions that were redirected or re-aimed
    /// (`monitor_retries_total`).
    pub monitor_retries: u64,
    /// Write attempts that found no leader to accept them (read-only
    /// degradation in action).
    pub blocked_writes: u64,
    /// Longest observed leader-loss → re-election gap, in virtual ms.
    pub max_failover_ms: u64,
    /// Subtree re-homings committed through the log.
    pub migrations_committed: u64,
    /// Invariant violations (empty = the cluster survived the schedule).
    pub violations: Vec<String>,
    /// The run's event journal (heartbeats elided), in order. Two runs
    /// with the same seed and config produce identical journals.
    pub journal: Vec<EventKind>,
    /// Messages the fault plan dropped.
    pub faults_dropped: u64,
    /// Messages the fault plan delayed or reordered.
    pub faults_delayed: u64,
    /// Messages the fault plan duplicated.
    pub faults_duplicated: u64,
}

static CHAOS_SEQ: AtomicU64 = AtomicU64::new(0);

fn chaos_root() -> PathBuf {
    std::env::temp_dir().join(format!(
        "d2tree-chaos-{}-{}",
        std::process::id(),
        CHAOS_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Everything the seed decides, in virtual ms.
struct Schedule {
    /// MDS `(kill_at, back_at, victim)` cycles, back to back (never
    /// overlapping), so every scheduled kill fires and gets its restart.
    mds_cycles: Vec<(u64, u64, MdsId)>,
    /// Monitor `(kill_at, back_at)` windows, back to back; the victim is
    /// whoever leads at fire time.
    monitor_windows: Vec<(u64, u64)>,
    split_votes: Vec<u64>,
    /// All-but-one replicas down; lands after the disruption window so
    /// it cannot overlap the single-kill schedules.
    quorum_window: Option<(u64, u64)>,
    /// Monitor-link and peer-link partition windows.
    partition_windows: Vec<(u64, u64)>,
    plan: FaultPlan,
}

fn build_schedule(
    seed: u64,
    config: &ChaosConfig,
    failure_timeout_ms: u64,
    reelect_slack_ms: u64,
) -> Schedule {
    let tick_ms = config.tick_ms;
    let timing = config.timing();
    let disrupt_until_ms = config.ticks * tick_ms * 3 / 5;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    // Nothing is scheduled before the first election can have finished.
    let first_leader_ms = timing.election_min_ms + timing.election_jitter_ms + 2 * tick_ms;

    let mut mds_cycles = Vec::new();
    let mut cursor = first_leader_ms;
    for _ in 0..config.kills {
        let at = cursor + rng.gen_range(1..=5) * tick_ms;
        let back_at = at + failure_timeout_ms + rng.gen_range(2..=6) * tick_ms;
        let victim = MdsId(rng.gen_range(0..config.mds) as u16);
        mds_cycles.push((at, back_at, victim));
        cursor = back_at + tick_ms;
    }
    assert!(
        cursor <= disrupt_until_ms,
        "MDS-kill schedule does not fit: raise ticks or lower kills"
    );
    // Restarts come after the re-election bound so each Monitor crash
    // forces a full failover.
    let mut monitor_windows = Vec::new();
    let mut cursor = first_leader_ms;
    for _ in 0..config.monitor_kills {
        let at = cursor + rng.gen_range(1..=5) * tick_ms;
        let back_at = at + reelect_slack_ms + rng.gen_range(1..=5) * tick_ms;
        monitor_windows.push((at, back_at));
        cursor = back_at + 4 * tick_ms;
    }
    assert!(
        cursor <= disrupt_until_ms,
        "monitor-kill schedule does not fit: raise ticks or lower monitor_kills"
    );
    let mut plan = FaultPlan::new(seed);
    let mut partition_windows = Vec::new();
    let mut window = |rng: &mut StdRng, hold_ms: u64, scope: FaultScope| {
        let from = rng.gen_range(tick_ms..disrupt_until_ms.max(tick_ms + 1));
        let until = from + hold_ms + rng.gen_range(1..=4) * tick_ms;
        partition_windows.push((from, until));
        FaultRule::partition(scope, from, until)
    };
    for _ in 0..config.partitions {
        let victim = rng.gen_range(0..config.mds) as u16;
        let rule = window(
            &mut rng,
            failure_timeout_ms,
            FaultScope::MonitorLink(victim),
        );
        plan = plan.with_rule(rule);
    }
    for _ in 0..config.peer_partitions {
        let victim = rng.gen_range(0..config.replicas) as u16;
        let rule = window(&mut rng, reelect_slack_ms, FaultScope::PeerLink(victim));
        plan = plan.with_rule(rule);
    }
    let mut split_votes: Vec<u64> = (0..config.split_votes)
        .map(|_| rng.gen_range(tick_ms..disrupt_until_ms.max(tick_ms + 1)))
        .collect();
    split_votes.sort_unstable();
    let quorum_window = config.quorum_loss.then(|| {
        let from = disrupt_until_ms + 5 * tick_ms;
        (from, from + 20 * tick_ms)
    });
    Schedule {
        mds_cycles,
        monitor_windows,
        split_votes,
        quorum_window,
        partition_windows,
        plan,
    }
}

/// The GL writer drives its lease lifecycle through these phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GlPhase {
    Idle,
    Acquiring,
    Holding {
        fence: u64,
    },
    Writing {
        fence: u64,
    },
    /// The write committed; the lease goes back.
    Releasing {
        fence: u64,
    },
    /// Deliberately sitting on an expiring lease to probe the fencing
    /// path: the write is submitted only after `expires_at_ms`.
    StaleWait {
        fence: u64,
        expires_at_ms: u64,
    },
    StaleProbe {
        fence: u64,
    },
}

/// Runs one seeded chaos schedule to completion.
///
/// # Panics
///
/// Panics if `config` is degenerate (fewer than two MDSs to fail over
/// between, no replicas, zero ticks or tick length, or a schedule that
/// does not fit the disruption window).
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run_chaos(seed: u64, config: &ChaosConfig) -> ChaosReport {
    assert!(config.mds >= 2, "chaos needs at least two servers");
    assert!(config.replicas >= 1, "a control plane needs replicas");
    assert!(config.ticks > 0 && config.tick_ms > 0, "empty schedule");
    let tick_ms = config.tick_ms;
    let replicas = config.replicas as u16;
    let failure_timeout_ms = 5 * tick_ms;
    let lease_ms = 8 * tick_ms;
    let timing = config.timing();
    let reelect_slack_ms = timing.reelect_bound_ms() + 2 * tick_ms;
    let settle_ms = failure_timeout_ms + 2 * timing.heartbeat_ms + 2 * tick_ms;
    let stale_probe_after_ms = config.ticks * tick_ms / 2;
    // How long the GL writer waits on a commit before assuming the
    // proposal died with a leader and re-issuing (failover-sized, plus
    // the lease the retry may have to wait out).
    let give_up_ms = reelect_slack_ms + 2 * lease_ms;

    // Deterministic topology: placement and local index from the real
    // scheme over a seeded workload tree.
    let w = WorkloadBuilder::new(
        TraceProfile::dtr()
            .with_nodes(config.nodes)
            .with_operations(config.nodes),
    )
    .seed(seed)
    .build();
    let pop = w.popularity();
    let cluster_spec = ClusterSpec::homogeneous(config.mds, 1.0);
    let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default());
    scheme.build(&w.tree, &pop, &cluster_spec);
    let tree = &w.tree;
    // BTreeMap: deterministic iteration order is what makes the journal
    // reproducible.
    let mut owned: BTreeMap<NodeId, MdsId> = scheme.local_index().iter().collect();
    let initial_roots: BTreeSet<NodeId> = owned.keys().copied().collect();
    let gl_node = tree.root().index() as u64; // always replicated

    let schedule = build_schedule(seed, config, failure_timeout_ms, reelect_slack_ms);
    let registry = Arc::new(Registry::with_journal_capacity(64 * 1024));
    names::register_all(&registry);
    let journal = Arc::clone(registry.journal());
    let injector = FaultInjector::new(&schedule.plan).with_registry(Arc::clone(&registry));
    let wal_root = chaos_root();
    let mut cluster = ConsensusCluster::new(
        seed,
        ConsensusConfig {
            replicas: config.replicas,
            timing,
            lease_ms,
            wal_root: Some(wal_root.clone()),
            segment_bytes: 16 * 1024,
        },
    )
    .with_registry(Arc::clone(&registry))
    .with_journal(Arc::clone(&journal));
    // One Monitor stands for whichever replica leads: `take_lead` wipes
    // what a fresh leader could not know. Membership verdicts reach the
    // journal only when they commit.
    let mut mon = Monitor::with_journal(
        MonitorConfig {
            heartbeat_interval_ms: tick_ms,
            failure_timeout_ms,
            ..MonitorConfig::default()
        },
        config.mds,
        Arc::clone(&journal),
    );
    let mut client = LeaderClient::new(seed, replicas).with_registry(&registry);

    // The data plane: who is crashed, who the committed view has
    // declared, each MDS's GL replica version.
    let mut killed = vec![false; config.mds];
    let mut declared: BTreeSet<u16> = BTreeSet::new();
    let mut rejoining: Vec<MdsId> = Vec::new();
    let mut gl_versions = vec![0u64; config.mds];
    // Subtrees with a `Migrate` proposed and not yet committed.
    let mut in_flight: BTreeSet<u64> = BTreeSet::new();
    let mut known_leader: Option<(u16, u64)> = None;
    let mut reelect_deadline: Option<u64> = None;
    let mut gl_phase = GlPhase::Idle;
    let mut writer = 0u16;
    let mut phase_since = 0u64;
    let mut last_fence = 0u64;
    let mut last_disruption_ms = 0u64;
    let (mut next_cycle, mut cycle_fired) = (0usize, false);
    let mut next_window = 0usize;
    let mut next_split = 0usize;

    let mut report = ChaosReport {
        seed,
        ticks: config.ticks,
        partitions: config.partitions,
        ..ChaosReport::default()
    };

    for tick in 0..config.ticks {
        let now = tick * tick_ms;
        let within = |&(from, until): &(u64, u64)| now >= from && now < until;
        let in_partition = schedule.partition_windows.iter().any(within);
        let in_quorum_loss = schedule.quorum_window.as_ref().is_some_and(within);

        // 1. Scheduled control-plane disruptions.
        if let Some(&(at, back_at)) = schedule.monitor_windows.get(next_window) {
            if now >= back_at {
                report.monitor_restarts +=
                    (0..replicas).filter(|&r| cluster.restart(r, now)).count();
                if cluster.leader().is_none() {
                    reelect_deadline = Some(now + reelect_slack_ms);
                }
                last_disruption_ms = now;
                next_window += 1;
            } else if now >= at && cluster.up_count() == config.replicas {
                // Kill the current leader (or replica 0 while leaderless).
                let victim = cluster.leader().unwrap_or(0);
                if cluster.kill(victim, now) {
                    report.monitor_kills += 1;
                    known_leader = None;
                    reelect_deadline = Some(now + reelect_slack_ms);
                    last_disruption_ms = now;
                }
            }
        }
        if let Some((_, until)) = schedule.quorum_window {
            if in_quorum_loss && cluster.up_count() == config.replicas {
                let survivor = cluster.leader().map_or(0, |l| (l + 1) % replicas);
                report.monitor_kills += (0..replicas)
                    .filter(|&r| r != survivor && cluster.kill(r, now))
                    .count();
                known_leader = None;
                reelect_deadline = None;
            }
            if now >= until && cluster.up_count() < config.replicas {
                report.monitor_restarts +=
                    (0..replicas).filter(|&r| cluster.restart(r, now)).count();
                reelect_deadline = Some(now + reelect_slack_ms);
                last_disruption_ms = now;
            }
        }
        if schedule
            .split_votes
            .get(next_split)
            .is_some_and(|&at| now >= at)
        {
            next_split += 1;
            cluster.force_split_vote(now);
            known_leader = None;
            reelect_deadline = Some(now + reelect_slack_ms);
            last_disruption_ms = now;
        }

        // 2. Scheduled data-plane disruptions. A victim stays down
        // until the control plane has declared it (bounded by one
        // re-election), so its restart races the fail-over it caused.
        if let Some(&(at, back_at, victim)) = schedule.mds_cycles.get(next_cycle) {
            let v = victim.index();
            if !cycle_fired {
                if now >= at {
                    // Adversarial crash: the victim dies leading a GL
                    // update — holding its lease, or grabbing a free one
                    // with its last message — wedging updates until
                    // lease expiry.
                    if gl_phase == GlPhase::Idle {
                        let grab = Command::LeaseAcquire {
                            node: gl_node,
                            holder: victim.0,
                            now_ms: now,
                        };
                        let _ = client.try_submit(&mut cluster, grab, now);
                    } else if writer == victim.0 {
                        gl_phase = GlPhase::Idle;
                    }
                    killed[v] = true;
                    cycle_fired = true;
                    report.kills += 1;
                    last_disruption_ms = now;
                }
            } else if now >= back_at
                && (declared.contains(&victim.0) || now >= back_at + reelect_slack_ms)
            {
                // GL re-sync: a restarted replica copies the committed
                // state before serving (mirrors LiveCluster::restart).
                gl_versions[v] = cluster.observer().gl_version(gl_node);
                killed[v] = false;
                report.restarts += 1;
                last_disruption_ms = now;
                (next_cycle, cycle_fired) = (next_cycle + 1, false);
            }
        }

        // 3. Leadership bookkeeping: a fresh leader's Monitor starts
        // its clocks over and forgets uncommitted proposals; a quorate
        // cluster must not stay leaderless past the re-election bound.
        let leader = cluster.leader();
        if let Some(l) = leader {
            let term = cluster.replica(l).term();
            if known_leader != Some((l, term)) {
                known_leader = Some((l, term));
                mon.take_lead(now);
                in_flight.clear();
                last_disruption_ms = now;
            }
            reelect_deadline = None;
            if let Some(f) = cluster.last_failover_ms() {
                report.max_failover_ms = report.max_failover_ms.max(f);
            }
        } else if let Some(deadline) = reelect_deadline {
            let quorum = cluster.up_count() * 2 > config.replicas;
            if now > deadline && quorum && !in_partition && !in_quorum_loss {
                report.violations.push(format!(
                    "t={now}: no leader within the re-election bound ({}ms past loss)",
                    timing.reelect_bound_ms()
                ));
                reelect_deadline = None;
            }
        }

        if let Some(l) = leader {
            // 4. MDS heartbeats reach the leader's Monitor through the
            // (possibly partitioned) monitor links; its verdicts become
            // proposals. A first heartbeat registers the server.
            for (k, &dead) in killed.iter().enumerate() {
                let edge = NetEdge::MdsToMonitor(k as u16);
                if dead || injector.decide(edge, now) == FaultDecision::Drop {
                    continue;
                }
                let hb = Heartbeat {
                    mds: MdsId(k as u16),
                    load: owned.values().filter(|&&o| o.index() == k).count() as f64,
                };
                if let Some(cmd) = mon.on_heartbeat(hb, now, cluster.observer()) {
                    let _ = cluster.submit(l, cmd, now);
                }
            }
            for cmd in mon.detect_failures(now, cluster.observer()) {
                let _ = cluster.submit(l, cmd, now);
            }

            // 5. Planning over the committed view. Rejoin: a server
            // whose `MdsAlive` just committed is handed subtrees.
            // Fail-over (and its resume): any subtree still owned by a
            // committed-dead MDS gets a re-homing proposed — including
            // orphans inherited from a leader that died mid-rebalance.
            let dead_owners: BTreeSet<MdsId> = owned
                .values()
                .filter(|o| declared.contains(&o.0))
                .copied()
                .collect();
            let mut plans = Vec::new();
            if !(rejoining.is_empty() && dead_owners.is_empty()) {
                let table = subtree_table(tree, &owned);
                for back in std::mem::take(&mut rejoining) {
                    let plan = mon.plan_rejoin(back, &table, cluster.observer());
                    let claimed = plan.iter().filter(|mg| mg.to == back).count();
                    report.rejoins += 1;
                    report.rejoins_with_claims += usize::from(claimed > 0);
                    journal.record(EventKind::MdsRejoined {
                        mds: back.0,
                        claimed: claimed as u64,
                    });
                    plans.extend(plan);
                }
                for dead in dead_owners {
                    let plan = mon.plan_failover(dead, &table, &cluster_spec, cluster.observer());
                    plans.extend(plan);
                }
            }
            for mg in plans {
                let subtree = mg.node.index() as u64;
                if in_flight.insert(subtree) {
                    let migrate = Command::Migrate {
                        subtree,
                        from: mg.from.0,
                        to: mg.to.0,
                    };
                    let _ = cluster.submit(l, migrate, now);
                }
            }
        }

        // 6. The GL writer drives its lease lifecycle through the
        // replicated lock state machine, via leader discovery + the
        // shared retry policy: what it wants to submit this tick, and
        // the phase a successful submission moves it to.
        let step = match gl_phase {
            GlPhase::Idle => {
                // The schedule's next victim leads the update while it
                // lives; otherwise any live server can.
                let lead = schedule
                    .mds_cycles
                    .get(next_cycle)
                    .map(|&(_, _, v)| v.index())
                    .filter(|&v| !killed[v])
                    .or_else(|| killed.iter().position(|&dead| !dead));
                lead.map(|lead| {
                    writer = lead as u16;
                    let acquire = Command::LeaseAcquire {
                        node: gl_node,
                        holder: writer,
                        now_ms: now,
                    };
                    (acquire, GlPhase::Acquiring)
                })
            }
            GlPhase::Holding { fence }
                if report.stale_probes_confirmed == 0 && now >= stale_probe_after_ms =>
            {
                // Hold the lease past expiry instead of writing.
                gl_phase = GlPhase::StaleWait {
                    fence,
                    expires_at_ms: now + lease_ms,
                };
                None
            }
            GlPhase::Holding { fence } => {
                let write = Command::GlWrite {
                    node: gl_node,
                    fence,
                    now_ms: now,
                };
                Some((write, GlPhase::Writing { fence }))
            }
            GlPhase::Releasing { fence } => {
                let release = Command::LeaseRelease {
                    node: gl_node,
                    fence,
                };
                Some((release, GlPhase::Idle))
            }
            GlPhase::StaleWait {
                fence,
                expires_at_ms,
            } => (now > expires_at_ms).then(|| {
                let write = Command::GlWrite {
                    node: gl_node,
                    fence,
                    now_ms: now,
                };
                (write, GlPhase::StaleProbe { fence })
            }),
            GlPhase::Acquiring | GlPhase::Writing { .. } | GlPhase::StaleProbe { .. } => {
                // Waiting on a commit; resolved in step 7. A proposal
                // accepted by a leader that died before replicating it
                // is simply lost — after a failover-sized wait assume
                // the worst and re-issue, like a real client timing out.
                if now.saturating_sub(phase_since) > give_up_ms {
                    gl_phase = match gl_phase {
                        // Re-arm the probe: the expired fence must
                        // still be submitted and rejected, not
                        // forgotten with the lost message.
                        GlPhase::StaleProbe { fence } => GlPhase::StaleWait {
                            fence,
                            expires_at_ms: now,
                        },
                        _ => GlPhase::Idle,
                    };
                    phase_since = now;
                }
                None
            }
        };
        if let Some((cmd, then)) = step {
            if client.try_submit(&mut cluster, cmd, now).is_some() {
                gl_phase = then;
                phase_since = now;
            } else if leader.is_none() {
                // Nobody to take it: the control plane is read-only.
                report.blocked_writes += 1;
            }
        }

        // 7. Advance the consensus cluster one step and fold the newly
        // committed entries back into the chaos world.
        for (_entry, outcome) in cluster.tick(now, Some(&injector)) {
            mon.on_applied(&outcome);
            match outcome {
                Applied::Membership { mds, alive: false } => {
                    declared.insert(mds);
                    last_disruption_ms = now;
                }
                Applied::Membership { mds, alive: true } => {
                    if declared.remove(&mds) {
                        rejoining.push(MdsId(mds));
                    }
                    last_disruption_ms = now;
                }
                Applied::Granted { fence, holder, .. } => {
                    if fence <= last_fence {
                        report.violations.push(format!(
                            "t={now}: fence regression {fence} after {last_fence}"
                        ));
                    }
                    last_fence = fence;
                    let live = !killed.get(holder as usize).copied().unwrap_or(true);
                    if gl_phase == GlPhase::Acquiring && holder == writer && live {
                        gl_phase = GlPhase::Holding { fence };
                    }
                }
                Applied::Busy => {
                    let holder = cluster.observer().lease(gl_node).map(|l| l.holder);
                    if holder.is_some_and(|h| killed.get(h as usize).copied().unwrap_or(false)) {
                        report.blocked_updates += 1; // wedged by a crashed holder
                    }
                    if gl_phase == GlPhase::Acquiring {
                        gl_phase = GlPhase::Idle;
                    }
                }
                Applied::GlWritten { version, .. } => {
                    report.gl_writes += 1;
                    // The commit propagates to live replicas only.
                    for (k, v) in gl_versions.iter_mut().enumerate() {
                        if !killed[k] {
                            *v = version;
                        }
                    }
                    if let GlPhase::Writing { fence } = gl_phase {
                        gl_phase = GlPhase::Releasing { fence };
                    }
                }
                Applied::Rejected { .. } => match gl_phase {
                    GlPhase::StaleProbe { .. } => {
                        report.stale_probes_confirmed += 1;
                        gl_phase = GlPhase::Idle;
                    }
                    // An honest write raced lease expiry (e.g. blocked
                    // behind a long failover): the fence did its job.
                    // Start over.
                    GlPhase::Writing { .. } => gl_phase = GlPhase::Idle,
                    _ => {}
                },
                Applied::Migrated { subtree, to, .. } => {
                    report.migrations_committed += 1;
                    in_flight.remove(&subtree);
                    if !apply_migration(&journal, tree, &mut owned, subtree, MdsId(to)) {
                        report
                            .violations
                            .push(format!("t={now}: migrate of unknown subtree {subtree}"));
                    }
                }
                Applied::Noop | Applied::Released => {}
            }
        }

        // 8. Invariant check at quiesce points.
        let undeclared_crash = killed
            .iter()
            .enumerate()
            .any(|(k, &dead)| dead && !declared.contains(&(k as u16)));
        let idle = in_flight.is_empty() && rejoining.is_empty();
        let settled = now >= last_disruption_ms + settle_ms;
        if leader.is_some() && !in_partition && !undeclared_crash && idle && settled {
            let committed = cluster.observer().gl_version(gl_node);
            check_invariants(
                tick,
                &owned,
                &initial_roots,
                &killed,
                &gl_versions,
                committed,
                &mut report.violations,
            );
        }
    }

    // Final sweep: the schedule restarts every victim, so the run must
    // end healthy regardless of where the last quiesce point fell.
    check_invariants(
        config.ticks,
        &owned,
        &initial_roots,
        &killed,
        &gl_versions,
        cluster.observer().gl_version(gl_node),
        &mut report.violations,
    );
    report.violations.extend(cluster.check_invariants());
    // A replica that has applied as far as the observer — recovered
    // from its WAL or not — holds exactly the committed membership,
    // leases, fence counter, GL versions and ownership.
    for r in (0..replicas).filter(|&r| cluster.is_up(r)) {
        let state = cluster.replica(r).state();
        if state.applied == cluster.observer().applied && state != cluster.observer() {
            report
                .violations
                .push(format!("replica {r} diverged from the committed state"));
        }
    }
    for (&root, &owner) in &owned {
        if !cluster.observer().is_alive(owner.0) {
            report.violations.push(format!(
                "subtree {} still owned by dead mds{} at the end",
                root.index(),
                owner.0
            ));
        }
    }
    // Fencing tokens in the shared journal must be strictly monotonic —
    // across failovers, restarts and partitions.
    let snap = registry.snapshot();
    let mut prev = 0u64;
    for e in &snap.events {
        if let EventKind::LeaseGranted { fence, .. } = e.kind {
            if fence <= prev {
                report
                    .violations
                    .push(format!("journal fence regression: {fence} after {prev}"));
            }
            prev = fence;
        }
    }

    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(k, _)| k.name == name)
            .map_or(0, |&(_, v)| v)
    };
    report.elections = counter(names::ELECTIONS_TOTAL);
    report.leader_changes = counter(names::LEADER_CHANGES_TOTAL);
    report.commits = counter(names::LOG_COMMITS_TOTAL);
    report.monitor_retries = counter(names::MONITOR_RETRIES_TOTAL);
    report.grants = cluster.observer().grants;
    report.fence_rejections = cluster.observer().fence_rejections;
    report.faults_dropped = counter(names::FAULTS_DROPPED);
    report.faults_delayed = counter(names::FAULTS_DELAYED);
    report.faults_duplicated = counter(names::FAULTS_DUPLICATED);
    report.journal = snap
        .events
        .iter()
        .map(|e| e.kind)
        .filter(|k| !matches!(k, EventKind::Heartbeat { .. }))
        .collect();
    fs::remove_dir_all(&wal_root).ok();
    report
}

/// The ownership table as the Monitor's planners want it: subtree
/// descriptors (size-weighted popularity keeps weights positive and
/// deterministic) paired with their current owner.
fn subtree_table(tree: &NamespaceTree, owned: &BTreeMap<NodeId, MdsId>) -> Vec<(Subtree, MdsId)> {
    owned
        .iter()
        .map(|(&root, &owner)| {
            let parent = tree.node(root).and_then(|n| n.parent()).unwrap_or(root);
            (
                Subtree {
                    root,
                    parent,
                    popularity: tree.subtree_size(root) as f64,
                    size: tree.subtree_size(root),
                },
                owner,
            )
        })
        .collect()
}

/// Applies one committed re-homing to the ownership table and journals
/// it as a shed/claim pair. `false` if the table has no such subtree.
fn apply_migration(
    journal: &EventJournal,
    tree: &NamespaceTree,
    owned: &mut BTreeMap<NodeId, MdsId>,
    subtree: u64,
    to: MdsId,
) -> bool {
    let root = NodeId::from_index(subtree as usize);
    let Some(owner) = owned.get_mut(&root) else {
        return false;
    };
    let from = std::mem::replace(owner, to);
    let size = tree.subtree_size(root) as u64;
    journal.record(EventKind::SubtreeShed {
        from: from.0,
        subtree,
        size,
        popularity: size as f64,
    });
    journal.record(EventKind::SubtreeClaimed {
        to: to.0,
        subtree,
        size,
        popularity: size as f64,
    });
    true
}

/// One invariant sweep; violations are appended with their tick.
fn check_invariants(
    tick: u64,
    owned: &BTreeMap<NodeId, MdsId>,
    initial_roots: &BTreeSet<NodeId>,
    killed: &[bool],
    gl_versions: &[u64],
    committed_gl_version: u64,
    violations: &mut Vec<String>,
) {
    let roots: BTreeSet<NodeId> = owned.keys().copied().collect();
    if roots != *initial_roots {
        for lost in initial_roots.difference(&roots) {
            violations.push(format!("tick {tick}: subtree {} lost", lost.index()));
        }
        for extra in roots.difference(initial_roots) {
            violations.push(format!(
                "tick {tick}: phantom subtree {} appeared",
                extra.index()
            ));
        }
    }
    for (&root, &owner) in owned {
        if killed.get(owner.index()).copied().unwrap_or(true) {
            violations.push(format!(
                "tick {tick}: subtree {} owned by crashed mds{}",
                root.index(),
                owner.0
            ));
        }
    }
    let live: Vec<(usize, u64)> = gl_versions
        .iter()
        .enumerate()
        .filter(|&(k, _)| !killed[k])
        .map(|(k, &v)| (k, v))
        .collect();
    if live.iter().any(|&(_, v)| v != committed_gl_version) {
        violations.push(format!(
            "tick {tick}: GL replica divergence {live:?} vs committed {committed_gl_version}"
        ));
    }
}

// ---------------------------------------------------------------------------
// Store chaos: the durability counterpart of `run_chaos`.

/// Shape of a store-chaos run. The schedule (who crashes when, how each
/// crash tears the log, where the bit-flips land) is derived
/// deterministically from the seed passed to [`run_store_chaos`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreChaosConfig {
    /// Stores (MDSs) under test.
    pub mds: usize,
    /// Virtual steps; every store appends one record per step.
    pub steps: u64,
    /// Crash-recover cycles to schedule across the run.
    pub crashes: usize,
    /// Bit-flip corruption probes to schedule in the second half.
    pub corrupt_probes: usize,
    /// WAL segment size; small so rotation and snapshot pruning are
    /// exercised by a short run.
    pub segment_bytes: u64,
}

impl Default for StoreChaosConfig {
    fn default() -> Self {
        StoreChaosConfig {
            mds: 3,
            steps: 240,
            crashes: 6,
            corrupt_probes: 2,
            segment_bytes: 2048,
        }
    }
}

/// What a store-chaos run did and found.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreChaosReport {
    /// The seed the schedule was derived from.
    pub seed: u64,
    /// Steps executed.
    pub steps: u64,
    /// Records appended across all stores.
    pub records_appended: u64,
    /// Explicit group commits performed.
    pub syncs: u64,
    /// Snapshots written.
    pub snapshots: u64,
    /// Crash-recover cycles executed.
    pub crashes: usize,
    /// Recoveries that truncated a torn WAL tail. Not disjoint from
    /// [`StoreChaosReport::partial_fsyncs`]: a lying fsync usually cuts
    /// the segment mid-frame, so the same crash counts in both.
    pub torn_crashes: usize,
    /// Crashes struck by an injected lying fsync (a durable suffix was
    /// destroyed behind the store's back).
    pub partial_fsyncs: usize,
    /// Partial-fsync damage the store refused to open (the fail-loud
    /// path: lost durable writes detected, no state invented).
    pub loud_failures: usize,
    /// Unsynced (or fault-destroyed) records legitimately lost across
    /// all crashes.
    pub records_lost: u64,
    /// Corruption probes actually executed (a probe needs at least one
    /// multi-frame durable segment to flip a bit in).
    pub corrupt_probes: usize,
    /// Probes whose bit-flip the recovery scan caught as corruption.
    pub corruptions_detected: usize,
    /// Contract violations (empty = the store survived the schedule).
    pub violations: Vec<String>,
    /// The run's event journal, in order; recovery timings are
    /// normalised to zero so two same-seed runs compare equal.
    pub journal: Vec<EventKind>,
}

static STORE_CHAOS_SEQ: AtomicU64 = AtomicU64::new(0);

fn store_chaos_root() -> PathBuf {
    std::env::temp_dir().join(format!(
        "d2tree-storechaos-{}-{}",
        std::process::id(),
        STORE_CHAOS_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// One seeded record with plausible field ranges; collisions in `node`
/// and `root` keep the version-gating and last-writer-wins paths hot.
fn random_store_record(rng: &mut StdRng) -> MdsRecord {
    match rng.gen_range(0..4u8) {
        0 => MdsRecord::AttrCommit {
            node: rng.gen_range(0..512),
            gl: rng.gen_bool(0.25),
            attr: AttrState {
                version: rng.gen_range(1..1_000),
                mode: 0o644,
                uid: rng.gen_range(0..8),
                gid: rng.gen_range(0..8),
                size: rng.gen_range(0..1 << 20),
                mtime: rng.gen_range(0..1 << 30),
            },
        },
        1 => MdsRecord::Ownership {
            root: rng.gen_range(0..128),
            acquired: rng.gen_bool(0.5),
        },
        2 => MdsRecord::GlRecut {
            version: rng.gen_range(1..1_000),
            promoted: rng.gen_range(0..16),
            demoted: rng.gen_range(0..16),
        },
        _ => MdsRecord::Popularity {
            root: rng.gen_range(0..128),
            bits: f64::from(rng.gen_range(0u32..1 << 20)).to_bits(),
        },
    }
}

fn replay_prefix(history: &[MdsRecord]) -> MdsState {
    let mut state = MdsState::default();
    for record in history {
        state.apply(record);
    }
    state
}

/// Flips one CRC-covered payload bit in a segment's first frame, but
/// only when a second complete frame follows it — that guarantees the
/// recovery scan must call the damage corruption, never a torn tail.
/// Returns whether a bit was flipped.
fn flip_bit_in_first_frame(path: &Path) -> std::io::Result<bool> {
    let mut bytes = fs::read(path)?;
    // The `len` field of the frame starting at `at`, if its header is there.
    let frame_len = |at: usize| {
        let header = bytes.get(at..at + FRAME_HEADER)?;
        Some(u32::from_be_bytes(header[..4].try_into().expect("4 bytes")) as usize)
    };
    let first = SEGMENT_MAGIC.len();
    let Some(second) = frame_len(first).map(|len| first + FRAME_HEADER + len) else {
        return Ok(false);
    };
    match frame_len(second) {
        Some(len) if bytes.len() >= second + FRAME_HEADER + len => {}
        _ => return Ok(false),
    }
    bytes[first + FRAME_HEADER] ^= 0x01; // first payload byte, inside the CRC
    fs::write(path, bytes)?;
    Ok(true)
}

/// Copies a (synced) store directory aside, flips a durable bit in it
/// and checks the store refuses to open. `None` = nothing flippable
/// yet; `Some(detected)` otherwise.
fn corrupt_probe(src: &Path, probe: &Path, config: StoreConfig) -> Option<bool> {
    fs::create_dir_all(probe).ok()?;
    for entry in fs::read_dir(src).ok()?.flatten() {
        fs::copy(entry.path(), probe.join(entry.file_name())).ok()?;
    }
    let flipped = list_segments(probe)
        .ok()?
        .iter()
        .any(|(_, seg)| flip_bit_in_first_frame(seg).unwrap_or(false));
    if !flipped {
        return None;
    }
    Some(matches!(MdsStore::open(probe, config), Err(e) if e.is_corrupt()))
}

/// Outcome of one crash-recover cycle.
struct CrashOutcome {
    store: MdsStore,
    lost: u64,
    torn: bool,
    loud_failure: bool,
}

/// Crashes `store` according to `fault`, reopens the directory and
/// checks the recovery contract: the recovered state must be the exact
/// replay of `history[..next_lsn]`, with `next_lsn` at or above the
/// fsynced floor unless the fault destroyed durable bytes. `history`
/// and `synced` are truncated to the recovered reality.
#[allow(clippy::too_many_arguments)]
fn crash_recover_check(
    dir: &Path,
    store_config: StoreConfig,
    registry: &Arc<Registry>,
    mds: u16,
    store: MdsStore,
    history: &mut Vec<MdsRecord>,
    synced: &mut usize,
    fault: Option<FaultKind>,
    rng: &mut StdRng,
    step: u64,
    violations: &mut Vec<String>,
) -> CrashOutcome {
    let mut floor = *synced;
    let mut durable_destroyed = false;
    match fault {
        // Clean crash: the whole unsynced pending buffer vanishes.
        None => store.simulate_crash(0).expect("crash"),
        // Torn write: a prefix of the pending buffer reaches the
        // platter, usually cutting the last frame mid-way.
        Some(FaultKind::TornWrite) => {
            let pending = store.pending_bytes();
            let keep = if pending == 0 {
                0
            } else {
                rng.gen_range(0..pending)
            };
            store.simulate_crash(keep).expect("crash");
        }
        // Lying fsync (the only other fault drawn): the store syncs, the
        // drive reports success, and a suffix of the segment is
        // destroyed anyway.
        Some(_) => {
            let mut store = store;
            store.sync().expect("sync");
            store.simulate_crash(0).expect("crash");
            if let Some((_, tail)) = list_segments(dir).ok().and_then(|mut segs| segs.pop()) {
                let len = fs::metadata(&tail).map(|m| m.len()).unwrap_or(0);
                if len > SEGMENT_MAGIC.len() as u64 {
                    let cut = rng.gen_range(1..=len.min(64));
                    let file = fs::OpenOptions::new()
                        .write(true)
                        .open(&tail)
                        .expect("reopen tail segment");
                    file.set_len(len - cut).expect("truncate tail segment");
                    durable_destroyed = true;
                    floor = 0;
                }
            }
        }
    }

    let (reopened, info) = match MdsStore::open(dir, store_config) {
        Ok(pair) => pair,
        Err(e) if e.is_corrupt() && durable_destroyed => {
            // The fail-loud path: recovery noticed durable writes are
            // missing (e.g. the WAL regressed behind its snapshot) and
            // refused to invent state. Start the store over.
            let lost = history.len() as u64;
            history.clear();
            *synced = 0;
            fs::remove_dir_all(dir).expect("wipe corrupt store");
            let (fresh, _) = MdsStore::open(dir, store_config).expect("reopen wiped store");
            return CrashOutcome {
                store: fresh.with_registry(registry, mds),
                lost,
                torn: false,
                loud_failure: true,
            };
        }
        Err(e) => panic!("store for mds{mds} failed to reopen after crash: {e}"),
    };

    let recovered = info.next_lsn as usize;
    if recovered > history.len() {
        violations.push(format!(
            "step {step}: mds{mds} recovered {recovered} records but only {} were appended",
            history.len()
        ));
    } else {
        if recovered < floor {
            violations.push(format!(
                "step {step}: mds{mds} lost fsynced records: recovered {recovered} < floor {floor}"
            ));
        }
        if *reopened.state() != replay_prefix(&history[..recovered]) {
            violations.push(format!(
                "step {step}: mds{mds} recovered state is not the exact replay of its first {recovered} records"
            ));
        }
    }
    let keep = recovered.min(history.len());
    let lost = (history.len() - keep) as u64;
    history.truncate(keep);
    *synced = keep;
    registry.journal().record(EventKind::StoreRecovered {
        mds,
        records: info.records_replayed,
        torn_bytes: info.torn_bytes,
        recovery_ms: 0, // normalised: keeps same-seed journals identical
    });
    CrashOutcome {
        store: reopened.with_registry(registry, mds),
        lost,
        torn: info.torn_bytes > 0,
        loud_failure: false,
    }
}

/// Runs one seeded store-chaos schedule to completion. Stores live in
/// fresh directories under the system temp dir and are removed before
/// returning.
///
/// # Panics
///
/// Panics if `config` is degenerate (no stores or steps, or more
/// crashes/probes than the schedule can place) or on I/O errors in the
/// scratch directory.
#[must_use]
pub fn run_store_chaos(seed: u64, config: &StoreChaosConfig) -> StoreChaosReport {
    assert!(config.mds >= 1, "store chaos needs at least one store");
    assert!(config.steps > 0, "empty schedule");
    assert!(
        config.crashes <= config.steps as usize / 4,
        "schedule does not fit: raise steps or lower crashes"
    );
    assert!(
        config.corrupt_probes <= config.steps as usize / 8,
        "schedule does not fit: raise steps or lower corrupt_probes"
    );

    let root = store_chaos_root();
    let mut store_config = StoreConfig::manual();
    store_config.segment_bytes = config.segment_bytes;

    let registry = Arc::new(Registry::with_journal_capacity(64 * 1024));
    names::register_all(&registry);
    // Each crash draws how it tears from a stream of its own: ~50% torn
    // writes, ~25% lying fsyncs, the rest crash cleanly between frames.
    let mut fault_rng = StdRng::seed_from_u64(seed);
    let storage_faults = registry.counter(MetricKey::global(names::FAULTS_STORAGE));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5851_f42d_4c95_7f2d);

    let mut stores: Vec<MdsStore> = (0..config.mds)
        .map(|k| {
            let (store, _) = MdsStore::open(root.join(format!("mds-{k}")), store_config)
                .expect("fresh store opens");
            store.with_registry(&registry, k as u16)
        })
        .collect();
    let mut history: Vec<Vec<MdsRecord>> = vec![Vec::new(); config.mds];
    let mut synced: Vec<usize> = vec![0; config.mds];

    // Seeded schedule: crashes anywhere past warm-up, probes in the
    // second half (so there is durable multi-frame data to flip).
    let mut crash_steps: BTreeMap<u64, usize> = BTreeMap::new();
    while crash_steps.len() < config.crashes {
        let at = rng.gen_range(1..config.steps);
        let victim = rng.gen_range(0..config.mds);
        crash_steps.entry(at).or_insert(victim);
    }
    let mut probe_steps: BTreeMap<u64, usize> = BTreeMap::new();
    while probe_steps.len() < config.corrupt_probes {
        let at = rng.gen_range(config.steps / 2..config.steps);
        probe_steps
            .entry(at)
            .or_insert(rng.gen_range(0..config.mds));
    }

    let mut records_appended = 0u64;
    let mut syncs = 0u64;
    let mut snapshots = 0u64;
    let mut crashes = 0usize;
    let mut torn_crashes = 0usize;
    let mut partial_fsyncs = 0usize;
    let mut loud_failures = 0usize;
    let mut records_lost = 0u64;
    let mut probes_run = 0usize;
    let mut corruptions_detected = 0usize;
    let mut violations: Vec<String> = Vec::new();

    for step in 0..config.steps {
        // 1. Every store appends one record.
        for (k, store) in stores.iter_mut().enumerate() {
            let record = random_store_record(&mut rng);
            store.append_deferred(record).expect("append");
            history[k].push(record);
            records_appended += 1;
        }

        // 2. Seeded group commits and the occasional snapshot.
        for k in 0..config.mds {
            if rng.gen_bool(0.25) {
                stores[k].sync().expect("sync");
                synced[k] = history[k].len();
                syncs += 1;
            }
        }
        if rng.gen_bool(0.05) {
            let k = rng.gen_range(0..config.mds);
            stores[k].snapshot().expect("snapshot");
            synced[k] = history[k].len();
            snapshots += 1;
        }

        // 3. Scheduled crash, torn as its draw says.
        if let Some(&victim) = crash_steps.get(&step) {
            let fault = if fault_rng.gen_bool(0.5) {
                Some(FaultKind::TornWrite)
            } else if fault_rng.gen_bool(0.5) {
                Some(FaultKind::PartialFsync)
            } else {
                None
            };
            if let Some(fault) = fault {
                storage_faults.inc();
                registry.journal().record(EventKind::FaultInjected {
                    fault,
                    mds: victim as u16,
                });
            }
            let dir = root.join(format!("mds-{victim}"));
            let store = stores.remove(victim);
            let outcome = crash_recover_check(
                &dir,
                store_config,
                &registry,
                victim as u16,
                store,
                &mut history[victim],
                &mut synced[victim],
                fault,
                &mut rng,
                step,
                &mut violations,
            );
            stores.insert(victim, outcome.store);
            crashes += 1;
            records_lost += outcome.lost;
            if outcome.torn {
                torn_crashes += 1;
            }
            if fault == Some(FaultKind::PartialFsync) {
                partial_fsyncs += 1;
            }
            if outcome.loud_failure {
                loud_failures += 1;
            }
        }

        // 4. Scheduled corruption probe against a synced copy.
        if let Some(&victim) = probe_steps.get(&step) {
            stores[victim].sync().expect("sync");
            synced[victim] = history[victim].len();
            let probe_dir = root.join(format!("probe-{step}"));
            if let Some(detected) = corrupt_probe(stores[victim].dir(), &probe_dir, store_config) {
                probes_run += 1;
                storage_faults.inc();
                registry.journal().record(EventKind::FaultInjected {
                    fault: FaultKind::CorruptRecord,
                    mds: victim as u16,
                });
                if detected {
                    corruptions_detected += 1;
                } else {
                    violations.push(format!(
                        "step {step}: bit-flip in mds{victim}'s durable WAL went undetected"
                    ));
                }
            }
            let _ = fs::remove_dir_all(&probe_dir);
        }
    }

    // Final sweep: a clean shutdown and reopen must reproduce every
    // store's full history bit-for-bit.
    for (k, store) in stores.into_iter().enumerate() {
        let mut store = store;
        store.sync().expect("final sync");
        let dir = store.dir().to_path_buf();
        drop(store);
        let (reopened, info) = MdsStore::open(&dir, store_config).expect("final reopen succeeds");
        let expected = replay_prefix(&history[k]);
        if info.next_lsn as usize != history[k].len() || *reopened.state() != expected {
            violations.push(format!(
                "final: mds{k} reopened with {} records, wanted {}",
                info.next_lsn,
                history[k].len()
            ));
        } else if reopened.state().encode() != expected.encode() {
            violations.push(format!("final: mds{k} state encoding diverged"));
        }
    }
    let _ = fs::remove_dir_all(&root);

    StoreChaosReport {
        seed,
        steps: config.steps,
        records_appended,
        syncs,
        snapshots,
        crashes,
        torn_crashes,
        partial_fsyncs,
        loud_failures,
        records_lost,
        corrupt_probes: probes_run,
        corruptions_detected,
        violations,
        journal: registry.snapshot().events.iter().map(|e| e.kind).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_journal_and_report() {
        for config in [ChaosConfig::lone_monitor(), ChaosConfig::replicated()] {
            let a = run_chaos(42, &config);
            let b = run_chaos(42, &config);
            assert_eq!(a, b, "chaos runs must be fully reproducible");
            assert!(!a.journal.is_empty(), "schedule must leave a trace");
        }
    }

    #[test]
    fn default_schedule_recovers_without_violations() {
        let report = run_chaos(42, &ChaosConfig::lone_monitor());
        assert_eq!(report.kills, 2);
        assert_eq!(report.restarts, report.kills, "every victim restarts");
        assert!(report.rejoins >= report.restarts);
        assert!(
            report.rejoins_with_claims >= 1,
            "a rejoined server must claim at least one subtree"
        );
        assert!(
            report.violations.is_empty(),
            "invariants violated: {:?}",
            report.violations
        );
    }

    #[test]
    fn different_seeds_produce_different_schedules() {
        let config = ChaosConfig::lone_monitor();
        let a = run_chaos(1, &config);
        let b = run_chaos(2, &config);
        assert_ne!(a.journal, b.journal, "seed must steer the schedule");
    }

    #[test]
    fn crashed_lock_holder_blocks_updates_until_lease_expiry() {
        // With kills scheduled, the victim dies holding the GL lease and
        // updates stall until the lease runs out — never forever.
        let report = run_chaos(7, &ChaosConfig::lone_monitor());
        assert!(
            report.blocked_updates > 0,
            "adversarial crash must wedge at least one update"
        );
        assert!(report.gl_writes > report.blocked_updates, "and unwedge");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn partitions_cause_false_declarations_that_heal() {
        let config = ChaosConfig {
            kills: 0,
            partitions: 2,
            ..ChaosConfig::lone_monitor()
        };
        let report = run_chaos(11, &config);
        assert_eq!(report.kills, 0);
        assert!(
            report.rejoins >= 1,
            "a long monitor partition must cause a false declaration + rejoin"
        );
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn seeds_sweep_clean_across_the_ci_matrix_and_differ() {
        for config in [ChaosConfig::lone_monitor(), ChaosConfig::replicated()] {
            let mut journals = Vec::new();
            for seed in [1u64, 7, 42] {
                let report = run_chaos(seed, &config);
                assert!(
                    report.violations.is_empty(),
                    "seed {seed}, {} replicas: {:?}",
                    config.replicas,
                    report.violations
                );
                journals.push(report.journal);
            }
            assert_ne!(journals[0], journals[1], "seed must steer the schedule");
        }
    }

    #[test]
    fn replicated_default_schedule_survives() {
        let report = run_chaos(42, &ChaosConfig::replicated());
        assert!(
            report.violations.is_empty(),
            "control plane violated safety: {:?}",
            report.violations
        );
        assert!(report.monitor_kills >= 1, "leaders must actually die");
        assert_eq!(report.monitor_restarts, report.monitor_kills);
        assert!(report.leader_changes >= 2, "kills must force failovers");
        assert!(report.commits > 0 && report.grants > 0 && report.gl_writes > 0);
        assert_eq!(
            report.stale_probes_confirmed, 1,
            "the expired-fence probe must be rejected, not applied"
        );
        assert!(
            report.fence_rejections >= 1,
            "the stale write must show up as a rejection"
        );
        assert!(
            report.max_failover_ms > 0,
            "a completed failover must be measured"
        );
    }

    #[test]
    fn mds_kill_rebalances_through_the_log() {
        let report = run_chaos(7, &ChaosConfig::replicated());
        assert!(
            report.migrations_committed >= 1,
            "an MDS crash must re-home its subtrees via committed entries"
        );
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn quorum_loss_degrades_read_only_then_recovers() {
        let config = ChaosConfig {
            quorum_loss: true,
            ticks: 1200,
            ..ChaosConfig::replicated()
        };
        let report = run_chaos(42, &config);
        assert!(
            report.blocked_writes > 0,
            "quorum loss must block writes (while reads keep serving)"
        );
        assert!(
            report.violations.is_empty(),
            "degradation must be graceful: {:?}",
            report.violations
        );
    }

    #[test]
    fn store_chaos_same_seed_same_report() {
        let config = StoreChaosConfig::default();
        let a = run_store_chaos(42, &config);
        let b = run_store_chaos(42, &config);
        assert_eq!(a, b, "store-chaos runs must be fully reproducible");
        assert!(!a.journal.is_empty(), "schedule must leave a trace");
    }

    #[test]
    fn store_chaos_default_schedule_survives() {
        let config = StoreChaosConfig::default();
        let report = run_store_chaos(42, &config);
        assert_eq!(report.crashes, config.crashes);
        assert!(
            report.violations.is_empty(),
            "recovery contract violated: {:?}",
            report.violations
        );
        assert!(report.syncs > 0 && report.snapshots > 0);
        assert!(
            report.torn_crashes + report.partial_fsyncs > 0,
            "the crash draws must actually tear something"
        );
        assert_eq!(
            report.corruptions_detected, report.corrupt_probes,
            "every injected bit-flip must be caught"
        );
        assert!(report.corrupt_probes > 0, "probes must find data to flip");
        assert!(
            report.records_lost < report.records_appended / 2,
            "crashes lose unsynced tails, not the bulk of the log"
        );
    }

    #[test]
    fn store_chaos_seeds_differ_and_sweep_clean() {
        let config = StoreChaosConfig::default();
        let mut journals = Vec::new();
        for seed in [1u64, 7, 42] {
            let report = run_store_chaos(seed, &config);
            assert!(
                report.violations.is_empty(),
                "seed {seed}: {:?}",
                report.violations
            );
            journals.push(report.journal);
        }
        assert_ne!(journals[0], journals[1], "seed must steer the schedule");
    }
}
