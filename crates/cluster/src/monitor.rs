//! The Monitor daemon (Sec. IV-A3): heartbeats, failure verdicts and
//! the pending pool.
//!
//! The paper adds one Monitor to the cluster — like Ceph's OSD monitor —
//! to (1) accept heartbeats and maintain the pending pool, (2) keep the
//! global layer consistent, and (3) detect MDS failures and arrivals.
//! This module is the part of that which only the Monitor knows: the
//! heartbeat clocks and the rebalancing engine. Membership itself lives
//! in the committed [`ControlState`]; the Monitor reads that view and
//! returns the [`Command`]s to propose, against an explicit millisecond
//! clock, so it runs identically under the live runtime and in
//! deterministic tests.

use std::sync::Arc;

use d2tree_core::{AdjustPolicy, DynamicAdjuster, Heartbeat, Subtree};
use d2tree_metrics::{ClusterSpec, MdsId, Migration};
use d2tree_telemetry::{EventJournal, EventKind};

use crate::consensus::{Applied, Command, ControlState};

/// Membership changes the control plane committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterEvent {
    /// An MDS missed enough heartbeats to be declared dead.
    MdsFailed(MdsId),
    /// A previously-dead MDS heartbeated again.
    MdsRecovered(MdsId),
}

/// Monitor tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorConfig {
    /// Expected heartbeat period.
    pub heartbeat_interval_ms: u64,
    /// Declare an MDS dead after this long without a heartbeat.
    pub failure_timeout_ms: u64,
    /// Rebalancing thresholds forwarded to the pending-pool engine.
    pub policy: AdjustPolicy,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            heartbeat_interval_ms: 100,
            failure_timeout_ms: 500,
            policy: AdjustPolicy::default(),
        }
    }
}

/// The Monitor's state machine.
///
/// # Example
///
/// ```
/// use d2tree_cluster::{ControlState, Monitor, MonitorConfig};
/// use d2tree_core::Heartbeat;
/// use d2tree_metrics::MdsId;
///
/// let mut mon = Monitor::new(MonitorConfig::default(), 2);
/// let mut committed = ControlState::new(1_000);
/// // First heartbeats register both servers:
/// for k in 0..2 {
///     let hb = Heartbeat { mds: MdsId(k), load: 10.0 };
///     let cmd = mon.on_heartbeat(hb, 0, &committed).expect("registration");
///     mon.on_applied(&committed.apply_command(cmd, None));
/// }
/// // mds1 goes silent past the timeout:
/// mon.on_heartbeat(Heartbeat { mds: MdsId(0), load: 10.0 }, 600, &committed);
/// let verdicts = mon.detect_failures(600, &committed);
/// assert_eq!(verdicts.len(), 1);
/// // Until the verdict commits it is in flight, not re-proposed:
/// assert!(mon.detect_failures(700, &committed).is_empty());
/// mon.on_applied(&committed.apply_command(verdicts[0], None));
/// assert!(committed.is_alive(0) && !committed.is_alive(1));
/// ```
#[derive(Debug)]
pub struct Monitor {
    config: MonitorConfig,
    last_seen_ms: Vec<Option<u64>>,
    /// One marker per MDS: a membership verdict was proposed and has
    /// not committed yet, so it must not be proposed again.
    in_flight: Vec<bool>,
    adjuster: DynamicAdjuster,
    journal: Arc<EventJournal>,
}

impl Monitor {
    /// Creates a Monitor for a cluster of `m` servers with its own
    /// event journal. `m == 0` is allowed: an empty cluster has no
    /// members to track, and every query returns its vacuous answer.
    #[must_use]
    pub fn new(config: MonitorConfig, m: usize) -> Self {
        Monitor::with_journal(
            config,
            m,
            Arc::new(EventJournal::new(
                d2tree_telemetry::Registry::DEFAULT_JOURNAL_CAPACITY,
            )),
        )
    }

    /// Creates a Monitor recording heartbeats into a shared journal —
    /// the one committed membership flips are journaled into, so
    /// [`Monitor::events`] sees them.
    #[must_use]
    pub fn with_journal(config: MonitorConfig, m: usize, journal: Arc<EventJournal>) -> Self {
        Monitor {
            config,
            last_seen_ms: vec![None; m],
            in_flight: vec![false; m],
            adjuster: DynamicAdjuster::new(config.policy),
            journal,
        }
    }

    /// Records a heartbeat at `now_ms`. A heartbeat from a server the
    /// committed view does not hold alive — never registered, or
    /// declared dead — returns the [`Command::MdsAlive`] to propose;
    /// once it commits the caller runs the rejoin protocol
    /// ([`Monitor::plan_rejoin`]). Ordinary heartbeats return `None`.
    pub fn on_heartbeat(
        &mut self,
        hb: Heartbeat,
        now_ms: u64,
        committed: &ControlState,
    ) -> Option<Command> {
        let k = hb.mds.index();
        self.last_seen_ms[k] = Some(now_ms);
        self.journal.record(EventKind::Heartbeat {
            mds: hb.mds.0,
            load: hb.load,
        });
        if committed.is_alive(hb.mds.0) || self.in_flight[k] {
            return None;
        }
        self.in_flight[k] = true;
        Some(Command::MdsAlive { mds: hb.mds.0 })
    }

    /// Scans for committed-alive servers past the failure timeout;
    /// returns one [`Command::MdsDead`] per *new* verdict. Never-seen
    /// servers are "joining", not dead.
    pub fn detect_failures(&mut self, now_ms: u64, committed: &ControlState) -> Vec<Command> {
        let mut fresh = Vec::new();
        for k in 0..self.last_seen_ms.len() {
            let silent = self.last_seen_ms[k]
                .is_some_and(|t| now_ms.saturating_sub(t) >= self.config.failure_timeout_ms);
            if silent && !self.in_flight[k] && committed.is_alive(k as u16) {
                self.in_flight[k] = true;
                fresh.push(Command::MdsDead { mds: k as u16 });
            }
        }
        fresh
    }

    /// Feeds one commit outcome back: a committed membership verdict
    /// clears that server's in-flight marker.
    pub fn on_applied(&mut self, applied: &Applied) {
        if let Applied::Membership { mds, .. } = *applied {
            if let Some(slot) = self.in_flight.get_mut(mds as usize) {
                *slot = false;
            }
        }
    }

    /// Called when this Monitor's replica becomes the control-plane
    /// leader. Proposals made under an earlier leadership may never
    /// commit, so every in-flight marker clears; and every heartbeat
    /// clock restarts at `now_ms`, so servers earn their next timeout
    /// from scratch rather than being declared off a clock that
    /// stopped when leadership was lost.
    pub fn take_lead(&mut self, now_ms: u64) {
        self.in_flight.fill(false);
        self.last_seen_ms.fill(Some(now_ms));
    }

    /// Every committed membership event still retained by the journal,
    /// oldest first. (Heartbeats and other telemetry events are
    /// filtered out; read [`Monitor::journal`] for the full stream.)
    #[must_use]
    pub fn events(&self) -> Vec<ClusterEvent> {
        self.journal
            .snapshot()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::MdsDown { mds } => Some(ClusterEvent::MdsFailed(MdsId(mds))),
                EventKind::MdsRecovered { mds } => Some(ClusterEvent::MdsRecovered(MdsId(mds))),
                _ => None,
            })
            .collect()
    }

    /// The journal this Monitor records into.
    #[must_use]
    pub fn journal(&self) -> &Arc<EventJournal> {
        &self.journal
    }

    /// Plans the re-homing of a failed server's subtrees onto the
    /// committed-alive survivors, spreading popularity with mirror
    /// division over the remaining capacities. Whole subtrees move:
    /// the local layer's unit of ownership (Def. 3) is never split.
    #[must_use]
    pub fn plan_failover(
        &self,
        failed: MdsId,
        owned: &[(Subtree, MdsId)],
        cluster: &ClusterSpec,
        committed: &ControlState,
    ) -> Vec<Migration> {
        let victims: Vec<&(Subtree, MdsId)> = owned.iter().filter(|(_, o)| *o == failed).collect();
        if victims.is_empty() {
            return Vec::new();
        }
        let survivors: Vec<MdsId> = cluster
            .ids()
            .filter(|&k| k != failed && committed.is_alive(k.0))
            .collect();
        if survivors.is_empty() {
            return Vec::new();
        }
        let weights: Vec<f64> = victims.iter().map(|(s, _)| s.popularity).collect();
        let capacities: Vec<f64> = survivors.iter().map(|&k| cluster.capacity(k)).collect();
        let buckets = d2tree_metrics::mirror::mirror_divide(&weights, &capacities);
        victims
            .into_iter()
            .zip(buckets)
            .map(|((s, _), b)| Migration {
                node: s.root,
                from: failed,
                to: survivors[b],
            })
            .collect()
    }

    /// Plans the claiming half of the rejoin protocol (Sec. IV-B
    /// applied to a crash-restart), once `back`'s `MdsAlive` has
    /// committed: one pending-pool rebalancing round over the live
    /// capacities (overloaded servers shed into the pool, the rejoiner
    /// claims by mirror division). If the load is too even for the
    /// adjuster to route anything to the rejoiner, the hottest subtree
    /// of any other live owner is handed over so a rejoined MDS never
    /// sits idle.
    #[must_use]
    pub fn plan_rejoin(
        &mut self,
        back: MdsId,
        owned: &[(Subtree, MdsId)],
        committed: &ControlState,
    ) -> Vec<Migration> {
        // Dead servers get a vanishing capacity (ClusterSpec requires
        // strictly positive) so the adjuster routes essentially nothing
        // at them; what it still routes there is filtered out.
        let capacities: Vec<f64> = (0..self.last_seen_ms.len())
            .map(|k| {
                if committed.is_alive(k as u16) {
                    1.0
                } else {
                    1e-9
                }
            })
            .collect();
        let mut migrations = self
            .adjuster
            .rebalance(owned, &ClusterSpec::new(capacities));
        migrations.retain(|mg| committed.is_alive(mg.to.0));
        if !migrations.iter().any(|mg| mg.to == back) {
            if let Some((sub, from)) = owned
                .iter()
                .filter(|(_, o)| *o != back && committed.is_alive(o.0))
                .max_by(|a, b| a.0.popularity.total_cmp(&b.0.popularity))
            {
                migrations.retain(|mg| mg.node != sub.root);
                migrations.push(Migration {
                    node: sub.root,
                    from: *from,
                    to: back,
                });
            }
        }
        migrations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2tree_namespace::NodeId;

    fn hb(k: u16, load: f64) -> Heartbeat {
        Heartbeat {
            mds: MdsId(k),
            load,
        }
    }

    fn subtree(i: usize, pop: f64) -> Subtree {
        Subtree {
            root: NodeId::from_index(i + 1),
            parent: NodeId::ROOT,
            popularity: pop,
            size: 1,
        }
    }

    /// A Monitor plus the committed view it reads, with every verdict
    /// committed at once (the one-replica case) into the Monitor's own
    /// journal.
    struct Plane {
        mon: Monitor,
        committed: ControlState,
    }

    impl Plane {
        fn new(m: usize) -> Self {
            Plane {
                mon: Monitor::new(MonitorConfig::default(), m),
                committed: ControlState::new(1_000),
            }
        }

        fn commit(&mut self, cmds: impl IntoIterator<Item = Command>) -> Vec<Command> {
            let cmds: Vec<Command> = cmds.into_iter().collect();
            for &cmd in &cmds {
                let applied = self.committed.apply_command(cmd, Some(self.mon.journal()));
                self.mon.on_applied(&applied);
            }
            cmds
        }

        fn heartbeat(&mut self, k: u16, now_ms: u64) -> Vec<Command> {
            let cmd = self.mon.on_heartbeat(hb(k, 1.0), now_ms, &self.committed);
            self.commit(cmd)
        }

        fn detect(&mut self, now_ms: u64) -> Vec<Command> {
            let cmds = self.mon.detect_failures(now_ms, &self.committed);
            self.commit(cmds)
        }
    }

    #[test]
    fn failure_needs_timeout_to_elapse() {
        let mut p = Plane::new(2);
        p.heartbeat(0, 0);
        p.heartbeat(1, 0);
        assert!(p.detect(400).is_empty());
        assert_eq!(p.detect(500).len(), 2);
        assert!(p.detect(600).is_empty(), "failures are declared once");
    }

    #[test]
    fn recovery_after_failure() {
        let mut p = Plane::new(1);
        p.heartbeat(0, 0);
        assert_eq!(p.detect(1_000), vec![Command::MdsDead { mds: 0 }]);
        assert!(!p.committed.is_alive(0));
        assert_eq!(p.heartbeat(0, 1_100), vec![Command::MdsAlive { mds: 0 }]);
        assert!(p.committed.is_alive(0));
        assert!(matches!(
            p.mon.events().last(),
            Some(ClusterEvent::MdsRecovered(_))
        ));
        // Once resurrected, further heartbeats are ordinary again.
        assert!(p.heartbeat(0, 1_200).is_empty());
    }

    #[test]
    fn never_seen_servers_are_not_failed() {
        let mut p = Plane::new(3);
        p.heartbeat(0, 0);
        assert_eq!(p.detect(10_000), vec![Command::MdsDead { mds: 0 }]);
    }

    #[test]
    fn an_uncommitted_verdict_is_proposed_once_until_leadership_moves() {
        let mut mon = Monitor::new(MonitorConfig::default(), 1);
        let mut committed = ControlState::new(1_000);
        let reg = mon.on_heartbeat(hb(0, 1.0), 0, &committed).unwrap();
        // The registration is in flight: not proposed again.
        assert_eq!(mon.on_heartbeat(hb(0, 1.0), 10, &committed), None);
        mon.on_applied(&committed.apply_command(reg, None));
        // A death verdict that never commits is proposed exactly once...
        assert_eq!(mon.detect_failures(600, &committed).len(), 1);
        assert!(mon.detect_failures(700, &committed).is_empty());
        // ...until leadership moves: the marker clears and the clock
        // restarts, so the server earns a fresh timeout.
        mon.take_lead(800);
        assert!(mon.detect_failures(1_200, &committed).is_empty());
        assert_eq!(
            mon.detect_failures(1_300, &committed),
            vec![Command::MdsDead { mds: 0 }]
        );
    }

    #[test]
    fn a_fresh_leader_reads_the_committed_view_without_reannouncing() {
        let mut mon = Monitor::new(MonitorConfig::default(), 3);
        let mut committed = ControlState::new(1_000);
        for cmd in [
            Command::MdsAlive { mds: 0 },
            Command::MdsAlive { mds: 1 },
            Command::MdsDead { mds: 1 },
            Command::MdsAlive { mds: 2 },
        ] {
            let _ = committed.apply_command(cmd, None);
        }
        mon.take_lead(1_000);
        // The already-committed death is not re-declared...
        assert!(mon.detect_failures(1_100, &committed).is_empty());
        // ...but committed-alive servers still earn a fresh timeout.
        assert_eq!(mon.detect_failures(1_500, &committed).len(), 2);
        // And a resurrection of the committed-dead server still fires.
        assert_eq!(
            mon.on_heartbeat(hb(1, 1.0), 1_200, &committed),
            Some(Command::MdsAlive { mds: 1 })
        );
    }

    #[test]
    fn failover_spreads_victims_over_survivors() {
        let cluster = ClusterSpec::homogeneous(3, 100.0);
        let mut p = Plane::new(3);
        for k in 0..3 {
            p.heartbeat(k, 0);
        }
        let owned = vec![
            (subtree(0, 30.0), MdsId(0)),
            (subtree(1, 30.0), MdsId(0)),
            (subtree(2, 5.0), MdsId(1)),
        ];
        // Fail mds0 by silencing it.
        p.heartbeat(1, 600);
        p.heartbeat(2, 600);
        assert_eq!(p.detect(600), vec![Command::MdsDead { mds: 0 }]);
        let plan = p
            .mon
            .plan_failover(MdsId(0), &owned, &cluster, &p.committed);
        assert_eq!(plan.len(), 2);
        assert!(plan.iter().all(|m| m.from == MdsId(0) && m.to != MdsId(0)));
        // Both survivors are used when the load splits evenly.
        let targets: std::collections::BTreeSet<_> = plan.iter().map(|m| m.to).collect();
        assert_eq!(targets.len(), 2);
    }

    #[test]
    fn failover_with_no_survivors_is_empty() {
        let cluster = ClusterSpec::homogeneous(1, 100.0);
        let p = Plane::new(1);
        let owned = vec![(subtree(0, 1.0), MdsId(0))];
        assert!(p
            .mon
            .plan_failover(MdsId(0), &owned, &cluster, &p.committed)
            .is_empty());
    }

    #[test]
    fn rejoin_hands_over_the_hottest_subtree_of_a_live_owner_when_load_is_even() {
        let mut p = Plane::new(4);
        for k in 0..4 {
            p.heartbeat(k, 0);
        }
        p.commit([Command::MdsDead { mds: 3 }]);
        // Loads 2/2/2 over the three live servers: the adjuster sheds
        // nothing, so the fallback must feed the rejoiner (mds2).
        let owned = vec![
            (subtree(0, 2.0), MdsId(0)),
            (subtree(1, 1.0), MdsId(1)),
            (subtree(2, 1.0), MdsId(1)),
            (subtree(3, 2.0), MdsId(2)),
        ];
        let plan = p.mon.plan_rejoin(MdsId(2), &owned, &p.committed);
        assert_eq!(
            plan,
            vec![Migration {
                node: owned[0].0.root,
                from: MdsId(0),
                to: MdsId(2),
            }]
        );
        assert!(p.mon.plan_rejoin(MdsId(2), &[], &p.committed).is_empty());
    }

    #[test]
    fn heartbeat_exactly_at_timeout_boundary_is_dead() {
        // failure_timeout_ms = 500 and detection uses `>=`: one instant
        // before the boundary the MDS is alive, at the boundary it is
        // declared dead.
        let mut p = Plane::new(1);
        p.heartbeat(0, 100);
        assert!(p.detect(599).is_empty());
        assert!(p.committed.is_alive(0));
        assert_eq!(p.detect(600).len(), 1);
        assert!(!p.committed.is_alive(0));
    }

    #[test]
    fn zero_mds_cluster_is_inert() {
        let mut p = Plane::new(0);
        assert!(p.detect(1_000_000).is_empty());
        assert!(p.mon.events().is_empty());
        p.mon.take_lead(0);
    }

    #[test]
    fn journal_orders_down_before_recovery() {
        let mut p = Plane::new(1);
        p.heartbeat(0, 0);
        p.detect(1_000);
        p.heartbeat(0, 1_100);
        let membership: Vec<&'static str> = p
            .mon
            .journal()
            .snapshot()
            .iter()
            .map(|e| e.kind.label())
            .filter(|l| *l != "heartbeat")
            .collect();
        assert_eq!(membership, vec!["mds_down", "mds_recovered"]);
        let seqs: Vec<u64> = p.mon.journal().snapshot().iter().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    }
}
