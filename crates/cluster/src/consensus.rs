//! The control plane: one state machine, and deterministic Raft-style
//! consensus to replicate it across Monitor replicas.
//!
//! The paper hangs its whole dynamic-adjustment loop (Sec. IV-A3) off a
//! single Ceph-style Monitor plus a Zookeeper-like lock service.
//! [`ControlState`] is what those two decide, held once: MDS
//! membership, global-layer leases with their fence counter, committed
//! GL versions and subtree ownership. Everything else proposes
//! [`Command`]s and reacts to [`Applied`]s. The live runtime applies
//! each command to a mutex-guarded `ControlState` as it is issued (one
//! replica, commit is immediate — see [`crate::lock::LockService`]). A
//! killed lone Monitor means no failure detection, no rebalance and no
//! global-layer writes; the rest of this module closes that
//! availability gap the way real deployments do, applying commands only
//! through entries committed by a majority of (by default three)
//! replicas.
//!
//! Design constraints, in order:
//!
//! * **Deterministic.** Every timeout is an explicit millisecond clock
//!   the caller advances; every random draw (election jitter) comes
//!   from a per-replica seeded RNG; all iteration is over ordered
//!   containers. Two runs with the same seed and schedule produce
//!   byte-identical journals, so a failing election schedule is a
//!   reproducible test case.
//! * **Virtual-time friendly.** Nothing here sleeps or reads a wall
//!   clock. The chaos engine drives [`ConsensusCluster::tick`] on its
//!   virtual clock; a live deployment would drive it from a timer
//!   thread with the same semantics.
//! * **Durable via the existing WAL.** Each replica persists its hard
//!   state (term, vote) and log through a `d2tree-store`
//!   [`WalWriter`] — one segmented, CRC-framed log per replica, with
//!   crash recovery = scan + tail replay and torn final frames
//!   truncated by the same code paths the MDS stores use.
//! * **Fencing stays monotonic across failover.** Lease grants are
//!   log entries; the fencing counter lives in the replicated
//!   [`ControlState`], so a new leader can never re-issue or regress a
//!   fence, and a write carrying an expired lease's fence is rejected
//!   at apply time instead of being silently applied.
//!
//! The consensus protocol itself is textbook Raft restricted to what
//! the control plane needs: leader election with randomized timeouts,
//! log replication with conflict truncation, commit = majority match
//! with current-term gating, and a no-op entry committed at term start
//! so a fresh leader learns the commit frontier.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::Bytes;
use d2tree_store::wal::{list_segments, scan_segment, WalWriter};
use d2tree_store::{MdsRecord, StoreResult};
use d2tree_telemetry::trace::span_names;
use d2tree_telemetry::{
    names, ArgKey, Counter, EventJournal, EventKind, Histogram, MetricKey, Registry, Span, SpanCtx,
    Tracer,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::client::RetryPolicy;
use crate::fault::{FaultDecision, FaultInjector, NetEdge};

/// Consensus-level opcode of a durable WAL event: hard-state update
/// (term + vote).
const OP_HARD_STATE: u8 = 0;
/// Consensus-level opcode of a durable WAL event: conflict truncation
/// (drop the log suffix starting at `index`).
const OP_TRUNCATE: u8 = 1;
/// Durable log entries carry `OP_ENTRY_BASE + command opcode`.
const OP_ENTRY_BASE: u8 = 16;

/// `voted_for` is persisted in the hard-state record's `index` slot;
/// this sentinel encodes "no vote this term".
const NO_VOTE: u64 = u64::MAX;

/// A command the replicated control-plane state machine understands.
///
/// Commands are `Copy` and fit three `u64` operands so they pack
/// losslessly into one [`MdsRecord::Consensus`] WAL record and one
/// fixed-width wire slot. Time-dependent decisions (lease expiry)
/// carry their clock reading *in the command*, taken once by the
/// proposing leader — every replica then applies the identical
/// deterministic transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Committed at term start by a fresh leader to learn the commit
    /// frontier (classic Raft no-op).
    Noop,
    /// Membership: an MDS registered or resumed heartbeating.
    MdsAlive {
        /// The MDS now considered alive.
        mds: u16,
    },
    /// Membership: the Monitor declared an MDS dead.
    MdsDead {
        /// The MDS declared dead.
        mds: u16,
    },
    /// Grant (or queue behind) the global-layer write lease for a node.
    LeaseAcquire {
        /// GL node the lease covers.
        node: u64,
        /// Requesting MDS.
        holder: u16,
        /// Leader's clock at proposal time; expiry is computed from it.
        now_ms: u64,
    },
    /// Release a held lease (only if the fence still matches).
    LeaseRelease {
        /// GL node the lease covers.
        node: u64,
        /// Fence of the grant being released.
        fence: u64,
    },
    /// A global-layer write under a lease: applied only if the fence
    /// identifies the current, unexpired lease.
    GlWrite {
        /// GL node being written.
        node: u64,
        /// Fencing token the writer holds.
        fence: u64,
        /// Leader's clock at proposal time (expiry check).
        now_ms: u64,
    },
    /// A subtree re-homing decided by the Monitor (rebalance or
    /// failover) — ownership changes are control-plane decisions, so
    /// they only take effect once committed.
    Migrate {
        /// Root of the migrating subtree (arena index).
        subtree: u64,
        /// Previous owner.
        from: u16,
        /// New owner.
        to: u16,
    },
}

impl Command {
    /// Packs the command into `(opcode, a, b, c)` for the WAL and the
    /// wire codec.
    #[must_use]
    pub fn to_wire(self) -> (u8, u64, u64, u64) {
        match self {
            Command::Noop => (0, 0, 0, 0),
            Command::MdsAlive { mds } => (1, u64::from(mds), 0, 0),
            Command::MdsDead { mds } => (2, u64::from(mds), 0, 0),
            Command::LeaseAcquire {
                node,
                holder,
                now_ms,
            } => (3, node, u64::from(holder), now_ms),
            Command::LeaseRelease { node, fence } => (4, node, fence, 0),
            Command::GlWrite {
                node,
                fence,
                now_ms,
            } => (5, node, fence, now_ms),
            Command::Migrate { subtree, from, to } => (6, subtree, u64::from(from), u64::from(to)),
        }
    }

    /// The inverse of [`Command::to_wire`]; `None` on an unknown opcode
    /// or an operand that does not fit its field.
    #[must_use]
    pub fn from_wire(op: u8, a: u64, b: u64, c: u64) -> Option<Command> {
        let narrow = |v: u64| u16::try_from(v).ok();
        Some(match op {
            0 => Command::Noop,
            1 => Command::MdsAlive { mds: narrow(a)? },
            2 => Command::MdsDead { mds: narrow(a)? },
            3 => Command::LeaseAcquire {
                node: a,
                holder: narrow(b)?,
                now_ms: c,
            },
            4 => Command::LeaseRelease { node: a, fence: b },
            5 => Command::GlWrite {
                node: a,
                fence: b,
                now_ms: c,
            },
            6 => Command::Migrate {
                subtree: a,
                from: narrow(b)?,
                to: narrow(c)?,
            },
            _ => return None,
        })
    }
}

/// One replicated log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Term the entry was proposed in.
    pub term: u64,
    /// 1-based log index.
    pub index: u64,
    /// The command.
    pub cmd: Command,
}

/// A granted global-layer write lease as the replicated state machine
/// tracks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseState {
    /// MDS holding the lease.
    pub holder: u16,
    /// Monotonic fencing token of this grant.
    pub fence: u64,
    /// Expiry instant (leader-clock milliseconds).
    pub expires_at_ms: u64,
}

/// What applying one committed entry did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    /// No state change (no-op entry).
    Noop,
    /// A lease was granted with the given fence.
    Granted {
        /// GL node the lease covers.
        node: u64,
        /// The monotonic fence attached to the grant.
        fence: u64,
        /// The MDS that now holds the lease.
        holder: u16,
    },
    /// The lease was busy (held, unexpired); nothing granted.
    Busy,
    /// A lease was released.
    Released,
    /// A write carried a stale or expired fence and was rejected.
    Rejected {
        /// GL node the rejected write targeted.
        node: u64,
        /// The stale fence presented.
        fence: u64,
    },
    /// A global-layer write committed under a valid lease.
    GlWritten {
        /// GL node written.
        node: u64,
        /// Its new committed version.
        version: u64,
    },
    /// Membership changed for an MDS.
    Membership {
        /// The MDS whose liveness flipped.
        mds: u16,
        /// Its new liveness.
        alive: bool,
    },
    /// A subtree re-homing committed.
    Migrated {
        /// Root of the migrated subtree (arena index).
        subtree: u64,
        /// Previous owner.
        from: u16,
        /// New owner.
        to: u16,
    },
}

/// The control-plane state machine, and the only holder of what it
/// tracks: the lock service's lease table (with the global monotonic
/// fencing counter), MDS membership, committed GL versions and subtree
/// ownership.
///
/// Everything time-dependent uses the clock reading carried *inside*
/// the command, so replaying the same entries always yields the same
/// state — on any replica, any number of times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlState {
    lease_ms: u64,
    next_fence: u64,
    /// Live leases by GL node.
    pub leases: BTreeMap<u64, LeaseState>,
    /// Committed MDS liveness (absent = never registered).
    pub alive: BTreeMap<u16, bool>,
    /// Committed GL version per node.
    pub gl_versions: BTreeMap<u64, u64>,
    /// Committed subtree ownership (arena index → MDS).
    pub owner: BTreeMap<u64, u16>,
    /// Index of the last applied entry.
    pub applied: u64,
    /// Total leases granted.
    pub grants: u64,
    /// Writes rejected for stale/expired fences.
    pub fence_rejections: u64,
    /// Acquire attempts that found the lease held and unexpired.
    pub lease_busy: u64,
}

impl ControlState {
    /// An empty state machine granting leases of `lease_ms` (minimum 1).
    #[must_use]
    pub fn new(lease_ms: u64) -> Self {
        ControlState {
            lease_ms: lease_ms.max(1),
            next_fence: 0,
            leases: BTreeMap::new(),
            alive: BTreeMap::new(),
            gl_versions: BTreeMap::new(),
            owner: BTreeMap::new(),
            applied: 0,
            grants: 0,
            fence_rejections: 0,
            lease_busy: 0,
        }
    }

    /// Applies one committed log entry: [`ControlState::apply_command`]
    /// plus the gapless-order check replicas rely on.
    pub fn apply(&mut self, entry: &Entry, journal: Option<&EventJournal>) -> Applied {
        debug_assert_eq!(entry.index, self.applied + 1, "gapless apply order");
        self.apply_command(entry.cmd, journal)
    }

    /// Applies one committed command. When `journal` is given (the
    /// single journaling applier: the cluster's observer, or the live
    /// runtime's Monitor), membership flips and grant/rejection events
    /// are recorded — exactly once per commit, never per replica.
    pub fn apply_command(&mut self, cmd: Command, journal: Option<&EventJournal>) -> Applied {
        self.applied += 1;
        match cmd {
            Command::Noop => Applied::Noop,
            Command::MdsAlive { mds } => {
                let was = self.alive.insert(mds, true);
                if was == Some(false) {
                    if let Some(j) = journal {
                        j.record(EventKind::MdsRecovered { mds });
                    }
                }
                Applied::Membership { mds, alive: true }
            }
            Command::MdsDead { mds } => {
                // A verdict re-proposed across a leader change may commit
                // twice; only the flip is an event.
                let was = self.alive.insert(mds, false);
                if was != Some(false) {
                    if let Some(j) = journal {
                        j.record(EventKind::MdsDown { mds });
                    }
                }
                Applied::Membership { mds, alive: false }
            }
            Command::LeaseAcquire {
                node,
                holder,
                now_ms,
            } => {
                let free = match self.leases.get(&node) {
                    None => true,
                    Some(l) => l.expires_at_ms <= now_ms,
                };
                if free {
                    self.next_fence += 1;
                    let fence = self.next_fence;
                    self.leases.insert(
                        node,
                        LeaseState {
                            holder,
                            fence,
                            expires_at_ms: now_ms + self.lease_ms,
                        },
                    );
                    self.grants += 1;
                    if let Some(j) = journal {
                        j.record(EventKind::LeaseGranted {
                            node,
                            fence,
                            holder,
                        });
                    }
                    Applied::Granted {
                        node,
                        fence,
                        holder,
                    }
                } else {
                    self.lease_busy += 1;
                    Applied::Busy
                }
            }
            Command::LeaseRelease { node, fence } => {
                if self.leases.get(&node).is_some_and(|l| l.fence == fence) {
                    self.leases.remove(&node);
                    Applied::Released
                } else {
                    Applied::Noop
                }
            }
            Command::GlWrite {
                node,
                fence,
                now_ms,
            } => {
                if self.validate(node, fence, now_ms) {
                    let v = self.gl_versions.entry(node).or_insert(0);
                    *v += 1;
                    Applied::GlWritten { node, version: *v }
                } else {
                    // The regression this module exists for: a lease
                    // that expired while its write was in flight must
                    // be *rejected* here, never silently applied.
                    self.fence_rejections += 1;
                    if let Some(j) = journal {
                        j.record(EventKind::FenceRejected { node, fence });
                    }
                    Applied::Rejected { node, fence }
                }
            }
            Command::Migrate { subtree, from, to } => {
                self.owner.insert(subtree, to);
                Applied::Migrated { subtree, from, to }
            }
        }
    }

    /// The current lease on `node`, if any entry ever granted one that
    /// was not released (it may be expired — check `expires_at_ms`).
    #[must_use]
    pub fn lease(&self, node: u64) -> Option<LeaseState> {
        self.leases.get(&node).copied()
    }

    /// Whether `fence` still authorises a write to `node` at `now_ms`:
    /// the lease must be held under that fence *and* be unexpired. The
    /// rule `GlWrite` is applied under, and the one writers re-check
    /// just before applying an in-flight mutation.
    #[must_use]
    pub fn validate(&self, node: u64, fence: u64, now_ms: u64) -> bool {
        self.leases
            .get(&node)
            .is_some_and(|l| l.fence == fence && l.expires_at_ms > now_ms)
    }

    /// Whether `mds` is committed alive (registered and not declared
    /// dead).
    #[must_use]
    pub fn is_alive(&self, mds: u16) -> bool {
        self.alive.get(&mds) == Some(&true)
    }

    /// Committed GL version of `node` (0 if never written).
    #[must_use]
    pub fn gl_version(&self, node: u64) -> u64 {
        self.gl_versions.get(&node).copied().unwrap_or(0)
    }

    /// The highest fence ever granted.
    #[must_use]
    pub fn max_fence(&self) -> u64 {
        self.next_fence
    }
}

/// One consensus RPC between replicas. The wire codec lives in
/// [`crate::message`] next to the MDS request/response frames; the
/// cluster bus carries only encoded frames, so every message crosses
/// the real codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerMsg {
    /// A candidate soliciting a vote.
    RequestVote {
        /// Candidate's term.
        term: u64,
        /// Candidate's id.
        candidate: u16,
        /// Index of the candidate's last log entry.
        last_log_index: u64,
        /// Term of the candidate's last log entry.
        last_log_term: u64,
    },
    /// A vote response.
    VoteReply {
        /// Voter's current term (for candidate step-down).
        term: u64,
        /// Voter's id.
        voter: u16,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Log replication / heartbeat from the leader.
    Append {
        /// Leader's term.
        term: u64,
        /// Leader's id (becomes the follower's redirect hint).
        leader: u16,
        /// Index of the entry preceding `entries`.
        prev_index: u64,
        /// Term of that entry.
        prev_term: u64,
        /// Leader's commit index.
        commit: u64,
        /// Entries to append (empty for a pure heartbeat).
        entries: Vec<Entry>,
    },
    /// A follower's replication response.
    AppendReply {
        /// Follower's current term (for leader step-down).
        term: u64,
        /// Follower's id.
        follower: u16,
        /// Whether the append matched and was stored.
        success: bool,
        /// On success, the follower's new match index; on failure, its
        /// log length (conflict back-off hint).
        match_index: u64,
    },
}

/// Election and replication timing, in the caller's millisecond clock
/// domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsensusTiming {
    /// Leader heartbeat (empty Append) period.
    pub heartbeat_ms: u64,
    /// Minimum election timeout.
    pub election_min_ms: u64,
    /// Uniform jitter added on top of the minimum (randomized timeouts
    /// are what break split votes).
    pub election_jitter_ms: u64,
    /// Base one-way message delay on the replica bus.
    pub net_delay_ms: u64,
}

impl Default for ConsensusTiming {
    fn default() -> Self {
        ConsensusTiming {
            heartbeat_ms: 20,
            election_min_ms: 100,
            election_jitter_ms: 100,
            net_delay_ms: 1,
        }
    }
}

impl ConsensusTiming {
    /// An upper bound on how long one uncontested re-election may take:
    /// worst-case timeout draw plus two message delays, with one extra
    /// full round for a split vote. Chaos schedules assert observed
    /// failovers stay under this.
    #[must_use]
    pub fn reelect_bound_ms(&self) -> u64 {
        2 * (self.election_min_ms + self.election_jitter_ms + 4 * self.net_delay_ms.max(1))
    }
}

/// A replica's role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Passive: applies committed entries, votes, times out into
    /// candidacy.
    Follower,
    /// Campaigning for leadership.
    Candidate,
    /// Accepts proposals and replicates the log.
    Leader,
}

/// One Monitor replica: a Raft participant plus its copy of the
/// replicated [`ControlState`].
#[derive(Debug)]
pub struct Replica {
    id: u16,
    n: usize,
    timing: ConsensusTiming,
    lease_ms: u64,
    role: Role,
    current_term: u64,
    voted_for: Option<u16>,
    log: Vec<Entry>,
    commit_index: u64,
    state: ControlState,
    leader_hint: Option<u16>,
    next_index: Vec<u64>,
    match_index: Vec<u64>,
    votes: BTreeSet<u16>,
    election_deadline_ms: u64,
    heartbeat_due_ms: u64,
    campaign_started_ms: u64,
    rng: StdRng,
    wal: Option<WalWriter>,
    elections: Option<Arc<Counter>>,
    tracer: Option<Arc<Tracer>>,
    election_ctx: Option<SpanCtx>,
}

/// Mixes the cluster seed, replica id and restart generation into one
/// RNG seed, so restarts redraw timeouts deterministically but
/// differently from the first life.
fn replica_seed(seed: u64, id: u16, generation: u64) -> u64 {
    seed ^ (u64::from(id) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ generation.wrapping_mul(0xd1b5_4a32_d192_ed03)
}

impl Replica {
    /// A fresh in-memory replica (no WAL). `now_ms` anchors the first
    /// election-timeout draw.
    #[must_use]
    pub fn new(
        id: u16,
        n: usize,
        seed: u64,
        timing: ConsensusTiming,
        lease_ms: u64,
        now_ms: u64,
    ) -> Self {
        let mut r = Replica {
            id,
            n,
            timing,
            lease_ms,
            role: Role::Follower,
            current_term: 0,
            voted_for: None,
            log: Vec::new(),
            commit_index: 0,
            state: ControlState::new(lease_ms),
            leader_hint: None,
            next_index: vec![1; n],
            match_index: vec![0; n],
            votes: BTreeSet::new(),
            election_deadline_ms: 0,
            heartbeat_due_ms: 0,
            campaign_started_ms: 0,
            rng: StdRng::seed_from_u64(replica_seed(seed, id, 0)),
            wal: None,
            elections: None,
            tracer: None,
            election_ctx: None,
        };
        r.reset_election_deadline(now_ms);
        r
    }

    /// Opens (or creates) a durable replica whose hard state and log
    /// live in `dir`: recovery scans the WAL segments, truncates a torn
    /// tail, and replays term/vote/entries/truncations in order.
    ///
    /// # Errors
    ///
    /// Any [`d2tree_store::StoreError`] from the directory or segment
    /// scan; a CRC-valid frame that does not decode as a consensus
    /// event is corruption and fails loudly.
    #[allow(clippy::too_many_arguments)]
    pub fn recover(
        id: u16,
        n: usize,
        seed: u64,
        timing: ConsensusTiming,
        lease_ms: u64,
        now_ms: u64,
        generation: u64,
        dir: &Path,
        segment_bytes: u64,
    ) -> StoreResult<Self> {
        fs::create_dir_all(dir)?;
        let segments = list_segments(dir)?;
        let mut term = 0u64;
        let mut voted_for: Option<u16> = None;
        let mut log: Vec<Entry> = Vec::new();
        let mut next_lsn = 0u64;
        let mut last_segment: Option<(u64, u64)> = None;
        for (i, (first_lsn, path)) in segments.iter().enumerate() {
            let is_last = i + 1 == segments.len();
            let scan = scan_segment(path, *first_lsn, is_last)?;
            for frame in &scan.frames {
                next_lsn = frame.lsn + 1;
                replay_consensus_record(&frame.record, &mut term, &mut voted_for, &mut log)?;
            }
            if is_last {
                last_segment = Some((*first_lsn, scan.valid_len));
            }
        }
        let wal = WalWriter::open(dir, segment_bytes, last_segment, next_lsn)?;
        let mut r = Replica::new(id, n, seed, timing, lease_ms, now_ms);
        r.rng = StdRng::seed_from_u64(replica_seed(seed, id, generation));
        r.current_term = term;
        r.voted_for = voted_for;
        r.log = log;
        r.wal = Some(wal);
        r.reset_election_deadline(now_ms);
        Ok(r)
    }

    /// Attaches a registry (election counter).
    #[must_use]
    pub fn with_registry(mut self, registry: &Registry) -> Self {
        self.elections = Some(registry.counter(MetricKey::global(names::ELECTIONS_TOTAL)));
        self
    }

    /// Attaches a tracer for election/replication spans.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Current role.
    #[must_use]
    pub fn role(&self) -> Role {
        self.role
    }

    /// Current term.
    #[must_use]
    pub fn term(&self) -> u64 {
        self.current_term
    }

    /// Commit index (entries up to here are applied to
    /// [`Replica::state`]).
    #[must_use]
    pub fn commit_index(&self) -> u64 {
        self.commit_index
    }

    /// The replica's committed log prefix view.
    #[must_use]
    pub fn log(&self) -> &[Entry] {
        &self.log
    }

    /// The replica's applied state machine — consulted for reads even
    /// when the cluster has no leader (read-only degradation).
    #[must_use]
    pub fn state(&self) -> &ControlState {
        &self.state
    }

    /// Forces the election timeout to expire at the next tick —
    /// applied to all replicas at once this manufactures a guaranteed
    /// split vote (every replica votes for itself). A leader abdicates
    /// to follower first, so it too campaigns for a fresh term.
    pub fn force_timeout(&mut self, now_ms: u64) {
        if self.role == Role::Leader {
            self.role = Role::Follower;
            self.votes.clear();
            self.election_ctx = None;
        }
        self.election_deadline_ms = now_ms;
    }

    fn reset_election_deadline(&mut self, now_ms: u64) {
        let jitter = if self.timing.election_jitter_ms == 0 {
            0
        } else {
            self.rng.gen_range(0..=self.timing.election_jitter_ms)
        };
        self.election_deadline_ms = now_ms + self.timing.election_min_ms + jitter;
    }

    fn last_log_index(&self) -> u64 {
        self.log.len() as u64
    }

    fn last_log_term(&self) -> u64 {
        self.log.last().map_or(0, |e| e.term)
    }

    fn persist_hard_state(&mut self) {
        if let Some(w) = self.wal.as_mut() {
            let rec = MdsRecord::Consensus {
                term: self.current_term,
                index: self.voted_for.map_or(NO_VOTE, u64::from),
                op: OP_HARD_STATE,
                a: 0,
                b: 0,
                c: 0,
            };
            w.append(&rec);
            w.sync().expect("consensus WAL sync");
        }
    }

    fn persist_entry(&mut self, e: &Entry) {
        if let Some(w) = self.wal.as_mut() {
            let (op, a, b, c) = e.cmd.to_wire();
            let rec = MdsRecord::Consensus {
                term: e.term,
                index: e.index,
                op: OP_ENTRY_BASE + op,
                a,
                b,
                c,
            };
            w.append(&rec);
            w.sync().expect("consensus WAL sync");
        }
    }

    fn persist_truncate(&mut self, from_index: u64) {
        if let Some(w) = self.wal.as_mut() {
            let rec = MdsRecord::Consensus {
                term: self.current_term,
                index: from_index,
                op: OP_TRUNCATE,
                a: 0,
                b: 0,
                c: 0,
            };
            w.append(&rec);
            w.sync().expect("consensus WAL sync");
        }
    }

    fn step_down(&mut self, term: u64, now_ms: u64) {
        self.current_term = term;
        self.voted_for = None;
        self.role = Role::Follower;
        self.votes.clear();
        self.election_ctx = None;
        self.persist_hard_state();
        self.reset_election_deadline(now_ms);
    }

    fn start_election(&mut self, now_ms: u64, out: &mut Vec<(u16, PeerMsg)>) {
        self.current_term += 1;
        self.role = Role::Candidate;
        self.voted_for = Some(self.id);
        self.votes.clear();
        self.votes.insert(self.id);
        self.campaign_started_ms = now_ms;
        self.persist_hard_state();
        self.reset_election_deadline(now_ms);
        if let Some(c) = &self.elections {
            c.inc();
        }
        for peer in 0..self.n as u16 {
            if peer != self.id {
                out.push((
                    peer,
                    PeerMsg::RequestVote {
                        term: self.current_term,
                        candidate: self.id,
                        last_log_index: self.last_log_index(),
                        last_log_term: self.last_log_term(),
                    },
                ));
            }
        }
        if self.votes.len() * 2 > self.n {
            // Single-replica cluster: the self-vote already wins.
            self.become_leader(now_ms);
        }
    }

    fn become_leader(&mut self, now_ms: u64) {
        self.role = Role::Leader;
        self.leader_hint = Some(self.id);
        let last = self.last_log_index();
        for p in 0..self.n {
            self.next_index[p] = last + 1;
            self.match_index[p] = 0;
        }
        self.heartbeat_due_ms = now_ms; // replicate immediately
        if let Some(t) = self.tracer.clone() {
            if let Some(ctx) = t.begin() {
                let start_us = self.campaign_started_ms.saturating_mul(1_000);
                let dur_us = now_ms.saturating_sub(self.campaign_started_ms).max(1) * 1_000;
                t.record(
                    Span::root(ctx, span_names::ELECTION, start_us, dur_us)
                        .on_mds(self.id)
                        .with_arg(ArgKey::Term, self.current_term),
                );
                self.election_ctx = Some(ctx);
            }
        }
        // Term-start no-op: commits from earlier terms become
        // committable once this entry gains a majority.
        let _ = self.propose(Command::Noop, now_ms);
    }

    /// Leader-side proposal. Appends to the local log and persists;
    /// replication happens on the next heartbeat tick (virtual-time
    /// group commit).
    ///
    /// # Errors
    ///
    /// `Err(leader_hint)` when this replica is not the leader.
    pub fn propose(&mut self, cmd: Command, now_ms: u64) -> Result<(u64, u64), Option<u16>> {
        if self.role != Role::Leader {
            return Err(self.leader_hint);
        }
        let entry = Entry {
            term: self.current_term,
            index: self.last_log_index() + 1,
            cmd,
        };
        self.log.push(entry);
        self.persist_entry(&entry);
        self.match_index[self.id as usize] = entry.index;
        // The leader's own copy counts toward the majority: in a
        // cluster of one it *is* the majority, and no `AppendReply`
        // will ever arrive to run the commit rule. With peers this
        // finds nothing new (one match of n >= 2 is no majority).
        self.advance_commit(now_ms);
        Ok((entry.term, entry.index))
    }

    /// One virtual-time step: election timeout (follower/candidate) or
    /// heartbeat/replication fan-out (leader). Outgoing messages are
    /// pushed as `(destination, message)`.
    pub fn tick(&mut self, now_ms: u64, out: &mut Vec<(u16, PeerMsg)>) {
        self.apply_committed();
        match self.role {
            Role::Follower | Role::Candidate => {
                if now_ms >= self.election_deadline_ms {
                    self.start_election(now_ms, out);
                }
            }
            Role::Leader => {
                if now_ms >= self.heartbeat_due_ms {
                    self.heartbeat_due_ms = now_ms + self.timing.heartbeat_ms;
                    for peer in 0..self.n as u16 {
                        if peer != self.id {
                            out.push((peer, self.append_for(peer)));
                        }
                    }
                }
            }
        }
    }

    fn append_for(&self, peer: u16) -> PeerMsg {
        let next = self.next_index[peer as usize].max(1);
        let prev_index = next - 1;
        let prev_term = if prev_index == 0 {
            0
        } else {
            self.log[prev_index as usize - 1].term
        };
        // Bounded batches keep frames small and give the fault injector
        // more distinct messages to perturb.
        let entries: Vec<Entry> = self
            .log
            .iter()
            .skip(prev_index as usize)
            .take(16)
            .copied()
            .collect();
        PeerMsg::Append {
            term: self.current_term,
            leader: self.id,
            prev_index,
            prev_term,
            commit: self.commit_index,
            entries,
        }
    }

    /// Handles one incoming consensus message.
    pub fn receive(&mut self, msg: PeerMsg, now_ms: u64, out: &mut Vec<(u16, PeerMsg)>) {
        match msg {
            PeerMsg::RequestVote {
                term,
                candidate,
                last_log_index,
                last_log_term,
            } => {
                if term > self.current_term {
                    self.step_down(term, now_ms);
                }
                let up_to_date = last_log_term > self.last_log_term()
                    || (last_log_term == self.last_log_term()
                        && last_log_index >= self.last_log_index());
                let granted = term == self.current_term
                    && self.voted_for.is_none_or(|v| v == candidate)
                    && up_to_date;
                if granted {
                    self.voted_for = Some(candidate);
                    self.persist_hard_state();
                    self.reset_election_deadline(now_ms);
                }
                out.push((
                    candidate,
                    PeerMsg::VoteReply {
                        term: self.current_term,
                        voter: self.id,
                        granted,
                    },
                ));
            }
            PeerMsg::VoteReply {
                term,
                voter,
                granted,
            } => {
                if term > self.current_term {
                    self.step_down(term, now_ms);
                    return;
                }
                if self.role == Role::Candidate && term == self.current_term && granted {
                    self.votes.insert(voter);
                    if self.votes.len() * 2 > self.n {
                        self.become_leader(now_ms);
                    }
                }
            }
            PeerMsg::Append {
                term,
                leader,
                prev_index,
                prev_term,
                commit,
                entries,
            } => {
                if term < self.current_term {
                    out.push((
                        leader,
                        PeerMsg::AppendReply {
                            term: self.current_term,
                            follower: self.id,
                            success: false,
                            match_index: self.last_log_index(),
                        },
                    ));
                    return;
                }
                if term > self.current_term || self.role != Role::Follower {
                    self.step_down(term, now_ms);
                }
                self.leader_hint = Some(leader);
                self.reset_election_deadline(now_ms);
                let prev_ok = prev_index == 0
                    || (prev_index <= self.last_log_index()
                        && self.log[prev_index as usize - 1].term == prev_term);
                if !prev_ok {
                    out.push((
                        leader,
                        PeerMsg::AppendReply {
                            term: self.current_term,
                            follower: self.id,
                            success: false,
                            match_index: self.last_log_index().min(prev_index.saturating_sub(1)),
                        },
                    ));
                    return;
                }
                for e in &entries {
                    let idx = e.index;
                    debug_assert!(idx >= 1);
                    if idx <= self.last_log_index() {
                        if self.log[idx as usize - 1].term != e.term {
                            // Conflict: drop our divergent suffix, then
                            // take the leader's entry.
                            self.log.truncate(idx as usize - 1);
                            self.persist_truncate(idx);
                            self.log.push(*e);
                            self.persist_entry(e);
                        }
                    } else {
                        self.log.push(*e);
                        self.persist_entry(e);
                    }
                }
                let new_commit = commit.min(self.last_log_index());
                if new_commit > self.commit_index {
                    self.commit_index = new_commit;
                    self.apply_committed();
                }
                out.push((
                    leader,
                    PeerMsg::AppendReply {
                        term: self.current_term,
                        follower: self.id,
                        success: true,
                        match_index: prev_index + entries.len() as u64,
                    },
                ));
            }
            PeerMsg::AppendReply {
                term,
                follower,
                success,
                match_index,
            } => {
                if term > self.current_term {
                    self.step_down(term, now_ms);
                    return;
                }
                if self.role != Role::Leader || term != self.current_term {
                    return;
                }
                let f = follower as usize;
                if success {
                    if match_index > self.match_index[f] {
                        self.match_index[f] = match_index;
                    }
                    self.next_index[f] = self.match_index[f] + 1;
                    self.advance_commit(now_ms);
                } else {
                    // Back off past the conflict, helped by the
                    // follower's log-length hint.
                    self.next_index[f] = self.next_index[f]
                        .saturating_sub(1)
                        .clamp(1, match_index + 1);
                }
            }
        }
    }

    /// Leader commit rule: the highest index replicated on a majority,
    /// provided the entry is from the current term.
    fn advance_commit(&mut self, now_ms: u64) {
        let mut candidate = self.commit_index;
        for idx in (self.commit_index + 1)..=self.last_log_index() {
            let replicas = self.match_index.iter().filter(|&&m| m >= idx).count();
            if replicas * 2 > self.n && self.log[idx as usize - 1].term == self.current_term {
                candidate = idx;
            }
        }
        if candidate > self.commit_index {
            let committed = candidate - self.commit_index;
            self.commit_index = candidate;
            self.apply_committed();
            if let (Some(t), Some(ctx)) = (self.tracer.clone(), self.election_ctx) {
                let sctx = t.child(ctx);
                let start_us = now_ms.saturating_mul(1_000);
                t.record(
                    Span::child(ctx, sctx.span, span_names::REPLICATE, start_us, committed)
                        .on_mds(self.id)
                        .with_arg(ArgKey::Term, self.current_term),
                );
            }
        }
    }

    fn apply_committed(&mut self) {
        while self.state.applied < self.commit_index {
            let idx = self.state.applied as usize; // next entry, 0-based
            let entry = self.log[idx];
            // Replicas apply silently; the cluster's observer is the
            // single journaling applier.
            let _ = self.state.apply(&entry, None);
        }
    }
}

/// Replays one recovered WAL record into hard state + log.
fn replay_consensus_record(
    record: &MdsRecord,
    term: &mut u64,
    voted_for: &mut Option<u16>,
    log: &mut Vec<Entry>,
) -> StoreResult<()> {
    let corrupt = d2tree_store::StoreError::Corrupt;
    let MdsRecord::Consensus {
        term: rterm,
        index,
        op,
        a,
        b,
        c,
    } = *record
    else {
        return Err(corrupt(format!(
            "non-consensus record `{}` in a replica log",
            record.label()
        )));
    };
    match op {
        OP_HARD_STATE => {
            *term = rterm;
            *voted_for = if index == NO_VOTE {
                None
            } else {
                u16::try_from(index)
                    .map(Some)
                    .map_err(|_| corrupt(format!("hard-state vote {index} overflows u16")))?
            };
        }
        OP_TRUNCATE => {
            if index < 1 || index > log.len() as u64 + 1 {
                return Err(corrupt(format!(
                    "truncate to {index} outside log of {}",
                    log.len()
                )));
            }
            log.truncate(index as usize - 1);
        }
        op if op >= OP_ENTRY_BASE => {
            let cmd = Command::from_wire(op - OP_ENTRY_BASE, a, b, c)
                .ok_or_else(|| corrupt(format!("unknown consensus command opcode {op}")))?;
            if index != log.len() as u64 + 1 {
                return Err(corrupt(format!(
                    "entry index {index} breaks dense log of {}",
                    log.len()
                )));
            }
            log.push(Entry {
                term: rterm,
                index,
                cmd,
            });
        }
        op => return Err(corrupt(format!("unknown consensus opcode {op}"))),
    }
    Ok(())
}

/// Deterministic delivery bus: frames ordered by `(deliver_at, seq)`.
#[derive(Debug, Default)]
struct MsgBus {
    seq: u64,
    queue: BTreeMap<(u64, u64), (u16, Bytes)>,
}

impl MsgBus {
    fn send(&mut self, deliver_at_ms: u64, to: u16, frame: Bytes) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.insert((deliver_at_ms, seq), (to, frame));
    }

    fn drain_due(&mut self, now_ms: u64) -> Vec<(u16, Bytes)> {
        let mut due = Vec::new();
        let keys: Vec<(u64, u64)> = self
            .queue
            .range(..=(now_ms, u64::MAX))
            .map(|(&k, _)| k)
            .collect();
        for k in keys {
            if let Some(v) = self.queue.remove(&k) {
                due.push(v);
            }
        }
        due
    }
}

/// Cluster-level configuration.
#[derive(Debug, Clone)]
pub struct ConsensusConfig {
    /// Number of Monitor replicas (3 tolerates one failure).
    pub replicas: usize,
    /// Timing parameters.
    pub timing: ConsensusTiming,
    /// Lease duration granted by the replicated lock state machine.
    pub lease_ms: u64,
    /// When set, each replica persists its log under
    /// `<wal_root>/replica-<id>/` and crash-restart recovers from disk;
    /// when `None`, restarts model a reboot with intact durable state.
    pub wal_root: Option<PathBuf>,
    /// WAL segment size (small values exercise rotation).
    pub segment_bytes: u64,
}

impl Default for ConsensusConfig {
    fn default() -> Self {
        ConsensusConfig {
            replicas: 3,
            timing: ConsensusTiming::default(),
            lease_ms: 200,
            wal_root: None,
            segment_bytes: 16 * 1024,
        }
    }
}

/// Outcome of routing one proposal at a replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The leader accepted and logged the command.
    Accepted {
        /// Term of the new entry.
        term: u64,
        /// Index of the new entry.
        index: u64,
    },
    /// The contacted replica is not the leader; retry at the hint.
    NotLeader {
        /// Where the replica believes the leader is.
        hint: Option<u16>,
    },
    /// The contacted replica is down.
    Down,
}

/// The replicated control plane: replicas, their deterministic message
/// bus, and a single journaling observer applying the canonical
/// committed prefix.
#[derive(Debug)]
pub struct ConsensusCluster {
    seed: u64,
    config: ConsensusConfig,
    replicas: Vec<Replica>,
    up: Vec<bool>,
    generations: Vec<u64>,
    bus: MsgBus,
    observer: ControlState,
    canonical: Vec<Entry>,
    journal: Option<Arc<EventJournal>>,
    registry: Option<Arc<Registry>>,
    tracer: Option<Arc<Tracer>>,
    commits: Option<Arc<Counter>>,
    leader_changes: Option<Arc<Counter>>,
    failover_ms: Option<Arc<Histogram>>,
    leaders_by_term: BTreeMap<u64, u16>,
    last_leader: Option<u16>,
    leader_lost_at_ms: Option<u64>,
    last_failover_ms: Option<u64>,
    violations: Vec<String>,
}

impl ConsensusCluster {
    /// Builds the cluster; with `wal_root` set, replicas recover any
    /// state already on disk (so a rebuilt cluster resumes its log).
    ///
    /// # Panics
    ///
    /// Panics if `config.replicas == 0`, or on a WAL I/O error while
    /// opening replica logs.
    #[must_use]
    pub fn new(seed: u64, config: ConsensusConfig) -> Self {
        assert!(config.replicas > 0, "a control plane needs replicas");
        let n = config.replicas;
        let replicas: Vec<Replica> = (0..n as u16)
            .map(|id| match &config.wal_root {
                Some(root) => Replica::recover(
                    id,
                    n,
                    seed,
                    config.timing,
                    config.lease_ms,
                    0,
                    0,
                    &root.join(format!("replica-{id}")),
                    config.segment_bytes,
                )
                .expect("open consensus WAL"),
                None => Replica::new(id, n, seed, config.timing, config.lease_ms, 0),
            })
            .collect();
        ConsensusCluster {
            seed,
            observer: ControlState::new(config.lease_ms),
            config,
            replicas,
            up: vec![true; n],
            generations: vec![0; n],
            bus: MsgBus::default(),
            canonical: Vec::new(),
            journal: None,
            registry: None,
            tracer: None,
            commits: None,
            leader_changes: None,
            failover_ms: None,
            leaders_by_term: BTreeMap::new(),
            last_leader: None,
            leader_lost_at_ms: None,
            last_failover_ms: None,
            violations: Vec::new(),
        }
    }

    /// Attaches a registry: commit/election/leader-change counters and
    /// the failover histogram.
    #[must_use]
    pub fn with_registry(mut self, registry: Arc<Registry>) -> Self {
        self.commits = Some(registry.counter(MetricKey::global(names::LOG_COMMITS_TOTAL)));
        self.leader_changes =
            Some(registry.counter(MetricKey::global(names::LEADER_CHANGES_TOTAL)));
        self.failover_ms = Some(registry.histogram(MetricKey::global(names::MONITOR_FAILOVER_MS)));
        self.replicas = std::mem::take(&mut self.replicas)
            .into_iter()
            .map(|r| r.with_registry(&registry))
            .collect();
        self.registry = Some(registry);
        self
    }

    /// Attaches the journal the observer records commit events into.
    #[must_use]
    pub fn with_journal(mut self, journal: Arc<EventJournal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Attaches a tracer (election and replication spans on every
    /// replica).
    #[must_use]
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.replicas = std::mem::take(&mut self.replicas)
            .into_iter()
            .map(|r| r.with_tracer(Arc::clone(&tracer)))
            .collect();
        self.tracer = Some(tracer);
        self
    }

    /// Whether replica `id` is up.
    #[must_use]
    pub fn is_up(&self, id: u16) -> bool {
        self.up.get(id as usize).copied().unwrap_or(false)
    }

    /// Live replicas.
    #[must_use]
    pub fn up_count(&self) -> usize {
        self.up.iter().filter(|&&u| u).count()
    }

    /// A replica, for inspection.
    #[must_use]
    pub fn replica(&self, id: u16) -> &Replica {
        &self.replicas[id as usize]
    }

    /// The current leader: the live replica leading the highest term.
    #[must_use]
    pub fn leader(&self) -> Option<u16> {
        self.replicas
            .iter()
            .enumerate()
            .filter(|&(i, r)| self.up[i] && r.role() == Role::Leader)
            .max_by_key(|(_, r)| r.term())
            .map(|(i, _)| i as u16)
    }

    /// The journaling observer's state: the canonical committed view
    /// of leases, membership, GL versions and ownership. Readable even
    /// with zero live replicas (read-only degradation).
    #[must_use]
    pub fn observer(&self) -> &ControlState {
        &self.observer
    }

    /// `(term, leader)` pairs observed so far, one per term that
    /// elected anyone.
    #[must_use]
    pub fn leaders_by_term(&self) -> &BTreeMap<u64, u16> {
        &self.leaders_by_term
    }

    /// The most recent leader-loss → re-commit gap, if a failover
    /// completed.
    #[must_use]
    pub fn last_failover_ms(&self) -> Option<u64> {
        self.last_failover_ms
    }

    /// Crashes a replica: it stops processing, its in-flight messages
    /// still drain to others, and (with a WAL) only its durable state
    /// survives to [`ConsensusCluster::restart`].
    pub fn kill(&mut self, id: u16, now_ms: u64) -> bool {
        let k = id as usize;
        if !self.up[k] {
            return false;
        }
        self.up[k] = false;
        if self.last_leader == Some(id) && self.leader_lost_at_ms.is_none() {
            self.leader_lost_at_ms = Some(now_ms);
        }
        true
    }

    /// Restarts a crashed replica. With a WAL root the replica is
    /// rebuilt from disk (scan + replay); without one the restart
    /// models a reboot that kept its durable term/vote/log but lost
    /// all volatile state (role, votes, commit index, applied state).
    ///
    /// # Panics
    ///
    /// Panics on a WAL I/O or corruption error during recovery.
    pub fn restart(&mut self, id: u16, now_ms: u64) -> bool {
        let k = id as usize;
        if self.up[k] {
            return false;
        }
        self.generations[k] += 1;
        match &self.config.wal_root {
            Some(root) => {
                let mut fresh = Replica::recover(
                    id,
                    self.replicas.len(),
                    self.seed,
                    self.config.timing,
                    self.config.lease_ms,
                    now_ms,
                    self.generations[k],
                    &root.join(format!("replica-{id}")),
                    self.config.segment_bytes,
                )
                .expect("recover consensus WAL");
                if let Some(reg) = &self.registry {
                    fresh = fresh.with_registry(reg);
                }
                if let Some(t) = &self.tracer {
                    fresh = fresh.with_tracer(Arc::clone(t));
                }
                self.replicas[k] = fresh;
            }
            None => {
                let r = &mut self.replicas[k];
                r.role = Role::Follower;
                r.votes.clear();
                r.commit_index = 0;
                r.state = ControlState::new(r.lease_ms);
                r.leader_hint = None;
                r.election_ctx = None;
                r.rng = StdRng::seed_from_u64(replica_seed(self.seed, id, self.generations[k]));
                r.reset_election_deadline(now_ms);
            }
        }
        self.up[k] = true;
        true
    }

    /// Forces every live replica's election timeout to expire on the
    /// next tick — a manufactured split vote (each votes for itself),
    /// resolved by the next round's randomized timeouts.
    pub fn force_split_vote(&mut self, now_ms: u64) {
        for (i, r) in self.replicas.iter_mut().enumerate() {
            if self.up[i] {
                r.force_timeout(now_ms);
            }
        }
    }

    /// Routes a proposal at replica `target`.
    pub fn submit(&mut self, target: u16, cmd: Command, now_ms: u64) -> SubmitOutcome {
        let k = target as usize;
        if k >= self.replicas.len() || !self.up[k] {
            return SubmitOutcome::Down;
        }
        match self.replicas[k].propose(cmd, now_ms) {
            Ok((term, index)) => SubmitOutcome::Accepted { term, index },
            Err(hint) => SubmitOutcome::NotLeader { hint },
        }
    }

    /// One virtual-time step: deliver due frames, tick every live
    /// replica, route fresh messages through the fault injector, then
    /// advance the canonical committed prefix through the observer.
    /// Returns the entries newly committed (observer-applied) this
    /// tick with their outcomes.
    pub fn tick(&mut self, now_ms: u64, injector: Option<&FaultInjector>) -> Vec<(Entry, Applied)> {
        let mut outbox: Vec<(u16, PeerMsg)> = Vec::new();

        // 1. Deliver frames that are due. A frame addressed to a dead
        //    replica is dropped at delivery (its NIC is off).
        for (to, frame) in self.bus.drain_due(now_ms) {
            let k = to as usize;
            if !self.up[k] {
                continue;
            }
            let mut buf = frame;
            match PeerMsg::decode(&mut buf) {
                Some(msg) => self.replicas[k].receive(msg, now_ms, &mut outbox),
                None => self
                    .violations
                    .push(format!("t={now_ms}: undecodable frame for replica {to}")),
            }
        }

        // 2. Tick replicas in id order (deterministic).
        for (i, r) in self.replicas.iter_mut().enumerate() {
            if self.up[i] {
                r.tick(now_ms, &mut outbox);
            }
        }

        // 3. Route the outbox through the codec, the fault injector and
        //    the bus.
        for (to, msg) in outbox {
            let frame = msg.encode();
            let deliver_at = now_ms + self.config.timing.net_delay_ms;
            let decision = injector.map_or(FaultDecision::Deliver, |i| {
                i.decide(NetEdge::MonitorPeer(to), now_ms)
            });
            match decision {
                FaultDecision::Deliver => self.bus.send(deliver_at, to, frame),
                FaultDecision::Drop => {}
                FaultDecision::Delay(extra_ms) => {
                    self.bus.send(deliver_at + extra_ms, to, frame);
                }
                FaultDecision::DeliverTwice => {
                    self.bus.send(deliver_at, to, frame.clone());
                    self.bus.send(deliver_at, to, frame);
                }
            }
        }

        // 4. Leadership bookkeeping: election safety plus the
        //    journal/metric trail for every new (term, leader) pair.
        self.harvest_leadership(now_ms);

        // 5. Advance the canonical committed prefix through the
        //    journaling observer.
        self.advance_observer(now_ms)
    }

    fn harvest_leadership(&mut self, now_ms: u64) {
        for (i, r) in self.replicas.iter().enumerate() {
            if !self.up[i] || r.role() != Role::Leader {
                continue;
            }
            let id = i as u16;
            let term = r.term();
            match self.leaders_by_term.get(&term) {
                Some(&prev) if prev != id => {
                    self.violations.push(format!(
                        "t={now_ms}: two leaders in term {term}: {prev} and {id}"
                    ));
                }
                Some(_) => {}
                None => {
                    self.leaders_by_term.insert(term, id);
                    if let Some(j) = &self.journal {
                        j.record(EventKind::LeaderElected { replica: id, term });
                    }
                    if self.last_leader != Some(id) {
                        if let Some(c) = &self.leader_changes {
                            c.inc();
                        }
                    }
                    if let Some(lost) = self.leader_lost_at_ms.take() {
                        let gap = now_ms.saturating_sub(lost);
                        self.last_failover_ms = Some(gap);
                        if let Some(h) = &self.failover_ms {
                            h.record(gap);
                        }
                    }
                    self.last_leader = Some(id);
                }
            }
        }
    }

    fn advance_observer(&mut self, now_ms: u64) -> Vec<(Entry, Applied)> {
        let mut applied = Vec::new();
        loop {
            let next = self.observer.applied + 1;
            // Any live replica whose commit frontier covers `next` can
            // vouch for the entry; committed prefixes are identical by
            // the log-matching property (cross-checked below).
            let source = self
                .replicas
                .iter()
                .enumerate()
                .find(|&(i, r)| self.up[i] && r.commit_index() >= next);
            let Some((_, r)) = source else { break };
            let entry = r.log()[next as usize - 1];
            if self.canonical.len() as u64 >= next {
                let seen = self.canonical[next as usize - 1];
                if seen != entry {
                    self.violations.push(format!(
                        "t={now_ms}: committed entry {next} diverged: {seen:?} vs {entry:?}"
                    ));
                    break;
                }
            } else {
                self.canonical.push(entry);
            }
            let outcome = self.observer.apply(&entry, self.journal.as_deref());
            if let Some(c) = &self.commits {
                c.inc();
            }
            applied.push((entry, outcome));
        }
        applied
    }

    /// Safety-invariant sweep: accumulated violations (election safety,
    /// canonical divergence) plus a full log-matching check of every
    /// live replica's committed prefix against the canonical log.
    #[must_use]
    pub fn check_invariants(&self) -> Vec<String> {
        let mut out = self.violations.clone();
        for (i, r) in self.replicas.iter().enumerate() {
            if !self.up[i] {
                continue;
            }
            let upto = r.commit_index().min(self.canonical.len() as u64);
            for idx in 1..=upto {
                let ours = r.log()[idx as usize - 1];
                let canon = self.canonical[idx as usize - 1];
                if ours != canon {
                    out.push(format!(
                        "replica {i}: committed entry {idx} mismatches canonical: \
                         {ours:?} vs {canon:?}"
                    ));
                }
            }
            if r.commit_index() > self.canonical.len() as u64 {
                out.push(format!(
                    "replica {i}: commit index {} beyond canonical {}",
                    r.commit_index(),
                    self.canonical.len()
                ));
            }
        }
        out
    }
}

/// Leader discovery for control-plane submitters: remembers the last
/// known leader, follows `NotLeader` redirect hints, and spaces
/// re-attempts with the shared [`RetryPolicy`]'s capped exponential
/// backoff + seeded jitter. Every redirect/retry is counted in
/// `monitor_retries_total`.
#[derive(Debug)]
pub struct LeaderClient {
    policy: RetryPolicy,
    rng: StdRng,
    target: u16,
    n: u16,
    attempt: usize,
    next_try_ms: u64,
    retries: u64,
    counter: Option<Arc<Counter>>,
}

impl LeaderClient {
    /// A client that first contacts replica 0 of an `n`-replica
    /// cluster, with the default retry policy.
    #[must_use]
    pub fn new(seed: u64, n: u16) -> Self {
        LeaderClient {
            policy: RetryPolicy::default(),
            rng: StdRng::seed_from_u64(seed ^ 0xc2b2_ae3d_27d4_eb4f),
            target: 0,
            n: n.max(1),
            attempt: 0,
            next_try_ms: 0,
            retries: 0,
            counter: None,
        }
    }

    /// Attaches a registry (`monitor_retries_total`).
    #[must_use]
    pub fn with_registry(mut self, registry: &Registry) -> Self {
        self.counter = Some(registry.counter(MetricKey::global(names::MONITOR_RETRIES_TOTAL)));
        self
    }

    /// Retries taken (redirects, dead replicas, backoff re-aims).
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// One submission attempt at `now_ms`. Returns the accepted
    /// `(term, index)`, or `None` while redirecting/backing off (call
    /// again on a later tick; the client waits out its own backoff).
    pub fn try_submit(
        &mut self,
        cluster: &mut ConsensusCluster,
        cmd: Command,
        now_ms: u64,
    ) -> Option<(u64, u64)> {
        if now_ms < self.next_try_ms {
            return None;
        }
        match cluster.submit(self.target, cmd, now_ms) {
            SubmitOutcome::Accepted { term, index } => {
                self.attempt = 0;
                Some((term, index))
            }
            SubmitOutcome::NotLeader { hint } => {
                match hint {
                    Some(h) if h != self.target => self.target = h,
                    _ => self.target = (self.target + 1) % self.n,
                }
                self.backoff(now_ms);
                None
            }
            SubmitOutcome::Down => {
                self.target = (self.target + 1) % self.n;
                self.backoff(now_ms);
                None
            }
        }
    }

    fn backoff(&mut self, now_ms: u64) {
        self.retries += 1;
        if let Some(c) = &self.counter {
            c.inc();
        }
        let wait = self.policy.backoff_ms(self.attempt, &mut self.rng);
        self.attempt = (self.attempt + 1).min(self.policy.max_attempts);
        self.next_try_ms = now_ms + wait;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2tree_telemetry::{Sampler, SpanName};

    fn drive(cluster: &mut ConsensusCluster, from_ms: u64, ticks: u64, step_ms: u64) -> u64 {
        let mut now = from_ms;
        for _ in 0..ticks {
            now += step_ms;
            cluster.tick(now, None);
        }
        now
    }

    fn drive_until_leader(cluster: &mut ConsensusCluster, from_ms: u64, step_ms: u64) -> u64 {
        let mut now = from_ms;
        for _ in 0..4_000 {
            now += step_ms;
            cluster.tick(now, None);
            if cluster.leader().is_some() {
                return now;
            }
        }
        panic!("no leader elected within 4000 ticks");
    }

    #[test]
    fn commands_round_trip_through_wire_encoding() {
        let cmds = [
            Command::Noop,
            Command::MdsAlive { mds: 3 },
            Command::MdsDead { mds: 65535 },
            Command::LeaseAcquire {
                node: u64::MAX,
                holder: 9,
                now_ms: 123,
            },
            Command::LeaseRelease { node: 7, fence: 19 },
            Command::GlWrite {
                node: 1,
                fence: 2,
                now_ms: 3,
            },
            Command::Migrate {
                subtree: 42,
                from: 1,
                to: 2,
            },
        ];
        for cmd in cmds {
            let (op, a, b, c) = cmd.to_wire();
            assert_eq!(Command::from_wire(op, a, b, c), Some(cmd), "{cmd:?}");
        }
        assert_eq!(Command::from_wire(99, 0, 0, 0), None);
        assert_eq!(Command::from_wire(1, u64::MAX, 0, 0), None, "mds overflow");
    }

    #[test]
    fn three_replicas_elect_exactly_one_leader() {
        let mut c = ConsensusCluster::new(7, ConsensusConfig::default());
        let now = drive_until_leader(&mut c, 0, 10);
        let leaders: Vec<u16> = (0..3)
            .filter(|&i| c.replica(i).role() == Role::Leader)
            .collect();
        assert_eq!(leaders.len(), 1, "at {now}ms: {leaders:?}");
        assert!(c.check_invariants().is_empty());
    }

    #[test]
    fn committed_commands_apply_on_every_replica() {
        let mut c = ConsensusCluster::new(11, ConsensusConfig::default());
        let mut now = drive_until_leader(&mut c, 0, 10);
        let leader = c.leader().unwrap();
        let out = c.submit(
            leader,
            Command::LeaseAcquire {
                node: 5,
                holder: 2,
                now_ms: now,
            },
            now,
        );
        assert!(matches!(out, SubmitOutcome::Accepted { .. }));
        now = drive(&mut c, now, 30, 10);
        assert_eq!(c.observer().lease(5).unwrap().holder, 2);
        assert_eq!(c.observer().lease(5).unwrap().fence, 1);
        for i in 0..3u16 {
            assert_eq!(
                c.replica(i).state().lease(5).map(|l| l.fence),
                Some(1),
                "replica {i} applied the grant"
            );
        }
        assert!(c.check_invariants().is_empty());
        let _ = now;
    }

    #[test]
    fn non_leader_submission_redirects_with_hint() {
        let mut c = ConsensusCluster::new(13, ConsensusConfig::default());
        let mut now = drive_until_leader(&mut c, 0, 10);
        // Let the first heartbeats land so followers learn the leader.
        now = drive(&mut c, now, 10, 10);
        let leader = c.leader().unwrap();
        let follower = (0..3u16).find(|&i| i != leader).unwrap();
        match c.submit(follower, Command::Noop, now) {
            SubmitOutcome::NotLeader { hint } => assert_eq!(hint, Some(leader)),
            other => panic!("expected NotLeader, got {other:?}"),
        }
    }

    #[test]
    fn leader_kill_reelects_and_preserves_committed_state() {
        let mut c = ConsensusCluster::new(17, ConsensusConfig::default());
        let mut now = drive_until_leader(&mut c, 0, 10);
        let first = c.leader().unwrap();
        let out = c.submit(
            first,
            Command::LeaseAcquire {
                node: 9,
                holder: 1,
                now_ms: now,
            },
            now,
        );
        assert!(matches!(out, SubmitOutcome::Accepted { .. }));
        now = drive(&mut c, now, 20, 10);
        let fence_before = c.observer().lease(9).unwrap().fence;
        assert!(c.kill(first, now));
        let _now = drive_until_leader(&mut c, now, 10);
        let second = c.leader().unwrap();
        assert_ne!(second, first);
        // The committed grant survives failover; fencing never regresses.
        assert_eq!(c.observer().lease(9).unwrap().fence, fence_before);
        assert!(c.observer().max_fence() >= fence_before);
        assert!(c.check_invariants().is_empty());
    }

    #[test]
    fn quorum_loss_degrades_to_read_only_and_recovers() {
        let mut c = ConsensusCluster::new(23, ConsensusConfig::default());
        let mut now = drive_until_leader(&mut c, 0, 10);
        let leader = c.leader().unwrap();
        let out = c.submit(
            leader,
            Command::LeaseAcquire {
                node: 3,
                holder: 0,
                now_ms: now,
            },
            now,
        );
        assert!(matches!(out, SubmitOutcome::Accepted { .. }));
        now = drive(&mut c, now, 20, 10);
        let survivor = (0..3u16).find(|&i| i != leader).unwrap();
        for i in 0..3u16 {
            if i != survivor {
                c.kill(i, now);
            }
        }
        // A long quiet period: no quorum, so no new leader, but reads
        // keep working and nothing panics.
        now = drive(&mut c, now, 200, 10);
        assert_eq!(c.leader(), None, "no quorum, no leader");
        assert_eq!(c.observer().lease(3).map(|l| l.holder), Some(0));
        assert_eq!(
            c.replica(survivor).state().lease(3).map(|l| l.holder),
            Some(0)
        );
        // Writes fail gracefully.
        let out = c.submit(survivor, Command::Noop, now);
        assert!(matches!(
            out,
            SubmitOutcome::NotLeader { .. } | SubmitOutcome::Down
        ));
        // Quorum returns; the cluster re-elects and accepts writes again.
        for i in 0..3u16 {
            if i != survivor && !c.is_up(i) {
                c.restart(i, now);
            }
        }
        let now = drive_until_leader(&mut c, now, 10);
        let leader = c.leader().unwrap();
        assert!(matches!(
            c.submit(leader, Command::Noop, now),
            SubmitOutcome::Accepted { .. }
        ));
        assert!(c.check_invariants().is_empty());
    }

    #[test]
    fn expired_lease_fence_is_rejected_not_silently_applied() {
        // Satellite regression: a lease expires while its GL write is
        // in flight; the replicated state machine must reject the stale
        // fence at apply time.
        let mut state = ControlState::new(50);
        let grant = state.apply(
            &Entry {
                term: 1,
                index: 1,
                cmd: Command::LeaseAcquire {
                    node: 4,
                    holder: 2,
                    now_ms: 100,
                },
            },
            None,
        );
        let Applied::Granted { fence, .. } = grant else {
            panic!("expected a grant, got {grant:?}");
        };
        // In-flight write lands after expiry (100 + 50 = 150).
        let out = state.apply(
            &Entry {
                term: 1,
                index: 2,
                cmd: Command::GlWrite {
                    node: 4,
                    fence,
                    now_ms: 150,
                },
            },
            None,
        );
        assert_eq!(out, Applied::Rejected { node: 4, fence });
        assert_eq!(state.gl_version(4), 0, "stale write must not apply");
        assert_eq!(state.fence_rejections, 1);
        // A fresh grant gets a strictly larger fence, and its write
        // applies.
        let regrant = state.apply(
            &Entry {
                term: 1,
                index: 3,
                cmd: Command::LeaseAcquire {
                    node: 4,
                    holder: 3,
                    now_ms: 160,
                },
            },
            None,
        );
        let Applied::Granted { fence: fence2, .. } = regrant else {
            panic!("expected a re-grant, got {regrant:?}");
        };
        assert!(fence2 > fence, "fencing tokens stay monotonic");
        let out = state.apply(
            &Entry {
                term: 1,
                index: 4,
                cmd: Command::GlWrite {
                    node: 4,
                    fence: fence2,
                    now_ms: 170,
                },
            },
            None,
        );
        assert_eq!(
            out,
            Applied::GlWritten {
                node: 4,
                version: 1
            }
        );
    }

    #[test]
    fn unexpired_lease_blocks_reacquisition() {
        let mut state = ControlState::new(1_000);
        let _ = state.apply(
            &Entry {
                term: 1,
                index: 1,
                cmd: Command::LeaseAcquire {
                    node: 1,
                    holder: 0,
                    now_ms: 0,
                },
            },
            None,
        );
        let out = state.apply(
            &Entry {
                term: 1,
                index: 2,
                cmd: Command::LeaseAcquire {
                    node: 1,
                    holder: 1,
                    now_ms: 500,
                },
            },
            None,
        );
        assert_eq!(out, Applied::Busy);
        assert_eq!(state.lease(1).unwrap().holder, 0);
        assert_eq!(state.lease_busy, 1);
    }

    #[test]
    fn split_vote_resolves_via_randomized_timeouts() {
        let mut c = ConsensusCluster::new(31, ConsensusConfig::default());
        let mut now = drive_until_leader(&mut c, 0, 10);
        let term_before = c.replica(c.leader().unwrap()).term();
        c.force_split_vote(now);
        now = drive(&mut c, now, 1, 10); // every replica becomes candidate
        let now = drive_until_leader(&mut c, now, 10);
        let leader = c.leader().unwrap();
        assert!(c.replica(leader).term() > term_before);
        assert!(
            c.check_invariants().is_empty(),
            "{:?}",
            c.check_invariants()
        );
        let _ = now;
    }

    #[test]
    fn wal_backed_replica_recovers_term_vote_and_log() {
        let root = consensus_test_root();
        let mut c = ConsensusCluster::new(
            41,
            ConsensusConfig {
                wal_root: Some(root.clone()),
                ..ConsensusConfig::default()
            },
        );
        let mut now = drive_until_leader(&mut c, 0, 10);
        let leader = c.leader().unwrap();
        for k in 0..5u64 {
            let out = c.submit(
                leader,
                Command::LeaseAcquire {
                    node: k,
                    holder: 0,
                    now_ms: now,
                },
                now,
            );
            assert!(matches!(out, SubmitOutcome::Accepted { .. }));
            now = drive(&mut c, now, 5, 10);
        }
        now = drive(&mut c, now, 20, 10);
        let committed = c.replica(leader).commit_index();
        let term = c.replica(leader).term();
        assert!(committed >= 5);
        // Crash + recover the leader from its own WAL.
        c.kill(leader, now);
        c.restart(leader, now + 10);
        let r = c.replica(leader);
        assert_eq!(r.term(), term, "durable term survives the crash");
        assert!(
            r.log().len() as u64 >= committed,
            "durable log covers everything that was committed"
        );
        // And the cluster as a whole keeps working.
        let now = drive_until_leader(&mut c, now + 10, 10);
        assert!(c.check_invariants().is_empty());
        let _ = now;
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_single_replica_elects_itself_commits_at_once_and_replays_its_wal() {
        let root = consensus_test_root();
        let config = ConsensusConfig {
            replicas: 1,
            wal_root: Some(root.clone()),
            ..ConsensusConfig::default()
        };
        let timing = config.timing;
        let mut c = ConsensusCluster::new(5, config);
        let mut now = drive_until_leader(&mut c, 0, 10);
        assert!(
            now <= timing.election_min_ms + timing.election_jitter_ms + 10,
            "the lone replica wins its first timeout, at {now} ms"
        );
        // No peer will ever acknowledge anything: the leader's own copy
        // is the majority, so a proposal is committed by the next tick.
        let out = c.submit(0, Command::MdsAlive { mds: 3 }, now);
        assert!(matches!(out, SubmitOutcome::Accepted { .. }));
        now += 10;
        let applied: Vec<Applied> = c.tick(now, None).into_iter().map(|(_, a)| a).collect();
        assert!(
            applied.contains(&Applied::Membership {
                mds: 3,
                alive: true
            }),
            "committed by the next tick: {applied:?}"
        );
        assert!(c.observer().is_alive(3));
        // Crash; recovery replays the entry from the WAL and the next
        // term's no-op commits it again into the replica's own state.
        assert!(c.kill(0, now));
        assert!(c.restart(0, now + 10));
        assert!(!c.replica(0).state().is_alive(3), "volatile state is gone");
        let now = drive_until_leader(&mut c, now + 10, 10);
        assert!(c.replica(0).state().is_alive(3), "replayed at {now} ms");
        assert_eq!(c.replica(0).state(), c.observer());
        assert!(c.check_invariants().is_empty());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn same_seed_clusters_are_deterministic() {
        let run = |seed: u64| {
            let reg = Arc::new(Registry::with_journal_capacity(4_096));
            let mut c = ConsensusCluster::new(seed, ConsensusConfig::default())
                .with_journal(Arc::clone(reg.journal()));
            let mut client = LeaderClient::new(seed, 3);
            let mut now = 0;
            for tick in 0..400u64 {
                now = tick * 10;
                if tick == 120 {
                    if let Some(l) = c.leader() {
                        c.kill(l, now);
                    }
                }
                if tick == 200 {
                    for i in 0..3u16 {
                        if !c.is_up(i) {
                            c.restart(i, now);
                        }
                    }
                }
                let _ = client.try_submit(
                    &mut c,
                    Command::LeaseAcquire {
                        node: 1,
                        holder: 0,
                        now_ms: now,
                    },
                    now,
                );
                c.tick(now, None);
            }
            let _ = now;
            let events: Vec<EventKind> = reg.journal().snapshot().iter().map(|e| e.kind).collect();
            (events, c.observer().clone(), client.retries())
        };
        let a = run(77);
        let b = run(77);
        assert_eq!(a.0, b.0, "same-seed journals are identical");
        assert_eq!(a.1, b.1, "same-seed observer states are identical");
        assert_eq!(a.2, b.2, "same-seed retry counts are identical");
        let c = run(78);
        assert_ne!(a.0, c.0, "different seeds genuinely differ");
    }

    #[test]
    fn leader_client_follows_redirects_under_policy_backoff() {
        let reg = Registry::new();
        let mut c = ConsensusCluster::new(53, ConsensusConfig::default());
        let now = drive_until_leader(&mut c, 0, 10);
        let leader = c.leader().unwrap();
        let mut client = LeaderClient::new(53, 3).with_registry(&reg);
        // Aim the client away from the leader so it must redirect.
        client.target = (leader + 1) % 3;
        let mut accepted = None;
        let mut t = now;
        for _ in 0..50 {
            t += 10;
            if let Some(ok) = client.try_submit(&mut c, Command::Noop, t) {
                accepted = Some(ok);
                break;
            }
            c.tick(t, None);
        }
        assert!(accepted.is_some(), "client reaches the leader via hints");
        assert!(client.retries() >= 1);
        let snap = reg.snapshot();
        let retries = snap
            .counters
            .iter()
            .find(|(k, _)| k.name == names::MONITOR_RETRIES_TOTAL)
            .map_or(0, |&(_, v)| v);
        assert_eq!(retries, client.retries());
    }

    #[test]
    fn election_and_replication_spans_are_parent_linked() {
        let tracer = Arc::new(Tracer::new(Sampler::always(0)));
        let mut c =
            ConsensusCluster::new(61, ConsensusConfig::default()).with_tracer(Arc::clone(&tracer));
        let mut now = drive_until_leader(&mut c, 0, 10);
        let leader = c.leader().unwrap();
        let out = c.submit(leader, Command::Noop, now);
        assert!(matches!(out, SubmitOutcome::Accepted { .. }));
        now = drive(&mut c, now, 20, 10);
        let _ = now;
        let spans = tracer.drain();
        let election = spans
            .iter()
            .find(|s| s.name == SpanName::Election)
            .expect("an election span");
        assert!(election.parent.is_none(), "election spans are roots");
        let replicate = spans
            .iter()
            .find(|s| s.name == SpanName::Replicate)
            .expect("a replication span");
        assert_eq!(
            replicate.parent,
            Some(election.id),
            "replication spans hang off the election that created the leader"
        );
        assert_eq!(replicate.trace, election.trace);
    }

    static TEST_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

    fn consensus_test_root() -> PathBuf {
        std::env::temp_dir().join(format!(
            "d2tree-consensus-test-{}-{}",
            std::process::id(),
            TEST_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ))
    }
}
