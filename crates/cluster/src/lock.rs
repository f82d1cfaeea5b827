//! The control plane: the one state machine the Monitor and the
//! lease-based lock service decide into, and its thread-safe view.
//!
//! Stands in for the paper's Monitor and Zookeeper lock service (Sec.
//! IV-A3): clients "require a lock only when they want to modify the
//! nodes in global layer". [`ControlState`] holds, once, what those two
//! decide: MDS membership, global-layer leases with their fence counter
//! and committed GL versions. Locks are per-node, FIFO-fair through
//! retry, carry fencing tokens (monotonic across all nodes) and expire
//! after a lease so a crashed holder cannot wedge the layer. Everything
//! else issues [`Command`]s and reads the [`Applied`] each returns; a
//! command applies as it is issued.
//!
//! Time is passed in explicitly (milliseconds), which keeps the state
//! usable from both the live runtime (wall clock) and the chaos engine
//! and tests (virtual clock).

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use d2tree_namespace::NodeId;
use d2tree_telemetry::{EventJournal, EventKind};

use crate::sync;

/// A command the control-plane state machine understands.
///
/// Time-dependent decisions (lease expiry) carry their clock reading
/// *in the command*, so applying the same commands always yields the
/// same state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
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
        /// Clock at issue time; expiry is computed from it.
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
        /// Clock at issue time (expiry check).
        now_ms: u64,
    },
    /// A subtree re-homing decided by the Monitor (rebalance, fail-over
    /// or rejoin). Ownership is not part of the state: whoever applies
    /// the command re-homes the subtree on the resulting
    /// [`Applied::Migrated`].
    Migrate {
        /// Root of the migrating subtree (arena index).
        subtree: u64,
        /// Previous owner.
        from: u16,
        /// New owner.
        to: u16,
    },
}

/// A granted global-layer write lease as the control state tracks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseState {
    /// MDS holding the lease.
    pub holder: u16,
    /// Monotonic fencing token of this grant.
    pub fence: u64,
    /// Expiry instant (milliseconds, in the issuer's clock).
    pub expires_at_ms: u64,
}

/// What applying one command did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
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
    /// A write or release carried a stale or expired fence and was
    /// rejected (only a rejected write counts in
    /// [`ControlState::fence_rejections`]).
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
    /// A subtree re-homing was decided.
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
/// fencing counter), MDS membership and committed GL versions.
///
/// Everything time-dependent uses the clock reading carried *inside*
/// the command, so applying the same commands always yields the same
/// state. Commands apply as they are issued, through
/// [`ControlState::apply_command`] — the only way to change the state,
/// since every field is private: the live runtime's [`LockService`] and
/// the chaos engine both drive it that way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlState {
    lease_ms: u64,
    next_fence: u64,
    /// Live leases by GL node.
    leases: BTreeMap<u64, LeaseState>,
    /// Committed MDS liveness (absent = never registered).
    alive: BTreeMap<u16, bool>,
    /// Committed GL version per node.
    gl_versions: BTreeMap<u64, u64>,
    /// Total leases granted.
    grants: u64,
    /// Writes rejected for stale/expired fences.
    fence_rejections: u64,
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
            grants: 0,
            fence_rejections: 0,
        }
    }

    /// Applies one command. When `journal` is given (the Monitor's),
    /// membership flips and grant/rejection events are recorded.
    pub fn apply_command(&mut self, cmd: Command, journal: Option<&EventJournal>) -> Applied {
        match cmd {
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
                // Only the flip is an event.
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
                    Applied::Busy
                }
            }
            Command::LeaseRelease { node, fence } => {
                if self.leases.get(&node).is_some_and(|l| l.fence == fence) {
                    self.leases.remove(&node);
                    Applied::Released
                } else {
                    Applied::Rejected { node, fence }
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
                    // A lease that expired while its write was in
                    // flight must be *rejected* here, never silently
                    // applied.
                    self.fence_rejections += 1;
                    if let Some(j) = journal {
                        j.record(EventKind::FenceRejected { node, fence });
                    }
                    Applied::Rejected { node, fence }
                }
            }
            Command::Migrate { subtree, from, to } => Applied::Migrated { subtree, from, to },
        }
    }

    /// The current lease on `node`, if one was granted and not released
    /// (it may be expired — check `expires_at_ms`).
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

    /// Whether `mds` registered and was then declared dead — so its next
    /// heartbeat is a rejoin. A server never seen is neither alive nor
    /// dead.
    #[must_use]
    pub fn is_dead(&self, mds: u16) -> bool {
        self.alive.get(&mds) == Some(&false)
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

    /// Total leases granted.
    #[must_use]
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Writes rejected for a stale or expired fence.
    #[must_use]
    pub fn fence_rejections(&self) -> u64 {
        self.fence_rejections
    }
}

/// Proof of lock ownership; required to release.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockToken {
    /// Locked node.
    pub node: NodeId,
    /// Fencing token: strictly increases every time any lock is granted,
    /// so a stale holder's writes can be rejected downstream.
    pub fence: u64,
}

/// Holder recorded for grants taken through the view: callers are
/// threads of one process and do not identify themselves.
const LOCAL_HOLDER: u16 = u16::MAX;

/// The lock manager: a thread-safe view over a mutex-guarded
/// [`ControlState`]. Each call applies one lease command as it is
/// issued, so the lease table, the fence counter and the three lease
/// rules are `ControlState`'s, not a second copy.
///
/// # Example
///
/// ```
/// use d2tree_cluster::LockService;
/// use d2tree_namespace::NodeId;
///
/// let locks = LockService::new(1_000); // 1s lease
/// let n = NodeId::from_index(7);
/// let token = locks.try_acquire(n, 0).expect("free lock");
/// assert!(locks.try_acquire(n, 10).is_none(), "held");
/// assert!(locks.release(token));
/// assert!(locks.try_acquire(n, 20).is_some(), "released");
/// ```
#[derive(Debug)]
pub struct LockService {
    state: Mutex<ControlState>,
}

impl LockService {
    /// Creates a service whose leases last `lease_ms` milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `lease_ms == 0`.
    #[must_use]
    pub fn new(lease_ms: u64) -> Self {
        assert!(lease_ms > 0, "lease must be positive");
        LockService {
            state: Mutex::new(ControlState::new(lease_ms)),
        }
    }

    /// The control state this service is a view of. The live runtime's
    /// Monitor applies its membership and migration commands here, so
    /// every control-plane command goes through one object.
    pub fn control(&self) -> MutexGuard<'_, ControlState> {
        sync::lock(&self.state)
    }

    /// Attempts to take the lock on `node` at time `now_ms`.
    ///
    /// Succeeds if the lock is free or the current holder's lease expired
    /// (the crashed-holder case); the new fencing token then supersedes the
    /// stale one.
    #[must_use]
    pub fn try_acquire(&self, node: NodeId, now_ms: u64) -> Option<LockToken> {
        // No journal: one `LeaseGranted` per GL update would flood the
        // event ring.
        let applied = self.control().apply_command(
            Command::LeaseAcquire {
                node: node.index() as u64,
                holder: LOCAL_HOLDER,
                now_ms,
            },
            None,
        );
        match applied {
            Applied::Granted { fence, .. } => Some(LockToken { node, fence }),
            _ => None,
        }
    }

    /// Spins (yielding between tries) until the lock on `node` is
    /// granted *and still live when handed out*, re-reading the clock
    /// through `now_ms` on every try so lease expiry is honoured
    /// mid-wait. Returns the token plus the number of failed tries —
    /// the live server's traced path turns the wait into a `gl_lock`
    /// span annotated with the spin count.
    #[must_use]
    pub fn acquire_spin(&self, node: NodeId, mut now_ms: impl FnMut() -> u64) -> (LockToken, u64) {
        let mut spins = 0u64;
        loop {
            if let Some(token) = self.try_acquire(node, now_ms()) {
                if self.validate(token, now_ms()) {
                    return (token, spins);
                }
            }
            spins += 1;
            std::thread::yield_now();
        }
    }

    /// Whether `token` still authorises a write at `now_ms`: the lock
    /// must be held under the same fence *and* the lease must still be
    /// live. Writers re-check this immediately before applying an
    /// in-flight global-layer mutation — a lease that expired mid-write
    /// must fence the write out rather than let it land stale. It is
    /// the rule a `GlWrite` is applied under.
    #[must_use]
    pub fn validate(&self, token: LockToken, now_ms: u64) -> bool {
        self.control()
            .validate(token.node.index() as u64, token.fence, now_ms)
    }

    /// Releases a held lock. Returns `false` if the token is stale.
    pub fn release(&self, token: LockToken) -> bool {
        let applied = self.control().apply_command(
            Command::LeaseRelease {
                node: token.node.index() as u64,
                fence: token.fence,
            },
            None,
        );
        applied == Applied::Released
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn expired_lease_fence_is_rejected_not_silently_applied() {
        // A lease expires while its GL write is in flight; the control
        // state must reject the stale fence at apply time.
        let mut state = ControlState::new(50);
        let acquire = |holder, now_ms| Command::LeaseAcquire {
            node: 4,
            holder,
            now_ms,
        };
        let grant = state.apply_command(acquire(2, 100), None);
        let Applied::Granted { fence, .. } = grant else {
            panic!("expected a grant, got {grant:?}");
        };
        // In-flight write lands after expiry (100 + 50 = 150).
        let write = |fence, now_ms| Command::GlWrite {
            node: 4,
            fence,
            now_ms,
        };
        let out = state.apply_command(write(fence, 150), None);
        assert_eq!(out, Applied::Rejected { node: 4, fence });
        assert_eq!(state.gl_version(4), 0, "stale write must not apply");
        assert_eq!(state.fence_rejections, 1);
        // A fresh grant gets a strictly larger fence, and its write
        // applies.
        let regrant = state.apply_command(acquire(3, 160), None);
        let Applied::Granted { fence: fence2, .. } = regrant else {
            panic!("expected a re-grant, got {regrant:?}");
        };
        assert!(fence2 > fence, "fencing tokens stay monotonic");
        let out = state.apply_command(write(fence2, 170), None);
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
        let acquire = |holder, now_ms| Command::LeaseAcquire {
            node: 1,
            holder,
            now_ms,
        };
        let _ = state.apply_command(acquire(0, 0), None);
        assert_eq!(state.apply_command(acquire(1, 500), None), Applied::Busy);
        assert_eq!(state.lease(1).unwrap().holder, 0);
    }

    #[test]
    fn fencing_tokens_increase() {
        let locks = LockService::new(100);
        let a = locks.try_acquire(n(1), 0).unwrap();
        assert!(locks.release(a));
        let b = locks.try_acquire(n(1), 1).unwrap();
        assert!(b.fence > a.fence);
    }

    #[test]
    fn expired_lease_can_be_stolen_and_fences_stale_holder() {
        let locks = LockService::new(50);
        let stale = locks.try_acquire(n(2), 0).unwrap();
        // Lease runs out at t=50; a new holder takes over.
        let fresh = locks.try_acquire(n(2), 50).unwrap();
        assert!(fresh.fence > stale.fence);
        // The stale holder can no longer release.
        assert!(!locks.release(stale));
        assert!(locks.release(fresh));
    }

    #[test]
    fn acquire_spin_waits_out_a_holder_and_counts_spins() {
        let locks = LockService::new(50);
        // Free lock: granted immediately, zero spins.
        let (t, spins) = locks.acquire_spin(n(4), || 0);
        assert_eq!(spins, 0);
        assert!(locks.release(t));
        // Held lock: the waiter's advancing clock expires the lease and
        // the spin loop eventually wins, fencing the stale holder.
        let stale = locks.try_acquire(n(4), 0).unwrap();
        let mut clock = 0u64;
        let (fresh, spins) = locks.acquire_spin(n(4), || {
            clock += 10;
            clock
        });
        assert!(spins > 0, "had to wait for the lease to run out");
        assert!(fresh.fence > stale.fence);
        assert!(!locks.release(stale));
        assert!(locks.release(fresh));
    }

    #[test]
    fn lease_expiry_mid_write_invalidates_the_token_before_apply() {
        // Regression: a writer holding the lock stalls mid-write until
        // its lease runs out. The expired fencing token must be rejected
        // at validate time — even before any successor steals the lock —
        // not silently honoured by the apply.
        let locks = LockService::new(50);
        let t = locks.try_acquire(n(5), 0).unwrap();
        // Still in flight and still live just before expiry...
        assert!(locks.validate(t, 49));
        // ...but the lease ran out while the write was in flight. With
        // no new holder yet, the expired fence already fails validation.
        assert!(!locks.validate(t, 50));
        // A successor takes over under a higher fence; the stale token
        // stays invalid and cannot release the new holder's lock.
        let fresh = locks.try_acquire(n(5), 60).unwrap();
        assert!(fresh.fence > t.fence);
        assert!(!locks.validate(t, 61));
        assert!(locks.validate(fresh, 61));
        assert!(!locks.release(t));
        assert!(locks.release(fresh));
    }

    #[test]
    fn independent_nodes_do_not_contend() {
        let locks = LockService::new(100);
        let a = locks.try_acquire(n(1), 0).unwrap();
        let b = locks.try_acquire(n(2), 0).unwrap();
        assert_eq!(locks.control().leases.len(), 2);
        assert!(locks.release(a));
        assert!(locks.release(b));
        assert!(locks.control().leases.is_empty());
    }

    #[test]
    fn replicated_updates_under_lock_delay_lose_nothing() {
        // Satellite of the chaos PR: concurrent writers pushing
        // replicated global-layer updates through the lock service while
        // a fault plan injects delay on every lock-service link. Version
        // monotonicity and the final counts prove no update was lost or
        // reordered past another despite the perturbation.
        use crate::fault::{
            FaultAction, FaultDecision, FaultInjector, FaultPlan, FaultRule, FaultScope, NetEdge,
        };
        use std::sync::Arc;
        use std::sync::Mutex;

        const WRITERS: usize = 8;
        const UPDATES: usize = 25;
        const REPLICAS: usize = 3;

        let locks = Arc::new(LockService::new(10_000));
        let plan = FaultPlan::new(13).with_rule(
            FaultRule::new(
                FaultScope::AllLinks,
                FaultAction::Delay {
                    fixed_ms: 0,
                    jitter_ms: 1,
                },
            )
            .with_probability(0.5),
        );
        let injector = Arc::new(FaultInjector::new(&plan));
        // The replicated state: per-replica version counters plus the
        // commit log (version at each commit, pushed under the lock).
        let replicas = Arc::new(Mutex::new(vec![0u64; REPLICAS]));
        let commit_log = Arc::new(Mutex::new(Vec::<u64>::new()));

        let mut handles = Vec::new();
        for w in 0..WRITERS as u16 {
            let locks = Arc::clone(&locks);
            let injector = Arc::clone(&injector);
            let replicas = Arc::clone(&replicas);
            let commit_log = Arc::clone(&commit_log);
            handles.push(std::thread::spawn(move || {
                for i in 0..UPDATES {
                    // The lock service sits across the network: the fault
                    // plan perturbs every interaction with it.
                    if let FaultDecision::Delay(ms) =
                        injector.decide(NetEdge::MdsToLock(w % REPLICAS as u16), i as u64)
                    {
                        std::thread::sleep(std::time::Duration::from_millis(ms));
                    }
                    let token = loop {
                        if let Some(t) = locks.try_acquire(n(77), 0) {
                            break t;
                        }
                        std::thread::yield_now();
                    };
                    {
                        let mut reps = replicas.lock().unwrap();
                        let next = reps[0] + 1;
                        for v in reps.iter_mut() {
                            *v = next;
                        }
                        commit_log.lock().unwrap().push(next);
                    }
                    assert!(locks.release(token));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }

        let log = commit_log.lock().unwrap();
        assert_eq!(log.len(), WRITERS * UPDATES, "no update lost");
        assert!(
            log.windows(2).all(|w| w[0] < w[1]),
            "lock-serialised versions must be strictly increasing"
        );
        let reps = replicas.lock().unwrap();
        assert!(
            reps.iter().all(|&v| v == (WRITERS * UPDATES) as u64),
            "replicas diverged: {reps:?}"
        );
    }

    #[test]
    fn concurrent_acquire_grants_exactly_one() {
        use std::sync::Arc;
        let locks = Arc::new(LockService::new(1_000));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let locks = Arc::clone(&locks);
            handles.push(std::thread::spawn(move || {
                locks.try_acquire(n(9), 0).is_some()
            }));
        }
        let granted = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&g| g)
            .count();
        assert_eq!(granted, 1);
    }
}
