//! Lease-based lock service for global-layer mutations.
//!
//! Stands in for the paper's Zookeeper lock service (Sec. IV-A3): clients
//! "require a lock only when they want to modify the nodes in global
//! layer". Locks are per-node, FIFO-fair through retry, carry fencing
//! tokens (monotonic per node) and expire after a lease so a crashed
//! holder cannot wedge the layer.
//!
//! Time is passed in explicitly (milliseconds), which keeps the service
//! usable from both the live runtime (wall clock) and deterministic tests
//! (virtual clock).

use d2tree_namespace::NodeId;
use parking_lot::{Mutex, MutexGuard};

use crate::consensus::{Applied, Command, ControlState};

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
/// issued — the one-replica, commit-is-immediate control plane — so
/// the lease table, the fence counter and the three lease rules are
/// `ControlState`'s, not a second copy.
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

    /// The committed control state this service is a view of. The live
    /// runtime's Monitor applies its membership and migration commands
    /// here, so leases, liveness and ownership share one object.
    pub fn control(&self) -> MutexGuard<'_, ControlState> {
        self.state.lock()
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
    /// the rule a replicated `GlWrite` is applied under.
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
