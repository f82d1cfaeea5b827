//! Bounded ring-buffer journal of structured cluster events.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What happened. Node/subtree identifiers are raw `u64`s so the crate
/// stays free of workspace dependencies; callers pass `NodeId::0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// An MDS reported in.
    Heartbeat {
        /// Reporting MDS.
        mds: u16,
        /// Its reported load.
        load: f64,
    },
    /// The monitor declared an MDS dead.
    MdsDown {
        /// The failed MDS.
        mds: u16,
    },
    /// A previously-dead MDS resumed heartbeating.
    MdsRecovered {
        /// The recovered MDS.
        mds: u16,
    },
    /// An overloaded MDS gave up a subtree.
    SubtreeShed {
        /// The shedding MDS.
        from: u16,
        /// Root of the shed subtree.
        subtree: u64,
        /// Entries in the subtree.
        size: u64,
        /// Popularity (access weight) of the subtree.
        popularity: f64,
    },
    /// An MDS took ownership of a subtree (rebalance or failover).
    SubtreeClaimed {
        /// The claiming MDS.
        to: u16,
        /// Root of the claimed subtree.
        subtree: u64,
        /// Entries in the subtree.
        size: u64,
        /// Popularity (access weight) of the subtree.
        popularity: f64,
    },
    /// The global layer was re-cut (promotion/demotion pass).
    GlRecut {
        /// Nodes promoted into the global layer.
        promoted: u64,
        /// Nodes demoted out of it.
        demoted: u64,
        /// Total churn of the recut.
        churn: u64,
    },
    /// A client cache miss forced an index fetch.
    CacheMiss {
        /// The client that missed.
        client: u64,
    },
    /// A live client steered a retry away from a server that had just
    /// timed out. A server's redirect is not journaled: it is counted in
    /// `forwarded_total` and the server's `[kind][redirect]` latency lane.
    Forwarded {
        /// The server that timed out (the client's stale hint).
        from: u16,
        /// The server the retry went to instead.
        to: u16,
    },
    /// The fault-injection layer perturbed a message.
    FaultInjected {
        /// What the injector did to the message.
        fault: FaultKind,
        /// The MDS whose link was perturbed.
        mds: u16,
    },
    /// A restarted MDS completed its rejoin protocol.
    MdsRejoined {
        /// The rejoined MDS.
        mds: u16,
        /// Subtrees it claimed from the pending pool on rejoin.
        claimed: u64,
    },
    /// A restarted MDS recovered its durable state from its local
    /// store (snapshot + WAL replay).
    StoreRecovered {
        /// The recovering MDS.
        mds: u16,
        /// WAL records replayed on top of the snapshot.
        records: u64,
        /// Bytes truncated from a torn WAL tail (0 on a clean open).
        torn_bytes: u64,
        /// Wall-clock recovery time, milliseconds.
        recovery_ms: u64,
    },
    /// A restarted MDS re-synced its GL replica by copying only the
    /// entries a live replica had newer versions of.
    GlDeltaSync {
        /// The syncing MDS.
        mds: u16,
        /// GL entries actually transferred (stale on the rejoiner).
        entries: u64,
    },
    /// The replicated lock state machine granted (or renewed) a lease.
    LeaseGranted {
        /// GL node the lease covers.
        node: u64,
        /// Monotonic fencing token attached to the grant.
        fence: u64,
        /// MDS holding the lease.
        holder: u16,
    },
    /// The replicated lock state machine rejected a write carrying a
    /// stale or expired fencing token.
    FenceRejected {
        /// GL node the rejected write targeted.
        node: u64,
        /// The stale fencing token presented.
        fence: u64,
    },
}

/// The kind of perturbation a fault-injection rule applied to a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// The message was silently discarded.
    Drop,
    /// Delivery was postponed by a fixed + jittered delay.
    Delay,
    /// The message was delivered twice.
    Duplicate,
    /// A WAL write was torn mid-frame at crash time.
    TornWrite,
    /// An fsync persisted only a prefix of the buffered bytes.
    PartialFsync,
    /// Bits of an already-durable record were flipped on disk.
    CorruptRecord,
}

impl FaultKind {
    /// Short label used by the exporters (`drop`, `delay`, …).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Delay => "delay",
            FaultKind::Duplicate => "duplicate",
            FaultKind::TornWrite => "torn_write",
            FaultKind::PartialFsync => "partial_fsync",
            FaultKind::CorruptRecord => "corrupt_record",
        }
    }
}

impl EventKind {
    /// Short kind label used by the exporters (`mds_down`, …).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Heartbeat { .. } => "heartbeat",
            EventKind::MdsDown { .. } => "mds_down",
            EventKind::MdsRecovered { .. } => "mds_recovered",
            EventKind::SubtreeShed { .. } => "subtree_shed",
            EventKind::SubtreeClaimed { .. } => "subtree_claimed",
            EventKind::GlRecut { .. } => "gl_recut",
            EventKind::CacheMiss { .. } => "cache_miss",
            EventKind::Forwarded { .. } => "forwarded",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::MdsRejoined { .. } => "mds_rejoined",
            EventKind::StoreRecovered { .. } => "store_recovered",
            EventKind::GlDeltaSync { .. } => "gl_delta_sync",
            EventKind::LeaseGranted { .. } => "lease_granted",
            EventKind::FenceRejected { .. } => "fence_rejected",
        }
    }
}

/// One journal entry: a kind plus ordering metadata.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Global sequence number, strictly increasing across the journal's
    /// lifetime (survives ring-buffer eviction).
    pub seq: u64,
    /// Microseconds since the journal was created. Monotone: derived
    /// from [`Instant`], never wall-clock.
    pub ts_us: u64,
    /// What happened.
    pub kind: EventKind,
}

/// A bounded, thread-safe ring buffer of [`Event`]s. When full, the
/// oldest event is dropped; sequence numbers keep counting so eviction
/// is detectable.
pub struct EventJournal {
    started: Instant,
    seq: AtomicU64,
    capacity: usize,
    ring: Mutex<VecDeque<Event>>,
}

impl std::fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventJournal")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("recorded", &self.recorded())
            .finish()
    }
}

impl EventJournal {
    /// An empty journal retaining at most `capacity` events (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        EventJournal {
            started: Instant::now(),
            seq: AtomicU64::new(0),
            capacity,
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// Appends an event, evicting the oldest when full. Returns the
    /// event's sequence number.
    pub fn record(&self, kind: EventKind) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let ts_us = self.started.elapsed().as_micros() as u64;
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(Event { seq, ts_us, kind });
        seq
    }

    /// Events currently retained, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Event> {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .copied()
            .collect()
    }

    /// Number of events currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the journal holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of retained events.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever recorded (including evicted ones).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Discards all retained events (sequence numbers keep counting).
    pub fn clear(&self) {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_monotone_stamps() {
        let j = EventJournal::new(8);
        for mds in 0..5 {
            j.record(EventKind::MdsDown { mds });
        }
        let events = j.snapshot();
        assert_eq!(events.len(), 5);
        for w in events.windows(2) {
            assert!(w[0].seq < w[1].seq);
            assert!(w[0].ts_us <= w[1].ts_us);
        }
    }

    #[test]
    fn ring_evicts_oldest_but_keeps_sequence() {
        let j = EventJournal::new(3);
        for mds in 0..10u16 {
            j.record(EventKind::Heartbeat { mds, load: 1.0 });
        }
        let events = j.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 7);
        assert_eq!(j.recorded(), 10);
        assert_eq!(j.capacity(), 3);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(EventKind::MdsDown { mds: 0 }.label(), "mds_down");
        assert_eq!(
            EventKind::SubtreeClaimed {
                to: 0,
                subtree: 0,
                size: 0,
                popularity: 0.0
            }
            .label(),
            "subtree_claimed"
        );
    }
}
