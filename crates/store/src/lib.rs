//! Durable MDS state for the D2-Tree reproduction.
//!
//! The paper's dynamic-adjustment and failover story (Sec. IV) assumes
//! each MDS's metadata — its local-layer subtrees, decayed popularity
//! counters, attribute versions, and GL replica version — survives a
//! crash. This crate provides that durability:
//!
//! * [`MdsRecord`] / [`MdsState`] — the journaled events and the state
//!   they replay into, with a hand-rolled big-endian codec.
//! * [`wal`] — a length-prefixed, CRC32-checksummed, segmented
//!   write-ahead log, and the only code that knows its layout. Appends
//!   buffer in memory; [`wal::scan_log`] is the one recovery scan, for
//!   MDS stores and consensus replica logs alike.
//! * [`snapshot`] — periodic whole-state snapshots written
//!   tmp+rename+dir-fsync so a crash never leaves a torn snapshot
//!   visible; covered WAL segments are pruned afterwards.
//! * [`MdsStore`] — ties the two together: `open` recovers
//!   snapshot+tail (truncating a torn final record), `append_deferred`
//!   journals and applies, and `sync`, the writer's commit, is the one
//!   point where records become durable (one fsync for everything
//!   buffered — nothing syncs on a timer). `verify`/`inspect`/`compact`
//!   back the `d2tree store` CLI.
//!
//! ## Failure policy
//!
//! Recovery either replays an exact prefix of what was appended, or
//! fails loudly — never garbage:
//!
//! * a bad frame at the tail of the **last** segment with no valid
//!   frame after it is a *torn tail*: truncated, counted in
//!   [`RecoveryInfo::torn_bytes`], and the log resumes from the valid
//!   prefix;
//! * a bad frame **followed by** a CRC-valid frame (a mid-log bit
//!   flip), any bad frame in a non-last segment, or a missing segment
//!   (an LSN gap between two segments) is *corruption*:
//!   [`StoreError::Corrupt`] — silently truncating would drop records
//!   that were acknowledged as durable.

#![warn(missing_docs)]

use std::fmt;

mod crc;
mod record;
pub mod snapshot;
mod store;
pub mod wal;

pub use crc::crc32;
pub use record::{AttrState, MdsRecord, MdsState};
pub use store::{compact, inspect, verify};
pub use store::{InspectReport, MdsStore, RecoveryInfo, StoreConfig, VerifyReport};

/// Errors surfaced by the store.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// On-disk data is malformed in a way that is *not* a torn tail:
    /// replaying further could invent or drop acknowledged records.
    Corrupt(String),
}

impl StoreError {
    pub(crate) fn corrupt(msg: impl Into<String>) -> Self {
        StoreError::Corrupt(msg.into())
    }

    /// True when the error is data corruption (vs an I/O failure).
    #[must_use]
    pub fn is_corrupt(&self) -> bool {
        matches!(self, StoreError::Corrupt(_))
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "store corrupt: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Shorthand result type for store operations.
pub type StoreResult<T> = Result<T, StoreError>;
