//! The logical records an MDS journals, their binary codec, and the
//! [`MdsState`] they replay into.
//!
//! Identifiers are raw `u64`/`u16` (node arena indices and MDS ids) so
//! this crate stays free of workspace dependencies, mirroring the
//! telemetry journal's convention; the cluster maps `NodeId`/`MdsId`
//! at the boundary.

use std::collections::{BTreeMap, BTreeSet};

use crate::{StoreError, StoreResult};

/// A `stat`-like attribute payload as journaled (field-for-field the
/// cluster's `FileAttr` plus its version).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AttrState {
    /// Mutation version; replicas and recovery converge on the highest.
    pub version: u64,
    /// Permission bits.
    pub mode: u16,
    /// Owning user id.
    pub uid: u32,
    /// Owning group id.
    pub gid: u32,
    /// Logical size in bytes.
    pub size: u64,
    /// Modification time, seconds since the epoch.
    pub mtime: u64,
}

/// One durable event in an MDS's life, as appended to the WAL.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MdsRecord {
    /// An attribute mutation committed on (or propagated to) this MDS.
    AttrCommit {
        /// Target node (arena index).
        node: u64,
        /// Whether the node is global-layer replicated (the commit then
        /// also advances the MDS's GL replica version).
        gl: bool,
        /// The committed record.
        attr: AttrState,
    },
    /// A local-layer subtree entered or left this MDS's ownership
    /// (initial placement, rebalance, fail-over, rejoin claim).
    Ownership {
        /// Subtree root (arena index).
        root: u64,
        /// Whether the subtree was acquired (`true`) or shed (`false`).
        acquired: bool,
    },
    /// A global-layer recut pass (promotion/demotion) this MDS applied.
    GlRecut {
        /// GL generation after the recut.
        version: u64,
        /// Nodes promoted into the global layer.
        promoted: u64,
        /// Nodes demoted out of it.
        demoted: u64,
    },
    /// New absolute value of a subtree's decayed access counter.
    Popularity {
        /// Subtree root (arena index).
        root: u64,
        /// The counter, as `f64::to_bits` (exact round-trip).
        bits: u64,
    },
}

const TAG_ATTR: u8 = 1;
const TAG_OWNERSHIP: u8 = 2;
const TAG_GL_RECUT: u8 = 3;
const TAG_POPULARITY: u8 = 4;
// Tag 5 is retired (it framed replicated control-plane log events) and
// is never reused: a store that still holds one fails to decode loudly.

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Big-endian read cursor that fails loudly instead of panicking.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> StoreResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(StoreError::corrupt(format!(
                "record truncated: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> StoreResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> StoreResult<u16> {
        Ok(u16::from_be_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    pub(crate) fn u32(&mut self) -> StoreResult<u32> {
        Ok(u32::from_be_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    pub(crate) fn u64(&mut self) -> StoreResult<u64> {
        Ok(u64::from_be_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
}

fn put_attr(out: &mut Vec<u8>, attr: &AttrState) {
    put_u64(out, attr.version);
    put_u16(out, attr.mode);
    put_u32(out, attr.uid);
    put_u32(out, attr.gid);
    put_u64(out, attr.size);
    put_u64(out, attr.mtime);
}

fn get_attr(c: &mut Cursor<'_>) -> StoreResult<AttrState> {
    Ok(AttrState {
        version: c.u64()?,
        mode: c.u16()?,
        uid: c.u32()?,
        gid: c.u32()?,
        size: c.u64()?,
        mtime: c.u64()?,
    })
}

impl MdsRecord {
    /// Serialises the record (tag byte + big-endian fields).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48);
        match self {
            MdsRecord::AttrCommit { node, gl, attr } => {
                out.push(TAG_ATTR);
                put_u64(&mut out, *node);
                out.push(u8::from(*gl));
                put_attr(&mut out, attr);
            }
            MdsRecord::Ownership { root, acquired } => {
                out.push(TAG_OWNERSHIP);
                put_u64(&mut out, *root);
                out.push(u8::from(*acquired));
            }
            MdsRecord::GlRecut {
                version,
                promoted,
                demoted,
            } => {
                out.push(TAG_GL_RECUT);
                put_u64(&mut out, *version);
                put_u64(&mut out, *promoted);
                put_u64(&mut out, *demoted);
            }
            MdsRecord::Popularity { root, bits } => {
                out.push(TAG_POPULARITY);
                put_u64(&mut out, *root);
                put_u64(&mut out, *bits);
            }
        }
        out
    }

    /// Deserialises a record, failing loudly on unknown tags, short
    /// buffers or trailing garbage — a CRC-valid frame that does not
    /// decode is corruption, never silently skipped.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on any malformation.
    pub fn decode(buf: &[u8]) -> StoreResult<Self> {
        let mut c = Cursor::new(buf);
        let record = match c.u8()? {
            TAG_ATTR => MdsRecord::AttrCommit {
                node: c.u64()?,
                gl: c.u8()? != 0,
                attr: get_attr(&mut c)?,
            },
            TAG_OWNERSHIP => MdsRecord::Ownership {
                root: c.u64()?,
                acquired: c.u8()? != 0,
            },
            TAG_GL_RECUT => MdsRecord::GlRecut {
                version: c.u64()?,
                promoted: c.u64()?,
                demoted: c.u64()?,
            },
            TAG_POPULARITY => MdsRecord::Popularity {
                root: c.u64()?,
                bits: c.u64()?,
            },
            tag => {
                return Err(StoreError::corrupt(format!("unknown record tag {tag}")));
            }
        };
        if c.remaining() != 0 {
            return Err(StoreError::corrupt(format!(
                "{} trailing bytes after record",
                c.remaining()
            )));
        }
        Ok(record)
    }

    /// Short label used by `inspect` and the event journal.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            MdsRecord::AttrCommit { .. } => "attr_commit",
            MdsRecord::Ownership { .. } => "ownership",
            MdsRecord::GlRecut { .. } => "gl_recut",
            MdsRecord::Popularity { .. } => "popularity",
        }
    }
}

/// The durable state of one MDS: what a snapshot captures and what
/// recovery rebuilds by replaying snapshot + WAL tail.
///
/// `PartialEq` is derived so chaos tests can assert recovered state is
/// *bit-identical* to the journaled pre-crash state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MdsState {
    /// The GL replica version: highest global-layer commit or recut
    /// generation this MDS has applied.
    pub gl_version: u64,
    /// Local-layer subtree roots currently owned.
    pub owned: BTreeSet<u64>,
    /// Versioned attributes, sparse (only nodes ever mutated).
    pub attrs: BTreeMap<u64, AttrState>,
    /// Decayed access counters (`f64::to_bits`), sparse.
    pub popularity: BTreeMap<u64, u64>,
}

impl MdsState {
    /// Replays one record into the state. Deterministic and idempotent
    /// for version-gated records, so replaying a longer log prefix
    /// always dominates a shorter one.
    pub fn apply(&mut self, record: &MdsRecord) {
        match record {
            MdsRecord::AttrCommit { node, gl, attr } => {
                let slot = self.attrs.entry(*node).or_default();
                if attr.version > slot.version {
                    *slot = *attr;
                }
                if *gl {
                    self.gl_version = self.gl_version.max(attr.version);
                }
            }
            MdsRecord::Ownership { root, acquired } => {
                if *acquired {
                    self.owned.insert(*root);
                } else {
                    self.owned.remove(root);
                }
            }
            MdsRecord::GlRecut { version, .. } => {
                self.gl_version = self.gl_version.max(*version);
            }
            MdsRecord::Popularity { root, bits } => {
                self.popularity.insert(*root, *bits);
            }
        }
    }

    /// Serialises the state for a snapshot body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            16 + self.owned.len() * 8 + self.attrs.len() * 42 + self.popularity.len() * 16,
        );
        put_u64(&mut out, self.gl_version);
        put_u32(&mut out, self.owned.len() as u32);
        for &root in &self.owned {
            put_u64(&mut out, root);
        }
        put_u32(&mut out, self.attrs.len() as u32);
        for (&node, attr) in &self.attrs {
            put_u64(&mut out, node);
            put_attr(&mut out, attr);
        }
        put_u32(&mut out, self.popularity.len() as u32);
        for (&root, &bits) in &self.popularity {
            put_u64(&mut out, root);
            put_u64(&mut out, bits);
        }
        out
    }

    /// Deserialises a snapshot body.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on truncation or trailing garbage.
    pub fn decode(buf: &[u8]) -> StoreResult<Self> {
        let mut c = Cursor::new(buf);
        let gl_version = c.u64()?;
        let mut owned = BTreeSet::new();
        for _ in 0..c.u32()? {
            owned.insert(c.u64()?);
        }
        let mut attrs = BTreeMap::new();
        for _ in 0..c.u32()? {
            let node = c.u64()?;
            attrs.insert(node, get_attr(&mut c)?);
        }
        let mut popularity = BTreeMap::new();
        for _ in 0..c.u32()? {
            let root = c.u64()?;
            popularity.insert(root, c.u64()?);
        }
        if c.remaining() != 0 {
            return Err(StoreError::corrupt(format!(
                "{} trailing bytes after snapshot state",
                c.remaining()
            )));
        }
        Ok(MdsState {
            gl_version,
            owned,
            attrs,
            popularity,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<MdsRecord> {
        vec![
            MdsRecord::Ownership {
                root: 17,
                acquired: true,
            },
            MdsRecord::AttrCommit {
                node: 3,
                gl: true,
                attr: AttrState {
                    version: 5,
                    mode: 0o755,
                    uid: 1000,
                    gid: 100,
                    size: 4096,
                    mtime: 1_700_000_000,
                },
            },
            MdsRecord::GlRecut {
                version: 9,
                promoted: 2,
                demoted: 1,
            },
            MdsRecord::Popularity {
                root: 17,
                bits: 3.5f64.to_bits(),
            },
            MdsRecord::Ownership {
                root: 17,
                acquired: false,
            },
        ]
    }

    #[test]
    fn records_round_trip() {
        for r in sample_records() {
            let bytes = r.encode();
            assert_eq!(MdsRecord::decode(&bytes).unwrap(), r, "{}", r.label());
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(MdsRecord::decode(&[]).is_err());
        assert!(MdsRecord::decode(&[99, 0, 0]).is_err(), "unknown tag");
        // The retired tag 5, with the body it once carried.
        let mut retired = vec![5];
        retired.extend_from_slice(&[0; 41]);
        assert!(MdsRecord::decode(&retired).is_err(), "retired tag 5");
        let mut ok = MdsRecord::Ownership {
            root: 1,
            acquired: true,
        }
        .encode();
        ok.push(0); // trailing byte
        assert!(MdsRecord::decode(&ok).is_err(), "trailing bytes");
        assert!(MdsRecord::decode(&ok[..ok.len() - 2]).is_err(), "truncated");
    }

    #[test]
    fn state_replay_is_order_sensitive_and_version_gated() {
        let mut s = MdsState::default();
        for r in sample_records() {
            s.apply(&r);
        }
        assert!(s.owned.is_empty(), "acquired then shed");
        assert_eq!(s.attrs.get(&3).unwrap().version, 5);
        assert_eq!(s.gl_version, 9, "recut generation dominates");
        assert_eq!(s.popularity.get(&17), Some(&3.5f64.to_bits()));

        // An older attr commit never overwrites a newer one.
        s.apply(&MdsRecord::AttrCommit {
            node: 3,
            gl: false,
            attr: AttrState {
                version: 2,
                size: 1,
                ..AttrState::default()
            },
        });
        assert_eq!(s.attrs.get(&3).unwrap().size, 4096);
    }

    #[test]
    fn state_round_trips_through_snapshot_encoding() {
        let mut s = MdsState::default();
        for r in sample_records() {
            s.apply(&r);
        }
        s.apply(&MdsRecord::Ownership {
            root: 40,
            acquired: true,
        });
        let bytes = s.encode();
        assert_eq!(MdsState::decode(&bytes).unwrap(), s);
        // Truncation and trailing garbage fail loudly.
        assert!(MdsState::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut extra = bytes;
        extra.push(7);
        assert!(MdsState::decode(&extra).is_err());
    }
}
