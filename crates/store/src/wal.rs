//! The segmented write-ahead log.
//!
//! ## On-disk layout
//!
//! A log directory holds segment files named `wal-{first_lsn:016x}.log`
//! where `first_lsn` is the LSN of the segment's first frame. Each
//! segment starts with an 8-byte magic, then a sequence of frames:
//!
//! ```text
//! +----------------+----------------+------------------------------+
//! | len: u32 BE    | crc: u32 BE    | payload (len bytes)          |
//! +----------------+----------------+------------------------------+
//!                                    payload = lsn: u64 BE ++ record
//! ```
//!
//! `crc` is CRC-32/IEEE over the payload. LSNs are assigned densely
//! (one per record, starting at 0), and a segment's frames must carry
//! consecutive LSNs starting at its `first_lsn` — a CRC-valid frame
//! with the wrong LSN is corruption. Code outside this module reads
//! the layout through [`list_segments`], [`SEGMENT_MAGIC`] and
//! [`FRAME_HEADER`], never by hand.
//!
//! ## Group commit
//!
//! [`WalWriter::append`] only buffers the encoded frame in memory;
//! nothing reaches the file until [`WalWriter::sync`], which writes the
//! buffer, fsyncs, and rotates segments. The writer's owner commits
//! explicitly — for an MDS that is `MdsStore::sync`, the one fsync
//! point — and nothing syncs on a timer or a buffer size. A crash
//! between appends and the next sync loses exactly the unsynced suffix,
//! which is what [`WalWriter::simulate_crash`] models for chaos tests,
//! including a *torn* write of a prefix of the buffer.
//!
//! ## Recovery
//!
//! [`scan_log`] is the one recovery scan, behind the MDS store's open,
//! verify and inspect and behind a consensus replica's restart. It
//! walks a directory's segments in LSN order and refuses any log that
//! breaks continuity: the first segment must start at or below the
//! replay start, each segment must start where the previous one ended,
//! and only the last segment may end in a torn tail.

use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::crc::crc32;
use crate::record::{Cursor, MdsRecord};
use crate::{StoreError, StoreResult};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"D2WAL001";

/// Bytes of frame header preceding the payload (`len` + `crc`).
pub const FRAME_HEADER: usize = 8;

/// Upper bound on a frame payload; anything larger is malformed.
const MAX_PAYLOAD: u32 = 1 << 20;

/// File name of the segment whose first frame has LSN `first_lsn`.
fn segment_file_name(first_lsn: u64) -> String {
    format!("wal-{first_lsn:016x}.log")
}

/// Parses a segment file name back into its `first_lsn`.
fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Encodes one frame (`len` + `crc` + payload) for LSN `lsn`.
fn encode_frame(lsn: u64, record: &MdsRecord) -> Vec<u8> {
    let body = record.encode();
    let mut payload = Vec::with_capacity(8 + body.len());
    payload.extend_from_slice(&lsn.to_be_bytes());
    payload.extend_from_slice(&body);
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&crc32(&payload).to_be_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// A decoded frame: the record plus its log sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Log sequence number (dense, starting at 0).
    pub lsn: u64,
    /// The journaled record.
    pub record: MdsRecord,
}

/// Result of scanning one segment file.
#[derive(Debug)]
struct SegmentScan {
    /// Frames in the valid prefix, in LSN order.
    frames: Vec<Frame>,
    /// Byte length of the valid prefix (magic + whole frames).
    valid_len: u64,
    /// Bytes beyond the valid prefix (non-zero only for a torn tail
    /// in the last segment).
    torn_bytes: u64,
}

/// Why a frame failed to parse at some offset — used to decide between
/// "torn tail" and "corruption".
enum FrameIssue {
    /// Frame could not be parsed (short, bad length, CRC mismatch).
    Bad(String),
    /// Frame parsed and CRC-checked but its contents are invalid;
    /// this can never be produced by a torn write, so it is always
    /// corruption.
    Poisoned(StoreError),
}

/// Attempts to parse one frame at `pos`. `Ok(None)` means a clean end
/// of data at `pos`.
fn parse_frame_at(
    data: &[u8],
    pos: usize,
    expect_lsn: u64,
) -> Result<Option<(Frame, usize)>, FrameIssue> {
    let rest = &data[pos..];
    if rest.is_empty() {
        return Ok(None);
    }
    if rest.len() < FRAME_HEADER {
        return Err(FrameIssue::Bad(format!(
            "{} stray bytes, too short for a frame header",
            rest.len()
        )));
    }
    let mut c = Cursor::new(rest);
    let len = c.u32().expect("header length checked") as usize;
    let crc = c.u32().expect("header length checked");
    if len < 9 || len > MAX_PAYLOAD as usize {
        return Err(FrameIssue::Bad(format!("implausible frame length {len}")));
    }
    if rest.len() < FRAME_HEADER + len {
        return Err(FrameIssue::Bad(format!(
            "frame wants {len} payload bytes, only {} present",
            rest.len() - FRAME_HEADER
        )));
    }
    let payload = &rest[FRAME_HEADER..FRAME_HEADER + len];
    if crc32(payload) != crc {
        return Err(FrameIssue::Bad("payload CRC mismatch".to_string()));
    }
    // From here on the frame is CRC-valid: any problem is corruption,
    // not tearing.
    let lsn = u64::from_be_bytes(payload[..8].try_into().expect("9-byte minimum"));
    if lsn != expect_lsn {
        return Err(FrameIssue::Poisoned(StoreError::corrupt(format!(
            "frame at byte {pos} has lsn {lsn}, expected {expect_lsn}"
        ))));
    }
    let record = MdsRecord::decode(&payload[8..]).map_err(FrameIssue::Poisoned)?;
    Ok(Some((Frame { lsn, record }, FRAME_HEADER + len)))
}

/// True if any byte offset in `data[from..]` starts a CRC-valid frame.
/// Used after a bad frame: a valid frame *after* garbage proves the
/// garbage is mid-log corruption rather than a torn tail.
fn any_valid_frame_after(data: &[u8], from: usize) -> bool {
    let mut off = from;
    while off + FRAME_HEADER + 9 <= data.len() {
        let len =
            u32::from_be_bytes(data[off..off + 4].try_into().expect("bounds checked")) as usize;
        if (9..=MAX_PAYLOAD as usize).contains(&len) && off + FRAME_HEADER + len <= data.len() {
            let crc =
                u32::from_be_bytes(data[off + 4..off + 8].try_into().expect("bounds checked"));
            if crc32(&data[off + FRAME_HEADER..off + FRAME_HEADER + len]) == crc {
                return true;
            }
        }
        off += 1;
    }
    false
}

/// Scans one segment file.
///
/// `is_last` selects the tail policy: in the last segment a trailing
/// unparsable region with no valid frame after it is reported as a
/// torn tail ([`SegmentScan::torn_bytes`]); anywhere else, or when a
/// valid frame follows the bad bytes, the scan fails with
/// [`StoreError::Corrupt`].
fn scan_segment(path: &Path, first_lsn: u64, is_last: bool) -> StoreResult<SegmentScan> {
    let data = fs::read(path)?;
    let name = path.display();
    if data.len() < SEGMENT_MAGIC.len() || &data[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        if is_last && !any_valid_frame_after(&data, 0) {
            // The magic itself was torn; nothing in this segment was
            // ever durable.
            return Ok(SegmentScan {
                frames: Vec::new(),
                valid_len: 0,
                torn_bytes: data.len() as u64,
            });
        }
        return Err(StoreError::corrupt(format!("{name}: bad segment magic")));
    }
    let mut frames = Vec::new();
    let mut pos = SEGMENT_MAGIC.len();
    let mut next_lsn = first_lsn;
    loop {
        match parse_frame_at(&data, pos, next_lsn) {
            Ok(None) => {
                return Ok(SegmentScan {
                    frames,
                    valid_len: pos as u64,
                    torn_bytes: 0,
                });
            }
            Ok(Some((frame, consumed))) => {
                frames.push(frame);
                pos += consumed;
                next_lsn += 1;
            }
            Err(FrameIssue::Poisoned(e)) => return Err(e),
            Err(FrameIssue::Bad(why)) => {
                if is_last && !any_valid_frame_after(&data, pos + 1) {
                    return Ok(SegmentScan {
                        frames,
                        valid_len: pos as u64,
                        torn_bytes: (data.len() - pos) as u64,
                    });
                }
                return Err(StoreError::corrupt(format!(
                    "{name}: bad frame at byte {pos} ({why}) with valid data after it"
                )));
            }
        }
    }
}

/// Lists segment files in a directory, sorted by `first_lsn`.
///
/// # Errors
///
/// [`StoreError::Io`] if the directory cannot be read.
pub fn list_segments(dir: &Path) -> StoreResult<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(first_lsn) = entry.file_name().to_str().and_then(parse_segment_name) {
            out.push((first_lsn, entry.path()));
        }
    }
    out.sort_by_key(|&(lsn, _)| lsn);
    Ok(out)
}

/// One WAL segment as [`scan_log`] found it.
#[derive(Debug, Clone)]
pub struct SegmentInfo {
    /// LSN of the segment's first frame.
    pub first_lsn: u64,
    /// Valid frames in the segment.
    pub frames: u64,
    /// Bytes in the valid prefix (magic + whole frames).
    pub valid_bytes: u64,
}

/// What [`scan_log`] found in a log directory.
#[derive(Debug, Clone)]
pub struct LogScan {
    /// Every segment, in LSN order.
    pub segments: Vec<SegmentInfo>,
    /// Frames handed to the visitor: those at or past the replay start.
    pub replayed: u64,
    /// Bytes past the last segment's valid prefix (a torn tail).
    pub torn_bytes: u64,
    /// LSN the next append receives.
    pub next_lsn: u64,
}

impl LogScan {
    /// A writer appending where the scan ended, the torn tail (if any)
    /// truncated away.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on any filesystem failure.
    pub fn writer(&self, dir: &Path, segment_bytes: u64) -> StoreResult<WalWriter> {
        let last = self.segments.last().map(|s| (s.first_lsn, s.valid_bytes));
        WalWriter::open(dir, segment_bytes, last, self.next_lsn)
    }
}

/// The one recovery scan: walks the segments in `dir` in LSN order,
/// hands `visit` every frame at or past `replay_from` (the frames below
/// it are covered by a snapshot), and never writes.
///
/// # Errors
///
/// [`StoreError::Io`] on read failure. [`StoreError::Corrupt`] when the
/// first segment starts past `replay_from`, a segment does not start
/// where the previous one ended, a segment is damaged by more than a
/// torn tail of the last one, the log ends before `replay_from`, or
/// `visit` refuses a frame.
pub fn scan_log(
    dir: &Path,
    replay_from: u64,
    mut visit: impl FnMut(&Frame) -> StoreResult<()>,
) -> StoreResult<LogScan> {
    let paths = list_segments(dir)?;
    let mut scan = LogScan {
        segments: Vec::with_capacity(paths.len()),
        replayed: 0,
        torn_bytes: 0,
        next_lsn: replay_from,
    };
    for (i, (first_lsn, path)) in paths.iter().enumerate() {
        let first_lsn = *first_lsn;
        match scan.segments.last() {
            None if first_lsn > replay_from => {
                return Err(StoreError::corrupt(format!(
                    "WAL starts at lsn {first_lsn} but replay starts at lsn {replay_from}"
                )));
            }
            Some(prev) if prev.first_lsn + prev.frames != first_lsn => {
                return Err(StoreError::corrupt(format!(
                    "segment gap: previous segment ends at lsn {}, next starts at {first_lsn}",
                    prev.first_lsn + prev.frames
                )));
            }
            _ => {}
        }
        let is_last = i + 1 == paths.len();
        let seg = scan_segment(path, first_lsn, is_last)?;
        for frame in seg.frames.iter().filter(|f| f.lsn >= replay_from) {
            visit(frame)?;
            scan.replayed += 1;
        }
        if let Some(frame) = seg.frames.last() {
            scan.next_lsn = frame.lsn + 1;
        } else if is_last {
            // A fresh (or fully torn) last segment: appends resume at
            // its nominal first LSN.
            scan.next_lsn = scan.next_lsn.max(first_lsn);
        }
        scan.torn_bytes = seg.torn_bytes;
        scan.segments.push(SegmentInfo {
            first_lsn,
            frames: seg.frames.len() as u64,
            valid_bytes: seg.valid_len,
        });
    }
    if scan.next_lsn < replay_from {
        return Err(StoreError::corrupt(format!(
            "replay starts at lsn {replay_from} but the WAL ends at lsn {}",
            scan.next_lsn
        )));
    }
    Ok(scan)
}

fn sync_dir(dir: &Path) -> StoreResult<()> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Appender half of the WAL: buffers frames and makes them durable in
/// batches (group commit).
#[derive(Debug)]
pub struct WalWriter {
    dir: PathBuf,
    segment_bytes: u64,
    file: File,
    /// Durable bytes in the current segment (magic + synced frames).
    on_disk: u64,
    /// Encoded frames appended but not yet written+fsynced.
    pending: Vec<u8>,
    next_lsn: u64,
}

impl WalWriter {
    /// Opens a writer appending at `next_lsn`; outside this module a
    /// writer comes only from a recovery scan ([`LogScan::writer`]).
    ///
    /// When `last_segment` names an existing segment and its valid
    /// byte length, that file is truncated to the valid prefix (torn
    /// tails die here) and appended to; otherwise a fresh segment is
    /// created for `next_lsn`.
    fn open(
        dir: &Path,
        segment_bytes: u64,
        last_segment: Option<(u64, u64)>,
        next_lsn: u64,
    ) -> StoreResult<Self> {
        match last_segment {
            Some((first_lsn, valid_len)) if valid_len >= SEGMENT_MAGIC.len() as u64 => {
                let path = dir.join(segment_file_name(first_lsn));
                let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
                file.set_len(valid_len)?;
                file.sync_all()?;
                // Truncation leaves the cursor at 0; appends must land
                // after the valid prefix, not over the magic.
                file.seek(SeekFrom::Start(valid_len))?;
                let mut w = WalWriter {
                    dir: dir.to_path_buf(),
                    segment_bytes,
                    file,
                    on_disk: valid_len,
                    pending: Vec::new(),
                    next_lsn,
                };
                // Rotate straight away if the recovered segment is
                // already over the size target.
                if w.on_disk >= w.segment_bytes {
                    w.rotate()?;
                }
                Ok(w)
            }
            other => {
                // No usable segment (fresh dir, or the last segment's
                // magic itself was torn): start a clean one.
                if let Some((first_lsn, _)) = other {
                    let stale = dir.join(segment_file_name(first_lsn));
                    if stale.exists() && first_lsn != next_lsn {
                        fs::remove_file(&stale)?;
                    }
                }
                let file = Self::create_segment(dir, next_lsn)?;
                Ok(WalWriter {
                    dir: dir.to_path_buf(),
                    segment_bytes,
                    file,
                    on_disk: SEGMENT_MAGIC.len() as u64,
                    pending: Vec::new(),
                    next_lsn,
                })
            }
        }
    }

    /// Creates `wal-{first_lsn}.log`, writes and fsyncs the magic, and
    /// fsyncs the directory so the file itself survives a crash.
    fn create_segment(dir: &Path, first_lsn: u64) -> StoreResult<File> {
        let path = dir.join(segment_file_name(first_lsn));
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(SEGMENT_MAGIC)?;
        file.sync_all()?;
        sync_dir(dir)?;
        Ok(file)
    }

    fn rotate(&mut self) -> StoreResult<()> {
        self.file = Self::create_segment(&self.dir, self.next_lsn)?;
        self.on_disk = SEGMENT_MAGIC.len() as u64;
        Ok(())
    }

    /// Buffers one record for the next group commit. Returns its LSN
    /// and the encoded frame size in bytes.
    pub fn append(&mut self, record: &MdsRecord) -> (u64, usize) {
        let lsn = self.next_lsn;
        let frame = encode_frame(lsn, record);
        let bytes = frame.len();
        self.pending.extend_from_slice(&frame);
        self.next_lsn += 1;
        (lsn, bytes)
    }

    /// Bytes buffered and not yet durable.
    #[must_use]
    pub fn pending_bytes(&self) -> usize {
        self.pending.len()
    }

    /// LSN the next append will receive.
    #[must_use]
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Group commit: writes the buffered frames, fsyncs, and rotates
    /// to a new segment if the current one is over the size target.
    /// Returns the number of bytes made durable.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write/fsync failure.
    pub fn sync(&mut self) -> StoreResult<u64> {
        if self.pending.is_empty() {
            return Ok(0);
        }
        let bytes = self.pending.len() as u64;
        self.file.write_all(&self.pending)?;
        self.file.sync_all()?;
        self.pending.clear();
        self.on_disk += bytes;
        if self.on_disk >= self.segment_bytes {
            self.rotate()?;
        }
        Ok(bytes)
    }

    /// Crash model for chaos tests: of the unsynced buffer, only the
    /// first `keep` bytes reach the file (a torn write); the rest are
    /// lost, and the writer is consumed. `keep = 0` models losing the
    /// whole group-commit buffer; a mid-frame `keep` models a torn
    /// final record.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the torn prefix cannot be written.
    pub fn simulate_crash(mut self, keep: usize) -> StoreResult<()> {
        let keep = keep.min(self.pending.len());
        self.file.write_all(&self.pending[..keep])?;
        // Deliberately no fsync: the bytes are in the file image the
        // next open will read, exactly like a torn page after a real
        // crash.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::AttrState;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "d2tree-wal-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn rec(i: u64) -> MdsRecord {
        MdsRecord::AttrCommit {
            node: i,
            gl: i.is_multiple_of(2),
            attr: AttrState {
                version: i + 1,
                size: i * 10,
                ..AttrState::default()
            },
        }
    }

    fn scan_all(dir: &Path) -> StoreResult<Vec<Frame>> {
        let mut frames = Vec::new();
        scan_log(dir, 0, |f| {
            frames.push(f.clone());
            Ok(())
        })?;
        Ok(frames)
    }

    #[test]
    fn segment_names_round_trip() {
        assert_eq!(
            parse_segment_name(&segment_file_name(0xdead_beef)),
            Some(0xdead_beef)
        );
        assert_eq!(parse_segment_name("wal-zz.log"), None);
        assert_eq!(parse_segment_name("snap-0000000000000000.snap"), None);
    }

    #[test]
    fn append_sync_scan_round_trips_across_rotation() {
        let dir = tmp_dir("rotate");
        // Tiny segments force several rotations.
        let mut w = WalWriter::open(&dir, 128, None, 0).unwrap();
        for i in 0..40 {
            w.append(&rec(i));
            if i % 5 == 4 {
                w.sync().unwrap();
            }
        }
        w.sync().unwrap();
        assert!(list_segments(&dir).unwrap().len() > 1, "rotation happened");
        let frames = scan_all(&dir).unwrap();
        assert_eq!(frames.len(), 40);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.lsn, i as u64);
            assert_eq!(f.record, rec(i as u64));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsynced_appends_are_lost_and_torn_tail_is_truncated() {
        let dir = tmp_dir("torn");
        let mut w = WalWriter::open(&dir, 1 << 16, None, 0).unwrap();
        for i in 0..3 {
            w.append(&rec(i));
        }
        w.sync().unwrap();
        for i in 3..6 {
            w.append(&rec(i));
        }
        // Crash with 10 bytes of the unsynced frames torn into the file.
        w.simulate_crash(10).unwrap();

        let segs = list_segments(&dir).unwrap();
        let (first, path) = &segs[0];
        let scan = scan_segment(path, *first, true).unwrap();
        assert_eq!(scan.frames.len(), 3, "exact synced prefix");
        assert_eq!(scan.torn_bytes, 10);

        // Reopen for append after truncation, write more, and verify
        // the log is the synced prefix plus the new records.
        let mut w = WalWriter::open(&dir, 1 << 16, Some((*first, scan.valid_len)), 3).unwrap();
        w.append(&rec(3));
        w.sync().unwrap();
        let frames = scan_all(&dir).unwrap();
        assert_eq!(frames.len(), 4);
        assert_eq!(frames[3].record, rec(3));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_log_bit_flip_is_corruption_not_truncation() {
        let dir = tmp_dir("flip");
        let mut w = WalWriter::open(&dir, 1 << 16, None, 0).unwrap();
        for i in 0..4 {
            w.append(&rec(i));
            w.sync().unwrap();
        }
        let (first, path) = list_segments(&dir).unwrap().remove(0);
        let mut data = fs::read(&path).unwrap();
        // Flip one bit inside the *first* frame's payload.
        let off = SEGMENT_MAGIC.len() + FRAME_HEADER + 4;
        data[off] ^= 0x40;
        fs::write(&path, &data).unwrap();
        let err = scan_segment(&path, first, true).unwrap_err();
        assert!(err.is_corrupt(), "later valid frames forbid truncation");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_lsn_in_valid_frame_is_corruption() {
        let dir = tmp_dir("lsn");
        let mut w = WalWriter::open(&dir, 1 << 16, None, 0).unwrap();
        w.append(&rec(0));
        w.sync().unwrap();
        let (_, path) = list_segments(&dir).unwrap().remove(0);
        // Scanning with the wrong expected first LSN must fail loudly.
        let err = scan_segment(&path, 7, true).unwrap_err();
        assert!(err.is_corrupt());
        fs::remove_dir_all(&dir).unwrap();
    }
}
