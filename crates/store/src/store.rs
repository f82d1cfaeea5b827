//! [`MdsStore`]: the durable state machine one MDS owns — WAL +
//! snapshots + recovery. Its writer decides when records are durable:
//! [`MdsStore::sync`] is the only fsync.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use d2tree_telemetry::trace::{span_names, ArgKey, Span, Tracer};
use d2tree_telemetry::{names, Counter, Histogram, MetricKey, Registry};

use crate::record::{MdsRecord, MdsState};
use crate::snapshot::{list_snapshots, read_snapshot, remove_stale_tmp, write_snapshot};
use crate::wal::{list_segments, scan_log, LogScan, SegmentInfo, WalWriter};
#[cfg(doc)]
use crate::StoreError;
use crate::StoreResult;

/// Tuning knobs for one MDS store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Rotate to a new WAL segment once the current one reaches this
    /// many bytes.
    pub segment_bytes: u64,
    /// Take a snapshot (and prune covered segments) every this many
    /// appended records.
    pub snapshot_every: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            segment_bytes: 64 * 1024,
            snapshot_every: 1024,
        }
    }
}

impl StoreConfig {
    /// A configuration that never snapshots on its own, so every fsync
    /// is an explicit [`MdsStore::sync`] call. Chaos tests use this so
    /// the durability boundary is deterministic.
    #[must_use]
    pub fn manual() -> Self {
        StoreConfig {
            snapshot_every: u64::MAX,
            ..StoreConfig::default()
        }
    }
}

/// What recovery found and did while opening a store.
#[derive(Debug, Clone)]
pub struct RecoveryInfo {
    /// LSN covered by the snapshot recovery started from (0 = none).
    pub snapshot_lsn: u64,
    /// WAL records replayed on top of the snapshot.
    pub records_replayed: u64,
    /// Bytes truncated from a torn tail (0 on a clean open).
    pub torn_bytes: u64,
    /// WAL segment files present at open.
    pub segments: usize,
    /// LSN the next append will receive.
    pub next_lsn: u64,
    /// Wall-clock time recovery took.
    pub duration: Duration,
}

/// Everything a full read-only scan of a store directory learns.
struct ScanOutcome {
    state: MdsState,
    snapshot_lsn: u64,
    log: LogScan,
    record_counts: BTreeMap<&'static str, u64>,
}

/// Replays a store directory without mutating it: the newest snapshot,
/// then the WAL past it through [`scan_log`].
fn scan_store(dir: &Path) -> StoreResult<ScanOutcome> {
    let (snapshot_lsn, mut state) = match list_snapshots(dir)?.last() {
        Some((lsn, path)) => (*lsn, read_snapshot(path, *lsn)?),
        None => (0, MdsState::default()),
    };
    let mut record_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let log = scan_log(dir, snapshot_lsn, |frame| {
        state.apply(&frame.record);
        *record_counts.entry(frame.record.label()).or_insert(0) += 1;
        Ok(())
    })?;
    Ok(ScanOutcome {
        state,
        snapshot_lsn,
        log,
        record_counts,
    })
}

/// Cached metric handles; present only when a registry is attached.
struct StoreTelemetry {
    append_us: Arc<Histogram>,
    fsync_us: Arc<Histogram>,
    bytes_total: Arc<Counter>,
    records_total: Arc<Counter>,
    snapshots_total: Arc<Counter>,
}

/// The durable state of one MDS: a replayed [`MdsState`] kept in
/// lock-step with a write-ahead log and periodic snapshots.
pub struct MdsStore {
    dir: PathBuf,
    snapshot_every: u64,
    state: MdsState,
    wal: WalWriter,
    records_since_snapshot: u64,
    telemetry: Option<StoreTelemetry>,
    /// Tracer plus the owning MDS id for span attribution; `None` keeps
    /// the WAL hot path span-free.
    tracer: Option<(Arc<Tracer>, u16)>,
}

impl std::fmt::Debug for MdsStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MdsStore")
            .field("dir", &self.dir)
            .field("next_lsn", &self.wal.next_lsn())
            .field("pending_bytes", &self.wal.pending_bytes())
            .finish_non_exhaustive()
    }
}

impl MdsStore {
    /// Opens (creating if absent) the store in `dir`, recovering
    /// snapshot + WAL tail and truncating a torn final record.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure; [`StoreError::Corrupt`]
    /// if the log is damaged anywhere but a torn tail.
    pub fn open(dir: impl AsRef<Path>, config: StoreConfig) -> StoreResult<(Self, RecoveryInfo)> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let t0 = Instant::now();
        remove_stale_tmp(dir)?;
        let ScanOutcome {
            state,
            snapshot_lsn,
            log,
            ..
        } = scan_store(dir)?;
        let wal = log.writer(dir, config.segment_bytes)?;
        let info = RecoveryInfo {
            snapshot_lsn,
            records_replayed: log.replayed,
            torn_bytes: log.torn_bytes,
            segments: log.segments.len(),
            next_lsn: log.next_lsn,
            duration: t0.elapsed(),
        };
        let store = MdsStore {
            dir: dir.to_path_buf(),
            snapshot_every: config.snapshot_every,
            state,
            wal,
            records_since_snapshot: 0,
            telemetry: None,
            tracer: None,
        };
        Ok((store, info))
    }

    /// Attaches a metric registry; WAL and snapshot activity is then
    /// recorded under this MDS's per-id keys.
    #[must_use]
    pub fn with_registry(mut self, registry: &Arc<Registry>, mds: u16) -> Self {
        self.telemetry = Some(StoreTelemetry {
            append_us: registry.histogram(MetricKey::mds(names::WAL_APPEND_US, mds)),
            fsync_us: registry.histogram(MetricKey::mds(names::WAL_FSYNC_US, mds)),
            bytes_total: registry.counter(MetricKey::mds(names::WAL_BYTES_TOTAL, mds)),
            records_total: registry.counter(MetricKey::mds(names::WAL_RECORDS_TOTAL, mds)),
            snapshots_total: registry.counter(MetricKey::mds(names::SNAPSHOTS_TOTAL, mds)),
        });
        self
    }

    /// Attaches a tracer; sampled WAL appends and fsyncs then record
    /// `wal_append` / `wal_fsync` spans attributed to this MDS.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Arc<Tracer>, mds: u16) -> Self {
        self.tracer = Some((tracer, mds));
        self
    }

    /// Journals one record and applies it to the in-memory state. The
    /// record is only buffered: it becomes durable at the writer's next
    /// [`sync`](Self::sync) (one group-committed fsync for everything
    /// buffered), which the caller must issue before acknowledging. The
    /// snapshot trigger still fires here (a snapshot syncs first).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if a triggered snapshot fails.
    pub fn append_deferred(&mut self, record: MdsRecord) -> StoreResult<()> {
        let t0 = Instant::now();
        let (_, bytes) = self.wal.append(&record);
        self.state.apply(&record);
        self.records_since_snapshot += 1;
        if let Some(t) = &self.telemetry {
            t.append_us.record(t0.elapsed().as_micros() as u64);
            t.bytes_total.add(bytes as u64);
            t.records_total.inc();
        }
        if let Some((tr, mds)) = &self.tracer {
            if let Some(ctx) = tr.begin() {
                let dur = t0.elapsed().as_micros() as u64;
                let end = tr.now_us();
                tr.record(
                    Span::root(ctx, span_names::WAL_APPEND, end.saturating_sub(dur), dur)
                        .on_mds(*mds)
                        .with_arg(ArgKey::Bytes, bytes as u64),
                );
            }
        }
        if self.records_since_snapshot >= self.snapshot_every {
            self.snapshot()?;
        }
        Ok(())
    }

    /// Group commit, and the store's only WAL fsync: makes every
    /// buffered append durable at once.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write or fsync failure.
    pub fn sync(&mut self) -> StoreResult<()> {
        let t0 = Instant::now();
        let bytes = self.wal.sync()?;
        if bytes > 0 {
            if let Some(t) = &self.telemetry {
                t.fsync_us.record(t0.elapsed().as_micros() as u64);
            }
            if let Some((tr, mds)) = &self.tracer {
                if let Some(ctx) = tr.begin() {
                    let dur = t0.elapsed().as_micros() as u64;
                    let end = tr.now_us();
                    tr.record(
                        Span::root(ctx, span_names::WAL_FSYNC, end.saturating_sub(dur), dur)
                            .on_mds(*mds)
                            .with_arg(ArgKey::Bytes, bytes),
                    );
                }
            }
        }
        Ok(())
    }

    /// Syncs, writes a snapshot of the current state, prunes WAL
    /// segments and older snapshots the new snapshot covers.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on any filesystem failure.
    pub fn snapshot(&mut self) -> StoreResult<()> {
        self.sync()?;
        let lsn = self.wal.next_lsn();
        write_snapshot(&self.dir, lsn, &self.state)?;
        self.records_since_snapshot = 0;
        if let Some(t) = &self.telemetry {
            t.snapshots_total.inc();
        }
        // Drop snapshots older than the one just written.
        for (old_lsn, path) in list_snapshots(&self.dir)? {
            if old_lsn < lsn {
                fs::remove_file(path)?;
            }
        }
        // Drop segments fully covered by the snapshot: a segment is
        // removable when the *next* segment starts at or below the
        // snapshot LSN (so every frame in it is below too). The live
        // tail segment has no successor and is never removed.
        let segments = list_segments(&self.dir)?;
        for pair in segments.windows(2) {
            if pair[1].0 <= lsn {
                fs::remove_file(&pair[0].1)?;
            }
        }
        Ok(())
    }

    /// The replayed, up-to-date state (includes unsynced appends).
    #[must_use]
    pub fn state(&self) -> &MdsState {
        &self.state
    }

    /// LSN the next append will receive.
    #[must_use]
    pub fn next_lsn(&self) -> u64 {
        self.wal.next_lsn()
    }

    /// Bytes appended but not yet durable.
    #[must_use]
    pub fn pending_bytes(&self) -> usize {
        self.wal.pending_bytes()
    }

    /// The store's directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Crash model for chaos tests: consumes the store, tearing only
    /// the first `keep` bytes of the unsynced buffer into the file.
    /// See [`WalWriter::simulate_crash`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the torn prefix cannot be written.
    pub fn simulate_crash(self, keep: usize) -> StoreResult<()> {
        self.wal.simulate_crash(keep)
    }
}

/// Report from [`verify`]: what a recovery of this directory would do.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// LSN covered by the newest snapshot (0 = none).
    pub snapshot_lsn: u64,
    /// WAL records a recovery would replay on top of the snapshot.
    pub records: u64,
    /// Trailing bytes a recovery would truncate as a torn tail.
    pub torn_bytes: u64,
    /// WAL segment files present.
    pub segments: usize,
    /// LSN the next append would receive.
    pub next_lsn: u64,
}

/// Read-only integrity check of a store directory: replays exactly
/// like recovery would, but never truncates or writes.
///
/// # Errors
///
/// [`StoreError::Corrupt`] if the directory would not recover cleanly
/// (anything worse than a torn tail); [`StoreError::Io`] on read
/// failure.
pub fn verify(dir: impl AsRef<Path>) -> StoreResult<VerifyReport> {
    let ScanOutcome {
        snapshot_lsn, log, ..
    } = scan_store(dir.as_ref())?;
    Ok(VerifyReport {
        snapshot_lsn,
        records: log.replayed,
        torn_bytes: log.torn_bytes,
        segments: log.segments.len(),
        next_lsn: log.next_lsn,
    })
}

/// Report from [`inspect`]: layout plus replayed-state summary.
#[derive(Debug, Clone)]
pub struct InspectReport {
    /// LSN covered by the newest snapshot (0 = none).
    pub snapshot_lsn: u64,
    /// LSN the next append would receive.
    pub next_lsn: u64,
    /// Trailing torn bytes in the last segment.
    pub torn_bytes: u64,
    /// Per-segment layout, in LSN order.
    pub segments: Vec<SegmentInfo>,
    /// Replayed record counts by type label.
    pub record_counts: Vec<(String, u64)>,
    /// GL replica version of the replayed state.
    pub gl_version: u64,
    /// Owned subtree roots in the replayed state.
    pub owned: usize,
    /// Attribute entries in the replayed state.
    pub attrs: usize,
    /// Popularity counters in the replayed state.
    pub popularity: usize,
}

/// Read-only layout and content summary of a store directory.
///
/// # Errors
///
/// Same failure modes as [`verify`].
pub fn inspect(dir: impl AsRef<Path>) -> StoreResult<InspectReport> {
    let outcome = scan_store(dir.as_ref())?;
    Ok(InspectReport {
        snapshot_lsn: outcome.snapshot_lsn,
        next_lsn: outcome.log.next_lsn,
        torn_bytes: outcome.log.torn_bytes,
        segments: outcome.log.segments,
        record_counts: outcome
            .record_counts
            .iter()
            .map(|(k, v)| ((*k).to_string(), *v))
            .collect(),
        gl_version: outcome.state.gl_version,
        owned: outcome.state.owned.len(),
        attrs: outcome.state.attrs.len(),
        popularity: outcome.state.popularity.len(),
    })
}

/// Recovers the store, snapshots its current state, and prunes every
/// covered WAL segment and older snapshot. Returns the covering
/// snapshot LSN and how many segment files were removed.
///
/// # Errors
///
/// Same failure modes as [`MdsStore::open`] plus snapshot I/O.
pub fn compact(dir: impl AsRef<Path>, config: StoreConfig) -> StoreResult<(u64, usize)> {
    let dir = dir.as_ref();
    let before = list_segments(dir)?.len();
    let (mut store, _) = MdsStore::open(dir, config)?;
    store.snapshot()?;
    let lsn = store.next_lsn();
    drop(store);
    let after = list_segments(dir)?.len();
    Ok((lsn, before.saturating_sub(after)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::AttrState;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "d2tree-store-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn rec(i: u64) -> MdsRecord {
        match i % 4 {
            0 => MdsRecord::Ownership {
                root: i / 4,
                acquired: true,
            },
            1 => MdsRecord::AttrCommit {
                node: i,
                gl: i % 8 == 1,
                attr: AttrState {
                    version: i,
                    size: i * 3,
                    ..AttrState::default()
                },
            },
            2 => MdsRecord::Popularity {
                root: i / 4,
                bits: (i as f64 * 0.5).to_bits(),
            },
            _ => MdsRecord::GlRecut {
                version: i,
                promoted: 1,
                demoted: 0,
            },
        }
    }

    #[test]
    fn reopen_recovers_synced_state_exactly() {
        let dir = tmp_dir("reopen");
        let (mut store, info) = MdsStore::open(&dir, StoreConfig::manual()).unwrap();
        assert_eq!(info.next_lsn, 0);
        for i in 0..50 {
            store.append_deferred(rec(i)).unwrap();
        }
        store.sync().unwrap();
        let expect = store.state().clone();
        drop(store);

        let (store, info) = MdsStore::open(&dir, StoreConfig::manual()).unwrap();
        assert_eq!(info.records_replayed, 50);
        assert_eq!(info.torn_bytes, 0);
        assert_eq!(store.state(), &expect, "bit-identical recovery");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Appends only buffer: pending bytes grow with every record and
    /// nothing reaches the log until the writer's `sync`.
    #[test]
    fn pending_bytes_grow_until_sync() {
        let dir = tmp_dir("deferred");
        let (mut store, _) = MdsStore::open(&dir, StoreConfig::default()).unwrap();
        let mut pending = 0;
        for i in 0..10 {
            store.append_deferred(rec(i)).unwrap();
            assert!(store.pending_bytes() > pending, "record {i} was buffered");
            pending = store.pending_bytes();
        }
        assert_eq!(verify(&dir).unwrap().records, 0, "nothing durable yet");
        let expect_after_commit = store.state().clone();
        store.sync().unwrap();
        assert_eq!(store.pending_bytes(), 0);
        drop(store);
        let (store, info) = MdsStore::open(&dir, StoreConfig::manual()).unwrap();
        assert_eq!(info.records_replayed, 10);
        assert_eq!(store.state(), &expect_after_commit);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A crash between deferred appends and the group commit loses the
    /// whole batch — exactly the not-yet-acknowledged window.
    #[test]
    fn crash_before_group_commit_loses_the_deferred_batch() {
        let dir = tmp_dir("deferred-crash");
        let (mut store, _) = MdsStore::open(&dir, StoreConfig::manual()).unwrap();
        for i in 0..8 {
            store.append_deferred(rec(i)).unwrap();
        }
        store.sync().unwrap();
        let committed = store.state().clone();
        for i in 8..16 {
            store.append_deferred(rec(i)).unwrap();
        }
        store.simulate_crash(3).unwrap();
        let (store, info) = MdsStore::open(&dir, StoreConfig::manual()).unwrap();
        assert_eq!(info.records_replayed, 8);
        assert_eq!(store.state(), &committed);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_loses_only_unsynced_suffix() {
        let dir = tmp_dir("crash");
        let (mut store, _) = MdsStore::open(&dir, StoreConfig::manual()).unwrap();
        let mut synced_state = MdsState::default();
        for i in 0..20 {
            store.append_deferred(rec(i)).unwrap();
        }
        store.sync().unwrap();
        for i in 0..20 {
            synced_state.apply(&rec(i));
        }
        for i in 20..30 {
            store.append_deferred(rec(i)).unwrap();
        }
        // Tear 7 bytes of the unsynced records into the file.
        store.simulate_crash(7).unwrap();

        let (store, info) = MdsStore::open(&dir, StoreConfig::manual()).unwrap();
        assert_eq!(store.state(), &synced_state);
        assert_eq!(info.records_replayed, 20);
        assert_eq!(info.torn_bytes, 7);
        assert_eq!(info.next_lsn, 20);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_prunes_and_recovery_uses_it() {
        let dir = tmp_dir("snap");
        let config = StoreConfig {
            segment_bytes: 256,
            ..StoreConfig::manual()
        };
        let (mut store, _) = MdsStore::open(&dir, config).unwrap();
        for i in 0..60 {
            store.append_deferred(rec(i)).unwrap();
            if i % 10 == 9 {
                store.sync().unwrap();
            }
        }
        store.snapshot().unwrap();
        let expect = store.state().clone();
        drop(store);

        let report = verify(&dir).unwrap();
        assert_eq!(report.snapshot_lsn, 60);
        assert_eq!(report.records, 0, "everything lives in the snapshot");
        assert!(report.segments <= 2, "covered segments pruned");

        let (mut store, info) = MdsStore::open(&dir, config).unwrap();
        assert_eq!(store.state(), &expect);
        assert_eq!(info.snapshot_lsn, 60);
        // Appends continue past the snapshot and replay on reopen.
        store.append_deferred(rec(60)).unwrap();
        store.sync().unwrap();
        drop(store);
        let (store, info) = MdsStore::open(&dir, config).unwrap();
        assert_eq!(info.records_replayed, 1);
        let mut want = expect;
        want.apply(&rec(60));
        assert_eq!(store.state(), &want);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_snapshot_triggers_by_record_count() {
        let dir = tmp_dir("auto");
        let config = StoreConfig {
            snapshot_every: 16,
            ..StoreConfig::default()
        };
        let (mut store, _) = MdsStore::open(&dir, config).unwrap();
        // The same records applied to a purely in-memory state: what the
        // store must equal however many snapshots it cut on the way.
        let mut expect = MdsState::default();
        for i in 0..100 {
            store.append_deferred(rec(i)).unwrap();
            expect.apply(&rec(i));
        }
        assert_eq!(*store.state(), expect, "six snapshot boundaries crossed");
        store.sync().unwrap();
        drop(store);
        let report = verify(&dir).unwrap();
        assert!(report.snapshot_lsn >= 16, "auto snapshot happened");
        let (reopened, _) = MdsStore::open(&dir, config).unwrap();
        assert_eq!(*reopened.state(), expect, "snapshot + WAL tail replay");
        drop(reopened);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_shrinks_the_log() {
        let dir = tmp_dir("compact");
        let config = StoreConfig {
            segment_bytes: 256,
            ..StoreConfig::manual()
        };
        let (mut store, _) = MdsStore::open(&dir, config).unwrap();
        for i in 0..80 {
            store.append_deferred(rec(i)).unwrap();
            if i % 8 == 7 {
                store.sync().unwrap();
            }
        }
        store.sync().unwrap();
        drop(store);
        let before = verify(&dir).unwrap();
        assert!(before.segments > 2);
        let (lsn, removed) = compact(&dir, config).unwrap();
        assert_eq!(lsn, 80);
        assert!(removed > 0);
        let after = verify(&dir).unwrap();
        assert_eq!(after.snapshot_lsn, 80);
        assert_eq!(after.records, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inspect_summarises_layout_and_state() {
        let dir = tmp_dir("inspect");
        let (mut store, _) = MdsStore::open(&dir, StoreConfig::manual()).unwrap();
        for i in 0..12 {
            store.append_deferred(rec(i)).unwrap();
        }
        store.sync().unwrap();
        drop(store);
        let report = inspect(&dir).unwrap();
        assert_eq!(report.next_lsn, 12);
        assert_eq!(report.segments.len(), 1);
        assert_eq!(report.segments[0].frames, 12);
        let total: u64 = report.record_counts.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 12);
        assert!(report.owned > 0 && report.attrs > 0 && report.popularity > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn telemetry_counters_move_when_attached() {
        let dir = tmp_dir("telemetry");
        let registry = Arc::new(Registry::new());
        let (store, _) = MdsStore::open(&dir, StoreConfig::manual()).unwrap();
        let mut store = store.with_registry(&registry, 3);
        for i in 0..5 {
            store.append_deferred(rec(i)).unwrap();
        }
        store.sync().unwrap();
        store.snapshot().unwrap();
        let records = registry
            .counter(MetricKey::mds(names::WAL_RECORDS_TOTAL, 3))
            .get();
        assert_eq!(records, 5);
        assert!(
            registry
                .counter(MetricKey::mds(names::WAL_BYTES_TOTAL, 3))
                .get()
                > 0
        );
        assert_eq!(
            registry
                .counter(MetricKey::mds(names::SNAPSHOTS_TOTAL, 3))
                .get(),
            1
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_spans_record_append_and_fsync_when_traced() {
        use d2tree_telemetry::trace::Sampler;
        let dir = tmp_dir("traced");
        let tracer = Arc::new(Tracer::new(Sampler::always(0)));
        let (store, _) = MdsStore::open(&dir, StoreConfig::manual()).unwrap();
        let mut store = store.with_tracer(Arc::clone(&tracer), 5);
        for i in 0..4 {
            store.append_deferred(rec(i)).unwrap();
        }
        store.sync().unwrap();
        let spans = tracer.drain();
        let appends = spans
            .iter()
            .filter(|s| s.name == span_names::WAL_APPEND)
            .count();
        let fsyncs = spans
            .iter()
            .filter(|s| s.name == span_names::WAL_FSYNC)
            .count();
        assert_eq!(appends, 4, "one span per appended record");
        assert_eq!(fsyncs, 1, "manual config: one explicit group commit");
        assert!(spans.iter().all(|s| s.mds == Some(5)));
        assert!(spans
            .iter()
            .all(|s| s.args.iter().any(|&(k, v)| k == ArgKey::Bytes && v > 0)));
        fs::remove_dir_all(&dir).unwrap();
    }
}
