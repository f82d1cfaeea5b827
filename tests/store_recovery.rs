//! Durable-store recovery properties: every possible torn tail, every
//! sampled bit-flip, live kill/restart with on-disk state, and the
//! seeded store-chaos schedules the CI matrix replays one seed at a
//! time via `CHAOS_SEED` (same convention as `tests/chaos.rs`).
//!
//! The contract under test: reopening a store always yields the exact
//! replay of a prefix of what was appended — recovery may truncate a
//! torn suffix, and it must fail loudly on corruption, but it never
//! invents records and never silently drops fsynced interior ones.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use d2tree::cluster::live::{LiveCluster, LiveConfig};
use d2tree::cluster::{run_store_chaos, FaultPlan, StoreChaosConfig};
use d2tree::core::{D2TreeConfig, D2TreeScheme, Partitioner};
use d2tree::metrics::{ClusterSpec, MdsId};
use d2tree::store::wal::{list_segments, scan_log};
use d2tree::store::{AttrState, MdsRecord, MdsState, MdsStore, StoreConfig};
use d2tree::telemetry::names;
use d2tree::telemetry::EventKind;
use d2tree::workload::{OpKind, Operation, TraceProfile, WorkloadBuilder};

/// Seeds the CI matrix replays one at a time via `CHAOS_SEED`.
const DEFAULT_SEEDS: &[u64] = &[1, 7, 42];

fn seeds_under_test() -> Vec<u64> {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("CHAOS_SEED must be an integer")],
        Err(_) => DEFAULT_SEEDS.to_vec(),
    }
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "d2tree-storerec-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A deterministic record mix; index collisions keep version gating hot.
fn record_at(i: u64) -> MdsRecord {
    match i % 4 {
        0 => MdsRecord::AttrCommit {
            node: i % 13,
            gl: i.is_multiple_of(5),
            attr: AttrState {
                version: i + 1,
                mode: 0o644,
                uid: (i % 3) as u32,
                gid: 0,
                size: i * 37,
                mtime: 1_700_000_000 + i,
            },
        },
        1 => MdsRecord::Ownership {
            root: i % 7,
            acquired: i.is_multiple_of(2),
        },
        2 => MdsRecord::GlRecut {
            version: i,
            promoted: i % 4,
            demoted: i % 3,
        },
        _ => MdsRecord::Popularity {
            root: i % 7,
            bits: ((i * 211) as f64).to_bits(),
        },
    }
}

fn replay(records: &[MdsRecord]) -> MdsState {
    let mut state = MdsState::default();
    for r in records {
        state.apply(r);
    }
    state
}

/// Writes `n` records into a fresh single-segment store and syncs.
/// Returns the store dir, the records and each record's frame length.
fn synced_store(tag: &str, n: u64) -> (PathBuf, Vec<MdsRecord>, Vec<usize>) {
    let dir = tmp_dir(tag);
    let records: Vec<MdsRecord> = (0..n).map(record_at).collect();
    let frame_lens: Vec<usize> = records
        .iter()
        .map(|r| 8 + 8 + r.encode().len()) // header + lsn + body
        .collect();
    let (mut store, _) = MdsStore::open(&dir, StoreConfig::manual()).expect("fresh open");
    for r in &records {
        store.append_deferred(*r).expect("append");
    }
    store.sync().expect("sync");
    (dir, records, frame_lens)
}

fn wal_files(dir: &Path) -> Vec<PathBuf> {
    let segments = list_segments(dir).expect("list segments");
    segments.into_iter().map(|(_, path)| path).collect()
}

/// Crash at EVERY byte offset of the log: recovery must come back with
/// the exact replay of the longest whole-frame prefix the bytes cover —
/// never a partial record, never invented state.
#[test]
fn truncation_at_every_byte_offset_recovers_an_exact_prefix() {
    let (dir, records, frame_lens) = synced_store("torn", 50);
    let segs = wal_files(&dir);
    assert_eq!(segs.len(), 1, "manual config keeps one segment");
    let full = fs::read(&segs[0]).expect("read segment");

    // Frame boundaries: magic, then cumulative frame ends.
    let mut boundaries = vec![8usize];
    for len in &frame_lens {
        boundaries.push(boundaries.last().unwrap() + len);
    }
    assert_eq!(*boundaries.last().unwrap(), full.len());

    let work = tmp_dir("torn-work");
    for cut in 0..=full.len() {
        let _ = fs::remove_dir_all(&work);
        fs::create_dir_all(&work).unwrap();
        fs::write(work.join(segs[0].file_name().unwrap()), &full[..cut]).unwrap();

        let (store, info) = MdsStore::open(&work, StoreConfig::manual())
            .unwrap_or_else(|e| panic!("cut at {cut}: torn tail must be recoverable, got {e}"));
        // The recovered prefix is exactly the number of whole frames the
        // surviving bytes contain.
        let expect_frames = boundaries.iter().filter(|&&b| b > 8 && b <= cut).count();
        assert_eq!(
            info.next_lsn as usize, expect_frames,
            "cut at {cut}: wrong prefix length"
        );
        assert_eq!(
            *store.state(),
            replay(&records[..expect_frames]),
            "cut at {cut}: recovered state is not the exact prefix replay"
        );
        // A cut inside the magic tears the whole segment; past it, the
        // torn region starts at the last complete frame boundary.
        let valid = if cut < 8 {
            0
        } else {
            boundaries[expect_frames]
        };
        assert_eq!(
            info.torn_bytes as usize,
            cut - valid,
            "cut at {cut}: torn byte accounting"
        );
    }
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&work);
}

/// Flip bits across the log: damage in the interior (where a later
/// CRC-valid frame survives) must fail loudly as corruption; damage in
/// the final frame may be treated as a torn tail — but then the state
/// must still be the exact shorter prefix. Nothing in between.
#[test]
fn bit_flips_fail_loudly_or_truncate_exactly() {
    let (dir, records, frame_lens) = synced_store("flip", 40);
    let segs = wal_files(&dir);
    let full = fs::read(&segs[0]).expect("read segment");
    let last_frame_start = full.len() - frame_lens.last().unwrap();
    let n = records.len();

    let work = tmp_dir("flip-work");
    for pos in 0..full.len() {
        // Sample every position with a shifting bit to keep runtime sane
        // while touching every byte.
        let bit = 1u8 << (pos % 8);
        let mut bytes = full.clone();
        bytes[pos] ^= bit;
        let _ = fs::remove_dir_all(&work);
        fs::create_dir_all(&work).unwrap();
        fs::write(work.join(segs[0].file_name().unwrap()), &bytes).unwrap();

        match MdsStore::open(&work, StoreConfig::manual()) {
            Err(e) => {
                assert!(e.is_corrupt(), "flip at {pos}: non-corruption error {e}");
            }
            Ok((store, info)) => {
                assert!(
                    pos >= last_frame_start,
                    "flip at {pos}: interior damage (before byte {last_frame_start}) \
                     must be detected, but the store opened cleanly"
                );
                assert_eq!(info.next_lsn as usize, n - 1, "flip at {pos}");
                assert_eq!(
                    *store.state(),
                    replay(&records[..n - 1]),
                    "flip at {pos}: recovered state is not the exact prefix replay"
                );
            }
        }
    }
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&work);
}

/// Removes the segment starting at `first_lsn` and checks it was there.
fn remove_segment(dir: &Path, first_lsn: u64) {
    let segments = list_segments(dir).expect("list segments");
    let (_, path) = segments
        .iter()
        .find(|(lsn, _)| *lsn == first_lsn)
        .expect("segment present");
    fs::remove_file(path).expect("remove segment");
}

/// A log missing a middle segment lost records that were durable, so
/// recovery must refuse it, whoever replays it: `MdsStore::open`,
/// `verify` and `inspect` go through the one scan and all name the gap.
#[test]
fn a_missing_middle_segment_fails_every_recovery_loudly() {
    // One frame per segment: every sync rotates.
    let tiny = StoreConfig {
        segment_bytes: 1,
        ..StoreConfig::manual()
    };
    let dir = tmp_dir("gap-store");
    let (mut store, _) = MdsStore::open(&dir, tiny).expect("fresh open");
    for i in 0..5 {
        store.append_deferred(record_at(i)).expect("append");
        store.sync().expect("sync");
    }
    drop(store);
    remove_segment(&dir, 2);
    let gap = |what: &str, err: Option<d2tree::store::StoreError>| match err {
        Some(d2tree::store::StoreError::Corrupt(msg)) => {
            assert!(msg.contains("segment gap"), "{what}: {msg}");
        }
        other => panic!("{what} read across a gap: {other:?}"),
    };
    gap("open", MdsStore::open(&dir, tiny).err());
    gap("verify", d2tree::store::verify(&dir).err());
    gap("inspect", d2tree::store::inspect(&dir).err());
    let _ = fs::remove_dir_all(&dir);
}

/// Snapshot + compact + reopen: the snapshot fully covers the log, the
/// covered segments are pruned and recovery reproduces the same state.
#[test]
fn snapshot_compact_reopen_roundtrip() {
    let dir = tmp_dir("compact");
    let records: Vec<MdsRecord> = (0..300).map(record_at).collect();
    let mut config = StoreConfig::manual();
    config.segment_bytes = 1024; // force rotation so compaction has prey
    {
        let (mut store, _) = MdsStore::open(&dir, config).expect("open");
        for (i, r) in records.iter().enumerate() {
            store.append_deferred(*r).expect("append");
            if i % 37 == 0 {
                store.sync().expect("sync");
            }
        }
        store.sync().expect("final sync");
    }
    let before = d2tree::store::verify(&dir).expect("verify before");
    assert_eq!(before.next_lsn, 300);

    let (lsn, _removed) = d2tree::store::compact(&dir, config).expect("compact");
    assert_eq!(lsn, 300, "compaction snapshots the full log");

    let after = d2tree::store::inspect(&dir).expect("inspect after");
    assert_eq!(after.snapshot_lsn, 300);
    assert_eq!(after.next_lsn, 300);

    let (store, info) = MdsStore::open(&dir, config).expect("reopen");
    assert_eq!(info.snapshot_lsn, 300);
    assert_eq!(*store.state(), replay(&records));
    let _ = fs::remove_dir_all(&dir);
}

/// Seeded store-chaos schedules (the CI `store-recovery` matrix): torn
/// writes, lying fsyncs and bit-flip probes, reproducible per seed.
#[test]
fn store_chaos_seeds_are_reproducible_and_clean() {
    let config = StoreChaosConfig::default();
    for seed in seeds_under_test() {
        let a = run_store_chaos(seed, &config);
        let b = run_store_chaos(seed, &config);
        assert_eq!(a, b, "seed {seed}: same seed must replay identically");
        assert!(
            a.violations.is_empty(),
            "seed {seed}: recovery contract violated: {:?}",
            a.violations
        );
        assert_eq!(a.crashes, config.crashes, "seed {seed}");
        assert_eq!(
            a.corruptions_detected, a.corrupt_probes,
            "seed {seed}: every injected bit-flip must be caught"
        );
        assert!(
            a.torn_crashes + a.partial_fsyncs > 0,
            "seed {seed}: the schedule must tear something"
        );
    }
}

/// Kill an MDS mid-write and restart it: the rejoiner recovers its
/// subtree ownership, attr versions and popularity counters from its
/// local store (invariant-checker verified), reports `recovery_ms`,
/// and delta-syncs only the GL entries it missed.
#[test]
fn live_cluster_restart_recovers_from_disk() {
    for seed in seeds_under_test() {
        let store_root = tmp_dir("live");
        let m = 3;
        let w = WorkloadBuilder::new(TraceProfile::dtr().with_nodes(600).with_operations(1_200))
            .seed(seed)
            .build();
        let pop = w.popularity();
        let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default());
        scheme.build(&w.tree, &pop, &ClusterSpec::homogeneous(m, 1.0));
        let tree = Arc::new(w.tree);
        let config = LiveConfig {
            store_root: Some(store_root.clone()),
            ..LiveConfig::default()
        };
        let cluster = LiveCluster::start_with_faults(
            Arc::clone(&tree),
            scheme.placement().clone(),
            scheme.local_index().clone(),
            config,
            FaultPlan::new(seed),
        );

        let mut client = cluster.client(seed);
        let root = tree.root();
        for op in w.trace.iter().take(300) {
            let _ = client.execute(*op);
        }
        // A burst of GL commits so the victim's replica has versions to
        // journal, then miss, then delta-sync back.
        for _ in 0..5 {
            let _ = client.execute(Operation {
                target: root,
                kind: OpKind::Update,
            });
        }

        let victim = MdsId(1);
        assert!(cluster.kill(victim), "seed {seed}: kill changes state");
        std::thread::sleep(Duration::from_millis(300));
        for _ in 0..5 {
            let _ = client.execute(Operation {
                target: root,
                kind: OpKind::Update,
            });
        }
        assert!(
            cluster.restart(victim),
            "seed {seed}: restart changes state"
        );

        // Recovery is disk-first: the journal must carry a StoreRecovered
        // event and the GL catch-up must be a delta sync, not a full copy.
        let deadline = Instant::now() + Duration::from_secs(5);
        let (mut recovered_seen, mut delta_seen) = (false, false);
        while Instant::now() < deadline && !(recovered_seen && delta_seen) {
            for e in cluster.registry().snapshot().events {
                match e.kind {
                    EventKind::StoreRecovered { mds: 1, .. } => recovered_seen = true,
                    EventKind::GlDeltaSync { mds: 1, .. } => delta_seen = true,
                    _ => {}
                }
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(recovered_seen, "seed {seed}: no StoreRecovered event");
        assert!(delta_seen, "seed {seed}: no GlDeltaSync event");

        // recovery_ms is reported for the restarted MDS.
        let snap = cluster.registry().snapshot();
        let recovery_reported = snap
            .histograms
            .iter()
            .any(|(k, h)| k.name == names::RECOVERY_MS && h.count > 0);
        assert!(recovery_reported, "seed {seed}: recovery_ms not recorded");

        // The invariant checker cross-checks the recovered durable state
        // (owned subtrees, journaled attr versions) against live state.
        let deadline = Instant::now() + Duration::from_secs(5);
        let violations = loop {
            let v = cluster.check_invariants();
            if v.is_empty() || Instant::now() >= deadline {
                break v;
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        assert!(
            violations.is_empty(),
            "seed {seed}: restart left violations: {violations:?}"
        );

        drop(client);
        let _ = cluster.shutdown();
        let _ = fs::remove_dir_all(&store_root);
    }
}

/// The serving path's group-commit contract under a crash: a daemon that
/// dies after buffering a batch's WAL records but before the group
/// fsync loses exactly that batch — recovery replays the committed
/// batches bit-for-bit and truncates the torn tail, never a record
/// more, never a record less.
#[test]
fn serve_daemon_crash_mid_group_commit_recovers_the_committed_prefix() {
    use d2tree::cluster::{NetMds, Request, RequestId, ResponseBody};
    use d2tree::metrics::{Assignment, Placement};
    use d2tree::namespace::{NamespaceTree, NodeKind};
    use d2tree::telemetry::Registry;

    let dir = tmp_dir("groupcommit");
    let mut tree = NamespaceTree::new();
    let sub = tree
        .create(tree.root(), "s", NodeKind::Directory)
        .expect("create");
    let tree = Arc::new(tree);
    let mut placement = Placement::new(&tree, 1);
    for (id, _) in tree.nodes() {
        placement.set(id, Assignment::Single(MdsId(0)));
    }
    let mut index = d2tree::core::LocalIndex::new();
    index.insert(tree.root(), MdsId(0));
    let registry = Arc::new(Registry::new());
    let mds = NetMds::new(Arc::clone(&tree), placement, index, MdsId(0), registry)
        .with_store_root(&dir, StoreConfig::manual());
    let lsn0 = mds.store_next_lsn().expect("store attached");

    let req = |i: u64| Request {
        id: RequestId(i),
        kind: OpKind::Update,
        target: sub,
        hops: 0,
        trace: None,
    };
    // Three committed batches of three updates each: every
    // `serve_batch` group-commits (fsyncs) before its responses would
    // be acked, so all nine updates are durable.
    let committed_updates = 9u64;
    for b in 0..3u64 {
        let batch: Vec<Request> = (0..3).map(|i| req(b * 3 + i)).collect();
        let resps = mds.serve_batch(&batch);
        assert!(resps
            .iter()
            .all(|r| matches!(r.body, ResponseBody::Served { .. })));
    }
    let committed_lsn = mds.store_next_lsn().expect("store attached");
    assert!(committed_lsn > lsn0, "updates journal records");

    // A fourth batch is served deferred — records buffered, no group
    // commit yet — and the daemon dies with a torn write: only 3 bytes
    // of the buffered tail reach the disk (a mid-record tear).
    for i in 0..3u64 {
        let resp = mds.serve_deferred(req(100 + i));
        assert!(matches!(resp.body, ResponseBody::Served { .. }));
    }
    assert!(
        mds.store_next_lsn().expect("store attached") > committed_lsn,
        "the deferred tail was journaled in memory"
    );
    assert!(mds.simulate_store_crash(3), "store was attached");

    // Recovery: the exact committed prefix, the torn tail truncated.
    let (store, info) =
        MdsStore::open(dir.join("mds-0"), StoreConfig::manual()).expect("reopen after crash");
    assert_eq!(
        info.next_lsn, committed_lsn,
        "recovery ends exactly at the last group commit"
    );
    // `with_store_root` seeds the journal with the index's Ownership
    // records before `lsn0` was captured, so the full recovered
    // history is every record below `committed_lsn` (LSNs start at 0).
    assert_eq!(
        info.snapshot_lsn + info.records_replayed,
        committed_lsn,
        "every committed record is recovered"
    );
    assert!(info.torn_bytes > 0, "the torn tail bytes are truncated");
    let attr = store
        .state()
        .attrs
        .get(&(sub.index() as u64))
        .expect("the updated node's attrs were recovered");
    assert_eq!(
        attr.version, committed_updates,
        "attr state reflects the nine committed updates and none of the lost batch"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Every record in a store directory's WAL, in LSN order.
fn wal_records(dir: &Path) -> Vec<MdsRecord> {
    let mut records = Vec::new();
    scan_log(dir, 0, |frame| {
        records.push(frame.record);
        Ok(())
    })
    .expect("scan log");
    records
}

/// Opening an MDS's store is one procedure with one behaviour, whoever
/// asks — a TCP daemon attaching its store, a cluster starting on a
/// used store root, an MDS restarting inside a running cluster: the
/// attribute table comes back at the journaled versions, the popularity
/// counts at the journaled values, and journaled ownership converges on
/// the index — stale roots shed first, then (on a start, not on a
/// rejoin) the index's roots acquired, in root order.
#[test]
fn reopened_stores_resume_journaled_state_and_converge_ownership() {
    use d2tree::cluster::{NetMds, Request, RequestId, ResponseBody};
    use d2tree::metrics::{Assignment, Placement};
    use d2tree::namespace::{NamespaceTree, NodeKind};
    use d2tree::telemetry::Registry;

    // /a/f and /b/g belong to MDS 0, /c to MDS 1; the root is global.
    let mut tree = NamespaceTree::new();
    let [a, b, c] = ["a", "b", "c"].map(|name| {
        tree.create(tree.root(), name, NodeKind::Directory)
            .expect("create")
    });
    let f = tree.create(a, "f", NodeKind::File).expect("create");
    let g = tree.create(b, "g", NodeKind::File).expect("create");
    let tree = Arc::new(tree);
    let mut placement = Placement::new(&tree, 2);
    placement.set(tree.root(), Assignment::Replicated);
    for (node, owner) in [(a, 0), (f, 0), (b, 0), (g, 0), (c, 1)] {
        placement.set(node, Assignment::Single(MdsId(owner)));
    }
    let index = || {
        let mut index = d2tree::core::LocalIndex::new();
        index.insert(a, MdsId(0));
        index.insert(b, MdsId(0));
        index.insert(c, MdsId(1));
        index
    };
    let id = |n: d2tree::namespace::NodeId| n.index() as u64;
    let owns = |root, acquired| MdsRecord::Ownership {
        root: id(root),
        acquired,
    };
    let attr_at = |version| AttrState {
        version,
        mode: 0o644,
        uid: 1,
        gid: 1,
        size: 10,
        mtime: 99,
    };
    let counted = |root, count: f64| MdsRecord::Popularity {
        root: id(root),
        bits: count.to_bits(),
    };
    // What an earlier run left in MDS 0's store: /c, since re-homed,
    // still owned; /a/f committed three times; /a served 41 times.
    let previous_run = [
        owns(a, true),
        owns(c, true),
        MdsRecord::AttrCommit {
            node: id(f),
            gl: false,
            attr: attr_at(3),
        },
        counted(a, 41.0),
    ];
    let leave = |root: &Path, records: &[MdsRecord]| {
        let (mut store, _) =
            MdsStore::open(root.join("mds-0"), StoreConfig::manual()).expect("open");
        for &record in records {
            store.append_deferred(record).expect("append");
        }
        store.sync().expect("sync");
    };
    let read = |target| Operation {
        target,
        kind: OpKind::Read,
    };
    let converged = [owns(c, false), owns(a, true), owns(b, true)];

    // (a) The daemon.
    let dir = tmp_dir("reopen-net");
    leave(&dir, &previous_run);
    let registry = Arc::new(Registry::new());
    let mds = NetMds::new(
        Arc::clone(&tree),
        placement.clone(),
        index(),
        MdsId(0),
        registry,
    )
    .with_store_root(&dir, StoreConfig::manual());
    assert_eq!(mds.store_next_lsn(), Some(7));
    assert_eq!(mds.attr_version(f), 3);
    let resp = mds.serve(Request {
        id: RequestId(1),
        kind: OpKind::Read,
        target: f,
        hops: 0,
        trace: None,
    });
    assert!(matches!(resp.body, ResponseBody::Served { .. }));
    drop(mds);
    let mut expected = previous_run.to_vec();
    expected.extend(converged);
    expected.push(counted(a, 42.0));
    assert_eq!(wal_records(&dir.join("mds-0")), expected);
    let _ = fs::remove_dir_all(&dir);

    // (b) The cluster: a start on the same used root, then a restart.
    let dir = tmp_dir("reopen-live");
    leave(&dir, &previous_run);
    let cluster = LiveCluster::start_with_index(
        Arc::clone(&tree),
        placement,
        index(),
        LiveConfig {
            store_root: Some(dir.clone()),
            store: StoreConfig::manual(),
            // Nothing but this test moves a subtree or declares a death.
            failure_timeout: Duration::from_secs(600),
            overload_factor: f64::INFINITY,
            ..LiveConfig::default()
        },
    );
    assert_eq!(cluster.attr_version(MdsId(0), f), 3);
    let mut client = cluster.client(1);
    client.execute(read(f)).expect("served");
    assert!(cluster.kill(MdsId(0)));
    // While it is down the store gains what a longer life would have
    // journaled: /c owned again, a newer /a/f, a count for /b.
    let while_down = [
        owns(c, true),
        MdsRecord::AttrCommit {
            node: id(f),
            gl: false,
            attr: attr_at(5),
        },
        counted(b, 7.0),
    ];
    leave(&dir, &while_down);
    assert!(cluster.restart(MdsId(0)));
    assert_eq!(cluster.attr_version(MdsId(0), f), 5);
    client.execute(read(g)).expect("served");
    client.execute(read(f)).expect("served");
    drop(client);
    let _ = cluster.shutdown();
    // The start journaled what the daemon did, first read included: a
    // cluster's MDS is the daemon, so that read's count was committed
    // before its ack and the crash cannot take it.
    expected.extend(while_down);
    // A rejoin sheds and acquires nothing; the counts of /a and /b both
    // resume from the MDS's own journal.
    expected.extend([owns(c, false), counted(b, 8.0), counted(a, 43.0)]);
    assert_eq!(wal_records(&dir.join("mds-0")), expected);
    assert_eq!(wal_records(&dir.join("mds-1")), [owns(c, true)]);
    let _ = fs::remove_dir_all(&dir);
}
