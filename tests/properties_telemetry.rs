//! Property-based tests of the telemetry substrate: the log-bucketed
//! latency histogram's edge cases (empty, single sample, top-bucket
//! saturation), the event journal's eviction ordering once the ring
//! wraps around, and the flight recorder's newest-N retention. The two
//! tests at the end check the seeded case runner all property suites
//! share.

mod support;

use d2tree::telemetry::{EventJournal, EventKind, FlightRecorder, Histogram, TickSample};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use support::cases;

#[test]
fn empty_histogram_reports_zeroes() {
    cases("empty_histogram_reports_zeroes", 32, |rng| {
        let q = rng.gen_range(0.0f64..=1.0);
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(q), 0);
        let snap = h.snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 0);
        assert_eq!(snap.p50, 0);
        assert_eq!(snap.p999, 0);
    });
}

#[test]
fn single_sample_histogram_is_exact_in_count_and_bounded_in_value() {
    cases(
        "single_sample_histogram_is_exact_in_count_and_bounded_in_value",
        32,
        |rng| {
            let (v, q) = (rng.gen_range(0u64..=u64::MAX), rng.gen_range(0.0f64..=1.0));
            let h = Histogram::new();
            h.record(v);
            assert_eq!(h.count(), 1);
            assert_eq!(h.sum(), v);
            assert_eq!(h.mean(), v as f64);
            let snap = h.snapshot();
            assert_eq!(snap.min, v);
            assert_eq!(snap.max, v);
            // Every quantile lands in the one occupied bucket: exact below
            // the 16-sample linear range, within the bucket's ~6.25%
            // relative width above it.
            let at_q = h.quantile(q);
            if v < 16 {
                assert_eq!(at_q, v);
            } else {
                assert!(
                    at_q.abs_diff(v) <= v / 16 + 1,
                    "quantile {at_q} vs sample {v}"
                );
            }
        },
    );
}

#[test]
fn quantiles_are_monotone_in_q() {
    cases("quantiles_are_monotone_in_q", 32, |rng| {
        let samples: Vec<u64> = (0..rng.gen_range(1..200))
            .map(|_| rng.gen_range(0..1_000_000))
            .collect();
        let (qa, qb) = (rng.gen_range(0.0f64..=1.0), rng.gen_range(0.0f64..=1.0));
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        assert!(h.quantile(lo) <= h.quantile(hi));
    });
}

#[test]
fn top_bucket_saturates_without_losing_counts() {
    cases("top_bucket_saturates_without_losing_counts", 32, |rng| {
        let n = rng.gen_range(1u64..50);
        // u64::MAX lands in the last bucket; piling samples there must
        // keep count/sum/extrema coherent and every quantile inside the
        // top bucket's range.
        let h = Histogram::new();
        for _ in 0..n {
            h.record(u64::MAX);
        }
        assert_eq!(h.count(), n);
        // The sum wraps modulo 2^64 by design (relaxed fetch_add); the
        // snapshot extrema stay exact.
        let snap = h.snapshot();
        assert_eq!(snap.min, u64::MAX);
        assert_eq!(snap.max, u64::MAX);
        let p = h.quantile(1.0);
        assert!(
            p >= u64::MAX - u64::MAX / 16,
            "top-bucket quantile too low: {p}"
        );
    });
}

#[test]
fn journal_eviction_keeps_newest_with_contiguous_seqs() {
    cases(
        "journal_eviction_keeps_newest_with_contiguous_seqs",
        32,
        |rng| {
            let (capacity, n) = (rng.gen_range(1usize..32), rng.gen_range(0usize..200));
            let journal = EventJournal::new(capacity);
            for i in 0..n {
                let seq = journal.record(EventKind::Heartbeat {
                    mds: (i % 7) as u16,
                    load: i as f64,
                });
                assert_eq!(seq, i as u64);
            }
            assert_eq!(journal.recorded(), n as u64);
            let events = journal.snapshot();
            assert_eq!(events.len(), n.min(capacity));
            assert_eq!(journal.len(), events.len());
            // After wraparound the ring holds exactly the newest `capacity`
            // events, in order, with gap-free sequence numbers.
            for (offset, e) in events.iter().enumerate() {
                assert_eq!(e.seq, (n - events.len() + offset) as u64);
            }
        },
    );
}

#[test]
fn flight_recorder_wraparound_keeps_newest_ticks() {
    cases("flight_recorder_wraparound_keeps_newest_ticks", 32, |rng| {
        let (capacity, n) = (rng.gen_range(1usize..16), rng.gen_range(0usize..100));
        let mut rec = FlightRecorder::new(capacity);
        for i in 0..n as u64 {
            rec.sample(
                TickSample {
                    t_us: (i + 1) * 1_000,
                    locality: 0.5,
                    balance: 2.0,
                    ops_total: (i + 1) * 10,
                    retries_total: (i + 1) * 3,
                    migrations_total: i + 1,
                    loads: vec![1.0, 2.0],
                },
                None,
            );
        }
        assert_eq!(rec.total_recorded(), n as u64);
        assert_eq!(rec.len(), n.min(capacity));
        let ticks: Vec<_> = rec.ticks().collect();
        // The ring holds exactly the newest `capacity` ticks, in order,
        // with gap-free tick numbers that survive eviction…
        for (offset, t) in ticks.iter().enumerate() {
            assert_eq!(t.tick, (n - ticks.len() + offset) as u64);
        }
        // …and differencing against the previous sample is unaffected
        // by ticks falling off the front: every retained delta is one
        // step's worth except the very first sample ever taken.
        for t in ticks {
            assert_eq!(t.ops, 10, "tick {}", t.tick);
            assert_eq!(t.retries, 3, "tick {}", t.tick);
            assert_eq!(t.migrations, 1, "tick {}", t.tick);
        }
    });
}

#[test]
fn journal_clear_never_rewinds_sequences() {
    cases("journal_clear_never_rewinds_sequences", 32, |rng| {
        let (capacity, before) = (rng.gen_range(1usize..16), rng.gen_range(0usize..40));
        let journal = EventJournal::new(capacity);
        for _ in 0..before {
            journal.record(EventKind::MdsDown { mds: 1 });
        }
        journal.clear();
        assert!(journal.is_empty());
        assert_eq!(journal.recorded(), before as u64);
        let seq = journal.record(EventKind::MdsRecovered { mds: 1 });
        assert_eq!(seq, before as u64);
        assert_eq!(journal.snapshot().len(), 1);
    });
}

/// A failing case ends the run: cases 0–4 pass, case 5 panics and
/// case 6 never runs. The failing case's first draw goes to stdout for
/// the test below.
#[test]
fn cases_stop_at_a_failing_case() {
    let mut draws = Vec::new();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        cases("cases_stop_at_a_failing_case", 8, |rng| {
            draws.push(rng.next_u64());
            assert!(draws.len() < 6, "case 5 fails");
        });
    }));
    assert!(outcome.is_err(), "the failing case must panic");
    assert_eq!(draws.len(), 6);
    println!("failing draw {:016x}", draws[5]);
}

/// Runs the test above in a child process, whose stderr holds what
/// libtest shows next to a failure: the case index and its seed, and
/// that seed alone reproduces the failing case's input.
#[test]
fn a_failing_case_reports_the_seed_that_replays_it() {
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "cases_stop_at_a_failing_case", "--nocapture"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let hex_after = |text: &[u8], tag: &str| {
        let text = String::from_utf8_lossy(text);
        let (_, rest) = text.split_once(tag).expect(tag);
        u64::from_str_radix(&rest[..16], 16).unwrap()
    };
    let report = "property cases_stop_at_a_failing_case failed at case 5/8, seed 0x";
    let seed = hex_after(&out.stderr, report);
    let draw = hex_after(&out.stdout, "failing draw ");
    assert_eq!(StdRng::seed_from_u64(seed).next_u64(), draw);
}
