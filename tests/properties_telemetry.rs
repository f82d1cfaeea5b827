//! Property-based tests of the telemetry substrate: the log-bucketed
//! latency histogram's edge cases (empty, single sample, top-bucket
//! saturation), the event journal's eviction ordering once the ring
//! wraps around, and the flight recorder's newest-N retention.

use d2tree::telemetry::{EventJournal, EventKind, FlightRecorder, Histogram, TickSample};
use proptest::prelude::*;

proptest! {
    #[test]
    fn empty_histogram_reports_zeroes(q in 0.0f64..=1.0) {
        let h = Histogram::new();
        prop_assert_eq!(h.count(), 0);
        prop_assert_eq!(h.sum(), 0);
        prop_assert_eq!(h.mean(), 0.0);
        prop_assert_eq!(h.quantile(q), 0);
        let snap = h.snapshot();
        prop_assert_eq!(snap.count, 0);
        prop_assert_eq!(snap.min, 0);
        prop_assert_eq!(snap.max, 0);
        prop_assert_eq!(snap.p50, 0);
        prop_assert_eq!(snap.p999, 0);
    }

    #[test]
    fn single_sample_histogram_is_exact_in_count_and_bounded_in_value(
        v in 0u64..=u64::MAX,
        q in 0.0f64..=1.0,
    ) {
        let h = Histogram::new();
        h.record(v);
        prop_assert_eq!(h.count(), 1);
        prop_assert_eq!(h.sum(), v);
        prop_assert_eq!(h.mean(), v as f64);
        let snap = h.snapshot();
        prop_assert_eq!(snap.min, v);
        prop_assert_eq!(snap.max, v);
        // Every quantile lands in the one occupied bucket: exact below
        // the 16-sample linear range, within the bucket's ~6.25%
        // relative width above it.
        let at_q = h.quantile(q);
        if v < 16 {
            prop_assert_eq!(at_q, v);
        } else {
            prop_assert!(at_q.abs_diff(v) <= v / 16 + 1, "quantile {at_q} vs sample {v}");
        }
    }

    #[test]
    fn quantiles_are_monotone_in_q(
        samples in proptest::collection::vec(0u64..1_000_000, 1..200),
        qa in 0.0f64..=1.0,
        qb in 0.0f64..=1.0,
    ) {
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        prop_assert!(h.quantile(lo) <= h.quantile(hi));
    }

    #[test]
    fn top_bucket_saturates_without_losing_counts(n in 1u64..50) {
        // u64::MAX lands in the last bucket; piling samples there must
        // keep count/sum/extrema coherent and every quantile inside the
        // top bucket's range.
        let h = Histogram::new();
        for _ in 0..n {
            h.record(u64::MAX);
        }
        prop_assert_eq!(h.count(), n);
        // The sum wraps modulo 2^64 by design (relaxed fetch_add); the
        // snapshot extrema stay exact.
        let snap = h.snapshot();
        prop_assert_eq!(snap.min, u64::MAX);
        prop_assert_eq!(snap.max, u64::MAX);
        let p = h.quantile(1.0);
        prop_assert!(p >= u64::MAX - u64::MAX / 16, "top-bucket quantile too low: {p}");
    }

    #[test]
    fn journal_eviction_keeps_newest_with_contiguous_seqs(
        capacity in 1usize..32,
        n in 0usize..200,
    ) {
        let journal = EventJournal::new(capacity);
        for i in 0..n {
            let seq = journal.record(EventKind::Heartbeat {
                mds: (i % 7) as u16,
                load: i as f64,
            });
            prop_assert_eq!(seq, i as u64);
        }
        prop_assert_eq!(journal.recorded(), n as u64);
        let events = journal.snapshot();
        prop_assert_eq!(events.len(), n.min(capacity));
        prop_assert_eq!(journal.len(), events.len());
        // After wraparound the ring holds exactly the newest `capacity`
        // events, in order, with gap-free sequence numbers.
        for (offset, e) in events.iter().enumerate() {
            prop_assert_eq!(e.seq, (n - events.len() + offset) as u64);
        }
    }

    #[test]
    fn flight_recorder_wraparound_keeps_newest_ticks(
        capacity in 1usize..16,
        n in 0usize..100,
    ) {
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
        prop_assert_eq!(rec.total_recorded(), n as u64);
        prop_assert_eq!(rec.len(), n.min(capacity));
        let ticks: Vec<_> = rec.ticks().collect();
        // The ring holds exactly the newest `capacity` ticks, in order,
        // with gap-free tick numbers that survive eviction…
        for (offset, t) in ticks.iter().enumerate() {
            prop_assert_eq!(t.tick, (n - ticks.len() + offset) as u64);
        }
        // …and differencing against the previous sample is unaffected
        // by ticks falling off the front: every retained delta is one
        // step's worth except the very first sample ever taken.
        for t in ticks {
            prop_assert_eq!(t.ops, 10, "tick {}", t.tick);
            prop_assert_eq!(t.retries, 3, "tick {}", t.tick);
            prop_assert_eq!(t.migrations, 1, "tick {}", t.tick);
        }
    }

    #[test]
    fn journal_clear_never_rewinds_sequences(
        capacity in 1usize..16,
        before in 0usize..40,
    ) {
        let journal = EventJournal::new(capacity);
        for _ in 0..before {
            journal.record(EventKind::MdsDown { mds: 1 });
        }
        journal.clear();
        prop_assert!(journal.is_empty());
        prop_assert_eq!(journal.recorded(), before as u64);
        let seq = journal.record(EventKind::MdsRecovered { mds: 1 });
        prop_assert_eq!(seq, before as u64);
        prop_assert_eq!(journal.snapshot().len(), 1);
    }
}
