//! Lock-free metric primitives and the [`Registry`] that owns them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use crate::journal::{Event, EventJournal};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A point-in-time level that can move both ways (queue depths,
/// worker occupancy). Saturates at zero on decrement.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the level.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raises the level by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Lowers the level by `n`, saturating at zero.
    pub fn sub(&self, n: u64) {
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Raises the level to at least `v` (peak tracking). The plain-load
    /// guard keeps the common no-op case free of the `fetch_max` CAS loop
    /// (peaks stabilise fast); racing updates still converge to the true
    /// maximum through the RMW.
    pub fn max(&self, v: u64) {
        if v > self.value.load(Ordering::Relaxed) {
            self.value.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current level.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Sub-bucket resolution: 2^4 = 16 linear sub-buckets per power of two,
/// bounding the relative quantile error at 1/16 ≈ 6.25%.
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;
/// Values below `SUB` get exact unit buckets; each of the remaining
/// `64 - SUB_BITS` powers of two contributes `SUB` sub-buckets.
const NUM_BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let sub = ((v >> (msb - SUB_BITS)) & (SUB - 1)) as usize;
        ((msb - SUB_BITS) as usize) * SUB as usize + SUB as usize + sub
    }
}

/// Inclusive value range covered by bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < SUB as usize {
        (i as u64, i as u64)
    } else {
        let major = (i - SUB as usize) as u32 / SUB as u32 + SUB_BITS;
        let sub = ((i - SUB as usize) % SUB as usize) as u64;
        let width = 1u64 << (major - SUB_BITS);
        let lo = (1u64 << major) + sub * width;
        // `lo + (width - 1)`, not `lo + width - 1`: the top bucket's
        // upper bound is exactly `u64::MAX`, so summing `lo + width`
        // first would overflow.
        (lo, lo + (width - 1))
    }
}

/// A fixed log-bucketed histogram of `u64` samples (latencies in
/// microseconds, sizes in entries, …).
///
/// Recording is a relaxed atomic increment; quantile extraction walks
/// the bucket array. The value returned for a quantile is the midpoint
/// of the bucket holding that rank, exact for values below 16 and
/// within ~6.25% relative error above.
pub struct Histogram {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; NUM_BUCKETS]> =
            buckets.into_boxed_slice().try_into().expect("exact length");
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Min/max updates are guarded by a plain load so
    /// the steady state (sample inside the seen range) costs three relaxed
    /// `fetch_add`s and two loads — no CAS loops.
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` samples of the same value `v` at the cost of one —
    /// for a recorder that tallied a run of equal samples locally.
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v * n, Ordering::Relaxed);
        if v < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(v, Ordering::Relaxed);
        }
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean of recorded samples, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// The approximate value at quantile `q` (clamped to `[0, 1]`), or
    /// 0 when the histogram is empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                let (lo, hi) = bucket_bounds(i);
                return lo + (hi - lo) / 2;
            }
        }
        self.max.load(Ordering::Relaxed)
    }

    /// Freezes the histogram into plain numbers for export.
    ///
    /// Safe against concurrent [`record`](Self::record) calls: the
    /// bucket array is copied *once* and every derived statistic
    /// (count, all four quantiles) comes from that one coherent view,
    /// so quantiles are always mutually monotone (p50 ≤ p90 ≤ p99 ≤
    /// p999) even while other threads are recording. Calling
    /// [`quantile`](Self::quantile) four times instead would re-read
    /// the live buckets per call — racing records between calls can
    /// then yield a p90 *below* the p50. Quantile midpoints are
    /// additionally clamped into the observed `[min, max]`, so a
    /// scrape never reports a percentile outside the recorded range
    /// (the min/max cells are updated after the bucket cell, so a
    /// torn read could otherwise surface a p99 above the max).
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut frozen = [0u64; NUM_BUCKETS];
        let mut count = 0u64;
        for (slot, b) in frozen.iter_mut().zip(self.buckets.iter()) {
            let v = b.load(Ordering::Relaxed);
            *slot = v;
            count += v;
        }
        if count == 0 {
            return HistogramSnapshot {
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
                p50: 0,
                p90: 0,
                p99: 0,
                p999: 0,
            };
        }
        let mut min = self.min.load(Ordering::Relaxed);
        let mut max = self.max.load(Ordering::Relaxed);
        if min > max {
            // A racing first record has bumped its bucket but not yet
            // stored min/max. Derive a coherent range from the frozen
            // buckets instead of surfacing the torn sentinel values.
            let first = frozen.iter().position(|&n| n > 0).expect("count > 0");
            let last = frozen.iter().rposition(|&n| n > 0).expect("count > 0");
            min = bucket_bounds(first).0;
            max = bucket_bounds(last).1;
        }
        let quantile_of = |q: f64| -> u64 {
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &n) in frozen.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    let (lo, hi) = bucket_bounds(i);
                    return (lo + (hi - lo) / 2).clamp(min, max);
                }
            }
            max
        };
        HistogramSnapshot {
            count,
            sum: self.sum(),
            min,
            max,
            p50: quantile_of(0.50),
            p90: quantile_of(0.90),
            p99: quantile_of(0.99),
            p999: quantile_of(0.999),
        }
    }
}

/// A non-atomic, single-owner recorder mirroring [`Histogram`]'s bucket
/// layout, for hot single-threaded loops (e.g. the discrete-event
/// simulator): record with plain arithmetic, then [`flush_into`] the
/// shared histogram once.
///
/// [`flush_into`]: LocalHistogram::flush_into
pub struct LocalHistogram {
    buckets: Box<[u64; NUM_BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        LocalHistogram::new()
    }
}

impl std::fmt::Debug for LocalHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalHistogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .finish_non_exhaustive()
    }
}

impl LocalHistogram {
    /// An empty local recorder.
    #[must_use]
    pub fn new() -> Self {
        let buckets: Box<[u64; NUM_BUCKETS]> = vec![0u64; NUM_BUCKETS]
            .into_boxed_slice()
            .try_into()
            .expect("exact length");
        LocalHistogram {
            buckets,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample (plain arithmetic, no atomics).
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Adds everything recorded so far to a shared [`Histogram`] (one
    /// atomic add per non-empty bucket).
    pub fn flush_into(&self, h: &Histogram) {
        if self.count == 0 {
            return;
        }
        for (i, &n) in self.buckets.iter().enumerate() {
            if n != 0 {
                h.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        h.count.fetch_add(self.count, Ordering::Relaxed);
        h.sum.fetch_add(self.sum, Ordering::Relaxed);
        h.min.fetch_min(self.min, Ordering::Relaxed);
        h.max.fetch_max(self.max, Ordering::Relaxed);
    }
}

/// Plain-number view of a [`Histogram`] at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

impl HistogramSnapshot {
    /// Mean of the snapshot's samples, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Identifies one metric instance: a name, optionally scoped to an MDS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    /// Metric name (see [`crate::names`]).
    pub name: &'static str,
    /// Owning MDS, or `None` for cluster-wide metrics.
    pub mds: Option<u16>,
}

impl MetricKey {
    /// A cluster-wide key.
    #[must_use]
    pub fn global(name: &'static str) -> Self {
        MetricKey { name, mds: None }
    }

    /// A per-MDS key.
    #[must_use]
    pub fn mds(name: &'static str, mds: u16) -> Self {
        MetricKey {
            name,
            mds: Some(mds),
        }
    }
}

impl std::fmt::Display for MetricKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.mds {
            Some(m) => write!(f, "{}{{mds={m}}}", self.name),
            None => f.write_str(self.name),
        }
    }
}

/// Owns every metric and the event journal for one cluster (simulated
/// or live).
///
/// Lookups take a `RwLock` on the relevant map; hot paths should call
/// [`Registry::counter`]/[`Registry::histogram`] once and cache the
/// returned `Arc`.
pub struct Registry {
    started: Instant,
    counters: RwLock<BTreeMap<MetricKey, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<MetricKey, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<MetricKey, Arc<Histogram>>>,
    journal: Arc<EventJournal>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("uptime_us", &self.uptime_us())
            .field("journal_len", &self.journal.len())
            .finish_non_exhaustive()
    }
}

impl Registry {
    /// Default journal capacity (events retained before the oldest are
    /// overwritten).
    pub const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

    /// An empty registry with the default journal capacity.
    #[must_use]
    pub fn new() -> Self {
        Registry::with_journal_capacity(Self::DEFAULT_JOURNAL_CAPACITY)
    }

    /// An empty registry retaining at most `capacity` journal events.
    #[must_use]
    pub fn with_journal_capacity(capacity: usize) -> Self {
        Registry {
            started: Instant::now(),
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
            journal: Arc::new(EventJournal::new(capacity)),
        }
    }

    /// Microseconds since the registry was created (the journal's
    /// timestamp origin).
    #[must_use]
    pub fn uptime_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    fn get_or_insert<T: Default>(
        map: &RwLock<BTreeMap<MetricKey, Arc<T>>>,
        key: MetricKey,
    ) -> Arc<T> {
        if let Some(v) = map.read().unwrap_or_else(|e| e.into_inner()).get(&key) {
            return Arc::clone(v);
        }
        let mut w = map.write().unwrap_or_else(|e| e.into_inner());
        Arc::clone(w.entry(key).or_default())
    }

    /// The counter registered under `key`, created on first use.
    pub fn counter(&self, key: MetricKey) -> Arc<Counter> {
        Self::get_or_insert(&self.counters, key)
    }

    /// The gauge registered under `key`, created on first use.
    pub fn gauge(&self, key: MetricKey) -> Arc<Gauge> {
        Self::get_or_insert(&self.gauges, key)
    }

    /// The histogram registered under `key`, created on first use.
    pub fn histogram(&self, key: MetricKey) -> Arc<Histogram> {
        Self::get_or_insert(&self.histograms, key)
    }

    /// The registry's event journal. Returned as `&Arc` so components
    /// that outlive a borrow of the registry (monitor threads, …) can
    /// clone a shared handle.
    #[must_use]
    pub fn journal(&self) -> &Arc<EventJournal> {
        &self.journal
    }

    /// Freezes every metric and the journal into a plain-data
    /// [`Snapshot`] for export.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, c)| (*k, c.get()))
            .collect();
        let gauges = self
            .gauges
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, g)| (*k, g.get()))
            .collect();
        let histograms = self
            .histograms
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, h)| (*k, h.snapshot()))
            .collect();
        Snapshot {
            uptime_us: self.uptime_us(),
            counters,
            gauges,
            histograms,
            events: self.journal.snapshot(),
        }
    }
}

/// Plain-data view of a [`Registry`] at one instant, consumed by the
/// exporters in [`crate::export`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Microseconds since registry creation.
    pub uptime_us: u64,
    /// All counters, sorted by key.
    pub counters: Vec<(MetricKey, u64)>,
    /// All gauges, sorted by key.
    pub gauges: Vec<(MetricKey, u64)>,
    /// All histograms, sorted by key.
    pub histograms: Vec<(MetricKey, HistogramSnapshot)>,
    /// Journal contents, oldest first.
    pub events: Vec<Event>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut prev = 0usize;
        for shift in 0..64 {
            let v = 1u64 << shift;
            for probe in [
                v,
                v + (v >> 1),
                v.saturating_mul(2).saturating_sub(1).max(v),
            ] {
                let i = bucket_index(probe);
                assert!(i < NUM_BUCKETS, "index {i} for {probe}");
                assert!(i >= prev || probe < 1 << shift, "non-monotone at {probe}");
                prev = prev.max(i);
            }
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_invert_bucket_index() {
        for v in (0..4096u64).chain([1 << 20, (1 << 20) + 12_345, u64::MAX / 3]) {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(
                lo <= v && v <= hi,
                "value {v} outside bucket {i} [{lo},{hi}]"
            );
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..16 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 15);
        assert_eq!(h.count(), 16);
        assert_eq!(h.sum(), 120);
    }

    #[test]
    fn quantiles_of_uniform_distribution_within_error_bound() {
        let h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, expect) in [(0.5, 50_000.0), (0.9, 90_000.0), (0.99, 99_000.0)] {
            let got = h.quantile(q) as f64;
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.07, "q{q}: got {got}, want ~{expect} (rel {rel:.3})");
        }
    }

    #[test]
    fn local_histogram_flushes_exactly() {
        let shared = Histogram::new();
        let mut local = LocalHistogram::new();
        for v in [1u64, 7, 7, 300, 40_000] {
            local.record(v);
        }
        local.flush_into(&shared);
        local.flush_into(&shared); // flushing twice doubles everything
        assert_eq!(shared.count(), 10);
        assert_eq!(shared.sum(), 2 * (1 + 7 + 7 + 300 + 40_000));
        let snap = shared.snapshot();
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 40_000);
        assert_eq!(shared.quantile(0.3), 7);
        // An empty local flush is a no-op (and must not clobber min).
        LocalHistogram::new().flush_into(&shared);
        assert_eq!(shared.snapshot().min, 1);
    }

    #[test]
    fn record_n_equals_n_records() {
        let (runs, singles) = (Histogram::new(), Histogram::new());
        for (v, n) in [(0u64, 3u64), (7, 1), (300, 5), (9, 0)] {
            runs.record_n(v, n);
            for _ in 0..n {
                singles.record(v);
            }
        }
        assert_eq!(runs.snapshot(), singles.snapshot());
        assert_eq!(runs.snapshot().max, 300, "an empty run records nothing");
    }

    #[test]
    fn gauge_saturates_at_zero() {
        let g = Gauge::new();
        g.add(3);
        g.sub(10);
        assert_eq!(g.get(), 0);
        g.max(7);
        g.max(2);
        assert_eq!(g.get(), 7);
    }

    /// Two writer threads hammer a histogram while the main thread
    /// scrapes snapshots in a tight loop. Every snapshot must be
    /// internally coherent: quantiles mutually monotone, quantiles
    /// inside `[min, max]`, and count never moving backwards. This is
    /// the loom-free stress test guarding the frozen-bucket snapshot
    /// path used by the live admin plane's `/metrics` scrape.
    #[test]
    fn snapshot_is_coherent_under_concurrent_recording() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let h = Arc::new(Histogram::new());
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..2u64)
            .map(|t| {
                let h = Arc::clone(&h);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // Deterministic xorshift per thread; spans several
                    // orders of magnitude so bucket walks cross ranges.
                    let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ (t + 1);
                    while !stop.load(Ordering::Relaxed) {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        h.record(1 + (x % 1_000_000));
                    }
                })
            })
            .collect();

        let mut last_count = 0u64;
        let mut scrapes = 0u64;
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(200);
        while std::time::Instant::now() < deadline {
            let s = h.snapshot();
            if s.count == 0 {
                continue;
            }
            scrapes += 1;
            assert!(s.count >= last_count, "count went backwards");
            last_count = s.count;
            assert!(s.min <= s.max, "min {} > max {}", s.min, s.max);
            assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.p999);
            for (label, q) in [
                ("p50", s.p50),
                ("p90", s.p90),
                ("p99", s.p99),
                ("p999", s.p999),
            ] {
                assert!(
                    (s.min..=s.max).contains(&q),
                    "{label} {q} outside [{}, {}]",
                    s.min,
                    s.max
                );
            }
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().expect("writer panicked");
        }
        assert!(scrapes > 100, "stress loop barely ran ({scrapes} scrapes)");
    }

    #[test]
    fn registry_returns_shared_handles() {
        let r = Registry::new();
        let a = r.counter(MetricKey::mds("x", 1));
        let b = r.counter(MetricKey::mds("x", 1));
        a.add(2);
        b.inc();
        assert_eq!(r.counter(MetricKey::mds("x", 1)).get(), 3);
        assert_eq!(r.counter(MetricKey::mds("x", 2)).get(), 0);
        let snap = r.snapshot();
        assert_eq!(snap.counters.len(), 2);
    }
}
