//! Flight recorder: a fixed-capacity ring of periodic cluster health
//! ticks.
//!
//! Spans (the [`crate::trace`] pipeline) answer "what did this one
//! operation do"; the flight recorder answers "how is the cluster doing
//! *over time*". Each [`HealthTick`] snapshots the paper's two global
//! quality measures — Def. 3 locality and Def. 5 balance — next to the
//! operational signals that explain them: per-tick op/retry/fault/
//! migration counts, trace-shed pressure, and the WAL group-commit
//! fsync p99 fed by the store layer. Sim replays sample once per
//! rebalance round (virtual time); the live cluster's monitor samples
//! once per heartbeat tick (wall time).
//!
//! The ring keeps the newest `capacity` ticks: a bounded black box, not
//! an unbounded log. [`HealthRules`] then turns a trajectory into a
//! verdict — `d2tree health --check` exits non-zero when any tick after
//! warm-up violates a rule.

use std::collections::VecDeque;

use crate::json::Writer;
#[cfg(test)]
use crate::metrics::MetricKey;
use crate::metrics::Registry;
use crate::names;

/// One periodic health sample.
///
/// Counter-style fields (`ops`, `retries`, `faults`, `migrations`,
/// `spans_dropped`) are **per-tick deltas**, not cumulative totals;
/// `locality`, `balance`, `wal_fsync_p99_us` and `loads` are the state
/// at the instant of sampling. `locality` and `balance` are `+∞` for
/// perfect scores (Def. 3 / Def. 5 are reciprocals of a penalty term)
/// and `locality` is NaN where the sampler has no popularity model to
/// evaluate it (the live monitor); both serialize as `null` in JSONL.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthTick {
    /// Monotone tick number, counted from 0 over the recorder's life
    /// (keeps numbering even after the ring evicts old ticks).
    pub tick: u64,
    /// Sample time in microseconds (virtual for sim, wall for live).
    pub t_us: u64,
    /// Sample time in whole milliseconds (`t_us / 1000`). Redundant
    /// with `t_us` but stamped into every export so a live `/health`
    /// scrape and a post-hoc `d2tree health` dump can be joined on
    /// (`tick`, `t_ms`) without consumers re-deriving the unit.
    pub t_ms: u64,
    /// Def. 3 system locality at this tick (NaN when unavailable).
    pub locality: f64,
    /// Def. 5 load-balance degree at this tick.
    pub balance: f64,
    /// Operations completed since the previous tick.
    pub ops: u64,
    /// Retries/forwards (extra routing hops) since the previous tick.
    pub retries: u64,
    /// Fault injections observed since the previous tick.
    pub faults: u64,
    /// Subtree migrations since the previous tick.
    pub migrations: u64,
    /// Trace spans shed by the sink since the previous tick.
    pub spans_dropped: u64,
    /// Worst per-MDS WAL fsync p99 (µs) at this tick; 0 without a store.
    pub wal_fsync_p99_us: u64,
    /// Per-MDS load (served ops or popularity mass) at this tick.
    pub loads: Vec<f64>,
}

impl HealthTick {
    /// Writes the tick as one JSON object — a [`FlightRecorder::to_jsonl`]
    /// line and `/health`'s `latest` member.
    pub fn write_json(&self, w: &mut Writer<'_>) {
        w.open('{');
        w.key("tick").uint(self.tick).key("t_us").uint(self.t_us);
        w.key("t_ms").uint(self.t_ms);
        w.key("locality").float(self.locality);
        w.key("balance").float(self.balance);
        w.key("ops")
            .uint(self.ops)
            .key("retries")
            .uint(self.retries);
        w.key("faults").uint(self.faults);
        w.key("migrations").uint(self.migrations);
        w.key("spans_dropped").uint(self.spans_dropped);
        w.key("wal_fsync_p99_us").uint(self.wal_fsync_p99_us);
        w.key("loads").open('[');
        for &l in &self.loads {
            w.float(l);
        }
        w.close(']').close('}');
    }
}

/// Cumulative inputs for one tick; the recorder differences them
/// against the previous sample itself.
///
/// Callers pass running totals (which is what simulators and registries
/// naturally hold); [`FlightRecorder::sample`] turns them into the
/// per-tick deltas stored in [`HealthTick`].
#[derive(Debug, Clone, Default)]
pub struct TickSample {
    /// Sample time in microseconds.
    pub t_us: u64,
    /// Def. 3 locality right now (NaN if unknown).
    pub locality: f64,
    /// Def. 5 balance right now.
    pub balance: f64,
    /// Cumulative operations completed.
    pub ops_total: u64,
    /// Cumulative retries/forwards/extra hops.
    pub retries_total: u64,
    /// Cumulative subtree migrations.
    pub migrations_total: u64,
    /// Per-MDS load right now.
    pub loads: Vec<f64>,
}

/// Fixed-capacity ring of [`HealthTick`]s, newest last.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ticks: VecDeque<HealthTick>,
    total: u64,
    prev_ops: u64,
    prev_retries: u64,
    prev_migrations: u64,
    prev_faults: u64,
    prev_dropped: u64,
}

impl FlightRecorder {
    /// A recorder keeping the newest `capacity` ticks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "recorder needs room for at least one tick");
        FlightRecorder {
            capacity,
            ticks: VecDeque::with_capacity(capacity),
            total: 0,
            prev_ops: 0,
            prev_retries: 0,
            prev_migrations: 0,
            prev_faults: 0,
            prev_dropped: 0,
        }
    }

    /// Ring capacity in ticks.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Ticks currently held (≤ capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ticks.len()
    }

    /// Whether no tick has been kept.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ticks.is_empty()
    }

    /// Ticks recorded over the recorder's lifetime, including evicted
    /// ones.
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// The held ticks, oldest first.
    pub fn ticks(&self) -> impl Iterator<Item = &HealthTick> {
        self.ticks.iter()
    }

    /// The newest tick, if any.
    #[must_use]
    pub fn latest(&self) -> Option<&HealthTick> {
        self.ticks.back()
    }

    /// Records one sample: differences the cumulative counters in `s`
    /// against the previous sample, pulls fault/shed/fsync signals from
    /// `registry` (when attached), and appends the tick — evicting the
    /// oldest when the ring is full.
    pub fn sample(&mut self, s: TickSample, registry: Option<&Registry>) -> &HealthTick {
        let (faults_total, dropped_total, fsync_p99) = registry.map_or((0, 0, 0), registry_signals);
        let tick = HealthTick {
            tick: self.total,
            t_us: s.t_us,
            t_ms: s.t_us / 1000,
            locality: s.locality,
            balance: s.balance,
            ops: s.ops_total.saturating_sub(self.prev_ops),
            retries: s.retries_total.saturating_sub(self.prev_retries),
            faults: faults_total.saturating_sub(self.prev_faults),
            migrations: s.migrations_total.saturating_sub(self.prev_migrations),
            spans_dropped: dropped_total.saturating_sub(self.prev_dropped),
            wal_fsync_p99_us: fsync_p99,
            loads: s.loads,
        };
        self.prev_ops = s.ops_total;
        self.prev_retries = s.retries_total;
        self.prev_migrations = s.migrations_total;
        self.prev_faults = faults_total;
        self.prev_dropped = dropped_total;
        self.total += 1;
        if self.ticks.len() == self.capacity {
            self.ticks.pop_front();
        }
        self.ticks.push_back(tick);
        self.ticks.back().expect("just pushed")
    }

    /// The trajectory as JSON Lines: one object per held tick, oldest
    /// first. Non-finite locality/balance serialize as `null`.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for t in &self.ticks {
            t.write_json(&mut Writer::new(&mut out));
            out.push('\n');
        }
        out
    }

    /// The trajectory as CSV with a header row (loads joined by `;` in
    /// one column, so the column set is fixed regardless of cluster
    /// size). Non-finite locality/balance render as `inf`/`nan`.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "tick,t_us,t_ms,locality,balance,ops,retries,faults,migrations,\
             spans_dropped,wal_fsync_p99_us,loads\n",
        );
        for t in &self.ticks {
            let loads: Vec<String> = t.loads.iter().map(|l| format!("{l}")).collect();
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{}\n",
                t.tick,
                t.t_us,
                t.t_ms,
                t.locality,
                t.balance,
                t.ops,
                t.retries,
                t.faults,
                t.migrations,
                t.spans_dropped,
                t.wal_fsync_p99_us,
                loads.join(";"),
            ));
        }
        out
    }
}

/// Cumulative fault count, cumulative trace sheds, and the worst WAL
/// fsync p99 across every MDS lane, read from a registry snapshot.
fn registry_signals(registry: &Registry) -> (u64, u64, u64) {
    let snap = registry.snapshot();
    let mut faults = 0u64;
    let mut dropped = 0u64;
    for (key, v) in &snap.counters {
        match key.name {
            names::FAULTS_DROPPED
            | names::FAULTS_DELAYED
            | names::FAULTS_DUPLICATED
            | names::FAULTS_STORAGE => faults += v,
            names::TRACE_SPANS_DROPPED => dropped += v,
            _ => {}
        }
    }
    let fsync_p99 = snap
        .histograms
        .iter()
        .filter(|(key, _)| key.name == names::WAL_FSYNC_US)
        .map(|(_, h)| h.p99)
        .max()
        .unwrap_or(0);
    (faults, dropped, fsync_p99)
}

/// Thresholds a health trajectory must respect.
///
/// Remember Def. 3 / Def. 5 are "bigger is better" (reciprocals of a
/// penalty): the balance rule is a floor, the others ceilings. Ticks
/// with index `< warmup_ticks` are exempt — the first rounds of a
/// drift run start from a placement built for no popularity at all.
#[derive(Debug, Clone)]
pub struct HealthRules {
    /// Floor on Def. 5 balance after warm-up.
    pub min_balance: f64,
    /// Ceiling on retries per completed op in any tick.
    pub max_retry_rate: f64,
    /// Ceiling on the per-tick WAL fsync p99, microseconds
    /// (0 disables the rule — e.g. runs without a durable store).
    pub max_fsync_p99_us: u64,
    /// Ticks at the start of the trajectory exempt from the rules.
    pub warmup_ticks: u64,
}

impl Default for HealthRules {
    fn default() -> Self {
        HealthRules {
            min_balance: 1.0,
            max_retry_rate: 1.0,
            max_fsync_p99_us: 0,
            warmup_ticks: 1,
        }
    }
}

/// One rule broken at one tick.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The offending tick number.
    pub tick: u64,
    /// Which rule broke (stable machine-readable label).
    pub rule: &'static str,
    /// The observed value.
    pub value: f64,
    /// The configured limit it crossed.
    pub limit: f64,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tick {}: {} ({:.4} vs limit {:.4})",
            self.tick, self.rule, self.value, self.limit
        )
    }
}

/// Rule label: Def. 5 balance under the floor.
pub const RULE_BALANCE: &str = "balance_below_min";
/// Rule label: retry rate over the ceiling.
pub const RULE_RETRY_RATE: &str = "retry_rate_above_max";
/// Rule label: WAL fsync p99 over the ceiling.
pub const RULE_FSYNC_P99: &str = "fsync_p99_above_max";

impl HealthRules {
    /// Checks every tick after warm-up; returns all violations in tick
    /// order (empty means healthy).
    #[must_use]
    pub fn check<'a>(&self, ticks: impl IntoIterator<Item = &'a HealthTick>) -> Vec<Violation> {
        let mut out = Vec::new();
        for t in ticks {
            if t.tick < self.warmup_ticks {
                continue;
            }
            // NaN balance never fires (no data is not imbalance);
            // comparisons with NaN are false, which is what we want.
            if t.balance < self.min_balance {
                out.push(Violation {
                    tick: t.tick,
                    rule: RULE_BALANCE,
                    value: t.balance,
                    limit: self.min_balance,
                });
            }
            if t.ops > 0 {
                let rate = t.retries as f64 / t.ops as f64;
                if rate > self.max_retry_rate {
                    out.push(Violation {
                        tick: t.tick,
                        rule: RULE_RETRY_RATE,
                        value: rate,
                        limit: self.max_retry_rate,
                    });
                }
            }
            if self.max_fsync_p99_us > 0 && t.wal_fsync_p99_us > self.max_fsync_p99_us {
                out.push(Violation {
                    tick: t.tick,
                    rule: RULE_FSYNC_P99,
                    value: t.wal_fsync_p99_us as f64,
                    limit: self.max_fsync_p99_us as f64,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: u64, balance: f64) -> TickSample {
        TickSample {
            t_us: t * 1000,
            locality: 2.5,
            balance,
            ops_total: t * 100,
            retries_total: t * 3,
            migrations_total: t,
            loads: vec![1.0, 2.0],
        }
    }

    #[test]
    fn deltas_are_differenced_and_numbering_survives_eviction() {
        let mut rec = FlightRecorder::new(3);
        for t in 1..=5 {
            rec.sample(sample(t, 10.0), None);
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.total_recorded(), 5);
        let ticks: Vec<_> = rec.ticks().collect();
        // Oldest held tick is #2 (0 and 1 evicted), deltas are per-tick.
        assert_eq!(ticks[0].tick, 2);
        assert_eq!(ticks[2].tick, 4);
        assert!(ticks.iter().all(|t| t.ops == 100 && t.retries == 3));
        assert_eq!(rec.latest().expect("non-empty").t_us, 5000);
    }

    #[test]
    fn jsonl_and_csv_render_every_held_tick() {
        let mut rec = FlightRecorder::new(4);
        rec.sample(sample(1, f64::INFINITY), None);
        rec.sample(sample(2, 7.25), None);
        let jsonl = rec.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"balance\":null"), "inf → null: {jsonl}");
        assert!(jsonl.contains("\"balance\":7.25"));
        assert!(jsonl.contains("\"loads\":[1,2]"));
        let csv = rec.to_csv();
        assert_eq!(csv.lines().count(), 3, "header + 2 rows");
        assert!(csv.starts_with("tick,t_us,t_ms,locality,balance"));
        assert!(csv.contains("1;2"), "loads joined by ';': {csv}");
    }

    /// Pins the export schema: the exact CSV header and the exact JSONL
    /// key set, in order. Live `/health` consumers and post-hoc
    /// `d2tree health` tooling join rows on (`tick`, `t_ms`), so a
    /// renamed or reordered column is a breaking change this test must
    /// catch before it ships.
    #[test]
    fn export_schema_is_pinned() {
        let mut rec = FlightRecorder::new(2);
        rec.sample(sample(3, 4.5), None);
        let csv = rec.to_csv();
        assert_eq!(
            csv.lines().next().expect("header"),
            "tick,t_us,t_ms,locality,balance,ops,retries,faults,migrations,\
             spans_dropped,wal_fsync_p99_us,loads"
        );
        let row = csv.lines().nth(1).expect("one data row");
        assert_eq!(row.split(',').count(), 12, "column count: {row}");

        let jsonl = rec.to_jsonl();
        let line = jsonl.lines().next().expect("one JSONL row");
        let keys: Vec<&str> = line
            .match_indices('"')
            .collect::<Vec<_>>()
            .chunks(2)
            .map(|pair| &line[pair[0].0 + 1..pair[1].0])
            .collect();
        assert_eq!(
            keys,
            [
                "tick",
                "t_us",
                "t_ms",
                "locality",
                "balance",
                "ops",
                "retries",
                "faults",
                "migrations",
                "spans_dropped",
                "wal_fsync_p99_us",
                "loads"
            ]
        );
        // t_ms is derived from t_us by integer division; tick numbering
        // is monotone from 0 — the join key is stable across exports.
        assert!(line.contains("\"t_us\":3000") && line.contains("\"t_ms\":3"));
        assert!(line.starts_with("{\"tick\":0,"));
    }

    #[test]
    fn registry_signals_feed_faults_sheds_and_fsync() {
        let registry = Registry::new();
        registry
            .counter(MetricKey::global(names::FAULTS_DROPPED))
            .add(4);
        registry
            .counter(MetricKey::global(names::FAULTS_STORAGE))
            .add(1);
        registry
            .counter(MetricKey::global(names::TRACE_SPANS_DROPPED))
            .add(9);
        registry
            .histogram(MetricKey::mds(names::WAL_FSYNC_US, 0))
            .record(100);
        registry
            .histogram(MetricKey::mds(names::WAL_FSYNC_US, 1))
            .record(900);
        let mut rec = FlightRecorder::new(2);
        let tick = rec.sample(sample(1, 5.0), Some(&registry)).clone();
        assert_eq!(tick.faults, 5);
        assert_eq!(tick.spans_dropped, 9);
        assert!(tick.wal_fsync_p99_us >= 900, "worst lane p99 wins");
        // Second sample with no counter movement: deltas collapse to 0.
        let tick2 = rec.sample(sample(2, 5.0), Some(&registry)).clone();
        assert_eq!((tick2.faults, tick2.spans_dropped), (0, 0));
    }

    #[test]
    fn rules_flag_imbalance_retry_spikes_and_fsync_regressions() {
        let mut rec = FlightRecorder::new(8);
        rec.sample(sample(1, 0.1), None); // warm-up: exempt
        rec.sample(sample(2, 0.1), None); // imbalance
        rec.sample(
            TickSample {
                t_us: 3000,
                locality: 2.0,
                balance: 50.0,
                ops_total: 210,
                retries_total: 200, // 194 retries / 10 ops this tick
                migrations_total: 3,
                loads: vec![1.0],
            },
            None,
        );
        let rules = HealthRules {
            min_balance: 1.0,
            max_retry_rate: 0.5,
            max_fsync_p99_us: 0,
            warmup_ticks: 1,
        };
        let violations = rules.check(rec.ticks());
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert_eq!(violations[0].rule, RULE_BALANCE);
        assert_eq!(violations[0].tick, 1);
        assert_eq!(violations[1].rule, RULE_RETRY_RATE);
        // Fsync rule fires only when enabled and exceeded.
        let mut rec2 = FlightRecorder::new(2);
        let registry = Registry::new();
        registry
            .histogram(MetricKey::mds(names::WAL_FSYNC_US, 0))
            .record(10_000);
        rec2.sample(sample(1, 100.0), Some(&registry));
        rec2.sample(sample(2, 100.0), Some(&registry));
        let fsync_rules = HealthRules {
            max_fsync_p99_us: 5_000,
            warmup_ticks: 0,
            ..HealthRules::default()
        };
        let v = fsync_rules.check(rec2.ticks());
        assert!(
            v.iter().all(|v| v.rule == RULE_FSYNC_P99) && !v.is_empty(),
            "{v:?}"
        );
        assert!(
            HealthRules::default().max_fsync_p99_us == 0,
            "off by default"
        );
    }

    #[test]
    #[should_panic(expected = "at least one tick")]
    fn zero_capacity_panics() {
        let _ = FlightRecorder::new(0);
    }
}
