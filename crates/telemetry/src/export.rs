//! Snapshot exporters: Prometheus text exposition and JSON, plus the
//! reader of the JSON form ([`parse_metrics_json`]).
//!
//! Both are hand-rolled so the crate stays free of external
//! dependencies; the JSON goes through [`crate::json`]. Metric names
//! are prefixed `d2tree_` and sanitised to `[a-zA-Z0-9_]`.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::journal::{Event, EventKind};
use crate::json::{self, Writer};
use crate::metrics::{HistogramSnapshot, MetricKey, Snapshot};

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn prom_line(
    out: &mut String,
    name: &str,
    key: MetricKey,
    extra: Option<(&str, &str)>,
    value: impl std::fmt::Display,
) {
    out.push_str(name);
    let mut labels = Vec::new();
    if let Some(m) = key.mds {
        labels.push(format!("mds=\"{m}\""));
    }
    if let Some((k, v)) = extra {
        labels.push(format!("{k}=\"{v}\""));
    }
    if !labels.is_empty() {
        let _ = write!(out, "{{{}}}", labels.join(","));
    }
    let _ = writeln!(out, " {value}");
}

/// Renders a snapshot in the Prometheus text exposition format.
///
/// Counters become `d2tree_<name>` counters, gauges become gauges, and
/// histograms become summary-style families with `_count`, `_sum` and
/// `{quantile="…"}` series. Journal contents are aggregated into
/// `d2tree_journal_events_total{kind="…"}`.
#[must_use]
pub fn prometheus_text(snap: &Snapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# D2-Tree telemetry snapshot (uptime {} us)",
        snap.uptime_us
    );

    for (kind, scalars) in [("counter", &snap.counters), ("gauge", &snap.gauges)] {
        let mut last_family = "";
        for &(key, value) in scalars {
            let name = format!("d2tree_{}", sanitize(key.name));
            if key.name != last_family {
                let _ = writeln!(out, "# TYPE {name} {kind}");
                last_family = key.name;
            }
            prom_line(&mut out, &name, key, None, value);
        }
    }

    let mut last_family = "";
    for &(key, h) in &snap.histograms {
        let family = key.name;
        let name = format!("d2tree_{}", sanitize(family));
        if family != last_family {
            let _ = writeln!(out, "# TYPE {name} summary");
            last_family = family;
        }
        for (q, v) in [
            ("0.5", h.p50),
            ("0.9", h.p90),
            ("0.99", h.p99),
            ("0.999", h.p999),
        ] {
            prom_line(&mut out, &name, key, Some(("quantile", q)), v);
        }
        prom_line(&mut out, &format!("{name}_count"), key, None, h.count);
        prom_line(&mut out, &format!("{name}_sum"), key, None, h.sum);
    }

    if !snap.events.is_empty() {
        let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
        for e in &snap.events {
            *by_kind.entry(e.kind.label()).or_default() += 1;
        }
        let _ = writeln!(out, "# TYPE d2tree_journal_events_total counter");
        for (kind, n) in by_kind {
            let _ = writeln!(out, "d2tree_journal_events_total{{kind=\"{kind}\"}} {n}");
        }
    }

    out
}

fn json_key(w: &mut Writer<'_>, key: MetricKey) {
    w.key("name").string(&sanitize(key.name));
    w.key("mds").opt_uint(key.mds);
}

fn json_event(w: &mut Writer<'_>, e: &Event) {
    w.open('{');
    w.key("seq").uint(e.seq).key("ts_us").uint(e.ts_us);
    w.key("kind").string(e.kind.label());
    match e.kind {
        EventKind::Heartbeat { mds, load } => {
            w.key("mds").uint(mds).key("load").float6(load);
        }
        EventKind::MdsDown { mds } | EventKind::MdsRecovered { mds } => {
            w.key("mds").uint(mds);
        }
        EventKind::SubtreeShed {
            from,
            subtree,
            size,
            popularity,
        } => {
            w.key("from").uint(from).key("subtree").uint(subtree);
            w.key("size").uint(size);
            w.key("popularity").float6(popularity);
        }
        EventKind::SubtreeClaimed {
            to,
            subtree,
            size,
            popularity,
        } => {
            w.key("to").uint(to).key("subtree").uint(subtree);
            w.key("size").uint(size);
            w.key("popularity").float6(popularity);
        }
        EventKind::GlRecut {
            promoted,
            demoted,
            churn,
        } => {
            w.key("promoted").uint(promoted);
            w.key("demoted").uint(demoted).key("churn").uint(churn);
        }
        EventKind::CacheMiss { client } => {
            w.key("client").uint(client);
        }
        EventKind::Forwarded { from, to } => {
            w.key("from").uint(from).key("to").uint(to);
        }
        EventKind::FaultInjected { fault, mds } => {
            w.key("fault").string(fault.label()).key("mds").uint(mds);
        }
        EventKind::MdsRejoined { mds, claimed } => {
            w.key("mds").uint(mds).key("claimed").uint(claimed);
        }
        EventKind::StoreRecovered {
            mds,
            records,
            torn_bytes,
            recovery_ms,
        } => {
            w.key("mds").uint(mds).key("records").uint(records);
            w.key("torn_bytes").uint(torn_bytes);
            w.key("recovery_ms").uint(recovery_ms);
        }
        EventKind::GlDeltaSync { mds, entries } => {
            w.key("mds").uint(mds).key("entries").uint(entries);
        }
        EventKind::LeaderElected { replica, term } => {
            w.key("replica").uint(replica).key("term").uint(term);
        }
        EventKind::LeaseGranted {
            node,
            fence,
            holder,
        } => {
            w.key("node").uint(node).key("fence").uint(fence);
            w.key("holder").uint(holder);
        }
        EventKind::FenceRejected { node, fence } => {
            w.key("node").uint(node).key("fence").uint(fence);
        }
    }
    w.close('}');
}

/// Renders the journal portion of a snapshot as JSON Lines: one event
/// object per line, in sequence order, so the journal can be dumped to
/// a file (`d2tree report --events-out`) and grepped or streamed.
#[must_use]
pub fn events_jsonl(snap: &Snapshot) -> String {
    let mut out = String::new();
    for e in &snap.events {
        json_event(&mut Writer::new(&mut out), e);
        out.push('\n');
    }
    out
}

/// Renders a snapshot as a self-contained JSON document — the
/// `/metrics.json` format [`parse_metrics_json`] reads back.
#[must_use]
pub fn json(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut w = Writer::new(&mut out);
    w.open('{').key("uptime_us").uint(snap.uptime_us);
    for (section, scalars) in [("counters", &snap.counters), ("gauges", &snap.gauges)] {
        w.key(section).open('[');
        for &(key, value) in scalars {
            w.open('{');
            json_key(&mut w, key);
            w.key("value").uint(value).close('}');
        }
        w.close(']');
    }
    w.key("histograms").open('[');
    for &(key, h) in &snap.histograms {
        w.open('{');
        json_key(&mut w, key);
        w.key("count").uint(h.count).key("sum").uint(h.sum);
        w.key("min").uint(h.min).key("max").uint(h.max);
        w.key("p50").uint(h.p50).key("p90").uint(h.p90);
        w.key("p99").uint(h.p99).key("p999").uint(h.p999);
        w.close('}');
    }
    w.close(']').key("events").open('[');
    for e in &snap.events {
        json_event(&mut w, e);
    }
    w.close(']').close('}');
    out
}

/// A parsed `/metrics.json` document — the subset `d2tree top` and
/// scrapers need, read back from [`json`]'s (stable, machine-written)
/// output. Each entry is `(name, mds_lane, value)`.
#[derive(Debug, Clone, Default)]
pub struct MetricsDoc {
    /// Registry uptime at scrape time, microseconds.
    pub uptime_us: u64,
    /// Counter values.
    pub counters: Vec<(String, Option<u16>, u64)>,
    /// Gauge values.
    pub gauges: Vec<(String, Option<u16>, u64)>,
    /// Histogram summaries.
    pub histograms: Vec<(String, Option<u16>, HistogramSnapshot)>,
}

impl MetricsDoc {
    /// Sum of a gauge across every lane (global + per-MDS).
    #[must_use]
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .filter(|(n, _, _)| n == name)
            .map(|&(_, _, v)| v)
            .sum()
    }

    /// Sum of every histogram lane count whose name passes `pred` —
    /// e.g. total server-observed requests across the op-kind ×
    /// outcome matrix.
    #[must_use]
    pub fn histogram_count_where(&self, pred: impl Fn(&str) -> bool) -> u64 {
        self.histograms
            .iter()
            .filter(|(n, _, _)| pred(n))
            .map(|(_, _, h)| h.count)
            .sum()
    }
}

/// One `"section":[{"name":…,"mds":…,<value fields>},…]` array.
fn parse_rows<T>(
    doc: &str,
    section: &str,
    value: impl Fn(&str) -> Option<T>,
) -> Option<Vec<(String, Option<u16>, T)>> {
    json::array_objects(doc, section)?
        .map(|obj| {
            let name = json::field(obj, "name")?.trim_matches('"').to_owned();
            let mds = match json::field(obj, "mds")? {
                "null" => None,
                m => Some(m.parse().ok()?),
            };
            Some((name, mds, value(obj)?))
        })
        .collect()
}

/// Parses [`json`]'s output. Returns `None` on anything that does not
/// look like it — the caller (a polling `top`) should skip the sample,
/// not crash.
#[must_use]
pub fn parse_metrics_json(doc: &str) -> Option<MetricsDoc> {
    let scalar = |obj: &str| json::field_u64(obj, "value");
    Some(MetricsDoc {
        uptime_us: json::field_u64(doc, "uptime_us")?,
        counters: parse_rows(doc, "counters", scalar)?,
        gauges: parse_rows(doc, "gauges", scalar)?,
        histograms: parse_rows(doc, "histograms", |obj| {
            Some(HistogramSnapshot {
                count: json::field_u64(obj, "count")?,
                sum: json::field_u64(obj, "sum")?,
                min: json::field_u64(obj, "min")?,
                max: json::field_u64(obj, "max")?,
                p50: json::field_u64(obj, "p50")?,
                p90: json::field_u64(obj, "p90")?,
                p99: json::field_u64(obj, "p99")?,
                p999: json::field_u64(obj, "p999")?,
            })
        })?,
    })
}

#[cfg(test)]
mod tests {
    use crate::metrics::{MetricKey, Registry};
    use crate::names;
    use crate::EventKind;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter(MetricKey::mds(names::MDS_OPS_TOTAL, 0)).add(10);
        r.counter(MetricKey::mds(names::MDS_OPS_TOTAL, 1)).add(20);
        r.gauge(MetricKey::mds(names::MDS_QUEUE_DEPTH_PEAK, 0))
            .set(4);
        let h = r.histogram(MetricKey::global(names::OP_LATENCY_US));
        for v in [10u64, 20, 30, 40, 1000] {
            h.record(v);
        }
        r.journal().record(EventKind::MdsDown { mds: 1 });
        r.journal().record(EventKind::SubtreeClaimed {
            to: 0,
            subtree: 42,
            size: 7,
            popularity: 0.25,
        });
        r
    }

    #[test]
    fn prometheus_text_contains_families_labels_and_quantiles() {
        let text = super::prometheus_text(&sample_registry().snapshot());
        assert!(
            text.contains("# TYPE d2tree_mds_ops_total counter"),
            "{text}"
        );
        assert!(
            text.contains("d2tree_mds_ops_total{mds=\"1\"} 20"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE d2tree_op_latency_us summary"),
            "{text}"
        );
        assert!(text.contains("quantile=\"0.99\""), "{text}");
        assert!(text.contains("d2tree_op_latency_us_count 5"), "{text}");
        assert!(
            text.contains("d2tree_journal_events_total{kind=\"mds_down\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn events_jsonl_is_one_object_per_line_in_seq_order() {
        let snap = sample_registry().snapshot();
        let doc = super::events_jsonl(&snap);
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines.len(), snap.events.len());
        assert!(lines[0].contains("\"kind\":\"mds_down\""), "{doc}");
        assert!(lines[1].contains("\"kind\":\"subtree_claimed\""), "{doc}");
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "{l}");
        }
    }

    #[test]
    fn registered_export_names_are_stable() {
        // The exported metric vocabulary is an external interface:
        // dashboards, the health CLI and the CI gates all key on these
        // exact strings. Renaming one must fail here first.
        const EXPECTED: &[&str] = &[
            "route_extra_hops",
            "lock_busy_ns",
            "client_cache_hits",
            "client_cache_misses",
            "forwarded_total",
            "migrations_total",
            "mds_failures_total",
            "faults_dropped_total",
            "faults_delayed_total",
            "faults_duplicated_total",
            "faults_storage_total",
            "rejoins_total",
            "wal_bytes_total",
            "wal_records_total",
            "snapshots_total",
            "gl_delta_sync_entries_total",
            "trace_spans_recorded_total",
            "trace_spans_dropped_total",
            "health_ticks_total",
            "health_violations_total",
            "elections_total",
            "leader_changes_total",
            "log_commits_total",
            "monitor_retries_total",
            "net_conns_total",
            "net_frames_total",
            "net_decode_errors_total",
            "net_conn_resets_total",
            "net_batches_total",
            "wal_group_commits_total",
            "net_active_conns",
            "net_batch_depth",
            "admin_scrapes_total",
            "admin_errors_total",
            "op_latency_us",
            "op_latency_us_read",
            "op_latency_us_write",
            "op_latency_us_update",
            "srv_latency_us_read_ok",
            "srv_latency_us_read_redirect",
            "srv_latency_us_read_error",
            "srv_latency_us_write_ok",
            "srv_latency_us_write_redirect",
            "srv_latency_us_write_error",
            "srv_latency_us_update_ok",
            "srv_latency_us_update_redirect",
            "srv_latency_us_update_error",
            "rejoin_first_claim_ms",
            "wal_append_us",
            "wal_fsync_us",
            "recovery_ms",
            "monitor_failover_ms",
        ];

        let r = Registry::new();
        names::register_all(&r);
        let snap = r.snapshot();
        // Every canonical name is pre-registered: exports carry the
        // full vocabulary as zero-valued series even on a run that
        // never touches a code path. 52 names as of the batched serving
        // path (net_batches_total, net_batch_depth,
        // wal_group_commits_total) — the CI net-smoke scrape gate keys
        // on this count too.
        assert_eq!(
            snap.counters.len() + snap.gauges.len() + snap.histograms.len(),
            EXPECTED.len()
        );
        assert_eq!(EXPECTED.len(), 52, "export vocabulary changed size");
        let prom = super::prometheus_text(&snap);
        let json = super::json(&snap);
        for name in EXPECTED {
            assert!(
                prom.contains(&format!("d2tree_{name}")),
                "{name} missing from Prometheus export"
            );
            assert!(
                json.contains(&format!("\"name\":\"{name}\"")),
                "{name} missing from JSON export"
            );
        }
    }

    #[test]
    fn json_is_structurally_sound() {
        let doc = super::json(&sample_registry().snapshot());
        assert!(doc.starts_with('{') && doc.ends_with('}'), "{doc}");
        assert_eq!(
            doc.matches('{').count(),
            doc.matches('}').count(),
            "unbalanced braces: {doc}"
        );
        assert!(
            doc.contains("\"name\":\"mds_ops_total\",\"mds\":1,\"value\":20"),
            "{doc}"
        );
        assert!(doc.contains("\"kind\":\"subtree_claimed\""), "{doc}");
        assert!(doc.contains("\"popularity\":0.25"), "{doc}");
    }

    #[test]
    fn parse_round_trips_the_exporter() {
        let registry = Registry::new();
        names::register_all(&registry);
        registry
            .counter(MetricKey::mds(names::SERVER_SERVED_TOTAL, 0))
            .add(7);
        registry
            .counter(MetricKey::mds(names::SERVER_SERVED_TOTAL, 1))
            .add(5);
        registry
            .gauge(MetricKey::global(names::NET_ACTIVE_CONNS))
            .add(3);
        let h = registry.histogram(MetricKey::mds(names::SRV_LATENCY_US_READ_OK, 0));
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        let snapshot = registry.snapshot();
        let doc = super::json(&snapshot);
        let parsed = super::parse_metrics_json(&doc).expect("exporter output parses");
        let served: Vec<_> = parsed
            .counters
            .iter()
            .filter(|(name, _, _)| name == names::SERVER_SERVED_TOTAL)
            .map(|&(_, mds, v)| (mds, v))
            .collect();
        assert_eq!(served, [(Some(0), 7), (Some(1), 5)]);
        assert_eq!(parsed.gauge(names::NET_ACTIVE_CONNS), 3);
        let (_, _, snap) = parsed
            .histograms
            .iter()
            .find(|(name, mds, _)| name == names::SRV_LATENCY_US_READ_OK && *mds == Some(0))
            .expect("histogram present");
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum, 60);
        assert_eq!(snap.min, 10);
        assert_eq!(parsed.uptime_us, snapshot.uptime_us);
        assert_eq!(
            parsed.histogram_count_where(|n| n.starts_with("srv_latency_us_")),
            3
        );
    }

    #[test]
    fn parse_rejects_garbage_gracefully() {
        assert!(super::parse_metrics_json("").is_none());
        assert!(super::parse_metrics_json("not json at all").is_none());
        assert!(super::parse_metrics_json("{\"uptime_us\":5}").is_none());
    }
}
