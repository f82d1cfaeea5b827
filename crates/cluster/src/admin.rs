//! Live admin plane: a second listener on a running `d2tree serve`
//! daemon answering operator HTTP GETs from the daemon's own telemetry.
//!
//! Every observability surface before this PR was post-mortem — the
//! registry export, span digests, and the flight recorder were only
//! written out after a run ended. The [`AdminServer`] makes them live:
//!
//! * `GET /metrics` — Prometheus text from a registry snapshot taken at
//!   scrape time (race-safe against concurrently recording serve
//!   threads; see `Histogram::snapshot`).
//! * `GET /metrics.json` — the same snapshot as a JSON document, the
//!   feed `d2tree top` polls.
//! * `GET /health` — [`HealthRules`] evaluated over the flight
//!   recorder's current ring contents: `200` when no rule is violated,
//!   `503` otherwise, either way with a JSON body carrying the verdict,
//!   the violations, and the latest tick.
//! * `GET /trace?n=K` — the last `K` sealed span segments rendered as a
//!   Chrome `chrome://tracing` JSON document, *without* consuming them
//!   (the shutdown export still sees everything).
//! * `GET /slow` — the daemon's bounded slow-request log, slowest
//!   first, with trace ids for joining against `/trace`.
//!
//! The protocol is a deliberately minimal HTTP/1.0 subset: one GET per
//! connection, `Connection: close`, no keep-alive, no request bodies.
//! That keeps the parser small enough to be obviously robust — the
//! request head is reassembled byte-at-a-time-safe exactly like the
//! frame codec, bounded in size, and answered with `400`/`404`/`405`/
//! `408`/`414` instead of hanging or crashing on garbage. Real browsers
//! and `curl` speak it happily.
//!
//! The listener reuses [`AcceptLoop`] — the same accept-thread /
//! stop-flag / self-connect-wake machinery as the frame-codec
//! [`NetServer`](crate::net::NetServer) — so shutdown semantics are
//! identical: killing the daemon mid-scrape drops the scrape connection
//! within one poll interval and nothing else.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use d2tree_telemetry::trace::chrome_trace_json;
use d2tree_telemetry::{
    export, names, Counter, FlightRecorder, HealthRules, HistogramSnapshot, MetricKey,
};
use parking_lot::Mutex;

use crate::net::{AcceptLoop, NetMds, SlowEntry};

/// Tuning of an [`AdminServer`].
#[derive(Debug, Clone)]
pub struct AdminConfig {
    /// Read timeout on scrape sockets, which doubles as the stop-flag
    /// poll granularity (mirrors `NetServerConfig::poll_interval`).
    pub poll_interval: Duration,
    /// How often the sampling ticker feeds the flight recorder.
    pub tick_interval: Duration,
    /// Flight-recorder ring capacity, in ticks.
    pub recorder_capacity: usize,
    /// Rules `/health` evaluates over the ring.
    pub rules: HealthRules,
    /// Cap on the request head (request line + headers) in bytes.
    pub max_head: usize,
    /// Cap on the request path in bytes (`414` beyond it).
    pub max_path: usize,
    /// How long a connection may dribble its request head before the
    /// server answers `408` and closes.
    pub head_deadline: Duration,
    /// Default and maximum span count for `/trace`.
    pub trace_default_spans: usize,
    /// Hard cap on `/trace?n=K` (a scrape must not decode unboundedly).
    pub trace_max_spans: usize,
}

impl Default for AdminConfig {
    fn default() -> Self {
        AdminConfig {
            poll_interval: Duration::from_millis(25),
            tick_interval: Duration::from_millis(250),
            recorder_capacity: 256,
            rules: HealthRules::default(),
            max_head: 8 * 1024,
            max_path: 1024,
            head_deadline: Duration::from_secs(2),
            trace_default_spans: 256,
            trace_max_spans: 4096,
        }
    }
}

/// Totals an [`AdminServer`] accumulated, reported by
/// [`AdminServer::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdminStats {
    /// Successfully answered scrapes (`200` and `503` both count — a
    /// `503` health verdict is a scrape that worked).
    pub scrapes: u64,
    /// Requests answered with a `4xx` protocol error.
    pub errors: u64,
}

/// Shared state behind every scrape connection and the sampling ticker.
struct AdminState {
    mds: Arc<NetMds>,
    recorder: Mutex<FlightRecorder>,
    rules: HealthRules,
    scrapes: Arc<Counter>,
    errors: Arc<Counter>,
    config: AdminConfig,
}

/// The admin-plane listener plus its sampling ticker.
///
/// Binding starts both; [`shutdown`](Self::shutdown) (or drop) stops
/// the ticker and drains every scrape connection through the shared
/// [`AcceptLoop`] stop flag.
pub struct AdminServer {
    acceptor: AcceptLoop,
    ticker: Option<JoinHandle<()>>,
    scrapes: Arc<Counter>,
    errors: Arc<Counter>,
}

impl std::fmt::Debug for AdminServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdminServer")
            .field("addr", &self.acceptor.local_addr())
            .finish_non_exhaustive()
    }
}

impl AdminServer {
    /// Binds the admin listener at `addr` (port 0 for ephemeral) over
    /// the daemon `mds`, and starts the flight-recorder ticker.
    ///
    /// # Errors
    ///
    /// Propagates bind failures (address in use, permission denied).
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        mds: Arc<NetMds>,
        config: AdminConfig,
    ) -> io::Result<AdminServer> {
        let registry = Arc::clone(mds.registry());
        let scrapes = registry.counter(MetricKey::global(names::ADMIN_SCRAPES_TOTAL));
        let errors = registry.counter(MetricKey::global(names::ADMIN_ERRORS_TOTAL));
        let state = Arc::new(AdminState {
            mds: Arc::clone(&mds),
            recorder: Mutex::new(FlightRecorder::new(config.recorder_capacity)),
            rules: config.rules.clone(),
            scrapes: Arc::clone(&scrapes),
            errors: Arc::clone(&errors),
            config: config.clone(),
        });
        let acceptor = {
            let state = Arc::clone(&state);
            AcceptLoop::spawn(addr, config.poll_interval, move |stream, stop| {
                handle_conn(stream, stop, &state);
            })?
        };
        let ticker = {
            let stop = acceptor.stop_flag();
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                // First sample immediately: /health has data as soon as
                // the daemon is reachable, not one tick later.
                loop {
                    {
                        let sample = state.mds.tick_sample();
                        let registry = Arc::clone(state.mds.registry());
                        state.recorder.lock().sample(sample, Some(&registry));
                    }
                    let mut slept = Duration::ZERO;
                    while slept < state.config.tick_interval {
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        let nap = state
                            .config
                            .poll_interval
                            .min(state.config.tick_interval - slept);
                        std::thread::sleep(nap);
                        slept += nap;
                    }
                }
            })
        };
        Ok(AdminServer {
            acceptor,
            ticker: Some(ticker),
            scrapes,
            errors,
        })
    }

    /// The address the admin listener actually bound.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.acceptor.local_addr()
    }

    fn stop_and_join(&mut self) {
        self.acceptor.stop_and_join();
        if let Some(ticker) = self.ticker.take() {
            ticker.join().expect("admin ticker panicked");
        }
    }

    /// Stops the listener and ticker, drains in-flight scrapes, and
    /// reports totals.
    ///
    /// # Panics
    ///
    /// Panics if the accept loop, a scrape handler, or the ticker
    /// panicked.
    #[must_use]
    pub fn shutdown(mut self) -> AdminStats {
        self.stop_and_join();
        AdminStats {
            scrapes: self.scrapes.get(),
            errors: self.errors.get(),
        }
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// How reading one request head ended.
enum Head {
    /// A complete head (blank line seen, or EOF after at least a line).
    Complete,
    /// The head outgrew [`AdminConfig::max_head`].
    TooBig,
    /// The peer dribbled past [`AdminConfig::head_deadline`].
    Timeout,
    /// Shutdown or a dead socket: drop without answering.
    Drop,
}

/// True once `head` holds a complete request head: an empty line ends
/// the header block (tolerating bare-`\n` clients).
fn head_complete(head: &[u8]) -> bool {
    head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n")
}

/// Reads one request head from `stream` into `head`, byte-dribble-safe
/// and bounded in both size and time, polling `stop` every read
/// timeout exactly like the frame-codec connection loop.
fn read_head(
    stream: &mut TcpStream,
    stop: &AtomicBool,
    head: &mut Vec<u8>,
    cfg: &AdminConfig,
) -> Head {
    let deadline = Instant::now() + cfg.head_deadline;
    let mut buf = [0u8; 1024];
    loop {
        if head_complete(head) {
            return Head::Complete;
        }
        if head.len() > cfg.max_head {
            return Head::TooBig;
        }
        if stop.load(Ordering::SeqCst) {
            return Head::Drop;
        }
        if Instant::now() >= deadline {
            return Head::Timeout;
        }
        match stream.read(&mut buf) {
            // EOF: a hand-rolled client may close after just the
            // request line; parse whatever arrived (or drop a probe
            // that sent nothing at all).
            Ok(0) => {
                return if head.is_empty() {
                    Head::Drop
                } else {
                    Head::Complete
                };
            }
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Head::Drop,
        }
    }
}

/// One scrape connection: read the head, dispatch, answer, close.
fn handle_conn(mut stream: TcpStream, stop: &AtomicBool, state: &AdminState) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(state.config.poll_interval));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let mut head = Vec::new();
    let (status, content_type, body) = match read_head(&mut stream, stop, &mut head, &state.config)
    {
        Head::Complete => dispatch(&head, state),
        Head::TooBig => (414, "text/plain", "request head too large\n".to_owned()),
        Head::Timeout => (408, "text/plain", "request head timed out\n".to_owned()),
        Head::Drop => return,
    };
    // A 503 health verdict is still a successful scrape; only protocol
    // errors land in the error counter.
    if status == 200 || status == 503 {
        state.scrapes.inc();
    } else {
        state.errors.inc();
    }
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        414 => "URI Too Long",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Parses the request line out of a complete head and routes it.
fn dispatch(head: &[u8], state: &AdminState) -> (u16, &'static str, String) {
    let Ok(text) = std::str::from_utf8(head) else {
        return (400, "text/plain", "request line is not UTF-8\n".to_owned());
    };
    let line = text.lines().next().unwrap_or("");
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m, t),
        _ => return (400, "text/plain", "malformed request line\n".to_owned()),
    };
    if target.len() > state.config.max_path {
        return (414, "text/plain", "request path too long\n".to_owned());
    }
    if !target.starts_with('/') {
        return (
            400,
            "text/plain",
            "request path must be absolute\n".to_owned(),
        );
    }
    if method != "GET" {
        return (405, "text/plain", "only GET is served\n".to_owned());
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    match path {
        "/metrics" => {
            let snap = state.mds.registry().snapshot();
            (
                200,
                "text/plain; version=0.0.4",
                export::prometheus_text(&snap),
            )
        }
        "/metrics.json" => {
            let snap = state.mds.registry().snapshot();
            (200, "application/json", export::json(&snap))
        }
        "/health" => health_body(state),
        "/trace" => {
            let n = query
                .and_then(|q| {
                    q.split('&')
                        .find_map(|kv| kv.strip_prefix("n=").and_then(|v| v.parse::<usize>().ok()))
                })
                .unwrap_or(state.config.trace_default_spans)
                .min(state.config.trace_max_spans);
            let spans = state
                .mds
                .tracer()
                .map(|tr| tr.sink().peek_recent(n))
                .unwrap_or_default();
            (200, "application/json", chrome_trace_json(&spans))
        }
        "/slow" => (
            200,
            "application/json",
            slow_body(&state.mds.slow_requests()),
        ),
        _ => (404, "text/plain", "unknown path\n".to_owned()),
    }
}

/// Evaluates the health rules over the recorder ring: `200` when clean,
/// `503` when any post-warm-up tick violates a rule.
fn health_body(state: &AdminState) -> (u16, &'static str, String) {
    let recorder = state.recorder.lock();
    let violations = state.rules.check(recorder.ticks());
    let latest = recorder
        .to_jsonl()
        .lines()
        .last()
        .map_or_else(|| "null".to_owned(), str::to_owned);
    let mut body = String::from("{\"status\":\"");
    body.push_str(if violations.is_empty() {
        "ok"
    } else {
        "unhealthy"
    });
    body.push_str(&format!(
        "\",\"ticks\":{},\"violations\":[",
        recorder.total_recorded()
    ));
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"tick\":{},\"rule\":\"{}\",\"value\":{},\"limit\":{}}}",
            v.tick,
            v.rule,
            finite_or_null(v.value),
            finite_or_null(v.limit),
        ));
    }
    body.push_str("],\"latest\":");
    body.push_str(&latest);
    body.push('}');
    let status = if violations.is_empty() { 200 } else { 503 };
    (status, "application/json", body)
}

fn finite_or_null(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Renders the slow-request log as a JSON array, slowest first.
fn slow_body(entries: &[SlowEntry]) -> String {
    let mut out = String::from("[");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let trace = e.trace.map_or_else(|| "null".to_owned(), |t| t.to_string());
        out.push_str(&format!(
            "{{\"dur_us\":{},\"t_us\":{},\"kind\":\"{:?}\",\"target\":{},\
             \"outcome\":{},\"trace\":{trace}}}",
            e.dur_us, e.t_us, e.kind, e.target, e.outcome
        ));
    }
    out.push(']');
    out
}

/// Issues one admin-plane GET and returns `(status, body)`.
///
/// A convenience for `d2tree top`, the load generator's mid-run
/// scraper, tests, and CI — it speaks exactly the HTTP/1.0 subset the
/// server serves: one request, read to EOF, connection closed.
///
/// # Errors
///
/// Propagates connect/read/write failures; a response without a
/// parsable status line reports [`io::ErrorKind::InvalidData`].
pub fn admin_get(addr: &str, path: &str, timeout: Duration) -> io::Result<(u16, String)> {
    let sockaddr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "address resolved empty"))?;
    let mut stream = TcpStream::connect_timeout(&sockaddr, timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let status: u16 = text
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unparsable status line"))?;
    let body = match text.find("\r\n\r\n") {
        Some(i) => text[i + 4..].to_owned(),
        None => String::new(),
    };
    Ok((status, body))
}

/// A parsed `/metrics.json` document — the subset `d2tree top` and the
/// load generator's scraper need, extracted by a hand-rolled scanner
/// over the exporter's (stable, machine-written) output format. Each
/// entry is `(name, mds_lane, value)`.
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
    /// Sum of a counter across every lane (global + per-MDS).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(n, _, _)| n == name)
            .map(|&(_, _, v)| v)
            .sum()
    }

    /// Sum of a gauge across every lane.
    #[must_use]
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .filter(|(n, _, _)| n == name)
            .map(|&(_, _, v)| v)
            .sum()
    }

    /// A histogram summary for `name`: counts and sums are added across
    /// lanes; quantiles/min/max come from the busiest lane (quantiles
    /// cannot be merged exactly — for a single daemon there is only one
    /// lane anyway).
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        let lanes: Vec<&HistogramSnapshot> = self
            .histograms
            .iter()
            .filter(|(n, _, _)| n == name)
            .map(|(_, _, h)| h)
            .collect();
        let busiest = lanes.iter().max_by_key(|h| h.count)?;
        let mut merged = **busiest;
        merged.count = lanes.iter().map(|h| h.count).sum();
        merged.sum = lanes.iter().map(|h| h.sum).sum();
        Some(merged)
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

/// Extracts the body of `"key":[ ... ]` from `doc`, bracket-balanced.
fn array_section<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":[");
    let start = doc.find(&pat)? + pat.len();
    let mut depth = 1usize;
    for (i, b) in doc[start..].bytes().enumerate() {
        match b {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&doc[start..start + i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Splits a flat JSON array body into its `{...}` objects.
fn objects(body: &str) -> impl Iterator<Item = &str> {
    body.split("},{")
        .map(|o| o.trim_matches(|c| c == '{' || c == '}'))
        .filter(|o| !o.is_empty())
}

/// The raw text of `"key":<value>` inside one flat object.
fn field_raw<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = obj.find(&pat)? + pat.len();
    let rest = &obj[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

fn field_u64(obj: &str, key: &str) -> Option<u64> {
    field_raw(obj, key)?.trim().parse().ok()
}

fn field_key(obj: &str) -> Option<(String, Option<u16>)> {
    let name = field_raw(obj, "name")?.trim_matches('"').to_owned();
    let mds = match field_raw(obj, "mds")? {
        "null" => None,
        m => Some(m.parse().ok()?),
    };
    Some((name, mds))
}

/// Parses the exporter's `/metrics.json` document. Returns `None` on
/// anything that does not look like the exporter's output — the caller
/// (a polling `top`) should skip the sample, not crash.
#[must_use]
pub fn parse_metrics_json(doc: &str) -> Option<MetricsDoc> {
    let uptime_us = field_u64(doc, "uptime_us")?;
    let mut out = MetricsDoc {
        uptime_us,
        ..MetricsDoc::default()
    };
    for obj in objects(array_section(doc, "counters")?) {
        let (name, mds) = field_key(obj)?;
        out.counters.push((name, mds, field_u64(obj, "value")?));
    }
    for obj in objects(array_section(doc, "gauges")?) {
        let (name, mds) = field_key(obj)?;
        out.gauges.push((name, mds, field_u64(obj, "value")?));
    }
    for obj in objects(array_section(doc, "histograms")?) {
        let (name, mds) = field_key(obj)?;
        let h = HistogramSnapshot {
            count: field_u64(obj, "count")?,
            sum: field_u64(obj, "sum")?,
            min: field_u64(obj, "min")?,
            max: field_u64(obj, "max")?,
            p50: field_u64(obj, "p50")?,
            p90: field_u64(obj, "p90")?,
            p99: field_u64(obj, "p99")?,
            p999: field_u64(obj, "p999")?,
        };
        out.histograms.push((name, mds, h));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2tree_telemetry::Registry;

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
        let doc = export::json(&snapshot);
        let parsed = parse_metrics_json(&doc).expect("exporter output parses");
        assert_eq!(parsed.counter(names::SERVER_SERVED_TOTAL), 12);
        assert_eq!(parsed.gauge(names::NET_ACTIVE_CONNS), 3);
        let snap = parsed
            .histogram(names::SRV_LATENCY_US_READ_OK)
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
        assert!(parse_metrics_json("").is_none());
        assert!(parse_metrics_json("not json at all").is_none());
        assert!(parse_metrics_json("{\"uptime_us\":5}").is_none());
    }

    #[test]
    fn head_completion_tolerates_bare_newlines() {
        assert!(head_complete(b"GET / HTTP/1.0\r\n\r\n"));
        assert!(head_complete(b"GET / HTTP/1.0\n\n"));
        assert!(!head_complete(b"GET / HTTP/1.0\r\n"));
        assert!(!head_complete(b"GET"));
    }
}
