//! Live admin plane: a second listener on a running `d2tree serve`
//! daemon answering operator HTTP GETs from the daemon's own telemetry.
//!
//! The registry export, span digests and the flight recorder are
//! otherwise only written out after a run ends; the [`AdminServer`]
//! makes them live:
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
//! * `GET /trace?n=K` — the last `K` spans rendered as a
//!   Chrome `chrome://tracing` JSON document, *without* consuming them
//!   (the shutdown export still sees everything).
//! * `GET /slow` — the daemon's bounded slow-request log, one entry
//!   per slow batch, slowest first, with trace ids for joining against
//!   `/trace`.
//!
//! The protocol is a deliberately minimal HTTP/1.0 subset: one GET per
//! connection, `Connection: close`, no keep-alive, no request bodies.
//! That keeps the parser small enough to be obviously robust — the
//! request head is reassembled byte-at-a-time-safe exactly like the
//! frame codec, bounded in size, and answered with `400`/`404`/`405`/
//! `408`/`414` instead of hanging or crashing on garbage. Real browsers
//! and `curl` speak it happily.
//!
//! The listener reuses the crate's `AcceptLoop` — the same accept-thread /
//! stop-flag / self-connect-wake machinery as the frame-codec
//! [`NetServer`](crate::net::NetServer) — so shutdown semantics are
//! identical: killing the daemon mid-scrape drops the scrape connection
//! within one poll interval and nothing else.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use d2tree_telemetry::json::Writer;
use d2tree_telemetry::trace::chrome_trace_json;
use d2tree_telemetry::{export, names, Counter, FlightRecorder, HealthRules, MetricKey};

use crate::net::{AcceptLoop, NetMds, SlowEntry, POLL_INTERVAL};
use crate::sync;

/// Flight-recorder ring capacity, in ticks.
const RECORDER_CAPACITY: usize = 256;
/// Cap on the request head (request line + headers) in bytes.
const MAX_HEAD: usize = 8 * 1024;
/// Cap on the request path in bytes (`414` beyond it).
const MAX_PATH: usize = 1024;
/// How long a connection may dribble its request head before the
/// server answers `408` and closes.
const HEAD_DEADLINE: Duration = Duration::from_secs(2);
/// Span count `/trace` returns without `?n=K`.
const TRACE_DEFAULT_SPANS: usize = 256;
/// Hard cap on `/trace?n=K` (a scrape must not decode unboundedly).
const TRACE_MAX_SPANS: usize = 4096;

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
    scrapes: Arc<Counter>,
    errors: Arc<Counter>,
}

/// The admin-plane listener plus its sampling ticker.
///
/// Binding starts both; [`shutdown`](Self::shutdown) (or drop) stops
/// the ticker and drains every scrape connection through the shared
/// `AcceptLoop` stop flag.
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
    /// the daemon `mds`, and starts the flight-recorder ticker, which
    /// samples the daemon every `tick_interval`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures (address in use, permission denied).
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        mds: Arc<NetMds>,
        tick_interval: Duration,
    ) -> io::Result<AdminServer> {
        let registry = Arc::clone(mds.registry());
        let scrapes = registry.counter(MetricKey::global(names::ADMIN_SCRAPES_TOTAL));
        let errors = registry.counter(MetricKey::global(names::ADMIN_ERRORS_TOTAL));
        let state = Arc::new(AdminState {
            mds: Arc::clone(&mds),
            recorder: Mutex::new(FlightRecorder::new(RECORDER_CAPACITY)),
            scrapes: Arc::clone(&scrapes),
            errors: Arc::clone(&errors),
        });
        let acceptor = {
            let state = Arc::clone(&state);
            AcceptLoop::spawn(addr, POLL_INTERVAL, move |stream, stop| {
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
                        sync::lock(&state.recorder).sample(sample, Some(&registry));
                    }
                    let mut slept = Duration::ZERO;
                    while slept < tick_interval {
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        let nap = POLL_INTERVAL.min(tick_interval - slept);
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
    /// The head outgrew [`MAX_HEAD`].
    TooBig,
    /// The peer dribbled past [`HEAD_DEADLINE`].
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
fn read_head(stream: &mut TcpStream, stop: &AtomicBool, head: &mut Vec<u8>) -> Head {
    let deadline = Instant::now() + HEAD_DEADLINE;
    let mut buf = [0u8; 1024];
    loop {
        if head_complete(head) {
            return Head::Complete;
        }
        if head.len() > MAX_HEAD {
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
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let mut head = Vec::new();
    let (status, content_type, body) = match read_head(&mut stream, stop, &mut head) {
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
    if target.len() > MAX_PATH {
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
        "/health" => health_body(&sync::lock(&state.recorder), &HealthRules::default()),
        "/trace" => {
            let n = query
                .and_then(|q| {
                    q.split('&')
                        .find_map(|kv| kv.strip_prefix("n=").and_then(|v| v.parse::<usize>().ok()))
                })
                .unwrap_or(TRACE_DEFAULT_SPANS)
                .min(TRACE_MAX_SPANS);
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
fn health_body(recorder: &FlightRecorder, rules: &HealthRules) -> (u16, &'static str, String) {
    let violations = rules.check(recorder.ticks());
    let healthy = violations.is_empty();
    let mut body = String::new();
    let mut w = Writer::new(&mut body);
    w.open('{');
    w.key("status")
        .string(if healthy { "ok" } else { "unhealthy" });
    w.key("ticks").uint(recorder.total_recorded());
    w.key("violations").open('[');
    for v in &violations {
        w.open('{');
        w.key("tick").uint(v.tick).key("rule").string(v.rule);
        w.key("value").float(v.value).key("limit").float(v.limit);
        w.close('}');
    }
    w.close(']').key("latest");
    match recorder.latest() {
        Some(tick) => tick.write_json(&mut w),
        None => {
            w.null();
        }
    }
    w.close('}');
    (if healthy { 200 } else { 503 }, "application/json", body)
}

/// Renders the slow-request log as a JSON array, slowest first.
fn slow_body(entries: &[SlowEntry]) -> String {
    let mut out = String::new();
    let mut w = Writer::new(&mut out);
    w.open('[');
    for e in entries {
        w.open('{');
        w.key("dur_us").uint(e.dur_us).key("t_us").uint(e.t_us);
        w.key("kind").string(&format!("{:?}", e.kind));
        w.key("target").uint(e.target);
        w.key("outcome")
            .uint(e.outcome)
            .key("trace")
            .opt_uint(e.trace);
        w.close('}');
    }
    w.close(']');
    out
}

/// Issues one admin-plane GET and returns `(status, body)`.
///
/// A convenience for `d2tree top` and tests — it speaks exactly the
/// HTTP/1.0 subset the server serves: one request, read to EOF,
/// connection closed.
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

#[cfg(test)]
mod tests {
    use super::*;
    use d2tree_telemetry::TickSample;
    use d2tree_workload::OpKind;

    /// `/health` and `/slow` are scraped by `d2tree top`, CI's curl loop
    /// and operators' scripts: their bytes are an interface.
    #[test]
    fn health_and_slow_bodies_are_pinned() {
        let mut recorder = FlightRecorder::new(4);
        let rules = HealthRules {
            warmup_ticks: 0,
            ..HealthRules::default()
        };
        assert_eq!(
            health_body(&recorder, &rules),
            (
                200,
                "application/json",
                "{\"status\":\"ok\",\"ticks\":0,\"violations\":[],\"latest\":null}".to_owned()
            )
        );
        recorder.sample(
            TickSample {
                t_us: 2_500,
                locality: f64::NAN,
                balance: 0.5,
                ops_total: 10,
                loads: vec![1.0, 2.5],
                ..TickSample::default()
            },
            None,
        );
        let (status, _, body) = health_body(&recorder, &rules);
        assert_eq!(status, 503);
        assert_eq!(
            body,
            "{\"status\":\"unhealthy\",\"ticks\":1,\"violations\":[{\"tick\":0,\
             \"rule\":\"balance_below_min\",\"value\":0.5,\"limit\":1}],\"latest\":\
             {\"tick\":0,\"t_us\":2500,\"t_ms\":2,\"locality\":null,\"balance\":0.5,\
             \"ops\":10,\"retries\":0,\"faults\":0,\"migrations\":0,\"spans_dropped\":0,\
             \"wal_fsync_p99_us\":0,\"loads\":[1,2.5]}}"
        );

        let entry = |dur_us, trace| SlowEntry {
            dur_us,
            t_us: 9,
            kind: OpKind::Read,
            target: 42,
            outcome: 1,
            trace,
        };
        assert_eq!(slow_body(&[]), "[]");
        assert_eq!(
            slow_body(&[entry(70, Some(5)), entry(3, None)]),
            "[{\"dur_us\":70,\"t_us\":9,\"kind\":\"Read\",\"target\":42,\"outcome\":1,\"trace\":5},\
             {\"dur_us\":3,\"t_us\":9,\"kind\":\"Read\",\"target\":42,\"outcome\":1,\"trace\":null}]"
        );
    }

    #[test]
    fn head_completion_tolerates_bare_newlines() {
        assert!(head_complete(b"GET / HTTP/1.0\r\n\r\n"));
        assert!(head_complete(b"GET / HTTP/1.0\n\n"));
        assert!(!head_complete(b"GET / HTTP/1.0\r\n"));
        assert!(!head_complete(b"GET"));
    }
}
