//! Per-operation causal tracing: spans, deterministic sampling, a
//! bounded sink, Chrome trace-event export, and a stable digest.
//!
//! The paper's metrics (Def. 1 jump count, Def. 3 system locality) are
//! *per-operation* quantities; aggregate counters cannot show whether a
//! specific request took the hops the analysis predicts. This module
//! records one root span per traced operation plus child spans for each
//! hop (server visit, network leg, lock hold, replica apply, WAL I/O),
//! linked by `(TraceId, SpanId, parent)` so an analyzer can reconstruct
//! the exact path an operation took and cross-check it against
//! `metrics::measures::path_jumps`.
//!
//! Design constraints, in priority order:
//!
//! 1. **Off means off.** An untraced call site costs one branch on an
//!    `Option<&Tracer>`; an unsampled operation costs one atomic
//!    fetch-add and one multiply. No allocation happens until a span is
//!    actually recorded.
//! 2. **Deterministic.** Trace/span ids come from plain counters and
//!    the [`Sampler`] hashes a seed with the trace id, so the same
//!    seeded replay produces byte-identical spans (the simulator stamps
//!    spans with virtual time; see `cluster::sim`). CI asserts the
//!    [`digest`] of two same-seed runs is identical.
//! 3. **Bounded.** The [`SpanSink`] holds at most `capacity` spans and
//!    counts what it sheds, so a pathological workload cannot OOM the
//!    host through its own observability layer.
//! 4. **Cheap at 100 % sampling.** Recording goes through per-thread
//!    packed buffers (see [`crate::sink`]) — no lock and ~12 bytes
//!    moved per span instead of a mutexed 144-byte copy.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::journal::FaultKind;
use crate::json::Writer;

/// Interned span name: the closed set of names any instrumented
/// component gives a span.
///
/// One byte instead of a 16-byte `&'static str` is what lets the packed
/// sink encoding (see [`crate::sink::PackedSpans`]) store a span's name
/// in a single code byte. Exports and digests spell the name back out
/// via [`SpanName::as_str`], so serialized output is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum SpanName {
    /// Root span: one whole client operation, issue to completion.
    Op,
    /// One MDS serving (or forwarding) the request: queue + service.
    Serve,
    /// One network leg between two parties.
    Net,
    /// Client-side wait for a resend after a dropped message.
    ResendWait,
    /// Duplicate delivery burning wasted service time on a server.
    Waste,
    /// Global-layer lock held for a replicated update.
    Lock,
    /// A replica applying a propagated global-layer update.
    Apply,
    /// One client attempt in the live retry loop.
    Attempt,
    /// Monitor processing one heartbeat.
    Heartbeat,
    /// Monitor declaring MDS failures.
    Detect,
    /// Monitor planning a rebalance (dynamic adjustment, Sec. IV).
    Rebalance,
    /// Monitor planning a failover after an MDS death.
    Failover,
    /// Store buffering one WAL record.
    WalAppend,
    /// Store group-commit fsync.
    WalFsync,
    /// A control-plane replica campaigning for leadership.
    Election,
    /// A leader replicating one committed batch to its followers.
    Replicate,
}

impl SpanName {
    /// The string this name prints as in exports and digests.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            SpanName::Op => "op",
            SpanName::Serve => "serve",
            SpanName::Net => "net",
            SpanName::ResendWait => "resend_wait",
            SpanName::Waste => "waste",
            SpanName::Lock => "gl_lock",
            SpanName::Apply => "gl_apply",
            SpanName::Attempt => "attempt",
            SpanName::Heartbeat => "heartbeat",
            SpanName::Detect => "detect_failures",
            SpanName::Rebalance => "rebalance",
            SpanName::Failover => "failover",
            SpanName::WalAppend => "wal_append",
            SpanName::WalFsync => "wal_fsync",
            SpanName::Election => "election",
            SpanName::Replicate => "replicate",
        }
    }

    /// The inverse of `self as u8`, for decoding packed spans.
    #[must_use]
    pub const fn from_code(code: u8) -> Option<SpanName> {
        Some(match code {
            0 => SpanName::Op,
            1 => SpanName::Serve,
            2 => SpanName::Net,
            3 => SpanName::ResendWait,
            4 => SpanName::Waste,
            5 => SpanName::Lock,
            6 => SpanName::Apply,
            7 => SpanName::Attempt,
            8 => SpanName::Heartbeat,
            9 => SpanName::Detect,
            10 => SpanName::Rebalance,
            11 => SpanName::Failover,
            12 => SpanName::WalAppend,
            13 => SpanName::WalFsync,
            14 => SpanName::Election,
            15 => SpanName::Replicate,
            _ => return None,
        })
    }
}

/// Canonical span names, so emitters, the analyzer and docs agree on
/// spelling. Kept as constants (now of type [`SpanName`]) so call sites
/// read the same as when names were strings.
pub mod span_names {
    use super::SpanName;

    /// Root span: one whole client operation, issue to completion.
    pub const OP: SpanName = SpanName::Op;
    /// One MDS serving (or forwarding) the request: queue + service.
    pub const SERVE: SpanName = SpanName::Serve;
    /// One network leg between two parties.
    pub const NET: SpanName = SpanName::Net;
    /// Client-side wait for a resend after a dropped message.
    pub const RESEND_WAIT: SpanName = SpanName::ResendWait;
    /// Duplicate delivery burning wasted service time on a server.
    pub const WASTE: SpanName = SpanName::Waste;
    /// Global-layer lock held for a replicated update.
    pub const LOCK: SpanName = SpanName::Lock;
    /// A replica applying a propagated global-layer update.
    pub const APPLY: SpanName = SpanName::Apply;
    /// One client attempt in the live retry loop.
    pub const ATTEMPT: SpanName = SpanName::Attempt;
    /// Monitor processing one heartbeat.
    pub const HEARTBEAT: SpanName = SpanName::Heartbeat;
    /// Monitor declaring MDS failures.
    pub const DETECT: SpanName = SpanName::Detect;
    /// Monitor planning a rebalance (dynamic adjustment, Sec. IV).
    pub const REBALANCE: SpanName = SpanName::Rebalance;
    /// Monitor planning a failover after an MDS death.
    pub const FAILOVER: SpanName = SpanName::Failover;
    /// Store buffering one WAL record.
    pub const WAL_APPEND: SpanName = SpanName::WalAppend;
    /// Store group-commit fsync.
    pub const WAL_FSYNC: SpanName = SpanName::WalFsync;
    /// A control-plane replica campaigning for leadership.
    pub const ELECTION: SpanName = SpanName::Election;
    /// A leader replicating one committed batch to its followers.
    pub const REPLICATE: SpanName = SpanName::Replicate;
}

/// Identifies one traced operation end to end across every hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// Identifies one span within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// The context a hop needs to attach child spans: which trace it is in
/// and which span is the parent. Sixteen bytes, `Copy`, and encodable
/// on the wire (see `cluster::message`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanCtx {
    /// The trace this context belongs to.
    pub trace: TraceId,
    /// The span that children created from this context hang off.
    pub span: SpanId,
}

/// Maximum numeric annotations per span. The widest emitter (the
/// simulator's root `op` span) attaches four: target, kind, hops,
/// locked.
pub const MAX_SPAN_ARGS: usize = 4;

/// Interned span-annotation key: the full closed set of labels any
/// instrumented component attaches to a span.
///
/// One byte instead of a 16-byte `&'static str` keeps each stored
/// `(key, value)` pair at 16 bytes and shrinks [`Span`] itself, which
/// matters because recording cost at 100 % sampling is dominated by
/// moving spans into the sink. Exports spell the label back out via
/// [`ArgKey::name`], so JSON output and the trace digest are unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(u8)]
pub enum ArgKey {
    /// Target node of an operation.
    #[default]
    Target,
    /// Operation kind code (see `op_kind_code`).
    Kind,
    /// Extra hops taken after the first routing step.
    Hops,
    /// Whether the op hit a write-locked subtree (0/1).
    Locked,
    /// Bytes written or synced by the store.
    Bytes,
    /// Node id a hop or cache event refers to.
    Node,
    /// Retry spins before a request went through.
    Spins,
    /// MDS id a recovery event refers to.
    Mds,
    /// Subtrees claimed during failover.
    Claimed,
    /// Failures observed in one monitor sweep.
    Failures,
    /// Subtrees rehomed off a dead MDS.
    Rehomed,
    /// Subtree root involved in a migration.
    Subtree,
    /// Migration source MDS.
    From,
    /// Migration destination MDS.
    To,
    /// Whether the hop ended in an error (0/1).
    Error,
    /// Route taken by a request (code).
    Route,
    /// Outcome code of a request.
    Outcome,
    /// Response body kind (served/redirect/not-found code).
    Body,
    /// Consensus term an election or replication batch ran in.
    Term,
    /// Fencing token carried by a lease grant or rejected write.
    Fence,
}

impl ArgKey {
    /// The label this key prints as in exports and digests.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            ArgKey::Target => "target",
            ArgKey::Kind => "kind",
            ArgKey::Hops => "hops",
            ArgKey::Locked => "locked",
            ArgKey::Bytes => "bytes",
            ArgKey::Node => "node",
            ArgKey::Spins => "spins",
            ArgKey::Mds => "mds",
            ArgKey::Claimed => "claimed",
            ArgKey::Failures => "failures",
            ArgKey::Rehomed => "rehomed",
            ArgKey::Subtree => "subtree",
            ArgKey::From => "from",
            ArgKey::To => "to",
            ArgKey::Error => "error",
            ArgKey::Route => "route",
            ArgKey::Outcome => "outcome",
            ArgKey::Body => "body",
            ArgKey::Term => "term",
            ArgKey::Fence => "fence",
        }
    }

    /// The inverse of `self as u8`, for decoding packed spans.
    #[must_use]
    pub const fn from_code(code: u8) -> Option<ArgKey> {
        Some(match code {
            0 => ArgKey::Target,
            1 => ArgKey::Kind,
            2 => ArgKey::Hops,
            3 => ArgKey::Locked,
            4 => ArgKey::Bytes,
            5 => ArgKey::Node,
            6 => ArgKey::Spins,
            7 => ArgKey::Mds,
            8 => ArgKey::Claimed,
            9 => ArgKey::Failures,
            10 => ArgKey::Rehomed,
            11 => ArgKey::Subtree,
            12 => ArgKey::From,
            13 => ArgKey::To,
            14 => ArgKey::Error,
            15 => ArgKey::Route,
            16 => ArgKey::Outcome,
            17 => ArgKey::Body,
            18 => ArgKey::Term,
            19 => ArgKey::Fence,
            _ => return None,
        })
    }
}

/// Inline, fixed-capacity annotation list: up to [`MAX_SPAN_ARGS`]
/// `(ArgKey, u64)` pairs stored inside the span itself.
///
/// The previous `Vec`-backed representation heap-allocated per annotated
/// span, which at 100 % sampling dominated tracing overhead (+57 % per
/// op); this one makes span construction allocation-free. Pushing beyond
/// capacity drops the extra pair (debug builds assert instead) — the
/// digest and exports only ever see what was stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanArgs {
    len: u8,
    items: [(ArgKey, u64); MAX_SPAN_ARGS],
}

impl SpanArgs {
    /// No annotations.
    #[must_use]
    pub fn new() -> Self {
        SpanArgs {
            len: 0,
            items: [(ArgKey::Target, 0); MAX_SPAN_ARGS],
        }
    }

    /// Appends an annotation; silently saturating at capacity (asserts
    /// in debug builds, where a new call site exceeding the limit should
    /// fail loudly).
    pub fn push(&mut self, key: ArgKey, value: u64) {
        debug_assert!(
            (self.len as usize) < MAX_SPAN_ARGS,
            "span carries more than {MAX_SPAN_ARGS} args"
        );
        if (self.len as usize) < MAX_SPAN_ARGS {
            self.items[self.len as usize] = (key, value);
            self.len += 1;
        }
    }

    /// Number of stored annotations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no annotation is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The annotations as a slice, in push order.
    #[must_use]
    pub fn as_slice(&self) -> &[(ArgKey, u64)] {
        &self.items[..self.len as usize]
    }

    /// Iterates over the stored `(key, value)` pairs.
    pub fn iter(&self) -> std::slice::Iter<'_, (ArgKey, u64)> {
        self.as_slice().iter()
    }

    /// The full backing array plus the live count, for encoders that
    /// want a fixed-trip-count loop (unused slots are `(Target, 0)`).
    #[inline]
    pub(crate) fn raw(&self) -> (&[(ArgKey, u64); MAX_SPAN_ARGS], u8) {
        (&self.items, self.len)
    }
}

impl<'a> IntoIterator for &'a SpanArgs {
    type Item = &'a (ArgKey, u64);
    type IntoIter = std::slice::Iter<'a, (ArgKey, u64)>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// One completed span: a named, timed interval attributed to a trace,
/// optionally to an MDS, and optionally tagged with the fault that hit
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Trace this span belongs to.
    pub trace: TraceId,
    /// This span's id, unique within the tracer's lifetime.
    pub id: SpanId,
    /// Parent span, `None` for a root.
    pub parent: Option<SpanId>,
    /// Name from [`span_names`].
    pub name: SpanName,
    /// MDS the work ran on, `None` for client/monitor-side spans.
    pub mds: Option<u16>,
    /// Start timestamp in microseconds. The simulator stamps virtual
    /// time; live components stamp wall time from [`Tracer::now_us`].
    pub start_us: u64,
    /// Duration in microseconds (0 for instant events).
    pub dur_us: u64,
    /// Fault that was injected into this hop, if any.
    pub fault: Option<FaultKind>,
    /// Small numeric annotations (`("target", 42)`, `("hops", 2)`, …),
    /// stored inline — recording an annotated span never allocates.
    pub args: SpanArgs,
}

impl Span {
    /// A span inside an existing trace, parented on `ctx.span`.
    #[must_use]
    pub fn child(ctx: SpanCtx, id: SpanId, name: SpanName, start_us: u64, dur_us: u64) -> Self {
        Span {
            trace: ctx.trace,
            id,
            parent: Some(ctx.span),
            name,
            mds: None,
            start_us,
            dur_us,
            fault: None,
            args: SpanArgs::new(),
        }
    }

    /// The root span of a trace (no parent).
    #[must_use]
    pub fn root(ctx: SpanCtx, name: SpanName, start_us: u64, dur_us: u64) -> Self {
        Span {
            trace: ctx.trace,
            id: ctx.span,
            parent: None,
            name,
            mds: None,
            start_us,
            dur_us,
            fault: None,
            args: SpanArgs::new(),
        }
    }

    /// Attributes the span to an MDS.
    #[must_use]
    pub fn on_mds(mut self, mds: u16) -> Self {
        self.mds = Some(mds);
        self
    }

    /// Tags the span with an injected fault.
    #[must_use]
    pub fn with_fault(mut self, fault: FaultKind) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Adds a numeric annotation (at most [`MAX_SPAN_ARGS`] per span).
    #[must_use]
    pub fn with_arg(mut self, key: ArgKey, value: u64) -> Self {
        self.args.push(key, value);
        self
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Seeded deterministic head sampler.
///
/// The decision is a pure function of `(seed, trace_id)`: the trace id
/// is hashed with the seed and compared against a fixed threshold, so
/// re-running the same seeded workload samples exactly the same
/// operations — no RNG state threads through call sites.
#[derive(Debug, Clone, Copy)]
pub struct Sampler {
    seed: u64,
    /// Sample iff `hash < threshold`; `u64::MAX` means "always" so a
    /// rate of 1.0 cannot lose traces to rounding.
    threshold: u64,
}

impl Sampler {
    /// A sampler keeping roughly `rate` (clamped to `[0, 1]`) of traces.
    #[must_use]
    pub fn new(seed: u64, rate: f64) -> Self {
        let threshold = if rate >= 1.0 {
            u64::MAX
        } else if rate <= 0.0 {
            0
        } else {
            // Cast is exact enough for sampling purposes; rate < 1.0
            // keeps the product below 2^64.
            (rate * u64::MAX as f64) as u64
        };
        Sampler { seed, threshold }
    }

    /// Sampler that records every trace.
    #[must_use]
    pub fn always(seed: u64) -> Self {
        Sampler::new(seed, 1.0)
    }

    /// Sampler that records nothing (ids are still allocated, so
    /// enabling sampling later does not shift the id sequence).
    #[must_use]
    pub fn never(seed: u64) -> Self {
        Sampler::new(seed, 0.0)
    }

    /// Whether this trace should be recorded.
    #[must_use]
    pub fn sample(&self, trace: TraceId) -> bool {
        if self.threshold == u64::MAX {
            return true;
        }
        if self.threshold == 0 {
            return false;
        }
        splitmix64(self.seed ^ trace.0) < self.threshold
    }

    /// The configured sampling rate, reconstructed from the threshold.
    #[must_use]
    pub fn rate(&self) -> f64 {
        if self.threshold == u64::MAX {
            1.0
        } else {
            self.threshold as f64 / u64::MAX as f64
        }
    }
}

pub use crate::sink::{flush_thread_local, PackedSpans, SinkRegistry, SpanSink};

/// Default bound on buffered spans (enough for ~100k-op replays at
/// 100% sampling with several spans per op).
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 20;

/// The tracing façade instrumented code holds (as `Option<Arc<Tracer>>`).
///
/// Owns the id counters, the [`Sampler`] and the [`SpanSink`]. Call
/// sites decide timestamps: the simulator passes virtual microseconds,
/// live components use [`Tracer::now_us`]. Id allocation is atomic, so
/// the live threaded cluster can share one tracer; the deterministic
/// digest guarantee only applies to single-threaded (simulator) use.
#[derive(Debug)]
pub struct Tracer {
    sampler: Sampler,
    sink: SpanSink,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    epoch: Instant,
}

impl Tracer {
    /// A tracer with the default sink capacity.
    #[must_use]
    pub fn new(sampler: Sampler) -> Self {
        Tracer::with_capacity(sampler, DEFAULT_SPAN_CAPACITY)
    }

    /// A tracer bounding the sink to `capacity` spans.
    #[must_use]
    pub fn with_capacity(sampler: Sampler, capacity: usize) -> Self {
        Tracer {
            sampler,
            sink: SpanSink::new(capacity),
            next_trace: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
            epoch: Instant::now(),
        }
    }

    /// Starts a new trace: allocates the trace id (always, so sampling
    /// rate does not shift the id sequence) and, if sampled, a root
    /// span id. `None` means "not sampled — skip all span work".
    pub fn begin(&self) -> Option<SpanCtx> {
        let trace = TraceId(self.next_trace.fetch_add(1, Ordering::Relaxed));
        if !self.sampler.sample(trace) {
            return None;
        }
        Some(SpanCtx {
            trace,
            span: self.next_span(trace),
        })
    }

    /// Allocates a fresh span id within `ctx`'s trace.
    pub fn next_span(&self, _trace: TraceId) -> SpanId {
        SpanId(self.next_span.fetch_add(1, Ordering::Relaxed))
    }

    /// Derives a child context: same trace, fresh span id.
    pub fn child(&self, ctx: SpanCtx) -> SpanCtx {
        SpanCtx {
            trace: ctx.trace,
            span: self.next_span(ctx.trace),
        }
    }

    /// Records a completed span.
    pub fn record(&self, span: Span) {
        self.sink.push(span);
    }

    /// Wall-clock microseconds since the tracer was created, for call
    /// sites without a virtual clock (live cluster, store).
    #[must_use]
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// The sampler in force.
    #[must_use]
    pub fn sampler(&self) -> Sampler {
        self.sampler
    }

    /// The underlying sink (for capacity/shed accounting).
    #[must_use]
    pub fn sink(&self) -> &SpanSink {
        &self.sink
    }

    /// Removes and returns all buffered spans.
    #[must_use]
    pub fn drain(&self) -> Vec<Span> {
        self.sink.drain()
    }
}

/// Renders spans as a Chrome trace-event JSON document (the
/// `{"traceEvents": […]}` object form) loadable in `chrome://tracing`
/// and Perfetto.
///
/// Each span becomes a complete (`"ph":"X"`) event; the thread id is
/// `mds + 1` for server-side spans and 0 for client/monitor spans, so
/// the viewer groups work by MDS lane.
#[must_use]
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(128 * spans.len() + 64);
    let mut w = Writer::new(&mut out);
    w.open('{').key("displayTimeUnit").string("ms");
    w.key("traceEvents").open('[');
    for s in spans {
        let tid = s.mds.map_or(0u32, |m| u32::from(m) + 1);
        w.open('{');
        w.key("name").string(s.name.as_str()).key("ph").string("X");
        w.key("pid").uint(0u32).key("tid").uint(tid);
        w.key("ts").uint(s.start_us).key("dur").uint(s.dur_us);
        w.key("args").open('{');
        w.key("trace").uint(s.trace.0).key("span").uint(s.id.0);
        if let Some(p) = s.parent {
            w.key("parent").uint(p.0);
        }
        if let Some(m) = s.mds {
            w.key("mds").uint(m);
        }
        if let Some(f) = s.fault {
            w.key("fault").string(f.label());
        }
        for (k, v) in &s.args {
            w.key(k.name()).uint(*v);
        }
        w.close('}').close('}');
    }
    w.close(']').close('}');
    out
}

/// A stable FNV-1a digest over every field of every span, in order.
///
/// Two replays with the same seed must produce the same digest; CI's
/// `trace-determinism` job asserts exactly that.
#[must_use]
pub fn digest(spans: &[Span]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for s in spans {
        eat(&s.trace.0.to_le_bytes());
        eat(&s.id.0.to_le_bytes());
        eat(&s.parent.map_or(0, |p| p.0).to_le_bytes());
        eat(s.name.as_str().as_bytes());
        eat(&[0]);
        eat(&[s.mds.is_some() as u8]);
        eat(&s.mds.unwrap_or(0).to_le_bytes());
        eat(&s.start_us.to_le_bytes());
        eat(&s.dur_us.to_le_bytes());
        eat(s.fault.map_or("", |f| f.label()).as_bytes());
        eat(&[0]);
        for (k, v) in &s.args {
            eat(k.name().as_bytes());
            eat(&[0]);
            eat(&v.to_le_bytes());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_rates_are_exact_at_the_extremes() {
        let always = Sampler::always(7);
        let never = Sampler::never(7);
        for t in 0..1000 {
            assert!(always.sample(TraceId(t)));
            assert!(!never.sample(TraceId(t)));
        }
        assert_eq!(always.rate(), 1.0);
        assert_eq!(never.rate(), 0.0);
    }

    #[test]
    fn sampler_is_deterministic_and_roughly_calibrated() {
        let s = Sampler::new(42, 0.01);
        let picks: Vec<bool> = (0..100_000).map(|t| s.sample(TraceId(t))).collect();
        let again: Vec<bool> = (0..100_000).map(|t| s.sample(TraceId(t))).collect();
        assert_eq!(picks, again, "sampling must be a pure function");
        let kept = picks.iter().filter(|&&b| b).count();
        // 1% of 100k = 1000 expected; allow generous slack.
        assert!((500..1500).contains(&kept), "kept {kept} of 100000");
    }

    #[test]
    fn different_seeds_pick_different_traces() {
        let a = Sampler::new(1, 0.01);
        let b = Sampler::new(2, 0.01);
        let same = (0..100_000)
            .filter(|&t| a.sample(TraceId(t)) == b.sample(TraceId(t)))
            .count();
        assert!(same < 100_000, "seed must influence the sample set");
    }

    #[test]
    fn sink_bounds_and_counts_shedding() {
        let sink = SpanSink::new(2);
        let ctx = SpanCtx {
            trace: TraceId(1),
            span: SpanId(1),
        };
        for i in 0..5 {
            sink.push(Span::root(ctx, span_names::OP, i, 1));
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.recorded(), 2);
        assert_eq!(sink.dropped(), 3);
        assert_eq!(sink.drain().len(), 2);
        assert!(sink.is_empty());
    }

    #[test]
    fn tracer_ids_are_unique_and_sampling_none_skips_spans() {
        let t = Tracer::new(Sampler::always(0));
        let a = t.begin().expect("sampled");
        let b = t.begin().expect("sampled");
        assert_ne!(a.trace, b.trace);
        assert_ne!(a.span, b.span);
        let child = t.child(a);
        assert_eq!(child.trace, a.trace);
        assert_ne!(child.span, a.span);

        let off = Tracer::new(Sampler::never(0));
        assert!(off.begin().is_none());
        assert_eq!(off.sink().recorded(), 0);
    }

    #[test]
    fn chrome_export_is_balanced_json_with_expected_fields() {
        let t = Tracer::new(Sampler::always(0));
        let ctx = t.begin().unwrap();
        t.record(
            Span::root(ctx, span_names::OP, 10, 100)
                .with_arg(ArgKey::Target, 42)
                .with_arg(ArgKey::Hops, 2),
        );
        let sctx = t.child(ctx);
        t.record(
            Span::child(ctx, sctx.span, span_names::SERVE, 20, 30)
                .on_mds(3)
                .with_fault(FaultKind::Delay),
        );
        let doc = chrome_trace_json(&t.drain());
        assert!(doc.starts_with('{') && doc.ends_with('}'), "{doc}");
        assert_eq!(
            doc.matches('{').count(),
            doc.matches('}').count(),
            "unbalanced: {doc}"
        );
        assert!(doc.contains("\"traceEvents\":["), "{doc}");
        assert!(doc.contains("\"ph\":\"X\""), "{doc}");
        assert!(doc.contains("\"tid\":4"), "{doc}");
        assert!(doc.contains("\"fault\":\"delay\""), "{doc}");
        assert!(doc.contains("\"target\":42"), "{doc}");
    }

    #[test]
    fn digest_is_stable_and_field_sensitive() {
        let ctx = SpanCtx {
            trace: TraceId(1),
            span: SpanId(1),
        };
        let a = vec![Span::root(ctx, span_names::OP, 0, 5).with_arg(ArgKey::Target, 1)];
        let mut b = a.clone();
        assert_eq!(digest(&a), digest(&b));
        b[0].dur_us = 6;
        assert_ne!(digest(&a), digest(&b));
        let mut c = a.clone();
        c[0].fault = Some(FaultKind::Drop);
        assert_ne!(digest(&a), digest(&c));
    }
}
