//! Observability substrate for the D2-Tree reproduction.
//!
//! The paper's dynamic-adjustment loop (Sec. IV) is driven entirely by
//! measurement: per-MDS load, heartbeat liveness, and subtree-migration
//! activity. This crate provides the measurement primitives the rest of
//! the workspace instruments itself with:
//!
//! * [`Counter`] / [`Gauge`] — lock-free `AtomicU64`-backed scalars.
//! * [`Histogram`] — fixed log-bucketed latency histogram with
//!   p50/p90/p99/p999 extraction and a bounded relative error.
//! * [`Registry`] — owns all metrics, keyed by metric name plus an
//!   optional MDS id, and an embedded [`EventJournal`].
//! * [`EventJournal`] — a bounded ring buffer of structured
//!   [`Event`]s ([`EventKind::MdsDown`], [`EventKind::SubtreeShed`],
//!   …) with monotone timestamps and global sequence numbers.
//! * [`export`] — Prometheus text exposition and JSON snapshot
//!   rendering, both hand-rolled so the crate stays dependency-free.
//! * [`json`] — the one JSON writer (and flat-document reader) every
//!   emitter in the workspace goes through.
//!
//! Everything is `Sync`; instrumented code shares an `Arc<Registry>`
//! and caches `Arc<Counter>` handles outside hot loops. When no
//! registry is attached, call sites skip instrumentation entirely, so
//! the disabled-telemetry cost is a branch on an `Option`.

#![warn(missing_docs)]

mod journal;
mod metrics;

pub mod export;
pub mod json;
pub mod recorder;
pub mod sink;
pub mod trace;

pub use journal::{Event, EventJournal, EventKind, FaultKind};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, LocalHistogram, MetricKey, Registry, Snapshot,
};
pub use recorder::{FlightRecorder, HealthRules, HealthTick, TickSample, Violation};
pub use sink::{flush_thread_local, PackedSpans, SinkRegistry, SpanSink};
pub use trace::{ArgKey, Sampler, Span, SpanArgs, SpanCtx, SpanId, SpanName, TraceId, Tracer};

/// Canonical metric names used across the workspace, so call sites,
/// exporters and docs agree on spelling.
pub mod names {
    /// Per-MDS count of metadata operations served (simulator).
    pub const MDS_OPS_TOTAL: &str = "mds_ops_total";
    /// Per-MDS nanoseconds spent busy serving (simulator).
    pub const MDS_BUSY_NS: &str = "mds_busy_ns";
    /// Per-MDS peak queue depth observed (simulator).
    pub const MDS_QUEUE_DEPTH_PEAK: &str = "mds_queue_depth_peak";
    /// Per-MDS instantaneous queue depth (simulator).
    pub const MDS_QUEUE_DEPTH: &str = "mds_queue_depth";
    /// End-to-end op latency in microseconds, all op types (simulator).
    pub const OP_LATENCY_US: &str = "op_latency_us";
    /// End-to-end latency of metadata reads, microseconds (simulator).
    pub const OP_LATENCY_US_READ: &str = "op_latency_us_read";
    /// End-to-end latency of metadata writes, microseconds (simulator).
    pub const OP_LATENCY_US_WRITE: &str = "op_latency_us_write";
    /// End-to-end latency of metadata updates, microseconds (simulator).
    pub const OP_LATENCY_US_UPDATE: &str = "op_latency_us_update";
    /// Global-layer lock-service busy nanoseconds (simulator).
    pub const LOCK_BUSY_NS: &str = "lock_busy_ns";
    /// Extra routing hops taken beyond the first (simulator).
    pub const ROUTE_EXTRA_HOPS: &str = "route_extra_hops";
    /// Client cache hits (live cluster).
    pub const CLIENT_CACHE_HITS: &str = "client_cache_hits";
    /// Client cache misses (live cluster).
    pub const CLIENT_CACHE_MISSES: &str = "client_cache_misses";
    /// Requests forwarded/redirected between servers (live cluster).
    pub const FORWARDED_TOTAL: &str = "forwarded_total";
    /// Per-MDS requests served (live cluster).
    pub const SERVER_SERVED_TOTAL: &str = "server_served_total";
    /// Subtree migrations executed (live cluster + adjuster).
    pub const MIGRATIONS_TOTAL: &str = "migrations_total";
    /// MDS failures declared by the monitor.
    pub const MDS_FAILURES_TOTAL: &str = "mds_failures_total";
    /// Messages dropped by the fault-injection layer.
    pub const FAULTS_DROPPED: &str = "faults_dropped_total";
    /// Messages delayed (or reordered) by the fault-injection layer.
    pub const FAULTS_DELAYED: &str = "faults_delayed_total";
    /// Messages duplicated by the fault-injection layer.
    pub const FAULTS_DUPLICATED: &str = "faults_duplicated_total";
    /// Crash-restart rejoins completed by the monitor.
    pub const REJOINS_TOTAL: &str = "rejoins_total";
    /// Milliseconds from restart to the rejoiner's first subtree claim.
    pub const REJOIN_FIRST_CLAIM_MS: &str = "rejoin_first_claim_ms";
    /// Per-MDS time to buffer one WAL record, microseconds (store).
    pub const WAL_APPEND_US: &str = "wal_append_us";
    /// Per-MDS group-commit fsync latency, microseconds (store).
    pub const WAL_FSYNC_US: &str = "wal_fsync_us";
    /// Per-MDS bytes appended to the WAL (store).
    pub const WAL_BYTES_TOTAL: &str = "wal_bytes_total";
    /// Per-MDS records appended to the WAL (store).
    pub const WAL_RECORDS_TOTAL: &str = "wal_records_total";
    /// Per-MDS snapshots written (store).
    pub const SNAPSHOTS_TOTAL: &str = "snapshots_total";
    /// Per-MDS local crash-recovery time, milliseconds (store).
    pub const RECOVERY_MS: &str = "recovery_ms";
    /// GL replica entries copied during delta re-sync at restart.
    pub const GL_DELTA_SYNC_ENTRIES: &str = "gl_delta_sync_entries_total";
    /// Storage faults injected (torn writes, partial fsyncs, corruption).
    pub const FAULTS_STORAGE: &str = "faults_storage_total";
    /// Spans accepted by the trace sink.
    pub const TRACE_SPANS_RECORDED: &str = "trace_spans_recorded_total";
    /// Spans shed because the trace sink was full.
    pub const TRACE_SPANS_DROPPED: &str = "trace_spans_dropped_total";
    /// Flight-recorder health ticks sampled.
    pub const HEALTH_TICKS_TOTAL: &str = "health_ticks_total";
    /// Health-rule violations observed across checked trajectories.
    pub const HEALTH_VIOLATIONS_TOTAL: &str = "health_violations_total";
    /// Elections started by control-plane replicas (candidate steps).
    pub const ELECTIONS_TOTAL: &str = "elections_total";
    /// Distinct leadership hand-offs observed by the control plane.
    pub const LEADER_CHANGES_TOTAL: &str = "leader_changes_total";
    /// Entries committed through the replicated control-plane log.
    pub const LOG_COMMITS_TOTAL: &str = "log_commits_total";
    /// Monitor/control-plane RPC retries taken under the retry policy.
    pub const MONITOR_RETRIES_TOTAL: &str = "monitor_retries_total";
    /// Leader-loss to next-commit gap across failovers, milliseconds.
    pub const MONITOR_FAILOVER_MS: &str = "monitor_failover_ms";
    /// TCP connections accepted (server) or opened (load client).
    pub const NET_CONNS_TOTAL: &str = "net_conns_total";
    /// Request/response frames carried over TCP connections.
    pub const NET_FRAMES_TOTAL: &str = "net_frames_total";
    /// Frames that failed to decode off a TCP stream (connection is
    /// then closed — a byte stream cannot re-synchronise past garbage).
    pub const NET_DECODE_ERRORS_TOTAL: &str = "net_decode_errors_total";
    /// TCP connections that ended in an I/O error or mid-frame EOF
    /// rather than a clean frame-boundary close.
    pub const NET_CONN_RESETS_TOTAL: &str = "net_conn_resets_total";
    /// TCP connections currently open against a serving daemon (gauge).
    pub const NET_ACTIVE_CONNS: &str = "net_active_conns";
    /// Request batches served off TCP connections (one batch = every
    /// complete frame drained from one read, served together).
    pub const NET_BATCHES_TOTAL: &str = "net_batches_total";
    /// Frames per served batch (histogram; mean > 1 means pipelined
    /// clients are actually exercising the batch path).
    pub const NET_BATCH_DEPTH: &str = "net_batch_depth";
    /// Per-MDS WAL group commits on the serving path: batches whose
    /// journalled mutations were made durable by one shared fsync before
    /// their responses were written back.
    pub const WAL_GROUP_COMMITS_TOTAL: &str = "wal_group_commits_total";
    /// Admin-plane requests answered (any endpoint, any status).
    pub const ADMIN_SCRAPES_TOTAL: &str = "admin_scrapes_total";
    /// Admin-plane requests rejected (garbled line, oversized path,
    /// unknown endpoint, unsupported method).
    pub const ADMIN_ERRORS_TOTAL: &str = "admin_errors_total";
    /// Server-observed serve latency, reads answered locally (µs).
    pub const SRV_LATENCY_US_READ_OK: &str = "srv_latency_us_read_ok";
    /// Server-observed serve latency, reads answered with a redirect.
    pub const SRV_LATENCY_US_READ_REDIRECT: &str = "srv_latency_us_read_redirect";
    /// Server-observed serve latency, reads answered not-found/error.
    pub const SRV_LATENCY_US_READ_ERROR: &str = "srv_latency_us_read_error";
    /// Server-observed serve latency, writes answered locally (µs).
    pub const SRV_LATENCY_US_WRITE_OK: &str = "srv_latency_us_write_ok";
    /// Server-observed serve latency, writes answered with a redirect.
    pub const SRV_LATENCY_US_WRITE_REDIRECT: &str = "srv_latency_us_write_redirect";
    /// Server-observed serve latency, writes answered not-found/error.
    pub const SRV_LATENCY_US_WRITE_ERROR: &str = "srv_latency_us_write_error";
    /// Server-observed serve latency, updates committed locally (µs).
    pub const SRV_LATENCY_US_UPDATE_OK: &str = "srv_latency_us_update_ok";
    /// Server-observed serve latency, updates answered with a redirect.
    pub const SRV_LATENCY_US_UPDATE_REDIRECT: &str = "srv_latency_us_update_redirect";
    /// Server-observed serve latency, updates answered not-found/error.
    pub const SRV_LATENCY_US_UPDATE_ERROR: &str = "srv_latency_us_update_error";

    /// Pre-registers every globally-scoped metric on `registry` so
    /// exported metric sets are identical regardless of which code
    /// paths a run happened to exercise (zero-valued series instead of
    /// absent ones). Per-MDS series still appear on first touch, since
    /// the MDS population is not known up front.
    pub fn register_all(registry: &crate::Registry) {
        use crate::MetricKey;
        const COUNTERS: &[&str] = &[
            ROUTE_EXTRA_HOPS,
            LOCK_BUSY_NS,
            CLIENT_CACHE_HITS,
            CLIENT_CACHE_MISSES,
            FORWARDED_TOTAL,
            MIGRATIONS_TOTAL,
            MDS_FAILURES_TOTAL,
            FAULTS_DROPPED,
            FAULTS_DELAYED,
            FAULTS_DUPLICATED,
            FAULTS_STORAGE,
            REJOINS_TOTAL,
            WAL_BYTES_TOTAL,
            WAL_RECORDS_TOTAL,
            SNAPSHOTS_TOTAL,
            GL_DELTA_SYNC_ENTRIES,
            TRACE_SPANS_RECORDED,
            TRACE_SPANS_DROPPED,
            HEALTH_TICKS_TOTAL,
            HEALTH_VIOLATIONS_TOTAL,
            ELECTIONS_TOTAL,
            LEADER_CHANGES_TOTAL,
            LOG_COMMITS_TOTAL,
            MONITOR_RETRIES_TOTAL,
            NET_CONNS_TOTAL,
            NET_FRAMES_TOTAL,
            NET_DECODE_ERRORS_TOTAL,
            NET_CONN_RESETS_TOTAL,
            NET_BATCHES_TOTAL,
            WAL_GROUP_COMMITS_TOTAL,
            ADMIN_SCRAPES_TOTAL,
            ADMIN_ERRORS_TOTAL,
        ];
        const GAUGES: &[&str] = &[NET_ACTIVE_CONNS];
        const HISTOGRAMS: &[&str] = &[
            OP_LATENCY_US,
            OP_LATENCY_US_READ,
            OP_LATENCY_US_WRITE,
            OP_LATENCY_US_UPDATE,
            SRV_LATENCY_US_READ_OK,
            SRV_LATENCY_US_READ_REDIRECT,
            SRV_LATENCY_US_READ_ERROR,
            SRV_LATENCY_US_WRITE_OK,
            SRV_LATENCY_US_WRITE_REDIRECT,
            SRV_LATENCY_US_WRITE_ERROR,
            SRV_LATENCY_US_UPDATE_OK,
            SRV_LATENCY_US_UPDATE_REDIRECT,
            SRV_LATENCY_US_UPDATE_ERROR,
            NET_BATCH_DEPTH,
            REJOIN_FIRST_CLAIM_MS,
            WAL_APPEND_US,
            WAL_FSYNC_US,
            RECOVERY_MS,
            MONITOR_FAILOVER_MS,
        ];
        for name in COUNTERS {
            let _ = registry.counter(MetricKey::global(name));
        }
        for name in GAUGES {
            let _ = registry.gauge(MetricKey::global(name));
        }
        for name in HISTOGRAMS {
            let _ = registry.histogram(MetricKey::global(name));
        }
    }
}
