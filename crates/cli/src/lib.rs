//! Implementation of the `d2tree` command-line tool.
//!
//! All command logic lives in this crate (returning its output as a
//! `String`) so it is unit-testable; `main.rs` only forwards
//! `std::env::args`. This file holds the error type, the usage text and
//! the dispatcher; the commands sit in one module per family.
//!
//! ```text
//! d2tree synth     --trace dtr --nodes 20000 --ops 100000 --seed 42 --out ws
//! d2tree stats     --tree ws.tree --trace ws.trace
//! d2tree partition --tree ws.tree --trace ws.trace --scheme d2tree --mds 8
//! d2tree replay    --tree ws.tree --trace ws.trace --scheme d2tree --mds 8
//! d2tree report    --tree ws.tree --trace ws.trace --scheme d2tree --mds 8
//! ```

#![warn(missing_docs)]

mod chaos;
mod health;
mod net;
mod opts;
mod sim;
mod store;

use std::error::Error;
use std::fmt;

use d2tree_store::StoreError;
use d2tree_workload::io as trace_io;

use crate::chaos::cmd_chaos;
use crate::health::cmd_health;
use crate::net::{cmd_load, cmd_serve, cmd_top};
use crate::opts::Opts;
use crate::sim::{
    cmd_check, cmd_hotspots, cmd_partition, cmd_replay, cmd_report, cmd_stats, cmd_synth, cmd_trace,
};
use crate::store::cmd_store;

/// Errors surfaced to the user.
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// Wrong or missing arguments; the message explains usage.
    Usage(String),
    /// A file could not be read or written.
    Io(std::io::Error),
    /// A trace/namespace file was malformed.
    Format(trace_io::TraceIoError),
    /// A chaos run violated a recovery invariant or failed to reproduce.
    Chaos(String),
    /// A durable store could not be read, or its contents are corrupt.
    Store(StoreError),
    /// The trace analyzer found spans disagreeing with the paper's
    /// Def. 1 / Def. 3 predictions, or a structurally broken trace.
    Trace(String),
    /// A `load` section completed nothing or broke `--check-p99-us`, or
    /// `top` could not read the admin plane.
    Bench(String),
    /// A `health --check` run violated its health rules.
    Health(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Format(e) => write!(f, "bad input file: {e}"),
            CliError::Chaos(msg) => write!(f, "chaos run failed: {msg}"),
            CliError::Store(e) => write!(f, "store error: {e}"),
            CliError::Trace(msg) => write!(f, "trace check failed: {msg}"),
            CliError::Bench(msg) => write!(f, "bench failed: {msg}"),
            CliError::Health(msg) => write!(f, "health check failed: {msg}"),
        }
    }
}

impl From<StoreError> for CliError {
    fn from(e: StoreError) -> Self {
        CliError::Store(e)
    }
}

impl Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<trace_io::TraceIoError> for CliError {
    fn from(e: trace_io::TraceIoError) -> Self {
        CliError::Format(e)
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
d2tree — distributed double-layer namespace tree partitioning (ICDCS'18 reproduction)

USAGE:
    d2tree <COMMAND> [OPTIONS]

COMMANDS:
    synth      generate a synthetic namespace + trace to files
    stats      summarise a namespace + trace (Table I/II style)
    partition  partition a namespace and report locality/balance
    replay     replay a trace through the cluster simulator
    report     replay a trace and export telemetry (Prometheus text / JSON)
    trace      replay with per-op tracing: Chrome trace JSON + Def. 1/3 cross-check
    hotspots   list the hottest paths of a trace
    check      partition with D2-Tree and fsck the resulting state
    chaos      replay a seeded crash/partition schedule and check recovery
    health     flight-record a drifting replay: Def. 3/5 trajectory, anomaly
               flags, JSONL/CSV export; --check exits non-zero on violations
    store      inspect, verify or compact a durable MDS store
    serve      run one MDS as a real TCP daemon over the frame codec
    load       drive a running `serve` daemon over N TCP connections and
               report throughput + latency percentiles
    top        poll a running daemon's admin plane and render a refreshing
               ops/s + server latency + redirect-rate + health view
    help       show this message

Common options:
    --tree <file>    namespace file (from `synth`, `D|F <path>` lines)
    --trace <file>   trace file (from `synth`, `R|W|U <path>` lines)
    --scheme <name>  d2tree | static | dynamic | hash | drop | anglecut
    --mds <n>        cluster size (default 8)
    --gl <frac>      D2-Tree global-layer proportion (default 0.01)
    --seed <n>       RNG seed (default 42)

`synth` options:
    --profile <name>  dtr | lmbe | ra (default dtr)
    --nodes <n>       namespace size (default 20000)
    --ops <n>         trace length (default 100000)
    --out <prefix>    writes <prefix>.tree and <prefix>.trace

`replay` / `report` options:
    --metrics-out <file>  (replay) also write the telemetry snapshot as JSON
    --format <name>       (report) prometheus | json | both (default both)
    --events-out <file>   (report) also dump the event journal as JSON lines
    --fault-drop <p>      drop each client→MDS message with probability p
    --fault-dup <p>       duplicate each client→MDS message with probability p
    --fault-seed <n>      seed of the fault injector (default: --seed)

`trace` options (takes the common workspace/scheme options too):
    --sample <rate>  fraction of operations to trace, in [0, 1] (default 1.0)
    --out <file>     Chrome trace-event JSON path (default trace.json),
                     loadable in chrome://tracing and Perfetto

`chaos` options (schedule is derived from --seed; one Monitor replica):
    --mds <n>         cluster size (default 4)
    --nodes <n>       namespace size (default 600)
    --ticks <n>       virtual ticks to run (default 400)
    --tick-ms <n>     virtual ms per tick (default 20)
    --kills <n>       crash-restart cycles (default 2)
    --partitions <n>  monitor-link partition windows (default 1)
    --store-crashes <n>  also run a WAL/torn-write store-chaos schedule
                         with this many crash-recover cycles (default 0 = off)
    --monitor-crashes <n>  also run the same engine over three Monitor
                         replicas, crash-restarting the leader this many
                         times (plus a peer partition, a forced split
                         vote and an MDS kill), checking election safety,
                         fencing-token monotonicity and bounded failover
                         (default 0 = off)

`health` options (all optional):
    --profile <name>  dtr | lmbe | ra (default lmbe; lmbe drifts hardest)
    --nodes <n>       namespace size (default 3000)
    --ops <n>         total operations (default 24000)
    --mds <n>         cluster size (default 8)
    --phases <n>      hot-set drift phases (default 4)
    --rounds <n>      replay/rebalance rounds = health ticks (default 12)
    --decay <x>       popularity decay between rounds (default 0.5)
    --seed <n>        RNG seed (default 42)
    --inject-imbalance  freeze the placement (static scheme, no adjustment)
                        so drift drives the cluster out of balance — the
                        trajectory should then violate the balance rule
    --check           exit non-zero if any post-warmup tick breaks a rule
    --min-balance <x>       Def. 5 floor after warm-up (default 1.0)
    --max-retry-rate <x>    retries-per-op ceiling (default 1.0)
    --max-fsync-p99-us <n>  WAL fsync p99 ceiling, 0 = off (default 0)
    --warmup <n>            ticks exempt from rules (default 1)
    --out <file>      write the trajectory as JSON lines
    --csv <file>      write the trajectory as CSV

`store` usage:
    d2tree store inspect <dir>   summarise snapshot, WAL segments and record mix
    d2tree store verify <dir>    CRC-scan the whole store; errors on corruption
    d2tree store compact <dir>   snapshot now and prune covered WAL segments

`serve` / `load` options:
    Both commands derive the SAME cluster (tree, trace, placement, local
    index) from the shared workload flags, so they must be given identical
    values for: --profile (default dtr), --nodes (default 2000),
    --ops (default 10000), --seed (default 42), --gl (default 0.01),
    --mds (default 1; cluster size of the derivation).

    serve [--addr <ip:port>]   listen address (default 127.0.0.1:0)
          [--mds-id <k>]       which MDS of the derivation to serve (default 0)
          [--store-root <dir>] attach a durable WAL store at <dir>/mds-<k>
          [--duration-ms <n>]  serve this long then exit (default 0 = forever)
          [--port-file <file>] write the bound address (resolves port 0)
                               atomically once listening — start scripts and
                               CI poll this file instead of racing the bind
          [--sample <rate>]    trace-sample served requests at this rate,
                               parenting serve spans on the wire trailer
          [--admin-addr <ip:port>]  also serve the live admin plane here:
                               GET /metrics (Prometheus text), /metrics.json,
                               /health (flight-recorder rules → 200/503),
                               /trace?n=K (last K sealed spans, Chrome JSON),
                               /slow (slowest served requests)
          [--admin-port-file <file>]  write the bound admin address
                               atomically once listening (needs --admin-addr)
          [--admin-tick-ms <n>]  admin flight-recorder sampling period
                               (default 250)

    load  --addr <a,b,...>     comma-separated server addresses indexed by
                               owner MDS id (owners wrap modulo the list, so
                               one address absorbs a multi-MDS derivation)
          [--conns <n>]        concurrent connections (default 4)
          [--count <n>]        operations to issue (default: trace length)
          [--mode <m>]         closed | open | both (default closed)
          [--qps <x>]          open-loop aggregate target rate (default 2000)
          [--pipeline <l>]     comma-separated per-connection pipeline depths
                               (default 1); each mode runs once per depth and
                               depths > 1 report as e.g. closed_p8; the run
                               fails if any section completed zero operations
          [--timeout-ms <n>]   per-attempt socket timeout (default 2000)
          [--check-p99-us <n>] error unless every section's p99 stays under
                               <n> microseconds

    top   --admin-addr <ip:port>  admin plane of a running daemon (the
                               address `serve --admin-addr` bound)
          [--refresh-ms <n>]   poll period (default 1000)
          [--iters <n>]        stop after n refreshes and return them as
                               text (default 0 = stream forever to stdout)
          [--timeout-ms <n>]   per-request socket timeout (default 2000)
";

/// Runs one CLI invocation; `args` excludes the program name.
///
/// # Errors
///
/// Returns [`CliError`] for usage mistakes, I/O failures and malformed
/// input files.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(CliError::Usage(USAGE.to_owned()));
    };
    let cmd: fn(&Opts) -> Result<String, CliError> = match command.as_str() {
        "synth" => cmd_synth,
        "stats" => cmd_stats,
        "partition" => cmd_partition,
        "replay" => cmd_replay,
        "report" => cmd_report,
        "trace" => cmd_trace,
        "hotspots" => cmd_hotspots,
        "check" => cmd_check,
        "chaos" => cmd_chaos,
        "health" => cmd_health,
        "store" => return cmd_store(rest),
        "serve" => cmd_serve,
        "load" => cmd_load,
        "top" => cmd_top,
        "help" | "--help" | "-h" => return Ok(USAGE.to_owned()),
        other => {
            return Err(CliError::Usage(format!(
                "unknown command {other:?}\n\n{USAGE}"
            )))
        }
    };
    let switches: &[&str] = if command == "health" {
        &["check", "inject-imbalance"]
    } else {
        &[]
    };
    let opts = Opts::parse(rest, switches)?;
    let out = cmd(&opts)?;
    opts.reject_unread()?;
    Ok(out)
}

/// Argument and scratch-path helpers shared by every module's tests.
#[cfg(test)]
mod test_support {
    pub(crate) fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    pub(crate) fn tmp_prefix(tag: &str) -> String {
        let dir =
            std::env::temp_dir().join(format!("d2tree-cli-test-{tag}-{}", std::process::id()));
        dir.to_string_lossy().into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{args, tmp_prefix};
    use super::*;

    #[test]
    fn help_and_unknown_commands() {
        assert!(run(&args(&["help"])).unwrap().contains("USAGE"));
        assert!(matches!(run(&args(&["bogus"])), Err(CliError::Usage(_))));
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
    }

    #[test]
    fn usage_errors_are_helpful() {
        assert!(matches!(
            run(&args(&["synth", "--nodes", "100"])),
            Err(CliError::Usage(msg)) if msg.contains("--out")
        ));
        assert!(matches!(
            run(&args(&[
                "partition",
                "--tree",
                "x",
                "--trace",
                "y",
                "--scheme",
                "nope"
            ])),
            Err(CliError::Io(_)) | Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["synth", "--nodes", "abc", "--out", "x"])),
            Err(CliError::Usage(msg)) if msg.contains("number")
        ));

        // A flag the command never reads is an error naming it, not a
        // silent default (`--mdss 3` used to partition over 8 MDSs).
        let prefix = tmp_prefix("usage");
        run(&args(&[
            "synth", "--nodes", "200", "--ops", "400", "--out", &prefix,
        ]))
        .unwrap();
        let (tree_file, trace_file) = (format!("{prefix}.tree"), format!("{prefix}.trace"));
        assert!(matches!(
            run(&args(&[
                "partition", "--tree", &tree_file, "--trace", &trace_file, "--scheme", "d2tree",
                "--mdss", "3",
            ])),
            Err(CliError::Usage(msg)) if msg.contains("--mdss")
        ));
        // The retired bench surfaces are such flags (and words) now.
        assert!(matches!(
            run(&args(&[
                "trace", "--bench", "--tree", &tree_file, "--trace", &trace_file, "--scheme",
                "d2tree",
            ])),
            Err(CliError::Usage(msg)) if msg.contains("--bench")
        ));
        assert!(matches!(
            run(&args(&["load", "--out", "x"])),
            Err(CliError::Usage(msg)) if msg.contains("--out")
        ));
        assert!(matches!(
            run(&args(&["serve", "--duration-ms", "1", "--sed", "7"])),
            Err(CliError::Usage(msg)) if msg.contains("--sed")
        ));
        assert!(matches!(
            run(&args(&["store", "bench"])),
            Err(CliError::Usage(msg)) if msg.contains("\"bench\"")
        ));
        let _ = std::fs::remove_file(tree_file);
        let _ = std::fs::remove_file(trace_file);
    }
}
