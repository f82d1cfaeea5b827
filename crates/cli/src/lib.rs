//! Implementation of the `d2tree` command-line tool.
//!
//! All command logic lives here (returning its output as a `String`) so
//! it is unit-testable; `main.rs` only forwards `std::env::args`.
//!
//! ```text
//! d2tree synth     --trace dtr --nodes 20000 --ops 100000 --seed 42 --out ws
//! d2tree stats     --tree ws.tree --trace ws.trace
//! d2tree partition --tree ws.tree --trace ws.trace --scheme d2tree --mds 8
//! d2tree replay    --tree ws.tree --trace ws.trace --scheme d2tree --mds 8
//! d2tree report    --tree ws.tree --trace ws.trace --scheme d2tree --mds 8
//! ```

#![warn(missing_docs)]

use std::cell::Cell;
use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::sync::Arc;
use std::time::Duration;

use d2tree_baselines::{AngleCut, DropScheme, DynamicSubtree, HashMapping, StaticSubtree};
use d2tree_cluster::{
    admin_get, analyze, run_chaos, run_load, run_store_chaos, AdminConfig, AdminServer,
    ChaosConfig, ChaosReport, FaultAction, FaultPlan, FaultRule, FaultScope, LoadConfig, LoadMode,
    NetMds, NetServer, NetServerConfig, ReplayOutcome, RetryPolicy, SimConfig, Simulator,
    StoreChaosConfig, StrictChainRoute,
};
use d2tree_core::{D2TreeConfig, D2TreeScheme, LocalIndex, Partitioner};
use d2tree_metrics::{balance, ClusterSpec, MdsId, Placement};
use d2tree_namespace::NamespaceTree;
use d2tree_store::{compact, inspect, verify, StoreConfig, StoreError};
use d2tree_telemetry::export::{self, parse_metrics_json, MetricsDoc};
use d2tree_telemetry::trace::{chrome_trace_json, digest, Sampler, Tracer};
use d2tree_telemetry::{json, names, Registry};
use d2tree_workload::{io as trace_io, Trace, TraceProfile, TraceStats, WorkloadBuilder};

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

/// `--flag value` argument map that remembers which flags the command
/// looked up, so one it never reads — a typo, a flag of another
/// command — is an error instead of a silent default.
#[derive(Debug, Default)]
struct Opts {
    /// `(flag, value, read)`.
    pairs: Vec<(String, String, Cell<bool>)>,
}

impl Opts {
    /// Parses `--flag value` pairs; a flag named in `switches` takes no
    /// value and reads back through [`Opts::switch`].
    fn parse(args: &[String], switches: &[&str]) -> Result<Opts, CliError> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| CliError::Usage(format!("expected --flag, got {flag:?}")))?;
            let value = if switches.contains(&key) {
                String::new()
            } else {
                // No value starts with `--`, so a flag there means this
                // one's value is missing; naming `key` (not the word
                // after next) is what makes a stray `--switch` legible.
                it.next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| CliError::Usage(format!("--{key} needs a value")))?
                    .clone()
            };
            pairs.push((key.to_owned(), value, Cell::new(false)));
        }
        Ok(Opts { pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        let mut found = None;
        for (k, v, read) in &self.pairs {
            if k == key {
                read.set(true);
                found = found.or(Some(v.as_str()));
            }
        }
        found
    }

    fn switch(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    fn required(&self, key: &str) -> Result<&str, CliError> {
        self.get(key)
            .ok_or_else(|| CliError::Usage(format!("missing required --{key}")))
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{key} expects a number, got {v:?}"))),
        }
    }

    /// Errors on the first flag no `get`/`num`/`switch` has asked for.
    /// [`run`] calls this once a command returns; a command that blocks
    /// or runs long (`serve`, `load`, `top`) calls it itself once it has
    /// read its flags, so a typo fails before the work, not after.
    fn reject_unread(&self) -> Result<(), CliError> {
        match self.pairs.iter().find(|(_, _, read)| !read.get()) {
            Some((key, ..)) => Err(CliError::Usage(format!(
                "unknown option --{key} for this command (see `d2tree help`)"
            ))),
            None => Ok(()),
        }
    }
}

fn profile_by_name(name: &str) -> Result<TraceProfile, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "dtr" => Ok(TraceProfile::dtr()),
        "lmbe" => Ok(TraceProfile::lmbe()),
        "ra" => Ok(TraceProfile::ra()),
        other => Err(CliError::Usage(format!(
            "unknown profile {other:?} (expected dtr, lmbe or ra)"
        ))),
    }
}

fn scheme_by_name(name: &str, gl: f64, seed: u64) -> Result<Box<dyn Partitioner>, CliError> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "d2tree" => Box::new(D2TreeScheme::new(
            D2TreeConfig::by_proportion(gl).with_seed(seed),
        )),
        "static" => Box::new(StaticSubtree::new(seed)),
        "dynamic" => Box::new(DynamicSubtree::new(seed)),
        "hash" => Box::new(HashMapping::new(seed)),
        "drop" => Box::new(DropScheme::new(seed)),
        "anglecut" => Box::new(AngleCut::new(seed)),
        other => {
            return Err(CliError::Usage(format!(
            "unknown scheme {other:?} (expected d2tree, static, dynamic, hash, drop or anglecut)"
        )))
        }
    })
}

fn load_workspace(opts: &Opts) -> Result<(NamespaceTree, Trace), CliError> {
    let tree_path = opts.required("tree")?;
    let trace_path = opts.required("trace")?;
    let tree = trace_io::read_tree(BufReader::new(File::open(tree_path)?))?;
    let trace = trace_io::read_trace(BufReader::new(File::open(trace_path)?), &tree)?;
    Ok((tree, trace))
}

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

fn cmd_synth(opts: &Opts) -> Result<String, CliError> {
    let profile = profile_by_name(opts.get("profile").unwrap_or("dtr"))?
        .with_nodes(opts.num("nodes", 20_000usize)?)
        .with_operations(opts.num("ops", 100_000usize)?);
    let seed = opts.num("seed", 42u64)?;
    let out = opts.required("out")?;

    let workload = WorkloadBuilder::new(profile).seed(seed).build();
    let tree_path = format!("{out}.tree");
    let trace_path = format!("{out}.trace");
    trace_io::write_tree(BufWriter::new(File::create(&tree_path)?), &workload.tree)?;
    trace_io::write_trace(
        BufWriter::new(File::create(&trace_path)?),
        &workload.trace,
        &workload.tree,
    )?;
    Ok(format!(
        "wrote {tree_path} ({} nodes, max depth {}) and {trace_path} ({} ops)\n",
        workload.tree.node_count(),
        workload.tree.max_depth(),
        workload.trace.len()
    ))
}

fn cmd_stats(opts: &Opts) -> Result<String, CliError> {
    let (tree, trace) = load_workspace(opts)?;
    let stats = TraceStats::measure("workspace", &trace, &tree);
    Ok(format!(
        "{stats}\n\
         directories: {}\nfiles: {}\nmean access depth: {:.2}\n",
        tree.directory_count(),
        tree.file_count(),
        stats.mean_access_depth
    ))
}

fn cmd_partition(opts: &Opts) -> Result<String, CliError> {
    let (tree, trace) = load_workspace(opts)?;
    let m = opts.num("mds", 8usize)?;
    let gl = opts.num("gl", 0.01f64)?;
    let seed = opts.num("seed", 42u64)?;
    let mut scheme = scheme_by_name(opts.required("scheme")?, gl, seed)?;

    let pop = trace.popularity(&tree);
    let cluster = ClusterSpec::homogeneous(m, pop.sum_individual().max(1.0) / m as f64);
    scheme.build(&tree, &pop, &cluster);

    let locality = scheme.locality(&tree, &pop);
    let loads = scheme.loads(&tree, &pop);
    let replicated = scheme.placement().replicated_count(&tree);
    let mut out = String::new();
    out.push_str(&format!("scheme: {}\n", scheme.name()));
    out.push_str(&format!("cluster: {m} MDSs\n"));
    out.push_str(&format!("replicated (global-layer) nodes: {replicated}\n"));
    out.push_str(&format!("locality (Def. 3): {:.6e}\n", locality.locality));
    out.push_str(&format!(
        "balance (Def. 5): {:.3}\n",
        balance(&loads, &cluster)
    ));
    out.push_str("per-MDS loads:");
    for l in &loads {
        out.push_str(&format!(" {l:.0}"));
    }
    out.push('\n');
    Ok(out)
}

/// Builds the optional fault plan requested by `--fault-*` flags.
fn fault_plan_from_opts(opts: &Opts, default_seed: u64) -> Result<Option<FaultPlan>, CliError> {
    let drop_p = opts.num("fault-drop", 0.0f64)?;
    let dup_p = opts.num("fault-dup", 0.0f64)?;
    let fault_seed = opts.num("fault-seed", default_seed)?;
    if drop_p <= 0.0 && dup_p <= 0.0 {
        return Ok(None);
    }
    let mut plan = FaultPlan::new(fault_seed);
    if drop_p > 0.0 {
        plan = plan.with_rule(
            FaultRule::new(FaultScope::AllLinks, FaultAction::Drop).with_probability(drop_p),
        );
    }
    if dup_p > 0.0 {
        plan = plan.with_rule(
            FaultRule::new(FaultScope::AllLinks, FaultAction::Duplicate).with_probability(dup_p),
        );
    }
    Ok(Some(plan))
}

/// Builds a scheme from the CLI options and replays the trace through an
/// instrumented simulator, returning the scheme name, the outcome and the
/// telemetry registry the run filled in.
fn instrumented_replay(opts: &Opts) -> Result<(String, ReplayOutcome, Arc<Registry>), CliError> {
    let (tree, trace) = load_workspace(opts)?;
    let m = opts.num("mds", 8usize)?;
    let gl = opts.num("gl", 0.01f64)?;
    let seed = opts.num("seed", 42u64)?;
    let clients = opts.num("clients", 200usize)?;
    let mut scheme = scheme_by_name(opts.required("scheme")?, gl, seed)?;

    let pop = trace.popularity(&tree);
    let cluster = ClusterSpec::homogeneous(m, 1.0);
    scheme.build(&tree, &pop, &cluster);
    let registry = Arc::new(Registry::new());
    names::register_all(&registry);
    let mut sim = Simulator::new(SimConfig {
        clients,
        seed,
        ..SimConfig::default()
    })
    .with_registry(Arc::clone(&registry));
    if let Some(plan) = fault_plan_from_opts(opts, seed)? {
        sim = sim.with_faults(plan);
    }
    let out = sim.replay(&tree, &trace, scheme.as_ref());
    Ok((scheme.name().to_owned(), out, registry))
}

fn cmd_replay(opts: &Opts) -> Result<String, CliError> {
    let (name, out, registry) = instrumented_replay(opts)?;
    let mut text = format!(
        "scheme: {name}\ncompleted: {} ops in {:.3} virtual s\n\
         throughput: {:.0} ops/s\nmean latency: {:.1} µs\np99 latency: {:.1} µs\n\
         forwarding hops: {}\n",
        out.completed,
        out.sim_seconds,
        out.throughput,
        out.mean_latency_us,
        out.p99_latency_us,
        out.total_hops
    );
    if let Some(path) = opts.get("metrics-out") {
        std::fs::write(path, export::json(&registry.snapshot()))?;
        text.push_str(&format!("metrics written to {path}\n"));
    }
    Ok(text)
}

fn cmd_report(opts: &Opts) -> Result<String, CliError> {
    let format = opts.get("format").unwrap_or("both");
    let (name, out, registry) = instrumented_replay(opts)?;
    let snapshot = registry.snapshot();
    let mut text = format!(
        "# replay of {} ops under scheme {name} ({:.0} ops/s)\n",
        out.completed, out.throughput
    );
    match format {
        "prometheus" => text.push_str(&export::prometheus_text(&snapshot)),
        "json" => text.push_str(&export::json(&snapshot)),
        "both" => {
            text.push_str("==> prometheus <==\n");
            text.push_str(&export::prometheus_text(&snapshot));
            text.push_str("==> json <==\n");
            text.push_str(&export::json(&snapshot));
            text.push('\n');
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown --format {other:?} (expected prometheus, json or both)"
            )))
        }
    }
    if let Some(path) = opts.get("events-out") {
        std::fs::write(path, export::events_jsonl(&snapshot))?;
        text.push_str(&format!(
            "{} journal event(s) written to {path}\n",
            snapshot.events.len()
        ));
    }
    Ok(text)
}

/// Replays a workspace with distributed tracing on, cross-checks the
/// observed spans against Def. 1 (`path_jumps`) and Def. 3 (locality)
/// — any disagreement is a hard error — and writes the spans as a
/// Chrome trace-event JSON file.
fn cmd_trace(opts: &Opts) -> Result<String, CliError> {
    let (tree, trace) = load_workspace(opts)?;
    let m = opts.num("mds", 8usize)?;
    let gl = opts.num("gl", 0.01f64)?;
    let seed = opts.num("seed", 42u64)?;
    let clients = opts.num("clients", 200usize)?;
    let rate = opts.num("sample", 1.0f64)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(CliError::Usage(format!(
            "--sample expects a rate in [0, 1], got {rate}"
        )));
    }
    let out_path = opts.get("out").unwrap_or("trace.json").to_owned();
    let mut scheme = scheme_by_name(opts.required("scheme")?, gl, seed)?;

    let pop = trace.popularity(&tree);
    let cluster = ClusterSpec::homogeneous(m, 1.0);
    scheme.build(&tree, &pop, &cluster);

    let registry = Arc::new(Registry::new());
    names::register_all(&registry);
    let tracer = Arc::new(Tracer::new(Sampler::new(seed, rate)));
    // The strict router walks the full forwarding chain on every query,
    // so the serve spans are comparable with Def. 1 hop by hop.
    let strict = StrictChainRoute(scheme.as_ref());
    let mut sim = Simulator::new(SimConfig {
        clients,
        seed,
        ..SimConfig::default()
    })
    .with_registry(Arc::clone(&registry))
    .with_tracer(Arc::clone(&tracer));
    if let Some(plan) = fault_plan_from_opts(opts, seed)? {
        sim = sim.with_faults(plan);
    }
    let out = sim.replay(&tree, &trace, &strict);

    let spans = tracer.drain();
    let analysis = analyze(&spans, &tree, scheme.placement(), &pop)
        .map_err(|e| CliError::Trace(e.to_string()))?;
    let span_digest = digest(&spans);
    std::fs::write(&out_path, chrome_trace_json(&spans))?;

    let mut text = format!(
        "traced replay: scheme {}, {} ops, sampling {:.4}%\n\
         spans: {} recorded, {} shed; digest {span_digest:016x}\n\
         ops traced: {}  mean observed hops: {:.4}\n\
         Def. 1: span-derived hops == path_jumps for every sampled op\n\
         Def. 3: observed locality {:.6e} == analytic {:.6e} (f64 tolerance)\n",
        scheme.name(),
        out.completed,
        rate * 100.0,
        tracer.sink().recorded(),
        tracer.sink().dropped(),
        analysis.ops.len(),
        analysis.mean_observed_hops,
        analysis.observed_locality.locality,
        analysis.analytic_locality.locality,
    );
    if analysis.faults.is_empty() {
        text.push_str("injected faults observed: none\n");
    } else {
        text.push_str("injected faults observed (latency attributed to the faulted hop):\n");
        for (kind, att) in &analysis.faults {
            text.push_str(&format!(
                "  {}: {} span(s), {} µs total across {} MDS lane(s)\n",
                kind.label(),
                att.count,
                att.total_us,
                att.per_mds.len()
            ));
        }
    }
    text.push_str(&format!(
        "chrome trace written to {out_path} (open in chrome://tracing or Perfetto)\n"
    ));
    Ok(text)
}

fn cmd_hotspots(opts: &Opts) -> Result<String, CliError> {
    let (tree, trace) = load_workspace(opts)?;
    let top = opts.num("top", 15usize)?;
    let mut counts = std::collections::HashMap::new();
    for op in &trace {
        *counts.entry(op.target).or_insert(0u64) += 1;
    }
    let mut ranked: Vec<_> = counts.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(top);
    let total = trace.len().max(1) as f64;
    let mut out = format!("top {} targets of {} ops:\n", ranked.len(), trace.len());
    for (id, count) in ranked {
        out.push_str(&format!(
            "{count:>10}  {:>6.2}%  {}\n",
            100.0 * count as f64 / total,
            tree.path_of(id)
        ));
    }
    Ok(out)
}

fn cmd_check(opts: &Opts) -> Result<String, CliError> {
    let (tree, trace) = load_workspace(opts)?;
    let m = opts.num("mds", 8usize)?;
    let gl = opts.num("gl", 0.01f64)?;
    let seed = opts.num("seed", 42u64)?;
    let rounds = opts.num("rounds", 5usize)?;

    let pop = trace.popularity(&tree);
    let cluster = ClusterSpec::homogeneous(m, pop.sum_individual().max(1.0) / m as f64);
    let mut scheme = D2TreeScheme::new(D2TreeConfig::by_proportion(gl).with_seed(seed));
    scheme.build(&tree, &pop, &cluster);
    for _ in 0..rounds {
        let _ = scheme.rebalance(&tree, &pop, &cluster);
    }
    let violations = d2tree_core::check_d2tree(
        &tree,
        scheme.placement(),
        scheme.global_layer(),
        scheme.local_index(),
    );
    if violations.is_empty() {
        Ok(format!(
            "OK: {} nodes, {} global-layer, {} subtrees, {} rebalance rounds — no violations\n",
            tree.node_count(),
            scheme.global_layer().len(),
            scheme.subtrees().count(),
            rounds
        ))
    } else {
        let mut out = format!("{} violations:\n", violations.len());
        for v in violations.iter().take(50) {
            out.push_str(&format!("  {v}\n"));
        }
        Err(CliError::Usage(out))
    }
}

/// Runs one chaos schedule twice; a report that differs between the
/// runs or carries violations is an error naming `what` failed.
fn chaos_twice(seed: u64, config: &ChaosConfig, what: &str) -> Result<ChaosReport, CliError> {
    let report = run_chaos(seed, config);
    if report != run_chaos(seed, config) {
        return Err(CliError::Chaos(format!(
            "{what}seed {seed} did not reproduce: two runs produced different reports"
        )));
    }
    if !report.violations.is_empty() {
        let mut msg = format!(
            "{what}seed {seed}: {} invariant violation(s):\n",
            report.violations.len()
        );
        for v in report.violations.iter().take(20) {
            msg.push_str(&format!("  {v}\n"));
        }
        return Err(CliError::Chaos(msg));
    }
    Ok(report)
}

fn cmd_chaos(opts: &Opts) -> Result<String, CliError> {
    let seed = opts.num("seed", 42u64)?;
    let defaults = ChaosConfig::lone_monitor();
    let config = ChaosConfig {
        mds: opts.num("mds", defaults.mds)?,
        nodes: opts.num("nodes", defaults.nodes)?,
        ticks: opts.num("ticks", defaults.ticks)?,
        tick_ms: opts.num("tick-ms", defaults.tick_ms)?,
        kills: opts.num("kills", defaults.kills)?,
        partitions: opts.num("partitions", defaults.partitions)?,
        ..defaults
    };
    if config.mds < 2 {
        return Err(CliError::Usage("--mds must be at least 2".to_owned()));
    }
    let report = chaos_twice(seed, &config, "")?;
    let mut out = format!(
        "chaos seed {seed}: {} MDSs, {} ticks x {} ms\n\
         kills: {}  restarts: {}  partitions: {}\n\
         rejoins: {} ({} reclaimed at least one subtree)\n\
         faults injected: {} dropped, {} delayed, {} duplicated\n\
         GL updates blocked by crashed lock holder: {}\n\
         journal: {} events, identical across two runs\n\
         invariants: all clean (every subtree exactly one live owner, GL converged)\n",
        config.mds,
        report.ticks,
        config.tick_ms,
        report.kills,
        report.restarts,
        report.partitions,
        report.rejoins,
        report.rejoins_with_claims,
        report.faults_dropped,
        report.faults_delayed,
        report.faults_duplicated,
        report.blocked_updates,
        report.journal.len(),
    );

    let store_crashes = opts.num("store-crashes", 0usize)?;
    if store_crashes > 0 {
        let store_config = StoreChaosConfig {
            crashes: store_crashes,
            ..StoreChaosConfig::default()
        };
        let store_report = run_store_chaos(seed, &store_config);
        if store_report != run_store_chaos(seed, &store_config) {
            return Err(CliError::Chaos(format!(
                "store seed {seed} did not reproduce: two runs produced different reports"
            )));
        }
        if !store_report.violations.is_empty() {
            let mut msg = format!(
                "store seed {seed}: {} recovery-contract violation(s):\n",
                store_report.violations.len()
            );
            for v in store_report.violations.iter().take(20) {
                msg.push_str(&format!("  {v}\n"));
            }
            return Err(CliError::Chaos(msg));
        }
        out.push_str(&format!(
            "store chaos: {} crashes — {} left torn tails, {} under lying fsyncs, {} fail-loud\n\
             store records: {} appended, {} unsynced lost; {} syncs, {} snapshots\n\
             corruption probes: {} injected, {} detected\n\
             store invariants: all clean (recovery always an exact journaled prefix)\n",
            store_report.crashes,
            store_report.torn_crashes,
            store_report.partial_fsyncs,
            store_report.loud_failures,
            store_report.records_appended,
            store_report.records_lost,
            store_report.syncs,
            store_report.snapshots,
            store_report.corrupt_probes,
            store_report.corruptions_detected,
        ));
    }

    let monitor_crashes = opts.num("monitor-crashes", 0usize)?;
    if monitor_crashes > 0 {
        let monitor_config = ChaosConfig {
            monitor_kills: monitor_crashes,
            ..ChaosConfig::replicated()
        };
        let monitor_report = chaos_twice(seed, &monitor_config, "monitor ")?;
        out.push_str(&format!(
            "monitor chaos: {} leader crashes, {} restarts; {} elections, {} leader changes\n\
             replicated log: {} commits — {} grants, {} GL writes, {} migrations\n\
             fencing: {} rejections ({} deliberate expired-fence probes confirmed)\n\
             client: {} control-plane retries, {} writes blocked leaderless\n\
             worst failover: {} virtual ms; journal: {} events, identical across two runs\n\
             control-plane invariants: all clean (one leader per term, logs match, fences monotonic)\n",
            monitor_report.monitor_kills,
            monitor_report.monitor_restarts,
            monitor_report.elections,
            monitor_report.leader_changes,
            monitor_report.commits,
            monitor_report.grants,
            monitor_report.gl_writes,
            monitor_report.migrations_committed,
            monitor_report.fence_rejections,
            monitor_report.stale_probes_confirmed,
            monitor_report.monitor_retries,
            monitor_report.blocked_writes,
            monitor_report.max_failover_ms,
            monitor_report.journal.len(),
        ));
    }
    Ok(out)
}

/// `d2tree health`: replays a drifting workload round by round with the
/// flight recorder on, renders the Def. 3 locality / Def. 5 balance
/// trajectory plus per-tick operational signals, and (with `--check`)
/// fails on violated health rules. `--inject-imbalance` swaps the
/// adaptive D2-Tree scheme for a frozen static placement, so the
/// drifting hot set drives the cluster out of balance — the scenario
/// the balance rule exists to catch.
#[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
fn cmd_health(opts: &Opts) -> Result<String, CliError> {
    let check = opts.switch("check");
    let inject = opts.switch("inject-imbalance");
    let profile = profile_by_name(opts.get("profile").unwrap_or("lmbe"))?
        .with_nodes(opts.num("nodes", 3_000usize)?)
        .with_operations(opts.num("ops", 24_000usize)?);
    let m = opts.num("mds", 8usize)?;
    let gl = opts.num("gl", 0.01f64)?;
    let seed = opts.num("seed", 42u64)?;
    let phases = opts.num("phases", 4usize)?;
    let rounds = opts.num("rounds", 12usize)?;
    let decay = opts.num("decay", 0.5f64)?;
    let clients = opts.num("clients", 200usize)?;
    let rules = d2tree_telemetry::HealthRules {
        min_balance: opts.num("min-balance", 1.0f64)?,
        max_retry_rate: opts.num("max-retry-rate", 1.0f64)?,
        max_fsync_p99_us: opts.num("max-fsync-p99-us", 0u64)?,
        warmup_ticks: opts.num("warmup", 1u64)?,
    };
    if rounds == 0 || phases == 0 {
        return Err(CliError::Usage(
            "--rounds and --phases must be positive".to_owned(),
        ));
    }

    let drift = d2tree_workload::DriftingWorkload::generate(profile, phases, seed);
    let overlap = if phases > 1 {
        drift.hot_overlap(0, phases - 1, 50)
    } else {
        1.0
    };
    let full = Trace::from_ops(
        drift
            .phases
            .iter()
            .flat_map(|t| t.ops().iter().copied())
            .collect(),
    );

    // The initial placement only sees phase 0's popularity; later phases
    // are exactly the drift the adjustment loop (or, injected, the lack
    // of one) has to deal with.
    let pop0 = drift.phases[0].popularity(&drift.tree);
    let cluster = ClusterSpec::homogeneous(m, pop0.sum_individual().max(1.0) / m as f64);
    let mut scheme = scheme_by_name(if inject { "static" } else { "d2tree" }, gl, seed)?;
    scheme.build(&drift.tree, &pop0, &cluster);

    let registry = Arc::new(Registry::new());
    names::register_all(&registry);
    let mut recorder = d2tree_telemetry::FlightRecorder::new(rounds);
    let sim = Simulator::new(SimConfig {
        clients,
        seed,
        ..SimConfig::default()
    })
    .with_registry(Arc::clone(&registry));
    let out = sim.replay_with_rebalance_recorded(
        &drift.tree,
        &full,
        scheme.as_mut(),
        &cluster,
        rounds,
        decay,
        Some(&mut recorder),
    );

    let violations = rules.check(recorder.ticks());
    registry
        .counter(d2tree_telemetry::MetricKey::global(
            names::HEALTH_VIOLATIONS_TOTAL,
        ))
        .add(violations.len() as u64);
    if let Some(path) = opts.get("out") {
        std::fs::write(path, recorder.to_jsonl())?;
    }
    if let Some(path) = opts.get("csv") {
        std::fs::write(path, recorder.to_csv())?;
    }

    let fmt_score = |v: f64| -> String {
        if v.is_nan() {
            "-".to_owned()
        } else if v.is_infinite() {
            "inf".to_owned()
        } else if v != 0.0 && v.abs() < 0.01 {
            format!("{v:.3e}")
        } else {
            format!("{v:.3}")
        }
    };
    let max_balance = recorder
        .ticks()
        .map(|t| t.balance)
        .filter(|b| b.is_finite())
        .fold(0.0f64, f64::max);
    let mut text = format!(
        "health: scheme {} ({}), {} MDS, {} phase(s) × {} ops, {} round(s)\n\
         drift hardness: top-50 hot-set overlap phase 0 → {} = {:.2}\n\
         overall: {} ops, throughput {:.0} op/s, mean latency {:.1} µs\n\n\
         tick  balance     locality    ops     retry  migr  fault  shed  fsyncp99  balance bar\n",
        scheme.name(),
        if inject {
            "frozen placement: imbalance injected"
        } else {
            "adaptive"
        },
        m,
        phases,
        full.len() / phases,
        rounds,
        phases - 1,
        overlap,
        out.overall.completed,
        out.overall.throughput,
        out.overall.mean_latency_us,
    );
    for t in recorder.ticks() {
        let bar_len = if t.balance.is_infinite() {
            24
        } else if max_balance > 0.0 {
            ((t.balance / max_balance) * 24.0).round() as usize
        } else {
            0
        };
        text.push_str(&format!(
            "{:>4}  {:>10}  {:>10}  {:>6}  {:>5}  {:>4}  {:>5}  {:>4}  {:>8}  {}\n",
            t.tick,
            fmt_score(t.balance),
            fmt_score(t.locality),
            t.ops,
            t.retries,
            t.migrations,
            t.faults,
            t.spans_dropped,
            t.wal_fsync_p99_us,
            "#".repeat(bar_len.min(24)),
        ));
    }
    text.push_str(&format!(
        "\nrules: balance ≥ {}, retry rate ≤ {}, {}, warm-up {} tick(s)\n",
        rules.min_balance,
        rules.max_retry_rate,
        if rules.max_fsync_p99_us == 0 {
            "fsync p99 unchecked".to_owned()
        } else {
            format!("fsync p99 ≤ {} µs", rules.max_fsync_p99_us)
        },
        rules.warmup_ticks,
    ));
    if violations.is_empty() {
        text.push_str("health: OK — no rule violated after warm-up\n");
    } else {
        text.push_str(&format!("violations ({}):\n", violations.len()));
        for v in &violations {
            text.push_str(&format!("  {v}\n"));
        }
    }
    if check && !violations.is_empty() {
        return Err(CliError::Health(format!(
            "{} rule violation(s); first: {}\n\n{text}",
            violations.len(),
            violations[0]
        )));
    }
    Ok(text)
}

/// Dispatches `d2tree store <action> <dir>`: both operands positional.
fn cmd_store(rest: &[String]) -> Result<String, CliError> {
    let Some((action, rest)) = rest.split_first() else {
        return Err(CliError::Usage(
            "store needs an action: inspect | verify | compact".to_owned(),
        ));
    };
    let cmd: fn(&str) -> Result<String, CliError> = match action.as_str() {
        "inspect" => cmd_store_inspect,
        "verify" => cmd_store_verify,
        "compact" => cmd_store_compact,
        other => {
            return Err(CliError::Usage(format!(
                "unknown store action {other:?} (expected inspect, verify or compact)"
            )))
        }
    };
    match rest {
        [dir] => cmd(dir),
        [] => Err(CliError::Usage(format!("store {action} needs a <dir>"))),
        [_, extra, ..] => Err(CliError::Usage(format!(
            "store {action} takes one <dir>, got extra {extra:?}"
        ))),
    }
}

fn cmd_store_inspect(dir: &str) -> Result<String, CliError> {
    let report = inspect(dir)?;
    let mut out = format!(
        "store {dir}\n\
         snapshot lsn: {}\nnext lsn: {}\ntorn tail bytes: {}\n",
        report.snapshot_lsn, report.next_lsn, report.torn_bytes
    );
    out.push_str(&format!("segments: {}\n", report.segments.len()));
    for seg in &report.segments {
        out.push_str(&format!(
            "  wal-{:016x}.log  {} frames, {} valid bytes\n",
            seg.first_lsn, seg.frames, seg.valid_bytes
        ));
    }
    out.push_str("replayed records:");
    if report.record_counts.is_empty() {
        out.push_str(" none");
    }
    for (label, n) in &report.record_counts {
        out.push_str(&format!(" {label}={n}"));
    }
    out.push('\n');
    out.push_str(&format!(
        "state: gl_version {}, {} owned subtrees, {} attrs, {} popularity counters\n",
        report.gl_version, report.owned, report.attrs, report.popularity
    ));
    Ok(out)
}

fn cmd_store_verify(dir: &str) -> Result<String, CliError> {
    let report = verify(dir)?;
    Ok(format!(
        "OK: {dir}\n\
         {} records across {} segments verify (snapshot lsn {}, next lsn {})\n\
         torn tail bytes that recovery would truncate: {}\n",
        report.records, report.segments, report.snapshot_lsn, report.next_lsn, report.torn_bytes
    ))
}

fn cmd_store_compact(dir: &str) -> Result<String, CliError> {
    let (lsn, removed) = compact(dir, StoreConfig::default())?;
    Ok(format!(
        "compacted {dir}: snapshot at lsn {lsn}, {removed} covered segment(s) pruned\n"
    ))
}

/// Derives the cluster both sides of the TCP serving layer agree on:
/// the synthetic tree + trace from the workload flags, and the D2-Tree
/// placement/local-index built over that trace's popularity. `serve`
/// and `load` must be given identical --profile/--nodes/--ops/--seed/
/// --gl/--mds values — the placement depends on trace popularity, so a
/// mismatched client would route at a cluster nobody is serving.
fn derive_cluster(
    opts: &Opts,
) -> Result<(Arc<NamespaceTree>, Trace, Placement, LocalIndex, usize), CliError> {
    let profile = profile_by_name(opts.get("profile").unwrap_or("dtr"))?
        .with_nodes(opts.num("nodes", 2_000usize)?)
        .with_operations(opts.num("ops", 10_000usize)?);
    let seed = opts.num("seed", 42u64)?;
    let gl = opts.num("gl", 0.01f64)?;
    let m = opts.num("mds", 1usize)?;
    if m == 0 {
        return Err(CliError::Usage("--mds must be at least 1".to_owned()));
    }
    let workload = WorkloadBuilder::new(profile).seed(seed).build();
    let tree = Arc::new(workload.tree);
    let trace = workload.trace;
    let pop = trace.popularity(&tree);
    let mut scheme = D2TreeScheme::new(D2TreeConfig::by_proportion(gl).with_seed(seed));
    scheme.build(&tree, &pop, &ClusterSpec::homogeneous(m, 1.0));
    let placement = scheme.placement().clone();
    let index = scheme.local_index().clone();
    Ok((tree, trace, placement, index, m))
}

fn cmd_serve(opts: &Opts) -> Result<String, CliError> {
    let (tree, _trace, placement, index, m) = derive_cluster(opts)?;
    let mds_id = opts.num("mds-id", 0u16)?;
    if usize::from(mds_id) >= m {
        return Err(CliError::Usage(format!(
            "--mds-id {mds_id} is outside the {m}-MDS derivation (see --mds)"
        )));
    }
    let addr = opts.get("addr").unwrap_or("127.0.0.1:0");
    let duration_ms = opts.num("duration-ms", 0u64)?;
    let sample = opts.num("sample", 0.0f64)?;
    let seed = opts.num("seed", 42u64)?;
    let store_root = opts.get("store-root");
    let port_file = opts.get("port-file");
    let admin_addr = opts.get("admin-addr");
    let admin_port_file = opts.get("admin-port-file");
    let admin_tick = Duration::from_millis(opts.num("admin-tick-ms", 250u64)?);
    if admin_addr.is_none() && admin_port_file.is_some() {
        return Err(CliError::Usage(
            "--admin-port-file needs --admin-addr".to_owned(),
        ));
    }
    // Before anything binds: a daemon never returns to `run`'s check.
    opts.reject_unread()?;

    let registry = Arc::new(Registry::new());
    names::register_all(&registry);
    let mut mds = NetMds::new(
        Arc::clone(&tree),
        placement,
        index,
        MdsId(mds_id),
        Arc::clone(&registry),
    );
    if sample > 0.0 {
        mds = mds.with_tracer(Arc::new(Tracer::new(Sampler::new(seed, sample))));
    }
    if let Some(root) = store_root {
        mds = mds.with_store_root(std::path::Path::new(root), StoreConfig::default());
    }
    let mds = Arc::new(mds);
    let server = NetServer::bind(addr, Arc::clone(&mds), NetServerConfig::default())?;
    let bound = server.local_addr();
    if let Some(port_file) = port_file {
        write_port_file(port_file, &bound.to_string())?;
    }
    let admin = match admin_addr {
        Some(admin_addr) => {
            let config = AdminConfig {
                tick_interval: admin_tick,
                ..AdminConfig::default()
            };
            let admin = AdminServer::bind(admin_addr, Arc::clone(&mds), config)?;
            if let Some(port_file) = admin_port_file {
                write_port_file(port_file, &admin.local_addr().to_string())?;
            }
            Some(admin)
        }
        None => None,
    };
    if duration_ms == 0 {
        // Daemon mode: serve until the process is killed. (`park` can
        // wake spuriously, hence the loop.)
        loop {
            std::thread::park();
        }
    }
    std::thread::sleep(Duration::from_millis(duration_ms));
    // Admin first: its ticker samples the MDS, so stop the scrape plane
    // before tearing the data plane down.
    let admin_line = match admin {
        Some(admin) => {
            let admin_bound = admin.local_addr();
            let stats = admin.shutdown();
            format!(
                "admin on {admin_bound}: {} scrapes, {} errors\n",
                stats.scrapes, stats.errors
            )
        }
        None => String::new(),
    };
    mds.sync();
    let served = mds.served();
    let redirects = mds.redirects();
    let stats = server.shutdown();
    Ok(format!(
        "mds {mds_id} served on {bound} for {duration_ms} ms\n\
         served: {served} ops, redirects: {redirects}\n\
         connections: {}, frames: {}, decode errors: {}, resets: {}\n{admin_line}",
        stats.conns, stats.frames, stats.decode_errors, stats.conn_resets
    ))
}

/// Writes `addr` to `path` via write-then-rename so a polling reader
/// never sees a half-written address.
fn write_port_file(path: &str, addr: &str) -> Result<(), CliError> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, format!("{addr}\n"))?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// The server-side latency matrix: one histogram per op kind × outcome,
/// as registered by `NetMds`.
const SRV_LATENCY: [&str; 9] = [
    names::SRV_LATENCY_US_READ_OK,
    names::SRV_LATENCY_US_READ_REDIRECT,
    names::SRV_LATENCY_US_READ_ERROR,
    names::SRV_LATENCY_US_WRITE_OK,
    names::SRV_LATENCY_US_WRITE_REDIRECT,
    names::SRV_LATENCY_US_WRITE_ERROR,
    names::SRV_LATENCY_US_UPDATE_OK,
    names::SRV_LATENCY_US_UPDATE_REDIRECT,
    names::SRV_LATENCY_US_UPDATE_ERROR,
];

/// Total server-observed requests: every lane of the op × outcome matrix.
fn srv_ops(doc: &MetricsDoc) -> u64 {
    doc.histogram_count_where(|n| n.starts_with("srv_latency_us_"))
}

/// A `/health` field as text; `n/a` when absent or `null` (the recorder
/// serialises NaN/∞ as null).
fn health_field<'a>(body: &'a str, key: &str) -> &'a str {
    match json::field(body, key) {
        None | Some("null" | "") => "n/a",
        Some(token) => token,
    }
}

/// One refresh line of `d2tree top`: ops/s from scrape-to-scrape count
/// deltas, quantiles from the busiest server-side histogram lane,
/// Def. 3/5 and status from `/health`.
fn top_line(doc: &MetricsDoc, prev: Option<&MetricsDoc>, health: &(u16, String)) -> String {
    let ops = srv_ops(doc);
    let redirects =
        doc.histogram_count_where(|n| n.starts_with("srv_latency_us_") && n.ends_with("_redirect"));
    let (delta_ops, delta_us) = match prev {
        // First refresh: rate over the daemon's whole lifetime.
        None => (ops, doc.uptime_us),
        Some(p) => (
            ops.saturating_sub(srv_ops(p)),
            doc.uptime_us.saturating_sub(p.uptime_us),
        ),
    };
    let rate = delta_ops as f64 / (delta_us.max(1) as f64 / 1e6);
    let busiest = SRV_LATENCY
        .iter()
        .filter_map(|name| doc.histogram(name))
        .max_by_key(|h| h.count);
    let (p50, p99) = busiest.map_or((0, 0), |h| (h.p50, h.p99));
    let redirect_pct = if ops == 0 {
        0.0
    } else {
        redirects as f64 * 100.0 / ops as f64
    };
    let (health_status, health_body) = health;
    format!(
        "up {:>8.1}s  ops {ops} ({rate:.0}/s)  redirects {redirect_pct:.1}%  conns {}  \
         srv p50 {p50} µs  p99 {p99} µs  locality {}  balance {}  health {}",
        doc.uptime_us as f64 / 1e6,
        doc.gauge(names::NET_ACTIVE_CONNS),
        health_field(health_body, "locality"),
        health_field(health_body, "balance"),
        if *health_status == 200 {
            "ok"
        } else {
            "UNHEALTHY"
        },
    )
}

fn cmd_top(opts: &Opts) -> Result<String, CliError> {
    let addr = opts.required("admin-addr")?.to_owned();
    let refresh = Duration::from_millis(opts.num("refresh-ms", 1_000u64)?);
    let iters = opts.num("iters", 0u64)?;
    let timeout = Duration::from_millis(opts.num("timeout-ms", 2_000u64)?);
    // Before the loop: streaming mode never returns to `run`'s check.
    opts.reject_unread()?;
    let mut out = String::new();
    let mut prev: Option<MetricsDoc> = None;
    let mut refreshes = 0u64;
    loop {
        let (status, body) = admin_get(&addr, "/metrics.json", timeout)?;
        if status != 200 {
            return Err(CliError::Bench(format!(
                "admin plane at {addr} answered /metrics.json with HTTP {status}"
            )));
        }
        let doc = parse_metrics_json(&body).ok_or_else(|| {
            CliError::Bench(format!(
                "admin plane at {addr} returned an unparsable /metrics.json"
            ))
        })?;
        let health = admin_get(&addr, "/health", timeout)?;
        let line = top_line(&doc, prev.as_ref(), &health);
        if iters == 0 {
            // Streaming mode: the loop never returns, so print live.
            println!("{line}");
        } else {
            out.push_str(&line);
            out.push('\n');
        }
        prev = Some(doc);
        refreshes += 1;
        if iters > 0 && refreshes >= iters {
            return Ok(out);
        }
        std::thread::sleep(refresh);
    }
}

fn cmd_load(opts: &Opts) -> Result<String, CliError> {
    // Every flag is read, and a stray one rejected, before the first
    // complaint about a missing one and before any connection opens.
    let addr_list = opts.get("addr");
    let conns = opts.num("conns", 4usize)?;
    let count = opts.get("count");
    let qps = opts.num("qps", 2_000.0f64)?;
    let timeout = Duration::from_millis(opts.num("timeout-ms", 2_000u64)?);
    let seed = opts.num("seed", 42u64)?;
    let check_p99_us = opts.num("check-p99-us", 0u64)?;
    let mode = opts.get("mode").unwrap_or("closed");
    let pipeline_list = opts.get("pipeline").unwrap_or("1");
    let (tree, trace, _placement, index, _m) = derive_cluster(opts)?;
    opts.reject_unread()?;

    let addrs: Vec<String> = addr_list
        .ok_or_else(|| CliError::Usage("missing required --addr".to_owned()))?
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(ToOwned::to_owned)
        .collect();
    if addrs.is_empty() {
        return Err(CliError::Usage(
            "--addr needs at least one ip:port".to_owned(),
        ));
    }
    if conns == 0 {
        return Err(CliError::Usage("--conns must be at least 1".to_owned()));
    }
    let count = match count {
        None => trace.len(),
        Some(v) => v
            .parse()
            .map_err(|_| CliError::Usage(format!("--count expects a number, got {v:?}")))?,
    };
    if qps <= 0.0 {
        return Err(CliError::Usage("--qps must be positive".to_owned()));
    }
    let modes: Vec<(&str, LoadMode)> = match mode {
        "closed" => vec![("closed", LoadMode::Closed)],
        "open" => vec![("open", LoadMode::Open { target_qps: qps })],
        "both" => vec![
            ("closed", LoadMode::Closed),
            ("open", LoadMode::Open { target_qps: qps }),
        ],
        other => {
            return Err(CliError::Usage(format!(
                "--mode expects closed, open or both, got {other:?}"
            )))
        }
    };
    let pipelines: Vec<usize> = pipeline_list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse::<usize>().map_err(|_| {
                CliError::Usage(format!(
                    "--pipeline expects a comma list of depths, got {s:?}"
                ))
            })
        })
        .collect::<Result<_, _>>()?;
    if pipelines.is_empty() || pipelines.contains(&0) {
        return Err(CliError::Usage(
            "--pipeline needs at least one depth, every depth ≥ 1".to_owned(),
        ));
    }

    let registry = Arc::new(Registry::new());
    names::register_all(&registry);
    let mut text = String::new();
    let mut failures = Vec::new();
    let mut dead_sections = Vec::new();
    for (mode_name, mode) in &modes {
        for &pipeline in &pipelines {
            let name = if pipeline == 1 {
                (*mode_name).to_owned()
            } else {
                format!("{mode_name}_p{pipeline}")
            };
            let cfg = LoadConfig {
                addrs: addrs.clone(),
                conns,
                ops: count,
                mode: *mode,
                timeout,
                retry: RetryPolicy::default(),
                seed,
                pipeline,
            };
            let report = run_load(&cfg, &tree, &index, &trace, &registry, None);
            text.push_str(&format!(
                "{name}: {}/{} ops over {conns} conn(s) in {:.2} s — {:.0} ops/s, \
                 p50 {} µs, p99 {} µs ({} redirects, {} errors)\n",
                report.completed,
                report.attempted,
                report.elapsed.as_secs_f64(),
                report.achieved_qps,
                report.latency.p50,
                report.latency.p99,
                report.redirects_followed,
                report.reconnects + report.errors,
            ));
            if report.completed == 0 {
                dead_sections.push(name);
            } else if check_p99_us > 0 && report.latency.p99 > check_p99_us {
                failures.push(format!(
                    "{name}: p99 {} µs exceeds the {check_p99_us} µs ceiling",
                    report.latency.p99
                ));
            }
        }
    }
    // A section that completed nothing measured nothing, whatever its
    // percentiles say: that is a failed run, not a fast one.
    if !dead_sections.is_empty() {
        return Err(CliError::Bench(format!(
            "zero operations completed in section(s) {}\n\n{text}",
            dead_sections.join(", ")
        )));
    }
    if !failures.is_empty() {
        return Err(CliError::Bench(failures.join("; ")));
    }
    if check_p99_us > 0 {
        text.push_str(&format!(
            "check passed: every mode's p99 is under {check_p99_us} µs\n"
        ));
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2tree_store::{MdsRecord, MdsStore};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    fn tmp_prefix(tag: &str) -> String {
        let dir =
            std::env::temp_dir().join(format!("d2tree-cli-test-{tag}-{}", std::process::id()));
        dir.to_string_lossy().into_owned()
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run(&args(&["help"])).unwrap().contains("USAGE"));
        assert!(matches!(run(&args(&["bogus"])), Err(CliError::Usage(_))));
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
    }

    #[test]
    fn serve_load_loopback_roundtrip() {
        let port_file = format!("{}.port", tmp_prefix("serve"));
        // A single-MDS derivation: one daemon owns every subtree, so the
        // load run must complete all ops. (Redirect-following across two
        // daemons is exercised in tests/net_serve.rs.)
        let shared = [
            "--profile",
            "dtr",
            "--nodes",
            "300",
            "--ops",
            "600",
            "--seed",
            "7",
            "--mds",
            "1",
        ];

        let server = {
            let port_file = port_file.clone();
            std::thread::spawn(move || {
                let mut a = args(&[
                    "serve",
                    "--addr",
                    "127.0.0.1:0",
                    "--mds-id",
                    "0",
                    "--duration-ms",
                    "4000",
                    "--port-file",
                    &port_file,
                ]);
                a.extend(args(&shared));
                run(&a).unwrap()
            })
        };

        // The daemon writes the bound address once it is listening.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let addr = loop {
            if let Ok(s) = std::fs::read_to_string(&port_file) {
                break s.trim().to_owned();
            }
            assert!(
                std::time::Instant::now() < deadline,
                "port file never appeared"
            );
            std::thread::sleep(Duration::from_millis(20));
        };

        let mut a = args(&[
            "load",
            "--addr",
            &addr,
            "--conns",
            "2",
            "--count",
            "400",
            "--mode",
            "both",
            "--qps",
            "800",
            "--check-p99-us",
            "2000000",
        ]);
        a.extend(args(&shared));
        let out = run(&a).unwrap();
        assert!(out.contains("closed: 400/400 ops"), "{out}");
        assert!(out.contains("open: 400/400 ops"), "{out}");
        assert!(out.contains("check passed"), "{out}");

        let served = server.join().unwrap();
        assert!(served.contains("mds 0 served"), "{served}");

        // A mismatched --mds-id must be rejected before binding anything.
        assert!(matches!(
            run(&args(&["serve", "--mds-id", "9", "--nodes", "200", "--ops", "200"])),
            Err(CliError::Usage(msg)) if msg.contains("--mds-id")
        ));
        assert!(matches!(
            run(&args(&["load", "--conns", "2"])),
            Err(CliError::Usage(msg)) if msg.contains("--addr")
        ));

        let _ = std::fs::remove_file(&port_file);
    }

    #[test]
    fn load_against_a_dead_port_names_the_dead_sections() {
        // Bind then drop: a loopback port nobody listens on.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .to_string();
        let err = run(&args(&[
            "load",
            "--addr",
            &addr,
            "--nodes",
            "200",
            "--ops",
            "200",
            "--conns",
            "1",
            "--count",
            "1",
            "--mode",
            "both",
            "--timeout-ms",
            "100",
            "--check-p99-us",
            "2000000",
        ]));
        assert!(
            matches!(&err, Err(CliError::Bench(msg))
                if msg.contains("zero operations completed in section(s) closed, open")),
            "{err:?}"
        );
    }

    #[test]
    fn synth_stats_partition_replay_pipeline() {
        let prefix = tmp_prefix("pipeline");
        let out = run(&args(&[
            "synth",
            "--profile",
            "lmbe",
            "--nodes",
            "800",
            "--ops",
            "4000",
            "--seed",
            "7",
            "--out",
            &prefix,
        ]))
        .unwrap();
        assert!(out.contains("800 nodes"), "{out}");

        let tree_file = format!("{prefix}.tree");
        let trace_file = format!("{prefix}.trace");
        let stats = run(&args(&[
            "stats",
            "--tree",
            &tree_file,
            "--trace",
            &trace_file,
        ]))
        .unwrap();
        assert!(stats.contains("4000 ops"), "{stats}");

        for scheme in ["d2tree", "static", "dynamic", "hash", "drop", "anglecut"] {
            let out = run(&args(&[
                "partition",
                "--tree",
                &tree_file,
                "--trace",
                &trace_file,
                "--scheme",
                scheme,
                "--mds",
                "4",
            ]))
            .unwrap();
            assert!(out.contains("balance"), "{scheme}: {out}");
        }

        let replay = run(&args(&[
            "replay",
            "--tree",
            &tree_file,
            "--trace",
            &trace_file,
            "--scheme",
            "d2tree",
            "--mds",
            "4",
            "--clients",
            "16",
        ]))
        .unwrap();
        assert!(replay.contains("completed: 4000 ops"), "{replay}");

        let _ = std::fs::remove_file(tree_file);
        let _ = std::fs::remove_file(trace_file);
    }

    #[test]
    fn report_renders_prometheus_and_json() {
        let prefix = tmp_prefix("report");
        run(&args(&[
            "synth",
            "--profile",
            "dtr",
            "--nodes",
            "500",
            "--ops",
            "2000",
            "--out",
            &prefix,
        ]))
        .unwrap();
        let tree_file = format!("{prefix}.tree");
        let trace_file = format!("{prefix}.trace");

        let both = run(&args(&[
            "report",
            "--tree",
            &tree_file,
            "--trace",
            &trace_file,
            "--scheme",
            "d2tree",
            "--mds",
            "4",
            "--clients",
            "16",
        ]))
        .unwrap();
        assert!(
            both.contains("# TYPE d2tree_mds_ops_total counter"),
            "{both}"
        );
        assert!(both.contains("\"counters\""), "{both}");
        assert!(
            both.contains("d2tree_op_latency_us{quantile=\"0.99\"}"),
            "{both}"
        );

        let prom = run(&args(&[
            "report",
            "--tree",
            &tree_file,
            "--trace",
            &trace_file,
            "--scheme",
            "d2tree",
            "--mds",
            "4",
            "--clients",
            "16",
            "--format",
            "prometheus",
        ]))
        .unwrap();
        assert!(prom.contains("d2tree_mds_ops_total{mds=\"0\"}"), "{prom}");
        assert!(!prom.contains("\"counters\""), "{prom}");

        let json = run(&args(&[
            "report",
            "--tree",
            &tree_file,
            "--trace",
            &trace_file,
            "--scheme",
            "d2tree",
            "--mds",
            "4",
            "--clients",
            "16",
            "--format",
            "json",
        ]))
        .unwrap();
        assert!(json.contains("\"histograms\""), "{json}");

        assert!(matches!(
            run(&args(&[
                "report", "--tree", &tree_file, "--trace", &trace_file, "--scheme", "d2tree",
                "--format", "yaml",
            ])),
            Err(CliError::Usage(msg)) if msg.contains("--format")
        ));

        let _ = std::fs::remove_file(tree_file);
        let _ = std::fs::remove_file(trace_file);
    }

    #[test]
    fn replay_writes_metrics_snapshot() {
        let prefix = tmp_prefix("metricsout");
        run(&args(&[
            "synth",
            "--profile",
            "dtr",
            "--nodes",
            "400",
            "--ops",
            "1500",
            "--out",
            &prefix,
        ]))
        .unwrap();
        let tree_file = format!("{prefix}.tree");
        let trace_file = format!("{prefix}.trace");
        let metrics_file = format!("{prefix}.metrics.json");
        let out = run(&args(&[
            "replay",
            "--tree",
            &tree_file,
            "--trace",
            &trace_file,
            "--scheme",
            "d2tree",
            "--mds",
            "4",
            "--clients",
            "16",
            "--metrics-out",
            &metrics_file,
        ]))
        .unwrap();
        assert!(out.contains("metrics written"), "{out}");
        let written = std::fs::read_to_string(&metrics_file).unwrap();
        assert!(written.contains("mds_ops_total"), "{written}");
        let _ = std::fs::remove_file(tree_file);
        let _ = std::fs::remove_file(trace_file);
        let _ = std::fs::remove_file(metrics_file);
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

    #[test]
    fn hotspots_and_check_commands() {
        let prefix = tmp_prefix("hotcheck");
        run(&args(&[
            "synth",
            "--profile",
            "dtr",
            "--nodes",
            "600",
            "--ops",
            "3000",
            "--out",
            &prefix,
        ]))
        .unwrap();
        let tree_file = format!("{prefix}.tree");
        let trace_file = format!("{prefix}.trace");
        let hot = run(&args(&[
            "hotspots",
            "--tree",
            &tree_file,
            "--trace",
            &trace_file,
            "--top",
            "5",
        ]))
        .unwrap();
        assert!(hot.contains('%'), "{hot}");
        assert!(hot.lines().count() <= 6);
        let check = run(&args(&[
            "check",
            "--tree",
            &tree_file,
            "--trace",
            &trace_file,
            "--mds",
            "4",
        ]))
        .unwrap();
        assert!(check.starts_with("OK"), "{check}");
        let _ = std::fs::remove_file(tree_file);
        let _ = std::fs::remove_file(trace_file);
    }

    #[test]
    fn chaos_command_runs_clean_and_deterministic() {
        let out = run(&args(&[
            "chaos", "--seed", "42", "--mds", "3", "--nodes", "300", "--ticks", "300",
        ]))
        .unwrap();
        assert!(out.contains("identical across two runs"), "{out}");
        assert!(out.contains("invariants: all clean"), "{out}");
        assert!(out.contains("kills: 2"), "{out}");

        assert!(matches!(
            run(&args(&["chaos", "--mds", "1"])),
            Err(CliError::Usage(msg)) if msg.contains("--mds")
        ));
        assert!(matches!(
            run(&args(&["chaos", "--seed", "x"])),
            Err(CliError::Usage(msg)) if msg.contains("number")
        ));
    }

    #[test]
    fn report_lists_fault_and_rejoin_counters() {
        let prefix = tmp_prefix("faultreport");
        run(&args(&[
            "synth",
            "--profile",
            "dtr",
            "--nodes",
            "400",
            "--ops",
            "1500",
            "--out",
            &prefix,
        ]))
        .unwrap();
        let tree_file = format!("{prefix}.tree");
        let trace_file = format!("{prefix}.trace");

        // Clean run: counters are pre-registered and render at zero.
        let prom = run(&args(&[
            "report",
            "--tree",
            &tree_file,
            "--trace",
            &trace_file,
            "--scheme",
            "d2tree",
            "--mds",
            "4",
            "--clients",
            "16",
            "--format",
            "prometheus",
        ]))
        .unwrap();
        assert!(prom.contains("d2tree_faults_dropped_total 0"), "{prom}");
        assert!(prom.contains("d2tree_rejoins_total 0"), "{prom}");
        assert!(prom.contains("d2tree_rejoin_first_claim_ms"), "{prom}");

        // Faulty run: the injector fills the drop counter in.
        let faulty = run(&args(&[
            "report",
            "--tree",
            &tree_file,
            "--trace",
            &trace_file,
            "--scheme",
            "d2tree",
            "--mds",
            "4",
            "--clients",
            "16",
            "--format",
            "json",
            "--fault-drop",
            "0.05",
            "--fault-dup",
            "0.05",
        ]))
        .unwrap();
        assert!(faulty.contains("faults_dropped_total"), "{faulty}");
        assert!(
            !faulty.contains("\"name\":\"faults_dropped_total\",\"mds\":null,\"value\":0}"),
            "fault flags should inject at least one drop: {faulty}"
        );

        let _ = std::fs::remove_file(tree_file);
        let _ = std::fs::remove_file(trace_file);
    }

    #[test]
    fn trace_command_checks_def1_def3_and_writes_chrome_json() {
        let prefix = tmp_prefix("tracecmd");
        run(&args(&[
            "synth",
            "--profile",
            "dtr",
            "--nodes",
            "500",
            "--ops",
            "2000",
            "--out",
            &prefix,
        ]))
        .unwrap();
        let tree_file = format!("{prefix}.tree");
        let trace_file = format!("{prefix}.trace");
        let out_file = format!("{prefix}.chrome.json");

        let trace_args = args(&[
            "trace",
            "--tree",
            &tree_file,
            "--trace",
            &trace_file,
            "--scheme",
            "d2tree",
            "--mds",
            "4",
            "--clients",
            "16",
            "--out",
            &out_file,
        ]);
        let first = run(&trace_args).unwrap();
        assert!(
            first.contains("Def. 1: span-derived hops == path_jumps"),
            "{first}"
        );
        assert!(first.contains("Def. 3: observed locality"), "{first}");
        assert!(first.contains("0 shed"), "{first}");
        let written = std::fs::read_to_string(&out_file).unwrap();
        assert!(written.starts_with("{\"displayTimeUnit\""), "{written}");
        assert!(written.contains("\"traceEvents\""));
        assert!(written.contains("\"name\":\"op\""));
        assert!(written.contains("\"name\":\"serve\""));

        // Same seed, same workspace: the digest line must reproduce.
        let second = run(&trace_args).unwrap();
        let digest_line = |s: &str| {
            s.lines()
                .find(|l| l.contains("digest"))
                .map(str::to_owned)
                .expect("digest line")
        };
        assert_eq!(digest_line(&first), digest_line(&second));

        // A faulty run attributes latency to the injected fault kind.
        let faulty = run(&args(&[
            "trace",
            "--tree",
            &tree_file,
            "--trace",
            &trace_file,
            "--scheme",
            "d2tree",
            "--mds",
            "4",
            "--clients",
            "16",
            "--out",
            &out_file,
            "--fault-drop",
            "0.1",
        ]))
        .unwrap();
        assert!(
            faulty.contains("injected faults observed (latency attributed"),
            "{faulty}"
        );

        assert!(matches!(
            run(&args(&[
                "trace", "--tree", &tree_file, "--trace", &trace_file, "--scheme", "d2tree",
                "--sample", "2.0",
            ])),
            Err(CliError::Usage(msg)) if msg.contains("--sample")
        ));

        let _ = std::fs::remove_file(tree_file);
        let _ = std::fs::remove_file(trace_file);
        let _ = std::fs::remove_file(out_file);
    }

    #[test]
    fn health_renders_trajectory_and_check_gates_exit() {
        let jsonl_file = format!("{}.health.jsonl", tmp_prefix("health"));
        let csv_file = format!("{}.health.csv", tmp_prefix("health"));
        let small = [
            "health",
            "--nodes",
            "400",
            "--ops",
            "3000",
            "--mds",
            "4",
            "--phases",
            "3",
            "--rounds",
            "4",
            "--clients",
            "32",
            "--seed",
            "7",
        ];

        // Adaptive run with rules that cannot fire: renders the full
        // trajectory, exports both formats, and --check exits cleanly.
        let mut pass: Vec<&str> = small.to_vec();
        pass.extend_from_slice(&[
            "--check",
            "--min-balance",
            "0",
            "--max-retry-rate",
            "1000000",
            "--out",
            &jsonl_file,
            "--csv",
            &csv_file,
        ]);
        let out = run(&args(&pass)).unwrap();
        assert!(out.contains("scheme D2-Tree"), "{out}");
        assert!(out.contains("tick  balance"), "{out}");
        assert!(out.contains("health: OK"), "{out}");
        let jsonl = std::fs::read_to_string(&jsonl_file).unwrap();
        assert_eq!(jsonl.lines().count(), 4, "{jsonl}");
        assert!(jsonl.lines().all(|l| l.contains("\"balance\":")), "{jsonl}");
        let csv = std::fs::read_to_string(&csv_file).unwrap();
        assert!(csv.starts_with("tick,t_us,t_ms,locality,balance"), "{csv}");
        assert_eq!(csv.lines().count(), 5, "{csv}"); // header + 4 ticks
        let _ = std::fs::remove_file(jsonl_file);
        let _ = std::fs::remove_file(csv_file);

        // An unreachable balance floor must hard-fail under --check
        // (finite Def. 5 balance can never clear 1e12)…
        let mut fail: Vec<&str> = small.to_vec();
        fail.extend_from_slice(&["--check", "--min-balance", "1000000000000"]);
        let err = run(&args(&fail));
        assert!(matches!(err, Err(CliError::Health(_))), "{err:?}");

        // …but the same rules without --check only report, not fail.
        let mut warn: Vec<&str> = small.to_vec();
        warn.extend_from_slice(&["--min-balance", "1000000000000"]);
        let out = run(&args(&warn)).unwrap();
        assert!(out.contains("balance_below_min"), "{out}");

        // --inject-imbalance freezes the placement on a static scheme.
        let mut inject: Vec<&str> = small.to_vec();
        inject.extend_from_slice(&["--inject-imbalance", "--min-balance", "0"]);
        let out = run(&args(&inject)).unwrap();
        assert!(
            out.contains("frozen placement: imbalance injected"),
            "{out}"
        );
        assert!(out.contains("scheme Static Subtree"), "{out}");
    }

    #[test]
    fn report_dumps_event_journal_jsonl() {
        let prefix = tmp_prefix("eventsout");
        run(&args(&[
            "synth",
            "--profile",
            "dtr",
            "--nodes",
            "300",
            "--ops",
            "1000",
            "--out",
            &prefix,
        ]))
        .unwrap();
        let tree_file = format!("{prefix}.tree");
        let trace_file = format!("{prefix}.trace");
        let events_file = format!("{prefix}.events.jsonl");
        let out = run(&args(&[
            "report",
            "--tree",
            &tree_file,
            "--trace",
            &trace_file,
            "--scheme",
            "d2tree",
            "--mds",
            "4",
            "--clients",
            "16",
            "--format",
            "json",
            "--events-out",
            &events_file,
        ]))
        .unwrap();
        assert!(out.contains(&format!("written to {events_file}")), "{out}");
        let written = std::fs::read_to_string(&events_file).unwrap();
        for line in written.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        let _ = std::fs::remove_file(tree_file);
        let _ = std::fs::remove_file(trace_file);
        let _ = std::fs::remove_file(events_file);
    }

    #[test]
    fn store_inspect_verify_compact_roundtrip() {
        let dir = std::path::PathBuf::from(tmp_prefix("storecli"));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (mut store, _) = MdsStore::open(&dir, StoreConfig::manual()).unwrap();
            for i in 0..200u64 {
                let record = if i % 2 == 0 {
                    MdsRecord::Ownership {
                        root: i % 64,
                        acquired: i % 4 == 0,
                    }
                } else {
                    MdsRecord::Popularity {
                        root: i % 64,
                        bits: (i as f64).to_bits(),
                    }
                };
                store.append(record).unwrap();
            }
            store.sync().unwrap();
        }
        let dir_s = dir.to_string_lossy().into_owned();

        let verify_out = run(&args(&["store", "verify", &dir_s])).unwrap();
        assert!(verify_out.starts_with("OK"), "{verify_out}");
        assert!(verify_out.contains("200 records"), "{verify_out}");

        let inspect_out = run(&args(&["store", "inspect", &dir_s])).unwrap();
        assert!(inspect_out.contains("next lsn: 200"), "{inspect_out}");
        assert!(inspect_out.contains("replayed records:"), "{inspect_out}");

        let compact_out = run(&args(&["store", "compact", &dir_s])).unwrap();
        assert!(compact_out.contains("snapshot at lsn 200"), "{compact_out}");

        // After compaction, the snapshot covers everything and the WAL
        // replays nothing.
        let inspect2 = run(&args(&["store", "inspect", &dir_s])).unwrap();
        assert!(inspect2.contains("snapshot lsn: 200"), "{inspect2}");

        assert!(matches!(
            run(&args(&["store", "verify"])),
            Err(CliError::Usage(msg)) if msg.contains("<dir>")
        ));
        assert!(matches!(
            run(&args(&["store", "defrag", &dir_s])),
            Err(CliError::Usage(msg)) if msg.contains("unknown store action")
        ));
        assert!(matches!(
            run(&args(&["store", "verify", "/no/such/store"])),
            Err(CliError::Store(_))
        ));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_command_runs_store_schedule() {
        let out = run(&args(&[
            "chaos",
            "--seed",
            "7",
            "--mds",
            "3",
            "--nodes",
            "300",
            "--ticks",
            "300",
            "--store-crashes",
            "4",
        ]))
        .unwrap();
        assert!(out.contains("store chaos: 4 crashes"), "{out}");
        assert!(out.contains("store invariants: all clean"), "{out}");
    }

    #[test]
    fn chaos_command_runs_monitor_schedule() {
        let out = run(&args(&[
            "chaos",
            "--seed",
            "7",
            "--mds",
            "3",
            "--nodes",
            "300",
            "--ticks",
            "300",
            "--monitor-crashes",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("monitor chaos: 2 leader crashes"), "{out}");
        assert!(out.contains("control-plane invariants: all clean"), "{out}");
        assert!(out.contains("expired-fence probes confirmed"), "{out}");
    }

    #[test]
    fn report_lists_store_metrics_at_zero() {
        let prefix = tmp_prefix("storereport");
        run(&args(&[
            "synth",
            "--profile",
            "dtr",
            "--nodes",
            "300",
            "--ops",
            "1000",
            "--out",
            &prefix,
        ]))
        .unwrap();
        let tree_file = format!("{prefix}.tree");
        let trace_file = format!("{prefix}.trace");
        let prom = run(&args(&[
            "report",
            "--tree",
            &tree_file,
            "--trace",
            &trace_file,
            "--scheme",
            "d2tree",
            "--mds",
            "4",
            "--clients",
            "16",
            "--format",
            "prometheus",
        ]))
        .unwrap();
        for family in [
            "d2tree_wal_bytes_total 0",
            "d2tree_wal_records_total 0",
            "d2tree_snapshots_total 0",
            "d2tree_gl_delta_sync_entries_total 0",
            "d2tree_faults_storage_total 0",
            "d2tree_wal_append_us",
            "d2tree_wal_fsync_us",
            "d2tree_recovery_ms",
        ] {
            assert!(prom.contains(family), "missing {family} in:\n{prom}");
        }
        let _ = std::fs::remove_file(tree_file);
        let _ = std::fs::remove_file(trace_file);
    }

    #[test]
    fn missing_files_error_cleanly() {
        let err = run(&args(&[
            "stats",
            "--tree",
            "/no/such/file",
            "--trace",
            "/no/such/file",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
        assert!(!err.to_string().is_empty());
    }

    /// Polls a `--port-file` until the daemon writes the bound address.
    fn wait_port_file(path: &str) -> String {
        for _ in 0..200 {
            if let Ok(addr) = std::fs::read_to_string(path) {
                let addr = addr.trim().to_owned();
                if !addr.is_empty() {
                    return addr;
                }
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        panic!("daemon never wrote {path}");
    }

    #[test]
    fn serve_admin_load_and_top_round_trip() {
        let prefix = tmp_prefix("adminplane");
        let port_file = format!("{prefix}.port");
        let admin_port_file = format!("{prefix}.admin.port");
        let serve = {
            let (port_file, admin_port_file) = (port_file.clone(), admin_port_file.clone());
            std::thread::spawn(move || {
                run(&args(&[
                    "serve",
                    "--nodes",
                    "300",
                    "--ops",
                    "1500",
                    "--duration-ms",
                    "6000",
                    "--port-file",
                    &port_file,
                    "--admin-addr",
                    "127.0.0.1:0",
                    "--admin-port-file",
                    &admin_port_file,
                    "--admin-tick-ms",
                    "50",
                ]))
            })
        };
        let addr = wait_port_file(&port_file);
        let admin_addr = wait_port_file(&admin_port_file);

        let out = run(&args(&[
            "load", "--nodes", "300", "--ops", "1500", "--addr", &addr, "--conns", "2",
        ]))
        .unwrap();
        assert!(out.contains("closed: 1500/1500 ops"), "{out}");

        // `top` renders bounded refreshes with the served ops visible.
        let top = run(&args(&[
            "top",
            "--admin-addr",
            &admin_addr,
            "--iters",
            "2",
            "--refresh-ms",
            "50",
        ]))
        .unwrap();
        assert_eq!(top.lines().count(), 2, "{top}");
        for line in top.lines() {
            assert!(line.contains("ops 1500"), "the load pass is visible: {top}");
            assert!(line.contains("health ok"), "{top}");
            assert!(line.contains("srv p50"), "{top}");
        }

        let summary = serve.join().expect("serve thread panicked").unwrap();
        assert!(summary.contains("served: 1500 ops"), "{summary}");
        assert!(summary.contains("admin on "), "{summary}");
        assert!(summary.contains(" scrapes"), "{summary}");
        for f in [port_file, admin_port_file] {
            let _ = std::fs::remove_file(f);
        }
    }
}
