//! The simulator-side commands over a workspace on disk: `synth`,
//! `stats`, `partition`, `replay`, `report`, `trace`, `hotspots`, `check`.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::sync::Arc;

use d2tree_cluster::{
    analyze, FaultAction, FaultPlan, FaultRule, FaultScope, ReplayOutcome, SimConfig, Simulator,
    StrictChainRoute,
};
use d2tree_core::{D2TreeConfig, D2TreeScheme, Partitioner};
use d2tree_metrics::{balance, ClusterSpec};
use d2tree_namespace::NamespaceTree;
use d2tree_telemetry::trace::{chrome_trace_json, digest, Sampler, Tracer};
use d2tree_telemetry::{export, names, Registry};
use d2tree_workload::{io as trace_io, Trace, TraceStats, WorkloadBuilder};

use crate::opts::{scheme_by_name, workload_profile, Opts};
use crate::CliError;

fn load_workspace(opts: &Opts) -> Result<(NamespaceTree, Trace), CliError> {
    let tree_path = opts.required("tree")?;
    let trace_path = opts.required("trace")?;
    let tree = trace_io::read_tree(BufReader::new(File::open(tree_path)?))?;
    let trace = trace_io::read_trace(BufReader::new(File::open(trace_path)?), &tree)?;
    Ok((tree, trace))
}

pub(crate) fn cmd_synth(opts: &Opts) -> Result<String, CliError> {
    let profile = workload_profile(opts, "dtr", 20_000, 100_000)?;
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

pub(crate) fn cmd_stats(opts: &Opts) -> Result<String, CliError> {
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

pub(crate) fn cmd_partition(opts: &Opts) -> Result<String, CliError> {
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

pub(crate) fn cmd_replay(opts: &Opts) -> Result<String, CliError> {
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

pub(crate) fn cmd_report(opts: &Opts) -> Result<String, CliError> {
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
pub(crate) fn cmd_trace(opts: &Opts) -> Result<String, CliError> {
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

pub(crate) fn cmd_hotspots(opts: &Opts) -> Result<String, CliError> {
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

pub(crate) fn cmd_check(opts: &Opts) -> Result<String, CliError> {
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

#[cfg(test)]
mod tests {
    use crate::test_support::{args, tmp_prefix};
    use crate::{run, CliError};

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
}
