//! The repository benchmark. One command per workload:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--episodes E] [--trace 0|1] [--selfcheck K]
//! ```
//!
//! prints every metric by name with its unit, checks outputs, and ends
//! with one JSON line. See `README.md` beside this crate for definitions.

mod host;
mod layers;
mod manifest;
mod serving;
mod simfig5;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use manifest::{Report, Values, END_TO_END, PER_LAYER};
use serving::ServingSpec;

/// Input sizes. One full-size instance drives the benchmark; tests run
/// the same code at a size that finishes in a blink.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Namespace nodes of a serving workload's tree.
    pub nodes: usize,
    /// Operations in a serving workload's trace (cycled).
    pub trace_ops: usize,
    /// Fixed-count warm-up before the measured phase.
    pub warmup_ops: u64,
    /// Operations of each fixed-count pass of the traced run.
    pub fixed_ops: u64,
    /// Depth-1 calls per operation kind in the traced run.
    pub depth_one_calls: usize,
    /// Acknowledged operations per slice of a measured phase on the
    /// store-less serving workloads (`durable_mix`: four times as many).
    pub slice_ops: u64,
    /// Nodes and operations of each `sim_fig5` trace.
    pub sim_nodes: usize,
    pub sim_ops: usize,
}

impl Scale {
    pub fn full() -> Self {
        Scale {
            nodes: 200_000,
            trace_ops: 1_000_000,
            warmup_ops: 50_000,
            fixed_ops: 200_000,
            depth_one_calls: 2_000,
            slice_ops: 4_096,
            sim_nodes: 25_000,
            sim_ops: 100_000,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Measured seconds of the whole run, split evenly over the episodes.
    pub seconds: f64,
    pub episodes: usize,
    pub trace: bool,
    pub selfcheck: usize,
}

const USAGE: &str =
    "usage: d2tree-benchmark --workload <hot_read|durable_mix|cluster_route|sim_fig5> \
[--seed N] [--seconds S] [--episodes E] [--trace 0|1] [--selfcheck K]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(manifest::RUN_SECONDS),
        episodes: 9,
        trace: false,
        selfcheck: 0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--episodes" => args.episodes = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--selfcheck" => args.selfcheck = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    if manifest::workload(&args.workload).is_none() {
        return Err(format!("unknown workload {:?}\n{USAGE}", args.workload));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    if !(1..=99).contains(&args.episodes) {
        return Err("--episodes must be in 1..=99".to_owned());
    }
    if args.selfcheck != 0 && args.selfcheck < 4 {
        return Err("--selfcheck needs K >= 4 (two interleaved sets of at least two)".to_owned());
    }
    if args.selfcheck != 0 && args.trace {
        return Err("--selfcheck compares end-to-end metrics: use --trace 0".to_owned());
    }
    Ok(args)
}

/// `benchmark/out`, beside this crate's manifest (cargo exports the
/// directory to the process it runs; the compile-time value covers a
/// binary started by hand).
pub fn out_dir() -> PathBuf {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_owned());
    Path::new(&manifest_dir).join("out")
}

fn print_header(args: &Args, scale: &Scale) {
    let out = out_dir();
    let _ = std::fs::create_dir_all(&out);
    println!(
        "# d2tree-benchmark workload={} seed={} seconds={} episodes={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        args.episodes,
        u8::from(args.trace)
    );
    println!(
        "# host: nproc={} kernel={} out={} ({}) commit={}",
        host::allowed_cpus().len(),
        host::kernel_release(),
        out.display(),
        host::filesystem_of(&out),
        host::commit(&out.join("../.."))
    );
    let why = manifest::workload(&args.workload).map_or("", |w| w.why);
    println!("# why: {why}");
    if manifest::UNGATED.iter().any(|w| w.name == args.workload) {
        println!("# not in BENCHMARK.json: run by hand, its time-based figures are not gated");
    }
    match ServingSpec::by_name(&args.workload, scale) {
        Some(spec) => println!(
            "# sizes: {} profile, {} nodes, {}-op trace ({} B/op, cycled), requests {} B and \
             responses {} B on the wire; {} daemon(s), store={}, {} client thread(s) x window {}, \
             warm-up {} ops, latency sampled every {}th op, slices of {} ops, time read from the \
             {} clock",
            spec.profile.name,
            spec.profile.nodes,
            spec.profile.operations,
            std::mem::size_of::<d2tree_workload::Operation>(),
            4 + d2tree_cluster::message::REQUEST_WIRE_BYTES,
            4 + d2tree_cluster::message::RESPONSE_WIRE_BYTES,
            spec.daemons,
            spec.durable,
            spec.client_threads,
            spec.window,
            scale.warmup_ops,
            serving::SAMPLE_STRIDE,
            spec.slice_ops,
            if spec.busy_clock {
                "process-CPU (device waits left out)"
            } else {
                "wall"
            }
        ),
        None => println!(
            "# sizes: DTR+LMBE+RA at {} nodes / {} ops each x {:?} at M={}, serial",
            scale.sim_nodes,
            scale.sim_ops,
            simfig5::SCHEMES,
            simfig5::SIM_MDS
        ),
    }
}

fn print_metrics(values: &Values, table: &[manifest::Metric]) {
    for m in table {
        let v = values[m.name];
        if v != 0.0 && v.abs() < 0.01 {
            println!("{:<32} {:>16.4e} {}", m.name, v, m.unit);
        } else {
            println!("{:<32} {:>16.4} {}", m.name, v, m.unit);
        }
    }
}

/// One complete run of a workload: the unit `--selfcheck` repeats.
fn run_once(args: &Args, scale: &Scale) -> Result<Report, String> {
    let report = if args.trace {
        layers::run_traced(args, scale)
    } else if args.workload == "sim_fig5" {
        Ok(simfig5::run(args, scale))
    } else {
        serving::run(args, scale)
    }
    .map_err(|e| format!("run failed: {e}"))?;
    let table: &[manifest::Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    manifest::conforms(&report.values, table)?;
    Ok(report)
}

/// One audit line of the run header: the values behind a reported figure.
pub fn print_list(label: &str, values: &[f64]) {
    let list: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    println!("#   {label}: [{}]", list.join(", "));
}

/// Reads a report back from the one-line JSON summary a run printed.
fn parse_summary(line: &str) -> Option<Report> {
    let number_after = |key: &str| -> Option<f64> {
        let rest = &line[line.find(key)? + key.len()..];
        let end = rest.find([',', '}'])?;
        rest[..end].trim().parse().ok()
    };
    let values = END_TO_END
        .iter()
        .map(|m| {
            Some((
                m.name,
                number_after(&format!("\"{}\": {{\"value\":", m.name))?,
            ))
        })
        .collect::<Option<Values>>()?;
    Some(Report {
        correct: line.contains("\"correct\": true"),
        attempted: number_after("\"attempted\":")? as u64,
        failed: number_after("\"failed\":")? as u64,
        values,
    })
}

/// Runs the workload `k` times back to back — each in a process of its
/// own, as the driver does, so that `VmHWM` and the allocator start fresh
/// — and compares the median of the odd-numbered runs with the median of
/// the even-numbered runs: two interleaved sets of the same code, as the
/// pipeline's alternating pairs are. Fails when any gap exceeds that
/// metric's bound, or when the spread of all runs does (`setup_s`
/// excepted, as in the driver's own acceptance check).
fn selfcheck(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut runs: Vec<Report> = Vec::new();
    for k in 0..args.selfcheck {
        println!("# selfcheck run {} of {}", k + 1, args.selfcheck);
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload, "--trace", "0"])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--episodes", &args.episodes.to_string()])
            .output()
            .map_err(|e| format!("cannot start run {}: {e}", k + 1))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let report = stdout.lines().last().and_then(parse_summary);
        match report {
            Some(r) if out.status.success() => runs.push(r),
            _ => {
                return Err(format!(
                    "run {} failed ({}):\n{stdout}{}",
                    k + 1,
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                ))
            }
        }
    }
    println!(
        "\n| run | {} | correct |",
        END_TO_END.map(|m| m.name).join(" | ")
    );
    println!("|---|{}---|", "---|".repeat(END_TO_END.len()));
    for (k, r) in runs.iter().enumerate() {
        let row: Vec<String> = END_TO_END
            .iter()
            .map(|m| format!("{:.4}", r.values[m.name]))
            .collect();
        println!("| {} | {} | {} |", k + 1, row.join(" | "), r.correct);
    }
    let mut ok = runs.iter().all(|r| r.correct);
    println!(
        "\n| metric | odd median | even median | gap | spread (IQR/median) | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|");
    for m in &END_TO_END {
        let set = |parity: usize| -> Vec<f64> {
            runs.iter()
                .enumerate()
                .filter(|(k, _)| k % 2 == parity)
                .map(|(_, r)| r.values[m.name])
                .collect()
        };
        let (odd, even) = (stats::median(&set(0)), stats::median(&set(1)));
        let all: Vec<f64> = runs.iter().map(|r| r.values[m.name]).collect();
        // Either set may play the parent: the worse direction counts.
        let gap = stats::worsening(odd, even, m.higher_is_better).max(stats::worsening(
            even,
            odd,
            m.higher_is_better,
        ));
        let spread = stats::quartile_spread(&all);
        let pass = gap <= m.bound && (spread <= m.bound || m.name == "setup_s");
        ok &= pass;
        println!(
            "| {} | {odd:.4} | {even:.4} | {:.2}% | {:.2}% | {:.0}% | {} |",
            m.name,
            gap * 100.0,
            spread * 100.0,
            m.bound * 100.0,
            if pass { "ok" } else { "MISS" }
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if host::allowed_cpus().len() < 2 {
        // The process runs on one CPU at a time; the other takes the
        // kernel's own work and is the second chance at a quiet core.
        eprintln!("refusing to run: the benchmark needs at least 2 CPUs it may pin itself to");
        return ExitCode::from(2);
    }
    if args.selfcheck != 0 {
        return match selfcheck(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    host::pin_current_thread(&host::allowed_cpus()[..1]);
    let scale = Scale::full();
    print_header(&args, &scale);
    match run_once(&args, &scale) {
        Ok(report) => {
            let table: &[manifest::Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
            print_metrics(&report.values, table);
            println!("{}", manifest::summary_line(&report, table));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Scale {
        /// Toy sizes: the same code paths in well under a second each.
        fn tiny() -> Self {
            Scale {
                nodes: 3_000,
                trace_ops: 30_000,
                warmup_ops: 1_000,
                fixed_ops: 4_000,
                depth_one_calls: 40,
                slice_ops: 128,
                sim_nodes: 1_500,
                sim_ops: 6_000,
            }
        }
    }

    fn args(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.to_owned(),
            seed: 7,
            seconds: 0.4,
            episodes: 2,
            trace,
            selfcheck: 0,
        }
    }

    /// The binary emits exactly the manifest's metrics — no more, no
    /// fewer, all finite — for every workload, in both modes, and every
    /// output check passes. (`run_once` applies `manifest::conforms`.)
    #[test]
    fn every_workload_emits_exactly_the_manifest_metrics() {
        for w in manifest::WORKLOADS.iter().chain(&manifest::UNGATED) {
            for trace in [false, true] {
                let report = run_once(&args(w.name, trace), &Scale::tiny())
                    .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name));
                assert!(report.correct, "{} trace={trace} failed a check", w.name);
                assert_eq!(report.failed, 0);
                assert!(report.attempted > 0);
                let table: &[manifest::Metric] = if trace { &PER_LAYER } else { &END_TO_END };
                assert_eq!(report.values.len(), table.len());
            }
        }
    }

    #[test]
    fn end_to_end_metrics_are_never_zero() {
        let report = run_once(&args("sim_fig5", false), &Scale::tiny()).expect("sim_fig5 runs");
        for m in &END_TO_END {
            assert!(report.values[m.name] > 0.0, "{} is zero", m.name);
        }
    }

    #[test]
    fn a_different_seed_changes_the_generated_operations() {
        let ops = |seed| {
            let spec = ServingSpec::by_name("hot_read", &Scale::tiny()).expect("a workload");
            d2tree_workload::WorkloadBuilder::new(spec.profile)
                .seed(seed)
                .build()
                .trace
                .ops()
                .to_vec()
        };
        assert_eq!(ops(1), ops(1));
        assert_ne!(ops(1), ops(2));
    }

    #[test]
    fn the_summary_line_reads_back() {
        let values: Values = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name, 1.5 + i as f64))
            .collect();
        let report = Report {
            correct: true,
            attempted: 12,
            failed: 3,
            values: values.clone(),
        };
        let back = parse_summary(&manifest::summary_line(&report, &END_TO_END)).expect("parses");
        assert_eq!((back.correct, back.attempted, back.failed), (true, 12, 3));
        assert_eq!(back.values, values);
        assert!(parse_summary("not a summary").is_none());
    }

    #[test]
    fn arguments_are_validated() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(str::to_owned).collect::<Vec<_>>());
        let ok = parse("--workload hot_read --seed 9 --seconds 6 --trace 1").expect("valid");
        assert_eq!((ok.seed, ok.seconds, ok.trace), (9, 6.0, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload hot_read --seconds 0").is_err());
        assert!(parse("--workload hot_read --seconds 601").is_err());
        assert!(parse("--workload hot_read --selfcheck 3").is_err());
        assert!(parse("--workload hot_read --trace 2").is_err());
        assert!(parse("--workload hot_read --seed").is_err());
        assert!(parse("--seed 1").is_err());
    }
}
