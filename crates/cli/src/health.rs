//! `d2tree health`: the flight-recorded drifting replay.

use std::sync::Arc;

use d2tree_cluster::{SimConfig, Simulator};
use d2tree_metrics::ClusterSpec;
use d2tree_telemetry::{names, Registry};
use d2tree_workload::Trace;

use crate::opts::{scheme_by_name, workload_profile, Opts};
use crate::CliError;

/// `d2tree health`: replays a drifting workload round by round with the
/// flight recorder on, renders the Def. 3 locality / Def. 5 balance
/// trajectory plus per-tick operational signals, and (with `--check`)
/// fails on violated health rules. `--inject-imbalance` swaps the
/// adaptive D2-Tree scheme for a frozen static placement, so the
/// drifting hot set drives the cluster out of balance — the scenario
/// the balance rule exists to catch.
#[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
pub(crate) fn cmd_health(opts: &Opts) -> Result<String, CliError> {
    let check = opts.switch("check");
    let inject = opts.switch("inject-imbalance");
    let profile = workload_profile(opts, "lmbe", 3_000, 24_000)?;
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

#[cfg(test)]
mod tests {
    use crate::test_support::{args, tmp_prefix};
    use crate::{run, CliError};

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
}
