//! `d2tree chaos`: seeded crash/partition schedules, each run twice.

use d2tree_cluster::{run_chaos, run_store_chaos, ChaosConfig, ChaosReport, StoreChaosConfig};

use crate::opts::Opts;
use crate::CliError;

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

pub(crate) fn cmd_chaos(opts: &Opts) -> Result<String, CliError> {
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

#[cfg(test)]
mod tests {
    use crate::test_support::args;
    use crate::{run, CliError};

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
}
