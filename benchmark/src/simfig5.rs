//! `sim_fig5`: no sockets, no WAL. The three paper traces × six schemes,
//! each built and replayed serially through the discrete-event simulator
//! at M = 16 — the shape of the paper's Fig. 5 sweep. `core` (split and
//! allocate), `baselines` and `sim` are the whole cost here, so this is
//! where a partitioner or DES change shows and a serving change must not.

use std::time::Instant;

use d2tree_baselines::{AngleCut, DropScheme, DynamicSubtree, HashMapping, StaticSubtree};
use d2tree_cluster::{ReplayOutcome, SimConfig, Simulator};
use d2tree_core::{check_d2tree, D2TreeConfig, D2TreeScheme, Partitioner, SampleStrategy};
use d2tree_metrics::ClusterSpec;
use d2tree_namespace::Popularity;
use d2tree_workload::{TraceProfile, Workload, WorkloadBuilder};

use crate::manifest::{Report, Values};
use crate::serving::GL_PROPORTION;
use crate::{host, stats, Args, Scale};

/// Cluster size of the sweep (the paper's Fig. 5 runs 4–32 MDSs).
pub const SIM_MDS: usize = 16;

pub const SCHEMES: [&str; 6] = ["d2tree", "static", "dynamic", "hash", "drop", "anglecut"];

/// The synthesised inputs of one episode.
pub struct Inputs {
    pub workloads: Vec<(Workload, Popularity)>,
    pub synth_s: f64,
    pub popularity_s: f64,
}

pub fn synthesize(scale: &Scale, seed: u64) -> Inputs {
    let mut synth_s = 0.0;
    let mut popularity_s = 0.0;
    let workloads = TraceProfile::paper_presets()
        .into_iter()
        .map(|p| {
            let t0 = Instant::now();
            let w =
                WorkloadBuilder::new(p.with_nodes(scale.sim_nodes).with_operations(scale.sim_ops))
                    .seed(seed)
                    .build();
            let t1 = Instant::now();
            let pop = w.popularity();
            synth_s += (t1 - t0).as_secs_f64();
            popularity_s += t1.elapsed().as_secs_f64();
            (w, pop)
        })
        .collect();
    Inputs {
        workloads,
        synth_s,
        popularity_s,
    }
}

/// The D2-Tree configuration of the paper's line-up: 1 % global layer,
/// local layer allocated from a sampled popularity CDF (Sec. IV-B).
pub fn d2tree_scheme(seed: u64) -> D2TreeScheme {
    D2TreeScheme::new(
        D2TreeConfig::by_proportion(GL_PROPORTION)
            .with_sampling(SampleStrategy::Uniform, 2_000)
            .with_seed(seed),
    )
}

pub fn sim_cluster(pop: &Popularity) -> ClusterSpec {
    ClusterSpec::homogeneous(SIM_MDS, pop.sum_individual() / SIM_MDS as f64)
}

/// One (trace, scheme) cell of the sweep.
#[derive(Debug, Clone)]
pub struct Cell {
    pub scheme: &'static str,
    pub started: Instant,
    pub build_s: f64,
    pub replay_s: f64,
    pub cpu_s: f64,
    /// The faster of the core-speed ticks read before and after the cell:
    /// the clock it ran at ([`host::core_speed_tick_us`]).
    pub tick_us: f64,
    pub ops: usize,
    pub outcome: ReplayOutcome,
    /// `check_d2tree` violations (always 0 for the baselines, which the
    /// check does not apply to).
    pub violations: usize,
}

/// Builds and replays every cell, serially, timing build and replay of
/// each apart. The invariant check runs outside the cell's clock.
pub fn sweep(inputs: &Inputs, seed: u64) -> Vec<Cell> {
    let sim = Simulator::new(SimConfig {
        seed,
        ..SimConfig::default()
    });
    let mut cells = Vec::new();
    for (w, pop) in &inputs.workloads {
        let cluster = sim_cluster(pop);
        for name in SCHEMES {
            let cell = match name {
                "d2tree" => {
                    let (mut cell, s) = run_cell(name, d2tree_scheme(seed), &sim, w, pop, &cluster);
                    cell.violations =
                        check_d2tree(&w.tree, s.placement(), s.global_layer(), s.local_index())
                            .len();
                    cell
                }
                "static" => run_cell(name, StaticSubtree::new(seed), &sim, w, pop, &cluster).0,
                "dynamic" => run_cell(name, DynamicSubtree::new(seed), &sim, w, pop, &cluster).0,
                "hash" => run_cell(name, HashMapping::new(seed), &sim, w, pop, &cluster).0,
                "drop" => run_cell(name, DropScheme::new(seed), &sim, w, pop, &cluster).0,
                "anglecut" => run_cell(name, AngleCut::new(seed), &sim, w, pop, &cluster).0,
                _ => unreachable!("the scheme list is fixed"),
            };
            cells.push(cell);
        }
    }
    cells
}

fn run_cell<S: Partitioner>(
    name: &'static str,
    mut scheme: S,
    sim: &Simulator,
    w: &Workload,
    pop: &Popularity,
    cluster: &ClusterSpec,
) -> (Cell, S) {
    let tick_before = host::core_speed_tick_us();
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    scheme.build(&w.tree, pop, cluster);
    let t1 = Instant::now();
    let outcome = sim.replay(&w.tree, &w.trace, &scheme);
    let cell = Cell {
        scheme: name,
        started: t0,
        build_s: (t1 - t0).as_secs_f64(),
        replay_s: t1.elapsed().as_secs_f64(),
        cpu_s: host::cpu_seconds() - cpu0,
        tick_us: tick_before.min(host::core_speed_tick_us()),
        ops: w.trace.len(),
        outcome,
        violations: 0,
    };
    (cell, scheme)
}

/// The end-to-end run: sweeps repeat (each on freshly synthesised inputs)
/// until `--seconds` of sweep time and at least `--episodes` sweeps are
/// done. The work of a cell is fixed, so its figure is that of its
/// fastest repetition — wall and CPU time of the same repetition: the
/// host's noise only ever adds time, and the fastest repetition is the
/// one least disturbed (the serving workloads' quiet set, for work that
/// repeats exactly). Every repetition and every set-up is first scaled to
/// the reference core clock by the tick read around it
/// ([`host::clock_factor`]); set-up is the lower quartile over sweeps
/// (see [`crate::serving::run`] for both).
pub fn run(args: &Args, scale: &Scale) -> Report {
    // Per cell: (wall seconds, CPU seconds) of its fastest repetition, at
    // the reference clock.
    let mut fastest: Vec<(f64, f64)> = Vec::new();
    let mut cell_ops: Vec<usize> = Vec::new();
    let mut first: Option<Vec<ReplayOutcome>> = None;
    let (mut setups, mut sweep_ops_per_s) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut violations) = (0u64, 0u64, 0usize);
    let (mut identical, mut measured_s, mut first_hwm_mib) = (true, 0.0, 0.0);
    while setups.len() < args.episodes || measured_s < args.seconds {
        // Alternate between the first two allowed CPUs: their host cores
        // have different neighbours, and one of them is usually quiet.
        host::pin_current_thread(&[host::allowed_cpus()[setups.len() % 2]]);
        let tick_before = host::core_speed_tick_us();
        let t0 = Instant::now();
        let inputs = synthesize(scale, args.seed);
        let setup_s = t0.elapsed().as_secs_f64();
        let tick_us = tick_before.min(host::core_speed_tick_us());
        setups.push(setup_s / host::clock_factor(tick_us));
        let cells = sweep(&inputs, args.seed);
        if fastest.is_empty() {
            fastest = vec![(f64::INFINITY, f64::INFINITY); cells.len()];
            cell_ops = cells.iter().map(|c| c.ops).collect();
        }
        let mut wall = 0.0;
        for (best, c) in fastest.iter_mut().zip(&cells) {
            wall += c.build_s + c.replay_s;
            let clock = host::clock_factor(c.tick_us);
            let t = (c.build_s + c.replay_s) / clock;
            if t < best.0 {
                *best = (t, c.cpu_s / clock);
            }
            attempted += c.ops as u64;
            failed += (c.ops - c.outcome.completed.min(c.ops)) as u64;
            violations += c.violations;
        }
        measured_s += wall;
        if setups.len() == 1 {
            first_hwm_mib = host::peak_rss_mib();
        }
        sweep_ops_per_s.push(cell_ops.iter().sum::<usize>() as f64 / wall);
        let outcomes: Vec<_> = cells.into_iter().map(|c| c.outcome).collect();
        match &first {
            Some(f) => identical &= *f == outcomes,
            None => first = Some(outcomes),
        }
    }
    let ops: usize = cell_ops.iter().sum();
    println!(
        "# {} sweeps of {} cells; per-sweep values behind the figures (set-ups and cells at the \
         reference clock, a tick of {} us):",
        setups.len(),
        cell_ops.len(),
        host::REFERENCE_TICK_US
    );
    crate::print_list("ops_per_s (whole sweep, as timed)", &sweep_ops_per_s);
    crate::print_list("setup_s", &setups);
    let cell_ms: Vec<f64> = fastest.iter().map(|c| c.0 * 1e3).collect();
    crate::print_list("fastest repetition of each cell, ms", &cell_ms);
    println!(
        "# checks: {attempted} simulated ops, {failed} not completed, {violations} check_d2tree \
         violations, outcomes identical across sweeps: {identical}"
    );
    let cell_us: Vec<f64> = fastest.iter().map(|c| c.0 * 1e6).collect();
    let values = Values::from([
        (
            "ops_per_s",
            ops as f64 / fastest.iter().map(|c| c.0).sum::<f64>(),
        ),
        ("p50_us", stats::median(&cell_us)),
        (
            "cpu_us_per_op",
            fastest.iter().map(|c| c.1).sum::<f64>() * 1e6 / ops as f64,
        ),
        ("setup_s", stats::percentile(&setups, 0.25)),
        // After the first sweep: what later sweeps add is the allocator
        // keeping freed memory, not the sweep's footprint.
        ("peak_rss_mb", first_hwm_mib),
    ]);
    Report {
        correct: failed == 0 && violations == 0 && identical,
        attempted,
        failed,
        values,
    }
}
