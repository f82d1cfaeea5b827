//! Micro-benchmark: per-access routing cost of every scheme —
//! the hot path of a replay — in the two regimes a [`Router`] has. `miss`
//! routes 1 000 distinct targets through a fresh router per iteration:
//! every chain-routed request walks its ancestor chain and appends the
//! result, the cost a trace with no repeated target pays. `hit` routes
//! the same targets through a warmed router: every request reads a walk
//! back. D2-Tree remembers nothing, so its two rows differ only by noise.
//!
//! [`Router`]: d2tree_core::Router

use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

use d2tree_baselines::extended_lineup;
use d2tree_core::Router;
use d2tree_metrics::ClusterSpec;
use d2tree_namespace::NodeId;
use d2tree_workload::{TraceProfile, WorkloadBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

const WARM_UP: Duration = Duration::from_millis(50);
const BATCH: Duration = Duration::from_millis(20);
const BATCHES: u32 = 50;

/// Times `routine`: a `WARM_UP` run sizes a batch of iterations to last
/// about `BATCH`, then `BATCHES` batches are timed. Prints the mean and
/// the fastest batch's per-iteration time in µs.
fn time<O>(id: &str, mut routine: impl FnMut() -> O) {
    let warm_start = Instant::now();
    let mut warm_iters = 0u32;
    while warm_start.elapsed() < WARM_UP {
        black_box(routine());
        warm_iters += 1;
    }
    let iters = (BATCH.as_secs_f64() * f64::from(warm_iters) / warm_start.elapsed().as_secs_f64())
        .ceil() as u32;
    let samples: Vec<Duration> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            start.elapsed() / iters
        })
        .collect();
    let mean = samples.iter().sum::<Duration>() / BATCHES;
    let fastest = samples.iter().min().expect("at least one batch");
    println!(
        "{id:<32} mean {:>9.2} us  min {:>9.2} us  ({BATCHES} batches x {iters} iters)",
        mean.as_secs_f64() * 1e6,
        fastest.as_secs_f64() * 1e6,
    );
}

fn route_all(router: &mut Router<'_>, targets: &[NodeId], rng: &mut StdRng) -> usize {
    targets.iter().map(|&t| router.route(t, rng).hops()).sum()
}

fn main() {
    let w = WorkloadBuilder::new(
        TraceProfile::ra()
            .with_nodes(20_000)
            .with_operations(80_000),
    )
    .seed(4)
    .build();
    let pop = w.popularity();
    let cluster = ClusterSpec::homogeneous(16, 1.0);
    let mut seen = HashSet::new();
    let targets: Vec<NodeId> = w
        .trace
        .iter()
        .map(|o| o.target)
        .filter(|&t| seen.insert(t))
        .take(1_000)
        .collect();
    assert_eq!(targets.len(), 1_000, "the trace has 1 000 distinct targets");

    for mut scheme in extended_lineup(0.01, 9) {
        scheme.build(&w.tree, &pop, &cluster);
        let mut rng = StdRng::seed_from_u64(5);
        time(&format!("route/miss/{}", scheme.name()), || {
            let mut router = scheme.router(&w.tree);
            route_all(&mut router, &targets, &mut rng)
        });
        let mut rng = StdRng::seed_from_u64(5);
        let mut router = scheme.router(&w.tree);
        route_all(&mut router, &targets, &mut rng);
        time(&format!("route/hit/{}", scheme.name()), || {
            route_all(&mut router, &targets, &mut rng)
        });
    }
}
