//! Criterion micro-benchmark: per-access routing cost of every scheme —
//! the hot path of a replay — in the two regimes a [`Router`] has. `miss`
//! routes 1 000 distinct targets through a fresh router per iteration:
//! every chain-routed request walks its ancestor chain and appends the
//! result, the cost a trace with no repeated target pays. `hit` routes
//! the same targets through a warmed router: every request reads a walk
//! back. D2-Tree remembers nothing, so its two rows differ only by noise.
//!
//! [`Router`]: d2tree_core::Router

use std::collections::HashSet;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use d2tree_baselines::extended_lineup;
use d2tree_core::Router;
use d2tree_metrics::ClusterSpec;
use d2tree_namespace::NodeId;
use d2tree_workload::{TraceProfile, WorkloadBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn route_all(router: &mut Router<'_>, targets: &[NodeId], rng: &mut StdRng) -> usize {
    targets.iter().map(|&t| router.route(t, rng).hops()).sum()
}

fn bench_locate(c: &mut Criterion) {
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

    let mut group = c.benchmark_group("route");
    for mut scheme in extended_lineup(0.01, 9) {
        scheme.build(&w.tree, &pop, &cluster);
        group.bench_with_input(
            BenchmarkId::new("miss", scheme.name()),
            &targets,
            |b, targets| {
                let mut rng = StdRng::seed_from_u64(5);
                b.iter(|| {
                    let mut router = scheme.router(&w.tree);
                    std::hint::black_box(route_all(&mut router, targets, &mut rng))
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("hit", scheme.name()),
            &targets,
            |b, targets| {
                let mut rng = StdRng::seed_from_u64(5);
                let mut router = scheme.router(&w.tree);
                route_all(&mut router, targets, &mut rng);
                b.iter(|| std::hint::black_box(route_all(&mut router, targets, &mut rng)));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_locate);
criterion_main!(benches);
