//! Property-based tests of the discrete-event cluster simulator.

mod support;

use d2tree::cluster::{SimConfig, Simulator};
use d2tree::core::{D2TreeConfig, D2TreeScheme, Partitioner};
use d2tree::metrics::ClusterSpec;
use d2tree::workload::{TraceProfile, WorkloadBuilder};
use rand::Rng;
use support::cases;

fn built_scheme(seed: u64, m: usize) -> (d2tree::workload::Workload, D2TreeScheme) {
    let w = WorkloadBuilder::new(TraceProfile::lmbe().with_nodes(400).with_operations(2_000))
        .seed(seed)
        .build();
    let pop = w.popularity();
    let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default().with_seed(seed));
    scheme.build(&w.tree, &pop, &ClusterSpec::homogeneous(m, 1.0));
    (w, scheme)
}

#[test]
fn every_config_completes_every_op() {
    cases("every_config_completes_every_op", 16, |rng| {
        let (seed, m) = (rng.gen_range(0..100), rng.gen_range(1..10));
        let (clients, workers) = (rng.gen_range(1..300), rng.gen_range(1..4));
        let (w, scheme) = built_scheme(seed, m);
        let sim = Simulator::new(SimConfig {
            clients,
            workers_per_mds: workers,
            seed,
            ..SimConfig::default()
        });
        let out = sim.replay(&w.tree, &w.trace, &scheme);
        assert_eq!(out.completed, w.trace.len());
        assert_eq!(out.served_ops.iter().sum::<u64>() as usize, w.trace.len());
        assert_eq!(out.served_ops.len(), m);
        assert!(out.sim_seconds > 0.0);
        assert!(out.throughput.is_finite());
        assert!(out.p99_latency_us + 1e-9 >= out.mean_latency_us * 0.1);
    });
}

#[test]
fn latency_floor_is_respected() {
    cases("latency_floor_is_respected", 16, |rng| {
        let (seed, m) = (rng.gen_range(0..100), rng.gen_range(1..8));
        // No op can finish faster than two client legs plus one service.
        let (w, scheme) = built_scheme(seed, m);
        let config = SimConfig {
            clients: 8,
            seed,
            ..SimConfig::default()
        };
        let floor_us = (2 * config.client_latency_ns + config.read_service_ns) as f64 / 1e3;
        let out = Simulator::new(config).replay(&w.tree, &w.trace, &scheme);
        assert!(
            out.mean_latency_us + 1e-9 >= floor_us,
            "mean {} below physical floor {floor_us}",
            out.mean_latency_us
        );
    });
}

#[test]
fn busy_time_never_exceeds_capacity() {
    cases("busy_time_never_exceeds_capacity", 16, |rng| {
        let (seed, m) = (rng.gen_range(0..100), rng.gen_range(1..8));
        let workers = rng.gen_range(1..4);
        let (w, scheme) = built_scheme(seed, m);
        let sim = Simulator::new(SimConfig {
            clients: 64,
            workers_per_mds: workers,
            seed,
            ..SimConfig::default()
        });
        let out = sim.replay(&w.tree, &w.trace, &scheme);
        let wall_ns = out.sim_seconds * 1e9;
        for &busy in &out.server_busy_ns {
            assert!(
                busy as f64 <= wall_ns * workers as f64 + 1.0,
                "server busier ({busy}) than {workers} workers allow over {wall_ns}"
            );
        }
    });
}

#[test]
fn fewer_clients_never_increase_throughput_much() {
    cases("fewer_clients_never_increase_throughput_much", 16, |rng| {
        let seed = rng.gen_range(0..50);
        // Closed-loop: more clients can only add offered load.
        let (w, scheme) = built_scheme(seed, 4);
        let run = |clients: usize| {
            Simulator::new(SimConfig {
                clients,
                seed,
                ..SimConfig::default()
            })
            .replay(&w.tree, &w.trace, &scheme)
            .throughput
        };
        let few = run(4);
        let many = run(64);
        assert!(
            many + 1e-9 >= few * 0.9,
            "throughput fell hard: {few} -> {many}"
        );
    });
}
