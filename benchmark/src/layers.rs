//! The traced run (`--trace 1`): per-layer metrics, measured from outside
//! by timing calls into each layer's public functions. It is a separate
//! pass; end-to-end metrics are always measured with tracing off.
//!
//! Three parts: (a) an *inline pipeline* — this thread carries each window
//! of requests through the layers one after another, one span per layer
//! per window; (b) fixed-count passes over the real sockets, untraced then
//! traced, with registry deltas for the server-side counts; (c) set-up
//! stages and standalone calls into layers the serving path does not time
//! apart. A metric that does not apply to the workload (the store on a
//! store-less workload, the simulator on a serving one) reads 0.

use std::io;
use std::path::Path;
use std::time::Instant;

use bytes::Bytes;
use d2tree_cluster::{
    FrameBuf, ReplayOutcome, Request, RequestId, Response, ResponseBody, SimConfig, Simulator,
    MAX_FRAME_BYTES,
};
use d2tree_core::{
    allocate_full, collect_subtrees, split_to_proportion, D2TreeConfig, D2TreeScheme, Partitioner,
};
use d2tree_metrics::{balance, path_jumps, ClusterSpec};
use d2tree_namespace::{NamespaceTree, NodeId, Popularity};
use d2tree_store::{AttrState, MdsRecord, MdsStore, StoreConfig};
use d2tree_telemetry::trace::span_names;
use d2tree_telemetry::{names, Counter, Histogram, Sampler, Span, Tracer};
use d2tree_workload::{OpKind, Trace};

use crate::manifest::{Report, Values, PER_LAYER};
use crate::serving::{Cluster, Router, ScratchDir, ServingSpec, GL_PROPORTION};
use crate::simfig5::{self, SIM_MDS};
use crate::spans::{self, Recorder};
use crate::{host, out_dir, stats, Args, Scale};

/// Requests per window of the inline pipeline.
const INLINE_WINDOW: usize = 128;

pub fn run_traced(args: &Args, scale: &Scale) -> io::Result<Report> {
    let mut values: Values = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let mut rec = Recorder::new();
    values.insert("host.nproc", host::allowed_cpus().len() as f64);
    values.insert("host.calib_alu_ms", host::calib_alu_ms());
    values.insert("host.fsync_probe_us", host::fsync_probe_us(&out_dir()));
    let (correct, attempted, failed) = match ServingSpec::by_name(&args.workload, scale) {
        Some(spec) => traced_serving(&spec, args, scale, &mut values, &mut rec)?,
        None => traced_sim(args, scale, &mut values, &mut rec),
    };
    values.insert("trace.spans", rec.spans().len() as f64);
    let path = out_dir().join(format!("{}.trace.json", args.workload));
    std::fs::write(&path, spans::chrome_json(rec.spans()))?;
    println!(
        "# {} spans written to {}",
        rec.spans().len(),
        path.display()
    );
    Ok(Report {
        correct,
        attempted,
        failed,
        values,
    })
}

/// Mean nanoseconds per call of `f` over `iters` calls.
fn ns_per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t0.elapsed().as_secs_f64() * 1e9 / iters as f64
}

fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Part (c) for the layers every workload has: `core`, `metrics`,
/// `namespace`, `message`, `telemetry`, each called on its own over this
/// workload's tree and trace. The scheme is built for M = 16 whatever the
/// workload runs with, so Def. 3 locality and Def. 5 balance are defined
/// (a single MDS is trivially local and balanced).
fn standalone_layers(
    tree: &NamespaceTree,
    trace: &Trace,
    pop: &Popularity,
    seed: u64,
    v: &mut Values,
) {
    let cluster = ClusterSpec::homogeneous(SIM_MDS, pop.sum_individual() / SIM_MDS as f64);
    let targets: Vec<NodeId> = trace.ops().iter().take(200_000).map(|o| o.target).collect();

    let update_of = |id: NodeId| 0.1 * pop.individual(id);
    let ((layer, _), split_s) = secs(|| split_to_proportion(tree, pop, update_of, GL_PROPORTION));
    let (_, allocate_s) = secs(|| {
        let subtrees = collect_subtrees(tree, &layer, pop);
        allocate_full(&subtrees, &cluster)
    });
    let mut scheme = D2TreeScheme::new(D2TreeConfig::by_proportion(GL_PROPORTION).with_seed(seed));
    let (_, build_s) = secs(|| scheme.build(tree, pop, &cluster));
    v.insert("core.split_s", split_s);
    v.insert("core.allocate_s", allocate_s);
    v.insert("core.build_s", build_s);
    v.insert("core.gl_hit_frac", scheme.global_hit_fraction(&targets));

    let index = scheme.local_index();
    let cold = ns_per_call(targets.len(), |i| {
        std::hint::black_box(index.locate_uncached(tree, targets[i]));
    });
    for &t in &targets {
        std::hint::black_box(index.locate(tree, t)); // fill the memo
    }
    let warm = ns_per_call(targets.len(), |i| {
        std::hint::black_box(index.locate(tree, targets[i]));
    });
    v.insert("core.locate_cold_ns", cold);
    v.insert("core.locate_ns", warm);

    v.insert(
        "metrics.locality.d2tree",
        scheme.locality(tree, pop).locality,
    );
    v.insert(
        "metrics.balance.d2tree",
        balance(&scheme.loads(tree, pop), &cluster),
    );
    let placement = scheme.placement();
    v.insert(
        "metrics.path_jumps_ns",
        ns_per_call(targets.len(), |i| {
            std::hint::black_box(path_jumps(tree, placement, targets[i]));
        }),
    );
    let (_, rebalance_s) = secs(|| scheme.rebalance(tree, pop, &cluster));
    v.insert("core.rebalance_ms", rebalance_s * 1e3);

    let paths: Vec<_> = targets
        .iter()
        .take(20_000)
        .map(|&t| tree.path_of(t))
        .collect();
    v.insert(
        "namespace.resolve_ns",
        ns_per_call(paths.len(), |i| {
            std::hint::black_box(tree.resolve(&paths[i]));
        }),
    );

    let reqs: Vec<Request> = trace
        .ops()
        .iter()
        .take(INLINE_WINDOW)
        .enumerate()
        .map(|(i, op)| request(i as u64, op.kind, op.target))
        .collect();
    let resps: Vec<Response> = reqs
        .iter()
        .map(|r| Response {
            id: r.id,
            from: d2tree_metrics::MdsId(0),
            body: ResponseBody::Served { node: r.target },
            hops: 0,
        })
        .collect();
    let req_frames: Vec<Bytes> = reqs.iter().map(Request::encode).collect();
    let resp_frames: Vec<Bytes> = resps.iter().map(Response::encode).collect();
    let n = 200_000;
    let w = INLINE_WINDOW;
    v.insert(
        "message.req_encode_ns",
        ns_per_call(n, |i| {
            std::hint::black_box(reqs[i % w].encode());
        }),
    );
    v.insert(
        "message.req_decode_ns",
        ns_per_call(n, |i| {
            std::hint::black_box(Request::decode(&mut req_frames[i % w].clone()));
        }),
    );
    v.insert(
        "message.resp_encode_ns",
        ns_per_call(n, |i| {
            std::hint::black_box(resps[i % w].encode());
        }),
    );
    v.insert(
        "message.resp_decode_ns",
        ns_per_call(n, |i| {
            std::hint::black_box(Response::decode(&mut resp_frames[i % w].clone()));
        }),
    );

    let (hist, counter) = (Histogram::new(), Counter::new());
    v.insert(
        "telemetry.hist_record_ns",
        ns_per_call(1_000_000, |i| hist.record(i as u64 & 1023)),
    );
    v.insert(
        "telemetry.counter_inc_ns",
        ns_per_call(1_000_000, |_| counter.inc()),
    );
    let tracer = Tracer::new(Sampler::always(seed));
    v.insert(
        "telemetry.span_record_ns",
        ns_per_call(50_000, |i| {
            let ctx = tracer.begin().expect("an always-sampler samples");
            tracer.record(Span::root(ctx, span_names::SERVE, i as u64, 1));
        }),
    );
    std::hint::black_box((hist.count(), counter.get(), tracer.drain().len()));
}

fn request(id: u64, kind: OpKind, target: NodeId) -> Request {
    Request {
        id: RequestId(id),
        kind,
        target,
        hops: 0,
        trace: None,
    }
}

/// Server-side counts, summed over the workload's daemons.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    frames: u64,
    batches: u64,
    batch_depth_sum: u64,
    wal_bytes: u64,
    wal_records: u64,
    fsyncs: u64,
    snapshots: u64,
    redirects: u64,
}

impl Counts {
    fn read(cluster: &Cluster) -> Counts {
        let mut c = Counts::default();
        for d in &cluster.daemons {
            let snap = d.registry.snapshot();
            let counter = |name: &str| -> u64 {
                snap.counters
                    .iter()
                    .filter(|(k, _)| k.name == name)
                    .map(|(_, v)| *v)
                    .sum()
            };
            let hist = |name: &str| {
                snap.histograms
                    .iter()
                    .filter(|(k, _)| k.name == name)
                    .fold((0, 0), |acc, (_, h)| (acc.0 + h.count, acc.1 + h.sum))
            };
            c.frames += counter(names::NET_FRAMES_TOTAL);
            c.batches += counter(names::NET_BATCHES_TOTAL);
            c.batch_depth_sum += hist(names::NET_BATCH_DEPTH).1;
            c.wal_bytes += counter(names::WAL_BYTES_TOTAL);
            c.wal_records += counter(names::WAL_RECORDS_TOTAL);
            c.fsyncs += hist(names::WAL_FSYNC_US).0;
            c.snapshots += counter(names::SNAPSHOTS_TOTAL);
            c.redirects += d.mds.redirects();
        }
        c
    }
}

/// Median of daemon 0's histogram `name` (the registry pre-registers
/// every name without a label too; the one that recorded is the one
/// labelled with the daemon).
fn server_p50_us(cluster: &Cluster, name: &str) -> f64 {
    cluster.daemons[0]
        .registry
        .snapshot()
        .histograms
        .iter()
        .filter(|(k, _)| k.name == name)
        .max_by_key(|(_, h)| h.count)
        .map_or(0.0, |(_, h)| h.p50 as f64)
}

fn traced_serving(
    spec: &ServingSpec,
    args: &Args,
    scale: &Scale,
    v: &mut Values,
    rec: &mut Recorder,
) -> io::Result<(bool, u64, u64)> {
    let dir = out_dir()
        .join(spec.name)
        .join(format!("{}-trace", std::process::id()));
    let mut cluster = Cluster::start(spec, args.seed, &dir)?;
    let st = cluster.stages;
    v.insert("workload.synth_s", st.synth_s);
    v.insert("workload.popularity_s", st.popularity_s);
    v.insert("net.mds_new_s", st.mds_new_s);
    v.insert("store.open_s", st.store_open_s);
    println!(
        "# set-up: the workload's own D2TreeScheme::build (M={}) took {:.4} s",
        spec.daemons, st.build_s
    );

    let (mut client, connect_s) = cluster.client(0, 1)?;
    // Per-layer latencies are diagnostics: they stay on the wall clock
    // everywhere, so that device waits show in them.
    client.busy_clock = false;
    v.insert("net.bind_connect_s", st.bind_s + connect_s);
    client.run_ops(scale.warmup_ops, None)?;

    // (b) The same operations over the sockets twice: untraced, traced.
    let start = client.cursor();
    let cpu0 = host::cpu_seconds();
    let plain = client.run_ops(scale.fixed_ops, None)?;
    let plain_cpu_s = host::cpu_seconds() - cpu0;
    client.seek(start);
    client.samples.clear();
    client.sample_stride = 1;
    let before = Counts::read(&cluster);
    let traced = client.run_ops(scale.fixed_ops, Some(rec))?;
    let after = Counts::read(&cluster);
    client.sample_stride = crate::serving::SAMPLE_STRIDE;
    let ops = traced.acked as f64;
    // The untraced pass as a whole, nothing selected: the typical figure
    // beside the end-to-end quiet-set ones (process CPU, clients included).
    v.insert("client.pass_ops_per_s", plain.acked as f64 / plain.wall_s);
    v.insert(
        "client.pass_cpu_us_per_op",
        plain_cpu_s * 1e6 / plain.acked as f64,
    );
    // The process has one CPU: what it did not burn of the pass's wall
    // time it spent waiting (for the disk on durable_mix; a sleep or a
    // blocking wait added to the serve path would show here too).
    v.insert("client.pass_idle_share", 1.0 - plain_cpu_s / plain.wall_s);
    v.insert(
        "trace.overhead_pct",
        (traced.wall_s - plain.wall_s) / plain.wall_s * 100.0,
    );
    let per_op = |after: u64, before: u64| (after - before) as f64 / ops;
    v.insert(
        "net.batch_depth_mean",
        (after.batch_depth_sum - before.batch_depth_sum) as f64
            / (after.batches - before.batches) as f64,
    );
    v.insert("net.frames_per_op", per_op(after.frames, before.frames));
    v.insert(
        "net.redirects_per_op",
        per_op(after.redirects, before.redirects),
    );
    v.insert(
        "net.srv_query_p50_us",
        server_p50_us(&cluster, names::SRV_LATENCY_US_READ_OK),
    );
    v.insert(
        "net.srv_update_p50_us",
        server_p50_us(&cluster, names::SRV_LATENCY_US_UPDATE_OK),
    );
    v.insert("store.fsyncs_per_op", per_op(after.fsyncs, before.fsyncs));
    v.insert(
        "store.records_per_op",
        per_op(after.wal_records, before.wal_records),
    );
    v.insert(
        "store.wal_bytes_per_op",
        per_op(after.wal_bytes, before.wal_bytes),
    );
    v.insert(
        "store.snapshots",
        (after.snapshots - before.snapshots) as f64,
    );
    v.insert(
        "store.fsync_p50_us",
        server_p50_us(&cluster, names::WAL_FSYNC_US),
    );

    v.insert("client.window_rtt_us", stats::median(&client.chunk_rtts_us));
    let by_kind = |update: bool| -> Vec<f64> {
        client
            .samples
            .iter()
            .filter(|s| (s.kind == OpKind::Update) == update)
            .map(|s| s.us)
            .collect()
    };
    let (queries, updates) = (by_kind(false), by_kind(true));
    v.insert("client.query_p50_us", stats::median(&queries));
    if !updates.is_empty() {
        v.insert("client.update_p50_us", stats::median(&updates));
    }
    let all: Vec<f64> = client.samples.iter().map(|s| s.us).collect();
    v.insert("client.p99_us", stats::percentile(&all, 0.99));
    println!(
        "# traced socket pass: {} ops, latency samples: {} queries, {} updates",
        traced.acked,
        queries.len(),
        updates.len()
    );

    // Depth-1 probes: one caller, one request in flight.
    let d1 = client.depth_one(scale.depth_one_calls, OpKind::Read)?;
    v.insert("client.d1_query_p50_us", stats::median(&d1));
    // Not on cluster_route: a global-layer update commits on the
    // receiving daemon alone, so two daemons would diverge.
    if spec.daemons == 1 {
        let f0 = Counts::read(&cluster).fsyncs;
        let d1 = client.depth_one(scale.depth_one_calls, OpKind::Update)?;
        v.insert("client.d1_update_p50_us", stats::median(&d1));
        v.insert(
            "store.d1_fsyncs_per_op",
            (Counts::read(&cluster).fsyncs - f0) as f64 / d1.len() as f64,
        );
    }

    // How steady the host was: spread of sixteen equal slices of one
    // episode's worth of closed-loop time.
    let slice_s = args.seconds / args.episodes as f64 / 16.0;
    let mut rates = Vec::with_capacity(16);
    for _ in 0..16 {
        let p = client.run_for(slice_s, || {})?;
        rates.push(p.acked as f64 / p.wall_s);
    }
    v.insert("host.window_cv", stats::coefficient_of_variation(&rates));

    let tally = client.tally;
    let acks = client.update_acks.take();
    drop(client);

    // (a) The inline pipeline, against the same (now idle) daemons.
    let inline = inline_pipeline(&cluster, scale.fixed_ops as usize, rec);
    let own = spans::self_time_by_name(rec.spans());
    let own_of = |name: &str| own.get(name).copied().unwrap_or(0) as f64;
    let chunks = traced.chunks as f64;
    v.insert("client.route_ns", own_of("client.route") / ops);
    v.insert("client.send_us", own_of("client.send") / chunks / 1e3);
    v.insert("client.wait_us", own_of("client.wait") / chunks / 1e3);
    let n = inline.ops as f64;
    v.insert("net.framebuf_ns", own_of("net.framebuf") / (2.0 * n));
    v.insert("net.serve_ns", own_of("net.serve") / n);
    v.insert(
        "net.commit_us",
        own_of("net.commit") / inline.windows as f64 / 1e3,
    );
    let layers_ns: f64 = [
        "inline.route",
        "message.req_encode",
        "net.framebuf",
        "message.req_decode",
        "net.serve",
        "net.commit",
        "message.resp_encode",
        "message.resp_decode",
    ]
    .iter()
    .map(|name| own_of(name))
    .sum();
    let window_ns = layers_ns + own_of("inline.window");
    let covered = layers_ns / window_ns;
    let inline_window_cpu_us = inline.cpu_s * 1e6 / inline.windows as f64;
    let socket_window_cpu_us = plain_cpu_s * 1e6 / plain.acked as f64 * INLINE_WINDOW as f64;
    v.insert(
        "net.residual_us",
        socket_window_cpu_us - inline_window_cpu_us,
    );
    println!(
        "# inline pipeline: {} ops in {} windows of {INLINE_WINDOW}, {:.2} us wall per window; layer \
         self-times cover {:.1}% of the window spans; {:.2} us of CPU per window inline against \
         {:.2} us of process CPU per {INLINE_WINDOW} ops through the sockets (inline share {:.1}%)",
        inline.ops,
        inline.windows,
        window_ns / inline.windows as f64 / 1e3,
        covered * 100.0,
        inline_window_cpu_us,
        socket_window_cpu_us,
        inline_window_cpu_us / socket_window_cpu_us * 100.0
    );

    // Durability, then the store's own calls on a scratch directory — on
    // every serving workload, so that the traced runs of the gated
    // workloads (none of which journals) still carry store figures.
    let mut lost = 0;
    if let Some(acks) = &acks {
        let (l, recover_ms) = cluster.crash_and_recover(acks);
        lost = l;
        v.insert("store.recover_ms", recover_ms);
    }
    let scratch = ScratchDir(dir.with_extension("standalone"));
    standalone_store(&scratch.0, v);
    drop(scratch);
    cluster.shutdown();
    standalone_layers(&cluster.tree, &cluster.trace, &cluster.pop, args.seed, v);

    let failed = tally.failed + inline.failed;
    let correct = failed == 0 && lost == 0 && tally.acked == tally.attempted && covered >= 0.85;
    println!(
        "# checks: {} attempted over the sockets, {} failed; {} inline, {} failed; {lost} \
         acknowledged updates lost across the simulated crash",
        tally.attempted, tally.failed, inline.ops, inline.failed
    );
    Ok((correct, tally.attempted + inline.ops, failed))
}

struct Inline {
    ops: u64,
    windows: u64,
    failed: u64,
    /// On-CPU seconds of the pass (its wall time includes fsync waits on
    /// a durable workload).
    cpu_s: f64,
}

/// Part (a): every window of 128 trace operations is carried through the
/// layers' public functions by this one thread, in the order the socket
/// path runs them: route → `Request::encode` → `FrameBuf` → `Request::
/// decode` → `NetMds::serve_deferred` → `commit_batch` → `Response::
/// encode` → `FrameBuf` → `Response::decode`. One span per layer per
/// window, so `Instant::now` is paid once per 128 operations.
fn inline_pipeline(cluster: &Cluster, ops: usize, rec: &mut Recorder) -> Inline {
    let daemons = cluster.daemons.len();
    let mut router = Router::new(
        &cluster.tree,
        cluster.scheme.local_index().clone(),
        daemons,
        cluster.spec.misroute_every,
    );
    let mut server_buf: Vec<FrameBuf> = (0..daemons)
        .map(|_| FrameBuf::new(MAX_FRAME_BYTES))
        .collect();
    let mut client_buf = FrameBuf::new(MAX_FRAME_BYTES);
    let windows = ops.div_ceil(INLINE_WINDOW);
    let trace_ops = cluster.trace.ops();
    let (mut next_id, mut failed) = (0u64, 0u64);
    let mut routed: Vec<(usize, Request)> = Vec::with_capacity(INLINE_WINDOW);
    let mut reqs: Vec<(usize, Request)> = Vec::with_capacity(INLINE_WINDOW);
    let mut frames: Vec<(usize, Bytes)> = Vec::with_capacity(INLINE_WINDOW);
    let mut resps: Vec<Response> = Vec::with_capacity(INLINE_WINDOW);
    let cpu0 = host::cpu_seconds();
    for wid in 0..windows as u64 {
        let w = rec.open("inline.window", wid);
        routed.clear();
        rec.child("inline.route", w, wid, || {
            for _ in 0..INLINE_WINDOW {
                let op = trace_ops[next_id as usize % trace_ops.len()];
                routed.push((
                    router.route(op.target),
                    request(next_id, op.kind, op.target),
                ));
                next_id += 1;
            }
        });
        frames.clear();
        rec.child("message.req_encode", w, wid, || {
            frames.extend(routed.iter().map(|(d, r)| (*d, r.encode())));
        });
        rec.child("net.framebuf", w, wid, || {
            for (d, f) in &frames {
                server_buf[*d].extend(f);
            }
            frames.clear();
            for (d, buf) in server_buf.iter_mut().enumerate() {
                while let Some(f) = buf.next_frame().expect("own frames are well-formed") {
                    frames.push((d, f));
                }
            }
        });
        reqs.clear();
        rec.child("message.req_decode", w, wid, || {
            for (d, f) in &mut frames {
                reqs.push((*d, Request::decode(f).expect("own frames decode")));
            }
        });
        resps.clear();
        rec.child("net.serve", w, wid, || {
            for &(d, req) in &reqs {
                let mut resp = cluster.daemons[d].mds.serve_deferred(req);
                if let ResponseBody::Redirect { owner } = resp.body {
                    let follow = Request {
                        hops: req.hops + 1,
                        ..req
                    };
                    resp = cluster.daemons[owner.index()].mds.serve_deferred(follow);
                }
                resps.push(resp);
            }
        });
        rec.child("net.commit", w, wid, || {
            for d in &cluster.daemons {
                d.mds.commit_batch();
            }
        });
        frames.clear();
        rec.child("message.resp_encode", w, wid, || {
            frames.extend(resps.iter().map(|r| (0, r.encode())));
        });
        rec.child("net.framebuf", w, wid, || {
            for (_, f) in &frames {
                client_buf.extend(f);
            }
            frames.clear();
            while let Some(f) = client_buf.next_frame().expect("own frames are well-formed") {
                frames.push((0, f));
            }
        });
        rec.child("message.resp_decode", w, wid, || {
            // Daemons were served in per-daemon order, so match replies
            // to requests by id, not by position.
            for (_, f) in &mut frames {
                let ok = Response::decode(f).is_some_and(|resp| {
                    let first = routed[0].1.id.0;
                    let req = routed.get((resp.id.0 - first) as usize).map(|r| r.1);
                    matches!((req, resp.body), (Some(req), ResponseBody::Served { node })
                        if node == req.target && resp.id == req.id)
                });
                failed += u64::from(!ok);
            }
        });
        rec.close(w);
    }
    Inline {
        ops: next_id,
        windows: windows as u64,
        failed,
        cpu_s: host::cpu_seconds() - cpu0,
    }
}

/// Part (c) for the store: its own calls on a fresh directory.
fn standalone_store(dir: &Path, v: &mut Values) {
    let (mut store, _) = MdsStore::open(dir, StoreConfig::manual()).expect("scratch store opens");
    let record = |i: u64| MdsRecord::AttrCommit {
        node: i % 50_000,
        gl: false,
        attr: AttrState {
            version: i / 50_000 + 1,
            mtime: i,
            ..AttrState::default()
        },
    };
    let n = 20_000u64;
    v.insert(
        "store.append_ns",
        ns_per_call(n as usize, |i| {
            store
                .append_deferred(record(i as u64))
                .expect("scratch append");
        }),
    );
    store.sync().expect("scratch sync");
    let syncs: Vec<f64> = (0..64u64)
        .map(|b| {
            for i in 0..64 {
                store
                    .append_deferred(record(n + b * 64 + i))
                    .expect("scratch append");
            }
            secs(|| store.sync().expect("scratch sync")).1 * 1e6
        })
        .collect();
    v.insert("store.sync_us", stats::median(&syncs));
    let snaps: Vec<f64> = (0..3)
        .map(|_| secs(|| store.snapshot().expect("scratch snapshot")).1 * 1e3)
        .collect();
    v.insert("store.snapshot_ms", stats::median(&snaps));
}

/// `sim_fig5` traced: one sweep with build and replay timed apart, the
/// quality counts of the D2-Tree cells, and a rebalancing replay.
fn traced_sim(args: &Args, scale: &Scale, v: &mut Values, rec: &mut Recorder) -> (bool, u64, u64) {
    let inputs = simfig5::synthesize(scale, args.seed);
    v.insert("workload.synth_s", inputs.synth_s);
    v.insert("workload.popularity_s", inputs.popularity_s);
    let cells = simfig5::sweep(&inputs, args.seed);
    for (i, c) in cells.iter().enumerate() {
        // One span per cell, its build and replay as children.
        let start_ns = rec.ns_at(c.started);
        let built_ns = start_ns + (c.build_s * 1e9) as u64;
        let end_ns = built_ns + (c.replay_s * 1e9) as u64;
        let id = i as u64;
        let cell = rec.push(spans::Span {
            name: "sim.cell",
            start_ns,
            end_ns,
            parent: None,
            id,
        });
        let build = if c.scheme == "d2tree" {
            "core.build"
        } else {
            "baselines.build"
        };
        for (name, start_ns, end_ns) in [
            (build, start_ns, built_ns),
            ("sim.replay", built_ns, end_ns),
        ] {
            rec.push(spans::Span {
                name,
                start_ns,
                end_ns,
                parent: Some(cell),
                id,
            });
        }
    }
    let ops: usize = cells.iter().map(|c| c.ops).sum();
    v.insert(
        "baselines.build_s",
        cells
            .iter()
            .filter(|c| c.scheme != "d2tree")
            .map(|c| c.build_s)
            .sum(),
    );
    v.insert(
        "sim.replay_ns_per_op",
        cells.iter().map(|c| c.replay_s).sum::<f64>() * 1e9 / ops as f64,
    );
    let d2: Vec<&ReplayOutcome> = cells
        .iter()
        .filter(|c| c.scheme == "d2tree")
        .map(|c| &c.outcome)
        .collect();
    let d2_ops: usize = d2.iter().map(|o| o.completed).sum();
    v.insert(
        "sim.virtual_ops_per_s.d2tree",
        d2_ops as f64 / d2.iter().map(|o| o.sim_seconds).sum::<f64>(),
    );
    v.insert(
        "sim.hops_per_op.d2tree",
        d2.iter().map(|o| o.total_hops).sum::<u64>() as f64 / d2_ops as f64,
    );

    // Fig. 7's loop: RA replayed in 20 chunks, rebalancing in between.
    let (ra, ra_pop) = inputs
        .workloads
        .iter()
        .find(|(w, _)| w.profile.name == "RA")
        .expect("RA is a paper preset");
    let cluster = simfig5::sim_cluster(ra_pop);
    let mut scheme = simfig5::d2tree_scheme(args.seed);
    scheme.build(&ra.tree, ra_pop, &cluster);
    let sim = Simulator::new(SimConfig {
        seed: args.seed,
        ..SimConfig::default()
    });
    let rounds = 20;
    let (rebalanced, rebalance_s) =
        secs(|| sim.replay_with_rebalance(&ra.tree, &ra.trace, &mut scheme, &cluster, rounds, 0.5));
    v.insert("sim.rebalance_round_ms", rebalance_s * 1e3 / rounds as f64);

    let (dtr, dtr_pop) = &inputs.workloads[0];
    standalone_layers(&dtr.tree, &dtr.trace, dtr_pop, args.seed, v);

    let failed: u64 = cells
        .iter()
        .map(|c| (c.ops - c.outcome.completed.min(c.ops)) as u64)
        .sum();
    let violations: usize = cells.iter().map(|c| c.violations).sum();
    let rebalanced_ok = rebalanced.overall.completed == ra.trace.len();
    println!(
        "# checks: {ops} simulated ops, {failed} not completed, {violations} check_d2tree \
         violations, rebalancing replay completed: {rebalanced_ok}"
    );
    (
        failed == 0 && violations == 0 && rebalanced_ok,
        ops as u64,
        failed,
    )
}
