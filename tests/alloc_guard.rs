//! Allocation regression guards for the two per-operation hot paths
//! and the namespace's byte budget.
//!
//! A pipelined window driven through [`NetServer`] + [`NetClient`] on
//! loopback must cost O(batches) heap allocations in steady state, not
//! O(requests): the server decodes out of its read buffer, serves and
//! encodes into a reused write buffer, and the client encodes into a
//! reused send buffer and decodes out of its read buffer.
//!
//! A [`Simulator::replay`] must cost O(1) allocations per replay (plus
//! amortised buffer growth), not O(operations): one router remembers the
//! chain walks and each closed-loop client refills one visit buffer.
//!
//! Synthesising a namespace must cost O(1) allocations and a bounded
//! number of live heap bytes per node: the tree is columns, one pooled
//! child-edge array and one name arena, not a record, a child `Vec` and
//! two boxed names per node.
//!
//! The counter is a process-wide `#[global_allocator]`, so this file is
//! its own test binary and its tests take turns under [`MEASURING`] —
//! nothing else may allocate while one of them counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use d2tree::baselines::{HashMapping, StaticSubtree};
use d2tree::cluster::{
    NetClient, NetMds, NetServer, NetServerConfig, Request, RequestId, ResponseBody, SimConfig,
    Simulator,
};
use d2tree::core::{D2TreeConfig, D2TreeScheme, LocalIndex, Partitioner};
use d2tree::metrics::{Assignment, ClusterSpec, MdsId, Placement};
use d2tree::namespace::{NamespaceTree, NodeId, NodeKind};
use d2tree::telemetry::{names, Registry};
use d2tree::workload::{
    synthesize_tree, OpKind, Operation, Trace, TraceGen, TraceProfile, WorkloadBuilder,
};

/// The system allocator, counting every allocation it hands out and the
/// bytes currently handed out.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed. Wraps below zero only between a
/// thread's `dealloc` and the `alloc` it has yet to count, never across
/// a measurement taken under [`MEASURING`].
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are a side
// effect that touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Held by whichever test is counting; guards no data, so a holder that
/// panicked leaves nothing to repair.
static MEASURING: Mutex<()> = Mutex::new(());

const WINDOW: usize = 128;
const WARMUP_WINDOWS: usize = 20;
const MEASURED_WINDOWS: usize = 100;

/// Sends `window` as one pipelined burst and checks every reply.
fn round_trip(client: &mut NetClient, window: &mut [Request], next_id: &mut u64) {
    for req in window.iter_mut() {
        req.id = RequestId(*next_id);
        *next_id += 1;
    }
    client.send_batch(window).expect("one buffered write");
    for req in window.iter() {
        let resp = client.recv().expect("in-order response");
        assert_eq!(resp.id, req.id);
        assert_eq!(resp.body, ResponseBody::Served { node: req.target });
    }
}

#[test]
fn steady_state_wire_path_allocates_per_batch_not_per_request() {
    let _turn = MEASURING.lock().unwrap_or_else(PoisonError::into_inner);
    // One MDS owning a small local-layer subtree: every request walks
    // the whole serve path (locate, popularity bump, latency tally).
    let mut tree = NamespaceTree::new();
    let dir = tree
        .create(tree.root(), "d", NodeKind::Directory)
        .expect("create");
    let files: Vec<NodeId> = (0..WINDOW)
        .map(|i| {
            tree.create(dir, &format!("f{i}"), NodeKind::File)
                .expect("create")
        })
        .collect();
    let tree = Arc::new(tree);
    let mut placement = Placement::new(&tree, 1);
    for (id, _) in tree.nodes() {
        placement.set(id, Assignment::Single(MdsId(0)));
    }
    let mut index = LocalIndex::new();
    index.insert(tree.root(), MdsId(0));
    let mds = Arc::new(NetMds::new(
        Arc::clone(&tree),
        placement,
        index,
        MdsId(0),
        Arc::new(Registry::new()),
    ));
    let server =
        NetServer::bind("127.0.0.1:0", Arc::clone(&mds), NetServerConfig::default()).expect("bind");
    let mut client = NetClient::connect(&server.local_addr().to_string(), Duration::from_secs(5))
        .expect("connect");

    let mut window: Vec<Request> = files
        .iter()
        .enumerate()
        .map(|(i, &target)| Request {
            id: RequestId(0),
            kind: if i % 8 == 0 {
                OpKind::Update
            } else {
                OpKind::Read
            },
            target,
            hops: 0,
            trace: None,
        })
        .collect();
    let mut next_id = 1u64;
    // Warm-up: buffers grow to the window, the label table is built.
    for _ in 0..WARMUP_WINDOWS {
        round_trip(&mut client, &mut window, &mut next_id);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..MEASURED_WINDOWS {
        round_trip(&mut client, &mut window, &mut next_id);
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let requests = (WINDOW * MEASURED_WINDOWS) as u64;
    assert_eq!(
        mds.served(),
        (WINDOW * (WARMUP_WINDOWS + MEASURED_WINDOWS)) as u64
    );
    let per_request = allocations as f64 / requests as f64;
    assert!(
        per_request < 0.05,
        "{allocations} allocations over {requests} pipelined requests \
         ({per_request:.3} per request): the wire path allocates per request again"
    );
    drop(client);
    let _ = server.shutdown();
}

#[test]
fn replay_allocates_per_replay_not_per_operation() {
    let _turn = MEASURING.lock().unwrap_or_else(PoisonError::into_inner);
    let w = WorkloadBuilder::new(
        TraceProfile::lmbe()
            .with_nodes(25_000)
            .with_operations(100_000),
    )
    .seed(1)
    .build();
    let pop = w.popularity();
    let short = Trace::from_ops(w.trace.ops()[..10_000].to_vec());
    let sim = Simulator::new(SimConfig {
        seed: 1,
        ..SimConfig::default()
    });
    // Neither scheme replicates a node, so no operation takes the lock
    // path and its per-node waiter queues.
    let schemes: [Box<dyn Partitioner>; 2] = [
        Box::new(StaticSubtree::new(1)),
        Box::new(HashMapping::new(1)),
    ];
    for mut scheme in schemes {
        scheme.build(&w.tree, &pop, &ClusterSpec::homogeneous(16, 1.0));
        let allocations_of = |trace: &Trace| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let out = sim.replay(&w.tree, trace, scheme.as_ref());
            assert_eq!(out.completed, trace.len());
            ALLOCATIONS.load(Ordering::Relaxed) - before
        };
        let (few, many) = (allocations_of(&short), allocations_of(&w.trace));
        let extra_ops = (w.trace.len() - short.len()) as f64;
        let per_extra_op = many.saturating_sub(few) as f64 / extra_ops;
        // At the parent commit (an owned `Vec` of visits per plan) this
        // read 1.0000 per extra operation for `static` (10 063 → 100 063)
        // and 1.0788 for `hash` (10 841 → 107 935); it reads 274 → 279
        // and 477 → 493 now.
        assert!(
            per_extra_op < 0.01,
            "{}: {few} allocations for {} operations, {many} for {} \
             ({per_extra_op:.4} per extra operation): replay allocates per operation again",
            scheme.name(),
            short.len(),
            w.trace.len()
        );
    }
}

/// Runs `step` and reports what it left behind: its result, the heap
/// bytes still allocated when it returned (`Vec` capacity slack counts
/// as held) and the allocations it made. Only under [`MEASURING`].
fn measured<T>(step: impl FnOnce() -> T) -> (T, u64, u64) {
    let (live, allocations) = (
        LIVE_BYTES.load(Ordering::Relaxed),
        ALLOCATIONS.load(Ordering::Relaxed),
    );
    let out = step();
    (
        out,
        LIVE_BYTES.load(Ordering::Relaxed).wrapping_sub(live),
        ALLOCATIONS.load(Ordering::Relaxed) - allocations,
    )
}

/// The byte budget of what one serving episode holds before its first
/// request — the `hot_read` workload on `cluster_route`'s shape of two
/// daemons and a client router — step by step in the order the
/// benchmark's `Cluster::start` builds it. DESIGN.md §11's table is this
/// test's output: `cargo test --release --test alloc_guard namespace_holds -- --nocapture`.
#[test]
fn namespace_holds_a_bounded_number_of_bytes_and_no_allocation_per_node() {
    let _turn = MEASURING.lock().unwrap_or_else(PoisonError::into_inner);
    // The `hot_read` workload: LMBE, 200 k nodes, a 1 M-op trace, seed 1.
    let profile = TraceProfile::lmbe()
        .with_nodes(200_000)
        .with_operations(1_000_000);
    let mut rows = Vec::new();
    let mut step =
        |name: &'static str, live: u64, allocations: u64| rows.push((name, live, allocations));

    let ((tree, _), live, allocations) = measured(|| synthesize_tree(&profile, 1));
    step("tree (synthesize_tree)", live, allocations);
    let nodes = tree.node_count();
    // At PR 22 (a 56-byte record, a child `Vec` per directory and two
    // boxed copies of every name) this read 129.5 bytes per node in
    // 1 053 473 allocations.
    let per_node = live as f64 / nodes as f64;
    assert!(
        per_node <= 72.0,
        "{live} live bytes for {nodes} nodes ({per_node:.1} per node): over the 72-byte budget"
    );
    assert!(
        allocations < 1_000,
        "{allocations} allocations to synthesise {nodes} nodes: the tree allocates per node again"
    );

    let (trace, live, allocations) =
        measured(|| TraceGen::new(&profile, &tree, 1).collect::<Trace>());
    step("trace (TraceGen::collect)", live, allocations);
    // An aligned record padded the 5 bytes of a target and a kind to 8.
    assert_eq!(std::mem::size_of::<Operation>(), 5);
    let per_op = live as f64 / trace.len() as f64;
    assert!(
        per_op <= 5.0,
        "{live} live bytes for {} operations ({per_op:.2} per operation): over 5",
        trace.len()
    );

    // One pass over the tree, one stack: at PR 22 the traversal
    // collected every directory's children into a `Vec` of its own
    // (28 604 allocations).
    let (pop, live, allocations) = measured(|| trace.popularity(&tree));
    step("popularity (Trace::popularity)", live, allocations);
    assert!(pop.is_rolled_up());
    assert!(
        allocations < 50,
        "{allocations} allocations to roll popularity up over {nodes} nodes"
    );

    let tree = Arc::new(tree);
    let (scheme, live, allocations) = measured(|| {
        let mut s = D2TreeScheme::new(D2TreeConfig::by_proportion(0.01).with_seed(1));
        s.build(&tree, &pop, &ClusterSpec::homogeneous(2, 1.0));
        s
    });
    step("scheme (D2TreeScheme::build)", live, allocations);
    // One traversal stack for all ≈ 34 k subtrees: sizing each one and
    // assigning each one with a fresh stack made 85 854 allocations.
    assert!(
        allocations < 1_000,
        "{allocations} allocations to build the scheme: it allocates per subtree again"
    );

    // Clones share the placement and the index's root and label tables.
    let (copies, live, _) = measured(|| (scheme.placement().clone(), scheme.local_index().clone()));
    assert!(
        live < 1 << 10,
        "cloning the placement and the index left {live} live bytes: a clone copies again"
    );
    drop(copies);

    let registry = || {
        let registry = Arc::new(Registry::new());
        names::register_all(&registry);
        registry
    };
    let new_mds = |me: u16, registry: &Arc<Registry>| {
        NetMds::new(
            Arc::clone(&tree),
            scheme.placement().clone(),
            scheme.local_index().clone(),
            MdsId(me),
            Arc::clone(registry),
        )
    };
    let (registry_0, live, allocations) = measured(registry);
    step("registry (register_all)", live, allocations);
    let (mds, live, allocations) = measured(|| new_mds(0, &registry_0));
    step("NetMds::new", live, allocations);
    // What a daemon holds beyond the shared tree is a clone of the
    // placement and the index, which copy nothing, and a popularity
    // counter per index root. A dense 40-byte attribute record per node
    // read 54.3 bytes per node, the private copies of the placement,
    // root table and a counter map 14.4.
    let per_node = live as f64 / nodes as f64;
    assert!(
        per_node <= 4.0,
        "{live} live bytes in NetMds::new for {nodes} nodes ({per_node:.1} per node): \
         over the 4-byte budget"
    );

    // `Cluster::start` gives each daemon a registry; the first one's is
    // the row above.
    let registry_1 = registry();
    let (_second, second_live, allocations) = measured(|| new_mds(1, &registry_1));
    step("NetMds::new (second daemon)", second_live, allocations);
    let (_router, router_live, allocations) = measured(|| scheme.local_index().clone());
    step("client index (local_index clone)", router_live, allocations);
    let per_node = (second_live + router_live) as f64 / nodes as f64;
    assert!(
        per_node <= 4.0,
        "a second daemon and a client index cache hold {per_node:.1} bytes per node: \
         over the 4-byte budget"
    );

    println!(
        "{:<32} {:>9} {:>9} {:>12}",
        "step", "live MiB", "B/node", "allocations"
    );
    let total = (
        "all eight",
        rows.iter().map(|row| row.1).sum(),
        rows.iter().map(|row| row.2).sum(),
    );
    for (name, live, allocations) in rows.into_iter().chain([total]) {
        println!(
            "{name:<32} {:>9.2} {:>9.1} {allocations:>12}",
            live as f64 / (1 << 20) as f64,
            live as f64 / nodes as f64,
        );
    }

    // Queries never touch the attribute table: after 10 k of them the
    // daemon holds a record for no node at all.
    let queries: Vec<Request> = trace
        .ops()
        .iter()
        .filter(|op| op.kind != OpKind::Update)
        .take(10_000)
        .enumerate()
        .map(|(i, op)| Request {
            id: RequestId(i as u64),
            kind: op.kind,
            target: op.target,
            hops: 0,
            trace: None,
        })
        .collect();
    assert_eq!(queries.len(), 10_000);
    let mut served = 0;
    for batch in queries.chunks(WINDOW) {
        for (req, resp) in batch.iter().zip(mds.serve_batch(batch)) {
            match resp.body {
                ResponseBody::Served { node } if node == req.target => served += 1,
                ResponseBody::Redirect { owner: MdsId(1) } => {}
                other => panic!("{other:?} for {:?}", req.target),
            }
        }
    }
    assert!(served > 0 && served == mds.served() as usize);
    assert_eq!(
        mds.attr_records(),
        0,
        "a query left an attribute record behind"
    );
}
