//! Integration tests of the live multi-threaded cluster runtime:
//! concurrency, redirects, fail-over under load and lock-protected
//! global-layer updates.

use std::sync::Arc;
use std::time::{Duration, Instant};

use d2tree::cluster::live::{LiveCluster, LiveConfig};
use d2tree::cluster::message::ResponseBody;
use d2tree::core::{D2TreeConfig, D2TreeScheme, Partitioner};
use d2tree::metrics::{ClusterSpec, MdsId};
use d2tree::workload::{OpKind, Operation, TraceProfile, WorkloadBuilder};

fn start(
    m: usize,
    seed: u64,
) -> (
    Arc<d2tree::namespace::NamespaceTree>,
    LiveCluster,
    d2tree::workload::Trace,
) {
    let w = WorkloadBuilder::new(TraceProfile::lmbe().with_nodes(800).with_operations(2_000))
        .seed(seed)
        .build();
    let pop = w.popularity();
    let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default());
    scheme.build(&w.tree, &pop, &ClusterSpec::homogeneous(m, 1.0));
    let tree = Arc::new(w.tree);
    let cluster = LiveCluster::start(
        Arc::clone(&tree),
        scheme.placement().clone(),
        LiveConfig::default(),
    );
    (tree, cluster, w.trace)
}

#[test]
fn eight_concurrent_clients_under_churn() {
    let (_tree, cluster, trace) = start(5, 21);
    let cluster = Arc::new(cluster);
    let trace = Arc::new(trace);
    let mut handles = Vec::new();
    for c in 0..8u64 {
        let mut client = cluster.client(c);
        let trace = Arc::clone(&trace);
        handles.push(std::thread::spawn(move || {
            let mut ok = 0usize;
            for op in trace.iter().skip((c as usize * 250) % 1_000).take(250) {
                if client.execute(*op).is_ok() {
                    ok += 1;
                }
            }
            ok
        }));
    }
    let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, 8 * 250);
    let report = Arc::try_unwrap(cluster).unwrap().shutdown();
    assert_eq!(report.served.iter().sum::<u64>(), 2_000);
}

#[test]
fn mixed_reads_and_locked_updates() {
    let (tree, cluster, _trace) = start(3, 22);
    let mut client = cluster.client(0);
    // Root and its replicated prefix take the lock path; deep files do not.
    for _ in 0..50 {
        let resp = client
            .execute(Operation {
                target: tree.root(),
                kind: OpKind::Update,
            })
            .expect("root update");
        assert!(matches!(resp.body, ResponseBody::Served { .. }));
    }
    let deep = tree
        .nodes()
        .map(|(id, _)| id)
        .max_by_key(|&id| tree.depth(id))
        .unwrap();
    let resp = client
        .execute(Operation {
            target: deep,
            kind: OpKind::Update,
        })
        .expect("deep update");
    assert!(matches!(resp.body, ResponseBody::Served { .. }));
    let _ = cluster.shutdown();
}

#[test]
fn failover_under_continuous_load() {
    let (tree, cluster, trace) = start(4, 23);
    std::thread::sleep(Duration::from_millis(100)); // all servers known

    let cluster = Arc::new(cluster);
    let trace = Arc::new(trace);

    // Background load while we kill a server.
    let loader = {
        let mut client = cluster.client(9);
        let trace = Arc::clone(&trace);
        std::thread::spawn(move || {
            let mut ok = 0usize;
            let mut failed = 0usize;
            for op in trace.iter().take(1_500) {
                match client.execute(*op) {
                    Ok(_) => ok += 1,
                    Err(_) => failed += 1,
                }
            }
            (ok, failed)
        })
    };

    std::thread::sleep(Duration::from_millis(30));
    let victim = MdsId(2);
    cluster.kill(victim);

    let (ok, failed) = loader.join().unwrap();
    assert!(ok > 0);
    // The retry budget should carry most requests through the fail-over
    // window; allow some casualties from the dead server's queue.
    assert!(
        failed <= 1_500 / 5,
        "too many failures across fail-over: {failed}"
    );

    // Eventually nothing points at the dead server.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let placement = cluster.placement_snapshot();
        let orphaned = tree
            .nodes()
            .filter(|(id, _)| placement.assignment(*id).owner() == Some(victim))
            .count();
        if orphaned == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{orphaned} nodes still on the dead server"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = Arc::try_unwrap(cluster).unwrap().shutdown();
}

#[test]
fn killing_an_mds_journals_mds_down_then_subtree_claimed() {
    use d2tree::telemetry::EventKind;

    // Seed the servers with the scheme's local index so the failover path
    // has published subtree roots to re-home (and therefore to journal).
    let w = WorkloadBuilder::new(TraceProfile::lmbe().with_nodes(800).with_operations(500))
        .seed(25)
        .build();
    let pop = w.popularity();
    let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default());
    scheme.build(&w.tree, &pop, &ClusterSpec::homogeneous(4, 1.0));
    let placement = scheme.placement().clone();
    let index = scheme.local_index().clone();
    let tree = Arc::new(w.tree);
    let cluster = LiveCluster::start_with_index(
        Arc::clone(&tree),
        placement,
        index.clone(),
        LiveConfig::default(),
    );

    // Pick a victim that owns at least one published subtree root, so its
    // death forces index re-pointing.
    let victim = index
        .iter()
        .map(|(_, owner)| owner)
        .next()
        .expect("non-empty index");
    std::thread::sleep(Duration::from_millis(100)); // all servers known
    cluster.kill(victim);

    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let events = cluster.registry().journal().snapshot();
        let down_seq = events.iter().find_map(|e| match e.kind {
            EventKind::MdsDown { mds } if mds == victim.0 => Some(e.seq),
            _ => None,
        });
        let claim_seq = events.iter().find_map(|e| match e.kind {
            EventKind::SubtreeClaimed { .. } => Some(e.seq),
            _ => None,
        });
        if let (Some(down), Some(claim)) = (down_seq, claim_seq) {
            assert!(
                down < claim,
                "failure must be journaled before the claim: down seq {down}, claim seq {claim}"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no MdsDown + SubtreeClaimed pair in the journal (down: {down_seq:?}, claim: {claim_seq:?})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let report = cluster.shutdown();
    // The shutdown report carries the same journal.
    assert!(report
        .journal
        .iter()
        .any(|e| matches!(e.kind, EventKind::MdsDown { mds } if mds == victim.0)));
}

#[test]
fn failover_rehomes_whole_subtrees_each_claimed_once() {
    use d2tree::telemetry::EventKind;
    use std::collections::BTreeMap;

    let w = WorkloadBuilder::new(TraceProfile::lmbe().with_nodes(800).with_operations(500))
        .seed(21)
        .build();
    let pop = w.popularity();
    let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default());
    scheme.build(&w.tree, &pop, &ClusterSpec::homogeneous(4, 1.0));
    let index = scheme.local_index().clone();
    let tree = Arc::new(w.tree);
    let cluster = LiveCluster::start_with_index(
        Arc::clone(&tree),
        scheme.placement().clone(),
        index.clone(),
        LiveConfig::default(),
    );
    let victim = MdsId(1);
    let orphaned: Vec<_> = index
        .iter()
        .filter(|&(_, owner)| owner == victim)
        .map(|(root, _)| root)
        .collect();
    assert!(
        orphaned.iter().any(|&r| tree.subtree_size(r) > 1),
        "the victim must own a multi-node subtree for a split to show"
    );
    std::thread::sleep(Duration::from_millis(100)); // all servers known
    cluster.kill(victim);

    let deadline = Instant::now() + Duration::from_secs(5);
    let violations = loop {
        let v = cluster.check_invariants();
        if v.is_empty() || Instant::now() >= deadline {
            break v;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        violations.is_empty(),
        "fail-over never settled: {violations:?}"
    );

    // Def. 3: a subtree is one unit of ownership — every node of each
    // re-homed subtree landed on the same survivor.
    let placement = cluster.placement_snapshot();
    for &root in &orphaned {
        let owners: std::collections::BTreeSet<_> = tree
            .descendants(root)
            .map(|id| placement.assignment(id).owner())
            .collect();
        assert_eq!(
            owners.len(),
            1,
            "subtree {} was scattered over {owners:?}",
            root.index()
        );
        assert!(!owners.contains(&Some(victim)) && !owners.contains(&None));
    }
    let report = cluster.shutdown();
    let mut claims: BTreeMap<u64, usize> = BTreeMap::new();
    for e in &report.journal {
        if let EventKind::SubtreeClaimed { subtree, .. } = e.kind {
            *claims.entry(subtree).or_insert(0) += 1;
        }
    }
    for &root in &orphaned {
        assert_eq!(
            claims.get(&(root.index() as u64)),
            Some(&1),
            "subtree {} must be claimed exactly once",
            root.index()
        );
    }
}

#[test]
fn report_counts_redirects_when_placement_changes_under_clients() {
    let (_tree, cluster, trace) = start(4, 24);
    let mut client = cluster.client(5);
    for op in trace.iter().take(500) {
        let _ = client.execute(*op);
    }
    let report = cluster.shutdown();
    // Redirects are possible but bounded; served counts must cover all ok
    // responses.
    assert!(report.served.iter().sum::<u64>() >= 500 - report.redirects);
}
