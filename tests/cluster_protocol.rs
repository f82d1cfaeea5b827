//! Protocol-level robustness: the wire codec never panics on arbitrary
//! bytes, round-trips arbitrary valid frames, and the lock service holds
//! mutual exclusion under thread stress.

use bytes_fuzz::*;

mod bytes_fuzz {
    pub use d2tree::cluster::message::{Request, RequestId, Response, ResponseBody};
    pub use d2tree::metrics::MdsId;
    pub use d2tree::namespace::NodeId;
    pub use d2tree::workload::OpKind;
    pub use proptest::prelude::*;
}

proptest! {
    #[test]
    fn request_decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut frame = bytes::Bytes::from(bytes);
        let _ = Request::decode(&mut frame); // must not panic
    }

    #[test]
    fn response_decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut frame = bytes::Bytes::from(bytes);
        let _ = Response::decode(&mut frame);
    }

    #[test]
    fn arbitrary_requests_roundtrip(
        id in any::<u64>(),
        target in 0u32..u32::MAX,
        kind in 0u8..3,
        hops in any::<u32>(),
        traced in any::<bool>(),
        trace_id in any::<u64>(),
        parent_span in any::<u64>(),
    ) {
        let trace = traced.then_some((trace_id, parent_span));
        let kind = match kind {
            0 => OpKind::Read,
            1 => OpKind::Write,
            _ => OpKind::Update,
        };
        let req = Request {
            id: RequestId(id),
            kind,
            target: NodeId::from_index(target as usize),
            hops,
            trace,
        };
        let mut framed = req.encode();
        prop_assert_eq!(Request::decode(&mut framed), Some(req));
        prop_assert!(framed.is_empty());
    }

    #[test]
    fn arbitrary_responses_roundtrip(id in any::<u64>(), from in 0u16..1024, body_kind in 0u8..3, node in 0u32..u32::MAX, owner in 0u16..1024, hops in any::<u32>()) {
        let body = match body_kind {
            0 => ResponseBody::Served { node: NodeId::from_index(node as usize) },
            1 => ResponseBody::Redirect { owner: MdsId(owner) },
            _ => ResponseBody::NotFound,
        };
        let resp = Response { id: RequestId(id), from: MdsId(from), body, hops };
        let mut framed = resp.encode();
        prop_assert_eq!(Response::decode(&mut framed), Some(resp));
    }
}

#[test]
fn lock_service_mutual_exclusion_under_stress() {
    use d2tree::cluster::LockService;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let locks = Arc::new(LockService::new(10_000));
    let counter = Arc::new(AtomicU64::new(0));
    let max_seen = Arc::new(AtomicU64::new(0));
    let node = d2tree::namespace::NodeId::from_index(5);

    let mut handles = Vec::new();
    for _ in 0..8 {
        let locks = Arc::clone(&locks);
        let counter = Arc::clone(&counter);
        let max_seen = Arc::clone(&max_seen);
        handles.push(std::thread::spawn(move || {
            for _ in 0..500 {
                let token = loop {
                    if let Some(t) = locks.try_acquire(node, 0) {
                        break t;
                    }
                    std::thread::yield_now();
                };
                // Critical section: concurrent holders would drive the
                // in-section count above 1.
                let inside = counter.fetch_add(1, Ordering::SeqCst) + 1;
                max_seen.fetch_max(inside, Ordering::SeqCst);
                counter.fetch_sub(1, Ordering::SeqCst);
                assert!(locks.release(token));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        max_seen.load(Ordering::SeqCst),
        1,
        "two threads held the lock at once"
    );
    assert!(
        locks.try_acquire(node, 0).is_some(),
        "every holder released: the lock is free again"
    );
}

#[test]
fn fencing_tokens_strictly_increase_across_threads() {
    use d2tree::cluster::LockService;
    use std::sync::Arc;

    let locks = Arc::new(LockService::new(10_000));
    let node = d2tree::namespace::NodeId::from_index(9);
    let mut handles = Vec::new();
    for _ in 0..4 {
        let locks = Arc::clone(&locks);
        handles.push(std::thread::spawn(move || {
            let mut fences = Vec::new();
            for _ in 0..200 {
                let token = loop {
                    if let Some(t) = locks.try_acquire(node, 0) {
                        break t;
                    }
                    std::thread::yield_now();
                };
                fences.push(token.fence);
                assert!(locks.release(token));
            }
            fences
        }));
    }
    let mut all: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    let before = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), before, "fencing tokens must never repeat");
}
