//! Protocol-level robustness: the served slice codec never panics on
//! arbitrary frame bodies and accepts only the frames it writes,
//! round-trips arbitrary valid frames, and the lock service holds
//! mutual exclusion under thread stress.

mod support;

use d2tree::cluster::message::{
    Request, RequestId, Response, ResponseBody, REQUEST_FRAME_BYTES, RESPONSE_FRAME_BYTES,
};
use d2tree::metrics::MdsId;
use d2tree::namespace::NodeId;
use d2tree::workload::OpKind;
use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use support::cases;

/// An `N`-byte frame: a correct length prefix, then a random body whose
/// bytes at `small` (kind, tag or trace flag) come from `0..4`, so each
/// takes every valid value and one invalid one.
fn garbage<const N: usize>(rng: &mut StdRng, small: &[usize]) -> [u8; N] {
    let mut frame = [0u8; N];
    frame[..4].copy_from_slice(&(N as u32 - 4).to_be_bytes());
    rng.fill_bytes(&mut frame[4..]);
    for &at in small {
        frame[at] = rng.gen_range(0..4);
    }
    frame
}

/// Decoding never panics, and a frame it accepts is the one the decoded
/// value encodes to: no two frames carry the same request.
#[test]
fn request_decode_never_panics_on_garbage() {
    cases("request_decode_never_panics_on_garbage", 32, |rng| {
        let frame: [u8; REQUEST_FRAME_BYTES] = garbage(rng, &[12, 21]);
        if let Some(req) = Request::decode_frame(&frame) {
            let mut again = Vec::new();
            req.encode_into(&mut again);
            assert_eq!(again, frame, "{req:?} decoded from another frame");
        }
    });
}

#[test]
fn response_decode_never_panics_on_garbage() {
    cases("response_decode_never_panics_on_garbage", 32, |rng| {
        let frame: [u8; RESPONSE_FRAME_BYTES] = garbage(rng, &[14]);
        if let Some(resp) = Response::decode_frame(&frame) {
            let mut again = Vec::new();
            resp.encode_into(&mut again);
            assert_eq!(again, frame, "{resp:?} decoded from another frame");
        }
    });
}

#[test]
fn arbitrary_requests_roundtrip() {
    cases("arbitrary_requests_roundtrip", 32, |rng| {
        let req = Request {
            id: RequestId(rng.next_u64()),
            kind: [OpKind::Read, OpKind::Write, OpKind::Update][rng.gen_range(0..3)],
            target: NodeId::from_index(rng.gen_range(0..u32::MAX) as usize),
            hops: rng.next_u64() as u32,
            trace: rng.gen_bool(0.5).then(|| (rng.next_u64(), rng.next_u64())),
        };
        let mut framed = Vec::new();
        req.encode_into(&mut framed);
        assert_eq!(framed.len(), REQUEST_FRAME_BYTES);
        assert_eq!(Request::decode_frame(&framed), Some(req));
    });
}

#[test]
fn arbitrary_responses_roundtrip() {
    cases("arbitrary_responses_roundtrip", 32, |rng| {
        let (id, from) = (RequestId(rng.next_u64()), MdsId(rng.gen_range(0..1024)));
        let body = match rng.gen_range(0..3) {
            0 => ResponseBody::Served {
                node: NodeId::from_index(rng.gen_range(0..u32::MAX) as usize),
            },
            1 => ResponseBody::Redirect {
                owner: MdsId(rng.gen_range(0..1024)),
            },
            _ => ResponseBody::NotFound,
        };
        let hops = rng.next_u64() as u32;
        let resp = Response {
            id,
            from,
            body,
            hops,
        };
        let mut framed = Vec::new();
        resp.encode_into(&mut framed);
        assert_eq!(framed.len(), RESPONSE_FRAME_BYTES);
        assert_eq!(Response::decode_frame(&framed), Some(resp));
    });
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
