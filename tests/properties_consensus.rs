//! Property test of the control plane's lease table.
//!
//! [`ControlState`] is the one holder of the lease table and its fence
//! counter, and `ControlState::apply_command` its one apply path — the
//! live runtime's `LockService` and the chaos engine both go through
//! it. The property drives it directly.

mod support;

use d2tree::cluster::{Applied, Command, ControlState};
use rand::{Rng, RngCore};
use support::cases;

/// The one lease table, driven directly: over any interleaving of
/// acquires, writes and releases by 3 holders on 2 nodes under a
/// non-decreasing clock, fences strictly increase across all
/// grants, at most one fence per node is valid at any instant, and
/// a write lands exactly when `validate` says its fence is live.
#[test]
fn lease_table_grants_fence_and_validate_agree() {
    cases("lease_table_grants_fence_and_validate_agree", 64, |rng| {
        let words: Vec<u64> = (0..rng.gen_range(1..200)).map(|_| rng.next_u64()).collect();
        const LEASE_MS: u64 = 50;
        let mut state = ControlState::new(LEASE_MS);
        let mut now = 0u64;
        let mut last_fence = 0u64;
        // Every token ever granted, stale ones included: (node, fence).
        let mut tokens: Vec<(u64, u64)> = Vec::new();
        for w in words {
            now += (w >> 8) % 40; // may stand still, never runs back
            let node = (w >> 16) % 2;
            let holder = ((w >> 24) % 3) as u16;
            let pick = (w >> 32) as usize;
            match w % 3 {
                0 => {
                    let cmd = Command::LeaseAcquire {
                        node,
                        holder,
                        now_ms: now,
                    };
                    if let Applied::Granted { fence, .. } = state.apply_command(cmd, None) {
                        assert!(fence > last_fence, "fence {fence} after {last_fence}");
                        last_fence = fence;
                        tokens.push((node, fence));
                    }
                }
                1 if !tokens.is_empty() => {
                    let (node, fence) = tokens[pick % tokens.len()];
                    let live = state.validate(node, fence, now);
                    let before = state.gl_version(node);
                    let out = state.apply_command(
                        Command::GlWrite {
                            node,
                            fence,
                            now_ms: now,
                        },
                        None,
                    );
                    if live {
                        assert_eq!(
                            out,
                            Applied::GlWritten {
                                node,
                                version: before + 1
                            }
                        );
                    } else {
                        assert_eq!(out, Applied::Rejected { node, fence });
                        assert_eq!(state.gl_version(node), before);
                    }
                }
                2 if !tokens.is_empty() => {
                    let (node, fence) = tokens[pick % tokens.len()];
                    let _ = state.apply_command(Command::LeaseRelease { node, fence }, None);
                    assert!(
                        !state.validate(node, fence, now),
                        "released fence still valid"
                    );
                }
                _ => {}
            }
            for n in 0..2u64 {
                let valid = tokens
                    .iter()
                    .filter(|&&(tn, f)| tn == n && state.validate(n, f, now))
                    .count();
                assert!(
                    valid <= 1,
                    "{} fences valid on node {} at t={}",
                    valid,
                    n,
                    now
                );
            }
        }
        assert_eq!(state.max_fence(), last_fence);
    });
}
