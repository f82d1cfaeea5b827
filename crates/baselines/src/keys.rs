//! Shared key-space machinery for the hash-flavoured baselines.
//!
//! * [`fnv1a`] — a stable pathname hash (FNV-1a), so placements are
//!   reproducible across platforms and Rust releases (unlike
//!   `DefaultHasher`).
//! * [`locality_keys`] — locality-preserving interval keys: every node
//!   receives a point in `[0, 1)` such that a subtree occupies a
//!   contiguous interval. This is the projection both DROP and AngleCut
//!   build on.

use d2tree_namespace::{NamespaceTree, NodeId};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a hash of a byte string — stable across platforms and releases.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Continues a raw (unfinalised) FNV-1a state over more bytes:
/// `fnv1a_extend(fnv1a(a), b) == fnv1a(a ++ b)`, so a tree walk can hash
/// every pathname by extending its parent's state with one component.
pub(crate) fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Stable bucketing hash: FNV-1a followed by a splitmix64-style finaliser.
///
/// Raw FNV-1a must not be reduced `mod M`: its low bits never feel the high
/// bits (multiplication only carries upwards), so two paths that collide in
/// the low bits keep colliding for **every** common suffix appended to
/// them — a whole renamed subtree would appear to "not move". The
/// finaliser folds the high bits down before any modulo.
#[must_use]
pub fn stable_hash(bytes: &[u8]) -> u64 {
    finalise(fnv1a(bytes))
}

/// [`stable_hash`]'s finaliser, for callers holding a raw FNV-1a state.
pub(crate) fn finalise(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h
}

/// Assigns every node a key in `[0, 1)` by recursive interval
/// subdivision: the root owns `[0, 1)`, each child receives a subinterval
/// proportional to its subtree size, and a node's key is the start of its
/// interval.
///
/// Properties the baselines rely on:
/// * a subtree's keys form a contiguous range (locality preservation);
/// * key order refines DFS order, so contiguous key ranges are unions of
///   subtrees;
/// * sibling intervals are size-proportional, so keys are roughly uniform
///   over nodes.
///
/// Returns a dense table indexed by [`NodeId::index`].
#[must_use]
pub fn locality_keys(tree: &NamespaceTree) -> Vec<f64> {
    // A child's id is greater than its parent's, so a backward sweep
    // over the arena sees every child before its parent and a forward
    // sweep every parent before its children.
    let mut size = vec![1usize; tree.arena_size()];
    for id in (1..size.len()).rev().map(NodeId::from_index) {
        let parent = tree
            .parent_of(id)
            .expect("every node but the root has a parent");
        size[parent.index()] += size[id.index()];
    }

    // `keys[id]` is the start of a node's interval and `ends[id]` its end,
    // both written when the node's parent is subdivided.
    let mut keys = vec![f64::NAN; tree.arena_size()];
    let mut ends = vec![f64::NAN; tree.arena_size()];
    keys[tree.root().index()] = 0.0;
    ends[tree.root().index()] = 1.0;
    for (id, node) in tree.nodes() {
        if node.child_count() == 0 {
            continue;
        }
        let (start, end) = (keys[id.index()], ends[id.index()]);
        let total: f64 = node.children().map(|(_, c)| size[c.index()] as f64).sum();
        // The parent keeps an epsilon-slot at `start`; children share the
        // rest of the interval proportionally.
        let span = end - start;
        let lead = span * 1e-9; // parent's own point
        let mut cursor = start + lead;
        for (_, c) in node.children() {
            let width = (span - lead) * size[c.index()] as f64 / total;
            keys[c.index()] = cursor;
            ends[c.index()] = cursor + width;
            cursor += width;
        }
    }
    keys
}

/// Finds the owner of `key` among sorted range `boundaries`, where server
/// `k` owns `[boundaries[k-1], boundaries[k])` and `boundaries[M-1]` is the
/// end of the key space.
#[must_use]
pub fn range_owner(boundaries: &[f64], key: f64) -> usize {
    boundaries
        .partition_point(|&b| b <= key)
        .min(boundaries.len() - 1)
}

/// Weighted-quantile boundaries: splits `(key, weight)` points into
/// `buckets` contiguous ranges whose weights match `capacity_shares`.
///
/// This is the histogram-equalisation step of DROP's HDLB and AngleCut's
/// per-ring tuning.
///
/// # Panics
///
/// Panics if `capacity_shares` is empty.
#[must_use]
pub fn weighted_boundaries(points: &mut [(f64, f64)], capacity_shares: &[f64]) -> Vec<f64> {
    assert!(!capacity_shares.is_empty(), "need at least one bucket");
    points.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total_w: f64 = points.iter().map(|p| p.1).sum();
    let total_c: f64 = capacity_shares.iter().sum();
    let mut boundaries = Vec::with_capacity(capacity_shares.len());
    let mut target = 0.0;
    let mut acc = 0.0;
    let mut idx = 0usize;
    for (b, &c) in capacity_shares.iter().enumerate() {
        if b + 1 == capacity_shares.len() {
            boundaries.push(f64::INFINITY);
            break;
        }
        target += if total_c > 0.0 {
            total_w * c / total_c
        } else {
            0.0
        };
        while idx < points.len() && acc + points[idx].1 <= target {
            acc += points[idx].1;
            idx += 1;
        }
        let boundary = if idx < points.len() {
            points[idx].0
        } else {
            f64::INFINITY
        };
        boundaries.push(boundary);
    }
    boundaries
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2tree_namespace::NodeKind;

    fn sample_tree() -> NamespaceTree {
        let mut tree = NamespaceTree::new();
        for path in ["/a/x", "/a/y", "/a/z", "/b/p/q", "/c"] {
            tree.create_path(&path.parse().unwrap(), NodeKind::File)
                .unwrap();
        }
        tree
    }

    #[test]
    fn fnv_is_stable_and_spreads() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"/a/b"), fnv1a(b"/a/c"));
        assert_eq!(fnv1a(b"/same"), fnv1a(b"/same"));
    }

    #[test]
    fn fnv_extends_incrementally() {
        assert_eq!(fnv1a_extend(fnv1a(b"/a"), b"/bc"), fnv1a(b"/a/bc"));
        assert_eq!(finalise(fnv1a(b"/a/bc")), stable_hash(b"/a/bc"));
    }

    #[test]
    fn keys_are_subtree_contiguous() {
        let t = sample_tree();
        let keys = locality_keys(&t);
        let a = t.resolve_str("/a").unwrap();
        // Every node in /a's subtree has a key within /a's interval, and
        // every node outside has a key outside it.
        let a_keys: Vec<f64> = t.descendants(a).map(|id| keys[id.index()]).collect();
        let lo = a_keys.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = a_keys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for (id, _) in t.nodes() {
            let inside = keys[id.index()] >= lo && keys[id.index()] <= hi;
            assert_eq!(inside, t.chain_up(id).any(|x| x == a), "node {id}");
        }
    }

    #[test]
    fn keys_follow_ancestry_ordering() {
        let t = sample_tree();
        let keys = locality_keys(&t);
        let q = t.resolve_str("/b/p/q").unwrap();
        // Each ancestor's key is <= the node's key (interval nesting).
        let mut prev = keys[q.index()];
        for anc in t.ancestors(q) {
            assert!(keys[anc.index()] <= prev);
            prev = keys[anc.index()];
        }
    }

    #[test]
    fn range_owner_respects_boundaries() {
        let b = vec![0.25, 0.5, 1.0];
        assert_eq!(range_owner(&b, 0.1), 0);
        assert_eq!(range_owner(&b, 0.25), 1);
        assert_eq!(range_owner(&b, 0.49), 1);
        assert_eq!(range_owner(&b, 0.99), 2);
        assert_eq!(range_owner(&b, 5.0), 2, "clamped to the last range");
    }

    #[test]
    fn weighted_boundaries_equalise_mass() {
        let mut points: Vec<(f64, f64)> = (0..100).map(|i| (i as f64 / 100.0, 1.0)).collect();
        let b = weighted_boundaries(&mut points, &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(b.len(), 4);
        let mut counts = [0usize; 4];
        for (k, _) in &points {
            counts[range_owner(&b, *k)] += 1;
        }
        for c in counts {
            assert!((c as i64 - 25).abs() <= 1, "uneven bucket: {counts:?}");
        }
    }

    #[test]
    fn weighted_boundaries_follow_capacity_shares() {
        let mut points: Vec<(f64, f64)> = (0..100).map(|i| (i as f64 / 100.0, 1.0)).collect();
        let b = weighted_boundaries(&mut points, &[3.0, 1.0]);
        let mut counts = [0usize; 2];
        for (k, _) in &points {
            counts[range_owner(&b, *k)] += 1;
        }
        assert!(counts[0] >= 70 && counts[0] <= 80, "counts: {counts:?}");
    }
}
