//! Consistency checking for partitioned namespaces — an `fsck` for
//! placements.
//!
//! Every invariant the scheme machinery promises is re-checked from
//! scratch here, so tests (and operators, through the CLI) can verify a
//! cluster state without trusting the code that produced it.

use std::fmt;

use d2tree_metrics::{Assignment, MdsId, Placement};
use d2tree_namespace::{NamespaceTree, NodeId};

use crate::index::LocalIndex;
use crate::split::GlobalLayer;

/// A violated invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Violation {
    /// A node has no assignment (Eq. 4 broken).
    Unassigned(NodeId),
    /// A [`Assignment::Single`] owner is outside the cluster.
    OwnerOutOfRange {
        /// The misplaced node.
        node: NodeId,
        /// Its out-of-range owner.
        owner: MdsId,
    },
    /// A global-layer node's parent is not in the layer (closure broken).
    LayerNotClosed {
        /// The layer member whose parent escaped.
        node: NodeId,
    },
    /// A global-layer node is not replicated in the placement.
    LayerNotReplicated(NodeId),
    /// A replicated node is not in the global layer.
    ReplicatedOutsideLayer(NodeId),
    /// A local-layer subtree is split across servers.
    SubtreeSplit {
        /// The subtree root.
        root: NodeId,
        /// A descendant with a different owner.
        stray: NodeId,
    },
    /// The local index disagrees with the placement about an owner.
    IndexMismatch {
        /// The indexed subtree root.
        root: NodeId,
        /// Owner according to the index.
        index_owner: MdsId,
        /// Owner according to the placement (`None` = replicated or
        /// unassigned).
        placement_owner: Option<MdsId>,
    },
    /// A subtree root below the cut is missing from the local index.
    IndexMissing(NodeId),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Unassigned(n) => write!(f, "node {n} is unassigned"),
            Violation::OwnerOutOfRange { node, owner } => {
                write!(f, "node {node} owned by out-of-range {owner}")
            }
            Violation::LayerNotClosed { node } => {
                write!(f, "global-layer node {node} has a parent outside the layer")
            }
            Violation::LayerNotReplicated(n) => {
                write!(f, "global-layer node {n} is not replicated")
            }
            Violation::ReplicatedOutsideLayer(n) => {
                write!(f, "node {n} replicated but outside the global layer")
            }
            Violation::SubtreeSplit { root, stray } => {
                write!(
                    f,
                    "subtree {root} split: descendant {stray} lives elsewhere"
                )
            }
            Violation::IndexMismatch {
                root,
                index_owner,
                placement_owner,
            } => write!(
                f,
                "index says {root} -> {index_owner}, placement says {placement_owner:?}"
            ),
            Violation::IndexMissing(n) => write!(f, "subtree root {n} missing from the index"),
        }
    }
}

/// Checks placement-only invariants: completeness (Eq. 4) and owner
/// ranges. Applies to every scheme.
#[must_use]
pub fn check_placement(tree: &NamespaceTree, placement: &Placement) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (id, _) in tree.nodes() {
        match placement.assignment(id) {
            Assignment::Unassigned => violations.push(Violation::Unassigned(id)),
            Assignment::Single(owner) if owner.index() >= placement.cluster_size() => {
                violations.push(Violation::OwnerOutOfRange { node: id, owner });
            }
            _ => {}
        }
    }
    violations
}

/// Checks the full D2-Tree state: placement invariants plus layer
/// closure, layer/replication agreement, subtree intactness and
/// index/placement agreement.
#[must_use]
pub fn check_d2tree(
    tree: &NamespaceTree,
    placement: &Placement,
    layer: &GlobalLayer,
    index: &LocalIndex,
) -> Vec<Violation> {
    let mut violations = check_placement(tree, placement);

    for &id in layer.members() {
        if let Some(parent) = tree.node(id).and_then(|n| n.parent()) {
            if !layer.contains(parent) {
                violations.push(Violation::LayerNotClosed { node: id });
            }
        }
        if !placement.assignment(id).is_replicated() {
            violations.push(Violation::LayerNotReplicated(id));
        }
    }
    for (id, _) in tree.nodes() {
        if placement.assignment(id).is_replicated() && !layer.contains(id) {
            violations.push(Violation::ReplicatedOutsideLayer(id));
        }
    }

    for root in layer.subtree_roots(tree) {
        let owner = placement.assignment(root).owner();
        // Intactness: every descendant shares the root's owner.
        if let Some(owner) = owner {
            for stray in tree
                .descendants(root)
                .filter(|&d| placement.assignment(d).owner() != Some(owner))
            {
                violations.push(Violation::SubtreeSplit { root, stray });
            }
        }
        // Index agreement.
        match index.owner_of(root) {
            None => violations.push(Violation::IndexMissing(root)),
            Some(index_owner) if Some(index_owner) != owner => {
                violations.push(Violation::IndexMismatch {
                    root,
                    index_owner,
                    placement_owner: owner,
                });
            }
            Some(_) => {}
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{D2TreeConfig, D2TreeScheme, Partitioner};
    use d2tree_metrics::ClusterSpec;
    use d2tree_workload::{TraceProfile, WorkloadBuilder};

    fn built() -> (d2tree_workload::Workload, D2TreeScheme) {
        let w = WorkloadBuilder::new(
            TraceProfile::dtr()
                .with_nodes(1_500)
                .with_operations(15_000),
        )
        .seed(44)
        .build();
        let pop = w.popularity();
        let mut scheme = D2TreeScheme::new(D2TreeConfig::paper_default());
        scheme.build(&w.tree, &pop, &ClusterSpec::homogeneous(4, 1.0));
        (w, scheme)
    }

    #[test]
    fn a_built_scheme_passes_all_checks() {
        let (w, scheme) = built();
        let violations = check_d2tree(
            &w.tree,
            scheme.placement(),
            scheme.global_layer(),
            scheme.local_index(),
        );
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn rebalanced_scheme_still_passes() {
        let (w, mut scheme) = built();
        let mut pop = w.popularity();
        let hot = w.tree.nodes().map(|(id, _)| id).nth(700).unwrap();
        pop.record(hot, 100_000.0);
        pop.rollup(&w.tree);
        let _ = scheme.rebalance(&w.tree, &pop, &ClusterSpec::homogeneous(4, 1.0));
        let violations = check_d2tree(
            &w.tree,
            scheme.placement(),
            scheme.global_layer(),
            scheme.local_index(),
        );
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn checker_catches_planted_faults() {
        let (w, scheme) = built();
        // Fault 1: split a subtree.
        let mut broken = scheme.placement().clone();
        let (victim_root, other_owner) = {
            let (root, owner) = scheme
                .subtrees()
                .map(|(s, o)| (s.root, o))
                .find(|(r, _)| w.tree.subtree_size(*r) > 1)
                .expect("a multi-node subtree exists");
            (root, MdsId((owner.index() as u16 + 1) % 4))
        };
        let stray = w.tree.descendants(victim_root).nth(1).unwrap();
        broken.set(stray, Assignment::Single(other_owner));
        let violations = check_d2tree(
            &w.tree,
            &broken,
            scheme.global_layer(),
            scheme.local_index(),
        );
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::SubtreeSplit { .. })),
            "{violations:?}"
        );

        // Fault 2: de-replicate a layer node.
        let mut broken = scheme.placement().clone();
        let gl_node = scheme.global_layer().members()[0];
        broken.set(gl_node, Assignment::Single(MdsId(0)));
        let violations = check_d2tree(
            &w.tree,
            &broken,
            scheme.global_layer(),
            scheme.local_index(),
        );
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::LayerNotReplicated(_))));

        // Fault 3: stale index entry.
        let mut stale_index = scheme.local_index().clone();
        let (root, owner) = scheme.subtrees().map(|(s, o)| (s.root, o)).next().unwrap();
        stale_index.insert(root, MdsId((owner.index() as u16 + 1) % 4));
        let violations = check_d2tree(
            &w.tree,
            scheme.placement(),
            scheme.global_layer(),
            &stale_index,
        );
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::IndexMismatch { .. })));
    }

    #[test]
    fn unassigned_nodes_are_reported() {
        let (w, scheme) = built();
        let fresh = Placement::new(&w.tree, 4);
        let violations = check_placement(&w.tree, &fresh);
        assert_eq!(violations.len(), w.tree.node_count());
        assert!(!violations[0].to_string().is_empty());
        let _ = scheme;
    }
}
