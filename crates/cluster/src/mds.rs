//! Building blocks of the one serving core, [`crate::net::NetMds`],
//! which runs behind a TCP socket and behind a
//! [`LiveCluster`](crate::live::LiveCluster)'s channels alike: decide
//! whose request this is, open its `serve` span, and bring its durable
//! store back up.

use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::sync::Arc;

use d2tree_core::LocalIndex;
use d2tree_metrics::{Assignment, MdsId, Placement};
use d2tree_namespace::{AttrTable, FileAttr, NamespaceTree, NodeId, VersionedAttr};
use d2tree_store::{AttrState, MdsRecord, MdsStore, RecoveryInfo, StoreConfig};
use d2tree_telemetry::trace::{span_names, ArgKey, Span, SpanCtx, SpanId, TraceId, Tracer};
use d2tree_telemetry::Registry;

use crate::message::Request;

/// What a request for some target asks of the MDS that received it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Duty {
    /// A global-layer node: every MDS holds it and serves it.
    Replicated,
    /// A local-layer node this MDS owns.
    Mine,
    /// A local-layer node of another MDS: redirect there.
    Other(MdsId),
    /// No such node (never created, removed, or out of range — a
    /// foreign client built from another workload derivation must not
    /// crash the server), or no assignment for it: not found.
    Unknown,
}

/// The routing decision of the server side of Sec. IV-A2.
#[inline]
pub(crate) fn duty(tree: &NamespaceTree, placement: &Placement, me: MdsId, target: NodeId) -> Duty {
    if !tree.contains(target) {
        return Duty::Unknown;
    }
    match placement.assignment(target) {
        Assignment::Replicated => Duty::Replicated,
        Assignment::Single(owner) if owner == me => Duty::Mine,
        Assignment::Single(owner) => Duty::Other(owner),
        Assignment::Unassigned => Duty::Unknown,
    }
}

/// The `serve` span of a sampled request, open: its id is allocated
/// before the request is served so that spans of the work done for it
/// can parent on it, and it is recorded when the response is ready.
#[derive(Clone, Copy)]
pub(crate) struct ServeSpan<'t> {
    pub(crate) tracer: &'t Tracer,
    /// The context off the wire, which this span parents on.
    pub(crate) ctx: SpanCtx,
    pub(crate) id: SpanId,
    start: u64,
}

impl<'t> ServeSpan<'t> {
    /// Opens the span if there is a tracer and `req` carries a context.
    #[inline]
    pub(crate) fn open(tracer: Option<&'t Tracer>, req: &Request) -> Option<Self> {
        let (tracer, (trace, span)) = tracer.zip(req.trace)?;
        Some(ServeSpan {
            tracer,
            ctx: SpanCtx {
                trace: TraceId(trace),
                span: SpanId(span),
            },
            id: tracer.next_span(TraceId(trace)),
            start: tracer.now_us(),
        })
    }

    /// The span as it ends now on MDS `me`; the caller adds the body
    /// code or the fault that ended it, and records it.
    #[inline]
    pub(crate) fn close(self, me: MdsId, target: NodeId) -> Span {
        let dur = self.tracer.now_us().saturating_sub(self.start);
        Span::child(self.ctx, self.id, span_names::SERVE, self.start, dur)
            .on_mds(me.0)
            .with_arg(ArgKey::Target, target.index() as u64)
    }
}

/// The journaled form of a versioned attribute record.
pub(crate) fn attr_state(v: VersionedAttr) -> AttrState {
    AttrState {
        version: v.version,
        mode: v.attr.mode,
        uid: v.attr.uid,
        gid: v.attr.gid,
        size: v.attr.size,
        mtime: v.attr.mtime,
    }
}

/// The in-memory form of a journaled attribute record.
fn versioned_attr(a: &AttrState) -> VersionedAttr {
    VersionedAttr {
        attr: FileAttr {
            mode: a.mode,
            uid: a.uid,
            gid: a.gid,
            size: a.size,
            mtime: a.mtime,
        },
        version: a.version,
    }
}

/// One MDS's durable state, back up: the open store and what it says
/// the MDS knew when it last ran.
pub(crate) struct Recovered {
    pub(crate) store: MdsStore,
    pub(crate) info: RecoveryInfo,
    /// Attributes at their journaled versions, defaults elsewhere.
    pub(crate) attrs: AttrTable,
    /// Journaled served-op counts (`f64` bits) per subtree root.
    pub(crate) popularity: HashMap<NodeId, u64>,
}

/// Opens MDS `me`'s store at `<root>/mds-<me>` — snapshot plus WAL
/// replay, a torn final record truncated — and converges its journaled
/// ownership on `index`: every root the journal has and the index does
/// not give to `me` is shed; with `acquire` (a daemon or cluster
/// starting from a seeded index) every root the index does give it is
/// then journaled as acquired, without it (an MDS rejoining a running
/// cluster, which is handed subtrees by the Monitor afterwards) none
/// is. The records are durable on return.
///
/// # Panics
///
/// Panics if the store cannot be opened, recovered or written — an MDS
/// must not serve from state it cannot trust.
#[allow(clippy::too_many_arguments)]
pub(crate) fn open_and_recover(
    root: &Path,
    config: StoreConfig,
    me: MdsId,
    registry: &Arc<Registry>,
    tracer: Option<&Arc<Tracer>>,
    tree: &NamespaceTree,
    index: &LocalIndex,
    acquire: bool,
) -> Recovered {
    let dir = root.join(format!("mds-{}", me.0));
    let (store, info) = MdsStore::open(&dir, config).expect("store open failed");
    let mut store = store.with_registry(registry, me.0);
    if let Some(tr) = tracer {
        store = store.with_tracer(Arc::clone(tr), me.0);
    }
    let mut attrs = AttrTable::new(tree);
    for (&node, a) in &store.state().attrs {
        attrs.apply_if_newer(NodeId::from_index(node as usize), versioned_attr(a));
    }
    let popularity = store
        .state()
        .popularity
        .iter()
        .map(|(&r, &bits)| (NodeId::from_index(r as usize), bits))
        .collect();
    let seeded: BTreeSet<u64> = index
        .iter()
        .filter(|&(_, owner)| owner == me)
        .map(|(subtree_root, _)| subtree_root.index() as u64)
        .collect();
    let stale: Vec<u64> = store.state().owned.difference(&seeded).copied().collect();
    let shed = stale.into_iter().map(|root| (root, false));
    let acquired = seeded
        .into_iter()
        .filter(|_| acquire)
        .map(|root| (root, true));
    for (root, acquired) in shed.chain(acquired) {
        store
            .append(MdsRecord::Ownership { root, acquired })
            .expect("WAL append failed");
    }
    store.sync().expect("WAL sync failed");
    Recovered {
        store,
        info,
        attrs,
        popularity,
    }
}
