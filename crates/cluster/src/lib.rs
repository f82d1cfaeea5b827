//! MDS-cluster substrate for the D2-Tree reproduction.
//!
//! The paper evaluates on 33 EC2 instances (1 Monitor + 32 MDSs, 100 Mbps
//! links). This crate supplies three runtimes in their place:
//!
//! * [`sim`] — a deterministic discrete-event simulator modelling the
//!   pieces throughput actually depends on: per-MDS service queues with a
//!   fixed worker count, per-hop network latency, and the Zookeeper-style
//!   lock serialisation of global-layer updates. Fig. 5 is regenerated on
//!   top of it.
//! * [`live`] — a real multi-threaded cluster in one process (one OS
//!   thread per MDS, each serving through its own [`NetMds`], crossbeam
//!   channels carrying the wire codec's frames as the network, a Monitor
//!   thread) used by the integration tests and examples to exercise true
//!   concurrency, heartbeats and fail-over.
//! * [`net`] — the same wire codec on real TCP sockets: one MDS per
//!   daemon ([`NetMds`] behind a [`NetServer`]), a blocking client and the
//!   multi-connection load generator [`run_load`]; [`admin`] is its live
//!   HTTP admin plane (`/metrics`, `/health`, `/trace`, `/slow`).
//!
//! Shared building blocks: [`message`] (the wire protocol), [`client`]
//! (the client half of the access protocol: the local-index cache and the
//! sans-I/O request machine — route, follow the redirect, back off, give
//! up — that the `live` client and the `net` load workers both drive),
//! [`lock`] (the lease-based lock service of Sec. IV-A3, a thread-safe
//! view of the control state) and [`monitor`] (heartbeat clocks, failure
//! verdicts, the pending pool and the fail-over and rejoin planners).
//! Membership, leases and their fence counter, committed GL versions and
//! subtree ownership are held once, by [`consensus::ControlState`];
//! everything else proposes `Command`s to it. An MDS is one thing behind
//! either transport: [`NetMds`] answers every request of a TCP daemon and
//! of a `live` server thread alike, and a private module beside it
//! decides whose request it is, opens its `serve` span and recovers its
//! durable store.
//!
//! Robustness layers: [`fault`] (deterministic seeded fault injection
//! over client↔MDS, MDS↔Monitor and MDS↔lock edges, consulted by the
//! simulator and the channel transport), [`chaos`] (a virtual-time chaos
//! engine that replays seeded kill/partition/restart schedules against
//! the control plane at one or three Monitor replicas and machine-checks
//! ownership, GL-convergence, election and fencing invariants) and
//! [`consensus`] (the control plane itself: the `ControlState` machine,
//! and Raft-style leader election and log replication across Monitor
//! replicas that apply it only through committed, WAL-persisted log
//! entries).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admin;
pub mod chaos;
pub mod client;
pub mod consensus;
pub mod fault;
pub mod live;
pub mod lock;
mod mds;
pub mod message;
pub mod monitor;
pub mod net;
pub mod sim;
pub mod trace_analysis;

pub use admin::{admin_get, AdminConfig, AdminServer, AdminStats};
pub use chaos::{
    run_chaos, run_store_chaos, ChaosConfig, ChaosReport, StoreChaosConfig, StoreChaosReport,
};
pub use client::{CacheStats, ClientCache, RetryPolicy};
pub use consensus::{
    Applied, Command, ConsensusCluster, ConsensusConfig, ConsensusTiming, ControlState, Entry,
    LeaderClient, LeaseState, PeerMsg, Replica, Role, SubmitOutcome,
};
pub use fault::{
    FaultAction, FaultDecision, FaultInjector, FaultPlan, FaultRule, FaultScope, NetEdge,
    StorageFault, StorageFaultRule,
};
pub use lock::{LockService, LockToken};
pub use message::{Request, RequestId, Response, ResponseBody};
pub use monitor::{ClusterEvent, Monitor, MonitorConfig};
pub use net::{
    run_load, FrameBuf, FrameReader, LoadConfig, LoadMode, LoadReport, NetClient, NetMds,
    NetServer, NetServerConfig, NetServerStats, ServeScope, SlowEntry, MAX_FRAME_BYTES,
};
pub use sim::{RebalancedReplay, ReplayOutcome, SimConfig, Simulator};
pub use trace_analysis::{
    analyze, FaultAttribution, StrictChainRoute, TraceAnalysis, TraceCheckError, TracedOp,
};
