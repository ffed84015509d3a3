//! Multi-process scale-out of the online correlation monitor.
//!
//! One [`Monitor`](stepstone_monitor::Monitor) holds as many flow pairs
//! as its one decoding thread can serve; the paper's stepping-stone setting
//! ("millions of concurrent flow-pairs") wants more than one process.
//! This crate adds the distribution layer:
//!
//! * a **coordinator** ([`Cluster`]) that owns ingest and a
//!   consistent-hash ring ([`HashRing`]) mapping flow ids — and with
//!   them every candidate pair — onto N **worker processes**;
//! * a dependency-free, length-prefixed binary **IPC framing layer**
//!   ([`wire`]) with magic/version/checksum headers that never panics
//!   on corrupt input, carrying typed [`Message`]s (packet batches,
//!   verdicts, heartbeats, rebalances) over the workers' stdin/stdout
//!   pipes;
//! * a worker side ([`serve`]) that wraps an existing `Monitor`
//!   unchanged — all decode logic is reused as-is;
//! * a **cross-process supervisor** inside the coordinator: heartbeat
//!   stall detection, capped-backoff respawn of dead workers,
//!   accounting of in-flight batches lost with a death, and
//!   rehashing of the dead worker's flows onto the survivors with a
//!   bounded per-flow replay;
//! * **aggregated telemetry**: per-worker stats and cluster-level
//!   counters all land in one registry, so a single Prometheus endpoint
//!   describes the whole topology.
//!
//! The coordinator never trusts a worker: every frame off the pipe is
//! bounds-checked before allocation, every batch is acked by sequence
//! number, and a worker that stops acking is killed and respawned. Every
//! way a pair can lose its verdict ends in an explicit `Degraded`
//! verdict at the coordinator, never a silent drop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod message;
pub mod ring;
pub mod wire;
pub mod worker;

pub use coordinator::{backoff, Cluster, ClusterConfig, ClusterError, ClusterReport, ClusterStats};
pub use message::{BatchEntry, Message, WireStats};
pub use ring::HashRing;
pub use wire::WireError;
pub use worker::{serve, ServeError, WorkerSummary};
