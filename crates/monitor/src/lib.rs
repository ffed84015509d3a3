//! Online multi-flow correlation engine for stepping-stone monitoring.
//!
//! The batch correlator in `stepstone-core` answers "is this recorded
//! suspicious flow a downstream flow of that watermarked upstream
//! flow?". A deployed detector faces a different shape of problem: an
//! unbounded, time-ordered stream of packets from *many* concurrent
//! flows, a handful of watermarked upstream flows to check them
//! against, and a latency budget — verdicts should appear while the
//! flows are still alive. This crate provides that layer:
//!
//! * a **flow registry** with bounded per-flow
//!   [`SlidingWindow`](stepstone_flow::SlidingWindow)s, so memory stays
//!   proportional to active flows, not stream length;
//! * a **sharded worker pool**: candidate (upstream, suspicious) pairs
//!   are pinned to a shard by pair-id hash, keeping each pair's decodes
//!   serialized while different pairs decode in parallel;
//! * **incremental scheduling**: a pair is re-decoded only after its
//!   window accrues [`decode_batch`](MonitorConfig::decode_batch) new
//!   packets, and never while an earlier decode is still in flight;
//! * **decode screening**: at each boundary the backend's
//!   [`screen`](stepstone_core::CorrelatorBackend::screen) may prove the
//!   decode's outcome without running it — a strict paper decode whose
//!   matching is already infeasible — and the boundary is then counted
//!   ([`MonitorStats::decodes_screened`]) instead of decoded;
//! * **explicit backpressure**: shard queues are bounded and ingest
//!   never blocks — an attempt against a full queue is dropped and
//!   counted, and the pair retries as more packets arrive;
//! * a **live verdict stream** ([`Verdict`]) plus a counters snapshot
//!   ([`MonitorStats`]) for dashboards and tests;
//! * **supervised degradation**: dead shard workers are respawned with
//!   capped exponential backoff, lost jobs are accounted, stalled
//!   shards are flagged by a watchdog, and sustained backpressure can
//!   shed the lowest-priority pair — every giving-up surfaces as an
//!   explicit [`Verdict::Degraded`], never a silently dropped pair.
//!
//! # Example
//!
//! ```
//! use stepstone_core::{Algorithm, WatermarkCorrelator};
//! use stepstone_flow::{Flow, TimeDelta, Timestamp};
//! use stepstone_monitor::{FlowId, Monitor, MonitorConfig, UpstreamId};
//! use stepstone_watermark::{IpdWatermarker, Watermark, WatermarkKey, WatermarkParams};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The defender watermarked an upstream flow …
//! let original = Flow::from_timestamps((0..200).map(Timestamp::from_secs))?;
//! let marker = IpdWatermarker::new(WatermarkKey::new(1), WatermarkParams::small());
//! let watermark = Watermark::random(8, &mut WatermarkKey::new(2).rng(1));
//! let marked = marker.embed(&original, &watermark)?;
//! let correlator = WatermarkCorrelator::new(
//!     marker,
//!     watermark,
//!     TimeDelta::from_secs(2),
//!     Algorithm::GreedyPlus,
//! );
//!
//! // … and streams suspicious traffic through the monitor.
//! let mut monitor = Monitor::new(MonitorConfig::default());
//! monitor.register_upstream(UpstreamId(0), correlator.bind(&original, &marked)?);
//! for &packet in marked.packets() {
//!     monitor.ingest(FlowId(7), packet);
//! }
//! let report = monitor.finish();
//! assert!(report.verdicts.iter().any(|v| v.is_correlated()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod fault;
mod ids;
mod metrics;
#[doc(hidden)]
pub mod queue;
mod stats;
mod supervisor;
mod verdict;

pub use config::MonitorConfig;
pub use engine::{Monitor, MonitorReport};
pub use fault::{DecodeFault, FaultHook};
pub use ids::{FlowId, PairId, UpstreamId};
pub use queue::PushError;
pub use stats::MonitorStats;
pub use verdict::{DegradeReason, TerminalKind, Verdict};
