//! Capture-to-verdict pipeline benchmark.
//!
//! The benchmark is its own load generator: from a seed it synthesises
//! watermarked upstream flows, attacked downstream flows and decoys
//! (`stepstone-traffic`, `-watermark`, `-adversary`) and renders them as
//! pcap bytes. The system under test receives only those bytes and the
//! bound upstream correlators, and is timed layer by layer through its
//! public calls:
//!
//! | layer | calls timed |
//! |---|---|
//! | `ingest` | `Capture::next` (parse), `FlowDemux::push` |
//! | `monitor` | `Monitor::ingest` (window push, pair scheduling, window snapshot, shard-queue push), the decode worker (engine histogram), `drain_verdicts`, `finish` |
//! | `core` | `BoundCorrelator::correlate` (matching or gapped sets, best-watermark decode), in the reference pass |
//!
//! Every run's verdicts are checked against a batch reference
//! ([`reference`](mod@reference)). End-to-end times are scaled to a reference host by a
//! calibration pass timed before each run ([`calibrate`]).
//!
//! | workload | shape | why |
//! |---|---|---|
//! | `decode-heavy` | 32 upstreams × 1500 pkts + 32 decoys, closed loop | 2,048 pairs and ~0.5 decodes per packet; the main thread is the bottleneck, busy copying a window for every scheduled decode, so shared windows and gated decodes show here |
//! | `lossy-robust` | 12 upstreams × 1500 pkts + 12 decoys, 2% loss, robust decode (erasure budget 64), closed loop | the decode worker is the bottleneck, on the `GappedSets`/`SoftWatermark` path; the deletion channel of Gong/Kiyavash, so a gain that helps only the strict decoder or only the main thread shows as none here |
//!
//! Every workload runs one decode shard (main thread plus one worker)
//! under the deterministic decode schedule; see [`workload`] for why, and
//! for the two workloads dropped as too noisy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod check;
pub mod corpus;
pub mod harness;
pub mod procfs;
pub mod reference;
pub mod replay;
pub mod workload;

/// The error type of every fallible step.
pub type Error = Box<dyn std::error::Error>;
