//! Active timing-based correlation of perturbed traffic flows with
//! chaff packets — the paper's primary contribution (§3.3).
//!
//! Given a watermarked upstream flow and a suspicious flow that may
//! carry bounded timing perturbation *and* chaff, the correlator
//! computes matching sets (`stepstone-matching`), then searches the
//! order-consistent combinations of matching packets for the **best
//! watermark** — the decode with the smallest Hamming distance to the
//! original — and reports a correlation when that distance is within the
//! detection threshold. Four search algorithms trade detection rate,
//! false-positive rate and computation cost:
//!
//! | Algorithm | Idea | Cost | Caveat |
//! |---|---|---|---|
//! | [`Algorithm::BruteForce`] | enumerate every order-consistent combination | exponential (bounded) | ground truth for tests |
//! | [`Algorithm::Greedy`] | per bit, take the extremal matches that favour the wanted bit | `O(n)` | ignores the order constraint → high false positives |
//! | [`Algorithm::GreedyPlus`] | Greedy, then repair order conflicts and locally improve the most fixable bits | near-Greedy | the paper's best overall trade-off |
//! | [`Algorithm::Optimal`] | Greedy+ phases, then exhaustive search over the still-mismatched bits | bounded (10⁶) | may return early at the cost bound |
//!
//! Costs are metered in the paper's unit — packets accessed — including
//! the matching phase.
//!
//! # Example
//!
//! ```
//! use stepstone_core::{Algorithm, WatermarkCorrelator};
//! use stepstone_flow::{Flow, TimeDelta, Timestamp};
//! use stepstone_watermark::{IpdWatermarker, Watermark, WatermarkKey, WatermarkParams};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let original = Flow::from_timestamps((0..200).map(Timestamp::from_secs))?;
//! let marker = IpdWatermarker::new(WatermarkKey::new(1), WatermarkParams::small());
//! let watermark = Watermark::random(8, &mut WatermarkKey::new(2).rng(1));
//! let marked = marker.embed(&original, &watermark)?;
//!
//! let correlator = WatermarkCorrelator::new(
//!     marker,
//!     watermark,
//!     TimeDelta::from_secs(2),
//!     Algorithm::GreedyPlus,
//! );
//! let prepared = correlator.prepare(&original, &marked)?;
//! // The marked flow itself is trivially a downstream flow of itself.
//! let outcome = prepared.correlate(&marked);
//! assert!(outcome.correlated);
//! assert_eq!(outcome.hamming, Some(0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod brute;
mod correlator;
mod endpoint;
mod greedy;
mod greedy_plus;
mod optimal;
mod outcome;
mod robust;

pub use correlator::{
    BoundCorrelator, PaperBackend, Phase1Scope, PreparedCorrelator, WatermarkCorrelator,
};
pub use outcome::{Algorithm, Correlation};
// The backend seam, re-exported so monitor-layer crates need only one
// `stepstone_core` import to select, bind and label backends.
pub use stepstone_backends::{
    BackendKind, CorrelatorBackend, DecodeMode, DecodeOptions, ElicesBackend, ElicesConfig,
    GameBackend, GameConfig, RobustOutcome, Screen, ScreenState, StreamState, UnknownBackend,
    UnknownDecodeMode,
};
