//! Packet matching under bounded-delay timing constraints (paper §3.2).
//!
//! Given an upstream flow `f = p₁…pₙ` and a suspicious flow
//! `f′ = p′₁…p′ₘ`, the *matching set* of `pᵢ` is
//!
//! ```text
//! M(pᵢ) = { p′ⱼ : 0 ≤ t′ⱼ − tᵢ ≤ Δ }
//! ```
//!
//! — every downstream packet that could be `pᵢ` under the timing
//! constraint. This crate computes all matching sets with the paper's
//! two-pointer scan (each suspicious packet examined at most twice),
//! meters the work in *packet accesses* (the paper's §4 cost unit, via
//! [`CostMeter`]), applies the optional quantized-packet-size
//! constraint, and implements the Greedy+ phase-1 simplification as
//! interval tightening ([`MatchingSets::tighten`]).
//!
//! # Example
//!
//! ```
//! use stepstone_matching::{CostMeter, Matcher};
//! use stepstone_flow::{Flow, TimeDelta, Timestamp};
//!
//! # fn main() -> Result<(), stepstone_flow::FlowError> {
//! let up = Flow::from_timestamps([0.0, 1.0, 2.0].map(Timestamp::from_secs_f64))?;
//! let down = Flow::from_timestamps([0.4, 1.2, 1.4, 2.3].map(Timestamp::from_secs_f64))?;
//! let mut meter = CostMeter::new();
//! let sets = Matcher::new(TimeDelta::from_secs(1))
//!     .matching_sets(&up, &down, &mut meter)
//!     .expect("every upstream packet has a candidate");
//! assert_eq!(sets.set(0), &[0]);        // only p′₀ is within [0, 1s] of p₀
//! assert_eq!(sets.set(1), &[1, 2]);     // p′₁ and p′₂ fit p₁
//! assert_eq!(sets.set(2), &[3]);
//! assert!(meter.count() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod gaps;
mod order;
mod screen;
mod sets;

pub use cost::CostMeter;
pub use gaps::GappedSets;
pub use order::{is_order_consistent, latest_before, Selection};
pub use screen::{Screen, ScreenState};
pub use sets::{Matcher, MatchingSets};
