//! Seed-deterministic fault injection for the stepstone live pipeline.
//!
//! The paper's threat model is an adversarial channel — bounded delay,
//! chaff insertion — but a deployed monitor also faces faults the paper
//! never had to model: corrupt captures, lossy and duplicating taps,
//! panicking decodes. This crate turns all of
//! those into a *reproducible experiment*: a [`FaultPlan`] derives
//! every fault from a single `u64` seed and a [`Profile`], composing
//! three independent layers:
//!
//! | Layer | Injects | Applied at |
//! |-------|---------|------------|
//! | [`WireFaults`] | byte corruption, truncation, record drop/duplicate, timestamp skew | around the pcap/pcapng reader |
//! | [`FlowFaults`] | packet deletion, chaff bursts, bounded extra delay | between demux and the engine |
//! | [`RuntimeFaults`] | contained decode panics | inside the engine's decode containment, via [`FaultHook`](stepstone_monitor::FaultHook) |
//!
//! Every layer's decision stream is *index-addressed*: the fault for
//! record `i`, event `i`, or decode `i` is a pure function of `(seed,
//! layer, i)`. Two runs with the same seed therefore agree on the fault
//! schedule byte for byte — [`FaultPlan::schedule_digest`] is the
//! witness.
//!
//! # Example
//!
//! ```
//! use stepstone_chaos::{FaultPlan, Profile};
//! use stepstone_monitor::MonitorConfig;
//!
//! let plan = FaultPlan::parse("7:harsh").unwrap();
//! // Arm the engine with the runtime faults.
//! let config = plan.arm_monitor(MonitorConfig::default());
//! // Same seed, same schedule — reproducible by construction.
//! assert_eq!(plan.schedule_digest(1024), FaultPlan::new(7, Profile::Harsh).schedule_digest(1024));
//! # let _ = config;
//! ```
//!
//! The survival half — decode containment and exactly one terminal
//! verdict per pair — lives in `stepstone-monitor`; this crate only
//! produces the weather.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flowfault;
mod plan;
mod rng;
mod runtime;
mod wire;

pub use flowfault::{FlowDecision, FlowFaultInjector, FlowFaults};
pub use plan::{FaultPlan, ParseChaosError, Profile};
pub use rng::SplitMix64;
pub use runtime::RuntimeFaults;
pub use wire::{RecordDecision, WireFaultAdapter, WireFaults};
