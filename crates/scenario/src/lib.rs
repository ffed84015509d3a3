//! Named, reproducible correlation scenarios.
//!
//! A scenario is everything a stepping-stone correlation run needs,
//! written down: traffic mix, chain topology, the adversary pipeline
//! (perturbation bound, chaff model, loss, repacketization), the chaos
//! channel, the correlator backend, and the watermark parameters. Two
//! holders of the same scenario text build byte-interchangeable
//! corpora — the text *is* the experiment.
//!
//! The format is the workspace's hand-rolled line-oriented style (one
//! `key = value` per line, `#` comments), parsed with no dependencies
//! into a typed [`ScenarioSpec`] with a typed [`ScenarioError`].
//! [`ScenarioSpec::canonical`] re-encodes any spec into one normative
//! text, and [`ScenarioSpec::digest`] (FNV-1a/64 of the canonical
//! bytes) is the identity every consumer prints at load.
//!
//! ```
//! use stepstone_scenario::{preset, ScenarioSpec};
//!
//! let spec = preset("quick-smoke").unwrap();
//! let round = ScenarioSpec::parse(&spec.canonical()).unwrap();
//! assert_eq!(round, spec);
//! assert_eq!(round.digest(), spec.digest());
//! ```
//!
//! The checked-in [`preset`](mod@preset) library names the scenarios the rest of
//! the workspace runs — `repro serve` accepts them by name over HTTP,
//! `repro matrix` crosses them with backends and seeds — including the
//! `multi-flow` staging for the Kiyavash et al. multi-flow attack and
//! the `deletion-harsh` Gong/Kiyavash channel.
//!
//! This crate is pure data: no I/O, no threads, no clocks. Mapping a
//! spec onto generators, adversaries and monitors lives in
//! `stepstone-experiments`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod preset;
mod spec;

pub use error::ScenarioError;
pub use preset::{all as all_presets, preset, preset_text};
pub use spec::{
    fnv1a, Backend, Chaff, ChaosProfile, Decode, Repacketize, ScenarioSpec, Traffic, MAX_FLOWS,
    MAX_PACKETS, MAX_SHARDS, MAX_SPEC_BYTES,
};
