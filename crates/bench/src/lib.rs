//! Shared fixtures for the benchmark harness.
//!
//! The first four bench targets regenerate part of the paper's
//! evaluation; the other four measure the online system around it:
//!
//! * `figures` — every table/figure runner (Figs 3–10, §4.2, Table 1);
//! * `algorithms` — per-algorithm correlation micro-benchmarks
//!   (correlated and uncorrelated pairs at the headline grid point);
//! * `ablations` — design-choice sweeps (phase-1 scope, adjustment `a`,
//!   redundancy `r`, Optimal cost bound);
//! * `substrates` — traffic generation, the chain simulator, matching,
//!   embedding and decoding in isolation;
//! * `monitor` — online-engine throughput at 1, 8 and 64 candidate
//!   pairs and one or all cores, plus the chaos fault seam's overhead;
//!   prints the decodes each configuration runs;
//! * `backends` — one full-window decode per candidate pair for every
//!   correlator backend;
//! * `ingest` — pcap parsing and flow demultiplexing, separately;
//! * `telemetry` — counter, histogram and `time!`/`span!` hot-path cost
//!   against an uninstrumented baseline.
//!
//! Run with `cargo bench -p stepstone-bench [--bench <target>]`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use stepstone_adversary::{AdversaryPipeline, ChaffInjector, ChaffModel, UniformPerturbation};
use stepstone_flow::{Flow, TimeDelta, Timestamp};
use stepstone_traffic::{InteractiveProfile, Seed, SessionGenerator};
use stepstone_watermark::{IpdWatermarker, Watermark, WatermarkKey, WatermarkParams};

/// A deterministic watermarked session plus attacked flows, shared by
/// the bench targets.
#[derive(Debug, Clone)]
pub struct Fixture {
    /// The unmarked origin flow.
    pub original: Flow,
    /// The watermarked flow.
    pub marked: Flow,
    /// The watermarker (key + paper parameters).
    pub marker: IpdWatermarker,
    /// The embedded watermark.
    pub watermark: Watermark,
    /// The marked flow after Δ = 7 s perturbation and λc = 3 chaff.
    pub correlated: Flow,
    /// An unrelated flow under the same attack.
    pub uncorrelated: Flow,
}

impl Fixture {
    /// Builds the standard fixture (1000-packet session, paper
    /// parameters, headline attack point).
    pub fn standard() -> Self {
        Fixture::with_params(WatermarkParams::paper(), 1000)
    }

    /// Builds a fixture with custom watermark parameters.
    pub fn with_params(params: WatermarkParams, packets: usize) -> Self {
        let seed = Seed::new(0xBE7C);
        let gen = SessionGenerator::new(InteractiveProfile::ssh());
        let original = gen.generate(packets, Timestamp::ZERO, &mut seed.child(0).rng(0));
        let marker = IpdWatermarker::new(WatermarkKey::new(0xB0B), params);
        let watermark = Watermark::random(params.bits, &mut WatermarkKey::new(1).rng(1));
        let marked = marker
            .embed(&original, &watermark)
            .expect("fixture flows host the layout");
        let attack = |flow: &Flow, label: u64| {
            AdversaryPipeline::new()
                .then(UniformPerturbation::new(TimeDelta::from_secs(7)))
                .then(ChaffInjector::new(ChaffModel::Poisson { rate: 3.0 }))
                .apply(flow, seed.child(label))
        };
        let correlated = attack(&marked, 1);
        let other = gen.generate(packets, Timestamp::ZERO, &mut seed.child(2).rng(0));
        let uncorrelated = attack(&other, 3);
        Fixture {
            original,
            marked,
            marker,
            watermark,
            correlated,
            uncorrelated,
        }
    }

    /// The headline maximum delay (7 s).
    pub fn delta(&self) -> TimeDelta {
        TimeDelta::from_secs(7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_is_deterministic_and_well_formed() {
        let a = Fixture::standard();
        let b = Fixture::standard();
        assert_eq!(a.marked, b.marked);
        assert_eq!(a.correlated, b.correlated);
        assert!(a.correlated.chaff_count() > 0);
        assert_eq!(a.original.len(), 1000);
    }
}
