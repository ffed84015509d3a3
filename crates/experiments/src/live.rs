//! The online workloads, lowered from an [`ExperimentConfig`] into
//! [`ScenarioSpec`]s.
//!
//! Batch experiments answer the paper's accuracy questions; `repro
//! monitor` answers the deployment question — what does the correlator
//! look like as an *online* service? Its workload is the paper's §4
//! one: watermarked interactive upstreams, their attacked downstreams
//! (bounded perturbation plus Poisson chaff) and unrelated decoys,
//! merged into one time-ordered stream. That is a [`ScenarioSpec`], so
//! this module only lowers the experiment configuration into specs;
//! [`crate::scenario_run::run`] runs them. `Δ`, the chaff rate and
//! [`WatermarkParams::paper`]/[`WatermarkParams::small`] are whole
//! milliseconds or multiples of 1/1000, so the spec fields express the
//! configuration exactly.

use stepstone_flow::TimeDelta;
use stepstone_scenario::{Chaff, ScenarioSpec};
use stepstone_traffic::Seed;
use stepstone_watermark::WatermarkParams;

use crate::config::{ExperimentConfig, Scale};

/// A spec named `name` over the paper's workload shape: interactive
/// traffic under `Δ`-bounded perturbation and Poisson chaff, watermarked
/// with `params`. Sizing keys keep [`ScenarioSpec::base`]'s defaults.
pub(crate) fn paper_workload(
    name: &str,
    seed: Seed,
    delta: TimeDelta,
    chaff: f64,
    params: WatermarkParams,
) -> ScenarioSpec {
    let mut spec = ScenarioSpec::base(name);
    spec.seed = seed.value();
    spec.delta_ms = delta.as_millis() as u64;
    spec.chaff = Chaff::PoissonMillis((chaff * 1000.0).round() as u64);
    spec.wm_bits = params.bits;
    spec.wm_redundancy = params.redundancy;
    spec.wm_offset = params.offset;
    spec.wm_adjustment_ms = params.adjustment.as_millis() as u64;
    spec.wm_threshold = params.threshold;
    spec
}

/// The `repro monitor` workload, sized for the experiment scale: quick
/// stays interactive, full approaches the paper's all-pairs setup. The
/// attack is the paper's fixed point (`Δ` = 7 s, chaff 3/s) against
/// Table 1's watermark.
pub fn monitor_spec(cfg: &ExperimentConfig) -> ScenarioSpec {
    let (upstreams, decoys) = match cfg.scale {
        Scale::Quick => (2, 2),
        Scale::Default => (4, 4),
        Scale::Full => (8, 8),
    };
    let mut spec = paper_workload(
        "monitor",
        cfg.seed,
        cfg.fixed_delta,
        cfg.fixed_chaff,
        cfg.params,
    );
    spec.upstreams = upstreams;
    spec.decoys = decoys;
    // The paper's trace-length regime: random disjoint-pair packing
    // needs slack well beyond the layout's theoretical minimum.
    spec.packets = cfg.min_packets.max(1000);
    spec
}

/// A small scale-independent workload for wire-format round-trips: the
/// same spec (and therefore the same corpus and correlators) regardless
/// of `--scale`, so a capture exported with
/// [`crate::scenario_run::export_pcap`] replays correctly against
/// correlators rebuilt from the same [`ExperimentConfig::seed`] later —
/// including the checked-in `tests/data/sample.pcap` fixture.
pub fn wire_spec(cfg: &ExperimentConfig) -> ScenarioSpec {
    let mut spec = paper_workload(
        "wire",
        cfg.seed,
        TimeDelta::from_secs(1),
        0.5,
        WatermarkParams::small(),
    );
    spec.upstreams = 1;
    spec.decoys = 1;
    spec.packets = 220;
    spec.shards = 1;
    spec.decode_batch = 32;
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario_run::{export_pcap, run, RunOptions};
    use stepstone_ingest::ReplayClock;

    #[test]
    fn lowered_specs_validate_and_express_the_config_exactly() {
        for scale in [Scale::Quick, Scale::Default, Scale::Full] {
            let cfg = ExperimentConfig::new(scale);
            let spec = monitor_spec(&cfg);
            spec.validate().expect("the monitor spec is valid");
            assert_eq!(spec.seed, cfg.seed.value());
            assert_eq!(
                TimeDelta::from_millis(spec.delta_ms as i64),
                cfg.fixed_delta
            );
            assert_eq!(spec.chaff.rate().to_bits(), cfg.fixed_chaff.to_bits());
            assert_eq!(spec.wm_bits, cfg.params.bits);
            assert_eq!(spec.wm_redundancy, cfg.params.redundancy);
            assert_eq!(spec.wm_offset, cfg.params.offset);
            assert_eq!(
                TimeDelta::from_millis(spec.wm_adjustment_ms as i64),
                cfg.params.adjustment
            );
            assert_eq!(spec.wm_threshold, cfg.params.threshold);
            // The canonical text round-trips, so a worker parsing it
            // rebuilds this very spec.
            assert_eq!(ScenarioSpec::parse(&spec.canonical()), Ok(spec));
            wire_spec(&cfg).validate().expect("the wire spec is valid");
        }
    }

    /// Pins the quick `repro monitor` workload: the lowering must keep
    /// the corpus, the decode schedule and every verdict of the
    /// workload it replaced.
    #[test]
    fn quick_monitor_spec_pins_its_run() {
        let spec = monitor_spec(&ExperimentConfig::new(Scale::Quick));
        let report = run(&spec, &RunOptions::default()).expect("the quick spec runs");
        assert_eq!(report.events, 10_472);
        assert_eq!(report.detection.true_positives, 2);
        assert_eq!(report.detection.false_positives, 2);
        assert_eq!(report.detection.missed, 0);
        assert_eq!(report.stats.decodes_run, 23);
        assert_eq!(report.stats.decodes_screened, 179);
        assert_eq!(report.stats.packets_rejected, 0);
        assert_eq!(report.verdict_digest(), 0x960a_c7d3_d0c1_de95);
        let rendered = report.to_string();
        assert!(
            rendered.contains("monitor replay: 2 upstreams"),
            "{rendered}"
        );
    }

    #[test]
    fn wire_spec_round_trips_through_pcap() {
        let spec = wire_spec(&ExperimentConfig::new(Scale::Quick));
        let bytes = export_pcap(&spec).expect("wire flows carry the small watermark");
        let report = run(
            &spec,
            &RunOptions {
                capture: Some((&bytes, ReplayClock::Fast)),
                ..RunOptions::default()
            },
        )
        .expect("capture replays");
        assert_eq!(report.detection.true_positives, 1);
        assert_eq!(report.detection.false_positives, 0);
        assert_eq!(report.detection.missed, 0);
        assert_eq!(report.capture.map(|(_, demux)| demux.flows_opened), Some(2));
        assert_eq!(report.stats.packets_rejected, 0);
    }

    #[test]
    fn wire_spec_is_scale_independent() {
        let quick = wire_spec(&ExperimentConfig::new(Scale::Quick));
        let full = wire_spec(&ExperimentConfig::new(Scale::Full));
        assert_eq!(quick, full);
    }
}
