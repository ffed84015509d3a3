//! Satellite property: replaying any interleaving of two recorded
//! flows through the monitor yields the same verdict as the batch
//! correlator, provided the windows are large enough to hold the
//! flows.

use proptest::prelude::*;
use rand::{Rng, RngCore};
use stepstone_adversary::{AdversaryPipeline, ChaffInjector, ChaffModel, UniformPerturbation};
use stepstone_core::{Algorithm, BackendKind, WatermarkCorrelator};
use stepstone_flow::{Flow, TimeDelta, Timestamp};
use stepstone_monitor::{FlowId, Monitor, MonitorConfig, PairId, UpstreamId, Verdict};
use stepstone_traffic::Seed;
use stepstone_watermark::{IpdWatermarker, Watermark, WatermarkKey, WatermarkParams};

/// A small scheme so each decode stays cheap: 4 bits, r = 1.
fn tiny_params() -> WatermarkParams {
    WatermarkParams {
        bits: 4,
        redundancy: 1,
        offset: 1,
        adjustment: TimeDelta::from_millis(800),
        threshold: 1,
    }
}

/// A deterministic flow from a seed: ~120 packets, irregular spacing.
fn seeded_flow(seed: u64) -> Flow {
    let mut rng = Seed::new(seed).rng(0);
    let mut t = 0i64;
    let packets = (0..120).map(|_| {
        t += rng.gen_range(50_000..2_000_000);
        Timestamp::from_micros(t)
    });
    Flow::from_timestamps(packets).unwrap()
}

/// Interleaves two flows into one event stream, preserving each flow's
/// internal packet order but choosing the cross-flow order by coin
/// flips from `seed`.
fn interleave(a: &Flow, b: &Flow, seed: u64) -> Vec<(FlowId, stepstone_flow::Packet)> {
    let mut rng = Seed::new(seed).rng(9);
    let mut events = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let take_a = if i == a.len() {
            false
        } else if j == b.len() {
            true
        } else {
            rng.next_u32() & 1 == 0
        };
        if take_a {
            events.push((FlowId(0), a[i]));
            i += 1;
        } else {
            events.push((FlowId(1), b[j]));
            j += 1;
        }
    }
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn streaming_verdicts_match_batch_correlator(
        flow_seed in 0u64..5000,
        attack_seed in 0u64..5000,
        interleave_seed in 0u64..5000,
        chaff in 0.0f64..2.0,
    ) {
        let original = seeded_flow(flow_seed);
        let marker = IpdWatermarker::new(WatermarkKey::new(flow_seed ^ 77), tiny_params());
        let watermark = Watermark::random(4, &mut WatermarkKey::new(flow_seed).rng(1));
        let marked = marker.embed(&original, &watermark).unwrap();
        let delta = TimeDelta::from_secs(3);
        let attack = |base: &Flow, seed: u64| {
            AdversaryPipeline::new()
                .then(UniformPerturbation::new(delta))
                .then(ChaffInjector::new(ChaffModel::Poisson { rate: chaff }))
                .apply(base, Seed::new(seed))
        };
        // Two recorded flows: a true downstream of the watermarked flow
        // and an unrelated decoy.
        let downstream = attack(&marked, attack_seed);
        let decoy = attack(&seeded_flow(flow_seed ^ 0xDEAD), attack_seed ^ 1);

        let correlator =
            WatermarkCorrelator::new(marker, watermark.clone(), delta, Algorithm::GreedyPlus);
        let prepared = correlator.prepare(&original, &marked).unwrap();
        let expected = [prepared.correlate(&downstream), prepared.correlate(&decoy)];

        // Window big enough for either flow; decode_batch large enough
        // that the one decode per pair happens at the flush, over the
        // complete window — the regime where streaming must equal batch.
        let mut monitor = Monitor::new(
            MonitorConfig::default()
                .with_window_capacity(downstream.len().max(decoy.len()))
                .with_decode_batch(usize::MAX),
        );
        monitor.register_upstream(UpstreamId(0), correlator.bind(&original, &marked).unwrap());
        for (flow, packet) in interleave(&downstream, &decoy, interleave_seed) {
            prop_assert!(monitor.ingest(flow, packet));
        }
        let report = monitor.finish();

        for (k, expect) in expected.iter().enumerate() {
            let pair = PairId { upstream: UpstreamId(0), flow: FlowId(k as u64) };
            let verdicts: Vec<&Verdict> =
                report.verdicts.iter().filter(|v| v.pair() == Some(pair)).collect();
            prop_assert_eq!(verdicts.len(), 1, "one terminal verdict per pair");
            match *verdicts[0] {
                Verdict::Correlated { hamming, .. } => {
                    prop_assert!(expect.correlated);
                    prop_assert_eq!(Some(hamming), expect.hamming);
                }
                Verdict::Cleared { hamming, decodes, .. } => {
                    prop_assert!(!expect.correlated);
                    prop_assert_eq!(hamming, expect.hamming);
                    prop_assert_eq!(decodes, 1);
                }
                Verdict::Evicted { .. } => prop_assert!(false, "no eviction configured"),
                Verdict::Degraded { .. } => prop_assert!(false, "no chaos configured"),
            }
        }
        // One decode boundary per pair: decoded, or screened
        // when its outcome was already proven (the decoy's usually is).
        // A screened boundary is always unmatched, so every pair with a
        // Hamming distance must have had its decode run.
        prop_assert_eq!(report.stats.decodes_run + report.stats.decodes_screened, 2);
        let matched = expected.iter().filter(|e| e.hamming.is_some()).count() as u64;
        prop_assert!(report.stats.decodes_run >= matched, "{}", report.stats);
        prop_assert_eq!(report.stats.packets_ingested,
            (downstream.len() + decoy.len()) as u64);
    }

    /// The seam contract, online: for *every* backend, the monitor's
    /// terminal verdict over a full window equals that backend's batch
    /// decode of the same flows — the engine adds scheduling, not
    /// decisions.
    #[test]
    fn every_backend_streams_equal_to_batch(
        flow_seed in 0u64..5000,
        attack_seed in 0u64..5000,
        interleave_seed in 0u64..5000,
        chaff in 0.0f64..2.0,
    ) {
        let original = seeded_flow(flow_seed);
        let delta = TimeDelta::from_secs(3);
        let attack = |base: &Flow, seed: u64| {
            AdversaryPipeline::new()
                .then(UniformPerturbation::new(delta))
                .then(ChaffInjector::new(ChaffModel::Poisson { rate: chaff }))
                .apply(base, Seed::new(seed))
        };
        for kind in BackendKind::ALL {
            let marker = IpdWatermarker::new(WatermarkKey::new(flow_seed ^ 77), tiny_params());
            let watermark = Watermark::random(4, &mut WatermarkKey::new(flow_seed).rng(1));
            let marked = marker.embed(&original, &watermark).unwrap();
            let downstream = attack(&marked, attack_seed);
            let decoy = attack(&seeded_flow(flow_seed ^ 0xDEAD), attack_seed ^ 1);
            let correlator =
                WatermarkCorrelator::new(marker, watermark, delta, Algorithm::GreedyPlus);
            let bound = correlator.bind_backend(kind, chaff, &original, &marked).unwrap();
            prop_assert_eq!(bound.backend(), kind);
            let expected = [bound.correlate(&downstream), bound.correlate(&decoy)];

            let mut monitor = Monitor::new(
                MonitorConfig::default()
                    .with_window_capacity(downstream.len().max(decoy.len()))
                    .with_decode_batch(usize::MAX),
            );
            monitor.register_upstream(UpstreamId(0), bound);
            for (flow, packet) in interleave(&downstream, &decoy, interleave_seed) {
                prop_assert!(monitor.ingest(flow, packet));
            }
            let report = monitor.finish();

            for (k, expect) in expected.iter().enumerate() {
                let pair = PairId { upstream: UpstreamId(0), flow: FlowId(k as u64) };
                let verdicts: Vec<&Verdict> =
                    report.verdicts.iter().filter(|v| v.pair() == Some(pair)).collect();
                prop_assert_eq!(verdicts.len(), 1, "one terminal verdict per pair");
                match *verdicts[0] {
                    Verdict::Correlated { hamming, .. } => {
                        prop_assert!(expect.correlated, "{} must match batch", kind);
                        // Passive backends have no watermark distance;
                        // the verdict then carries 0.
                        prop_assert_eq!(hamming, expect.hamming.unwrap_or(0));
                    }
                    Verdict::Cleared { hamming, .. } => {
                        prop_assert!(!expect.correlated, "{} must match batch", kind);
                        prop_assert_eq!(hamming, expect.hamming);
                    }
                    Verdict::Evicted { .. } => prop_assert!(false, "no eviction configured"),
                    Verdict::Degraded { .. } => prop_assert!(false, "no chaos configured"),
                }
            }
        }
    }
}
