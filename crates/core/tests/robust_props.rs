//! Property tests for the deletion-robust decode layer: the robust
//! decoder never panics on arbitrary deletion/merge/burst fault
//! patterns, and its streaming decodes agree with batch decodes across
//! all three backends — the `--decode robust` counterparts of the
//! strict-mode properties pinned in `stepstone-backends`' suite.

use proptest::prelude::*;
use stepstone_adversary::{
    AdversaryPipeline, ChaffInjector, ChaffModel, PacketLoss, Repacketizer, UniformPerturbation,
};
use stepstone_core::{Algorithm, BackendKind, BoundCorrelator, DecodeOptions, WatermarkCorrelator};
use stepstone_flow::{Flow, TimeDelta, Timestamp};
use stepstone_traffic::Seed;
use stepstone_watermark::{IpdWatermarker, Watermark, WatermarkKey, WatermarkParams};

/// A small scheme so every decode finishes fast: 4 bits, r = 1.
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
    use rand::Rng;
    let mut rng = Seed::new(seed).rng(0);
    let mut t = 0i64;
    let packets = (0..120).map(|_| {
        t += rng.gen_range(50_000..2_000_000);
        Timestamp::from_micros(t)
    });
    Flow::from_timestamps(packets).unwrap()
}

/// One watermarked pair plus a correlator configured for it.
struct Fixture {
    original: Flow,
    marked: Flow,
    correlator: WatermarkCorrelator,
}

fn fixture(flow_seed: u64, delta: TimeDelta) -> Fixture {
    let original = seeded_flow(flow_seed);
    let marker = IpdWatermarker::new(WatermarkKey::new(flow_seed ^ 77), tiny_params());
    let watermark = Watermark::random(4, &mut WatermarkKey::new(flow_seed).rng(1));
    let marked = marker.embed(&original, &watermark).unwrap();
    let correlator = WatermarkCorrelator::new(marker, watermark, delta, Algorithm::GreedyPlus);
    Fixture {
        original,
        marked,
        correlator,
    }
}

/// Every backend bound to the fixture's pair with the given decode
/// options — the `--backend` × `--decode` product the CLI exposes.
fn all_backends(fx: &Fixture, decode: DecodeOptions, chaff_rate: f64) -> Vec<BoundCorrelator> {
    BackendKind::ALL
        .iter()
        .map(|&kind| {
            fx.correlator
                .bind_backend_with(kind, decode, chaff_rate, &fx.original, &fx.marked)
                .expect("binding a prepared pair cannot fail")
        })
        .collect()
}

/// Deletes the contiguous index range `start..start + len` (clamped to
/// the flow), modelling a burst outage on the downstream path.
fn delete_burst(flow: &Flow, start: usize, len: usize) -> Flow {
    let start = start.min(flow.len());
    let end = (start + len).min(flow.len());
    let packets: Vec<_> = (0..flow.len())
        .filter(|&i| i < start || i >= end)
        .map(|i| flow[i])
        .collect();
    if packets.is_empty() {
        Flow::new()
    } else {
        Flow::from_packets(packets).unwrap()
    }
}

fn prefix(flow: &Flow, n: usize) -> Flow {
    let n = n.min(flow.len());
    if n == 0 {
        Flow::new()
    } else {
        Flow::from_packets((0..n).map(|i| flow[i])).unwrap()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary composed fault patterns — random per-packet deletion,
    /// Nagle-style merging, a contiguous burst outage, chaff — never
    /// panic the robust decoder on any backend, decodes stay
    /// deterministic, the erasure accounting is always reported, and a
    /// blown budget never coexists with a positive verdict.
    #[test]
    fn robust_decode_never_panics_on_deletion_merge_and_burst(
        flow_seed in 0u64..2000,
        attack_seed in 0u64..u64::MAX,
        loss in 0.0f64..0.5,
        merge_ms in 0i64..400,
        burst_start in 0usize..150,
        burst_len in 0usize..60,
        chaff in 0.0f64..3.0,
        budget in 0u32..200,
    ) {
        let delta = TimeDelta::from_secs(2);
        let fx = fixture(flow_seed, delta);
        let mut pipeline = AdversaryPipeline::new()
            .then(UniformPerturbation::new(delta))
            .then(PacketLoss::new(loss))
            .then(Repacketizer::new(TimeDelta::from_millis(merge_ms)));
        if chaff > 0.0 {
            pipeline = pipeline.then(ChaffInjector::new(ChaffModel::Poisson { rate: chaff }));
        }
        let suspicious = delete_burst(
            &pipeline.apply(&fx.marked, Seed::new(attack_seed)),
            burst_start,
            burst_len,
        );
        for bound in all_backends(&fx, DecodeOptions::robust(budget), chaff) {
            let out = bound.correlate(&suspicious);
            let r = out.robust.expect("robust decode always reports accounting");
            if r.budget_blown {
                prop_assert!(!out.correlated,
                    "{}: blown budget must never correlate: {out}", bound.backend());
            }
            if suspicious.is_empty() {
                prop_assert!(!out.correlated,
                    "{}: correlated an empty window", bound.backend());
            }
            prop_assert!(r.confidence_pct <= 100);
            // Deterministic: the same window decodes identically.
            prop_assert_eq!(bound.correlate(&suspicious), out);
        }
        // The strict decoder survives the same hostile window (it may
        // abort the decode, but it must not panic or report erasures).
        for bound in all_backends(&fx, DecodeOptions::strict(), chaff) {
            prop_assert_eq!(bound.correlate(&suspicious).robust, None);
        }
    }

    /// Streaming ≡ batch holds under `--decode robust` on every
    /// backend: every growing prefix of a lossy downstream window, as
    /// the monitor decodes them, keeps its robust accounting, and the
    /// last ends at exactly the batch verdict.
    #[test]
    fn robust_streaming_equals_batch_across_backends(
        flow_seed in 0u64..2000,
        attack_seed in 0u64..u64::MAX,
        loss in 0.0f64..0.15,
        chaff in 0.0f64..2.0,
        batch in 1usize..16,
        budget in 1u32..200,
    ) {
        let delta = TimeDelta::from_secs(2);
        let fx = fixture(flow_seed, delta);
        let mut pipeline = AdversaryPipeline::new()
            .then(UniformPerturbation::new(delta))
            .then(PacketLoss::new(loss));
        if chaff > 0.0 {
            pipeline = pipeline.then(ChaffInjector::new(ChaffModel::Poisson { rate: chaff }));
        }
        let down = pipeline.apply(&fx.marked, Seed::new(attack_seed));
        for bound in all_backends(&fx, DecodeOptions::robust(budget), chaff) {
            let mut cut = batch.min(down.len());
            loop {
                let outcome = bound.correlate(&prefix(&down, cut));
                prop_assert!(outcome.robust.is_some(),
                    "{}: prefix decode lost the robust accounting", bound.backend());
                if cut >= down.len() {
                    let batch_outcome = bound.correlate(&down);
                    prop_assert_eq!(&outcome, &batch_outcome,
                        "{}: final prefix decode diverged from batch", bound.backend());
                    break;
                }
                cut = (cut + batch).min(down.len());
            }
        }
    }
}
