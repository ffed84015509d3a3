//! Property-based tests for the passive correlator backends: never
//! panic on hostile input, deterministic verdicts, and prefix decodes
//! that end at the batch decode.

use proptest::prelude::*;
use stepstone_adversary::{AdversaryPipeline, ChaffInjector, ChaffModel, UniformPerturbation};
use stepstone_backends::{
    BackendKind, CorrelatorBackend, ElicesBackend, ElicesConfig, GameBackend, GameConfig,
};
use stepstone_flow::{Flow, TimeDelta, Timestamp};
use stepstone_traffic::Seed;

fn sorted_flow(max_len: usize, span_micros: i64) -> impl Strategy<Value = Flow> {
    proptest::collection::vec(0i64..span_micros, 0..max_len).prop_map(|mut v| {
        v.sort_unstable();
        if v.is_empty() {
            Flow::new()
        } else {
            Flow::from_timestamps(v.into_iter().map(Timestamp::from_micros)).unwrap()
        }
    })
}

/// Every passive backend bound to `upstream`, so each property runs
/// over all of them. (The paper backend's equivalents live in the
/// monitor's suite — it sits above this crate in the dependency graph.)
fn passive_backends(upstream: &Flow, delta: TimeDelta) -> Vec<Box<dyn CorrelatorBackend>> {
    vec![
        Box::new(ElicesBackend::bind(ElicesConfig::new(delta), upstream)),
        Box::new(GameBackend::bind(GameConfig::new(delta), upstream)),
    ]
}

fn prefix(flow: &Flow, n: usize) -> Flow {
    let n = n.min(flow.len());
    if n == 0 {
        Flow::new()
    } else {
        Flow::from_timestamps((0..n).map(|i| flow.timestamp(i))).unwrap()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary (including empty and chaff-heavy) flow pairs never
    /// panic any backend, and every outcome keeps the passive-backend
    /// shape: completed, watermark-free, matching-only cost.
    #[test]
    fn decode_never_panics_and_keeps_the_passive_shape(
        up in sorted_flow(50, 2_000_000),
        down in sorted_flow(120, 2_400_000),
        delta_micros in 0i64..600_000,
    ) {
        let delta = TimeDelta::from_micros(delta_micros);
        for backend in passive_backends(&up, delta) {
            let outcome = backend.decode(&down);
            prop_assert!(outcome.completed, "{} left a bound hit", backend.kind());
            prop_assert_eq!(outcome.hamming, None);
            prop_assert!(outcome.best.is_none());
            prop_assert_eq!(outcome.cost, outcome.matching_cost,
                "{}: passive decode is one matching sweep", backend.kind());
            // Deterministic: the same window decodes identically.
            prop_assert_eq!(backend.decode(&down), outcome);
        }
    }

    /// Chaos-style mutations — truncation, bounded perturbation, heavy
    /// chaff — never panic a backend, even when they leave a window
    /// that is empty or shorter than the upstream flow.
    #[test]
    fn mutated_windows_never_panic(
        up in sorted_flow(40, 2_000_000),
        keep in 0usize..160,
        chaff_rate in 0.0f64..50.0,
        seed in 0u64..u64::MAX,
    ) {
        let delta = TimeDelta::from_millis(300);
        let mut pipeline = AdversaryPipeline::new().then(UniformPerturbation::new(delta));
        if chaff_rate > 0.0 {
            pipeline = pipeline.then(ChaffInjector::new(ChaffModel::Poisson { rate: chaff_rate }));
        }
        let down = prefix(&pipeline.apply(&up, Seed::new(seed)), keep);
        for backend in passive_backends(&up, delta) {
            let outcome = backend.decode(&down);
            prop_assert!(outcome.completed);
            if down.is_empty() {
                prop_assert!(!outcome.correlated,
                    "{} correlated an empty window", backend.kind());
            }
        }
    }

    /// The monitor's streaming model agrees with batch: decoding
    /// growing prefixes, as the engine does at its batch boundaries,
    /// ends at exactly the batch verdict on the full window.
    #[test]
    fn streaming_equals_batch(
        up in sorted_flow(40, 2_000_000),
        chaff_rate in 0.0f64..5.0,
        batch in 1usize..16,
        seed in 0u64..u64::MAX,
    ) {
        let delta = TimeDelta::from_millis(400);
        let mut pipeline = AdversaryPipeline::new().then(UniformPerturbation::new(delta));
        if chaff_rate > 0.0 {
            pipeline = pipeline.then(ChaffInjector::new(ChaffModel::Poisson { rate: chaff_rate }));
        }
        let down = pipeline.apply(&up, Seed::new(seed));
        for backend in passive_backends(&up, delta) {
            let mut cut = batch.min(down.len());
            loop {
                let outcome = backend.decode(&prefix(&down, cut));
                if cut >= down.len() {
                    let batch_outcome = backend.decode(&down);
                    prop_assert_eq!(outcome, batch_outcome,
                        "{}: final prefix decode diverged from batch", backend.kind());
                    break;
                }
                cut = (cut + batch).min(down.len());
            }
        }
    }

    /// A true downstream — bounded delay plus chaff, nothing dropped —
    /// achieves full order-consistent coverage, so the game backend
    /// only ever answers "correlated" or "undecidable", never a
    /// confident "unrelated" that a later window would contradict.
    #[test]
    fn true_pairs_keep_full_coverage_under_chaff(
        up in sorted_flow(40, 4_000_000),
        chaff_rate in 0.0f64..5.0,
        seed in 0u64..u64::MAX,
    ) {
        let delta = TimeDelta::from_millis(500);
        let mut pipeline = AdversaryPipeline::new().then(UniformPerturbation::new(delta));
        if chaff_rate > 0.0 {
            pipeline = pipeline.then(ChaffInjector::new(ChaffModel::Poisson { rate: chaff_rate }));
        }
        let down = pipeline.apply(&up, Seed::new(seed));
        let stats = stepstone_backends::order_consistent_stats(&up, &down, delta);
        prop_assert_eq!(stats.misses, 0, "true pair missed an observable window");
        prop_assert_eq!(stats.matched_observable, stats.observable);
    }
}

#[test]
fn backend_kind_is_reported_truthfully() {
    let up = Flow::from_timestamps((0..20).map(|i| Timestamp::from_micros(i * 1_000_000))).unwrap();
    let delta = TimeDelta::from_secs(1);
    let kinds: Vec<BackendKind> = passive_backends(&up, delta)
        .iter()
        .map(|b| b.kind())
        .collect();
    assert_eq!(kinds, vec![BackendKind::Elices, BackendKind::Game]);
    for backend in passive_backends(&up, delta) {
        assert_eq!(backend.upstream().len(), up.len());
    }
}
