//! Property-based invariants across the four algorithms on small random
//! instances.

use proptest::prelude::*;
use stepstone_adversary::{AdversaryPipeline, ChaffInjector, ChaffModel, UniformPerturbation};
use stepstone_core::{Algorithm, DecodeOptions, Screen, ScreenState, WatermarkCorrelator};
use stepstone_flow::{Flow, Packet, SlidingWindow, TimeDelta, Timestamp};
use stepstone_traffic::Seed;
use stepstone_watermark::{IpdWatermarker, Watermark, WatermarkKey, WatermarkParams};

/// A small scheme so Brute Force finishes: 4 bits, r = 1 (16 endpoints).
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

/// Like [`seeded_flow`], with packet sizes drawn from 40..120 bytes so
/// a 16-byte size quantum splits them into several classes.
fn sized_flow(seed: u64) -> Flow {
    use rand::Rng;
    let mut rng = Seed::new(seed).rng(0);
    let mut t = 0i64;
    let packets: Vec<Packet> = (0..120)
        .map(|_| {
            t += rng.gen_range(50_000..2_000_000);
            Packet::new(Timestamp::from_micros(t), rng.gen_range(40..120))
        })
        .collect();
    Flow::from_packets(packets).unwrap()
}

/// `flow` followed by `extra` packets of random size and spacing, so a
/// window streamed from it runs well past its last upstream match.
fn with_tail(flow: &Flow, extra: usize, seed: u64) -> Flow {
    use rand::Rng;
    let mut rng = Seed::new(seed).rng(7);
    let mut t = flow.last().map_or(0, |p| p.timestamp().as_micros());
    let tail = (0..extra).map(|_| {
        t += rng.gen_range(50_000..2_000_000);
        Packet::new(Timestamp::from_micros(t), rng.gen_range(40..120))
    });
    Flow::from_packets(flow.iter().copied().chain(tail)).unwrap()
}

/// Every strict paper correlator the screen must be sound for: each
/// algorithm, with and without a size quantum.
fn strict_configs() -> Vec<(Algorithm, Option<u32>)> {
    [
        Algorithm::Greedy,
        Algorithm::GreedyPlus,
        Algorithm::Optimal {
            cost_bound: 1_000_000,
        },
        Algorithm::BruteForce {
            cost_bound: 1_000_000,
        },
    ]
    .into_iter()
    .flat_map(|alg| [(alg, None), (alg, Some(16))])
    .collect()
}

fn correlate_with(
    alg: Algorithm,
    original: &Flow,
    marked: &Flow,
    suspicious: &Flow,
    marker: IpdWatermarker,
    watermark: &Watermark,
    delta: TimeDelta,
) -> stepstone_core::Correlation {
    WatermarkCorrelator::new(marker, watermark.clone(), delta, alg)
        .prepare(original, marked)
        .unwrap()
        .correlate(suspicious)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The paper's one unconditional hierarchy guarantee holds on
    /// arbitrary attacked flows: Greedy's Hamming distance lower-bounds
    /// every order-respecting algorithm's, and all decisions implement
    /// the same threshold semantics.
    #[test]
    fn hamming_hierarchy(
        flow_seed in 0u64..5000,
        attack_seed in 0u64..5000,
        delta_s in 1i64..5,
        chaff in 0.0f64..2.0,
        correlated in proptest::bool::ANY,
    ) {
        let original = seeded_flow(flow_seed);
        let marker = IpdWatermarker::new(WatermarkKey::new(flow_seed ^ 77), tiny_params());
        let watermark = Watermark::random(4, &mut WatermarkKey::new(flow_seed).rng(1));
        let marked = marker.embed(&original, &watermark).unwrap();
        let delta = TimeDelta::from_secs(delta_s);
        let base = if correlated { marked.clone() } else { seeded_flow(flow_seed ^ 0xDEAD) };
        let suspicious = AdversaryPipeline::new()
            .then(UniformPerturbation::new(delta))
            .then(ChaffInjector::new(ChaffModel::Poisson { rate: chaff }))
            .apply(&base, Seed::new(attack_seed));

        let run = |alg| correlate_with(alg, &original, &marked, &suspicious, marker, &watermark, delta);
        let g = run(Algorithm::Greedy);
        let gp = run(Algorithm::GreedyPlus);
        let op = run(Algorithm::Optimal { cost_bound: 10_000_000 });
        let bf = run(Algorithm::BruteForce { cost_bound: 50_000_000 });

        // Either everyone failed matching or no one did (Greedy does not
        // tighten, so it can only have MORE information).
        if g.hamming.is_none() {
            prop_assert!(!g.correlated);
        }
        // The one unconditional guarantee (paper §3.3.2): Greedy ignores
        // the order constraint, so its Hamming distance lower-bounds
        // every order-respecting algorithm's. (Greedy+ vs Optimal have
        // no fixed order — Greedy+'s cascades can reach selections the
        // Optimal search holds fixed, which is the paper's "performs
        // slightly worse under the bound of computation cost"; and all
        // searches stop at the threshold, so they are not minimizers.)
        if let Some(g_h) = g.hamming {
            for (name, other) in [("greedy+", &gp), ("optimal", &op), ("brute", &bf)] {
                if let Some(h) = other.hamming {
                    prop_assert!(g_h <= h, "greedy {g_h} > {name} {h}");
                }
            }
        }
        // Decisions agree on the threshold semantics.
        for out in [&g, &gp, &op, &bf] {
            if let Some(h) = out.hamming {
                prop_assert_eq!(out.correlated, h <= tiny_params().threshold);
            } else {
                prop_assert!(!out.correlated);
            }
        }
    }

    /// Decisions are pure functions of their inputs.
    #[test]
    fn correlation_is_deterministic(flow_seed in 0u64..2000, attack_seed in 0u64..2000) {
        let original = seeded_flow(flow_seed);
        let marker = IpdWatermarker::new(WatermarkKey::new(1), tiny_params());
        let watermark = Watermark::random(4, &mut WatermarkKey::new(2).rng(1));
        let marked = marker.embed(&original, &watermark).unwrap();
        let suspicious = AdversaryPipeline::new()
            .then(UniformPerturbation::new(TimeDelta::from_secs(2)))
            .apply(&marked, Seed::new(attack_seed));
        let run = || correlate_with(
            Algorithm::GreedyPlus, &original, &marked, &suspicious, marker, &watermark,
            TimeDelta::from_secs(2),
        );
        prop_assert_eq!(run(), run());
    }

    /// A self-pair under in-bound perturbation is always detected by
    /// every algorithm (tiny threshold notwithstanding, because the true
    /// subsequence is reachable).
    #[test]
    fn in_bound_perturbation_never_defeats_detection(
        flow_seed in 0u64..2000,
        attack_seed in 0u64..2000,
    ) {
        let original = seeded_flow(flow_seed);
        let marker = IpdWatermarker::new(WatermarkKey::new(3), tiny_params());
        let watermark = Watermark::random(4, &mut WatermarkKey::new(4).rng(1));
        let marked = marker.embed(&original, &watermark).unwrap();
        // Mild perturbation relative to the 800 ms adjustment.
        let suspicious = AdversaryPipeline::new()
            .then(UniformPerturbation::new(TimeDelta::from_millis(200)))
            .apply(&marked, Seed::new(attack_seed));
        for alg in [Algorithm::Greedy, Algorithm::GreedyPlus, Algorithm::optimal_paper()] {
            let out = correlate_with(
                alg, &original, &marked, &suspicious, marker, &watermark,
                TimeDelta::from_millis(200),
            );
            prop_assert!(out.correlated, "{alg}: {out}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The decode screen is sound for every strict paper correlator, on
    /// a window that grows batch by batch and may evict. At every
    /// boundary the screen's claim is checked against a full decode of
    /// the window's snapshot:
    ///
    /// - a screened-out window never correlates (`Unmatched` means no
    ///   Hamming distance at all);
    /// - once the pair is settled, every later window — the settled one
    ///   plus appended packets, minus evictions — stays unmatched.
    #[test]
    fn screen_is_sound_for_strict_decodes(
        flow_seed in 0u64..5000,
        attack_seed in 0u64..5000,
        kind in 0u8..3,
        step in 1usize..6,
        capacity_pct in 40usize..160,
    ) {
        let original = sized_flow(flow_seed);
        let marker = IpdWatermarker::new(WatermarkKey::new(flow_seed ^ 77), tiny_params());
        let watermark = Watermark::random(4, &mut WatermarkKey::new(flow_seed).rng(1));
        let marked = marker.embed(&original, &watermark).unwrap();
        let delta = TimeDelta::from_secs(2);
        // A decoy, a true downstream flow, or the same timing decoded for
        // the wrong watermark (matching succeeds, the decode rarely
        // correlates).
        let base = if kind == 0 { sized_flow(flow_seed ^ 0xBEEF) } else { marked.clone() };
        let wanted = if kind == 2 {
            Watermark::from_bits(watermark.bits().iter().map(|&b| !b))
        } else {
            watermark.clone()
        };
        let attacked = AdversaryPipeline::new()
            .then(UniformPerturbation::new(delta))
            .then(ChaffInjector::new(ChaffModel::Poisson { rate: 0.5 }))
            .apply(&base, Seed::new(attack_seed));
        let stream = with_tail(&attacked, 24, attack_seed);
        let capacity = (stream.len() * capacity_pct / 100).max(1);
        for (alg, quantum) in strict_configs() {
            let mut config = WatermarkCorrelator::new(marker, wanted.clone(), delta, alg);
            if let Some(q) = quantum {
                config = config.with_size_quantum(q);
            }
            let bound = config.bind(&original, &marked).unwrap();
            let mut window = SlidingWindow::new(capacity);
            let mut state = ScreenState::default();
            let mut settled = false;
            for (k, &packet) in stream.packets().iter().enumerate() {
                window.push(packet).unwrap();
                if (k + 1) % step != 0 && k + 1 != stream.len() {
                    continue;
                }
                let screen = bound.screen(&window, &mut state);
                let snapshot = window.snapshot();
                let truth = bound.correlate(&snapshot);
                let label = format!("{alg} quantum {quantum:?} at {}: {screen:?}", k + 1);
                if settled || screen == Screen::Unmatched {
                    prop_assert!(!truth.correlated, "{label}: {truth}");
                    prop_assert_eq!(truth.hamming, None, "{}", label);
                }
                settled |= state.settled();
            }
        }
    }

    /// Robust decodes are never screened: they absorb empty matching
    /// sets as erasures and can correlate on a window that has not yet
    /// reached the upstream's last packet.
    #[test]
    fn robust_decodes_are_never_screened(flow_seed in 0u64..5000, step in 1usize..24) {
        let original = sized_flow(flow_seed);
        let marker = IpdWatermarker::new(WatermarkKey::new(flow_seed ^ 77), tiny_params());
        let watermark = Watermark::random(4, &mut WatermarkKey::new(flow_seed).rng(1));
        let marked = marker.embed(&original, &watermark).unwrap();
        let bound = WatermarkCorrelator::new(
            marker, watermark, TimeDelta::from_secs(2), Algorithm::GreedyPlus,
        )
        .with_decode(DecodeOptions::robust(4))
        .bind(&original, &marked)
        .unwrap();
        let decoy = with_tail(&sized_flow(flow_seed ^ 0xBEEF), 24, flow_seed);
        let mut window = SlidingWindow::new(decoy.len());
        let mut state = ScreenState::default();
        for (k, &packet) in decoy.packets().iter().enumerate() {
            window.push(packet).unwrap();
            if (k + 1) % step == 0 {
                prop_assert_eq!(bound.screen(&window, &mut state), Screen::Decode);
            }
        }
    }
}
