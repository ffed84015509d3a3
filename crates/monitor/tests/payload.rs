//! Terminal verdicts of robust pairs equal a batch model, payload
//! included.
//!
//! The engine screens robust decodes that provably blow their erasure
//! budget and postpones them, while a `Degraded` verdict reports the
//! erasures and confidence of the latest over-budget decode. The model
//! here decodes every scheduled window in order, so a postponed decode
//! that runs on the wrong packets, runs too late to count, or is
//! skipped when it still mattered changes a verdict.

use std::collections::BTreeMap;

use rand::Rng;
use stepstone_adversary::{
    AdversaryPipeline, ChaffInjector, ChaffModel, PacketLoss, UniformPerturbation,
};
use stepstone_core::{Algorithm, BoundCorrelator, DecodeOptions, WatermarkCorrelator};
use stepstone_flow::{Flow, Packet, TimeDelta, Timestamp};
use stepstone_monitor::{
    DegradeReason, FlowId, Monitor, MonitorConfig, PairId, UpstreamId, Verdict,
};
use stepstone_traffic::Seed;
use stepstone_watermark::{IpdWatermarker, Watermark, WatermarkKey, WatermarkParams};

const DELTA: TimeDelta = TimeDelta::from_secs(2);

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

/// A deterministic flow from a seed: `n` packets, irregular spacing.
fn seeded_flow(seed: u64, n: usize) -> Flow {
    let mut rng = Seed::new(seed).rng(0);
    let mut t = 0i64;
    let packets = (0..n).map(|_| {
        t += rng.gen_range(50_000..2_000_000);
        Packet::new(Timestamp::from_micros(t), 64)
    });
    Flow::from_packets(packets).unwrap()
}

/// A robust correlator bound to a fresh watermarked flow starting
/// about `start` into the stream, and that flow. With `inverted` the
/// correlator looks for the complement of the embedded watermark, so a
/// relay fills its matching sets but does not correlate.
fn upstream(seed: u64, budget: u32, inverted: bool, start: TimeDelta) -> (BoundCorrelator, Flow) {
    let original = seeded_flow(seed, 100).shifted(start);
    let marker = IpdWatermarker::new(WatermarkKey::new(seed ^ 77), tiny_params());
    let watermark = Watermark::random(4, &mut WatermarkKey::new(seed).rng(1));
    let marked = marker.embed(&original, &watermark).unwrap();
    let wanted = if inverted {
        Watermark::from_bits(watermark.bits().iter().map(|&b| !b))
    } else {
        watermark
    };
    let correlator = WatermarkCorrelator::new(marker, wanted, DELTA, Algorithm::GreedyPlus)
        .with_decode(DecodeOptions::robust(budget))
        .bind(&original, &marked)
        .unwrap();
    (correlator, marked)
}

/// A relay of `flow` that perturbs within Δ, adds chaff and loses
/// `loss` of its packets.
fn relay(flow: &Flow, loss: f64, seed: u64) -> Flow {
    AdversaryPipeline::new()
        .then(UniformPerturbation::new(DELTA))
        .then(ChaffInjector::new(ChaffModel::Poisson { rate: 0.5 }))
        .then(PacketLoss::new(loss))
        .apply(flow, Seed::new(seed))
}

/// The window lengths (push counts) the engine decodes for a flow of
/// `len` packets: the first once the window holds max(`min_window`,
/// `batch`) packets, then one every `batch`, then the whole flow at
/// shutdown.
fn scheduled_windows(len: usize, min_window: usize, batch: usize) -> Vec<usize> {
    let mut windows: Vec<usize> = (min_window.max(batch)..=len).step_by(batch).collect();
    if len >= min_window && windows.last() != Some(&len) {
        windows.push(len);
    }
    windows
}

/// The terminal verdict the batch model gives `pair`: decode every
/// scheduled window in order; `Correlated` at the first that
/// correlates, else `Degraded` with the latest over-budget window's
/// erasures and confidence, else `Cleared` with the last window's
/// Hamming distance.
fn model(
    pair: PairId,
    correlator: &BoundCorrelator,
    flow: &Flow,
    capacity: usize,
    batch: usize,
) -> Verdict {
    let budget = correlator.decode_options().erasure_budget as usize;
    let min_window = correlator
        .upstream()
        .len()
        .saturating_sub(budget)
        .min(capacity)
        .max(1);
    let windows = scheduled_windows(flow.len(), min_window, batch);
    let mut blown = None;
    let mut hamming = None;
    for &k in &windows {
        let window = Flow::from_packets(
            flow.packets()[k.saturating_sub(capacity)..k]
                .iter()
                .copied(),
        )
        .unwrap();
        let outcome = correlator.correlate(&window);
        if outcome.correlated {
            return Verdict::Correlated {
                pair,
                hamming: outcome.hamming.unwrap_or(0),
                cost: outcome.cost + outcome.matching_cost,
            };
        }
        let robust = outcome.robust.expect("robust decodes report erasures");
        if robust.budget_blown {
            blown = Some(DegradeReason::ErasureBudget {
                erasures: robust.erasures,
                confidence: robust.confidence_pct,
            });
        }
        hamming = outcome.hamming;
    }
    match blown {
        Some(reason) => Verdict::Degraded { pair, reason },
        None => Verdict::Cleared {
            pair,
            hamming,
            decodes: windows.len() as u32,
        },
    }
}

/// Runs `flows`, merged in time order, through a monitor and checks
/// every pair's terminal verdict against the model. Returns how many
/// verdicts of each kind were seen.
fn check(
    upstreams: &[BoundCorrelator],
    flows: &[Flow],
    capacity: usize,
    batch: usize,
) -> BTreeMap<&'static str, usize> {
    let mut monitor = Monitor::new(
        MonitorConfig::default()
            .with_window_capacity(capacity)
            .with_decode_batch(batch),
    );
    for (u, correlator) in upstreams.iter().enumerate() {
        monitor.register_upstream(UpstreamId(u as u64), correlator.clone());
    }
    let mut events: Vec<(FlowId, Packet)> = flows
        .iter()
        .enumerate()
        .flat_map(|(f, flow)| flow.iter().map(move |&p| (FlowId(f as u64), p)))
        .collect();
    events.sort_by_key(|&(_, p)| p.timestamp());
    let mut verdicts = Vec::new();
    for (i, (flow, packet)) in events.into_iter().enumerate() {
        assert!(monitor.ingest(flow, packet));
        if i % 64 == 0 {
            verdicts.extend(monitor.drain_verdicts());
        }
    }
    verdicts.extend(monitor.finish().verdicts);

    let mut seen: BTreeMap<PairId, Verdict> = BTreeMap::new();
    for verdict in verdicts {
        let pair = verdict.pair().expect("no flow is evicted idle");
        assert!(seen.insert(pair, verdict).is_none(), "{pair:?} twice");
    }
    assert_eq!(seen.len(), upstreams.len() * flows.len());
    let mut kinds = BTreeMap::new();
    for (pair, verdict) in seen {
        let correlator = &upstreams[pair.upstream.0 as usize];
        let flow = &flows[pair.flow.0 as usize];
        let expected = model(pair, correlator, flow, capacity, batch);
        assert_eq!(verdict, expected, "capacity {capacity}, batch {batch}");
        let kind = match verdict {
            Verdict::Correlated { .. } => "correlated",
            Verdict::Cleared { .. } => "cleared",
            Verdict::Degraded { .. } => "degraded",
            Verdict::Evicted { .. } => "evicted",
        };
        *kinds.entry(kind).or_insert(0) += 1;
    }
    kinds
}

#[test]
fn robust_verdicts_match_the_batch_model_with_and_without_eviction() {
    let mut totals: BTreeMap<&'static str, usize> = BTreeMap::new();
    for seed in 0..3u64 {
        // Budgets a clean relay stays within and a lossy one may blow.
        let (a, marked_a) = upstream(100 + seed, 3, false, TimeDelta::ZERO);
        let (b, marked_b) = upstream(200 + seed, 8, false, TimeDelta::ZERO);
        let (c, _) = upstream(100 + seed, 3, true, TimeDelta::ZERO);
        let (e, _) = upstream(200 + seed, 8, true, TimeDelta::ZERO);
        let (d, marked_d) = upstream(400 + seed, 3, true, TimeDelta::from_secs(40));
        // 60 chaff packets before `d`'s relay starts: windows holding
        // them and part of the relay blow `d`'s budget, windows holding
        // the whole relay do not.
        let lead = (0..60).map(|i| Packet::chaff(Timestamp::from_millis(500 * i), 64));
        let led = Flow::from_packets(lead.chain(relay(&marked_d, 0.0, seed + 40).iter().copied()))
            .unwrap();
        let flows = vec![
            relay(&marked_a, 0.0, seed),
            relay(&marked_a, 0.08, seed + 10),
            relay(&marked_b, 0.03, seed + 20),
            relay(&seeded_flow(300 + seed, 100), 0.0, seed + 30),
            led.clone(),
            relay(&marked_b, 0.0, seed + 50),
        ];
        let longest = flows.iter().map(Flow::len).max().unwrap();
        // Windows that hold every flow, and windows that evict. Every
        // window short of a whole relay misses some of the upstream and
        // blows the budget, so only a batch longer than the flows, one
        // decode at shutdown, lets a pair end `Cleared`. On the led
        // flow, a capacity just short of it leaves the postponed decodes
        // before its first eviction as the latest over budget; so does
        // one just short of `b`'s clean relay for `e`, whose first
        // packets then matter to the erasure count. A capacity just above the led
        // flow's relay makes every window after its first eviction
        // blow the budget except the last.
        for (capacity, batch) in [
            (4096, 8),
            (4096, 1),
            (4096, 4096),
            (longest / 2, 8),
            (longest * 3 / 4, 5),
            (led.len() - 2, 8),
            (flows[5].len() - 4, 8),
            (led.len() - 55, 4),
        ] {
            let upstreams = [a.clone(), b.clone(), c.clone(), d.clone(), e.clone()];
            for (kind, n) in check(&upstreams, &flows, capacity, batch) {
                *totals.entry(kind).or_insert(0) += n;
            }
        }
    }
    // Every kind of terminal verdict was exercised.
    for kind in ["correlated", "cleared", "degraded"] {
        assert!(totals.get(kind).is_some_and(|&n| n > 0), "{totals:?}");
    }
}
