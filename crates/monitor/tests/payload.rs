//! Terminal verdicts equal a batch model, payload included, and so does
//! the number of decode boundaries the engine accounts for.
//!
//! The engine screens strict decodes that are provably unmatched and
//! counts them as decoded. It screens robust decodes that provably blow
//! their erasure budget and postpones them, while a `Degraded` verdict
//! reports the erasures and confidence of the latest over-budget
//! decode. A pair whose screen proves its answer for every later
//! boundary is parked, and its skipped boundaries are accounted in bulk
//! when the pair is next needed. The model here decodes every scheduled
//! window in order, so a postponed decode that runs on the wrong
//! packets, runs too late to count, or is skipped when it still
//! mattered changes a verdict, and a parked pair's boundaries counted
//! wrong change its `Cleared` verdict or the final
//! `decodes_run + decodes_screened`.

use std::collections::{BTreeMap, BTreeSet};

use rand::Rng;
use stepstone_adversary::{
    AdversaryPipeline, ChaffInjector, ChaffModel, PacketLoss, UniformPerturbation,
};
use stepstone_core::{
    Algorithm, BoundCorrelator, DecodeOptions, Screen, ScreenState, WatermarkCorrelator,
};
use stepstone_flow::{Flow, Packet, SlidingWindow, TimeDelta, Timestamp};
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

/// A correlator decoding with `decode`, bound to a fresh watermarked
/// flow starting about `start` into the stream, and that flow. With
/// `inverted` the correlator looks for the complement of the embedded
/// watermark, so a relay fills its matching sets but does not
/// correlate.
fn upstream(
    seed: u64,
    decode: DecodeOptions,
    inverted: bool,
    start: TimeDelta,
) -> (BoundCorrelator, Flow) {
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
        .with_decode(decode)
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

/// A decoy that starts `late` into the stream: every upstream packet
/// more than Δ before its first packet has an empty matching set, so a
/// pair of it with an upstream starting earlier settles at its first
/// boundary, and stays settled for the rest of its packets.
fn late_decoy(seed: u64, n: usize, late: TimeDelta) -> Flow {
    relay(&seeded_flow(seed, n), 0.0, seed).shifted(late)
}

/// The window lengths (push counts) the engine decodes for a flow of
/// `len` packets: the first once the window holds max(`min_window`,
/// `batch`) packets, then one every `batch`, then the whole flow at
/// shutdown, unless the flow was evicted idle first.
fn scheduled_windows(len: usize, min_window: usize, batch: usize, evicted: bool) -> Vec<usize> {
    let mut windows: Vec<usize> = (min_window.max(batch)..=len).step_by(batch).collect();
    if !evicted && len >= min_window && windows.last() != Some(&len) {
        windows.push(len);
    }
    windows
}

/// One monitor configuration to check.
#[derive(Debug, Clone, Copy)]
struct Setting {
    capacity: usize,
    batch: usize,
    idle: Option<TimeDelta>,
}

const fn setting(capacity: usize, batch: usize) -> Setting {
    Setting {
        capacity,
        batch,
        idle: None,
    }
}

/// The batch model of `pair`: its terminal verdict, and the decode
/// boundaries the engine accounts for it, as decoded or screened.
///
/// The verdict: decode every scheduled window in order; `Correlated`
/// at the first that correlates, else `Degraded` with the latest
/// over-budget window's erasures and confidence, else `Cleared` with
/// the last window's Hamming distance.
///
/// The boundaries: every scheduled window up to a correlating one,
/// plus one for the postponed decode of a robust pair whose screen
/// proved a boundary over budget, unless the pair correlated before
/// its window first evicted, which drops the postponed decode.
fn model(
    pair: PairId,
    correlator: &BoundCorrelator,
    flow: &Flow,
    setting: Setting,
    evicted: bool,
) -> (Verdict, usize) {
    let Setting {
        capacity, batch, ..
    } = setting;
    let decode = correlator.decode_options();
    let upstream = correlator.upstream().len();
    let needed = if decode.is_robust() {
        upstream.saturating_sub(decode.erasure_budget as usize)
    } else {
        upstream
    };
    let min_window = needed.min(capacity).max(1);
    let windows = scheduled_windows(flow.len(), min_window, batch, evicted);
    // The robust screen proves a window over budget only before the
    // window first evicts; a fresh screen's answer is the carried one's.
    let over_budget = |k: usize| {
        if !decode.is_robust() || k > capacity {
            return false;
        }
        let mut window = SlidingWindow::new(capacity);
        for &p in &flow.packets()[..k] {
            window.push(p).unwrap();
        }
        correlator.screen(&window, &mut ScreenState::default()) == Screen::OverBudget
    };
    let mut postponed = false;
    let mut blown = None;
    let mut hamming = None;
    for (i, &k) in windows.iter().enumerate() {
        let window = Flow::from_packets(
            flow.packets()[k.saturating_sub(capacity)..k]
                .iter()
                .copied(),
        )
        .unwrap();
        let outcome = correlator.correlate(&window);
        if outcome.correlated {
            let verdict = Verdict::Correlated {
                pair,
                hamming: outcome.hamming.unwrap_or(0),
                cost: outcome.cost + outcome.matching_cost,
            };
            return (verdict, i + 1 + usize::from(postponed && k > capacity));
        }
        postponed |= over_budget(k);
        if let Some(robust) = outcome.robust {
            if robust.budget_blown {
                blown = Some(DegradeReason::ErasureBudget {
                    erasures: robust.erasures,
                    confidence: robust.confidence_pct,
                });
            }
        }
        hamming = outcome.hamming;
    }
    let verdict = match blown {
        Some(reason) => Verdict::Degraded { pair, reason },
        None => Verdict::Cleared {
            pair,
            hamming,
            decodes: windows.len() as u32,
        },
    };
    (verdict, windows.len() + usize::from(postponed))
}

/// Runs `flows`, merged in time order, through a monitor and checks
/// every pair's terminal verdict, and the boundaries decoded or
/// screened in all, against the model. With an idle timeout the run
/// sweeps for idle flows at every drain and must evict some flow, each
/// after its last packet. Returns how many verdicts of each kind were
/// seen, and the most pairs seen parked at once.
fn check(
    upstreams: &[BoundCorrelator],
    flows: &[Flow],
    setting: Setting,
) -> (BTreeMap<&'static str, usize>, usize) {
    let mut config = MonitorConfig::default()
        .with_window_capacity(setting.capacity)
        .with_decode_batch(setting.batch);
    if let Some(timeout) = setting.idle {
        config = config.with_idle_timeout(timeout);
    }
    let mut monitor = Monitor::new(config);
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
    let mut parked = 0;
    for (i, (flow, packet)) in events.into_iter().enumerate() {
        assert!(monitor.ingest(flow, packet));
        if i % 64 == 0 {
            if setting.idle.is_some() {
                monitor.evict_idle(packet.timestamp());
            }
            verdicts.extend(monitor.drain_verdicts());
            parked = parked.max(monitor.stats().pairs_parked);
        }
    }
    let report = monitor.finish();
    verdicts.extend(report.verdicts);

    let mut seen: BTreeMap<PairId, Verdict> = BTreeMap::new();
    let mut evicted = BTreeSet::new();
    for verdict in verdicts {
        match (verdict.pair(), verdict) {
            (Some(pair), verdict) => {
                assert!(seen.insert(pair, verdict).is_none(), "{pair:?} twice");
            }
            (None, Verdict::Evicted { flow, .. }) => {
                assert!(evicted.insert(flow), "{flow:?} evicted twice");
            }
            (None, verdict) => panic!("{verdict:?} names no pair"),
        }
    }
    assert_eq!(setting.idle.is_some(), !evicted.is_empty(), "{setting:?}");
    assert_eq!(seen.len(), upstreams.len() * flows.len());
    let mut kinds = BTreeMap::new();
    let mut boundaries = 0;
    for (pair, verdict) in seen {
        let correlator = &upstreams[pair.upstream.0 as usize];
        let flow = &flows[pair.flow.0 as usize];
        let (expected, accounted) = model(
            pair,
            correlator,
            flow,
            setting,
            evicted.contains(&pair.flow),
        );
        assert_eq!(verdict, expected, "{setting:?}");
        boundaries += accounted as u64;
        let kind = match verdict {
            Verdict::Correlated { .. } => "correlated",
            Verdict::Cleared { .. } => "cleared",
            Verdict::Degraded { .. } => "degraded",
            Verdict::Evicted { .. } => "evicted",
        };
        *kinds.entry(kind).or_insert(0) += 1;
    }
    let stats = report.stats;
    assert_eq!(
        stats.decodes_run + stats.decodes_screened,
        boundaries,
        "{setting:?}: {stats}"
    );
    assert_eq!(stats.pairs_parked, 0, "{setting:?}");
    (kinds, parked)
}

#[test]
fn robust_verdicts_match_the_batch_model_with_and_without_eviction() {
    let mut totals: BTreeMap<&'static str, usize> = BTreeMap::new();
    for seed in 0..3u64 {
        // Budgets a clean relay stays within and a lossy one may blow.
        let robust = DecodeOptions::robust;
        let (a, marked_a) = upstream(100 + seed, robust(3), false, TimeDelta::ZERO);
        let (b, marked_b) = upstream(200 + seed, robust(8), false, TimeDelta::ZERO);
        let (c, _) = upstream(100 + seed, robust(3), true, TimeDelta::ZERO);
        let (e, _) = upstream(200 + seed, robust(8), true, TimeDelta::ZERO);
        let (d, marked_d) = upstream(400 + seed, robust(3), true, TimeDelta::from_secs(40));
        // 60 chaff packets before `d`'s relay starts: windows holding
        // them and part of the relay blow `d`'s budget, windows holding
        // the whole relay do not.
        let lead = (0..60).map(|i| Packet::chaff(Timestamp::from_millis(500 * i), 64));
        let led = Flow::from_packets(lead.chain(relay(&marked_d, 0.0, seed + 40).iter().copied()))
            .unwrap();
        let mut flows = vec![
            relay(&marked_a, 0.0, seed),
            relay(&marked_a, 0.08, seed + 10),
            relay(&marked_b, 0.03, seed + 20),
            relay(&seeded_flow(300 + seed, 100), 0.0, seed + 30),
            led.clone(),
            relay(&marked_b, 0.0, seed + 50),
        ];
        let longest = flows.iter().map(Flow::len).max().unwrap();
        // Its closed empty sets alone blow every budget but `d`'s at the
        // first boundary, so those pairs park until the window first
        // evicts, and decode every boundary after that.
        flows.push(late_decoy(500 + seed, 200, TimeDelta::from_secs(30)));
        // Windows that hold every flow, and windows that evict. Every
        // window short of a whole relay misses some of the upstream and
        // blows the budget, so only a batch longer than the flows, one
        // decode at shutdown, lets a pair end `Cleared`. On the led
        // flow, a capacity just short of it leaves the postponed decodes
        // before its first eviction as the latest over budget; so does
        // one just short of `b`'s clean relay for `e`, whose first
        // packets then matter to the erasure count. A capacity just above the led
        // flow's relay makes every window after its first eviction
        // blow the budget except the last. The idle run evicts the
        // relays while the late decoy streams on.
        for setting in [
            setting(4096, 8),
            setting(4096, 1),
            setting(4096, 7),
            setting(4096, 32),
            setting(4096, 4096),
            setting(longest / 2, 8),
            setting(longest / 2, 32),
            setting(longest * 3 / 4, 5),
            setting(led.len() - 2, 8),
            setting(flows[5].len() - 4, 8),
            setting(led.len() - 55, 4),
            Setting {
                idle: Some(TimeDelta::from_secs(20)),
                ..setting(longest / 2, 7)
            },
        ] {
            let upstreams = [a.clone(), b.clone(), c.clone(), d.clone(), e.clone()];
            let (kinds, _) = check(&upstreams, &flows, setting);
            for (kind, n) in kinds {
                *totals.entry(kind).or_insert(0) += n;
            }
        }
    }
    // Every kind of terminal verdict was exercised.
    for kind in ["correlated", "cleared", "degraded"] {
        assert!(totals.get(kind).is_some_and(|&n| n > 0), "{totals:?}");
    }
}

#[test]
fn strict_verdicts_match_the_batch_model_with_parked_decoys() {
    let mut totals: BTreeMap<&'static str, usize> = BTreeMap::new();
    for seed in 0..3u64 {
        let strict = DecodeOptions::strict();
        let (a, marked_a) = upstream(100 + seed, strict, false, TimeDelta::ZERO);
        let (b, marked_b) = upstream(200 + seed, strict, false, TimeDelta::ZERO);
        let (c, _) = upstream(100 + seed, strict, true, TimeDelta::ZERO);
        // Starts after the late decoys do, so its pairs with them settle
        // later, if at all.
        let (d, marked_d) = upstream(400 + seed, strict, false, TimeDelta::from_secs(40));
        let flows = vec![
            relay(&marked_a, 0.0, seed),
            // Loses packets, so its pairs settle at some later boundary.
            relay(&marked_a, 0.08, seed + 10),
            relay(&marked_b, 0.0, seed + 20),
            relay(&marked_d, 0.0, seed + 40),
            // Settle with `a`, `b` and `c` at their first boundary and
            // stream on for about twice as long as the relays.
            late_decoy(500 + seed, 200, TimeDelta::from_secs(30)),
            late_decoy(600 + seed, 150, TimeDelta::from_secs(25)),
        ];
        // Windows that hold every flow and windows that evict, at batches
        // that park most boundaries one at a time or in bulk. The idle
        // run evicts the relays while the decoys stream on.
        for setting in [
            setting(4096, 32),
            setting(4096, 7),
            setting(4096, 1),
            setting(160, 7),
            setting(120, 32),
            Setting {
                idle: Some(TimeDelta::from_secs(20)),
                ..setting(4096, 7)
            },
        ] {
            let upstreams = [a.clone(), b.clone(), c.clone(), d.clone()];
            let (kinds, parked) = check(&upstreams, &flows, setting);
            assert!(parked > 0, "{setting:?}: no pair parked");
            for (kind, n) in kinds {
                *totals.entry(kind).or_insert(0) += n;
            }
        }
    }
    for kind in ["correlated", "cleared"] {
        assert!(totals.get(kind).is_some_and(|&n| n > 0), "{totals:?}");
    }
}
