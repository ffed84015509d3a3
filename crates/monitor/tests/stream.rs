//! End-to-end streaming tests: interleaved flows, replay determinism,
//! eviction and verdict plumbing.

use stepstone_adversary::{AdversaryPipeline, ChaffInjector, ChaffModel, UniformPerturbation};
use stepstone_core::{Algorithm, DecodeOptions, WatermarkCorrelator};
use stepstone_flow::{Flow, Packet, TimeDelta, Timestamp};
use stepstone_monitor::{FlowId, Monitor, MonitorConfig, PairId, UpstreamId, Verdict};
use stepstone_traffic::{InteractiveProfile, Seed, SessionGenerator};
use stepstone_watermark::{IpdWatermarker, Watermark, WatermarkKey, WatermarkParams};

fn interactive(n: usize, seed: u64) -> Flow {
    SessionGenerator::new(InteractiveProfile::ssh()).generate(
        n,
        Timestamp::ZERO,
        &mut Seed::new(seed).rng(0),
    )
}

fn attack(marked: &Flow, delta_s: i64, chaff_rate: f64, seed: u64) -> Flow {
    AdversaryPipeline::new()
        .then(UniformPerturbation::new(TimeDelta::from_secs(delta_s)))
        .then(ChaffInjector::new(ChaffModel::Poisson { rate: chaff_rate }))
        .apply(marked, Seed::new(seed))
}

struct Scenario {
    correlator: WatermarkCorrelator,
    original: Flow,
    marked: Flow,
}

fn scenario(seed: u64, n: usize, delta_s: i64) -> Scenario {
    let original = interactive(n, seed);
    let marker = IpdWatermarker::new(WatermarkKey::new(seed ^ 0xABC), WatermarkParams::small());
    let watermark = Watermark::random(8, &mut WatermarkKey::new(seed).rng(1));
    let marked = marker.embed(&original, &watermark).unwrap();
    let correlator = WatermarkCorrelator::new(
        marker,
        watermark,
        TimeDelta::from_secs(delta_s),
        Algorithm::GreedyPlus,
    );
    Scenario {
        correlator,
        original,
        marked,
    }
}

/// Merges `(flow, packet)` streams into one time-ordered event stream.
fn merge_streams(flows: &[(FlowId, &Flow)]) -> Vec<(FlowId, Packet)> {
    let mut events: Vec<(FlowId, Packet)> = flows
        .iter()
        .flat_map(|&(id, flow)| flow.packets().iter().map(move |&p| (id, p)))
        .collect();
    // Stable sort preserves per-flow packet order among equal stamps.
    events.sort_by_key(|&(_, p)| p.timestamp());
    events
}

#[test]
fn detects_attacked_downstream_among_decoys_live() {
    let s = scenario(11, 400, 2);
    let suspicious = attack(&s.marked, 2, 1.0, 11);
    assert!(suspicious.chaff_count() > 0);
    let decoys: Vec<Flow> = (0..3)
        .map(|i| attack(&interactive(400, 900 + i), 2, 1.0, i))
        .collect();

    let mut monitor = Monitor::new(MonitorConfig::default().with_decode_batch(64));
    monitor.register_upstream(
        UpstreamId(0),
        s.correlator.bind(&s.original, &s.marked).unwrap(),
    );

    let mut streams = vec![(FlowId(0), &suspicious)];
    for (i, d) in decoys.iter().enumerate() {
        streams.push((FlowId(1 + i as u64), d));
    }
    let mut verdicts = Vec::new();
    for (flow, packet) in merge_streams(&streams) {
        assert!(monitor.ingest(flow, packet));
        verdicts.extend(monitor.drain_verdicts());
    }
    let report = monitor.finish();
    verdicts.extend(report.verdicts);

    let target = PairId {
        upstream: UpstreamId(0),
        flow: FlowId(0),
    };
    assert!(
        verdicts
            .iter()
            .any(|v| v.is_correlated() && v.pair() == Some(target)),
        "true pair not detected: {verdicts:?}"
    );
    for v in &verdicts {
        if v.is_correlated() {
            assert_eq!(v.pair(), Some(target), "decoy falsely correlated: {v}");
        }
    }
    // Every pair got exactly one terminal word.
    let mut pairs: Vec<PairId> = verdicts.iter().filter_map(Verdict::pair).collect();
    pairs.sort();
    pairs.dedup();
    assert_eq!(pairs.len(), 4);

    let stats = report.stats;
    let total: u64 = streams.iter().map(|(_, f)| f.len() as u64).sum();
    assert_eq!(stats.packets_ingested, total);
    assert_eq!(stats.packets_rejected, 0);
    assert!(stats.decodes_run > 0);
    assert_eq!(stats.pairs_latched, 1);
    assert_eq!(stats.verdicts_emitted, verdicts.len() as u64);
}

#[test]
fn replays_give_identical_verdict_batches_and_stats() {
    // Eight robust relays of one upstream among four decoys, decoded
    // every four packets and drained every sixteen: latches land
    // mid-stream, so the drained batches pin when each verdict comes
    // out, not only which.
    let s = scenario(21, 200, 2);
    let bound = s
        .correlator
        .clone()
        .with_decode(DecodeOptions::robust(8))
        .bind(&s.original, &s.marked)
        .unwrap();
    let mut flows: Vec<Flow> = (0..8).map(|i| attack(&s.marked, 2, 0.5, 700 + i)).collect();
    flows.extend((0..4).map(|i| attack(&interactive(200, 800 + i), 2, 0.5, i)));
    let streams: Vec<(FlowId, &Flow)> = flows
        .iter()
        .enumerate()
        .map(|(i, f)| (FlowId(i as u64), f))
        .collect();
    let events = merge_streams(&streams);
    let run = || {
        let mut monitor = Monitor::new(MonitorConfig::default().with_decode_batch(4));
        monitor.register_upstream(UpstreamId(0), bound.clone());
        let mut batches = Vec::new();
        for (i, &(flow, packet)) in events.iter().enumerate() {
            assert!(monitor.ingest(flow, packet));
            if i % 16 == 15 {
                batches.push(monitor.drain_verdicts());
            }
        }
        let report = monitor.finish();
        (batches, report.verdicts, report.stats)
    };
    let first = run();
    assert!(
        first.0.iter().flatten().any(Verdict::is_correlated),
        "some relay latches mid-stream: {:?}",
        first.1
    );
    assert_eq!(first.2.pairs_latched, 8, "{}", first.2);
    for _ in 1..10 {
        assert_eq!(run(), first);
    }
}

#[test]
fn idle_flows_are_evicted_with_terminal_verdicts() {
    let s = scenario(31, 150, 2);
    let mut monitor = Monitor::new(
        MonitorConfig::default()
            .with_idle_timeout(TimeDelta::from_secs(30))
            .with_decode_batch(16),
    );
    monitor.register_upstream(
        UpstreamId(0),
        s.correlator.bind(&s.original, &s.marked).unwrap(),
    );
    let short_lived = attack(&interactive(200, 41), 2, 0.5, 1);
    for &p in short_lived.packets() {
        monitor.ingest(FlowId(5), p);
    }
    let mut verdicts = monitor.drain_verdicts();
    let last_seen = short_lived.last().unwrap().timestamp();
    assert_eq!(monitor.evict_idle(last_seen + TimeDelta::from_secs(10)), 0);
    assert_eq!(monitor.evict_idle(last_seen + TimeDelta::from_secs(60)), 1);
    let report = monitor.finish();
    verdicts.extend(report.verdicts);

    assert!(
        verdicts.iter().any(|v| matches!(
            v,
            Verdict::Evicted {
                flow: FlowId(5),
                ..
            }
        )),
        "missing eviction: {verdicts:?}"
    );
    // The evicted flow's pair still resolved terminally (cleared or
    // correlated, depending on what its decodes saw).
    let pair = PairId {
        upstream: UpstreamId(0),
        flow: FlowId(5),
    };
    assert_eq!(
        verdicts.iter().filter(|v| v.pair() == Some(pair)).count(),
        1,
        "exactly one terminal pair verdict expected: {verdicts:?}"
    );
    assert_eq!(report.stats.flows_evicted, 1);
    assert_eq!(report.stats.flows_active, 0);
}

#[test]
fn out_of_order_packets_are_rejected_and_counted() {
    let mut monitor = Monitor::new(MonitorConfig::default());
    let flow = FlowId(1);
    assert!(monitor.ingest(flow, Packet::new(Timestamp::from_secs(5), 64)));
    assert!(!monitor.ingest(flow, Packet::new(Timestamp::from_secs(1), 64)));
    // A different flow is unaffected by the first flow's clock.
    assert!(monitor.ingest(FlowId(2), Packet::new(Timestamp::from_secs(1), 64)));
    let stats = monitor.stats();
    assert_eq!(stats.packets_ingested, 2);
    assert_eq!(stats.packets_rejected, 1);
    assert_eq!(stats.flows_active, 2);
}

#[test]
#[should_panic(expected = "registered twice")]
fn duplicate_upstream_registration_panics() {
    let s = scenario(51, 150, 2);
    let bound = s.correlator.bind(&s.original, &s.marked).unwrap();
    let mut monitor = Monitor::new(MonitorConfig::default());
    monitor.register_upstream(UpstreamId(9), bound.clone());
    monitor.register_upstream(UpstreamId(9), bound);
}

#[test]
fn flush_verdicts_come_out_in_the_same_order_on_every_run() {
    // Six upstreams, each with its own attacked relay; the batch
    // outlasts the flows, so only the flush decodes.
    let run = || {
        let mut monitor = Monitor::new(MonitorConfig::default().with_decode_batch(1 << 20));
        let relays: Vec<Flow> = (0..6u64)
            .map(|i| {
                let s = scenario(40 + i, 300, 2);
                monitor.register_upstream(
                    UpstreamId(i),
                    s.correlator.bind(&s.original, &s.marked).unwrap(),
                );
                attack(&s.marked, 2, 1.0, 40 + i)
            })
            .collect();
        let streams: Vec<(FlowId, &Flow)> = relays
            .iter()
            .enumerate()
            .map(|(i, f)| (FlowId(i as u64), f))
            .collect();
        for (flow, packet) in merge_streams(&streams) {
            assert!(monitor.ingest(flow, packet));
            assert!(
                monitor.drain_verdicts().is_empty(),
                "no boundary before the flush"
            );
        }
        monitor.finish().verdicts
    };
    let first = run();
    assert_eq!(
        first.iter().filter(|v| v.is_correlated()).count(),
        6,
        "every relay latches in the flush: {first:?}"
    );
    for _ in 0..3 {
        assert_eq!(run(), first);
    }
}

#[test]
fn idle_eviction_verdicts_come_out_in_the_same_order_on_every_run() {
    let run = || {
        let mut monitor = Monitor::new(
            MonitorConfig::default()
                .with_idle_timeout(TimeDelta::from_secs(1))
                .with_decode_batch(1 << 20),
        );
        for flow in 0..8u64 {
            let packet = Packet::new(Timestamp::from_micros(flow as i64), 64);
            assert!(monitor.ingest(FlowId(flow), packet));
        }
        assert_eq!(monitor.evict_idle(Timestamp::from_secs(10)), 8);
        monitor.drain_verdicts()
    };
    let first = run();
    assert_eq!(first.len(), 8);
    for _ in 0..3 {
        assert_eq!(run(), first);
    }
}

#[test]
fn sparse_and_extreme_flow_ids_give_the_dense_verdicts() {
    // The flow table hashes ids unkeyed; no id, however sparse or
    // large, may change what is decoded or said. The same stream runs
    // under dense ids and under order-preserving relabellings, with
    // latches mid-stream, idle eviction and the flush all emitting.
    let s = scenario(31, 200, 2);
    let bound = s
        .correlator
        .clone()
        .with_decode(DecodeOptions::robust(8))
        .bind(&s.original, &s.marked)
        .unwrap();
    let mut flows: Vec<Flow> = (0..6).map(|i| attack(&s.marked, 2, 0.5, 300 + i)).collect();
    flows.extend((0..6).map(|i| attack(&interactive(200, 400 + i), 2, 0.5, i)));
    let n = flows.len() as u64;
    let run = |label: &dyn Fn(u64) -> u64| {
        let streams: Vec<(FlowId, &Flow)> = flows
            .iter()
            .enumerate()
            .map(|(k, f)| (FlowId(label(k as u64)), f))
            .collect();
        let mut monitor = Monitor::new(
            MonitorConfig::default()
                .with_decode_batch(4)
                .with_idle_timeout(TimeDelta::from_secs(20)),
        );
        monitor.register_upstream(UpstreamId(0), bound.clone());
        let mut verdicts = Vec::new();
        for (flow, packet) in merge_streams(&streams) {
            assert!(monitor.ingest(flow, packet));
            verdicts.extend(monitor.drain_verdicts());
        }
        let report = monitor.finish();
        verdicts.extend(report.verdicts);
        // Back to dense ids, whole tokens only: no label of a flow past
        // the first is a small number.
        let mut text = format!("{verdicts:?}\n{:?}", report.stats);
        for k in 0..n {
            text = text.replace(&format!("FlowId({})", label(k)), &format!("FlowId({k})"));
        }
        text
    };
    let dense = run(&|k| k);
    assert!(dense.contains("Correlated"), "{dense}");
    assert!(dense.contains("Evicted"), "{dense}");
    let relabellings: [(&str, &dyn Fn(u64) -> u64); 3] = [
        ("strided", &|k| k * 1_000_003),
        ("past 2^32", &|k| (1 << 32) + k),
        ("up to u64::MAX", &|k| u64::MAX - (n - 1 - k)),
    ];
    for (name, label) in relabellings {
        assert_eq!(run(label), dense, "{name} ids");
    }
}

#[test]
fn a_settled_decoy_parks_until_finish() {
    // A strict upstream, its relay, and a decoy that starts a minute in:
    // the upstream's first matching set is closed and empty at the
    // decoy's first boundary, so the pair settles there and parks for
    // the rest of the decoy's packets.
    let s = scenario(61, 200, 2);
    let bound = s.correlator.bind(&s.original, &s.marked).unwrap();
    let min_window = bound.upstream().len();
    let relay = attack(&s.marked, 2, 0.5, 61);
    let decoy = attack(&interactive(600, 62), 2, 0.5, 62).shifted(TimeDelta::from_secs(60));
    let decoy_pair = PairId {
        upstream: UpstreamId(0),
        flow: FlowId(1),
    };
    let mut monitor = Monitor::new(MonitorConfig::default().with_decode_batch(16));
    monitor.register_upstream(UpstreamId(0), bound);
    let mut decoy_pushed = 0;
    let mut parked_at_first_boundary = false;
    let mut verdicts = Vec::new();
    for (flow, packet) in merge_streams(&[(FlowId(0), &relay), (FlowId(1), &decoy)]) {
        assert!(monitor.ingest(flow, packet));
        verdicts.extend(monitor.drain_verdicts());
        let stats = monitor.stats();
        assert!(stats.pairs_parked <= stats.pairs_active, "{stats:?}");
        if flow == FlowId(1) {
            decoy_pushed += 1;
            if decoy_pushed == min_window {
                parked_at_first_boundary = stats.pairs_parked == 1;
            }
        }
    }
    assert!(parked_at_first_boundary, "the decoy did not park");
    assert_eq!(monitor.stats().pairs_parked, 1);
    let registry = monitor.registry();
    let report = monitor.finish();
    assert_eq!(report.stats.pairs_parked, 0, "{:?}", report.stats);
    // The flush gives the decoy its verdict, which takes it off the
    // active gauge, on `/metrics` too.
    assert_eq!(report.stats.pairs_active, 0, "{:?}", report.stats);
    assert!(registry
        .render_prometheus()
        .lines()
        .any(|line| line == "monitor_pairs_active 0"));
    verdicts.extend(report.verdicts);
    // Its parked boundaries still count as decodes: one at the first
    // boundary, one every 16 packets after it, and one at the flush.
    let boundaries = (decoy.len() - min_window) / 16 + 1;
    let flush = usize::from(!(decoy.len() - min_window).is_multiple_of(16));
    assert!(
        verdicts.contains(&Verdict::Cleared {
            pair: decoy_pair,
            hamming: None,
            decodes: (boundaries + flush) as u32,
        }),
        "{verdicts:?}"
    );
}
