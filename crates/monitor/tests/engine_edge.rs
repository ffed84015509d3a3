//! Edge cases for the engine: a flush that carries the whole workload,
//! latching, contained decode panics, eviction, and degenerate
//! (empty/undersized) inputs.

use std::collections::BTreeMap;

use stepstone_adversary::{AdversaryPipeline, ChaffInjector, ChaffModel, UniformPerturbation};
use stepstone_core::{Algorithm, BoundCorrelator, DecodeOptions, WatermarkCorrelator};
use stepstone_flow::{Flow, Packet, TimeDelta, Timestamp};
use stepstone_monitor::{
    DecodeFault, FaultHook, FlowId, Monitor, MonitorConfig, PairId, UpstreamId, Verdict,
};
use stepstone_traffic::{InteractiveProfile, Seed, SessionGenerator};
use stepstone_watermark::{IpdWatermarker, Watermark, WatermarkKey, WatermarkParams};

fn interactive(n: usize, seed: u64) -> Flow {
    SessionGenerator::new(InteractiveProfile::ssh()).generate(
        n,
        Timestamp::ZERO,
        &mut Seed::new(seed).rng(0),
    )
}

fn attack(marked: &Flow, seed: u64) -> Flow {
    AdversaryPipeline::new()
        .then(UniformPerturbation::new(TimeDelta::from_secs(2)))
        .then(ChaffInjector::new(ChaffModel::Poisson { rate: 0.5 }))
        .apply(marked, Seed::new(seed))
}

/// A watermarked upstream flow of `n` packets and its bound correlator.
fn upstream(n: usize, seed: u64, decode: DecodeOptions) -> (BoundCorrelator, Flow) {
    let original = interactive(n, seed);
    let marker = IpdWatermarker::new(WatermarkKey::new(seed ^ 0xABC), WatermarkParams::small());
    let watermark = Watermark::random(8, &mut WatermarkKey::new(seed).rng(1));
    let marked = marker.embed(&original, &watermark).unwrap();
    let correlator = WatermarkCorrelator::new(
        marker,
        watermark,
        TimeDelta::from_secs(2),
        Algorithm::GreedyPlus,
    )
    .with_decode(decode);
    (correlator.bind(&original, &marked).unwrap(), marked)
}

/// A monitor with one registered upstream built from `n` packets.
fn monitor_with_upstream(config: MonitorConfig, n: usize, seed: u64) -> (Monitor, Flow) {
    let (correlator, marked) = upstream(n, seed, DecodeOptions::strict());
    let mut monitor = Monitor::new(config);
    monitor.register_upstream(UpstreamId(0), correlator);
    (monitor, marked)
}

/// Asserts every `(upstream, flow)` pair got exactly one terminal
/// verdict (`Correlated` or `Cleared`).
fn assert_one_terminal_verdict_per_pair(verdicts: &[Verdict], expected_pairs: usize) {
    let mut per_pair: BTreeMap<PairId, usize> = BTreeMap::new();
    for v in verdicts {
        if let Some(pair) = v.pair() {
            *per_pair.entry(pair).or_default() += 1;
        }
    }
    assert_eq!(
        per_pair.len(),
        expected_pairs,
        "pair coverage mismatch: {per_pair:?}"
    );
    for (pair, count) in per_pair {
        assert_eq!(count, 1, "pair {pair:?} got {count} terminal verdicts");
    }
}

/// Shutdown with every decode still pending: `decode_batch` is set
/// above the stream length so ingest decodes nothing, then `finish`
/// must decode once per pair without losing one.
#[test]
fn finish_flushes_every_pair() {
    const FLOWS: usize = 8;
    let (mut monitor, marked) = monitor_with_upstream(
        MonitorConfig::default().with_decode_batch(1_000_000),
        200,
        7,
    );
    for i in 0..FLOWS {
        let flow = attack(&marked, 100 + i as u64);
        for &p in flow.packets() {
            monitor.ingest(FlowId(i as u64), p);
        }
    }
    // Nothing ran during ingest: the whole workload lands on finish().
    let before = monitor.stats();
    assert_eq!(before.decodes_run, 0, "{before}");
    assert_eq!(before.pairs_active, FLOWS);

    let report = monitor.finish();
    assert_one_terminal_verdict_per_pair(&report.verdicts, FLOWS);
    let stats = report.stats;
    assert_eq!(stats.decodes_run, FLOWS as u64, "{stats}");
    assert_eq!(stats.decode_panics, 0);
    assert_eq!(stats.verdicts_emitted, report.verdicts.len() as u64);
}

/// An upstream registered while flows are already tracked must still
/// pair with each of them. Ingest skips a flow's upstream walk until its
/// next decode boundary, and with `decode_batch` above the stream length
/// that boundary never comes, so registration has to re-arm the walk:
/// every (upstream, flow) pair then gets exactly one terminal verdict,
/// and the late upstream's true downstream is detected at the flush.
#[test]
fn upstream_registered_mid_stream_pairs_with_tracked_flows() {
    const FLOWS: usize = 4;
    let (mut monitor, marked) = monitor_with_upstream(
        MonitorConfig::default().with_decode_batch(1_000_000),
        200,
        21,
    );
    let (late, late_marked) = upstream(200, 22, DecodeOptions::strict());
    let flows: Vec<Flow> = (0..FLOWS)
        .map(|i| match i {
            0 => attack(&late_marked, 500),
            _ => attack(&marked, 500 + i as u64),
        })
        .collect();
    for (i, flow) in flows.iter().enumerate() {
        for &p in &flow.packets()[..flow.len() / 2] {
            monitor.ingest(FlowId(i as u64), p);
        }
    }
    assert_eq!(monitor.stats().pairs_active, FLOWS);
    monitor.register_upstream(UpstreamId(1), late);
    for (i, flow) in flows.iter().enumerate() {
        for &p in &flow.packets()[flow.len() / 2..] {
            monitor.ingest(FlowId(i as u64), p);
        }
    }
    assert_eq!(monitor.stats().pairs_active, 2 * FLOWS);
    let report = monitor.finish();
    assert_one_terminal_verdict_per_pair(&report.verdicts, 2 * FLOWS);
    let late_pair = PairId {
        upstream: UpstreamId(1),
        flow: FlowId(0),
    };
    assert!(
        report
            .verdicts
            .iter()
            .any(|v| v.is_correlated() && v.pair() == Some(late_pair)),
        "the late upstream's downstream must be detected: {:?}",
        report.verdicts
    );
}

/// A pair is decoded at every boundary until a decode correlates; the
/// latch emits its verdict before `ingest` returns, and the pair gets
/// no further decode however long its flow keeps sending. Every decode
/// is one sample of the decode-latency histogram.
#[test]
fn a_latched_pair_gets_no_further_decode() {
    let (mut monitor, marked) =
        monitor_with_upstream(MonitorConfig::default().with_decode_batch(1), 200, 7);
    let downstream = attack(&marked, 100);
    let last = downstream.last().unwrap().timestamp();
    let tail = (1..=40).map(|k| Packet::new(last + TimeDelta::from_secs(k), 64));
    let mut latched_at = None;
    let mut verdicts = Vec::new();
    for p in downstream.iter().copied().chain(tail) {
        monitor.ingest(FlowId(0), p);
        verdicts.extend(monitor.drain_verdicts());
        if latched_at.is_none() && !verdicts.is_empty() {
            latched_at = Some(monitor.stats().decodes_run);
        }
    }
    let latched_at = latched_at.expect("the true downstream latches during ingest");
    let registry = monitor.registry();
    let report = monitor.finish();
    verdicts.extend(report.verdicts);
    assert_one_terminal_verdict_per_pair(&verdicts, 1);
    assert!(verdicts[0].is_correlated(), "{verdicts:?}");
    let stats = report.stats;
    assert_eq!(stats.decodes_run, latched_at, "{stats}");
    let sampled = registry
        .histogram("monitor_decode_latency_micros", "")
        .snapshot()
        .count();
    assert_eq!(sampled, stats.decodes_run, "{stats}");
}

/// A flow evicted after its pair latched and then tracked again under
/// the same id is judged afresh: the second tracking's windows are
/// decoded and the true downstream latches again.
#[test]
fn a_flow_tracked_again_after_eviction_is_decoded_again() {
    let (mut monitor, marked) = monitor_with_upstream(
        MonitorConfig::default()
            .with_decode_batch(8)
            .with_idle_timeout(TimeDelta::from_secs(60)),
        200,
        7,
    );
    let downstream = attack(&marked, 100);
    let last = downstream.last().unwrap().timestamp();
    let tail: Vec<Packet> = (1..=40)
        .map(|k| Packet::new(last + TimeDelta::from_secs(k), 64))
        .collect();
    let pair = PairId {
        upstream: UpstreamId(0),
        flow: FlowId(0),
    };
    let mut verdicts = Vec::new();
    for round in 0..2 {
        for &p in downstream.iter().chain(&tail) {
            monitor.ingest(FlowId(0), p);
        }
        verdicts.extend(monitor.drain_verdicts());
        let latched = verdicts
            .iter()
            .filter(|v| v.is_correlated() && v.pair() == Some(pair))
            .count();
        assert_eq!(latched, round + 1, "round {round}: {verdicts:?}");
        let idle = last + TimeDelta::from_secs(3600);
        assert_eq!(monitor.evict_idle(idle), 1);
    }
    verdicts.extend(monitor.finish().verdicts);
    let latched = verdicts
        .iter()
        .filter(|v| v.is_correlated() && v.pair() == Some(pair))
        .count();
    assert_eq!(latched, 2, "{verdicts:?}");
}

/// A decode that panics on the ingest thread is contained: ingest
/// carries on, the panic is counted once (in the stats and on
/// `/metrics`), the pair it hit still ends with exactly one terminal
/// verdict, and the decodes after it run normally: the pair it hit is
/// decoded again at its next boundary, and every true downstream
/// latches.
#[test]
fn a_panicking_decode_is_contained_on_the_ingest_thread() {
    const PANIC_AT: u64 = 1;
    const FLOWS: usize = 3;
    let hook = FaultHook::new(|seq, _pair| {
        if seq == PANIC_AT {
            DecodeFault::Panic
        } else {
            DecodeFault::None
        }
    });
    let (mut monitor, marked) = monitor_with_upstream(
        MonitorConfig::default()
            .with_decode_batch(4)
            .with_fault_hook(hook),
        200,
        7,
    );
    let flows: Vec<Flow> = (0..FLOWS)
        .map(|i| attack(&marked, 100 + i as u64))
        .collect();
    let mut total = 0u64;
    for (i, flow) in flows.iter().enumerate() {
        for &p in flow.packets() {
            assert!(monitor.ingest(FlowId(i as u64), p));
            total += 1;
        }
    }
    let registry = monitor.registry();
    let report = monitor.finish();
    assert_one_terminal_verdict_per_pair(&report.verdicts, FLOWS);
    let stats = report.stats;
    assert_eq!(stats.packets_ingested, total);
    assert_eq!(stats.decode_panics, 1, "{stats}");
    assert!(stats.decodes_run > PANIC_AT + 1, "{stats}");
    assert_eq!(stats.pairs_latched, FLOWS as u64, "{stats}");
    let rendered = registry.render_prometheus();
    assert!(
        rendered
            .lines()
            .any(|l| l == "monitor_decode_panics_total 1"),
        "{rendered}"
    );
}

/// `finish` on an engine that saw no packets (and one that saw no
/// upstreams) returns an empty, internally consistent report.
#[test]
fn finish_on_idle_engines_is_empty_and_consistent() {
    let report = Monitor::new(MonitorConfig::default()).finish();
    assert!(report.verdicts.is_empty());
    assert_eq!(report.stats.decodes_run, 0);
    assert!(report.stats.queue_depths.is_empty());

    let (monitor, _) = monitor_with_upstream(MonitorConfig::default(), 150, 13);
    let report = monitor.finish();
    assert!(report.verdicts.is_empty(), "{:?}", report.verdicts);

    // No upstreams registered: flows are tracked but produce no pairs.
    let mut monitor = Monitor::new(MonitorConfig::default());
    for i in 0..50 {
        monitor.ingest(FlowId(1), Packet::new(Timestamp::from_secs(i), 64));
    }
    let report = monitor.finish();
    assert!(report.verdicts.is_empty());
    assert_eq!(report.stats.packets_ingested, 50);
    assert_eq!(report.stats.pairs_active, 0);
}

/// The ingested-packet counter is published in batches: mid-run the
/// registry lags the stats by fewer than 256 packets, and `finish`
/// publishes the rest.
#[test]
fn packets_ingested_is_exact_in_stats_and_published_by_finish() {
    let mut monitor = Monitor::new(MonitorConfig::default());
    let registry = monitor.registry();
    let published = || registry.counter("monitor_packets_ingested_total", "").get();
    for i in 0..600 {
        assert!(monitor.ingest(FlowId(1), Packet::new(Timestamp::from_millis(i), 64)));
        let exact = i as u64 + 1;
        assert_eq!(monitor.stats().packets_ingested, exact);
        assert!(published() <= exact && exact - published() < 256);
    }
    assert!(published() > 0, "published while ingesting");
    let report = monitor.finish();
    assert_eq!(report.stats.packets_ingested, 600);
    assert_eq!(published(), 600, "finish publishes the rest");
}

/// A flow far shorter than the upstream can never host a complete
/// matching; the engine must not decode it, yet its pair still
/// resolves to `Cleared { decodes: 0 }` at shutdown.
#[test]
fn undersized_flow_clears_without_decoding() {
    let (mut monitor, marked) =
        monitor_with_upstream(MonitorConfig::default().with_decode_batch(1), 300, 17);
    let short = attack(&marked, 23);
    for &p in short.packets().iter().take(20) {
        monitor.ingest(FlowId(0), p);
    }
    let report = monitor.finish();
    assert_eq!(report.stats.decodes_run, 0, "{}", report.stats);
    let pair = PairId {
        upstream: UpstreamId(0),
        flow: FlowId(0),
    };
    assert!(
        report.verdicts.iter().any(|v| matches!(
            v,
            Verdict::Cleared { pair: p, decodes: 0, .. } if *p == pair
        )),
        "expected an undecoded Cleared verdict: {:?}",
        report.verdicts
    );
}

/// Eviction right after the last packets' decodes: the evicted pair
/// gets exactly one terminal verdict, and shutdown adds none.
#[test]
fn eviction_after_a_decode_resolves_the_pair_once() {
    let (mut monitor, marked) = monitor_with_upstream(
        MonitorConfig::default()
            .with_idle_timeout(TimeDelta::from_secs(30))
            .with_decode_batch(1),
        200,
        29,
    );
    let flow = attack(&marked, 31);
    let mut last = Timestamp::ZERO;
    for &p in flow.packets() {
        monitor.ingest(FlowId(3), p);
        last = p.timestamp();
    }
    let evicted = monitor.evict_idle(last + TimeDelta::from_secs(60));
    assert_eq!(evicted, 1);
    let report = monitor.finish();
    let pair = PairId {
        upstream: UpstreamId(0),
        flow: FlowId(3),
    };
    assert_eq!(
        report
            .verdicts
            .iter()
            .filter(|v| v.pair() == Some(pair))
            .count(),
        1,
        "exactly one terminal verdict for the evicted pair: {:?}",
        report.verdicts
    );
    assert_eq!(report.stats.flows_evicted, 1);
}

/// The graceful-degradation ladder: under `--decode robust` a pair
/// whose erasure demand exceeds the budget must never end `Cleared` —
/// the shutdown sweep turns the would-be clean negative into
/// `Degraded(ErasureBudget)`, while a genuinely matching (if lossy)
/// flow still correlates.
#[test]
fn blown_erasure_budget_degrades_instead_of_clearing() {
    use stepstone_core::DecodeOptions;
    use stepstone_monitor::DegradeReason;

    let n = 400;
    let original = interactive(n, 11);
    let marker = IpdWatermarker::new(WatermarkKey::new(11 ^ 0xABC), WatermarkParams::small());
    let watermark = Watermark::random(8, &mut WatermarkKey::new(11).rng(1));
    let marked = marker.embed(&original, &watermark).unwrap();
    let correlator = WatermarkCorrelator::new(
        marker,
        watermark,
        TimeDelta::from_secs(2),
        Algorithm::GreedyPlus,
    )
    .with_decode(DecodeOptions::robust(40));
    let mut monitor = Monitor::new(MonitorConfig::default());
    monitor.register_upstream(UpstreamId(0), correlator.bind(&original, &marked).unwrap());

    // Flow 0: the marked flow with a 30-packet burst deleted. The burst
    // spans far more than Δ, so the affected slots have genuinely empty
    // matching sets — erasures within budget; the pair must still
    // correlate on the surviving bits.
    let lossy = Flow::from_packets(
        marked
            .packets()
            .iter()
            .enumerate()
            .filter(|(i, _)| !(100..130).contains(i))
            .map(|(_, &p)| p),
    )
    .unwrap();
    for &p in lossy.packets() {
        monitor.ingest(FlowId(0), p);
    }
    // Flow 1: an unrelated flow — its erasure demand dwarfs the budget.
    let decoy = interactive(n + 40, 999);
    for &p in decoy.packets() {
        monitor.ingest(FlowId(1), p);
    }

    let report = monitor.finish();
    assert_one_terminal_verdict_per_pair(&report.verdicts, 2);
    let mut correlated = 0;
    let mut degraded = 0;
    for v in &report.verdicts {
        match v {
            Verdict::Correlated { pair, .. } => {
                assert_eq!(pair.flow, FlowId(0), "only the lossy copy correlates");
                correlated += 1;
            }
            Verdict::Degraded { pair, reason } => {
                assert_eq!(pair.flow, FlowId(1), "only the decoy degrades");
                assert!(
                    matches!(reason, DegradeReason::ErasureBudget { erasures, .. } if *erasures > 40),
                    "unexpected degrade reason {reason}"
                );
                degraded += 1;
            }
            Verdict::Cleared { pair, .. } => {
                panic!("pair {pair:?} cleared despite a blown erasure budget")
            }
            Verdict::Evicted { .. } => {}
        }
    }
    assert_eq!((correlated, degraded), (1, 1), "{:?}", report.verdicts);
}
