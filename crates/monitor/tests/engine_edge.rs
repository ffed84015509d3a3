//! Shutdown and backpressure edge cases for the engine: a flush that
//! starts with full shard queues, drop-count conservation, and
//! degenerate (empty/undersized) inputs.

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

/// Shutdown with every decode still pending and room for only one job
/// per shard: `decode_batch` is set above the stream length so ingest
/// schedules nothing, then `finish` must flush one decode per pair
/// through a single-slot queue via blocking pushes — without losing a
/// pair, leaking a queue slot, or deadlocking on the completion stream.
#[test]
fn finish_flushes_every_pair_through_full_single_slot_queues() {
    const FLOWS: usize = 8;
    let (mut monitor, marked) = monitor_with_upstream(
        MonitorConfig::default()
            .with_shards(2)
            .with_queue_capacity(1)
            .with_decode_batch(1_000_000),
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
    assert_eq!(before.decodes_scheduled, 0, "{before}");
    assert_eq!(before.pairs_active, FLOWS);

    let report = monitor.finish();
    assert_one_terminal_verdict_per_pair(&report.verdicts, FLOWS);
    let stats = report.stats;
    assert_eq!(
        stats.decodes_scheduled, stats.decodes_run,
        "every accepted flush job must complete: {stats}"
    );
    assert_eq!(stats.decodes_scheduled, FLOWS as u64);
    assert_eq!(stats.queue_depths, vec![0, 0], "queues must drain: {stats}");
    assert_eq!(stats.worker_panics, 0);
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

/// Under the deterministic schedule a pair gets a job at every
/// boundary, even while an earlier one is queued. Once a decode
/// correlates, the worker answers the pair's later jobs without
/// decoding them: with the first decode held up, a true downstream
/// that keeps sending queues many jobs behind it, yet only the first is
/// decoded, every job still completes, and the pair gets exactly one
/// `Correlated` verdict.
#[test]
fn jobs_behind_a_latching_decode_are_not_decoded() {
    let hook = FaultHook::new(|seq, _pair| match seq {
        0 => DecodeFault::Sleep(50_000),
        _ => DecodeFault::None,
    });
    let (mut monitor, marked) = monitor_with_upstream(
        MonitorConfig::default()
            .with_decode_batch(1)
            .with_deterministic_schedule()
            .with_fault_hook(hook),
        200,
        7,
    );
    let downstream = attack(&marked, 100);
    let last = downstream.last().unwrap().timestamp();
    let tail = (1..=40).map(|k| Packet::new(last + TimeDelta::from_secs(k), 64));
    for p in downstream.iter().copied().chain(tail) {
        monitor.ingest(FlowId(0), p);
    }
    let registry = monitor.registry();
    let report = monitor.finish();
    assert_one_terminal_verdict_per_pair(&report.verdicts, 1);
    assert!(report.verdicts[0].is_correlated(), "{:?}", report.verdicts);
    let stats = report.stats;
    assert_eq!(stats.decodes_scheduled, stats.decodes_run, "{stats}");
    assert!(stats.decodes_run >= 40, "{stats}");
    let decoded = registry
        .histogram("monitor_decode_latency_micros", "")
        .snapshot()
        .count();
    assert_eq!(decoded, 1, "{stats}");
}

/// A flow evicted after its pair latched and then tracked again under
/// the same id is judged afresh: the worker's memory of the latched
/// pair belongs to the first tracking, so the second one's jobs are
/// decoded and the true downstream latches again.
#[test]
fn a_flow_tracked_again_after_eviction_is_decoded_again() {
    let (mut monitor, marked) = monitor_with_upstream(
        MonitorConfig::default()
            .with_decode_batch(8)
            .with_deterministic_schedule()
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
        // Wait for the latch, then let the flow go idle.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while verdicts
            .iter()
            .filter(|v: &&Verdict| v.is_correlated() && v.pair() == Some(pair))
            .nth(round)
            .is_none()
        {
            assert!(
                std::time::Instant::now() < deadline,
                "round {round}: {verdicts:?}"
            );
            verdicts.extend(monitor.drain_verdicts());
            std::thread::yield_now();
        }
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

/// Heavy backpressure: drops are counted, but accepted work is
/// conserved — after `finish`, scheduled = run, the queues are empty,
/// and no pair is left without a verdict. The decode is robust, which
/// the engine never screens: strict decodes are screened until a
/// window reaches the upstream's last packet, which leaves too few
/// jobs to fill the queue reliably.
#[test]
fn drop_accounting_is_conserved_under_backpressure() {
    const FLOWS: usize = 6;
    let (correlator, marked) = upstream(200, 9, DecodeOptions::robust(8));
    let mut monitor = Monitor::new(
        MonitorConfig::default()
            .with_shards(1)
            .with_queue_capacity(1)
            .with_decode_batch(1),
    );
    monitor.register_upstream(UpstreamId(0), correlator);
    let mut total_packets = 0u64;
    for i in 0..FLOWS {
        let flow = attack(&marked, 300 + i as u64);
        total_packets += flow.len() as u64;
        for &p in flow.packets() {
            monitor.ingest(FlowId(i as u64), p);
        }
    }
    let mid = monitor.stats();
    assert!(mid.decodes_dropped > 0, "expected drops: {mid}");
    assert_eq!(mid.packets_ingested, total_packets);

    let report = monitor.finish();
    assert_one_terminal_verdict_per_pair(&report.verdicts, FLOWS);
    let stats = report.stats;
    assert_eq!(stats.decodes_scheduled, stats.decodes_run, "{stats}");
    assert_eq!(stats.queue_depths, vec![0], "{stats}");
    // Drops never shrink across the flush (finish blocks, not drops).
    assert!(stats.decodes_dropped >= mid.decodes_dropped);
    assert_eq!(stats.worker_panics, 0);
}

/// `finish` on an engine that saw no packets (and one that saw no
/// upstreams) returns an empty, internally consistent report.
#[test]
fn finish_on_idle_engines_is_empty_and_consistent() {
    let report = Monitor::new(MonitorConfig::default()).finish();
    assert!(report.verdicts.is_empty());
    assert_eq!(report.stats.decodes_scheduled, 0);
    assert_eq!(report.stats.queue_depths, vec![0]);

    let (monitor, _) = monitor_with_upstream(MonitorConfig::default().with_shards(3), 150, 13);
    let report = monitor.finish();
    assert!(report.verdicts.is_empty(), "{:?}", report.verdicts);
    assert_eq!(report.stats.queue_depths, vec![0, 0, 0]);

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
    assert_eq!(report.stats.decodes_scheduled, 0, "{}", report.stats);
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

/// Eviction racing an in-flight decode: the orphaned pair's completion
/// still produces exactly one terminal verdict, and shutdown leaves no
/// orphan behind.
#[test]
fn eviction_with_inflight_decode_still_resolves_the_pair() {
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
    // Evict immediately after ingest: a decode scheduled by the last
    // packets is likely still in flight, exercising the orphan path.
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
    assert_eq!(report.stats.decodes_scheduled, report.stats.decodes_run);
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
    let mut monitor = Monitor::new(MonitorConfig::default().with_shards(1));
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
