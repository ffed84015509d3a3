//! Survival tests for the supervised engine: worker kills, contained
//! panics, stalls, and load shedding all end with the books balanced
//! and **every registered pair holding exactly one terminal verdict**
//! — the engine never silently drops a pair, no matter what dies.
//!
//! Faults are injected through [`FaultHook`] oracles written inline
//! (the `stepstone-chaos` crate layers seeded schedules on top of the
//! same hook, but depends on this crate, so these tests stay
//! hook-level).

use std::collections::HashMap;
use std::time::Duration;

use rand::Rng;
use stepstone_core::{Algorithm, DecodeOptions, WatermarkCorrelator};
use stepstone_flow::{Flow, TimeDelta, Timestamp};
use stepstone_monitor::{
    DecodeFault, FaultHook, FlowId, Monitor, MonitorConfig, MonitorReport, PairId, UpstreamId,
    Verdict,
};
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

/// A deterministic flow from a seed with irregular spacing.
fn seeded_flow(seed: u64, packets: usize) -> Flow {
    let mut rng = Seed::new(seed).rng(0);
    let mut t = 0i64;
    let timestamps = (0..packets).map(|_| {
        t += rng.gen_range(50_000..2_000_000);
        Timestamp::from_micros(t)
    });
    Flow::from_timestamps(timestamps).unwrap()
}

/// Builds a monitor with one registered upstream and returns the
/// watermarked flow to feed it.
fn marked_monitor(seed: u64, config: MonitorConfig) -> (Monitor, Flow) {
    let original = seeded_flow(seed, 60);
    let marker = IpdWatermarker::new(WatermarkKey::new(seed ^ 77), tiny_params());
    let watermark = Watermark::random(4, &mut WatermarkKey::new(seed).rng(1));
    let marked = marker.embed(&original, &watermark).unwrap();
    let correlator = WatermarkCorrelator::new(
        marker,
        watermark,
        TimeDelta::from_secs(3),
        Algorithm::GreedyPlus,
    );
    let mut monitor = Monitor::new(config.with_window_capacity(marked.len()));
    monitor.register_upstream(UpstreamId(0), correlator.bind(&original, &marked).unwrap());
    (monitor, marked)
}

/// Asserts every registered pair got exactly one terminal verdict
/// (`Correlated`, `Cleared`, or `Degraded`) across the whole run.
fn assert_one_terminal_per_pair(all_verdicts: &[Verdict], flows: usize) {
    let mut terminal: HashMap<PairId, usize> = HashMap::new();
    for verdict in all_verdicts {
        if let Some(pair) = verdict.pair() {
            *terminal.entry(pair).or_insert(0) += 1;
        }
    }
    for flow in 0..flows {
        let pair = PairId {
            upstream: UpstreamId(0),
            flow: FlowId(flow as u64),
        };
        assert_eq!(
            terminal.get(&pair),
            Some(&1),
            "pair {pair} must have exactly one terminal verdict; got {terminal:?}"
        );
    }
    assert_eq!(terminal.len(), flows, "no verdicts for unknown pairs");
}

/// Feeds `flows` copies of `marked` into the monitor, draining (and
/// collecting) verdicts as it goes, then finishes.
fn run_to_report(
    mut monitor: Monitor,
    marked: &Flow,
    flows: usize,
) -> (Vec<Verdict>, MonitorReport) {
    let mut live = Vec::new();
    for flow in 0..flows {
        for &packet in marked.packets() {
            monitor.ingest(FlowId(flow as u64), packet);
        }
        live.extend(monitor.drain_verdicts());
    }
    let report = monitor.finish();
    (live, report)
}

#[test]
fn killed_worker_is_restarted_and_no_pair_is_lost() {
    // The very first decode kills its worker; everything after runs
    // clean. The supervisor must bring the shard back and the engine
    // must still resolve every pair.
    let hook = FaultHook::new(|seq, _pair| {
        if seq == 0 {
            DecodeFault::KillWorker
        } else {
            DecodeFault::None
        }
    });
    let config = MonitorConfig::default()
        .with_shards(1)
        .with_decode_batch(8)
        .with_fault_hook(hook)
        .with_restart_backoff(Duration::from_millis(1), Duration::from_millis(10));
    let (monitor, marked) = marked_monitor(42, config);
    let registry = monitor.registry();
    let (live, report) = run_to_report(monitor, &marked, 3);

    let stats = &report.stats;
    assert!(
        stats.worker_restarts >= 1,
        "the killed worker must be respawned: {stats}"
    );
    assert_eq!(
        stats.jobs_lost, 1,
        "exactly the killed decode is lost: {stats}"
    );
    // Conservation with losses: every dequeued job completed or died.
    assert_eq!(
        stats.queue_dequeued,
        stats.decodes_run + stats.jobs_lost,
        "{stats}"
    );
    assert_eq!(stats.queue_depths.iter().sum::<usize>(), 0, "{stats}");

    let mut all = live;
    all.extend(report.verdicts.iter().cloned());
    assert_one_terminal_per_pair(&all, 3);

    // The restart is visible on the wire format the dashboards scrape.
    let rendered = registry.render_prometheus();
    let restarts_line = rendered
        .lines()
        .find(|l| l.starts_with("monitor_worker_restarts_total"))
        .expect("restart counter must be exported");
    let value: f64 = restarts_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(value >= 1.0, "{restarts_line}");
}

#[test]
fn contained_panic_resolves_the_pair_without_a_restart() {
    // The first decode panics *inside* containment: the worker
    // survives, the decode reports as failed, and no restart happens.
    let hook = FaultHook::new(|seq, _pair| {
        if seq == 0 {
            DecodeFault::Panic
        } else {
            DecodeFault::None
        }
    });
    let config = MonitorConfig::default()
        .with_shards(1)
        .with_decode_batch(8)
        .with_fault_hook(hook);
    let (monitor, marked) = marked_monitor(7, config);
    let (live, report) = run_to_report(monitor, &marked, 2);

    let stats = &report.stats;
    assert_eq!(stats.worker_panics, 1, "{stats}");
    assert_eq!(
        stats.worker_restarts, 0,
        "contained panics keep the worker: {stats}"
    );
    assert_eq!(stats.jobs_lost, 0, "{stats}");
    assert_eq!(stats.queue_dequeued, stats.decodes_run, "{stats}");

    let mut all = live;
    all.extend(report.verdicts.iter().cloned());
    assert_one_terminal_per_pair(&all, 2);
}

#[test]
fn repeated_kills_still_converge() {
    // Every fourth decode kills the worker — the respawn loop must keep
    // up and shutdown must still drain every queue.
    let hook = FaultHook::new(|seq, _pair| {
        if seq.is_multiple_of(4) {
            DecodeFault::KillWorker
        } else {
            DecodeFault::None
        }
    });
    let config = MonitorConfig::default()
        .with_shards(2)
        .with_decode_batch(4)
        .with_fault_hook(hook)
        .with_restart_backoff(Duration::from_millis(1), Duration::from_millis(5));
    let (monitor, marked) = marked_monitor(99, config);
    let (live, report) = run_to_report(monitor, &marked, 4);

    let stats = &report.stats;
    assert!(stats.worker_restarts >= 1, "{stats}");
    assert_eq!(
        stats.queue_dequeued,
        stats.decodes_run + stats.jobs_lost,
        "{stats}"
    );
    assert_eq!(stats.queue_depths.iter().sum::<usize>(), 0, "{stats}");

    let mut all = live;
    all.extend(report.verdicts.iter().cloned());
    assert_one_terminal_per_pair(&all, 4);
}

#[test]
fn sleepy_workers_with_watchdog_still_terminate() {
    // Slow decodes (far beyond the stall timeout) with the watchdog
    // armed: the run must terminate — not hang in finish — and every
    // pair must end with exactly one terminal verdict, whether decoded
    // or degraded.
    let hook = FaultHook::new(|_seq, _pair| DecodeFault::Sleep(20_000));
    let config = MonitorConfig::default()
        .with_shards(1)
        .with_queue_capacity(2)
        .with_decode_batch(4)
        .with_fault_hook(hook)
        .with_stall_timeout(Duration::from_millis(5));
    let (monitor, marked) = marked_monitor(3, config);
    let (live, report) = run_to_report(monitor, &marked, 3);

    let stats = &report.stats;
    assert_eq!(
        stats.queue_dequeued,
        stats.decodes_run + stats.jobs_lost,
        "{stats}"
    );
    assert_eq!(stats.queue_depths.iter().sum::<usize>(), 0, "{stats}");

    let mut all = live;
    all.extend(report.verdicts.iter().cloned());
    assert_one_terminal_per_pair(&all, 3);
}

#[test]
fn sustained_backpressure_sheds_the_smallest_pair() {
    // One shard, a one-slot queue, slow decodes, and a *short* upstream
    // (24 packets), so every suspicious flow starts attempting a decode
    // per packet as soon as its window holds 24. Interleaving three
    // long flows keeps several pairs competing for the single queue
    // slot while the worker sleeps — the drop streak is guaranteed to
    // pass the shed threshold, and the smallest-window pair (a 12-packet
    // decoy that can never reach min_window) is the designated victim.
    // The decode is robust with a zero erasure budget: the engine never
    // screens a robust decode, so every boundary schedules a job, while
    // min_window stays the upstream's full 24 packets.
    let original = seeded_flow(13, 24);
    let marker = IpdWatermarker::new(WatermarkKey::new(13 ^ 77), tiny_params());
    let watermark = Watermark::random(4, &mut WatermarkKey::new(13).rng(1));
    let marked = marker.embed(&original, &watermark).unwrap();
    let correlator = WatermarkCorrelator::new(
        marker,
        watermark,
        TimeDelta::from_secs(3),
        Algorithm::GreedyPlus,
    )
    .with_decode(DecodeOptions::robust(0));
    let hook = FaultHook::new(|_seq, _pair| DecodeFault::Sleep(5_000));
    let mut monitor = Monitor::new(
        MonitorConfig::default()
            .with_window_capacity(128)
            .with_shards(1)
            .with_queue_capacity(1)
            .with_decode_batch(1)
            .with_fault_hook(hook)
            .with_shed_after_drops(8),
    );
    monitor.register_upstream(UpstreamId(0), correlator.bind(&original, &marked).unwrap());

    // The decoy first: 12 packets < the 24-packet upstream, so its pair
    // can never decode and stays the smallest unresolved window.
    let decoy = seeded_flow(500, 12);
    for &packet in decoy.packets() {
        monitor.ingest(FlowId(900), packet);
    }
    // Three long suspicious flows, interleaved packet by packet.
    let suspects: Vec<Flow> = (0..3).map(|i| seeded_flow(600 + i, 80)).collect();
    let mut live = Vec::new();
    for k in 0..80 {
        for (i, suspect) in suspects.iter().enumerate() {
            monitor.ingest(FlowId(i as u64), suspect.packets()[k]);
        }
    }
    live.extend(monitor.drain_verdicts());
    let report = monitor.finish();

    let stats = &report.stats;
    assert!(stats.decodes_dropped > 0, "backpressure expected: {stats}");
    assert!(stats.pairs_shed >= 1, "shedding must trigger: {stats}");
    let mut all = live;
    all.extend(report.verdicts.iter().cloned());
    // The decoy — strictly the smallest window when the streak first
    // trips — is the first pair shed.
    assert!(
        all.iter().any(|v| v.is_degraded()
            && v.pair()
                == Some(PairId {
                    upstream: UpstreamId(0),
                    flow: FlowId(900)
                })),
        "the decoy pair must be shed as Degraded"
    );
    // Every pair — shed ones included — has exactly one terminal
    // verdict.
    let mut terminal: HashMap<PairId, usize> = HashMap::new();
    for verdict in &all {
        if let Some(pair) = verdict.pair() {
            *terminal.entry(pair).or_insert(0) += 1;
        }
    }
    assert!(terminal.values().all(|&n| n == 1), "{terminal:?}");
    assert_eq!(terminal.len(), 4, "three suspicious flows plus the decoy");
}
