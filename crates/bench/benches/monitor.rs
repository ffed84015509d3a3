//! Online-engine throughput: replaying a fixed event stream through
//! the monitor at 1, 8 and 64 concurrent candidate pairs.
//!
//! The event stream, flows and correlators are prepared outside the
//! measured section; each iteration replays the whole stream through a
//! fresh engine (ingest + flush), so time/iter divided by the event
//! count is the packet throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use stepstone_adversary::{AdversaryPipeline, ChaffInjector, ChaffModel, UniformPerturbation};
use stepstone_core::{Algorithm, BoundCorrelator, WatermarkCorrelator};
use stepstone_flow::{Flow, Packet, TimeDelta, Timestamp};
use stepstone_monitor::{
    DecodeFault, FaultHook, FlowId, Monitor, MonitorConfig, PairId, UpstreamId,
};
use stepstone_traffic::{InteractiveProfile, Seed, SessionGenerator};
use stepstone_watermark::{IpdWatermarker, Watermark, WatermarkKey, WatermarkParams};

/// A small scheme keeps a single decode cheap enough that the 64-pair
/// point stays in benchmark territory.
fn bench_params() -> WatermarkParams {
    WatermarkParams {
        bits: 8,
        redundancy: 2,
        offset: 1,
        adjustment: TimeDelta::from_millis(500),
        threshold: 2,
    }
}

/// One registered upstream plus `pairs` suspicious flows (the true
/// downstream and `pairs - 1` decoys), merged into a time-ordered
/// event stream.
fn scenario(pairs: usize) -> (BoundCorrelator, Vec<(FlowId, Packet)>) {
    let seed = Seed::new(0x90_17_08);
    let params = bench_params();
    let gen = SessionGenerator::new(InteractiveProfile::ssh());
    let interactive =
        |label: u64| gen.generate(300, Timestamp::ZERO, &mut seed.child(label).rng(0));
    let attack = |flow: &Flow, label: u64| {
        AdversaryPipeline::new()
            .then(UniformPerturbation::new(TimeDelta::from_secs(2)))
            .then(ChaffInjector::new(ChaffModel::Poisson { rate: 1.0 }))
            .apply(flow, seed.child(label))
    };
    let original = interactive(0);
    let marker = IpdWatermarker::new(WatermarkKey::new(0xB0B), params);
    let watermark = Watermark::random(params.bits, &mut WatermarkKey::new(1).rng(1));
    let marked = marker.embed(&original, &watermark).unwrap();
    let bound = WatermarkCorrelator::new(
        marker,
        watermark,
        TimeDelta::from_secs(2),
        Algorithm::GreedyPlus,
    )
    .bind(&original, &marked)
    .unwrap();

    let mut flows: Vec<(FlowId, Flow)> = vec![(FlowId(0), attack(&marked, 1))];
    for d in 1..pairs {
        flows.push((
            FlowId(d as u64),
            attack(&interactive(100 + d as u64), 200 + d as u64),
        ));
    }
    let mut events: Vec<(FlowId, Packet)> = flows
        .iter()
        .flat_map(|(id, flow)| flow.packets().iter().map(move |&p| (*id, p)))
        .collect();
    events.sort_by_key(|&(_, p)| p.timestamp());
    (bound, events)
}

/// Replays the prepared stream through a fresh engine, optionally with
/// a fault hook armed.
fn replay_hooked(
    bound: &BoundCorrelator,
    events: &[(FlowId, Packet)],
    hook: Option<FaultHook>,
) -> u64 {
    // The engine decodes every boundary, so a run with or without an
    // idle hook does the same decode work.
    let mut config = MonitorConfig::default().with_decode_batch(64);
    if let Some(hook) = hook {
        config = config.with_fault_hook(hook);
    }
    let mut monitor = Monitor::new(config);
    monitor.register_upstream(UpstreamId(0), bound.clone());
    for &(flow, packet) in events {
        monitor.ingest(flow, packet);
    }
    monitor.finish().stats.decodes_run
}

/// Replays the prepared stream through a fresh engine.
fn replay(bound: &BoundCorrelator, events: &[(FlowId, Packet)]) -> u64 {
    replay_hooked(bound, events, None)
}

fn monitor_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor_throughput");
    group.sample_size(10);
    for pairs in [1usize, 8, 64] {
        let (bound, events) = scenario(pairs);
        group.bench_with_input(BenchmarkId::new("pairs", pairs), &pairs, |b, _| {
            b.iter(|| replay(&bound, &events))
        });
        println!(
            "monitor_throughput: pairs{pairs} decodes_run = {}/iter",
            replay(&bound, &events)
        );
        println!(
            "monitor_throughput: pairs{pairs} stream = {} packets/iter",
            events.len()
        );
    }
    group.finish();
}

/// Chaos-off vs chaos-armed-but-idle: the same 8-pair replay with no
/// hook installed and with a [`FaultHook`] that always answers
/// [`DecodeFault::None`]. The armed hook exercises the full injection
/// seam — one `Option` check plus one `Arc<dyn Fn>` dispatch per
/// decode — without firing a single fault, so the pair of numbers
/// bounds what the seams cost a production (chaos-off) deployment.
fn chaos_seam_overhead(c: &mut Criterion) {
    let (bound, events) = scenario(8);
    let mut group = c.benchmark_group("chaos_seam_overhead");
    // A larger sample keeps the median stable enough to bound a
    // percent-level difference.
    group.sample_size(40);
    group.bench_function("pairs8/chaos_off", |b| {
        b.iter(|| replay_hooked(&bound, &events, None))
    });
    group.bench_function("pairs8/chaos_armed_idle", |b| {
        b.iter(|| {
            let idle = FaultHook::new(|_, _| DecodeFault::None);
            replay_hooked(&bound, &events, Some(idle))
        })
    });
    let idle = FaultHook::new(|_, _| DecodeFault::None);
    println!(
        "chaos_seam_overhead: pairs8 decodes_run = {}/iter off, {}/iter armed",
        replay_hooked(&bound, &events, None),
        replay_hooked(&bound, &events, Some(idle))
    );
    // The seam in isolation: one armed-but-idle oracle consultation,
    // exactly what each decode pays over the unarmed `Option` check.
    // The end-to-end pair above sits inside run-to-run noise, so this
    // is the number that actually bounds the per-decode cost.
    group.bench_function("hook_dispatch", |b| {
        let idle = FaultHook::new(|_, _| DecodeFault::None);
        let pair = PairId {
            upstream: UpstreamId(0),
            flow: FlowId(0),
        };
        let mut seq = 0u64;
        b.iter(|| {
            seq = seq.wrapping_add(1);
            std::hint::black_box(idle.fault(std::hint::black_box(seq), pair))
        })
    });
    group.finish();
}

criterion_group!(benches, monitor_throughput, chaos_seam_overhead);
criterion_main!(benches);
