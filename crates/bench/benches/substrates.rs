//! Substrate micro-benchmarks: every subsystem the correlation pipeline
//! sits on, in isolation, plus the monitor's per-packet ingest path and
//! its walk over settled pairs at decode boundaries.

use criterion::{criterion_group, criterion_main, Criterion};
use stepstone_adversary::{
    AdversaryPipeline, ChaffInjector, ChaffModel, PacketLoss, Transform, UniformPerturbation,
};
use stepstone_bench::Fixture;
use stepstone_core::{Algorithm, BoundCorrelator, WatermarkCorrelator};
use stepstone_flow::{Flow, FlowBuilder, Packet, SlidingWindow, TimeDelta, Timestamp};
use stepstone_ingest::{parse_capture, write_flows, FiveTuple, FlowDemux};
use stepstone_matching::{CostMeter, GappedSets, Matcher, Screen, ScreenState};
use stepstone_monitor::{FlowId, Monitor, MonitorConfig, UpstreamId};
use stepstone_netsim::SteppingStoneChain;
use stepstone_traffic::{tcplib::TelnetModel, InteractiveProfile, Seed, SessionGenerator};
use stepstone_watermark::{IpdWatermarker, Watermark, WatermarkKey, WatermarkParams};

fn bench_traffic(c: &mut Criterion) {
    let mut group = c.benchmark_group("traffic");
    group.bench_function("interactive_1000", |b| {
        let gen = SessionGenerator::new(InteractiveProfile::ssh());
        let mut rng = Seed::new(1).rng(0);
        b.iter(|| gen.generate(1000, Timestamp::ZERO, &mut rng))
    });
    group.bench_function("tcplib_1000", |b| {
        let model = TelnetModel::new();
        let mut rng = Seed::new(2).rng(0);
        b.iter(|| model.generate(1000, Timestamp::ZERO, &mut rng))
    });
    group.finish();
}

fn bench_netsim(c: &mut Criterion) {
    let fx = Fixture::standard();
    let chain = SteppingStoneChain::builder()
        .hop(TimeDelta::from_millis(40), TimeDelta::from_millis(20))
        .hop(TimeDelta::from_millis(60), TimeDelta::from_millis(30))
        .build();
    c.bench_function("netsim/two_hop_1000", |b| {
        b.iter(|| chain.simulate(&fx.marked, Seed::new(3)))
    });
}

fn bench_adversary(c: &mut Criterion) {
    let fx = Fixture::standard();
    let mut group = c.benchmark_group("adversary");
    group.bench_function("perturb_7s", |b| {
        let t = UniformPerturbation::new(TimeDelta::from_secs(7));
        let mut rng = Seed::new(4).rng(0);
        b.iter(|| t.apply_with(&fx.marked, &mut rng))
    });
    group.bench_function("chaff_poisson_3", |b| {
        let t = ChaffInjector::new(ChaffModel::Poisson { rate: 3.0 });
        let mut rng = Seed::new(5).rng(0);
        b.iter(|| t.apply_with(&fx.marked, &mut rng))
    });
    group.finish();
}

fn bench_watermark(c: &mut Criterion) {
    let fx = Fixture::standard();
    let mut group = c.benchmark_group("watermark");
    group.bench_function("embed_paper_1000", |b| {
        b.iter(|| fx.marker.embed(&fx.original, &fx.watermark).unwrap())
    });
    group.bench_function("layout_derive", |b| {
        b.iter(|| fx.marker.layout_for_flow(&fx.original).unwrap())
    });
    let layout = fx.marker.layout_for_flow(&fx.original).unwrap();
    group.bench_function("decode_aligned", |b| {
        b.iter(|| fx.marker.decode_aligned(&fx.marked, &layout).unwrap())
    });
    group.finish();
}

/// Distinct (upstream, window) pairs each matching bench cycles
/// through. One input repeated times a branch pattern the predictor has
/// learned, not the kernel on the windows a monitor decodes.
const ROTATION: u64 = 16;

/// The robust-decode shape of the `lossy-robust` pipeline workload: a
/// 1,500-packet upstream and its relay after Δ = 1 s perturbation,
/// λc = 2/s Poisson chaff and 2% packet loss, about 3,000 packets. `k`
/// picks one of the [`ROTATION`] seeds.
fn lossy_relay(k: u64) -> (Flow, Flow) {
    let seed = Seed::new(0x1055 + k);
    let upstream = SessionGenerator::new(InteractiveProfile::ssh()).generate(
        1500,
        Timestamp::ZERO,
        &mut seed.child(0).rng(0),
    );
    let relayed = AdversaryPipeline::new()
        .then(UniformPerturbation::new(TimeDelta::from_secs(1)))
        .then(ChaffInjector::new(ChaffModel::Poisson { rate: 2.0 }))
        .then(PacketLoss::new(0.02))
        .apply(&upstream, seed.child(1));
    (upstream, relayed)
}

/// A decoy's postponed robust decode on the `lossy-robust` pipeline
/// workload: one seed's 1,500-packet upstream against another seed's
/// whole lossy relay (about 3,100 packets), the upstream starting a
/// quarter of the way into the relay's span, so that about a quarter of
/// it lies past the relay's last packet, in the gapped scan's tail. `k`
/// picks one of the [`ROTATION`] seeds.
fn partial_decoy(k: u64) -> (Flow, Flow) {
    let (_, relay) = lossy_relay(k);
    let first = relay.packets()[0].timestamp();
    let last = relay.packets()[relay.len() - 1].timestamp();
    let start = first.saturating_add((last - first) / 4);
    let upstream = SessionGenerator::new(InteractiveProfile::ssh()).generate(
        1500,
        start,
        &mut Seed::new(0xDEC0 + k).rng(0),
    );
    // Over the rotation, 139–705 packets (361 on average) lie past it.
    let past = upstream.iter().filter(|p| p.timestamp() > last).count();
    assert!(
        (100..=750).contains(&past),
        "{past} of 1,500 upstream packets lie past the relay"
    );
    (upstream, relay)
}

/// The latching-decode shape of the `decode-heavy` pipeline workload: a
/// 1,500-packet upstream against its whole relay after Δ = 1 s
/// perturbation and λc = 2/s Poisson chaff (about 3,000 packets), so
/// every upstream packet is matched, as in the window where a true pair
/// latches. `k` picks one of the [`ROTATION`] seeds.
fn latch_pair(k: u64) -> (Flow, Flow) {
    let seed = Seed::new(0x1A7C + k);
    let upstream = SessionGenerator::new(InteractiveProfile::ssh()).generate(
        1500,
        Timestamp::ZERO,
        &mut seed.child(0).rng(0),
    );
    let relayed = AdversaryPipeline::new()
        .then(UniformPerturbation::new(TimeDelta::from_secs(1)))
        .then(ChaffInjector::new(ChaffModel::Poisson { rate: 2.0 }))
        .apply(&upstream, seed.child(1));
    (upstream, relayed)
}

/// A decoy pair as the monitor first screens it: a full 4,096-packet
/// window of one ssh session, and a 256-packet upstream of another
/// session that starts at the window's packet 2,000. `k` picks one of
/// the [`ROTATION`] seeds.
fn late_decoy(k: u64) -> (Flow, SlidingWindow) {
    let seed = Seed::new(0x1A7E + k);
    let session = SessionGenerator::new(InteractiveProfile::ssh());
    let suspicious = session.generate(4096, Timestamp::ZERO, &mut seed.child(0).rng(0));
    let mut window = SlidingWindow::new(4096);
    for &packet in suspicious.packets() {
        window.push(packet).expect("a flow is time-ordered");
    }
    let upstream = session.generate(256, suspicious.timestamp(2000), &mut seed.child(1).rng(0));
    (upstream, window)
}

/// [`ROTATION`] bench inputs, handed out in turn, round and round.
struct Rotation<T> {
    inputs: Vec<T>,
    at: usize,
}

impl<T> Rotation<T> {
    fn new(input: impl Fn(u64) -> T) -> Self {
        Rotation {
            inputs: (0..ROTATION).map(input).collect(),
            at: 0,
        }
    }

    fn next(&mut self) -> &T {
        self.at = (self.at + 1) % self.inputs.len();
        &self.inputs[self.at]
    }
}

fn bench_matching(c: &mut Criterion) {
    let fx = Fixture::standard();
    let matcher = Matcher::new(fx.delta());
    let mut group = c.benchmark_group("matching");
    // The fixture's marked flow against relays under its headline
    // attack (Δ = 7 s, λc = 3), one per seed.
    let mut relays = Rotation::new(|k| {
        AdversaryPipeline::new()
            .then(UniformPerturbation::new(fx.delta()))
            .then(ChaffInjector::new(ChaffModel::Poisson { rate: 3.0 }))
            .apply(&fx.marked, Seed::new(0x5E75).child(k))
    });
    group.bench_function("matching_sets", |b| {
        b.iter(|| {
            let mut meter = CostMeter::new();
            matcher
                .matching_sets(&fx.marked, relays.next(), &mut meter)
                .unwrap()
        })
    });
    let mut sets = Rotation::new(|k| {
        let mut meter = CostMeter::new();
        matcher
            .matching_sets(&fx.marked, &relays.inputs[k as usize], &mut meter)
            .unwrap()
    });
    group.bench_function("tighten", |b| {
        b.iter(|| {
            let mut s = sets.next().clone();
            let mut meter = CostMeter::new();
            assert!(s.tighten(&mut meter));
            s
        })
    });
    // Strict matching and tightening, as a latching strict decode runs
    // them.
    let mut pairs = Rotation::new(latch_pair);
    let strict = Matcher::new(TimeDelta::from_secs(1));
    group.bench_function("strict_compute_tighten", |b| {
        b.iter(|| {
            let (upstream, relayed) = pairs.next();
            let mut meter = CostMeter::new();
            let mut sets = strict
                .matching_sets(upstream, relayed, &mut meter)
                .expect("every upstream packet is matched");
            assert!(sets.tighten(&mut meter));
            sets
        })
    });
    // Strict matching of an upstream against another seed's relay, as
    // the batch reference decodes a decoy: the scan stops at the first
    // empty set, after copying only the timestamps it reached.
    let mut unrelated = Rotation::new(|k| k as usize);
    group.bench_function("strict_unrelated", |b| {
        b.iter(|| {
            let k = *unrelated.next();
            let upstream = &pairs.inputs[k].0;
            let relayed = &pairs.inputs[(k + 1) % pairs.inputs.len()].1;
            let mut meter = CostMeter::new();
            let sets = strict.matching_sets(upstream, relayed, &mut meter);
            assert!(sets.is_none(), "unrelated flows leave an empty set");
            meter
        })
    });
    // Gap-tolerant matching, as a robust decode runs it: the strict
    // matcher would abort on the first deleted packet. Each window is a
    // 2,300-packet prefix of a relay, as the monitor's windows are
    // while the relay is still arriving (about the mean window of a
    // scheduled decode on lossy-robust), so the upstream packets past
    // its end are erasures.
    let mut windows = Rotation::new(|k| {
        let (upstream, relay) = lossy_relay(k);
        let window = relay
            .subsequence(0..2300)
            .expect("the relay outlasts the window");
        (upstream, window)
    });
    let lossy = Matcher::new(TimeDelta::from_secs(1));
    group.bench_function("gapped_compute_tighten", |b| {
        b.iter(|| {
            let (upstream, window) = windows.next();
            let mut meter = CostMeter::new();
            let mut sets = GappedSets::compute(&lossy, upstream, window, &mut meter);
            let _ = sets.tighten(&mut meter);
            sets
        })
    });
    // A decoy's postponed robust decode, as `finish` runs most of them
    // on lossy-robust: only the upstream packets that overlap the
    // relay in time are scanned and tightened.
    let mut decoys = Rotation::new(partial_decoy);
    group.bench_function("robust_partial_overlap", |b| {
        b.iter(|| {
            let (upstream, relay) = decoys.next();
            let mut meter = CostMeter::new();
            let mut sets = GappedSets::compute(&lossy, upstream, relay, &mut meter);
            let _ = sets.tighten(&mut meter);
            sets
        })
    });
    // A decoy's first strict screen, which settles it unmatched: the
    // frontier seeks past the ~2,000 window packets before the
    // upstream's first one instead of stepping over them, then walks
    // intervals until one is empty.
    let mut decoys = Rotation::new(late_decoy);
    group.bench_function("screen_late_upstream", |b| {
        b.iter(|| {
            let (upstream, window) = decoys.next();
            let mut state = ScreenState::default();
            let answer = strict.screen(upstream, window, &mut state);
            assert!(state.settled(), "an unrelated session leaves an empty set");
            answer
        })
    });
    // The screen that lets the monitor skip that decode, run as the
    // monitor runs it: the whole relay streams into a window, and every
    // 32 pushes (a decode boundary) one carried state checks whether the
    // window leaves more empty sets than lossy-robust's erasure budget.
    let (upstream, relay) = lossy_relay(0);
    group.bench_function("robust_screen", |b| {
        b.iter(|| {
            let mut live = SlidingWindow::new(4096);
            let mut state = ScreenState::default();
            let mut over = 0;
            for (k, &packet) in relay.packets().iter().enumerate() {
                live.push(packet).expect("a flow is time-ordered");
                if (k + 1) % 32 == 0
                    && lossy.screen_robust(&upstream, &live, 64, &mut state) == Screen::OverBudget
                {
                    over += 1;
                }
            }
            over
        })
    });
    group.finish();
}

/// Flows and packets per flow of the `ingest_path` capture: 256
/// interleaved TCP flows of 128 packets each, 32,768 packets in all.
const PATH_FLOWS: usize = 256;
const PATH_PACKETS: usize = 128;

/// A classic-pcap capture of [`PATH_FLOWS`] flows whose packets
/// interleave the way a tap sees them: flow `f` sends at
/// `t = f*37 µs + i*10 ms`.
fn path_capture() -> Vec<u8> {
    let flows: Vec<(FiveTuple, Flow)> = (0..PATH_FLOWS)
        .map(|f| {
            let tuple = FiveTuple::tcp_v4(
                [10, 1, (f >> 8) as u8, (f & 0xFF) as u8],
                50_000 + f as u16,
                [192, 0, 2, 7],
                22,
            );
            let mut b = FlowBuilder::with_capacity(PATH_PACKETS);
            for i in 0..PATH_PACKETS {
                let micros = (f as i64) * 37 + (i as i64) * 10_000;
                b.push(Packet::new(
                    Timestamp::from_micros(micros),
                    64 + (i % 7) as u32,
                ))
                .expect("timestamps increase");
            }
            (tuple, b.finish())
        })
        .collect();
    let tagged: Vec<(FiveTuple, &Flow)> = flows.iter().map(|(t, f)| (*t, f)).collect();
    let mut bytes = Vec::new();
    write_flows(&mut bytes, &tagged).expect("in-memory write cannot fail");
    bytes
}

/// The monitor's per-packet path, as a live capture drives it: parse a
/// record, route it through the demux, and ingest the event. No
/// upstream is registered, so no pair ever reaches a decode boundary
/// and the time per iteration divided by 32,768 is the cost every
/// packet pays before any decode.
/// Strict upstreams, decoys and packets per decoy of the
/// `boundary_walk` bench: 2,048 pairs, 65,536 packets.
const WALK_UPSTREAMS: usize = 32;
const WALK_DECOYS: usize = 64;
const WALK_PACKETS: usize = 1024;

/// [`WALK_UPSTREAMS`] strict correlators bound to 200-packet watermarked
/// flows that start at zero, and the merged events of [`WALK_DECOYS`]
/// decoys of [`WALK_PACKETS`] packets that start 10 s in, long after
/// every upstream's first interval `[t₀, t₀ + Δ]` closed empty. Every
/// pair settles at its first boundary, so no decode ever runs.
fn walk_scenario() -> (Vec<BoundCorrelator>, Vec<(FlowId, Packet)>) {
    let seed = Seed::new(0x3A1C);
    let gen = SessionGenerator::new(InteractiveProfile::ssh());
    let params = WatermarkParams::small();
    let upstreams = (0..WALK_UPSTREAMS as u64)
        .map(|u| {
            let original = gen.generate(200, Timestamp::ZERO, &mut seed.child(u).rng(0));
            let marker = IpdWatermarker::new(WatermarkKey::new(u), params);
            let watermark = Watermark::random(params.bits, &mut WatermarkKey::new(u).rng(1));
            let marked = marker.embed(&original, &watermark).expect("layout fits");
            WatermarkCorrelator::new(
                marker,
                watermark,
                TimeDelta::from_secs(2),
                Algorithm::GreedyPlus,
            )
            .bind(&original, &marked)
            .expect("layout fits")
        })
        .collect();
    let mut events: Vec<(FlowId, Packet)> = (0..WALK_DECOYS as u64)
        .flat_map(|d| {
            let rng = &mut seed.child(0x100 + d).rng(0);
            let decoy = gen.generate(WALK_PACKETS, Timestamp::from_secs(10), rng);
            decoy
                .packets()
                .iter()
                .map(move |&p| (FlowId(d), p))
                .collect::<Vec<_>>()
        })
        .collect();
    events.sort_by_key(|&(_, p)| p.timestamp());
    (upstreams, events)
}

fn bench_monitor(c: &mut Criterion) {
    let bytes = path_capture();
    c.bench_function("monitor/ingest_path", |b| {
        b.iter(|| {
            let mut demux = FlowDemux::new();
            let mut monitor = Monitor::new(MonitorConfig::default());
            for record in parse_capture(&bytes).expect("capture header is valid") {
                let record = record.expect("capture body is valid");
                if let Some((flow, packet)) = demux.push(&record) {
                    assert!(monitor.ingest(flow, packet), "packets arrive in order");
                }
            }
            monitor.stats().packets_ingested
        })
    });
    // The boundary work over settled pairs, as on the pipeline's
    // decode-heavy workload: every decoy reaches a decode boundary
    // every 32 packets, and the engine walks its 32 pairs there.
    let (upstreams, events) = walk_scenario();
    c.bench_function("monitor/boundary_walk", |b| {
        b.iter(|| {
            let mut monitor = Monitor::new(MonitorConfig::default().with_decode_batch(32));
            for (u, correlator) in upstreams.iter().enumerate() {
                monitor.register_upstream(UpstreamId(u as u64), correlator.clone());
            }
            for &(flow, packet) in &events {
                assert!(monitor.ingest(flow, packet), "packets arrive in order");
            }
            let stats = monitor.finish().stats;
            assert_eq!(stats.decodes_run, 0, "every pair settles unmatched");
            stats.decodes_screened
        })
    });
}

criterion_group!(
    benches,
    bench_traffic,
    bench_netsim,
    bench_adversary,
    bench_watermark,
    bench_matching,
    bench_monitor
);
criterion_main!(benches);
