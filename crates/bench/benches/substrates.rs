//! Substrate micro-benchmarks: every subsystem the correlation pipeline
//! sits on, in isolation.

use criterion::{criterion_group, criterion_main, Criterion};
use stepstone_adversary::{
    AdversaryPipeline, ChaffInjector, ChaffModel, PacketLoss, Transform, UniformPerturbation,
};
use stepstone_bench::Fixture;
use stepstone_flow::{Flow, SlidingWindow, TimeDelta, Timestamp};
use stepstone_matching::{CostMeter, GappedSets, Matcher, Screen, ScreenState};
use stepstone_netsim::SteppingStoneChain;
use stepstone_traffic::{tcplib::TelnetModel, InteractiveProfile, Seed, SessionGenerator};

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

/// The robust-decode shape of the `lossy-robust` pipeline workload: a
/// 1,500-packet upstream and its relay after Δ = 1 s perturbation,
/// λc = 2/s Poisson chaff and 2% packet loss, about 3,000 packets.
fn lossy_relay() -> (Flow, Flow) {
    let seed = Seed::new(0x1055);
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

/// The latching-decode shape of the `decode-heavy` pipeline workload: a
/// 1,500-packet upstream against its whole relay after Δ = 1 s
/// perturbation and λc = 2/s Poisson chaff (about 3,000 packets), so
/// every upstream packet is matched, as in the window where a true pair
/// latches.
fn latch_pair() -> (Flow, Flow) {
    let seed = Seed::new(0x1A7C);
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

fn bench_matching(c: &mut Criterion) {
    let fx = Fixture::standard();
    let matcher = Matcher::new(fx.delta());
    let mut group = c.benchmark_group("matching");
    group.bench_function("matching_sets", |b| {
        b.iter(|| {
            let mut meter = CostMeter::new();
            matcher
                .matching_sets(&fx.marked, &fx.correlated, &mut meter)
                .unwrap()
        })
    });
    group.bench_function("tighten", |b| {
        let mut meter = CostMeter::new();
        let sets = matcher
            .matching_sets(&fx.marked, &fx.correlated, &mut meter)
            .unwrap();
        b.iter(|| {
            let mut s = sets.clone();
            let mut meter = CostMeter::new();
            assert!(s.tighten(&mut meter));
            s
        })
    });
    // Strict matching and tightening, as a latching strict decode runs
    // them.
    let (upstream, relayed) = latch_pair();
    let strict = Matcher::new(TimeDelta::from_secs(1));
    group.bench_function("strict_compute_tighten", |b| {
        b.iter(|| {
            let mut meter = CostMeter::new();
            let mut sets = strict
                .matching_sets(&upstream, &relayed, &mut meter)
                .expect("every upstream packet is matched");
            assert!(sets.tighten(&mut meter));
            sets
        })
    });
    // Gap-tolerant matching, as a robust decode runs it: the strict
    // matcher would abort on the first deleted packet. The window is a
    // 2,300-packet prefix of the relay, as the monitor's windows are
    // while the relay is still arriving (about the mean window of a
    // scheduled decode on lossy-robust), so the upstream packets past
    // its end are erasures.
    let (upstream, relay) = lossy_relay();
    let window = relay
        .subsequence(0..2300)
        .expect("the relay outlasts the window");
    let lossy = Matcher::new(TimeDelta::from_secs(1));
    group.bench_function("gapped_compute_tighten", |b| {
        b.iter(|| {
            let mut meter = CostMeter::new();
            let mut sets = GappedSets::compute(&lossy, &upstream, &window, &mut meter);
            let _ = sets.tighten(&mut meter);
            sets
        })
    });
    // The screen that lets the monitor skip that decode, run as the
    // monitor runs it: the whole relay streams into a window, and every
    // 32 pushes (a decode boundary) one carried state checks whether the
    // window leaves more empty sets than lossy-robust's erasure budget.
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

criterion_group!(
    benches,
    bench_traffic,
    bench_netsim,
    bench_adversary,
    bench_watermark,
    bench_matching
);
criterion_main!(benches);
