//! Chaos soak: the full `pcap bytes → wire faults → demux → flow
//! faults → armed engine` pipeline under the harsh profile, with
//! pinned seeds.
//!
//! What "survival" means here, per seed:
//!
//! * the run terminates (no deadlock in ingest, drain, or shutdown);
//! * the queue books balance: `enqueued == dequeued`, all depths 0,
//!   and `dequeued == decodes_run + jobs_lost` — losses are counted,
//!   never silent;
//! * every registered pair ends with **exactly one** terminal verdict
//!   (`Correlated`, `Cleared`, or `Degraded`) — chaos may degrade a
//!   pair, it may never silently drop one;
//! * injected worker kills are visible: `worker_restarts >= 1` both in
//!   the stats snapshot and on the rendered `/metrics` text.
//!
//! The seeds are pinned so CI failures reproduce with
//! `repro monitor --pcap ... --chaos SEED:harsh`.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use stepstone_chaos::{FaultPlan, Profile};
use stepstone_core::BackendKind;
use stepstone_experiments::live::{export_pcap, replay_pcap_chaos, LiveScenario, PcapReport};
use stepstone_experiments::scenario_run::{run_spec, ScenarioOutcome};
use stepstone_experiments::{ExperimentConfig, Scale};
use stepstone_flow::TimeDelta;
use stepstone_ingest::ReplayClock;
use stepstone_monitor::{PairId, TerminalKind};
use stepstone_scenario::{preset, Decode, ScenarioSpec};
use stepstone_telemetry::Registry;

/// The pinned harsh seeds. Chosen (by probing the seed space, once) so
/// each plan schedules a worker kill on decode sequence 0 — the *first*
/// decode of a run always happens, so the restart machinery is
/// exercised every run regardless of how worker timing shapes the rest
/// of the decode schedule.
const SOAK_SEEDS: [u64; 3] = [44, 116, 225];

/// The soak scenario: the scale-independent wire corpus, decoding on
/// every accepted packet once a window fills, so the harsh profile's
/// per-decode fault rates get plenty of draws. `Δ` is 2 s rather than
/// the wire corpus's 1 s: at 1 s the harsh deletions leave a matching
/// set of the true downstream empty, the engine's screen proves every
/// strict paper decode unmatched, and no decode is left for the pinned
/// kill to hit. At 2 s the strict decodes of the true pair still run.
fn soak_scenario() -> LiveScenario {
    let mut scenario = LiveScenario::wire(&ExperimentConfig::new(Scale::Quick));
    scenario.delta = TimeDelta::from_secs(2);
    scenario.decode_batch = 1;
    scenario
}

fn soak(seed: u64) -> (PcapReport, Arc<Registry>) {
    soak_with(seed, BackendKind::Paper)
}

fn soak_with(seed: u64, backend: BackendKind) -> (PcapReport, Arc<Registry>) {
    let scenario = soak_scenario().with_backend(backend);
    let bytes = export_pcap(&scenario).expect("wire corpus synthesises");
    let plan = FaultPlan::new(seed, Profile::Harsh);
    let registry = Arc::new(Registry::new());
    let report = replay_pcap_chaos(
        &scenario,
        &bytes,
        ReplayClock::Fast,
        Some(Arc::clone(&registry)),
        &plan,
    )
    .expect("wire-layer faults spare the capture header");
    (report, registry)
}

#[test]
fn harsh_soak_survives_pinned_seeds() {
    for seed in SOAK_SEEDS {
        let (report, registry) = soak(seed);
        let stats = &report.outcome.monitor_stats;

        // Queue conservation at shutdown: accepted == handed over,
        // nothing left sitting in a queue.
        assert_eq!(
            stats.queue_enqueued, stats.queue_dequeued,
            "seed {seed}: {stats}"
        );
        assert_eq!(
            stats.queue_depths.iter().sum::<usize>(),
            0,
            "seed {seed}: queues must drain: {stats}"
        );
        // Loss accounting: every dequeued job either completed or died
        // with its worker — and the deaths are counted, not silent.
        assert_eq!(
            stats.decodes_run + stats.jobs_lost,
            stats.queue_dequeued,
            "seed {seed}: {stats}"
        );
        // The strict paper path runs under fire: some boundaries are
        // screened, the rest decode.
        assert!(stats.decodes_screened > 0, "seed {seed}: {stats}");
        assert!(stats.decodes_run > 0, "seed {seed}: {stats}");

        // The harsh profile schedules kills and these seeds are pinned
        // to hit at least one: the supervisor must have restarted.
        assert!(
            stats.worker_restarts >= 1,
            "seed {seed}: expected at least one restart: {stats}"
        );
        assert!(
            stats.jobs_lost >= 1,
            "seed {seed}: a killed worker loses its in-flight job: {stats}"
        );
        // ...and the restart is visible on the scrape endpoint.
        let rendered = registry.render_prometheus();
        let restarts: f64 = rendered
            .lines()
            .find(|l| l.starts_with("monitor_worker_restarts_total"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("seed {seed}: restart counter must render:\n{rendered}"));
        assert!(restarts >= 1.0, "seed {seed}: {restarts}");

        // Zero silently-dropped pairs: every pair that appears in the
        // verdict stream appears exactly once, and every suspicious
        // flow the engine tracked produced its pairs' verdicts.
        let mut terminal: HashMap<PairId, usize> = HashMap::new();
        for verdict in &report.outcome.verdicts {
            if let Some(pair) = verdict.pair() {
                *terminal.entry(pair).or_insert(0) += 1;
            }
        }
        assert!(
            terminal.values().all(|&n| n == 1),
            "seed {seed}: duplicate terminal verdicts: {terminal:?}"
        );
        // One upstream in the wire scenario: one pair per tracked flow.
        assert_eq!(
            terminal.len(),
            stats.flows_active + stats.flows_evicted as usize,
            "seed {seed}: every tracked flow's pair must resolve: {stats}"
        );
        assert!(
            terminal.len() >= 2,
            "seed {seed}: harsh wire faults must not erase whole flows"
        );
    }
}

/// Every correlator backend survives the *same* fault plan with the
/// same books: the plan derives from the seed alone, so swapping the
/// backend must change verdict content at most — never conservation,
/// restart visibility, or pair accounting. This is the seam contract
/// under fire: the engine cannot tell backends apart.
#[test]
fn every_backend_survives_identical_fault_plans() {
    let seed = SOAK_SEEDS[0];
    for backend in BackendKind::ALL {
        let (report, _registry) = soak_with(seed, backend);
        let stats = &report.outcome.monitor_stats;

        assert_eq!(
            stats.queue_enqueued, stats.queue_dequeued,
            "{backend}: {stats}"
        );
        assert_eq!(
            stats.queue_depths.iter().sum::<usize>(),
            0,
            "{backend}: queues must drain: {stats}"
        );
        assert_eq!(
            stats.decodes_run + stats.jobs_lost,
            stats.queue_dequeued,
            "{backend}: {stats}"
        );
        // Only the paper backend's strict decodes are screened.
        assert_eq!(
            stats.decodes_screened > 0,
            backend == BackendKind::Paper,
            "{backend}: {stats}"
        );
        assert!(
            stats.worker_restarts >= 1,
            "{backend}: the pinned kill must fire regardless of backend: {stats}"
        );

        let mut terminal: HashMap<PairId, usize> = HashMap::new();
        for verdict in &report.outcome.verdicts {
            if let Some(pair) = verdict.pair() {
                *terminal.entry(pair).or_insert(0) += 1;
            }
        }
        assert!(
            terminal.values().all(|&n| n == 1),
            "{backend}: duplicate terminal verdicts: {terminal:?}"
        );
        assert_eq!(
            terminal.len(),
            stats.flows_active + stats.flows_evicted as usize,
            "{backend}: every tracked flow's pair must resolve: {stats}"
        );
    }
}

/// Terminal-verdict conservation for one scenario outcome: every
/// candidate pair resolved exactly once, and the headline counters are
/// exactly what the verdict lines say.
fn assert_verdict_conservation(spec: &ScenarioSpec, outcome: &ScenarioOutcome, label: &str) {
    assert_eq!(
        outcome.verdicts.len(),
        spec.candidate_pairs(),
        "{label}: every candidate pair must reach a terminal verdict: {outcome}"
    );
    let distinct: HashSet<(u64, u64)> = outcome
        .verdicts
        .iter()
        .map(|v| (v.upstream, v.flow))
        .collect();
    assert_eq!(
        distinct.len(),
        outcome.verdicts.len(),
        "{label}: duplicate terminal verdicts: {outcome}"
    );
    let count =
        |kind: TerminalKind| outcome.verdicts.iter().filter(|v| v.kind == kind).count() as u32;
    assert_eq!(
        count(TerminalKind::Correlated),
        outcome.true_positives + outcome.false_positives,
        "{label}: correlated lines must equal tp + fp: {outcome}"
    );
    assert_eq!(
        count(TerminalKind::Degraded),
        outcome.degraded,
        "{label}: degraded counter must match the verdict lines: {outcome}"
    );
    assert_eq!(
        outcome.missed,
        spec.upstreams as u32 - outcome.true_positives,
        "{label}: missed is the true pairs not detected: {outcome}"
    );
}

/// The deletion-harsh soak: the pinned-seed preset whose channel
/// violates assumption 1 (2% loss plus harsh chaos deletions), run
/// under both decode modes. Conservation identities hold in both; the
/// graceful-degradation ladder shows up as verdict content — under
/// `--decode robust` a pair whose erasure budget blew is `Degraded`,
/// never `Cleared`, and on this preset *every* negative pair blows its
/// budget, so the robust run carries zero `Cleared` verdicts at all.
/// Reproduce failures with
/// `repro scenario --preset deletion-harsh --decode robust`.
#[test]
fn deletion_harsh_soak_holds_the_degradation_ladder() {
    let strict_spec = preset("deletion-harsh").expect("preset");
    let mut robust_spec = strict_spec.clone();
    robust_spec.decode = Decode::Robust;

    let strict = run_spec(&strict_spec, None).expect("strict run");
    let robust = run_spec(&robust_spec, None).expect("robust run");

    assert_verdict_conservation(&strict_spec, &strict, "strict");
    assert_verdict_conservation(&robust_spec, &robust, "robust");

    // Both runs see the same deterministic channel: same event count,
    // same effective deletions, and the loss genuinely happened.
    assert_eq!(strict.events, robust.events);
    assert_eq!(strict.erasures, robust.erasures);
    assert!(strict.erasures > 0, "the deletion channel must delete");

    // The strict decoder is blind to deletions: it aborts decodes on
    // the emptied matching sets, detects nothing, and — having no
    // erasure accounting — *clears* every pair it failed on.
    assert_eq!(strict.true_positives, 0, "{strict}");
    assert_eq!(strict.degraded, 0, "{strict}");
    assert!(
        strict
            .verdicts
            .iter()
            .all(|v| v.kind == TerminalKind::Cleared),
        "strict deletion-harsh ends in false all-clears: {strict}"
    );

    // The robust decoder recovers every true pair at zero false
    // positives, and no pair whose erasure budget blew is cleared: on
    // this channel every negative pair blows its budget, so nothing
    // clears at all — the ladder ends in `Degraded`, holding the
    // no-false-`Cleared` guarantee.
    assert_eq!(
        robust.true_positives, strict_spec.upstreams as u32,
        "{robust}"
    );
    assert_eq!(robust.false_positives, 0, "{robust}");
    assert!(
        !robust
            .verdicts
            .iter()
            .any(|v| v.kind == TerminalKind::Cleared),
        "a blown erasure budget must degrade, never clear: {robust}"
    );
    assert_eq!(
        robust.degraded,
        strict_spec.candidate_pairs() as u32 - robust.true_positives,
        "every non-correlated pair degrades: {robust}"
    );

    // Pinned seeds: the whole soak replays bit-for-bit.
    let again = run_spec(&robust_spec, None).expect("robust rerun");
    assert_eq!(robust.verdict_digest(), again.verdict_digest());
    assert_eq!(robust.erasures, again.erasures);
}

/// The same `--chaos` spec twice produces byte-identical fault
/// schedules: the mutated capture bytes, the per-record and per-event
/// decision streams, and the cross-layer digest all match.
#[test]
fn same_seed_means_byte_identical_fault_schedules() {
    let scenario = soak_scenario();
    let bytes = export_pcap(&scenario).expect("wire corpus synthesises");
    for seed in SOAK_SEEDS {
        let a = FaultPlan::new(seed, Profile::Harsh);
        let b = FaultPlan::parse(&format!("{seed}:harsh")).unwrap();
        assert_eq!(a.schedule_digest(65_536), b.schedule_digest(65_536));

        let mut wire_a = bytes.clone();
        let mut wire_b = bytes.clone();
        a.wire().mutate_bytes(&mut wire_a);
        b.wire().mutate_bytes(&mut wire_b);
        assert_eq!(wire_a, wire_b, "seed {seed}: wire mutation must replay");

        for i in 0..4096 {
            assert_eq!(a.wire().record_decision(i), b.wire().record_decision(i));
            assert_eq!(a.flow().decision(i), b.flow().decision(i));
            assert_eq!(a.runtime().decision(i), b.runtime().decision(i));
        }
    }
    // And different seeds genuinely differ.
    assert_ne!(
        FaultPlan::new(SOAK_SEEDS[0], Profile::Harsh).schedule_digest(65_536),
        FaultPlan::new(SOAK_SEEDS[1], Profile::Harsh).schedule_digest(65_536),
    );
}
