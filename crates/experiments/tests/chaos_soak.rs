//! Chaos soak: the full `pcap bytes → wire faults → demux → flow
//! faults → armed engine` pipeline under the harsh profile, with
//! pinned seeds.
//!
//! What "survival" means here, per seed:
//!
//! * the run terminates;
//! * packets are conserved: every event delivered to the engine is
//!   counted ingested or rejected, in the stats and on the rendered
//!   `/metrics` ledgers;
//! * every registered pair ends with **exactly one** terminal verdict
//!   (`Correlated`, `Cleared`, or `Degraded`) — chaos may degrade a
//!   pair, it may never silently drop one;
//! * injected decode panics are contained and visible:
//!   `decode_panics >= 1` both in the stats snapshot and on the
//!   rendered `/metrics` text.
//!
//! The seeds are pinned so CI failures reproduce with
//! `repro monitor --pcap ... --chaos SEED:harsh`.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use stepstone_chaos::{FaultPlan, Profile};
use stepstone_experiments::live::wire_spec;
use stepstone_experiments::scenario_run::{export_pcap, run, RunOptions, RunReport};
use stepstone_experiments::{ExperimentConfig, Scale};
use stepstone_ingest::ReplayClock;
use stepstone_monitor::{PairId, TerminalKind};
use stepstone_scenario::{preset, Backend, ChaosProfile, Decode, ScenarioSpec};
use stepstone_telemetry::Registry;

/// The pinned harsh seeds. Chosen (by probing the seed space, once) so
/// each plan schedules a fault on decode sequence 0 — the *first*
/// decode of a run always happens, so the containment is exercised
/// every run, whatever the rest of the decode schedule.
const SOAK_SEEDS: [u64; 3] = [44, 116, 225];

/// The soak spec: the scale-independent wire corpus, decoding on
/// every accepted packet once a window fills, so the harsh profile's
/// per-decode fault rates get plenty of draws. `Δ` is 2 s rather than
/// the wire corpus's 1 s: at 1 s the harsh deletions leave a matching
/// set of the true downstream empty, the engine's screen proves every
/// strict paper decode unmatched, and no decode is left for the pinned
/// panic to hit. At 2 s the strict decodes of the true pair still run.
fn soak_spec() -> ScenarioSpec {
    let mut spec = wire_spec(&ExperimentConfig::new(Scale::Quick));
    spec.delta_ms = 2000;
    spec.decode_batch = 1;
    spec
}

fn soak(seed: u64) -> (RunReport, Arc<Registry>) {
    soak_with(seed, Backend::Paper)
}

/// Replays the soak spec's capture with its harsh chaos armed on every
/// layer: wire, flow, and the engine runtime.
fn soak_with(seed: u64, backend: Backend) -> (RunReport, Arc<Registry>) {
    let mut spec = soak_spec();
    spec.backend = backend;
    spec.chaos = Some((seed, ChaosProfile::Harsh));
    let bytes = export_pcap(&spec).expect("wire corpus synthesises");
    let registry = Arc::new(Registry::new());
    let opts = RunOptions {
        capture: Some((&bytes, ReplayClock::Fast)),
        registry: Some(Arc::clone(&registry)),
        engine_chaos: true,
        ..RunOptions::default()
    };
    let report = run(&spec, &opts).expect("wire-layer faults spare the capture header");
    (report, registry)
}

/// The value of the unlabelled counter `name` in a Prometheus text
/// rendering.
fn counter(rendered: &str, name: &str) -> u64 {
    rendered
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("{name} must render as an integer:\n{rendered}"))
}

#[test]
fn harsh_soak_survives_pinned_seeds() {
    for seed in SOAK_SEEDS {
        let (report, registry) = soak(seed);
        let stats = &report.stats;

        // Packet conservation: every delivered event was ingested or
        // rejected.
        assert_eq!(
            stats.packets_ingested + stats.packets_rejected,
            report.events,
            "seed {seed}: {stats}"
        );
        // The strict paper path runs under fire: some boundaries are
        // screened, the rest decode.
        assert!(stats.decodes_screened > 0, "seed {seed}: {stats}");
        assert!(stats.decodes_run > 0, "seed {seed}: {stats}");

        // The harsh profile schedules decode panics and these seeds are
        // pinned to hit at least one: the containment must have caught
        // it...
        assert!(
            stats.decode_panics >= 1,
            "seed {seed}: expected at least one contained panic: {stats}"
        );
        // ...and the panic is visible on the scrape endpoint.
        let rendered = registry.render_prometheus();
        let panics: f64 = rendered
            .lines()
            .find(|l| l.starts_with("monitor_decode_panics_total"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("seed {seed}: panic counter must render:\n{rendered}"));
        assert!(panics >= 1.0, "seed {seed}: {panics}");

        // The published ledgers balance too: the replay loop's delivery
        // family against the monitor's intake family.
        let delivered = counter(&rendered, "ingest_replay_events_total");
        let ingested = counter(&rendered, "monitor_packets_ingested_total");
        let rejected = counter(&rendered, "monitor_packets_rejected_total");
        assert_eq!(delivered, ingested + rejected, "seed {seed}:\n{rendered}");
        assert_eq!(delivered, report.events, "seed {seed}");
        assert_eq!(
            counter(&rendered, "ingest_replay_rejected_total"),
            rejected,
            "seed {seed}:\n{rendered}"
        );
        assert_eq!(
            counter(&rendered, "ingest_replay_stream_errors_total"),
            u64::from(report.stream_error.is_some()),
            "seed {seed}:\n{rendered}"
        );

        // Zero silently-dropped pairs: every pair that appears in the
        // verdict stream appears exactly once, and every suspicious
        // flow the engine tracked produced its pairs' verdicts.
        let mut terminal: HashMap<PairId, usize> = HashMap::new();
        for verdict in &report.verdicts {
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
/// panic containment, or pair accounting. This is the seam contract
/// under fire: the engine cannot tell backends apart.
#[test]
fn every_backend_survives_identical_fault_plans() {
    let seed = SOAK_SEEDS[0];
    for backend in Backend::ALL {
        let (report, _registry) = soak_with(seed, backend);
        let stats = &report.stats;

        assert_eq!(
            stats.packets_ingested + stats.packets_rejected,
            report.events,
            "{backend}: {stats}"
        );
        // Only the paper backend's strict decodes are screened.
        assert_eq!(
            stats.decodes_screened > 0,
            backend == Backend::Paper,
            "{backend}: {stats}"
        );
        assert!(
            stats.decode_panics >= 1,
            "{backend}: the pinned panic must fire regardless of backend: {stats}"
        );

        let mut terminal: HashMap<PairId, usize> = HashMap::new();
        for verdict in &report.verdicts {
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

/// Terminal-verdict conservation for one run: every candidate pair
/// resolved exactly once, and the headline counters are exactly what
/// the verdict lines say.
fn assert_verdict_conservation(spec: &ScenarioSpec, report: &RunReport, label: &str) {
    let lines = report.verdict_lines();
    let summary = report.summary();
    let d = report.detection;
    assert_eq!(
        lines.len(),
        spec.candidate_pairs(),
        "{label}: every candidate pair must reach a terminal verdict: {summary}"
    );
    let distinct: HashSet<(u64, u64)> = lines.iter().map(|v| (v.upstream, v.flow)).collect();
    assert_eq!(
        distinct.len(),
        lines.len(),
        "{label}: duplicate terminal verdicts: {summary}"
    );
    let count = |kind: TerminalKind| lines.iter().filter(|v| v.kind == kind).count() as u32;
    assert_eq!(
        count(TerminalKind::Correlated),
        d.true_positives + d.false_positives,
        "{label}: correlated lines must equal tp + fp: {summary}"
    );
    assert_eq!(
        count(TerminalKind::Degraded),
        d.degraded,
        "{label}: degraded counter must match the verdict lines: {summary}"
    );
    assert_eq!(
        d.missed,
        spec.upstreams as u32 - d.true_positives,
        "{label}: missed is the true pairs not detected: {summary}"
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

    let strict = run(&strict_spec, &RunOptions::default()).expect("strict run");
    let robust = run(&robust_spec, &RunOptions::default()).expect("robust run");

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
    let (strict_d, robust_d) = (strict.detection, robust.detection);
    assert_eq!(strict_d.true_positives, 0, "{strict_d}");
    assert_eq!(strict_d.degraded, 0, "{strict_d}");
    assert!(
        strict
            .verdict_lines()
            .iter()
            .all(|v| v.kind == TerminalKind::Cleared),
        "strict deletion-harsh ends in false all-clears: {}",
        strict.summary()
    );

    // The robust decoder recovers every true pair at zero false
    // positives, and no pair whose erasure budget blew is cleared: on
    // this channel every negative pair blows its budget, so nothing
    // clears at all — the ladder ends in `Degraded`, holding the
    // no-false-`Cleared` guarantee.
    assert_eq!(
        robust_d.true_positives, strict_spec.upstreams as u32,
        "{robust_d}"
    );
    assert_eq!(robust_d.false_positives, 0, "{robust_d}");
    assert!(
        !robust
            .verdict_lines()
            .iter()
            .any(|v| v.kind == TerminalKind::Cleared),
        "a blown erasure budget must degrade, never clear: {}",
        robust.summary()
    );
    assert_eq!(
        robust_d.degraded,
        strict_spec.candidate_pairs() as u32 - robust_d.true_positives,
        "every non-correlated pair degrades: {robust_d}"
    );

    // Pinned seeds: the whole soak replays bit-for-bit.
    let again = run(&robust_spec, &RunOptions::default()).expect("robust rerun");
    assert_eq!(robust.verdict_digest(), again.verdict_digest());
    assert_eq!(robust.erasures, again.erasures);
}

/// The same `--chaos` spec twice produces byte-identical fault
/// schedules: the mutated capture bytes, the per-record and per-event
/// decision streams, and the cross-layer digest all match.
#[test]
fn same_seed_means_byte_identical_fault_schedules() {
    let bytes = export_pcap(&soak_spec()).expect("wire corpus synthesises");
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
