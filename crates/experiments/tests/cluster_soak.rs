//! Cluster soak: a 3-worker process topology under a pinned harsh
//! chaos plan, with one worker SIGKILLed mid-replay.
//!
//! What "survival" means here:
//!
//! * the run terminates (no deadlock in routing, shutdown, or report
//!   collection) and the coordinator's ledger balances: every routed
//!   packet and sent batch is acked, rejected, or counted lost;
//! * the kill is visible: at least one death detected, the victim's
//!   flows rehash onto survivors, and the death renders on `/metrics`;
//! * every candidate pair still ends with **exactly one** terminal
//!   verdict (`Correlated`, `Cleared`, or `Degraded`) — losing a
//!   worker may degrade pairs, it may never silently drop one;
//! * the merged engine counters from the reporting workers balance on
//!   their own conservation identity with drained queues.
//!
//! The chaos seed is pinned (44, shared with the single-process soak)
//! so CI failures reproduce with
//! `repro monitor --cluster 3 --chaos 44:harsh`.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use stepstone_cluster::HashRing;
use stepstone_experiments::cluster::{cluster_replay, ClusterOptions, ClusterRunReport};
use stepstone_experiments::live::monitor_spec;
use stepstone_experiments::{ExperimentConfig, Scale};
use stepstone_monitor::PairId;
use stepstone_scenario::{ChaosProfile, ScenarioSpec};
use stepstone_telemetry::Registry;

const WORKERS: u32 = 3;
/// Pinned harsh seed, shared with the single-process chaos soak.
const CHAOS_SEED: u64 = 44;
/// Routed-packet count after which the victim takes SIGKILL — well
/// inside the ~10k-packet replay, so batches are in flight.
const KILL_AFTER: u64 = 4_000;

fn soak_spec() -> ScenarioSpec {
    monitor_spec(&ExperimentConfig::new(Scale::Quick))
}

fn worker_options() -> ClusterOptions {
    ClusterOptions::new(
        WORKERS,
        PathBuf::from(env!("CARGO_BIN_EXE_repro")),
        vec!["cluster-worker".to_string()],
    )
}

/// Exactly-one-terminal-verdict-per-pair: the invariant chaos and
/// worker deaths must not break. Returns the per-pair counts for the
/// caller's size assertion.
fn assert_one_terminal_per_pair(report: &ClusterRunReport) -> HashMap<PairId, usize> {
    let mut terminal: HashMap<PairId, usize> = HashMap::new();
    for verdict in &report.verdicts {
        if let Some(pair) = verdict.pair() {
            *terminal.entry(pair).or_insert(0) += 1;
        }
    }
    assert!(
        terminal.values().all(|&n| n == 1),
        "duplicate terminal verdicts: {terminal:?}"
    );
    assert_eq!(
        terminal.len(),
        report.spec.candidate_pairs(),
        "every candidate pair must resolve exactly once\n{report}"
    );
    terminal
}

#[test]
fn three_workers_survive_kill_nine_mid_replay() {
    let mut spec = soak_spec();
    spec.chaos = Some((CHAOS_SEED, ChaosProfile::Harsh));
    let mut opts = worker_options();
    // Kill the worker that owns flow 0, so the rehash after the death
    // provably has flows to move.
    let victim = HashRing::with_workers(WORKERS)
        .owner(0)
        .expect("non-empty ring owns every key");
    let registry = Arc::new(Registry::new());
    opts.registry = Some(Arc::clone(&registry));
    opts.kill_after = Some((victim, KILL_AFTER));

    let report = cluster_replay(&spec, None, &opts).expect("topology survives the kill");
    let stats = &report.cluster;

    // The coordinator's cross-process ledger balances even with a
    // worker dying mid-batch: sent == acked + lost, routed == acked +
    // rejected + lost.
    assert!(stats.conservation_holds(), "ledger must balance\n{report}");

    // The kill is visible, and the victim's flows moved to survivors.
    assert!(
        stats.worker_deaths >= 1,
        "the SIGKILL must be detected\n{report}"
    );
    assert!(
        stats.flows_rehashed >= 1,
        "the victim owned flow 0\n{report}"
    );

    // No pair is silently dropped: the survivors (or the Degraded
    // backfill) give every candidate pair exactly one terminal verdict.
    assert_one_terminal_per_pair(&report);

    // ...and the death renders on the one Prometheus endpoint.
    let rendered = registry.render_prometheus();
    let deaths: f64 = rendered
        .lines()
        .find(|l| l.starts_with("cluster_worker_deaths_detected_total"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("death counter must render:\n{rendered}"));
    assert!(deaths >= 1.0, "metrics must show the death: {deaths}");
}

#[test]
fn clean_three_worker_run_matches_single_process_detection() {
    let spec = soak_spec();
    let report = cluster_replay(&spec, None, &worker_options()).expect("clean replay succeeds");
    let stats = &report.cluster;

    // A clean shutdown retires workers instead of counting deaths.
    assert_eq!(stats.worker_deaths, 0, "no deaths in a clean run\n{report}");
    assert_eq!(stats.packets_lost, 0, "no losses in a clean run\n{report}");
    assert!(stats.conservation_holds(), "ledger must balance\n{report}");
    // With nobody dead, the merged engine counters account for every
    // acked packet exactly as the coordinator does.
    assert_eq!(
        (
            report.engine.packets_ingested,
            report.engine.packets_rejected
        ),
        (stats.packets_acked, stats.packets_rejected),
        "{report}"
    );

    // Detection parity with the single-process monitor: every true
    // pair latches (false positives are corpus behaviour, shared with
    // the single-process path, and not asserted here).
    assert_eq!(
        report.detection.true_positives as usize, spec.upstreams,
        "all true pairs must correlate\n{report}"
    );
    assert_eq!(
        report.detection.missed, 0,
        "no true pair may be missed\n{report}"
    );
    assert_one_terminal_per_pair(&report);
}
