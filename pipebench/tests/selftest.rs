//! Harness self-test: every workload shape at a tiny size through the
//! same code the benchmark runs, plus the verdict checker against
//! doctored verdict streams.

use stepstone_monitor::Verdict;
use stepstone_pipebench::check::check;
use stepstone_pipebench::corpus::synthesize;
use stepstone_pipebench::harness::measure;
use stepstone_pipebench::reference::Reference;
use stepstone_pipebench::replay::run;
use stepstone_pipebench::workload::{Workload, NAMES};

const SEED: u64 = 7;

fn tiny(name: &str) -> Workload {
    Workload::named(name).expect("known workload").tiny()
}

#[test]
fn every_workload_matches_its_reference() {
    for name in NAMES {
        for traced in [false, true] {
            let outcome = measure(&tiny(name), SEED, 0.0, traced).expect("tiny run");
            assert!(outcome.attempted() > 0, "{name}: no pairs judged");
            assert_eq!(
                outcome.failed(),
                0,
                "{name} (traced {traced}): {:?}",
                outcome.checks
            );
            assert!(
                outcome.metrics.iter().all(|m| m.value.is_finite()),
                "{name}"
            );
        }
    }
}

#[test]
fn checker_flags_doctored_verdict_streams() {
    let workload = tiny("decode-heavy");
    let corpus = synthesize(&workload, SEED).expect("corpus");
    let reference = Reference::build(
        &corpus.capture,
        &corpus.bind(&workload).expect("bind"),
        &workload.monitor_config(),
        &corpus.true_tuples,
    )
    .expect("reference");
    assert!(
        !reference.latched.is_empty(),
        "the tiny corpus must detect something"
    );
    let (monitor, _) = corpus.setup(&workload).expect("setup");
    let verdicts = run(&corpus.capture, monitor, &reference.watch_list(), &mut ())
        .expect("run")
        .verdicts;
    assert_eq!(check(&reference, &verdicts).failed, 0);

    let mut dropped = verdicts.clone();
    let at = dropped
        .iter()
        .position(Verdict::is_correlated)
        .expect("a Correlated verdict");
    dropped.remove(at);
    assert_eq!(check(&reference, &dropped).failed, 1, "dropped Correlated");

    let mut duplicated = verdicts.clone();
    let terminal = *duplicated
        .iter()
        .find(|v| v.terminal_kind().is_some() && !v.is_correlated())
        .expect("a negative terminal verdict");
    duplicated.push(terminal);
    assert_eq!(
        check(&reference, &duplicated).failed,
        1,
        "duplicated terminal"
    );
}

/// The manifest names exactly the workloads and metrics the harness
/// reports, with matching units.
#[test]
fn benchmark_manifest_matches_the_reported_metrics() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    for name in NAMES {
        assert!(
            manifest.contains(&format!("\"name\": \"{name}\"")),
            "workload {name}"
        );
    }
    let mut reported = NAMES.len();
    for traced in [false, true] {
        let outcome = measure(&tiny("decode-heavy"), SEED, 0.0, traced).expect("tiny run");
        reported += outcome.metrics.len();
        for m in &outcome.metrics {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(
                manifest.contains(&entry),
                "metric {} ({}) missing",
                m.name,
                m.unit
            );
        }
    }
    assert_eq!(manifest.matches("\"name\": ").count(), reported);
}
