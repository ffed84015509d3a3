//! `repro matrix` acceptance: a sweep over ≥3 scenarios × 3 backends
//! emits a stable, schema-tagged `BENCH_scenarios.json` — two runs of
//! the same matrix are byte-identical.

use stepstone_experiments::matrix::{run_matrix, MatrixOptions, SCHEMA};
use stepstone_scenario::Backend;

fn options() -> MatrixOptions {
    MatrixOptions {
        scenarios: vec![
            "quick-smoke".to_string(),
            "baseline".to_string(),
            "deletion-harsh".to_string(),
        ],
        backends: Backend::ALL.to_vec(),
        seeds: vec![1],
    }
}

#[test]
fn two_runs_of_the_same_matrix_are_byte_identical() {
    let options = options();
    let first = run_matrix(&options).expect("first sweep");
    assert!(first.failures.is_empty(), "failures: {:?}", first.failures);
    assert_eq!(first.cells.len(), 3 * Backend::ALL.len());
    let second = run_matrix(&options).expect("second sweep");
    assert_eq!(first.to_json(), second.to_json());
    assert!(first.to_json().contains(SCHEMA));

    // Ordering is (scenario, backend, seed), not the order the axes
    // were given in.
    let keys: Vec<(String, &str, u64)> = first
        .cells
        .iter()
        .map(|c| (c.scenario.clone(), c.backend, c.seed))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);

    // The quick-smoke paper cell matches a direct run of the same
    // specialised spec.
    let mut spec = stepstone_scenario::preset("quick-smoke").expect("preset");
    spec.seed = 1;
    spec.backend = Backend::Paper;
    let direct =
        stepstone_experiments::scenario_run::run(&spec, &Default::default()).expect("direct");
    let cell = first
        .cells
        .iter()
        .find(|c| c.scenario == "quick-smoke" && c.backend == "paper" && c.seed == 1)
        .expect("cell present");
    assert_eq!(cell.digest, spec.digest());
    assert_eq!(cell.verdict_digest, direct.verdict_digest());
}
