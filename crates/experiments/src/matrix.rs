//! `repro matrix`: runs every scenario × backend × seed cell in
//! process and collates one machine-readable report.
//!
//! Each cell is one [`ScenarioSpec`] run through [`run`], in sequence —
//! the shape of `robust::run_sweep`. A cell is a deterministic function
//! of its spec, so a run that fails is recorded once in
//! [`MatrixReport::failures`] with its error: a retry would rerun the
//! same failure. Decode panics never reach here; the monitor contains
//! them.
//!
//! The report orders cells by (scenario, backend, seed) and carries
//! only reproducible fields (counts and digests, no timings), so two
//! runs of the same matrix render byte-identical
//! `BENCH_scenarios.json` — the property the checked-in benchmark file
//! and its CI check rely on.

use std::fmt;
use std::fs::File;
use std::io::Read;

use stepstone_scenario::{preset, Backend, ScenarioSpec, MAX_SPEC_BYTES};

use crate::scenario_run::{run, RunOptions};
use crate::serve::json_escape;

/// Schema tag of the JSON report.
pub const SCHEMA: &str = "stepstone-matrix-v1";

/// What to sweep.
#[derive(Debug, Clone)]
pub struct MatrixOptions {
    /// Scenario names: presets, or paths to `.scn` files (anything
    /// containing `/` or ending in `.scn` is read from disk).
    pub scenarios: Vec<String>,
    /// Backends to cross every scenario with.
    pub backends: Vec<Backend>,
    /// Corpus seeds to cross every (scenario, backend) with.
    pub seeds: Vec<u64>,
}

/// One cell's reproducible result.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellOutcome {
    /// The base scenario's name.
    pub scenario: String,
    /// Backend name.
    pub backend: &'static str,
    /// Corpus seed.
    pub seed: u64,
    /// The specialised spec's digest.
    pub digest: u64,
    /// Events delivered to the monitor.
    pub events: u64,
    /// True pairs detected.
    pub true_positives: u32,
    /// Correlated verdicts on non-true pairs.
    pub false_positives: u32,
    /// True pairs missed.
    pub missed: u32,
    /// Pairs that ended degraded.
    pub degraded: u32,
    /// Effective deletions the cell's channel inflicted (see
    /// [`crate::scenario_run::RunReport::erasures`]).
    pub erasures: u64,
    /// The run's verdict digest (see
    /// [`crate::scenario_run::RunReport::verdict_digest`]).
    pub verdict_digest: u64,
}

/// The collated sweep: outcomes sorted by (scenario, backend, seed),
/// plus any cells whose run failed.
#[derive(Debug, Clone, Default)]
pub struct MatrixReport {
    /// Every successful cell, sorted.
    pub cells: Vec<CellOutcome>,
    /// One line per cell whose run failed, with its error, sorted.
    pub failures: Vec<String>,
}

impl MatrixReport {
    /// The `BENCH_scenarios.json` rendering: schema-tagged, sorted,
    /// free of timing fields — byte-identical across runs of the same
    /// matrix.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\n  \"schema\": \"{SCHEMA}\",\n  \"cells\": [");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str(&format!(
                "{}\n    {{\"scenario\": \"{}\", \"backend\": \"{}\", \"seed\": {}, \
                 \"digest\": \"{:016x}\", \"events\": {}, \"true_positives\": {}, \
                 \"false_positives\": {}, \"missed\": {}, \"degraded\": {}, \
                 \"erasures\": {}, \"verdict_digest\": \"{:016x}\"}}",
                if i > 0 { "," } else { "" },
                c.scenario,
                c.backend,
                c.seed,
                c.digest,
                c.events,
                c.true_positives,
                c.false_positives,
                c.missed,
                c.degraded,
                c.erasures,
                c.verdict_digest,
            ));
        }
        out.push_str("\n  ],\n  \"failures\": [");
        for (i, f) in self.failures.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            out.push_str(&format!("{sep}\n    \"{}\"", json_escape(f)));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

impl fmt::Display for MatrixReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<16} {:<8} {:>6} {:>4} {:>4} {:>7} {:>9} {:>9}  verdict-digest",
            "scenario", "backend", "seed", "tp", "fp", "missed", "degraded", "erasures"
        )?;
        for c in &self.cells {
            writeln!(
                f,
                "{:<16} {:<8} {:>6} {:>4} {:>4} {:>7} {:>9} {:>9}  {:016x}",
                c.scenario,
                c.backend,
                c.seed,
                c.true_positives,
                c.false_positives,
                c.missed,
                c.degraded,
                c.erasures,
                c.verdict_digest,
            )?;
        }
        for failure in &self.failures {
            writeln!(f, "FAILED {failure}")?;
        }
        Ok(())
    }
}

/// Resolves a scenario name: a path (contains `/` or ends in `.scn`)
/// is read from disk, anything else is a preset.
pub fn resolve_scenario(name: &str) -> Result<ScenarioSpec, String> {
    if name.contains('/') || name.ends_with(".scn") {
        // Bounded: a path whose metadata reports 0 bytes (`/dev/zero`,
        // a FIFO) would otherwise be read without limit.
        let mut bytes = Vec::new();
        File::open(name)
            .and_then(|file| file.take(MAX_SPEC_BYTES as u64 + 1).read_to_end(&mut bytes))
            .map_err(|e| format!("cannot read {name}: {e}"))?;
        if bytes.len() > MAX_SPEC_BYTES {
            return Err(format!("{name} exceeds {MAX_SPEC_BYTES} bytes"));
        }
        let text = std::str::from_utf8(&bytes).map_err(|_| format!("{name} is not UTF-8"))?;
        ScenarioSpec::parse(text).map_err(|e| format!("{name}: {e}"))
    } else {
        preset(name).map_err(|e| e.to_string())
    }
}

/// Derives the full scenario × backend × seed product. Each cell is a
/// clone of the base spec with the backend and seed written in; a
/// chaos-bearing scenario additionally folds the cell seed into its
/// chaos seed, so different seeds exercise different fault schedules
/// while the same cell stays reproducible.
pub fn derive_cells(options: &MatrixOptions) -> Result<Vec<ScenarioSpec>, String> {
    if options.scenarios.is_empty() || options.backends.is_empty() || options.seeds.is_empty() {
        return Err("matrix needs at least one scenario, backend and seed".to_string());
    }
    let mut cells = Vec::new();
    for name in &options.scenarios {
        let base = resolve_scenario(name)?;
        for &backend in &options.backends {
            for &seed in &options.seeds {
                let mut spec = base.clone();
                spec.backend = backend;
                spec.seed = seed;
                if let Some((chaos_seed, profile)) = spec.chaos {
                    spec.chaos = Some((chaos_seed ^ seed.rotate_left(17), profile));
                }
                cells.push(spec);
            }
        }
    }
    Ok(cells)
}

/// Runs the whole matrix in process, one cell after another.
///
/// # Errors
///
/// Only setup failures (bad scenario names, empty axes). A cell whose
/// run fails lands in [`MatrixReport::failures`] instead, so one broken
/// cell cannot hide the rest of the sweep.
pub fn run_matrix(options: &MatrixOptions) -> Result<MatrixReport, String> {
    let mut report = MatrixReport::default();
    for spec in derive_cells(options)? {
        let (backend, seed) = (spec.backend.name(), spec.seed);
        match run(&spec, &RunOptions::default()) {
            Ok(outcome) => report.cells.push(CellOutcome {
                digest: spec.digest(),
                events: outcome.events,
                true_positives: outcome.detection.true_positives,
                false_positives: outcome.detection.false_positives,
                missed: outcome.detection.missed,
                degraded: outcome.detection.degraded,
                erasures: outcome.erasures,
                verdict_digest: outcome.verdict_digest(),
                scenario: spec.name,
                backend,
                seed,
            }),
            Err(e) => report
                .failures
                .push(format!("{} backend={backend} seed={seed}: {e}", spec.name)),
        }
    }
    report.cells.sort();
    report.failures.sort();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(scenarios: &[&str]) -> MatrixOptions {
        MatrixOptions {
            scenarios: scenarios.iter().map(|s| s.to_string()).collect(),
            backends: Backend::ALL.to_vec(),
            seeds: vec![1, 2],
        }
    }

    #[test]
    fn derive_cells_covers_the_full_product() {
        let cells = derive_cells(&options(&["quick-smoke", "deletion-harsh"])).expect("derives");
        assert_eq!(cells.len(), 2 * Backend::ALL.len() * 2);
        // Every cell digest is distinct: backend and seed are both in
        // the canonical text.
        let mut digests: Vec<u64> = cells.iter().map(ScenarioSpec::digest).collect();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), cells.len());
        // Chaos-bearing cells fold the seed into the chaos seed.
        let chaos_seeds: Vec<u64> = cells
            .iter()
            .filter(|c| c.name == "deletion-harsh")
            .map(|c| c.chaos.expect("deletion-harsh carries chaos").0)
            .collect();
        assert_ne!(chaos_seeds[0], chaos_seeds[1]);
    }

    #[test]
    fn derive_cells_rejects_empty_axes() {
        let mut o = options(&["quick-smoke"]);
        o.seeds.clear();
        assert!(derive_cells(&o).is_err());
        assert!(derive_cells(&options(&["no-such-preset"])).is_err());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn spec_files_are_read_up_to_the_cap() {
        // `/dev/zero` reports 0 bytes and never ends: only a bounded
        // read rejects it.
        let err = resolve_scenario("/dev/zero").expect_err("endless file");
        assert!(err.contains(&MAX_SPEC_BYTES.to_string()), "{err}");
    }

    #[test]
    fn report_json_is_stable_and_schema_tagged() {
        let cell = |scenario: &str, seed| CellOutcome {
            scenario: scenario.to_string(),
            backend: "paper",
            seed,
            ..CellOutcome::default()
        };
        let mut report = MatrixReport {
            cells: vec![cell("b", 2), cell("a", 1)],
            failures: vec!["a backend=paper seed=1: \"quoted\"".to_string()],
        };
        report.cells.sort();
        let json = report.to_json();
        assert!(json.contains(SCHEMA), "{json}");
        assert!(json.find("\"a\"") < json.find("\"b\""), "sorted: {json}");
        assert!(json.contains(r#"seed=1: \"quoted\""#), "escaped: {json}");
        assert_eq!(json, report.to_json(), "rendering is pure");
    }
}
