//! `repro matrix`: fans scenario × backend × seed cells across worker
//! processes and collates one machine-readable report.
//!
//! Each cell is one [`ScenarioSpec`] run in a fresh `repro matrix-cell`
//! child — the canonical spec text goes down the child's stdin, one
//! `cell ...` result line comes back up its stdout — so a wedged or
//! crashed cell costs a retry, never the whole sweep. The supervisor
//! allows up to [`MAX_ATTEMPTS`] tries per cell, exponentially spaced,
//! with a hard per-attempt timeout.
//!
//! The report orders cells by (scenario, backend, seed) and carries
//! only reproducible fields (counts and digests, no timings), so two
//! runs of the same matrix render byte-identical
//! `BENCH_scenarios.json` — the property the checked-in benchmark file
//! and its CI check rely on.

use std::collections::VecDeque;
use std::fmt;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use stepstone_scenario::{preset, Backend, ScenarioSpec, MAX_SPEC_BYTES};

use crate::scenario_run::{run, RunOptions};

/// Schema tag of the JSON report.
pub const SCHEMA: &str = "stepstone-matrix-v1";

/// Tries per cell before it is recorded as a failure.
pub const MAX_ATTEMPTS: u32 = 3;

/// Hard wall-clock budget for one cell attempt. Generous: the largest
/// preset runs in seconds; only a wedged child hits this.
const CELL_TIMEOUT: Duration = Duration::from_secs(120);

/// Retry pacing handed to the `backoff` curve.
const BACKOFF_BASE: Duration = Duration::from_millis(200);
const BACKOFF_CAP: Duration = Duration::from_secs(5);

/// Capped exponential backoff after `failures` consecutive failed
/// attempts.
fn backoff(base: Duration, cap: Duration, failures: u32) -> Duration {
    base.saturating_mul(1u32 << failures.min(10)).min(cap)
}

/// Supervisor poll cadence while children run.
const POLL: Duration = Duration::from_millis(25);

/// Longest child stdout the supervisor reads (one `cell` line).
const MAX_CELL_OUTPUT: usize = 64 * 1024;

/// What to sweep and how hard to drive it.
#[derive(Debug, Clone)]
pub struct MatrixOptions {
    /// Scenario names: presets, or paths to `.scn` files (anything
    /// containing `/` or ending in `.scn` is read from disk).
    pub scenarios: Vec<String>,
    /// Backends to cross every scenario with.
    pub backends: Vec<Backend>,
    /// Corpus seeds to cross every (scenario, backend) with.
    pub seeds: Vec<u64>,
    /// Concurrent worker processes.
    pub workers: usize,
    /// The binary to respawn as `matrix-cell` (normally
    /// `std::env::current_exe()`).
    pub worker_exe: PathBuf,
}

/// One derived cell: a base scenario specialised to a backend and
/// seed.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// The base scenario's name.
    pub scenario: String,
    /// This cell's backend.
    pub backend: Backend,
    /// This cell's corpus seed.
    pub seed: u64,
    /// The fully-specialised spec the child runs.
    pub spec: ScenarioSpec,
}

/// One cell's reproducible result.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
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
/// plus any cells that exhausted their retries.
#[derive(Debug, Clone, Default)]
pub struct MatrixReport {
    /// Every successful cell, sorted.
    pub cells: Vec<CellOutcome>,
    /// One line per cell that never produced a result, sorted.
    pub failures: Vec<String>,
}

impl MatrixReport {
    /// The `BENCH_scenarios.json` rendering: schema-tagged, sorted,
    /// free of timing fields — byte-identical across runs of the same
    /// matrix.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"");
        out.push_str(SCHEMA);
        out.push_str("\",\n  \"cells\": [");
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"scenario\": \"{}\", \"backend\": \"{}\", \"seed\": {}, \
                 \"digest\": \"{:016x}\", \"events\": {}, \"true_positives\": {}, \
                 \"false_positives\": {}, \"missed\": {}, \"degraded\": {}, \
                 \"erasures\": {}, \"verdict_digest\": \"{:016x}\"}}",
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
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{f}\""));
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
        let meta = std::fs::metadata(name).map_err(|e| format!("cannot stat {name}: {e}"))?;
        if meta.len() > MAX_SPEC_BYTES as u64 {
            return Err(format!(
                "{name} is {} bytes; scenarios cap at {MAX_SPEC_BYTES}",
                meta.len()
            ));
        }
        let bytes = std::fs::read(name).map_err(|e| format!("cannot read {name}: {e}"))?;
        let text = std::str::from_utf8(&bytes).map_err(|_| format!("{name} is not UTF-8"))?;
        ScenarioSpec::parse(text).map_err(|e| format!("{name}: {e}"))
    } else {
        preset(name).map_err(|e| e.to_string())
    }
}

/// Derives the full scenario × backend × seed product. Each cell gets
/// the backend and seed written into a clone of the base spec; a
/// chaos-bearing scenario additionally folds the cell seed into its
/// chaos seed, so different seeds exercise different fault schedules
/// while the same cell stays reproducible.
pub fn derive_cells(options: &MatrixOptions) -> Result<Vec<MatrixCell>, String> {
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
                cells.push(MatrixCell {
                    scenario: base.name.clone(),
                    backend,
                    seed,
                    spec,
                });
            }
        }
    }
    Ok(cells)
}

/// The hidden `repro matrix-cell` entry point: one canonical spec on
/// stdin, one `cell ...` line on stdout.
///
/// # Errors
///
/// `(exit_code, message)`: the CLI's bad-scenario code for input that
/// does not parse, its stream-error code for a run that fails.
pub fn matrix_cell_main(
    input: &mut dyn Read,
    output: &mut dyn Write,
    exit_bad_scenario: u8,
    exit_run_error: u8,
) -> Result<(), (u8, String)> {
    let mut text = String::new();
    input
        .take(MAX_SPEC_BYTES as u64 + 1)
        .read_to_string(&mut text)
        .map_err(|e| (exit_bad_scenario, format!("cannot read spec: {e}")))?;
    if text.len() > MAX_SPEC_BYTES {
        return Err((
            exit_bad_scenario,
            format!("spec exceeds {MAX_SPEC_BYTES} bytes"),
        ));
    }
    let spec =
        ScenarioSpec::parse(&text).map_err(|e| (exit_bad_scenario, format!("bad spec: {e}")))?;
    let report = run(&spec, &RunOptions::default())
        .map_err(|e| (exit_run_error, format!("run failed: {e}")))?;
    let detection = report.detection;
    writeln!(
        output,
        "cell scenario={} backend={} seed={} digest={:016x} events={} tp={} fp={} \
         missed={} degraded={} erasures={} vdigest={:016x}",
        spec.name,
        spec.backend.name(),
        spec.seed,
        spec.digest(),
        report.events,
        detection.true_positives,
        detection.false_positives,
        detection.missed,
        detection.degraded,
        report.erasures,
        report.verdict_digest(),
    )
    .map_err(|e| (exit_run_error, format!("cannot write result: {e}")))?;
    Ok(())
}

/// Parses one `cell ...` line back into an outcome, validating it
/// against the cell it was supposed to run.
fn parse_cell_line(line: &str, cell: &MatrixCell) -> Option<CellOutcome> {
    let rest = line.trim().strip_prefix("cell ")?;
    let mut outcome = CellOutcome {
        scenario: cell.scenario.clone(),
        backend: cell.backend.name(),
        seed: cell.seed,
        digest: 0,
        events: 0,
        true_positives: 0,
        false_positives: 0,
        missed: 0,
        degraded: 0,
        erasures: 0,
        verdict_digest: 0,
    };
    let mut seen = 0u32;
    for field in rest.split_whitespace() {
        let (key, value) = field.split_once('=')?;
        match key {
            "scenario" => {
                if value != cell.scenario {
                    return None;
                }
            }
            "backend" => {
                if value != cell.backend.name() {
                    return None;
                }
            }
            "seed" => {
                if value.parse::<u64>().ok()? != cell.seed {
                    return None;
                }
            }
            "digest" => outcome.digest = u64::from_str_radix(value, 16).ok()?,
            "events" => outcome.events = value.parse().ok()?,
            "tp" => outcome.true_positives = value.parse().ok()?,
            "fp" => outcome.false_positives = value.parse().ok()?,
            "missed" => outcome.missed = value.parse().ok()?,
            "degraded" => outcome.degraded = value.parse().ok()?,
            "erasures" => outcome.erasures = value.parse().ok()?,
            "vdigest" => outcome.verdict_digest = u64::from_str_radix(value, 16).ok()?,
            _ => return None,
        }
        seen += 1;
    }
    if seen == 11 && outcome.digest == cell.spec.digest() {
        Some(outcome)
    } else {
        None
    }
}

/// One in-flight child.
struct RunningCell {
    child: Child,
    cell: MatrixCell,
    attempts: u32,
    started: Instant,
}

/// Spawns one cell child and feeds it its spec.
fn spawn_cell(exe: &PathBuf, cell: &MatrixCell) -> Result<Child, String> {
    let mut child = Command::new(exe)
        .arg("matrix-cell")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", exe.display()))?;
    // The canonical text is well under the pipe buffer; a child that
    // died already surfaces as a write error, which the caller retries.
    if let Some(mut stdin) = child.stdin.take() {
        if stdin.write_all(cell.spec.canonical().as_bytes()).is_err() {
            // Leave the child to be reaped by the exit path below.
        }
    }
    Ok(child)
}

/// Reads the child's single result line (bounded).
fn read_cell_output(child: &mut Child) -> String {
    let Some(stdout) = child.stdout.take() else {
        return String::new();
    };
    let mut text = String::new();
    let mut bounded = stdout.take(MAX_CELL_OUTPUT as u64);
    if bounded.read_to_string(&mut text).is_err() {
        return String::new();
    }
    text
}

/// Runs the whole matrix: at most `workers` children at a time, each
/// failed cell retried up to [`MAX_ATTEMPTS`] times with `backoff`
/// pacing.
///
/// # Errors
///
/// Only setup failures (bad scenario names, empty axes). Cell failures
/// after retries land in [`MatrixReport::failures`] instead, so one
/// broken cell cannot hide the rest of the sweep.
pub fn run_matrix(options: &MatrixOptions) -> Result<MatrixReport, String> {
    if options.workers == 0 {
        return Err("matrix needs at least one worker".to_string());
    }
    let mut pending: VecDeque<(MatrixCell, u32, Instant)> = derive_cells(options)?
        .into_iter()
        .map(|cell| (cell, 0u32, Instant::now()))
        .collect();
    let mut running: Vec<RunningCell> = Vec::new();
    let mut report = MatrixReport::default();

    while !pending.is_empty() || !running.is_empty() {
        // Fill free slots with eligible (backoff-expired) cells.
        while running.len() < options.workers {
            let Some(at) = pending
                .iter()
                .position(|(_, _, eligible)| *eligible <= Instant::now())
            else {
                break;
            };
            let Some((cell, attempts, _)) = pending.remove(at) else {
                break;
            };
            match spawn_cell(&options.worker_exe, &cell) {
                Ok(child) => running.push(RunningCell {
                    child,
                    cell,
                    attempts: attempts + 1,
                    started: Instant::now(),
                }),
                Err(e) => return Err(e),
            }
        }

        let mut finished: Vec<usize> = Vec::new();
        for (i, slot) in running.iter_mut().enumerate() {
            match slot.child.try_wait() {
                Ok(Some(_)) | Err(_) => finished.push(i),
                Ok(None) => {
                    if slot.started.elapsed() > CELL_TIMEOUT {
                        let _ = slot.child.kill();
                        let _ = slot.child.wait();
                        finished.push(i);
                    }
                }
            }
        }
        // Highest index first so removals do not shift pending ones.
        for &i in finished.iter().rev() {
            let mut slot = running.remove(i);
            let output = read_cell_output(&mut slot.child);
            let _ = slot.child.wait();
            let parsed = output
                .lines()
                .find_map(|line| parse_cell_line(line, &slot.cell));
            match parsed {
                Some(outcome) => report.cells.push(outcome),
                None if slot.attempts < MAX_ATTEMPTS => {
                    let eligible =
                        Instant::now() + backoff(BACKOFF_BASE, BACKOFF_CAP, slot.attempts);
                    pending.push_back((slot.cell, slot.attempts, eligible));
                }
                None => report.failures.push(format!(
                    "{} backend={} seed={}: no result after {} attempts",
                    slot.cell.scenario,
                    slot.cell.backend.name(),
                    slot.cell.seed,
                    slot.attempts,
                )),
            }
        }

        if !running.is_empty() || !pending.is_empty() {
            std::thread::sleep(POLL);
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
            workers: 2,
            worker_exe: PathBuf::from("unused"),
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let base = Duration::from_millis(50);
        let cap = Duration::from_secs(1);
        assert_eq!(backoff(base, cap, 1), Duration::from_millis(100));
        assert_eq!(backoff(base, cap, 2), Duration::from_millis(200));
        assert_eq!(backoff(base, cap, 20), cap);
    }

    #[test]
    fn derive_cells_covers_the_full_product() {
        let cells = derive_cells(&options(&["quick-smoke", "deletion-harsh"])).expect("derives");
        assert_eq!(cells.len(), 2 * Backend::ALL.len() * 2);
        // Every cell digest is distinct: backend and seed are both in
        // the canonical text.
        let mut digests: Vec<u64> = cells.iter().map(|c| c.spec.digest()).collect();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), cells.len());
        // Chaos-bearing cells fold the seed into the chaos seed.
        let harsh: Vec<_> = cells
            .iter()
            .filter(|c| c.scenario == "deletion-harsh")
            .collect();
        let chaos_seeds: Vec<u64> = harsh
            .iter()
            .filter_map(|c| c.spec.chaos.map(|(s, _)| s))
            .collect();
        assert_eq!(chaos_seeds.len(), harsh.len());
        assert_ne!(chaos_seeds[0], chaos_seeds[1]);
    }

    #[test]
    fn derive_cells_rejects_empty_axes() {
        let mut o = options(&["quick-smoke"]);
        o.seeds.clear();
        assert!(derive_cells(&o).is_err());
        assert!(derive_cells(&options(&["no-such-preset"])).is_err());
    }

    #[test]
    fn cell_main_round_trips_through_the_line_format() {
        let cells = derive_cells(&options(&["quick-smoke"])).expect("derives");
        let cell = &cells[0];
        let mut input = cell.spec.canonical().into_bytes();
        let mut output = Vec::new();
        matrix_cell_main(&mut input.as_slice(), &mut output, 5, 3).expect("cell runs");
        let text = String::from_utf8(output).expect("utf-8");
        let outcome = parse_cell_line(text.trim(), cell).expect("parses");
        let direct = run(&cell.spec, &RunOptions::default()).expect("direct run");
        assert_eq!(outcome.verdict_digest, direct.verdict_digest());
        assert_eq!(outcome.true_positives, direct.detection.true_positives);
        // Taking input from a different cell is rejected.
        assert!(parse_cell_line(text.trim(), &cells[1]).is_none());
        input.truncate(3);
        let mut output = Vec::new();
        let (code, _) =
            matrix_cell_main(&mut input.as_slice(), &mut output, 5, 3).expect_err("truncated spec");
        assert_eq!(code, 5);
    }

    #[test]
    fn report_json_is_stable_and_schema_tagged() {
        let mut report = MatrixReport::default();
        report.cells.push(CellOutcome {
            scenario: "b".to_string(),
            backend: "paper",
            seed: 2,
            digest: 1,
            events: 10,
            true_positives: 2,
            false_positives: 0,
            missed: 0,
            degraded: 0,
            erasures: 0,
            verdict_digest: 0xabc,
        });
        report.cells.push(CellOutcome {
            scenario: "a".to_string(),
            backend: "paper",
            seed: 1,
            digest: 2,
            events: 11,
            true_positives: 1,
            false_positives: 1,
            missed: 1,
            degraded: 0,
            erasures: 17,
            verdict_digest: 0xdef,
        });
        report.cells.sort();
        let json = report.to_json();
        assert!(json.contains(SCHEMA), "{json}");
        assert!(json.find("\"a\"") < json.find("\"b\""), "sorted: {json}");
        assert_eq!(json, report.to_json(), "rendering is pure");
    }
}
