//! `repro robust-sweep`: the paper-vs-robust loss A/B behind
//! `BENCH_robust.json`.
//!
//! The sweep crosses every correlator backend with every decode mode
//! over a packet-loss axis, all on the `baseline` preset's corpus (the
//! paper's §4 regime). At zero loss both decoders agree — the robust
//! path must not cost detections when the paper's assumption 1 holds.
//! As loss rises the strict decoder's empty matching sets abort decodes
//! and true pairs slip away, while the robust decoder charges erasures
//! against its budget and keeps deciding on the surviving bits.
//!
//! Like `repro matrix`, the report carries only reproducible fields
//! (counts, digests — no timings) and renders sorted, schema-tagged
//! JSON, so two runs of the same sweep are byte-identical — the
//! property the CI determinism lane checks.

use std::fmt;

use stepstone_scenario::{preset, Backend, Decode, ScenarioSpec};

use crate::scenario_run::{run, RunOptions, ScenarioRunError};

/// Schema tag of the JSON report.
pub const SCHEMA: &str = "stepstone-robust-v1";

/// The loss axis, in parts per million: 0, 1%, 5%, 10%.
pub const LOSS_PPM: [u32; 4] = [0, 10_000, 50_000, 100_000];

/// One (backend, decode, loss) cell of the sweep.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SweepCell {
    /// Backend name.
    pub backend: &'static str,
    /// Decode-mode name.
    pub decode: &'static str,
    /// Packet loss in parts per million.
    pub loss_ppm: u32,
    /// The specialised spec's digest.
    pub digest: u64,
    /// True pairs detected.
    pub true_positives: u32,
    /// Correlated verdicts on non-true pairs.
    pub false_positives: u32,
    /// True pairs missed.
    pub missed: u32,
    /// Pairs that ended degraded.
    pub degraded: u32,
    /// Effective channel deletions (see
    /// [`crate::scenario_run::RunReport::erasures`]).
    pub erasures: u64,
    /// The run's verdict digest.
    pub verdict_digest: u64,
}

/// The collated sweep, sorted by (backend, decode, loss).
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Every cell, sorted.
    pub cells: Vec<SweepCell>,
}

impl SweepReport {
    /// The `BENCH_robust.json` rendering: schema-tagged, sorted, free
    /// of timing fields — byte-identical across runs.
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
                "\n    {{\"backend\": \"{}\", \"decode\": \"{}\", \"loss_ppm\": {}, \
                 \"digest\": \"{:016x}\", \"true_positives\": {}, \"false_positives\": {}, \
                 \"missed\": {}, \"degraded\": {}, \"erasures\": {}, \
                 \"verdict_digest\": \"{:016x}\"}}",
                c.backend,
                c.decode,
                c.loss_ppm,
                c.digest,
                c.true_positives,
                c.false_positives,
                c.missed,
                c.degraded,
                c.erasures,
                c.verdict_digest,
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<8} {:<7} {:>8} {:>4} {:>4} {:>7} {:>9} {:>9}  verdict-digest",
            "backend", "decode", "loss-ppm", "tp", "fp", "missed", "degraded", "erasures"
        )?;
        for c in &self.cells {
            writeln!(
                f,
                "{:<8} {:<7} {:>8} {:>4} {:>4} {:>7} {:>9} {:>9}  {:016x}",
                c.backend,
                c.decode,
                c.loss_ppm,
                c.true_positives,
                c.false_positives,
                c.missed,
                c.degraded,
                c.erasures,
                c.verdict_digest,
            )?;
        }
        Ok(())
    }
}

/// The base scenario every cell specialises: the `baseline` preset.
fn base_spec() -> Result<ScenarioSpec, ScenarioRunError> {
    preset("baseline").map_err(|e| ScenarioRunError::Invalid(e.to_string()))
}

/// Runs the full backend × decode × loss product.
///
/// # Errors
///
/// Only corpus-synthesis failures; every cell of a valid base spec
/// runs to a verdict.
pub fn run_sweep() -> Result<SweepReport, ScenarioRunError> {
    let base = base_spec()?;
    let mut report = SweepReport::default();
    for backend in Backend::ALL {
        for decode in Decode::ALL {
            for loss_ppm in LOSS_PPM {
                let mut spec = base.clone();
                spec.backend = backend;
                spec.decode = decode;
                spec.loss_ppm = loss_ppm;
                let outcome = run(&spec, &RunOptions::default())?;
                let detection = outcome.detection;
                report.cells.push(SweepCell {
                    backend: backend.name(),
                    decode: decode.name(),
                    loss_ppm,
                    digest: spec.digest(),
                    true_positives: detection.true_positives,
                    false_positives: detection.false_positives,
                    missed: detection.missed,
                    degraded: detection.degraded,
                    erasures: outcome.erasures,
                    verdict_digest: outcome.verdict_digest(),
                });
            }
        }
    }
    report.cells.sort();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_the_full_product_and_is_deterministic() {
        let report = run_sweep().expect("sweep runs");
        assert_eq!(
            report.cells.len(),
            Backend::ALL.len() * Decode::ALL.len() * LOSS_PPM.len()
        );
        // Zero false positives anywhere: robust decoding must not buy
        // detections with accusations.
        for c in &report.cells {
            assert_eq!(c.false_positives, 0, "{c:?}");
        }
        // At zero loss, robust never detects fewer pairs than strict.
        for backend in Backend::ALL {
            let tp = |decode: &str| {
                report
                    .cells
                    .iter()
                    .find(|c| c.backend == backend.name() && c.decode == decode && c.loss_ppm == 0)
                    .map(|c| c.true_positives)
                    .expect("cell exists")
            };
            assert!(
                tp("robust") >= tp("strict"),
                "backend {backend}: robust regressed at zero loss"
            );
        }
        // Rendering is pure and reruns are byte-identical.
        let again = run_sweep().expect("second sweep");
        assert_eq!(report.to_json(), again.to_json());
    }
}
