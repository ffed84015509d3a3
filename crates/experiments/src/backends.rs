//! Cross-backend comparison: the same corpora decoded by every
//! correlator backend, reporting detection, false positives and decode
//! cost side by side.
//!
//! Two regimes bracket the passive detectors' operating envelope:
//!
//! - **mild** — `Δ = 1 s`, chaff `0.5/s`: the channel is sparse enough
//!   (`Δ · rate` near 1) that order-consistent coverage and the IPD
//!   likelihood ratio still separate true pairs from decoys.
//! - **stress** — the scale's `repro monitor` spec (`Δ = 7 s`, chaff
//!   `3/s`): chance matching serves nearly every window, the passive
//!   statistics flatten, and both passive backends (by design) stop
//!   correlating — the saturation regime that motivates the paper's
//!   active watermarking.
//!
//! Corpora derive from the seed alone, so all backends in a regime see
//! byte-identical flows.

use std::fmt;

use stepstone_flow::TimeDelta;
use stepstone_scenario::{Backend, ScenarioSpec};
use stepstone_watermark::WatermarkParams;

use crate::config::ExperimentConfig;
use crate::live::{monitor_spec, paper_workload};
use crate::scenario_run::{build_spec_corpus, run, RunOptions, ScenarioRunError};

/// One backend's results over one regime's corpus.
#[derive(Debug, Clone)]
pub struct BackendRow {
    /// The backend decoded with.
    pub backend: Backend,
    /// True pairs detected (of `upstreams`).
    pub true_positives: u32,
    /// Correlated verdicts on non-pairs.
    pub false_positives: u32,
    /// True pairs not detected.
    pub missed: u32,
    /// Windows the online replay decoded; jobs answered without
    /// decoding after their pair latched are not counted.
    pub decodes: u64,
    /// Mean packet accesses for one full-window decode of a true pair.
    pub mean_cost_true: f64,
    /// Mean packet accesses for one full-window decode of a non-pair.
    pub mean_cost_other: f64,
    /// Online replay throughput, packets per second.
    pub packets_per_sec: f64,
}

/// One regime: its spec and every backend's row over it.
#[derive(Debug, Clone)]
pub struct BackendRegime {
    /// Short regime name (`mild`, `stress`).
    pub name: &'static str,
    /// The spec all backends run (modulo the backend field).
    pub spec: ScenarioSpec,
    /// One row per [`Backend::ALL`] entry, in that order.
    pub rows: Vec<BackendRow>,
}

/// The full cross-backend comparison.
#[derive(Debug, Clone)]
pub struct BackendComparison {
    /// Compared regimes, mild first.
    pub regimes: Vec<BackendRegime>,
}

/// The mild regime's spec: sparse enough for passive detection.
fn mild_spec(cfg: &ExperimentConfig) -> ScenarioSpec {
    let mut spec = paper_workload(
        "backends-mild",
        cfg.seed,
        TimeDelta::from_secs(1),
        0.5,
        WatermarkParams::small(),
    );
    spec.upstreams = 4;
    spec.decoys = 4;
    spec.packets = 400;
    spec
}

/// Runs every backend over both regimes' corpora.
///
/// # Errors
///
/// Fails only if a spec's flows cannot carry the watermark layout.
pub fn compare(cfg: &ExperimentConfig) -> Result<BackendComparison, ScenarioRunError> {
    let regimes = [("mild", mild_spec(cfg)), ("stress", monitor_spec(cfg))];
    let mut out = Vec::new();
    for (name, base) in regimes {
        let mut rows = Vec::new();
        for backend in Backend::ALL {
            let mut spec = base.clone();
            spec.backend = backend;
            let report = run(&spec, &RunOptions::default())?;
            let (mean_cost_true, mean_cost_other) = batch_costs(&spec)?;
            rows.push(BackendRow {
                backend,
                true_positives: report.detection.true_positives,
                false_positives: report.detection.false_positives,
                missed: report.detection.missed,
                decodes: report.stats.decodes_run,
                mean_cost_true,
                mean_cost_other,
                packets_per_sec: report.packets_per_sec(),
            });
        }
        out.push(BackendRegime {
            name,
            spec: base,
            rows,
        });
    }
    Ok(BackendComparison { regimes: out })
}

/// Decodes every (upstream, suspicious) pair once at full window and
/// averages the billed packet accesses (`cost + matching_cost`, the
/// monitor's per-verdict convention) over true pairs and non-pairs.
fn batch_costs(spec: &ScenarioSpec) -> Result<(f64, f64), ScenarioRunError> {
    let corpus = build_spec_corpus(spec, None)?;
    let (mut true_sum, mut true_n) = (0u64, 0u64);
    let (mut other_sum, mut other_n) = (0u64, 0u64);
    for (i, correlator) in corpus.correlators.iter().enumerate() {
        for (flow_id, flow) in &corpus.suspicious {
            let outcome = correlator.correlate(flow);
            let billed = outcome.cost + outcome.matching_cost;
            if flow_id.0 == i as u64 {
                true_sum += billed;
                true_n += 1;
            } else {
                other_sum += billed;
                other_n += 1;
            }
        }
    }
    let mean = |sum: u64, n: u64| if n == 0 { 0.0 } else { sum as f64 / n as f64 };
    Ok((mean(true_sum, true_n), mean(other_sum, other_n)))
}

impl fmt::Display for BackendComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for regime in &self.regimes {
            let s = &regime.spec;
            writeln!(
                f,
                "backend comparison [{}]: {} upstreams, {} decoys, {} packets, \
                 delta {:.3}s, chaff {}/s",
                regime.name,
                s.upstreams,
                s.decoys,
                s.packets,
                s.delta_ms as f64 / 1000.0,
                s.chaff.rate()
            )?;
            writeln!(
                f,
                "{:<8} {:>3} {:>3} {:>6} {:>8} {:>15} {:>16} {:>12}",
                "backend",
                "tp",
                "fp",
                "missed",
                "decodes",
                "mean_cost_true",
                "mean_cost_other",
                "packets/sec"
            )?;
            for row in &regime.rows {
                writeln!(
                    f,
                    "{:<8} {:>3} {:>3} {:>6} {:>8} {:>15.0} {:>16.0} {:>12.0}",
                    row.backend.name(),
                    row.true_positives,
                    row.false_positives,
                    row.missed,
                    row.decodes,
                    row.mean_cost_true,
                    row.mean_cost_other,
                    row.packets_per_sec
                )?;
            }
        }
        Ok(())
    }
}

impl BackendComparison {
    /// Renders the comparison as a stable JSON document (hand-rolled;
    /// the workspace vendors no JSON serializer), the shape checked in
    /// as `BENCH_backends.json`: each backend's detection and decode
    /// cost. Throughput varies with the host and is left out, so the
    /// file is reproducible from the seed alone; decode counts are
    /// shown in the table only.
    pub fn to_json(&self, scale: &str) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"bench\": \"backends\",\n");
        out.push_str(&format!("  \"scale\": \"{scale}\",\n"));
        out.push_str(
            "  \"note\": \"same seed-derived corpus decoded by every backend; \
             cost is packet accesses per full-window decode\",\n",
        );
        out.push_str("  \"regimes\": {\n");
        for (ri, regime) in self.regimes.iter().enumerate() {
            let s = &regime.spec;
            out.push_str(&format!("    \"{}\": {{\n", regime.name));
            out.push_str(&format!(
                "      \"scenario\": {{\"upstreams\": {}, \"decoys\": {}, \"packets\": {}, \
                 \"delta_secs\": {}, \"chaff_per_sec\": {}}},\n",
                s.upstreams,
                s.decoys,
                s.packets,
                s.delta_ms as f64 / 1000.0,
                s.chaff.rate()
            ));
            out.push_str("      \"backends\": {\n");
            for (i, row) in regime.rows.iter().enumerate() {
                out.push_str(&format!(
                    "        \"{}\": {{\"true_positives\": {}, \"false_positives\": {}, \
                     \"missed\": {}, \"mean_cost_true\": {:.1}, \
                     \"mean_cost_other\": {:.1}}}{}\n",
                    row.backend.name(),
                    row.true_positives,
                    row.false_positives,
                    row.missed,
                    row.mean_cost_true,
                    row.mean_cost_other,
                    if i + 1 == regime.rows.len() { "" } else { "," }
                ));
            }
            out.push_str("      }\n");
            out.push_str(&format!(
                "    }}{}\n",
                if ri + 1 == self.regimes.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        out.push_str("  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;

    /// Runs `spec` and returns its verdicts, in stream order, and the
    /// windows it decoded.
    fn verdicts_and_decodes(spec: &ScenarioSpec) -> (Vec<String>, u64) {
        let report = run(spec, &RunOptions::default()).expect("the corpus carries the layout");
        let verdicts = report.verdicts.iter().map(|v| format!("{v:?}")).collect();
        (verdicts, report.stats.decodes_run)
    }

    #[test]
    fn replays_give_identical_verdicts_in_order() {
        let mut spec = mild_spec(&ExperimentConfig::new(Scale::Quick));
        spec.backend = Backend::Elices;
        let first = verdicts_and_decodes(&spec);
        for run in 1..10 {
            assert_eq!(verdicts_and_decodes(&spec), first, "replay {run}");
        }
    }

    #[test]
    fn comparison_covers_every_backend_in_order() {
        let cfg = ExperimentConfig::new(Scale::Quick);
        let comparison = compare(&cfg).expect("quick corpora carry the layout");
        assert_eq!(comparison.regimes.len(), 2);
        for regime in &comparison.regimes {
            let kinds: Vec<Backend> = regime.rows.iter().map(|r| r.backend).collect();
            assert_eq!(kinds, Backend::ALL.to_vec());
            for row in &regime.rows {
                assert_eq!(
                    (row.true_positives + row.missed) as usize,
                    regime.spec.upstreams
                );
                assert!(row.mean_cost_true > 0.0);
            }
        }
        // In the mild regime every backend separates true pairs from
        // decoys; in the saturated stress regime the passive backends
        // must go quiet rather than false-positive.
        let mild = &comparison.regimes[0];
        for row in &mild.rows {
            assert_eq!(row.missed, 0, "{} missed in mild regime", row.backend);
            assert_eq!(row.false_positives, 0, "{} FP in mild regime", row.backend);
        }
        let stress = &comparison.regimes[1];
        for row in &stress.rows {
            if row.backend != Backend::Paper {
                assert_eq!(
                    row.false_positives, 0,
                    "{} FP under saturation",
                    row.backend
                );
            }
        }
        let rendered = comparison.to_string();
        assert!(rendered.contains("backend comparison [mild]"), "{rendered}");
        let json = comparison.to_json("quick");
        assert!(json.contains("\"regimes\""), "{json}");
        assert!(json.contains("\"game\""), "{json}");
    }
}
