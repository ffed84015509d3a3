//! `pipeline`: runs the capture-to-verdict benchmark.
//!
//! ```text
//! pipeline --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//! pipeline [--seed N] [--seconds S]      # every workload, both modes
//! ```
//!
//! With `--workload`, the last line of standard output is one JSON
//! object: `correct`, `attempted` (candidate pairs judged over all
//! runs), `failed` (pairs whose verdicts disagree with the reference)
//! and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Exit status is 1 when any run
//! fails the verdict check, 2 on bad usage or when the pipeline cannot
//! run.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::process::ExitCode;

use stepstone_pipebench::calibrate::REFERENCE;
use stepstone_pipebench::harness::{measure, Outcome};
use stepstone_pipebench::replay::{Layer, Trace};
use stepstone_pipebench::workload::{Workload, NAMES};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => args.trace_out = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn print_table(workload: &Workload, seed: u64, outcome: &Outcome) {
    let (detected, upstreams) = outcome.detected;
    println!(
        "workload {} seed {seed}: {} runs (warm-up included); reference detects {detected}/{upstreams}, \
         latches {} pairs",
        workload.name,
        outcome.checks.len(),
        outcome.latched
    );
    println!(
        "  host runs the calibration pass in {:.1} ms; end-to-end times are scaled to a host \
         that takes {} ms",
        outcome.host_factor * REFERENCE.as_secs_f64() * 1e3,
        REFERENCE.as_millis()
    );
    println!(
        "  {:<32} {:>8} {:>14} {:>14} {:>14} {:>7}",
        "metric", "unit", "median", "q1", "q3", "n"
    );
    for m in &outcome.metrics {
        println!(
            "  {:<32} {:>8} {:>14.6} {:>14.6} {:>14.6} {:>7}",
            m.name, m.unit, m.value, m.quartiles.0, m.quartiles.1, m.samples
        );
    }
    let attempted = outcome.attempted();
    println!(
        "  {:<32} {:>8} {:>14.6} {:>14} {:>14} {:>7}",
        "verdict_error_rate",
        "frac",
        outcome.failed() as f64 / attempted.max(1) as f64,
        "",
        "",
        attempted
    );
}

fn result_json(correct: bool, outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted(),
        outcome.failed()
    )
}

/// The last traced run's spans: per-layer aggregates (count, self-time
/// sum, log2 histogram of nanoseconds) and the kept per-pair latch
/// spans, as JSON.
fn trace_json(trace: &Trace) -> String {
    let mut out = String::from("{\"layers\": {");
    for (i, layer) in Layer::ALL.iter().enumerate() {
        let stats = trace.layer(*layer);
        let snapshot = stats.nanos.snapshot();
        let buckets: Vec<String> = snapshot.counts().iter().map(u64::to_string).collect();
        let _ = write!(
            out,
            "{}\"{}\": {{\"calls\": {}, \"self_ns\": {}, \"log2_ns_buckets\": [{}]}}",
            if i == 0 { "" } else { ", " },
            layer.name(),
            stats.calls,
            stats.total.as_nanos(),
            buckets.join(", ")
        );
    }
    out.push_str("}, \"latches\": [");
    for (i, latch) in trace.latches.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"upstream\": {}, \"flow\": {}, \"ingest_ns\": [{}, {}], \"drain_ns\": [{}, {}]}}",
            if i == 0 { "" } else { ", " },
            latch.pair.upstream.0,
            latch.pair.flow.0,
            latch.ingest.0.as_nanos(),
            latch.ingest.1.as_nanos(),
            latch.drain.0.as_nanos(),
            latch.drain.1.as_nanos()
        );
    }
    out.push_str("]}\n");
    out
}

fn workload(name: &str) -> Result<Workload, String> {
    Workload::named(name)
        .ok_or_else(|| format!("unknown workload {name:?}; known: {}", NAMES.join(", ")))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("pipeline: {msg}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => NAMES.to_vec(),
    };
    let modes: &[bool] = match args.workload {
        Some(_) => std::slice::from_ref(&args.trace),
        None => &[false, true],
    };
    let mut failed = false;
    for name in names {
        let workload = match workload(name) {
            Ok(w) => w,
            Err(msg) => {
                eprintln!("pipeline: {msg}");
                return ExitCode::from(2);
            }
        };
        for &traced in modes {
            let outcome = match measure(&workload, args.seed, args.seconds, traced) {
                Ok(outcome) => outcome,
                Err(err) => {
                    eprintln!("pipeline: {}: {err}", workload.name);
                    return ExitCode::from(2);
                }
            };
            print_table(&workload, args.seed, &outcome);
            let correct = outcome.failed() == 0;
            failed |= !correct;
            if let (Some(path), Some(trace)) = (&args.trace_out, &outcome.trace) {
                if let Err(err) = std::fs::write(path, trace_json(trace)) {
                    eprintln!("pipeline: writing {path}: {err}");
                    return ExitCode::from(2);
                }
            }
            if args.workload.is_some() {
                println!("{}", result_json(correct, &outcome));
            }
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepstone_pipebench::harness::Metric;

    #[test]
    fn result_line_is_one_json_object() {
        let outcome = Outcome {
            metrics: vec![Metric {
                name: "setup_s",
                unit: "s",
                value: 0.5,
                quartiles: (0.4, 0.6),
                samples: 3,
            }],
            checks: Vec::new(),
            detected: (0, 0),
            latched: 0,
            host_factor: 1.0,
            trace: None,
        };
        assert_eq!(
            result_json(true, &outcome),
            "{\"correct\": true, \"attempted\": 0, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
