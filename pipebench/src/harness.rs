//! One benchmark invocation. For each of [`CORPORA`] corpora derived
//! from the seed: synthesise it, build its reference, then repeat
//! calibration pass + set-up + run for its share of the time budget,
//! checking every run's verdicts. The first corpus is warmed up with one
//! unkept run.
//!
//! Untraced runs give the end-to-end metrics. Each of their times is
//! scaled to the reference host by the calibration pass timed just
//! before its run ([`crate::calibrate`]). A traced invocation alternates
//! untraced and traced runs, so the tracing overhead is the ratio of
//! their scaled wall times, and reports the per-layer metrics, unscaled,
//! as the median over its traced runs.

use std::time::{Duration, Instant};

use stepstone_monitor::PairId;
use stepstone_traffic::Seed;

use crate::calibrate::{Calibration, REFERENCE};
use crate::check::{check, CheckResult};
use crate::corpus::{synthesize, Corpus};
use crate::reference::{DecodeSample, Reference};
use crate::replay::{run, Layer, Probe, Run, Trace};
use crate::workload::Workload;
use crate::Error;

/// Corpora an invocation rotates through, each synthesised from its own
/// child of the seed. One corpus has only 4 to 32 latching pairs, and
/// where they fall in the stream sets much of its latency; spreading
/// the measurement over several corpora averages that out, so a
/// metric's spread across seeds reflects the program more than one
/// corpus's layout.
pub const CORPORA: u64 = 4;

/// Set-ups timed per corpus at least: every run sets up once, and extra
/// set-ups top the sample up. A set-up takes about a millisecond, so its
/// median needs many samples to be steady.
const SETUPS_PER_CORPUS: usize = 10;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value: the median over runs (over set-ups for
    /// `setup_s`), scaled to the reference host for end-to-end times.
    pub value: f64,
    /// First and third quartile of the values behind the median.
    pub quartiles: (f64, f64),
    /// Samples behind `value`: runs, set-ups, or for latency the
    /// latched pairs pooled over runs.
    pub samples: usize,
}

/// Everything one invocation measured.
#[derive(Debug)]
pub struct Outcome {
    /// End-to-end metrics (untraced invocation) or per-layer metrics
    /// (traced invocation).
    pub metrics: Vec<Metric>,
    /// Every run's verdict check, warm-up included.
    pub checks: Vec<CheckResult>,
    /// True pairs the reference latches, and upstreams.
    pub detected: (usize, usize),
    /// Pairs the reference latches, true or not.
    pub latched: usize,
    /// Median host factor of the timed runs: how many times slower than
    /// [`REFERENCE`] the host ran the calibration pass.
    pub host_factor: f64,
    /// The last traced run's spans, when traced.
    pub trace: Option<Trace>,
}

impl Outcome {
    /// Candidate pairs judged over all runs.
    pub fn attempted(&self) -> usize {
        self.checks.iter().map(|c| c.pairs).sum()
    }

    /// Pairs that failed the check over all runs.
    pub fn failed(&self) -> usize {
        self.checks.iter().map(|c| c.failed).sum()
    }
}

/// Sorts `values` and returns them.
fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The `q`-quantile of sorted `values`, interpolated between order
/// statistics; 0 for no values.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => {
            let at = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
        }
    }
}

impl Metric {
    /// The median of `samples`, with their quartiles.
    fn median(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
        let s = sorted(samples);
        Metric {
            name,
            unit,
            value: quantile(&s, 0.5),
            quartiles: (quantile(&s, 0.25), quantile(&s, 0.75)),
            samples: s.len(),
        }
    }
}

/// Measures the cost of one `Instant::now()` in nanoseconds: the median
/// over batches of back-to-back reads.
fn clock_nanos() -> f64 {
    const READS: u32 = 10_000;
    let batches = (0..11)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(Instant::now());
            }
            started.elapsed().as_secs_f64() * 1e9 / f64::from(READS)
        })
        .collect();
    quantile(&sorted(batches), 0.5)
}

/// One corpus ready to run: the capture, its reference verdicts and the
/// latency watch list.
struct Prepared {
    corpus: Corpus,
    reference: Reference,
    watch: Vec<(u64, PairId)>,
}

/// A run and the host factor measured by the calibration pass just
/// before it.
struct Timed {
    run: Run,
    host: f64,
}

/// Everything an invocation accumulates over its corpora.
#[derive(Default)]
struct Tally {
    /// Set-up times in seconds, scaled to the reference host.
    setups: Vec<f64>,
    checks: Vec<CheckResult>,
    plain: Vec<Timed>,
    /// Traced runs, each paired by index with the untraced run of the
    /// same corpus made just before it.
    traced: Vec<(Timed, Trace)>,
    /// Peak resident size of the untraced runs on the first corpus, MB.
    /// Later corpora run on a heap that also holds what earlier corpora's
    /// synthesis and reference passes freed, so their resident size
    /// depends on that history; the first corpus's runs all start from
    /// the same state.
    first_rss_mb: Vec<f64>,
    decodes: Vec<DecodeSample>,
    reference_secs: Vec<f64>,
    detected: (usize, usize),
    latched: usize,
}

impl Prepared {
    fn new(workload: &Workload, seed: u64, tally: &mut Tally) -> Result<Prepared, Error> {
        let corpus = synthesize(workload, seed)?;
        let mut reference = Reference::build(
            &corpus.capture,
            &corpus.bind(workload)?,
            &workload.monitor_config(),
            &corpus.true_tuples,
        )?;
        tally.detected.0 += reference.true_latched;
        tally.detected.1 += workload.upstreams;
        tally.latched += reference.latched.len();
        tally.reference_secs.push(reference.elapsed.as_secs_f64());
        tally.decodes.append(&mut reference.decodes);
        let watch = reference.watch_list();
        Ok(Prepared {
            corpus,
            reference,
            watch,
        })
    }

    /// Times a calibration pass, sets up a monitor, runs the capture
    /// through it and checks the verdicts.
    fn run<P: Probe>(
        &self,
        workload: &Workload,
        tally: &mut Tally,
        calibration: &mut Calibration,
        probe: &mut P,
    ) -> Result<Timed, Error> {
        let host = calibration.host_factor();
        let (monitor, setup) = self.corpus.setup(workload)?;
        tally.setups.push(setup.as_secs_f64() / host);
        let run = run(&self.corpus.capture, monitor, &self.watch, probe)?;
        tally.checks.push(check(&self.reference, &run.verdicts));
        Ok(Timed { run, host })
    }
}

/// Runs `workload` from `seed` for about `seconds` of measurement,
/// split evenly over [`CORPORA`] corpora.
///
/// # Errors
///
/// Corpus synthesis or capture parsing failures.
pub fn measure(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Outcome, Error> {
    let clock = clock_nanos();
    let mut calibration = Calibration::new();
    let share = Duration::from_secs_f64(seconds.max(0.0) / CORPORA as f64);
    let mut tally = Tally::default();
    for index in 0..CORPORA {
        let prepared = Prepared::new(workload, Seed::new(seed).child(index).value(), &mut tally)?;
        if index == 0 {
            // Warm-up: fills caches and the allocator; not kept.
            prepared.run(workload, &mut tally, &mut calibration, &mut ())?;
            tally.setups.clear();
        }
        let (plain, traced_runs) = (tally.plain.len(), tally.traced.len());
        let started = Instant::now();
        while tally.plain.len() == plain
            || (traced && tally.traced.len() == traced_runs)
            || started.elapsed() < share
        {
            let timed = prepared.run(workload, &mut tally, &mut calibration, &mut ())?;
            if index == 0 {
                tally
                    .first_rss_mb
                    .push(timed.run.peak_rss as f64 / (1024.0 * 1024.0));
            }
            tally.plain.push(timed);
            if traced {
                let mut trace = Trace::new(Duration::from_nanos(clock.round() as u64));
                let timed = prepared.run(workload, &mut tally, &mut calibration, &mut trace)?;
                tally.traced.push((timed, trace));
            }
        }
        // The extra set-ups follow the corpus's runs at once, so the last
        // run's host factor scales them.
        let host = tally.plain.last().map_or(1.0, |t| t.host);
        while tally.setups.len() < SETUPS_PER_CORPUS * (index as usize + 1) {
            let (monitor, setup) = prepared.corpus.setup(workload)?;
            tally.setups.push(setup.as_secs_f64() / host);
            drop(monitor);
        }
    }

    let metrics = if traced {
        per_layer(&tally, clock)
    } else {
        end_to_end(&tally)
    };
    let host_factor = quantile(&sorted(tally.plain.iter().map(|t| t.host).collect()), 0.5);
    Ok(Outcome {
        metrics,
        checks: tally.checks,
        detected: tally.detected,
        latched: tally.latched,
        host_factor,
        trace: tally.traced.pop().map(|(_, trace)| trace),
    })
}

/// The end-to-end metrics of the untraced runs, times scaled to the
/// reference host.
fn end_to_end(tally: &Tally) -> Vec<Metric> {
    let runs = &tally.plain;
    // Each run's value of a time, scaled to the reference host.
    let scaled = |time: &dyn Fn(&Run) -> f64| {
        runs.iter()
            .map(|t| time(&t.run) / t.host)
            .collect::<Vec<f64>>()
    };
    // Latency percentiles are taken per run, then the median over runs:
    // a run disturbed by a host stall moves one sample of that median
    // instead of the whole pooled tail.
    let latency = |name: &'static str, q: f64| {
        let ms = |r: &Run| sorted(r.latencies.iter().map(|d| d.as_secs_f64() * 1e3).collect());
        Metric {
            samples: runs.iter().map(|t| t.run.latencies.len()).sum(),
            ..Metric::median(name, "ms", scaled(&|r| quantile(&ms(r), q)))
        }
    };
    let packets = |r: &Run| r.packets.max(1) as f64;
    vec![
        Metric::median(
            "throughput_pps",
            "pkt/s",
            scaled(&|r| r.wall.as_secs_f64() / packets(r))
                .into_iter()
                .map(f64::recip)
                .collect(),
        ),
        Metric::median(
            "cpu_us_per_pkt",
            "us",
            scaled(&|r| r.cpu.as_secs_f64() * 1e6 / packets(r)),
        ),
        latency("detect_latency_ms_p50", 0.5),
        latency("detect_latency_ms_p90", 0.9),
        Metric::median("peak_rss_mb", "MB", tally.first_rss_mb.clone()),
        Metric::median("setup_s", "s", tally.setups.clone()),
    ]
}

/// The per-layer metrics: medians over the traced runs, plus the
/// reference passes' decode statistics.
fn per_layer(tally: &Tally, clock_nanos: f64) -> Vec<Metric> {
    let traced = &tally.traced;
    let over = |name: &'static str, unit: &'static str, f: &dyn Fn(&Run, &Trace) -> f64| {
        Metric::median(
            name,
            unit,
            traced.iter().map(|(timed, t)| f(&timed.run, t)).collect(),
        )
    };
    let nanos = |d: Duration| d.as_secs_f64() * 1e9;
    let per_pkt = |layer: Layer| {
        move |r: &Run, t: &Trace| nanos(t.layer(layer).total) / r.packets.max(1) as f64
    };
    let ingest_q = |q: f64| {
        move |_: &Run, t: &Trace| {
            t.layer(Layer::Ingest)
                .nanos
                .snapshot()
                .quantile(q)
                .unwrap_or(0.0)
        }
    };
    let decode_q = |q: f64| move |r: &Run, _: &Trace| r.decode_micros.quantile(q).unwrap_or(0.0);

    let decodes = tally.decodes.len().max(1) as f64;
    let correlate_us = sorted(
        tally
            .decodes
            .iter()
            .map(|d| d.elapsed.as_secs_f64() * 1e6)
            .collect(),
    );
    let mean =
        |f: &dyn Fn(&DecodeSample) -> f64| tally.decodes.iter().map(f).sum::<f64>() / decodes;
    let fixed = |name: &'static str, unit: &'static str, value: f64| Metric {
        name,
        unit,
        value,
        quartiles: (value, value),
        samples: 1,
    };
    let scaled_wall = |t: &Timed| t.run.wall.as_secs_f64() / t.host;
    let overhead: Vec<f64> = tally
        .plain
        .iter()
        .zip(traced)
        .map(|(plain, (timed, _))| scaled_wall(timed) / scaled_wall(plain) - 1.0)
        .collect();

    vec![
        over("ingest.parse_ns_per_pkt", "ns", &per_pkt(Layer::Parse)),
        over("ingest.demux_ns_per_pkt", "ns", &per_pkt(Layer::Demux)),
        over("monitor.ingest_ns_p50", "ns", &ingest_q(0.5)),
        over("monitor.ingest_ns_p99", "ns", &ingest_q(0.99)),
        over("monitor.ingest_busy_frac", "frac", &|r, t| {
            t.layer(Layer::Ingest).total.as_secs_f64() / r.wall.as_secs_f64()
        }),
        over("monitor.decode_us_p50", "us", &decode_q(0.5)),
        over("monitor.decode_us_p99", "us", &decode_q(0.99)),
        over("monitor.decode_busy_frac", "frac", &|r, _| {
            r.decode_micros.sum() as f64 / 1e6 / r.wall.as_secs_f64()
        }),
        over("monitor.queue_depth_mean", "jobs", &|_, t| {
            t.queue_depth_sum as f64 / t.queue_samples.max(1) as f64
        }),
        // Little's law: wait = depth / decode rate.
        over("monitor.queue_wait_us_est", "us", &|r, t| {
            let depth = t.queue_depth_sum as f64 / t.queue_samples.max(1) as f64;
            let per_us = r.stats.decodes_run as f64 / (r.wall.as_secs_f64() * 1e6);
            if per_us > 0.0 {
                depth / per_us
            } else {
                0.0
            }
        }),
        over("monitor.decodes_per_kpkt", "1/kpkt", &|r, _| {
            r.stats.decodes_run as f64 * 1e3 / r.packets.max(1) as f64
        }),
        over("monitor.finish_ms", "ms", &|_, t| {
            t.layer(Layer::Finish).total.as_secs_f64() * 1e3
        }),
        over("monitor.drain_us_per_call", "us", &|_, t| {
            let drain = t.layer(Layer::Drain);
            drain.total.as_secs_f64() * 1e6 / drain.calls.max(1) as f64
        }),
        fixed("core.correlate_us_p50", "us", quantile(&correlate_us, 0.5)),
        fixed("core.correlate_us_p99", "us", quantile(&correlate_us, 0.99)),
        Metric::median("core.reference_s", "s", tally.reference_secs.clone()),
        fixed("core.decode_cost_pkts", "pkts", mean(&|d| d.cost as f64)),
        fixed(
            "matching.cost_pkts_per_decode",
            "pkts",
            mean(&|d| d.matching_cost as f64),
        ),
        fixed(
            "core.incomplete_frac",
            "frac",
            mean(&|d| f64::from(u8::from(d.incomplete))),
        ),
        fixed(
            "flow.window_pkts_per_decode",
            "pkts",
            mean(&|d| d.window as f64),
        ),
        fixed("harness.clock_ns", "ns", clock_nanos),
        Metric::median("harness.trace_overhead_frac", "frac", overhead),
        Metric::median(
            "harness.calibration_ms",
            "ms",
            traced
                .iter()
                .map(|(timed, _)| timed.host * REFERENCE.as_secs_f64() * 1e3)
                .collect(),
        ),
        // Share of the main thread's wall time the timed calls account
        // for, net of the clock reads the trace itself added.
        over("harness.main_self_frac", "frac", &|r, t| {
            let covered: Duration = Layer::ALL.iter().map(|&l| t.layer(l).total).sum();
            let spans: u64 = Layer::ALL.iter().map(|&l| t.layer(l).calls).sum();
            let traced = r.wall.as_secs_f64() - spans as f64 * t.clock.as_secs_f64();
            covered.as_secs_f64() / traced
        }),
    ]
}
