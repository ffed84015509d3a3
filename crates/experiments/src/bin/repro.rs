//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--scale quick|default|full] [--seed N] [--out DIR] [--chart] <target>...
//! targets: table1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10
//!          figures (3–10)  synthetic (§4.2)  summary (§4.3)
//!          future-loss future-repack (§6)  monitor (online engine)
//!          backends (cross-backend table)  pcap-export (wire fixture)  all
//! ```

#![forbid(unsafe_code)]
//!
//! The `monitor` target runs a scenario spec lowered from the
//! configuration, and additionally honours `--pairs N`, `--decoys N`
//! and `--packets N` to size it, `--backend
//! paper|elices|game` to pick the correlator backend, and `--decode
//! strict|robust` (with `--erasure-budget N`) to pick the decode layer;
//! the edited spec must still validate.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use stepstone_chaos::{FaultPlan, Profile};
use stepstone_core::{DecodeMode, UnknownBackend, UnknownDecodeMode};
use stepstone_experiments::scenario_run::{self, RunOptions};
use stepstone_experiments::{
    ablations, backends, diagnostics, figures, live, matrix, robust, serve, ExperimentConfig, Scale,
};
use stepstone_ingest::ReplayClock;
use stepstone_scenario::{Backend, ChaosProfile, Decode, ScenarioSpec};
use stepstone_stats::Figure;
use stepstone_telemetry::{MetricsServer, Registry};
use stepstone_traffic::Seed;

/// Exit code when a `--pcap` replay abandoned the capture tail on a
/// stream error (the verdicts above it still printed). Also used for
/// `matrix` cells whose run failed: the results above are honest but
/// incomplete.
const EXIT_STREAM_ERROR: u8 = 3;

/// Exit code for an unrecognised `--backend` or `--decode` name.
/// Distinct from the generic usage error so scripts sweeping backends
/// or decode modes can tell a typo from a broken invocation.
const EXIT_UNKNOWN_BACKEND: u8 = 4;

/// Exit code for a scenario that does not parse or validate (a DSL
/// error, not an infrastructure one).
const EXIT_BAD_SCENARIO: u8 = 5;

/// Exit code when `--snapshot` points at a file that exists but does
/// not decode; `repro serve` refuses to silently discard state the
/// operator expected to resume.
const EXIT_BAD_SNAPSHOT: u8 = 6;

/// A CLI failure: a generic usage/runtime error (exit 1, with the
/// usage text), or one of the typed conditions scripts branch on —
/// unknown `--backend` or `--decode` (exit [`EXIT_UNKNOWN_BACKEND`]),
/// bad scenario (exit [`EXIT_BAD_SCENARIO`]), bad snapshot (exit
/// [`EXIT_BAD_SNAPSHOT`]) — which print just their message (the usage
/// dump would bury it).
enum CliError {
    Usage(String),
    UnknownBackend(UnknownBackend),
    UnknownDecode(UnknownDecodeMode),
    Scenario(String),
    Snapshot(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Usage(msg.to_string())
    }
}

impl From<UnknownBackend> for CliError {
    fn from(err: UnknownBackend) -> Self {
        CliError::UnknownBackend(err)
    }
}

impl From<UnknownDecodeMode> for CliError {
    fn from(err: UnknownDecodeMode) -> Self {
        CliError::UnknownDecode(err)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(CliError::UnknownBackend(err)) => {
            eprintln!("repro: {err}");
            ExitCode::from(EXIT_UNKNOWN_BACKEND)
        }
        Err(CliError::UnknownDecode(err)) => {
            eprintln!("repro: {err}");
            ExitCode::from(EXIT_UNKNOWN_BACKEND)
        }
        Err(CliError::Scenario(msg)) => {
            eprintln!("repro: {msg}");
            ExitCode::from(EXIT_BAD_SCENARIO)
        }
        Err(CliError::Snapshot(msg)) => {
            eprintln!("repro: {msg}");
            ExitCode::from(EXIT_BAD_SNAPSHOT)
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("repro: {msg}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: repro [--scale quick|default|full] [--seed N] [--out DIR] [--chart]
             [--pairs N] [--decoys N] [--packets N]
             [--backend paper|elices|game]
             [--decode strict|robust] [--erasure-budget N]
             [--pcap FILE] [--replay fast|real|xN]
             [--chaos SEED[:mild|harsh|adversarial]]
             [--metrics-addr HOST:PORT]
             [--scenario NAME|FILE.scn] [--addr HOST:PORT] [--snapshot FILE]
             [--scenarios A,B,..] [--backends A,B,..] [--seeds N,M,..] <target>...
targets: table1 fig3..fig10 figures synthetic summary future-loss future-repack\n         extension-hops ablations diagnostics monitor backends pcap-export\n         scenarios scenario serve matrix robust-sweep all
exit codes: 0 ok, 1 usage/runtime error, 3 stream error / failed matrix cells,
            4 unknown --backend/--decode, 5 bad scenario, 6 bad snapshot";

struct Options {
    cfg: ExperimentConfig,
    out: Option<PathBuf>,
    chart: bool,
    targets: Vec<String>,
    /// `monitor` target overrides: upstreams, decoys, packets.
    pairs: Option<usize>,
    decoys: Option<usize>,
    packets: Option<usize>,
    /// Correlator backend every `monitor` upstream registers with.
    backend: Backend,
    /// Decode layer every bound correlator runs; `None` keeps the
    /// spec's own (strict for `monitor`, the `decode =` key for
    /// `scenario`).
    decode: Option<Decode>,
    /// Erasure budget a `--decode robust` override runs with.
    erasure_budget: u32,
    /// `monitor` reads this capture instead of an in-memory stream.
    pcap: Option<PathBuf>,
    /// Pacing for `--pcap` replay.
    replay: ReplayClock,
    /// `monitor` runs under this seed-deterministic fault plan.
    chaos: Option<FaultPlan>,
    /// `monitor` serves live telemetry here (e.g. `127.0.0.1:9184`,
    /// or port `0` for an ephemeral one) and keeps the endpoint up
    /// after the report prints, until the process is killed.
    metrics_addr: Option<String>,
    /// `scenario` runs this preset name or `.scn` file.
    scenario: Option<String>,
    /// `serve` listens here (port 0 picks an ephemeral port, printed
    /// to stderr).
    addr: String,
    /// `serve` persists and restores its session table here.
    snapshot: Option<PathBuf>,
    /// `matrix` axes.
    scenarios: Vec<String>,
    backends_axis: Vec<stepstone_scenario::Backend>,
    seeds: Vec<u64>,
}

fn parse(args: &[String]) -> Result<Options, CliError> {
    let mut scale = Scale::Default;
    let mut seed: Option<u64> = None;
    let mut out = None;
    let mut chart = false;
    let mut targets = Vec::new();
    let mut pairs = None;
    let mut decoys = None;
    let mut packets = None;
    let mut backend = Backend::default();
    let mut decode_mode: Option<DecodeMode> = None;
    let mut erasure_budget: u32 = 64;
    let mut pcap = None;
    let mut replay = ReplayClock::Fast;
    let mut chaos = None;
    let mut metrics_addr = None;
    let mut scenario = None;
    let mut addr = "127.0.0.1:0".to_string();
    let mut snapshot = None;
    let mut scenarios = vec![
        "quick-smoke".to_string(),
        "baseline".to_string(),
        "deletion-harsh".to_string(),
    ];
    let mut backends_axis = stepstone_scenario::Backend::ALL.to_vec();
    let mut seeds: Vec<u64> = vec![1, 2, 3];
    let parse_count = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next()
            .ok_or(format!("{flag} needs a value"))?
            .parse::<usize>()
            .map_err(|e| format!("bad {flag}: {e}"))
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                scale = match it.next().map(String::as_str) {
                    Some("quick") => Scale::Quick,
                    Some("default") => Scale::Default,
                    Some("full") => Scale::Full,
                    other => return Err(format!("bad --scale {other:?}").into()),
                };
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = Some(v.parse().map_err(|e| format!("bad --seed: {e}"))?);
            }
            "--out" => {
                out = Some(PathBuf::from(it.next().ok_or("--out needs a directory")?));
            }
            "--chart" => chart = true,
            "--pairs" => pairs = Some(parse_count(&mut it, "--pairs")?),
            "--decoys" => decoys = Some(parse_count(&mut it, "--decoys")?),
            "--packets" => packets = Some(parse_count(&mut it, "--packets")?),
            "--backend" => {
                let v = it.next().ok_or("--backend needs a name")?;
                backend = parse_scenario_backend(v)?;
            }
            "--decode" => {
                let v = it.next().ok_or("--decode needs a mode name")?;
                decode_mode = Some(DecodeMode::parse(v)?);
            }
            "--erasure-budget" => {
                let v = it.next().ok_or("--erasure-budget needs a count")?;
                erasure_budget = v
                    .parse::<u32>()
                    .map_err(|e| format!("bad --erasure-budget: {e}"))?;
            }
            "--pcap" => {
                pcap = Some(PathBuf::from(it.next().ok_or("--pcap needs a file")?));
            }
            "--replay" => {
                let v = it.next().ok_or("--replay needs a value")?;
                replay = v.parse().map_err(|e| format!("{e}"))?;
            }
            "--chaos" => {
                let v = it.next().ok_or("--chaos needs SEED[:PROFILE]")?;
                chaos = Some(FaultPlan::parse(v).map_err(|e| format!("bad --chaos: {e}"))?);
            }
            "--metrics-addr" => {
                metrics_addr = Some(
                    it.next()
                        .ok_or("--metrics-addr needs HOST:PORT")?
                        .to_string(),
                );
            }
            "--scenario" => {
                scenario = Some(
                    it.next()
                        .ok_or("--scenario needs a name or file")?
                        .to_string(),
                );
            }
            "--addr" => {
                addr = it.next().ok_or("--addr needs HOST:PORT")?.to_string();
            }
            "--snapshot" => {
                snapshot = Some(PathBuf::from(it.next().ok_or("--snapshot needs a file")?));
            }
            "--scenarios" => {
                let v = it.next().ok_or("--scenarios needs A,B,..")?;
                scenarios = v.split(',').map(str::to_string).collect();
            }
            "--backends" => {
                let v = it.next().ok_or("--backends needs A,B,..")?;
                backends_axis = v
                    .split(',')
                    .map(parse_scenario_backend)
                    .collect::<Result<_, _>>()?;
            }
            "--seeds" => {
                let v = it.next().ok_or("--seeds needs N,M,..")?;
                seeds = v
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<u64>()
                            .map_err(|e| format!("bad --seeds: {e}"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--help" | "-h" => return Err("help requested".into()),
            t if !t.starts_with('-') => targets.push(t.to_string()),
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    if targets.is_empty() {
        return Err("no targets given".into());
    }
    let mut cfg = ExperimentConfig::new(scale);
    if let Some(s) = seed {
        cfg = cfg.with_seed(Seed::new(s));
    }
    Ok(Options {
        cfg,
        out,
        chart,
        targets,
        pairs,
        decoys,
        packets,
        backend,
        decode: decode_mode.map(|mode| match mode {
            DecodeMode::Strict => Decode::Strict,
            DecodeMode::Robust => Decode::Robust,
        }),
        erasure_budget,
        pcap,
        replay,
        chaos,
        metrics_addr,
        scenario,
        addr,
        snapshot,
        scenarios,
        backends_axis,
        seeds,
    })
}

/// Parses a scenario-DSL backend name. Routed through [`CliError`]'s
/// unknown-backend arm (exit [`EXIT_UNKNOWN_BACKEND`]) the same way
/// `--backend` is, since the names are pinned to match.
fn parse_scenario_backend(name: &str) -> Result<stepstone_scenario::Backend, CliError> {
    let name = name.trim();
    stepstone_scenario::Backend::ALL
        .into_iter()
        .find(|b| b.name() == name)
        .ok_or_else(|| {
            CliError::UnknownBackend(UnknownBackend {
                input: name.to_string(),
            })
        })
}

fn run(args: &[String]) -> Result<u8, CliError> {
    let opts = parse(args)?;
    if let Some(dir) = &opts.out {
        fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let mut code = 0u8;
    for target in &opts.targets {
        code = code.max(dispatch(target, &opts)?);
    }
    Ok(code)
}

fn dispatch(target: &str, opts: &Options) -> Result<u8, CliError> {
    let cfg = &opts.cfg;
    match target {
        "table1" => print!("{}", figures::table1(cfg)),
        "fig3" => emit(&figures::fig3(cfg), opts)?,
        "fig4" => emit(&figures::fig4(cfg), opts)?,
        "fig5" => emit(&figures::fig5(cfg), opts)?,
        "fig6" => emit(&figures::fig6(cfg), opts)?,
        "fig7" => emit(&figures::fig7(cfg), opts)?,
        "fig8" => emit(&figures::fig8(cfg), opts)?,
        "fig9" => emit(&figures::fig9(cfg), opts)?,
        "fig10" => emit(&figures::fig10(cfg), opts)?,
        "figures" => {
            for f in figures::all(cfg) {
                emit(&f, opts)?;
            }
        }
        "synthetic" => {
            for f in figures::synthetic_all(cfg) {
                emit(&f, opts)?;
            }
        }
        "summary" => print!("{}", figures::summary(cfg)),
        "extension-hops" => emit(&figures::extension_hops(cfg), opts)?,
        "future-loss" => emit(&figures::future_loss(cfg), opts)?,
        "future-repack" => emit(&figures::future_repack(cfg), opts)?,
        "monitor" => {
            let server = match &opts.metrics_addr {
                Some(addr) => {
                    let registry = Arc::new(Registry::new());
                    let server = MetricsServer::bind(addr.as_str(), Arc::clone(&registry))
                        .map_err(|e| format!("cannot bind --metrics-addr {addr}: {e}"))?;
                    eprintln!("serving metrics at http://{}/metrics", server.local_addr());
                    Some((server, registry))
                }
                None => None,
            };
            let registry = server.as_ref().map(|(_, r)| Arc::clone(r));
            // Wire mode: correlators come from the scale-independent
            // wire spec, packets from the capture file.
            let lowered = match opts.pcap {
                Some(_) => live::wire_spec(cfg),
                None => live::monitor_spec(cfg),
            };
            let spec = apply_overrides(lowered, opts)?;
            if let Some(plan) = scenario_run::chaos_plan(&spec) {
                eprintln!(
                    "chaos plan {plan}: schedule digest {:016x}",
                    plan.schedule_digest(4096)
                );
            }
            let bytes = read_capture(opts)?;
            let capture = bytes.as_deref().map(|bytes| (bytes, opts.replay));
            let run_opts = RunOptions {
                capture,
                registry,
                engine_chaos: true,
                ..RunOptions::default()
            };
            let report =
                scenario_run::run(&spec, &run_opts).map_err(|e| format!("monitor: {e}"))?;
            println!("{report}");
            let stream_error = report.stream_error.is_some();
            if let Some((_server, _)) = server {
                // Keep the endpoint up so a scraper can read the final
                // counters after the report; exit via SIGINT/SIGTERM.
                eprintln!("metrics endpoint stays up until the process is killed");
                loop {
                    std::thread::park();
                }
            }
            if stream_error {
                // The capture tail was abandoned: verdicts above are
                // honest but incomplete, so say so in the exit code.
                return Ok(EXIT_STREAM_ERROR);
            }
        }
        "backends" => {
            let comparison = backends::compare(cfg).map_err(|e| format!("backends: {e}"))?;
            print!("{comparison}");
            if let Some(dir) = &opts.out {
                let scale = match cfg.scale {
                    Scale::Quick => "quick",
                    Scale::Default => "default",
                    Scale::Full => "full",
                };
                let path = dir.join("BENCH_backends.json");
                fs::write(&path, comparison.to_json(scale))
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                eprintln!("wrote {}", path.display());
            }
        }
        "pcap-export" => {
            let spec = apply_overrides(live::wire_spec(cfg), opts)?;
            let bytes =
                scenario_run::export_pcap(&spec).map_err(|e| format!("pcap-export: {e}"))?;
            let dir = opts.out.clone().unwrap_or_else(|| PathBuf::from("."));
            let path = dir.join("sample.pcap");
            fs::write(&path, &bytes)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("wrote {} ({} bytes)", path.display(), bytes.len());
        }
        "diagnostics" => {
            print!("{}", diagnostics::hamming_histograms(cfg));
            print!("{}", diagnostics::matching_set_sizes(cfg));
        }
        "ablations" => {
            emit(&ablations::ablation_adjustment(cfg), opts)?;
            emit(&ablations::ablation_redundancy(cfg), opts)?;
            emit(&ablations::ablation_threshold(cfg), opts)?;
            emit(&ablations::ablation_chaff_models(cfg), opts)?;
            print!("{}", ablations::ablation_phase1(cfg));
        }
        "scenarios" => {
            println!(
                "{:<16} {:<16} {:<11} {:<8}  headline",
                "name", "digest", "traffic", "backend"
            );
            for spec in stepstone_scenario::all_presets() {
                println!(
                    "{:<16} {:016x} {:<11} {:<8}  {} upstreams, {} decoys, {} pkts",
                    spec.name,
                    spec.digest(),
                    spec.traffic,
                    spec.backend,
                    spec.upstreams,
                    spec.decoys,
                    spec.packets,
                );
            }
        }
        "scenario" => {
            let name = opts
                .scenario
                .as_deref()
                .ok_or("the scenario target needs --scenario NAME|FILE.scn")?;
            let mut spec = matrix::resolve_scenario(name).map_err(CliError::Scenario)?;
            // The CLI decode layer overrides the spec's own key.
            set_decode(&mut spec, opts);
            eprintln!("scenario {} digest {:016x}", spec.name, spec.digest());
            let bytes = read_capture(opts)?;
            let run_opts = RunOptions {
                capture: bytes.as_deref().map(|bytes| (bytes, ReplayClock::Fast)),
                ..RunOptions::default()
            };
            let report =
                scenario_run::run(&spec, &run_opts).map_err(|e| format!("scenario: {e}"))?;
            print!("{}", report.canonical_verdicts());
            println!("{}", report.summary());
            if report.stream_error.is_some() {
                return Ok(EXIT_STREAM_ERROR);
            }
        }
        "serve" => {
            let registry = Arc::new(Registry::new());
            let config = serve::ServeConfig {
                addr: opts.addr.clone(),
                snapshot: opts.snapshot.clone(),
            };
            let handle = serve::start(&config, &registry).map_err(|e| match e {
                serve::ServeError::Snapshot(_) => CliError::Snapshot(e.to_string()),
                _ => CliError::Usage(format!("serve: {e}")),
            })?;
            eprintln!(
                "serving sessions at http://{}/sessions",
                handle.local_addr()
            );
            if let Some(path) = &opts.snapshot {
                eprintln!("snapshotting state to {}", path.display());
            }
            // Serve until killed; the write-through snapshot means even
            // SIGKILL loses nothing that cannot recompute.
            loop {
                std::thread::park();
            }
        }
        "matrix" => {
            let options = matrix::MatrixOptions {
                scenarios: opts.scenarios.clone(),
                backends: opts.backends_axis.clone(),
                seeds: opts.seeds.clone(),
            };
            let report = matrix::run_matrix(&options).map_err(CliError::Scenario)?;
            print!("{report}");
            if let Some(dir) = &opts.out {
                let path = dir.join("BENCH_scenarios.json");
                fs::write(&path, report.to_json())
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                eprintln!("wrote {}", path.display());
            }
            if !report.failures.is_empty() {
                return Ok(EXIT_STREAM_ERROR);
            }
        }
        "robust-sweep" => {
            let report = robust::run_sweep().map_err(|e| format!("robust-sweep: {e}"))?;
            print!("{report}");
            if let Some(dir) = &opts.out {
                let path = dir.join("BENCH_robust.json");
                fs::write(&path, report.to_json())
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                eprintln!("wrote {}", path.display());
            }
        }
        "all" => {
            print!("{}", figures::table1(cfg));
            for f in figures::all(cfg) {
                emit(&f, opts)?;
            }
            for f in figures::synthetic_all(cfg) {
                emit(&f, opts)?;
            }
            print!("{}", figures::summary(cfg));
            emit(&figures::future_loss(cfg), opts)?;
            emit(&figures::future_repack(cfg), opts)?;
            dispatch("ablations", opts)?;
            dispatch("diagnostics", opts)?;
            dispatch("extension-hops", opts)?;
            return dispatch("monitor", opts);
        }
        other => return Err(format!("unknown target {other}").into()),
    }
    Ok(0)
}

/// Applies the `monitor` flags to a lowered spec, then validates it: a
/// flag value the spec rejects (`--pairs 0`, `--packets 100`) is a usage
/// error carrying the spec's own message.
fn apply_overrides(mut spec: ScenarioSpec, opts: &Options) -> Result<ScenarioSpec, String> {
    if let Some(n) = opts.pairs {
        spec.upstreams = n;
    }
    if let Some(n) = opts.decoys {
        spec.decoys = n;
    }
    if let Some(n) = opts.packets {
        spec.packets = n;
    }
    spec.backend = opts.backend;
    set_decode(&mut spec, opts);
    spec.chaos = opts.chaos.map(|plan| {
        let profile = match plan.profile() {
            Profile::Mild => ChaosProfile::Mild,
            Profile::Harsh => ChaosProfile::Harsh,
            Profile::Adversarial => ChaosProfile::Adversarial,
        };
        (plan.seed(), profile)
    });
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}

/// Applies `--decode` (and, for robust, `--erasure-budget`) to a spec.
fn set_decode(spec: &mut ScenarioSpec, opts: &Options) {
    if let Some(decode) = opts.decode {
        spec.decode = decode;
        if decode == Decode::Robust {
            spec.erasure_budget = opts.erasure_budget;
        }
    }
}

/// Reads the `--pcap` capture, if one was given.
fn read_capture(opts: &Options) -> Result<Option<Vec<u8>>, String> {
    opts.pcap
        .as_ref()
        .map(|path| fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display())))
        .transpose()
}

fn emit(fig: &Figure, opts: &Options) -> Result<(), String> {
    println!("{}", fig.to_table());
    if opts.chart {
        println!("{}", fig.to_ascii_chart(64));
    }
    if let Some(dir) = &opts.out {
        let path = dir.join(format!("{}.csv", fig.id()));
        fs::write(&path, fig.to_csv())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}
