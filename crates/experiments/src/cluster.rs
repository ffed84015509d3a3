//! Distributed replay: run a [`ScenarioSpec`] through a
//! [`stepstone_cluster`] worker topology.
//!
//! The coordinator never ships correlators over the pipe. A spec is
//! pure data — every flow and watermark derives from its seed — so the
//! `Hello` spec is its canonical text, and each worker parses it with
//! [`ScenarioSpec::parse`] and rebuilds the *identical* correlators in
//! [`worker_main`]. The coordinator synthesises (or demuxes) only the
//! packet stream and routes it; the workers own all decode state.
//!
//! A cluster run is a `repro monitor` run, so the spec's chaos arms
//! every layer, as [`RunOptions::engine_chaos`] does in one process:
//! the flow layer runs coordinator-side before routing, the wire layer
//! mutates capture bytes before parsing, and each worker arms its
//! engine with [`FaultPlan::for_worker`] so sibling processes draw
//! independent — but reproducible — runtime fault schedules from one
//! spec.
//!
//! [`RunOptions::engine_chaos`]: crate::scenario_run::RunOptions::engine_chaos
//! [`FaultPlan::for_worker`]: stepstone_chaos::FaultPlan::for_worker

use std::fmt;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use stepstone_cluster::{serve, Cluster, ClusterConfig, ClusterStats, WireStats, WorkerSummary};
use stepstone_flow::Packet;
use stepstone_ingest::{parse_capture, CaptureRecord, FlowDemux, IngestError, ReplayClock};
use stepstone_monitor::{FlowId, Verdict};
use stepstone_scenario::ScenarioSpec;
use stepstone_telemetry::Registry;

use crate::scenario_run::{
    build_spec_corpus, chaos_plan, merged_stream, spec_monitor, Detection, ScenarioRunError,
};

/// The worker-process entry point behind `repro cluster-worker`: serves
/// the framed IPC loop on the given pipes, rebuilding the monitor (and
/// its full correlator corpus) from the coordinator's spec text. The
/// spec's chaos, when present, is re-derived per worker with
/// [`FaultPlan::for_worker`](stepstone_chaos::FaultPlan::for_worker) so
/// siblings fault independently.
pub fn worker_main<R: Read, W: Write>(
    reader: &mut R,
    writer: &mut W,
) -> Result<WorkerSummary, String> {
    serve(reader, writer, |worker, hello| {
        let text = std::str::from_utf8(hello).map_err(|e| format!("spec is not UTF-8: {e}"))?;
        let spec = ScenarioSpec::parse(text).map_err(|e| format!("bad spec: {e}"))?;
        let plan = chaos_plan(&spec).map(|plan| plan.for_worker(u64::from(worker)));
        let corpus = build_spec_corpus(&spec, None).map_err(|e| e.to_string())?;
        Ok(spec_monitor(&spec, corpus.correlators, None, plan.as_ref()))
    })
    .map_err(|e| e.to_string())
}

/// Options for a distributed replay.
pub struct ClusterOptions {
    /// Worker process count (≥ 1).
    pub workers: u32,
    /// Worker executable (normally `std::env::current_exe()`).
    pub program: std::path::PathBuf,
    /// Arguments selecting the worker entry point (e.g.
    /// `["cluster-worker"]` for the `repro` binary).
    pub args: Vec<String>,
    /// Coordinator metrics registry: cluster counters plus per-worker
    /// snapshots land here, one Prometheus endpoint for the topology.
    pub registry: Option<Arc<Registry>>,
    /// Deterministic mid-replay SIGKILL (worker, after-packet) for the
    /// soak harness.
    pub kill_after: Option<(u32, u64)>,
}

impl ClusterOptions {
    /// Options for `workers` processes of `program`.
    pub fn new(workers: u32, program: std::path::PathBuf, args: Vec<String>) -> Self {
        ClusterOptions {
            workers,
            program,
            args,
            registry: None,
            kill_after: None,
        }
    }

    fn to_config(&self, spec: &ScenarioSpec) -> ClusterConfig {
        let mut config = ClusterConfig::new(self.program.clone(), self.workers);
        config.args = self.args.clone();
        config.spec = spec.canonical().into_bytes();
        config.upstreams = (0..spec.upstreams as u64).collect();
        config.registry = self.registry.clone();
        config.kill_after = self.kill_after;
        config
    }
}

/// The outcome of one distributed replay.
#[derive(Debug)]
pub struct ClusterRunReport {
    /// The spec that ran.
    pub spec: ScenarioSpec,
    /// Worker processes configured.
    pub workers: u32,
    /// Packets routed by the coordinator.
    pub events: u64,
    /// Wall-clock time for routing + shutdown + report collection.
    pub elapsed: Duration,
    /// The verdicts scored against the spec's true pairs; `degraded`
    /// includes `WorkerLost` backfills.
    pub detection: Detection,
    /// Coordinator-level conservation ledger.
    pub cluster: ClusterStats,
    /// Merged final engine counters from every reporting worker.
    pub engine: WireStats,
    /// Final engine counters per worker slot (`None` = died without
    /// reporting).
    pub per_worker: Vec<Option<WireStats>>,
    /// Every deduped verdict the topology emitted, in arrival order —
    /// kept so soak tests can assert exactly-one-terminal-per-pair.
    pub verdicts: Vec<Verdict>,
    /// A capture-tail error that ended a pcap stream early, if any.
    pub stream_error: Option<IngestError>,
}

impl ClusterRunReport {
    /// Replay throughput in packets per second.
    pub fn packets_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

impl fmt::Display for ClusterRunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = &self.spec;
        writeln!(
            f,
            "cluster replay: {} workers, {} upstreams, {} decoys, {} candidate pairs",
            self.workers,
            s.upstreams,
            s.decoys,
            s.candidate_pairs()
        )?;
        writeln!(
            f,
            "throughput:     {} packets in {:.3} s = {:.0} packets/sec",
            self.events,
            self.elapsed.as_secs_f64(),
            self.packets_per_sec()
        )?;
        writeln!(f, "detection:      {}", self.detection)?;
        if let Some(err) = &self.stream_error {
            writeln!(f, "stream error:   capture tail abandoned: {err}")?;
        }
        writeln!(f, "{}", self.cluster)?;
        for (w, stats) in self.per_worker.iter().enumerate() {
            match stats {
                Some(s) => writeln!(
                    f,
                    "worker {w}: {} ingested, {} decoded, {} decode panics, {} verdicts",
                    s.packets_ingested, s.decodes_run, s.decode_panics, s.verdicts_emitted
                )?,
                None => writeln!(f, "worker {w}: died without a final report")?,
            }
        }
        write!(
            f,
            "engine (merged): {} ingested, {} decoded, {} decode panics",
            self.engine.packets_ingested, self.engine.decodes_run, self.engine.decode_panics
        )
    }
}

/// Runs the spec through a worker topology — the distributed
/// counterpart of [`crate::scenario_run::run`] with engine chaos armed.
/// Without a capture the coordinator streams the spec's synthetic
/// corpus; with one it demuxes the capture (after the chaos wire layer,
/// if any) and verdicts are attributed back to scenario identities the
/// same way a single-process capture replay's are.
///
/// # Errors
///
/// The spec's flows cannot carry its watermark, the capture has no
/// valid header, or the coordinator fails; worker deaths are survived.
pub fn cluster_replay(
    spec: &ScenarioSpec,
    capture: Option<(&[u8], ReplayClock)>,
    opts: &ClusterOptions,
) -> Result<ClusterRunReport, ScenarioRunError> {
    let plan = chaos_plan(spec);
    let mut injector = plan.map(|plan| plan.flow_injector());
    let mut deliveries: Vec<(FlowId, Packet)> = Vec::new();
    let mut routed = 0u64;
    // Routes one stream event through the chaos flow layer, if any.
    let mut route = |cluster: &mut Cluster, flow: FlowId, packet: Packet| {
        deliveries.clear();
        match injector.as_mut() {
            Some(injector) => injector.apply(flow, packet, &mut deliveries),
            None => deliveries.push((flow, packet)),
        }
        for &(flow, packet) in &deliveries {
            cluster.route(flow, packet)?;
            routed += 1;
        }
        Ok::<(), stepstone_cluster::ClusterError>(())
    };
    let mut stream_error = None;
    let (cluster, started, demuxed) = match capture {
        None => {
            // The coordinator synthesises the same corpus the workers
            // rebuild, and streams its suspicious flows.
            let events = merged_stream(&build_spec_corpus(spec, None)?.suspicious);
            let mut cluster = Cluster::spawn(opts.to_config(spec))?;
            let started = Instant::now();
            for &(flow, packet) in &events {
                route(&mut cluster, flow, packet)?;
            }
            (cluster, started, None)
        }
        Some((bytes, clock)) => {
            let mut bytes = bytes.to_vec();
            if let Some(plan) = &plan {
                plan.wire().mutate_bytes(&mut bytes);
            }
            let records = parse_capture(&bytes)?;
            let records: Box<dyn Iterator<Item = Result<CaptureRecord, IngestError>> + '_> =
                match &plan {
                    Some(plan) => Box::new(plan.wire().adapt(records)),
                    None => Box::new(records),
                };
            let mut cluster = Cluster::spawn(opts.to_config(spec))?;
            let mut demux = FlowDemux::new();
            let started = Instant::now();
            let mut pacer = None;
            for record in records {
                let record = match record {
                    Ok(record) => record,
                    Err(e) => {
                        stream_error = Some(e);
                        break;
                    }
                };
                let pacer = pacer.get_or_insert_with(|| clock.pacer(record.timestamp));
                pacer.wait_until(record.timestamp);
                if let Some((flow, packet)) = demux.push(&record) {
                    route(&mut cluster, flow, packet)?;
                }
            }
            (cluster, started, Some(demux.finish().0))
        }
    };
    let report = cluster.finish()?;
    let elapsed = started.elapsed();
    Ok(ClusterRunReport {
        spec: spec.clone(),
        workers: opts.workers,
        events: routed,
        elapsed,
        detection: Detection::score(spec, &report.verdicts, demuxed.as_deref()),
        cluster: report.stats,
        engine: report.engine,
        per_worker: report.per_worker,
        verdicts: report.verdicts,
        stream_error,
    })
}
