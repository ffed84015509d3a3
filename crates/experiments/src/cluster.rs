//! Distributed replay: drive a [`stepstone_cluster`] worker topology
//! over the same corpora the single-process [`live`](crate::live)
//! harness uses.
//!
//! The coordinator never ships correlators over the pipe. A
//! [`LiveScenario`] is pure data — every flow and watermark derives
//! from its seed — so the scenario itself (plus an optional chaos spec)
//! is serialised into the `Hello` spec as a `key=value` text block, and
//! each worker rebuilds the *identical* corpus locally in
//! [`worker_main`]. The coordinator synthesises only the packet stream
//! and routes it; the workers own all decode state.
//!
//! Chaos composes across the process boundary the same way it does in
//! one process: the flow layer (deletion, chaff bursts, delay) runs
//! coordinator-side before routing, the wire layer mutates capture
//! bytes before parsing, and each worker arms its engine with
//! [`FaultPlan::for_worker`] so sibling processes draw independent —
//! but reproducible — runtime fault schedules from one `--chaos` spec.

use std::fmt;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use stepstone_chaos::{FaultPlan, Profile};
use stepstone_cluster::{serve, Cluster, ClusterConfig, ClusterStats, WireStats, WorkerSummary};
use stepstone_core::{BackendKind, DecodeMode, DecodeOptions};
use stepstone_flow::TimeDelta;
use stepstone_ingest::{parse_capture, CaptureRecord, FlowDemux, IngestError, ReplayClock};
use stepstone_monitor::{FlowId, Verdict};
use stepstone_telemetry::Registry;
use stepstone_traffic::Seed;
use stepstone_watermark::{WatermarkError, WatermarkParams};

use crate::live::{build_corpus, merged_stream, score_verdicts, LiveScenario};

/// Serialises a scenario (and optional chaos plan) into the opaque
/// `Hello` spec workers rebuild their corpus from.
pub fn encode_spec(scenario: &LiveScenario, chaos: Option<&FaultPlan>) -> Vec<u8> {
    let mut out = String::new();
    let mut kv = |k: &str, v: u64| {
        out.push_str(k);
        out.push('=');
        out.push_str(&v.to_string());
        out.push('\n');
    };
    kv("upstreams", scenario.upstreams as u64);
    kv("decoys", scenario.decoys as u64);
    kv("packets", scenario.packets as u64);
    kv("shards", scenario.shards as u64);
    kv("decode_batch", scenario.decode_batch as u64);
    kv("seed", scenario.seed.value());
    kv("delta_micros", scenario.delta.as_micros() as u64);
    kv("chaff_bits", scenario.chaff.to_bits());
    kv("bits", scenario.params.bits as u64);
    kv("redundancy", scenario.params.redundancy as u64);
    kv("offset", scenario.params.offset as u64);
    kv(
        "adjustment_micros",
        scenario.params.adjustment.as_micros() as u64,
    );
    kv("threshold", scenario.params.threshold as u64);
    kv("backend", scenario.backend.index() as u64);
    kv("decode_mode", scenario.decode.mode.index() as u64);
    kv("erasure_budget", u64::from(scenario.decode.erasure_budget));
    if let Some(plan) = chaos {
        kv("chaos_seed", plan.seed());
        let profile = match plan.profile() {
            Profile::Mild => 0,
            Profile::Harsh => 1,
            Profile::Adversarial => 2,
        };
        kv("chaos_profile", profile);
    }
    out.into_bytes()
}

/// Parses a spec produced by [`encode_spec`]. Tolerant of unknown keys
/// (forward compatibility) but strict about missing or malformed ones.
pub fn decode_spec(bytes: &[u8]) -> Result<(LiveScenario, Option<FaultPlan>), String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("spec is not UTF-8: {e}"))?;
    let get = |wanted: &str| -> Option<u64> {
        text.lines().find_map(|line| {
            let (k, v) = line.split_once('=')?;
            (k == wanted).then(|| v.parse::<u64>().ok())?
        })
    };
    let need = |k: &str| get(k).ok_or_else(|| format!("spec missing key {k:?}"));
    let scenario = LiveScenario {
        upstreams: need("upstreams")? as usize,
        decoys: need("decoys")? as usize,
        packets: need("packets")? as usize,
        shards: need("shards")? as usize,
        decode_batch: need("decode_batch")? as usize,
        seed: Seed::new(need("seed")?),
        delta: TimeDelta::from_micros(need("delta_micros")? as i64),
        chaff: f64::from_bits(need("chaff_bits")?),
        params: WatermarkParams {
            bits: need("bits")? as usize,
            redundancy: need("redundancy")? as usize,
            offset: need("offset")? as usize,
            adjustment: TimeDelta::from_micros(need("adjustment_micros")? as i64),
            threshold: need("threshold")? as u32,
        },
        // Absent in specs from older coordinators: default to the
        // paper backend they implied.
        backend: match get("backend") {
            None => BackendKind::default(),
            Some(index) => *BackendKind::ALL
                .get(index as usize)
                .ok_or_else(|| format!("spec has unknown backend index {index}"))?,
        },
        // Same forward-compatibility contract as `backend`: specs from
        // coordinators predating the decode layer imply strict.
        decode: match get("decode_mode") {
            None => DecodeOptions::strict(),
            Some(index) => {
                let mode = *DecodeMode::ALL
                    .get(index as usize)
                    .ok_or_else(|| format!("spec has unknown decode mode index {index}"))?;
                match mode {
                    DecodeMode::Strict => DecodeOptions::strict(),
                    DecodeMode::Robust => {
                        DecodeOptions::robust(get("erasure_budget").unwrap_or(0) as u32)
                    }
                }
            }
        },
    };
    let chaos = match (get("chaos_seed"), get("chaos_profile")) {
        (Some(seed), Some(profile)) => {
            let profile = match profile {
                0 => Profile::Mild,
                1 => Profile::Harsh,
                2 => Profile::Adversarial,
                other => return Err(format!("spec has unknown chaos profile {other}")),
            };
            Some(FaultPlan::new(seed, profile))
        }
        (None, None) => None,
        _ => return Err("spec has a partial chaos plan".to_string()),
    };
    Ok((scenario, chaos))
}

/// The worker-process entry point behind `repro cluster-worker`: serves
/// the framed IPC loop on the given pipes, rebuilding the monitor (and
/// its full correlator corpus) from the coordinator's spec. Chaos, when
/// present in the spec, is re-derived per worker with
/// [`FaultPlan::for_worker`] so siblings fault independently.
pub fn worker_main<R: Read, W: Write>(
    reader: &mut R,
    writer: &mut W,
) -> Result<WorkerSummary, String> {
    serve(reader, writer, |worker, spec| {
        let (scenario, chaos) = decode_spec(spec)?;
        let plan = chaos.map(|p| p.for_worker(worker as u64));
        let corpus = build_corpus(&scenario, None, plan.as_ref())
            .map_err(|e: WatermarkError| e.to_string())?;
        Ok(corpus.monitor)
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
    /// Chaos plan: flow faults apply coordinator-side, runtime faults
    /// worker-side via [`FaultPlan::for_worker`], wire faults to
    /// capture bytes in [`cluster_replay_pcap`].
    pub chaos: Option<FaultPlan>,
    /// Coordinator metrics registry: cluster counters plus per-worker
    /// snapshots land here, one Prometheus endpoint for the topology.
    pub registry: Option<Arc<Registry>>,
    /// Deterministic mid-replay SIGKILL (worker, after-packet) for the
    /// soak harness.
    pub kill_after: Option<(u32, u64)>,
}

impl ClusterOptions {
    /// Options for `workers` processes of `program` with no chaos.
    pub fn new(workers: u32, program: std::path::PathBuf, args: Vec<String>) -> Self {
        ClusterOptions {
            workers,
            program,
            args,
            chaos: None,
            registry: None,
            kill_after: None,
        }
    }

    fn to_config(&self, scenario: &LiveScenario) -> ClusterConfig {
        let mut config = ClusterConfig::new(self.program.clone(), self.workers);
        config.args = self.args.clone();
        config.spec = encode_spec(scenario, self.chaos.as_ref());
        config.upstreams = (0..scenario.upstreams as u64).collect();
        config.registry = self.registry.clone();
        config.kill_after = self.kill_after;
        config
    }
}

/// How a distributed replay can fail outright (worker deaths are
/// survived, not errors).
#[derive(Debug)]
pub enum ClusterRunError {
    /// The scenario's flows cannot carry the watermark.
    Watermark(WatermarkError),
    /// The capture bytes were unusable ([`cluster_replay_pcap`] only).
    Ingest(IngestError),
    /// The coordinator failed (spawn, config, or outbound framing).
    Cluster(stepstone_cluster::ClusterError),
}

impl fmt::Display for ClusterRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterRunError::Watermark(e) => write!(f, "corpus synthesis failed: {e}"),
            ClusterRunError::Ingest(e) => write!(f, "capture ingestion failed: {e}"),
            ClusterRunError::Cluster(e) => write!(f, "cluster failed: {e}"),
        }
    }
}

impl std::error::Error for ClusterRunError {}

impl From<WatermarkError> for ClusterRunError {
    fn from(e: WatermarkError) -> Self {
        ClusterRunError::Watermark(e)
    }
}

impl From<IngestError> for ClusterRunError {
    fn from(e: IngestError) -> Self {
        ClusterRunError::Ingest(e)
    }
}

impl From<stepstone_cluster::ClusterError> for ClusterRunError {
    fn from(e: stepstone_cluster::ClusterError) -> Self {
        ClusterRunError::Cluster(e)
    }
}

/// The outcome of one distributed replay.
#[derive(Debug)]
pub struct ClusterRunReport {
    /// The replayed scenario.
    pub scenario: LiveScenario,
    /// Worker processes configured.
    pub workers: u32,
    /// Packets routed by the coordinator.
    pub events: usize,
    /// Wall-clock time for routing + shutdown + report collection.
    pub elapsed: Duration,
    /// True (upstream `i`, downstream `i`) pairs detected.
    pub true_positives: usize,
    /// Correlated verdicts on pairs that are not true pairs.
    pub false_positives: usize,
    /// True pairs the topology failed to detect.
    pub missed: usize,
    /// Pairs that ended degraded (including `WorkerLost` backfills).
    pub degraded: usize,
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
        let s = &self.scenario;
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
        writeln!(
            f,
            "detection:      {}/{} true pairs, {} false positives, {} missed, {} degraded",
            self.true_positives, s.upstreams, self.false_positives, self.missed, self.degraded
        )?;
        if let Some(err) = &self.stream_error {
            writeln!(f, "stream error:   capture tail abandoned: {err}")?;
        }
        writeln!(f, "{}", self.cluster)?;
        for (w, stats) in self.per_worker.iter().enumerate() {
            match stats {
                Some(s) => writeln!(
                    f,
                    "worker {w}: {} ingested, {} decoded, {} jobs lost, {} verdicts",
                    s.packets_ingested,
                    s.decodes_run.saturating_sub(s.decodes_answered),
                    s.jobs_lost,
                    s.verdicts_emitted
                )?,
                None => writeln!(f, "worker {w}: died without a final report")?,
            }
        }
        write!(
            f,
            "engine (merged): {} ingested, {} decoded, {} jobs lost",
            self.engine.packets_ingested,
            self.engine
                .decodes_run
                .saturating_sub(self.engine.decodes_answered),
            self.engine.jobs_lost
        )
    }
}

/// Replays the scenario's synthetic corpus through a worker topology —
/// the distributed counterpart of [`live::replay_chaos_with`]
/// (see [`crate::live::replay_chaos_with`]).
pub fn cluster_replay(
    scenario: &LiveScenario,
    opts: &ClusterOptions,
) -> Result<ClusterRunReport, ClusterRunError> {
    // The coordinator synthesises the same corpus the workers rebuild;
    // it streams the suspicious flows and drops the local monitor.
    let corpus = build_corpus(scenario, None, None)?;
    let events = merged_stream(&corpus.suspicious);
    drop(corpus);

    let mut cluster = Cluster::spawn(opts.to_config(scenario))?;
    let mut injector = opts.chaos.as_ref().map(|plan| plan.flow_injector());
    let mut deliveries = Vec::new();
    let started = Instant::now();
    let mut routed = 0usize;
    for &(flow, packet) in &events {
        deliveries.clear();
        match injector.as_mut() {
            Some(injector) => injector.apply(flow, packet, &mut deliveries),
            None => deliveries.push((flow, packet)),
        }
        for &(flow, packet) in &deliveries {
            cluster.route(flow, packet)?;
            routed += 1;
        }
    }
    let report = cluster.finish()?;
    let elapsed = started.elapsed();

    let (true_positives, false_positives, degraded) =
        score_verdicts(&report.verdicts, |pair| pair.upstream.0 == pair.flow.0);
    Ok(ClusterRunReport {
        scenario: scenario.clone(),
        workers: opts.workers,
        events: routed,
        elapsed,
        true_positives,
        false_positives,
        missed: scenario.upstreams.saturating_sub(true_positives),
        degraded,
        cluster: report.stats,
        engine: report.engine,
        per_worker: report.per_worker,
        verdicts: report.verdicts,
        stream_error: None,
    })
}

/// Replays pcap/pcapng bytes through a worker topology — the
/// distributed counterpart of [`crate::live::replay_pcap_chaos`]. The
/// wire fault layer (when chaos is armed) corrupts the capture bytes
/// before parsing; demux runs coordinator-side and verdicts are
/// attributed back to scenario identities through the injective
/// 5-tuple map.
pub fn cluster_replay_pcap(
    scenario: &LiveScenario,
    bytes: &[u8],
    clock: ReplayClock,
    opts: &ClusterOptions,
) -> Result<ClusterRunReport, ClusterRunError> {
    let mutated;
    let bytes = match &opts.chaos {
        Some(plan) => {
            let mut m = bytes.to_vec();
            plan.wire().mutate_bytes(&mut m);
            mutated = m;
            &mutated[..]
        }
        None => bytes,
    };
    let records: Box<dyn Iterator<Item = Result<CaptureRecord, IngestError>> + '_> =
        match &opts.chaos {
            Some(plan) => Box::new(plan.wire().adapt(parse_capture(bytes)?)),
            None => Box::new(parse_capture(bytes)?),
        };

    let mut cluster = Cluster::spawn(opts.to_config(scenario))?;
    let mut demux = FlowDemux::new();
    let mut injector = opts.chaos.as_ref().map(|plan| plan.flow_injector());
    let mut deliveries = Vec::new();
    let started = Instant::now();
    let mut routed = 0usize;
    let mut pacer = None;
    let mut stream_error = None;
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
            deliveries.clear();
            match injector.as_mut() {
                Some(injector) => injector.apply(flow, packet, &mut deliveries),
                None => deliveries.push((flow, packet)),
            }
            for &(flow, packet) in &deliveries {
                cluster.route(flow, packet)?;
                routed += 1;
            }
        }
    }
    let (flows, _demux_stats) = demux.finish();
    let report = cluster.finish()?;
    let elapsed = started.elapsed();

    // Demux ids are first-seen order; translate back to scenario ids
    // through the injective tuple map, exactly as the single-process
    // pcap path does.
    let scenario_id = |demux_id: FlowId| -> Option<FlowId> {
        let tuple = flows.iter().find(|f| f.id == demux_id).map(|f| f.tuple)?;
        (0..scenario.suspicious_flows() as u64)
            .map(FlowId)
            .find(|id| scenario.tuple_for(*id) == tuple)
    };
    let (true_positives, false_positives, degraded) = score_verdicts(&report.verdicts, |pair| {
        scenario_id(pair.flow).is_some_and(|id| id.0 == pair.upstream.0)
    });
    Ok(ClusterRunReport {
        scenario: scenario.clone(),
        workers: opts.workers,
        events: routed,
        elapsed,
        true_positives,
        false_positives,
        missed: scenario.upstreams.saturating_sub(true_positives),
        degraded,
        cluster: report.stats,
        engine: report.engine,
        per_worker: report.per_worker,
        verdicts: report.verdicts,
        stream_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExperimentConfig, Scale};

    #[test]
    fn spec_round_trips_without_chaos() {
        let scenario = LiveScenario::wire(&ExperimentConfig::new(Scale::Quick));
        let spec = encode_spec(&scenario, None);
        let (decoded, chaos) = decode_spec(&spec).unwrap();
        assert_eq!(decoded, scenario);
        assert!(chaos.is_none());
    }

    #[test]
    fn spec_round_trips_with_chaos() {
        let scenario = LiveScenario::from_config(&ExperimentConfig::new(Scale::Quick));
        let plan = FaultPlan::new(44, Profile::Harsh);
        let spec = encode_spec(&scenario, Some(&plan));
        let (decoded, chaos) = decode_spec(&spec).unwrap();
        assert_eq!(decoded, scenario);
        assert_eq!(chaos, Some(plan));
    }

    #[test]
    fn spec_preserves_non_integral_chaff_rates() {
        let mut scenario = LiveScenario::wire(&ExperimentConfig::new(Scale::Quick));
        scenario.chaff = 0.1 + 0.2; // deliberately not exactly 0.3
        let spec = encode_spec(&scenario, None);
        let (decoded, _) = decode_spec(&spec).unwrap();
        assert_eq!(decoded.chaff.to_bits(), scenario.chaff.to_bits());
    }

    #[test]
    fn spec_round_trips_every_backend() {
        for kind in BackendKind::ALL {
            let scenario =
                LiveScenario::wire(&ExperimentConfig::new(Scale::Quick)).with_backend(kind);
            let spec = encode_spec(&scenario, None);
            let (decoded, _) = decode_spec(&spec).unwrap();
            assert_eq!(decoded.backend, kind);
            assert_eq!(decoded, scenario);
        }
    }

    #[test]
    fn spec_round_trips_robust_decode() {
        let scenario = LiveScenario::wire(&ExperimentConfig::new(Scale::Quick))
            .with_decode(DecodeOptions::robust(96));
        let spec = encode_spec(&scenario, None);
        let (decoded, _) = decode_spec(&spec).unwrap();
        assert_eq!(decoded.decode, DecodeOptions::robust(96));
        assert_eq!(decoded, scenario);
    }

    #[test]
    fn spec_without_decode_keys_defaults_to_strict() {
        let scenario = LiveScenario::wire(&ExperimentConfig::new(Scale::Quick));
        let stripped: Vec<u8> = String::from_utf8(encode_spec(&scenario, None))
            .unwrap()
            .lines()
            .filter(|line| {
                !line.starts_with("decode_mode=") && !line.starts_with("erasure_budget=")
            })
            .flat_map(|line| format!("{line}\n").into_bytes())
            .collect();
        let (decoded, _) = decode_spec(&stripped).unwrap();
        assert_eq!(decoded.decode, DecodeOptions::strict());
    }

    #[test]
    fn spec_with_unknown_decode_index_is_rejected() {
        let scenario = LiveScenario::wire(&ExperimentConfig::new(Scale::Quick));
        let spec = String::from_utf8(encode_spec(&scenario, None))
            .unwrap()
            .replace("decode_mode=0", "decode_mode=7")
            .into_bytes();
        let err = decode_spec(&spec).unwrap_err();
        assert!(err.contains("unknown decode mode index 7"), "{err}");
    }

    #[test]
    fn spec_without_backend_key_defaults_to_paper() {
        // Workers from before the backend key must keep decoding specs:
        // strip the line and expect the default.
        let scenario = LiveScenario::wire(&ExperimentConfig::new(Scale::Quick));
        let spec = encode_spec(&scenario, None);
        let stripped: Vec<u8> = String::from_utf8(spec)
            .unwrap()
            .lines()
            .filter(|line| !line.starts_with("backend="))
            .flat_map(|line| format!("{line}\n").into_bytes())
            .collect();
        let (decoded, _) = decode_spec(&stripped).unwrap();
        assert_eq!(decoded.backend, BackendKind::Paper);
    }

    #[test]
    fn spec_with_unknown_backend_index_is_rejected() {
        let scenario = LiveScenario::wire(&ExperimentConfig::new(Scale::Quick));
        let spec = String::from_utf8(encode_spec(&scenario, None))
            .unwrap()
            .replace("backend=0", "backend=99")
            .into_bytes();
        let err = decode_spec(&spec).unwrap_err();
        assert!(err.contains("unknown backend index 99"), "{err}");
    }

    #[test]
    fn malformed_specs_are_rejected() {
        assert!(decode_spec(&[0xFF, 0xFE]).is_err(), "non-UTF-8");
        assert!(decode_spec(b"upstreams=1\n").is_err(), "missing keys");
        let scenario = LiveScenario::wire(&ExperimentConfig::new(Scale::Quick));
        let mut spec = encode_spec(&scenario, None);
        spec.extend_from_slice(b"chaos_seed=7\n");
        assert!(decode_spec(&spec).is_err(), "partial chaos plan");
    }

    #[test]
    fn unknown_spec_keys_are_ignored() {
        let scenario = LiveScenario::wire(&ExperimentConfig::new(Scale::Quick));
        let mut spec = b"future_knob=9\n".to_vec();
        spec.extend_from_slice(&encode_spec(&scenario, None));
        let (decoded, _) = decode_spec(&spec).unwrap();
        assert_eq!(decoded, scenario);
    }
}
