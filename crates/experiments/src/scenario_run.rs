//! Runs a [`ScenarioSpec`] end to end: spec → corpus → monitor →
//! report.
//!
//! A spec is the workspace's one workload description, and [`run`] is
//! the one way to run it: `repro monitor`, `repro backends`, `repro
//! scenario`, `repro serve` sessions, `repro matrix` cells and the
//! robust sweep all call it. This module maps every spec field onto the
//! concrete generators ([`stepstone_traffic`]), adversary stages
//! ([`stepstone_adversary`]), chaos channel ([`stepstone_chaos`]) and
//! the online engine ([`stepstone_monitor`]).
//!
//! # Determinism contract
//!
//! Everything about the *corpus* derives from the spec (two holders of
//! the same text build interchangeable corpora). By default a spec's
//! chaos arms only the *channel* — the flow-fault layer between stream
//! and engine — and the monitor decodes every batch boundary inline,
//! so the set of windows decoded per pair, and therefore which terminal
//! class each pair lands in, is a pure function of the event stream.
//! Decode *latencies* still vary, so the canonical
//! [`VerdictLine`]s carry only pair identities and [`TerminalKind`]s,
//! making [`RunReport::verdict_digest`] stable across runs, processes
//! and machines — the property the matrix report and the
//! snapshot/restore acceptance test rely on.
//!
//! [`RunOptions::engine_chaos`] (`repro monitor --chaos`) also arms the
//! engine's runtime layer. Its panics are addressed by decode sequence
//! number and the engine decodes in stream order, so they land on the
//! same decodes on every run; the matrix and snapshot tests still pin
//! only channel-chaos runs.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stepstone_adversary::{
    AdversaryPipeline, ChaffInjector, ChaffModel, PacketLoss, Repacketizer, UniformPerturbation,
};
use stepstone_chaos::{FaultPlan, Profile};
use stepstone_core::{Algorithm, BackendKind, BoundCorrelator, DecodeOptions, WatermarkCorrelator};
use stepstone_flow::{Flow, Packet, TimeDelta, Timestamp};
use stepstone_ingest::{
    parse_capture, replay_records_with, write_flows, DemuxFlow, DemuxStats, FiveTuple, IngestError,
    ReplayClock, ReplayOutcome,
};
use stepstone_monitor::{
    FlowId, Monitor, MonitorConfig, MonitorStats, TerminalKind, UpstreamId, Verdict,
};
use stepstone_scenario::{fnv1a, Chaff, ChaosProfile, Repacketize, ScenarioSpec, Traffic};
use stepstone_telemetry::Registry;
use stepstone_traffic::corpus::tcplib_corpus;
use stepstone_traffic::{InteractiveProfile, Seed, SessionGenerator};
use stepstone_watermark::{
    IpdWatermarker, Watermark, WatermarkError, WatermarkKey, WatermarkParams,
};

/// What can go wrong running a scenario.
#[derive(Debug)]
#[non_exhaustive]
pub enum ScenarioRunError {
    /// The spec's flows cannot carry its watermark.
    Watermark(WatermarkError),
    /// The submitted capture bytes are not a valid pcap/pcapng file.
    Ingest(IngestError),
    /// The spec (possibly after a threshold override) is inconsistent.
    Invalid(String),
}

impl fmt::Display for ScenarioRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioRunError::Watermark(e) => write!(f, "corpus synthesis failed: {e}"),
            ScenarioRunError::Ingest(e) => write!(f, "capture ingestion failed: {e}"),
            ScenarioRunError::Invalid(reason) => write!(f, "invalid scenario run: {reason}"),
        }
    }
}

impl std::error::Error for ScenarioRunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioRunError::Watermark(e) => Some(e),
            ScenarioRunError::Ingest(e) => Some(e),
            ScenarioRunError::Invalid(_) => None,
        }
    }
}

impl From<WatermarkError> for ScenarioRunError {
    fn from(e: WatermarkError) -> Self {
        ScenarioRunError::Watermark(e)
    }
}

impl From<IngestError> for ScenarioRunError {
    fn from(e: IngestError) -> Self {
        ScenarioRunError::Ingest(e)
    }
}

/// One canonical verdict line: a pair and its timing-independent
/// terminal class. The full [`Verdict`]s carry run-dependent
/// diagnostics (Hamming distances, decode counts); these lines carry
/// only what is reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct VerdictLine {
    /// The upstream's id.
    pub upstream: u64,
    /// The suspicious flow's id.
    pub flow: u64,
    /// The pair's terminal class.
    pub kind: TerminalKind,
}

impl fmt::Display for VerdictLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pair {}:{} {}", self.upstream, self.flow, self.kind)
    }
}

/// A run's verdicts scored against the spec's ground truth: upstream
/// `i`'s one true downstream is suspicious flow `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Detection {
    /// True (upstream `i`, flow `i`) pairs detected.
    pub true_positives: u32,
    /// Correlated verdicts on pairs that are not true pairs.
    pub false_positives: u32,
    /// True pairs not detected.
    pub missed: u32,
    /// Pairs that ended degraded: over the erasure budget under robust
    /// decoding.
    pub degraded: u32,
}

impl Detection {
    /// Scores `verdicts`. A capture's demux numbers flows in
    /// first-seen order, so for a capture replay `demuxed` maps its ids
    /// back to scenario ids through the injective [`flow_tuple`] map;
    /// an in-memory stream passes `None`, its ids being scenario ids.
    fn score(spec: &ScenarioSpec, verdicts: &[Verdict], demuxed: Option<&[DemuxFlow]>) -> Self {
        let scenario_ids: Option<HashMap<FlowId, u64>> = demuxed.map(|flows| {
            let by_tuple: HashMap<FiveTuple, u64> = (0..spec.suspicious_flows() as u64)
                .map(|id| (flow_tuple(FlowId(id)), id))
                .collect();
            flows
                .iter()
                .filter_map(|f| Some((f.id, *by_tuple.get(&f.tuple)?)))
                .collect()
        });
        let mut detection = Detection::default();
        for verdict in verdicts {
            match verdict {
                Verdict::Correlated { pair, .. } => {
                    let flow = match &scenario_ids {
                        Some(ids) => ids.get(&pair.flow).copied(),
                        None => Some(pair.flow.0),
                    };
                    if flow == Some(pair.upstream.0) {
                        detection.true_positives += 1;
                    } else {
                        detection.false_positives += 1;
                    }
                }
                Verdict::Degraded { .. } => detection.degraded += 1,
                _ => {}
            }
        }
        detection.missed = (spec.upstreams as u32).saturating_sub(detection.true_positives);
        detection
    }
}

impl fmt::Display for Detection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} true pairs, {} false positives, {} missed, {} degraded",
            self.true_positives,
            self.true_positives + self.missed,
            self.false_positives,
            self.missed,
            self.degraded
        )
    }
}

/// How to run a spec, beyond what the spec itself says.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Overrides the spec's detection threshold (the serve hot-reload
    /// path).
    pub threshold: Option<u32>,
    /// Replays these pcap/pcapng bytes at this pace instead of the
    /// spec's synthetic stream. The spec still supplies the
    /// correlators; verdicts are attributed back to scenario flows
    /// through the injective flow → 5-tuple map [`export_pcap`] writes.
    pub capture: Option<(&'a [u8], ReplayClock)>,
    /// The monitor, and a capture's demux and replay loop, publish into
    /// this registry, so one endpoint covers the whole pipeline.
    pub registry: Option<Arc<Registry>>,
    /// Arms the spec's chaos on the engine's runtime layer (contained
    /// decode panics) and,
    /// for a capture, on its wire layer (byte and record faults) — the
    /// `repro monitor --chaos` soak. Off, the chaos is the channel
    /// only: its flow layer.
    pub engine_chaos: bool,
}

/// The outcome of one run.
#[derive(Debug)]
pub struct RunReport {
    /// The spec that ran.
    pub spec: ScenarioSpec,
    /// For a capture replay: its pacing and the demux counters.
    pub capture: Option<(ReplayClock, DemuxStats)>,
    /// Events delivered to the monitor.
    pub events: u64,
    /// Wall-clock time for ingest and finish.
    pub elapsed: Duration,
    /// The verdicts scored against the spec's true pairs.
    pub detection: Detection,
    /// Effective deletions the run's channel inflicted: watermarked
    /// packets the adversary pipeline dropped or merged away, plus
    /// chaos-deleted stream events. Seed-deterministic (never read back
    /// from decode internals), so it shares the reproducibility
    /// contract of the verdict digest.
    pub erasures: u64,
    /// Every verdict, in emission order.
    pub verdicts: Vec<Verdict>,
    /// Final engine counters.
    pub stats: MonitorStats,
    /// The record error that ended a capture replay early, if any.
    pub stream_error: Option<IngestError>,
}

impl RunReport {
    /// Throughput in packets per second (meaningful for in-memory and
    /// [`ReplayClock::Fast`] runs; paced replays track the capture
    /// clock).
    pub fn packets_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// The canonical verdict lines, sorted.
    pub fn verdict_lines(&self) -> Vec<VerdictLine> {
        let mut lines: Vec<VerdictLine> = self
            .verdicts
            .iter()
            .filter_map(|v| {
                let pair = v.pair()?;
                Some(VerdictLine {
                    upstream: pair.upstream.0,
                    flow: pair.flow.0,
                    kind: v.terminal_kind()?,
                })
            })
            .collect();
        lines.sort_unstable();
        lines
    }

    /// The canonical verdict text: one [`VerdictLine`] per line, in
    /// sorted order — the bytes compared across restore cycles.
    pub fn canonical_verdicts(&self) -> String {
        let mut out = String::new();
        for line in self.verdict_lines() {
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }

    /// FNV-1a/64 digest of [`canonical_verdicts`](Self::canonical_verdicts)
    /// — the run's reproducible result identity.
    pub fn verdict_digest(&self) -> u64 {
        fnv1a(self.canonical_verdicts().as_bytes())
    }

    /// The run's reproducible one-line summary: counters, erasures and
    /// verdict digest, without timings or engine counters.
    pub fn summary(&self) -> String {
        let d = &self.detection;
        let mut out = format!(
            "events {} tp {} fp {} missed {} degraded {} erasures {} vdigest {:016x}",
            self.events,
            d.true_positives,
            d.false_positives,
            d.missed,
            d.degraded,
            self.erasures,
            self.verdict_digest()
        );
        if let Some(err) = &self.stream_error {
            out.push_str(&format!(" stream-error {:?}", err.to_string()));
        }
        out
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = &self.spec;
        let unit = match &self.capture {
            None => {
                writeln!(
                    f,
                    "monitor replay: {} upstreams, {} decoys, {} candidate pairs, \
                     backend {}, decode {}",
                    s.upstreams,
                    s.decoys,
                    s.candidate_pairs(),
                    s.backend,
                    s.decode
                )?;
                "packets"
            }
            Some((clock, demux)) => {
                writeln!(
                    f,
                    "pcap replay:    {} flows demuxed from {} packets ({} ignored, {} clamped), \
                     clock {clock}",
                    demux.flows_opened, demux.packets, demux.ignored, demux.clamped
                )?;
                "events"
            }
        };
        writeln!(
            f,
            "throughput:     {} {unit} in {:.3} s = {:.0} packets/sec",
            self.events,
            self.elapsed.as_secs_f64(),
            self.packets_per_sec()
        )?;
        writeln!(f, "detection:      {}", self.detection)?;
        if let Some(err) = &self.stream_error {
            writeln!(f, "stream error:   capture tail abandoned: {err}")?;
        }
        write!(f, "{}", self.stats)
    }
}

/// The scenario's watermark parameters, with an optional threshold
/// override (the serve hot-reload path).
fn params_for(
    spec: &ScenarioSpec,
    threshold: Option<u32>,
) -> Result<WatermarkParams, ScenarioRunError> {
    let threshold = threshold.unwrap_or(spec.wm_threshold);
    if threshold as usize >= spec.wm_bits {
        return Err(ScenarioRunError::Invalid(format!(
            "threshold {threshold} must be below wm-bits {}",
            spec.wm_bits
        )));
    }
    Ok(WatermarkParams {
        bits: spec.wm_bits,
        redundancy: spec.wm_redundancy,
        offset: spec.wm_offset,
        adjustment: TimeDelta::from_millis(spec.wm_adjustment_ms as i64),
        threshold,
    })
}

/// Maps the spec's chaos key to a fault plan. [`run`] applies its flow
/// layer; only [`RunOptions::engine_chaos`] arms its runtime and wire
/// layers too.
pub fn chaos_plan(spec: &ScenarioSpec) -> Option<FaultPlan> {
    spec.chaos.map(|(seed, profile)| {
        FaultPlan::new(
            seed,
            match profile {
                ChaosProfile::Mild => Profile::Mild,
                ChaosProfile::Harsh => Profile::Harsh,
                ChaosProfile::Adversarial => Profile::Adversarial,
            },
        )
    })
}

/// One suspicious flow of the spec's traffic mix. Upstream flows
/// alternate interactive/tcplib under [`Traffic::Mixed`]; decoys under
/// `Mixed` are telnet background sessions.
fn generate_flow(spec: &ScenarioSpec, index: usize, decoy: bool, seed: Seed) -> Flow {
    let interactive = |profile: InteractiveProfile| {
        SessionGenerator::new(profile).generate(spec.packets, Timestamp::ZERO, &mut seed.rng(0))
    };
    let tcplib = || {
        tcplib_corpus(1, spec.packets, seed)
            .pop()
            // lint: allow(no_panic) tcplib_corpus(1, ..) yields exactly one flow by contract
            .expect("tcplib_corpus(1, ..) yields one flow")
    };
    match spec.traffic {
        Traffic::Interactive => interactive(InteractiveProfile::ssh()),
        Traffic::Tcplib => tcplib(),
        Traffic::Mixed if decoy => interactive(InteractiveProfile::telnet()),
        Traffic::Mixed if index % 2 == 1 => tcplib(),
        Traffic::Mixed => interactive(InteractiveProfile::ssh()),
    }
}

/// The spec's adversary pipeline: perturbation, then chaff, then loss,
/// then repacketization — the paper's §2 stages in order, with the §6
/// future-work channels (loss, repacketization) appended when the spec
/// asks for them.
fn adversary(spec: &ScenarioSpec) -> AdversaryPipeline {
    let mut pipeline = AdversaryPipeline::new().then(UniformPerturbation::new(
        TimeDelta::from_millis(spec.delta_ms as i64),
    ));
    if let Chaff::PoissonMillis(m) = spec.chaff {
        if m > 0 {
            pipeline = pipeline.then(ChaffInjector::new(ChaffModel::Poisson {
                rate: m as f64 / 1000.0,
            }));
        }
    }
    if spec.loss_ppm > 0 {
        pipeline = pipeline.then(PacketLoss::new(f64::from(spec.loss_ppm) / 1_000_000.0));
    }
    if let Repacketize::WindowMs(w) = spec.repacketize {
        pipeline = pipeline.then(Repacketizer::new(TimeDelta::from_millis(w as i64)));
    }
    pipeline
}

/// The spec's derived corpus: the bound upstream correlators plus the
/// suspicious flows keyed by scenario [`FlowId`].
pub(crate) struct SpecCorpus {
    /// The bound correlators, indexed by upstream id.
    pub(crate) correlators: Vec<BoundCorrelator>,
    /// True downstreams first (flow `i` for upstream `i`), then decoys.
    pub(crate) suspicious: Vec<(FlowId, Flow)>,
    /// Watermarked packets the adversary pipeline deleted (or merged
    /// away) across the true downstream flows — the channel's share of
    /// the report's `erasures` count.
    pub(crate) channel_erasures: u64,
}

/// Synthesises the spec's corpus. Everything derives from the spec's
/// seed, so two calls build interchangeable corpora — what lets a
/// capture exported earlier replay against correlators rebuilt now.
/// `threshold` overrides the spec's detection threshold (serve
/// hot-reload).
pub(crate) fn build_spec_corpus(
    spec: &ScenarioSpec,
    threshold: Option<u32>,
) -> Result<SpecCorpus, ScenarioRunError> {
    let params = params_for(spec, threshold)?;
    let backend = match spec.backend {
        stepstone_scenario::Backend::Paper => BackendKind::Paper,
        stepstone_scenario::Backend::Elices => BackendKind::Elices,
        stepstone_scenario::Backend::Game => BackendKind::Game,
    };
    let decode = match spec.decode {
        stepstone_scenario::Decode::Strict => DecodeOptions::strict(),
        stepstone_scenario::Decode::Robust => DecodeOptions::robust(spec.erasure_budget),
    };
    let seed = Seed::new(spec.seed);
    let delta = TimeDelta::from_millis(spec.delta_ms as i64);
    let pipeline = adversary(spec);
    let mut correlators = Vec::with_capacity(spec.upstreams);
    let mut suspicious: Vec<(FlowId, Flow)> = Vec::with_capacity(spec.suspicious_flows());
    let mut channel_erasures = 0u64;
    for i in 0..spec.upstreams {
        let branch = seed.child(i as u64);
        let original = generate_flow(spec, i, false, branch.child(0));
        let marker = IpdWatermarker::new(WatermarkKey::new(branch.child(1).value()), params);
        let watermark = Watermark::random(
            params.bits,
            &mut WatermarkKey::new(branch.child(2).value()).rng(1),
        );
        let marked = marker.embed(&original, &watermark)?;
        let correlator = WatermarkCorrelator::new(marker, watermark, delta, Algorithm::GreedyPlus);
        correlators.push(correlator.bind_backend_with(
            backend,
            decode,
            spec.chaff.rate(),
            &original,
            &marked,
        )?);
        let attacked = pipeline.apply(&marked, branch.child(3));
        let surviving = (attacked.len() - attacked.chaff_count()) as u64;
        channel_erasures += (marked.len() as u64).saturating_sub(surviving);
        suspicious.push((FlowId(i as u64), attacked));
    }
    for d in 0..spec.decoys {
        let branch = seed.child(0x1000 + d as u64);
        let decoy = pipeline.apply(
            &generate_flow(spec, spec.upstreams + d, true, branch.child(0)),
            branch.child(1),
        );
        suspicious.push((FlowId((spec.upstreams + d) as u64), decoy));
    }
    Ok(SpecCorpus {
        correlators,
        suspicious,
        channel_erasures,
    })
}

/// A monitor sized by the spec's decode batch, publishing into
/// `registry` and armed with `plan`'s runtime faults when given, with
/// correlator `i` registered as upstream `i`. The spec's `shards` key
/// reaches no engine: decodes run inline.
fn spec_monitor(
    spec: &ScenarioSpec,
    correlators: Vec<BoundCorrelator>,
    registry: Option<Arc<Registry>>,
    plan: Option<&FaultPlan>,
) -> Monitor {
    let mut config = MonitorConfig::default().with_decode_batch(spec.decode_batch);
    if let Some(registry) = registry {
        config = config.with_registry(registry);
    }
    if let Some(plan) = plan {
        config = plan.arm_monitor(config);
    }
    let mut monitor = Monitor::new(config);
    for (i, bound) in correlators.into_iter().enumerate() {
        monitor.register_upstream(UpstreamId(i as u64), bound);
    }
    monitor
}

/// Merges the suspicious flows into one time-ordered event stream, as a
/// tap on the monitored link would deliver it.
fn merged_stream(suspicious: &[(FlowId, Flow)]) -> Vec<(FlowId, Packet)> {
    let mut events: Vec<(FlowId, Packet)> = suspicious
        .iter()
        .flat_map(|(id, flow)| flow.packets().iter().map(move |&p| (*id, p)))
        .collect();
    events.sort_by_key(|&(_, p)| p.timestamp());
    events
}

/// The transport 5-tuple carrying suspicious flow `id` on the wire: a
/// deterministic, injective mapping, so exported captures demultiplex
/// back to the scenario's flow identities. UDP keeps the minimum frame
/// at 42 bytes, under both the generator's 64-byte payload and 48-byte
/// chaff sizes, so packet sizes survive the round-trip exactly.
fn flow_tuple(id: FlowId) -> FiveTuple {
    let low = (id.0 & 0xFF) as u8;
    let high = ((id.0 >> 8) & 0xFF) as u8;
    let port = 40_000 + (id.0 & 0xFFFF) as u16;
    FiveTuple::udp_v4([10, 7, high, low], port, [192, 0, 2, 1], 22)
}

/// Renders the spec's suspicious stream as classic-pcap bytes: each
/// suspicious flow rides its own UDP 5-tuple (an injective map from
/// scenario flow ids), merged into one time-ordered capture.
///
/// The export is fully determined by the spec, so a capture written
/// today replays against correlators rebuilt from the same spec
/// tomorrow — that is how the `tests/data/sample.pcap` fixture works.
pub fn export_pcap(spec: &ScenarioSpec) -> Result<Vec<u8>, ScenarioRunError> {
    let corpus = build_spec_corpus(spec, None)?;
    let tagged: Vec<_> = corpus
        .suspicious
        .iter()
        .map(|(id, flow)| (flow_tuple(*id), flow))
        .collect();
    let mut bytes = Vec::new();
    write_flows(&mut bytes, &tagged)?;
    Ok(bytes)
}

/// Runs the spec: builds its corpus, streams its synthetic events (or
/// the capture in [`RunOptions::capture`]) through the spec's chaos
/// channel into a fresh monitor, and scores the verdicts.
///
/// A capture tail destroyed mid-stream ends the replay gracefully (see
/// [`RunReport::stream_error`]); the wire layer spares the file header,
/// so only bytes that were never a capture fail outright.
///
/// # Errors
///
/// The spec's flows cannot carry its watermark, a threshold override is
/// out of range, or the capture bytes have no valid header.
pub fn run(spec: &ScenarioSpec, opts: &RunOptions<'_>) -> Result<RunReport, ScenarioRunError> {
    let corpus = build_spec_corpus(spec, opts.threshold)?;
    let plan = chaos_plan(spec);
    let engine_plan = plan.filter(|_| opts.engine_chaos);
    let mut monitor = spec_monitor(
        spec,
        corpus.correlators,
        opts.registry.clone(),
        engine_plan.as_ref(),
    );
    // The channel between stream and engine: the chaos flow layer, if
    // any, counting the events it swallows outright.
    let mut injector = plan.map(|plan| plan.flow_injector());
    let mut chaos_erasures = 0u64;
    let mut channel = |flow: FlowId, packet: Packet, out: &mut Vec<(FlowId, Packet)>| {
        let before = out.len();
        match injector.as_mut() {
            Some(injector) => injector.apply(flow, packet, out),
            None => out.push((flow, packet)),
        }
        if out.len() == before {
            chaos_erasures += 1;
        }
    };
    let outcome = match (opts.capture, engine_plan) {
        (None, _) => {
            let stream = merged_stream(&corpus.suspicious);
            let started = Instant::now();
            let mut deliveries = Vec::new();
            let mut events = 0u64;
            for &(flow, packet) in &stream {
                deliveries.clear();
                channel(flow, packet, &mut deliveries);
                for &(flow, packet) in &deliveries {
                    monitor.ingest(flow, packet);
                    events += 1;
                }
            }
            let finished = monitor.finish();
            ReplayOutcome {
                verdicts: finished.verdicts,
                rejected: finished.stats.packets_rejected,
                monitor_stats: finished.stats,
                demux_stats: DemuxStats::default(),
                flows: Vec::new(),
                events,
                elapsed: started.elapsed(),
                stream_error: None,
            }
        }
        (Some((bytes, clock)), Some(plan)) => {
            let mut mutated = bytes.to_vec();
            plan.wire().mutate_bytes(&mut mutated);
            let records = plan.wire().adapt(parse_capture(&mutated)?);
            replay_records_with(records, monitor, clock, None, &mut channel)
        }
        (Some((bytes, clock)), None) => {
            replay_records_with(parse_capture(bytes)?, monitor, clock, None, &mut channel)
        }
    };
    let demuxed = opts.capture.map(|_| &outcome.flows[..]);
    Ok(RunReport {
        spec: spec.clone(),
        capture: opts.capture.map(|(_, clock)| (clock, outcome.demux_stats)),
        events: outcome.events,
        elapsed: outcome.elapsed,
        detection: Detection::score(spec, &outcome.verdicts, demuxed),
        erasures: corpus.channel_erasures + chaos_erasures,
        verdicts: outcome.verdicts,
        stats: outcome.monitor_stats,
        stream_error: outcome.stream_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepstone_scenario::preset;

    fn run_plain(spec: &ScenarioSpec) -> RunReport {
        run(spec, &RunOptions::default()).expect("the spec runs")
    }

    #[test]
    fn quick_smoke_detects_all_true_pairs() {
        let spec = preset("quick-smoke").expect("preset");
        let report = run_plain(&spec);
        assert_eq!(report.detection.true_positives, spec.upstreams as u32);
        assert_eq!(report.detection.missed, 0);
        assert!(report.stream_error.is_none());
        // Every candidate pair reached a terminal class.
        assert_eq!(report.verdict_lines().len(), spec.candidate_pairs());
        let rendered = report.to_string();
        assert!(rendered.contains("packets/sec"), "{rendered}");
    }

    #[test]
    fn verdict_digest_is_stable_across_runs() {
        let spec = preset("quick-smoke").expect("preset");
        let a = run_plain(&spec);
        let b = run_plain(&spec);
        assert_eq!(a.verdict_lines(), b.verdict_lines());
        assert_eq!(a.verdict_digest(), b.verdict_digest());
    }

    #[test]
    fn chaos_preset_runs_channel_faults_only() {
        let spec = preset("deletion-harsh").expect("preset");
        let report = run_plain(&spec);
        // The channel may cost detections, never engine integrity:
        // runtime faults are not armed, so nothing can degrade.
        assert_eq!(report.detection.degraded, 0);
        assert_eq!(report.stats.decode_panics, 0);
        let again = run_plain(&spec);
        assert_eq!(
            report.summary(),
            again.summary(),
            "channel faults are seed-deterministic"
        );
    }

    #[test]
    fn pcap_round_trip_matches_in_memory_classification() {
        let mut spec = preset("quick-smoke").expect("preset");
        spec.chaos = None;
        let bytes = export_pcap(&spec).expect("export");
        let report = run(
            &spec,
            &RunOptions {
                capture: Some((&bytes, ReplayClock::Fast)),
                ..RunOptions::default()
            },
        )
        .expect("replay");
        assert_eq!(report.detection.true_positives, spec.upstreams as u32);
        assert_eq!(report.detection.missed, 0);
        let (_, demux) = report.capture.expect("a capture replay reports its demux");
        assert_eq!(demux.flows_opened as usize, spec.suspicious_flows());
        assert!(report.to_string().contains("pcap replay"), "{report}");
    }

    #[test]
    fn tuple_mapping_is_injective_over_the_stream() {
        let tuples: Vec<_> = (0..2 * stepstone_scenario::MAX_FLOWS as u64)
            .map(|i| flow_tuple(FlowId(i)))
            .collect();
        let mut dedup = tuples.clone();
        dedup.sort_by_key(|t| (t.src_port, t.src));
        dedup.dedup();
        assert_eq!(dedup.len(), tuples.len());
    }

    #[test]
    fn threshold_override_must_stay_below_bits() {
        let spec = preset("quick-smoke").expect("preset");
        let err = run(
            &spec,
            &RunOptions {
                threshold: Some(64),
                ..RunOptions::default()
            },
        )
        .expect_err("threshold too wide");
        assert!(matches!(err, ScenarioRunError::Invalid(_)), "{err:?}");
    }

    #[test]
    fn backend_and_profile_names_stay_in_lockstep() {
        // The scenario crate is dependency-free, so its Backend and
        // ChaosProfile mirror the real enums by name; pin the lists.
        for (scenario, core) in stepstone_scenario::Backend::ALL
            .iter()
            .zip(BackendKind::ALL.iter())
        {
            assert_eq!(scenario.name(), core.name());
        }
        for (scenario, chaos) in [
            (ChaosProfile::Mild, Profile::Mild),
            (ChaosProfile::Harsh, Profile::Harsh),
            (ChaosProfile::Adversarial, Profile::Adversarial),
        ] {
            assert_eq!(scenario.name(), format!("{chaos}"));
        }
        for (scenario, core) in stepstone_scenario::Decode::ALL
            .iter()
            .zip(stepstone_core::DecodeMode::ALL.iter())
        {
            assert_eq!(scenario.name(), core.name());
        }
    }

    /// The acceptance A/B for this layer: on the `deletion-harsh`
    /// preset the strict decoder (paper §3.2 abort-on-empty rule) loses
    /// the true pairs, while `decode = robust` recovers at least 3 of 4
    /// at zero false positives — and stays seed-deterministic.
    #[test]
    fn robust_decode_rescues_deletion_harsh_pairs() {
        let spec = preset("deletion-harsh").expect("preset");
        let strict = run_plain(&spec);
        assert_eq!(strict.detection.false_positives, 0, "{strict}");

        let mut robust_spec = spec.clone();
        robust_spec.decode = stepstone_scenario::Decode::Robust;
        let robust = run_plain(&robust_spec);
        let (strict_d, robust_d) = (strict.detection, robust.detection);
        assert!(
            robust_d.true_positives >= 3,
            "robust decode must recover >=3/4 true pairs: strict {strict_d} robust {robust_d}"
        );
        assert_eq!(robust_d.false_positives, 0, "{robust}");
        assert!(
            robust_d.true_positives > strict_d.true_positives,
            "robust must beat strict on the deletion channel: strict {strict_d} robust {robust_d}"
        );
        assert!(robust.erasures > 0, "the channel deletes packets: {robust}");

        let again = run_plain(&robust_spec);
        assert_eq!(
            robust.summary(),
            again.summary(),
            "robust runs are seed-deterministic"
        );
    }

    #[test]
    fn mixed_traffic_generates_distinct_flow_families() {
        let spec = preset("tcplib-mix").expect("preset");
        let corpus = build_spec_corpus(&spec, None).expect("corpus");
        assert_eq!(corpus.suspicious.len(), spec.suspicious_flows());
        assert_eq!(corpus.correlators.len(), spec.upstreams);
    }
}
