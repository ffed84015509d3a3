//! Live replay: drive the online monitor over a synthetic corpus.
//!
//! Batch experiments answer the paper's accuracy questions; this module
//! answers the deployment question — what does the correlator look like
//! as an *online* service? It synthesises a population of watermarked
//! upstream flows, their attacked downstream flows and unrelated decoys,
//! merges everything into one time-ordered packet stream, replays it
//! through a [`Monitor`], and reports throughput (packets/sec) next to
//! detection quality and engine counters.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stepstone_adversary::{AdversaryPipeline, ChaffInjector, ChaffModel, UniformPerturbation};
use stepstone_chaos::FaultPlan;
use stepstone_core::{Algorithm, BackendKind, BoundCorrelator, DecodeOptions, WatermarkCorrelator};
use stepstone_flow::{Flow, Packet, TimeDelta, Timestamp};
use stepstone_ingest::{
    parse_capture, replay_capture, replay_records_with, write_flows, FiveTuple, IngestError,
    ReplayClock, ReplayOutcome,
};
use stepstone_monitor::{FlowId, Monitor, MonitorConfig, MonitorStats, UpstreamId, Verdict};
use stepstone_telemetry::Registry;
use stepstone_traffic::{InteractiveProfile, Seed, SessionGenerator};
use stepstone_watermark::{
    IpdWatermarker, Watermark, WatermarkError, WatermarkKey, WatermarkParams,
};

use crate::config::{ExperimentConfig, Scale};

/// One synthetic monitoring scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveScenario {
    /// Watermarked upstream flows; each has exactly one true attacked
    /// downstream flow in the stream.
    pub upstreams: usize,
    /// Unrelated suspicious flows mixed into the stream.
    pub decoys: usize,
    /// Packets per upstream flow.
    pub packets: usize,
    /// Decode worker shards.
    pub shards: usize,
    /// New packets per scheduled decode (see
    /// [`MonitorConfig::decode_batch`]).
    pub decode_batch: usize,
    /// Master seed; every flow and attack derives from it.
    pub seed: Seed,
    /// The paper's maximum delay `Δ`.
    pub delta: TimeDelta,
    /// Poisson chaff rate `λc` applied to every suspicious flow.
    pub chaff: f64,
    /// Watermarking scheme.
    pub params: WatermarkParams,
    /// Which correlator backend every upstream registers with.
    pub backend: BackendKind,
    /// How every bound correlator decodes: the paper's strict
    /// abort-on-empty rule, or the erasure-tolerant robust mode.
    pub decode: DecodeOptions,
}

impl LiveScenario {
    /// Derives a scenario sized for the experiment scale: quick stays
    /// interactive, full approaches the paper's all-pairs setup.
    pub fn from_config(cfg: &ExperimentConfig) -> Self {
        let (upstreams, decoys) = match cfg.scale {
            Scale::Quick => (2, 2),
            Scale::Default => (4, 4),
            Scale::Full => (8, 8),
        };
        // The paper's trace-length regime: random disjoint-pair packing
        // needs slack well beyond the layout's theoretical minimum.
        let packets = cfg.min_packets.max(1000);
        LiveScenario {
            upstreams,
            decoys,
            packets,
            shards: 2,
            decode_batch: 64,
            seed: cfg.seed,
            delta: cfg.fixed_delta,
            chaff: cfg.fixed_chaff,
            params: cfg.params,
            backend: BackendKind::Paper,
            decode: DecodeOptions::strict(),
        }
    }

    /// The same scenario decoded by `backend` instead. The corpus —
    /// flows, watermarks, attacks — is unchanged (it derives from the
    /// seed alone), so reports for different backends over the same
    /// scenario are directly comparable.
    #[must_use]
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// The same scenario decoded with `decode` instead. Like
    /// [`with_backend`](Self::with_backend), the corpus is unchanged —
    /// only how the bound correlators treat empty matching sets.
    #[must_use]
    pub fn with_decode(mut self, decode: DecodeOptions) -> Self {
        self.decode = decode;
        self
    }

    /// A small scale-independent scenario for wire-format round-trips:
    /// the same configuration (and therefore the same corpus and
    /// correlators) regardless of `--scale`, so a capture exported with
    /// [`export_pcap`] replays correctly against a monitor rebuilt from
    /// the same [`ExperimentConfig::seed`] later — including the
    /// checked-in `tests/data/sample.pcap` fixture.
    pub fn wire(cfg: &ExperimentConfig) -> Self {
        LiveScenario {
            upstreams: 1,
            decoys: 1,
            packets: 220,
            shards: 1,
            decode_batch: 32,
            seed: cfg.seed,
            delta: TimeDelta::from_secs(1),
            chaff: 0.5,
            params: WatermarkParams::small(),
            backend: BackendKind::Paper,
            decode: DecodeOptions::strict(),
        }
    }

    /// Candidate pairs the monitor will track: every suspicious flow
    /// against every upstream.
    pub fn candidate_pairs(&self) -> usize {
        self.upstreams * (self.upstreams + self.decoys)
    }

    /// Total suspicious flows in the stream.
    pub fn suspicious_flows(&self) -> usize {
        self.upstreams + self.decoys
    }

    /// The transport 5-tuple carrying suspicious flow `id` on the wire:
    /// a deterministic, injective mapping so exported captures
    /// demultiplex back to the scenario's flow identities. UDP keeps
    /// the minimum frame at 42 bytes, under both the generator's 64-
    /// byte payload and 48-byte chaff sizes, so packet sizes survive
    /// the round-trip exactly.
    pub fn tuple_for(&self, id: FlowId) -> FiveTuple {
        flow_tuple(id)
    }
}

/// The shared scenario-flow → wire-5-tuple mapping behind
/// [`LiveScenario::tuple_for`]; the scenario runner uses the same one,
/// so captures exported from either side demultiplex interchangeably.
pub(crate) fn flow_tuple(id: FlowId) -> FiveTuple {
    let low = (id.0 & 0xFF) as u8;
    let high = ((id.0 >> 8) & 0xFF) as u8;
    let port = 40_000 + (id.0 & 0xFFFF) as u16;
    FiveTuple::udp_v4([10, 7, high, low], port, [192, 0, 2, 1], 22)
}

/// The outcome of one replay.
#[derive(Debug, Clone)]
pub struct LiveReport {
    /// The replayed scenario.
    pub scenario: LiveScenario,
    /// Events replayed (accepted packets).
    pub events: usize,
    /// Wall-clock time for ingest + flush.
    pub elapsed: Duration,
    /// True (upstream `i`, downstream `i`) pairs detected.
    pub true_positives: usize,
    /// Correlated verdicts on pairs that are not true pairs.
    pub false_positives: usize,
    /// True pairs the monitor failed to detect.
    pub missed: usize,
    /// Pairs that ended degraded: worker lost or stalled under a fault
    /// plan, or over the erasure budget under robust decoding.
    pub degraded: usize,
    /// Final engine counters.
    pub stats: MonitorStats,
}

impl LiveReport {
    /// Replay throughput in packets per second.
    pub fn packets_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

impl fmt::Display for LiveReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = &self.scenario;
        writeln!(
            f,
            "monitor replay: {} upstreams, {} decoys, {} candidate pairs, {} shards, backend {}, decode {}",
            s.upstreams,
            s.decoys,
            s.candidate_pairs(),
            s.shards,
            s.backend,
            s.decode.mode
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
        write!(f, "{}", self.stats)
    }
}

/// The scenario's derived corpus: a monitor with every upstream
/// correlator registered, plus the suspicious flows (true downstreams
/// first, then decoys) keyed by their scenario [`FlowId`].
pub(crate) struct Corpus {
    pub(crate) monitor: Monitor,
    pub(crate) suspicious: Vec<(FlowId, Flow)>,
    /// The bound correlators, indexed by upstream id — clones of what
    /// the monitor registered, for offline (batch) decode accounting.
    pub(crate) correlators: Vec<BoundCorrelator>,
}

/// Synthesises the scenario's corpus: watermarked upstreams bound into
/// a fresh monitor, and the attacked downstream + decoy flows that make
/// up the suspicious stream. Everything derives from `scenario.seed`,
/// so two calls with the same scenario build interchangeable corpora —
/// the property [`replay_pcap`] relies on to rebuild correlators for a
/// capture exported earlier.
pub(crate) fn build_corpus(
    scenario: &LiveScenario,
    registry: Option<Arc<Registry>>,
    chaos: Option<&FaultPlan>,
) -> Result<Corpus, WatermarkError> {
    let attack = |flow: &Flow, seed: Seed| {
        AdversaryPipeline::new()
            .then(UniformPerturbation::new(scenario.delta))
            .then(ChaffInjector::new(ChaffModel::Poisson {
                rate: scenario.chaff,
            }))
            .apply(flow, seed)
    };
    let interactive = |seed: Seed| {
        SessionGenerator::new(InteractiveProfile::ssh()).generate(
            scenario.packets,
            Timestamp::ZERO,
            &mut seed.rng(0),
        )
    };

    let mut config = MonitorConfig::default()
        .with_shards(scenario.shards)
        .with_decode_batch(scenario.decode_batch);
    if let Some(registry) = registry {
        config = config.with_registry(registry);
    }
    if let Some(plan) = chaos {
        // Arms both sides: the runtime fault hook *and* the matching
        // degradation policy (stall detection, fast restarts).
        config = plan.arm_monitor(config);
    }
    let mut monitor = Monitor::new(config);
    let mut suspicious: Vec<(FlowId, Flow)> = Vec::new();
    let mut correlators: Vec<BoundCorrelator> = Vec::new();
    for i in 0..scenario.upstreams {
        let branch = scenario.seed.child(i as u64);
        let original = interactive(branch.child(0));
        let marker =
            IpdWatermarker::new(WatermarkKey::new(branch.child(1).value()), scenario.params);
        let watermark = Watermark::random(
            scenario.params.bits,
            &mut WatermarkKey::new(branch.child(2).value()).rng(1),
        );
        let marked = marker.embed(&original, &watermark)?;
        let correlator =
            WatermarkCorrelator::new(marker, watermark, scenario.delta, Algorithm::GreedyPlus);
        let bound = correlator.bind_backend_with(
            scenario.backend,
            scenario.decode,
            scenario.chaff,
            &original,
            &marked,
        )?;
        monitor.register_upstream(UpstreamId(i as u64), bound.clone());
        correlators.push(bound);
        suspicious.push((FlowId(i as u64), attack(&marked, branch.child(3))));
    }
    for d in 0..scenario.decoys {
        let branch = scenario.seed.child(0x1000 + d as u64);
        let decoy = attack(&interactive(branch.child(0)), branch.child(1));
        suspicious.push((FlowId((scenario.upstreams + d) as u64), decoy));
    }
    Ok(Corpus {
        monitor,
        suspicious,
        correlators,
    })
}

/// Builds the scenario's corpus and replays it through a fresh monitor.
///
/// Fails when the scenario's flows are too short for the watermark
/// layout (see [`WatermarkError::FlowTooShort`]).
pub fn replay(scenario: &LiveScenario) -> Result<LiveReport, WatermarkError> {
    replay_with(scenario, None)
}

/// [`replay`] with the monitor publishing into `registry`, so callers
/// can watch the replay live over a
/// [`stepstone_telemetry::MetricsServer`] bound to the same registry.
pub fn replay_with(
    scenario: &LiveScenario,
    registry: Option<Arc<Registry>>,
) -> Result<LiveReport, WatermarkError> {
    replay_chaos_with(scenario, registry, None)
}

/// [`replay_with`] under a [`FaultPlan`]: the monitor is armed with the
/// plan's runtime faults and degradation policy, and the in-memory
/// event stream passes through the plan's flow-fault layer (deletion,
/// chaff bursts, bounded extra delay) on its way into the engine. There
/// is no wire in this mode, so the wire layer does not apply.
pub fn replay_chaos_with(
    scenario: &LiveScenario,
    registry: Option<Arc<Registry>>,
    chaos: Option<&FaultPlan>,
) -> Result<LiveReport, WatermarkError> {
    let Corpus {
        mut monitor,
        suspicious,
        ..
    } = build_corpus(scenario, registry, chaos)?;

    let events = merged_stream(&suspicious);

    let mut injector = chaos.map(|plan| plan.flow_injector());
    let mut deliveries: Vec<(FlowId, Packet)> = Vec::new();
    let started = Instant::now();
    let mut delivered = 0usize;
    for &(flow, packet) in &events {
        deliveries.clear();
        match injector.as_mut() {
            Some(injector) => injector.apply(flow, packet, &mut deliveries),
            None => deliveries.push((flow, packet)),
        }
        for &(flow, packet) in &deliveries {
            monitor.ingest(flow, packet);
            delivered += 1;
        }
    }
    let report = monitor.finish();
    let elapsed = started.elapsed();

    let (true_positives, false_positives, degraded) =
        score_verdicts(&report.verdicts, |pair| pair.upstream.0 == pair.flow.0);
    Ok(LiveReport {
        scenario: scenario.clone(),
        events: delivered,
        elapsed,
        true_positives,
        false_positives,
        missed: scenario.upstreams - true_positives,
        degraded,
        stats: report.stats,
    })
}

/// Merges the suspicious flows into one time-ordered event stream, as a
/// tap on the monitored link would deliver it.
pub(crate) fn merged_stream(suspicious: &[(FlowId, Flow)]) -> Vec<(FlowId, Packet)> {
    let mut events: Vec<(FlowId, Packet)> = suspicious
        .iter()
        .flat_map(|(id, flow)| flow.packets().iter().map(move |&p| (*id, p)))
        .collect();
    events.sort_by_key(|&(_, p)| p.timestamp());
    events
}

/// Tallies correlated verdicts into true/false positives (per the
/// caller's notion of a true pair) and counts degraded pairs.
pub(crate) fn score_verdicts<F>(verdicts: &[Verdict], is_true_pair: F) -> (usize, usize, usize)
where
    F: Fn(&stepstone_monitor::PairId) -> bool,
{
    let mut true_positives = 0;
    let mut false_positives = 0;
    let mut degraded = 0;
    for v in verdicts {
        match v {
            Verdict::Correlated { pair, .. } => {
                if is_true_pair(pair) {
                    true_positives += 1;
                } else {
                    false_positives += 1;
                }
            }
            Verdict::Degraded { .. } => degraded += 1,
            _ => {}
        }
    }
    (true_positives, false_positives, degraded)
}

/// What can go wrong on the wire-format path: corpus synthesis
/// ([`WatermarkError`]) or capture parsing ([`IngestError`]).
#[derive(Debug)]
#[non_exhaustive]
pub enum LivePcapError {
    /// The scenario's flows cannot carry the watermark.
    Watermark(WatermarkError),
    /// The capture bytes are not a valid pcap/pcapng file.
    Ingest(IngestError),
}

impl fmt::Display for LivePcapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LivePcapError::Watermark(e) => write!(f, "corpus synthesis failed: {e}"),
            LivePcapError::Ingest(e) => write!(f, "capture ingestion failed: {e}"),
        }
    }
}

impl std::error::Error for LivePcapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LivePcapError::Watermark(e) => Some(e),
            LivePcapError::Ingest(e) => Some(e),
        }
    }
}

impl From<WatermarkError> for LivePcapError {
    fn from(e: WatermarkError) -> Self {
        LivePcapError::Watermark(e)
    }
}

impl From<IngestError> for LivePcapError {
    fn from(e: IngestError) -> Self {
        LivePcapError::Ingest(e)
    }
}

/// Renders the scenario's suspicious stream as classic-pcap bytes:
/// each suspicious flow rides its [`LiveScenario::tuple_for`] 5-tuple,
/// merged into one time-ordered capture.
///
/// The export is fully determined by the scenario, so a capture written
/// today replays against a monitor rebuilt from the same scenario
/// tomorrow — that is how the `tests/data/sample.pcap` fixture works.
pub fn export_pcap(scenario: &LiveScenario) -> Result<Vec<u8>, LivePcapError> {
    let corpus = build_corpus(scenario, None, None)?;
    let tagged: Vec<(FiveTuple, &Flow)> = corpus
        .suspicious
        .iter()
        .map(|(id, flow)| (scenario.tuple_for(*id), flow))
        .collect();
    let mut bytes = Vec::new();
    write_flows(&mut bytes, &tagged)?;
    Ok(bytes)
}

/// The outcome of replaying a capture through the monitor.
#[derive(Debug)]
pub struct PcapReport {
    /// The scenario whose correlators judged the capture.
    pub scenario: LiveScenario,
    /// The pacing used.
    pub clock: ReplayClock,
    /// Demux/monitor/verdict details from the ingest pipeline.
    pub outcome: ReplayOutcome,
    /// True (upstream `i`, downstream `i`) pairs detected.
    pub true_positives: usize,
    /// Correlated verdicts on pairs that are not true pairs.
    pub false_positives: usize,
    /// True pairs the monitor failed to detect.
    pub missed: usize,
    /// Pairs that ended degraded: worker lost or stalled under a fault
    /// plan, or over the erasure budget under robust decoding.
    pub degraded: usize,
}

impl PcapReport {
    /// Replay throughput in packets per second (meaningful for
    /// [`ReplayClock::Fast`]; paced replays track the capture clock).
    pub fn packets_per_sec(&self) -> f64 {
        self.outcome.events as f64 / self.outcome.elapsed.as_secs_f64().max(1e-9)
    }
}

impl fmt::Display for PcapReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = &self.scenario;
        let o = &self.outcome;
        writeln!(
            f,
            "pcap replay:    {} flows demuxed from {} packets ({} ignored, {} clamped), clock {}",
            o.demux_stats.flows_opened,
            o.demux_stats.packets,
            o.demux_stats.ignored,
            o.demux_stats.clamped,
            self.clock
        )?;
        writeln!(
            f,
            "throughput:     {} events in {:.3} s = {:.0} packets/sec",
            o.events,
            o.elapsed.as_secs_f64(),
            self.packets_per_sec()
        )?;
        writeln!(
            f,
            "detection:      {}/{} true pairs, {} false positives, {} missed, {} degraded",
            self.true_positives, s.upstreams, self.false_positives, self.missed, self.degraded
        )?;
        if let Some(err) = &o.stream_error {
            writeln!(f, "stream error:   capture tail abandoned: {err}")?;
        }
        write!(f, "{}", o.monitor_stats)
    }
}

/// Replays pcap/pcapng bytes through a monitor rebuilt from
/// `scenario`, attributing verdicts back to scenario flow identities
/// via the 5-tuple mapping.
///
/// Flows in the capture that do not carry a [`LiveScenario::tuple_for`]
/// tuple are still streamed to the monitor (as extra suspicious flows),
/// they just cannot count as true positives.
pub fn replay_pcap(
    scenario: &LiveScenario,
    bytes: &[u8],
    clock: ReplayClock,
) -> Result<PcapReport, LivePcapError> {
    replay_pcap_with(scenario, bytes, clock, None)
}

/// [`replay_pcap`] with the monitor publishing into `registry`; the
/// ingest demux and replay loop bind to the same registry inside
/// [`replay_capture`], so one endpoint covers the whole pipeline.
pub fn replay_pcap_with(
    scenario: &LiveScenario,
    bytes: &[u8],
    clock: ReplayClock,
    registry: Option<Arc<Registry>>,
) -> Result<PcapReport, LivePcapError> {
    let corpus = build_corpus(scenario, registry, None)?;
    let outcome = replay_capture(bytes, corpus.monitor, clock, None)?;
    Ok(attribute_pcap(scenario, clock, outcome))
}

/// [`replay_pcap_with`] under a [`FaultPlan`], exercising all three
/// fault layers end to end:
///
/// 1. the capture *bytes* are corrupted/truncated by the wire layer;
/// 2. the surviving records pass through the wire record adapter
///    (drop, duplicate, timestamp skew);
/// 3. demuxed events pass through the flow layer (deletion, chaff
///    bursts, extra delay);
/// 4. the monitor itself runs armed with the runtime layer and the
///    profile's degradation policy.
///
/// A capture tail destroyed by the wire layer ends the stream
/// gracefully (see [`ReplayOutcome::stream_error`]); header damage is
/// impossible by construction (the wire layer spares the file header).
pub fn replay_pcap_chaos(
    scenario: &LiveScenario,
    bytes: &[u8],
    clock: ReplayClock,
    registry: Option<Arc<Registry>>,
    plan: &FaultPlan,
) -> Result<PcapReport, LivePcapError> {
    let corpus = build_corpus(scenario, registry, Some(plan))?;
    let mut mutated = bytes.to_vec();
    plan.wire().mutate_bytes(&mut mutated);
    let records = plan.wire().adapt(parse_capture(&mutated)?);
    let mut injector = plan.flow_injector();
    let outcome = replay_records_with(records, corpus.monitor, clock, None, |flow, packet, out| {
        injector.apply(flow, packet, out)
    });
    Ok(attribute_pcap(scenario, clock, outcome))
}

/// Attributes a replay outcome's verdicts back to scenario identities
/// through the injective 5-tuple map and packages the report.
fn attribute_pcap(
    scenario: &LiveScenario,
    clock: ReplayClock,
    outcome: ReplayOutcome,
) -> PcapReport {
    // The demux numbers flows in first-seen order, which need not match
    // the scenario's ids; translate through the injective tuple map.
    let scenario_id = |demux_id: FlowId| -> Option<FlowId> {
        let tuple = outcome
            .flows
            .iter()
            .find(|f| f.id == demux_id)
            .map(|f| f.tuple)?;
        (0..scenario.suspicious_flows() as u64)
            .map(FlowId)
            .find(|id| scenario.tuple_for(*id) == tuple)
    };
    let (true_positives, false_positives, degraded) = score_verdicts(&outcome.verdicts, |pair| {
        scenario_id(pair.flow).is_some_and(|id| id.0 == pair.upstream.0)
    });
    PcapReport {
        scenario: scenario.clone(),
        clock,
        outcome,
        true_positives,
        false_positives,
        missed: scenario.upstreams.saturating_sub(true_positives),
        degraded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scenario_detects_all_true_pairs() {
        let scenario = LiveScenario::from_config(&ExperimentConfig::new(Scale::Quick));
        let report = replay(&scenario).expect("quick scenario flows are long enough");
        assert_eq!(report.true_positives, scenario.upstreams);
        assert_eq!(report.missed, 0);
        assert_eq!(report.stats.packets_rejected, 0);
        assert!(report.packets_per_sec() > 0.0);
        let rendered = report.to_string();
        assert!(rendered.contains("packets/sec"), "{rendered}");
    }

    #[test]
    fn wire_scenario_round_trips_through_pcap() {
        let cfg = ExperimentConfig::new(Scale::Quick);
        let scenario = LiveScenario::wire(&cfg);
        let bytes = export_pcap(&scenario).expect("wire flows carry the small watermark");
        let report = replay_pcap(&scenario, &bytes, ReplayClock::Fast).expect("capture replays");
        assert_eq!(report.true_positives, 1);
        assert_eq!(report.false_positives, 0);
        assert_eq!(report.missed, 0);
        assert_eq!(report.outcome.demux_stats.flows_opened, 2);
        assert_eq!(report.outcome.rejected, 0);
        let rendered = report.to_string();
        assert!(rendered.contains("pcap replay"), "{rendered}");
    }

    #[test]
    fn wire_scenario_is_scale_independent() {
        let quick = LiveScenario::wire(&ExperimentConfig::new(Scale::Quick));
        let full = LiveScenario::wire(&ExperimentConfig::new(Scale::Full));
        assert_eq!(quick, full);
    }

    #[test]
    fn tuple_mapping_is_injective_over_the_stream() {
        let scenario = LiveScenario::wire(&ExperimentConfig::new(Scale::Quick));
        let tuples: Vec<_> = (0..scenario.suspicious_flows() as u64)
            .map(|i| scenario.tuple_for(FlowId(i)))
            .collect();
        let mut dedup = tuples.clone();
        dedup.sort_by_key(|t| (t.src_port, t.src));
        dedup.dedup();
        assert_eq!(dedup.len(), tuples.len());
    }
}
