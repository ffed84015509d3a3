//! One run: the capture bytes through parse → demux → monitor ingest →
//! verdict drain → finish, as `stepstone_ingest::replay_capture` wires
//! them, driven from outside so each public call can be timed.
//!
//! The loop is generic over a [`Probe`]. The untraced run uses `()`,
//! whose methods compile to nothing, so it pays no tracing cost; the
//! traced run uses [`Trace`], which times every call.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stepstone_ingest::{parse_capture, FlowDemux};
use stepstone_monitor::{Monitor, MonitorStats, PairId, Verdict};
use stepstone_telemetry::{Histogram, HistogramSnapshot, Registry};

use crate::procfs;
use crate::Error;

/// Events between verdict drains, as in `replay_capture`. While a
/// watched pair's completing packet is in and its verdict is not, the
/// loop drains after every event instead, like a consumer waiting on an
/// answer, so detection latency does not depend on where the completing
/// packet falls in this cadence.
pub const DRAIN_EVERY: u64 = 256;

/// Events between resident-memory samples.
const RSS_EVERY: u64 = 1 << 16;

/// The engine histogram the decode worker records each decode into.
const DECODE_HISTOGRAM: &str = "monitor_decode_latency_micros";

/// What one run produced.
pub struct Run {
    /// Every verdict, in emission order.
    pub verdicts: Vec<Verdict>,
    /// Packets delivered to the monitor.
    pub packets: u64,
    /// Wall time from the first record to the end of `finish`.
    pub wall: Duration,
    /// Process CPU time over the same interval.
    pub cpu: Duration,
    /// Detection latency of each reference-latched pair: from the ingest
    /// call of the packet completing its first correlating window to the
    /// drain (or `finish`) that returned its `Correlated` verdict.
    pub latencies: Vec<Duration>,
    /// Largest resident set sampled during the run, bytes.
    pub peak_rss: u64,
    /// Final engine counters.
    pub stats: MonitorStats,
    /// The engine's decode-latency histogram (µs) at the end of the run.
    pub decode_micros: HistogramSnapshot,
}

/// Where the main thread's time goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Capture::next`: one pcap record.
    Parse,
    /// `FlowDemux::push`.
    Demux,
    /// `Monitor::ingest`.
    Ingest,
    /// `Monitor::drain_verdicts`.
    Drain,
    /// `Monitor::finish`.
    Finish,
}

impl Layer {
    /// Every layer, in pipeline order.
    pub const ALL: [Layer; 5] = [
        Layer::Parse,
        Layer::Demux,
        Layer::Ingest,
        Layer::Drain,
        Layer::Finish,
    ];

    /// The span name in trace output.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Parse => "ingest.parse",
            Layer::Demux => "ingest.demux",
            Layer::Ingest => "monitor.ingest",
            Layer::Drain => "monitor.drain",
            Layer::Finish => "monitor.finish",
        }
    }
}

/// Aggregate of one layer's spans: count, self-time sum and a log2
/// histogram of self time in nanoseconds.
#[derive(Debug, Default)]
pub struct LayerStats {
    /// Spans recorded.
    pub calls: u64,
    /// Self time summed.
    pub total: Duration,
    /// Self time per call, nanoseconds.
    pub nanos: Histogram,
}

/// The individual spans kept for one latched pair: the ingest call that
/// delivered the packet completing its first correlating window, and
/// the drain (or finish) that returned its `Correlated` verdict. Times
/// are offsets from the start of the run.
#[derive(Debug, Clone, Copy)]
pub struct LatchSpans {
    /// The pair both spans belong to.
    pub pair: PairId,
    /// Ingest span of the completing packet.
    pub ingest: (Duration, Duration),
    /// Drain span that returned the verdict.
    pub drain: (Duration, Duration),
}

/// Span aggregates of a traced run.
#[derive(Debug)]
pub struct Trace {
    /// Cost of one `Instant::now()`, subtracted from every span.
    pub clock: Duration,
    /// Per-layer aggregates, indexed like [`Layer::ALL`].
    pub layers: [LayerStats; 5],
    /// Shard queue depth summed over the samples.
    pub queue_depth_sum: u64,
    /// Queue depth samples taken.
    pub queue_samples: u64,
    /// Kept spans of every latched pair.
    pub latches: Vec<LatchSpans>,
    started: Option<Instant>,
    ingest_spans: HashMap<PairId, (Duration, Duration)>,
}

impl Trace {
    /// An empty trace that subtracts `clock` from each span.
    pub fn new(clock: Duration) -> Self {
        Trace {
            clock,
            layers: Default::default(),
            queue_depth_sum: 0,
            queue_samples: 0,
            latches: Vec::new(),
            started: None,
            ingest_spans: HashMap::new(),
        }
    }

    /// The aggregate of `layer`.
    pub fn layer(&self, layer: Layer) -> &LayerStats {
        &self.layers[layer as usize]
    }

    fn offset(&self, at: Instant) -> Duration {
        self.started
            .map_or(Duration::ZERO, |s| at.saturating_duration_since(s))
    }
}

/// Instrumentation hooks of the run loop.
pub trait Probe {
    /// Marks the start of the run, the origin of kept span offsets.
    fn begin(&mut self, at: Instant);
    /// A timestamp when tracing; `None` (and no clock read) otherwise.
    fn now(&self) -> Option<Instant>;
    /// Records a span of `layer` from `start` to now; returns now.
    fn span(&mut self, layer: Layer, start: Option<Instant>) -> Option<Instant>;
    /// Samples the shard queue depth, once every [`DRAIN_EVERY`] events.
    fn sample_queue(&mut self, monitor: &Monitor);
    /// Notes that the ingest span `[start, end]` completed `pair`'s
    /// first correlating window.
    fn completes(&mut self, pair: PairId, start: Option<Instant>, end: Option<Instant>);
    /// Notes that the drain span `[start, end]` returned `pair`'s
    /// `Correlated` verdict.
    fn latched(&mut self, pair: PairId, start: Option<Instant>, end: Option<Instant>);
}

impl Probe for () {
    fn begin(&mut self, _: Instant) {}
    #[inline(always)]
    fn now(&self) -> Option<Instant> {
        None
    }
    #[inline(always)]
    fn span(&mut self, _: Layer, _: Option<Instant>) -> Option<Instant> {
        None
    }
    #[inline(always)]
    fn sample_queue(&mut self, _: &Monitor) {}
    #[inline(always)]
    fn completes(&mut self, _: PairId, _: Option<Instant>, _: Option<Instant>) {}
    #[inline(always)]
    fn latched(&mut self, _: PairId, _: Option<Instant>, _: Option<Instant>) {}
}

impl Probe for Trace {
    fn begin(&mut self, at: Instant) {
        self.started = Some(at);
    }

    #[inline(always)]
    fn now(&self) -> Option<Instant> {
        Some(Instant::now())
    }

    #[inline(always)]
    fn span(&mut self, layer: Layer, start: Option<Instant>) -> Option<Instant> {
        let end = Instant::now();
        let elapsed = start.map_or(Duration::ZERO, |s| end.saturating_duration_since(s));
        let own = elapsed.saturating_sub(self.clock);
        let stats = &mut self.layers[layer as usize];
        stats.calls += 1;
        stats.total += own;
        stats.nanos.record(own.as_nanos() as u64);
        Some(end)
    }

    fn sample_queue(&mut self, monitor: &Monitor) {
        let depth: usize = monitor.stats().queue_depths.iter().sum();
        self.queue_depth_sum += depth as u64;
        self.queue_samples += 1;
    }

    fn completes(&mut self, pair: PairId, start: Option<Instant>, end: Option<Instant>) {
        if let (Some(start), Some(end)) = (start, end) {
            let span = (self.offset(start), self.offset(end));
            self.ingest_spans.insert(pair, span);
        }
    }

    fn latched(&mut self, pair: PairId, start: Option<Instant>, end: Option<Instant>) {
        if let (Some(ingest), Some(start), Some(end)) =
            (self.ingest_spans.remove(&pair), start, end)
        {
            let drain = (self.offset(start), self.offset(end));
            self.latches.push(LatchSpans {
                pair,
                ingest,
                drain,
            });
        }
    }
}

/// Latency bookkeeping shared by drains and the final flush.
struct Latency<'a> {
    watch: &'a [(u64, PairId)],
    next: usize,
    /// Watched pairs whose completing packet went in, with the time its
    /// ingest call began.
    pending: HashMap<PairId, Instant>,
    samples: Vec<Duration>,
}

impl Latency<'_> {
    /// `true` when event `event` completes some watched pair's window.
    #[inline(always)]
    fn watched(&self, event: u64) -> bool {
        self.watch.get(self.next).is_some_and(|&(e, _)| e == event)
    }

    /// Starts the clock of every pair completed by event `event`.
    fn start<P: Probe>(
        &mut self,
        event: u64,
        began: Instant,
        probe: &mut P,
        span: (Option<Instant>, Option<Instant>),
    ) {
        while let Some(&(e, pair)) = self.watch.get(self.next) {
            if e != event {
                break;
            }
            self.pending.insert(pair, began);
            probe.completes(pair, span.0, span.1);
            self.next += 1;
        }
    }

    /// Stops the clock of every pair `verdicts` latch.
    fn stop<P: Probe>(
        &mut self,
        verdicts: &[Verdict],
        probe: &mut P,
        span: (Option<Instant>, Option<Instant>),
    ) {
        let mut now = None;
        for verdict in verdicts {
            let Verdict::Correlated { pair, .. } = *verdict else {
                continue;
            };
            if let Some(began) = self.pending.remove(&pair) {
                let at = *now.get_or_insert_with(|| span.1.unwrap_or_else(Instant::now));
                self.samples.push(at.saturating_duration_since(began));
                probe.latched(pair, span.0, span.1);
            }
        }
    }
}

/// Replays `capture` through `monitor` in a closed loop, measuring
/// detection latency for the pairs in `watch` (the reference's latched
/// pairs, ordered by completing event).
///
/// # Errors
///
/// A capture that does not parse.
pub fn run<P: Probe>(
    capture: &[u8],
    mut monitor: Monitor,
    watch: &[(u64, PairId)],
    probe: &mut P,
) -> Result<Run, Error> {
    let registry: Arc<Registry> = monitor.registry();
    let mut latency = Latency {
        watch,
        next: 0,
        pending: HashMap::new(),
        samples: Vec::new(),
    };
    let mut verdicts = Vec::new();
    let mut peak_rss = procfs::rss_bytes().unwrap_or(0);
    let mut demux = FlowDemux::new();
    let mut records = parse_capture(capture)?;
    let cpu_before = procfs::cpu_time();
    let started = Instant::now();
    probe.begin(started);
    let mut packets = 0u64;
    loop {
        let t = probe.now();
        let record = records.next();
        let t = probe.span(Layer::Parse, t);
        let Some(record) = record else { break };
        let event = demux.push(&record?);
        let t = probe.span(Layer::Demux, t);
        let Some((flow, packet)) = event else {
            continue;
        };
        if latency.watched(packets) {
            let began = Instant::now();
            monitor.ingest(flow, packet);
            let end = probe.span(Layer::Ingest, t);
            latency.start(packets, began, probe, (t, end));
        } else {
            monitor.ingest(flow, packet);
            probe.span(Layer::Ingest, t);
        }
        packets += 1;
        let cadence = packets.is_multiple_of(DRAIN_EVERY);
        if cadence || !latency.pending.is_empty() {
            let t = probe.now();
            let drained = monitor.drain_verdicts();
            let end = probe.span(Layer::Drain, t);
            latency.stop(&drained, probe, (t, end));
            verdicts.extend(drained);
        }
        if cadence {
            probe.sample_queue(&monitor);
        }
        if packets.is_multiple_of(RSS_EVERY) {
            peak_rss = peak_rss.max(procfs::rss_bytes().unwrap_or(0));
        }
    }
    peak_rss = peak_rss.max(procfs::rss_bytes().unwrap_or(0));
    let t = probe.now();
    let report = monitor.finish();
    let end = probe.span(Layer::Finish, t);
    latency.stop(&report.verdicts, probe, (t, end));
    verdicts.extend(report.verdicts);
    let wall = started.elapsed();
    let cpu = match (cpu_before, procfs::cpu_time()) {
        (Some(before), Some(after)) => after.saturating_sub(before),
        _ => Duration::ZERO,
    };
    let decode_micros = registry.histogram(DECODE_HISTOGRAM, "").snapshot();
    Ok(Run {
        verdicts,
        packets,
        wall,
        cpu,
        latencies: latency.samples,
        peak_rss,
        stats: report.stats,
        decode_micros,
    })
}
