//! The engine's telemetry handles, interned once per [`Monitor`].
//!
//! Every counter the engine maintains lives in the registry; the
//! [`MonitorStats`](crate::MonitorStats) snapshot is assembled by
//! *reading these handles back*, so the stats API and the `/metrics`
//! endpoint can never disagree. Handles are created once at engine
//! construction — hot paths touch only the pre-resolved `Arc`s, never
//! the registry's interning lock.
//!
//! [`Monitor`]: crate::Monitor

use std::sync::Arc;

use stepstone_core::{BackendKind, DecodeMode};
use stepstone_telemetry::{Counter, Gauge, Histogram, Registry};

use crate::verdict::Verdict;

/// The engine's interned metric handles plus the registry they live in.
pub(crate) struct EngineMetrics {
    pub registry: Arc<Registry>,
    /// Packets accepted into flow windows.
    pub packets_ingested: Arc<Counter>,
    /// Packets rejected as out-of-order.
    pub packets_rejected: Arc<Counter>,
    /// Suspicious flows currently tracked.
    pub flows_active: Arc<Gauge>,
    /// Suspicious flows evicted for inactivity.
    pub flows_evicted: Arc<Counter>,
    /// Non-latched candidate pairs currently tracked.
    pub pairs_active: Arc<Gauge>,
    /// Active pairs parked: no longer screened at their boundaries.
    pub pairs_parked: Arc<Gauge>,
    /// Pairs latched with a `Correlated` verdict.
    pub pairs_latched: Arc<Counter>,
    /// Windows decoded (contained panics included).
    pub decodes_run: Arc<Counter>,
    /// Decode boundaries whose outcome the backend's screen proved, so
    /// no decode ran at the boundary; a parked pair's are added when it
    /// is unparked.
    pub decodes_screened: Arc<Counter>,
    /// Decode panics caught by the containment.
    pub decode_panics: Arc<Counter>,
    /// Verdicts by kind; summed for `verdicts_emitted`.
    pub verdicts_correlated: Arc<Counter>,
    pub verdicts_cleared: Arc<Counter>,
    pub verdicts_evicted: Arc<Counter>,
    pub verdicts_degraded: Arc<Counter>,
    /// Wall-clock decode latency, one sample per decode run.
    pub decode_latency: Arc<Histogram>,
    /// Decode latency split by correlator backend, indexed by
    /// [`BackendKind::index`]. Recorded alongside `decode_latency` (the
    /// aggregate keeps its unlabeled family for existing dashboards).
    pub backend_decode_latency: Vec<Arc<Histogram>>,
    /// Terminal `Correlated`/`Cleared` verdicts split by backend,
    /// indexed by [`BackendKind::index`] then 0 = correlated,
    /// 1 = cleared.
    pub backend_verdicts: Vec<[Arc<Counter>; 2]>,
    /// Erased upstream slots reported by robust decodes; stays zero
    /// under `--decode strict`.
    pub decode_erasures: Arc<Counter>,
    /// Decode latency split by decode mode, indexed by
    /// [`DecodeMode::index`].
    pub mode_decode_latency: Vec<Arc<Histogram>>,
}

impl EngineMetrics {
    /// Interns every engine metric in `registry`.
    pub fn new(registry: Arc<Registry>) -> Self {
        let r = &registry;
        EngineMetrics {
            // conserve(packet_intake): packets_ingested, packets_rejected
            packets_ingested: r.counter(
                "monitor_packets_ingested_total",
                "Packets accepted into suspicious flow windows",
            ),
            packets_rejected: r.counter(
                "monitor_packets_rejected_total",
                "Packets rejected as out-of-order within their flow",
            ),
            flows_active: r.gauge("monitor_flows_active", "Suspicious flows currently tracked"),
            flows_evicted: r.counter(
                "monitor_flows_evicted_total",
                "Suspicious flows evicted for inactivity",
            ),
            pairs_active: r.gauge(
                "monitor_pairs_active",
                "Candidate pairs currently awaiting a verdict",
            ),
            pairs_parked: r.gauge(
                "monitor_pairs_parked",
                "Active pairs no longer screened: a screen proved every later boundary's answer",
            ),
            pairs_latched: r.counter(
                "monitor_pairs_latched_total",
                "Pairs latched with a Correlated verdict",
            ),
            decodes_run: r.counter(
                "monitor_decodes_run_total",
                "Windows decoded, contained panics included",
            ),
            decodes_screened: r.counter(
                "monitor_decodes_screened_total",
                "Decode boundaries resolved by the backend's screen without a decode; a parked pair's boundaries are counted when the pair is accounted, so the count can lag mid-run but its final value is unchanged",
            ),
            decode_panics: r.counter(
                "monitor_decode_panics_total",
                "Decode panics caught by the containment",
            ),
            verdicts_correlated: r.counter_with(
                "monitor_verdicts_total",
                &[("kind", "correlated")],
                "Verdicts emitted, by kind",
            ),
            verdicts_cleared: r.counter_with(
                "monitor_verdicts_total",
                &[("kind", "cleared")],
                "Verdicts emitted, by kind",
            ),
            verdicts_evicted: r.counter_with(
                "monitor_verdicts_total",
                &[("kind", "evicted")],
                "Verdicts emitted, by kind",
            ),
            verdicts_degraded: r.counter_with(
                "monitor_verdicts_total",
                &[("kind", "degraded")],
                "Verdicts emitted, by kind",
            ),
            decode_latency: r.histogram(
                "monitor_decode_latency_micros",
                "Wall-clock decode latency in microseconds",
            ),
            backend_decode_latency: BackendKind::ALL
                .iter()
                .map(|kind| {
                    r.histogram_with(
                        "monitor_backend_decode_latency_micros",
                        &[("backend", kind.name())],
                        "Wall-clock decode latency in microseconds, by correlator backend",
                    )
                })
                .collect(),
            backend_verdicts: BackendKind::ALL
                .iter()
                .map(|kind| {
                    [
                        r.counter_with(
                            "monitor_backend_verdicts_total",
                            &[("backend", kind.name()), ("kind", "correlated")],
                            "Terminal verdicts emitted, by correlator backend and kind",
                        ),
                        r.counter_with(
                            "monitor_backend_verdicts_total",
                            &[("backend", kind.name()), ("kind", "cleared")],
                            "Terminal verdicts emitted, by correlator backend and kind",
                        ),
                    ]
                })
                .collect(),
            decode_erasures: r.counter(
                "monitor_decode_erasures_total",
                "Erased upstream slots reported by robust decodes",
            ),
            mode_decode_latency: DecodeMode::ALL
                .iter()
                .map(|mode| {
                    r.histogram_with(
                        "monitor_mode_decode_latency_micros",
                        &[("decode", mode.name())],
                        "Wall-clock decode latency in microseconds, by decode mode",
                    )
                })
                .collect(),
            registry,
        }
    }

    /// Counts a terminal `Correlated` (`correlated = true`) or
    /// `Cleared` verdict under its backend label.
    pub fn count_backend_verdict(&self, backend: BackendKind, correlated: bool) {
        self.backend_verdicts[backend.index()][usize::from(!correlated)].inc();
    }

    /// Counts `verdict` under its kind label.
    pub fn count_verdict(&self, verdict: &Verdict) {
        match verdict {
            Verdict::Correlated { .. } => self.verdicts_correlated.inc(),
            Verdict::Cleared { .. } => self.verdicts_cleared.inc(),
            Verdict::Evicted { .. } => self.verdicts_evicted.inc(),
            Verdict::Degraded { .. } => self.verdicts_degraded.inc(),
        }
    }

    /// Total verdicts emitted, summed across kinds.
    pub fn verdicts_emitted(&self) -> u64 {
        self.verdicts_correlated.get()
            + self.verdicts_cleared.get()
            + self.verdicts_evicted.get()
            + self.verdicts_degraded.get()
    }
}
