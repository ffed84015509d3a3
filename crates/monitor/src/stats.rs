//! Engine statistics snapshots.

use std::fmt;

/// A point-in-time snapshot of engine counters.
///
/// Produced by [`Monitor::stats`](crate::Monitor::stats) and included
/// in the final [`MonitorReport`](crate::MonitorReport). Counters are
/// cumulative over the engine's lifetime; gauges (`flows_active`,
/// `pairs_active`, `pairs_parked`) describe the moment of the snapshot.
///
/// The snapshot is a *read-through view over the engine's telemetry
/// registry* ([`Monitor::registry`](crate::Monitor::registry)): every
/// field is assembled by reading the same counter and gauge handles the
/// `/metrics` endpoint renders, so the two can never disagree.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MonitorStats {
    /// Packets accepted into flow windows.
    pub packets_ingested: u64,
    /// Packets rejected (out-of-order within their flow).
    pub packets_rejected: u64,
    /// Suspicious flows currently tracked. In the final report: the
    /// flows still open at end of stream, which
    /// [`Monitor::finish`](crate::Monitor::finish) resolves but does not
    /// evict, so `flows_active + flows_evicted` is every flow tracked.
    pub flows_active: usize,
    /// Suspicious flows evicted for inactivity.
    pub flows_evicted: u64,
    /// Candidate pairs currently awaiting a verdict; 0 in the final
    /// report, since [`Monitor::finish`](crate::Monitor::finish) gives
    /// every pair its verdict.
    pub pairs_active: usize,
    /// Active pairs that are parked: a screen proved the answer of
    /// every later decode boundary, so the engine no longer screens
    /// them. Never more than `pairs_active`, and 0 in the final report,
    /// since [`Monitor::finish`](crate::Monitor::finish) unparks every
    /// pair.
    pub pairs_parked: usize,
    /// Pairs latched with a `Correlated` verdict.
    pub pairs_latched: u64,
    /// Windows decoded, contained panics included — one sample each in
    /// the `monitor_decode_latency_micros` histogram. A function of the
    /// event stream.
    pub decodes_run: u64,
    /// Decode boundaries skipped because the backend's screen proved
    /// their outcome: a strict decode whose matching is infeasible,
    /// which still counts as a decode in its pair's `Cleared` verdict,
    /// or a robust decode over its erasure budget, whose pair's latest
    /// one is postponed and counted in `decodes_run` when it runs. A
    /// parked pair's boundaries are counted when it is unparked, so
    /// mid-run the count may lag; the final count does not.
    pub decodes_screened: u64,
    /// Always empty: the engine decodes inline and has no queues. Kept
    /// for callers written against the sharded engine; it will be
    /// removed.
    pub queue_depths: Vec<usize>,
    /// Decode panics caught by the containment. Each panicking decode
    /// counts as a failed (non-correlating) decode so its pair still
    /// resolves; nonzero means a correlator bug worth chasing.
    pub decode_panics: u64,
    /// Verdict events emitted so far.
    pub verdicts_emitted: u64,
}

impl fmt::Display for MonitorStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "packets: {} ingested, {} rejected",
            self.packets_ingested, self.packets_rejected
        )?;
        writeln!(
            f,
            "flows:   {} active, {} evicted",
            self.flows_active, self.flows_evicted
        )?;
        writeln!(
            f,
            "pairs:   {} active, {} latched",
            self.pairs_active, self.pairs_latched
        )?;
        writeln!(
            f,
            "decodes: {} decoded, {} screened, {} panicked",
            self.decodes_run, self.decodes_screened, self.decode_panics
        )?;
        write!(f, "verdicts: {}", self.verdicts_emitted)
    }
}
