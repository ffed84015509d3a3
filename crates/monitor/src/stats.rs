//! Engine statistics snapshots.

use std::fmt;

/// A point-in-time snapshot of engine counters.
///
/// Produced by [`Monitor::stats`](crate::Monitor::stats) and included
/// in the final [`MonitorReport`](crate::MonitorReport). Counters are
/// cumulative over the engine's lifetime; gauges (`flows_active`,
/// `pairs_active`, `queue_depths`) describe the moment of the snapshot.
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
    /// Suspicious flows currently tracked.
    pub flows_active: usize,
    /// Suspicious flows evicted for inactivity.
    pub flows_evicted: u64,
    /// Candidate pairs currently awaiting a verdict.
    pub pairs_active: usize,
    /// Pairs latched with a `Correlated` verdict.
    pub pairs_latched: u64,
    /// Decode jobs accepted onto a shard queue.
    pub decodes_scheduled: u64,
    /// Decode jobs completed by workers.
    pub decodes_run: u64,
    /// Of `decodes_run`, jobs a worker answered without decoding because
    /// their pair had already latched. A pair keeps getting jobs until
    /// the control side absorbs its latch, so this count depends on
    /// worker timing; `decodes_run - decodes_answered`, the windows
    /// actually decoded, depends only on the event stream.
    pub decodes_answered: u64,
    /// Decode boundaries skipped because the backend's screen proved
    /// their outcome: a strict decode whose matching is infeasible,
    /// which still counts as a decode in its pair's `Cleared` verdict,
    /// or a robust decode over its erasure budget, whose pair's latest
    /// one is postponed and counted in `decodes_scheduled` when it runs.
    pub decodes_screened: u64,
    /// Decode jobs whose push failed because the target shard's
    /// receiving side was gone. A full queue blocks ingest instead, so
    /// this stays zero while every shard is alive.
    pub decodes_dropped: u64,
    /// Jobs sitting unstarted in each shard queue.
    pub queue_depths: Vec<usize>,
    /// Decode jobs accepted onto shard queues, summed across shards.
    /// Conservation: `queue_enqueued == queue_dequeued + Σ queue_depths`
    /// whenever no push is mid-flight (always true at shutdown).
    pub queue_enqueued: u64,
    /// Decode jobs handed to shard workers, summed across shards.
    pub queue_dequeued: u64,
    /// Decode panics caught in worker threads. Each panicking decode is
    /// reported as a failed (non-correlating) completion so its pair
    /// still resolves; nonzero means a correlator bug worth chasing.
    pub worker_panics: u64,
    /// Shard workers respawned by the supervisor after a death.
    pub worker_restarts: u64,
    /// Decode jobs lost with a worker death (dequeued but never
    /// completed). Conservation: `queue_dequeued == decodes_run +
    /// jobs_lost` whenever no decode is mid-flight.
    pub jobs_lost: u64,
    /// Verdict events emitted so far.
    pub verdicts_emitted: u64,
}

impl MonitorStats {
    /// Windows the workers actually decoded: `decodes_run` without the
    /// jobs answered after a latch. A function of the event stream.
    pub fn decoded(&self) -> u64 {
        self.decodes_run.saturating_sub(self.decodes_answered)
    }

    /// The engine's conservation identities, as documented on
    /// [`queue_enqueued`](MonitorStats::queue_enqueued) and
    /// [`jobs_lost`](MonitorStats::jobs_lost): accepted decode work is
    /// either still queued, completed, or counted lost. Holds whenever
    /// no push or decode is mid-flight — always true for the snapshot
    /// in a final [`MonitorReport`](crate::MonitorReport) — and is the
    /// invariant the chaos and cluster soak tests assert.
    pub fn conservation_holds(&self) -> bool {
        let depth: u64 = self.queue_depths.iter().map(|&d| d as u64).sum();
        self.queue_enqueued == self.queue_dequeued + depth
            && self.queue_dequeued == self.decodes_run + self.jobs_lost
    }
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
            "decodes: {} decoded, {} screened, {} dropped, {} panicked",
            self.decoded(),
            self.decodes_screened,
            self.decodes_dropped,
            self.worker_panics
        )?;
        writeln!(
            f,
            "chaos:   {} restarts, {} jobs lost",
            self.worker_restarts, self.jobs_lost
        )?;
        write!(
            f,
            "queues:  {:?} deep, {} enqueued, {} dequeued, {} answered after latch; verdicts: {}",
            self.queue_depths,
            self.queue_enqueued,
            self.queue_dequeued,
            self.decodes_answered,
            self.verdicts_emitted
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_checks_both_identities() {
        let stats = MonitorStats {
            queue_enqueued: 10,
            queue_dequeued: 7,
            queue_depths: vec![1, 2],
            decodes_run: 6,
            jobs_lost: 1,
            ..MonitorStats::default()
        };
        assert!(stats.conservation_holds());
        assert!(!MonitorStats {
            queue_depths: vec![2, 2],
            ..stats.clone()
        }
        .conservation_holds());
        assert!(!MonitorStats {
            jobs_lost: 0,
            ..stats
        }
        .conservation_holds());
    }
}
