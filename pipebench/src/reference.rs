//! The batch reference every run is checked against.
//!
//! A demux pass rebuilds each suspicious flow's packet sequence from the
//! capture. For every candidate pair the reference then calls
//! `BoundCorrelator::correlate` on exactly the windows the deterministic
//! schedule decodes: the first once the window holds
//! max(`min_window`, batch) packets, then one every batch, then the
//! final window at shutdown. A pair latches when any of them correlates.
//! Only the latched/not-latched status is compared, so the check does
//! not depend on which negative verdict (`Cleared` or `Degraded`) the
//! engine's ladder picks.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use stepstone_core::BoundCorrelator;
use stepstone_flow::Flow;
use stepstone_ingest::{parse_capture, DemuxFlow, FiveTuple, FlowDemux};
use stepstone_monitor::{MonitorConfig, PairId, UpstreamId};

use crate::Error;

/// One reference decode, for the `core`, `matching` and `flow` layer
/// metrics.
#[derive(Debug, Clone, Copy)]
pub struct DecodeSample {
    /// Wall time of the `correlate` call.
    pub elapsed: Duration,
    /// Packets accessed, matching included (`Correlation::cost`).
    pub cost: u64,
    /// Packets accessed by the matching phase alone.
    pub matching_cost: u64,
    /// Packets in the decoded window.
    pub window: usize,
    /// The decode produced no usable watermark: the matching was
    /// infeasible or a bounded search gave up.
    pub incomplete: bool,
}

/// The reference verdicts of one corpus.
pub struct Reference {
    /// Every candidate pair.
    pub candidates: Vec<PairId>,
    /// Pairs that latch, each with the capture-wide index of the event
    /// that completes its first correlating window.
    pub latched: BTreeMap<PairId, u64>,
    /// Latched pairs whose flow is the upstream's true downstream.
    pub true_latched: usize,
    /// Every decode the reference ran.
    pub decodes: Vec<DecodeSample>,
    /// Wall time of the whole reference pass, single-threaded.
    pub elapsed: Duration,
}

/// The window length at which the engine first considers a pair, as
/// `Monitor` computes it: a complete matching needs as many suspicious
/// packets as the upstream has, less the erasure budget under robust
/// decoding.
fn min_window(correlator: &BoundCorrelator, config: &MonitorConfig) -> usize {
    let decode = correlator.decode_options();
    let full = correlator.upstream().len();
    let needed = if decode.is_robust() {
        full.saturating_sub(decode.erasure_budget as usize)
    } else {
        full
    };
    let capacity = config.window_capacity;
    needed
        .min(capacity)
        .max(config.min_window.min(capacity))
        .max(1)
}

/// The window lengths (pushed-packet counts) the deterministic schedule
/// decodes for a flow of `len` packets.
pub fn scheduled_windows(len: usize, min_window: usize, batch: usize) -> Vec<usize> {
    let mut windows: Vec<usize> = (min_window.max(batch)..=len).step_by(batch).collect();
    if len >= min_window && windows.last() != Some(&len) {
        windows.push(len);
    }
    windows
}

/// Demultiplexes `capture` as the pipeline does, returning the flows
/// and, per flow, the capture-wide event index of each of its packets.
fn demux(capture: &[u8]) -> Result<(Vec<DemuxFlow>, Vec<Vec<u64>>), Error> {
    let mut demux = FlowDemux::new();
    let mut events: Vec<Vec<u64>> = Vec::new();
    let mut next = 0u64;
    for record in parse_capture(capture)? {
        if let Some((flow, _)) = demux.push(&record?) {
            let index = flow.0 as usize;
            if index == events.len() {
                events.push(Vec::new());
            }
            events[index].push(next);
            next += 1;
        }
    }
    Ok((demux.finish().0, events))
}

impl Reference {
    /// Runs the reference pass over `capture` for `correlators` under
    /// `config`'s window capacity and decode batch.
    ///
    /// # Errors
    ///
    /// A capture that does not parse.
    pub fn build(
        capture: &[u8],
        correlators: &[BoundCorrelator],
        config: &MonitorConfig,
        true_tuples: &[FiveTuple],
    ) -> Result<Reference, Error> {
        let started = Instant::now();
        let (flows, events) = demux(capture)?;
        let mut candidates = Vec::new();
        let mut latched = BTreeMap::new();
        let mut true_latched = 0;
        let mut decodes = Vec::new();
        for flow in &flows {
            let packets = flow.flow.packets();
            // Window length -> upstreams whose schedule decodes it, so
            // each window is copied once for all of them.
            let mut windows: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for (u, correlator) in correlators.iter().enumerate() {
                candidates.push(PairId {
                    upstream: UpstreamId(u as u64),
                    flow: flow.id,
                });
                let first = min_window(correlator, config);
                for k in scheduled_windows(packets.len(), first, config.decode_batch) {
                    windows.entry(k).or_default().push(u);
                }
            }
            let mut done = vec![false; correlators.len()];
            for (k, upstreams) in windows {
                let start = k.saturating_sub(config.window_capacity);
                let window = Flow::from_packets(packets[start..k].iter().copied())?;
                for u in upstreams {
                    if done[u] {
                        continue;
                    }
                    let began = Instant::now();
                    let outcome = correlators[u].correlate(&window);
                    decodes.push(DecodeSample {
                        elapsed: began.elapsed(),
                        cost: outcome.cost,
                        matching_cost: outcome.matching_cost,
                        window: window.len(),
                        incomplete: !outcome.completed || outcome.hamming.is_none(),
                    });
                    if outcome.correlated {
                        done[u] = true;
                        let pair = PairId {
                            upstream: UpstreamId(u as u64),
                            flow: flow.id,
                        };
                        latched.insert(pair, events[flow.id.0 as usize][k - 1]);
                        true_latched += usize::from(true_tuples.get(u) == Some(&flow.tuple));
                    }
                }
            }
        }
        Ok(Reference {
            candidates,
            latched,
            true_latched,
            decodes,
            elapsed: started.elapsed(),
        })
    }

    /// Latched pairs ordered by the event that completes their first
    /// correlating window: the watch list for detection latency.
    pub fn watch_list(&self) -> Vec<(u64, PairId)> {
        let mut watch: Vec<(u64, PairId)> = self
            .latched
            .iter()
            .map(|(&pair, &event)| (event, pair))
            .collect();
        watch.sort_unstable();
        watch
    }
}

#[cfg(test)]
mod tests {
    use super::scheduled_windows;

    #[test]
    fn schedule_matches_the_engine_boundaries() {
        // First decode at max(min_window, batch), then every batch, then
        // the final window.
        assert_eq!(scheduled_windows(100, 40, 32), vec![40, 72, 100]);
        assert_eq!(scheduled_windows(104, 40, 32), vec![40, 72, 104]);
        assert_eq!(scheduled_windows(72, 40, 32), vec![40, 72]);
        assert_eq!(scheduled_windows(10, 4, 32), vec![10]);
        assert!(scheduled_windows(30, 40, 32).is_empty());
    }
}
