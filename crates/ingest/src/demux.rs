//! 5-tuple flow demultiplexing: routes [`CaptureRecord`]s to flows
//! keyed by transport 5-tuple, with idle-timeout eviction.
//!
//! The demux serves both consumption styles in the workspace:
//!
//! * **incremental** — [`FlowDemux::push`] routes each record and
//!   returns its `(FlowId, Packet)` event, which callers forward
//!   straight into `stepstone_monitor::Monitor::ingest`;
//! * **batch** — [`FlowDemux::finish`] assembles every flow as a
//!   [`DemuxFlow`], ready for the offline correlators.
//!
//! `push` keeps each open tuple's flow id and last timestamp and
//! appends the packet to one log of 16-byte entries in chunks that
//! never reallocate, cheaper than growing one vector per flow.
//!
//! The tuple map is the one keyed hash on the per-packet path, and it
//! stays keyed (std's `RandomState`): tuples come off the wire, so an
//! attacker chooses them and could aim collisions at an unkeyed
//! hasher. The [`FlowId`]s it hands out are dense and in first-seen
//! order, so everything downstream may index them without a keyed hash.

use std::collections::HashMap;
use std::sync::Arc;

use stepstone_flow::{Flow, FlowBuilder, Packet, TimeDelta, Timestamp};
use stepstone_monitor::FlowId;
use stepstone_telemetry::{Counter, Gauge, Registry};

use crate::capture::CaptureRecord;
use crate::link::FiveTuple;

/// A completed flow together with the identity the demux assigned it.
#[derive(Debug, Clone)]
pub struct DemuxFlow {
    /// Identifier assigned in first-seen order, shared with the events
    /// returned from [`FlowDemux::push`].
    pub id: FlowId,
    /// The transport 5-tuple all of the flow's packets share.
    pub tuple: FiveTuple,
    /// The reassembled packet timing sequence.
    pub flow: Flow,
}

/// Counters describing everything the demux saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DemuxStats {
    /// Records mapped to a flow.
    pub packets: u64,
    /// Records without a usable 5-tuple (ARP, ICMP, fragments, …).
    pub ignored: u64,
    /// Packets whose timestamp ran backwards relative to their flow and
    /// were clamped forward to keep the `Flow` invariant.
    pub clamped: u64,
    /// Flows ever opened.
    pub flows_opened: u64,
    /// Flows closed by the idle-timeout sweep.
    pub flows_evicted: u64,
}

/// Telemetry handles mirroring [`DemuxStats`], interned when the demux
/// is bound to a registry via [`FlowDemux::bind_registry`]. The plain
/// stats stay the source of truth; these handles are incremented in
/// lockstep so a `/metrics` scrape sees the same numbers.
#[derive(Debug)]
struct DemuxMetrics {
    packets: Arc<Counter>,
    ignored: Arc<Counter>,
    clamped: Arc<Counter>,
    flows_opened: Arc<Counter>,
    flows_evicted: Arc<Counter>,
    flows_live: Arc<Gauge>,
}

impl DemuxMetrics {
    fn new(registry: &Registry) -> Self {
        DemuxMetrics {
            packets: registry.counter(
                "ingest_packets_total",
                "Capture records mapped to a transport flow",
            ),
            ignored: registry.counter(
                "ingest_records_ignored_total",
                "Capture records without a usable 5-tuple",
            ),
            clamped: registry.counter(
                "ingest_timestamps_clamped_total",
                "Packets clamped forward after a backwards timestamp",
            ),
            flows_opened: registry.counter("ingest_flows_opened_total", "Flows ever opened"),
            flows_evicted: registry.counter(
                "ingest_flows_evicted_total",
                "Flows closed by the idle-timeout sweep",
            ),
            flows_live: registry.gauge("ingest_flows_live", "Flows currently open in the demux"),
        }
    }
}

/// One routed packet in the log, its flow's index narrowed to 32 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LogEntry {
    timestamp: Timestamp,
    wire_len: u32,
    flow: u32,
}

impl LogEntry {
    /// Packs a packet of flow `flow`; `None` when the flow's index does
    /// not fit in 32 bits.
    fn pack(flow: FlowId, packet: Packet) -> Option<LogEntry> {
        Some(LogEntry {
            timestamp: packet.timestamp(),
            wire_len: packet.size(),
            flow: u32::try_from(flow.0).ok()?,
        })
    }
}

/// Entries per log chunk (1 MiB).
const CHUNK: usize = 65_536;

/// Groups capture records into flows keyed by transport 5-tuple.
///
/// A flow whose id exceeds `u32::MAX` does not fit a log entry: its
/// packets are routed and counted but not logged, and `finish` returns
/// it empty (2³² tuples would exhaust memory long before).
#[derive(Debug, Default)]
pub struct FlowDemux {
    /// Open flows: id and last (clamped) timestamp.
    open: HashMap<FiveTuple, (FlowId, Timestamp)>,
    /// Every flow's tuple, indexed by id.
    tuples: Vec<FiveTuple>,
    /// Every routed packet in arrival order: `log`'s chunks, then `tail`.
    log: Vec<Vec<LogEntry>>,
    tail: Vec<LogEntry>,
    idle_timeout: Option<TimeDelta>,
    stats: DemuxStats,
    metrics: Option<DemuxMetrics>,
}

impl FlowDemux {
    /// A demux that keeps every flow open until [`FlowDemux::finish`].
    #[must_use]
    pub fn new() -> Self {
        FlowDemux::default()
    }

    /// Publishes this demux's counters (`ingest_*` families) into
    /// `registry`, catching the handles up with anything already
    /// counted. Typically called with `Monitor::registry()` so demux
    /// and engine series share one exposition endpoint.
    pub fn bind_registry(&mut self, registry: &Registry) {
        let metrics = DemuxMetrics::new(registry);
        // Catch up: the handles may be freshly interned while this
        // demux already saw traffic.
        metrics.packets.add(self.stats.packets);
        metrics.ignored.add(self.stats.ignored);
        metrics.clamped.add(self.stats.clamped);
        metrics.flows_opened.add(self.stats.flows_opened);
        metrics.flows_evicted.add(self.stats.flows_evicted);
        metrics.flows_live.add(self.open.len() as i64);
        self.metrics = Some(metrics);
    }

    /// A demux that closes flows idle for longer than `timeout` during
    /// [`FlowDemux::sweep_idle`].
    #[must_use]
    pub fn with_idle_timeout(timeout: TimeDelta) -> Self {
        FlowDemux {
            idle_timeout: Some(timeout),
            ..FlowDemux::default()
        }
    }

    /// Routes one capture record to its flow.
    ///
    /// Returns the `(flow, packet)` ingest event when the record maps
    /// to a transport flow, `None` when the record carries no 5-tuple.
    /// Timestamps that run backwards within a flow are clamped to the
    /// flow's last timestamp (and counted) so the non-decreasing `Flow`
    /// invariant always holds.
    pub fn push(&mut self, record: &CaptureRecord) -> Option<(FlowId, Packet)> {
        let Some(tuple) = record.tuple else {
            self.stats.ignored += 1;
            if let Some(m) = &self.metrics {
                m.ignored.inc();
            }
            return None;
        };
        let (stats, metrics, tuples) = (&mut self.stats, &self.metrics, &mut self.tuples);
        let (id, last) = self.open.entry(tuple).or_insert_with(|| {
            stats.flows_opened += 1;
            if let Some(m) = metrics {
                m.flows_opened.inc();
                m.flows_live.inc();
            }
            tuples.push(tuple);
            (FlowId(tuples.len() as u64 - 1), record.timestamp)
        });
        if record.timestamp < *last {
            stats.clamped += 1;
            if let Some(m) = metrics {
                m.clamped.inc();
            }
        }
        *last = record.timestamp.max(*last);
        let packet = Packet::new(*last, record.wire_len);
        if let Some(entry) = LogEntry::pack(*id, packet) {
            // File a full tail (and the first packet's empty one).
            if self.tail.len() == self.tail.capacity() {
                self.log
                    .push(std::mem::replace(&mut self.tail, Vec::with_capacity(CHUNK)));
            }
            self.tail.push(entry);
        }
        stats.packets += 1;
        if let Some(m) = metrics {
            m.packets.inc();
        }
        Some((*id, packet))
    }

    /// Closes flows whose last packet is older than `now - timeout` and
    /// returns their ids, ascending; a closed tuple's next packet opens
    /// a new flow. No-op for a demux built without a timeout.
    pub fn sweep_idle(&mut self, now: Timestamp) -> Vec<FlowId> {
        let Some(timeout) = self.idle_timeout else {
            return Vec::new();
        };
        let cutoff = now - timeout;
        let expired = self.open.extract_if(|_, &mut (_, last)| last < cutoff);
        let mut closed: Vec<FlowId> = expired.map(|(_, (id, _))| id).collect();
        self.stats.flows_evicted += closed.len() as u64;
        if let Some(m) = &self.metrics {
            m.flows_evicted.add(closed.len() as u64);
            m.flows_live.add(-(closed.len() as i64));
        }
        // Deterministic order regardless of hash-map iteration.
        closed.sort_unstable_by_key(|id| id.0);
        closed
    }

    /// Number of flows currently open in the demux.
    #[must_use]
    pub fn live_flows(&self) -> usize {
        self.open.len()
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> DemuxStats {
        self.stats
    }

    /// Closes every remaining flow and returns every flow — evicted
    /// ones included — assembled from the log, sorted by [`FlowId`].
    #[must_use]
    pub fn finish(self) -> (Vec<DemuxFlow>, DemuxStats) {
        if let Some(m) = &self.metrics {
            // The registry outlives this demux; settle the live gauge
            // so a later scrape doesn't report phantom flows.
            m.flows_live.add(-(self.open.len() as i64));
        }
        let mut log = self.log;
        log.push(self.tail);
        let mut counts = vec![0usize; self.tuples.len()];
        for entry in log.iter().flatten() {
            counts[entry.flow as usize] += 1;
        }
        let mut builders: Vec<FlowBuilder> =
            counts.into_iter().map(FlowBuilder::with_capacity).collect();
        for chunk in log {
            for entry in chunk {
                // Infallible: push clamped each flow non-decreasing.
                let packet = Packet::new(entry.timestamp, entry.wire_len);
                let _ = builders[entry.flow as usize].push(packet);
            }
        }
        let flows = builders
            .into_iter()
            .zip(self.tuples)
            .enumerate()
            .map(|(id, (builder, tuple))| DemuxFlow {
                id: FlowId(id as u64),
                tuple,
                flow: builder.finish(),
            })
            .collect();
        (flows, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Transport;

    fn record(tuple: FiveTuple, millis: i64, size: u32) -> CaptureRecord {
        CaptureRecord {
            timestamp: Timestamp::from_millis(millis),
            wire_len: size,
            tuple: Some(tuple),
        }
    }

    fn tuples() -> (FiveTuple, FiveTuple) {
        (
            FiveTuple::tcp_v4([10, 0, 0, 1], 1000, [10, 0, 0, 9], 22),
            FiveTuple::udp_v4([10, 0, 0, 2], 2000, [10, 0, 0, 9], 53),
        )
    }

    #[test]
    fn assigns_flow_ids_in_first_seen_order() {
        let (a, b) = tuples();
        let mut demux = FlowDemux::new();
        let (id_a, pkt) = demux.push(&record(a, 1, 64)).unwrap();
        assert_eq!(id_a, FlowId(0));
        assert_eq!(pkt.size(), 64);
        let (id_b, _) = demux.push(&record(b, 2, 48)).unwrap();
        assert_eq!(id_b, FlowId(1));
        let (again, _) = demux.push(&record(a, 3, 64)).unwrap();
        assert_eq!(again, FlowId(0));

        let (flows, stats) = demux.finish();
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[0].id, FlowId(0));
        assert_eq!(flows[0].tuple, a);
        assert_eq!(flows[0].flow.len(), 2);
        assert_eq!(flows[1].flow.len(), 1);
        assert_eq!(stats.packets, 3);
        assert_eq!(stats.flows_opened, 2);
    }

    #[test]
    fn tupleless_records_are_counted_not_flowed() {
        let mut demux = FlowDemux::new();
        let none = CaptureRecord {
            timestamp: Timestamp::from_millis(1),
            wire_len: 60,
            tuple: None,
        };
        assert!(demux.push(&none).is_none());
        let (flows, stats) = demux.finish();
        assert!(flows.is_empty());
        assert_eq!(stats.ignored, 1);
        assert_eq!(stats.packets, 0);
    }

    #[test]
    fn backwards_timestamps_are_clamped() {
        let (a, _) = tuples();
        let mut demux = FlowDemux::new();
        demux.push(&record(a, 10, 64)).unwrap();
        let (_, pkt) = demux.push(&record(a, 5, 64)).unwrap();
        assert_eq!(pkt.timestamp(), Timestamp::from_millis(10));
        let (flows, stats) = demux.finish();
        assert_eq!(stats.clamped, 1);
        assert_eq!(flows[0].flow.len(), 2);
    }

    #[test]
    fn idle_sweep_evicts_only_stale_flows() {
        let (a, b) = tuples();
        let mut demux = FlowDemux::with_idle_timeout(TimeDelta::from_secs(30));
        demux.push(&record(a, 0, 64)).unwrap();
        demux.push(&record(b, 25_000, 64)).unwrap();

        // At t=40s only flow a (idle 40s) is past the 30s timeout.
        let closed = demux.sweep_idle(Timestamp::from_secs(40));
        assert_eq!(closed, vec![FlowId(0)]);
        assert_eq!(demux.live_flows(), 1);

        // A new packet on the same tuple opens a new flow id.
        let (reopened, _) = demux.push(&record(a, 50_000, 64)).unwrap();
        assert_eq!(reopened, FlowId(2));

        // The evicted flow comes back from finish with the live ones.
        let (flows, stats) = demux.finish();
        let got: Vec<(FlowId, FiveTuple, usize)> = flows
            .iter()
            .map(|f| (f.id, f.tuple, f.flow.len()))
            .collect();
        assert_eq!(
            got,
            vec![(FlowId(0), a, 1), (FlowId(1), b, 1), (FlowId(2), a, 1)]
        );
        assert_eq!(stats.flows_opened, 3);
        assert_eq!(stats.flows_evicted, 1);
    }

    #[test]
    fn bound_registry_mirrors_stats_and_settles_on_finish() {
        let (a, b) = tuples();
        let registry = Registry::new();
        let mut demux = FlowDemux::with_idle_timeout(TimeDelta::from_secs(30));
        // Traffic before binding is caught up at bind time.
        demux.push(&record(a, 0, 64)).unwrap();
        demux.bind_registry(&registry);
        demux.push(&record(b, 1, 64)).unwrap();
        demux.push(&record(b, 2, 64)).unwrap();
        // One clamp, one ignored record.
        demux.push(&record(b, 1, 64)).unwrap();
        demux
            .push(&CaptureRecord {
                timestamp: Timestamp::from_millis(3),
                wire_len: 60,
                tuple: None,
            })
            .is_none()
            .then_some(())
            .unwrap();
        demux.sweep_idle(Timestamp::from_secs(40));

        let stats = demux.stats();
        let rendered = registry.render_prometheus();
        let series = |name: &str| -> u64 {
            rendered
                .lines()
                .find(|l| l.starts_with(name) && !l.starts_with('#'))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse::<f64>().ok())
                .map(|v| v as u64)
                .unwrap_or(u64::MAX)
        };
        assert_eq!(series("ingest_packets_total"), stats.packets);
        assert_eq!(series("ingest_records_ignored_total"), stats.ignored);
        assert_eq!(series("ingest_timestamps_clamped_total"), stats.clamped);
        assert_eq!(series("ingest_flows_opened_total"), stats.flows_opened);
        assert_eq!(series("ingest_flows_evicted_total"), stats.flows_evicted);
        assert_eq!(series("ingest_flows_live"), demux.live_flows() as u64);

        let _ = demux.finish();
        let rendered = registry.render_prometheus();
        assert!(
            rendered.contains("ingest_flows_live 0"),
            "live gauge must settle to zero after finish: {rendered}"
        );
    }

    #[test]
    fn a_v4_tuple_and_its_v4_mapped_twin_are_two_flows() {
        let (v4, _) = tuples();
        let mapped = |ip: std::net::IpAddr| match ip {
            std::net::IpAddr::V4(v4) => std::net::IpAddr::V6(v4.to_ipv6_mapped()),
            v6 => v6,
        };
        let twin = FiveTuple {
            src: mapped(v4.src),
            dst: mapped(v4.dst),
            ..v4
        };
        let mut demux = FlowDemux::new();
        let (first, _) = demux.push(&record(v4, 1, 64)).unwrap();
        let (second, _) = demux.push(&record(twin, 2, 64)).unwrap();
        assert_ne!(first, second);
        let (flows, _) = demux.finish();
        assert_eq!(flows.len(), 2);
        assert_eq!((flows[0].tuple, flows[1].tuple), (v4, twin));
    }

    #[test]
    fn v6_tuples_roundtrip_through_push_and_finish() {
        let v6 = |src: &str, src_port, dst: &str, dst_port| FiveTuple {
            src: src.parse().unwrap(),
            dst: dst.parse().unwrap(),
            src_port,
            dst_port,
            transport: Transport::Tcp,
        };
        let a = v6("2001:db8::1", 40_000, "2001:db8::2", 22);
        let b = v6("2001:db8::1", 40_001, "2001:db8::2", 22);
        let c = v6("fe80::1", 40_000, "2001:db8::2", 22);
        let mut demux = FlowDemux::new();
        for (k, tuple) in [a, b, c, a, c, a].into_iter().enumerate() {
            demux.push(&record(tuple, k as i64, 60 + k as u32)).unwrap();
        }
        let (flows, stats) = demux.finish();
        let got: Vec<(FlowId, FiveTuple, Vec<u32>)> = flows
            .iter()
            .map(|f| (f.id, f.tuple, f.flow.iter().map(Packet::size).collect()))
            .collect();
        assert_eq!(
            got,
            vec![
                (FlowId(0), a, vec![60, 63, 65]),
                (FlowId(1), b, vec![61]),
                (FlowId(2), c, vec![62, 64]),
            ]
        );
        assert_eq!(stats.flows_opened, 3);
    }

    #[test]
    fn sweep_without_timeout_is_a_noop() {
        let (a, _) = tuples();
        let mut demux = FlowDemux::new();
        demux.push(&record(a, 0, 64)).unwrap();
        assert!(demux.sweep_idle(Timestamp::from_secs(3600)).is_empty());
        assert_eq!(demux.live_flows(), 1);
    }

    #[test]
    fn log_entries_pack_16_bytes_up_to_u32_max_flows() {
        assert_eq!(std::mem::size_of::<LogEntry>(), 16);
        let packet = Packet::new(Timestamp::from_micros(i64::MAX), u32::MAX);
        let last = FlowId(u64::from(u32::MAX));
        let entry = LogEntry::pack(last, packet).unwrap();
        let unpack = |e: LogEntry| (Packet::new(e.timestamp, e.wire_len), e.flow);
        assert_eq!(unpack(entry), (packet, u32::MAX));
        let min = Packet::new(Timestamp::from_micros(i64::MIN), 0);
        assert_eq!(unpack(LogEntry::pack(FlowId(0), min).unwrap()), (min, 0));
        // One past the 32-bit index does not pack, and does not panic.
        assert_eq!(LogEntry::pack(FlowId(last.0 + 1), packet), None);
        assert_eq!(LogEntry::pack(FlowId(u64::MAX), packet), None);
    }

    #[test]
    fn the_log_spans_chunks_and_assembles_in_order() {
        let (a, b) = tuples();
        let mut demux = FlowDemux::new();
        let n = 2 * CHUNK + 7;
        for k in 0..n {
            let tuple = if k % 3 == 0 { b } else { a };
            demux.push(&record(tuple, k as i64, 40 + k as u32)).unwrap();
        }
        // The first packet filed the empty tail it found.
        assert_eq!(demux.log.len(), 3);
        assert_eq!(demux.log[0].capacity(), 0);
        assert!(demux.log[1..]
            .iter()
            .all(|c| c.len() == CHUNK && c.capacity() == CHUNK));
        assert_eq!((demux.tail.len(), demux.tail.capacity()), (7, CHUNK));
        let (flows, _) = demux.finish();
        let sizes = |f: &DemuxFlow| f.flow.iter().map(Packet::size).collect::<Vec<_>>();
        let want = |keep: fn(usize) -> bool| {
            (0..n)
                .filter(|&k| keep(k))
                .map(|k| 40 + k as u32)
                .collect::<Vec<_>>()
        };
        assert_eq!(sizes(&flows[0]), want(|k| k % 3 == 0));
        assert_eq!(sizes(&flows[1]), want(|k| k % 3 != 0));
    }
}
