//! The routing demux against a model of per-flow assembly.
//!
//! `FlowDemux` routes each record to its flow and appends the packet to
//! one log, assembling flows only in `finish`. The model here assembles
//! the other way: one `FlowBuilder` per open tuple, filled as records
//! arrive, with evicted flows moved to a closed list. For random record
//! streams the two must return the same events, sweep results, live
//! counts, stats, and the same flows from `finish`: ids, tuples, and
//! every packet's timestamp and size.

use std::collections::HashMap;

use proptest::prelude::*;
use stepstone_flow::{FlowBuilder, Packet, TimeDelta, Timestamp};
use stepstone_ingest::{CaptureRecord, DemuxStats, FiveTuple, FlowDemux, Transport};
use stepstone_monitor::FlowId;

/// Per-flow assembly: every open tuple owns a builder.
struct Model {
    open: HashMap<FiveTuple, (FlowId, FlowBuilder)>,
    closed: Vec<(FlowId, FiveTuple, FlowBuilder)>,
    idle_timeout: Option<TimeDelta>,
    next_id: u64,
    stats: DemuxStats,
}

impl Model {
    fn new(idle_timeout: Option<TimeDelta>) -> Self {
        Model {
            open: HashMap::new(),
            closed: Vec::new(),
            idle_timeout,
            next_id: 0,
            stats: DemuxStats::default(),
        }
    }

    fn push(&mut self, record: &CaptureRecord) -> Option<(FlowId, Packet)> {
        let Some(tuple) = record.tuple else {
            self.stats.ignored += 1;
            return None;
        };
        let (id, builder) = self.open.entry(tuple).or_insert_with(|| {
            self.next_id += 1;
            self.stats.flows_opened += 1;
            (FlowId(self.next_id - 1), FlowBuilder::new())
        });
        let ts = match builder.last_timestamp() {
            Some(last) if record.timestamp < last => {
                self.stats.clamped += 1;
                last
            }
            _ => record.timestamp,
        };
        let packet = Packet::new(ts, record.wire_len);
        builder.push(packet).expect("clamped non-decreasing");
        self.stats.packets += 1;
        Some((*id, packet))
    }

    fn sweep_idle(&mut self, now: Timestamp) -> Vec<FlowId> {
        let Some(timeout) = self.idle_timeout else {
            return Vec::new();
        };
        let cutoff = now - timeout;
        let expired: Vec<FiveTuple> = self
            .open
            .iter()
            .filter(|(_, (_, b))| b.last_timestamp().is_some_and(|t| t < cutoff))
            .map(|(tuple, _)| *tuple)
            .collect();
        let mut ids = Vec::new();
        for tuple in expired {
            let (id, builder) = self.open.remove(&tuple).expect("listed above");
            self.stats.flows_evicted += 1;
            ids.push(id);
            self.closed.push((id, tuple, builder));
        }
        ids.sort_by_key(|id| id.0);
        ids
    }

    fn finish(mut self) -> (Vec<Assembled>, DemuxStats) {
        let open = self.open.drain().map(|(tuple, (id, b))| (id, tuple, b));
        let mut flows: Vec<Assembled> = self
            .closed
            .into_iter()
            .chain(open)
            .map(|(id, tuple, b)| (id, tuple, packets(b.finish().iter())))
            .collect();
        flows.sort_by_key(|f| f.0 .0);
        (flows, self.stats)
    }
}

/// A flow as `finish` returns it: id, tuple, `(µs, size)` per packet.
type Assembled = (FlowId, FiveTuple, Vec<(i64, u32)>);

fn packets<'a>(iter: impl Iterator<Item = &'a Packet>) -> Vec<(i64, u32)> {
    iter.map(|p| (p.timestamp().as_micros(), p.size()))
        .collect()
}

/// Six tuples: three IPv4 (TCP and UDP), three IPv6, one of them the
/// v4-mapped twin of the first IPv4 tuple, which must stay distinct.
fn tuple_pool() -> Vec<FiveTuple> {
    let v6 = |src: &str, src_port, dst: &str| FiveTuple {
        src: src.parse().unwrap(),
        dst: dst.parse().unwrap(),
        src_port,
        dst_port: 22,
        transport: Transport::Tcp,
    };
    vec![
        FiveTuple::tcp_v4([10, 0, 0, 1], 1000, [10, 0, 0, 9], 22),
        FiveTuple::udp_v4([10, 0, 0, 2], 2000, [10, 0, 0, 9], 53),
        FiveTuple::udp_v4([10, 0, 0, 2], 2001, [10, 0, 0, 9], 53),
        v6("2001:db8::1", 40_000, "2001:db8::2"),
        v6("fe80::1", 40_000, "2001:db8::2"),
        v6("::ffff:10.0.0.1", 1000, "::ffff:10.0.0.9"),
    ]
}

/// One step of a capture replay.
#[derive(Debug, Clone)]
enum Step {
    /// A record `dt` µs after the previous one (negative: backwards),
    /// on pool tuple `tuple`, or without a tuple when `None`.
    Record {
        tuple: Option<usize>,
        dt: i64,
        size: u32,
    },
    /// An idle sweep `ahead` µs past the latest record.
    Sweep { ahead: i64 },
}

/// Mostly records (one in seven without a tuple), one step in nine a
/// sweep.
fn step() -> impl Strategy<Value = Step> {
    (
        0u8..9,
        0usize..7,
        -3_000i64..10_000,
        0u32..1_500,
        0i64..60_000,
    )
        .prop_map(|(kind, tuple, dt, size, ahead)| match kind {
            0 => Step::Sweep { ahead },
            _ => Step::Record {
                tuple: (tuple < 6).then_some(tuple),
                dt,
                size,
            },
        })
}

/// Replays `steps` through both demuxes, checking every answer on the
/// way, then compares what `finish` returns.
fn agree(steps: &[Step], idle_timeout: Option<TimeDelta>) -> Result<(), TestCaseError> {
    let pool = tuple_pool();
    let mut demux = idle_timeout.map_or_else(FlowDemux::new, FlowDemux::with_idle_timeout);
    let mut model = Model::new(idle_timeout);
    let mut now = 0i64;
    for step in steps {
        match *step {
            Step::Record { tuple, dt, size } => {
                now += dt;
                let record = CaptureRecord {
                    timestamp: Timestamp::from_micros(now),
                    wire_len: size,
                    tuple: tuple.map(|i| pool[i]),
                };
                prop_assert_eq!(demux.push(&record), model.push(&record));
            }
            Step::Sweep { ahead } => {
                let at = Timestamp::from_micros(now + ahead);
                prop_assert_eq!(demux.sweep_idle(at), model.sweep_idle(at));
            }
        }
        prop_assert_eq!(demux.live_flows(), model.open.len());
        prop_assert_eq!(demux.stats(), model.stats);
    }
    let (flows, stats) = demux.finish();
    let flows: Vec<Assembled> = flows
        .iter()
        .map(|f| (f.id, f.tuple, packets(f.flow.iter())))
        .collect();
    let (want, want_stats) = model.finish();
    prop_assert_eq!(stats, want_stats);
    prop_assert_eq!(flows, want);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn routing_demux_matches_per_flow_assembly(
        steps in proptest::collection::vec(step(), 0..300),
        timed in proptest::bool::ANY,
        timeout in 1i64..20_000,
    ) {
        agree(&steps, timed.then(|| TimeDelta::from_micros(timeout)))?;
    }
}

#[test]
fn an_empty_capture_finishes_empty() {
    for timeout in [None, Some(TimeDelta::from_secs(1))] {
        agree(&[], timeout).unwrap();
        agree(&[Step::Sweep { ahead: 5 }], timeout).unwrap();
    }
}

#[test]
fn a_swept_tuple_reopens_under_a_new_id() {
    let steps = [
        Step::Record {
            tuple: Some(3),
            dt: 0,
            size: 60,
        },
        Step::Sweep { ahead: 10_000 },
        Step::Record {
            tuple: Some(3),
            dt: 1,
            size: 61,
        },
        Step::Record {
            tuple: None,
            dt: -5,
            size: 62,
        },
        Step::Record {
            tuple: Some(3),
            dt: -5,
            size: 63,
        },
    ];
    agree(&steps, Some(TimeDelta::from_micros(100))).unwrap();
    let mut demux = FlowDemux::with_idle_timeout(TimeDelta::from_micros(100));
    let record = |micros, size| CaptureRecord {
        timestamp: Timestamp::from_micros(micros),
        wire_len: size,
        tuple: Some(tuple_pool()[3]),
    };
    demux.push(&record(0, 60));
    assert_eq!(
        demux.sweep_idle(Timestamp::from_micros(10_000)),
        [FlowId(0)]
    );
    assert_eq!(demux.push(&record(10_001, 61)).unwrap().0, FlowId(1));
    // Backwards within the new flow: clamped to its own last packet.
    let (_, clamped) = demux.push(&record(9_000, 63)).unwrap();
    assert_eq!(clamped.timestamp(), Timestamp::from_micros(10_001));
    let (flows, stats) = demux.finish();
    assert_eq!(flows.len(), 2);
    assert_eq!(stats.clamped, 1);
}

#[test]
fn a_flow_idle_for_exactly_the_timeout_stays_open() {
    let record = Step::Record {
        tuple: Some(0),
        dt: 0,
        size: 60,
    };
    for ahead in [99, 100, 101] {
        agree(
            &[record.clone(), Step::Sweep { ahead }],
            Some(TimeDelta::from_micros(100)),
        )
        .unwrap();
    }
    let mut demux = FlowDemux::with_idle_timeout(TimeDelta::from_micros(100));
    demux.push(&CaptureRecord {
        timestamp: Timestamp::ZERO,
        wire_len: 60,
        tuple: Some(tuple_pool()[0]),
    });
    assert!(demux.sweep_idle(Timestamp::from_micros(100)).is_empty());
    assert_eq!(demux.sweep_idle(Timestamp::from_micros(101)), [FlowId(0)]);
}
