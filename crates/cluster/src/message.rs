//! The typed messages riding the [`wire`](crate::wire) frames.
//!
//! Grammar (all integers little-endian, `vec<T>` = `u32` count then
//! that many `T`s, counts capped by the `MAX_*` constants):
//!
//! ```text
//! Hello      = worker:u32 generation:u32 spec:vec<u8>        (C → W)
//! HelloAck   = worker:u32 generation:u32                     (W → C)
//! Batch      = seq:u64 entries:vec<Entry>                    (C → W)
//! Entry      = flow:u64 ts_micros:i64 size:u32 prov
//! prov       = 0x00 upstream_index:u32 | 0x01 (chaff)
//! BatchAck   = seq:u64 accepted:u32 rejected:u32             (W → C)
//! Ping       = seq:u64                                       (C → W)
//! Pong       = seq:u64 stats:WireStats                       (W → C)
//! Rebalance  = from_worker:u32 flows:vec<u64>                (C → W)
//! Verdicts   = vec<Verdict>                                  (W → C)
//! Shutdown   = (empty)                                       (C → W)
//! Report     = stats:WireStats verdicts:vec<Verdict>         (W → C)
//! Verdict    = 0x00 up:u64 flow:u64 hamming:u32 cost:u64
//!            | 0x01 up:u64 flow:u64 (0x00 | 0x01 hamming:u32) decodes:u32
//!            | 0x02 flow:u64 idle_micros:i64
//!            | 0x03 up:u64 flow:u64 reason:u8
//!              (reason 3 = erasure budget, followed by
//!               erasures:u32 confidence:u8)
//! WireStats  = 9 × u64 (see [`WireStats`] field order)
//! ```
//!
//! Encoding is canonical: `decode(encode(m)) == m` and
//! `encode(decode(bytes)) == bytes` for every valid payload — the
//! property the IPC proptests pin down.

use stepstone_flow::{Packet, Provenance, TimeDelta, Timestamp};
use stepstone_monitor::{DegradeReason, FlowId, MonitorStats, PairId, UpstreamId, Verdict};

use crate::wire::{read_frame, write_frame, Cursor, WireError};
use std::io::{Read, Write};

/// Most packet entries one `Batch` may carry.
pub const MAX_BATCH_ENTRIES: usize = 4096;
/// Most flow ids one `Rebalance` may carry.
pub const MAX_REBALANCE_FLOWS: usize = 1 << 16;
/// Most verdicts one `Verdicts`/`Report` may carry.
pub const MAX_VERDICTS: usize = 1 << 16;
/// Most bytes an opaque worker spec may occupy.
pub const MAX_SPEC_BYTES: usize = 1 << 16;

const TYPE_HELLO: u8 = 1;
const TYPE_HELLO_ACK: u8 = 2;
const TYPE_BATCH: u8 = 3;
const TYPE_BATCH_ACK: u8 = 4;
const TYPE_PING: u8 = 5;
const TYPE_PONG: u8 = 6;
const TYPE_REBALANCE: u8 = 7;
const TYPE_VERDICTS: u8 = 8;
const TYPE_SHUTDOWN: u8 = 9;
const TYPE_REPORT: u8 = 10;

/// One packet observation inside a `Batch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchEntry {
    /// The suspicious flow the packet belongs to.
    pub flow: u64,
    /// Arrival time in microseconds since the stream epoch.
    pub ts_micros: i64,
    /// Packet size in bytes.
    pub size: u32,
    /// Evaluation-only provenance, forwarded so workers score exactly
    /// like a single-process monitor would.
    pub provenance: Provenance,
}

impl BatchEntry {
    /// Packages a routed packet as a wire entry.
    pub fn from_packet(flow: FlowId, packet: Packet) -> Self {
        BatchEntry {
            flow: flow.0,
            ts_micros: packet.timestamp().as_micros(),
            size: packet.size(),
            provenance: packet.provenance(),
        }
    }

    /// Reconstructs the packet on the worker side.
    pub fn to_packet(self) -> (FlowId, Packet) {
        (
            FlowId(self.flow),
            Packet::with_provenance(
                Timestamp::from_micros(self.ts_micros),
                self.size,
                self.provenance,
            ),
        )
    }
}

/// A snapshot of one worker's engine counters, flattened for the wire.
///
/// Field order is the wire order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[allow(missing_docs)] // field names mirror `MonitorStats` exactly
pub struct WireStats {
    pub packets_ingested: u64,
    pub packets_rejected: u64,
    pub flows_active: u64,
    pub flows_evicted: u64,
    pub pairs_active: u64,
    pub pairs_latched: u64,
    pub decodes_run: u64,
    pub decode_panics: u64,
    pub verdicts_emitted: u64,
}

impl WireStats {
    /// Field-wise sum, for aggregating surviving workers at shutdown.
    #[must_use]
    pub fn merged(&self, other: &WireStats) -> WireStats {
        WireStats {
            packets_ingested: self.packets_ingested + other.packets_ingested,
            packets_rejected: self.packets_rejected + other.packets_rejected,
            flows_active: self.flows_active + other.flows_active,
            flows_evicted: self.flows_evicted + other.flows_evicted,
            pairs_active: self.pairs_active + other.pairs_active,
            pairs_latched: self.pairs_latched + other.pairs_latched,
            decodes_run: self.decodes_run + other.decodes_run,
            decode_panics: self.decode_panics + other.decode_panics,
            verdicts_emitted: self.verdicts_emitted + other.verdicts_emitted,
        }
    }

    fn fields(&self) -> [u64; 9] {
        [
            self.packets_ingested,
            self.packets_rejected,
            self.flows_active,
            self.flows_evicted,
            self.pairs_active,
            self.pairs_latched,
            self.decodes_run,
            self.decode_panics,
            self.verdicts_emitted,
        ]
    }

    fn encode(&self, out: &mut Vec<u8>) {
        for field in self.fields() {
            out.extend_from_slice(&field.to_le_bytes());
        }
    }

    fn decode(c: &mut Cursor<'_>) -> Result<WireStats, WireError> {
        Ok(WireStats {
            packets_ingested: c.u64()?,
            packets_rejected: c.u64()?,
            flows_active: c.u64()?,
            flows_evicted: c.u64()?,
            pairs_active: c.u64()?,
            pairs_latched: c.u64()?,
            decodes_run: c.u64()?,
            decode_panics: c.u64()?,
            verdicts_emitted: c.u64()?,
        })
    }
}

impl From<&MonitorStats> for WireStats {
    fn from(s: &MonitorStats) -> Self {
        WireStats {
            packets_ingested: s.packets_ingested,
            packets_rejected: s.packets_rejected,
            flows_active: s.flows_active as u64,
            flows_evicted: s.flows_evicted,
            pairs_active: s.pairs_active as u64,
            pairs_latched: s.pairs_latched,
            decodes_run: s.decodes_run,
            decode_panics: s.decode_panics,
            verdicts_emitted: s.verdicts_emitted,
        }
    }
}

/// A typed IPC message. See the module docs for the byte grammar.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Coordinator → worker handshake carrying the opaque scenario spec
    /// the worker rebuilds its monitor from.
    Hello {
        /// The worker's slot index.
        worker: u32,
        /// Incarnation counter — bumped on every respawn so stale pipe
        /// traffic from a previous life is discarded.
        generation: u32,
        /// Opaque spec bytes, interpreted by the worker's factory.
        spec: Vec<u8>,
    },
    /// Worker → coordinator handshake confirmation.
    HelloAck {
        /// Echo of the slot index.
        worker: u32,
        /// Echo of the generation.
        generation: u32,
    },
    /// A batch of routed packets.
    Batch {
        /// Per-worker monotone sequence number.
        seq: u64,
        /// The packets, in stream order.
        entries: Vec<BatchEntry>,
    },
    /// Acknowledges one `Batch` after its packets hit the engine.
    BatchAck {
        /// The acknowledged sequence number.
        seq: u64,
        /// Packets the engine accepted.
        accepted: u32,
        /// Packets the engine rejected (out-of-order).
        rejected: u32,
    },
    /// Coordinator → worker heartbeat probe.
    Ping {
        /// Probe sequence number, echoed in the `Pong`.
        seq: u64,
    },
    /// Worker → coordinator heartbeat reply with a stats snapshot.
    Pong {
        /// Echo of the probe sequence number.
        seq: u64,
        /// The worker's current engine counters.
        stats: WireStats,
    },
    /// Tells a survivor it inherited flows from a dead worker.
    Rebalance {
        /// The dead worker's slot index.
        from_worker: u32,
        /// The flow ids now owned by the receiver.
        flows: Vec<u64>,
    },
    /// A chunk of the worker's live verdict stream.
    Verdicts(Vec<Verdict>),
    /// Orders the worker to finish its monitor and report.
    Shutdown,
    /// The worker's terminal report: final counters plus any verdicts
    /// not yet streamed.
    Report {
        /// Final engine counters after `Monitor::finish`.
        stats: WireStats,
        /// Verdicts issued by the final flush.
        verdicts: Vec<Verdict>,
    },
}

fn encode_verdict(v: &Verdict, out: &mut Vec<u8>) {
    match *v {
        Verdict::Correlated {
            pair,
            hamming,
            cost,
        } => {
            out.push(0);
            out.extend_from_slice(&pair.upstream.0.to_le_bytes());
            out.extend_from_slice(&pair.flow.0.to_le_bytes());
            out.extend_from_slice(&hamming.to_le_bytes());
            out.extend_from_slice(&cost.to_le_bytes());
        }
        Verdict::Cleared {
            pair,
            hamming,
            decodes,
        } => {
            out.push(1);
            out.extend_from_slice(&pair.upstream.0.to_le_bytes());
            out.extend_from_slice(&pair.flow.0.to_le_bytes());
            match hamming {
                None => out.push(0),
                Some(h) => {
                    out.push(1);
                    out.extend_from_slice(&h.to_le_bytes());
                }
            }
            out.extend_from_slice(&decodes.to_le_bytes());
        }
        Verdict::Evicted { flow, idle } => {
            out.push(2);
            out.extend_from_slice(&flow.0.to_le_bytes());
            out.extend_from_slice(&idle.as_micros().to_le_bytes());
        }
        Verdict::Degraded { pair, reason } => {
            out.push(3);
            out.extend_from_slice(&pair.upstream.0.to_le_bytes());
            out.extend_from_slice(&pair.flow.0.to_le_bytes());
            match reason {
                DegradeReason::WorkerLost => out.push(0),
                DegradeReason::ErasureBudget {
                    erasures,
                    confidence,
                } => {
                    out.push(3);
                    out.extend_from_slice(&erasures.to_le_bytes());
                    out.push(confidence);
                }
            }
        }
    }
}

fn decode_verdict(c: &mut Cursor<'_>) -> Result<Verdict, WireError> {
    let pair = |up: u64, flow: u64| PairId {
        upstream: UpstreamId(up),
        flow: FlowId(flow),
    };
    match c.u8()? {
        0 => Ok(Verdict::Correlated {
            pair: pair(c.u64()?, c.u64()?),
            hamming: c.u32()?,
            cost: c.u64()?,
        }),
        1 => {
            let p = pair(c.u64()?, c.u64()?);
            let hamming = match c.u8()? {
                0 => None,
                1 => Some(c.u32()?),
                _ => return Err(WireError::BadPayload("bad hamming flag")),
            };
            Ok(Verdict::Cleared {
                pair: p,
                hamming,
                decodes: c.u32()?,
            })
        }
        2 => Ok(Verdict::Evicted {
            flow: FlowId(c.u64()?),
            idle: TimeDelta::from_micros(c.i64()?),
        }),
        3 => {
            let p = pair(c.u64()?, c.u64()?);
            let reason = match c.u8()? {
                0 => DegradeReason::WorkerLost,
                3 => DegradeReason::ErasureBudget {
                    erasures: c.u32()?,
                    confidence: c.u8()?,
                },
                _ => return Err(WireError::BadPayload("bad degrade reason")),
            };
            Ok(Verdict::Degraded { pair: p, reason })
        }
        _ => Err(WireError::BadPayload("bad verdict tag")),
    }
}

/// Reads a counted list, validating the count against `max` *before*
/// reserving memory and against the bytes actually present.
fn decode_counted<T>(
    c: &mut Cursor<'_>,
    max: usize,
    min_bytes_each: usize,
    mut item: impl FnMut(&mut Cursor<'_>) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let count = c.u32()? as usize;
    if count > max {
        return Err(WireError::BadPayload("list count exceeds its cap"));
    }
    if count.saturating_mul(min_bytes_each) > c.remaining() {
        return Err(WireError::BadPayload("list count exceeds the payload"));
    }
    let mut items = Vec::with_capacity(count.min(max));
    for _ in 0..count {
        items.push(item(c)?);
    }
    Ok(items)
}

fn encode_count(len: usize, max: usize, out: &mut Vec<u8>) -> Result<(), WireError> {
    if len > max {
        return Err(WireError::BadPayload("list longer than its wire cap"));
    }
    out.extend_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

impl Message {
    /// The message's frame type byte.
    fn msg_type(&self) -> u8 {
        match self {
            Message::Hello { .. } => TYPE_HELLO,
            Message::HelloAck { .. } => TYPE_HELLO_ACK,
            Message::Batch { .. } => TYPE_BATCH,
            Message::BatchAck { .. } => TYPE_BATCH_ACK,
            Message::Ping { .. } => TYPE_PING,
            Message::Pong { .. } => TYPE_PONG,
            Message::Rebalance { .. } => TYPE_REBALANCE,
            Message::Verdicts(_) => TYPE_VERDICTS,
            Message::Shutdown => TYPE_SHUTDOWN,
            Message::Report { .. } => TYPE_REPORT,
        }
    }

    /// Encodes the payload (no frame header).
    fn encode_payload(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::new();
        match self {
            Message::Hello {
                worker,
                generation,
                spec,
            } => {
                out.extend_from_slice(&worker.to_le_bytes());
                out.extend_from_slice(&generation.to_le_bytes());
                encode_count(spec.len(), MAX_SPEC_BYTES, &mut out)?;
                out.extend_from_slice(spec);
            }
            Message::HelloAck { worker, generation } => {
                out.extend_from_slice(&worker.to_le_bytes());
                out.extend_from_slice(&generation.to_le_bytes());
            }
            Message::Batch { seq, entries } => {
                out.extend_from_slice(&seq.to_le_bytes());
                encode_count(entries.len(), MAX_BATCH_ENTRIES, &mut out)?;
                for e in entries {
                    out.extend_from_slice(&e.flow.to_le_bytes());
                    out.extend_from_slice(&e.ts_micros.to_le_bytes());
                    out.extend_from_slice(&e.size.to_le_bytes());
                    match e.provenance {
                        Provenance::Payload(i) => {
                            out.push(0);
                            out.extend_from_slice(&i.to_le_bytes());
                        }
                        Provenance::Chaff => out.push(1),
                    }
                }
            }
            Message::BatchAck {
                seq,
                accepted,
                rejected,
            } => {
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&accepted.to_le_bytes());
                out.extend_from_slice(&rejected.to_le_bytes());
            }
            Message::Ping { seq } => out.extend_from_slice(&seq.to_le_bytes()),
            Message::Pong { seq, stats } => {
                out.extend_from_slice(&seq.to_le_bytes());
                stats.encode(&mut out);
            }
            Message::Rebalance { from_worker, flows } => {
                out.extend_from_slice(&from_worker.to_le_bytes());
                encode_count(flows.len(), MAX_REBALANCE_FLOWS, &mut out)?;
                for f in flows {
                    out.extend_from_slice(&f.to_le_bytes());
                }
            }
            Message::Verdicts(verdicts) => {
                encode_count(verdicts.len(), MAX_VERDICTS, &mut out)?;
                for v in verdicts {
                    encode_verdict(v, &mut out);
                }
            }
            Message::Shutdown => {}
            Message::Report { stats, verdicts } => {
                stats.encode(&mut out);
                encode_count(verdicts.len(), MAX_VERDICTS, &mut out)?;
                for v in verdicts {
                    encode_verdict(v, &mut out);
                }
            }
        }
        Ok(out)
    }

    /// Decodes a payload of the given frame type. Never panics.
    pub fn decode(msg_type: u8, payload: &[u8]) -> Result<Message, WireError> {
        let mut c = Cursor::new(payload);
        let msg = match msg_type {
            TYPE_HELLO => {
                let worker = c.u32()?;
                let generation = c.u32()?;
                let spec = decode_counted(&mut c, MAX_SPEC_BYTES, 1, |c| c.u8())?;
                Message::Hello {
                    worker,
                    generation,
                    spec,
                }
            }
            TYPE_HELLO_ACK => Message::HelloAck {
                worker: c.u32()?,
                generation: c.u32()?,
            },
            TYPE_BATCH => {
                let seq = c.u64()?;
                let entries = decode_counted(&mut c, MAX_BATCH_ENTRIES, 21, |c| {
                    let flow = c.u64()?;
                    let ts_micros = c.i64()?;
                    let size = c.u32()?;
                    let provenance = match c.u8()? {
                        0 => Provenance::Payload(c.u32()?),
                        1 => Provenance::Chaff,
                        _ => return Err(WireError::BadPayload("bad provenance tag")),
                    };
                    Ok(BatchEntry {
                        flow,
                        ts_micros,
                        size,
                        provenance,
                    })
                })?;
                Message::Batch { seq, entries }
            }
            TYPE_BATCH_ACK => Message::BatchAck {
                seq: c.u64()?,
                accepted: c.u32()?,
                rejected: c.u32()?,
            },
            TYPE_PING => Message::Ping { seq: c.u64()? },
            TYPE_PONG => Message::Pong {
                seq: c.u64()?,
                stats: WireStats::decode(&mut c)?,
            },
            TYPE_REBALANCE => {
                let from_worker = c.u32()?;
                let flows = decode_counted(&mut c, MAX_REBALANCE_FLOWS, 8, |c| c.u64())?;
                Message::Rebalance { from_worker, flows }
            }
            TYPE_VERDICTS => {
                Message::Verdicts(decode_counted(&mut c, MAX_VERDICTS, 9, decode_verdict)?)
            }
            TYPE_SHUTDOWN => Message::Shutdown,
            TYPE_REPORT => {
                let stats = WireStats::decode(&mut c)?;
                let verdicts = decode_counted(&mut c, MAX_VERDICTS, 9, decode_verdict)?;
                Message::Report { stats, verdicts }
            }
            other => return Err(WireError::UnknownType(other)),
        };
        c.finish()?;
        Ok(msg)
    }

    /// Encodes the message as one complete frame (header + payload).
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        crate::wire::encode_frame(self.msg_type(), &self.encode_payload()?)
    }

    /// Writes the message as one frame (no flush).
    pub fn write_to<W: Write>(&self, writer: &mut W) -> Result<(), WireError> {
        write_frame(writer, self.msg_type(), &self.encode_payload()?)
    }

    /// Reads and decodes the next message; `Ok(None)` on clean EOF.
    pub fn read_from<R: Read>(reader: &mut R) -> Result<Option<Message>, WireError> {
        match read_frame(reader)? {
            None => Ok(None),
            Some((msg_type, payload)) => Message::decode(msg_type, &payload).map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        let pair = PairId {
            upstream: UpstreamId(3),
            flow: FlowId(17),
        };
        vec![
            Message::Hello {
                worker: 1,
                generation: 2,
                spec: b"upstreams=1\n".to_vec(),
            },
            Message::HelloAck {
                worker: 1,
                generation: 2,
            },
            Message::Batch {
                seq: 42,
                entries: vec![
                    BatchEntry {
                        flow: 7,
                        ts_micros: 1_000_000,
                        size: 64,
                        provenance: Provenance::Payload(5),
                    },
                    BatchEntry {
                        flow: 7,
                        ts_micros: 1_100_000,
                        size: 48,
                        provenance: Provenance::Chaff,
                    },
                ],
            },
            Message::BatchAck {
                seq: 42,
                accepted: 2,
                rejected: 0,
            },
            Message::Ping { seq: 9 },
            Message::Pong {
                seq: 9,
                stats: WireStats {
                    packets_ingested: 100,
                    decodes_run: 9,
                    decode_panics: 1,
                    ..WireStats::default()
                },
            },
            Message::Rebalance {
                from_worker: 2,
                flows: vec![1, 5, 9],
            },
            Message::Verdicts(vec![
                Verdict::Correlated {
                    pair,
                    hamming: 2,
                    cost: 999,
                },
                Verdict::Cleared {
                    pair,
                    hamming: None,
                    decodes: 0,
                },
                Verdict::Cleared {
                    pair,
                    hamming: Some(11),
                    decodes: 4,
                },
                Verdict::Evicted {
                    flow: FlowId(17),
                    idle: TimeDelta::from_secs(30),
                },
                Verdict::Degraded {
                    pair,
                    reason: DegradeReason::WorkerLost,
                },
                Verdict::Degraded {
                    pair,
                    reason: DegradeReason::ErasureBudget {
                        erasures: 77,
                        confidence: 62,
                    },
                },
            ]),
            Message::Shutdown,
            Message::Report {
                stats: WireStats::default(),
                verdicts: vec![Verdict::Degraded {
                    pair,
                    reason: DegradeReason::WorkerLost,
                }],
            },
        ]
    }

    #[test]
    fn every_message_round_trips_byte_identically() {
        for msg in sample_messages() {
            let bytes = msg.encode().unwrap();
            let decoded = Message::read_from(&mut std::io::Cursor::new(&bytes))
                .unwrap()
                .unwrap();
            assert_eq!(decoded, msg);
            assert_eq!(decoded.encode().unwrap(), bytes, "{msg:?}");
        }
    }

    #[test]
    fn batch_entry_round_trips_through_packet() {
        let packet = Packet::with_provenance(Timestamp::from_millis(5), 48, Provenance::Chaff);
        let entry = BatchEntry::from_packet(FlowId(9), packet);
        let (flow, rebuilt) = entry.to_packet();
        assert_eq!(flow, FlowId(9));
        assert_eq!(rebuilt, packet);
    }

    #[test]
    fn oversize_counts_are_rejected_before_allocation() {
        // A Rebalance payload claiming u32::MAX flows but holding none.
        let mut payload = Vec::new();
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = Message::decode(TYPE_REBALANCE, &payload).unwrap_err();
        assert!(matches!(err, WireError::BadPayload(_)), "{err}");
    }

    #[test]
    fn plausible_count_against_short_payload_is_rejected() {
        // Count within the cap, but more items than bytes present.
        let mut payload = Vec::new();
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&1000u32.to_le_bytes());
        payload.extend_from_slice(&[0u8; 16]); // room for 2 flows, not 1000
        let err = Message::decode(TYPE_REBALANCE, &payload).unwrap_err();
        assert!(matches!(err, WireError::BadPayload(_)), "{err}");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = Message::Ping { seq: 1 }.encode_payload().unwrap();
        bytes.push(0xFF);
        let err = Message::decode(TYPE_PING, &bytes).unwrap_err();
        assert!(matches!(err, WireError::BadPayload(_)), "{err}");
    }

    #[test]
    fn retired_degrade_reason_tag_is_rejected() {
        // Tag 2 once encoded load shedding; it stays unassigned.
        let pair = PairId {
            upstream: UpstreamId(1),
            flow: FlowId(2),
        };
        let mut bytes = Message::Verdicts(vec![Verdict::Degraded {
            pair,
            reason: DegradeReason::WorkerLost,
        }])
        .encode_payload()
        .unwrap();
        *bytes.last_mut().unwrap() = 2;
        let err = Message::decode(TYPE_VERDICTS, &bytes).unwrap_err();
        assert!(
            matches!(err, WireError::BadPayload("bad degrade reason")),
            "{err}"
        );
    }

    #[test]
    fn unknown_type_is_rejected() {
        let err = Message::decode(200, &[]).unwrap_err();
        assert!(matches!(err, WireError::UnknownType(200)), "{err}");
    }

    #[test]
    fn wire_stats_mirror_monitor_stats() {
        let stats = MonitorStats {
            packets_ingested: 5,
            decodes_run: 3,
            decode_panics: 1,
            flows_active: 2,
            pairs_active: 4,
            ..MonitorStats::default()
        };
        let wire = WireStats::from(&stats);
        assert_eq!(wire.decodes_run, 3);
        assert_eq!(wire.flows_active, 2);
        let merged = wire.merged(&wire);
        assert_eq!(merged.decode_panics, 2);
        assert_eq!(merged.packets_ingested, 10);
    }
}
