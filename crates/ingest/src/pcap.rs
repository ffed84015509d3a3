//! Classic libpcap format: reader (both endiannesses, microsecond and
//! nanosecond magic) and writer (little-endian, microsecond).
//!
//! Layout: a 24-byte global header (magic, version, timezone, sigfigs,
//! snaplen, linktype) followed by packet records of a 16-byte header
//! (seconds, sub-seconds, captured length, original length) plus the
//! captured bytes.

use std::io::Write;

use stepstone_flow::{Flow, Timestamp};

use crate::capture::CaptureRecord;
use crate::cursor::{Cursor, Endian};
use crate::error::IngestError;
use crate::link::{build_frame, decode_frame, min_frame_len, FiveTuple, LinkType};

/// Microsecond-resolution magic, as written natively.
const MAGIC_MICROS: u32 = 0xA1B2_C3D4;
/// Nanosecond-resolution magic (introduced by libpcap 1.5).
const MAGIC_NANOS: u32 = 0xA1B2_3C4D;
/// `MAGIC_MICROS` as seen when the writer had the opposite byte order.
const MAGIC_MICROS_SWAPPED: u32 = MAGIC_MICROS.swap_bytes();
/// `MAGIC_NANOS` as seen when the writer had the opposite byte order.
const MAGIC_NANOS_SWAPPED: u32 = MAGIC_NANOS.swap_bytes();

/// Sub-second timestamp resolution of a classic pcap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resolution {
    Micros,
    Nanos,
}

/// Pull-parser over a classic pcap byte buffer.
#[derive(Debug)]
pub(crate) struct PcapParser<'a> {
    cur: Cursor<'a>,
    endian: Endian,
    resolution: Resolution,
    link: LinkType,
}

impl<'a> PcapParser<'a> {
    /// Parses the global header.
    pub(crate) fn new(bytes: &'a [u8]) -> Result<Self, IngestError> {
        let mut cur = Cursor::new(bytes);
        let raw_magic = cur.u32(Endian::Little, "pcap magic")?;
        let (endian, resolution) = match raw_magic {
            MAGIC_MICROS => (Endian::Little, Resolution::Micros),
            MAGIC_NANOS => (Endian::Little, Resolution::Nanos),
            MAGIC_MICROS_SWAPPED => (Endian::Big, Resolution::Micros),
            MAGIC_NANOS_SWAPPED => (Endian::Big, Resolution::Nanos),
            _ => return Err(IngestError::BadMagic),
        };
        cur.u16(endian, "pcap version major")?;
        cur.u16(endian, "pcap version minor")?;
        cur.skip(8, "pcap timezone/sigfigs")?;
        cur.u32(endian, "pcap snaplen")?;
        let link = LinkType::from_wire(cur.u32(endian, "pcap linktype")?)?;
        Ok(PcapParser {
            cur,
            endian,
            resolution,
            link,
        })
    }

    /// Parses the next packet record, `None` at a clean end of file.
    #[inline]
    pub(crate) fn next_record(&mut self) -> Option<Result<CaptureRecord, IngestError>> {
        if self.cur.is_empty() {
            return None;
        }
        Some(self.record())
    }

    /// Parses one record: its 16-byte header in one read, then its data.
    #[inline]
    fn record(&mut self) -> Result<CaptureRecord, IngestError> {
        let offset = self.cur.offset();
        let Some(header) = self.cur.array::<RECORD_HEADER_LEN>() else {
            return Err(torn_header(offset, self.cur.remaining()));
        };
        let word = |at: usize| {
            self.endian
                .u32([header[at], header[at + 1], header[at + 2], header[at + 3]])
        };
        let (sec, frac, incl_len, orig_len) = (word(0), word(4), word(8), word(12));
        let Some(data) = self.cur.bytes(incl_len as usize) else {
            return Err(IngestError::Truncated {
                offset,
                what: "pcap record data",
            });
        };
        let sub_micros = match self.resolution {
            Resolution::Micros => i64::from(frac),
            Resolution::Nanos => i64::from(frac) / 1_000,
        };
        let micros = i64::from(sec) * 1_000_000 + sub_micros;
        Ok(CaptureRecord {
            timestamp: Timestamp::from_micros(micros),
            wire_len: orig_len,
            tuple: decode_frame(self.link, data),
        })
    }
}

/// Bytes in a record header: seconds, sub-seconds, captured length and
/// original length, one 32-bit word each.
const RECORD_HEADER_LEN: usize = 16;

/// The error for a record header cut after `left` of its bytes, at
/// `offset`: the truncation of the first field not wholly present,
/// as reading the four words one at a time would report it.
#[cold]
fn torn_header(offset: usize, left: usize) -> IngestError {
    const FIELDS: [&str; 4] = [
        "pcap record seconds",
        "pcap record sub-seconds",
        "pcap record captured length",
        "pcap record original length",
    ];
    let field = (left / 4).min(FIELDS.len() - 1);
    IngestError::Truncated {
        offset: offset + 4 * field,
        what: FIELDS[field],
    }
}

/// Streaming classic-pcap writer: little-endian, microsecond
/// resolution, one synthesised Ethernet/IP frame per packet.
///
/// The writer is how `traffic`-generated synthetic corpora reach the
/// wire format: [`write_packet`](PcapWriter::write_packet) builds a
/// frame of exactly the packet's recorded size around the flow's
/// 5-tuple, so size, order, and microsecond timing all survive a
/// round-trip through [`parse_capture`](crate::parse_capture).
#[derive(Debug)]
pub struct PcapWriter<W: Write> {
    writer: W,
    link: LinkType,
    packets: u64,
}

impl<W: Write> PcapWriter<W> {
    /// Writes the global header.
    ///
    /// # Errors
    ///
    /// [`IngestError::Io`] on write failure.
    pub fn new(mut writer: W, link: LinkType) -> Result<Self, IngestError> {
        let mut header = [0u8; 24];
        header[0..4].copy_from_slice(&MAGIC_MICROS.to_le_bytes());
        header[4..6].copy_from_slice(&2u16.to_le_bytes());
        header[6..8].copy_from_slice(&4u16.to_le_bytes());
        header[16..20].copy_from_slice(&65_535u32.to_le_bytes());
        header[20..24].copy_from_slice(&link.to_wire().to_le_bytes());
        writer.write_all(&header)?;
        Ok(PcapWriter {
            writer,
            link,
            packets: 0,
        })
    }

    /// Packets written so far.
    pub const fn packets(&self) -> u64 {
        self.packets
    }

    /// Writes one packet: a synthesised frame for `tuple`, padded to
    /// exactly `wire_len` bytes, stamped `timestamp`.
    ///
    /// # Errors
    ///
    /// [`IngestError::TimestampOutOfRange`] for timestamps outside
    /// pcap's unsigned 32-bit second range,
    /// [`IngestError::FrameTooSmall`] when `wire_len` cannot hold the
    /// tuple's headers, [`IngestError::Io`] on write failure.
    pub fn write_packet(
        &mut self,
        timestamp: Timestamp,
        tuple: &FiveTuple,
        wire_len: u32,
    ) -> Result<(), IngestError> {
        let micros = timestamp.as_micros();
        let sec = micros.div_euclid(1_000_000);
        let usec = micros.rem_euclid(1_000_000);
        if micros < 0 || sec > i64::from(u32::MAX) {
            return Err(IngestError::TimestampOutOfRange(timestamp));
        }
        let frame = build_frame(tuple, wire_len).ok_or(IngestError::FrameTooSmall {
            requested: wire_len,
            minimum: min_frame_len(tuple),
        })?;
        let mut record = [0u8; 16];
        record[0..4].copy_from_slice(&(sec as u32).to_le_bytes());
        record[4..8].copy_from_slice(&(usec as u32).to_le_bytes());
        record[8..12].copy_from_slice(&(frame.len() as u32).to_le_bytes());
        record[12..16].copy_from_slice(&wire_len.to_le_bytes());
        self.writer.write_all(&record)?;
        self.writer.write_all(&frame)?;
        self.packets += 1;
        Ok(())
    }

    /// The link type declared in the global header.
    pub const fn link(&self) -> LinkType {
        self.link
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// [`IngestError::Io`] on flush failure.
    pub fn finish(mut self) -> Result<W, IngestError> {
        self.writer.flush()?;
        Ok(self.writer)
    }
}

/// Writes several flows as one time-ordered capture, each flow carried
/// on its own 5-tuple. Ties are broken by flow position in `flows`, so
/// the merge is deterministic.
///
/// Returns the number of packets written.
///
/// # Errors
///
/// The per-packet errors of [`PcapWriter::write_packet`].
pub fn write_flows<W: Write>(writer: W, flows: &[(FiveTuple, &Flow)]) -> Result<u64, IngestError> {
    let mut events: Vec<(Timestamp, &FiveTuple, u32)> = Vec::new();
    for (tuple, flow) in flows {
        for p in flow.iter() {
            events.push((p.timestamp(), tuple, p.size()));
        }
    }
    // Stable: per-flow packet order survives equal timestamps.
    events.sort_by_key(|&(ts, _, _)| ts);
    let mut out = PcapWriter::new(writer, LinkType::Ethernet)?;
    for (ts, tuple, size) in events {
        out.write_packet(ts, tuple, size)?;
    }
    let written = out.packets();
    out.finish()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::parse_capture;
    use stepstone_flow::Packet;

    fn tuple() -> FiveTuple {
        FiveTuple::udp_v4([10, 0, 0, 1], 4000, [10, 0, 0, 2], 22)
    }

    /// The micros-precision round-trip on the parsing hot path; also
    /// exercised under miri in CI.
    #[test]
    fn write_read_roundtrip_preserves_time_order_size() {
        let t = tuple();
        let stamps = [0i64, 1, 999_999, 1_000_000, 86_400_000_000];
        let mut bytes = Vec::new();
        let mut w = PcapWriter::new(&mut bytes, LinkType::Ethernet).unwrap();
        for (i, &us) in stamps.iter().enumerate() {
            w.write_packet(Timestamp::from_micros(us), &t, 64 + i as u32)
                .unwrap();
        }
        assert_eq!(w.packets(), 5);
        w.finish().unwrap();

        let records: Vec<CaptureRecord> = parse_capture(&bytes)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(records.len(), 5);
        for (i, (rec, &us)) in records.iter().zip(&stamps).enumerate() {
            assert_eq!(rec.timestamp, Timestamp::from_micros(us));
            assert_eq!(rec.wire_len, 64 + i as u32);
            assert_eq!(rec.tuple, Some(t));
        }
    }

    #[test]
    fn big_endian_and_nanosecond_captures_parse() {
        // Hand-build a big-endian, nanosecond-magic capture with one
        // 64-byte UDP frame at t = 1.5ms.
        let frame = build_frame(&tuple(), 64).unwrap();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC_NANOS.to_be_bytes());
        bytes.extend_from_slice(&2u16.to_be_bytes());
        bytes.extend_from_slice(&4u16.to_be_bytes());
        bytes.extend_from_slice(&[0u8; 8]);
        bytes.extend_from_slice(&65_535u32.to_be_bytes());
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.extend_from_slice(&0u32.to_be_bytes()); // sec
        bytes.extend_from_slice(&1_500_999u32.to_be_bytes()); // nanos
        bytes.extend_from_slice(&(frame.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&(frame.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&frame);

        let records: Vec<CaptureRecord> = parse_capture(&bytes)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(records.len(), 1);
        // Nanoseconds truncate to the workspace's microsecond grid.
        assert_eq!(records[0].timestamp, Timestamp::from_micros(1_500));
        assert_eq!(records[0].tuple, Some(tuple()));
    }

    #[test]
    fn snapped_records_keep_the_original_length() {
        // incl_len < orig_len: the frame was cut by a snaplen.
        let frame = build_frame(&tuple(), 64).unwrap();
        let mut bytes = Vec::new();
        let w = PcapWriter::new(&mut bytes, LinkType::Ethernet).unwrap();
        w.finish().unwrap();
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&48u32.to_le_bytes()); // captured
        bytes.extend_from_slice(&1400u32.to_le_bytes()); // original
        bytes.extend_from_slice(&frame[..48]);
        let records: Vec<CaptureRecord> = parse_capture(&bytes)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(records[0].wire_len, 1400);
        // 48 bytes still cover Ethernet+IPv4+UDP, so the tuple decodes.
        assert_eq!(records[0].tuple, Some(tuple()));
    }

    #[test]
    fn writer_rejects_unrepresentable_packets() {
        let mut w = PcapWriter::new(Vec::new(), LinkType::Ethernet).unwrap();
        assert!(matches!(
            w.write_packet(Timestamp::from_micros(-1), &tuple(), 64),
            Err(IngestError::TimestampOutOfRange(_))
        ));
        assert!(matches!(
            w.write_packet(Timestamp::ZERO, &tuple(), 10),
            Err(IngestError::FrameTooSmall { minimum: 42, .. })
        ));
    }

    #[test]
    fn write_flows_merges_by_time() {
        let a = Flow::from_packets([
            Packet::new(Timestamp::from_millis(0), 64),
            Packet::new(Timestamp::from_millis(20), 64),
        ])
        .unwrap();
        let b = Flow::from_packets([Packet::new(Timestamp::from_millis(10), 48)]).unwrap();
        let ta = FiveTuple::udp_v4([1, 1, 1, 1], 1, [2, 2, 2, 2], 2);
        let tb = FiveTuple::udp_v4([3, 3, 3, 3], 3, [4, 4, 4, 4], 4);
        let mut bytes = Vec::new();
        assert_eq!(write_flows(&mut bytes, &[(ta, &a), (tb, &b)]).unwrap(), 3);
        let records: Vec<CaptureRecord> = parse_capture(&bytes)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        let tuples: Vec<_> = records.iter().map(|r| r.tuple.unwrap()).collect();
        assert_eq!(tuples, vec![ta, tb, ta]);
        let times: Vec<_> = records
            .iter()
            .map(|r| r.timestamp.as_micros() / 1000)
            .collect();
        assert_eq!(times, vec![0, 10, 20]);
    }

    #[test]
    fn truncated_pcaps_error_at_every_cut() {
        let t = tuple();
        let mut bytes = Vec::new();
        let mut w = PcapWriter::new(&mut bytes, LinkType::Ethernet).unwrap();
        for i in 0..3 {
            w.write_packet(Timestamp::from_millis(i), &t, 64).unwrap();
        }
        w.finish().unwrap();
        for cut in 0..bytes.len() {
            let result: Result<Vec<CaptureRecord>, IngestError> = match parse_capture(&bytes[..cut])
            {
                Ok(iter) => iter.collect(),
                Err(e) => Err(e),
            };
            // Cuts on a record boundary (24, 24+80, 24+160) parse clean
            // as shorter captures; everything else must error.
            let record = 16 + 64;
            let clean = cut == 0 || (cut >= 24 && (cut - 24) % record == 0);
            if clean && cut != 0 {
                assert_eq!(result.unwrap().len(), (cut - 24) / record);
            } else {
                assert!(result.is_err(), "cut {cut} should not parse");
            }
        }
    }
}
