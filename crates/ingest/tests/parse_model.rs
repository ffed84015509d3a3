//! The classic-pcap record reader against a model of the cursor-based
//! reader it replaced.
//!
//! `parse_capture` reads each 16-byte record header in one bounds
//! check and converts its four words in the byte order the global
//! header chose. The model below reads the same layout one field at a
//! time through a cursor whose every read may fail, which is how the
//! reader's errors were first defined. On random captures (both magics
//! in both byte orders, every supported link type, VLAN and QinQ tags,
//! IPv4 options and fragments, IPv6 extension headers, non-TCP/UDP
//! protocols, lying captured lengths) and on every truncation of each,
//! the two must yield the same records and the same final error: its
//! variant, offset, `what` and `Display` text.

use proptest::prelude::*;
use stepstone_flow::Timestamp;
use stepstone_ingest::{
    build_frame, decode_frame, min_frame_len, parse_capture, CaptureRecord, FiveTuple, IngestError,
    LinkType,
};

/// What a reader yields, errors compared by their `Debug` (variant,
/// offset, `what`) and `Display` text.
#[derive(Debug, PartialEq)]
enum Event {
    Record(CaptureRecord),
    Error { debug: String, display: String },
}

fn error(e: &IngestError) -> Event {
    Event::Error {
        debug: format!("{e:?}"),
        display: e.to_string(),
    }
}

/// The reader under test: every record, then the error that ended the
/// stream, if any.
fn read(bytes: &[u8]) -> Vec<Event> {
    match parse_capture(bytes) {
        Ok(capture) => capture
            .map(|item| item.map_or_else(|e| error(&e), Event::Record))
            .collect(),
        Err(e) => vec![error(&e)],
    }
}

/// A forward-only cursor whose every read reports where input ended.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], IngestError> {
        if self.buf.len() - self.pos < n {
            return Err(IngestError::Truncated {
                offset: self.pos,
                what,
            });
        }
        self.pos += n;
        Ok(&self.buf[self.pos - n..self.pos])
    }

    fn u32(&mut self, big: bool, what: &'static str) -> Result<u32, IngestError> {
        let b = self.take(4, what)?;
        let word = [b[0], b[1], b[2], b[3]];
        Ok(if big {
            u32::from_be_bytes(word)
        } else {
            u32::from_le_bytes(word)
        })
    }
}

/// The model reader: global header, then records one field at a time.
fn model(bytes: &[u8]) -> Vec<Event> {
    let mut events = Vec::new();
    if let Err(e) = model_records(bytes, &mut events) {
        events.push(error(&e));
    }
    events
}

fn model_records(bytes: &[u8], events: &mut Vec<Event>) -> Result<(), IngestError> {
    if bytes.len() < 4 {
        return Err(IngestError::BadMagic);
    }
    let mut cur = Cursor { buf: bytes, pos: 0 };
    let (big, nanos) = match cur.u32(false, "pcap magic")? {
        0xA1B2_C3D4 => (false, false),
        0xA1B2_3C4D => (false, true),
        0xD4C3_B2A1 => (true, false),
        0x4D3C_B2A1 => (true, true),
        _ => return Err(IngestError::BadMagic),
    };
    cur.take(2, "pcap version major")?;
    cur.take(2, "pcap version minor")?;
    cur.take(8, "pcap timezone/sigfigs")?;
    cur.u32(big, "pcap snaplen")?;
    let link = LinkType::from_wire(cur.u32(big, "pcap linktype")?)?;
    while cur.pos < bytes.len() {
        let offset = cur.pos;
        let sec = cur.u32(big, "pcap record seconds")?;
        let frac = cur.u32(big, "pcap record sub-seconds")?;
        let incl_len = cur.u32(big, "pcap record captured length")? as usize;
        let orig_len = cur.u32(big, "pcap record original length")?;
        if incl_len > bytes.len() - cur.pos {
            return Err(IngestError::Truncated {
                offset,
                what: "pcap record data",
            });
        }
        let data = cur.take(incl_len, "pcap record data")?;
        let sub_micros = if nanos { frac / 1_000 } else { frac };
        events.push(Event::Record(CaptureRecord {
            timestamp: Timestamp::from_micros(i64::from(sec) * 1_000_000 + i64::from(sub_micros)),
            wire_len: orig_len,
            tuple: decode_frame(link, data),
        }));
    }
    Ok(())
}

/// How a record's frame departs from a plain Ethernet/IP/transport one.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Plain,
    /// One 802.1Q tag.
    Vlan,
    /// An 802.1ad tag over an 802.1Q tag.
    QinQ,
    /// IPv4: `1 + param % 10` option words. IPv6: a hop-by-hop header.
    Options,
    /// IPv4: flags and offset set to `param`. IPv6: a fragment header
    /// with offset `param % 3` (only offset 0 carries ports).
    Fragment,
    /// IPv6: a routing header, then a destination-options header.
    /// IPv4: as `Plain`.
    Routing,
    /// The IP protocol (next header) set to `param`'s low byte.
    Protocol,
    /// One byte of the frame overwritten.
    Corrupt,
}

const SHAPES: [Shape; 10] = [
    Shape::Plain,
    Shape::Plain,
    Shape::Vlan,
    Shape::QinQ,
    Shape::Options,
    Shape::Fragment,
    Shape::Routing,
    Shape::Protocol,
    Shape::Corrupt,
    Shape::Plain,
];

#[derive(Debug, Clone)]
struct RecordSpec {
    shape: usize,
    param: u16,
    v6: bool,
    tcp: bool,
    sec: u32,
    frac: u32,
    /// Added to the frame's length for the header's captured length:
    /// mostly 0, sometimes a few bytes either way, sometimes far past
    /// the end of the capture.
    incl_delta: i64,
    /// The header's original length, when it differs from the
    /// captured one.
    orig_len: Option<u32>,
}

fn record_spec() -> impl Strategy<Value = RecordSpec> {
    (
        (0usize..SHAPES.len(), 0u16..=u16::MAX, proptest::bool::ANY),
        proptest::bool::ANY,
        (0u32..=u32::MAX, 0u32..=u32::MAX),
        0u8..12,
        -6i64..7,
        (proptest::bool::ANY, 0u32..=u32::MAX),
    )
        .prop_map(
            |((shape, param, v6), tcp, (sec, frac), lie, delta, (resized, orig))| RecordSpec {
                shape,
                param,
                v6,
                tcp,
                sec,
                frac,
                incl_delta: match lie {
                    0 => delta,
                    1 => i64::from(u32::MAX - 4),
                    _ => 0,
                },
                orig_len: resized.then_some(orig),
            },
        )
}

/// The tuple a record's frame carries, its ports drawn from `param`.
fn tuple(spec: &RecordSpec) -> FiveTuple {
    let (src_port, dst_port) = (spec.param, spec.param.rotate_left(7));
    let v4 = if spec.tcp {
        FiveTuple::tcp_v4([10, 0, 0, 1], src_port, [10, 0, 0, 2], dst_port)
    } else {
        FiveTuple::udp_v4([10, 0, 0, 1], src_port, [10, 0, 0, 2], dst_port)
    };
    if !spec.v6 {
        return v4;
    }
    FiveTuple {
        src: "2001:db8::1".parse().unwrap(),
        dst: "fe80::2".parse().unwrap(),
        ..v4
    }
}

/// An IPv6 extension header of type `kind`, chaining to `next`.
fn extension(kind: u8, next: u8, param: u16) -> Vec<u8> {
    match kind {
        // Fragment: fixed 8 bytes, offset in the top 13 bits.
        44 => {
            let field = ((param % 3) << 3) | (param & 1);
            let [hi, lo] = field.to_be_bytes();
            vec![next, 0, hi, lo, 0, 0, 0, 1]
        }
        // Hop-by-hop, routing, destination options: 8 + 8·n bytes.
        _ => {
            let units = param % 2;
            let mut header = vec![0u8; 8 + 8 * usize::from(units)];
            header[0] = next;
            header[1] = units as u8;
            header
        }
    }
}

/// Builds a record's Ethernet frame; returns it with the length of its
/// link header (14 plus 4 per VLAN tag).
fn ethernet_frame(spec: &RecordSpec) -> (Vec<u8>, usize) {
    let tuple = tuple(spec);
    let payload = usize::from(spec.param % 23);
    let mut frame = build_frame(&tuple, min_frame_len(&tuple) + payload as u32).unwrap();
    let (mut l2, param) = (14, spec.param);
    match SHAPES[spec.shape] {
        Shape::Plain => {}
        Shape::Vlan => {
            frame.splice(12..12, [0x81, 0x00, 0x00, 0x2A]);
            l2 += 4;
        }
        Shape::QinQ => {
            frame.splice(12..12, [0x88, 0xA8, 0x00, 0x07, 0x81, 0x00, 0x00, 0x2A]);
            l2 += 8;
        }
        Shape::Options if !spec.v6 => {
            let words = 1 + usize::from(param % 10);
            frame.splice(l2 + 20..l2 + 20, vec![1u8; 4 * words]);
            frame[l2] = 0x40 | (5 + words as u8);
        }
        Shape::Fragment if !spec.v6 => {
            frame[l2 + 6..l2 + 8].copy_from_slice(&param.to_be_bytes());
        }
        Shape::Options | Shape::Fragment | Shape::Routing if spec.v6 => {
            let kinds: &[u8] = match SHAPES[spec.shape] {
                Shape::Options => &[0],
                Shape::Fragment => &[44],
                _ => &[43, 60],
            };
            let mut next = frame[l2 + 6];
            let mut chain = Vec::new();
            for &kind in kinds.iter().rev() {
                let mut header = extension(kind, next, param);
                header.extend_from_slice(&chain);
                chain = header;
                next = kind;
            }
            frame[l2 + 6] = next;
            frame.splice(l2 + 40..l2 + 40, chain);
        }
        Shape::Options | Shape::Fragment | Shape::Routing => {}
        Shape::Protocol => {
            let at = l2 + if spec.v6 { 6 } else { 9 };
            frame[at] = param as u8;
        }
        Shape::Corrupt => {
            let at = usize::from(param) % frame.len();
            frame[at] = (param >> 8) as u8;
        }
    }
    (frame, l2)
}

/// A record's frame in the capture's link framing.
fn frame(spec: &RecordSpec, link: LinkType) -> Vec<u8> {
    let (frame, l2) = ethernet_frame(spec);
    let ip = &frame[l2.min(frame.len())..];
    match link {
        LinkType::Ethernet => frame,
        LinkType::RawIp => ip.to_vec(),
        LinkType::Null => [&[2, 0, 0, 0], ip].concat(),
        LinkType::Loop => [&[0, 0, 0, 2], ip].concat(),
    }
}

#[derive(Debug, Clone)]
struct CaptureSpec {
    /// Index into `MAGICS`.
    magic: usize,
    big: bool,
    /// Index into `LINKS`; one past the end is an unsupported type.
    link: usize,
    records: Vec<RecordSpec>,
}

const MAGICS: [u32; 2] = [0xA1B2_C3D4, 0xA1B2_3C4D];
const LINKS: [LinkType; 4] = [
    LinkType::Ethernet,
    LinkType::RawIp,
    LinkType::Null,
    LinkType::Loop,
];

fn capture_spec() -> impl Strategy<Value = CaptureSpec> {
    (
        0usize..MAGICS.len(),
        proptest::bool::ANY,
        0usize..=LINKS.len() * 4,
        proptest::collection::vec(record_spec(), 0..10),
    )
        .prop_map(|(magic, big, link, records)| CaptureSpec {
            magic,
            big,
            // Mostly Ethernet, one capture in 17 unsupported.
            link: if link < LINKS.len() * 2 { 0 } else { link / 4 },
            records,
        })
}

/// Writes the capture: a global header and each record, every field
/// in the capture's byte order.
fn capture(spec: &CaptureSpec) -> Vec<u8> {
    let u32_bytes = |v: u32| {
        if spec.big {
            v.to_be_bytes()
        } else {
            v.to_le_bytes()
        }
    };
    let u16_bytes = |v: u16| {
        if spec.big {
            v.to_be_bytes()
        } else {
            v.to_le_bytes()
        }
    };
    let link = LINKS.get(spec.link).copied();
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&u32_bytes(MAGICS[spec.magic]));
    bytes.extend_from_slice(&u16_bytes(2));
    bytes.extend_from_slice(&u16_bytes(4));
    bytes.extend_from_slice(&[0u8; 8]);
    bytes.extend_from_slice(&u32_bytes(65_535));
    bytes.extend_from_slice(&u32_bytes(link.map_or(147, LinkType::to_wire)));
    for record in &spec.records {
        let data = frame(record, link.unwrap_or(LinkType::Ethernet));
        let incl_len = (data.len() as i64 + record.incl_delta).clamp(0, i64::from(u32::MAX)) as u32;
        bytes.extend_from_slice(&u32_bytes(record.sec));
        bytes.extend_from_slice(&u32_bytes(record.frac));
        bytes.extend_from_slice(&u32_bytes(incl_len));
        bytes.extend_from_slice(&u32_bytes(record.orig_len.unwrap_or(incl_len)));
        bytes.extend_from_slice(&data);
    }
    bytes
}

/// Both readers over the whole capture and over every prefix of it.
fn agree_at_every_cut(bytes: &[u8]) -> Result<(), TestCaseError> {
    for cut in 0..=bytes.len() {
        let (got, want) = (read(&bytes[..cut]), model(&bytes[..cut]));
        prop_assert_eq!(got, want, "cut at {} of {} bytes", cut, bytes.len());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn record_reader_matches_the_field_by_field_model(spec in capture_spec()) {
        agree_at_every_cut(&capture(&spec))?;
    }
}

/// The fixed cases the random ones should not miss: each magic in
/// each byte order, a cut inside every header field, a captured length
/// one past, at and one short of the bytes left, and decodes that do
/// and do not yield a tuple.
#[test]
fn every_magic_and_byte_order_agrees_at_every_cut() {
    let plain = |v6, tcp, incl_delta| RecordSpec {
        shape: 0,
        param: 4_000,
        v6,
        tcp,
        sec: 1_700_000_000,
        frac: 999_999,
        incl_delta,
        orig_len: Some(1_500),
    };
    for magic in 0..MAGICS.len() {
        for big in [false, true] {
            for link in 0..LINKS.len() {
                let mut spec = CaptureSpec {
                    magic,
                    big,
                    link,
                    records: vec![plain(false, true, 0), plain(true, false, 0)],
                };
                let bytes = capture(&spec);
                let records = read(&bytes);
                assert_eq!(records, model(&bytes));
                assert!(
                    records
                        .iter()
                        .all(|e| matches!(e, Event::Record(r) if r.tuple.is_some())),
                    "{records:?}"
                );
                agree_at_every_cut(&bytes).unwrap();
                for delta in [-1, 1] {
                    spec.records.push(plain(false, false, delta));
                    agree_at_every_cut(&capture(&spec)).unwrap();
                    spec.records.pop();
                }
            }
        }
    }
}
