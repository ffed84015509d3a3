//! Format-sniffing capture reader: one iterator over pcap and pcapng.

use std::io::Read;

use stepstone_flow::Timestamp;

use crate::error::IngestError;
use crate::link::FiveTuple;
use crate::pcap::PcapParser;
use crate::pcapng::PcapNgParser;

/// One captured packet, reduced to what the correlation pipeline needs:
/// when it was seen, how big it was on the wire, and which flow it
/// belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaptureRecord {
    /// Arrival timestamp, truncated to the workspace's microsecond
    /// resolution.
    pub timestamp: Timestamp,
    /// Original wire length in bytes (`orig_len`, not the possibly
    /// snapped capture length).
    pub wire_len: u32,
    /// The packet's transport 5-tuple, or `None` for traffic the frame
    /// decoder does not map to a flow (ARP, ICMP, fragments, …).
    pub tuple: Option<FiveTuple>,
}

/// A lazily-parsed capture: pcap or pcapng, auto-detected.
///
/// Iterating yields [`CaptureRecord`]s in file order; a structural
/// error ends the stream with one final `Err`.
///
/// # Example
///
/// ```
/// use stepstone_ingest::{FiveTuple, LinkType, PcapWriter, parse_capture};
/// use stepstone_flow::Timestamp;
///
/// # fn main() -> Result<(), stepstone_ingest::IngestError> {
/// let tuple = FiveTuple::udp_v4([10, 0, 0, 1], 9, [10, 0, 0, 2], 9);
/// let mut bytes = Vec::new();
/// let mut w = PcapWriter::new(&mut bytes, LinkType::Ethernet)?;
/// w.write_packet(Timestamp::from_millis(5), &tuple, 64)?;
/// w.finish()?;
///
/// let records: Vec<_> = parse_capture(&bytes)?.collect::<Result<_, _>>()?;
/// assert_eq!(records.len(), 1);
/// assert_eq!(records[0].tuple, Some(tuple));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Capture<'a> {
    inner: Inner<'a>,
    /// Set once a structural error has been yielded; the iterator then
    /// fuses instead of re-reporting the same corruption forever.
    failed: bool,
}

#[derive(Debug)]
enum Inner<'a> {
    Pcap(PcapParser<'a>),
    PcapNg(PcapNgParser<'a>),
}

/// The pcapng Section Header Block type, doubling as its file magic.
const PCAPNG_MAGIC: [u8; 4] = [0x0A, 0x0D, 0x0D, 0x0A];

/// Sniffs the format from the first bytes and returns a lazy parser.
///
/// # Errors
///
/// [`IngestError::BadMagic`] when the input starts with neither a pcap
/// magic number nor a pcapng section header; header-level errors
/// ([`IngestError::Truncated`], [`IngestError::UnsupportedLinkType`])
/// surface immediately.
pub fn parse_capture(bytes: &[u8]) -> Result<Capture<'_>, IngestError> {
    if bytes.len() < 4 {
        // Too short to even hold a magic number: not a capture at all.
        return Err(IngestError::BadMagic);
    }
    let inner = if bytes.get(..4) == Some(&PCAPNG_MAGIC) {
        Inner::PcapNg(PcapNgParser::new(bytes)?)
    } else {
        Inner::Pcap(PcapParser::new(bytes)?)
    };
    Ok(Capture {
        inner,
        failed: false,
    })
}

/// Reads a whole capture eagerly.
///
/// # Errors
///
/// Any [`IngestError`] the lazy parser would yield; the records parsed
/// before the error are discarded.
pub fn read_capture<R: Read>(mut reader: R) -> Result<Vec<CaptureRecord>, IngestError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    parse_capture(&bytes)?.collect()
}

impl Iterator for Capture<'_> {
    type Item = Result<CaptureRecord, IngestError>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let item = match &mut self.inner {
            Inner::Pcap(p) => p.next_record(),
            Inner::PcapNg(p) => p.next_record(),
        };
        if matches!(item, Some(Err(_))) {
            self.failed = true;
        }
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn garbage_input_is_rejected_without_panicking() {
        assert!(matches!(
            parse_capture(b"definitely not a capture"),
            Err(IngestError::BadMagic)
        ));
        assert!(matches!(parse_capture(b""), Err(IngestError::BadMagic)));
        assert!(matches!(
            read_capture(&b"xx"[..]),
            Err(IngestError::BadMagic)
        ));
    }

    #[test]
    fn iterator_fuses_after_a_structural_error() {
        // A valid pcap global header followed by a torn record header.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&0xA1B2_C3D4u32.to_le_bytes());
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.extend_from_slice(&4u16.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 12]);
        bytes.extend_from_slice(&1u32.to_le_bytes()); // linktype ethernet
        bytes.extend_from_slice(&[1, 2, 3]); // torn record
        let mut cap = parse_capture(&bytes).unwrap();
        assert!(matches!(
            cap.next(),
            Some(Err(IngestError::Truncated { .. }))
        ));
        assert!(cap.next().is_none());
    }
}
