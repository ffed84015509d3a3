//! Wire-layer faults: what a hostile or lossy capture path does to
//! bytes and records before the parser ever sees them.
//!
//! Two surfaces, both pure functions of the plan seed:
//!
//! * [`WireFaults::mutate_bytes`] corrupts and truncates the raw
//!   capture *file* (sparing the 24-byte file header, so the fault
//!   models a damaged capture body rather than a wrong file format);
//! * [`WireFaultAdapter`] wraps any fused pcap/pcapng record iterator
//!   and drops, duplicates, and timestamp-skews individual records —
//!   the channel errors of Gong et al.'s substitution/deletion/bursty
//!   insertion model, applied at the capture layer.

use stepstone_flow::TimeDelta;
use stepstone_ingest::{CaptureRecord, IngestError};

use crate::plan::{Profile, TAG_WIRE};
use crate::rng::{mix, SplitMix64};

/// Decision-stream sub-tags so byte mutation and record faults draw
/// from independent streams.
const SUB_BYTES: u64 = 0xB1;
const SUB_TRUNCATE: u64 = 0xB2;

/// Classic-pcap global header length; also covers the magic region of a
/// pcapng section header. Byte faults never touch this prefix.
const FILE_HEADER: usize = 24;

/// Wire-layer fault rates, derived from a plan's seed and profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireFaults {
    seed: u64,
    /// Per-body-byte corruption probability (expected fraction of
    /// capture-body bytes XOR-flipped).
    pub corrupt_rate: f64,
    /// Probability the capture body is truncated at a random point.
    pub truncate: f64,
    /// Per-record drop probability.
    pub drop_record: f64,
    /// Per-record duplication probability.
    pub dup_record: f64,
    /// Maximum absolute timestamp skew applied to a record.
    pub skew_max: TimeDelta,
}

/// The fault decision for one wire record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordDecision {
    /// Delete the record.
    pub drop: bool,
    /// Emit the record twice.
    pub duplicate: bool,
    /// Shift the record's timestamp (either sign; downstream clamping
    /// is the demux's problem, which is the point).
    pub skew: TimeDelta,
}

impl RecordDecision {
    /// Packs the decision into one word for schedule digests.
    pub fn encode(&self) -> u64 {
        let skew_micros = self.skew.as_micros();
        u64::from(self.drop) | (u64::from(self.duplicate) << 1) | ((skew_micros as u64) << 2)
    }
}

impl WireFaults {
    pub(crate) fn from_plan(seed: u64, profile: Profile) -> Self {
        let (corrupt_rate, truncate, drop_record, dup_record, skew_max_millis) = match profile {
            Profile::Mild => (0.0, 0.0, 0.002, 0.002, 1),
            Profile::Harsh => (0.000_05, 0.10, 0.02, 0.02, 50),
            Profile::Adversarial => (0.000_5, 0.25, 0.08, 0.08, 250),
        };
        WireFaults {
            seed,
            corrupt_rate,
            truncate,
            drop_record,
            dup_record,
            skew_max: TimeDelta::from_millis(skew_max_millis),
        }
    }

    /// The fault decision for record number `index` (0-based, in
    /// pre-fault capture order). Index-addressed: independent of every
    /// other record's decision.
    pub fn record_decision(&self, index: u64) -> RecordDecision {
        let mut r = SplitMix64::new(mix(self.seed, TAG_WIRE, index));
        let drop = r.chance(self.drop_record);
        let duplicate = !drop && r.chance(self.dup_record);
        let span = self.skew_max.as_micros();
        let skew_micros = if span == 0 {
            0
        } else {
            r.below(2 * (span as u64) + 1) as i64 - span
        };
        RecordDecision {
            drop,
            duplicate,
            skew: TimeDelta::from_micros(skew_micros),
        }
    }

    /// Corrupts and possibly truncates raw capture bytes in place,
    /// sparing the first `FILE_HEADER` (24) bytes. Deterministic in
    /// `(seed, bytes.len())`; the parser downstream must survive
    /// whatever comes out (that guarantee is property-tested in
    /// `tests/hardening.rs`).
    pub fn mutate_bytes(&self, bytes: &mut Vec<u8>) {
        if bytes.len() <= FILE_HEADER {
            return;
        }
        let mut r = SplitMix64::new(mix(self.seed, TAG_WIRE, SUB_TRUNCATE));
        if r.chance(self.truncate) {
            let body = (bytes.len() - FILE_HEADER) as u64;
            let keep = FILE_HEADER + r.below(body + 1) as usize;
            bytes.truncate(keep);
        }
        if bytes.len() <= FILE_HEADER {
            return;
        }
        let body = (bytes.len() - FILE_HEADER) as u64;
        let corruptions = (body as f64 * self.corrupt_rate).round() as u64;
        for c in 0..corruptions {
            let mut rc = SplitMix64::new(mix(self.seed, TAG_WIRE ^ SUB_BYTES, c));
            let pos = FILE_HEADER + rc.below(body) as usize;
            // A zero XOR would be a no-op fault; force at least one bit.
            let flip = (rc.next_u64() as u8) | 1;
            bytes[pos] ^= flip;
        }
    }

    /// Wraps a record iterator with this layer's drop/duplicate/skew
    /// faults. The adapter is fused and passes the first parse error
    /// through unchanged, then ends.
    pub fn adapt<I>(&self, inner: I) -> WireFaultAdapter<I>
    where
        I: Iterator<Item = Result<CaptureRecord, IngestError>>,
    {
        WireFaultAdapter {
            inner,
            faults: *self,
            index: 0,
            pending_dup: None,
            failed: false,
        }
    }
}

/// A fused record iterator applying [`WireFaults`] record decisions to
/// an underlying pcap/pcapng reader. See [`WireFaults::adapt`].
#[derive(Debug)]
pub struct WireFaultAdapter<I> {
    inner: I,
    faults: WireFaults,
    /// Pre-fault record index driving the decision stream.
    index: u64,
    /// Second copy of a duplicated record, emitted on the next pull.
    pending_dup: Option<CaptureRecord>,
    failed: bool,
}

impl<I> Iterator for WireFaultAdapter<I>
where
    I: Iterator<Item = Result<CaptureRecord, IngestError>>,
{
    type Item = Result<CaptureRecord, IngestError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        if let Some(dup) = self.pending_dup.take() {
            return Some(Ok(dup));
        }
        loop {
            let record = match self.inner.next()? {
                Ok(record) => record,
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            };
            let decision = self.faults.record_decision(self.index);
            self.index += 1;
            if decision.drop {
                continue;
            }
            let mut record = record;
            record.timestamp += decision.skew;
            if decision.duplicate {
                self.pending_dup = Some(record);
            }
            return Some(Ok(record));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepstone_flow::Timestamp;
    use stepstone_ingest::parse_capture;

    fn harsh(seed: u64) -> WireFaults {
        WireFaults::from_plan(seed, Profile::Harsh)
    }

    #[test]
    fn record_decisions_are_deterministic() {
        let a: Vec<RecordDecision> = (0..64).map(|i| harsh(9).record_decision(i)).collect();
        let b: Vec<RecordDecision> = (0..64).map(|i| harsh(9).record_decision(i)).collect();
        assert_eq!(a, b);
        let c: Vec<RecordDecision> = (0..64).map(|i| harsh(10).record_decision(i)).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn skew_respects_the_profile_bound() {
        let faults = harsh(3);
        for i in 0..512 {
            let d = faults.record_decision(i);
            assert!(
                d.skew <= faults.skew_max && -d.skew <= faults.skew_max,
                "{d:?}"
            );
        }
    }

    #[test]
    fn mutate_bytes_is_deterministic_and_spares_the_header() {
        let original: Vec<u8> = (0..2048u32).map(|i| (i % 251) as u8).collect();
        let mut a = original.clone();
        let mut b = original.clone();
        let faults = WireFaults::from_plan(11, Profile::Adversarial);
        faults.mutate_bytes(&mut a);
        faults.mutate_bytes(&mut b);
        assert_eq!(a, b);
        assert_eq!(&a[..FILE_HEADER], &original[..FILE_HEADER]);
    }

    #[test]
    fn mild_profile_leaves_bytes_untouched() {
        let original: Vec<u8> = (0..1024u32).map(|i| (i * 7 % 256) as u8).collect();
        let mut mutated = original.clone();
        WireFaults::from_plan(5, Profile::Mild).mutate_bytes(&mut mutated);
        assert_eq!(mutated, original);
    }

    #[test]
    fn adapter_drops_duplicates_and_skews_deterministically() {
        let record = |micros: i64| CaptureRecord {
            timestamp: Timestamp::from_micros(micros),
            wire_len: 64,
            tuple: None,
        };
        // IngestError is deliberately not Clone, so mint the input
        // stream twice.
        let input = || {
            (0..256)
                .map(|i| Ok::<CaptureRecord, IngestError>(record(i * 1000)))
                .collect::<Vec<_>>()
        };
        let faults = harsh(21);
        let out_a: Vec<_> = faults
            .adapt(input().into_iter())
            .map(|r| r.unwrap().timestamp)
            .collect();
        let out_b: Vec<_> = faults
            .adapt(input().into_iter())
            .map(|r| r.unwrap().timestamp)
            .collect();
        assert_eq!(out_a, out_b);
        // Harsh rates make 256 records virtually certain to see at
        // least one drop, duplicate, or nonzero skew — a count compare
        // is not enough (one drop plus one dup cancels out), so check
        // the sequence itself changed.
        let identity: Vec<_> = (0..256).map(|i| record(i * 1000).timestamp).collect();
        assert_ne!(out_a, identity, "expected at least one wire fault");
    }

    #[test]
    fn adapter_fuses_after_the_first_error() {
        let input: Vec<Result<CaptureRecord, IngestError>> = vec![
            Ok(CaptureRecord {
                timestamp: Timestamp::ZERO,
                wire_len: 64,
                tuple: None,
            }),
            Err(IngestError::BadMagic),
            Ok(CaptureRecord {
                timestamp: Timestamp::ZERO,
                wire_len: 64,
                tuple: None,
            }),
        ];
        // A seed whose first decision is not a drop, so the error is
        // reached on the second pull.
        let faults = WireFaults::from_plan(0, Profile::Mild);
        let mut adapter = faults.adapt(input.into_iter());
        assert!(adapter.next().unwrap().is_ok());
        assert!(adapter.next().unwrap().is_err());
        assert!(adapter.next().is_none());
        assert!(adapter.next().is_none());
    }

    #[test]
    fn mutated_capture_still_parses_or_fails_cleanly() {
        // A tiny classic-pcap capture: global header + no records, then
        // with garbage body bytes appended, mutated. The parser must
        // never panic on the output (broader coverage in
        // tests/hardening.rs).
        let mut bytes = vec![0xD4, 0xC3, 0xB2, 0xA1]; // little-endian µs magic
        bytes.extend_from_slice(&[0x02, 0x00, 0x04, 0x00]); // version 2.4
        bytes.extend_from_slice(&[0u8; 16]); // zone/sigfigs/snaplen/linktype
        bytes.extend_from_slice(&[0xAB; 300]); // garbage "records"
        WireFaults::from_plan(77, Profile::Adversarial).mutate_bytes(&mut bytes);
        if let Ok(capture) = parse_capture(&bytes) {
            for record in capture {
                if record.is_err() {
                    break;
                }
            }
        }
    }
}
