//! The serve snapshot codec: [`SessionTable`] ⇄ versioned, checksummed
//! bytes.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic  "SSNP"            4 bytes
//! version u16              currently 2 (v2 added erasures to outcome)
//! checksum u32             FNV-1a/64 of the payload, low 32 bits
//! payload_len u32
//! payload:
//!   next_id u64, threshold (u8 flag + u32), reloads u64
//!   session_count u32 (≤ MAX_SESSIONS)
//!   per session:
//!     id u64, status u8, threshold (u8 flag + u32)
//!     spec: len u32 (≤ MAX_SPEC_BYTES) + canonical DSL text
//!     pcap: u8 flag + len u32 (≤ MAX_PCAP_BYTES) + bytes
//!     error: u8 flag + len u32 (≤ MAX_ERROR_BYTES) + utf-8 bytes
//!     outcome: u8 flag + events u64 + tp/fp/missed/degraded u32×4
//!              + erasures u64
//!              + verdict_count u32 (≤ MAX_VERDICTS)
//!              + per verdict: upstream u64, flow u64, kind u8
//! ```
//!
//! Decode is hardened: every read is bounds-checked, every count
//! capped, every enum tag validated, and any violation is a typed
//! [`SnapshotError`] — never a panic — so a torn or corrupted file on
//! disk degrades to a typed refusal the CLI maps to its bad-snapshot
//! exit code. The stored spec text is re-parsed through the full DSL
//! validator, so a snapshot cannot smuggle in a scenario
//! the API would have rejected.
//!
//! One deliberate asymmetry: a [`SessionStatus::Running`] session
//! decodes as `Queued`. The run it was mid-way through died with the
//! process; its spec re-runs deterministically (see
//! [`crate::scenario_run`]), which is the whole recovery story.

use std::fmt;

use stepstone_monitor::TerminalKind;
use stepstone_scenario::{fnv1a, ScenarioError, ScenarioSpec, MAX_SPEC_BYTES};

use crate::scenario_run::VerdictLine;
use crate::serve::session::{Session, SessionStatus, SessionTable, StoredOutcome, MAX_SESSIONS};

/// File magic.
pub const MAGIC: [u8; 4] = *b"SSNP";
/// Current format version. Version 2 added the outcome's `erasures`
/// counter; v1 snapshots are refused (re-run their sessions instead —
/// specs re-run deterministically, which is the whole recovery story).
pub const VERSION: u16 = 2;
/// Largest capture a session snapshot stores (matches the HTTP body
/// cap, so anything accepted over the wire fits).
pub const MAX_PCAP_BYTES: usize = 8 * 1024 * 1024;
/// Longest stored error message.
pub const MAX_ERROR_BYTES: usize = 1024;
/// Most verdict lines per session (64 upstreams × 1024 flows is far
/// beyond any valid spec's candidate-pair count).
pub const MAX_VERDICTS: usize = 65_536;
/// Largest snapshot payload the decoder will touch.
pub const MAX_PAYLOAD_BYTES: usize = 64 * 1024 * 1024;

/// Why snapshot bytes were rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The bytes end before the structure does.
    Truncated,
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// A version this build does not read.
    BadVersion(u16),
    /// The checksum does not match the payload.
    BadChecksum,
    /// The declared payload length disagrees with the bytes present.
    BadLength,
    /// A count field exceeds its cap.
    CapExceeded(&'static str),
    /// An enum tag with no meaning.
    BadTag(&'static str),
    /// A stored string is not UTF-8.
    BadUtf8,
    /// A stored spec no longer parses or validates.
    BadSpec(ScenarioError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a serve snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::BadChecksum => write!(f, "snapshot checksum mismatch"),
            SnapshotError::BadLength => write!(f, "snapshot length field disagrees with file"),
            SnapshotError::CapExceeded(what) => write!(f, "snapshot {what} exceeds its cap"),
            SnapshotError::BadTag(what) => write!(f, "snapshot has an unknown {what} tag"),
            SnapshotError::BadUtf8 => write!(f, "snapshot string is not UTF-8"),
            SnapshotError::BadSpec(e) => write!(f, "snapshot scenario no longer valid: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Encodes the table as snapshot bytes.
pub fn encode(table: &SessionTable) -> Vec<u8> {
    let mut payload = Vec::new();
    put_u64(&mut payload, table.next_id);
    put_opt_u32(&mut payload, table.threshold);
    put_u64(&mut payload, table.reloads);
    put_u32(&mut payload, table.sessions.len() as u32);
    for session in &table.sessions {
        put_u64(&mut payload, session.id);
        payload.push(session.status.to_u8());
        put_opt_u32(&mut payload, session.threshold);
        put_bytes(&mut payload, session.spec.canonical().as_bytes());
        match &session.pcap {
            Some(bytes) => {
                payload.push(1);
                put_bytes(&mut payload, bytes);
            }
            None => payload.push(0),
        }
        match &session.error {
            Some(msg) => {
                payload.push(1);
                // Truncation beats refusal for a diagnostic string.
                let msg = truncate_utf8(msg, MAX_ERROR_BYTES);
                put_bytes(&mut payload, msg.as_bytes());
            }
            None => payload.push(0),
        }
        match &session.outcome {
            Some(outcome) => {
                payload.push(1);
                put_u64(&mut payload, outcome.events);
                put_u32(&mut payload, outcome.true_positives);
                put_u32(&mut payload, outcome.false_positives);
                put_u32(&mut payload, outcome.missed);
                put_u32(&mut payload, outcome.degraded);
                put_u64(&mut payload, outcome.erasures);
                put_u32(&mut payload, outcome.verdicts.len() as u32);
                for v in &outcome.verdicts {
                    put_u64(&mut payload, v.upstream);
                    put_u64(&mut payload, v.flow);
                    payload.push(v.kind.to_u8());
                }
            }
            None => payload.push(0),
        }
    }
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&((fnv1a(&payload) & 0xFFFF_FFFF) as u32).to_le_bytes());
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(&payload);
    out
}

/// Decodes snapshot bytes back into a table. `Running` sessions come
/// back `Queued` (their run died with the process that wrote this).
pub fn decode(bytes: &[u8]) -> Result<SessionTable, SnapshotError> {
    let mut r = Reader { bytes, at: 0 };
    if r.take(4)? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let checksum = r.u32()?;
    let payload_len = r.u32()? as usize;
    if payload_len > MAX_PAYLOAD_BYTES {
        return Err(SnapshotError::CapExceeded("payload"));
    }
    let payload = r.take(payload_len)?;
    if r.at != bytes.len() {
        return Err(SnapshotError::BadLength);
    }
    if (fnv1a(payload) & 0xFFFF_FFFF) as u32 != checksum {
        return Err(SnapshotError::BadChecksum);
    }

    let mut r = Reader {
        bytes: payload,
        at: 0,
    };
    let next_id = r.u64()?;
    let threshold = r.opt_u32()?;
    let reloads = r.u64()?;
    let count = r.u32()? as usize;
    if count > MAX_SESSIONS {
        return Err(SnapshotError::CapExceeded("session count"));
    }
    let mut sessions = Vec::new();
    for _ in 0..count {
        let id = r.u64()?;
        let status = SessionStatus::from_u8(r.u8()?).ok_or(SnapshotError::BadTag("status"))?;
        let threshold = r.opt_u32()?;
        let spec_len = r.u32()? as usize;
        if spec_len > MAX_SPEC_BYTES {
            return Err(SnapshotError::CapExceeded("spec text"));
        }
        let spec_text =
            std::str::from_utf8(r.take(spec_len)?).map_err(|_| SnapshotError::BadUtf8)?;
        let spec = ScenarioSpec::parse(spec_text).map_err(SnapshotError::BadSpec)?;
        let pcap = if r.u8()? != 0 {
            let len = r.u32()? as usize;
            if len > MAX_PCAP_BYTES {
                return Err(SnapshotError::CapExceeded("capture"));
            }
            Some(r.take(len)?.to_vec())
        } else {
            None
        };
        let error = if r.u8()? != 0 {
            let len = r.u32()? as usize;
            if len > MAX_ERROR_BYTES {
                return Err(SnapshotError::CapExceeded("error message"));
            }
            Some(
                std::str::from_utf8(r.take(len)?)
                    .map_err(|_| SnapshotError::BadUtf8)?
                    .to_string(),
            )
        } else {
            None
        };
        let outcome = if r.u8()? != 0 {
            let events = r.u64()?;
            let true_positives = r.u32()?;
            let false_positives = r.u32()?;
            let missed = r.u32()?;
            let degraded = r.u32()?;
            let erasures = r.u64()?;
            let verdict_count = r.u32()? as usize;
            if verdict_count > MAX_VERDICTS {
                return Err(SnapshotError::CapExceeded("verdict count"));
            }
            let mut verdicts = Vec::new();
            for _ in 0..verdict_count {
                let upstream = r.u64()?;
                let flow = r.u64()?;
                let kind =
                    TerminalKind::from_u8(r.u8()?).ok_or(SnapshotError::BadTag("verdict kind"))?;
                verdicts.push(VerdictLine {
                    upstream,
                    flow,
                    kind,
                });
            }
            Some(StoredOutcome {
                events,
                true_positives,
                false_positives,
                missed,
                degraded,
                erasures,
                verdicts,
            })
        } else {
            None
        };
        sessions.push(Session {
            id,
            spec,
            threshold,
            pcap,
            status: match status {
                SessionStatus::Running => SessionStatus::Queued,
                other => other,
            },
            error,
            outcome,
        });
    }
    if r.at != payload.len() {
        return Err(SnapshotError::BadLength);
    }
    Ok(SessionTable {
        next_id,
        threshold,
        reloads,
        sessions,
    })
}

/// Clips a string to at most `max` bytes on a char boundary.
fn truncate_utf8(s: &str, max: usize) -> &str {
    if s.len() <= max {
        return s;
    }
    let mut end = max;
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_opt_u32(out: &mut Vec<u8>, v: Option<u32>) {
    match v {
        Some(v) => {
            out.push(1);
            put_u32(out, v);
        }
        None => out.push(0),
    }
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// A bounds-checked cursor; every read either advances or returns
/// [`SnapshotError::Truncated`].
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.at.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SnapshotError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn opt_u32(&mut self) -> Result<Option<u32>, SnapshotError> {
        if self.u8()? != 0 {
            Ok(Some(self.u32()?))
        } else {
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepstone_scenario::preset;

    fn sample_table() -> SessionTable {
        let spec = preset("quick-smoke").expect("preset");
        SessionTable {
            next_id: 3,
            threshold: Some(3),
            reloads: 2,
            sessions: vec![
                Session {
                    id: 1,
                    spec: spec.clone(),
                    threshold: None,
                    pcap: None,
                    status: SessionStatus::Completed,
                    error: None,
                    outcome: Some(StoredOutcome {
                        events: 812,
                        true_positives: 2,
                        false_positives: 0,
                        missed: 0,
                        degraded: 0,
                        erasures: 21,
                        verdicts: vec![VerdictLine {
                            upstream: 0,
                            flow: 0,
                            kind: TerminalKind::Correlated,
                        }],
                    }),
                },
                Session {
                    id: 2,
                    spec,
                    threshold: Some(3),
                    pcap: Some(vec![0xd4, 0xc3, 0xb2, 0xa1]),
                    status: SessionStatus::Running,
                    error: Some("boom".to_string()),
                    outcome: None,
                },
            ],
        }
    }

    #[test]
    fn round_trips_with_running_demoted_to_queued() {
        let table = sample_table();
        let decoded = decode(&encode(&table)).expect("round-trips");
        assert_eq!(decoded.next_id, table.next_id);
        assert_eq!(decoded.threshold, table.threshold);
        assert_eq!(decoded.reloads, table.reloads);
        assert_eq!(decoded.sessions[0], table.sessions[0]);
        assert_eq!(decoded.sessions[1].status, SessionStatus::Queued);
        assert_eq!(decoded.sessions[1].pcap, table.sessions[1].pcap);
        assert_eq!(decoded.unfinished(), vec![2]);
    }

    #[test]
    fn rejects_structured_damage() {
        let bytes = encode(&sample_table());
        assert_eq!(decode(b""), Err(SnapshotError::Truncated));
        assert_eq!(decode(b"NOPE"), Err(SnapshotError::BadMagic));
        let mut magic = bytes.clone();
        magic[0] = b'X';
        assert_eq!(decode(&magic), Err(SnapshotError::BadMagic));
        let mut version = bytes.clone();
        version[4] = 0xFF;
        assert!(matches!(
            decode(&version),
            Err(SnapshotError::BadVersion(_))
        ));
        let mut payload = bytes.clone();
        let last = payload.len() - 1;
        payload[last] ^= 0x01;
        assert!(decode(&payload).is_err(), "payload damage must not pass");
        let mut extra = bytes.clone();
        extra.push(0);
        assert_eq!(decode(&extra), Err(SnapshotError::BadLength));
    }

    #[test]
    fn every_truncation_errors_cleanly() {
        let bytes = encode(&sample_table());
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn error_messages_are_clipped_not_refused() {
        let mut table = sample_table();
        table.sessions[1].error = Some("e".repeat(MAX_ERROR_BYTES * 2));
        let decoded = decode(&encode(&table)).expect("decodes");
        assert_eq!(
            decoded.sessions[1].error.as_ref().map(String::len),
            Some(MAX_ERROR_BYTES)
        );
    }
}
