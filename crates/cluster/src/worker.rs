//! The worker side of the cluster: a framed-IPC loop around one
//! unmodified [`stepstone_monitor::Monitor`].
//!
//! A worker process reads [`Message`]s off stdin and answers on stdout.
//! All correlation logic lives in the monitor the factory builds; this
//! module only translates between frames and engine calls:
//!
//! * `Hello` → build the monitor from the opaque spec, answer
//!   `HelloAck`;
//! * `Batch` → ingest every entry, stream any fresh verdicts, answer
//!   `BatchAck` with accept/reject counts;
//! * `Ping` → answer `Pong` with a live stats snapshot;
//! * `Rebalance` → no engine action (inherited flows simply start
//!   arriving in subsequent batches); acknowledged implicitly by the
//!   next heartbeat;
//! * `Shutdown` → finish the monitor, stream the final verdicts in
//!   bounded chunks, answer `Report`, exit;
//! * clean EOF → exit without a report (the coordinator died first).
//!
//! The loop never panics on corrupt input: framing errors surface as
//! [`ServeError`] and the process exits non-zero, which the supervisor
//! treats like any other worker death.

use std::io::{Read, Write};

use stepstone_monitor::{Monitor, Verdict};

use crate::message::{Message, WireStats, MAX_VERDICTS};
use crate::wire::WireError;

/// Why a worker loop stopped abnormally.
#[derive(Debug)]
pub enum ServeError {
    /// A frame failed to parse or the pipe broke.
    Wire(WireError),
    /// The peer violated the protocol (e.g. `Batch` before `Hello`).
    Protocol(&'static str),
    /// The monitor factory rejected the handshake spec.
    Factory(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Wire(e) => write!(f, "wire error: {e}"),
            ServeError::Protocol(what) => write!(f, "protocol violation: {what}"),
            ServeError::Factory(why) => write!(f, "monitor factory failed: {why}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> Self {
        ServeError::Wire(e)
    }
}

/// What a worker did over its lifetime, for logging by the binary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Batches ingested.
    pub batches: u64,
    /// Packet entries ingested (accepted or rejected).
    pub packets: u64,
    /// Verdicts streamed back, including the final flush.
    pub verdicts: u64,
    /// Whether the loop ended via `Shutdown` (`true`) or EOF (`false`).
    pub reported: bool,
}

fn send<W: Write>(writer: &mut W, msg: &Message) -> Result<(), ServeError> {
    msg.write_to(writer)?;
    writer.flush().map_err(WireError::Io)?;
    Ok(())
}

/// Streams a verdict list in chunks that respect the wire cap.
fn send_verdicts<W: Write>(writer: &mut W, verdicts: &[Verdict]) -> Result<(), ServeError> {
    for chunk in verdicts.chunks(MAX_VERDICTS) {
        send(writer, &Message::Verdicts(chunk.to_vec()))?;
    }
    Ok(())
}

/// Runs the worker loop until `Shutdown` or EOF.
///
/// `factory` receives the worker's slot index and the opaque spec bytes
/// from the coordinator's `Hello` and must build the monitor this
/// process will serve — typically by reconstructing the same seeded
/// corpus the coordinator streams from (the spec is pure data, so the
/// rebuild is deterministic).
pub fn serve<R, W, F>(
    reader: &mut R,
    writer: &mut W,
    factory: F,
) -> Result<WorkerSummary, ServeError>
where
    R: Read,
    W: Write,
    F: FnOnce(u32, &[u8]) -> Result<Monitor, String>,
{
    let mut summary = WorkerSummary::default();

    // Handshake: the first frame must be Hello.
    let (worker, generation, monitor) = match Message::read_from(reader)? {
        None => return Ok(summary), // coordinator gone before Hello
        Some(Message::Hello {
            worker,
            generation,
            spec,
        }) => {
            let monitor = factory(worker, &spec).map_err(ServeError::Factory)?;
            (worker, generation, monitor)
        }
        Some(_) => return Err(ServeError::Protocol("first frame was not Hello")),
    };
    send(writer, &Message::HelloAck { worker, generation })?;

    // finish() consumes the monitor, so it lives in an Option.
    let mut monitor = Some(monitor);

    loop {
        let msg = match Message::read_from(reader)? {
            None => return Ok(summary),
            Some(msg) => msg,
        };
        let engine = match monitor.as_mut() {
            Some(engine) => engine,
            None => return Err(ServeError::Protocol("frame after Shutdown")),
        };
        match msg {
            Message::Batch { seq, entries } => {
                let mut accepted = 0u32;
                let mut rejected = 0u32;
                for entry in entries {
                    let (flow, packet) = entry.to_packet();
                    if engine.ingest(flow, packet) {
                        accepted += 1;
                    } else {
                        rejected += 1;
                    }
                    summary.packets += 1;
                }
                summary.batches += 1;
                let fresh = engine.drain_verdicts();
                if !fresh.is_empty() {
                    summary.verdicts += fresh.len() as u64;
                    send_verdicts(writer, &fresh)?;
                }
                send(
                    writer,
                    &Message::BatchAck {
                        seq,
                        accepted,
                        rejected,
                    },
                )?;
            }
            Message::Ping { seq } => {
                let stats = WireStats::from(&engine.stats());
                send(writer, &Message::Pong { seq, stats })?;
            }
            Message::Rebalance { .. } => {
                // Inherited flows need no engine action: correlator
                // state for them lives per-upstream, and their packets
                // simply start arriving in subsequent batches.
            }
            Message::Shutdown => {
                let report = match monitor.take() {
                    Some(engine) => engine.finish(),
                    None => return Err(ServeError::Protocol("double Shutdown")),
                };
                summary.verdicts += report.verdicts.len() as u64;
                summary.reported = true;
                send_verdicts(writer, &report.verdicts)?;
                send(
                    writer,
                    &Message::Report {
                        stats: WireStats::from(&report.stats),
                        verdicts: Vec::new(),
                    },
                )?;
                return Ok(summary);
            }
            Message::Hello { .. } => return Err(ServeError::Protocol("second Hello")),
            Message::HelloAck { .. }
            | Message::BatchAck { .. }
            | Message::Pong { .. }
            | Message::Verdicts(_)
            | Message::Report { .. } => {
                return Err(ServeError::Protocol("worker-to-coordinator frame on stdin"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use stepstone_monitor::MonitorConfig;

    fn frames(messages: &[Message]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for msg in messages {
            bytes.extend_from_slice(&msg.encode().unwrap());
        }
        bytes
    }

    fn read_all(mut bytes: &[u8]) -> Vec<Message> {
        let mut out = Vec::new();
        while let Some(msg) = Message::read_from(&mut bytes).unwrap() {
            out.push(msg);
        }
        out
    }

    fn tiny_monitor(_worker: u32, _spec: &[u8]) -> Result<Monitor, String> {
        Ok(Monitor::new(MonitorConfig::default()))
    }

    #[test]
    fn handshake_then_shutdown_reports() {
        let input = frames(&[
            Message::Hello {
                worker: 3,
                generation: 1,
                spec: Vec::new(),
            },
            Message::Ping { seq: 1 },
            Message::Shutdown,
        ]);
        let mut output = Vec::new();
        let summary = serve(&mut Cursor::new(input), &mut output, tiny_monitor).unwrap();
        assert!(summary.reported);

        let replies = read_all(&output);
        assert!(matches!(
            replies[0],
            Message::HelloAck {
                worker: 3,
                generation: 1
            }
        ));
        assert!(matches!(replies[1], Message::Pong { seq: 1, .. }));
        assert!(matches!(replies.last(), Some(Message::Report { .. })));
    }

    #[test]
    fn eof_before_hello_is_clean() {
        let mut output = Vec::new();
        let summary = serve(&mut Cursor::new(Vec::new()), &mut output, tiny_monitor).unwrap();
        assert!(!summary.reported);
        assert!(output.is_empty());
    }

    #[test]
    fn batch_before_hello_is_a_protocol_error() {
        let input = frames(&[Message::Batch {
            seq: 0,
            entries: Vec::new(),
        }]);
        let mut output = Vec::new();
        let err = serve(&mut Cursor::new(input), &mut output, tiny_monitor).unwrap_err();
        assert!(matches!(err, ServeError::Protocol(_)), "{err}");
    }

    #[test]
    fn corrupt_frame_surfaces_as_wire_error() {
        let mut input = frames(&[Message::Hello {
            worker: 0,
            generation: 1,
            spec: Vec::new(),
        }]);
        input.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let mut output = Vec::new();
        let err = serve(&mut Cursor::new(input), &mut output, tiny_monitor).unwrap_err();
        assert!(matches!(err, ServeError::Wire(_)), "{err}");
    }

    #[test]
    fn factory_failure_is_reported() {
        let input = frames(&[Message::Hello {
            worker: 0,
            generation: 1,
            spec: b"bad".to_vec(),
        }]);
        let mut output = Vec::new();
        let err = serve(&mut Cursor::new(input), &mut output, |_, _| {
            Err("no such scenario".to_string())
        })
        .unwrap_err();
        assert!(matches!(err, ServeError::Factory(_)), "{err}");
    }

    #[test]
    fn empty_batch_is_acked() {
        let input = frames(&[
            Message::Hello {
                worker: 0,
                generation: 1,
                spec: Vec::new(),
            },
            Message::Batch {
                seq: 7,
                entries: Vec::new(),
            },
            Message::Shutdown,
        ]);
        let mut output = Vec::new();
        let summary = serve(&mut Cursor::new(input), &mut output, tiny_monitor).unwrap();
        assert_eq!(summary.batches, 1);
        let replies = read_all(&output);
        assert!(replies.iter().any(|m| matches!(
            m,
            Message::BatchAck {
                seq: 7,
                accepted: 0,
                rejected: 0
            }
        )));
    }
}
