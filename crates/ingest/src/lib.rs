//! # stepstone-ingest
//!
//! Wire ingestion for the stepstone correlation pipeline: dependency-
//! free pcap/pcapng reading, 5-tuple flow demultiplexing, replay-clock
//! pacing, and a pcap writer so synthetic corpora round-trip through
//! real capture tooling.
//!
//! ```text
//!   .pcap / .pcapng bytes
//!          │ parse_capture()          (format sniffed, both endians,
//!          ▼                           per-interface if_tsresol)
//!   CaptureRecord stream  ──────────► ignored: ARP/ICMP/fragments
//!          │ FlowDemux::push()        (routes by 5-tuple, appends
//!          ▼                           16 B per packet to one log)
//!   (FlowId, Packet) events ─ ReplayClock pacing ─► Monitor::ingest()
//!                                                        │
//!   FlowDemux::finish(): every flow assembled from       ▼
//!   the log, as Vec<DemuxFlow> (batch correlators)   Verdict stream
//! ```
//!
//! The reader never panics on corrupt input: every structural defect
//! surfaces as an [`IngestError`] naming the offending byte offset.
//! [`PcapWriter`] is the inverse direction — it renders the abstract
//! `(timestamp, size)` packet model of `stepstone_flow` as Ethernet/
//! IPv4 frames so a written capture demultiplexes back into the exact
//! flows it came from (see [`write_flows`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capture;
mod clock;
mod cursor;
mod demux;
mod error;
mod hasher;
mod link;
mod pcap;
mod pcapng;
mod replay;

pub use capture::{parse_capture, read_capture, Capture, CaptureRecord};
pub use clock::{Pacer, ParseReplayClockError, ReplayClock};
pub use demux::{DemuxFlow, DemuxStats, FlowDemux};
pub use error::IngestError;
pub use link::{build_frame, decode_frame, min_frame_len, FiveTuple, LinkType, Transport};
pub use pcap::{write_flows, PcapWriter};
pub use replay::{replay_capture, replay_records_with, ReplayOutcome};
