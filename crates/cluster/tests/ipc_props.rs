//! Property tests for the IPC framing layer: canonical encoding and
//! hostile-input hardening.
//!
//! Two families, matching the wire module's contract:
//!
//! 1. **Canonical round-trip** — for every generated message,
//!    `decode(encode(m)) == m`, and re-encoding the decoded message
//!    reproduces the original bytes exactly.
//! 2. **Never panic** — arbitrary byte streams, truncations of valid
//!    frames, and single-bit flips of valid frames always produce
//!    `Ok`/`Err`, never a panic, through the typed message reader.

use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use stepstone_cluster::{BatchEntry, Message, WireStats};
use stepstone_flow::{Provenance, TimeDelta};
use stepstone_monitor::{DegradeReason, FlowId, PairId, UpstreamId, Verdict};

fn entry_strategy() -> impl Strategy<Value = BatchEntry> {
    (
        0u64..64,
        -1_000_000i64..1_000_000,
        0u32..2048,
        proptest::bool::ANY,
        0u32..512,
    )
        .prop_map(|(flow, ts_micros, size, chaff, index)| BatchEntry {
            flow,
            ts_micros,
            size,
            provenance: if chaff {
                Provenance::Chaff
            } else {
                Provenance::Payload(index)
            },
        })
}

fn stats_strategy() -> impl Strategy<Value = WireStats> {
    (0u64..1 << 40).prop_map(|x| {
        // Derive 9 related-but-distinct counters from one draw; the
        // codec treats them as opaque u64s, so coverage of each field's
        // bit patterns matters more than cross-field realism.
        let f = |k: u64| x.wrapping_mul(k ^ 0x9E37_79B9).rotate_left((k % 63) as u32);
        WireStats {
            packets_ingested: f(1),
            packets_rejected: f(2),
            flows_active: f(3),
            flows_evicted: f(4),
            pairs_active: f(5),
            pairs_latched: f(6),
            decodes_run: f(7),
            decode_panics: f(8),
            verdicts_emitted: f(9),
        }
    })
}

fn verdict_strategy() -> impl Strategy<Value = Verdict> {
    (
        0u8..4,
        0u64..16,
        0u64..16,
        0u32..1024,
        0u64..1 << 32,
        proptest::bool::ANY,
    )
        .prop_map(|(tag, up, flow, small, big, flag)| {
            let pair = PairId {
                upstream: UpstreamId(up),
                flow: FlowId(flow),
            };
            match tag {
                0 => Verdict::Correlated {
                    pair,
                    hamming: small % 24,
                    cost: big,
                },
                1 => Verdict::Cleared {
                    pair,
                    hamming: if flag { Some(small % 24) } else { None },
                    decodes: small,
                },
                2 => Verdict::Evicted {
                    flow: FlowId(flow),
                    idle: TimeDelta::from_micros(big as i64),
                },
                _ => Verdict::Degraded {
                    pair,
                    reason: match small % 2 {
                        0 => DegradeReason::WorkerLost,
                        _ => DegradeReason::ErasureBudget {
                            erasures: small,
                            confidence: (small % 101) as u8,
                        },
                    },
                },
            }
        })
}

fn message_strategy() -> impl Strategy<Value = Message> {
    (0u8..10).prop_flat_map(|tag| -> BoxedStrategy<Message> {
        match tag {
            0 => (
                0u32..8,
                0u32..8,
                proptest::collection::vec(0u8..=255, 0..128),
            )
                .prop_map(|(worker, generation, spec)| Message::Hello {
                    worker,
                    generation,
                    spec,
                })
                .boxed(),
            1 => (0u32..8, 0u32..8)
                .prop_map(|(worker, generation)| Message::HelloAck { worker, generation })
                .boxed(),
            2 => (
                0u64..1 << 32,
                proptest::collection::vec(entry_strategy(), 0..32),
            )
                .prop_map(|(seq, entries)| Message::Batch { seq, entries })
                .boxed(),
            3 => (0u64..1 << 32, 0u32..4096, 0u32..4096)
                .prop_map(|(seq, accepted, rejected)| Message::BatchAck {
                    seq,
                    accepted,
                    rejected,
                })
                .boxed(),
            4 => (0u64..1 << 32,)
                .prop_map(|(seq,)| Message::Ping { seq })
                .boxed(),
            5 => (0u64..1 << 32, stats_strategy())
                .prop_map(|(seq, stats)| Message::Pong { seq, stats })
                .boxed(),
            6 => (0u32..8, proptest::collection::vec(0u64..1 << 32, 0..64))
                .prop_map(|(from_worker, flows)| Message::Rebalance { from_worker, flows })
                .boxed(),
            7 => proptest::collection::vec(verdict_strategy(), 0..24)
                .prop_map(Message::Verdicts)
                .boxed(),
            8 => Just(Message::Shutdown).boxed(),
            _ => (
                stats_strategy(),
                proptest::collection::vec(verdict_strategy(), 0..24),
            )
                .prop_map(|(stats, verdicts)| Message::Report { stats, verdicts })
                .boxed(),
        }
    })
}

/// A short stream of valid frames, concatenated.
fn stream_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(message_strategy(), 1..4).prop_map(|msgs| {
        let mut bytes = Vec::new();
        for m in msgs {
            bytes.extend_from_slice(&m.encode().expect("generated message encodes"));
        }
        bytes
    })
}

/// Reads typed messages until EOF or the first error; must never panic
/// and must always terminate (errors are terminal for a stream).
fn drain(mut bytes: &[u8]) -> usize {
    let mut n = 0usize;
    loop {
        match Message::read_from(&mut bytes) {
            Ok(Some(_)) => n += 1,
            Ok(None) | Err(_) => return n,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// decode(encode(m)) == m, and encode(decode(bytes)) == bytes:
    /// the encoding is canonical in both directions.
    #[test]
    fn round_trip_is_byte_identical(msg in message_strategy()) {
        let bytes = msg.encode().expect("valid message encodes");
        let mut reader = bytes.as_slice();
        let decoded = Message::read_from(&mut reader)
            .expect("own encoding decodes")
            .expect("not EOF");
        prop_assert_eq!(&decoded, &msg);
        prop_assert!(reader.is_empty(), "decode consumed the whole frame");
        let re = decoded.encode().expect("decoded message re-encodes");
        prop_assert_eq!(re, bytes);
    }

    /// Arbitrary byte soup: `Ok`/`Err`, never a panic, always terminates.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        let _ = drain(&bytes);
    }

    /// Truncating a valid stream at any point never panics; frames
    /// before the cut still decode.
    #[test]
    fn truncated_streams_never_panic(bytes in stream_strategy(), cut in 0usize..4096) {
        let cut = cut % (bytes.len() + 1);
        let whole = drain(&bytes);
        let prefix = drain(&bytes[..cut]);
        prop_assert!(prefix <= whole);
    }

    /// Flipping any single bit of a valid stream never panics. The
    /// checksum catches payload damage; header damage surfaces as a
    /// magic/version/size error.
    #[test]
    fn bit_flipped_streams_never_panic(bytes in stream_strategy(), pos in 0usize..4096, bit in 0u8..8) {
        let mut bytes = bytes;
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        let _ = drain(&bytes);
    }
}
