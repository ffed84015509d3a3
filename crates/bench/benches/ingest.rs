//! Wire-ingestion throughput: parsing a classic-pcap capture, routing
//! it to flows, and routing plus assembling every flow, measured
//! separately so header parsing, routing and assembly cost are
//! distinguishable. `route_200k` routes records parsed beforehand, so
//! it reads the demux's cost alone. `parse_route_v6_200k` is
//! `parse_route_200k` over IPv6 tuples: the frame decoder's and the
//! tuple hash's non-IPv4 arm.
//!
//! The captures are built once outside the measured section: 64
//! interleaved UDP flows of 3,125 packets each (200,000 packets,
//! ~16 MB). Each iteration walks the whole capture, so time/iter
//! divided by 200,000 is the per-packet cost; the acceptance floor is
//! 500k packets/sec in release.

use std::net::{IpAddr, Ipv6Addr};

use criterion::{criterion_group, criterion_main, Criterion};
use stepstone_flow::{Flow, FlowBuilder, Packet, Timestamp};
use stepstone_ingest::{parse_capture, write_flows, CaptureRecord, FiveTuple, FlowDemux};

const FLOWS: usize = 64;
const PACKETS_PER_FLOW: usize = 3_125;
const TOTAL_PACKETS: usize = FLOWS * PACKETS_PER_FLOW;

/// Flow `f`'s IPv4 tuple.
fn v4_tuple(f: usize) -> FiveTuple {
    FiveTuple::udp_v4(
        [10, 0, (f >> 8) as u8, (f & 0xFF) as u8],
        40_000 + f as u16,
        [192, 0, 2, 1],
        4_000,
    )
}

/// Flow `f`'s IPv6 tuple: the IPv4 one's ports, documentation-prefix
/// addresses.
fn v6_tuple(f: usize) -> FiveTuple {
    let v6 = |last: u16| IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, last));
    FiveTuple {
        src: v6(0x100 + f as u16),
        dst: v6(1),
        ..v4_tuple(f)
    }
}

/// 64 flows with interleaved, strictly staggered timestamps: flow `f`
/// sends at `t = f*127 µs + i*10 ms`, so the merged capture alternates
/// flows the way a real tap would.
fn build_capture(tuple: fn(usize) -> FiveTuple) -> Vec<u8> {
    let flows: Vec<(FiveTuple, Flow)> = (0..FLOWS)
        .map(|f| {
            let mut b = FlowBuilder::new();
            for i in 0..PACKETS_PER_FLOW {
                let micros = (f as i64) * 127 + (i as i64) * 10_000;
                b.push(Packet::new(Timestamp::from_micros(micros), 64))
                    .expect("timestamps increase");
            }
            (tuple(f), b.finish())
        })
        .collect();
    let tagged: Vec<(FiveTuple, &Flow)> = flows.iter().map(|(t, f)| (*t, f)).collect();
    let mut bytes = Vec::new();
    let written = write_flows(&mut bytes, &tagged).expect("in-memory write cannot fail");
    assert_eq!(written as usize, TOTAL_PACKETS);
    bytes
}

fn ingest_throughput(c: &mut Criterion) {
    let bytes = build_capture(v4_tuple);
    println!(
        "ingest_throughput: capture = {} packets, {} bytes",
        TOTAL_PACKETS,
        bytes.len()
    );
    let mut group = c.benchmark_group("ingest_throughput");
    group.sample_size(10);
    group.bench_function("parse_200k", |b| {
        b.iter(|| {
            let mut records = 0u64;
            for r in parse_capture(&bytes).expect("capture header is valid") {
                r.expect("capture body is valid");
                records += 1;
            }
            assert_eq!(records as usize, TOTAL_PACKETS);
            records
        })
    });
    // Routing alone: `push` over records parsed outside the timing.
    let records: Vec<CaptureRecord> = parse_capture(&bytes)
        .expect("capture header is valid")
        .collect::<Result<_, _>>()
        .expect("capture body is valid");
    group.bench_function("route_200k", |b| {
        b.iter(|| {
            let mut demux = FlowDemux::new();
            let mut routed = 0u64;
            for r in &records {
                routed += u64::from(demux.push(r).is_some());
            }
            assert_eq!(routed as usize, TOTAL_PACKETS);
            routed
        })
    });
    // The live path: every record routed, nothing assembled.
    group.bench_function("parse_route_200k", |b| {
        b.iter(|| {
            let mut demux = FlowDemux::new();
            let mut routed = 0u64;
            for r in parse_capture(&bytes).expect("capture header is valid") {
                routed += u64::from(demux.push(&r.expect("capture body is valid")).is_some());
            }
            assert_eq!(routed as usize, TOTAL_PACKETS);
            routed
        })
    });
    // The batch path: routing, then `finish` assembling every flow.
    group.bench_function("parse_demux_200k", |b| {
        b.iter(|| {
            let mut demux = FlowDemux::new();
            for r in parse_capture(&bytes).expect("capture header is valid") {
                demux.push(&r.expect("capture body is valid"));
            }
            let (flows, stats) = demux.finish();
            assert_eq!(flows.len(), FLOWS);
            assert_eq!(stats.packets as usize, TOTAL_PACKETS);
            flows.len()
        })
    });
    // The live path over IPv6 tuples.
    let v6_bytes = build_capture(v6_tuple);
    let v6_records = parse_capture(&v6_bytes)
        .expect("capture header is valid")
        .collect::<Result<Vec<CaptureRecord>, _>>()
        .expect("capture body is valid");
    assert!(v6_records
        .iter()
        .all(|r| matches!(r.tuple, Some(t) if t.src.is_ipv6() && t.dst.is_ipv6())));
    let mut demux = FlowDemux::new();
    for r in &v6_records {
        demux.push(r);
    }
    let (flows, _) = demux.finish();
    assert_eq!(flows.len(), FLOWS);
    group.bench_function("parse_route_v6_200k", |b| {
        b.iter(|| {
            let mut demux = FlowDemux::new();
            let mut routed = 0u64;
            for r in parse_capture(&v6_bytes).expect("capture header is valid") {
                routed += u64::from(demux.push(&r.expect("capture body is valid")).is_some());
            }
            assert_eq!(routed as usize, TOTAL_PACKETS);
            routed
        })
    });
    group.finish();
}

criterion_group!(benches, ingest_throughput);
criterion_main!(benches);
