//! Wire-ingestion throughput: parsing a classic-pcap capture, routing
//! it to flows, and routing plus assembling every flow, measured
//! separately so header parsing, routing and assembly cost are
//! distinguishable.
//!
//! The capture is built once outside the measured section: 64
//! interleaved UDP flows of 3,125 packets each (200,000 packets,
//! ~16 MB). Each iteration walks the whole capture, so time/iter
//! divided by 200,000 is the per-packet cost; the ISSUE acceptance
//! floor is 500k packets/sec in release.

use criterion::{criterion_group, criterion_main, Criterion};
use stepstone_flow::{Flow, FlowBuilder, Packet, Timestamp};
use stepstone_ingest::{parse_capture, write_flows, FiveTuple, FlowDemux};

const FLOWS: usize = 64;
const PACKETS_PER_FLOW: usize = 3_125;
const TOTAL_PACKETS: usize = FLOWS * PACKETS_PER_FLOW;

/// 64 flows with interleaved, strictly staggered timestamps: flow `f`
/// sends at `t = f*127 µs + i*10 ms`, so the merged capture alternates
/// flows the way a real tap would.
fn build_capture() -> Vec<u8> {
    let flows: Vec<(FiveTuple, Flow)> = (0..FLOWS)
        .map(|f| {
            let tuple = FiveTuple::udp_v4(
                [10, 0, (f >> 8) as u8, (f & 0xFF) as u8],
                40_000 + f as u16,
                [192, 0, 2, 1],
                4_000,
            );
            let mut b = FlowBuilder::new();
            for i in 0..PACKETS_PER_FLOW {
                let micros = (f as i64) * 127 + (i as i64) * 10_000;
                b.push(Packet::new(Timestamp::from_micros(micros), 64))
                    .expect("timestamps increase");
            }
            (tuple, b.finish())
        })
        .collect();
    let tagged: Vec<(FiveTuple, &Flow)> = flows.iter().map(|(t, f)| (*t, f)).collect();
    let mut bytes = Vec::new();
    let written = write_flows(&mut bytes, &tagged).expect("in-memory write cannot fail");
    assert_eq!(written as usize, TOTAL_PACKETS);
    bytes
}

fn ingest_throughput(c: &mut Criterion) {
    let bytes = build_capture();
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
    group.finish();
}

criterion_group!(benches, ingest_throughput);
criterion_main!(benches);
