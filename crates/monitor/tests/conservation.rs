//! Decode-count agreement: every window the engine decodes is one
//! `decodes_run`, one sample in the `monitor_decode_latency_micros`
//! histogram and one unit of the rendered `monitor_decodes_run_total`,
//! and every candidate pair ends with exactly one terminal verdict.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::Rng;
use stepstone_core::{Algorithm, WatermarkCorrelator};
use stepstone_flow::{Flow, TimeDelta, Timestamp};
use stepstone_monitor::{FlowId, Monitor, MonitorConfig, UpstreamId};
use stepstone_traffic::Seed;
use stepstone_watermark::{IpdWatermarker, Watermark, WatermarkKey, WatermarkParams};

/// A small scheme so each decode stays cheap: 4 bits, r = 1.
fn tiny_params() -> WatermarkParams {
    WatermarkParams {
        bits: 4,
        redundancy: 1,
        offset: 1,
        adjustment: TimeDelta::from_millis(800),
        threshold: 1,
    }
}

/// A deterministic flow from a seed with irregular spacing.
fn seeded_flow(seed: u64, packets: usize) -> Flow {
    let mut rng = Seed::new(seed).rng(0);
    let mut t = 0i64;
    let timestamps = (0..packets).map(|_| {
        t += rng.gen_range(50_000..2_000_000);
        Timestamp::from_micros(t)
    });
    Flow::from_timestamps(timestamps).unwrap()
}

/// Sums every series of one metric family in Prometheus text output.
fn family_total(rendered: &str, family: &str) -> u64 {
    rendered
        .lines()
        .filter(|l| l.starts_with(family) && !l.starts_with('#'))
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|v| v.parse::<f64>().ok())
        .map(|v| v as u64)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn decode_counts_agree_at_shutdown(
        flow_seed in 0u64..5000,
        decode_batch in 1usize..8,
        flows in 1usize..4,
    ) {
        let original = seeded_flow(flow_seed, 60);
        let marker = IpdWatermarker::new(WatermarkKey::new(flow_seed ^ 77), tiny_params());
        let watermark = Watermark::random(4, &mut WatermarkKey::new(flow_seed).rng(1));
        let marked = marker.embed(&original, &watermark).unwrap();
        let correlator = WatermarkCorrelator::new(
            marker,
            watermark,
            TimeDelta::from_secs(3),
            Algorithm::GreedyPlus,
        );

        // Small batches decode often, so a miscounted path would show.
        let mut monitor = Monitor::new(
            MonitorConfig::default()
                .with_window_capacity(marked.len())
                .with_decode_batch(decode_batch),
        );
        monitor
            .register_upstream(UpstreamId(0), correlator.bind(&original, &marked).unwrap());
        for flow in 0..flows {
            for &packet in marked.packets() {
                monitor.ingest(FlowId(flow as u64), packet);
            }
        }
        let registry = monitor.registry();
        let report = monitor.finish();
        let stats = &report.stats;

        prop_assert!(stats.decodes_run > 0, "{}", stats);
        prop_assert_eq!(stats.decode_panics, 0);
        prop_assert!(stats.queue_depths.is_empty());
        let sampled = registry
            .histogram("monitor_decode_latency_micros", "")
            .snapshot()
            .count();
        prop_assert_eq!(sampled, stats.decodes_run, "{}", stats);
        let rendered = registry.render_prometheus();
        prop_assert_eq!(family_total(&rendered, "monitor_decodes_run_total"), stats.decodes_run);

        let mut terminal: BTreeMap<FlowId, usize> = BTreeMap::new();
        for verdict in &report.verdicts {
            let pair = verdict.pair().expect("no idle eviction configured");
            *terminal.entry(pair.flow).or_insert(0) += 1;
        }
        prop_assert_eq!(terminal.len(), flows);
        prop_assert!(terminal.values().all(|&n| n == 1), "{:?}", terminal);
    }
}
