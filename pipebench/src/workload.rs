//! The two workloads and the one scheme they share.
//!
//! Every workload uses the paper backend with GreedyPlus, Δ = 1 s,
//! Poisson chaff at λc = 2/s, the small watermark scheme (8 bits, r = 2,
//! offset 1, a = 1200 ms, threshold 2), `decode_batch` 32 and one decode
//! shard, so the process runs the main thread plus one decode worker.
//! Both replay the capture in a closed loop: the next packet goes in as
//! soon as the previous call returns.
//!
//! Every workload also runs the deterministic decode schedule, so each
//! run's verdicts can be checked exactly against the batch reference.
//! The production live schedule (skip a boundary while a decode is in
//! flight, drop the attempt on a full queue) decodes windows that depend
//! on worker timing: at 80,000 pkt/s on a 2-vCPU host its per-seed
//! detection-latency p90 ranged from 3 ms to 550 ms, too erratic for a
//! regression bound, so no workload uses it.
//!
//! Two workloads were dropped for the same reason. An open-loop tap at
//! 40,000 pkt/s and a wide link of 4,000 short decoys both leave the
//! decode worker idle most of the time (busy 9% and 4%), so their
//! detection latency is mostly the time it takes to wake up. Over ten
//! seeds its quartiles lay 17% to 27% of the median apart, and scaling
//! by host speed (see [`crate::calibrate`]) still left 13% to 22%.

use stepstone_core::DecodeOptions;
use stepstone_flow::TimeDelta;
use stepstone_monitor::MonitorConfig;

/// The workload names, in the order the all-workloads mode runs them.
pub const NAMES: [&str; 2] = ["decode-heavy", "lossy-robust"];

/// The paper's maximum perturbation Δ.
pub const DELTA: TimeDelta = TimeDelta::from_secs(1);
/// Poisson chaff rate λc, packets per second, on every suspicious flow.
pub const CHAFF_RATE: f64 = 2.0;
/// New packets per scheduled decode.
pub const DECODE_BATCH: usize = 32;
/// Erasure budget of the robust decoder on `lossy-robust`.
pub const ERASURE_BUDGET: u32 = 64;

/// One workload: corpus shape, channel and decode mode.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Watermarked upstream flows; each has one true downstream flow.
    pub upstreams: usize,
    /// Unrelated suspicious flows.
    pub decoys: usize,
    /// Packets per upstream and per decoy flow (before chaff).
    pub packets: usize,
    /// Per-packet loss probability on every suspicious flow, applied
    /// after chaff.
    pub loss: f64,
    /// Strict or robust decoding.
    pub decode: DecodeOptions,
}

impl Workload {
    /// The workload called `name`, at benchmark size.
    pub fn named(name: &str) -> Option<Workload> {
        let decode_heavy = Workload {
            name: "decode-heavy",
            upstreams: 32,
            decoys: 32,
            packets: 1500,
            loss: 0.0,
            decode: DecodeOptions::strict(),
        };
        Some(match name {
            "decode-heavy" => decode_heavy,
            "lossy-robust" => Workload {
                name: "lossy-robust",
                upstreams: 12,
                decoys: 12,
                loss: 0.02,
                decode: DecodeOptions::robust(ERASURE_BUDGET),
                ..decode_heavy
            },
            _ => return None,
        })
    }

    /// The same workload shrunk to a size a unit test runs in well under
    /// a second: same code paths, far fewer flows and packets.
    #[must_use]
    pub fn tiny(&self) -> Workload {
        Workload {
            upstreams: self.upstreams.min(2),
            decoys: 2,
            packets: 300,
            ..self.clone()
        }
    }

    /// The monitor configuration every workload runs under.
    pub fn monitor_config(&self) -> MonitorConfig {
        MonitorConfig::default()
            .with_shards(1)
            .with_decode_batch(DECODE_BATCH)
            .with_deterministic_schedule()
    }
}
