//! The load generator: synthesises a workload's flows from the seed,
//! watermarks the upstreams, attacks every suspicious flow, and renders
//! the suspicious stream as classic-pcap bytes. The pipeline under test
//! only ever sees those bytes plus the bound upstream correlators.

use std::time::{Duration, Instant};

use stepstone_adversary::{
    AdversaryPipeline, ChaffInjector, ChaffModel, PacketLoss, UniformPerturbation,
};
use stepstone_core::{Algorithm, BackendKind, BoundCorrelator, WatermarkCorrelator};
use stepstone_flow::{Flow, TimeDelta, Timestamp};
use stepstone_ingest::{write_flows, FiveTuple};
use stepstone_monitor::{Monitor, UpstreamId};
use stepstone_traffic::{InteractiveProfile, Seed, SessionGenerator};
use stepstone_watermark::{IpdWatermarker, Watermark, WatermarkKey, WatermarkParams};

use crate::workload::{Workload, CHAFF_RATE, DELTA};
use crate::Error;

/// Packets the attacker's session carries past the upstream prefix the
/// defender recorded and watermarked. Without them a true downstream
/// flow ends with its last upstream match, its first correlating window
/// is the whole flow, and the pair latches only in the shutdown flush;
/// with them it latches mid-stream at a batch boundary, which is what
/// detection latency measures.
pub const TAIL_PACKETS: usize = 128;

/// Sessions start at a uniformly random time in the first this many
/// seconds of the capture, as on a real link, instead of all at once.
/// Simultaneous starts would line every flow up: all of them would
/// cross `min_window` together, and all true pairs would latch within a
/// few seconds of each other, so one host stall would delay most of a
/// run's latency samples at once.
const STAGGER_SECS: u64 = 600;

/// When the session of seed `branch` starts.
fn start_time(branch: Seed) -> Timestamp {
    let micros = branch.child(4).value() % (STAGGER_SECS * 1_000_000);
    Timestamp::from_micros(micros as i64)
}

/// One watermarked upstream flow and the correlator configuration that
/// knows its key and watermark.
pub struct Upstream {
    original: Flow,
    marked: Flow,
    correlator: WatermarkCorrelator,
}

/// Everything the generator hands to the pipeline.
pub struct Corpus {
    /// The suspicious stream as pcap bytes.
    pub capture: Vec<u8>,
    /// The wire 5-tuple of each upstream's true downstream flow, indexed
    /// by upstream.
    pub true_tuples: Vec<FiveTuple>,
    upstreams: Vec<Upstream>,
}

/// The wire 5-tuple carrying suspicious flow `index`: injective for up
/// to 65,536 flows. UDP keeps the minimum frame under the generator's
/// packet sizes, so sizes survive the round trip exactly.
fn tuple_for(index: usize) -> FiveTuple {
    let [.., high, low] = (index as u32).to_be_bytes();
    let port = 40_000u16.wrapping_add(index as u16);
    FiveTuple::udp_v4([10, 7, high, low], port, [192, 0, 2, 1], 22)
}

/// Builds `workload`'s corpus from `seed`.
///
/// # Errors
///
/// A flow too short for the watermark layout, or a pcap write failure.
pub fn synthesize(workload: &Workload, seed: u64) -> Result<Corpus, Error> {
    let seed = Seed::new(seed);
    let mut attack = AdversaryPipeline::new()
        .then(UniformPerturbation::new(DELTA))
        .then(ChaffInjector::new(ChaffModel::Poisson { rate: CHAFF_RATE }));
    if workload.loss > 0.0 {
        attack = attack.then(PacketLoss::new(workload.loss));
    }
    let session = SessionGenerator::new(InteractiveProfile::ssh());
    let params = WatermarkParams::small();

    let mut upstreams = Vec::with_capacity(workload.upstreams);
    let mut suspicious: Vec<Flow> = Vec::with_capacity(workload.upstreams + workload.decoys);
    for i in 0..workload.upstreams {
        let branch = seed.child(i as u64);
        let whole = session.generate(
            workload.packets + TAIL_PACKETS,
            start_time(branch),
            &mut branch.child(0).rng(0),
        );
        let (head, tail) = whole.packets().split_at(workload.packets);
        let original = Flow::from_packets(head.iter().copied())?;
        let marker = IpdWatermarker::new(WatermarkKey::new(branch.child(1).value()), params);
        let watermark = Watermark::random(
            params.bits,
            &mut WatermarkKey::new(branch.child(2).value()).rng(1),
        );
        let marked = marker.embed(&original, &watermark)?;
        // The session goes on past the marked prefix, shifted by the
        // delay the embedding added to the prefix's last packet.
        let shift = match (marked.last(), original.last()) {
            (Some(m), Some(o)) => m.timestamp() - o.timestamp(),
            _ => TimeDelta::ZERO,
        };
        let downstream = Flow::from_packets(
            marked
                .iter()
                .copied()
                .chain(tail.iter().map(|p| p.at(p.timestamp() + shift))),
        )?;
        suspicious.push(attack.apply(&downstream, branch.child(3)));
        upstreams.push(Upstream {
            original,
            marked,
            correlator: WatermarkCorrelator::new(marker, watermark, DELTA, Algorithm::GreedyPlus),
        });
    }
    for d in 0..workload.decoys {
        let branch = seed.child(0x1000 + d as u64);
        let decoy = session.generate(
            workload.packets,
            start_time(branch),
            &mut branch.child(0).rng(0),
        );
        suspicious.push(attack.apply(&decoy, branch.child(1)));
    }

    let tagged: Vec<(FiveTuple, &Flow)> = suspicious
        .iter()
        .enumerate()
        .map(|(i, flow)| (tuple_for(i), flow))
        .collect();
    let mut capture = Vec::new();
    write_flows(&mut capture, &tagged)?;
    Ok(Corpus {
        capture,
        true_tuples: (0..workload.upstreams).map(tuple_for).collect(),
        upstreams,
    })
}

impl Corpus {
    /// Binds every upstream's correlator for `workload`'s decode mode.
    ///
    /// # Errors
    ///
    /// A flow the watermark layout does not fit (impossible for flows
    /// [`synthesize`] embedded into).
    pub fn bind(&self, workload: &Workload) -> Result<Vec<BoundCorrelator>, Error> {
        self.upstreams
            .iter()
            .map(|u| {
                u.correlator
                    .bind_backend_with(
                        BackendKind::Paper,
                        workload.decode,
                        CHAFF_RATE,
                        &u.original,
                        &u.marked,
                    )
                    .map_err(Error::from)
            })
            .collect()
    }

    /// The program's set-up: binds every upstream, builds the monitor
    /// and registers the upstreams. Returns the monitor and how long
    /// that took.
    ///
    /// # Errors
    ///
    /// As [`Corpus::bind`].
    pub fn setup(&self, workload: &Workload) -> Result<(Monitor, Duration), Error> {
        let started = Instant::now();
        let bound = self.bind(workload)?;
        let mut monitor = Monitor::new(workload.monitor_config());
        for (i, correlator) in bound.into_iter().enumerate() {
            monitor.register_upstream(UpstreamId(i as u64), correlator);
        }
        Ok((monitor, started.elapsed()))
    }
}
