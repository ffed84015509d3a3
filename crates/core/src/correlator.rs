//! The correlator: matching + algorithm dispatch, and the
//! [`BoundCorrelator`] seam the online monitor decodes through.

use stepstone_backends::{
    BackendKind, CorrelatorBackend, DecodeMode, DecodeOptions, ElicesBackend, ElicesConfig,
    GameBackend, GameConfig, RobustOutcome, Screen, ScreenState,
};
use stepstone_flow::{Flow, SlidingWindow, TimeDelta};
use stepstone_matching::{CostMeter, GappedSets, Matcher, MatchingSets};
use stepstone_watermark::{IpdWatermarker, Watermark, WatermarkError};

use crate::brute::run_brute_force;
use crate::endpoint::EndpointPlan;
use crate::greedy::run_greedy;
use crate::greedy_plus::{decode_selection, improve, repair_order};
use crate::optimal::{exhaustive_search, free_mask_for};
use crate::outcome::{Algorithm, Correlation};
use crate::robust::decode_gapped;

/// How widely the Greedy+ phase-1 simplification prunes matching sets
/// (an ablation knob; see the `ablation_tightening` bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Phase1Scope {
    /// Simplify every upstream packet's matching set (the paper's rule;
    /// for interval matching sets the iterated duplicate-first/last
    /// removal is exactly the strict-increase fixpoint over all
    /// packets). Detects infeasible complete matchings early.
    #[default]
    AllPackets,
    /// Simplify only the embedding packets' matching sets against each
    /// other. Cheaper and more permissive: borderline flows reach the
    /// later phases instead of being rejected in phase 1.
    EmbeddingOnly,
}

/// Correlates suspicious flows against one watermarked upstream flow
/// using a chosen best-watermark algorithm.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct WatermarkCorrelator {
    marker: IpdWatermarker,
    watermark: Watermark,
    delta: TimeDelta,
    algorithm: Algorithm,
    size_quantum: Option<u32>,
    phase1_scope: Phase1Scope,
    decode: DecodeOptions,
}

impl WatermarkCorrelator {
    /// Creates a correlator.
    ///
    /// `delta` is the paper's maximum delay `Δ` (timestamp adjustment
    /// error + attacker perturbation + network delays, §2).
    ///
    /// # Panics
    ///
    /// Panics if the watermark length does not match the marker's
    /// parameters or `delta` is negative.
    pub fn new(
        marker: IpdWatermarker,
        watermark: Watermark,
        delta: TimeDelta,
        algorithm: Algorithm,
    ) -> Self {
        assert_eq!(
            watermark.len(),
            marker.params().bits,
            "watermark length must match the scheme's bit count"
        );
        assert!(!delta.is_negative(), "maximum delay must be non-negative");
        WatermarkCorrelator {
            marker,
            watermark,
            delta,
            algorithm,
            size_quantum: None,
            phase1_scope: Phase1Scope::default(),
            decode: DecodeOptions::strict(),
        }
    }

    /// Overrides the phase-1 simplification scope (ablation knob).
    #[must_use]
    pub fn with_phase1_scope(mut self, scope: Phase1Scope) -> Self {
        self.phase1_scope = scope;
        self
    }

    /// Selects the decode mode: strict (the paper's assumption-1
    /// decoder, the default) or robust (deletion-tolerant, with the
    /// given per-window erasure budget).
    #[must_use]
    pub const fn with_decode(mut self, decode: DecodeOptions) -> Self {
        self.decode = decode;
        self
    }

    /// The decode-layer configuration.
    pub const fn decode_options(&self) -> DecodeOptions {
        self.decode
    }

    /// Enables the quantized-packet-size matching constraint (§3.2).
    #[must_use]
    pub fn with_size_quantum(mut self, quantum: u32) -> Self {
        self.size_quantum = Some(quantum);
        self
    }

    /// The algorithm in use.
    pub const fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The maximum delay `Δ`.
    pub const fn delta(&self) -> TimeDelta {
        self.delta
    }

    /// The original watermark the detector searches for.
    pub const fn watermark(&self) -> &Watermark {
        &self.watermark
    }

    /// The underlying watermarker (key + parameters).
    pub const fn marker(&self) -> &IpdWatermarker {
        &self.marker
    }

    /// Prepares per-upstream state shared across many suspicious flows:
    /// the embedding layout (re-derived from the `original` unmarked
    /// flow, exactly as the embedder derived it) and the flattened
    /// endpoint plan. `marked` is the watermarked flow as observed on
    /// the wire — the timestamps matching runs against.
    ///
    /// # Errors
    ///
    /// Returns [`WatermarkError::FlowTooShort`] if `original` cannot
    /// host the layout, and [`WatermarkError::LengthMismatch`] if
    /// `marked` does not have the same number of packets as `original`.
    pub fn prepare<'a>(
        &'a self,
        original: &Flow,
        marked: &'a Flow,
    ) -> Result<PreparedCorrelator<'a>, WatermarkError> {
        let plan = self.plan_for(original, marked)?;
        Ok(PreparedCorrelator {
            cfg: self,
            upstream: marked,
            plan,
        })
    }

    /// Like [`prepare`](Self::prepare), but produces a self-contained
    /// correlator that owns its configuration, upstream flow and
    /// embedding plan. A [`BoundCorrelator`] is `Send + Sync`, so it can
    /// be shared across worker threads (e.g. by `stepstone-monitor`'s
    /// shard pool) without tying the workers to the caller's lifetimes.
    ///
    /// # Errors
    ///
    /// Same contract as [`prepare`](Self::prepare).
    pub fn bind(&self, original: &Flow, marked: &Flow) -> Result<BoundCorrelator, WatermarkError> {
        let plan = self.plan_for(original, marked)?;
        Ok(BoundCorrelator::Paper(PaperBackend {
            cfg: self.clone(),
            upstream: marked.clone(),
            plan,
        }))
    }

    /// Binds any [`BackendKind`] to the same upstream pair, producing
    /// the dispatchable [`BoundCorrelator`] the monitor registers.
    ///
    /// The paper backend needs the unmarked `original` to re-derive the
    /// embedding layout; the passive backends correlate against the
    /// wire-observed `marked` flow alone, and take `chaff_rate` (chaff
    /// packets per second; 0 = unknown, estimated per window) as their
    /// only channel knowledge. `Δ` and any size quantum come from this
    /// correlator's configuration, so all backends face the same
    /// channel model.
    ///
    /// # Errors
    ///
    /// Same contract as [`prepare`](Self::prepare); the passive
    /// backends cannot fail.
    pub fn bind_backend(
        &self,
        kind: BackendKind,
        chaff_rate: f64,
        original: &Flow,
        marked: &Flow,
    ) -> Result<BoundCorrelator, WatermarkError> {
        self.bind_backend_with(kind, self.decode, chaff_rate, original, marked)
    }

    /// [`bind_backend`](Self::bind_backend) with an explicit decode
    /// mode: the strict/robust choice and erasure budget are pushed
    /// into every backend's configuration, so all three backends
    /// upgrade (or stay strict) together.
    ///
    /// # Errors
    ///
    /// Same contract as [`prepare`](Self::prepare).
    pub fn bind_backend_with(
        &self,
        kind: BackendKind,
        decode: DecodeOptions,
        chaff_rate: f64,
        original: &Flow,
        marked: &Flow,
    ) -> Result<BoundCorrelator, WatermarkError> {
        match kind {
            BackendKind::Paper => {
                let cfg = self.clone().with_decode(decode);
                let plan = cfg.plan_for(original, marked)?;
                Ok(BoundCorrelator::Paper(PaperBackend {
                    cfg,
                    upstream: marked.clone(),
                    plan,
                }))
            }
            BackendKind::Elices => Ok(ElicesBackend::bind(
                ElicesConfig::new(self.delta)
                    .with_chaff_rate(chaff_rate)
                    .with_decode(decode),
                marked,
            )
            .into()),
            BackendKind::Game => Ok(GameBackend::bind(
                GameConfig::new(self.delta).with_decode(decode),
                marked,
            )
            .into()),
        }
    }

    /// The matcher every strict decode runs: `Δ` plus the optional
    /// size quantum.
    fn matcher(&self) -> Matcher {
        let matcher = Matcher::new(self.delta);
        match self.size_quantum {
            Some(q) => matcher.with_size_quantum(q),
            None => matcher,
        }
    }

    fn plan_for(&self, original: &Flow, marked: &Flow) -> Result<EndpointPlan, WatermarkError> {
        if original.len() != marked.len() {
            return Err(WatermarkError::LengthMismatch {
                expected: original.len(),
                actual: marked.len(),
            });
        }
        let layout = self.marker.layout_for_flow(original)?;
        Ok(EndpointPlan::build(&layout, &self.watermark))
    }
}

/// A correlator bound to one watermarked upstream flow; cheap to reuse
/// against many suspicious flows (e.g. false-positive sweeps).
///
/// Produced by [`WatermarkCorrelator::prepare`].
#[derive(Debug, Clone)]
pub struct PreparedCorrelator<'a> {
    cfg: &'a WatermarkCorrelator,
    upstream: &'a Flow,
    plan: EndpointPlan,
}

impl PreparedCorrelator<'_> {
    /// The upstream (watermarked) flow.
    pub fn upstream(&self) -> &Flow {
        self.upstream
    }

    /// Decides whether `suspicious` is a downstream flow of the prepared
    /// upstream flow, reporting the paper's three measurables: the
    /// decision, the best watermark's Hamming distance, and the cost in
    /// packet accesses.
    pub fn correlate(&self, suspicious: &Flow) -> Correlation {
        Engine {
            cfg: self.cfg,
            upstream: self.upstream,
            plan: &self.plan,
        }
        .correlate(suspicious)
    }
}

/// The paper's best-watermark search bound to one watermarked upstream
/// flow — the [`BackendKind::Paper`] implementation of
/// [`CorrelatorBackend`]. Owns its configuration, upstream flow and
/// embedding plan, so it is `Send + Sync` and thread-shareable.
#[derive(Debug, Clone)]
pub struct PaperBackend {
    cfg: WatermarkCorrelator,
    upstream: Flow,
    plan: EndpointPlan,
}

impl PaperBackend {
    /// The correlator configuration this instance was bound from.
    pub fn config(&self) -> &WatermarkCorrelator {
        &self.cfg
    }

    /// The upstream (watermarked) flow.
    pub fn upstream(&self) -> &Flow {
        &self.upstream
    }

    /// Decides whether `suspicious` is a downstream flow of the bound
    /// upstream flow. Identical semantics (and identical costs) to
    /// [`PreparedCorrelator::correlate`].
    pub fn correlate(&self, suspicious: &Flow) -> Correlation {
        Engine {
            cfg: &self.cfg,
            upstream: &self.upstream,
            plan: &self.plan,
        }
        .correlate(suspicious)
    }
}

impl CorrelatorBackend for PaperBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Paper
    }

    fn decode_options(&self) -> DecodeOptions {
        self.cfg.decode
    }

    fn upstream(&self) -> &Flow {
        &self.upstream
    }

    fn decode(&self, suspicious: &Flow) -> Correlation {
        self.correlate(suspicious)
    }

    /// Strict decodes abort on an empty matching set, so the matcher's
    /// strict screen applies. Robust decodes absorb empty sets as
    /// erasures and can correlate on a window that has not yet reached
    /// the upstream's last packet; the robust screen, walking the same
    /// frontier, proves them over the erasure budget only on a window
    /// that has never evicted, where its erasure count is exact. There
    /// `correlate_robust` reports `budget_blown`, never correlated.
    fn screen(&self, window: &SlidingWindow, state: &mut ScreenState) -> Screen {
        let matcher = self.cfg.matcher();
        if self.cfg.decode.is_robust() {
            let budget = self.cfg.decode.erasure_budget as usize;
            matcher.screen_robust(&self.upstream, window, budget, state)
        } else {
            matcher.screen(&self.upstream, window, state)
        }
    }
}

/// An owned, thread-shareable correlator bound to one upstream flow:
/// one enum arm per [`BackendKind`], dispatching every decode to the
/// arm's [`CorrelatorBackend`] implementation.
///
/// Produced by [`WatermarkCorrelator::bind`] (always the paper arm) or
/// [`WatermarkCorrelator::bind_backend`]. Unlike [`PreparedCorrelator`]
/// it borrows nothing, so it can be wrapped in an `Arc` and decoded
/// against on any thread — the shape the online monitor's sharded
/// worker pool needs. The monitor and cluster never look inside the
/// arms: adding a backend means one crate module plus one arm here,
/// with zero engine changes.
#[derive(Debug, Clone)]
pub enum BoundCorrelator {
    /// The paper's best-watermark search (`stepstone-core`).
    Paper(PaperBackend),
    /// The Elices/Pérez-González IPD likelihood-ratio test.
    Elices(ElicesBackend),
    /// The game-theoretic coverage linker.
    Game(GameBackend),
}

impl BoundCorrelator {
    /// Which backend decodes for this correlator.
    pub fn backend(&self) -> BackendKind {
        self.as_backend().kind()
    }

    /// Which decode mode (strict or robust) this correlator runs.
    pub fn decode_mode(&self) -> DecodeMode {
        self.as_backend().decode_mode()
    }

    /// The full decode configuration, budget included.
    pub fn decode_options(&self) -> DecodeOptions {
        self.as_backend().decode_options()
    }

    /// The upstream flow (as observed on the wire).
    pub fn upstream(&self) -> &Flow {
        self.as_backend().upstream()
    }

    /// Decides whether `suspicious` is a downstream flow of the bound
    /// upstream flow, whatever the backend.
    pub fn correlate(&self, suspicious: &Flow) -> Correlation {
        self.as_backend().decode(suspicious)
    }

    /// Screens the decode of `window` before it is scheduled (see
    /// [`CorrelatorBackend::screen`]).
    pub fn screen(&self, window: &SlidingWindow, state: &mut ScreenState) -> Screen {
        self.as_backend().screen(window, state)
    }

    /// The active arm as a trait object — the single dispatch point.
    pub fn as_backend(&self) -> &dyn CorrelatorBackend {
        match self {
            BoundCorrelator::Paper(backend) => backend,
            BoundCorrelator::Elices(backend) => backend,
            BoundCorrelator::Game(backend) => backend,
        }
    }
}

impl From<PaperBackend> for BoundCorrelator {
    fn from(backend: PaperBackend) -> Self {
        BoundCorrelator::Paper(backend)
    }
}

impl From<ElicesBackend> for BoundCorrelator {
    fn from(backend: ElicesBackend) -> Self {
        BoundCorrelator::Elices(backend)
    }
}

impl From<GameBackend> for BoundCorrelator {
    fn from(backend: GameBackend) -> Self {
        BoundCorrelator::Game(backend)
    }
}

/// The shared correlate implementation, borrowing whatever storage the
/// public wrappers use.
struct Engine<'a> {
    cfg: &'a WatermarkCorrelator,
    upstream: &'a Flow,
    plan: &'a EndpointPlan,
}

impl Engine<'_> {
    fn correlate(&self, suspicious: &Flow) -> Correlation {
        if self.cfg.decode.is_robust() {
            return self.correlate_robust(suspicious);
        }
        let cfg = self.cfg;
        let threshold = cfg.marker.params().threshold;
        let wanted = &cfg.watermark;
        let mut meter = CostMeter::new();
        let Some(mut sets) = cfg
            .matcher()
            .matching_sets(self.upstream, suspicious, &mut meter)
        else {
            // Greedy never gets to decode, so under the paper's cost
            // convention (matching is not charged to Greedy) a failed
            // matching costs it nothing.
            let cost = if matches!(cfg.algorithm, Algorithm::Greedy) {
                0
            } else {
                meter.count()
            };
            return Correlation::unmatched(cost, meter.count());
        };
        let matching_cost = meter.count();

        match cfg.algorithm {
            Algorithm::Greedy => {
                let (_, state) = run_greedy(self.plan, &sets, suspicious, &mut meter);
                let hamming = state.hamming(wanted);
                Correlation {
                    correlated: hamming <= threshold,
                    hamming: Some(hamming),
                    best: Some(state.watermark()),
                    cost: meter.count() - matching_cost,
                    matching_cost,
                    completed: true,
                    robust: None,
                }
            }
            Algorithm::GreedyPlus => {
                let (mut sel, mut state, fixable) =
                    match self.phases_1_to_3(&mut sets, suspicious, matching_cost, &mut meter) {
                        Phases::Unrelated => {
                            return Correlation::unmatched(meter.count(), matching_cost)
                        }
                        Phases::EarlyReject(c) => return c,
                        Phases::Ready(x) => x,
                    };
                let mut hamming = state.hamming(wanted);
                if hamming > threshold {
                    improve(
                        self.plan, &sets, suspicious, &mut sel, &mut state, wanted, threshold,
                        &fixable, &mut meter, None,
                    );
                    hamming = state.hamming(wanted);
                }
                Correlation {
                    correlated: hamming <= threshold,
                    hamming: Some(hamming),
                    best: Some(state.watermark()),
                    cost: meter.count(),
                    matching_cost,
                    completed: true,
                    robust: None,
                }
            }
            Algorithm::Optimal { cost_bound } => {
                let (sel, state, fixable) =
                    match self.phases_1_to_3(&mut sets, suspicious, matching_cost, &mut meter) {
                        Phases::Unrelated => {
                            return Correlation::unmatched(meter.count(), matching_cost)
                        }
                        Phases::EarlyReject(c) => return c,
                        Phases::Ready(x) => x,
                    };
                let hamming = state.hamming(wanted);
                if hamming <= threshold {
                    return Correlation {
                        correlated: true,
                        hamming: Some(hamming),
                        best: Some(state.watermark()),
                        cost: meter.count(),
                        matching_cost,
                        completed: true,
                        robust: None,
                    };
                }
                let free = free_mask_for(self.plan, &state, wanted, &fixable);
                let r = exhaustive_search(
                    self.plan, &sets, suspicious, &sel, &state, &free, wanted, threshold,
                    cost_bound, &mut meter,
                );
                let hamming = r.state.hamming(wanted);
                Correlation {
                    correlated: hamming <= threshold,
                    hamming: Some(hamming),
                    best: Some(r.state.watermark()),
                    cost: meter.count(),
                    matching_cost,
                    completed: r.completed,
                    robust: None,
                }
            }
            Algorithm::BruteForce { cost_bound } => {
                if !self.phase1(&mut sets, &mut meter) {
                    return Correlation::unmatched(meter.count(), matching_cost);
                }
                let r = run_brute_force(
                    self.plan, &sets, suspicious, wanted, threshold, cost_bound, &mut meter,
                );
                let hamming = r.state.hamming(wanted);
                Correlation {
                    correlated: hamming <= threshold,
                    hamming: Some(hamming),
                    best: Some(r.state.watermark()),
                    cost: meter.count(),
                    matching_cost,
                    completed: r.completed,
                    robust: None,
                }
            }
        }
    }

    /// The deletion-robust decode (`--decode robust`): gap-tolerant
    /// matching charges erasures instead of aborting, the tolerant
    /// tightening propagates order constraints across the gaps, and the
    /// greedy sign rule reads a [`stepstone_watermark::SoftWatermark`]
    /// whose erased bits are excluded from the Hamming comparison.
    ///
    /// The decision is deliberately conservative on damaged evidence:
    ///
    /// - the detection threshold is scaled down to the decided bits
    ///   (`⌊threshold · decided / bits⌋`), so a half-erased watermark
    ///   does not inherit the full-length error allowance;
    /// - at least half the bits must survive;
    /// - a window whose erasure demand exceeds the budget never
    ///   correlates — it is flagged `budget_blown`, and the monitor
    ///   reports such pairs `Degraded` instead of `Cleared`.
    ///
    /// The configured [`Algorithm`] only keeps its cost convention here
    /// (Greedy is not billed for matching); the selection rule is
    /// always Greedy's, whose Hamming distance lower-bounds every
    /// order-respecting algorithm's — the safe direction when deciding
    /// against a threshold.
    fn correlate_robust(&self, suspicious: &Flow) -> Correlation {
        let cfg = self.cfg;
        let threshold = cfg.marker.params().threshold;
        let wanted = &cfg.watermark;
        let mut meter = CostMeter::new();
        let mut sets = GappedSets::compute(&cfg.matcher(), self.upstream, suspicious, &mut meter);
        let _ = sets.tighten(&mut meter);
        let matching_cost = meter.count();
        let g = decode_gapped(self.plan, &sets, suspicious, &mut meter);
        let budget_blown = g.slot_erasures > cfg.decode.erasure_budget as usize;
        let bits = self.plan.bits;
        let decided = g.soft.decided();
        let hamming = g.soft.hamming_to(wanted);
        let scaled_threshold = (threshold as usize * decided)
            .checked_div(bits)
            .unwrap_or(0) as u32;
        let correlated =
            !budget_blown && bits > 0 && decided * 2 >= bits && hamming <= scaled_threshold;
        let cost = if matches!(cfg.algorithm, Algorithm::Greedy) {
            meter.count() - matching_cost
        } else {
            meter.count()
        };
        Correlation {
            correlated,
            hamming: (decided > 0).then_some(hamming),
            best: (decided > 0).then(|| g.soft.to_watermark(false)),
            cost,
            matching_cost,
            completed: true,
            robust: Some(RobustOutcome {
                erasures: g.slot_erasures.min(u32::MAX as usize) as u32,
                budget_blown,
                confidence_pct: g.soft.confidence_pct(),
            }),
        }
    }

    /// Runs the phase-1 simplification under the configured scope.
    fn phase1(&self, sets: &mut MatchingSets, meter: &mut CostMeter) -> bool {
        match self.cfg.phase1_scope {
            Phase1Scope::AllPackets => sets.tighten(meter),
            Phase1Scope::EmbeddingOnly => sets.tighten_subset(&self.plan.ups(), meter),
        }
    }

    /// Phases 1–3 shared by Greedy+ and Optimal: tighten, Greedy with
    /// early reject, order repair.
    fn phases_1_to_3(
        &self,
        sets: &mut MatchingSets,
        suspicious: &Flow,
        matching_cost: u64,
        meter: &mut CostMeter,
    ) -> Phases {
        let wanted = &self.cfg.watermark;
        let threshold = self.cfg.marker.params().threshold;
        // Phase 1: simplification (the paper's duplicate-first/last
        // removal; scope per configuration).
        if !self.phase1(sets, meter) {
            return Phases::Unrelated;
        }
        // Phase 2: Greedy early reject — bits Greedy cannot decode will
        // not match under any order-consistent selection either.
        let (greedy_sel, greedy_state) = run_greedy(self.plan, sets, suspicious, meter);
        let greedy_hamming = greedy_state.hamming(wanted);
        if greedy_hamming > threshold {
            return Phases::EarlyReject(Correlation {
                correlated: false,
                hamming: Some(greedy_hamming),
                best: Some(greedy_state.watermark()),
                cost: meter.count(),
                matching_cost,
                completed: true,
                robust: None,
            });
        }
        let fixable: Vec<bool> = (0..self.plan.bits)
            .map(|b| greedy_state.matches(b, wanted))
            .collect();
        // Phase 3: repair order conflicts.
        let sel = repair_order(self.plan, sets, &greedy_sel, meter);
        let state = decode_selection(self.plan, &sel, suspicious, meter);
        Phases::Ready((sel, state, fixable))
    }
}

/// Outcome of the shared Greedy+/Optimal preparation phases.
enum Phases {
    /// Tightening proved no complete order-consistent matching exists.
    Unrelated,
    /// Greedy already exceeds the threshold — report and stop.
    EarlyReject(Correlation),
    /// Repaired selection, its decode state, and the per-bit fixability
    /// mask (bits Greedy decoded correctly).
    Ready((Vec<u32>, crate::endpoint::BitState, Vec<bool>)),
}
