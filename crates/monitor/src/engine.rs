//! The online correlation engine: flow registry, inline decodes,
//! verdicts.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use stepstone_core::{BoundCorrelator, Correlation, Screen, ScreenState};
use stepstone_flow::{Flow, Packet, SlidingWindow, Timestamp};
use stepstone_telemetry::{span, time, Counter, Histogram, Registry};

use crate::config::MonitorConfig;
use crate::fault::DecodeFault;
use crate::ids::{BuildFlowIdHasher, FlowId, PairId, UpstreamId};
use crate::metrics::EngineMetrics;
use crate::stats::MonitorStats;
use crate::verdict::{DegradeReason, Verdict};

/// Ingests evict-sweep cadence: with an idle timeout configured, every
/// this many accepted packets the engine sweeps for idle flows.
const EVICT_SWEEP_EVERY: u64 = 1024;

/// Per-pair decode bookkeeping.
#[derive(Debug, Clone, Default)]
struct PairState {
    /// The flow's push count covered by the last decoded or screened
    /// boundary.
    decoded_through: u64,
    /// Completed decodes, boundaries screened as unmatched included.
    decodes: u32,
    /// Hamming distance of the latest boundary's decode.
    last_hamming: Option<u32>,
    /// Push count of the boundary `last_hamming` belongs to: a
    /// postponed decode of an earlier boundary, run later, does not
    /// overwrite it.
    hamming_at: u64,
    /// The backend's screening frontier for this pair.
    screen: ScreenState,
    /// Push count of the latest boundary at which the window was
    /// screened over the erasure budget and its decode postponed. The
    /// decode has not run; the window's first that many packets are
    /// its input.
    postponed: Option<u64>,
    /// Push count of the latest boundary whose robust decode reported
    /// erasure demand beyond the budget. Once set, the pair can never
    /// end `Cleared` — the graceful-degradation ladder turns every
    /// would-be clean negative into [`DegradeReason::ErasureBudget`].
    blown_at: Option<u64>,
    /// Erasures reported by that decode.
    erasures: u32,
    /// Decided-bit confidence of that decode (percent).
    confidence: u8,
    /// The pair's verdict was emitted: `Correlated` by a latching
    /// decode, or its terminal negative by the shutdown sweep. The pair
    /// is done: no more decodes, and it has left the active gauge.
    resolved: bool,
    /// The push count and answer of the boundary whose screen proved
    /// that answer for every later boundary (see
    /// [`ScreenState::permanent`]). A parked pair is skipped at its
    /// boundaries, and [`unpark`](Self::unpark) accounts for them when
    /// the pair is next needed.
    parked: Option<(u64, Screen)>,
}

impl PairState {
    /// Counts one decode of the boundary at push count `at`, keeping its
    /// Hamming distance unless a later boundary's is already recorded.
    fn record(&mut self, at: u64, hamming: Option<u32>) {
        self.decodes += 1;
        if at >= self.hamming_at {
            self.hamming_at = at;
            self.last_hamming = hamming;
        }
    }

    /// The push count at which this pair's next boundary falls: once
    /// the window holds `min_window` packets, every `batch` pushes after
    /// the last decoded or screened boundary.
    fn due_at(&self, window: &SlidingWindow, min_window: usize, batch: u64) -> u64 {
        let short = min_window.saturating_sub(window.len()) as u64;
        self.decoded_through
            .saturating_add(batch)
            .max(window.pushed().saturating_add(short))
    }

    /// Screens this pair's decode of `window` at a boundary and
    /// returns the answer; the decode must run if it is
    /// [`Screen::Decode`]. A boundary screened as unmatched is
    /// recorded as the unmatched decode it provably is. One screened
    /// over the erasure budget cannot correlate, but a `Degraded`
    /// verdict may report its erasures, so its decode is postponed: the
    /// pair keeps the boundary's push count, and the decode runs later
    /// on the window's first that many packets (see
    /// [`Monitor::decode_postponed`]). Screens answer `OverBudget`
    /// only while the window has never evicted, so it still holds them.
    fn screen(&mut self, correlator: &BoundCorrelator, window: &SlidingWindow) -> Screen {
        let answer = correlator.screen(window, &mut self.screen);
        self.record_screen(window.pushed(), answer);
        answer
    }

    /// Records the boundary at push count `pushed` as screened with
    /// `answer`, as [`screen`](Self::screen) does; a no-op for
    /// [`Screen::Decode`], whose decode must run.
    fn record_screen(&mut self, pushed: u64, answer: Screen) {
        match answer {
            Screen::Decode => return,
            Screen::Unmatched => self.record(pushed, None),
            Screen::OverBudget => self.postponed = Some(pushed),
        }
        self.decoded_through = pushed;
    }

    /// Parks the pair after its boundary at push count `at` was
    /// screened with `answer`, if the screen proved that answer for
    /// every later boundary; `true` if it did. A robust answer holds
    /// only until the window first evicts, so the engine unparks robust
    /// pairs before that push.
    fn park(
        &mut self,
        correlator: &BoundCorrelator,
        at: u64,
        answer: Screen,
        metrics: &EngineMetrics,
    ) -> bool {
        let budget = correlator.decode_options().erasure_budget as usize;
        let permanent = self.screen.permanent(answer, budget);
        if permanent {
            self.parked = Some((at, answer));
            metrics.pairs_parked.inc();
        }
        permanent
    }

    /// Unparks the pair as of push count `pushed`, recording the
    /// boundaries it skipped as the screen would have: `k`, one every
    /// `batch` pushes after the park point, the last at `last`. Strict
    /// pairs count `k` more unmatched decodes, the latest at `last`;
    /// robust pairs move their postponed decode to `last`. Both count
    /// as decoded through `last`, and the skipped boundaries are
    /// counted in `decodes_screened` now. A no-op if it is not parked.
    fn unpark(&mut self, pushed: u64, batch: u64, metrics: &EngineMetrics) {
        let Some((at, answer)) = self.parked.take() else {
            return;
        };
        metrics.pairs_parked.dec();
        let k = (pushed - at) / batch;
        if k > 0 {
            let last = at + k * batch;
            match answer {
                Screen::Unmatched => {
                    self.decodes += k as u32;
                    self.hamming_at = last;
                    self.last_hamming = None;
                }
                _ => self.postponed = Some(last),
            }
            self.decoded_through = last;
            metrics.decodes_screened.add(k);
        }
    }

    /// Takes the postponed boundary if the pair is unresolved. A decode
    /// of a later boundary that blew the budget makes it redundant, but
    /// it runs anyway — [`note_robust`](Self::note_robust) keeps the
    /// later boundary's numbers — so the windows decoded do not depend
    /// on how the boundaries' outcomes fell.
    fn take_postponed(&mut self) -> Option<u64> {
        let at = self.postponed.take()?;
        (!self.resolved).then_some(at)
    }

    /// Folds the robust outcome of the decode of the boundary at push
    /// count `at` into the ladder state, unless a later boundary's
    /// over-budget decode is already recorded; a no-op for strict
    /// decodes (`outcome.robust` is `None`).
    fn note_robust(&mut self, at: u64, outcome: &Correlation) {
        if let Some(r) = outcome.robust {
            if r.budget_blown && self.blown_at.is_none_or(|blown| blown <= at) {
                self.blown_at = Some(at);
                self.erasures = r.erasures;
                self.confidence = r.confidence_pct;
            }
        }
    }

    /// The terminal verdict for a pair ending without a correlation:
    /// `Cleared` when every decode stayed within the erasure budget,
    /// `Degraded` otherwise — a blown budget means the decodes could
    /// not see enough of the flow to vouch for a clean negative.
    fn terminal_negative(&self, pair: PairId) -> Verdict {
        if self.blown_at.is_some() {
            Verdict::Degraded {
                pair,
                reason: DegradeReason::ErasureBudget {
                    erasures: self.erasures,
                    confidence: self.confidence,
                },
            }
        } else {
            Verdict::Cleared {
                pair,
                hamming: self.last_hamming,
                decodes: self.decodes,
            }
        }
    }
}

/// One tracked suspicious flow.
struct Suspect {
    window: SlidingWindow,
    pairs: BTreeMap<UpstreamId, PairState>,
    /// Push count at which some unparked pair of this flow next reaches
    /// a decode boundary. Ingest skips the per-upstream walk until then.
    next_due: u64,
}

/// The final report returned by [`Monitor::finish`].
#[derive(Debug, Clone)]
pub struct MonitorReport {
    /// Verdicts not yet drained, including those the flush emits: the
    /// `Correlated` verdicts its decodes latch, in flow order, then the
    /// terminal verdicts of the remaining pairs, in pair order.
    pub verdicts: Vec<Verdict>,
    /// Final counter snapshot.
    pub stats: MonitorStats,
}

/// The online multi-flow correlation engine.
///
/// The caller registers watermarked upstream flows once, then feeds a
/// time-ordered stream of `(FlowId, Packet)` events through
/// [`ingest`](Monitor::ingest); the engine windows each suspicious
/// flow and, when a packet brings a (upstream, suspicious) pair to a
/// decode boundary, decodes the pair's window right there, on the
/// calling thread. A latching decode emits its `Correlated` verdict
/// before `ingest` returns, and results surface through
/// [`drain_verdicts`](Monitor::drain_verdicts). Which windows are
/// decoded, every verdict and the verdict order are functions of the
/// event stream alone.
///
/// # Fault tolerance
///
/// A panic during a decode is contained: it is caught, counted in
/// [`MonitorStats::decode_panics`], and folded in as a failed
/// (non-correlating) decode, so ingest carries on and the owning pair
/// still resolves to exactly one terminal verdict. A decode's work is
/// bounded by its window, so no watchdog stands between a decode and
/// ingest.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct Monitor {
    config: MonitorConfig,
    upstreams: BTreeMap<UpstreamId, BoundCorrelator>,
    /// Keyed by program-assigned ids, so hashed unkeyed (see
    /// [`FlowId`]). A map, not a `Vec`: ids may be sparse.
    suspects: HashMap<FlowId, Suspect, BuildFlowIdHasher>,
    /// Verdicts awaiting [`Monitor::drain_verdicts`]. Grows by one per
    /// pair/flow lifecycle event and is bounded by the number of live
    /// pairs between drains; all growth is audited through `emit`.
    // #[bounded(via = "emit")]
    verdicts: VecDeque<Verdict>,
    clock: Option<Timestamp>,
    /// Engine counters live in the telemetry registry; the engine
    /// increments these pre-resolved handles and [`Monitor::stats`]
    /// reads them back, so the stats snapshot and the `/metrics`
    /// endpoint share one source of truth.
    metrics: EngineMetrics,
    /// Decodes run so far: the sequence number the fault hook sees.
    decode_seq: u64,
    /// Accepted packets since start, kept as a plain integer purely to
    /// pace the idle-eviction sweep without summing counter stripes.
    sweep_tick: u64,
}

impl Monitor {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if any sizing field of `config` is zero.
    pub fn new(config: MonitorConfig) -> Self {
        config.validate();
        let registry = config
            .registry
            .clone()
            .unwrap_or_else(|| Arc::new(Registry::new()));
        Monitor {
            config,
            upstreams: BTreeMap::new(),
            suspects: HashMap::default(),
            verdicts: VecDeque::new(),
            clock: None,
            metrics: EngineMetrics::new(registry),
            decode_seq: 0,
            sweep_tick: 0,
        }
    }

    /// The telemetry registry this engine publishes into — hand it to a
    /// [`MetricsServer`](stepstone_telemetry::MetricsServer) to expose
    /// the engine's counters, gauges, and decode-latency histogram over
    /// HTTP.
    #[must_use]
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.metrics.registry)
    }

    /// Registers a watermarked upstream flow. Every tracked suspicious
    /// flow — current and future — becomes a candidate pair with it.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already registered.
    pub fn register_upstream(&mut self, id: UpstreamId, correlator: BoundCorrelator) {
        let previous = self.upstreams.insert(id, correlator);
        assert!(previous.is_none(), "upstream {id} registered twice");
        // Tracked flows have no pair with the new upstream yet: their
        // next packet must walk the upstreams again to create it.
        for suspect in self.suspects.values_mut() {
            suspect.next_due = 0;
        }
    }

    /// Feeds one packet of suspicious flow `flow` into the engine.
    /// Returns `true` if the packet was accepted into the flow's
    /// window; `false` if it was rejected as out-of-order (counted in
    /// [`MonitorStats::packets_rejected`]).
    ///
    /// Runs the decodes of every boundary the packet reaches before
    /// returning.
    pub fn ingest(&mut self, flow: FlowId, packet: Packet) -> bool {
        self.clock = Some(match self.clock {
            Some(t) if t >= packet.timestamp() => t,
            _ => packet.timestamp(),
        });
        let window_capacity = self.config.window_capacity;
        let batch = self.config.decode_batch as u64;
        let metrics = &self.metrics;
        let mut suspect = self.suspects.entry(flow).or_insert_with(|| {
            metrics.flows_active.inc();
            Suspect {
                window: SlidingWindow::new(window_capacity),
                pairs: BTreeMap::new(),
                next_due: 0,
            }
        });
        if suspect.window.is_full() && suspect.window.evicted() == 0 {
            // This push may be the window's first eviction. It ends the
            // robust screen's proofs, so robust pairs parked on one are
            // scheduled again; and decodes postponed on the window's
            // prefix must run while it is whole.
            let pushed = suspect.window.pushed();
            for state in suspect.pairs.values_mut() {
                if matches!(state.parked, Some((_, Screen::OverBudget))) {
                    state.unpark(pushed, batch, metrics);
                    suspect.next_due = suspect.next_due.min(state.decoded_through + batch);
                }
            }
            self.decode_postponed(flow);
            let Some(refetched) = self.suspects.get_mut(&flow) else {
                return false;
            };
            suspect = refetched;
        }
        if suspect.window.push(packet).is_err() {
            self.metrics.packets_rejected.inc();
            return false;
        }
        let due = suspect.window.pushed() >= suspect.next_due;
        self.metrics.packets_ingested.inc();
        // A plain local tick, not `packets_ingested.get()`: summing the
        // counter stripes on every packet is measurable at line rate.
        self.sweep_tick = self.sweep_tick.wrapping_add(1);
        if due {
            self.decode_due(flow);
        }
        if self.config.idle_timeout.is_some() && self.sweep_tick.is_multiple_of(EVICT_SWEEP_EVERY) {
            if let Some(now) = self.clock {
                self.evict_idle(now);
            }
        }
        true
    }

    /// Moves verdicts emitted since the last drain to the caller,
    /// oldest first. Non-blocking.
    pub fn drain_verdicts(&mut self) -> Vec<Verdict> {
        self.verdicts.drain(..).collect()
    }

    /// Evicts suspicious flows idle longer than the configured timeout
    /// as of stream time `now`. Each evicted flow's unresolved pairs
    /// get their terminal verdict, `Cleared`, or `Degraded` if a robust
    /// decode blew the erasure budget, then the flow its `Evicted`
    /// verdict. Returns the number of flows evicted. No-op when no
    /// idle timeout is configured.
    pub fn evict_idle(&mut self, now: Timestamp) -> usize {
        let Some(timeout) = self.config.idle_timeout else {
            return 0;
        };
        // Clone the registry handle so the span guard borrows a local,
        // not `self` (which `emit` below needs mutably).
        let registry = Arc::clone(&self.metrics.registry);
        span!(registry.spans(), "evict_sweep");
        let mut expired: Vec<(FlowId, stepstone_flow::TimeDelta)> = self
            .suspects
            .iter()
            .filter_map(|(&id, s)| {
                let idle = s.window.idle_since(now)?;
                (idle > timeout).then_some((id, idle))
            })
            .collect();
        // Flow order, not the registry's hash order, so the verdicts
        // come out the same on every run.
        expired.sort_unstable_by_key(|&(id, _)| id);
        for &(id, idle) in &expired {
            self.unpark(id);
            self.decode_postponed(id);
            let Some(suspect) = self.suspects.remove(&id) else {
                continue;
            };
            self.metrics.flows_evicted.inc();
            self.metrics.flows_active.dec();
            for (upstream, state) in suspect.pairs {
                if state.resolved {
                    // Latched: already has its verdict and already left
                    // the active gauge.
                    continue;
                }
                self.metrics.pairs_active.dec();
                // Terminal even when never decoded: an eviction must
                // not silently drop a registered pair. A pair whose
                // robust decodes blew the erasure budget ends
                // `Degraded` here, never falsely `Cleared`.
                self.emit(state.terminal_negative(PairId { upstream, flow: id }));
            }
            self.emit(Verdict::Evicted { flow: id, idle });
        }
        expired.len()
    }

    /// A point-in-time snapshot of the engine counters, assembled by
    /// reading the telemetry registry handles back — the same values
    /// `/metrics` renders.
    pub fn stats(&self) -> MonitorStats {
        let m = &self.metrics;
        let flows_active = usize::try_from(m.flows_active.get()).unwrap_or(0);
        let pairs_active = usize::try_from(m.pairs_active.get()).unwrap_or(0);
        // The incrementally-maintained gauges must agree with the
        // state they mirror; recompute the truth in debug builds to
        // catch any missed transition.
        debug_assert_eq!(flows_active, self.suspects.len());
        debug_assert_eq!(
            pairs_active,
            self.suspects
                .values()
                .map(|s| s.pairs.values().filter(|p| !p.resolved).count())
                .sum::<usize>()
        );
        let pairs_parked = usize::try_from(m.pairs_parked.get()).unwrap_or(0);
        debug_assert_eq!(
            pairs_parked,
            self.suspects
                .values()
                .map(|s| s.pairs.values().filter(|p| p.parked.is_some()).count())
                .sum::<usize>()
        );
        MonitorStats {
            packets_ingested: m.packets_ingested.get(),
            packets_rejected: m.packets_rejected.get(),
            flows_active,
            flows_evicted: m.flows_evicted.get(),
            pairs_active,
            pairs_parked,
            pairs_latched: m.pairs_latched.get(),
            decodes_run: m.decodes_run.get(),
            decodes_screened: m.decodes_screened.get(),
            queue_depths: Vec::new(),
            decode_panics: m.decode_panics.get(),
            verdicts_emitted: m.verdicts_emitted(),
        }
    }

    /// Flushes and shuts down: unparks every pair, runs one final
    /// decode for every pair with undecoded packets, plus any decode
    /// still postponed, resolves every remaining pair to a terminal
    /// verdict, and returns the undrained verdicts plus a final stats
    /// snapshot, whose `pairs_active` is 0.
    pub fn finish(mut self) -> MonitorReport {
        // Final decode for every unresolved pair that has data beyond
        // its last decode (or was never decoded at all), in flow order.
        let mut flows: Vec<FlowId> = self.suspects.keys().copied().collect();
        flows.sort_unstable();
        let batch = self.config.decode_batch as u64;
        for flow in flows {
            let Some(suspect) = self.suspects.get_mut(&flow) else {
                continue;
            };
            let pushed = suspect.window.pushed();
            let mut due = Vec::new();
            for (&upstream, correlator) in &self.upstreams {
                let Some(state) = suspect.pairs.get_mut(&upstream) else {
                    continue;
                };
                // A pair still parked has its answer for the final
                // boundary too: strict pairs park only on a permanent
                // `Unmatched`, and robust ones are unparked before the
                // window first evicts, so their `OverBudget` still holds.
                let parked = state.parked.map(|(_, answer)| answer);
                state.unpark(pushed, batch, &self.metrics);
                if state.resolved
                    || suspect.window.len() < min_window(&self.config, correlator)
                    || state.decoded_through >= pushed
                {
                    continue;
                }
                let answer = match parked {
                    Some(answer) => {
                        state.record_screen(pushed, answer);
                        answer
                    }
                    None => state.screen(correlator, &suspect.window),
                };
                if answer == Screen::Decode {
                    due.push(upstream);
                } else {
                    self.metrics.decodes_screened.inc();
                }
            }
            self.decode_boundary(flow, pushed, &due);
            self.decode_postponed(flow);
        }
        // Terminal verdicts for everything still undecided, in
        // deterministic (flow, upstream) order.
        let mut remaining: Vec<(PairId, Verdict)> = Vec::new();
        for (&flow, suspect) in &mut self.suspects {
            for (&upstream, state) in &mut suspect.pairs {
                if !state.resolved {
                    state.resolved = true;
                    self.metrics.pairs_active.dec();
                    // The degradation ladder applies to the shutdown
                    // sweep too: budget-blown pairs end `Degraded`.
                    let pair = PairId { upstream, flow };
                    remaining.push((pair, state.terminal_negative(pair)));
                }
            }
        }
        remaining.sort_unstable_by_key(|&(pair, _)| (pair.flow, pair.upstream));
        for (_, verdict) in remaining {
            self.emit(verdict);
        }
        let stats = self.stats();
        MonitorReport {
            verdicts: self.verdicts.drain(..).collect(),
            stats,
        }
    }

    /// Decodes `flow`'s pairs that have reached a decode boundary,
    /// after screening each one, and sets the flow's `next_due`.
    /// [`ingest`](Self::ingest) calls it only once the flow's push count
    /// reaches `next_due`, so between boundaries a packet costs one
    /// flow lookup. A pair whose screen proves its answer for every
    /// later boundary is parked there: the walk skips it, and it no
    /// longer counts towards `next_due`.
    fn decode_due(&mut self, flow: FlowId) {
        let Some(suspect) = self.suspects.get_mut(&flow) else {
            return;
        };
        if suspect.pairs.len() < self.upstreams.len() {
            // Upstreams registered since the flow's last walk. A fresh
            // pair enters the active gauge (PairState defaults to
            // unresolved).
            for &upstream in self.upstreams.keys() {
                suspect.pairs.entry(upstream).or_insert_with(|| {
                    self.metrics.pairs_active.inc();
                    PairState::default()
                });
            }
        }
        let pushed = suspect.window.pushed();
        let batch = self.config.decode_batch as u64;
        let mut next_due = u64::MAX;
        let mut due = Vec::new();
        // Every upstream has its pair, and both maps iterate in
        // upstream order.
        let pairs = self.upstreams.iter().zip(suspect.pairs.values_mut());
        for ((&upstream, correlator), state) in pairs {
            if state.resolved || state.parked.is_some() {
                continue;
            }
            let due_at = state.due_at(&suspect.window, min_window(&self.config, correlator), batch);
            if due_at > pushed {
                next_due = next_due.min(due_at);
                continue;
            }
            match state.screen(correlator, &suspect.window) {
                Screen::Decode => due.push(upstream),
                answer => {
                    self.metrics.decodes_screened.inc();
                    if state.park(correlator, pushed, answer, &self.metrics) {
                        continue;
                    }
                }
            }
            next_due = next_due.min(pushed.saturating_add(batch));
        }
        suspect.next_due = next_due;
        self.decode_boundary(flow, pushed, &due);
    }

    /// Unparks every parked pair of `flow` (see [`PairState::unpark`]).
    fn unpark(&mut self, flow: FlowId) {
        let Some(suspect) = self.suspects.get_mut(&flow) else {
            return;
        };
        let pushed = suspect.window.pushed();
        let batch = self.config.decode_batch as u64;
        for state in suspect.pairs.values_mut() {
            state.unpark(pushed, batch, &self.metrics);
        }
    }

    /// Runs the postponed decodes of `flow`'s pairs that still have to
    /// run (see [`PairState::take_postponed`]), each on the window
    /// prefix its boundary saw. Runs while the window has never
    /// evicted: in the shutdown flush, before the first eviction, and
    /// at idle eviction.
    fn decode_postponed(&mut self, flow: FlowId) {
        let Some(suspect) = self.suspects.get_mut(&flow) else {
            return;
        };
        let mut due: Vec<(u64, UpstreamId)> = suspect
            .pairs
            .iter_mut()
            .filter_map(|(&upstream, state)| Some((state.take_postponed()?, upstream)))
            .collect();
        due.sort_unstable();
        for boundary in due.chunk_by(|a, b| a.0 == b.0) {
            let upstreams: Vec<UpstreamId> = boundary.iter().map(|&(_, up)| up).collect();
            self.decode_boundary(flow, boundary[0].0, &upstreams);
        }
    }

    /// Decodes the `upstreams` pairs of `flow`'s boundary at push count
    /// `pushed`, all on one snapshot of the packets the window held
    /// then — the whole window for the current boundary, else a prefix
    /// of a window that has never evicted — and folds each outcome into
    /// its pair.
    fn decode_boundary(&mut self, flow: FlowId, pushed: u64, upstreams: &[UpstreamId]) {
        if upstreams.is_empty() {
            return;
        }
        let Some(suspect) = self.suspects.get(&flow) else {
            return;
        };
        let window = &suspect.window;
        debug_assert!(pushed == window.pushed() || window.evicted() == 0);
        let snapshot = window.prefix(pushed.saturating_sub(window.evicted()) as usize);
        for &upstream in upstreams {
            let pair = PairId { upstream, flow };
            let fault = self.next_fault(pair);
            let Some(correlator) = self.upstreams.get(&upstream) else {
                continue;
            };
            let outcome = decode(&self.metrics, correlator, &snapshot, fault);
            self.absorb(pair, pushed, &outcome);
        }
    }

    /// Consults the fault hook, if one is installed, for the next
    /// decode. Sequence numbers count decodes in the order they run.
    fn next_fault(&mut self, pair: PairId) -> DecodeFault {
        let Some(hook) = &self.config.fault_hook else {
            return DecodeFault::None;
        };
        let seq = self.decode_seq;
        self.decode_seq += 1;
        hook.fault(seq, pair)
    }

    /// Folds the decode of `pair`'s boundary at push count `pushed`
    /// into the pair's state; a correlating decode latches the pair and
    /// emits its `Correlated` verdict.
    fn absorb(&mut self, pair: PairId, pushed: u64, outcome: &Correlation) {
        if let Some(r) = outcome.robust {
            self.metrics.decode_erasures.add(u64::from(r.erasures));
        }
        let Some(state) = self
            .suspects
            .get_mut(&pair.flow)
            .and_then(|s| s.pairs.get_mut(&pair.upstream))
        else {
            return;
        };
        state.decoded_through = state.decoded_through.max(pushed);
        state.record(pushed, outcome.hamming);
        state.note_robust(pushed, outcome);
        if outcome.correlated && !state.resolved {
            state.resolved = true;
            self.metrics.pairs_latched.inc();
            // Latched pairs stop being candidates.
            self.metrics.pairs_active.dec();
            self.emit(Verdict::Correlated {
                pair,
                hamming: outcome.hamming.unwrap_or(0),
                cost: outcome.cost + outcome.matching_cost,
            });
        }
    }

    /// The single choke point through which the verdict queue grows.
    fn emit(&mut self, verdict: Verdict) {
        self.metrics.count_verdict(&verdict);
        // Correlated/Cleared are the per-backend decode outcomes;
        // Evicted is per-flow and Degraded is an engine-health event,
        // neither attributable to a backend's decision quality.
        let attributed = match &verdict {
            Verdict::Correlated { pair, .. } => Some((pair.upstream, true)),
            Verdict::Cleared { pair, .. } => Some((pair.upstream, false)),
            Verdict::Evicted { .. } | Verdict::Degraded { .. } => None,
        };
        if let Some((upstream, correlated)) = attributed {
            if let Some(correlator) = self.upstreams.get(&upstream) {
                self.metrics
                    .count_backend_verdict(correlator.backend(), correlated);
            }
        }
        self.verdicts.push_back(verdict);
    }
}

/// Panic payload for an injected decode panic — unwinding with
/// `resume_unwind` keeps the default panic hook (and its backtrace
/// spew) out of scheduled chaos.
struct InjectedPanic;

/// Decodes `window` against `correlator`, timed into the
/// decode-latency histograms, with panic containment; an injected
/// [`DecodeFault::Panic`] fires inside the containment.
fn decode(
    metrics: &EngineMetrics,
    correlator: &BoundCorrelator,
    window: &Flow,
    fault: DecodeFault,
) -> Correlation {
    span!(metrics.registry.spans(), "decode");
    let backend_latency: &Histogram = &metrics.backend_decode_latency[correlator.backend().index()];
    let mode_latency: &Histogram = &metrics.mode_decode_latency[correlator.decode_mode().index()];
    metrics.decodes_run.inc();
    time!(metrics.decode_latency, {
        time!(backend_latency, {
            time!(mode_latency, {
                run_contained(
                    || {
                        if fault == DecodeFault::Panic {
                            // Quiet unwind, caught by the containment.
                            std::panic::resume_unwind(Box::new(InjectedPanic));
                        }
                        correlator.correlate(window)
                    },
                    &metrics.decode_panics,
                )
            })
        })
    })
}

/// Runs one decode with panic containment: a panicking decode is
/// counted and mapped to a failed outcome — not correlated, no
/// watermark, flagged incomplete — so ingest carries on and the pair
/// still resolves. `AssertUnwindSafe` is sound because the closure only
/// reads state the caller consumes afterwards and writes nothing
/// shared.
fn run_contained(decode: impl FnOnce() -> Correlation, panics: &Counter) -> Correlation {
    std::panic::catch_unwind(AssertUnwindSafe(decode)).unwrap_or_else(|_| {
        panics.inc();
        Correlation {
            correlated: false,
            hamming: None,
            best: None,
            cost: 0,
            matching_cost: 0,
            completed: false,
            robust: None,
        }
    })
}

/// The window size a pair needs before decoding is worthwhile: a
/// complete matching needs at least as many suspicious packets as
/// upstream packets, clamped to what the window can ever hold.
///
/// Under `--decode robust` the requirement relaxes by the erasure
/// budget: deletions make a genuine downstream flow *shorter* than its
/// upstream, and the robust decode is built to absorb exactly that many
/// missing packets.
fn min_window(config: &MonitorConfig, correlator: &BoundCorrelator) -> usize {
    let decode = correlator.decode_options();
    let full = correlator.upstream().len();
    let needed = if decode.is_robust() {
        full.saturating_sub(decode.erasure_budget as usize)
    } else {
        full
    };
    needed
        .min(config.window_capacity)
        .max(config.min_window.min(config.window_capacity))
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contained_decode_passes_results_through() {
        let panics = Counter::new();
        let ok = Correlation {
            correlated: true,
            hamming: Some(1),
            best: None,
            cost: 3,
            matching_cost: 4,
            completed: true,
            robust: None,
        };
        let got = run_contained(|| ok.clone(), &panics);
        assert!(got.correlated);
        assert_eq!(got.hamming, Some(1));
        assert_eq!(panics.get(), 0);
    }

    #[test]
    fn contained_decode_maps_panic_to_failed_outcome() {
        // Silence the default hook for the intentional panic; restore
        // it so other tests keep readable failure output.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let panics = Counter::new();
        let got = run_contained(|| panic!("decode bug"), &panics);
        std::panic::set_hook(hook);
        assert!(!got.correlated);
        assert!(!got.completed);
        assert_eq!(got.hamming, None);
        assert_eq!(panics.get(), 1, "panic must be counted exactly once");
        // A second contained panic keeps counting.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let _ = run_contained(|| panic!("again"), &panics);
        std::panic::set_hook(hook);
        assert_eq!(panics.get(), 2);
    }
}
