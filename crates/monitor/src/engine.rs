//! The online correlation engine: registry, shard pool, verdicts.

use std::collections::{btree_map, BTreeMap, HashMap, VecDeque};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Instant;

use stepstone_core::{BackendKind, BoundCorrelator, Correlation, Screen, ScreenState};
use stepstone_flow::{Packet, SlidingWindow, Timestamp};
use stepstone_telemetry::{span, Registry};

use crate::config::MonitorConfig;
use crate::ids::{FlowId, PairId, UpstreamId};
use crate::metrics::EngineMetrics;
use crate::queue::{shard_queue, ShardGauges, ShardSender};
use crate::stats::MonitorStats;
use crate::supervisor::{Completion, DecodeJob, Supervisor, WorkerEvent};
use crate::verdict::{DegradeReason, Verdict};

/// Ingests evict-sweep cadence: with an idle timeout configured, every
/// this many accepted packets the engine sweeps for idle flows.
const EVICT_SWEEP_EVERY: u64 = 1024;

/// Per-pair decode bookkeeping, owned by the control side.
#[derive(Debug, Clone, Default)]
struct PairState {
    /// Decode jobs for this pair queued or running.
    in_flight: u32,
    /// The flow's push count covered by the last scheduled or screened
    /// decode.
    decoded_through: u64,
    /// Completed decodes, boundaries screened as unmatched included.
    decodes: u32,
    /// Hamming distance of the latest boundary's decode.
    last_hamming: Option<u32>,
    /// Push count of the boundary `last_hamming` belongs to: an outcome
    /// of an earlier boundary, arriving late, does not overwrite it.
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
    /// A terminal verdict was emitted for the pair — latched
    /// `Correlated` or stall-degraded. The pair is done: no more
    /// scheduling, and the shutdown sweep skips it.
    resolved: bool,
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
    /// the last scheduled or screened decode.
    fn due_at(&self, window: &SlidingWindow, min_window: usize, batch: u64) -> u64 {
        let short = min_window.saturating_sub(window.len()) as u64;
        self.decoded_through
            .saturating_add(batch)
            .max(window.pushed().saturating_add(short))
    }

    /// Screens this pair's decode of `window` at a boundary; `true` if
    /// the decode must run. A boundary screened as unmatched is
    /// recorded as the unmatched decode it provably is. One screened
    /// over the erasure budget cannot correlate, but a `Degraded`
    /// verdict may report its erasures, so its decode is postponed: the
    /// pair keeps the boundary's push count, and the decode runs later
    /// on the window's first that many packets (see
    /// [`Monitor::submit_postponed`]). Only a window that has never
    /// evicted still holds them; an evicted one decodes at once.
    fn screen(&mut self, correlator: &BoundCorrelator, window: &SlidingWindow) -> bool {
        let pushed = window.pushed();
        match correlator.screen(window, &mut self.screen) {
            Screen::Decode => return true,
            Screen::Unmatched => self.record(pushed, None),
            Screen::OverBudget if window.evicted() == 0 => self.postponed = Some(pushed),
            Screen::OverBudget => return true,
        }
        self.decoded_through = pushed;
        false
    }

    /// Takes the postponed boundary if the pair is unresolved. A
    /// completed decode of a later boundary that blew the budget would
    /// make the decode redundant, but whether it has completed yet
    /// depends on worker timing, so it is not consulted: the decode
    /// runs, and [`note_robust`](Self::note_robust) keeps the later
    /// boundary's numbers.
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
    /// Push count at which some pair of this flow next reaches a decode
    /// boundary. Ingest skips the per-upstream walk until then.
    next_due: u64,
    /// Tells this tracking of the flow apart from an earlier one under
    /// the same [`FlowId`], ended by eviction, in the jobs it schedules.
    instance: u64,
}

/// The final report returned by [`Monitor::finish`].
#[derive(Debug, Clone)]
pub struct MonitorReport {
    /// Verdicts not yet drained, including the terminal `Cleared`
    /// verdicts emitted during the flush (pair order, deterministic).
    pub verdicts: Vec<Verdict>,
    /// Final counter snapshot.
    pub stats: MonitorStats,
}

/// The single-threaded control half of the engine: flow registry, pair
/// bookkeeping, verdict buffer and counters. Split from [`Monitor`] so
/// completion pumping can run while a shard sender is borrowed (the
/// borrow is disjoint field-by-field), keeping the shutdown flush
/// deadlock-free.
struct Control {
    suspects: HashMap<FlowId, Suspect>,
    /// Pairs whose flow was evicted while a decode was in flight; kept
    /// so the completion still resolves to a terminal verdict.
    orphans: HashMap<PairId, PairState>,
    /// Which backend decodes each registered upstream, so terminal
    /// verdicts can be counted under their backend label without
    /// touching the correlator `Arc`s.
    backends: BTreeMap<UpstreamId, BackendKind>,
    /// Verdicts awaiting [`Monitor::drain_verdicts`]. Grows by one per
    /// pair/flow lifecycle event and is bounded by the number of live
    /// pairs between drains; all growth is audited through `emit`.
    // #[bounded(via = "emit")]
    verdicts: VecDeque<Verdict>,
    clock: Option<Timestamp>,
    /// Engine counters live in the telemetry registry; `Control`
    /// increments these pre-resolved handles and
    /// [`Monitor::stats`] reads them back, so the stats snapshot and
    /// the `/metrics` endpoint share one source of truth.
    metrics: Arc<EngineMetrics>,
}

impl Control {
    fn new(metrics: Arc<EngineMetrics>) -> Self {
        Control {
            suspects: HashMap::new(),
            orphans: HashMap::new(),
            backends: BTreeMap::new(),
            verdicts: VecDeque::new(),
            clock: None,
            metrics,
        }
    }

    /// Drains worker events without blocking: completions update pair
    /// state and may emit `Correlated`; death notices account the lost
    /// job and hand the shard to the supervisor, which also gets its
    /// respawn poll here (the pump runs on every ingest).
    fn pump(&mut self, done_rx: &Receiver<WorkerEvent>, supervisor: &mut Supervisor) {
        while let Ok(event) = done_rx.try_recv() {
            match event {
                WorkerEvent::Done(done) => self.absorb(done),
                WorkerEvent::Died { shard, inflight } => {
                    supervisor.note_death(shard);
                    let Some(pair) = inflight else { continue };
                    // The job died dequeued-but-incomplete; account it
                    // so `dequeued == decodes_run + jobs_lost` holds.
                    self.metrics.jobs_lost.inc();
                    if let Some(state) = self
                        .suspects
                        .get_mut(&pair.flow)
                        .and_then(|s| s.pairs.get_mut(&pair.upstream))
                    {
                        // The pair gets another chance: new packets (or
                        // the shutdown flush) schedule a fresh decode.
                        state.in_flight = state.in_flight.saturating_sub(1);
                    } else if let Some(state) = self.orphans.get_mut(&pair) {
                        state.in_flight = state.in_flight.saturating_sub(1);
                        if state.in_flight == 0 {
                            // Evicted mid-decode and its last decode
                            // died with its worker: degraded is the
                            // terminal word.
                            self.orphans.remove(&pair);
                            self.emit(Verdict::Degraded {
                                pair,
                                reason: DegradeReason::WorkerLost,
                            });
                        }
                    }
                }
            }
        }
        supervisor.respawn_due(false);
    }

    /// Applies one completed decode to its pair.
    fn absorb(&mut self, done: Completion) {
        let Completion {
            pair,
            outcome,
            pushed,
        } = done;
        let state = match self.suspects.get_mut(&pair.flow) {
            Some(s) => s.pairs.get_mut(&pair.upstream),
            None => None,
        };
        let Some(outcome) = outcome else {
            // Answered without a decode: the pair latched on an earlier
            // job, so its verdict is out and the job only releases it.
            if let Some(state) = state {
                state.in_flight = state.in_flight.saturating_sub(1);
                state.decodes += 1;
            }
            return;
        };
        if let Some(r) = outcome.robust {
            self.metrics.decode_erasures.add(u64::from(r.erasures));
        }
        if let Some(state) = state {
            state.in_flight = state.in_flight.saturating_sub(1);
            state.record(pushed, outcome.hamming);
            state.note_robust(pushed, &outcome);
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
        } else if let Some(state) = self.orphans.get_mut(&pair) {
            // The flow was evicted mid-decode: the pair's last
            // completion, or its first correlating one, is its terminal
            // word. (The pair left the active gauge when its flow was
            // evicted.)
            state.in_flight = state.in_flight.saturating_sub(1);
            state.record(pushed, outcome.hamming);
            state.note_robust(pushed, &outcome);
            if !outcome.correlated && state.in_flight > 0 {
                return;
            }
            let Some(state) = self.orphans.remove(&pair) else {
                return;
            };
            if outcome.correlated {
                self.metrics.pairs_latched.inc();
                self.emit(Verdict::Correlated {
                    pair,
                    hamming: outcome.hamming.unwrap_or(0),
                    cost: outcome.cost + outcome.matching_cost,
                });
            } else {
                self.emit(state.terminal_negative(pair));
            }
        }
    }

    /// `true` while any pair still has a queued or running decode.
    fn any_in_flight(&self) -> bool {
        !self.orphans.is_empty()
            || self
                .suspects
                .values()
                .any(|s| s.pairs.values().any(|p| p.in_flight > 0))
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
            if let Some(&backend) = self.backends.get(&upstream) {
                self.metrics.count_backend_verdict(backend, correlated);
            }
        }
        self.verdicts.push_back(verdict);
    }
}

/// The online multi-flow correlation engine.
///
/// A `Monitor` owns a pool of decode worker threads ("shards"). The
/// caller registers watermarked upstream flows once, then feeds a
/// time-ordered stream of `(FlowId, Packet)` events through
/// [`ingest`](Monitor::ingest); the engine windows each suspicious
/// flow, schedules (upstream, suspicious) pair decodes onto the shard
/// owning the pair, and surfaces results through
/// [`drain_verdicts`](Monitor::drain_verdicts). Every batch boundary
/// is decoded: when a shard queue is full, ingest blocks, absorbing
/// completions while it waits, so which windows are decoded — and
/// therefore every terminal verdict — depends only on the event stream.
///
/// # Fault tolerance
///
/// A worker panic during a decode is contained: the panic is caught,
/// counted in [`MonitorStats::worker_panics`], and reported as a
/// failed (non-correlating) decode, so the owning pair still resolves
/// to a terminal verdict instead of wedging [`finish`](Monitor::finish).
///
/// A panic that kills the worker thread outright is survived: the
/// supervisor respawns the shard's worker with capped exponential
/// backoff ([`MonitorStats::worker_restarts`]), the job that died with
/// the worker is accounted ([`MonitorStats::jobs_lost`]) and its pair
/// released to retry, and queued jobs survive because the queue's
/// receiving side outlives the worker. An optional watchdog
/// ([`MonitorConfig::stall_timeout`]) flags wedged shards, whose pairs
/// are degraded instead of scheduled or waited on. Every such giving-up
/// is an explicit [`Verdict::Degraded`] — the engine never silently
/// drops a registered pair.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct Monitor {
    config: MonitorConfig,
    upstreams: BTreeMap<UpstreamId, Arc<BoundCorrelator>>,
    control: Control,
    shards: Vec<ShardSender<DecodeJob>>,
    /// Gauge handles outliving `shards`, so the final stats snapshot in
    /// [`finish`](Monitor::finish) still sees per-shard depths/drops
    /// after the senders are dropped to release the workers.
    gauges: Vec<ShardGauges>,
    done_rx: Receiver<WorkerEvent>,
    /// Owns worker threads and restart policy. Declared after `shards`
    /// and `done_rx` so that on a plain drop the senders and the done
    /// receiver go first, letting workers exit before the supervisor's
    /// drop joins them.
    supervisor: Supervisor,
    /// Accepted packets since start, kept as a plain integer purely to
    /// pace the idle-eviction sweep without summing counter stripes.
    sweep_tick: u64,
    /// Flows tracked so far: the next [`Suspect::instance`].
    flows_tracked: u64,
}

impl Monitor {
    /// Creates an engine and spawns its shard workers.
    ///
    /// # Panics
    ///
    /// Panics if any sizing field of `config` is zero or a worker
    /// thread cannot be spawned.
    pub fn new(config: MonitorConfig) -> Self {
        config.validate();
        let registry = config
            .registry
            .clone()
            .unwrap_or_else(|| Arc::new(Registry::new()));
        let metrics = Arc::new(EngineMetrics::new(registry));
        // The done channel is intentionally unbounded: its occupancy is
        // bounded by construction — at most (queue_capacity + 1) jobs
        // per shard are ever in flight, each contributing one
        // completion (or one death notice), and the control side drains
        // on every ingest.
        // lint: allow(bounded_queue) occupancy bounded by shards * (queue_capacity + 1) in-flight jobs
        let (done_tx, done_rx) = std::sync::mpsc::channel::<WorkerEvent>();
        let mut shards = Vec::with_capacity(config.shards);
        let mut receivers = Vec::with_capacity(config.shards);
        for _ in 0..config.shards {
            let (tx, rx) = shard_queue::<DecodeJob>(config.queue_capacity);
            shards.push(tx);
            receivers.push(rx);
        }
        let gauges: Vec<ShardGauges> = shards.iter().map(ShardSender::gauges).collect();
        for (shard, shard_gauges) in gauges.iter().enumerate() {
            metrics.register_shard(shard, shard_gauges);
        }
        let supervisor = Supervisor::new(
            &config,
            Arc::clone(&metrics),
            receivers,
            gauges.clone(),
            done_tx,
        );
        Monitor {
            config,
            upstreams: BTreeMap::new(),
            control: Control::new(metrics),
            shards,
            gauges,
            done_rx,
            supervisor,
            sweep_tick: 0,
            flows_tracked: 0,
        }
    }

    /// The telemetry registry this engine publishes into — hand it to a
    /// [`MetricsServer`](stepstone_telemetry::MetricsServer) to expose
    /// the engine's counters, queue gauges, and decode-latency
    /// histogram over HTTP.
    #[must_use]
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.control.metrics.registry)
    }

    /// Registers a watermarked upstream flow. Every tracked suspicious
    /// flow — current and future — becomes a candidate pair with it.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already registered.
    pub fn register_upstream(&mut self, id: UpstreamId, correlator: BoundCorrelator) {
        self.control.backends.insert(id, correlator.backend());
        let previous = self.upstreams.insert(id, Arc::new(correlator));
        assert!(previous.is_none(), "upstream {id} registered twice");
        // Tracked flows have no pair with the new upstream yet: their
        // next packet must walk the upstreams again to create it.
        for suspect in self.control.suspects.values_mut() {
            suspect.next_due = 0;
        }
    }

    /// Feeds one packet of suspicious flow `flow` into the engine.
    /// Returns `true` if the packet was accepted into the flow's
    /// window; `false` if it was rejected as out-of-order (counted in
    /// [`MonitorStats::packets_rejected`]).
    ///
    /// Blocks while a decode this packet schedules meets a full shard
    /// queue, absorbing completions until the shard's worker frees a
    /// slot; nothing is dropped.
    pub fn ingest(&mut self, flow: FlowId, packet: Packet) -> bool {
        self.control.pump(&self.done_rx, &mut self.supervisor);
        self.control.clock = Some(match self.control.clock {
            Some(t) if t >= packet.timestamp() => t,
            _ => packet.timestamp(),
        });
        let window_capacity = self.config.window_capacity;
        // `metrics` and `suspects` are disjoint fields of `control`,
        // so the closure can bump the gauge exactly when the entry is
        // inserted — no second map lookup on the hot path.
        let metrics = &self.control.metrics;
        let flows_tracked = &mut self.flows_tracked;
        let mut suspect = self.control.suspects.entry(flow).or_insert_with(|| {
            metrics.flows_active.inc();
            *flows_tracked += 1;
            Suspect {
                window: SlidingWindow::new(window_capacity),
                pairs: BTreeMap::new(),
                next_due: 0,
                instance: *flows_tracked,
            }
        });
        if suspect.window.is_full() && suspect.window.evicted() == 0 {
            // This push may be the window's first eviction: decodes
            // postponed on its prefix must run while it is whole.
            self.submit_postponed(flow);
            let Some(refetched) = self.control.suspects.get_mut(&flow) else {
                return false;
            };
            suspect = refetched;
        }
        if suspect.window.push(packet).is_err() {
            self.control.metrics.packets_rejected.inc();
            return false;
        }
        self.control.metrics.packets_ingested.inc();
        // A plain local tick, not `packets_ingested.get()`: summing the
        // counter stripes on every packet is measurable at line rate.
        self.sweep_tick = self.sweep_tick.wrapping_add(1);
        self.schedule_pairs(flow);
        if self.config.idle_timeout.is_some() && self.sweep_tick.is_multiple_of(EVICT_SWEEP_EVERY) {
            if let Some(now) = self.control.clock {
                self.evict_idle(now);
            }
        }
        true
    }

    /// Moves verdicts emitted since the last drain to the caller,
    /// oldest first. Non-blocking.
    pub fn drain_verdicts(&mut self) -> Vec<Verdict> {
        self.control.pump(&self.done_rx, &mut self.supervisor);
        self.control.verdicts.drain(..).collect()
    }

    /// Evicts suspicious flows idle longer than the configured timeout
    /// as of stream time `now`, emitting `Evicted` (and terminal
    /// `Cleared`) verdicts. Returns the number of flows evicted.
    /// No-op when no idle timeout is configured.
    pub fn evict_idle(&mut self, now: Timestamp) -> usize {
        let Some(timeout) = self.config.idle_timeout else {
            return 0;
        };
        // Clone the registry handle so the span guard borrows a local,
        // not `self.control` (which `emit` below needs mutably).
        let registry = Arc::clone(&self.control.metrics.registry);
        span!(registry.spans(), "evict_sweep");
        let expired: Vec<(FlowId, stepstone_flow::TimeDelta)> = self
            .control
            .suspects
            .iter()
            .filter_map(|(&id, s)| {
                let idle = s.window.idle_since(now)?;
                (idle > timeout).then_some((id, idle))
            })
            .collect();
        for &(id, idle) in &expired {
            self.submit_postponed(id);
            let Some(suspect) = self.control.suspects.remove(&id) else {
                continue;
            };
            self.control.metrics.flows_evicted.inc();
            self.control.metrics.flows_active.dec();
            for (upstream, state) in suspect.pairs {
                let pair = PairId { upstream, flow: id };
                if state.resolved {
                    // Already has its terminal verdict (latched or
                    // degraded) and already left the active gauge.
                    continue;
                }
                // Non-resolved pairs leave the active gauge with their
                // flow.
                self.control.metrics.pairs_active.dec();
                if state.in_flight > 0 {
                    // Let the in-flight decodes resolve the pair.
                    self.control.orphans.insert(pair, state);
                } else {
                    // Terminal even when never decoded: an eviction
                    // must not silently drop a registered pair. A pair
                    // whose robust decodes blew the erasure budget ends
                    // `Degraded` here, never falsely `Cleared`.
                    self.control.emit(state.terminal_negative(pair));
                }
            }
            self.control.emit(Verdict::Evicted { flow: id, idle });
        }
        expired.len()
    }

    /// A point-in-time snapshot of the engine counters, assembled by
    /// reading the telemetry registry handles back — the same values
    /// `/metrics` renders.
    pub fn stats(&self) -> MonitorStats {
        let m = &self.control.metrics;
        let flows_active = usize::try_from(m.flows_active.get()).unwrap_or(0);
        let pairs_active = usize::try_from(m.pairs_active.get()).unwrap_or(0);
        // The incrementally-maintained gauges must agree with the
        // control state they mirror; recompute the truth in debug
        // builds to catch any missed transition.
        debug_assert_eq!(flows_active, self.control.suspects.len());
        debug_assert_eq!(
            pairs_active,
            self.control
                .suspects
                .values()
                .map(|s| s.pairs.values().filter(|p| !p.resolved).count())
                .sum::<usize>()
        );
        MonitorStats {
            packets_ingested: m.packets_ingested.get(),
            packets_rejected: m.packets_rejected.get(),
            flows_active,
            flows_evicted: m.flows_evicted.get(),
            pairs_active,
            pairs_latched: m.pairs_latched.get(),
            decodes_scheduled: m.decodes_scheduled.get(),
            decodes_run: m.decodes_run.get(),
            decodes_answered: m.decodes_answered.get(),
            decodes_screened: m.decodes_screened.get(),
            decodes_dropped: self.gauges.iter().map(ShardGauges::dropped).sum(),
            queue_depths: self.gauges.iter().map(ShardGauges::depth).collect(),
            queue_enqueued: self.gauges.iter().map(ShardGauges::enqueued).sum(),
            queue_dequeued: self.gauges.iter().map(ShardGauges::dequeued).sum(),
            worker_panics: m.worker_panics.get(),
            worker_restarts: m.worker_restarts.get(),
            jobs_lost: m.jobs_lost.get(),
            verdicts_emitted: m.verdicts_emitted(),
        }
    }

    /// Flushes and shuts down: runs one final decode for every pair
    /// with undecoded packets, plus any decode still postponed, joins
    /// the workers, resolves every remaining pair to a terminal
    /// verdict, and returns the undrained verdicts plus a final stats
    /// snapshot.
    ///
    /// Downed shards are respawned immediately (no backoff) so their
    /// queued work drains; shards the watchdog flags as stalled get
    /// `Degraded` verdicts for their pending pairs instead of more work.
    pub fn finish(mut self) -> MonitorReport {
        // Bring every downed shard back first: the drain below needs
        // someone to work the queues.
        self.control.pump(&self.done_rx, &mut self.supervisor);
        self.supervisor.respawn_due(true);
        // Let in-flight decodes land first: a pair whose last decode
        // covered only a prefix must still get its full-window flush
        // decode below, and an in-flight completion may latch the pair
        // and make that flush unnecessary. Workers cannot wedge this
        // loop: every accepted job produces a completion even when the
        // decode panics (see supervisor::worker_loop), a dead worker is
        // respawned without backoff, and a stalled shard's pairs are
        // abandoned as `Degraded` once the grace period lapses.
        let drain_started = Instant::now();
        loop {
            self.control.pump(&self.done_rx, &mut self.supervisor);
            self.supervisor.respawn_due(true);
            if !self.control.any_in_flight() {
                break;
            }
            if let Some(timeout) = self.config.stall_timeout {
                if self.supervisor.any_stalled() && drain_started.elapsed() > timeout * 2 {
                    self.abandon_stalled();
                }
            }
            std::thread::yield_now();
        }
        // Final decode for every unresolved pair that has data beyond
        // its last decode (or was never decoded at all).
        let flows: Vec<FlowId> = self.control.suspects.keys().copied().collect();
        for flow in flows {
            let Some(suspect) = self.control.suspects.get_mut(&flow) else {
                continue;
            };
            let mut jobs = Vec::new();
            for (&upstream, correlator) in &self.upstreams {
                let Some(state) = suspect.pairs.get_mut(&upstream) else {
                    continue;
                };
                if state.resolved
                    || state.in_flight > 0
                    || suspect.window.len() < min_window(&self.config, correlator)
                    || state.decoded_through >= suspect.window.pushed()
                {
                    continue;
                }
                if state.screen(correlator, &suspect.window) {
                    jobs.push((upstream, Arc::clone(correlator)));
                } else {
                    self.control.metrics.decodes_screened.inc();
                }
            }
            // A push error means the shard's receiver is gone —
            // impossible while the supervisor holds it, but if it ever
            // happens the pair still resolves through the terminal
            // sweep below.
            let pushed = suspect.window.pushed();
            self.submit(flow, pushed, jobs);
            self.submit_postponed(flow);
        }
        // Closing the job channels lets workers drain and exit; the
        // supervisor joins them, respawning as needed until every
        // queue is verifiably empty.
        self.shards.clear();
        self.supervisor.drain_to_exit();
        self.control.pump(&self.done_rx, &mut self.supervisor);
        debug_assert!(
            self.control.orphans.is_empty(),
            "all in-flight decodes resolved"
        );
        // Terminal verdicts for everything still undecided, in
        // deterministic (flow, upstream) order.
        let mut remaining: Vec<(FlowId, UpstreamId, PairState)> = Vec::new();
        for (&flow, suspect) in &self.control.suspects {
            for (&upstream, state) in &suspect.pairs {
                if !state.resolved {
                    remaining.push((flow, upstream, state.clone()));
                }
            }
        }
        remaining.sort_by_key(|&(flow, upstream, _)| (flow, upstream));
        for (flow, upstream, state) in remaining {
            // The degradation ladder applies to the shutdown sweep too:
            // budget-blown pairs end `Degraded`, not `Cleared`.
            self.control
                .emit(state.terminal_negative(PairId { upstream, flow }));
        }
        let stats = self.stats();
        MonitorReport {
            verdicts: self.control.verdicts.drain(..).collect(),
            stats,
        }
    }

    /// Resolves every pending pair pinned to a stalled shard with a
    /// `Degraded` verdict, releasing the shutdown drain from waiting on
    /// a wedged worker. Idempotent: abandoned pairs are `resolved`, and
    /// a completion that arrives late for one is counted but not
    /// re-emitted.
    fn abandon_stalled(&mut self) {
        let shard_count = self.shards.len() as u64;
        let mut victims: Vec<PairId> = Vec::new();
        for (&flow, suspect) in &self.control.suspects {
            for (&upstream, state) in &suspect.pairs {
                let pair = PairId { upstream, flow };
                let shard = (pair.shard_hash() % shard_count) as usize;
                if state.in_flight > 0 && !state.resolved && self.supervisor.is_stalled(shard) {
                    victims.push(pair);
                }
            }
        }
        for pair in victims {
            if let Some(state) = self
                .control
                .suspects
                .get_mut(&pair.flow)
                .and_then(|s| s.pairs.get_mut(&pair.upstream))
            {
                state.in_flight = 0;
                state.resolved = true;
            }
            self.control.metrics.pairs_active.dec();
            self.control.emit(Verdict::Degraded {
                pair,
                reason: DegradeReason::Stalled,
            });
        }
        let orphaned: Vec<PairId> = self
            .control
            .orphans
            .keys()
            .copied()
            .filter(|pair| {
                let shard = (pair.shard_hash() % shard_count) as usize;
                self.supervisor.is_stalled(shard)
            })
            .collect();
        for pair in orphaned {
            self.control.orphans.remove(&pair);
            self.control.emit(Verdict::Degraded {
                pair,
                reason: DegradeReason::Stalled,
            });
        }
    }

    /// Emits a terminal `Stalled` verdict for a live, unresolved pair.
    fn degrade_stalled(&mut self, pair: PairId) {
        let Some(state) = self
            .control
            .suspects
            .get_mut(&pair.flow)
            .and_then(|s| s.pairs.get_mut(&pair.upstream))
        else {
            return;
        };
        if state.resolved {
            return;
        }
        state.resolved = true;
        self.control.metrics.pairs_active.dec();
        self.control.emit(Verdict::Degraded {
            pair,
            reason: DegradeReason::Stalled,
        });
    }

    /// Schedules decodes for `flow`'s pairs that have reached a decode
    /// boundary, after screening each one. Between boundaries this is a
    /// single comparison against the flow's `next_due`.
    fn schedule_pairs(&mut self, flow: FlowId) {
        let Some(suspect) = self.control.suspects.get_mut(&flow) else {
            return;
        };
        let pushed = suspect.window.pushed();
        if pushed < suspect.next_due {
            return;
        }
        let batch = self.config.decode_batch as u64;
        let mut next_due = u64::MAX;
        let mut jobs = Vec::new();
        for (&upstream, correlator) in &self.upstreams {
            let state = match suspect.pairs.entry(upstream) {
                btree_map::Entry::Vacant(entry) => {
                    // A fresh pair enters the active gauge (PairState
                    // defaults to unresolved).
                    self.control.metrics.pairs_active.inc();
                    entry.insert(PairState::default())
                }
                btree_map::Entry::Occupied(entry) => entry.into_mut(),
            };
            if state.resolved {
                continue;
            }
            let due = state.due_at(&suspect.window, min_window(&self.config, correlator), batch);
            // A boundary is never skipped for an in-flight decode:
            // multiple jobs for one pair may queue, and `absorb`
            // tolerates completions in any order.
            if due > pushed {
                next_due = next_due.min(due);
                continue;
            }
            if state.screen(correlator, &suspect.window) {
                jobs.push((upstream, Arc::clone(correlator)));
            } else {
                self.control.metrics.decodes_screened.inc();
            }
            next_due = next_due.min(pushed.saturating_add(batch));
        }
        suspect.next_due = next_due;
        self.submit(flow, pushed, jobs);
    }

    /// Schedules the postponed decodes of `flow`'s pairs that still
    /// have to run (see [`PairState::take_postponed`]), each on the
    /// window prefix its boundary saw. Runs while the window has never
    /// evicted: in the shutdown flush, before the first eviction, and
    /// at idle eviction.
    fn submit_postponed(&mut self, flow: FlowId) {
        let Some(suspect) = self.control.suspects.get_mut(&flow) else {
            return;
        };
        let mut due: Vec<(u64, UpstreamId)> = suspect
            .pairs
            .iter_mut()
            .filter_map(|(&upstream, state)| Some((state.take_postponed()?, upstream)))
            .collect();
        due.sort_unstable();
        for boundary in due.chunk_by(|a, b| a.0 == b.0) {
            let jobs = boundary
                .iter()
                .filter_map(|(_, upstream)| {
                    Some((*upstream, Arc::clone(self.upstreams.get(upstream)?)))
                })
                .collect();
            self.submit(flow, boundary[0].0, jobs);
        }
    }

    /// Pushes the jobs of `flow`'s boundary at push count `pushed` onto
    /// their shards, all sharing one snapshot of the packets the window
    /// held then: the whole window for the current boundary, else a
    /// prefix of a window that has never evicted. A full queue blocks
    /// the push; a pair whose shard the watchdog flags stalled is
    /// degraded instead of pushed.
    fn submit(&mut self, flow: FlowId, pushed: u64, jobs: Vec<(UpstreamId, Arc<BoundCorrelator>)>) {
        if jobs.is_empty() {
            return;
        }
        let Some(suspect) = self.control.suspects.get(&flow) else {
            return;
        };
        let instance = suspect.instance;
        let window = &suspect.window;
        debug_assert!(pushed == window.pushed() || window.evicted() == 0);
        let window = Arc::new(window.prefix(pushed.saturating_sub(window.evicted()) as usize));
        for (upstream, correlator) in jobs {
            let pair = PairId { upstream, flow };
            let shard = (pair.shard_hash() % self.shards.len() as u64) as usize;
            if self.supervisor.is_stalled(shard) {
                // Scheduling onto a wedged shard would block ingest or
                // hang the flush; degraded is the honest terminal word.
                self.degrade_stalled(pair);
                continue;
            }
            let job = DecodeJob {
                pair,
                correlator,
                window: Arc::clone(&window),
                pushed,
                instance,
            };
            // A full queue blocks instead of dropping, so the decoded
            // windows are a pure function of the event stream. The pump
            // callback keeps draining completions so a full queue and
            // an undrained done stream cannot deadlock — and keeps
            // respawning dead workers, so the queue is always
            // eventually drained; the disjoint
            // `control`/`shards`/`supervisor` borrows make this legal.
            let sender = &self.shards[shard];
            let control = &mut self.control;
            let supervisor = &mut self.supervisor;
            let done_rx = &self.done_rx;
            let accepted = sender
                .push_blocking(job, || control.pump(done_rx, &mut *supervisor))
                .is_ok();
            if accepted {
                self.control.metrics.decodes_scheduled.inc();
                if let Some(state) = self
                    .control
                    .suspects
                    .get_mut(&flow)
                    .and_then(|s| s.pairs.get_mut(&upstream))
                {
                    state.in_flight += 1;
                    state.decoded_through = state.decoded_through.max(pushed);
                }
            }
        }
    }
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
