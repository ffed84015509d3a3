//! Worker supervision: death notices, capped-backoff respawn, shard
//! heartbeats, and the stall watchdog.
//!
//! The engine's decode workers are expendable: a panic that escapes
//! decode containment (or an injected
//! [`DecodeFault::KillWorker`](crate::DecodeFault)) kills the thread,
//! not the engine. Three mechanisms make that survivable:
//!
//! 1. every worker carries a [`DeathNotice`] drop guard that reports
//!    the death — and the job it died holding, if any — on the
//!    completion channel, so the control side can account the loss
//!    (`jobs_lost`) and release the pair instead of waiting forever;
//! 2. the [`Supervisor`] retains each shard's queue receiver behind an
//!    `Arc<Mutex<…>>`, so a worker death never disconnects the queue:
//!    queued jobs survive, and a respawned worker (capped exponential
//!    backoff per consecutive death) drains them;
//! 3. an optional watchdog thread flags shards whose worker heartbeat
//!    has gone stale while work is queued, letting shutdown degrade
//!    those pairs instead of hanging on them.

use std::cell::Cell;
use std::collections::HashSet;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use stepstone_core::{BoundCorrelator, Correlation};
use stepstone_flow::Flow;
use stepstone_telemetry::{span, time, Counter, Gauge};

use crate::config::MonitorConfig;
use crate::fault::{DecodeFault, FaultHook};
use crate::ids::PairId;
use crate::metrics::EngineMetrics;
use crate::queue::{ShardGauges, ShardReceiver};

/// A decode request pinned to one shard.
pub(crate) struct DecodeJob {
    pub pair: PairId,
    pub correlator: Arc<BoundCorrelator>,
    /// The flow's window at the boundary, shared by every job the
    /// boundary scheduled for the flow.
    pub window: Arc<Flow>,
    /// The flow's cumulative push count at snapshot time; carried back
    /// in the completion so outcomes are ordered by boundary.
    pub pushed: u64,
    /// Which tracking of the flow scheduled the job: a flow evicted
    /// and tracked again under the same id gets a new instance.
    pub instance: u64,
}

/// A finished decode, reported back to the control side.
pub(crate) struct Completion {
    pub pair: PairId,
    /// The decode's outcome; `None` when the job was answered without
    /// a decode because its pair had already latched (see
    /// [`LATCHED_CAP`]).
    pub outcome: Option<Correlation>,
    /// The job's `pushed`.
    pub pushed: u64,
}

/// What a worker thread reports on the done channel.
pub(crate) enum WorkerEvent {
    /// A decode finished (possibly with a contained panic mapped to a
    /// failed outcome).
    Done(Completion),
    /// The worker thread died — a panic escaped decode containment.
    /// `inflight` is the job the worker was holding, dequeued but never
    /// completed; the control side accounts it as lost.
    Died {
        shard: usize,
        inflight: Option<PairId>,
    },
}

/// Everything one worker thread needs, bundled for respawning: the
/// supervisor can mint a fresh context for a shard at any time.
struct WorkerContext {
    shard: usize,
    rx: Arc<Mutex<ShardReceiver<DecodeJob>>>,
    done: Sender<WorkerEvent>,
    metrics: Arc<EngineMetrics>,
    heartbeat: Arc<AtomicU64>,
    epoch: Instant,
    fault_hook: Option<FaultHook>,
    decode_seq: Arc<AtomicU64>,
}

impl WorkerContext {
    /// Publishes "this worker was alive now" for the watchdog.
    fn touch_heartbeat(&self) {
        let elapsed = self.epoch.elapsed();
        let micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        // ordering: the heartbeat is monotonic bookkeeping read only by
        // the watchdog; nothing is published through it.
        self.heartbeat.store(micros, Ordering::Relaxed);
    }

    /// Consults the fault oracle for the next decode, if one is
    /// installed. Sequence numbers are engine-global so the fault
    /// schedule is a pure function of the chaos seed.
    fn next_fault(&self, pair: PairId) -> DecodeFault {
        let Some(hook) = &self.fault_hook else {
            return DecodeFault::None;
        };
        // ordering: the sequence number only needs global uniqueness;
        // no other memory is ordered through it.
        let seq = self.decode_seq.fetch_add(1, Ordering::Relaxed);
        hook.fault(seq, pair)
    }
}

/// Panic payload for an injected worker kill — unwinding with
/// `resume_unwind` keeps the default panic hook (and its backtrace
/// spew) out of scheduled chaos.
struct InjectedKill;

/// Panic payload for an injected contained decode panic.
struct InjectedPanic;

/// Drop guard armed in every worker thread: if the thread unwinds, the
/// guard's drop runs while `thread::panicking()` and reports the death
/// — with the job the worker was holding, if any — on the done channel.
/// A clean worker exit drops the guard without an event.
struct DeathNotice {
    shard: usize,
    done: Sender<WorkerEvent>,
    inflight: Cell<Option<PairId>>,
}

impl Drop for DeathNotice {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // A failed send means the control side is gone too; nothing
            // left to notify.
            let _ = self.done.send(WorkerEvent::Died {
                shard: self.shard,
                inflight: self.inflight.get(),
            });
        }
    }
}

/// The outcome reported for a decode whose worker panicked: not
/// correlated, no watermark, flagged incomplete.
fn panicked_outcome() -> Correlation {
    Correlation {
        correlated: false,
        hamming: None,
        best: None,
        cost: 0,
        matching_cost: 0,
        completed: false,
        robust: None,
    }
}

/// Pairs a worker remembers as latched, at most. A worker that decoded
/// a correlating window for a pair answers that pair's later jobs (of
/// the same flow instance) without decoding: the control side absorbs
/// completions in the order the worker sends them, so it has latched
/// the pair and emitted its verdict before it sees them, and it reads
/// nothing from them but the release of the pair. A pair keeps getting
/// jobs at every boundary until the control side absorbs its first
/// correlating decode, so a true pair can have many queued behind it;
/// how many depends on worker timing, and they are counted apart
/// ([`MonitorStats::decodes_answered`](crate::MonitorStats::decodes_answered)).
/// The set is cleared when full; a forgotten pair is simply decoded
/// again.
const LATCHED_CAP: usize = 4096;

/// Runs one decode with panic containment: a panicking decode is
/// counted and mapped to [`panicked_outcome`] so the job still yields a
/// completion — otherwise the control side would wait on the pair
/// forever at shutdown. `AssertUnwindSafe` is sound because the closure
/// only reads state the caller consumes afterwards and writes nothing
/// shared.
fn run_contained(decode: impl FnOnce() -> Correlation, worker_panics: &Counter) -> Correlation {
    std::panic::catch_unwind(AssertUnwindSafe(decode)).unwrap_or_else(|_| {
        worker_panics.inc();
        panicked_outcome()
    })
}

/// One shard worker: drains the shard queue, consults the fault hook,
/// decodes with panic containment, and reports completions. The shared
/// receiver's lock is held only across the dequeue itself — never
/// across a decode — so a respawned successor can take over the queue
/// the moment this worker dies.
fn worker_loop(ctx: WorkerContext) {
    let notice = DeathNotice {
        shard: ctx.shard,
        done: ctx.done.clone(),
        inflight: Cell::new(None),
    };
    let mut latched: HashSet<(PairId, u64)> = HashSet::new();
    loop {
        ctx.touch_heartbeat();
        let job = {
            // A predecessor that died mid-dequeue leaves the lock
            // poisoned but the queue intact (recv is atomic); taking
            // the guard back is sound.
            let rx = match ctx.rx.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            // lint: allow(lock_order) single-consumer hand-off: each worker holds the shared receiver only while blocked on it, and the watchdog covers stalls
            rx.recv()
        };
        let Some(job) = job else { break };
        ctx.touch_heartbeat();
        notice.inflight.set(Some(job.pair));
        let fault = ctx.next_fault(job.pair);
        match fault {
            DecodeFault::KillWorker => {
                // Scheduled chaos, not a bug: die quietly by resuming
                // an unwind; the DeathNotice guard reports the loss.
                std::panic::resume_unwind(Box::new(InjectedKill));
            }
            DecodeFault::Sleep(micros) => {
                let pause = Duration::from_micros(micros);
                std::thread::sleep(pause);
            }
            DecodeFault::None | DecodeFault::Panic => {}
        }
        let key = (job.pair, job.instance);
        let outcome = (!latched.contains(&key)).then(|| decode(&ctx, &job, fault));
        if outcome.as_ref().is_some_and(|o| o.correlated) {
            if latched.len() >= LATCHED_CAP {
                latched.clear();
            }
            latched.insert(key);
        }
        ctx.metrics.decodes_run.inc();
        if outcome.is_none() {
            ctx.metrics.decodes_answered.inc();
        }
        notice.inflight.set(None);
        ctx.touch_heartbeat();
        if ctx
            .done
            .send(WorkerEvent::Done(Completion {
                pair: job.pair,
                outcome,
                pushed: job.pushed,
            }))
            .is_err()
        {
            // Control side is gone; no one to report to.
            break;
        }
    }
}

/// Decodes one job's window, timed into the decode-latency histograms
/// and with panic containment; an injected [`DecodeFault::Panic`]
/// fires inside the containment.
fn decode(ctx: &WorkerContext, job: &DecodeJob, fault: DecodeFault) -> Correlation {
    span!(ctx.metrics.registry.spans(), "decode");
    let backend_latency =
        Arc::clone(&ctx.metrics.backend_decode_latency[job.correlator.backend().index()]);
    let mode_latency =
        Arc::clone(&ctx.metrics.mode_decode_latency[job.correlator.decode_mode().index()]);
    time!(ctx.metrics.decode_latency, {
        time!(backend_latency, {
            time!(mode_latency, {
                run_contained(
                    || {
                        if matches!(fault, DecodeFault::Panic) {
                            // Quiet unwind, caught by the containment.
                            std::panic::resume_unwind(Box::new(InjectedPanic));
                        }
                        job.correlator.correlate(&job.window)
                    },
                    &ctx.metrics.worker_panics,
                )
            })
        })
    })
}

/// Per-shard supervision state.
struct ShardSlot {
    rx: Arc<Mutex<ShardReceiver<DecodeJob>>>,
    gauges: ShardGauges,
    heartbeat: Arc<AtomicU64>,
    stalled: Arc<AtomicBool>,
    /// Lifetime deaths of this shard's workers; drives the backoff
    /// exponent (never reset — the cap bounds the penalty).
    deaths: u32,
    /// Set when the shard's worker died; cleared on respawn.
    down_since: Option<Instant>,
}

/// Watchdog state shared with the watchdog thread, per shard.
struct WatchSlot {
    heartbeat: Arc<AtomicU64>,
    stalled: Arc<AtomicBool>,
    gauges: ShardGauges,
}

struct Watchdog {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
}

/// Flags shards whose worker heartbeat is stale *while work is queued*
/// (an idle shard is never stalled). Runs until `stop` is set.
fn watchdog_loop(
    slots: Vec<WatchSlot>,
    stalled_gauge: Arc<Gauge>,
    stop: Arc<AtomicBool>,
    epoch: Instant,
    timeout: Duration,
) {
    let tick = (timeout / 4).max(Duration::from_millis(1));
    // ordering: plain shutdown flag; the supervisor's join provides the
    // final synchronization.
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(tick);
        for slot in &slots {
            // ordering: heartbeat is monotonic bookkeeping; see
            // WorkerContext::touch_heartbeat.
            let beat = slot.heartbeat.load(Ordering::Relaxed);
            let last_touch = Duration::from_micros(beat);
            let now = epoch.elapsed();
            let stale = now.saturating_sub(last_touch) > timeout;
            let stalled_now = stale && slot.gauges.depth() > 0;
            // ordering: the flag is advisory — readers only use it to
            // pick a degradation policy, never to publish memory.
            let was = slot.stalled.swap(stalled_now, Ordering::Relaxed);
            match (was, stalled_now) {
                (false, true) => stalled_gauge.inc(),
                (true, false) => stalled_gauge.dec(),
                _ => {}
            }
        }
    }
}

/// Owns the worker threads, their shared queue receivers, the restart
/// policy, and the watchdog. The engine's control side reports deaths
/// into it ([`note_death`](Supervisor::note_death)) and polls
/// [`respawn_due`](Supervisor::respawn_due) on its normal pump path.
pub(crate) struct Supervisor {
    slots: Vec<ShardSlot>,
    workers: Vec<JoinHandle<()>>,
    done_tx: Sender<WorkerEvent>,
    metrics: Arc<EngineMetrics>,
    fault_hook: Option<FaultHook>,
    decode_seq: Arc<AtomicU64>,
    epoch: Instant,
    backoff: Duration,
    backoff_cap: Duration,
    watchdog: Option<Watchdog>,
    /// Set by [`drain_to_exit`](Supervisor::drain_to_exit): the engine
    /// is shutting down, so `respawn_due` must not spawn workers nobody
    /// will join.
    retired: bool,
}

impl Supervisor {
    /// Builds the supervisor, spawns one worker per shard, and starts
    /// the watchdog when a stall timeout is configured.
    ///
    /// # Panics
    ///
    /// Panics if a thread cannot be spawned.
    pub(crate) fn new(
        config: &MonitorConfig,
        metrics: Arc<EngineMetrics>,
        receivers: Vec<ShardReceiver<DecodeJob>>,
        gauges: Vec<ShardGauges>,
        done_tx: Sender<WorkerEvent>,
    ) -> Self {
        let slots: Vec<ShardSlot> = receivers
            .into_iter()
            .zip(gauges)
            .map(|(rx, gauges)| ShardSlot {
                rx: Arc::new(Mutex::new(rx)),
                gauges,
                heartbeat: Arc::new(AtomicU64::new(0)),
                stalled: Arc::new(AtomicBool::new(false)),
                deaths: 0,
                down_since: None,
            })
            .collect();
        let mut sup = Supervisor {
            slots,
            workers: Vec::new(),
            done_tx,
            metrics,
            fault_hook: config.fault_hook.clone(),
            decode_seq: Arc::new(AtomicU64::new(0)),
            epoch: Instant::now(),
            backoff: config.restart_backoff,
            backoff_cap: config.restart_backoff_cap,
            watchdog: None,
            retired: false,
        };
        for shard in 0..sup.slots.len() {
            sup.spawn_worker(shard);
        }
        if let Some(timeout) = config.stall_timeout {
            sup.start_watchdog(timeout);
        }
        sup
    }

    fn spawn_worker(&mut self, shard: usize) {
        let slot = &self.slots[shard];
        let ctx = WorkerContext {
            shard,
            rx: Arc::clone(&slot.rx),
            done: self.done_tx.clone(),
            metrics: Arc::clone(&self.metrics),
            heartbeat: Arc::clone(&slot.heartbeat),
            epoch: self.epoch,
            fault_hook: self.fault_hook.clone(),
            decode_seq: Arc::clone(&self.decode_seq),
        };
        self.workers.push(
            std::thread::Builder::new()
                .name(format!("monitor-shard-{shard}"))
                .spawn(move || worker_loop(ctx))
                // lint: allow(no_panic) thread spawn fails only on resource exhaustion; documented under Panics
                .expect("spawn monitor shard worker"),
        );
    }

    fn start_watchdog(&mut self, timeout: Duration) {
        let slots: Vec<WatchSlot> = self
            .slots
            .iter()
            .map(|s| WatchSlot {
                heartbeat: Arc::clone(&s.heartbeat),
                stalled: Arc::clone(&s.stalled),
                gauges: s.gauges.clone(),
            })
            .collect();
        let gauge = Arc::clone(&self.metrics.shards_stalled);
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let epoch = self.epoch;
        let handle = std::thread::Builder::new()
            .name("monitor-watchdog".into())
            .spawn(move || watchdog_loop(slots, gauge, thread_stop, epoch, timeout))
            // lint: allow(no_panic) thread spawn fails only on resource exhaustion; documented under Panics
            .expect("spawn monitor watchdog");
        self.watchdog = Some(Watchdog { stop, handle });
    }

    /// Records a worker death reported on the done channel. The shard
    /// stays down until [`respawn_due`](Supervisor::respawn_due) brings
    /// it back; its queue keeps accepting jobs in the meantime because
    /// this supervisor retains the receiver.
    pub(crate) fn note_death(&mut self, shard: usize) {
        if let Some(slot) = self.slots.get_mut(shard) {
            slot.deaths = slot.deaths.saturating_add(1);
            slot.down_since = Some(Instant::now());
        }
    }

    /// Respawns workers for downed shards whose backoff has elapsed
    /// (`force` skips the backoff — used at shutdown, where
    /// completeness beats pacing). Cheap when nothing is down.
    pub(crate) fn respawn_due(&mut self, force: bool) {
        if self.retired {
            return;
        }
        for shard in 0..self.slots.len() {
            let Some(since) = self.slots[shard].down_since else {
                continue;
            };
            let wait = self.backoff_for(self.slots[shard].deaths);
            if force || since.elapsed() >= wait {
                self.slots[shard].down_since = None;
                self.spawn_worker(shard);
                self.metrics.worker_restarts.inc();
            }
        }
    }

    /// The capped exponential restart delay after `deaths` consecutive
    /// deaths: base, 2·base, 4·base, … up to the cap.
    fn backoff_for(&self, deaths: u32) -> Duration {
        let doublings = deaths.saturating_sub(1).min(16);
        self.backoff
            .saturating_mul(1u32 << doublings)
            .min(self.backoff_cap)
    }

    /// `true` if the watchdog currently flags `shard` as stalled.
    pub(crate) fn is_stalled(&self, shard: usize) -> bool {
        self.slots
            .get(shard)
            // ordering: advisory flag; see watchdog_loop.
            .map(|s| s.stalled.load(Ordering::Relaxed))
            .unwrap_or(false)
    }

    /// `true` if any shard is currently flagged stalled.
    pub(crate) fn any_stalled(&self) -> bool {
        self.slots
            .iter()
            // ordering: advisory flag; see watchdog_loop.
            .any(|s| s.stalled.load(Ordering::Relaxed))
    }

    /// Shutdown drain: joins every worker, then — because a worker that
    /// died mid-drain leaves its queue non-empty, while a live worker
    /// always drains to empty once the senders are gone — respawns
    /// workers for any leftovers and joins again, until every shard
    /// queue is empty. Also stops the watchdog and retires the
    /// supervisor so a straggling death event cannot spawn a worker
    /// nobody will join.
    ///
    /// Callers must drop every `ShardSender` first, or this will not
    /// terminate.
    pub(crate) fn drain_to_exit(&mut self) {
        self.stop_watchdog();
        self.retired = true;
        loop {
            for worker in self.workers.drain(..) {
                // Deaths were announced by their DeathNotice guard; the
                // join error carries nothing new.
                let _ = worker.join();
            }
            let mut respawned = false;
            for shard in 0..self.slots.len() {
                if self.slots[shard].gauges.depth() > 0 {
                    self.spawn_worker(shard);
                    self.metrics.worker_restarts.inc();
                    respawned = true;
                }
            }
            if !respawned {
                break;
            }
        }
    }

    fn stop_watchdog(&mut self) {
        if let Some(dog) = self.watchdog.take() {
            // ordering: plain shutdown flag; the join synchronizes.
            dog.stop.store(true, Ordering::Relaxed);
            let _ = dog.handle.join();
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.stop_watchdog();
        for worker in self.workers.drain(..) {
            // Workers exit once the engine's senders and done receiver
            // are gone (both drop before the supervisor); deaths were
            // already announced by their DeathNotice guard.
            let _ = worker.join();
        }
    }
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
    fn contained_decode_maps_panic_to_failed_completion() {
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

    #[test]
    fn backoff_doubles_and_caps() {
        let config = MonitorConfig::default()
            .with_restart_backoff(Duration::from_millis(2), Duration::from_millis(10));
        let metrics = Arc::new(EngineMetrics::new(Arc::new(
            stepstone_telemetry::Registry::new(),
        )));
        let (done_tx, _done_rx) = std::sync::mpsc::channel();
        let (tx, rx) = crate::queue::shard_queue::<DecodeJob>(1);
        let gauges = vec![tx.gauges()];
        let sup = Supervisor::new(&config, metrics, vec![rx], gauges, done_tx);
        assert_eq!(sup.backoff_for(1), Duration::from_millis(2));
        assert_eq!(sup.backoff_for(2), Duration::from_millis(4));
        assert_eq!(sup.backoff_for(3), Duration::from_millis(8));
        assert_eq!(sup.backoff_for(4), Duration::from_millis(10), "capped");
        assert_eq!(sup.backoff_for(40), Duration::from_millis(10), "capped");
        drop(tx);
    }
}
