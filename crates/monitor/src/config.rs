//! Engine sizing and policy knobs.

use std::sync::Arc;
use std::time::Duration;

use stepstone_flow::TimeDelta;
use stepstone_telemetry::Registry;

use crate::fault::FaultHook;

/// Sizing and policy for a [`Monitor`](crate::Monitor).
///
/// The defaults suit interactive-traffic monitoring at paper scale
/// (flows of a few hundred packets): windows hold whole flows, decodes
/// batch a modest number of new packets, and queues absorb short bursts
/// of decodes before a slow one blocks ingest.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Most-recent packets retained per suspicious flow. Decodes only
    /// ever see this window, so it bounds both memory and how far back
    /// a correlation can reach.
    pub window_capacity: usize,
    /// New packets a pair's window must accrue before the engine
    /// schedules another decode for it. `1` decodes as often as the
    /// queue allows; large values approach batch (decode-once) mode.
    pub decode_batch: usize,
    /// Bounded depth of each shard's job queue. When a queue is full,
    /// ingest blocks, absorbing completions until the shard's worker
    /// frees a slot; no decode is dropped.
    pub queue_capacity: usize,
    /// Decode worker threads; pairs are pinned to shards by pair-id
    /// hash, so one pair's decodes never run concurrently.
    pub shards: usize,
    /// Evict a suspicious flow once it has been idle this long in
    /// stream time. `None` keeps flows until [`finish`][fin].
    ///
    /// [fin]: crate::Monitor::finish
    pub idle_timeout: Option<TimeDelta>,
    /// Extra floor on window size before the first decode of a pair.
    /// The engine always also waits until the window holds at least as
    /// many packets as the pair's upstream flow (a complete matching is
    /// impossible before that), so `0` means "auto".
    pub min_window: usize,
    /// Telemetry registry the engine publishes its metrics into.
    /// `None` (the default) gives the engine a private registry,
    /// reachable through [`Monitor::registry`][reg] — share one
    /// explicitly to co-expose engine and ingest metrics on a single
    /// endpoint.
    ///
    /// [reg]: crate::Monitor::registry
    pub registry: Option<Arc<Registry>>,
    /// Test-only decode fault oracle, consulted once per decode job.
    /// `None` (the default and production setting) makes every decode
    /// run clean; chaos harnesses install a hook to schedule panics,
    /// worker kills, and slow decodes deterministically.
    pub fault_hook: Option<FaultHook>,
    /// Watchdog threshold: a shard whose queue is non-empty but whose
    /// worker heartbeat is older than this is flagged stalled. `None`
    /// (default) disables the watchdog thread entirely.
    pub stall_timeout: Option<Duration>,
    /// First supervisor restart delay after a worker death; doubles per
    /// consecutive death on the same shard.
    pub restart_backoff: Duration,
    /// Cap on the supervisor's exponential restart backoff.
    pub restart_backoff_cap: Duration,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            window_capacity: 4096,
            decode_batch: 32,
            queue_capacity: 64,
            shards: 1,
            idle_timeout: None,
            min_window: 0,
            registry: None,
            fault_hook: None,
            stall_timeout: None,
            restart_backoff: Duration::from_millis(5),
            restart_backoff_cap: Duration::from_millis(500),
        }
    }
}

impl MonitorConfig {
    /// Sets the per-flow window capacity.
    #[must_use]
    pub fn with_window_capacity(mut self, packets: usize) -> Self {
        self.window_capacity = packets;
        self
    }

    /// Sets the decode batch (new packets per scheduled decode).
    #[must_use]
    pub fn with_decode_batch(mut self, packets: usize) -> Self {
        self.decode_batch = packets;
        self
    }

    /// Sets the per-shard queue depth.
    #[must_use]
    pub fn with_queue_capacity(mut self, jobs: usize) -> Self {
        self.queue_capacity = jobs;
        self
    }

    /// Sets the number of decode worker shards.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the idle-eviction timeout.
    #[must_use]
    pub fn with_idle_timeout(mut self, timeout: TimeDelta) -> Self {
        self.idle_timeout = Some(timeout);
        self
    }

    /// Sets the explicit minimum window before first decode.
    #[must_use]
    pub fn with_min_window(mut self, packets: usize) -> Self {
        self.min_window = packets;
        self
    }

    /// Publishes engine metrics into `registry` instead of a private
    /// one — the way to expose monitor and ingest series on one
    /// endpoint.
    #[must_use]
    pub fn with_registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Installs a decode fault oracle (chaos testing only).
    #[must_use]
    pub fn with_fault_hook(mut self, hook: FaultHook) -> Self {
        self.fault_hook = Some(hook);
        self
    }

    /// Returns `self` unchanged. Every batch boundary is decoded on the
    /// engine's only schedule; this remains for callers written when a
    /// lossy schedule was the default, and will be removed.
    #[must_use]
    pub fn with_deterministic_schedule(self) -> Self {
        self
    }

    /// Enables the stall watchdog with the given heartbeat threshold.
    #[must_use]
    pub fn with_stall_timeout(mut self, timeout: Duration) -> Self {
        self.stall_timeout = Some(timeout);
        self
    }

    /// Sets the supervisor's restart backoff (initial delay and cap).
    #[must_use]
    pub fn with_restart_backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.restart_backoff = base;
        self.restart_backoff_cap = cap;
        self
    }

    pub(crate) fn validate(&self) {
        assert!(self.window_capacity > 0, "window_capacity must be positive");
        assert!(self.decode_batch > 0, "decode_batch must be positive");
        assert!(self.queue_capacity > 0, "queue_capacity must be positive");
        assert!(self.shards > 0, "shards must be positive");
        if let Some(timeout) = self.stall_timeout {
            assert!(!timeout.is_zero(), "stall_timeout must be positive");
        }
        assert!(
            self.restart_backoff <= self.restart_backoff_cap,
            "restart_backoff must not exceed its cap"
        );
    }
}
