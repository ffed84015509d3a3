//! Engine sizing and policy knobs.

use std::sync::Arc;

use stepstone_flow::TimeDelta;
use stepstone_telemetry::Registry;

use crate::fault::FaultHook;

/// Sizing and policy for a [`Monitor`](crate::Monitor).
///
/// The defaults suit interactive-traffic monitoring at paper scale
/// (flows of a few hundred packets): windows hold whole flows, and
/// decodes batch a modest number of new packets. Decodes run inline,
/// on the thread that calls [`Monitor::ingest`](crate::Monitor::ingest).
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Most-recent packets retained per suspicious flow. Decodes only
    /// ever see this window, so it bounds both memory and how far back
    /// a correlation can reach.
    pub window_capacity: usize,
    /// New packets a pair's window must accrue before the engine
    /// decodes it again. `1` decodes after every packet; large values
    /// approach batch (decode-once) mode.
    pub decode_batch: usize,
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
    /// Test-only decode fault oracle, consulted once per decode.
    /// `None` (the default and production setting) makes every decode
    /// run clean; chaos harnesses install a hook to schedule contained
    /// decode panics deterministically.
    pub fault_hook: Option<FaultHook>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            window_capacity: 4096,
            decode_batch: 32,
            idle_timeout: None,
            min_window: 0,
            registry: None,
            fault_hook: None,
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

    /// Returns `self` unchanged: decodes run inline on the ingest
    /// thread, so there are no worker shards to size. This remains for
    /// callers written against the sharded engine, and will be removed.
    #[must_use]
    pub fn with_shards(self, _shards: usize) -> Self {
        self
    }

    /// Sets the idle-eviction timeout.
    #[must_use]
    pub fn with_idle_timeout(mut self, timeout: TimeDelta) -> Self {
        self.idle_timeout = Some(timeout);
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

    pub(crate) fn validate(&self) {
        assert!(self.window_capacity > 0, "window_capacity must be positive");
        assert!(self.decode_batch > 0, "decode_batch must be positive");
    }
}
