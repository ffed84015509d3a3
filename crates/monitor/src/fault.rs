//! Deterministic fault-injection hooks for the engine.
//!
//! A [`FaultHook`] lets a test (or the `stepstone-chaos` crate) make
//! chosen decodes panic inside the engine's containment boundary. The
//! hook is consulted once per decode with the engine's decode sequence
//! number, so a seed-deterministic schedule maps cleanly onto it. Production configurations simply leave the hook
//! unset — the per-decode cost of an absent hook is one `Option` check.

use std::fmt;
use std::sync::Arc;

use crate::ids::PairId;

/// A fault applied to a single decode, as directed by a [`FaultHook`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecodeFault {
    /// Run the decode normally.
    #[default]
    None,
    /// Panic *inside* the decode's containment boundary: the panic is
    /// caught, counted in `decode_panics`, and folded in as a failed
    /// decode — ingest carries on.
    Panic,
}

/// A shared, thread-safe decode-fault oracle: `(decode sequence number,
/// pair) → fault`. See [`MonitorConfig::with_fault_hook`].
///
/// [`MonitorConfig::with_fault_hook`]: crate::MonitorConfig::with_fault_hook
#[derive(Clone)]
pub struct FaultHook(Arc<dyn Fn(u64, PairId) -> DecodeFault + Send + Sync>);

impl FaultHook {
    /// Wraps a fault oracle. `seq` numbers the engine's decodes in the
    /// order they run, from 0; `pair` is the decode's pair id.
    pub fn new(oracle: impl Fn(u64, PairId) -> DecodeFault + Send + Sync + 'static) -> Self {
        FaultHook(Arc::new(oracle))
    }

    /// The fault to apply to decode number `seq` of `pair`.
    pub fn fault(&self, seq: u64, pair: PairId) -> DecodeFault {
        (self.0)(seq, pair)
    }
}

impl fmt::Debug for FaultHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("FaultHook(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FlowId, UpstreamId};

    #[test]
    fn hook_routes_by_sequence_number() {
        let hook = FaultHook::new(|seq, _| {
            if seq == 3 {
                DecodeFault::Panic
            } else {
                DecodeFault::None
            }
        });
        let pair = PairId {
            upstream: UpstreamId(0),
            flow: FlowId(0),
        };
        assert_eq!(hook.fault(0, pair), DecodeFault::None);
        assert_eq!(hook.fault(3, pair), DecodeFault::Panic);
        assert_eq!(format!("{:?}", hook), "FaultHook(..)");
    }
}
