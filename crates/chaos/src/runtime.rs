//! Runtime-layer faults: contained decode panics, expressed as a
//! [`FaultHook`](stepstone_monitor::FaultHook) the engine consults once
//! per decode.
//!
//! The decision stream is addressed by the engine's decode sequence
//! number, so the *schedule* (which decode numbers panic) is a pure
//! function of the seed; the engine decodes in event-stream order, so
//! which pair a given decode number lands on is too.

use stepstone_monitor::{DecodeFault, FaultHook};

use crate::plan::{Profile, TAG_RUNTIME};
use crate::rng::{mix, SplitMix64};

/// Runtime-layer fault rates, derived from a plan's seed and profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeFaults {
    seed: u64,
    /// Per-decode probability of a contained panic.
    pub panic_decode: f64,
}

impl RuntimeFaults {
    pub(crate) fn from_plan(seed: u64, profile: Profile) -> Self {
        let panic_decode = match profile {
            Profile::Mild => 0.0,
            Profile::Harsh => 0.04,
            Profile::Adversarial => 0.10,
        };
        RuntimeFaults { seed, panic_decode }
    }

    /// The fault for decode sequence number `seq`. Index-addressed.
    pub fn decision(&self, seq: u64) -> DecodeFault {
        let mut r = SplitMix64::new(mix(self.seed, TAG_RUNTIME, seq));
        if r.chance(self.panic_decode) {
            DecodeFault::Panic
        } else {
            DecodeFault::None
        }
    }

    /// The first `n` decisions — the runtime layer's fault schedule.
    pub fn schedule(&self, n: u64) -> Vec<DecodeFault> {
        (0..n).map(|seq| self.decision(seq)).collect()
    }

    /// This layer as an engine [`FaultHook`].
    pub fn hook(&self) -> FaultHook {
        let faults = *self;
        FaultHook::new(move |seq, _pair| faults.decision(seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic() {
        let a = RuntimeFaults::from_plan(7, Profile::Harsh).schedule(4096);
        let b = RuntimeFaults::from_plan(7, Profile::Harsh).schedule(4096);
        assert_eq!(a, b);
        let c = RuntimeFaults::from_plan(8, Profile::Harsh).schedule(4096);
        assert_ne!(a, c);
    }

    #[test]
    fn mild_profile_never_panics() {
        for fault in RuntimeFaults::from_plan(3, Profile::Mild).schedule(4096) {
            assert_eq!(fault, DecodeFault::None);
        }
    }

    #[test]
    fn harsh_profile_schedules_panics_at_its_rate() {
        let schedule = RuntimeFaults::from_plan(1, Profile::Harsh).schedule(4096);
        let panics = schedule
            .iter()
            .filter(|&&f| f == DecodeFault::Panic)
            .count();
        // 4% of 4096 is 164; allow a wide binomial margin.
        assert!((100..240).contains(&panics), "{panics}");
    }

    #[test]
    fn hook_matches_the_schedule() {
        let faults = RuntimeFaults::from_plan(5, Profile::Adversarial);
        let hook = faults.hook();
        let pair = stepstone_monitor::PairId {
            upstream: stepstone_monitor::UpstreamId(0),
            flow: stepstone_monitor::FlowId(0),
        };
        for seq in 0..512 {
            assert_eq!(hook.fault(seq, pair), faults.decision(seq));
        }
    }
}
