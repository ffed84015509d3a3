//! The fault plan: one seed, one profile, three fault layers.

use std::fmt;
use std::str::FromStr;

use stepstone_monitor::{DecodeFault, MonitorConfig};

use crate::flowfault::{FlowFaultInjector, FlowFaults};
use crate::runtime::RuntimeFaults;
use crate::wire::WireFaults;

/// Layer tags keeping the three fault layers' decision streams
/// independent even though they share one seed.
pub(crate) const TAG_WIRE: u64 = 0x57;
pub(crate) const TAG_FLOW: u64 = 0xF1;
pub(crate) const TAG_RUNTIME: u64 = 0xD0;

/// How aggressive a [`FaultPlan`] is.
///
/// Rates are per-decision probabilities; see each layer's config type
/// for what a decision is (a capture byte, a wire record, a flow event,
/// a decode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Profile {
    /// Rare, small faults: a sanity level any healthy pipeline should
    /// shrug off with near-identical results.
    #[default]
    Mild,
    /// Frequent faults at every layer, including decode panics — the
    /// level the `chaos_soak` test runs under.
    Harsh,
    /// The paper's active-adversary regime turned against our own
    /// runtime: heavy deletion, bursty insertion, large skews, and
    /// frequent runtime faults.
    Adversarial,
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Profile::Mild => "mild",
            Profile::Harsh => "harsh",
            Profile::Adversarial => "adversarial",
        })
    }
}

/// Error parsing a `SEED[:PROFILE]` chaos spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseChaosError(String);

impl fmt::Display for ParseChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: expected SEED[:mild|harsh|adversarial]", self.0)
    }
}

impl std::error::Error for ParseChaosError {}

impl FromStr for Profile {
    type Err = ParseChaosError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "mild" => Ok(Profile::Mild),
            "harsh" => Ok(Profile::Harsh),
            "adversarial" => Ok(Profile::Adversarial),
            other => Err(ParseChaosError(format!("unknown profile {other:?}"))),
        }
    }
}

/// A reproducible fault-injection plan: every fault any layer injects
/// is a pure function of `(seed, profile)`.
///
/// The plan itself is just the two knobs; the layer accessors
/// ([`wire`](FaultPlan::wire), [`flow`](FaultPlan::flow),
/// [`runtime`](FaultPlan::runtime)) hand out per-layer configurations
/// whose decision streams are index-addressed, so schedules do not
/// depend on thread interleavings or input sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    profile: Profile,
}

impl FaultPlan {
    /// A plan reproducible from `seed` at the given aggressiveness.
    pub fn new(seed: u64, profile: Profile) -> Self {
        FaultPlan { seed, profile }
    }

    /// Parses a `SEED[:PROFILE]` spec as accepted by `repro monitor
    /// --chaos`; the profile defaults to [`Profile::Mild`].
    pub fn parse(spec: &str) -> Result<Self, ParseChaosError> {
        let (seed, profile) = match spec.split_once(':') {
            Some((seed, profile)) => (seed, profile.parse()?),
            None => (spec, Profile::default()),
        };
        let seed = seed
            .parse::<u64>()
            .map_err(|e| ParseChaosError(format!("bad seed {seed:?}: {e}")))?;
        Ok(FaultPlan::new(seed, profile))
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's profile.
    pub fn profile(&self) -> Profile {
        self.profile
    }

    /// The wire fault layer: capture-byte corruption and truncation,
    /// record drop/duplicate, timestamp skew.
    pub fn wire(&self) -> WireFaults {
        WireFaults::from_plan(self.seed, self.profile)
    }

    /// The flow fault layer: packet deletion, chaff bursts, bounded
    /// extra delay — applied between demux and the engine.
    pub fn flow(&self) -> FlowFaults {
        FlowFaults::from_plan(self.seed, self.profile)
    }

    /// A fresh stateful injector over the flow fault layer.
    pub fn flow_injector(&self) -> FlowFaultInjector {
        self.flow().injector()
    }

    /// The runtime fault layer: scheduled contained decode panics.
    pub fn runtime(&self) -> RuntimeFaults {
        RuntimeFaults::from_plan(self.seed, self.profile)
    }

    /// Arms `config` with this plan's runtime faults. Wire and flow
    /// layers are armed separately — they wrap the ingest path, not the
    /// engine.
    pub fn arm_monitor(&self, config: MonitorConfig) -> MonitorConfig {
        config.with_fault_hook(self.runtime().hook())
    }

    /// An FNV-1a digest over the first `n` decisions of all three fault
    /// layers — the "byte-identical fault schedule" witness: two plans
    /// agree on the digest iff they agree on every sampled decision.
    pub fn schedule_digest(&self, n: u64) -> u64 {
        const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut hash = FNV_OFFSET;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        };
        let wire = self.wire();
        let flow = self.flow();
        let runtime = self.runtime();
        for i in 0..n {
            eat(wire.record_decision(i).encode());
            eat(flow.decision(i).encode());
            eat(match runtime.decision(i) {
                DecodeFault::None => 0,
                DecodeFault::Panic => 1,
            });
        }
        hash
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.seed, self.profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_seed_and_optional_profile() {
        assert_eq!(
            FaultPlan::parse("7").unwrap(),
            FaultPlan::new(7, Profile::Mild)
        );
        assert_eq!(
            FaultPlan::parse("7:harsh").unwrap(),
            FaultPlan::new(7, Profile::Harsh)
        );
        assert_eq!(
            FaultPlan::parse("123:adversarial").unwrap(),
            FaultPlan::new(123, Profile::Adversarial)
        );
        assert!(FaultPlan::parse("x").is_err());
        assert!(FaultPlan::parse("7:gentle").is_err());
        assert!(FaultPlan::parse("").is_err());
    }

    #[test]
    fn display_round_trips_through_parse() {
        let plan = FaultPlan::new(42, Profile::Harsh);
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }

    #[test]
    fn digest_separates_seeds_and_profiles() {
        let a = FaultPlan::new(1, Profile::Harsh).schedule_digest(256);
        let b = FaultPlan::new(2, Profile::Harsh).schedule_digest(256);
        let c = FaultPlan::new(1, Profile::Adversarial).schedule_digest(256);
        assert_eq!(a, FaultPlan::new(1, Profile::Harsh).schedule_digest(256));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
