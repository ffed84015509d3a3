//! Identifiers for flows, watermarked upstreams and candidate pairs.

use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifies one suspicious (downstream) flow in the ingest stream.
///
/// Ids are assigned by the program, never read off the wire:
/// `stepstone_ingest::FlowDemux` numbers flows in first-seen order, and
/// in-memory workloads number them by index. Idle eviction keeps
/// minting fresh ids, but no sender can choose them. The monitor therefore indexes flows with an
/// unkeyed multiplicative hasher; any `u64` is a valid id, and it only
/// decides the verdicts' flow order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

/// An unkeyed multiplicative (Fx-style) hasher for [`FlowId`] keys:
/// one add and one multiply per id, where std's keyed SipHash-1-3 runs
/// five rounds over a 32-byte state for one `u64`. It has no defence
/// against chosen keys, which is sound only because flow ids are
/// program-assigned (see [`FlowId`]). The final rotation moves the
/// product's well-mixed high bits down to where the table takes its
/// bucket index, so strided ids spread as well as dense ones.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FlowIdHasher(u64);

/// Odd multiplier with well-spread bits, as in rustc's `FxHasher`.
const FX_SEED: u64 = 0xf135_7aea_2e62_a9c5;

impl Hasher for FlowIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.wrapping_add(n).wrapping_mul(FX_SEED);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Builds [`FlowIdHasher`]s for the monitor's flow table.
pub(crate) type BuildFlowIdHasher = BuildHasherDefault<FlowIdHasher>;

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Identifies one registered watermarked upstream flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UpstreamId(pub u64);

impl fmt::Display for UpstreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// A candidate (watermarked upstream, suspicious downstream) pair — the
/// unit of decode work and of verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PairId {
    /// The registered upstream.
    pub upstream: UpstreamId,
    /// The suspicious flow.
    pub flow: FlowId,
}

impl fmt::Display for PairId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.upstream, self.flow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_compact() {
        let pair = PairId {
            upstream: UpstreamId(3),
            flow: FlowId(17),
        };
        assert_eq!(pair.to_string(), "u3:f17");
    }

    #[test]
    fn flow_id_hasher_spreads_strided_and_extreme_ids() {
        use std::hash::BuildHasher;
        let hash = |id: u64| BuildFlowIdHasher::default().hash_one(FlowId(id));
        // The low bits pick the bucket: ids a power of two apart must
        // still land in distinct buckets of a 256-slot table.
        let buckets: std::collections::BTreeSet<u64> =
            (0..256u64).map(|k| hash(k << 20) & 0xff).collect();
        assert!(buckets.len() > 128, "{} distinct buckets", buckets.len());
        assert_ne!(hash(u64::MAX), hash(0));
        assert_ne!(hash(1 << 32), hash(0));
    }
}
