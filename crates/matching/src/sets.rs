//! Matching-set computation and the Greedy+ phase-1 simplification.

use stepstone_flow::{Flow, TimeDelta};

use crate::cost::CostMeter;

/// Computes matching sets under the timing constraint `0 ≤ t′ − t ≤ Δ`,
/// optionally refined by the quantized-packet-size constraint (§3.2).
///
/// See the [crate docs](crate) for an example.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Matcher {
    delta: TimeDelta,
    size_quantum: Option<u32>,
}

impl Matcher {
    /// Creates a matcher with maximum delay `Δ`.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is negative.
    pub fn new(delta: TimeDelta) -> Self {
        assert!(!delta.is_negative(), "maximum delay must be non-negative");
        Matcher {
            delta,
            size_quantum: None,
        }
    }

    /// Additionally requires candidates to share the upstream packet's
    /// quantized size class (`⌈size / quantum⌉`), e.g. 16 for SSH block
    /// padding. The paper notes this is inappropriate when attackers can
    /// pad packets, so it is off by default.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    #[must_use]
    pub fn with_size_quantum(mut self, quantum: u32) -> Self {
        assert!(quantum > 0, "size quantum must be positive");
        self.size_quantum = Some(quantum);
        self
    }

    /// The maximum delay `Δ`.
    pub const fn delta(&self) -> TimeDelta {
        self.delta
    }

    /// The size quantum, if enabled.
    pub const fn size_quantum(&self) -> Option<u32> {
        self.size_quantum
    }

    /// Computes `M(pᵢ)` for every upstream packet with the two-pointer
    /// scan (`lo`, `hi` both only move forward, so each suspicious
    /// packet is examined at most twice). Charges `meter` one access per
    /// pointer advance and one per candidate recorded.
    ///
    /// Returns `None` as soon as any matching set is empty — the flows
    /// cannot be in the same connection chain (paper §3.2), and the
    /// caller reports a negative correlation immediately.
    pub fn matching_sets(
        &self,
        upstream: &Flow,
        suspicious: &Flow,
        meter: &mut CostMeter,
    ) -> Option<MatchingSets> {
        let n = upstream.len();
        let m = suspicious.len();
        let mut candidates: Vec<u32> = Vec::new();
        let mut bounds = Vec::with_capacity(n);
        let (mut lo, mut hi) = (0usize, 0usize);
        for i in 0..n {
            let t = upstream.timestamp(i);
            let latest = t + self.delta;
            while lo < m && suspicious.timestamp(lo) < t {
                meter.charge_one();
                lo += 1;
            }
            if hi < lo {
                hi = lo;
            }
            while hi < m && suspicious.timestamp(hi) <= latest {
                meter.charge_one();
                hi += 1;
            }
            meter.charge((hi - lo) as u64);
            let start = candidates.len();
            match self.size_quantum {
                None => candidates.extend(lo as u32..hi as u32),
                Some(q) => {
                    let class = upstream[i].size().div_ceil(q);
                    candidates.extend(
                        (lo..hi)
                            .filter(|&j| suspicious[j].size().div_ceil(q) == class)
                            .map(|j| j as u32),
                    );
                }
            }
            if candidates.len() == start {
                return None;
            }
            bounds.push((start, candidates.len()));
        }
        Some(MatchingSets {
            candidates,
            bounds,
            suspicious_len: m,
        })
    }
}

/// The matching sets `M(p₁)…M(pₙ)`, each a sorted list of candidate
/// downstream indices.
///
/// Stored flat: every set's candidates sit back to back in one buffer,
/// in upstream order, and each set is a `[start, end)` range into it.
/// Tightening only ever drops candidates from the ends of a set, so it
/// moves the bounds and never touches the buffer.
#[derive(Debug, Clone)]
pub struct MatchingSets {
    candidates: Vec<u32>,
    bounds: Vec<(usize, usize)>,
    suspicious_len: usize,
}

/// Two matching sets are equal when they list the same candidates per
/// upstream packet, whatever was tightened away in the buffer.
impl PartialEq for MatchingSets {
    fn eq(&self, other: &Self) -> bool {
        self.suspicious_len == other.suspicious_len
            && self.len() == other.len()
            && (0..self.len()).all(|i| self.set(i) == other.set(i))
    }
}

impl Eq for MatchingSets {}

impl MatchingSets {
    /// Builds matching sets directly (tests and simulation helpers).
    ///
    /// # Panics
    ///
    /// Panics if any set is empty, unsorted, contains duplicates, or
    /// references an index at or beyond `suspicious_len`.
    pub fn from_sets(sets: Vec<Vec<u32>>, suspicious_len: usize) -> Self {
        let mut candidates = Vec::with_capacity(sets.iter().map(Vec::len).sum());
        let mut bounds = Vec::with_capacity(sets.len());
        for (i, set) in sets.iter().enumerate() {
            assert!(!set.is_empty(), "matching set {i} is empty");
            assert!(
                set.windows(2).all(|w| w[0] < w[1]),
                "matching set {i} must be strictly sorted"
            );
            assert!(
                // lint: allow(no_panic) the assert two lines up already rejected empty sets
                (*set.last().expect("nonempty") as usize) < suspicious_len,
                "matching set {i} references an out-of-range packet"
            );
            let start = candidates.len();
            candidates.extend_from_slice(set);
            bounds.push((start, candidates.len()));
        }
        MatchingSets {
            candidates,
            bounds,
            suspicious_len,
        }
    }

    /// Number of upstream packets `n`.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// `true` when there are no upstream packets.
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// Length of the suspicious flow `m`.
    pub const fn suspicious_len(&self) -> usize {
        self.suspicious_len
    }

    /// The candidates of upstream packet `i`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set(&self, i: usize) -> &[u32] {
        let (start, end) = self.bounds[i];
        &self.candidates[start..end]
    }

    /// The earliest candidate of upstream packet `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn first(&self, i: usize) -> u32 {
        self.candidates[self.bounds[i].0]
    }

    /// The latest candidate of upstream packet `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn last(&self, i: usize) -> u32 {
        // Every set holds at least one candidate (constructors and
        // tightening both guarantee it), so `end - 1` is in the set.
        self.candidates[self.bounds[i].1 - 1]
    }

    /// Total number of candidates across all sets (`Σ |M(pᵢ)|`).
    pub fn total_candidates(&self) -> usize {
        self.bounds.iter().map(|&(start, end)| end - start).sum()
    }

    /// The Greedy+ phase-1 simplification, generalized: since upstream
    /// packet `i` must match strictly before packet `i+1`'s match,
    /// candidates of `i` at or above `M(pᵢ₊₁)`'s maximum are unusable,
    /// and candidates of `i+1` at or below `M(pᵢ)`'s minimum are
    /// unusable (the paper's "duplicate first or last packets" is the
    /// two-element case). One forward and one backward pass; charges
    /// `meter` per dropped candidate.
    ///
    /// Returns `false` if any set empties — no order-consistent complete
    /// matching exists, so the flows are not correlated.
    #[must_use]
    pub fn tighten(&mut self, meter: &mut CostMeter) -> bool {
        self.tighten_over(0..self.bounds.len(), meter)
    }

    /// [`tighten`](Self::tighten) restricted to a strictly increasing
    /// subsequence of upstream packets (the embedding packets, in the
    /// Greedy+ phase 1): only the listed sets are simplified against
    /// each other; the rest are untouched. This mirrors the paper's
    /// duplicate-first/last rule as Greedy+ applies it — it does not
    /// account for the order demands of the packets in between, which is
    /// what lets borderline flows reach the later phases.
    ///
    /// Returns `false` if any listed set empties.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is not strictly increasing or out of range.
    #[must_use]
    pub fn tighten_subset(&mut self, indices: &[usize], meter: &mut CostMeter) -> bool {
        assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "subset indices must be strictly increasing"
        );
        if let Some(&last) = indices.last() {
            assert!(last < self.bounds.len(), "subset index out of range");
        }
        self.tighten_over(indices.iter().copied(), meter)
    }

    /// The forward and backward passes over the sets `order` lists, in
    /// increasing upstream order.
    fn tighten_over<I>(&mut self, order: I, meter: &mut CostMeter) -> bool
    where
        I: DoubleEndedIterator<Item = usize> + Clone,
    {
        // Forward: candidate of packet i must be > min candidate of the
        // previous listed packet.
        let mut min_excl: Option<u32> = None;
        for i in order.clone() {
            let (start, end) = &mut self.bounds[i];
            if let Some(bound) = min_excl {
                let keep_from = self.candidates[*start..*end].partition_point(|&c| c <= bound);
                meter.charge(keep_from as u64);
                *start += keep_from;
                if start == end {
                    return false;
                }
            }
            min_excl = Some(self.candidates[*start]);
        }
        // Backward: candidate of packet i must be < max candidate of the
        // next listed packet.
        let mut max_excl: Option<u32> = None;
        for i in order.rev() {
            let (start, end) = &mut self.bounds[i];
            if let Some(bound) = max_excl {
                let set = &self.candidates[*start..*end];
                let keep_to = set.partition_point(|&c| c < bound);
                meter.charge((set.len() - keep_to) as u64);
                *end = *start + keep_to;
                if start == end {
                    return false;
                }
            }
            max_excl = Some(self.candidates[*end - 1]);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepstone_flow::{Flow, Timestamp};

    fn flow(secs: &[f64]) -> Flow {
        Flow::from_timestamps(secs.iter().map(|&s| Timestamp::from_secs_f64(s))).unwrap()
    }

    fn sets(up: &[f64], down: &[f64], delta_s: f64) -> Option<MatchingSets> {
        let mut meter = CostMeter::new();
        Matcher::new(TimeDelta::from_secs_f64(delta_s)).matching_sets(
            &flow(up),
            &flow(down),
            &mut meter,
        )
    }

    #[test]
    fn windows_respect_the_timing_constraint() {
        let s = sets(&[0.0, 1.0, 2.0], &[0.4, 1.2, 1.4, 2.3], 1.0).unwrap();
        assert_eq!(s.set(0), &[0]);
        assert_eq!(s.set(1), &[1, 2]);
        assert_eq!(s.set(2), &[3]);
        assert_eq!(s.total_candidates(), 4);
    }

    #[test]
    fn candidates_never_precede_the_upstream_packet() {
        // Downstream packet at 0.9 is before upstream packet at 1.0.
        let s = sets(&[1.0], &[0.9, 1.5], 1.0).unwrap();
        assert_eq!(s.set(0), &[1]);
    }

    #[test]
    fn empty_set_returns_none() {
        assert!(sets(&[0.0, 10.0], &[0.5], 1.0).is_none());
        // No candidate at all for a packet far in the past.
        assert!(sets(&[100.0], &[0.5], 1.0).is_none());
    }

    #[test]
    fn zero_delta_matches_exact_times_only() {
        let s = sets(&[1.0, 2.0], &[1.0, 2.0], 0.0).unwrap();
        assert_eq!(s.set(0), &[0]);
        assert_eq!(s.set(1), &[1]);
        assert!(sets(&[1.0], &[1.001], 0.0).is_none());
    }

    #[test]
    fn cost_is_linear_in_suspicious_length() {
        let up: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let down: Vec<f64> = (0..200).map(|i| i as f64 / 2.0).collect();
        let mut meter = CostMeter::new();
        let s = Matcher::new(TimeDelta::from_secs(1))
            .matching_sets(&flow(&up), &flow(&down), &mut meter)
            .unwrap();
        // Pointer advances ≤ 2m, plus one charge per recorded candidate.
        let bound = 2 * 200 + s.total_candidates() as u64;
        assert!(meter.count() <= bound, "{} > {bound}", meter.count());
        assert!(meter.count() >= s.total_candidates() as u64);
    }

    #[test]
    fn size_quantum_filters_candidates() {
        let up = Flow::from_packets([stepstone_flow::Packet::new(
            Timestamp::from_secs_f64(0.0),
            60, // class ⌈60/16⌉ = 4
        )])
        .unwrap();
        let down = Flow::from_packets([
            stepstone_flow::Packet::new(Timestamp::from_secs_f64(0.1), 50), // class 4
            stepstone_flow::Packet::new(Timestamp::from_secs_f64(0.2), 90), // class 6
        ])
        .unwrap();
        let mut meter = CostMeter::new();
        let s = Matcher::new(TimeDelta::from_secs(1))
            .with_size_quantum(16)
            .matching_sets(&up, &down, &mut meter)
            .unwrap();
        assert_eq!(s.set(0), &[0]);
        // Without the filter both match.
        let s = Matcher::new(TimeDelta::from_secs(1))
            .matching_sets(&up, &down, &mut meter)
            .unwrap();
        assert_eq!(s.set(0), &[0, 1]);
    }

    #[test]
    fn tighten_removes_paper_example_duplicates() {
        // M(p₁) = M(p₂) = {q₁, q₂}: p₂ cannot use q₁ and p₁ cannot use q₂.
        let mut s = MatchingSets::from_sets(vec![vec![1, 2], vec![1, 2]], 4);
        let mut meter = CostMeter::new();
        assert!(s.tighten(&mut meter));
        assert_eq!(s.set(0), &[1]);
        assert_eq!(s.set(1), &[2]);
        assert!(meter.count() > 0);
    }

    #[test]
    fn tighten_detects_infeasibility() {
        // Two packets, one shared candidate: no injective matching.
        let mut s = MatchingSets::from_sets(vec![vec![3], vec![3]], 5);
        let mut meter = CostMeter::new();
        assert!(!s.tighten(&mut meter));
    }

    #[test]
    fn tighten_cascades_through_long_chains() {
        // Three packets all seeing {5,6,7}: forced to 5,6,7 respectively.
        let mut s = MatchingSets::from_sets(vec![vec![5, 6, 7], vec![5, 6, 7], vec![5, 6, 7]], 10);
        let mut meter = CostMeter::new();
        assert!(s.tighten(&mut meter));
        assert_eq!(s.set(0), &[5]);
        assert_eq!(s.set(1), &[6]);
        assert_eq!(s.set(2), &[7]);
    }

    #[test]
    fn tighten_is_idempotent() {
        let mut s = MatchingSets::from_sets(vec![vec![0, 1, 2], vec![1, 2, 3]], 6);
        let mut meter = CostMeter::new();
        assert!(s.tighten(&mut meter));
        let once = s.clone();
        assert!(s.tighten(&mut meter));
        assert_eq!(s, once);
    }

    #[test]
    fn identity_matching_passes_untouched() {
        let up: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let mut s = sets(&up, &up, 0.5).unwrap();
        let mut meter = CostMeter::new();
        assert!(s.tighten(&mut meter));
        for i in 0..10 {
            assert_eq!(s.set(i), &[i as u32]);
        }
    }

    #[test]
    fn accessors() {
        let s = MatchingSets::from_sets(vec![vec![2, 4, 6]], 8);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        assert_eq!(s.first(0), 2);
        assert_eq!(s.last(0), 6);
        assert_eq!(s.suspicious_len(), 8);
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn from_sets_rejects_unsorted() {
        let _ = MatchingSets::from_sets(vec![vec![3, 2]], 5);
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn from_sets_rejects_out_of_range() {
        let _ = MatchingSets::from_sets(vec![vec![5]], 5);
    }

    #[test]
    fn empty_upstream_yields_empty_sets() {
        let mut meter = CostMeter::new();
        let s = Matcher::new(TimeDelta::from_secs(1))
            .matching_sets(&Flow::new(), &flow(&[1.0]), &mut meter)
            .unwrap();
        assert!(s.is_empty());
        assert_eq!(s.suspicious_len(), 1);
    }
}
