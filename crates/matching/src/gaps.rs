//! Gap-tolerant matching sets: the deletion-robust relaxation of the
//! paper's §3.2 abort rule.
//!
//! Under §2 assumption 1 an empty matching set proves two flows
//! unrelated, so [`Matcher::matching_sets`] returns `None` and the
//! decode aborts. On a lossy channel that proof is unsound: a deleted
//! downstream packet empties its upstream packet's window exactly the
//! same way. [`GappedSets`] keeps the two-pointer scan and the
//! tightening rule but *charges an erasure* instead of aborting — the
//! slot is marked erased, imposes no order constraint, and the decoder
//! runs over what survives. The caller holds the erasure count against
//! its budget; the structure itself never fails.

use std::ops::Range;

use stepstone_flow::Flow;

use crate::cost::CostMeter;
use crate::sets::Matcher;

/// One upstream packet's matching set: the downstream indices
/// `[lo, hi)`, filtered by size class when the matcher has a quantum.
/// Kept trimmed: while the slot is live, `lo` and `hi − 1` are both
/// candidates; an erased slot has `lo == hi`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    lo: u32,
    hi: u32,
    /// The upstream packet's size class; unused without a quantum.
    class: u32,
}

impl Slot {
    const fn is_erased(self) -> bool {
        self.lo == self.hi
    }

    /// `true` when downstream index `j` of the range is a candidate:
    /// always without a quantum (`classes` empty), else when its size
    /// class is the slot's.
    fn holds(self, classes: &[u32], j: u32) -> bool {
        classes.is_empty() || classes[j as usize] == self.class
    }

    /// How many candidates lie in `[from, to)`, a sub-range of the slot.
    fn count(self, classes: &[u32], from: u32, to: u32) -> u64 {
        if classes.is_empty() {
            return u64::from(to - from);
        }
        (from..to).filter(|&j| self.holds(classes, j)).count() as u64
    }

    /// Restores the trimmed invariant after an end moved: steps `lo`
    /// forward and `hi` back over other-class indices.
    fn trim(&mut self, classes: &[u32]) {
        while self.lo < self.hi && !self.holds(classes, self.lo) {
            self.lo += 1;
        }
        while self.lo < self.hi && !self.holds(classes, self.hi - 1) {
            self.hi -= 1;
        }
    }

    /// Drops the candidates at or below `bound` and returns how many
    /// there were.
    fn drop_through(&mut self, classes: &[u32], bound: u32) -> u64 {
        if bound < self.lo {
            return 0;
        }
        let cut = if bound < self.hi { bound + 1 } else { self.hi };
        let dropped = self.count(classes, self.lo, cut);
        self.lo = cut;
        self.trim(classes);
        dropped
    }

    /// Drops the candidates at or above `bound` and returns how many
    /// there were.
    fn drop_from(&mut self, classes: &[u32], bound: u32) -> u64 {
        if bound >= self.hi {
            return 0;
        }
        let cut = bound.max(self.lo);
        let dropped = self.count(classes, cut, self.hi);
        self.hi = cut;
        self.trim(classes);
        dropped
    }
}

/// Matching sets `M(p₁)…M(pₙ)` where an empty set is an *erased slot*
/// (a suspected deletion) rather than a contradiction.
///
/// Erased slots stay in the sequence — indices still line up with
/// upstream packets — but expose no candidates and are skipped by the
/// tightening propagation: surviving packets must still match in
/// strictly increasing downstream order *across* the gaps.
///
/// Under the timing constraint every matching set is a contiguous run
/// of downstream indices, and tightening only drops candidates from
/// its ends, so each slot is stored as a trimmed `[lo, hi)` range
/// rather than a list. With a size quantum the interior of a range may
/// hold other-class indices; [`set`](Self::set) filters them and
/// tightening steps over them.
#[derive(Debug, Clone)]
pub struct GappedSets {
    slots: Vec<Slot>,
    /// Size class of every suspicious packet; empty when the matcher
    /// has no size quantum, so every index in a range is a candidate.
    classes: Vec<u32>,
    suspicious_len: usize,
}

/// Two gapped sets are equal when they list the same candidates per
/// upstream packet, whatever range an erased slot was left with.
impl PartialEq for GappedSets {
    fn eq(&self, other: &Self) -> bool {
        self.suspicious_len == other.suspicious_len
            && self.len() == other.len()
            && (0..self.len()).all(|i| self.set(i).eq(other.set(i)))
    }
}

impl Eq for GappedSets {}

impl GappedSets {
    /// Computes gap-tolerant matching sets with the same two-pointer
    /// scan and size-class filter as [`Matcher::matching_sets`],
    /// marking every empty set erased instead of returning `None`.
    /// Charges `meter` identically (one access per pointer advance and
    /// per window entry examined).
    ///
    /// Never fails: any pair of flows, however damaged, yields a
    /// structure (possibly with every slot erased).
    pub fn compute(
        matcher: &Matcher,
        upstream: &Flow,
        suspicious: &Flow,
        meter: &mut CostMeter,
    ) -> Self {
        let n = upstream.len();
        let m = suspicious.len();
        let quantum = matcher.size_quantum();
        let classes: Vec<u32> = match quantum {
            Some(q) => suspicious.iter().map(|p| p.size().div_ceil(q)).collect(),
            None => Vec::new(),
        };
        let mut slots = Vec::with_capacity(n);
        let (mut lo, mut hi) = (0usize, 0usize);
        for i in 0..n {
            let t = upstream.timestamp(i);
            let latest = t + matcher.delta();
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
            let mut slot = Slot {
                lo: lo as u32,
                hi: hi as u32,
                class: quantum.map_or(0, |q| upstream[i].size().div_ceil(q)),
            };
            slot.trim(&classes);
            slots.push(slot);
        }
        GappedSets {
            slots,
            classes,
            suspicious_len: m,
        }
    }

    /// Builds gapped sets directly from index ranges (tests and
    /// simulation helpers); an empty range is an erased slot.
    ///
    /// # Panics
    ///
    /// Panics if any range is reversed or reaches beyond
    /// `suspicious_len`.
    pub fn from_ranges(ranges: Vec<Range<u32>>, suspicious_len: usize) -> Self {
        let slots = ranges
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                assert!(r.start <= r.end, "matching range {i} is reversed");
                assert!(
                    r.end as usize <= suspicious_len,
                    "matching range {i} references an out-of-range packet"
                );
                Slot {
                    lo: r.start,
                    hi: r.end,
                    class: 0,
                }
            })
            .collect();
        GappedSets {
            slots,
            classes: Vec::new(),
            suspicious_len,
        }
    }

    /// Number of upstream packets `n` (erased slots included).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when there are no upstream packets.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Length of the suspicious flow `m`.
    pub const fn suspicious_len(&self) -> usize {
        self.suspicious_len
    }

    /// `true` when slot `i` is erased (its packet is presumed deleted).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn is_erased(&self, i: usize) -> bool {
        self.slots[i].is_erased()
    }

    /// How many slots are erased.
    pub fn erasures(&self) -> usize {
        self.slots.iter().filter(|s| s.is_erased()).count()
    }

    /// The candidates of upstream packet `i`, ascending; empty for an
    /// erased slot.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set(&self, i: usize) -> impl Iterator<Item = u32> + '_ {
        let slot = self.slots[i];
        (slot.lo..slot.hi).filter(move |&j| slot.holds(&self.classes, j))
    }

    /// The earliest candidate of upstream packet `i`; `None` for an
    /// erased slot.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn first(&self, i: usize) -> Option<u32> {
        let slot = self.slots[i];
        (!slot.is_erased()).then_some(slot.lo)
    }

    /// The latest candidate of upstream packet `i`; `None` for an
    /// erased slot.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn last(&self, i: usize) -> Option<u32> {
        let slot = self.slots[i];
        (!slot.is_erased()).then(|| slot.hi - 1)
    }

    /// Total number of candidates across all sets (`Σ |M(pᵢ)|`).
    pub fn total_candidates(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.count(&self.classes, s.lo, s.hi) as usize)
            .sum()
    }

    /// The gap-tolerant interval tightening: the same forward/backward
    /// propagation as [`super::MatchingSets::tighten`], but skipping
    /// erased slots (a deleted packet imposes no order constraint) and
    /// marking any set that drains *erased* instead of failing.
    ///
    /// One pass each way reaches the fixpoint. The forward pass leaves
    /// the live slots' earliest candidates strictly increasing, the
    /// backward pass does the same for their latest and moves no
    /// earliest candidate, and erasing a slot only removes it from both
    /// sequences. A further pass would find every bound already met, so
    /// tightening again drops nothing.
    ///
    /// Charges `meter` per dropped candidate, as the strict rule does;
    /// other-class indices a range end steps over are not candidates
    /// and cost nothing. Returns the number of slots newly erased by
    /// this call.
    pub fn tighten(&mut self, meter: &mut CostMeter) -> usize {
        let before = self.erasures();
        let classes = &self.classes;
        // Forward: a candidate of the current live slot must be strictly
        // after the previous live slot's earliest.
        let mut min_excl: Option<u32> = None;
        for slot in self.slots.iter_mut().filter(|s| !s.is_erased()) {
            if let Some(bound) = min_excl {
                meter.charge(slot.drop_through(classes, bound));
                if slot.is_erased() {
                    continue;
                }
            }
            min_excl = Some(slot.lo);
        }
        // Backward: a candidate of the current live slot must be strictly
        // before the next live slot's latest.
        let mut max_excl: Option<u32> = None;
        for slot in self.slots.iter_mut().rev().filter(|s| !s.is_erased()) {
            if let Some(bound) = max_excl {
                meter.charge(slot.drop_from(classes, bound));
                if slot.is_erased() {
                    continue;
                }
            }
            max_excl = Some(slot.hi - 1);
        }
        self.erasures() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepstone_flow::{Flow, TimeDelta, Timestamp};

    fn flow(secs: &[f64]) -> Flow {
        Flow::from_timestamps(secs.iter().map(|&s| Timestamp::from_secs_f64(s))).unwrap()
    }

    fn candidates(g: &GappedSets, i: usize) -> Vec<u32> {
        g.set(i).collect()
    }

    fn gapped(up: &[f64], down: &[f64], delta_s: f64) -> GappedSets {
        let mut meter = CostMeter::new();
        GappedSets::compute(
            &Matcher::new(TimeDelta::from_secs_f64(delta_s)),
            &flow(up),
            &flow(down),
            &mut meter,
        )
    }

    #[test]
    fn matches_strict_sets_when_nothing_is_deleted() {
        let g = gapped(&[0.0, 1.0, 2.0], &[0.4, 1.2, 1.4, 2.3], 1.0);
        assert_eq!(g.erasures(), 0);
        assert_eq!(candidates(&g, 0), [0]);
        assert_eq!(candidates(&g, 1), [1, 2]);
        assert_eq!(candidates(&g, 2), [3]);
        assert_eq!(g.first(1), Some(1));
        assert_eq!(g.last(1), Some(2));
        assert_eq!(g.total_candidates(), 4);
    }

    #[test]
    fn deleted_packet_becomes_an_erasure_not_an_abort() {
        // Upstream packet at 10.0 has no window candidate: the strict
        // matcher returns None, the gapped one charges one erasure.
        let g = gapped(&[0.0, 10.0, 20.0], &[0.5, 20.5], 1.0);
        assert_eq!(g.erasures(), 1);
        assert!(g.is_erased(1));
        assert_eq!(g.first(1), None);
        assert_eq!(candidates(&g, 0), [0]);
        assert_eq!(candidates(&g, 2), [1]);
    }

    #[test]
    fn fully_unmatched_flows_erase_every_slot() {
        let g = gapped(&[100.0, 200.0], &[0.5], 1.0);
        assert_eq!(g.erasures(), 2);
        assert!(g.is_erased(0) && g.is_erased(1));
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn tighten_skips_gaps_but_propagates_across_them() {
        // Slot 1 erased; slots 0 and 2 share {3, 4}: order still forces
        // 0 → 3 and 2 → 4 across the gap.
        let mut g = GappedSets::from_ranges(vec![3..5, 0..0, 3..5], 6);
        let mut meter = CostMeter::new();
        assert_eq!(g.tighten(&mut meter), 0);
        assert_eq!(candidates(&g, 0), [3]);
        assert_eq!(candidates(&g, 2), [4]);
        assert_eq!(g.erasures(), 1);
    }

    #[test]
    fn tighten_erases_drained_slots() {
        // Slots 0 and 1 both see only {3}: one of them must drain. The
        // drained slot becomes an erasure and the rest still decodes.
        let mut g = GappedSets::from_ranges(vec![3..4, 3..4, 4..6], 6);
        let mut meter = CostMeter::new();
        assert_eq!(g.tighten(&mut meter), 1);
        assert_eq!(g.erasures(), 1);
        assert!(g.is_erased(1));
        assert_eq!(candidates(&g, 0), [3]);
    }

    #[test]
    fn tighten_matches_the_strict_rule_on_clean_input() {
        let mut g = GappedSets::from_ranges(vec![5..8, 5..8, 5..8], 10);
        let mut meter = CostMeter::new();
        assert_eq!(g.tighten(&mut meter), 0);
        assert_eq!(candidates(&g, 0), [5]);
        assert_eq!(candidates(&g, 1), [6]);
        assert_eq!(candidates(&g, 2), [7]);
        assert!(meter.count() > 0);
    }

    #[test]
    fn tighten_is_idempotent() {
        let mut g = GappedSets::from_ranges(vec![0..3, 0..0, 1..4], 6);
        let mut meter = CostMeter::new();
        let _ = g.tighten(&mut meter);
        let once = g.clone();
        assert_eq!(g.tighten(&mut meter), 0);
        assert_eq!(g, once);
    }

    #[test]
    fn empty_upstream_yields_empty_sets() {
        let g = gapped(&[], &[1.0], 1.0);
        assert!(g.is_empty());
        assert_eq!(g.erasures(), 0);
        assert_eq!(g.suspicious_len(), 1);
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn from_ranges_rejects_out_of_range() {
        let _ = GappedSets::from_ranges(vec![0..1, 3..6], 5);
    }
}
