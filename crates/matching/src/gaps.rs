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
use crate::sets::{Matcher, MatchingSets};

/// Matching sets `M(p₁)…M(pₙ)` where an empty set is an *erased slot*
/// (a suspected deletion) rather than a contradiction.
///
/// Erased slots stay in the sequence — indices still line up with
/// upstream packets — but expose no candidates and are skipped by the
/// tightening propagation: surviving packets must still match in
/// strictly increasing downstream order *across* the gaps.
///
/// The representation is that of [`MatchingSets`]: every slot is a run
/// of one candidate column, and an erased slot is an empty run. The
/// erased slots are counted as they appear: the empty runs of the scan,
/// then the slots [`tighten`](Self::tighten) drains. The range from the
/// first live slot to the last is kept too: only it is tightened.
#[derive(Debug, Clone)]
pub struct GappedSets {
    sets: MatchingSets,
    erased: usize,
    /// Every slot outside this range is erased.
    live: Range<usize>,
}

/// Two gapped sets are equal when their slots are: the live range only
/// bounds where tightening looks.
impl PartialEq for GappedSets {
    fn eq(&self, other: &Self) -> bool {
        self.sets == other.sets && self.erased == other.erased
    }
}

impl Eq for GappedSets {}

impl GappedSets {
    /// Computes gap-tolerant matching sets with the same scan as
    /// [`Matcher::matching_sets`], recording every empty set as an
    /// erased slot instead of returning `None`. Charges `meter`
    /// identically (one access per pointer advance and per window entry
    /// examined).
    ///
    /// Never fails: any pair of flows, however damaged, yields a
    /// structure (possibly with every slot erased).
    ///
    /// Only the upstream packets that overlap the suspicious flow in
    /// time are scanned: the others' slots are erased by the timing
    /// constraint alone.
    pub fn compute(
        matcher: &Matcher,
        upstream: &Flow,
        suspicious: &Flow,
        meter: &mut CostMeter,
    ) -> Self {
        let (sets, erased, overlap) = matcher.gapped_scan(upstream, suspicious, meter);
        let live = live_range(&sets, overlap);
        GappedSets { sets, erased, live }
    }

    /// Builds gapped sets directly from index ranges (tests and
    /// simulation helpers); an empty range is an erased slot.
    ///
    /// # Panics
    ///
    /// Panics if any range is reversed or reaches beyond
    /// `suspicious_len`.
    pub fn from_ranges(ranges: Vec<Range<u32>>, suspicious_len: usize) -> Self {
        let erased = ranges.iter().filter(|r| r.is_empty()).count();
        let runs = ranges
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                assert!(r.start <= r.end, "matching range {i} is reversed");
                assert!(
                    r.end as usize <= suspicious_len,
                    "matching range {i} references an out-of-range packet"
                );
                (r.start, r.end)
            })
            .collect();
        let sets = MatchingSets::from_runs(runs, suspicious_len);
        let live = live_range(&sets, 0..sets.len());
        GappedSets { sets, erased, live }
    }

    /// Number of upstream packets `n` (erased slots included).
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// `true` when there are no upstream packets.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Length of the suspicious flow `m`.
    pub const fn suspicious_len(&self) -> usize {
        self.sets.suspicious_len()
    }

    /// `true` when slot `i` is erased (its packet is presumed deleted).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn is_erased(&self, i: usize) -> bool {
        self.set(i).is_empty()
    }

    /// How many slots are erased.
    pub const fn erasures(&self) -> usize {
        self.erased
    }

    /// The candidates of upstream packet `i`, ascending; empty for an
    /// erased slot.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set(&self, i: usize) -> &[u32] {
        self.sets.set(i)
    }

    /// The earliest candidate of upstream packet `i`; `None` for an
    /// erased slot.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn first(&self, i: usize) -> Option<u32> {
        self.set(i).first().copied()
    }

    /// The latest candidate of upstream packet `i`; `None` for an
    /// erased slot.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn last(&self, i: usize) -> Option<u32> {
        self.set(i).last().copied()
    }

    /// Total number of candidates across all sets (`Σ |M(pᵢ)|`).
    pub fn total_candidates(&self) -> usize {
        self.sets.total_candidates()
    }

    /// The gap-tolerant interval tightening: the same forward/backward
    /// propagation as [`MatchingSets::tighten`], but skipping erased
    /// slots (a deleted packet imposes no order constraint) and marking
    /// any set that drains *erased* instead of failing.
    ///
    /// One pass each way reaches the fixpoint. The forward pass leaves
    /// the live slots' earliest candidates strictly increasing, the
    /// backward pass does the same for their latest and moves no
    /// earliest candidate, and erasing a slot only removes it from both
    /// sequences. A further pass would find every bound already met, so
    /// tightening again drops nothing.
    ///
    /// Charges `meter` per dropped candidate, as the strict rule does.
    /// Returns the number of slots newly erased by this call.
    ///
    /// The passes run from the first live slot to the last only. That
    /// is exact: an erased slot cuts to itself, is charged nothing,
    /// passes the bound on unchanged and never drains.
    pub fn tighten(&mut self, meter: &mut CostMeter) -> usize {
        let drained = self.sets.tighten_over(self.live.clone(), false, meter);
        self.erased += drained;
        drained
    }
}

/// The slots of `within` from the first non-empty one to the last; an
/// empty range when all are empty. Walks only the empty slots at either
/// end.
fn live_range(sets: &MatchingSets, within: Range<usize>) -> Range<usize> {
    let start = within
        .clone()
        .find(|&i| !sets.set(i).is_empty())
        .unwrap_or(within.end);
    let end = (start..within.end)
        .rfind(|&i| !sets.set(i).is_empty())
        .map_or(start, |i| i + 1);
    start..end
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepstone_flow::{Flow, TimeDelta, Timestamp};

    fn flow(secs: &[f64]) -> Flow {
        Flow::from_timestamps(secs.iter().map(|&s| Timestamp::from_secs_f64(s))).unwrap()
    }

    fn candidates(g: &GappedSets, i: usize) -> Vec<u32> {
        g.set(i).to_vec()
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
