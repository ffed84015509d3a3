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
    /// pointer advance and one per window entry examined.
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
        let sets = self.scan(upstream, suspicious, meter, true);
        let aborted = sets.runs.last().is_some_and(|&(start, end)| start == end);
        (!aborted).then_some(sets)
    }

    /// The scan behind both kinds of set: strict sets stop at the first
    /// empty set (`stop_at_empty`, which is then the last run), gapped
    /// sets record it as an empty run and go on. Without a size quantum
    /// the column is the identity and the window `[lo, hi)` is the run;
    /// with one, the window's class entries are a run of the class's
    /// group, which [`Classes::run`] tracks.
    pub(crate) fn scan(
        &self,
        upstream: &Flow,
        suspicious: &Flow,
        meter: &mut CostMeter,
        stop_at_empty: bool,
    ) -> MatchingSets {
        let m = suspicious.len();
        let (column, mut classes) = match self.size_quantum {
            None => ((0..m as u32).collect(), None),
            Some(q) => {
                let (column, classes) = Classes::group(suspicious, q);
                (column, Some(classes))
            }
        };
        let mut runs = Vec::with_capacity(upstream.len());
        let (mut lo, mut hi) = (0usize, 0usize);
        for packet in upstream.iter() {
            let t = packet.timestamp();
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
            let run = match &mut classes {
                None => (lo as u32, hi as u32),
                Some(classes) => classes.run(&column, packet.size(), lo, hi),
            };
            runs.push(run);
            if stop_at_empty && run.0 == run.1 {
                break;
            }
        }
        MatchingSets {
            identity: classes.is_none(),
            column,
            runs,
            suspicious_len: m,
        }
    }
}

/// The size-class groups of a scan's column: `(class, start, end)` of
/// each group, ascending by class, and the group's cursor pair.
struct Classes {
    quantum: u32,
    groups: Vec<(u32, usize, usize)>,
    cursors: Vec<(usize, usize)>,
}

impl Classes {
    /// The column of `suspicious`' indices grouped by size class, in
    /// index order within each class, and its groups.
    fn group(suspicious: &Flow, quantum: u32) -> (Vec<u32>, Self) {
        let class = |j: &u32| suspicious[*j as usize].size().div_ceil(quantum);
        let mut column: Vec<u32> = (0..suspicious.len() as u32).collect();
        column.sort_by_key(class);
        let mut groups = Vec::new();
        for chunk in column.chunk_by(|a, b| class(a) == class(b)) {
            let start = groups.last().map_or(0, |&(_, _, end)| end);
            groups.push((class(&chunk[0]), start, start + chunk.len()));
        }
        let cursors = groups.iter().map(|&(_, start, _)| (start, start)).collect();
        (
            column,
            Classes {
                quantum,
                groups,
                cursors,
            },
        )
    }

    /// The run of the scan window `[lo, hi)` within the group of an
    /// upstream packet of `size`. The window only moves forward, so the
    /// group's cursors only move forward too: over a whole scan they
    /// cross each group once.
    fn run(&mut self, column: &[u32], size: u32, lo: usize, hi: usize) -> (u32, u32) {
        let class = size.div_ceil(self.quantum);
        let Ok(g) = self.groups.binary_search_by_key(&class, |&(c, _, _)| c) else {
            return (0, 0);
        };
        let end = self.groups[g].2;
        let (from, to) = &mut self.cursors[g];
        while *from < end && (column[*from] as usize) < lo {
            *from += 1;
        }
        *to = (*to).max(*from);
        while *to < end && (column[*to] as usize) < hi {
            *to += 1;
        }
        (*from as u32, *to as u32)
    }
}

/// The matching sets `M(p₁)…M(pₙ)`, each a sorted list of candidate
/// downstream indices.
///
/// Every set is a `[start, end)` run of one candidate column, so no
/// set's candidates are copied. A computed column is the identity
/// `0..m` without a size quantum, and with one it lists the suspicious
/// indices grouped by size class, in index order within each class;
/// [`from_sets`](Self::from_sets) lays its sets out back to back.
/// Tightening only ever drops candidates from the ends of a set, so it
/// moves the run's ends and never touches the column.
#[derive(Debug, Clone)]
pub struct MatchingSets {
    column: Vec<u32>,
    runs: Vec<(u32, u32)>,
    /// `column[k] == k`: a tightening cut is computed, not searched.
    identity: bool,
    suspicious_len: usize,
}

/// Two matching sets are equal when they list the same candidates per
/// upstream packet, whatever their columns hold.
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
        let mut column = Vec::with_capacity(sets.iter().map(Vec::len).sum());
        let mut runs = Vec::with_capacity(sets.len());
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
            let start = column.len() as u32;
            column.extend_from_slice(set);
            runs.push((start, column.len() as u32));
        }
        MatchingSets {
            column,
            runs,
            identity: false,
            suspicious_len,
        }
    }

    /// Sets that are the given `[start, end)` runs of the identity
    /// column `0..suspicious_len`.
    pub(crate) fn from_runs(runs: Vec<(u32, u32)>, suspicious_len: usize) -> Self {
        MatchingSets {
            column: (0..suspicious_len as u32).collect(),
            runs,
            identity: true,
            suspicious_len,
        }
    }

    /// Number of upstream packets `n`.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// `true` when there are no upstream packets.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
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
        let (start, end) = self.runs[i];
        &self.column[start as usize..end as usize]
    }

    /// The earliest candidate of upstream packet `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn first(&self, i: usize) -> u32 {
        self.column[self.runs[i].0 as usize]
    }

    /// The latest candidate of upstream packet `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn last(&self, i: usize) -> u32 {
        // Every set holds at least one candidate (constructors and
        // tightening both guarantee it), so `end - 1` is in the set.
        self.column[self.runs[i].1 as usize - 1]
    }

    /// Total number of candidates across all sets (`Σ |M(pᵢ)|`).
    pub fn total_candidates(&self) -> usize {
        self.runs
            .iter()
            .map(|&(start, end)| (end - start) as usize)
            .sum()
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
        self.tighten_over(0..self.runs.len(), true, meter)
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
            assert!(last < self.runs.len(), "subset index out of range");
        }
        self.tighten_over(indices.iter().copied(), true, meter)
    }

    /// The forward and backward passes over the sets `order` lists, in
    /// increasing upstream order. Empty sets (gapped erasures) are
    /// skipped. A set that empties ends the passes with `false` when
    /// `strict`, and is skipped from then on otherwise. Each cut is
    /// charged the candidates it drops.
    pub(crate) fn tighten_over<I>(&mut self, order: I, strict: bool, meter: &mut CostMeter) -> bool
    where
        I: DoubleEndedIterator<Item = usize> + Clone,
    {
        // Forward: candidate of packet i must be > min candidate of the
        // previous listed packet.
        let mut min_excl: Option<u32> = None;
        for i in order.clone() {
            let (start, end) = self.runs[i];
            if start == end {
                continue;
            }
            if let Some(bound) = min_excl {
                let cut = self.cut(i, u64::from(bound) + 1);
                meter.charge(u64::from(cut - start));
                self.runs[i].0 = cut;
                if cut == end {
                    if strict {
                        return false;
                    }
                    continue;
                }
            }
            min_excl = Some(self.first(i));
        }
        // Backward: candidate of packet i must be < max candidate of the
        // next listed packet.
        let mut max_excl: Option<u32> = None;
        for i in order.rev() {
            let (start, end) = self.runs[i];
            if start == end {
                continue;
            }
            if let Some(bound) = max_excl {
                let cut = self.cut(i, u64::from(bound));
                meter.charge(u64::from(end - cut));
                self.runs[i].1 = cut;
                if cut == start {
                    if strict {
                        return false;
                    }
                    continue;
                }
            }
            max_excl = Some(self.last(i));
        }
        true
    }

    /// The first position of set `i`'s run whose candidate is at least
    /// `value`: computed on the identity column, searched otherwise.
    fn cut(&self, i: usize, value: u64) -> u32 {
        let (start, end) = self.runs[i];
        if self.identity {
            value.clamp(u64::from(start), u64::from(end)) as u32
        } else {
            start + self.set(i).partition_point(|&c| u64::from(c) < value) as u32
        }
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
