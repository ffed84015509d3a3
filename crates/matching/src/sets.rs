//! Matching-set computation and the Greedy+ phase-1 simplification.

use std::ops::Range;

use stepstone_flow::{Flow, Packet, TimeDelta};

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
    /// caller reports a negative correlation immediately. The candidate
    /// column is built only when the scan returns sets.
    pub fn matching_sets(
        &self,
        upstream: &Flow,
        suspicious: &Flow,
        meter: &mut CostMeter,
    ) -> Option<MatchingSets> {
        let mut scan = Scan::new(self, suspicious);
        let mut runs = Vec::with_capacity(upstream.len());
        for packet in upstream.iter() {
            let run = scan.step(packet);
            runs.push(run);
            if run.0 == run.1 {
                meter.charge(scan.charged);
                return None;
            }
        }
        meter.charge(scan.charged);
        Some(scan.into_sets(runs))
    }

    /// The scan behind gapped sets: every empty set is recorded as an
    /// empty run and the scan goes on. Returns the sets, how many of
    /// them are empty, and the overlap: the upstream packets that can
    /// have a candidate at all.
    ///
    /// Under `0 ≤ t′ − t ≤ Δ` an upstream packet whose `t + Δ` is
    /// before the suspicious flow's first packet, or whose `t` is after
    /// its last, has an empty set. Two binary searches find that head
    /// and tail, and only the packets between them are scanned. The
    /// head's runs are `(0, 0)` and charge nothing, as the scan leaves
    /// both pointers at 0 there; the tail's runs are `(m, m)`, and the
    /// tail charges `lo`'s advance to `m` once, as its first packet
    /// would. With a size quantum the bulk slots take the class runs of
    /// those same windows.
    pub(crate) fn gapped_scan(
        &self,
        upstream: &Flow,
        suspicious: &Flow,
        meter: &mut CostMeter,
    ) -> (MatchingSets, usize, Range<usize>) {
        let packets = upstream.packets();
        let n = packets.len();
        let m = suspicious.len();
        let (head, tail) = match (suspicious.first(), suspicious.last()) {
            (Some(first), Some(last)) => (
                packets.partition_point(|p| {
                    p.timestamp().saturating_add(self.delta) < first.timestamp()
                }),
                packets.partition_point(|p| p.timestamp() <= last.timestamp()),
            ),
            // No candidates at all: every slot is a head slot.
            _ => (n, n),
        };
        let mut scan = Scan::new(self, suspicious);
        let mut runs = Vec::with_capacity(n);
        scan.fill(&mut runs, &packets[..head], 0);
        let mut empty = head + (n - tail);
        for packet in &packets[head..tail] {
            let run = scan.step(packet);
            runs.push(run);
            empty += usize::from(run.0 == run.1);
        }
        if tail < n {
            scan.charged += (m - scan.lo) as u64;
        }
        scan.fill(&mut runs, &packets[tail..], m);
        meter.charge(scan.charged);
        (scan.into_sets(runs), empty, head..tail)
    }
}

/// One scan's state. Without a size quantum the candidate column is the
/// identity and the window `[lo, hi)` is the run; with one, the
/// window's class entries are a run of the class's group, which
/// [`Classes::run`] tracks.
///
/// The pointers move over a contiguous copy of the suspicious
/// timestamps ([`TimeColumn`]) by [`gallop`], without a data-dependent
/// branch per packet examined. The meter is still charged the
/// two-pointer scan's accesses, summed in `charged`: per upstream
/// packet, `lo`'s advance, `hi`'s advance past `max(hi, lo)`, and
/// `hi − lo`. `t + Δ` saturates, so a window reaching past the last
/// representable instant holds every packet from `lo` on.
struct Scan<'a> {
    delta: TimeDelta,
    times: TimeColumn<'a>,
    classes: Option<Classes>,
    m: usize,
    lo: usize,
    hi: usize,
    charged: u64,
}

impl<'a> Scan<'a> {
    fn new(matcher: &Matcher, suspicious: &'a Flow) -> Self {
        Scan {
            delta: matcher.delta,
            times: TimeColumn::new(suspicious.packets()),
            classes: matcher.size_quantum.map(|q| Classes::group(suspicious, q)),
            m: suspicious.len(),
            lo: 0,
            hi: 0,
            charged: 0,
        }
    }

    /// Moves the window to upstream `packet` and returns its run.
    #[inline(always)]
    fn step(&mut self, packet: &Packet) -> (u32, u32) {
        let t = packet.timestamp().as_micros();
        let latest = packet.timestamp().saturating_add(self.delta).as_micros();
        let times = self.times.reach(latest);
        let from = self.lo;
        let lo = gallop(times, from, |x| x < t);
        let start = self.hi.max(lo);
        // The sentinels fail `x <= latest` unless `latest` saturated,
        // and then every packet from `start` on is in the window.
        let hi = if latest == i64::MAX {
            self.m
        } else {
            gallop(times, start, |x| x <= latest)
        };
        self.charged += (lo - from + hi - start + hi - lo) as u64;
        (self.lo, self.hi) = (lo, hi);
        self.run(packet, lo, hi)
    }

    /// Appends the runs of `packets` whose windows are all `[at, at)`.
    fn fill(&mut self, runs: &mut Vec<(u32, u32)>, packets: &[Packet], at: usize) {
        match self.classes {
            None => runs.resize(runs.len() + packets.len(), (at as u32, at as u32)),
            Some(_) => runs.extend(packets.iter().map(|p| self.run(p, at, at))),
        }
    }

    /// The run of `packet`'s window `[lo, hi)`.
    #[inline(always)]
    fn run(&mut self, packet: &Packet, lo: usize, hi: usize) -> (u32, u32) {
        match &mut self.classes {
            None => (lo as u32, hi as u32),
            Some(classes) => classes.run(packet.size(), lo, hi),
        }
    }

    /// The scan's runs as sets of its column.
    fn into_sets(self, runs: Vec<(u32, u32)>) -> MatchingSets {
        match self.classes {
            None => MatchingSets::from_runs(runs, self.m),
            Some(classes) => MatchingSets {
                column: classes.column,
                runs,
                identity: false,
                suspicious_len: self.m,
            },
        }
    }
}

/// Sentinels past the end of a scan's timestamp column: [`gallop`]
/// reads up to three entries past a pointer, which stops at the end.
const GALLOP_PAD: usize = 4;

/// The suspicious timestamps a scan has reached, copied into one
/// contiguous column followed by [`GALLOP_PAD`] `i64::MAX` sentinels.
/// The copy proceeds in blocks as the scan needs them, so a strict scan
/// that stops at an early empty set (an unrelated flow, typically)
/// copies a block or two rather than the whole flow.
struct TimeColumn<'a> {
    packets: &'a [Packet],
    /// The copied prefix, then the sentinels.
    times: Vec<i64>,
}

impl<'a> TimeColumn<'a> {
    /// Packets copied per block.
    const BLOCK: usize = 256;

    /// An empty column with room for every packet. Reserving it whole
    /// touches no memory, and costs less than growing it block by
    /// block, which reallocates and copies the prefix.
    fn new(packets: &'a [Packet]) -> Self {
        let mut times = Vec::with_capacity(packets.len() + GALLOP_PAD);
        times.extend([i64::MAX; GALLOP_PAD]);
        TimeColumn { packets, times }
    }

    /// The column, copied until every packet past its copied prefix is
    /// later than `latest`, or to the end. The sentinels then fail an
    /// upstream packet's pointer tests (`< t`, `≤ latest`) exactly as
    /// the packets they stand in for would.
    fn reach(&mut self, latest: i64) -> &[i64] {
        let mut copied = self.times.len() - GALLOP_PAD;
        while copied < self.packets.len() && (copied == 0 || self.times[copied - 1] <= latest) {
            let end = (copied + Self::BLOCK).min(self.packets.len());
            self.times.truncate(copied);
            let block = &self.packets[copied..end];
            self.times
                .extend(block.iter().map(|p| p.timestamp().as_micros()));
            self.times.extend([i64::MAX; GALLOP_PAD]);
            copied = end;
        }
        &self.times
    }
}

/// The first position from `at` whose timestamp fails `below`, where
/// `below` holds on a prefix of `times` and fails on its padding. Steps
/// of 4 while the fourth entry ahead passes (rarely more than one:
/// a window moves about two packets per upstream packet), then one step
/// of 2 and one of 1, each taken or not by a select instead of a branch.
#[inline(always)]
fn gallop(times: &[i64], mut at: usize, below: impl Fn(i64) -> bool) -> usize {
    while below(times[at + 3]) {
        at += 4;
    }
    at += 2 * usize::from(below(times[at + 1]));
    at + usize::from(below(times[at]))
}

/// The size-class groups of a scan: its column of the suspicious
/// indices grouped by size class, in index order within each class,
/// `(class, start, end)` of each group, ascending by class, and the
/// group's cursor pair.
struct Classes {
    column: Vec<u32>,
    quantum: u32,
    groups: Vec<(u32, usize, usize)>,
    cursors: Vec<(usize, usize)>,
}

impl Classes {
    /// The column and groups of `suspicious` at `quantum`.
    fn group(suspicious: &Flow, quantum: u32) -> Self {
        let class = |j: &u32| suspicious[*j as usize].size().div_ceil(quantum);
        let mut column: Vec<u32> = (0..suspicious.len() as u32).collect();
        column.sort_by_key(class);
        let mut groups = Vec::new();
        for chunk in column.chunk_by(|a, b| class(a) == class(b)) {
            let start = groups.last().map_or(0, |&(_, _, end)| end);
            groups.push((class(&chunk[0]), start, start + chunk.len()));
        }
        let cursors = groups.iter().map(|&(_, start, _)| (start, start)).collect();
        Classes {
            column,
            quantum,
            groups,
            cursors,
        }
    }

    /// The run of the scan window `[lo, hi)` within the group of an
    /// upstream packet of `size`. The window only moves forward, so the
    /// group's cursors only move forward too: over a whole scan they
    /// cross each group once.
    fn run(&mut self, size: u32, lo: usize, hi: usize) -> (u32, u32) {
        let class = size.div_ceil(self.quantum);
        let Ok(g) = self.groups.binary_search_by_key(&class, |&(c, _, _)| c) else {
            return (0, 0);
        };
        let end = self.groups[g].2;
        let column = &self.column;
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
        self.tighten_over(0..self.runs.len(), true, meter) == 0
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
        self.tighten_over(indices.iter().copied(), true, meter) == 0
    }

    /// The forward and backward passes over the sets `order` lists, in
    /// increasing upstream order; returns how many listed sets drained.
    ///
    /// Each set's run is cut at `clamp(bound, start, end)` on the
    /// identity column (a binary search within the run otherwise), and
    /// the bound carried to the next set is chosen by a select: the cut
    /// set's first (forward) or last (backward) candidate when it still
    /// holds one, the old bound when it is empty. So an empty set (a
    /// gapped erasure) cuts to itself, is charged nothing and imposes
    /// no order constraint. The candidates dropped are summed and
    /// charged once. A `strict` pass stops at the first set it drains,
    /// returning 1, and then the backward pass does not run.
    pub(crate) fn tighten_over<I>(&mut self, order: I, strict: bool, meter: &mut CostMeter) -> usize
    where
        I: DoubleEndedIterator<Item = usize> + Clone,
    {
        let MatchingSets {
            column,
            runs,
            identity,
            ..
        } = self;
        let identity = *identity;
        // The first position of `[start, end)` whose candidate is at
        // least `bound`.
        let cut = |start: u32, end: u32, bound: u64| -> u32 {
            if identity {
                bound.clamp(u64::from(start), u64::from(end)) as u32
            } else {
                let run = &column[start as usize..end as usize];
                start + run.partition_point(|&c| u64::from(c) < bound) as u32
            }
        };
        // The candidate at `position`. The passes compute it for every
        // set and keep it only when the cut set still holds it.
        let candidate = |position: u32| -> u64 {
            if identity {
                u64::from(position)
            } else {
                column.get(position as usize).map_or(0, |&c| u64::from(c))
            }
        };
        let (mut charged, mut drained) = (0u64, 0usize);
        // Forward: a candidate of packet i must exceed the first
        // candidate of the previous live listed packet.
        let mut bound = 0u64;
        for i in order.clone() {
            let (start, end) = runs[i];
            let at = cut(start, end, bound);
            runs[i].0 = at;
            charged += u64::from(at - start);
            let live = at < end;
            bound = if live { candidate(at) + 1 } else { bound };
            let emptied = (start < end) & !live;
            drained += usize::from(emptied);
            if strict & emptied {
                break;
            }
        }
        if strict && drained > 0 {
            meter.charge(charged);
            return drained;
        }
        // Backward: a candidate of packet i must precede the last
        // candidate of the next live listed packet.
        let mut bound = u64::MAX;
        for i in order.rev() {
            let (start, end) = runs[i];
            let at = cut(start, end, bound);
            runs[i].1 = at;
            charged += u64::from(end - at);
            let live = start < at;
            bound = if live {
                candidate(at.wrapping_sub(1))
            } else {
                bound
            };
            let emptied = (start < end) & !live;
            drained += usize::from(emptied);
            if strict & emptied {
                break;
            }
        }
        meter.charge(charged);
        drained
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
