//! Property-based tests for matching sets and simplification.

use proptest::prelude::*;
use stepstone_flow::{Flow, Packet, SlidingWindow, TimeDelta, Timestamp};
use stepstone_matching::{
    is_order_consistent, CostMeter, GappedSets, Matcher, MatchingSets, Screen, ScreenState,
    Selection,
};

fn sorted_flow(max_len: usize, span_micros: i64) -> impl Strategy<Value = Flow> {
    proptest::collection::vec(0i64..span_micros, 1..max_len).prop_map(|mut v| {
        v.sort_unstable();
        Flow::from_timestamps(v.into_iter().map(Timestamp::from_micros)).unwrap()
    })
}

/// The tightening rule on the obvious nested layout, one `Vec` per set
/// and candidates removed in place: the model the flat
/// [`MatchingSets`] must agree with, charges included.
fn naive_tighten(sets: &mut [Vec<u32>], indices: &[usize], meter: &mut CostMeter) -> bool {
    let mut min_excl: Option<u32> = None;
    for &i in indices {
        if let Some(bound) = min_excl {
            let keep_from = sets[i].iter().take_while(|&&c| c <= bound).count();
            meter.charge(keep_from as u64);
            sets[i].drain(..keep_from);
            if sets[i].is_empty() {
                return false;
            }
        }
        min_excl = Some(sets[i][0]);
    }
    let mut max_excl: Option<u32> = None;
    for &i in indices.iter().rev() {
        if let Some(bound) = max_excl {
            let keep_to = sets[i].iter().take_while(|&&c| c < bound).count();
            meter.charge((sets[i].len() - keep_to) as u64);
            sets[i].truncate(keep_to);
            if sets[i].is_empty() {
                return false;
            }
        }
        max_excl = sets[i].last().copied();
    }
    true
}

/// The per-set copying scan the candidate column replaced: every set's
/// candidates copied into a `Vec` of its own, filtered by size class,
/// and the scan stopping at the first empty set. The model the strict
/// [`MatchingSets`] must agree with, charges included.
fn copied_sets(
    matcher: &Matcher,
    upstream: &Flow,
    suspicious: &Flow,
    meter: &mut CostMeter,
) -> Option<Vec<Vec<u32>>> {
    let m = suspicious.len();
    let mut sets = Vec::with_capacity(upstream.len());
    let (mut lo, mut hi) = (0usize, 0usize);
    for i in 0..upstream.len() {
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
        let set: Vec<u32> = match matcher.size_quantum() {
            None => (lo as u32..hi as u32).collect(),
            Some(q) => {
                let class = upstream[i].size().div_ceil(q);
                (lo..hi)
                    .filter(|&j| suspicious[j].size().div_ceil(q) == class)
                    .map(|j| j as u32)
                    .collect()
            }
        };
        if set.is_empty() {
            return None;
        }
        sets.push(set);
    }
    Some(sets)
}

/// Gap-tolerant matching sets on the nested layout the ranges replaced,
/// one `Vec` per slot, candidates removed in place and `tighten`
/// repeated until a pass erases nothing: the model the range-based
/// [`GappedSets`] must agree with, charges included.
struct NestedGapped {
    sets: Vec<Vec<u32>>,
    erased: Vec<bool>,
}

impl NestedGapped {
    fn compute(
        matcher: &Matcher,
        upstream: &Flow,
        suspicious: &Flow,
        meter: &mut CostMeter,
    ) -> Self {
        let m = suspicious.len();
        let mut sets = Vec::with_capacity(upstream.len());
        let mut erased = Vec::with_capacity(upstream.len());
        let (mut lo, mut hi) = (0usize, 0usize);
        for i in 0..upstream.len() {
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
            let mut set: Vec<u32> = Vec::with_capacity(hi - lo);
            let class = matcher
                .size_quantum()
                .map(|q| (upstream[i].size().div_ceil(q), q));
            for j in lo..hi {
                meter.charge_one();
                if let Some((c, q)) = class {
                    if suspicious[j].size().div_ceil(q) != c {
                        continue;
                    }
                }
                set.push(j as u32);
            }
            erased.push(set.is_empty());
            sets.push(set);
        }
        NestedGapped { sets, erased }
    }

    fn erasures(&self) -> usize {
        self.erased.iter().filter(|&&e| e).count()
    }

    fn tighten(&mut self, meter: &mut CostMeter) -> usize {
        let before = self.erasures();
        loop {
            let mut pass_erased = false;
            let mut min_excl: Option<u32> = None;
            for i in 0..self.sets.len() {
                if self.erased[i] {
                    continue;
                }
                let set = &mut self.sets[i];
                if let Some(bound) = min_excl {
                    let keep_from = set.partition_point(|&c| c <= bound);
                    meter.charge(keep_from as u64);
                    set.drain(..keep_from);
                    if set.is_empty() {
                        self.erased[i] = true;
                        pass_erased = true;
                        continue;
                    }
                }
                min_excl = Some(set[0]);
            }
            let mut max_excl: Option<u32> = None;
            for i in (0..self.sets.len()).rev() {
                if self.erased[i] {
                    continue;
                }
                let set = &mut self.sets[i];
                if let Some(bound) = max_excl {
                    let keep_to = set.partition_point(|&c| c < bound);
                    meter.charge((set.len() - keep_to) as u64);
                    set.truncate(keep_to);
                    if set.is_empty() {
                        self.erased[i] = true;
                        pass_erased = true;
                        continue;
                    }
                }
                max_excl = set.last().copied();
            }
            if !pass_erased {
                break;
            }
        }
        self.erasures() - before
    }
}

/// Checks every per-slot observable of `sets` against the model.
fn agrees_with_model(sets: &GappedSets, model: &NestedGapped) -> Result<(), TestCaseError> {
    prop_assert_eq!(sets.len(), model.sets.len());
    prop_assert_eq!(sets.erasures(), model.erasures());
    for (i, expected) in model.sets.iter().enumerate() {
        prop_assert_eq!(sets.set(i), expected.as_slice(), "slot {}", i);
        prop_assert_eq!(sets.is_erased(i), model.erased[i], "slot {}", i);
        prop_assert_eq!(sets.first(i), expected.first().copied(), "slot {}", i);
        prop_assert_eq!(sets.last(i), expected.last().copied(), "slot {}", i);
    }
    prop_assert_eq!(
        sets.total_candidates(),
        model.sets.iter().map(Vec::len).sum::<usize>()
    );
    Ok(())
}

/// An upstream flow and a lossy relay of it: each upstream packet is
/// deleted with probability 1/5 or else delayed by up to 0.5 s, keeping
/// its size, and chaff of random sizes is mixed in. Sizes span several
/// 16-byte classes so a size quantum filters real candidates.
fn lossy_pair() -> impl Strategy<Value = (Flow, Flow)> {
    relay_pair(true)
}

/// [`lossy_pair`], or with `lossy` false the same relay without
/// deletions, so that strict matching often succeeds.
fn relay_pair(lossy: bool) -> impl Strategy<Value = (Flow, Flow)> {
    let packet = (0i64..2_000_000, 1u32..80);
    let relay = (0u8..5, 0i64..500_000);
    (
        proptest::collection::vec(packet.clone(), 1..60),
        proptest::collection::vec(relay, 60),
        proptest::collection::vec(packet, 0..30),
    )
        .prop_map(move |(mut up, relay, chaff)| {
            up.sort_unstable();
            let mut down: Vec<(i64, u32)> = up
                .iter()
                .zip(&relay)
                .filter(|(_, &(deleted, _))| !lossy || deleted != 0)
                .map(|(&(t, size), &(_, delay))| (t + delay, size))
                .chain(chaff)
                .collect();
            down.sort_unstable();
            let flow = |packets: Vec<(i64, u32)>| {
                Flow::from_packets(
                    packets
                        .into_iter()
                        .map(|(t, size)| Packet::new(Timestamp::from_micros(t), size)),
                )
                .unwrap()
            };
            (flow(up), flow(down))
        })
}

/// `flow` with every timestamp rounded down to a multiple of `grain`
/// microseconds; rounding keeps the order.
fn coarsened(flow: &Flow, grain: i64) -> Flow {
    Flow::from_packets(flow.iter().map(|p| {
        let t = p.timestamp().as_micros() / grain * grain;
        Packet::new(Timestamp::from_micros(t), p.size())
    }))
    .unwrap()
}

/// Whether `GappedSets::compute` on `window`'s snapshot leaves more
/// than `budget` slots erased, by one full scan of the window: the
/// stateless screen the incremental [`Matcher::screen_robust`] replaced,
/// and the model it must agree with on windows that have never evicted.
/// Intervals missing the window's time span are counted by binary
/// search, the rest by a two-pointer scan.
fn full_scan_over_budget(
    matcher: &Matcher,
    upstream: &Flow,
    window: &SlidingWindow,
    budget: usize,
) -> bool {
    let n = upstream.len();
    if n <= budget {
        return false;
    }
    let (Some(first), Some(last)) = (window.first_timestamp(), window.last_timestamp()) else {
        return true;
    };
    let delta = matcher.delta();
    let packets = upstream.packets();
    let early = packets.partition_point(|p| p.timestamp() + delta < first);
    let late = packets.partition_point(|p| p.timestamp() <= last);
    let mut erased = early + (n - late);
    let class = |size: u32| matcher.size_quantum().map(|q| size.div_ceil(q));
    let mut lo = 0;
    for up in &packets[early..late] {
        let t = up.timestamp();
        while window.get(lo).is_some_and(|p| p.timestamp() < t) {
            lo += 1;
        }
        let nonempty = (lo..window.len())
            .map_while(|j| window.get(j).filter(|p| p.timestamp() <= t + delta))
            .any(|p| class(p.size()) == class(up.size()));
        if !nonempty {
            erased += 1;
        }
    }
    erased > budget
}

/// Random non-empty sorted candidate sets over `0..m`.
fn candidate_sets() -> impl Strategy<Value = (Vec<Vec<u32>>, usize)> {
    (1usize..40).prop_flat_map(|m| {
        let set = proptest::collection::vec(0..m as u32, 1..6).prop_map(|mut s| {
            s.sort_unstable();
            s.dedup();
            s
        });
        (proptest::collection::vec(set, 1..20), Just(m))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The flat layout's `tighten` and `tighten_subset` drop exactly
    /// the candidates the nested model drops, charge the same packet
    /// accesses and report the same feasibility.
    #[test]
    fn flat_tightening_matches_the_nested_model(
        (sets, m) in candidate_sets(),
        subset_mask in proptest::collection::vec(proptest::bool::ANY, 20),
    ) {
        let all: Vec<usize> = (0..sets.len()).collect();
        let subset: Vec<usize> = all.iter().copied().filter(|&i| subset_mask[i]).collect();
        for indices in [&all, &subset] {
            let mut model = sets.clone();
            let mut model_meter = CostMeter::new();
            let model_ok = naive_tighten(&mut model, indices, &mut model_meter);

            let mut flat = MatchingSets::from_sets(sets.clone(), m);
            let mut meter = CostMeter::new();
            let ok = if indices.len() == sets.len() {
                flat.tighten(&mut meter)
            } else {
                flat.tighten_subset(indices, &mut meter)
            };
            prop_assert_eq!(ok, model_ok);
            prop_assert_eq!(meter.count(), model_meter.count());
            if ok {
                for (i, expected) in model.iter().enumerate() {
                    prop_assert_eq!(flat.set(i), expected.as_slice(), "set {}", i);
                    prop_assert_eq!(flat.first(i), expected[0]);
                    prop_assert_eq!(flat.last(i), *expected.last().unwrap());
                }
                prop_assert_eq!(
                    flat.total_candidates(),
                    model.iter().map(Vec::len).sum::<usize>()
                );
                prop_assert_eq!(&flat, &MatchingSets::from_sets(model, m));
            }
        }
    }

    /// The candidate column agrees with the per-set copying scan it
    /// replaced on relayed flows, with and without a size quantum: the
    /// same `None`/`Some`, the same candidates per set, and the same
    /// meter after the scan and after `tighten` or `tighten_subset`
    /// (against the nested tightening model). Where no set is empty,
    /// `GappedSets` lists the same candidates and charges the same,
    /// tightening included. Without a quantum the tightening cuts are
    /// computed, not searched; on the coarse grid, packets often sit
    /// exactly at a cut, where an off-by-one shows.
    #[test]
    fn strict_runs_match_the_copying_scan(
        (up, down) in relay_pair(false),
        coarse in proptest::bool::ANY,
        delta_micros in 0i64..1_000_000,
        sized in proptest::bool::ANY,
        quantum in 1u32..24,
        subset_mask in proptest::collection::vec(proptest::bool::ANY, 60),
    ) {
        let grain = if coarse { 100_000 } else { 1 };
        let (up, down) = (coarsened(&up, grain), coarsened(&down, grain));
        let mut matcher = Matcher::new(TimeDelta::from_micros(delta_micros / grain * grain));
        if sized {
            matcher = matcher.with_size_quantum(quantum);
        }
        let mut model_meter = CostMeter::new();
        let model = copied_sets(&matcher, &up, &down, &mut model_meter);
        let mut meter = CostMeter::new();
        let sets = matcher.matching_sets(&up, &down, &mut meter);
        prop_assert_eq!(meter.count(), model_meter.count());
        let mut gapped_meter = CostMeter::new();
        let gapped = GappedSets::compute(&matcher, &up, &down, &mut gapped_meter);
        let (Some(sets), Some(model)) = (sets.clone(), model.clone()) else {
            prop_assert_eq!(sets.is_none(), model.is_none());
            prop_assert!(gapped.erasures() > 0);
            return Ok(());
        };
        prop_assert_eq!(gapped_meter.count(), meter.count());
        prop_assert_eq!(gapped.erasures(), 0);
        for (i, expected) in model.iter().enumerate() {
            prop_assert_eq!(sets.set(i), expected.as_slice(), "set {}", i);
            prop_assert_eq!(gapped.set(i), expected.as_slice(), "slot {}", i);
        }

        let all: Vec<usize> = (0..model.len()).collect();
        let subset: Vec<usize> = all.iter().copied().filter(|&i| subset_mask[i]).collect();
        for (indices, whole) in [(&all, true), (&subset, false)] {
            let (mut meter, mut model_meter) = (meter, model_meter);
            let mut model = model.clone();
            let model_ok = naive_tighten(&mut model, indices, &mut model_meter);
            let mut tightened = sets.clone();
            let ok = if whole {
                tightened.tighten(&mut meter)
            } else {
                tightened.tighten_subset(indices, &mut meter)
            };
            prop_assert_eq!(ok, model_ok);
            prop_assert_eq!(meter.count(), model_meter.count());
            if !ok {
                continue;
            }
            for (i, expected) in model.iter().enumerate() {
                prop_assert_eq!(tightened.set(i), expected.as_slice(), "set {}", i);
            }
            if whole {
                let mut gapped = gapped.clone();
                let mut gapped_meter = gapped_meter;
                prop_assert_eq!(gapped.tighten(&mut gapped_meter), 0);
                prop_assert_eq!(gapped_meter.count(), meter.count());
                for (i, expected) in model.iter().enumerate() {
                    prop_assert_eq!(gapped.set(i), expected.as_slice(), "slot {}", i);
                }
            }
        }
    }

    /// The range layout of [`GappedSets`] agrees with the nested model
    /// on lossy flows, with and without a size quantum: the same
    /// candidates and erasures per slot, the same `tighten` result, and
    /// the same packet accesses charged by `compute` and by `tighten`,
    /// whose single pass each way must reach the model's fixpoint.
    #[test]
    fn gapped_ranges_match_the_nested_model(
        (up, down) in lossy_pair(),
        delta_micros in 0i64..400_000,
        quantum in 0u32..24,
    ) {
        let mut matcher = Matcher::new(TimeDelta::from_micros(delta_micros));
        if quantum > 0 {
            matcher = matcher.with_size_quantum(quantum);
        }
        let mut model_meter = CostMeter::new();
        let mut model = NestedGapped::compute(&matcher, &up, &down, &mut model_meter);
        let mut meter = CostMeter::new();
        let mut sets = GappedSets::compute(&matcher, &up, &down, &mut meter);
        prop_assert_eq!(meter.count(), model_meter.count());
        agrees_with_model(&sets, &model)?;

        let newly = sets.tighten(&mut meter);
        prop_assert_eq!(newly, model.tighten(&mut model_meter));
        prop_assert_eq!(meter.count(), model_meter.count());
        agrees_with_model(&sets, &model)?;

        // One pass each way is the fixpoint the model loops to.
        let once = sets.clone();
        prop_assert_eq!(sets.tighten(&mut meter), 0);
        prop_assert_eq!(meter.count(), model_meter.count());
        prop_assert_eq!(&sets, &once);
    }

    /// The robust screen agrees with the erasures `GappedSets` leaves
    /// before tightening, for every budget, on a window streamed from a
    /// lossy relay that may evict, with and without a size quantum. One
    /// `ScreenState` per budget is carried through every push, as the
    /// monitor carries one per pair. Before the first eviction it
    /// answers exactly as the full-scan model; after, it proves nothing.
    /// On the coarse grid, packets often sit exactly at an interval's
    /// end, where an off-by-one bound shows.
    #[test]
    fn over_budget_agrees_with_the_erasure_count(
        (up, down) in lossy_pair(),
        coarse in proptest::bool::ANY,
        delta_micros in 0i64..400_000,
        quantum in 0u32..24,
        capacity_pct in 20usize..120,
    ) {
        let grain = if coarse { 100_000 } else { 1 };
        let (up, down) = (coarsened(&up, grain), coarsened(&down, grain));
        let mut matcher = Matcher::new(TimeDelta::from_micros(delta_micros / grain * grain));
        if quantum > 0 {
            matcher = matcher.with_size_quantum(quantum);
        }
        let mut window = SlidingWindow::new((down.len() * capacity_pct / 100).max(1));
        let mut states = vec![ScreenState::default(); up.len() + 1];
        for k in 0..=down.len() {
            if k > 0 {
                window.push(down[k - 1]).unwrap();
            }
            let erasures =
                GappedSets::compute(&matcher, &up, &window.snapshot(), &mut CostMeter::new())
                    .erasures();
            for (budget, state) in states.iter_mut().enumerate() {
                let label = format!(
                    "after {k} pushes, {} evicted, budget {budget}, erasures {erasures}",
                    window.evicted()
                );
                let over = erasures > budget;
                prop_assert_eq!(full_scan_over_budget(&matcher, &up, &window, budget), over, "{}", label);
                let expected = if window.evicted() == 0 && over {
                    Screen::OverBudget
                } else {
                    Screen::Decode
                };
                prop_assert_eq!(matcher.screen_robust(&up, &window, budget, state), expected, "{}", label);
            }
        }
    }

    /// Matching sets contain exactly the packets allowed by the timing
    /// constraint — checked against the O(n·m) definition.
    #[test]
    fn matching_sets_match_the_definition(
        up in sorted_flow(40, 1_000_000),
        down in sorted_flow(60, 1_200_000),
        delta_micros in 0i64..400_000,
    ) {
        let delta = TimeDelta::from_micros(delta_micros);
        let mut meter = CostMeter::new();
        let sets = Matcher::new(delta).matching_sets(&up, &down, &mut meter);
        // Reference computation.
        let reference: Vec<Vec<u32>> = (0..up.len())
            .map(|i| {
                (0..down.len())
                    .filter(|&j| {
                        let d = down.timestamp(j) - up.timestamp(i);
                        d >= TimeDelta::ZERO && d <= delta
                    })
                    .map(|j| j as u32)
                    .collect()
            })
            .collect();
        match sets {
            Some(sets) => {
                for (i, expected) in reference.iter().enumerate().take(up.len()) {
                    prop_assert_eq!(sets.set(i), expected.as_slice(), "packet {}", i);
                }
            }
            None => {
                prop_assert!(
                    reference.iter().any(Vec::is_empty),
                    "matcher gave up although every set is non-empty"
                );
            }
        }
    }

    /// Tightening is sound: whenever it succeeds, choosing every
    /// packet's first candidate is an order-consistent complete matching
    /// drawn from the ORIGINAL sets.
    #[test]
    fn tighten_success_produces_a_feasible_first_fit(
        up in sorted_flow(40, 500_000),
        down in sorted_flow(80, 700_000),
        delta_micros in 1i64..400_000,
    ) {
        let delta = TimeDelta::from_micros(delta_micros);
        let mut meter = CostMeter::new();
        let Some(original) = Matcher::new(delta).matching_sets(&up, &down, &mut meter) else {
            return Ok(());
        };
        let mut tightened = original.clone();
        if !tightened.tighten(&mut meter) {
            return Ok(());
        }
        let selections: Vec<Selection> = (0..tightened.len())
            .map(|i| Selection { upstream: i, downstream: tightened.first(i) })
            .collect();
        prop_assert!(is_order_consistent(&selections));
        for s in &selections {
            prop_assert!(
                original.set(s.upstream).contains(&s.downstream),
                "tightening invented a candidate"
            );
        }
    }

    /// Tightening never removes a candidate that participates in some
    /// order-consistent complete matching (checked by brute force on
    /// tiny instances).
    #[test]
    fn tighten_only_removes_unusable_candidates(
        up in sorted_flow(6, 60_000),
        down in sorted_flow(10, 80_000),
        delta_micros in 1i64..50_000,
    ) {
        let delta = TimeDelta::from_micros(delta_micros);
        let mut meter = CostMeter::new();
        let Some(original) = Matcher::new(delta).matching_sets(&up, &down, &mut meter) else {
            return Ok(());
        };
        let mut tightened = original.clone();
        let feasible = tightened.tighten(&mut meter);

        // Brute-force all complete order-consistent matchings.
        fn enumerate(
            sets: &stepstone_matching::MatchingSets,
            i: usize,
            prev: i64,
            used: &mut Vec<u32>,
            all: &mut Vec<Vec<u32>>,
        ) {
            if i == sets.len() {
                all.push(used.clone());
                return;
            }
            for &c in sets.set(i) {
                if (c as i64) > prev {
                    used.push(c);
                    enumerate(sets, i + 1, c as i64, used, all);
                    used.pop();
                }
            }
        }
        let mut matchings = Vec::new();
        enumerate(&original, 0, -1, &mut Vec::new(), &mut matchings);

        prop_assert_eq!(feasible, !matchings.is_empty(), "feasibility disagrees");
        if feasible {
            // Every candidate used by any matching must survive.
            for m in &matchings {
                for (i, &c) in m.iter().enumerate() {
                    prop_assert!(
                        tightened.set(i).contains(&c),
                        "tightening removed usable candidate {} of packet {}",
                        c,
                        i
                    );
                }
            }
        }
    }

    /// The matching-phase cost is linear: bounded by two scans of the
    /// suspicious flow plus one charge per recorded candidate.
    #[test]
    fn matching_cost_is_linear(
        up in sorted_flow(50, 500_000),
        down in sorted_flow(80, 500_000),
        delta_micros in 0i64..300_000,
    ) {
        let mut meter = CostMeter::new();
        let sets = Matcher::new(TimeDelta::from_micros(delta_micros))
            .matching_sets(&up, &down, &mut meter);
        // (On early failure, candidates recorded before the abort are
        // charged but not returned, so only bound the success path.)
        if let Some(sets) = sets {
            let recorded = sets.total_candidates();
            prop_assert!(meter.count() <= (2 * down.len() + recorded + up.len()) as u64);
        }
    }
}
