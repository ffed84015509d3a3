//! Property-based tests for matching sets and simplification.

use proptest::prelude::*;
use stepstone_flow::{Flow, TimeDelta, Timestamp};
use stepstone_matching::{is_order_consistent, CostMeter, Matcher, MatchingSets, Selection};

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
