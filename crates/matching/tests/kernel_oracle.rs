//! The matching kernel against the two-pointer kernel it replaced.
//!
//! `Matcher`'s scan gallops over a timestamp column and the tightening
//! passes carry their bounds by select. The model below is the kernel
//! before that change, kept verbatim but for one point: `t + Δ`
//! saturates, as it does in the kernel. On random flows the two must
//! give the same sets, the same `None`, the same tightening results and
//! drained counts, and the same `CostMeter` counts after every step.

use proptest::prelude::*;
use stepstone_flow::{Flow, Packet, TimeDelta, Timestamp};
use stepstone_matching::{CostMeter, GappedSets, Matcher, MatchingSets};

/// The replaced kernel's sets: `[start, end)` runs of one column, the
/// identity `0..m` or the suspicious indices grouped by size class.
#[derive(Clone)]
struct Model {
    column: Vec<u32>,
    runs: Vec<(u32, u32)>,
    identity: bool,
}

impl Model {
    /// The two-pointer scan: `while` loops that advance `lo` past the
    /// packets before `t` and `hi` through those at or before `t + Δ`,
    /// charging each advance and then `hi − lo`.
    fn scan(
        matcher: &Matcher,
        upstream: &Flow,
        suspicious: &Flow,
        meter: &mut CostMeter,
        stop_at_empty: bool,
    ) -> Self {
        let m = suspicious.len();
        let (column, mut classes) = match matcher.size_quantum() {
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
            let latest = t.saturating_add(matcher.delta());
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
        Model {
            identity: classes.is_none(),
            column,
            runs,
        }
    }

    fn set(&self, i: usize) -> &[u32] {
        let (start, end) = self.runs[i];
        &self.column[start as usize..end as usize]
    }

    fn erasures(&self) -> usize {
        self.runs.iter().filter(|(start, end)| start == end).count()
    }

    /// The branching passes: skip an empty set, cut a set by clamp (the
    /// identity column) or binary search, charge each cut, and on a set
    /// that drains return `false` when `strict`, skip it otherwise.
    fn tighten_over(&mut self, order: &[usize], strict: bool, meter: &mut CostMeter) -> bool {
        let mut min_excl: Option<u32> = None;
        for &i in order {
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
            min_excl = Some(self.set(i)[0]);
        }
        let mut max_excl: Option<u32> = None;
        for &i in order.iter().rev() {
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
            max_excl = self.set(i).last().copied();
        }
        true
    }

    fn cut(&self, i: usize, value: u64) -> u32 {
        let (start, end) = self.runs[i];
        if self.identity {
            value.clamp(u64::from(start), u64::from(end)) as u32
        } else {
            start + self.set(i).partition_point(|&c| u64::from(c) < value) as u32
        }
    }
}

/// The replaced kernel's size-class groups and per-group cursors.
struct Classes {
    quantum: u32,
    groups: Vec<(u32, usize, usize)>,
    cursors: Vec<(usize, usize)>,
}

impl Classes {
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

/// Where a case's timestamps sit on the `i64` line: room for the
/// longest case's span and delays below `i64::MAX`.
const NEAR_MAX: i64 = i64::MAX - 25_000_000;

/// One random instance: an upstream flow, a suspicious flow, a matcher
/// and a subset of upstream packets for `tighten_subset`.
#[derive(Debug, Clone)]
struct Case {
    upstream: Flow,
    suspicious: Flow,
    matcher: Matcher,
    subset: Vec<usize>,
}

/// Random cases covering the kernel's edges:
///
/// - the suspicious flow relays the upstream one (delays up to 0.5 s),
///   with deletions half the time, plus chaff;
/// - timestamps start at 0 or within 25 s of `i64::MAX`; shifted relays
///   are clamped there, so some sit exactly at `i64::MAX`;
/// - the relay is sometimes shifted wholly before the upstream flow
///   (only chaff can match; without chaff every slot is erased) or
///   wholly after it;
/// - either flow may be empty; one case in four has up to 600
///   upstream packets, so the suspicious flow spans several of the
///   blocks the scan copies its timestamps in;
/// - a coarse grid makes ties between upstream and downstream
///   timestamps, and between a window's end and a packet;
/// - Δ is 0, random up to 1 s, or `TimeDelta::MAX` (every `t + Δ`
///   saturates);
/// - the size quantum is off or 1..24.
fn cases() -> impl Strategy<Value = Case> {
    (0u8..4).prop_flat_map(|size| cases_up_to(if size == 0 { 600 } else { 50 }))
}

/// [`cases`] with at most `n` upstream packets.
fn cases_up_to(n: usize) -> impl Strategy<Value = Case> {
    let span = 40_000 * n as i64;
    let packet = (0i64..span, 1u32..80);
    let relay = (0u8..5, 0i64..500_000);
    let shape = (0u8..2, 0u8..2, 0u8..6, 0u8..3, 0i64..1_000_000, 0u32..24);
    (
        proptest::collection::vec(packet.clone(), 0..n),
        proptest::collection::vec(relay, n),
        proptest::collection::vec(packet, 0..n * 3 / 5),
        shape,
        proptest::collection::vec(proptest::bool::ANY, n),
    )
        .prop_map(move |(mut up, relay, chaff, shape, mask)| {
            let (near_max, coarse, shift, delta_kind, delta_micros, quantum) = shape;
            let base = if near_max == 1 { NEAR_MAX } else { 0 };
            let grain = if coarse == 1 { 100_000 } else { 1 };
            let lossy = relay[0].0 % 2 == 0;
            let offset = match shift {
                0 => -span - 8_000_000,
                1 => span + 8_000_000,
                _ => 0,
            };
            up.sort_unstable();
            let down = up
                .iter()
                .zip(&relay)
                .filter(|(_, &(deleted, _))| !lossy || deleted != 0)
                .map(|(&(t, size), &(_, delay))| ((t + delay).saturating_add(offset), size))
                .chain(chaff)
                .collect();
            let flow = |packets: Vec<(i64, u32)>| {
                let mut stamped: Vec<(i64, u32)> = packets
                    .into_iter()
                    .map(|(t, size)| (base.saturating_add(t / grain * grain), size))
                    .collect();
                stamped.sort_unstable();
                Flow::from_packets(
                    stamped
                        .into_iter()
                        .map(|(t, size)| Packet::new(Timestamp::from_micros(t), size)),
                )
                .unwrap()
            };
            let delta = match delta_kind {
                0 => TimeDelta::ZERO,
                1 => TimeDelta::from_micros(delta_micros / grain * grain),
                _ => TimeDelta::MAX,
            };
            let mut matcher = Matcher::new(delta);
            if quantum > 0 {
                matcher = matcher.with_size_quantum(quantum);
            }
            let subset = (0..up.len()).filter(|&i| mask[i]).collect();
            Case {
                upstream: flow(up),
                suspicious: flow(down),
                matcher,
                subset,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn strict_kernel_matches_the_two_pointer_model(case in cases()) {
        strict_agrees(&case)?;
    }

    #[test]
    fn gapped_kernel_matches_the_two_pointer_model(case in cases()) {
        gapped_agrees(&case)?;
    }
}

/// Strict matching: the same `None`, the same sets and the same meter
/// after the scan; then, for the whole order and for the case's
/// `tighten_subset` order, the same feasibility, the same sets (after a
/// strict stop too: both stop at the same set) and the same meter.
fn strict_agrees(case: &Case) -> Result<(), TestCaseError> {
    let Case {
        upstream,
        suspicious,
        matcher,
        subset,
    } = case;
    let mut model_meter = CostMeter::new();
    let model = Model::scan(matcher, upstream, suspicious, &mut model_meter, true);
    let mut meter = CostMeter::new();
    let sets = matcher.matching_sets(upstream, suspicious, &mut meter);
    prop_assert_eq!(meter.count(), model_meter.count());
    let aborted = model.runs.last().is_some_and(|(start, end)| start == end);
    let Some(sets) = sets else {
        prop_assert!(aborted, "the kernel aborted where the model did not");
        return Ok(());
    };
    prop_assert!(!aborted, "the model aborted where the kernel did not");
    same_sets(&sets, &model)?;

    let all: Vec<usize> = (0..model.runs.len()).collect();
    for (order, whole) in [(&all, true), (subset, false)] {
        let (mut meter, mut model_meter) = (meter, model_meter);
        let mut model = model.clone();
        let model_ok = model.tighten_over(order, true, &mut model_meter);
        let mut tightened = sets.clone();
        let ok = if whole {
            tightened.tighten(&mut meter)
        } else {
            tightened.tighten_subset(order, &mut meter)
        };
        prop_assert_eq!(ok, model_ok, "whole order: {}", whole);
        prop_assert_eq!(meter.count(), model_meter.count(), "whole order: {}", whole);
        same_sets(&tightened, &model)?;
    }
    Ok(())
}

/// Gapped matching: the same sets, erasures and meter after the scan,
/// and after `tighten` the same sets and meter, with its drained count
/// equal to the model's new erasures.
fn gapped_agrees(case: &Case) -> Result<(), TestCaseError> {
    let Case {
        upstream,
        suspicious,
        matcher,
        ..
    } = case;
    let mut model_meter = CostMeter::new();
    let mut model = Model::scan(matcher, upstream, suspicious, &mut model_meter, false);
    let mut meter = CostMeter::new();
    let mut sets = GappedSets::compute(matcher, upstream, suspicious, &mut meter);
    prop_assert_eq!(meter.count(), model_meter.count());
    prop_assert_eq!(sets.len(), upstream.len());
    same_gapped(&sets, &model)?;

    let before = model.erasures();
    let all: Vec<usize> = (0..model.runs.len()).collect();
    prop_assert!(model.tighten_over(&all, false, &mut model_meter));
    let drained = sets.tighten(&mut meter);
    prop_assert_eq!(drained, model.erasures() - before);
    prop_assert_eq!(meter.count(), model_meter.count());
    same_gapped(&sets, &model)?;
    Ok(())
}

fn same_sets(sets: &MatchingSets, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(sets.len(), model.runs.len());
    for i in 0..model.runs.len() {
        prop_assert_eq!(sets.set(i), model.set(i), "set {}", i);
    }
    Ok(())
}

fn same_gapped(sets: &GappedSets, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(sets.len(), model.runs.len());
    prop_assert_eq!(sets.erasures(), model.erasures());
    for i in 0..model.runs.len() {
        prop_assert_eq!(sets.set(i), model.set(i), "slot {}", i);
    }
    Ok(())
}

/// Hand-picked edges the random cases reach only by chance, each at
/// Δ = 0, 10 µs and `TimeDelta::MAX`.
#[test]
fn edges_match_the_two_pointer_model() {
    let flow = |stamps: &[i64]| {
        Flow::from_timestamps(stamps.iter().map(|&t| Timestamp::from_micros(t))).unwrap()
    };
    let max = i64::MAX;
    let every_ms: Vec<i64> = (0..600).map(|k| k * 1_000).collect();
    let pairs = [
        // Empty flows.
        (flow(&[]), flow(&[])),
        (flow(&[]), flow(&[5])),
        (flow(&[5, 6]), flow(&[])),
        // Ties everywhere, at Δ = 0 and beyond.
        (flow(&[3, 3, 3]), flow(&[3, 3, 3, 3])),
        (flow(&[0, 10, 20]), flow(&[0, 10, 10, 20, 30])),
        // A window that closes exactly at i64::MAX, and packets there.
        (
            flow(&[max - 10, max - 5, max]),
            flow(&[max - 10, max - 1, max, max]),
        ),
        // Every window empty: the relay lies wholly before the upstream.
        (flow(&[100, 200, 300]), flow(&[1, 2, 3])),
        // Bursts longer than a gallop step, between upstream packets.
        (
            flow(&[0, 1_000, 2_000]),
            flow(&(0..40).map(|k| k * 60).collect::<Vec<_>>()),
        ),
        // A tie across the end of the first block of copied timestamps.
        (flow(&[0, 0]), flow(&[0; 300])),
        // The first empty set lies in the second block: a strict scan
        // stops there.
        (flow(&every_ms), {
            let mut down = every_ms.clone();
            down.remove(500);
            flow(&down)
        }),
    ];
    for (upstream, suspicious) in pairs {
        for delta in [TimeDelta::ZERO, TimeDelta::from_micros(10), TimeDelta::MAX] {
            let case = Case {
                subset: (0..upstream.len()).step_by(2).collect(),
                upstream: upstream.clone(),
                suspicious: suspicious.clone(),
                matcher: Matcher::new(delta),
            };
            if let Err(e) = strict_agrees(&case).and_then(|()| gapped_agrees(&case)) {
                panic!("{case:?}: {e:?}");
            }
        }
    }
}
