//! Incremental screening of strict decodes over a growing window.
//!
//! Under the timing constraint `0 ≤ t′ − t ≤ Δ`, upstream packet `pᵢ`
//! admits candidates only inside `[tᵢ, tᵢ + Δ]`. Once a live window
//! holds a packet later than `tᵢ + Δ`, that interval is *closed*: every
//! packet still to arrive is later too, so `M(pᵢ)` can never grow, and
//! evicting packets from the window's front can only shrink it. An
//! empty closed set therefore makes the strict decode, which aborts on
//! an empty set, unmatched for this window and every later window of
//! the flow.
//!
//! [`Matcher::screen`] keeps a frontier over the closed intervals and
//! reports when that applies, so a monitor can skip decodes whose
//! outcome is already known.
//!
//! Robust decodes absorb an empty set as an erasure instead, and never
//! correlate once the erasures exceed their budget.
//! [`Matcher::over_budget`] counts the empty sets of a window without
//! building them, so a monitor can tell such decodes apart cheaply.

use stepstone_flow::{Flow, SlidingWindow};

use crate::sets::Matcher;

/// What a screen proves about the decode of a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Screen {
    /// Nothing proven: the decode must run.
    Decode,
    /// Some matching set is empty, so the strict decode is unmatched
    /// (not correlated, no Hamming distance).
    Unmatched,
    /// More matching sets are empty than the robust decode's erasure
    /// budget allows, so it blows the budget and does not correlate.
    /// Its erasure count and confidence are still unknown.
    OverBudget,
}

/// The frontier [`Matcher::screen`] resumes from: one per (upstream,
/// window) pair, starting from [`Default`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScreenState {
    /// Upstream packets whose interval is closed, each seen with a
    /// non-empty matching set when it closed.
    closed: usize,
    /// Push index of the first window packet not earlier than the next
    /// upstream packet to close.
    lo: u64,
    /// A closed set was empty: every later window is unmatched too.
    settled: bool,
}

impl ScreenState {
    /// `true` once an empty closed set has settled the pair for good.
    pub const fn settled(&self) -> bool {
        self.settled
    }
}

impl Matcher {
    /// Screens the strict decode of `window` against `upstream`,
    /// advancing `state` over the intervals closed since the last call.
    /// Sound for any sequence of calls on one window, however it grows
    /// or evicts between them: [`Screen::Unmatched`] is only returned
    /// when [`matching_sets`](Self::matching_sets) of the window's
    /// snapshot returns `None`. Never charges a cost meter: the work is
    /// amortised over the window's packets, each visited about once.
    ///
    /// A set that empties only because eviction took its candidates is
    /// not noticed; the decode then runs and finds it.
    pub fn screen(
        &self,
        upstream: &Flow,
        window: &SlidingWindow,
        state: &mut ScreenState,
    ) -> Screen {
        let n = upstream.len();
        if n == 0 {
            return Screen::Decode;
        }
        if state.settled {
            return Screen::Unmatched;
        }
        let Some(last) = window.last_timestamp() else {
            return Screen::Unmatched;
        };
        let base = window.evicted();
        state.lo = state.lo.max(base);
        let at = |push: u64| {
            let index = usize::try_from(push - base).unwrap_or(usize::MAX);
            // lint: allow(no_panic) callers only pass push indices in evicted()..pushed()
            *window.get(index).expect("push index inside the window")
        };
        while state.closed < n {
            let i = state.closed;
            let t = upstream.timestamp(i);
            let latest = t + self.delta();
            if last <= latest {
                break;
            }
            // The window holds a packet after `latest`, so both scans
            // below stop inside it.
            while at(state.lo).timestamp() < t {
                state.lo += 1;
            }
            let class = self
                .size_quantum()
                .map(|q| (upstream[i].size().div_ceil(q), q));
            let mut j = state.lo;
            let nonempty = loop {
                let packet = at(j);
                if packet.timestamp() > latest {
                    break false;
                }
                match class {
                    Some((c, q)) if packet.size().div_ceil(q) != c => j += 1,
                    _ => break true,
                }
            };
            if !nonempty {
                state.settled = true;
                return Screen::Unmatched;
            }
            state.closed += 1;
        }
        // The last upstream packet needs a candidate at or after its
        // own time; a window ending earlier has none.
        if last < upstream.timestamp(n - 1) {
            return Screen::Unmatched;
        }
        Screen::Decode
    }

    /// `true` exactly when [`GappedSets::compute`](crate::GappedSets::compute)
    /// on `window`'s snapshot leaves more than `budget` slots erased,
    /// before any tightening. Tightening only erases more, so a robust
    /// decode of such a window blows its budget. Never charges a cost
    /// meter.
    ///
    /// The upstream packets whose interval `[tᵢ, tᵢ + Δ]` misses the
    /// window's time span are counted by binary search. Only if they
    /// stay within the budget does one two-pointer scan visit the rest,
    /// stopping as soon as the count passes it.
    pub fn over_budget(&self, upstream: &Flow, window: &SlidingWindow, budget: usize) -> bool {
        let n = upstream.len();
        if n <= budget {
            return false;
        }
        let (Some(first), Some(last)) = (window.first_timestamp(), window.last_timestamp()) else {
            return true;
        };
        let delta = self.delta();
        let packets = upstream.packets();
        // Intervals ending before the window's first packet, and
        // intervals starting after its last.
        let early = packets.partition_point(|p| p.timestamp() + delta < first);
        let late = packets.partition_point(|p| p.timestamp() <= last);
        let mut erased = early + (n - late);
        if erased > budget {
            return true;
        }
        let quantum = self.size_quantum();
        let at = |j: usize| window.get(j).copied();
        let mut lo = 0;
        for up in &packets[early..late] {
            let t = up.timestamp();
            let latest = t + delta;
            while at(lo).is_some_and(|p| p.timestamp() < t) {
                lo += 1;
            }
            let class = quantum.map(|q| (up.size().div_ceil(q), q));
            let mut j = lo;
            let nonempty = loop {
                match at(j) {
                    Some(p) if p.timestamp() <= latest => match class {
                        Some((c, q)) if p.size().div_ceil(q) != c => j += 1,
                        _ => break true,
                    },
                    _ => break false,
                }
            };
            if !nonempty {
                erased += 1;
                if erased > budget {
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostMeter, GappedSets};
    use stepstone_flow::{Packet, TimeDelta, Timestamp};

    fn flow(secs: &[f64]) -> Flow {
        Flow::from_timestamps(secs.iter().map(|&s| Timestamp::from_secs_f64(s))).unwrap()
    }

    fn window(secs: &[f64], capacity: usize) -> SlidingWindow {
        let mut w = SlidingWindow::new(capacity);
        for &s in secs {
            w.push(Packet::new(Timestamp::from_secs_f64(s), 64))
                .unwrap();
        }
        w
    }

    fn matcher() -> Matcher {
        Matcher::new(TimeDelta::from_secs(1))
    }

    #[test]
    fn window_before_the_last_upstream_packet_is_unmatched() {
        let up = flow(&[0.0, 5.0]);
        let mut state = ScreenState::default();
        let w = window(&[0.5], 8);
        assert_eq!(matcher().screen(&up, &w, &mut state), Screen::Unmatched);
        assert!(!state.settled(), "later packets may still fill the sets");
    }

    #[test]
    fn empty_closed_set_settles_the_pair() {
        let up = flow(&[0.0, 5.0]);
        let mut state = ScreenState::default();
        // Nothing in [0, 1]; the packet at 2.0 closes that interval.
        let mut w = window(&[2.0], 8);
        assert_eq!(matcher().screen(&up, &w, &mut state), Screen::Unmatched);
        assert!(state.settled());
        w.push(Packet::new(Timestamp::from_secs_f64(5.5), 64))
            .unwrap();
        assert_eq!(matcher().screen(&up, &w, &mut state), Screen::Unmatched);
        let mut meter = CostMeter::new();
        assert!(matcher()
            .matching_sets(&up, &w.snapshot(), &mut meter)
            .is_none());
    }

    #[test]
    fn feasible_window_decodes_before_and_after_every_interval_closes() {
        let up = flow(&[0.0, 5.0]);
        let mut state = ScreenState::default();
        let mut w = window(&[0.5, 5.5], 8);
        assert_eq!(matcher().screen(&up, &w, &mut state), Screen::Decode);
        w.push(Packet::new(Timestamp::from_secs_f64(7.0), 64))
            .unwrap();
        assert_eq!(matcher().screen(&up, &w, &mut state), Screen::Decode);
        assert_eq!(matcher().screen(&up, &w, &mut state), Screen::Decode);
    }

    #[test]
    fn eviction_is_followed_but_not_rechecked() {
        let up = flow(&[0.0, 1.0, 2.0]);
        let mut state = ScreenState::default();
        let mut w = window(&[0.1, 1.1, 2.1], 3);
        assert_eq!(matcher().screen(&up, &w, &mut state), Screen::Decode);
        // Evicts 0.1, the only candidate of the already-closed first
        // interval. The screen moves on past the evicted packet and does
        // not re-check that set: the decode it leaves to run finds the
        // set empty.
        w.push(Packet::new(Timestamp::from_secs_f64(3.5), 64))
            .unwrap();
        assert_eq!(w.evicted(), 1);
        assert_eq!(matcher().screen(&up, &w, &mut state), Screen::Decode);
        let mut meter = CostMeter::new();
        assert!(matcher()
            .matching_sets(&up, &w.snapshot(), &mut meter)
            .is_none());
    }

    #[test]
    fn size_classes_are_respected() {
        let up = Flow::from_packets([Packet::new(Timestamp::from_secs(0), 60)]).unwrap();
        let mut w = SlidingWindow::new(8);
        w.push(Packet::new(Timestamp::from_secs_f64(0.5), 90))
            .unwrap();
        w.push(Packet::new(Timestamp::from_secs_f64(2.0), 60))
            .unwrap();
        let mut state = ScreenState::default();
        let quantum = matcher().with_size_quantum(16);
        assert_eq!(quantum.screen(&up, &w, &mut state), Screen::Unmatched);
        let mut state = ScreenState::default();
        assert_eq!(matcher().screen(&up, &w, &mut state), Screen::Decode);
    }

    #[test]
    fn empty_upstream_always_decodes() {
        let mut state = ScreenState::default();
        let w = window(&[1.0], 4);
        assert_eq!(
            matcher().screen(&Flow::new(), &w, &mut state),
            Screen::Decode
        );
    }

    fn erasures(m: &Matcher, up: &Flow, w: &SlidingWindow) -> usize {
        GappedSets::compute(m, up, &w.snapshot(), &mut CostMeter::new()).erasures()
    }

    #[test]
    fn over_budget_counts_sets_outside_the_window_span() {
        let up = flow(&[0.0, 1.0, 2.0, 3.0, 10.0]);
        // [0, 1] ends before 1.5 and [10, 11] starts after 3.5; [1, 2]
        // and [3, 4] hold 1.5 and 3.5, and [2, 3] holds nothing.
        let w = window(&[1.5, 3.5], 8);
        assert_eq!(erasures(&matcher(), &up, &w), 3);
        assert!(matcher().over_budget(&up, &w, 2));
        assert!(!matcher().over_budget(&up, &w, 3));
    }

    #[test]
    fn over_budget_bounds_are_inclusive() {
        // 1.0 is exactly Δ after the first upstream packet and exactly
        // at the last one: both sets hold it.
        let up = flow(&[0.0, 1.0]);
        let w = window(&[1.0], 8);
        assert_eq!(erasures(&matcher(), &up, &w), 0);
        assert!(!matcher().over_budget(&up, &w, 0));
    }

    #[test]
    fn over_budget_respects_size_classes() {
        let up = Flow::from_packets([Packet::new(Timestamp::from_secs(0), 60)]).unwrap();
        let mut w = SlidingWindow::new(8);
        w.push(Packet::new(Timestamp::from_secs_f64(0.5), 90))
            .unwrap();
        let quantum = matcher().with_size_quantum(16);
        assert!(quantum.over_budget(&up, &w, 0));
        assert!(!matcher().over_budget(&up, &w, 0));
    }

    #[test]
    fn over_budget_on_an_empty_window_or_upstream() {
        let up = flow(&[0.0, 1.0]);
        let empty = SlidingWindow::new(4);
        assert!(matcher().over_budget(&up, &empty, 1));
        assert!(!matcher().over_budget(&up, &empty, 2));
        assert!(!matcher().over_budget(&Flow::new(), &empty, 0));
    }
}
