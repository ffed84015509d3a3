//! Incremental screening of decodes over a growing window.
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
//! A [`ScreenState`] is one frontier over the closed intervals: each
//! call visits only the intervals closed since the last one, and counts
//! those it finds empty. Both screens walk it.
//!
//! - [`Matcher::screen`] (strict) stops the walk at the first empty
//!   set and reports the pair unmatched from then on.
//! - [`Matcher::screen_robust`] keeps counting. Robust decodes absorb
//!   an empty set as an erasure, and never correlate once the erasures
//!   exceed their budget. On a window that has never evicted, the
//!   erasure count is the carried count of closed empty sets, plus the
//!   open intervals with no candidate yet, plus the upstream packets
//!   after the window's last one. That is exact: a closed set gains no
//!   packet, and a window that has never evicted loses none. An
//!   evicted window may have lost candidates of sets counted non-empty,
//!   so the robust screen proves nothing there.

use stepstone_flow::{Flow, SlidingWindow, Timestamp};

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

/// The frontier both screens resume from: one per (upstream, window)
/// pair, starting from [`Default`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScreenState {
    /// Upstream packets whose interval is closed and was visited.
    closed: usize,
    /// How many of those had an empty matching set when they closed.
    empty: usize,
    /// Push index of the first window packet not earlier than the next
    /// upstream packet to close.
    lo: u64,
}

impl ScreenState {
    /// `true` once a closed set was found empty: the strict decode of
    /// this window and of every later one is unmatched.
    pub const fn settled(&self) -> bool {
        self.empty > 0
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
        if state.settled() {
            return Screen::Unmatched;
        }
        let Some(last) = window.last_timestamp() else {
            return Screen::Unmatched;
        };
        self.close(upstream, window, last, state, 0);
        // The last upstream packet needs a candidate at or after its
        // own time; a window ending earlier has none.
        if state.settled() || last < upstream.timestamp(n - 1) {
            return Screen::Unmatched;
        }
        Screen::Decode
    }

    /// Screens the robust decode of `window` against `upstream` under
    /// an erasure `budget`, advancing `state` over the intervals closed
    /// since the last call. [`Screen::OverBudget`] exactly when
    /// [`GappedSets::compute`](crate::GappedSets::compute) on the
    /// window's snapshot leaves more than `budget` slots erased, before
    /// any tightening; tightening only erases more, so such a decode
    /// blows its budget. Never charges a cost meter.
    ///
    /// Only a window that has never evicted is screened; an evicted one
    /// always answers [`Screen::Decode`]. Once the carried count passes
    /// the budget the walk stops, since the answer is then known.
    pub fn screen_robust(
        &self,
        upstream: &Flow,
        window: &SlidingWindow,
        budget: usize,
        state: &mut ScreenState,
    ) -> Screen {
        let n = upstream.len();
        if n <= budget || window.evicted() > 0 {
            return Screen::Decode;
        }
        let Some(last) = window.last_timestamp() else {
            return Screen::OverBudget;
        };
        self.close(upstream, window, last, state, budget);
        // Upstream packets after the window's last one: their sets are
        // empty until it grows.
        let late = n - upstream
            .packets()
            .partition_point(|p| p.timestamp() <= last);
        let mut erased = state.empty + late;
        if erased > budget {
            return Screen::OverBudget;
        }
        // The open intervals, `tᵢ ≤ last ≤ tᵢ + Δ`, hold the window's
        // last packet; only a size class can leave one empty.
        if self.size_quantum().is_some() {
            let mut lo = state.lo;
            for i in state.closed..n - late {
                if !self.holds_candidate(upstream, i, window, &mut lo) {
                    erased += 1;
                    if erased > budget {
                        return Screen::OverBudget;
                    }
                }
            }
        }
        Screen::Decode
    }

    /// Walks the intervals of `upstream` closed by `last` since the
    /// last call, counting the empty ones in `state`, until the count
    /// passes `limit`.
    fn close(
        &self,
        upstream: &Flow,
        window: &SlidingWindow,
        last: Timestamp,
        state: &mut ScreenState,
        limit: usize,
    ) {
        state.lo = state.lo.max(window.evicted());
        while state.closed < upstream.len() && state.empty <= limit {
            let i = state.closed;
            if last <= upstream.timestamp(i) + self.delta() {
                break;
            }
            if !self.holds_candidate(upstream, i, window, &mut state.lo) {
                state.empty += 1;
            }
            state.closed += 1;
        }
    }

    /// `true` if `window` holds a packet of upstream packet `i`'s size
    /// class inside `[tᵢ, tᵢ + Δ]`. `lo` is a push index at or before
    /// the first packet not earlier than `tᵢ`; it is advanced to that
    /// packet, so successive calls for ascending `i` each scan forward
    /// from where the last one started.
    fn holds_candidate(
        &self,
        upstream: &Flow,
        i: usize,
        window: &SlidingWindow,
        lo: &mut u64,
    ) -> bool {
        let base = window.evicted();
        let at = |push: u64| window.get(usize::try_from(push - base).unwrap_or(usize::MAX));
        let t = upstream.timestamp(i);
        let latest = t + self.delta();
        while at(*lo).is_some_and(|p| p.timestamp() < t) {
            *lo += 1;
        }
        let class = self
            .size_quantum()
            .map(|q| (upstream[i].size().div_ceil(q), q));
        let mut j = *lo;
        while let Some(packet) = at(j) {
            if packet.timestamp() > latest {
                return false;
            }
            match class {
                Some((c, q)) if packet.size().div_ceil(q) != c => j += 1,
                _ => return true,
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

    fn over_budget(m: &Matcher, up: &Flow, w: &SlidingWindow, budget: usize) -> bool {
        m.screen_robust(up, w, budget, &mut ScreenState::default()) == Screen::OverBudget
    }

    #[test]
    fn robust_screen_counts_sets_outside_the_window_span() {
        let up = flow(&[0.0, 1.0, 2.0, 3.0, 10.0]);
        // [0, 1] ends before 1.5 and [10, 11] starts after 3.5; [1, 2]
        // and [3, 4] hold 1.5 and 3.5, and [2, 3] holds nothing.
        let w = window(&[1.5, 3.5], 8);
        assert_eq!(erasures(&matcher(), &up, &w), 3);
        assert!(over_budget(&matcher(), &up, &w, 2));
        assert!(!over_budget(&matcher(), &up, &w, 3));
    }

    #[test]
    fn robust_screen_bounds_are_inclusive() {
        // 1.0 is exactly Δ after the first upstream packet and exactly
        // at the last one: both sets hold it.
        let up = flow(&[0.0, 1.0]);
        let w = window(&[1.0], 8);
        assert_eq!(erasures(&matcher(), &up, &w), 0);
        assert!(!over_budget(&matcher(), &up, &w, 0));
    }

    #[test]
    fn robust_screen_respects_size_classes() {
        let up = Flow::from_packets([Packet::new(Timestamp::from_secs(0), 60)]).unwrap();
        let mut w = SlidingWindow::new(8);
        w.push(Packet::new(Timestamp::from_secs_f64(0.5), 90))
            .unwrap();
        let quantum = matcher().with_size_quantum(16);
        assert!(over_budget(&quantum, &up, &w, 0));
        assert!(!over_budget(&matcher(), &up, &w, 0));
    }

    #[test]
    fn robust_screen_on_an_empty_window_or_upstream() {
        let up = flow(&[0.0, 1.0]);
        let empty = SlidingWindow::new(4);
        assert!(over_budget(&matcher(), &up, &empty, 1));
        assert!(!over_budget(&matcher(), &up, &empty, 2));
        assert!(!over_budget(&matcher(), &Flow::new(), &empty, 0));
    }

    #[test]
    fn robust_screen_carries_closed_empty_sets() {
        let up = flow(&[0.0, 2.0, 4.0]);
        let mut state = ScreenState::default();
        let mut w = SlidingWindow::new(8);
        // [0, 1] closes empty; [2, 3] and [4, 5] are still ahead.
        w.push(Packet::new(Timestamp::from_secs_f64(1.5), 64))
            .unwrap();
        assert_eq!(
            matcher().screen_robust(&up, &w, 2, &mut state),
            Screen::OverBudget
        );
        assert!(state.settled());
        // [2, 3] fills and closes; the first empty set stays counted.
        for s in [2.5, 4.5] {
            w.push(Packet::new(Timestamp::from_secs_f64(s), 64))
                .unwrap();
        }
        assert_eq!(erasures(&matcher(), &up, &w), 1);
        assert_eq!(
            matcher().screen_robust(&up, &w, 0, &mut state),
            Screen::OverBudget
        );
        assert_eq!(
            matcher().screen_robust(&up, &w, 1, &mut state),
            Screen::Decode
        );
    }

    #[test]
    fn robust_screen_proves_nothing_once_the_window_evicts() {
        let up = flow(&[0.0, 5.0]);
        let w = window(&[2.0, 3.0, 4.0], 2);
        assert_eq!(w.evicted(), 1);
        assert_eq!(
            matcher().screen_robust(&up, &w, 0, &mut ScreenState::default()),
            Screen::Decode
        );
    }
}
