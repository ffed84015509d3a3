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

use std::iter::Peekable;

use stepstone_flow::{Flow, Packet, SlidingWindow, Timestamp};

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
/// pair, starting from [`Default`]. [`permanent`](Self::permanent) says
/// which answers it makes final.
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

    /// `true` if `answer`, just returned by a screen that advanced this
    /// state, is the answer every later call on the same flow returns
    /// too, so a caller may stop screening. Only a settled frontier
    /// makes an answer permanent:
    ///
    /// - [`Screen::Unmatched`] from [`Matcher::screen`] once the state
    ///   is [settled](Self::settled): the empty closed set stays empty
    ///   however the window grows or evicts.
    /// - [`Screen::OverBudget`] from [`Matcher::screen_robust`] under
    ///   erasure `budget` once the closed empty sets alone exceed it:
    ///   they are erasures no later packet fills, so every later call
    ///   answers `OverBudget` until the window first evicts. From then
    ///   on it answers [`Screen::Decode`], since the robust screen
    ///   proves nothing on an evicted window.
    ///
    /// [`Screen::Decode`] is never permanent.
    pub const fn permanent(&self, answer: Screen, budget: usize) -> bool {
        match answer {
            Screen::Decode => false,
            Screen::Unmatched => self.settled(),
            Screen::OverBudget => self.empty > budget,
        }
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
        if self.size_quantum().is_some() && state.closed < n - late {
            let start = window.seek(state.lo, upstream.timestamp(state.closed));
            let mut walk = walk(window, start);
            for i in state.closed..n - late {
                if !self.holds_candidate(upstream, i, &mut walk) {
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
    /// passes `limit`. The walk seeks to the first interval's start,
    /// which lies anywhere in the window on a first call, then steps
    /// from interval to interval.
    fn close(
        &self,
        upstream: &Flow,
        window: &SlidingWindow,
        last: Timestamp,
        state: &mut ScreenState,
        limit: usize,
    ) {
        let next = |state: &ScreenState| {
            let t = upstream.packets().get(state.closed)?.timestamp();
            (state.empty <= limit && last > t.saturating_add(self.delta())).then_some(t)
        };
        let from = state.lo.max(window.evicted());
        let mut walk = walk(window, next(state).map_or(from, |t| window.seek(from, t)));
        while next(state).is_some() {
            if !self.holds_candidate(upstream, state.closed, &mut walk) {
                state.empty += 1;
            }
            state.closed += 1;
        }
        state.lo = walk.push;
    }

    /// `true` if the window `walk` runs over holds a packet of upstream
    /// packet `i`'s size class inside `[tᵢ, tᵢ + Δ]`. `walk` stands at
    /// or before the first packet not earlier than `tᵢ`; it is advanced
    /// to that packet, so successive calls for ascending `i` each scan
    /// forward from where the last one started.
    fn holds_candidate<'w, I>(&self, upstream: &Flow, i: usize, walk: &mut Walk<I>) -> bool
    where
        I: Iterator<Item = &'w Packet> + Clone,
    {
        let t = upstream.timestamp(i);
        let latest = t.saturating_add(self.delta());
        while walk.packets.next_if(|p| p.timestamp() < t).is_some() {
            walk.push += 1;
        }
        let class = self
            .size_quantum()
            .map(|q| (upstream[i].size().div_ceil(q), q));
        for packet in walk.packets.clone() {
            if packet.timestamp() > latest {
                return false;
            }
            if class.is_none_or(|(c, q)| packet.size().div_ceil(q) == c) {
                return true;
            }
        }
        false
    }
}

/// A forward walk over a window's packets, straight over its chunk
/// slices, that knows the push index of the packet it stands at.
struct Walk<I: Iterator> {
    packets: Peekable<I>,
    push: u64,
}

/// A walk over `window` from push index `push`, which must not be
/// evicted.
fn walk(window: &SlidingWindow, push: u64) -> Walk<impl Iterator<Item = &Packet> + Clone> {
    debug_assert!(push >= window.evicted());
    Walk {
        packets: window.iter_from(push).peekable(),
        push,
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
    fn only_a_settled_frontier_makes_an_answer_permanent() {
        let up = flow(&[0.0, 2.0, 4.0]);
        let m = matcher();
        // Over the budget only through the sets after the window's
        // last packet: a later packet may fill them.
        let mut state = ScreenState::default();
        let w = window(&[0.5], 8);
        assert_eq!(m.screen_robust(&up, &w, 1, &mut state), Screen::OverBudget);
        assert!(!state.permanent(Screen::OverBudget, 1));
        // Unmatched only because the window ends before the last
        // upstream packet.
        assert_eq!(m.screen(&up, &w, &mut state), Screen::Unmatched);
        assert!(!state.permanent(Screen::Unmatched, 0));
        // [0, 1] closes empty: one closed empty set, so over a budget
        // of 0 for good, and settled for the strict decode.
        let mut state = ScreenState::default();
        let w = window(&[1.5, 2.5, 4.5], 8);
        assert_eq!(m.screen_robust(&up, &w, 0, &mut state), Screen::OverBudget);
        assert!(state.permanent(Screen::OverBudget, 0));
        assert!(!state.permanent(Screen::OverBudget, 1));
        assert!(!state.permanent(Screen::Decode, 0));
        let mut state = ScreenState::default();
        assert_eq!(m.screen(&up, &w, &mut state), Screen::Unmatched);
        assert!(state.permanent(Screen::Unmatched, 0));
    }

    /// The frontier as it stepped before [`SlidingWindow::seek`]: one
    /// packet at a time from the state's push index, through the same
    /// screens. The seeking frontier must agree with it on every answer
    /// and every state.
    mod stepping {
        use super::*;

        fn holds<'w>(
            m: &Matcher,
            up: &Flow,
            i: usize,
            rest: impl Iterator<Item = &'w Packet>,
        ) -> bool {
            let latest = up.timestamp(i).saturating_add(m.delta());
            let class = m.size_quantum().map(|q| (up[i].size().div_ceil(q), q));
            rest.take_while(|p| p.timestamp() <= latest)
                .any(|p| class.is_none_or(|(c, q)| p.size().div_ceil(q) == c))
        }

        /// Steps `packets` (standing at push `push`) past every packet
        /// earlier than `tᵢ`.
        fn step<'w>(
            up: &Flow,
            i: usize,
            packets: &mut Peekable<impl Iterator<Item = &'w Packet>>,
            push: &mut u64,
        ) {
            while packets
                .next_if(|p| p.timestamp() < up.timestamp(i))
                .is_some()
            {
                *push += 1;
            }
        }

        fn close(
            m: &Matcher,
            up: &Flow,
            w: &SlidingWindow,
            last: Timestamp,
            state: &mut ScreenState,
            limit: usize,
        ) {
            let mut push = state.lo.max(w.evicted());
            let mut packets = w.iter_from(push).peekable();
            while state.closed < up.len() && state.empty <= limit {
                let i = state.closed;
                if last <= up.timestamp(i).saturating_add(m.delta()) {
                    break;
                }
                step(up, i, &mut packets, &mut push);
                if !holds(m, up, i, packets.clone()) {
                    state.empty += 1;
                }
                state.closed += 1;
            }
            state.lo = push;
        }

        pub fn screen(
            m: &Matcher,
            up: &Flow,
            w: &SlidingWindow,
            state: &mut ScreenState,
        ) -> Screen {
            let n = up.len();
            if n == 0 {
                return Screen::Decode;
            }
            if state.settled() {
                return Screen::Unmatched;
            }
            let Some(last) = w.last_timestamp() else {
                return Screen::Unmatched;
            };
            close(m, up, w, last, state, 0);
            if state.settled() || last < up.timestamp(n - 1) {
                return Screen::Unmatched;
            }
            Screen::Decode
        }

        pub fn screen_robust(
            m: &Matcher,
            up: &Flow,
            w: &SlidingWindow,
            budget: usize,
            state: &mut ScreenState,
        ) -> Screen {
            let n = up.len();
            if n <= budget || w.evicted() > 0 {
                return Screen::Decode;
            }
            let Some(last) = w.last_timestamp() else {
                return Screen::OverBudget;
            };
            close(m, up, w, last, state, budget);
            let late = n - up.packets().partition_point(|p| p.timestamp() <= last);
            let mut erased = state.empty + late;
            if erased > budget {
                return Screen::OverBudget;
            }
            if m.size_quantum().is_some() {
                let mut push = state.lo;
                let mut packets = w.iter_from(push).peekable();
                for i in state.closed..n - late {
                    step(up, i, &mut packets, &mut push);
                    if !holds(m, up, i, packets.clone()) {
                        erased += 1;
                        if erased > budget {
                            return Screen::OverBudget;
                        }
                    }
                }
            }
            Screen::Decode
        }
    }

    /// Packets from `(gap ms, size)` pairs, times accumulated from
    /// `start` ms.
    fn packets(start: i64, gaps: &[(i64, u32)]) -> Vec<Packet> {
        let mut at = start;
        gaps.iter()
            .map(|&(gap, size)| {
                at += gap;
                Packet::new(Timestamp::from_millis(at), size)
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn seeking_frontier_agrees_with_the_stepping_one(
            start in 0i64..4_000,
            up_gaps in proptest::collection::vec((0i64..400, 40u32..100), 1..40),
            window_gaps in proptest::collection::vec((0i64..60, 40u32..100), 0..900),
            capacity in 0usize..7,
            every in 1usize..48,
            quantum in 0usize..3,
            budget in 0usize..6,
        ) {
            // Capacities around one chunk of 256, and well past it.
            let capacity = [1, 7, 255, 256, 300, 600, 1024][capacity];
            let m = [None, Some(16), Some(32)][quantum]
                .map_or(matcher(), |q| matcher().with_size_quantum(q));
            let up = Flow::from_packets(packets(start, &up_gaps)).unwrap();
            let mut w = SlidingWindow::new(capacity);
            let (mut strict, mut strict_model) = (ScreenState::default(), ScreenState::default());
            let (mut robust, mut robust_model) = (ScreenState::default(), ScreenState::default());
            for (k, packet) in packets(0, &window_gaps).into_iter().enumerate() {
                w.push(packet).unwrap();
                if k % every != 0 {
                    continue;
                }
                proptest::prop_assert_eq!(
                    m.screen(&up, &w, &mut strict),
                    stepping::screen(&m, &up, &w, &mut strict_model),
                    "strict screen after push {}", k
                );
                proptest::prop_assert_eq!(&strict, &strict_model);
                proptest::prop_assert_eq!(
                    m.screen_robust(&up, &w, budget, &mut robust),
                    stepping::screen_robust(&m, &up, &w, budget, &mut robust_model),
                    "robust screen after push {}", k
                );
                proptest::prop_assert_eq!(&robust, &robust_model);
            }
        }
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
