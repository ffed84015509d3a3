//! Bounded sliding windows over live packet streams.

use std::collections::VecDeque;

use crate::error::FlowError;
use crate::flow::Flow;
use crate::packet::Packet;
use crate::time::{TimeDelta, Timestamp};

/// A bounded, append-only window over one flow's live packet stream.
///
/// Online monitors cannot hold a suspicious flow's full history: flows
/// are unbounded and memory is not. A `SlidingWindow` keeps the most
/// recent `capacity` packets, enforcing the same non-decreasing
/// timestamp invariant as [`Flow`], and evicts from the front when
/// full. [`snapshot`](SlidingWindow::snapshot) materialises the current
/// contents as a [`Flow`] for batch decoding.
///
/// # Example
///
/// ```
/// use stepstone_flow::{Packet, SlidingWindow, Timestamp};
///
/// let mut w = SlidingWindow::new(2);
/// w.push(Packet::new(Timestamp::from_secs(1), 64)).unwrap();
/// w.push(Packet::new(Timestamp::from_secs(2), 64)).unwrap();
/// // Third push evicts the oldest packet.
/// let evicted = w.push(Packet::new(Timestamp::from_secs(3), 64)).unwrap();
/// assert_eq!(evicted.unwrap().timestamp(), Timestamp::from_secs(1));
/// assert_eq!(w.len(), 2);
/// assert_eq!(w.pushed(), 3);
/// assert_eq!(w.evicted(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    /// The retained packets in fixed-size chunks, oldest first: every
    /// chunk but the last is full, and the first `head` packets of the
    /// first chunk are already evicted. Growing one chunk at a time
    /// never reallocates what is stored, and every chunk has the same
    /// size, so a monitor churning through many windows reuses freed
    /// chunks instead of fragmenting its heap with doubling buffers.
    chunks: VecDeque<Vec<Packet>>,
    /// Packets per chunk: [`CHUNK`], or the capacity rounded up to a
    /// power of two if smaller, so that [`get`](Self::get) splits an
    /// index with a shift and a mask rather than a division.
    chunk: usize,
    head: usize,
    len: usize,
    capacity: usize,
    pushed: u64,
    evicted: u64,
}

/// Packets per window chunk, at most; a power of two.
const CHUNK: usize = 256;

/// The iterator of [`SlidingWindow::iter_from`]: the rest of one chunk,
/// then the chunks after it.
#[derive(Clone)]
struct Packets<'a> {
    run: std::slice::Iter<'a, Packet>,
    chunks: std::collections::vec_deque::Iter<'a, Vec<Packet>>,
}

impl<'a> Iterator for Packets<'a> {
    type Item = &'a Packet;

    fn next(&mut self) -> Option<&'a Packet> {
        loop {
            if let Some(packet) = self.run.next() {
                return Some(packet);
            }
            self.run = self.chunks.next()?.iter();
        }
    }
}

impl SlidingWindow {
    /// Creates an empty window holding at most `capacity` packets.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SlidingWindow {
            chunks: VecDeque::new(),
            chunk: CHUNK.min(capacity.next_power_of_two()),
            head: 0,
            len: 0,
            capacity,
            pushed: 0,
            evicted: 0,
        }
    }

    /// Maximum number of packets retained.
    pub const fn capacity(&self) -> usize {
        self.capacity
    }

    /// Packets currently in the window.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no packets are retained.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` when the next push will evict the oldest packet.
    pub fn is_full(&self) -> bool {
        self.len == self.capacity
    }

    /// Total packets ever accepted, including since-evicted ones.
    pub const fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Packets evicted from the front to respect the capacity bound.
    pub const fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Timestamp of the oldest retained packet.
    pub fn first_timestamp(&self) -> Option<Timestamp> {
        self.get(0).map(Packet::timestamp)
    }

    /// Timestamp of the newest retained packet.
    pub fn last_timestamp(&self) -> Option<Timestamp> {
        self.chunks.back()?.last().map(Packet::timestamp)
    }

    /// Appends a packet, evicting (and returning) the oldest packet if
    /// the window is full.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::OutOfOrder`] — with `index` counting all
    /// packets ever pushed — if the packet's timestamp precedes the
    /// newest retained packet's. The window is unchanged on error.
    pub fn push(&mut self, packet: Packet) -> Result<Option<Packet>, FlowError> {
        if let Some(last) = self.last_timestamp() {
            if packet.timestamp() < last {
                return Err(FlowError::OutOfOrder {
                    index: self.pushed as usize,
                    previous: last,
                    offending: packet.timestamp(),
                });
            }
        }
        let evicted = if self.is_full() {
            self.evict_front()
        } else {
            None
        };
        match self.chunks.back_mut() {
            Some(chunk) if chunk.len() < self.chunk => chunk.push(packet),
            _ => {
                let mut chunk = Vec::with_capacity(self.chunk);
                chunk.push(packet);
                self.chunks.push_back(chunk);
            }
        }
        self.len += 1;
        self.pushed += 1;
        Ok(evicted)
    }

    /// Drops the oldest packet, releasing its chunk once it is spent.
    fn evict_front(&mut self) -> Option<Packet> {
        let packet = *self.get(0)?;
        self.head += 1;
        self.len -= 1;
        self.evicted += 1;
        if self.head == self.chunk {
            self.chunks.pop_front();
            self.head = 0;
        }
        Some(packet)
    }

    /// Time since the newest packet arrived, saturating at zero if `now`
    /// precedes it. `None` for an empty window.
    pub fn idle_since(&self, now: Timestamp) -> Option<TimeDelta> {
        let last = self.last_timestamp()?;
        Some(if now < last {
            TimeDelta::ZERO
        } else {
            now - last
        })
    }

    /// Time spanned by the retained packets (zero when fewer than two).
    pub fn span(&self) -> TimeDelta {
        match (self.first_timestamp(), self.last_timestamp()) {
            (Some(first), Some(last)) => last - first,
            _ => TimeDelta::ZERO,
        }
    }

    /// The `index`-th retained packet, oldest first; `None` past the
    /// end. Packet `index` is the `evicted() + index`-th ever pushed.
    pub fn get(&self, index: usize) -> Option<&Packet> {
        if index >= self.len {
            return None;
        }
        let at = self.head + index;
        let shift = self.chunk.trailing_zeros();
        self.chunks.get(at >> shift)?.get(at & (self.chunk - 1))
    }

    /// Iterates over the retained packets, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Packet> {
        self.iter_from(self.evicted)
    }

    /// Iterates over the retained packets from the `push`-th ever
    /// pushed (counting from zero) on, oldest first, walking the chunk
    /// slices directly; from the oldest retained packet if `push` was
    /// already evicted, and nothing if it is not yet pushed. Starting
    /// costs one index split, as [`get`](Self::get) does.
    pub fn iter_from(&self, push: u64) -> impl Iterator<Item = &Packet> + Clone {
        let skip = usize::try_from(push.saturating_sub(self.evicted))
            .map_or(self.len, |s| s.min(self.len));
        let at = self.head + skip;
        let mut chunks = self.chunks.range(at >> self.chunk.trailing_zeros()..);
        let run = chunks
            .next()
            .map_or(&[][..], |chunk| &chunk[at & (self.chunk - 1)..]);
        Packets {
            run: run.iter(),
            chunks,
        }
    }

    /// Where a walk from push index `from` (from the oldest retained
    /// packet, if `from` was evicted) that steps over packets earlier
    /// than `t` stops: the push index of the first packet on the way
    /// not earlier than `t`, [`pushed`](Self::pushed) if there is none,
    /// and `from` itself if it is not yet pushed. Skips whole chunks by
    /// their last timestamp, then binary-searches one chunk.
    pub fn seek(&self, from: u64, t: Timestamp) -> u64 {
        let from = from.max(self.evicted);
        let skip = usize::try_from(from - self.evicted).unwrap_or(usize::MAX);
        if skip >= self.len {
            return from;
        }
        let mut at = self.head + skip;
        for chunk in self.chunks.range(at >> self.chunk.trailing_zeros()..) {
            let run = &chunk[at & (self.chunk - 1)..];
            if run.last().is_some_and(|p| p.timestamp() >= t) {
                at += run.partition_point(|p| p.timestamp() < t);
                return self.evicted + (at - self.head) as u64;
            }
            // Every chunk but the last is full, so `at` moves to the
            // next chunk's first slot.
            at += run.len();
        }
        self.pushed
    }

    /// Materialises the retained packets as a [`Flow`] for batch
    /// decoding. Provenance is preserved.
    pub fn snapshot(&self) -> Flow {
        self.prefix(self.len)
    }

    /// Materialises the oldest `len` retained packets (all of them if
    /// fewer) as a [`Flow`]. Provenance is preserved.
    pub fn prefix(&self, len: usize) -> Flow {
        let len = len.min(self.len);
        let mut packets = Vec::with_capacity(len);
        for (k, chunk) in self.chunks.iter().enumerate() {
            let chunk = if k == 0 { &chunk[self.head..] } else { chunk };
            let take = chunk.len().min(len - packets.len());
            packets.extend_from_slice(&chunk[..take]);
            if packets.len() == len {
                break;
            }
        }
        Flow::from_packets(packets)
            // lint: allow(no_panic) push() rejects out-of-order packets, so the retained buffer is always sorted
            .expect("window invariant: timestamps are non-decreasing")
    }

    /// Drops all retained packets; cumulative counters are kept.
    pub fn clear(&mut self) {
        self.evicted += self.len as u64;
        self.chunks.clear();
        self.head = 0;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(secs: f64) -> Packet {
        Packet::new(Timestamp::from_secs_f64(secs), 64)
    }

    #[test]
    fn keeps_most_recent_capacity_packets() {
        let mut w = SlidingWindow::new(3);
        for i in 0..10 {
            w.push(p(i as f64)).unwrap();
        }
        assert_eq!(w.len(), 3);
        assert_eq!(w.pushed(), 10);
        assert_eq!(w.evicted(), 7);
        assert_eq!(w.first_timestamp(), Some(Timestamp::from_secs(7)));
        assert_eq!(w.last_timestamp(), Some(Timestamp::from_secs(9)));
        assert_eq!(w.span(), TimeDelta::from_secs(2));
    }

    #[test]
    fn rejects_out_of_order_and_stays_unchanged() {
        let mut w = SlidingWindow::new(4);
        w.push(p(1.0)).unwrap();
        w.push(p(2.0)).unwrap();
        let err = w.push(p(1.5)).unwrap_err();
        assert!(
            matches!(err, FlowError::OutOfOrder { index: 2, .. }),
            "unexpected error {err:?}"
        );
        assert_eq!(w.len(), 2);
        assert_eq!(w.pushed(), 2);
        // Equal timestamps are allowed, matching Flow's invariant.
        w.push(p(2.0)).unwrap();
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn snapshot_matches_flow_semantics() {
        let mut w = SlidingWindow::new(8);
        let chaff = Packet::chaff(Timestamp::from_secs(2), 48);
        w.push(p(1.0)).unwrap();
        w.push(chaff).unwrap();
        w.push(p(3.0)).unwrap();
        let flow = w.snapshot();
        assert_eq!(flow.len(), 3);
        assert_eq!(flow.chaff_count(), 1);
        assert_eq!(flow[1], chaff);
        assert_eq!(w.get(1), Some(&chaff));
        assert_eq!(w.get(3), None);
    }

    #[test]
    fn chunked_storage_matches_a_plain_model() {
        // Capacities on both sides of the chunk size, and one whose
        // chunk rounds up to a power of two, pushed far past several
        // chunk boundaries.
        for capacity in [1, 2, 3, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7] {
            let mut w = SlidingWindow::new(capacity);
            let mut model: VecDeque<Packet> = VecDeque::new();
            for i in 0..(5 * CHUNK + 3) {
                let packet = Packet::new(Timestamp::from_micros(i as i64), i as u32);
                let evicted = w.push(packet).unwrap();
                model.push_back(packet);
                let expected = (model.len() > capacity)
                    .then(|| model.pop_front())
                    .flatten();
                assert_eq!(evicted, expected, "capacity {capacity}, push {i}");
                assert_eq!(w.len(), model.len());
                assert_eq!(w.evicted() + w.len() as u64, w.pushed());
                assert_eq!(w.get(0), model.front());
                assert_eq!(w.get(w.len() - 1), model.back());
                assert_eq!(w.get(w.len()), None);
                assert_eq!(w.last_timestamp(), model.back().map(Packet::timestamp));
            }
            assert!(w.iter().eq(model.iter()), "capacity {capacity}");
            for skip in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, model.len()] {
                let push = w.evicted() + skip as u64;
                assert!(
                    w.iter_from(push).eq(model.iter().skip(skip)),
                    "capacity {capacity}, from push {push}"
                );
            }
            assert!(w.iter_from(0).eq(model.iter()));
            assert!(w.iter_from(u64::MAX).next().is_none());
            assert_eq!(w.snapshot().packets(), model.make_contiguous());
            for len in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, capacity, capacity + 1] {
                let n = len.min(model.len());
                assert_eq!(w.prefix(len).packets(), &model.make_contiguous()[..n]);
            }
            w.clear();
            assert!(w.is_empty() && w.iter().next().is_none() && w.get(0).is_none());
        }
    }

    /// Where a walk from `from` that steps over packets earlier than
    /// `t` stops: the model [`SlidingWindow::seek`] must agree with.
    fn step(w: &SlidingWindow, from: u64, t: Timestamp) -> u64 {
        let from = from.max(w.evicted());
        from + w.iter_from(from).take_while(|p| p.timestamp() < t).count() as u64
    }

    /// A window of `capacity` after `n` pushes, two per timestamp
    /// (µs 0, 0, 2, 2, …), so push `k` of an even `k` is the first
    /// packet at µs `k`.
    fn paired(capacity: usize, n: usize) -> SlidingWindow {
        let mut w = SlidingWindow::new(capacity);
        for k in 0..n {
            w.push(Packet::new(Timestamp::from_micros(2 * (k / 2) as i64), 64))
                .unwrap();
        }
        w
    }

    #[test]
    fn seek_on_an_empty_window_stays_put() {
        let w = SlidingWindow::new(8);
        assert_eq!(w.seek(0, Timestamp::from_secs(1)), 0);
        let mut w = paired(4, 6);
        w.clear();
        assert_eq!(w.seek(0, Timestamp::ZERO), 6);
        assert_eq!(w.seek(9, Timestamp::ZERO), 9);
    }

    #[test]
    fn seek_before_and_after_every_packet() {
        let w = paired(1024, 600);
        // Every packet is earlier than t: past the last one.
        assert_eq!(w.seek(0, Timestamp::from_secs(1)), 600);
        assert_eq!(w.seek(599, Timestamp::from_micros(599)), 600);
        // Every packet is at or after t: no step.
        assert_eq!(w.seek(0, Timestamp::ZERO), 0);
        assert_eq!(w.seek(0, Timestamp::from_micros(-5)), 0);
        assert_eq!(w.seek(301, Timestamp::ZERO), 301);
    }

    #[test]
    fn seek_lands_on_chunk_boundaries() {
        let w = paired(4 * CHUNK, 3 * CHUNK + 10);
        for push in [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 3 * CHUNK] {
            // The first packet of each timestamp pair is even.
            let even = push & !1;
            let t = Timestamp::from_micros(even as i64);
            assert_eq!(w.seek(0, t), even as u64, "t at push {push}");
            assert_eq!(w.seek(push as u64, t), push as u64);
            // A chunk whose last packet is just before t is skipped whole.
            let next = Timestamp::from_micros(even as i64 + 1);
            assert_eq!(w.seek(0, next), even as u64 + 2);
        }
    }

    #[test]
    fn seek_after_evictions_starts_at_the_oldest_retained() {
        let w = paired(CHUNK + 3, 3 * CHUNK);
        let oldest = w.evicted();
        assert!(oldest > CHUNK as u64 && oldest % 2 == 1);
        assert_eq!(w.seek(0, Timestamp::ZERO), oldest);
        let t = Timestamp::from_micros(oldest as i64 + 1);
        assert_eq!(w.seek(0, t), oldest + 1);
        assert_eq!(w.seek(3, Timestamp::from_secs(1)), w.pushed());
    }

    #[test]
    fn seek_past_pushed_returns_from() {
        let w = paired(8, 6);
        assert_eq!(w.seek(6, Timestamp::ZERO), 6);
        assert_eq!(w.seek(40, Timestamp::ZERO), 40);
        assert_eq!(w.seek(u64::MAX, Timestamp::from_secs(1)), u64::MAX);
    }

    #[test]
    fn seek_agrees_with_a_stepping_walk() {
        for capacity in [1, 3, CHUNK - 1, CHUNK, 2 * CHUNK + 5] {
            let mut w = SlidingWindow::new(capacity);
            for k in 0..(3 * CHUNK + 9) {
                w.push(Packet::new(Timestamp::from_micros((k / 3) as i64 * 5), 64))
                    .unwrap();
                if k % 97 != 0 {
                    continue;
                }
                for from in [0, w.evicted(), w.pushed() / 2, w.pushed(), w.pushed() + 2] {
                    for micros in [-1, 0, 4, 5, 6, (k as i64 / 3) * 5, (k as i64 / 3) * 5 + 1] {
                        let t = Timestamp::from_micros(micros);
                        assert_eq!(
                            w.seek(from, t),
                            step(&w, from, t),
                            "capacity {capacity}, push {k}, from {from}, t {micros}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn idle_since_saturates() {
        let mut w = SlidingWindow::new(2);
        assert_eq!(w.idle_since(Timestamp::from_secs(5)), None);
        w.push(p(4.0)).unwrap();
        assert_eq!(
            w.idle_since(Timestamp::from_secs(9)),
            Some(TimeDelta::from_secs(5))
        );
        assert_eq!(w.idle_since(Timestamp::from_secs(1)), Some(TimeDelta::ZERO));
    }

    #[test]
    fn clear_counts_dropped_packets_as_evicted() {
        let mut w = SlidingWindow::new(4);
        w.push(p(1.0)).unwrap();
        w.push(p(2.0)).unwrap();
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.evicted(), 2);
        assert_eq!(w.pushed(), 2);
        // Order restarts after a clear: earlier timestamps are fine.
        w.push(p(0.5)).unwrap();
        assert_eq!(w.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = SlidingWindow::new(0);
    }
}
