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
        self.chunks.iter().flatten().skip(self.head)
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
            assert_eq!(w.snapshot().packets(), model.make_contiguous());
            for len in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, capacity, capacity + 1] {
                let n = len.min(model.len());
                assert_eq!(w.prefix(len).packets(), &model.make_contiguous()[..n]);
            }
            w.clear();
            assert!(w.is_empty() && w.iter().next().is_none() && w.get(0).is_none());
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
