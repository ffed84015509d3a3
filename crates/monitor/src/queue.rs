//! Bounded shard queues with depth and drop accounting.
//!
//! The engine's control thread pushes decode jobs at the sending side;
//! one worker per shard drains the receiving side. All accounting
//! invariants live here so they can be model-checked in isolation
//! (`tests/loom_queue.rs`, behind `--cfg loom`):
//!
//! 1. the **depth gauge never underflows**: it is incremented *before*
//!    a push attempt and decremented on failure (or after a pop), so
//!    it is always ≥ the queue's true occupancy and never wraps — the
//!    pre-extraction engine incremented *after* a successful
//!    `try_send`, racing the worker's decrement and occasionally
//!    wrapping the gauge to `usize::MAX`;
//! 2. **no job is lost or duplicated**: `accepted = popped` once the
//!    sender is dropped and the receiver drained;
//! 3. **drop accuracy**: `attempts = accepted + dropped` at all times.
//!
//! This module is compiled against `loom`'s atomics under `--cfg loom`
//! so the model tests drive the exact code the engine runs.

#[cfg(loom)]
use loom::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;

/// Why a push was rejected. Carrying the job back makes the rejection
/// lossless: the caller decides whether to retry, requeue elsewhere, or
/// account the job as shed — the queue itself never swallows work.
///
/// The distinction matters for crash accounting: `Full` is ordinary
/// backpressure (the engine pushes with
/// [`push_blocking`](ShardSender::push_blocking), which waits it out),
/// while
/// `Disconnected` means the receiving side is gone — enqueueing onto a
/// dead shard must surface as a typed error rather than silently
/// accepting a job no one will ever drain, or the conservation
/// invariant `enqueued == dequeued + depth` could be violated by a
/// worker death.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the rejected job is returned.
    Full(T),
    /// The receiving side is gone; the rejected job is returned.
    Disconnected(T),
}

impl<T> PushError<T> {
    /// Recovers the rejected job.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(item) | PushError::Disconnected(item) => item,
        }
    }

    /// `true` for [`PushError::Disconnected`].
    pub fn is_disconnected(&self) -> bool {
        matches!(self, PushError::Disconnected(_))
    }
}

/// The producing half of a bounded shard queue. Owned by the engine's
/// control side; never blocks unless [`push_blocking`] is chosen.
///
/// [`push_blocking`]: ShardSender::push_blocking
#[derive(Debug)]
pub struct ShardSender<T> {
    tx: SyncSender<T>,
    depth: Arc<AtomicUsize>,
    dropped: Arc<AtomicU64>,
    enqueued: Arc<AtomicU64>,
    dequeued: Arc<AtomicU64>,
}

/// The consuming half of a bounded shard queue. Moved into the shard's
/// worker thread.
#[derive(Debug)]
pub struct ShardReceiver<T> {
    rx: Receiver<T>,
    depth: Arc<AtomicUsize>,
    dequeued: Arc<AtomicU64>,
}

/// Creates a bounded queue holding at most `capacity` unstarted jobs.
pub fn shard_queue<T>(capacity: usize) -> (ShardSender<T>, ShardReceiver<T>) {
    let (tx, rx) = std::sync::mpsc::sync_channel(capacity);
    let depth = Arc::new(AtomicUsize::new(0));
    let dropped = Arc::new(AtomicU64::new(0));
    let enqueued = Arc::new(AtomicU64::new(0));
    let dequeued = Arc::new(AtomicU64::new(0));
    (
        ShardSender {
            tx,
            depth: Arc::clone(&depth),
            dropped,
            enqueued,
            dequeued: Arc::clone(&dequeued),
        },
        ShardReceiver {
            rx,
            depth,
            dequeued,
        },
    )
}

impl<T> ShardSender<T> {
    /// Attempts a non-blocking push. On a full queue or a gone receiver
    /// the job is handed back in a typed [`PushError`] (and counted as
    /// dropped); the caller is expected to retry with fresher data
    /// later, or to account the job explicitly.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        // Increment before the send so the gauge can never be observed
        // below the queue's true occupancy (a post-send increment races
        // the worker's decrement and can wrap the gauge below zero).
        // The channel itself provides the job's happens-before edge.
        // ordering: gauge is monotonic bookkeeping only; no memory is
        // published through it.
        self.depth.fetch_add(1, Ordering::Relaxed);
        match self.tx.try_send(item) {
            Ok(()) => {
                // ordering: monotonic conservation counter (enqueued
                // = dequeued + depth); nothing is published through it.
                self.enqueued.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                // ordering: undo of the optimistic increment above.
                self.depth.fetch_sub(1, Ordering::Relaxed);
                // ordering: monotonic stat counter, read only by stats
                // snapshots.
                self.dropped.fetch_add(1, Ordering::Relaxed);
                Err(match e {
                    TrySendError::Full(item) => PushError::Full(item),
                    TrySendError::Disconnected(item) => PushError::Disconnected(item),
                })
            }
        }
    }

    /// Pushes `item`, spinning until the queue accepts it and calling
    /// `pump` between attempts so the caller can keep draining
    /// completions (a stalled queue plus an undrained completion stream
    /// must not deadlock). Fails — without consuming progress
    /// guarantees — only if the receiving side is gone, returning the
    /// job in [`PushError::Disconnected`].
    pub fn push_blocking(&self, item: T, mut pump: impl FnMut()) -> Result<(), PushError<T>> {
        // ordering: see try_push — optimistic gauge increment.
        self.depth.fetch_add(1, Ordering::Relaxed);
        let mut item = item;
        loop {
            match self.tx.try_send(item) {
                Ok(()) => {
                    // ordering: monotonic conservation counter; see
                    // try_push.
                    self.enqueued.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
                Err(TrySendError::Full(rejected)) => {
                    item = rejected;
                    pump();
                    std::thread::yield_now();
                }
                Err(TrySendError::Disconnected(rejected)) => {
                    // ordering: undo of the optimistic increment above.
                    self.depth.fetch_sub(1, Ordering::Relaxed);
                    // ordering: monotonic stat counter.
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    return Err(PushError::Disconnected(rejected));
                }
            }
        }
    }

    /// Jobs currently queued (and, transiently, mid-push). An upper
    /// bound on true occupancy; never negative.
    pub fn depth(&self) -> usize {
        // ordering: stat gauge read, no synchronization implied.
        self.depth.load(Ordering::Relaxed)
    }

    /// Push attempts rejected so far (queue full or worker gone).
    pub fn dropped(&self) -> u64 {
        // ordering: stat counter read, no synchronization implied.
        self.dropped.load(Ordering::Relaxed)
    }

    /// Jobs accepted onto the queue so far.
    pub fn enqueued(&self) -> u64 {
        // ordering: stat counter read, no synchronization implied.
        self.enqueued.load(Ordering::Relaxed)
    }

    /// A read-only handle to this queue's gauges that outlives the
    /// sender — stats snapshots stay readable after shutdown drops the
    /// sending side.
    pub fn gauges(&self) -> ShardGauges {
        ShardGauges {
            depth: Arc::clone(&self.depth),
            dropped: Arc::clone(&self.dropped),
            enqueued: Arc::clone(&self.enqueued),
            dequeued: Arc::clone(&self.dequeued),
        }
    }
}

/// Read-only view of one shard queue's accounting: depth gauge, drop
/// counter, and the enqueued/dequeued conservation pair. Cloneable so
/// the engine can hand copies to render-time telemetry callbacks.
#[derive(Debug, Clone)]
pub struct ShardGauges {
    depth: Arc<AtomicUsize>,
    dropped: Arc<AtomicU64>,
    enqueued: Arc<AtomicU64>,
    dequeued: Arc<AtomicU64>,
}

impl ShardGauges {
    /// Jobs currently queued. See [`ShardSender::depth`].
    pub fn depth(&self) -> usize {
        // ordering: stat gauge read, no synchronization implied.
        self.depth.load(Ordering::Relaxed)
    }

    /// Push attempts rejected so far. See [`ShardSender::dropped`].
    pub fn dropped(&self) -> u64 {
        // ordering: stat counter read, no synchronization implied.
        self.dropped.load(Ordering::Relaxed)
    }

    /// Jobs accepted onto the queue so far.
    pub fn enqueued(&self) -> u64 {
        // ordering: stat counter read, no synchronization implied.
        self.enqueued.load(Ordering::Relaxed)
    }

    /// Jobs handed to the worker so far. Once every sender is dropped
    /// and the queue drained, `enqueued() == dequeued()` and
    /// `depth() == 0` — the conservation invariant the engine's
    /// shutdown property test asserts.
    pub fn dequeued(&self) -> u64 {
        // ordering: stat counter read, no synchronization implied.
        self.dequeued.load(Ordering::Relaxed)
    }
}

impl<T> ShardReceiver<T> {
    /// Blocks for the next job; `None` once every sender is dropped
    /// and the queue is drained — the worker's shutdown signal.
    pub fn recv(&self) -> Option<T> {
        let item = self.rx.recv().ok()?;
        // ordering: gauge decrement after the channel handed the job
        // over; the channel itself orders the payload.
        self.depth.fetch_sub(1, Ordering::Relaxed);
        // ordering: monotonic conservation counter, paired with the
        // sender's enqueued increment; nothing is published through it.
        self.dequeued.fetch_add(1, Ordering::Relaxed);
        Some(item)
    }

    /// The shared depth gauge, read from the consuming side. Useful for
    /// asserting a drained queue after every sender is gone.
    pub fn depth(&self) -> usize {
        // ordering: stat gauge read, no synchronization implied.
        self.depth.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_until_capacity_then_drops() {
        let (tx, rx) = shard_queue::<u32>(2);
        assert!(tx.try_push(1).is_ok());
        assert!(tx.try_push(2).is_ok());
        // A full queue hands the job back, typed.
        assert_eq!(tx.try_push(3), Err(PushError::Full(3)));
        assert_eq!(tx.depth(), 2);
        assert_eq!(tx.dropped(), 1);
        assert_eq!(tx.enqueued(), 2);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(tx.depth(), 1);
        assert!(tx.try_push(4).is_ok());
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), Some(4));
        let gauges = tx.gauges();
        drop(tx);
        assert_eq!(rx.recv(), None);
        // Conservation at shutdown: everything accepted was handed
        // over, and the depth gauge settled back to zero.
        assert_eq!(gauges.enqueued(), 3);
        assert_eq!(gauges.dequeued(), 3);
        assert_eq!(gauges.depth(), 0);
        assert_eq!(gauges.dropped(), 1);
    }

    #[test]
    fn push_blocking_waits_for_room_and_pumps() {
        let (tx, mut rx) = shard_queue::<u32>(1);
        assert!(tx.try_push(1).is_ok());
        let mut pumped = false;
        std::thread::scope(|s| {
            let rx = &mut rx;
            s.spawn(move || {
                // Give the blocking push a moment to start spinning.
                std::thread::sleep(std::time::Duration::from_millis(10));
                assert_eq!(rx.recv(), Some(1));
            });
            assert!(tx.push_blocking(2, || pumped = true).is_ok());
        });
        assert!(pumped);
        assert_eq!(rx.recv(), Some(2));
    }

    #[test]
    fn disconnected_receiver_returns_typed_error_and_counts_a_drop() {
        let (tx, rx) = shard_queue::<u32>(1);
        drop(rx);
        assert_eq!(tx.try_push(1), Err(PushError::Disconnected(1)));
        assert_eq!(tx.push_blocking(2, || {}), Err(PushError::Disconnected(2)));
        assert!(tx.try_push(3).unwrap_err().is_disconnected());
        assert_eq!(tx.try_push(4).unwrap_err().into_inner(), 4);
        assert_eq!(tx.dropped(), 4);
        assert_eq!(tx.depth(), 0);
        // Conservation holds through the rejections: nothing was
        // accepted, so nothing is owed.
        assert_eq!(tx.enqueued(), 0);
    }
}
