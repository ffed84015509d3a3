//! Lock-free counter and gauge primitives.
//!
//! A [`Counter`] is one relaxed atomic: every increment is a single
//! `fetch_add` — no allocation, no locks, no fences. A read racing an
//! increment may or may not observe it, which is the usual (and
//! sufficient) contract for monitoring data. The monitor runs on one
//! thread, and its one per-packet counter is published in batches, so
//! no writers contend for a counter's cache line.
//!
//! A [`Gauge`] is a single signed atomic with exact `set` semantics.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing counter.
///
/// The hot path ([`inc`](Counter::inc)/[`add`](Counter::add)) is a
/// single relaxed atomic add with zero allocation.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // ordering: monotonic stat counter; no memory is published
        // through it.
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The counter's current value. Reads racing writers may miss
    /// in-flight increments; the value is always a value the counter
    /// actually passed through.
    #[must_use]
    pub fn get(&self) -> u64 {
        // ordering: stat read, no synchronization implied.
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed value with exact `set` semantics.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A fresh gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Adds `n` (which may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        // ordering: stat gauge; no memory is published through it.
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        // ordering: stat gauge; no memory is published through it.
        self.value.store(v, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        // ordering: stat gauge read, no synchronization implied.
        self.value.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_sums_across_threads() {
        let counter = Arc::new(Counter::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(counter.get(), 80_000);
    }

    #[test]
    fn counter_add_and_get() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.add(5);
        c.inc();
        assert_eq!(c.get(), 6);
    }

    #[test]
    fn gauge_tracks_set_add_dec() {
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        g.dec();
        g.inc();
        assert_eq!(g.get(), 7);
    }
}
