//! Consistent-hash ring mapping flow ids onto worker slots.
//!
//! Classic consistent hashing over a `BTreeSet<(u64, u32)>`: each
//! worker contributes `VNODES` (64) points keyed by a splitmix64 hash of
//! `(worker, replica)`, a key is owned by the first point clockwise
//! from its own hash. Keying the set by the `(point, worker)` *pair*
//! makes removal exact even if two workers ever collide on a point.
//!
//! The property the cluster leans on — and the one the ring proptests
//! pin down — is **minimal movement**: when a worker dies, every key it
//! did not own keeps its owner, so only ~1/N of the flows rehash onto
//! the survivors.

use std::collections::BTreeSet;

/// Virtual nodes per worker. 64 points keeps the per-worker share
/// within a few percent of 1/N for the worker counts we run (≤ 16).
const VNODES: u32 = 64;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A consistent-hash ring of worker slots.
#[derive(Debug, Clone, Default)]
pub struct HashRing {
    points: BTreeSet<(u64, u32)>,
    workers: BTreeSet<u32>,
}

impl HashRing {
    /// An empty ring.
    pub fn new() -> Self {
        HashRing::default()
    }

    /// A ring pre-populated with workers `0..n`.
    pub fn with_workers(n: u32) -> Self {
        let mut ring = HashRing::new();
        for w in 0..n {
            ring.add(w);
        }
        ring
    }

    fn point(worker: u32, replica: u32) -> u64 {
        // The tag domain-separates point placement from key placement:
        // without it, `point(0, r)` and `owner(r)` hash the same input,
        // so every small sequential key (flow ids start at 0) would
        // land exactly on one of worker 0's points.
        const POINT_TAG: u64 = 0x52_49_4E_47_00_00_00_00; // "RING"
        splitmix64(POINT_TAG ^ ((worker as u64) << 32) ^ replica as u64)
    }

    /// Adds a worker's virtual nodes. Idempotent.
    pub fn add(&mut self, worker: u32) {
        if self.workers.insert(worker) {
            for replica in 0..VNODES {
                self.points.insert((Self::point(worker, replica), worker));
            }
        }
    }

    /// Removes a worker's virtual nodes. Idempotent.
    pub fn remove(&mut self, worker: u32) {
        if self.workers.remove(&worker) {
            for replica in 0..VNODES {
                self.points.remove(&(Self::point(worker, replica), worker));
            }
        }
    }

    /// Whether the worker is currently on the ring.
    pub fn contains(&self, worker: u32) -> bool {
        self.workers.contains(&worker)
    }

    /// The workers currently on the ring, ascending.
    pub fn workers(&self) -> impl Iterator<Item = u32> + '_ {
        self.workers.iter().copied()
    }

    /// How many workers are on the ring.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Whether the ring has no workers.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// The worker owning `key`: the first ring point clockwise from the
    /// key's hash, wrapping to the first point. `None` on an empty ring.
    pub fn owner(&self, key: u64) -> Option<u32> {
        let place = splitmix64(key);
        self.points
            .range((place, 0)..)
            .next()
            .or_else(|| self.points.iter().next())
            .map(|&(_, worker)| worker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ring_owns_nothing() {
        assert_eq!(HashRing::new().owner(7), None);
        assert!(HashRing::new().is_empty());
    }

    #[test]
    fn single_worker_owns_everything() {
        let ring = HashRing::with_workers(1);
        for key in 0..100 {
            assert_eq!(ring.owner(key), Some(0));
        }
    }

    #[test]
    fn add_remove_is_idempotent() {
        let mut ring = HashRing::with_workers(3);
        let before = ring.points.len();
        ring.add(1);
        assert_eq!(ring.points.len(), before);
        ring.remove(1);
        ring.remove(1);
        assert_eq!(ring.points.len(), before - VNODES as usize);
        assert!(!ring.contains(1));
        assert_eq!(ring.workers().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn removal_moves_only_the_dead_workers_keys() {
        let mut ring = HashRing::with_workers(4);
        let owners: Vec<(u64, u32)> = (0..2000).map(|k| (k, ring.owner(k).unwrap())).collect();
        ring.remove(2);
        for (key, old) in owners {
            let new = ring.owner(key).unwrap();
            if old != 2 {
                assert_eq!(new, old, "key {key} moved though owner {old} survived");
            } else {
                assert_ne!(new, 2, "key {key} still owned by the removed worker");
            }
        }
    }

    #[test]
    fn small_sequential_keys_spread_across_workers() {
        // Flow ids start at 0 and count up; a hash-domain collision
        // between keys and vnode points once sent every such key to
        // worker 0. Sixteen consecutive keys on a 3-worker ring landing
        // on one worker by chance is a ~3e-8 event.
        let ring = HashRing::with_workers(3);
        let owners: BTreeSet<u32> = (0u64..16).map(|k| ring.owner(k).unwrap()).collect();
        assert!(
            owners.len() > 1,
            "keys 0..16 all landed on worker {:?}",
            owners
        );
    }

    #[test]
    fn shares_are_roughly_balanced() {
        let ring = HashRing::with_workers(3);
        let mut counts = [0usize; 3];
        for key in 0..30_000u64 {
            counts[ring.owner(key).unwrap() as usize] += 1;
        }
        for (w, &c) in counts.iter().enumerate() {
            // Each worker should hold 1/3 ± half of its fair share.
            assert!(
                (5_000..=15_000).contains(&c),
                "worker {w} owns {c} of 30000"
            );
        }
    }
}
