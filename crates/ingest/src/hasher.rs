//! The demux's keyed tuple hasher: one folded multiply per pair of
//! words, after the construction of foldhash and of aHash's fallback.
//!
//! A pair of words `(a, b)` is absorbed as
//! `acc = fold((a ^ acc) × (b ^ k₁))`, where the 64×64→128 product is
//! folded to 64 bits by xoring its halves and `acc` starts at `k₀`.
//! A lone `u64` waits for its partner and is padded with zero at
//! [`Hasher::finish`], which then folds `acc` once more by a constant.
//! [`FiveTuple`](crate::FiveTuple) writes an IPv4 pair as two `u64`s,
//! so it costs two multiplies, and a v6 pair four. The threat model is
//! in the demux module's docs.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hasher};

/// Builds [`TupleHasher`]s that share one random 128-bit key.
#[derive(Clone)]
pub(crate) struct BuildTupleHasher {
    key: [u64; 2],
}

impl Default for BuildTupleHasher {
    /// A fresh key: std steps `RandomState`'s keys per instance, so
    /// every demux hashes differently.
    fn default() -> Self {
        let random = RandomState::new();
        BuildTupleHasher {
            key: [random.hash_one(0u64), random.hash_one(1u64)],
        }
    }
}

impl BuildHasher for BuildTupleHasher {
    type Hasher = TupleHasher;

    fn build_hasher(&self) -> TupleHasher {
        TupleHasher {
            acc: self.key[0],
            pending: None,
            fold_key: self.key[1],
        }
    }
}

impl fmt::Debug for BuildTupleHasher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BuildTupleHasher").finish_non_exhaustive()
    }
}

/// One keyed folded-multiply hash in progress; see the module docs.
pub(crate) struct TupleHasher {
    /// The pairs absorbed so far.
    acc: u64,
    /// A `u64` waiting for its partner.
    pending: Option<u64>,
    /// `k₁`, xored into every multiplier.
    fold_key: u64,
}

/// PCG's odd 64-bit multiplier. Folding the result once more by it
/// spreads the low bits, which pick the bucket: one fold alone leaves
/// them clustered for some keys when tuples differ in one field only.
const FINISH: u64 = 0x5851_f42d_4c95_7f2d;

/// The 128-bit product of `a` and `b`, folded to 64 bits by xoring
/// its halves.
fn folded_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    product as u64 ^ (product >> 64) as u64
}

impl TupleHasher {
    fn absorb(&mut self, a: u64, b: u64) {
        self.acc = folded_multiply(a ^ self.acc, b ^ self.fold_key);
    }
}

impl Hasher for TupleHasher {
    /// Any other caller: the bytes as little-endian words, the last one
    /// zero-padded, then the length.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let word = chunk.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
            self.write_u64(word);
        }
        self.write_u64(bytes.len() as u64);
    }

    fn write_u64(&mut self, n: u64) {
        match self.pending.take() {
            Some(a) => self.absorb(a, n),
            None => self.pending = Some(n),
        }
    }

    fn write_u128(&mut self, n: u128) {
        self.absorb(n as u64, (n >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        let acc = match self.pending {
            Some(a) => folded_multiply(a ^ self.acc, self.fold_key),
            None => self.acc,
        };
        folded_multiply(acc, FINISH)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{FiveTuple, Transport};
    use std::collections::BTreeSet;
    use std::net::IpAddr;

    fn v4(last_octet: u8, src_port: u16) -> FiveTuple {
        FiveTuple::udp_v4([10, 0, 0, 1], src_port, [192, 0, 2, last_octet], 53)
    }

    fn v6(src: &str, dst: &str) -> FiveTuple {
        FiveTuple {
            src: src.parse().unwrap(),
            dst: dst.parse().unwrap(),
            src_port: 40_000,
            dst_port: 22,
            transport: Transport::Tcp,
        }
    }

    #[test]
    fn two_builders_key_differently() {
        let (a, b) = (BuildTupleHasher::default(), BuildTupleHasher::default());
        let tuples: Vec<FiveTuple> = (0..64).map(|k| v4(k, 1_000)).collect();
        assert!(
            tuples.iter().any(|t| a.hash_one(t) != b.hash_one(t)),
            "two demuxes must not share a key"
        );
        assert!(format!("{a:?}").starts_with("BuildTupleHasher"));
        assert!(!format!("{a:?}").contains(&a.key[0].to_string()));
    }

    #[test]
    fn one_varying_field_spreads_over_the_low_bits() {
        // The table takes its bucket from the low bits: tuples that
        // differ in one field only must reach most of 256 buckets. A
        // port takes 4,096 values here, a last octet all of its 256.
        let build = BuildTupleHasher::default();
        let spread = |tuples: &mut dyn Iterator<Item = FiveTuple>| {
            tuples
                .map(|t| build.hash_one(t) & 0xff)
                .collect::<BTreeSet<u64>>()
                .len()
        };
        let src_ports = spread(&mut (0..4096).map(|p| v4(1, 40_000 + p)));
        assert!(src_ports > 128, "src port: {src_ports} buckets");
        let dst_ports = spread(&mut (0..4096).map(|p| FiveTuple {
            dst_port: p,
            ..v4(1, 1_000)
        }));
        assert!(dst_ports > 128, "dst port: {dst_ports} buckets");
        let dst_octets = spread(&mut (0..=255).map(|o| v4(o, 1_000)));
        assert!(dst_octets > 128, "dst octet: {dst_octets} buckets");
        let src_octets = spread(
            &mut (0..=255).map(|o| FiveTuple::udp_v4([10, 0, 0, o], 1_000, [192, 0, 2, 1], 53)),
        );
        assert!(src_octets > 128, "src octet: {src_octets} buckets");
    }

    #[test]
    fn v6_tuples_hash_through_write_u128() {
        let build = BuildTupleHasher::default();
        let tuple = v6("2001:db8::1", "2001:db8::2");
        let bits = |ip: IpAddr| match ip {
            IpAddr::V6(v6) => v6.to_bits(),
            IpAddr::V4(v4) => u128::from(v4.to_bits()),
        };
        let mut by_hand = build.build_hasher();
        by_hand.write_u128(bits(tuple.src));
        by_hand.write_u128(bits(tuple.dst));
        by_hand.write_u64(u64::from(tuple.src_port) << 32 | u64::from(tuple.dst_port) << 16 | 6);
        assert_eq!(build.hash_one(tuple), by_hand.finish());
        // Addresses that differ only in their high word hash apart.
        assert_ne!(
            build.hash_one(v6("2001:db8::1", "2001:db8::2")),
            build.hash_one(v6("2001:db9::1", "2001:db8::2"))
        );
    }

    #[test]
    fn a_v4_tuple_and_its_v4_mapped_twin_hash_apart() {
        let build = BuildTupleHasher::default();
        let tuple = v4(9, 1_000);
        let mapped = |ip: IpAddr| match ip {
            IpAddr::V4(v4) => IpAddr::V6(v4.to_ipv6_mapped()),
            v6 => v6,
        };
        let twin = FiveTuple {
            src: mapped(tuple.src),
            dst: mapped(tuple.dst),
            ..tuple
        };
        assert_ne!(tuple, twin);
        assert_ne!(build.hash_one(tuple), build.hash_one(twin));
    }

    #[test]
    fn byte_writes_are_length_aware() {
        let build = BuildTupleHasher::default();
        let hash = |bytes: &[u8]| {
            let mut h = build.build_hasher();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b"stepstone"), hash(b"stepstone"));
        assert_ne!(hash(&[1]), hash(&[1, 0]));
        assert_ne!(hash(&[]), hash(&[0]));
        assert_ne!(hash(&[0; 8]), hash(&[0; 16]));
        // std's `str` hash goes through `write`, then `write_u8`.
        assert_eq!(build.hash_one("a"), build.hash_one("a"));
        assert_ne!(build.hash_one("ab"), build.hash_one("ba"));
    }
}
