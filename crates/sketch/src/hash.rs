//! Deterministic hashing for sketches, shuffle partitioning and maps.
//!
//! `std::collections::HashMap`'s default hasher is randomly seeded per
//! process; sketches (HyperLogLog) and the engine's hash partitioner need
//! run-to-run determinism so the pipeline is reproducible given a seed.
//! This module provides an FxHash-style 64-bit hasher whose `finish`
//! applies a splitmix64 finalizer, and [`hash64`] over it.
//!
//! `finish` mixes because FxHash's low bits see only its inputs' low
//! bits, std's table picks a bucket by the hash's low bits, and keys
//! such as a resolution-6 cell index have their low 27 bits fixed.

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The multiplicative constant of FxHash (Firefox's hash).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, deterministic, non-cryptographic hasher (FxHash).
#[derive(Default, Clone)]
pub struct FxHasher {
    state: u64,
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.state)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.add(n as u64);
    }
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

/// `BuildHasher` for deterministic hash maps.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` with the deterministic hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` with the deterministic hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// splitmix64 finalizer: a strong avalanche over a 64-bit word, applied
/// to FxHash's state in [`FxHasher::finish`].
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hashes any `Hash` value to a well-mixed deterministic 64-bit digest.
#[inline]
pub fn hash64<T: Hash>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_calls() {
        assert_eq!(hash64(&42u64), hash64(&42u64));
        assert_eq!(hash64(&"abc"), hash64(&"abc"));
        assert_ne!(hash64(&42u64), hash64(&43u64));
    }

    #[test]
    fn mix64_bijective_sample() {
        // splitmix64's finalizer is a bijection; sample for collisions.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i)));
        }
    }

    #[test]
    fn bits_are_balanced() {
        // Over sequential keys the mixed hash must have ~50% ones per bit.
        let n = 4096;
        let mut ones = [0u32; 64];
        for i in 0..n {
            let h = hash64(&(i as u64));
            for (b, o) in ones.iter_mut().enumerate() {
                *o += ((h >> b) & 1) as u32;
            }
        }
        for (b, o) in ones.iter().enumerate() {
            let frac = *o as f64 / n as f64;
            assert!((0.42..0.58).contains(&frac), "bit {b}: {frac}");
        }
    }

    /// `hash64`'s output is stored, so its bits are pinned: these are
    /// the values the build has always written.
    #[test]
    fn hash64_is_pinned() {
        assert_eq!(hash64(&0u64), 0xe220_a839_7b1d_cdaf);
        assert_eq!(hash64(&42u64), 0x1fbb_8ac5_2a8b_7f5e);
        assert_eq!(hash64(&501u32), 0x5946_74b7_b518_e4bd);
        assert_eq!(hash64(&"abc"), 0xf667_2d5a_4bbd_0825);
        assert_eq!(
            hash64(&(7u64, 3u16, 0x0861_8c8f_ffff_ffffu64)),
            0x8997_e5ef_388c_f8ca
        );
    }

    /// Keys shaped like resolution-6 cell indexes — the low 27 bits all
    /// ones, the digits in bits 27..45 — spread over the bits a table
    /// holding them picks buckets by: 4 096 keys fill 8 192 buckets, so
    /// 13 bits, where a uniform hash gives ~3 220 distinct values.
    /// FxHash's state unmixed gives them all one.
    #[test]
    fn map_hashes_spread_keys_that_differ_in_high_bits() {
        use std::hash::BuildHasher;
        let build = FxBuildHasher::default();
        let low: FxHashSet<u64> = (0..4_096u64)
            .map(|i| build.hash_one((((i * 0x9e37) % (1 << 18)) << 27) | 0x7ff_ffff) & 0x1fff)
            .collect();
        assert!(
            low.len() >= 3_000,
            "{} distinct low-13-bit hashes",
            low.len()
        );
    }

    #[test]
    fn fx_map_usable() {
        let mut m: FxHashMap<&str, i32> = FxHashMap::default();
        m.insert("a", 1);
        assert_eq!(m.get("a"), Some(&1));
    }
}
