//! Distinct counting: HyperLogLog with an exact small-set front end.
//!
//! Table 3 stores the distinct number of ships and trips per cell. Most
//! cells see few distinct vessels (open-ocean cells), so [`Distinct`] keeps
//! an exact set until a threshold and only then promotes to a
//! [`HyperLogLog`] — the same sparse→dense idea as Spark's HLL++
//! implementation, without the bias-correction tables.

use crate::counts::Spill;
use crate::hash::hash64;
use crate::MergeSketch;
use std::hash::Hash;

/// Plain HyperLogLog (Flajolet et al. 2007) with `2^p` registers and
/// linear-counting small-range correction.
#[derive(Clone, Debug, PartialEq)]
pub struct HyperLogLog {
    p: u8,
    registers: Box<[u8]>,
}

impl HyperLogLog {
    /// Creates a sketch with `2^p` registers, `4 ≤ p ≤ 16`.
    /// Standard error ≈ `1.04 / √(2^p)` (p = 12 → ~1.6 %).
    ///
    /// # Panics
    /// When `p` is outside `4..=16`.
    pub fn new(p: u8) -> Self {
        assert!((4..=16).contains(&p), "precision {p} out of range 4..=16");
        Self {
            p,
            registers: vec![0; 1 << p].into_boxed_slice(),
        }
    }

    /// Precision parameter.
    pub fn precision(&self) -> u8 {
        self.p
    }

    /// Raw register array (serialization support).
    pub fn registers(&self) -> &[u8] {
        &self.registers
    }

    /// Reconstructs a sketch from raw registers (deserialization).
    ///
    /// # Panics
    /// When the register count does not match `2^p`.
    pub fn from_registers(p: u8, registers: Vec<u8>) -> HyperLogLog {
        assert!((4..=16).contains(&p), "precision {p} out of range 4..=16");
        assert_eq!(registers.len(), 1 << p, "register count mismatch");
        HyperLogLog {
            p,
            registers: registers.into_boxed_slice(),
        }
    }

    /// Adds a pre-hashed 64-bit value.
    #[inline]
    pub fn add_hash(&mut self, h: u64) {
        let idx = (h >> (64 - self.p)) as usize;
        let rest = h << self.p;
        // Rank: position of the first 1-bit in the remaining 64-p bits.
        let rank = (rest.leading_zeros() as u8).min(64 - self.p) + 1;
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Adds a hashable value.
    #[inline]
    pub fn add<T: Hash>(&mut self, value: &T) {
        self.add_hash(hash64(value));
    }

    /// Estimated number of distinct values.
    pub fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        };
        let sum: f64 = self.registers.iter().map(|&r| 2f64.powi(-(r as i32))).sum();
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m {
            // Small-range correction: linear counting on empty registers.
            let zeros = self.registers.iter().filter(|&&r| r == 0).count();
            if zeros > 0 {
                return m * (m / zeros as f64).ln();
            }
        }
        raw
    }
}

impl MergeSketch for HyperLogLog {
    /// # Panics
    /// When precisions differ.
    fn merge(&mut self, other: &Self) {
        assert_eq!(self.p, other.p, "HLL precision mismatch");
        for (a, b) in self.registers.iter_mut().zip(&other.registers) {
            *a = (*a).max(*b);
        }
    }
}

/// Default promotion threshold for [`Distinct`]: sets smaller than this are
/// exact.
pub const DEFAULT_EXACT_LIMIT: usize = 256;

/// Default HLL precision used after promotion.
pub const DEFAULT_HLL_PRECISION: u8 = 12;

/// Hashes held inline by a [`SmallSet`] before it moves to the heap:
/// three cost the bytes of two (the tag shares a word with the length),
/// and on polbench's seed-1 build 98 % of the counters hold three or
/// fewer.
pub(crate) const SMALL_INLINE: usize = 3;

/// A sorted set of hashes for [`Distinct`]'s exact phase: the first
/// `SMALL_INLINE` live inline (no heap), past that all of them on the
/// heap. Most inventory cells see only a handful of distinct ships and
/// trips, so the common case allocates nothing; the hashes ascend, so a
/// merge is one walk of both and an encoder needs no sort.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SmallSet {
    hashes: Spill<u64, SMALL_INLINE>,
}

impl SmallSet {
    /// An empty set.
    pub fn new() -> SmallSet {
        SmallSet::default()
    }

    /// Whether `h` is in the set.
    pub fn contains(&self, h: u64) -> bool {
        self.hashes.as_slice().binary_search(&h).is_ok()
    }

    /// Inserts `h`; returns `true` when it was not present.
    pub fn insert(&mut self, h: u64) -> bool {
        match self.hashes.as_slice().binary_search(&h) {
            Ok(_) => false,
            Err(at) => {
                self.hashes.insert(at, h);
                true
            }
        }
    }

    /// Adds every hash of `other`.
    fn merge(&mut self, other: &SmallSet) {
        self.hashes
            .merge_sorted(other.hashes.as_slice(), |&h| h, |_, _| {});
    }

    /// Number of distinct hashes.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the hashes live on the heap.
    pub fn is_spilled(&self) -> bool {
        self.hashes.is_spilled()
    }

    /// Iterates over the hashes in ascending order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.hashes.as_slice().iter().copied()
    }
}

impl FromIterator<u64> for SmallSet {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> SmallSet {
        let mut s = SmallSet::new();
        for h in iter {
            s.insert(h);
        }
        s
    }
}

/// Exact-until-promoted distinct counter over pre-hashed identities.
///
/// Stores 64-bit hashes, not the values, so the memory bound is crisp and
/// the type is `'static` regardless of what is being counted.
#[derive(Clone, Debug, PartialEq)]
pub enum Distinct {
    /// Exact phase: the set of hashes seen so far.
    Exact(SmallSet),
    /// Approximate phase after exceeding the exact limit.
    Approx(HyperLogLog),
}

impl Default for Distinct {
    fn default() -> Self {
        Self::new()
    }
}

impl Distinct {
    /// A fresh, exact counter.
    pub fn new() -> Self {
        Distinct::Exact(SmallSet::new())
    }

    /// Observes a value.
    pub fn add<T: Hash>(&mut self, value: &T) {
        self.add_hash(hash64(value));
    }

    /// Observes a pre-hashed value.
    pub fn add_hash(&mut self, h: u64) {
        match self {
            Distinct::Exact(set) => {
                set.insert(h);
                if set.len() > DEFAULT_EXACT_LIMIT {
                    let mut hll = HyperLogLog::new(DEFAULT_HLL_PRECISION);
                    for v in set.iter() {
                        hll.add_hash(v);
                    }
                    *self = Distinct::Approx(hll);
                }
            }
            Distinct::Approx(hll) => hll.add_hash(h),
        }
    }

    /// Estimated distinct count (exact while in the exact phase).
    pub fn estimate(&self) -> u64 {
        match self {
            Distinct::Exact(set) => set.len() as u64,
            Distinct::Approx(hll) => hll.estimate().round() as u64,
        }
    }

    /// Whether the counter is still exact.
    pub fn is_exact(&self) -> bool {
        matches!(self, Distinct::Exact(_))
    }

    /// Whether the counter's state lives on the heap: an exact set past
    /// its inline hashes, or the HLL registers.
    pub fn is_spilled(&self) -> bool {
        match self {
            Distinct::Exact(set) => set.is_spilled(),
            Distinct::Approx(_) => true,
        }
    }
}

impl MergeSketch for Distinct {
    fn merge(&mut self, other: &Self) {
        match (&mut *self, other) {
            (Distinct::Exact(a), Distinct::Exact(b)) => {
                a.merge(b);
                if a.len() > DEFAULT_EXACT_LIMIT {
                    let mut hll = HyperLogLog::new(DEFAULT_HLL_PRECISION);
                    for v in a.iter() {
                        hll.add_hash(v);
                    }
                    *self = Distinct::Approx(hll);
                }
            }
            (Distinct::Exact(a), Distinct::Approx(b)) => {
                let mut hll = b.clone();
                for v in a.iter() {
                    hll.add_hash(v);
                }
                *self = Distinct::Approx(hll);
            }
            (Distinct::Approx(a), Distinct::Exact(b)) => {
                for v in b.iter() {
                    a.add_hash(v);
                }
            }
            (Distinct::Approx(a), Distinct::Approx(b)) => a.merge(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three hashes inline and the tag; the HLL phase (its registers boxed)
    /// fits the same bytes. A `CellStats` holds two.
    #[test]
    fn a_distinct_counter_holds_three_hashes_in_32_bytes() {
        assert_eq!(std::mem::size_of::<Distinct>(), 32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hll_precision_bounds() {
        let _ = HyperLogLog::new(3);
    }

    #[test]
    fn hll_empty_estimates_zero() {
        let h = HyperLogLog::new(12);
        assert_eq!(h.estimate(), 0.0);
    }

    #[test]
    fn hll_accuracy_within_error_bound() {
        for &n in &[100u64, 1_000, 50_000] {
            let mut h = HyperLogLog::new(12);
            for i in 0..n {
                h.add(&i);
            }
            let est = h.estimate();
            let err = (est - n as f64).abs() / n as f64;
            // 1.04/sqrt(4096) ≈ 1.6%; allow 4 sigma.
            assert!(err < 0.065, "n={n} est={est} err={err}");
        }
    }

    #[test]
    fn hll_duplicates_do_not_inflate() {
        let mut h = HyperLogLog::new(12);
        for _ in 0..10_000 {
            h.add(&"same");
        }
        assert!(h.estimate() < 2.0);
    }

    #[test]
    fn hll_merge_equals_union() {
        let mut a = HyperLogLog::new(10);
        let mut b = HyperLogLog::new(10);
        let mut u = HyperLogLog::new(10);
        for i in 0..3000u64 {
            a.add(&i);
            u.add(&i);
        }
        for i in 2000..6000u64 {
            b.add(&i);
            u.add(&i);
        }
        a.merge(&b);
        assert_eq!(a, u, "register-wise max must equal union sketch");
    }

    #[test]
    fn small_set_spills_past_inline_capacity() {
        let mut s = SmallSet::new();
        for h in 0..40u64 {
            assert!(s.insert(h), "first insert of {h}");
        }
        for h in 0..40u64 {
            assert!(!s.insert(h), "duplicate insert of {h}");
            assert!(s.contains(h));
        }
        assert_eq!(s.len(), 40);
        let mut all: Vec<u64> = s.iter().collect();
        all.sort_unstable();
        assert_eq!(all, (0..40u64).collect::<Vec<_>>());
        // Set equality ignores the inline/spill storage split.
        let rev: SmallSet = (0..40u64).rev().collect();
        assert_eq!(s, rev);
        assert_ne!(s, SmallSet::new());
    }

    #[test]
    fn distinct_exact_phase() {
        let mut d = Distinct::new();
        for i in 0..100u32 {
            d.add(&i);
            d.add(&i); // duplicates
        }
        assert!(d.is_exact());
        assert_eq!(d.estimate(), 100);
    }

    #[test]
    fn distinct_promotes_and_stays_accurate() {
        let mut d = Distinct::new();
        for i in 0..5_000u32 {
            d.add(&i);
        }
        assert!(!d.is_exact());
        let est = d.estimate() as f64;
        assert!((est - 5_000.0).abs() / 5_000.0 < 0.065, "est {est}");
    }

    #[test]
    fn distinct_merge_all_phase_combinations() {
        let build = |range: std::ops::Range<u32>| {
            let mut d = Distinct::new();
            for i in range {
                d.add(&i);
            }
            d
        };
        // exact + exact staying exact
        let mut a = build(0..50);
        a.merge(&build(25..75));
        assert!(a.is_exact());
        assert_eq!(a.estimate(), 75);
        // exact + exact promoting
        let mut a = build(0..200);
        a.merge(&build(150..400));
        assert_eq!(a.is_exact(), a.estimate() <= DEFAULT_EXACT_LIMIT as u64);
        let est = a.estimate() as f64;
        assert!((est - 400.0).abs() / 400.0 < 0.07, "est {est}");
        // exact + approx
        let mut a = build(0..100);
        a.merge(&build(0..2000));
        assert!((a.estimate() as f64 - 2000.0).abs() / 2000.0 < 0.07);
        // approx + exact
        let mut a = build(0..2000);
        a.merge(&build(1500..2100));
        assert!((a.estimate() as f64 - 2100.0).abs() / 2100.0 < 0.07);
        // approx + approx
        let mut a = build(0..2000);
        a.merge(&build(1000..3000));
        assert!((a.estimate() as f64 - 3000.0).abs() / 3000.0 < 0.07);
    }
}
