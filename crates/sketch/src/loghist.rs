//! A log-bucketed quantile summary in the style of DDSketch (Masson,
//! Rim & Lee, VLDB 2019): the "Perc." entries of Table 3.
//!
//! A value's bucket is the ceiling of its (approximate) base-2 logarithm
//! times `m`, the buckets per power of two. Every value in a bucket is
//! within a factor `γ` of every other, so the bucket's representative
//! answers any quantile that falls in it within relative accuracy
//! `α = (γ − 1)/(γ + 1)` of the exact order statistic. The summary is a
//! sorted key → count map: a merge adds counts, so — unlike a
//! Greenwald–Khanna sketch, whose compression decisions follow the
//! order of inserts and merges — its state is a function of the value
//! multiset and `m` alone.
//!
//! The logarithm is DDSketch's cubically interpolated one: the binary
//! exponent plus a cubic in the significand, which is monotone,
//! continuous across powers of two and computed from the bits with
//! three multiplies, so a key never depends on a platform's `log`.
//! Its slope in `ln x` is at least `10/7` (at every power of two), so a
//! bucket spans at most `0.7/m` in `ln x` and `α = tanh(0.35/m)`.

use crate::counts::SortedCounts;
use crate::MergeSketch;
use std::sync::OnceLock;

/// Cubic coefficients of the interpolated `log2` (DDSketch's).
const A: f64 = 6.0 / 35.0;
const B: f64 = -3.0 / 5.0;
const C: f64 = 10.0 / 7.0;

/// Half the largest width of a bucket in `ln x`, times `m`: `α =
/// tanh(HALF_WIDTH / m)`.
const HALF_WIDTH: f64 = 0.35;

/// Magnitudes below this (`2⁻¹⁰`) share the zero bucket, answered as 0:
/// below it the accuracy is absolute, not relative.
pub const MIN_MAGNITUDE: f64 = 1.0 / 1024.0;

/// `log2` of [`MIN_MAGNITUDE`].
const MIN_LOG2: i32 = -10;

/// Buckets held inline before a summary moves to the heap: on polbench's
/// seed-1 build 90 % of the speed, ETO and ATA summaries hold four or
/// fewer.
pub(crate) const INLINE_BUCKETS: usize = 4;

/// `e + P(s)` for `x = 2^e·(1 + s)`: a monotone stand-in for `log2 x`
/// that is exact at powers of two. `x` must be positive and normal.
#[inline]
fn log2_approx(x: f64) -> f64 {
    let bits = x.to_bits();
    let exponent = ((bits >> 52) & 0x7FF) as i64 - 1023;
    let s = f64::from_bits((bits & ((1 << 52) - 1)) | 0x3FF0_0000_0000_0000) - 1.0;
    ((A * s + B) * s + C) * s + exponent as f64
}

/// The inverse of [`log2_approx`] on `[1, 2)`: the `1 + s` whose
/// `P(s)` is `t ∈ [0, 1)`, solved by Newton's method from `s = t`. `P`
/// is increasing and concave on `[0, 1]` with `P(s) ≥ s`, so the first
/// step lands left of the root and the rest climb to it monotonically
/// and quadratically; six steps reach the last bits. Fixed steps and no
/// library call: the answer is the same bits everywhere. Run once per
/// bucket of an octave, for [`Mapping::value`]'s table.
fn significand_at(t: f64) -> f64 {
    let mut s = t;
    for _ in 0..6 {
        let p = ((A * s + B) * s + C) * s;
        let slope = (3.0 * A * s + 2.0 * B) * s + C;
        s -= (p - t) / slope;
    }
    1.0 + s
}

/// The bucket mapping of one accuracy: `m` buckets per power of two.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mapping {
    per_octave: u8,
}

impl Mapping {
    /// The coarsest mapping whose relative accuracy is at most `alpha`
    /// (clamped to what 1 to 255 buckets per octave give).
    pub fn for_accuracy(alpha: f64) -> Mapping {
        let m = (HALF_WIDTH / alpha.clamp(1e-6, 0.5).atanh()).ceil();
        Mapping {
            per_octave: m.clamp(1.0, 255.0) as u8,
        }
    }

    /// The mapping of `per_octave` buckets per power of two; `None` for 0.
    pub(crate) fn with_per_octave(per_octave: u8) -> Option<Mapping> {
        (per_octave > 0).then_some(Mapping { per_octave })
    }

    /// Buckets per power of two.
    pub fn per_octave(self) -> u8 {
        self.per_octave
    }

    /// The guaranteed relative accuracy `α` of a quantile.
    pub fn relative_accuracy(self) -> f64 {
        (HALF_WIDTH / f64::from(self.per_octave)).tanh()
    }

    /// Keys of magnitudes `≥ MIN_MAGNITUDE` start at `bias`, so the zero
    /// bucket is key 0 and a negative value's key is minus its
    /// magnitude's: keys sort as their values do.
    fn bias(self) -> i32 {
        1 - MIN_LOG2 * i32::from(self.per_octave)
    }

    /// The bucket key of `x`; `None` when `x` is not finite.
    #[inline]
    pub fn key(self, x: f64) -> Option<i32> {
        if !x.is_finite() {
            return None;
        }
        let magnitude = x.abs();
        if magnitude < MIN_MAGNITUDE {
            return Some(0);
        }
        let scaled = log2_approx(magnitude) * f64::from(self.per_octave);
        // `ceil` without the library call: `scaled` is within ±2¹⁹.
        let truncated = scaled as i32;
        let k = truncated + i32::from(scaled > f64::from(truncated)) + self.bias();
        Some(if x < 0.0 { -k } else { k })
    }

    /// The value a key answers with: within `α` of every value mapped to
    /// it (the harmonic mean of the bucket's bounds).
    pub fn value(self, key: i32) -> f64 {
        if key == 0 {
            return 0.0;
        }
        // The bucket spans `((k − 1)/m, k/m]` of `log2_approx`: the
        // `r`-th bucket of the octave `2^e`, where `k − 1 = e·m + r`, is
        // the `r`-th bucket of `[1, 2)` scaled by `2^e`, and so is its
        // representative.
        let lower = i64::from(key.unsigned_abs()) - i64::from(self.bias()) - 1;
        let m = i64::from(self.per_octave);
        let significand = self
            .representatives()
            .get(lower.rem_euclid(m) as usize)
            .copied()
            .unwrap_or(1.0);
        // 2^exponent from its bits; `holds` keeps a decoded key's normal.
        let exponent = lower.div_euclid(m).clamp(-1022, 1023);
        let value = significand * f64::from_bits(((exponent + 1023) as u64) << 52);
        if key < 0 {
            -value
        } else {
            value
        }
    }

    /// The representative of each of the `m` buckets of `[1, 2)`: the
    /// harmonic mean of its bounds, computed once per `m`.
    fn representatives(self) -> &'static [f64] {
        static TABLES: [OnceLock<Box<[f64]>>; 256] = [const { OnceLock::new() }; 256];
        // A `u8` indexes a 256-entry array.
        TABLES[usize::from(self.per_octave)].get_or_init(|| {
            let m = u32::from(self.per_octave);
            let bound = |r: u32| match r {
                r if r == m => 2.0,
                r => significand_at(f64::from(r) / f64::from(m)),
            };
            (0..m)
                .map(|r| {
                    let (lower, upper) = (bound(r), bound(r + 1));
                    2.0 * lower * upper / (lower + upper)
                })
                .collect()
        })
    }

    /// Whether a key is one this mapping can give a finite value.
    pub(crate) fn holds(self, key: i64) -> bool {
        let limit = i64::from(self.bias()) + 1025 * i64::from(self.per_octave);
        key.abs() <= limit
    }
}

/// The quantile query over buckets in key order: the value at rank
/// `⌊φ·(n − 1)⌋`, 0-based, of each `φ`.
pub(crate) struct Query<const N: usize> {
    mapping: Mapping,
    ranks: [f64; N],
    answers: [Option<f64>; N],
    seen: u64,
}

impl<const N: usize> Query<N> {
    /// A query over `n` values.
    pub(crate) fn new(mapping: Mapping, n: u64, phis: [f64; N]) -> Self {
        Query {
            mapping,
            ranks: phis.map(|phi| phi.clamp(0.0, 1.0) * n.saturating_sub(1) as f64),
            answers: [None; N],
            seen: 0,
        }
    }

    /// Feeds the next bucket in key order.
    pub(crate) fn push(&mut self, key: i32, count: u64) {
        self.seen += count;
        for (answer, rank) in self.answers.iter_mut().zip(self.ranks) {
            if answer.is_none() && self.seen as f64 > rank {
                *answer = Some(self.mapping.value(key));
            }
        }
    }

    pub(crate) fn finish(self) -> [Option<f64>; N] {
        self.answers
    }
}

/// Quantiles within relative accuracy `α` of the exact order statistics,
/// mergeable exactly and in any order.
#[derive(Clone, Debug, PartialEq)]
pub struct LogHistogram {
    mapping: Mapping,
    buckets: SortedCounts<i32, INLINE_BUCKETS>,
}

impl LogHistogram {
    /// An empty summary answering within relative accuracy `alpha`
    /// (see [`Mapping::for_accuracy`]).
    pub fn new(alpha: f64) -> Self {
        Self::with_mapping(Mapping::for_accuracy(alpha))
    }

    /// An empty summary over `mapping`'s buckets.
    fn with_mapping(mapping: Mapping) -> Self {
        LogHistogram {
            mapping,
            buckets: SortedCounts::default(),
        }
    }

    /// The bucket mapping.
    pub fn mapping(&self) -> Mapping {
        self.mapping
    }

    /// Adds one observation. Non-finite values are ignored.
    #[inline]
    pub fn add(&mut self, x: f64) {
        if let Some(key) = self.mapping.key(x) {
            self.add_key(key);
        }
    }

    /// Adds one observation by its bucket key under this summary's
    /// mapping ([`Mapping::key`]).
    #[inline]
    pub fn add_key(&mut self, key: i32) {
        self.buckets.add(key, 1);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.as_slice().iter().map(|b| b.1).sum()
    }

    /// Occupied buckets, ascending by key, with their counts.
    pub fn buckets(&self) -> &[(i32, u64)] {
        self.buckets.as_slice()
    }

    /// The value at quantile `phi ∈ [0, 1]` — the order statistic of
    /// 0-based rank `⌊phi·(n − 1)⌋` within relative accuracy `α`.
    /// `None` when empty.
    pub fn quantile(&self, phi: f64) -> Option<f64> {
        let [answer] = self.quantiles([phi]);
        answer
    }

    /// [`quantile`](Self::quantile) of each of `phis`, in one walk.
    pub fn quantiles<const N: usize>(&self, phis: [f64; N]) -> [Option<f64>; N] {
        let mut query = Query::new(self.mapping, self.count(), phis);
        self.buckets().iter().for_each(|&(k, c)| query.push(k, c));
        query.finish()
    }

    /// Whether the buckets live on the heap.
    pub fn is_spilled(&self) -> bool {
        self.buckets.is_spilled()
    }

    /// A summary of `buckets`, which must ascend strictly by key with no
    /// zero count (deserialization).
    pub(crate) fn from_sorted(
        mapping: Mapping,
        buckets: SortedCounts<i32, INLINE_BUCKETS>,
    ) -> LogHistogram {
        LogHistogram { mapping, buckets }
    }
}

impl MergeSketch for LogHistogram {
    /// Adds `other`'s bucket counts. An empty side takes the other's
    /// mapping. Two summaries of different mappings — which one build
    /// never makes — are merged by re-bucketing `other`'s
    /// representatives, which is neither exact nor order-free.
    fn merge(&mut self, other: &Self) {
        if other.buckets.len() == 0 {
            return;
        }
        if self.buckets.len() == 0 {
            *self = other.clone();
        } else if self.mapping == other.mapping {
            self.buckets.merge(&other.buckets);
        } else {
            for &(key, count) in other.buckets() {
                if let Some(mine) = self.mapping.key(other.mapping.value(key)) {
                    self.buckets.add(mine, count);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four `(key, count)` buckets inline, the tag and the mapping; a
    /// `CellStats` holds three.
    #[test]
    fn a_quantile_summary_holds_four_buckets_in_80_bytes() {
        assert_eq!(std::mem::size_of::<LogHistogram>(), 80);
    }

    #[test]
    fn interpolated_log_is_monotone_and_inverted() {
        let mut last = f64::NEG_INFINITY;
        for i in 0..20_000 {
            let x = MIN_MAGNITUDE * 1.0007f64.powi(i);
            let y = log2_approx(x);
            assert!(y > last, "not increasing at {x}");
            last = y;
            let back = significand_at(y - y.floor()) * 2f64.powi(y.floor() as i32);
            assert!((back - x).abs() <= 1e-12 * x, "{x} -> {y} -> {back}");
        }
        for e in -10..40 {
            assert_eq!(log2_approx(2f64.powi(e)), f64::from(e));
        }
    }

    #[test]
    fn the_slope_bound_holds() {
        // d(log2_approx)/d(ln x) = P'(s)·(1 + s) ≥ C on [0, 1).
        for i in 0..=10_000 {
            let s = f64::from(i) / 10_000.0;
            let slope = (3.0 * A * s * s + 2.0 * B * s + C) * (1.0 + s);
            assert!(slope >= C - 1e-12, "slope {slope} at {s}");
        }
    }

    #[test]
    fn every_value_is_within_alpha_of_its_bucket_value() {
        for alpha in [0.005, 0.01, 0.02, 0.05] {
            let mapping = Mapping::for_accuracy(alpha);
            let got = mapping.relative_accuracy();
            assert!(got <= alpha, "{alpha}: {got}");
            for i in 0..50_000 {
                let x = MIN_MAGNITUDE * 1.000_73f64.powi(i);
                for v in [x, -x] {
                    let key = mapping.key(v).unwrap();
                    let back = mapping.value(key);
                    assert!(
                        (back - v).abs() <= got * v.abs() * (1.0 + 1e-9),
                        "{alpha}: {v} -> {key} -> {back}"
                    );
                }
            }
        }
    }

    #[test]
    fn keys_sort_as_values_do() {
        let mapping = Mapping::for_accuracy(0.01);
        let values = [
            -1e9,
            -3.5,
            -MIN_MAGNITUDE,
            -1e-5,
            0.0,
            1e-7,
            MIN_MAGNITUDE,
            0.5,
            12.0,
            1e12,
        ];
        let keys: Vec<i32> = values.iter().map(|&v| mapping.key(v).unwrap()).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "{keys:?}");
        assert_eq!(mapping.key(1e-5), Some(0));
        assert_eq!(mapping.key(f64::NAN), None);
        assert_eq!(mapping.value(0), 0.0);
    }

    #[test]
    fn quantiles_are_within_alpha_of_exact() {
        let data: Vec<f64> = (0..10_000u32)
            .map(|i| match i % 3 {
                0 => f64::from((i * 31) % 100) / 200.0,
                _ => 12.0 + f64::from((i * 17) % 800) / 100.0,
            })
            .collect();
        let mut sorted = data.clone();
        sorted.sort_by(f64::total_cmp);
        let mut h = LogHistogram::new(0.01);
        data.iter().for_each(|&x| h.add(x));
        assert_eq!(h.count(), 10_000);
        for phi in [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let truth = sorted[(phi * 9_999.0) as usize];
            let got = h.quantile(phi).unwrap();
            let bound = 0.01 * truth.abs()
                + if truth.abs() < MIN_MAGNITUDE {
                    MIN_MAGNITUDE
                } else {
                    0.0
                };
            assert!(
                (got - truth).abs() <= bound * (1.0 + 1e-9),
                "p{phi}: {got} vs {truth}"
            );
        }
        assert_eq!(LogHistogram::new(0.01).quantile(0.5), None);
    }

    #[test]
    fn merge_is_the_single_pass_state_in_any_order() {
        let data: Vec<f64> = (0..3_000).map(|i| f64::from(i).sin() * 1e4).collect();
        let mut whole = LogHistogram::new(0.02);
        data.iter().for_each(|&x| whole.add(x));
        let parts: Vec<LogHistogram> = data
            .chunks(700)
            .map(|c| {
                let mut h = LogHistogram::new(0.02);
                c.iter().for_each(|&x| h.add(x));
                h
            })
            .collect();
        let mut forward = LogHistogram::new(0.02);
        parts.iter().for_each(|p| forward.merge(p));
        let mut backward = LogHistogram::new(0.02);
        parts.iter().rev().for_each(|p| backward.merge(p));
        assert_eq!(forward, whole);
        assert_eq!(backward, whole);
    }

    #[test]
    fn space_is_logarithmic_in_the_range() {
        // A million distinct values over six decades: about
        // 6·log2(10)·35 ≈ 700 buckets, whatever the count.
        let mut h = LogHistogram::new(0.01);
        (0..1_000_000).for_each(|i| h.add(1.0 + f64::from(i) * 1.000_001));
        assert!(h.buckets().len() < 720, "{} buckets", h.buckets().len());
    }

    #[test]
    fn accuracy_is_clamped_to_a_byte_of_buckets() {
        assert_eq!(Mapping::for_accuracy(1e-9).per_octave(), 255);
        assert_eq!(Mapping::for_accuracy(0.9).per_octave(), 1);
        assert_eq!(Mapping::for_accuracy(0.01).per_octave(), 35);
        assert_eq!(Mapping::with_per_octave(0), None);
    }
}
