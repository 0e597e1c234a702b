//! Exact single-pass moments as integer sums.
//!
//! Every observation is quantized once, to a fixed point of `2^-FRAC`
//! of its unit, and the accumulator keeps the count, `Σq`, `Σq²`, and
//! the smallest and largest `q`. Integer addition is associative and
//! commutative, so a merge gives the same state — and the same bytes —
//! in whatever order and grouping the observations arrive: the summary
//! is a function of the multiset of observations alone. The sums wrap
//! (`i128` / `u128` modulo 2¹²⁸), which keeps that law even past the
//! domain in which they stay meaningful (`|x|·2^FRAC < 2⁶³`, and `n·q²`
//! under 2¹²⁸: for speeds in knots at `FRAC = 32`, about 2⁵⁰ records).

use crate::MergeSketch;

/// Count / mean / variance / min / max of values quantized to
/// `2^-FRAC`, mergeable with no loss and in any order.
///
/// Backs every "Mean"/"Std" entry of the paper's Table 3: speed at
/// `FRAC = 32` ([`SpeedMoments`]), ETO and ATA in whole seconds at
/// `FRAC = 0` ([`SecondsMoments`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Moments<const FRAC: u32> {
    count: u64,
    sum: i128,
    sum_sq: u128,
    min: i64,
    max: i64,
}

/// Speed over ground in knots, quantized to 2⁻³² kn: a fleetsim speed
/// is not on the AIS 0.1-kn grid, and a mean of these stays within
/// 1e-9 relative of the mean of the raw values.
pub type SpeedMoments = Moments<32>;

/// Elapsed and remaining voyage time in whole seconds.
pub type SecondsMoments = Moments<0>;

impl<const FRAC: u32> Default for Moments<FRAC> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const FRAC: u32> Moments<FRAC> {
    /// The fixed point's unit, `2^FRAC`.
    const SCALE: f64 = (1u64 << FRAC) as f64;

    /// An empty accumulator.
    pub const fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            sum_sq: 0,
            min: i64::MAX,
            max: i64::MIN,
        }
    }

    /// `x` in the accumulator's fixed point: `x·2^FRAC` rounded to the
    /// nearest integer, halves away from zero (saturating). `None` when
    /// `x` is not finite.
    #[inline]
    pub fn quantize(x: f64) -> Option<i64> {
        x.is_finite().then(|| round_to_int(x * Self::SCALE))
    }

    /// Adds one observation. Non-finite values are ignored (AIS cleaning
    /// rejects them upstream; this is defence in depth).
    #[inline]
    pub fn add(&mut self, x: f64) {
        if let Some(q) = Self::quantize(x) {
            self.add_fixed(q);
        }
    }

    /// Adds one observation already in the fixed point: `q·2^-FRAC`.
    #[inline]
    pub fn add_fixed(&mut self, q: i64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(i128::from(q));
        self.sum_sq = self
            .sum_sq
            .wrapping_add(u128::from(q.unsigned_abs()).wrapping_mul(u128::from(q.unsigned_abs())));
        self.min = self.min.min(q);
        self.max = self.max.max(q);
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64 / Self::SCALE)
    }

    /// Population variance; `None` when empty. Computed as
    /// `(n·Σq² − (Σq)²) / n²` in integers while that fits, so a sample of
    /// equal values has variance exactly 0.
    pub fn variance(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let n = u128::from(self.count);
        let spread = n
            .checked_mul(self.sum_sq)
            .zip(self.sum.unsigned_abs().checked_mul(self.sum.unsigned_abs()))
            .and_then(|(nq, s2)| nq.checked_sub(s2));
        let scaled = match spread {
            Some(spread) => spread as f64 / (n as f64 * n as f64),
            None => {
                let mean = self.sum as f64 / self.count as f64;
                self.sum_sq as f64 / self.count as f64 - mean * mean
            }
        };
        Some(scaled.max(0.0) / (Self::SCALE * Self::SCALE))
    }

    /// Population standard deviation; `None` when empty.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Smallest observation (as quantized); `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then(|| self.min as f64 / Self::SCALE)
    }

    /// Largest observation (as quantized); `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then(|| self.max as f64 / Self::SCALE)
    }

    /// The raw state `(count, Σq, Σq², min q, max q)` (serialization
    /// support).
    pub(crate) fn parts(&self) -> (u64, i128, u128, i64, i64) {
        (self.count, self.sum, self.sum_sq, self.min, self.max)
    }

    /// Reconstructs an accumulator from [`parts`](Self::parts). A zero
    /// count is the empty accumulator; `None` when `min > max`.
    pub(crate) fn from_parts(
        count: u64,
        sum: i128,
        sum_sq: u128,
        min: i64,
        max: i64,
    ) -> Option<Self> {
        if count == 0 {
            return Some(Self::new());
        }
        (min <= max).then_some(Self {
            count,
            sum,
            sum_sq,
            min,
            max,
        })
    }
}

/// `y` rounded to the nearest integer, halves away from zero — what
/// `f64::round` gives, saturating at the ends of `i64` — without the
/// library call `round` is on targets without SSE4.1: `y - trunc(y)` is
/// exact in `f64`.
#[inline]
pub(crate) fn round_to_int(y: f64) -> i64 {
    let truncated = y as i64;
    let frac = y - truncated as f64;
    truncated
        .saturating_add(i64::from(frac >= 0.5))
        .saturating_sub(i64::from(frac <= -0.5))
}

impl<const FRAC: u32> MergeSketch for Moments<FRAC> {
    fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.sum_sq = self.sum_sq.wrapping_add(other.sum_sq);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The count, the `i128` and `u128` sums and the extremes; a
    /// `CellStats` holds three.
    #[test]
    fn moments_hold_their_exact_sums_in_64_bytes() {
        assert_eq!(std::mem::size_of::<SpeedMoments>(), 64);
    }

    #[test]
    fn whole_seconds_are_exact() {
        let mut w = SecondsMoments::new();
        for s in [3_600, 7_200, 10_800] {
            w.add_fixed(s);
        }
        assert_eq!(w.mean(), Some(7_200.0));
        assert_eq!(w.variance(), Some(2.0 * 3_600.0 * 3_600.0 / 3.0));
        assert_eq!((w.min(), w.max()), (Some(3_600.0), Some(10_800.0)));
    }

    #[test]
    fn off_grid_means_stay_within_1e9_relative() {
        let data: Vec<f64> = (0..10_000)
            .map(|i| 0.1 + f64::from(i).sin().abs() * 21.7)
            .collect();
        let mut w = SpeedMoments::new();
        data.iter().for_each(|&x| w.add(x));
        let exact = data.iter().sum::<f64>() / data.len() as f64;
        let mean = w.mean().unwrap();
        assert!((mean - exact).abs() <= 1e-9 * exact, "{mean} vs {exact}");
        let var: f64 =
            data.iter().map(|x| (x - exact) * (x - exact)).sum::<f64>() / data.len() as f64;
        let got = w.variance().unwrap();
        assert!((got - var).abs() <= 1e-9 * var, "{got} vs {var}");
    }

    #[test]
    fn equal_values_have_zero_variance() {
        let mut w = SpeedMoments::new();
        (0..1000).for_each(|_| w.add(12.3));
        assert_eq!(w.variance(), Some(0.0));
    }

    #[test]
    fn rounding_is_f64_round() {
        for y in [
            0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            0.49999999999999994,
            -0.49999999999999994,
            4503599627370495.5,
            4503599627370497.0,
            1e18,
            -1e18,
            123.456,
            -7.5000001,
        ] {
            assert_eq!(round_to_int(y), y.round() as i64, "{y}");
        }
        assert_eq!(round_to_int(1e30), i64::MAX);
        assert_eq!(round_to_int(-1e30), i64::MIN);
        for i in 0..100_000 {
            let y = (f64::from(i) * 0.731).sin() * 1e6;
            assert_eq!(round_to_int(y), y.round() as i64, "{y}");
        }
    }

    #[test]
    fn parts_round_trip() {
        let mut w = SecondsMoments::new();
        [5, -3, 8].into_iter().for_each(|s| w.add_fixed(s));
        let (n, s, q, lo, hi) = w.parts();
        assert_eq!(SecondsMoments::from_parts(n, s, q, lo, hi), Some(w));
        assert_eq!(
            SecondsMoments::from_parts(0, 1, 2, 3, 4),
            Some(SecondsMoments::new())
        );
        assert_eq!(SecondsMoments::from_parts(1, 0, 0, 4, 3), None);
    }
}
