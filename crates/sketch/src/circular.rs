//! Circular (directional) statistics for course and heading.
//!
//! Table 3 marks the mean of course and heading with `X*`: these are angles,
//! so the inventory stores the *circular* mean — the direction of the vector
//! sum of unit headings. An arithmetic mean of 359° and 1° would face south;
//! the circular mean correctly faces north. The resultant length `R ∈ [0,1]`
//! doubles as a concentration measure: the traffic-separation lanes of the
//! paper's Figure 4 show up as cells with `R` close to 1.
//!
//! The vector sums are kept in a `2^-32` fixed point, as integers: the
//! summary of a multiset of angles is the same whatever order they are
//! added and merged in.

use crate::moments::round_to_int;
use crate::MergeSketch;

/// Fractional bits of the fixed point the unit-vector components are
/// summed in: each `sin`/`cos` is rounded to the nearest `2^-32`.
pub const UNIT_FRAC: u32 = 32;

/// The unit vector of an angle in degrees, each component in the
/// `2^-32` fixed point [`Circular`] sums: what [`Circular::add`] adds,
/// for a caller that folds one angle into several accumulators.
#[inline]
pub fn unit_vector(deg: f64) -> Option<(i64, i64)> {
    const SCALE: f64 = (1u64 << UNIT_FRAC) as f64;
    if !deg.is_finite() {
        return None;
    }
    let (sin, cos) = deg.to_radians().sin_cos();
    Some((round_to_int(sin * SCALE), round_to_int(cos * SCALE)))
}

/// Accumulates unit vectors of angles in degrees, as integer sums of
/// fixed-point components: merges are exact and commute.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Circular {
    sum_sin: i128,
    sum_cos: i128,
    count: u64,
}

impl Circular {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an angle in degrees (any real value; wrapped mod 360).
    /// Non-finite values are ignored.
    #[inline]
    pub fn add(&mut self, deg: f64) {
        if let Some(v) = unit_vector(deg) {
            self.add_unit(v);
        }
    }

    /// Adds a unit vector made by [`unit_vector`].
    #[inline]
    pub fn add_unit(&mut self, (sin, cos): (i64, i64)) {
        self.sum_sin = self.sum_sin.wrapping_add(i128::from(sin));
        self.sum_cos = self.sum_cos.wrapping_add(i128::from(cos));
        self.count += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The resultant vector `(Σsin, Σcos)` in units of one observation.
    fn resultant(&self) -> (f64, f64) {
        const SCALE: f64 = (1u64 << UNIT_FRAC) as f64;
        (self.sum_sin as f64 / SCALE, self.sum_cos as f64 / SCALE)
    }

    /// Circular mean in degrees `[0, 360)`. `None` when empty or when the
    /// directions cancel exactly (resultant length ~0, mean undefined).
    pub fn mean_deg(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let (s, c) = self.resultant();
        if (s * s + c * c).sqrt() / (self.count as f64) < 1e-9 {
            return None;
        }
        let mean = s.atan2(c).to_degrees();
        Some((mean + 360.0) % 360.0)
    }

    /// Mean resultant length `R ∈ [0, 1]`: 1 = all observations aligned,
    /// 0 = uniformly spread.
    pub fn resultant_length(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let (s, c) = self.resultant();
        Some(((s * s + c * c).sqrt() / self.count as f64).min(1.0))
    }

    /// Raw fixed-point sums `(Σsin, Σcos)` (serialization support).
    pub(crate) fn sums(&self) -> (i128, i128) {
        (self.sum_sin, self.sum_cos)
    }

    /// Reconstructs an accumulator from raw parts (deserialization).
    pub(crate) fn from_parts(count: u64, sum_sin: i128, sum_cos: i128) -> Circular {
        if count == 0 {
            return Circular::new();
        }
        Circular {
            sum_sin,
            sum_cos,
            count,
        }
    }
}

impl MergeSketch for Circular {
    fn merge(&mut self, other: &Self) {
        self.sum_sin = self.sum_sin.wrapping_add(other.sum_sin);
        self.sum_cos = self.sum_cos.wrapping_add(other.sum_cos);
        self.count += other.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The count and the two `i128` sums; a `CellStats` holds two.
    #[test]
    fn a_circular_mean_holds_its_exact_sums_in_48_bytes() {
        assert_eq!(std::mem::size_of::<Circular>(), 48);
    }

    #[test]
    fn empty() {
        let c = Circular::new();
        assert_eq!(c.mean_deg(), None);
        assert_eq!(c.resultant_length(), None);
    }

    #[test]
    fn wraparound_mean_is_north() {
        let mut c = Circular::new();
        c.add(359.0);
        c.add(1.0);
        let m = c.mean_deg().unwrap();
        assert!(m < 0.01 || m > 359.99, "got {m}");
        assert!(c.resultant_length().unwrap() > 0.999);
    }

    #[test]
    fn aligned_directions() {
        let mut c = Circular::new();
        for _ in 0..10 {
            c.add(90.0);
        }
        assert!((c.mean_deg().unwrap() - 90.0).abs() < 1e-9);
        assert!((c.resultant_length().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn opposite_directions_cancel() {
        let mut c = Circular::new();
        c.add(0.0);
        c.add(180.0);
        assert_eq!(c.mean_deg(), None, "undefined mean when cancelled");
        assert!(c.resultant_length().unwrap() < 1e-9);
    }

    #[test]
    fn negative_angles_wrap() {
        let mut c = Circular::new();
        c.add(-90.0);
        assert!((c.mean_deg().unwrap() - 270.0).abs() < 1e-9);
    }

    #[test]
    fn spread_reduces_resultant() {
        let mut tight = Circular::new();
        for d in [85.0, 90.0, 95.0] {
            tight.add(d);
        }
        let mut loose = Circular::new();
        for d in [0.0, 90.0, 200.0] {
            loose.add(d);
        }
        assert!(tight.resultant_length().unwrap() > loose.resultant_length().unwrap());
    }

    #[test]
    fn merge_equals_single_pass() {
        let angles: Vec<f64> = (0..100).map(|i| (i * 17 % 360) as f64).collect();
        let mut whole = Circular::new();
        for &a in &angles {
            whole.add(a);
        }
        let mut left = Circular::new();
        let mut right = Circular::new();
        for &a in &angles[..37] {
            left.add(a);
        }
        for &a in &angles[37..] {
            right.add(a);
        }
        left.merge(&right);
        assert_eq!(left, whole);
    }
}
