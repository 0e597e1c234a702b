//! Circular (directional) statistics for course and heading.
//!
//! Table 3 marks the mean of course and heading with `X*`: these are angles,
//! so the inventory stores the *circular* mean — the direction of the vector
//! sum of unit headings. An arithmetic mean of 359° and 1° would face south;
//! the circular mean correctly faces north. The resultant length `R ∈ [0,1]`
//! doubles as a concentration measure: the traffic-separation lanes of the
//! paper's Figure 4 show up as cells with `R` close to 1.

use crate::MergeSketch;

/// Accumulates unit vectors of angles in degrees.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Circular {
    sum_sin: f64,
    sum_cos: f64,
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
        if !deg.is_finite() {
            return;
        }
        let rad = deg.to_radians();
        self.sum_sin += rad.sin();
        self.sum_cos += rad.cos();
        self.count += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Circular mean in degrees `[0, 360)`. `None` when empty or when the
    /// directions cancel exactly (resultant length ~0, mean undefined).
    pub fn mean_deg(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let r = (self.sum_sin * self.sum_sin + self.sum_cos * self.sum_cos).sqrt();
        if r / (self.count as f64) < 1e-9 {
            return None;
        }
        let mean = self.sum_sin.atan2(self.sum_cos).to_degrees();
        Some((mean + 360.0) % 360.0)
    }

    /// Mean resultant length `R ∈ [0, 1]`: 1 = all observations aligned,
    /// 0 = uniformly spread.
    pub fn resultant_length(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let r = (self.sum_sin * self.sum_sin + self.sum_cos * self.sum_cos).sqrt();
        Some((r / self.count as f64).min(1.0))
    }

    /// Raw vector sums `(Σsin, Σcos)` (serialization support).
    pub fn sums(&self) -> (f64, f64) {
        (self.sum_sin, self.sum_cos)
    }

    /// Reconstructs an accumulator from raw parts (deserialization).
    pub fn from_parts(count: u64, sum_sin: f64, sum_cos: f64) -> Circular {
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
        self.sum_sin += other.sum_sin;
        self.sum_cos += other.sum_cos;
        self.count += other.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(left.count(), whole.count());
        assert!((left.sum_sin - whole.sum_sin).abs() < 1e-9);
        assert!((left.sum_cos - whole.sum_cos).abs() < 1e-9);
    }
}
