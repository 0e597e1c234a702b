//! Fixed-bin histograms — the "Bins" column of Table 3.
//!
//! The paper splits course and heading into 30° counters (12 bins). A
//! general fixed-width [`Histogram`] covers other features; the
//! [`AngleHistogram`] specialisation wraps angles and owns the 30° layout.

use crate::MergeSketch;

/// A fixed-width histogram over `[lo, hi)` with under/overflow counters.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    /// When `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(lo < hi, "invalid range {lo}..{hi}");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds an observation. Non-finite values are ignored.
    #[inline]
    pub fn add(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.counts.len() as f64;
            let i = (((x - self.lo) / width) as usize).min(self.counts.len() - 1);
            self.counts[i] += 1;
        }
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Count below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count at or above the range's upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations, including under/overflow.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// `(bin_lo, bin_hi, count)` triples.
    pub fn bins(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        self.counts.iter().enumerate().map(move |(i, &c)| {
            (
                self.lo + i as f64 * width,
                self.lo + (i + 1) as f64 * width,
                c,
            )
        })
    }
}

impl MergeSketch for Histogram {
    /// # Panics
    /// When the histograms have different layouts.
    fn merge(&mut self, other: &Self) {
        assert_eq!(self.lo, other.lo, "histogram layout mismatch");
        assert_eq!(self.hi, other.hi, "histogram layout mismatch");
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "histogram layout mismatch"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }
}

/// A 12-bin × 30° histogram over angles in degrees, wrapping mod 360.
/// This is exactly the "Bins" statistic the paper stores for course and
/// heading.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AngleHistogram {
    counts: [u64; 12],
}

impl AngleHistogram {
    /// Width of each bin in degrees.
    pub const BIN_DEG: f64 = 30.0;

    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an angle in degrees (wrapped into `[0, 360)`).
    /// Non-finite values are ignored.
    #[inline]
    pub fn add(&mut self, deg: f64) {
        if !deg.is_finite() {
            return;
        }
        let wrapped = deg.rem_euclid(360.0);
        let i = ((wrapped / Self::BIN_DEG) as usize).min(11);
        self.counts[i] += 1;
    }

    /// The 12 bin counters; bin `i` covers `[30·i, 30·(i+1))` degrees.
    pub fn counts(&self) -> &[u64; 12] {
        &self.counts
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Reconstructs a histogram from its bin counters (deserialization).
    pub fn from_counts(counts: [u64; 12]) -> AngleHistogram {
        AngleHistogram { counts }
    }
}

impl MergeSketch for AngleHistogram {
    fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bin_assignment() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.add(0.0); // bin 0
        h.add(1.99); // bin 0
        h.add(2.0); // bin 1
        h.add(9.99); // bin 4
        h.add(-0.1); // underflow
        h.add(10.0); // overflow (hi exclusive)
        assert_eq!(h.counts(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let mut b = Histogram::new(0.0, 10.0, 5);
        a.add(1.0);
        b.add(1.0);
        b.add(9.0);
        a.merge(&b);
        assert_eq!(a.counts(), &[2, 0, 0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "layout mismatch")]
    fn histogram_merge_rejects_mismatch() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let b = Histogram::new(0.0, 10.0, 6);
        a.merge(&b);
    }

    #[test]
    fn angle_histogram_thirty_degree_bins() {
        let mut h = AngleHistogram::new();
        h.add(0.0); // bin 0
        h.add(29.9); // bin 0
        h.add(30.0); // bin 1
        h.add(359.9); // bin 11
        h.add(360.0); // wraps -> bin 0
        h.add(-15.0); // wraps -> 345 -> bin 11
        assert_eq!(h.counts()[0], 3);
        assert_eq!(h.counts()[1], 1);
        assert_eq!(h.counts()[11], 2);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn angle_histogram_merge_is_elementwise() {
        let mut a = AngleHistogram::new();
        let mut b = AngleHistogram::new();
        a.add(10.0);
        b.add(10.0);
        b.add(200.0);
        a.merge(&b);
        assert_eq!(a.counts()[0], 2);
        assert_eq!(a.counts()[6], 1);
    }
}
