//! Fixed-bin histograms — the "Bins" column of Table 3.
//!
//! The paper splits course and heading into 30° counters (12 bins):
//! [`AngleHistogram`] wraps angles into that layout and holds only the
//! occupied bins.

use crate::counts::Spill;
use crate::MergeSketch;

/// Bins held inline by an [`AngleHistogram`] before it moves to the
/// heap: on polbench's seed-1 build 98 % of the histograms use one or
/// two of the twelve.
pub(crate) const INLINE_BINS: usize = 2;

/// A 12-bin × 30° histogram over angles in degrees, wrapping mod 360.
/// This is exactly the "Bins" statistic the paper stores for course and
/// heading. Only occupied bins are held, as `(bin, count)` ascending by
/// bin.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AngleHistogram {
    bins: Spill<(u8, u64), INLINE_BINS>,
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
        if let Some(bin) = Self::bin_of(deg) {
            self.add_bin(bin);
        }
    }

    /// The bin of an angle in degrees; `None` when it is not finite.
    #[inline]
    pub fn bin_of(deg: f64) -> Option<usize> {
        deg.is_finite()
            .then(|| ((deg.rem_euclid(360.0) / Self::BIN_DEG) as usize).min(11))
    }

    /// Counts one angle in bin `bin` (of [`bin_of`](Self::bin_of)); a
    /// bin past the twelfth is ignored.
    #[inline]
    pub fn add_bin(&mut self, bin: usize) {
        let Some(bin) = u8::try_from(bin).ok().filter(|&b| b < 12) else {
            return;
        };
        match self.bins.as_slice().binary_search_by_key(&bin, |e| e.0) {
            Ok(at) => {
                if let Some(entry) = self.bins.as_mut_slice().get_mut(at) {
                    entry.1 += 1;
                }
            }
            Err(at) => self.bins.insert(at, (bin, 1)),
        }
    }

    /// The 12 bin counters; bin `i` covers `[30·i, 30·(i+1))` degrees.
    pub fn counts(&self) -> [u64; 12] {
        let mut counts = [0; 12];
        for &(bin, count) in self.bins.as_slice() {
            if let Some(slot) = counts.get_mut(usize::from(bin)) {
                *slot = count;
            }
        }
        counts
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.bins.as_slice().iter().map(|e| e.1).sum()
    }

    /// Whether the occupied bins live on the heap.
    pub fn is_spilled(&self) -> bool {
        self.bins.is_spilled()
    }

    /// Reconstructs a histogram from its bin counters (deserialization).
    pub fn from_counts(counts: [u64; 12]) -> AngleHistogram {
        let mut histogram = AngleHistogram::new();
        for bin in (0u8..).zip(counts).filter(|e| e.1 > 0) {
            histogram.bins.push(bin);
        }
        histogram
    }
}

impl MergeSketch for AngleHistogram {
    fn merge(&mut self, other: &Self) {
        self.bins
            .merge_sorted(other.bins.as_slice(), |e| e.0, |e, o| e.1 += o.1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two `(bin, count)` pairs inline and the tag, where the dense form
    /// took 96 bytes; a `CellStats` holds two.
    #[test]
    fn an_angle_histogram_holds_two_bins_in_40_bytes() {
        assert_eq!(std::mem::size_of::<AngleHistogram>(), 40);
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
