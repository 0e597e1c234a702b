//! Merging t-digest (Dunning & Ertl) — the ablation partner of the GK
//! sketch for Table 3's approximate percentiles.
//!
//! Where GK bounds *rank* error uniformly, the t-digest concentrates
//! accuracy in the distribution tails via the scale function
//! `k(q) = δ/2π · asin(2q − 1)`; the `sketch_ablation` bench compares the
//! two on AIS-shaped (heavily skewed) speed distributions.

use crate::MergeSketch;

#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Centroid {
    pub(crate) mean: f64,
    pub(crate) weight: f64,
}

/// The scale function `k(q) = δ/2π · asin(2q − 1)`.
fn scale(compression: f64, q: f64) -> f64 {
    compression / (2.0 * std::f64::consts::PI) * (2.0 * q.clamp(0.0, 1.0) - 1.0).asin()
}

/// Sorts `all` by mean (stably: retained centroids before buffered ones
/// of the same mean) and folds neighbours in place while the scale
/// function allows — the compression pass, into the vector it is given.
fn fold(compression: f64, all: &mut Vec<Centroid>) {
    all.sort_by(|a, b| a.mean.total_cmp(&b.mean));
    let total: f64 = all.iter().map(|c| c.weight).sum();
    let Some(&(mut acc)) = all.first() else {
        return;
    };
    let mut w = 0; // write cursor: never ahead of the read cursor
    let mut w_before = 0.0; // weight strictly before `acc`
    for i in 1..all.len() {
        let c = all[i];
        let q0 = w_before / total;
        let q1 = (w_before + acc.weight + c.weight) / total;
        if scale(compression, q1) - scale(compression, q0) <= 1.0 {
            // Fold c into acc (weighted mean).
            let weight = acc.weight + c.weight;
            acc.mean += (c.mean - acc.mean) * c.weight / weight;
            acc.weight = weight;
        } else {
            w_before += acc.weight;
            all[w] = acc;
            w += 1;
            acc = c;
        }
    }
    all[w] = acc;
    all.truncate(w + 1);
}

/// The merging t-digest.
#[derive(Clone, Debug)]
pub struct TDigest {
    compression: f64,
    centroids: Vec<Centroid>, // sorted by mean
    buffer: Vec<Centroid>,
    total_weight: f64,
    min: f64,
    max: f64,
}

impl TDigest {
    /// Creates a digest; `compression` (δ) ≈ the number of retained
    /// centroids (typical: 100).
    ///
    /// # Panics
    /// When `compression < 10`.
    pub fn new(compression: f64) -> Self {
        assert!(compression >= 10.0, "compression {compression} too small");
        // No preallocation: most digests in the inventory stay tiny.
        Self {
            compression,
            centroids: Vec::new(),
            buffer: Vec::new(),
            total_weight: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation. Non-finite values are ignored.
    #[inline]
    pub fn add(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.buffer.push(Centroid {
            mean: x,
            weight: 1.0,
        });
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.total_weight += 1.0;
        if self.buffer.len() >= (self.compression * 5.0) as usize {
            self.compress();
        }
    }

    /// Total weight (observation count).
    pub fn count(&self) -> u64 {
        self.total_weight as u64
    }

    fn compress(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let mut all = std::mem::take(&mut self.centroids);
        all.append(&mut self.buffer);
        fold(self.compression, &mut all);
        self.centroids = all;
    }

    /// `(compression, total_weight, min, max)`: the scalars compressing
    /// does not move.
    pub(crate) fn scalars(&self) -> (f64, f64, f64, f64) {
        (self.compression, self.total_weight, self.min, self.max)
    }

    /// Runs `f` over the centroids as [`compress`](Self::compress) would
    /// leave them, without compressing the digest: the encoder's and a
    /// merge's view. Borrowed as they are when nothing is buffered, else
    /// folded in one scratch vector — the digest is never cloned.
    pub(crate) fn with_compressed<R>(&self, f: impl FnOnce(&[Centroid]) -> R) -> R {
        if self.buffer.is_empty() {
            return f(&self.centroids);
        }
        let mut all = Vec::with_capacity(self.centroids.len() + self.buffer.len());
        all.extend_from_slice(&self.centroids);
        all.extend_from_slice(&self.buffer);
        fold(self.compression, &mut all);
        f(&all)
    }

    /// The value at quantile `phi ∈ [0, 1]`; `None` when empty.
    pub fn quantile(&mut self, phi: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&phi), "quantile {phi} out of [0,1]");
        self.compress();
        if self.centroids.is_empty() {
            return None;
        }
        if self.centroids.len() == 1 {
            return self.centroids.first().map(|c| c.mean);
        }
        let target = phi * self.total_weight;
        // Centroid i's mass is centred at cum_i + w_i/2.
        let mut cum = 0.0;
        let mut prev_mid = 0.0;
        let mut prev_mean = self.min;
        for c in &self.centroids {
            let mid = cum + c.weight / 2.0;
            if target < mid {
                let span = mid - prev_mid;
                let frac = if span > 0.0 {
                    (target - prev_mid) / span
                } else {
                    0.0
                };
                return Some(prev_mean + frac * (c.mean - prev_mean));
            }
            prev_mid = mid;
            prev_mean = c.mean;
            cum += c.weight;
        }
        Some(self.max)
    }

    /// Number of retained centroids (space usage, O(δ)).
    pub fn centroid_count(&mut self) -> usize {
        self.compress();
        self.centroids.len()
    }

    /// Raw parts `(compression, total_weight, min, max, centroids as
    /// (mean, weight))` after compressing (serialization support).
    pub fn parts(&mut self) -> (f64, f64, f64, f64, Vec<(f64, f64)>) {
        self.compress();
        (
            self.compression,
            self.total_weight,
            self.min,
            self.max,
            self.centroids.iter().map(|c| (c.mean, c.weight)).collect(),
        )
    }

    /// Reconstructs a digest from raw parts; `None` when centroids are not
    /// sorted by mean or weights are non-positive.
    pub fn from_parts(
        compression: f64,
        total_weight: f64,
        min: f64,
        max: f64,
        centroids: Vec<(f64, f64)>,
    ) -> Option<TDigest> {
        if !(compression >= 10.0) || total_weight < 0.0 {
            return None;
        }
        for (a, b) in centroids.iter().zip(centroids.iter().skip(1)) {
            if a.0 > b.0 {
                return None;
            }
        }
        if centroids.iter().any(|c| !c.0.is_finite() || c.1 <= 0.0) {
            return None;
        }
        Some(TDigest {
            compression,
            centroids: centroids
                .into_iter()
                .map(|(mean, weight)| Centroid { mean, weight })
                .collect(),
            buffer: Vec::new(),
            total_weight,
            min,
            max,
        })
    }
}

impl MergeSketch for TDigest {
    fn merge(&mut self, other: &Self) {
        other.with_compressed(|centroids| self.buffer.extend_from_slice(centroids));
        self.total_weight += other.total_weight;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.compress();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_stream(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 7919) % n) as f64 / n as f64).collect()
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn compression_bound() {
        let _ = TDigest::new(5.0);
    }

    #[test]
    fn empty_and_single() {
        let mut t = TDigest::new(100.0);
        assert_eq!(t.quantile(0.5), None);
        t.add(7.0);
        assert_eq!(t.quantile(0.5), Some(7.0));
        assert_eq!(t.count(), 1);
    }

    #[test]
    fn uniform_quantiles_accurate() {
        let mut t = TDigest::new(100.0);
        for x in uniform_stream(50_000) {
            t.add(x);
        }
        for phi in [0.1, 0.5, 0.9] {
            let v = t.quantile(phi).unwrap();
            assert!((v - phi).abs() < 0.01, "phi={phi} v={v}");
        }
        // Tails are extra accurate.
        for phi in [0.001, 0.999] {
            let v = t.quantile(phi).unwrap();
            assert!((v - phi).abs() < 0.002, "phi={phi} v={v}");
        }
    }

    #[test]
    fn skewed_distribution() {
        // AIS-like: mass at 0 (moored) plus a cruising mode around 14.
        let mut t = TDigest::new(100.0);
        for i in 0..30_000 {
            if i % 3 == 0 {
                t.add(0.1 * ((i % 7) as f64) / 7.0);
            } else {
                t.add(12.0 + 4.0 * ((i % 100) as f64) / 100.0);
            }
        }
        let p10 = t.quantile(0.1).unwrap();
        let p50 = t.quantile(0.5).unwrap();
        let p90 = t.quantile(0.9).unwrap();
        assert!(p10 < 1.0, "p10={p10}");
        assert!((12.0..16.5).contains(&p50), "p50={p50}");
        assert!((14.0..16.5).contains(&p90), "p90={p90}");
        assert!(p10 <= p50 && p50 <= p90);
    }

    #[test]
    fn quantiles_monotone() {
        let mut t = TDigest::new(50.0);
        for x in uniform_stream(10_000) {
            t.add(x * 100.0 - 50.0);
        }
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let v = t.quantile(i as f64 / 20.0).unwrap();
            assert!(v >= prev - 1e-9, "non-monotone at {i}: {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn space_bounded() {
        let mut t = TDigest::new(100.0);
        for x in uniform_stream(200_000) {
            t.add(x);
        }
        let n = t.centroid_count();
        assert!(n <= 250, "centroids {n}");
    }

    #[test]
    fn merge_matches_single_pass() {
        let data = uniform_stream(40_000);
        let mut whole = TDigest::new(100.0);
        for &x in &data {
            whole.add(x);
        }
        let mut a = TDigest::new(100.0);
        let mut b = TDigest::new(100.0);
        for (i, &x) in data.iter().enumerate() {
            if i < 10_000 {
                a.add(x);
            } else {
                b.add(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        for phi in [0.1, 0.5, 0.9] {
            let va = a.quantile(phi).unwrap();
            let vw = whole.quantile(phi).unwrap();
            assert!(
                (va - vw).abs() < 0.02,
                "phi={phi}: merged {va} vs whole {vw}"
            );
        }
    }

    #[test]
    fn ignores_non_finite() {
        let mut t = TDigest::new(100.0);
        t.add(f64::NAN);
        t.add(f64::NEG_INFINITY);
        t.add(3.0);
        assert_eq!(t.count(), 1);
        assert_eq!(t.quantile(0.5), Some(3.0));
    }
}
