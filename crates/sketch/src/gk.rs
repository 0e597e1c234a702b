//! Greenwald–Khanna ε-approximate quantile summary.
//!
//! This is the algorithm behind Spark's `approx_percentile`, i.e. the
//! "Perc." column of Table 3 (10th/50th/90th percentiles of speed, ETO and
//! ATA per cell). A sketch with parameter `ε` answers any quantile query
//! with rank error at most `ε·n`. Merging two sketches adds their error
//! bounds (`ε₁·n₁ + ε₂·n₂` in rank), which is the standard behaviour also
//! exhibited by Spark's `QuantileSummaries`.

use crate::MergeSketch;

#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Tuple {
    /// Observed value.
    pub(crate) v: f64,
    /// Number of observations represented by this tuple.
    pub(crate) g: u64,
    /// Uncertainty of this tuple's rank.
    pub(crate) delta: u64,
}

/// GK's COMPRESS as a stream: a greedy forward fold with one tuple of
/// lookback, so the flush, the merge and the encoder's borrowed view all
/// run the same fold, each into the place its tuples will live. The
/// first tuple (the exact minimum) is kept and never folded into.
struct Compress<F: FnMut(Tuple)> {
    /// `⌊2εn⌋` for the `n` the finished sketch will have.
    threshold: u64,
    /// Tuples handed on so far, the pending one included.
    written: usize,
    pending: Option<Tuple>,
    emit: F,
}

impl<F: FnMut(Tuple)> Compress<F> {
    fn new(epsilon: f64, n: u64, emit: F) -> Self {
        Compress {
            threshold: (2.0 * epsilon * n as f64).floor() as u64,
            written: 0,
            pending: None,
            emit,
        }
    }

    fn push(&mut self, cur: Tuple) {
        match self.pending {
            // Never exceed the error budget.
            Some(last) if self.written > 1 && last.g + cur.g + cur.delta <= self.threshold => {
                self.pending = Some(Tuple {
                    v: cur.v,
                    g: last.g + cur.g,
                    delta: cur.delta,
                });
            }
            last => {
                last.into_iter().for_each(&mut self.emit);
                self.pending = Some(cur);
                self.written += 1;
            }
        }
    }

    fn finish(mut self) {
        self.pending.into_iter().for_each(&mut self.emit);
    }
}

/// Inserts the sorted `batch` into `tuples` and compresses — what a flush
/// does — handing the resulting tuples to `emit` in order. Returns the
/// observation count after the insertion. An empty batch passes the
/// tuples through as they are: compressing is not idempotent.
fn insert_sorted(
    epsilon: f64,
    mut n: u64,
    tuples: &[Tuple],
    batch: &[f64],
    mut emit: impl FnMut(Tuple),
) -> u64 {
    if batch.is_empty() {
        tuples.iter().copied().for_each(emit);
        return n;
    }
    let mut out = Compress::new(epsilon, n + batch.len() as u64, &mut emit);
    let mut ti = 0;
    for &x in batch {
        while ti < tuples.len() && tuples[ti].v <= x {
            out.push(tuples[ti]);
            ti += 1;
        }
        n += 1;
        let delta = if out.written == 0 || ti == tuples.len() {
            0 // new min or max is exact
        } else {
            (2.0 * epsilon * n as f64).floor() as u64
        };
        out.push(Tuple { v: x, g: 1, delta });
    }
    tuples[ti..].iter().for_each(|t| out.push(*t));
    out.finish();
    n
}

/// The standard GK query for several quantiles in one pass over a
/// sketch's tuples: each answer is the last tuple whose maximum possible
/// rank stays within `target + ε·n`. Fed the tuples of a flushed sketch
/// (or of its encoding, in `wire`), it answers what
/// [`GkSketch::quantile`] answers for each. The sums wrap where a
/// release build's `+` would: on tuples no sketch wrote they cannot
/// panic.
pub(crate) struct Quantiles<const N: usize> {
    /// `⌈φ·n⌉` (at least 1) plus `⌊ε·n⌋`, per quantile.
    bounds: [u64; N],
    rmin: u64,
    answers: [Option<f64>; N],
    settled: [bool; N],
}

impl<const N: usize> Quantiles<N> {
    /// A query of `phis` over a sketch of `n` observations.
    ///
    /// # Panics
    /// When a quantile is outside `[0, 1]`.
    pub(crate) fn new(epsilon: f64, n: u64, phis: [f64; N]) -> Self {
        let allowed = (epsilon * n as f64) as u64;
        Quantiles {
            bounds: phis.map(|phi| {
                assert!((0.0..=1.0).contains(&phi), "quantile {phi} out of [0,1]");
                ((phi * n as f64).ceil().max(1.0) as u64).wrapping_add(allowed)
            }),
            rmin: 0,
            answers: [None; N],
            settled: [false; N],
        }
    }

    pub(crate) fn push(&mut self, t: Tuple) {
        self.rmin = self.rmin.wrapping_add(t.g);
        let reach = self.rmin.wrapping_add(t.delta);
        for ((answer, settled), bound) in self
            .answers
            .iter_mut()
            .zip(&mut self.settled)
            .zip(self.bounds)
        {
            if *settled {
                continue;
            }
            if reach > bound {
                // The first tuple answers even when it is already past.
                answer.get_or_insert(t.v);
                *settled = true;
            } else {
                *answer = Some(t.v);
            }
        }
    }

    /// The answers: `None` for each when no tuple was pushed.
    pub(crate) fn finish(self) -> [Option<f64>; N] {
        self.answers
    }
}

/// The GK quantile sketch.
#[derive(Clone, Debug)]
pub struct GkSketch {
    epsilon: f64,
    n: u64,
    tuples: Vec<Tuple>, // sorted by v
    /// First [`INLINE_CAP`] buffered values, stored inline: the inventory
    /// holds one sketch per (cell, key) and most see only a handful of
    /// values, so the common case never touches the heap.
    inline: [f64; INLINE_CAP],
    inline_len: u8,
    /// Buffered values past the inline capacity. Cleared (capacity
    /// retained) on flush, so a hot sketch allocates once and then runs
    /// allocation-free.
    spill: Vec<f64>,
}

/// Buffered insertions between merge passes (amortises the O(s) insert).
const BUFFER_CAP: usize = 512;

/// Buffered values held inline before spilling to the heap.
const INLINE_CAP: usize = 16;

impl GkSketch {
    /// Creates a sketch with rank-error bound `epsilon` (e.g. `0.01`).
    ///
    /// # Panics
    /// When `epsilon` is not in `(0, 0.5)`.
    pub fn new(epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 0.5,
            "epsilon {epsilon} out of (0, 0.5)"
        );
        Self {
            epsilon,
            n: 0,
            tuples: Vec::new(),
            inline: [0.0; INLINE_CAP],
            inline_len: 0,
            spill: Vec::new(),
        }
    }

    /// The sketch's rank-error parameter.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Values currently buffered (inline + spill).
    fn buffered(&self) -> usize {
        self.inline_len as usize + self.spill.len()
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n + self.buffered() as u64
    }

    /// Adds one observation. Non-finite values are ignored.
    #[inline]
    pub fn add(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        // Invariant: the spill is only non-empty while the inline buffer
        // is full, so buffered insertion order is inline-then-spill.
        if (self.inline_len as usize) < INLINE_CAP {
            self.inline[self.inline_len as usize] = x;
            self.inline_len += 1;
        } else {
            self.spill.push(x);
        }
        if self.buffered() >= BUFFER_CAP {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.buffered() == 0 {
            return;
        }
        // Gather the batch in one sortable slice. Appending the inline
        // values after the spill permutes the pre-sort order, which is
        // immaterial: `total_cmp`-equal f64s are bit-identical, so the
        // sorted value sequence (and with it every derived tuple) is
        // independent of both the pre-sort order and sort stability.
        self.spill
            .extend_from_slice(&self.inline[..self.inline_len as usize]);
        self.inline_len = 0;
        self.spill.sort_unstable_by(f64::total_cmp);
        let mut merged = Vec::with_capacity(self.tuples.len() + self.spill.len());
        self.n = insert_sorted(self.epsilon, self.n, &self.tuples, &self.spill, |t| {
            merged.push(t)
        });
        self.tuples = merged;
        self.spill.clear();
    }

    /// Hands `emit` the tuples [`flush`](Self::flush) would leave, in
    /// order, and returns the observation count it would leave — without
    /// flushing: nothing is cloned and nothing allocated. The buffered
    /// values are sorted in a stack array — 16 of them unless the sketch
    /// has spilled, and never [`BUFFER_CAP`] at rest.
    pub(crate) fn flushed(&self, emit: impl FnMut(Tuple)) -> u64 {
        let inline = &self.inline[..self.inline_len as usize];
        let mut small = [0.0; INLINE_CAP];
        let mut large;
        let batch = if self.spill.is_empty() {
            &mut small[..inline.len()]
        } else {
            large = [0.0; BUFFER_CAP];
            &mut large[..self.buffered()]
        };
        let (head, tail) = batch.split_at_mut(self.spill.len());
        head.copy_from_slice(&self.spill);
        tail.copy_from_slice(inline);
        batch.sort_unstable_by(f64::total_cmp);
        insert_sorted(self.epsilon, self.n, &self.tuples, batch, emit)
    }

    /// The value at quantile `phi ∈ [0, 1]`, with rank error ≤ `ε·n`
    /// (plus merge degradation, see [`MergeSketch`] impl). `None` when empty.
    pub fn quantile(&mut self, phi: f64) -> Option<f64> {
        self.flush();
        let mut query = Quantiles::new(self.epsilon, self.n, [phi]);
        self.tuples.iter().for_each(|t| query.push(*t));
        let [answer] = query.finish();
        answer
    }

    /// [`quantile`](Self::quantile) of each of `phis`, read through the
    /// flushed view: the sketch is neither flushed nor cloned, and
    /// nothing is allocated unless it has spilled.
    pub fn quantiles<const N: usize>(&self, phis: [f64; N]) -> [Option<f64>; N] {
        let mut query = Quantiles::new(self.epsilon, self.count(), phis);
        self.flushed(|t| query.push(t));
        query.finish()
    }

    /// Number of stored tuples (the space usage; O(1/ε · log(εn))).
    pub fn tuple_count(&mut self) -> usize {
        self.flush();
        self.tuples.len()
    }

    /// Raw parts `(epsilon, n, tuples as (v, g, delta))` after flushing
    /// (serialization support).
    pub fn parts(&mut self) -> (f64, u64, Vec<(f64, u64, u64)>) {
        self.flush();
        (
            self.epsilon,
            self.n,
            self.tuples.iter().map(|t| (t.v, t.g, t.delta)).collect(),
        )
    }

    /// Reconstructs a sketch from raw parts; `None` when the tuples are not
    /// sorted by value or the counts are inconsistent.
    pub fn from_parts(epsilon: f64, n: u64, tuples: Vec<(f64, u64, u64)>) -> Option<GkSketch> {
        if !(epsilon > 0.0 && epsilon < 0.5) {
            return None;
        }
        let mut total_g = 0u64;
        for (a, b) in tuples.iter().zip(tuples.iter().skip(1)) {
            if a.0 > b.0 {
                return None;
            }
        }
        for t in &tuples {
            if !t.0.is_finite() {
                return None;
            }
            total_g += t.1;
        }
        if total_g != n {
            return None;
        }
        Some(GkSketch {
            epsilon,
            n,
            tuples: tuples
                .into_iter()
                .map(|(v, g, delta)| Tuple { v, g, delta })
                .collect(),
            inline: [0.0; INLINE_CAP],
            inline_len: 0,
            spill: Vec::new(),
        })
    }
}

impl MergeSketch for GkSketch {
    fn merge(&mut self, other: &Self) {
        if other.tuples.is_empty() {
            // Pure-buffer other (never flushed): replaying its buffered
            // values as plain insertions is exact — no tuple lists need to
            // exist, so small-sketch merges stay allocation-free. This is
            // the common case for per-cell sketches merged across shards.
            for &x in &other.inline[..other.inline_len as usize] {
                self.add(x);
            }
            for &x in &other.spill {
                self.add(x);
            }
            return;
        }
        self.flush();
        // Merge-sort the tuple lists; g and delta survive unchanged (the
        // classical mergeable-summary combination). Rank error becomes the
        // sum of both sketches' absolute errors.
        let flushed;
        let (b, other_n) = if other.buffered() == 0 {
            (&other.tuples, other.n)
        } else {
            let mut theirs = Vec::with_capacity(other.tuples.len() + other.buffered());
            let n = other.flushed(|t| theirs.push(t));
            flushed = theirs;
            (&flushed, n)
        };
        let a = &self.tuples;
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let mut out = Compress::new(self.epsilon, self.n + other_n, |t| merged.push(t));
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i].v <= b[j].v {
                out.push(a[i]);
                i += 1;
            } else {
                out.push(b[j]);
                j += 1;
            }
        }
        a[i..].iter().chain(&b[j..]).for_each(|t| out.push(*t));
        out.finish();
        self.tuples = merged;
        self.n += other_n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank_of(sorted: &[f64], v: f64) -> f64 {
        sorted.iter().filter(|&&x| x <= v).count() as f64
    }

    #[test]
    #[should_panic(expected = "out of (0, 0.5)")]
    fn bad_epsilon() {
        let _ = GkSketch::new(0.6);
    }

    #[test]
    fn empty_returns_none() {
        let mut g = GkSketch::new(0.01);
        assert_eq!(g.quantile(0.5), None);
        assert_eq!(g.count(), 0);
    }

    #[test]
    fn single_value() {
        let mut g = GkSketch::new(0.01);
        g.add(42.0);
        assert_eq!(g.quantile(0.0), Some(42.0));
        assert_eq!(g.quantile(0.5), Some(42.0));
        assert_eq!(g.quantile(1.0), Some(42.0));
    }

    #[test]
    fn rank_error_within_epsilon() {
        let eps = 0.01;
        let n = 20_000;
        let mut g = GkSketch::new(eps);
        // Deterministic shuffled-ish stream.
        let mut data: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
        for &x in &data {
            g.add(x);
        }
        data.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for phi in [0.1, 0.5, 0.9, 0.01, 0.99] {
            let v = g.quantile(phi).unwrap();
            let r = rank_of(&data, v);
            let err = (r - phi * n as f64).abs() / n as f64;
            assert!(err <= eps + 1e-9, "phi={phi} v={v} rank err {err}");
        }
    }

    #[test]
    fn space_is_sublinear() {
        let mut g = GkSketch::new(0.01);
        for i in 0..100_000 {
            g.add((i % 1000) as f64);
        }
        let tuples = g.tuple_count();
        assert!(tuples < 2_000, "stored {tuples} tuples for 100k values");
    }

    #[test]
    fn merged_error_within_two_epsilon() {
        let eps = 0.01;
        let n = 10_000;
        let mut a = GkSketch::new(eps);
        let mut b = GkSketch::new(eps);
        let mut data: Vec<f64> = (0..2 * n)
            .map(|i| ((i * 104_729) % (2 * n)) as f64)
            .collect();
        for (i, &x) in data.iter().enumerate() {
            if i % 2 == 0 {
                a.add(x);
            } else {
                b.add(x);
            }
        }
        a.merge(&b);
        data.sort_by(|x, y| x.partial_cmp(y).unwrap());
        for phi in [0.1, 0.5, 0.9] {
            let v = a.quantile(phi).unwrap();
            let r = rank_of(&data, v);
            let err = (r - phi * 2.0 * n as f64).abs() / (2.0 * n as f64);
            assert!(err <= 2.0 * eps + 1e-9, "phi={phi} err {err}");
        }
    }

    #[test]
    fn extremes_are_exactish() {
        let mut g = GkSketch::new(0.05);
        for i in 0..1000 {
            g.add(i as f64);
        }
        assert_eq!(g.quantile(0.0), Some(0.0));
        let hi = g.quantile(1.0).unwrap();
        assert!(hi >= 999.0 - 50.0, "p100 {hi}");
    }

    #[test]
    fn flush_boundary_counts_inline_and_spill_together() {
        // The inline buffer and the spill vector jointly count toward
        // BUFFER_CAP, so flush points are unchanged by the inline refit.
        let mut g = GkSketch::new(0.01);
        for i in 0..(BUFFER_CAP * 3 + 17) {
            g.add(i as f64);
        }
        assert_eq!(g.count(), (BUFFER_CAP * 3 + 17) as u64);
        assert_eq!(g.quantile(0.0), Some(0.0));
        let hi = g.quantile(1.0).unwrap();
        assert!(hi >= (BUFFER_CAP * 3) as f64, "p100 {hi}");
    }

    #[test]
    fn ignores_non_finite() {
        let mut g = GkSketch::new(0.01);
        g.add(f64::NAN);
        g.add(1.0);
        assert_eq!(g.count(), 1);
    }
}
