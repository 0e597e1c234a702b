//! The estimators. On this box the CPU time of one deterministic
//! single-threaded `run_fused` swings by a third between repetitions, so
//! noise is additive contention: a minimum over repetitions estimates the
//! undisturbed cost, a median of few samples does not repeat.

/// Median of a sample (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile over a copy of the sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method) — the spread the accepting driver computes.
pub fn quartiles_exclusive(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles_exclusive(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// `(max - min) / median`.
pub fn range_share(values: &[f64]) -> f64 {
    let m = median(values);
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if values.is_empty() || m == 0.0 {
        0.0
    } else {
        (hi - lo) / m.abs()
    }
}

/// Best-segment time: the timed region is a fixed sequence of named
/// segments executed once per pass; the estimate is the sum over segments
/// of the fastest execution of each.
#[derive(Default)]
pub struct Segments {
    /// Segment names, as the first pass gave them.
    names: Vec<String>,
    /// `passes[p][s]` = seconds segment `s` took in pass `p`.
    passes: Vec<Vec<f64>>,
}

impl Segments {
    /// Records one complete pass as `(segment, seconds)` in execution
    /// order; every pass must time the same segments in the same order.
    pub fn push_pass(&mut self, pass: Vec<(String, f64)>) {
        let (names, seconds): (Vec<String>, Vec<f64>) = pass.into_iter().unzip();
        if self.passes.is_empty() {
            self.names = names;
        } else {
            assert_eq!(
                names, self.names,
                "every pass times the same segments in the same order"
            );
        }
        self.passes.push(seconds);
    }

    pub fn passes(&self) -> usize {
        self.passes.len()
    }

    /// `(segment, fastest execution over all passes)`, in order.
    pub fn bests(&self) -> impl Iterator<Item = (&str, f64)> {
        self.names.iter().enumerate().map(|(s, name)| {
            (
                name.as_str(),
                self.passes
                    .iter()
                    .map(|p| p[s])
                    .fold(f64::INFINITY, f64::min),
            )
        })
    }

    /// `(segment, its seconds in each pass)`, in order.
    pub fn series(&self) -> impl Iterator<Item = (&str, Vec<f64>)> {
        self.names
            .iter()
            .enumerate()
            .map(|(s, name)| (name.as_str(), self.passes.iter().map(|p| p[s]).collect()))
    }

    /// Sum of per-segment bests over the segments `keep` accepts.
    pub fn best_sum(&self, keep: impl Fn(&str) -> bool) -> f64 {
        self.bests()
            .filter(|(name, _)| keep(name))
            .map(|(_, best)| best)
            .sum()
    }

    /// Fastest execution of one segment.
    pub fn best_named(&self, name: &str) -> f64 {
        self.best_sum(|n| n == name)
    }

    /// Literal per-pass totals over the same segments (diagnostics).
    pub fn pass_totals(&self, keep: impl Fn(&str) -> bool) -> Vec<f64> {
        self.passes
            .iter()
            .map(|p| {
                (0..p.len())
                    .filter(|&s| keep(&self.names[s]))
                    .map(|s| p[s])
                    .sum()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
    }

    #[test]
    fn best_segment_sums_the_fastest_of_each() {
        let mut s = Segments::default();
        s.push_pass(vec![("a".into(), 1.0), ("b".into(), 5.0)]);
        s.push_pass(vec![("a".into(), 3.0), ("b".into(), 2.0)]);
        assert_eq!(s.best_sum(|_| true), 3.0);
        assert_eq!(s.pass_totals(|n| n == "a"), vec![1.0, 3.0]);
    }
}
