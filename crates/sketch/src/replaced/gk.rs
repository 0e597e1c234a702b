//! The checks the Greenwald–Khanna quantile sketch was held to, run
//! against the [`LogHistogram`](crate::LogHistogram) that took its
//! columns. GK bounded the rank of a returned value; a log histogram
//! bounds its relative value error by α, which on a uniform stream of
//! whole numbers over `[0, n)` bounds the rank error by α as well.

#[cfg(test)]
mod tests {
    use crate::loghist::INLINE_BUCKETS;
    use crate::{LogHistogram, MergeSketch};

    fn rank_of(sorted: &[f64], v: f64) -> f64 {
        sorted.iter().filter(|&&x| x <= v).count() as f64
    }

    #[test]
    fn empty_returns_none() {
        let h = LogHistogram::new(0.01);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantiles([0.0, 0.5, 1.0]), [None; 3]);
    }

    #[test]
    fn single_value() {
        let mut h = LogHistogram::new(0.01);
        h.add(42.0);
        for phi in [0.0, 0.3, 0.5, 1.0] {
            let got = h.quantile(phi).unwrap();
            assert!((got - 42.0).abs() <= 0.01 * 42.0, "{got}");
        }
    }

    #[test]
    fn rank_error_within_epsilon() {
        let eps = 0.01;
        let n = 20_000;
        let mut h = LogHistogram::new(eps);
        // Deterministic shuffled-ish stream.
        let mut data: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
        data.iter().for_each(|&x| h.add(x));
        data.sort_by(f64::total_cmp);
        for phi in [0.1, 0.5, 0.9, 0.01, 0.99] {
            let v = h.quantile(phi).unwrap();
            let r = rank_of(&data, v);
            let err = (r - phi * n as f64).abs() / n as f64;
            assert!(err <= eps + 1e-9, "phi={phi} v={v} rank err {err}");
        }
    }

    #[test]
    fn space_is_sublinear() {
        let mut h = LogHistogram::new(0.01);
        for i in 0..100_000 {
            h.add((i % 1000) as f64);
        }
        let buckets = h.buckets().len();
        assert!(buckets < 2_000, "stored {buckets} buckets for 100k values");
    }

    #[test]
    fn merged_error_within_two_epsilon() {
        let eps = 0.01;
        let n = 10_000;
        let mut a = LogHistogram::new(eps);
        let mut b = LogHistogram::new(eps);
        let mut data: Vec<f64> = (0..2 * n)
            .map(|i| ((i * 104_729) % (2 * n)) as f64)
            .collect();
        for (i, &x) in data.iter().enumerate() {
            if i % 2 == 0 { &mut a } else { &mut b }.add(x);
        }
        a.merge(&b);
        data.sort_by(f64::total_cmp);
        for phi in [0.1, 0.5, 0.9] {
            let v = a.quantile(phi).unwrap();
            let r = rank_of(&data, v);
            let err = (r - phi * 2.0 * n as f64).abs() / (2.0 * n as f64);
            assert!(err <= 2.0 * eps + 1e-9, "phi={phi} err {err}");
        }
    }

    #[test]
    fn extremes_are_exactish() {
        let mut h = LogHistogram::new(0.05);
        for i in 0..1000 {
            h.add(i as f64);
        }
        // Zero has a bucket of its own, so the minimum is exact.
        assert_eq!(h.quantile(0.0), Some(0.0));
        let hi = h.quantile(1.0).unwrap();
        assert!((hi - 999.0).abs() <= 0.05 * 999.0, "p100 {hi}");
    }

    #[test]
    fn flush_boundary_counts_inline_and_spill_together() {
        // Values straddling the inline capacity land in one ordered map.
        let mut h = LogHistogram::new(0.01);
        let values: Vec<f64> = (0..=INLINE_BUCKETS as u32 * 3)
            .map(|i| 1.5f64.powi(i as i32))
            .collect();
        values.iter().rev().for_each(|&x| h.add(x));
        values.iter().for_each(|&x| h.add(x));
        assert_eq!(h.count(), 2 * values.len() as u64);
        assert_eq!(h.buckets().len(), values.len());
        assert!(h.buckets().iter().all(|&(_, c)| c == 2));
        assert!(h.buckets().windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn ignores_non_finite() {
        let mut h = LogHistogram::new(0.01);
        [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
            .into_iter()
            .for_each(|x| h.add(x));
        assert_eq!(h.count(), 0);
        h.add(1.0);
        assert_eq!(h.count(), 1);
    }
}
