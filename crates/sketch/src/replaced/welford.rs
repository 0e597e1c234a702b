//! The checks Welford's f64 moments were held to, run against the
//! integer-sum [`Moments`](crate::Moments) that took their columns.

#[cfg(test)]
mod tests {
    use crate::{MergeSketch, SecondsMoments, SpeedMoments};

    #[test]
    fn empty_yields_none() {
        let w = SpeedMoments::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), None);
        assert_eq!(w.std_dev(), None);
        assert_eq!(w.min(), None);
        assert_eq!(w.max(), None);
    }

    #[test]
    fn known_values() {
        let mut w = SpeedMoments::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.add(x);
        }
        assert_eq!(w.count(), 8);
        assert_eq!(w.mean(), Some(5.0));
        assert_eq!(w.std_dev(), Some(2.0));
        assert_eq!(w.min(), Some(2.0));
        assert_eq!(w.max(), Some(9.0));
    }

    #[test]
    fn ignores_non_finite() {
        let mut w = SpeedMoments::new();
        w.add(1.0);
        w.add(f64::NAN);
        w.add(f64::INFINITY);
        assert_eq!(w.count(), 1);
        assert_eq!(w.mean(), Some(1.0));
    }

    #[test]
    fn merge_equals_single_pass() {
        let data: Vec<f64> = (0..1000)
            .map(|i| ((i * 37) % 101) as f64 * 0.2537)
            .collect();
        let mut whole = SpeedMoments::new();
        data.iter().for_each(|&x| whole.add(x));
        for split in [0, 1, 13, 500, 999, 1000] {
            let (mut a, mut b) = (SpeedMoments::new(), SpeedMoments::new());
            data[..split].iter().for_each(|&x| a.add(x));
            data[split..].iter().for_each(|&x| b.add(x));
            let mut ba = b;
            ba.merge(&a);
            a.merge(&b);
            assert_eq!(a, whole);
            assert_eq!(ba, whole);
        }
    }

    #[test]
    fn merge_identity_and_commutativity() {
        let (mut a, mut b) = (SecondsMoments::new(), SecondsMoments::new());
        [1, 2, 3].into_iter().for_each(|s| a.add_fixed(s));
        [10, 20].into_iter().for_each(|s| b.add_fixed(s));
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        let mut with_empty = a;
        with_empty.merge(&SecondsMoments::new());
        assert_eq!(with_empty, a);
        let mut empty = SecondsMoments::new();
        empty.merge(&a);
        assert_eq!(empty, a);
    }
}
