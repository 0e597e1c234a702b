//! Property tests: every sketch is a commutative monoid under `merge`,
//! and merging shards is equivalent to a single pass. These laws are
//! what make the paper's map/reduce decomposition (§3.3.4)
//! partition-invariant.
//!
//! The inventory's sketches hold the laws exactly, so they are checked
//! on the encoding: `encode(a ⊕ b) == encode(b ⊕ a)`, `encode((a ⊕ b) ⊕
//! c) == encode(a ⊕ (b ⊕ c))`, and both are the single pass's bytes —
//! over values on the AIS grids (0.1 kn, 0.1°, whole seconds) and over
//! arbitrary f64s off them.
//!
//! The `welford_`, `gk_`, `tdigest_` and `spacesaving_` tests keep the
//! names of the sketches that held the moment, quantile and Top-N
//! columns before; they run on `Moments`, `LogHistogram` and `Tally`.
//! `gk_rank_error_bound` bounds the value returned at each rank.

use pol_sketch::wire::Wire;
use pol_sketch::{
    AngleHistogram, Circular, Distinct, HyperLogLog, LogHistogram, MergeSketch, SecondsMoments,
    SpeedMoments, Tally,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Values on the 0.1 grid, or arbitrary f64s of either sign. A third of
/// the lists hold six values or fewer, so a quantile summary's buckets
/// fall on either side of its inline capacity (four).
fn values() -> impl Strategy<Value = Vec<f64>> {
    let value = (0u8..2, 0u32..5_000, -1e4f64..1e4).prop_map(|(grid, tenths, raw)| {
        if grid == 0 {
            f64::from(tenths) / 10.0
        } else {
            raw
        }
    });
    (0u8..3).prop_flat_map(move |shape| {
        prop::collection::vec(value.clone(), 0..if shape == 0 { 7 } else { 300 })
    })
}

/// Items below 40, or — in a third of the lists — a handful below
/// `few`, so a tally's items fall on either side of its inline capacity
/// (two).
fn items() -> impl Strategy<Value = Vec<u64>> {
    (0u8..3, 1u64..6).prop_flat_map(|(shape, few)| match shape {
        0 => prop::collection::vec(0..few, 0..6),
        _ => prop::collection::vec(0..40, 0..200),
    })
}

/// Values below 2 000, or — in a third of the lists — a handful below
/// `few`, so an exact set's hashes fall on either side of its inline
/// capacity (three).
fn identities() -> impl Strategy<Value = Vec<u32>> {
    (0u8..3, 1u32..8).prop_flat_map(|(shape, few)| match shape {
        0 => prop::collection::vec(0..few, 0..6),
        _ => prop::collection::vec(0..2_000, 0..600),
    })
}

fn encoded<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// `a ⊕ b`, leaving both as they were.
fn merged<S: MergeSketch + Clone>(a: &S, b: &S) -> S {
    let mut m = a.clone();
    m.merge(b);
    m
}

/// The three parts of a multiset, and its single pass, encode as a
/// commutative monoid's would: in either order, in either grouping, and
/// with an empty sketch on either side, the merge is the single pass's
/// bytes.
fn laws_hold<S: MergeSketch + Wire + Clone>(
    [a, b, c]: [&S; 3],
    whole: &S,
    empty: &S,
) -> Result<(), TestCaseError> {
    let want = encoded(whole);
    prop_assert_eq!(encoded(&merged(a, b)), encoded(&merged(b, a)));
    prop_assert_eq!(
        encoded(&merged(&merged(a, b), c)),
        encoded(&merged(a, &merged(b, c)))
    );
    prop_assert_eq!(&encoded(&merged(&merged(c, a), b)), &want);
    prop_assert_eq!(&encoded(&merged(&merged(a, empty), &merged(b, c))), &want);
    prop_assert_eq!(&encoded(&merged(empty, &merged(&merged(b, c), a))), &want);
    Ok(())
}

/// `build` of each of three value lists and of their concatenation.
fn parts_and_whole<S, T: Clone>([x, y, z]: [&[T]; 3], build: impl Fn(&[T]) -> S) -> ([S; 3], S) {
    let whole: Vec<T> = [x, y, z].concat();
    ([build(x), build(y), build(z)], build(&whole))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn welford_partition_invariant(x in values(), y in values(), z in values()) {
        let build = |d: &[f64]| {
            let mut w = SpeedMoments::new();
            d.iter().for_each(|&v| w.add(v));
            w
        };
        let ([a, b, c], whole) = parts_and_whole([&x, &y, &z], build);
        laws_hold([&a, &b, &c], &whole, &SpeedMoments::new())?;
        if let Some(mean) = whole.mean() {
            let all: Vec<f64> = [x, y, z].concat();
            let exact = all.iter().sum::<f64>() / all.len() as f64;
            prop_assert!((mean - exact).abs() <= 1e-9 * (1.0 + exact.abs()), "{mean} vs {exact}");
        }
    }

    #[test]
    fn welford_associative(
        x in prop::collection::vec(-3_000_000i64..3_000_000, 0..200),
        y in prop::collection::vec(-3_000_000i64..3_000_000, 0..200),
        z in prop::collection::vec(-3_000_000i64..3_000_000, 0..200),
    ) {
        let build = |d: &[i64]| {
            let mut w = SecondsMoments::new();
            d.iter().for_each(|&s| w.add_fixed(s));
            w
        };
        let ([a, b, c], whole) = parts_and_whole([&x, &y, &z], build);
        laws_hold([&a, &b, &c], &whole, &SecondsMoments::new())?;
    }

    #[test]
    fn circular_partition_invariant(x in values(), y in values(), z in values()) {
        let build = |d: &[f64]| {
            let mut c = Circular::new();
            d.iter().for_each(|&a| c.add(a));
            c
        };
        let ([a, b, c], whole) = parts_and_whole([&x, &y, &z], build);
        laws_hold([&a, &b, &c], &whole, &Circular::new())?;
    }

    #[test]
    fn loghist_partition_invariant(x in values(), y in values(), z in values()) {
        let build = |d: &[f64]| {
            let mut h = LogHistogram::new(0.01);
            d.iter().for_each(|&v| h.add(v));
            h
        };
        let ([a, b, c], whole) = parts_and_whole([&x, &y, &z], build);
        laws_hold([&a, &b, &c], &whole, &LogHistogram::new(0.01))?;
    }

    #[test]
    fn tally_partition_invariant(
        x in items(),
        y in items(),
        z in prop::collection::vec(0u64..u64::MAX, 0..20),
    ) {
        let build = |d: &[u64]| {
            let mut t = Tally::new();
            d.iter().for_each(|&v| t.add(v));
            t
        };
        let ([a, b, c], whole) = parts_and_whole([&x, &y, &z], build);
        laws_hold([&a, &b, &c], &whole, &Tally::new())?;
    }

    #[test]
    fn angle_histogram_partition_invariant(
        // A third of the lists hold four angles or fewer: occupied bins
        // on either side of the inline capacity (two).
        angles in (0u8..3).prop_flat_map(|shape| {
            prop::collection::vec(-720.0f64..720.0, 0..if shape == 0 { 5 } else { 300 })
        }),
        split in 0usize..300,
        cut in 0usize..300,
    ) {
        let split = split.min(angles.len());
        let build = |d: &[f64]| {
            let mut h = AngleHistogram::new();
            d.iter().for_each(|&a| h.add(a));
            h
        };
        let whole = build(&angles);
        let mut l = build(&angles[..split]);
        let r = build(&angles[split..]);
        l.merge(&r);
        prop_assert_eq!(l.counts(), whole.counts());
        let cut = cut.min(split);
        let ([a, b, c], whole) =
            parts_and_whole([&angles[..cut], &angles[cut..split], &angles[split..]], build);
        laws_hold([&a, &b, &c], &whole, &AngleHistogram::new())?;
    }

    #[test]
    fn hll_merge_commutative_idempotent(xs in prop::collection::vec(0u64..10_000, 1..500), ys in prop::collection::vec(0u64..10_000, 1..500)) {
        let build = |d: &[u64]| {
            let mut h = HyperLogLog::new(10);
            d.iter().for_each(|v| h.add(v));
            h
        };
        let (a, b) = (build(&xs), build(&ys));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        // Idempotent: merging the same sketch again changes nothing.
        let mut twice = ab.clone();
        twice.merge(&b);
        prop_assert_eq!(&twice, &ab);
    }

    #[test]
    fn distinct_merge_counts_union(xs in identities(), ys in identities()) {
        let mut union: std::collections::HashSet<u32> = xs.iter().copied().collect();
        union.extend(ys.iter().copied());
        let build = |d: &[u32]| {
            let mut s = Distinct::new();
            d.iter().for_each(|v| s.add(v));
            s
        };
        let mut m = build(&xs);
        m.merge(&build(&ys));
        let est = m.estimate() as f64;
        let truth = union.len() as f64;
        if truth == 0.0 {
            prop_assert_eq!(est, 0.0);
        } else {
            prop_assert!((est - truth).abs() / truth < 0.1, "est {est} truth {truth}");
        }
        // Promoted or exact, the merge is the single pass's bytes.
        let all: Vec<u32> = [xs, ys].concat();
        prop_assert_eq!(encoded(&m), encoded(&build(&all)));
    }

    #[test]
    fn spacesaving_total_additive(xs in prop::collection::vec(0u8..30, 0..300), ys in prop::collection::vec(0u8..30, 0..300)) {
        let build = |d: &[u8]| {
            let mut s = Tally::new();
            d.iter().for_each(|&v| s.add(u64::from(v)));
            s
        };
        let mut m = build(&xs);
        m.merge(&build(&ys));
        prop_assert_eq!(m.total(), (xs.len() + ys.len()) as u64);
        let mut truth = std::collections::HashMap::new();
        for v in xs.iter().chain(ys.iter()) {
            *truth.entry(u64::from(*v)).or_insert(0u64) += 1;
        }
        prop_assert_eq!(m.len(), truth.len());
        for (item, count) in m.iter() {
            prop_assert_eq!(Some(&count), truth.get(&item));
        }
    }

    #[test]
    fn gk_rank_error_bound(data in values(), phi in 0.0f64..=1.0) {
        prop_assume!(!data.is_empty());
        let mut h = LogHistogram::new(0.01);
        data.iter().for_each(|&x| h.add(x));
        let mut sorted = data.clone();
        sorted.sort_by(f64::total_cmp);
        let truth = sorted[(phi * (sorted.len() - 1) as f64) as usize];
        let got = h.quantile(phi).unwrap();
        let alpha = h.mapping().relative_accuracy();
        // Below the zero bucket's edge the error is absolute.
        let bound = alpha * truth.abs() + pol_sketch::loghist::MIN_MAGNITUDE;
        prop_assert!((got - truth).abs() <= bound * (1.0 + 1e-9), "{got} vs {truth}");
    }

    #[test]
    fn tdigest_between_min_max(data in values(), phi in 0.0f64..=1.0) {
        prop_assume!(!data.is_empty());
        let mut h = LogHistogram::new(0.01);
        data.iter().for_each(|&x| h.add(x));
        let v = h.quantile(phi).unwrap();
        let alpha = h.mapping().relative_accuracy();
        let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let slack = |x: f64| alpha * x.abs() + pol_sketch::loghist::MIN_MAGNITUDE;
        prop_assert!(v >= lo - slack(lo) && v <= hi + slack(hi), "{v} outside [{lo}, {hi}]");
    }
}
