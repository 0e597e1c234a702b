//! The quantile sketches encode through a borrowed view (no clone, no
//! flush of the sketch itself). These properties hold that view to the
//! encoding it replaced — clone the sketch, flush the clone, write its
//! parts — on arbitrary add/merge histories, and pin the canonical form:
//! what decodes re-encodes to the same bytes.

use pol_sketch::wire::{put_f64, put_varint, Wire};
use pol_sketch::{GkSketch, MergeSketch, TDigest};
use proptest::prelude::*;

/// Batches of observations, quantised so equal values occur. A batch is
/// long enough to cross both sketches' flush points (512 and 500), so
/// histories mix retained tuples with a pending buffer.
fn history() -> impl Strategy<Value = Vec<Vec<f64>>> {
    let value = (-4_000i32..4_000).prop_map(|q| f64::from(q) / 4.0);
    prop::collection::vec(prop::collection::vec(value, 0..700), 1..5)
}

/// One sketch per batch, merged left to right, the first `tail` values
/// added again after the last merge.
fn replay<S: MergeSketch>(
    history: &[Vec<f64>],
    tail: usize,
    new: impl Fn() -> S,
    add: impl Fn(&mut S, f64),
) -> S {
    let mut acc = new();
    for batch in history {
        let mut s = new();
        batch.iter().for_each(|&x| add(&mut s, x));
        acc.merge(&s);
    }
    history
        .iter()
        .flatten()
        .take(tail)
        .for_each(|&x| add(&mut acc, x));
    acc
}

fn encoded<T: Wire>(v: &T) -> Vec<u8> {
    let mut out = Vec::new();
    v.encode(&mut out);
    out
}

fn reencoded<T: Wire>(bytes: &[u8]) -> Vec<u8> {
    let mut input = bytes;
    let back = T::decode(&mut input).expect("own encoding decodes");
    assert!(input.is_empty(), "trailing bytes");
    encoded(&back)
}

/// The encoding before the borrowed view: flush a clone, write its parts.
fn gk_clone_and_flush(g: &GkSketch) -> Vec<u8> {
    let (epsilon, n, tuples) = g.clone().parts();
    let mut out = Vec::new();
    put_f64(&mut out, epsilon);
    put_varint(&mut out, n);
    put_varint(&mut out, tuples.len() as u64);
    for (v, g, delta) in tuples {
        put_f64(&mut out, v);
        put_varint(&mut out, g);
        put_varint(&mut out, delta);
    }
    out
}

fn tdigest_clone_and_compress(t: &TDigest) -> Vec<u8> {
    let (compression, total, min, max, centroids) = t.clone().parts();
    let mut out = Vec::new();
    for x in [compression, total, min, max] {
        put_f64(&mut out, x);
    }
    put_varint(&mut out, centroids.len() as u64);
    for (mean, weight) in centroids {
        put_f64(&mut out, mean);
        put_f64(&mut out, weight);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gk_borrowed_encode_is_the_flushed_clone(
        h in history(),
        tail in 0usize..600,
        fine in 0u8..2,
    ) {
        // The fine sketch folds next to nothing, so its tuple count needs
        // a two-byte varint; the pipeline's ε keeps it to one.
        let epsilon = if fine == 1 { 0.001 } else { 0.02 };
        let g = replay(&h, tail, || GkSketch::new(epsilon), GkSketch::add);
        let bytes = encoded(&g);
        prop_assert_eq!(&bytes, &gk_clone_and_flush(&g));
        prop_assert_eq!(&bytes, &reencoded::<GkSketch>(&bytes));
        // Encoding left the sketch as it was: it still counts its buffer.
        let n: usize = h.iter().map(Vec::len).sum();
        prop_assert_eq!(g.count(), (n + tail.min(n)) as u64);
    }

    #[test]
    fn tdigest_borrowed_encode_is_the_compressed_clone(h in history(), tail in 0usize..600) {
        let t = replay(&h, tail, || TDigest::new(100.0), TDigest::add);
        let bytes = encoded(&t);
        prop_assert_eq!(&bytes, &tdigest_clone_and_compress(&t));
        prop_assert_eq!(&bytes, &reencoded::<TDigest>(&bytes));
    }
}
