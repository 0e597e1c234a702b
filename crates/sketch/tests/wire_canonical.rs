//! The quantile sketches encode through a borrowed view (no clone, no
//! flush of the sketch itself). These properties hold that view to the
//! encoding it replaced — clone the sketch, flush the clone, write its
//! parts — on arbitrary add/merge histories, and pin the canonical form:
//! what decodes re-encodes to the same bytes.
//!
//! The wire's varint kernels work a word at a time; the byte loop they
//! replaced is kept here as their oracle, and every `Wire::skip` — and
//! the readers that answer a quantile or a top-N straight off the bytes
//! — is held to its `Wire::decode` on valid, cut and corrupted encodings.

use pol_sketch::wire::{
    get_varint, gk_quantiles, put_f64, put_varint, put_varints, skip_varint, skip_varints,
    spacesaving_heaviest, Wire, WireError,
};
use pol_sketch::{
    AngleHistogram, Circular, Distinct, GkSketch, HyperLogLog, MergeSketch, SpaceSaving, TDigest,
    Welford,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

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
    fn quantiles_are_the_standard_gk_query(
        h in history(),
        tail in 0usize..600,
        coarse in 0u8..2,
        phi in 0.0f64..=1.0,
    ) {
        // The coarse sketch folds hard: its `g` and `delta` take two
        // bytes on the wire.
        let epsilon = if coarse == 1 { 0.45 } else { 0.02 };
        let g = replay(&h, tail, || GkSketch::new(epsilon), GkSketch::add);
        let phis = [0.0, phi, 0.5, 1.0];
        let want = phis.map(|p| gk_query(&g, p));
        // Through the flushed view, through a flush, and off the bytes.
        prop_assert_eq!(g.quantiles(phis), want);
        prop_assert_eq!(phis.map(|p| g.clone().quantile(p)), want);
        let bytes = encoded(&g);
        prop_assert_eq!(gk_quantiles(&mut &bytes[..], phis), Ok(want));
        skip_agrees_with_decode::<GkSketch>(&bytes)?;
    }

    #[test]
    fn tdigest_borrowed_encode_is_the_compressed_clone(h in history(), tail in 0usize..600) {
        let t = replay(&h, tail, || TDigest::new(100.0), TDigest::add);
        let bytes = encoded(&t);
        prop_assert_eq!(&bytes, &tdigest_clone_and_compress(&t));
        prop_assert_eq!(&bytes, &reencoded::<TDigest>(&bytes));
    }
}

// ---------------------------------------------------------------------
// The word-at-a-time varint kernels against the byte loop they replaced.
// ---------------------------------------------------------------------

/// The byte-at-a-time LEB128 writer: the oracle of `put_varint`.
fn put_varint_bytewise(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// The byte-at-a-time LEB128 reader: the oracle of `get_varint` and
/// `skip_varint`, errors and consumed input included.
fn get_varint_bytewise(input: &mut &[u8]) -> Result<u64, WireError> {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let (&byte, rest) = input.split_first().ok_or(WireError("varint truncated"))?;
        *input = rest;
        if shift >= 64 {
            return Err(WireError("varint overflow"));
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Any `u64`, its bit length uniform: every varint length is as likely.
fn arb_u64() -> impl Strategy<Value = u64> {
    let half = 0u64..=u64::from(u32::MAX);
    (half.clone(), half, 0u32..64).prop_map(|(hi, lo, shift)| ((hi << 32) | lo) >> shift)
}

/// Up to 24 bytes, three in four with the continuation flag set: short
/// and long varints, runs of ten and eleven flagged bytes, truncations.
fn arb_varint_bytes() -> impl Strategy<Value = Vec<u8>> {
    let byte = (0u8..=255, 0u8..4).prop_map(|(b, flag)| if flag > 0 { b | 0x80 } else { b });
    prop::collection::vec(byte, 0..=24)
}

/// `get_varint` and `skip_varint` on `bytes` against the byte loop: the
/// same value or error, and the same input left behind either way.
fn reads_as_the_byte_loop(bytes: &[u8]) -> Result<(), TestCaseError> {
    let (mut fast, mut slow, mut skipped) = (bytes, bytes, bytes);
    let want = get_varint_bytewise(&mut slow);
    prop_assert_eq!(get_varint(&mut fast), want.clone(), "{:02x?}", bytes);
    prop_assert_eq!(fast, slow, "get_varint left {:02x?}", bytes);
    prop_assert_eq!(skip_varint(&mut skipped), want.map(drop), "{:02x?}", bytes);
    prop_assert_eq!(skipped, slow, "skip_varint left {:02x?}", bytes);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn put_varint_writes_the_byte_loops_bytes(v in arb_u64(), before in 0usize..9) {
        let mut fast = vec![0xAA; before];
        let mut slow = fast.clone();
        put_varint(&mut fast, v);
        put_varint_bytewise(&mut slow, v);
        prop_assert_eq!(&fast, &slow, "{:#x}", v);
        // The slice form is the values one after another.
        let values = [v, v >> 9, v >> 33, 0, v.rotate_left(7)];
        let mut many = vec![0xAA; before];
        put_varints(&mut many, &values);
        let mut each = vec![0xAA; before];
        values.iter().for_each(|&x| put_varint_bytewise(&mut each, x));
        prop_assert_eq!(many, each, "{:#x}", v);
    }

    #[test]
    fn get_and_skip_varint_are_the_byte_loop(bytes in arb_varint_bytes()) {
        reads_as_the_byte_loop(&bytes)?;
    }

    #[test]
    fn skip_varints_is_the_byte_loop_n_times(
        bytes in prop::collection::vec((0u8..=255, 0u8..3), 0..=40),
        n in 0usize..12,
    ) {
        // One in three bytes ends a varint: words hold several.
        let bytes: Vec<u8> = (bytes.iter())
            .map(|&(b, flag)| if flag > 0 { b | 0x80 } else { b & 0x7F })
            .collect();
        let (mut fast, mut slow) = (&bytes[..], &bytes[..]);
        let want = (0..n).try_for_each(|_| get_varint_bytewise(&mut slow).map(drop));
        prop_assert_eq!(skip_varints(&mut fast, n), want, "{} of {:02x?}", n, bytes);
        prop_assert_eq!(fast, slow, "{} of {:02x?}", n, bytes);
    }

    #[test]
    fn a_written_varint_reads_back_behind_any_bytes(v in arb_u64(), after in arb_varint_bytes()) {
        let mut bytes = Vec::new();
        put_varint(&mut bytes, v);
        let len = bytes.len();
        bytes.extend_from_slice(&after);
        reads_as_the_byte_loop(&bytes)?;
        let mut input = &bytes[..];
        prop_assert_eq!(get_varint(&mut input), Ok(v));
        prop_assert_eq!(input.len(), bytes.len() - len);
    }
}

#[test]
fn varints_at_every_length_boundary_are_the_byte_loops() {
    let edges = (0..64).flat_map(|k| {
        let p = 1u64 << k;
        [p - 1, p, p + 1]
    });
    for v in edges.chain([u64::MAX, u64::MAX - 1, 1 << 63 | 1]) {
        let (mut fast, mut slow) = (Vec::new(), Vec::new());
        put_varint(&mut fast, v);
        put_varint_bytewise(&mut slow, v);
        assert_eq!(fast, slow, "{v:#x}");
        let mut input = &fast[..];
        assert_eq!(get_varint(&mut input), Ok(v));
        assert!(input.is_empty());
    }
}

#[test]
fn runs_of_flagged_bytes_of_every_length_read_as_the_byte_loop() {
    // Every input length 0..=24, every run of continuation bytes it can
    // hold (ten is the longest a varint has, eleven overflows), ended by
    // a byte without the flag or by the end of the input.
    for len in 0..=24usize {
        for run in 0..=len {
            for flagged in [0x80u8, 0xFF, 0x81] {
                let mut bytes: Vec<u8> = (0..run)
                    .map(|i| flagged | (i as u8).wrapping_mul(37))
                    .collect();
                bytes.extend((run..len).map(|i| (i as u8).wrapping_mul(11) & 0x7F));
                reads_as_the_byte_loop(&bytes).expect("agrees with the byte loop");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Every `Wire::skip`, and the readers that answer off the bytes, against
// `Wire::decode` on valid encodings, cut and corrupted.
// ---------------------------------------------------------------------

/// The errors a decode raises past what a skip checks: constraints
/// between values.
const DECODE_ONLY: [&str; 2] = ["gk tuples not sorted", "tdigest centroids not sorted"];

/// `T::skip` stops where `T::decode` does when the decode succeeds, and
/// fails with the decode's error when it fails.
fn skip_agrees_with_decode<T: Wire>(bytes: &[u8]) -> Result<(), TestCaseError> {
    let (mut skipped, mut decoded) = (bytes, bytes);
    match (T::skip(&mut skipped), T::decode(&mut decoded).err()) {
        (Ok(()), None) => prop_assert_eq!(skipped, decoded, "{:02x?}", bytes),
        (Err(e), decode) => prop_assert_eq!(decode, Some(e), "{:02x?}", bytes),
        (Ok(()), Some(e)) => {
            prop_assert!(DECODE_ONLY.contains(&e.0), "skip passed, decode: {}", e)
        }
    }
    Ok(())
}

/// The GK query `GkSketch::quantile` answered before it shared one fold
/// with the readers: the oracle of that fold.
fn gk_query(g: &GkSketch, phi: f64) -> Option<f64> {
    let (epsilon, n, tuples) = g.clone().parts();
    let target = (phi * n as f64).ceil().max(1.0) as u64;
    let allowed = (epsilon * n as f64) as u64;
    let mut rmin = 0u64;
    let mut answer = tuples.first()?.0;
    for (v, g, delta) in tuples {
        rmin += g;
        if rmin + delta > target + allowed {
            return Some(answer);
        }
        answer = v;
    }
    Some(answer)
}

/// `gk_quantiles` is `decode` then `quantile` of each, errors included.
fn gk_quantiles_agree(bytes: &[u8]) -> Result<(), TestCaseError> {
    const PHIS: [f64; 3] = [0.1, 0.5, 0.9];
    let (mut read, mut decoded) = (bytes, bytes);
    let want = GkSketch::decode(&mut decoded).map(|mut g| PHIS.map(|phi| g.quantile(phi)));
    let got = gk_quantiles(&mut read, PHIS);
    prop_assert_eq!(got, want.clone(), "{:02x?}", bytes);
    if want.is_ok() {
        prop_assert_eq!(read, decoded);
    }
    Ok(())
}

/// `spacesaving_heaviest` is `decode` then `top(8)`, errors included,
/// wherever the bytes hold each item once (the decoded sketch then holds
/// every item the bytes list).
fn heaviest_agrees(bytes: &[u8]) -> Result<(), TestCaseError> {
    let (mut read, mut decoded) = (bytes, bytes);
    let want = SpaceSaving::<u64>::decode(&mut decoded);
    let got = spacesaving_heaviest::<8>(&mut read);
    match (got, want) {
        (Err(got), want) => prop_assert_eq!(Some(got), want.err()),
        (Ok(_), Err(e)) => prop_assert!(false, "read bytes the decode refused: {}", e),
        (Ok(got), Ok(sketch)) => {
            prop_assert_eq!(read, decoded);
            let mut header = bytes;
            let listed = [(); 3].map(|_| get_varint(&mut header).unwrap_or(0))[2];
            if sketch.len() as u64 == listed {
                prop_assert_eq!(got.as_slice(), &sketch.top(8)[..]);
            }
        }
    }
    Ok(())
}

/// The encoding of `sketch`, then changed by `damage`: kept whole, cut,
/// or one byte XORed — followed by bytes of another value.
fn damaged<T: Wire>(sketch: &T, (op, at, mask): (u8, usize, u8)) -> Vec<u8> {
    let mut bytes = encoded(sketch);
    match op {
        1 => bytes.truncate(at % (bytes.len() + 1)),
        2 if !bytes.is_empty() => {
            let i = at % bytes.len();
            bytes[i] ^= mask;
        }
        _ => {}
    }
    bytes.extend_from_slice(b"\xffnext");
    bytes
}

fn arb_damage() -> impl Strategy<Value = (u8, usize, u8)> {
    (0u8..3, 0usize..4096, 1u8..=255)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_skip_advances_as_far_as_its_decode(
        values in prop::collection::vec(0u64..=u64::from(u32::MAX), 0..160),
        capacity in 1usize..12,
        precision in 4u8..8,
        damage in arb_damage(),
    ) {
        let as_f64 = |v: &u64| (*v % 100_000) as f64 / 8.0;
        let mut welford = Welford::new();
        let mut circular = Circular::new();
        let mut bins = AngleHistogram::new();
        let mut gk = GkSketch::new(0.02);
        let mut td = TDigest::new(100.0);
        let mut hll = HyperLogLog::new(precision);
        let mut distinct = Distinct::new();
        let mut top = SpaceSaving::<u64>::new(capacity);
        for v in &values {
            welford.add(as_f64(v));
            circular.add((v % 360) as f64);
            bins.add((v % 360) as f64);
            gk.add(as_f64(v));
            td.add(as_f64(v));
            hll.add(v);
            distinct.add(v);
            top.add(v % 20 + v % 3 * 100_000_000_000);
        }
        skip_agrees_with_decode::<Welford>(&damaged(&welford, damage))?;
        skip_agrees_with_decode::<Circular>(&damaged(&circular, damage))?;
        skip_agrees_with_decode::<AngleHistogram>(&damaged(&bins, damage))?;
        skip_agrees_with_decode::<TDigest>(&damaged(&td, damage))?;
        skip_agrees_with_decode::<HyperLogLog>(&damaged(&hll, damage))?;
        skip_agrees_with_decode::<Distinct>(&damaged(&distinct, damage))?;
        let gk_bytes = damaged(&gk, damage);
        skip_agrees_with_decode::<GkSketch>(&gk_bytes)?;
        gk_quantiles_agree(&gk_bytes)?;
        let top_bytes = damaged(&top, damage);
        skip_agrees_with_decode::<SpaceSaving<u64>>(&top_bytes)?;
        heaviest_agrees(&top_bytes)?;
    }

    #[test]
    fn every_skip_agrees_with_its_decode_on_arbitrary_bytes(bytes in arb_varint_bytes()) {
        skip_agrees_with_decode::<Welford>(&bytes)?;
        skip_agrees_with_decode::<Circular>(&bytes)?;
        skip_agrees_with_decode::<AngleHistogram>(&bytes)?;
        skip_agrees_with_decode::<GkSketch>(&bytes)?;
        skip_agrees_with_decode::<TDigest>(&bytes)?;
        skip_agrees_with_decode::<HyperLogLog>(&bytes)?;
        skip_agrees_with_decode::<Distinct>(&bytes)?;
        skip_agrees_with_decode::<SpaceSaving<u64>>(&bytes)?;
        gk_quantiles_agree(&bytes)?;
        heaviest_agrees(&bytes)?;
    }
}
