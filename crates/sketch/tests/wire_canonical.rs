//! The canonical form: on arbitrary add/merge histories, what decodes
//! re-encodes to the same bytes, and a quantile read off the bytes is the
//! summary's own answer.
//!
//! The wire's varint kernels work a word at a time; the byte loop they
//! replaced is kept here as their oracle, and every `Wire::skip` — and
//! the readers that answer a quantile or a top-N straight off the bytes
//! — is held to its `Wire::decode` on valid, cut and corrupted encodings.

use pol_sketch::wire::{
    get_varint, loghist_quantiles, put_varint, put_varints, skip_varint, skip_varints,
    tally_heaviest, Wire, WireError,
};
use pol_sketch::{
    AngleHistogram, Circular, Distinct, HyperLogLog, LogHistogram, MergeSketch, SecondsMoments,
    SpeedMoments, Tally,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Batches of observations, quantised so equal values occur, of both
/// signs: long enough to take a summary past its inline buckets.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn loghist_decode_re_encodes_to_the_same_bytes(
        h in history(),
        tail in 0usize..600,
        fine in 0u8..2,
    ) {
        // The fine summary keeps about every value in a bucket of its
        // own, so its bucket count needs a two-byte varint.
        let alpha = if fine == 1 { 0.0005 } else { 0.01 };
        let q = replay(&h, tail, || LogHistogram::new(alpha), LogHistogram::add);
        let bytes = encoded(&q);
        prop_assert_eq!(&bytes, &reencoded::<LogHistogram>(&bytes));
        let n: usize = h.iter().map(Vec::len).sum();
        prop_assert_eq!(q.count(), (n + tail.min(n)) as u64);
    }

    #[test]
    fn quantiles_off_the_bytes_are_the_summarys_query(
        h in history(),
        tail in 0usize..600,
        coarse in 0u8..2,
        phi in 0.0f64..=1.0,
    ) {
        // The coarse summary folds hard: its counts take two bytes.
        let alpha = if coarse == 1 { 0.3 } else { 0.01 };
        let q = replay(&h, tail, || LogHistogram::new(alpha), LogHistogram::add);
        let phis = [0.0, phi, 0.5, 1.0];
        let want = phis.map(|p| q.quantile(p));
        prop_assert_eq!(q.quantiles(phis), want);
        let bytes = encoded(&q);
        prop_assert_eq!(loghist_quantiles(&mut &bytes[..], phis), Ok(want));
        skip_agrees_with_decode::<LogHistogram>(&bytes)?;
    }

    #[test]
    fn exact_sums_decode_re_encodes_to_the_same_bytes(h in history(), tail in 0usize..600) {
        let speed = replay(&h, tail, SpeedMoments::new, SpeedMoments::add);
        let seconds = replay(&h, tail, SecondsMoments::new, |m, x| m.add_fixed((x * 1e3) as i64));
        let course = replay(&h, tail, Circular::new, Circular::add);
        let bytes = encoded(&speed);
        prop_assert_eq!(&bytes, &reencoded::<SpeedMoments>(&bytes));
        let bytes = encoded(&seconds);
        prop_assert_eq!(&bytes, &reencoded::<SecondsMoments>(&bytes));
        let bytes = encoded(&course);
        prop_assert_eq!(&bytes, &reencoded::<Circular>(&bytes));
    }
}

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
/// between values, and on values a skip steps over.
const DECODE_ONLY: [&str; 4] = [
    "moments max out of range",
    "loghist bucket invalid",
    "tally item overflow",
    "tally zero count",
];

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

/// `loghist_quantiles` is `decode` then `quantiles`, errors included.
fn loghist_quantiles_agree(bytes: &[u8]) -> Result<(), TestCaseError> {
    const PHIS: [f64; 3] = [0.1, 0.5, 0.9];
    let (mut read, mut decoded) = (bytes, bytes);
    let want = LogHistogram::decode(&mut decoded).map(|q| q.quantiles(PHIS));
    let got = loghist_quantiles(&mut read, PHIS);
    prop_assert_eq!(got, want.clone(), "{:02x?}", bytes);
    if want.is_ok() {
        prop_assert_eq!(read, decoded);
    }
    Ok(())
}

/// `tally_heaviest` is `decode` then `top(8)`, errors included.
fn heaviest_agrees(bytes: &[u8]) -> Result<(), TestCaseError> {
    let (mut read, mut decoded) = (bytes, bytes);
    let want = Tally::decode(&mut decoded).map(|t| t.top(8));
    let got = tally_heaviest::<8>(&mut read).map(|h| h.as_slice().to_vec());
    prop_assert_eq!(&got, &want, "{:02x?}", bytes);
    if want.is_ok() {
        prop_assert_eq!(read, decoded);
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
        spread in 1u64..12,
        precision in 4u8..8,
        damage in arb_damage(),
    ) {
        let as_f64 = |v: &u64| (*v % 100_000) as f64 / 8.0 - 500.0;
        let mut speed = SpeedMoments::new();
        let mut seconds = SecondsMoments::new();
        let mut circular = Circular::new();
        let mut bins = AngleHistogram::new();
        let mut quantiles = LogHistogram::new(0.01);
        let mut hll = HyperLogLog::new(precision);
        let mut distinct = Distinct::new();
        let mut top = Tally::new();
        for v in &values {
            speed.add(as_f64(v));
            seconds.add_fixed(*v as i64 - (1 << 31));
            circular.add((v % 360) as f64);
            bins.add((v % 360) as f64);
            quantiles.add(as_f64(v));
            hll.add(v);
            distinct.add(v);
            top.add(v % (2 * spread) + v % 3 * 100_000_000_000);
        }
        skip_agrees_with_decode::<SpeedMoments>(&damaged(&speed, damage))?;
        skip_agrees_with_decode::<SecondsMoments>(&damaged(&seconds, damage))?;
        skip_agrees_with_decode::<Circular>(&damaged(&circular, damage))?;
        skip_agrees_with_decode::<AngleHistogram>(&damaged(&bins, damage))?;
        skip_agrees_with_decode::<HyperLogLog>(&damaged(&hll, damage))?;
        skip_agrees_with_decode::<Distinct>(&damaged(&distinct, damage))?;
        let quantile_bytes = damaged(&quantiles, damage);
        skip_agrees_with_decode::<LogHistogram>(&quantile_bytes)?;
        loghist_quantiles_agree(&quantile_bytes)?;
        let top_bytes = damaged(&top, damage);
        skip_agrees_with_decode::<Tally>(&top_bytes)?;
        heaviest_agrees(&top_bytes)?;
    }

    #[test]
    fn every_skip_agrees_with_its_decode_on_arbitrary_bytes(bytes in arb_varint_bytes()) {
        skip_agrees_with_decode::<SpeedMoments>(&bytes)?;
        skip_agrees_with_decode::<Circular>(&bytes)?;
        skip_agrees_with_decode::<AngleHistogram>(&bytes)?;
        skip_agrees_with_decode::<LogHistogram>(&bytes)?;
        skip_agrees_with_decode::<HyperLogLog>(&bytes)?;
        skip_agrees_with_decode::<Distinct>(&bytes)?;
        skip_agrees_with_decode::<Tally>(&bytes)?;
        loghist_quantiles_agree(&bytes)?;
        heaviest_agrees(&bytes)?;
    }
}
