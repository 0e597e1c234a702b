//! [`Crc64`] — slice-by-8, and carry-less multiply on long inputs where
//! the CPU has it — against the bytewise loop the tables replaced, kept
//! here as the reference: every length across the kernels' cut-over at
//! every 16-byte alignment, random lengths up to 64 KiB, streaming splits
//! that enter and leave the wide kernel mid-digest, and the catalogue's
//! check value.

use pol_sketch::crc64::{crc64, kernel, Crc64};
use proptest::prelude::*;

/// The reflected ECMA-182 polynomial.
const POLY: u64 = 0xC96C_5795_D787_0F42;

/// CRC-64/XZ one bit at a time from a raw state: no init, no xorout.
fn reference_update(mut crc: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        crc ^= u64::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
        }
    }
    crc
}

/// CRC-64/XZ one bit at a time: reflected polynomial, init and xorout `!0`.
fn reference(bytes: &[u8]) -> u64 {
    !reference_update(!0, bytes)
}

/// Deterministic bytes with no period a fold could hide behind.
fn noise(len: usize) -> Vec<u8> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

#[test]
fn reference_has_the_standard_check_value() {
    assert_eq!(reference(b"123456789"), 0x995D_C9BB_DF19_39FA);
    assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
}

#[test]
fn every_alignment_and_length_across_the_cut_over() {
    // Lengths 0..=1 100 cover the table-only range, the cut-over, whole
    // 128-byte steps, the 16-byte lanes after them and the < 16-byte
    // tail; 16 starts cover every alignment of a 16-byte load.
    let data = noise(16 + 1_100);
    for start in 0..16 {
        let mut want = !0u64;
        for len in 0..=1_100 {
            let slice = &data[start..start + len];
            assert_eq!(crc64(slice), !want, "{start}+{len} ({})", kernel());
            if let Some(&b) = data.get(start + len) {
                want = reference_update(want, &[b]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_buffers_at_every_split_point(
        data in prop::collection::vec(0u8..=255, 0..300),
        start in 0usize..8,
    ) {
        let data = data.get(start..).unwrap_or(&[]);
        let want = reference(data);
        prop_assert_eq!(crc64(data), want);
        for split in 0..=data.len() {
            let (head, tail) = data.split_at(split);
            let mut d = Crc64::new();
            d.update(head);
            d.update(tail);
            prop_assert_eq!(d.finish(), want, "split at {}", split);
        }
    }

    #[test]
    fn many_small_updates(data in prop::collection::vec(0u8..=255, 0..2000), step in 1usize..23) {
        let mut d = Crc64::new();
        for piece in data.chunks(step) {
            d.update(piece);
        }
        prop_assert_eq!(d.finish(), reference(&data));
    }

    #[test]
    fn long_buffers_in_up_to_eight_updates(
        data in prop::collection::vec(0u8..=255, 0..65_536),
        start in 0usize..16,
        cuts in prop::collection::vec(0usize..65_536, 0..8),
    ) {
        let data = data.get(start..).unwrap_or(&[]);
        let want = reference(data);
        prop_assert_eq!(crc64(data), want);
        // Up to seven cut points, so a digest enters the wide kernel with
        // a worn state and leaves it mid-stream.
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut d = Crc64::new();
        let mut from = 0;
        for to in cuts.into_iter().chain([data.len()]) {
            d.update(&data[from..to]);
            from = to;
        }
        prop_assert_eq!(d.finish(), want, "{} bytes", data.len());
    }
}
