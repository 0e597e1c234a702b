//! Slice-by-8 [`Crc64`] against the bytewise loop it replaced, kept here
//! as the reference: random lengths, every start alignment, every
//! streaming split point, and the catalogue's check value.

use pol_sketch::crc64::{crc64, Crc64};
use proptest::prelude::*;

/// CRC-64/XZ one bit at a time: reflected polynomial, init and xorout `!0`.
fn reference(bytes: &[u8]) -> u64 {
    let mut crc = !0u64;
    for &b in bytes {
        crc ^= u64::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xC96C_5795_D787_0F42 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

#[test]
fn reference_has_the_standard_check_value() {
    assert_eq!(reference(b"123456789"), 0x995D_C9BB_DF19_39FA);
    assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
}

#[test]
fn every_alignment_and_length_up_to_four_blocks() {
    let data: Vec<u8> = (0..48u32).map(|i| (i * 151 + 7) as u8).collect();
    for start in 0..8 {
        for end in start..=data.len() {
            let slice = &data[start..end];
            assert_eq!(crc64(slice), reference(slice), "{start}..{end}");
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
}
