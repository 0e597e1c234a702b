//! Differential test of the word-packed [`BitReader`] / [`BitWriter`]
//! against the one-`bool`-per-bit reader they replaced, kept here as the
//! oracle: arbitrary payload strings (longer than the inline words hold,
//! with characters outside the armouring alphabet), fill values and
//! read / skip / `read_text` sequences must give the same values, the same
//! errors and the same position afterwards.

use pol_ais::sixbit::{BitReader, BitWriter, SixBitError};
use proptest::prelude::*;

/// The seed's reader: a `Vec<bool>` filled and read one bit at a time.
struct OracleReader {
    bits: Vec<bool>,
    pos: usize,
}

impl OracleReader {
    fn from_payload(payload: &str, fill: u8) -> Result<OracleReader, SixBitError> {
        let mut bits = Vec::new();
        for c in payload.chars() {
            let v = match c as u32 {
                v @ 0x30..=0x57 => v - 48,
                v @ 0x60..=0x77 => v - 56,
                _ => return Err(SixBitError::BadArmorChar(c)),
            };
            bits.extend((0..6).rev().map(|i| (v >> i) & 1 == 1));
        }
        bits.truncate(bits.len().saturating_sub(fill as usize));
        Ok(OracleReader { bits, pos: 0 })
    }

    fn remaining(&self) -> usize {
        self.bits.len() - self.pos
    }

    fn skip(&mut self, n: usize) -> Result<(), SixBitError> {
        let available = self.remaining();
        if available < n {
            return Err(SixBitError::OutOfBits {
                wanted: n,
                available,
            });
        }
        self.pos += n;
        Ok(())
    }

    fn read_u64(&mut self, n: usize) -> Result<u64, SixBitError> {
        if n > 64 {
            return Err(SixBitError::FieldTooWide(n));
        }
        let start = self.pos;
        self.skip(n)?;
        Ok(self.bits[start..self.pos]
            .iter()
            .fold(0, |v, &b| (v << 1) | b as u64))
    }

    fn read_i64(&mut self, n: usize) -> Result<i64, SixBitError> {
        let raw = self.read_u64(n)? as i128;
        let negative = n > 0 && raw >> (n - 1) == 1;
        Ok((raw - if negative { 1i128 << n } else { 0 }) as i64)
    }

    fn read_text(&mut self, chars: usize) -> Result<String, SixBitError> {
        let mut s = String::new();
        for _ in 0..chars {
            let v = self.read_u64(6)? as u8;
            s.push(if v < 32 { v + 64 } else { v } as char);
        }
        Ok(s.trim_end_matches(['@', ' ']).to_string())
    }
}

/// A payload of armoured characters with, sometimes, an arbitrary
/// character (multi-byte ones included) spliced in.
fn arb_payload() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(0u8..64, 0..400),
        prop::option::of((0usize..400, 0u32..0x2000)),
    )
        .prop_map(|(values, splice)| {
            let mut chars: Vec<char> = values
                .into_iter()
                .map(|v| (if v < 40 { v + 48 } else { v + 56 }) as char)
                .collect();
            if let Some((at, code)) = splice {
                chars.insert(at.min(chars.len()), char::from_u32(code).unwrap_or('!'));
            }
            chars.into_iter().collect()
        })
}

/// Mostly the protocol's 0–5, sometimes more bits than the payload has.
fn arb_fill() -> impl Strategy<Value = u8> {
    (0u8..8, 0u8..6).prop_map(|(fill, scale)| if scale == 0 { fill * 36 } else { fill })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn packed_reader_agrees_with_the_bit_per_bool_reader(
        payload in arb_payload(),
        fill in arb_fill(),
        ops in prop::collection::vec((0u8..4, 0usize..70), 0..40),
    ) {
        let (mut packed, mut oracle) = match (
            BitReader::from_payload(&payload, fill),
            OracleReader::from_payload(&payload, fill),
        ) {
            (Ok(packed), Ok(oracle)) => (packed, oracle),
            (packed, oracle) => {
                prop_assert_eq!(packed.err(), oracle.err(), "payload {:?}", payload);
                return Ok(());
            }
        };
        for (op, n) in ops {
            prop_assert_eq!(packed.remaining(), oracle.remaining());
            match op {
                0 => prop_assert_eq!(packed.read_u64(n), oracle.read_u64(n), "read_u64({})", n),
                1 => prop_assert_eq!(packed.read_i64(n), oracle.read_i64(n), "read_i64({})", n),
                2 => prop_assert_eq!(packed.skip(n), oracle.skip(n), "skip({})", n),
                _ => prop_assert_eq!(packed.read_text(n), oracle.read_text(n), "read_text({})", n),
            }
        }
        prop_assert_eq!(packed.remaining(), oracle.remaining());
    }

    #[test]
    fn packed_writer_reads_back_through_the_oracle(
        fields in prop::collection::vec((0u64..u64::MAX, 0usize..65), 0..60),
    ) {
        let mut w = BitWriter::new();
        for &(v, n) in &fields {
            w.write_i64(v as i64, n);
        }
        let total: usize = fields.iter().map(|f| f.1).sum();
        prop_assert_eq!(w.len(), total);
        let (payload, fill) = w.into_payload();
        prop_assert_eq!(payload.len() * 6 - fill as usize, total);
        let mut oracle = OracleReader::from_payload(&payload, fill).expect("armoured");
        for (v, n) in fields {
            let low = if n == 64 { v } else { v & ((1u64 << n) - 1) };
            prop_assert_eq!(oracle.read_u64(n), Ok(low), "{} bits", n);
        }
        prop_assert_eq!(oracle.remaining(), 0);
    }
}

#[test]
fn reads_are_total_at_the_width_limits() {
    let mut w = BitWriter::new();
    w.write_i64(i64::MIN, 64);
    w.write_i64(-1, 64);
    let (payload, fill) = w.into_payload();
    let mut r = BitReader::from_payload(&payload, fill).unwrap();
    assert_eq!(r.read_i64(0), Ok(0));
    assert_eq!(r.read_i64(64), Ok(i64::MIN));
    assert_eq!(r.read_u64(65), Err(SixBitError::FieldTooWide(65)));
    assert_eq!(
        r.read_i64(usize::MAX),
        Err(SixBitError::FieldTooWide(usize::MAX))
    );
    assert_eq!(r.read_i64(64), Ok(-1));
    assert_eq!(r.remaining(), 0);
}

#[test]
fn bad_input_names_the_offending_character() {
    for (payload, bad) in [
        ("15X0", 'X'),
        ("0é", 'é'),
        ("000000000\u{2603}0", '\u{2603}'),
    ] {
        assert_eq!(
            BitReader::from_payload(payload, 0).err(),
            Some(SixBitError::BadArmorChar(bad)),
            "{payload:?}"
        );
    }
    // More fill than bits: an empty reader, not an error.
    assert_eq!(BitReader::from_payload("00", 200).unwrap().remaining(), 0);
}
