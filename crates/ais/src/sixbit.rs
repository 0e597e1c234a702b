//! The 6-bit layer of the AIVDM wire format.
//!
//! AIS payloads are bit strings transported as printable ASCII: each
//! character carries 6 bits ("payload armouring", values 0–63 mapped to the
//! ranges `0x30..=0x57` and `0x60..=0x77`). Text fields inside the payload
//! use a separate 6-bit ASCII alphabet (`@` = 0, `A`–`Z`, digits, space…).
//!
//! [`BitReader`] and [`BitWriter`] share one representation: the bit string
//! packed big-endian into `u64` words, stream bit `i` at bit `63 - i % 64`
//! of word `i / 64`. Sixteen words live inline — 1 024 bits, above the
//! 1 008-bit five-slot maximum of an AIS message — so neither side touches
//! the heap on protocol-sized payloads; longer ones spill to a `Vec<u64>`
//! with the same layout.

use std::fmt;

/// Error for malformed 6-bit data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SixBitError {
    /// A payload character outside the armouring alphabet.
    BadArmorChar(char),
    /// A read past the end of the bit buffer.
    OutOfBits {
        /// Bits requested by the read.
        wanted: usize,
        /// Bits remaining in the buffer.
        available: usize,
    },
    /// An integer read wider than the 64 bits it is returned in.
    FieldTooWide(usize),
}

impl fmt::Display for SixBitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadArmorChar(c) => write!(f, "invalid AIS payload character {c:?}"),
            Self::OutOfBits { wanted, available } => {
                write!(
                    f,
                    "payload too short: wanted {wanted} bits, had {available}"
                )
            }
            Self::FieldTooWide(n) => write!(f, "cannot read {n} bits into a 64-bit integer"),
        }
    }
}

impl std::error::Error for SixBitError {}

/// 6-bit value (0–63) → armoured payload byte.
const fn armor_byte(v: u8) -> u8 {
    if v < 40 {
        v + 48
    } else {
        v + 56
    }
}

/// Marks a byte outside the armouring alphabet in [`UNARMOR`]; its two high
/// bits are what a valid value (< 64) never has.
pub(crate) const BAD_ARMOR: u8 = 0xFF;

/// Armoured payload byte → 6-bit value, the inverse of [`armor_byte`].
pub(crate) static UNARMOR: [u8; 256] = {
    let mut table = [BAD_ARMOR; 256];
    let mut v = 0u8;
    while v < 64 {
        table[armor_byte(v) as usize] = v;
        v += 1;
    }
    table
};

/// Decodes one armoured payload character to its 6-bit value.
pub fn unarmor_char(c: char) -> Result<u8, SixBitError> {
    match u8::try_from(c).map(|b| UNARMOR[b as usize]) {
        Ok(v) if v != BAD_ARMOR => Ok(v),
        _ => Err(SixBitError::BadArmorChar(c)),
    }
}

/// Encodes a 6-bit value (0–63) to its armoured payload character.
///
/// # Panics
/// When `v > 63`.
pub fn armor_char(v: u8) -> char {
    assert!(v < 64, "six-bit value out of range: {v}");
    armor_byte(v) as char
}

/// Words a [`Bits`] holds without allocating.
const INLINE_WORDS: usize = 16;

/// The packed bit string behind reader and writer (layout in the module
/// doc). Bits at and after `len` are zero while only `push` has run.
#[derive(Default)]
struct Bits {
    /// Words `0..INLINE_WORDS`.
    head: [u64; INLINE_WORDS],
    /// The words after those, as far as bits were pushed.
    tail: Vec<u64>,
    len: usize,
}

impl Bits {
    /// Word `i`; zero past the stored ones.
    fn word(&self, i: usize) -> u64 {
        let word = match i.checked_sub(INLINE_WORDS) {
            None => self.head.get(i),
            Some(j) => self.tail.get(j),
        };
        word.copied().unwrap_or(0)
    }

    /// ORs `bits` into word `w`, growing the tail to reach it.
    fn or_word(&mut self, w: usize, bits: u64) {
        let word = match w.checked_sub(INLINE_WORDS) {
            None => self.head.get_mut(w),
            Some(j) => {
                if j >= self.tail.len() {
                    self.tail.resize(j + 1, 0);
                }
                self.tail.get_mut(j)
            }
        };
        if let Some(word) = word {
            *word |= bits;
        }
    }

    /// Appends the low `n` bits of `v`; `1 ≤ n ≤ 64` and `v < 2^n`.
    fn push(&mut self, v: u64, n: usize) {
        let (w, off) = (self.len / 64, self.len % 64);
        self.or_word(w, (v << (64 - n)) >> off);
        if off + n > 64 {
            self.or_word(w + 1, v << (128 - off - n));
        }
        self.len += n;
    }

    /// Bits `pos..pos + n` as an integer, `1 ≤ n ≤ 64`; positions past the
    /// stored words read as zero.
    fn get(&self, pos: usize, n: usize) -> u64 {
        let (w, off) = (pos / 64, pos % 64);
        // The low part shifts by `64 - off` in two steps: `off` may be 0.
        let window = (self.word(w) << off) | ((self.word(w + 1) >> 1) >> (63 - off));
        window >> (64 - n)
    }
}

/// A bit-level reader over an armoured payload.
pub struct BitReader {
    bits: Bits,
    pos: usize,
}

impl BitReader {
    /// Parses an armoured payload string, dropping `fill` trailing pad bits.
    ///
    /// The whole payload is unpacked and validated here, so a bad character
    /// anywhere is reported before the first field is read.
    #[inline]
    pub fn from_payload(payload: &str, fill: u8) -> Result<BitReader, SixBitError> {
        let bytes = payload.as_bytes();
        let mut bits = Bits::default();
        // Every looked-up value is ORed into `seen`, which is tested once
        // at the end: see `BAD_ARMOR`.
        let mut seen = 0u8;
        // Ten characters fill 60 bits of one `push`.
        for group in bytes.chunks(10) {
            let mut packed = 0u64;
            for &b in group {
                let v = UNARMOR[b as usize];
                seen |= v;
                packed = (packed << 6) | u64::from(v & 63);
            }
            bits.push(packed, group.len() * 6);
        }
        if seen & 0xC0 != 0 {
            // A bad byte is, or is part of, a character `unarmor_char`
            // rejects.
            if let Some(e) = payload.chars().find_map(|c| unarmor_char(c).err()) {
                return Err(e);
            }
        }
        bits.len = bits.len.saturating_sub(fill as usize);
        Ok(BitReader { bits, pos: 0 })
    }

    /// Bits remaining.
    pub fn remaining(&self) -> usize {
        self.bits.len - self.pos
    }

    fn out_of_bits(&self, wanted: usize) -> SixBitError {
        SixBitError::OutOfBits {
            wanted,
            available: self.remaining(),
        }
    }

    /// Reads `n ≤ 64` bits as an unsigned big-endian integer.
    pub fn read_u64(&mut self, n: usize) -> Result<u64, SixBitError> {
        if n > 64 {
            return Err(SixBitError::FieldTooWide(n));
        }
        if self.remaining() < n {
            return Err(self.out_of_bits(n));
        }
        if n == 0 {
            return Ok(0);
        }
        let v = self.bits.get(self.pos, n);
        self.pos += n;
        Ok(v)
    }

    /// Reads `n ≤ 64` bits as a two's-complement signed integer.
    pub fn read_i64(&mut self, n: usize) -> Result<i64, SixBitError> {
        let raw = self.read_u64(n)?;
        if n == 0 {
            return Ok(0);
        }
        // Move the field's sign bit to bit 63 and shift back arithmetically.
        Ok(((raw << (64 - n)) as i64) >> (64 - n))
    }

    /// Reads a 6-bit-ASCII text field of `chars` characters, trimming
    /// trailing `@` (the null of the AIS alphabet) and spaces.
    ///
    /// A field that runs past the end consumes the whole characters that
    /// are there before reporting the missing one.
    pub fn read_text(&mut self, chars: usize) -> Result<String, SixBitError> {
        let present = chars.min(self.remaining() / 6);
        let sextet = |i: usize| sixbit_ascii(self.bits.get(self.pos + i * 6, 6) as u8);
        let kept = (0..present)
            .rev()
            .find(|&i| !matches!(sextet(i), '@' | ' '))
            .map_or(0, |last| last + 1);
        let text = (0..kept).map(sextet).collect();
        self.pos += present * 6;
        if present < chars {
            return Err(self.out_of_bits(6));
        }
        Ok(text)
    }

    /// Skips `n` bits.
    pub fn skip(&mut self, n: usize) -> Result<(), SixBitError> {
        if self.remaining() < n {
            return Err(self.out_of_bits(n));
        }
        self.pos += n;
        Ok(())
    }
}

/// A bit-level writer producing armoured payloads.
#[derive(Default)]
pub struct BitWriter {
    bits: Bits,
}

impl BitWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the low `n ≤ 64` bits of `v`, big-endian.
    ///
    /// # Panics
    /// When `n > 64`.
    pub fn write_u64(&mut self, v: u64, n: usize) {
        assert!(n <= 64, "cannot write {n} bits of a 64-bit integer");
        debug_assert!(n == 64 || v < (1u64 << n), "value {v} overflows {n} bits");
        if n > 0 {
            self.bits.push(v & (u64::MAX >> (64 - n)), n);
        }
    }

    /// Appends `n` bits of a signed value (two's complement).
    pub fn write_i64(&mut self, v: i64, n: usize) {
        let mask = if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
        self.write_u64((v as u64) & mask, n);
    }

    /// Appends a text field of exactly `chars` 6-bit-ASCII characters,
    /// padding with `@`.
    pub fn write_text(&mut self, text: &str, chars: usize) {
        let mut written = 0;
        for c in text.chars().take(chars) {
            self.write_u64(ascii_sixbit(c) as u64, 6);
            written += 1;
        }
        for _ in written..chars {
            self.write_u64(0, 6); // '@' padding
        }
    }

    /// Bit length so far.
    pub fn len(&self) -> usize {
        self.bits.len
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.bits.len == 0
    }

    /// Produces `(payload, fill_bits)`: the armoured string plus how many
    /// pad bits the last character carries.
    pub fn into_payload(self) -> (String, u8) {
        let chars = self.bits.len.div_ceil(6);
        let fill = chars * 6 - self.bits.len;
        let payload = (0..chars)
            .map(|i| armor_char(self.bits.get(i * 6, 6) as u8))
            .collect();
        (payload, fill as u8)
    }
}

/// 6-bit value → AIS text character.
fn sixbit_ascii(v: u8) -> char {
    debug_assert!(v < 64);
    if v < 32 {
        (v + 64) as char // '@', 'A'..'Z', '[', '\', ']', '^', '_'
    } else {
        v as char // ' ', '!', …, '0'..'9', …, '?'
    }
}

/// AIS text character → 6-bit value (unknown characters map to '@').
fn ascii_sixbit(c: char) -> u8 {
    let v = c.to_ascii_uppercase() as u32;
    match v {
        64..=95 => (v - 64) as u8,
        32..=63 => v as u8,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn armor_round_trip_all_values() {
        for v in 0..64u8 {
            let c = armor_char(v);
            assert_eq!(unarmor_char(c), Ok(v));
        }
    }

    #[test]
    fn unarmor_rejects_gaps() {
        // 0x58..0x5F is a hole in the armouring alphabet.
        for c in ['X', 'Y', 'Z', '[', '\\', ']', '^', '_', '\n', '!'] {
            assert!(unarmor_char(c).is_err(), "{c:?}");
        }
    }

    #[test]
    fn reader_writer_round_trip() {
        let mut w = BitWriter::new();
        w.write_u64(6, 6); // message type
        w.write_u64(0, 2);
        w.write_u64(211_339_980, 30);
        w.write_i64(-12_345, 28);
        w.write_text("HELLO 42", 10);
        let total = w.len();
        let (payload, fill) = w.into_payload();
        let mut r = BitReader::from_payload(&payload, fill).unwrap();
        assert_eq!(r.remaining(), total);
        assert_eq!(r.read_u64(6).unwrap(), 6);
        assert_eq!(r.read_u64(2).unwrap(), 0);
        assert_eq!(r.read_u64(30).unwrap(), 211_339_980);
        assert_eq!(r.read_i64(28).unwrap(), -12_345);
        assert_eq!(r.read_text(10).unwrap(), "HELLO 42");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn signed_extremes() {
        let mut w = BitWriter::new();
        w.write_i64(-1, 28);
        w.write_i64((1 << 27) - 1, 28);
        w.write_i64(-(1 << 27), 28);
        let (p, f) = w.into_payload();
        let mut r = BitReader::from_payload(&p, f).unwrap();
        assert_eq!(r.read_i64(28).unwrap(), -1);
        assert_eq!(r.read_i64(28).unwrap(), (1 << 27) - 1);
        assert_eq!(r.read_i64(28).unwrap(), -(1 << 27));
    }

    #[test]
    fn out_of_bits_error() {
        let mut r = BitReader::from_payload("0", 0).unwrap(); // 6 bits
        assert_eq!(r.read_u64(6).unwrap(), 0);
        assert!(matches!(
            r.read_u64(1),
            Err(SixBitError::OutOfBits {
                wanted: 1,
                available: 0
            })
        ));
    }

    #[test]
    fn fill_bits_truncated() {
        let mut w = BitWriter::new();
        w.write_u64(0b1010101, 7); // 7 bits -> 2 chars, 5 fill
        let (p, fill) = w.into_payload();
        assert_eq!(p.len(), 2);
        assert_eq!(fill, 5);
        let r = BitReader::from_payload(&p, fill).unwrap();
        assert_eq!(r.remaining(), 7);
    }

    #[test]
    fn text_alphabet_round_trip() {
        let mut w = BitWriter::new();
        w.write_text("ABC XYZ 0189?", 13);
        let (p, f) = w.into_payload();
        let mut r = BitReader::from_payload(&p, f).unwrap();
        assert_eq!(r.read_text(13).unwrap(), "ABC XYZ 0189?");
    }

    #[test]
    fn text_pads_and_trims() {
        let mut w = BitWriter::new();
        w.write_text("AB", 6);
        let (p, f) = w.into_payload();
        let mut r = BitReader::from_payload(&p, f).unwrap();
        assert_eq!(r.read_text(6).unwrap(), "AB");
    }

    #[test]
    fn skip_advances() {
        let mut w = BitWriter::new();
        w.write_u64(0xFF, 8);
        w.write_u64(0b101, 3);
        let (p, f) = w.into_payload();
        let mut r = BitReader::from_payload(&p, f).unwrap();
        r.skip(8).unwrap();
        assert_eq!(r.read_u64(3).unwrap(), 0b101);
        assert!(r.skip(10).is_err());
    }
}
