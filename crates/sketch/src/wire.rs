//! Compact binary serialization for sketches.
//!
//! The inventory's on-disk format (`pol-core::codec`) persists per-cell
//! sketches; this module gives every sketch a versionless, schema-stable
//! little-endian encoding: varint for integers, raw IEEE-754 for floats.
//! Round-trips are property-tested.
//!
//! The varint kernels work a `u64` word at a time. [`put_varint`] spreads
//! a value's low 56 bits into seven-bit groups and writes them with one
//! word store; a value of 2⁵⁶ or more (a cell index is one) adds its top
//! byte or two after the word. [`get_varint`] and [`skip_varint`] load
//! eight bytes, find the terminator (the first byte without its top bit)
//! in the word or in the two bytes after it, and gather the groups back
//! by shifts; [`skip_varints`] takes every terminator in a word before it
//! loads the next. Only an input with fewer than eight bytes left, or a
//! varint that does not end within ten bytes, is read by the byte loop.
//! Their contract is the byte loop's: the same bytes written for every
//! `u64`; on every input the same value, the same input left behind and
//! the same [`WireError`] — a truncated varint is `"varint truncated"`
//! with the input consumed, an eleventh byte is `"varint overflow"`, and
//! a tenth byte's bits above bit 63 are dropped. `tests/wire_canonical.rs`
//! holds them to the byte loop, kept there as the oracle.

use crate::circular::Circular;
use crate::gk::{GkSketch, Quantiles, Tuple};
use crate::histogram::AngleHistogram;
use crate::hll::{Distinct, HyperLogLog, SmallSet, SMALL_INLINE};
use crate::spacesaving::{Counter, Heaviest, SpaceSaving, INLINE_SLOTS};
use crate::tdigest::TDigest;
use crate::welford::Welford;
use std::fmt;

/// Error for malformed wire data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError(pub &'static str);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// The top bit of every byte of a word: the continuation flags.
const CONTINUATION: u64 = 0x8080_8080_8080_8080;

/// The most bytes a varint of a `u64` takes.
const MAX_VARINT_LEN: usize = 10;

/// The low 56 bits of `v` as eight seven-bit groups, one per byte, least
/// significant first: 28-bit halves into 32-bit lanes, 14-bit quarters
/// into 16-bit lanes, 7-bit groups into bytes.
#[inline]
fn spread(v: u64) -> u64 {
    let mut x = (v & 0x0000_0000_0FFF_FFFF) | ((v & 0x00FF_FFFF_F000_0000) << 4);
    x = (x & 0x0000_3FFF_0000_3FFF) | ((x & 0x0FFF_C000_0FFF_C000) << 2);
    (x & 0x007F_007F_007F_007F) | ((x & 0x3F80_3F80_3F80_3F80) << 1)
}

/// [`spread`] undone: the seven-bit groups of `word`'s bytes (flags
/// ignored) gathered back into 56 bits.
#[inline]
fn gather(word: u64) -> u64 {
    let mut x = word & !CONTINUATION;
    x = (x & 0x007F_007F_007F_007F) | ((x & 0x7F00_7F00_7F00_7F00) >> 1);
    x = (x & 0x0000_3FFF_0000_3FFF) | ((x & 0x3FFF_0000_3FFF_0000) >> 2);
    (x & 0x0000_0000_0FFF_FFFF) | ((x & 0x0FFF_FFFF_0000_0000) >> 4)
}

/// Writes an LEB128 varint.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, v: u64) {
    if v < 0x80 {
        out.push(v as u8);
        return;
    }
    let at = out.len();
    if v < 1 << 56 {
        let len = (64 - v.leading_zeros() as usize).div_ceil(7);
        // Every byte before the last carries the continuation flag.
        let word = spread(v) | (CONTINUATION >> (64 - 8 * (len - 1)));
        out.extend_from_slice(&word.to_le_bytes());
        out.truncate(at + len);
    } else {
        // Eight flagged bytes, then the top eight bits: one byte, or two
        // when bit 63 is set.
        out.extend_from_slice(&(spread(v) | CONTINUATION).to_le_bytes());
        let top = v >> 56;
        if top < 0x80 {
            out.push(top as u8);
        } else {
            out.extend_from_slice(&[top as u8, 1]);
        }
    }
}

/// Writes each of `values` as an LEB128 varint, in order, after one
/// `reserve` for the longest they can be.
pub fn put_varints(out: &mut Vec<u8>, values: &[u64]) {
    out.reserve(values.len().saturating_mul(MAX_VARINT_LEN));
    for &v in values {
        put_varint(out, v);
    }
}

/// Writes an i64 as a zigzag LEB128 varint: small magnitudes of either
/// sign take few bytes (0 → `00`, −1 → `01`, 1 → `02`).
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Reads a zigzag LEB128 varint written by [`put_i64`].
pub fn get_i64(input: &mut &[u8]) -> Result<i64, WireError> {
    let v = get_varint(input)?;
    Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
}

/// The LEB128 bytes of `v` and how many of them there are: for a length
/// that is patched in before what it counts, where there is no vector to
/// push to.
pub fn varint_bytes(mut v: u64) -> ([u8; 10], usize) {
    let mut bytes = [0u8; 10];
    let mut len = 0;
    for slot in &mut bytes {
        len += 1;
        *slot = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            break;
        }
        *slot |= 0x80;
    }
    (bytes, len)
}

/// The varint at the start of `input`, found a word at a time: its
/// first eight bytes as a little-endian word and its length, when there
/// are eight bytes to load and the varint ends within its first ten.
/// `None` sends the caller to the byte loop, which reports what is wrong.
#[inline]
fn varint_at(input: &[u8]) -> Option<(u64, usize)> {
    let word = u64::from_le_bytes(*input.first_chunk::<8>()?);
    let stops = !word & CONTINUATION;
    if stops != 0 {
        return Some((word, stops.trailing_zeros() as usize / 8 + 1));
    }
    let past = input.get(8..).unwrap_or_default();
    let ends = past.iter().take(2).position(|&b| b < 0x80)?;
    Some((word, 9 + ends))
}

/// Reads an LEB128 varint.
#[inline]
pub fn get_varint(input: &mut &[u8]) -> Result<u64, WireError> {
    if let Some((&byte, rest)) = input.split_first() {
        if byte < 0x80 {
            *input = rest;
            return Ok(u64::from(byte));
        }
    }
    let Some((word, len)) = varint_at(input) else {
        return get_varint_bytewise(input);
    };
    let v = if len <= 8 {
        gather(word & (u64::MAX >> (64 - 8 * len)))
    } else {
        // The groups past the word: bits 56..62, then bit 63 (the loop
        // drops a tenth byte's other bits as this shift does).
        let past = input.get(8..len).unwrap_or_default();
        (past.iter().zip([56, 63])).fold(gather(word), |v, (&b, shift)| {
            v | u64::from(b & 0x7F) << shift
        })
    };
    *input = input.get(len..).unwrap_or_default();
    Ok(v)
}

/// [`get_varint`] one byte at a time: the last bytes of an input, and
/// whatever is not a whole varint of at most ten bytes.
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

/// Advances `input` past one LEB128 varint, with [`get_varint`]'s checks.
#[inline]
pub fn skip_varint(input: &mut &[u8]) -> Result<(), WireError> {
    match varint_at(input) {
        Some((_, len)) => {
            *input = input.get(len..).unwrap_or_default();
            Ok(())
        }
        None => get_varint_bytewise(input).map(drop),
    }
}

/// Advances `input` past `n` LEB128 varints, with [`skip_varint`]'s
/// checks: the terminators in a word are taken one after another with
/// no reload, and every varint that ends in the word it starts in is at
/// most eight bytes, so only one that runs past its word is walked on
/// its own.
pub fn skip_varints(input: &mut &[u8], mut n: usize) -> Result<(), WireError> {
    while n > 0 {
        let Some(word) = input.first_chunk::<8>() else {
            break;
        };
        let mut stops = !u64::from_le_bytes(*word) & CONTINUATION;
        if stops == 0 {
            break;
        }
        let mut end = 0;
        while stops != 0 && n > 0 {
            end = stops.trailing_zeros() as usize / 8 + 1;
            stops &= stops - 1;
            n -= 1;
        }
        *input = input.get(end..).unwrap_or_default();
    }
    (0..n).try_for_each(|_| skip_varint(input))
}

/// Writes a raw f64.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reads a raw f64.
pub fn get_f64(input: &mut &[u8]) -> Result<f64, WireError> {
    let Some((bytes, rest)) = input.split_first_chunk::<8>() else {
        return Err(WireError("f64 truncated"));
    };
    *input = rest;
    Ok(f64::from_le_bytes(*bytes))
}

/// Advances `input` past `n` bytes of fixed-width fields.
fn skip_bytes(input: &mut &[u8], n: usize, what: &'static str) -> Result<(), WireError> {
    *input = input.get(n..).ok_or(WireError(what))?;
    Ok(())
}

/// Hands `emit` the `len` items of `items` in ascending `key` order — the
/// canonical order of a set's wire form. Up to `N` items (a sketch's
/// inline storage: the sketches an inventory is made of) are sorted on
/// the stack; only a larger sketch allocates.
fn for_each_sorted<T: Copy + Default, K: Ord, const N: usize>(
    len: usize,
    items: impl Iterator<Item = T>,
    key: impl Fn(&T) -> K,
    emit: impl FnMut(T),
) {
    let mut small = [T::default(); N];
    let mut large = Vec::new();
    let sorted: &mut [T] = match small.get_mut(..len) {
        Some(fits) => {
            fits.iter_mut()
                .zip(items)
                .for_each(|(slot, item)| *slot = item);
            fits
        }
        None => {
            large.extend(items);
            &mut large
        }
    };
    sorted.sort_unstable_by_key(key);
    sorted.iter().copied().for_each(emit);
}

/// Binary encoding contract for sketches.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes a value, advancing `input` past it.
    fn decode(input: &mut &[u8]) -> Result<Self, WireError>;
    /// Advances `input` past one encoded value without building it: the
    /// bytes [`decode`](Wire::decode) would consume, behind the same
    /// bounds checks, and no allocation. Constraints between values
    /// (sortedness, sums) are `decode`'s to check, so a skip may pass
    /// over bytes a decode would refuse.
    fn skip(input: &mut &[u8]) -> Result<(), WireError>;
}

impl Wire for Welford {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.count());
        // mean/min/max are Some exactly when count > 0, so the decoder's
        // "count > 0 means four floats follow" contract is preserved.
        if let (Some(mean), Some(min), Some(max)) = (self.mean(), self.min(), self.max()) {
            put_f64(out, mean);
            put_f64(out, self.m2());
            put_f64(out, min);
            put_f64(out, max);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let count = get_varint(input)?;
        if count == 0 {
            return Ok(Welford::new());
        }
        let mean = get_f64(input)?;
        let m2 = get_f64(input)?;
        let min = get_f64(input)?;
        let max = get_f64(input)?;
        Ok(Welford::from_parts(count, mean, m2, min, max))
    }

    fn skip(input: &mut &[u8]) -> Result<(), WireError> {
        match get_varint(input)? {
            0 => Ok(()),
            _ => skip_bytes(input, 32, "f64 truncated"),
        }
    }
}

impl Wire for Circular {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.count());
        if self.count() > 0 {
            let (s, c) = self.sums();
            put_f64(out, s);
            put_f64(out, c);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let count = get_varint(input)?;
        if count == 0 {
            return Ok(Circular::new());
        }
        let s = get_f64(input)?;
        let c = get_f64(input)?;
        Ok(Circular::from_parts(count, s, c))
    }

    fn skip(input: &mut &[u8]) -> Result<(), WireError> {
        match get_varint(input)? {
            0 => Ok(()),
            _ => skip_bytes(input, 16, "f64 truncated"),
        }
    }
}

impl Wire for AngleHistogram {
    fn encode(&self, out: &mut Vec<u8>) {
        for &c in self.counts() {
            put_varint(out, c);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let mut counts = [0u64; 12];
        for c in &mut counts {
            *c = get_varint(input)?;
        }
        Ok(AngleHistogram::from_counts(counts))
    }

    fn skip(input: &mut &[u8]) -> Result<(), WireError> {
        skip_varints(input, 12)
    }
}

impl Wire for GkSketch {
    /// The flushed sketch, read through a borrowed view: nothing is
    /// cloned or allocated. The tuple count precedes the tuples and is
    /// known only after them: its one byte is patched in, and widened in
    /// the rare sketch that holds 128 tuples or more.
    fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, self.epsilon());
        put_varint(out, self.count());
        let len_at = out.len();
        out.push(0);
        let mut len = 0u64;
        self.flushed(|t| {
            len += 1;
            put_f64(out, t.v);
            put_varint(out, t.g);
            put_varint(out, t.delta);
        });
        match u8::try_from(len) {
            Ok(byte) if byte < 0x80 => out[len_at] = byte,
            _ => {
                let mut wide = Vec::new();
                put_varint(&mut wide, len);
                out.splice(len_at..=len_at, wide);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let epsilon = get_f64(input)?;
        if !(epsilon > 0.0 && epsilon < 0.5) {
            return Err(WireError("gk epsilon out of range"));
        }
        let n = get_varint(input)?;
        let len = get_varint(input)? as usize;
        if len > input.len() {
            return Err(WireError("gk tuple count exceeds buffer"));
        }
        let mut tuples = Vec::with_capacity(len);
        for _ in 0..len {
            let v = get_f64(input)?;
            let g = get_varint(input)?;
            let delta = get_varint(input)?;
            tuples.push((v, g, delta));
        }
        GkSketch::from_parts(epsilon, n, tuples).ok_or(WireError("gk tuples not sorted"))
    }

    fn skip(input: &mut &[u8]) -> Result<(), WireError> {
        let epsilon = get_f64(input)?;
        if !(epsilon > 0.0 && epsilon < 0.5) {
            return Err(WireError("gk epsilon out of range"));
        }
        skip_varint(input)?;
        let len = get_varint(input)? as usize;
        if len > input.len() {
            return Err(WireError("gk tuple count exceeds buffer"));
        }
        for _ in 0..len {
            // A tuple is an f64 and two varints, most often of one byte
            // each: ten bytes, and the next tuple's place is known before
            // this one's bytes are looked at.
            if let Some(&[g, delta]) = input.get(8..10) {
                if (g | delta) < 0x80 {
                    *input = input.get(10..).unwrap_or_default();
                    continue;
                }
            }
            skip_bytes(input, 8, "f64 truncated")?;
            skip_varints(input, 2)?;
        }
        Ok(())
    }
}

/// The quantiles `phis` of an encoded [`GkSketch`], advancing `input`
/// past it: what [`GkSketch::decode`](Wire::decode) and then
/// [`GkSketch::quantile`] of each give, and the same error where the
/// decode fails — read straight off the bytes, so no tuple vector is
/// built.
pub fn gk_quantiles<const N: usize>(
    input: &mut &[u8],
    phis: [f64; N],
) -> Result<[Option<f64>; N], WireError> {
    let epsilon = get_f64(input)?;
    if !(epsilon > 0.0 && epsilon < 0.5) {
        return Err(WireError("gk epsilon out of range"));
    }
    let n = get_varint(input)?;
    let len = get_varint(input)? as usize;
    if len > input.len() {
        return Err(WireError("gk tuple count exceeds buffer"));
    }
    // The query runs as the tuples are read; `GkSketch::from_parts`'
    // checks (sorted, finite, `g` summing to `n`) decide at the end
    // whether its answers stand.
    let mut query = Quantiles::new(epsilon, n, phis);
    let (mut valid, mut total_g, mut last) = (true, 0u64, None);
    for _ in 0..len {
        let v = get_f64(input)?;
        let g = get_varint(input)?;
        let delta = get_varint(input)?;
        valid &= v.is_finite() && !last.is_some_and(|last| last > v);
        total_g = total_g.wrapping_add(g);
        last = Some(v);
        query.push(Tuple { v, g, delta });
    }
    if valid && total_g == n {
        Ok(query.finish())
    } else {
        Err(WireError("gk tuples not sorted"))
    }
}

/// The [`Heaviest`] `N` items of an encoded `SpaceSaving<u64>`,
/// advancing `input` past it: what [`SpaceSaving::decode`](Wire::decode)
/// and then [`SpaceSaving::top`]`(N)` give, and the same error where the
/// decode fails — read straight off the bytes, so no sketch and no
/// vector is built. (An encoder writes each item once; bytes that
/// repeat one are not a sketch's.)
pub fn spacesaving_heaviest<const N: usize>(input: &mut &[u8]) -> Result<Heaviest<N>, WireError> {
    let capacity = get_varint(input)? as usize;
    if capacity == 0 {
        return Err(WireError("spacesaving zero capacity"));
    }
    skip_varint(input)?; // total
    let len = get_varint(input)? as usize;
    if len > capacity || len > input.len() {
        return Err(WireError("spacesaving length invalid"));
    }
    let mut heaviest = Heaviest::new();
    for _ in 0..len {
        let k = get_varint(input)?;
        let count = get_varint(input)?;
        let error = get_varint(input)?;
        heaviest.offer(k, Counter { count, error });
    }
    Ok(heaviest)
}

impl Wire for TDigest {
    /// The compressed digest, read through a borrowed view: the digest
    /// is not cloned.
    fn encode(&self, out: &mut Vec<u8>) {
        let (compression, total, min, max) = self.scalars();
        put_f64(out, compression);
        put_f64(out, total);
        put_f64(out, min);
        put_f64(out, max);
        self.with_compressed(|centroids| {
            put_varint(out, centroids.len() as u64);
            for c in centroids {
                put_f64(out, c.mean);
                put_f64(out, c.weight);
            }
        });
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let compression = get_f64(input)?;
        if !(compression >= 10.0) {
            return Err(WireError("tdigest compression out of range"));
        }
        let total = get_f64(input)?;
        let min = get_f64(input)?;
        let max = get_f64(input)?;
        let len = get_varint(input)? as usize;
        if len > input.len() {
            return Err(WireError("tdigest centroid count exceeds buffer"));
        }
        let mut centroids = Vec::with_capacity(len);
        for _ in 0..len {
            let mean = get_f64(input)?;
            let weight = get_f64(input)?;
            centroids.push((mean, weight));
        }
        TDigest::from_parts(compression, total, min, max, centroids)
            .ok_or(WireError("tdigest centroids not sorted"))
    }

    fn skip(input: &mut &[u8]) -> Result<(), WireError> {
        let compression = get_f64(input)?;
        if !(compression >= 10.0) {
            return Err(WireError("tdigest compression out of range"));
        }
        skip_bytes(input, 24, "f64 truncated")?;
        let len = get_varint(input)? as usize;
        if len > input.len() {
            return Err(WireError("tdigest centroid count exceeds buffer"));
        }
        skip_bytes(input, len.saturating_mul(16), "f64 truncated")
    }
}

impl Wire for HyperLogLog {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.precision());
        out.extend_from_slice(self.registers());
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let (&p, rest) = input.split_first().ok_or(WireError("hll truncated"))?;
        *input = rest;
        if !(4..=16).contains(&p) {
            return Err(WireError("hll precision out of range"));
        }
        let m = 1usize << p;
        if input.len() < m {
            return Err(WireError("hll registers truncated"));
        }
        let (regs, rest) = input.split_at(m);
        *input = rest;
        Ok(HyperLogLog::from_registers(p, regs.to_vec()))
    }

    fn skip(input: &mut &[u8]) -> Result<(), WireError> {
        let (&p, rest) = input.split_first().ok_or(WireError("hll truncated"))?;
        *input = rest;
        if !(4..=16).contains(&p) {
            return Err(WireError("hll precision out of range"));
        }
        skip_bytes(input, 1usize << p, "hll registers truncated")
    }
}

impl Wire for Distinct {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Distinct::Exact(set) => {
                out.push(0);
                put_varint(out, set.len() as u64);
                // Sorted for canonical output (sets iterate in storage order).
                for_each_sorted::<_, _, SMALL_INLINE>(
                    set.len(),
                    set.iter(),
                    |h| *h,
                    |h| put_varint(out, h),
                );
            }
            Distinct::Approx(hll) => {
                out.push(1);
                hll.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let (&tag, rest) = input.split_first().ok_or(WireError("distinct truncated"))?;
        *input = rest;
        match tag {
            0 => {
                let len = get_varint(input)? as usize;
                if len > input.len() {
                    return Err(WireError("distinct set exceeds buffer"));
                }
                let mut set = SmallSet::new();
                for _ in 0..len {
                    set.insert(get_varint(input)?);
                }
                Ok(Distinct::Exact(set))
            }
            1 => Ok(Distinct::Approx(HyperLogLog::decode(input)?)),
            _ => Err(WireError("distinct bad tag")),
        }
    }

    fn skip(input: &mut &[u8]) -> Result<(), WireError> {
        let (&tag, rest) = input.split_first().ok_or(WireError("distinct truncated"))?;
        *input = rest;
        match tag {
            0 => {
                let len = get_varint(input)? as usize;
                if len > input.len() {
                    return Err(WireError("distinct set exceeds buffer"));
                }
                skip_varints(input, len)
            }
            1 => HyperLogLog::skip(input),
            _ => Err(WireError("distinct bad tag")),
        }
    }
}

impl Wire for SpaceSaving<u64> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.capacity() as u64);
        put_varint(out, self.total());
        put_varint(out, self.len() as u64);
        for_each_sorted::<_, _, INLINE_SLOTS>(
            self.len(),
            self.iter().map(|(k, c)| (*k, *c)),
            |(k, _)| *k,
            |(k, c)| {
                put_varint(out, k);
                put_varint(out, c.count);
                put_varint(out, c.error);
            },
        );
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let capacity = get_varint(input)? as usize;
        if capacity == 0 {
            return Err(WireError("spacesaving zero capacity"));
        }
        let total = get_varint(input)?;
        let len = get_varint(input)? as usize;
        if len > capacity || len > input.len() {
            return Err(WireError("spacesaving length invalid"));
        }
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            let k = get_varint(input)?;
            let count = get_varint(input)?;
            let error = get_varint(input)?;
            items.push((k, Counter { count, error }));
        }
        Ok(SpaceSaving::from_parts(capacity, total, items))
    }

    fn skip(input: &mut &[u8]) -> Result<(), WireError> {
        let capacity = get_varint(input)? as usize;
        if capacity == 0 {
            return Err(WireError("spacesaving zero capacity"));
        }
        skip_varint(input)?;
        let len = get_varint(input)? as usize;
        if len > capacity || len > input.len() {
            return Err(WireError("spacesaving length invalid"));
        }
        skip_varints(input, len * 3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MergeSketch;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut slice = &buf[..];
        let back = T::decode(&mut slice).expect("decodes");
        assert!(slice.is_empty(), "trailing bytes");
        assert_eq!(&back, v);
        skips_what_it_decodes::<T>(&buf);
    }

    /// `skip` stops where `decode` stops, with bytes of another value
    /// behind the sketch or without.
    fn skips_what_it_decodes<T: Wire>(encoded: &[u8]) {
        let mut followed = encoded.to_vec();
        followed.extend_from_slice(b"next");
        let mut slice = &followed[..];
        T::skip(&mut slice).expect("skips");
        assert_eq!(slice, b"next");
        for cut in 0..encoded.len() {
            let (mut skipped, mut decoded) = (&encoded[..cut], &encoded[..cut]);
            assert!(T::skip(&mut skipped).is_err(), "skipped a prefix of {cut}");
            assert!(
                T::decode(&mut decoded).is_err(),
                "decoded a prefix of {cut}"
            );
        }
    }

    #[test]
    fn varint_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut s = &buf[..];
            assert_eq!(get_varint(&mut s).unwrap(), v);
            assert!(s.is_empty());
        }
        let mut empty: &[u8] = &[];
        assert!(get_varint(&mut empty).is_err());
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let (bytes, len) = varint_bytes(v);
            assert_eq!(&bytes[..len], buf);
        }
    }

    #[test]
    fn zigzag_i64_round_trip() {
        // Small magnitudes of either sign stay one byte, in zigzag order.
        for (v, byte) in [(0i64, 0u8), (-1, 1), (1, 2), (-2, 3), (63, 126), (-64, 127)] {
            let mut buf = Vec::new();
            put_i64(&mut buf, v);
            assert_eq!(buf, [byte]);
        }
        for v in [i64::MIN, -300, 64, 1 << 40, i64::MAX] {
            let mut buf = Vec::new();
            put_i64(&mut buf, v);
            let mut s = &buf[..];
            assert_eq!(get_i64(&mut s).unwrap(), v);
            assert!(s.is_empty());
        }
        let mut empty: &[u8] = &[];
        assert!(get_i64(&mut empty).is_err());
    }

    #[test]
    fn welford_wire() {
        round_trip(&Welford::new());
        let mut w = Welford::new();
        for x in [1.0, 2.5, -3.0, 100.0] {
            w.add(x);
        }
        round_trip(&w);
    }

    #[test]
    fn circular_wire() {
        round_trip(&Circular::new());
        let mut c = Circular::new();
        c.add(10.0);
        c.add(350.0);
        round_trip(&c);
    }

    #[test]
    fn angle_histogram_wire() {
        let mut h = AngleHistogram::new();
        for d in [0.0, 45.0, 359.0, 180.0] {
            h.add(d);
        }
        round_trip(&h);
    }

    #[test]
    fn gk_wire_preserves_quantiles() {
        let mut g = GkSketch::new(0.02);
        for i in 0..5_000 {
            g.add(((i * 37) % 1000) as f64);
        }
        let mut buf = Vec::new();
        g.encode(&mut buf);
        let mut s = &buf[..];
        let mut back = GkSketch::decode(&mut s).unwrap();
        skips_what_it_decodes::<GkSketch>(&buf);
        assert_eq!(back.count(), g.count());
        for phi in [0.1, 0.5, 0.9] {
            assert_eq!(back.quantile(phi), g.clone().quantile(phi));
        }
    }

    #[test]
    fn tdigest_wire_preserves_quantiles() {
        let mut t = TDigest::new(100.0);
        for i in 0..5_000 {
            t.add(((i * 37) % 1000) as f64);
        }
        let mut buf = Vec::new();
        t.encode(&mut buf);
        let mut s = &buf[..];
        let mut back = TDigest::decode(&mut s).unwrap();
        skips_what_it_decodes::<TDigest>(&buf);
        assert_eq!(back.count(), t.count());
        for phi in [0.1, 0.5, 0.9] {
            let a = back.quantile(phi).unwrap();
            let b = t.clone().quantile(phi).unwrap();
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn hll_and_distinct_wire() {
        let mut h = HyperLogLog::new(8);
        for i in 0..1000u32 {
            h.add(&i);
        }
        round_trip(&h);

        let mut d = Distinct::new();
        for i in 0..50u32 {
            d.add(&i);
        }
        round_trip(&d);
        for i in 0..5000u32 {
            d.add(&i);
        }
        assert!(!d.is_exact());
        round_trip(&d);
    }

    #[test]
    fn spacesaving_wire() {
        let mut s = SpaceSaving::<u64>::new(8);
        for i in 0..500u64 {
            s.add(i % 20);
        }
        let mut buf = Vec::new();
        s.encode(&mut buf);
        let mut slice = &buf[..];
        let back = SpaceSaving::<u64>::decode(&mut slice).unwrap();
        skips_what_it_decodes::<SpaceSaving<u64>>(&buf);
        assert_eq!(back.total(), s.total());
        // `top` order among exact ties is unspecified; compare as sets.
        let as_set = |v: Vec<(u64, Counter)>| -> std::collections::BTreeSet<(u64, u64, u64)> {
            v.into_iter().map(|(k, c)| (k, c.count, c.error)).collect()
        };
        assert_eq!(as_set(back.top(100)), as_set(s.top(100)));
    }

    #[test]
    fn decoded_sketches_remain_mergeable() {
        let mut a = Welford::new();
        a.add(1.0);
        let mut buf = Vec::new();
        a.encode(&mut buf);
        let mut s = &buf[..];
        let mut back = Welford::decode(&mut s).unwrap();
        let mut b = Welford::new();
        b.add(3.0);
        back.merge(&b);
        assert_eq!(back.count(), 2);
        assert_eq!(back.mean(), Some(2.0));
    }

    #[test]
    fn garbage_rejected() {
        let garbage = [0xFFu8; 3];
        let mut s = &garbage[..];
        assert!(GkSketch::decode(&mut s).is_err());
        let mut s2: &[u8] = &[9];
        assert!(Distinct::decode(&mut s2).is_err());
    }
}
