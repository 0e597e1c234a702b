//! Compact binary serialization for sketches.
//!
//! The inventory's on-disk format (`pol-core::codec`) persists per-cell
//! sketches; this module gives every sketch a versionless, schema-stable
//! encoding: LEB128 varints for integers (zigzag for signed ones, up to
//! 128 bits for the exact sums), sorted keys as gaps, and raw bytes for
//! HLL registers. No sketch stores a float, so equal summaries — which
//! every merge order of the same observations gives — are equal bytes.
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
use crate::counts::SortedCounts;
use crate::histogram::AngleHistogram;
use crate::hll::{Distinct, HyperLogLog, SmallSet};
use crate::loghist::{LogHistogram, Mapping, Query};
use crate::moments::Moments;
use crate::tally::{Heaviest, Tally};
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

/// Writes a u128 as an LEB128 varint (at most 19 bytes): the wide sums
/// of [`Moments`] and [`Circular`].
fn put_u128(out: &mut Vec<u8>, v: u128) {
    match u64::try_from(v) {
        Ok(small) => put_varint(out, small),
        Err(_) => {
            let mut v = v;
            while v >= 0x80 {
                out.push((v as u8) | 0x80);
                v >>= 7;
            }
            out.push(v as u8);
        }
    }
}

/// Reads a varint written by [`put_u128`]. One that ends within nine
/// bytes is a `u64` varint's bytes, read by [`get_varint`].
fn get_u128(input: &mut &[u8]) -> Result<u128, WireError> {
    match varint_at(input) {
        Some((word, len @ ..=8)) => {
            *input = input.get(len..).unwrap_or_default();
            return Ok(u128::from(gather(word & (u64::MAX >> (64 - 8 * len)))));
        }
        Some((_, 9)) => return get_varint(input).map(u128::from),
        _ => {}
    }
    let mut v = 0u128;
    let mut shift = 0;
    loop {
        let (&byte, rest) = input.split_first().ok_or(WireError("varint truncated"))?;
        *input = rest;
        if shift >= 128 {
            return Err(WireError("varint overflow"));
        }
        v |= u128::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Advances `input` past one varint written by [`put_u128`], with
/// [`get_u128`]'s checks: word at a time when it ends within ten bytes,
/// else by finding its last byte among the nineteen it may take.
fn skip_u128(input: &mut &[u8]) -> Result<(), WireError> {
    let len = match varint_at(input) {
        Some((_, len)) => Some(len),
        None => input
            .iter()
            .take(19)
            .position(|&b| b < 0x80)
            .map(|at| at + 1),
    };
    match len {
        Some(len) => {
            *input = input.get(len..).unwrap_or_default();
            Ok(())
        }
        None => get_u128(input).map(drop),
    }
}

/// An i128 in zigzag order (0, −1, 1, −2, …), for [`put_u128`].
fn zigzag128(v: i128) -> u128 {
    ((v << 1) ^ (v >> 127)) as u128
}

/// [`zigzag128`] undone.
fn unzigzag128(v: u128) -> i128 {
    ((v >> 1) as i128) ^ -((v & 1) as i128)
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
#[inline]
pub fn get_f64(input: &mut &[u8]) -> Result<f64, WireError> {
    get_u64_le(input).map(f64::from_bits)
}

/// Reads one byte.
#[inline]
pub fn get_u8(input: &mut &[u8]) -> Result<u8, WireError> {
    let (&byte, rest) = input.split_first().ok_or(WireError("byte truncated"))?;
    *input = rest;
    Ok(byte)
}

/// Reads a raw little-endian u64.
#[inline]
pub fn get_u64_le(input: &mut &[u8]) -> Result<u64, WireError> {
    let (word, rest) = input
        .split_first_chunk::<8>()
        .ok_or(WireError("word truncated"))?;
    *input = rest;
    Ok(u64::from_le_bytes(*word))
}

/// Writes a 0/1 option tag and, after a 1, what `put` writes of the
/// value.
#[inline]
pub fn put_opt<T>(out: &mut Vec<u8>, value: Option<T>, put: impl FnOnce(&mut Vec<u8>, T)) {
    match value {
        Some(v) => {
            out.push(1);
            put(out, v);
        }
        None => out.push(0),
    }
}

/// Reads a 0/1 option tag and, after a 1, the value `some` reads.
#[inline]
pub fn get_opt<T>(
    input: &mut &[u8],
    some: impl FnOnce(&mut &[u8]) -> Result<T, WireError>,
) -> Result<Option<T>, WireError> {
    match get_u8(input)? {
        0 => Ok(None),
        1 => some(input).map(Some),
        _ => Err(WireError("bad option tag")),
    }
}

/// Advances `input` past `n` bytes of fixed-width fields.
fn skip_bytes(input: &mut &[u8], n: usize, what: &'static str) -> Result<(), WireError> {
    *input = input.get(n..).ok_or(WireError(what))?;
    Ok(())
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

impl<const FRAC: u32> Wire for Moments<FRAC> {
    /// The count, then — when it is not zero — `Σq` (zigzag), `Σq²`, the
    /// smallest `q` (zigzag) and the largest's distance above it.
    fn encode(&self, out: &mut Vec<u8>) {
        let (count, sum, sum_sq, min, max) = self.parts();
        put_varint(out, count);
        if count > 0 {
            put_u128(out, zigzag128(sum));
            put_u128(out, sum_sq);
            put_i64(out, min);
            put_varint(out, max.wrapping_sub(min) as u64);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let count = get_varint(input)?;
        if count == 0 {
            return Ok(Moments::new());
        }
        let sum = unzigzag128(get_u128(input)?);
        let sum_sq = get_u128(input)?;
        let min = get_i64(input)?;
        let max = i64::try_from(i128::from(min) + i128::from(get_varint(input)?))
            .map_err(|_| WireError("moments max out of range"))?;
        Moments::from_parts(count, sum, sum_sq, min, max).ok_or(WireError("moments min above max"))
    }

    fn skip(input: &mut &[u8]) -> Result<(), WireError> {
        if get_varint(input)? == 0 {
            return Ok(());
        }
        skip_u128(input)?;
        skip_u128(input)?;
        skip_varints(input, 2)
    }
}

impl Wire for Circular {
    /// The count, then — when it is not zero — `Σsin` and `Σcos`
    /// (zigzag, in the `2^-32` fixed point).
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.count());
        if self.count() > 0 {
            let (s, c) = self.sums();
            put_u128(out, zigzag128(s));
            put_u128(out, zigzag128(c));
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let count = get_varint(input)?;
        if count == 0 {
            return Ok(Circular::new());
        }
        let s = unzigzag128(get_u128(input)?);
        let c = unzigzag128(get_u128(input)?);
        Ok(Circular::from_parts(count, s, c))
    }

    fn skip(input: &mut &[u8]) -> Result<(), WireError> {
        match get_varint(input)? {
            0 => Ok(()),
            _ => {
                skip_u128(input)?;
                skip_u128(input)
            }
        }
    }
}

impl Wire for AngleHistogram {
    fn encode(&self, out: &mut Vec<u8>) {
        for c in self.counts() {
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

/// Walks an encoded [`LogHistogram`], handing `each` its buckets in key
/// order, and returns its mapping: what a decode checks (a mapping of 1
/// to 255 buckets per octave, keys the mapping can hold, no zero count),
/// and nothing built. The bucket checks decide after the last bucket is
/// read, so bytes cut short fail as [`Wire::skip`] fails on them.
fn read_buckets(
    input: &mut &[u8],
    mut each: impl FnMut(Mapping, i32, u64),
) -> Result<Mapping, WireError> {
    let mapping = u8::try_from(get_varint(input)?)
        .ok()
        .and_then(Mapping::with_per_octave)
        .ok_or(WireError("loghist mapping out of range"))?;
    let len = get_varint(input)? as usize;
    if len > input.len() {
        return Err(WireError("loghist bucket count exceeds buffer"));
    }
    let (mut key, mut valid) = (0i64, true);
    for i in 0..len {
        key = if i == 0 {
            get_i64(input)?
        } else {
            key.saturating_add(get_varint(input)?.min(i64::MAX as u64) as i64)
                .saturating_add(1)
        };
        let count = get_varint(input)?;
        valid &= count > 0 && mapping.holds(key);
        if valid {
            each(mapping, key as i32, count);
        }
    }
    if valid {
        Ok(mapping)
    } else {
        Err(WireError("loghist bucket invalid"))
    }
}

impl Wire for LogHistogram {
    /// The buckets per octave, the bucket count, then each bucket: its
    /// key (the first zigzag, every later one as its gap above the last,
    /// minus one) and its count.
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(self.mapping().per_octave()));
        put_varint(out, self.buckets().len() as u64);
        let mut last = None;
        for &(key, count) in self.buckets() {
            match last {
                None => put_i64(out, i64::from(key)),
                Some(last) => put_varint(out, (i64::from(key) - i64::from(last) - 1) as u64),
            }
            put_varint(out, count);
            last = Some(key);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let mut buckets = SortedCounts::default();
        let mapping = read_buckets(input, |_, key, count| buckets.push(key, count))?;
        Ok(LogHistogram::from_sorted(mapping, buckets))
    }

    /// Checks the mapping and the bucket count; the keys and counts are
    /// the decode's to check.
    fn skip(input: &mut &[u8]) -> Result<(), WireError> {
        u8::try_from(get_varint(input)?)
            .ok()
            .and_then(Mapping::with_per_octave)
            .ok_or(WireError("loghist mapping out of range"))?;
        let len = get_varint(input)? as usize;
        if len > input.len() {
            return Err(WireError("loghist bucket count exceeds buffer"));
        }
        skip_varints(input, 2 * len)
    }
}

/// The quantiles `phis` of an encoded [`LogHistogram`], advancing
/// `input` past it: what [`LogHistogram::decode`](Wire::decode) and then
/// [`LogHistogram::quantiles`] give, and the same error where the decode
/// fails — read straight off the bytes in two walks (the count, then
/// the ranks), so nothing is built.
pub fn loghist_quantiles<const N: usize>(
    input: &mut &[u8],
    phis: [f64; N],
) -> Result<[Option<f64>; N], WireError> {
    let (start, mut n) = (*input, 0u64);
    read_buckets(input, |_, _, count| n = n.wrapping_add(count))?;
    let mut query = None;
    read_buckets(&mut { start }, |mapping, key, count| {
        query
            .get_or_insert_with(|| Query::new(mapping, n, phis))
            .push(key, count)
    })?;
    Ok(query.map_or([None; N], Query::finish))
}

/// [`loghist_quantiles`] when the summary's count is likely `n` (a
/// summary folded beside a [`Moments`] of the same values): one walk
/// answers for `n`, and a second runs only if the buckets count another
/// total. Same answers, same errors.
pub fn loghist_quantiles_counted<const N: usize>(
    input: &mut &[u8],
    n: u64,
    phis: [f64; N],
) -> Result<[Option<f64>; N], WireError> {
    let (start, mut total, mut query) = (*input, 0u64, None);
    read_buckets(input, |mapping, key, count| {
        total = total.wrapping_add(count);
        query
            .get_or_insert_with(|| Query::new(mapping, n, phis))
            .push(key, count)
    })?;
    if total == n {
        Ok(query.map_or([None; N], Query::finish))
    } else {
        loghist_quantiles(&mut { start }, phis)
    }
}

impl Wire for Tally {
    /// The item count, then each item: its value (the first raw, every
    /// later one as its gap above the last, minus one) and its count.
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        let mut last = None;
        for (item, count) in self.iter() {
            match last {
                None => put_varint(out, item),
                Some(last) => put_varint(out, item - last - 1),
            }
            put_varint(out, count);
            last = Some(item);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let mut items = SortedCounts::default();
        read_items(input, |item, count| items.push(item, count))?;
        Ok(Tally::from_sorted(items))
    }

    /// Checks the item count; the items and counts are the decode's to
    /// check.
    fn skip(input: &mut &[u8]) -> Result<(), WireError> {
        let len = get_varint(input)? as usize;
        if len > input.len() {
            return Err(WireError("tally length exceeds buffer"));
        }
        skip_varints(input, 2 * len)
    }
}

/// Walks an encoded [`Tally`], handing `each` its items in ascending
/// order: what a decode checks (items that fit a `u64`, no zero count),
/// and nothing built. The item checks decide after the last item is
/// read, so bytes cut short fail as [`Wire::skip`] fails on them.
fn read_items(input: &mut &[u8], mut each: impl FnMut(u64, u64)) -> Result<(), WireError> {
    let len = get_varint(input)? as usize;
    if len > input.len() {
        return Err(WireError("tally length exceeds buffer"));
    }
    let (mut item, mut overflow, mut zero) = (0u64, false, false);
    for i in 0..len {
        let raw = get_varint(input)?;
        let next = match i {
            0 => Some(raw),
            _ => item.checked_add(raw).and_then(|v| v.checked_add(1)),
        };
        overflow |= next.is_none();
        item = next.unwrap_or(u64::MAX);
        let count = get_varint(input)?;
        zero |= count == 0;
        if !(overflow || zero) {
            each(item, count);
        }
    }
    match (overflow, zero) {
        (true, _) => Err(WireError("tally item overflow")),
        (_, true) => Err(WireError("tally zero count")),
        _ => Ok(()),
    }
}

/// The [`Heaviest`] `N` items of an encoded [`Tally`], advancing
/// `input` past it: what [`Tally::decode`](Wire::decode) and then
/// [`Tally::top`]`(N)` give, and the same error where the decode fails —
/// read straight off the bytes, so no tally and no vector is built.
pub fn tally_heaviest<const N: usize>(input: &mut &[u8]) -> Result<Heaviest<N>, WireError> {
    let mut heaviest = Heaviest::new();
    read_items(input, |item, count| heaviest.offer(item, count))?;
    Ok(heaviest)
}

impl Wire for HyperLogLog {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.precision());
        out.extend_from_slice(self.registers());
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let p = get_u8(input)?;
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
        let p = get_u8(input)?;
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
                set.iter().for_each(|h| put_varint(out, h));
            }
            Distinct::Approx(hll) => {
                out.push(1);
                hll.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let tag = get_u8(input)?;
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
        let tag = get_u8(input)?;
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

// The `welford_`, `gk_` and `spacesaving_` tests keep the names of the
// sketches that held the moment, quantile and Top-N columns before
// `Moments`, `LogHistogram` and `Tally`.
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
    fn u128_varint_round_trip() {
        for v in [0u128, 1, 127, 128, u64::MAX as u128, 1 << 64, u128::MAX] {
            let mut buf = Vec::new();
            put_u128(&mut buf, v);
            let mut s = &buf[..];
            assert_eq!(get_u128(&mut s).unwrap(), v);
            assert!(s.is_empty());
        }
        for v in [0i128, -1, 1, i128::MIN, i128::MAX] {
            assert_eq!(unzigzag128(zigzag128(v)), v);
        }
        assert!(get_u128(&mut &[0x80u8; 20][..]).is_err());
    }

    #[test]
    fn welford_wire() {
        round_trip(&Moments::<32>::new());
        let mut w = Moments::<32>::new();
        for x in [1.0, 2.5, -3.0, 100.0] {
            w.add(x);
        }
        round_trip(&w);
        let mut s = Moments::<0>::new();
        s.add_fixed(i64::MIN);
        s.add_fixed(i64::MAX);
        round_trip(&s);
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
        round_trip(&LogHistogram::new(0.01));
        let mut h = LogHistogram::new(0.01);
        for i in 0..5_000 {
            h.add(((i * 37) % 1000) as f64 - 20.0);
        }
        round_trip(&h);
        let mut buf = Vec::new();
        h.encode(&mut buf);
        let phis = [0.1, 0.5, 0.9];
        assert_eq!(
            loghist_quantiles(&mut &buf[..], phis),
            Ok(h.quantiles(phis))
        );
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

    fn encoded<T: Wire>(value: &T) -> Vec<u8> {
        let mut out = Vec::new();
        value.encode(&mut out);
        out
    }

    /// `n` keys `3i + offset`, key `i` counted `i + 1` times, added
    /// highest first.
    fn straddling(n: usize, offset: u64) -> Vec<u64> {
        (0..n as u64)
            .rev()
            .flat_map(|i| std::iter::repeat_n(3 * i + offset, i as usize + 1))
            .collect()
    }

    /// The plain sorted-`Vec` oracle of a multiset: `(key, count)`
    /// ascending by key.
    fn sorted_counts(keys: &[u64]) -> Vec<(u64, u64)> {
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        let mut out: Vec<(u64, u64)> = Vec::new();
        for k in sorted {
            match out.last_mut() {
                Some(last) if last.0 == k => last.1 += 1,
                _ => out.push((k, 1)),
            }
        }
        out
    }

    /// Keys as their first raw (`put_first`) and every later one as its
    /// gap above the last, minus one, each followed by its count.
    fn gaps(out: &mut Vec<u8>, entries: &[(u64, u64)], put_first: fn(&mut Vec<u8>, u64)) {
        put_varint(out, entries.len() as u64);
        for (i, &(key, count)) in entries.iter().enumerate() {
            match i.checked_sub(1).and_then(|j| entries.get(j)) {
                None => put_first(out, key),
                Some(last) => put_varint(out, key - last.0 - 1),
            }
            put_varint(out, count);
        }
    }

    /// One container on either side of its inline capacity `cap`:
    /// `cap − 1`, `cap` and `cap + 1` entries a side, overlapping or
    /// not, merged in both orders (inline ⊕ inline, inline ⊕ spilled,
    /// spilled ⊕ inline, spilled ⊕ spilled). Each merge is `==` the
    /// single pass and encodes to the sorted-`Vec` oracle's bytes, and a
    /// container is on the heap exactly when it holds more than `cap`.
    fn straddles<S: Wire + MergeSketch + Clone + PartialEq + std::fmt::Debug>(
        cap: usize,
        build: impl Fn(&[u64]) -> S,
        spilled: impl Fn(&S) -> bool,
        oracle: impl Fn(&[(u64, u64)]) -> Vec<u8>,
    ) {
        let sizes = [cap - 1, cap, cap + 1];
        for n in sizes {
            for m in [0, cap - 1, cap, cap + 1] {
                for offset in [0, 1, 3] {
                    let (xs, ys) = (straddling(n, 0), straddling(m, offset));
                    let all = [&xs[..], &ys[..]].concat();
                    let counts = sorted_counts(&all);
                    let whole = build(&all);
                    assert_eq!(encoded(&whole), oracle(&counts), "{n} + {m} @ {offset}");
                    assert_eq!(spilled(&whole), counts.len() > cap);
                    for (a, b) in [(&xs, &ys), (&ys, &xs)] {
                        let mut merged = build(a);
                        merged.merge(&build(b));
                        assert_eq!(merged, whole, "{} ⊕ {}", a.len(), b.len());
                        assert_eq!(encoded(&merged), oracle(&counts));
                        assert_eq!(spilled(&merged), counts.len() > cap);
                    }
                }
            }
        }
    }

    #[test]
    fn every_container_straddles_its_inline_capacity() {
        straddles(
            crate::tally::INLINE_ITEMS,
            |keys| {
                let mut t = Tally::new();
                keys.iter().for_each(|&k| t.add(k));
                t
            },
            Tally::is_spilled,
            |counts| {
                let mut out = Vec::new();
                gaps(&mut out, counts, put_varint);
                out
            },
        );
        let mapping = Mapping::for_accuracy(0.01);
        straddles(
            crate::loghist::INLINE_BUCKETS,
            |keys| {
                let mut h = LogHistogram::new(0.01);
                keys.iter().for_each(|&k| h.add_key(k as i32));
                h
            },
            LogHistogram::is_spilled,
            |counts| {
                let mut out = Vec::new();
                put_varint(&mut out, u64::from(mapping.per_octave()));
                gaps(&mut out, counts, |out, k| put_i64(out, k as i64));
                out
            },
        );
        straddles(
            crate::hll::SMALL_INLINE,
            |keys| {
                let mut d = Distinct::new();
                keys.iter().for_each(|&k| d.add_hash(k));
                d
            },
            Distinct::is_spilled,
            |counts| {
                let mut out = vec![0];
                put_varint(&mut out, counts.len() as u64);
                counts.iter().for_each(|&(h, _)| put_varint(&mut out, h));
                out
            },
        );
        straddles(
            crate::histogram::INLINE_BINS,
            |keys| {
                let mut h = AngleHistogram::new();
                keys.iter().for_each(|&k| h.add_bin(k as usize));
                h
            },
            AngleHistogram::is_spilled,
            |counts| {
                let mut out = Vec::new();
                for bin in 0..12 {
                    let count = counts.iter().find(|e| e.0 == bin).map_or(0, |e| e.1);
                    put_varint(&mut out, count);
                }
                out
            },
        );
    }

    #[test]
    fn cut_bytes_fail_alike_in_skip_and_decode() {
        // A zero count, then the bytes end: truncation is the error a
        // skip sees, so it is the decode's and the readers' too.
        let cut: &[u8] = &[1, 2, 0, 0, 0x80];
        let truncated = Err(WireError("varint truncated"));
        assert_eq!(LogHistogram::skip(&mut &cut[..]), truncated);
        assert_eq!(LogHistogram::decode(&mut &cut[..]).map(drop), truncated);
        assert_eq!(loghist_quantiles(&mut &cut[..], [0.5]).map(drop), truncated);
        let cut: &[u8] = &[2, 5, 0, 0x80];
        assert_eq!(Tally::skip(&mut &cut[..]), truncated);
        assert_eq!(Tally::decode(&mut &cut[..]).map(drop), truncated);
        assert_eq!(tally_heaviest::<8>(&mut &cut[..]).map(drop), truncated);
    }

    #[test]
    fn spacesaving_wire() {
        round_trip(&Tally::new());
        let mut t = Tally::new();
        for i in 0..500u64 {
            t.add((i % 20) * 1_000_003 + (1 << 58));
        }
        round_trip(&t);
        let mut buf = Vec::new();
        t.encode(&mut buf);
        let heaviest = tally_heaviest::<8>(&mut &buf[..]).unwrap();
        assert_eq!(heaviest.as_slice(), &t.top(8)[..]);
    }

    #[test]
    fn decoded_sketches_remain_mergeable() {
        let mut a = Moments::<32>::new();
        a.add(1.0);
        let mut buf = Vec::new();
        a.encode(&mut buf);
        let mut s = &buf[..];
        let mut back = Moments::<32>::decode(&mut s).unwrap();
        let mut b = Moments::<32>::new();
        b.add(3.0);
        back.merge(&b);
        assert_eq!(back.count(), 2);
        assert_eq!(back.mean(), Some(2.0));
    }

    #[test]
    fn garbage_rejected() {
        let garbage = [0xFFu8; 3];
        let mut s = &garbage[..];
        assert!(LogHistogram::decode(&mut s).is_err());
        let mut s2: &[u8] = &[9];
        assert!(Distinct::decode(&mut s2).is_err());
    }
}
