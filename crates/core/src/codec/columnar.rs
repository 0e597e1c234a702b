//! POLINV4 — the columnar, mmap-friendly snapshot format.
//!
//! ## On-disk layout (version 4)
//!
//! ```text
//! magic    b"POLINV4\0"                                  8 bytes
//! header   u32 LE section length                         4 bytes
//!          resolution u8, total-record varint,
//!          section-count varint (= 5), then per section:
//!            kind u8, entry-count varint,
//!            offset varint, length varint                (length bytes)
//!          u64 LE CRC-64/XZ of the header bytes          8 bytes
//! sections five bodies in directory order, each body
//!          followed by its u64 LE CRC-64/XZ              (per directory)
//! footer   u64 LE total file length, b"POLSEAL\0"        16 bytes
//! ```
//!
//! The three grouping-set sections (`cell`, `cell-type`, `cell-route`)
//! share one body shape, columnar and sorted:
//!
//! ```text
//! keys     entry-count × stride bytes, big-endian,
//!          strictly ascending (stride: 8 / 9 / 13)
//! offsets  (entry-count + 1) × u64 LE offsets into blob
//! blob     concatenated canonical CellStats encodings
//! ```
//!
//! Keys are fixed-stride and big-endian so a lexicographic byte compare
//! equals the numeric key order — point lookups are a binary search over
//! the raw key column, touching `O(log n)` cache lines and decoding
//! nothing. The fourth section (`lat-index`) holds one 24-byte row per
//! occupied cell — centre latitude f64 LE, centre longitude f64 LE, raw
//! cell index u64 LE — sorted by latitude, so bbox scans
//! `partition_point` into a latitude band. The fifth section (`top-dest`) inverts
//! the top-destination relation: one 11-byte row — destination u16 BE,
//! segment byte ([`TOP_DEST_ALL_SEGMENTS`] for the all-segments `cell`
//! grouping), raw cell u64 BE — per grouping entry whose most frequent
//! destination is that port, sorted as raw byte tuples so the
//! top-destination-cells query is a `(dest, segment)` prefix range scan
//! returning cells already in ascending order.
//!
//! Directory offsets are relative to the section area (the byte after
//! the header CRC) and the bodies must tile it contiguously — a reader
//! seeks straight to any section without scanning, and nothing hides in
//! gaps. [`Layout::parse`] validates everything eagerly — seal, CRCs,
//! bounds, key sortedness, offset monotonicity — in one linear pass that
//! decodes no sketches, which is why opening a POLINV4 snapshot costs a
//! validation pass, not a deserialization. Stats decode lazily per
//! lookup from the blob column.
//!
//! Statistics are the parent module's canonical
//! [`encode_cell_stats`] bytes — the encoding
//! the wire protocol carries — so every query answered from the mapped
//! file is bit-identical to the heap inventory's answer, and a summary
//! reply is the mapped bytes themselves.

use super::{
    decode_cell_stats, encode_cell_stats, save_bytes, CodecError, FOOTER_MAGIC, MIN_ENTRY_BYTES,
};
use crate::features::{CellStats, GroupKey};
use crate::inventory::Inventory;
use pol_ais::types::MarketSegment;
use pol_hexgrid::{cell_center, CellIndex, Resolution};
use pol_sketch::crc64::crc64;
use pol_sketch::hash::FxHashMap;
use pol_sketch::wire::{get_varint, put_varint, WireError};
use std::io::{self, Read};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::resume_unwind;
use std::path::Path;
use std::sync::Arc;
use std::thread::Builder;

/// File magic (format version 4: columnar sections, sealed footer).
pub const MAGIC_V4: &[u8; 8] = b"POLINV4\0";

/// The five sections of a POLINV4 file, in canonical directory order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SectionKind {
    /// `(H3-index)` grouping set.
    Cell,
    /// `(H3-index, vessel-type)` grouping set.
    CellType,
    /// `(H3-index, origin, destination, vessel-type)` grouping set.
    CellRoute,
    /// Latitude-sorted `(lat, lon, cell)` rows for bbox scans.
    LatIndex,
    /// Inverted top-destination rows `(dest, segment, cell)` for the
    /// top-destination-cells query — sorted so a `(dest, segment)`
    /// prefix range scan yields the answer in ascending cell order.
    TopDest,
}

/// The segment byte a [`SectionKind::TopDest`] row uses for the
/// all-segments (`GroupKey::Cell`) grouping. No [`MarketSegment`] id can
/// collide with it: ids are small contiguous values.
pub const TOP_DEST_ALL_SEGMENTS: u8 = 0xFF;

impl SectionKind {
    /// Directory order: every well-formed file stores exactly these.
    pub const ALL: [SectionKind; 5] = [
        SectionKind::Cell,
        SectionKind::CellType,
        SectionKind::CellRoute,
        SectionKind::LatIndex,
        SectionKind::TopDest,
    ];

    /// The section's directory tag.
    pub const fn id(self) -> u8 {
        match self {
            SectionKind::Cell => 0,
            SectionKind::CellType => 1,
            SectionKind::CellRoute => 2,
            SectionKind::LatIndex => 3,
            SectionKind::TopDest => 4,
        }
    }

    /// The fixed byte stride of one key (or one index row).
    pub const fn stride(self) -> usize {
        match self {
            SectionKind::Cell => 8,
            SectionKind::CellType => 9,
            SectionKind::CellRoute => 13,
            SectionKind::LatIndex => 24,
            SectionKind::TopDest => 11,
        }
    }

    /// Human-readable section name (also the `CodecError::Checksum` tag).
    pub const fn name(self) -> &'static str {
        match self {
            SectionKind::Cell => "cell",
            SectionKind::CellType => "cell-type",
            SectionKind::CellRoute => "cell-route",
            SectionKind::LatIndex => "lat-index",
            SectionKind::TopDest => "top-dest",
        }
    }

    fn from_id(id: u8) -> Option<SectionKind> {
        SectionKind::ALL.into_iter().find(|k| k.id() == id)
    }
}

/// The exact key bytes a point lookup binary-searches for in the `cell`
/// section.
pub fn cell_key(cell: CellIndex) -> [u8; 8] {
    cell.raw().to_be_bytes()
}

/// Key bytes for the `cell-type` section.
pub fn cell_type_key(cell: CellIndex, segment: MarketSegment) -> [u8; 9] {
    let mut k = [0u8; 9];
    k[..8].copy_from_slice(&cell.raw().to_be_bytes());
    // lint: allow(no_unwrap) — constant index into `[u8; 9]`; rustc
    // rejects an out-of-bounds constant at compile time.
    k[8] = segment.id();
    k
}

/// Key bytes for the `cell-route` section.
pub fn cell_route_key(cell: CellIndex, origin: u16, dest: u16, segment: MarketSegment) -> [u8; 13] {
    let mut k = [0u8; 13];
    k[..8].copy_from_slice(&cell.raw().to_be_bytes());
    k[8..10].copy_from_slice(&origin.to_be_bytes());
    k[10..12].copy_from_slice(&dest.to_be_bytes());
    // lint: allow(no_unwrap) — constant index into `[u8; 13]`; rustc
    // rejects an out-of-bounds constant at compile time.
    k[12] = segment.id();
    k
}

fn be_u64(b: &[u8]) -> Option<u64> {
    Some(u64::from_be_bytes(b.get(..8)?.try_into().ok()?))
}

fn be_u16(b: &[u8]) -> Option<u16> {
    Some(u16::from_be_bytes(b.get(..2)?.try_into().ok()?))
}

fn le_u64(b: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(b.get(..8)?.try_into().ok()?))
}

fn le_f64(b: &[u8]) -> Option<f64> {
    Some(f64::from_le_bytes(b.get(..8)?.try_into().ok()?))
}

/// The rows of a fixed-stride section from row `from` on ([`Layout::parse`]
/// checked that the rows tile the section); none when `from` is past them.
fn rows_from(rows: &[u8], from: usize, stride: usize) -> std::slice::ChunksExact<'_, u8> {
    from.checked_mul(stride)
        .and_then(|at| rows.get(at..))
        .unwrap_or_default()
        .chunks_exact(stride)
}

/// One decoded lat-index row: `(centre lat, centre lon, raw cell)`.
fn lat_row(rows: &[u8], i: usize) -> Option<(f64, f64, u64)> {
    let stride = SectionKind::LatIndex.stride();
    let at = i.checked_mul(stride)?;
    let row = rows.get(at..at.checked_add(stride)?)?;
    Some((
        le_f64(row)?,
        le_f64(row.get(8..)?)?,
        le_u64(row.get(16..)?)?,
    ))
}

/// Decodes the fixed-stride key of a grouping section back into a
/// [`GroupKey`]. Returns `None` for the lat-index kind, a wrong-length
/// slice, or field values that do not name a valid cell/segment.
pub fn decode_fixed_key(kind: SectionKind, bytes: &[u8]) -> Option<GroupKey> {
    if bytes.len() != kind.stride() {
        return None;
    }
    let cell = CellIndex::from_raw(be_u64(bytes)?).ok()?;
    match kind {
        SectionKind::Cell => Some(GroupKey::Cell(cell)),
        SectionKind::CellType => {
            let seg = MarketSegment::from_id(*bytes.get(8)?)?;
            Some(GroupKey::CellType(cell, seg))
        }
        SectionKind::CellRoute => {
            let origin = be_u16(bytes.get(8..)?)?;
            let dest = be_u16(bytes.get(10..)?)?;
            let seg = MarketSegment::from_id(*bytes.get(12)?)?;
            Some(GroupKey::CellRoute(cell, origin, dest, seg))
        }
        SectionKind::LatIndex | SectionKind::TopDest => None,
    }
}

/// The exact 11-byte row the top-destination query scans for:
/// destination port BE, segment byte, raw cell BE. Byte order equals
/// `(dest, segment, cell)` tuple order, so a `(dest, segment)` prefix
/// delimits one contiguous, cell-ascending run.
pub fn top_dest_row(dest: u16, segment: u8, cell: u64) -> [u8; 11] {
    let mut k = [0u8; 11];
    k[..2].copy_from_slice(&dest.to_be_bytes());
    // lint: allow(no_unwrap) — constant index into `[u8; 11]`; rustc
    // rejects an out-of-bounds constant at compile time.
    k[2] = segment;
    k[3..].copy_from_slice(&cell.to_be_bytes());
    k
}

/// The validated extent of one grouping-set section: absolute byte
/// ranges into the file image for each of its three columns.
#[derive(Clone, Debug)]
pub struct GroupSpan {
    /// Which grouping set the section stores.
    pub kind: SectionKind,
    /// Entries in the section.
    pub count: usize,
    /// The sorted fixed-stride key column.
    pub keys: Range<usize>,
    /// The `(count + 1)` u64 LE offsets into the stats blob.
    pub offsets: Range<usize>,
    /// The concatenated canonical stats encodings.
    pub blob: Range<usize>,
}

/// A fully validated POLINV4 file layout: where every column lives.
///
/// Produced by [`Layout::parse`], which proves the seal, every section
/// CRC, key sortedness and offset monotonicity before returning — a
/// reader holding a `Layout` may slice the file with `get()` and treat
/// any `None` as an encoder bug, never as hostile input.
#[derive(Clone, Debug)]
pub struct Layout {
    /// Grid resolution of the stored inventory.
    pub resolution: Resolution,
    /// Input records summarised by the stored inventory.
    pub total_records: u64,
    /// The `(H3-index)` grouping-set section.
    pub cell: GroupSpan,
    /// The `(H3-index, vessel-type)` grouping-set section.
    pub cell_type: GroupSpan,
    /// The `(H3-index, origin, destination, vessel-type)` section.
    pub cell_route: GroupSpan,
    /// The latitude-sorted `(lat, lon, cell)` rows.
    pub lat_rows: Range<usize>,
    /// Rows in the lat-index (equals `cell.count`).
    pub lat_count: usize,
    /// The sorted `(dest, segment, cell)` top-destination rows.
    pub top_dest_rows: Range<usize>,
    /// Rows in the top-dest index.
    pub top_dest_count: usize,
    /// Per-section CRC-64/XZ values, in [`SectionKind::ALL`] order.
    pub section_crcs: [u64; 5],
    /// The header section's CRC-64/XZ.
    pub header_crc: u64,
}

struct RawSection {
    kind: SectionKind,
    count: usize,
    body: Range<usize>,
    crc: u64,
}

fn unsealed() -> CodecError {
    CodecError::Unsealed
}

fn wire(msg: &'static str) -> CodecError {
    CodecError::Wire(WireError(msg))
}

impl Layout {
    /// Structurally validates a complete POLINV4 file image.
    ///
    /// One linear pass over the bytes: magic, footer seal, header CRC,
    /// directory sanity (five known sections, contiguous, in order),
    /// per-section CRC, strictly ascending keys, monotone stats offsets
    /// that exactly cover the blob, a lat-index sorted by latitude with
    /// one row per occupied cell, and strictly ascending top-dest rows.
    /// No sketch is decoded.
    pub fn parse(bytes: &[u8]) -> Result<Layout, CodecError> {
        if bytes.len() < MAGIC_V4.len() || &bytes[..MAGIC_V4.len()] != MAGIC_V4 {
            return Err(CodecError::BadHeader);
        }
        // Footer seal first, as everywhere else: prove the file *ends*
        // correctly before trusting anything in the middle.
        if bytes.len() < MAGIC_V4.len() + 16 {
            return Err(unsealed());
        }
        let seal_at = bytes.len() - FOOTER_MAGIC.len();
        if &bytes[seal_at..] != FOOTER_MAGIC {
            return Err(unsealed());
        }
        let len_at = seal_at - 8;
        let recorded = le_u64(&bytes[len_at..]).ok_or_else(unsealed)?;
        if recorded != bytes.len() as u64 {
            return Err(unsealed());
        }

        // Header section.
        let mut at = MAGIC_V4.len();
        let take = |at: &mut usize, n: usize| -> Result<&[u8], CodecError> {
            let end = at.checked_add(n).ok_or_else(unsealed)?;
            if end > len_at {
                return Err(unsealed());
            }
            let s = &bytes[*at..end];
            *at = end;
            Ok(s)
        };
        let header_len =
            u32::from_le_bytes(take(&mut at, 4)?.try_into().map_err(|_| unsealed())?) as usize;
        let header = take(&mut at, header_len)?;
        let header_crc = u64::from_le_bytes(take(&mut at, 8)?.try_into().map_err(|_| unsealed())?);
        if crc64(header) != header_crc {
            return Err(CodecError::Checksum { section: "header" });
        }
        let mut h = header;
        let (&res_raw, rest) = h.split_first().ok_or(CodecError::BadHeader)?;
        h = rest;
        let resolution = Resolution::new(res_raw).ok_or(CodecError::BadHeader)?;
        let total_records = get_varint(&mut h)?;
        let n_sections = get_varint(&mut h)? as usize;
        if n_sections != SectionKind::ALL.len() {
            return Err(wire("unexpected section count"));
        }
        let area_start = at;
        let area_len = len_at.checked_sub(area_start).ok_or_else(unsealed)?;
        let mut raw: Vec<RawSection> = Vec::with_capacity(n_sections);
        let mut expect_off = 0usize;
        for want in SectionKind::ALL {
            let (&kind_id, rest) = h.split_first().ok_or(wire("directory truncated"))?;
            h = rest;
            let kind = SectionKind::from_id(kind_id).ok_or(wire("unknown section kind"))?;
            if kind != want {
                return Err(wire("sections out of canonical order"));
            }
            let count = usize::try_from(get_varint(&mut h)?).map_err(|_| wire("huge count"))?;
            let off = usize::try_from(get_varint(&mut h)?).map_err(|_| wire("huge offset"))?;
            let len = usize::try_from(get_varint(&mut h)?).map_err(|_| wire("huge length"))?;
            // Contiguity: bodies tile the section area in directory
            // order, so nothing can hide between or after them.
            if off != expect_off {
                return Err(wire("section directory not contiguous"));
            }
            let body_start = area_start.checked_add(off).ok_or_else(unsealed)?;
            let body_end = body_start.checked_add(len).ok_or_else(unsealed)?;
            let crc_end = body_end.checked_add(8).ok_or_else(unsealed)?;
            if crc_end > len_at {
                return Err(unsealed());
            }
            let crc = le_u64(&bytes[body_end..crc_end]).ok_or_else(unsealed)?;
            if crc64(&bytes[body_start..body_end]) != crc {
                return Err(CodecError::Checksum {
                    section: kind.name(),
                });
            }
            expect_off = off
                .checked_add(len)
                .and_then(|v| v.checked_add(8))
                .ok_or_else(unsealed)?;
            raw.push(RawSection {
                kind,
                count,
                body: body_start..body_end,
                crc,
            });
        }
        if !h.is_empty() {
            return Err(wire("trailing header bytes"));
        }
        if expect_off != area_len {
            return Err(unsealed());
        }

        let mut group_spans: Vec<GroupSpan> = Vec::with_capacity(3);
        let mut lat_span = 0..0;
        let mut lat_count = 0usize;
        let mut top_dest_span = 0..0;
        let mut top_dest_count = 0usize;
        let mut section_crcs = [0u64; 5];
        for (slot, sec) in raw.iter().enumerate() {
            if let Some(c) = section_crcs.get_mut(slot) {
                *c = sec.crc;
            }
            let stride = sec.kind.stride();
            let body = &bytes[sec.body.clone()];
            if sec.kind == SectionKind::TopDest {
                // Hostile-count guard + exact tiling of the rows.
                if sec.count.checked_mul(stride) != Some(body.len()) {
                    return Err(wire("top-dest length mismatch"));
                }
                // Rows strictly ascending as raw byte tuples: the prefix
                // range scan the top-destination query runs requires it,
                // and it rules out duplicate rows.
                for w in 0..sec.count.saturating_sub(1) {
                    let a = body.get(w * stride..(w + 1) * stride);
                    let b = body.get((w + 1) * stride..(w + 2) * stride);
                    match (a, b) {
                        (Some(a), Some(b)) if a < b => {}
                        _ => return Err(wire("top-dest rows not sorted")),
                    }
                }
                top_dest_span = sec.body.clone();
                top_dest_count = sec.count;
                continue;
            }
            if sec.kind == SectionKind::LatIndex {
                // Hostile-count guard + exact tiling of the rows.
                if sec.count.checked_mul(stride) != Some(body.len()) {
                    return Err(wire("lat-index length mismatch"));
                }
                // Rows sorted by (latitude, cell): the partition_point
                // the bbox scan runs requires it.
                for w in 0..sec.count.saturating_sub(1) {
                    let a = lat_row(body, w).ok_or(wire("lat-index row unreadable"))?;
                    let b = lat_row(body, w + 1).ok_or(wire("lat-index row unreadable"))?;
                    let ord = a.0.total_cmp(&b.0).then_with(|| a.2.cmp(&b.2));
                    if ord != std::cmp::Ordering::Less {
                        return Err(wire("lat-index not sorted"));
                    }
                }
                lat_span = sec.body.clone();
                lat_count = sec.count;
                continue;
            }
            // Grouping section: keys, offsets, blob must tile the body.
            let keys_len = sec
                .count
                .checked_mul(stride)
                .ok_or(wire("huge key column"))?;
            let offsets_len = sec
                .count
                .checked_add(1)
                .and_then(|n| n.checked_mul(8))
                .ok_or(wire("huge offset column"))?;
            let fixed = keys_len
                .checked_add(offsets_len)
                .ok_or(wire("huge section"))?;
            if fixed > body.len() {
                return Err(wire("entry count exceeds section"));
            }
            let blob_len = body.len() - fixed;
            // Allocation guard: a count claiming more entries than the
            // blob could physically hold is hostile. Stats alone
            // dominate MIN_ENTRY_BYTES, so that bound applies.
            if sec
                .count
                .checked_mul(MIN_ENTRY_BYTES)
                .map(|need| need > blob_len.saturating_add(keys_len))
                .unwrap_or(true)
                && sec.count > 0
            {
                return Err(wire("entry count exceeds buffer"));
            }
            let keys = &body[..keys_len];
            let offsets = &body[keys_len..fixed];
            // Keys strictly ascending: binary-search soundness and entry
            // uniqueness in one check.
            for w in 0..sec.count.saturating_sub(1) {
                let a = keys.get(w * stride..(w + 1) * stride);
                let b = keys.get((w + 1) * stride..(w + 2) * stride);
                match (a, b) {
                    (Some(a), Some(b)) if a < b => {}
                    _ => return Err(wire("keys not strictly sorted")),
                }
            }
            // Offsets strictly increasing (every entry non-empty),
            // starting at zero and ending exactly at the blob length.
            let mut prev: Option<u64> = None;
            for i in 0..=sec.count {
                let off = le_u64(offsets.get(i * 8..).unwrap_or(&[]))
                    .ok_or(wire("offset column unreadable"))?;
                match prev {
                    None if off != 0 => return Err(wire("first offset not zero")),
                    Some(p) if off <= p => return Err(wire("offsets not increasing")),
                    _ => {}
                }
                // The zero-count section's single offset must still be 0.
                if i == sec.count && off != blob_len as u64 {
                    return Err(wire("offsets do not cover blob"));
                }
                prev = Some(off);
            }
            group_spans.push(GroupSpan {
                kind: sec.kind,
                count: sec.count,
                keys: sec.body.start..sec.body.start + keys_len,
                offsets: sec.body.start + keys_len..sec.body.start + fixed,
                blob: sec.body.start + fixed..sec.body.end,
            });
        }
        let mut spans = group_spans.into_iter();
        let (cell, cell_type, cell_route) = match (spans.next(), spans.next(), spans.next()) {
            (Some(a), Some(b), Some(c)) => (a, b, c),
            _ => return Err(wire("missing grouping section")),
        };
        if lat_count != cell.count {
            return Err(wire("lat-index row count mismatch"));
        }
        Ok(Layout {
            resolution,
            total_records,
            cell,
            cell_type,
            cell_route,
            lat_rows: lat_span,
            lat_count,
            top_dest_rows: top_dest_span,
            top_dest_count,
            section_crcs,
            header_crc,
        })
    }

    /// A CRC-64/XZ over the header's CRC and then the five section CRCs,
    /// each u64 LE: what a POLMAN2 manifest pins a link by. Each of those
    /// CRCs covers its block's content, so two images one statistic apart
    /// differ here, where their whole-file CRCs need not.
    pub fn content_crc(&self) -> u64 {
        let mut crcs = [0u8; 48];
        let all = std::iter::once(self.header_crc).chain(self.section_crcs);
        for (slot, crc) in crcs.chunks_exact_mut(8).zip(all) {
            slot.copy_from_slice(&crc.to_le_bytes());
        }
        crc64(&crcs)
    }
}

/// Zero-copy accessor over one validated grouping-set section.
///
/// Borrowing both the file bytes and the [`Layout`] span, it answers
/// point lookups by binary search over the sorted key column and hands
/// out raw stats byte slices without decoding. All accessors are
/// panic-free: out-of-range indices return `None`.
pub struct SectionReader<'a> {
    kind: SectionKind,
    count: usize,
    keys: &'a [u8],
    offsets: &'a [u8],
    blob: &'a [u8],
}

impl<'a> SectionReader<'a> {
    /// Borrows a section from a file image previously validated by
    /// [`Layout::parse`]. `None` if the span does not fit `bytes` (an
    /// encoder bug or a layout from a different file).
    pub fn new(bytes: &'a [u8], span: &GroupSpan) -> Option<SectionReader<'a>> {
        Some(SectionReader {
            kind: span.kind,
            count: span.count,
            keys: bytes.get(span.keys.clone())?,
            offsets: bytes.get(span.offsets.clone())?,
            blob: bytes.get(span.blob.clone())?,
        })
    }

    /// Entries in the section.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the section has no entries.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The section's grouping set.
    pub fn kind(&self) -> SectionKind {
        self.kind
    }

    /// The fixed-stride key bytes of entry `i`.
    pub fn key_at(&self, i: usize) -> Option<&'a [u8]> {
        let stride = self.kind.stride();
        let at = i.checked_mul(stride)?;
        self.keys.get(at..at.checked_add(stride)?)
    }

    /// The decoded [`GroupKey`] of entry `i`.
    pub fn group_key_at(&self, i: usize) -> Option<GroupKey> {
        decode_fixed_key(self.kind, self.key_at(i)?)
    }

    /// The canonical stats encoding of entry `i`, undecoded.
    pub fn stats_bytes(&self, i: usize) -> Option<&'a [u8]> {
        if i >= self.count {
            return None;
        }
        let start = le_u64(self.offsets.get(i * 8..)?)? as usize;
        let end = le_u64(self.offsets.get((i + 1) * 8..)?)? as usize;
        self.blob.get(start..end)
    }

    /// Decodes the stats of entry `i`, requiring the entry's blob slice
    /// to be fully consumed. `None` on any mismatch — with CRCs already
    /// verified this can only mean an encoder bug, never corruption.
    pub fn decode_stats(&self, i: usize) -> Option<CellStats> {
        let mut input = self.stats_bytes(i)?;
        let stats = decode_cell_stats(&mut input).ok()?;
        input.is_empty().then_some(stats)
    }

    /// Binary-searches the sorted key column for exact `key` bytes.
    pub fn find(&self, key: &[u8]) -> Option<usize> {
        let mut lo = 0usize;
        let mut hi = self.count;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.key_at(mid)?.cmp(key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
    }
}

/// Zero-copy accessor over the latitude-sorted cell rows.
pub struct LatIndexReader<'a> {
    rows: &'a [u8],
    count: usize,
}

impl<'a> LatIndexReader<'a> {
    /// Borrows the lat-index from a validated file image.
    pub fn new(bytes: &'a [u8], layout: &Layout) -> Option<LatIndexReader<'a>> {
        Some(LatIndexReader {
            rows: bytes.get(layout.lat_rows.clone())?,
            count: layout.lat_count,
        })
    }

    /// Rows in the index (one per occupied cell).
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the index has no rows.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Row `i`: `(centre lat, centre lon, raw cell index)`.
    pub fn row(&self, i: usize) -> Option<(f64, f64, u64)> {
        if i >= self.count {
            return None;
        }
        lat_row(self.rows, i)
    }

    /// The rows from `i` on, in latitude order, read as one slice.
    pub fn rows_from(&self, i: usize) -> impl Iterator<Item = (f64, f64, u64)> + 'a {
        rows_from(self.rows, i, SectionKind::LatIndex.stride()).filter_map(|row| lat_row(row, 0))
    }

    /// The first row whose latitude is `>= lat` — the start of a
    /// latitude-band scan.
    pub fn lower_bound_lat(&self, lat: f64) -> usize {
        let mut lo = 0usize;
        let mut hi = self.count;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let below = self
                .row(mid)
                .map(|(l, _, _)| l.total_cmp(&lat) == std::cmp::Ordering::Less)
                .unwrap_or(false);
            if below {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// Zero-copy accessor over the sorted `(dest, segment, cell)` rows.
///
/// The top-destination-cells query binary-searches to the first row with
/// the wanted `(dest, segment)` prefix and walks the contiguous run —
/// `O(log n + answer)` instead of the heap store's full-entry scan.
pub struct TopDestReader<'a> {
    rows: &'a [u8],
    count: usize,
}

impl<'a> TopDestReader<'a> {
    /// Borrows the top-dest index from a validated file image.
    pub fn new(bytes: &'a [u8], layout: &Layout) -> Option<TopDestReader<'a>> {
        Some(TopDestReader {
            rows: bytes.get(layout.top_dest_rows.clone())?,
            count: layout.top_dest_count,
        })
    }

    /// Rows in the index.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the index has no rows.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The raw 11-byte row at `i`.
    pub fn row_bytes(&self, i: usize) -> Option<&'a [u8]> {
        let stride = SectionKind::TopDest.stride();
        let at = i.checked_mul(stride)?;
        if i >= self.count {
            return None;
        }
        self.rows.get(at..at.checked_add(stride)?)
    }

    /// The first row whose bytes are `>= prefix` (compared over the
    /// prefix length) — the start of a `(dest, segment)` range scan.
    pub fn lower_bound(&self, prefix: &[u8]) -> usize {
        let mut lo = 0usize;
        let mut hi = self.count;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let below = self
                .row_bytes(mid)
                .and_then(|r| r.get(..prefix.len()))
                .map(|head| head < prefix)
                .unwrap_or(false);
            if below {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Every cell whose top destination is `dest` under segment byte
    /// `segment` ([`TOP_DEST_ALL_SEGMENTS`] for the all-segments
    /// grouping), in ascending cell order: the rows from the first with
    /// that prefix to the first past it, found by two binary searches and
    /// read as one slice of known length.
    pub fn cells_for(&self, dest: u16, segment: u8) -> impl ExactSizeIterator<Item = u64> + 'a {
        let [dest_hi, dest_lo] = dest.to_be_bytes();
        let from = self.lower_bound(&[dest_hi, dest_lo, segment]);
        // The next prefix up, as a 3-byte big-endian number; none past
        // the largest.
        let key = u32::from_be_bytes([0, dest_hi, dest_lo, segment]) + 1;
        let to = match key.to_be_bytes() {
            [0, next @ ..] => self.lower_bound(&next),
            _ => self.count,
        };
        let stride = SectionKind::TopDest.stride();
        let run = self
            .rows
            .get(from * stride..to * stride)
            .unwrap_or_default();
        // A row is 11 bytes: its last 8 are the cell.
        (run.chunks_exact(stride)).map(|row| row.last_chunk().map_or(0, |c| u64::from_be_bytes(*c)))
    }
}

/// The most a POLINV4 image can hold before its section area: magic,
/// header length, the longest possible header (resolution byte, two
/// varints, five directory rows of a kind byte and three varints) and
/// the header CRC.
const MAX_PREFIX: usize = MAGIC_V4.len() + 4 + (1 + 10 + 10 + 5 * (1 + 3 * 10)) + 8;

/// The fixed-stride big-endian encoding of a [`GroupKey`]: the bytes of
/// its section's stride, zero-padded to the widest.
///
/// Big-endian field order means a lexicographic byte compare over
/// encoded keys sorts them exactly like the tuple `(cell, origin, dest,
/// segment)` — the property [`SectionReader::find`] relies on — and
/// within one grouping set the padding is equal, so array order is key
/// order too.
fn fixed_key(key: &GroupKey) -> [u8; 13] {
    let mut k = [0u8; 13];
    match key {
        GroupKey::Cell(c) => k[..8].copy_from_slice(&cell_key(*c)),
        GroupKey::CellType(c, seg) => k[..9].copy_from_slice(&cell_type_key(*c, *seg)),
        GroupKey::CellRoute(c, o, d, seg) => k = cell_route_key(*c, *o, *d, *seg),
    }
    k
}

/// Appends `body`'s CRC-64 — `body` being everything `out` holds from
/// `start` on — and returns the section's directory row.
fn seal_section(
    out: &mut Vec<u8>,
    kind: SectionKind,
    count: usize,
    start: usize,
) -> (SectionKind, usize, usize) {
    let len = out.len() - start;
    let crc = crc64(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    (kind, count, len)
}

/// A grouping section's entries, sorted by encoded key.
type Entry<'a> = ([u8; 13], &'a CellStats);

/// Appends `entries`' canonical stats encodings to `out`, pushing each
/// one's end — counted from where `out` ended on entry — onto `ends`.
fn encode_blob(entries: &[Entry<'_>], out: &mut Vec<u8>, ends: &mut Vec<u64>) {
    let start = out.len();
    for (_, stats) in entries {
        encode_cell_stats(stats, out);
        ends.push((out.len() - start) as u64);
    }
}

/// [`encode_blob`] into a buffer of its own: one piece of a section.
fn encode_piece(entries: &[Entry<'_>]) -> (Vec<u8>, Vec<u64>) {
    let mut out = Vec::with_capacity(entries.len() * MIN_ENTRY_BYTES);
    let mut ends = Vec::with_capacity(entries.len());
    encode_blob(entries, &mut out, &mut ends);
    (out, ends)
}

/// Entries a grouping section needs per piece before its blob is cut:
/// a helper thread's start and join (~50 µs on two vCPUs) must stay small
/// beside the piece's encoding (~0.5 µs an entry), so a section of fewer
/// than two of these is encoded inline.
const MIN_PIECE_ENTRIES: usize = 1_024;

/// Appends `entries`' blob column to `out` in `pieces` contiguous pieces
/// (at most): the calling thread encodes the first in place while one
/// scoped thread per further piece encodes it into a buffer of its own,
/// and those buffers are appended in order. `ends` is refilled with each
/// entry's end, counted from where the blob starts. The bytes are the
/// same for every piece count.
fn encode_blob_column(
    entries: &[Entry<'_>],
    pieces: usize,
    out: &mut Vec<u8>,
    ends: &mut Vec<u64>,
) {
    ends.clear();
    let blob = out.len();
    let mut pieces = entries.chunks(entries.len().div_ceil(pieces.max(1)).max(1));
    let first = pieces.next().unwrap_or_default();
    std::thread::scope(|scope| {
        let helpers: Vec<_> = pieces
            .map(|piece| {
                let thread = Builder::new().spawn_scoped(scope, move || encode_piece(piece));
                (piece, thread)
            })
            .collect();
        encode_blob(first, out, ends);
        for (piece, thread) in helpers {
            let (bytes, piece_ends) = match thread {
                Ok(thread) => thread.join().unwrap_or_else(|panic| resume_unwind(panic)),
                Err(_) => encode_piece(piece),
            };
            let base = (out.len() - blob) as u64;
            ends.extend(piece_ends.iter().map(|end| base + end));
            out.extend_from_slice(&bytes);
        }
    });
}

/// Serializes an inventory to its complete POLINV4 file image (magic
/// through sealed footer). Deterministic: equal inventories always
/// produce identical bytes.
///
/// The image is built in the one buffer that is returned: every section
/// is encoded where it will stay (a grouping section's offsets column is
/// patched once its blob is written behind it), and the header — whose
/// length depends on the sections' — is written last, into room left in
/// front.
///
/// A grouping section's blob column is encoded in pieces on every core:
/// its sorted entries are cut into at most
/// [`std::thread::available_parallelism`] contiguous pieces of about
/// 1 024 entries or more (`MIN_PIECE_ENTRIES`), the first encoded on
/// the calling thread and each further one on a scoped thread of its
/// own, then appended in order with their end offsets rebased. One
/// piece spawns no thread, and a piece whose thread cannot be spawned is
/// encoded on the calling thread; the bytes are the same however the
/// entries are cut.
pub fn to_bytes(inv: &Inventory) -> Vec<u8> {
    // Partition entries by grouping set and sort by encoded key — the
    // fixed-stride big-endian encoding makes byte order == key order.
    let mut groups: [Vec<Entry<'_>>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut lat_rows: Vec<(f64, f64, u64)> = Vec::new();
    let mut top_rows: Vec<[u8; 11]> = Vec::new();
    for (key, stats) in inv.iter() {
        // Invert the top-destination relation for the `cell` and
        // `cell-type` groupings — the same top destination the heap
        // query evaluates per entry, precomputed once at encode time.
        let top_of = |seg: u8, cell: &CellIndex| {
            stats
                .destinations
                .top1()
                .map(|(d, _)| top_dest_row(d as u16, seg, cell.raw()))
        };
        let slot = match key {
            GroupKey::Cell(c) => {
                let center = cell_center(*c);
                lat_rows.push((center.lat(), center.lon(), c.raw()));
                top_rows.extend(top_of(TOP_DEST_ALL_SEGMENTS, c));
                0
            }
            GroupKey::CellType(c, seg) => {
                top_rows.extend(top_of(seg.id(), c));
                1
            }
            GroupKey::CellRoute(..) => 2,
        };
        if let Some(g) = groups.get_mut(slot) {
            g.push((fixed_key(key), stats));
        }
    }
    for g in &mut groups {
        g.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    }
    top_rows.sort_unstable();
    lat_rows.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.2.cmp(&b.2)));

    let mut out = Vec::with_capacity(MAX_PREFIX + inv.len() * MIN_ENTRY_BYTES);
    out.resize(MAX_PREFIX, 0);
    let mut directory = Vec::with_capacity(SectionKind::ALL.len());
    // The core count is read from the cgroup's files (~15 µs): only ask
    // when some section is long enough to be cut.
    let cores = if groups.iter().any(|g| g.len() >= 2 * MIN_PIECE_ENTRIES) {
        std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
    } else {
        1
    };
    let mut ends = Vec::new();
    for (entries, kind) in groups.iter().zip(SectionKind::ALL) {
        let start = out.len();
        for (key, _) in entries {
            out.extend_from_slice(&key[..kind.stride()]);
        }
        let offsets = out.len();
        out.resize(offsets + (entries.len() + 1) * 8, 0);
        let blob = out.len();
        let pieces = (entries.len() / MIN_PIECE_ENTRIES).clamp(1, cores);
        encode_blob_column(entries, pieces, &mut out, &mut ends);
        let column = out.get_mut(offsets + 8..blob).unwrap_or_default();
        for (slot, end) in column.chunks_exact_mut(8).zip(&ends) {
            slot.copy_from_slice(&end.to_le_bytes());
        }
        directory.push(seal_section(&mut out, kind, entries.len(), start));
    }
    let start = out.len();
    for (lat, lon, raw) in &lat_rows {
        out.extend_from_slice(&lat.to_le_bytes());
        out.extend_from_slice(&lon.to_le_bytes());
        out.extend_from_slice(&raw.to_le_bytes());
    }
    directory.push(seal_section(
        &mut out,
        SectionKind::LatIndex,
        lat_rows.len(),
        start,
    ));
    let start = out.len();
    for row in &top_rows {
        out.extend_from_slice(row);
    }
    directory.push(seal_section(
        &mut out,
        SectionKind::TopDest,
        top_rows.len(),
        start,
    ));

    let mut header = Vec::with_capacity(64);
    header.push(inv.resolution().level());
    put_varint(&mut header, inv.total_records());
    put_varint(&mut header, directory.len() as u64);
    let mut offset = 0;
    for (kind, count, len) in directory {
        header.push(kind.id());
        put_varint(&mut header, count as u64);
        put_varint(&mut header, offset as u64);
        put_varint(&mut header, len as u64);
        offset += len + 8;
    }
    // The prefix takes the place of the room left for it: the section
    // area moves down once, by what the room had to spare.
    let mut prefix = Vec::with_capacity(MAX_PREFIX);
    prefix.extend_from_slice(MAGIC_V4);
    prefix.extend_from_slice(&(header.len() as u32).to_le_bytes());
    prefix.extend_from_slice(&header);
    prefix.extend_from_slice(&crc64(&header).to_le_bytes());
    out.splice(..MAX_PREFIX, prefix);
    let file_len = out.len() as u64 + 16; // footer included
    out.extend_from_slice(&file_len.to_le_bytes());
    out.extend_from_slice(FOOTER_MAGIC);
    out
}

/// Deserializes a POLINV4 file image into a heap [`Inventory`] —
/// validating the layout, then decoding every entry of every grouping
/// section (the path for tools and delta merges; serving reads
/// zero-copy via [`Layout`] + [`SectionReader`] instead).
pub fn from_bytes(bytes: &[u8]) -> Result<Inventory, CodecError> {
    decode(bytes, &Layout::parse(bytes)?)
}

/// Decodes every entry of an image whose `layout` was already parsed.
pub(crate) fn decode(bytes: &[u8], layout: &Layout) -> Result<Inventory, CodecError> {
    let mut entries: FxHashMap<GroupKey, Arc<CellStats>> = FxHashMap::default();
    let total: usize = layout.cell.count + layout.cell_type.count + layout.cell_route.count;
    entries.reserve(total);
    for span in [&layout.cell, &layout.cell_type, &layout.cell_route] {
        let reader = SectionReader::new(bytes, span).ok_or(wire("section out of bounds"))?;
        for i in 0..reader.len() {
            let key = reader.group_key_at(i).ok_or(wire("bad section key"))?;
            let mut input = reader.stats_bytes(i).ok_or(wire("bad stats offsets"))?;
            // Decoded once, moved once: into the allocation it is shared from.
            entries.insert(key, Arc::new(decode_cell_stats(&mut input)?));
            if !input.is_empty() {
                return Err(wire("trailing stats bytes"));
            }
        }
    }
    Ok(Inventory::from_shared(
        layout.resolution,
        entries,
        layout.total_records,
    ))
}

/// What [`verify_bytes`] found in one section of a sound POLINV4 file.
#[derive(Clone, Debug)]
pub struct SectionReport {
    /// Section name (`cell`, `cell-type`, `cell-route`, `lat-index`,
    /// `top-dest`).
    pub name: &'static str,
    /// Entries (or lat-index rows) in the section.
    pub entries: usize,
    /// The section's CRC-64/XZ, verified against its bytes.
    pub crc: u64,
}

/// What [`verify_bytes`] found in a structurally sound POLINV4 file.
#[derive(Clone, Debug)]
pub struct ColumnarReport {
    /// Total file length in bytes, as recorded in the sealed footer.
    pub file_len: u64,
    /// Grid resolution level of the stored inventory.
    pub resolution: u8,
    /// Input records summarised by the stored inventory.
    pub total_records: u64,
    /// Per-section findings, in directory order.
    pub sections: Vec<SectionReport>,
    /// Group-identifier entries decoded across all grouping sections.
    pub entries: usize,
}

/// Audits a POLINV4 file image end to end: layout validation plus a
/// full decode of every entry (catching logical corruption a checksum
/// of buggy bytes would bless). Any failure is the same typed
/// [`CodecError`] a load would produce.
pub fn verify_bytes(bytes: &[u8]) -> Result<ColumnarReport, CodecError> {
    let layout = Layout::parse(bytes)?;
    let inv = decode(bytes, &layout)?;
    let counts = [
        layout.cell.count,
        layout.cell_type.count,
        layout.cell_route.count,
        layout.lat_count,
        layout.top_dest_count,
    ];
    let sections = SectionKind::ALL
        .iter()
        .zip(counts)
        .zip(layout.section_crcs)
        .map(|((kind, entries), crc)| SectionReport {
            name: kind.name(),
            entries,
            crc,
        })
        .collect();
    Ok(ColumnarReport {
        file_len: bytes.len() as u64,
        resolution: layout.resolution.level(),
        total_records: layout.total_records,
        sections,
        entries: inv.len(),
    })
}

/// Audits a POLINV4 file on disk (see [`verify_bytes`]).
pub fn verify(path: &Path) -> Result<ColumnarReport, CodecError> {
    let mut buf = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut buf)?;
    verify_bytes(&buf)
}

/// Saves an inventory as a POLINV4 file, crash-safely — the temp-file
/// + fsync + atomic-rename discipline of [`save_bytes`].
pub fn save(inv: &Inventory, path: &Path) -> io::Result<()> {
    save_bytes(&to_bytes(inv), path)
}

/// Loads a POLINV4 file into a heap [`Inventory`] (full decode).
pub fn load(path: &Path) -> Result<Inventory, CodecError> {
    let mut buf = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut buf)?;
    from_bytes(&buf)
}

#[cfg(test)]
mod tests {
    use super::super::tests::{one_statistic_apart, sample_inventory};
    use super::*;
    use pol_geo::{BBox, LatLon};

    fn stats_bytes_of(s: &CellStats) -> Vec<u8> {
        let mut out = Vec::new();
        encode_cell_stats(s, &mut out);
        out
    }

    #[test]
    fn round_trip_preserves_every_entry() {
        let inv = sample_inventory(400);
        let bytes = to_bytes(&inv);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.resolution(), inv.resolution());
        assert_eq!(back.total_records(), inv.total_records());
        assert_eq!(back.len(), inv.len());
        for (key, stats) in inv.iter() {
            let b = back.get(key).unwrap_or_else(|| panic!("missing {key:?}"));
            assert_eq!(stats_bytes_of(b), stats_bytes_of(stats));
        }
    }

    /// The blob column and its ends are the same in any number of pieces,
    /// at a section's edges too: no entry, one, fewer entries than
    /// pieces, an odd count.
    #[test]
    fn blob_column_is_the_same_in_any_number_of_pieces() {
        let inv = sample_inventory(40);
        let all: Vec<Entry<'_>> = inv.iter().map(|(_, stats)| ([0; 13], stats)).collect();
        for n in [0, 1, 2, 3, 5, 7, all.len()] {
            let entries = &all[..n];
            let want: Vec<u8> = entries
                .iter()
                .flat_map(|(_, s)| stats_bytes_of(s))
                .collect();
            let mut want_ends = Vec::new();
            let mut end = 0;
            for (_, stats) in entries {
                end += stats_bytes_of(stats).len() as u64;
                want_ends.push(end);
            }
            for pieces in 1..=4 {
                let (mut out, mut ends) = (vec![0xAA; 5], vec![9]);
                encode_blob_column(entries, pieces, &mut out, &mut ends);
                assert_eq!(
                    out.get(5..),
                    Some(&want[..]),
                    "{n} entries, {pieces} pieces"
                );
                assert_eq!(ends, want_ends, "{n} entries, {pieces} pieces");
            }
        }
    }

    #[test]
    fn deterministic_bytes() {
        assert_eq!(
            to_bytes(&sample_inventory(200)),
            to_bytes(&sample_inventory(200))
        );
    }

    #[test]
    fn binary_search_finds_every_key_with_identical_stats() {
        let inv = sample_inventory(300);
        let bytes = to_bytes(&inv);
        let layout = Layout::parse(&bytes).unwrap();
        for (span, _) in [
            (&layout.cell, 0),
            (&layout.cell_type, 1),
            (&layout.cell_route, 2),
        ] {
            let reader = SectionReader::new(&bytes, span).unwrap();
            for i in 0..reader.len() {
                let key = reader.group_key_at(i).unwrap();
                let kb = fixed_key(&key);
                assert_eq!(reader.find(&kb[..span.kind.stride()]), Some(i));
                let expect = inv.get(&key).unwrap();
                let decoded = reader.decode_stats(i).unwrap();
                assert_eq!(stats_bytes_of(&decoded), stats_bytes_of(expect));
            }
            // A key that cannot exist is not found.
            assert_eq!(reader.find(&vec![0xFF; span.kind.stride()]), None);
        }
    }

    #[test]
    fn lat_index_band_scan_matches_inventory_cells_in() {
        let inv = sample_inventory(500);
        let bytes = to_bytes(&inv);
        let layout = Layout::parse(&bytes).unwrap();
        let lat = LatIndexReader::new(&bytes, &layout).unwrap();
        assert_eq!(lat.len(), layout.cell.count);
        let bbox = BBox::new(-30.0, -60.0, 30.0, 60.0).unwrap();
        let mut got: Vec<u64> = Vec::new();
        let mut i = lat.lower_bound_lat(bbox.min_lat);
        while let Some((la, lo, raw)) = lat.row(i) {
            if la > bbox.max_lat {
                break;
            }
            if let Some(p) = LatLon::new(la, lo) {
                if bbox.contains(p) {
                    got.push(raw);
                }
            }
            i += 1;
        }
        got.sort_unstable();
        let mut want: Vec<u64> = inv.cells_in(&bbox).iter().map(|c| c.raw()).collect();
        want.sort_unstable();
        assert!(!want.is_empty());
        assert_eq!(got, want);
    }

    #[test]
    fn empty_inventory_round_trips() {
        let inv = Inventory::from_entries(Resolution::new(7).unwrap(), FxHashMap::default(), 0);
        let bytes = to_bytes(&inv);
        let layout = Layout::parse(&bytes).unwrap();
        assert_eq!(layout.cell.count, 0);
        assert_eq!(layout.lat_count, 0);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), 0);
        assert_eq!(back.resolution().level(), 7);
    }

    #[test]
    fn rejects_garbage_truncation_and_bit_flips() {
        assert!(matches!(
            from_bytes(b"not an inventory"),
            Err(CodecError::BadHeader)
        ));
        let bytes = to_bytes(&sample_inventory(50));
        for cut in (0..bytes.len() - 1).step_by(13) {
            match from_bytes(&bytes[..cut]).err() {
                Some(CodecError::BadHeader) | Some(CodecError::Unsealed) => {}
                other => panic!("prefix of {cut} bytes: expected typed error, got {other:?}"),
            }
        }
        for byte in (0..bytes.len()).step_by(7) {
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 1 << (byte % 8);
            assert!(
                from_bytes(&corrupt).is_err(),
                "bit flip at byte {byte} went undetected"
            );
        }
        // Corruption inside a section's body names that section.
        let layout = Layout::parse(&bytes).unwrap();
        let mut corrupt = bytes.clone();
        corrupt[layout.cell_route.blob.start + layout.cell_route.blob.len() / 2] ^= 0x10;
        match from_bytes(&corrupt).err() {
            Some(CodecError::Checksum {
                section: "cell-route",
            }) => {}
            other => panic!("expected cell-route checksum failure, got {other:?}"),
        }
    }

    #[test]
    fn verify_reports_sections() {
        let inv = sample_inventory(120);
        let bytes = to_bytes(&inv);
        let report = verify_bytes(&bytes).unwrap();
        assert_eq!(report.entries, inv.len());
        assert_eq!(report.resolution, inv.resolution().level());
        assert_eq!(report.sections.len(), 5);
        assert_eq!(report.sections[0].name, "cell");
        assert_eq!(report.sections[3].name, "lat-index");
        assert_eq!(report.sections[4].name, "top-dest");
        assert_eq!(report.sections[0].entries, report.sections[3].entries);
        assert_eq!(report.total_records, inv.total_records());
        assert_eq!(report.file_len, bytes.len() as u64);

        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x01;
        assert!(verify_bytes(&corrupt).is_err());
    }

    #[test]
    fn top_dest_scan_matches_inventory_predicate() {
        let inv = sample_inventory(500);
        let bytes = to_bytes(&inv);
        let layout = Layout::parse(&bytes).unwrap();
        let reader = TopDestReader::new(&bytes, &layout).unwrap();
        assert!(reader.len() > 0);
        // Every (dest, segment) combination the sample can produce, plus
        // one that cannot exist.
        let cells_for = |dest, segment| reader.cells_for(dest, segment).collect::<Vec<_>>();
        for dest in 0..6u16 {
            let got = cells_for(dest, TOP_DEST_ALL_SEGMENTS);
            let mut want: Vec<u64> = inv
                .cells_with_top_destination(dest, None)
                .iter()
                .map(|c| c.raw())
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "all-segments dest {dest}");
            for seg_id in 0..6u8 {
                let seg = MarketSegment::from_id(seg_id).unwrap();
                let got = cells_for(dest, seg_id);
                let mut want: Vec<u64> = inv
                    .cells_with_top_destination(dest, Some(seg))
                    .iter()
                    .map(|c| c.raw())
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "dest {dest} segment {seg_id}");
            }
        }
        assert!(cells_for(999, TOP_DEST_ALL_SEGMENTS).is_empty());
        assert!(cells_for(u16::MAX, u8::MAX).is_empty());
    }

    /// The header and every section body are followed by their own
    /// CRC-64, and a CRC run over `block ‖ crc(block)` ends in a state
    /// fixed by the block's length: the whole image's CRC tells layouts
    /// apart, not contents. The sections' CRCs do.
    #[test]
    fn whole_file_crc_pins_only_the_layout() {
        let inv = sample_inventory(60);
        let edited = one_statistic_apart(&inv);
        let (a, b) = (to_bytes(&inv), to_bytes(&edited));
        assert_ne!(a, b);
        assert_eq!(a.len(), b.len());
        assert_eq!(crc64(&a), crc64(&b), "whole-file CRC sees only the layout");
        let crcs = |bytes: &[u8]| -> Vec<u64> {
            let report = verify_bytes(bytes).unwrap();
            report.sections.iter().map(|s| s.crc).collect()
        };
        assert_ne!(crcs(&a), crcs(&b), "a section CRC sees the statistic");
        let content = |bytes: &[u8]| Layout::parse(bytes).unwrap().content_crc();
        assert_ne!(content(&a), content(&b), "so does the content CRC");
    }

    #[test]
    fn file_round_trip_on_disk() {
        let dir = std::env::temp_dir().join("pol-columnar-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inv.pol3");
        let inv = sample_inventory(80);
        save(&inv, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.len(), inv.len());
        assert!(verify(&path).is_ok());
        std::fs::remove_file(&path).ok();
    }
}
