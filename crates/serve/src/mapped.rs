//! The zero-copy read store over a memory-mapped POLINV3 snapshot.
//!
//! Where the heap backend deserializes a whole snapshot into an
//! [`pol_core::Inventory`] before the first query, `MappedStore` maps the file
//! ([`crate::mmap::MappedFile`]), validates the columnar layout once
//! ([`Layout::parse`] — CRCs, seal, sortedness; no sketch decoding),
//! and then answers:
//!
//! * point lookups by binary search over the sorted fixed-stride key
//!   column of the right grouping-set section, decoding exactly one
//!   summary from the stats blob;
//! * bbox scans by `partition_point` into the latitude-sorted cell
//!   index, exactly like the heap inventory's band scan;
//! * top-destination scans by binary search into the precomputed
//!   `(dest, segment, cell)` top-dest section — one contiguous run,
//!   no stats decoded.
//!
//! Cold start is the headline win: load-to-READY is the mmap + one
//! validation pass instead of decoding every sketch of every entry.
//! Every answer is bit-identical to the heap store's — both decode the
//! same canonical stats bytes — which the loopback and migration tests
//! pin.
//!
//! The store counts its work (`lookups`, `scan_entries`,
//! `decode_errors`) and surfaces the counters through the STATS
//! endpoint.

use crate::mmap::MappedFile;
use pol_ais::types::MarketSegment;
use pol_core::codec::columnar::{
    cell_key, cell_route_key, cell_type_key, GroupSpan, LatIndexReader, Layout, SectionReader,
    TopDestReader, TOP_DEST_ALL_SEGMENTS,
};
use pol_core::codec::CodecError;
use pol_core::features::{CellStats, GroupKey};
use pol_core::{InventoryQuery, Summary};
use pol_geo::{BBox, LatLon};
use pol_hexgrid::{CellIndex, Resolution};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters describing the work a [`MappedStore`] has done.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MappedCounters {
    /// Point lookups answered by binary search over the mapped file.
    pub lookups: u64,
    /// Section entries / lat-index rows touched by scans.
    pub scan_entries: u64,
    /// Per-entry stats decodes that failed after CRC validation — always
    /// zero unless the encoder is buggy.
    pub decode_errors: u64,
}

/// A read-only query store backed by a validated, memory-mapped
/// POLINV3 snapshot.
pub struct MappedStore {
    file: MappedFile,
    layout: Layout,
    lookups: AtomicU64,
    scan_entries: AtomicU64,
    decode_errors: AtomicU64,
}

impl MappedStore {
    /// Maps `path` and validates the POLINV3 layout — seal, every
    /// section CRC, key sortedness — before any query can touch it.
    /// The validation reads the mapped bytes themselves, so there is no
    /// gap between what was checked and what is served.
    pub fn open(path: &Path) -> Result<MappedStore, CodecError> {
        let file = MappedFile::open(path)?;
        let layout = Layout::parse(file.bytes())?;
        Ok(MappedStore {
            file,
            layout,
            lookups: AtomicU64::new(0),
            scan_entries: AtomicU64::new(0),
            decode_errors: AtomicU64::new(0),
        })
    }

    /// Whether the bytes are served from a live memory map (false on
    /// the heap fallback for platforms without mmap).
    pub fn is_mapped(&self) -> bool {
        self.file.is_mapped()
    }

    /// Total group-identifier entries across the grouping sections.
    pub fn len(&self) -> usize {
        self.layout.cell.count + self.layout.cell_type.count + self.layout.cell_route.count
    }

    /// Whether the snapshot holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records summarised by the underlying inventory.
    pub fn total_records(&self) -> u64 {
        self.layout.total_records
    }

    /// The store's work counters (lookups, scan entries, decode errors).
    pub fn counters(&self) -> MappedCounters {
        MappedCounters {
            lookups: self.lookups.load(Ordering::Relaxed),
            scan_entries: self.scan_entries.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
        }
    }

    fn reader(&self, span: &GroupSpan) -> Option<SectionReader<'_>> {
        SectionReader::new(self.file.bytes(), span)
    }

    /// One binary-searched point lookup in the section `key` belongs
    /// to: the section and the entry's index in it.
    fn find(&self, key: &GroupKey) -> Option<(SectionReader<'_>, usize)> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let in_section = |span: &GroupSpan, key: &[u8]| {
            let reader = self.reader(span)?;
            let i = reader.find(key)?;
            Some((reader, i))
        };
        let layout = &self.layout;
        match *key {
            GroupKey::Cell(c) => in_section(&layout.cell, &cell_key(c)),
            GroupKey::CellType(c, seg) => in_section(&layout.cell_type, &cell_type_key(c, seg)),
            GroupKey::CellRoute(c, origin, dest, seg) => {
                in_section(&layout.cell_route, &cell_route_key(c, origin, dest, seg))
            }
        }
    }

    /// The summary stored at `key`, decoded on demand.
    pub fn get(&self, key: &GroupKey) -> Option<CellStats> {
        let (reader, i) = self.find(key)?;
        let stats = reader.decode_stats(i);
        if stats.is_none() {
            // CRC-validated bytes that fail to decode mean an encoder
            // bug, not corruption; count it, never panic.
            self.decode_errors.fetch_add(1, Ordering::Relaxed);
        }
        stats
    }

    /// The summary stored at `key` as the file holds it: the canonical
    /// `encode_cell_stats` bytes, CRC-verified when the file was opened,
    /// borrowed from the mapping. What a summary reply carries on the
    /// wire, so serving one decodes nothing.
    pub fn stats_bytes(&self, key: &GroupKey) -> Option<&[u8]> {
        let (reader, i) = self.find(key)?;
        reader.stats_bytes(i)
    }

    /// Appends the raw indices of the occupied cells whose centre falls
    /// inside a bounding box, in latitude-index order (the caller sorts:
    /// [`crate::store::StoreBackend::cells_in`]). A row's cell goes out
    /// as the file holds it, like a summary's bytes: the file's CRCs
    /// were checked when it was opened.
    pub fn cells_in(&self, bbox: &BBox, cells: &mut Vec<u64>) {
        let Some(lat) = LatIndexReader::new(self.file.bytes(), &self.layout) else {
            return;
        };
        let mut touched = 0u64;
        for (la, lo, raw) in lat.rows_from(lat.lower_bound_lat(bbox.min_lat)) {
            if la > bbox.max_lat {
                break;
            }
            touched += 1;
            if LatLon::new(la, lo).is_some_and(|center| bbox.contains(center)) {
                cells.push(raw);
            }
        }
        self.scan_entries.fetch_add(touched, Ordering::Relaxed);
    }

    /// Appends the raw indices of the occupied cells whose most frequent
    /// destination is `dest`, optionally per segment — a binary search
    /// to the `(dest, segment)` prefix of the precomputed top-dest
    /// section, then one contiguous run, which ascends by cell: the
    /// canonical reply order. No stats are decoded at query time: the
    /// encoder evaluated the same `top_destinations(1)` predicate per
    /// entry when the snapshot was written.
    pub fn cells_with_top_destination(
        &self,
        dest: u16,
        segment: Option<MarketSegment>,
        cells: &mut Vec<u64>,
    ) {
        let Some(reader) = TopDestReader::new(self.file.bytes(), &self.layout) else {
            return;
        };
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let seg_byte = segment.map(|s| s.id()).unwrap_or(TOP_DEST_ALL_SEGMENTS);
        let from = cells.len();
        reader.cells_for(dest, seg_byte, |raw| cells.push(raw));
        self.scan_entries
            .fetch_add((cells.len() - from) as u64, Ordering::Relaxed);
    }
}

impl InventoryQuery for MappedStore {
    fn resolution(&self) -> Resolution {
        self.layout.resolution
    }

    fn summary(&self, cell: CellIndex) -> Option<Summary<'_>> {
        self.stats_bytes(&GroupKey::Cell(cell))
            .map(Summary::Encoded)
    }

    fn summary_for(&self, cell: CellIndex, segment: MarketSegment) -> Option<Summary<'_>> {
        self.stats_bytes(&GroupKey::CellType(cell, segment))
            .map(Summary::Encoded)
    }

    fn summary_route(
        &self,
        cell: CellIndex,
        origin: u16,
        dest: u16,
        segment: MarketSegment,
    ) -> Option<Summary<'_>> {
        self.stats_bytes(&GroupKey::CellRoute(cell, origin, dest, segment))
            .map(Summary::Encoded)
    }
}
