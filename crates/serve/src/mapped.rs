//! The zero-copy read store: memory-mapped POLINV4 links, base first.
//!
//! A POLINV4 snapshot is one link; a POLMAN2 delta chain is one link per
//! file. Each file is mapped ([`crate::mmap::MappedFile`]) and validated
//! once ([`Layout::parse`] — CRCs, seal, sortedness; no sketch decoding).
//! A point lookup binary-searches each link's key column: a key one link
//! holds answers with that link's bytes, and a key several hold is
//! decoded from each and merged: a POLINV4 merge is exact and
//! commutative, so the reply is the folded chain's, byte for byte,
//! whatever order the links are merged in. A bbox scan takes the
//! union of each link's lat-index band. A top-destination scan is one run
//! of the precomputed `(dest, segment, cell)` rows: one link's section,
//! or for several the rows of their merge, built by the first scan.
//!
//! A hot reload whose manifest extends the served chain keeps the served
//! links' `Arc`s and maps only the new files ([`MappedStore::extend`]):
//! nothing is decoded or copied, and dropping the old store unmaps only
//! what no store holds any more. A store that would hold more than
//! [`MAX_LINKS`] links folds them into one POLINV4 image in memory, so a
//! read merges at most that many. The store counts its work (`lookups`,
//! `scan_entries`, `decode_errors`) for the STATS endpoint.

use crate::mmap::MappedFile;
use pol_ais::types::MarketSegment;
use pol_core::codec::columnar::{
    self, cell_key, cell_route_key, cell_type_key, top_dest_row, LatIndexReader, Layout,
    SectionKind, SectionReader, TopDestReader, TOP_DEST_ALL_SEGMENTS,
};
use pol_core::codec::manifest::{check_link, ManifestEntry};
use pol_core::codec::{decode_destinations, CodecError};
use pol_core::features::GroupKey;
use pol_core::{Inventory, InventoryQuery, Summary};
use pol_geo::{BBox, LatLon};
use pol_hexgrid::Resolution;
use pol_sketch::wire::WireError;
use pol_sketch::MergeSketch;
use std::borrow::Cow;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The most links a store serves: [`MappedStore::extend`] folds a longer
/// chain into one link. A week of daily windows and their base fit.
pub const MAX_LINKS: usize = 8;

/// Counters describing the work a [`MappedStore`] has done.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MappedCounters {
    /// Binary searches over a link's key column (one per link searched).
    pub lookups: u64,
    /// Section entries / lat-index rows touched by scans.
    pub scan_entries: u64,
    /// Per-entry stats decodes that failed after CRC validation — always
    /// zero unless the encoder is buggy.
    pub decode_errors: u64,
}

/// One validated POLINV4 image: a link of the served chain.
struct Link {
    file: MappedFile,
    layout: Layout,
}

impl Link {
    fn bytes(&self) -> &[u8] {
        self.file.bytes()
    }

    /// Entries across the three grouping sections.
    fn entries(&self) -> usize {
        self.layout.cell.count + self.layout.cell_type.count + self.layout.cell_route.count
    }

    fn section(&self, kind: SectionKind) -> Option<SectionReader<'_>> {
        let span = match kind {
            SectionKind::CellType => &self.layout.cell_type,
            SectionKind::CellRoute => &self.layout.cell_route,
            _ => &self.layout.cell,
        };
        SectionReader::new(self.bytes(), span)
    }

    fn top_dest(&self) -> Option<TopDestReader<'_>> {
        TopDestReader::new(self.bytes(), &self.layout)
    }

    /// The entry at `key`: its section and its index there.
    fn find(&self, key: &GroupKey) -> Option<(SectionReader<'_>, usize)> {
        let in_section = |kind, key: &[u8]| {
            let section = self.section(kind)?;
            let i = section.find(key)?;
            Some((section, i))
        };
        match *key {
            GroupKey::Cell(c) => in_section(SectionKind::Cell, &cell_key(c)),
            GroupKey::CellType(c, seg) => in_section(SectionKind::CellType, &cell_type_key(c, seg)),
            GroupKey::CellRoute(c, o, d, seg) => {
                in_section(SectionKind::CellRoute, &cell_route_key(c, o, d, seg))
            }
        }
    }
}

/// A read-only query store over validated POLINV4 links in ascending
/// generation: one snapshot, or the files of a delta chain.
pub struct MappedStore {
    links: Vec<Arc<Link>>,
    resolution: Resolution,
    /// Several links' top-dest rows, built by the first scan.
    top_dest: OnceLock<Vec<[u8; 11]>>,
    lookups: AtomicU64,
    scan_entries: AtomicU64,
    decode_errors: AtomicU64,
}

impl MappedStore {
    /// Maps `path` and validates the POLINV4 layout on the mapped bytes
    /// themselves, before any query can touch them.
    pub fn open(path: &Path) -> Result<MappedStore, CodecError> {
        MappedStore::one(MappedFile::open(path)?)
    }

    /// Serves a POLINV4 image held in memory, validated like a file.
    pub(crate) fn from_image(bytes: Vec<u8>) -> Result<MappedStore, CodecError> {
        MappedStore::one(MappedFile::from_bytes(bytes))
    }

    fn one(file: MappedFile) -> Result<MappedStore, CodecError> {
        let layout = Layout::parse(file.bytes())?;
        MappedStore::from_links(vec![Arc::new(Link { file, layout })])
    }

    /// `kept`'s links, shared, then the files `entries` names in `dir`,
    /// each mapped and checked against its entry ([`check_link`]) and all
    /// of one resolution before the store exists. More than
    /// [`MAX_LINKS`] are folded into one.
    pub fn extend(
        kept: Option<&MappedStore>,
        dir: &Path,
        entries: &[ManifestEntry],
    ) -> Result<MappedStore, CodecError> {
        let mut links = kept.map_or_else(Vec::new, |store| store.links.clone());
        for entry in entries {
            if pol_chaos::fire("serve.reload.map") {
                let injected = std::io::Error::other("chaos: injected map failure");
                return Err(CodecError::Io(injected));
            }
            let file = MappedFile::open(&dir.join(&entry.name))?;
            let layout = check_link(file.bytes(), entry)?;
            links.push(Arc::new(Link { file, layout }));
        }
        let store = MappedStore::from_links(links)?;
        if store.links.len() > MAX_LINKS {
            return store.folded();
        }
        Ok(store)
    }

    /// The links decoded and merged — the fold `load_chain` applies, and
    /// merges do not depend on order, so every answer keeps its bytes —
    /// as one image in memory.
    fn folded(&self) -> Result<MappedStore, CodecError> {
        let mut merged = Inventory::from_entries(self.resolution, Default::default(), 0);
        for link in &self.links {
            merged.merge(&columnar::from_bytes(link.bytes())?);
        }
        MappedStore::from_image(columnar::to_bytes(&merged))
    }

    fn from_links(links: Vec<Arc<Link>>) -> Result<MappedStore, CodecError> {
        let resolution = links.first().map(|link| link.layout.resolution);
        let resolution = resolution.ok_or(CodecError::Wire(WireError("manifest names no base")))?;
        if links.iter().any(|l| l.layout.resolution != resolution) {
            return Err(CodecError::Wire(WireError("chain resolution mismatch")));
        }
        Ok(MappedStore {
            links,
            resolution,
            top_dest: OnceLock::new(),
            lookups: AtomicU64::new(0),
            scan_entries: AtomicU64::new(0),
            decode_errors: AtomicU64::new(0),
        })
    }

    /// Whether every link is served from a live memory map (a folded
    /// chain's link is held in memory).
    pub fn is_mapped(&self) -> bool {
        self.links.iter().all(|link| link.file.is_mapped())
    }

    /// The links served: at most [`MAX_LINKS`].
    pub fn links(&self) -> usize {
        self.links.len()
    }

    /// Group-identifier entries in each link, base first.
    pub(crate) fn link_entries(&self) -> impl Iterator<Item = usize> + '_ {
        self.links.iter().map(|link| link.entries())
    }

    /// Records summarised across the links.
    pub fn total_records(&self) -> u64 {
        self.links.iter().map(|l| l.layout.total_records).sum()
    }

    /// The store's work counters (lookups, scan entries, decode errors).
    pub fn counters(&self) -> MappedCounters {
        MappedCounters {
            lookups: self.lookups.load(Ordering::Relaxed),
            scan_entries: self.scan_entries.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
        }
    }

    /// The first of `parts` with the rest merged into it in order; `None`,
    /// counted, when one did not decode (an encoder bug: CRCs passed).
    fn merged<T: MergeSketch>(&self, mut parts: impl Iterator<Item = Option<T>>) -> Option<T> {
        let merged = parts.next().flatten().and_then(|first| {
            parts.try_fold(first, |mut acc, part| {
                acc.merge(&part?);
                Some(acc)
            })
        });
        if merged.is_none() {
            self.decode_errors.fetch_add(1, Ordering::Relaxed);
        }
        merged
    }

    /// The summary stored at `key`. Held by one link, it is the canonical
    /// `encode_cell_stats` bytes the file holds, CRC-verified when it was
    /// opened and borrowed from the mapping — what a summary reply
    /// carries, so serving it decodes nothing. Held by several, it is
    /// their entries merged.
    pub fn summary_at(&self, key: &GroupKey) -> Option<Summary<'_>> {
        // Every link is searched whatever is found: count them at once.
        let searched = self.links.len() as u64;
        self.lookups.fetch_add(searched, Ordering::Relaxed);
        let mut found = self.links.iter().filter_map(|link| link.find(key));
        let first = found.next()?;
        let Some(second) = found.next() else {
            return first.0.stats_bytes(first.1).map(Summary::Encoded);
        };
        let each = [first, second].into_iter().chain(found);
        let merged = self.merged(each.map(|(section, i)| section.decode_stats(i)))?;
        Some(Summary::Stats(Cow::Owned(Arc::new(merged))))
    }

    /// Fills `cells` with the raw indices of the occupied cells whose
    /// centre falls inside a bounding box, ascending. A row's cell goes
    /// out as the file holds it, like a summary's bytes: the file's CRCs
    /// were checked when it was opened.
    pub fn cells_in(&self, bbox: &BBox, cells: &mut Vec<u64>) {
        cells.clear();
        let mut touched = 0u64;
        for link in &self.links {
            let Some(lat) = LatIndexReader::new(link.bytes(), &link.layout) else {
                continue;
            };
            for (la, lo, raw) in lat.rows_from(lat.lower_bound_lat(bbox.min_lat)) {
                if la > bbox.max_lat {
                    break;
                }
                touched += 1;
                // Every row is written and the ones outside the box taken
                // back: whether a row is in is a coin toss a branch would
                // mispredict.
                let inside = LatLon::new(la, lo).is_some_and(|center| bbox.contains(center));
                cells.push(raw);
                cells.truncate(cells.len() - usize::from(!inside));
            }
        }
        self.scan_entries.fetch_add(touched, Ordering::Relaxed);
        cells.sort_unstable();
        // A link's index lists each cell once; only links can repeat one.
        if self.links.len() > 1 {
            cells.dedup();
        }
    }

    /// Fills `cells` with the raw indices of the occupied cells whose
    /// most frequent destination is `dest`, optionally per segment,
    /// ascending: a binary search to the `(dest, segment)` prefix of the
    /// top-dest rows, where the encoder put each entry under its
    /// destinations' `Tally::top1`, then one contiguous run. One link's rows are
    /// its file's section; several links' are built by the first scan
    /// (`merged_top_dest`) and kept.
    pub fn cells_with_top_destination(
        &self,
        dest: u16,
        segment: Option<MarketSegment>,
        cells: &mut Vec<u64>,
    ) {
        cells.clear();
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let seg_byte = segment.map_or(TOP_DEST_ALL_SEGMENTS, |s| s.id());
        if let [only] = self.links.as_slice() {
            if let Some(reader) = only.top_dest() {
                cells.extend(reader.cells_for(dest, seg_byte));
            }
        } else {
            let rows = self.top_dest.get_or_init(|| self.merged_top_dest());
            let lo = rows.partition_point(|row| *row < top_dest_row(dest, seg_byte, 0));
            let hi = rows.partition_point(|row| *row <= top_dest_row(dest, seg_byte, u64::MAX));
            let run = rows.get(lo..hi).unwrap_or_default().iter();
            cells.extend(
                run.filter_map(|row| row.last_chunk())
                    .map(|c| u64::from_be_bytes(*c)),
            );
        }
        self.scan_entries
            .fetch_add(cells.len() as u64, Ordering::Relaxed);
    }

    /// The top-dest rows of the links merged, sorted: a key one link holds
    /// keeps its row from that link's section, and a key several hold
    /// gets its row from their `destinations` merged, as the folded
    /// chain's summary has them.
    fn merged_top_dest(&self) -> Vec<[u8; 11]> {
        let (mut rows, mut shared) = (Vec::new(), Vec::new());
        for kind in [SectionKind::Cell, SectionKind::CellType] {
            self.for_each_key(kind, |key, holders| {
                let Some(cell) = key.first_chunk::<8>().filter(|_| holders.len() > 1) else {
                    return;
                };
                let at = (key.get(8).copied().unwrap_or(TOP_DEST_ALL_SEGMENTS), *cell);
                shared.push(at);
                let each = holders.iter().map(|(section, i)| {
                    decode_destinations(section.stats_bytes(*i).unwrap_or_default()).ok()
                });
                if let Some((top, _)) = self.merged(each).and_then(|merged| merged.top1()) {
                    rows.push(top_dest_row(top as u16, at.0, u64::from_be_bytes(at.1)));
                }
            });
        }
        shared.sort_unstable();
        for reader in self.links.iter().filter_map(|link| link.top_dest()) {
            let own = (0..reader.len()).filter_map(|i| reader.row_bytes(i)?.first_chunk::<11>());
            rows.extend(own.filter(|row| {
                let at = row.get(2).zip(row.last_chunk::<8>());
                at.is_some_and(|(seg, cell)| shared.binary_search(&(*seg, *cell)).is_err())
            }));
        }
        rows.sort_unstable();
        rows
    }

    /// Walks one grouping section's distinct keys across the links in key
    /// order: `visit` gets each key and, for every link holding it in link
    /// order, that link's section and the key's index there.
    fn for_each_key<'s>(
        &'s self,
        kind: SectionKind,
        mut visit: impl FnMut(&[u8], &[(&SectionReader<'s>, usize)]),
    ) {
        let sections: Vec<SectionReader<'s>> = self
            .links
            .iter()
            .filter_map(|link| link.section(kind))
            .collect();
        let mut at = vec![0usize; sections.len()];
        let mut holders = Vec::with_capacity(sections.len());
        loop {
            let heads = sections.iter().zip(&at);
            let Some(key) = heads.filter_map(|(s, &i)| s.key_at(i)).min() else {
                break;
            };
            holders.clear();
            for (section, i) in sections.iter().zip(at.iter_mut()) {
                if section.key_at(*i) == Some(key) {
                    holders.push((section, *i));
                    *i += 1;
                }
            }
            visit(key, &holders);
        }
    }
}

impl InventoryQuery for MappedStore {
    fn resolution(&self) -> Resolution {
        self.resolution
    }

    fn summary_at(&self, key: &GroupKey) -> Option<Summary<'_>> {
        MappedStore::summary_at(self, key)
    }
}
