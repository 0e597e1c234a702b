//! The serving-side read store: one enum over the two places an
//! inventory can be served from — the heap [`Inventory`] the codecs
//! produce, or a memory-mapped POLINV3 file. Both arms answer every
//! query with the same bytes, which the loopback integration test
//! asserts endpoint by endpoint.

use crate::mapped::{MappedCounters, MappedStore};
use pol_ais::types::MarketSegment;
use pol_core::features::{CellStats, GroupKey};
use pol_core::{Inventory, InventoryQuery, Summary};
use pol_geo::BBox;
use pol_hexgrid::{CellIndex, Resolution};

/// The two read stores a server can serve from: a heap [`Inventory`]
/// (a merged delta chain, or one handed over in process) and the
/// zero-copy [`MappedStore`] (POLINV3 snapshots, opened by mmap +
/// validation). An enum rather than a trait object because the scan
/// queries and counters are not part of [`InventoryQuery`], and the
/// dispatch cost of two arms is nil next to a query.
pub enum StoreBackend {
    /// Heap-resident inventory (delta chains, in-process builds).
    Heap(Inventory),
    /// Memory-mapped columnar snapshot (POLINV3).
    Mapped(MappedStore),
}

impl StoreBackend {
    /// A short name for metrics and logs.
    pub fn name(&self) -> &'static str {
        match self {
            StoreBackend::Heap(_) => "heap",
            StoreBackend::Mapped(_) => "mapped-columnar",
        }
    }

    /// Total group-identifier entries.
    pub fn len(&self) -> usize {
        match self {
            StoreBackend::Heap(inv) => inv.len(),
            StoreBackend::Mapped(m) => m.len(),
        }
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records summarised by the underlying inventory.
    pub fn total_records(&self) -> u64 {
        match self {
            StoreBackend::Heap(inv) => inv.total_records(),
            StoreBackend::Mapped(m) => m.total_records(),
        }
    }

    /// Fills `cells` with the raw indices of the occupied cells whose
    /// centre falls inside a bounding box, ascending — both backends
    /// reply in the same canonical order. The caller owns the buffer, so
    /// a worker's scans reuse one.
    pub fn cells_in(&self, bbox: &BBox, cells: &mut Vec<u64>) {
        cells.clear();
        match self {
            StoreBackend::Heap(inv) => cells.extend(inv.cells_in(bbox).iter().map(|c| c.raw())),
            StoreBackend::Mapped(m) => m.cells_in(bbox, cells),
        }
        cells.sort_unstable();
    }

    /// Fills `cells` with the raw indices of the occupied cells whose
    /// most frequent destination is `dest`, ascending. The mapped store
    /// copies one precomputed run, in order already; the heap store
    /// looks at every entry.
    pub fn cells_with_top_destination(
        &self,
        dest: u16,
        segment: Option<MarketSegment>,
        cells: &mut Vec<u64>,
    ) {
        cells.clear();
        match self {
            StoreBackend::Heap(inv) => {
                let found = inv.cells_with_top_destination(dest, segment);
                cells.extend(found.iter().map(|c| c.raw()));
                cells.sort_unstable();
            }
            StoreBackend::Mapped(m) => m.cells_with_top_destination(dest, segment, cells),
        }
    }

    /// The summary stored at `key`, owned (cloned off the heap, decoded
    /// out of the mapping).
    pub fn get(&self, key: &GroupKey) -> Option<CellStats> {
        match self {
            StoreBackend::Heap(inv) => inv.get(key).cloned(),
            StoreBackend::Mapped(m) => m.get(key),
        }
    }

    /// The summary stored at `key`, in the form the backend holds it.
    pub fn summary_at(&self, key: &GroupKey) -> Option<Summary<'_>> {
        match self {
            StoreBackend::Heap(inv) => inv.get(key).map(Summary::Stats),
            StoreBackend::Mapped(m) => m.stats_bytes(key).map(Summary::Encoded),
        }
    }

    /// The mapped store's work counters (`None` for the heap backend).
    pub fn mapped_counters(&self) -> Option<MappedCounters> {
        match self {
            StoreBackend::Heap(_) => None,
            StoreBackend::Mapped(m) => Some(m.counters()),
        }
    }
}

impl InventoryQuery for StoreBackend {
    fn resolution(&self) -> Resolution {
        match self {
            StoreBackend::Heap(inv) => InventoryQuery::resolution(inv),
            StoreBackend::Mapped(m) => InventoryQuery::resolution(m),
        }
    }

    fn summary(&self, cell: CellIndex) -> Option<Summary<'_>> {
        self.summary_at(&GroupKey::Cell(cell))
    }

    fn summary_for(&self, cell: CellIndex, segment: MarketSegment) -> Option<Summary<'_>> {
        self.summary_at(&GroupKey::CellType(cell, segment))
    }

    fn summary_route(
        &self,
        cell: CellIndex,
        origin: u16,
        dest: u16,
        segment: MarketSegment,
    ) -> Option<Summary<'_>> {
        self.summary_at(&GroupKey::CellRoute(cell, origin, dest, segment))
    }
}
