//! The serving-side read store: one enum over the two places an
//! inventory can be served from — the heap [`Inventory`] the codecs
//! produce, or a memory-mapped POLINV3 file — plus an LRU cache for the
//! expensive aggregate queries. Both arms answer every query with the
//! same bytes, which the loopback integration test asserts endpoint by
//! endpoint.

use crate::mapped::{MappedCounters, MappedStore};
use pol_ais::types::MarketSegment;
use pol_core::features::{CellStats, GroupKey};
use pol_core::{Inventory, InventoryQuery};
use pol_geo::BBox;
use pol_hexgrid::{CellIndex, Resolution};
use pol_sketch::hash::FxHashMap;
use std::borrow::Cow;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Backend dispatch
// ---------------------------------------------------------------------

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

/// A summary as its store holds it, borrowed: the decoded statistics of
/// a heap entry, or a mapped entry's canonical encoding. Either becomes
/// a reply without building, cloning or re-encoding a [`CellStats`].
pub enum StoredSummary<'a> {
    /// A heap inventory's entry.
    Stats(&'a CellStats),
    /// A mapped snapshot's `encode_cell_stats` bytes.
    Encoded(&'a [u8]),
}

/// Sorts a heap scan's cells by raw index — the canonical reply order.
fn sorted(mut cells: Vec<CellIndex>) -> Vec<CellIndex> {
    cells.sort_unstable();
    cells
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

    /// Occupied cells whose centre falls inside a bounding box, sorted
    /// by raw cell index — both backends reply in the same canonical
    /// order.
    pub fn cells_in(&self, bbox: &BBox) -> Vec<CellIndex> {
        match self {
            StoreBackend::Heap(inv) => sorted(inv.cells_in(bbox)),
            StoreBackend::Mapped(m) => m.cells_in(bbox),
        }
    }

    /// Occupied cells whose most frequent destination is `dest`, sorted
    /// by raw cell index.
    pub fn cells_with_top_destination(
        &self,
        dest: u16,
        segment: Option<MarketSegment>,
    ) -> Vec<CellIndex> {
        match self {
            StoreBackend::Heap(inv) => sorted(inv.cells_with_top_destination(dest, segment)),
            StoreBackend::Mapped(m) => m.cells_with_top_destination(dest, segment),
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
    pub fn stored_summary(&self, key: &GroupKey) -> Option<StoredSummary<'_>> {
        match self {
            StoreBackend::Heap(inv) => inv.get(key).map(StoredSummary::Stats),
            StoreBackend::Mapped(m) => m.stats_bytes(key).map(StoredSummary::Encoded),
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

    fn summary(&self, cell: CellIndex) -> Option<Cow<'_, CellStats>> {
        match self {
            StoreBackend::Heap(inv) => InventoryQuery::summary(inv, cell),
            StoreBackend::Mapped(m) => m.summary(cell),
        }
    }

    fn summary_for(&self, cell: CellIndex, segment: MarketSegment) -> Option<Cow<'_, CellStats>> {
        match self {
            StoreBackend::Heap(inv) => InventoryQuery::summary_for(inv, cell, segment),
            StoreBackend::Mapped(m) => m.summary_for(cell, segment),
        }
    }

    fn summary_route(
        &self,
        cell: CellIndex,
        origin: u16,
        dest: u16,
        segment: MarketSegment,
    ) -> Option<Cow<'_, CellStats>> {
        match self {
            StoreBackend::Heap(inv) => {
                InventoryQuery::summary_route(inv, cell, origin, dest, segment)
            }
            StoreBackend::Mapped(m) => m.summary_route(cell, origin, dest, segment),
        }
    }
}

// ---------------------------------------------------------------------
// Aggregate-query LRU cache
// ---------------------------------------------------------------------

/// Cache key for the two scan-shaped queries. Bbox edges are keyed by
/// their IEEE-754 bit patterns, so any byte-identical request hits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CacheKey {
    /// `BboxScan` edges as f64 bit patterns (min_lat, min_lon, max_lat,
    /// max_lon).
    Bbox([u64; 4]),
    /// `TopDestinationCells` arguments (dest, segment id).
    TopDest(u16, Option<u8>),
}

/// A small least-recently-used cache mapping scan queries to their reply
/// cell lists. Values are `Arc`-shared so concurrent hits clone a
/// pointer, not the list.
pub struct QueryCache {
    capacity: usize,
    tick: u64,
    map: FxHashMap<CacheKey, (Arc<Vec<u64>>, u64)>,
}

impl QueryCache {
    /// A cache holding at most `capacity` entries (0 disables caching).
    pub fn new(capacity: usize) -> QueryCache {
        QueryCache {
            capacity,
            tick: 0,
            map: FxHashMap::default(),
        }
    }

    /// Looks up a key, refreshing its recency on hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<Vec<u64>>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(v, used)| {
            *used = tick;
            Arc::clone(v)
        })
    }

    /// Inserts a value, evicting the least-recently-used entry when full.
    pub fn put(&mut self, key: CacheKey, value: Arc<Vec<u64>>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            // Linear eviction scan: the cache is deliberately small
            // (hundreds of entries), so O(n) beats the bookkeeping cost
            // of an intrusive list at this size.
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| *k)
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, (value, self.tick));
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_hits_and_lru_eviction() {
        let mut cache = QueryCache::new(2);
        let (a, b, c) = (
            CacheKey::TopDest(1, None),
            CacheKey::TopDest(2, None),
            CacheKey::Bbox([0, 1, 2, 3]),
        );
        cache.put(a, Arc::new(vec![1]));
        cache.put(b, Arc::new(vec![2]));
        assert_eq!(cache.get(&a).map(|v| v[0]), Some(1)); // refresh a
        cache.put(c, Arc::new(vec![3])); // evicts b (least recent)
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&b).is_none());
        assert!(cache.get(&a).is_some());
        assert!(cache.get(&c).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = QueryCache::new(0);
        cache.put(CacheKey::TopDest(1, None), Arc::new(vec![1]));
        assert!(cache.is_empty());
        assert!(cache.get(&CacheKey::TopDest(1, None)).is_none());
    }

    #[test]
    fn updating_existing_key_does_not_evict() {
        let mut cache = QueryCache::new(2);
        let (a, b) = (CacheKey::TopDest(1, None), CacheKey::TopDest(2, None));
        cache.put(a, Arc::new(vec![1]));
        cache.put(b, Arc::new(vec![2]));
        cache.put(a, Arc::new(vec![9])); // update in place
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&a).map(|v| v[0]), Some(9));
        assert!(cache.get(&b).is_some());
    }
}
