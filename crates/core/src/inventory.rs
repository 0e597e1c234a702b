//! The global inventory: the compact, queryable data model the paper
//! delivers, with the Table-4 coverage/compression accounting.

use crate::codec::{decode_arrival, decode_cell_stats, decode_destinations, encode_cell_stats};
use crate::features::{CellStats, GroupKey, GroupingSet};
use pol_ais::types::MarketSegment;
use pol_geo::BBox;
use pol_hexgrid::{cell_center, num_cells, CellIndex, Resolution};
use pol_sketch::hash::FxHashMap;
use pol_sketch::wire::WireError;
use pol_sketch::{GkSketch, MergeSketch, SpaceSaving, Welford};
use std::borrow::Cow;
use std::sync::Arc;

/// Coverage and compression figures — one row of the paper's Table 4.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoverageReport {
    /// Grid resolution.
    pub resolution: u8,
    /// Cells with at least one record (the `#Cells` column).
    pub occupied_cells: u64,
    /// All grid cells at this resolution globally.
    pub total_cells: u64,
    /// Input records summarised.
    pub total_records: u64,
    /// `1 − cells/records` (the `Compression` column).
    pub compression: f64,
    /// `cells / total cells` (the `H3 Utilization` column).
    pub utilization: f64,
}

/// A summary as its store holds it: a heap entry's decoded statistics,
/// a mapped entry's canonical [`encode_cell_stats`] bytes, or the
/// statistics a store merged on read from several entries. A reader
/// asks for the fields it reads — on encoded bytes a projection walks
/// past the fields before them and decodes only those — and a reply
/// takes the whole summary without building, cloning or re-encoding a
/// [`CellStats`] the store did not have to build.
///
/// The projections fail only on encoded bytes no encoder wrote (a store
/// checks its file's CRCs before serving from it); the estimators treat
/// such an entry as absent.
#[derive(Clone, Debug)]
pub enum Summary<'a> {
    /// A heap inventory's entry.
    Stats(&'a CellStats),
    /// A mapped snapshot's entry, encoded.
    Encoded(&'a [u8]),
    /// A key's entries in several mapped links, merged in link order.
    Owned(Box<CellStats>),
}

impl<'a> Summary<'a> {
    /// Time-to-arrival moments and quantile sketch (`ata`, `ata_q`):
    /// what an ETA estimate reads. The sketch is owned because a
    /// quantile query flushes it.
    pub fn arrival(&self) -> Result<(Welford, GkSketch), WireError> {
        match *self {
            Summary::Stats(stats) => Ok((stats.ata.clone(), stats.ata_q.clone())),
            Summary::Owned(ref stats) => Ok((stats.ata.clone(), stats.ata_q.clone())),
            Summary::Encoded(bytes) => decode_arrival(bytes),
        }
    }

    /// The destination heavy hitters: what a destination prediction
    /// reads.
    pub fn destinations(&self) -> Result<Cow<'_, SpaceSaving<u64>>, WireError> {
        match *self {
            Summary::Stats(stats) => Ok(Cow::Borrowed(&stats.destinations)),
            Summary::Owned(ref stats) => Ok(Cow::Borrowed(&stats.destinations)),
            Summary::Encoded(bytes) => decode_destinations(bytes).map(Cow::Owned),
        }
    }

    /// Every field, owned: the full decode, for a caller that wants the
    /// whole summary.
    pub fn to_stats(&self) -> Result<CellStats, WireError> {
        match *self {
            Summary::Stats(stats) => Ok(stats.clone()),
            Summary::Owned(ref stats) => Ok((**stats).clone()),
            Summary::Encoded(mut bytes) => {
                let stats = decode_cell_stats(&mut bytes)?;
                if bytes.is_empty() {
                    Ok(stats)
                } else {
                    Err(WireError("trailing bytes after cell stats"))
                }
            }
        }
    }

    /// Appends the summary's canonical encoding: a copy of a mapped
    /// entry's bytes, [`encode_cell_stats`] of a heap entry.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            Summary::Stats(stats) => encode_cell_stats(stats, out),
            Summary::Owned(ref stats) => encode_cell_stats(stats, out),
            Summary::Encoded(bytes) => out.extend_from_slice(bytes),
        }
    }
}

/// The point-lookup query surface shared by every inventory-shaped store.
///
/// The §4 use cases (ETA estimation, destination prediction) only need
/// cell-keyed lookups at the three grouping-set levels plus the grid
/// resolution. Abstracting that surface lets the same estimators run
/// against the in-memory [`Inventory`] *and* against serving-side stores
/// (e.g. `pol-serve`'s mmap-backed columnar store).
///
/// Lookups return a borrowed [`Summary`]: a heap store hands out the
/// entry in its map, a mapped store the entry's bytes in the file, and
/// neither decodes anything the caller does not read.
pub trait InventoryQuery {
    /// The store's grid resolution.
    fn resolution(&self) -> Resolution;
    /// The all-traffic summary of a cell.
    fn summary(&self, cell: CellIndex) -> Option<Summary<'_>>;
    /// The per-vessel-type summary of a cell.
    fn summary_for(&self, cell: CellIndex, segment: MarketSegment) -> Option<Summary<'_>>;
    /// The per-route summary of a cell.
    fn summary_route(
        &self,
        cell: CellIndex,
        origin: u16,
        dest: u16,
        segment: MarketSegment,
    ) -> Option<Summary<'_>>;
}

impl InventoryQuery for Inventory {
    fn resolution(&self) -> Resolution {
        Inventory::resolution(self)
    }

    fn summary(&self, cell: CellIndex) -> Option<Summary<'_>> {
        Inventory::summary(self, cell).map(Summary::Stats)
    }

    fn summary_for(&self, cell: CellIndex, segment: MarketSegment) -> Option<Summary<'_>> {
        Inventory::summary_for(self, cell, segment).map(Summary::Stats)
    }

    fn summary_route(
        &self,
        cell: CellIndex,
        origin: u16,
        dest: u16,
        segment: MarketSegment,
    ) -> Option<Summary<'_>> {
        Inventory::summary_route(self, cell, origin, dest, segment).map(Summary::Stats)
    }
}

/// The queryable global inventory of per-cell statistical summaries.
///
/// `Clone` is a copy in meaning and copy-on-write in cost: the two
/// inventories share every summary until [`merge`](Inventory::merge)
/// changes one, which then copies just that summary. A hot reload
/// extends a copy of the served inventory by the chain's new links while
/// requests in flight keep reading the original, and pays for the
/// entries the links touch, not for the inventory.
#[derive(Clone)]
pub struct Inventory {
    resolution: Resolution,
    entries: FxHashMap<GroupKey, Arc<CellStats>>,
    total_records: u64,
    /// Occupied `(cell)`-grouping-set cells with their centres, sorted by
    /// centre latitude — built once at construction so bbox queries
    /// binary-search a latitude band instead of scanning every entry.
    cell_index: Vec<CellRow>,
}

/// One row of the cell index: an occupied cell under its centre.
type CellRow = (pol_geo::LatLon, CellIndex);

/// The cell index's order: centre latitude, then raw cell index.
fn cell_row_order(a: &CellRow, b: &CellRow) -> std::cmp::Ordering {
    a.0.lat()
        .total_cmp(&b.0.lat())
        .then_with(|| a.1.raw().cmp(&b.1.raw()))
}

/// The latitude-sorted cell index backing [`Inventory::cells_in`].
fn build_cell_index(entries: &FxHashMap<GroupKey, Arc<CellStats>>) -> Vec<CellRow> {
    let mut index: Vec<CellRow> = entries
        .keys()
        .filter_map(|k| match k {
            GroupKey::Cell(c) => Some((cell_center(*c), *c)),
            _ => None,
        })
        .collect();
    index.sort_by(cell_row_order);
    index
}

impl Inventory {
    /// Assembles an inventory from the merged shards of an aggregation
    /// (each key in exactly one), adopting each summary in the allocation
    /// the build accumulated it in: the map is sized once and takes the
    /// pointers, shard by shard.
    pub fn from_shards(
        resolution: Resolution,
        shards: Vec<Vec<(GroupKey, Arc<CellStats>)>>,
        total_records: u64,
    ) -> Inventory {
        let mut entries = FxHashMap::default();
        entries.reserve(shards.iter().map(Vec::len).sum());
        for shard in shards {
            entries.extend(shard);
        }
        Inventory::from_shared(resolution, entries, total_records)
    }

    /// Builds directly from a key→stats map (deserialization path).
    pub fn from_entries(
        resolution: Resolution,
        entries: FxHashMap<GroupKey, CellStats>,
        total_records: u64,
    ) -> Inventory {
        let entries = entries
            .into_iter()
            .map(|(k, stats)| (k, Arc::new(stats)))
            .collect();
        Inventory::from_shared(resolution, entries, total_records)
    }

    /// Builds from summaries already behind their `Arc`s: what the
    /// build and the snapshot decoder produce, one move per summary.
    pub(crate) fn from_shared(
        resolution: Resolution,
        entries: FxHashMap<GroupKey, Arc<CellStats>>,
        total_records: u64,
    ) -> Inventory {
        let cell_index = build_cell_index(&entries);
        Inventory {
            resolution,
            entries,
            total_records,
            cell_index,
        }
    }

    /// The inventory's grid resolution.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// Records summarised.
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// Total group-identifier entries across all grouping sets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the inventory is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries belonging to one grouping set.
    pub fn len_of(&self, gs: GroupingSet) -> usize {
        self.entries
            .keys()
            .filter(|k| k.grouping_set() == gs)
            .count()
    }

    /// The all-traffic summary of a cell (GI = `(H3-index)`).
    pub fn summary(&self, cell: CellIndex) -> Option<&CellStats> {
        self.get(&GroupKey::Cell(cell))
    }

    /// The per-vessel-type summary of a cell.
    pub fn summary_for(&self, cell: CellIndex, segment: MarketSegment) -> Option<&CellStats> {
        self.get(&GroupKey::CellType(cell, segment))
    }

    /// The per-route summary of a cell (GI = cell, origin, destination,
    /// vessel-type) — the key the route-forecasting use case queries.
    pub fn summary_route(
        &self,
        cell: CellIndex,
        origin: u16,
        dest: u16,
        segment: MarketSegment,
    ) -> Option<&CellStats> {
        self.get(&GroupKey::CellRoute(cell, origin, dest, segment))
    }

    /// Raw access to an arbitrary group key.
    pub fn get(&self, key: &GroupKey) -> Option<&CellStats> {
        self.entries.get(key).map(|stats| &**stats)
    }

    /// Iterates all entries.
    pub fn iter(&self) -> impl Iterator<Item = (&GroupKey, &CellStats)> {
        self.entries.iter().map(|(k, stats)| (k, &**stats))
    }

    /// All occupied cells (the `(H3-index)` grouping set's key space).
    pub fn cells(&self) -> impl Iterator<Item = CellIndex> + '_ {
        self.entries.keys().filter_map(|k| match k {
            GroupKey::Cell(c) => Some(*c),
            _ => None,
        })
    }

    /// All cells whose `(cell, origin, dest, segment)` entry exists — the
    /// full set of transition locations for a route key (§4.1.3's route
    /// forecasting retrieves exactly this).
    pub fn route_cells(&self, origin: u16, dest: u16, segment: MarketSegment) -> Vec<CellIndex> {
        self.entries
            .keys()
            .filter_map(|k| match k {
                GroupKey::CellRoute(c, o, d, s) if *o == origin && *d == dest && *s == segment => {
                    Some(*c)
                }
                _ => None,
            })
            .collect()
    }

    /// Occupied cells whose most frequent destination is `dest`
    /// (the paper's Figure 6 filter), optionally per segment.
    pub fn cells_with_top_destination(
        &self,
        dest: u16,
        segment: Option<MarketSegment>,
    ) -> Vec<CellIndex> {
        self.entries
            .iter()
            .filter_map(|(k, stats)| {
                let cell = match (k, segment) {
                    (GroupKey::Cell(c), None) => *c,
                    (GroupKey::CellType(c, s), Some(want)) if *s == want => *c,
                    _ => return None,
                };
                let top = stats.top_destinations(1);
                (top.first().map(|(d, _)| *d) == Some(dest)).then_some(cell)
            })
            .collect()
    }

    /// Occupied cells whose centre falls inside a bounding box — the
    /// regional views of Figure 4. Binary-searches the latitude-sorted
    /// cell index to scan only the `[min_lat, max_lat]` band instead of
    /// every occupied cell. Results come back in index (latitude) order.
    pub fn cells_in(&self, bbox: &BBox) -> Vec<CellIndex> {
        let lo = self
            .cell_index
            .partition_point(|(center, _)| center.lat() < bbox.min_lat);
        self.cell_index[lo..]
            .iter()
            .take_while(|(center, _)| center.lat() <= bbox.max_lat)
            .filter(|(center, _)| bbox.contains(*center))
            .map(|(_, cell)| *cell)
            .collect()
    }

    /// The Table-4 row for this inventory.
    pub fn coverage(&self) -> CoverageReport {
        let occupied = self.len_of(GroupingSet::Cell) as u64;
        let total_cells = num_cells(self.resolution);
        let compression = if self.total_records > 0 {
            1.0 - occupied as f64 / self.total_records as f64
        } else {
            0.0
        };
        CoverageReport {
            resolution: self.resolution.level(),
            occupied_cells: occupied,
            total_cells,
            total_records: self.total_records,
            compression: compression.max(0.0),
            utilization: occupied as f64 / total_cells as f64,
        }
    }

    /// Merges another inventory (same resolution) into this one — e.g.
    /// month-by-month builds folded into the year.
    ///
    /// # Panics
    /// When resolutions differ.
    pub fn merge(&mut self, other: &Inventory) {
        assert_eq!(
            self.resolution, other.resolution,
            "cannot merge inventories at different resolutions"
        );
        self.total_records += other.total_records;
        // The bbox-query index lists the `(cell)` grouping set's keys.
        // The cells `other` brings are appended to the sorted index and
        // the stable sort, which is adaptive, merges them in: a daily
        // delta costs its own cells' centres and sort, not every cell's.
        let mut new_cells: Vec<CellRow> = Vec::new();
        for (k, v) in &other.entries {
            match self.entries.get_mut(k) {
                Some(mine) => Arc::make_mut(mine).merge(v),
                None => {
                    if let GroupKey::Cell(c) = k {
                        new_cells.push((cell_center(*c), *c));
                    }
                    self.entries.insert(*k, Arc::clone(v));
                }
            }
        }
        if !new_cells.is_empty() {
            self.cell_index.append(&mut new_cells);
            self.cell_index.sort_by(cell_row_order);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{CellPoint, TripPoint};
    use pol_ais::types::Mmsi;
    use pol_geo::LatLon;
    use pol_hexgrid::cell_at;

    fn res() -> Resolution {
        Resolution::new(6).unwrap()
    }

    fn point_at(lat: f64, lon: f64, dest: u16, segment: MarketSegment) -> CellPoint {
        let pos = LatLon::new(lat, lon).unwrap();
        CellPoint {
            point: TripPoint {
                mmsi: Mmsi(5),
                timestamp: 0,
                pos,
                sog_knots: Some(10.0),
                cog_deg: Some(45.0),
                heading_deg: Some(45.0),
                segment,
                trip_id: 1,
                origin: 0,
                dest,
                eto_secs: 100,
                ata_secs: 200,
            },
            cell: cell_at(pos, res()),
            next_cell: None,
        }
    }

    fn build(points: &[CellPoint]) -> Inventory {
        let mut entries: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
        for cp in points {
            for key in [
                GroupKey::Cell(cp.cell),
                GroupKey::CellType(cp.cell, cp.point.segment),
                GroupKey::CellRoute(cp.cell, cp.point.origin, cp.point.dest, cp.point.segment),
            ] {
                entries
                    .entry(key)
                    .or_insert_with(|| CellStats::new(0.02, 8))
                    .observe(cp);
            }
        }
        Inventory::from_entries(res(), entries, points.len() as u64)
    }

    #[test]
    fn query_paths() {
        let seg = MarketSegment::Container;
        let points = vec![
            point_at(50.0, -10.0, 3, seg),
            point_at(50.0, -10.0, 3, seg),
            point_at(20.0, 60.0, 4, MarketSegment::Tanker),
        ];
        let inv = build(&points);
        let cell = points[0].cell;
        assert_eq!(inv.summary(cell).unwrap().records, 2);
        assert_eq!(inv.summary_for(cell, seg).unwrap().records, 2);
        assert!(inv.summary_for(cell, MarketSegment::Gas).is_none());
        assert_eq!(inv.summary_route(cell, 0, 3, seg).unwrap().records, 2);
        assert!(inv.summary_route(cell, 0, 9, seg).is_none());
        assert_eq!(inv.len_of(GroupingSet::Cell), 2);
        assert_eq!(inv.route_cells(0, 3, seg), vec![cell]);
    }

    #[test]
    fn top_destination_filter() {
        let seg = MarketSegment::Container;
        let points = vec![
            point_at(50.0, -10.0, 3, seg),
            point_at(50.0, -10.0, 3, seg),
            point_at(50.0, -10.0, 7, seg),
            point_at(20.0, 60.0, 7, seg),
        ];
        let inv = build(&points);
        let to3 = inv.cells_with_top_destination(3, None);
        assert_eq!(to3, vec![points[0].cell]);
        let to7 = inv.cells_with_top_destination(7, None);
        assert_eq!(to7, vec![points[3].cell]);
        let to7_seg = inv.cells_with_top_destination(7, Some(seg));
        assert_eq!(to7_seg, vec![points[3].cell]);
    }

    #[test]
    fn regional_filter() {
        let points = vec![
            point_at(60.0, 20.0, 1, MarketSegment::Tanker), // Baltic
            point_at(-30.0, -40.0, 1, MarketSegment::Tanker), // South Atlantic
        ];
        let inv = build(&points);
        let baltic = inv.cells_in(&BBox::baltic());
        assert_eq!(baltic, vec![points[0].cell]);
    }

    #[test]
    fn cells_in_matches_full_scan_and_survives_merge() {
        let seg = MarketSegment::Tanker;
        // A latitude ladder spanning the Baltic box boundary plus cells
        // inside the latitude band but outside the longitude range.
        let points: Vec<_> = (0..20)
            .map(|i| point_at(40.0 + i as f64, 20.0, 1, seg))
            .chain((0..5).map(|i| point_at(56.0 + i as f64, -40.0, 1, seg)))
            .collect();
        let mut inv = build(&points);
        let bbox = BBox::baltic();
        let brute: std::collections::BTreeSet<CellIndex> = inv
            .cells()
            .filter(|c| bbox.contains(cell_center(*c)))
            .collect();
        assert!(!brute.is_empty());
        let indexed: std::collections::BTreeSet<CellIndex> =
            inv.cells_in(&bbox).into_iter().collect();
        assert_eq!(indexed, brute);
        // Latitude ordering from the index.
        let lats: Vec<f64> = inv
            .cells_in(&bbox)
            .iter()
            .map(|c| cell_center(*c).lat())
            .collect();
        assert!(lats.windows(2).all(|w| w[0] <= w[1]));
        // Merging in new cells must refresh the index.
        let far = build(&[point_at(58.0, 21.0, 2, seg)]);
        inv.merge(&far);
        assert_eq!(
            inv.cell_index,
            build_cell_index(&inv.entries),
            "a merge leaves the index a rebuild would"
        );
        let brute2: std::collections::BTreeSet<CellIndex> = inv
            .cells()
            .filter(|c| bbox.contains(cell_center(*c)))
            .collect();
        let indexed2: std::collections::BTreeSet<CellIndex> =
            inv.cells_in(&bbox).into_iter().collect();
        assert_eq!(indexed2, brute2);
        assert!(brute2.len() >= brute.len());
    }

    #[test]
    fn coverage_report_arithmetic() {
        let points: Vec<_> = (0..100)
            .map(|i| point_at(50.0 + (i % 10) as f64, -10.0, 1, MarketSegment::DryBulk))
            .collect();
        let inv = build(&points);
        let cov = inv.coverage();
        assert_eq!(cov.resolution, 6);
        assert_eq!(cov.total_records, 100);
        assert_eq!(cov.occupied_cells, 10);
        assert!((cov.compression - 0.9).abs() < 1e-9);
        assert!(cov.utilization > 0.0 && cov.utilization < 1e-4);
        assert_eq!(cov.total_cells, num_cells(res()));
    }

    #[test]
    fn empty_inventory() {
        let inv = Inventory::from_entries(res(), FxHashMap::default(), 0);
        assert!(inv.is_empty());
        let cov = inv.coverage();
        assert_eq!(cov.compression, 0.0);
        assert_eq!(cov.utilization, 0.0);
    }

    #[test]
    fn merge_folds_entries() {
        let seg = MarketSegment::Container;
        let a = build(&[point_at(50.0, -10.0, 3, seg)]);
        let b = build(&[point_at(50.0, -10.0, 3, seg), point_at(20.0, 60.0, 4, seg)]);
        let mut m = build(&[point_at(50.0, -10.0, 3, seg)]);
        m.merge(&b);
        assert_eq!(m.total_records, a.total_records + b.total_records);
        let cell = cell_at(LatLon::new(50.0, -10.0).unwrap(), res());
        assert_eq!(m.summary(cell).unwrap().records, 2);
        assert_eq!(m.len_of(GroupingSet::Cell), 2);
    }

    #[test]
    #[should_panic(expected = "different resolutions")]
    fn merge_rejects_resolution_mismatch() {
        let mut a = Inventory::from_entries(res(), FxHashMap::default(), 0);
        let b = Inventory::from_entries(Resolution::new(7).unwrap(), FxHashMap::default(), 0);
        a.merge(&b);
    }
}
