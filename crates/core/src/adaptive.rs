//! Density-adaptive hierarchical inventory — the paper's §5 future work:
//! *"further explore hierarchical capabilities of the selected spatial
//! index (H3) to provide non-uniform inventories … using larger cells in
//! open sea areas which are known to have low vessel traffic density,
//! preserving at the same time high resolution in dense areas, such as the
//! ones near the ports."*
//!
//! The construction exploits the grid's exact aperture-7 hierarchy: start
//! from the fine all-traffic summaries (grouping set `(cell)`), then
//! bottom-up coalesce any group of seven siblings whose combined record
//! count stays below a threshold into their parent cell — repeatedly, up
//! to a configurable coarsest resolution. Because every `CellStats` is a
//! mergeable sketch, coalescing loses no statistical machinery, only
//! spatial granularity where there was nothing to resolve.

use crate::features::{CellStats, GroupKey};
use crate::inventory::Inventory;
use pol_geo::LatLon;
use pol_hexgrid::{cell_at, parent, CellIndex, Resolution};
use pol_sketch::hash::FxHashMap;
use pol_sketch::MergeSketch;

/// Tuning for the adaptive coarsening.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveConfig {
    /// Sibling groups whose combined record count is below this coalesce
    /// into their parent.
    pub min_records_per_cell: u64,
    /// Do not coarsen beyond this resolution (inclusive).
    pub coarsest: Resolution,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            min_records_per_cell: 64,
            coarsest: Resolution::new_static(3),
        }
    }
}

/// A non-uniform inventory: cells of mixed resolutions partitioning the
/// observed ocean, fine near ports/lanes, coarse in the empty blue.
pub struct AdaptiveInventory {
    /// Finest (input) resolution.
    fine: Resolution,
    coarsest: Resolution,
    cells: FxHashMap<CellIndex, CellStats>,
}

impl AdaptiveInventory {
    /// Builds the adaptive inventory from a uniform one (uses its
    /// all-traffic `(cell)` grouping set).
    pub fn build(inventory: &Inventory, cfg: &AdaptiveConfig) -> AdaptiveInventory {
        let fine = inventory.resolution();
        assert!(
            cfg.coarsest <= fine,
            "coarsest {} must not be finer than the inventory ({})",
            cfg.coarsest.level(),
            fine.level()
        );
        // Current working level, starting at the fine cells.
        let mut level: FxHashMap<CellIndex, CellStats> = inventory
            .iter()
            .filter_map(|(k, s)| match k {
                GroupKey::Cell(c) => Some((*c, s.clone())),
                _ => None,
            })
            .collect();
        let mut done: FxHashMap<CellIndex, CellStats> = FxHashMap::default();
        // Parents that must never be created because some descendant was
        // already finalized at a finer resolution: creating them would put
        // an ancestor and a descendant in the partition simultaneously.
        let mut blocked: pol_sketch::hash::FxHashSet<CellIndex> =
            pol_sketch::hash::FxHashSet::default();

        let mut res = fine;
        while res > cfg.coarsest {
            // Group the current level by parent, moving the stats along.
            let mut by_parent: FxHashMap<CellIndex, Vec<(CellIndex, CellStats)>> =
                FxHashMap::default();
            for (cell, stats) in level.drain() {
                match parent(cell) {
                    Some(p) => by_parent.entry(p).or_default().push((cell, stats)),
                    // res > coarsest ≥ 0, so a parent always exists; a
                    // hypothetical res-0 cell is simply final as-is.
                    None => {
                        done.insert(cell, stats);
                    }
                }
            }
            let mut next: FxHashMap<CellIndex, CellStats> = FxHashMap::default();
            let mut next_blocked: pol_sketch::hash::FxHashSet<CellIndex> =
                pol_sketch::hash::FxHashSet::default();
            let block_upward = |p: CellIndex, nb: &mut pol_sketch::hash::FxHashSet<CellIndex>| {
                if let Some(gp) = parent(p) {
                    nb.insert(gp);
                }
            };
            for (p, kids) in by_parent {
                let total: u64 = kids.iter().map(|(_, s)| s.records).sum();
                if total < cfg.min_records_per_cell && !blocked.contains(&p) {
                    // Sparse and unobstructed: coalesce all siblings into
                    // the parent. Groups are built non-empty, so the fold
                    // always yields an accumulator.
                    let mut kids = kids.into_iter();
                    if let Some((_, mut acc)) = kids.next() {
                        for (_, s) in kids {
                            acc.merge(&s);
                        }
                        next.insert(p, acc);
                    }
                } else {
                    // Dense (or the parent shadows finer finalized cells):
                    // the children are final at this resolution.
                    for (c, s) in kids {
                        done.insert(c, s);
                    }
                    block_upward(p, &mut next_blocked);
                }
            }
            // Blocked parents with no surviving children still shadow their
            // own ancestors.
            for b in &blocked {
                block_upward(*b, &mut next_blocked);
            }
            blocked = next_blocked;
            level = next;
            // res > coarsest ≥ 0, so there is always a coarser level.
            let Some(up) = res.coarser() else { break };
            res = up;
        }
        // Whatever remains at the coarsest level is final.
        done.extend(level);
        AdaptiveInventory {
            fine,
            coarsest: cfg.coarsest,
            cells: done,
        }
    }

    /// Number of cells in the non-uniform partition.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the inventory is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The summary covering a position: the finest cell of the partition
    /// containing it (fine first, walking up to the coarsest).
    pub fn summary_at(&self, pos: LatLon) -> Option<(CellIndex, &CellStats)> {
        let mut cell = cell_at(pos, self.fine);
        loop {
            if let Some(s) = self.cells.get(&cell) {
                return Some((cell, s));
            }
            if cell.resolution() <= self.coarsest {
                return None;
            }
            cell = parent(cell)?;
        }
    }

    /// Iterates the mixed-resolution cells.
    pub fn iter(&self) -> impl Iterator<Item = (&CellIndex, &CellStats)> {
        self.cells.iter()
    }

    /// Histogram of cell counts per resolution level (diagnostics: how
    /// adaptive did the partition get).
    pub fn resolution_histogram(&self) -> Vec<(u8, usize)> {
        let mut counts: std::collections::BTreeMap<u8, usize> = Default::default();
        for c in self.cells.keys() {
            *counts.entry(c.resolution().level()).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// Verifies the partition property: no cell is an ancestor of another
    /// (every position has exactly one covering cell). Returns the number
    /// of violations (0 = valid).
    pub fn partition_violations(&self) -> usize {
        let mut violations = 0;
        for cell in self.cells.keys() {
            let mut cur = *cell;
            while cur.resolution() > self.coarsest {
                let Some(p) = parent(cur) else { break };
                if self.cells.contains_key(&p) {
                    violations += 1;
                    break;
                }
                cur = p;
            }
        }
        violations
    }

    /// Total records across the partition (must equal the source
    /// inventory's `(cell)` records).
    pub fn total_records(&self) -> u64 {
        self.cells.values().map(|s| s.records).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{CellPoint, TripPoint};
    use pol_ais::types::{MarketSegment, Mmsi};

    /// A uniform res-6 inventory with one dense area (many records per
    /// cell) and a long sparse trail (one record per cell).
    fn mixed_density_inventory() -> Inventory {
        let res = Resolution::new(6).unwrap();
        let mut entries: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
        let mut add = |lat: f64, lon: f64, n: usize| {
            let pos = LatLon::new(lat, lon).unwrap();
            let cell = cell_at(pos, res);
            let stats = entries
                .entry(GroupKey::Cell(cell))
                .or_insert_with(|| CellStats::new(0.02, 8));
            for i in 0..n {
                stats.observe(&CellPoint {
                    point: TripPoint {
                        mmsi: Mmsi(1 + i as u32),
                        timestamp: i as i64,
                        pos,
                        sog_knots: Some(14.0),
                        cog_deg: Some(90.0),
                        heading_deg: Some(90.0),
                        segment: MarketSegment::Container,
                        trip_id: i as u64,
                        origin: 0,
                        dest: 1,
                        eto_secs: 100,
                        ata_secs: 200,
                    },
                    cell,
                    next_cell: None,
                });
            }
        };
        // Dense cluster near a "port" (500 records spread over a few cells).
        for i in 0..10 {
            add(51.0 + i as f64 * 0.02, 1.5, 50);
        }
        // Sparse mid-ocean trail: 1 record per cell over 30 degrees.
        for i in 0..60 {
            add(-20.0, -40.0 + i as f64 * 0.5, 1);
        }
        let total: u64 = entries.values().map(|s| s.records).sum();
        Inventory::from_entries(res, entries, total)
    }

    #[test]
    fn coalesces_sparse_keeps_dense() {
        let inv = mixed_density_inventory();
        let fine_cells = inv.len_of(crate::features::GroupingSet::Cell);
        let adaptive = AdaptiveInventory::build(&inv, &AdaptiveConfig::default());
        assert!(
            adaptive.len() < fine_cells,
            "{} !< {fine_cells}",
            adaptive.len()
        );
        // Mixed resolutions present.
        let hist = adaptive.resolution_histogram();
        assert!(hist.len() >= 2, "partition not adaptive: {hist:?}");
        // Dense cells stayed at res 6.
        assert!(hist.iter().any(|(r, _)| *r == 6), "{hist:?}");
        // Sparse trail coarsened below 6.
        assert!(hist.iter().any(|(r, _)| *r < 6), "{hist:?}");
    }

    #[test]
    fn preserves_total_records() {
        let inv = mixed_density_inventory();
        let adaptive = AdaptiveInventory::build(&inv, &AdaptiveConfig::default());
        let fine_total: u64 = inv
            .iter()
            .filter_map(|(k, s)| matches!(k, GroupKey::Cell(_)).then_some(s.records))
            .sum();
        assert_eq!(adaptive.total_records(), fine_total);
    }

    #[test]
    fn partition_is_valid() {
        let inv = mixed_density_inventory();
        let adaptive = AdaptiveInventory::build(&inv, &AdaptiveConfig::default());
        assert_eq!(adaptive.partition_violations(), 0);
    }

    #[test]
    fn query_resolves_fine_and_coarse() {
        let inv = mixed_density_inventory();
        let adaptive = AdaptiveInventory::build(&inv, &AdaptiveConfig::default());
        // Dense area: answered at fine resolution with high counts.
        let (cell, stats) = adaptive
            .summary_at(LatLon::new(51.0, 1.5).unwrap())
            .expect("dense area covered");
        assert_eq!(cell.resolution().level(), 6);
        assert!(stats.records >= 50);
        // Sparse trail: answered at a coarser cell that pooled neighbours.
        let (cell, stats) = adaptive
            .summary_at(LatLon::new(-20.0, -35.0).unwrap())
            .expect("sparse trail covered");
        assert!(cell.resolution().level() < 6);
        assert!(stats.records >= 1);
        // Untouched ocean: nothing.
        assert!(adaptive
            .summary_at(LatLon::new(70.0, -160.0).unwrap())
            .is_none());
    }

    #[test]
    fn merged_statistics_survive_coalescing() {
        let inv = mixed_density_inventory();
        let adaptive = AdaptiveInventory::build(&inv, &AdaptiveConfig::default());
        let (_, stats) = adaptive
            .summary_at(LatLon::new(-20.0, -35.0).unwrap())
            .unwrap();
        // The pooled sparse cell still knows speed and destination stats.
        assert!(stats.speed.mean().is_some());
        assert_eq!(stats.top_destinations(1)[0].0, 1);
    }

    #[test]
    fn threshold_extremes() {
        let inv = mixed_density_inventory();
        // Threshold 0/1: nothing coalesces (every group total ≥ 1 record
        // except empty groups, which don't exist).
        let none = AdaptiveInventory::build(
            &inv,
            &AdaptiveConfig {
                min_records_per_cell: 1,
                ..AdaptiveConfig::default()
            },
        );
        assert_eq!(none.len(), inv.len_of(crate::features::GroupingSet::Cell));
        // Huge threshold: everything pools down to the coarsest level.
        let all = AdaptiveInventory::build(
            &inv,
            &AdaptiveConfig {
                min_records_per_cell: u64::MAX,
                ..AdaptiveConfig::default()
            },
        );
        assert!(all
            .resolution_histogram()
            .iter()
            .all(|(r, _)| *r == AdaptiveConfig::default().coarsest.level()));
        assert_eq!(all.total_records(), none.total_records());
        assert_eq!(all.partition_violations(), 0);
    }
}
