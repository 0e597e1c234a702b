//! Voyage-progress estimation from the ETO statistics — the second half
//! of §4.1.2's "explicit statistics for ATA and ETO are also available
//! for all value combinations of GI on each cell".
//!
//! Where ATA answers "how long until arrival?", ETO answers "how long has
//! this vessel been under way?" — which dates the departure of a vessel
//! first observed mid-ocean (a satellite pickup with no port history) and
//! yields a progress fraction when combined with ATA.

use pol_ais::types::MarketSegment;
use pol_core::{Inventory, InventoryQuery, Summary};
use pol_geo::LatLon;
use pol_hexgrid::{cell_at, grid_disk};
use std::cmp::Reverse;

/// A progress estimate for a vessel at a position.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProgressEstimate {
    /// Median historical elapsed-time-from-origin at this location, secs.
    pub eto_secs: f64,
    /// Median historical time-to-arrival at this location, secs.
    pub ata_secs: f64,
    /// Estimated fraction of the voyage completed, in `[0, 1]`.
    pub fraction: f64,
    /// Estimated departure Unix time (`now - eto`).
    pub departure_estimate: i64,
    /// Historical observations backing the estimate.
    pub samples: u64,
}

/// Inventory-backed progress estimator, generic over [`InventoryQuery`]
/// like the ETA estimator.
pub struct ProgressEstimator<'a, I: InventoryQuery = Inventory> {
    inventory: &'a I,
}

impl<'a, I: InventoryQuery> ProgressEstimator<'a, I> {
    /// Wraps an inventory-shaped store.
    pub fn new(inventory: &'a I) -> Self {
        ProgressEstimator { inventory }
    }

    /// Estimates voyage progress for a vessel observed at `pos` at Unix
    /// time `now`. Reads each cell through
    /// [`InventoryQuery::most_specific`], like the ETA estimator, and
    /// widens up to two rings when no cell of the disk has ETO history;
    /// an entry whose bytes do not decode counts as absent.
    pub fn estimate(
        &self,
        pos: LatLon,
        now: i64,
        segment: Option<MarketSegment>,
        route: Option<(u16, u16)>,
    ) -> Option<ProgressEstimate> {
        let origin_cell = cell_at(pos, self.inventory.resolution());
        for k in 0..=crate::MAX_WIDENING {
            let summaries: Vec<Summary<'_>> = grid_disk(origin_cell, k)
                .into_iter()
                .filter_map(|cell| self.inventory.most_specific(cell, segment, route))
                .collect();
            // The disk's cell with the most ETO samples, the first of
            // equals.
            let best = summaries
                .iter()
                .filter_map(|s| s.stats().ok())
                .filter(|stats| stats.eto.count() > 0)
                .min_by_key(|stats| Reverse(stats.eto.count()));
            if let Some(stats) = best {
                let eto = stats.eto_q.quantile(0.5)?;
                let ata = stats.ata_q.quantile(0.5)?;
                let total = eto + ata;
                if total <= 0.0 {
                    return None;
                }
                return Some(ProgressEstimate {
                    eto_secs: eto,
                    ata_secs: ata,
                    fraction: (eto / total).clamp(0.0, 1.0),
                    departure_estimate: now - eto as i64,
                    samples: stats.eto.count(),
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_core::features::{CellStats, GroupKey};
    use pol_core::records::{CellPoint, TripPoint};
    use pol_hexgrid::Resolution;
    use pol_sketch::hash::FxHashMap;

    /// One cell whose history says: vessels here are 3 600 s from origin
    /// and 10 800 s from destination (25% progress).
    fn inventory_at(pos: LatLon, eto: i64, ata: i64, n: usize) -> Inventory {
        let res = Resolution::new(6).unwrap();
        let cell = cell_at(pos, res);
        let mut stats = CellStats::new(0.01, 8);
        for i in 0..n {
            stats.observe(&CellPoint {
                point: TripPoint {
                    mmsi: pol_ais::types::Mmsi(1 + i as u32),
                    timestamp: 0,
                    pos,
                    sog_knots: Some(14.0),
                    cog_deg: Some(90.0),
                    heading_deg: Some(90.0),
                    segment: MarketSegment::Container,
                    trip_id: i as u64,
                    origin: 2,
                    dest: 9,
                    eto_secs: eto + (i as i64 % 5 - 2) * 30,
                    ata_secs: ata + (i as i64 % 5 - 2) * 30,
                },
                cell,
                next_cell: None,
            });
        }
        let mut entries: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
        entries.insert(GroupKey::Cell(cell), stats.clone());
        entries.insert(
            GroupKey::CellRoute(cell, 2, 9, MarketSegment::Container),
            stats,
        );
        Inventory::from_entries(res, entries, n as u64)
    }

    #[test]
    fn quarter_progress_recovered() {
        let pos = LatLon::new(20.0, -30.0).unwrap();
        let inv = inventory_at(pos, 3_600, 10_800, 25);
        let est = ProgressEstimator::new(&inv)
            .estimate(pos, 1_000_000, Some(MarketSegment::Container), Some((2, 9)))
            .unwrap();
        assert!(
            (est.fraction - 0.25).abs() < 0.03,
            "fraction {}",
            est.fraction
        );
        assert!((est.eto_secs - 3_600.0).abs() < 120.0);
        assert!((est.ata_secs - 10_800.0).abs() < 120.0);
        assert!((est.departure_estimate - (1_000_000 - 3_600)).abs() < 120);
        assert_eq!(est.samples, 25);
    }

    #[test]
    fn near_arrival_fraction_close_to_one() {
        let pos = LatLon::new(20.0, -30.0).unwrap();
        let inv = inventory_at(pos, 100_000, 600, 15);
        let est = ProgressEstimator::new(&inv)
            .estimate(pos, 0, None, None)
            .unwrap();
        assert!(est.fraction > 0.95, "fraction {}", est.fraction);
    }

    #[test]
    fn unseen_area_returns_none() {
        let pos = LatLon::new(20.0, -30.0).unwrap();
        let inv = inventory_at(pos, 3_600, 10_800, 10);
        let far = LatLon::new(-50.0, 120.0).unwrap();
        assert!(ProgressEstimator::new(&inv)
            .estimate(far, 0, None, None)
            .is_none());
    }

    #[test]
    fn widening_picks_up_neighbours() {
        let pos = LatLon::new(20.0, -30.0).unwrap();
        let inv = inventory_at(pos, 7_200, 7_200, 12);
        let cell = cell_at(pos, Resolution::new(6).unwrap());
        let npos = pol_hexgrid::cell_center(pol_hexgrid::neighbors(cell)[2]);
        let est = ProgressEstimator::new(&inv)
            .estimate(npos, 500_000, None, None)
            .unwrap();
        assert!((est.fraction - 0.5).abs() < 0.05);
    }
}
