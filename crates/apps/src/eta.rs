//! §4.1.2 — estimated time of arrival from historical ATA statistics.
//!
//! The paper: "there is no previously published work of a global scale
//! inventory that relies on the ATA of historical trips to estimate the
//! expected time to destination … each result set can be considered as a
//! basic ETA estimate". The estimator queries the most specific available
//! grouping-set entry for the vessel's cell — route-level first, then
//! vessel-type, then all-traffic — widening to neighbouring cells when the
//! exact cell is unseen.

use pol_ais::types::MarketSegment;
use pol_core::{Inventory, InventoryQuery, Summary};
use pol_geo::{haversine_km, LatLon};
use pol_hexgrid::{cell_at, grid_disk, CellIndex};

/// An ETA estimate with its uncertainty band.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EtaEstimate {
    /// Mean remaining time, seconds.
    pub mean_secs: f64,
    /// 10th percentile (optimistic), seconds.
    pub p10_secs: f64,
    /// Median, seconds.
    pub p50_secs: f64,
    /// 90th percentile (pessimistic), seconds.
    pub p90_secs: f64,
    /// Historical observations backing the estimate.
    pub samples: u64,
    /// How many rings of neighbouring cells were widened to (0 = exact).
    pub widened: u32,
}

/// ATA statistics merged over the cells looked up so far, each at the
/// most specific key level it has: sample-weighted sums. The weighted
/// sums start from what `Iterator::sum` starts from (-0.0, the identity
/// that leaves a lone -0.0 term as it is).
struct Merged {
    mean_sum: f64,
    samples: u64,
    weight: f64,
    /// p10, p50, p90, each times its cell's sample count.
    quantile_sums: [f64; 3],
}

impl Default for Merged {
    fn default() -> Self {
        Merged {
            mean_sum: 0.0,
            samples: 0,
            weight: -0.0,
            quantile_sums: [-0.0; 3],
        }
    }
}

impl Merged {
    /// Folds in one cell's arrival statistics; an absent cell, one
    /// without arrivals or one whose bytes do not decode adds nothing.
    fn add(&mut self, summary: Option<Summary<'_>>) {
        let Some(Ok((ata, mut q))) = summary.map(|s| s.arrival()) else {
            return;
        };
        let n = ata.count();
        if n == 0 {
            return;
        }
        self.mean_sum += ata.mean().unwrap_or(0.0) * n as f64;
        self.samples += n;
        if let (Some(p10), Some(p50), Some(p90)) =
            (q.quantile(0.1), q.quantile(0.5), q.quantile(0.9))
        {
            self.weight += n as f64;
            for (sum, p) in self.quantile_sums.iter_mut().zip([p10, p50, p90]) {
                *sum += p * n as f64;
            }
        }
    }

    /// The estimate over what has been folded in, `None` until some
    /// cell had arrivals with quantiles.
    fn estimate(&self, widened: u32) -> Option<EtaEstimate> {
        if self.samples == 0 || self.weight <= 0.0 {
            return None;
        }
        let [p10_secs, p50_secs, p90_secs] = self.quantile_sums.map(|sum| sum / self.weight);
        Some(EtaEstimate {
            mean_secs: self.mean_sum / self.samples as f64,
            p10_secs,
            p50_secs,
            p90_secs,
            samples: self.samples,
            widened,
        })
    }
}

/// The inventory-backed ETA estimator.
///
/// Generic over [`InventoryQuery`] so the same estimator serves from the
/// in-memory [`Inventory`] or from a serving-side store (the `pol-serve`
/// ETA endpoint delegates here against its heap or mapped store).
pub struct EtaEstimator<'a, I: InventoryQuery = Inventory> {
    inventory: &'a I,
    /// Widen the query up to this many rings when the cell is unseen.
    pub max_widening: u32,
}

impl<'a, I: InventoryQuery> EtaEstimator<'a, I> {
    /// Wraps an inventory-shaped store.
    pub fn new(inventory: &'a I) -> Self {
        EtaEstimator {
            inventory,
            max_widening: 2,
        }
    }

    /// Estimates remaining time to destination for a vessel at `pos`.
    ///
    /// `route` narrows the lookup to the `(origin, dest, segment)` grouping
    /// set when provided (the most informative key); otherwise the
    /// vessel-type or all-traffic summaries serve.
    pub fn estimate(
        &self,
        pos: LatLon,
        segment: Option<MarketSegment>,
        route: Option<(u16, u16)>,
    ) -> Option<EtaEstimate> {
        let cell = cell_at(pos, self.inventory.resolution());
        let mut merged = Merged::default();
        // The cell itself first — the path every hit takes — then one
        // ring at a time: a disk lists its cells nearest first, so the
        // cells past the previous disk's are the new ring, and each is
        // looked up once however far the estimate widens.
        merged.add(self.lookup(cell, segment, route));
        let mut seen = 1;
        for k in 0..=self.max_widening {
            if k > 0 {
                let disk = grid_disk(cell, k);
                for c in disk.iter().skip(seen) {
                    merged.add(self.lookup(*c, segment, route));
                }
                seen = disk.len();
            }
            if let Some(estimate) = merged.estimate(k) {
                return Some(estimate);
            }
        }
        None
    }

    /// Most specific grouping-set entry for a cell, as the store holds
    /// it — see [`InventoryQuery`].
    fn lookup(
        &self,
        cell: CellIndex,
        segment: Option<MarketSegment>,
        route: Option<(u16, u16)>,
    ) -> Option<Summary<'_>> {
        if let (Some(seg), Some((o, d))) = (segment, route) {
            if let Some(s) = self.inventory.summary_route(cell, o, d, seg) {
                return Some(s);
            }
        }
        if let Some(seg) = segment {
            if let Some(s) = self.inventory.summary_for(cell, seg) {
                return Some(s);
            }
        }
        self.inventory.summary(cell)
    }
}

/// The naive baseline the paper's inventory estimate is compared against:
/// great-circle distance to the destination over an assumed service speed.
pub fn naive_eta_secs(pos: LatLon, dest: LatLon, assumed_speed_kn: f64) -> f64 {
    let km = haversine_km(pos, dest);
    km / pol_geo::units::knots_to_kmh(assumed_speed_kn.max(0.1)) * 3600.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_core::features::{CellStats, GroupKey};
    use pol_core::records::{CellPoint, TripPoint};
    use pol_hexgrid::Resolution;
    use pol_sketch::hash::FxHashMap;

    /// Hand-built inventory: one mid-ocean cell with known ATA ≈ 10 000 s.
    fn inventory_with_cell(pos: LatLon, ata: &[i64]) -> (Inventory, CellIndex) {
        let res = Resolution::new(6).unwrap();
        let cell = cell_at(pos, res);
        let mut stats = CellStats::new(0.02, 8);
        for (i, &a) in ata.iter().enumerate() {
            let cp = CellPoint {
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
                    eto_secs: 5_000,
                    ata_secs: a,
                },
                cell,
                next_cell: None,
            };
            stats.observe(&cp);
        }
        let mut entries: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
        entries.insert(GroupKey::Cell(cell), stats.clone());
        entries.insert(
            GroupKey::CellType(cell, MarketSegment::Container),
            stats.clone(),
        );
        entries.insert(
            GroupKey::CellRoute(cell, 2, 9, MarketSegment::Container),
            stats,
        );
        (
            Inventory::from_entries(res, entries, ata.len() as u64),
            cell,
        )
    }

    #[test]
    fn estimates_from_exact_cell() {
        let pos = LatLon::new(30.0, -40.0).unwrap();
        let (inv, _) = inventory_with_cell(pos, &[9_000, 10_000, 11_000]);
        let est = EtaEstimator::new(&inv)
            .estimate(pos, Some(MarketSegment::Container), Some((2, 9)))
            .unwrap();
        assert!((est.mean_secs - 10_000.0).abs() < 1.0);
        assert_eq!(est.samples, 3);
        assert_eq!(est.widened, 0);
        assert!(est.p10_secs <= est.p50_secs && est.p50_secs <= est.p90_secs);
    }

    #[test]
    fn widens_to_neighbours_when_cell_unseen() {
        let pos = LatLon::new(30.0, -40.0).unwrap();
        let (inv, cell) = inventory_with_cell(pos, &[10_000; 5]);
        // Query from a neighbouring cell's centre.
        let neighbour = pol_hexgrid::neighbors(cell)[0];
        let npos = pol_hexgrid::cell_center(neighbour);
        let est = EtaEstimator::new(&inv)
            .estimate(npos, Some(MarketSegment::Container), None)
            .unwrap();
        assert_eq!(est.widened, 1);
        assert!((est.mean_secs - 10_000.0).abs() < 1.0);
    }

    #[test]
    fn none_when_nothing_nearby() {
        let pos = LatLon::new(30.0, -40.0).unwrap();
        let (inv, _) = inventory_with_cell(pos, &[10_000]);
        let far = LatLon::new(-30.0, 100.0).unwrap();
        assert!(EtaEstimator::new(&inv).estimate(far, None, None).is_none());
    }

    #[test]
    fn falls_back_across_key_levels() {
        let pos = LatLon::new(30.0, -40.0).unwrap();
        let (inv, _) = inventory_with_cell(pos, &[10_000; 4]);
        let est = EtaEstimator::new(&inv);
        // Unknown route: falls back to segment, then cell.
        assert!(est
            .estimate(pos, Some(MarketSegment::Container), Some((7, 7)))
            .is_some());
        // Unknown segment: falls back to the all-traffic summary.
        assert!(est.estimate(pos, Some(MarketSegment::Gas), None).is_some());
        assert!(est.estimate(pos, None, None).is_some());
    }

    #[test]
    fn naive_baseline_math() {
        let a = LatLon::new(0.0, 0.0).unwrap();
        let b = LatLon::new(0.0, 1.0).unwrap(); // ≈ 111.2 km
        let secs = naive_eta_secs(a, b, 15.0); // 27.78 km/h
        let expect = 111.19 / 27.78 * 3600.0;
        assert!((secs - expect).abs() / expect < 0.01, "{secs} vs {expect}");
    }
}
