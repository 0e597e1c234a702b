//! §4.1.3 — route forecasting over the inventory's transition graph.
//!
//! Per the paper: for a vessel on a known `(origin, destination,
//! vessel-type)` trip, query the inventory for *all* cells holding that
//! key; the result set is the full set of historical transition locations.
//! Organise it as a graph — vertices are cell indices, edges come from the
//! Table-3 "Transitions" feature — and run a shortest-path search (the
//! paper names A*) from the vessel's current cell towards the destination.

use pol_ais::types::MarketSegment;
use pol_core::{GroupKey, Inventory, InventoryQuery};
use pol_geo::{haversine_km, LatLon};
use pol_hexgrid::{cell_at, cell_center, CellIndex};
use pol_sketch::hash::{FxHashMap, FxHashSet};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A forecast route as a cell path.
#[derive(Clone, Debug)]
pub struct RouteForecast {
    /// Cells from the vessel's current cell to the destination area.
    pub cells: Vec<CellIndex>,
    /// Total great-circle length over cell centres, km.
    pub distance_km: f64,
}

/// The per-key route forecaster.
pub struct RouteForecaster {
    /// Historical transition edges: cell → (next cell, observed count).
    edges: FxHashMap<CellIndex, Vec<(CellIndex, u64)>>,
    /// All cells of the route key.
    members: FxHashSet<CellIndex>,
    dest_pos: LatLon,
}

impl RouteForecaster {
    /// Builds the transition graph for one `(origin, dest, segment)` key.
    /// `dest_pos` anchors the A* heuristic and the goal test.
    ///
    /// Each cell's summary is read through [`InventoryQuery::summary_at`];
    /// the heap [`Inventory`] is taken for [`Inventory::route_cells`]
    /// alone: a mapped file sorts route keys by cell first, so it cannot
    /// list a route's cells until POLINV3 has a route-key section.
    pub fn build(
        inventory: &Inventory,
        origin: u16,
        dest: u16,
        segment: MarketSegment,
        dest_pos: LatLon,
    ) -> RouteForecaster {
        let members: FxHashSet<CellIndex> = inventory
            .route_cells(origin, dest, segment)
            .into_iter()
            .collect();
        let mut edges: FxHashMap<CellIndex, Vec<(CellIndex, u64)>> = FxHashMap::default();
        for &cell in &members {
            let summary = inventory.summary_at(&GroupKey::CellRoute(cell, origin, dest, segment));
            if let Some(Ok(stats)) = summary.as_ref().map(|s| s.stats()) {
                let outs: Vec<(CellIndex, u64)> = stats
                    .top_transitions(8)
                    .into_iter()
                    .filter(|(next, _)| members.contains(next))
                    .collect();
                if !outs.is_empty() {
                    edges.insert(cell, outs);
                }
            }
        }
        RouteForecaster {
            edges,
            members,
            dest_pos,
        }
    }

    /// Number of cells holding the route key.
    pub fn cell_count(&self) -> usize {
        self.members.len()
    }

    /// Number of cells with outgoing transitions.
    pub fn edge_sources(&self) -> usize {
        self.edges.len()
    }

    /// Forecasts the route from the vessel's current position: A* over the
    /// historical transition graph with the great-circle distance to the
    /// destination as the (admissible) heuristic. Succeeds when the current
    /// cell (or a member cell very near it) connects to the destination
    /// area; returns `None` for positions off the historical lane.
    pub fn forecast(
        &self,
        pos: LatLon,
        resolution: pol_hexgrid::Resolution,
    ) -> Option<RouteForecast> {
        let start = cell_at(pos, resolution);
        let start = if self.members.contains(&start) {
            start
        } else {
            // Snap to the nearest member cell within a small radius.
            self.nearest_member(pos, 3.0 * pol_hexgrid::avg_edge_length_km(resolution) * 3.0)?
        };
        // Goal: any member cell near the destination. Trip cells stop at
        // the port geofence boundary (~12 km in the default pipeline), so
        // the goal disc must reach past it plus a cell of slack.
        let goal_radius = (6.0 * pol_hexgrid::avg_edge_length_km(resolution)).max(25.0);
        let h = |c: CellIndex| haversine_km(cell_center(c), self.dest_pos);

        let mut dist: FxHashMap<CellIndex, f64> = FxHashMap::default();
        let mut prev: FxHashMap<CellIndex, CellIndex> = FxHashMap::default();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut id_of: FxHashMap<u64, CellIndex> = FxHashMap::default();
        dist.insert(start, 0.0);
        id_of.insert(start.raw(), start);
        heap.push(Reverse(((h(start) * 1000.0) as u64, start.raw())));
        let mut best_goal: Option<CellIndex> = None;
        while let Some(Reverse((_, raw))) = heap.pop() {
            let cur = id_of[&raw];
            let d_cur = dist[&cur];
            if h(cur) <= goal_radius {
                best_goal = Some(cur);
                break;
            }
            if let Some(outs) = self.edges.get(&cur) {
                for (next, _count) in outs {
                    let step = haversine_km(cell_center(cur), cell_center(*next)).max(0.001);
                    let nd = d_cur + step;
                    if dist.get(next).is_none_or(|&old| nd < old) {
                        dist.insert(*next, nd);
                        prev.insert(*next, cur);
                        id_of.insert(next.raw(), *next);
                        heap.push(Reverse((((nd + h(*next)) * 1000.0) as u64, next.raw())));
                    }
                }
            }
        }
        let goal = best_goal?;
        let mut cells = vec![goal];
        let mut cur = goal;
        while let Some(&p) = prev.get(&cur) {
            cells.push(p);
            cur = p;
        }
        cells.reverse();
        Some(RouteForecast {
            distance_km: dist[&goal],
            cells,
        })
    }

    fn nearest_member(&self, pos: LatLon, max_km: f64) -> Option<CellIndex> {
        self.members
            .iter()
            .map(|&c| (c, haversine_km(cell_center(c), pos)))
            .filter(|(_, d)| *d <= max_km)
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(c, _)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_core::features::{CellStats, GroupKey};
    use pol_core::records::{CellPoint, TripPoint};
    use pol_hexgrid::Resolution;

    const SEG: MarketSegment = MarketSegment::Container;

    /// Builds an inventory whose route key follows a synthetic west→east
    /// chain of cells along 30°N.
    fn chain_inventory() -> (Inventory, Vec<LatLon>, LatLon) {
        let res = Resolution::new(6).unwrap();
        let positions: Vec<LatLon> = (0..30)
            .map(|i| LatLon::new(30.0, -40.0 + i as f64 * 0.08).unwrap())
            .collect();
        let cells: Vec<CellIndex> = positions.iter().map(|p| cell_at(*p, res)).collect();
        let mut entries: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
        for (i, (&pos, &cell)) in positions.iter().zip(&cells).enumerate() {
            let next_cell = cells[i..].iter().copied().find(|c| *c != cell);
            let cp = CellPoint {
                point: TripPoint {
                    mmsi: pol_ais::types::Mmsi(42),
                    timestamp: i as i64,
                    pos,
                    sog_knots: Some(16.0),
                    cog_deg: Some(90.0),
                    heading_deg: Some(90.0),
                    segment: SEG,
                    trip_id: 7,
                    origin: 1,
                    dest: 2,
                    eto_secs: 0,
                    ata_secs: 0,
                },
                cell,
                next_cell,
            };
            entries
                .entry(GroupKey::CellRoute(cell, 1, 2, SEG))
                .or_insert_with(|| CellStats::new(0.02, 8))
                .observe(&cp);
        }
        let dest_pos = *positions.last().unwrap();
        (
            Inventory::from_entries(res, entries, positions.len() as u64),
            positions,
            dest_pos,
        )
    }

    #[test]
    fn graph_built_from_route_key() {
        let (inv, _, dest) = chain_inventory();
        let f = RouteForecaster::build(&inv, 1, 2, SEG, dest);
        assert!(f.cell_count() > 5);
        assert!(f.edge_sources() > 3);
        // Wrong key: empty graph.
        let empty = RouteForecaster::build(&inv, 1, 3, SEG, dest);
        assert_eq!(empty.cell_count(), 0);
    }

    #[test]
    fn forecast_reaches_destination_area() {
        let (inv, positions, dest) = chain_inventory();
        let f = RouteForecaster::build(&inv, 1, 2, SEG, dest);
        let fc = f
            .forecast(positions[2], Resolution::new(6).unwrap())
            .expect("on-lane position forecasts");
        assert!(fc.cells.len() >= 3, "path {:?}", fc.cells.len());
        // Path ends near the destination.
        let end = cell_center(*fc.cells.last().unwrap());
        assert!(haversine_km(end, dest) < 30.0);
        // Path length is comparable to the remaining great-circle distance.
        let direct = haversine_km(positions[2], dest);
        assert!(
            fc.distance_km >= direct * 0.7 && fc.distance_km < direct * 2.0 + 50.0,
            "distance {} vs direct {direct}",
            fc.distance_km
        );
    }

    #[test]
    fn forecast_path_follows_observed_transitions() {
        let (inv, positions, dest) = chain_inventory();
        let f = RouteForecaster::build(&inv, 1, 2, SEG, dest);
        let fc = f
            .forecast(positions[0], Resolution::new(6).unwrap())
            .unwrap();
        for w in fc.cells.windows(2) {
            let outs = f.edges.get(&w[0]).expect("edge source");
            assert!(outs.iter().any(|(n, _)| *n == w[1]), "unobserved hop");
        }
    }

    #[test]
    fn off_lane_position_returns_none() {
        let (inv, _, dest) = chain_inventory();
        let f = RouteForecaster::build(&inv, 1, 2, SEG, dest);
        let off = LatLon::new(-20.0, 100.0).unwrap();
        assert!(f.forecast(off, Resolution::new(6).unwrap()).is_none());
    }

    #[test]
    fn near_lane_position_snaps_to_lane() {
        let (inv, positions, dest) = chain_inventory();
        let f = RouteForecaster::build(&inv, 1, 2, SEG, dest);
        // ~8 km north of the lane.
        let near = pol_geo::destination(positions[3], 0.0, 8.0);
        assert!(f.forecast(near, Resolution::new(6).unwrap()).is_some());
    }
}
