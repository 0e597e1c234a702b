//! §3.3.3 — projection to the spatial index.
//!
//! Every trip point is assigned the cell containing it at the configured
//! resolution, and — because record order within a trip is preserved —
//! the *next distinct cell* of the same trip, which is what the Table-3
//! "Transitions" feature counts.

use crate::records::{CellPoint, TripPoint};
use pol_hexgrid::{cell_at, CellIndex, Resolution};

/// Projects one trip's time-ordered points onto the grid, appending
/// cell-annotated points (with next-distinct-cell links) to `out`.
/// `cells` is caller-owned scratch, cleared here — fused executors reuse
/// it across trips. Shared by [`crate::reference`], [`crate::fused`] and
/// the streaming session layer (pol-stream).
pub fn project_trip(
    points: &[TripPoint],
    res: Resolution,
    cells: &mut Vec<CellIndex>,
    out: &mut Vec<CellPoint>,
) {
    cells.clear();
    cells.extend(points.iter().map(|p| cell_at(p.pos, res)));
    for (i, (point, cell)) in points.iter().zip(cells.iter()).enumerate() {
        // Next distinct cell later in the same trip.
        let next_cell = cells[i..].iter().find(|c| *c != cell).copied();
        out.push(CellPoint {
            point: *point,
            cell: *cell,
            next_cell,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_ais::types::{MarketSegment, Mmsi};
    use pol_geo::{destination, LatLon};
    use pol_hexgrid::{grid_distance, Resolution};

    fn tp(t: i64, pos: LatLon, trip: u64) -> TripPoint {
        TripPoint {
            mmsi: Mmsi(9),
            timestamp: t,
            pos,
            sog_knots: Some(15.0),
            cog_deg: Some(90.0),
            heading_deg: Some(90.0),
            segment: MarketSegment::Tanker,
            trip_id: trip,
            origin: 0,
            dest: 1,
            eto_secs: t,
            ata_secs: 1_000_000 - t,
        }
    }

    fn eastbound_track(n: usize, step_km: f64) -> Vec<TripPoint> {
        let start = LatLon::new(45.0, -30.0).unwrap();
        (0..n)
            .map(|i| {
                tp(
                    i as i64 * 600,
                    destination(start, 90.0, step_km * i as f64),
                    1,
                )
            })
            .collect()
    }

    /// Projects each trip's run of points, as the build routes do.
    fn run_at(points: &[TripPoint], res: Resolution) -> Vec<CellPoint> {
        let (mut cells, mut out) = (Vec::new(), Vec::new());
        for trip in points.chunk_by(|a, b| a.trip_id == b.trip_id) {
            project_trip(trip, res, &mut cells, &mut out);
        }
        out
    }

    fn run(points: Vec<TripPoint>) -> Vec<CellPoint> {
        run_at(&points, crate::config::PipelineConfig::default().resolution)
    }

    #[test]
    fn cells_assigned_and_contain_points() {
        let out = run(eastbound_track(30, 5.0));
        assert_eq!(out.len(), 30);
        for cp in &out {
            assert_eq!(cell_at(cp.point.pos, Resolution::new(6).unwrap()), cp.cell);
        }
    }

    #[test]
    fn transitions_link_adjacentish_cells_in_order() {
        let out = run(eastbound_track(40, 5.0));
        let mut transitions = 0;
        for cp in &out {
            if let Some(next) = cp.next_cell {
                assert_ne!(next, cp.cell, "transition must change cell");
                // Track steps 5 km; res-6 cells are ~3.7 km edge, so the
                // next distinct cell is at most a few cells away.
                let d = grid_distance(cp.cell, next).unwrap();
                assert!(d <= 4, "jump of {d} cells");
                transitions += 1;
            }
        }
        assert!(transitions > 10, "eastbound track must change cells");
        // The last point of the track has no next cell.
        assert!(out.last().unwrap().next_cell.is_none());
    }

    #[test]
    fn stationary_track_has_no_transitions() {
        let pos = LatLon::new(45.0, -30.0).unwrap();
        let points: Vec<_> = (0..10).map(|i| tp(i * 600, pos, 1)).collect();
        let out = run(points);
        assert!(out.iter().all(|cp| cp.next_cell.is_none()));
        let cells: std::collections::HashSet<_> = out.iter().map(|c| c.cell).collect();
        assert_eq!(cells.len(), 1);
    }

    #[test]
    fn transitions_do_not_cross_trips() {
        // Two trips in very different places; last point of trip 1 must not
        // point into trip 2.
        let mut points = eastbound_track(5, 5.0);
        let far = LatLon::new(-20.0, 60.0).unwrap();
        for i in 0..5 {
            points.push(tp(
                10_000 + i * 600,
                destination(far, 90.0, 5.0 * i as f64),
                2,
            ));
        }
        let out = run(points);
        let trip1: Vec<_> = out.iter().filter(|c| c.point.trip_id == 1).collect();
        assert!(
            trip1.last().unwrap().next_cell.is_none()
                || trip1.iter().all(|c| {
                    c.next_cell
                        .is_none_or(|n| grid_distance(c.cell, n).is_some_and(|d| d < 100))
                })
        );
    }

    #[test]
    fn respects_configured_resolution() {
        let cfg = crate::config::PipelineConfig::fine();
        let out = run_at(&eastbound_track(3, 5.0), cfg.resolution);
        for cp in out {
            assert_eq!(cp.cell.resolution().level(), 7);
        }
    }
}
