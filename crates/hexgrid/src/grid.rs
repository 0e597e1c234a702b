//! Public grid operations: point→cell, cell geometry, hierarchy traversal,
//! adjacency, k-rings and regional cell enumeration.

use crate::index::{CellIndex, Resolution};
use crate::lattice::{child_axial, parent_axial, Axial, Lattice};
use pol_geo::project::{from_xy, to_xy, WorldXY};
use pol_geo::{BBox, LatLon};
use std::collections::VecDeque;

/// Returns the cell containing `p` at the given resolution.
///
/// This is the hot path of the paper's §3.3.3 "projection to spatial index"
/// step: a projection, a 2×2 solve, a hex rounding and ≤ `res` integer
/// parent steps. Never fails for a valid [`LatLon`].
pub fn cell_at(p: LatLon, res: Resolution) -> CellIndex {
    let lattice = Lattice::get();
    let ax = lattice.axial_of(p, res.level());
    // lint: allow(no_unwrap) — the base-cell table is built to cover the
    // whole world rectangle plus a drift margin, so a valid LatLon always
    // lands on an indexed base cell; this is a checked-at-construction
    // invariant of the lattice, not an input condition.
    CellIndex::from_axial(ax, res)
        .expect("base-cell table covers the world rectangle plus drift margin")
}

/// Axial coordinates of the cell containing `p` at `res` — the prefix of
/// [`cell_at`] without the index construction (no digit walk, no base-cell
/// probe). Within one resolution, axial coordinates identify a cell
/// uniquely, so `cell_axial_at(p, r) == cell_at(p, r).axial()` for every
/// valid point; hot lookups keyed per-resolution (the port geofence) use
/// this to skip roughly half of `cell_at`'s work.
pub fn cell_axial_at(p: LatLon, res: Resolution) -> Axial {
    Lattice::get().axial_of(p, res.level())
}

/// Geographic centre of a cell.
pub fn cell_center(cell: CellIndex) -> LatLon {
    let lattice = Lattice::get();
    let ax = cell.axial();
    from_xy(lattice.basis(cell.resolution().level()).to_world(ax))
}

/// The six boundary vertices of a cell, in CCW order.
pub fn cell_boundary(cell: CellIndex) -> [LatLon; 6] {
    let lattice = Lattice::get();
    let basis = lattice.basis(cell.resolution().level());
    let c = basis.to_world(cell.axial());
    let offs = basis.vertex_offsets();
    std::array::from_fn(|i| {
        from_xy(WorldXY {
            x: c.x + offs[i].x,
            y: c.y + offs[i].y,
        })
    })
}

/// Parent of a cell at the next coarser resolution; `None` at resolution 0.
pub fn parent(cell: CellIndex) -> Option<CellIndex> {
    let res = cell.resolution().coarser()?;
    let (pax, _digit) = parent_axial(cell.axial());
    CellIndex::from_axial(pax, res)
}

/// Ancestor of a cell at an arbitrary coarser resolution.
/// Returns the cell itself when `res` equals the cell's resolution and
/// `None` when `res` is finer.
pub fn parent_at(cell: CellIndex, res: Resolution) -> Option<CellIndex> {
    if res > cell.resolution() {
        return None;
    }
    let mut ax = cell.axial();
    for _ in res.level()..cell.resolution().level() {
        ax = parent_axial(ax).0;
    }
    CellIndex::from_axial(ax, res)
}

/// The seven children of a cell at the next finer resolution, centre child
/// first. `None` at resolution 15.
pub fn children(cell: CellIndex) -> Option<[CellIndex; 7]> {
    let res = cell.resolution().finer()?;
    let pax = cell.axial();
    Some(std::array::from_fn(|d| {
        // lint: allow(no_unwrap) — every child centre lies inside its
        // parent's hexagon, so children of an indexed cell stay within the
        // base-cell table's drift margin by construction.
        CellIndex::from_axial(child_axial(pax, d as u8), res)
            .expect("children of an on-earth cell stay within the table margin")
    }))
}

/// The lattice neighbours of a cell (up to six).
///
/// Cells in the extreme polar rows or at the antimeridian seam may have
/// fewer: a lattice neighbour that falls outside the indexed world
/// rectangle is skipped (there is no geography there).
pub fn neighbors(cell: CellIndex) -> Vec<CellIndex> {
    let res = cell.resolution();
    let ax = cell.axial();
    Axial::NEIGHBOR_OFFSETS
        .iter()
        .filter_map(|off| CellIndex::from_axial(ax + *off, res))
        .collect()
}

/// All cells within hex-grid distance `k` of `origin` (inclusive), i.e. the
/// filled k-ring. Contains `1 + 3k(k+1)` cells away from world edges.
pub fn grid_disk(origin: CellIndex, k: u32) -> Vec<CellIndex> {
    let res = origin.resolution();
    let oax = origin.axial();
    let mut out = Vec::with_capacity(1 + 3 * k as usize * (k as usize + 1));
    // Everything the BFS reaches lies within k of `origin` along both
    // axes, so a (2k+1)² bitmap centred on it marks what was seen.
    let (k64, side) = (i64::from(k), 2 * k as usize + 1);
    let mut seen = vec![false; side * side];
    seen[side * side / 2] = true;
    let mut queue = VecDeque::new();
    queue.push_back((oax, 0u32));
    while let Some((ax, d)) = queue.pop_front() {
        if let Some(c) = CellIndex::from_axial(ax, res) {
            out.push(c);
        }
        if d == k {
            continue;
        }
        for off in Axial::NEIGHBOR_OFFSETS {
            let n = ax + off;
            let at = (n.q - oax.q + k64) as usize * side + (n.r - oax.r + k64) as usize;
            if !std::mem::replace(&mut seen[at], true) {
                queue.push_back((n, d + 1));
            }
        }
    }
    out
}

/// Hex-grid distance between two cells of the same resolution
/// (`None` when resolutions differ).
pub fn grid_distance(a: CellIndex, b: CellIndex) -> Option<u64> {
    if a.resolution() != b.resolution() {
        return None;
    }
    Some(a.axial().distance(b.axial()))
}

/// Enumerates every cell whose centre lies inside the bounding box.
///
/// Used by geofence construction and the regional views (paper Figure 4).
/// The box must not cross the antimeridian. Cost is proportional to the
/// number of candidate lattice sites, so keep `res` commensurate with the
/// box size.
pub fn cells_in_bbox(bbox: &BBox, res: Resolution) -> Vec<CellIndex> {
    let lattice = Lattice::get();
    let basis = lattice.basis(res.level());
    // Axial bounds from the four corners (the basis is rotated for res > 0,
    // so take min/max over all corners plus margin).
    let corners = [
        to_xy(LatLon::wrapped(bbox.min_lat, bbox.min_lon)),
        to_xy(LatLon::wrapped(bbox.min_lat, bbox.max_lon)),
        to_xy(LatLon::wrapped(bbox.max_lat, bbox.min_lon)),
        to_xy(LatLon::wrapped(bbox.max_lat, bbox.max_lon)),
    ];
    let mut qmin = i64::MAX;
    let mut qmax = i64::MIN;
    let mut rmin = i64::MAX;
    let mut rmax = i64::MIN;
    for c in corners {
        let (qf, rf) = basis.to_fractional(c);
        qmin = qmin.min(qf.floor() as i64);
        qmax = qmax.max(qf.ceil() as i64);
        rmin = rmin.min(rf.floor() as i64);
        rmax = rmax.max(rf.ceil() as i64);
    }
    let mut out = Vec::new();
    for q in (qmin - 1)..=(qmax + 1) {
        for r in (rmin - 1)..=(rmax + 1) {
            let center = from_xy(basis.to_world(Axial::new(q, r)));
            if bbox.contains(center) {
                if let Some(c) = CellIndex::from_axial(Axial::new(q, r), res) {
                    out.push(c);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::avg_edge_length_km;
    use pol_geo::haversine_km;
    use std::collections::HashSet;

    fn ll(lat: f64, lon: f64) -> LatLon {
        LatLon::new(lat, lon).unwrap()
    }

    fn res(r: u8) -> Resolution {
        Resolution::new(r).unwrap()
    }

    #[test]
    fn cell_center_round_trips() {
        for r in [0u8, 2, 4, 6, 7, 9] {
            for (lat, lon) in [
                (51.0, 1.5),
                (0.0, 0.0),
                (-34.0, 18.5),
                (35.45, 139.65),
                (60.0, 25.0),
                (-55.9, -67.2),
            ] {
                let c = cell_at(ll(lat, lon), res(r));
                let center = cell_center(c);
                let c2 = cell_at(center, res(r));
                assert_eq!(c, c2, "res {r} at ({lat},{lon})");
            }
        }
    }

    #[test]
    fn point_within_circumradius_of_cell_center() {
        for r in [3u8, 6, 7] {
            // Planar distance ≤ circumradius; the true spherical distance
            // stretches by up to 1/cos(lat) in the north-south direction
            // (equal-area projections distort shape, not area). Test points
            // stay below 52° lat ⇒ stretch ≤ 1.63.
            let max_km = avg_edge_length_km(res(r)) * 1.7;
            for (lat, lon) in [(51.0, 1.5), (1.26, 103.8), (40.6, -74.0), (-33.9, 18.4)] {
                let c = cell_at(ll(lat, lon), res(r));
                let d = haversine_km(cell_center(c), ll(lat, lon));
                assert!(d <= max_km, "res {r} ({lat},{lon}): {d} km > {max_km}");
            }
        }
    }

    #[test]
    fn parent_of_children_is_self() {
        let c = cell_at(ll(51.0, 1.5), res(6));
        let kids = children(c).unwrap();
        assert_eq!(kids.len(), 7);
        let set: HashSet<_> = kids.iter().collect();
        assert_eq!(set.len(), 7, "children must be distinct");
        for k in kids {
            assert_eq!(parent(k), Some(c));
            assert_eq!(k.resolution().level(), 7);
        }
        // Centre child shares the parent's centre.
        let d = haversine_km(cell_center(kids[0]), cell_center(c));
        assert!(d < 0.01, "centre child offset {d} km");
    }

    #[test]
    fn parent_at_walks_multiple_levels() {
        let c = cell_at(ll(51.0, 1.5), res(9));
        let p6 = parent_at(c, res(6)).unwrap();
        assert_eq!(p6.resolution().level(), 6);
        // Same as applying parent() three times.
        let manual = parent(parent(parent(c).unwrap()).unwrap()).unwrap();
        assert_eq!(p6, manual);
        // Identity and error cases.
        assert_eq!(parent_at(c, res(9)), Some(c));
        assert_eq!(parent_at(c, res(10)), None);
    }

    #[test]
    fn neighbors_are_symmetric_distance_one() {
        let c = cell_at(ll(51.0, 1.5), res(6));
        let ns = neighbors(c);
        assert_eq!(ns.len(), 6);
        for n in ns {
            assert_eq!(grid_distance(c, n), Some(1));
            assert!(neighbors(n).contains(&c), "adjacency must be symmetric");
        }
    }

    #[test]
    fn grid_disk_sizes() {
        let c = cell_at(ll(51.0, 1.5), res(6));
        assert_eq!(grid_disk(c, 0), vec![c]);
        assert_eq!(grid_disk(c, 1).len(), 7);
        assert_eq!(grid_disk(c, 2).len(), 19);
        assert_eq!(grid_disk(c, 3).len(), 37);
        // Every member within distance k.
        for m in grid_disk(c, 3) {
            assert!(grid_distance(c, m).unwrap() <= 3);
        }
    }

    #[test]
    fn grid_distance_requires_same_resolution() {
        let a = cell_at(ll(51.0, 1.5), res(6));
        let b = cell_at(ll(51.0, 1.5), res(7));
        assert_eq!(grid_distance(a, b), None);
    }

    #[test]
    fn boundary_vertices_surround_center() {
        let c = cell_at(ll(51.0, 1.5), res(6));
        let center = cell_center(c);
        let boundary = cell_boundary(c);
        let mut min_d = f64::INFINITY;
        let mut max_d: f64 = 0.0;
        for v in boundary {
            let d = haversine_km(center, v);
            min_d = min_d.min(d);
            max_d = max_d.max(d);
        }
        // Regular in the plane; on the sphere at 51°N the radii spread by
        // up to 1/cos²(51°) ≈ 2.5 between the E-W and N-S directions.
        assert!(max_d / min_d < 2.6, "vertex radii {min_d}..{max_d}");
    }

    #[test]
    fn bbox_enumeration_matches_point_assignment() {
        let bbox = BBox::new(50.5, 0.0, 51.5, 2.0).unwrap();
        let cells = cells_in_bbox(&bbox, res(5));
        assert!(!cells.is_empty());
        let set: HashSet<_> = cells.iter().copied().collect();
        assert_eq!(set.len(), cells.len(), "no duplicates");
        // Any point in the (slightly shrunk) box maps to a cell whose centre
        // is inside the box or just outside the margin.
        for i in 0..50 {
            let lat = 50.55 + 0.9 * (i as f64 * 0.618) % 0.9;
            let lon = 0.1 + 1.8 * (i as f64 * 0.377) % 1.8;
            let c = cell_at(ll(lat, lon), res(5));
            if bbox.contains(cell_center(c)) {
                assert!(set.contains(&c), "cell {c} with centre in box missing");
            }
        }
    }

    #[test]
    fn nearby_points_share_or_neighbor_cells() {
        // Two points 500 m apart at res 7 (edge ~1.4 km) are in the same
        // cell or adjacent cells.
        let a = ll(51.0, 1.5);
        let b = pol_geo::destination(a, 45.0, 0.5);
        let ca = cell_at(a, res(7));
        let cb = cell_at(b, res(7));
        let d = grid_distance(ca, cb).unwrap();
        assert!(d <= 1, "distance {d}");
    }

    #[test]
    fn distinct_far_points_get_distinct_cells() {
        let c1 = cell_at(ll(51.0, 1.5), res(6));
        let c2 = cell_at(ll(52.0, 1.5), res(6));
        assert_ne!(c1, c2);
    }

    #[test]
    fn polar_points_are_indexed() {
        for r in [0u8, 4, 6] {
            for (lat, lon) in [(90.0, 0.0), (-90.0, 0.0), (89.999, 179.9), (-89.5, -120.0)] {
                let c = cell_at(ll(lat, lon), res(r));
                // Must round-trip through validation.
                assert_eq!(CellIndex::from_raw(c.raw()), Ok(c));
            }
        }
    }
}
