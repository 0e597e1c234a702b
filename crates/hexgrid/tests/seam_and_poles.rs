//! Characterisation tests for the grid's documented deviations from H3:
//! the antimeridian seam and the polar rows. These pin down *exactly* what
//! degrades there (and what must keep working), so the DESIGN.md
//! substitution note stays honest.

use pol_geo::{haversine_km, LatLon};
use pol_hexgrid::{
    cell_at, cell_center, children, grid_disk, neighbors, parent, CellIndex, Resolution,
};

fn res6() -> Resolution {
    Resolution::new(6).unwrap()
}

#[test]
fn seam_points_still_index_and_round_trip() {
    // Point assignment, index validity and the hierarchy never fail at the
    // seam. (The *centre* round trip is the one property the seam column
    // may break — a seam cell's centre can wrap past ±180°; see lib docs.)
    for lon in [-180.0, -179.999, 179.999, 179.95] {
        for lat in [-50.0, 0.0, 35.0, 60.0] {
            let p = LatLon::new(lat, lon).unwrap();
            let c = cell_at(p, res6());
            assert_eq!(CellIndex::from_raw(c.raw()), Ok(c));
            let center = cell_center(c);
            let c2 = cell_at(center, res6());
            assert!(
                c2 == c || 180.0 - center.lon().abs() < 0.3,
                "non-seam centre failed round trip at ({lat},{lon})"
            );
            let par = parent(c).unwrap();
            assert!(children(par).unwrap().contains(&c));
        }
    }
}

#[test]
fn seam_splits_geographically_close_points() {
    // The documented defect: two points 20 km apart across ±180° are NOT
    // lattice neighbours (distinct, far-apart index space).
    let west = LatLon::new(0.0, 179.9).unwrap();
    let east = LatLon::new(0.0, -179.9).unwrap();
    assert!(haversine_km(west, east) < 25.0);
    let cw = cell_at(west, res6());
    let ce = cell_at(east, res6());
    assert_ne!(cw, ce);
    assert!(
        !neighbors(cw).contains(&ce),
        "seam cells must not be lattice-adjacent (documented limitation)"
    );
}

#[test]
fn seam_affects_only_a_narrow_column() {
    // One cell-width away from the seam, everything is normal.
    let p = LatLon::new(0.0, 179.0).unwrap();
    let c = cell_at(p, res6());
    assert_eq!(neighbors(c).len(), 6);
    assert_eq!(grid_disk(c, 2).len(), 19);
}

#[test]
fn disks_at_the_poles_and_the_seam_are_whole_from_resolution_two() {
    // At the pole rows and the antimeridian column a radius-4 disk keeps
    // all 61 cells at the resolutions an inventory is built at (the
    // pipeline's 6, the coarse 2 and 3); only at resolution 0, where the
    // lattice is a few cells across, does it run off the indexed world.
    let disk_len = |lat: f64, lon: f64, res: u8| {
        let p = LatLon::new(lat, lon).unwrap();
        grid_disk(cell_at(p, Resolution::new(res).unwrap()), 4).len()
    };
    let edges = [
        (89.99, 45.0),
        (-89.99, 45.0),
        (12.3, 179.99),
        (12.3, -179.99),
    ];
    for (lat, lon) in edges {
        for res in [2, 3, 6] {
            assert_eq!(
                disk_len(lat, lon, res),
                61,
                "({lat}, {lon}) at resolution {res}"
            );
        }
        let coarsest = disk_len(lat, lon, 0);
        assert!(
            coarsest < 61,
            "({lat}, {lon}): {coarsest} cells at resolution 0"
        );
        // Adjacency stays symmetric there.
        let c = cell_at(LatLon::new(lat, lon).unwrap(), res6());
        let ns = neighbors(c);
        assert_eq!(ns.len(), 6);
        for n in &ns {
            assert!(neighbors(*n).contains(&c), "symmetry at ({lat}, {lon})");
        }
    }
}

#[test]
fn every_longitude_column_is_covered() {
    // Sweep the globe: no longitude produces an indexing failure and
    // adjacent sample points stay in nearby cells (except at the seam).
    let res = Resolution::new(4).unwrap();
    let mut prev: Option<CellIndex> = None;
    for i in 0..=720 {
        let lon = -180.0 + i as f64 * 0.5 - 1e-9;
        let p = LatLon::new(12.3, lon.clamp(-180.0, 179.999_999)).unwrap();
        let c = cell_at(p, res);
        if let Some(pc) = prev {
            if lon > -179.0 {
                let d = pol_hexgrid::grid_distance(pc, c).unwrap();
                assert!(d <= 2, "jump of {d} cells at lon {lon}");
            }
        }
        prev = Some(c);
    }
}

#[test]
fn full_sphere_sample_unique_centers() {
    // Cell centres are unique and indexable across a coarse global sweep.
    let res = Resolution::new(3).unwrap();
    let mut seen = std::collections::HashSet::new();
    let mut cells = std::collections::HashSet::new();
    for lat_i in -8..=8 {
        for lon_i in -17..=17 {
            let p = LatLon::new(lat_i as f64 * 10.0, lon_i as f64 * 10.0).unwrap();
            let c = cell_at(p, res);
            cells.insert(c);
            let center = cell_center(c);
            let key = ((center.lat() * 1e7) as i64, (center.lon() * 1e7) as i64);
            if !cells.contains(&c) {
                assert!(seen.insert(key), "two cells share a centre");
            }
            seen.insert(key);
        }
    }
    assert!(
        cells.len() > 200,
        "coarse sweep found {} cells",
        cells.len()
    );
}
