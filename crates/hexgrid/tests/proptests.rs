//! Property tests for the hexagonal grid: the §5 DESIGN.md invariants.

use pol_geo::{haversine_km, LatLon};
use pol_hexgrid::{
    avg_edge_length_km, cell_at, cell_boundary, cell_center, children, grid_disk, grid_distance,
    neighbors, parent, parent_at, Axial, CellIndex, Resolution,
};
use proptest::prelude::*;
use std::collections::{HashSet, VecDeque};

fn arb_latlon() -> impl Strategy<Value = LatLon> {
    // Shipping latitudes: the equal-area lattice distorts *shape* near the
    // poles (areas stay exact); tight metric assertions hold mid-latitude.
    (-70.0f64..70.0, -180.0f64..180.0).prop_map(|(lat, lon)| LatLon::new(lat, lon).unwrap())
}

fn arb_res() -> impl Strategy<Value = Resolution> {
    (0u8..=9).prop_map(|r| Resolution::new(r).unwrap())
}

/// Disk origins anywhere, in the polar rows, or on the antimeridian
/// seam: the last two are where `CellIndex::from_axial` finds no cell
/// for part of a disk.
fn arb_disk_origin() -> impl Strategy<Value = LatLon> {
    (0u8..3, 0.0f64..1.0, 0.0f64..1.0).prop_map(|(region, a, b)| {
        let (lat, lon) = match region {
            0 => (-90.0 + 180.0 * a, -180.0 + 360.0 * b),
            1 => ((80.0 + 10.0 * a).copysign(b - 0.5), -180.0 + 360.0 * b),
            _ => (-80.0 + 160.0 * a, (178.0 + 2.0 * b).copysign(a - 0.5)),
        };
        LatLon::new(lat, lon).unwrap()
    })
}

/// `grid_disk` as it was before it marked cells in a bitmap: the same
/// BFS over a `HashSet` of the axial coordinates reached. The oracle the
/// bitmap form must match cell for cell, in order.
fn grid_disk_hashset(origin: CellIndex, k: u32) -> Vec<CellIndex> {
    let res = origin.resolution();
    let mut out = Vec::new();
    let mut seen = HashSet::from([origin.axial()]);
    let mut queue = VecDeque::from([(origin.axial(), 0u32)]);
    while let Some((ax, d)) = queue.pop_front() {
        out.extend(CellIndex::from_axial(ax, res));
        if d == k {
            continue;
        }
        for off in Axial::NEIGHBOR_OFFSETS {
            if seen.insert(ax + off) {
                queue.push_back((ax + off, d + 1));
            }
        }
    }
    out
}

#[test]
fn the_disk_origins_reach_cells_from_axial_skips() {
    // The generator's polar and seam regions are not vacuous: at the
    // coarsest resolution a disk there comes out short of the hexagonal
    // number.
    let res = Resolution::new(0).unwrap();
    for (lat, lon) in [(89.9, 0.0), (-89.9, 120.0), (0.0, 179.9), (40.0, -179.9)] {
        let c = cell_at(LatLon::new(lat, lon).unwrap(), res);
        let disk = grid_disk(c, 4);
        assert!(disk.len() < 61, "({lat}, {lon}): {} cells", disk.len());
        assert_eq!(disk, grid_disk_hashset(c, 4));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn encode_decode_round_trip(p in arb_latlon(), res in arb_res()) {
        let c = cell_at(p, res);
        prop_assert_eq!(CellIndex::from_raw(c.raw()), Ok(c));
        let s = c.to_string();
        let back: CellIndex = s.parse().unwrap();
        prop_assert_eq!(back, c);
    }

    #[test]
    fn center_round_trip(p in arb_latlon(), res in arb_res()) {
        let c = cell_at(p, res);
        let c2 = cell_at(cell_center(c), res);
        if c2 != c {
            // The one permitted exception: cells in the antimeridian seam
            // column, whose centre can lie past ±180° and wrap to the other
            // edge of the lattice (documented substitution trade-off).
            let center = cell_center(c);
            let cell_width_deg = pol_hexgrid::avg_edge_length_km(res) * 2.0
                / (111.19 * center.lat_rad().cos().max(0.05));
            prop_assert!(
                180.0 - center.lon().abs() < cell_width_deg,
                "non-seam cell failed round trip: {} -> {} (centre {center:?})",
                c,
                c2
            );
        }
    }

    #[test]
    fn containment_radius(p in arb_latlon(), res in 3u8..=9) {
        let res = Resolution::new(res).unwrap();
        let c = cell_at(p, res);
        let d = haversine_km(cell_center(c), p);
        // Planar distance ≤ circumradius; spherical distance stretches by at
        // most ~1/cos(lat) in the x direction at |lat| ≤ 70° ⇒ factor ≤ 3.
        prop_assert!(d <= avg_edge_length_km(res) * 3.0,
            "{d} km from centre at res {}", res.level());
    }

    #[test]
    fn parent_child_inverse(p in arb_latlon(), res in 1u8..=9) {
        let res = Resolution::new(res).unwrap();
        let c = cell_at(p, res);
        let par = parent(c).expect("res ≥ 1 has a parent");
        prop_assert_eq!(par.resolution().level(), res.level() - 1);
        let kids = children(par).expect("res ≤ 14 has children");
        prop_assert!(kids.contains(&c), "cell must be among its parent's children");
        for k in kids {
            prop_assert_eq!(parent(k), Some(par));
        }
    }

    #[test]
    fn ancestor_chain_consistent(p in arb_latlon()) {
        let c9 = cell_at(p, Resolution::new(9).unwrap());
        // parent_at must agree with iterated parent() at every level.
        let mut cur = c9;
        for level in (0..9u8).rev() {
            cur = parent(cur).unwrap();
            prop_assert_eq!(parent_at(c9, Resolution::new(level).unwrap()), Some(cur));
        }
    }

    #[test]
    fn neighbor_symmetry(p in arb_latlon(), res in 1u8..=8) {
        let res = Resolution::new(res).unwrap();
        let c = cell_at(p, res);
        let ns = neighbors(c);
        prop_assert!(ns.len() == 6, "interior cells have 6 neighbours");
        for n in ns {
            prop_assert!(neighbors(n).contains(&c));
            prop_assert_eq!(grid_distance(c, n), Some(1));
        }
    }

    #[test]
    fn disk_size_and_membership(p in arb_latlon(), k in 0u32..4) {
        let res = Resolution::new(5).unwrap();
        let c = cell_at(p, res);
        let disk = grid_disk(c, k);
        let expect = 1 + 3 * k as usize * (k as usize + 1);
        prop_assert!(disk.len() <= expect);
        // Away from seam/poles it's exactly the hexagonal number.
        if p.lon().abs() < 150.0 && p.lat().abs() < 60.0 {
            prop_assert_eq!(disk.len(), expect);
        }
        for m in &disk {
            prop_assert!(grid_distance(c, *m).unwrap() <= k as u64);
        }
    }

    #[test]
    fn disk_bitmap_matches_the_hashset_bfs(p in arb_disk_origin(), res in arb_res(), k in 0u32..=8) {
        let c = cell_at(p, res);
        prop_assert_eq!(grid_disk(c, k), grid_disk_hashset(c, k));
    }

    #[test]
    fn grid_distance_triangle(a in arb_latlon(), b in arb_latlon(), c in arb_latlon()) {
        let res = Resolution::new(4).unwrap();
        let (ca, cb, cc) = (cell_at(a, res), cell_at(b, res), cell_at(c, res));
        let ab = grid_distance(ca, cb).unwrap();
        let bc = grid_distance(cb, cc).unwrap();
        let ac = grid_distance(ca, cc).unwrap();
        prop_assert!(ac <= ab + bc);
    }

    #[test]
    fn boundary_contains_centerish(p in arb_latlon(), res in 2u8..=8) {
        let res = Resolution::new(res).unwrap();
        let c = cell_at(p, res);
        let b = cell_boundary(c);
        // All six vertices at comparable distance from the centre.
        let center = cell_center(c);
        let ds: Vec<f64> = b.iter().map(|v| haversine_km(center, *v)).collect();
        let lo = ds.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ds.iter().cloned().fold(0.0, f64::max);
        // The equal-area projection stretches N-S vs E-W by 1/cos²(lat).
        let limit = 1.3 / p.lat_rad().cos().powi(2) + 0.3;
        prop_assert!(hi / lo < limit, "degenerate boundary {}..{} at lat {}", lo, hi, p.lat());
    }

    #[test]
    fn same_point_nested_resolutions(p in arb_latlon()) {
        // The res-7 cell of a point descends (by parent_at) to the same
        // res-6 region the point maps to, within one cell of slack (the
        // hierarchy is exact in index space; point assignment of *border*
        // points may differ by one cell, as in H3).
        let c7 = cell_at(p, Resolution::new(7).unwrap());
        let via_parent = parent_at(c7, Resolution::new(6).unwrap()).unwrap();
        let direct = cell_at(p, Resolution::new(6).unwrap());
        prop_assert!(grid_distance(via_parent, direct).unwrap() <= 1);
    }
}
