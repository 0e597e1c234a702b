//! Lambert cylindrical equal-area projection.
//!
//! The hexagonal grid (`pol-hexgrid`) lays its lattice over this plane.
//! The projection maps the sphere to the rectangle
//! `[-WORLD_WIDTH/2, WORLD_WIDTH/2) × [-WORLD_HEIGHT/2, WORLD_HEIGHT/2]`
//! with `X = R·λ` and `Y = R·sin φ`, which is *exactly* area preserving:
//! a region of `a` km² on the sphere maps to `a` km² on the plane. Equal
//! planar hexagons therefore cover equal spherical areas — the property
//! §3.2.1 of the paper demands from the grid system ("each cell must cover
//! approximately the same area at a given resolution").

use crate::latlon::LatLon;
use crate::sphere::EARTH_RADIUS_KM;

/// Width of the projected world rectangle in km (`2πR` ≈ 40 030 km).
pub const WORLD_WIDTH_KM: f64 = 2.0 * std::f64::consts::PI * EARTH_RADIUS_KM;

/// Height of the projected world rectangle in km (`2R` ≈ 12 742 km).
pub const WORLD_HEIGHT_KM: f64 = 2.0 * EARTH_RADIUS_KM;

/// A point on the equal-area projection plane, in kilometres.
///
/// `x ∈ [-WORLD_WIDTH/2, WORLD_WIDTH/2)` (longitude axis, wraps),
/// `y ∈ [-WORLD_HEIGHT/2, WORLD_HEIGHT/2]` (sin-latitude axis).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorldXY {
    /// Longitude-axis coordinate, km (wraps at the antimeridian).
    pub x: f64,
    /// Sin-latitude-axis coordinate, km.
    pub y: f64,
}

/// Projects a spherical coordinate to the equal-area plane.
#[inline]
pub fn to_xy(p: LatLon) -> WorldXY {
    WorldXY {
        x: EARTH_RADIUS_KM * p.lon_rad(),
        y: EARTH_RADIUS_KM * p.lat_rad().sin(),
    }
}

/// Inverse projection. `x` is wrapped into the world rectangle; `y` is
/// clamped to the poles.
#[inline]
pub fn from_xy(p: WorldXY) -> LatLon {
    let half_w = WORLD_WIDTH_KM / 2.0;
    let x = (p.x + half_w).rem_euclid(WORLD_WIDTH_KM) - half_w;
    let sin_lat = (p.y / EARTH_RADIUS_KM).clamp(-1.0, 1.0);
    LatLon::wrapped(
        sin_lat.asin().to_degrees(),
        (x / EARTH_RADIUS_KM).to_degrees(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sphere::EARTH_SURFACE_KM2;

    #[test]
    fn rectangle_area_equals_sphere_area() {
        assert!((WORLD_WIDTH_KM * WORLD_HEIGHT_KM - EARTH_SURFACE_KM2).abs() < 1e-6);
    }

    #[test]
    fn round_trip() {
        for (lat, lon) in [
            (0.0, 0.0),
            (51.5, -0.12),
            (-33.86, 151.2),
            (89.9, 10.0),
            (-89.9, -179.9),
            (1.26, 103.84),
        ] {
            let p = LatLon::new(lat, lon).unwrap();
            let q = from_xy(to_xy(p));
            assert!((q.lat() - lat).abs() < 1e-9, "{lat},{lon} -> {q:?}");
            assert!((q.lon() - lon).abs() < 1e-9, "{lat},{lon} -> {q:?}");
        }
    }

    #[test]
    fn equator_scale_is_true() {
        // 1 degree of longitude at the equator ≈ 111.19 km in x.
        let a = to_xy(LatLon::new(0.0, 0.0).unwrap());
        let b = to_xy(LatLon::new(0.0, 1.0).unwrap());
        assert!((b.x - a.x - 111.19).abs() < 0.1);
    }

    #[test]
    fn poles_map_to_rect_edge() {
        let n = to_xy(LatLon::new(90.0, 0.0).unwrap());
        assert!((n.y - WORLD_HEIGHT_KM / 2.0).abs() < 1e-9);
        let s = to_xy(LatLon::new(-90.0, 0.0).unwrap());
        assert!((s.y + WORLD_HEIGHT_KM / 2.0).abs() < 1e-9);
    }

    #[test]
    fn from_xy_wraps_x_periodically() {
        // `from_xy` wraps x into [-WORLD_WIDTH/2, WORLD_WIDTH/2) first.
        let lon_at = |x: f64| from_xy(WorldXY { x, y: 0.0 }).lon();
        let x = 1234.5;
        assert!((lon_at(x + WORLD_WIDTH_KM) - lon_at(x)).abs() < 1e-9);
        assert!((lon_at(x - 2.0 * WORLD_WIDTH_KM) - lon_at(x)).abs() < 1e-9);
        assert!(lon_at(WORLD_WIDTH_KM / 2.0) < 0.0); // right edge wraps to left
    }
}
