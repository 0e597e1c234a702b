//! Planar polygon operations used for port geofencing (§3.3.2 of the paper).
//!
//! Port areas are small (a few km across), so the usual flat-earth
//! approximation in (lon, lat) degrees is accurate enough for the
//! point-in-polygon test — with the caveat that polygons must not straddle
//! the antimeridian (none of the embedded ports do).

use crate::latlon::LatLon;

/// A simple (non-self-intersecting) polygon in geographic coordinates.
#[derive(Clone, Debug)]
pub struct Polygon {
    vertices: Vec<LatLon>,
}

impl Polygon {
    /// Builds a polygon from at least three vertices (implicitly closed).
    pub fn new(vertices: Vec<LatLon>) -> Option<Self> {
        if vertices.len() < 3 {
            return None;
        }
        Some(Self { vertices })
    }

    /// Polygon vertices in order.
    pub fn vertices(&self) -> &[LatLon] {
        &self.vertices
    }

    /// Even-odd (ray casting) point-in-polygon test in (lon, lat) space.
    /// Boundary points may land on either side; geofences are tolerant of
    /// that ambiguity by construction.
    pub fn contains(&self, p: LatLon) -> bool {
        let (px, py) = (p.lon(), p.lat());
        let mut inside = false;
        let n = self.vertices.len();
        let mut j = n - 1;
        for i in 0..n {
            let (xi, yi) = (self.vertices[i].lon(), self.vertices[i].lat());
            let (xj, yj) = (self.vertices[j].lon(), self.vertices[j].lat());
            if ((yi > py) != (yj > py)) && (px < (xj - xi) * (py - yi) / (yj - yi) + xi) {
                inside = !inside;
            }
            j = i;
        }
        inside
    }

    /// Axis-aligned bounding box of the polygon as
    /// `(min_lat, min_lon, max_lat, max_lon)`.
    pub fn bounds(&self) -> (f64, f64, f64, f64) {
        let mut min_lat = f64::INFINITY;
        let mut min_lon = f64::INFINITY;
        let mut max_lat = f64::NEG_INFINITY;
        let mut max_lon = f64::NEG_INFINITY;
        for v in &self.vertices {
            min_lat = min_lat.min(v.lat());
            max_lat = max_lat.max(v.lat());
            min_lon = min_lon.min(v.lon());
            max_lon = max_lon.max(v.lon());
        }
        (min_lat, min_lon, max_lat, max_lon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ll(lat: f64, lon: f64) -> LatLon {
        LatLon::new(lat, lon).unwrap()
    }

    /// A regular `n`-gon of radius `radius_km` around `center`.
    fn regular(center: LatLon, radius_km: f64, n: u32) -> Polygon {
        let step = 360.0 / f64::from(n);
        let ring = (0..n)
            .map(|i| crate::sphere::destination(center, step * f64::from(i), radius_km))
            .collect();
        Polygon::new(ring).unwrap()
    }

    #[test]
    fn new_requires_three_vertices() {
        assert!(Polygon::new(vec![ll(0.0, 0.0), ll(1.0, 1.0)]).is_none());
        assert!(Polygon::new(vec![ll(0.0, 0.0), ll(1.0, 1.0), ll(0.0, 1.0)]).is_some());
    }

    #[test]
    fn square_contains() {
        let p = Polygon::new(vec![ll(0.0, 0.0), ll(0.0, 2.0), ll(2.0, 2.0), ll(2.0, 0.0)]).unwrap();
        assert!(p.contains(ll(1.0, 1.0)));
        assert!(!p.contains(ll(3.0, 1.0)));
        assert!(!p.contains(ll(-0.5, 1.0)));
        assert!(!p.contains(ll(1.0, 2.5)));
    }

    #[test]
    fn concave_polygon() {
        // A "U" shape: the notch must be outside.
        let p = Polygon::new(vec![
            ll(0.0, 0.0),
            ll(3.0, 0.0),
            ll(3.0, 3.0),
            ll(2.0, 3.0),
            ll(2.0, 1.0),
            ll(1.0, 1.0),
            ll(1.0, 3.0),
            ll(0.0, 3.0),
        ])
        .unwrap();
        assert!(p.contains(ll(1.5, 0.5)));
        assert!(!p.contains(ll(1.5, 2.0)), "notch must be outside");
    }

    #[test]
    fn regular_polygon_contains_center_not_far_points() {
        let c = ll(51.95, 4.14); // Rotterdam
        let p = regular(c, 10.0, 12);
        assert!(p.contains(c));
        assert!(p.contains(ll(51.99, 4.14))); // ~4.5 km north
        assert!(!p.contains(ll(52.2, 4.14))); // ~28 km north
    }

    #[test]
    fn bounds_cover_vertices() {
        let p = regular(ll(0.0, 0.0), 50.0, 8);
        let (min_lat, min_lon, max_lat, max_lon) = p.bounds();
        for v in p.vertices() {
            assert!(v.lat() >= min_lat && v.lat() <= max_lat);
            assert!(v.lon() >= min_lon && v.lon() <= max_lon);
        }
    }
}
