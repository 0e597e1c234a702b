//! Spherical trigonometry: distances, bearings, great-circle paths.

use crate::latlon::LatLon;

/// Authalic Earth radius in kilometres (sphere of equal surface area).
pub const EARTH_RADIUS_KM: f64 = 6371.0072;

/// Total Earth surface area in km² (4πR²). Denominator of the grid
/// "utilization" metric in Table 4 of the paper.
pub const EARTH_SURFACE_KM2: f64 = 4.0 * std::f64::consts::PI * EARTH_RADIUS_KM * EARTH_RADIUS_KM;

/// Great-circle (haversine) distance between two points, in kilometres.
///
/// This is the distance the paper's cleaning step (§3.3.1) uses to reject
/// infeasible transitions (> 50 kn implied speed).
pub fn haversine_km(a: LatLon, b: LatLon) -> f64 {
    let (la, lb) = (a.lat_rad(), b.lat_rad());
    let dlat = lb - la;
    let dlon = b.lon_rad() - a.lon_rad();
    let s = (dlat / 2.0).sin().powi(2) + la.cos() * lb.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_KM * s.sqrt().min(1.0).asin()
}

/// Initial great-circle bearing from `a` to `b`, in degrees `[0, 360)`.
/// Returns 0 for coincident points.
pub fn initial_bearing_deg(a: LatLon, b: LatLon) -> f64 {
    let (la, lb) = (a.lat_rad(), b.lat_rad());
    let dlon = b.lon_rad() - a.lon_rad();
    let y = dlon.sin() * lb.cos();
    let x = la.cos() * lb.sin() - la.sin() * lb.cos() * dlon.cos();
    if x == 0.0 && y == 0.0 {
        return 0.0;
    }
    (y.atan2(x).to_degrees() + 360.0) % 360.0
}

/// Destination point after travelling `distance_km` from `start` on the
/// great circle with the given initial bearing (degrees clockwise from north).
pub fn destination(start: LatLon, bearing_deg: f64, distance_km: f64) -> LatLon {
    let delta = distance_km / EARTH_RADIUS_KM;
    let theta = bearing_deg.to_radians();
    let la = start.lat_rad();
    let lat2 = (la.sin() * delta.cos() + la.cos() * delta.sin() * theta.cos()).asin();
    let lon2 = start.lon_rad()
        + (theta.sin() * delta.sin() * la.cos()).atan2(delta.cos() - la.sin() * lat2.sin());
    LatLon::wrapped(lat2.to_degrees(), lon2.to_degrees())
}

/// Point at fraction `f ∈ [0, 1]` along the great circle from `a` to `b`
/// (spherical linear interpolation). `f = 0` gives `a`, `f = 1` gives `b`.
///
/// The fleet simulator advances vessels with this, so simulated tracks are
/// true great-circle legs rather than rhumb lines.
pub fn interpolate(a: LatLon, b: LatLon, f: f64) -> LatLon {
    let d = haversine_km(a, b) / EARTH_RADIUS_KM; // angular distance
    if d < 1e-12 {
        return a;
    }
    let sind = d.sin();
    let ca = ((1.0 - f) * d).sin() / sind;
    let cb = (f * d).sin() / sind;
    let (la, lb) = (a.lat_rad(), b.lat_rad());
    let (oa, ob) = (a.lon_rad(), b.lon_rad());
    let x = ca * la.cos() * oa.cos() + cb * lb.cos() * ob.cos();
    let y = ca * la.cos() * oa.sin() + cb * lb.cos() * ob.sin();
    let z = ca * la.sin() + cb * lb.sin();
    let lat = z.atan2((x * x + y * y).sqrt());
    let lon = y.atan2(x);
    LatLon::wrapped(lat.to_degrees(), lon.to_degrees())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ll(lat: f64, lon: f64) -> LatLon {
        LatLon::new(lat, lon).unwrap()
    }

    #[test]
    fn haversine_known_distances() {
        // Dover (51.1279, 1.3134) to Calais (50.9513, 1.8587): ~42 km
        let d = haversine_km(ll(51.1279, 1.3134), ll(50.9513, 1.8587));
        assert!((d - 43.0).abs() < 3.0, "got {d}");
        // Rotterdam to Singapore ~ 10_500 km great-circle
        let d = haversine_km(ll(51.95, 4.14), ll(1.26, 103.84));
        assert!((d - 10_500.0).abs() < 300.0, "got {d}");
    }

    #[test]
    fn haversine_zero_and_symmetry() {
        let a = ll(10.0, 20.0);
        let b = ll(-33.0, 151.0);
        assert_eq!(haversine_km(a, a), 0.0);
        assert!((haversine_km(a, b) - haversine_km(b, a)).abs() < 1e-9);
    }

    #[test]
    fn haversine_antipodal_is_half_circumference() {
        let d = haversine_km(ll(0.0, 0.0), ll(0.0, 180.0));
        let half = std::f64::consts::PI * EARTH_RADIUS_KM;
        assert!((d - half).abs() < 1.0, "got {d} want {half}");
    }

    #[test]
    fn bearing_cardinal_directions() {
        let o = ll(0.0, 0.0);
        assert!((initial_bearing_deg(o, ll(1.0, 0.0)) - 0.0).abs() < 1e-6);
        assert!((initial_bearing_deg(o, ll(0.0, 1.0)) - 90.0).abs() < 1e-6);
        assert!((initial_bearing_deg(o, ll(-1.0, 0.0)) - 180.0).abs() < 1e-6);
        assert!((initial_bearing_deg(o, ll(0.0, -1.0)) - 270.0).abs() < 1e-6);
    }

    #[test]
    fn destination_round_trip() {
        let start = ll(48.0, -5.0);
        for bearing in [0.0, 37.0, 123.0, 251.0, 359.0] {
            let end = destination(start, bearing, 500.0);
            let d = haversine_km(start, end);
            assert!((d - 500.0).abs() < 0.5, "bearing {bearing}: {d}");
            let back = initial_bearing_deg(start, end);
            assert!(
                (back - bearing).abs() < 0.5 || (back - bearing).abs() > 359.5,
                "bearing {bearing} -> {back}"
            );
        }
    }

    #[test]
    fn interpolate_endpoints_and_midpoint() {
        let a = ll(51.95, 4.14);
        let b = ll(1.26, 103.84);
        let p0 = interpolate(a, b, 0.0);
        let p1 = interpolate(a, b, 1.0);
        assert!(haversine_km(a, p0) < 0.01);
        assert!(haversine_km(b, p1) < 0.01);
        let mid = interpolate(a, b, 0.5);
        let d_am = haversine_km(a, mid);
        let d_mb = haversine_km(mid, b);
        assert!((d_am - d_mb).abs() < 0.5, "{d_am} vs {d_mb}");
    }

    #[test]
    fn interpolate_crosses_antimeridian_cleanly() {
        // Yokohama -> Los Angeles crosses 180°.
        let a = ll(35.45, 139.65);
        let b = ll(33.74, -118.26);
        let total = haversine_km(a, b);
        let mut prev = a;
        let mut acc = 0.0;
        for i in 1..=20 {
            let p = interpolate(a, b, i as f64 / 20.0);
            acc += haversine_km(prev, p);
            prev = p;
        }
        assert!(
            (acc - total).abs() < 1.0,
            "piecewise {acc} vs direct {total}"
        );
    }

    #[test]
    fn earth_surface_matches_known_value() {
        // ~510 million km²
        assert!((EARTH_SURFACE_KM2 / 1e6 - 510.0).abs() < 1.0);
    }
}
