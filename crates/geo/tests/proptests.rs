//! Property tests for the geodesy substrate.

use pol_geo::latlon::{lon_delta, normalize_lon};
use pol_geo::{
    destination, from_xy, haversine_km, initial_bearing_deg, interpolate, to_xy, LatLon,
};
use proptest::prelude::*;

fn arb_latlon() -> impl Strategy<Value = LatLon> {
    // Stay a hair inside the poles: bearings degenerate exactly at ±90.
    (-89.9f64..89.9, -180.0f64..180.0).prop_map(|(lat, lon)| LatLon::new(lat, lon).unwrap())
}

proptest! {
    #[test]
    fn haversine_nonnegative_symmetric(a in arb_latlon(), b in arb_latlon()) {
        let d1 = haversine_km(a, b);
        let d2 = haversine_km(b, a);
        prop_assert!(d1 >= 0.0);
        prop_assert!((d1 - d2).abs() < 1e-6);
        // Never more than half the circumference.
        prop_assert!(d1 <= std::f64::consts::PI * pol_geo::EARTH_RADIUS_KM + 1e-6);
    }

    #[test]
    fn haversine_triangle_inequality(a in arb_latlon(), b in arb_latlon(), c in arb_latlon()) {
        let ab = haversine_km(a, b);
        let bc = haversine_km(b, c);
        let ac = haversine_km(a, c);
        prop_assert!(ac <= ab + bc + 1e-6, "{ac} > {ab} + {bc}");
    }

    #[test]
    fn projection_round_trip(p in arb_latlon()) {
        let q = from_xy(to_xy(p));
        prop_assert!((p.lat() - q.lat()).abs() < 1e-9);
        prop_assert!(lon_delta(p.lon(), q.lon()) < 1e-9);
    }

    #[test]
    fn destination_distance_consistent(
        p in arb_latlon(),
        bearing in 0.0f64..360.0,
        dist in 0.1f64..5000.0,
    ) {
        let q = destination(p, bearing, dist);
        let measured = haversine_km(p, q);
        prop_assert!((measured - dist).abs() < dist * 1e-3 + 0.01,
            "asked {dist}, got {measured}");
    }

    #[test]
    fn interpolation_monotone_distance(a in arb_latlon(), b in arb_latlon()) {
        let total = haversine_km(a, b);
        prop_assume!(total > 1.0);
        let mut prev = 0.0;
        for i in 0..=10 {
            let p = interpolate(a, b, i as f64 / 10.0);
            let d = haversine_km(a, p);
            prop_assert!(d >= prev - 1e-3, "distance from start must grow: {d} < {prev}");
            prev = d;
        }
        prop_assert!((prev - total).abs() < total * 1e-6 + 1e-3);
    }

    #[test]
    fn bearing_in_range(a in arb_latlon(), b in arb_latlon()) {
        let br = initial_bearing_deg(a, b);
        prop_assert!((0.0..360.0).contains(&br));
    }

    #[test]
    fn normalize_lon_idempotent(l in -1000.0f64..1000.0) {
        let n = normalize_lon(l);
        prop_assert!((-180.0..180.0).contains(&n));
        prop_assert!((normalize_lon(n) - n).abs() < 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn normalize_lon_is_the_rem_euclid_form_to_the_bit(
        hi in 0u64..=u64::from(u32::MAX),
        lo in 0u64..=u64::from(u32::MAX),
        near in -1_000.0f64..1_000.0,
    ) {
        // Arbitrary bit patterns (NaNs, infinities, subnormals, huge
        // magnitudes) and plausible longitudes, the in-range ones among them.
        for lon in [f64::from_bits((hi << 32) | lo), near, near / 5.0] {
            let mut l = (lon + 180.0).rem_euclid(360.0) - 180.0;
            if l >= 180.0 {
                l -= 360.0;
            }
            prop_assert_eq!(normalize_lon(lon).to_bits(), l.to_bits(), "{}", lon);
        }
    }
}
