//! Unit conversions for maritime quantities.
//!
//! AIS reports speed over ground in knots; the cleaning step's feasibility
//! bound (§3.3.1 of the paper) is 50 kn; distances internal to the pipeline
//! are kilometres.

/// Kilometres per nautical mile.
pub const KM_PER_NM: f64 = 1.852;

/// Converts knots to kilometres per hour.
#[inline]
pub fn knots_to_kmh(kn: f64) -> f64 {
    kn * KM_PER_NM
}

/// Converts kilometres per hour to knots.
#[inline]
pub fn kmh_to_knots(kmh: f64) -> f64 {
    kmh / KM_PER_NM
}

/// Implied speed in knots for covering `distance_km` in `seconds`.
/// Returns `f64::INFINITY` when `seconds == 0` and the distance is positive
/// (a duplicate-timestamp jump — always infeasible).
pub fn implied_speed_knots(distance_km: f64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return if distance_km > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
    }
    kmh_to_knots(distance_km / (seconds / 3600.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knot_round_trip() {
        for v in [0.0, 1.0, 12.5, 50.0] {
            assert!((kmh_to_knots(knots_to_kmh(v)) - v).abs() < 1e-12);
        }
    }

    #[test]
    fn known_conversion() {
        // 20 kn ≈ 37.04 km/h
        assert!((knots_to_kmh(20.0) - 37.04).abs() < 0.01);
    }

    #[test]
    fn implied_speed() {
        // 18.52 km in 30 minutes = 37.04 km/h = 20 kn
        assert!((implied_speed_knots(18.52, 1800.0) - 20.0).abs() < 1e-9);
        assert_eq!(implied_speed_knots(1.0, 0.0), f64::INFINITY);
        assert_eq!(implied_speed_knots(0.0, 0.0), 0.0);
    }
}
