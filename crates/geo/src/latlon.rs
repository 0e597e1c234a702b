//! Validated spherical coordinates.

use std::fmt;

/// A point on the sphere, in degrees.
///
/// Latitude is clamped-checked to `[-90, 90]`; longitude is normalized to
/// `[-180, 180)`. AIS reports out-of-range coordinates routinely (the value
/// `181.0` is the protocol's "not available" marker for longitude, `91.0` for
/// latitude), so constructors come in a checked ([`LatLon::new`]) and an
/// unchecked-normalizing ([`LatLon::wrapped`]) flavour.
#[derive(Clone, Copy, PartialEq)]
pub struct LatLon {
    lat: f64,
    lon: f64,
}

impl LatLon {
    /// Creates a coordinate, returning `None` when out of range or non-finite.
    #[inline]
    pub fn new(lat: f64, lon: f64) -> Option<Self> {
        if !lat.is_finite() || !lon.is_finite() {
            return None;
        }
        if !(-90.0..=90.0).contains(&lat) {
            return None;
        }
        if !(-180.0..=180.0).contains(&lon) {
            return None;
        }
        Some(Self {
            lat,
            lon: normalize_lon(lon),
        })
    }

    /// Creates a coordinate, wrapping longitude into `[-180, 180)` and
    /// clamping latitude into `[-90, 90]`. Inputs must be finite.
    ///
    /// Use this for *trusted* synthetic coordinates (e.g. a great-circle
    /// interpolation that may step over the antimeridian), not for raw AIS
    /// fields — those should go through [`LatLon::new`] so that protocol
    /// "not available" markers are rejected.
    pub fn wrapped(lat: f64, lon: f64) -> Self {
        assert!(lat.is_finite() && lon.is_finite(), "non-finite coordinate");
        Self {
            lat: lat.clamp(-90.0, 90.0),
            lon: normalize_lon(lon),
        }
    }

    /// Latitude in degrees, in `[-90, 90]`.
    #[inline]
    pub fn lat(&self) -> f64 {
        self.lat
    }

    /// Longitude in degrees, in `[-180, 180)`.
    #[inline]
    pub fn lon(&self) -> f64 {
        self.lon
    }

    /// Latitude in radians.
    #[inline]
    pub fn lat_rad(&self) -> f64 {
        self.lat.to_radians()
    }

    /// Longitude in radians.
    #[inline]
    pub fn lon_rad(&self) -> f64 {
        self.lon.to_radians()
    }
}

impl fmt::Debug for LatLon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.5}, {:.5})", self.lat, self.lon)
    }
}

impl fmt::Display for LatLon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.5},{:.5}", self.lat, self.lon)
    }
}

/// Normalizes a longitude in degrees to `[-180, 180)`.
#[inline]
pub fn normalize_lon(lon: f64) -> f64 {
    let shifted = lon + 180.0;
    // `rem_euclid` (an `fmod`) returns a value in `[0, 360)` as it is, so
    // an in-range longitude skips it and keeps its bits.
    let wrapped = if (0.0..360.0).contains(&shifted) {
        shifted
    } else {
        rem_360(shifted)
    };
    let mut l = wrapped - 180.0;
    // rem_euclid can return exactly 360.0 - epsilon artifacts; pin the edge.
    if l >= 180.0 {
        l -= 360.0;
    }
    l
}

/// `x.rem_euclid(360.0)`, out of line: the call stays off the path of
/// the longitudes that are already in range.
#[cold]
#[inline(never)]
fn rem_360(x: f64) -> f64 {
    x.rem_euclid(360.0)
}

/// Smallest absolute difference between two longitudes, in degrees (≤ 180).
pub fn lon_delta(a: f64, b: f64) -> f64 {
    let d = (a - b).abs() % 360.0;
    if d > 180.0 {
        360.0 - d
    } else {
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accepts_valid() {
        let p = LatLon::new(51.0, 1.5).unwrap();
        assert_eq!(p.lat(), 51.0);
        assert_eq!(p.lon(), 1.5);
    }

    #[test]
    fn new_rejects_ais_unavailable_markers() {
        assert!(LatLon::new(91.0, 0.0).is_none());
        assert!(LatLon::new(0.0, 181.0).is_none());
        assert!(LatLon::new(f64::NAN, 0.0).is_none());
        assert!(LatLon::new(0.0, f64::INFINITY).is_none());
    }

    #[test]
    fn new_accepts_boundaries() {
        assert!(LatLon::new(90.0, 0.0).is_some());
        assert!(LatLon::new(-90.0, 0.0).is_some());
        assert!(LatLon::new(0.0, -180.0).is_some());
        // +180 normalizes to -180
        let p = LatLon::new(0.0, 180.0).unwrap();
        assert_eq!(p.lon(), -180.0);
    }

    #[test]
    fn wrapped_wraps_longitude() {
        let p = LatLon::wrapped(10.0, 190.0);
        assert!((p.lon() - (-170.0)).abs() < 1e-12);
        let q = LatLon::wrapped(10.0, -190.0);
        assert!((q.lon() - 170.0).abs() < 1e-12);
        let r = LatLon::wrapped(10.0, 540.0);
        assert!((r.lon() - 180.0).abs() < 1e-12 || (r.lon() - (-180.0)).abs() < 1e-12);
    }

    #[test]
    fn wrapped_clamps_latitude() {
        assert_eq!(LatLon::wrapped(95.0, 0.0).lat(), 90.0);
        assert_eq!(LatLon::wrapped(-95.0, 0.0).lat(), -90.0);
    }

    #[test]
    fn normalize_lon_range() {
        for l in [
            -720.0, -360.5, -180.0, -0.1, 0.0, 179.9, 180.0, 359.0, 720.3,
        ] {
            let n = normalize_lon(l);
            assert!((-180.0..180.0).contains(&n), "{l} -> {n}");
        }
    }

    #[test]
    fn lon_delta_wraps() {
        assert!((lon_delta(179.0, -179.0) - 2.0).abs() < 1e-12);
        assert!((lon_delta(10.0, 350.0) - 20.0).abs() < 1e-12);
        assert_eq!(lon_delta(42.0, 42.0), 0.0);
    }
}
