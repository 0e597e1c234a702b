//! Geographic bounding boxes for regional filtering (e.g. the paper's
//! Baltic-sea close-up in Figure 4).

use crate::latlon::LatLon;

/// An axis-aligned geographic bounding box. May not cross the antimeridian.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BBox {
    /// Southern edge, degrees.
    pub min_lat: f64,
    /// Western edge, degrees.
    pub min_lon: f64,
    /// Northern edge, degrees.
    pub max_lat: f64,
    /// Eastern edge, degrees.
    pub max_lon: f64,
}

impl BBox {
    /// Creates a bounding box; returns `None` if the bounds are inverted or
    /// out of range.
    pub fn new(min_lat: f64, min_lon: f64, max_lat: f64, max_lon: f64) -> Option<Self> {
        if min_lat > max_lat || min_lon > max_lon {
            return None;
        }
        if !(-90.0..=90.0).contains(&min_lat)
            || !(-90.0..=90.0).contains(&max_lat)
            || !(-180.0..=180.0).contains(&min_lon)
            || !(-180.0..=180.0).contains(&max_lon)
        {
            return None;
        }
        Some(Self {
            min_lat,
            min_lon,
            max_lat,
            max_lon,
        })
    }

    /// The Baltic-sea region used in the paper's Figure 4 visualisations.
    pub fn baltic() -> Self {
        // lint: allow(no_unwrap) — literal in-range bounds.
        Self::new(53.5, 9.5, 66.0, 30.5).expect("static bounds")
    }

    /// The English Channel region of the paper's Figure 2 walkthrough.
    pub fn english_channel() -> Self {
        // lint: allow(no_unwrap) — literal in-range bounds.
        Self::new(48.5, -5.5, 51.8, 2.5).expect("static bounds")
    }

    /// Whether the point lies inside (inclusive of edges). The four
    /// comparisons are all made, with no branch between them: a scan
    /// asks this of points that fall either way.
    #[inline]
    pub fn contains(&self, p: LatLon) -> bool {
        (p.lat() >= self.min_lat)
            & (p.lat() <= self.max_lat)
            & (p.lon() >= self.min_lon)
            & (p.lon() <= self.max_lon)
    }

    /// Centre of the box.
    pub fn center(&self) -> LatLon {
        LatLon::wrapped(
            (self.min_lat + self.max_lat) / 2.0,
            (self.min_lon + self.max_lon) / 2.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_inverted() {
        assert!(BBox::new(10.0, 0.0, 5.0, 1.0).is_none());
        assert!(BBox::new(0.0, 10.0, 5.0, 1.0).is_none());
        assert!(BBox::new(0.0, 0.0, 100.0, 1.0).is_none());
    }

    #[test]
    fn contains_inclusive() {
        let b = BBox::new(0.0, 0.0, 10.0, 10.0).unwrap();
        assert!(b.contains(LatLon::new(0.0, 0.0).unwrap()));
        assert!(b.contains(LatLon::new(10.0, 10.0).unwrap()));
        assert!(b.contains(LatLon::new(5.0, 5.0).unwrap()));
        assert!(!b.contains(LatLon::new(-0.1, 5.0).unwrap()));
        assert!(!b.contains(LatLon::new(5.0, 10.1).unwrap()));
    }

    #[test]
    fn baltic_contains_known_ports() {
        let b = BBox::baltic();
        assert!(b.contains(LatLon::new(59.44, 24.75).unwrap())); // Tallinn
        assert!(b.contains(LatLon::new(55.68, 12.6).unwrap())); // Copenhagen
        assert!(!b.contains(LatLon::new(51.95, 4.14).unwrap())); // Rotterdam
    }

    #[test]
    fn center_is_midpoint() {
        let b = BBox::new(0.0, 0.0, 10.0, 20.0).unwrap();
        let c = b.center();
        assert_eq!(c.lat(), 5.0);
        assert_eq!(c.lon(), 10.0);
    }
}
