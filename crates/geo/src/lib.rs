//! Geodesy primitives for the Patterns-of-Life maritime inventory.
//!
//! Everything downstream of raw AIS coordinates goes through this crate:
//!
//! * [`LatLon`] — validated WGS-ish spherical coordinates in degrees,
//! * [`sphere`] — haversine distance, bearings, great-circle interpolation,
//! * [`project`] — the Lambert cylindrical *equal-area* projection used by the
//!   hexagonal grid (`pol-hexgrid`),
//! * [`bbox`] — geographic bounding boxes for regional filters (e.g. the
//!   Baltic-sea views of the paper's Figure 4),
//! * [`units`] — knots / km/h / nautical-mile conversions.
//!
//! The Earth is modelled as a sphere of authalic radius
//! [`EARTH_RADIUS_KM`]; at the accuracy AIS analytics needs (cells of
//! kilometres), the spherical model is standard practice.

#![deny(missing_docs)]

pub mod bbox;
pub mod latlon;
pub mod project;
pub mod sphere;
pub mod units;

pub use bbox::BBox;
pub use latlon::LatLon;
pub use project::{from_xy, to_xy, WorldXY, WORLD_HEIGHT_KM, WORLD_WIDTH_KM};
pub use sphere::{
    destination, haversine_km, initial_bearing_deg, interpolate, EARTH_RADIUS_KM, EARTH_SURFACE_KM2,
};
