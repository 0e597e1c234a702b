//! # Patterns of Life — a global inventory for maritime mobility patterns
//!
//! Facade crate for the workspace reproducing Spiliopoulos et al.,
//! *"Patterns of Life: Global Inventory for maritime mobility patterns"*
//! (EDBT 2024). Re-exports every subsystem under a short name:
//!
//! * [`geo`] — geodesy primitives (distances, bearings, equal-area projection)
//! * [`hexgrid`] — hexagonal hierarchical geospatial index (H3 substitute)
//! * [`sketch`] — mergeable streaming statistics (Table 3's statistics)
//! * [`ais`] — AIS data model and NMEA AIVDM wire codec
//! * [`engine`] — in-process data-parallel MapReduce engine (Spark substitute)
//! * [`fleetsim`] — deterministic synthetic global AIS dataset generator
//! * [`core`] — the paper's pipeline: cleaning, trip semantics, grid
//!   projection, feature extraction, and the global inventory
//! * [`apps`] — §4 use cases: ETA, destination prediction, route forecasting,
//!   anomaly detection
//! * [`baselines`] — density-clustering baselines (DBSCAN, OPTICS)
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

pub use pol_ais as ais;
pub use pol_apps as apps;
pub use pol_baselines as baselines;
pub use pol_core as core;
pub use pol_engine as engine;
pub use pol_fleetsim as fleetsim;
pub use pol_geo as geo;
pub use pol_hexgrid as hexgrid;
pub use pol_sketch as sketch;
