//! # pol-baselines — the density clustering the paper positions against
//!
//! §2 of the paper surveys the dominant approach to AIS pattern mining:
//! density-based clustering (DBSCAN/OPTICS — TREAD, Yan et al.). The
//! authors' own prior work [20] highlights DBSCAN's sensitivity on
//! density-skewed global AIS data — the motivation for the grid-based
//! inventory. `polinv repro sensitivity` measures that sensitivity on the
//! same points the grid summarises, with:
//!
//! * [`dbscan`] — DBSCAN with a uniform-grid neighbour index (the standard
//!   ε-grid acceleration),
//! * [`optics`] — OPTICS reachability ordering with flat-cluster
//!   extraction at any ε′ ≤ ε (the way-point discovery tool of [29]/[18]).

#![deny(missing_docs)]

pub mod dbscan;
pub mod optics;

pub use dbscan::{dbscan, DbscanParams, Label};
pub use optics::{extract_clusters, optics, OpticsParams, OrderedPoint};
