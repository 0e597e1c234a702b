//! # pol-apps — downstream use cases over the global inventory
//!
//! §4 of the paper demonstrates the inventory's value on three maritime
//! problems; this crate implements all of them, plus the normalcy-model
//! anomaly detection the introduction motivates (COVID-19, Suez):
//!
//! * [`eta`] — §4.1.2: estimated time of arrival from the per-cell ATA/ETO
//!   statistics, against a naive great-circle baseline,
//! * [`progress`] — §4.1.2's other half: voyage-progress and departure-time
//!   estimation from the ETO statistics,
//! * [`destination`] — §4.1.3: streaming destination prediction by
//!   accumulating per-cell Top-N destination votes as reports arrive,
//! * [`route`] — §4.1.3: route forecasting over the transition graph of a
//!   `(origin, destination, vessel-type)` key with A* search,
//! * [`anomaly`] — the "model of normalcy" (§2): per-cell z-scores for
//!   speed, circular deviation for course, and off-lane detection.
//!
//! Every estimator but the route forecaster is generic over
//! [`InventoryQuery`](pol_core::InventoryQuery), so it answers from the
//! heap [`Inventory`](pol_core::Inventory) or from `pol-serve`'s mapped
//! store alike, and each reads a cell through
//! [`most_specific`](pol_core::InventoryQuery::most_specific): the route
//! entry, else the vessel-type entry, else all traffic.

#![deny(missing_docs)]

pub mod anomaly;
pub mod destination;
pub mod eta;
pub mod progress;
pub mod route;

pub use anomaly::{Anomaly, AnomalyDetector};
pub use destination::DestinationPredictor;
pub use eta::{naive_eta_secs, EtaEstimate, EtaEstimator};
pub use progress::{ProgressEstimate, ProgressEstimator};
pub use route::RouteForecaster;

/// Rings of neighbouring cells the ETA and progress estimators widen to
/// when the vessel's own cell holds nothing they can use.
const MAX_WIDENING: u32 = 2;
