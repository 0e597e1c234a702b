//! # pol-core — the Patterns-of-Life global inventory
//!
//! The paper's primary contribution: a multi-step methodology transforming
//! raw AIS positional reports into a compact global inventory of per-cell
//! statistical summaries, keyed by grouping sets (Table 2), holding the
//! Table-3 feature statistics, and queryable for the §4 use cases.
//!
//! Pipeline stages (Figures 2 & 3 of the paper):
//!
//! 1. [`clean`] — §3.3.1: protocol-range validation, per-vessel
//!    partitioning, timestamp ordering and de-duplication, infeasible-
//!    transition rejection (> 50 kn implied speed), commercial-fleet
//!    enrichment/filter via the static inventory.
//! 2. [`trips`] — §3.3.2: port geofencing on the hexagonal grid, trip
//!    segmentation between consecutive port stops, ETO/ATA enrichment.
//! 3. [`project`] — §3.3.3: assignment of every record to its grid cell,
//!    plus per-trip next-cell transition extraction.
//! 4. [`features`] — §3.3.4: the grouping-set map phase and the mergeable
//!    per-key statistics ([`features::CellStats`]) reduce phase.
//! 5. [`inventory`] — the queryable global inventory with its coverage /
//!    compression accounting (Table 4) and [`codec`] for persistence.
//!
//! [`fused::run_fused`] runs all stages over the `pol-engine` thread pool
//! as one morsel-driven pass per vessel partition and reports per-stage
//! record counts — the machine-checkable analogue of the paper's Figure 2
//! walkthrough. [`reference::build`] is the same methodology as a plain
//! single-threaded loop: the oracle the fused executor's bytes are tested
//! against.

#![deny(missing_docs)]

pub mod adaptive;
pub mod clean;
pub mod codec;
pub mod config;
pub mod error;
pub mod features;
pub mod fused;
pub mod inventory;
#[cfg(test)]
mod pipeline;
pub mod project;
pub mod records;
pub mod reference;
pub mod trips;

pub use adaptive::{AdaptiveConfig, AdaptiveInventory};
pub use config::PipelineConfig;
pub use error::PipelineError;
pub use features::{CellStats, GroupKey, GroupingSet};
pub use fused::{run_fused, PipelineOutput, StageCounts};
pub use inventory::{CoverageReport, Inventory, InventoryQuery, Summary};
pub use records::{CellPoint, PortSite, TripPoint};
