//! The paper's experiments and the `polinv` CLI's shared plumbing:
//! scenario presets and the fleetsim→pipeline adapter.
//!
//! [`repro`] holds every table, figure and use case of the paper as a
//! checked experiment (`polinv repro <name|all>`; DESIGN.md §4 is the
//! index). They are deterministic given the scenario seed.

#![deny(missing_docs)]

pub mod alloc;
pub mod repro;

use pol_core::records::PortSite;
use pol_core::{PipelineConfig, PipelineError, PipelineOutput};
use pol_engine::Engine;
use pol_fleetsim::emit::EmissionConfig;
use pol_fleetsim::scenario::{Dataset, ScenarioConfig};
use pol_fleetsim::WORLD_PORTS;

/// Seed of the "build" (training) scenario.
pub const TRAIN_SEED: u64 = 42;

/// Seed of held-out evaluation scenarios.
pub const TEST_SEED: u64 = 4242;

/// The standard experiment scenario: laptop-scale but dense enough that
/// consecutive reports land in adjacent cells (compression behaves like
/// the paper's Table 4): ~2.06 M reports, 1:1309 of the paper's 2.7 B.
/// What `polinv repro` runs.
pub fn experiment_scenario(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        n_vessels: 150,
        duration_days: 14,
        emission: EmissionConfig {
            // ~1 min between under-way reports: 6× sparser than the real
            // protocol, dense enough that per-cell record counts (and so
            // Table 4's compression column) behave like the real archive.
            interval_scale: 10.0,
            ..EmissionConfig::default()
        },
        ..ScenarioConfig::default()
    }
}

/// A quick scenario for iterating, and the one `tests/repro.rs` checks
/// every experiment on.
pub fn quick_scenario(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        n_vessels: 40,
        duration_days: 7,
        emission: EmissionConfig {
            interval_scale: 20.0,
            ..EmissionConfig::default()
        },
        ..ScenarioConfig::default()
    }
}

/// Adapts the simulator's port table into pipeline port sites.
pub fn port_sites(radius_km: f64) -> Vec<PortSite> {
    WORLD_PORTS
        .iter()
        .enumerate()
        .map(|(i, p)| PortSite {
            id: i as u16,
            name: p.name.to_string(),
            pos: p.pos(),
            radius_km,
        })
        .collect()
}

/// Runs the pipeline ([`pol_core::run_fused`]) over an already-generated
/// dataset on an explicit engine (so callers control thread count and
/// read the engine's stage metrics afterwards).
pub fn build_inventory_on(
    engine: &Engine,
    ds: &Dataset,
    pipeline: &PipelineConfig,
) -> Result<PipelineOutput, PipelineError> {
    let ports = port_sites(pipeline.port_radius_km);
    pol_core::run_fused(engine, ds.positions.clone(), &ds.statics, &ports, pipeline)
}
