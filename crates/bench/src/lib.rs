//! Shared experiment plumbing: scenario presets, the fleetsim→pipeline
//! adapter, and CSV/figure output helpers.
//!
//! Every `src/bin/` target regenerates one table or figure of the paper
//! (see DESIGN.md §4 for the index); the `benches/` targets measure the
//! performance claims. All experiments are deterministic given the
//! scenario seed and print the paper's reported values next to the
//! measured ones.

#![deny(missing_docs)]

pub mod alloc;

use pol_core::records::PortSite;
use pol_core::{PipelineConfig, PipelineOutput};
use pol_engine::Engine;
use pol_fleetsim::emit::EmissionConfig;
use pol_fleetsim::scenario::{generate, Dataset, ScenarioConfig};
use pol_fleetsim::WORLD_PORTS;
use std::io::Write;
use std::path::PathBuf;

/// Seed of the "build" (training) scenario.
pub const TRAIN_SEED: u64 = 42;

/// Seed of held-out evaluation scenarios.
pub const TEST_SEED: u64 = 4242;

/// The standard experiment scenario: laptop-scale but dense enough that
/// consecutive reports land in adjacent cells (compression behaves like
/// the paper's Table 4). ~1 M reports; the scale factor vs the paper's
/// 2.7 B is reported by every experiment.
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

/// A quick scenario for iterating (and for criterion benches).
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

/// Looks up a simulator port id by LOCODE.
pub fn port_id(locode: &str) -> u16 {
    pol_fleetsim::ports::port_by_locode(locode)
        // lint: allow(no_unwrap) — bench harness: a typo'd LOCODE in a
        // benchmark scenario should abort the run, not be papered over.
        .unwrap_or_else(|| panic!("unknown port {locode}"))
        .0
         .0
}

/// Runs the pipeline ([`pol_core::run_fused`]) over an already-generated
/// dataset on an explicit engine (so callers control thread count and
/// read the engine's stage metrics afterwards).
pub fn build_inventory_on(
    engine: &Engine,
    ds: &Dataset,
    pipeline: &PipelineConfig,
) -> PipelineOutput {
    let ports = port_sites(pipeline.port_radius_km);
    pol_core::run_fused(engine, ds.positions.clone(), &ds.statics, &ports, pipeline)
        // lint: allow(no_unwrap) — bench harness: a failed pipeline build
        // invalidates every number downstream; abort loudly.
        .expect("pipeline run failed")
}

/// Generates a scenario and runs the full pipeline over it.
pub fn build_inventory(
    scenario: &ScenarioConfig,
    pipeline: &PipelineConfig,
) -> (Dataset, PipelineOutput) {
    let ds = generate(scenario);
    let engine = Engine::with_available_parallelism();
    let out = build_inventory_on(&engine, &ds, pipeline);
    (ds, out)
}

/// The repository's `figures/` output directory.
pub fn figures_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("figures");
    // lint: allow(no_unwrap) — bench harness: figures/ must be writable
    // for any result to land; fail fast.
    std::fs::create_dir_all(&dir).expect("create figures dir");
    dir
}

/// Writes a CSV into `figures/` and returns its path.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let path = figures_dir().join(name);
    // lint: allow(no_unwrap) — bench harness: a partially written figure
    // CSV is worse than an aborted run.
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path).expect("create csv"));
    writeln!(f, "{header}").expect("write header");
    for r in rows {
        writeln!(f, "{r}").expect("write row");
    }
    f.flush().expect("flush csv"); // lint: allow(no_unwrap) — harness policy above
    path
}

/// Formats seconds as hours with one decimal.
pub fn hours(secs: f64) -> f64 {
    secs / 3600.0
}

/// The best-covered `(origin, dest, segment)` route keys of an inventory,
/// by number of cells holding the key, descending. §4.1.2/§4.1.3 of the
/// paper apply to "known sea routes" — these are the known ones.
pub fn top_route_keys(
    inv: &pol_core::Inventory,
    min_cells: usize,
    n: usize,
) -> Vec<(u16, u16, pol_ais::types::MarketSegment, usize)> {
    use pol_core::features::GroupKey;
    let mut counts: std::collections::HashMap<(u16, u16, u8), usize> =
        std::collections::HashMap::new();
    for (key, _) in inv.iter() {
        if let GroupKey::CellRoute(_, o, d, seg) = key {
            *counts.entry((*o, *d, seg.id())).or_insert(0) += 1;
        }
    }
    let mut all: Vec<_> = counts
        .into_iter()
        .filter(|(_, c)| *c >= min_cells)
        .map(|((o, d, s), c)| {
            (
                o,
                d,
                // lint: allow(no_unwrap) — the id was produced by
                // `MarketSegment::id()` at insert time.
                pol_ais::types::MarketSegment::from_id(s).expect("stored id valid"),
                c,
            )
        })
        .collect();
    all.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
    all.truncate(n);
    all
}

/// Simulates one fresh voyage along a given port pair (a "new vessel" on a
/// known route: same lanes, different noise/speed) and returns its emitted
/// reports plus the true arrival time. `None` when the lane graph cannot
/// route the pair.
pub fn simulate_voyage(
    origin: u16,
    dest: u16,
    speed_kn: f64,
    departure: i64,
    seed: u64,
) -> Option<(i64, Vec<pol_ais::PositionReport>)> {
    use pol_fleetsim::emit::emit_reports;
    use pol_fleetsim::lanes::{LaneGraph, RouteOptions};
    use pol_fleetsim::voyage::{Activity, VoyagePlan};
    use pol_fleetsim::{PortId, Rng};
    let route = LaneGraph::global().route(PortId(origin), PortId(dest), RouteOptions::default())?;
    let plan = VoyagePlan {
        origin: PortId(origin),
        dest: PortId(dest),
        departure,
        speed_kn,
        route,
    };
    let arrival = plan.arrival();
    let acts = vec![Activity::Voyage(plan)];
    let mut rng = Rng::new(seed);
    let emission = EmissionConfig {
        interval_scale: 10.0,
        dropout: 0.05,
        gps_noise_m: 30.0,
        corrupt_rate: 0.0,
    };
    let reports = emit_reports(
        pol_ais::types::Mmsi(900_000_000 + (seed % 99_999_999) as u32),
        &acts,
        departure,
        arrival + 1,
        &emission,
        &mut rng,
    );
    Some((arrival, reports))
}

/// A plausible cruise speed for a segment (used when replaying voyages).
pub fn typical_speed_kn(seg: pol_ais::types::MarketSegment) -> f64 {
    use pol_ais::types::MarketSegment::*;
    match seg {
        Container => 17.5,
        DryBulk => 12.5,
        Tanker => 13.0,
        Gas => 17.0,
        GeneralCargo => 14.0,
        Passenger => 20.0,
        Other => 12.0,
    }
}

/// The reports a vessel emitted during one ground-truth voyage, in time
/// order (the evaluation binaries sample these).
pub fn reports_for_voyage<'a>(
    ds: &'a Dataset,
    v: &pol_fleetsim::scenario::VoyageTruth,
) -> Vec<&'a pol_ais::PositionReport> {
    let Some(idx) = ds.fleet.iter().position(|f| f.mmsi == v.mmsi) else {
        return Vec::new();
    };
    ds.positions[idx]
        .iter()
        .filter(|r| r.timestamp >= v.departure && r.timestamp <= v.arrival)
        .collect()
}

/// Prints a standard experiment banner.
pub fn banner(title: &str, paper_ref: &str) {
    println!("================================================================");
    println!("{title}");
    println!("(reproduces {paper_ref}; synthetic substrate, see DESIGN.md)");
    println!("================================================================");
}
