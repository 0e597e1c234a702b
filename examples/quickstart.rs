//! Quickstart: simulate a small global fleet, build the Patterns-of-Life
//! inventory, query it, and round-trip it through the binary codec.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use patterns_of_life::core::codec::columnar;
use patterns_of_life::core::records::PortSite;
use patterns_of_life::core::PipelineConfig;
use patterns_of_life::engine::Engine;
use patterns_of_life::fleetsim::scenario::{generate, ScenarioConfig};
use patterns_of_life::fleetsim::WORLD_PORTS;
use patterns_of_life::hexgrid::cell_at;

fn main() {
    // 1. A deterministic synthetic AIS dataset (stand-in for the paper's
    //    2.7-billion-record 2022 archive — see DESIGN.md).
    let scenario = ScenarioConfig {
        n_vessels: 40,
        duration_days: 10,
        ..ScenarioConfig::default()
    };
    let ds = generate(&scenario);
    println!(
        "simulated {} vessels, {} positional reports, {} ground-truth voyages",
        ds.fleet.len(),
        ds.total_reports(),
        ds.truth.len()
    );

    // 2. The paper's port table (the geofencing input).
    let ports: Vec<PortSite> = WORLD_PORTS
        .iter()
        .enumerate()
        .map(|(i, p)| PortSite {
            id: i as u16,
            name: p.name.to_string(),
            pos: p.pos(),
            radius_km: 12.0,
        })
        .collect();

    // 3. Run the methodology: clean → trips → project → aggregate.
    let engine = Engine::with_available_parallelism();
    let cfg = PipelineConfig::default(); // resolution 6, like the paper
    let out = patterns_of_life::core::run_fused(&engine, ds.positions, &ds.statics, &ports, &cfg)
        .expect("pipeline run failed");
    println!(
        "pipeline: {} raw -> {} cleaned -> {} trip records -> {} group entries",
        out.counts.raw, out.counts.cleaned, out.counts.with_trips, out.counts.group_entries
    );
    let cov = out.inventory.coverage();
    println!(
        "inventory: {} cells, compression {:.2}%, grid utilization {:.4}%",
        cov.occupied_cells,
        cov.compression * 100.0,
        cov.utilization * 100.0
    );

    // 4. Query the Dover Strait cell.
    let dover = patterns_of_life::geo::LatLon::new(51.05, 1.45).unwrap();
    let cell = cell_at(dover, cfg.resolution);
    match out.inventory.summary(cell) {
        Some(stats) => {
            println!("\nDover Strait cell {cell}:");
            println!("  records        {}", stats.records);
            println!("  distinct ships {}", stats.ships.estimate());
            println!("  distinct trips {}", stats.trips.estimate());
            if let (Some(mean), Some(std)) = (stats.speed.mean(), stats.speed.std_dev()) {
                println!("  speed          {mean:.1} ± {std:.1} kn");
            }
            if let Some(course) = stats.course.mean_deg() {
                println!("  mean course    {course:.0}°");
            }
            for (port, n) in stats.top_destinations(3) {
                println!(
                    "  heading to     {} ({n} records)",
                    WORLD_PORTS[port as usize].name
                );
            }
        }
        None => println!("\nno traffic crossed the Dover cell in this small run"),
    }

    // 5. Persist and reload.
    let bytes = columnar::to_bytes(&out.inventory);
    let back = columnar::from_bytes(&bytes).expect("round-trip");
    println!(
        "\nserialized inventory: {} bytes for {} entries; reload OK ({} entries)",
        bytes.len(),
        out.inventory.len(),
        back.len()
    );

    // 6. Engine observability (the paper's Figure-3 execution flow).
    println!("\nstage metrics:\n{}", engine.metrics().render());
}
