//! The paper's §5 future work in action: build a uniform res-7 inventory,
//! coarsen it adaptively by traffic density, and compare footprints and
//! query behaviour.
//!
//! ```sh
//! cargo run --release --example adaptive_inventory
//! ```

use patterns_of_life::core::records::PortSite;
use patterns_of_life::core::{AdaptiveConfig, AdaptiveInventory, PipelineConfig};
use patterns_of_life::engine::Engine;
use patterns_of_life::fleetsim::scenario::{generate, ScenarioConfig};
use patterns_of_life::fleetsim::WORLD_PORTS;
use patterns_of_life::geo::LatLon;

fn main() {
    let ds = generate(&ScenarioConfig {
        n_vessels: 60,
        duration_days: 10,
        ..ScenarioConfig::default()
    });
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
    let engine = Engine::with_available_parallelism();
    let out = patterns_of_life::core::run_fused(
        &engine,
        ds.positions,
        &ds.statics,
        &ports,
        &PipelineConfig::fine(), // res 7
    )
    .expect("pipeline run failed");
    let fine_cells = out
        .inventory
        .len_of(patterns_of_life::core::features::GroupingSet::Cell);
    println!("uniform inventory: {fine_cells} cells at res 7");

    let adaptive = AdaptiveInventory::build(&out.inventory, &AdaptiveConfig::default());
    println!(
        "adaptive inventory: {} cells ({:.0}% of uniform), partition valid: {}",
        adaptive.len(),
        100.0 * adaptive.len() as f64 / fine_cells as f64,
        adaptive.partition_violations() == 0
    );
    println!("resolution mix:");
    for (res, n) in adaptive.resolution_histogram() {
        println!(
            "  res {res:>2} ({:>9.1} km² cells): {n:>6} cells",
            patterns_of_life::hexgrid::avg_cell_area_km2(
                patterns_of_life::hexgrid::Resolution::new(res).unwrap()
            )
        );
    }

    // Queries: dense port approach vs open ocean.
    let probes = [
        ("Singapore strait", LatLon::new(1.2, 103.9).unwrap()),
        ("Dover strait", LatLon::new(51.05, 1.45).unwrap()),
        ("mid South Atlantic", LatLon::new(-20.0, -15.0).unwrap()),
        ("Southern Ocean", LatLon::new(-62.0, 120.0).unwrap()),
    ];
    println!();
    for (name, pos) in probes {
        match adaptive.summary_at(pos) {
            Some((cell, stats)) => println!(
                "{name:<20} -> res {:>2} cell, {:>6} records, {:>4} ships",
                cell.resolution().level(),
                stats.records,
                stats.ships.estimate()
            ),
            None => println!("{name:<20} -> no traffic ever observed"),
        }
    }
}
