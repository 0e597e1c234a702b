//! §4.1.2 / §4.1.3 in action: track one live vessel against the inventory
//! — estimate its time to destination and predict where it is heading,
//! report by report.
//!
//! ```sh
//! cargo run --release --example eta_and_destination
//! ```

use patterns_of_life::apps::{naive_eta_secs, DestinationPredictor, EtaEstimator};
use patterns_of_life::core::records::PortSite;
use patterns_of_life::core::PipelineConfig;
use patterns_of_life::engine::Engine;
use patterns_of_life::fleetsim::scenario::{generate, ScenarioConfig};
use patterns_of_life::fleetsim::WORLD_PORTS;

fn port_sites(radius_km: f64) -> Vec<PortSite> {
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

fn main() {
    // Historical year: build the inventory.
    let train = generate(&ScenarioConfig {
        n_vessels: 80,
        duration_days: 12,
        ..ScenarioConfig::default()
    });
    let engine = Engine::with_available_parallelism();
    let cfg = PipelineConfig::default();
    let out = patterns_of_life::core::run_fused(
        &engine,
        train.positions,
        &train.statics,
        &port_sites(cfg.port_radius_km),
        &cfg,
    )
    .expect("pipeline run failed");
    println!(
        "inventory built: {} entries over {} cells\n",
        out.inventory.len(),
        out.inventory.coverage().occupied_cells
    );

    // A "live" vessel from a different season (different seed).
    let live = generate(&ScenarioConfig {
        seed: 777,
        n_vessels: 20,
        duration_days: 12,
        ..ScenarioConfig::default()
    });
    // Pick the longest observed voyage.
    let voyage = live
        .truth
        .iter()
        .max_by_key(|v| v.arrival - v.departure)
        .expect("voyages exist");
    let vessel = live.fleet.iter().find(|f| f.mmsi == voyage.mmsi).unwrap();
    let vi = live
        .fleet
        .iter()
        .position(|f| f.mmsi == voyage.mmsi)
        .unwrap();
    let origin = &WORLD_PORTS[voyage.origin.0 as usize];
    let dest = &WORLD_PORTS[voyage.dest.0 as usize];
    println!(
        "live vessel: {} ({}), {} -> {}, actual passage {:.1} h",
        vessel.name,
        vessel.segment,
        origin.name,
        dest.name,
        (voyage.arrival - voyage.departure) as f64 / 3600.0
    );

    let eta = EtaEstimator::new(&out.inventory);
    let mut predictor = DestinationPredictor::new(&out.inventory, Some(vessel.segment));

    println!();
    println!(
        "{:>9} {:>12} {:>12} {:>12}   {}",
        "progress", "true rem(h)", "inv ETA(h)", "naive(h)", "predicted destination"
    );
    let reports: Vec<_> = live.positions[vi]
        .iter()
        .filter(|r| r.timestamp >= voyage.departure && r.timestamp <= voyage.arrival)
        .collect();
    for r in &reports {
        predictor.observe(r.pos);
    }
    for frac in [0.2, 0.4, 0.6, 0.8, 0.95] {
        let t = voyage.departure + ((voyage.arrival - voyage.departure) as f64 * frac) as i64;
        let Some(r) = reports.iter().min_by_key(|r| (r.timestamp - t).abs()) else {
            continue;
        };
        let truth_h = (voyage.arrival - r.timestamp) as f64 / 3600.0;
        let inv_h = eta
            .estimate(
                r.pos,
                Some(vessel.segment),
                Some((voyage.origin.0, voyage.dest.0)),
            )
            .map(|e| e.p50_secs / 3600.0);
        let naive_h = naive_eta_secs(r.pos, dest.pos(), vessel.design_speed_kn) / 3600.0;
        // Re-run the predictor up to this report for an honest "at the time"
        // answer.
        let mut p = DestinationPredictor::new(&out.inventory, Some(vessel.segment));
        for rr in reports.iter().take_while(|rr| rr.timestamp <= r.timestamp) {
            p.observe(rr.pos);
        }
        let guess = p
            .best()
            .map(|(port, score)| {
                format!(
                    "{} ({:.0}%)",
                    WORLD_PORTS[port as usize].name,
                    score * 100.0
                )
            })
            .unwrap_or_else(|| "—".into());
        println!(
            "{:>8.0}% {:>12.1} {:>12} {:>12.1}   {}",
            frac * 100.0,
            truth_h,
            inv_h
                .map(|h| format!("{h:.1}"))
                .unwrap_or_else(|| "—".into()),
            naive_h,
            guess
        );
    }
    println!("\n(inv ETA = median of historical ATA in the cell for this route key;");
    println!(" naive = great-circle distance over design speed — no lane knowledge)");
}
