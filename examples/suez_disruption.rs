//! The Ever-Given scenario: build a normalcy model from a normal period,
//! then watch the anomaly rate react when the Suez canal closes and
//! Asia–Europe traffic reroutes around the Cape of Good Hope.
//!
//! ```sh
//! cargo run --release --example suez_disruption
//! ```

use patterns_of_life::apps::AnomalyDetector;
use patterns_of_life::core::records::PortSite;
use patterns_of_life::core::PipelineConfig;
use patterns_of_life::engine::Engine;
use patterns_of_life::fleetsim::scenario::{generate, Disruption, ScenarioConfig};
use patterns_of_life::fleetsim::{LaneGraph, RouteOptions, WORLD_PORTS};

fn main() {
    // The routing fact behind the 2021 event, straight from the lane graph:
    let g = LaneGraph::global();
    let (rtm, _) = patterns_of_life::fleetsim::ports::port_by_locode("NLRTM").unwrap();
    let (sin, _) = patterns_of_life::fleetsim::ports::port_by_locode("SGSIN").unwrap();
    let open = g.route(rtm, sin, RouteOptions::default()).unwrap();
    let closed = g
        .route(
            rtm,
            sin,
            RouteOptions {
                avoid_suez: true,
                avoid_panama: false,
            },
        )
        .unwrap();
    println!("Rotterdam -> Singapore:");
    println!(
        "  via Suez:  {:>8.0} km  (through {:?}...)",
        open.distance_km,
        &open.via[..4.min(open.via.len())]
    );
    println!(
        "  via Cape:  {:>8.0} km  (+{:.0} km, the paper's '7000 miles' detour)",
        closed.distance_km,
        closed.distance_km - open.distance_km
    );

    // Normal period → inventory → normalcy model.
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
    let normal_cfg = ScenarioConfig {
        n_vessels: 80,
        duration_days: 12,
        ..ScenarioConfig::default()
    };
    let train = generate(&normal_cfg);
    let engine = Engine::with_available_parallelism();
    let out = patterns_of_life::core::run_fused(
        &engine,
        train.positions,
        &train.statics,
        &ports,
        &PipelineConfig::default(),
    )
    .expect("pipeline run failed");
    let detector = AnomalyDetector::new(&out.inventory);

    // Two live fleets: one normal, one sailing through the blockage.
    let live_normal = generate(&ScenarioConfig {
        seed: 999,
        n_vessels: 30,
        ..normal_cfg.clone()
    });
    let mut blocked_cfg = ScenarioConfig {
        seed: 999,
        n_vessels: 30,
        ..normal_cfg
    };
    blocked_cfg.disruption = Some(Disruption::SuezBlockage {
        from: blocked_cfg.start,
        to: blocked_cfg.end(),
    });
    let live_blocked = generate(&blocked_cfg);

    let rate = |ds: &patterns_of_life::fleetsim::scenario::Dataset| {
        detector.anomaly_rate(ds.positions.iter().enumerate().flat_map(|(vi, part)| {
            let seg = ds.fleet[vi].segment;
            part.iter()
                .map(move |r| (r.pos, r.sog_knots, r.cog_deg, Some(seg)))
        }))
    };
    let r_normal = rate(&live_normal);
    let r_blocked = rate(&live_blocked);
    println!("\nanomaly rate against the normalcy model:");
    println!("  normal fleet:          {:.2}%", r_normal * 100.0);
    println!("  Suez-blockage fleet:   {:.2}%", r_blocked * 100.0);
    println!(
        "  -> the disruption is {:.1}x louder than background",
        r_blocked / r_normal.max(1e-9)
    );
    println!(
        "\nrerouted voyages in the blocked fleet: {}/{}",
        live_blocked.truth.iter().filter(|v| v.rerouted).count(),
        live_blocked.truth.len()
    );
}
