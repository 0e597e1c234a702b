//! Workspace integration test: the complete paper pipeline from simulated
//! AIS traffic through the inventory to every §4 use case.

use patterns_of_life::apps::{
    AnomalyDetector, DestinationPredictor, EtaEstimator, RouteForecaster,
};
use patterns_of_life::core::codec::columnar;
use patterns_of_life::core::features::{GroupKey, GroupingSet};
use patterns_of_life::core::records::PortSite;
use patterns_of_life::core::PipelineConfig;
use patterns_of_life::engine::Engine;
use patterns_of_life::fleetsim::scenario::{generate, ScenarioConfig};
use patterns_of_life::fleetsim::WORLD_PORTS;
use patterns_of_life::hexgrid::cell_at;
use std::sync::OnceLock;

struct World {
    dataset: patterns_of_life::fleetsim::scenario::Dataset,
    output: patterns_of_life::core::PipelineOutput,
    config: PipelineConfig,
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let scenario = ScenarioConfig {
            n_vessels: 50,
            duration_days: 10,
            ..ScenarioConfig::default()
        };
        let dataset = generate(&scenario);
        let config = PipelineConfig::default();
        let ports: Vec<PortSite> = WORLD_PORTS
            .iter()
            .enumerate()
            .map(|(i, p)| PortSite {
                id: i as u16,
                name: p.name.to_string(),
                pos: p.pos(),
                radius_km: config.port_radius_km,
            })
            .collect();
        let engine = Engine::new(2);
        let output = patterns_of_life::core::run_fused(
            &engine,
            dataset.positions.clone(),
            &dataset.statics,
            &ports,
            &config,
        )
        .unwrap();
        World {
            dataset,
            output,
            config,
        }
    })
}

#[test]
fn pipeline_funnel_is_sane() {
    let w = world();
    let c = &w.output.counts;
    assert!(c.raw > 100_000, "raw {}", c.raw);
    assert!(c.cleaned <= c.raw);
    assert!(
        c.cleaned as f64 > c.raw as f64 * 0.8,
        "cleaning must not devastate"
    );
    assert!(c.with_trips > 0 && c.with_trips <= c.cleaned);
    assert_eq!(c.projected, c.with_trips);
    assert!(c.group_entries > 0);
    // Cleaning accounting adds up.
    let r = &w.output.clean_report;
    assert_eq!(
        r.input,
        r.out_of_range + r.non_commercial + r.infeasible + r.output
    );
}

#[test]
fn inventory_has_all_grouping_sets_and_compresses() {
    let w = world();
    let inv = &w.output.inventory;
    for gs in GroupingSet::ALL {
        assert!(inv.len_of(gs) > 0, "{gs:?}");
    }
    // Table 2's hierarchy: per-type entries at least as numerous as cells,
    // route entries at least as numerous as per-type.
    assert!(inv.len_of(GroupingSet::CellType) >= inv.len_of(GroupingSet::Cell));
    let cov = inv.coverage();
    assert!(cov.compression > 0.8, "compression {}", cov.compression);
    assert!(cov.utilization > 0.0 && cov.utilization < 0.01);
}

#[test]
fn cell_level_consistency_between_grouping_sets() {
    let w = world();
    let inv = &w.output.inventory;
    // For every cell: records in (cell) == Σ records in (cell, type) ==
    // Σ records in (cell, o, d, type).
    let mut by_cell: std::collections::HashMap<u64, (u64, u64, u64)> = Default::default();
    for (key, stats) in inv.iter() {
        let e = by_cell.entry(key.cell().raw()).or_default();
        match key {
            GroupKey::Cell(_) => e.0 += stats.records,
            GroupKey::CellType(_, _) => e.1 += stats.records,
            GroupKey::CellRoute(_, _, _, _) => e.2 += stats.records,
        }
    }
    for (cell, (a, b, c)) in &by_cell {
        assert_eq!(a, b, "cell {cell:x}: cell vs type totals");
        assert_eq!(a, c, "cell {cell:x}: cell vs route totals");
    }
}

#[test]
fn inventory_round_trips_through_codec() {
    let w = world();
    let bytes = columnar::to_bytes(&w.output.inventory);
    let back = columnar::from_bytes(&bytes).expect("decodes");
    assert_eq!(back.len(), w.output.inventory.len());
    assert_eq!(back.total_records(), w.output.inventory.total_records());
    assert_eq!(columnar::to_bytes(&back), bytes, "canonical bytes");
}

#[test]
fn eta_estimator_works_on_busy_cells() {
    let w = world();
    let inv = &w.output.inventory;
    let (busiest, stats) = inv
        .iter()
        .filter_map(|(k, s)| match k {
            GroupKey::Cell(c) => Some((*c, s)),
            _ => None,
        })
        .max_by_key(|(_, s)| s.records)
        .expect("non-empty");
    assert!(
        stats.records > 10,
        "busiest cell only has {}",
        stats.records
    );
    let pos = patterns_of_life::hexgrid::cell_center(busiest);
    let est = EtaEstimator::new(inv)
        .estimate(pos, None, None)
        .expect("busy cell estimates");
    assert!(est.mean_secs >= 0.0);
    assert!(est.p10_secs <= est.p90_secs);
}

#[test]
fn destination_predictor_tracks_a_real_voyage() {
    let w = world();
    // The voyage must complete inside the window, or trip extraction never
    // saw its destination and the inventory cannot know it.
    let (start, end) = (w.dataset.config.start, w.dataset.config.end());
    let v = w
        .dataset
        .truth
        .iter()
        .filter(|v| v.departure >= start && v.arrival <= end)
        .max_by_key(|v| v.arrival - v.departure)
        .expect("an in-window voyage exists");
    let vi = w
        .dataset
        .fleet
        .iter()
        .position(|f| f.mmsi == v.mmsi)
        .unwrap();
    let seg = w.dataset.fleet[vi].segment;
    let mut p = DestinationPredictor::new(&w.output.inventory, Some(seg));
    let mut contributed = 0;
    for r in w.dataset.positions[vi]
        .iter()
        .filter(|r| r.timestamp >= v.departure && r.timestamp <= v.arrival)
    {
        if p.observe(r.pos) {
            contributed += 1;
        }
    }
    // The training data contains this very voyage, so its cells exist and
    // the true destination holds a positive score (rank depends on how much
    // competing traffic shares the lane at this small scale).
    assert!(contributed > 0);
    let top = p.top(5);
    assert!(!top.is_empty());
    let full = p.top(usize::MAX);
    assert!(
        full.iter().any(|(d, s)| *d == v.dest.0 && *s > 0.0),
        "true destination {} absent from the tally {full:?}",
        v.dest.0
    );
}

#[test]
fn route_forecaster_reconstructs_training_route() {
    let w = world();
    // The longest voyage seen in training has a well-populated key.
    let v = w
        .dataset
        .truth
        .iter()
        .max_by_key(|v| (v.distance_km * 10.0) as u64)
        .expect("voyages");
    let seg = w
        .dataset
        .fleet
        .iter()
        .find(|f| f.mmsi == v.mmsi)
        .unwrap()
        .segment;
    let dest_pos = WORLD_PORTS[v.dest.0 as usize].pos();
    let f = RouteForecaster::build(&w.output.inventory, v.origin.0, v.dest.0, seg, dest_pos);
    if f.cell_count() < 20 {
        return; // voyage straddled the window edge; key sparsely observed
    }
    let vi = w
        .dataset
        .fleet
        .iter()
        .position(|x| x.mmsi == v.mmsi)
        .unwrap();
    let mid = w.dataset.positions[vi]
        .iter()
        .filter(|r| r.timestamp >= v.departure && r.timestamp <= v.arrival)
        .nth(50);
    if let Some(r) = mid {
        if let Some(fc) = f.forecast(r.pos, w.config.resolution) {
            assert!(fc.cells.len() > 2);
            assert!(fc.distance_km > 0.0);
        }
    }
}

#[test]
fn anomaly_detector_consistent_with_inventory() {
    let w = world();
    let det = AnomalyDetector::new(&w.output.inventory);
    // Mid-ocean nowhere: off-lane.
    let nowhere = patterns_of_life::geo::LatLon::new(-48.0, -170.0).unwrap();
    assert_eq!(
        det.assess(nowhere, Some(12.0), Some(90.0), None),
        vec![patterns_of_life::apps::Anomaly::OffLane]
    );
    // The busiest cell with its own historical mean: normal.
    let inv = &w.output.inventory;
    let (cell, stats) = inv
        .iter()
        .filter_map(|(k, s)| match k {
            GroupKey::Cell(c) => Some((*c, s)),
            _ => None,
        })
        .max_by_key(|(_, s)| s.records)
        .unwrap();
    let pos = patterns_of_life::hexgrid::cell_center(cell);
    let mean_speed = stats.speed.mean().unwrap_or(10.0);
    let verdict = det.assess(pos, Some(mean_speed), None, None);
    assert!(verdict.is_empty(), "{verdict:?}");
}

#[test]
fn figure6_style_query_returns_hub_cells() {
    let w = world();
    // At least one of the three hub ports should be some cell's top
    // destination in a 50-vessel run.
    let hubs = ["SGSIN", "CNSHA", "NLRTM"];
    let total: usize = hubs
        .iter()
        .map(|code| {
            let id = patterns_of_life::fleetsim::ports::port_by_locode(code)
                .unwrap()
                .0
                 .0;
            w.output
                .inventory
                .cells_with_top_destination(id, None)
                .len()
        })
        .sum();
    assert!(total > 0, "no hub-destined cells at all");
}

#[test]
fn projection_matches_inventory_resolution() {
    let w = world();
    for cell in w.output.inventory.cells().take(100) {
        assert_eq!(cell.resolution(), w.config.resolution);
        // Cell centres re-project to themselves.
        let center = patterns_of_life::hexgrid::cell_center(cell);
        assert_eq!(cell_at(center, w.config.resolution), cell);
    }
}
