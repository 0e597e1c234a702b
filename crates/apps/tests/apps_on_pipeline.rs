//! Integration: every §4 use case running against an inventory built by
//! the *actual pipeline* over simulated traffic (not hand-crafted stats).

use pol_apps::{AnomalyDetector, DestinationPredictor, EtaEstimator, RouteForecaster};
use pol_core::features::GroupKey;
use pol_core::records::PortSite;
use pol_core::{PipelineConfig, PipelineOutput};
use pol_engine::Engine;
use pol_fleetsim::scenario::{generate, Dataset, ScenarioConfig};
use pol_fleetsim::WORLD_PORTS;
use std::sync::OnceLock;

fn world() -> &'static (Dataset, PipelineOutput, PipelineConfig) {
    static W: OnceLock<(Dataset, PipelineOutput, PipelineConfig)> = OnceLock::new();
    W.get_or_init(|| {
        let ds = generate(&ScenarioConfig {
            n_vessels: 40,
            duration_days: 10,
            ..ScenarioConfig::default()
        });
        let cfg = PipelineConfig::default();
        let ports: Vec<PortSite> = WORLD_PORTS
            .iter()
            .enumerate()
            .map(|(i, p)| PortSite {
                id: i as u16,
                name: p.name.to_string(),
                pos: p.pos(),
                radius_km: cfg.port_radius_km,
            })
            .collect();
        let out = pol_core::run_fused(
            &Engine::new(2),
            ds.positions.clone(),
            &ds.statics,
            &ports,
            &cfg,
        )
        .unwrap();
        (ds, out, cfg)
    })
}

/// The longest in-window training voyage whose route key actually
/// materialised in the inventory. (A voyage whose pre-departure port stay
/// was sliced off by the window edge leaves no trip, hence no key — the
/// §4.1.3 use case explicitly presumes a *known* route.)
fn reference_voyage() -> &'static pol_fleetsim::scenario::VoyageTruth {
    let (ds, out, _) = world();
    let mut candidates: Vec<_> = ds
        .truth
        .iter()
        .filter(|v| v.departure >= ds.config.start && v.arrival <= ds.config.end())
        .collect();
    candidates.sort_by_key(|v| std::cmp::Reverse(v.arrival - v.departure));
    candidates
        .into_iter()
        .find(|v| {
            let seg = ds
                .fleet
                .iter()
                .find(|f| f.mmsi == v.mmsi)
                .expect("fleet entry")
                .segment;
            out.inventory.route_cells(v.origin.0, v.dest.0, seg).len() >= 20
        })
        .expect("some in-window voyage has a materialised route key")
}

#[test]
fn eta_decreases_along_a_training_voyage() {
    let (ds, out, _) = world();
    let v = reference_voyage();
    let vi = ds.fleet.iter().position(|f| f.mmsi == v.mmsi).unwrap();
    let seg = ds.fleet[vi].segment;
    let est = EtaEstimator::new(&out.inventory);
    let reports: Vec<_> = ds.positions[vi]
        .iter()
        .filter(|r| r.timestamp >= v.departure && r.timestamp <= v.arrival)
        .collect();
    assert!(reports.len() > 20);
    // Sample by *time* fraction (report density is higher in slow harbour
    // zones, so index fractions skew toward the ends).
    let at = |f: f64| {
        let t = v.departure + ((v.arrival - v.departure) as f64 * f) as i64;
        let r = reports
            .iter()
            .min_by_key(|r| (r.timestamp - t).abs())
            .expect("non-empty");
        est.estimate(r.pos, Some(seg), Some((v.origin.0, v.dest.0)))
    };
    let early = at(0.2).expect("training voyage cells are covered");
    let late = at(0.8).expect("training voyage cells are covered");
    assert!(
        late.p50_secs < early.p50_secs,
        "median remaining time must shrink: {} -> {}",
        early.p50_secs,
        late.p50_secs
    );
}

#[test]
fn destination_predictor_improves_with_progress_on_training_voyage() {
    let (ds, out, _) = world();
    let v = reference_voyage();
    let vi = ds.fleet.iter().position(|f| f.mmsi == v.mmsi).unwrap();
    let seg = ds.fleet[vi].segment;
    let reports: Vec<_> = ds.positions[vi]
        .iter()
        .filter(|r| r.timestamp >= v.departure && r.timestamp <= v.arrival)
        .collect();
    let rank_at = |f: f64| -> Option<usize> {
        let mut p = DestinationPredictor::new(&out.inventory, Some(seg));
        for r in &reports[..((reports.len() as f64 * f) as usize).max(1)] {
            p.observe(r.pos);
        }
        p.top(usize::MAX).iter().position(|(d, _)| *d == v.dest.0)
    };
    let late = rank_at(0.95);
    assert!(
        late.is_some(),
        "true destination must be ranked near arrival"
    );
    if let (Some(e), Some(l)) = (rank_at(0.3), late) {
        assert!(l <= e, "rank must not degrade with progress: {e} -> {l}");
    }
}

#[test]
fn route_forecaster_follows_training_lane() {
    let (ds, out, cfg) = world();
    let v = reference_voyage();
    let seg = ds.fleet.iter().find(|f| f.mmsi == v.mmsi).unwrap().segment;
    let dest_pos = WORLD_PORTS[v.dest.0 as usize].pos();
    let f = RouteForecaster::build(&out.inventory, v.origin.0, v.dest.0, seg, dest_pos);
    assert!(f.cell_count() > 10, "training route key materialised");
    let vi = ds.fleet.iter().position(|x| x.mmsi == v.mmsi).unwrap();
    let reports: Vec<_> = ds.positions[vi]
        .iter()
        .filter(|r| r.timestamp >= v.departure && r.timestamp <= v.arrival)
        .collect();
    let pivot = reports.len() / 4;
    let fc = f
        .forecast(reports[pivot].pos, cfg.resolution)
        .expect("forecast along the training lane");
    // The forecast ends near the destination and is mostly on the track.
    let end = pol_hexgrid::cell_center(*fc.cells.last().unwrap());
    assert!(pol_geo::haversine_km(end, dest_pos) < 60.0);
    let actual: std::collections::HashSet<_> = reports[pivot..]
        .iter()
        .map(|r| pol_hexgrid::cell_at(r.pos, cfg.resolution))
        .collect();
    let on = fc
        .cells
        .iter()
        .filter(|c| {
            actual.contains(c)
                || actual
                    .iter()
                    .any(|a| pol_hexgrid::grid_distance(*a, **c).is_some_and(|d| d <= 1))
        })
        .count();
    assert!(
        on as f64 / fc.cells.len() as f64 > 0.6,
        "{on}/{} forecast cells on the lane",
        fc.cells.len()
    );
}

#[test]
fn anomaly_rates_are_low_on_training_traffic() {
    let (ds, out, _) = world();
    let det = AnomalyDetector::new(&out.inventory);
    // Training traffic against its own inventory: well below 50% anomalous
    // (off-lane can fire only for cells dropped by trip extraction).
    let rate = det.anomaly_rate(ds.positions.iter().enumerate().flat_map(|(vi, part)| {
        let seg = ds.fleet[vi].segment;
        part.iter()
            .take(500)
            .map(move |r| (r.pos, r.sog_knots, r.cog_deg, Some(seg)))
    }));
    assert!(rate < 0.5, "self-anomaly rate {rate}");
}

#[test]
fn inventory_answers_are_stable_across_reload() {
    let (_, out, _) = world();
    let bytes = pol_core::codec::columnar::to_bytes(&out.inventory);
    let back = pol_core::codec::columnar::from_bytes(&bytes).unwrap();
    // A sample of queries must answer identically after reload.
    for (key, stats) in out.inventory.iter().take(200) {
        if let GroupKey::Cell(cell) = key {
            let b = back.summary(*cell).expect("entry survives");
            assert_eq!(b.records, stats.records);
            assert_eq!(b.top_destinations(3), stats.top_destinations(3));
        }
    }
}
