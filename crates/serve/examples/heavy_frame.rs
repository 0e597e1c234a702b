//! What each child of a heavy frame costs the worker that answers it.
//!
//! Simulates polbench's world (50 vessels over 7 days at
//! `interval_scale` 10, seed 42), builds it with `run_fused` and serves
//! it from memory as the server does (`InventoryService::new`: encoded to
//! POLINV4 and read mapped). Then it makes `serve_heavy`-shaped children
//! — bbox scans of ±0.5–2° around occupied cells, top-destination filters
//! (every other one narrowed to a segment), ETAs (one in three narrowed
//! to a route) and four-point destination predictions — and times
//! `execute_into`, the form the server sends, into a reused buffer:
//!
//! * one row per child kind: ns per child, and what the kind's share of
//!   a frame (8 scans, 4 filters, 12 ETAs, 8 predictions) adds up to;
//! * `frame`: a `BATCH` of those 32 children, ns per frame.
//!
//! Times are the median of 31 passes over 512 requests of a kind (64
//! frames). No time is checked.
//!
//! ```sh
//! cargo run --release -p pol-serve --example heavy_frame
//! ```

use pol_ais::types::MarketSegment;
use pol_core::features::GroupKey;
use pol_core::records::PortSite;
use pol_core::{Inventory, PipelineConfig};
use pol_engine::Engine;
use pol_fleetsim::emit::EmissionConfig;
use pol_fleetsim::scenario::{generate, ScenarioConfig};
use pol_fleetsim::{Rng, WORLD_PORTS};
use pol_hexgrid::{cell_center, CellIndex};
use pol_serve::{InventoryService, Request, ServerMetrics};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Requests of each kind timed per pass.
const PER_KIND: usize = 512;

/// Median nanoseconds per request of `execute_into` over `requests`,
/// each appended to a cleared buffer, over 31 passes.
fn median_ns(service: &InventoryService, requests: &[Request]) -> f64 {
    let mut out = Vec::new();
    let mut passes: Vec<f64> = (0..31)
        .map(|_| {
            let started = Instant::now();
            for req in requests {
                out.clear();
                service.execute_into(black_box(req), &mut out);
                black_box(&out);
            }
            started.elapsed().as_nanos() as f64 / requests.len() as f64
        })
        .collect();
    passes.sort_by(f64::total_cmp);
    passes[passes.len() / 2]
}

fn build() -> Inventory {
    let ds = generate(&ScenarioConfig {
        seed: 42,
        n_vessels: 50,
        duration_days: 7,
        emission: EmissionConfig {
            interval_scale: 10.0,
            ..EmissionConfig::default()
        },
        ..ScenarioConfig::default()
    });
    let cfg = PipelineConfig::default();
    let ports: Vec<PortSite> = (WORLD_PORTS.iter().enumerate())
        .map(|(i, p)| PortSite {
            id: i as u16,
            name: p.name.to_string(),
            pos: p.pos(),
            radius_km: cfg.port_radius_km,
        })
        .collect();
    let built = pol_core::run_fused(&Engine::new(2), ds.positions, &ds.statics, &ports, &cfg);
    built.expect("the scenario builds").inventory
}

/// The children of each kind, drawn from the inventory's own keys.
struct Children {
    boxes: Vec<Request>,
    top_dests: Vec<Request>,
    etas: Vec<Request>,
    predictions: Vec<Request>,
}

fn children(inv: &Inventory, rng: &mut Rng) -> Children {
    let mut cells: Vec<CellIndex> = inv.cells().collect();
    cells.sort_unstable_by_key(|c| c.raw());
    let mut routes: Vec<(CellIndex, u16, u16, MarketSegment)> = (inv.iter())
        .filter_map(|(key, _)| match *key {
            GroupKey::CellRoute(c, o, d, s) => Some((c, o, d, s)),
            _ => None,
        })
        .collect();
    routes.sort_unstable_by_key(|&(c, o, d, s)| (c.raw(), o, d, s.id()));
    let center = |c: CellIndex| {
        let p = cell_center(c);
        (p.lat(), p.lon())
    };
    let boxes = (0..PER_KIND)
        .map(|_| {
            let (lat, lon) = center(cells[rng.below(cells.len())]);
            let half = rng.range(0.5, 2.0);
            Request::BboxScan {
                min_lat: (lat - half).max(-89.9),
                min_lon: (lon - half).max(-179.9),
                max_lat: (lat + half).min(89.9),
                max_lon: (lon + half).min(179.9),
            }
        })
        .collect();
    let top_dests = (0..PER_KIND)
        .map(|i| {
            let (_, _, dest, segment) = routes[rng.below(routes.len())];
            Request::TopDestinationCells {
                dest,
                segment: (i % 2 == 1).then_some(segment),
            }
        })
        .collect();
    let etas = (0..PER_KIND)
        .map(|i| {
            let (cell, origin, dest, segment) = routes[rng.below(routes.len())];
            let (lat, lon) = center(cell);
            let narrowed = i % 3 == 0;
            Request::Eta {
                lat,
                lon,
                segment: narrowed.then_some(segment),
                route: narrowed.then_some((origin, dest)),
            }
        })
        .collect();
    let predictions = (0..PER_KIND)
        .map(|_| Request::PredictDestination {
            segment: None,
            top_n: 3,
            track: (0..4)
                .map(|_| center(cells[rng.below(cells.len())]))
                .collect(),
        })
        .collect();
    Children {
        boxes,
        top_dests,
        etas,
        predictions,
    }
}

fn main() {
    let started = Instant::now();
    let inventory = build();
    let service = InventoryService::new(inventory.clone(), Arc::new(ServerMetrics::new()));
    println!(
        "inventory: {} entries, {} occupied cells, built and served in {:.1} s",
        inventory.len(),
        inventory.cells().count(),
        started.elapsed().as_secs_f64()
    );
    let mut rng = Rng::new(1);
    let kids = children(&inventory, &mut rng);
    let kinds: [(&str, &[Request], usize); 4] = [
        ("bbox_scan", &kids.boxes, 8),
        ("top_destination_cells", &kids.top_dests, 4),
        ("eta", &kids.etas, 12),
        ("predict_destination", &kids.predictions, 8),
    ];
    println!(
        "{:<24} {:>8} {:>12} {:>14}",
        "child", "/frame", "ns/child", "ns/frame"
    );
    let mut sum = 0.0;
    for (name, requests, per_frame) in kinds {
        let ns = median_ns(&service, requests);
        sum += ns * per_frame as f64;
        println!(
            "{name:<24} {per_frame:>8} {ns:>12.0} {:>14.0}",
            ns * per_frame as f64
        );
    }
    println!(
        "{:<24} {:>8} {:>12} {sum:>14.0}",
        "children, summed", 32, ""
    );
    // Frames of the children in polbench's slot order: per eight slots two
    // scans, one filter, three ETAs and two predictions.
    let frames: Vec<Request> = (0..PER_KIND / 8)
        .map(|f| {
            let children = (0..32)
                .map(|slot| {
                    let at = (f * 32 + slot) % PER_KIND;
                    match slot % 8 {
                        0 | 4 => kids.boxes[at].clone(),
                        3 => kids.top_dests[at].clone(),
                        1 | 5 => kids.predictions[at].clone(),
                        _ => kids.etas[at].clone(),
                    }
                })
                .collect();
            Request::Batch(children)
        })
        .collect();
    let frame_ns = median_ns(&service, &frames);
    println!(
        "{:<24} {:>8} {:>12} {frame_ns:>14.0}",
        "frame (BATCH x32)", 32, ""
    );
}
