//! The request pools of the serve workloads, drawn from `--seed`, each
//! frame with the bytes to send and the bytes the oracle expects back.

use crate::wire::oracle_answer;
use pol_ais::types::MarketSegment;
use pol_core::features::GroupKey;
use pol_core::Inventory;
use pol_fleetsim::Rng;
use pol_geo::LatLon;
use pol_hexgrid::{cell_at, cell_center, CellIndex};
use pol_serve::proto::{encode_request, encode_response};
use pol_serve::{Request, Response};
use std::collections::HashMap;

/// Single frames in the `serve_lookup` pool.
const LOOKUP_POOL: usize = 8192;
/// BATCH frames in the `serve_heavy` pool and sub-requests in each.
const HEAVY_POOL: usize = 1024;
const BATCH: usize = 32;
/// Distinct bounding boxes: 16x the server's aggregate-cache capacity, so
/// the scans are computed, not remembered.
const DISTINCT_BOXES: usize = 16 * 256;
/// Distinct top-destination keys (the oracle scans every entry for each).
const DISTINCT_TOP_DEST: usize = 32;
/// Share of `serve_lookup` frames that ask for an unoccupied cell.
const MISS_SHARE: f64 = 0.10;

/// Requests with the bytes to send and the bytes to expect.
pub struct Pool {
    pub requests: Vec<Request>,
    pub payloads: Vec<Vec<u8>>,
    pub expected: Vec<Vec<u8>>,
}

impl Pool {
    fn verified(inv: &Inventory, requests: Vec<Request>) -> Pool {
        let payloads = requests.iter().map(encode_request).collect();
        let expected = requests
            .iter()
            .map(|r| encode_response(&oracle_answer(inv, r)))
            .collect();
        Pool {
            requests,
            payloads,
            expected,
        }
    }
}

/// Zipf(1) over `n` ranks: `sample` maps a uniform draw to a rank.
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut total = 0.0;
        let cumulative = (1..=n.max(1))
            .map(|rank| {
                total += 1.0 / rank as f64;
                total
            })
            .collect();
        Zipf { cumulative }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let total = self.cumulative.last().copied().unwrap_or(1.0);
        let u = rng.f64() * total;
        self.cumulative
            .partition_point(|c| *c < u)
            .min(self.cumulative.len() - 1)
    }
}

/// The inventory's keys in a seed-shuffled order (rank 0 is the hottest).
struct Keys {
    cells: Vec<CellIndex>,
    cell_types: Vec<(CellIndex, MarketSegment)>,
    cell_routes: Vec<(CellIndex, u16, u16, MarketSegment)>,
}

impl Keys {
    fn of(inv: &Inventory, rng: &mut Rng) -> Keys {
        let mut keys = Keys {
            cells: Vec::new(),
            cell_types: Vec::new(),
            cell_routes: Vec::new(),
        };
        for (key, _) in inv.iter() {
            match key {
                GroupKey::Cell(c) => keys.cells.push(*c),
                GroupKey::CellType(c, s) => keys.cell_types.push((*c, *s)),
                GroupKey::CellRoute(c, o, d, s) => keys.cell_routes.push((*c, *o, *d, *s)),
            }
        }
        // The map's iteration order is not part of the seed: sort first.
        keys.cells.sort_unstable_by_key(|c| c.raw());
        keys.cell_types
            .sort_unstable_by_key(|(c, s)| (c.raw(), s.id()));
        keys.cell_routes
            .sort_unstable_by_key(|(c, o, d, s)| (c.raw(), *o, *d, s.id()));
        rng.shuffle(&mut keys.cells);
        rng.shuffle(&mut keys.cell_types);
        rng.shuffle(&mut keys.cell_routes);
        keys
    }
}

fn center(cell: CellIndex) -> (f64, f64) {
    let p = cell_center(cell);
    (p.lat(), p.lon())
}

/// A position whose cell holds no entry.
fn unoccupied(inv: &Inventory, rng: &mut Rng) -> (f64, f64) {
    loop {
        let (lat, lon) = (rng.range(-60.0, 60.0), rng.range(-179.0, 179.0));
        let occupied = LatLon::new(lat, lon)
            .is_some_and(|p| inv.summary(cell_at(p, inv.resolution())).is_some());
        if !occupied {
            return (lat, lon);
        }
    }
}

/// Single-frame point, segment and route summaries, Zipf-distributed over
/// each grouping set's keys, [`MISS_SHARE`] of them for empty cells.
pub fn lookup_pool(inv: &Inventory, seed: u64) -> Pool {
    let mut rng = Rng::new(seed ^ 0x6c6f_6f6b_7570);
    let keys = Keys::of(inv, &mut rng);
    let (zc, zt, zr) = (
        Zipf::new(keys.cells.len()),
        Zipf::new(keys.cell_types.len()),
        Zipf::new(keys.cell_routes.len()),
    );
    let requests = (0..LOOKUP_POOL)
        .map(|i| {
            let miss = rng.chance(MISS_SHARE);
            match i % 3 {
                0 => {
                    let (lat, lon) = if miss {
                        unoccupied(inv, &mut rng)
                    } else {
                        center(keys.cells[zc.sample(&mut rng)])
                    };
                    Request::PointSummary { lat, lon }
                }
                1 => {
                    let (cell, segment) = keys.cell_types[zt.sample(&mut rng)];
                    let (lat, lon) = if miss {
                        unoccupied(inv, &mut rng)
                    } else {
                        center(cell)
                    };
                    Request::SegmentSummary { lat, lon, segment }
                }
                _ => {
                    let (cell, origin, dest, segment) = keys.cell_routes[zr.sample(&mut rng)];
                    let (lat, lon) = if miss {
                        unoccupied(inv, &mut rng)
                    } else {
                        center(cell)
                    };
                    Request::RouteSummary {
                        lat,
                        lon,
                        origin,
                        dest,
                        segment,
                    }
                }
            }
        })
        .collect();
    Pool::verified(inv, requests)
}

/// BATCHx32 frames: 8 bbox scans, 4 top-destination filters, 12 ETAs and
/// 8 destination predictions each.
pub fn heavy_pool(inv: &Inventory, seed: u64) -> Pool {
    let mut rng = Rng::new(seed ^ 0x0068_6561_7679);
    let keys = Keys::of(inv, &mut rng);
    let (zc, zr) = (
        Zipf::new(keys.cells.len()),
        Zipf::new(keys.cell_routes.len()),
    );
    let boxes: Vec<Request> = (0..DISTINCT_BOXES)
        .map(|_| {
            let (lat, lon) = center(keys.cells[rng.below(keys.cells.len())]);
            let half = rng.range(0.5, 2.0);
            Request::BboxScan {
                min_lat: (lat - half).max(-89.9),
                min_lon: (lon - half).max(-179.9),
                max_lat: (lat + half).min(89.9),
                max_lon: (lon + half).min(179.9),
            }
        })
        .collect();
    let top_dests: Vec<Request> = (0..DISTINCT_TOP_DEST)
        .map(|i| {
            let (_, _, dest, segment) = keys.cell_routes[rng.below(keys.cell_routes.len())];
            Request::TopDestinationCells {
                dest,
                segment: (i % 2 == 1).then_some(segment),
            }
        })
        .collect();
    let requests: Vec<Request> = (0..HEAVY_POOL)
        .map(|_| {
            // Per eight slots: two scans, one top-destination filter, three
            // ETAs (one narrowed to a route) and two predictions.
            let children = (0..BATCH)
                .map(|slot| match slot % 8 {
                    0 | 4 => boxes[rng.below(boxes.len())].clone(),
                    3 => top_dests[rng.below(top_dests.len())].clone(),
                    1 | 5 => {
                        let track = (0..4)
                            .map(|_| center(keys.cells[zc.sample(&mut rng)]))
                            .collect();
                        Request::PredictDestination {
                            segment: None,
                            top_n: 3,
                            track,
                        }
                    }
                    6 => {
                        let (cell, origin, dest, segment) = keys.cell_routes[zr.sample(&mut rng)];
                        let (lat, lon) = center(cell);
                        Request::Eta {
                            lat,
                            lon,
                            segment: Some(segment),
                            route: Some((origin, dest)),
                        }
                    }
                    _ => {
                        let (lat, lon) = center(keys.cells[zc.sample(&mut rng)]);
                        Request::Eta {
                            lat,
                            lon,
                            segment: None,
                            route: None,
                        }
                    }
                })
                .collect();
            Request::Batch(children)
        })
        .collect();
    // The oracle's top-destination filter scans every entry and the same
    // few keys recur in every frame: answer each distinct child once.
    let mut answers: HashMap<Vec<u8>, Response> = HashMap::new();
    let expected = requests
        .iter()
        .map(|frame| {
            let Request::Batch(children) = frame else {
                unreachable!("heavy frames are batches")
            };
            let replies = children
                .iter()
                .map(|child| match child {
                    Request::BboxScan { .. } | Request::TopDestinationCells { .. } => answers
                        .entry(encode_request(child))
                        .or_insert_with(|| oracle_answer(inv, child))
                        .clone(),
                    other => oracle_answer(inv, other),
                })
                .collect();
            encode_response(&Response::Batch(replies))
        })
        .collect();
    let payloads = requests.iter().map(encode_request).collect();
    Pool {
        requests,
        payloads,
        expected,
    }
}
