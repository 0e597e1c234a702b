//! The heap oracle of the serve suites (and of `pol-bench`'s allocation
//! budget, which includes this file): what a server over an inventory
//! answers to a request, computed directly on the heap [`Inventory`] —
//! its own lookups, its plain-filter scans and the `pol-apps` estimators
//! over it — with no `pol-serve` code but the response encoder.

use pol_apps::{DestinationPredictor, EtaEstimator};
use pol_core::{CellStats, Inventory};
use pol_geo::{BBox, LatLon};
use pol_hexgrid::{cell_at, CellIndex};
use pol_serve::proto::encode_response;
use pol_serve::{HealthReport, Request, Response};

/// The reply payload, byte for byte, that a server over `inv` sends for
/// `req` while it has neither reloaded nor begun to drain. `STATS` reads
/// clocks and counters and has no oracle.
pub(crate) fn reply(inv: &Inventory, req: &Request) -> Vec<u8> {
    encode_response(&answer(inv, req))
}

fn answer(inv: &Inventory, req: &Request) -> Response {
    let out_of_range = || Response::Error("coordinates out of range".into());
    let cell = |lat, lon| LatLon::new(lat, lon).map(|pos| cell_at(pos, inv.resolution()));
    let summary = |found: Option<Option<&CellStats>>| {
        found.map_or_else(out_of_range, |stats| Response::Summary(stats.cloned()))
    };
    match *req {
        Request::Ping => Response::Pong,
        Request::PointSummary { lat, lon } => summary(cell(lat, lon).map(|c| inv.summary(c))),
        Request::SegmentSummary { lat, lon, segment } => {
            summary(cell(lat, lon).map(|c| inv.summary_for(c, segment)))
        }
        Request::RouteSummary {
            lat,
            lon,
            origin,
            dest,
            segment,
        } => summary(cell(lat, lon).map(|c| inv.summary_route(c, origin, dest, segment))),
        // `cells_in` already ascends by raw index, as the wire does.
        Request::BboxScan {
            min_lat,
            min_lon,
            max_lat,
            max_lon,
        } => match BBox::new(min_lat, min_lon, max_lat, max_lon) {
            Some(bbox) => Response::Cells(raw(inv.cells_in(&bbox))),
            None => Response::Error("invalid bounding box".into()),
        },
        Request::TopDestinationCells { dest, segment } => {
            let mut cells = raw(inv.cells_with_top_destination(dest, segment));
            cells.sort_unstable();
            Response::Cells(cells)
        }
        Request::Eta {
            lat,
            lon,
            segment,
            route,
        } => match LatLon::new(lat, lon) {
            Some(pos) => Response::Eta(EtaEstimator::new(inv).estimate(pos, segment, route)),
            None => out_of_range(),
        },
        Request::PredictDestination {
            segment,
            top_n,
            ref track,
        } => {
            let mut predictor = DestinationPredictor::new(inv, segment);
            for &(lat, lon) in track {
                let Some(pos) = LatLon::new(lat, lon) else {
                    return Response::Error("track coordinate out of range".into());
                };
                predictor.observe(pos);
            }
            Response::Destinations(predictor.top(top_n as usize))
        }
        Request::Health => Response::Health(HealthReport {
            healthy: true,
            generation: 1,
            draining: false,
        }),
        Request::Ready => Response::Ready(true),
        Request::Batch(ref children) => {
            Response::Batch(children.iter().map(|c| answer(inv, c)).collect())
        }
        Request::Stats => panic!("STATS has no oracle"),
    }
}

fn raw(cells: Vec<CellIndex>) -> Vec<u64> {
    cells.into_iter().map(CellIndex::raw).collect()
}
