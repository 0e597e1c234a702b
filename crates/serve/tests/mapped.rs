//! Zero-copy store equivalence tests: a [`MappedStore`] over a POLINV4
//! snapshot — or over the links of a POLMAN2 chain, merged on read —
//! must answer every query — all three summary levels, bbox scans,
//! top-destination scans, and the `pol-apps` estimators built on top —
//! exactly like the heap [`Inventory`] the snapshot came from (the
//! chain folded by `load_chain`), while corrupt files and links that do
//! not fit the chain are rejected before anything serves from them.

use pol_ais::types::{MarketSegment, Mmsi};
use pol_apps::{Anomaly, AnomalyDetector, DestinationPredictor, EtaEstimator, ProgressEstimator};
use pol_core::codec::{columnar, encode_cell_stats};
use pol_core::features::{CellStats, GroupKey};
use pol_core::records::{CellPoint, TripPoint};
use pol_core::{Inventory, InventoryQuery, Summary};
use pol_geo::{BBox, LatLon};
use pol_hexgrid::{cell_at, CellIndex, Resolution};
use pol_serve::MappedStore;
use pol_sketch::hash::FxHashMap;
use proptest::prelude::*;
use std::path::PathBuf;

fn res() -> Resolution {
    Resolution::new(6).unwrap()
}

/// The `i`-th of `n` reports of the sample.
fn sample_point(i: usize, n: usize) -> TripPoint {
    TripPoint {
        mmsi: Mmsi(1 + (i % 9) as u32),
        timestamp: i as i64 * 60,
        pos: LatLon::new(-55.0 + (i % 111) as f64, -170.0 + (i % 340) as f64).unwrap(),
        sog_knots: Some(8.0 + (i % 14) as f64),
        cog_deg: Some((i * 37 % 360) as f64),
        heading_deg: Some((i * 41 % 360) as f64),
        segment: MarketSegment::from_id((i % 7) as u8).unwrap(),
        trip_id: (i % 13) as u64,
        origin: (i % 6) as u16,
        dest: (i % 8) as u16,
        eto_secs: i as i64 * 45,
        ata_secs: (n - i) as i64 * 45,
    }
}

/// Each report observed in all three grouping sets of its cell.
fn inventory_of(points: impl ExactSizeIterator<Item = TripPoint>) -> Inventory {
    let records = points.len() as u64;
    let mut entries: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
    for point in points {
        let cell = cell_at(point.pos, res());
        let cp = CellPoint {
            point,
            cell,
            next_cell: None,
        };
        for key in [
            GroupKey::Cell(cell),
            GroupKey::CellType(cell, cp.point.segment),
            GroupKey::CellRoute(cell, cp.point.origin, cp.point.dest, cp.point.segment),
        ] {
            entries
                .entry(key)
                .or_insert_with(|| CellStats::new(0.02, 8))
                .observe(&cp);
        }
    }
    Inventory::from_entries(res(), entries, records)
}

/// A deterministic inventory with traffic in all three grouping sets.
fn sample_inventory(n: usize) -> Inventory {
    inventory_of((0..n).map(|i| sample_point(i, n)))
}

/// Lanes dense enough for the normalcy model to judge: the sample's
/// first 24 cells, 40 reports each, every report within 6° of its
/// lane's course.
fn lane_inventory() -> Inventory {
    inventory_of((0..960).map(|i| TripPoint {
        cog_deg: Some((i % 24 * 15 + i % 7) as f64),
        ..sample_point(i % 24, 960)
    }))
}

/// Saves the inventory as `polinv build` does (a POLINV4 file) and maps
/// it.
fn save_and_map(inv: &Inventory, tag: &str) -> (MappedStore, PathBuf) {
    let dir = std::env::temp_dir().join(format!("pol-serve-mapped-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("inv.pol");
    columnar::save(inv, &path).unwrap();
    (MappedStore::open(&path).unwrap(), dir)
}

/// CellStats equality is by canonical encoding (no `PartialEq`).
fn stats_bytes(stats: Option<Summary<'_>>) -> Option<Vec<u8>> {
    stats.map(|s| {
        let mut out = Vec::new();
        s.encode(&mut out);
        out
    })
}

/// A heap scan's cells as the mapped store hands them out: raw, sorted.
fn sorted(cells: Vec<CellIndex>) -> Vec<u64> {
    let mut raws: Vec<u64> = cells.iter().map(|c| c.raw()).collect();
    raws.sort_unstable();
    raws
}

/// The core bit-identity claim: every point lookup at every grouping
/// level answers byte-identically from the mapped file and the heap map.
#[test]
fn mapped_store_equals_heap_inventory_on_every_lookup() {
    const N: usize = 700;
    let heap = sample_inventory(N);
    let (mapped, dir) = save_and_map(&heap, "lookups");

    assert_eq!(mapped.resolution(), InventoryQuery::resolution(&heap));
    assert_eq!(mapped.links(), 1);
    assert_eq!(mapped.total_records(), heap.total_records());
    assert!(mapped.is_mapped() || cfg!(not(unix)));

    for i in 0..N {
        let pos = LatLon::new(-55.0 + (i % 111) as f64, -170.0 + (i % 340) as f64).unwrap();
        let cell = cell_at(pos, res());
        let seg = MarketSegment::from_id((i % 7) as u8).unwrap();
        let (origin, dest) = ((i % 6) as u16, (i % 8) as u16);
        // The heap inventory's inherent `get` returns `&CellStats`;
        // qualify through the trait so both sides answer as `Summary`.
        let keys = [
            ("cell", GroupKey::Cell(cell)),
            ("cell-type", GroupKey::CellType(cell, seg)),
            ("cell-route", GroupKey::CellRoute(cell, origin, dest, seg)),
        ];
        for (level, key) in keys {
            assert_eq!(
                stats_bytes(mapped.summary_at(&key)),
                stats_bytes(InventoryQuery::summary_at(&heap, &key)),
                "{level} {i}"
            );
        }
        // Absent keys answer None from both stores.
        assert!(mapped
            .summary_at(&GroupKey::CellRoute(cell, 400, 401, seg))
            .is_none());
    }
    assert!(mapped.counters().lookups > 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Scans agree: bbox queries walk the latitude index, top-destination
/// queries decode every section entry — both must reproduce the heap
/// answers as sets (the wire sorts before replying).
#[test]
fn mapped_store_equals_heap_inventory_on_scans() {
    let heap = sample_inventory(500);
    let (mapped, dir) = save_and_map(&heap, "scans");

    for i in 0..24usize {
        let lo_lat = -60.0 + (i * 5) as f64;
        let lo_lon = -170.0 + (i * 12) as f64;
        let bbox = BBox::new(lo_lat, lo_lon, lo_lat + 9.0, lo_lon + 15.0).unwrap();
        let mut cells = Vec::new();
        mapped.cells_in(&bbox, &mut cells);
        cells.sort_unstable();
        assert_eq!(cells, sorted(heap.cells_in(&bbox)), "bbox {i}");
    }
    for dest in 0..8u16 {
        for segment in [None, Some(MarketSegment::from_id(2).unwrap())] {
            let mut cells = Vec::new();
            mapped.cells_with_top_destination(dest, segment, &mut cells);
            assert_eq!(
                cells,
                sorted(heap.cells_with_top_destination(dest, segment)),
                "top-dest {dest} {segment:?}"
            );
        }
    }
    assert!(mapped.counters().scan_entries > 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// The estimators are generic over [`InventoryQuery`]; running them
/// against the mapped store must reproduce the heap answers exactly:
/// ETA, progress, anomaly and destination over the sample, anomaly and
/// progress over dense lanes too.
#[test]
fn estimators_agree_across_backends() {
    let heap = sample_inventory(600);
    let (mapped, dir) = save_and_map(&heap, "estimators");

    for i in 0..80usize {
        let pos = sample_point(i, 600).pos;
        let seg = MarketSegment::from_id((i % 7) as u8).unwrap();
        let route = (i % 2 == 0).then_some(((i % 6) as u16, (i % 8) as u16));
        assert_eq!(
            EtaEstimator::new(&mapped).estimate(pos, Some(seg), route),
            EtaEstimator::new(&heap).estimate(pos, Some(seg), route),
            "eta {i}"
        );
        let now = 1_700_000_000 + i as i64;
        assert_eq!(
            ProgressEstimator::new(&mapped).estimate(pos, now, Some(seg), route),
            ProgressEstimator::new(&heap).estimate(pos, now, Some(seg), route),
            "progress {i}"
        );
        let (sog, cog) = (Some(4.0 + (i % 19) as f64), Some((i * 53 % 360) as f64));
        let segment = (i % 3 != 0).then_some(seg);
        assert_eq!(
            AnomalyDetector::new(&mapped).assess(pos, sog, cog, segment),
            AnomalyDetector::new(&heap).assess(pos, sog, cog, segment),
            "anomaly {i}"
        );

        let track: Vec<LatLon> = (0..5).map(|k| sample_point(i + k, 600).pos).collect();
        let mut from_mapped = DestinationPredictor::new(&mapped, None);
        let mut from_heap = DestinationPredictor::new(&heap, None);
        for p in &track {
            from_mapped.observe(*p);
            from_heap.observe(*p);
        }
        assert_eq!(from_mapped.top(3), from_heap.top(3), "predict {i}");
    }
    std::fs::remove_dir_all(&dir).ok();

    // The sample holds one record a cell, too few for the normalcy model
    // to judge speed or course; the lanes are dense enough, and most of
    // the sample's positions lie off them.
    let heap = lane_inventory();
    let (mapped, dir) = save_and_map(&heap, "estimators-lanes");
    let positions = (0..80usize).map(|i| sample_point(i, 80).pos);
    let mut fired = [0usize; 3];
    for (i, pos) in positions.enumerate() {
        let seg = MarketSegment::from_id((i % 7) as u8).unwrap();
        let segment = (i % 3 != 0).then_some(seg);
        let (sog, cog) = (Some((i % 29) as f64), Some((i * 53 % 360) as f64));
        let anomalies = AnomalyDetector::new(&heap).assess(pos, sog, cog, segment);
        assert_eq!(
            AnomalyDetector::new(&mapped).assess(pos, sog, cog, segment),
            anomalies,
            "lane anomaly {i}"
        );
        for anomaly in anomalies {
            fired[match anomaly {
                Anomaly::Speed { .. } => 0,
                Anomaly::Course { .. } => 1,
                Anomaly::OffLane => 2,
            }] += 1;
        }
        assert_eq!(
            ProgressEstimator::new(&mapped).estimate(pos, 1_700_000_000, segment, None),
            ProgressEstimator::new(&heap).estimate(pos, 1_700_000_000, segment, None),
            "lane progress {i}"
        );
    }
    assert!(
        fired.iter().all(|&n| n > 0),
        "speed, course, off-lane: {fired:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Corruption is caught at `open` — a mapped store never serves from a
/// damaged file (validation happens before any query runs).
#[test]
fn corrupt_snapshot_is_rejected_at_open() {
    let dir = std::env::temp_dir().join(format!("pol-serve-mapped-bad-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let v3 = columnar::to_bytes(&sample_inventory(200));
    for (name, mutate) in [
        (
            "truncated",
            Box::new(|b: &mut Vec<u8>| b.truncate(b.len() / 2)) as Box<dyn Fn(&mut Vec<u8>)>,
        ),
        (
            "bitflip",
            Box::new(|b: &mut Vec<u8>| {
                let mid = b.len() / 2;
                b[mid] ^= 0x40;
            }),
        ),
        ("empty", Box::new(|b: &mut Vec<u8>| b.clear())),
    ] {
        let mut bytes = v3.clone();
        mutate(&mut bytes);
        let path = dir.join(format!("{name}.pol3"));
        std::fs::write(&path, &bytes).unwrap();
        assert!(MappedStore::open(&path).is_err(), "{name} must not open");
    }
    // Another format's magic is not a POLINV4 file.
    let v2path = dir.join("v2.pol");
    std::fs::write(&v2path, b"POLINV2\0 and the rest of a retired file").unwrap();
    assert!(MappedStore::open(&v2path).is_err());

    std::fs::remove_dir_all(&dir).ok();
}

/// A fleetsim fleet through the fused build, written as POLINV4: real
/// sketches of every shape (empty, single-sample, saturated) in all
/// three grouping sets.
fn fleetsim_snapshot(tag: &str) -> (Inventory, PathBuf) {
    use pol_core::records::PortSite;
    use pol_fleetsim::scenario::{generate, ScenarioConfig};
    let ds = generate(&ScenarioConfig::tiny());
    let cfg = pol_core::PipelineConfig::default();
    let ports: Vec<PortSite> = pol_fleetsim::WORLD_PORTS
        .iter()
        .enumerate()
        .map(|(i, p)| PortSite {
            id: i as u16,
            name: p.name.to_string(),
            pos: p.pos(),
            radius_km: cfg.port_radius_km,
        })
        .collect();
    let built = pol_core::run_fused(
        &pol_engine::Engine::new(2),
        ds.positions,
        &ds.statics,
        &ports,
        &cfg,
    )
    .unwrap();
    let dir = std::env::temp_dir().join(format!("pol-serve-mapped-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    columnar::save(&built.inventory, &dir.join("inv.pol3")).unwrap();
    (built.inventory, dir)
}

/// What lets a summary reply be the file's bytes: for every entry of
/// every section, the stored blob is exactly what `encode_cell_stats`
/// makes of the entry decoded — so passing it through equals decoding and
/// re-encoding it — and the store hands out that same blob by key,
/// counting the lookup.
#[test]
fn stored_stats_bytes_are_the_canonical_encoding() {
    let (inventory, dir) = fleetsim_snapshot("passthrough");
    let path = dir.join("inv.pol3");
    let bytes = std::fs::read(&path).unwrap();
    let layout = columnar::Layout::parse(&bytes).unwrap();
    let mapped = MappedStore::open(&path).unwrap();
    let mut entries = 0u64;
    for span in [&layout.cell, &layout.cell_type, &layout.cell_route] {
        let reader = columnar::SectionReader::new(&bytes, span).unwrap();
        for i in 0..reader.len() {
            let stored = reader.stats_bytes(i).unwrap();
            let mut reencoded = Vec::new();
            encode_cell_stats(&reader.decode_stats(i).unwrap(), &mut reencoded);
            assert_eq!(stored, reencoded, "{:?} entry {i}", reader.kind());
            let key = reader.group_key_at(i).unwrap();
            match mapped.summary_at(&key) {
                Some(Summary::Encoded(bytes)) => assert_eq!(bytes, stored, "{key:?}"),
                other => panic!("{key:?}: {other:?}"),
            }
            entries += 1;
        }
    }
    assert_eq!(entries, inventory.len() as u64);
    assert!(entries > 100, "the fleet left too few entries to mean much");
    assert_eq!(mapped.counters().lookups, entries);
    assert_eq!(mapped.counters().decode_errors, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// The readers the estimators use answer off a mapped entry's bytes
/// what the decode answers: for every entry of every section, the ETA's
/// `arrival_quantiles` is the decoded `ata` and `ata_q.quantiles`, and
/// the prediction's `heaviest_destinations` is `decode_destinations` then
/// `top(8)` — and the heap entry's `Summary` answers the same.
#[test]
fn byte_level_readers_equal_decode_then_query_on_every_entry() {
    use pol_core::codec::decode_destinations;
    const PHIS: [f64; 3] = [0.1, 0.5, 0.9];
    let (inventory, dir) = fleetsim_snapshot("readers");
    let bytes = std::fs::read(dir.join("inv.pol3")).unwrap();
    let layout = columnar::Layout::parse(&bytes).unwrap();
    let (mut entries, mut with_arrivals, mut voting) = (0, 0, 0);
    for span in [&layout.cell, &layout.cell_type, &layout.cell_route] {
        let reader = columnar::SectionReader::new(&bytes, span).unwrap();
        for i in 0..reader.len() {
            let stored = reader.stats_bytes(i).unwrap();
            let key = reader.group_key_at(i).unwrap();
            let decoded = Summary::Encoded(stored).to_stats().unwrap();
            let (ata, quantiles) = (decoded.ata, decoded.ata_q.quantiles(PHIS));
            let top = decode_destinations(stored).unwrap().top(8);
            let heap = Summary::Stats(inventory.get(&key).unwrap());
            for summary in [Summary::Encoded(stored), heap] {
                let (read_ata, read_quantiles) = summary.arrival_quantiles(PHIS).unwrap();
                assert_eq!(read_ata, ata, "{key:?}");
                assert_eq!(read_quantiles, quantiles, "{key:?}");
                let heaviest = summary.heaviest_destinations::<8>().unwrap();
                assert_eq!(heaviest.as_slice(), &top[..], "{key:?}");
            }
            entries += 1;
            with_arrivals += usize::from(quantiles[0].is_some());
            voting += usize::from(!top.is_empty());
        }
    }
    assert_eq!(entries, inventory.len());
    assert!(
        with_arrivals > 100 && voting > 100,
        "{with_arrivals} {voting}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The two forms of an answer are pinned equal: what `execute_into`
/// appends is byte for byte `encode_response(&execute(req))`, on the
/// mapped store and on the heap, for every endpoint — hits at all three
/// grouping sets over every stored key, a miss, out-of-range
/// coordinates, and a batch of all of them.
#[test]
fn append_form_equals_typed_form_on_every_endpoint() {
    use pol_core::features::GroupKey;
    use pol_hexgrid::cell_center;
    use pol_serve::proto::{decode_response, encode_response, Request, Response};
    use pol_serve::{InventoryService, ServerConfig, ServerMetrics};
    use std::sync::Arc;

    let (inventory, dir) = fleetsim_snapshot("append-form");
    let at = |c: CellIndex| (cell_center(c).lat(), cell_center(c).lon());
    let mut requests: Vec<Request> = inventory
        .iter()
        .map(|(key, _)| match *key {
            GroupKey::Cell(c) => Request::PointSummary {
                lat: at(c).0,
                lon: at(c).1,
            },
            GroupKey::CellType(c, segment) => Request::SegmentSummary {
                lat: at(c).0,
                lon: at(c).1,
                segment,
            },
            GroupKey::CellRoute(c, origin, dest, segment) => Request::RouteSummary {
                lat: at(c).0,
                lon: at(c).1,
                origin,
                dest,
                segment,
            },
        })
        .collect();
    let (lat, lon) = at(inventory.cells().next().unwrap());
    let segment = MarketSegment::Tanker;
    let others = vec![
        // A miss at each grouping set (mid-Sahara; a route no one sails).
        Request::PointSummary {
            lat: 23.0,
            lon: 12.0,
        },
        Request::SegmentSummary {
            lat: 23.0,
            lon: 12.0,
            segment,
        },
        Request::RouteSummary {
            lat,
            lon,
            origin: 60_000,
            dest: 60_001,
            segment,
        },
        // Out of range, at each summary kind.
        Request::PointSummary {
            lat: 95.0,
            lon: 0.0,
        },
        Request::SegmentSummary {
            lat: 0.0,
            lon: 999.0,
            segment,
        },
        Request::RouteSummary {
            lat: f64::NAN,
            lon: 0.0,
            origin: 1,
            dest: 2,
            segment,
        },
        Request::BboxScan {
            min_lat: lat - 5.0,
            min_lon: lon - 5.0,
            max_lat: lat + 5.0,
            max_lon: lon + 5.0,
        },
        Request::BboxScan {
            min_lat: 10.0,
            min_lon: 0.0,
            max_lat: -10.0,
            max_lon: 5.0,
        },
        Request::TopDestinationCells {
            dest: 3,
            segment: None,
        },
        Request::Eta {
            lat,
            lon,
            segment: None,
            route: None,
        },
        Request::PredictDestination {
            segment: None,
            top_n: 3,
            track: vec![(lat, lon), (lat + 0.1, lon + 0.1)],
        },
        Request::Ping,
        Request::Health,
        Request::Ready,
    ];
    requests.extend(others.iter().cloned());
    requests.push(Request::Batch(others));
    requests.push(Request::Batch(requests.iter().take(40).cloned().collect()));
    requests.push(Request::Batch(Vec::new()));

    let config = ServerConfig::default();
    let metrics = || Arc::new(ServerMetrics::new());
    let on_mapped =
        InventoryService::open_snapshot(&dir.join("inv.pol3"), &config, metrics()).unwrap();
    let on_heap = InventoryService::new(inventory, metrics());
    for (store, service) in [("mapped", &on_mapped), ("in memory", &on_heap)] {
        let mut hits = 0;
        for req in &requests {
            let typed = service.execute(req);
            hits += usize::from(matches!(typed, Response::Summary(Some(_))));
            // Appended after bytes that are already there, as a reply
            // is appended to a write buffer.
            let mut appended = b"earlier".to_vec();
            service.execute_into(req, &mut appended);
            assert_eq!(&appended[7..], encode_response(&typed), "{store}: {req:?}");
        }
        assert!(hits > 100, "{store}: only {hits} summary hits");
        // STATS reads clocks and counters; its two forms are taken a
        // moment apart, so they are compared field by field.
        let mut appended = Vec::new();
        service.execute_into(&Request::Stats, &mut appended);
        match (
            decode_response(&appended).unwrap(),
            service.execute(&Request::Stats),
        ) {
            (Response::Stats(mut a), Response::Stats(b)) => {
                a.since_reload_secs = b.since_reload_secs;
                assert_eq!(a, b, "{store}: STATS");
            }
            other => panic!("{store}: expected two STATS replies, got {other:?}"),
        }
    }
    // The heap and the mapped store append the same bytes, too.
    for req in &requests {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        on_mapped.execute_into(req, &mut a);
        on_heap.execute_into(req, &mut b);
        assert_eq!(a, b, "{req:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// What the heap inventory answers to `req`, computed directly from it:
/// the oracle every reply of the chain tests is compared with.
fn heap_answer(inv: &Inventory, req: &pol_serve::Request) -> pol_serve::Response {
    use pol_serve::{Request, Response};
    let cell = |lat, lon| cell_at(LatLon::new(lat, lon).unwrap(), inv.resolution());
    match req {
        Request::PointSummary { lat, lon } => {
            Response::Summary(inv.summary(cell(*lat, *lon)).cloned())
        }
        Request::SegmentSummary { lat, lon, segment } => {
            Response::Summary(inv.summary_for(cell(*lat, *lon), *segment).cloned())
        }
        Request::RouteSummary {
            lat,
            lon,
            origin,
            dest,
            segment,
        } => Response::Summary(
            inv.summary_route(cell(*lat, *lon), *origin, *dest, *segment)
                .cloned(),
        ),
        Request::BboxScan {
            min_lat,
            min_lon,
            max_lat,
            max_lon,
        } => {
            let bbox = BBox::new(*min_lat, *min_lon, *max_lat, *max_lon).unwrap();
            Response::Cells(sorted(inv.cells_in(&bbox)))
        }
        Request::TopDestinationCells { dest, segment } => {
            Response::Cells(sorted(inv.cells_with_top_destination(*dest, *segment)))
        }
        Request::Eta {
            lat,
            lon,
            segment,
            route,
        } => Response::Eta(EtaEstimator::new(inv).estimate(
            LatLon::new(*lat, *lon).unwrap(),
            *segment,
            *route,
        )),
        Request::PredictDestination {
            segment,
            top_n,
            track,
        } => {
            let mut predictor = DestinationPredictor::new(inv, *segment);
            for (lat, lon) in track {
                predictor.observe(LatLon::new(*lat, *lon).unwrap());
            }
            Response::Destinations(predictor.top(*top_n as usize))
        }
        Request::Batch(children) => {
            Response::Batch(children.iter().map(|c| heap_answer(inv, c)).collect())
        }
        other => panic!("no heap answer for {other:?}"),
    }
}

/// One link of a generated chain.
#[derive(Clone, Debug)]
struct LinkSpec {
    /// Ordinary points, drawn from a pool of positions every link
    /// shares, so links overlap in some keys and not in others.
    points: usize,
    salt: u64,
    /// Distinct vessels at the hot cell: 300 promote its counters to
    /// HyperLogLog in the link, two links of 150 promote on merge.
    hot_vessels: usize,
    /// Points bound for `flip.0` at the flip cell: a later link with
    /// more of another destination takes the top destination over.
    flip: (u16, usize),
}

const HOT: (f64, f64) = (-2.0, 33.0);
const FLIP: (f64, f64) = (4.0, 27.0);

/// The pool positions, the hot cell and the flip cell.
fn positions() -> Vec<(f64, f64)> {
    let mut all: Vec<(f64, f64)> = (0..24u64)
        .map(|k| (-12.0 + (k % 6) as f64 * 2.5, 20.0 + (k / 6) as f64 * 3.0))
        .collect();
    all.extend([HOT, FLIP]);
    all
}

fn link_inventory(spec: &LinkSpec) -> Inventory {
    let pool = positions();
    let mut entries: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
    let mut observe = |(lat, lon): (f64, f64), k: u64, mmsi: u32, dest: u16| {
        let pos = LatLon::new(lat, lon).unwrap();
        let cell = cell_at(pos, res());
        let cp = CellPoint {
            point: TripPoint {
                mmsi: Mmsi(mmsi),
                timestamp: k as i64 * 60,
                pos,
                sog_knots: Some(5.0 + (k % 17) as f64),
                cog_deg: Some((k * 31 % 360) as f64),
                heading_deg: (k % 3 == 0).then_some((k * 29 % 360) as f64),
                segment: MarketSegment::from_id((k % 4) as u8).unwrap(),
                trip_id: k % 7,
                origin: (k % 3) as u16,
                dest,
                eto_secs: k as i64 * 40,
                ata_secs: 5_000 - k as i64 * 7,
            },
            cell,
            next_cell: None,
        };
        for key in [
            GroupKey::Cell(cell),
            GroupKey::CellType(cell, cp.point.segment),
            GroupKey::CellRoute(cell, cp.point.origin, dest, cp.point.segment),
        ] {
            entries
                .entry(key)
                .or_insert_with(|| CellStats::new(0.02, 8))
                .observe(&cp);
        }
    };
    for i in 0..spec.points as u64 {
        let k = i * 7 + spec.salt * 13;
        let at = pool[(k % (spec.salt % 5 + 20)) as usize];
        observe(at, k, 300 + (k % 11) as u32, (k % 5) as u16);
    }
    for v in 0..spec.hot_vessels as u64 {
        observe(HOT, v, 10_000 + (spec.salt * 1_000 + v) as u32, 1);
    }
    for f in 0..spec.flip.1 as u64 {
        observe(FLIP, f * 4, 500 + f as u32, spec.flip.0);
    }
    let records = spec.points + spec.hot_vessels + spec.flip.1;
    Inventory::from_entries(res(), entries, records as u64)
}

fn arb_link() -> impl Strategy<Value = LinkSpec> {
    (
        (0usize..6, 1usize..90),
        0u64..40,
        0usize..3,
        (20u16..23, 0usize..9),
    )
        .prop_map(|((empty, points), salt, hot, flip)| LinkSpec {
            // One link in six is empty.
            points: if empty == 0 { 0 } else { points },
            salt,
            hot_vessels: if empty == 0 { 0 } else { hot * 150 },
            flip: (flip.0, if empty == 0 { 0 } else { flip.1 }),
        })
}

/// Every request kind, over the pool, the hot and the flip cell.
fn chain_requests() -> Vec<pol_serve::Request> {
    use pol_serve::Request;
    let pool = positions();
    let mut requests = Vec::new();
    for (i, &(lat, lon)) in pool.iter().enumerate() {
        let segment = MarketSegment::from_id((i % 4) as u8).unwrap();
        let route = ((i % 3) as u16, (i % 5) as u16);
        requests.push(Request::PointSummary { lat, lon });
        requests.push(Request::SegmentSummary { lat, lon, segment });
        requests.push(Request::RouteSummary {
            lat,
            lon,
            origin: route.0,
            dest: route.1,
            segment,
        });
        requests.push(Request::Eta {
            lat,
            lon,
            segment: Some(segment),
            route: (i % 2 == 0).then_some(route),
        });
    }
    for (min_lat, min_lon, max_lat, max_lon) in [
        (-15.0, 15.0, 10.0, 35.0),
        (-8.0, 19.0, 0.0, 26.0),
        (40.0, 40.0, 50.0, 50.0),
    ] {
        requests.push(Request::BboxScan {
            min_lat,
            min_lon,
            max_lat,
            max_lon,
        });
    }
    for dest in (0..5).chain(20..23) {
        for segment in [None, Some(MarketSegment::from_id(0).unwrap())] {
            requests.push(Request::TopDestinationCells { dest, segment });
        }
    }
    let track: Vec<(f64, f64)> = pool.iter().step_by(3).copied().collect();
    for segment in [None, Some(MarketSegment::from_id(1).unwrap())] {
        requests.push(Request::PredictDestination {
            segment,
            top_n: 3,
            track: track.clone(),
        });
    }
    let batch = Request::Batch(requests.iter().step_by(5).cloned().collect());
    requests.push(batch);
    requests
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Merge-on-read equals the heap fold: a chain of 1–12 links mapped
    /// in one go, and the same chain mapped a link at a time the way hot
    /// reloads extend it, answer every request kind with the bytes the
    /// `load_chain` inventory's own answer encodes to — past `MAX_LINKS`
    /// links too, where the store folds them into one and then extends
    /// the fold.
    #[test]
    fn merge_on_read_equals_the_heap_fold(links in prop::collection::vec(arb_link(), 1..=12)) {
        use pol_core::codec::manifest::{self, Manifest, ManifestEntry};
        use pol_serve::proto::encode_response;
        use pol_serve::{InventoryService, ServerConfig, ServerMetrics};
        use std::sync::Arc;

        static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("pol-serve-mapped-chain-{}-{case}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let man_path = dir.join("inventory.polman");
        let mut man = Manifest { entries: Vec::new() };
        let mut extended: Option<MappedStore> = None;
        for (generation, spec) in links.iter().enumerate() {
            let bytes = columnar::to_bytes(&link_inventory(spec));
            let name = format!("link-{generation:05}.pol");
            pol_core::codec::save_bytes(&bytes, &dir.join(&name)).unwrap();
            man.entries.push(ManifestEntry::for_link(generation as u64, name, &bytes).unwrap());
            let new = man.entries.get(generation..).unwrap();
            extended = Some(MappedStore::extend(extended.as_ref(), &dir, new).unwrap());
        }
        manifest::save(&man, &man_path).unwrap();
        let extended = extended.unwrap();
        let (folded, _) = manifest::load_chain(&man_path).unwrap();

        // Mapped in one go, behind the service: the reply bytes.
        let service = InventoryService::open_snapshot(
            &man_path,
            &ServerConfig::default(),
            Arc::new(ServerMetrics::new()),
        )
        .unwrap();
        let served = if links.len() > pol_serve::mapped::MAX_LINKS { 1 } else { links.len() };
        prop_assert_eq!(service.store().links(), served);
        prop_assert_eq!(service.store().total_records(), folded.total_records());
        for req in &chain_requests() {
            let mut reply = Vec::new();
            service.execute_into(req, &mut reply);
            prop_assert_eq!(reply, encode_response(&heap_answer(&folded, req)), "{:?}", req);
        }

        // Mapped a link at a time: the store's own answers, at every key.
        prop_assert!(extended.links() <= pol_serve::mapped::MAX_LINKS);
        prop_assert_eq!(extended.total_records(), folded.total_records());
        for (key, stats) in folded.iter() {
            prop_assert_eq!(
                stats_bytes(extended.summary_at(key)),
                stats_bytes(Some(Summary::Stats(stats))),
                "{:?}", key
            );
        }
        for req in &chain_requests() {
            let mut cells = Vec::new();
            let got = match *req {
                pol_serve::Request::BboxScan { min_lat, min_lon, max_lat, max_lon } => {
                    extended.cells_in(&BBox::new(min_lat, min_lon, max_lat, max_lon).unwrap(), &mut cells);
                    pol_serve::Response::Cells(cells)
                }
                pol_serve::Request::TopDestinationCells { dest, segment } => {
                    extended.cells_with_top_destination(dest, segment, &mut cells);
                    pol_serve::Response::Cells(cells)
                }
                pol_serve::Request::Eta { lat, lon, segment, route } => pol_serve::Response::Eta(
                    EtaEstimator::new(&extended).estimate(LatLon::new(lat, lon).unwrap(), segment, route),
                ),
                _ => continue,
            };
            prop_assert_eq!(
                encode_response(&got),
                encode_response(&heap_answer(&folded, req)),
                "{:?}",
                req
            );
        }
        prop_assert_eq!(extended.counters().decode_errors, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A link at another resolution does not fit the chain: the reload that
/// names it is a typed error, and the served chain keeps answering and
/// stays the one remembered.
#[test]
fn a_link_at_another_resolution_is_refused_and_nothing_is_swapped() {
    use pol_core::codec::manifest::{self, Manifest, ManifestEntry};
    use pol_core::codec::CodecError;
    use pol_serve::{Client, Server, ServerConfig};

    let dir = std::env::temp_dir().join(format!("pol-serve-mapped-res-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let man_path = dir.join("inventory.polman");
    let link = |generation: u64, inv: &Inventory| {
        let bytes = columnar::to_bytes(inv);
        let name = format!("link-{generation}.pol");
        pol_core::codec::save_bytes(&bytes, &dir.join(&name)).unwrap();
        ManifestEntry::for_link(generation, name, &bytes).unwrap()
    };
    let mut man = Manifest {
        entries: vec![
            link(0, &sample_inventory(200)),
            link(1, &sample_inventory(90)),
        ],
    };
    manifest::save(&man, &man_path).unwrap();
    let config = ServerConfig {
        worker_threads: 1,
        ..ServerConfig::default()
    };
    let server = Server::start_snapshot(&man_path, "127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let probe = |client: &mut Client| client.bbox_scan(-60.0, -175.0, 60.0, 175.0).unwrap();
    let before = probe(&mut client);

    let coarse = Inventory::from_entries(Resolution::new(5).unwrap(), FxHashMap::default(), 0);
    man.entries.push(link(2, &coarse));
    manifest::save(&man, &man_path).unwrap();
    match server.reload_from(&man_path) {
        Err(CodecError::Wire(e)) => assert!(e.to_string().contains("resolution"), "{e}"),
        other => panic!("expected a resolution mismatch, got {other:?}"),
    }
    let report = client.stats().unwrap();
    assert_eq!((report.reloads_ok, report.reloads_failed), (0, 1));
    assert_eq!((report.chain_len, report.delta_generation), (2, 1));
    assert_eq!(probe(&mut client), before);
    std::fs::remove_dir_all(&dir).ok();
}
