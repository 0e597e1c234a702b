//! Zero-copy store equivalence tests (ISSUE tentpole): a
//! [`MappedStore`] over a POLINV3 snapshot must answer every
//! query — all three summary levels, bbox scans, top-destination scans,
//! and the `pol-apps` estimators built on top — exactly like the heap
//! [`Inventory`] the snapshot came from, while corrupt files are
//! rejected at open time.

use pol_ais::types::{MarketSegment, Mmsi};
use pol_apps::destination::DestinationPredictor;
use pol_apps::eta::EtaEstimator;
use pol_core::codec::{columnar, encode_cell_stats};
use pol_core::features::{CellStats, GroupKey};
use pol_core::records::{CellPoint, TripPoint};
use pol_core::{Inventory, InventoryQuery, Summary};
use pol_geo::{BBox, LatLon};
use pol_hexgrid::{cell_at, CellIndex, Resolution};
use pol_serve::MappedStore;
use pol_sketch::hash::FxHashMap;
use std::path::PathBuf;

fn res() -> Resolution {
    Resolution::new(6).unwrap()
}

/// A deterministic inventory with traffic in all three grouping sets.
fn sample_inventory(n: usize) -> Inventory {
    let mut entries: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
    for i in 0..n {
        let pos = LatLon::new(-55.0 + (i % 111) as f64, -170.0 + (i % 340) as f64).unwrap();
        let cell = cell_at(pos, res());
        let cp = CellPoint {
            point: TripPoint {
                mmsi: Mmsi(1 + (i % 9) as u32),
                timestamp: i as i64 * 60,
                pos,
                sog_knots: Some(8.0 + (i % 14) as f64),
                cog_deg: Some((i * 37 % 360) as f64),
                heading_deg: Some((i * 41 % 360) as f64),
                segment: MarketSegment::from_id((i % 7) as u8).unwrap(),
                trip_id: (i % 13) as u64,
                origin: (i % 6) as u16,
                dest: (i % 8) as u16,
                eto_secs: i as i64 * 45,
                ata_secs: (n - i) as i64 * 45,
            },
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
    Inventory::from_entries(res(), entries, n as u64)
}

/// Saves the inventory as `polinv build` does (a POLINV3 file) and maps
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
    assert_eq!(mapped.len(), heap.len());
    assert_eq!(mapped.total_records(), heap.total_records());
    assert!(mapped.is_mapped() || cfg!(not(unix)));

    for i in 0..N {
        let pos = LatLon::new(-55.0 + (i % 111) as f64, -170.0 + (i % 340) as f64).unwrap();
        let cell = cell_at(pos, res());
        let seg = MarketSegment::from_id((i % 7) as u8).unwrap();
        let (origin, dest) = ((i % 6) as u16, (i % 8) as u16);
        // The heap inventory's inherent methods return `&CellStats`;
        // qualify through the trait so both sides answer as `Summary`.
        assert_eq!(
            stats_bytes(mapped.summary(cell)),
            stats_bytes(InventoryQuery::summary(&heap, cell)),
            "cell {i}"
        );
        assert_eq!(
            stats_bytes(mapped.summary_for(cell, seg)),
            stats_bytes(InventoryQuery::summary_for(&heap, cell, seg)),
            "cell-type {i}"
        );
        assert_eq!(
            stats_bytes(mapped.summary_route(cell, origin, dest, seg)),
            stats_bytes(InventoryQuery::summary_route(
                &heap, cell, origin, dest, seg
            )),
            "cell-route {i}"
        );
        // Absent keys answer None from both stores.
        assert!(mapped.summary_route(cell, 400, 401, seg).is_none());
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
/// against the mapped store must reproduce the heap answers exactly.
#[test]
fn estimators_agree_across_backends() {
    let heap = sample_inventory(600);
    let (mapped, dir) = save_and_map(&heap, "estimators");

    for i in 0..80usize {
        let pos = LatLon::new(-55.0 + (i % 111) as f64, -170.0 + (i % 340) as f64).unwrap();
        let seg = MarketSegment::from_id((i % 7) as u8).unwrap();
        let route = (i % 2 == 0).then_some(((i % 6) as u16, (i % 8) as u16));
        assert_eq!(
            EtaEstimator::new(&mapped).estimate(pos, Some(seg), route),
            EtaEstimator::new(&heap).estimate(pos, Some(seg), route),
            "eta {i}"
        );

        let track: Vec<LatLon> = (0..5)
            .map(|k| {
                LatLon::new(
                    -55.0 + ((i + k) % 111) as f64,
                    -170.0 + ((i + k) % 340) as f64,
                )
                .unwrap()
            })
            .collect();
        let mut from_mapped = DestinationPredictor::new(&mapped, None);
        let mut from_heap = DestinationPredictor::new(&heap, None);
        for p in &track {
            from_mapped.observe(*p);
            from_heap.observe(*p);
        }
        assert_eq!(from_mapped.top(3), from_heap.top(3), "predict {i}");
    }
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
    // Another format's magic is not a POLINV3 file.
    let v2path = dir.join("v2.pol");
    std::fs::write(&v2path, b"POLINV2\0 and the rest of a retired file").unwrap();
    assert!(MappedStore::open(&v2path).is_err());

    std::fs::remove_dir_all(&dir).ok();
}

/// A fleetsim fleet through the fused build, written as POLINV3: real
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
            assert_eq!(mapped.stats_bytes(&key), Some(stored), "{key:?}");
            entries += 1;
        }
    }
    assert_eq!(entries, inventory.len() as u64);
    assert!(entries > 100, "the fleet left too few entries to mean much");
    assert_eq!(mapped.counters().lookups, entries);
    assert_eq!(mapped.counters().decode_errors, 0);
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
    assert_eq!(on_mapped.store().name(), "mapped-columnar");
    let on_heap = InventoryService::new(inventory, metrics());
    for service in [&on_mapped, &on_heap] {
        let store = service.store().name();
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
