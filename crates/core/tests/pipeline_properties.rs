//! Property tests on the pipeline's §5-DESIGN.md invariants: cleaning
//! idempotence, grouping-set consistency, codec round-trips and inventory
//! merge associativity over randomly-shaped miniature worlds.

use pol_ais::types::{Mmsi, NavStatus, ShipTypeCode};
use pol_ais::{PositionReport, StaticReport};
use pol_core::codec::columnar;
use pol_core::features::{CellStats, GroupKey};
use pol_core::records::PortSite;
use pol_core::reference;
use pol_core::{Inventory, PipelineConfig};
use pol_engine::Engine;
use pol_geo::LatLon;
use pol_hexgrid::Resolution;
use pol_sketch::hash::FxHashMap;
use proptest::prelude::*;

fn arb_report(mmsi: u32) -> impl Strategy<Value = PositionReport> {
    (
        0i64..1_000_000,
        30.0f64..60.0,
        -20.0f64..20.0,
        prop::option::of(0.0f64..30.0),
        prop::option::of(0.0f64..359.9),
        0u8..9,
    )
        .prop_map(move |(t, lat, lon, sog, cog, st)| PositionReport {
            mmsi: Mmsi(mmsi),
            timestamp: t,
            pos: LatLon::new(lat, lon).unwrap(),
            sog_knots: sog,
            cog_deg: cog,
            heading_deg: cog,
            nav_status: NavStatus::from_raw(st),
        })
}

fn statics(mmsi: u32) -> StaticReport {
    StaticReport {
        mmsi: Mmsi(mmsi),
        imo: None,
        name: "PROP VESSEL".into(),
        ship_type: ShipTypeCode(71),
        gross_tonnage: 50_000,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cleaning is idempotent: running the cleaning stage on its own
    /// output changes nothing.
    #[test]
    fn cleaning_is_idempotent(reports in prop::collection::vec(arb_report(77), 0..200)) {
        let cfg = PipelineConfig::default();
        let st = vec![statics(77)];
        let third = reports.len().div_ceil(3).max(1);
        let (once, _) = reference::clean(
            reports.chunks(third).map(<[_]>::to_vec).collect(),
            &st,
            &cfg,
        );
        let once_rows: Vec<_> = once.into_values().flatten().collect();
        // Re-feed the cleaned output (as raw reports again).
        let raw_again: Vec<PositionReport> = once_rows
            .iter()
            .map(|e| PositionReport {
                mmsi: e.mmsi,
                timestamp: e.timestamp,
                pos: e.pos,
                sog_knots: e.sog_knots,
                cog_deg: e.cog_deg,
                heading_deg: e.heading_deg,
                nav_status: e.nav_status,
            })
            .collect();
        let half = raw_again.len().div_ceil(2).max(1);
        let (twice, report2) = reference::clean(
            raw_again.chunks(half).map(<[_]>::to_vec).collect(),
            &st,
            &cfg,
        );
        let twice_rows: Vec<_> = twice.into_values().flatten().collect();
        prop_assert_eq!(once_rows, twice_rows);
        prop_assert_eq!(
            report2.out_of_range + report2.duplicates + report2.infeasible + report2.non_commercial,
            0
        );
    }

    /// Inventory merge is associative and order-insensitive on the
    /// observable statistics.
    #[test]
    fn inventory_merge_associative(
        xs in prop::collection::vec((30.0f64..60.0, -20.0f64..20.0, 0u64..5), 1..60),
        ys in prop::collection::vec((30.0f64..60.0, -20.0f64..20.0, 0u64..5), 1..60),
        zs in prop::collection::vec((30.0f64..60.0, -20.0f64..20.0, 0u64..5), 1..60),
    ) {
        let res = Resolution::new(5).unwrap();
        let build = |pts: &[(f64, f64, u64)]| -> Inventory {
            let mut entries: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
            for (lat, lon, trip) in pts {
                let pos = LatLon::new(*lat, *lon).unwrap();
                let cell = pol_hexgrid::cell_at(pos, res);
                let cp = pol_core::records::CellPoint {
                    point: pol_core::records::TripPoint {
                        mmsi: Mmsi(9),
                        timestamp: 0,
                        pos,
                        sog_knots: Some(12.0),
                        cog_deg: Some(45.0),
                        heading_deg: Some(45.0),
                        segment: pol_ais::types::MarketSegment::Container,
                        trip_id: *trip,
                        origin: 1,
                        dest: 2,
                        eto_secs: 10,
                        ata_secs: 20,
                    },
                    cell,
                    next_cell: None,
                };
                entries
                    .entry(GroupKey::Cell(cell))
                    .or_insert_with(|| CellStats::new(0.05, 4))
                    .observe(&cp);
            }
            Inventory::from_entries(res, entries, pts.len() as u64)
        };
        let (a, b, c) = (build(&xs), build(&ys), build(&zs));
        // (a ⊕ b) ⊕ c
        let mut left = build(&xs);
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = build(&ys);
        bc.merge(&c);
        let mut right = build(&xs);
        right.merge(&bc);
        prop_assert_eq!(left.len(), right.len());
        prop_assert_eq!(left.total_records(), right.total_records());
        for (key, ls) in left.iter() {
            let rs = right.get(key).expect("same key space");
            prop_assert_eq!(ls.records, rs.records);
            prop_assert_eq!(ls.trips.estimate(), rs.trips.estimate());
            match (ls.speed.mean(), rs.speed.mean()) {
                (Some(x), Some(y)) => prop_assert!((x - y).abs() < 1e-9),
                (None, None) => {}
                other => prop_assert!(false, "{other:?}"),
            }
        }
        let _ = a; // silence: a is reconstructed as `left`'s base
        // And the merged total equals the sum of the parts.
        prop_assert_eq!(
            left.total_records(),
            (xs.len() + ys.len() + zs.len()) as u64
        );
    }

    /// Codec round-trips arbitrary inventories byte-exactly.
    #[test]
    fn codec_round_trip(
        pts in prop::collection::vec((-60.0f64..60.0, -179.0f64..179.0, 0u64..6, 0u8..6), 0..120),
    ) {
        let res = Resolution::new(6).unwrap();
        let mut entries: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
        for (lat, lon, trip, seg) in &pts {
            let pos = LatLon::new(*lat, *lon).unwrap();
            let cell = pol_hexgrid::cell_at(pos, res);
            let segment = pol_ais::types::MarketSegment::from_id(*seg).unwrap();
            let cp = pol_core::records::CellPoint {
                point: pol_core::records::TripPoint {
                    mmsi: Mmsi(1 + *trip as u32),
                    timestamp: 0,
                    pos,
                    sog_knots: Some(10.0),
                    cog_deg: Some(180.0),
                    heading_deg: None,
                    segment,
                    trip_id: *trip,
                    origin: (*trip % 3) as u16,
                    dest: (*trip % 4) as u16,
                    eto_secs: 5,
                    ata_secs: 7,
                },
                cell,
                next_cell: None,
            };
            for key in [
                GroupKey::Cell(cell),
                GroupKey::CellType(cell, segment),
                GroupKey::CellRoute(cell, cp.point.origin, cp.point.dest, segment),
            ] {
                entries
                    .entry(key)
                    .or_insert_with(|| CellStats::new(0.05, 4))
                    .observe(&cp);
            }
        }
        let inv = Inventory::from_entries(res, entries, pts.len() as u64);
        let bytes = columnar::to_bytes(&inv);
        let back = columnar::from_bytes(&bytes).expect("round trip");
        prop_assert_eq!(columnar::to_bytes(&back), bytes, "canonical fixed point");
        prop_assert_eq!(back.len(), inv.len());
    }

    /// The fused executor is bit-identical to the reference fold — same
    /// inventory bytes, stage counts and clean report — over arbitrary
    /// multi-vessel inputs at 1, 2, 8 and 16 threads, each run twice on
    /// one engine so the second sees warm per-worker scratch.
    ///
    /// Vessel 501's reports are split across input partitions 0 and 1,
    /// with `split` copying timestamps of `a`: equal timestamps on both
    /// sides of a partition boundary, so which report survives as the
    /// vessel's first at that time rests on the arrival-index tie-break
    /// (partition order, then order within the partition).
    #[test]
    fn fused_equals_reference(
        a in prop::collection::vec(arb_report(501), 0..120),
        b in prop::collection::vec(arb_report(502), 0..120),
        c in prop::collection::vec(arb_report(503), 0..120),
        unknown in prop::collection::vec(arb_report(504), 0..40),
        mut split in prop::collection::vec(arb_report(501), 0..40),
    ) {
        let cfg = PipelineConfig::default();
        // Synthetic ports inside the generator's coordinate window, so
        // random tracks occasionally complete port-to-port trips.
        let ports = vec![
            PortSite {
                id: 0,
                name: "PropPortA".into(),
                pos: LatLon::new(45.0, -5.0).unwrap(),
                radius_km: 60.0,
            },
            PortSite {
                id: 1,
                name: "PropPortB".into(),
                pos: LatLon::new(50.0, 10.0).unwrap(),
                radius_km: 60.0,
            },
        ];
        // Vessel 504 has no static record: exercises the non-commercial
        // accounting in both executors.
        let st = vec![statics(501), statics(502), statics(503)];
        for (r, twin) in split.iter_mut().zip(&a) {
            r.timestamp = twin.timestamp;
        }
        let mut p0 = a;
        p0.extend(unknown);
        let mut p1 = split;
        p1.extend(b);
        let positions = vec![p0, p1, c];
        let reference = reference::build(positions.clone(), &st, &ports, &cfg);
        let bytes = columnar::to_bytes(&reference.inventory);
        for threads in [1usize, 2, 8, 16] {
            let engine = Engine::new(threads);
            // The second run on the SAME engine finds the per-worker
            // scratch arenas warm: the buffer-reuse path (stale capacity,
            // retained trip trackers) rather than the cold-allocation one.
            for run in ["cold", "warm"] {
                let fused = pol_core::run_fused(
                    &engine,
                    positions.clone(),
                    &st,
                    &ports,
                    &cfg,
                ).unwrap();
                prop_assert_eq!(
                    &reference.counts,
                    &fused.counts,
                    "{} counts at {} threads",
                    run,
                    threads
                );
                prop_assert_eq!(
                    &reference.clean_report,
                    &fused.clean_report,
                    "{} clean report at {} threads",
                    run,
                    threads
                );
                prop_assert_eq!(
                    &bytes,
                    &columnar::to_bytes(&fused.inventory),
                    "{} inventory bytes at {} threads",
                    run,
                    threads
                );
            }
        }
    }

    /// Geofence coverage: a point within 70% of a port's radius is always
    /// attributed to some port; a point 3 radii away to none (other ports
    /// permitting).
    #[test]
    fn geofence_coverage(port_idx in 0usize..10, bearing in 0.0f64..360.0, f in 0.0f64..0.7) {
        let ports: Vec<PortSite> = (0..10)
            .map(|i| PortSite {
                id: i as u16,
                name: format!("P{i}"),
                pos: LatLon::new(10.0 + i as f64 * 5.0, -30.0 + i as f64 * 7.0).unwrap(),
                radius_km: 12.0,
            })
            .collect();
        let g = pol_core::trips::Geofence::build(&ports, Resolution::new(6).unwrap());
        let port = &ports[port_idx];
        let inside = pol_geo::destination(port.pos, bearing, port.radius_km * f);
        prop_assert!(g.port_at(inside).is_some(), "point at {f:.2}R uncovered");
        let outside = pol_geo::destination(port.pos, bearing, port.radius_km * 5.0);
        if let Some(hit) = g.port_at(outside) {
            // May legitimately hit a *different* port's fence.
            prop_assert_ne!(hit, port.id);
        }
    }
}
