//! Property tests on the pipeline's §5-DESIGN.md invariants: cleaning
//! idempotence, grouping-set consistency, codec round-trips, and bytes
//! that do not depend on merge order (DESIGN §9) — per summary, per
//! inventory and for `run_fused` at any thread and partition count —
//! over randomly-shaped miniature worlds.

use pol_ais::types::{Mmsi, NavStatus, ShipTypeCode};
use pol_ais::{PositionReport, StaticReport};
use pol_core::codec::columnar;
use pol_core::codec::encode_cell_stats;
use pol_core::features::{CellStats, GroupKey};
use pol_core::records::{CellPoint, PortSite, TripPoint};
use pol_core::reference;
use pol_core::{Inventory, PipelineConfig};
use pol_engine::Engine;
use pol_geo::LatLon;
use pol_hexgrid::Resolution;
use pol_sketch::hash::FxHashMap;
use pol_sketch::MergeSketch;
use proptest::prelude::*;

/// One projected record of a small world: any kinematics, on or off the
/// AIS grids, in one of a few cells, vessels, trips and ports.
fn arb_point() -> impl Strategy<Value = CellPoint> {
    (
        (0u32..6, 0u64..8, 0u8..4),
        (
            0u8..2,
            prop::option::of(0.0f64..30.0),
            prop::option::of(0u16..3600),
        ),
        (0i64..3_000_000, 0i64..3_000_000, 0u8..4),
    )
        .prop_map(
            |((mmsi, trip, at), (grid, sog, tenths), (eto, ata, next))| {
                let res = Resolution::new(5).unwrap();
                let pos = LatLon::new(40.0 + f64::from(at), 5.0 - f64::from(at)).unwrap();
                let cell = pol_hexgrid::cell_at(pos, res);
                // Half the points on the 0.1-kn / 0.1° grids, half off them.
                let on_grid = |x: f64| {
                    if grid == 0 {
                        (x * 10.0).round() / 10.0
                    } else {
                        x
                    }
                };
                let cog = tenths.map(|t| on_grid(f64::from(t) / 10.0 + 0.037));
                CellPoint {
                    point: TripPoint {
                        mmsi: Mmsi(1 + mmsi),
                        timestamp: eto,
                        pos,
                        sog_knots: sog.map(on_grid),
                        cog_deg: cog,
                        heading_deg: cog.map(|c| (c * 1.7) % 360.0),
                        segment: pol_ais::types::MarketSegment::from_id((mmsi % 6) as u8).unwrap(),
                        trip_id: trip,
                        origin: (trip % 3) as u16,
                        dest: (trip % 5) as u16,
                        eto_secs: eto,
                        ata_secs: ata,
                    },
                    cell,
                    next_cell: (next > 0).then(|| {
                        pol_hexgrid::cell_at(LatLon::new(41.0 + f64::from(next), 4.0).unwrap(), res)
                    }),
                }
            },
        )
}

/// `points` in the order of `ranks` (a permutation drawn as sort keys),
/// dealt into `parts` groups by `deal`.
fn permuted_parts(
    points: &[CellPoint],
    ranks: &[u64],
    deal: &[u8],
    parts: u8,
) -> Vec<Vec<CellPoint>> {
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by_key(|&i| (ranks.get(i).copied().unwrap_or(0), i));
    let mut out = vec![Vec::new(); usize::from(parts)];
    for (n, i) in order.into_iter().enumerate() {
        let part = usize::from(deal.get(n).copied().unwrap_or(0) % parts);
        out[part].push(points[i]);
    }
    out
}

/// Every grouping-set key of `points`, each summary folded record by
/// record in the given order.
fn fold(points: &[CellPoint]) -> FxHashMap<GroupKey, CellStats> {
    let mut entries: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
    for cp in points {
        let p = &cp.point;
        for key in [
            GroupKey::Cell(cp.cell),
            GroupKey::CellType(cp.cell, p.segment),
            GroupKey::CellRoute(cp.cell, p.origin, p.dest, p.segment),
        ] {
            let cfg = PipelineConfig::default();
            entries
                .entry(key)
                .or_insert_with(|| CellStats::new(cfg.quantile_epsilon, cfg.top_n_capacity))
                .observe(cp);
        }
    }
    entries
}

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

    /// Inventory merge is associative and commutative on the bytes:
    /// `(a ⊕ b) ⊕ c`, `a ⊕ (b ⊕ c)` and `c ⊕ b ⊕ a` are one file image,
    /// the image of one inventory built from all the records.
    #[test]
    fn inventory_merge_associative(
        xs in prop::collection::vec(arb_point(), 1..60),
        ys in prop::collection::vec(arb_point(), 1..60),
        zs in prop::collection::vec(arb_point(), 1..60),
    ) {
        let res = Resolution::new(5).unwrap();
        let build = |pts: &[CellPoint]| Inventory::from_entries(res, fold(pts), pts.len() as u64);
        let (a, b, c) = (build(&xs), build(&ys), build(&zs));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        let mut backwards = c.clone();
        backwards.merge(&b);
        backwards.merge(&a);
        let whole = build(&[xs, ys, zs].concat());
        let want = columnar::to_bytes(&whole);
        prop_assert_eq!(&columnar::to_bytes(&left), &want);
        prop_assert_eq!(&columnar::to_bytes(&right), &want);
        prop_assert_eq!(&columnar::to_bytes(&backwards), &want);
    }

    /// Any permutation and any partition of a record multiset folds to
    /// the same bytes: each part folded record by record in the permuted
    /// order, the parts' summaries merged in either order, equal the
    /// summary of the whole folded in input order — per summary and per
    /// inventory.
    #[test]
    fn any_permutation_and_partition_folds_to_the_same_bytes(
        points in prop::collection::vec(arb_point(), 0..150),
        ranks in prop::collection::vec(0u64..1_000, 150),
        deal in prop::collection::vec(0u8..255, 150),
        parts in 1u8..9,
    ) {
        let res = Resolution::new(5).unwrap();
        let whole = fold(&points);
        let folded: Vec<FxHashMap<GroupKey, CellStats>> = permuted_parts(&points, &ranks, &deal, parts)
            .iter()
            .map(|part| fold(part))
            .collect();
        let stats_bytes = |s: &CellStats| {
            let mut out = Vec::new();
            encode_cell_stats(s, &mut out);
            out
        };
        let merged_in = |order: &mut dyn Iterator<Item = &FxHashMap<GroupKey, CellStats>>, key| {
            let mut acc: Option<CellStats> = None;
            for s in order.filter_map(|entries| entries.get(key)) {
                match acc.as_mut() {
                    Some(acc) => acc.merge(s),
                    None => acc = Some(s.clone()),
                }
            }
            acc.map(|s| stats_bytes(&s))
        };
        for (key, want) in &whole {
            let want = Some(stats_bytes(want));
            prop_assert_eq!(&merged_in(&mut folded.iter(), key), &want, "{:?}", key);
            prop_assert_eq!(&merged_in(&mut folded.iter().rev(), key), &want, "{:?}", key);
        }
        let n = points.len() as u64;
        let mut merged = Inventory::from_entries(res, FxHashMap::default(), 0);
        for (i, entries) in folded.into_iter().enumerate() {
            let records = if i == 0 { n } else { 0 };
            merged.merge(&Inventory::from_entries(res, entries, records));
        }
        prop_assert_eq!(
            columnar::to_bytes(&merged),
            columnar::to_bytes(&Inventory::from_entries(res, whole, n))
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
    /// one engine so the second sees warm per-worker scratch: first at
    /// the default 32 partitions, then at `partitions`. The reference
    /// folds every vessel into one accumulator, so no bucket count or
    /// merge order reaches the bytes.
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
        partitions in 1usize..70,
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
            for (run, buckets) in [("cold", Engine::DEFAULT_PARTITIONS), ("warm", partitions)] {
                let fused = pol_core::run_fused_partitioned(
                    &engine,
                    buckets,
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
    /// permitting). And the square bitmap `port_at` tests first changes
    /// no answer, also for ports on the antimeridian and past 80° of
    /// latitude, where coverage itself is not claimed (the fence's rings
    /// are planar: the seam cuts them, and near a pole they span few
    /// degrees of longitude).
    #[test]
    fn geofence_coverage(
        port_idx in 0usize..14,
        bearing in 0.0f64..360.0,
        f in 0.0f64..0.7,
        far in 0.0f64..8.0,
    ) {
        let mut ports: Vec<PortSite> = (0..10)
            .map(|i| PortSite {
                id: i as u16,
                name: format!("P{i}"),
                pos: LatLon::new(10.0 + i as f64 * 5.0, -30.0 + i as f64 * 7.0).unwrap(),
                radius_km: 12.0,
            })
            .collect();
        for (i, (lat, lon)) in [(-20.0, 179.9), (40.0, -179.9), (81.0, 60.0), (-84.0, -179.9)]
            .into_iter()
            .enumerate()
        {
            ports.push(PortSite {
                id: 10 + i as u16,
                name: format!("S{i}"),
                pos: LatLon::new(lat, lon).unwrap(),
                radius_km: 12.0,
            });
        }
        let res = Resolution::new(6).unwrap();
        let g = pol_core::trips::Geofence::build(&ports, res);
        let unfiltered = fence_without_bitmap(&ports, res);
        let port = &ports[port_idx];
        let inside = pol_geo::destination(port.pos, bearing, port.radius_km * f);
        let outside = pol_geo::destination(port.pos, bearing, port.radius_km * 5.0);
        let anywhere = pol_geo::destination(port.pos, bearing, port.radius_km * far);
        for p in [inside, outside, anywhere] {
            let ax = pol_hexgrid::cell_axial_at(p, res);
            prop_assert_eq!(g.port_at(p), unfiltered.get(&(ax.q, ax.r)).copied(), "{:?}", p);
        }
        if port_idx < 10 {
            prop_assert!(g.port_at(inside).is_some(), "point at {f:.2}R uncovered");
            if let Some(hit) = g.port_at(outside) {
                // May legitimately hit a *different* port's fence.
                prop_assert_ne!(hit, port.id);
            }
        }
    }
}

/// The fence `Geofence::build` makes, as a plain axial map: each port's
/// disk of cells whose centres lie within its radius plus one edge, the
/// first port to claim a cell keeping it.
fn fence_without_bitmap(ports: &[PortSite], res: Resolution) -> FxHashMap<(i64, i64), u16> {
    let edge = pol_hexgrid::avg_edge_length_km(res);
    let mut fence = FxHashMap::default();
    for port in ports {
        let k = (port.radius_km / (edge * 1.5)).ceil() as u32 + 1;
        for cell in pol_hexgrid::grid_disk(pol_hexgrid::cell_at(port.pos, res), k) {
            let centre = pol_hexgrid::cell_center(cell);
            if pol_geo::haversine_km(centre, port.pos) <= port.radius_km + edge {
                let ax = cell.axial();
                fence.entry((ax.q, ax.r)).or_insert(port.id);
            }
        }
    }
    fence
}
