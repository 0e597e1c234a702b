//! §3.3.1 — data cleaning and preprocessing.
//!
//! The paper's steps, in order: partition by vessel identifier, reject
//! values outside protocol ranges, sort each vessel's reports by
//! timestamp, drop duplicate timestamps, reject infeasible transitions
//! (implied speed > 50 kn), and annotate/filter with the static inventory
//! so only the commercial fleet remains.
//!
//! These are the per-record and per-vessel pieces every build route
//! shares: [`crate::fused::run_fused`] and [`crate::reference::build`]
//! scan with [`enrich_one`] and fold each vessel through a
//! [`VesselCleaner`], and the streaming session layer (pol-stream) feeds
//! the same cleaner record by record.

use crate::records::EnrichedReport;
use pol_ais::types::{MarketSegment, Mmsi};
use pol_ais::{PositionReport, StaticReport};
use pol_geo::units::implied_speed_knots;
use pol_geo::{haversine_km, LatLon, EARTH_RADIUS_KM};
use pol_sketch::hash::FxHashMap;
use std::f64::consts::PI;

/// What cleaning did — the stage-by-stage record accounting of Figure 2a.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CleanReport {
    /// Raw input records.
    pub input: u64,
    /// Removed: out of protocol range.
    pub out_of_range: u64,
    /// Removed: duplicate (mmsi, timestamp).
    pub duplicates: u64,
    /// Removed: infeasible transitions.
    pub infeasible: u64,
    /// Removed: unknown vessel or non-commercial segment.
    pub non_commercial: u64,
    /// Surviving records.
    pub output: u64,
}

/// MMSI → (segment, commercial flag) lookup table built from the static
/// inventory — the join side of the enrichment step. Public so the
/// streaming session layer (`pol-stream`) can enrich records with exactly
/// the batch pipeline's join semantics.
pub fn segment_lookup(statics: &[StaticReport]) -> FxHashMap<Mmsi, (MarketSegment, bool)> {
    statics
        .iter()
        .map(|s| (s.mmsi, (s.segment(), s.is_commercial_fleet())))
        .collect()
}

/// Annotates one in-range report with its market segment. `None` drops
/// it: unknown vessel, or non-commercial while `commercial_only` is set.
pub fn enrich_one(
    lookup: &FxHashMap<Mmsi, (MarketSegment, bool)>,
    commercial_only: bool,
    r: PositionReport,
) -> Option<EnrichedReport> {
    match lookup.get(&r.mmsi) {
        Some((segment, commercial)) if *commercial || !commercial_only => Some(EnrichedReport {
            mmsi: r.mmsi,
            timestamp: r.timestamp,
            pos: r.pos,
            sog_knots: r.sog_knots,
            cog_deg: r.cog_deg,
            heading_deg: r.heading_deg,
            nav_status: r.nav_status,
            segment: *segment,
        }),
        _ => None,
    }
}

/// Why [`VesselCleaner::push`] dropped a report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rejected {
    /// Its timestamp equals the vessel's last surviving report's.
    Duplicate,
    /// Reaching it from the last surviving report implies more than the
    /// feasible speed.
    Infeasible,
}

/// The incremental form of the per-vessel order/de-dup/feasibility pass:
/// one vessel's reports are fed in nondecreasing-timestamp order and each
/// call answers whether that report survives, and if not, why.
///
/// The batch path ([`order_and_filter_vessel`]) is a timestamp sort
/// followed by a fold over this exact state machine, so the two cannot
/// diverge: a streaming session that releases a vessel's records in
/// timestamp order (ties in arrival order, matching the batch stable
/// sort) produces the identical surviving sequence.
#[derive(Clone, Debug)]
pub struct VesselCleaner {
    max_feasible_speed_kn: f64,
    last: Option<EnrichedReport>,
}

impl VesselCleaner {
    /// A cleaner with no history, rejecting transitions implying more
    /// than `max_feasible_speed_kn` knots.
    pub fn new(max_feasible_speed_kn: f64) -> VesselCleaner {
        VesselCleaner {
            max_feasible_speed_kn,
            last: None,
        }
    }

    /// Reconstructs a cleaner mid-stream from checkpointed state: the
    /// speed threshold plus the last surviving report ([`Self::last`]).
    /// `VesselCleaner::resume(kn, c.last())` behaves identically to `c`
    /// — the whole state is that one report.
    pub fn resume(max_feasible_speed_kn: f64, last: Option<EnrichedReport>) -> VesselCleaner {
        VesselCleaner {
            max_feasible_speed_kn,
            last,
        }
    }

    /// The last surviving report — the anchor the next duplicate and
    /// feasibility decisions are made against. This is the cleaner's
    /// entire mutable state, which is what makes it checkpointable.
    pub fn last(&self) -> Option<EnrichedReport> {
        self.last
    }

    /// Feeds the vessel's next report (timestamps must be
    /// nondecreasing). Returns `Ok(r)` when the report survives the
    /// duplicate and feasibility filters, and the filter that dropped it
    /// otherwise.
    pub fn push(&mut self, r: EnrichedReport) -> Result<EnrichedReport, Rejected> {
        if let Some(prev) = self.last {
            if r.timestamp == prev.timestamp {
                return Err(Rejected::Duplicate);
            }
            let dt = (r.timestamp - prev.timestamp) as f64;
            let max = self.max_feasible_speed_kn;
            if !bound_clears(prev.pos, r.pos, dt, max)
                && implied_speed_knots(haversine_km(prev.pos, r.pos), dt) > max
            {
                return Err(Rejected::Infeasible);
            }
        }
        self.last = Some(r);
        Ok(r)
    }
}

/// 2π rounded up: `TAU_ABOVE - x` for `x` in `(π, 2π]` is exact (Sterbenz)
/// and never below the true `2π - x`.
const TAU_ABOVE: f64 = f64::from_bits(std::f64::consts::TAU.to_bits() + 1);

/// An upper bound on `haversine_km(a, b)` without a transcendental: the
/// walk along `a`'s meridian and then `b`'s parallel is at most
/// R·(|Δφ| + |Δλ|), Δλ wrapped to at most π, and is never shorter than
/// the great circle. Δφ and Δλ are the very differences the haversine
/// takes, and the relative 1e-6 pads both computations' rounding, so the
/// computed bound is never below the computed haversine (DESIGN §8
/// "Per-record fast paths").
fn step_bound_km(a: LatLon, b: LatLon) -> f64 {
    let dlat = (b.lat_rad() - a.lat_rad()).abs();
    let dlon = (b.lon_rad() - a.lon_rad()).abs();
    let dlon = if dlon > PI { TAU_ABOVE - dlon } else { dlon };
    EARTH_RADIUS_KM * (dlat + dlon) * (1.0 + 1e-6)
}

/// Whether the step from `a` to `b` in `dt` seconds is feasible by the
/// bound alone. The implied speed is monotone in the distance, so a step
/// the bound clears is one the haversine clears too; a step it does not
/// clear is decided by the haversine, as every step was before.
fn bound_clears(a: LatLon, b: LatLon, dt: f64, max_kn: f64) -> bool {
    implied_speed_knots(step_bound_km(a, b), dt) <= max_kn
}

/// One vessel's order/de-dup/feasibility pass: sorts by timestamp, drops
/// duplicate timestamps and infeasible transitions, appends survivors to
/// `out` (caller-owned so fused executors can reuse the buffer). The
/// filter itself is a [`VesselCleaner`] fold over the sorted reports —
/// shared with the streaming session layer by construction.
pub fn order_and_filter_vessel(
    mut reports: Vec<EnrichedReport>,
    max_feasible_speed_kn: f64,
    out: &mut Vec<EnrichedReport>,
) {
    // Stable sort: among equal timestamps the first report in input
    // order wins, which is also the streaming release order.
    reports.sort_by_key(|r| r.timestamp);
    let mut cleaner = VesselCleaner::new(max_feasible_speed_kn);
    for r in reports {
        if let Ok(kept) = cleaner.push(r) {
            out.push(kept);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::fused::run_fused;
    use pol_ais::types::{NavStatus, ShipTypeCode};
    use pol_engine::Engine;
    use pol_fleetsim::scenario::{generate, ScenarioConfig};
    use proptest::prelude::*;

    fn static_report(mmsi: u32, ship_type: u8, grt: u32) -> StaticReport {
        StaticReport {
            mmsi: Mmsi(mmsi),
            imo: None,
            name: format!("V{mmsi}"),
            ship_type: ShipTypeCode(ship_type),
            gross_tonnage: grt,
        }
    }

    fn report(mmsi: u32, t: i64, lat: f64, lon: f64) -> PositionReport {
        PositionReport {
            mmsi: Mmsi(mmsi),
            timestamp: t,
            pos: LatLon::new(lat, lon).unwrap(),
            sog_knots: Some(12.0),
            cog_deg: Some(90.0),
            heading_deg: Some(90.0),
            nav_status: NavStatus::UnderWayUsingEngine,
        }
    }

    /// Cleans `reports`, split into three input partitions, through the
    /// reference build's cleaning pass, and checks the fused executor
    /// accounts for them the same way.
    fn run_with(
        cfg: &PipelineConfig,
        reports: Vec<PositionReport>,
        statics: Vec<StaticReport>,
    ) -> (Vec<EnrichedReport>, CleanReport) {
        let chunk = reports.len().div_ceil(3).max(1);
        let positions: Vec<Vec<PositionReport>> =
            reports.chunks(chunk).map(<[_]>::to_vec).collect();
        let (vessels, rep) = crate::reference::clean(positions.clone(), &statics, cfg);
        let fused = run_fused(&Engine::new(2), positions, &statics, &[], cfg).unwrap();
        assert_eq!(fused.clean_report, rep, "fused and reference accounting");
        (vessels.into_values().flatten().collect(), rep)
    }

    fn run(
        reports: Vec<PositionReport>,
        statics: Vec<StaticReport>,
    ) -> (Vec<EnrichedReport>, CleanReport) {
        run_with(&PipelineConfig::default(), reports, statics)
    }

    #[test]
    fn keeps_valid_commercial_reports() {
        let statics = vec![static_report(1, 71, 50_000)];
        let (out, rep) = run(
            vec![report(1, 100, 51.0, 1.0), report(1, 400, 51.01, 1.01)],
            statics,
        );
        assert_eq!(out.len(), 2);
        assert_eq!(rep.output, 2);
        assert_eq!(
            rep.out_of_range + rep.duplicates + rep.infeasible + rep.non_commercial,
            0
        );
        assert_eq!(out[0].segment, MarketSegment::Container);
    }

    #[test]
    fn rejects_out_of_range_values() {
        let statics = vec![static_report(1, 71, 50_000)];
        let mut bad_sog = report(1, 100, 51.0, 1.0);
        bad_sog.sog_knots = Some(300.0);
        let mut bad_cog = report(1, 200, 51.0, 1.0);
        bad_cog.cog_deg = Some(400.0);
        let (out, rep) = run(vec![bad_sog, bad_cog, report(1, 300, 51.0, 1.0)], statics);
        assert_eq!(out.len(), 1);
        assert_eq!(rep.out_of_range, 2);
    }

    #[test]
    fn drops_unknown_and_non_commercial_vessels() {
        let statics = vec![
            static_report(1, 71, 50_000), // commercial
            static_report(2, 30, 50_000), // fishing
            static_report(3, 71, 1_000),  // too small
        ];
        let (out, rep) = run(
            vec![
                report(1, 100, 51.0, 1.0),
                report(2, 100, 51.0, 1.0),
                report(3, 100, 51.0, 1.0),
                report(4, 100, 51.0, 1.0), // unknown MMSI
            ],
            statics,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(rep.non_commercial, 3);
    }

    #[test]
    fn sorts_and_deduplicates_per_vessel() {
        let statics = vec![static_report(1, 71, 50_000)];
        let (out, rep) = run(
            vec![
                report(1, 300, 51.02, 1.0),
                report(1, 100, 51.0, 1.0),
                report(1, 100, 51.0, 1.0), // duplicate timestamp
                report(1, 200, 51.01, 1.0),
            ],
            statics,
        );
        let ts: Vec<i64> = out.iter().map(|r| r.timestamp).collect();
        assert_eq!(ts, vec![100, 200, 300]);
        assert_eq!((rep.duplicates, rep.infeasible), (1, 0));
    }

    #[test]
    fn rejects_infeasible_transitions() {
        let statics = vec![static_report(1, 71, 50_000)];
        // 1 degree of latitude (111 km) in 60 s ⇒ ~3600 kn: impossible.
        let (out, rep) = run(
            vec![
                report(1, 100, 51.0, 1.0),
                report(1, 160, 52.0, 1.0), // teleport
                report(1, 220, 51.001, 1.0),
            ],
            statics,
        );
        assert_eq!(out.len(), 2, "teleported record dropped, track continues");
        assert_eq!(rep.infeasible, 1);
    }

    #[test]
    fn feasibility_keeps_fast_but_possible_movement() {
        let statics = vec![static_report(1, 71, 50_000)];
        // 25 kn ≈ 46.3 km/h: 1.3 km in 100 s is fine.
        let (out, _) = run(
            vec![report(1, 0, 51.0, 1.0), report(1, 100, 51.0116, 1.0)],
            statics,
        );
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn commercial_only_can_be_disabled() {
        let mut cfg = PipelineConfig::default();
        cfg.commercial_only = false;
        let statics = vec![static_report(2, 30, 100)]; // fishing boat
        let (out, _) = run_with(&cfg, vec![report(2, 100, 51.0, 1.0)], statics);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].segment, MarketSegment::Other);
    }

    #[test]
    fn accounting_adds_up() {
        let statics = vec![static_report(1, 71, 50_000)];
        let mut bad = report(1, 50, 51.0, 1.0);
        bad.sog_knots = Some(999.0);
        let (_, rep) = run(
            vec![
                bad,
                report(1, 100, 51.0, 1.0),
                report(1, 100, 51.0, 1.0),
                report(2, 100, 51.0, 1.0),
            ],
            statics,
        );
        assert_eq!(
            rep.input,
            rep.out_of_range + rep.non_commercial + rep.duplicates + rep.infeasible + rep.output
        );
        // The second report at t=100 is a duplicate, not an infeasible jump.
        assert_eq!((rep.duplicates, rep.infeasible), (1, 0));
    }

    /// Equal timestamps on both sides of an input-partition boundary: the
    /// earlier partition's report arrived first and is the one kept, and
    /// which one is kept decides whether the next report is feasible.
    #[test]
    fn equal_timestamps_keep_the_first_arrival() {
        let statics = vec![static_report(1, 71, 50_000)];
        let positions = vec![
            vec![report(1, 0, 51.0, 1.0), report(1, 100, 51.0, 1.0)],
            // 2.2 km from either neighbour in 100 s is feasible (43 kn);
            // 4.4 km between them is not.
            vec![report(1, 100, 51.02, 1.0), report(1, 200, 50.98, 1.0)],
        ];
        let cfg = PipelineConfig::default();
        let (vessels, rep) = crate::reference::clean(positions.clone(), &statics, &cfg);
        let lats: Vec<f64> = vessels[&1].iter().map(|r| r.pos.lat()).collect();
        assert_eq!(lats, vec![51.0, 51.0, 50.98]);
        assert_eq!((rep.duplicates, rep.infeasible), (1, 0));
        let fused = run_fused(&Engine::new(2), positions, &statics, &[], &cfg).unwrap();
        assert_eq!(fused.clean_report, rep);
    }

    fn enriched(t: i64, lat: f64, lon: f64) -> EnrichedReport {
        let statics = [static_report(1, 71, 50_000)];
        enrich_one(&segment_lookup(&statics), true, report(1, t, lat, lon)).unwrap()
    }

    /// What `push` decided before the bound: the haversine's implied speed
    /// against the limit.
    fn haversine_rejects(a: LatLon, b: LatLon, dt: f64, max_kn: f64) -> bool {
        implied_speed_knots(haversine_km(a, b), dt) > max_kn
    }

    /// The cleaner's decision on the step `a` → `b`, and the haversine's,
    /// at the step's own implied speed and one float either side of it,
    /// and at the default limit.
    fn assert_step_decided_alike(a: (f64, f64), b: (f64, f64), dt: i64) {
        let (from, to) = (enriched(0, a.0, a.1), enriched(dt, b.0, b.1));
        let speed = implied_speed_knots(haversine_km(from.pos, to.pos), dt as f64);
        for max in [speed, speed.next_down(), speed.next_up(), 50.0] {
            let mut cleaner = VesselCleaner::new(max);
            cleaner.push(from).unwrap();
            let rejected = cleaner.push(to) == Err(Rejected::Infeasible);
            assert_eq!(
                rejected,
                haversine_rejects(from.pos, to.pos, dt as f64, max),
                "{a:?} -> {b:?} in {dt} s at {max} kn"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Steps anywhere, and long steps along a meridian or the
        /// equator, where the bound is exact but for rounding and only
        /// the pad keeps it above the computed haversine.
        #[test]
        fn bound_decides_as_the_haversine_anywhere(
            a in (-90.0f64..=90.0, -180.0f64..180.0),
            b in (-90.0f64..=90.0, -180.0f64..180.0),
            shape in 0u8..3,
            dt in 1i64..200_000,
        ) {
            let (a, b) = match shape {
                0 => (a, (b.0, a.1)),
                1 => ((0.0, a.1), (0.0, b.1)),
                _ => (a, b),
            };
            assert_step_decided_alike(a, b, dt);
        }

        /// Short steps, along a meridian, along a parallel or both: the
        /// shapes where the bound is tightest or the step is at the limit.
        #[test]
        fn bound_decides_as_the_haversine_on_short_steps(
            a in (-90.0f64..=90.0, -180.0f64..180.0),
            d in (-0.05f64..0.05, -0.05f64..0.05),
            shape in 0u8..3,
            dt in 1i64..600,
        ) {
            let (dlat, dlon) = match shape {
                0 => (d.0, 0.0),
                1 => (0.0, d.1),
                _ => d,
            };
            let b = ((a.0 + dlat).clamp(-90.0, 90.0), a.1 + dlon);
            if (-180.0..180.0).contains(&b.1) {
                assert_step_decided_alike(a, b, dt);
            }
        }

        #[test]
        fn bound_decides_as_the_haversine_across_the_antimeridian(
            lat in (-89.0f64..89.0, -0.1f64..0.1),
            lon in (179.0f64..180.0, -180.0f64..-179.0),
            dt in 1i64..3_600,
        ) {
            assert_step_decided_alike((lat.0, lon.0), (lat.0 + lat.1, lon.1), dt);
            assert_step_decided_alike((lat.0, lon.1), (lat.0 + lat.1, lon.0), dt);
        }

        #[test]
        fn bound_decides_as_the_haversine_near_the_poles(
            lat in (89.0f64..=90.0, 89.0f64..=90.0),
            lon in (-180.0f64..180.0, -180.0f64..180.0),
            south in 0u8..2,
            dt in 1i64..3_600,
        ) {
            let sign = if south == 1 { -1.0 } else { 1.0 };
            assert_step_decided_alike((sign * lat.0, lon.0), (sign * lat.1, lon.1), dt);
        }
    }

    /// Along a meridian or the equator the bound is the distance itself,
    /// and the computed haversine comes out above the unpadded bound on
    /// a good share of such steps: the pad is what keeps the bound above
    /// it.
    #[test]
    fn the_bound_is_never_below_the_haversine_on_axis_steps() {
        let (mut x, mut over_unpadded) = (0x9E37_79B9_7F4A_7C15u64, 0);
        let mut unit = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..20_000 {
            let (a, b) = if i % 2 == 0 {
                let lon = unit() * 360.0 - 180.0;
                ((unit() * 180.0 - 90.0, lon), (unit() * 180.0 - 90.0, lon))
            } else {
                ((0.0, unit() * 360.0 - 180.0), (0.0, unit() * 360.0 - 180.0))
            };
            let (a, b) = (
                LatLon::new(a.0, a.1).unwrap(),
                LatLon::new(b.0, b.1).unwrap(),
            );
            let d = haversine_km(a, b);
            assert!(step_bound_km(a, b) >= d, "{a:?} -> {b:?}");
            over_unpadded += usize::from(step_bound_km(a, b) / (1.0 + 1e-6) < d);
        }
        assert!(over_unpadded > 100, "{over_unpadded} steps need the pad");
    }

    /// A step across the seam whose Δλ rounds to within a few ulps of 2π:
    /// wrapping against 2π rounded down would undercut the haversine's
    /// non-zero sine.
    #[test]
    fn the_bound_never_undercuts_the_haversine_at_the_seam() {
        for k in 1..=40 {
            for lat in [0.0, 45.0, -60.0, 89.9] {
                let a = LatLon::new(lat, -180.0).unwrap();
                let b = LatLon::new(lat, 180.0 - f64::from(k) * 1e-13).unwrap();
                assert!(b.lon() > 179.0, "{b:?} stays east of the seam");
                assert!(step_bound_km(a, b) >= haversine_km(a, b), "{a:?} -> {b:?}");
                assert!(step_bound_km(b, a) >= haversine_km(b, a), "{b:?} -> {a:?}");
            }
        }
    }

    /// A step whose bound speed is the limit itself is cleared by the
    /// bound: a limit that is reached is not exceeded.
    #[test]
    fn the_bound_clears_a_step_at_the_limit() {
        for (a, b, dt) in [
            ((51.0, 1.0), (51.01, 1.01), 60.0),
            ((0.0, 179.999), (0.001, -179.999), 5.0),
            ((89.99, 10.0), (89.99, -170.0), 600.0),
        ] {
            let (a, b) = (
                LatLon::new(a.0, a.1).unwrap(),
                LatLon::new(b.0, b.1).unwrap(),
            );
            let limit = implied_speed_knots(step_bound_km(a, b), dt);
            assert!(bound_clears(a, b, dt, limit), "{a:?} -> {b:?}");
            assert!(!bound_clears(a, b, dt, limit.next_down()), "{a:?} -> {b:?}");
        }
    }

    #[test]
    fn an_earlier_report_elsewhere_is_infeasible() {
        let mut cleaner = VesselCleaner::new(50.0);
        cleaner.push(enriched(100, 51.0, 1.0)).unwrap();
        assert_eq!(
            cleaner.push(enriched(50, 51.0001, 1.0)),
            Err(Rejected::Infeasible)
        );
        assert_eq!(cleaner.last().unwrap().timestamp, 100);
    }

    #[test]
    fn a_later_report_in_place_is_kept_by_the_bound() {
        let (a, b) = (enriched(100, 51.0, 1.0), enriched(101, 51.0, 1.0));
        assert!(bound_clears(a.pos, b.pos, 1.0, 50.0));
        let mut cleaner = VesselCleaner::new(50.0);
        cleaner.push(a).unwrap();
        assert_eq!(cleaner.push(b), Ok(b));
    }

    #[test]
    fn a_repeated_timestamp_is_a_duplicate_wherever_it_is() {
        let mut cleaner = VesselCleaner::new(50.0);
        cleaner.push(enriched(100, 51.0, 1.0)).unwrap();
        for (lat, lon) in [(51.0, 1.0), (51.0001, 1.0), (-40.0, 170.0)] {
            assert_eq!(
                cleaner.push(enriched(100, lat, lon)),
                Err(Rejected::Duplicate)
            );
        }
    }

    /// The share of a fleetsim build's feasibility decisions the bound
    /// makes without a haversine. A floor, so that the fast path cannot be
    /// switched off unnoticed (DESIGN §8 "Per-record fast paths" states
    /// the share on polbench's world).
    #[test]
    fn the_bound_decides_nearly_every_step() {
        let ds = generate(&ScenarioConfig::tiny());
        let cfg = PipelineConfig::default();
        let (mut steps, mut cleared) = (0u64, 0u64);
        for mut vessel in ds.positions {
            vessel.sort_by_key(|r| r.timestamp);
            let mut last: Option<PositionReport> = None;
            for r in vessel {
                match last {
                    Some(prev) if prev.timestamp == r.timestamp => continue,
                    Some(prev) => {
                        steps += 1;
                        let dt = (r.timestamp - prev.timestamp) as f64;
                        let clears = bound_clears(prev.pos, r.pos, dt, cfg.max_feasible_speed_kn);
                        cleared += u64::from(clears);
                        if !clears
                            && haversine_rejects(prev.pos, r.pos, dt, cfg.max_feasible_speed_kn)
                        {
                            continue;
                        }
                    }
                    None => {}
                }
                last = Some(r);
            }
        }
        let share = cleared as f64 / steps as f64;
        assert!(steps > 10_000, "{steps} steps");
        assert!(
            share > 0.995,
            "the bound decided {share:.4} of {steps} steps"
        );
    }
}
