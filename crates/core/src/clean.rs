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
use pol_geo::haversine_km;
use pol_geo::units::implied_speed_knots;
use pol_sketch::hash::FxHashMap;

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
            let d = haversine_km(prev.pos, r.pos);
            let dt = (r.timestamp - prev.timestamp) as f64;
            if implied_speed_knots(d, dt) > self.max_feasible_speed_kn {
                return Err(Rejected::Infeasible);
            }
        }
        self.last = Some(r);
        Ok(r)
    }
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
    use pol_geo::LatLon;

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
}
