//! The reference build: the methodology of §3.3 as one plain,
//! single-threaded loop, with no engine, threads or scratch arenas. It is
//! the oracle [`crate::fused::run_fused`] is tested against, byte for byte.
//!
//! Vessels are walked in ascending MMSI order through the shared
//! per-vessel helpers: the timestamp sort and [`VesselCleaner`] fold of
//! [`crate::clean::order_and_filter_vessel`], [`extract_for_vessel`],
//! [`project_trip`] per trip, and the grouping-set fan-out. Each vessel
//! folds into bucket `hash64(mmsi) %` [`Engine::DEFAULT_PARTITIONS`], and
//! per key the first bucket's summary is adopted and the later ones are
//! merged into it in bucket order, as in `run_fused`. The buckets are not
//! an optimisation: floating-point merges are not associative, so one
//! accumulator for every vessel gives other bytes.

use crate::clean::{enrich_one, segment_lookup, CleanReport, Rejected, VesselCleaner};
use crate::config::PipelineConfig;
use crate::features::{merge_shared, observe, Combiner};
use crate::fused::{PipelineOutput, StageCounts};
use crate::inventory::Inventory;
use crate::project::project_trip;
use crate::records::{EnrichedReport, PortSite};
use crate::trips::{extract_for_vessel, Geofence};
use pol_ais::{PositionReport, StaticReport};
use pol_engine::Engine;
use pol_sketch::hash::hash64;
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;

/// §3.3.1 for every vessel: range check, static-inventory enrichment,
/// then a stable timestamp sort (equal timestamps keep arrival order:
/// input partitions in order, each in its own order) and the duplicate /
/// feasibility fold. Returns each vessel's surviving reports by MMSI and
/// the accounting of every record removed.
pub fn clean(
    positions: Vec<Vec<PositionReport>>,
    statics: &[StaticReport],
    cfg: &PipelineConfig,
) -> (BTreeMap<u32, Vec<EnrichedReport>>, CleanReport) {
    let lookup = segment_lookup(statics);
    let mut report = CleanReport::default();
    let mut vessels: BTreeMap<u32, Vec<EnrichedReport>> = BTreeMap::new();
    for r in positions.into_iter().flatten() {
        report.input += 1;
        if !r.in_protocol_ranges() {
            report.out_of_range += 1;
        } else if let Some(e) = enrich_one(&lookup, cfg.commercial_only, r) {
            vessels.entry(e.mmsi.0).or_default().push(e);
        } else {
            report.non_commercial += 1;
        }
    }
    for reports in vessels.values_mut() {
        reports.sort_by_key(|r| r.timestamp);
        let mut cleaner = VesselCleaner::new(cfg.max_feasible_speed_kn);
        reports.retain(|r| match cleaner.push(*r) {
            Ok(_) => true,
            Err(Rejected::Duplicate) => {
                report.duplicates += 1;
                false
            }
            Err(Rejected::Infeasible) => {
                report.infeasible += 1;
                false
            }
        });
        report.output += reports.len() as u64;
    }
    (vessels, report)
}

/// Builds the inventory of `positions`: the same inventory bytes,
/// [`StageCounts`] and [`CleanReport`] as [`crate::fused::run_fused`] over
/// the same input, at any thread count.
pub fn build(
    positions: Vec<Vec<PositionReport>>,
    statics: &[StaticReport],
    ports: &[PortSite],
    cfg: &PipelineConfig,
) -> PipelineOutput {
    let (vessels, clean_report) = clean(positions, statics, cfg);
    let geofence = Geofence::build(ports, cfg.resolution);
    let num = Engine::DEFAULT_PARTITIONS;
    let mut buckets: Vec<Combiner> = (0..num).map(|_| Combiner::default()).collect();
    let (mut trips, mut cells, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
    let mut with_trips = 0;
    for (mmsi, reports) in &vessels {
        trips.clear();
        extract_for_vessel(&geofence, reports, cfg.min_trip_points, &mut trips);
        with_trips += trips.len() as u64;
        let bucket = &mut buckets[(hash64(mmsi) % num as u64) as usize];
        for trip in trips.chunk_by(|a, b| a.trip_id == b.trip_id) {
            cells.clear();
            project_trip(trip, cfg.resolution, &mut scratch, &mut cells);
            observe(bucket, cfg, &cells);
        }
    }
    let mut entries = Combiner::default();
    for (key, stats) in buckets.into_iter().flatten() {
        match entries.entry(key) {
            Entry::Occupied(mut e) => merge_shared(e.get_mut(), stats),
            Entry::Vacant(e) => {
                e.insert(stats);
            }
        }
    }
    PipelineOutput {
        counts: StageCounts {
            raw: clean_report.input,
            cleaned: clean_report.output,
            with_trips,
            projected: with_trips,
            group_entries: entries.len() as u64,
        },
        inventory: Inventory::from_shared(cfg.resolution, entries, with_trips),
        clean_report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::columnar;
    use crate::fused::run_fused;
    use pol_ais::types::{Mmsi, NavStatus, ShipTypeCode};
    use pol_geo::{interpolate, LatLon};

    /// Two vessels in different buckets sail the same lane slowly enough
    /// to leave a dozen reports in each cell. Folding both into one
    /// accumulator gives other bytes than merging the buckets' summaries,
    /// so this input sees the merge order, and `build` has `run_fused`'s.
    #[test]
    fn bucket_merge_order_is_part_of_the_bytes() {
        let cfg = PipelineConfig::default();
        let (a, b) = (
            LatLon::new(51.95, 4.14).unwrap(),
            LatLon::new(51.96, 3.2).unwrap(),
        );
        let ports = [(0, a), (1, b)].map(|(id, pos)| PortSite {
            id,
            name: format!("P{id}"),
            pos,
            radius_km: 10.0,
        });
        let num = Engine::DEFAULT_PARTITIONS as u64;
        assert_ne!(hash64(&1u32) % num, hash64(&2u32) % num);
        let voyage = |mmsi: u32| -> Vec<PositionReport> {
            let phase = f64::from(mmsi);
            (0..=120)
                .map(|i| PositionReport {
                    mmsi: Mmsi(mmsi),
                    timestamp: i * 60,
                    pos: interpolate(a, b, i as f64 / 120.0),
                    sog_knots: Some(12.0 + (i as f64 * 0.7 + phase).sin()),
                    cog_deg: Some(270.0 + 10.0 * (i as f64 * 0.3 + phase).cos()),
                    heading_deg: None,
                    nav_status: NavStatus::UnderWayUsingEngine,
                })
                .collect()
        };
        let statics = [1, 2].map(|m| StaticReport {
            mmsi: Mmsi(m),
            imo: None,
            name: format!("V{m}"),
            ship_type: ShipTypeCode(71),
            gross_tonnage: 50_000,
        });
        let positions = vec![voyage(1), voyage(2)];
        let built = build(positions.clone(), &statics, &ports, &cfg);
        let fused = run_fused(&Engine::new(2), positions.clone(), &statics, &ports, &cfg).unwrap();
        let bytes = columnar::to_bytes(&built.inventory);
        assert!(
            bytes == columnar::to_bytes(&fused.inventory),
            "build differs from run_fused"
        );

        // The same vessels, in the same order, into one accumulator.
        let (vessels, _) = clean(positions, &statics, &cfg);
        let geofence = Geofence::build(&ports, cfg.resolution);
        let mut one = Combiner::default();
        for reports in vessels.values() {
            let (mut trips, mut cells) = (Vec::new(), Vec::new());
            extract_for_vessel(&geofence, reports, cfg.min_trip_points, &mut trips);
            assert!(trips.iter().all(|t| t.trip_id == trips[0].trip_id));
            project_trip(&trips, cfg.resolution, &mut Vec::new(), &mut cells);
            observe(&mut one, &cfg, &cells);
        }
        let one = Inventory::from_shared(cfg.resolution, one, built.counts.projected);
        assert!(
            columnar::to_bytes(&one) != bytes,
            "input does not see the merge order"
        );
    }
}
