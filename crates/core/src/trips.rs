//! §3.3.2 — trip-semantics extraction via geofencing.
//!
//! Port areas are geofenced on the hexagonal grid: every cell whose centre
//! lies within a port's radius maps to that port, so the per-report lookup
//! is one `latlon→cell` projection plus one hash probe. All records of a
//! vessel between two consecutive port stops form a trip; the first and
//! last records *outside* port geometries define the origin and
//! destination timestamps, and every record is enriched with elapsed time
//! from origin (ETO) and actual time to arrival (ATA). Records that cannot
//! be attributed to a trip are excluded, exactly as the paper prescribes.

use crate::records::{EnrichedReport, PortSite, TripPoint};
use pol_geo::haversine_km;
use pol_hexgrid::{cell_at, cell_axial_at, grid_disk, Resolution};
use pol_sketch::hash::FxHashMap;

/// The hex-grid port geofence.
///
/// Keyed by *axial coordinates* at the geofence resolution rather than by
/// full [`pol_hexgrid::CellIndex`]: within one resolution axial coordinates
/// identify a cell uniquely, and [`pol_hexgrid::cell_axial_at`] skips the
/// digit walk and base-cell probe that dominate `cell_at`. `port_at` runs
/// once per cleaned report in every build path, so halving its cost moves
/// the whole pipeline.
pub struct Geofence {
    resolution: Resolution,
    axial_to_port: FxHashMap<(i64, i64), u16>,
}

impl Geofence {
    /// Builds a geofence covering each port's radius with grid cells.
    ///
    /// Uses one resolution finer than cells-per-port would strictly need
    /// so that small radii still get a few cells of coverage.
    pub fn build(ports: &[PortSite], resolution: Resolution) -> Geofence {
        let edge = pol_hexgrid::avg_edge_length_km(resolution);
        let mut axial_to_port = FxHashMap::default();
        for port in ports {
            let center = cell_at(port.pos, resolution);
            // k rings to cover the radius (edge ≈ circumradius; ring k
            // reaches ≈ k·√3·edge planar).
            let k = (port.radius_km / (edge * 1.5)).ceil() as u32 + 1;
            for cell in grid_disk(center, k) {
                let c = pol_hexgrid::cell_center(cell);
                if haversine_km(c, port.pos) <= port.radius_km + edge {
                    let ax = cell.axial();
                    // First writer wins: overlapping ports keep the earlier
                    // (conventionally bigger) port.
                    axial_to_port.entry((ax.q, ax.r)).or_insert(port.id);
                }
            }
        }
        Geofence {
            resolution,
            axial_to_port,
        }
    }

    /// The port whose geofence contains the position, if any.
    pub fn port_at(&self, pos: pol_geo::LatLon) -> Option<u16> {
        let ax = cell_axial_at(pos, self.resolution);
        self.axial_to_port.get(&(ax.q, ax.r)).copied()
    }

    /// Number of geofence cells.
    pub fn cell_count(&self) -> usize {
        self.axial_to_port.len()
    }
}

/// The incremental form of per-vessel trip extraction: one vessel's
/// cleaned reports are fed in timestamp order, and each port arrival that
/// completes a qualifying passage emits the finished trip's points.
///
/// The batch path ([`extract_for_vessel`]) is a fold over this exact
/// state machine, so the two cannot diverge — the property the streaming
/// byte-identity gate rests on. Trip ids are monotone in `(mmsi, seq)`
/// exactly as in the batch path because `seq` advances only on emission.
#[derive(Clone, Debug)]
pub struct TripTracker {
    min_points: usize,
    last_port: Option<u16>,
    seq: u32,
    current: Vec<EnrichedReport>,
}

impl TripTracker {
    /// A tracker with no port history, dropping passages shorter than
    /// `min_points` records.
    pub fn new(min_points: usize) -> TripTracker {
        TripTracker {
            min_points,
            last_port: None,
            seq: 0,
            current: Vec::new(),
        }
    }

    /// Reconstructs a tracker mid-stream from checkpointed state (see
    /// [`Self::state`]). `TripTracker::resume` over a tracker's own
    /// `state()` behaves identically to the original — the three fields
    /// are its entire mutable state, which is what makes it
    /// checkpointable.
    pub fn resume(
        min_points: usize,
        last_port: Option<u16>,
        seq: u32,
        current: Vec<EnrichedReport>,
    ) -> TripTracker {
        TripTracker {
            min_points,
            last_port,
            seq,
            current,
        }
    }

    /// The checkpointable mid-stream state: the last port sighted, the
    /// emitted-trip sequence counter, and the open (unemitted) passage.
    pub fn state(&self) -> (Option<u16>, u32, &[EnrichedReport]) {
        (self.last_port, self.seq, &self.current)
    }

    /// Resets to a fresh tracker for the next vessel, retaining the open
    /// passage buffer's capacity — the fused executor reuses one tracker
    /// across vessel morsels so the steady state allocates nothing.
    pub fn reset(&mut self, min_points: usize) {
        self.min_points = min_points;
        self.last_port = None;
        self.seq = 0;
        self.current.clear();
    }

    /// Feeds the vessel's next cleaned report. When it lands in a port
    /// geofence and closes a qualifying passage, the finished trip's
    /// annotated points are appended to `out` and `true` is returned.
    ///
    /// Records before the first port sighting have no origin and are
    /// excluded, and an unfinished passage is never emitted (Figure 2b of
    /// the paper) — dropping the tracker discards its open passage.
    pub fn push(
        &mut self,
        geofence: &Geofence,
        r: &EnrichedReport,
        out: &mut Vec<TripPoint>,
    ) -> bool {
        match geofence.port_at(r.pos) {
            Some(port) => {
                let mut emitted = false;
                if let Some(origin) = self.last_port {
                    if self.current.len() >= self.min_points && port != origin {
                        emit_trip(origin, port, &self.current, self.seq, out);
                        self.seq += 1;
                        emitted = true;
                    }
                }
                self.last_port = Some(port);
                self.current.clear();
                emitted
            }
            None => {
                if self.last_port.is_some() {
                    self.current.push(*r);
                }
                false
            }
        }
    }
}

/// Walks one vessel's time-sorted reports, emitting trip-annotated points.
/// Shared by the reference build ([`crate::reference`]), the fused
/// executor ([`crate::fused`]) and — through the [`TripTracker`] it folds
/// over — the streaming session layer, which is what keeps all three
/// bit-identical.
pub fn extract_for_vessel(
    geofence: &Geofence,
    reports: &[EnrichedReport],
    min_points: usize,
    out: &mut Vec<TripPoint>,
) {
    let mut tracker = TripTracker::new(min_points);
    extract_for_vessel_with(&mut tracker, geofence, reports, out);
}

/// [`extract_for_vessel`] with a caller-owned tracker (call
/// [`TripTracker::reset`] between vessels), so the passage buffer's
/// capacity survives across morsels instead of reallocating per vessel.
pub fn extract_for_vessel_with(
    tracker: &mut TripTracker,
    geofence: &Geofence,
    reports: &[EnrichedReport],
    out: &mut Vec<TripPoint>,
) {
    for r in reports {
        tracker.push(geofence, r, out);
    }
}

fn emit_trip(
    origin: u16,
    dest: u16,
    points: &[EnrichedReport],
    seq: u32,
    out: &mut Vec<TripPoint>,
) {
    // Callers only emit trips with >= min_trip_points records, but stay
    // total anyway: an empty slice simply emits nothing.
    let (Some(first), Some(last)) = (points.first(), points.last()) else {
        return;
    };
    let departure = first.timestamp;
    let arrival = last.timestamp;
    let mmsi = first.mmsi;
    let trip_id = TripPoint::make_trip_id(mmsi, seq);
    for p in points {
        out.push(TripPoint {
            mmsi: p.mmsi,
            timestamp: p.timestamp,
            pos: p.pos,
            sog_knots: p.sog_knots,
            cog_deg: p.cog_deg,
            heading_deg: p.heading_deg,
            segment: p.segment,
            trip_id,
            origin,
            dest,
            eto_secs: p.timestamp - departure,
            ata_secs: arrival - p.timestamp,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_ais::types::{MarketSegment, Mmsi, NavStatus};
    use pol_geo::{destination, LatLon};

    fn ports() -> Vec<PortSite> {
        vec![
            PortSite {
                id: 0,
                name: "Alpha".into(),
                pos: LatLon::new(51.95, 4.14).unwrap(), // Rotterdam-ish
                radius_km: 10.0,
            },
            PortSite {
                id: 1,
                name: "Beta".into(),
                pos: LatLon::new(51.96, 1.32).unwrap(), // Felixstowe-ish
                radius_km: 10.0,
            },
        ]
    }

    fn rep(t: i64, pos: LatLon) -> EnrichedReport {
        EnrichedReport {
            mmsi: Mmsi(7),
            timestamp: t,
            pos,
            sog_knots: Some(14.0),
            cog_deg: Some(250.0),
            heading_deg: Some(250.0),
            nav_status: NavStatus::UnderWayUsingEngine,
            segment: MarketSegment::Container,
        }
    }

    /// A synthetic crossing: in port A, at sea along the great circle,
    /// in port B.
    fn crossing() -> Vec<EnrichedReport> {
        let ps = ports();
        let a = ps[0].pos;
        let b = ps[1].pos;
        let mut out = vec![rep(0, a), rep(600, a)];
        let n = 20;
        for i in 1..n {
            let f = i as f64 / n as f64;
            let p = pol_geo::interpolate(a, b, f);
            out.push(rep(600 + i * 600, p));
        }
        out.push(rep(600 + n * 600, b));
        out.push(rep(1200 + n * 600, b));
        out
    }

    #[test]
    fn geofence_hits_inside_misses_outside() {
        let g = Geofence::build(&ports(), Resolution::new(7).unwrap());
        assert!(g.cell_count() > 10);
        assert_eq!(g.port_at(LatLon::new(51.95, 4.14).unwrap()), Some(0));
        // 5 km from centre: inside.
        let near = destination(LatLon::new(51.95, 4.14).unwrap(), 45.0, 5.0);
        assert_eq!(g.port_at(near), Some(0));
        // 40 km away: outside.
        let far = destination(LatLon::new(51.95, 4.14).unwrap(), 45.0, 40.0);
        assert_eq!(g.port_at(far), None);
        assert_eq!(g.port_at(LatLon::new(0.0, -30.0).unwrap()), None);
    }

    fn run(reports: Vec<EnrichedReport>) -> Vec<TripPoint> {
        let cfg = crate::config::PipelineConfig::default();
        let g = Geofence::build(&ports(), Resolution::new(7).unwrap());
        let mut out = Vec::new();
        extract_for_vessel(&g, &reports, cfg.min_trip_points, &mut out);
        out
    }

    #[test]
    fn crossing_yields_one_trip_with_semantics() {
        let out = run(crossing());
        assert!(!out.is_empty());
        let trip_ids: std::collections::HashSet<u64> = out.iter().map(|p| p.trip_id).collect();
        assert_eq!(trip_ids.len(), 1, "exactly one trip");
        for p in &out {
            assert_eq!(p.origin, 0);
            assert_eq!(p.dest, 1);
            assert!(p.eto_secs >= 0);
            assert!(p.ata_secs >= 0);
        }
        // ETO grows, ATA shrinks along the trip.
        assert_eq!(out.first().unwrap().eto_secs, 0);
        assert_eq!(out.last().unwrap().ata_secs, 0);
        assert!(out.last().unwrap().eto_secs > 0);
        assert!(out.first().unwrap().ata_secs > 0);
        // ETO + ATA is the trip duration for every point.
        let total = out[0].ata_secs;
        for p in &out {
            assert_eq!(p.eto_secs + p.ata_secs, total);
        }
    }

    #[test]
    fn in_port_records_are_not_trip_points() {
        let out = run(crossing());
        let g = Geofence::build(&ports(), Resolution::new(7).unwrap());
        for p in &out {
            assert_eq!(g.port_at(p.pos), None, "trip points lie outside ports");
        }
    }

    #[test]
    fn records_before_first_port_are_excluded() {
        // Only mid-sea points, never a port: no trips.
        let ps = ports();
        let mid = pol_geo::interpolate(ps[0].pos, ps[1].pos, 0.5);
        let reports: Vec<_> = (0..10).map(|i| rep(i * 600, mid)).collect();
        assert!(run(reports).is_empty());
    }

    #[test]
    fn unfinished_passage_excluded() {
        // Departs port A, never reaches a port.
        let ps = ports();
        let a = ps[0].pos;
        let mut reports = vec![rep(0, a)];
        for i in 1..10 {
            reports.push(rep(i * 600, destination(a, 200.0, 15.0 * i as f64)));
        }
        assert!(run(reports).is_empty());
    }

    #[test]
    fn short_flicker_trips_are_dropped() {
        // A -> B with only two outside points (< min_trip_points).
        let ps = ports();
        let mut reports = vec![rep(0, ps[0].pos)];
        reports.push(rep(600, pol_geo::interpolate(ps[0].pos, ps[1].pos, 0.4)));
        reports.push(rep(1200, pol_geo::interpolate(ps[0].pos, ps[1].pos, 0.6)));
        reports.push(rep(1800, ps[1].pos));
        assert!(run(reports).is_empty());
    }

    #[test]
    fn reset_tracker_matches_fresh_tracker() {
        let g = Geofence::build(&ports(), Resolution::new(7).unwrap());
        let reports = crossing();
        let mut fresh = Vec::new();
        extract_for_vessel(&g, &reports, 5, &mut fresh);
        assert!(!fresh.is_empty());
        // Dirty a tracker mid-passage, then reset: it must replay exactly
        // like a new one (the fused executor's reuse pattern).
        let mut tracker = TripTracker::new(3);
        let mut scratch = Vec::new();
        extract_for_vessel_with(
            &mut tracker,
            &g,
            &reports[..reports.len() / 2],
            &mut scratch,
        );
        tracker.reset(5);
        let mut reused = Vec::new();
        extract_for_vessel_with(&mut tracker, &g, &reports, &mut reused);
        assert_eq!(fresh, reused);
    }

    #[test]
    fn two_consecutive_trips_get_distinct_ids() {
        let ps = ports();
        let (a, b) = (ps[0].pos, ps[1].pos);
        let mut reports = Vec::new();
        let mut t = 0i64;
        let leg = |from: LatLon, to: LatLon, reports: &mut Vec<EnrichedReport>, t: &mut i64| {
            reports.push(rep(*t, from));
            *t += 600;
            for i in 1..12 {
                reports.push(rep(*t, pol_geo::interpolate(from, to, i as f64 / 12.0)));
                *t += 600;
            }
            reports.push(rep(*t, to));
            *t += 600;
        };
        leg(a, b, &mut reports, &mut t);
        leg(b, a, &mut reports, &mut t);
        let out = run(reports);
        let ids: std::collections::BTreeSet<u64> = out.iter().map(|p| p.trip_id).collect();
        assert_eq!(ids.len(), 2);
        // Second trip reverses origin/destination.
        let second: Vec<_> = out
            .iter()
            .filter(|p| p.trip_id == *ids.iter().max().unwrap())
            .collect();
        assert_eq!(second[0].origin, 1);
        assert_eq!(second[0].dest, 0);
    }
}
