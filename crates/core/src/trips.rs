//! §3.3.2 — trip-semantics extraction via geofencing.
//!
//! Port areas are geofenced on the hexagonal grid: every cell whose centre
//! lies within a port's radius maps to that port, so the per-report lookup
//! is one bit test for a report far from every port, and one
//! `latlon→cell` projection plus one hash probe near one. All records of a
//! vessel between two consecutive port stops form a trip; the first and
//! last records *outside* port geometries define the origin and
//! destination timestamps, and every record is enriched with elapsed time
//! from origin (ETO) and actual time to arrival (ATA). Records that cannot
//! be attributed to a trip are excluded, exactly as the paper prescribes.

use crate::records::{EnrichedReport, PortSite, TripPoint};
use pol_geo::project::WorldXY;
use pol_geo::{haversine_km, EARTH_RADIUS_KM};
use pol_hexgrid::lattice::Lattice;
use pol_hexgrid::{cell_at, cell_axial_at, grid_disk, Resolution};
use pol_sketch::hash::FxHashMap;

/// Columns of [`Geofence`]'s bitmap: 0.5° of longitude each.
const SQUARE_COLS: usize = 720;

/// Rows of [`Geofence`]'s bitmap: 0.5° of latitude each.
const SQUARE_ROWS: usize = 360;

/// The bitmap square holding `(lat, lon)`, as (column, row). Monotone in
/// each coordinate; anything past the world's edges lands in the edge
/// square.
fn square(lat: f64, lon: f64) -> (usize, usize) {
    // `as usize` saturates: a negative offset is square 0.
    let col = ((lon + 180.0) * 2.0) as usize;
    let row = ((lat + 90.0) * 2.0) as usize;
    (col.min(SQUARE_COLS - 1), row.min(SQUARE_ROWS - 1))
}

/// The hex-grid port geofence.
///
/// Keyed by *axial coordinates* at the geofence resolution rather than by
/// full [`pol_hexgrid::CellIndex`]: within one resolution axial coordinates
/// identify a cell uniquely, and [`pol_hexgrid::cell_axial_at`] skips the
/// digit walk and base-cell probe that dominate `cell_at`. `port_at` runs
/// once per cleaned report in every build path, and most reports are at
/// sea, far from any port: a bitmap of 0.5° squares (about 32 KB), set
/// wherever a geofence hexagon may reach, answers those with one bit
/// test, and only a report in a set square pays the projection, the hex
/// rounding and the hash probe.
pub struct Geofence {
    resolution: Resolution,
    axial_to_port: FxHashMap<(i64, i64), u16>,
    /// One bit per square, row-major: set where the bounding box of a
    /// port's geofence hexagons, plus one square all round, reaches.
    near_port: Box<[u64]>,
}

impl Geofence {
    /// Builds a geofence covering each port's radius with cells of
    /// `resolution`: every cell whose centre lies within the radius plus
    /// one edge length, so a small radius still gets its centre cell.
    pub fn build(ports: &[PortSite], resolution: Resolution) -> Geofence {
        // A regular hexagon's edge is its circumradius.
        let edge = pol_hexgrid::avg_edge_length_km(resolution);
        let basis = Lattice::get().basis(resolution.level());
        let mut axial_to_port = FxHashMap::default();
        let mut near_port = vec![0u64; (SQUARE_COLS * SQUARE_ROWS).div_ceil(64)];
        for port in ports {
            let center = cell_at(port.pos, resolution);
            // k rings to cover the radius (edge ≈ circumradius; ring k
            // reaches ≈ k·√3·edge planar).
            let k = (port.radius_km / (edge * 1.5)).ceil() as u32 + 1;
            // The lattice centres of the port's cells span `lo..=hi`.
            let mut lo = WorldXY {
                x: f64::INFINITY,
                y: f64::INFINITY,
            };
            let mut hi = WorldXY {
                x: f64::NEG_INFINITY,
                y: f64::NEG_INFINITY,
            };
            for cell in grid_disk(center, k) {
                let c = pol_hexgrid::cell_center(cell);
                if haversine_km(c, port.pos) <= port.radius_km + edge {
                    let ax = cell.axial();
                    let xy = basis.to_world(ax);
                    (lo.x, lo.y) = (lo.x.min(xy.x), lo.y.min(xy.y));
                    (hi.x, hi.y) = (hi.x.max(xy.x), hi.y.max(xy.y));
                    // First writer wins: overlapping ports keep the earlier
                    // (conventionally bigger) port.
                    axial_to_port.entry((ax.q, ax.r)).or_insert(port.id);
                }
            }
            if lo.x <= hi.x {
                mark_cells(&mut near_port, lo, hi, edge);
            }
        }
        Geofence {
            resolution,
            axial_to_port,
            near_port: near_port.into_boxed_slice(),
        }
    }

    /// The port whose geofence contains the position, if any.
    pub fn port_at(&self, pos: pol_geo::LatLon) -> Option<u16> {
        if !self.near_port(pos) {
            return None;
        }
        let ax = cell_axial_at(pos, self.resolution);
        self.axial_to_port.get(&(ax.q, ax.r)).copied()
    }

    /// Whether `pos` lies in a square some geofence hexagon may reach.
    fn near_port(&self, pos: pol_geo::LatLon) -> bool {
        let (col, row) = square(pos.lat(), pos.lon());
        let i = row * SQUARE_COLS + col;
        self.near_port[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of geofence cells.
    pub fn cell_count(&self) -> usize {
        self.axial_to_port.len()
    }
}

/// Sets the squares of every hexagon with circumradius `r` whose centre
/// on the projection plane lies in `lo..=hi`, plus one square all round.
/// Each such hexagon lies in its centre ± `r` on both axes, so all of
/// them lie in `lo - r ..= hi + r`; λ = x/R and φ = asin(y/R) are
/// monotone, so every point `cell_axial_at` rounds to one of them lies in
/// a square between those of that box's corners, and the extra square
/// absorbs rounding at the squares' edges. Centres are the lattice's own,
/// never wrapped: a seam cell's box runs past ±180° and is clamped there,
/// as a report's longitude is.
fn mark_cells(near_port: &mut [u64], lo: WorldXY, hi: WorldXY, r: f64) {
    let lon = |x: f64| (x / EARTH_RADIUS_KM).to_degrees();
    let lat = |y: f64| (y / EARTH_RADIUS_KM).clamp(-1.0, 1.0).asin().to_degrees();
    let (col_lo, row_lo) = square(lat(lo.y - r), lon(lo.x - r));
    let (col_hi, row_hi) = square(lat(hi.y + r), lon(hi.x + r));
    for row in row_lo.saturating_sub(1)..=(row_hi + 1).min(SQUARE_ROWS - 1) {
        for col in col_lo.saturating_sub(1)..=(col_hi + 1).min(SQUARE_COLS - 1) {
            let i = row * SQUARE_COLS + col;
            near_port[i / 64] |= 1 << (i % 64);
        }
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

    /// `port_at` without the bitmap: the hex lookup alone.
    fn port_at_unfiltered(g: &Geofence, pos: LatLon) -> Option<u16> {
        let ax = cell_axial_at(pos, g.resolution);
        g.axial_to_port.get(&(ax.q, ax.r)).copied()
    }

    fn world_geofences() -> Vec<Geofence> {
        let ports = crate::pipeline::port_sites(crate::PipelineConfig::default().port_radius_km);
        [6, 7]
            .map(|res| Geofence::build(&ports, Resolution::new(res).unwrap()))
            .into()
    }

    #[test]
    fn the_bitmap_never_changes_an_answer_anywhere() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut unit = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        for g in world_geofences() {
            for _ in 0..200_000 {
                let p = LatLon::new(unit() * 180.0 - 90.0, unit() * 360.0 - 180.0).unwrap();
                assert_eq!(g.port_at(p), port_at_unfiltered(&g, p), "{p:?}");
            }
        }
    }

    /// Dense sweeps over every world port's surroundings, out past its
    /// fence: every point the hex lookup puts in a port keeps its port.
    #[test]
    fn the_bitmap_never_changes_an_answer_around_a_port() {
        let ports = crate::pipeline::port_sites(crate::PipelineConfig::default().port_radius_km);
        for g in world_geofences() {
            let mut hits = 0;
            for port in &ports {
                let (lat, lon) = (port.pos.lat(), port.pos.lon());
                let half_lon = (0.4 / lat.to_radians().cos()).min(180.0);
                for i in -60..=60 {
                    for j in -60..=60 {
                        let p = LatLon::wrapped(
                            lat + 0.4 * f64::from(i) / 60.0,
                            lon + half_lon * f64::from(j) / 60.0,
                        );
                        let expected = port_at_unfiltered(&g, p);
                        hits += usize::from(expected.is_some());
                        assert_eq!(g.port_at(p), expected, "{p:?} near {}", port.name);
                    }
                }
            }
            assert!(hits > 10_000, "the sweeps reached {hits} fenced points");
        }
    }

    /// The bitmap keeps one square of slack round every hexagon: the
    /// squares beside each corner of a fence cell are set, so rounding at
    /// a square's edge cannot clear a fenced point.
    #[test]
    fn the_squares_beside_every_fence_corner_are_set() {
        let g = Geofence::build(&ports(), Resolution::new(7).unwrap());
        for &(q, r) in g.axial_to_port.keys() {
            let cell =
                pol_hexgrid::CellIndex::from_axial(pol_hexgrid::Axial::new(q, r), g.resolution)
                    .unwrap();
            for corner in pol_hexgrid::cell_boundary(cell) {
                for (dlat, dlon) in [(-0.5, -0.5), (-0.5, 0.5), (0.5, -0.5), (0.5, 0.5)] {
                    let p = LatLon::new(corner.lat() + dlat, corner.lon() + dlon).unwrap();
                    assert!(g.near_port(p), "{p:?} beside {corner:?}");
                }
            }
        }
    }

    /// Synthetic ports on the antimeridian and past 80° of latitude, where
    /// the squares are narrowest and seam cells have centres past ±180°.
    #[test]
    fn the_bitmap_never_changes_an_answer_at_the_seam_and_the_poles() {
        let sites: Vec<PortSite> = [
            (10.0, 179.9),
            (-35.0, -179.9),
            (82.0, 20.0),
            (-85.0, 179.95),
        ]
        .iter()
        .enumerate()
        .map(|(i, &(lat, lon))| PortSite {
            id: i as u16,
            name: format!("S{i}"),
            pos: LatLon::new(lat, lon).unwrap(),
            radius_km: 12.0,
        })
        .collect();
        for res in [6, 7] {
            let g = Geofence::build(&sites, Resolution::new(res).unwrap());
            let mut hits = 0;
            for site in &sites {
                for i in -80..=80 {
                    for j in -200..=200 {
                        let p = LatLon::wrapped(
                            site.pos.lat() + 0.3 * f64::from(i) / 80.0,
                            site.pos.lon() + 2.0 * f64::from(j) / 200.0,
                        );
                        let expected = port_at_unfiltered(&g, p);
                        hits += usize::from(expected.is_some());
                        assert_eq!(g.port_at(p), expected, "{p:?} near {}", site.name);
                    }
                }
            }
            assert!(hits > 1_000, "the sweeps reached {hits} fenced points");
        }
    }

    /// The share of a fleetsim build's cleaned reports the bitmap answers
    /// without a hex lookup. A floor, so that the fast path cannot be
    /// switched off unnoticed (DESIGN §8 "Per-record fast paths" states
    /// the share on polbench's world).
    #[test]
    fn the_bitmap_answers_most_reports() {
        use pol_fleetsim::scenario::{generate, ScenarioConfig};
        let ds = generate(&ScenarioConfig::tiny());
        let cfg = crate::PipelineConfig::default();
        let ports = crate::pipeline::port_sites(cfg.port_radius_km);
        let g = Geofence::build(&ports, cfg.resolution);
        let (vessels, _) = crate::reference::clean(ds.positions, &ds.statics, &cfg);
        let reports: Vec<&EnrichedReport> = vessels.values().flatten().collect();
        let at_sea = reports.iter().filter(|r| !g.near_port(r.pos)).count();
        let share = at_sea as f64 / reports.len() as f64;
        assert!(reports.len() > 10_000, "{} reports", reports.len());
        assert!(
            share > 0.9,
            "the bitmap answered {share:.4} of {} reports",
            reports.len()
        );
    }
}
