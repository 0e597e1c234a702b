//! §3.3.4 — feature extraction over grouping sets.
//!
//! The grouping set (Table 2) defines the map phase: every projected
//! record fans out to one key per enabled group identifier (`observe`).
//! The feature set (Table 3) defines the reduce phase: a [`CellStats`]
//! accumulator per key, built from the crate's mergeable sketches, merged
//! across partitions by the engine's `merge_combiner_shards`.

use crate::config::PipelineConfig;
use crate::records::CellPoint;
use pol_ais::types::MarketSegment;
use pol_hexgrid::CellIndex;
use pol_sketch::circular::unit_vector;
use pol_sketch::hash::hash64;
use pol_sketch::hash::FxHashMap;
use pol_sketch::loghist::Mapping;
use pol_sketch::{
    AngleHistogram, Circular, Distinct, LogHistogram, MergeSketch, SecondsMoments, SpeedMoments,
    Tally,
};
use std::sync::Arc;

/// Which group identifiers (Table 2) the inventory materialises.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GroupingSet {
    /// `(H3-index)` — all traffic crossing each cell.
    Cell,
    /// `(H3-index, vessel-type)`.
    CellType,
    /// `(H3-index, origin, destination, vessel-type)`.
    CellRoute,
}

impl GroupingSet {
    /// All three grouping sets of the paper's Table 2.
    pub const ALL: [GroupingSet; 3] = [Self::Cell, Self::CellType, Self::CellRoute];
}

/// A concrete group identifier: one value combination of a grouping set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GroupKey {
    /// All traffic in a cell.
    Cell(CellIndex),
    /// Per cell and market segment.
    CellType(CellIndex, MarketSegment),
    /// Per cell, origin port, destination port and market segment.
    CellRoute(CellIndex, u16, u16, MarketSegment),
}

impl GroupKey {
    /// The cell component every key carries.
    pub fn cell(&self) -> CellIndex {
        match self {
            GroupKey::Cell(c) | GroupKey::CellType(c, _) | GroupKey::CellRoute(c, _, _, _) => *c,
        }
    }

    /// Which grouping set this key belongs to.
    pub fn grouping_set(&self) -> GroupingSet {
        match self {
            GroupKey::Cell(_) => GroupingSet::Cell,
            GroupKey::CellType(_, _) => GroupingSet::CellType,
            GroupKey::CellRoute(_, _, _, _) => GroupingSet::CellRoute,
        }
    }
}

/// The Table-3 feature statistics for one group identifier.
///
/// | Feature     | Statistics here                              |
/// |-------------|----------------------------------------------|
/// | Records     | `records` count                              |
/// | Ships       | `ships` distinct count                       |
/// | Course      | circular mean + 30° bins                     |
/// | Heading     | circular mean + 30° bins                     |
/// | Speed       | mean/std/min/max + p10/p50/p90               |
/// | Trips       | `trips` distinct count                       |
/// | ETO         | mean/std + percentiles (seconds)             |
/// | ATA         | mean/std + percentiles (seconds)             |
/// | Origin      | Top-N port ids                               |
/// | Destination | Top-N port ids                               |
/// | Transitions | Top-N next-cell indices                      |
///
/// No field holds a float: a summary is a function of the multiset of
/// records folded into it, whatever the order and grouping of the
/// folds and merges (DESIGN §9).
#[derive(Clone, Debug, PartialEq)]
pub struct CellStats {
    /// Raw record count.
    pub records: u64,
    /// Distinct vessels.
    pub ships: Distinct,
    /// Distinct trips.
    pub trips: Distinct,
    /// Speed over ground, knots (summed at 2⁻³² kn).
    pub speed: SpeedMoments,
    /// Speed percentiles.
    pub speed_q: LogHistogram,
    /// Course over ground (circular).
    pub course: Circular,
    /// Course 30°-bins.
    pub course_bins: AngleHistogram,
    /// True heading (circular).
    pub heading: Circular,
    /// Heading 30°-bins.
    pub heading_bins: AngleHistogram,
    /// Elapsed time from origin, whole seconds.
    pub eto: SecondsMoments,
    /// ETO percentiles.
    pub eto_q: LogHistogram,
    /// Actual time to arrival, whole seconds.
    pub ata: SecondsMoments,
    /// ATA percentiles.
    pub ata_q: LogHistogram,
    /// Origin ports, counted exactly.
    pub origins: Tally,
    /// Destination ports, counted exactly.
    pub destinations: Tally,
    /// Next-cell transitions (raw cell indices), counted exactly.
    pub transitions: Tally,
}

/// What one record adds to a summary, computed once for the three group
/// keys it folds into: hashes, fixed-point values, bucket keys and bins.
struct Sample {
    ship: u64,
    trip: u64,
    speed: Option<(i64, i32)>,
    course: Option<((i64, i64), usize)>,
    heading: Option<((i64, i64), usize)>,
    eto: (i64, i32),
    ata: (i64, i32),
    origin: u64,
    dest: u64,
    next: Option<u64>,
}

impl Sample {
    /// `cp` under the quantile summaries' `mapping`. Non-finite speeds
    /// and angles count as absent.
    fn of(cp: &CellPoint, mapping: Mapping) -> Sample {
        let p = &cp.point;
        let angle = |deg: Option<f64>| {
            let deg = deg?;
            Some((unit_vector(deg)?, AngleHistogram::bin_of(deg)?))
        };
        let seconds = |s: i64| (s, mapping.key(s as f64).unwrap_or(0));
        Sample {
            ship: hash64(&p.mmsi.0),
            trip: hash64(&p.trip_id),
            speed: p
                .sog_knots
                .and_then(|s| Some((SpeedMoments::quantize(s)?, mapping.key(s)?))),
            course: angle(p.cog_deg),
            heading: angle(p.heading_deg),
            eto: seconds(p.eto_secs),
            ata: seconds(p.ata_secs),
            origin: u64::from(p.origin),
            dest: u64::from(p.dest),
            next: cp.next_cell.map(|c| c.raw()),
        }
    }
}

impl CellStats {
    /// An empty accumulator whose percentiles answer within relative
    /// accuracy `quantile_epsilon` ([`LogHistogram::new`]). The Top-N
    /// columns are exact tallies, so `_top_n_capacity` bounds nothing;
    /// it stays in the signature for callers written against the
    /// bounded sketch it replaced.
    pub fn new(quantile_epsilon: f64, _top_n_capacity: usize) -> CellStats {
        let quantiles = LogHistogram::new(quantile_epsilon);
        CellStats {
            records: 0,
            ships: Distinct::new(),
            trips: Distinct::new(),
            speed: SpeedMoments::new(),
            speed_q: quantiles.clone(),
            course: Circular::new(),
            course_bins: AngleHistogram::new(),
            heading: Circular::new(),
            heading_bins: AngleHistogram::new(),
            eto: SecondsMoments::new(),
            eto_q: quantiles.clone(),
            ata: SecondsMoments::new(),
            ata_q: quantiles,
            origins: Tally::new(),
            destinations: Tally::new(),
            transitions: Tally::new(),
        }
    }

    /// Folds one projected record into the accumulator.
    pub fn observe(&mut self, cp: &CellPoint) {
        self.add(&Sample::of(cp, self.speed_q.mapping()));
    }

    /// Folds one record's [`Sample`], made under this summary's mapping.
    #[inline]
    fn add(&mut self, s: &Sample) {
        self.records += 1;
        self.ships.add_hash(s.ship);
        self.trips.add_hash(s.trip);
        if let Some((q, key)) = s.speed {
            self.speed.add_fixed(q);
            self.speed_q.add_key(key);
        }
        if let Some((unit, bin)) = s.course {
            self.course.add_unit(unit);
            self.course_bins.add_bin(bin);
        }
        if let Some((unit, bin)) = s.heading {
            self.heading.add_unit(unit);
            self.heading_bins.add_bin(bin);
        }
        self.eto.add_fixed(s.eto.0);
        self.eto_q.add_key(s.eto.1);
        self.ata.add_fixed(s.ata.0);
        self.ata_q.add_key(s.ata.1);
        self.origins.add(s.origin);
        self.destinations.add(s.dest);
        if let Some(next) = s.next {
            self.transitions.add(next);
        }
    }

    /// Most frequent destination ports, `(port id, count)`.
    pub fn top_destinations(&self, n: usize) -> Vec<(u16, u64)> {
        self.destinations
            .top(n)
            .into_iter()
            .map(|(k, c)| (k as u16, c))
            .collect()
    }

    /// Most frequent outgoing transitions, `(cell, count)`. Invalid raw
    /// values (cannot occur from `observe`) are skipped.
    pub fn top_transitions(&self, n: usize) -> Vec<(CellIndex, u64)> {
        self.transitions
            .top(n)
            .into_iter()
            .filter_map(|(raw, c)| CellIndex::from_raw(raw).ok().map(|cell| (cell, c)))
            .collect()
    }
}

impl MergeSketch for CellStats {
    fn merge(&mut self, other: &Self) {
        self.records += other.records;
        self.ships.merge(&other.ships);
        self.trips.merge(&other.trips);
        self.speed.merge(&other.speed);
        self.speed_q.merge(&other.speed_q);
        self.course.merge(&other.course);
        self.course_bins.merge(&other.course_bins);
        self.heading.merge(&other.heading);
        self.heading_bins.merge(&other.heading_bins);
        self.eto.merge(&other.eto);
        self.eto_q.merge(&other.eto_q);
        self.ata.merge(&other.ata);
        self.ata_q.merge(&other.ata_q);
        self.origins.merge(&other.origins);
        self.destinations.merge(&other.destinations);
        self.transitions.merge(&other.transitions);
    }
}

/// The reduce operator over accumulators behind their `Arc`s: merges
/// `other` into `acc` where `acc` lives.
pub(crate) fn merge_shared(acc: &mut Arc<CellStats>, other: Arc<CellStats>) {
    Arc::make_mut(acc).merge(&other);
}

/// A per-key combiner map. A summary is allocated behind its `Arc` at a
/// key's first record and stays there: the radix partition, the shard
/// merge and the inventory downstream move the 8-byte pointer, and
/// nothing shares an accumulator while it is built, so `Arc::make_mut`
/// never copies.
pub(crate) type Combiner = FxHashMap<GroupKey, Arc<CellStats>>;

/// The map phase of §3.3.4, which every route to an inventory shares:
/// observes `points`, each under its three group keys. A record's
/// [`Sample`] is made once for the three.
pub(crate) fn observe(acc: &mut Combiner, cfg: &PipelineConfig, points: &[CellPoint]) {
    let mapping = Mapping::for_accuracy(cfg.quantile_epsilon);
    for cp in points {
        let p = &cp.point;
        let sample = Sample::of(cp, mapping);
        for key in [
            GroupKey::Cell(cp.cell),
            GroupKey::CellType(cp.cell, p.segment),
            GroupKey::CellRoute(cp.cell, p.origin, p.dest, p.segment),
        ] {
            let stats = acc.entry(key).or_insert_with(|| {
                Arc::new(CellStats::new(cfg.quantile_epsilon, cfg.top_n_capacity))
            });
            Arc::make_mut(stats).add(&sample);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::TripPoint;
    use pol_ais::types::Mmsi;
    use pol_geo::LatLon;
    use pol_hexgrid::{cell_at, Resolution};

    fn cp(mmsi: u32, trip: u64, sog: f64, cog: f64, origin: u16, dest: u16) -> CellPoint {
        let pos = LatLon::new(48.0, -6.0).unwrap();
        let cell = cell_at(pos, Resolution::new(6).unwrap());
        CellPoint {
            point: TripPoint {
                mmsi: Mmsi(mmsi),
                timestamp: 1000,
                pos,
                sog_knots: Some(sog),
                cog_deg: Some(cog),
                heading_deg: Some(cog),
                segment: MarketSegment::Container,
                trip_id: trip,
                origin,
                dest,
                eto_secs: 3_600,
                ata_secs: 7_200,
            },
            cell,
            next_cell: None,
        }
    }

    /// A build allocates one of these per group key and every layer after
    /// the combiner moves the pointer, so the struct's size is what a
    /// summary costs in memory and in first-touch time: 800 bytes, each
    /// sketch holding its common case inline (2 000 when every sketch
    /// held room for its rare case). Growing it is a decision to make
    /// here, not a side effect of a sketch change.
    #[test]
    fn cell_stats_does_not_grow_unnoticed() {
        let size = std::mem::size_of::<CellStats>();
        assert!(size <= 800, "CellStats grew to {size} bytes");
    }

    /// The combiner, the shard merge and the inventory key their maps by
    /// `GroupKey`: ~4 k keys of real resolution-6 cells spread over the
    /// 13 bits a table holding them picks buckets by (a uniform hash
    /// gives ~3 160 distinct values). Without the map hasher's finalizer
    /// the `Cell` keys all share one value and the `CellType` keys 32.
    #[test]
    fn map_hashes_of_real_cell_keys_spread() {
        use std::hash::BuildHasher;
        let build = pol_sketch::hash::FxBuildHasher::default();
        let centre = cell_at(LatLon::new(54.0, 8.0).unwrap(), Resolution::new(6).unwrap());
        let cells = pol_hexgrid::grid_disk(centre, 36);
        assert!(cells.len() > 3_900);
        let segments = MarketSegment::ALL;
        let spread = |keys: Vec<GroupKey>| {
            let low: std::collections::HashSet<u64> =
                keys.iter().map(|k| build.hash_one(k) & 0x1fff).collect();
            low.len()
        };
        let cell_keys = cells.iter().map(|&c| GroupKey::Cell(c)).collect();
        let type_keys = (cells.iter().zip(segments.iter().cycle()))
            .map(|(&c, &s)| GroupKey::CellType(c, s))
            .collect();
        assert!(spread(cell_keys) >= 3_000, "cell keys");
        assert!(spread(type_keys) >= 3_000, "cell-type keys");
    }

    #[test]
    fn observe_accumulates_all_features() {
        let mut s = CellStats::new(0.02, 8);
        s.observe(&cp(1, 10, 12.0, 90.0, 0, 5));
        s.observe(&cp(1, 10, 14.0, 92.0, 0, 5));
        s.observe(&cp(2, 20, 16.0, 88.0, 1, 5));
        assert_eq!(s.records, 3);
        assert_eq!(s.ships.estimate(), 2);
        assert_eq!(s.trips.estimate(), 2);
        assert!((s.speed.mean().unwrap() - 14.0).abs() < 1e-9);
        assert!((s.course.mean_deg().unwrap() - 90.0).abs() < 1.0);
        // 88° lands in bin 2 ([60°, 90°)); 90° and 92° in bin 3 ([90°, 120°)).
        assert_eq!(s.course_bins.counts()[2], 1);
        assert_eq!(s.course_bins.counts()[3], 2);
        assert_eq!(s.top_destinations(1), vec![(5, 3)]);
        assert_eq!(s.origins.top1(), Some((0, 2)));
        assert!((s.eto.mean().unwrap() - 3_600.0).abs() < 1e-9);
        assert!((s.ata.mean().unwrap() - 7_200.0).abs() < 1e-9);
    }

    #[test]
    fn missing_kinematics_do_not_count() {
        let mut s = CellStats::new(0.02, 8);
        let mut point = cp(1, 10, 12.0, 90.0, 0, 5);
        point.point.sog_knots = None;
        point.point.cog_deg = None;
        point.point.heading_deg = None;
        s.observe(&point);
        assert_eq!(s.records, 1);
        assert_eq!(s.speed.count(), 0);
        assert_eq!(s.course.count(), 0);
        assert_eq!(s.heading.count(), 0);
    }

    #[test]
    fn transitions_tracked_when_present() {
        let mut s = CellStats::new(0.02, 8);
        let mut point = cp(1, 10, 12.0, 90.0, 0, 5);
        let other = cell_at(
            LatLon::new(48.5, -6.0).unwrap(),
            Resolution::new(6).unwrap(),
        );
        point.next_cell = Some(other);
        s.observe(&point);
        s.observe(&point);
        let top = s.top_transitions(3);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0], (other, 2));
    }

    #[test]
    fn merge_equals_single_accumulator() {
        let points: Vec<_> = (0..50)
            .map(|i| {
                cp(
                    i % 5,
                    (i % 7) as u64,
                    10.0 + i as f64 % 8.0,
                    (i * 13 % 360) as f64,
                    (i % 3) as u16,
                    (i % 4) as u16,
                )
            })
            .collect();
        let mut whole = CellStats::new(0.02, 8);
        points.iter().for_each(|p| whole.observe(p));
        let mut a = CellStats::new(0.02, 8);
        let mut b = CellStats::new(0.02, 8);
        points[..20].iter().for_each(|p| a.observe(p));
        points[20..].iter().for_each(|p| b.observe(p));
        let mut ba = b.clone();
        ba.merge(&a);
        a.merge(&b);
        assert_eq!(a, whole);
        assert_eq!(ba, whole);
    }

    fn group_stats(points: &[CellPoint]) -> Vec<(GroupKey, Arc<CellStats>)> {
        let mut acc = Combiner::default();
        observe(&mut acc, &PipelineConfig::default(), points);
        acc.into_iter().collect()
    }

    #[test]
    fn a_shared_sample_folds_as_observe_does() {
        // The build makes one `Sample` per record for its three keys;
        // `CellStats::observe` makes its own. Same summary either way,
        // off-grid values and absent kinematics included.
        let mut points: Vec<CellPoint> = (0..40)
            .map(|i| {
                let x = f64::from(i);
                cp(i % 3, u64::from(i % 4), 3.3 + x * 0.731, x * 17.77, 1, 2)
            })
            .collect();
        points[5].point.sog_knots = None;
        points[6].point.cog_deg = None;
        points[7].point.heading_deg = Some(f64::NAN);
        let mut observed = CellStats::new(0.01, 8);
        points.iter().for_each(|p| observed.observe(p));
        let out = group_stats(&points);
        for (_, stats) in &out {
            assert_eq!(**stats, observed);
        }
        assert_eq!(observed.speed.count(), 39);
        assert_eq!(observed.heading.count(), 39);
    }

    #[test]
    fn group_keys_fan_out_three_ways() {
        let out = group_stats(&[cp(1, 10, 12.0, 90.0, 0, 5), cp(2, 11, 13.0, 91.0, 0, 5)]);
        // One cell, one segment, one (o,d): exactly 3 group keys.
        assert_eq!(out.len(), 3);
        let mut sets: Vec<GroupingSet> = out.iter().map(|(k, _)| k.grouping_set()).collect();
        sets.sort_by_key(|s| format!("{s:?}"));
        assert_eq!(
            sets,
            vec![
                GroupingSet::Cell,
                GroupingSet::CellRoute,
                GroupingSet::CellType
            ]
        );
        for (key, stats) in &out {
            assert_eq!(stats.records, 2, "{key:?}");
            assert_eq!(key.cell(), out[0].0.cell());
        }
    }

    #[test]
    fn distinct_segments_split_celltype_keys() {
        let mut a = cp(1, 10, 12.0, 90.0, 0, 5);
        let mut b = cp(2, 11, 13.0, 91.0, 0, 5);
        a.point.segment = MarketSegment::Container;
        b.point.segment = MarketSegment::Tanker;
        let out = group_stats(&[a, b]);
        // Cell (1 shared) + CellType (2) + CellRoute (2) = 5 keys.
        assert_eq!(out.len(), 5);
        let cell_key: Vec<_> = out
            .iter()
            .filter(|(k, _)| k.grouping_set() == GroupingSet::Cell)
            .collect();
        assert_eq!(cell_key.len(), 1);
        assert_eq!(cell_key[0].1.records, 2);
    }
}
