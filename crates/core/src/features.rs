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
use pol_sketch::hash::FxHashMap;
use pol_sketch::{AngleHistogram, Circular, Distinct, GkSketch, MergeSketch, SpaceSaving, Welford};
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
#[derive(Clone, Debug)]
pub struct CellStats {
    /// Raw record count.
    pub records: u64,
    /// Distinct vessels.
    pub ships: Distinct,
    /// Distinct trips.
    pub trips: Distinct,
    /// Speed over ground, knots.
    pub speed: Welford,
    /// Speed percentiles.
    pub speed_q: GkSketch,
    /// Course over ground (circular).
    pub course: Circular,
    /// Course 30°-bins.
    pub course_bins: AngleHistogram,
    /// True heading (circular).
    pub heading: Circular,
    /// Heading 30°-bins.
    pub heading_bins: AngleHistogram,
    /// Elapsed time from origin, seconds.
    pub eto: Welford,
    /// ETO percentiles.
    pub eto_q: GkSketch,
    /// Actual time to arrival, seconds.
    pub ata: Welford,
    /// ATA percentiles.
    pub ata_q: GkSketch,
    /// Most frequent origin ports.
    pub origins: SpaceSaving<u64>,
    /// Most frequent destination ports.
    pub destinations: SpaceSaving<u64>,
    /// Most frequent next-cell transitions (raw cell indices).
    pub transitions: SpaceSaving<u64>,
}

impl CellStats {
    /// An empty accumulator with the configured sketch parameters.
    pub fn new(quantile_epsilon: f64, top_n_capacity: usize) -> CellStats {
        CellStats {
            records: 0,
            ships: Distinct::new(),
            trips: Distinct::new(),
            speed: Welford::new(),
            speed_q: GkSketch::new(quantile_epsilon),
            course: Circular::new(),
            course_bins: AngleHistogram::new(),
            heading: Circular::new(),
            heading_bins: AngleHistogram::new(),
            eto: Welford::new(),
            eto_q: GkSketch::new(quantile_epsilon),
            ata: Welford::new(),
            ata_q: GkSketch::new(quantile_epsilon),
            origins: SpaceSaving::new(top_n_capacity),
            destinations: SpaceSaving::new(top_n_capacity),
            transitions: SpaceSaving::new(top_n_capacity),
        }
    }

    /// Folds one projected record into the accumulator.
    pub fn observe(&mut self, cp: &CellPoint) {
        let p = &cp.point;
        self.records += 1;
        self.ships.add(&p.mmsi.0);
        self.trips.add(&p.trip_id);
        if let Some(s) = p.sog_knots {
            self.speed.add(s);
            self.speed_q.add(s);
        }
        if let Some(c) = p.cog_deg {
            self.course.add(c);
            self.course_bins.add(c);
        }
        if let Some(h) = p.heading_deg {
            self.heading.add(h);
            self.heading_bins.add(h);
        }
        self.eto.add(p.eto_secs as f64);
        self.eto_q.add(p.eto_secs as f64);
        self.ata.add(p.ata_secs as f64);
        self.ata_q.add(p.ata_secs as f64);
        self.origins.add(p.origin as u64);
        self.destinations.add(p.dest as u64);
        if let Some(next) = cp.next_cell {
            self.transitions.add(next.raw());
        }
    }

    /// Most frequent destination ports, `(port id, estimated count)`.
    pub fn top_destinations(&self, n: usize) -> Vec<(u16, u64)> {
        self.destinations
            .top(n)
            .into_iter()
            .map(|(k, c)| (k as u16, c.count))
            .collect()
    }

    /// Most frequent outgoing transitions, `(cell, estimated count)`.
    /// Invalid raw values (cannot occur from `observe`) are skipped.
    pub fn top_transitions(&self, n: usize) -> Vec<(CellIndex, u64)> {
        self.transitions
            .top(n)
            .into_iter()
            .filter_map(|(raw, c)| CellIndex::from_raw(raw).ok().map(|cell| (cell, c.count)))
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
/// observes `points` in order, each under its three group keys.
pub(crate) fn observe(acc: &mut Combiner, cfg: &PipelineConfig, points: &[CellPoint]) {
    for cp in points {
        let p = &cp.point;
        for key in [
            GroupKey::Cell(cp.cell),
            GroupKey::CellType(cp.cell, p.segment),
            GroupKey::CellRoute(cp.cell, p.origin, p.dest, p.segment),
        ] {
            let stats = acc.entry(key).or_insert_with(|| {
                Arc::new(CellStats::new(cfg.quantile_epsilon, cfg.top_n_capacity))
            });
            Arc::make_mut(stats).observe(cp);
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
    /// summary costs in memory and in first-touch time. Growing it is a
    /// decision to make here, not a side effect of a sketch change.
    #[test]
    fn cell_stats_does_not_grow_unnoticed() {
        let size = std::mem::size_of::<CellStats>();
        assert!(size <= 2_144, "CellStats grew to {size} bytes");
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
        assert_eq!(s.origins.top(1)[0].0, 0);
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
        a.merge(&b);
        assert_eq!(a.records, whole.records);
        assert_eq!(a.ships.estimate(), whole.ships.estimate());
        assert_eq!(a.speed.count(), whole.speed.count());
        assert!((a.speed.mean().unwrap() - whole.speed.mean().unwrap()).abs() < 1e-9);
        assert_eq!(a.course_bins.counts(), whole.course_bins.counts());
        assert_eq!(a.top_destinations(4), whole.top_destinations(4));
    }

    fn group_stats(points: &[CellPoint]) -> Vec<(GroupKey, Arc<CellStats>)> {
        let mut acc = Combiner::default();
        observe(&mut acc, &PipelineConfig::default(), points);
        acc.into_iter().collect()
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
