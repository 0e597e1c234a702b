//! The model of normalcy: anomaly detection against the inventory.
//!
//! §2 of the paper: "we build a model of normalcy that can then be used to
//! identify any outliers from this e.g. Covid-19 or Suez Canal". A live
//! report is anomalous when it disagrees with the historical per-cell
//! statistics: speed far outside the cell's distribution, course far from
//! the cell's dominant direction (where one exists), or a position in a
//! cell its vessel type has never been seen in.

use pol_ais::types::MarketSegment;
use pol_core::{Inventory, InventoryQuery};
use pol_geo::LatLon;
use pol_hexgrid::cell_at;

/// Speed z-score beyond which a report is anomalous.
const SPEED_Z_THRESHOLD: f64 = 3.0;
/// Minimum resultant length for course checks: only strongly lane-like
/// cells (e.g. traffic separation schemes) judge a course.
const MIN_ALIGNMENT: f64 = 0.8;
/// Course deviation, in degrees, beyond which a report is anomalous.
const COURSE_THRESHOLD_DEG: f64 = 60.0;
/// Historical records a cell needs before it judges speed or course.
const MIN_SAMPLES: u64 = 20;

/// One detected deviation from normalcy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Anomaly {
    /// Speed z-score beyond the threshold: `(observed_kn, z)`.
    Speed {
        /// Observed speed over ground, knots.
        observed_kn: f64,
        /// Z-score against the cell's speed distribution.
        z: f64,
    },
    /// Course deviates from a strongly-aligned cell's mean direction:
    /// `(observed_deg, mean_deg, deviation_deg)`.
    Course {
        /// Observed course over ground, degrees.
        observed_deg: f64,
        /// The cell's mean direction, degrees.
        mean_deg: f64,
        /// Angular deviation between the two, degrees.
        deviation_deg: f64,
    },
    /// The cell has no history for this vessel type (off known lanes).
    OffLane,
}

/// The normalcy model over an inventory-shaped store, generic over
/// [`InventoryQuery`] like the other estimators.
pub struct AnomalyDetector<'a, I: InventoryQuery = Inventory> {
    inventory: &'a I,
}

impl<'a, I: InventoryQuery> AnomalyDetector<'a, I> {
    /// Wraps an inventory-shaped store.
    pub fn new(inventory: &'a I) -> Self {
        AnomalyDetector { inventory }
    }

    /// Assesses one live report against the cell's vessel-type summary,
    /// else its all-traffic one. Returns every triggered anomaly (empty =
    /// normal); a cell with neither summary, or one whose bytes do not
    /// decode, yields [`Anomaly::OffLane`].
    pub fn assess(
        &self,
        pos: LatLon,
        sog_knots: Option<f64>,
        cog_deg: Option<f64>,
        segment: Option<MarketSegment>,
    ) -> Vec<Anomaly> {
        let cell = cell_at(pos, self.inventory.resolution());
        let summary = self.inventory.most_specific(cell, segment, None);
        let Some(Ok(stats)) = summary.as_ref().map(|s| s.stats()) else {
            return vec![Anomaly::OffLane];
        };
        let mut out = Vec::new();
        if stats.records >= MIN_SAMPLES {
            if let (Some(obs), Some(mean), Some(std)) =
                (sog_knots, stats.speed.mean(), stats.speed.std_dev())
            {
                let std = std.max(0.5); // floor: protocol quantisation noise
                let z = (obs - mean) / std;
                if z.abs() > SPEED_Z_THRESHOLD {
                    out.push(Anomaly::Speed {
                        observed_kn: obs,
                        z,
                    });
                }
            }
            if let (Some(obs), Some(mean), Some(r)) = (
                cog_deg,
                stats.course.mean_deg(),
                stats.course.resultant_length(),
            ) {
                if r >= MIN_ALIGNMENT {
                    let mut dev = (obs - mean).abs() % 360.0;
                    if dev > 180.0 {
                        dev = 360.0 - dev;
                    }
                    if dev > COURSE_THRESHOLD_DEG {
                        out.push(Anomaly::Course {
                            observed_deg: obs,
                            mean_deg: mean,
                            deviation_deg: dev,
                        });
                    }
                }
            }
        }
        out
    }

    /// Fraction of a report stream flagged anomalous — the fleet-level
    /// disruption signal (rises when e.g. Suez traffic reroutes through
    /// cells that never saw those origin/destination flows).
    pub fn anomaly_rate<R>(&self, reports: R) -> f64
    where
        R: IntoIterator<Item = (LatLon, Option<f64>, Option<f64>, Option<MarketSegment>)>,
    {
        let mut total = 0u64;
        let mut flagged = 0u64;
        for (pos, sog, cog, seg) in reports {
            total += 1;
            if !self.assess(pos, sog, cog, seg).is_empty() {
                flagged += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            flagged as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_core::features::{CellStats, GroupKey};
    use pol_core::records::{CellPoint, TripPoint};
    use pol_hexgrid::Resolution;
    use pol_sketch::hash::FxHashMap;

    /// A cell with 100 observations: speed ~14±1 kn, course tightly 90°.
    fn lane_inventory() -> (Inventory, LatLon) {
        let res = Resolution::new(6).unwrap();
        let pos = LatLon::new(51.0, 2.0).unwrap();
        let cell = cell_at(pos, res);
        let mut stats = CellStats::new(0.02, 8);
        for i in 0..100 {
            let cp = CellPoint {
                point: TripPoint {
                    mmsi: pol_ais::types::Mmsi(1 + i),
                    timestamp: i as i64,
                    pos,
                    sog_knots: Some(14.0 + ((i % 5) as f64 - 2.0) * 0.5),
                    cog_deg: Some(90.0 + ((i % 7) as f64 - 3.0)),
                    heading_deg: Some(90.0),
                    segment: MarketSegment::Container,
                    trip_id: i as u64,
                    origin: 0,
                    dest: 1,
                    eto_secs: 0,
                    ata_secs: 0,
                },
                cell,
                next_cell: None,
            };
            stats.observe(&cp);
        }
        let mut entries: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
        entries.insert(GroupKey::Cell(cell), stats.clone());
        entries.insert(GroupKey::CellType(cell, MarketSegment::Container), stats);
        (Inventory::from_entries(res, entries, 100), pos)
    }

    #[test]
    fn normal_report_passes() {
        let (inv, pos) = lane_inventory();
        let det = AnomalyDetector::new(&inv);
        let a = det.assess(pos, Some(14.2), Some(91.0), Some(MarketSegment::Container));
        assert!(a.is_empty(), "{a:?}");
    }

    #[test]
    fn speed_outlier_flagged() {
        let (inv, pos) = lane_inventory();
        let det = AnomalyDetector::new(&inv);
        let a = det.assess(pos, Some(30.0), Some(90.0), None);
        assert!(
            matches!(a.as_slice(), [Anomaly::Speed { z, .. }] if *z > 3.0),
            "{a:?}"
        );
        // Loitering (0 kn) in a 14 kn lane is also anomalous.
        let a = det.assess(pos, Some(0.0), Some(90.0), None);
        assert!(matches!(a.as_slice(), [Anomaly::Speed { z, .. }] if *z < -3.0));
    }

    #[test]
    fn course_against_the_lane_flagged() {
        let (inv, pos) = lane_inventory();
        let det = AnomalyDetector::new(&inv);
        let a = det.assess(pos, Some(14.0), Some(270.0), None);
        assert!(
            a.iter().any(
                |x| matches!(x, Anomaly::Course { deviation_deg, .. } if *deviation_deg > 170.0)
            ),
            "{a:?}"
        );
    }

    #[test]
    fn off_lane_flagged() {
        let (inv, _) = lane_inventory();
        let det = AnomalyDetector::new(&inv);
        let a = det.assess(
            LatLon::new(-40.0, -150.0).unwrap(),
            Some(14.0),
            Some(90.0),
            Some(MarketSegment::Container),
        );
        assert_eq!(a, vec![Anomaly::OffLane]);
    }

    #[test]
    fn insufficient_history_is_lenient() {
        // Cells below MIN_SAMPLES never produce speed/course anomalies.
        let res = Resolution::new(6).unwrap();
        let pos = LatLon::new(10.0, 10.0).unwrap();
        let cell = cell_at(pos, res);
        let mut stats = CellStats::new(0.02, 8);
        let cp = CellPoint {
            point: TripPoint {
                mmsi: pol_ais::types::Mmsi(1),
                timestamp: 0,
                pos,
                sog_knots: Some(10.0),
                cog_deg: Some(0.0),
                heading_deg: Some(0.0),
                segment: MarketSegment::Tanker,
                trip_id: 0,
                origin: 0,
                dest: 1,
                eto_secs: 0,
                ata_secs: 0,
            },
            cell,
            next_cell: None,
        };
        stats.observe(&cp);
        let mut entries: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
        entries.insert(GroupKey::Cell(cell), stats);
        let inv = Inventory::from_entries(res, entries, 1);
        let det = AnomalyDetector::new(&inv);
        assert!(det.assess(pos, Some(40.0), Some(180.0), None).is_empty());
    }

    #[test]
    fn anomaly_rate_aggregates() {
        let (inv, pos) = lane_inventory();
        let det = AnomalyDetector::new(&inv);
        let stream = vec![
            (pos, Some(14.0), Some(90.0), None), // normal
            (pos, Some(35.0), Some(90.0), None), // speed
            (pos, Some(14.0), Some(88.0), None), // normal
            (
                LatLon::new(-40.0, -150.0).unwrap(),
                Some(14.0),
                Some(90.0),
                None,
            ), // off-lane
        ];
        let rate = det.anomaly_rate(stream);
        assert!((rate - 0.5).abs() < 1e-9, "rate {rate}");
        assert_eq!(det.anomaly_rate(Vec::new()), 0.0);
    }
}
