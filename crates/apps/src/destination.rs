//! §4.1.3 — streaming destination prediction.
//!
//! Per the paper: "a streaming application may query online the inventory
//! for each AIS message and retrieve the top-N destinations for vessels of
//! the same type that sailed nearby in the past … it can keep track of this
//! list, as the stream of AIS messages proceeds, to decide on the most
//! probable destination."
//!
//! The predictor accumulates per-cell destination votes with exponential
//! recency weighting, so late-voyage cells (which are more discriminative)
//! dominate the tally.

use pol_ais::types::MarketSegment;
use pol_core::{Inventory, InventoryQuery};
use pol_geo::LatLon;
use pol_hexgrid::cell_at;
use pol_sketch::hash::FxHashMap;

/// The streaming predictor. One instance per tracked vessel.
///
/// Generic over [`InventoryQuery`] so the same predictor runs against the
/// in-memory [`Inventory`] or a serving-side store (the `pol-serve`
/// destination-prediction endpoint replays a track through one of these).
pub struct DestinationPredictor<'a, I: InventoryQuery = Inventory> {
    inventory: &'a I,
    segment: Option<MarketSegment>,
    /// Exponential decay applied to the running tally per observation
    /// (1.0 = plain sum; < 1.0 favours recent cells).
    pub decay: f64,
    scores: FxHashMap<u16, f64>,
    observations: u64,
}

impl<'a, I: InventoryQuery> DestinationPredictor<'a, I> {
    /// Creates a predictor for a vessel of the given (optional) segment.
    pub fn new(inventory: &'a I, segment: Option<MarketSegment>) -> Self {
        DestinationPredictor {
            inventory,
            segment,
            decay: 0.98,
            scores: FxHashMap::default(),
            observations: 0,
        }
    }

    /// Feeds one positional report; returns whether the cell contributed
    /// any votes.
    pub fn observe(&mut self, pos: LatLon) -> bool {
        let cell = cell_at(pos, self.inventory.resolution());
        let stats = match self.segment {
            Some(seg) => self
                .inventory
                .summary_for(cell, seg)
                .or_else(|| self.inventory.summary(cell)),
            None => self.inventory.summary(cell),
        };
        // An entry whose bytes do not decode votes like an absent one.
        let Some(Ok(destinations)) = stats.as_ref().map(|s| s.destinations()) else {
            return false;
        };
        // Decay the running tally, then add this cell's normalised votes.
        for v in self.scores.values_mut() {
            *v *= self.decay;
        }
        self.observations += 1;
        let top = destinations.top(8);
        let total: u64 = top.iter().map(|(_, c)| c.count).sum();
        if total == 0 {
            return false;
        }
        for (port, c) in top {
            *self.scores.entry(port as u16).or_insert(0.0) += c.count as f64 / total as f64;
        }
        true
    }

    /// Reports observed so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// The current most probable destinations, best first, with
    /// normalised scores in `(0, 1]`.
    pub fn top(&self, n: usize) -> Vec<(u16, f64)> {
        let total: f64 = self.scores.values().sum();
        if total <= 0.0 {
            return Vec::new();
        }
        let mut all: Vec<(u16, f64)> = self.scores.iter().map(|(p, s)| (*p, s / total)).collect();
        all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(n);
        all
    }

    /// The single best guess.
    pub fn best(&self) -> Option<(u16, f64)> {
        self.top(1).pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_core::features::{CellStats, GroupKey};
    use pol_core::records::{CellPoint, TripPoint};
    use pol_hexgrid::Resolution;

    /// Inventory where a west→east corridor votes for port 9 early on and
    /// port 9 exclusively near the end; a noise port 3 appears early.
    fn corridor_inventory() -> (Inventory, Vec<LatLon>) {
        let res = Resolution::new(6).unwrap();
        let mut entries: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
        let mut track = Vec::new();
        for i in 0..12 {
            let pos = LatLon::new(10.0, 10.0 + i as f64 * 0.2).unwrap();
            track.push(pos);
            let cell = cell_at(pos, res);
            let mut stats = CellStats::new(0.02, 8);
            // Early cells: mixed votes; late cells: pure port 9.
            let dests: Vec<u16> = if i < 6 { vec![9, 9, 3] } else { vec![9, 9, 9] };
            for (j, d) in dests.iter().enumerate() {
                let cp = CellPoint {
                    point: TripPoint {
                        mmsi: pol_ais::types::Mmsi(1 + j as u32),
                        timestamp: 0,
                        pos,
                        sog_knots: Some(12.0),
                        cog_deg: Some(90.0),
                        heading_deg: Some(90.0),
                        segment: MarketSegment::Tanker,
                        trip_id: j as u64,
                        origin: 0,
                        dest: *d,
                        eto_secs: 0,
                        ata_secs: 0,
                    },
                    cell,
                    next_cell: None,
                };
                stats.observe(&cp);
            }
            entries.insert(GroupKey::Cell(cell), stats.clone());
            entries.insert(GroupKey::CellType(cell, MarketSegment::Tanker), stats);
        }
        (Inventory::from_entries(res, entries, 36), track)
    }

    #[test]
    fn converges_to_true_destination() {
        let (inv, track) = corridor_inventory();
        let mut p = DestinationPredictor::new(&inv, Some(MarketSegment::Tanker));
        for pos in &track {
            assert!(p.observe(*pos));
        }
        let (best, score) = p.best().unwrap();
        assert_eq!(best, 9);
        assert!(score > 0.6, "score {score}");
        assert_eq!(p.observations(), track.len() as u64);
    }

    #[test]
    fn ranking_includes_runner_up() {
        let (inv, track) = corridor_inventory();
        let mut p = DestinationPredictor::new(&inv, None);
        for pos in &track[..4] {
            p.observe(*pos);
        }
        let top = p.top(3);
        assert_eq!(top[0].0, 9);
        assert!(
            top.iter().any(|(d, _)| *d == 3),
            "noise port ranked: {top:?}"
        );
        // Scores normalised.
        let sum: f64 = top.iter().map(|(_, s)| s).sum();
        assert!(sum <= 1.0 + 1e-9);
    }

    #[test]
    fn unseen_area_contributes_nothing() {
        let (inv, _) = corridor_inventory();
        let mut p = DestinationPredictor::new(&inv, None);
        assert!(!p.observe(LatLon::new(-40.0, -100.0).unwrap()));
        assert!(p.best().is_none());
        assert!(p.top(5).is_empty());
    }

    #[test]
    fn recency_outweighs_stale_votes() {
        let (inv, track) = corridor_inventory();
        let mut p = DestinationPredictor::new(&inv, None);
        p.decay = 0.5; // aggressive decay for the test
        for pos in &track {
            p.observe(*pos);
        }
        // Late cells are pure port 9 ⇒ with strong decay port 3's early
        // votes all but vanish.
        let top = p.top(2);
        assert_eq!(top[0].0, 9);
        if let Some((_, s3)) = top.iter().find(|(d, _)| *d == 3) {
            assert!(*s3 < 0.05, "stale vote survived: {s3}");
        }
    }
}
