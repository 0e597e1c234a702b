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

/// Decay applied to the running tally per contributing observation
/// (1.0 would be a plain sum; below it recent cells count for more).
const DECAY: f64 = 0.98;

/// The destinations one cell votes for: its summary's heaviest.
const VOTES_PER_CELL: usize = 8;

/// Ports scored inline, before the tally spills to the heap: a four-point
/// track of eight votes a cell fits.
const INLINE_PORTS: usize = 32;

/// The running tally: one `(port, score)` slot per port voted for, in
/// the order of their first votes.
struct Scores {
    inline: [(u16, f64); INLINE_PORTS],
    len: usize,
    spill: Vec<(u16, f64)>,
}

impl Scores {
    fn new() -> Self {
        Scores {
            inline: [(0, 0.0); INLINE_PORTS],
            len: 0,
            spill: Vec::new(),
        }
    }

    fn slots(&self) -> impl Iterator<Item = &(u16, f64)> {
        self.inline[..self.len].iter().chain(&self.spill)
    }

    fn slots_mut(&mut self) -> impl Iterator<Item = &mut (u16, f64)> {
        self.inline[..self.len].iter_mut().chain(&mut self.spill)
    }

    /// `port`'s score, started at 0.0 by its first vote.
    fn score_mut(&mut self, port: u16) -> &mut f64 {
        let voted = |slots: &[(u16, f64)]| slots.iter().position(|(p, _)| *p == port);
        let len = self.len;
        if let Some(i) = voted(&self.inline[..len]) {
            return &mut self.inline[i].1;
        }
        if let Some(i) = voted(&self.spill) {
            return &mut self.spill[i].1;
        }
        let slot = match self.inline.get_mut(len) {
            Some(slot) => {
                self.len += 1;
                slot
            }
            None => {
                self.spill.push((port, 0.0));
                let last = self.spill.len() - 1;
                &mut self.spill[last]
            }
        };
        *slot = (port, 0.0);
        &mut slot.1
    }
}

/// The streaming predictor. One instance per tracked vessel.
///
/// Generic over [`InventoryQuery`] so the same predictor runs against the
/// in-memory [`Inventory`] or `pol-serve`'s mapped store (its
/// destination-prediction endpoint replays a track through one of these).
/// A cell's votes are read off its summary as its store holds it, and the
/// tally is kept inline: a track that votes for up to 32 ports allocates
/// nothing.
pub struct DestinationPredictor<'a, I: InventoryQuery = Inventory> {
    inventory: &'a I,
    segment: Option<MarketSegment>,
    scores: Scores,
    observations: u64,
}

impl<'a, I: InventoryQuery> DestinationPredictor<'a, I> {
    /// Creates a predictor for a vessel of the given (optional) segment.
    pub fn new(inventory: &'a I, segment: Option<MarketSegment>) -> Self {
        DestinationPredictor {
            inventory,
            segment,
            scores: Scores::new(),
            observations: 0,
        }
    }

    /// Feeds one positional report; returns whether the cell contributed
    /// any votes. The cell's vessel-type summary votes, else its
    /// all-traffic one.
    pub fn observe(&mut self, pos: LatLon) -> bool {
        let cell = cell_at(pos, self.inventory.resolution());
        let stats = self.inventory.most_specific(cell, self.segment, None);
        // An entry whose bytes do not decode votes like an absent one.
        let Some(Ok(top)) = stats
            .as_ref()
            .map(|s| s.heaviest_destinations::<VOTES_PER_CELL>())
        else {
            return false;
        };
        // Decay the running tally, then add this cell's normalised votes.
        for (_, v) in self.scores.slots_mut() {
            *v *= DECAY;
        }
        self.observations += 1;
        let top = top.as_slice();
        let total: u64 = top.iter().map(|(_, c)| c).sum();
        if total == 0 {
            return false;
        }
        for (port, c) in top {
            *self.scores.score_mut(*port as u16) += *c as f64 / total as f64;
        }
        true
    }

    /// Reports observed so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Hands `reply` the `n` most probable destinations, best first, with
    /// normalised scores in `(0, 1]` — the list [`top`](Self::top)
    /// returns, ranked where it is lent: inline unless the tally spilled.
    /// The normalising total sums the scores in the order their ports
    /// were first voted for.
    pub fn with_top<R>(&self, n: usize, reply: impl FnOnce(&[(u16, f64)]) -> R) -> R {
        let total: f64 = self.scores.slots().map(|(_, s)| s).sum();
        if total <= 0.0 {
            return reply(&[]);
        }
        let normalised = self.scores.slots().map(|(p, s)| (*p, s / total));
        let mut inline = [(0, 0.0); INLINE_PORTS];
        let mut spilled = Vec::new();
        let all = if self.scores.spill.is_empty() {
            let all = &mut inline[..self.scores.len];
            all.iter_mut()
                .zip(normalised)
                .for_each(|(slot, s)| *slot = s);
            all
        } else {
            spilled.extend(normalised);
            &mut spilled[..]
        };
        // Ports are distinct, so the order is total and an unstable sort
        // gives the one answer.
        all.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        reply(&all[..n.min(all.len())])
    }

    /// The current most probable destinations, best first, with
    /// normalised scores in `(0, 1]`.
    pub fn top(&self, n: usize) -> Vec<(u16, f64)> {
        self.with_top(n, <[_]>::to_vec)
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
    use pol_sketch::hash::FxHashMap;

    /// Inventory of a west→east corridor whose `i`-th cell has one
    /// observation for each entry of `votes[i]`, and the corridor's track.
    fn voting_inventory(votes: &[Vec<u16>]) -> (Inventory, Vec<LatLon>) {
        let res = Resolution::new(6).unwrap();
        let mut entries: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
        let mut track = Vec::new();
        for (i, dests) in votes.iter().enumerate() {
            let pos = LatLon::new(10.0, 10.0 + i as f64 * 0.2).unwrap();
            track.push(pos);
            let cell = cell_at(pos, res);
            let mut stats = CellStats::new(0.02, 8);
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
        let records = votes.iter().map(Vec::len).sum::<usize>() as u64;
        (Inventory::from_entries(res, entries, records), track)
    }

    /// Inventory where a west→east corridor votes for port 9 early on and
    /// port 9 exclusively near the end; a noise port 3 appears early.
    fn corridor_inventory() -> (Inventory, Vec<LatLon>) {
        // Early cells: mixed votes; late cells: pure port 9.
        let votes: Vec<Vec<u16>> = (0..12)
            .map(|i| if i < 6 { vec![9, 9, 3] } else { vec![9, 9, 9] })
            .collect();
        voting_inventory(&votes)
    }

    /// The tally as it was kept in a hash map, over `top(8)` vectors:
    /// the oracle of the inline tally.
    fn hash_map_ranking(inv: &Inventory, track: &[LatLon]) -> Vec<(u16, f64)> {
        let mut scores: FxHashMap<u16, f64> = FxHashMap::default();
        for pos in track {
            let summary = inv.summary(cell_at(*pos, inv.resolution())).unwrap();
            scores.values_mut().for_each(|v| *v *= DECAY);
            let top = summary.destinations.top(8);
            let total: u64 = top.iter().map(|(_, c)| c).sum();
            for (port, c) in top {
                *scores.entry(port as u16).or_insert(0.0) += c as f64 / total as f64;
            }
        }
        let total: f64 = scores.values().sum();
        let mut all: Vec<(u16, f64)> = scores.iter().map(|(p, s)| (*p, s / total)).collect();
        all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        all
    }

    #[test]
    fn a_tally_past_its_inline_slots_ranks_as_the_hash_map_did() {
        // Cell i votes twice for ports 2i and 2i + 1 and once for 2i + 2,
        // which the next cell votes for again: after k cells 2k + 1 ports
        // are scored, past the 32 kept inline from k = 16, and scores tie
        // within a cell's votes.
        let votes: Vec<Vec<u16>> = (0..20u16)
            .map(|i| vec![2 * i, 2 * i, 2 * i + 1, 2 * i + 1, 2 * i + 2])
            .collect();
        let (inv, track) = voting_inventory(&votes);
        let ports = |r: &[(u16, f64)]| r.iter().map(|(port, _)| *port).collect::<Vec<_>>();
        for k in 1..=track.len() {
            let mut p = DestinationPredictor::new(&inv, None);
            for pos in &track[..k] {
                assert!(p.observe(*pos));
            }
            let want = hash_map_ranking(&inv, &track[..k]);
            assert_eq!(want.len(), 2 * k + 1);
            let got = p.top(100);
            assert_eq!(ports(&got), ports(&want), "after {k} cells");
            // The normalising total is summed in another order: the last
            // bits may differ, nothing more.
            for ((_, a), (_, b)) in got.iter().zip(&want) {
                assert!((a - b).abs() <= 1e-15 * b, "after {k} cells: {a} vs {b}");
            }
            assert_eq!(p.top(5), got[..5.min(got.len())].to_vec());
        }
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
        for pos in &track {
            p.observe(*pos);
        }
        // Port 3 holds a third of the votes in each of the six early
        // cells and none in the six late ones: 2 of 12 undecayed. The
        // k-th of n observations is decayed n − 1 − k times, so its
        // decayed share is a third of the early weights over all.
        let n = track.len() as i32;
        let weight = |k: i32| DECAY.powi(n - 1 - k);
        let early: f64 = (0..6).map(weight).sum();
        let all: f64 = (0..n).map(weight).sum();
        let decayed = early / 3.0 / all;
        let undecayed = 2.0 / 12.0;
        let top = p.top(2);
        assert_eq!(top[0].0, 9);
        let (_, s3) = *top.iter().find(|(d, _)| *d == 3).expect("port 3 ranked");
        assert!(
            (s3 - decayed).abs() < 1e-12,
            "port 3 scored {s3}, not {decayed}"
        );
        assert!(s3 < undecayed, "stale votes not discounted: {s3}");
    }
}
