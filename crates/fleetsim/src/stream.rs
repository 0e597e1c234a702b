//! Streaming emission mode: a single globally timestamp-ordered,
//! vessel-interleaved record iterator over a generated fleet.
//!
//! Batch consumers take [`crate::scenario::Dataset::positions`] as-is —
//! one partition per vessel, the pipeline's §3.3.1 initial partitioning.
//! A *live* pipeline instead sees one wire: every vessel's reports
//! multiplexed in arrival order. [`interleave`] produces that wire from
//! the per-vessel partitions with a k-way heap merge keyed by
//! `(head timestamp, vessel lane)`:
//!
//! * each vessel's **relative order is preserved exactly** — only the
//!   head of a lane is ever eligible, so the occasional out-of-order
//!   corrupt duplicate that [`crate::emit`] injects survives the merge
//!   and reaches the consumer's reorder buffer, as it would in reality;
//! * with defect-free emission the output is globally nondecreasing in
//!   timestamp (the merge invariant the ordering proptest pins);
//! * timestamp ties break by lane index, so the stream is deterministic
//!   given the dataset — a requirement for the streamed-vs-batch
//!   byte-identity tests in `pol-stream` (`tests/stream_identity.rs`).
//!
//! Reception dropout, GPS noise and corrupt-field injection all happen
//! upstream in [`crate::emit::EmissionConfig`]; this module only changes
//! the *delivery order*, never the records.

use pol_ais::PositionReport;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A k-way merge iterator over per-vessel report partitions, yielding
/// one globally timestamp-ordered, vessel-interleaved stream.
///
/// Construct with [`interleave`]. The iterator is exact-size and owns
/// its input; memory is the input itself plus one heap slot per lane.
pub struct StreamIter {
    lanes: Vec<Vec<PositionReport>>,
    cursor: Vec<usize>,
    /// Min-heap over `(head timestamp, lane)` of every non-exhausted lane.
    heap: BinaryHeap<Reverse<(i64, usize)>>,
    remaining: usize,
}

/// Merges per-vessel report partitions into a single timestamp-ordered,
/// vessel-interleaved stream — `fleetsim`'s `--stream` emission mode.
///
/// Per-lane relative order is preserved unconditionally; across lanes
/// records are delivered in nondecreasing head-timestamp order with ties
/// broken by lane index.
pub fn interleave(lanes: Vec<Vec<PositionReport>>) -> StreamIter {
    let cursor = vec![0; lanes.len()];
    let remaining = lanes.iter().map(Vec::len).sum();
    let mut heap = BinaryHeap::with_capacity(lanes.len());
    for (lane, reports) in lanes.iter().enumerate() {
        if let Some(r) = reports.first() {
            heap.push(Reverse((r.timestamp, lane)));
        }
    }
    StreamIter {
        lanes,
        cursor,
        heap,
        remaining,
    }
}

impl Iterator for StreamIter {
    type Item = PositionReport;

    fn next(&mut self) -> Option<PositionReport> {
        let Reverse((_, lane)) = self.heap.pop()?;
        let i = self.cursor[lane];
        let r = *self.lanes[lane].get(i)?;
        self.cursor[lane] = i + 1;
        if let Some(next) = self.lanes[lane].get(i + 1) {
            self.heap.push(Reverse((next.timestamp, lane)));
        }
        self.remaining -= 1;
        Some(r)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for StreamIter {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit::EmissionConfig;
    use crate::scenario::{generate, ScenarioConfig};
    use pol_ais::types::{Mmsi, NavStatus};
    use pol_geo::LatLon;
    use proptest::prelude::*;

    fn report(lane: u32, timestamp: i64) -> PositionReport {
        PositionReport {
            mmsi: Mmsi(200_000_000 + lane),
            timestamp,
            pos: LatLon::new(0.0, 0.0).unwrap(),
            sog_knots: Some(10.0),
            cog_deg: Some(90.0),
            heading_deg: None,
            nav_status: NavStatus::UnderWayUsingEngine,
        }
    }

    proptest! {
        /// The headline merge invariant: sorted lanes in, a globally
        /// nondecreasing permutation of the exact input multiset out,
        /// with every lane's relative order preserved.
        #[test]
        fn interleave_orders_sorted_lanes(
            raw in prop::collection::vec(
                prop::collection::vec(0i64..100_000, 0..40), 0..8)
        ) {
            let lanes: Vec<Vec<PositionReport>> = raw
                .iter()
                .enumerate()
                .map(|(li, ts)| {
                    let mut ts = ts.clone();
                    ts.sort_unstable();
                    ts.iter().map(|&t| report(li as u32, t)).collect()
                })
                .collect();
            let total: usize = lanes.iter().map(Vec::len).sum();
            let merged: Vec<PositionReport> = interleave(lanes.clone()).collect();

            // Exact count (also checks the ExactSizeIterator contract).
            prop_assert_eq!(merged.len(), total);
            prop_assert_eq!(interleave(lanes.clone()).len(), total);

            // Globally nondecreasing.
            for w in merged.windows(2) {
                prop_assert!(w[0].timestamp <= w[1].timestamp);
            }

            // Per-lane projection is exactly the lane: order preserved
            // and multiset equality in one check (mmsi identifies lanes).
            for (li, lane) in lanes.iter().enumerate() {
                let got: Vec<PositionReport> = merged
                    .iter()
                    .filter(|r| r.mmsi == Mmsi(200_000_000 + li as u32))
                    .copied()
                    .collect();
                prop_assert_eq!(&got, lane);
            }
        }
    }

    #[test]
    fn ties_break_by_lane_index() {
        let lanes = vec![vec![report(1, 5)], vec![report(0, 5)], vec![report(2, 5)]];
        let merged: Vec<u32> = interleave(lanes).map(|r| r.mmsi.0).collect();
        assert_eq!(merged, vec![200_000_001, 200_000_000, 200_000_002]);
    }

    #[test]
    fn out_of_order_corrupt_duplicates_survive_in_lane_order() {
        // A lane whose head jumps backwards (the emit-layer corrupt
        // duplicate: original at t, dup at t-120 pushed after it) must
        // come through in lane order, not be re-sorted away.
        let lanes = vec![
            vec![
                report(0, 100),
                report(0, 400),
                report(0, 280),
                report(0, 500),
            ],
            vec![report(1, 150), report(1, 300)],
        ];
        let merged: Vec<(u32, i64)> = interleave(lanes).map(|r| (r.mmsi.0, r.timestamp)).collect();
        assert_eq!(
            merged,
            vec![
                (200_000_000, 100),
                (200_000_001, 150),
                (200_000_001, 300),
                (200_000_000, 400),
                (200_000_000, 280), // late: released only after its lane predecessor
                (200_000_000, 500),
            ]
        );
    }

    #[test]
    fn scenario_stream_is_ordered_without_defects() {
        let mut cfg = ScenarioConfig::tiny();
        cfg.emission = EmissionConfig {
            dropout: 0.0,
            corrupt_rate: 0.0,
            ..cfg.emission
        };
        let ds = generate(&cfg);
        let total = ds.total_reports();
        let merged: Vec<PositionReport> = interleave(ds.positions).collect();
        assert_eq!(merged.len(), total);
        for w in merged.windows(2) {
            assert!(w[0].timestamp <= w[1].timestamp);
        }
    }
}
