//! Order-insensitivity of delta merging: any permutation of the same
//! `(generation, delta)` set merges to byte-identical POLINV4 output.
//! [`pol_stream::merge_chain`] folds the deltas in the order it is given;
//! every POLINV4 summary merge is exact and commutative, so no order
//! reaches the bytes.

use pol_ais::types::{MarketSegment, Mmsi};
use pol_core::codec::columnar;
use pol_core::features::{CellStats, GroupKey};
use pol_core::records::{CellPoint, TripPoint};
use pol_core::Inventory;
use pol_geo::LatLon;
use pol_hexgrid::{cell_at, Resolution};
use pol_sketch::hash::FxHashMap;
use pol_stream::merge_chain;
use proptest::prelude::*;

/// A deterministic synthetic window inventory; `salt` varies content.
/// Windows deliberately overlap in cells so merges exercise real
/// per-key sketch combination, not disjoint-key concatenation.
fn window_inventory(n: usize, salt: u64) -> Inventory {
    let res = Resolution::new(6).unwrap();
    let mut entries: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
    for i in 0..n {
        let k = i as u64 * 7 + salt * 3;
        let pos = LatLon::new(10.0 + (k % 37) as f64, (k % 80) as f64).unwrap();
        let cell = cell_at(pos, res);
        let cp = CellPoint {
            point: TripPoint {
                mmsi: Mmsi(200_000_000 + (k % 13) as u32),
                timestamp: k as i64,
                pos,
                sog_knots: Some(4.0 + (k % 17) as f64),
                cog_deg: Some((k % 360) as f64),
                heading_deg: Some(((k * 5) % 360) as f64),
                segment: MarketSegment::from_id((k % 6) as u8).unwrap(),
                trip_id: k % 3,
                origin: (k % 4) as u16,
                dest: (k % 6) as u16,
                eto_secs: k as i64,
                ata_secs: 5_000 - k as i64,
            },
            cell,
            next_cell: None,
        };
        for key in [
            GroupKey::Cell(cell),
            GroupKey::CellType(cell, cp.point.segment),
        ] {
            entries
                .entry(key)
                .or_insert_with(|| CellStats::new(0.02, 8))
                .observe(&cp);
        }
    }
    Inventory::from_entries(res, entries, n as u64)
}

/// Decodes `index` into the lexicographic permutation of `0..len`.
fn nth_permutation(len: usize, mut index: u64) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..len).collect();
    let mut out = Vec::with_capacity(len);
    for remaining in (1..=len).rev() {
        let fact: u64 = (1..remaining as u64).product();
        let pick = ((index / fact) as usize) % remaining;
        index %= fact;
        out.push(pool.remove(pick));
    }
    out
}

fn chain_bytes(order: &[usize], sizes: &[usize]) -> Vec<u8> {
    let parts: Vec<(u64, Inventory)> = order
        .iter()
        .map(|&g| (g as u64, window_inventory(sizes[g], g as u64)))
        .collect();
    columnar::to_bytes(&merge_chain(parts).unwrap())
}

proptest! {
    /// The satellite gate: merging the same deltas in any permutation
    /// yields byte-identical POLINV4 output.
    #[test]
    fn delta_merge_is_order_insensitive(
        perm in 0u64..120,          // all orderings of 5 generations
        sizes in prop::collection::vec(10usize..60, 5)
    ) {
        let generations = sizes.len();
        let identity: Vec<usize> = (0..generations).collect();
        let reference = chain_bytes(&identity, &sizes);
        let shuffled = nth_permutation(generations, perm);
        prop_assert_eq!(
            chain_bytes(&shuffled, &sizes),
            reference,
            "merge order {:?} diverged from generation order",
            shuffled
        );
    }
}

#[test]
fn every_permutation_of_four_matches_exhaustively() {
    let sizes = [25usize, 40, 15, 33];
    let reference = chain_bytes(&[0, 1, 2, 3], &sizes);
    for index in 0..24 {
        let perm = nth_permutation(4, index);
        assert_eq!(
            chain_bytes(&perm, &sizes),
            reference,
            "permutation {perm:?} diverged"
        );
    }
}
