//! Which merge is canonical, pinned on POLINV3 bytes: one walk over a
//! manifest (`load_chain`) and a left fold of `Inventory::merge` over
//! the codec-round-tripped links are the same inventory after every
//! published link — and the prefix rule a hot reload extends by keeps
//! every link already served and nothing else. (`pol-serve`'s
//! `tests/mapped.rs` checks the mapped links answer what this walk
//! holds.)

use pol_ais::types::{MarketSegment, Mmsi};
use pol_core::codec::manifest::{self, kept_prefix, Manifest, ManifestEntry};
use pol_core::codec::{columnar, save_bytes};
use pol_core::features::{CellStats, GroupKey};
use pol_core::inventory::Inventory;
use pol_core::records::{CellPoint, TripPoint};
use pol_geo::LatLon;
use pol_hexgrid::{cell_at, Resolution};
use pol_sketch::hash::FxHashMap;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A window's worth of traffic: `n` points whose cells, segments and
/// routes are drawn from `salt`, so two links overlap in some entries
/// and differ in others.
fn link_inventory(n: usize, salt: u64) -> Inventory {
    let res = Resolution::new(6).unwrap();
    let mut entries: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
    for i in 0..n as u64 {
        let k = i * 7 + salt * 13;
        let pos = LatLon::new(-30.0 + (k % 40) as f64 * 0.7, 10.0 + (k % 55) as f64 * 0.9).unwrap();
        let cell = cell_at(pos, res);
        let cp = CellPoint {
            point: TripPoint {
                mmsi: Mmsi(300 + (k % 11) as u32),
                timestamp: (k * 60) as i64,
                pos,
                sog_knots: (!k.is_multiple_of(5)).then_some(4.0 + (k % 19) as f64),
                cog_deg: Some((k * 23 % 360) as f64),
                heading_deg: k.is_multiple_of(3).then_some((k * 29 % 360) as f64),
                segment: MarketSegment::from_id((k % 6) as u8).unwrap(),
                trip_id: k % 17,
                origin: (k % 4) as u16,
                dest: (k % 5) as u16,
                eto_secs: (k * 40) as i64,
                ata_secs: (9_000 - k as i64) * 40,
            },
            cell,
            next_cell: None,
        };
        for key in [
            GroupKey::Cell(cell),
            GroupKey::CellType(cell, cp.point.segment),
            GroupKey::CellRoute(cell, cp.point.origin, cp.point.dest, cp.point.segment),
        ] {
            entries
                .entry(key)
                .or_insert_with(|| CellStats::new(0.02, 8))
                .observe(&cp);
        }
    }
    Inventory::from_entries(res, entries, n as u64)
}

fn case_dir() -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pol-chain-extend-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Saves `inv` as the chain's next file and returns its manifest entry.
fn publish(dir: &Path, generation: u64, inv: &Inventory) -> ManifestEntry {
    let name = format!("link-{generation:03}.pol");
    let bytes = columnar::to_bytes(inv);
    save_bytes(&bytes, &dir.join(&name)).unwrap();
    ManifestEntry::for_link(generation, name, &bytes).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn extending_link_by_link_equals_one_walk_equals_the_left_fold(
        links in prop::collection::vec((1usize..120, 0u64..40), 1..6),
    ) {
        let dir = case_dir();
        let man_path = dir.join("chain.polman");
        let mut man = Manifest { entries: Vec::new() };
        let mut folded: Option<Inventory> = None;

        for (generation, &(n, salt)) in links.iter().enumerate() {
            let served = man.entries.clone();
            let link = link_inventory(n, salt);
            man.entries.push(publish(&dir, generation as u64, &link));
            manifest::save(&man, &man_path).unwrap();
            // The hot reload keeps what it served and reads the new link.
            prop_assert_eq!(kept_prefix(&served, &man.entries), generation);

            // The oracle: what the file holds, merged in memory.
            let round_tripped = columnar::from_bytes(&columnar::to_bytes(&link)).unwrap();
            folded = Some(match folded.take() {
                None => round_tripped,
                Some(mut acc) => {
                    acc.merge(&round_tripped);
                    acc
                }
            });

            let (walked, info) = manifest::load_chain(&man_path).unwrap();
            prop_assert_eq!(info.chain_len, generation as u64 + 1);
            prop_assert_eq!(info.generation, generation as u64);
            prop_assert_eq!(
                columnar::to_bytes(&walked),
                columnar::to_bytes(folded.as_ref().unwrap())
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn anything_but_a_strict_prefix_walks_the_whole_chain() {
    let dir = case_dir();
    let entries: Vec<ManifestEntry> = (0..3)
        .map(|g| publish(&dir, g as u64, &link_inventory(60 + g * 10, g as u64)))
        .collect();
    let mut diverged = entries[..2].to_vec();
    diverged[1].crc ^= 1;
    let mut renamed = entries[..2].to_vec();
    renamed[1].name = "link-other.pol".into();
    let mut longer = entries.clone();
    longer.push(ManifestEntry {
        generation: 3,
        ..entries[2].clone()
    });
    for (what, held) in [
        ("the same chain", entries.clone()),
        ("a longer chain", longer),
        ("a chain whose middle entry differs", diverged),
        ("a chain whose middle entry is renamed", renamed),
        ("no chain", Vec::new()),
    ] {
        assert_eq!(
            kept_prefix(&held, &entries),
            0,
            "{what}: every link is read"
        );
    }

    // A strict prefix is taken at its word.
    assert_eq!(kept_prefix(&entries[..2], &entries), 2);
    assert_eq!(kept_prefix(&entries[..1], &entries), 1);
    std::fs::remove_dir_all(&dir).ok();
}
