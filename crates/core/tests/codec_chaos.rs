//! Chaos tests for the persistence path (run with
//! `cargo test -p pol-core --features chaos --test codec_chaos`):
//! injected write and rename failures must leave the destination file
//! untouched, loadable, and the directory free of temp files.

#![cfg(feature = "chaos")]

use pol_ais::types::{MarketSegment, Mmsi};
use pol_chaos::{configure, exclusive, remove, stats, FaultAction, Trigger};
use pol_core::codec::columnar;
use pol_core::features::{CellStats, GroupKey};
use pol_core::inventory::Inventory;
use pol_core::records::{CellPoint, TripPoint};
use pol_geo::LatLon;
use pol_hexgrid::{cell_at, Resolution};
use pol_sketch::hash::FxHashMap;
use std::path::Path;

fn sample_inventory(n: usize) -> Inventory {
    let res = Resolution::new(6).unwrap();
    let mut entries: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
    for i in 0..n {
        let pos = LatLon::new(12.0 + (i % 40) as f64, (i % 100) as f64).unwrap();
        let cell = cell_at(pos, res);
        let cp = CellPoint {
            point: TripPoint {
                mmsi: Mmsi(300 + (i % 7) as u32),
                timestamp: i as i64,
                pos,
                sog_knots: Some(6.0),
                cog_deg: Some((i % 360) as f64),
                heading_deg: None,
                segment: MarketSegment::from_id((i % 6) as u8).unwrap(),
                trip_id: (i % 5) as u64,
                origin: 1,
                dest: 2,
                eto_secs: 0,
                ata_secs: 0,
            },
            cell,
            next_cell: None,
        };
        entries
            .entry(GroupKey::Cell(cell))
            .or_insert_with(|| CellStats::new(0.02, 8))
            .observe(&cp);
    }
    Inventory::from_entries(res, entries, n as u64)
}

fn no_temp_files(dir: &Path) -> bool {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .all(|e| !e.file_name().to_string_lossy().contains(".tmp."))
}

#[test]
fn injected_write_failure_cleans_temp_and_preserves_old_file() {
    let _chaos = exclusive();
    let dir = std::env::temp_dir().join("pol-codec-chaos-write");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("inv.pol");

    // A good save first, so there is an old complete file to preserve.
    columnar::save(&sample_inventory(40), &path).unwrap();
    let old = std::fs::read(&path).unwrap();

    configure("codec.save.write", Trigger::OneShot(FaultAction::Err));
    let err = columnar::save(&sample_inventory(200), &path);
    assert!(err.is_err(), "injected write failure must surface");
    assert_eq!(stats("codec.save.write").fired, 1);
    remove("codec.save.write");

    // The old file is byte-identical and still loads; no temp debris.
    assert_eq!(std::fs::read(&path).unwrap(), old);
    assert!(columnar::load(&path).is_ok());
    assert!(
        no_temp_files(&dir),
        "temp file leaked after injected write failure"
    );

    // And a retry with the failpoint disarmed succeeds.
    columnar::save(&sample_inventory(200), &path).unwrap();
    assert!(columnar::load(&path).unwrap().len() > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_rename_failure_cleans_temp_and_preserves_old_file() {
    let _chaos = exclusive();
    let dir = std::env::temp_dir().join("pol-codec-chaos-rename");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("inv.pol");

    columnar::save(&sample_inventory(40), &path).unwrap();
    let old = std::fs::read(&path).unwrap();

    // Fail after the temp file is fully written and fsynced — the
    // worst case: a complete sibling that must still be removed.
    configure("codec.save.rename", Trigger::OneShot(FaultAction::Err));
    assert!(columnar::save(&sample_inventory(200), &path).is_err());
    remove("codec.save.rename");

    assert_eq!(std::fs::read(&path).unwrap(), old);
    assert!(
        no_temp_files(&dir),
        "temp file leaked after injected rename failure"
    );
    std::fs::remove_dir_all(&dir).ok();
}
