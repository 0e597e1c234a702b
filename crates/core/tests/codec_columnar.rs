//! Property tests for the POLINV3 columnar snapshot: the encoding is
//! canonical, and `columnar::from_bytes` / `Layout::parse` on truncated,
//! bit-flipped, zero-length or arbitrary-garbage input must never panic
//! and must always return a typed [`CodecError`].

use pol_ais::types::{MarketSegment, Mmsi};
use pol_core::codec::{columnar, CodecError};
use pol_core::features::{CellStats, GroupKey};
use pol_core::inventory::Inventory;
use pol_core::records::{CellPoint, TripPoint};
use pol_geo::LatLon;
use pol_hexgrid::{cell_at, Resolution};
use pol_sketch::hash::FxHashMap;
use proptest::prelude::*;
use std::sync::OnceLock;

/// A fixed non-trivial inventory shared across all properties — traffic
/// in all three grouping sets so every POLINV3 section is populated.
fn sample_inventory() -> Inventory {
    let res = Resolution::new(6).unwrap();
    let mut entries: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
    for i in 0..400usize {
        let pos = LatLon::new(-40.0 + (i % 90) as f64, -120.0 + (i % 240) as f64).unwrap();
        let cell = cell_at(pos, res);
        let cp = CellPoint {
            point: TripPoint {
                mmsi: Mmsi(500 + (i % 13) as u32),
                timestamp: i as i64 * 30,
                pos,
                sog_knots: Some(3.0 + (i % 17) as f64),
                cog_deg: Some((i * 19 % 360) as f64),
                heading_deg: Some((i * 31 % 360) as f64),
                segment: MarketSegment::from_id((i % 7) as u8).unwrap(),
                trip_id: (i % 21) as u64,
                origin: (i % 6) as u16,
                dest: (i % 9) as u16,
                eto_secs: i as i64 * 45,
                ata_secs: (400 - i) as i64 * 45,
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
    Inventory::from_entries(res, entries, 400)
}

/// The POLINV3 image of the sample inventory (the corruption target).
fn v3_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| columnar::to_bytes(&sample_inventory()))
}

fn is_typed(err: &CodecError) -> bool {
    matches!(
        err,
        CodecError::BadHeader
            | CodecError::Unsealed
            | CodecError::Checksum { .. }
            | CodecError::Wire(_)
            | CodecError::Io(_)
    )
}

#[test]
fn zero_length_file_is_typed_error() {
    match columnar::from_bytes(&[]).err() {
        Some(CodecError::BadHeader) => {}
        other => panic!("expected BadHeader for empty input, got {other:?}"),
    }
}

#[test]
fn clean_image_loads_and_verifies() {
    assert!(columnar::from_bytes(v3_bytes()).is_ok());
    let report = columnar::verify_bytes(v3_bytes()).unwrap();
    assert_eq!(report.entries, sample_inventory().len());
    assert_eq!(report.total_records, 400);
    assert_eq!(report.sections.len(), 5);
}

/// The columnar encoding is canonical: re-encoding a decoded image
/// reproduces the exact bytes.
#[test]
fn columnar_encoding_is_canonical() {
    let decoded = columnar::from_bytes(v3_bytes()).unwrap();
    assert_eq!(columnar::to_bytes(&decoded), v3_bytes());
}

proptest! {
    /// Every strict prefix of a valid POLINV3 file fails typed — no
    /// truncation point yields a wrong-but-successful load, none panics.
    #[test]
    fn truncation_never_panics_and_always_fails_typed(cut in 0usize..1_000_000) {
        let bytes = v3_bytes();
        let cut = cut % bytes.len(); // strict prefix
        let err = columnar::from_bytes(&bytes[..cut])
            .err()
            .expect("truncated file must not load");
        prop_assert!(is_typed(&err), "untyped error for prefix {cut}: {err:?}");
        prop_assert!(columnar::verify_bytes(&bytes[..cut]).is_err());
    }

    /// Every single-bit flip anywhere in the file is detected and fails
    /// typed — the per-section CRC-64 covers keys, offsets, and blobs.
    #[test]
    fn single_bit_flip_never_panics_and_always_fails_typed(
        pos in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let bytes = v3_bytes();
        let pos = pos % bytes.len();
        let mut corrupt = bytes.to_vec();
        corrupt[pos] ^= 1 << bit;
        let err = columnar::from_bytes(&corrupt)
            .err()
            .expect("bit-flipped file must not load");
        prop_assert!(is_typed(&err), "untyped error for flip {pos}:{bit}: {err:?}");
        prop_assert!(columnar::verify_bytes(&corrupt).is_err());
    }

    /// Arbitrary garbage never panics; a load either fails typed or (for
    /// the astronomically unlikely valid image) succeeds.
    #[test]
    fn arbitrary_garbage_never_panics(bytes in prop::collection::vec(0u8..=255, 0..2048)) {
        match columnar::from_bytes(&bytes) {
            Ok(_) => {}
            Err(err) => prop_assert!(is_typed(&err), "untyped error: {err:?}"),
        }
    }

    /// Garbage wearing a valid POLINV3 magic still never panics — this
    /// drives the parser into the directory and section framing instead
    /// of bailing at byte 0.
    #[test]
    fn garbage_behind_valid_magic_never_panics(
        bytes in prop::collection::vec(0u8..=255, 0..2048),
    ) {
        let mut framed = columnar::MAGIC_V3.to_vec();
        framed.extend_from_slice(&bytes);
        match columnar::from_bytes(&framed) {
            Ok(_) => {}
            Err(err) => prop_assert!(is_typed(&err), "untyped error: {err:?}"),
        }
    }
}
