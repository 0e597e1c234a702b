//! Property tests for the POLINV4 columnar snapshot: the encoding is
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
/// in all three grouping sets so every POLINV4 section is populated.
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

/// The POLINV4 image of the sample inventory (the corruption target).
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
    /// Every strict prefix of a valid POLINV4 file fails typed — no
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

    /// Garbage wearing a valid POLINV4 magic still never panics — this
    /// drives the parser into the directory and section framing instead
    /// of bailing at byte 0.
    #[test]
    fn garbage_behind_valid_magic_never_panics(
        bytes in prop::collection::vec(0u8..=255, 0..2048),
    ) {
        let mut framed = columnar::MAGIC_V4.to_vec();
        framed.extend_from_slice(&bytes);
        match columnar::from_bytes(&framed) {
            Ok(_) => {}
            Err(err) => prop_assert!(is_typed(&err), "untyped error: {err:?}"),
        }
    }
}

/// An inventory with `counts[0]` cell, `counts[1]` cell-type and
/// `counts[2]` cell-route entries, each summary folded from a different
/// number of records so the blobs differ in length.
fn inventory_with(counts: [usize; 3]) -> Inventory {
    let res = Resolution::new(6).unwrap();
    let mut entries: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
    for (slot, &n) in counts.iter().enumerate() {
        for i in 0..n {
            let pos = LatLon::new(-60.0 + (i / 200) as f64, -170.0 + (i % 200) as f64).unwrap();
            let cell = cell_at(pos, res);
            let segment = MarketSegment::from_id((i % 7) as u8).unwrap();
            let key = match slot {
                0 => GroupKey::Cell(cell),
                1 => GroupKey::CellType(cell, segment),
                _ => GroupKey::CellRoute(cell, (i % 5) as u16, (i % 3) as u16, segment),
            };
            let stats = entries
                .entry(key)
                .or_insert_with(|| CellStats::new(0.02, 8));
            for r in 0..=i % 4 {
                stats.observe(&CellPoint {
                    point: TripPoint {
                        mmsi: Mmsi(600 + r as u32),
                        timestamp: r as i64,
                        pos,
                        sog_knots: Some(1.0 + (i * 3 + r) as f64),
                        cog_deg: Some(((i + r) * 29 % 360) as f64),
                        heading_deg: None,
                        segment,
                        trip_id: (i + r) as u64,
                        origin: (i % 5) as u16,
                        dest: (i % 3) as u16,
                        eto_secs: (i * 60) as i64,
                        ata_secs: (r * 60) as i64,
                    },
                    cell,
                    next_cell: None,
                });
            }
        }
    }
    Inventory::from_entries(res, entries, counts.iter().sum::<usize>() as u64)
}

/// At a grouping section's edges — empty, one entry, a few, an odd
/// count, long enough to be cut into pieces on a multi-core host — the
/// image still parses, decodes to the inventory encoded and re-encodes
/// to itself, and every offsets column starts at 0, rises strictly and
/// ends at its blob's length. (That every piece count gives the same
/// bytes is pinned, on any host, by the codec's unit tests.)
#[test]
fn split_encoder_at_section_edges() {
    for counts in [
        [0, 0, 0],
        [1, 1, 1],
        [2, 2, 2],
        [3, 3, 3],
        [0, 3, 1],
        [2, 0, 3],
        [257, 131, 1],
        [1, 599, 0],
        [2_053, 2, 0],
    ] {
        let inv = inventory_with(counts);
        let bytes = columnar::to_bytes(&inv);
        let layout = columnar::Layout::parse(&bytes).unwrap();
        for (span, &n) in [&layout.cell, &layout.cell_type, &layout.cell_route]
            .into_iter()
            .zip(&counts)
        {
            assert_eq!(span.count, n, "{counts:?}");
            let offsets: Vec<u64> = bytes[span.offsets.clone()]
                .chunks_exact(8)
                .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                .collect();
            assert_eq!(offsets.len(), n + 1, "{counts:?}");
            assert_eq!(offsets.first(), Some(&0), "{counts:?}");
            assert_eq!(
                offsets.last(),
                Some(&(span.blob.len() as u64)),
                "{counts:?}"
            );
            assert!(offsets.windows(2).all(|w| w[0] < w[1]), "{counts:?}");
        }
        let back = columnar::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), inv.len(), "{counts:?}");
        for (key, stats) in inv.iter() {
            let got = back.get(key).unwrap();
            let (mut want_bytes, mut got_bytes) = (Vec::new(), Vec::new());
            pol_core::codec::encode_cell_stats(stats, &mut want_bytes);
            pol_core::codec::encode_cell_stats(got, &mut got_bytes);
            assert_eq!(got_bytes, want_bytes, "{counts:?} {key:?}");
        }
        assert_eq!(columnar::to_bytes(&back), bytes, "{counts:?}");
    }
}
