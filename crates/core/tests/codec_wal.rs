//! Property tests for the POLWAL1 journal segment (ISSUE satellite):
//! `codec::wal::read_segment` on truncated, bit-flipped, zero-length or
//! arbitrary-garbage input must never panic and must either serve only
//! durable batches (the torn-tail tolerance) or fail with a typed
//! [`WalError`] — mirrors the POLINV4 corruption suite in
//! `codec_columnar.rs`, plus WAL-specific properties: a truncated
//! unsealed segment never serves a batch the full segment did not hold,
//! and a sealed segment admits no tolerance at all.

use pol_ais::types::{Mmsi, NavStatus};
use pol_ais::PositionReport;
use pol_core::codec::wal::{self, FrameBuf, SegmentLoad, SegmentWriter, WalError};
use pol_geo::LatLon;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

fn report(mmsi: u32, ts: i64) -> PositionReport {
    PositionReport {
        mmsi: Mmsi(mmsi),
        timestamp: ts,
        pos: LatLon::new(
            -50.0 + (ts.rem_euclid(100)) as f64,
            -150.0 + (ts.rem_euclid(300)) as f64,
        )
        .unwrap(),
        sog_knots: (ts % 3 != 0).then_some(0.1 * (ts % 900) as f64),
        cog_deg: (ts % 4 != 0).then_some((ts % 360) as f64),
        heading_deg: (ts % 5 != 0).then_some((ts % 360) as f64),
        nav_status: NavStatus::from_raw((ts % 16) as u8),
    }
}

fn build(sealed: bool, name: &str) -> Vec<u8> {
    let dir = std::env::temp_dir().join("pol-wal-proptests");
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join(name);
    let mut w = SegmentWriter::create(&path, 3).unwrap();
    for b in 0..8i64 {
        let records: Vec<PositionReport> = (0..50)
            .map(|i| report(200_000_001 + (i % 7) as u32, b * 10_000 + i))
            .collect();
        let mut frame = FrameBuf::with_capacity(records.len());
        for r in &records {
            frame.push(r);
        }
        w.append_frame(&mut frame).unwrap();
    }
    w.sync().unwrap();
    if sealed {
        w.seal().unwrap();
    }
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

/// A sealed 8-batch segment image (the zero-tolerance corruption target).
fn sealed_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| build(true, "sealed-src.polwal"))
}

/// The same segment left unsealed (the torn-tail-tolerant target).
fn unsealed_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| build(false, "unsealed-src.polwal"))
}

/// Reads a segment image requiring a valid seal — the contract for
/// every non-final segment of a journal.
fn read_sealed(bytes: &[u8]) -> Result<SegmentLoad, WalError> {
    wal::read_segment(bytes).and_then(|load| match load.sealed {
        true => Ok(load),
        false => Err(WalError::Unsealed),
    })
}

fn is_typed(err: &WalError) -> bool {
    matches!(
        err,
        WalError::BadHeader
            | WalError::Unsealed
            | WalError::Checksum { .. }
            | WalError::Wire(_)
            | WalError::Io(_)
            | WalError::Corrupt(_)
    )
}

#[test]
fn zero_length_file_is_typed_error() {
    match wal::read_segment(&[]).err() {
        Some(WalError::BadHeader) => {}
        other => panic!("expected BadHeader for empty input, got {other:?}"),
    }
}

#[test]
fn clean_images_load_in_full() {
    let sealed = wal::read_segment(sealed_bytes()).unwrap();
    assert!(sealed.sealed);
    assert_eq!(sealed.batches.len(), 8);
    assert_eq!(
        sealed
            .batches
            .iter()
            .map(|b| b.records.len())
            .sum::<usize>(),
        400
    );
    let unsealed = wal::read_segment(unsealed_bytes()).unwrap();
    assert!(!unsealed.sealed);
    assert_eq!(unsealed.torn_bytes, 0);
    assert_eq!(unsealed.batches.len(), 8);
}

proptest! {
    /// Every strict prefix of an *unsealed* segment either loads a
    /// prefix of the durable batches (torn tail discarded, batch
    /// contents identical to the full read) or fails typed — and never
    /// serves a record the full segment did not hold.
    #[test]
    fn truncated_unsealed_serves_only_durable_prefix(cut in 0usize..1_000_000) {
        let bytes = unsealed_bytes();
        let full = wal::read_segment(bytes).expect("full image loads");
        let cut = cut % bytes.len(); // strict prefix
        match wal::read_segment(&bytes[..cut]) {
            Ok(load) => {
                prop_assert!(!load.sealed);
                prop_assert!(load.batches.len() <= full.batches.len());
                for (got, want) in load.batches.iter().zip(&full.batches) {
                    prop_assert_eq!(got.seq, want.seq);
                    prop_assert_eq!(&got.records, &want.records);
                }
                prop_assert_eq!(load.valid_len + load.torn_bytes, cut as u64);
            }
            Err(err) => prop_assert!(is_typed(&err), "untyped error for prefix {}: {:?}", cut, err),
        }
    }

    /// Every strict prefix of a *sealed* segment read with the sealed
    /// contract fails typed — truncation can never pass for a file that
    /// claims completeness.
    #[test]
    fn truncated_sealed_always_fails_typed(cut in 0usize..1_000_000) {
        let bytes = sealed_bytes();
        let cut = cut % bytes.len();
        let err = read_sealed(&bytes[..cut])
            .err()
            .expect("truncated sealed segment must not load");
        prop_assert!(is_typed(&err), "untyped error for prefix {}: {:?}", cut, err);
    }

    /// A single bit flip anywhere in a sealed segment is either detected
    /// typed, or — only when the flip lands in the final batch frame and
    /// destroys the seal itself — surfaces as a torn tail under the
    /// tolerant reader. It never panics, and the tolerant reader never
    /// serves a corrupted batch as valid.
    #[test]
    fn single_bit_flip_sealed_never_serves_bad_bytes(
        pos in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let bytes = sealed_bytes();
        let full = wal::read_segment(bytes).expect("clean image loads");
        let pos = pos % bytes.len();
        let mut corrupt = bytes.to_vec();
        corrupt[pos] ^= 1 << bit;
        // The sealed contract must always reject a flipped image.
        let err = read_sealed(&corrupt)
            .err()
            .expect("bit-flipped sealed segment must not read as sealed");
        prop_assert!(is_typed(&err), "untyped error for flip {}:{}: {:?}", pos, bit, err);
        // The tolerant reader may salvage a prefix, but whatever batches
        // it serves must be byte-equal to the originals.
        if let Ok(load) = wal::read_segment(&corrupt) {
            for (got, want) in load.batches.iter().zip(&full.batches) {
                prop_assert_eq!(got.seq, want.seq);
                prop_assert_eq!(&got.records, &want.records);
            }
        }
    }

    /// Arbitrary garbage never panics; any load either fails typed or
    /// serves an (astronomically unlikely) valid parse.
    #[test]
    fn arbitrary_garbage_never_panics(bytes in prop::collection::vec(0u8..=255, 0..2048)) {
        match wal::read_segment(&bytes) {
            Ok(_) => {}
            Err(err) => prop_assert!(is_typed(&err), "untyped error: {:?}", err),
        }
    }

    /// Garbage wearing a valid POLWAL1 magic still never panics — this
    /// drives the parser into header and frame framing instead of
    /// bailing at byte 0.
    #[test]
    fn garbage_behind_valid_magic_never_panics(
        bytes in prop::collection::vec(0u8..=255, 0..2048),
    ) {
        let mut framed = wal::MAGIC_WAL.to_vec();
        framed.extend_from_slice(&bytes);
        match wal::read_segment(&framed) {
            Ok(load) => prop_assert!(load.batches.is_empty() || load.sealed == false),
            Err(err) => prop_assert!(is_typed(&err), "untyped error: {:?}", err),
        }
    }

    /// Record codec round-trips for arbitrary field shapes (positions
    /// clamped to the valid LatLon domain, Options independently
    /// present or absent).
    #[test]
    fn record_round_trip(
        mmsi in 1u32..999_999_999,
        ts in -4_000_000_000i64..4_000_000_000,
        lat in -90.0f64..=90.0,
        lon in -180.0f64..180.0,
        sog in prop::option::of(0.0f64..=102.2),
        cog in prop::option::of(0.0f64..360.0),
        heading in prop::option::of(0.0f64..360.0),
        nav in 0u8..16,
    ) {
        let r = PositionReport {
            mmsi: Mmsi(mmsi),
            timestamp: ts,
            pos: LatLon::new(lat, lon).expect("in-domain position"),
            sog_knots: sog,
            cog_deg: cog,
            heading_deg: heading,
            nav_status: NavStatus::from_raw(nav),
        };
        let mut buf = Vec::new();
        wal::encode_record(&r, &mut buf);
        let mut s = &buf[..];
        let back = wal::decode_record(&mut s).expect("round trip decodes");
        prop_assert!(s.is_empty());
        prop_assert_eq!(back, r);
    }
}
