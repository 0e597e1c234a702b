//! Property tests for [`Summary`]'s projections: on the encoding of an
//! arbitrary [`CellStats`] — observe and merge histories, distinct
//! counters promoted to HyperLogLog, quantile summaries of 128 buckets
//! and more, tallies past their inline slots — `arrival_quantiles` and
//! `heaviest_destinations` equal the same queries of the full decode's
//! fields (`ata`, `ata_q.quantiles`, `destinations.top`), `Wire::skip`
//! consumes exactly what `Wire::decode` does for every sketch, and on
//! every truncation and single-byte corruption a projection returns a
//! typed error or a value, agreeing with the full decode wherever both
//! succeed: never a panic, never a read past the slice. (Every position
//! of a summary of exact counters, one with 128-bucket summaries among
//! them; of one holding 4 KB of HyperLogLog registers, its head and
//! every thirteenth byte after.)

use pol_ais::types::{MarketSegment, Mmsi};
use pol_core::codec::{decode_cell_stats, encode_cell_stats};
use pol_core::features::CellStats;
use pol_core::records::{CellPoint, TripPoint};
use pol_core::Summary;
use pol_geo::LatLon;
use pol_hexgrid::{cell_at, Resolution};
use pol_sketch::wire::{get_varint, skip_varint, Wire};
use pol_sketch::{
    AngleHistogram, Circular, Distinct, LogHistogram, MergeSketch, SecondsMoments, SpeedMoments,
    Tally,
};
use proptest::prelude::*;
use std::borrow::Cow;
use std::sync::Arc;

/// One report's worth of everything a summary folds in.
type Observation = (
    u32,
    u64,
    Option<f64>,
    Option<f64>,
    (u16, u16),
    (i64, i64),
    bool,
);

fn arb_observation(vessels: u32) -> impl Strategy<Value = Observation> {
    (
        0..vessels,
        0u64..40,
        prop::option::of(0.0f64..30.0),
        prop::option::of(0.0f64..359.9),
        (0u16..30, 0u16..30),
        (0i64..2_000_000, 0i64..2_000_000),
        0u8..3,
    )
        .prop_map(|(mmsi, trip, sog, cog, ports, times, next)| {
            (mmsi, trip, sog, cog, ports, times, next == 0)
        })
}

/// A summary built the ways the pipeline builds one: each part observed
/// record by record, the parts merged in order. `promoted` gives every
/// record a vessel of its own and enough records to take the vessel
/// counter past its exact limit.
fn arb_stats(promoted: bool) -> impl Strategy<Value = CellStats> {
    let (parts, records) = if promoted {
        (3..5, 90..140)
    } else {
        (1..4, 0..40)
    };
    (
        prop::collection::vec(prop::collection::vec(arb_observation(12), records), parts),
        0u8..2,
        0u8..2,
    )
        .prop_map(move |(parts, fine, roomy)| {
            // 0.001 keeps most values of a few hundred in a bucket of
            // their own; 30 ports spill a tally past its 8 inline items.
            let epsilon = if fine == 0 || promoted { 0.001 } else { 0.02 };
            let capacity = if roomy == 0 { 20 } else { 8 };
            let mut vessel = 0;
            let pos = LatLon::new(12.0, 34.0).expect("in range");
            let cell = cell_at(pos, Resolution::new(6).expect("a resolution"));
            let mut merged = CellStats::new(epsilon, capacity);
            for part in parts {
                let mut stats = CellStats::new(epsilon, capacity);
                for (mmsi, trip_id, sog_knots, cog_deg, (origin, dest), (eto, ata), moves) in part {
                    vessel += 1;
                    stats.observe(&CellPoint {
                        point: TripPoint {
                            mmsi: Mmsi(if promoted { vessel } else { mmsi }),
                            timestamp: eto,
                            pos,
                            sog_knots,
                            cog_deg,
                            heading_deg: cog_deg,
                            segment: MarketSegment::Tanker,
                            trip_id,
                            origin,
                            dest,
                            eto_secs: eto,
                            ata_secs: ata,
                        },
                        cell,
                        next_cell: moves.then_some(cell),
                    });
                }
                merged.merge(&stats);
            }
            merged
        })
}

fn stats_bytes(stats: &CellStats) -> Vec<u8> {
    let mut out = Vec::new();
    encode_cell_stats(stats, &mut out);
    out
}

/// The quantiles an ETA estimate asks for.
const PHIS: [f64; 3] = [0.1, 0.5, 0.9];

/// What the two readers answer.
type Arrival = (SecondsMoments, [Option<f64>; 3]);
type Projected = (Option<Arrival>, Option<Vec<(u64, u64)>>);

fn projected(summary: &Summary<'_>) -> Projected {
    (
        summary.arrival_quantiles(PHIS).ok(),
        (summary.heaviest_destinations::<8>())
            .ok()
            .map(|h| h.as_slice().to_vec()),
    )
}

/// The same queries of the full decode's fields, when the bytes decode.
fn decoded_fields(bytes: &[u8]) -> Option<(Arrival, Vec<(u64, u64)>)> {
    let stats = Summary::Encoded(bytes).to_stats().ok()?;
    Some((
        (stats.ata, stats.ata_q.quantiles(PHIS)),
        stats.destinations.top(8),
    ))
}

/// Skips one `T` on one cursor and decodes one on the other: both must
/// stop at the same byte.
fn skip_matches_decode<T: Wire>(skipped: &mut &[u8], decoded: &mut &[u8], field: &str) {
    T::skip(skipped).unwrap_or_else(|e| panic!("skip {field}: {e}"));
    T::decode(decoded).unwrap_or_else(|e| panic!("decode {field}: {e}"));
    assert_eq!(skipped.len(), decoded.len(), "{field}");
}

/// The byte positions to cut or corrupt at: every `step`-th past the
/// head, where the first counters' tags and lengths are.
fn positions(len: usize, step: usize) -> impl Iterator<Item = usize> {
    (0..len.min(64)).chain((64..len).step_by(step))
}

fn check_projections(stats: &CellStats, step: usize) {
    let bytes = stats_bytes(stats);
    let fields = decoded_fields(&bytes).expect("an encoding decodes");

    // Intact: every shape of a summary projects what the decode holds,
    // and the full decode is the summary.
    let shared = Arc::new(stats.clone());
    let borrowed = Summary::Stats(Cow::Borrowed(&shared));
    let owned = Summary::Stats(Cow::Owned(Arc::clone(&shared)));
    for summary in [Summary::Encoded(&bytes), borrowed, owned] {
        let (arrival, destinations) = projected(&summary);
        assert_eq!(arrival, Some(fields.0));
        assert_eq!(destinations, Some(fields.1.clone()));
        let whole = summary.to_stats().expect("an encoding decodes");
        assert_eq!(stats_bytes(&whole), bytes);
        let mut copied = Vec::new();
        summary.encode(&mut copied);
        assert_eq!(copied, bytes);
    }

    // Field by field, in `encode_cell_stats`'s order.
    let (mut skipped, mut decoded) = (&bytes[..], &bytes[..]);
    skip_varint(&mut skipped).expect("records");
    get_varint(&mut decoded).expect("records");
    skip_matches_decode::<Distinct>(&mut skipped, &mut decoded, "ships");
    skip_matches_decode::<Distinct>(&mut skipped, &mut decoded, "trips");
    skip_matches_decode::<SpeedMoments>(&mut skipped, &mut decoded, "speed");
    skip_matches_decode::<LogHistogram>(&mut skipped, &mut decoded, "speed_q");
    skip_matches_decode::<Circular>(&mut skipped, &mut decoded, "course");
    skip_matches_decode::<AngleHistogram>(&mut skipped, &mut decoded, "course_bins");
    skip_matches_decode::<Circular>(&mut skipped, &mut decoded, "heading");
    skip_matches_decode::<AngleHistogram>(&mut skipped, &mut decoded, "heading_bins");
    skip_matches_decode::<SecondsMoments>(&mut skipped, &mut decoded, "eto");
    skip_matches_decode::<LogHistogram>(&mut skipped, &mut decoded, "eto_q");
    skip_matches_decode::<SecondsMoments>(&mut skipped, &mut decoded, "ata");
    skip_matches_decode::<LogHistogram>(&mut skipped, &mut decoded, "ata_q");
    skip_matches_decode::<Tally>(&mut skipped, &mut decoded, "origins");
    skip_matches_decode::<Tally>(&mut skipped, &mut decoded, "destinations");
    skip_matches_decode::<Tally>(&mut skipped, &mut decoded, "transitions");
    assert!(skipped.is_empty(), "bytes after the last field");

    // Truncations: a projection that still answers read only bytes that
    // are all there, so it answers what the intact bytes answer.
    let intact = projected(&Summary::Encoded(&bytes));
    for cut in positions(bytes.len(), step) {
        let prefix = &bytes[..cut];
        assert!(
            decode_cell_stats(&mut &prefix[..]).is_err(),
            "a strict prefix of {cut} decoded"
        );
        let (arrival, destinations) = projected(&Summary::Encoded(prefix));
        assert!(arrival.is_none() || arrival == intact.0, "cut {cut}");
        assert!(
            destinations.is_none() || destinations == intact.1,
            "cut {cut}"
        );
    }
}

/// Single-byte corruptions under `mask`: typed error or a value, and
/// the value the full decode of the same bytes gives where that succeeds
/// too.
fn check_corruptions(stats: &CellStats, mask: u8, step: usize) {
    let mut bytes = stats_bytes(stats);
    for at in positions(bytes.len(), step) {
        bytes[at] ^= mask;
        let (arrival, destinations) = projected(&Summary::Encoded(&bytes));
        if let Some(fields) = decoded_fields(&bytes) {
            if let Some(arrival) = arrival {
                assert_eq!(arrival, fields.0, "byte {at} ^ {mask:#x}");
            }
            if let Some(destinations) = destinations {
                assert_eq!(destinations, fields.1, "byte {at} ^ {mask:#x}");
            }
        }
        bytes[at] ^= mask;
    }
}

/// Summaries whose bucket count takes two bytes to write, cut and
/// corrupted at every byte.
#[test]
fn projections_equal_the_full_decode_at_every_byte_of_wide_sketches() {
    let pos = LatLon::new(12.0, 34.0).expect("in range");
    let cell = cell_at(pos, Resolution::new(6).expect("a resolution"));
    let mut stats = CellStats::new(0.001, 8);
    for i in 0..140i64 {
        stats.observe(&CellPoint {
            point: TripPoint {
                mmsi: Mmsi(7),
                timestamp: i,
                pos,
                sog_knots: Some(i as f64 * 0.1),
                cog_deg: None,
                heading_deg: None,
                segment: MarketSegment::Tanker,
                trip_id: 1,
                origin: 2,
                dest: (i % 5) as u16,
                eto_secs: i * 977 % 100_000,
                ata_secs: i * 1_009 % 100_000,
            },
            cell,
            next_cell: None,
        });
    }
    assert!(stats.ata_q.buckets().len() >= 128);
    check_projections(&stats, 1);
    check_corruptions(&stats, 0x81, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn projections_equal_the_full_decode_on_small_summaries(
        stats in arb_stats(false),
        mask in 1u8..=255,
    ) {
        check_projections(&stats, 1);
        check_corruptions(&stats, mask, 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn projections_equal_the_full_decode_on_promoted_sketches(
        stats in arb_stats(true),
        mask in 1u8..=255,
    ) {
        prop_assert!(!stats.ships.is_exact(), "the vessel counter was not promoted");
        let buckets = stats.ata_q.buckets().len();
        prop_assert!(buckets >= 128, "{} buckets", buckets);
        check_projections(&stats, 13);
        check_corruptions(&stats, mask, 13);
    }
}
