//! Property test: any valid position report survives the *full* wire path
//! (encode → NMEA wrap → line format → parse → assemble → decode) within
//! protocol quantisation.

use pol_ais::decode::{decode_payload, AisMessage};
use pol_ais::encode::{encode_position_a, encode_position_b};
use pol_ais::nmea::{Assembler, Sentence};
use pol_ais::report::PositionReport;
use pol_ais::types::{Mmsi, NavStatus};
use pol_geo::LatLon;
use proptest::prelude::*;

fn arb_report() -> impl Strategy<Value = PositionReport> {
    (
        1u32..999_999_999,
        0i64..2_000_000_000,
        -89.99f64..89.99,
        -179.99f64..179.99,
        prop::option::of(0.0f64..102.2),
        prop::option::of(0.0f64..359.94),
        prop::option::of(0.0f64..359.49),
        0u8..15,
    )
        .prop_map(|(mmsi, ts, lat, lon, sog, cog, hdg, st)| PositionReport {
            mmsi: Mmsi(mmsi),
            timestamp: ts,
            pos: LatLon::new(lat, lon).unwrap(),
            sog_knots: sog,
            cog_deg: cog,
            heading_deg: hdg,
            nav_status: NavStatus::from_raw(st),
        })
}

fn through_wire(payload: String, fill: u8) -> AisMessage {
    let lines: Vec<String> = Sentence::wrap(&payload, fill, 5)
        .iter()
        .map(Sentence::to_line)
        .collect();
    let mut asm = Assembler::new();
    let mut result = None;
    for line in &lines {
        let parsed = Sentence::parse(line).expect("self-produced line parses");
        result = asm.push(parsed);
    }
    let (p, f) = result.expect("message completes");
    decode_payload(p, f).expect("self-produced payload decodes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn class_a_full_wire_round_trip(r in arb_report()) {
        let (payload, fill) = encode_position_a(&r);
        match through_wire(payload, fill) {
            AisMessage::PositionA { mmsi, nav_status, sog_knots, pos, cog_deg, heading_deg, utc_second, .. } => {
                prop_assert_eq!(mmsi, r.mmsi);
                prop_assert_eq!(nav_status, r.nav_status);
                match (sog_knots, r.sog_knots) {
                    (Some(a), Some(b)) => prop_assert!((a - b).abs() <= 0.05 + 1e-9),
                    (None, None) => {}
                    other => prop_assert!(false, "sog mismatch {other:?}"),
                }
                let p = pos.expect("valid position encodes as available");
                prop_assert!((p.lat() - r.pos.lat()).abs() < 1.0 / 600_000.0 + 1e-9);
                prop_assert!((p.lon() - r.pos.lon()).abs() < 1.0 / 600_000.0 + 1e-9);
                match (cog_deg, r.cog_deg) {
                    (Some(a), Some(b)) => prop_assert!((a - b).abs() <= 0.05 + 1e-9),
                    (None, None) => {}
                    other => prop_assert!(false, "cog mismatch {other:?}"),
                }
                match (heading_deg, r.heading_deg) {
                    (Some(a), Some(b)) => prop_assert!((a - b).abs() <= 0.5 + 1e-9),
                    (None, None) => {}
                    other => prop_assert!(false, "heading mismatch {other:?}"),
                }
                prop_assert_eq!(utc_second as i64, r.timestamp.rem_euclid(60));
            }
            other => prop_assert!(false, "wrong variant {other:?}"),
        }
    }

    #[test]
    fn class_b_full_wire_round_trip(r in arb_report()) {
        let (payload, fill) = encode_position_b(&r);
        match through_wire(payload, fill) {
            AisMessage::PositionB { mmsi, pos, .. } => {
                prop_assert_eq!(mmsi, r.mmsi);
                let p = pos.expect("valid position encodes as available");
                prop_assert!((p.lat() - r.pos.lat()).abs() < 1.0 / 600_000.0 + 1e-9);
            }
            other => prop_assert!(false, "wrong variant {other:?}"),
        }
    }

    #[test]
    fn corrupting_any_payload_char_is_detected_or_changes_message(
        r in arb_report(),
        pos in 0usize..28,
        bump in 1u8..63,
    ) {
        // Flip one payload character; the NMEA checksum must catch it.
        let (payload, fill) = encode_position_a(&r);
        let line = Sentence::wrap(&payload, fill, 0)[0].to_line();
        let bytes = line.clone().into_bytes();
        // Payload starts after "!AIVDM,1,1,,A," = 14 chars.
        let idx = 14 + pos.min(payload.len() - 1);
        let mut corrupted = bytes.clone();
        let orig = corrupted[idx];
        let alphabet: Vec<u8> = (48u8..=87).chain(96..=119).collect();
        let new = alphabet[(alphabet.iter().position(|&c| c == orig).unwrap_or(0) + bump as usize) % alphabet.len()];
        prop_assume!(new != orig);
        corrupted[idx] = new;
        let corrupted = String::from_utf8(corrupted).unwrap();
        prop_assert!(Sentence::parse(&corrupted).is_err(), "checksum must catch single-char corruption");
    }
}
