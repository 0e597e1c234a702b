//! AIVDM payload encoding — the inverse of [`crate::decode`], used by the
//! fleet simulator to emit raw wire traffic and by the round-trip tests
//! that pin the codec down.

use crate::report::{PositionReport, StaticReport};
use crate::sixbit::BitWriter;

fn encode_sog(sog: Option<f64>) -> u64 {
    match sog {
        Some(s) => ((s.clamp(0.0, 102.2) * 10.0).round()) as u64,
        None => 1023,
    }
}

fn encode_cog(cog: Option<f64>) -> u64 {
    match cog {
        Some(c) => ((c.rem_euclid(360.0) * 10.0).round() as u64).min(3599),
        None => 3600,
    }
}

fn encode_heading(h: Option<f64>) -> u64 {
    match h {
        Some(h) => (h.rem_euclid(360.0).round() as u64).min(359),
        None => 511,
    }
}

fn pos_fields(report: &PositionReport) -> (i64, i64) {
    let lon = (report.pos.lon() * 600_000.0).round() as i64;
    let lat = (report.pos.lat() * 600_000.0).round() as i64;
    (lon, lat)
}

/// Encodes a class-A position report as a type-1 payload
/// (`(payload, fill_bits)`).
pub fn encode_position_a(report: &PositionReport) -> (String, u8) {
    let mut w = BitWriter::new();
    w.write_u64(1, 6); // type 1
    w.write_u64(0, 2); // repeat
    w.write_u64(report.mmsi.0 as u64, 30);
    w.write_u64(report.nav_status.raw() as u64, 4);
    w.write_i64(-128, 8); // ROT: not available
    w.write_u64(encode_sog(report.sog_knots), 10);
    w.write_u64(0, 1); // accuracy
    let (lon, lat) = pos_fields(report);
    w.write_i64(lon, 28);
    w.write_i64(lat, 27);
    w.write_u64(encode_cog(report.cog_deg), 12);
    w.write_u64(encode_heading(report.heading_deg), 9);
    w.write_u64((report.timestamp.rem_euclid(60)) as u64, 6);
    w.write_u64(0, 2); // manoeuvre
    w.write_u64(0, 3); // spare
    w.write_u64(0, 1); // RAIM
    w.write_u64(0, 19); // radio status
    debug_assert_eq!(w.len(), 168);
    w.into_payload()
}

/// Encodes a class-B position report as a type-18 payload.
pub fn encode_position_b(report: &PositionReport) -> (String, u8) {
    let mut w = BitWriter::new();
    w.write_u64(18, 6);
    w.write_u64(0, 2);
    w.write_u64(report.mmsi.0 as u64, 30);
    w.write_u64(0, 8); // regional reserved
    w.write_u64(encode_sog(report.sog_knots), 10);
    w.write_u64(0, 1);
    let (lon, lat) = pos_fields(report);
    w.write_i64(lon, 28);
    w.write_i64(lat, 27);
    w.write_u64(encode_cog(report.cog_deg), 12);
    w.write_u64(encode_heading(report.heading_deg), 9);
    w.write_u64((report.timestamp.rem_euclid(60)) as u64, 6);
    w.write_u64(0, 2); // regional
    w.write_u64(1, 1); // CS unit
    w.write_u64(0, 1 + 1 + 1 + 1 + 1); // display/DSC/band/msg22/assigned
    w.write_u64(0, 1); // RAIM
    w.write_u64(0, 20); // radio
    debug_assert_eq!(w.len(), 168);
    w.into_payload()
}

/// Encodes a static & voyage report as a type-5 payload (424 bits — spans
/// two NMEA sentences on the wire).
pub fn encode_static_voyage(s: &StaticReport, destination: &str, draught_m: f64) -> (String, u8) {
    let mut w = BitWriter::new();
    w.write_u64(5, 6);
    w.write_u64(0, 2);
    w.write_u64(s.mmsi.0 as u64, 30);
    w.write_u64(0, 2); // AIS version
    w.write_u64(s.imo.unwrap_or(0) as u64, 30);
    w.write_text("", 7); // callsign
    w.write_text(&s.name, 20);
    w.write_u64(s.ship_type.0 as u64, 8);
    // Dimensions: fabricate a length split 90/10 bow/stern, beam 0.
    let length = (s.gross_tonnage as f64).sqrt() as u64; // crude but monotone
    w.write_u64((length * 9 / 10).min(511), 9);
    w.write_u64((length / 10).min(511), 9);
    w.write_u64(0, 6);
    w.write_u64(0, 6);
    w.write_u64(1, 4); // EPFD: GPS
    w.write_u64(0, 20); // ETA
    w.write_u64(((draught_m * 10.0).round() as u64).min(255), 8);
    w.write_text(destination, 20);
    w.write_u64(0, 1); // DTE
    w.write_u64(0, 1); // spare
    debug_assert_eq!(w.len(), 424);
    w.into_payload()
}

/// Encodes a type-24 part A (name) payload.
pub fn encode_static_24a(s: &StaticReport) -> (String, u8) {
    let mut w = BitWriter::new();
    w.write_u64(24, 6);
    w.write_u64(0, 2);
    w.write_u64(s.mmsi.0 as u64, 30);
    w.write_u64(0, 2); // part A
    w.write_text(&s.name, 20);
    w.into_payload()
}

/// Encodes a type-24 part B (type/callsign) payload.
pub fn encode_static_24b(s: &StaticReport) -> (String, u8) {
    let mut w = BitWriter::new();
    w.write_u64(24, 6);
    w.write_u64(0, 2);
    w.write_u64(s.mmsi.0 as u64, 30);
    w.write_u64(1, 2); // part B
    w.write_u64(s.ship_type.0 as u64, 8);
    w.write_u64(0, 42); // vendor
    w.write_text("", 7); // callsign
    w.write_u64(0, 30); // dimensions
    w.write_u64(0, 6); // spare
    w.into_payload()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{decode_payload, AisMessage};
    use crate::types::{Mmsi, NavStatus, ShipTypeCode};
    use pol_geo::LatLon;

    fn sample_position() -> PositionReport {
        PositionReport {
            mmsi: Mmsi(235_087_123),
            timestamp: 1_650_000_037,
            pos: LatLon::new(50.123_456, -1.987_654).unwrap(),
            sog_knots: Some(14.3),
            cog_deg: Some(237.4),
            heading_deg: Some(235.0),
            nav_status: NavStatus::UnderWayUsingEngine,
        }
    }

    #[test]
    fn position_a_round_trip() {
        let r = sample_position();
        let (p, f) = encode_position_a(&r);
        match decode_payload(&p, f).unwrap() {
            AisMessage::PositionA {
                msg_type,
                mmsi,
                nav_status,
                sog_knots,
                pos,
                cog_deg,
                heading_deg,
                utc_second,
            } => {
                assert_eq!(msg_type, 1);
                assert_eq!(mmsi, r.mmsi);
                assert_eq!(nav_status, r.nav_status);
                assert!((sog_knots.unwrap() - 14.3).abs() < 0.051);
                let q = pos.unwrap();
                assert!((q.lat() - r.pos.lat()).abs() < 1e-5);
                assert!((q.lon() - r.pos.lon()).abs() < 1e-5);
                assert!((cog_deg.unwrap() - 237.4).abs() < 0.051);
                assert_eq!(heading_deg, Some(235.0));
                assert_eq!(utc_second as i64, r.timestamp % 60);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn position_b_round_trip() {
        let r = sample_position();
        let (p, f) = encode_position_b(&r);
        match decode_payload(&p, f).unwrap() {
            AisMessage::PositionB {
                mmsi,
                sog_knots,
                pos,
                ..
            } => {
                assert_eq!(mmsi, r.mmsi);
                assert!((sog_knots.unwrap() - 14.3).abs() < 0.051);
                assert!(pos.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn missing_fields_round_trip_as_none() {
        let mut r = sample_position();
        r.sog_knots = None;
        r.cog_deg = None;
        r.heading_deg = None;
        let (p, f) = encode_position_a(&r);
        match decode_payload(&p, f).unwrap() {
            AisMessage::PositionA {
                sog_knots,
                cog_deg,
                heading_deg,
                ..
            } => {
                assert_eq!(sog_knots, None);
                assert_eq!(cog_deg, None);
                assert_eq!(heading_deg, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn static_voyage_round_trip() {
        let s = StaticReport {
            mmsi: Mmsi(636_012_345),
            imo: Some(9_321_483),
            name: "MAERSK TESTER".into(),
            ship_type: ShipTypeCode(71),
            gross_tonnage: 90_000,
        };
        let (p, f) = encode_static_voyage(&s, "SGSIN", 11.3);
        match decode_payload(&p, f).unwrap() {
            AisMessage::StaticVoyage {
                mmsi,
                imo,
                name,
                ship_type,
                draught_m,
                destination,
                length_m,
                ..
            } => {
                assert_eq!(mmsi, s.mmsi);
                assert_eq!(imo, s.imo);
                assert_eq!(name, "MAERSK TESTER");
                assert_eq!(ship_type, ShipTypeCode(71));
                assert!((draught_m - 11.3).abs() < 0.051);
                assert_eq!(destination, "SGSIN");
                assert!(length_m > 0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn type24_round_trips() {
        let s = StaticReport {
            mmsi: Mmsi(244_123_456),
            imo: None,
            name: "LITTLE FEEDER".into(),
            ship_type: ShipTypeCode(70),
            gross_tonnage: 6_000,
        };
        let (pa, fa) = encode_static_24a(&s);
        match decode_payload(&pa, fa).unwrap() {
            AisMessage::StaticPartA { mmsi, name } => {
                assert_eq!(mmsi, s.mmsi);
                assert_eq!(name, "LITTLE FEEDER");
            }
            other => panic!("{other:?}"),
        }
        let (pb, fb) = encode_static_24b(&s);
        match decode_payload(&pb, fb).unwrap() {
            AisMessage::StaticPartB {
                mmsi, ship_type, ..
            } => {
                assert_eq!(mmsi, s.mmsi);
                assert_eq!(ship_type, ShipTypeCode(70));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn type5_spans_two_sentences() {
        let s = StaticReport {
            mmsi: Mmsi(1),
            imo: None,
            name: "N".into(),
            ship_type: ShipTypeCode(80),
            gross_tonnage: 10_000,
        };
        let (p, f) = encode_static_voyage(&s, "NLRTM", 9.0);
        let sentences = crate::nmea::Sentence::wrap(&p, f, 1);
        assert_eq!(sentences.len(), 2, "424 bits = 71 chars -> 2 sentences");
        // And reassembly decodes.
        let lines: Vec<String> = sentences.iter().map(|s| s.to_line()).collect();
        let mut asm = crate::nmea::Assembler::new();
        let mut out = None;
        for line in &lines {
            let parsed = crate::nmea::Sentence::parse(line).unwrap();
            out = asm.push(parsed);
        }
        let (payload, fill) = out.expect("assembled");
        assert!(decode_payload(payload, fill).is_ok());
    }
}
