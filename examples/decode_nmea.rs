//! The wire level: decode raw NMEA AIVDM sentences (including a
//! documented real-world one), then encode a simulated vessel's report
//! back onto the wire and through the full path again.
//!
//! ```sh
//! cargo run --example decode_nmea
//! ```

use patterns_of_life::ais::decode::{decode_payload, AisMessage};
use patterns_of_life::ais::encode::{encode_position_a, encode_static_voyage};
use patterns_of_life::ais::nmea::{Assembler, Sentence};
use patterns_of_life::ais::report::{PositionReport, StaticReport};
use patterns_of_life::ais::types::{Mmsi, NavStatus, ShipTypeCode};
use patterns_of_life::geo::LatLon;

fn main() {
    // A real AIVDM sentence from the public protocol documentation.
    let wire = "!AIVDM,1,1,,B,177KQJ5000G?tO`K>RA1wUbN0TKH,0*5C";
    println!("raw:     {wire}");
    let sentence = Sentence::parse(wire).expect("valid NMEA");
    let msg = decode_payload(sentence.payload, sentence.fill_bits).expect("valid payload");
    if let AisMessage::PositionA {
        mmsi,
        nav_status,
        sog_knots,
        pos,
        ..
    } = &msg
    {
        println!(
            "decoded: type 1, MMSI {mmsi}, status {nav_status:?}, SOG {:?} kn, pos {:?}",
            sog_knots, pos
        );
    }

    // Now the other direction: put our own report on the wire.
    let report = PositionReport {
        mmsi: Mmsi(235_098_765),
        timestamp: 1_650_000_000,
        pos: LatLon::new(51.05, 1.45).unwrap(), // Dover Strait
        sog_knots: Some(18.4),
        cog_deg: Some(42.0),
        heading_deg: Some(40.0),
        nav_status: NavStatus::UnderWayUsingEngine,
    };
    let (payload, fill) = encode_position_a(&report);
    let line = Sentence::wrap(&payload, fill, 1)[0].to_line();
    println!("\nour vessel on the wire: {line}");
    let parsed = Sentence::parse(&line).expect("round-trip");
    let back = decode_payload(parsed.payload, parsed.fill_bits).expect("round-trip");
    println!("decoded back:           {back:?}");

    // Static & voyage data spans two sentences; the assembler reassembles.
    let static_report = StaticReport {
        mmsi: Mmsi(235_098_765),
        imo: Some(9_412_345),
        name: "POL QUICKSILVER".into(),
        ship_type: ShipTypeCode(71),
        gross_tonnage: 95_000,
    };
    let (payload, fill) = encode_static_voyage(&static_report, "NLRTM", 12.5);
    let sentences = Sentence::wrap(&payload, fill, 7);
    println!("\ntype 5 needs {} sentences:", sentences.len());
    // A sentence borrows its payload from the line, so the lines outlive
    // the parsing.
    let lines: Vec<String> = sentences.iter().map(Sentence::to_line).collect();
    let mut assembler = Assembler::new();
    let mut assembled = None;
    for line in &lines {
        println!("  {line}");
        assembled = assembler.push(Sentence::parse(line).unwrap());
    }
    let (payload, fill) = assembled.expect("complete");
    if let AisMessage::StaticVoyage {
        name,
        destination,
        draught_m,
        ..
    } = decode_payload(&payload, fill).expect("valid")
    {
        println!("reassembled: name={name:?} destination={destination:?} draught={draught_m} m");
    }
}
