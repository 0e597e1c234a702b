//! How long the wire front takes per line: framing, assembly and payload
//! decoding, each timed on its own and then as the one loop a build runs.
//!
//! The lines are made by this crate's own encoder: 200 000 type-1 position
//! reports of pseudo-random vessels, with a two-sentence type-5 static
//! broadcast after every 128th, about the mix polbench's `batch_build`
//! reads. Each row is the median of 15 passes over all of them, in ns per
//! line (the decode row divides by lines, not by messages).
//!
//! ```sh
//! cargo run --release -p pol-ais --example wire_throughput
//! ```

use pol_ais::encode::{encode_position_a, encode_static_voyage};
use pol_ais::{decode_payload, Assembler, Mmsi, NavStatus, PositionReport, Sentence};
use pol_ais::{ShipTypeCode, StaticReport};
use pol_geo::LatLon;
use std::hint::black_box;
use std::time::Instant;

/// Position reports in the stream.
const REPORTS: usize = 200_000;

/// Median ns per line of `pass`, which goes over `lines` lines once.
fn median_ns_per_line(lines: usize, mut pass: impl FnMut()) -> f64 {
    let mut passes: Vec<f64> = (0..15)
        .map(|_| {
            let started = Instant::now();
            pass();
            started.elapsed().as_nanos() as f64 / lines as f64
        })
        .collect();
    passes.sort_by(f64::total_cmp);
    passes[passes.len() / 2]
}

fn main() {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move |below: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % below
    };
    let mut lines = Vec::with_capacity(REPORTS + REPORTS / 64);
    for i in 0..REPORTS {
        let mmsi = Mmsi(200_000_000 + next(500_000_000) as u32);
        let (lat, lon) = (
            next(170_000) as f64 / 1e3 - 85.0,
            next(359_000) as f64 / 1e3 - 179.5,
        );
        let Some(pos) = LatLon::new(lat, lon) else {
            continue;
        };
        let report = PositionReport {
            mmsi,
            timestamp: 1_650_000_000 + i as i64,
            pos,
            sog_knots: Some(next(300) as f64 / 10.0),
            cog_deg: Some(next(3600) as f64 / 10.0),
            heading_deg: None,
            nav_status: NavStatus::from_raw(next(9) as u8),
        };
        let (payload, fill) = encode_position_a(&report);
        lines.extend(
            Sentence::wrap(&payload, fill, 0)
                .iter()
                .map(Sentence::to_line),
        );
        if i % 128 == 127 {
            let statics = StaticReport {
                mmsi,
                imo: Some(9_000_000 + next(999_999) as u32),
                name: "POL QUICKSILVER".into(),
                ship_type: ShipTypeCode(70 + next(20) as u8),
                gross_tonnage: 5_000 + next(100_000) as u32,
            };
            let (payload, fill) = encode_static_voyage(&statics, "NLRTM", 12.5);
            let id = (i / 128 % 10) as u8;
            lines.extend(
                Sentence::wrap(&payload, fill, id)
                    .iter()
                    .map(Sentence::to_line),
            );
        }
    }
    let n = lines.len();
    let sentences: Vec<Sentence> = lines
        .iter()
        .filter_map(|l| Sentence::parse(l).ok())
        .collect();
    assert_eq!(sentences.len(), n, "every line the encoder makes parses");
    let mut assembler = Assembler::new();
    let messages: Vec<(String, u8)> = sentences
        .iter()
        .filter_map(|&s| assembler.push(s).map(|(p, f)| (p.to_owned(), f)))
        .collect();

    let parse = median_ns_per_line(n, || {
        for line in &lines {
            let _ = black_box(Sentence::parse(black_box(line)));
        }
    });
    let assemble = median_ns_per_line(n, || {
        for &s in &sentences {
            black_box(assembler.push(black_box(s)));
        }
    });
    let decode = median_ns_per_line(n, || {
        for (payload, fill) in &messages {
            let _ = black_box(decode_payload(black_box(payload), *fill));
        }
    });
    let all = median_ns_per_line(n, || {
        for line in &lines {
            let Ok(s) = Sentence::parse(black_box(line)) else {
                continue;
            };
            if let Some((payload, fill)) = assembler.push(s) {
                let _ = black_box(decode_payload(payload, fill));
            }
        }
    });
    println!("{n} lines, {} messages", messages.len());
    println!("{:<32} {:>8}", "stage", "ns/line");
    println!("{:<32} {parse:>8.1}", "parse (Sentence::parse)");
    println!("{:<32} {assemble:>8.1}", "assemble (Assembler::push)");
    println!("{:<32} {decode:>8.1}", "decode (decode_payload)");
    println!("{:<32} {all:>8.1}", "parse + assemble + decode");
}
