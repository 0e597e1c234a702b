//! Integration test spanning the AIS wire format and the pipeline: raw
//! NMEA sentences in, inventory out — the full receiving-network path the
//! paper's §3.1 describes.

use patterns_of_life::ais::decode::{decode_payload, AisMessage};
use patterns_of_life::ais::encode::encode_position_a;
use patterns_of_life::ais::nmea::{Assembler, Sentence};
use patterns_of_life::ais::{PositionReport, StaticReport};
use patterns_of_life::core::records::PortSite;
use patterns_of_life::core::PipelineConfig;
use patterns_of_life::engine::Engine;
use patterns_of_life::fleetsim::scenario::{generate, ScenarioConfig};
use patterns_of_life::fleetsim::WORLD_PORTS;

/// Every simulated report survives NMEA encode → wire → parse → decode
/// with protocol quantisation only, and the decoded stream produces the
/// same inventory shape as the direct stream.
#[test]
fn nmea_wire_path_feeds_the_pipeline() {
    let mut scenario = ScenarioConfig {
        n_vessels: 8,
        duration_days: 4,
        ..ScenarioConfig::default()
    };
    // No injected corruption: the wire format *saturates* out-of-range
    // fields (SOG clamps to 102.2 kn, courses wrap), so corrupt records
    // would legitimately differ between the direct and wire paths.
    scenario.emission.corrupt_rate = 0.0;
    let ds = generate(&scenario);

    // Ship every report over the wire.
    let mut asm = Assembler::new();
    let mut wired: Vec<Vec<PositionReport>> = Vec::new();
    let mut wire_failures = 0;
    for part in &ds.positions {
        let mut out = Vec::with_capacity(part.len());
        for r in part {
            let (payload, fill) = encode_position_a(r);
            let line = Sentence::wrap(&payload, fill, 0)[0].to_line();
            let sentence = Sentence::parse(&line).expect("self-produced NMEA parses");
            let Some((payload, fill)) = asm.push(sentence) else {
                wire_failures += 1;
                continue;
            };
            match decode_payload(&payload, fill) {
                Ok(AisMessage::PositionA {
                    mmsi,
                    nav_status,
                    sog_knots,
                    pos,
                    cog_deg,
                    heading_deg,
                    ..
                }) => {
                    let pos = pos.expect("valid positions stay available");
                    out.push(PositionReport {
                        mmsi,
                        // Receiver-assigned timestamp (AIS carries only the
                        // UTC second): keep the original.
                        timestamp: r.timestamp,
                        pos,
                        sog_knots,
                        cog_deg,
                        heading_deg,
                        nav_status,
                    });
                }
                other => panic!("wire path broke: {other:?}"),
            }
        }
        wired.push(out);
    }
    assert_eq!(wire_failures, 0);
    let direct_count: usize = ds.positions.iter().map(Vec::len).sum();
    let wired_count: usize = wired.iter().map(Vec::len).sum();
    assert_eq!(direct_count, wired_count);

    // Run the pipeline on both streams.
    let cfg = PipelineConfig::default();
    let ports: Vec<PortSite> = WORLD_PORTS
        .iter()
        .enumerate()
        .map(|(i, p)| PortSite {
            id: i as u16,
            name: p.name.to_string(),
            pos: p.pos(),
            radius_km: cfg.port_radius_km,
        })
        .collect();
    let engine = Engine::new(2);
    let direct =
        patterns_of_life::core::run_fused(&engine, ds.positions.clone(), &ds.statics, &ports, &cfg)
            .unwrap();
    let via_wire =
        patterns_of_life::core::run_fused(&engine, wired, &ds.statics, &ports, &cfg).unwrap();

    // Wire quantisation is ~0.2 m in position and 0.05 kn in speed: stage
    // counts match exactly, per-cell stats match within quantisation.
    assert_eq!(via_wire.counts.raw, direct.counts.raw);
    assert_eq!(via_wire.counts.cleaned, direct.counts.cleaned);
    assert_eq!(via_wire.counts.with_trips, direct.counts.with_trips);
    let (ca, cb) = (direct.inventory.coverage(), via_wire.inventory.coverage());
    assert_eq!(ca.total_records, cb.total_records);
    // Cell assignment can differ only for reports within quantisation
    // distance of a cell edge — a vanishing fraction.
    let diff = (ca.occupied_cells as f64 - cb.occupied_cells as f64).abs();
    let rel = diff / ca.occupied_cells as f64;
    assert!(rel < 0.01, "{} vs {}", ca.occupied_cells, cb.occupied_cells);
}

/// The static-report join path: a vessel missing from the static inventory
/// contributes nothing (the paper's enrichment filter).
#[test]
fn unknown_vessels_are_dropped_by_enrichment() {
    let scenario = ScenarioConfig {
        n_vessels: 5,
        duration_days: 3,
        ..ScenarioConfig::default()
    };
    let ds = generate(&scenario);
    let cfg = PipelineConfig::default();
    let ports: Vec<PortSite> = WORLD_PORTS
        .iter()
        .enumerate()
        .map(|(i, p)| PortSite {
            id: i as u16,
            name: p.name.to_string(),
            pos: p.pos(),
            radius_km: cfg.port_radius_km,
        })
        .collect();
    let engine = Engine::new(2);
    // Keep statics for only the first two vessels.
    let statics: Vec<StaticReport> = ds.statics.iter().take(2).cloned().collect();
    let out =
        patterns_of_life::core::run_fused(&engine, ds.positions.clone(), &statics, &ports, &cfg)
            .unwrap();
    let full = patterns_of_life::core::run_fused(&engine, ds.positions, &ds.statics, &ports, &cfg)
        .unwrap();
    assert!(out.counts.cleaned < full.counts.cleaned);
    assert!(out.clean_report.non_commercial > 0);
}
