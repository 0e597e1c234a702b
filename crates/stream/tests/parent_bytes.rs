//! "Bytes identical to the parent commit", as an assertion: the length of
//! the POLINV3 image of `ScenarioConfig::tiny()` and the CRC-64/XZ of each
//! of its five sections, as the parent commit wrote them, by each of the
//! routes to an inventory. The cross-path identity tests say the routes
//! agree with each other; this one says a change that moved them all
//! together (a fold order, a hash, a sketch parameter, an encoder) moved
//! them.
//!
//! Why per section and not the whole file: every section body and the
//! header are followed by their own CRC-64, and a CRC run over `block ‖
//! crc(block)` ends in a state that depends only on the block's length.
//! So the whole image's CRC pins the layout, not the content — two images
//! with one statistic apart share it (`columnar`'s
//! `whole_file_crc_pins_only_the_layout`).
//!
//! A PR that changes the bytes on purpose re-captures the constants and
//! says so.

use pol_core::codec::columnar;
use pol_core::records::PortSite;
use pol_core::reference;
use pol_core::run_fused;
use pol_core::PipelineConfig;
use pol_engine::Engine;
use pol_fleetsim::scenario::{generate, ScenarioConfig};
use pol_fleetsim::stream::interleave;
use pol_fleetsim::WORLD_PORTS;
use pol_sketch::crc64::crc64;
use pol_stream::{StreamConfig, StreamEngine};

/// Captured on commit 53fda2b (PR 20), before PR 21 touched anything.
const PARENT_LEN: usize = 81_482;
const PARENT_CRC64: u64 = 0x302C_F632_39E8_BC3F;
/// Captured on commit 10efe22, whose image is 53fda2b's byte for byte.
const PARENT_SECTION_CRCS: [(&str, u64); 5] = [
    ("cell", 0xA1FA_8A2C_EB9B_555C),
    ("cell-type", 0x572B_A12E_F9A5_2A28),
    ("cell-route", 0xCB6E_4FDF_4B17_7299),
    ("lat-index", 0x5B4F_3575_FFF3_7419),
    ("top-dest", 0x17C3_F2C3_56F8_92C3),
];

fn port_sites(radius_km: f64) -> Vec<PortSite> {
    WORLD_PORTS
        .iter()
        .enumerate()
        .map(|(i, p)| PortSite {
            id: i as u16,
            name: p.name.to_string(),
            pos: p.pos(),
            radius_km,
        })
        .collect()
}

#[test]
fn tiny_scenario_bytes_equal_the_parent_commits() {
    let ds = generate(&ScenarioConfig::tiny());
    let cfg = PipelineConfig::default();
    let ports = port_sites(cfg.port_radius_km);
    let engine = Engine::new(2);

    let fused = run_fused(&engine, ds.positions.clone(), &ds.statics, &ports, &cfg).unwrap();
    let reference = reference::build(ds.positions.clone(), &ds.statics, &ports, &cfg);
    let mut se = StreamEngine::new(&ds.statics, &ports, StreamConfig::default());
    for r in interleave(ds.positions) {
        se.push(r);
    }
    let streamed = se.close(&engine).unwrap();

    for (route, inventory) in [
        ("fused", &fused.inventory),
        ("reference", &reference.inventory),
        ("streamed-then-closed", &streamed.inventory),
    ] {
        let bytes = columnar::to_bytes(inventory);
        assert_eq!(
            (bytes.len(), crc64(&bytes)),
            (PARENT_LEN, PARENT_CRC64),
            "{route}: POLINV3 layout differs from the parent commit's"
        );
        let sections: Vec<(&str, u64)> = columnar::verify_bytes(&bytes)
            .unwrap()
            .sections
            .iter()
            .map(|s| (s.name, s.crc))
            .collect();
        assert_eq!(
            sections, PARENT_SECTION_CRCS,
            "{route}: POLINV3 content differs from the parent commit's"
        );
    }
}
