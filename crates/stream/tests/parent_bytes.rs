//! "Bytes identical to the parent commit", as an assertion: the length
//! and CRC-64/XZ of the POLINV3 image of `ScenarioConfig::tiny()` as the
//! commit before PR 21 wrote it, by each of the three routes to an
//! inventory. The cross-path identity tests say the routes agree with
//! each other; this one says a change that moved all three together (a
//! fold order, a hash, a sketch parameter, an encoder) moved them.
//!
//! A PR that changes the bytes on purpose re-captures the constants and
//! says so.

use pol_core::codec::columnar;
use pol_core::pipeline::run;
use pol_core::records::PortSite;
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
    let staged = run(&engine, ds.positions.clone(), &ds.statics, &ports, &cfg).unwrap();
    let mut se = StreamEngine::new(&ds.statics, &ports, StreamConfig::default());
    for r in interleave(ds.positions) {
        se.push(r);
    }
    let streamed = se.close(&engine).unwrap();

    for (route, inventory) in [
        ("fused", &fused.inventory),
        ("staged", &staged.inventory),
        ("streamed-then-closed", &streamed.inventory),
    ] {
        let bytes = columnar::to_bytes(inventory);
        assert_eq!(
            (bytes.len(), crc64(&bytes)),
            (PARENT_LEN, PARENT_CRC64),
            "{route}: POLINV3 image differs from the parent commit's"
        );
    }
}
