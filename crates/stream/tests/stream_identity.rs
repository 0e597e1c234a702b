//! The tentpole invariant: after all watermarks close, the streamed
//! inventory is byte-identical to the batch build over the same
//! records — fed through `fleetsim`'s interleaved `--stream` wire,
//! disorder, dropouts and corrupt duplicates included.

use pol_core::codec::{columnar, manifest};
use pol_core::records::PortSite;
use pol_core::run_fused;
use pol_core::PipelineConfig;
use pol_engine::Engine;
use pol_fleetsim::emit::EmissionConfig;
use pol_fleetsim::scenario::{generate, ScenarioConfig};
use pol_fleetsim::stream::interleave;
use pol_fleetsim::WORLD_PORTS;
use pol_stream::{DeltaPublisher, StreamConfig, StreamEngine};

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

/// Streams a scenario through a fresh engine and returns
/// (batch bytes, streamed bytes, counters, batch projected count).
fn run_both(scenario: &ScenarioConfig) -> (Vec<u8>, Vec<u8>, pol_stream::IngestCounters, u64) {
    let ds = generate(scenario);
    let cfg = PipelineConfig::default();
    let ports = port_sites(cfg.port_radius_km);
    let batch = run_fused(
        &Engine::new(2),
        ds.positions.clone(),
        &ds.statics,
        &ports,
        &cfg,
    )
    .unwrap();

    let mut se = StreamEngine::new(&ds.statics, &ports, StreamConfig::default());
    for r in interleave(ds.positions) {
        se.push(r);
    }
    let out = se.close(&Engine::new(2)).unwrap();
    (
        columnar::to_bytes(&batch.inventory),
        columnar::to_bytes(&out.inventory),
        out.counters,
        batch.counts.projected,
    )
}

#[test]
fn streamed_inventory_matches_batch_bytes() {
    let (batch, streamed, counters, projected) = run_both(&ScenarioConfig::tiny());
    assert_eq!(
        counters.late_dropped, 0,
        "reorder bound must cover the wire"
    );
    assert_eq!(counters.trip_points, projected);
    assert_eq!(batch, streamed, "streamed inventory must equal batch build");
}

#[test]
fn streamed_matches_batch_under_heavy_disorder() {
    let mut scenario = ScenarioConfig::tiny();
    scenario.seed = 77;
    scenario.emission = EmissionConfig {
        corrupt_rate: 0.02, // 40× the default out-of-order duplicate rate
        ..scenario.emission
    };
    let (batch, streamed, counters, _) = run_both(&scenario);
    assert_eq!(counters.late_dropped, 0);
    assert_eq!(batch, streamed);
}

#[test]
fn delta_emission_preserves_close_identity() {
    let ds = generate(&ScenarioConfig::tiny());
    let cfg = PipelineConfig::default();
    let ports = port_sites(cfg.port_radius_km);
    let batch = run_fused(
        &Engine::new(2),
        ds.positions.clone(),
        &ds.statics,
        &ports,
        &cfg,
    )
    .unwrap();

    let dir = std::env::temp_dir().join("pol-stream-identity-deltas");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let mut publisher = DeltaPublisher::create(&dir);

    // Cut a delta window every two simulated days of watermark progress.
    let engine = Engine::new(2);
    let mut se = StreamEngine::new(&ds.statics, &ports, StreamConfig::default());
    let mut next_cut = ds.config.start + 2 * 86_400;
    let mut published_records = 0u64;
    for r in interleave(ds.positions) {
        se.push(r);
        if se.watermark() >= next_cut {
            let delta = se.take_window_delta(&engine).unwrap();
            published_records += delta.total_records();
            publisher.publish(&delta).unwrap();
            next_cut += 2 * 86_400;
        }
    }

    // Snapshot emission must not perturb the close: identity holds.
    let out = se.close(&engine).unwrap();
    assert_eq!(out.counters.late_dropped, 0);
    assert_eq!(
        columnar::to_bytes(&batch.inventory),
        columnar::to_bytes(&out.inventory),
        "delta emission must not perturb the final inventory"
    );

    // The published chain is sound and accounts for every record that
    // was final at the last cut.
    assert!(
        publisher.chain_len() >= 2,
        "scenario must span several windows"
    );
    let (merged, info) = manifest::load_chain(publisher.manifest_path()).unwrap();
    assert_eq!(info.chain_len, publisher.chain_len() as u64);
    assert_eq!(merged.total_records(), published_records);
    assert!(published_records <= out.counters.trip_points);
    let report = manifest::verify_chain(publisher.manifest_path()).unwrap();
    assert_eq!(report.files.len(), publisher.chain_len());
    std::fs::remove_dir_all(&dir).ok();
}
