//! The sealed files around the snapshot, pinned to the bytes the parent
//! commit wrote: a POLMAN2 chain manifest, a POLCKP2 checkpoint head and
//! its POLCKL1 log after two checkpoints, and a sealed POLWAL1 journal
//! segment, all from one journaled run over `ScenarioConfig::tiny()`.
//! `parent_bytes.rs` does the same for the POLINV4 image.
//!
//! Each file is pinned by its length, its CRC-64/XZ and its FNV-1a. The
//! CRC alone would pin only the layout: each of these files stores a
//! CRC-64 right after the block it covers, and a CRC run over `block ‖
//! crc(block)` ends in a state fixed by the block's length. FNV-1a has
//! no such blind spot, so together they pin envelope and content.
//!
//! A PR that changes one of these formats on purpose re-captures the
//! constants and says so.

use pol_core::records::PortSite;
use pol_engine::Engine;
use pol_fleetsim::scenario::{generate, ScenarioConfig};
use pol_fleetsim::stream::interleave;
use pol_fleetsim::WORLD_PORTS;
use pol_sketch::crc64::crc64;
use pol_stream::{
    DeltaPublisher, JournaledEngine, StreamConfig, StreamEngine, WalConfig, CHECKPOINT_NAME,
    MANIFEST_NAME,
};
use std::path::{Path, PathBuf};

/// `(file, length, CRC-64/XZ, FNV-1a)` as the parent commit wrote them.
const PARENT_FILES: [(&str, usize, u64, u64); 4] = [
    ("manifest", 81, 0xD475_D32A_BA76_2B64, 0xE98A_E2AB_8F6E_326C),
    (
        "checkpoint head",
        4_658,
        0x37DC_8942_FED3_8E2E,
        0x4C0E_3594_4AA1_26C9,
    ),
    (
        "checkpoint log",
        939_750,
        0xCF25_F016_16BA_8A02,
        0x766E_0FAA_5053_9155,
    ),
    (
        "sealed segment",
        3_259_365,
        0xDA7C_2936_8FBA_4F1F,
        0x438F_169B_4D0E_8D32,
    ),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The one file in `dir` whose name ends in `suffix`.
fn only_file(dir: &Path, suffix: &str) -> PathBuf {
    let found: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().ends_with(suffix))
        .collect();
    assert_eq!(found.len(), 1, "{suffix} files in {dir:?}: {found:?}");
    found.into_iter().next().unwrap()
}

#[test]
fn tiny_scenario_envelopes_equal_the_parent_commits() {
    let root = std::env::temp_dir().join(format!("pol-envelope-bytes-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let (journal, chain) = (root.join("journal"), root.join("chain"));
    std::fs::create_dir_all(&journal).unwrap();
    std::fs::create_dir_all(&chain).unwrap();

    let ds = generate(&ScenarioConfig::tiny());
    let ports: Vec<PortSite> = WORLD_PORTS
        .iter()
        .enumerate()
        .map(|(i, p)| PortSite {
            id: i as u16,
            name: p.name.to_string(),
            pos: p.pos(),
            radius_km: 10.0,
        })
        .collect();
    let engine = Engine::new(2);
    let stream = StreamEngine::new(&ds.statics, &ports, StreamConfig::default());
    let mut je = JournaledEngine::create(&journal, stream, WalConfig::default(), 0).unwrap();
    let mut publisher = DeltaPublisher::create(&chain);
    let records: Vec<_> = interleave(ds.positions).collect();
    for half in records.chunks(records.len().div_ceil(2)) {
        for &r in half {
            je.push(r).unwrap();
        }
        je.checkpoint().unwrap();
        publisher
            .publish(&je.take_window_delta(&engine).unwrap())
            .unwrap();
    }
    je.close(&engine).unwrap();

    let files = [
        chain.join(MANIFEST_NAME),
        journal.join(CHECKPOINT_NAME),
        only_file(&journal, ".polckl"),
        only_file(&journal, ".polwal"),
    ];
    let got: Vec<(&str, usize, u64, u64)> = PARENT_FILES
        .iter()
        .zip(&files)
        .map(|(&(name, ..), path)| {
            let bytes = std::fs::read(path).unwrap();
            (name, bytes.len(), crc64(&bytes), fnv1a(&bytes))
        })
        .collect();
    std::fs::remove_dir_all(&root).ok();
    assert_eq!(
        got, PARENT_FILES,
        "an envelope differs from the parent commit's"
    );
}
