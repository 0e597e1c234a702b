//! Chaos tests for delta publication and the write-ahead journal (run
//! with `cargo test -p pol-stream --features chaos --test chaos`):
//! injected write, sync, rename, and seal failures at any step of a
//! publish, journal append, checkpoint append or checkpoint-log rewrite
//! must never produce
//! loadable-but-wrong state — readers either see the old artifact
//! (intact, fully verifiable) or the new one, and a crash at any
//! failpoint recovers byte-identically.
//!
//! Failpoint configuration is process-global, so every test holds
//! [`pol_chaos::exclusive`] for its whole body.

#![cfg(feature = "chaos")]

use pol_ais::types::{MarketSegment, Mmsi, NavStatus};
use pol_ais::PositionReport;
use pol_chaos::{configure, exclusive, remove, stats, FaultAction, Trigger};
use pol_core::codec::{columnar, manifest};
use pol_core::features::{CellStats, GroupKey};
use pol_core::records::{CellPoint, PortSite, TripPoint};
use pol_core::Inventory;
use pol_engine::Engine;
use pol_fleetsim::scenario::{generate, ScenarioConfig};
use pol_fleetsim::stream::interleave;
use pol_fleetsim::WORLD_PORTS;
use pol_geo::LatLon;
use pol_hexgrid::{cell_at, Resolution};
use pol_sketch::hash::FxHashMap;
use pol_stream::{
    checkpoint, recover, DeltaPublisher, JournaledEngine, StreamConfig, StreamEngine, WalConfig,
    WalReader, WalWriter, WindowSpec, CHECKPOINT_NAME,
};
use std::path::Path;

fn window_inventory(n: usize, salt: u64) -> Inventory {
    let res = Resolution::new(6).unwrap();
    let mut entries: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
    for i in 0..n {
        let k = i as u64 + salt * 500;
        let pos = LatLon::new(5.0 + (k % 60) as f64, (k % 120) as f64).unwrap();
        let cell = cell_at(pos, res);
        let cp = CellPoint {
            point: TripPoint {
                mmsi: Mmsi(200_000_000 + (k % 5) as u32),
                timestamp: k as i64,
                pos,
                sog_knots: Some(9.0),
                cog_deg: Some((k % 360) as f64),
                heading_deg: None,
                segment: MarketSegment::from_id((k % 6) as u8).unwrap(),
                trip_id: k % 2,
                origin: 0,
                dest: 1,
                eto_secs: 0,
                ata_secs: 0,
            },
            cell,
            next_cell: None,
        };
        entries
            .entry(GroupKey::Cell(cell))
            .or_insert_with(|| CellStats::new(0.02, 8))
            .observe(&cp);
    }
    Inventory::from_entries(res, entries, n as u64)
}

/// Asserts the chain at `path` is fully sound and at `generation` with
/// `chain_len` files, returning the merged inventory's canonical bytes.
fn assert_chain(path: &Path, generation: u64, chain_len: u64) -> Vec<u8> {
    let report = manifest::verify_chain(path).unwrap();
    assert_eq!(report.generation, generation);
    assert_eq!(report.files.len(), chain_len as usize);
    let (merged, info) = manifest::load_chain(path).unwrap();
    assert_eq!(info.generation, generation);
    assert_eq!(info.chain_len, chain_len);
    columnar::to_bytes(&merged)
}

fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn injected_snapshot_write_failure_keeps_old_chain_loadable() {
    let _chaos = exclusive();
    let dir = fresh_dir("pol-stream-chaos-write");
    let mut publisher = DeltaPublisher::create(&dir);
    publisher.publish(&window_inventory(40, 0)).unwrap();
    publisher.publish(&window_inventory(25, 1)).unwrap();
    let before = assert_chain(publisher.manifest_path(), 1, 2);

    // The snapshot write itself fails — before the manifest is touched.
    configure("codec.save.write", Trigger::OneShot(FaultAction::Err));
    let err = publisher.publish(&window_inventory(30, 2));
    assert!(err.is_err(), "injected snapshot write failure must surface");
    assert_eq!(stats("codec.save.write").fired, 1);
    remove("codec.save.write");

    // The old chain is untouched: same generation, same merged bytes.
    assert_eq!(publisher.chain_len(), 2);
    assert_eq!(assert_chain(publisher.manifest_path(), 1, 2), before);

    // Disarmed, the retry extends the chain normally.
    assert_eq!(publisher.publish(&window_inventory(30, 2)).unwrap(), 2);
    assert_chain(publisher.manifest_path(), 2, 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_manifest_failure_leaves_orphan_but_valid_old_chain() {
    let _chaos = exclusive();
    let dir = fresh_dir("pol-stream-chaos-manifest");
    let mut publisher = DeltaPublisher::create(&dir);
    publisher.publish(&window_inventory(40, 0)).unwrap();
    let before = assert_chain(publisher.manifest_path(), 0, 1);

    // Hit 1 is the snapshot file, hit 2 the manifest rewrite: the
    // worst case — a fully written new delta the commit never blessed.
    configure(
        "codec.save.write",
        Trigger::NthHit {
            n: 2,
            action: FaultAction::Err,
        },
    );
    assert!(publisher.publish(&window_inventory(25, 1)).is_err());
    assert_eq!(stats("codec.save.write").fired, 1);
    remove("codec.save.write");

    // The orphaned delta file exists but the manifest never names it:
    // the chain still loads exactly as before.
    assert_eq!(publisher.chain_len(), 1);
    assert_eq!(assert_chain(publisher.manifest_path(), 0, 1), before);

    // Recovery: the next publish reuses the generation slot and commits.
    assert_eq!(publisher.publish(&window_inventory(25, 1)).unwrap(), 1);
    assert_chain(publisher.manifest_path(), 1, 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_rename_failure_never_blesses_a_torn_manifest() {
    let _chaos = exclusive();
    let dir = fresh_dir("pol-stream-chaos-rename");
    let mut publisher = DeltaPublisher::create(&dir);
    publisher.publish(&window_inventory(40, 0)).unwrap();
    publisher.publish(&window_inventory(30, 1)).unwrap();
    let before = assert_chain(publisher.manifest_path(), 1, 2);

    // Fail the manifest's atomic rename — after its temp file is fully
    // written and fsynced.
    configure(
        "codec.save.rename",
        Trigger::NthHit {
            n: 2,
            action: FaultAction::Err,
        },
    );
    assert!(publisher.publish(&window_inventory(20, 2)).is_err());
    remove("codec.save.rename");

    assert_eq!(assert_chain(publisher.manifest_path(), 1, 2), before);
    // No temp debris anywhere in the publication directory.
    assert!(std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .all(|e| !e.file_name().to_string_lossy().contains(".tmp.")));
    std::fs::remove_dir_all(&dir).ok();
}

fn wire_report(mmsi: u32, ts: i64) -> PositionReport {
    PositionReport {
        mmsi: Mmsi(mmsi),
        timestamp: ts,
        pos: LatLon::new(12.0 + (ts % 60) as f64, -30.0 + (ts % 120) as f64).unwrap(),
        sog_knots: Some((ts % 30) as f64),
        cog_deg: Some((ts % 360) as f64),
        heading_deg: None,
        nav_status: NavStatus::UnderWayUsingEngine,
    }
}

#[test]
fn wal_append_write_fault_preserves_the_pending_frame() {
    let _chaos = exclusive();
    let dir = fresh_dir("pol-stream-chaos-wal-append");
    let cfg = WalConfig {
        batch_records: 8,
        group_commit_batches: 1,
        ..WalConfig::default()
    };
    let mut w = WalWriter::create(&dir, cfg).unwrap();
    for i in 0..7 {
        w.push(wire_report(200_000_001, i)).unwrap();
    }
    configure("wal.append.write", Trigger::OneShot(FaultAction::Err));
    assert!(
        w.push(wire_report(200_000_001, 7)).is_err(),
        "the eighth record completes a frame and hits the failpoint"
    );
    remove("wal.append.write");
    // The frame went back to the buffer: nothing silently dropped.
    assert_eq!(w.pending_records(), 8);
    w.flush().unwrap();
    drop(w);
    let load = WalReader::load(&dir).unwrap();
    assert_eq!(load.records(), 8, "the retried flush covers every record");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_sync_fault_surfaces_and_the_retry_makes_records_durable() {
    let _chaos = exclusive();
    let dir = fresh_dir("pol-stream-chaos-wal-sync");
    let cfg = WalConfig {
        batch_records: 4,
        group_commit_batches: 1,
        ..WalConfig::default()
    };
    let mut w = WalWriter::create(&dir, cfg).unwrap();
    for i in 0..3 {
        w.push(wire_report(200_000_001, i)).unwrap();
    }
    configure("wal.append.sync", Trigger::OneShot(FaultAction::Err));
    assert!(w.push(wire_report(200_000_001, 3)).is_err());
    remove("wal.append.sync");
    // The frame is appended; only the fsync failed. A retried flush
    // makes it durable without duplicating it.
    assert_eq!(w.pending_records(), 0);
    w.flush().unwrap();
    drop(w);
    let load = WalReader::load(&dir).unwrap();
    assert_eq!(load.records(), 4);
    assert_eq!(load.batches.len(), 1, "the frame must not be re-appended");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_seal_fault_poisons_rotation_but_recovery_heals_the_tail() {
    let _chaos = exclusive();
    let dir = fresh_dir("pol-stream-chaos-wal-seal");
    let cfg = WalConfig {
        batch_records: 4,
        group_commit_batches: 1,
        max_segment_bytes: 256, // rotate after a frame or two
    };
    let mut w = WalWriter::create(&dir, cfg).unwrap();
    configure("wal.seal", Trigger::OneShot(FaultAction::Err));
    let mut pushed = 0i64;
    let err = loop {
        match w.push(wire_report(200_000_001, pushed)) {
            Ok(()) => pushed += 1,
            Err(e) => break e,
        }
        assert!(
            pushed < 10_000,
            "rotation must eventually hit the failpoint"
        );
    };
    remove("wal.seal");
    assert!(format!("{err}").contains("journal segment"));
    // The writer is poisoned: later appends fail typed, never reorder.
    for i in 0..4 {
        let r = w.push(wire_report(200_000_001, pushed + i));
        if let Err(e) = r {
            assert!(format!("{e}").contains("poisoned"));
            break;
        }
    }
    drop(w);
    // The durable prefix still serves, and a resume continues appending
    // into the unsealed (never-rotated) tail.
    let load = WalReader::load(&dir).unwrap();
    let durable = load.records();
    assert!(durable > 0);
    let mut w = WalWriter::resume(&dir, cfg, &load).unwrap();
    for i in 0..8 {
        w.push(wire_report(200_000_001, 20_000 + i)).unwrap();
    }
    w.seal().unwrap();
    let load = WalReader::load(&dir).unwrap();
    assert_eq!(load.records(), durable + 8);
    assert_eq!(load.torn_bytes, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_save_fault_keeps_the_previous_checkpoint() {
    let _chaos = exclusive();
    let dir = fresh_dir("pol-stream-chaos-ckpt");
    let statics = vec![pol_ais::StaticReport {
        mmsi: Mmsi(200_000_001),
        imo: None,
        name: "TEST".to_string(),
        ship_type: pol_ais::types::ShipTypeCode(70),
        gross_tonnage: 30_000,
    }];
    let se = StreamEngine::new(&statics, &[], StreamConfig::default());
    let mut je = JournaledEngine::create(&dir, se, WalConfig::default(), 0).unwrap();
    for i in 0..50 {
        je.push(wire_report(200_000_001, i * 60)).unwrap();
    }
    je.checkpoint().unwrap();
    let first = checkpoint::load(&dir.join(CHECKPOINT_NAME))
        .unwrap()
        .unwrap();

    for i in 50..100 {
        je.push(wire_report(200_000_001, i * 60)).unwrap();
    }
    configure("codec.save.write", Trigger::OneShot(FaultAction::Err));
    assert!(je.checkpoint().is_err());
    remove("codec.save.write");
    // Atomic save discipline: the failed checkpoint never replaced the
    // durable one.
    let after = checkpoint::load(&dir.join(CHECKPOINT_NAME))
        .unwrap()
        .unwrap();
    assert_eq!(after, first, "previous checkpoint must survive the fault");

    // Disarmed, the retry supersedes it.
    je.checkpoint().unwrap();
    let healed = checkpoint::load(&dir.join(CHECKPOINT_NAME))
        .unwrap()
        .unwrap();
    assert!(healed.wal_seq > first.wal_seq);
    std::fs::remove_dir_all(&dir).ok();
}

/// One cargo vessel shuttling between two ports two degrees apart, a
/// report every ten minutes: its open passage grows for forty reports,
/// then moves into `retained` at the far port — a checkpoint mid-leg
/// has reports to append.
fn shuttle_engine() -> StreamEngine {
    StreamEngine::new(
        &shuttle_statics(),
        &shuttle_ports(),
        StreamConfig::default(),
    )
}

fn shuttle_statics() -> Vec<pol_ais::StaticReport> {
    vec![pol_ais::StaticReport {
        mmsi: Mmsi(200_000_001),
        imo: None,
        name: "SHUTTLE".to_string(),
        ship_type: pol_ais::types::ShipTypeCode(70),
        gross_tonnage: 30_000,
    }]
}

fn shuttle_ports() -> Vec<PortSite> {
    [10.0, 12.0]
        .into_iter()
        .enumerate()
        .map(|(id, lon)| PortSite {
            id: id as u16,
            name: format!("PORT {id}"),
            pos: LatLon::new(10.0, lon).unwrap(),
            radius_km: 12.0,
        })
        .collect()
}

fn shuttle_report(step: i64) -> PositionReport {
    let phase = step % 80;
    let out = if phase <= 40 { phase } else { 80 - phase };
    PositionReport {
        mmsi: Mmsi(200_000_001),
        timestamp: step * 600,
        pos: LatLon::new(10.0, 10.0 + out as f64 / 20.0).unwrap(),
        sog_knots: Some(18.0),
        cog_deg: None,
        heading_deg: None,
        nav_status: NavStatus::UnderWayUsingEngine,
    }
}

/// The checkpoint in `dir`, and what the engine says it should be.
fn loaded_and_expected(
    dir: &Path,
    je: &JournaledEngine,
) -> (checkpoint::EngineState, checkpoint::EngineState) {
    let loaded = checkpoint::load(&dir.join(CHECKPOINT_NAME))
        .unwrap()
        .unwrap();
    let mut want = je
        .engine()
        .snapshot_state(loaded.wal_seq, loaded.window_cuts);
    want.sessions.sort_by_key(|s| s.mmsi);
    (loaded, want)
}

fn checkpoint_log(dir: &Path) -> std::path::PathBuf {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "polckl"))
        .expect("a checkpoint log")
}

#[test]
fn checkpoint_append_fault_keeps_the_previous_checkpoint_and_a_retry_heals() {
    let _chaos = exclusive();
    let dir = fresh_dir("pol-stream-chaos-ckpt-append");
    let mut je = JournaledEngine::create(&dir, shuttle_engine(), WalConfig::default(), 0).unwrap();
    for step in 0..60 {
        je.push(shuttle_report(step)).unwrap();
    }
    je.checkpoint().unwrap();
    let (first, want) = loaded_and_expected(&dir, &je);
    assert_eq!(first, want);
    let committed = std::fs::metadata(checkpoint_log(&dir)).unwrap().len();

    for step in 60..75 {
        je.push(shuttle_report(step)).unwrap();
    }
    configure(
        "stream.checkpoint.append",
        Trigger::OneShot(FaultAction::Err),
    );
    assert!(je.checkpoint().is_err());
    assert_eq!(stats("stream.checkpoint.append").fired, 1);
    remove("stream.checkpoint.append");
    // The fault tore the append: there are bytes past the committed
    // length, and a load does not see them.
    assert!(std::fs::metadata(checkpoint_log(&dir)).unwrap().len() > committed);
    let after = checkpoint::load(&dir.join(CHECKPOINT_NAME))
        .unwrap()
        .unwrap();
    assert_eq!(after, first, "previous checkpoint must survive the fault");

    // Disarmed, the retry writes over the torn bytes and supersedes it.
    je.checkpoint().unwrap();
    let (healed, want) = loaded_and_expected(&dir, &je);
    assert_eq!(healed, want);
    assert!(healed.wal_seq > first.wal_seq);
    let stats = je.checkpoint_stats();
    assert_eq!(
        std::fs::metadata(checkpoint_log(&dir)).unwrap().len(),
        stats.live_bytes + stats.dead_bytes
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_kill_between_log_sync_and_head_rename_leaves_a_tail_recovery_truncates() {
    let _chaos = exclusive();
    let dir = fresh_dir("pol-stream-chaos-ckpt-orphan");
    let mut je = JournaledEngine::create(&dir, shuttle_engine(), WalConfig::default(), 0).unwrap();
    for step in 0..60 {
        je.push(shuttle_report(step)).unwrap();
    }
    je.checkpoint().unwrap();
    let (first, _) = loaded_and_expected(&dir, &je);
    let committed = std::fs::metadata(checkpoint_log(&dir)).unwrap().len();

    // The second checkpoint appends and fsyncs its frame, then dies at
    // the head's rename; the process goes with it.
    for step in 60..75 {
        je.push(shuttle_report(step)).unwrap();
    }
    configure("codec.save.rename", Trigger::OneShot(FaultAction::Err));
    assert!(je.checkpoint().is_err());
    remove("codec.save.rename");
    drop(je);
    assert!(std::fs::metadata(checkpoint_log(&dir)).unwrap().len() > committed);
    let orphaned = checkpoint::load(&dir.join(CHECKPOINT_NAME))
        .unwrap()
        .unwrap();
    assert_eq!(orphaned, first, "the tail is no part of the checkpoint");

    // Recovery replays the journal past the first checkpoint, cuts the
    // tail off and appends its own checkpoint where the tail was.
    let (je, report) = StreamEngine::recover(
        &dir,
        &Engine::new(1),
        &shuttle_statics(),
        &shuttle_ports(),
        StreamConfig::default(),
    )
    .unwrap();
    assert!(report.checkpoint_found);
    assert_eq!(report.records_replayed, 15);
    let (recovered, want) = loaded_and_expected(&dir, &je);
    assert_eq!(recovered, want);
    let stats = je.checkpoint_stats();
    assert_eq!(
        std::fs::metadata(checkpoint_log(&dir)).unwrap().len(),
        stats.live_bytes + stats.dead_bytes,
        "no byte of the orphan tail is left"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_compaction_that_dies_before_its_head_leaves_a_log_recovery_sweeps() {
    let _chaos = exclusive();
    let dir = fresh_dir("pol-stream-chaos-ckpt-compact");
    let logs = |dir: &Path| {
        std::fs::read_dir(dir)
            .unwrap()
            .filter(|e| {
                let path = e.as_ref().unwrap().path();
                path.extension().is_some_and(|x| x == "polckl")
            })
            .count()
    };
    let mut je = JournaledEngine::create(&dir, shuttle_engine(), WalConfig::default(), 0).unwrap();
    for step in 0..60 {
        je.push(shuttle_report(step)).unwrap();
    }
    je.checkpoint().unwrap();
    let (first, _) = loaded_and_expected(&dir, &je);

    // Back at the first port the logged half of the passage is dead,
    // far more than an eighth of what is live: this checkpoint rewrites.
    for step in 60..100 {
        je.push(shuttle_report(step)).unwrap();
    }
    configure(
        "stream.checkpoint.compact",
        Trigger::OneShot(FaultAction::Err),
    );
    assert!(je.checkpoint().is_err(), "the rewrite fails before a byte");
    assert_eq!(stats("stream.checkpoint.compact").fired, 1);
    remove("stream.checkpoint.compact");
    assert_eq!(logs(&dir), 1);

    // Again, dying later: hit 1 is the new log's save, hit 2 the head's.
    configure(
        "codec.save.write",
        Trigger::NthHit {
            n: 2,
            action: FaultAction::Err,
        },
    );
    assert!(je.checkpoint().is_err());
    remove("codec.save.write");
    assert_eq!(logs(&dir), 2, "a complete log no head names");
    let after = checkpoint::load(&dir.join(CHECKPOINT_NAME))
        .unwrap()
        .unwrap();
    assert_eq!(after, first, "the head still names the old log");
    assert_eq!(je.checkpoint_stats().compactions, 0);
    drop(je);

    let (mut je, report) = StreamEngine::recover(
        &dir,
        &Engine::new(1),
        &shuttle_statics(),
        &shuttle_ports(),
        StreamConfig::default(),
    )
    .unwrap();
    assert_eq!(report.records_replayed, 40);
    assert_eq!(logs(&dir), 1, "the unnamed log is swept");
    let (recovered, want) = loaded_and_expected(&dir, &je);
    assert_eq!(recovered, want);

    // The recovered engine goes on checkpointing, rewrites included.
    for step in 100..260 {
        je.push(shuttle_report(step)).unwrap();
        if step % 20 == 0 {
            je.checkpoint().unwrap();
        }
    }
    je.checkpoint().unwrap();
    assert!(je.checkpoint_stats().compactions > 0);
    assert_eq!(logs(&dir), 1);
    let (last, want) = loaded_and_expected(&dir, &je);
    assert_eq!(last, want);
    std::fs::remove_dir_all(&dir).ok();
}

/// The full sweep: crash the journaled pipeline at every WAL and
/// checkpoint/publish failpoint, recover in place, resume the wire,
/// and demand byte-identity with an uninterrupted run — inventory,
/// counters, and every chain file.
#[test]
fn crash_at_every_failpoint_reconverges_byte_identically() {
    let _chaos = exclusive();
    let scenario = ScenarioConfig::tiny();
    let ds = generate(&scenario);
    let pipeline = pol_core::PipelineConfig::default();
    let ports: Vec<PortSite> = WORLD_PORTS
        .iter()
        .enumerate()
        .map(|(i, p)| PortSite {
            id: i as u16,
            name: p.name.to_string(),
            pos: p.pos(),
            radius_km: pipeline.port_radius_km,
        })
        .collect();
    let wire: Vec<PositionReport> = interleave(ds.positions).collect();
    let spec = WindowSpec {
        start_ts: ds.config.start,
        window_secs: 2 * 86_400,
    };
    let wal_cfg = WalConfig {
        batch_records: 64,
        group_commit_batches: 4,
        max_segment_bytes: 64 << 10,
    };
    let engine = Engine::new(2);

    // Uninterrupted oracle with the identical cut schedule.
    let oracle_dir = fresh_dir("pol-stream-chaos-sweep-oracle");
    let (oracle_bytes, oracle_counters) = {
        let se = StreamEngine::new(&ds.statics, &ports, StreamConfig::default());
        let mut je = JournaledEngine::create(&oracle_dir, se, wal_cfg, 400).unwrap();
        let mut publisher = DeltaPublisher::create(&oracle_dir);
        for &r in &wire {
            je.push(r).unwrap();
            while je.watermark() >= spec.cut_at(je.window_cuts()) {
                let gen = je.window_cuts();
                let delta = je.take_window_delta(&engine).unwrap();
                publisher.publish_at(gen, &delta).unwrap();
            }
        }
        let out = je.close(&engine).unwrap();
        (columnar::to_bytes(&out.inventory), out.counters)
    };
    let oracle_chain: Vec<(String, Vec<u8>)> =
        manifest::load(&oracle_dir.join(pol_stream::MANIFEST_NAME))
            .unwrap()
            .entries
            .iter()
            .map(|e| {
                (
                    e.name.clone(),
                    std::fs::read(oracle_dir.join(&e.name)).unwrap(),
                )
            })
            .collect();

    let failpoints: &[(&str, u64)] = &[
        ("wal.append.write", 1),
        ("wal.append.write", 9),
        ("wal.append.sync", 1),
        ("wal.append.sync", 3),
        ("wal.seal", 1),
        ("codec.save.write", 1),
        ("codec.save.write", 4),
        ("codec.save.rename", 1),
        ("codec.save.rename", 3),
        // The rewrite this feed reaches is its first checkpoint (no log
        // yet); every later checkpoint appends. A compaction proper dies
        // in `a_compaction_that_dies_before_its_head_...` above.
        ("stream.checkpoint.compact", 1),
        ("stream.checkpoint.append", 1),
        ("stream.checkpoint.append", 5),
    ];
    for &(name, n) in failpoints {
        let dir = fresh_dir(&format!(
            "pol-stream-chaos-sweep-{}-{n}",
            name.replace('.', "-")
        ));
        configure(
            name,
            Trigger::NthHit {
                n,
                action: FaultAction::Err,
            },
        );
        // Drive until the injected fault kills the run (or the wire
        // ends first — also a valid sweep point).
        {
            let se = StreamEngine::new(&ds.statics, &ports, StreamConfig::default());
            let mut je = JournaledEngine::create(&dir, se, wal_cfg, 400).unwrap();
            let mut publisher = DeltaPublisher::create(&dir);
            'wire: for &r in &wire {
                if je.push(r).is_err() {
                    break 'wire;
                }
                while je.watermark() >= spec.cut_at(je.window_cuts()) {
                    let gen = je.window_cuts();
                    let delta = match je.take_window_delta(&engine) {
                        Ok(d) => d,
                        Err(_) => break 'wire,
                    };
                    if publisher.publish_at(gen, &delta).is_err() {
                        break 'wire;
                    }
                }
            }
        }
        remove(name);

        let (mut publisher, _) = DeltaPublisher::open(&dir).unwrap();
        let (mut je, _report) = recover(
            &dir,
            &engine,
            &ds.statics,
            &ports,
            StreamConfig::default(),
            wal_cfg,
            400,
            Some((&mut publisher, spec)),
        )
        .unwrap();
        let resume_at = usize::try_from(je.counters().ingested).unwrap();
        for &r in &wire[resume_at..] {
            je.push(r).unwrap();
            while je.watermark() >= spec.cut_at(je.window_cuts()) {
                let gen = je.window_cuts();
                let delta = je.take_window_delta(&engine).unwrap();
                publisher.publish_at(gen, &delta).unwrap();
            }
        }
        let out = je.close(&engine).unwrap();
        assert_eq!(
            columnar::to_bytes(&out.inventory),
            oracle_bytes,
            "{name} hit {n}: inventory must reconverge byte-identically"
        );
        assert_eq!(
            out.counters, oracle_counters,
            "{name} hit {n}: exactly-once counter accounting"
        );
        let chain: Vec<(String, Vec<u8>)> = manifest::load(&dir.join(pol_stream::MANIFEST_NAME))
            .unwrap()
            .entries
            .iter()
            .map(|e| (e.name.clone(), std::fs::read(dir.join(&e.name)).unwrap()))
            .collect();
        assert_eq!(
            chain, oracle_chain,
            "{name} hit {n}: the published chain must match file for file"
        );
        let verify = manifest::verify_chain(&dir.join(pol_stream::MANIFEST_NAME)).unwrap();
        for (gen, file) in verify.files.iter().enumerate() {
            assert_eq!(file.generation, gen as u64);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&oracle_dir).ok();
}
