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

// The journal's file I/O runs on the writer's own thread, so a fault
// there is not the failing call's: it surfaces on the next push (before
// that record is buffered) or the next barrier, whichever comes first.

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
    configure("wal.append.write", Trigger::OneShot(FaultAction::Err));
    for i in 0..8 {
        w.push(wire_report(200_000_001, i)).unwrap();
    }
    // The eighth record completed a frame, and the I/O thread's append
    // of it hit the failpoint. One frame buffer (`group_commit_batches`
    // is 1): the next push needs it back, so it is the call that learns.
    assert!(w.push(wire_report(200_000_001, 8)).is_err());
    assert_eq!(stats("wal.append.write").fired, 1);
    remove("wal.append.write");
    assert_eq!(
        w.pending_records(),
        0,
        "the refused record was not buffered"
    );
    // The torn half is in the file and the frame is kept on the thread:
    // nothing silently dropped, and the flush's retry cuts the fragment.
    w.flush().unwrap();

    // Again with the barrier first. It is told of the fault even though
    // its own retry of the frame succeeds; the next one has nothing left
    // to report.
    configure("wal.append.write", Trigger::OneShot(FaultAction::Err));
    for i in 8..16 {
        w.push(wire_report(200_000_001, i)).unwrap();
    }
    assert!(w.flush().is_err());
    remove("wal.append.write");
    w.flush().unwrap();
    drop(w);
    let load = WalReader::load(&dir).unwrap();
    assert_eq!(load.records(), 16, "the retried flushes cover every record");
    assert_eq!(load.batches.len(), 2, "and append each frame once");
    assert_eq!(load.torn_bytes, 0);
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
    configure("wal.append.sync", Trigger::OneShot(FaultAction::Err));
    for i in 0..4 {
        w.push(wire_report(200_000_001, i)).unwrap();
    }
    // The frame is appended (its buffer may already be back, so a push
    // could still be accepted); only the group commit's fsync failed,
    // and the barrier says so.
    assert!(w.flush().is_err());
    assert_eq!(stats("wal.append.sync").fired, 1);
    remove("wal.append.sync");
    assert_eq!(w.pending_records(), 0);
    // A retried flush makes it durable without duplicating it.
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
    // The writer is poisoned: the frame that wanted the rotation is held
    // with the only buffer, so pushes fail typed instead of waiting for
    // it, and every barrier says why — never a reordered append.
    for i in 0..4 {
        assert!(w.push(wire_report(200_000_001, pushed + i)).is_err());
    }
    for _ in 0..2 {
        let e = w.flush().unwrap_err();
        assert!(format!("{e}").contains("poisoned"), "{e}");
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
fn a_killed_io_thread_is_a_typed_error_on_every_call_and_recovery_heals() {
    let _chaos = exclusive();
    let dir = fresh_dir("pol-stream-chaos-wal-kill");
    let cfg = WalConfig {
        batch_records: 4,
        group_commit_batches: 2,
        ..WalConfig::default()
    };
    let mut w = WalWriter::create(&dir, cfg).unwrap();
    for i in 0..8 {
        w.push(wire_report(200_000_001, i)).unwrap();
    }
    w.flush().unwrap();
    configure("wal.append.write", Trigger::OneShot(FaultAction::Kill));
    let mut refused = 0;
    for i in 8..40 {
        if let Err(e) = w.push(wire_report(200_000_001, i)) {
            assert!(format!("{e}").contains("I/O thread is gone"), "{e}");
            refused += 1;
        }
    }
    assert!(refused > 0, "a push must notice within the buffers it has");
    let e = w.flush().unwrap_err();
    assert!(format!("{e}").contains("I/O thread is gone"), "{e}");
    assert!(w.seal().is_err());
    remove("wal.append.write");
    let load = WalReader::load(&dir).unwrap();
    assert_eq!(
        load.records(),
        8,
        "what the barrier covered is all there is"
    );
    let mut w = WalWriter::resume(&dir, cfg, &load).unwrap();
    w.push(wire_report(200_000_001, 8)).unwrap();
    w.seal().unwrap();
    assert_eq!(WalReader::load(&dir).unwrap().records(), 9);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_slow_disk_blocks_the_caller_at_the_configured_frames_and_no_buffer_more() {
    let _chaos = exclusive();
    let dir = fresh_dir("pol-stream-chaos-wal-backpressure");
    let cfg = WalConfig {
        batch_records: 4,
        ..WalConfig::default()
    };
    let frames = cfg.group_commit_batches as usize;
    let delay = std::time::Duration::from_millis(15);
    let mut w = WalWriter::create(&dir, cfg).unwrap();
    configure(
        "wal.append.sync",
        Trigger::Always(FaultAction::Delay(delay)),
    );
    let groups = 6;
    let started = std::time::Instant::now();
    for i in 0..(groups * frames * cfg.batch_records) as i64 {
        w.push(wire_report(200_000_001, i)).unwrap();
        assert!(w.frame_buffers() <= frames, "never a ninth buffer");
    }
    // While one group is being synced the caller can fill one more and
    // no further: the feed cannot finish before all but the last two
    // groups' fsyncs have.
    assert!(started.elapsed() >= delay * (groups as u32 - 2));
    assert_eq!(
        w.frame_buffers(),
        frames,
        "the disk fell a whole pool behind"
    );
    w.flush().unwrap();
    remove("wal.append.sync");
    drop(w);
    let load = WalReader::load(&dir).unwrap();
    assert_eq!(load.records(), (groups * frames * cfg.batch_records) as u64);
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
fn a_journal_flush_that_fails_under_a_checkpoint_orphans_its_frame_and_a_retry_heals() {
    let _chaos = exclusive();
    let dir = fresh_dir("pol-stream-chaos-ckpt-overlap");
    let mut je = JournaledEngine::create(&dir, shuttle_engine(), WalConfig::default(), 0).unwrap();
    for step in 0..60 {
        je.push(shuttle_report(step)).unwrap();
    }
    je.checkpoint().unwrap();
    let (first, _) = loaded_and_expected(&dir, &je);
    let committed = std::fs::metadata(checkpoint_log(&dir)).unwrap().len();

    // The checkpoint's log frame is appended and fsynced while the
    // journal's own fsync is in flight; that fsync fails. The frame is
    // whole and on disk, and no head names it.
    for step in 60..75 {
        je.push(shuttle_report(step)).unwrap();
    }
    configure("wal.append.sync", Trigger::OneShot(FaultAction::Err));
    assert!(je.checkpoint().is_err());
    assert_eq!(stats("wal.append.sync").fired, 1);
    remove("wal.append.sync");
    assert!(std::fs::metadata(checkpoint_log(&dir)).unwrap().len() > committed);
    let after = checkpoint::load(&dir.join(CHECKPOINT_NAME))
        .unwrap()
        .unwrap();
    assert_eq!(
        after, first,
        "a head never names a wal_seq that is not durable"
    );

    // The retry cuts the orphan frame off, appends its own and commits.
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
fn a_cut_whose_flush_fails_keeps_its_delta_for_the_retry_and_refuses_checkpoints() {
    let _chaos = exclusive();
    let engine = Engine::new(1);
    let feed = |je: &mut JournaledEngine| {
        for step in 0..130 {
            je.push(shuttle_report(step)).unwrap();
        }
    };
    let calm_dir = fresh_dir("pol-stream-chaos-cut-calm");
    let mut calm =
        JournaledEngine::create(&calm_dir, shuttle_engine(), WalConfig::default(), 0).unwrap();
    feed(&mut calm);
    let want = calm.take_window_delta(&engine).unwrap();
    assert!(want.total_records() > 0, "the window must hold points");

    let dir = fresh_dir("pol-stream-chaos-cut-fault");
    let mut je = JournaledEngine::create(&dir, shuttle_engine(), WalConfig::default(), 0).unwrap();
    feed(&mut je);
    configure("wal.append.sync", Trigger::OneShot(FaultAction::Err));
    assert!(je.take_window_delta(&engine).is_err());
    remove("wal.append.sync");
    assert_eq!(je.window_cuts(), 0, "nothing was handed out");
    // The window is folded out of the engine and not yet cut: a
    // checkpoint now would lose it.
    let refused = je.checkpoint().unwrap_err();
    assert!(format!("{refused}").contains("awaits its cut"), "{refused}");
    let got = je.take_window_delta(&engine).unwrap();
    assert_eq!(columnar::to_bytes(&got), columnar::to_bytes(&want));
    assert_eq!(je.window_cuts(), 1);
    je.checkpoint().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&calm_dir).ok();
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

/// The stateful model behind the two proptests below: what was pushed
/// and accepted, how much of it a barrier has acknowledged, and the two
/// laws checked against the directory at every crash — an acknowledged
/// barrier's records load, and what loads is a prefix of what was
/// pushed.
mod model {
    use super::*;

    /// The journal tunables of the models: small frames, a pool of two,
    /// a rotation every few frames.
    pub(super) fn cfg() -> WalConfig {
        WalConfig {
            batch_records: 4,
            group_commit_batches: 2,
            max_segment_bytes: 600,
        }
    }

    /// A fault to arm: which failpoint, what it does, at which hit.
    pub(super) fn arm((which, hit): (u8, u64)) -> &'static str {
        let (point, action) = match which % 6 {
            0 => ("wal.append.write", FaultAction::Err),
            1 => ("wal.append.sync", FaultAction::Err),
            2 => ("wal.seal", FaultAction::Err),
            3 => ("wal.append.write", FaultAction::Kill),
            4 => ("wal.append.sync", FaultAction::Kill),
            _ => ("wal.seal", FaultAction::Kill),
        };
        configure(point, Trigger::NthHit { n: hit, action });
        point
    }

    #[derive(Default)]
    pub(super) struct Model {
        pub(super) pushed: Vec<PositionReport>,
        pub(super) acked: usize,
    }

    impl Model {
        /// The next record of the feed, counted only if `push` took it.
        pub(super) fn push(&mut self, push: impl FnOnce(PositionReport) -> bool) {
            let r = shuttle_report(self.pushed.len() as i64);
            if push(r) {
                self.pushed.push(r);
            }
        }

        /// A barrier that returned `Ok` covers everything pushed so far.
        pub(super) fn barrier(&mut self, ok: bool) {
            if ok {
                self.acked = self.pushed.len();
            }
        }

        /// After a crash: checks the two laws against `dir`, and forgets
        /// what the crash lost. Returns the load for a resume.
        pub(super) fn crashed(&mut self, dir: &Path) -> Result<pol_stream::WalLoad, String> {
            let load = WalReader::load(dir).map_err(|e| format!("load after crash: {e}"))?;
            let on_disk: Vec<PositionReport> = load
                .batches
                .iter()
                .flat_map(|b| b.records.iter().copied())
                .collect();
            if on_disk.len() < self.acked {
                return Err(format!(
                    "a barrier acknowledged {} records and {} load",
                    self.acked,
                    on_disk.len()
                ));
            }
            if self.pushed.get(..on_disk.len()) != Some(&on_disk[..]) {
                return Err(format!(
                    "{} records load and are no prefix of the {} pushed",
                    on_disk.len(),
                    self.pushed.len()
                ));
            }
            self.pushed.truncate(on_disk.len());
            Ok(load)
        }
    }

    /// Runs `body` on a thread of its own and fails if it is not done in
    /// a minute: a hang is a failure, not a stuck test run.
    pub(super) fn within_a_minute(
        body: impl FnOnce() -> Result<(), String> + Send + 'static,
    ) -> Result<(), String> {
        let (done, result) = std::sync::mpsc::channel();
        std::thread::spawn(move || done.send(body()));
        result
            .recv_timeout(std::time::Duration::from_secs(60))
            .unwrap_or_else(|_| Err("a call blocked for a minute (or panicked)".to_string()))
    }
}

mod stateful {
    use super::model::{self, Model};
    use super::*;
    use proptest::prelude::*;

    /// `push` / `flush` / drop-and-resume on the writer alone.
    fn writer_run(ops: Vec<(u8, usize)>, faults: Vec<(u8, u64)>) -> Result<(), String> {
        let dir = fresh_dir("pol-stream-chaos-model-writer");
        let cfg = model::cfg();
        let mut faults = faults.into_iter();
        let mut armed = faults.next().map(model::arm);
        let mut m = Model::default();
        let mut w = Some(WalWriter::create(&dir, cfg).map_err(|e| e.to_string())?);
        for (kind, n) in ops.into_iter().chain([(9, 0)]) {
            let Some(writer) = w.as_mut() else { break };
            match kind % 10 {
                0..=5 => (0..=n).for_each(|_| m.push(|r| writer.push(r).is_ok())),
                6..=8 => m.barrier(writer.flush().is_ok()),
                _ => {
                    drop(w.take());
                    if let Some(point) = armed.take() {
                        remove(point);
                    }
                    let load = m.crashed(&dir)?;
                    m.acked = m.acked.min(m.pushed.len());
                    let resumed = WalWriter::resume(&dir, cfg, &load).map_err(|e| e.to_string())?;
                    if resumed.next_seq() != load.next_seq {
                        return Err("the resumed writer disagrees with the load".to_string());
                    }
                    w = Some(resumed);
                    armed = faults.next().map(model::arm);
                }
            }
        }
        if let Some(point) = armed {
            remove(point);
        }
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    /// `push` / `checkpoint` / `take_window_delta` / drop-and-`recover`
    /// on the journaled engine.
    fn engine_run(ops: Vec<(u8, usize)>, faults: Vec<(u8, u64)>) -> Result<(), String> {
        let dir = fresh_dir("pol-stream-chaos-model-engine");
        let cfg = model::cfg();
        let engine = Engine::new(1);
        let mut faults = faults.into_iter();
        let mut armed = faults.next().map(model::arm);
        let mut m = Model::default();
        let mut je = Some(
            JournaledEngine::create(&dir, shuttle_engine(), cfg, 0).map_err(|e| e.to_string())?,
        );
        for (kind, n) in ops.into_iter().chain([(9, 0)]) {
            let Some(j) = je.as_mut() else { break };
            match kind % 10 {
                0..=5 => (0..=n).for_each(|_| m.push(|r| j.push(r).is_ok())),
                6 | 7 => m.barrier(j.checkpoint().is_ok()),
                8 => m.barrier(j.take_window_delta(&engine).is_ok()),
                _ => {
                    drop(je.take());
                    if let Some(point) = armed.take() {
                        remove(point);
                    }
                    m.crashed(&dir)?;
                    let (recovered, _) = recover(
                        &dir,
                        &engine,
                        &shuttle_statics(),
                        &shuttle_ports(),
                        StreamConfig::default(),
                        cfg,
                        0,
                        None,
                    )
                    .map_err(|e| format!("recover: {e}"))?;
                    if recovered.counters().ingested != m.pushed.len() as u64 {
                        return Err(format!(
                            "recovery ingested {} of the {} records that load",
                            recovered.counters().ingested,
                            m.pushed.len()
                        ));
                    }
                    // Recovery ends in a checkpoint: a barrier.
                    m.barrier(true);
                    je = Some(recovered);
                    armed = faults.next().map(model::arm);
                }
            }
        }
        if let Some(point) = armed {
            remove(point);
        }
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn an_acknowledged_barrier_loads_and_what_loads_is_a_prefix_writer(
            ops in prop::collection::vec((0u8..10, 0usize..12), 1..30),
            faults in prop::collection::vec((0u8..6, 1u64..25), 0..4),
        ) {
            let _chaos = exclusive();
            let outcome = model::within_a_minute(move || writer_run(ops, faults));
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }

        #[test]
        fn an_acknowledged_barrier_loads_and_what_loads_is_a_prefix_engine(
            ops in prop::collection::vec((0u8..10, 0usize..12), 1..30),
            faults in prop::collection::vec((0u8..6, 1u64..25), 0..4),
        ) {
            let _chaos = exclusive();
            let outcome = model::within_a_minute(move || engine_run(ops, faults));
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }
}
