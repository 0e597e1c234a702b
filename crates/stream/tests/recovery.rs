//! The recovery gate: a kill/restart at *any* point of the streamed
//! run must reconverge exactly.
//!
//! The sweep simulates a crash after every stride of wire records —
//! the journaled engine is abandoned mid-run (no seal, no close,
//! pending group-commit frames lost, exactly what an `abort()` leaves
//! on a healthy filesystem) — then recovers, resumes the wire where
//! the durable journal ends, and closes. The gate:
//!
//! * the recovered-then-closed inventory is **byte-identical** to an
//!   uninterrupted streamed run *and* to the batch build;
//! * the published delta chain holds contiguous generations whose
//!   files are byte-identical to the uninterrupted run's chain — no
//!   duplicated, skipped, or diverging generation;
//! * ingestion counters match the uninterrupted run exactly
//!   (exactly-once accounting).
//!
//! Alongside the sweep: checkpoint-cadence permutations (replay from a
//! checkpoint equals full replay equals no checkpoint at all), torn
//! journal tails, and planted chain orphans.

use pol_ais::PositionReport;
use pol_core::codec::{columnar, manifest, wal};
use pol_core::records::PortSite;
use pol_core::{run_fused, PipelineConfig};
use pol_engine::Engine;
use pol_fleetsim::scenario::{generate, ScenarioConfig};
use pol_fleetsim::stream::interleave;
use pol_fleetsim::WORLD_PORTS;
use pol_stream::{
    recover, DeltaPublisher, IngestCounters, JournaledEngine, StreamConfig, StreamEngine,
    WalConfig, WindowSpec, CHECKPOINT_NAME,
};
use std::path::{Path, PathBuf};

mod common;
use common::{segment_seqs, shuttle_engine, shuttle_ports, shuttle_report, shuttle_statics};

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

struct Fixture {
    wire: Vec<PositionReport>,
    statics: Vec<pol_ais::StaticReport>,
    ports: Vec<PortSite>,
    spec: WindowSpec,
    /// Batch-oracle inventory bytes over the same records.
    batch_bytes: Vec<u8>,
}

fn fixture() -> Fixture {
    let scenario = ScenarioConfig::tiny();
    let ds = generate(&scenario);
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
    Fixture {
        wire: interleave(ds.positions).collect(),
        statics: ds.statics,
        ports,
        spec: WindowSpec {
            start_ts: ds.config.start,
            window_secs: 2 * 86_400,
        },
        batch_bytes: columnar::to_bytes(&batch.inventory),
    }
}

/// Small journal tunables so even the tiny scenario exercises group
/// commit boundaries and segment rotation.
fn wal_cfg() -> WalConfig {
    WalConfig {
        batch_records: 64,
        group_commit_batches: 4,
        max_segment_bytes: 64 << 10,
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One driver step, shared by every run in this suite: push, then cut
/// every window the watermark allows, publishing exactly-once by
/// generation.
fn step(
    je: &mut JournaledEngine,
    publisher: &mut DeltaPublisher,
    spec: &WindowSpec,
    engine: &Engine,
    r: PositionReport,
) {
    je.push(r).unwrap();
    while je.watermark() >= spec.cut_at(je.window_cuts()) {
        let gen = je.window_cuts();
        let delta = je.take_window_delta(engine).unwrap();
        publisher.publish_at(gen, &delta).unwrap();
    }
}

struct RunResult {
    inventory_bytes: Vec<u8>,
    counters: IngestCounters,
    /// `(file name, file bytes)` for every chain link, in generation
    /// order.
    chain_files: Vec<(String, Vec<u8>)>,
}

fn chain_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let man = match manifest::load(&dir.join(pol_stream::MANIFEST_NAME)) {
        Ok(m) => m,
        Err(_) => return Vec::new(),
    };
    man.entries
        .iter()
        .map(|e| (e.name.clone(), std::fs::read(dir.join(&e.name)).unwrap()))
        .collect()
}

/// The uninterrupted oracle: the full wire through one journaled
/// engine, windows cut on schedule, clean close.
fn uninterrupted(fx: &Fixture, dir: &Path, checkpoint_every: u64) -> RunResult {
    let engine = Engine::new(2);
    let se = StreamEngine::new(&fx.statics, &fx.ports, StreamConfig::default());
    let mut je = JournaledEngine::create(dir, se, wal_cfg(), checkpoint_every).unwrap();
    let mut publisher = DeltaPublisher::create(dir);
    for &r in &fx.wire {
        step(&mut je, &mut publisher, &fx.spec, &engine, r);
    }
    let out = je.close(&engine).unwrap();
    RunResult {
        inventory_bytes: columnar::to_bytes(&out.inventory),
        counters: out.counters,
        chain_files: chain_files(dir),
    }
}

/// Feeds `kill_at` wire records and abandons the run (simulated kill),
/// then recovers in place, resumes the wire at the durable ingested
/// count, and closes cleanly.
fn crash_and_recover(fx: &Fixture, dir: &Path, kill_at: usize, checkpoint_every: u64) -> RunResult {
    let engine = Engine::new(2);
    {
        let se = StreamEngine::new(&fx.statics, &fx.ports, StreamConfig::default());
        let mut je = JournaledEngine::create(dir, se, wal_cfg(), checkpoint_every).unwrap();
        let mut publisher = DeltaPublisher::create(dir);
        for &r in &fx.wire[..kill_at] {
            step(&mut je, &mut publisher, &fx.spec, &engine, r);
        }
        // Kill: drop without seal or close. Pending records that never
        // reached a durable batch die with the process.
    }

    let (mut publisher, _swept) = DeltaPublisher::open(dir).unwrap();
    let (mut je, report) = recover(
        dir,
        &engine,
        &fx.statics,
        &fx.ports,
        StreamConfig::default(),
        wal_cfg(),
        checkpoint_every,
        Some((&mut publisher, fx.spec)),
    )
    .unwrap();

    // The journal's durable prefix is exactly what the engine counted:
    // the wire resumes at that index with no duplicate and no gap.
    let resume_at = usize::try_from(je.counters().ingested).unwrap();
    assert!(
        resume_at <= kill_at,
        "recovery cannot know records the crash never durably journaled"
    );
    if report.checkpoint_found {
        assert!(
            report.records_replayed <= checkpoint_every.max(1) + 8 * 64,
            "replay past a checkpoint is bounded by cadence plus the group-commit window"
        );
    }
    for &r in &fx.wire[resume_at..] {
        step(&mut je, &mut publisher, &fx.spec, &engine, r);
    }
    let out = je.close(&engine).unwrap();
    RunResult {
        inventory_bytes: columnar::to_bytes(&out.inventory),
        counters: out.counters,
        chain_files: chain_files(dir),
    }
}

fn assert_converged(oracle: &RunResult, recovered: &RunResult, label: &str) {
    assert_eq!(
        recovered.inventory_bytes, oracle.inventory_bytes,
        "{label}: recovered-then-closed inventory must be byte-identical"
    );
    assert_eq!(
        recovered.counters, oracle.counters,
        "{label}: counters must match the uninterrupted run exactly"
    );
    assert_eq!(
        recovered.chain_files.len(),
        oracle.chain_files.len(),
        "{label}: chain length must match (no duplicate or skipped generation)"
    );
    for ((got_name, got), (want_name, want)) in
        recovered.chain_files.iter().zip(&oracle.chain_files)
    {
        assert_eq!(
            got_name, want_name,
            "{label}: chain file names must line up"
        );
        assert_eq!(
            got, want,
            "{label}: chain file {got_name} must be byte-identical"
        );
    }
}

#[test]
fn crash_point_sweep_reconverges_byte_identically() {
    let fx = fixture();
    let oracle_dir = fresh_dir("pol-recovery-oracle");
    let oracle = uninterrupted(&fx, &oracle_dir, 500);
    assert_eq!(oracle.counters.late_dropped, 0);
    assert_eq!(
        oracle.inventory_bytes, fx.batch_bytes,
        "journaling must not perturb the streamed-equals-batch identity"
    );
    assert!(
        oracle.chain_files.len() >= 2,
        "scenario must span several delta windows"
    );
    let report = manifest::verify_chain(&oracle_dir.join(pol_stream::MANIFEST_NAME)).unwrap();
    assert_eq!(report.files.len(), oracle.chain_files.len());

    // Kill points across the whole wire, plus the edges: before any
    // record, one record in, mid-wire around checkpoint/cut boundaries,
    // and after the final record (crash before the clean close).
    let n = fx.wire.len();
    let mut kill_points = vec![0, 1, n / 7, n / 3, n / 2, 2 * n / 3, n - 1, n];
    kill_points.dedup();
    for kill_at in kill_points {
        let dir = fresh_dir(&format!("pol-recovery-sweep-{kill_at}"));
        let recovered = crash_and_recover(&fx, &dir, kill_at, 500);
        assert_converged(&oracle, &recovered, &format!("kill at {kill_at}/{n}"));
        let verify = manifest::verify_chain(&dir.join(pol_stream::MANIFEST_NAME)).unwrap();
        for (gen, file) in verify.files.iter().enumerate() {
            assert_eq!(
                file.generation, gen as u64,
                "generations must be contiguous from 0"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&oracle_dir).ok();
}

#[test]
fn checkpoint_cadence_never_changes_the_answer() {
    let fx = fixture();
    let oracle_dir = fresh_dir("pol-recovery-cadence-oracle");
    let oracle = uninterrupted(&fx, &oracle_dir, 0);
    let kill_at = fx.wire.len() / 2;
    // 0 = no checkpoints (full replay); the others replay checkpoint +
    // suffix. Every cadence must agree with every other byte for byte.
    for cadence in [0u64, 128, 701, 5_000] {
        let dir = fresh_dir(&format!("pol-recovery-cadence-{cadence}"));
        let recovered = crash_and_recover(&fx, &dir, kill_at, cadence);
        assert_converged(&oracle, &recovered, &format!("cadence {cadence}"));
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&oracle_dir).ok();
}

#[test]
fn torn_journal_tail_is_discarded_and_replayed_from_the_wire() {
    let fx = fixture();
    let oracle_dir = fresh_dir("pol-recovery-torn-oracle");
    let oracle = uninterrupted(&fx, &oracle_dir, 300);

    let dir = fresh_dir("pol-recovery-torn");
    let engine = Engine::new(2);
    {
        let se = StreamEngine::new(&fx.statics, &fx.ports, StreamConfig::default());
        let mut je = JournaledEngine::create(&dir, se, wal_cfg(), 300).unwrap();
        let mut publisher = DeltaPublisher::create(&dir);
        for &r in &fx.wire[..fx.wire.len() / 2] {
            step(&mut je, &mut publisher, &fx.spec, &engine, r);
        }
    }
    // Tear the journal tail mid-frame — the torn suffix must be
    // detected, discarded, and re-fed from the wire instead.
    let mut tail: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "polwal"))
        .collect();
    tail.sort();
    let tail = tail.pop().unwrap();
    let bytes = std::fs::read(&tail).unwrap();
    assert!(bytes.len() > 40, "tail must hold something to tear");
    std::fs::write(&tail, &bytes[..bytes.len() - 11]).unwrap();

    let (mut publisher, _) = DeltaPublisher::open(&dir).unwrap();
    let (mut je, report) = recover(
        &dir,
        &engine,
        &fx.statics,
        &fx.ports,
        StreamConfig::default(),
        wal_cfg(),
        300,
        Some((&mut publisher, fx.spec)),
    )
    .unwrap();
    assert!(report.torn_bytes > 0, "the torn suffix must be observed");
    let resume_at = usize::try_from(je.counters().ingested).unwrap();
    for &r in &fx.wire[resume_at..] {
        step(&mut je, &mut publisher, &fx.spec, &engine, r);
    }
    let out = je.close(&engine).unwrap();
    let recovered = RunResult {
        inventory_bytes: columnar::to_bytes(&out.inventory),
        counters: out.counters,
        chain_files: chain_files(&dir),
    };
    assert_converged(&oracle, &recovered, "torn tail");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&oracle_dir).ok();
}

#[test]
fn planted_chain_orphan_is_swept_and_generation_reused() {
    let fx = fixture();
    let oracle_dir = fresh_dir("pol-recovery-orphan-oracle");
    let oracle = uninterrupted(&fx, &oracle_dir, 400);

    let dir = fresh_dir("pol-recovery-orphan");
    let engine = Engine::new(2);
    {
        let se = StreamEngine::new(&fx.statics, &fx.ports, StreamConfig::default());
        let mut je = JournaledEngine::create(&dir, se, wal_cfg(), 400).unwrap();
        let mut publisher = DeltaPublisher::create(&dir);
        for &r in &fx.wire[..2 * fx.wire.len() / 3] {
            step(&mut je, &mut publisher, &fx.spec, &engine, r);
        }
        // Plant the debris of a publish that died between snapshot
        // write and manifest commit.
        let next_gen = publisher.chain_len();
        std::fs::write(
            dir.join(format!("delta-{next_gen:05}.pol")),
            b"half-published garbage",
        )
        .unwrap();
    }

    let (mut publisher, swept) = DeltaPublisher::open(&dir).unwrap();
    assert_eq!(swept.removed.len(), 1, "the orphan must be swept");
    let (mut je, _) = recover(
        &dir,
        &engine,
        &fx.statics,
        &fx.ports,
        StreamConfig::default(),
        wal_cfg(),
        400,
        Some((&mut publisher, fx.spec)),
    )
    .unwrap();
    let resume_at = usize::try_from(je.counters().ingested).unwrap();
    for &r in &fx.wire[resume_at..] {
        step(&mut je, &mut publisher, &fx.spec, &engine, r);
    }
    let out = je.close(&engine).unwrap();
    let recovered = RunResult {
        inventory_bytes: columnar::to_bytes(&out.inventory),
        counters: out.counters,
        chain_files: chain_files(&dir),
    };
    assert_converged(&oracle, &recovered, "planted orphan");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&oracle_dir).ok();
}

#[test]
fn temp_siblings_of_crashed_saves_are_swept_and_the_run_converges() {
    let fx = fixture();
    let oracle_dir = fresh_dir("pol-recovery-temp-oracle");
    let oracle = uninterrupted(&fx, &oracle_dir, 400);

    // The journal and the chain in directories of their own, so that
    // each writer's sweep is seen.
    let root = fresh_dir("pol-recovery-temp");
    let (journal, chain) = (root.join("journal"), root.join("chain"));
    std::fs::create_dir_all(&chain).unwrap();
    let engine = Engine::new(2);
    {
        let se = StreamEngine::new(&fx.statics, &fx.ports, StreamConfig::default());
        let mut je = JournaledEngine::create(&journal, se, wal_cfg(), 400).unwrap();
        let mut publisher = DeltaPublisher::create(&chain);
        for &r in &fx.wire[..fx.wire.len() / 2] {
            step(&mut je, &mut publisher, &fx.spec, &engine, r);
        }
    }
    // Two saves that died between writing their temp file and the
    // rename, under the names `save_bytes` gives its temp siblings.
    let head_tmp = journal.join(format!(".{CHECKPOINT_NAME}.tmp.4242.0"));
    let delta_tmp = chain.join(".delta-00003.pol.tmp.4242.1");
    std::fs::write(&head_tmp, b"half a head").unwrap();
    std::fs::write(&delta_tmp, b"half a delta").unwrap();

    let (mut publisher, swept) = DeltaPublisher::open(&chain).unwrap();
    assert_eq!(swept.removed, [".delta-00003.pol.tmp.4242.1"]);
    let (mut je, _) = recover(
        &journal,
        &engine,
        &fx.statics,
        &fx.ports,
        StreamConfig::default(),
        wal_cfg(),
        400,
        Some((&mut publisher, fx.spec)),
    )
    .unwrap();
    assert!(!delta_tmp.exists(), "the chain's debris is swept");
    assert!(!head_tmp.exists(), "the journal's debris is swept");
    let resume_at = usize::try_from(je.counters().ingested).unwrap();
    for &r in &fx.wire[resume_at..] {
        step(&mut je, &mut publisher, &fx.spec, &engine, r);
    }
    let out = je.close(&engine).unwrap();
    let recovered = RunResult {
        inventory_bytes: columnar::to_bytes(&out.inventory),
        counters: out.counters,
        chain_files: chain_files(&chain),
    };
    assert_converged(&oracle, &recovered, "temp siblings");
    std::fs::remove_dir_all(&root).ok();
    std::fs::remove_dir_all(&oracle_dir).ok();
}

#[test]
fn double_crash_recovers_from_the_recovery_checkpoint() {
    let fx = fixture();
    let oracle_dir = fresh_dir("pol-recovery-double-oracle");
    let oracle = uninterrupted(&fx, &oracle_dir, 250);

    let dir = fresh_dir("pol-recovery-double");
    let engine = Engine::new(2);
    let n = fx.wire.len();
    // First life: a third of the wire, then a kill.
    {
        let se = StreamEngine::new(&fx.statics, &fx.ports, StreamConfig::default());
        let mut je = JournaledEngine::create(&dir, se, wal_cfg(), 250).unwrap();
        let mut publisher = DeltaPublisher::create(&dir);
        for &r in &fx.wire[..n / 3] {
            step(&mut je, &mut publisher, &fx.spec, &engine, r);
        }
    }
    // Second life: recover, push up to two thirds, killed again.
    {
        let (mut publisher, _) = DeltaPublisher::open(&dir).unwrap();
        let (mut je, _) = recover(
            &dir,
            &engine,
            &fx.statics,
            &fx.ports,
            StreamConfig::default(),
            wal_cfg(),
            250,
            Some((&mut publisher, fx.spec)),
        )
        .unwrap();
        let resume_at = usize::try_from(je.counters().ingested).unwrap();
        for &r in &fx.wire[resume_at..2 * n / 3] {
            step(&mut je, &mut publisher, &fx.spec, &engine, r);
        }
    }
    // Third life: recover again — the checkpoints life two's cadence
    // wrote (its replayed records counted toward the first) bound this
    // replay — and finish.
    let (mut publisher, _) = DeltaPublisher::open(&dir).unwrap();
    let (mut je, report) = recover(
        &dir,
        &engine,
        &fx.statics,
        &fx.ports,
        StreamConfig::default(),
        wal_cfg(),
        250,
        Some((&mut publisher, fx.spec)),
    )
    .unwrap();
    assert!(report.checkpoint_found, "life two checkpointed");
    let resume_at = usize::try_from(je.counters().ingested).unwrap();
    for &r in &fx.wire[resume_at..] {
        step(&mut je, &mut publisher, &fx.spec, &engine, r);
    }
    let out = je.close(&engine).unwrap();
    let recovered = RunResult {
        inventory_bytes: columnar::to_bytes(&out.inventory),
        counters: out.counters,
        chain_files: chain_files(&dir),
    };
    assert_converged(&oracle, &recovered, "double crash");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&oracle_dir).ok();
}

#[test]
fn recovery_without_windows_matches_ingest_recover_wrapper() {
    let fx = fixture();
    let dir = fresh_dir("pol-recovery-windowless");
    let engine = Engine::new(2);
    {
        let se = StreamEngine::new(&fx.statics, &fx.ports, StreamConfig::default());
        let mut je = JournaledEngine::create(&dir, se, WalConfig::default(), 300).unwrap();
        for &r in &fx.wire[..fx.wire.len() / 2] {
            je.push(r).unwrap();
        }
    }
    let (mut je, report) = recover(
        &dir,
        &engine,
        &fx.statics,
        &fx.ports,
        StreamConfig::default(),
        WalConfig::default(),
        0,
        None,
    )
    .unwrap();
    assert!(report.checkpoint_found);
    assert!(report.records_replayed > 0 || report.batches_replayed == 0);
    let resume_at = usize::try_from(je.counters().ingested).unwrap();
    for &r in &fx.wire[resume_at..] {
        je.push(r).unwrap();
    }
    let out = je.close(&engine).unwrap();
    assert_eq!(out.counters.late_dropped, 0);
    assert_eq!(
        columnar::to_bytes(&out.inventory),
        fx.batch_bytes,
        "windowless recovery must still close byte-identical to the batch build"
    );
    assert!(!columnar::to_bytes(&out.inventory).is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

/// A quarter of the wire through a journal that rotates often, one
/// checkpoint (which purges the sealed history before its segment),
/// another quarter, then a kill: the checkpoint's segment is the oldest
/// on disk, and whole segments follow it. Returns the checkpoint's
/// `wal_seq`.
fn killed_mid_wire(fx: &Fixture, dir: &Path) -> u64 {
    let se = StreamEngine::new(&fx.statics, &fx.ports, StreamConfig::default());
    let mut je = JournaledEngine::create(dir, se, wal_cfg(), 0).unwrap();
    let n = fx.wire.len();
    for &r in &fx.wire[..n / 4] {
        je.push(r).unwrap();
    }
    je.checkpoint().unwrap();
    for &r in &fx.wire[n / 4..n / 2] {
        je.push(r).unwrap();
    }
    drop(je);
    let wal_seq = pol_stream::checkpoint::load(&dir.join(pol_stream::CHECKPOINT_NAME))
        .unwrap()
        .expect("the run checkpointed")
        .wal_seq;
    let segments = segment_seqs(dir);
    let holds = segments.iter().rposition(|(seq, _)| *seq <= wal_seq);
    assert!(
        holds == Some(0) && segments.len() > 2 && segments[0].0 > 0,
        "the checkpoint's segment must be the oldest, history before it \
         purged and whole segments after it: {segments:?}, {wal_seq}"
    );
    wal_seq
}

fn recover_plain(fx: &Fixture, dir: &Path) -> Result<pol_stream::RecoveryReport, String> {
    recover(
        dir,
        &Engine::new(2),
        &fx.statics,
        &fx.ports,
        StreamConfig::default(),
        wal_cfg(),
        0,
        None,
    )
    .map(|(_, report)| report)
    .map_err(|e| e.to_string())
}

#[test]
fn recovery_reads_the_journal_from_the_checkpoints_segment_on() {
    let fx = fixture();
    let dir = fresh_dir("pol-recovery-suffix");
    let wal_seq = killed_mid_wire(&fx, &dir);
    // The history before the checkpoint's segment is gone: the journal
    // on disk is what recovery reads.
    let segments = segment_seqs(&dir);
    assert!(segments[0].0 <= wal_seq && segments[1].0 > wal_seq);
    // History a failed purge left behind is not even opened: garbage in
    // it fails a whole-journal load and leaves recovery untouched.
    // Recovery writes no checkpoint, so the segment survives it; the
    // next checkpoint's purge removes it.
    let stale = dir.join("wal-0000000000.polwal");
    std::fs::write(&stale, b"not a journal segment").unwrap();
    assert!(pol_stream::WalReader::load(&dir).is_err());
    let (mut je, report) = recover(
        &dir,
        &Engine::new(2),
        &fx.statics,
        &fx.ports,
        StreamConfig::default(),
        wal_cfg(),
        0,
        None,
    )
    .unwrap();
    assert_eq!(report.checkpoint_wal_seq, wal_seq);
    assert_eq!(report.segments, segments.len());
    let replayed = report.records_replayed as usize;
    assert!(replayed >= fx.wire.len() / 4 - 8 * 64 && replayed <= fx.wire.len() / 4);
    assert!(stale.exists());
    je.checkpoint().unwrap();
    assert!(!stale.exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_journal_purged_past_the_checkpoint_is_a_typed_error() {
    let fx = fixture();
    let dir = fresh_dir("pol-recovery-purged");
    let wal_seq = killed_mid_wire(&fx, &dir);
    // The segment holding `wal_seq` goes, and everything before it;
    // what is left starts past the checkpoint.
    for (seq, path) in segment_seqs(&dir) {
        if seq <= wal_seq {
            std::fs::remove_file(path).unwrap();
        }
    }
    let err = recover_plain(&fx, &dir).unwrap_err();
    assert!(err.contains("journal purged past the checkpoint"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_checkpoint_ahead_of_the_journal_is_a_typed_error() {
    let fx = fixture();
    let dir = fresh_dir("pol-recovery-ahead");
    let wal_seq = killed_mid_wire(&fx, &dir);
    // The checkpoint's segment loses every frame and the segments after
    // it go: the journal now ends before the batches the checkpoint
    // says it has applied.
    let segments = segment_seqs(&dir);
    let (first_seq, oldest) = &segments[0];
    assert!(
        *first_seq < wal_seq,
        "the checkpoint must sit inside its segment"
    );
    for (_, path) in &segments[1..] {
        std::fs::remove_file(path).unwrap();
    }
    let bytes = std::fs::read(oldest).unwrap();
    let at = wal::MAGIC_WAL.len();
    let header_len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    std::fs::write(oldest, &bytes[..at + 4 + header_len + 8]).unwrap();
    let err = recover_plain(&fx, &dir).unwrap_err();
    assert!(err.contains("checkpoint is ahead of the journal"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The shuttle through a journal that rotates every few frames, a
/// checkpoint every 150 records: after each one the oldest segment on
/// disk is the one that holds its `wal_seq`, and a crash after the last
/// recovers to the uninterrupted run's bytes.
#[test]
fn every_checkpoint_trims_the_journal_to_the_segment_holding_its_wal_seq() {
    let engine = Engine::new(2);
    let cfg = WalConfig {
        batch_records: 16,
        group_commit_batches: 2,
        max_segment_bytes: 1_024,
    };
    let feed: Vec<PositionReport> = (0..5_000).map(shuttle_report).collect();
    let mut uninterrupted = shuttle_engine();
    for &r in &feed {
        uninterrupted.push(r);
    }
    let want = uninterrupted.close(&engine).unwrap().inventory;
    assert!(want.total_records() > 0, "the shuttle must close passages");
    let want = columnar::to_bytes(&want);

    let dir = fresh_dir("pol-recovery-trim");
    let mut je = JournaledEngine::create(&dir, shuttle_engine(), cfg, 0).unwrap();
    let mut checkpoints = 0;
    for (i, &r) in feed[..4_900].iter().enumerate() {
        je.push(r).unwrap();
        if (i + 1) % 150 > 0 {
            continue;
        }
        je.checkpoint().unwrap();
        checkpoints += 1;
        let wal_seq = pol_stream::checkpoint::load(&dir.join(pol_stream::CHECKPOINT_NAME))
            .unwrap()
            .unwrap()
            .wal_seq;
        let segments = segment_seqs(&dir);
        assert!(
            segments[0].0 <= wal_seq && segments.get(1).is_none_or(|(seq, _)| *seq > wal_seq),
            "checkpoint {checkpoints} at {wal_seq}: {segments:?}"
        );
    }
    assert!(checkpoints >= 30);
    let stats = je.checkpoint_stats();
    assert_eq!(stats.purge_failures, 0);
    assert!(
        stats.segments_purged > checkpoints,
        "{} segments purged",
        stats.segments_purged
    );
    drop(je);

    let (mut je, report) = recover(
        &dir,
        &engine,
        &shuttle_statics(),
        &shuttle_ports(),
        StreamConfig::default(),
        cfg,
        0,
        None,
    )
    .unwrap();
    assert!(report.checkpoint_found);
    assert!(
        report.records_replayed > 0,
        "the crash left a suffix to replay"
    );
    let resume_at = usize::try_from(je.counters().ingested).unwrap();
    for &r in &feed[resume_at..] {
        je.push(r).unwrap();
    }
    let out = je.close(&engine).unwrap();
    assert_eq!(columnar::to_bytes(&out.inventory), want);
    std::fs::remove_dir_all(&dir).ok();
}

/// Recovery writes no checkpoint, so a crash right after it, before a
/// record is pushed, recovers again from the same checkpoint: the same
/// suffix replayed, the windows it cut found durable, and the run closes
/// to the uninterrupted run's bytes.
#[test]
fn a_crash_right_after_recovery_recovers_to_the_same_bytes() {
    let fx = fixture();
    let oracle_dir = fresh_dir("pol-recovery-again-oracle");
    let oracle = uninterrupted(&fx, &oracle_dir, 250);
    let dir = fresh_dir("pol-recovery-again");
    let engine = Engine::new(2);
    {
        let se = StreamEngine::new(&fx.statics, &fx.ports, StreamConfig::default());
        let mut je = JournaledEngine::create(&dir, se, wal_cfg(), 250).unwrap();
        let mut publisher = DeltaPublisher::create(&dir);
        for &r in &fx.wire[..fx.wire.len() / 2] {
            step(&mut je, &mut publisher, &fx.spec, &engine, r);
        }
    }
    let recover_here = |dir: &Path| {
        let (mut publisher, _) = DeltaPublisher::open(dir).unwrap();
        let (je, report) = recover(
            dir,
            &engine,
            &fx.statics,
            &fx.ports,
            StreamConfig::default(),
            wal_cfg(),
            250,
            Some((&mut publisher, fx.spec)),
        )
        .unwrap();
        (publisher, je, report)
    };
    let (_, je, first) = recover_here(&dir);
    assert!(first.checkpoint_found && first.records_replayed > 0);
    drop(je);
    let (mut publisher, mut je, again) = recover_here(&dir);
    assert_eq!(again.checkpoint_wal_seq, first.checkpoint_wal_seq);
    assert_eq!(again.records_replayed, first.records_replayed);
    assert_eq!(again.window_cuts, first.window_cuts);
    assert_eq!(again.deltas_published, 0);
    assert_eq!(
        again.deltas_already_durable,
        first.deltas_published + first.deltas_already_durable
    );
    let resume_at = usize::try_from(je.counters().ingested).unwrap();
    for &r in &fx.wire[resume_at..] {
        step(&mut je, &mut publisher, &fx.spec, &engine, r);
    }
    let out = je.close(&engine).unwrap();
    let recovered = RunResult {
        inventory_bytes: columnar::to_bytes(&out.inventory),
        counters: out.counters,
        chain_files: chain_files(&dir),
    };
    assert_converged(&oracle, &recovered, "crash right after recovery");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&oracle_dir).ok();
}

/// The records recovery replays count toward the cadence: with R of
/// them, the first automatic checkpoint comes after 250 − R pushes, at
/// the record an uninterrupted run's would.
#[test]
fn the_first_checkpoint_after_recovery_keeps_the_cadence() {
    let cfg = WalConfig {
        batch_records: 16,
        group_commit_batches: 2,
        max_segment_bytes: 4_096,
    };
    let dir = fresh_dir("pol-recovery-cadence-kept");
    {
        let mut je = JournaledEngine::create(&dir, shuttle_engine(), cfg, 250).unwrap();
        for step in 0..600 {
            je.push(shuttle_report(step)).unwrap();
        }
        assert_eq!(je.checkpoints_written(), 2);
    }
    let (mut je, report) = recover(
        &dir,
        &Engine::new(1),
        &shuttle_statics(),
        &shuttle_ports(),
        StreamConfig::default(),
        cfg,
        250,
        None,
    )
    .unwrap();
    let replayed = report.records_replayed;
    assert!(replayed > 0 && replayed < 250, "{replayed} replayed");
    assert_eq!(je.counters().ingested, 500 + replayed);
    assert_eq!(je.records_since_checkpoint(), replayed);
    let head = dir.join(pol_stream::CHECKPOINT_NAME);
    let ingested_at_checkpoint = || {
        pol_stream::checkpoint::load(&head)
            .unwrap()
            .unwrap()
            .counters[0]
    };
    for step in 500 + replayed..749 {
        je.push(shuttle_report(step as i64)).unwrap();
    }
    assert_eq!(je.checkpoints_written(), 0, "one push early");
    assert_eq!(ingested_at_checkpoint(), 500);
    je.push(shuttle_report(749)).unwrap();
    assert_eq!(je.checkpoints_written(), 1);
    assert_eq!(je.records_since_checkpoint(), 0);
    assert_eq!(ingested_at_checkpoint(), 750);
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint log that fails its CRC is the checkpoint's typed error,
/// whether the journal beside it is sound or not: the log's error is
/// reported before the journal's, once both readers are done.
#[test]
fn a_corrupt_checkpoint_log_is_its_typed_error_and_not_a_hang() {
    let dir = fresh_dir("pol-recovery-corrupt-log");
    {
        let mut je =
            JournaledEngine::create(&dir, shuttle_engine(), WalConfig::default(), 0).unwrap();
        for step in 0..120 {
            je.push(shuttle_report(step)).unwrap();
        }
        je.checkpoint().unwrap();
        for step in 120..150 {
            je.push(shuttle_report(step)).unwrap();
        }
    }
    let log = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "polckl"))
        .unwrap();
    let mut bytes = std::fs::read(&log).unwrap();
    bytes[16 + 8 + 4] ^= 0x20;
    std::fs::write(&log, &bytes).unwrap();
    let recover_in = |dir: PathBuf| {
        let (done, answer) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let recovered = recover(
                &dir,
                &Engine::new(1),
                &shuttle_statics(),
                &shuttle_ports(),
                StreamConfig::default(),
                WalConfig::default(),
                0,
                None,
            );
            done.send(recovered.map(|_| ()).map_err(|e| e.to_string()))
        });
        answer
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("recovery returns within a minute")
    };
    let sound = recover_in(dir.clone()).unwrap_err();
    assert!(sound.contains("checkpoint-frame"), "{sound}");
    // Now the journal is unsound too — purged past any checkpoint — and
    // the checkpoint's error still wins.
    for (_, path) in segment_seqs(&dir) {
        std::fs::remove_file(path).unwrap();
    }
    std::fs::write(dir.join("wal-0001000000.polwal"), b"not a journal segment").unwrap();
    assert!(pol_stream::WalReader::load_from(&dir, 0).is_err());
    let both = recover_in(dir.clone()).unwrap_err();
    assert_eq!(both, sound);
    std::fs::remove_dir_all(&dir).ok();
}
