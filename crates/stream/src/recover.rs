//! Crash recovery: checkpoint restore plus journal-suffix replay.
//!
//! [`recover`] rebuilds a [`JournaledEngine`] from a journal directory
//! after a crash, in five steps:
//!
//! 1. **restore** — read and unseal the checkpoint head, then on three
//!    threads at once decode the committed prefix of its log, load the
//!    journal (step 2) and build the engine skeleton
//!    ([`StreamEngine::new`]), and restore the checkpoint into it.
//!    Errors are reported in that order — head, log, journal,
//!    skeleton — once every thread is done;
//! 2. **read** — load the journal from the segment that holds the
//!    checkpoint's `wal_seq` onward ([`WalReader::load_from`]; every
//!    checkpoint purges the sealed segments before it, and one a failed
//!    or interrupted purge left is not read; the frames below `wal_seq`
//!    in that segment are checked but not decoded): sealed segments
//!    with zero tolerance, the tail tolerantly (a torn final batch is
//!    discarded, never served);
//! 3. **replay** — re-push exactly the batches with sequence `>=` the
//!    checkpoint's `wal_seq`, which is what the load returned. Because the journal holds the *raw wire
//!    order* and the checkpoint was flushed to a batch boundary, this
//!    is no-double-apply, no-gap: the rebuilt engine state equals an
//!    uninterrupted run over the same durable prefix, byte for byte
//!    (pinned by the crash-point sweep in `tests/recovery.rs`);
//! 4. **reconcile** — when a delta chain is in play, window cuts are
//!    re-derived at the same watermark thresholds the pre-crash run
//!    used. Generations the manifest already holds are skipped
//!    ([`PublishOutcome::AlreadyDurable`] — deterministic replay makes
//!    the durable bytes identical); the first missing generation
//!    onward is published. Orphaned snapshots from a publish that died
//!    before its manifest commit are swept by
//!    [`DeltaPublisher::open`];
//! 5. **reopen** — repair and reopen the journal tail, cut the
//!    checkpoint log back to its committed length and sweep any unnamed
//!    log and any temp sibling a crashed save left, in the one directory
//!    pass that looks for logs. No checkpoint is written (DESIGN.md §10 says why that is
//!    safe): the replayed records count toward the cadence, whose next
//!    checkpoint bounds replay and purges the segments behind it.
//!
//! The returned engine continues exactly where the wire left off: the
//! caller resumes pushing at record `counters().ingested`.
//! [`RecoveryReport`] says what each of steps 1, 2, 3 and 5 took.

use crate::checkpoint::{self, CheckpointWriter, CHECKPOINT_NAME};
use crate::delta::{DeltaPublisher, PublishOutcome};
use crate::ingest::{StreamConfig, StreamEngine};
use crate::journal::{JournalError, JournaledEngine, WalConfig, WalReader, WalWriter};
use pol_ais::StaticReport;
use pol_core::codec::wal::WalError;
use pol_core::codec::CodecError;
use pol_core::records::PortSite;
use pol_engine::Engine;
use std::panic::resume_unwind;
use std::path::Path;
use std::thread::{Builder, ScopedJoinHandle};
use std::time::{Duration, Instant};

/// The delta-window schedule, shared by the live driver and recovery
/// replay: window `k` (generation `k`) is cut when the watermark
/// reaches `start_ts + (k + 1) × window_secs`. Recovery must use the
/// exact schedule the pre-crash run did or the re-derived windows
/// would not line up with the published chain.
#[derive(Clone, Copy, Debug)]
pub struct WindowSpec {
    /// Epoch of window 0 — the wire's start timestamp.
    pub start_ts: i64,
    /// Window width, seconds.
    pub window_secs: i64,
}

impl WindowSpec {
    /// The watermark threshold that cuts window `k`.
    pub fn cut_at(&self, k: u64) -> i64 {
        self.start_ts.saturating_add(
            (k as i64)
                .saturating_add(1)
                .saturating_mul(self.window_secs),
        )
    }
}

/// What a recovery did — the accounting behind the recovery gate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a checkpoint was found and restored.
    pub checkpoint_found: bool,
    /// The restored checkpoint's journal position (0 without one).
    pub checkpoint_wal_seq: u64,
    /// Journal batches replayed past the checkpoint.
    pub batches_replayed: u64,
    /// Records replayed past the checkpoint.
    pub records_replayed: u64,
    /// Torn trailing bytes discarded from the journal tail.
    pub torn_bytes: u64,
    /// Journal segment files read.
    pub segments: usize,
    /// Delta generations published during replay (missing from the
    /// chain when the crash hit).
    pub deltas_published: u64,
    /// Delta generations re-derived but already durable in the chain.
    pub deltas_already_durable: u64,
    /// Total window cuts after replay.
    pub window_cuts: u64,
    /// Wall time of steps 1 and 2: head, log, journal and skeleton.
    pub restore: Duration,
    /// Wall time of step 2 alone, on its own thread inside `restore`.
    pub journal_load: Duration,
    /// Wall time of steps 3 and 4: replay and its window cuts.
    pub replay: Duration,
    /// Wall time of step 5.
    pub reopen: Duration,
}

/// Re-derives every cut the current watermark allows, reconciling each
/// against the on-disk chain.
fn run_cuts(
    se: &mut StreamEngine,
    engine: &Engine,
    publisher: &mut DeltaPublisher,
    spec: &WindowSpec,
    cuts: &mut u64,
    report: &mut RecoveryReport,
) -> Result<(), JournalError> {
    while se.watermark() >= spec.cut_at(*cuts) {
        let delta = se.take_window_delta(engine)?;
        match publisher
            .publish_at(*cuts, &delta)
            .map_err(|e| JournalError::Codec(CodecError::Io(e)))?
        {
            PublishOutcome::Published => report.deltas_published += 1,
            PublishOutcome::AlreadyDurable => report.deltas_already_durable += 1,
        }
        *cuts += 1;
    }
    Ok(())
}

/// Recovers a journaled engine from `dir` (see the module docs for the
/// steps). `windows` carries the delta chain to reconcile against
/// and the cut schedule; without it, replay rebuilds engine state only
/// and no windows are cut.
#[allow(clippy::too_many_arguments)]
pub fn recover(
    dir: &Path,
    engine: &Engine,
    statics: &[StaticReport],
    ports: &[PortSite],
    cfg: StreamConfig,
    wal_cfg: WalConfig,
    checkpoint_every_records: u64,
    mut windows: Option<(&mut DeltaPublisher, WindowSpec)>,
) -> Result<(JournaledEngine, RecoveryReport), JournalError> {
    let started = Instant::now();
    let head = checkpoint::read_head(&dir.join(CHECKPOINT_NAME))?;
    let applied_seq = head.as_ref().map_or(0, |head| head.state.wal_seq);
    // The log, the journal and the skeleton do not depend on one another:
    // each is read or built on a thread of its own.
    let (restored, load, skeleton) = std::thread::scope(|s| {
        let load = Builder::new().spawn_scoped(s, || {
            let started = Instant::now();
            WalReader::load_from(dir, applied_seq).map(|load| (load, started.elapsed()))
        });
        let skeleton = Builder::new().spawn_scoped(s, || StreamEngine::new(statics, ports, cfg));
        let restored = head.map(|head| checkpoint::load_log(head, dir)).transpose();
        (restored, joined(load), joined(skeleton))
    });
    let (ckpt, log_position) = restored?.unzip();
    let (load, journal_load) = load??;
    let skeleton = skeleton?;
    // A purged journal must still reach back to the checkpoint
    // (`load_from` refuses one that does not), and the checkpoint cannot
    // claim batches the journal never made durable: the two must
    // describe one history.
    if applied_seq > load.next_seq {
        return Err(JournalError::State("checkpoint is ahead of the journal"));
    }

    let mut report = RecoveryReport {
        checkpoint_found: ckpt.is_some(),
        checkpoint_wal_seq: applied_seq,
        torn_bytes: load.torn_bytes,
        segments: load.segments,
        journal_load,
        ..RecoveryReport::default()
    };

    let (mut se, mut cuts) = match ckpt {
        Some(state) => {
            let cuts = state.window_cuts;
            (skeleton.restore(state).map_err(JournalError::State)?, cuts)
        }
        None => (skeleton, 0),
    };
    if let Some((publisher, _)) = windows.as_ref() {
        if cuts > publisher.chain_len() as u64 {
            return Err(JournalError::State(
                "checkpoint counts more window cuts than the chain holds",
            ));
        }
    }
    report.restore = started.elapsed();

    // Replay the journal suffix, re-deriving window cuts at the same
    // record boundaries the pre-crash run used. The initial cut pass
    // covers a checkpoint taken while a cut was already due.
    if let Some((publisher, spec)) = windows.as_mut() {
        run_cuts(&mut se, engine, publisher, spec, &mut cuts, &mut report)?;
    }
    for b in &load.batches {
        report.batches_replayed += 1;
        for &r in &b.records {
            se.push(r);
            report.records_replayed += 1;
            if let Some((publisher, spec)) = windows.as_mut() {
                run_cuts(&mut se, engine, publisher, spec, &mut cuts, &mut report)?;
            }
        }
    }
    report.window_cuts = cuts;
    report.replay = started.elapsed() - report.restore;

    // Reopen the tail for appending (repairing any torn bytes) and the
    // checkpoint log. No checkpoint is written here: the replayed
    // records count toward the cadence, which takes the next one.
    let wal = WalWriter::resume(dir, wal_cfg, &load)?;
    let ckpt = CheckpointWriter::resume(dir, log_position)
        .map_err(|e| JournalError::Codec(CodecError::Io(e)))?;
    let every = checkpoint_every_records;
    let je = JournaledEngine::from_parts(se, wal, ckpt, cuts, every, report.records_replayed);
    report.reopen = started.elapsed() - report.restore - report.replay;
    Ok((je, report))
}

/// What a recovery thread returned, or why it never ran; a panic in it
/// goes on unwinding here.
fn joined<T>(thread: std::io::Result<ScopedJoinHandle<'_, T>>) -> Result<T, JournalError> {
    let thread = thread.map_err(|e| JournalError::Wal(WalError::Io(e)))?;
    Ok(thread.join().unwrap_or_else(|panic| resume_unwind(panic)))
}
