//! The write-ahead journal: durable POLWAL1 segments fronting the
//! streaming engine.
//!
//! [`WalWriter`] owns a journal *directory* of POLWAL1 segments
//! (`wal-{first_seq:010}.polwal`). Records are journaled in raw wire
//! order **before** the engine sees them, batched
//! ([`WalConfig::batch_records`] per frame) and group-committed
//! ([`WalConfig::group_commit_batches`] frames per fsync); full
//! segments are sealed with the POLSEAL footer and a fresh tail opened
//! ([`WalConfig::max_segment_bytes`]). The invariant a reader may rely
//! on: **every segment but the last is sealed**, and the last is at
//! worst torn in its final frame — which [`pol_core::codec::wal`]
//! detects and discards.
//!
//! [`JournaledEngine`] threads the writer in front of
//! [`StreamEngine::push`]: journal first, apply second, so the durable
//! prefix of the journal always covers at least what any checkpoint or
//! published delta was derived from. Its two barriers:
//!
//! * **checkpoint** — flushes the journal (pending frame + fsync), then
//!   checkpoints the engine ([`crate::checkpoint`]: what changed since
//!   the last one is appended, the head commits it) with `wal_seq` =
//!   batches durable, so replay applies exactly the suffix
//!   `seq >= wal_seq`, no double-apply, no gap;
//! * **window cut** — flushes the journal before deriving a delta, so
//!   a published generation is always re-derivable from the journal
//!   ("publish implies journal durable to the cut").
//!
//! Recovery (in [`crate::recover`]) is the inverse: newest checkpoint,
//! plus a replay of the journal suffix, reconverges byte-identically —
//! pinned by the crash-point sweep in `tests/recovery.rs`.

use crate::checkpoint::{CheckpointStats, CheckpointWriter};
use crate::ingest::{IngestCounters, StreamEngine, StreamOutput};
use pol_ais::PositionReport;
use pol_core::codec::wal::{self, SegmentWriter, WalError};
use pol_core::codec::CodecError;
use pol_core::{Inventory, PipelineError};
use pol_engine::Engine;
use std::fmt;
use std::path::{Path, PathBuf};

/// Tunables of the journal layer.
#[derive(Clone, Copy, Debug)]
pub struct WalConfig {
    /// Records buffered per appended batch frame.
    pub batch_records: usize,
    /// Batch frames per fsync (the group-commit interval): durability
    /// lags the wire by at most `batch_records × group_commit_batches`
    /// records plus one partial frame.
    pub group_commit_batches: u64,
    /// Segment rotation threshold, bytes: a batch landing at or past it
    /// seals the segment and opens the next.
    pub max_segment_bytes: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            batch_records: 256,
            group_commit_batches: 8,
            max_segment_bytes: 8 << 20,
        }
    }
}

/// Any failure of the journal layer: segment I/O and format defects
/// ([`WalError`]), checkpoint codec defects ([`CodecError`]),
/// inventory-fold failures ([`PipelineError`]), or recovery-state
/// contradictions (`State`).
#[derive(Debug)]
pub enum JournalError {
    /// A POLWAL1 segment operation failed.
    Wal(WalError),
    /// A checkpoint save or load failed.
    Codec(CodecError),
    /// A delta-window fold failed.
    Pipeline(PipelineError),
    /// The journal, checkpoint, and chain contradict each other —
    /// recovery refuses to guess.
    State(&'static str),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Wal(e) => write!(f, "journal segment: {e}"),
            JournalError::Codec(e) => write!(f, "checkpoint codec: {e}"),
            JournalError::Pipeline(e) => write!(f, "window fold: {e}"),
            JournalError::State(msg) => write!(f, "recovery state: {msg}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<WalError> for JournalError {
    fn from(e: WalError) -> Self {
        JournalError::Wal(e)
    }
}

impl From<CodecError> for JournalError {
    fn from(e: CodecError) -> Self {
        JournalError::Codec(e)
    }
}

impl From<PipelineError> for JournalError {
    fn from(e: PipelineError) -> Self {
        JournalError::Pipeline(e)
    }
}

/// File name of the segment whose first batch carries `first_seq`.
fn segment_name(first_seq: u64) -> String {
    format!("wal-{first_seq:010}.polwal")
}

/// Parses a segment file name back to its first batch sequence.
fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal-")?.strip_suffix(".polwal")?;
    if digits.len() != 10 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The journal tail as a resume target.
enum Tail {
    /// An unsealed final segment with a clean (possibly repaired-on-
    /// resume) prefix.
    Resume(PathBuf, wal::SegmentLoad),
    /// The final segment's header itself was torn — nothing durable in
    /// it; resume recreates the file in place.
    Recreate(PathBuf, u64),
}

/// What a journal-directory load found.
pub struct WalLoad {
    /// Every durable batch of the segments read, in sequence order. The
    /// first batch's sequence exceeds zero when covered segments were
    /// purged or the load began at a later segment.
    pub batches: Vec<wal::Batch>,
    /// Torn trailing bytes detected in the final segment and discarded.
    pub torn_bytes: u64,
    /// Segment files read.
    pub segments: usize,
    /// The sequence the next appended batch will carry.
    pub next_seq: u64,
    tail: Option<Tail>,
}

impl WalLoad {
    /// Total durable records across all batches.
    pub fn records(&self) -> u64 {
        self.batches.iter().map(|b| b.records.len() as u64).sum()
    }
}

/// Loads a journal directory.
pub struct WalReader;

impl WalReader {
    /// Reads every segment of the journal in `dir`: all but the last
    /// with the zero-tolerance sealed contract, the last tolerantly
    /// (torn tail detected and discarded; an unreadable tail *header*
    /// is an empty tail). Validates file names against headers and
    /// batch-sequence continuity across segment boundaries. A missing
    /// directory is an empty journal.
    pub fn load(dir: &Path) -> Result<WalLoad, JournalError> {
        WalReader::read(dir, None)
    }

    /// [`load`](Self::load) for a reader that only needs batch
    /// `from_seq` onward: segment names carry their first sequence, so
    /// reading — and validating — starts at the segment that holds
    /// `from_seq` and the sealed history before it is left on disk
    /// unread. Segments on disk that all start past `from_seq` are a
    /// journal purged too far, a typed error.
    pub fn load_from(dir: &Path, from_seq: u64) -> Result<WalLoad, JournalError> {
        WalReader::read(dir, Some(from_seq))
    }

    fn read(dir: &Path, from_seq: Option<u64>) -> Result<WalLoad, JournalError> {
        let mut names: Vec<String> = Vec::new();
        match std::fs::read_dir(dir) {
            Ok(entries) => {
                for entry in entries {
                    let entry = entry.map_err(|e| JournalError::Wal(WalError::Io(e)))?;
                    if let Ok(name) = entry.file_name().into_string() {
                        if parse_segment_name(&name).is_some() {
                            names.push(name);
                        }
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(JournalError::Wal(WalError::Io(e))),
        }
        names.sort();
        if let (Some(from_seq), false) = (from_seq, names.is_empty()) {
            let not_past =
                names.partition_point(|n| parse_segment_name(n).is_some_and(|seq| seq <= from_seq));
            if not_past == 0 {
                return Err(JournalError::State("journal purged past the checkpoint"));
            }
            names.drain(..not_past - 1);
        }
        let segments = names.len();

        let mut batches: Vec<wal::Batch> = Vec::new();
        let mut torn_bytes = 0u64;
        let mut next_seq: Option<u64> = None;
        let mut tail = None;
        for (i, name) in names.iter().enumerate() {
            let name_seq =
                parse_segment_name(name).ok_or(JournalError::State("unparsable segment name"))?;
            if let Some(expect) = next_seq {
                if name_seq != expect {
                    return Err(JournalError::State("journal segments are not contiguous"));
                }
            }
            let path = dir.join(name);
            let bytes = std::fs::read(&path).map_err(|e| JournalError::Wal(WalError::Io(e)))?;
            let last = i + 1 == segments;
            let load = if last {
                match wal::read_segment(&bytes) {
                    Ok(load) => load,
                    // The tail's own header never became durable: the
                    // journal ends at the previous segment, and resume
                    // recreates this file in place.
                    Err(WalError::BadHeader) => {
                        torn_bytes += bytes.len() as u64;
                        tail = Some(Tail::Recreate(path, name_seq));
                        next_seq.get_or_insert(name_seq);
                        continue;
                    }
                    Err(e) => return Err(JournalError::Wal(e)),
                }
            } else {
                wal::read_sealed(&bytes)?
            };
            if load.first_seq != name_seq {
                return Err(JournalError::State(
                    "segment header disagrees with its name",
                ));
            }
            let seg_next = load.first_seq + load.batches.len() as u64;
            torn_bytes += load.torn_bytes;
            batches.extend(load.batches.iter().cloned());
            next_seq = Some(seg_next);
            if last && !load.sealed {
                tail = Some(Tail::Resume(path, load));
            }
        }
        Ok(WalLoad {
            batches,
            torn_bytes,
            segments,
            next_seq: next_seq.unwrap_or(0),
            tail,
        })
    }
}

/// Appends the journal: batching, group commit, and segment rotation
/// over [`SegmentWriter`]s.
pub struct WalWriter {
    dir: PathBuf,
    cfg: WalConfig,
    /// `None` only after a failed rotation left no live tail — the
    /// writer is poisoned and every later append fails typed rather
    /// than risking an out-of-order segment chain.
    seg: Option<SegmentWriter>,
    pending: Vec<PositionReport>,
    unsynced: u64,
    fsyncs: u64,
}

impl WalWriter {
    /// Starts a fresh journal in `dir` (created if missing), refusing a
    /// directory that already holds segments — resuming an existing
    /// journal without replaying it would silently fork history; use
    /// [`crate::recover`] for that.
    pub fn create(dir: &Path, cfg: WalConfig) -> Result<WalWriter, JournalError> {
        std::fs::create_dir_all(dir).map_err(|e| JournalError::Wal(WalError::Io(e)))?;
        let existing = WalReader::load(dir)?;
        if existing.segments > 0 {
            return Err(JournalError::State(
                "journal directory already holds segments; recover instead of creating",
            ));
        }
        let seg = SegmentWriter::create(&dir.join(segment_name(0)), 0)?;
        Ok(WalWriter {
            dir: dir.to_path_buf(),
            cfg,
            seg: Some(seg),
            pending: Vec::new(),
            unsynced: 0,
            fsyncs: 1,
        })
    }

    /// Reopens the journal a [`WalReader::load`] described, repairing a
    /// torn tail (idempotently) or opening a fresh tail after a sealed
    /// or destroyed one.
    pub fn resume(dir: &Path, cfg: WalConfig, load: &WalLoad) -> Result<WalWriter, JournalError> {
        let seg = match &load.tail {
            Some(Tail::Resume(path, seg_load)) => SegmentWriter::resume(path, seg_load)?,
            Some(Tail::Recreate(path, first_seq)) => SegmentWriter::create(path, *first_seq)?,
            // No tail: the directory is empty, or every segment is
            // sealed — open the next segment either way.
            None => SegmentWriter::create(&dir.join(segment_name(load.next_seq)), load.next_seq)?,
        };
        if seg.next_seq() != load.next_seq {
            return Err(JournalError::State("resumed tail disagrees with the load"));
        }
        Ok(WalWriter {
            dir: dir.to_path_buf(),
            cfg,
            seg: Some(seg),
            pending: Vec::new(),
            unsynced: 0,
            fsyncs: 0,
        })
    }

    fn seg_mut(&mut self) -> Result<&mut SegmentWriter, JournalError> {
        self.seg.as_mut().ok_or(JournalError::State(
            "journal writer poisoned by a failed rotation",
        ))
    }

    /// Fsyncs this writer has issued since it was created or resumed:
    /// one per segment it created (the header), per group commit or
    /// explicit flush that had frames to cover, and per seal. Whatever
    /// a resume did to repair the tail is recovery's, not counted here.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Records buffered but not yet appended as a frame.
    pub fn pending_records(&self) -> usize {
        self.pending.len()
    }

    /// The sequence the next appended batch will carry — after a
    /// [`flush`](Self::flush), the number of durable batches.
    pub fn next_seq(&self) -> u64 {
        match &self.seg {
            Some(seg) => seg.next_seq(),
            None => 0,
        }
    }

    /// Journals one record. The record is durable only after the group
    /// commit (or an explicit [`flush`](Self::flush)) reaches it.
    pub fn push(&mut self, r: PositionReport) -> Result<(), JournalError> {
        self.pending.push(r);
        if self.pending.len() >= self.cfg.batch_records {
            self.commit_batch()?;
        }
        Ok(())
    }

    fn commit_batch(&mut self) -> Result<(), JournalError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let max = self.cfg.max_segment_bytes;
        let group = self.cfg.group_commit_batches;
        let full = matches!(&self.seg, Some(seg) if seg.len() >= max && !seg.is_empty());
        if full {
            self.rotate()?;
        }
        let pending = std::mem::take(&mut self.pending);
        if let Err(e) = self
            .seg_mut()
            .and_then(|seg| Ok(seg.append_batch(&pending)?))
        {
            // Put the frame back: these records may already be applied
            // to an engine ahead of us, and a later flush must still
            // cover them or a checkpoint would overstate the journal.
            self.pending = pending;
            return Err(e);
        }
        self.unsynced += 1;
        if self.unsynced >= group {
            self.sync()?;
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), JournalError> {
        self.seg_mut()?.sync()?;
        self.unsynced = 0;
        self.fsyncs += 1;
        Ok(())
    }

    /// Seals the full tail and opens the next segment. Seal-first
    /// ordering is load-bearing: a crash between the two leaves an
    /// all-sealed journal (an empty tail the reader treats as such),
    /// never an unsealed segment followed by another.
    fn rotate(&mut self) -> Result<(), JournalError> {
        let old = self.seg.take().ok_or(JournalError::State(
            "journal writer poisoned by a failed rotation",
        ))?;
        let next = old.next_seq();
        old.seal()?;
        let seg = SegmentWriter::create(&self.dir.join(segment_name(next)), next)?;
        self.seg = Some(seg);
        self.unsynced = 0;
        self.fsyncs += 2;
        Ok(())
    }

    /// The durability barrier: appends the pending partial frame (if
    /// any) and fsyncs, so every record pushed so far is durable.
    pub fn flush(&mut self) -> Result<(), JournalError> {
        self.commit_batch()?;
        if self.unsynced > 0 {
            self.sync()?;
        }
        Ok(())
    }

    /// Flushes and seals the tail — the clean-shutdown end of the
    /// journal, after which every segment is sealed.
    pub fn seal(mut self) -> Result<(), JournalError> {
        self.commit_batch()?;
        let seg = self.seg.take().ok_or(JournalError::State(
            "journal writer poisoned by a failed rotation",
        ))?;
        seg.seal()?;
        Ok(())
    }

    /// Deletes sealed segments fully covered by a checkpoint at
    /// `covered_seq` (every batch below it is re-derivable from the
    /// checkpoint alone). A segment is removed only when its *successor*
    /// starts at or below `covered_seq`; the tail always survives.
    /// Opt-in: callers that want the full journal for audit keep it.
    pub fn purge_covered(&self, covered_seq: u64) -> Result<Vec<String>, JournalError> {
        let mut names: Vec<String> = Vec::new();
        for entry in std::fs::read_dir(&self.dir).map_err(|e| JournalError::Wal(WalError::Io(e)))? {
            let entry = entry.map_err(|e| JournalError::Wal(WalError::Io(e)))?;
            if let Ok(name) = entry.file_name().into_string() {
                if parse_segment_name(&name).is_some() {
                    names.push(name);
                }
            }
        }
        names.sort();
        let mut removed = Vec::new();
        for pair in names.windows(2) {
            let [covered, next] = pair else { continue };
            let next_first =
                parse_segment_name(next).ok_or(JournalError::State("unparsable segment name"))?;
            if next_first <= covered_seq {
                std::fs::remove_file(self.dir.join(covered))
                    .map_err(|e| JournalError::Wal(WalError::Io(e)))?;
                removed.push(covered.clone());
            }
        }
        Ok(removed)
    }
}

/// A [`StreamEngine`] fronted by the journal: push journals first and
/// applies second, checkpoints bound replay, and window cuts imply the
/// journal is durable to the cut.
pub struct JournaledEngine {
    engine: StreamEngine,
    wal: WalWriter,
    ckpt: CheckpointWriter,
    window_cuts: u64,
    checkpoint_every_records: u64,
    records_since_checkpoint: u64,
    checkpoints_written: u64,
    checkpoint_wal_seq: u64,
}

impl JournaledEngine {
    /// A journaled engine over a fresh journal in `dir`.
    /// `checkpoint_every_records` sets the automatic checkpoint cadence
    /// (0 disables it; [`checkpoint`](Self::checkpoint) stays manual).
    pub fn create(
        dir: &Path,
        engine: StreamEngine,
        wal_cfg: WalConfig,
        checkpoint_every_records: u64,
    ) -> Result<JournaledEngine, JournalError> {
        let wal = WalWriter::create(dir, wal_cfg)?;
        Ok(JournaledEngine {
            engine,
            wal,
            ckpt: CheckpointWriter::fresh(dir),
            window_cuts: 0,
            checkpoint_every_records,
            records_since_checkpoint: 0,
            checkpoints_written: 0,
            checkpoint_wal_seq: 0,
        })
    }

    /// Assembles a journaled engine from recovered parts (the
    /// [`crate::recover`] constructor).
    pub(crate) fn from_parts(
        engine: StreamEngine,
        wal: WalWriter,
        ckpt: CheckpointWriter,
        window_cuts: u64,
        checkpoint_every_records: u64,
        checkpoint_wal_seq: u64,
    ) -> JournaledEngine {
        JournaledEngine {
            engine,
            wal,
            ckpt,
            window_cuts,
            checkpoint_every_records,
            records_since_checkpoint: 0,
            checkpoints_written: 0,
            checkpoint_wal_seq,
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &StreamEngine {
        &self.engine
    }

    /// Ingestion accounting so far.
    pub fn counters(&self) -> IngestCounters {
        self.engine.counters()
    }

    /// The engine's current watermark.
    pub fn watermark(&self) -> i64 {
        self.engine.watermark()
    }

    /// Delta windows cut so far (the next cut derives this generation).
    pub fn window_cuts(&self) -> u64 {
        self.window_cuts
    }

    /// Records journaled since the last checkpoint — the replay debt a
    /// crash right now would incur (plus any records group-commit has
    /// not yet made durable).
    pub fn records_since_checkpoint(&self) -> u64 {
        self.records_since_checkpoint
    }

    /// Checkpoints written by this instance.
    pub fn checkpoints_written(&self) -> u64 {
        self.checkpoints_written
    }

    /// What those checkpoints cost: bytes the last one wrote, live and
    /// dead bytes in the checkpoint log, log rewrites so far.
    pub fn checkpoint_stats(&self) -> CheckpointStats {
        self.ckpt.stats()
    }

    /// Fsyncs the journal writer has issued (see [`WalWriter::fsyncs`]).
    pub fn wal_fsyncs(&self) -> u64 {
        self.wal.fsyncs()
    }

    /// Journal-first ingestion: the record is appended to the WAL, then
    /// applied to the engine, then the automatic checkpoint cadence
    /// runs. An error means the record was **not** applied — the engine
    /// never holds state the journal cannot re-derive.
    pub fn push(&mut self, r: PositionReport) -> Result<(), JournalError> {
        self.wal.push(r)?;
        self.engine.push(r);
        self.records_since_checkpoint += 1;
        if self.checkpoint_every_records > 0
            && self.records_since_checkpoint >= self.checkpoint_every_records
        {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Writes a checkpoint: flushes the journal (so `wal_seq` covers
    /// everything the engine has applied), appends what the engine state
    /// gained since the last checkpoint to the checkpoint log next to the
    /// segments, and commits it by replacing the head atomically — all
    /// before returning. Replay after a crash resumes from here; on an
    /// error the previous checkpoint still stands.
    pub fn checkpoint(&mut self) -> Result<(), JournalError> {
        self.wal.flush()?;
        let wal_seq = self.wal.next_seq();
        self.ckpt.write(&self.engine, wal_seq, self.window_cuts)?;
        self.records_since_checkpoint = 0;
        self.checkpoints_written += 1;
        self.checkpoint_wal_seq = wal_seq;
        Ok(())
    }

    /// Deletes journal segments fully covered by the newest checkpoint.
    pub fn purge_covered(&self) -> Result<Vec<String>, JournalError> {
        self.wal.purge_covered(self.checkpoint_wal_seq)
    }

    /// Cuts the next delta window, flushing the journal first so the
    /// published generation is always re-derivable from durable
    /// segments ("publish implies journal durable to the cut").
    pub fn take_window_delta(&mut self, engine: &Engine) -> Result<Inventory, JournalError> {
        self.wal.flush()?;
        let delta = self.engine.take_window_delta(engine)?;
        self.window_cuts += 1;
        Ok(delta)
    }

    /// Clean shutdown: flushes and seals the journal tail, then closes
    /// the engine into the final inventory.
    pub fn close(self, engine: &Engine) -> Result<StreamOutput, JournalError> {
        self.wal.seal()?;
        Ok(self.engine.close(engine)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_ais::types::{Mmsi, NavStatus};
    use pol_geo::LatLon;

    fn report(mmsi: u32, ts: i64) -> PositionReport {
        PositionReport {
            mmsi: Mmsi(mmsi),
            timestamp: ts,
            pos: LatLon::new(10.0 + (ts % 70) as f64, -20.0 + (ts % 150) as f64).unwrap(),
            sog_knots: Some((ts % 40) as f64),
            cog_deg: Some((ts % 360) as f64),
            heading_deg: None,
            nav_status: NavStatus::UnderWayUsingEngine,
        }
    }

    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn journal_round_trips_across_rotated_segments() {
        let dir = fresh_dir("pol-journal-rotate");
        let cfg = WalConfig {
            batch_records: 16,
            group_commit_batches: 2,
            max_segment_bytes: 2_048, // force frequent rotation
        };
        let mut w = WalWriter::create(&dir, cfg).unwrap();
        let records: Vec<PositionReport> = (0..1_000)
            .map(|i| report(200_000_001 + (i % 5) as u32, i as i64))
            .collect();
        for &r in &records {
            w.push(r).unwrap();
        }
        w.seal().unwrap();

        let load = WalReader::load(&dir).unwrap();
        assert!(load.segments > 1, "rotation must have produced segments");
        assert_eq!(load.torn_bytes, 0);
        assert_eq!(load.records(), 1_000);
        let replayed: Vec<PositionReport> = load
            .batches
            .iter()
            .flat_map(|b| b.records.iter().copied())
            .collect();
        assert_eq!(replayed, records, "journal must preserve raw wire order");
        for (i, b) in load.batches.iter().enumerate() {
            assert_eq!(b.seq, i as u64, "batch sequences are journal-global");
        }
    }

    #[test]
    fn resume_continues_the_sequence_after_flush() {
        let dir = fresh_dir("pol-journal-resume");
        let cfg = WalConfig {
            batch_records: 8,
            ..WalConfig::default()
        };
        let mut w = WalWriter::create(&dir, cfg).unwrap();
        for i in 0..20 {
            w.push(report(200_000_001, i)).unwrap();
        }
        w.flush().unwrap();
        drop(w); // simulated crash: tail is unsealed

        let load = WalReader::load(&dir).unwrap();
        assert_eq!(load.records(), 20, "flush made every record durable");
        let mut w = WalWriter::resume(&dir, cfg, &load).unwrap();
        assert_eq!(w.next_seq(), load.next_seq);
        for i in 20..40 {
            w.push(report(200_000_001, i)).unwrap();
        }
        w.seal().unwrap();
        let load = WalReader::load(&dir).unwrap();
        assert_eq!(load.records(), 40);
        assert_eq!(load.torn_bytes, 0);
    }

    #[test]
    fn create_refuses_an_existing_journal() {
        let dir = fresh_dir("pol-journal-no-clobber");
        let w = WalWriter::create(&dir, WalConfig::default()).unwrap();
        drop(w);
        assert!(matches!(
            WalWriter::create(&dir, WalConfig::default()),
            Err(JournalError::State(_)),
        ));
    }

    #[test]
    fn fsyncs_are_counted_where_they_are_issued() {
        let dir = fresh_dir("pol-journal-fsyncs");
        let cfg = WalConfig {
            batch_records: 4,
            group_commit_batches: 2,
            max_segment_bytes: 1 << 20,
        };
        let mut w = WalWriter::create(&dir, cfg).unwrap();
        assert_eq!(w.fsyncs(), 1, "the first segment's header");
        for i in 0..8 {
            w.push(report(200_000_001, i)).unwrap();
        }
        assert_eq!(w.fsyncs(), 2, "two frames are one group commit");
        w.flush().unwrap();
        assert_eq!(w.fsyncs(), 2, "nothing appended since: nothing to sync");
        w.push(report(200_000_001, 8)).unwrap();
        w.flush().unwrap();
        assert_eq!(w.fsyncs(), 3, "a flush covering a partial frame");

        let tiny = WalConfig {
            max_segment_bytes: 64,
            ..cfg
        };
        let dir = fresh_dir("pol-journal-fsyncs-rotate");
        let mut w = WalWriter::create(&dir, tiny).unwrap();
        for i in 0..8 {
            w.push(report(200_000_001, i)).unwrap();
        }
        // Frame 1 fills the first segment; frame 2 seals it (which makes
        // frame 1 durable and starts the group over) and opens the next.
        assert_eq!(w.fsyncs(), 1 + 2);
    }

    #[test]
    fn purge_removes_only_fully_covered_segments() {
        let dir = fresh_dir("pol-journal-purge");
        let cfg = WalConfig {
            batch_records: 8,
            group_commit_batches: 1,
            max_segment_bytes: 1_024,
        };
        let mut w = WalWriter::create(&dir, cfg).unwrap();
        for i in 0..400 {
            w.push(report(200_000_001, i)).unwrap();
        }
        w.flush().unwrap();
        let before = WalReader::load(&dir).unwrap();
        assert!(before.segments >= 3);

        // A checkpoint at the journal head covers every batch; the tail
        // still survives.
        let removed = w.purge_covered(w.next_seq()).unwrap();
        assert_eq!(removed.len(), before.segments - 1);
        let after = WalReader::load(&dir).unwrap();
        assert_eq!(after.segments, 1);
        assert_eq!(after.next_seq, before.next_seq, "sequence is preserved");

        // Nothing is covered at seq 0: purge is a no-op.
        assert!(w.purge_covered(0).unwrap().is_empty());
    }
}
