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
//! The pushing thread never touches the file. It encodes each record
//! into the frame being filled and hands a full frame to the writer's
//! I/O thread, which owns the tail segment and does the CRC, the write,
//! the group commit's fsync, rotation and sealing. A durability barrier
//! is therefore two calls — [`WalWriter::flush_begin`] asks,
//! [`WalWriter::wait_durable`] waits — and whoever holds the writer can
//! do work of its own in between.
//!
//! [`JournaledEngine`] threads the writer in front of
//! [`StreamEngine::push`]: journal first, apply second, so the durable
//! prefix of the journal always covers at least what any checkpoint or
//! published delta was derived from. Its two barriers:
//!
//! * **checkpoint** — begins the flush (pending frame + fsync), appends
//!   and fsyncs what the engine gained since the last checkpoint to the
//!   checkpoint log ([`crate::checkpoint`]) while the journal syncs,
//!   waits for the journal, and only then commits the head with
//!   `wal_seq` = batches durable, so replay applies exactly the suffix
//!   `seq >= wal_seq`, no double-apply, no gap. A head never names a
//!   `wal_seq` that is not durable; a log frame written ahead of a flush
//!   that then fails is an orphan tail, cut off by the next append;
//! * **window cut** — begins the flush, folds the window, and waits
//!   before handing the delta out, so a published generation is always
//!   re-derivable from the journal ("publish implies journal durable to
//!   the cut").
//!
//! Recovery (in [`crate::recover`](mod@crate::recover)) is the inverse: newest checkpoint,
//! plus a replay of the journal suffix, reconverges byte-identically —
//! pinned by the crash-point sweep in `tests/recovery.rs`.

use crate::checkpoint::{CheckpointStats, CheckpointWriter};
use crate::ingest::{IngestCounters, StreamEngine, StreamOutput};
use pol_ais::PositionReport;
use pol_core::codec::wal::{self, FrameBuf, SegmentWriter, WalError};
use pol_core::codec::CodecError;
use pol_core::{Inventory, PipelineError};
use pol_engine::Engine;
use std::collections::VecDeque;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Tunables of the journal layer.
///
/// **Durability lag.** A pushed record is durable once a group commit or
/// a barrier has covered it. Frames are written and fsynced on the
/// writer's I/O thread while the caller fills the next ones, so what a
/// crash can lose is the group being synced plus the group being
/// filled: at most `2 × batch_records × group_commit_batches` records
/// plus one partial frame. Anything that must not be lost — a
/// checkpoint's `wal_seq`, a published window — sits behind a barrier,
/// which returns `Ok` only when every record pushed before it is on
/// disk.
#[derive(Clone, Copy, Debug)]
pub struct WalConfig {
    /// Records buffered per appended batch frame.
    pub batch_records: usize,
    /// Batch frames per fsync (the group-commit interval), and the
    /// number of frame buffers a writer owns: with that many frames
    /// handed over and not yet written, the next push waits.
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
    /// resume) prefix. The load's batches have moved to
    /// [`WalLoad::batches`]; what is left is what a resume reads.
    Resume(PathBuf, wal::SegmentLoad),
    /// The final segment's header itself was torn — nothing durable in
    /// it; resume recreates the file in place.
    Recreate(PathBuf, u64),
}

/// What a journal-directory load found.
pub struct WalLoad {
    /// The durable batches of the segments read, in sequence order:
    /// every one of them, or those from the `from_seq` of
    /// [`WalReader::load_from`] onward. The first batch's sequence
    /// exceeds zero when covered segments were purged or the load began
    /// later.
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
    /// unread; inside that segment the frames below `from_seq` are
    /// length-, CRC- and sequence-checked but not decoded, and not
    /// returned. Segments on disk that all start past `from_seq` are a
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

        let from_seq = from_seq.unwrap_or(0);
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
            let mut load = match wal::read_segment_from(&bytes, from_seq) {
                Ok(load) => load,
                // The tail's own header never became durable: the
                // journal ends at the previous segment, and resume
                // recreates this file in place.
                Err(WalError::BadHeader) if last => {
                    torn_bytes += bytes.len() as u64;
                    tail = Some(Tail::Recreate(path, name_seq));
                    next_seq.get_or_insert(name_seq);
                    continue;
                }
                Err(e) => return Err(JournalError::Wal(e)),
            };
            if !last && !load.sealed {
                return Err(JournalError::Wal(WalError::Unsealed));
            }
            if load.first_seq != name_seq {
                return Err(JournalError::State(
                    "segment header disagrees with its name",
                ));
            }
            torn_bytes += load.torn_bytes;
            batches.append(&mut load.batches);
            next_seq = Some(load.first_seq + load.frames);
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

const POISONED: JournalError = JournalError::State("journal writer poisoned by a failed rotation");
const IO_THREAD_GONE: JournalError = JournalError::State("journal I/O thread is gone");

/// What the writer asks of its I/O thread, in order.
enum Cmd {
    /// Append this frame.
    Frame(FrameBuf),
    /// Make everything handed over so far durable, and say so.
    Flush,
    /// The same, then seal the tail and exit.
    Seal,
}

/// What the I/O thread tells the writer, in the order things happened.
enum Event {
    /// A frame is in the file and its buffer is free again.
    Written(FrameBuf),
    /// An append, a group commit's fsync or a rotation failed. A frame
    /// that is not in the file is kept, with every frame behind it, for
    /// the next barrier to retry.
    Failed(JournalError),
    /// The answer to a [`Cmd::Flush`] or [`Cmd::Seal`]: the fsyncs issued
    /// so far, or why not everything handed over is durable.
    Barrier(Result<u64, JournalError>),
}

/// The I/O thread's side of a [`WalWriter`]: the tail segment and the
/// group-commit state. Everything that touches the file is here.
struct Appender {
    dir: PathBuf,
    cfg: WalConfig,
    /// `None` only after a failed rotation or seal left no live tail —
    /// the writer is poisoned and every later append fails typed rather
    /// than risking an out-of-order segment chain.
    seg: Option<SegmentWriter>,
    /// Frames handed over and not yet in the file, oldest first; more
    /// than one only behind a failed append.
    waiting: VecDeque<FrameBuf>,
    unsynced: u64,
    fsyncs: u64,
    events: Sender<Event>,
    failed: Arc<AtomicBool>,
}

impl Appender {
    fn run(mut self, cmds: Receiver<Cmd>) {
        // A send to the writer cannot fail while this runs: the writer
        // keeps its receiver until it has joined this thread.
        for cmd in cmds {
            match cmd {
                Cmd::Frame(frame) => {
                    self.waiting.push_back(frame);
                    // Behind a failed append a frame only queues: the
                    // next barrier retries them all, in order.
                    if self.waiting.len() > 1 {
                        continue;
                    }
                    if let Err(e) = self.append_waiting() {
                        let _ = self.events.send(Event::Failed(e));
                        // After the event, and `Release` against the
                        // `Acquire` load in `push`, so a writer that sees
                        // the flag finds the error in the channel.
                        self.failed.store(true, Ordering::Release);
                    }
                }
                Cmd::Flush => {
                    let durable = self.flush().map(|()| self.fsyncs);
                    let _ = self.events.send(Event::Barrier(durable));
                }
                Cmd::Seal => {
                    let sealed = self.seal().map(|()| self.fsyncs);
                    let _ = self.events.send(Event::Barrier(sealed));
                    return;
                }
            }
        }
        // The writer hung up without sealing: dropped, a crash. What it
        // had handed over is written; nothing more is synced or sealed.
    }

    /// Appends every waiting frame, group-committing as it goes.
    fn append_waiting(&mut self) -> Result<(), JournalError> {
        let max = self.cfg.max_segment_bytes;
        while !self.waiting.is_empty() {
            let full = matches!(&self.seg, Some(seg) if seg.len() >= max && !seg.is_empty());
            if full {
                self.rotate()?;
            }
            let (Some(seg), Some(frame)) = (self.seg.as_mut(), self.waiting.front_mut()) else {
                return Err(POISONED);
            };
            seg.append_frame(frame)?;
            if let Some(mut frame) = self.waiting.pop_front() {
                frame.clear();
                let _ = self.events.send(Event::Written(frame));
            }
            self.unsynced += 1;
            if self.unsynced >= self.cfg.group_commit_batches {
                self.sync()?;
            }
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), JournalError> {
        self.seg.as_mut().ok_or(POISONED)?.sync()?;
        self.unsynced = 0;
        self.fsyncs += 1;
        Ok(())
    }

    /// Seals the full tail and opens the next segment. Seal-first
    /// ordering is load-bearing: a crash between the two leaves an
    /// all-sealed journal (an empty tail the reader treats as such),
    /// never an unsealed segment followed by another.
    fn rotate(&mut self) -> Result<(), JournalError> {
        let old = self.seg.take().ok_or(POISONED)?;
        let next = old.next_seq();
        old.seal()?;
        let seg = SegmentWriter::create(&self.dir.join(segment_name(next)), next)?;
        self.seg = Some(seg);
        self.unsynced = 0;
        self.fsyncs += 2;
        Ok(())
    }

    fn flush(&mut self) -> Result<(), JournalError> {
        self.append_waiting()?;
        if self.unsynced > 0 {
            self.sync()?;
        }
        Ok(())
    }

    fn seal(&mut self) -> Result<(), JournalError> {
        self.append_waiting()?;
        self.seg.take().ok_or(POISONED)?.seal()?;
        Ok(())
    }
}

/// Appends the journal: batching on the calling thread; group commit,
/// segment rotation and every byte of file I/O on a thread of its own.
///
/// **Errors.** An I/O error on that thread is returned by the next
/// [`push`](Self::push) — before its record is buffered — or by the next
/// barrier, whichever comes first, and once. A frame whose write failed
/// is neither dropped nor written twice: it is kept, with the frames
/// behind it, and the next barrier appends them in order. A barrier
/// returns `Ok` only if everything pushed before it is durable. A failed
/// seal or rotation poisons the writer (every later barrier fails; a
/// [`resume`](Self::resume) of the directory heals it), and a dead I/O
/// thread is a [`JournalError::State`], never a hang.
///
/// **Drop is a crash.** Dropping the writer flushes nothing, fsyncs
/// nothing and seals nothing: the frame being filled is lost, frames
/// already handed over reach the file or not as the I/O thread gets to
/// them, and the thread is joined, so the segment's handle is closed
/// when the drop returns. [`seal`](Self::seal) is the clean end.
pub struct WalWriter {
    dir: PathBuf,
    cfg: WalConfig,
    /// The frame being filled; `None` until a push needs one.
    frame: Option<FrameBuf>,
    /// Buffers back from the I/O thread.
    spare: Vec<FrameBuf>,
    /// Buffers allocated so far, at most `group_commit_batches`: the
    /// bound on frames in flight.
    buffers: usize,
    next_seq: u64,
    /// As of the last barrier.
    fsyncs: u64,
    /// A barrier was begun and its answer has not arrived.
    barrier_begun: bool,
    /// The last thing heard was a failure: the I/O thread may be holding
    /// every buffer until a barrier retries, so no push waits for one.
    stalled: bool,
    /// The first error not yet returned to the caller.
    fault: Option<JournalError>,
    /// Raised by the I/O thread behind an [`Event::Failed`]: what a push
    /// checks instead of polling the channel.
    failed: Arc<AtomicBool>,
    /// `None` once dropped: the hang-up that ends the I/O thread.
    cmds: Option<Sender<Cmd>>,
    events: Receiver<Event>,
    thread: Option<JoinHandle<()>>,
}

impl WalWriter {
    /// Starts a fresh journal in `dir` (created if missing), refusing a
    /// directory that already holds segments — resuming an existing
    /// journal without replaying it would silently fork history; use
    /// [`recover`](fn@crate::recover) for that.
    pub fn create(dir: &Path, cfg: WalConfig) -> Result<WalWriter, JournalError> {
        std::fs::create_dir_all(dir).map_err(|e| JournalError::Wal(WalError::Io(e)))?;
        let existing = WalReader::load(dir)?;
        if existing.segments > 0 {
            return Err(JournalError::State(
                "journal directory already holds segments; recover instead of creating",
            ));
        }
        let seg = SegmentWriter::create(&dir.join(segment_name(0)), 0)?;
        WalWriter::start(dir, cfg, seg, 1)
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
        WalWriter::start(dir, cfg, seg, 0)
    }

    /// Hands the open tail to a new I/O thread.
    fn start(
        dir: &Path,
        cfg: WalConfig,
        seg: SegmentWriter,
        fsyncs: u64,
    ) -> Result<WalWriter, JournalError> {
        let (cmds, cmds_rx) = mpsc::channel();
        let (events_tx, events) = mpsc::channel();
        let failed = Arc::new(AtomicBool::new(false));
        let next_seq = seg.next_seq();
        let appender = Appender {
            dir: dir.to_path_buf(),
            cfg,
            seg: Some(seg),
            waiting: VecDeque::new(),
            unsynced: 0,
            fsyncs,
            events: events_tx,
            failed: Arc::clone(&failed),
        };
        let thread = std::thread::Builder::new()
            .name("pol-wal".to_string())
            .spawn(move || appender.run(cmds_rx))
            .map_err(|e| JournalError::Wal(WalError::Io(e)))?;
        Ok(WalWriter {
            dir: dir.to_path_buf(),
            cfg,
            frame: None,
            spare: Vec::new(),
            buffers: 0,
            next_seq,
            fsyncs,
            barrier_begun: false,
            stalled: false,
            fault: None,
            failed,
            cmds: Some(cmds),
            events,
            thread: Some(thread),
        })
    }

    /// Fsyncs this writer has issued since it was created or resumed,
    /// exact as of the last barrier: one per segment it created (the
    /// header), per group commit or barrier that had frames to cover,
    /// and per seal. Whatever a resume did to repair the tail is
    /// recovery's, not counted here.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Records buffered but not yet handed over as a frame.
    pub fn pending_records(&self) -> usize {
        self.frame.as_ref().map_or(0, FrameBuf::records)
    }

    /// Frame buffers this writer has allocated — never more than
    /// [`WalConfig::group_commit_batches`], however far the disk falls
    /// behind.
    pub fn frame_buffers(&self) -> usize {
        self.buffers
    }

    /// The sequence the next batch will carry — after a
    /// [`flush`](Self::flush), the number of durable batches.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    fn send(&self, cmd: Cmd) -> Result<(), JournalError> {
        let cmds = self.cmds.as_ref().ok_or(IO_THREAD_GONE)?;
        cmds.send(cmd).map_err(|_| IO_THREAD_GONE)
    }

    fn hand_over(&mut self, frame: FrameBuf) -> Result<(), JournalError> {
        self.next_seq += 1;
        self.send(Cmd::Frame(frame))
    }

    fn absorb(&mut self, event: Event) {
        match event {
            Event::Written(frame) => self.spare.push(frame),
            Event::Failed(e) => self.fail(e),
            Event::Barrier(answer) => {
                self.barrier_begun = false;
                match answer {
                    Ok(fsyncs) => {
                        self.fsyncs = fsyncs;
                        self.stalled = false;
                    }
                    Err(e) => self.fail(e),
                }
            }
        }
    }

    fn fail(&mut self, e: JournalError) {
        self.stalled = true;
        self.fault.get_or_insert(e);
    }

    /// Takes in what the I/O thread has said so far, without waiting,
    /// and returns the first error not yet returned, if there is one.
    fn surface(&mut self) -> Result<(), JournalError> {
        self.failed.store(false, Ordering::Relaxed);
        while let Ok(event) = self.events.try_recv() {
            self.absorb(event);
        }
        self.fault.take().map_or(Ok(()), Err)
    }

    /// Waits for one more word from the I/O thread.
    fn listen(&mut self) -> Result<(), JournalError> {
        let event = self.events.recv().map_err(|_| IO_THREAD_GONE)?;
        self.absorb(event);
        Ok(())
    }

    /// A buffer to fill: one that came back, a new one while fewer than
    /// `group_commit_batches` exist, else the next to come back.
    fn acquire(&mut self) -> Result<FrameBuf, JournalError> {
        loop {
            self.surface()?;
            if let Some(frame) = self.spare.pop() {
                return Ok(frame);
            }
            if (self.buffers as u64) < self.cfg.group_commit_batches.max(1) {
                self.buffers += 1;
                return Ok(FrameBuf::with_capacity(self.cfg.batch_records));
            }
            if self.stalled {
                return Err(JournalError::State(
                    "every journal buffer is behind a failed append; the next barrier retries",
                ));
            }
            self.listen()?;
        }
    }

    /// Journals one record. The record is durable only after the group
    /// commit (or a barrier) reaches it. On an error the record was not
    /// buffered.
    pub fn push(&mut self, r: PositionReport) -> Result<(), JournalError> {
        if self.failed.load(Ordering::Acquire) {
            self.surface()?;
        }
        let mut frame = match self.frame.take() {
            Some(frame) => frame,
            None => self.acquire()?,
        };
        frame.push(&r);
        if frame.records() < self.cfg.batch_records {
            self.frame = Some(frame);
            return Ok(());
        }
        self.hand_over(frame)
    }

    /// Settles whatever is outstanding, hands over the partial frame (if
    /// any) and asks the I/O thread for `barrier`.
    fn begin(&mut self, barrier: Cmd) -> Result<(), JournalError> {
        self.wait_durable()?;
        if let Some(frame) = self.frame.take_if(|f| f.records() > 0) {
            self.hand_over(frame)?;
        }
        self.send(barrier)?;
        self.barrier_begun = true;
        Ok(())
    }

    /// Begins the durability barrier: hands over the partial frame (if
    /// any) and asks for an fsync of whatever is not yet covered.
    /// Returns the sequence the journal will be durable to once
    /// [`wait_durable`](Self::wait_durable) has returned `Ok`.
    pub fn flush_begin(&mut self) -> Result<u64, JournalError> {
        self.begin(Cmd::Flush)?;
        Ok(self.next_seq)
    }

    /// Waits for the barrier begun last (at once, if none is pending):
    /// `Ok` means every record pushed before it is durable.
    pub fn wait_durable(&mut self) -> Result<(), JournalError> {
        while self.barrier_begun {
            self.listen()?;
        }
        self.surface()
    }

    /// The durability barrier in one call.
    pub fn flush(&mut self) -> Result<(), JournalError> {
        self.flush_begin()?;
        self.wait_durable()
    }

    /// Flushes and seals the tail — the clean-shutdown end of the
    /// journal, after which every segment is sealed.
    pub fn seal(mut self) -> Result<(), JournalError> {
        self.begin(Cmd::Seal)?;
        self.wait_durable()
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

impl Drop for WalWriter {
    fn drop(&mut self) {
        self.cmds = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// A [`StreamEngine`] fronted by the journal: push journals first and
/// applies second, checkpoints bound replay, and window cuts imply the
/// journal is durable to the cut. Dropping it is a crash (see
/// [`WalWriter`]): [`close`](Self::close) is the clean end.
pub struct JournaledEngine {
    engine: StreamEngine,
    wal: WalWriter,
    ckpt: CheckpointWriter,
    window_cuts: u64,
    /// A window folded out of the engine whose cut did not complete:
    /// the journal flush behind it failed.
    uncut: Option<Inventory>,
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
            uncut: None,
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
            uncut: None,
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

    /// Journal-first ingestion: the record is handed to the journal,
    /// then applied to the engine, then the automatic checkpoint cadence
    /// runs. An error from the journal — its own, or one its I/O thread
    /// met since the last call — means the record was **not** buffered
    /// or applied. The engine is never ahead of a *barrier*: it may hold
    /// records the journal has not yet made durable (at most the lag
    /// [`WalConfig`] states), but nothing derived from it is committed
    /// or handed out before a barrier has covered them. (An error from
    /// the cadence's checkpoint is that checkpoint's: the record is
    /// journaled and applied, and the previous checkpoint stands.)
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

    /// Writes a checkpoint: begins the journal flush, and while the
    /// journal syncs appends what the engine state gained since the last
    /// checkpoint to the checkpoint log next to the segments and fsyncs
    /// it; waits for the journal (so `wal_seq` covers everything the
    /// engine has applied), and only then commits by replacing the head
    /// atomically — all before returning. Replay after a crash resumes
    /// from here; on an error the previous checkpoint still stands.
    ///
    /// The order is what makes the overlap safe: the log frame is
    /// invisible until a head names it, the head is written after the
    /// wait, so no loadable checkpoint ever names a `wal_seq` the journal
    /// does not hold. A frame appended ahead of a flush that then fails
    /// is an orphan tail the next append cuts back.
    pub fn checkpoint(&mut self) -> Result<(), JournalError> {
        if self.uncut.is_some() {
            return Err(JournalError::State(
                "a folded window awaits its cut; retry take_window_delta first",
            ));
        }
        let wal_seq = self.wal.flush_begin()?;
        let staged = self.ckpt.stage(&self.engine, wal_seq, self.window_cuts);
        self.wal.wait_durable()?;
        self.ckpt.commit(staged?)?;
        self.records_since_checkpoint = 0;
        self.checkpoints_written += 1;
        self.checkpoint_wal_seq = wal_seq;
        Ok(())
    }

    /// Deletes journal segments fully covered by the newest checkpoint.
    pub fn purge_covered(&self) -> Result<Vec<String>, JournalError> {
        self.wal.purge_covered(self.checkpoint_wal_seq)
    }

    /// Cuts the next delta window: begins the journal flush, folds the
    /// window while the journal syncs, and waits for the journal before
    /// handing the delta out, so the published generation is always
    /// re-derivable from durable segments ("publish implies journal
    /// durable to the cut" — the delta leaves this call only behind the
    /// barrier, exactly where it did when the flush came first).
    ///
    /// If the flush fails after the fold, the window is already folded
    /// out of the engine: the delta is kept, checkpoints are refused
    /// (one would record the window as consumed and not cut), and the
    /// next call retries the barrier and hands out the same delta.
    pub fn take_window_delta(&mut self, engine: &Engine) -> Result<Inventory, JournalError> {
        self.wal.flush_begin()?;
        let folded = match self.uncut.take() {
            Some(delta) => Ok(delta),
            None => self.engine.take_window_delta(engine),
        };
        let durable = self.wal.wait_durable();
        let delta = folded?;
        if let Err(e) = durable {
            self.uncut = Some(delta);
            return Err(e);
        }
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
        // The count is the I/O thread's, read at a barrier.
        w.flush().unwrap();
        assert_eq!(
            w.fsyncs(),
            2,
            "two frames are one group commit, and the barrier found nothing left to sync"
        );
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
        w.flush().unwrap();
        // Frame 1 fills the first segment; frame 2 seals it (which makes
        // frame 1 durable and starts the group over) and opens the next;
        // the barrier syncs frame 2.
        assert_eq!(w.fsyncs(), 1 + 2 + 1);
    }

    /// The journal as one loop on the calling thread, the way it was
    /// written before the writer had a thread: the oracle for segment
    /// bytes and the fsync count. `barriers` are record counts after
    /// which the feed flushes. Returns the fsyncs issued.
    fn reference_journal(
        dir: &Path,
        cfg: WalConfig,
        records: &[PositionReport],
        barriers: &[usize],
    ) -> u64 {
        std::fs::create_dir_all(dir).unwrap();
        let mut seg = SegmentWriter::create(&dir.join(segment_name(0)), 0).unwrap();
        let (mut fsyncs, mut unsynced, mut pending) = (1u64, 0u64, Vec::new());
        for (i, r) in records.iter().enumerate() {
            pending.push(*r);
            let barrier = barriers.contains(&(i + 1));
            if pending.len() >= cfg.batch_records || barrier {
                if seg.len() >= cfg.max_segment_bytes && !seg.is_empty() {
                    let next = seg.next_seq();
                    seg.seal().unwrap();
                    seg = SegmentWriter::create(&dir.join(segment_name(next)), next).unwrap();
                    (fsyncs, unsynced) = (fsyncs + 2, 0);
                }
                seg.append_batch(&pending).unwrap();
                pending.clear();
                unsynced += 1;
            }
            if unsynced >= cfg.group_commit_batches || (barrier && unsynced > 0) {
                seg.sync().unwrap();
                (fsyncs, unsynced) = (fsyncs + 1, 0);
            }
        }
        seg.seal().unwrap();
        fsyncs
    }

    fn files_of(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap())
            .map(|e| {
                (
                    e.file_name().into_string().unwrap(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn the_threaded_writer_leaves_the_reference_loops_bytes_and_fsyncs() {
        let records: Vec<PositionReport> = (0..3_000)
            .map(|i| report(200_000_001 + (i % 7) as u32, i as i64 * 3))
            .collect();
        // Barriers mid-frame, on a frame boundary, back to back, and at
        // the end (so the counts are compared at a barrier).
        let barriers = [5, 160, 161, 1_600, 2_999, 3_000];
        for (batch_records, group_commit_batches, max_segment_bytes) in [
            (16, 3, 4_096),
            (256, 8, 8 << 20),
            (7, 1, 900),
            (130, 2, 20_000),
        ] {
            let cfg = WalConfig {
                batch_records,
                group_commit_batches,
                max_segment_bytes,
            };
            let want_dir = fresh_dir("pol-journal-identity-reference");
            let want_fsyncs = reference_journal(&want_dir, cfg, &records, &barriers);

            let dir = fresh_dir("pol-journal-identity");
            let mut w = WalWriter::create(&dir, cfg).unwrap();
            for (i, &r) in records.iter().enumerate() {
                w.push(r).unwrap();
                if barriers.contains(&(i + 1)) {
                    w.flush().unwrap();
                }
            }
            assert_eq!(w.fsyncs(), want_fsyncs, "{cfg:?}");
            assert!(w.frame_buffers() as u64 <= group_commit_batches);
            w.seal().unwrap();
            let (got, want) = (files_of(&dir), files_of(&want_dir));
            assert_eq!(
                got.iter().map(|(n, _)| n).collect::<Vec<_>>(),
                want.iter().map(|(n, _)| n).collect::<Vec<_>>(),
                "{cfg:?}: the same segments"
            );
            for ((name, got), (_, want)) in got.iter().zip(&want) {
                assert!(got == want, "{cfg:?}: {name} differs");
            }
            if max_segment_bytes < 1 << 20 {
                assert!(got.len() > 2, "{cfg:?}: the feed must rotate");
            }
        }
    }

    #[test]
    fn a_barrier_begun_is_settled_by_whatever_comes_next() {
        let dir = fresh_dir("pol-journal-begin-wait");
        let cfg = WalConfig {
            batch_records: 4,
            group_commit_batches: 2,
            ..WalConfig::default()
        };
        let mut w = WalWriter::create(&dir, cfg).unwrap();
        for i in 0..6 {
            w.push(report(200_000_001, i)).unwrap();
        }
        // Begun and not waited for: pushes go on, the next barrier
        // settles the first before it begins its own.
        assert_eq!(w.flush_begin().unwrap(), 2);
        assert_eq!(w.pending_records(), 0, "the partial frame went with it");
        for i in 6..9 {
            w.push(report(200_000_001, i)).unwrap();
        }
        assert_eq!(w.flush_begin().unwrap(), 3);
        w.wait_durable().unwrap();
        w.wait_durable().unwrap();
        assert_eq!(w.next_seq(), 3);
        drop(w);
        let load = WalReader::load(&dir).unwrap();
        assert_eq!(load.records(), 9);
        assert_eq!(load.batches.len(), 3);
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
