//! POLWAL1 — the append-only write-ahead journal segment format.
//!
//! The streaming engine's durability story (`pol-stream::journal`) rests
//! on this codec: every wire record is appended to a WAL segment
//! *before* it is pushed into the in-memory engine, so a crash can lose
//! at most the records of batches not yet flushed — and recovery can
//! replay the journal to reconverge byte-identically.
//!
//! ## On-disk layout
//!
//! ```text
//! magic    b"POLWAL1\0"                                    8 bytes
//! header   u32 LE section length                           4 bytes
//!          first-batch-sequence varint                      (length bytes)
//!          u64 LE CRC-64/XZ of the section bytes            8 bytes
//! batch*   u32 LE payload length (never 0xFFFF_FFFF)        4 bytes
//!          payload: seq varint, record-count varint,
//!                   then each record (see below)             (length bytes)
//!          u64 LE CRC-64/XZ of the payload                  8 bytes
//! seal?    u32 LE 0xFFFF_FFFF sentinel                      4 bytes
//!          u64 LE total file length, b"POLSEAL\0"          16 bytes
//! ```
//!
//! Records encode as: mmsi varint, timestamp zigzag varint, raw f64
//! latitude + longitude, a presence-flags byte (bit 0 speed, bit 1
//! course, bit 2 heading), the present `f64`s in that order, and the
//! raw navigational-status byte.
//!
//! ## Torn tails vs corruption
//!
//! A WAL segment is the one file in the system that is *expected* to be
//! caught mid-write by a crash, so the failure semantics differ from
//! the sealed snapshot formats:
//!
//! * an **unsealed** segment whose final batch is incomplete (frame
//!   runs past end of file, or its CRC fails with nothing after it) has
//!   a *torn tail*: every batch before it is served, the tail is
//!   reported and discarded, never served;
//! * a batch whose CRC fails while **complete further bytes follow
//!   it** is mid-file corruption — typed error, nothing served;
//! * a **sealed** segment admits no tail at all: any framing or CRC
//!   defect is a typed error, exactly like the snapshot formats.
//!
//! The distinction is what lets recovery treat "the process died while
//! appending" as normal (`tests/codec_wal.rs` proves the tolerant
//! loader never panics and never serves a torn batch) while still
//! refusing bit rot in the middle of the journal.

use super::FOOTER_MAGIC;
use pol_ais::types::{Mmsi, NavStatus};
use pol_ais::PositionReport;
use pol_geo::LatLon;
use pol_sketch::crc64::crc64;
use pol_sketch::wire::{
    get_f64, get_i64, get_varint, put_f64, put_i64, put_varint, varint_bytes, WireError,
};
use std::fmt;
use std::io::{self, Seek, Write};
use std::path::{Path, PathBuf};

/// WAL segment file magic.
pub const MAGIC_WAL: &[u8; 8] = b"POLWAL1\0";

/// Frame-length sentinel announcing the seal instead of a batch.
pub const SEAL_SENTINEL: u32 = u32::MAX;

/// A conservative lower bound on one encoded record: mmsi varint (1) +
/// timestamp varint (1) + two raw `f64`s (16) + flags (1) + nav status
/// (1). Bounds the allocation a hostile record count can demand.
pub const MIN_RECORD_BYTES: usize = 20;

/// The most one encoded record takes: mmsi varint (5) + timestamp varint
/// (10) + two raw `f64`s (16) + flags (1) + three optional `f64`s (24) +
/// nav status (1). Sizes a frame buffer so that it never regrows.
const MAX_RECORD_BYTES: usize = 57;

/// An upper bound on one batch frame's payload, far above anything the
/// writer produces (the journal flushes batches of hundreds of
/// records): a corrupt length field cannot make the reader treat half
/// the file as one frame without tripping this first.
pub const MAX_BATCH_BYTES: usize = 1 << 28;

/// Errors from reading or writing a WAL segment.
#[derive(Debug)]
pub enum WalError {
    /// I/O failure.
    Io(io::Error),
    /// Decode failure inside a CRC-valid payload (an encoder bug or an
    /// impossibly collided checksum, not ordinary corruption).
    Wire(WireError),
    /// Wrong magic / not a WAL segment.
    BadHeader,
    /// The segment carries no valid seal in a context that requires one
    /// (every non-final segment of a journal must be sealed).
    Unsealed,
    /// A section's bytes do not match their recorded CRC-64 in a
    /// position a torn write cannot explain: bit rot or in-place
    /// corruption.
    Checksum {
        /// Which section failed (`"header"` or `"batch"`).
        section: &'static str,
    },
    /// Structurally impossible framing mid-file (bytes after the seal,
    /// a batch-sequence gap, an oversized frame) — not a torn tail.
    Corrupt(&'static str),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "wal io error: {e}"),
            Self::Wire(e) => write!(f, "wal decode error: {e}"),
            Self::BadHeader => write!(f, "not a patterns-of-life wal segment"),
            Self::Unsealed => write!(f, "wal segment is unsealed where a seal is required"),
            Self::Checksum { section } => {
                write!(f, "wal {section} section failed its CRC-64 check")
            }
            Self::Corrupt(what) => write!(f, "wal segment corrupt: {what}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<WireError> for WalError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

/// Appends the canonical encoding of one record to `out`.
pub fn encode_record(r: &PositionReport, out: &mut Vec<u8>) {
    put_varint(out, r.mmsi.0 as u64);
    put_i64(out, r.timestamp);
    put_f64(out, r.pos.lat());
    put_f64(out, r.pos.lon());
    let flags = r.sog_knots.is_some() as u8
        | (r.cog_deg.is_some() as u8) << 1
        | (r.heading_deg.is_some() as u8) << 2;
    out.push(flags);
    for v in [r.sog_knots, r.cog_deg, r.heading_deg]
        .into_iter()
        .flatten()
    {
        put_f64(out, v);
    }
    out.push(r.nav_status.raw());
}

/// Decodes one record, advancing `input` past it.
pub fn decode_record(input: &mut &[u8]) -> Result<PositionReport, WireError> {
    let mmsi = u32::try_from(get_varint(input)?)
        .ok()
        .and_then(Mmsi::new)
        .ok_or(WireError("bad mmsi"))?;
    let timestamp = get_i64(input)?;
    let lat = get_f64(input)?;
    let lon = get_f64(input)?;
    let pos = LatLon::new(lat, lon).ok_or(WireError("bad position"))?;
    let (&flags, rest) = input.split_first().ok_or(WireError("flags truncated"))?;
    *input = rest;
    if flags & !0b111 != 0 {
        return Err(WireError("bad flags"));
    }
    let mut opt = |bit: u8| -> Result<Option<f64>, WireError> {
        if flags & bit != 0 {
            get_f64(input).map(Some)
        } else {
            Ok(None)
        }
    };
    let sog_knots = opt(1)?;
    let cog_deg = opt(2)?;
    let heading_deg = opt(4)?;
    let (&nav, rest) = input.split_first().ok_or(WireError("nav truncated"))?;
    *input = rest;
    Ok(PositionReport {
        mmsi,
        timestamp,
        pos,
        sog_knots,
        cog_deg,
        heading_deg,
        nav_status: NavStatus::from_raw(nav),
    })
}

/// Room ahead of a frame's records for what is only known once the
/// frame is closed: the `u32` payload length, the sequence varint and
/// the record-count varint.
const FRAME_HEADROOM: usize = 4 + 10 + 10;

/// One batch frame being filled, in a buffer that is reused from frame
/// to frame: each record is encoded once, where it is written from.
/// [`SegmentWriter::append_frame`] closes it (head and CRC) and leaves
/// the records as they were, so a frame whose append failed can be
/// appended again.
#[derive(Debug)]
pub struct FrameBuf {
    /// [`FRAME_HEADROOM`] bytes, then the encoded records.
    bytes: Vec<u8>,
    records: usize,
}

impl FrameBuf {
    /// An empty frame with room for `records` records and the CRC.
    pub fn with_capacity(records: usize) -> FrameBuf {
        let mut bytes = Vec::with_capacity(FRAME_HEADROOM + records * MAX_RECORD_BYTES + 8);
        bytes.resize(FRAME_HEADROOM, 0);
        FrameBuf { bytes, records: 0 }
    }

    /// Encodes one more record into the frame.
    pub fn push(&mut self, r: &PositionReport) {
        encode_record(r, &mut self.bytes);
        self.records += 1;
    }

    /// Records in the frame.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Empties the frame, keeping its allocation.
    pub fn clear(&mut self) {
        self.bytes.truncate(FRAME_HEADROOM);
        self.records = 0;
    }

    /// Writes the frame's head for sequence `seq` — payload length,
    /// sequence, record count — right-aligned in the headroom, and
    /// returns where the frame starts. A function of the sequence and
    /// the records alone, so closing twice is closing once.
    fn close(&mut self, seq: u64) -> usize {
        let (seq_bytes, seq_len) = varint_bytes(seq);
        let (count_bytes, count_len) = varint_bytes(self.records as u64);
        let start = FRAME_HEADROOM - 4 - seq_len - count_len;
        let payload_len = (self.bytes.len() - start - 4) as u32;
        let head = payload_len
            .to_le_bytes()
            .into_iter()
            .chain(seq_bytes.into_iter().take(seq_len))
            .chain(count_bytes.into_iter().take(count_len));
        for (slot, byte) in self.bytes.iter_mut().skip(start).zip(head) {
            *slot = byte;
        }
        start
    }
}

/// Decodes one batch payload into its sequence number and records.
pub fn decode_batch_payload(mut input: &[u8]) -> Result<(u64, Vec<PositionReport>), WireError> {
    let seq = get_varint(&mut input)?;
    let count = get_varint(&mut input)? as usize;
    // Hostile-count guard: the CRC proves integrity, not honesty.
    if count > input.len() / MIN_RECORD_BYTES {
        return Err(WireError("record count exceeds buffer"));
    }
    let mut records = Vec::with_capacity(count);
    for _ in 0..count {
        records.push(decode_record(&mut input)?);
    }
    if !input.is_empty() {
        return Err(WireError("trailing batch bytes"));
    }
    Ok((seq, records))
}

/// One decoded record batch of a segment.
#[derive(Clone, Debug)]
pub struct Batch {
    /// Journal-global batch sequence number.
    pub seq: u64,
    /// The records appended as this batch.
    pub records: Vec<PositionReport>,
}

/// What a tolerant segment read found.
#[derive(Clone, Debug)]
pub struct SegmentLoad {
    /// The header's first batch sequence number.
    pub first_seq: u64,
    /// The durable batches that were decoded, in append order: all of
    /// them, or those from the `from_seq` a reader asked for onward.
    pub batches: Vec<Batch>,
    /// Every durable batch frame, decoded or only checked: the next
    /// batch appended carries `first_seq + frames`.
    pub frames: u64,
    /// Whether the segment ended with a valid seal.
    pub sealed: bool,
    /// Bytes of a torn trailing batch (or partial seal) that were
    /// detected and discarded. Always 0 for a sealed segment.
    pub torn_bytes: u64,
    /// Length of the valid prefix — magic through the last durable
    /// batch. A resume truncates the file to this before appending.
    pub valid_len: u64,
}

/// Reads a segment image, requiring a valid seal (the contract for
/// every non-final segment of a journal).
pub fn read_sealed(bytes: &[u8]) -> Result<SegmentLoad, WalError> {
    let load = read_segment(bytes)?;
    if !load.sealed {
        return Err(WalError::Unsealed);
    }
    Ok(load)
}

/// Reads a segment image tolerantly: a torn trailing batch or partial
/// seal is detected, reported in [`SegmentLoad::torn_bytes`], and
/// discarded — never served. Mid-file defects are still typed errors.
pub fn read_segment(bytes: &[u8]) -> Result<SegmentLoad, WalError> {
    read_segment_from(bytes, 0)
}

/// [`read_segment`] for a reader that replays batch `from_seq` onward:
/// a frame below it is proven exactly as far as the framing goes —
/// length, CRC, and the sequence its payload opens with — and its
/// records are not decoded.
pub fn read_segment_from(bytes: &[u8], from_seq: u64) -> Result<SegmentLoad, WalError> {
    if bytes.len() < MAGIC_WAL.len() || &bytes[..MAGIC_WAL.len()] != MAGIC_WAL {
        return Err(WalError::BadHeader);
    }

    // Header section. A header torn by a crash at segment creation
    // still reads as BadHeader: the segment holds no durable batch, and
    // the journal layer treats an unreadable *final* segment header as
    // an empty tail (`pol-stream` discards and recreates it).
    let mut at = MAGIC_WAL.len();
    let header_len = read_u32(bytes, &mut at).ok_or(WalError::BadHeader)? as usize;
    if header_len > 16 {
        return Err(WalError::Corrupt("oversized header"));
    }
    let header = read_slice(bytes, &mut at, header_len).ok_or(WalError::BadHeader)?;
    let header_crc = read_u64(bytes, &mut at).ok_or(WalError::BadHeader)?;
    if crc64(header) != header_crc {
        return Err(WalError::Checksum { section: "header" });
    }
    let mut h = header;
    let first_seq = get_varint(&mut h)?;
    if !h.is_empty() {
        return Err(WalError::Wire(WireError("trailing header bytes")));
    }

    let mut batches = Vec::new();
    let mut next_seq = first_seq;
    let torn = |batches: Vec<Batch>, next_seq: u64, valid_at: usize| SegmentLoad {
        first_seq,
        batches,
        frames: next_seq - first_seq,
        sealed: false,
        torn_bytes: (bytes.len() - valid_at) as u64,
        valid_len: valid_at as u64,
    };
    loop {
        let frame_at = at;
        let Some(len) = read_u32(bytes, &mut at) else {
            // Torn: EOF inside (or right at) a frame-length field.
            return Ok(torn(batches, next_seq, frame_at));
        };
        if len == SEAL_SENTINEL {
            // Seal: recorded total length + footer magic, then EOF.
            let Some(recorded) = read_u64(bytes, &mut at) else {
                return Ok(torn(batches, next_seq, frame_at));
            };
            let Some(magic) = read_slice(bytes, &mut at, FOOTER_MAGIC.len()) else {
                return Ok(torn(batches, next_seq, frame_at));
            };
            if magic != FOOTER_MAGIC || recorded != bytes.len() as u64 {
                return Err(WalError::Unsealed);
            }
            if at != bytes.len() {
                return Err(WalError::Corrupt("bytes after seal"));
            }
            return Ok(SegmentLoad {
                first_seq,
                batches,
                frames: next_seq - first_seq,
                sealed: true,
                torn_bytes: 0,
                valid_len: frame_at as u64,
            });
        }
        let len = len as usize;
        if len > MAX_BATCH_BYTES {
            return Err(WalError::Corrupt("oversized batch frame"));
        }
        let Some(payload) = read_slice(bytes, &mut at, len) else {
            return Ok(torn(batches, next_seq, frame_at));
        };
        let Some(payload_crc) = read_u64(bytes, &mut at) else {
            return Ok(torn(batches, next_seq, frame_at));
        };
        if crc64(payload) != payload_crc {
            if at == bytes.len() {
                // The final frame's bytes are all present but wrong: a
                // torn write that persisted the length before the
                // payload pages. Discard, never serve.
                return Ok(torn(batches, next_seq, frame_at));
            }
            return Err(WalError::Checksum { section: "batch" });
        }
        let seq = if next_seq < from_seq {
            let mut opening = payload;
            get_varint(&mut opening)?
        } else {
            let (seq, records) = decode_batch_payload(payload)?;
            batches.push(Batch { seq, records });
            seq
        };
        if seq != next_seq {
            return Err(WalError::Corrupt("batch sequence gap"));
        }
        next_seq += 1;
        if at == bytes.len() {
            // Clean unsealed end (e.g. the writer was killed between
            // batches): every batch is durable, nothing torn.
            return Ok(SegmentLoad {
                first_seq,
                batches,
                frames: next_seq - first_seq,
                sealed: false,
                torn_bytes: 0,
                valid_len: at as u64,
            });
        }
    }
}

fn read_u32(bytes: &[u8], at: &mut usize) -> Option<u32> {
    let s = read_slice(bytes, at, 4)?;
    Some(u32::from_le_bytes(s.try_into().ok()?))
}

fn read_u64(bytes: &[u8], at: &mut usize) -> Option<u64> {
    let s = read_slice(bytes, at, 8)?;
    Some(u64::from_le_bytes(s.try_into().ok()?))
}

fn read_slice<'a>(bytes: &'a [u8], at: &mut usize, n: usize) -> Option<&'a [u8]> {
    let end = at.checked_add(n)?;
    if end > bytes.len() {
        return None;
    }
    let s = &bytes[*at..end];
    *at = end;
    Some(s)
}

/// Reads a segment file tolerantly (see [`read_segment`]).
pub fn load_segment(path: &Path) -> Result<SegmentLoad, WalError> {
    let bytes = std::fs::read(path)?;
    read_segment(&bytes)
}

/// An open, appendable WAL segment file.
///
/// `create` writes and syncs the header before returning, so a segment
/// that exists on disk with a readable header is append-ready. Batches
/// are appended with [`append_frame`](Self::append_frame); the caller
/// decides when to [`sync`](Self::sync) (group commit lives one layer
/// up, in `pol-stream::journal`). Dropping the writer without
/// [`seal`](Self::seal) leaves a valid unsealed segment — exactly what
/// a crash leaves — which `read_segment` serves in full.
#[derive(Debug)]
pub struct SegmentWriter {
    file: std::fs::File,
    path: PathBuf,
    len: u64,
    first_seq: u64,
    next_seq: u64,
    /// A write failed part-way: the file may hold bytes past `len`, and
    /// the next append or seal cuts them off first.
    torn: bool,
}

impl SegmentWriter {
    /// Creates the segment at `path` (truncating any previous file) and
    /// durably writes its header. `first_seq` is the sequence number
    /// the first appended batch must carry.
    pub fn create(path: &Path, first_seq: u64) -> Result<SegmentWriter, WalError> {
        let mut image = Vec::with_capacity(32);
        image.extend_from_slice(MAGIC_WAL);
        let mut header = Vec::with_capacity(10);
        put_varint(&mut header, first_seq);
        image.extend_from_slice(&(header.len() as u32).to_le_bytes());
        image.extend_from_slice(&header);
        image.extend_from_slice(&crc64(&header).to_le_bytes());
        let mut file = std::fs::File::create(path)?;
        file.write_all(&image)?;
        file.sync_all()?;
        Ok(SegmentWriter {
            file,
            path: path.to_path_buf(),
            len: image.len() as u64,
            first_seq,
            next_seq: first_seq,
            torn: false,
        })
    }

    /// Reopens an unsealed segment for appending, truncating away a
    /// torn tail first. `load` must come from reading this same file;
    /// its `batches` are not read (a journal reader moves them out).
    pub fn resume(path: &Path, load: &SegmentLoad) -> Result<SegmentWriter, WalError> {
        if load.sealed {
            return Err(WalError::Corrupt("cannot resume a sealed segment"));
        }
        let mut file = std::fs::OpenOptions::new().write(true).open(path)?;
        if load.torn_bytes > 0 {
            // Repair is idempotent: truncating to the valid prefix and
            // syncing leaves the same clean unsealed segment no matter
            // how many times a crashing recovery retries it.
            file.set_len(load.valid_len)?;
            file.sync_all()?;
        }
        file.seek(io::SeekFrom::Start(load.valid_len))?;
        Ok(SegmentWriter {
            file,
            path: path.to_path_buf(),
            len: load.valid_len,
            first_seq: load.first_seq,
            next_seq: load.first_seq + load.frames,
            torn: false,
        })
    }

    /// The file being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes appended so far (header included).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether nothing has been appended (a fresh header-only segment).
    pub fn is_empty(&self) -> bool {
        self.next_seq == self.first_seq
    }

    /// The sequence number the next appended batch will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends `frame` as the next batch. The bytes reach the file (and
    /// the kernel), but not necessarily the platter — call
    /// [`sync`](Self::sync) to make the batch durable. Returns the
    /// batch's sequence number. On an error the segment is as long as
    /// it was (whatever part of the frame got out is cut off before the
    /// next append) and `frame` still holds its records: appending it
    /// again is the retry.
    pub fn append_frame(&mut self, frame: &mut FrameBuf) -> Result<u64, WalError> {
        self.cut_back()?;
        let seq = self.next_seq;
        let start = frame.close(seq);
        let end = frame.bytes.len();
        let crc = crc64(&frame.bytes[start + 4..]);
        frame.bytes.extend_from_slice(&crc.to_le_bytes());
        let image = &frame.bytes[start..];
        let frame_len = image.len() as u64;
        self.torn = true;
        let wrote = if pol_chaos::fire("wal.append.write") {
            // The fault tears the append: half a frame is in the file
            // when the call fails.
            let _ = self.file.write_all(&image[..image.len() / 2]);
            Err(pol_chaos::io_error("wal append write"))
        } else {
            self.file.write_all(image)
        };
        frame.bytes.truncate(end);
        wrote?;
        self.torn = false;
        self.len += frame_len;
        self.next_seq += 1;
        Ok(seq)
    }

    /// [`append_frame`](Self::append_frame) for records held in a slice.
    pub fn append_batch(&mut self, records: &[PositionReport]) -> Result<u64, WalError> {
        let mut frame = FrameBuf::with_capacity(records.len());
        for r in records {
            frame.push(r);
        }
        self.append_frame(&mut frame)
    }

    /// Cuts the file back to the last whole frame after a failed write:
    /// a frame appended behind a fragment would read as mid-file
    /// corruption, and a seal would record the wrong length.
    fn cut_back(&mut self) -> io::Result<()> {
        if self.torn {
            self.file.set_len(self.len)?;
            self.file.seek(io::SeekFrom::Start(self.len))?;
            self.torn = false;
        }
        Ok(())
    }

    /// Makes every appended batch durable (fsync).
    pub fn sync(&mut self) -> Result<(), WalError> {
        if pol_chaos::fire("wal.append.sync") {
            return Err(WalError::Io(pol_chaos::io_error("wal append sync")));
        }
        self.file.sync_all()?;
        Ok(())
    }

    /// Seals the segment: appends the footer (sentinel, total length,
    /// seal magic) and fsyncs. A sealed segment is immutable and is
    /// read with the same zero-tolerance discipline as a snapshot.
    pub fn seal(mut self) -> Result<(), WalError> {
        self.cut_back()?;
        if pol_chaos::fire("wal.seal") {
            return Err(WalError::Io(pol_chaos::io_error("wal seal")));
        }
        let total = self.len + 20;
        let mut footer = Vec::with_capacity(20);
        footer.extend_from_slice(&SEAL_SENTINEL.to_le_bytes());
        footer.extend_from_slice(&total.to_le_bytes());
        footer.extend_from_slice(FOOTER_MAGIC);
        self.file.write_all(&footer)?;
        self.file.sync_all()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(mmsi: u32, ts: i64) -> PositionReport {
        PositionReport {
            mmsi: Mmsi(mmsi),
            timestamp: ts,
            pos: LatLon::new(51.0 + (ts % 7) as f64 * 0.01, 1.0 + (ts % 11) as f64 * 0.01).unwrap(),
            sog_knots: (ts % 3 != 0).then_some(12.5),
            cog_deg: (ts % 4 != 0).then_some(90.0),
            heading_deg: (ts % 5 != 0).then_some(88.0),
            nav_status: NavStatus::from_raw((ts % 9) as u8),
        }
    }

    fn batch(n: usize, salt: i64) -> Vec<PositionReport> {
        (0..n)
            .map(|i| report(200_000_001 + (i % 5) as u32, salt * 1_000 + i as i64))
            .collect()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pol-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// The payload as the format section spells it, built the slow way:
    /// the oracle for [`FrameBuf`] and the forger of hostile frames.
    fn encode_batch_payload(seq: u64, records: &[PositionReport]) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, seq);
        put_varint(&mut out, records.len() as u64);
        for r in records {
            encode_record(r, &mut out);
        }
        out
    }

    #[test]
    fn a_frame_filled_in_place_is_the_payload_framed() {
        // Either side of both varint width changes: counts 127 / 128,
        // sequences 127 / 128 and 16 383 / 16 384.
        let path = tmp("framebuf.polwal");
        for (seq, n) in [(0, 1), (127, 127), (128, 128), (16_383, 300), (16_384, 0)] {
            let records = batch(n, 2);
            let mut w = SegmentWriter::create(&path, seq).unwrap();
            let header = w.len() as usize;
            let mut frame = FrameBuf::with_capacity(4);
            for r in &records {
                frame.push(r);
            }
            assert_eq!(frame.records(), n);
            assert_eq!(w.append_frame(&mut frame).unwrap(), seq);
            let payload = encode_batch_payload(seq, &records);
            let mut want = (payload.len() as u32).to_le_bytes().to_vec();
            want.extend_from_slice(&payload);
            want.extend_from_slice(&crc64(&payload).to_le_bytes());
            assert_eq!(std::fs::read(&path).unwrap()[header..], want, "seq {seq}");
            assert_eq!(w.len() as usize, header + want.len());

            // The buffer is reusable: cleared, it frames the next batch.
            frame.clear();
            assert_eq!(frame.records(), 0);
            frame.push(&records.first().copied().unwrap_or(report(200_000_001, 1)));
            assert_eq!(w.append_frame(&mut frame).unwrap(), seq + 1);
            assert_eq!(load_segment(&path).unwrap().batches.len(), 2);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_reader_from_a_later_batch_checks_the_earlier_ones_without_decoding() {
        let path = tmp("from-seq.polwal");
        let mut w = SegmentWriter::create(&path, 10).unwrap();
        for i in 0..5 {
            w.append_batch(&batch(6, i)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let bytes = std::fs::read(&path).unwrap();
        let all = read_segment(&bytes).unwrap();
        assert_eq!((all.frames, all.batches.len()), (5, 5));
        for from in [0, 10, 12, 15, 99] {
            let load = read_segment_from(&bytes, from).unwrap();
            assert_eq!(load.frames, 5, "every frame is counted");
            assert_eq!(load.valid_len, all.valid_len);
            let seqs: Vec<u64> = load.batches.iter().map(|b| b.seq).collect();
            let want: Vec<u64> = (10..15).filter(|s| *s >= from).collect();
            assert_eq!(seqs, want, "from {from}");
        }
        // A skipped frame is still CRC-checked...
        let header = MAGIC_WAL.len() + 4 + 1 + 8;
        let mut flipped = bytes.clone();
        flipped[header + 4 + 5] ^= 1;
        assert!(matches!(
            read_segment_from(&flipped, 14),
            Err(WalError::Checksum { section: "batch" })
        ));
        // ...and its sequence read: a resumed writer continues the count.
        let load = read_segment_from(&bytes, 14).unwrap();
        let w = SegmentWriter::resume(&path, &load).unwrap();
        assert_eq!(w.next_seq(), 15);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_round_trip_all_flag_shapes() {
        for ts in 0..60 {
            let r = report(200_000_001, ts - 30);
            let mut buf = Vec::new();
            encode_record(&r, &mut buf);
            let mut s = &buf[..];
            assert_eq!(decode_record(&mut s).unwrap(), r);
            assert!(s.is_empty());
        }
    }

    #[test]
    fn batch_payload_round_trip() {
        let records = batch(100, 3);
        let payload = encode_batch_payload(7, &records);
        let (seq, back) = decode_batch_payload(&payload).unwrap();
        assert_eq!(seq, 7);
        assert_eq!(back, records);
    }

    #[test]
    fn hostile_record_count_rejected_before_allocating() {
        let mut payload = Vec::new();
        put_varint(&mut payload, 0);
        put_varint(&mut payload, 1 << 60);
        payload.extend_from_slice(&[0u8; 64]);
        match decode_batch_payload(&payload) {
            Err(WireError(msg)) => assert!(msg.contains("count"), "got: {msg}"),
            other => panic!("expected count guard, got {other:?}"),
        }
    }

    #[test]
    fn write_seal_read_round_trip() {
        let path = tmp("sealed.polwal");
        let mut w = SegmentWriter::create(&path, 5).unwrap();
        assert!(w.is_empty());
        let b0 = batch(40, 0);
        let b1 = batch(25, 1);
        assert_eq!(w.append_batch(&b0).unwrap(), 5);
        assert_eq!(w.append_batch(&b1).unwrap(), 6);
        assert!(!w.is_empty());
        w.sync().unwrap();
        w.seal().unwrap();

        let load = load_segment(&path).unwrap();
        assert!(load.sealed);
        assert_eq!(load.torn_bytes, 0);
        assert_eq!(load.first_seq, 5);
        assert_eq!(load.batches.len(), 2);
        assert_eq!(load.batches[0].records, b0);
        assert_eq!(load.batches[1].records, b1);
        assert!(read_sealed(&std::fs::read(&path).unwrap()).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unsealed_segment_serves_complete_batches() {
        let path = tmp("unsealed.polwal");
        let mut w = SegmentWriter::create(&path, 0).unwrap();
        w.append_batch(&batch(10, 0)).unwrap();
        w.append_batch(&batch(10, 1)).unwrap();
        w.sync().unwrap();
        drop(w); // killed between batches: no seal

        let bytes = std::fs::read(&path).unwrap();
        let load = read_segment(&bytes).unwrap();
        assert!(!load.sealed);
        assert_eq!(load.torn_bytes, 0);
        assert_eq!(load.batches.len(), 2);
        assert_eq!(load.valid_len, bytes.len() as u64);
        assert!(matches!(read_sealed(&bytes), Err(WalError::Unsealed)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_discarded_at_every_cut() {
        // Build a 3-batch unsealed image, then truncate at every offset
        // past the second batch: the first two batches always survive,
        // the torn third is always discarded, and valid_len always
        // points at the end of batch 2.
        let path = tmp("torn.polwal");
        let mut w = SegmentWriter::create(&path, 0).unwrap();
        w.append_batch(&batch(8, 0)).unwrap();
        w.append_batch(&batch(8, 1)).unwrap();
        let two_batches = w.len();
        w.append_batch(&batch(8, 2)).unwrap();
        w.sync().unwrap();
        drop(w);
        let bytes = std::fs::read(&path).unwrap();

        for cut in (two_batches as usize + 1)..bytes.len() {
            let load = read_segment(&bytes[..cut])
                .unwrap_or_else(|e| panic!("cut at {cut}: torn tail must be tolerated, got {e}"));
            assert_eq!(load.batches.len(), 2, "cut at {cut}");
            assert_eq!(load.valid_len, two_batches, "cut at {cut}");
            assert_eq!(load.torn_bytes as usize, cut - two_batches as usize);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_final_payload_with_full_length_is_discarded() {
        // All frame bytes present but the payload pages never hit the
        // disk (zeroed): CRC fails at EOF — torn tail, not corruption.
        let path = tmp("torn-payload.polwal");
        let mut w = SegmentWriter::create(&path, 0).unwrap();
        w.append_batch(&batch(8, 0)).unwrap();
        let one = w.len() as usize;
        w.append_batch(&batch(8, 1)).unwrap();
        w.sync().unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        let end = bytes.len() - 8;
        for b in &mut bytes[one + 4..end] {
            *b = 0;
        }
        let load = read_segment(&bytes).unwrap();
        assert_eq!(load.batches.len(), 1);
        assert_eq!(load.valid_len as usize, one);
        assert!(load.torn_bytes > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn midfile_corruption_is_a_typed_error_not_a_tail() {
        let path = tmp("midfile.polwal");
        let mut w = SegmentWriter::create(&path, 0).unwrap();
        let header = w.len() as usize;
        w.append_batch(&batch(8, 0)).unwrap();
        let one = w.len() as usize;
        w.append_batch(&batch(8, 1)).unwrap();
        w.sync().unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte of batch 0 — batch 1 follows completely,
        // so this cannot be a torn write.
        bytes[header + 4 + 3] ^= 0x40;
        match read_segment(&bytes) {
            Err(WalError::Checksum { section: "batch" }) => {}
            other => panic!("expected batch checksum error, got {other:?}"),
        }
        // Same flip on the *final* batch is a tolerated torn tail.
        let mut bytes2 = std::fs::read(&path).unwrap();
        bytes2[one + 4 + 3] ^= 0x40;
        let load = read_segment(&bytes2).unwrap();
        assert_eq!(load.batches.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sealed_segment_rejects_trailing_bytes_and_bad_seal() {
        let path = tmp("sealcheck.polwal");
        let mut w = SegmentWriter::create(&path, 0).unwrap();
        w.append_batch(&batch(8, 0)).unwrap();
        w.seal().unwrap();
        let bytes = std::fs::read(&path).unwrap();

        let mut extended = bytes.clone();
        extended.push(0);
        // Extension breaks the recorded length, surfacing as Unsealed.
        assert!(matches!(read_segment(&extended), Err(WalError::Unsealed)));

        let mut badmagic = bytes.clone();
        let n = badmagic.len();
        badmagic[n - 1] ^= 0xFF;
        assert!(matches!(read_segment(&badmagic), Err(WalError::Unsealed)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sequence_gap_is_corruption() {
        // Forge two valid frames whose seqs are not contiguous.
        let mut image = Vec::new();
        image.extend_from_slice(MAGIC_WAL);
        let mut header = Vec::new();
        put_varint(&mut header, 0);
        image.extend_from_slice(&(header.len() as u32).to_le_bytes());
        image.extend_from_slice(&header);
        image.extend_from_slice(&crc64(&header).to_le_bytes());
        for seq in [0u64, 2] {
            let payload = encode_batch_payload(seq, &batch(3, seq as i64));
            image.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            image.extend_from_slice(&payload);
            image.extend_from_slice(&crc64(&payload).to_le_bytes());
        }
        match read_segment(&image) {
            Err(WalError::Corrupt(msg)) => assert!(msg.contains("sequence")),
            other => panic!("expected sequence-gap corruption, got {other:?}"),
        }
    }

    #[test]
    fn resume_repairs_a_torn_tail_idempotently() {
        let path = tmp("resume.polwal");
        let mut w = SegmentWriter::create(&path, 0).unwrap();
        let b0 = batch(8, 0);
        w.append_batch(&b0).unwrap();
        w.append_batch(&batch(8, 1)).unwrap();
        w.sync().unwrap();
        drop(w);
        // Tear the second batch.
        let full = std::fs::metadata(&path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 5).unwrap();
        drop(f);

        let load = load_segment(&path).unwrap();
        assert_eq!(load.batches.len(), 1);
        assert!(load.torn_bytes > 0);
        let mut w = SegmentWriter::resume(&path, &load).unwrap();
        assert_eq!(w.next_seq(), 1);
        let b1 = batch(5, 9);
        w.append_batch(&b1).unwrap();
        w.sync().unwrap();
        w.seal().unwrap();

        let reloaded = load_segment(&path).unwrap();
        assert!(reloaded.sealed);
        assert_eq!(reloaded.batches.len(), 2);
        assert_eq!(reloaded.batches[0].records, b0);
        assert_eq!(reloaded.batches[1].records, b1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_and_truncated_headers_are_typed() {
        assert!(matches!(read_segment(&[]), Err(WalError::BadHeader)));
        assert!(matches!(
            read_segment(b"not a wal"),
            Err(WalError::BadHeader)
        ));
        assert!(matches!(
            read_segment(&MAGIC_WAL[..]),
            Err(WalError::BadHeader)
        ));
        let mut partial = MAGIC_WAL.to_vec();
        partial.extend_from_slice(&[3, 0, 0, 0, 1]);
        assert!(matches!(read_segment(&partial), Err(WalError::BadHeader)));
    }

    #[test]
    fn empty_unsealed_segment_is_valid_and_empty() {
        let path = tmp("fresh.polwal");
        let w = SegmentWriter::create(&path, 42).unwrap();
        drop(w);
        let load = load_segment(&path).unwrap();
        assert_eq!(load.first_seq, 42);
        assert!(load.batches.is_empty());
        assert!(!load.sealed);
        assert_eq!(load.torn_bytes, 0);
        std::fs::remove_file(&path).ok();
    }
}
