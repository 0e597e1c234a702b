//! POLCKP2 — checkpoints of the streaming-engine state that cost what
//! changed since the last one.
//!
//! A checkpoint bounds recovery: instead of replaying the journal from
//! record zero, recovery restores the newest checkpoint and replays
//! only the WAL suffix past [`EngineState::wal_seq`]. For that to
//! reconverge **byte-identically**, the checkpoint must capture every
//! bit of engine state the remaining records' processing depends on:
//!
//! * per vessel — the reorder buffer (with arrival sequence numbers,
//!   so release tie-breaking is preserved), the released frontier, the
//!   cleaner's last surviving report, the trip tracker's port/sequence/
//!   open-passage state, every retained cell point, and the delta
//!   window mark into them;
//! * engine-wide — the arrival counter, the maximum event timestamp,
//!   all ingestion counters, and the delta-window cut count.
//!
//! Nearly all of those bytes sit in two vectors per vessel that only
//! ever grow or restart: `retained` is append-only, and the tracker's
//! open passage grows by one report at a time until a port sighting
//! clears it. So the state lives in two files, both regular files
//! directly in the journal directory:
//!
//! * the **log** (`checkpoint-{id:010}.polckl`) — a 16-byte header and
//!   then CRC-framed records, one per checkpoint, each carrying per
//!   vessel the passage reports and cell points added since the
//!   previous frame plus a "passage restarted" marker. Within a vessel
//!   section the MMSI and market segment are written once and
//!   timestamps are deltas; every `f64` is its bits;
//! * the **head** ([`CHECKPOINT_NAME`]) — small, sealed, replaced
//!   atomically by [`save_bytes`]: the engine-wide scalars, per vessel
//!   the scalars, the reorder buffer and how many passage reports and
//!   cell points the log must yield, the log's id and its **committed
//!   length**.
//!
//! ## Commit order
//!
//! A checkpoint appends its frame to the log, fsyncs it, and only then
//! replaces the head. The head is the commit record: bytes of the log
//! past its committed length do not exist as far as a load is concerned
//! (the orphan tail of a checkpoint that died between the two steps),
//! and recovery truncates them before appending again. A load trusts
//! nothing before the head's seal and body CRC pass, every frame's CRC
//! passes, the frames tile the committed length exactly and every
//! vessel's vectors come out at the lengths the head recorded; it never
//! panics on hostile input.
//!
//! ## Compaction
//!
//! A restarted passage leaves its logged reports dead in the log. Both
//! sides are known exactly from encoded lengths: `dead` is the payload
//! of every superseded passage report, `live` the rest of the log. When
//! a checkpoint would leave `dead > live / 8` it rewrites the log from
//! live state instead of appending — a new file under the next id,
//! through [`save_bytes`], then the head that names it, then the old
//! file's removal — so the log never exceeds 9⁄8 of its live bytes plus
//! the frame just appended, and the rewrites amortise like a `Vec`'s
//! doublings. A log file no head names is swept at recovery. The very
//! first checkpoint is the same rewrite from an absent log.

use crate::ingest::{SessionView, StreamEngine};
use pol_ais::types::{MarketSegment, Mmsi, NavStatus};
use pol_core::codec::{save_bytes, CodecError, FOOTER_MAGIC};
use pol_core::records::{CellPoint, EnrichedReport, TripPoint};
use pol_geo::LatLon;
use pol_hexgrid::CellIndex;
use pol_sketch::crc64::crc64;
use pol_sketch::hash::FxHashMap;
use pol_sketch::wire::{get_f64, get_i64, get_varint, put_f64, put_i64, put_varint, WireError};
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Checkpoint head magic.
pub const MAGIC_CKP: &[u8; 8] = b"POLCKP2\0";

/// Checkpoint log magic.
pub const MAGIC_LOG: &[u8; 8] = b"POLCKL1\0";

/// File name of the checkpoint head inside a journal directory.
pub const CHECKPOINT_NAME: &str = "checkpoint.polckp";

/// A log is rewritten when its dead bytes exceed this fraction of its
/// live bytes.
const DEAD_PER_LIVE: u64 = 8;

/// File name of the checkpoint log with `id`.
fn log_name(id: u64) -> String {
    format!("checkpoint-{id:010}.polckl")
}

/// Parses a log file name back to its id.
fn parse_log_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("checkpoint-")?.strip_suffix(".polckl")?;
    if digits.len() != 10 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// One vessel session's checkpointed state.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionState {
    /// Vessel identity (the session key).
    pub mmsi: u32,
    /// Maximum released timestamp.
    pub frontier: i64,
    /// Start of the current delta window within `retained`.
    pub window_mark: u64,
    /// The cleaner's last surviving report.
    pub cleaner_last: Option<EnrichedReport>,
    /// The trip tracker's last port sighting.
    pub last_port: Option<u16>,
    /// The trip tracker's emitted-trip sequence counter.
    pub trip_seq: u32,
    /// The trip tracker's open (unemitted) passage.
    pub open_passage: Vec<EnrichedReport>,
    /// Every projected cell point retained for the close-time fold.
    pub retained: Vec<CellPoint>,
    /// The reorder buffer: `(timestamp, arrival_seq, report)` in key
    /// order.
    pub buffer: Vec<(i64, u64, EnrichedReport)>,
}

/// The complete checkpointed engine state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineState {
    /// Grid resolution echo — restore refuses a config mismatch.
    pub resolution: u8,
    /// Reorder bound echo — restore refuses a config mismatch.
    pub reorder_bound_secs: i64,
    /// WAL batches fully applied to this state: recovery replays
    /// batches with sequence numbers `>= wal_seq`.
    pub wal_seq: u64,
    /// Delta windows cut so far (the next cut publishes generation
    /// `window_cuts`).
    pub window_cuts: u64,
    /// The engine's arrival sequence counter.
    pub arrival_seq: u64,
    /// Maximum event timestamp seen (`i64::MIN` before any record).
    pub max_event_ts: i64,
    /// Ingestion counters, in `IngestCounters` field order.
    pub counters: [u64; 7],
    /// Per-vessel session states, sorted by MMSI (a load's order).
    pub sessions: Vec<SessionState>,
}

fn wire(msg: &'static str) -> CodecError {
    CodecError::Wire(WireError(msg))
}

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(x) => {
            out.push(1);
            put_f64(out, x);
        }
        None => out.push(0),
    }
}

fn get_u8(input: &mut &[u8]) -> Result<u8, WireError> {
    let (&b, rest) = input.split_first().ok_or(WireError("byte truncated"))?;
    *input = rest;
    Ok(b)
}

fn get_u64_le(input: &mut &[u8]) -> Result<u64, WireError> {
    let (word, rest) = input
        .split_first_chunk::<8>()
        .ok_or(WireError("word truncated"))?;
    *input = rest;
    Ok(u64::from_le_bytes(*word))
}

fn get_opt_f64(input: &mut &[u8]) -> Result<Option<f64>, WireError> {
    match get_u8(input)? {
        0 => Ok(None),
        1 => get_f64(input).map(Some),
        _ => Err(WireError("bad option tag")),
    }
}

fn get_mmsi(input: &mut &[u8]) -> Result<Mmsi, WireError> {
    u32::try_from(get_varint(input)?)
        .ok()
        .and_then(Mmsi::new)
        .ok_or(WireError("bad mmsi"))
}

fn get_segment(input: &mut &[u8]) -> Result<MarketSegment, WireError> {
    MarketSegment::from_id(get_u8(input)?).ok_or(WireError("bad segment id"))
}

/// The position and kinematics both record kinds carry.
fn put_motion(
    out: &mut Vec<u8>,
    pos: LatLon,
    sog: Option<f64>,
    cog: Option<f64>,
    heading: Option<f64>,
) {
    put_f64(out, pos.lat());
    put_f64(out, pos.lon());
    put_opt_f64(out, sog);
    put_opt_f64(out, cog);
    put_opt_f64(out, heading);
}

type Motion = (LatLon, Option<f64>, Option<f64>, Option<f64>);

fn get_motion(input: &mut &[u8]) -> Result<Motion, WireError> {
    let lat = get_f64(input)?;
    let lon = get_f64(input)?;
    let pos = LatLon::new(lat, lon).ok_or(WireError("bad position"))?;
    Ok((
        pos,
        get_opt_f64(input)?,
        get_opt_f64(input)?,
        get_opt_f64(input)?,
    ))
}

/// A report on its own (the head's cleaner and reorder-buffer entries):
/// identity, segment and absolute timestamp included.
fn put_enriched(out: &mut Vec<u8>, r: &EnrichedReport) {
    put_varint(out, r.mmsi.0 as u64);
    out.push(r.segment.id());
    put_passage_report(out, r, 0);
}

fn get_enriched(input: &mut &[u8]) -> Result<EnrichedReport, WireError> {
    let mmsi = get_mmsi(input)?;
    let segment = get_segment(input)?;
    get_passage_report(input, mmsi, segment, 0)
}

/// A report inside a vessel section: what the section fixes (identity,
/// segment) is left out and the timestamp is a delta on `prev_ts`.
fn put_passage_report(out: &mut Vec<u8>, r: &EnrichedReport, prev_ts: i64) {
    put_i64(out, r.timestamp.wrapping_sub(prev_ts));
    put_motion(out, r.pos, r.sog_knots, r.cog_deg, r.heading_deg);
    out.push(r.nav_status.raw());
}

fn get_passage_report(
    input: &mut &[u8],
    mmsi: Mmsi,
    segment: MarketSegment,
    prev_ts: i64,
) -> Result<EnrichedReport, WireError> {
    let timestamp = prev_ts.wrapping_add(get_i64(input)?);
    let (pos, sog_knots, cog_deg, heading_deg) = get_motion(input)?;
    let nav_status = NavStatus::from_raw(get_u8(input)?);
    Ok(EnrichedReport {
        mmsi,
        timestamp,
        pos,
        sog_knots,
        cog_deg,
        heading_deg,
        nav_status,
        segment,
    })
}

/// A cell point inside a vessel section, by the same rule.
fn put_cell_point(out: &mut Vec<u8>, cp: &CellPoint, prev_ts: i64) {
    let p = &cp.point;
    put_i64(out, p.timestamp.wrapping_sub(prev_ts));
    put_motion(out, p.pos, p.sog_knots, p.cog_deg, p.heading_deg);
    put_varint(out, p.trip_id);
    put_varint(out, p.origin as u64);
    put_varint(out, p.dest as u64);
    put_i64(out, p.eto_secs);
    put_i64(out, p.ata_secs);
    put_varint(out, cp.cell.raw());
    match cp.next_cell {
        Some(c) => {
            out.push(1);
            put_varint(out, c.raw());
        }
        None => out.push(0),
    }
}

fn get_cell(input: &mut &[u8]) -> Result<CellIndex, WireError> {
    CellIndex::from_raw(get_varint(input)?).map_err(|_| WireError("bad cell index"))
}

fn get_cell_point(
    input: &mut &[u8],
    mmsi: Mmsi,
    segment: MarketSegment,
    prev_ts: i64,
) -> Result<CellPoint, WireError> {
    let timestamp = prev_ts.wrapping_add(get_i64(input)?);
    let (pos, sog_knots, cog_deg, heading_deg) = get_motion(input)?;
    let trip_id = get_varint(input)?;
    let origin = u16::try_from(get_varint(input)?).map_err(|_| WireError("bad origin"))?;
    let dest = u16::try_from(get_varint(input)?).map_err(|_| WireError("bad dest"))?;
    let eto_secs = get_i64(input)?;
    let ata_secs = get_i64(input)?;
    let cell = get_cell(input)?;
    let next_cell = match get_u8(input)? {
        0 => None,
        1 => Some(get_cell(input)?),
        _ => return Err(WireError("bad option tag")),
    };
    Ok(CellPoint {
        point: TripPoint {
            mmsi,
            timestamp,
            pos,
            sog_knots,
            cog_deg,
            heading_deg,
            segment,
            trip_id,
            origin,
            dest,
            eto_secs,
            ata_secs,
        },
        cell,
        next_cell,
    })
}

/// Wraps a head body in the house envelope: magic, length-framed
/// CRC-64-guarded body, POLSEAL footer.
fn seal_head(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAGIC_CKP.len() + body.len() + 32);
    out.extend_from_slice(MAGIC_CKP);
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&crc64(body).to_le_bytes());
    let file_len = out.len() as u64 + 16;
    out.extend_from_slice(&file_len.to_le_bytes());
    out.extend_from_slice(FOOTER_MAGIC);
    out
}

/// Proves a head image's footer seal and body CRC and hands back the
/// body. Any other magic — POLCKP1's included — is
/// [`CodecError::BadHeader`].
fn unseal_head(bytes: &[u8]) -> Result<&[u8], CodecError> {
    let rest = bytes
        .strip_prefix(MAGIC_CKP.as_slice())
        .ok_or(CodecError::BadHeader)?;
    let rest = rest
        .strip_suffix(FOOTER_MAGIC.as_slice())
        .ok_or(CodecError::Unsealed)?;
    let (rest, recorded) = rest.split_last_chunk::<8>().ok_or(CodecError::Unsealed)?;
    if u64::from_le_bytes(*recorded) != bytes.len() as u64 {
        return Err(CodecError::Unsealed);
    }
    let (rest, body_crc) = rest.split_last_chunk::<8>().ok_or(CodecError::Unsealed)?;
    let (body_len, body) = rest.split_first_chunk::<8>().ok_or(CodecError::Unsealed)?;
    if u64::from_le_bytes(*body_len) != body.len() as u64 {
        return Err(CodecError::Unsealed);
    }
    if crc64(body) != u64::from_le_bytes(*body_crc) {
        return Err(CodecError::Checksum { section: "body" });
    }
    Ok(body)
}

/// How much of one session the log already holds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Mark {
    /// Cell points of `retained` in the log.
    retained: usize,
    /// Reports of the current open passage in the log.
    passage: usize,
    /// Encoded bytes of those reports — what dies if the passage
    /// restarts.
    passage_bytes: u64,
    /// The session's restart count when the passage was last logged.
    restarts: u64,
}

/// One encoded frame and what committing it changes.
struct Frame {
    /// The bytes handed in, then the frame — `u64 LE body length, body
    /// of vessel sections, u64 LE CRC-64 over the length and the body
    /// both` — or nothing more when no session changed.
    bytes: Vec<u8>,
    /// The mark of every session with a section in `body`.
    marks: Vec<(u32, Mark)>,
    /// Logged passage bytes this frame's restart markers kill.
    newly_dead: u64,
}

/// Appends to `prefix` a frame of what `marks` says the log lacks, per
/// session. With empty `marks` that is everything: the frame a rewrite
/// carries.
fn encode_frame(
    sessions: &[SessionView<'_>],
    marks: &FxHashMap<u32, Mark>,
    prefix: Vec<u8>,
) -> Result<Frame, CodecError> {
    let mut frame = Frame {
        bytes: prefix,
        marks: Vec::new(),
        newly_dead: 0,
    };
    let out = &mut frame.bytes;
    let frame_at = begin_frame(out);
    for s in sessions {
        let mut mark = marks.get(&s.mmsi).copied().unwrap_or_default();
        let restarted = mark.restarts != s.passage_restarts;
        if restarted {
            frame.newly_dead += mark.passage_bytes;
            mark.passage = 0;
            mark.passage_bytes = 0;
            mark.restarts = s.passage_restarts;
        }
        let passage = s
            .open_passage
            .get(mark.passage..)
            .ok_or(wire("open passage shrank without a restart"))?;
        let retained = s
            .retained
            .get(mark.retained..)
            .ok_or(wire("retained points shrank"))?;
        if !restarted && passage.is_empty() && retained.is_empty() {
            continue;
        }
        let segment = match (passage.first(), retained.first()) {
            (Some(r), _) => r.segment,
            (None, Some(cp)) => cp.point.segment,
            // A bare restart marker: the byte is read back and unused.
            (None, None) => MarketSegment::Other,
        };
        put_varint(out, s.mmsi as u64);
        out.push(segment.id());
        out.push(u8::from(restarted));

        put_varint(out, passage.len() as u64);
        let payload_at = out.len();
        let mut prev_ts = match mark.passage.checked_sub(1) {
            Some(i) => s.open_passage[i].timestamp,
            None => 0,
        };
        for r in passage {
            if r.mmsi.0 != s.mmsi || r.segment != segment {
                return Err(wire("session mixes vessel identities"));
            }
            put_passage_report(out, r, prev_ts);
            prev_ts = r.timestamp;
        }
        mark.passage_bytes += (out.len() - payload_at) as u64;
        mark.passage = s.open_passage.len();

        put_varint(out, retained.len() as u64);
        let mut prev_ts = match mark.retained.checked_sub(1) {
            Some(i) => s.retained[i].point.timestamp,
            None => 0,
        };
        for cp in retained {
            if cp.point.mmsi.0 != s.mmsi || cp.point.segment != segment {
                return Err(wire("session mixes vessel identities"));
            }
            put_cell_point(out, cp, prev_ts);
            prev_ts = cp.point.timestamp;
        }
        mark.retained = s.retained.len();
        frame.marks.push((s.mmsi, mark));
    }
    end_frame(out, frame_at);
    Ok(frame)
}

/// Leaves room for a frame's length; the body is appended after it.
fn begin_frame(out: &mut Vec<u8>) -> usize {
    out.extend_from_slice(&[0; 8]);
    out.len() - 8
}

/// Closes the frame begun at `frame_at`: fills in the body's length and
/// appends the CRC over both — or takes the frame back if it is empty.
fn end_frame(out: &mut Vec<u8>, frame_at: usize) {
    let body_len = (out.len() - frame_at - 8) as u64;
    if body_len == 0 {
        out.truncate(frame_at);
        return;
    }
    out[frame_at..frame_at + 8].copy_from_slice(&body_len.to_le_bytes());
    let crc = crc64(&out[frame_at..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Encodes the head: `scalars` (its `sessions` ignored), the log it
/// commits, and per session everything but the two logged vectors —
/// of those only the lengths the log must reproduce.
fn encode_head(
    scalars: &EngineState,
    log_id: u64,
    log_len: u64,
    sessions: &[SessionView<'_>],
) -> Vec<u8> {
    let mut body = Vec::new();
    body.push(scalars.resolution);
    put_i64(&mut body, scalars.reorder_bound_secs);
    put_varint(&mut body, scalars.wal_seq);
    put_varint(&mut body, scalars.window_cuts);
    put_varint(&mut body, scalars.arrival_seq);
    put_i64(&mut body, scalars.max_event_ts);
    for c in scalars.counters {
        put_varint(&mut body, c);
    }
    put_varint(&mut body, log_id);
    put_varint(&mut body, log_len);
    put_varint(&mut body, sessions.len() as u64);
    for s in sessions {
        put_varint(&mut body, s.mmsi as u64);
        put_i64(&mut body, s.frontier);
        put_varint(&mut body, s.window_mark);
        match &s.cleaner_last {
            Some(r) => {
                body.push(1);
                put_enriched(&mut body, r);
            }
            None => body.push(0),
        }
        match s.last_port {
            Some(p) => {
                body.push(1);
                put_varint(&mut body, p as u64);
            }
            None => body.push(0),
        }
        put_varint(&mut body, s.trip_seq as u64);
        put_varint(&mut body, s.open_passage.len() as u64);
        put_varint(&mut body, s.retained.len() as u64);
        put_varint(&mut body, s.buffer.len() as u64);
        for (&(ts, seq), r) in s.buffer {
            put_i64(&mut body, ts);
            put_varint(&mut body, seq);
            put_enriched(&mut body, r);
        }
    }
    seal_head(&body)
}

/// A decoded head: the state with every session's two logged vectors
/// still empty, and what the log must fill them with.
struct Head {
    state: EngineState,
    log_id: u64,
    log_len: u64,
    /// Per session of `state`, in order: `(passage reports, cell
    /// points)` the log must yield.
    expect: Vec<(u64, u64)>,
}

fn decode_head(bytes: &[u8]) -> Result<Head, CodecError> {
    let mut input = unseal_head(bytes)?;
    let input = &mut input;
    let mut state = EngineState {
        resolution: get_u8(input)?,
        reorder_bound_secs: get_i64(input)?,
        wal_seq: get_varint(input)?,
        window_cuts: get_varint(input)?,
        arrival_seq: get_varint(input)?,
        max_event_ts: get_i64(input)?,
        ..EngineState::default()
    };
    for c in &mut state.counters {
        *c = get_varint(input)?;
    }
    let log_id = get_varint(input)?;
    let log_len = get_varint(input)?;
    // Counts are decoded without count-based reserves: a hostile count
    // simply runs the decoder into a typed truncation error instead of
    // reserving unbounded memory first.
    let n = get_varint(input)?;
    let mut expect = Vec::new();
    for _ in 0..n {
        let mmsi = u32::try_from(get_varint(input)?).map_err(|_| wire("bad mmsi"))?;
        if state.sessions.last().is_some_and(|prev| prev.mmsi >= mmsi) {
            return Err(wire("checkpoint sessions not in ascending vessel order"));
        }
        let frontier = get_i64(input)?;
        let window_mark = get_varint(input)?;
        let cleaner_last = match get_u8(input)? {
            0 => None,
            1 => Some(get_enriched(input)?),
            _ => return Err(wire("bad option tag")),
        };
        let last_port = match get_u8(input)? {
            0 => None,
            1 => Some(u16::try_from(get_varint(input)?).map_err(|_| wire("bad port"))?),
            _ => return Err(wire("bad option tag")),
        };
        let trip_seq = u32::try_from(get_varint(input)?).map_err(|_| wire("bad trip seq"))?;
        let passage_len = get_varint(input)?;
        let retained_len = get_varint(input)?;
        if window_mark > retained_len {
            return Err(wire("window mark past retained points"));
        }
        let n = get_varint(input)?;
        let mut buffer = Vec::new();
        for _ in 0..n {
            let ts = get_i64(input)?;
            let seq = get_varint(input)?;
            buffer.push((ts, seq, get_enriched(input)?));
        }
        expect.push((passage_len, retained_len));
        state.sessions.push(SessionState {
            mmsi,
            frontier,
            window_mark,
            cleaner_last,
            last_port,
            trip_seq,
            open_passage: Vec::new(),
            retained: Vec::new(),
            buffer,
        });
    }
    if !input.is_empty() {
        return Err(wire("trailing checkpoint bytes"));
    }
    Ok(Head {
        state,
        log_id,
        log_len,
        expect,
    })
}

/// What replaying a log's frames accumulated for one vessel.
#[derive(Default)]
struct Replayed {
    open_passage: Vec<EnrichedReport>,
    retained: Vec<CellPoint>,
    passage_bytes: u64,
}

/// Replays the committed prefix of a log: header, then frames that must
/// tile it exactly. Returns per vessel what they add up to, and the
/// bytes restart markers left dead.
fn replay_log(log: &[u8], id: u64) -> Result<(FxHashMap<u32, Replayed>, u64), CodecError> {
    let mut input = log
        .strip_prefix(MAGIC_LOG.as_slice())
        .ok_or(CodecError::BadHeader)?;
    if get_u64_le(&mut input)? != id {
        return Err(wire("checkpoint log carries another id"));
    }
    let mut vessels: FxHashMap<u32, Replayed> = FxHashMap::default();
    let mut dead = 0u64;
    while !input.is_empty() {
        let framed = input;
        let body_len =
            usize::try_from(get_u64_le(&mut input)?).map_err(|_| CodecError::Unsealed)?;
        if input.len() < body_len {
            return Err(CodecError::Unsealed);
        }
        let (mut body, mut rest) = input.split_at(body_len);
        if crc64(&framed[..8 + body_len]) != get_u64_le(&mut rest)? {
            return Err(CodecError::Checksum {
                section: "checkpoint-frame",
            });
        }
        input = rest;
        let body = &mut body;
        while !body.is_empty() {
            let mmsi = get_mmsi(body)?;
            let segment = get_segment(body)?;
            let restarted = match get_u8(body)? {
                0 => false,
                1 => true,
                _ => return Err(wire("bad restart flag")),
            };
            let v = vessels.entry(mmsi.0).or_default();
            if restarted {
                dead += v.passage_bytes;
                v.passage_bytes = 0;
                v.open_passage.clear();
            }
            let n = get_varint(body)?;
            let before = body.len();
            let mut prev_ts = v.open_passage.last().map_or(0, |r| r.timestamp);
            for _ in 0..n {
                let r = get_passage_report(body, mmsi, segment, prev_ts)?;
                prev_ts = r.timestamp;
                v.open_passage.push(r);
            }
            v.passage_bytes += (before - body.len()) as u64;
            let n = get_varint(body)?;
            let mut prev_ts = v.retained.last().map_or(0, |cp| cp.point.timestamp);
            for _ in 0..n {
                let cp = get_cell_point(body, mmsi, segment, prev_ts)?;
                prev_ts = cp.point.timestamp;
                v.retained.push(cp);
            }
        }
    }
    Ok((vessels, dead))
}

/// Where a loaded checkpoint left its log: what a [`CheckpointWriter`]
/// needs to go on appending to it.
pub(crate) struct LogPosition {
    id: u64,
    len: u64,
    dead: u64,
    marks: FxHashMap<u32, Mark>,
}

/// Loads the checkpoint whose head is at `head_path` and whose log is
/// its sibling. `Ok(None)` when no head exists.
pub(crate) fn load_with_log(
    head_path: &Path,
) -> Result<Option<(EngineState, LogPosition)>, CodecError> {
    let head = match std::fs::read(head_path) {
        Ok(b) => decode_head(&b)?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(CodecError::Io(e)),
    };
    let dir = head_path.parent().unwrap_or_else(|| Path::new("."));
    let log = std::fs::read(dir.join(log_name(head.log_id)))?;
    // Bytes past the committed length are a dead checkpoint's orphan
    // tail; fewer than it is a log the head never saw.
    let committed = usize::try_from(head.log_len)
        .ok()
        .and_then(|len| log.get(..len))
        .ok_or(CodecError::Unsealed)?;
    let (mut vessels, dead) = replay_log(committed, head.log_id)?;

    let mut state = head.state;
    let mut marks = FxHashMap::default();
    for (s, (passage_len, retained_len)) in state.sessions.iter_mut().zip(head.expect) {
        let v = vessels.remove(&s.mmsi).unwrap_or_default();
        if v.open_passage.len() as u64 != passage_len || v.retained.len() as u64 != retained_len {
            return Err(wire("checkpoint log and head disagree on a session"));
        }
        marks.insert(
            s.mmsi,
            Mark {
                retained: v.retained.len(),
                passage: v.open_passage.len(),
                passage_bytes: v.passage_bytes,
                restarts: 0,
            },
        );
        s.open_passage = v.open_passage;
        s.retained = v.retained;
    }
    if !vessels.is_empty() {
        return Err(wire("checkpoint log holds a session the head does not"));
    }
    let position = LogPosition {
        id: head.log_id,
        len: head.log_len,
        dead,
        marks,
    };
    Ok(Some((state, position)))
}

/// Loads the checkpoint whose head is at `path` (its log is found beside
/// it), proving every seal, CRC and count before trusting a byte.
/// `Ok(None)` when no checkpoint exists yet — recovery then replays the
/// journal from record zero. Reads only: an orphan log tail is skipped
/// here and truncated by recovery.
pub fn load(path: &Path) -> Result<Option<EngineState>, CodecError> {
    Ok(load_with_log(path)?.map(|(state, _)| state))
}

/// What the checkpoints of one [`JournaledEngine`] have cost so far.
///
/// [`JournaledEngine`]: crate::journal::JournaledEngine
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Bytes the last checkpoint wrote: its log frame (or the whole
    /// rewritten log) plus the head.
    pub last_bytes: u64,
    /// Committed log bytes a load still reads into state (framing
    /// included).
    pub live_bytes: u64,
    /// Committed log bytes of passage reports whose passage has since
    /// restarted.
    pub dead_bytes: u64,
    /// Times the log was rewritten from live state to shed dead bytes.
    pub compactions: u64,
}

/// Writes one engine's checkpoints into its journal directory: appends
/// to the log what changed, commits with the head, rewrites the log
/// when too much of it is dead.
pub(crate) struct CheckpointWriter {
    dir: PathBuf,
    /// The log the head names, open for appending; `None` before the
    /// first checkpoint.
    log: Option<(u64, File)>,
    /// The log's committed length.
    log_len: u64,
    /// The log may hold bytes past `log_len`: a frame was appended and
    /// the head that would have named it was never saved. The frame is
    /// written *while* the journal flush it depends on is in flight, so
    /// a whole, fsynced frame is orphaned whenever that flush (or the
    /// head save) fails afterwards — "the append failed" does not say
    /// whether there is a tail. The flag is therefore raised when an
    /// append starts and lowered only by the commit that names the
    /// frame; the next append truncates exactly when it is up, where
    /// every append used to truncate to be safe.
    orphan_tail: bool,
    marks: FxHashMap<u32, Mark>,
    stats: CheckpointStats,
}

/// A checkpoint whose log bytes are on disk and whose head is not: what
/// [`CheckpointWriter::stage`] hands to [`CheckpointWriter::commit`].
pub(crate) struct Staged {
    head: Vec<u8>,
    /// The log's length once this checkpoint is committed.
    log_len: u64,
    /// Bytes this checkpoint wrote to the log.
    log_bytes: u64,
    marks: Vec<(u32, Mark)>,
    dead: u64,
    /// The new log of a rewrite, which replaces the current one.
    rewritten: Option<(u64, File)>,
}

impl CheckpointWriter {
    /// A writer for a directory with no checkpoint yet.
    pub(crate) fn fresh(dir: &Path) -> CheckpointWriter {
        CheckpointWriter {
            dir: dir.to_path_buf(),
            log: None,
            log_len: 0,
            orphan_tail: false,
            marks: FxHashMap::default(),
            stats: CheckpointStats::default(),
        }
    }

    /// A writer continuing the checkpoint recovery loaded from `dir`:
    /// every log file the head does not name is swept (the debris of a
    /// rewrite that died before its head), and the named log loses any
    /// orphan tail past its committed length.
    pub(crate) fn resume(dir: &Path, loaded: Option<LogPosition>) -> io::Result<CheckpointWriter> {
        let named = loaded.as_ref().map(|p| p.id);
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let id = entry.file_name().to_str().and_then(parse_log_name);
            if id.is_some() && id != named {
                std::fs::remove_file(entry.path())?;
            }
        }
        let mut writer = CheckpointWriter::fresh(dir);
        if let Some(position) = loaded {
            let file = open_log(&dir.join(log_name(position.id)))?;
            if file.metadata()?.len() != position.len {
                file.set_len(position.len)?;
                file.sync_all()?;
            }
            writer.log = Some((position.id, file));
            writer.log_len = position.len;
            writer.marks = position.marks;
            writer.stats.dead_bytes = position.dead;
        }
        Ok(writer)
    }

    pub(crate) fn stats(&self) -> CheckpointStats {
        CheckpointStats {
            live_bytes: self.log_len - self.stats.dead_bytes,
            ..self.stats
        }
    }

    /// The first half of a checkpoint of `engine`: what the state gained
    /// since the last one is appended to the log and fsynced (or the log
    /// rewritten), and the head that would commit it — naming `wal_seq`
    /// as the journal position — is encoded but not saved. Nothing here
    /// depends on the journal being durable to `wal_seq` yet: a load
    /// reads the log only as far as a head says. On an error, or if the
    /// result is never committed, the previous checkpoint still loads
    /// and the next call starts over from it.
    pub(crate) fn stage(
        &mut self,
        engine: &StreamEngine,
        wal_seq: u64,
        window_cuts: u64,
    ) -> Result<Staged, CodecError> {
        let mut sessions: Vec<SessionView<'_>> = engine.session_views().collect();
        sessions.sort_unstable_by_key(|s| s.mmsi);
        let scalars = engine.scalar_state(wal_seq, window_cuts);

        let frame = encode_frame(&sessions, &self.marks, Vec::new())?;
        let dead = self.stats.dead_bytes + frame.newly_dead;
        let appendable = match &mut self.log {
            Some((id, file)) if dead * DEAD_PER_LIVE <= self.log_len.saturating_sub(dead) => {
                Some((*id, file))
            }
            _ => None,
        };
        let Some((id, file)) = appendable else {
            return self.stage_rewrite(&sessions, &scalars);
        };

        if self.orphan_tail {
            file.set_len(self.log_len)?;
            self.orphan_tail = false;
        }
        if !frame.bytes.is_empty() {
            self.orphan_tail = true;
            if pol_chaos::fire("stream.checkpoint.append") {
                // The fault tears the append: half a frame is in the
                // file when the call fails.
                let _ = file.write_all(&frame.bytes[..frame.bytes.len() / 2]);
                return Err(pol_chaos::io_error("checkpoint log append").into());
            }
            file.write_all(&frame.bytes)?;
            file.sync_all()?;
        }
        let log_len = self.log_len + frame.bytes.len() as u64;
        Ok(Staged {
            head: encode_head(&scalars, id, log_len, &sessions),
            log_len,
            log_bytes: frame.bytes.len() as u64,
            marks: frame.marks,
            dead,
            rewritten: None,
        })
    }

    /// [`stage`](Self::stage) when too much of the log is dead, or there
    /// is none: the whole live state is written as a new log under the
    /// next id, which no head names yet.
    fn stage_rewrite(
        &mut self,
        sessions: &[SessionView<'_>],
        scalars: &EngineState,
    ) -> Result<Staged, CodecError> {
        if pol_chaos::fire("stream.checkpoint.compact") {
            return Err(pol_chaos::io_error("checkpoint log rewrite").into());
        }
        let id = self.log.as_ref().map_or(1, |(old, _)| old + 1);
        let mut header = MAGIC_LOG.to_vec();
        header.extend_from_slice(&id.to_le_bytes());
        let Frame {
            bytes: image,
            marks,
            ..
        } = encode_frame(sessions, &FxHashMap::default(), header)?;
        let path = self.dir.join(log_name(id));
        save_bytes(&image, &path)?;
        Ok(Staged {
            head: encode_head(scalars, id, image.len() as u64, sessions),
            log_len: image.len() as u64,
            log_bytes: image.len() as u64,
            marks,
            dead: 0,
            rewritten: Some((id, open_log(&path)?)),
        })
    }

    /// The second half: replaces the head atomically, which commits what
    /// [`stage`](Self::stage) wrote. The caller has made the journal
    /// durable to the staged `wal_seq` first.
    pub(crate) fn commit(&mut self, staged: Staged) -> Result<(), CodecError> {
        save_bytes(&staged.head, &self.dir.join(CHECKPOINT_NAME))?;
        self.log_len = staged.log_len;
        self.orphan_tail = false;
        self.stats.last_bytes = staged.log_bytes + staged.head.len() as u64;
        self.stats.dead_bytes = staged.dead;
        match staged.rewritten {
            None => self.marks.extend(staged.marks),
            Some(new) => {
                self.marks = staged.marks.into_iter().collect();
                if let Some((old, _)) = self.log.replace(new) {
                    self.stats.compactions += 1;
                    // Unnamed from here on; if the removal fails
                    // recovery's sweep gets it.
                    let _ = std::fs::remove_file(self.dir.join(log_name(old)));
                }
            }
        }
        Ok(())
    }
}

/// Opens a checkpoint log for appending: every write lands at the end of
/// the file, wherever a truncation has just put it.
fn open_log(path: &Path) -> io::Result<File> {
    std::fs::OpenOptions::new().append(true).open(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::StreamConfig;
    use crate::journal::{JournaledEngine, WalConfig};
    use pol_ais::types::ShipTypeCode;
    use pol_ais::{PositionReport, StaticReport};
    use pol_core::records::PortSite;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// Reports between two sightings of the same port on a shuttle leg.
    const LEG: i64 = 40;

    fn statics(vessels: u32) -> Vec<StaticReport> {
        (0..vessels)
            .map(|v| StaticReport {
                mmsi: Mmsi(200_000_001 + v),
                imo: None,
                name: format!("SHUTTLE {v}"),
                ship_type: ShipTypeCode(70), // cargo
                gross_tonnage: 30_000,
            })
            .collect()
    }

    /// Port 0 at 10°E and port 1 at 12°E, both on 10°N.
    fn ports() -> Vec<PortSite> {
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

    /// Vessel `v`'s report at `step` of a shuttle that leaves port 0, sails
    /// `reach` of the way to port 1 and back, every [`LEG`] steps each way:
    /// at `reach` 1.0 every leg is a trip, below it the vessel only ever
    /// sights port 0 again and every passage is discarded.
    fn shuttle(v: u32, step: i64, reach: f64) -> PositionReport {
        let phase = step % (2 * LEG);
        let out = if phase <= LEG { phase } else { 2 * LEG - phase };
        PositionReport {
            mmsi: Mmsi(200_000_001 + v),
            timestamp: step * 600 + v as i64,
            pos: LatLon::new(10.0, 10.0 + 2.0 * reach * out as f64 / LEG as f64).unwrap(),
            sog_knots: Some(18.0),
            cog_deg: (phase <= LEG).then_some(90.0),
            heading_deg: None,
            nav_status: NavStatus::UnderWayUsingEngine,
        }
    }

    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pol-ckp-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn journaled(dir: &Path, vessels: u32) -> JournaledEngine {
        let se = StreamEngine::new(&statics(vessels), &ports(), StreamConfig::default());
        JournaledEngine::create(dir, se, WalConfig::default(), 0).unwrap()
    }

    /// Pushes `steps` of the shuttle for every vessel, in time order.
    fn sail(je: &mut JournaledEngine, vessels: u32, steps: std::ops::Range<i64>, reach: f64) {
        for step in steps {
            for v in 0..vessels {
                je.push(shuttle(v, step, reach)).unwrap();
            }
        }
    }

    /// The one checkpoint log in `dir`.
    fn log_path(dir: &Path) -> PathBuf {
        let mut logs: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .and_then(parse_log_name)
                    .is_some()
            })
            .collect();
        assert_eq!(logs.len(), 1, "one log per journal directory: {logs:?}");
        logs.remove(0)
    }

    /// What the checkpoint in `dir` must load to: the engine's own copy of
    /// its state, in a load's session order.
    fn expected(je: &JournaledEngine, loaded: &EngineState) -> EngineState {
        let mut want = je
            .engine()
            .snapshot_state(loaded.wal_seq, loaded.window_cuts);
        want.sessions.sort_by_key(|s| s.mmsi);
        want
    }

    #[test]
    fn round_trip_preserves_everything() {
        let dir = fresh_dir("round-trip");
        let head = dir.join(CHECKPOINT_NAME);
        let mut je = journaled(&dir, 3);

        // Irregular strides across several legs: checkpoints land mid
        // passage, right after a port sighting restarted one, and after
        // whole trips moved into `retained`.
        let mut at = 0;
        let mut appended = 0;
        for stride in [0, 7, 30, 5, 1, 44, 80, 3, 0, 120] {
            sail(&mut je, 3, at..at + stride, 1.0);
            at += stride;
            let before = je.checkpoint_stats();
            je.checkpoint().unwrap();
            let loaded = load(&head).unwrap().expect("a checkpoint exists");
            assert_eq!(loaded, expected(&je, &loaded), "after step {at}");
            let stats = je.checkpoint_stats();
            assert_eq!(
                std::fs::metadata(log_path(&dir)).unwrap().len(),
                stats.live_bytes + stats.dead_bytes,
                "a committed checkpoint leaves no byte past its length"
            );
            appended += u64::from(stats.compactions == before.compactions);
        }
        let stats = je.checkpoint_stats();
        assert!(appended > 5, "most checkpoints append");
        assert!(
            stats.dead_bytes > 0 || stats.compactions > 0,
            "passages restarted"
        );
        let state = load(&head).unwrap().unwrap();
        assert!(state.sessions.iter().all(|s| !s.retained.is_empty()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_late_checkpoint_writes_a_fraction_of_the_image() {
        let dir = fresh_dir("fraction");
        let vessels = 10;
        let mut je = journaled(&dir, vessels);
        sail(&mut je, vessels, 0..10_000, 1.0); // 100 k records
        je.checkpoint().unwrap();
        let image = je.checkpoint_stats().last_bytes;
        assert!(image > 4_000_000, "a 100 k-record state: {image} bytes");

        sail(&mut je, vessels, 10_000..10_100, 1.0); // 1 k more
        je.checkpoint().unwrap();
        let stats = je.checkpoint_stats();
        assert_eq!(stats.compactions, 0);
        assert!(
            stats.last_bytes * 10 < image,
            "1 k records after a {image}-byte image cost {} bytes",
            stats.last_bytes
        );
        let loaded = load(&dir.join(CHECKPOINT_NAME)).unwrap().unwrap();
        assert_eq!(loaded, expected(&je, &loaded));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_vessel_shuttling_at_one_port_keeps_the_log_bounded() {
        let dir = fresh_dir("shuttle");
        let mut je = journaled(&dir, 1);
        let (mut peak, mut written) = (0, 0);
        // Half-way out and back, sixty times, a checkpoint every 13
        // reports: every passage dies at the port it left, nothing is ever
        // retained, and all the log ever gains is reports that die.
        for stride in 0..(60 * 2 * LEG / 13) {
            sail(&mut je, 1, stride * 13..(stride + 1) * 13, 0.5);
            je.checkpoint().unwrap();
            let stats = je.checkpoint_stats();
            let on_disk = std::fs::metadata(log_path(&dir)).unwrap().len();
            assert!(
                on_disk <= stats.live_bytes * 9 / 8 + stats.last_bytes,
                "{on_disk} bytes on disk for {} live",
                stats.live_bytes
            );
            peak = peak.max(on_disk);
            written += stats.last_bytes;
        }
        let stats = je.checkpoint_stats();
        assert!(stats.compactions >= 30, "{} compactions", stats.compactions);
        assert!(
            peak < 8_192,
            "the log peaked at {peak} bytes for a {LEG}-report passage"
        );
        assert!(written > 20 * peak, "{written} bytes written in all");
        let loaded = load(&dir.join(CHECKPOINT_NAME)).unwrap().unwrap();
        assert_eq!(loaded, expected(&je, &loaded));
        assert!(loaded.sessions[0].retained.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_round_trip_and_missing_is_none() {
        let dir = fresh_dir("missing");
        let head = dir.join(CHECKPOINT_NAME);
        assert!(load(&head).unwrap().is_none());
        let mut je = journaled(&dir, 2);
        sail(&mut je, 2, 0..50, 1.0);
        je.checkpoint().unwrap();
        let back = load(&head).unwrap().unwrap();
        assert!(back.wal_seq > 0);
        assert_eq!(back.sessions.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A head over sessions that own nothing but their scalars, in the
    /// order given, committing an empty log — and that log's image.
    fn bare_head(sessions: &[(u32, u64)]) -> (Vec<u8>, Vec<u8>) {
        let buffer = std::collections::BTreeMap::new();
        let views: Vec<SessionView<'_>> = sessions
            .iter()
            .map(|&(mmsi, window_mark)| SessionView {
                mmsi,
                frontier: 0,
                window_mark,
                cleaner_last: None,
                last_port: None,
                trip_seq: 0,
                passage_restarts: 0,
                open_passage: &[],
                retained: &[],
                buffer: &buffer,
            })
            .collect();
        let mut log = MAGIC_LOG.to_vec();
        log.extend_from_slice(&1u64.to_le_bytes());
        let head = encode_head(&EngineState::default(), 1, log.len() as u64, &views);
        (head, log)
    }

    fn load_bare(case: &str, sessions: &[(u32, u64)]) -> Result<Option<EngineState>, CodecError> {
        let dir = fresh_dir(case);
        let (head, log) = bare_head(sessions);
        std::fs::write(dir.join(CHECKPOINT_NAME), head).unwrap();
        std::fs::write(dir.join(log_name(1)), log).unwrap();
        let loaded = load(&dir.join(CHECKPOINT_NAME));
        std::fs::remove_dir_all(&dir).ok();
        loaded
    }

    #[test]
    fn hostile_window_mark_rejected() {
        let sound = load_bare("mark-sound", &[(200_000_001, 0), (200_000_007, 0)]);
        assert_eq!(sound.unwrap().unwrap().sessions.len(), 2);
        // A mark past the (zero) retained points the head itself records.
        let hostile = load_bare("mark-hostile", &[(200_000_001, 0), (200_000_007, 10)]);
        assert!(matches!(hostile, Err(CodecError::Wire(_))));
    }

    #[test]
    fn sessions_out_of_vessel_order_rejected() {
        // The writer sorts sessions by MMSI; a head that lists them any
        // other way, or one twice, was not written by it.
        for sessions in [
            [(200_000_007, 0), (200_000_001, 0)],
            [(200_000_001, 0), (200_000_001, 0)],
        ] {
            let loaded = load_bare("order-hostile", &sessions);
            assert!(matches!(loaded, Err(CodecError::Wire(_))));
        }
    }

    #[test]
    fn resume_cuts_the_orphan_tail_and_sweeps_unnamed_logs() {
        let dir = fresh_dir("resume");
        let head = dir.join(CHECKPOINT_NAME);
        let mut je = journaled(&dir, 2);
        sail(&mut je, 2, 0..70, 1.0);
        je.checkpoint().unwrap();
        sail(&mut je, 2, 70..95, 1.0);
        je.checkpoint().unwrap();
        let want = load(&head).unwrap().unwrap();
        let log = log_path(&dir);
        let committed = std::fs::metadata(&log).unwrap().len();
        drop(je);

        // A checkpoint that died after its log fsync and before its head:
        // a whole frame past the committed length. And one that died mid
        // rewrite: a complete log under the next id that no head names.
        let mut bytes = std::fs::read(&log).unwrap();
        let frame_at = begin_frame(&mut bytes);
        bytes.extend_from_slice(b"never committed");
        end_frame(&mut bytes, frame_at);
        std::fs::write(&log, &bytes).unwrap();
        std::fs::write(dir.join(log_name(2)), &bytes).unwrap();
        assert_eq!(load(&head).unwrap().unwrap(), want, "a load skips the tail");

        let (state, position) = load_with_log(&head).unwrap().unwrap();
        assert_eq!(state, want);
        let writer = CheckpointWriter::resume(&dir, Some(position)).unwrap();
        assert_eq!(std::fs::metadata(log_path(&dir)).unwrap().len(), committed);
        assert_eq!(
            writer.stats().live_bytes + writer.stats().dead_bytes,
            committed
        );
        assert_eq!(load(&head).unwrap().unwrap(), want);

        // With no head at all every log is debris.
        std::fs::remove_file(&head).unwrap();
        CheckpointWriter::resume(&dir, None).unwrap();
        assert!(!log.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retired_and_mismatched_files_are_typed_errors() {
        let dir = fresh_dir("typed");
        let head = dir.join(CHECKPOINT_NAME);
        let mut je = journaled(&dir, 2);
        sail(&mut je, 2, 0..100, 1.0);
        je.checkpoint().unwrap();
        drop(je);
        let log = log_path(&dir);
        let (good_head, good_log) = (std::fs::read(&head).unwrap(), std::fs::read(&log).unwrap());

        // The retired single-file layout, whatever followed its magic.
        std::fs::write(&head, b"POLCKP1\0 and a whole engine state after it").unwrap();
        assert!(matches!(load(&head), Err(CodecError::BadHeader)));
        std::fs::write(&head, &good_head).unwrap();

        // A log shorter than the head committed.
        std::fs::write(&log, &good_log[..good_log.len() - 1]).unwrap();
        assert!(matches!(load(&head), Err(CodecError::Unsealed)));
        // Another journal's log under this one's name.
        let mut foreign = good_log.clone();
        foreign[8..16].copy_from_slice(&7u64.to_le_bytes());
        std::fs::write(&log, &foreign).unwrap();
        assert!(matches!(load(&head), Err(CodecError::Wire(_))));
        // A log that is sound but is not the one the head counted.
        let mut other = good_log[..16].to_vec();
        other.resize(good_log.len(), 0);
        std::fs::write(&log, &other).unwrap();
        assert!(load(&head).is_err());
        // No log.
        std::fs::remove_file(&log).unwrap();
        assert!(matches!(load(&head), Err(CodecError::Io(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A head and its log after three checkpoints with restarts between,
    /// and the directory they load from — the corruption target.
    fn sample() -> &'static (PathBuf, Vec<u8>, Vec<u8>) {
        static SAMPLE: OnceLock<(PathBuf, Vec<u8>, Vec<u8>)> = OnceLock::new();
        SAMPLE.get_or_init(|| {
            let dir = fresh_dir("hostile-source");
            let mut je = journaled(&dir, 3);
            for (from, to) in [(0, 50), (50, 75), (75, 130)] {
                sail(&mut je, 3, from..to, 1.0);
                je.checkpoint().unwrap();
            }
            drop(je);
            let head = std::fs::read(dir.join(CHECKPOINT_NAME)).unwrap();
            let log = std::fs::read(log_path(&dir)).unwrap();
            (dir, head, log)
        })
    }

    /// Loads `head` and `log` from a directory of their own.
    fn load_pair(case: &str, head: &[u8], log: &[u8]) -> Result<Option<EngineState>, CodecError> {
        let (source, _, _) = sample();
        let dir = fresh_dir(case);
        std::fs::write(dir.join(CHECKPOINT_NAME), head).unwrap();
        std::fs::write(dir.join(log_path(source).file_name().unwrap()), log).unwrap();
        let loaded = load(&dir.join(CHECKPOINT_NAME));
        std::fs::remove_dir_all(&dir).ok();
        loaded
    }

    #[test]
    fn the_sample_itself_loads() {
        let (_, head, log) = sample();
        let state = load_pair("hostile-clean", head, log).unwrap().unwrap();
        assert_eq!(state.sessions.len(), 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn truncation_and_bit_flips_are_typed(
            at in 0usize..1_000_000,
            bit in 0u8..8,
            of_head in 0u8..2,
        ) {
            let (_, head, log) = sample();
            let (mut cut_head, mut cut_log) = (&head[..], &log[..]);
            let (mut flipped_head, mut flipped_log) = (head.clone(), log.clone());
            if of_head == 1 {
                cut_head = &head[..at % head.len()];
                flipped_head[at % head.len()] ^= 1 << bit;
            } else {
                cut_log = &log[..at % log.len()];
                flipped_log[at % log.len()] ^= 1 << bit;
            }
            prop_assert!(load_pair("hostile-cut", cut_head, cut_log).is_err());
            prop_assert!(load_pair("hostile-cut", &flipped_head, &flipped_log).is_err());
        }

        #[test]
        fn garbage_never_yields_a_state(
            garbage in prop::collection::vec(0u8..=255, 0..4_096),
            keep_magic in 0u8..2,
            of_head in 0u8..2,
        ) {
            let (keep_magic, of_head) = (keep_magic == 1, of_head == 1);
            let (_, head, log) = sample();
            let mut garbage = garbage;
            if keep_magic {
                let magic = if of_head { MAGIC_CKP } else { MAGIC_LOG };
                garbage.splice(..garbage.len().min(8), magic.iter().copied());
            }
            let loaded = if of_head {
                load_pair("hostile-garbage", &garbage, log)
            } else {
                load_pair("hostile-garbage", head, &garbage)
            };
            prop_assert!(loaded.is_err());
        }
    }
}
