//! Per-connection state machine for the reactor core.
//!
//! A reactor connection is a pair of pumps over a nonblocking socket and,
//! between them, the replies it is owed. The *read side* takes one
//! `read` per readiness event into a buffer the loop owns and lends
//! ([`READ_SCRATCH_BYTES`], one per loop, not per connection) and slices
//! every complete request payload straight out of it; the connection
//! itself keeps only what that read left unfinished — normally the head
//! of a partial frame, and, while it may take no more frames, the frames
//! it has read but not taken. The *reply sequencer* gives every taken
//! frame a slot in request order: a frame on the worker pool leaves its
//! slot empty until its completion fills it, whatever order completions
//! arrive in, and replies reach the write side strictly from the front.
//! The *write side* drains a [`WriteBuffer`] that resumes cleanly from
//! partial writes (`EAGAIN` after `n` of `m` bytes), so a frame is never
//! interleaved with or truncated by a slow-draining peer.
//!
//! Everything here is transport-generic (`Read`/`Write` bounds, no
//! sockets), which is what makes the state machine unit-testable: the
//! tests below drive it over deliberately fragmenting transports that
//! return one byte at a time, inject `Interrupted`, starve writes with
//! `WouldBlock` mid-frame, and complete pool frames in any order.

use crate::metrics::Endpoint;
use crate::proto::{split_frame, ProtoError, DEFAULT_MAX_FRAME_BYTES};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// Replies a single connection may be owed — frames taken off the wire
/// whose replies wait on a worker or on a reply ahead of them — before
/// the loop stops reading from it (kernel-buffer backpressure: the bytes
/// stay in the socket until the pipeline drains).
pub const MAX_PENDING_FRAMES: usize = 32;

/// Size of the read buffer the event loop lends to whichever connection
/// is readable. One `read` of this size takes a whole pipelined burst
/// off the socket; a frame or a burst that is longer arrives over
/// several readiness events (level-triggered epoll reports the rest).
pub const READ_SCRATCH_BYTES: usize = 64 * 1024;

/// An outgoing byte queue that survives partial writes.
///
/// `push_frame` appends a length-prefixed frame; `flush_to` writes as
/// much as the transport accepts and remembers the cursor, so the next
/// readiness event resumes exactly where the last short write stopped.
/// This is the fix for the frame-interleaving hazard: a frame's bytes
/// are committed to the buffer atomically and leave it strictly in
/// order, no matter how the transport fragments them.
#[derive(Debug, Default)]
pub struct WriteBuffer {
    buf: Vec<u8>,
    /// Bytes of `buf` already written to the transport.
    head: usize,
    /// Largest pending depth ever observed, bytes.
    high_water: usize,
}

impl WriteBuffer {
    /// An empty buffer.
    pub fn new() -> WriteBuffer {
        WriteBuffer::default()
    }

    /// Bytes still waiting to be written.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Whether everything pushed has been flushed.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Largest pending depth ever observed, bytes.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Appends one length-prefixed frame (the wire format of
    /// [`crate::proto::write_frame`]) as a single atomic unit.
    pub fn push_frame(&mut self, payload: &[u8]) {
        self.push_frame_with(|buf| buf.extend_from_slice(payload));
    }

    /// Appends one frame whose payload `write` appends in place, so a
    /// reply encoded on the loop goes to the wire without a buffer of
    /// its own. `write` must only append.
    pub fn push_frame_with(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0; 4]);
        write(&mut self.buf);
        let len = (self.buf.len() - at - 4) as u32;
        if let Some(header) = self.buf.get_mut(at..at + 4) {
            header.copy_from_slice(&len.to_le_bytes());
        }
        self.high_water = self.high_water.max(self.pending());
    }

    /// Writes as much pending data as `w` accepts right now.
    ///
    /// Returns the bytes written by this call. `Interrupted` is retried
    /// in place; `WouldBlock`/`TimedOut` stop the flush without error
    /// (the caller re-arms for writability); any other error propagates.
    /// A transport that accepts zero bytes without erroring surfaces as
    /// `WriteZero` so a dead peer cannot spin the loop.
    pub fn flush_to<W: Write>(&mut self, w: &mut W) -> io::Result<usize> {
        let mut written = 0;
        while self.head < self.buf.len() {
            match w.write(&self.buf[self.head..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "peer accepts no bytes",
                    ))
                }
                Ok(n) => {
                    self.head += n;
                    written += n;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    break
                }
                Err(e) => return Err(e),
            }
        }
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        } else if self.head > 4096 {
            // Compact occasionally so a long-lived slow reader does not
            // pin an ever-growing prefix of written bytes.
            self.buf.drain(..self.head);
            self.head = 0;
        }
        Ok(written)
    }
}

/// What one read-readiness pass produced.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadEvent {
    /// Connection stays open; frames (possibly none) were extracted.
    Open,
    /// Peer half-closed its write side (EOF); flush what is owed, then
    /// close.
    PeerClosed,
    /// Peer declared a frame beyond the cap — answer with one typed
    /// error, then close.
    FrameTooLarge(usize),
    /// Unrecoverable transport error; close immediately.
    Failed,
}

/// One taken frame's place in the reply order.
#[derive(Debug)]
struct Slot {
    /// The reply, once there is one.
    reply: Option<Reply>,
    /// Whether the frame went to the pool ([`ConnState::begin`]).
    pooled: bool,
}

/// One frame's encoded reply waiting for its turn to be written.
#[derive(Debug)]
pub struct Reply {
    /// The encoded response payload.
    pub payload: Vec<u8>,
    /// The endpoint to account the request under and the instant its
    /// frame completed on the loop — where the server's latency clock
    /// for it started; `None` for a reply that is not a served request
    /// (a shed `Busy`, a typed framing error).
    pub account: Option<(Endpoint, Instant)>,
}

/// Receives each complete frame of a pass: the connection it arrived
/// on, its payload (borrowed from the read buffer — copy it to keep
/// it), and the instant the frame completed.
pub type FrameSink<'a> = &'a mut dyn FnMut(&mut ConnState, &[u8], Instant);

/// The per-connection state the reactor keeps per registered socket.
pub struct ConnState {
    /// Bytes received but not yet handed out as frames: the head of a
    /// partial frame, or — when reading paused mid-read — everything
    /// from the first frame not taken.
    carry: Vec<u8>,
    /// The reply sequencer: one slot per frame taken off the wire whose
    /// reply has not reached the outbox, in request order; a slot is
    /// empty while its frame runs on the pool. The protocol has no
    /// request ids, so replies leave from the front only.
    owed: VecDeque<Slot>,
    /// Sequence number of the front slot: frames are numbered as they
    /// are taken, so a completion finds its slot at `seq - first_seq`.
    first_seq: u64,
    /// Slots of frames that went to the pool, running or finished.
    pooled: usize,
    /// How many of this connection's frames may be between handed to the
    /// pool and answered: the pool's width — one connection can keep
    /// every worker busy, and no more replies than that can be finished
    /// and waiting when a slow one ahead of them lets them go.
    pool_width: usize,
    /// Buffered response bytes awaiting socket writability.
    pub outbox: WriteBuffer,
    /// Close once every owed reply has been written (malformed peer).
    pub close_after_flush: bool,
    /// Peer sent EOF; no more reads, close when idle.
    pub peer_closed: bool,
    /// When the partially assembled frame's first byte arrived. A frame
    /// must complete within the server's stall timeout of this instant —
    /// dripping one byte per poll cannot push the deadline out, which is
    /// what makes the timeout slow-loris-proof.
    pub frame_started: Option<Instant>,
    /// Last time the outbox made progress (slow-reader stall clock).
    pub last_write: Instant,
}

impl ConnState {
    /// Fresh state for a just-accepted connection that may have
    /// `pool_width` frames on the worker pool at a time.
    pub fn new(now: Instant, pool_width: usize) -> ConnState {
        ConnState {
            carry: Vec::new(),
            owed: VecDeque::new(),
            first_seq: 0,
            pooled: 0,
            pool_width,
            outbox: WriteBuffer::new(),
            close_after_flush: false,
            peer_closed: false,
            frame_started: None,
            last_write: now,
        }
    }

    /// Whether received bytes are waiting to become frames (a partial
    /// frame, or frames held back while reading is paused).
    pub fn mid_frame(&self) -> bool {
        !self.carry.is_empty()
    }

    /// Whether the in-progress frame has been assembling for longer than
    /// `stall`: the slow-loris cut-off.
    pub fn frame_stalled(&self, stall: Duration, now: Instant) -> bool {
        self.frame_started
            .is_some_and(|t| now.duration_since(t) > stall)
    }

    /// Whether a taken frame's reply has yet to reach the outbox. While
    /// it holds, a reply that is ready now must [`park`](Self::park)
    /// behind it; while it does not, the reply may be written to the
    /// outbox directly.
    pub fn owes_replies(&self) -> bool {
        !self.owed.is_empty()
    }

    /// Idle at a frame boundary with nothing owed: safe to close during
    /// drain.
    pub fn idle(&self) -> bool {
        !self.mid_frame() && !self.owes_replies() && self.outbox.is_empty()
    }

    /// Whether reading should stop: the connection is owed as many
    /// replies as it may be ([`MAX_PENDING_FRAMES`]), the pool's width of
    /// them are for frames it handed to the pool (a frame taken now
    /// might be one more, and frames are taken in request order), the
    /// peer is not reading its replies (a frame's worth,
    /// [`DEFAULT_MAX_FRAME_BYTES`], is already buffered — a peer that
    /// pipelines and never reads must not grow the outbox without
    /// bound), or the connection is condemned and whatever else it sends
    /// will not be answered. While this holds the reactor drops
    /// `EPOLLIN` from the connection's interest — with level-triggered
    /// epoll, staying subscribed to a socket we refuse to read would
    /// re-report it on every `epoll_wait` and spin the loop hot exactly
    /// when the server is saturated. Unread bytes wait in the kernel
    /// buffer; interest is re-armed as replies leave their slots and
    /// flushes shrink the outbox.
    pub fn read_paused(&self) -> bool {
        self.close_after_flush
            || self.owed.len() >= MAX_PENDING_FRAMES
            || self.pooled >= self.pool_width
            || self.outbox.pending() >= DEFAULT_MAX_FRAME_BYTES
    }

    /// Takes the next slot for a frame handed to the pool and returns
    /// its sequence number, which the completion brings back.
    pub fn begin(&mut self) -> u64 {
        self.owed.push_back(Slot {
            reply: None,
            pooled: true,
        });
        self.pooled += 1;
        self.first_seq + (self.owed.len() as u64 - 1)
    }

    /// Takes the next slot for a reply that is ready now but has replies
    /// ahead of it ([`owes_replies`](Self::owes_replies)).
    pub fn park(&mut self, reply: Reply) {
        self.owed.push_back(Slot {
            reply: Some(reply),
            pooled: false,
        });
    }

    /// Fills the slot [`begin`](Self::begin) numbered `seq`. Returns
    /// whether there was such a slot still waiting.
    pub fn complete(&mut self, seq: u64, reply: Reply) -> bool {
        let slot = seq
            .checked_sub(self.first_seq)
            .and_then(|i| self.owed.get_mut(usize::try_from(i).ok()?));
        match slot {
            Some(Slot {
                reply: slot @ None, ..
            }) => {
                *slot = Some(reply);
                true
            }
            _ => false,
        }
    }

    /// Moves every reply whose turn has come — the filled slots at the
    /// front — into the outbox, in order, and tells `account` about the
    /// served ones: endpoint and time since the frame completed.
    pub fn release(&mut self, mut account: impl FnMut(Endpoint, Duration)) {
        while let Some(Slot {
            reply: Some(reply),
            pooled,
        }) = self.owed.front()
        {
            self.outbox.push_frame(&reply.payload);
            if let Some((endpoint, completed)) = reply.account {
                account(endpoint, completed.elapsed());
            }
            self.pooled -= usize::from(*pooled);
            self.owed.pop_front();
            self.first_seq += 1;
        }
    }

    /// Pumps the read side after a readiness event: one `read` into
    /// `scratch`, then every complete frame in what arrived goes to
    /// `sink`, in order, until the bytes run out or reading pauses
    /// ([`ConnState::read_paused`] — backpressure by not reading; the
    /// frames not taken wait for [`ConnState::resume`]). One read, not
    /// a loop to `WouldBlock`: a burst costs one syscall, and a peer
    /// that never stops sending gets one buffer's worth per turn of the
    /// loop, not the loop.
    pub fn read_ready<R: Read>(
        &mut self,
        r: &mut R,
        scratch: &mut [u8],
        max_frame_bytes: usize,
        sink: FrameSink<'_>,
    ) -> ReadEvent {
        if self.read_paused() {
            return ReadEvent::Open;
        }
        let n = loop {
            match r.read(scratch) {
                Ok(0) => return ReadEvent::PeerClosed,
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return ReadEvent::Open
                }
                Err(_) => return ReadEvent::Failed,
            }
        };
        let now = Instant::now();
        let arrived = scratch.get(..n).unwrap_or_default();
        let sliced = if self.carry.is_empty() {
            // The common case: nothing left over, so the frames are
            // sliced where the kernel put them and only an unfinished
            // tail is copied.
            self.slice(arrived, max_frame_bytes, now, sink)
                .map(|rest| self.carry.extend_from_slice(rest))
        } else {
            self.carry.extend_from_slice(arrived);
            self.slice_carry(max_frame_bytes, now, sink)
        };
        read_event(sliced)
    }

    /// Hands out the frames a pause made [`ConnState::read_ready`] hold
    /// back, as far as there is room now. No
    /// read: these bytes left the socket already, so no readiness event
    /// will announce them.
    pub fn resume(&mut self, max_frame_bytes: usize, sink: FrameSink<'_>) -> ReadEvent {
        if self.carry.is_empty() {
            return ReadEvent::Open;
        }
        read_event(self.slice_carry(max_frame_bytes, Instant::now(), sink))
    }

    /// Slices frames off the front of the carried bytes and keeps the
    /// rest (an emptied carry gives its allocation back: ten thousand
    /// idle connections should hold ten thousand empty vectors).
    fn slice_carry(
        &mut self,
        max_frame_bytes: usize,
        now: Instant,
        sink: FrameSink<'_>,
    ) -> Result<(), ProtoError> {
        let mut carry = std::mem::take(&mut self.carry);
        let rest = self.slice(&carry, max_frame_bytes, now, sink)?.len();
        if rest > 0 {
            carry.drain(..carry.len() - rest);
            self.carry = carry;
        }
        Ok(())
    }

    /// Feeds `sink` the complete frames at the front of `bytes` while
    /// reading is not paused, keeps the stall clock (set while what
    /// is left starts with a partial frame, clear otherwise), and
    /// returns the bytes not consumed.
    fn slice<'b>(
        &mut self,
        bytes: &'b [u8],
        max_frame_bytes: usize,
        now: Instant,
        sink: FrameSink<'_>,
    ) -> Result<&'b [u8], ProtoError> {
        let mut rest = bytes;
        let mut partial = false;
        while !rest.is_empty() && !self.read_paused() {
            let Some(payload) = split_frame(&mut rest, max_frame_bytes)? else {
                partial = true;
                break;
            };
            // The deadline is anchored to a frame's *first* byte; a
            // completed frame takes its anchor with it.
            self.frame_started = None;
            sink(self, payload, now);
        }
        self.frame_started = if partial {
            self.frame_started.or(Some(now))
        } else {
            None
        };
        Ok(rest)
    }
}

/// The [`ReadEvent`] a slicing pass ends in.
fn read_event(sliced: Result<(), ProtoError>) -> ReadEvent {
    match sliced {
        Ok(()) => ReadEvent::Open,
        Err(ProtoError::FrameTooLarge(n)) => ReadEvent::FrameTooLarge(n),
        Err(_) => ReadEvent::Failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{read_frame, write_frame};

    /// A transport that accepts at most `chunk` bytes per call and
    /// injects `Interrupted` and `WouldBlock` on a schedule — the
    /// nastiest legal behaviour of a nonblocking socket.
    struct Fragmenting {
        sink: Vec<u8>,
        chunk: usize,
        calls: usize,
        interrupt_every: usize,
        block_every: usize,
    }

    impl Fragmenting {
        fn new(chunk: usize) -> Fragmenting {
            Fragmenting {
                sink: Vec::new(),
                chunk,
                calls: 0,
                interrupt_every: 3,
                block_every: 5,
            }
        }
    }

    impl Write for Fragmenting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.interrupt_every > 0 && self.calls % self.interrupt_every == 0 {
                return Err(io::Error::new(io::ErrorKind::Interrupted, "signal"));
            }
            if self.block_every > 0 && self.calls % self.block_every == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "eagain"));
            }
            let n = buf.len().min(self.chunk);
            self.sink.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Reads that hand out one byte at a time, then block.
    struct DripReader {
        data: Vec<u8>,
        pos: usize,
        per_call: usize,
    }

    impl Read for DripReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.data.len() {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "dry"));
            }
            let n = buf.len().min(self.per_call).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// A connection that may have two frames on the pool, like a server
    /// with two workers.
    fn conn() -> ConnState {
        ConnState::new(Instant::now(), 2)
    }

    /// A reply that is not accounted, carrying `payload`.
    fn reply(payload: &[u8]) -> Reply {
        Reply {
            payload: payload.to_vec(),
            account: None,
        }
    }

    /// The sink of a connection that answers every frame at once with
    /// the frame's own bytes: into the outbox, or into the next slot
    /// when replies are owed ahead of it — what the loop does with a
    /// constant-time request.
    fn echo(conn: &mut ConnState, payload: &[u8], _completed: Instant) {
        if conn.owes_replies() {
            conn.park(reply(payload));
        } else {
            conn.outbox.push_frame(payload);
        }
    }

    /// Read passes (one `read` each, as one readiness event gives) until
    /// the drip reader is dry, echoing every frame.
    fn drain(conn: &mut ConnState, r: &mut DripReader, max_frame_bytes: usize) -> ReadEvent {
        let mut scratch = vec![0; READ_SCRATCH_BYTES];
        loop {
            let event = conn.read_ready(r, &mut scratch, max_frame_bytes, &mut echo);
            if event != ReadEvent::Open || r.pos >= r.data.len() || conn.read_paused() {
                return event;
            }
        }
    }

    /// Flushes the outbox and returns the payloads of the frames in it.
    fn written(conn: &mut ConnState) -> Vec<Vec<u8>> {
        let mut wire = Vec::new();
        conn.outbox.flush_to(&mut wire).unwrap();
        let mut rest = &wire[..];
        let mut frames = Vec::new();
        while let Some(payload) = split_frame(&mut rest, usize::MAX).unwrap() {
            frames.push(payload.to_vec());
        }
        assert!(rest.is_empty(), "a partial frame was written");
        frames
    }

    #[test]
    fn write_buffer_resumes_partial_writes_without_interleaving() {
        let mut wb = WriteBuffer::new();
        wb.push_frame(b"first frame payload");
        wb.push_frame(b"second");
        let mut t = Fragmenting::new(3);
        // Pump until drained; WouldBlock returns are re-entered like an
        // EPOLLOUT readiness event would.
        let mut guard = 0;
        while !wb.is_empty() {
            wb.flush_to(&mut t).unwrap();
            guard += 1;
            assert!(guard < 1000, "flush loop did not converge");
        }
        // The receiver sees two intact, in-order frames.
        let mut r = &t.sink[..];
        assert_eq!(read_frame(&mut r, 1 << 20).unwrap(), b"first frame payload");
        assert_eq!(read_frame(&mut r, 1 << 20).unwrap(), b"second");
        assert!(r.is_empty());
        assert!(wb.high_water() >= b"first frame payload".len() + b"second".len());
    }

    #[test]
    fn write_buffer_matches_write_frame_bytes_exactly() {
        // The buffer's framing must be byte-identical to the blocking
        // path's write_frame, or the two cores would diverge on the wire.
        let payload = b"identical bytes please";
        let mut direct = Vec::new();
        write_frame(&mut direct, payload).unwrap();
        let mut wb = WriteBuffer::new();
        wb.push_frame(payload);
        let mut sink = Vec::new();
        wb.flush_to(&mut sink).unwrap();
        assert_eq!(sink, direct);
    }

    #[test]
    fn write_zero_is_an_error_not_a_spin() {
        struct Dead;
        impl Write for Dead {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut wb = WriteBuffer::new();
        wb.push_frame(b"x");
        let err = wb.flush_to(&mut Dead).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn framing_in_place_matches_push_frame() {
        let mut copied = WriteBuffer::new();
        copied.push_frame(b"first");
        copied.push_frame(b"second, longer");
        let mut in_place = WriteBuffer::new();
        in_place.push_frame_with(|out| out.extend_from_slice(b"first"));
        in_place.push_frame_with(|out| {
            out.extend_from_slice(b"second, ");
            out.extend_from_slice(b"longer");
        });
        let (mut a, mut b) = (Vec::new(), Vec::new());
        copied.flush_to(&mut a).unwrap();
        in_place.flush_to(&mut b).unwrap();
        assert_eq!(a, b);
        assert_eq!(copied.high_water(), in_place.high_water());
    }

    #[test]
    fn read_side_reassembles_one_byte_drip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"slow but valid").unwrap();
        write_frame(&mut wire, b"second frame").unwrap();
        let mut r = DripReader {
            data: wire,
            pos: 0,
            per_call: 1,
        };
        let mut conn = conn();
        // One byte per readiness event, all the way through both frames.
        assert_eq!(drain(&mut conn, &mut r, 1 << 20), ReadEvent::Open);
        assert_eq!(
            written(&mut conn),
            [&b"slow but valid"[..], &b"second frame"[..]]
        );
        assert!(!conn.mid_frame());
    }

    #[test]
    fn oversized_frame_is_reported_and_peer_eof_detected() {
        let mut scratch = vec![0; READ_SCRATCH_BYTES];
        let huge = (1_000_000u32).to_le_bytes();
        let mut r = &huge[..];
        assert_eq!(
            conn().read_ready(&mut r, &mut scratch, 1024, &mut echo),
            ReadEvent::FrameTooLarge(1_000_000)
        );
        // A zero-length frame is refused the same way.
        let mut r = &[0u8; 4][..];
        assert_eq!(
            conn().read_ready(&mut r, &mut scratch, 1024, &mut echo),
            ReadEvent::FrameTooLarge(0)
        );
        let empty: &[u8] = &[];
        let mut r = empty;
        assert_eq!(
            conn().read_ready(&mut r, &mut scratch, 1024, &mut echo),
            ReadEvent::PeerClosed
        );
    }

    #[test]
    fn backpressure_stops_reading_at_the_pending_cap() {
        let mut wire = Vec::new();
        let sent: Vec<Vec<u8>> = (0..(MAX_PENDING_FRAMES + 10))
            .map(|i| format!("req {i}").into_bytes())
            .collect();
        for payload in &sent {
            write_frame(&mut wire, payload).unwrap();
        }
        // The whole burst fits one read, and then half of a second burst
        // is left in the transport.
        let second = wire.clone();
        wire.extend_from_slice(&second);
        let mut r = DripReader {
            pos: 0,
            per_call: second.len(),
            data: wire,
        };
        // A request on the pool ahead of the burst: every reply to it
        // has to wait in a slot.
        let mut conn = conn();
        let first = conn.begin();
        assert_eq!(drain(&mut conn, &mut r, 1 << 20), ReadEvent::Open);
        assert_eq!(
            conn.owed.len(),
            MAX_PENDING_FRAMES,
            "cap must bound one pass"
        );
        // Full slots stop the reading: the second burst is still in the
        // transport, and the frames read but not taken are held, not
        // lost and not mistaken for a stalled partial frame.
        assert!(conn.read_paused());
        assert_eq!(r.pos, second.len());
        assert!(conn.mid_frame());
        assert_eq!(conn.frame_started, None);
        let mut scratch = vec![0; READ_SCRATCH_BYTES];
        assert_eq!(
            conn.read_ready(&mut r, &mut scratch, 1 << 20, &mut echo),
            ReadEvent::Open
        );
        assert_eq!(r.pos, second.len(), "a paused connection must not read");
        assert!(conn.outbox.is_empty(), "nothing may pass the empty slot");
        // The completion comes back: the slots drain in order, and the
        // held frames come in, in order, without a read.
        assert!(conn.complete(first, reply(b"pool reply")));
        conn.release(|_, _| panic!("nothing here is accounted"));
        assert!(!conn.owes_replies());
        assert_eq!(conn.resume(1 << 20, &mut echo), ReadEvent::Open);
        let mut want = vec![b"pool reply".to_vec()];
        want.extend(sent);
        assert_eq!(written(&mut conn), want);
        assert!(!conn.mid_frame());
    }

    #[test]
    fn frame_deadline_anchors_to_the_first_byte() {
        use std::time::Duration;
        let mut wire = Vec::new();
        write_frame(&mut wire, b"a slow frame").unwrap();
        let (first, rest) = wire.split_at(3);
        let mut conn = conn();
        let mut r = DripReader {
            data: first.to_vec(),
            pos: 0,
            per_call: 1,
        };
        drain(&mut conn, &mut r, 1 << 20);
        let started = conn.frame_started.expect("mid-frame sets the anchor");
        assert!(conn.frame_stalled(Duration::ZERO, started + Duration::from_millis(1)));
        assert!(!conn.frame_stalled(Duration::from_secs(30), started + Duration::from_millis(1)));
        // More bytes arriving must NOT move the anchor…
        let mut r = DripReader {
            data: rest[..2].to_vec(),
            pos: 0,
            per_call: 1,
        };
        drain(&mut conn, &mut r, 1 << 20);
        assert_eq!(
            conn.frame_started,
            Some(started),
            "drip must not reset the deadline"
        );
        // …and completing the frame clears it.
        let mut r = DripReader {
            data: rest[2..].to_vec(),
            pos: 0,
            per_call: 4096,
        };
        drain(&mut conn, &mut r, 1 << 20);
        assert_eq!(written(&mut conn), [b"a slow frame"]);
        assert_eq!(conn.frame_started, None);
    }

    #[test]
    fn read_pauses_exactly_at_the_pending_cap() {
        let mut conn = conn();
        assert!(!conn.read_paused());
        let first = conn.begin();
        for i in 1..MAX_PENDING_FRAMES {
            assert!(!conn.read_paused(), "slot {i} is free");
            conn.park(reply(&[i as u8]));
        }
        assert!(conn.read_paused(), "full slots must stop reading");
        conn.complete(first, reply(b"first"));
        conn.release(|_, _| {});
        assert!(!conn.read_paused(), "free slots must resume reading");
        // The pool's width of frames handed to the pool pauses it too,
        // until the first of them is answered: one finished behind it
        // waits, and holds its place.
        let (a, b) = (conn.begin(), conn.begin());
        assert!(
            conn.read_paused(),
            "a connection's share of the pool is taken"
        );
        assert!(conn.complete(b, reply(b"b")));
        conn.release(|_, _| {});
        assert!(
            conn.read_paused(),
            "a reply waiting its turn holds its share"
        );
        assert!(conn.complete(a, reply(b"a")));
        conn.release(|_, _| {});
        assert!(!conn.read_paused(), "answered frames free their share");
        conn.outbox.flush_to(&mut Vec::new()).unwrap();
        // A frame's worth of replies the peer has not taken pauses it
        // too, until a flush makes room.
        conn.outbox.push_frame(&vec![0; DEFAULT_MAX_FRAME_BYTES]);
        assert!(conn.read_paused(), "a backed-up outbox must stop reading");
        conn.outbox.flush_to(&mut Vec::new()).unwrap();
        assert!(!conn.read_paused(), "a flushed outbox must resume reading");
        conn.close_after_flush = true;
        assert!(conn.read_paused(), "a condemned connection reads no more");
    }

    #[test]
    fn idle_reflects_every_obligation() {
        let mut conn = conn();
        assert!(conn.idle());
        let seq = conn.begin();
        assert!(!conn.idle(), "a frame on the pool is owed a reply");
        conn.complete(seq, reply(b"owed"));
        assert!(!conn.idle(), "a finished reply is owed until written");
        conn.release(|_, _| {});
        assert!(!conn.idle(), "a buffered reply is owed until flushed");
        let mut sink = Vec::new();
        conn.outbox.flush_to(&mut sink).unwrap();
        assert!(conn.idle());
    }

    #[test]
    fn replies_leave_in_request_order_however_completions_arrive() {
        let mut conn = ConnState::new(Instant::now(), 3);
        let a = conn.begin();
        let b = conn.begin();
        conn.park(reply(b"loop"));
        let c = conn.begin();
        // Last first: nothing may pass the first slot.
        assert!(conn.complete(c, reply(b"c")));
        assert!(conn.complete(b, reply(b"b")));
        conn.release(|_, _| {});
        assert!(conn.outbox.is_empty());
        // A completion is filed once, and only in a slot that exists.
        assert!(!conn.complete(b, reply(b"b again")));
        assert!(!conn.complete(c + 1, reply(b"never begun")));
        let completed = Instant::now();
        let accounted = Reply {
            payload: b"a".to_vec(),
            account: Some((Endpoint::Stats, completed)),
        };
        assert!(conn.complete(a, accounted));
        let mut served = Vec::new();
        conn.release(|endpoint, _wall| served.push(endpoint));
        assert_eq!(served, [Endpoint::Stats]);
        assert_eq!(written(&mut conn), [&b"a"[..], b"b", b"loop", b"c"]);
        // Numbering goes on where it was: an old number finds no slot.
        let d = conn.begin();
        assert_eq!(d, c + 1);
        assert!(!conn.complete(a, reply(b"stale")));
        assert!(conn.complete(d, reply(b"d")));
        conn.release(|_, _| {});
        assert_eq!(written(&mut conn), [b"d"]);
        assert!(conn.idle());
    }

    /// A transport that follows a script: each `read` takes the next
    /// step — so many bytes, `Interrupted`, or `WouldBlock` — and once
    /// the script is over hands out whatever is left, then blocks.
    struct Scripted {
        data: Vec<u8>,
        pos: usize,
        steps: std::vec::IntoIter<usize>,
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let left = self.data.len() - self.pos;
            let want = match self.steps.next() {
                Some(step) if step % 8 == 0 => {
                    return Err(io::Error::new(io::ErrorKind::Interrupted, "signal"))
                }
                Some(step) if step % 8 == 1 => 0,
                // Mostly short reads, now and then everything there is.
                Some(step) if step % 8 == 2 => left,
                Some(step) => 1 + step % 23,
                None => left,
            };
            let n = want.min(left).min(buf.len());
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "eagain"));
            }
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// What the model server does with a frame, read off its first
    /// byte.
    #[derive(PartialEq)]
    enum Kind {
        /// Answered where it stands, as the loop answers a lookup.
        Loop,
        /// Refused where it stands with `busy`, as admission sheds.
        Shed,
        /// Handed to the pool; its completion comes back some time later.
        Pool,
        /// Handed to the pool, where its worker is killed.
        Killed,
        /// Answered with `error`, and the connection condemned.
        Malformed,
    }

    fn kind(payload: &[u8]) -> Kind {
        match payload[0] {
            255 => Kind::Malformed,
            254 => Kind::Killed,
            b if b % 4 == 0 => Kind::Loop,
            b if b % 4 == 1 => Kind::Shed,
            _ => Kind::Pool,
        }
    }

    /// The reply the model server owes a frame.
    fn reply_to(payload: &[u8]) -> Vec<u8> {
        match kind(payload) {
            Kind::Loop => payload.to_vec(),
            Kind::Shed => b"busy".to_vec(),
            Kind::Pool | Kind::Killed => [b"done ", payload].concat(),
            Kind::Malformed => b"error".to_vec(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(192))]

        /// However the bytes of an N-frame stream are cut up — one-byte
        /// drips, one burst, frames split across readiness events,
        /// bursts longer than the read buffer, `Interrupted` and
        /// `WouldBlock` in between — and whatever the frames are — pool
        /// requests that complete in any order, any number at a time,
        /// lookups answered at once between them, a shed in the middle,
        /// a malformed frame behind requests still running — the replies
        /// come out one per frame in request order, up to the malformed
        /// frame's and none after it; a bad length after the frames is
        /// still a typed `FrameTooLarge`; a killed worker ends it with
        /// the replies so far being the first of those owed; and the
        /// connection never holds more than its bounds nor ends wedged.
        #[test]
        fn any_fragmentation_yields_the_same_frames_in_order(
            frames in proptest::collection::vec(
                proptest::collection::vec(0u8..=255, 1usize..200), 1usize..80),
            steps in proptest::collection::vec(0usize..1000, 0usize..400),
            finish in proptest::collection::vec(0usize..1000, 1usize..60),
            pool_width in 1usize..4,
            scratch_len in 5usize..300,
            tail in 0u8..3,
        ) {
            const MAX: usize = 4096;
            let mut wire = Vec::new();
            for payload in &frames {
                write_frame(&mut wire, payload).unwrap();
            }
            let bad = match tail {
                0 => None,
                1 => Some(0usize),
                _ => Some(MAX + 1),
            };
            if let Some(len) = bad {
                wire.extend_from_slice(&(len as u32).to_le_bytes());
                wire.extend_from_slice(b"whatever follows");
            }
            let condemned_at = frames.iter().position(|f| kind(f) == Kind::Malformed);
            let mut expected: Vec<Vec<u8>> = frames
                .iter()
                .take(condemned_at.map_or(frames.len(), |at| at + 1))
                .map(|f| reply_to(f))
                .collect();
            if condemned_at.is_none() && bad.is_some() {
                expected.push(b"too large".to_vec());
            }

            let mut r = Scripted { data: wire, pos: 0, steps: steps.into_iter() };
            let mut scratch = vec![0; scratch_len];
            let mut conn = ConnState::new(Instant::now(), pool_width);
            let mut running: Vec<(u64, Vec<u8>)> = Vec::new();
            let mut got: Vec<Vec<u8>> = Vec::new();
            let mut refused = None;
            let mut killed = false;
            let mut round = 0;
            loop {
                round += 1;
                proptest::prop_assert!(round < 10_000, "the rounds do not converge");
                let dry = r.pos >= r.data.len() || conn.close_after_flush;
                // Completions come back: as many as the script says while
                // the peer is still sending (one at least when reading
                // waits for one), all of them once it is not, in an order
                // the script picks.
                let due = match dry {
                    true => running.len(),
                    false => (finish[round % finish.len()] % (running.len() + 1))
                        .max(usize::from(conn.read_paused()))
                        .min(running.len()),
                };
                for k in 0..due {
                    let pick = finish[(round + k) % finish.len()] % running.len();
                    let (seq, payload) = running.swap_remove(pick);
                    if kind(&payload) == Kind::Killed {
                        killed = true;
                        break;
                    }
                    proptest::prop_assert!(conn.complete(seq, reply(&reply_to(&payload))));
                }
                if killed {
                    break; // the loop closes the connection
                }
                conn.release(|_, _| {});
                let mut sink = |conn: &mut ConnState, payload: &[u8], at: Instant| {
                    match kind(payload) {
                        Kind::Pool | Kind::Killed => running.push((conn.begin(), payload.to_vec())),
                        Kind::Malformed => {
                            echo(conn, &reply_to(payload), at);
                            conn.close_after_flush = true;
                        }
                        Kind::Loop | Kind::Shed => echo(conn, &reply_to(payload), at),
                    }
                    assert!(conn.owed.len() <= MAX_PENDING_FRAMES, "owed past the cap");
                    assert!(conn.pooled <= pool_width, "on the pool past its width");
                };
                // Held frames first, then one read — each settled before
                // the next, as the loop settles a pass.
                for reading in [false, true] {
                    let event = match reading {
                        false => conn.resume(MAX, &mut sink),
                        true if dry => ReadEvent::Open,
                        true => conn.read_ready(&mut r, &mut scratch, MAX, &mut sink),
                    };
                    match event {
                        ReadEvent::Open => {}
                        ReadEvent::FrameTooLarge(n) => {
                            refused = Some(n);
                            echo(&mut conn, b"too large", Instant::now());
                            conn.close_after_flush = true;
                        }
                        other => proptest::prop_assert!(false, "unexpected {other:?}"),
                    }
                }
                got.extend(written(&mut conn));
                if dry && running.is_empty() {
                    break;
                }
            }
            if killed {
                proptest::prop_assert!(got.len() <= expected.len());
                proptest::prop_assert_eq!(&got[..], &expected[..got.len()]);
                return Ok(());
            }
            proptest::prop_assert_eq!(&got, &expected);
            proptest::prop_assert!(!conn.owes_replies(), "a reply was left waiting");
            proptest::prop_assert_eq!(refused, bad.filter(|_| condemned_at.is_none()));
            if bad.is_none() && condemned_at.is_none() {
                proptest::prop_assert!(conn.idle());
                proptest::prop_assert_eq!(conn.frame_started, None);
            }
        }
    }
}
