//! Per-connection state machine for the reactor core.
//!
//! A reactor connection is a pair of pumps over a nonblocking socket.
//! The *read side* takes one `read` per readiness event into a buffer
//! the loop owns and lends ([`READ_SCRATCH_BYTES`], one per loop, not
//! per connection) and slices every complete request payload straight
//! out of it; the connection itself keeps only what that read left
//! unfinished — normally the head of a partial frame, and, when its
//! pending queue is full, the frames it may not take yet. The *write
//! side* drains a [`WriteBuffer`] that resumes cleanly from partial
//! writes (`EAGAIN` after `n` of `m` bytes), so a frame is never
//! interleaved with or truncated by a slow-draining peer.
//!
//! Everything here is transport-generic (`Read`/`Write` bounds, no
//! sockets), which is what makes the state machine unit-testable: the
//! tests below drive it over deliberately fragmenting transports that
//! return one byte at a time, inject `Interrupted`, and starve writes
//! with `WouldBlock` mid-frame.

use crate::proto::{split_frame, ProtoError, DEFAULT_MAX_FRAME_BYTES};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::time::Instant;

/// Pending frames a single connection may queue behind its in-flight
/// request before the loop stops reading from it (kernel-buffer
/// backpressure: the bytes stay in the socket until the pipeline
/// drains).
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

/// A complete request payload waiting its turn behind the connection's
/// in-flight request.
#[derive(Debug)]
pub struct PendingFrame {
    /// The frame's payload bytes.
    pub payload: Vec<u8>,
    /// When the read that completed the frame returned: where the
    /// server's latency clock for this request starts.
    pub completed: Instant,
}

/// Receives each complete frame of a pass: the connection it arrived
/// on, its payload (borrowed from the read buffer — copy it to keep
/// it), and the instant the frame completed.
pub type FrameSink<'a> = &'a mut dyn FnMut(&mut ConnState, &[u8], Instant);

/// The per-connection state the reactor keeps per registered socket.
pub struct ConnState {
    /// Bytes received but not yet handed out as frames: the head of a
    /// partial frame, or — when the pending queue was full mid-read —
    /// everything from the first frame not taken.
    carry: Vec<u8>,
    /// Complete request payloads queued behind the in-flight one.
    pub pending: VecDeque<PendingFrame>,
    /// A request from this connection is executing on the worker pool.
    pub in_flight: bool,
    /// Buffered response bytes awaiting socket writability.
    pub outbox: WriteBuffer,
    /// Close once the outbox drains (malformed peer, shed follow-up).
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
    /// Fresh state for a just-accepted connection.
    pub fn new(now: Instant) -> ConnState {
        ConnState {
            carry: Vec::new(),
            pending: VecDeque::new(),
            in_flight: false,
            outbox: WriteBuffer::new(),
            close_after_flush: false,
            peer_closed: false,
            frame_started: None,
            last_write: now,
        }
    }

    /// Whether received bytes are waiting to become frames (a partial
    /// frame, or frames held back by a full pending queue).
    pub fn mid_frame(&self) -> bool {
        !self.carry.is_empty()
    }

    /// Whether the in-progress frame has been assembling for longer than
    /// `stall`: the slow-loris cut-off.
    pub fn frame_stalled(&self, stall: std::time::Duration, now: Instant) -> bool {
        self.frame_started
            .is_some_and(|t| now.duration_since(t) > stall)
    }

    /// Idle at a frame boundary with nothing owed: safe to close during
    /// drain.
    pub fn idle(&self) -> bool {
        !self.mid_frame() && !self.in_flight && self.pending.is_empty() && self.outbox.is_empty()
    }

    /// Whether reading should stop: the pipeline is full, the peer is not
    /// reading its replies (a frame's worth, [`DEFAULT_MAX_FRAME_BYTES`],
    /// is already owed — a peer that pipelines and never reads must not
    /// grow the outbox without bound), or the connection is condemned and
    /// whatever else it sends will not be answered. While this holds the
    /// reactor drops `EPOLLIN` from the connection's interest — with
    /// level-triggered epoll, staying subscribed to a socket we refuse to
    /// read would re-report it on every `epoll_wait` and spin the loop
    /// hot exactly when the server is saturated. Unread bytes wait in the
    /// kernel buffer; interest is re-armed as completions shrink the
    /// queue and flushes shrink the outbox.
    pub fn read_paused(&self) -> bool {
        self.close_after_flush
            || self.pending.len() >= MAX_PENDING_FRAMES
            || self.outbox.pending() >= DEFAULT_MAX_FRAME_BYTES
    }

    /// Pumps the read side after a readiness event: one `read` into
    /// `scratch`, then every complete frame in what arrived goes to
    /// `sink`, in order, until the bytes run out or the pending queue
    /// fills ([`MAX_PENDING_FRAMES`] — backpressure by not reading; the
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

    /// Hands out the frames a full pending queue or a full outbox made
    /// [`ConnState::read_ready`] hold back, now that there is room. No
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
    /// the pending queue has room, keeps the stall clock (set while what
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

    /// The sink of a connection with a request in flight: every frame
    /// waits in the pending queue.
    fn queue(conn: &mut ConnState, payload: &[u8], completed: Instant) {
        conn.pending.push_back(PendingFrame {
            payload: payload.to_vec(),
            completed,
        });
    }

    /// Read passes (one `read` each, as one readiness event gives) until
    /// the drip reader is dry, queueing every frame.
    fn drain(conn: &mut ConnState, r: &mut DripReader, max_frame_bytes: usize) -> ReadEvent {
        let mut scratch = vec![0; READ_SCRATCH_BYTES];
        loop {
            let event = conn.read_ready(r, &mut scratch, max_frame_bytes, &mut queue);
            if event != ReadEvent::Open || r.pos >= r.data.len() || conn.read_paused() {
                return event;
            }
        }
    }

    fn queued(conn: &ConnState) -> Vec<&[u8]> {
        conn.pending.iter().map(|f| &f.payload[..]).collect()
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
        let mut conn = ConnState::new(Instant::now());
        // One byte per readiness event, all the way through both frames.
        assert_eq!(drain(&mut conn, &mut r, 1 << 20), ReadEvent::Open);
        assert_eq!(
            queued(&conn),
            [&b"slow but valid"[..], &b"second frame"[..]]
        );
        assert!(!conn.mid_frame());
    }

    #[test]
    fn oversized_frame_is_reported_and_peer_eof_detected() {
        let mut scratch = vec![0; READ_SCRATCH_BYTES];
        let mut conn = ConnState::new(Instant::now());
        let huge = (1_000_000u32).to_le_bytes();
        let mut r = &huge[..];
        assert_eq!(
            conn.read_ready(&mut r, &mut scratch, 1024, &mut queue),
            ReadEvent::FrameTooLarge(1_000_000)
        );
        // A zero-length frame is refused the same way.
        let mut conn = ConnState::new(Instant::now());
        let mut r = &[0u8; 4][..];
        assert_eq!(
            conn.read_ready(&mut r, &mut scratch, 1024, &mut queue),
            ReadEvent::FrameTooLarge(0)
        );
        let mut conn = ConnState::new(Instant::now());
        let empty: &[u8] = &[];
        let mut r = empty;
        assert_eq!(
            conn.read_ready(&mut r, &mut scratch, 1024, &mut queue),
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
        let mut conn = ConnState::new(Instant::now());
        assert_eq!(drain(&mut conn, &mut r, 1 << 20), ReadEvent::Open);
        assert_eq!(
            conn.pending.len(),
            MAX_PENDING_FRAMES,
            "cap must bound one pass"
        );
        // A full queue stops the reading: the second burst is still in
        // the transport, and the frames read but not taken are held, not
        // lost and not mistaken for a stalled partial frame.
        assert!(conn.read_paused());
        assert_eq!(r.pos, second.len());
        assert!(conn.mid_frame());
        assert_eq!(conn.frame_started, None);
        let mut scratch = vec![0; READ_SCRATCH_BYTES];
        assert_eq!(
            conn.read_ready(&mut r, &mut scratch, 1 << 20, &mut queue),
            ReadEvent::Open
        );
        assert_eq!(r.pos, second.len(), "a paused connection must not read");
        // The queue drains; the held frames come in, in order, without a
        // read.
        let mut got: Vec<Vec<u8>> = conn.pending.drain(..).map(|f| f.payload).collect();
        assert_eq!(conn.resume(1 << 20, &mut queue), ReadEvent::Open);
        got.extend(conn.pending.drain(..).map(|f| f.payload));
        assert_eq!(got, sent);
        assert!(!conn.mid_frame());
    }

    #[test]
    fn frame_deadline_anchors_to_the_first_byte() {
        use std::time::Duration;
        let mut wire = Vec::new();
        write_frame(&mut wire, b"a slow frame").unwrap();
        let (first, rest) = wire.split_at(3);
        let mut conn = ConnState::new(Instant::now());
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
        assert_eq!(conn.pending.len(), 1);
        assert_eq!(conn.frame_started, None);
    }

    #[test]
    fn read_pauses_exactly_at_the_pending_cap() {
        let mut conn = ConnState::new(Instant::now());
        assert!(!conn.read_paused());
        for i in 0..MAX_PENDING_FRAMES {
            queue(&mut conn, &[i as u8], Instant::now());
        }
        assert!(conn.read_paused(), "full pipeline must stop reading");
        conn.pending.pop_front();
        assert!(!conn.read_paused(), "one free slot must resume reading");
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
        let mut conn = ConnState::new(Instant::now());
        assert!(conn.idle());
        conn.in_flight = true;
        assert!(!conn.idle());
        conn.in_flight = false;
        conn.outbox.push_frame(b"owed");
        assert!(!conn.idle());
        let mut sink = Vec::new();
        conn.outbox.flush_to(&mut sink).unwrap();
        assert!(conn.idle());
        queue(&mut conn, b"queued", Instant::now());
        assert!(!conn.idle());
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

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(192))]

        /// However the bytes of an N-frame stream are cut up — one-byte
        /// drips, one burst, frames split across readiness events,
        /// bursts longer than the read buffer, `Interrupted` and
        /// `WouldBlock` in between — and however the connection
        /// alternates between having a request in flight (frames queue,
        /// the queue fills, reading pauses) and not (frames are taken on
        /// the spot), the same payloads come out in the same order, and
        /// a bad length after them is still a typed `FrameTooLarge`.
        #[test]
        fn any_fragmentation_yields_the_same_frames_in_order(
            frames in proptest::collection::vec(
                proptest::collection::vec(0u8..=255, 1usize..200), 1usize..80),
            steps in proptest::collection::vec(0usize..1000, 0usize..400),
            in_flight in proptest::collection::vec(0u8..3, 1usize..60),
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
            let mut r = Scripted { data: wire, pos: 0, steps: steps.into_iter() };
            let mut scratch = vec![0; scratch_len];
            let mut conn = ConnState::new(Instant::now());
            let mut got: Vec<Vec<u8>> = Vec::new();
            let mut refused = None;
            // Rounds go on until the transport is dry; the last one has
            // nothing in flight, so whatever was held comes out.
            let mut round = 0;
            let mut dry = false;
            while refused.is_none() && !dry {
                dry = r.pos >= r.data.len();
                let holding = !dry && in_flight.get(round).is_some_and(|b| *b > 0);
                round += 1;
                proptest::prop_assert!(round < 10_000, "the rounds do not converge");
                if !holding {
                    // The completion came back: the queue drains in
                    // order, then (below) the held frames come in.
                    got.extend(conn.pending.drain(..).map(|f| f.payload));
                }
                let mut sink = |conn: &mut ConnState, payload: &[u8], at: Instant| {
                    if holding || !conn.pending.is_empty() {
                        queue(conn, payload, at);
                    } else {
                        got.push(payload.to_vec());
                    }
                };
                let mut events = Vec::new();
                if !holding {
                    events.push(conn.resume(MAX, &mut sink));
                }
                if !dry {
                    events.push(conn.read_ready(&mut r, &mut scratch, MAX, &mut sink));
                }
                for event in events {
                    match event {
                        ReadEvent::Open => {}
                        ReadEvent::FrameTooLarge(n) => refused = Some(n),
                        other => proptest::prop_assert!(false, "unexpected {other:?}"),
                    }
                }
            }
            got.extend(conn.pending.drain(..).map(|f| f.payload));
            proptest::prop_assert_eq!(&got, &frames);
            proptest::prop_assert_eq!(refused, bad);
            if bad.is_none() {
                proptest::prop_assert!(!conn.mid_frame());
                proptest::prop_assert_eq!(conn.frame_started, None);
            }
        }
    }
}
