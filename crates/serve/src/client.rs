//! A blocking, self-healing client for the `pol-serve` wire protocol.
//!
//! One [`Client`] owns (at most) one connection and issues requests
//! synchronously; for concurrency, open one client per thread (the load
//! generator in `pol-bench` does exactly that). Server-side conditions
//! surface as typed errors: [`ClientError::ServerBusy`] for backpressure
//! shedding, [`ClientError::ServerError`] for rejected arguments.
//!
//! ## Failure model
//!
//! The connection is made with a bounded [`ClientConfig::connect_timeout`]
//! and carries write (and optionally read) timeouts, so no call blocks
//! forever on a wedged peer. When a request fails in a *retryable* way —
//! the transport died (connection reset, closed, timed out) or the server
//! shed load with `Busy` — and the request is idempotent
//! ([`Request::is_idempotent`]), the typed helpers transparently
//! reconnect and retry with exponential backoff and deterministic jitter,
//! bounded by [`RetryPolicy::max_attempts`] and a total
//! [`RetryPolicy::deadline`] budget. Non-idempotent requests (none exist
//! today; the gate is for future mutating endpoints) and non-retryable
//! errors (a typed `ServerError`, a protocol violation) surface
//! immediately. A retried request is sent on a **fresh** connection:
//! there is never a half-written frame to resynchronise.

use crate::proto::{
    decode_response, encode_request, read_frame, write_frame, ProtoError, Request, Response,
    DEFAULT_MAX_FRAME_BYTES,
};
use pol_ais::types::MarketSegment;
use pol_apps::eta::EtaEstimate;
use pol_core::CellStats;
use std::fmt;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Everything a request round-trip can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or protocol failure (after retries, if any applied).
    Proto(ProtoError),
    /// The server shed this connection under load (after retries).
    ServerBusy,
    /// The server rejected the request (message carried from the wire).
    ServerError(String),
    /// The server answered with a response type the request cannot
    /// produce.
    Unexpected(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Proto(e) => write!(f, "client protocol error: {e}"),
            Self::ServerBusy => write!(f, "server busy, retry later"),
            Self::ServerError(msg) => write!(f, "server rejected request: {msg}"),
            Self::Unexpected(what) => write!(f, "unexpected response type: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        Self::Proto(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        Self::Proto(ProtoError::Io(e))
    }
}

/// Automatic-retry tuning for idempotent requests.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total tries, including the first (1 disables retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_backoff: Duration,
    /// Backoff growth cap.
    pub max_backoff: Duration,
    /// Total wall-clock budget across all attempts and backoffs. Once a
    /// retry could not start before this deadline, the last error
    /// surfaces instead.
    pub deadline: Duration,
    /// Seed of the deterministic jitter stream (each backoff sleeps
    /// between half and the full computed value).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            deadline: Duration::from_secs(10),
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

/// Connection and resilience tuning for [`Client::connect_with`].
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// TCP connect timeout (a black-holed address fails in bounded time
    /// instead of the kernel's minutes-long default).
    pub connect_timeout: Duration,
    /// Socket read timeout for responses (`None`: wait indefinitely).
    pub read_timeout: Option<Duration>,
    /// Socket write timeout for requests (`None`: wait indefinitely).
    pub write_timeout: Option<Duration>,
    /// Per-frame size cap, both directions.
    pub max_frame_bytes: usize,
    /// Retry behaviour for idempotent requests.
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: None,
            write_timeout: Some(Duration::from_secs(5)),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            retry: RetryPolicy::default(),
        }
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    /// Written directly (no `BufWriter`): every request is encoded to a
    /// complete frame first and pushed through [`send_framed`], which
    /// owns the short-write handling.
    writer: TcpStream,
}

/// A blocking connection to a `pol-serve` server that reconnects and
/// retries idempotent requests on transport failure.
pub struct Client {
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    conn: Option<Conn>,
    jitter: u64,
}

impl Client {
    /// Connects with the default [`ClientConfig`] (5 s connect/write
    /// timeouts, retries on).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit tuning. The address is resolved once; a
    /// reconnect retries every resolved address in order.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        config: ClientConfig,
    ) -> Result<Client, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(ClientError::Proto(ProtoError::Io(io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "address resolved to nothing",
            ))));
        }
        let mut client = Client {
            addrs,
            config,
            conn: None,
            jitter: config.retry.jitter_seed | 1,
        };
        client.reconnect()?;
        Ok(client)
    }

    /// Sets the socket read timeout for this and future connections.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.config.read_timeout = timeout;
        if let Some(conn) = &self.conn {
            conn.reader.get_ref().set_read_timeout(timeout)?;
        }
        Ok(())
    }

    fn reconnect(&mut self) -> Result<(), ClientError> {
        self.conn = None;
        let mut last_err: Option<io::Error> = None;
        for addr in &self.addrs {
            match TcpStream::connect_timeout(addr, self.config.connect_timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(self.config.read_timeout)?;
                    stream.set_write_timeout(self.config.write_timeout)?;
                    let read_half = stream.try_clone()?;
                    self.conn = Some(Conn {
                        reader: BufReader::new(read_half),
                        writer: stream,
                    });
                    return Ok(());
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err
            .map(|e| ClientError::Proto(ProtoError::Io(e)))
            .unwrap_or(ClientError::Unexpected("no addresses to connect to")))
    }

    /// One request/response exchange on the current connection (lazily
    /// reconnecting if there is none). No retries: transport errors
    /// surface directly. [`Client::request`] adds the retry layer.
    pub fn request_once(&mut self, req: &Request) -> Result<Response, ClientError> {
        if self.conn.is_none() {
            self.reconnect()?;
        }
        let conn = self
            .conn
            .as_mut()
            .ok_or(ClientError::Unexpected("not connected"))?;
        let write_budget = self.config.write_timeout.unwrap_or(Duration::from_secs(5));
        let result = (|| {
            // Encode the whole frame up front, then push it with the
            // explicit short-write loop: a momentarily full kernel
            // buffer (EAGAIN-style timeout mid-frame) retries within
            // the write budget instead of abandoning a half-written
            // frame and poisoning a connection that was merely slow.
            let payload = encode_request(req);
            let mut framed = Vec::with_capacity(payload.len() + 4);
            write_frame(&mut framed, &payload).map_err(ProtoError::Io)?;
            send_framed(&mut conn.writer, &framed, write_budget).map_err(ProtoError::Io)?;
            conn.writer.flush().map_err(ProtoError::Io)?;
            let reply = read_frame(&mut conn.reader, self.config.max_frame_bytes)?;
            decode_response(&reply)
        })();
        match result {
            Ok(resp) => Ok(resp),
            Err(e) => {
                // Whatever failed, the stream's framing state is now
                // unknowable; the connection is poisoned.
                self.conn = None;
                Err(e.into())
            }
        }
    }

    /// Sends one request and reads its response, retrying idempotent
    /// requests on transport failure or `Busy` shedding (each retry on a
    /// fresh connection, with exponential backoff and jitter, under the
    /// [`RetryPolicy::deadline`] budget). `Busy` and `Error` responses
    /// pass through raw once retries are exhausted; the typed helpers
    /// below turn them into [`ClientError`]s.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        if !req.is_idempotent() || self.config.retry.max_attempts <= 1 {
            return self.request_once(req);
        }
        let policy = self.config.retry;
        let deadline = Instant::now() + policy.deadline;
        let mut backoff = policy.base_backoff;
        let mut attempt = 1u32;
        loop {
            let retryable = match self.request_once(req) {
                // A Busy response arrives on a connection the server is
                // about to close; retry from a fresh one.
                Ok(Response::Busy) => {
                    self.conn = None;
                    None
                }
                Ok(resp) => return Ok(resp),
                Err(e @ ClientError::Proto(ProtoError::Io(_)))
                | Err(e @ ClientError::Proto(ProtoError::ConnectionClosed)) => Some(e),
                Err(e) => return Err(e),
            };
            let sleep = self.jittered(backoff);
            if attempt >= policy.max_attempts || Instant::now() + sleep >= deadline {
                return match retryable {
                    Some(e) => Err(e),
                    None => Ok(Response::Busy),
                };
            }
            std::thread::sleep(sleep);
            backoff = (backoff * 2).min(policy.max_backoff);
            attempt += 1;
        }
    }

    /// A deterministic jittered backoff in `[d/2, d]` — full-jitter
    /// halves, so a fleet of clients created with different seeds does
    /// not thunder back in lockstep.
    fn jittered(&mut self, d: Duration) -> Duration {
        let mut x = self.jitter;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter = x;
        let nanos = d.as_nanos().min(u64::MAX as u128) as u64;
        let half = nanos / 2;
        Duration::from_nanos(half + x.wrapping_mul(0x2545_F491_4F6C_DD1D) % half.max(1))
    }

    fn checked(&mut self, req: &Request) -> Result<Response, ClientError> {
        match self.request(req)? {
            Response::Busy => Err(ClientError::ServerBusy),
            Response::Error(msg) => Err(ClientError::ServerError(msg)),
            other => Ok(other),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.checked(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(ClientError::Unexpected("wanted Pong")),
        }
    }

    /// Server health: snapshot generation and drain state.
    pub fn health(&mut self) -> Result<crate::metrics::HealthReport, ClientError> {
        match self.checked(&Request::Health)? {
            Response::Health(h) => Ok(h),
            _ => Err(ClientError::Unexpected("wanted Health")),
        }
    }

    /// Readiness probe: `true` while the server accepts traffic.
    pub fn ready(&mut self) -> Result<bool, ClientError> {
        match self.checked(&Request::Ready)? {
            Response::Ready(r) => Ok(r),
            _ => Err(ClientError::Unexpected("wanted Ready")),
        }
    }

    /// All-traffic summary of the cell containing `(lat, lon)`.
    pub fn point_summary(&mut self, lat: f64, lon: f64) -> Result<Option<CellStats>, ClientError> {
        match self.checked(&Request::PointSummary { lat, lon })? {
            Response::Summary(s) => Ok(s),
            _ => Err(ClientError::Unexpected("wanted Summary")),
        }
    }

    /// Per-vessel-type summary of the cell containing `(lat, lon)`.
    pub fn segment_summary(
        &mut self,
        lat: f64,
        lon: f64,
        segment: MarketSegment,
    ) -> Result<Option<CellStats>, ClientError> {
        match self.checked(&Request::SegmentSummary { lat, lon, segment })? {
            Response::Summary(s) => Ok(s),
            _ => Err(ClientError::Unexpected("wanted Summary")),
        }
    }

    /// Per-route summary of the cell containing `(lat, lon)`.
    pub fn route_summary(
        &mut self,
        lat: f64,
        lon: f64,
        origin: u16,
        dest: u16,
        segment: MarketSegment,
    ) -> Result<Option<CellStats>, ClientError> {
        let req = Request::RouteSummary {
            lat,
            lon,
            origin,
            dest,
            segment,
        };
        match self.checked(&req)? {
            Response::Summary(s) => Ok(s),
            _ => Err(ClientError::Unexpected("wanted Summary")),
        }
    }

    /// Occupied cells (raw indices, sorted) inside a bounding box.
    pub fn bbox_scan(
        &mut self,
        min_lat: f64,
        min_lon: f64,
        max_lat: f64,
        max_lon: f64,
    ) -> Result<Vec<u64>, ClientError> {
        let req = Request::BboxScan {
            min_lat,
            min_lon,
            max_lat,
            max_lon,
        };
        match self.checked(&req)? {
            Response::Cells(cells) => Ok(cells),
            _ => Err(ClientError::Unexpected("wanted Cells")),
        }
    }

    /// Occupied cells (raw indices, sorted) whose top destination is
    /// `dest`.
    pub fn top_destination_cells(
        &mut self,
        dest: u16,
        segment: Option<MarketSegment>,
    ) -> Result<Vec<u64>, ClientError> {
        match self.checked(&Request::TopDestinationCells { dest, segment })? {
            Response::Cells(cells) => Ok(cells),
            _ => Err(ClientError::Unexpected("wanted Cells")),
        }
    }

    /// ETA estimate for a vessel at `(lat, lon)`.
    pub fn eta(
        &mut self,
        lat: f64,
        lon: f64,
        segment: Option<MarketSegment>,
        route: Option<(u16, u16)>,
    ) -> Result<Option<EtaEstimate>, ClientError> {
        let req = Request::Eta {
            lat,
            lon,
            segment,
            route,
        };
        match self.checked(&req)? {
            Response::Eta(e) => Ok(e),
            _ => Err(ClientError::Unexpected("wanted Eta")),
        }
    }

    /// Ranked destination predictions for a positional track (oldest
    /// first).
    pub fn predict_destination(
        &mut self,
        segment: Option<MarketSegment>,
        top_n: u8,
        track: Vec<(f64, f64)>,
    ) -> Result<Vec<(u16, f64)>, ClientError> {
        let req = Request::PredictDestination {
            segment,
            top_n,
            track,
        };
        match self.checked(&req)? {
            Response::Destinations(ranked) => Ok(ranked),
            _ => Err(ClientError::Unexpected("wanted Destinations")),
        }
    }

    /// Server counters and latency summaries.
    pub fn stats(&mut self) -> Result<crate::metrics::StatsReport, ClientError> {
        match self.checked(&Request::Stats)? {
            Response::Stats(report) => Ok(report),
            _ => Err(ClientError::Unexpected("wanted Stats")),
        }
    }

    /// Sends up to [`crate::proto::MAX_BATCH`] requests in one frame and
    /// returns their responses in order. A `Busy`/`Error` reply to the
    /// batch frame itself surfaces as a [`ClientError`]; per-child
    /// errors come back in the response vector for the caller to
    /// inspect. The whole batch retries as a unit when every child is
    /// idempotent.
    pub fn batch(&mut self, requests: &[Request]) -> Result<Vec<Response>, ClientError> {
        if requests.len() > crate::proto::MAX_BATCH {
            return Err(ClientError::Unexpected("batch exceeds MAX_BATCH"));
        }
        match self.checked(&Request::Batch(requests.to_vec()))? {
            Response::Batch(children) => {
                if children.len() != requests.len() {
                    return Err(ClientError::Unexpected("batch response count mismatch"));
                }
                Ok(children)
            }
            _ => Err(ClientError::Unexpected("wanted Batch")),
        }
    }
}

/// Writes one complete frame with explicit short-write handling:
/// `Interrupted` retries immediately; an EAGAIN-style
/// `WouldBlock`/`TimedOut` *after partial progress* keeps retrying
/// inside `budget` (abandoning a half-written frame would poison a
/// connection the kernel had merely throttled); the same error with
/// nothing yet written surfaces at once, because the retry layer can
/// safely resend an unsent frame on a fresh connection. A transport
/// accepting zero bytes surfaces as `WriteZero`, never a spin.
fn send_framed<W: Write>(w: &mut W, framed: &[u8], budget: Duration) -> io::Result<()> {
    let deadline = Instant::now() + budget;
    let mut written = 0;
    while written < framed.len() {
        match w.write(&framed[written..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "peer accepts no bytes",
                ))
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if written == 0 || Instant::now() >= deadline {
                    return Err(e);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accepts at most `chunk` bytes per call, injecting `Interrupted`
    /// and `WouldBlock` on a schedule — a nonblocking socket at its
    /// legal worst.
    struct Fragmenting {
        sink: Vec<u8>,
        chunk: usize,
        calls: usize,
    }

    impl Write for Fragmenting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls % 3 == 0 {
                return Err(io::Error::new(io::ErrorKind::Interrupted, "signal"));
            }
            if self.calls % 5 == 0 {
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

    #[test]
    fn send_framed_survives_interrupts_and_partial_writes() {
        let payload = encode_request(&Request::PointSummary {
            lat: 12.5,
            lon: -34.25,
        });
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();
        let mut t = Fragmenting {
            sink: Vec::new(),
            chunk: 2,
            calls: 0,
        };
        send_framed(&mut t, &framed, Duration::from_secs(1)).unwrap();
        assert_eq!(t.sink, framed, "bytes must arrive intact and in order");
    }

    #[test]
    fn send_framed_fails_fast_before_any_byte_is_written() {
        struct AlwaysBlocked;
        impl Write for AlwaysBlocked {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "eagain"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        // Nothing on the wire yet: surface immediately (the frame can be
        // resent on a fresh connection), do not burn the whole budget.
        let started = Instant::now();
        let err = send_framed(&mut AlwaysBlocked, b"abcd", Duration::from_secs(5)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn send_framed_mid_frame_timeout_respects_the_budget() {
        struct OneByteThenBlocked {
            wrote: bool,
        }
        impl Write for OneByteThenBlocked {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                if self.wrote {
                    Err(io::Error::new(io::ErrorKind::WouldBlock, "eagain"))
                } else {
                    self.wrote = true;
                    Ok(1)
                }
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        // One byte escaped, then the transport wedged: the budget bounds
        // the retries and the timeout surfaces.
        let mut t = OneByteThenBlocked { wrote: false };
        let err = send_framed(&mut t, b"abcd", Duration::from_millis(20)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }
}
