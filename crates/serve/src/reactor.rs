//! `serve::reactor` — the std-only epoll event-driven server core.
//!
//! One reactor thread owns every socket. `epoll_wait` reports readiness;
//! the loop accepts nonblocking connections, takes one `read` per
//! readable socket into a buffer it owns, and slices the complete
//! frames out of it through the connection's [`ConnState`]. What happens
//! to a frame depends on its request kind alone
//! ([`Request::runs_on_loop`]):
//!
//! * a constant-time request (`PING`, `HEALTH`, `READY`, the three
//!   summary lookups) on a connection with nothing ahead of it is
//!   decoded, executed against the snapshot pinned for that frame and
//!   encoded into the connection's write buffer right there — no pool,
//!   no admission slot, no completion queue, no `eventfd`;
//! * everything else (scans, estimators, `STATS`, batches) goes to the
//!   bounded worker pool. Workers never touch sockets: they execute
//!   against a per-frame-pinned snapshot, push the encoded response onto
//!   a completion queue and ring an `eventfd` — the loop wakes and moves
//!   the bytes into the connection's write buffer.
//!
//! The protocol has no request ids, so replies leave in request order
//! while the work behind them does not wait its turn: every frame taken
//! off the wire gets the next slot of its connection's reply sequencer
//! ([`ConnState`]). A pool request is dispatched as it arrives — its
//! snapshot pinned on the loop at that moment, so a hot reload can never
//! make a later frame answer from an older generation than an earlier
//! one — and carries its slot's sequence number through its completion;
//! a constant-time request behind one in flight is answered at once,
//! into its slot; a shed `Busy` and a malformed frame's typed error take
//! their turn like any reply. Completions fill slots in whatever order
//! workers finish, and the loop moves the filled slots at the front into
//! the write buffer. A connection has at most `worker_threads` requests
//! between handed to the pool and answered — enough for one pipelining
//! client to use every worker, and the bound on how many replies can be
//! finished and waiting behind a slow one — and is owed at most
//! [`crate::conn::MAX_PENDING_FRAMES`] replies; frames past either bound
//! stay unread. The write buffer is flushed once per burst read and once
//! per connection per completion pass, with `EPOLLOUT` re-arming, so a
//! peer that stops reading slows only itself.
//!
//! Backpressure is load-shedding *at the loop*: before a request is
//! handed to the pool the loop takes an admission slot (there are
//! `worker_threads + max_pending` of them); when the slots are gone the
//! request is answered with a typed `Busy` frame and never queued.
//! `AdmitGuard` releases the slot on drop, so a worker killed
//! mid-request (the `serve.worker.kill` chaos fault) cannot leak one, and
//! the `CompletionGuard` below pushes a close-the-connection completion
//! from its own drop, so a killed request cannot wedge its connection
//! either: the connection closes at once, whatever it was still owed. A
//! request the loop runs itself sits under `catch_unwind` with the same
//! outcome — no reply, that connection closed — so neither a fault nor a
//! bug in a query can take the loop thread down.
//!
//! Shutdown ordering: `READY` flips (the `Server` marks draining before
//! raising the stop flag), the loop drops the listener, in-flight and
//! already-buffered requests are answered, idle-at-a-frame-boundary
//! connections close, and the drain deadline bounds a peer that streams
//! forever.
//!
//! The epoll/eventfd bindings are declared `extern "C"` in the style of
//! [`crate::mmap`] — std already links libc on every unix target. The
//! server needs epoll: on other platforms, or when epoll/eventfd setup
//! fails, `spawn` returns the error and nothing is left running.

#![cfg_attr(not(target_os = "linux"), allow(dead_code, unused_imports))]

use crate::conn::{ConnState, ReadEvent, Reply, READ_SCRATCH_BYTES};
use crate::metrics::ServerMetrics;
use crate::proto::{decode_request, encode_response, Request, Response};
use crate::server::{InventoryService, ServerConfig};
use pol_engine::ThreadPool;
use std::io;
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The loop's `epoll_wait` timeout and sweep period: how soon an idle
/// loop notices the stop flag, a stalled frame or a stuck writer.
const LOOP_TICK: Duration = Duration::from_millis(100);

/// Builds the event loop around `listener` on the calling thread — so an
/// epoll/eventfd setup failure is the caller's `io::Error`, with no
/// thread started and the listener closed — then runs it on its own
/// thread until `stop` is raised and the drain completes.
pub(crate) fn spawn(
    listener: TcpListener,
    service: Arc<RwLock<Arc<InventoryService>>>,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
    metrics: Arc<ServerMetrics>,
) -> io::Result<JoinHandle<()>> {
    #[cfg(target_os = "linux")]
    {
        let event_loop = linux::EventLoop::new(listener, service, config, stop, metrics)?;
        std::thread::Builder::new()
            .name("pol-serve-loop".into())
            .spawn(move || event_loop.run())
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (listener, service, config, stop, metrics);
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "pol-serve needs epoll (Linux)",
        ))
    }
}

/// Releases one admission slot when dropped. Holding the decrement in a
/// `Drop` guard keeps the admission count honest even when a worker
/// panics — an injected `serve.worker.kill` fault unwinds through the
/// pool's `catch_unwind`, and without the guard every kill would leak a
/// slot until the cap starved the server into rejecting everyone.
struct AdmitGuard(Arc<AtomicUsize>);

impl Drop for AdmitGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One finished pool request, handed from a worker back to the loop.
struct Completion {
    /// Which connection asked.
    token: u64,
    /// Which of its reply slots the request holds.
    seq: u64,
    /// The answer; `None` aborts the connection without a reply (a
    /// killed worker).
    reply: Option<Reply>,
}

/// State shared between the loop and the pool workers.
struct LoopShared {
    /// Finished requests awaiting the loop. Leaf lock in the declared
    /// `lock_order`: nothing is ever acquired while it is held.
    completions: Mutex<Vec<Completion>>,
    /// Rings the loop's eventfd.
    #[cfg(target_os = "linux")]
    wake: linux::WakeFd,
}

impl LoopShared {
    /// Queues one completion and wakes the loop.
    fn complete(&self, completion: Completion) {
        self.completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(completion);
        #[cfg(target_os = "linux")]
        self.wake.wake();
    }
}

/// Guarantees the loop hears about every dispatched request exactly
/// once. Constructed at the top of the worker job with no answer; on a
/// normal return the job has filled it in, and on a panic (the
/// `serve.worker.kill` chaos fault unwinding through the pool's
/// `catch_unwind`) the drop still runs and the default outcome —
/// no reply, close the connection — reaches the loop, so an empty reply
/// slot can never wedge a connection.
struct CompletionGuard {
    shared: Arc<LoopShared>,
    token: u64,
    seq: u64,
    reply: Option<Reply>,
}

impl Drop for CompletionGuard {
    fn drop(&mut self) {
        self.shared.complete(Completion {
            token: self.token,
            seq: self.seq,
            reply: self.reply.take(),
        });
    }
}

/// The worker-side of one pool request: execute against the snapshot the
/// loop pinned at dispatch and encode — never touching a socket. The
/// loop decoded the frame (it had to, to know the request's kind); the
/// chaos kill point comes first.
fn execute_job(
    req: Request,
    completed: Instant,
    token: u64,
    seq: u64,
    snapshot: &InventoryService,
    shared: Arc<LoopShared>,
) {
    let mut done = CompletionGuard {
        shared,
        token,
        seq,
        reply: None,
    };
    if pol_chaos::fire("serve.worker.kill") {
        // Err action: abort this connection without a reply (the Kill
        // action panics inside `fire` and unwinds through the pool's
        // catch_unwind; either way the guard reports the abort).
        return;
    }
    let mut payload = Vec::new();
    snapshot.execute_into(&req, &mut payload);
    done.reply = Some(Reply {
        payload,
        account: Some((req.endpoint(), completed)),
    });
}

/// What became of one frame the loop looked at.
enum Outcome {
    /// Nothing more to do for it now: answered (a reply, a `Busy` or a
    /// typed error is in the write buffer or in its slot), handed to the
    /// pool, or dropped because the connection is already condemned.
    Settled,
    /// The request died without an answer (an injected kill, a panic in
    /// a query): close the connection, reply nothing.
    Abort,
}

/// Turns complete frames into replies in a connection's write buffer or
/// jobs on the pool: everything the loop needs for that and nothing it
/// needs for sockets, so the loop can lend a connection's state to it
/// while the socket table is borrowed.
struct Runner {
    service: Arc<RwLock<Arc<InventoryService>>>,
    metrics: Arc<ServerMetrics>,
    pool: ThreadPool,
    admitted: Arc<AtomicUsize>,
    admit_cap: usize,
    shared: Arc<LoopShared>,
}

impl Runner {
    /// Takes a frame just sliced off the wire: decodes it and answers it
    /// on the loop or hands it to the pool, as its request kind says.
    fn accept(
        &self,
        token: u64,
        state: &mut ConnState,
        payload: &[u8],
        completed: Instant,
    ) -> Outcome {
        if state.close_after_flush {
            return Outcome::Settled; // already condemned: don't take new work
        }
        match decode_request(payload) {
            Ok(req) if req.runs_on_loop() => self.run_on_loop(state, &req, completed),
            Ok(req) => {
                self.dispatch(token, state, req, completed);
                Outcome::Settled
            }
            Err(e) => {
                // A peer that cannot frame a request correctly gets one
                // typed error — after the replies it is still owed —
                // then the socket: resynchronising a corrupt binary
                // stream is not worth the attack surface.
                self.metrics.incr_malformed();
                self.answer_unserved(state, &Response::Error(e.to_string()));
                state.close_after_flush = true;
                Outcome::Settled
            }
        }
    }

    /// The sink a slicing pass feeds: [`Runner::accept`] for each frame,
    /// the last outcome left in `outcome`, and nothing more taken once a
    /// frame has aborted the connection.
    fn sink<'a>(
        &'a self,
        token: u64,
        outcome: &'a mut Outcome,
    ) -> impl FnMut(&mut ConnState, &[u8], Instant) + 'a {
        move |state, payload, completed| {
            if !matches!(outcome, Outcome::Abort) {
                *outcome = self.accept(token, state, payload, completed);
            }
        }
    }

    /// Gives a frame that is not served — shed, or refused — its reply:
    /// straight into the write buffer, or into the next slot when
    /// replies are owed ahead of it.
    fn answer_unserved(&self, state: &mut ConnState, resp: &Response) {
        let payload = encode_response(resp);
        if state.owes_replies() {
            state.park(Reply {
                payload,
                account: None,
            });
        } else {
            state.outbox.push_frame(&payload);
        }
    }

    /// Answers a constant-time request where it stands: pin the
    /// snapshot, execute, encode straight into the write buffer — or,
    /// behind a request still on the pool, into its slot. The same kill
    /// point as a pool request fires first, and the whole call is
    /// unwind-contained with the killed-worker outcome — a half written
    /// reply goes down with the connection it was for.
    fn run_on_loop(&self, state: &mut ConnState, req: &Request, completed: Instant) -> Outcome {
        let mut parked = Vec::new();
        let direct = !state.owes_replies();
        let outbox = &mut state.outbox;
        let answered = catch_unwind(AssertUnwindSafe(|| {
            if pol_chaos::fire("serve.worker.kill") {
                return false;
            }
            let snapshot = Arc::clone(&self.service.read().unwrap_or_else(PoisonError::into_inner));
            if direct {
                outbox.push_frame_with(|out| snapshot.execute_into(req, out));
            } else {
                snapshot.execute_into(req, &mut parked);
            }
            true
        }));
        if !matches!(answered, Ok(true)) {
            return Outcome::Abort;
        }
        if direct {
            self.metrics.record(req.endpoint(), completed.elapsed());
        } else {
            state.park(Reply {
                payload: parked,
                account: Some((req.endpoint(), completed)),
            });
        }
        Outcome::Settled
    }

    /// Admission check + hand-off to the pool: the loop-level
    /// expression of the typed Busy backpressure. A shed request is
    /// answered, never queued.
    fn dispatch(&self, token: u64, state: &mut ConnState, req: Request, completed: Instant) {
        if self.admitted.fetch_add(1, Ordering::Relaxed) >= self.admit_cap {
            self.admitted.fetch_sub(1, Ordering::Relaxed);
            self.metrics.incr_busy();
            self.metrics.incr_shed_at_loop();
            // Shed *this request*, keep the connection: a Busy frame in
            // its turn, never a queue slot.
            self.answer_unserved(state, &Response::Busy);
            return;
        }
        let guard = AdmitGuard(Arc::clone(&self.admitted));
        let seq = state.begin();
        // The snapshot is pinned here, per frame and in arrival order: a
        // hot reload swaps the Arc between frames, never under one, and
        // workers finishing out of order cannot reorder generations.
        let snapshot = Arc::clone(&self.service.read().unwrap_or_else(PoisonError::into_inner));
        let shared = Arc::clone(&self.shared);
        self.pool.execute(move || {
            let _admitted = guard;
            execute_job(req, completed, token, seq, &snapshot, shared);
            // Chaos: keep holding the admission slot after the
            // completion has been posted — the window where a
            // pipelined connection's next frame meets a full cap and
            // must be shed, not stranded.
            pol_chaos::fire("serve.worker.slot_hold");
        });
    }
}

#[cfg(target_os = "linux")]
mod linux {
    use super::*;
    use std::collections::HashMap;
    use std::net::TcpStream;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

    mod sys {
        use std::ffi::c_void;
        use std::os::raw::c_int;

        pub(super) const EPOLL_CLOEXEC: c_int = 0o2000000;
        pub(super) const EPOLL_CTL_ADD: c_int = 1;
        pub(super) const EPOLL_CTL_DEL: c_int = 2;
        pub(super) const EPOLL_CTL_MOD: c_int = 3;
        pub(super) const EPOLLIN: u32 = 0x001;
        pub(super) const EPOLLOUT: u32 = 0x004;
        pub(super) const EPOLLERR: u32 = 0x008;
        pub(super) const EPOLLHUP: u32 = 0x010;
        pub(super) const EPOLLRDHUP: u32 = 0x2000;
        pub(super) const EFD_CLOEXEC: c_int = 0o2000000;
        pub(super) const EFD_NONBLOCK: c_int = 0o4000;

        /// Mirror of the kernel's `struct epoll_event`. x86-64 packs it
        /// (a quirk of the original 32/64-bit ABI compatibility); every
        /// other architecture uses natural alignment.
        #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
        #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
        #[derive(Clone, Copy)]
        pub(super) struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }

        extern "C" {
            pub(super) fn epoll_create1(flags: c_int) -> c_int;
            pub(super) fn epoll_ctl(
                epfd: c_int,
                op: c_int,
                fd: c_int,
                event: *mut EpollEvent,
            ) -> c_int;
            pub(super) fn epoll_wait(
                epfd: c_int,
                events: *mut EpollEvent,
                maxevents: c_int,
                timeout: c_int,
            ) -> c_int;
            pub(super) fn eventfd(initval: u32, flags: c_int) -> c_int;
            pub(super) fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
            pub(super) fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        }
    }

    /// Loop tokens 0 and 1 are the listener and the wake eventfd;
    /// connections count up from [`FIRST_CONN_TOKEN`] and are never
    /// reused (a u64 cannot wrap in practice), so a stale event cannot
    /// alias a new connection.
    const TOKEN_LISTENER: u64 = 0;
    const TOKEN_WAKE: u64 = 1;
    const FIRST_CONN_TOKEN: u64 = 2;

    /// Readiness events drained per `epoll_wait` call.
    const EVENT_BATCH: usize = 256;

    /// An owned `epoll` instance.
    struct Epoll {
        fd: OwnedFd,
    }

    impl Epoll {
        fn new() -> io::Result<Epoll> {
            // The return value is validated before ownership is claimed.
            // SAFETY: epoll_create1 takes no pointers; a non-negative
            // return is a fresh descriptor owned exclusively here;
            // tested by: reactor_core_event_counters_are_live, concurrent_responses_equal_direct_inventory_queries.
            let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: fd is a valid, just-created descriptor no one else
            // owns, which is exactly OwnedFd's contract;
            // tested by: reactor_core_event_counters_are_live.
            let fd = unsafe { OwnedFd::from_raw_fd(fd) };
            Ok(Epoll { fd })
        }

        fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut ev = sys::EpollEvent {
                events,
                data: token,
            };
            // SAFETY: self.fd and fd are live descriptors for the whole
            // call; `ev` outlives the call (the kernel copies it before
            // returning, even for DEL where it is ignored);
            // tested by: reactor_core_event_counters_are_live, pipelined_responses_survive_a_lazy_reader.
            let rc = unsafe { sys::epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_ADD, fd, events, token)
        }

        fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_MOD, fd, events, token)
        }

        fn del(&self, fd: RawFd) {
            let _ = self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0);
        }

        /// Waits for readiness, retrying `EINTR`, returning how many
        /// entries of `events` were filled.
        fn wait(&self, events: &mut [sys::EpollEvent], timeout_ms: i32) -> io::Result<usize> {
            loop {
                // SAFETY: the events pointer/len describe a live mutable
                // slice for the whole call and maxevents never exceeds
                // its capacity, so the kernel writes stay in bounds;
                // tested by: reactor_core_event_counters_are_live, delta_chain_hot_reload_under_load_loses_no_query.
                let n = unsafe {
                    sys::epoll_wait(
                        self.fd.as_raw_fd(),
                        events.as_mut_ptr(),
                        events.len() as i32,
                        timeout_ms,
                    )
                };
                if n >= 0 {
                    return Ok(n as usize);
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
        }
    }

    /// A nonblocking `eventfd`: workers `wake()` it from any thread, the
    /// loop registers it in epoll and `drain()`s it on readiness.
    pub(super) struct WakeFd {
        fd: OwnedFd,
    }

    impl WakeFd {
        fn new() -> io::Result<WakeFd> {
            // The return value is validated before ownership is claimed.
            // SAFETY: eventfd takes no pointers; a non-negative return
            // is a fresh descriptor owned exclusively here;
            // tested by: reactor_core_event_counters_are_live.
            let fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: fd is a valid, just-created descriptor no one else
            // owns, which is exactly OwnedFd's contract;
            // tested by: reactor_core_event_counters_are_live.
            let fd = unsafe { OwnedFd::from_raw_fd(fd) };
            Ok(WakeFd { fd })
        }

        /// Adds 1 to the eventfd counter, making it epoll-readable. An
        /// `EAGAIN` (counter saturated) is ignored: a wakeup is already
        /// pending, which is all a wake needs to guarantee.
        pub(super) fn wake(&self) {
            let one = 1u64.to_ne_bytes();
            // SAFETY: the buffer is a live 8-byte local for the whole
            // call (eventfd writes must be exactly 8 bytes) and the fd
            // is owned by self;
            // tested by: reactor_core_event_counters_are_live, batched_requests_equal_single_requests.
            let _ = unsafe { sys::write(self.fd.as_raw_fd(), one.as_ptr().cast(), one.len()) };
        }

        /// Clears the counter so the next wake is a fresh edge.
        fn drain(&self) {
            let mut buf = [0u8; 8];
            // SAFETY: the buffer is a live 8-byte mutable local for the
            // whole call and the fd is owned by self; EFD_NONBLOCK makes
            // the read return -1/EAGAIN once the counter is empty;
            // tested by: reactor_core_event_counters_are_live.
            let _ = unsafe { sys::read(self.fd.as_raw_fd(), buf.as_mut_ptr().cast(), buf.len()) };
        }
    }

    /// One registered connection: the socket, its frame machine, and the
    /// epoll interest currently armed for it.
    struct ConnEntry {
        stream: TcpStream,
        state: ConnState,
        interest: u32,
    }

    const READ_INTEREST: u32 = sys::EPOLLIN | sys::EPOLLRDHUP;

    pub(super) struct EventLoop {
        epoll: Epoll,
        listener: Option<TcpListener>,
        conns: HashMap<u64, ConnEntry>,
        next_token: u64,
        /// The one read buffer, lent to whichever connection is
        /// readable: ten thousand mostly idle sockets should not each
        /// hold a buffer sized for a burst.
        scratch: Vec<u8>,
        runner: Runner,
        /// The completions of one pass, taken off the shared queue, and
        /// the connections they touched; both empty between passes.
        done: Vec<Completion>,
        touched: Vec<u64>,
        config: ServerConfig,
        stop: Arc<AtomicBool>,
        drain_deadline: Option<Instant>,
        last_sweep: Instant,
    }

    impl EventLoop {
        /// Builds the loop: epoll and eventfd first, the worker pool only
        /// once nothing can fail any more, so an error leaves no thread
        /// behind and drops (closes) the listener.
        pub(super) fn new(
            listener: TcpListener,
            service: Arc<RwLock<Arc<InventoryService>>>,
            config: ServerConfig,
            stop: Arc<AtomicBool>,
            metrics: Arc<ServerMetrics>,
        ) -> io::Result<EventLoop> {
            listener.set_nonblocking(true)?;
            let epoll = Epoll::new()?;
            let wake = WakeFd::new()?;
            epoll.add(listener.as_raw_fd(), READ_INTEREST, TOKEN_LISTENER)?;
            epoll.add(wake.fd.as_raw_fd(), sys::EPOLLIN, TOKEN_WAKE)?;
            let workers = config.worker_threads.max(1);
            Ok(EventLoop {
                epoll,
                listener: Some(listener),
                conns: HashMap::new(),
                next_token: FIRST_CONN_TOKEN,
                scratch: vec![0; READ_SCRATCH_BYTES],
                runner: Runner {
                    service,
                    metrics,
                    pool: ThreadPool::new(workers),
                    admitted: Arc::new(AtomicUsize::new(0)),
                    admit_cap: workers + config.max_pending,
                    shared: Arc::new(LoopShared {
                        completions: Mutex::new(Vec::new()),
                        wake,
                    }),
                },
                done: Vec::new(),
                touched: Vec::new(),
                config,
                stop,
                drain_deadline: None,
                last_sweep: Instant::now(),
            })
        }

        pub(super) fn run(mut self) {
            let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; EVENT_BATCH];
            loop {
                let n = match self.epoll.wait(&mut events, self.tick_ms()) {
                    Ok(n) => n,
                    Err(_) => break,
                };
                if n > 0 {
                    self.runner.metrics.add_ready_events(n as u64);
                }
                for ev in events.iter().take(n) {
                    // Copy out of the (possibly packed) kernel struct
                    // before use.
                    let token = ev.data;
                    let bits = ev.events;
                    match token {
                        TOKEN_LISTENER => self.accept_ready(),
                        TOKEN_WAKE => {
                            self.runner.shared.wake.drain();
                            self.runner.metrics.incr_wakeup();
                        }
                        _ => self.conn_ready(token, bits),
                    }
                }
                self.apply_completions();
                if self.stop.load(Ordering::Relaxed) && self.drain_deadline.is_none() {
                    self.begin_drain();
                }
                self.sweep();
                if let Some(deadline) = self.drain_deadline {
                    if self.conns.is_empty() || Instant::now() >= deadline {
                        break;
                    }
                }
            }
            // Teardown: sockets first (peers see EOF), then the pool —
            // dropping it joins the workers after the queue drains; any
            // late completions land in the queue and are simply dropped
            // with it.
            self.conns.drain().for_each(|(_, entry)| {
                self.runner.metrics.conn_closed();
                drop(entry);
            });
            // (pool dropped with self)
        }

        /// epoll timeout for this iteration: [`LOOP_TICK`], tightened
        /// while draining so the exit condition is prompt.
        fn tick_ms(&self) -> i32 {
            if self.drain_deadline.is_some() {
                10
            } else {
                LOOP_TICK.as_millis() as i32
            }
        }

        fn accept_ready(&mut self) {
            loop {
                let Some(listener) = self.listener.as_ref() else {
                    return;
                };
                match listener.accept() {
                    Ok((stream, _)) => {
                        if self.stop.load(Ordering::Relaxed) {
                            // Draining: new arrivals are turned away (the
                            // listener is about to close).
                            continue;
                        }
                        self.register_conn(stream);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    // EMFILE and friends: back off until the next tick
                    // rather than spinning on a hot error.
                    Err(_) => return,
                }
            }
        }

        fn register_conn(&mut self, stream: TcpStream) {
            if self.conns.len() >= self.config.max_connections {
                // The fd budget is the one resource admission cannot
                // defer: turn the connection away with a typed Busy.
                self.runner.metrics.incr_busy();
                reject_busy_nonblocking(stream);
                return;
            }
            if stream.set_nonblocking(true).is_err() {
                return;
            }
            let _ = stream.set_nodelay(true);
            let token = self.next_token;
            self.next_token += 1;
            if self
                .epoll
                .add(stream.as_raw_fd(), READ_INTEREST, token)
                .is_err()
            {
                return;
            }
            self.runner.metrics.incr_connections();
            self.runner.metrics.conn_opened();
            self.conns.insert(
                token,
                ConnEntry {
                    stream,
                    state: ConnState::new(Instant::now(), self.config.worker_threads.max(1)),
                    interest: READ_INTEREST,
                },
            );
        }

        fn conn_ready(&mut self, token: u64, bits: u32) {
            if bits & sys::EPOLLERR != 0 {
                self.close_conn(token);
                return;
            }
            if bits & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP) != 0 {
                if pol_chaos::fire("serve.conn.read_delay") {
                    // Err action: the transport dies under the reader.
                    self.close_conn(token);
                    return;
                }
                let Some(entry) = self.conns.get_mut(&token) else {
                    return;
                };
                let mut outcome = Outcome::Settled;
                let event = entry.state.read_ready(
                    &mut entry.stream,
                    &mut self.scratch,
                    self.config.max_frame_bytes,
                    &mut self.runner.sink(token, &mut outcome),
                );
                if !self.settle_read(token, outcome, event) {
                    return;
                }
            }
            // One flush for the whole burst, however many replies the
            // frames in it produced.
            self.flush_conn(token);
        }

        /// Acts on how a slicing pass ended — the last frame's outcome
        /// and the read side's event. Returns whether the connection is
        /// still registered.
        fn settle_read(&mut self, token: u64, outcome: Outcome, event: ReadEvent) -> bool {
            if matches!(outcome, Outcome::Abort) || event == ReadEvent::Failed {
                self.close_conn(token);
                return false;
            }
            let Some(entry) = self.conns.get_mut(&token) else {
                return false;
            };
            match event {
                ReadEvent::Open | ReadEvent::Failed => {}
                ReadEvent::PeerClosed => entry.state.peer_closed = true,
                ReadEvent::FrameTooLarge(n) => {
                    self.runner.metrics.incr_malformed();
                    let resp = Response::Error(format!("frame of {n} bytes exceeds cap"));
                    self.runner.answer_unserved(&mut entry.state, &resp);
                    entry.state.close_after_flush = true;
                }
            }
            true
        }

        /// Files worker results in their connections' reply slots, then
        /// lets each connection that got one move: replies whose turn has
        /// come go to the write buffer and are accounted, frames the read
        /// side was holding back come in, and the socket is flushed —
        /// once per connection per pass, however many of its requests
        /// completed in it.
        fn apply_completions(&mut self) {
            // The queue's buffer and the loop's change hands, so neither
            // side allocates per pass.
            std::mem::swap(
                &mut self.done,
                &mut *self
                    .runner
                    .shared
                    .completions
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner),
            );
            while let Some(completion) = self.done.pop() {
                let token = completion.token;
                let Some(entry) = self.conns.get_mut(&token) else {
                    continue; // connection died while the request ran
                };
                match completion.reply {
                    Some(reply) => {
                        entry.state.complete(completion.seq, reply);
                        self.touched.push(token);
                    }
                    // Killed worker: abort without a reply.
                    None => self.close_conn(token),
                }
            }
            self.touched.sort_unstable();
            self.touched.dedup();
            while let Some(token) = self.touched.pop() {
                if self.release_replies(token) {
                    self.flush_conn(token);
                }
            }
        }

        /// Moves a connection's replies whose turn has come into its
        /// write buffer, accounts them, and — slots having freed up —
        /// takes the frames the read side was holding back. Returns
        /// whether the connection is still registered.
        fn release_replies(&mut self, token: u64) -> bool {
            let Some(entry) = self.conns.get_mut(&token) else {
                return false;
            };
            let metrics = &self.runner.metrics;
            entry
                .state
                .release(|endpoint, wall| metrics.record(endpoint, wall));
            self.resume_reading(token)
        }

        /// Hands the frames a pause made the read side hold back to the
        /// runner, as far as there is room now (no readiness event will
        /// announce bytes already off the socket). Returns whether the
        /// connection is still registered.
        fn resume_reading(&mut self, token: u64) -> bool {
            let Some(entry) = self.conns.get_mut(&token) else {
                return false;
            };
            let mut outcome = Outcome::Settled;
            let event = entry.state.resume(
                self.config.max_frame_bytes,
                &mut self.runner.sink(token, &mut outcome),
            );
            self.settle_read(token, outcome, event)
        }

        /// Flushes a connection's outbox as far as the socket allows and
        /// re-arms epoll interest: `EPOLLOUT` only while bytes are owed.
        fn flush_conn(&mut self, token: u64) {
            // A flush that takes a full outbox back under the mark lets
            // the frames the read side was holding in; their replies are
            // flushed in turn, until the socket or the frames run out.
            while self.flush_outbox(token) {
                if !self.resume_reading(token) {
                    return;
                }
            }
            let Some(entry) = self.conns.get_mut(&token) else {
                return;
            };
            let drained = entry.state.outbox.is_empty();
            let done = drained
                && !entry.state.owes_replies()
                && (entry.state.close_after_flush || entry.state.peer_closed);
            if done {
                self.close_conn(token);
                return;
            }
            // Interest re-arming: EPOLLOUT only while bytes are owed,
            // and EPOLLIN (with RDHUP — also level-triggered) only while
            // the connection may take frames, so a full pipeline applies
            // kernel-buffer backpressure instead of spinning the loop on
            // a socket we refuse to read. EPOLLERR/EPOLLHUP are always
            // reported regardless of the interest mask.
            let mut want = if drained { 0 } else { sys::EPOLLOUT };
            if !entry.state.read_paused() {
                want |= READ_INTEREST;
            }
            if entry.interest != want {
                let fd = entry.stream.as_raw_fd();
                if self.epoll.modify(fd, want, token).is_ok() {
                    if let Some(entry) = self.conns.get_mut(&token) {
                        entry.interest = want;
                    }
                }
            }
        }

        /// One write of the outbox to the socket. Returns whether that
        /// un-paused a read side that was holding frames back behind a
        /// full outbox.
        fn flush_outbox(&mut self, token: u64) -> bool {
            let Some(entry) = self.conns.get_mut(&token) else {
                return false;
            };
            if entry.state.outbox.is_empty() {
                return false;
            }
            let paused = entry.state.read_paused();
            match entry.state.outbox.flush_to(&mut entry.stream) {
                Ok(0) => {}
                Ok(_) => entry.state.last_write = Instant::now(),
                Err(_) => {
                    self.close_conn(token);
                    return false;
                }
            }
            self.runner
                .metrics
                .observe_write_buffer(entry.state.outbox.high_water() as u64);
            paused && !entry.state.read_paused() && entry.state.mid_frame()
        }

        /// Periodic pass over all connections: slow-loris frame
        /// deadlines, slow-reader write stalls, and drain-idle closes.
        /// Runs once per [`LOOP_TICK`], not per event batch, so a busy
        /// loop does not pay O(connections) per wakeup.
        fn sweep(&mut self) {
            let draining = self.drain_deadline.is_some();
            if !draining && self.last_sweep.elapsed() < LOOP_TICK {
                return;
            }
            self.last_sweep = Instant::now();
            let now = self.last_sweep;
            let stall = self.config.stall_timeout;
            let write_stall = self.config.write_timeout;
            let mut doomed: Vec<u64> = Vec::new();
            for (token, entry) in &self.conns {
                let read_stalled = entry.state.frame_stalled(stall, now);
                let write_stalled = !entry.state.outbox.is_empty()
                    && now.duration_since(entry.state.last_write) > write_stall;
                let drain_idle = draining && entry.state.idle();
                let peer_done = entry.state.peer_closed
                    && !entry.state.owes_replies()
                    && entry.state.outbox.is_empty();
                if read_stalled || write_stalled || drain_idle || peer_done {
                    doomed.push(*token);
                }
            }
            for token in doomed {
                self.close_conn(token);
            }
        }

        /// Stops accepting: drop the listener (new connects get RST),
        /// then let the drain deadline bound the rest. `READY` already
        /// flipped — `Server::shutdown` marks draining before raising
        /// the stop flag, and workers answer `READY` from metrics.
        fn begin_drain(&mut self) {
            self.drain_deadline = Some(Instant::now() + self.config.drain_timeout);
            if let Some(listener) = self.listener.take() {
                self.epoll.del(listener.as_raw_fd());
            }
        }

        fn close_conn(&mut self, token: u64) {
            if let Some(entry) = self.conns.remove(&token) {
                self.epoll.del(entry.stream.as_raw_fd());
                self.runner.metrics.conn_closed();
            }
        }
    }

    /// Best-effort Busy rejection for the reactor thread: one
    /// nonblocking write of the framed response, dropped on
    /// `WouldBlock`. The frame is a handful of bytes, so it fits a
    /// fresh socket's send buffer in practice; when it does not, losing
    /// the courtesy frame beats stalling the event loop behind a blocking
    /// write. The peer still observes the close either way.
    fn reject_busy_nonblocking(stream: TcpStream) {
        use std::io::Write;
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let payload = encode_response(&Response::Busy);
        let mut frame = Vec::with_capacity(4 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        let _ = (&stream).write(&frame);
    }
}
