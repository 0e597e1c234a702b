//! Per-endpoint serving metrics: request counters and latency
//! quantiles, exposed through the `STATS` endpoint.
//!
//! Latency is tracked per endpoint in a [`LogHistogram`] over
//! microseconds — the summary behind the inventory's speed, ETO and
//! ATA percentiles — at a constant relative accuracy α = 0.01, with the
//! exact maximum alongside. `STATS` reports p50, p95 and p99 as the
//! latency of rank ⌊φ·(n − 1)⌋ (0-based) among an endpoint's `n`
//! requests, each within α of the exact one however slow (one under a
//! nanosecond reads 0). A request's clock runs from the read that
//! completed its frame on the event loop to its reply reaching the
//! connection's write buffer, so time spent queued
//! behind the connection's earlier frames, on the pool's queue and in
//! the completion hand-off is in the number, whichever side ran it.
//! Snapshot opens are accounted as [`pol_engine::metrics::StageReport`]s,
//! so `STATS` shows them in the same rendering as a pipeline run's
//! stages: the server's first open and its latest reload.

use pol_engine::metrics::{render_stages, StageReport};
use pol_sketch::LogHistogram;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Relative accuracy α of the latency quantiles.
const LATENCY_ALPHA: f64 = 0.01;

/// A served endpoint, used for routing metrics and in `STATS` replies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// Liveness probe.
    Ping,
    /// All-traffic point summary.
    PointSummary,
    /// Per-vessel-type point summary.
    SegmentSummary,
    /// Per-route point summary.
    RouteSummary,
    /// Bounding-box occupied-cell scan.
    BboxScan,
    /// Figure-6 top-destination cell filter.
    TopDestinationCells,
    /// ETA estimation.
    Eta,
    /// Streaming destination prediction.
    PredictDestination,
    /// The stats endpoint itself.
    Stats,
    /// Health probe (process alive, snapshot generation, drain state).
    Health,
    /// Readiness probe (accepting and serving traffic).
    Ready,
    /// A batch frame (children are *not* double-counted
    /// under their own endpoints; the whole frame is one batch request).
    Batch,
}

impl Endpoint {
    /// Every endpoint, in wire-id order.
    pub const ALL: [Endpoint; 12] = [
        Endpoint::Ping,
        Endpoint::PointSummary,
        Endpoint::SegmentSummary,
        Endpoint::RouteSummary,
        Endpoint::BboxScan,
        Endpoint::TopDestinationCells,
        Endpoint::Eta,
        Endpoint::PredictDestination,
        Endpoint::Stats,
        Endpoint::Health,
        Endpoint::Ready,
        Endpoint::Batch,
    ];

    /// Stable wire id.
    pub fn id(self) -> u8 {
        match self {
            Endpoint::Ping => 0,
            Endpoint::PointSummary => 1,
            Endpoint::SegmentSummary => 2,
            Endpoint::RouteSummary => 3,
            Endpoint::BboxScan => 4,
            Endpoint::TopDestinationCells => 5,
            Endpoint::Eta => 6,
            Endpoint::PredictDestination => 7,
            Endpoint::Stats => 8,
            Endpoint::Health => 9,
            Endpoint::Ready => 10,
            Endpoint::Batch => 11,
        }
    }

    /// Inverse of [`Endpoint::id`].
    pub fn from_id(id: u8) -> Option<Endpoint> {
        Endpoint::ALL.get(id as usize).copied()
    }

    /// Human-readable name used in STATS reports and log lines.
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Ping => "ping",
            Endpoint::PointSummary => "point_summary",
            Endpoint::SegmentSummary => "segment_summary",
            Endpoint::RouteSummary => "route_summary",
            Endpoint::BboxScan => "bbox_scan",
            Endpoint::TopDestinationCells => "top_destination_cells",
            Endpoint::Eta => "eta",
            Endpoint::PredictDestination => "predict_destination",
            Endpoint::Stats => "stats",
            Endpoint::Health => "health",
            Endpoint::Ready => "ready",
            Endpoint::Batch => "batch",
        }
    }
}

/// The `HEALTH` endpoint's reply body: is the process serving, which
/// snapshot generation is live, and is the server draining for shutdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthReport {
    /// The server is up and executing queries.
    pub healthy: bool,
    /// Monotonic snapshot generation (bumped by every successful hot
    /// reload; starts at 1 for the boot snapshot).
    pub generation: u64,
    /// The server is draining connections ahead of shutdown; load
    /// balancers should route new traffic elsewhere.
    pub draining: bool,
}

/// One endpoint's row in a [`StatsReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct EndpointStats {
    /// Which endpoint.
    pub endpoint: Endpoint,
    /// Requests served.
    pub count: u64,
    /// Median latency, microseconds (within α; see the module docs).
    pub p50_us: f64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Slowest observed request, microseconds (exact).
    pub max_us: f64,
}

/// A point-in-time snapshot of the server's counters — the `STATS`
/// endpoint's reply body.
#[derive(Clone, Debug, PartialEq)]
pub struct StatsReport {
    /// Requests decoded and executed (any endpoint).
    pub total_requests: u64,
    /// Connections rejected with [`crate::proto::Response::Busy`].
    pub busy_rejections: u64,
    /// Frames that failed to decode.
    pub malformed_frames: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Always 0: the aggregate-query cache is gone and scans are
    /// answered from the store. The field holds its place on the v6
    /// `STATS` wire until the benchmark stops reading it.
    pub cache_hits: u64,
    /// Always 0, like [`cache_hits`](Self::cache_hits).
    pub cache_misses: u64,
    /// Live snapshot generation (see [`HealthReport::generation`]).
    pub generation: u64,
    /// Successful hot snapshot reloads.
    pub reloads_ok: u64,
    /// Rejected hot reloads (corrupt or unreadable file; the previous
    /// snapshot stayed live).
    pub reloads_failed: u64,
    /// Sub-requests carried inside `BATCH` frames (each
    /// batch frame counts once under [`Endpoint::Batch`]; this counter
    /// accounts its children).
    pub batched_requests: u64,
    /// Binary searches the mapped store ran over a link's key column
    /// (one per link searched).
    pub mapped_lookups: u64,
    /// Section entries / lat-index rows the mapped store touched during
    /// scans.
    pub mapped_scan_entries: u64,
    /// Newest delta generation merged into the live snapshot (0 when the
    /// snapshot was not loaded from a delta chain).
    pub delta_generation: u64,
    /// Files in the loaded delta chain, base included (1 for a plain
    /// snapshot, 0 when unknown).
    pub chain_len: u64,
    /// Whole seconds since the last successful hot reload (since process
    /// start if none happened yet) — the streaming-freshness signal.
    pub since_reload_secs: u64,
    /// Connections currently open on the server.
    pub open_connections: u64,
    /// High-water mark of `open_connections` over the server's lifetime.
    pub peak_connections: u64,
    /// Readiness events delivered by `epoll_wait` to the reactor loop.
    pub ready_events: u64,
    /// Cross-thread eventfd wakeups the reactor consumed — each one is a
    /// worker handing completed responses back to the loop.
    pub wakeups: u64,
    /// Requests shed with `Busy` by the event loop's admission check
    /// (a subset of `busy_rejections`; the rest are connections turned
    /// away at the `max_connections` ceiling).
    pub shed_at_loop: u64,
    /// Largest per-connection write buffer observed, bytes — how far a
    /// slow reader ever got behind before `EPOLLOUT` caught it up.
    pub write_buffer_high_water: u64,
    /// The live store: always "mapped-columnar".
    pub store: String,
    /// Per-endpoint counters, in [`Endpoint::ALL`] order, endpoints with
    /// zero traffic omitted.
    pub endpoints: Vec<EndpointStats>,
    /// The first snapshot open and the latest reload, rendered by
    /// [`pol_engine::metrics::render_stages`].
    pub stages: String,
}

impl StatsReport {
    /// Renders the report as a human-readable table: the counter block,
    /// then one latency row per endpoint, then the startup stages.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "store={} generation={} requests={} batched={} connections={}",
            self.store,
            self.generation,
            self.total_requests,
            self.batched_requests,
            self.connections
        );
        let _ = writeln!(
            out,
            "busy={} malformed={} reloads_ok={} reloads_failed={}",
            self.busy_rejections, self.malformed_frames, self.reloads_ok, self.reloads_failed
        );
        let _ = writeln!(
            out,
            "mapped_lookups={} mapped_scan_entries={}",
            self.mapped_lookups, self.mapped_scan_entries
        );
        let _ = writeln!(
            out,
            "delta_generation={} chain_len={} since_reload_secs={}",
            self.delta_generation, self.chain_len, self.since_reload_secs
        );
        let _ = writeln!(
            out,
            "open_connections={} peak_connections={} ready_events={} wakeups={} \
             shed_at_loop={} write_buffer_high_water={}",
            self.open_connections,
            self.peak_connections,
            self.ready_events,
            self.wakeups,
            self.shed_at_loop,
            self.write_buffer_high_water
        );
        let _ = writeln!(
            out,
            "{:<22} {:>10} {:>9} {:>9} {:>9} {:>9}",
            "endpoint", "count", "p50_us", "p95_us", "p99_us", "max_us"
        );
        for ep in &self.endpoints {
            let _ = writeln!(
                out,
                "{:<22} {:>10} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
                ep.endpoint.name(),
                ep.count,
                ep.p50_us,
                ep.p95_us,
                ep.p99_us,
                ep.max_us
            );
        }
        if !self.stages.is_empty() {
            out.push_str(&self.stages);
        }
        out
    }
}

struct EndpointSlot {
    count: AtomicU64,
    lat: Mutex<(LogHistogram, f64)>,
}

impl EndpointSlot {
    fn new() -> EndpointSlot {
        EndpointSlot {
            count: AtomicU64::new(0),
            lat: Mutex::new((LogHistogram::new(LATENCY_ALPHA), 0.0)),
        }
    }
}

/// Shared, thread-safe serving counters. One instance per server.
pub struct ServerMetrics {
    slots: Vec<EndpointSlot>,
    busy_rejections: AtomicU64,
    malformed_frames: AtomicU64,
    connections: AtomicU64,
    generation: AtomicU64,
    reloads_ok: AtomicU64,
    reloads_failed: AtomicU64,
    batched_requests: AtomicU64,
    delta_generation: AtomicU64,
    chain_len: AtomicU64,
    open_connections: AtomicU64,
    peak_connections: AtomicU64,
    ready_events: AtomicU64,
    wakeups: AtomicU64,
    shed_at_loop: AtomicU64,
    write_buffer_high_water: AtomicU64,
    /// Process-start anchor for the freshness clock.
    started: Instant,
    /// Milliseconds after `started` of the last successful reload
    /// (0 = never reloaded, so freshness counts from process start).
    last_reload_millis: AtomicU64,
    draining: AtomicBool,
    /// The first open, then the latest reload's (each replaces the one
    /// before, so a STATS reply stays one frame however long it runs).
    stages: Mutex<Vec<StageReport>>,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerMetrics {
    /// Fresh zeroed counters.
    pub fn new() -> ServerMetrics {
        ServerMetrics {
            slots: Endpoint::ALL.iter().map(|_| EndpointSlot::new()).collect(),
            busy_rejections: AtomicU64::new(0),
            malformed_frames: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            generation: AtomicU64::new(1),
            reloads_ok: AtomicU64::new(0),
            reloads_failed: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            delta_generation: AtomicU64::new(0),
            chain_len: AtomicU64::new(0),
            open_connections: AtomicU64::new(0),
            peak_connections: AtomicU64::new(0),
            ready_events: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            shed_at_loop: AtomicU64::new(0),
            write_buffer_high_water: AtomicU64::new(0),
            started: Instant::now(),
            last_reload_millis: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            stages: Mutex::new(Vec::with_capacity(2)),
        }
    }

    /// Accounts one served request; `wall` is frame-complete to
    /// reply-buffered (see the module docs).
    pub fn record(&self, endpoint: Endpoint, wall: Duration) {
        if let Some(slot) = self.slots.get(endpoint.id() as usize) {
            slot.count.fetch_add(1, Ordering::Relaxed);
            let us = wall.as_secs_f64() * 1e6;
            let mut lat = slot.lat.lock().unwrap_or_else(PoisonError::into_inner);
            lat.0.add(us);
            lat.1 = lat.1.max(us);
        }
    }

    /// Accounts a snapshot open; a reload's replaces the previous one's.
    pub fn record_stage(&self, report: StageReport) {
        let mut stages = self.stages.lock().unwrap_or_else(PoisonError::into_inner);
        stages.truncate(1);
        stages.push(report);
    }

    /// Counts a busy rejection.
    pub fn incr_busy(&self) {
        self.busy_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an undecodable frame.
    pub fn incr_malformed(&self) {
        self.malformed_frames.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an accepted connection.
    pub fn incr_connections(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Raises the open-connection gauge (and its high-water mark) by one.
    pub fn conn_opened(&self) {
        let now = self.open_connections.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_connections.fetch_max(now, Ordering::Relaxed);
    }

    /// Lowers the open-connection gauge by one.
    pub fn conn_closed(&self) {
        self.open_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Accounts `n` readiness events delivered by one `epoll_wait`.
    pub fn add_ready_events(&self, n: u64) {
        self.ready_events.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one consumed cross-thread eventfd wakeup.
    pub fn incr_wakeup(&self) {
        self.wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a request shed with `Busy` by the event loop's admission
    /// check (callers also bump the shared busy counter via
    /// [`ServerMetrics::incr_busy`]).
    pub fn incr_shed_at_loop(&self) {
        self.shed_at_loop.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a per-connection write-buffer depth; keeps the maximum.
    pub fn observe_write_buffer(&self, bytes: u64) {
        self.write_buffer_high_water
            .fetch_max(bytes, Ordering::Relaxed);
    }

    /// The open-connection gauge, as served in `STATS`.
    pub fn open_connections(&self) -> u64 {
        self.open_connections.load(Ordering::Relaxed)
    }

    /// Accounts `n` sub-requests carried by one `BATCH` frame.
    pub fn add_batched(&self, n: u64) {
        self.batched_requests.fetch_add(n, Ordering::Relaxed);
    }

    /// Accounts a successful hot reload: the generation advances so
    /// clients can observe which snapshot answered them, and the
    /// freshness clock restarts.
    pub fn reload_succeeded(&self) {
        self.reloads_ok.fetch_add(1, Ordering::Relaxed);
        self.generation.fetch_add(1, Ordering::Release);
        let millis = self.started.elapsed().as_millis() as u64;
        self.last_reload_millis.store(millis, Ordering::Relaxed);
    }

    /// Records the delta-chain lineage of the live snapshot: the newest
    /// merged delta generation and the chain length (base included).
    /// Called whenever a snapshot or chain is loaded or hot-reloaded.
    pub fn set_chain(&self, delta_generation: u64, chain_len: u64) {
        self.delta_generation
            .store(delta_generation, Ordering::Relaxed);
        self.chain_len.store(chain_len, Ordering::Relaxed);
    }

    /// Whole seconds since the last successful reload (since process
    /// start if none happened yet).
    pub fn since_reload_secs(&self) -> u64 {
        let now = self.started.elapsed().as_millis() as u64;
        let last = self.last_reload_millis.load(Ordering::Relaxed);
        now.saturating_sub(last) / 1000
    }

    /// Accounts a rejected hot reload (the old snapshot stayed live, so
    /// the generation does not move).
    pub fn reload_failed(&self) {
        self.reloads_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// The live snapshot generation.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Flags the server as draining (shutdown underway).
    pub fn set_draining(&self) {
        self.draining.store(true, Ordering::Relaxed);
    }

    /// Whether the server is draining.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// The `HEALTH` endpoint's view of this server.
    pub fn health(&self) -> HealthReport {
        HealthReport {
            healthy: true,
            generation: self.generation(),
            draining: self.is_draining(),
        }
    }

    /// Requests served so far across all endpoints.
    pub fn total_requests(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.count.load(Ordering::Relaxed))
            .sum()
    }

    /// Snapshots everything into a wire-encodable report.
    pub fn snapshot(&self) -> StatsReport {
        let mut endpoints = Vec::new();
        for ep in Endpoint::ALL {
            let Some(slot) = self.slots.get(ep.id() as usize) else {
                continue;
            };
            let count = slot.count.load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            let lat = slot.lat.lock().unwrap_or_else(PoisonError::into_inner);
            let [p50_us, p95_us, p99_us] = lat
                .0
                .quantiles([0.50, 0.95, 0.99])
                .map(|q| q.unwrap_or(0.0));
            endpoints.push(EndpointStats {
                endpoint: ep,
                count,
                p50_us,
                p95_us,
                p99_us,
                max_us: lat.1,
            });
        }
        StatsReport {
            total_requests: self.total_requests(),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            malformed_frames: self.malformed_frames.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            cache_hits: 0,
            cache_misses: 0,
            generation: self.generation(),
            reloads_ok: self.reloads_ok.load(Ordering::Relaxed),
            reloads_failed: self.reloads_failed.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            delta_generation: self.delta_generation.load(Ordering::Relaxed),
            chain_len: self.chain_len.load(Ordering::Relaxed),
            since_reload_secs: self.since_reload_secs(),
            open_connections: self.open_connections.load(Ordering::Relaxed),
            peak_connections: self.peak_connections.load(Ordering::Relaxed),
            ready_events: self.ready_events.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
            shed_at_loop: self.shed_at_loop.load(Ordering::Relaxed),
            write_buffer_high_water: self.write_buffer_high_water.load(Ordering::Relaxed),
            // The store identity and its counters live on the service,
            // not here; `InventoryService` fills them in before replying.
            mapped_lookups: 0,
            mapped_scan_entries: 0,
            store: String::new(),
            endpoints,
            stages: render_stages(&self.stages.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_ids_round_trip() {
        for ep in Endpoint::ALL {
            assert_eq!(Endpoint::from_id(ep.id()), Some(ep));
        }
        assert_eq!(Endpoint::from_id(200), None);
    }

    /// What 10 µs bins capped at 10 ms read as 10 and 10 000: a
    /// point lookup's microseconds and a stalled request's tens of
    /// milliseconds, each within α.
    #[test]
    fn stats_resolve_microseconds_and_tens_of_milliseconds() {
        let m = ServerMetrics::new();
        for _ in 0..100 {
            m.record(Endpoint::PointSummary, Duration::from_nanos(1_500));
            m.record(Endpoint::Eta, Duration::from_millis(25));
        }
        let snap = m.snapshot();
        for (row, want) in snap.endpoints.iter().zip([1.5, 25_000.0]) {
            for got in [row.p50_us, row.p95_us, row.p99_us, row.max_us] {
                assert!(
                    (got - want).abs() <= LATENCY_ALPHA * want,
                    "{:?}: {got} µs, want {want}",
                    row.endpoint
                );
            }
        }
    }

    /// Quantile `φ` is the latency of rank ⌊φ·(n − 1)⌋, within α.
    #[test]
    fn stats_quantiles_are_ranks_within_alpha() {
        let m = ServerMetrics::new();
        for us in (1..=100).rev() {
            m.record(Endpoint::BboxScan, Duration::from_micros(us));
        }
        let row = &m.snapshot().endpoints[0];
        for (got, want) in [(row.p50_us, 50.0), (row.p95_us, 95.0), (row.p99_us, 99.0)] {
            assert!(
                (got - want).abs() <= LATENCY_ALPHA * want,
                "{got} vs {want}"
            );
        }
        assert!((row.max_us - 100.0).abs() < 1e-9, "{}", row.max_us);
    }

    #[test]
    fn snapshot_reflects_recordings() {
        let m = ServerMetrics::new();
        m.record(Endpoint::PointSummary, Duration::from_micros(100));
        m.record(Endpoint::PointSummary, Duration::from_micros(300));
        m.record(Endpoint::Eta, Duration::from_micros(900));
        m.incr_busy();
        m.incr_connections();
        let snap = m.snapshot();
        assert_eq!(snap.total_requests, 3);
        assert_eq!(snap.busy_rejections, 1);
        assert_eq!(snap.connections, 1);
        assert_eq!(snap.endpoints.len(), 2); // zero-traffic endpoints omitted
        let point = &snap.endpoints[0];
        assert_eq!(point.endpoint, Endpoint::PointSummary);
        assert_eq!(point.count, 2);
        assert!(point.max_us >= 300.0);
        assert!(point.p50_us > 0.0 && point.p50_us <= point.p99_us);
    }

    #[test]
    fn event_loop_counters_flow_into_snapshot() {
        let m = ServerMetrics::new();
        m.conn_opened();
        m.conn_opened();
        m.conn_closed();
        m.add_ready_events(7);
        m.incr_wakeup();
        m.incr_shed_at_loop();
        m.observe_write_buffer(4096);
        m.observe_write_buffer(512); // smaller: high water must hold
        let snap = m.snapshot();
        assert_eq!(snap.open_connections, 1);
        assert_eq!(snap.peak_connections, 2);
        assert_eq!(snap.ready_events, 7);
        assert_eq!(snap.wakeups, 1);
        assert_eq!(snap.shed_at_loop, 1);
        assert_eq!(snap.write_buffer_high_water, 4096);
        let rendered = snap.render();
        assert!(rendered.contains("open_connections=1"), "{rendered}");
        assert!(rendered.contains("shed_at_loop=1"), "{rendered}");
        assert!(rendered.contains("ready_events=7"), "{rendered}");
    }

    #[test]
    fn stages_render_into_snapshot() {
        let m = ServerMetrics::new();
        m.record_stage(StageReport {
            name: "snapshot-load".into(),
            input_records: 10,
            output_records: 10,
            shuffled_records: 0,
            wall: Duration::from_millis(2),
        });
        assert!(m.snapshot().stages.contains("snapshot-load"));
    }
}
