//! Per-vessel online sessions with watermark-driven trip finalization.
//!
//! One [`StreamEngine`] owns a session per vessel. Each incoming record
//! is range-checked and enriched exactly as the batch scan does, then
//! parked in its vessel's reorder buffer keyed by
//! `(timestamp, arrival sequence)`. A global **watermark** — the
//! maximum event time seen minus [`StreamConfig::reorder_bound_secs`] —
//! bounds how far out of order the wire may deliver: records at or
//! below the watermark are released to the session's state machines in
//! key order, which reproduces the batch path's stable timestamp sort.
//! Records arriving *behind* a vessel's already-released frontier are
//! dropped and counted ([`IngestCounters::late_dropped`]); the
//! byte-identity gate requires that count to be zero, i.e. the bound
//! must cover the wire's true disorder (the simulator's worst case is
//! the 120 s-backward corrupt duplicate; the default bound is 300 s).
//!
//! Released records drive the exact incremental primitives the batch
//! fold uses — [`VesselCleaner`] for duplicate/feasibility filtering,
//! [`TripTracker`] for port-to-port segmentation, and
//! [`pol_core::project::project_trip`] per finalized trip — so the
//! retained per-vessel cell points equal the batch intermediates, and
//! [`StreamEngine::close`] reproduces the batch inventory byte for byte
//! via [`fold_shared`].

use pol_ais::types::{MarketSegment, Mmsi};
use pol_ais::{PositionReport, StaticReport};
use pol_core::clean::{enrich_one, segment_lookup, VesselCleaner};
use pol_core::fused::fold_shared;
use pol_core::project::project_trip;
use pol_core::records::{CellPoint, EnrichedReport, PortSite, TripPoint};
use pol_core::trips::{Geofence, TripTracker};
use pol_core::{Inventory, PipelineConfig, PipelineError};
use pol_engine::Engine;
use pol_hexgrid::{CellIndex, Resolution};
use pol_sketch::hash::FxHashMap;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Tunables of the streaming ingestion layer.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// The batch pipeline's tunables — cleaning thresholds, geofence
    /// radius, grid resolution, sketch parameters. Shared verbatim so
    /// the streamed and batch inventories are comparable at all.
    pub pipeline: PipelineConfig,
    /// Out-of-order tolerance, seconds: the watermark trails the
    /// maximum event time by this much. Must exceed the wire's true
    /// disorder or records are late-dropped and identity breaks.
    pub reorder_bound_secs: i64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            pipeline: PipelineConfig::default(),
            // 2.5× the simulator's worst backward jump (the 120 s
            // corrupt duplicate), with slack for cross-vessel skew.
            reorder_bound_secs: 300,
        }
    }
}

/// What ingestion did so far — the streaming analogue of the batch
/// pipeline's stage accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestCounters {
    /// Records pushed into the engine.
    pub ingested: u64,
    /// Dropped before buffering: outside AIS protocol ranges.
    pub out_of_range: u64,
    /// Dropped before buffering: unknown vessel or non-commercial.
    pub non_commercial: u64,
    /// Records released from reorder buffers to the state machines.
    pub released: u64,
    /// Records arriving behind their vessel's released frontier —
    /// nonzero means the reorder bound is too small for the wire.
    pub late_dropped: u64,
    /// Trips finalized by port arrival.
    pub trips_finalized: u64,
    /// Trip points projected onto the grid (the batch pipeline's
    /// `projected` count).
    pub trip_points: u64,
}

/// One vessel's online state: the reorder buffer plus the shared
/// incremental clean → segment → project machinery.
struct VesselSession {
    /// Out-of-order parking lot, keyed `(timestamp, arrival_seq)` —
    /// draining in key order reproduces the batch stable sort.
    buffer: BTreeMap<(i64, u64), EnrichedReport>,
    /// Maximum released timestamp; records behind it are late.
    frontier: i64,
    cleaner: VesselCleaner,
    tracker: TripTracker,
    /// Points of the trip currently being emitted (one finalized trip
    /// at a time; cleared after projection).
    trip_buf: Vec<TripPoint>,
    cell_scratch: Vec<CellIndex>,
    /// The grid resolution trips are projected at.
    resolution: Resolution,
    /// Every projected cell point, in emission order. A window cut and
    /// the close share it with [`fold_shared`]'s tasks instead of copying;
    /// the tasks are done with it when the fold returns, so appending the
    /// next trip (`Arc::make_mut`) copies nothing.
    retained: Arc<Vec<CellPoint>>,
    /// Start of the current delta window within `retained`.
    window_mark: usize,
    /// Times the tracker discarded a non-empty open passage (at a port
    /// sighting). A checkpoint that has logged part of the open passage
    /// compares this with the value it saw then: equal means the passage
    /// only grew, different means what it logged is gone.
    passage_restarts: u64,
}

/// One vessel session as a checkpoint reads it: the scalars by value,
/// the two vectors that only ever grow or restart — and the reorder
/// buffer — borrowed.
pub(crate) struct SessionView<'a> {
    pub mmsi: u32,
    pub frontier: i64,
    pub window_mark: u64,
    pub cleaner_last: Option<EnrichedReport>,
    pub last_port: Option<u16>,
    pub trip_seq: u32,
    pub passage_restarts: u64,
    pub open_passage: &'a [EnrichedReport],
    pub retained: &'a [CellPoint],
    pub buffer: &'a BTreeMap<(i64, u64), EnrichedReport>,
}

impl VesselSession {
    fn new(cfg: &StreamConfig) -> VesselSession {
        VesselSession {
            buffer: BTreeMap::new(),
            frontier: i64::MIN,
            cleaner: VesselCleaner::new(cfg.pipeline.max_feasible_speed_kn),
            tracker: TripTracker::new(cfg.pipeline.min_trip_points),
            trip_buf: Vec::new(),
            cell_scratch: Vec::new(),
            resolution: cfg.pipeline.resolution,
            retained: Arc::default(),
            window_mark: 0,
            passage_restarts: 0,
        }
    }

    /// Feeds one released record through clean → segment → project.
    fn feed(&mut self, r: EnrichedReport, geofence: &Geofence, counters: &mut IngestCounters) {
        self.frontier = self.frontier.max(r.timestamp);
        counters.released += 1;
        let Ok(survivor) = self.cleaner.push(r) else {
            return;
        };
        let open_before = self.tracker.state().2.len();
        let finalized = self.tracker.push(geofence, &survivor, &mut self.trip_buf);
        // A push appends one report or clears the passage, nothing else.
        if self.tracker.state().2.len() < open_before {
            self.passage_restarts += 1;
        }
        if finalized {
            counters.trips_finalized += 1;
            counters.trip_points += self.trip_buf.len() as u64;
            self.project_finalized();
        }
    }

    /// Projects the trip the tracker just finalized onto the grid, behind
    /// the points retained so far. Kept out of line: it runs once a trip,
    /// `feed` once a record.
    #[inline(never)]
    fn project_finalized(&mut self) {
        project_trip(
            &self.trip_buf,
            self.resolution,
            &mut self.cell_scratch,
            Arc::make_mut(&mut self.retained),
        );
        self.trip_buf.clear();
    }

    /// Releases every buffered record at or below `watermark`, in key
    /// order.
    fn release(&mut self, watermark: i64, geofence: &Geofence, counters: &mut IngestCounters) {
        while let Some(entry) = self.buffer.first_entry() {
            if entry.key().0 > watermark {
                break;
            }
            let (_, r) = entry.remove_entry();
            self.feed(r, geofence, counters);
        }
    }
}

/// What [`StreamEngine::close`] produced.
pub struct StreamOutput {
    /// The final inventory — byte-identical to the batch build over the
    /// same records when [`IngestCounters::late_dropped`] is zero.
    pub inventory: Inventory,
    /// Final ingestion accounting.
    pub counters: IngestCounters,
}

/// The live-ingestion engine: per-vessel sessions, a global watermark,
/// and delta-window bookkeeping.
pub struct StreamEngine {
    cfg: StreamConfig,
    lookup: FxHashMap<Mmsi, (MarketSegment, bool)>,
    geofence: Geofence,
    sessions: FxHashMap<u32, VesselSession>,
    arrival_seq: u64,
    /// Maximum event timestamp seen; `i64::MIN` before the first record.
    max_event_ts: i64,
    counters: IngestCounters,
}

impl StreamEngine {
    /// An engine joined against `statics` (the enrichment side-input)
    /// and geofenced by `ports`, with all pipeline semantics from `cfg`.
    pub fn new(statics: &[StaticReport], ports: &[PortSite], cfg: StreamConfig) -> StreamEngine {
        let geofence = Geofence::build(ports, cfg.pipeline.resolution);
        StreamEngine {
            lookup: segment_lookup(statics),
            geofence,
            cfg,
            sessions: FxHashMap::default(),
            arrival_seq: 0,
            max_event_ts: i64::MIN,
            counters: IngestCounters::default(),
        }
    }

    /// The current watermark: everything at or below it is final.
    pub fn watermark(&self) -> i64 {
        if self.max_event_ts == i64::MIN {
            i64::MIN
        } else {
            self.max_event_ts
                .saturating_sub(self.cfg.reorder_bound_secs)
        }
    }

    /// Ingestion accounting so far.
    pub fn counters(&self) -> IngestCounters {
        self.counters
    }

    /// Vessels with live sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Records currently parked in reorder buffers.
    pub fn buffered(&self) -> usize {
        self.sessions.values().map(|s| s.buffer.len()).sum()
    }

    /// Ingests one wire record: range-check, enrich, advance the
    /// watermark, release what it finalizes for this vessel, and park
    /// or late-drop the record itself.
    pub fn push(&mut self, r: PositionReport) {
        self.counters.ingested += 1;
        if !r.in_protocol_ranges() {
            self.counters.out_of_range += 1;
            return;
        }
        // Every in-range record advances event time, enrichable or not:
        // the wire's clock is the fleet's, not the commercial subset's.
        self.max_event_ts = self.max_event_ts.max(r.timestamp);
        let Some(e) = enrich_one(&self.lookup, self.cfg.pipeline.commercial_only, r) else {
            self.counters.non_commercial += 1;
            return;
        };
        let watermark = self.watermark();
        let session = self
            .sessions
            .entry(e.mmsi.0)
            .or_insert_with(|| VesselSession::new(&self.cfg));
        // Drain first so the new record is ordered against everything
        // the advanced watermark just finalized.
        session.release(watermark, &self.geofence, &mut self.counters);
        if e.timestamp < session.frontier {
            self.counters.late_dropped += 1;
            return;
        }
        if e.timestamp <= watermark {
            // Already final and not behind the frontier: everything
            // still buffered is above the watermark, so feeding now is
            // key order.
            session.feed(e, &self.geofence, &mut self.counters);
            return;
        }
        self.arrival_seq += 1;
        session.buffer.insert((e.timestamp, self.arrival_seq), e);
    }

    /// Releases every vessel's buffered records up to the current
    /// watermark — the barrier before a delta snapshot, so the window
    /// reflects one consistent watermark point.
    pub fn drain_to_watermark(&mut self) {
        self.release_to(self.watermark());
    }

    /// Releases every vessel's buffered records at or below `watermark`.
    fn release_to(&mut self, watermark: i64) {
        for session in self.sessions.values_mut() {
            session.release(watermark, &self.geofence, &mut self.counters);
        }
    }

    /// Cuts the current delta window: drains to the watermark, folds
    /// every cell point projected since the previous cut into a
    /// deterministic window [`Inventory`], and starts the next window.
    /// The result is a *mergeable delta* — its record total is the
    /// window's trip-point count — not the identity artifact (see the
    /// crate docs).
    pub fn take_window_delta(&mut self, engine: &Engine) -> Result<Inventory, PipelineError> {
        self.drain_to_watermark();
        let mut per_vessel = Vec::new();
        let mut window_points = 0;
        for (mmsi, session) in self.sessions.iter_mut() {
            let total = session.retained.len();
            if session.window_mark < total {
                let from = std::mem::replace(&mut session.window_mark, total);
                window_points += (total - from) as u64;
                per_vessel.push((*mmsi, Arc::clone(&session.retained), from));
            }
        }
        fold_shared(engine, &self.cfg.pipeline, per_vessel, window_points)
    }

    /// Every session as a checkpoint reads it, in no particular order.
    pub(crate) fn session_views(&self) -> impl Iterator<Item = SessionView<'_>> {
        self.sessions.iter().map(|(&mmsi, s)| {
            let (last_port, trip_seq, open_passage) = s.tracker.state();
            SessionView {
                mmsi,
                frontier: s.frontier,
                window_mark: s.window_mark as u64,
                cleaner_last: s.cleaner.last(),
                last_port,
                trip_seq,
                passage_restarts: s.passage_restarts,
                open_passage,
                retained: &s.retained,
                buffer: &s.buffer,
            }
        })
    }

    /// The scalar half of a checkpoint: everything of [`EngineState`]
    /// but its sessions.
    ///
    /// [`EngineState`]: crate::checkpoint::EngineState
    pub(crate) fn scalar_state(
        &self,
        wal_seq: u64,
        window_cuts: u64,
    ) -> crate::checkpoint::EngineState {
        let c = &self.counters;
        crate::checkpoint::EngineState {
            resolution: self.cfg.pipeline.resolution.level(),
            reorder_bound_secs: self.cfg.reorder_bound_secs,
            wal_seq,
            window_cuts,
            arrival_seq: self.arrival_seq,
            max_event_ts: self.max_event_ts,
            counters: [
                c.ingested,
                c.out_of_range,
                c.non_commercial,
                c.released,
                c.late_dropped,
                c.trips_finalized,
                c.trip_points,
            ],
            sessions: Vec::new(),
        }
    }

    /// Copies the engine's complete mutable state out — what a
    /// checkpoint taken now must load back to ([`crate::checkpoint`]
    /// writes it from the borrowed sessions, without this copy; tests
    /// hold the two against each other). `wal_seq` and `window_cuts` are
    /// the journal layer's bookkeeping (batches applied, delta windows
    /// cut) — the engine itself does not track them but recovery needs
    /// them bound to the exact engine state they describe.
    ///
    /// Everything the remaining records' processing depends on is
    /// captured: the per-vessel reorder buffers (with arrival sequence
    /// numbers, preserving release tie-breaks), frontiers, cleaner and
    /// tracker state, retained cell points and window marks, plus the
    /// engine-wide arrival counter, event clock, and counters. The
    /// transient `trip_buf`/`cell_scratch` are always empty between
    /// pushes and are deliberately absent.
    pub fn snapshot_state(&self, wal_seq: u64, window_cuts: u64) -> crate::checkpoint::EngineState {
        let mut state = self.scalar_state(wal_seq, window_cuts);
        state.sessions = self
            .session_views()
            .map(|v| crate::checkpoint::SessionState {
                mmsi: v.mmsi,
                frontier: v.frontier,
                window_mark: v.window_mark,
                cleaner_last: v.cleaner_last,
                last_port: v.last_port,
                trip_seq: v.trip_seq,
                open_passage: v.open_passage.to_vec(),
                retained: v.retained.to_vec(),
                buffer: v
                    .buffer
                    .iter()
                    .map(|(&(ts, seq), &r)| (ts, seq, r))
                    .collect(),
            })
            .collect();
        state
    }

    /// Rebuilds an engine from a checkpointed [`EngineState`]
    /// (the inverse of [`StreamEngine::snapshot_state`]). Refuses a
    /// checkpoint whose resolution or reorder-bound echo disagrees with
    /// `cfg` — replaying a journal against different semantics would
    /// silently diverge from the pre-crash run.
    ///
    /// [`EngineState`]: crate::checkpoint::EngineState
    pub fn from_state(
        statics: &[StaticReport],
        ports: &[PortSite],
        cfg: StreamConfig,
        state: crate::checkpoint::EngineState,
    ) -> Result<StreamEngine, &'static str> {
        if state.resolution != cfg.pipeline.resolution.level() {
            return Err("checkpoint grid resolution does not match the configured pipeline");
        }
        if state.reorder_bound_secs != cfg.reorder_bound_secs {
            return Err("checkpoint reorder bound does not match the configured pipeline");
        }
        let mut engine = StreamEngine::new(statics, ports, cfg);
        engine.arrival_seq = state.arrival_seq;
        engine.max_event_ts = state.max_event_ts;
        let [ingested, out_of_range, non_commercial, released, late_dropped, trips_finalized, trip_points] =
            state.counters;
        engine.counters = IngestCounters {
            ingested,
            out_of_range,
            non_commercial,
            released,
            late_dropped,
            trips_finalized,
            trip_points,
        };
        for s in state.sessions {
            let window_mark = usize::try_from(s.window_mark)
                .map_err(|_| "checkpoint window mark out of range")?;
            if window_mark > s.retained.len() {
                return Err("checkpoint window mark past retained points");
            }
            let session = VesselSession {
                buffer: s
                    .buffer
                    .iter()
                    .map(|&(ts, seq, r)| ((ts, seq), r))
                    .collect(),
                frontier: s.frontier,
                cleaner: VesselCleaner::resume(
                    engine.cfg.pipeline.max_feasible_speed_kn,
                    s.cleaner_last,
                ),
                tracker: TripTracker::resume(
                    engine.cfg.pipeline.min_trip_points,
                    s.last_port,
                    s.trip_seq,
                    s.open_passage,
                ),
                trip_buf: Vec::new(),
                cell_scratch: Vec::new(),
                resolution: engine.cfg.pipeline.resolution,
                retained: Arc::new(s.retained),
                window_mark,
                passage_restarts: 0,
            };
            if engine.sessions.insert(s.mmsi, session).is_some() {
                return Err("checkpoint holds duplicate vessel sessions");
            }
        }
        Ok(engine)
    }

    /// Closes the stream: treats the watermark as infinite, drains and
    /// finalizes everything, and folds all retained cell points into
    /// the final inventory via [`fold_shared`] — byte-identical to
    /// the batch build over the same records.
    pub fn close(mut self, engine: &Engine) -> Result<StreamOutput, PipelineError> {
        self.release_to(i64::MAX);
        let per_vessel = self
            .sessions
            .into_iter()
            .map(|(mmsi, s)| (mmsi, s.retained, 0))
            .collect();
        let inventory = fold_shared(
            engine,
            &self.cfg.pipeline,
            per_vessel,
            self.counters.trip_points,
        )?;
        Ok(StreamOutput {
            inventory,
            counters: self.counters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_ais::types::NavStatus;
    use pol_geo::LatLon;

    fn statics() -> Vec<StaticReport> {
        vec![StaticReport {
            mmsi: Mmsi(200_000_001),
            imo: None,
            name: "TEST".to_string(),
            ship_type: pol_ais::types::ShipTypeCode(70), // cargo
            gross_tonnage: 30_000,
        }]
    }

    fn report(ts: i64, lat: f64, lon: f64) -> PositionReport {
        PositionReport {
            mmsi: Mmsi(200_000_001),
            timestamp: ts,
            pos: LatLon::new(lat, lon).unwrap(),
            sog_knots: Some(12.0),
            cog_deg: Some(90.0),
            heading_deg: None,
            nav_status: NavStatus::UnderWayUsingEngine,
        }
    }

    fn engine_with(bound: i64) -> StreamEngine {
        StreamEngine::new(
            &statics(),
            &[],
            StreamConfig {
                reorder_bound_secs: bound,
                ..StreamConfig::default()
            },
        )
    }

    #[test]
    fn watermark_trails_max_event_time() {
        let mut se = engine_with(300);
        assert_eq!(se.watermark(), i64::MIN);
        se.push(report(1_000, 10.0, 10.0));
        assert_eq!(se.watermark(), 700);
        se.push(report(5_000, 10.0, 10.1));
        assert_eq!(se.watermark(), 4_700);
        // Older records never move the watermark backwards.
        se.push(report(2_000, 10.0, 10.2));
        assert_eq!(se.watermark(), 4_700);
    }

    #[test]
    fn records_buffer_until_watermark_passes() {
        let mut se = engine_with(300);
        se.push(report(1_000, 10.0, 10.0));
        assert_eq!(se.buffered(), 1);
        assert_eq!(se.counters().released, 0);
        // Advancing event time past ts + bound releases the first record.
        se.push(report(1_400, 10.0, 10.1));
        assert_eq!(se.counters().released, 1);
        assert_eq!(se.buffered(), 1);
        se.drain_to_watermark();
        assert_eq!(se.counters().released, 1, "second record is not final yet");
    }

    #[test]
    fn out_of_order_within_bound_is_reordered_not_dropped() {
        let mut se = engine_with(300);
        se.push(report(1_000, 10.0, 10.0));
        se.push(report(1_200, 10.0, 10.1));
        // 120 s behind the newest — the simulator's corrupt-duplicate
        // shape. Must park, not drop.
        se.push(report(1_080, 10.0, 10.05));
        assert_eq!(se.counters().late_dropped, 0);
        assert_eq!(se.buffered(), 3);
    }

    #[test]
    fn late_beyond_bound_is_counted() {
        let mut se = engine_with(100);
        se.push(report(1_000, 10.0, 10.0));
        se.push(report(2_000, 10.0, 10.1)); // watermark 1900 releases ts 1000
        assert_eq!(se.counters().released, 1);
        se.push(report(500, 10.0, 10.0)); // behind the released frontier
        assert_eq!(se.counters().late_dropped, 1);
    }

    #[test]
    fn close_flushes_everything() {
        let mut se = engine_with(3_600);
        for i in 0..10 {
            se.push(report(i * 60, 10.0, 10.0 + i as f64 * 0.01));
        }
        assert_eq!(se.buffered(), 10);
        let out = se.close(&Engine::new(1)).unwrap();
        assert_eq!(out.counters.released, 10);
        assert_eq!(out.counters.late_dropped, 0);
        // No ports in the geofence: no trips, empty inventory.
        assert_eq!(out.counters.trips_finalized, 0);
        assert!(out.inventory.is_empty());
    }
}
