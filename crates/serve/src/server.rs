//! The concurrent TCP query server.
//!
//! One epoll event loop ([`crate::reactor`]) owns every socket, speaks
//! the length-prefixed protocol of [`crate::proto`] and answers the
//! constant-time requests ([`Request::runs_on_loop`]) where it stands; a
//! bounded [`pol_engine::ThreadPool`] executes the rest. Admission to the
//! pool is capped at `worker_threads + max_pending` requests: one over
//! the cap is answered with a typed [`Response::Busy`] frame instead of
//! queueing unboundedly — load sheds at the edge, it does not pile up.
//!
//! Graceful shutdown: [`Server::shutdown`] marks the server draining and
//! raises a stop flag the loop checks every tick; in-flight and
//! already-buffered requests are answered, idle connections close, and
//! the drain deadline bounds the rest.

use crate::mapped::MappedStore;
use crate::metrics::ServerMetrics;
use crate::proto::{
    encode_cells, encode_destinations, encode_eta, encode_response_body, Request, Response,
    DEFAULT_MAX_FRAME_BYTES, PROTO_VERSION, RESP_BATCH, RESP_SUMMARY,
};
use pol_apps::destination::DestinationPredictor;
use pol_apps::eta::{EtaEstimate, EtaEstimator};
use pol_core::codec::manifest::{self, ManifestEntry};
use pol_core::codec::{columnar, CodecError, SnapshotFormat};
use pol_core::features::GroupKey;
use pol_core::{Inventory, InventoryQuery};
use pol_engine::metrics::StageReport;
use pol_geo::{BBox, LatLon};
use pol_hexgrid::cell_at;
use pol_sketch::wire::{put_varint, varint_bytes};
use std::cell::RefCell;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for [`Server::start`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Request-execution worker threads.
    pub worker_threads: usize,
    /// Admitted-but-unserved requests tolerated beyond the workers
    /// before new arrivals are shed with [`Response::Busy`].
    pub max_pending: usize,
    /// How long a response may sit unflushed (the peer is not reading)
    /// before the connection is closed.
    pub write_timeout: Duration,
    /// Per-frame size cap, both directions.
    pub max_frame_bytes: usize,
    /// How long a draining connection keeps serving after shutdown is
    /// requested. In-flight and already-buffered requests are answered
    /// until the connection goes idle at a frame boundary or this
    /// deadline passes — whichever comes first.
    pub drain_timeout: Duration,
    /// Open-socket ceiling. Arrivals beyond it get a typed
    /// [`Response::Busy`] and a close.
    pub max_connections: usize,
    /// How long a frame may sit partially assembled before the
    /// connection is closed as stalled. The clock anchors to the frame's
    /// *first* byte, so a slow-loris peer dripping one byte per interval
    /// cannot keep resetting it.
    pub stall_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            worker_threads: 8,
            max_pending: 64,
            write_timeout: Duration::from_secs(5),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            drain_timeout: Duration::from_secs(2),
            max_connections: 50_000,
            stall_timeout: Duration::from_secs(30),
        }
    }
}

thread_local! {
    /// The cells of the scan this thread is answering: a pool worker
    /// sorts every scan's cells in the one buffer and encodes the reply
    /// from it.
    static SCAN_CELLS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The query-execution core: the mapped store and the metrics sink.
/// Shared by every request worker; also usable directly (without
/// sockets) for in-process querying and tests.
pub struct InventoryService {
    store: MappedStore,
    metrics: Arc<ServerMetrics>,
    /// The manifest entries the store's links were mapped from, base
    /// first; empty unless it was opened from a POLMAN2 chain. A later
    /// reload whose manifest extends these keeps their links.
    chain: Vec<ManifestEntry>,
}

impl InventoryService {
    /// Serves `inventory` encoded as POLINV4 in memory (stage
    /// `encode-open`): the reply a server over the saved file sends.
    pub fn new(inventory: Inventory, metrics: Arc<ServerMetrics>) -> Self {
        let started = Instant::now();
        let image = columnar::to_bytes(&inventory);
        // lint: allow(no_unwrap) — an image `to_bytes` wrote parses:
        // columnar's round-trip tests cover every inventory shape.
        let store = MappedStore::from_image(image).expect("an encoded inventory parses");
        let stage = ("encode-open", inventory.total_records(), 0);
        Self::opened(store, metrics, started, stage, Vec::new())
    }

    /// Opens a snapshot file, sniffing its format: a POLINV4 file is
    /// memory-mapped (validated, not deserialized), a POLMAN2 manifest's
    /// links are each mapped (the lineage goes to the `STATS` freshness
    /// fields), anything else is [`CodecError::BadHeader`]. The
    /// `ServerConfig` stays for the callers that pass one.
    pub fn open_snapshot(
        path: &Path,
        _config: &ServerConfig,
        metrics: Arc<ServerMetrics>,
    ) -> Result<Self, CodecError> {
        InventoryService::open_after(path, metrics, None)
    }

    /// [`open_snapshot`](Self::open_snapshot) for a hot reload: a manifest
    /// that extends the chain `served` was mapped from keeps its links and
    /// maps the new files (`chain-extend`); any other maps every link
    /// (`chain-load`); either folds past `MAX_LINKS` (`chain-fold`).
    fn open_after(
        path: &Path,
        metrics: Arc<ServerMetrics>,
        served: Option<&InventoryService>,
    ) -> Result<Self, CodecError> {
        let started = Instant::now();
        let (store, stage, chain) = match pol_core::codec::sniff_file(path)? {
            Some(SnapshotFormat::V4) => {
                let store = MappedStore::open(path)?;
                let records = store.total_records();
                (store, ("mmap-open", records, 0), Vec::new())
            }
            Some(SnapshotFormat::Manifest) => {
                let entries = manifest::load(path)?.entries;
                let kept = served.map_or(0, |s| manifest::kept_prefix(&s.chain, &entries));
                let kept_store = served.filter(|_| kept > 0).map(|s| &s.store);
                let new_links = entries.get(kept..).unwrap_or_default();
                let dir = path.parent().unwrap_or_else(|| Path::new("."));
                let kept_links = kept_store.map_or(0, MappedStore::links);
                let store = MappedStore::extend(kept_store, dir, new_links)?;
                let (name, kept_links) = match kept {
                    _ if store.links() < kept_links + new_links.len() => ("chain-fold", 0),
                    0 => ("chain-load", 0),
                    _ => ("chain-extend", kept_links),
                };
                (store, (name, new_links.len() as u64, kept_links), entries)
            }
            None => return Err(CodecError::BadHeader),
        };
        Ok(Self::opened(store, metrics, started, stage, chain))
    }

    /// A service over a store just opened: the open is a stage `(name,
    /// input, links kept)` whose output is the entries the open mapped or
    /// folded.
    fn opened(
        store: MappedStore,
        metrics: Arc<ServerMetrics>,
        started: Instant,
        (name, input_records, kept): (&str, u64, usize),
        chain: Vec<ManifestEntry>,
    ) -> Self {
        metrics.record_stage(StageReport {
            name: name.into(),
            input_records,
            output_records: store.link_entries().skip(kept).sum::<usize>() as u64,
            shuffled_records: 0,
            wall: started.elapsed(),
        });
        metrics.set_chain(
            chain.last().map_or(0, |e| e.generation),
            chain.len().max(1) as u64,
        );
        InventoryService {
            store,
            metrics,
            chain,
        }
    }

    /// The store the service answers from.
    pub fn store(&self) -> &MappedStore {
        &self.store
    }

    /// Executes one request. Invalid arguments (out-of-range coordinates,
    /// inverted boxes) yield [`Response::Error`], never a transport
    /// failure.
    pub fn execute(&self, req: &Request) -> Response {
        match req {
            Request::Ping => Response::Pong,
            Request::PointSummary { .. }
            | Request::SegmentSummary { .. }
            | Request::RouteSummary { .. } => match self.summary_key(req) {
                Some(key) => {
                    let summary = self.store.summary_at(&key);
                    Response::Summary(summary.and_then(|s| s.to_stats().ok()))
                }
                None => out_of_range(),
            },
            Request::BboxScan { .. } | Request::TopDestinationCells { .. } => self
                .scan(req, |cells| Response::Cells(cells.to_vec()))
                .unwrap_or_else(invalid_bbox),
            Request::Eta { .. } => self.eta(req).map_or_else(out_of_range, Response::Eta),
            Request::PredictDestination { top_n, .. } => match self.predict(req) {
                Some(predictor) => Response::Destinations(predictor.top(*top_n as usize)),
                None => track_out_of_range(),
            },
            Request::Stats => {
                // The metrics snapshot knows nothing about the store;
                // fill in its identity and its read counters.
                let mut report = self.metrics.snapshot();
                report.store = "mapped-columnar".into();
                let counters = self.store.counters();
                report.mapped_lookups = counters.lookups;
                report.mapped_scan_entries = counters.scan_entries;
                Response::Stats(report)
            }
            Request::Health => Response::Health(self.metrics.health()),
            Request::Ready => Response::Ready(!self.metrics.is_draining()),
            Request::Batch(children) => {
                // One BATCH frame = one Endpoint::Batch latency sample
                // (recorded by the caller); the children are accounted in
                // the batched_requests counter, not double-counted under
                // their own endpoints.
                self.metrics.add_batched(children.len() as u64);
                Response::Batch(children.iter().map(|child| self.execute(child)).collect())
            }
        }
    }

    /// Executes one request and appends its encoded reply payload to
    /// `out` — byte for byte `encode_response(&self.execute(req))`,
    /// which tests pin. This is the form the server sends: a summary
    /// goes out as the store holds it (a mapped link's stats bytes *are*
    /// the wire encoding; only a key several links hold is merged and
    /// encoded), so a summary lookup builds, clones and re-encodes
    /// nothing; a scan, an ETA and a prediction are encoded from where
    /// they were computed, with no `Response` built; and a batch answers
    /// its children the same way.
    pub fn execute_into(&self, req: &Request, out: &mut Vec<u8>) {
        out.push(PROTO_VERSION);
        self.reply_body(req, out);
    }

    /// Appends a reply's tag + body (no version byte).
    fn reply_body(&self, req: &Request, out: &mut Vec<u8>) {
        match req {
            Request::PointSummary { .. }
            | Request::SegmentSummary { .. }
            | Request::RouteSummary { .. } => match self.summary_key(req) {
                Some(key) => {
                    out.push(RESP_SUMMARY);
                    match self.store.summary_at(&key) {
                        None => out.push(0),
                        Some(summary) => {
                            out.push(1);
                            summary.encode(out);
                        }
                    }
                }
                None => encode_response_body(&out_of_range(), out),
            },
            Request::BboxScan { .. } | Request::TopDestinationCells { .. } => {
                if self.scan(req, |cells| encode_cells(cells, out)).is_none() {
                    encode_response_body(&invalid_bbox(), out);
                }
            }
            Request::Eta { .. } => match self.eta(req) {
                Some(estimate) => encode_eta(estimate.as_ref(), out),
                None => encode_response_body(&out_of_range(), out),
            },
            Request::PredictDestination { top_n, .. } => match self.predict(req) {
                Some(predictor) => {
                    predictor.with_top(*top_n as usize, |ranked| encode_destinations(ranked, out))
                }
                None => encode_response_body(&track_out_of_range(), out),
            },
            Request::Batch(children) => {
                self.metrics.add_batched(children.len() as u64);
                out.push(RESP_BATCH);
                put_varint(out, children.len() as u64);
                for child in children {
                    // A child's length goes before it and is known after
                    // it: the child is encoded where it will stay, behind
                    // one byte that the length's varint then replaces.
                    let len_at = out.len();
                    out.push(0);
                    self.reply_body(child, out);
                    let (len, width) = varint_bytes((out.len() - len_at - 1) as u64);
                    out.splice(len_at..=len_at, len.into_iter().take(width));
                }
            }
            other => encode_response_body(&self.execute(other), out),
        }
    }

    /// The group key a summary request reads; `None` when its
    /// coordinates are out of range (and for every other request kind).
    fn summary_key(&self, req: &Request) -> Option<GroupKey> {
        let cell = |lat: f64, lon: f64| {
            LatLon::new(lat, lon).map(|pos| cell_at(pos, self.store.resolution()))
        };
        match *req {
            Request::PointSummary { lat, lon } => cell(lat, lon).map(GroupKey::Cell),
            Request::SegmentSummary { lat, lon, segment } => {
                cell(lat, lon).map(|c| GroupKey::CellType(c, segment))
            }
            Request::RouteSummary {
                lat,
                lon,
                origin,
                dest,
                segment,
            } => cell(lat, lon).map(|c| GroupKey::CellRoute(c, origin, dest, segment)),
            _ => None,
        }
    }

    /// Answers an ETA request; `None` when its coordinates are out of
    /// range (and for every other request kind).
    fn eta(&self, req: &Request) -> Option<Option<EtaEstimate>> {
        let Request::Eta {
            lat,
            lon,
            segment,
            route,
        } = *req
        else {
            return None;
        };
        let pos = LatLon::new(lat, lon)?;
        Some(EtaEstimator::new(&self.store).estimate(pos, segment, route))
    }

    /// Replays a prediction request's track; `None` at its first
    /// coordinate out of range (and for every other request kind).
    fn predict(&self, req: &Request) -> Option<DestinationPredictor<'_, MappedStore>> {
        let Request::PredictDestination { segment, track, .. } = req else {
            return None;
        };
        let mut predictor = DestinationPredictor::new(&self.store, *segment);
        for (lat, lon) in track {
            predictor.observe(LatLon::new(*lat, *lon)?);
        }
        Some(predictor)
    }

    /// Answers a scan request: its cells, ascending, gathered and sorted
    /// in this thread's scratch, then handed to `reply` — so the typed
    /// and the appended form of the answer come from one store call and
    /// neither builds a list of its own. `None` for a bounding box that
    /// is not one (and for a request that is not a scan).
    fn scan<R>(&self, req: &Request, reply: impl FnOnce(&[u64]) -> R) -> Option<R> {
        SCAN_CELLS.with_borrow_mut(|cells| {
            match *req {
                Request::BboxScan {
                    min_lat,
                    min_lon,
                    max_lat,
                    max_lon,
                } => {
                    let bbox = BBox::new(min_lat, min_lon, max_lat, max_lon)?;
                    self.store.cells_in(&bbox, cells);
                }
                Request::TopDestinationCells { dest, segment } => {
                    self.store.cells_with_top_destination(dest, segment, cells);
                }
                _ => return None,
            }
            Some(reply(cells))
        })
    }
}

/// The typed error a summary request with impossible coordinates gets.
fn out_of_range() -> Response {
    Response::Error("coordinates out of range".into())
}

/// The typed error a prediction with an impossible track point gets.
fn track_out_of_range() -> Response {
    Response::Error("track coordinate out of range".into())
}

/// The typed error a scan of an inverted or out-of-range box gets.
fn invalid_bbox() -> Response {
    Response::Error("invalid bounding box".into())
}

/// A running server. Dropping it shuts it down.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    loop_handle: Option<JoinHandle<()>>,
    metrics: Arc<ServerMetrics>,
    service: Arc<RwLock<Arc<InventoryService>>>,
}

impl Server {
    /// Starts serving `inventory` ([`InventoryService::new`]) on `addr`
    /// (use port 0 for an ephemeral port; the bound address is available from
    /// [`Server::local_addr`]). Fails with the underlying `io::Error` when
    /// the bind or the event loop's epoll/eventfd setup fails, and with
    /// [`io::ErrorKind::Unsupported`] on platforms without epoll.
    pub fn start<A: ToSocketAddrs>(
        inventory: Inventory,
        addr: A,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let metrics = Arc::new(ServerMetrics::new());
        let service = InventoryService::new(inventory, Arc::clone(&metrics));
        Server::start_with_service(service, metrics, addr, config)
    }

    /// Starts serving straight off a snapshot file, sniffing its format
    /// like [`InventoryService::open_snapshot`]: POLINV4 is memory-mapped
    /// zero-copy (validate, don't deserialize), a POLMAN2 chain is mapped
    /// link by link. This is the cold-start path `polinv serve` uses.
    pub fn start_snapshot<A: ToSocketAddrs>(
        path: &Path,
        addr: A,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let metrics = Arc::new(ServerMetrics::new());
        let service = InventoryService::open_snapshot(path, &config, Arc::clone(&metrics))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Server::start_with_service(service, metrics, addr, config)
    }

    fn start_with_service<A: ToSocketAddrs>(
        service: InventoryService,
        metrics: Arc<ServerMetrics>,
        addr: A,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let service = Arc::new(RwLock::new(Arc::new(service)));
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let loop_handle = crate::reactor::spawn(
            listener,
            Arc::clone(&service),
            config,
            Arc::clone(&stop),
            Arc::clone(&metrics),
        )?;
        Ok(Server {
            addr: local,
            stop,
            loop_handle: Some(loop_handle),
            metrics,
            service,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's live counters.
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Hot-swaps the served snapshot for `inventory` without dropping a
    /// single connection: an atomic `Arc` swap makes it the live
    /// snapshot. Requests already executing finish on the old snapshot
    /// (their clone keeps it alive); every frame decoded after the swap
    /// sees the new one. The generation counter in `STATS`/`HEALTH`
    /// advances. Any chain a previous [`reload_from`](Self::reload_from)
    /// remembered is forgotten: the next manifest maps every link.
    pub fn reload(&self, inventory: Inventory) {
        let fresh = InventoryService::new(inventory, Arc::clone(&self.metrics));
        *self.service.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(fresh);
        self.metrics.reload_succeeded();
    }

    /// Hot-reloads the snapshot from an inventory file, sniffing its
    /// format like [`Server::start_snapshot`]. When a manifest extends the
    /// served chain — the served entries are a strict, field-for-field
    /// prefix of it — the served links are kept and only the new files
    /// are mapped and checked (length, layout, content check,
    /// resolution); any other manifest maps every link. Nothing is
    /// decoded or copied, unless the store would hold more than
    /// [`MAX_LINKS`](crate::mapped::MAX_LINKS) links: then they are
    /// folded into one. A corrupt, truncated, swapped or unreadable
    /// file is rejected *before* anything is swapped: `reloads_failed`
    /// advances and the previous snapshot, and the chain it remembers,
    /// keep serving.
    pub fn reload_from(&self, path: &Path) -> Result<(), CodecError> {
        let served = Arc::clone(&self.service.read().unwrap_or_else(PoisonError::into_inner));
        match InventoryService::open_after(path, Arc::clone(&self.metrics), Some(&served)) {
            Ok(service) => {
                *self.service.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(service);
                self.metrics.reload_succeeded();
                Ok(())
            }
            Err(e) => {
                self.metrics.reload_failed();
                Err(e)
            }
        }
    }

    /// Stops accepting, drains in-flight connections, joins all threads.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        if !self.stop.swap(true, Ordering::Relaxed) {
            // Mark the server draining first so READY flips before the
            // listener goes away, then poke the listener so the loop sees
            // the flag now rather than at its next tick.
            self.metrics.set_draining();
            let _ = std::net::TcpStream::connect(self.addr);
        }
        if let Some(handle) = self.loop_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_core::features::{CellStats, GroupKey};
    use pol_sketch::hash::FxHashMap;

    fn empty_inventory() -> Inventory {
        let entries: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
        Inventory::from_entries(pol_hexgrid::Resolution::new(6).unwrap(), entries, 0)
    }

    #[test]
    fn invalid_arguments_yield_typed_errors() {
        let svc = InventoryService::new(empty_inventory(), Arc::new(ServerMetrics::new()));
        for req in [
            Request::PointSummary {
                lat: 95.0,
                lon: 0.0,
            },
            Request::BboxScan {
                min_lat: 10.0,
                min_lon: 0.0,
                max_lat: -10.0,
                max_lon: 5.0,
            },
            Request::Eta {
                lat: 0.0,
                lon: 999.0,
                segment: None,
                route: None,
            },
            Request::PredictDestination {
                segment: None,
                top_n: 1,
                track: vec![(200.0, 0.0)],
            },
        ] {
            assert!(
                matches!(svc.execute(&req), Response::Error(_)),
                "{req:?} should be rejected"
            );
        }
    }

    #[test]
    fn stats_request_reports_stage_accounting() {
        let dir = std::env::temp_dir().join(format!("pol-serve-stage-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inv.pol");
        pol_core::codec::columnar::save(&empty_inventory(), &path).unwrap();
        let cfg = ServerConfig::default();
        let svc =
            InventoryService::open_snapshot(&path, &cfg, Arc::new(ServerMetrics::new())).unwrap();
        match svc.execute(&Request::Stats) {
            Response::Stats(report) => {
                assert!(report.stages.contains("mmap-open"));
                assert_eq!(report.store, "mapped-columnar");
            }
            other => panic!("expected stats, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
