//! End-to-end loopback tests: a real server on an ephemeral port, driven
//! by concurrent clients, with every response checked against the answer
//! computed directly on the `Inventory`. Also covers the
//! operational contracts: backpressure (`Busy`), malformed-frame
//! rejection, frame-size caps, and clean shutdown with clients attached.

use pol_ais::types::{MarketSegment, Mmsi};
use pol_apps::destination::DestinationPredictor;
use pol_apps::eta::EtaEstimator;
use pol_core::codec::encode_cell_stats;
use pol_core::features::{CellStats, GroupKey};
use pol_core::records::{CellPoint, TripPoint};
use pol_core::Inventory;
use pol_geo::{BBox, LatLon};
use pol_hexgrid::{cell_at, CellIndex, Resolution};
use pol_serve::proto::{read_frame, write_frame, ProtoError, Request, Response, PROTO_VERSION};
use pol_serve::{Client, ClientError, Server, ServerConfig};
use pol_sketch::hash::FxHashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

mod oracle;

fn res() -> Resolution {
    Resolution::new(6).unwrap()
}

/// A deterministic inventory with traffic in all three grouping sets.
fn sample_inventory(n: usize) -> Inventory {
    let mut entries: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
    for i in 0..n {
        let pos = LatLon::new(-55.0 + (i % 111) as f64, -170.0 + (i % 340) as f64).unwrap();
        let cell = cell_at(pos, res());
        let cp = CellPoint {
            point: TripPoint {
                mmsi: Mmsi(1 + (i % 9) as u32),
                timestamp: i as i64 * 60,
                pos,
                sog_knots: Some(8.0 + (i % 14) as f64),
                cog_deg: Some((i * 37 % 360) as f64),
                heading_deg: Some((i * 41 % 360) as f64),
                segment: MarketSegment::from_id((i % 7) as u8).unwrap(),
                trip_id: (i % 13) as u64,
                origin: (i % 6) as u16,
                dest: (i % 8) as u16,
                eto_secs: i as i64 * 45,
                ata_secs: (n - i) as i64 * 45,
            },
            cell,
            next_cell: None,
        };
        for key in [
            GroupKey::Cell(cell),
            GroupKey::CellType(cell, cp.point.segment),
            GroupKey::CellRoute(cell, cp.point.origin, cp.point.dest, cp.point.segment),
        ] {
            entries
                .entry(key)
                .or_insert_with(|| CellStats::new(0.02, 8))
                .observe(&cp);
        }
    }
    Inventory::from_entries(res(), entries, n as u64)
}

/// CellStats has no `PartialEq`; its canonical encoding is deterministic,
/// so equality-by-encoded-bytes is exact.
fn stats_bytes(stats: Option<&CellStats>) -> Option<Vec<u8>> {
    stats.map(|s| {
        let mut out = Vec::new();
        encode_cell_stats(s, &mut out);
        out
    })
}

/// The summaries a batch of summary requests answers, in request order.
fn batch_summaries(client: &mut Client, requests: &[Request]) -> Vec<Option<CellStats>> {
    let replies = client.batch(requests).unwrap();
    assert_eq!(replies.len(), requests.len());
    replies
        .into_iter()
        .map(|reply| match reply {
            Response::Summary(s) => s,
            other => panic!("wanted Summary, got {other:?}"),
        })
        .collect()
}

fn test_config() -> ServerConfig {
    ServerConfig {
        worker_threads: 6,
        ..ServerConfig::default()
    }
}

/// Every request type, from 4 concurrent client threads, each answer
/// compared against the direct `Inventory` computation.
#[test]
fn concurrent_responses_equal_direct_inventory_queries() {
    const N: usize = 600;
    let reference = Arc::new(sample_inventory(N));
    let mut server = Server::start(sample_inventory(N), "127.0.0.1:0", test_config()).unwrap();
    let addr = server.local_addr();

    std::thread::scope(|s| {
        for tid in 0..4usize {
            let reference = Arc::clone(&reference);
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.ping().unwrap();
                for j in 0..40usize {
                    let i = tid * 40 + j;
                    let pos =
                        LatLon::new(-55.0 + (i % 111) as f64, -170.0 + (i % 340) as f64).unwrap();
                    let cell = cell_at(pos, res());
                    let seg = MarketSegment::from_id((i % 7) as u8).unwrap();
                    let (origin, dest) = ((i % 6) as u16, (i % 8) as u16);

                    let got = client.point_summary(pos.lat(), pos.lon()).unwrap();
                    assert_eq!(
                        stats_bytes(got.as_ref()),
                        stats_bytes(reference.summary(cell)),
                        "point {i}"
                    );

                    let got = client.segment_summary(pos.lat(), pos.lon(), seg).unwrap();
                    assert_eq!(
                        stats_bytes(got.as_ref()),
                        stats_bytes(reference.summary_for(cell, seg)),
                        "segment {i}"
                    );

                    let got = client
                        .route_summary(pos.lat(), pos.lon(), origin, dest, seg)
                        .unwrap();
                    assert_eq!(
                        stats_bytes(got.as_ref()),
                        stats_bytes(reference.summary_route(cell, origin, dest, seg)),
                        "route {i}"
                    );

                    let (lo_lat, lo_lon) = (pos.lat() - 4.0, pos.lon().max(-175.0) - 4.0);
                    let bbox = BBox::new(lo_lat, lo_lon, lo_lat + 8.0, lo_lon + 8.0).unwrap();
                    let got = client
                        .bbox_scan(lo_lat, lo_lon, lo_lat + 8.0, lo_lon + 8.0)
                        .unwrap();
                    let mut want: Vec<u64> =
                        reference.cells_in(&bbox).iter().map(|c| c.raw()).collect();
                    want.sort_unstable();
                    assert_eq!(got, want, "bbox {i}");

                    let got = client.top_destination_cells(dest, Some(seg)).unwrap();
                    let mut want: Vec<u64> = reference
                        .cells_with_top_destination(dest, Some(seg))
                        .iter()
                        .map(|c| c.raw())
                        .collect();
                    want.sort_unstable();
                    assert_eq!(got, want, "top-dest {i}");

                    let got = client
                        .eta(pos.lat(), pos.lon(), Some(seg), Some((origin, dest)))
                        .unwrap();
                    let want = EtaEstimator::new(reference.as_ref()).estimate(
                        pos,
                        Some(seg),
                        Some((origin, dest)),
                    );
                    assert_eq!(got, want, "eta {i}");

                    let track: Vec<(f64, f64)> = (0..5)
                        .map(|k| {
                            let p = LatLon::new(
                                -55.0 + ((i + k) % 111) as f64,
                                -170.0 + ((i + k) % 340) as f64,
                            )
                            .unwrap();
                            (p.lat(), p.lon())
                        })
                        .collect();
                    let got = client.predict_destination(None, 3, track.clone()).unwrap();
                    let mut predictor = DestinationPredictor::new(reference.as_ref(), None);
                    for (lat, lon) in &track {
                        predictor.observe(LatLon::new(*lat, *lon).unwrap());
                    }
                    assert_eq!(got, predictor.top(3), "predict {i}");
                }
            });
        }
    });

    let stats = server.metrics().snapshot();
    assert!(
        stats.total_requests >= 4 * 40 * 7,
        "{}",
        stats.total_requests
    );
    assert_eq!(stats.connections, 4);
    assert_eq!(stats.malformed_frames, 0);
    server.shutdown();
}

/// The `STATS` endpoint reflects traffic and the snapshot-open stage.
#[test]
fn stats_endpoint_reports_counters_and_stages() {
    let dir = std::env::temp_dir().join(format!("pol-serve-stats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("inv.pol");
    pol_core::codec::columnar::save(&sample_inventory(50), &path).unwrap();
    let mut server = Server::start_snapshot(&path, "127.0.0.1:0", test_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.ping().unwrap();
    client.point_summary(10.0, 10.0).unwrap();
    let report = client.stats().unwrap();
    assert!(report.total_requests >= 2);
    assert_eq!(report.connections, 1);
    assert!(report.stages.contains("mmap-open"));
    assert!(report
        .endpoints
        .iter()
        .any(|e| e.endpoint == pol_serve::Endpoint::PointSummary && e.count == 1));
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The one connection-level shed: an arrival over `max_connections` gets
/// a typed `Busy` frame and a close, the connection already attached
/// keeps answering, and the slot frees when it leaves. (Per-*request*
/// shedding is covered by the chaos suite's
/// `reactor_sheds_at_the_loop_and_keeps_the_connection`.)
#[test]
fn connections_over_the_ceiling_are_rejected_with_busy() {
    let config = ServerConfig {
        max_connections: 1,
        ..test_config()
    };
    let mut server = Server::start(sample_inventory(20), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    let mut first = Client::connect(addr).unwrap();
    first.ping().unwrap(); // guarantees the connection is registered
    let mut second = Client::connect(addr).unwrap();
    match second.ping() {
        Err(ClientError::ServerBusy) => {}
        other => panic!("expected ServerBusy, got {other:?}"),
    }
    // The client retries Busy on fresh connections before giving up, so
    // every attempt lands one rejection — none of them at the loop.
    let snap = server.metrics().snapshot();
    assert!(snap.busy_rejections >= 1);
    assert_eq!(snap.shed_at_loop, 0);
    first.ping().unwrap();

    // Releasing the first connection frees the slot for a new client.
    drop(first);
    let metrics = server.metrics();
    let deadline = Instant::now() + Duration::from_secs(3);
    while metrics.open_connections() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut third = Client::connect(addr).unwrap();
    third.ping().unwrap();
    server.shutdown();
}

/// A frame that fails to decode gets one typed error and the socket.
#[test]
fn malformed_frame_answered_then_disconnected() {
    let mut server = Server::start(sample_inventory(20), "127.0.0.1:0", test_config()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    write_frame(&mut stream, &[PROTO_VERSION, 250]).unwrap(); // unknown tag
    stream.flush().unwrap();
    let reply = read_frame(&mut stream, 1 << 20).unwrap();
    match pol_serve::proto::decode_response(&reply).unwrap() {
        Response::Error(msg) => assert!(msg.contains("tag"), "{msg}"),
        other => panic!("expected Error, got {other:?}"),
    }
    // The server closes after a malformed frame.
    match read_frame(&mut stream, 1 << 20) {
        Err(ProtoError::ConnectionClosed) | Err(ProtoError::Io(_)) => {}
        other => panic!("expected closed connection, got {other:?}"),
    }
    assert_eq!(server.metrics().snapshot().malformed_frames, 1);
    server.shutdown();
}

/// A declared frame length over the cap is rejected without allocating it.
#[test]
fn oversized_frame_rejected() {
    let mut server = Server::start(sample_inventory(20), "127.0.0.1:0", test_config()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let huge = (1u32 << 30).to_le_bytes();
    stream.write_all(&huge).unwrap();
    stream.flush().unwrap();
    let reply = read_frame(&mut stream, 1 << 20).unwrap();
    match pol_serve::proto::decode_response(&reply).unwrap() {
        Response::Error(msg) => assert!(msg.contains("exceeds"), "{msg}"),
        other => panic!("expected Error, got {other:?}"),
    }
    server.shutdown();
}

/// Shutdown drains cleanly with a client still attached, and the port
/// stops answering.
#[test]
fn shutdown_is_clean_and_idempotent() {
    let mut server = Server::start(sample_inventory(20), "127.0.0.1:0", test_config()).unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    server.shutdown();
    server.shutdown(); // idempotent
                       // The attached client's next request fails: connection drained.
    client
        .set_read_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    assert!(client.ping().is_err());
}

/// Requests round-trip through a real socket even when split into
/// byte-sized writes (exercises the server's frame accumulator).
#[test]
fn fragmented_request_is_reassembled() {
    let mut server = Server::start(sample_inventory(50), "127.0.0.1:0", test_config()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let payload = pol_serve::proto::encode_request(&Request::Ping);
    let mut framed = Vec::new();
    write_frame(&mut framed, &payload).unwrap();
    for b in framed {
        stream.write_all(&[b]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let reply = read_frame(&mut stream, 1 << 20).unwrap();
    assert!(matches!(
        pol_serve::proto::decode_response(&reply).unwrap(),
        Response::Pong
    ));
    server.shutdown();
}

/// A request whose bytes were accepted before shutdown gets its answer:
/// the draining server serves the in-flight frame instead of resetting
/// the connection.
#[test]
fn shutdown_drains_in_flight_requests() {
    let config = ServerConfig {
        worker_threads: 2,
        drain_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let mut server = Server::start(sample_inventory(50), "127.0.0.1:0", config).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();

    // Deliver the first half of a Ping frame, so shutdown finds this
    // connection mid-request.
    let payload = pol_serve::proto::encode_request(&Request::Ping);
    let mut framed = Vec::new();
    write_frame(&mut framed, &payload).unwrap();
    let split = framed.len() / 2;
    stream.write_all(&framed[..split]).unwrap();
    stream.flush().unwrap();

    let finisher = std::thread::spawn(move || {
        // Let shutdown begin, then complete the frame and collect the
        // answer the drain owes us.
        std::thread::sleep(Duration::from_millis(150));
        stream.write_all(&framed[split..]).unwrap();
        stream.flush().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(3)))
            .unwrap();
        let reply = read_frame(&mut stream, 1 << 20).expect("drained request must be answered");
        assert!(matches!(
            pol_serve::proto::decode_response(&reply).unwrap(),
            Response::Pong
        ));
    });
    std::thread::sleep(Duration::from_millis(50)); // frame half-delivered
    server.shutdown();
    finisher.join().unwrap();
}

/// `HEALTH` and `READY` report the live generation and flip on reload.
#[test]
fn health_ready_and_hot_reload() {
    let reference = Arc::new(sample_inventory(300));
    let mut server = Server::start(sample_inventory(50), "127.0.0.1:0", test_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let health = client.health().unwrap();
    assert!(health.healthy && !health.draining);
    assert_eq!(health.generation, 1);
    assert!(client.ready().unwrap());

    // Hot-swap to a bigger snapshot; the attached client sees the new
    // data on its very next request, same connection.
    server.reload(sample_inventory(300));
    let health = client.health().unwrap();
    assert_eq!(health.generation, 2);
    let pos = LatLon::new(-50.0, -160.0).unwrap();
    let cell = cell_at(pos, res());
    let got = client.point_summary(pos.lat(), pos.lon()).unwrap();
    assert_eq!(
        stats_bytes(got.as_ref()),
        stats_bytes(reference.summary(cell)),
        "post-reload answers must come from the new snapshot"
    );
    let report = client.stats().unwrap();
    assert_eq!(report.generation, 2);
    assert_eq!(report.reloads_ok, 1);
    assert_eq!(report.reloads_failed, 0);
    server.shutdown();
}

/// `reload_from` on a corrupt file keeps the old snapshot serving.
#[test]
fn corrupt_reload_is_rejected_and_old_snapshot_survives() {
    use pol_core::codec::columnar;
    let dir = std::env::temp_dir().join("pol-serve-reload-test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let reference = Arc::new(sample_inventory(50));
    let mut server = Server::start(sample_inventory(50), "127.0.0.1:0", test_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let mut bytes = columnar::to_bytes(&sample_inventory(300));
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01; // bit rot
    let path = dir.join("corrupt.pol");
    std::fs::write(&path, &bytes).unwrap();
    assert!(server.reload_from(&path).is_err());

    // Old snapshot still answers, generation unmoved, failure accounted.
    let pos = LatLon::new(-50.0, -160.0).unwrap();
    let cell = cell_at(pos, res());
    let got = client.point_summary(pos.lat(), pos.lon()).unwrap();
    assert_eq!(
        stats_bytes(got.as_ref()),
        stats_bytes(reference.summary(cell))
    );
    let report = client.stats().unwrap();
    assert_eq!(report.generation, 1);
    assert_eq!(report.reloads_failed, 1);

    // A clean file lands.
    let clean = dir.join("clean.pol");
    columnar::save(&sample_inventory(300), &clean).unwrap();
    server.reload_from(&clean).unwrap();
    assert_eq!(client.stats().unwrap().generation, 2);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A server started from a POLINV4 snapshot (zero-copy mapped
/// backend) answers every endpoint exactly like the heap-backed server
/// over the same data, and reports the mapped store through `STATS`.
#[test]
fn mmap_snapshot_server_equals_heap_server() {
    use pol_core::codec::columnar;
    const N: usize = 400;
    let dir = std::env::temp_dir().join(format!("pol-serve-mmap-loop-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let v3_path = dir.join("inv.pol3");
    columnar::save(&sample_inventory(N), &v3_path).unwrap();

    let mut heap_server = Server::start(sample_inventory(N), "127.0.0.1:0", test_config()).unwrap();
    let mut mmap_server = Server::start_snapshot(&v3_path, "127.0.0.1:0", test_config()).unwrap();
    let mut on_heap = Client::connect(heap_server.local_addr()).unwrap();
    let mut on_mmap = Client::connect(mmap_server.local_addr()).unwrap();

    for i in 0..60usize {
        let pos = LatLon::new(-55.0 + (i % 111) as f64, -170.0 + (i % 340) as f64).unwrap();
        let seg = MarketSegment::from_id((i % 7) as u8).unwrap();
        let (origin, dest) = ((i % 6) as u16, (i % 8) as u16);

        let a = on_mmap.point_summary(pos.lat(), pos.lon()).unwrap();
        let b = on_heap.point_summary(pos.lat(), pos.lon()).unwrap();
        assert_eq!(
            stats_bytes(a.as_ref()),
            stats_bytes(b.as_ref()),
            "point {i}"
        );

        let a = on_mmap
            .route_summary(pos.lat(), pos.lon(), origin, dest, seg)
            .unwrap();
        let b = on_heap
            .route_summary(pos.lat(), pos.lon(), origin, dest, seg)
            .unwrap();
        assert_eq!(
            stats_bytes(a.as_ref()),
            stats_bytes(b.as_ref()),
            "route {i}"
        );

        let (lo_lat, lo_lon) = (pos.lat() - 4.0, pos.lon().max(-175.0) - 4.0);
        let a = on_mmap
            .bbox_scan(lo_lat, lo_lon, lo_lat + 8.0, lo_lon + 8.0)
            .unwrap();
        let b = on_heap
            .bbox_scan(lo_lat, lo_lon, lo_lat + 8.0, lo_lon + 8.0)
            .unwrap();
        assert_eq!(a, b, "bbox {i}");

        let a = on_mmap.top_destination_cells(dest, Some(seg)).unwrap();
        let b = on_heap.top_destination_cells(dest, Some(seg)).unwrap();
        assert_eq!(a, b, "top-dest {i}");

        let a = on_mmap
            .eta(pos.lat(), pos.lon(), Some(seg), Some((origin, dest)))
            .unwrap();
        let b = on_heap
            .eta(pos.lat(), pos.lon(), Some(seg), Some((origin, dest)))
            .unwrap();
        assert_eq!(a, b, "eta {i}");
    }

    // Both serve through the mapped store, which counts its work; the
    // in-process inventory was encoded first.
    for (client, opened) in [(&mut on_mmap, "mmap-open"), (&mut on_heap, "encode-open")] {
        let report = client.stats().unwrap();
        assert_eq!(report.store, "mapped-columnar");
        assert!(report.mapped_lookups > 0);
        assert!(report.mapped_scan_entries > 0);
        assert!(report.stages.contains(opened), "{}", report.stages);
    }

    heap_server.shutdown();
    mmap_server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A batch frame answers exactly like the same requests sent
/// one frame at a time, children are accounted separately from frames,
/// and oversized batches are refused client-side.
#[test]
fn batched_requests_equal_single_requests() {
    use pol_serve::proto::Request as Req;
    let reference = Arc::new(sample_inventory(300));
    let mut server = Server::start(sample_inventory(300), "127.0.0.1:0", test_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Mixed batch via the raw API: each child answer must match the
    // direct inventory computation.
    let positions: Vec<(f64, f64)> = (0..20usize)
        .map(|i| {
            let p = LatLon::new(-55.0 + (i % 111) as f64, -170.0 + (i % 340) as f64).unwrap();
            (p.lat(), p.lon())
        })
        .collect();
    let batch: Vec<Req> = positions
        .iter()
        .map(|(lat, lon)| Req::PointSummary {
            lat: *lat,
            lon: *lon,
        })
        .chain([Req::Ping])
        .collect();
    let replies = client.batch(&batch).unwrap();
    assert_eq!(replies.len(), positions.len() + 1);
    assert!(matches!(replies.first(), Some(Response::Summary(_))));
    assert!(matches!(replies.last(), Some(Response::Pong)));

    // Batched point summaries == singles, byte for byte.
    let batched = batch_summaries(&mut client, &batch[..positions.len()]);
    for (i, (lat, lon)) in positions.iter().enumerate() {
        let single = client.point_summary(*lat, *lon).unwrap();
        assert_eq!(
            stats_bytes(batched[i].as_ref()),
            stats_bytes(single.as_ref()),
            "batched point {i}"
        );
        let cell = cell_at(LatLon::new(*lat, *lon).unwrap(), res());
        assert_eq!(
            stats_bytes(batched[i].as_ref()),
            stats_bytes(reference.summary(cell)),
            "batched point vs direct {i}"
        );
    }

    // Batched route summaries == singles.
    let seg = MarketSegment::from_id(3).unwrap();
    let routes: Vec<Req> = positions
        .iter()
        .map(|&(lat, lon)| Req::RouteSummary {
            lat,
            lon,
            origin: 2,
            dest: 5,
            segment: seg,
        })
        .collect();
    let routed = batch_summaries(&mut client, &routes);
    for (i, (lat, lon)) in positions.iter().enumerate() {
        let single = client.route_summary(*lat, *lon, 2, 5, seg).unwrap();
        assert_eq!(
            stats_bytes(routed[i].as_ref()),
            stats_bytes(single.as_ref()),
            "batched route {i}"
        );
    }

    // Accounting: one Batch frame per call, children under
    // batched_requests (never double-counted per endpoint).
    let report = client.stats().unwrap();
    assert!(report.batched_requests >= (positions.len() + 1) as u64 + 2 * positions.len() as u64);
    assert!(report
        .endpoints
        .iter()
        .any(|e| e.endpoint == pol_serve::Endpoint::Batch && e.count >= 3));

    // An over-long batch is refused before touching the wire.
    let oversized = vec![Req::Ping; pol_serve::MAX_BATCH + 1];
    assert!(matches!(
        client.batch(&oversized),
        Err(ClientError::Unexpected(_))
    ));
    // The connection is still healthy afterwards.
    client.ping().unwrap();
    server.shutdown();
}

/// The reactor's event-loop counters are live: an attached connection
/// shows in the gauge, readiness events accumulate under traffic,
/// eventfd wakeups under pool traffic only (a request the loop answers
/// itself crosses no thread), and the gauge returns to zero when the
/// peer leaves.
#[test]
fn reactor_core_event_counters_are_live() {
    let mut server = Server::start(sample_inventory(50), "127.0.0.1:0", test_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for _ in 0..10 {
        client.ping().unwrap();
    }
    assert_eq!(
        server.metrics().snapshot().wakeups,
        0,
        "a ping must not wake anyone"
    );
    client.bbox_scan(-10.0, -10.0, 10.0, 10.0).unwrap();
    let report = client.stats().unwrap();
    assert_eq!(report.open_connections, 1);
    assert!(report.peak_connections >= 1);
    assert!(report.ready_events > 0, "no readiness events recorded");
    assert_eq!(report.shed_at_loop, 0);
    // The scan's completion wakes the loop through the eventfd, and the
    // loop may answer STATS from the same `epoll_wait` batch before it
    // counts that wakeup: wait for the counter rather than race it.
    let metrics = server.metrics();
    let deadline = Instant::now() + Duration::from_secs(3);
    while metrics.snapshot().wakeups == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        metrics.snapshot().wakeups > 0,
        "no eventfd wakeups recorded"
    );
    drop(client);
    let deadline = Instant::now() + Duration::from_secs(3);
    while metrics.open_connections() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        metrics.open_connections(),
        0,
        "gauge must return to zero after the peer disconnects"
    );
    server.shutdown();
}

/// A client that pipelines a burst of requests and only starts reading
/// later gets every response, intact and in order: the reactor buffers
/// responses per connection and re-arms `EPOLLOUT` until they drain.
#[test]
fn pipelined_responses_survive_a_lazy_reader() {
    let mut server = Server::start(sample_inventory(50), "127.0.0.1:0", test_config()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let payload = pol_serve::proto::encode_request(&Request::Ping);
    let mut framed = Vec::new();
    write_frame(&mut framed, &payload).unwrap();
    const BURST: usize = 16;
    for _ in 0..BURST {
        stream.write_all(&framed).unwrap();
    }
    stream.flush().unwrap();
    // Stay lazy: let the responses pile up server-side before reading.
    std::thread::sleep(Duration::from_millis(300));
    stream
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    for i in 0..BURST {
        let reply = read_frame(&mut stream, 1 << 20).unwrap();
        assert!(
            matches!(
                pol_serve::proto::decode_response(&reply).unwrap(),
                Response::Pong
            ),
            "pipelined reply {i}"
        );
    }
    server.shutdown();
}

/// A peer that pipelines and never reads is held by backpressure, not
/// buffered: once a frame's worth of replies is owed the loop stops
/// reading that socket, so the outbox stays by the mark however much the
/// peer goes on to write — and when it does read, every reply is there,
/// in order.
#[test]
fn a_peer_that_never_reads_is_bounded_by_backpressure_and_loses_nothing() {
    use pol_serve::proto::{decode_response, DEFAULT_MAX_FRAME_BYTES};
    const N: usize = 400;
    const LOOKUPS: usize = 100_000;
    let mark = DEFAULT_MAX_FRAME_BYTES as u64;
    let config = ServerConfig {
        write_timeout: Duration::from_secs(60),
        ..test_config()
    };
    let inventory = sample_inventory(N);
    // Two occupied cells, alternating, so a reply out of place shows.
    let pair = [7.0, 8.0].map(|i| Request::PointSummary {
        lat: -55.0 + i,
        lon: -170.0 + i,
    });
    let expected = pair.each_ref().map(|req| {
        let reply = oracle::reply(&inventory, req);
        assert!(matches!(
            decode_response(&reply),
            Ok(Response::Summary(Some(_)))
        ));
        reply
    });
    assert_ne!(expected[0], expected[1]);

    let mut server = Server::start(sample_inventory(N), "127.0.0.1:0", config).unwrap();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut writing = stream.try_clone().unwrap();
    let burst = burst_of(&pair).repeat(LOOKUPS / 2);
    let writer = std::thread::spawn(move || writing.write_all(&burst));

    // Not reading: the outbox reaches the mark and stops there, although
    // the replies to what the peer has written would be tens of megabytes.
    let metrics = server.metrics();
    let high_water = || metrics.snapshot().write_buffer_high_water;
    let deadline = Instant::now() + Duration::from_secs(10);
    while high_water() < mark && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(300));
    assert!((mark..2 * mark).contains(&high_water()), "{}", high_water());

    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut stream = std::io::BufReader::with_capacity(1 << 16, stream);
    for i in 0..LOOKUPS {
        let reply = read_frame(&mut stream, 1 << 20).unwrap();
        assert!(reply == expected[i % 2], "reply {i} out of place");
    }
    writer.join().unwrap().unwrap();
    assert!(high_water() < 2 * mark, "{}", high_water());
    server.shutdown();
}

/// A slow-loris peer — one that declares a frame and then drips bytes
/// forever — is cut off by the frame-assembly deadline (anchored to the
/// frame's first byte, so the drip cannot keep resetting it) without
/// ever stalling the other clients.
#[test]
fn slow_loris_is_cut_off_without_stalling_others() {
    let config = ServerConfig {
        stall_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let mut server = Server::start(sample_inventory(50), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    // The loris declares a 100-byte frame, then feeds it one byte at a
    // time — each drip prompt, the whole frame far beyond the stall
    // deadline.
    let mut loris = TcpStream::connect(addr).unwrap();
    loris.set_nodelay(true).unwrap();
    loris.write_all(&(100u32).to_le_bytes()).unwrap();
    loris.flush().unwrap();

    let mut healthy = Client::connect(addr).unwrap();
    let started = Instant::now();
    let mut cut_off = false;
    while started.elapsed() < Duration::from_secs(5) {
        // Other clients are served the whole time.
        healthy.ping().unwrap();
        if loris.write_all(&[0]).and_then(|()| loris.flush()).is_err() {
            cut_off = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(30));
    }
    assert!(cut_off, "slow-loris connection evaded the stall deadline");
    healthy.ping().unwrap();
    server.shutdown();
}

/// `CellIndex::from_raw` accepts every index a bbox scan returns (the
/// wire sends raw u64s; clients must be able to reconstruct them).
#[test]
fn scanned_cells_reconstruct_as_valid_indices() {
    let mut server = Server::start(sample_inventory(200), "127.0.0.1:0", test_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let cells = client.bbox_scan(-89.0, -179.0, 89.0, 179.0).unwrap();
    assert!(!cells.is_empty());
    for raw in cells {
        CellIndex::from_raw(raw).unwrap();
    }
    server.shutdown();
}

/// The streaming-ingestion serving contract: reloading a POLMAN1 delta
/// chain under sustained concurrent load drops no in-flight query and
/// never returns a wrong answer — every response matches either the
/// pre-reload chain or the post-reload one, and once `reload_from`
/// returns, fresh requests see the extended chain with its lineage in
/// the `STATS` freshness fields.
#[test]
fn delta_chain_hot_reload_under_load_loses_no_query() {
    use pol_core::codec::manifest::{Manifest, ManifestEntry};
    use pol_core::codec::{columnar, save_bytes};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    let dir = std::env::temp_dir().join("pol-serve-chain-reload");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let base = sample_inventory(400);
    let delta = sample_inventory(150); // overlaps the base: real merges
    let merged = {
        // The server merges onto what the base *file* decodes to, and the
        // encoder canonicalises sketches: the oracle starts there too.
        let mut m = columnar::from_bytes(&columnar::to_bytes(&base)).unwrap();
        m.merge(&delta);
        m
    };

    let entry_for = |name: &str, inv: &Inventory| {
        let bytes = columnar::to_bytes(inv);
        save_bytes(&bytes, &dir.join(name)).unwrap();
        let entry = ManifestEntry::for_link(0, name.into(), &bytes).unwrap();
        (entry.file_len, entry.crc)
    };
    let (base_len, base_crc) = entry_for("base.pol3", &base);
    let manifest_path = dir.join("inventory.polman");
    let base_entry = ManifestEntry {
        generation: 0,
        file_len: base_len,
        crc: base_crc,
        name: "base.pol3".into(),
    };
    pol_core::codec::manifest::save(
        &Manifest {
            entries: vec![base_entry.clone()],
        },
        &manifest_path,
    )
    .unwrap();

    let mut server = Server::start_snapshot(&manifest_path, "127.0.0.1:0", test_config()).unwrap();
    let addr = server.local_addr();
    let mut probe = Client::connect(addr).unwrap();
    let before = probe.stats().unwrap();
    assert_eq!(before.delta_generation, 0);
    assert_eq!(before.chain_len, 1);

    // Query positions that hit occupied cells of the base inventory.
    let pool: Vec<(f64, f64)> = (0..400usize)
        .step_by(7)
        .map(|i| (-55.0 + (i % 111) as f64, -170.0 + (i % 340) as f64))
        .collect();

    let stop = AtomicBool::new(false);
    let reloaded = AtomicBool::new(false);
    let wrong = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let served = AtomicU64::new(0);
    let post_reload_new = AtomicU64::new(0);

    std::thread::scope(|s| {
        for tid in 0..3usize {
            let (base, merged, pool) = (&base, &merged, &pool);
            let (stop, reloaded, wrong, errors, served, post_reload_new) =
                (&stop, &reloaded, &wrong, &errors, &served, &post_reload_new);
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut i = tid;
                while !stop.load(Ordering::Relaxed) {
                    let (lat, lon) = pool[i % pool.len()];
                    i += 1;
                    let cell = cell_at(LatLon::new(lat, lon).unwrap(), res());
                    // Mark *before* issuing: if the answer comes back
                    // new-chain after this point, the swap is proven to
                    // have happened without dropping the request.
                    let was_reloaded = reloaded.load(Ordering::Relaxed);
                    match client.point_summary(lat, lon) {
                        Ok(got) => {
                            served.fetch_add(1, Ordering::Relaxed);
                            let got = stats_bytes(got.as_ref());
                            let old = stats_bytes(base.summary(cell));
                            let new = stats_bytes(merged.summary(cell));
                            if got != old && got != new {
                                wrong.fetch_add(1, Ordering::Relaxed);
                            }
                            if was_reloaded && got == new && new != old {
                                post_reload_new.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }

        // Let the load establish itself, then extend the chain on disk
        // (delta file first, manifest second) and hot-swap it.
        while served.load(Ordering::Relaxed) < 300 {
            std::thread::yield_now();
        }
        let (delta_len, delta_crc) = entry_for("delta-00001.pol3", &delta);
        pol_core::codec::manifest::save(
            &Manifest {
                entries: vec![
                    base_entry,
                    ManifestEntry {
                        generation: 1,
                        file_len: delta_len,
                        crc: delta_crc,
                        name: "delta-00001.pol3".into(),
                    },
                ],
            },
            &manifest_path,
        )
        .unwrap();
        server.reload_from(&manifest_path).unwrap();
        reloaded.store(true, Ordering::Relaxed);

        // Keep the load running across the swap, then stop.
        let after_swap = served.load(Ordering::Relaxed);
        while served.load(Ordering::Relaxed) < after_swap + 300 {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert_eq!(
        wrong.load(Ordering::Relaxed),
        0,
        "wrong answers under reload"
    );
    assert_eq!(
        errors.load(Ordering::Relaxed),
        0,
        "dropped in-flight queries"
    );
    assert!(
        post_reload_new.load(Ordering::Relaxed) > 0,
        "post-reload answers never surfaced the extended chain"
    );

    // A fresh request sees the new chain and its lineage.
    let report = probe.stats().unwrap();
    assert_eq!(report.delta_generation, 1);
    assert_eq!(report.chain_len, 2);
    assert_eq!(report.reloads_ok, 1);
    assert_eq!(report.reloads_failed, 0);
    let (lat, lon) = pool[0];
    let cell = cell_at(LatLon::new(lat, lon).unwrap(), res());
    assert_eq!(
        stats_bytes(probe.point_summary(lat, lon).unwrap().as_ref()),
        stats_bytes(merged.summary(cell)),
        "fresh post-reload answers must come from the merged chain"
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The crash-recovery serving contract: an ingester journals the wire,
/// publishes a few window deltas, and dies mid-run (no seal, no close).
/// `pol-serve` keeps answering from the surviving chain; a second
/// ingester life recovers from the journal + checkpoint, resumes the
/// wire exactly-once, extends the chain, and a single hot reload brings
/// the server to the recovered lineage — with every answer byte-equal
/// to the chain merged directly from disk.
#[test]
fn ingester_crash_recovery_extends_the_served_chain() {
    use pol_core::codec::manifest;
    use pol_core::records::PortSite;
    use pol_fleetsim::scenario::{generate, ScenarioConfig};
    use pol_fleetsim::stream::interleave;
    use pol_fleetsim::WORLD_PORTS;
    use pol_stream::{
        recover, DeltaPublisher, JournaledEngine, StreamConfig, StreamEngine, WalConfig, WindowSpec,
    };

    let dir = std::env::temp_dir().join("pol-serve-crash-recovery");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let ds = generate(&ScenarioConfig::tiny());
    let stream_cfg = StreamConfig::default();
    let resolution = stream_cfg.pipeline.resolution;
    let ports: Vec<PortSite> = WORLD_PORTS
        .iter()
        .enumerate()
        .map(|(i, p)| PortSite {
            id: i as u16,
            name: p.name.to_string(),
            pos: p.pos(),
            radius_km: stream_cfg.pipeline.port_radius_km,
        })
        .collect();
    let wire: Vec<_> = interleave(ds.positions).collect();
    let spec = WindowSpec {
        start_ts: ds.config.start,
        window_secs: 86_400,
    };
    let engine = pol_engine::Engine::new(2);

    // Life 1: journal + publish until two generations are durable, then
    // abandon everything mid-run — the in-process equivalent of a kill.
    let se = StreamEngine::new(&ds.statics, &ports, stream_cfg.clone());
    let mut je = JournaledEngine::create(&dir, se, WalConfig::default(), 1_000).unwrap();
    let mut publisher = DeltaPublisher::create(&dir);
    let mut killed_at = 0usize;
    for (i, r) in wire.iter().enumerate() {
        je.push(r.clone()).unwrap();
        while je.watermark() >= spec.cut_at(je.window_cuts()) {
            let generation = je.window_cuts();
            let delta = je.take_window_delta(&engine).unwrap();
            publisher.publish_at(generation, &delta).unwrap();
        }
        if je.window_cuts() >= 2 {
            killed_at = i + 1;
            break;
        }
    }
    assert!(killed_at > 0, "wire too short to publish two windows");
    let cuts_at_kill = je.window_cuts();
    drop(je);
    drop(publisher);

    // The survivors serve immediately.
    let manifest_path = dir.join(pol_stream::MANIFEST_NAME);
    let mut server = Server::start_snapshot(&manifest_path, "127.0.0.1:0", test_config()).unwrap();
    let addr = server.local_addr();
    let mut probe = Client::connect(addr).unwrap();
    let before = probe.stats().unwrap();
    assert_eq!(before.chain_len, cuts_at_kill);
    assert_eq!(before.delta_generation, cuts_at_kill - 1);

    // Life 2: recover from journal + checkpoint, resume the wire where
    // the durable journal ends, publish the remaining windows, close.
    let (mut publisher, swept) = DeltaPublisher::open(&dir).unwrap();
    assert!(swept.removed.is_empty(), "no orphans were planted");
    let (mut je, report) = recover(
        &dir,
        &engine,
        &ds.statics,
        &ports,
        stream_cfg.clone(),
        WalConfig::default(),
        1_000,
        Some((&mut publisher, spec)),
    )
    .unwrap();
    assert_eq!(report.deltas_published, 0, "recovery must not re-publish");
    let resume_at = usize::try_from(je.counters().ingested).unwrap();
    assert!(resume_at <= killed_at, "recovery overshot the wire");
    for r in wire.iter().skip(resume_at).cloned() {
        je.push(r).unwrap();
        while je.watermark() >= spec.cut_at(je.window_cuts()) {
            let generation = je.window_cuts();
            let delta = je.take_window_delta(&engine).unwrap();
            publisher.publish_at(generation, &delta).unwrap();
        }
    }
    let final_cuts = je.window_cuts();
    assert!(final_cuts > cuts_at_kill, "the resumed wire grew no window");
    let out = je.close(&engine).unwrap();
    assert_eq!(out.counters.late_dropped, 0);
    assert_eq!(out.counters.ingested, wire.len() as u64);

    // One hot reload brings the server to the recovered lineage.
    server.reload_from(&manifest_path).unwrap();
    let after = probe.stats().unwrap();
    assert_eq!(after.chain_len, final_cuts);
    assert_eq!(after.delta_generation, final_cuts - 1);
    assert_eq!(after.reloads_ok, 1);
    assert_eq!(after.reloads_failed, 0);

    // Every served answer must match the chain merged straight from
    // disk — the recovered generations included.
    let (merged, info) = manifest::load_chain(&manifest_path).unwrap();
    assert_eq!(info.chain_len, final_cuts);
    manifest::verify_chain(&manifest_path).unwrap();
    // Probe the cells the server itself reports occupied (retained trip
    // points are cleaned wire records, so wire positions land in them),
    // plus a spread of arbitrary wire positions for the `None` side.
    let served_cells: std::collections::HashSet<u64> = probe
        .bbox_scan(-89.0, -179.0, 89.0, 179.0)
        .unwrap()
        .into_iter()
        .collect();
    assert!(!served_cells.is_empty(), "recovered chain serves no cells");
    let mut probed_cells = std::collections::HashSet::new();
    let mut occupied = 0usize;
    let stride = (wire.len() / 64).max(1);
    let hits = wire
        .iter()
        .filter(|r| served_cells.contains(&cell_at(r.pos, resolution).raw()))
        .take(512);
    for r in hits.chain(wire.iter().step_by(stride)) {
        let cell = cell_at(r.pos, resolution);
        if !probed_cells.insert(cell.raw()) {
            continue;
        }
        let got = probe.point_summary(r.pos.lat(), r.pos.lon()).unwrap();
        assert_eq!(
            stats_bytes(got.as_ref()),
            stats_bytes(merged.summary(cell)),
            "served answer diverged from the recovered chain"
        );
        occupied += usize::from(merged.summary(cell).is_some());
    }
    assert!(occupied > 0, "probe set never hit an occupied cell");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// One frame per request in `requests`, back to back: what a pipelining
/// client writes in one go.
fn burst_of(requests: &[Request]) -> Vec<u8> {
    let mut burst = Vec::new();
    for req in requests {
        write_frame(&mut burst, &pol_serve::proto::encode_request(req)).unwrap();
    }
    burst
}

/// Requests the loop answers itself and requests it hands to the pool,
/// pipelined on one connection in one burst, are answered in request
/// order — the slow scans first although the lookups and the quick
/// estimates behind them are done long before, on another worker or on
/// the loop — and each reply is the in-process answer, from the heap and
/// from a mapped snapshot, with more workers than pool requests in the
/// burst and with fewer.
#[test]
fn mixed_kinds_pipelined_on_one_connection_answer_in_order() {
    use pol_core::codec::columnar;
    use pol_serve::proto::decode_response;
    const N: usize = 400;
    let dir = std::env::temp_dir().join(format!("pol-serve-mixed-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let v3_path = dir.join("inv.pol3");
    columnar::save(&sample_inventory(N), &v3_path).unwrap();
    let inventory = sample_inventory(N);

    let (lat, lon) = (-55.0 + 7.0, -170.0 + 7.0); // sample point 7
    let segment = MarketSegment::from_id(0).unwrap();
    let world = Request::BboxScan {
        min_lat: -60.0,
        min_lon: -175.0,
        max_lat: 60.0,
        max_lon: 175.0,
    };
    let eta = Request::Eta {
        lat,
        lon,
        segment: None,
        route: None,
    };
    let requests = [
        world.clone(),
        Request::PointSummary { lat, lon },
        // On the heap this one looks at every entry: the slowest.
        Request::TopDestinationCells {
            dest: 3,
            segment: None,
        },
        Request::PointSummary {
            lat: lat + 1.0,
            lon: lon + 1.0,
        },
        eta.clone(),
        Request::RouteSummary {
            lat,
            lon,
            origin: 1,
            dest: 7,
            segment,
        },
        Request::Batch(vec![world.clone(), eta.clone(), world]),
        Request::Ping,
        eta,
        Request::BboxScan {
            min_lat: 10.0,
            min_lon: 0.0,
            max_lat: -10.0,
            max_lon: 5.0,
        },
        Request::Health,
    ];
    for hit in [&requests[1], &requests[5]] {
        assert!(matches!(
            decode_response(&oracle::reply(&inventory, hit)),
            Ok(Response::Summary(Some(_)))
        ));
    }
    let burst = burst_of(&requests);

    for worker_threads in [6, 2] {
        let config = ServerConfig {
            worker_threads,
            ..ServerConfig::default()
        };
        let servers = [
            Server::start(sample_inventory(N), "127.0.0.1:0", config).unwrap(),
            Server::start_snapshot(&v3_path, "127.0.0.1:0", config).unwrap(),
        ];
        for mut server in servers {
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(3)))
                .unwrap();
            // Three times over: the later bursts meet a connection that
            // has already been through pool round trips.
            for round in 0..3 {
                stream.write_all(&burst).unwrap();
                for (i, req) in requests.iter().enumerate() {
                    let reply = read_frame(&mut stream, 1 << 20).unwrap();
                    assert_eq!(
                        reply,
                        oracle::reply(&inventory, req),
                        "{worker_threads} workers, round {round}, reply {i} to {req:?}"
                    );
                }
            }
            server.shutdown();
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A hot reload between two pipelined scans never shows on the
/// connection as a generation going backwards: each scan answers from
/// the snapshot that was live when its frame was taken, frames are taken
/// in order, so once a reply comes from the new snapshot every later one
/// does — whichever worker finishes first — and a scan sent after the
/// reload returned always does.
#[test]
fn a_reload_between_pipelined_scans_never_goes_back_a_generation() {
    const SCANS: usize = 24;
    let scan = Request::BboxScan {
        min_lat: -60.0,
        min_lon: -175.0,
        max_lat: 60.0,
        max_lon: 175.0,
    };
    let sizes = [300, 900];
    let answers = sizes.map(|n| oracle::reply(&sample_inventory(n), &scan));
    assert_ne!(
        answers[0], answers[1],
        "the two snapshots must scan differently"
    );

    let config = ServerConfig {
        worker_threads: 3,
        ..ServerConfig::default()
    };
    let mut server = Server::start(sample_inventory(sizes[0]), "127.0.0.1:0", config).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    let half = burst_of(&vec![scan; SCANS / 2]);
    let mut from_old = 0;
    // Back and forth: each round reloads to the other snapshot between
    // the two halves of one pipelined burst (building the inventory to
    // reload gives the loop the time to take the first half).
    for round in 0..6 {
        let (old, new) = (round % 2, (round + 1) % 2);
        stream.write_all(&half).unwrap();
        server.reload(sample_inventory(sizes[new]));
        stream.write_all(&half).unwrap();
        let mut reloaded = false;
        for i in 0..SCANS {
            let reply = read_frame(&mut stream, 1 << 20).unwrap();
            if reply == answers[new] {
                reloaded = true;
            } else {
                assert_eq!(
                    reply, answers[old],
                    "round {round}: reply {i} is from neither"
                );
                assert!(!reloaded, "round {round}: reply {i} went back a generation");
                assert!(i < SCANS / 2, "round {round}: reply {i} missed the reload");
                from_old += 1;
            }
        }
    }
    assert!(from_old > 0, "no scan was taken before its round's reload");
    server.shutdown();
}

/// The snapshot is pinned per frame on the loop as it is on a worker:
/// of two lookups on one connection with a hot reload between them, the
/// first is answered from the old snapshot and the second from the new.
#[test]
fn reload_between_two_loop_requests_is_seen_by_the_second() {
    use pol_core::codec::columnar;
    let dir = std::env::temp_dir().join(format!("pol-serve-reload-loop-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let (old, new) = (sample_inventory(300), sample_inventory(900));
    let new_path = dir.join("new.pol3");
    columnar::save(&new, &new_path).unwrap();

    let pos = LatLon::new(-55.0 + 3.0, -170.0 + 3.0).unwrap(); // sample point 3
    let cell = cell_at(pos, res());
    assert_ne!(
        stats_bytes(old.summary(cell)),
        stats_bytes(new.summary(cell)),
        "the two snapshots must differ at the probed cell"
    );
    let server = Server::start(sample_inventory(300), "127.0.0.1:0", test_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let first = client.point_summary(pos.lat(), pos.lon()).unwrap();
    assert_eq!(stats_bytes(first.as_ref()), stats_bytes(old.summary(cell)));
    server.reload_from(&new_path).unwrap();
    let second = client.point_summary(pos.lat(), pos.lon()).unwrap();
    assert_eq!(stats_bytes(second.as_ref()), stats_bytes(new.summary(cell)));
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// A delta chain on disk that tests grow one link at a time.
struct ChainOnDisk {
    dir: std::path::PathBuf,
    entries: Vec<pol_core::codec::manifest::ManifestEntry>,
}

impl ChainOnDisk {
    fn new(name: &str) -> ChainOnDisk {
        let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        ChainOnDisk {
            dir,
            entries: Vec::new(),
        }
    }

    fn manifest_path(&self) -> std::path::PathBuf {
        self.dir.join("inventory.polman")
    }

    /// Writes `inv` as the next link's file; the manifest does not name
    /// it until [`commit`](Self::commit).
    fn write_link(&mut self, inv: &Inventory) -> std::path::PathBuf {
        let bytes = pol_core::codec::columnar::to_bytes(inv);
        let generation = self.entries.len() as u64;
        let name = format!("link-{generation:05}.pol");
        let path = self.dir.join(&name);
        pol_core::codec::save_bytes(&bytes, &path).unwrap();
        let entry = pol_core::codec::manifest::ManifestEntry::for_link(generation, name, &bytes);
        self.entries.push(entry.unwrap());
        path
    }

    fn commit(&self) {
        self.save_entries(&self.entries);
    }

    fn save_entries(&self, entries: &[pol_core::codec::manifest::ManifestEntry]) {
        let man = pol_core::codec::manifest::Manifest {
            entries: entries.to_vec(),
        };
        pol_core::codec::manifest::save(&man, &self.manifest_path()).unwrap();
    }

    fn publish(&mut self, inv: &Inventory) {
        self.write_link(inv);
        self.commit();
    }
}

impl Drop for ChainOnDisk {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// The chain stages `STATS` lists — the first open's, then the latest
/// reload's — as `(name, input)`.
fn chain_stages(client: &mut Client) -> Vec<(String, u64)> {
    client
        .stats()
        .unwrap()
        .stages
        .lines()
        .filter_map(|line| {
            let mut cols = line.split_whitespace();
            let name = cols.next().filter(|n| n.starts_with("chain-"))?;
            Some((name.to_string(), cols.next()?.parse().ok()?))
        })
        .collect()
}

/// Point, segment and route summaries on occupied and empty cells, and
/// one bbox scan.
fn probe_requests() -> Vec<Request> {
    let mut requests = vec![Request::BboxScan {
        min_lat: -60.0,
        min_lon: -175.0,
        max_lat: 20.0,
        max_lon: 60.0,
    }];
    for i in (0..900usize).step_by(53) {
        let (lat, lon) = (-55.0 + (i % 111) as f64, -170.0 + (i % 340) as f64);
        let segment = MarketSegment::from_id((i % 7) as u8).unwrap();
        requests.push(Request::PointSummary { lat, lon });
        requests.push(Request::SegmentSummary { lat, lon, segment });
        requests.push(Request::RouteSummary {
            lat,
            lon,
            origin: (i % 6) as u16,
            dest: (i % 8) as u16,
            segment,
        });
    }
    requests
}

/// The probes' reply bytes, as a client receives them.
fn probe_replies(client: &mut Client) -> Vec<Vec<u8>> {
    probe_requests()
        .iter()
        .map(|req| pol_serve::proto::encode_response(&client.request(req).unwrap()))
        .collect()
}

/// What a server freshly started on the chain's manifest answers.
fn fresh_replies(chain: &ChainOnDisk) -> Vec<Vec<u8>> {
    let server =
        Server::start_snapshot(&chain.manifest_path(), "127.0.0.1:0", test_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let links = chain.entries.len();
    let name = if links > pol_serve::mapped::MAX_LINKS {
        "chain-fold"
    } else {
        "chain-load"
    };
    assert_eq!(
        chain_stages(&mut client),
        vec![(name.to_string(), links as u64)]
    );
    probe_replies(&mut client)
}

/// A server that reloads after every published delta merges one link
/// each time and ends up answering byte for byte what a server started
/// on the final manifest answers.
#[test]
fn reloading_after_every_delta_equals_a_fresh_start_on_the_final_manifest() {
    let mut chain = ChainOnDisk::new("pol-serve-chain-extend");
    let server = Server::start(sample_inventory(10), "127.0.0.1:0", test_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    for (k, n) in [400usize, 150, 620, 90, 900].into_iter().enumerate() {
        chain.publish(&sample_inventory(n));
        server.reload_from(&chain.manifest_path()).unwrap();
        // The first manifest meets a server that remembers no chain.
        let latest = match k {
            0 => ("chain-load".to_string(), 1),
            _ => ("chain-extend".to_string(), 1),
        };
        assert_eq!(chain_stages(&mut client), vec![latest]);
        let report = client.stats().unwrap();
        assert_eq!(report.chain_len, k as u64 + 1);
        assert_eq!(report.delta_generation, k as u64);
        assert_eq!(report.reloads_ok, k as u64 + 1);
        assert_eq!(report.store, "mapped-columnar");
    }
    assert_eq!(probe_replies(&mut client), fresh_replies(&chain));
}

/// A manifest that is not a strict extension of the served chain — a
/// shorter prefix of it (the ingester began again and republished a
/// byte-identical base), or one whose middle entry differs — is merged
/// from its base, and answers correctly.
#[test]
fn a_shorter_or_diverged_manifest_is_merged_from_its_base() {
    let mut chain = ChainOnDisk::new("pol-serve-chain-diverge");
    for n in [300usize, 120, 500] {
        chain.publish(&sample_inventory(n));
    }
    let server =
        Server::start_snapshot(&chain.manifest_path(), "127.0.0.1:0", test_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Shorter: the served chain's first two links, CRCs and all.
    chain.entries.truncate(2);
    chain.commit();
    server.reload_from(&chain.manifest_path()).unwrap();
    let report = client.stats().unwrap();
    assert_eq!((report.chain_len, report.delta_generation), (2, 1));
    assert_eq!(
        chain_stages(&mut client).last(),
        Some(&("chain-load".to_string(), 2))
    );
    assert_eq!(probe_replies(&mut client), fresh_replies(&chain));

    // Diverged: same base, a different link 1, then a link 2 — longer
    // than the served chain, but no extension of it.
    chain.entries.truncate(1);
    chain.write_link(&sample_inventory(77));
    chain.write_link(&sample_inventory(410));
    chain.commit();
    server.reload_from(&chain.manifest_path()).unwrap();
    let report = client.stats().unwrap();
    assert_eq!((report.chain_len, report.delta_generation), (3, 2));
    assert_eq!(probe_replies(&mut client), fresh_replies(&chain));

    assert_eq!(
        chain_stages(&mut client).last(),
        Some(&("chain-load".to_string(), 3))
    );
}

/// A corrupt or truncated newest link is refused before anything is
/// swapped: the failure is counted, the old chain keeps answering and
/// stays the one remembered — the repaired manifest is then an
/// extension of it, one link.
#[test]
fn a_bad_newest_link_is_rejected_and_the_served_chain_stays_remembered() {
    let mut chain = ChainOnDisk::new("pol-serve-chain-badlink");
    chain.publish(&sample_inventory(300));
    chain.publish(&sample_inventory(120));
    let server =
        Server::start_snapshot(&chain.manifest_path(), "127.0.0.1:0", test_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let before = probe_replies(&mut client);

    let link = chain.write_link(&sample_inventory(640));
    chain.commit();
    let good = std::fs::read(&link).unwrap();
    let mut flipped = good.clone();
    flipped[good.len() / 2] ^= 0x10;
    for (failures, bad) in [(1, &flipped[..]), (2, &good[..good.len() - 9])] {
        std::fs::write(&link, bad).unwrap();
        assert!(server.reload_from(&chain.manifest_path()).is_err());
        let report = client.stats().unwrap();
        assert_eq!(report.reloads_failed, failures);
        assert_eq!(report.reloads_ok, 0);
        assert_eq!((report.chain_len, report.delta_generation), (2, 1));
        assert_eq!(probe_replies(&mut client), before);
    }

    std::fs::write(&link, &good).unwrap();
    server.reload_from(&chain.manifest_path()).unwrap();
    assert_eq!(
        chain_stages(&mut client),
        vec![
            ("chain-load".to_string(), 2),
            ("chain-extend".to_string(), 1)
        ]
    );
    let report = client.stats().unwrap();
    assert_eq!((report.chain_len, report.delta_generation), (3, 2));
    assert_eq!(probe_replies(&mut client), fresh_replies(&chain));
}

/// `reload(Inventory)` forgets the chain: the next manifest, though it
/// extends what was served before, is merged from its base.
#[test]
fn reloading_an_inventory_forgets_the_chain() {
    let mut chain = ChainOnDisk::new("pol-serve-chain-forget");
    chain.publish(&sample_inventory(300));
    let server =
        Server::start_snapshot(&chain.manifest_path(), "127.0.0.1:0", test_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    server.reload(sample_inventory(40));
    let report = client.stats().unwrap();
    assert_eq!((report.chain_len, report.delta_generation), (1, 0));

    chain.publish(&sample_inventory(150));
    server.reload_from(&chain.manifest_path()).unwrap();
    assert_eq!(
        chain_stages(&mut client),
        [1, 2].map(|links| ("chain-load".to_string(), links))
    );
    let report = client.stats().unwrap();
    assert_eq!((report.chain_len, report.delta_generation), (2, 1));
    assert_eq!(probe_replies(&mut client), fresh_replies(&chain));
}

/// A reload reads only its new links: with every served file unlinked
/// from disk, a manifest one link longer still reloads — the served
/// links stay mapped — and the server answers what the four links merged
/// in memory answer, while the full walk, which reads every file, now
/// fails.
#[test]
fn a_reload_maps_only_its_new_links() {
    use pol_core::codec::{columnar, manifest, CodecError};
    let mut chain = ChainOnDisk::new("pol-serve-chain-unlinked");
    let sizes = [300usize, 120, 500, 260];
    for n in &sizes[..3] {
        chain.publish(&sample_inventory(*n));
    }
    let server =
        Server::start_snapshot(&chain.manifest_path(), "127.0.0.1:0", test_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for entry in &chain.entries {
        std::fs::remove_file(chain.dir.join(&entry.name)).unwrap();
    }
    chain.publish(&sample_inventory(sizes[3]));
    server.reload_from(&chain.manifest_path()).unwrap();
    assert_eq!(
        chain_stages(&mut client).last(),
        Some(&("chain-extend".to_string(), 1))
    );
    let report = client.stats().unwrap();
    assert_eq!((report.chain_len, report.delta_generation), (4, 3));

    // The oracle: each link as its file holds it, merged in memory.
    let links = sizes.iter().enumerate().map(|(generation, &n)| {
        let bytes = columnar::to_bytes(&sample_inventory(n));
        (generation as u64, columnar::from_bytes(&bytes).unwrap())
    });
    let merged = pol_stream::merge_chain(links.collect()).unwrap();
    let want: Vec<Vec<u8>> = probe_requests()
        .iter()
        .map(|req| oracle::reply(&merged, req))
        .collect();
    assert_eq!(probe_replies(&mut client), want);
    assert!(matches!(
        manifest::load_chain(&chain.manifest_path()),
        Err(CodecError::Io(_))
    ));
}

/// A chain is served from at most `MAX_LINKS` links: the reload that
/// would serve one more folds the served links and the new one into one
/// image (`chain-fold`), the next reloads extend that image, and every
/// answer stays the chain's merged in memory.
#[test]
fn a_chain_past_max_links_is_folded_and_answers_the_same() {
    use pol_core::codec::columnar;
    use pol_serve::mapped::MAX_LINKS;
    let mut chain = ChainOnDisk::new("pol-serve-chain-fold");
    let server = Server::start(sample_inventory(10), "127.0.0.1:0", test_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut links = Vec::new();
    let mut served = 0;
    for k in 0..2 * MAX_LINKS + 2 {
        let inv = sample_inventory(60 + 41 * k);
        links.push((
            k as u64,
            columnar::from_bytes(&columnar::to_bytes(&inv)).unwrap(),
        ));
        chain.publish(&inv);
        server.reload_from(&chain.manifest_path()).unwrap();
        served = served % MAX_LINKS + 1;
        let name = match k {
            0 => "chain-load",
            _ if served == 1 => "chain-fold",
            _ => "chain-extend",
        };
        let latest = chain_stages(&mut client).pop().map(|(name, _)| name);
        assert_eq!(latest.as_deref(), Some(name), "reload {k}");
    }
    let merged = pol_stream::merge_chain(links).unwrap();
    let want: Vec<Vec<u8>> = probe_requests()
        .iter()
        .map(|req| oracle::reply(&merged, req))
        .collect();
    assert_eq!(probe_replies(&mut client), want);
    assert_eq!(fresh_replies(&chain), want);
}

/// `STATS` keeps the first open and the latest reload, not every
/// reload: a thousand reloads later the reply still decodes, with two
/// stage rows.
#[test]
fn stats_lists_two_stage_rows_after_a_thousand_reloads() {
    let mut chain = ChainOnDisk::new("pol-serve-stage-rows");
    chain.publish(&sample_inventory(50));
    let server =
        Server::start_snapshot(&chain.manifest_path(), "127.0.0.1:0", test_config()).unwrap();
    for _ in 0..1_000 {
        server.reload_from(&chain.manifest_path()).unwrap();
    }
    let mut client = Client::connect(server.local_addr()).unwrap();
    let report = client.stats().unwrap();
    assert_eq!(report.reloads_ok, 1_000);
    let rows: Vec<&str> = report.stages.lines().skip(1).collect();
    assert_eq!(rows.len(), 2, "{}", report.stages);
    assert!(rows.iter().all(|row| row.starts_with("chain-load")));
}
