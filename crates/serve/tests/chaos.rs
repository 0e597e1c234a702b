//! Chaos harness (run with `cargo test -p pol-serve --features chaos
//! --test chaos`): a client fleet drives a live server while failpoints
//! kill connection workers and delay reads, and a corrupted snapshot
//! reload is attempted mid-run. The assertions are the ISSUE's
//! acceptance bar: **zero** client-visible wrong answers, only typed
//! retryable errors at a bounded rate, rejected reloads leave the old
//! snapshot serving, and the server recovers fully once the faults are
//! disarmed.

use pol_ais::types::{MarketSegment, Mmsi};
use pol_chaos::{configure, exclusive, reset, stats, FaultAction, Trigger};
use pol_core::codec::{columnar, encode_cell_stats};
use pol_core::features::{CellStats, GroupKey};
use pol_core::records::{CellPoint, TripPoint};
use pol_core::Inventory;
use pol_geo::LatLon;
use pol_hexgrid::{cell_at, Resolution};
use pol_serve::proto::{
    decode_response, encode_request, encode_response, read_frame, write_frame, Request, Response,
};
use pol_serve::{
    Client, ClientConfig, ClientError, InventoryService, ProtoError, RetryPolicy, Server,
    ServerConfig, ServerMetrics,
};
use pol_sketch::hash::FxHashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn res() -> Resolution {
    Resolution::new(6).unwrap()
}

fn sample_inventory(n: usize) -> Inventory {
    let mut entries: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
    for i in 0..n {
        let pos = LatLon::new(-50.0 + (i % 101) as f64, -160.0 + (i % 320) as f64).unwrap();
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
        ] {
            entries
                .entry(key)
                .or_insert_with(|| CellStats::new(0.02, 8))
                .observe(&cp);
        }
    }
    Inventory::from_entries(res(), entries, n as u64)
}

fn stats_bytes(stats: Option<&CellStats>) -> Option<Vec<u8>> {
    stats.map(|s| {
        let mut out = Vec::new();
        encode_cell_stats(s, &mut out);
        out
    })
}

fn chaos_client_config(seed: u64) -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_secs(2),
        read_timeout: Some(Duration::from_secs(2)),
        retry: RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(100),
            deadline: Duration::from_secs(20),
            jitter_seed: seed,
        },
        ..ClientConfig::default()
    }
}

/// Is this one of the errors chaos is *allowed* to surface (transport
/// died / server shed load), as opposed to a wrong answer or a protocol
/// violation?
fn is_retryable_kind(e: &ClientError) -> bool {
    matches!(
        e,
        ClientError::ServerBusy
            | ClientError::Proto(ProtoError::Io(_))
            | ClientError::Proto(ProtoError::ConnectionClosed)
    )
}

#[test]
fn fleet_survives_kills_delays_and_corrupt_reload() {
    let _chaos = exclusive();
    const N: usize = 400;
    const FLEET: usize = 4;
    const QUERIES: usize = 60;

    let reference = Arc::new(sample_inventory(N));
    let config = ServerConfig {
        worker_threads: 4,
        drain_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    let mut server = Server::start(sample_inventory(N), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    // Arm the chaos: every 40th served frame kills its worker job
    // (contained panic, connection dies without a reply), and reads are
    // randomly delayed. Seeds fixed for a deterministic fault schedule.
    configure(
        "serve.worker.kill",
        Trigger::EveryNth {
            n: 40,
            action: FaultAction::Kill,
        },
    );
    configure(
        "serve.conn.read_delay",
        Trigger::Prob {
            p: 0.02,
            seed: 0xC0FFEE,
            action: FaultAction::Delay(Duration::from_millis(2)),
        },
    );

    // Mid-run reload attempts happen concurrently with the fleet: a
    // corrupted snapshot file must be rejected (old snapshot keeps
    // serving, so answers never change), then a clean reload of the
    // *same* inventory must land (generation bumps, answers still equal).
    let wrong_answers = Arc::new(AtomicUsize::new(0));
    let surfaced_errors = Arc::new(AtomicUsize::new(0));
    let dir = std::env::temp_dir().join("pol-serve-chaos-test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    std::thread::scope(|s| {
        for tid in 0..FLEET {
            let reference = Arc::clone(&reference);
            let wrong_answers = Arc::clone(&wrong_answers);
            let surfaced_errors = Arc::clone(&surfaced_errors);
            s.spawn(move || {
                let mut client =
                    Client::connect_with(addr, chaos_client_config(100 + tid as u64)).unwrap();
                for j in 0..QUERIES {
                    let i = tid * QUERIES + j;
                    let pos =
                        LatLon::new(-50.0 + (i % 101) as f64, -160.0 + (i % 320) as f64).unwrap();
                    let cell = cell_at(pos, res());
                    match client.point_summary(pos.lat(), pos.lon()) {
                        Ok(got) => {
                            if stats_bytes(got.as_ref()) != stats_bytes(reference.summary(cell)) {
                                wrong_answers.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(e) => {
                            assert!(is_retryable_kind(&e), "non-retryable error surfaced: {e}");
                            surfaced_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }

        // The reloader runs while the fleet is querying.
        let corrupt_path = dir.join("corrupt.pol");
        let mut bytes = columnar::to_bytes(&sample_inventory(N));
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&corrupt_path, &bytes).unwrap();
        let before = server.metrics().generation();
        assert!(
            server.reload_from(&corrupt_path).is_err(),
            "corrupt snapshot must be rejected"
        );
        assert_eq!(
            server.metrics().generation(),
            before,
            "rejected reload must not advance the generation"
        );

        let clean_path = dir.join("clean.pol");
        columnar::save(&sample_inventory(N), &clean_path).unwrap();
        server.reload_from(&clean_path).unwrap();
        assert_eq!(server.metrics().generation(), before + 1);
    });

    // Acceptance: not one wrong answer, and the error budget holds (the
    // client retries absorb almost every injected fault).
    let total = FLEET * QUERIES;
    let errors = surfaced_errors.load(Ordering::Relaxed);
    assert_eq!(
        wrong_answers.load(Ordering::Relaxed),
        0,
        "chaos must never cause a wrong answer"
    );
    assert!(
        errors <= total / 10,
        "error rate too high under chaos: {errors}/{total}"
    );

    // The faults actually happened (this test is not vacuous).
    assert!(
        stats("serve.worker.kill").fired >= 1,
        "kill failpoint never fired: {}",
        stats("serve.worker.kill")
    );
    assert!(stats("serve.conn.read_delay").hits > 0);

    // Full recovery: disarm everything, a fresh client sees every
    // endpoint healthy and the reload accounting in STATS.
    reset();
    let mut client = Client::connect_with(addr, chaos_client_config(999)).unwrap();
    client.ping().unwrap();
    let health = client.health().unwrap();
    assert!(health.healthy && !health.draining);
    assert!(client.ready().unwrap());
    let report = client.stats().unwrap();
    assert_eq!(report.reloads_ok, 1);
    assert_eq!(report.reloads_failed, 1);
    for i in 0..20usize {
        let pos = LatLon::new(-50.0 + (i % 101) as f64, -160.0 + (i % 320) as f64).unwrap();
        let cell = cell_at(pos, res());
        let got = client.point_summary(pos.lat(), pos.lon()).unwrap();
        assert_eq!(
            stats_bytes(got.as_ref()),
            stats_bytes(reference.summary(cell)),
            "post-recovery answer {i}"
        );
    }

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The reactor sheds load per *request*, not per connection: while the
/// only worker slot is pinned (a chaos-delayed request), a second
/// connection's request is answered with an immediate typed `Busy` — and
/// that connection stays open and is served normally once the slot
/// frees. The `shed_at_loop` counter attributes the rejection to the
/// event loop.
#[test]
fn reactor_sheds_at_the_loop_and_keeps_the_connection() {
    let _chaos = exclusive();
    let config = ServerConfig {
        worker_threads: 1,
        max_pending: 0,
        ..ServerConfig::default()
    };
    let mut server = Server::start(sample_inventory(50), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    // The first request to reach a worker sleeps 600 ms, pinning the
    // single admission slot for a deterministic window.
    configure(
        "serve.worker.kill",
        Trigger::NthHit {
            n: 1,
            action: FaultAction::Delay(Duration::from_millis(600)),
        },
    );
    // STATS is a pool request (a ping would be answered by the loop
    // itself and never meet admission).
    let pinner = std::thread::spawn(move || {
        let mut client = Client::connect_with(addr, chaos_client_config(7)).unwrap();
        client.stats().unwrap(); // delayed, then answered
    });
    std::thread::sleep(Duration::from_millis(150)); // slot is pinned now

    // A raw second connection (no client-side Busy retry) sees the shed.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let payload = pol_serve::proto::encode_request(&Request::Stats);
    let mut framed = Vec::new();
    write_frame(&mut framed, &payload).unwrap();
    stream.write_all(&framed).unwrap();
    let reply = read_frame(&mut stream, 1 << 20).unwrap();
    assert!(
        matches!(decode_response(&reply).unwrap(), Response::Busy),
        "pinned slot must shed the request with Busy"
    );

    // The shed connection survives: once the slot frees, the very same
    // socket is served.
    pinner.join().unwrap();
    stream.write_all(&framed).unwrap();
    let reply = read_frame(&mut stream, 1 << 20).unwrap();
    assert!(matches!(
        decode_response(&reply).unwrap(),
        Response::Stats(_)
    ));

    let snap = server.metrics().snapshot();
    assert!(snap.shed_at_loop >= 1, "shed_at_loop never counted");
    assert!(snap.busy_rejections >= 1);
    server.shutdown();
}

/// A shed must never strand a *pipelined* connection's frames: when a
/// completion lets the next held frame in and admission sheds it, there
/// is no completion left to let the rest in — so the loop must keep
/// taking them, answering every one with Busy, instead of leaving the
/// connection wedged (no response, not idle, not stalled) until the peer
/// gives up. The `serve.worker.slot_hold` fault pins the admission slot
/// *after* the first completion posts, which is exactly the interleaving
/// where a held frame meets a full cap.
#[test]
fn shed_at_pop_answers_every_pipelined_frame() {
    let _chaos = exclusive();
    let config = ServerConfig {
        worker_threads: 1,
        max_pending: 0, // admission cap of exactly one slot
        ..ServerConfig::default()
    };
    let mut server = Server::start(sample_inventory(50), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    // After the first request's completion is posted, its worker keeps
    // the only admission slot pinned for 600 ms: the loop pops the
    // pipelined follow-ups into a full cap.
    configure(
        "serve.worker.slot_hold",
        Trigger::NthHit {
            n: 1,
            action: FaultAction::Delay(Duration::from_millis(600)),
        },
    );

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let payload = pol_serve::proto::encode_request(&Request::Stats);
    let mut framed = Vec::new();
    write_frame(&mut framed, &payload).unwrap();
    // Four pool requests in one burst: the first dispatches, the other
    // three wait unread behind the connection's one share of the pool.
    let mut burst = Vec::new();
    for _ in 0..4 {
        burst.extend_from_slice(&framed);
    }
    stream.write_all(&burst).unwrap();

    // Every request gets a response, in order: the served first frame,
    // then one typed Busy per shed follow-up — none goes unanswered.
    let reply = read_frame(&mut stream, 1 << 20).unwrap();
    assert!(
        matches!(decode_response(&reply).unwrap(), Response::Stats(_)),
        "first pipelined request must be served"
    );
    for i in 1..4 {
        let reply = read_frame(&mut stream, 1 << 20).unwrap();
        assert!(
            matches!(decode_response(&reply).unwrap(), Response::Busy),
            "pipelined frame {i} must be shed with Busy, not stranded"
        );
    }

    // The connection is not wedged: once the slot frees, the very same
    // socket is served again.
    std::thread::sleep(Duration::from_millis(700));
    stream.write_all(&framed).unwrap();
    let reply = read_frame(&mut stream, 1 << 20).unwrap();
    assert!(matches!(
        decode_response(&reply).unwrap(),
        Response::Stats(_)
    ));

    let snap = server.metrics().snapshot();
    assert!(snap.shed_at_loop >= 3, "pop-path sheds must be counted");
    server.shutdown();
}

/// A kill fault must not leak its admission slot: after many kills, the
/// server still admits new connections (the `AdmitGuard` contract).
#[test]
fn killed_workers_do_not_leak_admission_slots() {
    let _chaos = exclusive();
    let config = ServerConfig {
        worker_threads: 2,
        max_pending: 1,
        drain_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let mut server = Server::start(sample_inventory(50), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    configure("serve.worker.kill", Trigger::Always(FaultAction::Kill));
    // Every request meets a kill; with retries exhausted each attempt
    // fails with a transport error. The slots must all be released.
    for seed in 0..6u64 {
        let mut cfg = chaos_client_config(seed);
        cfg.retry.max_attempts = 2;
        cfg.retry.deadline = Duration::from_secs(3);
        let mut client = Client::connect_with(addr, cfg).unwrap();
        // A pool request: it is the worker that dies holding a slot.
        let err = client.stats().unwrap_err();
        assert!(is_retryable_kind(&err), "unexpected error: {err}");
    }
    assert!(stats("serve.worker.kill").fired >= 6);

    // Disarmed: the very next connection is admitted and served.
    reset();
    let mut client = Client::connect_with(addr, chaos_client_config(42)).unwrap();
    client.stats().unwrap();
    assert_eq!(
        server.metrics().snapshot().busy_rejections,
        0,
        "kills leaked admission slots into Busy shedding"
    );
    server.shutdown();
}

/// A request the loop answers itself dies like a pool request dies: an
/// `Err` fault and a `Kill` fault (a panic on the loop thread, contained)
/// each close the connection they hit without a reply — the frames
/// pipelined behind the dead one included — while the loop, and a second
/// connection that was open all along, keep answering correctly.
#[test]
fn a_fault_on_a_loop_request_closes_only_its_connection() {
    let _chaos = exclusive();
    const N: usize = 200;
    let reference = sample_inventory(N);
    let mut server =
        Server::start(sample_inventory(N), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut bystander = Client::connect_with(addr, chaos_client_config(3)).unwrap();
    let mut check_bystander = |round: &str| {
        for i in 0..20usize {
            let pos = LatLon::new(-50.0 + (i % 101) as f64, -160.0 + (i % 320) as f64).unwrap();
            let got = bystander.point_summary(pos.lat(), pos.lon()).unwrap();
            assert_eq!(
                stats_bytes(got.as_ref()),
                stats_bytes(reference.summary(cell_at(pos, res()))),
                "bystander answer {i} {round}"
            );
        }
    };
    check_bystander("before any fault");

    let point = pol_serve::proto::encode_request(&Request::PointSummary {
        lat: -50.0,
        lon: -160.0,
    });
    let mut burst = Vec::new();
    for _ in 0..3 {
        write_frame(&mut burst, &point).unwrap();
    }
    for action in [FaultAction::Err, FaultAction::Kill] {
        configure("serve.worker.kill", Trigger::OneShot(action));
        let mut victim = std::net::TcpStream::connect(addr).unwrap();
        victim
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        victim.write_all(&burst).unwrap();
        // No reply to the dead request nor to the two behind it: the
        // next thing the peer sees is the close.
        match read_frame(&mut victim, 1 << 20) {
            Err(ProtoError::ConnectionClosed) => {}
            Err(ProtoError::Io(e)) => assert_ne!(
                e.kind(),
                std::io::ErrorKind::WouldBlock,
                "{action:?}: the connection was left open"
            ),
            other => panic!("{action:?}: expected a close, got {other:?}"),
        }
        assert_eq!(
            stats("serve.worker.kill").fired,
            1,
            "{action:?} never fired"
        );
        check_bystander(&format!("after {action:?}"));
    }

    // The loop thread took a panic and is still the loop: new
    // connections are accepted and pool requests still complete.
    let mut fresh = Client::connect_with(addr, chaos_client_config(4)).unwrap();
    fresh.ping().unwrap();
    let report = fresh.stats().unwrap();
    assert_eq!(report.open_connections, 2, "only the victims were closed");
    server.shutdown();
}

/// One frame per request, back to back: what a pipelining client writes
/// in one go.
fn burst_of(requests: &[Request]) -> Vec<u8> {
    let mut burst = Vec::new();
    for req in requests {
        write_frame(&mut burst, &encode_request(req)).unwrap();
    }
    burst
}

fn connect_raw(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    stream
}

/// A frame of everything `serve_heavy` batches: two scans, an estimate,
/// a prediction.
fn heavy_batch(i: usize) -> Request {
    let (lat, lon) = (-50.0 + (i % 101) as f64, -160.0 + (i % 320) as f64);
    Request::Batch(vec![
        Request::BboxScan {
            min_lat: -60.0,
            min_lon: -170.0,
            max_lat: 60.0,
            max_lon: 170.0,
        },
        Request::TopDestinationCells {
            dest: (i % 8) as u16,
            segment: None,
        },
        Request::Eta {
            lat,
            lon,
            segment: None,
            route: None,
        },
        Request::PredictDestination {
            segment: None,
            top_n: 3,
            track: vec![(lat, lon), (lat + 1.0, lon + 1.0)],
        },
    ])
}

/// Completions out of order: the first pool request of a pipelined burst
/// is delayed on its worker, so every pool request behind it finishes
/// first and every lookup between them is answered at once — and the
/// replies still arrive one per request, in request order, each the
/// in-process answer.
#[test]
fn replies_keep_request_order_when_the_first_job_finishes_last() {
    let _chaos = exclusive();
    const N: usize = 300;
    let in_process = InventoryService::new(sample_inventory(N), Arc::new(ServerMetrics::new()));
    let config = ServerConfig {
        worker_threads: 3,
        ..ServerConfig::default()
    };
    let mut server = Server::start(sample_inventory(N), "127.0.0.1:0", config).unwrap();
    configure(
        "serve.worker.kill",
        Trigger::NthHit {
            n: 1,
            action: FaultAction::Delay(Duration::from_millis(400)),
        },
    );

    let point = |i: usize| Request::PointSummary {
        lat: -50.0 + i as f64,
        lon: -160.0 + i as f64,
    };
    let requests = [
        heavy_batch(1), // sleeps on its worker
        point(3),
        heavy_batch(2),
        Request::Ping,
        Request::Eta {
            lat: -47.0,
            lon: -157.0,
            segment: None,
            route: None,
        },
        point(4),
        heavy_batch(5),
        Request::Health,
        heavy_batch(6),
        point(9),
    ];
    let mut stream = connect_raw(server.local_addr());
    let started = Instant::now();
    // The first frame alone, so that its worker is the first to meet the
    // failpoint; then the rest in one burst.
    stream.write_all(&burst_of(&requests[..1])).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    stream.write_all(&burst_of(&requests[1..])).unwrap();
    for (i, req) in requests.iter().enumerate() {
        let reply = read_frame(&mut stream, 1 << 20).unwrap();
        assert_eq!(
            reply,
            encode_response(&in_process.execute(req)),
            "reply {i} to {req:?}"
        );
        if i == 0 {
            assert!(
                started.elapsed() >= Duration::from_millis(400),
                "the first reply did not wait for its delayed job"
            );
        }
    }
    assert_eq!(stats("serve.worker.kill").fired, 1);
    // Everything behind the delayed job was done when it finished: the
    // replies were waiting, not the work.
    assert!(
        started.elapsed() < Duration::from_millis(1_500),
        "the burst took {:?}",
        started.elapsed()
    );
    server.shutdown();
}

/// A shed in the middle of a pipeline takes its turn like any reply:
/// with one admission slot left when the burst arrives, the pool request
/// that gets it is served, the two that do not are answered `Busy`, and
/// the lookups between them are answered — all in request order, on a
/// connection that stays open.
#[test]
fn a_shed_in_the_middle_of_a_pipeline_takes_its_turn() {
    let _chaos = exclusive();
    let config = ServerConfig {
        worker_threads: 2,
        max_pending: 0, // two admission slots
        ..ServerConfig::default()
    };
    let mut server = Server::start(sample_inventory(50), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    // Every pool job keeps its admission slot for a while after it has
    // answered: another connection's takes one of the two...
    configure(
        "serve.worker.slot_hold",
        Trigger::Always(FaultAction::Delay(Duration::from_millis(500))),
    );
    Client::connect_with(addr, chaos_client_config(11))
        .unwrap()
        .stats()
        .unwrap();

    // ...the burst's first pool request takes the other, and the rest of
    // the burst meets a full cap.
    let mut stream = connect_raw(addr);
    let requests = [
        Request::Stats,
        Request::Ping,
        Request::Stats,
        Request::Health,
        Request::Stats,
        Request::Ready,
    ];
    stream.write_all(&burst_of(&requests)).unwrap();
    let replies: Vec<Response> = (0..requests.len())
        .map(|_| decode_response(&read_frame(&mut stream, 1 << 20).unwrap()).unwrap())
        .collect();
    assert!(
        matches!(
            replies[..],
            [
                Response::Stats(_),
                Response::Pong,
                Response::Busy,
                Response::Health(_),
                Response::Busy,
                Response::Ready(true)
            ]
        ),
        "{replies:?}"
    );
    assert_eq!(server.metrics().snapshot().shed_at_loop, 2);

    // Shed from, not closed: once the slots are free it is served again.
    reset();
    std::thread::sleep(Duration::from_millis(600));
    stream.write_all(&burst_of(&requests[..2])).unwrap();
    for expect_stats in [true, false] {
        let reply = decode_response(&read_frame(&mut stream, 1 << 20).unwrap()).unwrap();
        assert_eq!(
            matches!(reply, Response::Stats(_)),
            expect_stats,
            "{reply:?}"
        );
    }
    server.shutdown();
}

/// A malformed frame behind two requests still on the pool gets its
/// typed error after their replies, then the close; the frame behind it
/// is never answered.
#[test]
fn a_malformed_frame_behind_two_running_requests_waits_its_turn() {
    let _chaos = exclusive();
    let config = ServerConfig {
        worker_threads: 3,
        ..ServerConfig::default()
    };
    let mut server = Server::start(sample_inventory(50), "127.0.0.1:0", config).unwrap();
    // The two pool jobs sleep; the malformed frame is on the loop at once.
    configure(
        "serve.worker.kill",
        Trigger::Always(FaultAction::Delay(Duration::from_millis(300))),
    );
    let mut stream = connect_raw(server.local_addr());
    let mut burst = burst_of(&[Request::Stats, heavy_batch(3)]);
    write_frame(&mut burst, &[0xEE, 0xEE, 0xEE]).unwrap();
    burst.extend_from_slice(&burst_of(&[Request::Stats]));
    let started = Instant::now();
    stream.write_all(&burst).unwrap();
    let replies: Vec<Response> = (0..3)
        .map(|_| decode_response(&read_frame(&mut stream, 1 << 20).unwrap()).unwrap())
        .collect();
    assert!(
        matches!(
            replies[..],
            [Response::Stats(_), Response::Batch(_), Response::Error(_)]
        ),
        "{replies:?}"
    );
    assert!(started.elapsed() >= Duration::from_millis(300));
    assert!(matches!(
        read_frame(&mut stream, 1 << 20),
        Err(ProtoError::ConnectionClosed)
    ));
    assert_eq!(server.metrics().snapshot().malformed_frames, 1);
    server.shutdown();
}

/// A worker killed in the middle of a pipeline closes the connection:
/// whatever replies reach the peer first are the first ones owed, in
/// order, and the next thing it sees is the close — not a reply out of
/// turn and not a wedged socket — while the server goes on serving.
#[test]
fn a_worker_killed_mid_pipeline_closes_the_connection_in_order() {
    let _chaos = exclusive();
    let in_process = InventoryService::new(sample_inventory(100), Arc::new(ServerMetrics::new()));
    let config = ServerConfig {
        worker_threads: 3,
        ..ServerConfig::default()
    };
    let mut server = Server::start(sample_inventory(100), "127.0.0.1:0", config).unwrap();
    // The third pool job to start is killed.
    configure(
        "serve.worker.kill",
        Trigger::NthHit {
            n: 3,
            action: FaultAction::Kill,
        },
    );
    let requests: Vec<Request> = (0..6).map(heavy_batch).collect();
    let mut stream = connect_raw(server.local_addr());
    stream.write_all(&burst_of(&requests)).unwrap();
    let mut answered = 0;
    loop {
        match read_frame(&mut stream, 1 << 20) {
            Ok(reply) => {
                assert_eq!(
                    reply,
                    encode_response(&in_process.execute(&requests[answered])),
                    "reply {answered} out of turn"
                );
                answered += 1;
            }
            Err(ProtoError::ConnectionClosed) => break,
            Err(ProtoError::Io(e)) if e.kind() != std::io::ErrorKind::WouldBlock => break,
            Err(e) => panic!("the connection was left open: {e}"),
        }
    }
    assert!(answered < 3, "{answered} replies passed the killed request");
    assert_eq!(stats("serve.worker.kill").fired, 1);
    reset();
    let mut client = Client::connect_with(server.local_addr(), chaos_client_config(5)).unwrap();
    client.stats().unwrap();
    server.shutdown();
}

/// What pipelining is for: one connection, two workers, sixteen heavy
/// batches in one burst, every job held for a fixed time on its worker —
/// the burst takes about eight holds, not sixteen, so both workers ran
/// that connection's frames at once; and the replies are in order.
#[test]
fn one_connection_keeps_every_worker_busy() {
    let _chaos = exclusive();
    const HOLD: Duration = Duration::from_millis(60);
    const FRAMES: usize = 16;
    let in_process = InventoryService::new(sample_inventory(200), Arc::new(ServerMetrics::new()));
    let config = ServerConfig {
        worker_threads: 2,
        ..ServerConfig::default()
    };
    let mut server = Server::start(sample_inventory(200), "127.0.0.1:0", config).unwrap();
    configure(
        "serve.worker.kill",
        Trigger::Always(FaultAction::Delay(HOLD)),
    );
    let requests: Vec<Request> = (0..FRAMES).map(heavy_batch).collect();
    let mut stream = connect_raw(server.local_addr());
    let started = Instant::now();
    stream.write_all(&burst_of(&requests)).unwrap();
    for (i, req) in requests.iter().enumerate() {
        let reply = read_frame(&mut stream, 1 << 20).unwrap();
        assert_eq!(
            reply,
            encode_response(&in_process.execute(req)),
            "reply {i}"
        );
    }
    let took = started.elapsed();
    assert_eq!(stats("serve.worker.kill").fired, FRAMES as u64);
    assert!(
        took >= HOLD * (FRAMES as u32 / 2),
        "{took:?}: the holds did not happen"
    );
    assert!(
        took < HOLD * (FRAMES as u32 * 3 / 4),
        "{took:?} for {FRAMES} frames of {HOLD:?} on two workers: they ran one at a time"
    );
    server.shutdown();
}

/// A hot reload whose mapping fails (`serve.reload.map`) is refused like
/// a corrupt link: `reloads_failed` counts it, the served chain keeps
/// answering and stays the one remembered, so the retry maps one link.
#[test]
fn a_failed_map_on_reload_keeps_the_old_chain_serving_and_remembered() {
    use pol_core::codec::manifest;
    use pol_stream::DeltaPublisher;
    let _chaos = exclusive();
    let dir = std::env::temp_dir().join(format!("pol-serve-chaos-map-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let mut publisher = DeltaPublisher::create(&dir);
    publisher.publish(&sample_inventory(300)).unwrap();
    publisher.publish(&sample_inventory(120)).unwrap();
    let path = publisher.manifest_path().to_path_buf();
    let mut server = Server::start_snapshot(&path, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let positions: Vec<(f64, f64)> = (0..300usize)
        .step_by(11)
        .map(|i| (-50.0 + (i % 101) as f64, -160.0 + (i % 320) as f64))
        .collect();
    let answers = |client: &mut Client| -> Vec<Option<Vec<u8>>> {
        let found = client.point_summaries(&positions).unwrap();
        found.iter().map(|s| stats_bytes(s.as_ref())).collect()
    };
    let before = answers(&mut client);

    publisher.publish(&sample_inventory(500)).unwrap();
    configure("serve.reload.map", Trigger::OneShot(FaultAction::Err));
    assert!(server.reload_from(&path).is_err());
    assert_eq!(stats("serve.reload.map").fired, 1);
    let report = client.stats().unwrap();
    assert_eq!((report.reloads_ok, report.reloads_failed), (0, 1));
    assert_eq!((report.chain_len, report.delta_generation), (2, 1));
    assert_eq!(answers(&mut client), before);

    server.reload_from(&path).unwrap();
    let report = client.stats().unwrap();
    assert_eq!((report.chain_len, report.delta_generation), (3, 2));
    let latest = report.stages.lines().last().unwrap_or_default();
    assert!(latest.starts_with("chain-extend"), "{}", report.stages);
    let (merged, _) = manifest::load_chain(&path).unwrap();
    let want: Vec<Option<Vec<u8>>> = positions
        .iter()
        .map(|&(lat, lon)| {
            stats_bytes(merged.summary(cell_at(LatLon::new(lat, lon).unwrap(), res())))
        })
        .collect();
    assert_eq!(answers(&mut client), want);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
