//! `serve_lookup` and `serve_heavy`: a server child process (mmap store,
//! reactor core, defaults otherwise) driven over loopback from `nproc`
//! connections, each keeping [`DEPTH`] frames in flight, every response's
//! bytes compared with what the in-memory `Inventory` answers.

use crate::env::{self, ProcSnapshot};
use crate::estimate::{median, quantile};
use crate::harness::{self, WARMUP};
use crate::names;
use crate::pools::{heavy_pool, lookup_pool, Pool};
use crate::scenario::Inputs;
use crate::wire::{build_snapshot, oracle_answer, server_config, Conn, ServerChild};
use crate::{trace, Outcome};
use pol_core::codec::{self, columnar};
use pol_core::Inventory;
use pol_engine::Engine;
use pol_serve::proto::{decode_response, encode_request};
use pol_serve::{Client, InventoryService, Request, ServerMetrics};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frames each connection keeps in flight. The server queues up to
/// `MAX_PENDING_FRAMES` = 32 per connection, and runs one frame of a
/// connection at a time, so depth only keeps its queue full. Ping-pong
/// (depth 1) is bound by thread wake-ups and is a per-layer metric.
pub const DEPTH: usize = 16;
/// Length of one window; throughput is the median window's.
const WINDOW: Duration = Duration::from_secs(1);
/// Kill -> start -> first verified answer cycles after the windows.
const RESTARTS: usize = 9;

// ---------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------

/// What one connection saw.
#[derive(Default)]
struct ConnResult {
    /// Per window, the latency in microseconds of each frame answered in it.
    window_latencies_us: Vec<Vec<f32>>,
    attempted: u64,
    failed: u64,
    response_bytes: u64,
}

/// Closed loop, `DEPTH` frames in flight: every response read is checked
/// and replaced by the pool's next frame. Frames answered before `t0` are
/// the warm-up; frames answered in `[t0, t0 + windows x WINDOW)` are
/// counted in the window they completed in.
fn drive_connection(
    addr: SocketAddr,
    pool: &Pool,
    first: usize,
    t0: Instant,
    windows: usize,
) -> Result<ConnResult, String> {
    let io = |e: std::io::Error| format!("load connection: {e}");
    let mut conn = Conn::connect(addr).map_err(io)?;
    let mut result = ConnResult {
        window_latencies_us: vec![Vec::new(); windows],
        ..ConnResult::default()
    };
    let end = t0 + WINDOW * windows as u32;
    let mut in_flight: VecDeque<(usize, Instant)> = VecDeque::with_capacity(DEPTH);
    let mut next = first % pool.payloads.len();
    for _ in 0..DEPTH {
        conn.queue(&pool.payloads[next]).map_err(io)?;
        in_flight.push_back((next, Instant::now()));
        next = (next + 1) % pool.payloads.len();
    }
    conn.flush().map_err(io)?;
    while let Some((idx, sent)) = in_flight.pop_front() {
        let reply = conn.recv().map_err(io)?;
        let now = Instant::now();
        result.attempted += 1;
        // Busy, an error reply and wrong bytes all differ from the
        // expected bytes.
        if reply != pool.expected[idx] {
            result.failed += 1;
        }
        if now >= t0 && now < end {
            let w = ((now - t0).as_nanos() / WINDOW.as_nanos()) as usize;
            result.window_latencies_us[w.min(windows - 1)]
                .push((now - sent).as_secs_f64() as f32 * 1e6);
            result.response_bytes += reply.len() as u64;
        }
        if now < end {
            conn.queue(&pool.payloads[next]).map_err(io)?;
            conn.flush().map_err(io)?;
            in_flight.push_back((next, Instant::now()));
            next = (next + 1) % pool.payloads.len();
        }
    }
    Ok(result)
}

/// The whole load: `nproc` connections from this one process.
struct Load {
    /// Verified frames per second in each window.
    window_fps: Vec<f64>,
    /// Share of machine time the hypervisor stole in each window.
    window_steal: Vec<f64>,
    /// Every frame's latency, all windows together.
    latencies_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    response_bytes: u64,
}

fn drive(addr: SocketAddr, pool: &Pool, windows: usize) -> Result<Load, String> {
    let connections = env::nproc();
    let t0 = Instant::now() + WARMUP;
    let mut window_steal = Vec::with_capacity(windows);
    let per_conn: Vec<Result<ConnResult, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let first = c * pool.payloads.len() / connections;
                s.spawn(move || drive_connection(addr, pool, first, t0, windows))
            })
            .collect();
        // Meanwhile this thread reads `/proc/stat` at every window's edge:
        // what share of the machine the hypervisor took in each window.
        std::thread::sleep(t0.saturating_duration_since(Instant::now()));
        let mut before = ProcSnapshot::take(None);
        for w in 1..=windows {
            std::thread::sleep((t0 + WINDOW * w as u32).saturating_duration_since(Instant::now()));
            let now = ProcSnapshot::take(None);
            window_steal.push(now.steal_share_since(&before));
            before = now;
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("load thread panicked".into()))
            })
            .collect()
    });
    let mut load = Load {
        window_fps: Vec::new(),
        window_steal,
        latencies_us: Vec::new(),
        attempted: 0,
        failed: 0,
        response_bytes: 0,
    };
    load.window_fps = vec![0.0; windows];
    for conn in per_conn {
        let conn = conn?;
        for (w, latencies) in conn.window_latencies_us.iter().enumerate() {
            let latencies: Vec<f64> = latencies.iter().map(|l| f64::from(*l)).collect();
            load.window_fps[w] += latencies.len() as f64 / WINDOW.as_secs_f64();
            load.latencies_us.extend(latencies);
        }
        load.attempted += conn.attempted;
        load.failed += conn.failed;
        load.response_bytes += conn.response_bytes;
    }
    Ok(load)
}

// ---------------------------------------------------------------------
// The workloads
// ---------------------------------------------------------------------

/// Everything set-up hands to the measurement.
struct Ready {
    inventory: Inventory,
    snapshot_path: PathBuf,
    snapshot_bytes: u64,
    entries: u64,
    pool: Pool,
    child: ServerChild,
}

/// Inputs in memory -> a verified pool and a child serving the snapshot.
fn set_up(inputs: &Inputs, heavy: bool, seed: u64, dir: &Path) -> Result<Ready, String> {
    let engine = Engine::new(env::nproc());
    let (inventory, bytes) = build_snapshot(&engine, inputs)?;
    let snapshot_path = dir.join("inventory.pol3");
    codec::save_bytes(&bytes, &snapshot_path).map_err(|e| format!("save snapshot: {e}"))?;
    let child = ServerChild::spawn(&snapshot_path, false)?;
    let pool = if heavy {
        heavy_pool(&inventory, seed)
    } else {
        lookup_pool(&inventory, seed)
    };
    Ok(Ready {
        entries: inventory.len() as u64,
        inventory,
        snapshot_path,
        snapshot_bytes: bytes.len() as u64,
        pool,
        child,
    })
}

/// Runs `serve_lookup` (`heavy == false`) or `serve_heavy`.
pub fn run(
    heavy: bool,
    inputs: &Inputs,
    seed: u64,
    seconds: u64,
    traced: bool,
    scratch: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // Set-up, several times over; the last one is kept and measured.
    let (ready, setups) = harness::set_up(|| set_up(inputs, heavy, seed, scratch))?;
    let Ready {
        inventory,
        snapshot_path,
        snapshot_bytes,
        entries,
        pool,
        mut child,
    } = ready;
    let setup_s = median(&setups) + WARMUP.as_secs_f64();

    // The timed region: warm-up, then the windows. A traced run spends
    // half its windows untraced first (spans off, a child that does not
    // count allocations), so that the two halves give the overhead.
    let mut windows = names::serve_windows(seconds);
    let mut untraced_fps = None;
    if traced {
        windows = (windows / 2).max(2);
        let plain = drive(child.addr, &pool, windows)?;
        out.attempted += plain.attempted;
        out.failed += plain.failed;
        untraced_fps = Some(median(&plain.window_fps));
        child.kill();
        child = ServerChild::spawn(&snapshot_path, true)?;
        trace::set_enabled(true);
    }
    let stats_before = server_stats(child.addr)?;
    let proc_before = ProcSnapshot::take(Some(child.pid()));
    let (load, load_s) = {
        let _root = trace::start("bench.timed", 0);
        trace::timed("serve.load", 0, || drive(child.addr, &pool, windows))
    };
    let load = load?;
    let proc_after = ProcSnapshot::take(Some(child.pid()));
    let stats_after = server_stats(child.addr)?;
    let (child_allocs, child_alloc_bytes) = child.counters();
    let peak_rss_mb = env::peak_rss_mb(Some(child.pid()));
    out.attempted += load.attempted;
    out.failed += load.failed;

    // Restarts: kill -> start -> first verified answer, best of N.
    let mut restarts_ms = Vec::with_capacity(RESTARTS);
    for rep in 0..RESTARTS {
        let _root = trace::start("bench.timed", rep as u32 + 1);
        let t = trace::start("serve.restart", rep as u32);
        child.kill();
        child = ServerChild::spawn(&snapshot_path, false)?;
        let mut conn = Conn::connect(child.addr).map_err(|e| format!("restart connect: {e}"))?;
        let reply = conn
            .exchange(&pool.payloads[0])
            .map_err(|e| format!("restart probe: {e}"))?;
        restarts_ms.push(t.stop() * 1e3);
        out.attempted += 1;
        out.failed += u64::from(reply != pool.expected[0]);
    }
    let restart_ms = restarts_ms.iter().copied().fold(f64::INFINITY, f64::min);

    let frames = (stats_after.total_requests - stats_before.total_requests).max(1) as f64;
    let median_fps = median(&load.window_fps);
    out.end_to_end = vec![
        ("setup_s", setup_s),
        ("throughput_per_s", median_fps),
        ("latency_p50_ms", median(&load.latencies_us) / 1e3),
        ("restart_ms", restart_ms),
        ("peak_rss_mb", peak_rss_mb),
        (
            "bytes_stored_per_record",
            snapshot_bytes as f64 / inputs.records as f64,
        ),
    ];
    out.detail("setups_s", setups.clone().into());
    out.detail("warmup_s", WARMUP.as_secs_f64().into());
    out.detail("windows", windows.into());
    out.detail("window_s", WINDOW.as_secs_f64().into());
    out.detail(
        "window_frames_per_s_quartiles",
        harness::quartiles(&load.window_fps),
    );
    out.detail(
        "latency_us_quartiles",
        harness::quartiles(&load.latencies_us),
    );
    out.detail("window_frames_per_s", load.window_fps.clone().into());
    out.detail("window_steal_share", load.window_steal.clone().into());
    out.detail("frames_in_windows", load.latencies_us.len().into());
    out.detail(
        "best_window_frames_per_s",
        load.window_fps.iter().copied().fold(0.0, f64::max).into(),
    );
    out.detail("restarts_ms", restarts_ms.clone().into());
    out.detail("connections", env::nproc().into());
    out.detail("depth", DEPTH.into());
    out.detail("server_workers", env::nproc().into());
    out.detail("pool_frames", pool.payloads.len().into());
    out.detail(
        "loop",
        "closed: each connection sends its next frame when a response arrives".into(),
    );

    // Per-layer numbers: counters the server keeps, and (traced only) the
    // probes that call one layer at a time.
    let per_frame = |after: u64, before: u64| (after - before) as f64 / frames;
    let (hits, misses) = (
        (stats_after.cache_hits - stats_before.cache_hits) as f64,
        (stats_after.cache_misses - stats_before.cache_misses) as f64,
    );
    out.set_layers(proc_after.layers_since(&proc_before, frames));
    out.set_layers([
        ("trace.timed_wall_s", load_s),
        ("proc.allocs_per_kop", child_allocs as f64 / frames * 1e3),
        ("proc.alloc_bytes_per_op", child_alloc_bytes as f64 / frames),
        ("fleetsim.generate_s", inputs.generate_s),
        ("codec.snapshot_bytes", snapshot_bytes as f64),
        (
            "codec.bytes_per_entry",
            snapshot_bytes as f64 / entries.max(1) as f64,
        ),
        (
            "serve.ready_events_per_request",
            per_frame(stats_after.ready_events, stats_before.ready_events),
        ),
        (
            "serve.wakeups_per_request",
            per_frame(stats_after.wakeups, stats_before.wakeups),
        ),
        (
            "serve.write_buffer_high_water",
            stats_after.write_buffer_high_water as f64,
        ),
        ("serve.shed_at_loop", stats_after.shed_at_loop as f64),
        ("serve.busy", stats_after.busy_rejections as f64),
        (
            "serve.latency_p99_ms",
            quantile(&load.latencies_us, 0.99) / 1e3,
        ),
        (
            "serve.mapped_lookups_per_request",
            per_frame(stats_after.mapped_lookups, stats_before.mapped_lookups),
        ),
        (
            "serve.mapped_scan_entries_per_request",
            per_frame(
                stats_after.mapped_scan_entries,
                stats_before.mapped_scan_entries,
            ),
        ),
        (
            "serve.cache_hit_share",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        ),
        (
            "serve.response_bytes_per_request",
            load.response_bytes as f64 / load.latencies_us.len().max(1) as f64,
        ),
    ]);
    if let Some(untraced_fps) = untraced_fps {
        let summary = trace::summarize();
        out.layer("trace.unattributed_share", summary.unattributed_share);
        out.layer("trace.overhead_share", 1.0 - median_fps / untraced_fps);
        layer_probes(
            &mut out,
            heavy,
            &inventory,
            &snapshot_path,
            &pool,
            &child,
            seed,
        )?;
        trace::set_enabled(false);
    }
    Ok(out)
}

fn server_stats(addr: SocketAddr) -> Result<pol_serve::StatsReport, String> {
    Client::connect(addr)
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("STATS: {e}"))
}

// ---------------------------------------------------------------------
// Traced only: one layer at a time
// ---------------------------------------------------------------------

/// Requests of one endpoint kind, taken from both pools' material.
fn requests_of(endpoint: &str, lookup: &Pool, heavy: &Pool) -> Vec<Request> {
    let children = heavy.requests.iter().flat_map(|f| match f {
        Request::Batch(children) => children.as_slice(),
        _ => &[],
    });
    let matches = |r: &&Request| match endpoint {
        "point_summary" => matches!(r, Request::PointSummary { .. }),
        "segment_summary" => matches!(r, Request::SegmentSummary { .. }),
        "route_summary" => matches!(r, Request::RouteSummary { .. }),
        "batch32" => matches!(r, Request::Batch(_)),
        "bbox_scan" => matches!(r, Request::BboxScan { .. }),
        "top_destination_cells" => matches!(r, Request::TopDestinationCells { .. }),
        "eta" => matches!(r, Request::Eta { .. }),
        "predict_destination" => matches!(r, Request::PredictDestination { .. }),
        _ => false,
    };
    lookup
        .requests
        .iter()
        .chain(heavy.requests.iter())
        .chain(children)
        .filter(matches)
        .take(PROBE_REQUESTS)
        .cloned()
        .collect()
}

/// Requests per endpoint in each one-at-a-time probe.
const PROBE_REQUESTS: usize = 400;

fn p50_us(samples_s: &[f64]) -> f64 {
    median(samples_s) * 1e6
}

/// The server's endpoint name for one of ours.
fn stats_name(endpoint: &str) -> &str {
    if endpoint == "batch32" {
        "batch"
    } else {
        endpoint
    }
}

/// codec on its own: validate a file image, decode every cell's stats.
pub fn codec_probes(out: &mut Outcome, bytes: &[u8]) -> Result<(), String> {
    let (layout, parse_s) =
        trace::timed("codec.layout_parse", 0, || columnar::Layout::parse(bytes));
    let layout = layout.map_err(|e| format!("Layout::parse: {e}"))?;
    out.layer("codec.layout_parse_ms", parse_s * 1e3);
    if let Some(reader) = columnar::SectionReader::new(bytes, &layout.cell) {
        let (decoded, s) = trace::timed("codec.stats_decode", 0, || {
            (0..reader.len())
                .filter(|&i| std::hint::black_box(reader.decode_stats(i)).is_some())
                .count()
        });
        out.layer("codec.stats_decode_ns", s * 1e9 / decoded.max(1) as f64);
    }
    Ok(())
}

fn layer_probes(
    out: &mut Outcome,
    heavy: bool,
    inventory: &Inventory,
    snapshot_path: &Path,
    own_pool: &Pool,
    child: &ServerChild,
    seed: u64,
) -> Result<(), String> {
    // Both pools: the per-endpoint rows cover all eight kinds whichever
    // workload is traced.
    let other = if heavy {
        lookup_pool(inventory, seed)
    } else {
        heavy_pool(inventory, seed)
    };
    let (lookup, heavy_frames) = if heavy {
        (&other, own_pool)
    } else {
        (own_pool, &other)
    };

    let bytes = std::fs::read(snapshot_path).map_err(|e| format!("read snapshot: {e}"))?;
    codec_probes(out, &bytes)?;

    // serve.proto: encode requests, decode the responses they expect.
    let (_, s) = trace::timed("serve.proto_encode", 0, || {
        for r in &own_pool.requests {
            std::hint::black_box(encode_request(std::hint::black_box(r)));
        }
    });
    out.layer(
        "serve.proto_encode_ns",
        s * 1e9 / own_pool.requests.len() as f64,
    );
    let (_, s) = trace::timed("serve.proto_decode", 0, || {
        for e in &own_pool.expected {
            let _ = std::hint::black_box(decode_response(std::hint::black_box(e)));
        }
    });
    out.layer(
        "serve.proto_decode_ns",
        s * 1e9 / own_pool.expected.len() as f64,
    );

    // serve.execute: the store and the apps without a socket.
    let service = InventoryService::open_snapshot(
        snapshot_path,
        &server_config(),
        Arc::new(ServerMetrics::new()),
    )
    .map_err(|e| format!("open_snapshot: {e}"))?;
    for endpoint in crate::names::ENDPOINTS {
        let requests = requests_of(endpoint, lookup, heavy_frames);
        let _t = trace::start("serve.execute", 0);
        let samples: Vec<f64> = requests
            .iter()
            .map(|r| {
                let t = Instant::now();
                std::hint::black_box(service.execute(std::hint::black_box(r)));
                t.elapsed().as_secs_f64()
            })
            .collect();
        out.layer(
            &format!("serve.execute_us_p50.{endpoint}"),
            p50_us(&samples),
        );
    }

    // apps: the estimators over the in-memory inventory.
    let mut eta_s = Vec::new();
    let mut predict_s = Vec::new();
    for r in requests_of("eta", lookup, heavy_frames)
        .iter()
        .chain(&requests_of("predict_destination", lookup, heavy_frames))
    {
        let name = if matches!(r, Request::Eta { .. }) {
            "apps.eta"
        } else {
            "apps.predict"
        };
        let (_, s) = trace::timed(name, 0, || {
            std::hint::black_box(oracle_answer(inventory, r))
        });
        if name == "apps.eta" {
            eta_s.push(s)
        } else {
            predict_s.push(s)
        }
    }
    out.layer("apps.eta_us_p50", p50_us(&eta_s));
    out.layer("apps.predict_us_p50", p50_us(&predict_s));

    // Ping-pong: one frame at a time against the child the last restart
    // left, which has served nothing else, so its STATS rows are these
    // frames only.
    let mut conn = Conn::connect(child.addr).map_err(|e| format!("ping-pong connect: {e}"))?;
    let mut round_trip = |r: &Request| -> Result<f64, String> {
        let payload = encode_request(r);
        let t = Instant::now();
        conn.exchange(&payload)
            .map_err(|e| format!("ping-pong: {e}"))?;
        Ok(t.elapsed().as_secs_f64())
    };
    let mut own_s = Vec::new();
    for endpoint in crate::names::ENDPOINTS {
        let _t = trace::start("serve.pingpong", 0);
        for r in &requests_of(endpoint, lookup, heavy_frames) {
            let s = round_trip(r)?;
            let own = if heavy {
                endpoint == "batch32"
            } else {
                endpoint.ends_with("_summary")
            };
            if own {
                own_s.push(s);
            }
        }
    }
    let stats = server_stats(child.addr)?;
    let mut recorded_own = Vec::new();
    for endpoint in crate::names::ENDPOINTS {
        let row = stats
            .endpoints
            .iter()
            .find(|e| e.endpoint.name() == stats_name(endpoint));
        let p50 = row.map_or(0.0, |r| r.p50_us);
        out.layer(&format!("serve.server_recorded_us_p50.{endpoint}"), p50);
        let own = if heavy {
            endpoint == "batch32"
        } else {
            endpoint.ends_with("_summary")
        };
        if own {
            recorded_own.push(p50);
        }
    }
    let pingpong_us = p50_us(&own_s);
    let proto_us =
        (out.layers["serve.proto_encode_ns"] + out.layers["serve.proto_decode_ns"]) / 1e3;
    out.layer("serve.pingpong_us_p50", pingpong_us);
    // The gap nobody has named yet: what a lone request costs at the
    // client beyond the server's own span and the client's codec.
    out.layer(
        "serve.unattributed_us",
        pingpong_us
            - recorded_own.iter().sum::<f64>() / recorded_own.len().max(1) as f64
            - proto_us,
    );
    Ok(())
}
