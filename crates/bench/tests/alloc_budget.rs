//! Allocation-budget regression gate for the fused build path.
//!
//! Installs [`pol_bench::alloc::CountingAlloc`] as the test binary's
//! global allocator, warms a fused engine once (first run pays for the
//! per-worker scratch, thread-local buffers and sketch spill vectors),
//! then pins the *steady-state* allocation count of a full fused build.
//! The committed baseline before the scratch-arena rewrite was 401,610
//! allocations for 40 vessels over 7 days (295 k reports); the budget here is
//! more than an order of magnitude below that, scaled to the smaller
//! test workload — a regression that reintroduces per-vessel or
//! per-record allocation blows through it immediately.

use pol_ais::encode::{encode_position_a, encode_position_b, encode_static_voyage};
use pol_ais::{
    decode_payload, Assembler, Mmsi, NavStatus, PositionReport, Sentence, ShipTypeCode,
    StaticReport,
};
use pol_bench::alloc::{snapshot, CountingAlloc};
use pol_bench::port_sites;
use pol_core::codec::columnar;
use pol_core::PipelineConfig;
use pol_engine::Engine;
use pol_fleetsim::emit::EmissionConfig;
use pol_fleetsim::scenario::{generate, ScenarioConfig};
use pol_geo::LatLon;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The serve suites' heap oracle: what a server answers, computed on the
/// heap inventory.
#[path = "../../serve/tests/oracle/mod.rs"]
mod oracle;

/// Steady-state allocated bytes of one build of [`scenario`], with the
/// count budget's 2× headroom over the measured value: 7.75 MB (the
/// cloned input is 2.6 MB of it; 15.8 MB when summaries moved by value).
const FUSED_BYTES_BUDGET: u64 = 15_500_000;

/// Held by every test here that runs a build. The fused budget reads a
/// process-wide counter, so a build beside it on its own engine threads
/// would land in its delta (one such run read 21.2 MB against the
/// 15.5 MB budget).
static BUILDS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn builds_alone() -> std::sync::MutexGuard<'static, ()> {
    BUILDS.lock().unwrap_or_else(|p| p.into_inner())
}

/// Ten vessels over three days: some 30 k reports.
fn scenario() -> ScenarioConfig {
    ScenarioConfig {
        seed: 42,
        n_vessels: 10,
        duration_days: 3,
        emission: EmissionConfig {
            interval_scale: 10.0,
            ..EmissionConfig::default()
        },
        ..ScenarioConfig::default()
    }
}

#[test]
fn fused_steady_state_allocations_stay_pinned() {
    let _alone = builds_alone();
    let ds = generate(&scenario());
    let raw: u64 = ds.positions.iter().map(|p| p.len() as u64).sum();
    assert!(raw > 10_000, "workload too small to be meaningful: {raw}");
    let cfg = PipelineConfig::default();

    let engine = Engine::new(2);
    // Warm-up: first run allocates the per-worker scratch arenas.
    let ports = port_sites(cfg.port_radius_km);
    let fused =
        || pol_core::run_fused(&engine, ds.positions.clone(), &ds.statics, &ports, &cfg).unwrap();
    let warm = fused();

    // Steady state: same engine, warm scratch.
    let before = snapshot();
    let steady = fused();
    let delta = snapshot().since(before);

    // Same bytes both times — the reuse must not leak state across runs.
    assert_eq!(
        columnar::to_bytes(&warm.inventory),
        columnar::to_bytes(&steady.inventory),
        "scratch reuse changed the inventory"
    );

    // The budget: the pre-rewrite fused path spent ~401k allocations on a
    // workload ~5x this size (~28k scaled); steady state now runs in the
    // low thousands. 2x headroom over the measured count keeps the gate
    // insensitive to hash-map growth jitter without letting per-record
    // allocation creep back in.
    eprintln!(
        "fused steady-state: {} allocs, {} bytes for {raw} records",
        delta.allocs, delta.bytes
    );
    assert!(
        delta.allocs < 5_000,
        "fused steady-state allocation budget exceeded: {} allocs for {raw} records",
        delta.allocs
    );
    // Bytes, not only calls: a summary moved by value costs no call, only
    // its 2 KB in every vector and map it passes through.
    assert!(
        delta.bytes < FUSED_BYTES_BUDGET,
        "fused steady-state allocated-bytes budget exceeded: {} bytes for {raw} records",
        delta.bytes
    );
}

/// Runs `f` and returns what it allocated. Counted on this thread only
/// (`CountingAlloc` feeds the engine's thread-local profile counters), so
/// the tests running beside this one do not show.
fn allocs_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = pol_engine::profile::thread_totals().0;
    let out = f();
    (pol_engine::profile::thread_totals().0 - before, out)
}

#[test]
fn wire_decode_allocations_stay_pinned() {
    // One hand-made report, not the scenario: the build budget above reads
    // a process-wide counter while this test runs beside it.
    let report = PositionReport {
        mmsi: Mmsi(235_087_123),
        timestamp: 1_650_000_037,
        pos: LatLon::new(50.123_456, -1.987_654).expect("in range"),
        sog_knots: Some(14.3),
        cog_deg: Some(237.4),
        heading_deg: None,
        nav_status: NavStatus::UnderWayUsingEngine,
    };
    let (type1, fill) = encode_position_a(&report);
    let (type18, _) = encode_position_b(&report);
    // Types 2 and 3 are type 1 under another number in the first six bits.
    let retyped = |digit: &str| format!("{digit}{}", type1.get(1..).unwrap_or_default());
    for payload in [type1.clone(), retyped("2"), retyped("3"), type18] {
        let (allocs, message) = allocs_of(|| decode_payload(&payload, fill));
        assert!(
            message.as_ref().is_ok_and(|m| m.is_positional()),
            "{payload}: {message:?}"
        );
        assert_eq!(allocs, 0, "decode_payload({payload}) allocated");
    }

    // A single-fragment payload is handed back as a slice of the line.
    let line = Sentence::wrap(&type1, fill, 0).remove(0).to_line();
    let mut assembler = Assembler::new();
    let (allocs, assembled) = allocs_of(|| assembler.push(Sentence::parse(&line).ok()?));
    assert_eq!(assembled, Some((type1.as_str(), fill)));
    assert_eq!(
        allocs, 0,
        "parse + push of a single-fragment line allocated"
    );

    // A two-fragment type 5 is joined in the assembler's own buffers:
    // after one message has sized them, the next allocates nothing.
    let statics = StaticReport {
        mmsi: report.mmsi,
        imo: Some(9_412_345),
        name: "POL QUICKSILVER".into(),
        ship_type: ShipTypeCode(71),
        gross_tonnage: 95_000,
    };
    let (type5, fill5) = encode_static_voyage(&statics, "NLRTM", 12.5);
    let lines: Vec<String> = Sentence::wrap(&type5, fill5, 3)
        .iter()
        .map(Sentence::to_line)
        .collect();
    assert_eq!(lines.len(), 2, "type 5 spans two sentences");
    let assemble = |assembler: &mut Assembler| {
        let mut complete = None;
        for line in &lines {
            if let Some((payload, fill)) = assembler.push(Sentence::parse(line).ok()?) {
                complete = Some((payload == type5, fill));
            }
        }
        complete
    };
    assert_eq!(assemble(&mut assembler), Some((true, fill5)), "warm-up");
    let (allocs, assembled) = allocs_of(|| assemble(&mut assembler));
    assert_eq!(assembled, Some((true, fill5)));
    assert_eq!(
        allocs, 0,
        "parse + push of a warm two-fragment message allocated"
    );
}

/// A frame's ETA and prediction children, answered into a warm reply
/// buffer from a mapped fleetsim snapshot: the estimators read the
/// fields they need straight off the mapped bytes, rank in place and
/// write the reply where it goes, so neither allocates (an ETA built a
/// quantile sketch's tuple vector, a four-point prediction ten vectors
/// and a hash map); and each reply is the heap inventory's answer.
#[test]
fn eta_and_prediction_children_allocate_nothing() {
    use pol_core::features::GroupKey;
    use pol_hexgrid::cell_center;
    use pol_serve::proto::decode_response;
    use pol_serve::{InventoryService, Request, Response, ServerConfig, ServerMetrics};
    use std::sync::Arc;

    let _alone = builds_alone();
    let ds = generate(&ScenarioConfig::tiny());
    let cfg = PipelineConfig::default();
    let ports = port_sites(cfg.port_radius_km);
    let built = pol_core::run_fused(&Engine::new(2), ds.positions, &ds.statics, &ports, &cfg)
        .expect("the scenario builds");
    let dir = std::env::temp_dir().join(format!("pol-alloc-budget-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    let path = dir.join("inv.pol3");
    columnar::save(&built.inventory, &path).expect("saved");
    let service = InventoryService::open_snapshot(
        &path,
        &ServerConfig::default(),
        Arc::new(ServerMetrics::new()),
    )
    .expect("maps");
    assert!(service.store().is_mapped(), "served from a live mapping");

    let centre = |c| {
        let p = cell_center(c);
        (p.lat(), p.lon())
    };
    let answer = |req: &Request| {
        decode_response(&oracle::reply(&built.inventory, req)).expect("the oracle's reply decodes")
    };
    let mut routes: Vec<_> = (built.inventory.iter())
        .filter_map(|(key, _)| match *key {
            GroupKey::CellRoute(c, o, d, s) => Some((c.raw(), o, d, s.id(), c, s)),
            _ => None,
        })
        .collect();
    routes.sort_unstable_by_key(|r| (r.0, r.1, r.2, r.3));
    let etas = routes.iter().map(|&(_, origin, dest, _, cell, segment)| {
        let (lat, lon) = centre(cell);
        Request::Eta {
            lat,
            lon,
            segment: Some(segment),
            route: Some((origin, dest)),
        }
    });
    // An estimate from the vessel's own cell: a widening walks grid
    // disks, which build their own sets.
    let eta = etas
        .filter(|req| matches!(answer(req), Response::Eta(Some(e)) if e.widened == 0))
        .nth(3)
        .expect("an estimate from a cell's own route summary");
    let track = routes
        .iter()
        .step_by(7)
        .take(4)
        .map(|r| centre(r.4))
        .collect();
    let predict = Request::PredictDestination {
        segment: None,
        top_n: 3,
        track,
    };
    assert!(
        matches!(answer(&predict), Response::Destinations(ref d) if !d.is_empty()),
        "the track votes"
    );

    let mut out = Vec::new();
    for (name, req) in [("eta", &eta), ("four-point prediction", &predict)] {
        // Warm-up: sizes the reply buffer.
        service.execute_into(req, &mut out);
        out.clear();
        let (allocs, ()) = allocs_of(|| service.execute_into(req, &mut out));
        assert_eq!(allocs, 0, "an {name} child allocated");
        assert_eq!(out, oracle::reply(&built.inventory, req), "{name}");
        out.clear();
    }
    std::fs::remove_dir_all(&dir).ok();
}
