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

use pol_ais::encode::{encode_position_a, encode_position_b};
use pol_ais::{decode_payload, Assembler, Mmsi, NavStatus, PositionReport, Sentence};
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

/// Steady-state allocated bytes of one build of [`scenario`], with the
/// count budget's 2× headroom over the measured value: 7.75 MB (the
/// cloned input is 2.6 MB of it; 15.8 MB when summaries moved by value).
const FUSED_BYTES_BUDGET: u64 = 15_500_000;

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

    let line = Sentence::wrap(&type1, fill, 0).remove(0).to_line();
    let mut assembler = Assembler::new();
    let (allocs, assembled) = allocs_of(|| assembler.push(Sentence::parse(&line).ok()?));
    assert_eq!(assembled, Some((type1, fill)));
    assert!(
        allocs <= 1,
        "parse + push of a single-fragment line: {allocs} allocations"
    );
}
