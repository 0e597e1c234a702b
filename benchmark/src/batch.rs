//! `batch_build`: NMEA bytes -> `ais` parse/decode -> `run_fused` ->
//! POLINV3 encode -> `save_bytes` -> `Server::start_snapshot` -> first
//! verified answer. ROADMAP's "wire bytes in -> first correct answer
//! served", repeated; each repetition's bytes must equal the oracle's.

use crate::env::{self, ProcSnapshot};
use crate::estimate::median;
use crate::harness;
use crate::json::obj;
use crate::names;
use crate::scenario::{self, Inputs};
use crate::serve;
use crate::wire::{self, Conn};
use crate::{trace, Outcome};
use pol_core::clean::{enrich_one, order_and_filter_vessel, segment_lookup};
use pol_core::codec::{self, columnar};
use pol_core::fused::fold_projected;
use pol_core::project::project_trip;
use pol_core::records::{CellPoint, EnrichedReport};
use pol_core::trips::{extract_for_vessel, Geofence};
use pol_core::{run_fused, CellStats, Inventory};
use pol_engine::Engine;
use pol_hexgrid::cell_at;
use pol_serve::proto::{encode_request, encode_response};
use pol_serve::{Request, Server};
use std::collections::BTreeMap;
use std::path::Path;

/// Bytes of the wire one warm-up step decodes (a few milliseconds).
const WARMUP_SLICE: usize = 256 * 1024;

/// What a repetition is checked against.
struct Oracle {
    bytes: Vec<u8>,
    entries: u64,
    /// A point summary of the busiest cell, and the bytes it must return.
    probe: Vec<u8>,
    probe_reply: Vec<u8>,
}

/// What one pass over the timed region produced.
struct Rep {
    /// The timed region in order; `open` + `first_answer` is the restart.
    segments: Vec<(String, f64)>,
    decoded: scenario::Decoded,
    bytes: Vec<u8>,
    inventory: Inventory,
    reply: Vec<u8>,
}

impl Rep {
    /// How many of the two outputs (snapshot bytes, first answer) differ
    /// from the oracle's.
    fn wrong(&self, oracle: &Oracle) -> u64 {
        u64::from(self.bytes != oracle.bytes) + u64::from(self.reply != oracle.probe_reply)
    }
}

/// One pass over the timed region; `probe` is the first request sent to
/// the freshly opened server.
fn repetition(
    rep: u32,
    wire: &str,
    inputs: &Inputs,
    engine: &Engine,
    probe: &[u8],
    path: &Path,
) -> Result<Rep, String> {
    engine.metrics().clear();
    let root = trace::start("bench.timed", rep);
    let (mut decoded, s_decode) =
        trace::timed("ais.wire", rep, || scenario::decode_wire(wire, rep));
    let partitions = std::mem::take(&mut decoded.partitions);
    let (built, s_fused) = trace::timed("core.run_fused", rep, || {
        run_fused(
            engine,
            partitions,
            &inputs.statics,
            &inputs.ports,
            &inputs.cfg,
        )
    });
    let built = built.map_err(|e| format!("run_fused: {e}"))?;
    let (bytes, s_encode) =
        trace::timed("codec.encode", rep, || columnar::to_bytes(&built.inventory));
    let (saved, s_save) = trace::timed("codec.save", rep, || codec::save_bytes(&bytes, path));
    saved.map_err(|e| format!("save_bytes: {e}"))?;
    let (server, s_open) = trace::timed("serve.open", rep, || {
        Server::start_snapshot(path, "127.0.0.1:0", wire::server_config())
    });
    let mut server = server.map_err(|e| format!("start_snapshot: {e}"))?;
    let (reply, s_first) = trace::timed("serve.first_answer", rep, || {
        Conn::connect(server.local_addr()).and_then(|mut c| c.exchange(probe))
    });
    drop(root);
    let reply = reply.map_err(|e| format!("first answer: {e}"))?;
    server.shutdown();
    Ok(Rep {
        segments: vec![
            ("decode".into(), s_decode),
            ("fused".into(), s_fused),
            ("encode".into(), s_encode),
            ("save".into(), s_save),
            ("open".into(), s_open),
            ("first_answer".into(), s_first),
        ],
        decoded,
        bytes,
        inventory: built.inventory,
        reply,
    })
}

pub fn run(
    mut inputs: Inputs,
    seconds: u64,
    traced: bool,
    scratch: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (wire, nmea_encode_s) =
        trace::timed("fleetsim.nmea_encode", 0, || scenario::encode_wire(&inputs));
    // From here on the wire is the input; the simulator's records go.
    inputs.positions = Vec::new();
    let path = scratch.join("inventory.pol3");

    // Set-up: everything a repetition is checked against, made from the
    // wire by the route a repetition takes. The last set-up's engine is
    // kept, so its workers' scratch buffers are warm.
    let ((engine, oracle, decoded), setups) = harness::set_up(|| {
        let engine = Engine::new(env::nproc());
        let ping = encode_request(&Request::Ping);
        let made = repetition(0, &wire, &inputs, &engine, &ping, &path)?;
        let request = wire::busiest_cell_request(&made.inventory);
        let oracle = Oracle {
            entries: made.inventory.len() as u64,
            probe: encode_request(&request),
            probe_reply: encode_response(&wire::oracle_answer(&made.inventory, &request)),
            bytes: made.bytes,
        };
        Ok((engine, oracle, made.decoded))
    })?;

    // The fixed warm-up: the wire decoded slice after slice. The set-ups
    // were whole repetitions, so every layer has already run.
    let mut at = 0;
    let warmup_s = harness::warm_up(|| {
        let rest = &wire[at..];
        let from = WARMUP_SLICE.min(rest.len());
        let cut = rest.as_bytes()[from..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(rest.len(), |i| from + i + 1);
        std::hint::black_box(scenario::decode_wire(&rest[..cut], 0));
        at = if cut == rest.len() { 0 } else { at + cut };
        Ok(())
    })?;

    // The timed repetitions; the fastest execution of each engine stage
    // is kept beside the segments'.
    let mut engine_stage_s: BTreeMap<String, f64> = BTreeMap::new();
    let mut shuffled_records = 0u64;
    let proc_before = ProcSnapshot::take(None);
    let timed = harness::repeat(names::builds(seconds), seconds, traced, |rep| {
        let done = repetition(rep, &wire, &inputs, &engine, &oracle.probe, &path)?;
        out.attempted += 2;
        out.failed += done.wrong(&oracle);
        for stage in engine.metrics().report() {
            let s = stage.wall.as_secs_f64();
            engine_stage_s
                .entry(stage.name.clone())
                .and_modify(|b| *b = b.min(s))
                .or_insert(s);
            if stage.name == "fused:scan-enrich" {
                shuffled_records = stage.shuffled_records;
            }
        }
        Ok(done.segments)
    })?;
    let proc_after = ProcSnapshot::take(None);
    let plain = &timed.plain;
    let reps = timed.passes();
    let records = decoded.positions as f64;
    let whole = |_: &str| true;
    let restart = |name: &str| name == "open" || name == "first_answer";
    let best_s = plain.best_sum(whole);

    out.end_to_end = vec![
        ("setup_s", median(&setups) + warmup_s),
        ("throughput_per_s", records / best_s),
        ("latency_p50_ms", best_s * 1e3),
        ("restart_ms", plain.best_sum(restart) * 1e3),
        ("peak_rss_mb", env::peak_rss_mb(None)),
        (
            "bytes_stored_per_record",
            oracle.bytes.len() as f64 / records,
        ),
    ];
    out.detail("repetitions", reps.into());
    out.detail("repetitions_planned", names::builds(seconds).into());
    out.detail("setups_s", setups.into());
    out.detail("warmup_s", warmup_s.into());
    out.detail("wire_bytes", wire.len().into());
    out.detail("wire_lines", decoded.lines.into());
    out.detail("records_decoded", decoded.positions.into());
    out.detail("static_messages", decoded.statics.into());
    out.detail("engine_threads", engine.threads().into());
    out.detail("server_workers", env::nproc().into());
    out.detail(
        "repetition_s_quartiles",
        harness::quartiles(&plain.pass_totals(whole)),
    );
    out.detail("best_segment_sum_s", best_s.into());
    out.detail(
        "segment_s",
        obj(plain
            .series()
            .map(|(name, seconds)| (name, seconds.into()))
            .collect()),
    );
    out.detail(
        "segment_best_s",
        obj(plain
            .bests()
            .map(|(name, best)| (name, best.into()))
            .collect()),
    );

    let ops = records * reps as f64;
    let stage = |name: &str| engine_stage_s.get(name).copied().unwrap_or(0.0);
    out.set_layers(proc_after.layers_since(&proc_before, ops));
    out.set_layers([
        ("fleetsim.generate_s", inputs.generate_s),
        ("fleetsim.nmea_encode_s", nmea_encode_s),
        (
            "ais.lines_per_s",
            decoded.lines as f64 / plain.best_named("decode"),
        ),
        ("ais.decode_failures", decoded.failures as f64),
        ("core.fused_s", plain.best_named("fused")),
        ("engine.scan_enrich_s", stage("fused:scan-enrich")),
        ("engine.build_s", stage("fused:build")),
        ("engine.radix_merge_s", stage("fused:aggregate:radix-merge")),
        ("engine.shuffled_records", shuffled_records as f64),
        ("codec.encode_s", plain.best_named("encode")),
        ("codec.save_s", plain.best_named("save")),
        ("codec.snapshot_bytes", oracle.bytes.len() as f64),
        (
            "codec.bytes_per_entry",
            oracle.bytes.len() as f64 / oracle.entries.max(1) as f64,
        ),
        ("serve.open_ms", plain.best_named("open") * 1e3),
        (
            "serve.first_answer_us",
            plain.best_named("first_answer") * 1e6,
        ),
    ]);
    if traced {
        let summary = trace::summarize();
        let traced_reps = timed.spanned.passes().max(1) as f64;
        let counted = timed.counted;
        out.set_layers([
            ("trace.timed_wall_s", summary.timed_wall_s),
            ("trace.unattributed_share", summary.unattributed_share),
            ("trace.overhead_share", timed.overhead_share()),
            ("ais.parse_s", summary.self_of("ais.parse") / traced_reps),
            ("ais.decode_s", summary.self_of("ais.decode") / traced_reps),
            (
                "proc.allocs_per_kop",
                counted.0 as f64 / (records * traced_reps) * 1e3,
            ),
            (
                "proc.alloc_bytes_per_op",
                counted.1 as f64 / (records * traced_reps),
            ),
        ]);
        layer_probes(&mut out, &wire, &inputs, &oracle)?;
        out.layer("engine.parallel_efficiency", {
            let n = engine.threads() as f64;
            out.layers["core.fused_1thread_s"] / (out.layers["core.fused_s"] * n)
        });
    }
    Ok(out)
}

/// Traced only, so that none of it touches the untraced numbers: the
/// build on one thread, and the shared helpers replayed one at a time
/// with the result checked against the oracle.
fn layer_probes(
    out: &mut Outcome,
    wire: &str,
    inputs: &Inputs,
    oracle: &Oracle,
) -> Result<(), String> {
    trace::set_enabled(true);
    let decoded = scenario::decode_wire(wire, 0);
    let single = Engine::new(1);
    let (built, s) = trace::timed("core.run_fused_1thread", 0, || {
        run_fused(
            &single,
            decoded.partitions.clone(),
            &inputs.statics,
            &inputs.ports,
            &inputs.cfg,
        )
    });
    let built = built.map_err(|e| format!("run_fused on one thread: {e}"))?;
    if columnar::to_bytes(&built.inventory) != oracle.bytes {
        out.failed += 1;
    }
    out.attempted += 1;
    out.layer("core.fused_1thread_s", s);
    out.layer("core.records_cleaned", built.counts.cleaned as f64);
    out.layer("core.trip_points", built.counts.projected as f64);

    // The helpers, vessel by vessel, as a streaming session would call
    // them (and as `fold_projected`'s own test does).
    let cfg = &inputs.cfg;
    let lookup = segment_lookup(&inputs.statics);
    let mut by_vessel: BTreeMap<u32, Vec<EnrichedReport>> = BTreeMap::new();
    for r in decoded
        .partitions
        .iter()
        .flatten()
        .filter(|r| r.in_protocol_ranges())
    {
        if let Some(e) = enrich_one(&lookup, cfg.commercial_only, *r) {
            by_vessel.entry(e.mmsi.0).or_default().push(e);
        }
    }
    let geofence = Geofence::build(&inputs.ports, cfg.resolution);
    let (mut clean_s, mut trips_s, mut project_s) = (0.0, 0.0, 0.0);
    let mut per_vessel: Vec<(u32, Vec<CellPoint>)> = Vec::new();
    let mut projected = 0u64;
    for (mmsi, reports) in by_vessel {
        let mut cleaned = Vec::new();
        clean_s += trace::timed("core.clean", 0, || {
            order_and_filter_vessel(reports, cfg.max_feasible_speed_kn, &mut cleaned)
        })
        .1;
        let mut trips = Vec::new();
        trips_s += trace::timed("core.trips", 0, || {
            extract_for_vessel(&geofence, &cleaned, cfg.min_trip_points, &mut trips)
        })
        .1;
        let mut cells = Vec::new();
        project_s += trace::timed("core.project", 0, || {
            let mut scratch = Vec::new();
            let mut i = 0;
            while i < trips.len() {
                let mut j = i + 1;
                while j < trips.len() && trips[j].trip_id == trips[i].trip_id {
                    j += 1;
                }
                project_trip(&trips[i..j], cfg.resolution, &mut scratch, &mut cells);
                i = j;
            }
        })
        .1;
        projected += trips.len() as u64;
        per_vessel.push((mmsi, cells));
    }
    // hexgrid and sketch on their own, over the same points.
    let points: Vec<CellPoint> = per_vessel
        .iter()
        .flat_map(|(_, c)| c.iter().copied())
        .collect();
    let (_, s) = trace::timed("hexgrid.cell_at", 0, || {
        for p in &points {
            std::hint::black_box(cell_at(std::hint::black_box(p.point.pos), cfg.resolution));
        }
    });
    out.layer("hexgrid.cell_at_ns", s * 1e9 / points.len().max(1) as f64);
    let mut sketches: Vec<CellStats> = (0..64)
        .map(|_| CellStats::new(cfg.quantile_epsilon, cfg.top_n_capacity))
        .collect();
    let (_, s) = trace::timed("sketch.observe", 0, || {
        for (i, p) in points.iter().enumerate() {
            sketches[i % 64].observe(p);
        }
    });
    std::hint::black_box(&sketches);
    out.layer("sketch.observe_ns", s * 1e9 / points.len().max(1) as f64);

    let (folded, fold_s) = trace::timed("core.fold", 0, || {
        fold_projected(&single, cfg, per_vessel, projected)
    });
    let folded = folded.map_err(|e| format!("fold_projected: {e}"))?;
    out.attempted += 1;
    out.failed += u64::from(columnar::to_bytes(&folded) != oracle.bytes);
    out.layer("core.clean_s", clean_s);
    out.layer("core.trips_s", trips_s);
    out.layer("core.project_s", project_s);
    out.layer("core.fold_s", fold_s);
    serve::codec_probes(out, &oracle.bytes)?;
    trace::set_enabled(false);
    Ok(())
}
