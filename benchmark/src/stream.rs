//! `stream_ingest`: the scenario's records, globally time-ordered, pushed
//! one at a time through `JournaledEngine` (WAL on, a checkpoint every
//! 1/20 of the feed), every window cut published with `DeltaPublisher`
//! and hot-reloaded into a live server that is probed, the run abandoned
//! at 62.5 % and recovered, then closed. The closed inventory must equal
//! the batch build byte for byte.

use crate::env::{self, ProcSnapshot};
use crate::estimate::median;
use crate::harness;
use crate::names;
use crate::scenario::Inputs;
use crate::wire::{self, Conn};
use crate::{trace, Outcome};
use pol_ais::PositionReport;
use pol_core::codec::columnar;
use pol_core::Inventory;
use pol_engine::Engine;
use pol_fleetsim::stream::interleave;
use pol_serve::proto::{encode_request, encode_response};
use pol_serve::{Request, Server};
use pol_sketch::hash::FxHashMap;
use pol_stream::{
    recover, DeltaPublisher, IngestCounters, JournaledEngine, RecoveryReport, StreamConfig,
    StreamEngine, WalConfig, WalReader, WalWriter, WindowSpec, CHECKPOINT_NAME,
};
use std::path::Path;
use std::time::Instant;

/// Equal record chunks per pass, each ending in a checkpoint.
const CHUNKS: usize = 20;
/// The pass is abandoned half-way through this chunk (62.5 % of the feed),
/// half a checkpoint interval after the last checkpoint: the expected
/// distance of a crash from its checkpoint, so recovery has records to
/// replay. (At exactly 60 % the checkpoint has just been written and the
/// replay is empty.)
const ABANDON_CHUNK: usize = 12;
/// One delta window per simulated day: six cuts over the seven days.
const WINDOW_SECS: i64 = 86_400;
/// Recoveries per pass: the crash image is copied this many times less one
/// and each copy recovered before the pass's own directory is, so that twelve
/// passes give twenty-four recoveries to take the best of.
const RECOVERIES: usize = 2;
/// Records one warm-up step pushes (about a millisecond).
const WARMUP_STEP: usize = 1024;

/// What a pass runs against; made by set-up.
struct Context {
    engine: Engine,
    wire: Vec<PositionReport>,
    batch_bytes: Vec<u8>,
    server: Server,
    conn: Conn,
    probe_request: Request,
    probe: Vec<u8>,
    spec: WindowSpec,
}

fn set_up(inputs: &Inputs) -> Result<Context, String> {
    let engine = Engine::new(env::nproc());
    let (inventory, batch_bytes) = wire::build_snapshot(&engine, inputs)?;
    let wire: Vec<PositionReport> = interleave(inputs.positions.clone()).collect();
    // The live server starts empty; every cut swaps the chain in.
    let empty = Inventory::from_entries(inputs.cfg.resolution, FxHashMap::default(), 0);
    let server = Server::start(empty, "127.0.0.1:0", wire::server_config())
        .map_err(|e| format!("live server: {e}"))?;
    let conn =
        Conn::connect(server.local_addr()).map_err(|e| format!("live server connect: {e}"))?;
    let probe_request = wire::busiest_cell_request(&inventory);
    Ok(Context {
        engine,
        wire,
        batch_bytes,
        server,
        conn,
        probe: encode_request(&probe_request),
        probe_request,
        spec: WindowSpec {
            start_ts: inputs.start_ts,
            window_secs: WINDOW_SECS,
        },
    })
}

/// What one pass measured.
#[derive(Default)]
struct PassResult {
    /// The timed region in execution order: per chunk any cut's four
    /// steps (`cut<k>.fold`, `.publish`, `.reload`, `.probe`), the push
    /// loop (`push<c>`) and the checkpoint (`checkpoint<c>`); `recover`
    /// in the abandoned chunk; `close` last.
    segments: Vec<(String, f64)>,
    cuts: usize,
    checkpoint_s: Vec<f64>,
    fold_s: Vec<f64>,
    publish_s: Vec<f64>,
    reload_s: Vec<f64>,
    buffered_peak: usize,
    checks: u64,
    wrong: u64,
    explicit_flushes: u64,
    recovery: RecoveryReport,
    counters: IngestCounters,
}

/// The state of a pass in flight.
struct Pass<'a> {
    rep: u32,
    ctx: &'a mut Context,
    inputs: &'a Inputs,
    dir: &'a Path,
    /// `None` only between the crash and the recovery.
    je: Option<JournaledEngine>,
    publisher: DeltaPublisher,
    /// The oracle for the probes: the deltas merged in memory.
    merged: Option<Inventory>,
    /// Seconds inside the chunk being timed that are not its push loop:
    /// cuts (with their checking) and the recovery.
    outside_push_s: f64,
    result: PassResult,
}

impl Pass<'_> {
    fn je(&mut self) -> Result<&mut JournaledEngine, String> {
        self.je
            .as_mut()
            .ok_or_else(|| "the journal is closed".to_string())
    }

    fn push_range(&mut self, range: std::ops::Range<usize>) -> Result<(), String> {
        for i in range {
            let r = self.ctx.wire[i];
            let spec = self.ctx.spec;
            self.je()?
                .push(r)
                .map_err(|e| format!("journaled push: {e}"))?;
            while self.je()?.watermark() >= spec.cut_at(self.je()?.window_cuts()) {
                self.cut()?;
            }
        }
        Ok(())
    }

    /// Cut -> fold -> publish -> hot reload -> the live server answers
    /// from the new chain.
    fn cut(&mut self) -> Result<(), String> {
        let rep = self.rep;
        let started = Instant::now();
        let je = self.je.as_mut().ok_or("the journal is closed")?;
        let generation = je.window_cuts();
        let t = trace::start("stream.cut", rep);
        let (delta, fold_s) = trace::timed("stream.window_fold", rep, || {
            je.take_window_delta(&self.ctx.engine)
        });
        let delta = delta.map_err(|e| format!("window fold: {e}"))?;
        let (published, publish_s) = trace::timed("stream.publish", rep, || {
            self.publisher.publish_at(generation, &delta)
        });
        published.map_err(|e| format!("publish: {e}"))?;
        let (reloaded, reload_s) = trace::timed("serve.reload", rep, || {
            self.ctx.server.reload_from(self.publisher.manifest_path())
        });
        reloaded.map_err(|e| format!("reload_from: {e}"))?;
        let (reply, probe_s) = trace::timed("serve.probe", rep, || {
            self.ctx.conn.exchange(&self.ctx.probe)
        });
        let reply = reply.map_err(|e| format!("probe: {e}"))?;
        drop(t);
        for (step, seconds) in [
            ("fold", fold_s),
            ("publish", publish_s),
            ("reload", reload_s),
            ("probe", probe_s),
        ] {
            self.result
                .segments
                .push((format!("cut{generation}.{step}"), seconds));
        }
        self.result.cuts += 1;
        self.result.fold_s.push(fold_s);
        self.result.publish_s.push(publish_s);
        self.result.reload_s.push(reload_s);
        self.result.explicit_flushes += 1;

        // The oracle: what the chain says, merged in memory. A delta goes
        // through the codec first, as the published file did; the encoder
        // canonicalises sketches, so merging the raw deltas is not the same
        // bytes.
        let u = trace::start("bench.untimed", rep);
        let delta = columnar::from_bytes(&columnar::to_bytes(&delta))
            .map_err(|e| format!("delta round trip: {e}"))?;
        let merged = match self.merged.take() {
            None => delta,
            Some(mut m) => {
                m.merge(&delta);
                m
            }
        };
        let expected = encode_response(&wire::oracle_answer(&merged, &self.ctx.probe_request));
        self.merged = Some(merged);
        self.result.checks += 1;
        self.result.wrong += u64::from(reply != expected);
        drop(u);
        self.outside_push_s += started.elapsed().as_secs_f64();
        Ok(())
    }

    /// The process "dies" (the journal's unflushed frame with it), a new
    /// one recovers from the directory and pushes its first record. The
    /// crash image is first recovered from copies, so that a pass has
    /// [`RECOVERIES`] executions of the same recovery.
    fn abandon_and_recover(&mut self) -> Result<(), String> {
        // Dropping the engine is the crash: nothing of it is flushed or
        // sealed, and its file handles are gone before recovery opens the
        // directory.
        drop(self.je.take());
        let started = Instant::now();
        let image = self.dir.with_extension("crash");
        let mut best_s = f64::INFINITY;
        for _ in 1..RECOVERIES {
            let u = trace::start("bench.untimed", self.rep);
            copy_flat(self.dir, &image)?;
            drop(u);
            let (_, _, _, recover_s) = self.recover_in(&image)?;
            best_s = best_s.min(recover_s);
            let _u = trace::start("bench.untimed", self.rep);
            std::fs::remove_dir_all(&image).ok();
        }
        let (publisher, je, report, recover_s) = self.recover_in(self.dir)?;
        self.publisher = publisher;
        self.je = Some(je);
        self.result.recovery = report;
        self.result
            .segments
            .push(("recover".into(), best_s.min(recover_s)));
        self.outside_push_s += started.elapsed().as_secs_f64();
        Ok(())
    }

    /// One recovery of the crash image in `dir`: chain reopen, WAL load,
    /// replay, re-checkpoint, first push.
    fn recover_in(
        &self,
        dir: &Path,
    ) -> Result<(DeltaPublisher, JournaledEngine, RecoveryReport, f64), String> {
        let t = trace::start("stream.recover", self.rep);
        let (mut publisher, _) =
            DeltaPublisher::open(dir).map_err(|e| format!("reopen chain: {e}"))?;
        let (mut je, report) = recover(
            dir,
            &self.ctx.engine,
            &self.inputs.statics,
            &self.inputs.ports,
            StreamConfig::default(),
            WalConfig::default(),
            0,
            Some((&mut publisher, self.ctx.spec)),
        )
        .map_err(|e| format!("recover: {e}"))?;
        let resume = je.counters().ingested as usize;
        je.push(self.ctx.wire[resume])
            .map_err(|e| format!("first push after recovery: {e}"))?;
        let recover_s = t.stop();
        Ok((publisher, je, report, recover_s))
    }
}

/// Copies the regular files of `from` into a fresh `to`.
fn copy_flat(from: &Path, to: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("copy {} to {}: {e}", from.display(), to.display());
    std::fs::remove_dir_all(to).ok();
    std::fs::create_dir_all(to).map_err(io)?;
    for entry in std::fs::read_dir(from).map_err(io)? {
        let entry = entry.map_err(io)?;
        if entry.file_type().map_err(io)?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(io)?;
        }
    }
    Ok(())
}

fn journal(dir: &Path, inputs: &Inputs) -> Result<JournaledEngine, String> {
    let se = StreamEngine::new(&inputs.statics, &inputs.ports, StreamConfig::default());
    // Checkpoints are taken explicitly at chunk ends, which is the same
    // cadence `checkpoint_every_records` would give, with a span of
    // their own.
    JournaledEngine::create(dir, se, WalConfig::default(), 0)
        .map_err(|e| format!("create journal: {e}"))
}

/// One pass over the feed in a fresh `dir`.
fn pass(rep: u32, ctx: &mut Context, inputs: &Inputs, dir: &Path) -> Result<PassResult, String> {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let n = ctx.wire.len();
    let chunk = n.div_ceil(CHUNKS);
    let batch_bytes = std::mem::take(&mut ctx.batch_bytes);
    let mut p = Pass {
        rep,
        je: Some(journal(dir, inputs)?),
        publisher: DeltaPublisher::create(dir),
        ctx,
        inputs,
        dir,
        merged: None,
        outside_push_s: 0.0,
        result: PassResult::default(),
    };
    let root = trace::start("bench.timed", rep);
    for c in 0..CHUNKS {
        let (lo, hi) = ((c * chunk).min(n), ((c + 1) * chunk).min(n));
        p.outside_push_s = 0.0;
        let t = trace::start("stream.chunk", rep);
        if c == ABANDON_CHUNK {
            p.push_range(lo..(lo + hi) / 2)?;
            p.abandon_and_recover()?;
            let resumed = p.je()?.counters().ingested as usize;
            p.push_range(resumed..hi)?;
        } else {
            p.push_range(lo..hi)?;
        }
        let push_s = t.stop() - p.outside_push_s;
        let je = p.je()?;
        let (checkpointed, checkpoint_s) =
            trace::timed("stream.checkpoint", rep, || je.checkpoint());
        checkpointed.map_err(|e| format!("checkpoint: {e}"))?;
        let buffered = je.engine().buffered();
        p.result.segments.push((format!("push{c:02}"), push_s));
        p.result
            .segments
            .push((format!("checkpoint{c:02}"), checkpoint_s));
        p.result.checkpoint_s.push(checkpoint_s);
        p.result.explicit_flushes += 1;
        p.result.buffered_peak = p.result.buffered_peak.max(buffered);
    }
    let Pass {
        je,
        ctx,
        mut result,
        ..
    } = p;
    let je = je.ok_or("the journal is closed")?;
    let (closed, close_s) = trace::timed("stream.close", rep, || je.close(&ctx.engine));
    drop(root);
    let closed = closed.map_err(|e| format!("close: {e}"))?;
    result.segments.push(("close".into(), close_s));
    result.counters = closed.counters;
    result.checks += 2;
    result.wrong += u64::from(columnar::to_bytes(&closed.inventory) != batch_bytes);
    result.wrong += u64::from(closed.counters.late_dropped != 0);
    ctx.batch_bytes = batch_bytes;
    Ok(result)
}

/// The fixed warm-up: the feed pushed through a journal of its own, begun
/// again in a fresh directory whenever the feed ends.
fn warm_up(ctx: &Context, inputs: &Inputs, dir: &Path) -> Result<f64, String> {
    let fresh = || {
        std::fs::remove_dir_all(dir).ok();
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        journal(dir, inputs)
    };
    let mut je = fresh()?;
    let mut at = 0;
    let warmup_s = harness::warm_up(|| {
        if at >= ctx.wire.len() {
            je = fresh()?;
            at = 0;
        }
        let to = (at + WARMUP_STEP).min(ctx.wire.len());
        for &r in &ctx.wire[at..to] {
            je.push(r).map_err(|e| format!("warm-up push: {e}"))?;
        }
        at = to;
        Ok(())
    })?;
    drop(je);
    std::fs::remove_dir_all(dir).ok();
    Ok(warmup_s)
}

pub fn run(inputs: Inputs, seconds: u64, traced: bool, scratch: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut ctx, setups) = harness::set_up(|| set_up(&inputs))?;
    let warmup_s = warm_up(&ctx, &inputs, &scratch.join("warmup"))?;
    let setup_s = median(&setups) + warmup_s;

    let dir = scratch.join("pass");
    let mut all: Vec<PassResult> = Vec::new();
    let proc_before = ProcSnapshot::take(None);
    let timed = harness::repeat(names::stream_passes(seconds), seconds, traced, |rep| {
        let result = pass(rep, &mut ctx, &inputs, &dir)?;
        out.attempted += result.checks;
        out.failed += result.wrong;
        let segments = result.segments.clone();
        all.push(result);
        Ok(segments)
    })?;
    let plain = &timed.plain;
    let proc_after = ProcSnapshot::take(None);

    // What the last pass left on disk.
    let records = ctx.wire.len() as f64;
    let stored = env::dir_bytes(&dir, |_| true);
    let wal_bytes = env::dir_bytes(&dir, |n| n.ends_with(".polwal"));
    let delta_bytes = env::dir_bytes(&dir, |n| n.ends_with(".pol"));
    let checkpoint_bytes = env::dir_bytes(&dir, |n| n == CHECKPOINT_NAME);
    let (load, wal_load_s) = trace::timed("stream.wal_load", 0, || WalReader::load(&dir));
    let load = load.map_err(|e| format!("WalReader::load: {e}"))?;

    let passes = all.len();
    let whole = |name: &str| name != "recover";
    let best_s = plain.best_sum(whole);
    // Cut k's latency is the sum of its four steps, each the fastest of
    // its executions over the passes; the metric is the median over cuts.
    let cuts = all.iter().map(|p| p.cuts).min().unwrap_or(0);
    let cut_best_s: Vec<f64> = (0..cuts)
        .map(|k| plain.best_sum(|name| name.starts_with(&format!("cut{k}."))))
        .collect();
    let last = all.last().ok_or("no pass ran")?;
    let flat = |f: fn(&PassResult) -> &Vec<f64>| {
        all.iter()
            .flat_map(|p| f(p).iter().copied())
            .collect::<Vec<f64>>()
    };

    out.end_to_end = vec![
        ("setup_s", setup_s),
        ("throughput_per_s", records / best_s),
        ("latency_p50_ms", median(&cut_best_s) * 1e3),
        ("restart_ms", plain.best_named("recover") * 1e3),
        ("peak_rss_mb", env::peak_rss_mb(None)),
        ("bytes_stored_per_record", stored as f64 / records),
    ];
    out.detail("passes", passes.into());
    out.detail("passes_planned", names::stream_passes(seconds).into());
    out.detail("setups_s", setups.clone().into());
    out.detail("warmup_s", warmup_s.into());
    out.detail("chunks_per_pass", CHUNKS.into());
    out.detail("recoveries_per_pass", RECOVERIES.into());
    out.detail(
        "abandoned_at_share",
        ((ABANDON_CHUNK as f64 + 0.5) / CHUNKS as f64).into(),
    );
    out.detail("window_cuts_per_pass", cuts.into());
    out.detail(
        "cut_best_ms",
        cut_best_s
            .iter()
            .map(|s| s * 1e3)
            .collect::<Vec<f64>>()
            .into(),
    );
    out.detail("engine_threads", ctx.engine.threads().into());
    out.detail("server_workers", env::nproc().into());
    out.detail(
        "pass_s_quartiles",
        harness::quartiles(&plain.pass_totals(whole)),
    );
    out.detail("best_segment_sum_s", best_s.into());
    out.detail("derived_not_measured", vec!["stream.wal_fsyncs"].into());

    let ops = records * passes as f64;
    // Derived, not measured: the writer exports no fsync counter, so this
    // is what `WalConfig::default()` prescribes for the pass (one per
    // `group_commit_batches` frames, one per explicit flush at a checkpoint
    // or cut, one per sealed segment). A writer that syncs more often than
    // its configuration says would not move it; the details say so.
    let wal_fsyncs = (load.next_seq / WalConfig::default().group_commit_batches
        + last.explicit_flushes
        + load.segments as u64) as f64;
    let p50_ms = |f: fn(&PassResult) -> &Vec<f64>| median(&flat(f)) * 1e3;
    out.set_layers(proc_after.layers_since(&proc_before, ops));
    out.set_layers([
        ("fleetsim.generate_s", inputs.generate_s),
        ("core.trip_points", last.counters.trip_points as f64),
        ("codec.snapshot_bytes", ctx.batch_bytes.len() as f64),
        ("stream.wal_bytes_per_record", wal_bytes as f64 / records),
        ("stream.wal_fsyncs", wal_fsyncs),
        ("stream.wal_segments", load.segments as f64),
        ("stream.checkpoints", (last.checkpoint_s.len() + 1) as f64),
        ("stream.checkpoint_ms_p50", p50_ms(|p| &p.checkpoint_s)),
        ("stream.checkpoint_bytes", checkpoint_bytes as f64),
        ("stream.window_fold_ms_p50", p50_ms(|p| &p.fold_s)),
        ("stream.publish_ms_p50", p50_ms(|p| &p.publish_s)),
        ("stream.delta_bytes_total", delta_bytes as f64),
        (
            "stream.buffered_peak",
            all.iter().map(|p| p.buffered_peak).max().unwrap_or(0) as f64,
        ),
        ("stream.late_dropped", last.counters.late_dropped as f64),
        ("stream.close_s", plain.best_named("close")),
        ("stream.wal_load_ms", wal_load_s * 1e3),
        (
            "stream.replay_records",
            last.recovery.records_replayed as f64,
        ),
        ("stream.recover_ms", plain.best_named("recover") * 1e3),
        ("serve.reload_ms_p50", p50_ms(|p| &p.reload_s)),
    ]);
    if traced {
        let summary = trace::summarize();
        let traced_passes = timed.spanned.passes().max(1) as f64;
        let counted = timed.counted;
        out.set_layers([
            ("trace.timed_wall_s", summary.timed_wall_s),
            ("trace.unattributed_share", summary.unattributed_share),
            ("trace.overhead_share", timed.overhead_share()),
            (
                "proc.allocs_per_kop",
                counted.0 as f64 / (records * traced_passes) * 1e3,
            ),
            (
                "proc.alloc_bytes_per_op",
                counted.1 as f64 / (records * traced_passes),
            ),
        ]);
        layer_probes(&mut out, &ctx, &inputs, scratch)?;
    }
    drop(ctx);
    Ok(out)
}

/// Traced only: the two halves of a journaled push, each alone.
fn layer_probes(
    out: &mut Outcome,
    ctx: &Context,
    inputs: &Inputs,
    scratch: &Path,
) -> Result<(), String> {
    trace::set_enabled(true);
    let records = ctx.wire.len().max(1) as f64;
    let mut se = StreamEngine::new(&inputs.statics, &inputs.ports, StreamConfig::default());
    let (_, s) = trace::timed("stream.engine_push", 0, || {
        for &r in &ctx.wire {
            se.push(r);
        }
    });
    out.layer("stream.engine_push_ns_per_record", s * 1e9 / records);
    drop(se);

    let dir = scratch.join("wal-alone");
    std::fs::remove_dir_all(&dir).ok();
    let mut wal =
        WalWriter::create(&dir, WalConfig::default()).map_err(|e| format!("WalWriter: {e}"))?;
    let (pushed, s) = trace::timed("stream.wal_append", 0, || {
        ctx.wire.iter().try_for_each(|&r| wal.push(r))
    });
    pushed.map_err(|e| format!("WalWriter::push: {e}"))?;
    wal.seal().map_err(|e| format!("WalWriter::seal: {e}"))?;
    out.layer("stream.wal_append_ns_per_record", s * 1e9 / records);
    trace::set_enabled(false);
    Ok(())
}
