//! `polinv` — command-line front end for the Patterns-of-Life inventory.
//!
//! ```text
//! polinv build --out inv.pol [--vessels 150] [--days 14] [--res 6] [--seed 42]
//!              [--timings]
//! polinv info <inv.pol>
//! polinv verify <inv.pol>
//! polinv query <inv.pol> <lat> <lon> [--segment container|tanker|...]
//! polinv top-dest <inv.pol> <LOCODE>
//! polinv serve <inv.pol> [--addr 127.0.0.1:0] [--workers 8]
//! polinv repro <name|all> [--out figures]
//! ```
//!
//! `build` writes one POLINV4 (columnar) file, and that file is what
//! `serve` memory-maps — validated, not deserialized. Every reading
//! subcommand sniffs the magic: a POLINV4 file or a POLMAN2 delta-chain
//! manifest (`pol-stream`'s output — loaded base plus deltas, merged) is
//! accepted everywhere a `<inv.pol>` appears, anything else is refused
//! as not an inventory. `verify` on a manifest audits the whole chain
//! file by file. `serve` maps a manifest's links and merges on read;
//! past eight links it folds them into one image in memory.
//!
//! While `serve` is running, its stdin is a tiny control channel: a
//! `reload <file>` line hot-swaps the snapshot (validated first — a
//! corrupt file is rejected and the old snapshot keeps serving; a
//! manifest that extends the served chain maps only its new links), and
//! EOF shuts the server down.
//!
//! `repro` runs the paper's experiments (`pol_bench::repro`) on the
//! standard scenario, prints each one's rows and checks, writes its CSVs
//! under `--out` and exits 1 if any check fails.

use pol_ais::types::MarketSegment;
use pol_bench::alloc::{self, CountingAlloc};
use pol_bench::repro::{self, World};
use pol_bench::{build_inventory_on, experiment_scenario, TRAIN_SEED};
use pol_core::{codec, Inventory, PipelineConfig};
use pol_engine::Engine;
use pol_fleetsim::emit::EmissionConfig;
use pol_fleetsim::scenario::{generate, ScenarioConfig};
use pol_fleetsim::WORLD_PORTS;
use pol_geo::LatLon;
use pol_hexgrid::{cell_at, Resolution};
use pol_sketch::crc64;
use std::path::Path;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  polinv build --out <file> [--vessels N] [--days D] [--res R] [--seed S] \
         [--timings]\n  \
         polinv info <file>\n  \
         polinv verify <file>\n  \
         polinv query <file> <lat> <lon> [--segment <name>]\n  \
         polinv top-dest <file> <LOCODE>\n  \
         polinv serve <file> [--addr HOST:PORT] [--workers N]\n  \
         polinv repro <name|all> [--out DIR]\n\
         <file> is a POLINV4 snapshot or a POLMAN2 chain manifest; `serve` maps\n\
         a chain's links (folding past eight) and takes `reload <file>` lines\n\
         on stdin, where a manifest that extends the served chain maps only\n\
         its new links"
    );
    ExitCode::from(2)
}

/// The value after flag `name`: `None` when the flag is absent, a usage
/// error naming the flag when it is the last argument or another flag
/// follows it.
fn parse_flag(args: &[String], name: &str) -> Result<Option<String>, ExitCode> {
    let Some(at) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(at + 1) {
        Some(value) if !value.starts_with("--") => Ok(Some(value.clone())),
        _ => {
            eprintln!("error: {name} takes a value");
            Err(ExitCode::from(2))
        }
    }
}

/// The value after flag `name` parsed as a `T`: `default` when the flag
/// is absent, a usage error naming the flag when the value is missing or
/// does not parse.
fn parsed_flag<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: T,
) -> Result<T, ExitCode> {
    let Some(value) = parse_flag(args, name)? else {
        return Ok(default);
    };
    value.parse().map_err(|_| {
        eprintln!("error: {name} takes a number, not `{value}`");
        ExitCode::from(2)
    })
}

/// The segment `--segment` names, `None` when the flag is absent; a
/// usage error listing the segments when it names none of them.
fn segment_flag(args: &[String]) -> Result<Option<MarketSegment>, ExitCode> {
    let Some(name) = parse_flag(args, "--segment")? else {
        return Ok(None);
    };
    match MarketSegment::ALL.into_iter().find(|s| s.name() == name) {
        Some(segment) => Ok(Some(segment)),
        None => {
            let names: Vec<&str> = MarketSegment::ALL.iter().map(|s| s.name()).collect();
            eprintln!(
                "error: --segment `{name}` is not a segment; one of: {}",
                names.join(", ")
            );
            Err(ExitCode::from(2))
        }
    }
}

fn load(path: &str) -> Result<Inventory, ExitCode> {
    codec::load_any(Path::new(path)).map_err(|e| {
        eprintln!("error: cannot load {path}: {e}");
        ExitCode::FAILURE
    })
}

/// `build`'s scenario flags: `--vessels`, `--days`, `--res`, `--seed`.
fn build_flags(args: &[String]) -> Result<(usize, u32, Resolution, u64), ExitCode> {
    let res = parsed_flag(args, "--res", 6u8)?;
    let Some(resolution) = Resolution::new(res) else {
        eprintln!("error: --res {res} out of 0..=15");
        return Err(ExitCode::from(2));
    };
    Ok((
        parsed_flag(args, "--vessels", 150)?,
        parsed_flag(args, "--days", 14)?,
        resolution,
        parsed_flag(args, "--seed", 42)?,
    ))
}

fn cmd_build(args: &[String]) -> ExitCode {
    let out_path = match parse_flag(args, "--out") {
        Ok(Some(path)) => path,
        Ok(None) => return usage(),
        Err(code) => return code,
    };
    let (vessels, days, resolution, seed) = match build_flags(args) {
        Ok(flags) => flags,
        Err(code) => return code,
    };
    let scenario = ScenarioConfig {
        seed,
        n_vessels: vessels,
        duration_days: days,
        emission: EmissionConfig {
            interval_scale: 10.0,
            ..EmissionConfig::default()
        },
        ..ScenarioConfig::default()
    };
    let timings = args.iter().any(|a| a == "--timings");
    let cfg = PipelineConfig::default().with_resolution(resolution);
    eprintln!("simulating {vessels} vessels over {days} days (seed {seed})...");
    let ds = generate(&scenario);
    let engine = Engine::with_available_parallelism();
    let before = alloc::snapshot();
    let out = match build_inventory_on(&engine, &ds, &cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let delta = alloc::snapshot().since(before);
    let metrics = engine.metrics();
    metrics.add_counter("alloc.calls", delta.allocs);
    metrics.add_counter("alloc.bytes", delta.bytes);
    metrics.add_counter(
        "alloc.bytes_per_record",
        delta.bytes / (ds.total_reports() as u64).max(1),
    );
    // What one summary weighs, and how many the merge took in for the
    // entries it left: the map-side blow-up every merge pays for.
    metrics.add_counter(
        "summary.bytes",
        std::mem::size_of::<pol_core::CellStats>() as u64,
    );
    if let Some(aggregate) = metrics
        .report()
        .iter()
        .find(|s| s.name == "fused:aggregate")
    {
        metrics.add_counter("combiner.entries", aggregate.shuffled_records);
        metrics.add_counter("final.entries", aggregate.output_records);
    }
    eprintln!(
        "pipeline: {} raw -> {} trip records -> {} entries",
        ds.total_reports(),
        out.counts.with_trips,
        out.counts.group_entries
    );
    if timings {
        eprint!("{}", engine.metrics().render());
        eprintln!("crc64 kernel: {}", crc64::kernel());
    }
    if let Err(e) = codec::columnar::save(&out.inventory, Path::new(&out_path)) {
        eprintln!("error: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    let cov = out.inventory.coverage();
    println!(
        "wrote {out_path}: res {}, {} cells, compression {:.2}%",
        cov.resolution,
        cov.occupied_cells,
        cov.compression * 100.0
    );
    ExitCode::SUCCESS
}

fn cmd_info(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let inv = match load(path) {
        Ok(i) => i,
        Err(e) => return e,
    };
    let cov = inv.coverage();
    println!("inventory {path}");
    println!("  resolution        {}", cov.resolution);
    println!("  records           {}", cov.total_records);
    println!("  occupied cells    {}", cov.occupied_cells);
    println!("  compression       {:.2}%", cov.compression * 100.0);
    println!("  grid utilization  {:.4}%", cov.utilization * 100.0);
    use pol_core::features::GroupingSet::*;
    for (gs, name) in [
        (Cell, "(cell)"),
        (CellType, "(cell, type)"),
        (CellRoute, "(cell, o, d, type)"),
    ] {
        println!("  entries {:<20} {}", name, inv.len_of(gs));
    }
    ExitCode::SUCCESS
}

fn cmd_verify(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    match verify(path) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{path}: CORRUPT: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Audits the file end to end as the format its magic announces and
/// prints what was found.
fn verify(path: &str) -> Result<(), codec::CodecError> {
    let file = Path::new(path);
    match codec::sniff_file(file)? {
        // A POLMAN2 delta chain: walk base + every delta, re-verifying
        // each file's recorded length + content check and the merge itself.
        Some(codec::SnapshotFormat::Manifest) => {
            let report = codec::manifest::verify_chain(file)?;
            println!("{path}: OK (POLMAN2 delta chain)");
            println!("  crc64 kernel      {}", crc64::kernel());
            println!("  newest generation {}", report.generation);
            println!("  chain length      {} files", report.files.len());
            println!("  merged entries    {}", report.merged_entries);
            for f in &report.files {
                println!(
                    "  gen {:>5}  {:<24} {:>10} bytes  content {:016x}  {:>8} entries",
                    f.generation, f.name, f.file_len, f.crc, f.entries
                );
            }
        }
        Some(codec::SnapshotFormat::V4) => {
            let report = codec::columnar::verify(file)?;
            println!("{path}: OK (POLINV4 columnar)");
            println!("  crc64 kernel      {}", crc64::kernel());
            println!("  file length       {} bytes", report.file_len);
            println!("  resolution        {}", report.resolution);
            println!("  records           {}", report.total_records);
            println!("  entries           {}", report.entries);
            for s in &report.sections {
                println!(
                    "  section {:<10} {:>8} entries  crc64 {:016x}",
                    s.name, s.entries, s.crc
                );
            }
        }
        None => return Err(codec::CodecError::BadHeader),
    }
    Ok(())
}

fn cmd_query(args: &[String]) -> ExitCode {
    let (Some(path), Some(lat), Some(lon)) = (args.first(), args.get(1), args.get(2)) else {
        return usage();
    };
    let (Ok(lat), Ok(lon)) = (lat.parse::<f64>(), lon.parse::<f64>()) else {
        eprintln!("error: lat/lon must be numbers");
        return ExitCode::from(2);
    };
    let Some(pos) = LatLon::new(lat, lon) else {
        eprintln!("error: coordinates out of range");
        return ExitCode::FAILURE;
    };
    let segment = match segment_flag(args) {
        Ok(segment) => segment,
        Err(code) => return code,
    };
    let inv = match load(path) {
        Ok(i) => i,
        Err(e) => return e,
    };
    let cell = cell_at(pos, inv.resolution());
    let stats = match segment {
        Some(seg) => inv.summary_for(cell, seg),
        None => inv.summary(cell),
    };
    println!(
        "cell {cell} at ({lat}, {lon}){}",
        match segment {
            Some(s) => format!(" [{s}]"),
            None => String::new(),
        }
    );
    let Some(stats) = stats else {
        println!("  no traffic recorded");
        return ExitCode::SUCCESS;
    };
    println!("  records          {}", stats.records);
    println!("  distinct ships   {}", stats.ships.estimate());
    println!("  distinct trips   {}", stats.trips.estimate());
    if let (Some(m), Some(s)) = (stats.speed.mean(), stats.speed.std_dev()) {
        let q = &stats.speed_q;
        println!(
            "  speed            {m:.1} ± {s:.1} kn (p10 {:.1} / p50 {:.1} / p90 {:.1})",
            q.quantile(0.1).unwrap_or(0.0),
            q.quantile(0.5).unwrap_or(0.0),
            q.quantile(0.9).unwrap_or(0.0)
        );
    }
    if let (Some(c), Some(r)) = (stats.course.mean_deg(), stats.course.resultant_length()) {
        println!("  course           {c:.0}° (alignment {r:.2})");
    }
    if let Some(ata) = stats.ata.mean() {
        println!("  mean time-to-dest {:.1} h", ata / 3600.0);
    }
    for (port, n) in stats.top_destinations(3) {
        let name = WORLD_PORTS
            .get(port as usize)
            .map(|p| p.name)
            .unwrap_or("?");
        println!("  top destination  {name} ({n} records)");
    }
    for (next, n) in stats.top_transitions(3) {
        println!("  transition       -> {next} ({n}x)");
    }
    ExitCode::SUCCESS
}

fn cmd_top_dest(args: &[String]) -> ExitCode {
    let (Some(path), Some(locode)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let Some((pid, port)) = pol_fleetsim::ports::port_by_locode(locode) else {
        eprintln!("error: unknown LOCODE {locode}");
        return ExitCode::FAILURE;
    };
    let inv = match load(path) {
        Ok(i) => i,
        Err(e) => return e,
    };
    let cells = inv.cells_with_top_destination(pid.0, None);
    println!(
        "{} cells have {} ({locode}) as their most frequent destination",
        cells.len(),
        port.name
    );
    for c in cells.iter().take(10) {
        let p = pol_hexgrid::cell_center(*c);
        println!("  {c}  ({:.3}, {:.3})", p.lat(), p.lon());
    }
    if cells.len() > 10 {
        println!("  ... and {} more", cells.len() - 10);
    }
    ExitCode::SUCCESS
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let addr = match parse_flag(args, "--addr") {
        Ok(addr) => addr.unwrap_or_else(|| "127.0.0.1:0".into()),
        Err(code) => return code,
    };
    let worker_threads = match parsed_flag(args, "--workers", 8) {
        Ok(n) => n,
        Err(code) => return code,
    };
    let config = pol_serve::ServerConfig {
        worker_threads,
        ..pol_serve::ServerConfig::default()
    };
    // start_snapshot sniffs the format: a POLINV4 file is memory-mapped
    // zero-copy (validated, not deserialized), a POLMAN2 chain is mapped
    // link by link; a `reload` of a manifest that extends the served
    // chain maps only its new links.
    let started = std::time::Instant::now();
    let mut server = match pol_serve::Server::start_snapshot(Path::new(path), addr.as_str(), config)
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot serve {path} on {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "cold start (load-to-ready): {:.1} ms",
        started.elapsed().as_secs_f64() * 1e3
    );
    // The bound address goes to stdout so scripts (ci.sh) can pick up an
    // ephemeral port; everything else is stderr chatter.
    println!("listening on {}", server.local_addr());
    use std::io::{BufRead, Write};
    std::io::stdout().flush().ok();
    eprintln!("serving {path}; `reload <file>` to hot-swap, close stdin (Ctrl-D) to stop");
    // std has no portable signal handling: stdin EOF is the shutdown
    // control signal (ci.sh holds a fifo open and closes it to stop us).
    // A `reload <file>` line hot-swaps the snapshot without dropping
    // connections; a corrupt file is rejected and the old one serves on.
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if let Some(new_path) = line.trim().strip_prefix("reload ") {
            let new_path = new_path.trim();
            match server.reload_from(Path::new(new_path)) {
                Ok(()) => eprintln!(
                    "reloaded {new_path} (generation {})",
                    server.metrics().generation()
                ),
                Err(e) => eprintln!("reload rejected, keeping old snapshot: {e}"),
            }
        } else if !line.trim().is_empty() {
            eprintln!("unknown control command (only `reload <file>` is understood)");
        }
    }
    let stats = server.metrics().snapshot();
    server.shutdown();
    eprintln!(
        "shut down after {} requests over {} connections ({} busy, {} malformed)",
        stats.total_requests, stats.connections, stats.busy_rejections, stats.malformed_frames
    );
    ExitCode::SUCCESS
}

fn cmd_repro(args: &[String]) -> ExitCode {
    let names = || {
        let names: Vec<&str> = repro::EXPERIMENTS.iter().map(|e| e.name).collect();
        format!("all, {}", names.join(", "))
    };
    let chosen: Vec<&repro::Experiment> = match args.first().map(String::as_str) {
        Some("all") => repro::EXPERIMENTS.iter().collect(),
        Some(name) => match repro::find(name) {
            Some(e) => vec![e],
            None => {
                eprintln!("error: no experiment `{name}`; one of: {}", names());
                return ExitCode::from(2);
            }
        },
        None => {
            eprintln!(
                "usage: polinv repro <name|all> [--out DIR]; names: {}",
                names()
            );
            return ExitCode::from(2);
        }
    };
    let out = match parse_flag(args, "--out") {
        Ok(out) => out.unwrap_or_else(|| "figures".into()),
        Err(code) => return code,
    };
    let world = World::new(experiment_scenario(TRAIN_SEED));
    let (mut checks, mut failed) = (0, 0);
    for e in chosen {
        println!("== {} · {}", e.name, e.reproduces);
        let report = match (e.run)(&world) {
            Ok(r) => r,
            Err(err) => {
                eprintln!("error: {}: {err}", e.name);
                return ExitCode::FAILURE;
            }
        };
        print!("{report}");
        match report.write_csvs(Path::new(&out)) {
            Ok(paths) => paths.iter().for_each(|p| println!("wrote {}", p.display())),
            Err(err) => {
                eprintln!("error: cannot write {}'s CSVs under {out}: {err}", e.name);
                return ExitCode::FAILURE;
            }
        }
        checks += report.checks.len();
        failed += report.checks.iter().filter(|c| !c.holds).count();
        println!();
    }
    println!("repro: {checks} checks, {failed} failed");
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("build") => cmd_build(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("top-dest") => cmd_top_dest(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("repro") => cmd_repro(&args[1..]),
        _ => usage(),
    }
}
