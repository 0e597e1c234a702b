//! Where a crashed ingester's recovery spends its time.
//!
//! Streams polbench's scenario shape (50 vessels × 7 days at
//! `interval_scale` 10, seed 42, without the receiver's noise) through a
//! `JournaledEngine`: a checkpoint at the end of every twentieth of the
//! feed, a delta window cut and published each simulated day. The run is
//! abandoned half-way through the thirteenth twentieth (62.5 % of the
//! feed): the engine is dropped unflushed and unsealed, as a killed
//! process leaves its directory. Then `recover` runs and the four phases
//! of its `RecoveryReport` are printed:
//!
//! * `restore` — head read, then the checkpoint log, the journal load and
//!   the engine skeleton side by side, then the state into the skeleton;
//! * `journal load` — the journal load alone, on its own thread inside
//!   `restore`;
//! * `replay` — the journal suffix past the checkpoint, with its cuts;
//! * `reopen` — the journal tail and the checkpoint log reopened.
//!
//! The feed resumes where the durable journal ends and the run closes. The
//! closed inventory, the counters and every chain file must equal an
//! uninterrupted run's byte for byte; no time is checked.
//!
//! ```sh
//! cargo run --release -p pol-stream --example recovery_phases
//! ```

use pol_ais::PositionReport;
use pol_core::codec::{columnar, manifest};
use pol_core::records::PortSite;
use pol_core::PipelineConfig;
use pol_engine::Engine;
use pol_fleetsim::emit::EmissionConfig;
use pol_fleetsim::scenario::{generate, ScenarioConfig};
use pol_fleetsim::stream::interleave;
use pol_fleetsim::WORLD_PORTS;
use pol_stream::{
    recover, DeltaPublisher, IngestCounters, JournalError, JournaledEngine, StreamConfig,
    StreamEngine, WalConfig, WindowSpec, MANIFEST_NAME,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Equal record chunks, each ending in a checkpoint.
const CHUNKS: usize = 20;
/// The run is abandoned half-way through this chunk.
const ABANDON_CHUNK: usize = 12;
/// Recoveries of the one crash image: copies of it, then itself.
const RECOVERIES: usize = 3;

struct Feed {
    wire: Vec<PositionReport>,
    statics: Vec<pol_ais::StaticReport>,
    ports: Vec<PortSite>,
    spec: WindowSpec,
    chunk: usize,
}

fn feed() -> Feed {
    let ds = generate(&ScenarioConfig {
        seed: 42,
        n_vessels: 50,
        duration_days: 7,
        emission: EmissionConfig {
            interval_scale: 10.0,
            ..EmissionConfig::default()
        },
        ..ScenarioConfig::default()
    });
    let radius_km = PipelineConfig::default().port_radius_km;
    let ports = WORLD_PORTS
        .iter()
        .enumerate()
        .map(|(i, p)| PortSite {
            id: i as u16,
            name: p.name.to_string(),
            pos: p.pos(),
            radius_km,
        })
        .collect();
    let wire: Vec<PositionReport> = interleave(ds.positions).collect();
    Feed {
        chunk: wire.len().div_ceil(CHUNKS),
        wire,
        statics: ds.statics,
        ports,
        spec: WindowSpec {
            start_ts: ds.config.start,
            window_secs: 86_400,
        },
    }
}

/// Pushes records `from..to` of the feed, publishing every window the
/// watermark allows and checkpointing at each chunk's end.
fn drive(
    je: &mut JournaledEngine,
    publisher: &mut DeltaPublisher,
    feed: &Feed,
    engine: &Engine,
    from: usize,
    to: usize,
) -> Result<(), JournalError> {
    for (i, &r) in feed.wire.iter().enumerate().take(to).skip(from) {
        je.push(r)?;
        while je.watermark() >= feed.spec.cut_at(je.window_cuts()) {
            let generation = je.window_cuts();
            let delta = je.take_window_delta(engine)?;
            publisher.publish_at(generation, &delta).map_err(io)?;
        }
        if (i + 1) % feed.chunk == 0 || i + 1 == feed.wire.len() {
            je.checkpoint()?;
        }
    }
    Ok(())
}

fn io(e: std::io::Error) -> JournalError {
    JournalError::Codec(e.into())
}

/// Copies the regular files of `from` into a fresh `to`.
fn copy_flat(from: &Path, to: &Path) -> Result<(), JournalError> {
    fresh(to)?;
    for entry in std::fs::read_dir(from).map_err(io)? {
        let entry = entry.map_err(io)?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(io)?;
    }
    Ok(())
}

fn fresh(dir: &Path) -> Result<(), JournalError> {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).map_err(io)
}

/// What a run closed to.
struct Closed {
    inventory: Vec<u8>,
    counters: IngestCounters,
    chain: Vec<Vec<u8>>,
}

fn closed(je: JournaledEngine, engine: &Engine, dir: &Path) -> Result<Closed, JournalError> {
    let out = je.close(engine)?;
    let chain = manifest::load(&dir.join(MANIFEST_NAME))?
        .entries
        .iter()
        .map(|e| std::fs::read(dir.join(&e.name)).map_err(io))
        .collect::<Result<_, _>>()?;
    Ok(Closed {
        inventory: columnar::to_bytes(&out.inventory),
        counters: out.counters,
        chain,
    })
}

fn main() -> Result<(), JournalError> {
    let feed = feed();
    let engine = Engine::new(2);
    let n = feed.wire.len();
    let kill_at = ABANDON_CHUNK * feed.chunk + feed.chunk / 2;
    let root = std::env::temp_dir().join(format!("pol-recovery-phases-{}", std::process::id()));
    let (oracle_dir, dir): (PathBuf, PathBuf) = (root.join("uninterrupted"), root.join("crashed"));

    fresh(&oracle_dir)?;
    let se = StreamEngine::new(&feed.statics, &feed.ports, StreamConfig::default());
    let mut je = JournaledEngine::create(&oracle_dir, se, WalConfig::default(), 0)?;
    let mut publisher = DeltaPublisher::create(&oracle_dir);
    drive(&mut je, &mut publisher, &feed, &engine, 0, n)?;
    let want = closed(je, &engine, &oracle_dir)?;

    fresh(&dir)?;
    let se = StreamEngine::new(&feed.statics, &feed.ports, StreamConfig::default());
    let mut je = JournaledEngine::create(&dir, se, WalConfig::default(), 0)?;
    let mut publisher = DeltaPublisher::create(&dir);
    drive(&mut je, &mut publisher, &feed, &engine, 0, kill_at)?;
    drop((je, publisher));

    // The crash image is recovered from copies first, then in place: the
    // first recovery in a process also pays for cold allocations.
    let copy = root.join("copy");
    println!(
        "{:>10} {:>10} {:>13} {:>10} {:>10} {:>10}",
        "recovery", "restore ms", "journal ms", "replay ms", "reopen ms", "wall ms"
    );
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut recovered = None;
    for run in 1..=RECOVERIES {
        let at = if run < RECOVERIES { &copy } else { &dir };
        if run < RECOVERIES {
            copy_flat(&dir, &copy)?;
        }
        let started = Instant::now();
        let (mut publisher, _) = DeltaPublisher::open(at)?;
        let (je, report) = recover(
            at,
            &engine,
            &feed.statics,
            &feed.ports,
            StreamConfig::default(),
            WalConfig::default(),
            0,
            Some((&mut publisher, feed.spec)),
        )?;
        let wall = started.elapsed();
        println!(
            "{run:>10} {:>10.3} {:>13.3} {:>10.3} {:>10.3} {:>10.3}",
            ms(report.restore),
            ms(report.journal_load),
            ms(report.replay),
            ms(report.reopen),
            ms(wall),
        );
        recovered = Some((publisher, je, report));
    }
    let Some((mut publisher, mut je, report)) = recovered else {
        unreachable!("RECOVERIES > 0")
    };
    println!(
        "{n} records, killed at {kill_at} ({:.1} %): checkpoint at batch {}, \
         {} records in {} batches replayed from {} segment(s)",
        100.0 * kill_at as f64 / n as f64,
        report.checkpoint_wal_seq,
        report.records_replayed,
        report.batches_replayed,
        report.segments,
    );

    let resume_at = usize::try_from(je.counters().ingested).unwrap_or(n);
    drive(&mut je, &mut publisher, &feed, &engine, resume_at, n)?;
    let got = closed(je, &engine, &dir)?;
    assert!(
        got.inventory == want.inventory,
        "the recovered run must close to the uninterrupted run's bytes"
    );
    assert_eq!(got.counters, want.counters, "exactly-once counters");
    assert!(
        got.chain == want.chain,
        "the chain must match the uninterrupted run's file for file"
    );
    println!(
        "closed: {} inventory bytes and {} chain files, identical to the uninterrupted run",
        got.inventory.len(),
        got.chain.len()
    );
    std::fs::remove_dir_all(&root).ok();
    Ok(())
}
