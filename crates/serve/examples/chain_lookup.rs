//! What a request costs when the server answers from a delta chain of k
//! links, and what the reload that makes it k links costs.
//!
//! Simulates a fleet (polbench's scenario shape: 50 vessels at
//! `interval_scale` 10, seed 42), cuts it into daily windows with
//! `StreamEngine` and publishes each as a POLINV3 link. Then, for every
//! k, it serves the first k links and times:
//!
//! * `reload` — the server's hot reload onto the first k links, from
//!   the first k − 1;
//! * `busiest` — `summary_at` + encode of the busiest cell, the key most
//!   links hold (`links` says how many);
//! * `cells` — the same, averaged over every occupied cell;
//! * `top-dest` / `bbox` — a top-destination scan for the busiest cell's
//!   destination and a 20° box around it; `1st top` is the store's first
//!   top-destination scan, which over several links builds their rows;
//! * `rtt` / `batch32` — over loopback, one point summary per round trip
//!   (`serve_lookup`'s shape) and a `BATCH` of 32 (`serve_heavy`'s).
//!
//! The last row serves the whole chain folded into one POLINV3 file.
//! Past `MAX_LINKS` links the store folds on its own, so `served` drops
//! back to 1. In-process times are the median of 31 batches.
//!
//! ```sh
//! cargo run --release -p pol-serve --example chain_lookup [days]
//! ```

use pol_core::codec::manifest::{self, Manifest, ManifestEntry};
use pol_core::codec::{columnar, CodecError};
use pol_core::features::GroupKey;
use pol_core::records::PortSite;
use pol_core::{Inventory, PipelineConfig};
use pol_engine::Engine;
use pol_fleetsim::emit::EmissionConfig;
use pol_fleetsim::scenario::{generate, ScenarioConfig};
use pol_fleetsim::stream::interleave;
use pol_fleetsim::WORLD_PORTS;
use pol_geo::BBox;
use pol_hexgrid::{cell_center, CellIndex};
use pol_serve::mapped::MAX_LINKS;
use pol_serve::{Client, MappedStore, Request, Server, ServerConfig};
use pol_stream::{DeltaPublisher, StreamConfig, StreamEngine, WindowSpec};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Median nanoseconds per call of `f`, over 31 batches of `per_batch`.
fn median_ns(per_batch: usize, mut f: impl FnMut()) -> f64 {
    let mut batches: Vec<f64> = (0..31)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            started.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

/// The scenario cut into daily windows, one published link per window.
fn publish_chain(dir: &Path, days: u32) -> Vec<ManifestEntry> {
    let ds = generate(&ScenarioConfig {
        seed: 42,
        n_vessels: 50,
        duration_days: days,
        emission: EmissionConfig {
            interval_scale: 10.0,
            ..EmissionConfig::default()
        },
        ..ScenarioConfig::default()
    });
    let cfg = PipelineConfig::default();
    let ports: Vec<PortSite> = (WORLD_PORTS.iter().enumerate())
        .map(|(i, p)| PortSite {
            id: i as u16,
            name: p.name.to_string(),
            pos: p.pos(),
            radius_km: cfg.port_radius_km,
        })
        .collect();
    let engine = Engine::new(2);
    let mut stream = StreamEngine::new(&ds.statics, &ports, StreamConfig::default());
    let spec = WindowSpec {
        start_ts: ds.config.start,
        window_secs: 86_400,
    };
    let mut publisher = DeltaPublisher::create(dir);
    let mut cuts = 0;
    for report in interleave(ds.positions) {
        stream.push(report);
        while stream.watermark() >= spec.cut_at(cuts) {
            publisher
                .publish(&stream.take_window_delta(&engine).unwrap())
                .unwrap();
            cuts += 1;
        }
    }
    stream.drain_to_watermark();
    let last = stream.take_window_delta(&engine).unwrap();
    if !last.is_empty() {
        publisher.publish(&last).unwrap();
    }
    manifest::load(publisher.manifest_path()).unwrap().entries
}

/// A manifest naming `entries`, beside their files.
fn manifest_of(dir: &Path, entries: &[ManifestEntry]) -> PathBuf {
    let path = dir.join(format!("first-{}.polman", entries.len()));
    let man = Manifest {
        entries: entries.to_vec(),
    };
    manifest::save(&man, &path).unwrap();
    path
}

struct Probe {
    busiest: CellIndex,
    cells: Vec<CellIndex>,
    dest: u16,
    bbox: BBox,
}

impl Probe {
    fn of(chain: &Inventory) -> Probe {
        let records = |c: &CellIndex| chain.summary(*c).map_or(0, |s| s.records);
        let busiest = chain.cells().max_by_key(|c| (records(c), c.raw())).unwrap();
        let top = chain.summary(busiest).and_then(|s| s.destinations.top1());
        let at = cell_center(busiest);
        let (lat, lon) = (at.lat(), at.lon());
        Probe {
            busiest,
            cells: chain.cells().collect(),
            dest: top.map_or(0, |(d, _)| d as u16),
            bbox: BBox::new(lat - 10.0, lon - 10.0, lat + 10.0, lon + 10.0).unwrap(),
        }
    }

    /// One row: the store's in-process costs, then the loopback ones from
    /// a server holding the same links.
    fn row(
        &self,
        label: &str,
        store: &MappedStore,
        holders: usize,
        client: &mut Client,
        reload_ms: f64,
    ) {
        let mut out = Vec::with_capacity(1 << 16);
        let mut encode = |cell: CellIndex| {
            out.clear();
            if let Some(summary) = black_box(store).summary_at(&GroupKey::Cell(cell)) {
                summary.encode(&mut out);
            }
        };
        let busiest_ns = median_ns(200, || encode(self.busiest));
        let cells_ns = median_ns(1, || self.cells.iter().for_each(|&c| encode(c)));
        let mut found = Vec::new();
        let started = Instant::now();
        store.cells_with_top_destination(self.dest, None, &mut found);
        let first_top_ms = started.elapsed().as_secs_f64() * 1e3;
        let top_us = median_ns(10, || {
            black_box(store).cells_with_top_destination(self.dest, None, &mut found)
        }) / 1e3;
        let bbox_us = median_ns(10, || black_box(store).cells_in(&self.bbox, &mut found)) / 1e3;

        let lookups: Vec<Request> = (self.cells.iter().map(|&c| cell_center(c)))
            .map(|p| Request::PointSummary {
                lat: p.lat(),
                lon: p.lon(),
            })
            .collect();
        let rtt_us = median_ns(1, || {
            lookups
                .iter()
                .for_each(|req| drop(client.request(req).unwrap()))
        }) / 1e3
            / lookups.len() as f64;
        let frames: Vec<&[Request]> = lookups.chunks(32).collect();
        let batch_us = median_ns(1, || {
            frames.iter().for_each(|f| drop(client.batch(f).unwrap()))
        }) / 1e3
            / frames.len() as f64;
        println!(
            "{label:>7} {:>6} {holders:>5} {reload_ms:>9.3} {busiest_ns:>11.0} {:>9.0} \
             {first_top_ms:>10.3} {top_us:>11.1} {bbox_us:>8.1} {rtt_us:>8.1} {batch_us:>10.1}",
            store.links(),
            cells_ns / self.cells.len() as f64,
        );
    }
}

fn main() -> Result<(), CodecError> {
    let days = std::env::args().nth(1).map_or(10, |d| d.parse().unwrap());
    let dir = std::env::temp_dir().join(format!("pol-chain-lookup-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir)?;
    let entries = publish_chain(&dir, days);
    let full = manifest_of(&dir, &entries);
    let (chain, _) = manifest::load_chain(&full)?;
    let probe = Probe::of(&chain);
    let key = GroupKey::Cell(probe.busiest);
    println!(
        "{} links, {} occupied cells, MAX_LINKS = {MAX_LINKS}",
        entries.len(),
        probe.cells.len()
    );
    println!(
        "{:>7} {:>6} {:>5} {:>9} {:>11} {:>9} {:>10} {:>11} {:>8} {:>8} {:>10}",
        "k",
        "served",
        "links",
        "reload ms",
        "busiest ns",
        "cells ns",
        "1st top ms",
        "top-dest µs",
        "bbox µs",
        "rtt µs",
        "batch32 µs"
    );

    // The server reloads link by link, as a publisher's reader does; the
    // in-process store is extended the same way.
    let empty = Inventory::from_entries(chain.resolution(), Default::default(), 0);
    let server = Server::start(empty, "127.0.0.1:0", ServerConfig::default())?;
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut served: Option<MappedStore> = None;
    let mut holders = 0;
    for k in 1..=entries.len() {
        let link = MappedStore::extend(None, &dir, &entries[k - 1..k])?;
        holders += usize::from(link.summary_at(&key).is_some());
        let manifest = manifest_of(&dir, &entries[..k]);
        let started = Instant::now();
        server.reload_from(&manifest)?;
        let reload_ms = started.elapsed().as_secs_f64() * 1e3;
        let store = MappedStore::extend(served.as_ref(), &dir, &entries[k - 1..k])?;
        probe.row(&k.to_string(), &store, holders, &mut client, reload_ms);
        served = Some(store);
    }

    let folded = dir.join("folded.pol");
    columnar::save(&chain, &folded)?;
    let started = Instant::now();
    server.reload_from(&folded)?;
    let reload_ms = started.elapsed().as_secs_f64() * 1e3;
    probe.row(
        "folded",
        &MappedStore::open(&folded)?,
        1,
        &mut client,
        reload_ms,
    );
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
