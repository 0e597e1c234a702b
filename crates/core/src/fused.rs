//! The fused morsel-driven build executor — the one production build.
//!
//! [`run_fused`] executes the methodology (§3.3) as **one pass per vessel
//! partition**: after a single scan-enrich-scatter, each partition task
//! walks its vessels as morsels — clean, trip-extract, project and fold
//! into the per-key accumulators with scratch buffers reused across
//! morsels — then hands radix-partitioned combiners to the engine's
//! parallel shard merge. No stage materializes its output for the next.
//!
//! ## Bit-identity with the reference fold
//!
//! [`crate::reference::build`] is the same methodology as a plain
//! single-threaded loop, and the two produce byte-identical inventories,
//! [`StageCounts`] and [`CleanReport`]s (tested at 1, 2, 8 and 16 threads
//! on the tiny scenario, and over arbitrary inputs in
//! `tests/pipeline_properties.rs`).
//! The stage counts and clean report are bit-identical because every
//! ordering decision that reaches them is data-determined; the inventory
//! bytes are because, on top of that, every summary merge is exact and
//! commutes (DESIGN §9), so how vessels are bucketed and in which order
//! the buckets' summaries merge does not reach the bytes either — at any
//! partition count ([`run_fused_partitioned`]):
//!
//! * records scatter to [`Engine::DEFAULT_PARTITIONS`] buckets by
//!   `hash64(mmsi) % num`, input partitions concatenated in order. The
//!   scatter is two-pass (count, then write into exactly-sized per-worker
//!   buckets) and the driver moves whole chunk vectors, never records, so
//!   workers share nothing;
//! * within a partition, one unstable sort over `(mmsi, timestamp,
//!   arrival index)` replaces per-vessel grouping + per-vessel stable
//!   timestamp sort: the arrival index makes the key total (no equal
//!   keys), so the order is exactly ascending-MMSI vessels, each stably
//!   time-sorted — what [`crate::clean::order_and_filter_vessel`]
//!   produces vessel by vessel;
//! * the per-vessel machinery is literally shared: cleaning folds the
//!   same [`crate::clean::VesselCleaner`] state machine, trip extraction
//!   folds the same [`crate::trips::TripTracker`] (via
//!   [`crate::trips::extract_for_vessel_with`], reusing one tracker
//!   across morsels), projection is [`crate::project::project_trip`] and
//!   the fan-out is [`crate::features`]' `observe`;
//! * per key, [`merge_combiner_shards`] adopts the first bucket's summary
//!   and merges the later ones into it in bucket order.

use crate::clean::{enrich_one, segment_lookup, CleanReport, Rejected, VesselCleaner};
use crate::config::PipelineConfig;
use crate::error::PipelineError;
use crate::features::{merge_shared, observe, CellStats, Combiner, GroupKey};
use crate::inventory::Inventory;
use crate::project::project_trip;
use crate::records::{CellPoint, EnrichedReport, PortSite, TripPoint};
use crate::trips::{extract_for_vessel_with, Geofence, TripTracker};
use pol_ais::{PositionReport, StaticReport};
use pol_engine::{merge_combiner_shards, radix_partition, Engine, StageReport};
use pol_hexgrid::CellIndex;
use pol_sketch::hash::hash64;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// Per-stage record counts — the machine-checkable analogue of the
/// Figure-2 pictorial walkthrough.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageCounts {
    /// Raw input records.
    pub raw: u64,
    /// After cleaning + commercial enrichment (§3.3.1).
    pub cleaned: u64,
    /// After trip-semantics extraction (§3.3.2) — records outside any trip
    /// are excluded here.
    pub with_trips: u64,
    /// After grid projection (§3.3.3); equals `with_trips` (projection is
    /// total) and is kept for symmetry with the paper's flow diagram.
    pub projected: u64,
    /// Group identifiers materialised (§3.3.4).
    pub group_entries: u64,
}

/// Everything a build produces.
pub struct PipelineOutput {
    /// The global inventory.
    pub inventory: Inventory,
    /// Stage-by-stage record accounting.
    pub counts: StageCounts,
    /// Cleaning detail (defect classes).
    pub clean_report: CleanReport,
}

/// Per-worker scratch for the fused build phase, held in a `thread_local`
/// so each pool worker allocates its large transient buffers once and
/// reuses them for every task it runs. This matters beyond the allocation
/// *count*: the buffers are hundreds of KB each, which the system
/// allocator services with `mmap`/`munmap` — and concurrent unmapping
/// serializes workers on the process memory-map lock. Reuse only changes
/// where the bytes live, never what they are, so bit-identity is
/// untouched.
#[derive(Default)]
struct BuildScratch {
    /// Concatenated shuffle chunks for the current bucket.
    records: Vec<EnrichedReport>,
    /// `(mmsi, timestamp, arrival index)` sort keys over `records`.
    keys: Vec<(u32, i64, u32)>,
    /// Per-vessel cleaned reports.
    cleaned: Vec<EnrichedReport>,
    /// Per-vessel trip points.
    trips: Vec<TripPoint>,
    /// Per-trip projected cell points.
    cells: Vec<CellPoint>,
    /// `project_trip`'s cell-index working set.
    cell_scratch: Vec<CellIndex>,
    /// The shared trip state machine (its in-progress buffer grows to the
    /// largest vessel, so it is worth keeping warm too). `None` until the
    /// worker's first task; `TripTracker::reset` re-arms it per morsel.
    tracker: Option<TripTracker>,
}

thread_local! {
    static BUILD_SCRATCH: RefCell<BuildScratch> = RefCell::new(BuildScratch::default());
    /// Scan-phase scratch: the enrich pass's survivor buffer.
    static SCAN_SCRATCH: RefCell<Vec<EnrichedReport>> = const { RefCell::new(Vec::new()) };
}

/// Per-task output of the scan-enrich phase.
struct ScanOut {
    /// Enriched records, bucketed by `hash64(mmsi) % num`.
    buckets: Vec<Vec<EnrichedReport>>,
    raw: u64,
    out_of_range: u64,
}

/// The reduce half [`run_fused`] and [`fold_shared`] share: the parallel
/// radix shard merge, recorded as `stage` (its shuffled over output
/// records is the map-side blow-up the merge pays for), and the
/// inventory adopting what the merge leaves.
fn reduce(
    engine: &Engine,
    cfg: &PipelineConfig,
    stage: &str,
    started: Instant,
    sharded: Vec<Vec<Vec<(GroupKey, Arc<CellStats>)>>>,
    records: u64,
) -> Result<Inventory, PipelineError> {
    let combiner_entries = sharded
        .iter()
        .flat_map(|w| w.iter())
        .map(|s| s.len() as u64)
        .sum();
    let stats = merge_combiner_shards(engine, stage, sharded, merge_shared)?;
    engine.metrics().record(StageReport {
        name: stage.to_string(),
        input_records: records * 3,
        output_records: stats.iter().map(|s| s.len() as u64).sum(),
        shuffled_records: combiner_entries,
        wall: started.elapsed(),
    });
    Ok(Inventory::from_shards(cfg.resolution, stats, records))
}

/// Per-task output of the fused build phase.
struct BuildOut {
    /// Radix-partitioned per-key combiners for the parallel shard merge.
    shards: Vec<Vec<(GroupKey, Arc<CellStats>)>>,
    cleaned: u64,
    duplicates: u64,
    with_trips: u64,
    morsels: u64,
}

/// Runs the full methodology as a fused single pass per vessel partition:
/// two parallel phases and the shard merge, recorded as the stages
/// `fused:scan-enrich`, `fused:build` and `fused:aggregate` (with its
/// `fused:aggregate:radix-merge`). Same inputs, same outputs —
/// bit-identical inventory, [`StageCounts`] and [`CleanReport`] — as
/// [`crate::reference::build`].
pub fn run_fused(
    engine: &Engine,
    positions: Vec<Vec<PositionReport>>,
    statics: &[StaticReport],
    ports: &[PortSite],
    cfg: &PipelineConfig,
) -> Result<PipelineOutput, PipelineError> {
    run_fused_partitioned(
        engine,
        Engine::DEFAULT_PARTITIONS,
        positions,
        statics,
        ports,
        cfg,
    )
}

/// [`run_fused`] with the vessels scattered to `partitions` buckets (at
/// least one) instead of [`Engine::DEFAULT_PARTITIONS`]: the same
/// output at every count, which `tests/pipeline_properties.rs` checks.
pub fn run_fused_partitioned(
    engine: &Engine,
    partitions: usize,
    positions: Vec<Vec<PositionReport>>,
    statics: &[StaticReport],
    ports: &[PortSite],
    cfg: &PipelineConfig,
) -> Result<PipelineOutput, PipelineError> {
    let num = partitions.max(1);

    // Phase 1: scan + range-check + enrich + scatter by vessel, one task
    // per input partition.
    let started = Instant::now();
    let lookup = Arc::new(segment_lookup(statics));
    let commercial_only = cfg.commercial_only;
    let scanned: Vec<ScanOut> =
        engine.run_tasks("fused:scan-enrich", positions, move |_, part| {
            let raw = part.len() as u64;
            let mut out_of_range = 0u64;
            SCAN_SCRATCH.with(|scratch| {
                // Pass 1: enrich into the worker's reusable buffer,
                // counting each survivor's destination bucket.
                let mut enriched = scratch.borrow_mut();
                enriched.clear();
                enriched.reserve(part.len());
                let mut counts = vec![0usize; num];
                for r in part {
                    if !r.in_protocol_ranges() {
                        out_of_range += 1;
                        continue;
                    }
                    if let Some(e) = enrich_one(&lookup, commercial_only, r) {
                        counts[(hash64(&e.mmsi.0) % num as u64) as usize] += 1;
                        enriched.push(e);
                    }
                }
                // Pass 2: scatter into exactly-sized worker-local buckets —
                // same record order, no growth reallocation, nothing shared
                // across workers.
                let mut buckets: Vec<Vec<EnrichedReport>> =
                    counts.iter().map(|&c| Vec::with_capacity(c)).collect();
                for e in enriched.drain(..) {
                    let b = (hash64(&e.mmsi.0) % num as u64) as usize;
                    buckets[b].push(e);
                }
                ScanOut {
                    buckets,
                    raw,
                    out_of_range,
                }
            })
        })?;
    let raw_count: u64 = scanned.iter().map(|s| s.raw).sum();
    let out_of_range: u64 = scanned.iter().map(|s| s.out_of_range).sum();

    // Driver-side transpose: gather bucket b of every task in input order
    // — the shuffle's reduce side. The driver moves chunk *vectors*, never
    // records; each build task concatenates its own chunks, so the copy
    // work parallelizes instead of serializing on the driver.
    let mut partitions: Vec<Vec<Vec<EnrichedReport>>> = (0..num)
        .map(|_| Vec::with_capacity(scanned.len()))
        .collect();
    for scan in scanned {
        for (b, bucket) in scan.buckets.into_iter().enumerate() {
            partitions[b].push(bucket);
        }
    }
    let enriched_count: u64 = partitions
        .iter()
        .flat_map(|p| p.iter())
        .map(|c| c.len() as u64)
        .sum();
    engine.metrics().record(StageReport {
        name: "fused:scan-enrich".to_string(),
        input_records: raw_count,
        output_records: enriched_count,
        shuffled_records: enriched_count,
        wall: started.elapsed(),
    });

    // Phase 2: the fused morsel loop — clean, trip-extract, project and
    // fold into per-key combiners, one task per vessel partition, scratch
    // buffers reused across morsels.
    let started = Instant::now();
    let geofence = Arc::new(Geofence::build(ports, cfg.resolution));
    let res = cfg.resolution;
    let task_cfg = cfg.clone();
    let built: Vec<BuildOut> = engine.run_tasks("fused:build", partitions, move |_, chunks| {
        BUILD_SCRATCH.with(|scratch| {
            let s = &mut *scratch.borrow_mut();
            // Concatenate the shuffle chunks once, in input-partition
            // order, into the worker's reusable buffer.
            let total: usize = chunks.iter().map(Vec::len).sum();
            let records = &mut s.records;
            records.clear();
            records.reserve(total);
            for chunk in chunks {
                records.extend(chunk);
            }
            // One unstable sort over (mmsi, timestamp, arrival index)
            // replaces the per-vessel hash grouping + per-vessel stable
            // timestamp sort: the arrival index makes the key total (no
            // equal keys, so instability is unobservable), and within a
            // vessel (timestamp, arrival) order is exactly the stable time
            // sort of its arrival-ordered records — what
            // `order_and_filter_vessel` feeds the cleaner vessel by vessel.
            let keys = &mut s.keys;
            keys.clear();
            keys.extend(
                records
                    .iter()
                    .enumerate()
                    .map(|(i, r)| (r.mmsi.0, r.timestamp, i as u32)),
            );
            keys.sort_unstable();
            let mut acc = Combiner::default();
            let cleaned_buf = &mut s.cleaned;
            let trip_buf = &mut s.trips;
            let cell_buf = &mut s.cells;
            let cell_scratch = &mut s.cell_scratch;
            let tracker = s
                .tracker
                .get_or_insert_with(|| TripTracker::new(task_cfg.min_trip_points));
            let (mut cleaned, mut duplicates, mut with_trips, mut morsels) = (0, 0, 0, 0);
            // Walk vessels as runs of equal MMSI — ascending-MMSI morsel
            // order, every scratch buffer reused across morsels.
            for vessel in keys.chunk_by(|a, b| a.0 == b.0) {
                morsels += 1;
                cleaned_buf.clear();
                trip_buf.clear();
                // Clean: fold the shared VesselCleaner state machine over
                // the time-sorted run (identical to
                // `order_and_filter_vessel`).
                let mut cleaner = VesselCleaner::new(task_cfg.max_feasible_speed_kn);
                for k in vessel {
                    match cleaner.push(records[k.2 as usize]) {
                        Ok(kept) => cleaned_buf.push(kept),
                        Err(Rejected::Duplicate) => duplicates += 1,
                        Err(Rejected::Infeasible) => {}
                    }
                }
                cleaned += cleaned_buf.len() as u64;
                tracker.reset(task_cfg.min_trip_points);
                extract_for_vessel_with(tracker, &geofence, cleaned_buf, trip_buf);
                with_trips += trip_buf.len() as u64;
                // Trips emit contiguously in (mmsi, seq) order: project one
                // trip run at a time and fold straight into the combiners.
                for trip in trip_buf.chunk_by(|a, b| a.trip_id == b.trip_id) {
                    cell_buf.clear();
                    project_trip(trip, res, cell_scratch, cell_buf);
                    observe(&mut acc, &task_cfg, cell_buf);
                }
            }
            BuildOut {
                shards: radix_partition(acc, num),
                cleaned,
                duplicates,
                with_trips,
                morsels,
            }
        })
    })?;
    let cleaned_count: u64 = built.iter().map(|b| b.cleaned).sum();
    let duplicates: u64 = built.iter().map(|b| b.duplicates).sum();
    let with_trips: u64 = built.iter().map(|b| b.with_trips).sum();
    let morsels: u64 = built.iter().map(|b| b.morsels).sum();
    let projected_count = with_trips; // projection is total
    engine.metrics().record(StageReport {
        name: "fused:build".to_string(),
        input_records: enriched_count,
        output_records: projected_count,
        shuffled_records: 0,
        wall: started.elapsed(),
    });
    engine.metrics().add_counter("fused.morsels", morsels);

    // Phase 3: parallel radix shard merge.
    let sharded = built.into_iter().map(|b| b.shards).collect();
    let inventory = reduce(
        engine,
        cfg,
        "fused:aggregate",
        Instant::now(),
        sharded,
        projected_count,
    )?;
    let group_entries = inventory.len() as u64;
    let output = cleaned_count;
    Ok(PipelineOutput {
        inventory,
        counts: StageCounts {
            raw: raw_count,
            cleaned: cleaned_count,
            with_trips,
            projected: projected_count,
            group_entries,
        },
        clean_report: CleanReport {
            input: raw_count,
            out_of_range,
            duplicates,
            infeasible: enriched_count - output - duplicates,
            non_commercial: raw_count - out_of_range - enriched_count,
            output,
        },
    })
}

/// Folds per-vessel projected cell points into an [`Inventory`] as the
/// fused executor's phases 2–3 do: vessels scatter to
/// [`Engine::DEFAULT_PARTITIONS`] buckets by `hash64(mmsi) % num`, each
/// bucket observes its vessels through the same `observe`, and the
/// reduce half is the same `reduce`.
///
/// This is pol-stream's path to an inventory: a session retains its
/// vessel's cell points in emission order and hands them over as
/// `(mmsi, points, from)` — shared, not copied — to contribute
/// `points[from..]`: a window cut folds the tail, a close all of it, and
/// a close over a whole feed is byte-identical to [`run_fused`] over the
/// same records (`fold_projected_matches_run_fused` below). `projected`
/// is the cell-point count recorded as the inventory's record total.
pub fn fold_shared(
    engine: &Engine,
    cfg: &PipelineConfig,
    per_vessel: Vec<(u32, Arc<Vec<CellPoint>>, usize)>,
    projected: u64,
) -> Result<Inventory, PipelineError> {
    let num = Engine::DEFAULT_PARTITIONS;
    // Same scatter as `run_fused` phase 1: a vessel's bucket depends only
    // on its MMSI hash, so bucket composition matches the batch shuffle.
    let mut partitions: Vec<Vec<_>> = (0..num).map(|_| Vec::new()).collect();
    for vessel in per_vessel {
        partitions[(hash64(&vessel.0) % num as u64) as usize].push(vessel);
    }
    let started = Instant::now();
    let task_cfg = cfg.clone();
    let sharded = engine.run_tasks("stream:fold", partitions, move |_, part| {
        // Any vessel order folds to the same bytes (DESIGN §9).
        let mut acc = Combiner::default();
        for (_, points, from) in &part {
            observe(&mut acc, &task_cfg, points.get(*from..).unwrap_or_default());
        }
        radix_partition(acc, num)
    })?;
    reduce(engine, cfg, "stream:fold", started, sharded, projected)
}

/// [`fold_shared`] over vessels handed over whole.
pub fn fold_projected(
    engine: &Engine,
    cfg: &PipelineConfig,
    per_vessel: Vec<(u32, Vec<CellPoint>)>,
    projected_count: u64,
) -> Result<Inventory, PipelineError> {
    let per_vessel = per_vessel
        .into_iter()
        .map(|(mmsi, points)| (mmsi, Arc::new(points), 0))
        .collect();
    fold_shared(engine, cfg, per_vessel, projected_count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clean::order_and_filter_vessel;
    use crate::codec::columnar;
    use crate::pipeline::port_sites;
    use crate::trips::extract_for_vessel;
    use pol_fleetsim::scenario::{generate, ScenarioConfig};
    use pol_sketch::hash::FxHashMap;

    #[test]
    fn fused_records_radix_merge_stage_and_morsel_counter() {
        let ds = generate(&ScenarioConfig::tiny());
        let cfg = PipelineConfig::default();
        let ports = port_sites(cfg.port_radius_km);
        let engine = Engine::new(2);
        let out = run_fused(&engine, ds.positions, &ds.statics, &ports, &cfg).unwrap();
        assert!(!out.inventory.is_empty());
        let stages = engine.metrics().report();
        for name in ["fused:scan-enrich", "fused:build", "fused:aggregate"] {
            assert!(stages.iter().any(|s| s.name == name), "{name} missing");
        }
        assert!(
            stages
                .iter()
                .any(|s| s.name == "fused:aggregate:radix-merge"),
            "parallel shard merge must be visible in stage timings"
        );
        assert!(engine.metrics().counter("fused.morsels") > 0);
    }

    /// The contract pol-stream's close path rests on: collecting each
    /// vessel's projected cell points (via the shared incremental helpers,
    /// in batch order) and handing them to `fold_projected` reproduces the
    /// fused build byte-for-byte.
    #[test]
    fn fold_projected_matches_run_fused() {
        let ds = generate(&ScenarioConfig::tiny());
        let cfg = PipelineConfig::default();
        let ports = port_sites(cfg.port_radius_km);
        let fused = run_fused(
            &Engine::new(2),
            ds.positions.clone(),
            &ds.statics,
            &ports,
            &cfg,
        )
        .unwrap();

        // Collect per-vessel cell points exactly as a streaming session
        // would retain them: per-vessel input order, clean → extract →
        // project per contiguous trip run.
        let lookup = segment_lookup(&ds.statics);
        let mut per_vessel_reports: FxHashMap<u32, Vec<EnrichedReport>> = FxHashMap::default();
        let mut vessel_order: Vec<u32> = Vec::new();
        for part in &ds.positions {
            for r in part {
                if !r.in_protocol_ranges() {
                    continue;
                }
                if let Some(e) = enrich_one(&lookup, cfg.commercial_only, r.clone()) {
                    per_vessel_reports
                        .entry(e.mmsi.0)
                        .or_insert_with(|| {
                            vessel_order.push(e.mmsi.0);
                            Vec::new()
                        })
                        .push(e);
                }
            }
        }
        let geofence = Geofence::build(&ports, cfg.resolution);
        let mut per_vessel: Vec<(u32, Vec<CellPoint>)> = Vec::new();
        let mut projected_count = 0u64;
        for mmsi in vessel_order {
            let reports = per_vessel_reports.remove(&mmsi).unwrap();
            let mut cleaned = Vec::new();
            order_and_filter_vessel(reports, cfg.max_feasible_speed_kn, &mut cleaned);
            let mut trips = Vec::new();
            extract_for_vessel(&geofence, &cleaned, cfg.min_trip_points, &mut trips);
            let mut cells = Vec::new();
            let mut scratch = Vec::new();
            for trip in trips.chunk_by(|a, b| a.trip_id == b.trip_id) {
                project_trip(trip, cfg.resolution, &mut scratch, &mut cells);
            }
            projected_count += trips.len() as u64;
            per_vessel.push((mmsi, cells));
        }
        assert_eq!(projected_count, fused.counts.projected);

        let folded = fold_projected(&Engine::new(1), &cfg, per_vessel, projected_count).unwrap();
        assert_eq!(
            columnar::to_bytes(&fused.inventory),
            columnar::to_bytes(&folded),
            "fold_projected must reproduce the fused build byte-for-byte"
        );
    }

    /// Byte-identical to the reference fold on the tiny scenario, at the
    /// default resolution and at the finer one.
    #[test]
    fn fused_matches_reference_on_tiny_scenario() {
        let ds = generate(&ScenarioConfig::tiny());
        for cfg in [PipelineConfig::default(), PipelineConfig::fine()] {
            let ports = port_sites(cfg.port_radius_km);
            let reference =
                crate::reference::build(ds.positions.clone(), &ds.statics, &ports, &cfg);
            let fused = run_fused(
                &Engine::new(2),
                ds.positions.clone(),
                &ds.statics,
                &ports,
                &cfg,
            )
            .unwrap();
            assert_eq!(reference.counts, fused.counts);
            assert_eq!(reference.clean_report, fused.clean_report);
            assert_eq!(
                columnar::to_bytes(&reference.inventory),
                columnar::to_bytes(&fused.inventory),
                "fused inventory must be byte-identical to the reference at res {}",
                cfg.resolution
            );
        }
    }

    #[test]
    fn fused_empty_input_matches_reference() {
        let cfg = PipelineConfig::default();
        let ports = port_sites(cfg.port_radius_km);
        let reference = crate::reference::build(vec![], &[], &ports, &cfg);
        let fused = run_fused(&Engine::new(2), vec![], &[], &ports, &cfg).unwrap();
        assert_eq!(reference.counts, fused.counts);
        assert_eq!(reference.clean_report, fused.clean_report);
        assert_eq!(
            columnar::to_bytes(&reference.inventory),
            columnar::to_bytes(&fused.inventory)
        );
        assert!(fused.inventory.is_empty());
    }
}
