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
//!   `hash64(mmsi) % num`, input partitions concatenated in order. A
//!   record is enriched where it was decoded (an [`EnrichedReport`] takes
//!   the place of its [`PositionReport`] in the input partition's own
//!   allocation) and is not copied after: a stable counting sort by
//!   bucket permutes each partition in place, and a build task reads its
//!   bucket's run of every partition where it is. A copy into buckets
//!   allocated by the workers would leave the freed input resident in
//!   the decoding thread's allocator arena while the workers' arenas
//!   grew by as much (DESIGN §8);
//! * within a bucket, vessels are grouped by one counting pass, not a
//!   sort: each vessel gets a dense id and a record count, and one
//!   scatter writes the records' `(partition, index)` pairs into
//!   ascending-MMSI runs that keep arrival order (input partitions in
//!   order, each in its own order). A run whose timestamps already rise
//!   is walked as is; any other gets a stable sort by timestamp, so
//!   equal timestamps keep arrival order — what
//!   [`crate::clean::order_and_filter_vessel`] produces vessel by vessel;
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
use pol_ais::{MarketSegment, Mmsi, PositionReport, StaticReport};
use pol_engine::{merge_combiner_shards, radix_partition, Engine, StageReport};
use pol_hexgrid::CellIndex;
use pol_sketch::hash::{hash64, FxHashMap};
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
    /// Each vessel's dense id, in order of first arrival.
    ids: FxHashMap<u32, u32>,
    /// Per dense id: the vessel's run.
    vessels: Vec<Run>,
    /// Per record, in arrival order: its vessel's dense id.
    vessel_of: Vec<u32>,
    /// Dense ids in ascending-MMSI order.
    by_mmsi: Vec<(u32, u32)>,
    /// `(partition, index)` of every record of the bucket: one run per
    /// vessel, ascending MMSI, each run in arrival order until it is
    /// time-sorted.
    order: Vec<(u32, u32)>,
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
}

/// One vessel's records in a bucket, as [`group_by_vessel`] finds them.
#[derive(Clone, Copy)]
struct Run {
    /// The vessel's MMSI.
    mmsi: u32,
    /// How many records the vessel has.
    len: u32,
    /// The run's next free slot in `order` while it is filled.
    next: u32,
    /// The timestamp of the vessel's latest arrival.
    last: i64,
    /// Whether the records arrived in time order.
    rising: bool,
}

/// Groups bucket `b`'s records by vessel without copying or sorting
/// them: each vessel gets a dense id in order of first arrival and a
/// record count, and notes whether its timestamps rise in arrival order;
/// the ids (one per vessel, not per record) are sorted by MMSI, and one
/// scatter writes every record's `(partition, index)` into its vessel's
/// run of `s.order` — runs in ascending-MMSI order, each in arrival
/// order (input partitions in order, each in its own).
fn group_by_vessel(scans: &[ScanOut], b: usize, s: &mut BuildScratch) {
    let BuildScratch {
        ids,
        vessels,
        vessel_of,
        by_mmsi,
        order,
        ..
    } = s;
    ids.clear();
    vessels.clear();
    vessel_of.clear();
    for r in scans.iter().flat_map(|scan| scan.bucket(b)) {
        let next = vessels.len() as u32;
        let id = *ids.entry(r.mmsi.0).or_insert(next);
        if id == next {
            vessels.push(Run {
                mmsi: r.mmsi.0,
                len: 0,
                next: 0,
                last: r.timestamp,
                rising: true,
            });
        }
        let v = &mut vessels[id as usize];
        v.len += 1;
        v.rising &= r.timestamp >= v.last;
        v.last = r.timestamp;
        vessel_of.push(id);
    }
    by_mmsi.clear();
    by_mmsi.extend(vessels.iter().zip(0..).map(|(v, id)| (v.mmsi, id)));
    by_mmsi.sort_unstable();
    let mut start = 0;
    for &(_, id) in by_mmsi.iter() {
        let v = &mut vessels[id as usize];
        v.next = start;
        start += v.len;
    }
    order.clear();
    order.resize(vessel_of.len(), (0, 0));
    let mut of = vessel_of.iter();
    for (scan, p) in scans.iter().zip(0..) {
        for (i, &id) in scan.range(b).zip(of.by_ref()) {
            let v = &mut vessels[id as usize];
            order[v.next as usize] = (p, i as u32);
            v.next += 1;
        }
    }
}

/// Per-task output of the scan-enrich phase.
struct ScanOut {
    /// The input partition's enriched records, in the allocation its
    /// position reports arrived in, grouped by bucket (`hash64(mmsi) %
    /// num`), each bucket in input order.
    records: Vec<EnrichedReport>,
    /// Where each bucket starts in `records`, then its end.
    starts: Vec<usize>,
    raw: u64,
    out_of_range: u64,
}

impl ScanOut {
    /// Range-checks and enriches one input partition and groups its
    /// survivors by bucket, in the partition's own allocation.
    fn of(
        part: Vec<PositionReport>,
        lookup: &FxHashMap<Mmsi, (MarketSegment, bool)>,
        commercial_only: bool,
        num: usize,
    ) -> ScanOut {
        let raw = part.len() as u64;
        let mut out_of_range = 0u64;
        // Pass 1: enrich in place, counting each survivor's bucket.
        // `EnrichedReport` and `PositionReport` have one size and
        // alignment, so `collect` writes the survivors over the reports
        // they came from, in the partition's own allocation.
        let mut starts = vec![0usize; num + 1];
        let mut records: Vec<EnrichedReport> = part
            .into_iter()
            .filter_map(|r| {
                if !r.in_protocol_ranges() {
                    out_of_range += 1;
                    return None;
                }
                let e = enrich_one(lookup, commercial_only, r)?;
                starts[bucket_of(e.mmsi.0, num) + 1] += 1;
                Some(e)
            })
            .collect();
        // Pass 2: a stable counting sort by bucket, in place: each
        // record's place is worked out first, then every record is
        // swapped along its cycle of the permutation to its place.
        for b in 1..=num {
            starts[b] += starts[b - 1];
        }
        let mut next = starts.clone();
        let mut place: Vec<u32> = records
            .iter()
            .map(|e| {
                let at = &mut next[bucket_of(e.mmsi.0, num)];
                *at += 1;
                (*at - 1) as u32
            })
            .collect();
        for i in 0..records.len() {
            loop {
                let to = place[i] as usize;
                if to == i {
                    break;
                }
                records.swap(i, to);
                place.swap(i, to);
            }
        }
        ScanOut {
            records,
            starts,
            raw,
            out_of_range,
        }
    }

    /// Where bucket `b`'s records are in `records`.
    fn range(&self, b: usize) -> std::ops::Range<usize> {
        self.starts[b]..self.starts[b + 1]
    }

    /// Bucket `b`'s records, in input order.
    fn bucket(&self, b: usize) -> &[EnrichedReport] {
        self.records.get(self.range(b)).unwrap_or_default()
    }
}

/// The bucket of a record of vessel `mmsi`.
fn bucket_of(mmsi: u32, num: usize) -> usize {
    (hash64(&mmsi) % num as u64) as usize
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
            ScanOut::of(part, &lookup, commercial_only, num)
        })?;
    let raw_count: u64 = scanned.iter().map(|s| s.raw).sum();
    let out_of_range: u64 = scanned.iter().map(|s| s.out_of_range).sum();
    let enriched_count: u64 = scanned.iter().map(|s| s.records.len() as u64).sum();
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
    // Every task reads every input partition's records where they are;
    // they are freed when the last task is done with them.
    let scans = Arc::new(scanned);
    let buckets: Vec<usize> = (0..num).collect();
    let built: Vec<BuildOut> = engine.run_tasks("fused:build", buckets, move |_, b| {
        BUILD_SCRATCH.with(|scratch| {
            let s = &mut *scratch.borrow_mut();
            group_by_vessel(&scans, b, s);
            let at = |&(p, i): &(u32, u32)| &scans[p as usize].records[i as usize];
            let mut acc = Combiner::default();
            let cleaned_buf = &mut s.cleaned;
            let trip_buf = &mut s.trips;
            let cell_buf = &mut s.cells;
            let cell_scratch = &mut s.cell_scratch;
            let tracker = s
                .tracker
                .get_or_insert_with(|| TripTracker::new(task_cfg.min_trip_points));
            let (mut cleaned, mut duplicates, mut with_trips, mut morsels) = (0, 0, 0, 0);
            // Walk the vessels' runs — ascending-MMSI morsel order, every
            // scratch buffer reused across morsels.
            let mut rest = &mut s.order[..];
            for &(_, id) in &s.by_mmsi {
                let vessel = s.vessels[id as usize];
                let (run, tail) = std::mem::take(&mut rest).split_at_mut(vessel.len as usize);
                rest = tail;
                // A run in arrival order whose timestamps already rise is
                // the stable time sort; any other gets one, so equal
                // timestamps keep arrival order — what
                // `order_and_filter_vessel` feeds the cleaner.
                if !vessel.rising {
                    run.sort_by_key(|k| at(k).timestamp);
                }
                morsels += 1;
                cleaned_buf.clear();
                trip_buf.clear();
                // Clean: fold the shared VesselCleaner state machine over
                // the time-sorted run (identical to
                // `order_and_filter_vessel`).
                let mut cleaner = VesselCleaner::new(task_cfg.max_feasible_speed_kn);
                for k in run.iter() {
                    match cleaner.push(*at(k)) {
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
        partitions[bucket_of(vessel.0, num)].push(vessel);
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

    /// The scan keeps each partition in the allocation it was decoded
    /// into (a copy would leave the input resident in the decoding
    /// thread's arena beside the workers' growth, DESIGN §8) and lays its
    /// buckets out as a stable sort by bucket would.
    #[test]
    fn scan_enriches_in_place_and_sorts_by_bucket_stably() {
        let ds = generate(&ScenarioConfig::tiny());
        let cfg = PipelineConfig::default();
        let lookup = segment_lookup(&ds.statics);
        for num in [1, 7, Engine::DEFAULT_PARTITIONS] {
            for part in ds.positions.iter().filter(|p| !p.is_empty()) {
                let mut expected: Vec<EnrichedReport> = part
                    .iter()
                    .filter(|r| r.in_protocol_ranges())
                    .filter_map(|r| enrich_one(&lookup, cfg.commercial_only, *r))
                    .collect();
                expected.sort_by_key(|e| bucket_of(e.mmsi.0, num));
                let input = part.clone();
                let at = input.as_ptr() as usize;
                let scan = ScanOut::of(input, &lookup, cfg.commercial_only, num);
                assert_eq!(scan.records.as_ptr() as usize, at, "the scan copied");
                assert_eq!(scan.records, expected);
                for b in 0..num {
                    assert!(scan.bucket(b).iter().all(|e| bucket_of(e.mmsi.0, num) == b));
                }
                assert_eq!(scan.starts.last(), Some(&expected.len()));
                assert_eq!(scan.raw, part.len() as u64);
            }
        }
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
