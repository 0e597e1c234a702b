//! The end-to-end pipeline driver (Figures 2 & 3 of the paper).

use crate::clean::{clean_and_enrich, CleanReport};
use crate::config::PipelineConfig;
use crate::error::PipelineError;
use crate::features::build_group_stats;
use crate::inventory::Inventory;
use crate::project::project;
use crate::records::PortSite;
use crate::trips::extract_trips;
use pol_ais::{PositionReport, StaticReport};
use pol_engine::{Dataset, Engine};

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

/// Everything a pipeline run produces.
pub struct PipelineOutput {
    /// The global inventory.
    pub inventory: Inventory,
    /// Stage-by-stage record accounting.
    pub counts: StageCounts,
    /// Cleaning detail (defect classes).
    pub clean_report: CleanReport,
}

/// Runs the full methodology over pre-partitioned positional reports
/// (partitioning by vessel is the natural input shape; any partitioning
/// works — the pipeline re-shuffles by vessel in the cleaning stage).
pub fn run(
    engine: &Engine,
    positions: Vec<Vec<PositionReport>>,
    statics: &[StaticReport],
    ports: &[PortSite],
    cfg: &PipelineConfig,
) -> Result<PipelineOutput, PipelineError> {
    let raw = Dataset::from_partitions(positions);
    let raw_count = raw.count() as u64;

    let (cleaned, clean_report) = clean_and_enrich(engine, raw, statics, cfg)?;
    let cleaned_count = cleaned.count() as u64;

    let trips = extract_trips(engine, cleaned, ports, cfg)?;
    let with_trips = trips.count() as u64;

    let projected = project(engine, trips, cfg)?;
    let projected_count = projected.count() as u64;

    let stats = build_group_stats(engine, projected, cfg)?;
    let group_entries = stats.count() as u64;

    let inventory = Inventory::from_dataset(cfg.resolution, stats, projected_count);

    Ok(PipelineOutput {
        inventory,
        counts: StageCounts {
            raw: raw_count,
            cleaned: cleaned_count,
            with_trips,
            projected: projected_count,
            group_entries,
        },
        clean_report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::GroupingSet;
    use pol_fleetsim::scenario::{generate, ScenarioConfig};
    use pol_fleetsim::WORLD_PORTS;

    /// Adapts the simulator's port table to pipeline port sites.
    fn port_sites(radius_km: f64) -> Vec<PortSite> {
        WORLD_PORTS
            .iter()
            .enumerate()
            .map(|(i, p)| PortSite {
                id: i as u16,
                name: p.name.to_string(),
                pos: p.pos(),
                radius_km,
            })
            .collect()
    }

    fn run_tiny() -> PipelineOutput {
        let ds = generate(&ScenarioConfig::tiny());
        let engine = Engine::new(2);
        let cfg = PipelineConfig::default();
        run(
            &engine,
            ds.positions,
            &ds.statics,
            &port_sites(cfg.port_radius_km),
            &cfg,
        )
        .unwrap()
    }

    #[test]
    fn end_to_end_produces_inventory() {
        let out = run_tiny();
        assert!(out.counts.raw > 1_000, "raw {}", out.counts.raw);
        assert!(out.counts.cleaned > 0);
        assert!(out.counts.cleaned <= out.counts.raw);
        assert!(out.counts.with_trips > 0, "trips must be found");
        assert_eq!(out.counts.projected, out.counts.with_trips);
        assert!(out.counts.group_entries > 0);
        assert!(!out.inventory.is_empty());
        // All three grouping sets materialised.
        for gs in GroupingSet::ALL {
            assert!(out.inventory.len_of(gs) > 0, "{gs:?} empty");
        }
    }

    #[test]
    fn funnel_is_monotone() {
        let out = run_tiny();
        assert!(out.counts.cleaned <= out.counts.raw);
        assert!(out.counts.with_trips <= out.counts.cleaned);
        // Cells are far fewer than records: the compression claim at
        // miniature scale.
        let cov = out.inventory.coverage();
        assert!(cov.occupied_cells > 0);
        assert!((cov.occupied_cells as f64) < 0.8 * cov.total_records as f64);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_tiny();
        let b = run_tiny();
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.inventory.len(), b.inventory.len());
        assert_eq!(
            crate::codec::columnar::to_bytes(&a.inventory),
            crate::codec::columnar::to_bytes(&b.inventory),
            "same seed ⇒ byte-identical inventory"
        );
    }

    #[test]
    fn thread_count_does_not_change_result() {
        let ds = generate(&ScenarioConfig::tiny());
        let cfg = PipelineConfig::default();
        let ports = port_sites(cfg.port_radius_km);
        let a = run(
            &Engine::new(1),
            ds.positions.clone(),
            &ds.statics,
            &ports,
            &cfg,
        )
        .unwrap();
        let b = run(
            &Engine::new(4),
            ds.positions.clone(),
            &ds.statics,
            &ports,
            &cfg,
        )
        .unwrap();
        assert_eq!(a.counts, b.counts);
        let reference = crate::codec::columnar::to_bytes(&a.inventory);
        assert_eq!(reference, crate::codec::columnar::to_bytes(&b.inventory));
        // The fused executor must agree with the staged path — same
        // inventory bytes, stage counts and clean accounting — at every
        // thread count, including pools far wider than the partition
        // count's parallelism sweet spot (16 threads exercises workers
        // that never receive a task, and the per-worker scratch arenas
        // at maximum pool width).
        for threads in [1, 2, 8, 16] {
            let f = crate::fused::run_fused(
                &Engine::new(threads),
                ds.positions.clone(),
                &ds.statics,
                &ports,
                &cfg,
            )
            .unwrap();
            assert_eq!(a.counts, f.counts, "fused counts at {threads} threads");
            assert_eq!(
                a.clean_report, f.clean_report,
                "fused clean report at {threads} threads"
            );
            assert_eq!(
                reference,
                crate::codec::columnar::to_bytes(&f.inventory),
                "fused bytes at {threads} threads"
            );
        }
    }

    #[test]
    fn finer_resolution_occupies_more_cells() {
        let ds = generate(&ScenarioConfig::tiny());
        let ports = port_sites(12.0);
        let engine = Engine::new(2);
        let c6 = PipelineConfig::default();
        let c7 = PipelineConfig::fine();
        let out6 = run(&engine, ds.positions.clone(), &ds.statics, &ports, &c6).unwrap();
        let out7 = run(&engine, ds.positions, &ds.statics, &ports, &c7).unwrap();
        let (cov6, cov7) = (out6.inventory.coverage(), out7.inventory.coverage());
        assert!(
            cov7.occupied_cells > cov6.occupied_cells,
            "res7 {} !> res6 {}",
            cov7.occupied_cells,
            cov6.occupied_cells
        );
        // Table 4's shape: utilization drops with finer resolution.
        assert!(cov7.utilization < cov6.utilization);
        // And compression improves (more records per retained dimension).
        assert!(cov6.compression > 0.0 && cov7.compression > 0.0);
    }

    #[test]
    fn stats_are_physically_plausible() {
        let out = run_tiny();
        let mut checked = 0;
        for (key, stats) in out.inventory.iter() {
            if let crate::features::GroupKey::Cell(_) = key {
                if let Some(mean) = stats.speed.mean() {
                    assert!((0.0..=40.0).contains(&mean), "speed {mean}");
                }
                if stats.eto.count() > 0 {
                    assert!(stats.eto.min().unwrap() >= 0.0);
                    assert!(stats.ata.min().unwrap() >= 0.0);
                }
                checked += 1;
            }
        }
        assert!(checked > 10);
    }
}
