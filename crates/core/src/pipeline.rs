//! End-to-end tests of the build pipeline (Figures 2 & 3 of the paper):
//! the tiny scenario through [`crate::fused::run_fused`], checked for its
//! funnel, its determinism and its agreement with
//! [`crate::reference::build`]; and the port table the crate's build
//! tests share.

use crate::records::PortSite;
use pol_fleetsim::WORLD_PORTS;

/// Adapts the simulator's port table to pipeline port sites.
pub(crate) fn port_sites(radius_km: f64) -> Vec<PortSite> {
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

#[cfg(test)]
mod tests {
    use super::port_sites;
    use crate::codec::columnar;
    use crate::features::{GroupKey, GroupingSet};
    use crate::fused::{run_fused, PipelineOutput};
    use crate::{reference, PipelineConfig};
    use pol_engine::Engine;
    use pol_fleetsim::scenario::{generate, ScenarioConfig};

    fn run_tiny() -> PipelineOutput {
        let ds = generate(&ScenarioConfig::tiny());
        let cfg = PipelineConfig::default();
        let ports = port_sites(cfg.port_radius_km);
        run_fused(&Engine::new(2), ds.positions, &ds.statics, &ports, &cfg).unwrap()
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
            columnar::to_bytes(&a.inventory),
            columnar::to_bytes(&b.inventory),
            "same seed ⇒ byte-identical inventory"
        );
    }

    /// The fused executor agrees with the reference fold — same inventory
    /// bytes, stage counts and clean accounting — at every thread count,
    /// including pools far wider than the partition count's parallelism
    /// sweet spot (16 threads exercises workers that never receive a
    /// task, and the per-worker scratch arenas at maximum pool width).
    #[test]
    fn thread_count_does_not_change_result() {
        let ds = generate(&ScenarioConfig::tiny());
        let cfg = PipelineConfig::default();
        let ports = port_sites(cfg.port_radius_km);
        let want = reference::build(ds.positions.clone(), &ds.statics, &ports, &cfg);
        let bytes = columnar::to_bytes(&want.inventory);
        assert!(want.clean_report.duplicates > 0, "tiny injects duplicates");
        for threads in [1, 2, 8, 16] {
            let engine = Engine::new(threads);
            let f = run_fused(&engine, ds.positions.clone(), &ds.statics, &ports, &cfg).unwrap();
            assert_eq!(want.counts, f.counts, "counts at {threads} threads");
            assert_eq!(
                want.clean_report, f.clean_report,
                "clean report at {threads} threads"
            );
            assert_eq!(
                bytes,
                columnar::to_bytes(&f.inventory),
                "inventory bytes at {threads} threads"
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
        let out6 = run_fused(&engine, ds.positions.clone(), &ds.statics, &ports, &c6).unwrap();
        let out7 = run_fused(&engine, ds.positions, &ds.statics, &ports, &c7).unwrap();
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
            if let GroupKey::Cell(_) = key {
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
