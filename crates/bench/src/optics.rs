//! OPTICS (Ankerst et al. 1999) — the other density-based workhorse of the
//! paper's related work (§2 cites it for way-point/stop discovery in route
//! networks). Produces the reachability ordering; clusters are extracted
//! by thresholding reachability at `eps'`, which — unlike DBSCAN — lets
//! one run serve many density levels. The density-skew argument of the
//! paper's prior work applies to the *extraction* step instead of the run.

use pol_geo::project::{to_xy, WorldXY};
use pol_geo::LatLon;
use pol_sketch::hash::FxHashMap;

use crate::dbscan::Label;

/// OPTICS parameters.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OpticsParams {
    /// Maximum neighbourhood radius examined, km.
    pub(crate) max_eps_km: f64,
    /// Minimum neighbours (inclusive) for core-distance definition.
    pub(crate) min_pts: usize,
}

/// One entry of the OPTICS ordering.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OrderedPoint {
    /// Index into the input slice.
    pub(crate) index: usize,
    /// Reachability distance (km); `f64::INFINITY` for ordering starts.
    pub(crate) reachability_km: f64,
    /// Core distance (km); `f64::INFINITY` for non-core points.
    pub(crate) core_km: f64,
}

/// Runs OPTICS and returns the cluster ordering.
pub(crate) fn optics(points: &[LatLon], params: OpticsParams) -> Vec<OrderedPoint> {
    assert!(params.max_eps_km > 0.0, "max_eps must be positive");
    assert!(params.min_pts >= 1, "min_pts must be at least 1");
    let xy: Vec<WorldXY> = points.iter().map(|p| to_xy(*p)).collect();
    let index = GridIndex::build(&xy, params.max_eps_km);

    let n = xy.len();
    let mut processed = vec![false; n];
    let mut reach = vec![f64::INFINITY; n];
    let mut order: Vec<OrderedPoint> = Vec::with_capacity(n);
    let mut neighbours: Vec<(usize, f64)> = Vec::new();

    // Seed list as a simple binary heap keyed on reachability.
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut seeds: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let key = |d: f64| (d * 1e6) as u64;

    for start in 0..n {
        if processed[start] {
            continue;
        }
        // Begin a new ordering component.
        let mut current = Some(start);
        seeds.clear();
        while let Some(i) = current {
            if processed[i] {
                current = next_seed(&mut seeds, &processed);
                continue;
            }
            processed[i] = true;
            index.query(&xy, i, params.max_eps_km, &mut neighbours);
            let core = core_distance(&neighbours, params.min_pts);
            order.push(OrderedPoint {
                index: i,
                reachability_km: reach[i],
                core_km: core,
            });
            if core.is_finite() {
                for &(j, d) in &neighbours {
                    if processed[j] {
                        continue;
                    }
                    let new_reach = core.max(d);
                    if new_reach < reach[j] {
                        reach[j] = new_reach;
                        seeds.push(Reverse((key(new_reach), j)));
                    }
                }
            }
            current = next_seed(&mut seeds, &processed);
        }
    }
    order
}

fn next_seed(
    seeds: &mut std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
    processed: &[bool],
) -> Option<usize> {
    while let Some(std::cmp::Reverse((_, j))) = seeds.pop() {
        if !processed[j] {
            return Some(j);
        }
    }
    None
}

/// Distance to the `min_pts`-th nearest neighbour (∞ when not core).
fn core_distance(neighbours: &[(usize, f64)], min_pts: usize) -> f64 {
    if neighbours.len() < min_pts {
        return f64::INFINITY;
    }
    let mut ds: Vec<f64> = neighbours.iter().map(|(_, d)| *d).collect();
    ds.sort_by(|a, b| a.total_cmp(b));
    ds[min_pts - 1]
}

/// Extracts DBSCAN-equivalent flat clusters from an OPTICS ordering at a
/// reachability threshold `eps'` ≤ the run's `max_eps`. Returns one label
/// per input point (same convention as DBSCAN's).
pub(crate) fn extract_clusters(
    order: &[OrderedPoint],
    n_points: usize,
    eps_km: f64,
) -> (Vec<Label>, u32) {
    let mut labels = vec![Label::Noise; n_points];
    let mut cluster: i64 = -1;
    for p in order {
        if p.reachability_km > eps_km {
            if p.core_km <= eps_km {
                cluster += 1;
                labels[p.index] = Label::Cluster(cluster as u32);
            }
            // else noise (stays Noise)
        } else if cluster >= 0 {
            labels[p.index] = Label::Cluster(cluster as u32);
        }
    }
    (labels, (cluster + 1) as u32)
}

/// ε-grid neighbour index (shared shape with the DBSCAN one, but returning
/// distances too).
struct GridIndex {
    cell_km: f64,
    buckets: FxHashMap<(i64, i64), Vec<usize>>,
}

impl GridIndex {
    fn build(points: &[WorldXY], cell_km: f64) -> GridIndex {
        let mut buckets: FxHashMap<(i64, i64), Vec<usize>> = FxHashMap::default();
        for (i, p) in points.iter().enumerate() {
            buckets.entry(Self::key(p, cell_km)).or_default().push(i);
        }
        GridIndex { cell_km, buckets }
    }

    #[inline]
    fn key(p: &WorldXY, cell_km: f64) -> (i64, i64) {
        (
            (p.x / cell_km).floor() as i64,
            (p.y / cell_km).floor() as i64,
        )
    }

    fn query(&self, points: &[WorldXY], i: usize, eps: f64, out: &mut Vec<(usize, f64)>) {
        out.clear();
        let p = points[i];
        let (kx, ky) = Self::key(&p, self.cell_km);
        let eps2 = eps * eps;
        for dx in -1..=1 {
            for dy in -1..=1 {
                if let Some(bucket) = self.buckets.get(&(kx + dx, ky + dy)) {
                    for &j in bucket {
                        let q = points[j];
                        let d2 = (q.x - p.x).powi(2) + (q.y - p.y).powi(2);
                        if d2 <= eps2 {
                            out.push((j, d2.sqrt()));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbscan::{dbscan, DbscanParams};

    fn blob(center: (f64, f64), n: usize, spread: f64, salt: u64) -> Vec<LatLon> {
        let mut rng = pol_fleetsim::Rng::new(4321 ^ salt);
        (0..n)
            .map(|_| {
                LatLon::new(
                    center.0 + rng.normal() * spread,
                    center.1 + rng.normal() * spread,
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn ordering_covers_every_point_once() {
        let mut pts = blob((40.0, 5.0), 80, 0.05, 1);
        pts.extend(blob((42.0, 9.0), 60, 0.05, 2));
        let order = optics(
            &pts,
            OpticsParams {
                max_eps_km: 50.0,
                min_pts: 5,
            },
        );
        assert_eq!(order.len(), pts.len());
        let mut seen = vec![false; pts.len()];
        for p in &order {
            assert!(!seen[p.index], "point visited twice");
            seen[p.index] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn dense_points_have_small_reachability() {
        let pts = blob((40.0, 5.0), 100, 0.02, 3);
        let order = optics(
            &pts,
            OpticsParams {
                max_eps_km: 30.0,
                min_pts: 5,
            },
        );
        // All but the first point of the component are reachable cheaply.
        let finite: Vec<f64> = order
            .iter()
            .filter(|p| p.reachability_km.is_finite())
            .map(|p| p.reachability_km)
            .collect();
        assert!(finite.len() >= 95);
        let avg = finite.iter().sum::<f64>() / finite.len() as f64;
        assert!(avg < 5.0, "avg reachability {avg} km");
    }

    #[test]
    fn extraction_matches_dbscan_on_clean_blobs() {
        let mut pts = blob((40.0, 5.0), 80, 0.03, 4);
        pts.extend(blob((30.0, -20.0), 70, 0.03, 5));
        pts.push(LatLon::new(-50.0, 100.0).unwrap()); // lone noise point
        let eps = 15.0;
        let order = optics(
            &pts,
            OpticsParams {
                max_eps_km: 60.0,
                min_pts: 5,
            },
        );
        let (labels, k) = extract_clusters(&order, pts.len(), eps);
        let (dlabels, dk) = dbscan(
            &pts,
            DbscanParams {
                eps_km: eps,
                min_pts: 5,
            },
        );
        assert_eq!(k, dk, "same cluster count as DBSCAN at eps'");
        // Same noise set (cluster ids may permute).
        for (a, b) in labels.iter().zip(&dlabels) {
            assert_eq!(
                matches!(a, Label::Noise),
                matches!(b, Label::Noise),
                "noise sets must agree"
            );
        }
        assert_eq!(labels[pts.len() - 1], Label::Noise);
    }

    #[test]
    fn one_run_many_density_levels() {
        // The OPTICS selling point: a dense blob inside a sparse halo.
        let mut pts = blob((40.0, 5.0), 120, 0.01, 6); // dense core
        pts.extend(blob((40.0, 5.0), 60, 0.4, 7)); // sparse halo
        let order = optics(
            &pts,
            OpticsParams {
                max_eps_km: 120.0,
                min_pts: 5,
            },
        );
        let (tight, k_tight) = extract_clusters(&order, pts.len(), 4.0);
        let (loose, k_loose) = extract_clusters(&order, pts.len(), 80.0);
        assert!(k_tight >= 1);
        assert!(k_loose >= 1);
        let tight_members = tight.iter().filter(|l| **l != Label::Noise).count();
        let loose_members = loose.iter().filter(|l| **l != Label::Noise).count();
        assert!(
            loose_members > tight_members,
            "looser threshold must absorb the halo: {loose_members} vs {tight_members}"
        );
    }

    #[test]
    #[should_panic(expected = "max_eps must be positive")]
    fn rejects_bad_params() {
        let _ = optics(
            &[],
            OpticsParams {
                max_eps_km: 0.0,
                min_pts: 3,
            },
        );
    }

    #[test]
    fn empty_input() {
        let order = optics(
            &[],
            OpticsParams {
                max_eps_km: 10.0,
                min_pts: 3,
            },
        );
        assert!(order.is_empty());
        let (labels, k) = extract_clusters(&order, 0, 5.0);
        assert!(labels.is_empty());
        assert_eq!(k, 0);
    }
}
