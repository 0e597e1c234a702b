//! DBSCAN (Ester et al. 1996) with a uniform ε-grid neighbour index.
//!
//! Points live on the equal-area projection plane (km), so ε is a true
//! distance. The grid index buckets points into ε×ε squares; a
//! neighbourhood query scans the 3×3 surrounding buckets — O(1) for
//! bounded density, which is what makes the baseline competitive enough
//! for a fair comparison.

use pol_geo::project::{to_xy, WorldXY};
use pol_geo::LatLon;
use pol_sketch::hash::FxHashMap;

/// DBSCAN parameters.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DbscanParams {
    /// Neighbourhood radius in km (plane distance).
    pub(crate) eps_km: f64,
    /// Minimum neighbours (inclusive of the point itself) for a core point.
    pub(crate) min_pts: usize,
}

/// Cluster assignment of one input point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Label {
    /// Sparse-region point.
    Noise,
    /// Member of cluster `id`.
    Cluster(u32),
}

/// Runs DBSCAN over geographic points; returns one label per input point
/// (input order preserved) plus the number of clusters found.
pub(crate) fn dbscan(points: &[LatLon], params: DbscanParams) -> (Vec<Label>, u32) {
    assert!(params.eps_km > 0.0, "eps must be positive");
    assert!(params.min_pts >= 1, "min_pts must be at least 1");
    let xy: Vec<WorldXY> = points.iter().map(|p| to_xy(*p)).collect();
    let index = GridIndex::build(&xy, params.eps_km);

    const UNVISITED: u32 = u32::MAX;
    const NOISE: u32 = u32::MAX - 1;
    let mut labels = vec![UNVISITED; xy.len()];
    let mut cluster = 0u32;
    let mut stack = Vec::new();
    let mut neighbours = Vec::new();

    for i in 0..xy.len() {
        if labels[i] != UNVISITED {
            continue;
        }
        index.query(&xy, i, params.eps_km, &mut neighbours);
        if neighbours.len() < params.min_pts {
            labels[i] = NOISE;
            continue;
        }
        // New cluster seeded at core point i.
        labels[i] = cluster;
        stack.clear();
        stack.extend(neighbours.iter().copied());
        while let Some(j) = stack.pop() {
            if labels[j] == NOISE {
                labels[j] = cluster; // border point adopted
            }
            if labels[j] != UNVISITED {
                continue;
            }
            labels[j] = cluster;
            index.query(&xy, j, params.eps_km, &mut neighbours);
            if neighbours.len() >= params.min_pts {
                stack.extend(neighbours.iter().copied());
            }
        }
        cluster += 1;
    }

    let labels = labels
        .into_iter()
        .map(|l| {
            if l == NOISE || l == UNVISITED {
                Label::Noise
            } else {
                Label::Cluster(l)
            }
        })
        .collect();
    (labels, cluster)
}

/// ε-grid over plane points.
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

    /// Collects indices within `eps` of point `i` (including `i`).
    fn query(&self, points: &[WorldXY], i: usize, eps: f64, out: &mut Vec<usize>) {
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
                            out.push(j);
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

    fn blob(center: (f64, f64), n: usize, spread: f64, salt: u64) -> Vec<LatLon> {
        let mut rng = pol_fleetsim::Rng::new(1234 ^ salt);
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
    fn two_blobs_two_clusters() {
        let mut pts = blob((50.0, 0.0), 100, 0.05, 1);
        pts.extend(blob((52.0, 3.0), 100, 0.05, 2));
        let (labels, n) = dbscan(
            &pts,
            DbscanParams {
                eps_km: 20.0,
                min_pts: 5,
            },
        );
        assert_eq!(n, 2);
        // Blob membership is homogeneous.
        let first = labels[0];
        assert!(labels[..100].iter().all(|l| *l == first));
        let second = labels[100];
        assert!(labels[100..].iter().all(|l| *l == second));
        assert_ne!(first, second);
    }

    #[test]
    fn isolated_points_are_noise() {
        let mut pts = blob((50.0, 0.0), 50, 0.02, 3);
        pts.push(LatLon::new(10.0, 100.0).unwrap());
        pts.push(LatLon::new(-40.0, -100.0).unwrap());
        let (labels, n) = dbscan(
            &pts,
            DbscanParams {
                eps_km: 15.0,
                min_pts: 4,
            },
        );
        assert_eq!(n, 1);
        assert_eq!(labels[50], Label::Noise);
        assert_eq!(labels[51], Label::Noise);
    }

    #[test]
    fn all_noise_when_eps_tiny() {
        let pts = blob((50.0, 0.0), 30, 0.5, 4);
        let (labels, n) = dbscan(
            &pts,
            DbscanParams {
                eps_km: 0.001,
                min_pts: 3,
            },
        );
        assert_eq!(n, 0);
        assert!(labels.iter().all(|l| *l == Label::Noise));
    }

    #[test]
    fn single_cluster_when_eps_huge() {
        let pts = blob((50.0, 0.0), 60, 0.3, 5);
        let (labels, n) = dbscan(
            &pts,
            DbscanParams {
                eps_km: 10_000.0,
                min_pts: 3,
            },
        );
        assert_eq!(n, 1);
        assert!(labels.iter().all(|l| *l == Label::Cluster(0)));
    }

    #[test]
    fn empty_input() {
        let (labels, n) = dbscan(
            &[],
            DbscanParams {
                eps_km: 1.0,
                min_pts: 3,
            },
        );
        assert!(labels.is_empty());
        assert_eq!(n, 0);
    }

    #[test]
    fn border_points_adopted_not_noise() {
        // A dense core with a thin bridge point within eps of the core.
        let mut pts = blob((50.0, 0.0), 40, 0.01, 6);
        let edge = LatLon::new(50.05, 0.0).unwrap(); // ~5.5 km north
        pts.push(edge);
        let (labels, _) = dbscan(
            &pts,
            DbscanParams {
                eps_km: 8.0,
                min_pts: 10,
            },
        );
        assert!(
            matches!(labels[40], Label::Cluster(_)),
            "border point must join the cluster"
        );
    }

    #[test]
    #[should_panic(expected = "eps must be positive")]
    fn rejects_bad_params() {
        let _ = dbscan(
            &[],
            DbscanParams {
                eps_km: 0.0,
                min_pts: 3,
            },
        );
    }

    #[test]
    fn density_skew_sensitivity() {
        // The property the paper's prior work [20] reports: one eps cannot
        // serve both a dense harbour and a sparse ocean lane. With eps
        // tuned for the harbour, the sparse lane fragments into noise.
        let mut pts = blob((51.0, 3.0), 200, 0.01, 7); // dense "harbour"
                                                       // sparse "lane": points every ~20 km
        for i in 0..30 {
            pts.push(LatLon::new(40.0, 10.0 + i as f64 * 0.25).unwrap());
        }
        let (labels, _) = dbscan(
            &pts,
            DbscanParams {
                eps_km: 5.0,
                min_pts: 4,
            },
        );
        let lane_noise = labels[200..].iter().filter(|l| **l == Label::Noise).count();
        assert!(
            lane_noise > 25,
            "sparse lane should fragment at harbour-tuned eps, got {lane_noise} noise"
        );
    }
}
