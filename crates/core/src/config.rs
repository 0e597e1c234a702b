//! Pipeline configuration.

use pol_hexgrid::Resolution;

/// All tunables of the inventory pipeline, with the paper's defaults.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Grid resolution of the inventory. The paper builds resolutions 6
    /// and 7; 6 is the default (≈ 36 km² cells).
    pub resolution: Resolution,
    /// Geofence radius around each port, km (port "geometries" in §3.3.2).
    pub port_radius_km: f64,
    /// Maximum feasible vessel speed; transitions implying more are
    /// rejected by cleaning (§3.3.1 uses 50 kn).
    pub max_feasible_speed_kn: f64,
    /// Minimum positional reports for a trip to enter the inventory
    /// (guards against geofence flicker).
    pub min_trip_points: usize,
    /// Relative accuracy α of the percentile summaries (Table 3 "Perc."):
    /// a reported quantile is within `α·|x|` of the exact order statistic
    /// `x` ([`pol_sketch::LogHistogram`]).
    pub quantile_epsilon: f64,
    /// Bounds nothing: the Top-N columns (origins, destinations,
    /// transitions) are exact tallies ([`pol_sketch::Tally`]). Kept for
    /// configurations written against the bounded sketch they replaced.
    pub top_n_capacity: usize,
    /// Filter to commercial fleet only (the paper's preprocessing).
    pub commercial_only: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            resolution: Resolution::new_static(6),
            port_radius_km: 12.0,
            max_feasible_speed_kn: 50.0,
            min_trip_points: 5,
            quantile_epsilon: 0.01,
            top_n_capacity: 8,
            commercial_only: true,
        }
    }
}

impl PipelineConfig {
    /// The paper's finer resolution variant (res 7, ≈ 5 km² cells).
    pub fn fine() -> Self {
        PipelineConfig {
            resolution: Resolution::new_static(7),
            ..PipelineConfig::default()
        }
    }

    /// Overrides the resolution.
    pub fn with_resolution(mut self, res: Resolution) -> Self {
        self.resolution = res;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = PipelineConfig::default();
        assert_eq!(c.resolution.level(), 6);
        assert_eq!(c.max_feasible_speed_kn, 50.0);
        assert!(c.commercial_only);
        assert_eq!(PipelineConfig::fine().resolution.level(), 7);
    }

    #[test]
    fn with_resolution_overrides() {
        let c = PipelineConfig::default().with_resolution(Resolution::new(4).unwrap());
        assert_eq!(c.resolution.level(), 4);
    }
}
