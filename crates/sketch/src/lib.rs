//! # pol-sketch — mergeable streaming statistics
//!
//! Table 3 of the paper maps each feature of the inventory to a set of
//! statistics: count, distinct count, mean, standard deviation, approximate
//! 10/50/90-percentiles, fixed 30°-bin histograms and Top-N frequency. On
//! Spark those come from built-in aggregators (`approx_percentile` is a
//! Greenwald–Khanna summary, `approx_count_distinct` a HyperLogLog). This
//! crate provides the same machinery as standalone, *mergeable* sketches:
//!
//! * [`Welford`] — exact count/mean/variance/min/max in one pass,
//! * [`Circular`] — mean direction for course/heading (the `X*` entries of
//!   Table 3; an arithmetic mean of 359° and 1° would be 180°, the circular
//!   mean is 0°),
//! * [`GkSketch`] — Greenwald–Khanna rank-error-bounded quantiles,
//! * [`TDigest`] — Dunning's merging t-digest (the ablation partner of GK),
//! * [`SpaceSaving`] — Metwally et al. heavy hitters for Top-N origins,
//!   destinations and cell transitions,
//! * [`HyperLogLog`] / [`Distinct`] — distinct vessels and trips per cell,
//! * [`Histogram`] / [`AngleHistogram`] — the 30-degree course/heading bins.
//!
//! Every sketch implements [`MergeSketch`], a commutative-monoid contract
//! (verified by property tests), which is exactly what the build's
//! combiner-based keyed reduce needs: each task builds its own sketches in
//! the map phase, and `pol-engine`'s `merge_combiner_shards` merges them
//! per key in the reduce phase. The contract holds up to floating-point
//! rounding, so the build fixes the merge order (task order) to keep its
//! bytes reproducible.

#![deny(missing_docs)]

pub mod circular;
pub mod crc64;
pub mod gk;
pub mod hash;
pub mod histogram;
pub mod hll;
pub mod spacesaving;
pub mod tdigest;
pub mod welford;
pub mod wire;

pub use circular::Circular;
pub use gk::GkSketch;
pub use histogram::{AngleHistogram, Histogram};
pub use hll::{Distinct, HyperLogLog};
pub use spacesaving::SpaceSaving;
pub use tdigest::TDigest;
pub use welford::Welford;

/// The contract every statistic of the inventory satisfies: an associative,
/// commutative merge with the empty sketch as identity. This is what makes
/// the map/reduce decomposition of §3.3.4 correct regardless of how records
/// are partitioned.
pub trait MergeSketch {
    /// Folds `other` into `self`. Must be associative and commutative up to
    /// each sketch's documented approximation error.
    fn merge(&mut self, other: &Self);
}
