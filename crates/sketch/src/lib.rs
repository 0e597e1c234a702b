//! # pol-sketch — mergeable streaming statistics
//!
//! Table 3 of the paper maps each feature of the inventory to a set of
//! statistics: count, distinct count, mean, standard deviation, approximate
//! 10/50/90-percentiles, fixed 30°-bin histograms and Top-N frequency. On
//! Spark those come from built-in aggregators (`approx_percentile` is a
//! Greenwald–Khanna summary, `approx_count_distinct` a HyperLogLog). This
//! crate provides the same machinery as standalone, *mergeable* sketches:
//!
//! * [`Moments`] — exact count/mean/variance/min/max as integer sums of
//!   fixed-point values,
//! * [`Circular`] — mean direction for course/heading (the `X*` entries of
//!   Table 3; an arithmetic mean of 359° and 1° would be 180°, the circular
//!   mean is 0°), as integer sums of fixed-point unit vectors,
//! * [`LogHistogram`] — log-bucketed quantiles with relative accuracy α
//!   (DDSketch-style),
//! * [`Tally`] — exact counts for Top-N origins, destinations and cell
//!   transitions,
//! * [`HyperLogLog`] / [`Distinct`] — distinct vessels and trips per cell,
//! * [`AngleHistogram`] — the 30-degree course/heading bins.
//!
//! Every sketch implements [`MergeSketch`], a commutative-monoid contract
//! (verified by property tests), which is exactly what the build's
//! combiner-based keyed reduce needs: each task builds its own sketches in
//! the map phase, and `pol-engine`'s `merge_combiner_shards` merges them
//! per key in the reduce phase. The inventory's sketches hold no float
//! state, so the contract holds exactly: a summary — and its encoding —
//! is a function of the multiset of observations, whatever the order and
//! partition of its adds and merges.

#![deny(missing_docs)]

pub mod circular;
mod counts;
pub mod crc64;
pub mod hash;
pub mod histogram;
pub mod hll;
pub mod loghist;
pub mod moments;
pub mod tally;
pub mod wire;

// The inventory's earlier sketches (Welford moments, Greenwald–Khanna
// quantiles, SpaceSaving Top-N) are gone; the checks they were held to
// keep their names and run against the sketches that took their columns.
#[cfg(test)]
#[path = "replaced/gk.rs"]
mod gk;
#[cfg(test)]
#[path = "replaced/spacesaving.rs"]
mod spacesaving;
#[cfg(test)]
#[path = "replaced/welford.rs"]
mod welford;

pub use circular::Circular;
pub use histogram::AngleHistogram;
pub use hll::{Distinct, HyperLogLog};
pub use loghist::LogHistogram;
pub use moments::{Moments, SecondsMoments, SpeedMoments};
pub use tally::Tally;

/// The contract every statistic of the inventory satisfies: an associative,
/// commutative merge with the empty sketch as identity. This is what makes
/// the map/reduce decomposition of §3.3.4 correct regardless of how records
/// are partitioned.
pub trait MergeSketch {
    /// Folds `other` into `self`. Must be associative and commutative,
    /// with the empty sketch as identity.
    fn merge(&mut self, other: &Self);
}
