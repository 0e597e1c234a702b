//! # pol-engine — an in-process data-parallel MapReduce engine
//!
//! The paper executes its methodology on Apache Spark, using exactly two of
//! Spark's capabilities (§3.3.4): *partitioned parallel transformation*
//! (the map phase over the grouping set) and *combiner-based keyed
//! aggregation* (the reduce phase producing per-cell statistics). This crate
//! provides those capabilities in-process:
//!
//! * [`Engine`] — the execution context: a fixed [`pool::ThreadPool`] plus
//!   per-stage [`metrics::JobMetrics`] (records in/out, shuffle volume,
//!   wall time — the observability Figure 3 of the paper sketches),
//! * [`Dataset`] — a partitioned collection with narrow transformations
//!   (`map`, `filter`, `flat_map`, `map_partitions`) that never move
//!   data between partitions,
//! * [`KeyedDataset`] — wide transformations: the hash-partition shuffle
//!   (`partition_by_key`) and `aggregate_by_key` (seq/comb operators,
//!   i.e. Spark's `aggregateByKey`).
//!
//! The core correctness property (tested): **keyed aggregation is
//! partition- and thread-count-invariant** — it equals a sequential fold of
//! the same records, as long as the combine operator is commutative and
//! associative (which every `pol-sketch` statistic is).

#![deny(missing_docs)]

pub mod dataset;
pub mod error;
pub mod keyed;
pub mod metrics;
pub mod pool;
pub mod profile;

pub use dataset::Dataset;
pub use error::{EngineError, EngineErrorKind};
pub use keyed::{merge_combiner_shards, radix_partition, KeyedDataset};
pub use metrics::{JobMetrics, StageReport};
pub use pool::ThreadPool;

use std::sync::Arc;

/// The execution context: thread pool + metrics. Clone-cheap (shared
/// internals), like a `SparkContext` handle.
#[derive(Clone)]
pub struct Engine {
    pool: Arc<ThreadPool>,
    metrics: Arc<JobMetrics>,
    default_partitions: usize,
}

impl Engine {
    /// Default shard count for shuffles and radix-partitioned
    /// aggregations. Deliberately a constant, NOT a function of the
    /// worker count: partition composition determines the fold order of
    /// floating-point accumulators, so a thread-dependent count would
    /// make the inventory bytes depend on the machine. A fixed 32 keeps
    /// `same seed ⇒ byte-identical inventory` true across thread counts
    /// (`thread_count_does_not_change_result` pins exactly this) while still
    /// giving the merge enough shards to saturate typical worker pools.
    pub const DEFAULT_PARTITIONS: usize = 32;

    /// Creates an engine with `threads` worker threads; partition count
    /// for shuffles defaults to the fixed [`Engine::DEFAULT_PARTITIONS`]
    /// so results never depend on the worker count.
    pub fn new(threads: usize) -> Engine {
        let threads = threads.max(1);
        Engine {
            pool: Arc::new(ThreadPool::new(threads)),
            metrics: Arc::new(JobMetrics::default()),
            default_partitions: Engine::DEFAULT_PARTITIONS,
        }
    }

    /// An engine sized to the machine.
    pub fn with_available_parallelism() -> Engine {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Engine::new(n)
    }

    /// Worker-thread count.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Default partition count for new datasets.
    pub fn default_partitions(&self) -> usize {
        self.default_partitions
    }

    /// The engine's accumulated stage metrics.
    pub fn metrics(&self) -> &JobMetrics {
        &self.metrics
    }

    /// Runs `f` over `inputs` on the engine's pool, one task per input,
    /// returning results in input order. Unlike the [`Dataset`]
    /// transformations this records no [`StageReport`] — callers that fuse
    /// several logical stages into one pass (see `pol-core`'s fused
    /// executor) account for their own record counts.
    pub fn run_tasks<I, R, F>(
        &self,
        stage: &str,
        inputs: Vec<I>,
        f: F,
    ) -> Result<Vec<R>, EngineError>
    where
        I: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, I) -> R + Send + Sync + 'static,
    {
        self.pool.run_stage(stage, inputs, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_basics() {
        let e = Engine::new(3);
        assert_eq!(e.threads(), 3);
        assert_eq!(e.default_partitions(), Engine::DEFAULT_PARTITIONS);
        let e0 = Engine::new(0);
        assert_eq!(e0.threads(), 1, "clamped to one thread");
    }

    #[test]
    fn engine_clone_shares_metrics() {
        let e = Engine::new(2);
        let e2 = e.clone();
        let d = Dataset::from_vec(vec![1, 2, 3], 2);
        let _ = d.map(&e2, "probe", |x| x + 1).unwrap().collect();
        assert!(
            e.metrics().report().iter().any(|s| s.name == "probe"),
            "metrics visible through the original handle"
        );
    }
}
