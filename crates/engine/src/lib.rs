//! # pol-engine — the build's thread pool and keyed merge
//!
//! The paper executes its methodology on Apache Spark, using exactly two of
//! Spark's capabilities (§3.3.4): *partitioned parallel transformation*
//! (the map phase over the grouping set) and *combiner-based keyed
//! aggregation* (the reduce phase producing per-cell statistics).
//! `pol-core`'s fused executor is that map and that reduce; this crate
//! provides what it runs on:
//!
//! * [`Engine`] — the execution context: a fixed [`pool::ThreadPool`] that
//!   runs one task per input ([`Engine::run_tasks`]) plus per-stage
//!   [`metrics::JobMetrics`] (records in/out, shuffle volume, wall time —
//!   the observability Figure 3 of the paper sketches),
//! * [`radix_partition`] and [`merge_combiner_shards`] — the two halves of
//!   the keyed reduce: every task splits its combiner map into
//!   [`Engine::DEFAULT_PARTITIONS`] shards by key hash, and one parallel
//!   merge task per shard combines the tasks' shards in task order,
//! * [`profile`] — thread-local allocation counters for a counting
//!   allocator to feed.
//!
//! The core correctness property (tested): **the keyed merge is
//! worker-count-invariant** — it equals a sequential fold of the same
//! records, as long as the combine operator is commutative and associative
//! (which every `pol-sketch` statistic is), and because the shard count is
//! fixed and the merge order is task order, its result does not depend on
//! how many threads ran it.

#![deny(missing_docs)]

pub mod error;
pub mod keyed;
pub mod metrics;
pub mod pool;
pub mod profile;

pub use error::{EngineError, EngineErrorKind};
pub use keyed::{merge_combiner_shards, radix_partition};
pub use metrics::{JobMetrics, StageReport};
pub use pool::ThreadPool;

use std::sync::Arc;

/// The execution context: thread pool + metrics. Clone-cheap (shared
/// internals), like a `SparkContext` handle.
#[derive(Clone)]
pub struct Engine {
    pool: Arc<ThreadPool>,
    metrics: Arc<JobMetrics>,
}

impl Engine {
    /// Shard count for radix-partitioned aggregations and for the fused
    /// build's scatter by vessel. Deliberately a constant, NOT a function
    /// of the worker count: partition composition determines the fold
    /// order of floating-point accumulators, so a thread-dependent count
    /// would make the inventory bytes depend on the machine. A fixed 32
    /// keeps `same seed ⇒ byte-identical inventory` true across thread
    /// counts (`thread_count_does_not_change_result` pins exactly
    /// this) while still giving the merge enough shards to saturate
    /// typical worker pools.
    pub const DEFAULT_PARTITIONS: usize = 32;

    /// Creates an engine with `threads` worker threads.
    pub fn new(threads: usize) -> Engine {
        let threads = threads.max(1);
        Engine {
            pool: Arc::new(ThreadPool::new(threads)),
            metrics: Arc::new(JobMetrics::default()),
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

    /// The engine's accumulated stage metrics.
    pub fn metrics(&self) -> &JobMetrics {
        &self.metrics
    }

    /// Runs `f` over `inputs` on the engine's pool, one task per input,
    /// returning results in input order. A panicking task surfaces as an
    /// [`EngineError`] naming `stage`, after every task has settled. This
    /// records no [`StageReport`]: callers that fuse several logical
    /// stages into one pass (see `pol-core`'s fused executor) account for
    /// their own record counts.
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
    use std::time::{Duration, Instant};

    #[test]
    fn engine_basics() {
        let e = Engine::new(3);
        assert_eq!(e.threads(), 3);
        let e0 = Engine::new(0);
        assert_eq!(e0.threads(), 1, "clamped to one thread");
    }

    #[test]
    fn engine_clone_shares_metrics() {
        let e = Engine::new(2);
        let e2 = e.clone();
        let sharded = vec![vec![vec![(1u32, 1u64)]], vec![vec![(1u32, 2u64)]]];
        let _ = merge_combiner_shards(&e2, "probe", sharded, |a, o| *a += o).unwrap();
        assert!(
            e.metrics()
                .report()
                .iter()
                .any(|s| s.name == "probe:radix-merge"),
            "metrics visible through the original handle"
        );
    }

    #[test]
    fn parallelism_actually_used() {
        // With 4 threads, 4 sleeping tasks finish ~1x sleep, not 4x.
        let e = Engine::new(4);
        let t0 = Instant::now();
        let out = e
            .run_tasks("sleep", vec![(); 4], |_, ()| {
                std::thread::sleep(Duration::from_millis(50))
            })
            .unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(out.len(), 4);
        assert!(
            elapsed < Duration::from_millis(170),
            "tasks did not run in parallel: {elapsed:?}"
        );
    }
}
