//! Wide (shuffle) transformations over keyed datasets.
//!
//! This is the reduce side of the paper's methodology: grouping-set keys
//! (Table 2) are hashed to reduce partitions, and per-key statistics are
//! combined map-side first (`aggregate_by_key`'s `seq` operator) then
//! merged across partitions (`comb` operator) — Spark's `aggregateByKey`
//! contract, which is exactly what makes `pol-sketch`'s mergeable
//! statistics partition-invariant.
//!
//! Like the narrow transformations, every shuffle returns `Result`: a
//! panic inside a user-supplied operator is reported as an
//! [`EngineError`] instead of aborting the process.

use crate::dataset::Dataset;
use crate::error::EngineError;
use crate::metrics::StageReport;
use crate::Engine;
use pol_sketch::hash::{hash64, FxHashMap};
use std::hash::Hash;
use std::sync::Arc;
use std::time::Instant;

/// A dataset of `(K, V)` pairs supporting shuffles and keyed aggregation.
pub struct KeyedDataset<K, V> {
    inner: Dataset<(K, V)>,
}

impl<K, V> KeyedDataset<K, V>
where
    K: Eq + Hash + Clone + Send + Sync + 'static,
    V: Send + 'static,
{
    /// Wraps a pair dataset.
    pub fn from_dataset(inner: Dataset<(K, V)>) -> Self {
        KeyedDataset { inner }
    }

    /// The underlying pair dataset.
    pub fn into_inner(self) -> Dataset<(K, V)> {
        self.inner
    }

    /// Total record count.
    pub fn count(&self) -> usize {
        self.inner.count()
    }

    /// Hash-partitions records so all pairs of one key land in the same
    /// partition (the shuffle). Deterministic: uses the workspace's FxHash.
    pub fn partition_by_key(
        self,
        engine: &Engine,
        stage: &str,
        num_partitions: usize,
    ) -> Result<Self, EngineError> {
        let num = num_partitions.max(1);
        let started = Instant::now();
        let input_records = self.inner.count() as u64;
        // Map side: split every input partition into `num` buckets.
        let bucketed: Vec<Vec<Vec<(K, V)>>> =
            engine.run_tasks(stage, self.inner.into_partitions(), move |_, part| {
                let mut buckets: Vec<Vec<(K, V)>> = (0..num).map(|_| Vec::new()).collect();
                for (k, v) in part {
                    let b = (hash64(&k) % num as u64) as usize;
                    buckets[b].push((k, v));
                }
                buckets
            })?;
        // Reduce side: transpose-concatenate bucket b of every map output.
        let mut out: Vec<Vec<(K, V)>> = (0..num).map(|_| Vec::new()).collect();
        for map_out in bucketed {
            for (b, bucket) in map_out.into_iter().enumerate() {
                out[b].extend(bucket);
            }
        }
        let result = Dataset::from_partitions(out);
        engine.metrics().record(StageReport {
            name: stage.to_string(),
            input_records,
            output_records: result.count() as u64,
            shuffled_records: input_records,
            wall: started.elapsed(),
        });
        Ok(KeyedDataset { inner: result })
    }

    /// Spark's `aggregateByKey`: builds a per-key accumulator with `seq`
    /// map-side (one pass per input partition, combiner style), shuffles the
    /// combiners, then merges them with `comb`.
    ///
    /// Correctness requires `comb` to be commutative and associative, and
    /// `seq`/`comb` to agree (folding values then combining must equal
    /// folding all values into one accumulator) — the [`pol_sketch`]
    /// statistics satisfy this by construction.
    pub fn aggregate_by_key<A, Z, S, C>(
        self,
        engine: &Engine,
        stage: &str,
        zero: Z,
        seq: S,
        comb: C,
    ) -> Result<Dataset<(K, A)>, EngineError>
    where
        A: Send + 'static,
        Z: Fn() -> A + Send + Sync + 'static,
        S: Fn(&mut A, V) + Send + Sync + 'static,
        C: Fn(&mut A, A) + Send + Sync + 'static,
    {
        let started = Instant::now();
        let input_records = self.inner.count() as u64;
        let num = engine.default_partitions();
        let zero = Arc::new(zero);
        let seq = Arc::new(seq);

        // Map side: per-partition combiners, radix-partitioned into `num`
        // shards *inside the worker* so the driver never touches
        // individual entries — it only moves shard pointers.
        let z1 = zero.clone();
        let s1 = seq.clone();
        let sharded: Vec<Vec<Vec<(K, A)>>> =
            engine.run_tasks(stage, self.inner.into_partitions(), move |_, part| {
                let mut acc: FxHashMap<K, A> = FxHashMap::default();
                for (k, v) in part {
                    s1(acc.entry(k).or_insert_with(|| z1()), v);
                }
                radix_partition(acc, num)
            })?;
        let shuffled: u64 = sharded
            .iter()
            .flat_map(|w| w.iter())
            .map(|s| s.len() as u64)
            .sum();

        // Reduce side: one parallel merge task per shard.
        let result = merge_combiner_shards(engine, stage, sharded, comb)?;
        engine.metrics().record(StageReport {
            name: stage.to_string(),
            input_records,
            output_records: result.count() as u64,
            shuffled_records: shuffled,
            wall: started.elapsed(),
        });
        Ok(result)
    }
}

/// Radix-partitions a combiner map into `shards` buckets by key hash —
/// the map side of the two-phase parallel merge. Entries keep the map's
/// iteration order within each bucket, which keeps downstream merges
/// deterministic for a deterministic input partitioning.
///
/// Two passes: a counting pass sizes every bucket exactly, so the scatter
/// pass never reallocates (the classic radix-sort layout; with 32 shards a
/// growth-doubling scatter was a measurable share of build-phase
/// allocations).
pub fn radix_partition<K, A>(acc: FxHashMap<K, A>, shards: usize) -> Vec<Vec<(K, A)>>
where
    K: Eq + Hash,
{
    let shards = shards.max(1);
    let mut counts = vec![0usize; shards];
    for k in acc.keys() {
        counts[(hash64(k) % shards as u64) as usize] += 1;
    }
    let mut out: Vec<Vec<(K, A)>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
    for (k, a) in acc {
        let b = (hash64(&k) % shards as u64) as usize;
        out[b].push((k, a));
    }
    out
}

/// Merges radix-partitioned combiner shards in parallel — the reduce side
/// of the two-phase aggregation. `sharded[w][s]` is worker `w`'s shard
/// `s`; shard `s` of every worker goes to one merge task, so the merge
/// scales with cores instead of serializing on the driver.
///
/// Per key, combiners merge in worker-index order — exactly the order a
/// sequential driver-side scatter would have produced — so the result is
/// bit-identical to the pre-radix implementation (and thread-count
/// invariant whenever the map-side partitioning is data-determined).
///
/// Records a `{stage}:radix-merge` [`StageReport`] so the parallel merge
/// is visible in [`crate::JobMetrics`] stage timings.
pub fn merge_combiner_shards<K, A, C>(
    engine: &Engine,
    stage: &str,
    sharded: Vec<Vec<Vec<(K, A)>>>,
    comb: C,
) -> Result<Dataset<(K, A)>, EngineError>
where
    K: Eq + Hash + Send + 'static,
    A: Send + 'static,
    C: Fn(&mut A, A) + Send + Sync + 'static,
{
    let started = Instant::now();
    let shards = sharded.iter().map(Vec::len).max().unwrap_or(0);
    let input_records: u64 = sharded
        .iter()
        .flat_map(|w| w.iter())
        .map(|s| s.len() as u64)
        .sum();
    // Transpose: gather shard `s` of every worker, in worker order.
    // Pointer moves only — the driver never touches individual entries.
    let mut transposed: Vec<Vec<Vec<(K, A)>>> = (0..shards).map(|_| Vec::new()).collect();
    for worker in sharded {
        for (s, shard) in worker.into_iter().enumerate() {
            transposed[s].push(shard);
        }
    }
    // Errors keep the caller's stage name; only the metrics row carries
    // the `:radix-merge` suffix.
    let merge_stage = format!("{stage}:radix-merge");
    let reduced: Vec<Vec<(K, A)>> = engine.run_tasks(stage, transposed, move |_, buckets| {
        let mut acc: FxHashMap<K, A> = FxHashMap::default();
        for bucket in buckets {
            for (k, a) in bucket {
                match acc.entry(k) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        comb(e.get_mut(), a);
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(a);
                    }
                }
            }
        }
        acc.into_iter().collect()
    })?;
    let result = Dataset::from_partitions(reduced);
    engine.metrics().record(StageReport {
        name: merge_stage,
        input_records,
        output_records: result.count() as u64,
        shuffled_records: input_records,
        wall: started.elapsed(),
    });
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words() -> Vec<(&'static str, u64)> {
        let text = "the quick brown fox jumps over the lazy dog the fox";
        text.split(' ').map(|w| (w, 1u64)).collect()
    }

    /// Sums `u64` values per key: the smallest `aggregate_by_key`.
    fn sum_by_key<K>(
        d: KeyedDataset<K, u64>,
        e: &Engine,
        stage: &str,
    ) -> Result<Dataset<(K, u64)>, EngineError>
    where
        K: Eq + Hash + Clone + Send + Sync + 'static,
    {
        d.aggregate_by_key(e, stage, || 0u64, |a, v| *a += v, |a, o| *a += o)
    }

    #[test]
    fn word_count_via_aggregate_by_key() {
        let e = Engine::new(4);
        let d = Dataset::from_vec(words(), 3).into_keyed();
        let mut out = sum_by_key(d, &e, "wc").unwrap().collect();
        out.sort();
        let the = out.iter().find(|(w, _)| *w == "the").unwrap();
        assert_eq!(the.1, 3);
        let fox = out.iter().find(|(w, _)| *w == "fox").unwrap();
        assert_eq!(fox.1, 2);
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn partition_by_key_collocates() {
        let e = Engine::new(4);
        let data: Vec<(u32, u32)> = (0..200).map(|i| (i % 10, i)).collect();
        let shuffled = Dataset::from_vec(data, 7)
            .into_keyed()
            .partition_by_key(&e, "shuffle", 4)
            .unwrap();
        let parts = shuffled.into_inner().into_partitions();
        assert_eq!(parts.len(), 4);
        // Every key appears in exactly one partition.
        let mut seen: std::collections::HashMap<u32, usize> = Default::default();
        for (pi, p) in parts.iter().enumerate() {
            for (k, _) in p {
                if let Some(prev) = seen.insert(*k, pi) {
                    assert_eq!(prev, pi, "key {k} split across partitions");
                }
            }
        }
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 200);
    }

    #[test]
    fn aggregate_by_key_counts_and_sums() {
        let e = Engine::new(3);
        let data: Vec<(u8, f64)> = (0..1000).map(|i| ((i % 5) as u8, i as f64)).collect();
        let expect_sum: f64 = (0..1000).filter(|i| i % 5 == 2).map(|i| i as f64).sum();
        let out = Dataset::from_vec(data, 8)
            .into_keyed()
            .aggregate_by_key(
                &e,
                "agg",
                || (0u64, 0.0f64),
                |acc, v| {
                    acc.0 += 1;
                    acc.1 += v;
                },
                |acc, o| {
                    acc.0 += o.0;
                    acc.1 += o.1;
                },
            )
            .unwrap()
            .collect();
        assert_eq!(out.len(), 5);
        let two = out.iter().find(|(k, _)| *k == 2).unwrap();
        assert_eq!(two.1 .0, 200);
        assert!((two.1 .1 - expect_sum).abs() < 1e-9);
    }

    #[test]
    fn key_by_builds_pairs() {
        let e = Engine::new(2);
        let d = Dataset::from_vec(vec!["aa", "b", "ccc"], 2);
        let keyed = d.key_by(&e, "len", |s| s.len()).unwrap();
        let mut out = keyed.into_inner().collect();
        out.sort();
        assert_eq!(out, vec![(1, "b"), (2, "aa"), (3, "ccc")]);
    }

    #[test]
    fn shuffle_metrics_recorded() {
        let e = Engine::new(2);
        let d =
            Dataset::from_vec((0..50u32).map(|i| (i % 3, i)).collect::<Vec<_>>(), 4).into_keyed();
        let _ = d.partition_by_key(&e, "the-shuffle", 2).unwrap();
        let stages = e.metrics().report();
        let s = stages.iter().find(|s| s.name == "the-shuffle").unwrap();
        assert_eq!(s.shuffled_records, 50);
    }

    #[test]
    fn radix_partition_covers_all_entries() {
        let mut m: FxHashMap<u32, u64> = FxHashMap::default();
        for i in 0..100u32 {
            m.insert(i, u64::from(i) * 2);
        }
        let shards = radix_partition(m, 7);
        assert_eq!(shards.len(), 7);
        assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), 100);
        for shard in &shards {
            for (k, _) in shard {
                // Entry landed in the shard its hash selects.
                let want = (hash64(k) % 7) as usize;
                assert!(shards[want].iter().any(|(k2, _)| k2 == k));
            }
        }
        // Zero shards is clamped to one.
        let shards = radix_partition(FxHashMap::<u32, u64>::default(), 0);
        assert_eq!(shards.len(), 1);
    }

    #[test]
    fn aggregate_records_radix_merge_stage() {
        let e = Engine::new(2);
        let d = Dataset::from_vec((0..50u32).map(|i| (i % 3, 1u64)).collect::<Vec<_>>(), 4)
            .into_keyed();
        let _ = sum_by_key(d, &e, "agg").unwrap();
        let stages = e.metrics().report();
        let merge = stages.iter().find(|s| s.name == "agg:radix-merge");
        assert!(merge.is_some(), "radix merge stage visible in metrics");
        assert_eq!(merge.map(|s| s.output_records), Some(3));
    }

    #[test]
    fn merge_combiner_shards_merges_in_worker_order() {
        let e = Engine::new(2);
        // Two workers, one shard each: worker order must be preserved, so
        // string concatenation (non-commutative) detects reordering.
        let sharded = vec![
            vec![vec![(1u32, "a".to_string())]],
            vec![vec![(1u32, "b".to_string())]],
        ];
        let out = merge_combiner_shards(&e, "mo", sharded, |a: &mut String, o: String| {
            a.push_str(&o);
        })
        .unwrap()
        .collect();
        assert_eq!(out, vec![(1, "ab".to_string())]);
    }

    #[test]
    fn panicking_combiner_surfaces_as_error() {
        let e = Engine::new(2);
        let d = Dataset::from_vec(words(), 3).into_keyed();
        let err = d
            .aggregate_by_key(
                &e,
                "explode",
                || 0u64,
                |a, v| *a += v,
                |_, _| panic!("combiner bug"),
            )
            .unwrap_err();
        assert_eq!(err.stage, "explode");
    }
}
