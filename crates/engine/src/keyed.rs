//! Keyed aggregation: the reduce side of the paper's methodology.
//!
//! Grouping-set keys (Table 2) are folded into per-task combiner maps
//! map-side, radix-partitioned by key hash inside each task
//! ([`radix_partition`]), and merged shard by shard in parallel
//! ([`merge_combiner_shards`]) — Spark's `aggregateByKey` contract, which
//! is exactly what makes `pol-sketch`'s mergeable statistics
//! partition-invariant.
//!
//! A panic inside the combine operator is reported as an
//! [`EngineError`] instead of aborting the process.

use crate::error::EngineError;
use crate::metrics::StageReport;
use crate::Engine;
use pol_sketch::hash::{hash64, FxHashMap};
use std::collections::hash_map::Entry;
use std::hash::Hash;
use std::time::Instant;

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
/// of the two-phase aggregation. `sharded[w][s]` is task `w`'s shard `s`;
/// shard `s` of every task goes to one merge task, so the merge scales
/// with cores instead of serializing on the driver. Returns one partition
/// of merged `(key, combiner)` pairs per shard; every key is in exactly
/// one.
///
/// Per key, the first task's combiner is adopted and the later ones are
/// merged into it in task-index order, so the result does not depend on
/// the worker count whenever the map-side partitioning is
/// data-determined.
///
/// Records a `{stage}:radix-merge` [`StageReport`] so the parallel merge
/// is visible in [`crate::JobMetrics`] stage timings.
pub fn merge_combiner_shards<K, A, C>(
    engine: &Engine,
    stage: &str,
    sharded: Vec<Vec<Vec<(K, A)>>>,
    comb: C,
) -> Result<Vec<Vec<(K, A)>>, EngineError>
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
    // Transpose: gather shard `s` of every task, in task order. Pointer
    // moves only — the driver never touches individual entries.
    let mut transposed: Vec<Vec<Vec<(K, A)>>> = (0..shards).map(|_| Vec::new()).collect();
    for worker in sharded {
        for (s, shard) in worker.into_iter().enumerate() {
            transposed[s].push(shard);
        }
    }
    // Errors keep the caller's stage name; only the metrics row carries
    // the `:radix-merge` suffix.
    let reduced: Vec<Vec<(K, A)>> = engine.run_tasks(stage, transposed, move |_, buckets| {
        let mut acc: FxHashMap<K, A> = FxHashMap::default();
        for bucket in buckets {
            for (k, a) in bucket {
                match acc.entry(k) {
                    Entry::Occupied(mut e) => comb(e.get_mut(), a),
                    Entry::Vacant(e) => {
                        e.insert(a);
                    }
                }
            }
        }
        acc.into_iter().collect()
    })?;
    engine.metrics().record(StageReport {
        name: format!("{stage}:radix-merge"),
        input_records,
        output_records: reduced.iter().map(|p| p.len() as u64).sum(),
        shuffled_records: input_records,
        wall: started.elapsed(),
    });
    Ok(reduced)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words() -> Vec<(&'static str, u64)> {
        let text = "the quick brown fox jumps over the lazy dog the fox";
        text.split(' ').map(|w| (w, 1u64)).collect()
    }

    /// Keyed aggregation as the fused build runs it: each input partition
    /// folds into its own combiner map, which is radix-partitioned, and
    /// the shards are merged. `partitions` splits `data` into that many
    /// contiguous chunks.
    fn aggregate_by_key<K, V, A>(
        e: &Engine,
        stage: &str,
        data: Vec<(K, V)>,
        partitions: usize,
        seq: impl Fn(&mut A, V),
        comb: impl Fn(&mut A, A) + Send + Sync + 'static,
    ) -> Result<Vec<(K, A)>, EngineError>
    where
        K: Eq + Hash + Clone + Send + 'static,
        V: Clone,
        A: Default + Send + 'static,
    {
        let chunk = data.len().div_ceil(partitions).max(1);
        let sharded = data
            .chunks(chunk)
            .map(|part| {
                let mut acc: FxHashMap<K, A> = FxHashMap::default();
                for (k, v) in part.iter().cloned() {
                    seq(acc.entry(k).or_default(), v);
                }
                radix_partition(acc, Engine::DEFAULT_PARTITIONS)
            })
            .collect();
        let merged = merge_combiner_shards(e, stage, sharded, comb)?;
        Ok(merged.into_iter().flatten().collect())
    }

    fn sum_by_key<K>(e: &Engine, stage: &str, data: Vec<(K, u64)>) -> Vec<(K, u64)>
    where
        K: Eq + Hash + Clone + Send + 'static,
    {
        aggregate_by_key(e, stage, data, 3, |a, v| *a += v, |a, o| *a += o).unwrap()
    }

    #[test]
    fn word_count_via_aggregate_by_key() {
        let e = Engine::new(4);
        let mut out = sum_by_key(&e, "wc", words());
        out.sort();
        let the = out.iter().find(|(w, _)| *w == "the").unwrap();
        assert_eq!(the.1, 3);
        let fox = out.iter().find(|(w, _)| *w == "fox").unwrap();
        assert_eq!(fox.1, 2);
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn partition_by_key_collocates() {
        // Seven tasks' combiner maps over overlapping keys: a key lands in
        // the same shard index in every task, so one merge task sees all
        // of its combiners.
        let sharded: Vec<Vec<Vec<(u32, u32)>>> = (0..7u32)
            .map(|w| {
                let acc: FxHashMap<u32, u32> = (0..30).map(|i| ((i * 7 + w) % 10, i)).collect();
                radix_partition(acc, 4)
            })
            .collect();
        let mut seen: std::collections::HashMap<u32, usize> = Default::default();
        for task in &sharded {
            assert_eq!(task.len(), 4);
            for (s, shard) in task.iter().enumerate() {
                for (k, _) in shard {
                    if let Some(prev) = seen.insert(*k, s) {
                        assert_eq!(prev, s, "key {k} split across shards");
                    }
                }
            }
        }
        assert_eq!(seen.len(), 10);
    }

    #[test]
    fn aggregate_by_key_counts_and_sums() {
        let e = Engine::new(3);
        let data: Vec<(u8, f64)> = (0..1000).map(|i| ((i % 5) as u8, i as f64)).collect();
        let expect_sum: f64 = (0..1000).filter(|i| i % 5 == 2).map(|i| i as f64).sum();
        let out = aggregate_by_key(
            &e,
            "agg",
            data,
            8,
            |acc: &mut (u64, f64), v| {
                acc.0 += 1;
                acc.1 += v;
            },
            |acc, o| {
                acc.0 += o.0;
                acc.1 += o.1;
            },
        )
        .unwrap();
        assert_eq!(out.len(), 5);
        let two = out.iter().find(|(k, _)| *k == 2).unwrap();
        assert_eq!(two.1 .0, 200);
        assert!((two.1 .1 - expect_sum).abs() < 1e-9);
    }

    #[test]
    fn shuffle_metrics_recorded() {
        let e = Engine::new(2);
        // Four tasks, one combiner entry per key each: 12 entries move.
        let data = (0..50u32).map(|i| (i % 3, 1u64)).collect::<Vec<_>>();
        let add = |a: &mut u64, v| *a += v;
        let _ = aggregate_by_key(&e, "the-shuffle", data, 4, add, |a, o| *a += o);
        let stages = e.metrics().report();
        let s = stages
            .iter()
            .find(|s| s.name == "the-shuffle:radix-merge")
            .unwrap();
        assert_eq!(s.shuffled_records, 12);
        assert_eq!(s.input_records, 12);
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
        let _ = sum_by_key(&e, "agg", (0..50u32).map(|i| (i % 3, 1u64)).collect());
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
        .unwrap();
        assert_eq!(out, vec![vec![(1, "ab".to_string())]]);
    }

    #[test]
    fn panicking_combiner_surfaces_as_error() {
        let e = Engine::new(2);
        let err = aggregate_by_key(
            &e,
            "explode",
            words(),
            3,
            |a: &mut u64, v| *a += v,
            |_, _| panic!("combiner bug"),
        )
        .unwrap_err();
        assert_eq!(err.stage, "explode");
    }
}
