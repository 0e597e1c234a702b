//! Engine stress and ordering guarantees under larger loads.

use pol_engine::{merge_combiner_shards, radix_partition, Engine};
use pol_sketch::hash::FxHashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One combiner map per chunk of `data`, radix-partitioned into the
/// engine's shard count: the map side of keyed aggregation.
fn shard_chunks(data: &[(u32, u64)], chunks: usize) -> Vec<Vec<Vec<(u32, u64)>>> {
    let chunk = data.len().div_ceil(chunks).max(1);
    data.chunks(chunk)
        .map(|part| {
            let mut acc: FxHashMap<u32, u64> = FxHashMap::default();
            for (k, v) in part {
                *acc.entry(*k).or_default() += v;
            }
            radix_partition(acc, Engine::DEFAULT_PARTITIONS)
        })
        .collect()
}

#[test]
fn large_shuffle_preserves_every_record() {
    let n = 500_000u32;
    let acc: FxHashMap<u32, u64> = (0..n).map(|i| (i, u64::from(i))).collect();
    let out: Vec<(u32, u64)> = radix_partition(acc, 11).into_iter().flatten().collect();
    assert_eq!(out.len(), n as usize);
    let sum: u64 = out.iter().map(|(_, v)| *v).sum();
    assert_eq!(sum, (u64::from(n) - 1) * u64::from(n) / 2);
}

#[test]
fn aggregate_many_keys() {
    let engine = Engine::new(4);
    let n = 300_000usize;
    let keys = 50_000u32;
    let data: Vec<(u32, u64)> = (0..n)
        .map(|i| (((i as u32).wrapping_mul(2_654_435_761)) % keys, 1))
        .collect();
    let out = merge_combiner_shards(&engine, "many-keys", shard_chunks(&data, 8), |a, o| *a += o)
        .unwrap();
    let out: Vec<(u32, u64)> = out.into_iter().flatten().collect();
    assert!(out.len() <= keys as usize);
    let total: u64 = out.iter().map(|(_, v)| *v).sum();
    assert_eq!(total, n as u64);
}

#[test]
fn run_tasks_called_once_per_input() {
    let engine = Engine::new(3);
    let calls = Arc::new(AtomicUsize::new(0));
    let c = calls.clone();
    let inputs: Vec<Vec<i32>> = (0..7).map(|p| (p * 10..p * 10 + 10).collect()).collect();
    let out = engine
        .run_tasks("count-calls", inputs, move |_, p| {
            c.fetch_add(1, Ordering::SeqCst);
            p
        })
        .unwrap();
    assert_eq!(out.iter().map(Vec::len).sum::<usize>(), 70);
    assert_eq!(calls.load(Ordering::SeqCst), 7);
}

#[test]
fn deeply_chained_stages() {
    let engine = Engine::new(2);
    let mut parts: Vec<Vec<i64>> = (0..4)
        .map(|p| (p * 2_500..(p + 1) * 2_500).collect())
        .collect();
    for i in 0..20 {
        parts = engine
            .run_tasks(&format!("chain-{i}"), parts, |_, p| {
                p.into_iter().map(|x| x + 1).collect()
            })
            .unwrap();
    }
    let out: Vec<i64> = parts.into_iter().flatten().collect();
    assert_eq!(out[0], 20);
    assert_eq!(out.len(), 10_000);
}

#[test]
fn empty_dataset_through_all_operations() {
    let engine = Engine::new(2);
    let none: Vec<Vec<u32>> = engine.run_tasks("f", Vec::new(), |_, p| p).unwrap();
    assert!(none.is_empty());
    let shards = radix_partition(FxHashMap::<u32, u32>::default(), 4);
    assert_eq!(shards.len(), 4);
    assert!(shards.iter().all(Vec::is_empty));
    let out = merge_combiner_shards(&engine, "agg", vec![shards], |a, b| *a += b).unwrap();
    assert!(out.iter().all(Vec::is_empty));
    let out = merge_combiner_shards(
        &engine,
        "agg",
        Vec::<Vec<Vec<(u32, u32)>>>::new(),
        |a, b| *a += b,
    )
    .unwrap();
    assert!(out.is_empty());
}

#[test]
fn metrics_totals_are_consistent() {
    let engine = Engine::new(2);
    let data: Vec<(u32, u64)> = (0..1000u32).map(|i| (i % 10, 1)).collect();
    // Four chunks, each holding all ten keys: 40 combiners in, 10 out.
    let out =
        merge_combiner_shards(&engine, "even", shard_chunks(&data, 4), |a, o| *a += o).unwrap();
    assert_eq!(out.iter().map(Vec::len).sum::<usize>(), 10);
    let stages = engine.metrics().report();
    let merge = stages
        .iter()
        .find(|s| s.name == "even:radix-merge")
        .unwrap();
    assert_eq!(merge.input_records, 40);
    assert_eq!(merge.shuffled_records, 40);
    assert_eq!(merge.output_records, 10);
    assert!(engine.metrics().total_wall() > std::time::Duration::ZERO);
}
