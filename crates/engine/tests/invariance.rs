//! The engine's core correctness property: keyed aggregation — a combiner
//! map per input partition, `radix_partition`ed on its task, then
//! `merge_combiner_shards` — is invariant to partition count and thread
//! count, and equals a sequential fold.

use pol_engine::{merge_combiner_shards, radix_partition, Engine};
use pol_sketch::hash::FxHashMap;
use pol_sketch::{MergeSketch, Welford};
use proptest::prelude::*;
use std::collections::HashMap;
use std::hash::Hash;

/// Splits `data` into `partitions` contiguous chunks and aggregates them
/// the way the fused build does: one engine task per chunk folds it with
/// `seq` and radix-partitions the result, then the shards are merged
/// with `comb`.
fn aggregate_by_key<K, V, A>(
    engine: &Engine,
    data: &[(K, V)],
    partitions: usize,
    seq: fn(&mut A, V),
    comb: fn(&mut A, A),
) -> HashMap<K, A>
where
    K: Eq + Hash + Clone + Send + 'static,
    V: Clone + Send + 'static,
    A: Default + Send + 'static,
{
    let chunk = data.len().div_ceil(partitions).max(1);
    let chunks: Vec<Vec<(K, V)>> = data.chunks(chunk).map(<[_]>::to_vec).collect();
    let sharded = engine
        .run_tasks("map", chunks, move |_, chunk| {
            let mut acc: FxHashMap<K, A> = FxHashMap::default();
            for (k, v) in chunk {
                seq(acc.entry(k).or_default(), v);
            }
            radix_partition(acc, Engine::DEFAULT_PARTITIONS)
        })
        .unwrap();
    let merged = merge_combiner_shards(engine, "merge", sharded, comb).unwrap();
    merged.into_iter().flatten().collect()
}

fn sequential_fold(data: &[(u8, f64)]) -> HashMap<u8, Welford> {
    let mut out: HashMap<u8, Welford> = HashMap::new();
    for (k, v) in data {
        out.entry(*k).or_default().add(*v);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn aggregate_invariant_to_partitions_and_threads(
        data in prop::collection::vec((0u8..12, -1e3f64..1e3), 0..800),
        partitions in 1usize..16,
        threads in 1usize..8,
    ) {
        let expect = sequential_fold(&data);
        let engine = Engine::new(threads);
        let got = aggregate_by_key(
            &engine,
            &data,
            partitions,
            |acc: &mut Welford, v| acc.add(v),
            |acc, o| acc.merge(&o),
        );
        prop_assert_eq!(got.len(), expect.len());
        for (k, w) in &expect {
            let g = got.get(k).expect("key present");
            prop_assert_eq!(g.count(), w.count());
            match (g.mean(), w.mean()) {
                (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-6),
                (None, None) => {}
                other => prop_assert!(false, "{other:?}"),
            }
        }
        // Same partitioning on one worker: the merge order is task order,
        // so the floats agree to the bit, not just within rounding.
        let one = aggregate_by_key(
            &Engine::new(1),
            &data,
            partitions,
            |acc: &mut Welford, v| acc.add(v),
            |acc, o| acc.merge(&o),
        );
        prop_assert_eq!(got, one);
    }

    /// Narrow stages — one task per partition, nothing moved between
    /// partitions — chained through `run_tasks` transform every record
    /// exactly once, whatever the partitioning.
    #[test]
    fn narrow_chain_preserves_multiset(
        data in prop::collection::vec(0i64..1000, 0..500),
        partitions in 1usize..10,
    ) {
        let engine = Engine::new(4);
        let mut expect: Vec<i64> = data.iter().map(|x| x * 3 + 1).filter(|x| x % 2 == 1).collect();
        let chunk = data.len().div_ceil(partitions).max(1);
        let parts: Vec<Vec<i64>> = data.chunks(chunk).map(<[_]>::to_vec).collect();
        let affine = engine
            .run_tasks("affine", parts, |_, p| p.into_iter().map(|x| x * 3 + 1).collect())
            .unwrap();
        let odd = engine
            .run_tasks("odd", affine, |_, p: Vec<i64>| {
                p.into_iter().filter(|x| x % 2 == 1).collect::<Vec<_>>()
            })
            .unwrap();
        let mut got: Vec<i64> = odd.into_iter().flatten().collect();
        expect.sort();
        got.sort();
        prop_assert_eq!(got, expect);
    }

    /// Radix partitioning moves entries, never drops or copies one:
    /// every task's shards together hold exactly its map's entries.
    #[test]
    fn shuffle_is_permutation(
        data in prop::collection::vec((0u16..50, 0u32..10_000), 0..500),
        partitions in 1usize..8,
        out_partitions in 1usize..8,
    ) {
        let chunk = data.len().div_ceil(partitions).max(1);
        let mut got: Vec<(u16, u32)> = Vec::new();
        for part in data.chunks(chunk) {
            let mut acc: FxHashMap<u16, Vec<u32>> = FxHashMap::default();
            for (k, v) in part {
                acc.entry(*k).or_default().push(*v);
            }
            let shards = radix_partition(acc, out_partitions);
            prop_assert_eq!(shards.len(), out_partitions);
            for (k, vs) in shards.into_iter().flatten() {
                got.extend(vs.into_iter().map(|v| (k, v)));
            }
        }
        let mut expect = data;
        expect.sort();
        got.sort();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn aggregate_by_key_matches_hashmap(
        data in prop::collection::vec((0u8..20, 1u64..100), 0..400),
    ) {
        let engine = Engine::new(2);
        let mut expect: HashMap<u8, u64> = HashMap::new();
        for (k, v) in &data {
            *expect.entry(*k).or_insert(0) += *v;
        }
        let got = aggregate_by_key(&engine, &data, 5, |a: &mut u64, v| *a += v, |a, o| *a += o);
        prop_assert_eq!(got, expect);
    }
}
