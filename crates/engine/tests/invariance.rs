//! The engine's core correctness property: keyed aggregation is invariant
//! to partition count and thread count, and equals a sequential fold.

use pol_engine::{Dataset, Engine};
use pol_sketch::{MergeSketch, Welford};
use proptest::prelude::*;
use std::collections::HashMap;

fn sequential_fold(data: &[(u8, f64)]) -> HashMap<u8, Welford> {
    let mut out: HashMap<u8, Welford> = HashMap::new();
    for (k, v) in data {
        out.entry(*k).or_insert_with(Welford::new).add(*v);
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
        let got: HashMap<u8, Welford> = Dataset::from_vec(data, partitions)
            .into_keyed()
            .aggregate_by_key(
                &engine,
                "welford",
                Welford::new,
                |acc, v| acc.add(v),
                |acc, o| acc.merge(&o),
            )
            .unwrap()
            .collect()
            .into_iter()
            .collect();
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
    }

    #[test]
    fn narrow_chain_preserves_multiset(
        data in prop::collection::vec(0i64..1000, 0..500),
        partitions in 1usize..10,
    ) {
        let engine = Engine::new(4);
        let mut expect: Vec<i64> = data.iter().map(|x| x * 3 + 1).filter(|x| x % 2 == 1).collect();
        let mut got = Dataset::from_vec(data, partitions)
            .map(&engine, "affine", |x| x * 3 + 1)
            .unwrap()
            .filter(&engine, "odd", |x| x % 2 == 1)
            .unwrap()
            .collect();
        expect.sort();
        got.sort();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn shuffle_is_permutation(
        data in prop::collection::vec((0u16..50, 0u32..10_000), 0..500),
        partitions in 1usize..8,
        out_partitions in 1usize..8,
    ) {
        let engine = Engine::new(3);
        let mut expect = data.clone();
        let mut got = Dataset::from_vec(data, partitions)
            .into_keyed()
            .partition_by_key(&engine, "shuffle", out_partitions)
            .unwrap()
            .into_inner()
            .collect();
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
        let got: HashMap<u8, u64> = Dataset::from_vec(data, 5)
            .into_keyed()
            .aggregate_by_key(&engine, "sum", || 0u64, |a, v| *a += v, |a, o| *a += o)
            .unwrap()
            .collect()
            .into_iter()
            .collect();
        prop_assert_eq!(got, expect);
    }
}
