//! Engine stress and ordering guarantees under larger loads.

use pol_engine::{Dataset, Engine};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn large_shuffle_preserves_every_record() {
    let engine = Engine::new(4);
    let n = 500_000usize;
    let data: Vec<(u32, u64)> = (0..n).map(|i| ((i % 9973) as u32, i as u64)).collect();
    let out = Dataset::from_vec(data, 16)
        .into_keyed()
        .partition_by_key(&engine, "big-shuffle", 11)
        .unwrap()
        .into_inner()
        .collect();
    assert_eq!(out.len(), n);
    let sum: u64 = out.iter().map(|(_, v)| *v).sum();
    assert_eq!(sum, (n as u64 - 1) * n as u64 / 2);
}

#[test]
fn aggregate_many_keys() {
    let engine = Engine::new(4);
    let n = 300_000usize;
    let keys = 50_000u32;
    let data: Vec<(u32, u64)> = (0..n)
        .map(|i| (((i as u32).wrapping_mul(2_654_435_761)) % keys, 1))
        .collect();
    let out = Dataset::from_vec(data, 8)
        .into_keyed()
        .aggregate_by_key(
            &engine,
            "many-keys",
            || 0u64,
            |a, v| *a += v,
            |a, o| *a += o,
        )
        .unwrap()
        .collect();
    assert!(out.len() <= keys as usize);
    let total: u64 = out.iter().map(|(_, v)| *v).sum();
    assert_eq!(total, n as u64);
}

#[test]
fn map_partitions_called_once_per_partition() {
    let engine = Engine::new(3);
    let calls = Arc::new(AtomicUsize::new(0));
    let c = calls.clone();
    let d = Dataset::from_vec((0..100).collect::<Vec<i32>>(), 7);
    let out = d
        .map_partitions(&engine, "count-calls", move |p| {
            c.fetch_add(1, Ordering::SeqCst);
            p
        })
        .unwrap();
    assert_eq!(out.count(), 100);
    assert_eq!(calls.load(Ordering::SeqCst), 7);
}

#[test]
fn deeply_chained_stages() {
    let engine = Engine::new(2);
    let mut d = Dataset::from_vec((0..10_000i64).collect::<Vec<_>>(), 4);
    for i in 0..20 {
        d = d.map(&engine, &format!("chain-{i}"), |x| x + 1).unwrap();
    }
    let out = d.collect();
    assert_eq!(out[0], 20);
    assert_eq!(out.len(), 10_000);
    assert!(engine.metrics().report().len() >= 20);
}

#[test]
fn empty_dataset_through_all_operations() {
    let engine = Engine::new(2);
    let d: Dataset<(u32, u32)> = Dataset::from_vec(Vec::new(), 4);
    let out = d
        .filter(&engine, "f", |_| true)
        .unwrap()
        .into_keyed()
        .aggregate_by_key(&engine, "agg", || 0u32, |a, v| *a += v, |a, b| *a += b)
        .unwrap()
        .collect();
    assert!(out.is_empty());
}

#[test]
fn metrics_totals_are_consistent() {
    let engine = Engine::new(2);
    let d = Dataset::from_vec((0..1000u32).collect::<Vec<_>>(), 4);
    let _ = d
        .filter(&engine, "even", |x| x % 2 == 0)
        .unwrap()
        .map(&engine, "halve", |x| x / 2)
        .unwrap()
        .collect();
    let stages = engine.metrics().report();
    let even = stages.iter().find(|s| s.name == "even").unwrap();
    let halve = stages.iter().find(|s| s.name == "halve").unwrap();
    assert_eq!(even.input_records, 1000);
    assert_eq!(even.output_records, 500);
    assert_eq!(halve.input_records, 500);
    assert_eq!(halve.output_records, 500);
    assert!(engine.metrics().total_wall() > std::time::Duration::ZERO);
}
