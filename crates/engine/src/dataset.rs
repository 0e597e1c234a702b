//! Partitioned datasets and their narrow transformations.

use crate::error::EngineError;
use crate::metrics::StageReport;
use crate::Engine;
use std::hash::Hash;
use std::time::Instant;

/// A partitioned in-memory collection — the engine's RDD analogue.
///
/// Narrow transformations (`map`, `filter`, …) run one task per partition
/// on the engine's pool and never move records between partitions; each
/// returns `Result` because partition tasks run on worker threads whose
/// panics surface as [`EngineError`] rather than tearing the process down.
/// Wide operations live on [`crate::KeyedDataset`].
#[derive(Clone, Debug)]
pub struct Dataset<T> {
    partitions: Vec<Vec<T>>,
}

impl<T: Send + 'static> Dataset<T> {
    /// Splits `data` into `num_partitions` contiguous, near-equal chunks.
    pub fn from_vec(data: Vec<T>, num_partitions: usize) -> Dataset<T> {
        let num_partitions = num_partitions.max(1);
        let n = data.len();
        let base = n / num_partitions;
        let extra = n % num_partitions;
        let mut partitions = Vec::with_capacity(num_partitions);
        let mut it = data.into_iter();
        for i in 0..num_partitions {
            let take = base + usize::from(i < extra);
            partitions.push(it.by_ref().take(take).collect());
        }
        Dataset { partitions }
    }

    /// Wraps pre-partitioned data (e.g. per-vessel partitions from the
    /// simulator) without moving records.
    pub fn from_partitions(partitions: Vec<Vec<T>>) -> Dataset<T> {
        if partitions.is_empty() {
            return Dataset {
                partitions: vec![Vec::new()],
            };
        }
        Dataset { partitions }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Total record count.
    pub fn count(&self) -> usize {
        self.partitions.iter().map(Vec::len).sum()
    }

    /// Borrows the partitions.
    pub fn partitions(&self) -> &[Vec<T>] {
        &self.partitions
    }

    /// Consumes the dataset into its partitions.
    pub fn into_partitions(self) -> Vec<Vec<T>> {
        self.partitions
    }

    /// Flattens into a single vector (partition order preserved).
    pub fn collect(self) -> Vec<T> {
        self.partitions.into_iter().flatten().collect()
    }

    /// The fundamental narrow transformation: one task per partition, each
    /// mapping the whole partition. Everything else is sugar over this.
    pub fn map_partitions<U, F>(
        self,
        engine: &Engine,
        stage: &str,
        f: F,
    ) -> Result<Dataset<U>, EngineError>
    where
        U: Send + 'static,
        F: Fn(Vec<T>) -> Vec<U> + Send + Sync + 'static,
    {
        let started = Instant::now();
        let input_records = self.count() as u64;
        let out = engine.run_tasks(stage, self.partitions, move |_, part| f(part))?;
        let result = Dataset { partitions: out };
        engine.metrics().record(StageReport {
            name: stage.to_string(),
            input_records,
            output_records: result.count() as u64,
            shuffled_records: 0,
            wall: started.elapsed(),
        });
        Ok(result)
    }

    /// Applies `f` to every record in parallel.
    pub fn map<U, F>(self, engine: &Engine, stage: &str, f: F) -> Result<Dataset<U>, EngineError>
    where
        U: Send + 'static,
        F: Fn(T) -> U + Send + Sync + 'static,
    {
        self.map_partitions(engine, stage, move |part| {
            part.into_iter().map(&f).collect()
        })
    }

    /// Keeps records matching the predicate.
    pub fn filter<F>(self, engine: &Engine, stage: &str, f: F) -> Result<Dataset<T>, EngineError>
    where
        F: Fn(&T) -> bool + Send + Sync + 'static,
    {
        self.map_partitions(engine, stage, move |part| {
            part.into_iter().filter(|t| f(t)).collect()
        })
    }

    /// Maps each record to zero or more outputs.
    pub fn flat_map<U, I, F>(
        self,
        engine: &Engine,
        stage: &str,
        f: F,
    ) -> Result<Dataset<U>, EngineError>
    where
        U: Send + 'static,
        I: IntoIterator<Item = U>,
        F: Fn(T) -> I + Send + Sync + 'static,
    {
        self.map_partitions(engine, stage, move |part| {
            part.into_iter().flat_map(&f).collect()
        })
    }

    /// Concatenates two datasets (partition lists append).
    pub fn union(mut self, other: Dataset<T>) -> Dataset<T> {
        self.partitions.extend(other.partitions);
        self
    }

    /// Re-chunks into `num` contiguous partitions (a narrow coalesce; for
    /// key-based movement see [`crate::KeyedDataset`]).
    pub fn repartition(self, num: usize) -> Dataset<T> {
        Dataset::from_vec(self.collect(), num)
    }

    /// Pairs every record with a key — the entry point to wide operations.
    pub fn key_by<K, F>(
        self,
        engine: &Engine,
        stage: &str,
        f: F,
    ) -> Result<crate::KeyedDataset<K, T>, EngineError>
    where
        K: Eq + Hash + Clone + Send + Sync + 'static,
        F: Fn(&T) -> K + Send + Sync + 'static,
    {
        let kv = self.map_partitions(engine, stage, move |part| {
            part.into_iter().map(|t| (f(&t), t)).collect()
        })?;
        Ok(crate::KeyedDataset::from_dataset(kv))
    }
}

impl<K: Eq + Hash + Clone + Send + Sync + 'static, V: Send + 'static> Dataset<(K, V)> {
    /// Reinterprets a dataset of pairs as a keyed dataset.
    pub fn into_keyed(self) -> crate::KeyedDataset<K, V> {
        crate::KeyedDataset::from_dataset(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_balances_partitions() {
        let d = Dataset::from_vec((0..10).collect::<Vec<i32>>(), 3);
        assert_eq!(d.num_partitions(), 3);
        let sizes: Vec<usize> = d.partitions().iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        assert_eq!(d.count(), 10);
        assert_eq!(d.collect(), (0..10).collect::<Vec<i32>>());
    }

    #[test]
    fn from_vec_more_partitions_than_records() {
        let d = Dataset::from_vec(vec![1, 2], 5);
        assert_eq!(d.num_partitions(), 5);
        assert_eq!(d.count(), 2);
    }

    #[test]
    fn from_partitions_empty_is_single_empty() {
        let d: Dataset<u8> = Dataset::from_partitions(vec![]);
        assert_eq!(d.num_partitions(), 1);
        assert_eq!(d.count(), 0);
    }

    #[test]
    fn map_filter_flat_map() {
        let e = Engine::new(4);
        let d = Dataset::from_vec((1..=8).collect::<Vec<i64>>(), 3);
        let out = d
            .map(&e, "double", |x| x * 2)
            .unwrap()
            .filter(&e, "big", |x| *x > 4)
            .unwrap()
            .flat_map(&e, "dup", |x| vec![x, x])
            .unwrap()
            .collect();
        let mut expect = Vec::new();
        for x in (1..=8).map(|x| x * 2).filter(|x| *x > 4) {
            expect.push(x);
            expect.push(x);
        }
        assert_eq!(out, expect);
    }

    #[test]
    fn union_and_repartition() {
        let a = Dataset::from_vec(vec![1, 2], 1);
        let b = Dataset::from_vec(vec![3], 1);
        let u = a.union(b);
        assert_eq!(u.num_partitions(), 2);
        let r = u.repartition(4);
        assert_eq!(r.num_partitions(), 4);
        assert_eq!(r.collect(), vec![1, 2, 3]);
    }

    #[test]
    fn stage_metrics_recorded() {
        let e = Engine::new(2);
        let d = Dataset::from_vec((0..100).collect::<Vec<i32>>(), 4);
        let _ = d.filter(&e, "keep-even", |x| x % 2 == 0).unwrap().collect();
        let stages = e.metrics().report();
        let s = stages.iter().find(|s| s.name == "keep-even").unwrap();
        assert_eq!(s.input_records, 100);
        assert_eq!(s.output_records, 50);
        assert_eq!(s.shuffled_records, 0);
    }

    #[test]
    fn parallelism_actually_used() {
        // With 4 threads, 4 sleeping partitions finish ~1x sleep, not 4x.
        let e = Engine::new(4);
        let d = Dataset::from_vec(vec![(); 4], 4);
        let t0 = Instant::now();
        let _ = d
            .map(&e, "sleep", |_| {
                std::thread::sleep(std::time::Duration::from_millis(50))
            })
            .unwrap()
            .collect();
        let elapsed = t0.elapsed();
        assert!(
            elapsed < std::time::Duration::from_millis(170),
            "partitions did not run in parallel: {elapsed:?}"
        );
    }

    #[test]
    fn panicking_map_surfaces_as_error() {
        let e = Engine::new(2);
        let d = Dataset::from_vec((0..10).collect::<Vec<i32>>(), 4);
        let err = d
            .map(&e, "div", |x| 100 / (x % 5 - 4)) // x=4,9 → divide by zero
            .unwrap_err();
        assert_eq!(err.stage, "div");
        // The engine stays usable after the failed stage.
        let d2 = Dataset::from_vec(vec![1, 2, 3], 2);
        assert_eq!(
            d2.map(&e, "ok", |x| x + 1).unwrap().collect(),
            vec![2, 3, 4]
        );
    }
}
