//! Per-stage execution accounting — the observability surface of the
//! engine (what Spark's UI shows per stage; what Figure 3 of the paper
//! sketches as the execution flow).

use pol_sketch::hash::FxHashMap;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// A completed stage's accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageReport {
    /// Stage name (the pipeline step, e.g. `"clean"`, `"aggregate"`).
    pub name: String,
    /// Records entering the stage.
    pub input_records: u64,
    /// Records leaving the stage.
    pub output_records: u64,
    /// Records moved across partitions (0 for a stage that moves none).
    pub shuffled_records: u64,
    /// Wall-clock time of the stage.
    pub wall: Duration,
}

/// Accumulates [`StageReport`]s across a job. Shared by all clones of an
/// [`crate::Engine`].
#[derive(Default)]
pub struct JobMetrics {
    stages: Mutex<Vec<StageReport>>,
    counters: Mutex<FxHashMap<String, u64>>,
}

impl JobMetrics {
    /// Records a completed stage.
    pub fn record(&self, report: StageReport) {
        self.stages
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(report);
    }

    /// Snapshot of all stages so far, in completion order.
    pub fn report(&self) -> Vec<StageReport> {
        self.stages
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Adds `delta` to the named free-form counter (allocation counts,
    /// morsel counts — anything that is not a per-stage record count).
    pub fn add_counter(&self, name: &str, delta: u64) {
        *self
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name.to_string())
            .or_insert(0) += delta;
    }

    /// Current value of a named counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// All named counters, sorted by name for stable output.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        out.sort();
        out
    }

    /// Drops all recorded stages and counters.
    pub fn clear(&self) {
        self.stages
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// Renders a compact text table (one line per stage, then counters).
    pub fn render(&self) -> String {
        let mut out = render_stages(&self.stages.lock().unwrap_or_else(PoisonError::into_inner));
        let counters = self.counters();
        if !counters.is_empty() {
            out.push_str("counters\n");
            for (name, value) in counters {
                out.push_str(&format!("  {name:<30} {value:>12}\n"));
            }
        }
        out
    }
}

/// Renders stages as [`JobMetrics::render`]'s table: a header, then one
/// line per stage.
pub fn render_stages(stages: &[StageReport]) -> String {
    let mut out = String::from(
        "stage                          in_records  out_records    shuffled   wall_ms\n",
    );
    for s in stages {
        out.push_str(&format!(
            "{:<30} {:>11} {:>12} {:>11} {:>9.1}\n",
            s.name,
            s.input_records,
            s.output_records,
            s.shuffled_records,
            s.wall.as_secs_f64() * 1e3
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(name: &str, wall_ms: u64) -> StageReport {
        StageReport {
            name: name.into(),
            input_records: 10,
            output_records: 8,
            shuffled_records: 0,
            wall: Duration::from_millis(wall_ms),
        }
    }

    #[test]
    fn record_and_report() {
        let m = JobMetrics::default();
        m.record(stage("a", 5));
        m.record(stage("b", 7));
        let r = m.report();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].name, "a");
        let wall: Duration = r.iter().map(|s| s.wall).sum();
        assert_eq!(wall, Duration::from_millis(12));
    }

    #[test]
    fn clear_resets() {
        let m = JobMetrics::default();
        m.record(stage("a", 5));
        m.clear();
        assert!(m.report().is_empty());
    }

    #[test]
    fn render_contains_stage_names() {
        let m = JobMetrics::default();
        m.record(stage("clean", 1));
        let text = m.render();
        assert!(text.contains("clean"));
        assert!(text.lines().count() >= 2);
    }

    #[test]
    fn counters_accumulate_and_clear() {
        let m = JobMetrics::default();
        assert_eq!(m.counter("allocs"), 0);
        m.add_counter("allocs", 3);
        m.add_counter("allocs", 4);
        m.add_counter("morsels", 1);
        assert_eq!(m.counter("allocs"), 7);
        assert_eq!(
            m.counters(),
            vec![("allocs".to_string(), 7), ("morsels".to_string(), 1)]
        );
        assert!(m.render().contains("morsels"));
        m.clear();
        assert_eq!(m.counter("allocs"), 0);
        assert!(m.counters().is_empty());
    }
}
