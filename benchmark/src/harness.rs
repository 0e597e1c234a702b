//! What the workloads' `run` functions have in common: repeated set-up,
//! the fixed warm-up, the fixed-count repetition loop with its untraced
//! and traced halves, and the quartile diagnostics.

use crate::estimate::{quantile, Segments};
use crate::json::{obj, Json};
use crate::{alloc, trace};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Seconds of set-up after which no further set-up is begun: a quiet
/// machine takes under two for all three, and one that takes longer than
/// this is measuring its neighbours.
const SETUP_ALLOWANCE_S: f64 = 12.0;

/// Sets up [`SETUPS`] times over, dropping each result before making the
/// next (a set-up may hold a port, a child process, gigabytes), and
/// returns the last one with the seconds each took.
pub fn set_up<T>(mut make: impl FnMut() -> Result<T, String>) -> Result<(T, Vec<f64>), String> {
    let mut seconds = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        if seconds.iter().sum::<f64>() > SETUP_ALLOWANCE_S {
            break;
        }
        drop(kept.take());
        let t = Instant::now();
        kept = Some(make()?);
        seconds.push(t.elapsed().as_secs_f64());
    }
    kept.map(|k| (k, seconds))
        .ok_or_else(|| "no set-up ran".to_string())
}

/// What the repetition loop measured.
pub struct Timed {
    /// Passes run with spans off: the end-to-end numbers come from these.
    pub plain: Segments,
    /// Passes run with spans and allocation counting on (traced runs only).
    pub spanned: Segments,
    /// `(allocation calls, bytes)` counted during the spanned passes.
    pub counted: (u64, u64),
}

impl Timed {
    pub fn passes(&self) -> usize {
        self.plain.passes() + self.spanned.passes()
    }

    /// Traced best-segment time over untraced, minus one.
    pub fn overhead_share(&self) -> f64 {
        self.spanned.best_sum(|_| true) / self.plain.best_sum(|_| true) - 1.0
    }
}

/// Runs `pass` (which returns its segments' names and seconds) `count`
/// times. The count is a function of `--seconds` alone, never of how fast
/// the code under test is: the best-segment estimate is a minimum over
/// passes, and a minimum over more passes is lower, so both sides of a
/// comparison must take it over the same number. A traced run executes
/// the first half of the passes with spans off and the second half with
/// spans on, so that the two halves give the tracing overhead.
///
/// The one exception is a machine so slow that the passes have taken
/// `seconds` before the count is reached (the counts are sized to take
/// two thirds of it): the loop then stops, after at least one pass of each
/// kind, [`Timed::passes`] shows it, and the run says so. Without it a
/// throttled machine (measured: the same pass 5 and 17 times slower within
/// a quarter of an hour, with 24 % and 41 % of the machine stolen) pushes
/// a run past the 180 s the accepting driver allows, which is how the
/// driver came to refuse the first version of this benchmark.
pub fn repeat(
    count: usize,
    seconds: u64,
    traced: bool,
    mut pass: impl FnMut(u32) -> Result<Vec<(String, f64)>, String>,
) -> Result<Timed, String> {
    let mut timed = Timed {
        plain: Segments::default(),
        spanned: Segments::default(),
        counted: (0, 0),
    };
    let spanned = if traced { (count / 2).max(1) } else { 0 };
    let plain = count.saturating_sub(spanned).max(1);
    let started = Instant::now();
    let mut rep = 0u32;
    let mut planned_so_far = 0;
    for (spans_on, planned) in [(false, plain), (true, spanned)] {
        planned_so_far += planned;
        // Each kind of pass gets its share of the allowance.
        let allowed_s = seconds as f64 * planned_so_far as f64 / (plain + spanned) as f64;
        for done in 0..planned {
            if done >= 1 && started.elapsed().as_secs_f64() > allowed_s {
                break;
            }
            rep += 1;
            trace::set_enabled(spans_on);
            alloc::set_counting(spans_on);
            let before = alloc::counters();
            let segments = pass(rep);
            trace::set_enabled(false);
            alloc::set_counting(false);
            let after = alloc::counters();
            timed.counted.0 += after.0 - before.0;
            timed.counted.1 += after.1 - before.1;
            if spans_on {
                timed.spanned.push_pass(segments?);
            } else {
                timed.plain.push_pass(segments?);
            }
        }
    }
    Ok(timed)
}

/// The fixed warm-up every set-up ends with and `setup_s` includes.
pub const WARMUP: Duration = Duration::from_secs(3);

/// Calls `step` until [`WARMUP`] has gone by and returns the seconds that
/// took. `step` must be short (milliseconds), so that the warm-up is the
/// same length whatever the machine is doing.
pub fn warm_up(mut step: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let started = Instant::now();
    while started.elapsed() < WARMUP {
        step()?;
    }
    Ok(started.elapsed().as_secs_f64())
}

/// Quartiles of a sample, for the diagnostics.
pub fn quartiles(values: &[f64]) -> Json {
    obj(vec![
        ("p25", quantile(values, 0.25).into()),
        ("p50", quantile(values, 0.5).into()),
        ("p75", quantile(values, 0.75).into()),
        ("n", values.len().into()),
    ])
}
