//! Spans around the calls into each layer, recorded from the benchmark's
//! own files. Spans are kept in memory and written when the run ends; the
//! same code runs traced and untraced, a flag decides whether a span is
//! kept, so the untraced numbers pay two clock reads per segment.
//!
//! Names are `<layer>.<what>`. Two names belong to the harness:
//! `bench.timed` is the root of one repetition of the timed region (its
//! self time is what no layer accounts for), and `bench.untimed` marks
//! checking done in the middle of a timed region, which is taken out of
//! every enclosing time.

use crate::json::{obj, Json};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. `parent` indexes the span that was open on the same
/// thread when this one started.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS.lock().expect("no span is recorded while panicking")
}

/// Keeps (or stops keeping) spans from now on.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// A running clock that is also a span when tracing is on.
pub struct Timer {
    start: Instant,
    span: Option<usize>,
}

/// Starts timing `name` for repetition `rep`.
pub fn start(name: &'static str, rep: u32) -> Timer {
    let span = ENABLED.load(Ordering::SeqCst).then(|| {
        let parent = OPEN.with(|o| o.borrow().last().copied());
        let mut all = spans();
        all.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            rep,
        });
        let idx = all.len() - 1;
        OPEN.with(|o| o.borrow_mut().push(idx));
        idx
    });
    Timer {
        start: Instant::now(),
        span,
    }
}

impl Timer {
    /// Ends the span and returns the seconds it covered.
    pub fn stop(self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some(idx) = self.span {
            let end = now_ns();
            spans()[idx].end_ns = end;
            OPEN.with(|o| o.borrow_mut().retain(|&i| i != idx));
        }
    }
}

/// Runs `f` inside a span and returns its result with the seconds it took.
pub fn timed<T>(name: &'static str, rep: u32, f: impl FnOnce() -> T) -> (T, f64) {
    let t = start(name, rep);
    let out = f();
    (out, t.stop())
}

/// What the recorded spans add up to.
pub struct Summary {
    /// Spans kept.
    pub spans: usize,
    /// Seconds inside `bench.timed` roots, `bench.untimed` taken out.
    pub timed_wall_s: f64,
    /// Share of that which is the roots' own time, not a named layer's.
    pub unattributed_share: f64,
    /// Self seconds (span minus children) summed per span name, for spans
    /// under a `bench.timed` root.
    pub self_s: BTreeMap<&'static str, f64>,
}

impl Summary {
    /// Self seconds of one span name.
    pub fn self_of(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }
}

/// Self time = a span's duration minus the part its children cover.
pub fn summarize() -> Summary {
    let all = spans();
    let dur = |s: &Span| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e9;
    let mut child_s = vec![0.0f64; all.len()];
    for s in all.iter() {
        if let Some(p) = s.parent {
            child_s[p] += dur(s);
        }
    }
    // A span counts when a `bench.timed` root is among its ancestors and
    // no `bench.untimed` is.
    let in_timed = |mut i: usize| loop {
        match all[i].name {
            "bench.untimed" => return false,
            "bench.timed" => return true,
            _ => match all[i].parent {
                Some(p) => i = p,
                None => return false,
            },
        }
    };
    let mut self_s: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut timed_wall_s = 0.0;
    for (i, s) in all.iter().enumerate() {
        if !in_timed(i) {
            if s.name == "bench.untimed" && s.parent.is_some_and(&in_timed) {
                timed_wall_s -= dur(s);
            }
            continue;
        }
        if s.name == "bench.timed" {
            timed_wall_s += dur(s);
        }
        *self_s.entry(s.name).or_insert(0.0) += dur(s) - child_s[i];
    }
    let own = self_s.get("bench.timed").copied().unwrap_or(0.0);
    Summary {
        spans: all.len(),
        timed_wall_s,
        unattributed_share: if timed_wall_s > 0.0 {
            own / timed_wall_s
        } else {
            0.0
        },
        self_s,
    }
}

/// Writes every span as `{name, start_ns, end_ns, parent, rep}`.
pub fn write(path: &std::path::Path) -> std::io::Result<()> {
    // One span per line keeps the file greppable.
    let rows: Vec<String> = spans()
        .iter()
        .map(|s| {
            obj(vec![
                ("name", s.name.into()),
                ("start_ns", s.start_ns.into()),
                ("end_ns", s.end_ns.into()),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("rep", u64::from(s.rep).into()),
            ])
            .render()
        })
        .collect();
    std::fs::write(path, format!("[\n{}\n]\n", rows.join(",\n")))
}
