//! # pol-chaos — deterministic fault injection for the inventory stack
//!
//! An operational system is defined by how it fails, and failures that
//! only occur in production cannot be tested unless they can be summoned
//! on demand. This crate provides *failpoints*: named hooks compiled into
//! fault-tolerant code paths (`core::codec` persistence, the `pol-serve`
//! connection loop) that deterministically inject the three failure
//! shapes the serving path must survive:
//!
//! * **typed errors** ([`FaultAction::Err`]) — the call site maps the
//!   injection onto its own error type (an `io::Error` in the codec, a
//!   connection abort in the server),
//! * **latency** ([`FaultAction::Delay`]) — the evaluating thread sleeps,
//! * **worker kills** ([`FaultAction::Kill`]) — the evaluating thread
//!   panics, exercising the `catch_unwind` containment of
//!   `pol_engine::ThreadPool` and every cleanup guard on the stack.
//!
//! Triggers are seeded and deterministic: a probability trigger draws
//! from its own xorshift stream, so a chaos run with a fixed seed
//! injects the same fault sequence every time (hit-count interleaving
//! across threads aside). One-shot and nth-hit triggers are exact.
//!
//! ## Zero cost when disabled
//!
//! Without the `failpoints` feature (the default), [`fire`] and [`eval`]
//! are `#[inline]` constant functions returning "no fault" and the
//! registry does not exist; the optimizer deletes the call and the
//! branch on its result entirely. Production builds therefore carry no
//! registry lookups, no locks, and no branches for any failpoint. The
//! workspace turns the feature on only through dev-dependencies, so test
//! and example builds have the registry and no other build does.
//!
//! ## Usage
//!
//! ```
//! use pol_chaos::{configure, fire, io_error, Trigger, FaultAction};
//!
//! // In the fault-tolerant code path:
//! fn save() -> Result<(), std::io::Error> {
//!     if fire("codec.save.write") {
//!         return Err(io_error("write"));
//!     }
//!     Ok(())
//! }
//!
//! // In the chaos test (only does anything with the feature on):
//! configure("codec.save.write", Trigger::OneShot(FaultAction::Err));
//! ```

#![deny(missing_docs)]

use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// What an armed failpoint does when its trigger fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultAction {
    /// Ask the call site to fail with its own typed error.
    Err,
    /// Sleep the evaluating thread for the given duration.
    Delay(Duration),
    /// Panic the evaluating thread (a worker kill; the server's pool
    /// contains the unwind and the connection dies, never the process).
    Kill,
}

/// When a failpoint fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Trigger {
    /// Never fires (armed but inert; hit counts still accumulate).
    Off,
    /// Fires on every hit.
    Always(FaultAction),
    /// Fires on the first hit, then disarms itself.
    OneShot(FaultAction),
    /// Fires exactly once, on the `n`-th hit (1-based), then disarms.
    NthHit {
        /// Which hit (1-based) fires.
        n: u64,
        /// The action taken on that hit.
        action: FaultAction,
    },
    /// Fires on every `n`-th hit (hits `n`, `2n`, `3n`, …).
    EveryNth {
        /// The firing period in hits (clamped to at least 1).
        n: u64,
        /// The action taken on firing hits.
        action: FaultAction,
    },
    /// Fires with probability `p` per hit, drawn from a deterministic
    /// xorshift stream seeded with `seed`.
    Prob {
        /// Per-hit firing probability in `[0, 1]`.
        p: f64,
        /// Seed of the failpoint's private random stream.
        seed: u64,
        /// The action taken on firing hits.
        action: FaultAction,
    },
}

/// A point-in-time view of one failpoint's counters, for post-chaos
/// assertions ("the kill actually happened N times").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FailpointStats {
    /// Times the failpoint was evaluated.
    pub hits: u64,
    /// Times it fired an action.
    pub fired: u64,
}

impl fmt::Display for FailpointStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} fired / {} hits", self.fired, self.hits)
    }
}

/// The `io::Error` a persistence call site returns when its failpoint
/// fires [`FaultAction::Err`]: `what` names the failed step.
pub fn io_error(what: &str) -> std::io::Error {
    std::io::Error::other(format!("chaos: injected {what} failure"))
}

#[cfg(feature = "failpoints")]
mod registry {
    use super::{FailpointStats, FaultAction, Trigger};
    use std::collections::HashMap;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock};

    struct Slot {
        trigger: Trigger,
        rng: u64,
        stats: FailpointStats,
    }

    fn slots() -> MutexGuard<'static, HashMap<String, Slot>> {
        static REGISTRY: OnceLock<Mutex<HashMap<String, Slot>>> = OnceLock::new();
        let m = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
        // A poisoned registry only means some thread panicked while
        // holding the lock (the map itself is always consistent between
        // operations); chaos runs *cause* panics, so keep serving.
        m.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// xorshift64*: tiny, seedable, good enough for fault scheduling.
    fn next_u64(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub(super) fn configure(name: &str, trigger: Trigger) {
        let seed = match trigger {
            Trigger::Prob { seed, .. } => seed | 1, // xorshift needs non-zero
            _ => 1,
        };
        slots().insert(
            name.to_string(),
            Slot {
                trigger,
                rng: seed,
                stats: FailpointStats::default(),
            },
        );
    }

    pub(super) fn remove(name: &str) {
        slots().remove(name);
    }

    pub(super) fn reset() {
        slots().clear();
        ops().clear();
    }

    pub(super) fn ops() -> MutexGuard<'static, Vec<(&'static str, PathBuf)>> {
        static OPS: Mutex<Vec<(&'static str, PathBuf)>> = Mutex::new(Vec::new());
        OPS.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Set while an `Exclusive` guard is held. Only then is an operation
    /// logged, so a process that takes no guard keeps no log however
    /// many files it writes.
    static RECORDING: AtomicBool = AtomicBool::new(false);

    pub(super) fn set_recording(on: bool) {
        RECORDING.store(on, Ordering::Release);
    }

    pub(super) fn record(kind: &'static str, path: &Path) {
        if RECORDING.load(Ordering::Acquire) {
            ops().push((kind, path.to_path_buf()));
        }
    }

    pub(super) fn stats(name: &str) -> FailpointStats {
        slots().get(name).map(|s| s.stats).unwrap_or_default()
    }

    pub(super) fn eval(name: &str) -> Option<FaultAction> {
        let mut map = slots();
        let slot = map.get_mut(name)?;
        slot.stats.hits += 1;
        let fired = match slot.trigger {
            Trigger::Off => None,
            Trigger::Always(action) => Some(action),
            Trigger::OneShot(action) => {
                slot.trigger = Trigger::Off;
                Some(action)
            }
            Trigger::NthHit { n, action } => {
                if slot.stats.hits == n.max(1) {
                    slot.trigger = Trigger::Off;
                    Some(action)
                } else {
                    None
                }
            }
            Trigger::EveryNth { n, action } => (slot.stats.hits % n.max(1) == 0).then_some(action),
            Trigger::Prob { p, action, .. } => {
                let draw = (next_u64(&mut slot.rng) >> 11) as f64 / (1u64 << 53) as f64;
                (draw < p).then_some(action)
            }
        };
        if fired.is_some() {
            slot.stats.fired += 1;
        }
        fired
    }
}

/// Arms (or re-arms) a failpoint. Resets its counters and random stream.
/// No-op without the `failpoints` feature.
#[inline]
pub fn configure(name: &str, trigger: Trigger) {
    #[cfg(feature = "failpoints")]
    registry::configure(name, trigger);
    #[cfg(not(feature = "failpoints"))]
    let _ = (name, trigger);
}

/// Disarms a failpoint and forgets its counters. No-op without the
/// `failpoints` feature.
#[inline]
pub fn remove(name: &str) {
    #[cfg(feature = "failpoints")]
    registry::remove(name);
    #[cfg(not(feature = "failpoints"))]
    let _ = name;
}

/// Disarms every failpoint and forgets the recorded operations. No-op
/// without the `failpoints` feature.
#[inline]
pub fn reset() {
    #[cfg(feature = "failpoints")]
    registry::reset();
}

/// Sole ownership of the failpoint registry, held by one chaos test at a
/// time; see [`exclusive`].
#[must_use = "the registry is only yours while the guard lives"]
pub struct Exclusive {
    _held: std::sync::MutexGuard<'static, ()>,
}

impl Drop for Exclusive {
    fn drop(&mut self) {
        #[cfg(feature = "failpoints")]
        registry::set_recording(false);
        reset();
    }
}

/// Takes the process-wide chaos lock and hands back a clean registry:
/// every failpoint is disarmed on acquire and again when the guard
/// drops. The registry is global and failpoints fire on pool and reactor
/// threads a test does not own, so tests that share a binary must not
/// arm it concurrently — each takes this guard first. A test that
/// panicked while holding it (chaos tests assert under fire) does not
/// poison the next one. Operations are [`record`]ed only while a guard
/// is held.
pub fn exclusive() -> Exclusive {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _held = GATE.lock().unwrap_or_else(|p| p.into_inner());
    reset();
    #[cfg(feature = "failpoints")]
    registry::set_recording(true);
    Exclusive { _held }
}

/// Counters of a failpoint (zeroes when unarmed or compiled out).
#[inline]
pub fn stats(name: &str) -> FailpointStats {
    #[cfg(feature = "failpoints")]
    return registry::stats(name);
    #[cfg(not(feature = "failpoints"))]
    {
        let _ = name;
        FailpointStats::default()
    }
}

/// Evaluates a failpoint, counting a hit, and returns the action to take
/// if it fired. The caller performs the action itself — use [`fire`] for
/// the common "sleep/kill here, error at my boundary" handling.
///
/// Always `None` without the `failpoints` feature (and the optimizer
/// removes the call entirely).
#[inline]
pub fn eval(name: &str) -> Option<FaultAction> {
    #[cfg(feature = "failpoints")]
    return registry::eval(name);
    #[cfg(not(feature = "failpoints"))]
    {
        let _ = name;
        None
    }
}

/// Evaluates a failpoint and performs delay/kill actions in place:
/// [`FaultAction::Delay`] sleeps the current thread, [`FaultAction::Kill`]
/// panics it. Returns `true` exactly when the call site must inject its
/// own typed error ([`FaultAction::Err`]).
///
/// Always `false` without the `failpoints` feature.
#[inline]
pub fn fire(name: &str) -> bool {
    match eval(name) {
        None => false,
        Some(FaultAction::Err) => true,
        Some(FaultAction::Delay(d)) => {
            std::thread::sleep(d);
            false
        }
        Some(FaultAction::Kill) => {
            // lint: allow(no_unwrap) — the entire point of a Kill fault
            // is a deliberate panic; it only exists behind the
            // `failpoints` feature and is contained by catch_unwind in
            // the worker pool.
            panic!("chaos: failpoint `{name}` killed this worker");
        }
    }
}

/// Logs one durable file operation — its kind (`"create"`, `"write"`,
/// `"fsync"`, `"rename"`, `"fsync-dir"`, `"truncate"`, `"unlink"`) and
/// the path it acted on — for [`take_ops`]. `pol_core::codec::durable`
/// calls it after each operation succeeds. Logged only while an
/// [`Exclusive`] guard is held, so the log is bounded by what one test
/// does. No-op without the `failpoints` feature.
#[inline]
pub fn record(kind: &'static str, path: &Path) {
    #[cfg(feature = "failpoints")]
    registry::record(kind, path);
    #[cfg(not(feature = "failpoints"))]
    let _ = (kind, path);
}

/// The operations recorded since the last call (or [`reset`]), in the
/// order they were made, across threads. Empty without the
/// `failpoints` feature.
pub fn take_ops() -> Vec<(&'static str, PathBuf)> {
    #[cfg(feature = "failpoints")]
    return std::mem::take(&mut *registry::ops());
    #[cfg(not(feature = "failpoints"))]
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests share one process-global registry, so each takes
    /// [`exclusive`] first; the per-test names keep failures readable.
    fn name(test: &str, point: &str) -> String {
        format!("test.{test}.{point}")
    }

    #[test]
    fn unarmed_failpoints_do_nothing() {
        let _chaos = exclusive();
        assert_eq!(eval("test.unarmed.nope"), None);
        assert!(!fire("test.unarmed.nope"));
        assert_eq!(stats("test.unarmed.nope"), FailpointStats::default());
    }

    #[test]
    fn one_shot_fires_exactly_once() {
        let _chaos = exclusive();
        let n = name("oneshot", "p");
        configure(&n, Trigger::OneShot(FaultAction::Err));
        assert!(fire(&n));
        assert!(!fire(&n));
        assert!(!fire(&n));
        let s = stats(&n);
        assert_eq!((s.hits, s.fired), (3, 1));
    }

    #[test]
    fn nth_hit_fires_on_the_nth_only() {
        let _chaos = exclusive();
        let n = name("nth", "p");
        configure(
            &n,
            Trigger::NthHit {
                n: 3,
                action: FaultAction::Err,
            },
        );
        assert!(!fire(&n));
        assert!(!fire(&n));
        assert!(fire(&n));
        assert!(!fire(&n));
        assert_eq!(stats(&n).fired, 1);
    }

    #[test]
    fn every_nth_fires_periodically() {
        let _chaos = exclusive();
        let n = name("everynth", "p");
        configure(
            &n,
            Trigger::EveryNth {
                n: 2,
                action: FaultAction::Err,
            },
        );
        let fired: Vec<bool> = (0..6).map(|_| fire(&n)).collect();
        assert_eq!(fired, [false, true, false, true, false, true]);
    }

    #[test]
    fn prob_stream_is_deterministic_and_calibrated() {
        let _chaos = exclusive();
        let (a, b) = (name("prob", "a"), name("prob", "b"));
        let trig = Trigger::Prob {
            p: 0.25,
            seed: 99,
            action: FaultAction::Err,
        };
        configure(&a, trig);
        configure(&b, trig);
        let run_a: Vec<bool> = (0..2000).map(|_| fire(&a)).collect();
        let run_b: Vec<bool> = (0..2000).map(|_| fire(&b)).collect();
        assert_eq!(run_a, run_b, "same seed, same fault sequence");
        let hits = run_a.iter().filter(|f| **f).count();
        assert!((350..650).contains(&hits), "p=0.25 fired {hits}/2000");
    }

    #[test]
    fn delay_sleeps_and_reports_no_error() {
        let _chaos = exclusive();
        let n = name("delay", "p");
        configure(
            &n,
            Trigger::Always(FaultAction::Delay(Duration::from_millis(20))),
        );
        let started = std::time::Instant::now();
        assert!(!fire(&n));
        assert!(started.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn kill_panics_with_the_failpoint_name() {
        let _chaos = exclusive();
        let n = name("kill", "p");
        configure(&n, Trigger::OneShot(FaultAction::Kill));
        let err = std::panic::catch_unwind(|| fire(&n)).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains(&n), "{msg}");
        assert!(!fire(&n), "kill was one-shot");
    }

    #[test]
    fn remove_and_reconfigure() {
        let _chaos = exclusive();
        let n = name("remove", "p");
        configure(&n, Trigger::Always(FaultAction::Err));
        assert!(fire(&n));
        remove(&n);
        assert!(!fire(&n));
        assert_eq!(stats(&n), FailpointStats::default());
        configure(&n, Trigger::Always(FaultAction::Err));
        assert!(fire(&n));
    }

    #[test]
    fn exclusive_guard_serialises_and_resets() {
        let n = name("exclusive", "p");
        let guard = exclusive();
        configure(&n, Trigger::Always(FaultAction::Err));
        // A second taker waits for the first guard, then finds the
        // registry clean.
        let waiter = std::thread::spawn({
            let n = n.clone();
            move || {
                let _chaos = exclusive();
                fire(&n)
            }
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(!waiter.is_finished(), "second guard did not wait");
        assert!(fire(&n), "armed failpoint lost while the guard was held");
        drop(guard);
        assert!(!waiter.join().unwrap(), "drop did not disarm the registry");
        // A holder that panics does not poison the lock.
        let _ = std::thread::spawn(|| {
            let _chaos = exclusive();
            panic!("test body failed under chaos");
        })
        .join();
        let _chaos = exclusive();
    }

    #[test]
    fn recorded_operations_come_back_in_order_once() {
        let _chaos = exclusive();
        record("create", Path::new("a"));
        record("fsync", Path::new("a"));
        assert_eq!(
            take_ops(),
            [
                ("create", PathBuf::from("a")),
                ("fsync", PathBuf::from("a"))
            ]
        );
        assert!(take_ops().is_empty());
        record("unlink", Path::new("b"));
        reset();
        assert!(take_ops().is_empty(), "reset forgets the log");
    }
}
