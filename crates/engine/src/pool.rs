//! A fixed-size worker pool over crossbeam channels.
//!
//! Deliberately simple: an unbounded MPMC job channel consumed by `n`
//! workers. Stages submit one job per partition and gather results over a
//! private result channel, so a stage's wall time is the longest partition
//! (the same straggler behaviour a Spark stage exhibits).
//!
//! Workers are panic-proof: a job that panics is caught on the worker, the
//! worker keeps serving the queue, and [`ThreadPool::run_stage`] reports
//! the failure to the submitting stage as an [`EngineError`].

use crate::error::{EngineError, EngineErrorKind};
use crossbeam::channel::{unbounded, Sender};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Renders a `catch_unwind` payload as text for error reporting.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The fixed-size thread pool.
pub struct ThreadPool {
    sender: Option<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// Spawns `threads` workers (at least one). Threads that cannot be
    /// spawned are skipped; the pool guarantees at least one worker or
    /// aborts construction (OS thread exhaustion at two threads is not a
    /// recoverable state for a compute engine).
    pub fn new(threads: usize) -> ThreadPool {
        let threads = threads.max(1);
        let (sender, receiver) = unbounded::<Job>();
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let rx = receiver.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("pol-worker-{i}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        // A panicking job must not take the worker down;
                        // run_stage surfaces the failure to the caller.
                        let _ = catch_unwind(AssertUnwindSafe(job));
                    }
                });
            match spawned {
                Ok(h) => handles.push(h),
                Err(e) if handles.is_empty() && i + 1 == threads => {
                    // lint: allow(no_unwrap) — a pool with zero workers
                    // would deadlock every stage; failing construction
                    // loudly is the only sane behaviour here.
                    panic!("cannot spawn any worker thread: {e}");
                }
                Err(_) => {} // degraded pool: fewer workers than asked
            }
        }
        let threads = handles.len();
        ThreadPool {
            sender: Some(sender),
            handles,
            threads,
        }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Submits a fire-and-forget job. Fails only when the pool has shut
    /// down (the send side is closed during drop).
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) -> Result<(), EngineErrorKind> {
        let sender = self.sender.as_ref().ok_or(EngineErrorKind::PoolShutdown)?;
        sender
            .send(Box::new(job))
            .map_err(|_| EngineErrorKind::PoolShutdown)
    }

    /// Runs one closure per item of `inputs` on the pool and returns the
    /// results in input order. This is the engine's stage primitive.
    ///
    /// A panicking closure does not poison the pool: the first panic is
    /// reported as [`EngineErrorKind::JobPanicked`] (with `stage` for
    /// context) after all jobs of the stage have settled.
    pub fn run_stage<I, R, F>(
        &self,
        stage: &str,
        inputs: Vec<I>,
        f: F,
    ) -> Result<Vec<R>, EngineError>
    where
        I: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, I) -> R + Send + Sync + 'static,
    {
        let n = inputs.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let f = Arc::new(f);
        let (tx, rx) = unbounded::<(usize, Result<R, String>)>();
        for (idx, input) in inputs.into_iter().enumerate() {
            let f = f.clone();
            let tx = tx.clone();
            self.execute(move || {
                let out = catch_unwind(AssertUnwindSafe(|| f(idx, input)))
                    .map_err(|p| panic_message(p.as_ref()));
                // Receiver outlives all jobs within this call; a send error
                // can only happen if the caller's thread panicked.
                let _ = tx.send((idx, out));
            })
            .map_err(|kind| EngineError::new(stage, kind))?;
        }
        drop(tx);
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut first_panic: Option<String> = None;
        for _ in 0..n {
            match rx.recv() {
                Ok((idx, Ok(r))) => slots[idx] = Some(r),
                Ok((_, Err(msg))) => {
                    first_panic.get_or_insert(msg);
                }
                Err(_) => {
                    return Err(EngineError::new(stage, EngineErrorKind::ResultsLost));
                }
            }
        }
        if let Some(msg) = first_panic {
            return Err(EngineError::new(stage, EngineErrorKind::JobPanicked(msg)));
        }
        let mut out = Vec::with_capacity(n);
        for slot in slots {
            match slot {
                Some(r) => out.push(r),
                None => return Err(EngineError::new(stage, EngineErrorKind::ResultsLost)),
            }
        }
        Ok(out)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        drop(self.sender.take()); // closes the channel; workers drain & exit
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn executes_all_jobs() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = unbounded();
        for _ in 0..100 {
            let c = counter.clone();
            let tx = tx.clone();
            pool.execute(move || {
                c.fetch_add(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            })
            .unwrap();
        }
        for _ in 0..100 {
            rx.recv().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn run_stage_preserves_order() {
        let pool = ThreadPool::new(8);
        let inputs: Vec<u64> = (0..64).collect();
        let out = pool
            .run_stage("order", inputs, |idx, x| {
                // Vary the work so completion order differs from input order.
                std::thread::sleep(std::time::Duration::from_micros((64 - idx as u64) * 10));
                x * 2
            })
            .unwrap();
        assert_eq!(out, (0..64).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn run_stage_empty() {
        let pool = ThreadPool::new(2);
        let out: Vec<u32> = pool
            .run_stage("empty", Vec::<u32>::new(), |_, x| x)
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn more_jobs_than_threads() {
        let pool = ThreadPool::new(1);
        let out = pool
            .run_stage("wide", (0..100u32).collect::<Vec<_>>(), |_, x| x + 1)
            .unwrap();
        assert_eq!(out.len(), 100);
        assert_eq!(out[99], 100);
    }

    #[test]
    fn drop_joins_cleanly() {
        let pool = ThreadPool::new(3);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let d = done.clone();
            pool.execute(move || {
                d.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        drop(pool); // must drain queued jobs before joining
        assert_eq!(done.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn pool_survives_panicking_job() {
        let pool = ThreadPool::new(1); // single worker: it MUST survive
        let err = pool
            .run_stage("explode", vec![1u32, 2, 3], |_, x| {
                if x == 2 {
                    panic!("boom on {x}");
                }
                x
            })
            .unwrap_err();
        assert_eq!(err.stage, "explode");
        match &err.kind {
            EngineErrorKind::JobPanicked(msg) => assert!(msg.contains("boom"), "{msg}"),
            other => panic!("expected JobPanicked, got {other:?}"),
        }
        // The same pool keeps working after the panic.
        let out = pool
            .run_stage("after", (0..50u32).collect::<Vec<_>>(), |_, x| x * 3)
            .unwrap();
        assert_eq!(out.len(), 50);
        assert_eq!(out[49], 147);
    }

    #[test]
    fn execute_panic_does_not_kill_worker() {
        let pool = ThreadPool::new(1);
        pool.execute(|| panic!("fire-and-forget boom")).unwrap();
        // The lone worker must still process subsequent jobs.
        let (tx, rx) = unbounded();
        pool.execute(move || {
            tx.send(42u8).unwrap();
        })
        .unwrap();
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(10)).ok(),
            Some(42)
        );
    }

    #[test]
    fn panic_message_renders_payloads() {
        let s: Box<dyn Any + Send> = Box::new("static str");
        assert_eq!(panic_message(s.as_ref()), "static str");
        let s: Box<dyn Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(s.as_ref()), "owned");
        let s: Box<dyn Any + Send> = Box::new(77u32);
        assert_eq!(panic_message(s.as_ref()), "non-string panic payload");
    }
}
