//! A fixed-size worker pool over one shared job queue.
//!
//! Deliberately simple: a FIFO of jobs behind a `Mutex`, with a
//! `Condvar` to wake idle workers, consumed by `n` workers. Stages submit
//! one job per partition and gather results over a private result
//! channel, so a stage's wall time is the longest partition (the same
//! straggler behaviour a Spark stage exhibits).
//!
//! Workers are panic-proof: a job that panics is caught on the worker, the
//! worker keeps serving the queue, and [`ThreadPool::run_stage`] reports
//! the failure to the submitting stage as an [`EngineError`]. A job runs
//! outside the queue lock, and every acquisition takes the guard back
//! from a poisoned lock, so no panic anywhere stops the queue.

use crate::error::{EngineError, EngineErrorKind};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
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

/// The job queue the workers share. `closed` is set once, by
/// [`ThreadPool`]'s `Drop`: workers drain what is queued, then exit.
struct Chan {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// The queue and the condition variable a worker waits on while it is
/// empty and open.
type Queue = (Mutex<Chan>, Condvar);

/// A worker's life: pop a job (or wait for one), run it outside the
/// lock, repeat until the queue is closed and empty.
fn work(queue: &Queue) {
    let (lock, ready) = queue;
    loop {
        let mut chan = lock.lock().unwrap_or_else(PoisonError::into_inner);
        let job = loop {
            if let Some(job) = chan.jobs.pop_front() {
                break job;
            }
            if chan.closed {
                return;
            }
            chan = ready.wait(chan).unwrap_or_else(PoisonError::into_inner);
        };
        drop(chan);
        // A panicking job must not take the worker down; run_stage
        // surfaces the failure to the caller.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

/// The fixed-size thread pool.
pub struct ThreadPool {
    queue: Arc<Queue>,
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
        let queue: Arc<Queue> = Arc::new((
            Mutex::new(Chan {
                jobs: VecDeque::new(),
                closed: false,
            }),
            Condvar::new(),
        ));
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let queue = Arc::clone(&queue);
            let spawned = std::thread::Builder::new()
                .name(format!("pol-worker-{i}"))
                .spawn(move || work(&queue));
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
            queue,
            handles,
            threads,
        }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Submits a fire-and-forget job. The queue closes only when the
    /// pool is dropped, so a job submitted through `&self` always runs.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) {
        let (lock, ready) = &*self.queue;
        lock.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .jobs
            .push_back(Box::new(job));
        ready.notify_one();
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
        let (tx, rx) = mpsc::channel::<(usize, Result<R, String>)>();
        for (idx, input) in inputs.into_iter().enumerate() {
            let f = f.clone();
            let tx = tx.clone();
            self.execute(move || {
                let out = catch_unwind(AssertUnwindSafe(|| f(idx, input)))
                    .map_err(|p| panic_message(p.as_ref()));
                // Receiver outlives all jobs within this call; a send error
                // can only happen if the caller's thread panicked.
                let _ = tx.send((idx, out));
            });
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
        let (lock, ready) = &*self.queue;
        // Closing lets the workers drain what is queued, then exit.
        lock.lock().unwrap_or_else(PoisonError::into_inner).closed = true;
        ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn executes_all_jobs() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..100 {
            let c = counter.clone();
            let tx = tx.clone();
            pool.execute(move || {
                c.fetch_add(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            });
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
            });
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
        pool.execute(|| panic!("fire-and-forget boom"));
        // The lone worker must still process subsequent jobs.
        let (tx, rx) = mpsc::channel();
        pool.execute(move || {
            tx.send(42u8).unwrap();
        });
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(10)).ok(),
            Some(42)
        );
    }

    #[test]
    fn queue_survives_panicking_lock_holder() {
        let pool = ThreadPool::new(2);
        // A thread that panics while it holds the queue lock poisons it;
        // every acquisition takes the guard back, so nothing stops.
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _chan = pool.queue.0.lock().unwrap();
                panic!("poisoning the queue lock");
            });
            assert!(holder.join().is_err());
        });
        assert!(pool.queue.0.is_poisoned());
        let (tx, rx) = mpsc::channel();
        pool.execute(move || tx.send(7u8).unwrap());
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(10)).ok(),
            Some(7)
        );
        let out = pool
            .run_stage("after-poison", (0..20u32).collect::<Vec<_>>(), |_, x| x + 1)
            .unwrap();
        assert_eq!(out, (1..21).collect::<Vec<u32>>());
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
