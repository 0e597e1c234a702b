//! Model-checked concurrency properties of the serve primitives, run
//! under the vendored loom checker: `RUSTFLAGS="--cfg loom" cargo test
//! -p pol-serve --test loom_models` (the `analysis` stage of `ci.sh`
//! does exactly this). Without `--cfg loom` the file compiles to
//! nothing, so the models never slow the tier-1 suite.
//!
//! Each model re-states a primitive from `server.rs` / `pol_engine`'s
//! pool in loom's shim types, at the granularity where its race lives.
//! The checker then executes every interleaving (up to the preemption
//! bound) — a green run is a proof over that schedule space:
//!
//! 1. [`hot_reload_never_tears_a_query`] — the `RwLock<Arc<_>>` swap in
//!    `Server::reload` vs a query pinning the snapshot.
//! 2. [`admit_guard_never_leaks_a_slot`] — the accept-loop admission
//!    counter survives a worker kill that unwinds through
//!    `catch_unwind`, and a concurrent rejected connection.
//! 3. [`pool_shutdown_drains_every_submitted_job`] — the worker-pool
//!    drain: every job submitted before shutdown runs exactly once and
//!    every worker exits.
//! 4. [`shed_and_enqueue_are_mutually_exclusive`] — the reactor's
//!    per-request admission: under a racing dispatcher pair, a request
//!    is either shed with `Busy` or executed, never both, and the slot
//!    accounting balances.
//! 5. [`eventfd_wakeup_loses_no_completion`] — the worker → event-loop
//!    hand-off: completions pushed before a wake are observed by the
//!    loop's drain-then-apply order in every interleaving (the classic
//!    lost-wakeup shape: drain the eventfd *before* taking the queue).
#![cfg(loom)]

use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::{Arc, Condvar, Mutex, RwLock};
use loom::thread;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Stand-in for `InventoryService`: two fields whose relation a torn
/// read would break.
struct Snapshot {
    generation: u64,
    checksum: u64,
}

impl Snapshot {
    fn new(generation: u64) -> Snapshot {
        Snapshot {
            generation,
            checksum: generation ^ 0xa15_c0de,
        }
    }

    fn consistent(&self) -> bool {
        self.checksum == self.generation ^ 0xa15_c0de
    }
}

/// `Server::reload` swaps `Arc<RwLock<Arc<InventoryService>>>` while
/// queries pin the current snapshot with `Arc::clone(&service.read())`
/// and keep serving from the pin after the lock is gone. No
/// interleaving may observe a half-replaced snapshot, and the pinned
/// generation must be exactly the old or the new one.
#[test]
fn hot_reload_never_tears_a_query() {
    loom::model(|| {
        let service = Arc::new(RwLock::new(Arc::new(Snapshot::new(1))));

        let writer = {
            let service = Arc::clone(&service);
            thread::spawn(move || {
                let fresh = Arc::new(Snapshot::new(2));
                *service.write().expect("write lock") = fresh;
            })
        };
        let reader = {
            let service = Arc::clone(&service);
            thread::spawn(move || {
                // Pin the snapshot, then drop the lock before "serving",
                // exactly as handle_connection does.
                let pinned = Arc::clone(&service.read().expect("read lock"));
                assert!(pinned.consistent(), "torn snapshot");
                assert!(
                    pinned.generation == 1 || pinned.generation == 2,
                    "phantom generation {}",
                    pinned.generation
                );
            })
        };

        writer.join().expect("writer");
        reader.join().expect("reader");
        let now = service.read().expect("read lock");
        assert_eq!(now.generation, 2, "reload must win once both settle");
        assert!(now.consistent());
    });
}

/// The event loop's admission slot, released by `AdmitGuard::drop`.
struct AdmitGuard(Arc<AtomicUsize>);

impl Drop for AdmitGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Mirrors the reactor's `dispatch`: `admitted.fetch_add` then
/// reject-and-undo over capacity, otherwise an `AdmitGuard` rides into
/// the worker closure. One admitted request's worker is killed mid-job
/// (the `serve.worker.kill` fault), unwinding through the pool's
/// `catch_unwind`; another races for the remaining capacity. In every
/// interleaving each admission must be released exactly once — the
/// counter returns to zero whether a request was served, rejected, or
/// killed.
#[test]
fn admit_guard_never_leaks_a_slot() {
    loom::model(|| {
        let admitted = Arc::new(AtomicUsize::new(0));
        let admit_cap = 1;

        let admit = move |admitted: &Arc<AtomicUsize>| -> Option<AdmitGuard> {
            if admitted.fetch_add(1, Ordering::Relaxed) >= admit_cap {
                admitted.fetch_sub(1, Ordering::Relaxed);
                return None; // rejected busy
            }
            Some(AdmitGuard(Arc::clone(admitted)))
        };

        let killed = {
            let admitted = Arc::clone(&admitted);
            thread::spawn(move || {
                let Some(guard) = admit(&admitted) else {
                    return;
                };
                // The pool worker wraps every job in catch_unwind; the
                // injected kill panics with the guard owned by the job.
                let _ = catch_unwind(AssertUnwindSafe(move || {
                    let _admitted = guard;
                    panic!("serve.worker.kill");
                }));
            })
        };
        let served = {
            let admitted = Arc::clone(&admitted);
            thread::spawn(move || {
                let Some(guard) = admit(&admitted) else {
                    return;
                };
                let _ = catch_unwind(AssertUnwindSafe(move || {
                    let _admitted = guard; // serves and returns normally
                }));
            })
        };

        killed.join().expect("killed connection thread");
        served.join().expect("served connection thread");
        assert_eq!(
            admitted.load(Ordering::Relaxed),
            0,
            "admission slot leaked or double-released"
        );
    });
}

/// The job queue of the modeled worker pool: closing it is what
/// `ThreadPool::drop` does by dropping the crossbeam sender.
struct Chan {
    jobs: VecDeque<usize>,
    closed: bool,
}

/// Mirrors `pol_engine::ThreadPool` shutdown: jobs are submitted, the
/// channel closes, and dropping the pool joins the workers. Crossbeam's
/// disconnect semantics let receivers drain buffered messages, so every
/// job submitted before the close must run exactly once and both
/// workers must exit — in every interleaving of submit, close, pop, and
/// wakeup.
#[test]
fn pool_shutdown_drains_every_submitted_job() {
    loom::model(|| {
        let chan = Arc::new((
            Mutex::new(Chan {
                jobs: VecDeque::new(),
                closed: false,
            }),
            Condvar::new(),
        ));
        let ran = Arc::new(AtomicUsize::new(0));

        let workers: Vec<_> = (0..2)
            .map(|_| {
                let chan = Arc::clone(&chan);
                let ran = Arc::clone(&ran);
                thread::spawn(move || {
                    let (lock, cv) = &*chan;
                    loop {
                        let mut st = lock.lock().expect("chan lock");
                        let job = loop {
                            if let Some(j) = st.jobs.pop_front() {
                                break Some(j);
                            }
                            if st.closed {
                                break None;
                            }
                            st = cv.wait(st).expect("chan wait");
                        };
                        drop(st); // run the job outside the channel lock
                        match job {
                            Some(_) => {
                                ran.fetch_add(1, Ordering::Relaxed);
                            }
                            None => return,
                        }
                    }
                })
            })
            .collect();

        // Submit two jobs, then close — ThreadPool::drop in two steps.
        {
            let (lock, cv) = &*chan;
            let mut st = lock.lock().expect("chan lock");
            st.jobs.push_back(1);
            st.jobs.push_back(2);
            cv.notify_all();
        }
        {
            let (lock, cv) = &*chan;
            let mut st = lock.lock().expect("chan lock");
            st.closed = true;
            cv.notify_all();
        }
        for w in workers {
            w.join().expect("worker exits");
        }
        assert_eq!(
            ran.load(Ordering::Relaxed),
            2,
            "a job submitted before shutdown was dropped or ran twice"
        );
    });
}

/// Mirrors `reactor::EventLoop::dispatch` racing itself: two requests
/// contend for one admission slot. Each dispatcher either takes the
/// slot and "executes" (incrementing `executed` under an `AdmitGuard`,
/// one kill-unwinding like the chaos fault) or sheds (incrementing
/// `shed`). The reactor's invariant: every request lands in exactly one
/// of the two outcomes, and the slot count returns to zero — no request
/// both shed *and* executed, none lost.
#[test]
fn shed_and_enqueue_are_mutually_exclusive() {
    loom::model(|| {
        let admitted = Arc::new(AtomicUsize::new(0));
        let executed = Arc::new(AtomicUsize::new(0));
        let shed = Arc::new(AtomicUsize::new(0));
        let admit_cap = 1;

        let handles: Vec<_> = (0..2)
            .map(|kill| {
                let admitted = Arc::clone(&admitted);
                let executed = Arc::clone(&executed);
                let shed = Arc::clone(&shed);
                thread::spawn(move || {
                    // dispatch(): admission check at the loop…
                    if admitted.fetch_add(1, Ordering::Relaxed) >= admit_cap {
                        admitted.fetch_sub(1, Ordering::Relaxed);
                        shed.fetch_add(1, Ordering::Relaxed); // Busy frame
                        return;
                    }
                    let guard = AdmitGuard(Arc::clone(&admitted));
                    // …then the worker job, kill-contained by the pool.
                    let _ = catch_unwind(AssertUnwindSafe(move || {
                        let _admitted = guard;
                        executed.fetch_add(1, Ordering::Relaxed);
                        if kill == 1 {
                            panic!("serve.worker.kill");
                        }
                    }));
                })
            })
            .collect();
        for h in handles {
            h.join().expect("dispatcher");
        }

        let executed = executed.load(Ordering::Relaxed);
        let shed = shed.load(Ordering::Relaxed);
        assert_eq!(
            executed + shed,
            2,
            "a request vanished or was double-counted ({executed} executed, {shed} shed)"
        );
        assert!(executed >= 1, "capacity 1 must execute at least one");
        assert_eq!(
            admitted.load(Ordering::Relaxed),
            0,
            "admission slot leaked through shed or kill"
        );
    });
}

/// The worker → event-loop completion hand-off, at the granularity of
/// its lost-wakeup hazard. Workers push onto the completion queue and
/// then raise the wake flag (eventfd write). The loop, when it observes
/// the flag, *first* clears it (eventfd drain) and *then* takes the
/// queue — the order `reactor::EventLoop::run` uses. If the loop
/// cleared after taking instead, a push landing between the two would
/// be stranded with its wakeup already consumed, and the final drain
/// below (which only fires while the flag is raised) would never see
/// it. One loop tick races the workers; after everything joins, flag-
/// gated drains must account for both completions. The tick is bounded
/// (no spin loop) so loom's schedule space stays tractable.
#[test]
fn eventfd_wakeup_loses_no_completion() {
    loom::model(|| {
        let completions = Arc::new(Mutex::new(Vec::new()));
        let wake = Arc::new(AtomicUsize::new(0)); // eventfd counter

        // One epoll_wait tick: woken only if the eventfd is readable,
        // then drain-before-take, exactly as EventLoop::run orders it.
        let tick = |completions: &Mutex<Vec<usize>>, wake: &AtomicUsize| -> Vec<usize> {
            if wake.load(Ordering::Acquire) > 0 {
                wake.swap(0, Ordering::AcqRel); // eventfd drain
                std::mem::take(&mut *completions.lock().expect("completions lock"))
            } else {
                Vec::new()
            }
        };

        let workers: Vec<_> = (0..2)
            .map(|id| {
                let completions = Arc::clone(&completions);
                let wake = Arc::clone(&wake);
                thread::spawn(move || {
                    // CompletionGuard::drop → LoopShared::complete:
                    // push under the leaf lock, then ring the eventfd.
                    completions.lock().expect("completions lock").push(id);
                    wake.fetch_add(1, Ordering::Release);
                })
            })
            .collect();

        // One loop tick races the workers at every possible point…
        let racing = {
            let completions = Arc::clone(&completions);
            let wake = Arc::clone(&wake);
            thread::spawn(move || tick(&completions, &wake))
        };

        for w in workers {
            w.join().expect("worker");
        }
        let mut applied = racing.join().expect("event loop tick");
        // …then the settled loop keeps ticking while the eventfd stays
        // readable. A completion stranded with its wakeup consumed (the
        // take-before-drain bug) is invisible to these ticks and fails
        // the assertion.
        while wake.load(Ordering::Acquire) > 0 {
            applied.extend(tick(&completions, &wake));
        }
        applied.sort_unstable();
        assert_eq!(applied, vec![0, 1], "a completion was lost or duplicated");
    });
}
