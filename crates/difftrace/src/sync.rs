//! Concurrency primitives shared by the parallel pipeline stages.
//!
//! Everything here is built on `std` only: scoped threads
//! (`std::thread::scope`), an atomic work-stealing index, and one
//! `OnceLock` per output cell. The combination gives a small,
//! auditable `par_map` without pulling in an external thread pool.
//!
//! Determinism note: [`par_map`] assigns output cell `i` to input `i`,
//! so the result order is always the input order regardless of how the
//! OS schedules workers. Callers get byte-identical output for any
//! thread count as long as `f` itself is a pure function of its inputs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Resolve a user-facing thread-count knob: `0` means "all available
/// parallelism", anything else is taken literally. The result is
/// additionally capped at `work_items` so we never spawn idle workers.
pub fn effective_threads(threads: usize, work_items: usize) -> usize {
    let n = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    n.min(work_items.max(1))
}

/// Apply `f` to every index/item pair and collect the results in input
/// order: [`par_map_obs`] with nothing observing.
pub fn par_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send + Sync,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_obs(items, threads, &dt_obs::NOOP, "", f)
}

/// Apply `f` to every index/item pair and collect the results in input
/// order, reporting each worker's total time inside `f` to `rec` under
/// `path` (the raw material of the `--profile` imbalance report).
///
/// * `threads == 1` runs inline on the caller's thread — no spawning,
///   no atomics on the hot path — so it is the *exact* sequential
///   execution, not a simulation of one.
/// * `threads == 0` uses the available parallelism.
/// * Work is distributed dynamically (atomic next-index counter), which
///   keeps long-tailed workloads balanced; output position is fixed by
///   input index, which keeps results deterministic.
/// * With a disabled recorder no clock is ever read. Timing wraps each
///   call; it never reorders or drops one, so the results are the same
///   either way.
pub fn par_map_obs<T, U, F>(
    items: &[T],
    threads: usize,
    rec: &dyn dt_obs::Recorder,
    path: &str,
    f: F,
) -> Vec<U>
where
    T: Sync,
    U: Send + Sync,
    F: Fn(usize, &T) -> U + Sync,
{
    let timed = rec.enabled();
    let threads = effective_threads(threads, items.len());
    if threads <= 1 || items.len() <= 1 {
        let t0 = timed.then(Instant::now);
        let out = items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        if let Some(t0) = t0 {
            rec.worker_ns(path, 0, t0.elapsed().as_nanos() as u64);
        }
        return out;
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<U>> = (0..items.len()).map(|_| OnceLock::new()).collect();
    std::thread::scope(|s| {
        for w in 0..threads {
            let (next, slots, f) = (&next, &slots, &f);
            s.spawn(move || {
                let mut busy = 0u64;
                loop {
                    // Each index is claimed by exactly one worker; the
                    // scope's join publishes every cell to the caller.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let t0 = timed.then(Instant::now);
                    let out = f(i, &items[i]);
                    if let Some(t0) = t0 {
                        busy += t0.elapsed().as_nanos() as u64;
                    }
                    assert!(slots[i].set(out).is_ok(), "index {i} claimed twice");
                }
                if timed {
                    rec.worker_ns(path, w, busy);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every index is claimed"))
        .collect()
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A small persistent worker pool: N threads draining one shared job
/// queue. Unlike [`par_map`]'s scoped per-call workers, the threads
/// outlive any single request — the scheduling substrate a resident
/// server (`difftrace serve`) puts its queries on, so concurrent
/// requests share a bounded set of analysis workers instead of
/// spawning unboundedly.
///
/// [`Pool::run`] blocks the *calling* thread until its job finishes,
/// so per-request code reads sequentially; concurrency comes from many
/// callers. A panicking job is caught on the worker (which survives to
/// serve the next job) and re-raised on the caller.
pub struct Pool {
    tx: Option<std::sync::mpsc::Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Spawn a pool with the given thread knob (`0` = all available
    /// parallelism).
    pub fn new(threads: usize) -> Pool {
        let threads = effective_threads(threads, usize::MAX);
        let (tx, rx) = std::sync::mpsc::channel::<Job>();
        let rx = std::sync::Arc::new(std::sync::Mutex::new(rx));
        let workers = (0..threads)
            .map(|_| {
                let rx = std::sync::Arc::clone(&rx);
                std::thread::spawn(move || loop {
                    // Hold the lock only while *receiving*, never while
                    // running a job, so workers drain in parallel.
                    let job = rx.lock().unwrap_or_else(|p| p.into_inner()).recv();
                    match job {
                        Ok(job) => job(),
                        Err(_) => break, // pool dropped
                    }
                })
            })
            .collect();
        Pool {
            tx: Some(tx),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Run `f` on a pool worker and return its result, blocking the
    /// caller until it is done. If `f` panics, the panic crosses back
    /// to the caller; the worker survives.
    pub fn run<T, F>(&self, f: F) -> T
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (tx, rx) = std::sync::mpsc::channel();
        let job: Job = Box::new(move || {
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            let _ = tx.send(out);
        });
        self.tx
            .as_ref()
            .expect("sender lives until drop")
            .send(job)
            .expect("pool workers alive");
        match rx.recv().expect("worker delivers exactly one result") {
            Ok(v) => v,
            Err(p) => std::panic::resume_unwind(p),
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        drop(self.tx.take()); // close the queue; workers see Err and exit
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        for threads in [1, 2, 7, 0] {
            let out = par_map(&items, threads, |i, &x| {
                assert_eq!(i as u64, x);
                x * x
            });
            assert_eq!(out.len(), items.len());
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, (i * i) as u64);
            }
        }
    }

    #[test]
    fn par_map_empty_and_singleton() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, 0, |_, &x| x).is_empty());
        assert_eq!(par_map(&[41u32], 8, |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn pool_runs_jobs_and_returns_results() {
        let pool = Pool::new(3);
        assert_eq!(pool.threads(), 3);
        assert_eq!(pool.run(|| 6 * 7), 42);
        // Concurrent callers all get their own answers.
        let pool = std::sync::Arc::new(pool);
        std::thread::scope(|s| {
            for i in 0..16u64 {
                let pool = std::sync::Arc::clone(&pool);
                s.spawn(move || assert_eq!(pool.run(move || i * i), i * i));
            }
        });
    }

    #[test]
    fn pool_survives_a_panicking_job() {
        let pool = Pool::new(1);
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|| panic!("job exploded"));
        }));
        assert!(boom.is_err());
        // The single worker is still alive and serving.
        assert_eq!(pool.run(|| "still here"), "still here");
    }

    #[test]
    fn pool_drop_joins_cleanly() {
        let pool = Pool::new(2);
        let counter = std::sync::Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let c = std::sync::Arc::clone(&counter);
            pool.run(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool);
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }
}
