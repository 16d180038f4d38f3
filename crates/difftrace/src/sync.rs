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

/// A bound on concurrent jobs for a resident server (`difftrace
/// serve`): at most `threads` jobs run at once however many callers
/// there are. [`Pool::run`] runs its job on the *calling* thread once
/// a slot is free, so per-request code reads sequentially, concurrency
/// comes from many callers, and a job costs no hand-off to another
/// thread and back. A panicking job unwinds into its caller and frees
/// its slot.
pub struct Pool {
    slots: usize,
    busy: std::sync::Mutex<usize>,
    freed: std::sync::Condvar,
}

impl Pool {
    /// A pool of `threads` slots (`0` = all available parallelism).
    pub fn new(threads: usize) -> Pool {
        Pool {
            slots: effective_threads(threads, usize::MAX),
            busy: std::sync::Mutex::new(0),
            freed: std::sync::Condvar::new(),
        }
    }

    /// Number of jobs that may run at once.
    pub fn threads(&self) -> usize {
        self.slots
    }

    /// Wait for a free slot, then run `f` on this thread and return its
    /// result.
    pub fn run<T>(&self, f: impl FnOnce() -> T) -> T {
        let mut busy = self.busy.lock().unwrap_or_else(|p| p.into_inner());
        while *busy == self.slots {
            busy = self.freed.wait(busy).unwrap_or_else(|p| p.into_inner());
        }
        *busy += 1;
        drop(busy);
        /// Frees the slot when the job returns or unwinds.
        struct Slot<'p>(&'p Pool);
        impl Drop for Slot<'_> {
            fn drop(&mut self) {
                *self.0.busy.lock().unwrap_or_else(|p| p.into_inner()) -= 1;
                self.0.freed.notify_one();
            }
        }
        let _slot = Slot(self);
        f()
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
        // The panic freed the only slot.
        assert_eq!(pool.run(|| "still here"), "still here");
    }

    #[test]
    fn pool_never_runs_more_jobs_than_its_slots() {
        let pool = Pool::new(2);
        let (running, most) = (AtomicUsize::new(0), AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    pool.run(|| {
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        most.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        running.fetch_sub(1, Ordering::SeqCst);
                    });
                });
            }
        });
        assert_eq!(most.load(Ordering::SeqCst), 2);
    }
}
