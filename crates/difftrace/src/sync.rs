//! Concurrency primitives shared by the parallel pipeline stages.
//!
//! Everything here is built on `std` only: scoped threads
//! (`std::thread::scope`) and a reorder window under one mutex and
//! one condition variable. The combination gives one small, auditable
//! driver, [`par_stream`], without pulling in an external thread pool;
//! [`par_map`] and [`par_map_obs`] are `par_stream` with a collecting
//! sink, so there is one worker loop.
//!
//! Determinism note: [`par_stream`] hands result `i` to its sink in
//! input order whatever order the workers finish in, so callers get
//! byte-identical output for any thread count as long as `f` itself is
//! a pure function of its inputs.

use std::sync::{Condvar, Mutex, PoisonError};
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
/// `path` (the raw material of the `--profile` imbalance report):
/// [`par_stream`] with a window as long as the input, so no worker ever
/// waits for the collector.
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
    let mut out = Vec::with_capacity(items.len());
    par_stream(items, threads, items.len(), rec, path, f, |_, u| {
        out.push(u);
    });
    out
}

/// Apply `f` to every index/item pair on up to `threads` workers and
/// hand each result to `sink(i, result)` in input order, on the
/// caller's thread.
///
/// * `threads == 1` (or at most one item) runs inline — `f` then
///   `sink`, item by item, with no spawn, atomic or lock — so it is the
///   *exact* sequential execution, not a simulation of one.
/// * `threads == 0` uses the available parallelism.
/// * Workers claim indices dynamically, which keeps long-tailed
///   workloads balanced. A finished result waits in a reorder window
///   of `window` slots (at least one) until the sink takes it, and no
///   worker starts item `i` before the sink has returned from item
///   `i - window`: at most `window` results, counting those being
///   computed and the one being sunk, are alive at once.
/// * Each worker's total time inside `f` goes to `rec` under `path`.
///   With a disabled recorder no clock is ever read; timing never
///   reorders or drops a call.
/// * A panic in `f` or in `sink` stops every other thread of the call
///   and propagates out of it with its own payload.
pub fn par_stream<T, U, F, S>(
    items: &[T],
    threads: usize,
    window: usize,
    rec: &dyn dt_obs::Recorder,
    path: &str,
    f: F,
    mut sink: S,
) where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
    S: FnMut(usize, U),
{
    let timed = rec.enabled();
    let call = |i: usize, busy: &mut u64| {
        let t0 = timed.then(Instant::now);
        let out = f(i, &items[i]);
        if let Some(t0) = t0 {
            *busy += t0.elapsed().as_nanos() as u64;
        }
        out
    };
    let threads = effective_threads(threads, items.len());
    if threads <= 1 {
        let mut busy = 0;
        for i in 0..items.len() {
            let out = call(i, &mut busy);
            sink(i, out);
        }
        if timed {
            rec.worker_ns(path, 0, busy);
        }
        return;
    }

    let (n, window) = (items.len(), window.clamp(1, items.len()));
    let state = Mutex::new(Window {
        slots: (0..window).map(|_| None).collect(),
        next: 0,
        done: 0,
        stop: false,
    });
    let changed = Condvar::new();
    // Each update of the window is one assignment, so a lock poisoned
    // by a panic still guards a valid window.
    let lock = || state.lock().unwrap_or_else(PoisonError::into_inner);
    // The locked window once `blocked` is false or a thread panicked.
    let wait = |blocked: &dyn Fn(&Window<U>) -> bool| {
        let w = changed.wait_while(lock(), |w| !w.stop && blocked(w));
        w.unwrap_or_else(PoisonError::into_inner)
    };
    // Whichever thread unwinds releases every waiting one.
    let stop = || {
        lock().stop = true;
        changed.notify_all();
    };
    let work = |w: usize| {
        let _stop = OnUnwind(&stop);
        let mut busy = 0;
        loop {
            let mut state = wait(&|w| w.next < n && w.next >= w.done + window);
            if state.stop || state.next == n {
                break;
            }
            let i = state.next;
            state.next += 1;
            drop(state);
            let out = call(i, &mut busy);
            lock().slots[i % window] = Some(out);
            changed.notify_all();
        }
        if timed {
            rec.worker_ns(path, w, busy);
        }
    };
    std::thread::scope(|s| {
        let work = &work;
        let workers: Vec<_> = (0..threads).map(|w| s.spawn(move || work(w))).collect();
        let _stop = OnUnwind(&stop);
        for i in 0..n {
            // `None`: a worker panicked; its join below re-raises.
            let Some(out) = wait(&|w| w.slots[i % window].is_none()).slots[i % window].take()
            else {
                break;
            };
            sink(i, out);
            lock().done = i + 1;
            changed.notify_all();
        }
        for w in workers {
            if let Err(payload) = w.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// The reorder window of one [`par_stream`] call.
struct Window<U> {
    /// Result `i` waits in slot `i % slots.len()`.
    slots: Vec<Option<U>>,
    /// The next index to claim.
    next: usize,
    /// How many results the sink is done with.
    done: usize,
    /// A thread panicked: every other one leaves.
    stop: bool,
}

/// Runs its function if the thread holding it unwinds.
struct OnUnwind<F: Fn()>(F);

impl<F: Fn()> Drop for OnUnwind<F> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            (self.0)();
        }
    }
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
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn par_stream_sinks_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 7, 0] {
            let mut seen = Vec::new();
            par_stream(
                &items,
                threads,
                3,
                &dt_obs::NOOP,
                "",
                |i, &x| {
                    assert_eq!(i as u64, x);
                    x * x
                },
                |i, v| {
                    assert_eq!(v, (i * i) as u64);
                    seen.push(i);
                },
            );
            assert_eq!(seen, (0..100).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    /// A result is alive from the start of its `f` to the end of its
    /// `sink`; the sink yields so the workers try to run ahead.
    #[test]
    fn par_stream_holds_at_most_window_results() {
        let items: Vec<u32> = (0..64).collect();
        for (threads, window) in [(2, 1), (4, 2), (4, 3), (7, 5)] {
            let (live, most) = (AtomicUsize::new(0), AtomicUsize::new(0));
            par_stream(
                &items,
                threads,
                window,
                &dt_obs::NOOP,
                "",
                |_, &x| {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    most.fetch_max(now, Ordering::SeqCst);
                    x
                },
                |_, _| {
                    std::thread::yield_now();
                    live.fetch_sub(1, Ordering::SeqCst);
                },
            );
            let most = most.load(Ordering::SeqCst);
            assert!(
                most <= window,
                "threads={threads} window={window}: {most} alive"
            );
        }
    }

    #[test]
    fn par_stream_runs_inline_at_one_thread() {
        let caller = std::thread::current().id();
        let mut sunk = 0;
        par_stream(
            &[1, 2, 3],
            1,
            1,
            &dt_obs::NOOP,
            "",
            |_, _| assert_eq!(std::thread::current().id(), caller),
            |_, ()| sunk += 1,
        );
        assert_eq!(sunk, 3);
    }

    #[test]
    fn par_stream_empty_and_singleton() {
        for threads in [1, 4] {
            let mut got = Vec::new();
            let empty: [u32; 0] = [];
            par_stream(
                &empty,
                threads,
                2,
                &dt_obs::NOOP,
                "",
                |_, &x| x,
                |i, x| {
                    got.push((i, x));
                },
            );
            assert!(got.is_empty());
            par_stream(
                &[41u32],
                threads,
                2,
                &dt_obs::NOOP,
                "",
                |_, &x| x + 1,
                |i, x| {
                    got.push((i, x));
                },
            );
            assert_eq!(got, [(0, 42)]);
        }
    }

    /// Run `call` on a helper thread and return its panic message,
    /// failing if the call returns normally or has not finished after
    /// 10 s (a deadlock).
    fn panic_message(call: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(call));
            tx.send(outcome.map_err(|p| *p.downcast::<String>().expect("a String payload")))
                .expect("the test waits for the outcome");
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("par_stream finished within 10 s");
        helper.join().expect("the helper catches the panic");
        outcome.expect_err("the panic propagated")
    }

    #[test]
    fn par_stream_propagates_a_panic_in_f() {
        for (threads, at) in [(1, 7), (2, 0), (2, 7), (4, 39)] {
            let message = panic_message(move || {
                let items: Vec<usize> = (0..40).collect();
                par_stream(
                    &items,
                    threads,
                    2,
                    &dt_obs::NOOP,
                    "",
                    |_, &x| {
                        if x == at {
                            panic!("f failed at {x}");
                        }
                        x
                    },
                    |_, _| {},
                );
            });
            assert_eq!(message, format!("f failed at {at}"), "threads={threads}");
        }
    }

    #[test]
    fn par_stream_propagates_a_panic_in_sink() {
        for (threads, at) in [(1, 3), (2, 0), (4, 3), (4, 39)] {
            let message = panic_message(move || {
                let items: Vec<usize> = (0..40).collect();
                par_stream(
                    &items,
                    threads,
                    2,
                    &dt_obs::NOOP,
                    "",
                    |_, &x| x,
                    |i, _| {
                        if i == at {
                            panic!("sink failed at {i}");
                        }
                    },
                );
            });
            assert_eq!(message, format!("sink failed at {at}"), "threads={threads}");
        }
    }

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
