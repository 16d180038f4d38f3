//! OpenMP-style parallel regions, critical sections, and team barriers.
//!
//! Models the GOMP runtime calls ParLOT sees when tracing an OpenMP
//! program: `GOMP_parallel_start/end`, `GOMP_critical_start/end`,
//! `GOMP_barrier`. Worker threads are real OS threads with their own
//! tracers (`TraceId { process, thread ≥ 1 }`); the encountering
//! (master) thread participates as thread 0, exactly like OpenMP.

use crate::error::{AbortReason, MpiError};
use crate::world::World;
use dt_trace::{RaceOp, TraceCollector, TraceId, Tracer};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::Duration;

/// Per-thread context inside a parallel region.
pub struct OmpCtx<'a> {
    world: Arc<World>,
    thread: u32,
    num_threads: u32,
    tracer: TracerHandle<'a>,
    barrier: Arc<TeamBarrier>,
}

enum TracerHandle<'a> {
    Borrowed(&'a Tracer),
    Owned(Tracer),
}

impl OmpCtx<'_> {
    /// `omp_get_thread_num()`.
    pub fn thread_num(&self) -> u32 {
        self.thread
    }

    /// `omp_get_num_threads()`.
    pub fn num_threads(&self) -> u32 {
        self.num_threads
    }

    /// The thread's tracer (for instrumenting user code).
    pub fn tracer(&self) -> &Tracer {
        match &self.tracer {
            TracerHandle::Borrowed(t) => t,
            TracerHandle::Owned(t) => t,
        }
    }

    /// Has the run been aborted (deadlock elsewhere / watchdog)?
    /// Worker loops poll this — the analogue of the job being killed.
    pub fn aborted(&self) -> bool {
        self.world.is_aborted()
    }

    /// Static loop scheduling (`#pragma omp for schedule(static)`):
    /// the iterations `0..n` this thread owns, as an iterator. The
    /// master (thread 0) gets no iterations when there are workers —
    /// matching the master/worker split of the paper's workloads — and
    /// everything when it is alone.
    pub fn static_iters(&self, n: u32) -> impl Iterator<Item = u32> {
        let workers = self.num_threads.saturating_sub(1);
        let (me, stride) = if workers == 0 {
            (Some(0), 1)
        } else if self.thread == 0 {
            (None, 1)
        } else {
            (Some(self.thread - 1), workers)
        };
        (0..n).filter(move |i| me.is_some_and(|m| i % stride == m))
    }

    /// `#pragma omp single`: exactly one thread of the team executes
    /// `f` per call site occurrence; the others skip it (no implicit
    /// barrier — pair with [`OmpCtx::barrier`] when needed, like
    /// `nowait`-less OpenMP). Traced as `GOMP_single_start` on the
    /// executing thread. Returns `Some(R)` on the executing thread.
    pub fn single<R>(&self, name: &str, f: impl FnOnce() -> R) -> Option<R> {
        // First-come-first-serve election through a named world slot;
        // the winner stays the executor on repeated encounters.
        if self.world.claim_single(name, self.thread) {
            let tracer = self.tracer();
            let fid = tracer.intern("GOMP_single_start");
            tracer.call(fid);
            let out = f();
            tracer.ret(fid);
            Some(out)
        } else {
            None
        }
    }

    /// Enter a named critical section for the duration of `f`.
    ///
    /// Traced as `GOMP_critical_start` (returns once the lock is held)
    /// and `GOMP_critical_end`. Named criticals are global to the
    /// rank's process, as in OpenMP.
    pub fn critical<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let tracer = self.tracer();
        let start = tracer.intern("GOMP_critical_start");
        let end = tracer.intern("GOMP_critical_end");
        let mutex = self.world.critical_mutex(self.tracer().id().process, name);
        tracer.call(start);
        let guard = mutex.lock();
        tracer.ret(start);
        let out = f();
        tracer.call(end);
        drop(guard);
        tracer.ret(end);
        out
    }

    /// Enter a named lock for the duration of `f`, tracing the lock's
    /// *identity*: `omp_acquire@<name>` (the call returns once the lock
    /// is held) and a paired `omp_release@<name>` call/return around
    /// the unlock. Unlike [`OmpCtx::critical`] — whose anonymous
    /// `GOMP_critical_start/end` markers existing workloads depend on —
    /// these named markers let `racecheck` reconstruct locksets and
    /// lock-acquisition order from the trace alone. Named locks are
    /// per process, like named criticals.
    pub fn lock<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let tracer = self.tracer();
        let acquire = tracer.intern(&RaceOp::Acquire(name.to_string()).marker_name());
        let release = tracer.intern(&RaceOp::Release(name.to_string()).marker_name());
        let mutex = self.world.critical_mutex(self.tracer().id().process, name);
        tracer.call(acquire);
        let guard = mutex.lock();
        tracer.ret(acquire);
        let out = f();
        tracer.call(release);
        drop(guard);
        tracer.ret(release);
        out
    }

    /// Trace a read of the named shared variable (`omp_read@<name>`, a
    /// leaf call/return pair). The simulation carries no actual memory:
    /// the marker *is* the access, which is all a trace analyzer sees.
    pub fn shared_read(&self, var: &str) {
        self.tracer()
            .leaf(&RaceOp::Read(var.to_string()).marker_name());
    }

    /// Trace a write of the named shared variable (`omp_write@<name>`).
    pub fn shared_write(&self, var: &str) {
        self.tracer()
            .leaf(&RaceOp::Write(var.to_string()).marker_name());
    }

    /// Team barrier (`GOMP_barrier`). Abort-aware: if the run dies
    /// while waiting, the tracer is poisoned (trace ends at the
    /// never-returning barrier call) and `Err(Aborted)` is returned.
    pub fn barrier(&self) -> Result<(), MpiError> {
        let tracer = self.tracer();
        let fid = tracer.intern("GOMP_barrier");
        tracer.call(fid);
        match self.barrier.wait(&self.world) {
            Ok(()) => {
                tracer.ret(fid);
                Ok(())
            }
            Err(e) => {
                tracer.poison();
                Err(e)
            }
        }
    }
}

/// Generation-counted team barrier with abort polling.
struct TeamBarrier {
    lock: Mutex<BarrierState>,
    cv: Condvar,
    parties: u32,
}

struct BarrierState {
    arrived: u32,
    generation: u64,
}

impl TeamBarrier {
    fn new(parties: u32) -> Arc<TeamBarrier> {
        Arc::new(TeamBarrier {
            lock: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
            }),
            cv: Condvar::new(),
            parties,
        })
    }

    fn wait(&self, world: &World) -> Result<(), MpiError> {
        let mut st = self.lock.lock();
        let gen = st.generation;
        st.arrived += 1;
        if st.arrived == self.parties {
            st.arrived = 0;
            st.generation += 1;
            self.cv.notify_all();
            return Ok(());
        }
        while st.generation == gen {
            if world.is_aborted() {
                return Err(MpiError::Aborted(AbortReason::Deadlock));
            }
            // Poll so an abort elsewhere cannot strand us.
            self.cv.wait_for(&mut st, Duration::from_millis(25));
        }
        Ok(())
    }
}

/// Run a parallel region: the calling (master) thread participates as
/// thread 0 running `master_body`; `num_threads − 1` workers are
/// spawned with their own tracers running `worker_body`. The split
/// lets the master body capture non-`Sync` state (the MPI [`crate::Rank`]
/// handle) while workers stay shareable — the shape of ILCS's
/// master/worker `omp parallel`. Called via [`crate::Rank::omp_parallel`]
/// and [`crate::Rank::omp_parallel_mw`].
pub(crate) fn parallel_region<M, W>(
    world: &Arc<World>,
    collector: &Arc<TraceCollector>,
    master_tracer: &Tracer,
    process: u32,
    num_threads: u32,
    master_body: M,
    worker_body: W,
) where
    M: FnOnce(&OmpCtx),
    W: Fn(&OmpCtx) + Send + Sync,
{
    assert!(num_threads >= 1, "a team needs at least the master");
    let start = master_tracer.intern("GOMP_parallel_start");
    let end = master_tracer.intern("GOMP_parallel_end");
    master_tracer.call(start);
    master_tracer.ret(start);

    let barrier = TeamBarrier::new(num_threads);
    std::thread::scope(|s| {
        for t in 1..num_threads {
            let body = &worker_body;
            let world = Arc::clone(world);
            let barrier = Arc::clone(&barrier);
            let tracer = collector.tracer(TraceId::new(process, t));
            s.spawn(move || {
                let ctx = OmpCtx {
                    world,
                    thread: t,
                    num_threads,
                    tracer: TracerHandle::Owned(tracer),
                    barrier,
                };
                body(&ctx);
                // Tracer submits on drop.
            });
        }
        let ctx = OmpCtx {
            world: Arc::clone(world),
            thread: 0,
            num_threads,
            tracer: TracerHandle::Borrowed(master_tracer),
            barrier,
        };
        master_body(&ctx);
    });

    master_tracer.call(end);
    master_tracer.ret(end);
}

#[cfg(test)]
mod tests {
    use crate::runtime::{run, SimConfig};
    use dt_trace::{FunctionRegistry, TraceId};
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn registry() -> Arc<FunctionRegistry> {
        Arc::new(FunctionRegistry::new())
    }

    #[test]
    fn workers_get_their_own_traces() {
        let out = run(SimConfig::new(2), registry(), |rank| {
            rank.init()?;
            rank.omp_parallel(4, |omp| {
                omp.tracer().leaf(&format!("work_{}", omp.thread_num()));
            });
            rank.finalize()
        });
        assert!(!out.deadlocked);
        // 2 processes × 4 threads = 8 traces.
        assert_eq!(out.traces.len(), 8);
        let t = out.traces.get(TraceId::new(1, 3)).unwrap();
        let names: Vec<String> = t
            .calls()
            .map(|e| out.traces.registry.name(e.fn_id()))
            .collect();
        assert_eq!(names, vec!["work_3"]);
    }

    #[test]
    fn master_trace_brackets_the_region() {
        let out = run(SimConfig::new(1), registry(), |rank| {
            rank.init()?;
            rank.omp_parallel(2, |_| {});
            rank.finalize()
        });
        let t = out.traces.get(TraceId::master(0)).unwrap();
        let names: Vec<String> = t
            .calls()
            .map(|e| out.traces.registry.name(e.fn_id()))
            .collect();
        assert_eq!(
            names,
            vec![
                "MPI_Init",
                "GOMP_parallel_start",
                "GOMP_parallel_end",
                "MPI_Finalize"
            ]
        );
    }

    #[test]
    fn critical_sections_exclude_and_trace() {
        let hits = Arc::new(Mutex::new(Vec::new()));
        let hits2 = hits.clone();
        let out = run(SimConfig::new(1), registry(), move |rank| {
            rank.init()?;
            let hits = hits2.clone();
            rank.omp_parallel(4, move |omp| {
                for _ in 0..50 {
                    omp.critical("champ", || {
                        hits.lock().push(omp.thread_num());
                    });
                }
            });
            rank.finalize()
        });
        assert!(!out.deadlocked);
        assert_eq!(hits.lock().len(), 200);
        // Every thread's trace contains the critical markers.
        for th in 0..4u32 {
            let t = out.traces.get(TraceId::new(0, th)).unwrap();
            let names: Vec<String> = t
                .calls()
                .map(|e| out.traces.registry.name(e.fn_id()))
                .collect();
            assert_eq!(
                names.iter().filter(|n| *n == "GOMP_critical_start").count(),
                50,
                "thread {th}"
            );
            assert_eq!(
                names.iter().filter(|n| *n == "GOMP_critical_end").count(),
                50
            );
        }
    }

    #[test]
    fn named_locks_and_shared_accesses_trace_their_identity() {
        let out = run(SimConfig::new(1), registry(), |rank| {
            rank.init()?;
            rank.omp_parallel(2, |omp| {
                for _ in 0..3 {
                    omp.lock("counter_lock", || {
                        omp.shared_read("counter");
                        omp.shared_write("counter");
                    });
                }
            });
            rank.finalize()
        });
        assert!(!out.deadlocked);
        for th in 0..2u32 {
            let t = out.traces.get(TraceId::new(0, th)).unwrap();
            let names: Vec<String> = t
                .calls()
                .map(|e| out.traces.registry.name(e.fn_id()))
                .collect();
            let count = |n: &str| names.iter().filter(|x| *x == n).count();
            assert_eq!(count("omp_acquire@counter_lock"), 3, "thread {th}");
            assert_eq!(count("omp_release@counter_lock"), 3, "thread {th}");
            assert_eq!(count("omp_read@counter"), 3, "thread {th}");
            assert_eq!(count("omp_write@counter"), 3, "thread {th}");
            // The accesses sit between acquire and release.
            let first_acq = names
                .iter()
                .position(|n| n.starts_with("omp_acquire"))
                .unwrap();
            let first_read = names
                .iter()
                .position(|n| n.starts_with("omp_read"))
                .unwrap();
            assert!(first_acq < first_read, "thread {th}: {names:?}");
        }
    }

    #[test]
    fn single_executes_on_exactly_one_thread() {
        let hits = Arc::new(Mutex::new(Vec::new()));
        let h2 = hits.clone();
        let out = run(SimConfig::new(1), registry(), move |rank| {
            rank.init()?;
            let h = h2.clone();
            rank.omp_parallel(4, move |omp| {
                for round in 0..3 {
                    if let Some(()) = omp.single("init_round", || {
                        h.lock().push((round, omp.thread_num()));
                    }) {
                        // executed here
                    }
                    omp.barrier().unwrap();
                }
            });
            rank.finalize()
        });
        assert!(!out.deadlocked);
        let v = hits.lock();
        // One execution per encounter, all by the same winner thread.
        assert_eq!(v.len(), 3);
        assert_eq!(v[0].0, 0);
        assert!(v.iter().all(|&(_, t)| t == v[0].1));
        // The winner's trace carries the GOMP_single_start marker.
        let t = out.traces.get(TraceId::new(0, v[0].1)).unwrap();
        let count = t
            .calls()
            .filter(|e| out.traces.registry.name(e.fn_id()) == "GOMP_single_start")
            .count();
        assert_eq!(count, 3);
    }

    #[test]
    fn static_iters_partition_without_overlap() {
        let hits = Arc::new(Mutex::new(vec![0u32; 20]));
        let h2 = hits.clone();
        let out = run(SimConfig::new(1), registry(), move |rank| {
            rank.init()?;
            let h = h2.clone();
            rank.omp_parallel(4, move |omp| {
                for i in omp.static_iters(20) {
                    h.lock()[i as usize] += 1;
                }
            });
            rank.finalize()
        });
        assert!(!out.deadlocked);
        // Every iteration executed exactly once (workers partition;
        // the master stays out when workers exist).
        assert!(hits.lock().iter().all(|&c| c == 1), "{:?}", hits.lock());
    }

    #[test]
    fn static_iters_master_alone_gets_everything() {
        let hits = Arc::new(Mutex::new(0u32));
        let h2 = hits.clone();
        let out = run(SimConfig::new(1), registry(), move |rank| {
            rank.init()?;
            let h = h2.clone();
            rank.omp_parallel(1, move |omp| {
                for _ in omp.static_iters(7) {
                    *h.lock() += 1;
                }
            });
            rank.finalize()
        });
        assert!(!out.deadlocked);
        assert_eq!(*hits.lock(), 7);
    }

    #[test]
    fn team_barrier_synchronizes() {
        let out = run(SimConfig::new(1), registry(), |rank| {
            rank.init()?;
            let phase = Arc::new(Mutex::new(vec![0u32; 3]));
            let p2 = phase.clone();
            rank.omp_parallel(3, move |omp| {
                p2.lock()[omp.thread_num() as usize] = 1;
                omp.barrier().unwrap();
                // After the barrier every thread must observe phase 1
                // everywhere.
                assert!(p2.lock().iter().all(|&x| x == 1));
            });
            rank.finalize()
        });
        assert!(!out.deadlocked);
    }
}
