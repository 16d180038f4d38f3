//! ILCS — the Iterative Local Champion Search framework (§IV).
//!
//! Models Listing 1 of the paper: a hybrid MPI+OpenMP master/worker
//! framework running the 2-opt TSP solver ([`crate::tsp`]).
//! Each rank forks an OpenMP team: thread 0 (the *master*) handles MPI
//! communication and champion reduction, worker threads repeatedly
//! evaluate seeds with `CPU_Exec` and update their local champions
//! under an OpenMP critical section.
//!
//! ## Determinism
//!
//! Real ILCS lets workers run fully asynchronously; this reproduction
//! synchronizes master rounds and worker batches with two team
//! barriers per round so a normal/faulty pair differs only by the
//! injected fault (see DESIGN.md). Seed evaluation per (rank, thread,
//! round) is pseudo-random but seeded, so champion trajectories are
//! reproducible.
//!
//! ## Faults (§IV-B/C/D)
//!
//! * [`IlcsFault::OmpCritBug`] — the designated worker updates its
//!   champion *without* the OpenMP critical section (unprotected
//!   `memcpy`): traces lose their `GOMP_critical_*` events. Paper
//!   setting: process 6, thread 4.
//! * [`IlcsFault::CollSizeBug`] — the designated rank calls the first
//!   `MPI_Allreduce` with a wrong size: a real deadlock early in the
//!   run. Paper setting: process 2.
//! * [`IlcsFault::WrongOpBug`] — the designated rank reduces with
//!   `MPI_MAX` instead of `MPI_MIN`: the run terminates but computes
//!   the *worst* champion, converging slowly (more `MPI_Bcast` calls).
//!   Paper setting: process 0.

use crate::tsp::TspInstance;
use dt_trace::FunctionRegistry;
use mpisim::{run, MpiError, OmpCtx, Rank, ReduceOp, RunOutcome, SimConfig};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

/// Fault injected into ILCS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IlcsFault {
    /// Omit the critical section around the champion update in one
    /// worker thread.
    OmpCritBug {
        /// Rank holding the buggy worker.
        process: u32,
        /// Worker thread index (≥ 1).
        thread: u32,
    },
    /// Wrong size in the first champion `MPI_Allreduce` of one rank.
    CollSizeBug {
        /// The faulty rank.
        process: u32,
    },
    /// `MPI_MAX` instead of `MPI_MIN` in the champion reduction of one
    /// rank.
    WrongOpBug {
        /// The faulty rank.
        process: u32,
    },
}

/// Configuration of one ILCS-TSP execution.
#[derive(Debug, Clone)]
pub struct IlcsConfig {
    /// MPI ranks (the paper runs 8).
    pub processes: u32,
    /// CPU worker threads per rank (the paper runs 4; team =
    /// workers + gpu_workers + 1).
    pub workers: u32,
    /// GPU worker threads per rank. ILCS supports GPU workers (each
    /// drives one device and evaluates seeds much faster); the paper's
    /// runs "did not provide any GPU code", so this defaults to 0 —
    /// enabling it exercises the hybrid-structure case where MPI
    /// processes host structurally different thread kinds.
    pub gpu_workers: u32,
    /// TSP instance size.
    pub cities: usize,
    /// Seeds each worker evaluates per round.
    pub seeds_per_round: u32,
    /// Hard cap on master rounds.
    pub max_rounds: u32,
    /// Terminate after this many rounds without champion improvement.
    pub no_change_threshold: u32,
    /// Base RNG seed (instance + seed derivation).
    pub seed: u64,
    /// Optional fault.
    pub fault: Option<IlcsFault>,
}

impl IlcsConfig {
    /// The paper's setup: 8 ranks × 4 workers.
    pub fn paper(fault: Option<IlcsFault>) -> IlcsConfig {
        IlcsConfig {
            processes: 8,
            workers: 4,
            gpu_workers: 0,
            cities: 24,
            seeds_per_round: 2,
            max_rounds: 24,
            no_change_threshold: 3,
            seed: 4242,
            fault,
        }
    }

    /// §IV-B: unprotected memory access by thread 4 of process 6.
    pub fn omp_crit_bug() -> IlcsFault {
        IlcsFault::OmpCritBug {
            process: 6,
            thread: 4,
        }
    }

    /// §IV-C: wrong collective size in process 2.
    pub fn coll_size_bug() -> IlcsFault {
        IlcsFault::CollSizeBug { process: 2 }
    }

    /// §IV-D: wrong collective operation in process 0.
    pub fn wrong_op_bug() -> IlcsFault {
        IlcsFault::WrongOpBug { process: 0 }
    }
}

/// Deterministic per-(rank, thread, round, slot) seed derivation.
fn derive_seed(base: u64, rank: u32, thread: u32, round: u32, slot: u32) -> u64 {
    let mut x = base
        ^ (u64::from(rank) << 48)
        ^ (u64::from(thread) << 32)
        ^ (u64::from(round) << 16)
        ^ u64::from(slot);
    // splitmix64 finalizer.
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

struct NodeShared {
    /// champ[t] = best cost found by worker t (index 0 unused).
    champs: Vec<AtomicI64>,
    cont: AtomicBool,
}

fn worker_body(
    omp: &OmpCtx,
    shared: &NodeShared,
    inst: &TspInstance,
    cfg: &IlcsConfig,
    my_rank: u32,
) {
    let t = omp.thread_num();
    // Threads above the CPU workers drive GPUs: a different kernel
    // (GPU_Exec) covering several seeds per call.
    let is_gpu = t > cfg.workers;
    let unprotected = matches!(
        cfg.fault,
        Some(IlcsFault::OmpCritBug { process, thread })
            if process == my_rank && thread == t
    );
    let seeds = if is_gpu {
        cfg.seeds_per_round * 4
    } else {
        cfg.seeds_per_round
    };
    for round in 0..cfg.max_rounds {
        if !shared.cont.load(Ordering::Acquire) || omp.aborted() {
            break;
        }
        for s in 0..seeds {
            let seed = derive_seed(cfg.seed, my_rank, t, round, s);
            let kernel = if is_gpu { "GPU_Exec" } else { "CPU_Exec" };
            let scope = omp.tracer().enter(kernel);
            let cost = inst.two_opt_from_seed(seed);
            drop(scope);
            let slot = &shared.champs[t as usize];
            if cost < slot.load(Ordering::Acquire) {
                if unprotected {
                    // §IV-B: the critical section is omitted — the
                    // memcpy happens bare.
                    omp.tracer().leaf("memcpy");
                    slot.fetch_min(cost, Ordering::AcqRel);
                } else {
                    omp.critical("champ", || {
                        omp.tracer().leaf("memcpy");
                        slot.fetch_min(cost, Ordering::AcqRel);
                    });
                }
            }
        }
        // Round barriers: #1 "batch computed", #2 "master decided".
        if omp.barrier().is_err() || omp.barrier().is_err() {
            break;
        }
    }
}

/// Returns the final global champion cost.
fn master_body(
    omp: &OmpCtx,
    rank: &Rank,
    shared: &NodeShared,
    cfg: &IlcsConfig,
) -> Result<i64, MpiError> {
    let me = rank.rank();
    let mut global_best = i64::MAX;
    let mut no_change = 0u32;
    for round in 0..cfg.max_rounds {
        omp.barrier()?; // workers finished their batch
        let local_best = shared
            .champs
            .iter()
            .skip(1)
            .map(|c| c.load(Ordering::Acquire))
            .min()
            .unwrap_or(i64::MAX);
        // First Allreduce (Listing 1 line 24): the global champion.
        let op = match cfg.fault {
            Some(IlcsFault::WrongOpBug { process }) if process == me => ReduceOp::Max,
            _ => ReduceOp::Min,
        };
        let count = match cfg.fault {
            Some(IlcsFault::CollSizeBug { process }) if process == me => 4, // wrong!
            _ => 1,
        };
        let g = rank.allreduce_with_count(&[local_best], op, count)?[0];
        // Second Allreduce: the champion's process ID.
        let claim = if local_best == g {
            i64::from(me)
        } else {
            i64::MAX
        };
        let pid = rank.allreduce(&[claim], ReduceOp::Min)?[0];
        let root = if pid == i64::MAX { 0 } else { pid as u32 };
        if i64::from(me) == pid {
            // Copy the local champion into the broadcast buffer under
            // the same critical section the workers use (line 29).
            omp.critical("champ", || {
                omp.tracer().leaf("memcpy");
            });
        }
        let _champ_tour = rank.bcast(&[g], 1, root)?;
        if g < global_best {
            global_best = g;
            no_change = 0;
        } else {
            no_change += 1;
        }
        let stop = no_change >= cfg.no_change_threshold || round + 1 == cfg.max_rounds;
        if stop {
            shared.cont.store(false, Ordering::Release);
        }
        omp.barrier()?; // release workers into the next round
        if stop {
            break;
        }
    }
    Ok(global_best)
}

/// Run ILCS-TSP. Use a shared registry across the normal/faulty pair.
pub fn run_ilcs(cfg: &IlcsConfig, registry: Arc<FunctionRegistry>) -> RunOutcome {
    run_ilcs_collecting(cfg, registry).0
}

/// As [`run_ilcs`], also returning the final global champion cost each
/// rank observed (what `CPU_Output` would print) — `i64::MAX` entries
/// mean the rank died before any reduction completed.
pub fn run_ilcs_collecting(
    cfg: &IlcsConfig,
    registry: Arc<FunctionRegistry>,
) -> (RunOutcome, Vec<i64>) {
    let champions: parking_lot::Mutex<Vec<i64>> =
        parking_lot::Mutex::new(vec![i64::MAX; cfg.processes as usize]);
    let outcome = run_ilcs_inner(cfg, registry, &champions);
    (outcome, champions.into_inner())
}

fn run_ilcs_inner(
    cfg: &IlcsConfig,
    registry: Arc<FunctionRegistry>,
    champions: &parking_lot::Mutex<Vec<i64>>,
) -> RunOutcome {
    let cfg = cfg.clone();
    let sim = SimConfig::new(cfg.processes).with_watchdog(std::time::Duration::from_secs(30));
    run(sim, registry, move |rank| {
        let tracer = rank.tracer();
        let main = tracer.enter("main");
        rank.init()?;
        let _size = rank.comm_size()?;
        let me = rank.comm_rank()?;
        // Total CPUs/GPUs (Listing 1 lines 7-8).
        let _ = rank.reduce(&[i64::from(cfg.workers)], ReduceOp::Sum, 0)?;
        let _ = rank.reduce(&[i64::from(cfg.gpu_workers)], ReduceOp::Sum, 0)?;
        // CPU_Init: read coordinates, build the instance.
        let init_scope = tracer.enter("CPU_Init");
        let inst = TspInstance::generate(cfg.cities, cfg.seed);
        drop(init_scope);
        rank.barrier()?;

        let team = cfg.workers + cfg.gpu_workers;
        let shared = NodeShared {
            champs: (0..=team).map(|_| AtomicI64::new(i64::MAX)).collect(),
            cont: AtomicBool::new(true),
        };
        let master_err: Cell<Option<MpiError>> = Cell::new(None);
        rank.omp_parallel_mw(
            team + 1,
            |omp| match master_body(omp, rank, &shared, &cfg) {
                Ok(best) => champions.lock()[me as usize] = best,
                Err(e) => {
                    shared.cont.store(false, Ordering::Release);
                    master_err.set(Some(e));
                }
            },
            |omp| worker_body(omp, &shared, &inst, &cfg, me),
        );
        if let Some(e) = master_err.take() {
            return Err(e);
        }
        if me == 0 {
            tracer.leaf("CPU_Output");
        }
        rank.finalize()?;
        drop(main);
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_trace::TraceId;

    fn registry() -> Arc<FunctionRegistry> {
        Arc::new(FunctionRegistry::new())
    }

    fn tiny(fault: Option<IlcsFault>) -> IlcsConfig {
        IlcsConfig {
            processes: 4,
            workers: 2,
            gpu_workers: 0,
            cities: 12,
            seeds_per_round: 1,
            max_rounds: 8,
            no_change_threshold: 2,
            seed: 11,
            fault,
        }
    }

    fn call_names(out: &RunOutcome, id: TraceId) -> Vec<String> {
        out.traces
            .get(id)
            .unwrap()
            .calls()
            .map(|e| out.traces.registry.name(e.fn_id()))
            .collect()
    }

    #[test]
    fn normal_run_completes_with_expected_structure() {
        let out = run_ilcs(&tiny(None), registry());
        assert!(!out.deadlocked, "{:?}", out.errors);
        assert!(out.errors.is_empty());
        // 4 processes × (1 master + 2 workers) traces.
        assert_eq!(out.traces.len(), 12);
        let m0 = call_names(&out, TraceId::master(0));
        assert_eq!(m0.first().unwrap(), "main");
        assert!(m0.contains(&"MPI_Allreduce".to_string()));
        assert!(m0.contains(&"MPI_Bcast".to_string()));
        assert!(m0.contains(&"CPU_Output".to_string()));
        assert_eq!(m0.last().unwrap(), "MPI_Finalize");
        // Workers evaluate seeds and update champions at least once.
        let w = call_names(&out, TraceId::new(1, 1));
        assert!(w.iter().any(|n| n == "CPU_Exec"));
        assert!(w.iter().any(|n| n == "GOMP_critical_start"));
        assert!(w.iter().any(|n| n == "memcpy"));
    }

    #[test]
    fn omp_crit_bug_removes_critical_from_that_thread_only() {
        let fault = IlcsFault::OmpCritBug {
            process: 2,
            thread: 1,
        };
        let out = run_ilcs(&tiny(Some(fault)), registry());
        assert!(!out.deadlocked);
        let buggy = call_names(&out, TraceId::new(2, 1));
        assert!(
            !buggy.iter().any(|n| n.starts_with("GOMP_critical")),
            "buggy thread must not enter the critical section"
        );
        assert!(buggy.iter().any(|n| n == "memcpy"), "still updates");
        let healthy = call_names(&out, TraceId::new(1, 1));
        assert!(healthy.iter().any(|n| n == "GOMP_critical_start"));
    }

    #[test]
    fn coll_size_bug_deadlocks_at_allreduce() {
        let out = run_ilcs(
            &tiny(Some(IlcsFault::CollSizeBug { process: 2 })),
            registry(),
        );
        assert!(out.deadlocked);
        for p in 0..4u32 {
            let t = out.traces.get(TraceId::master(p)).unwrap();
            assert!(t.truncated, "master {p} should be truncated");
            let last = t.iter().next_back().unwrap();
            assert!(last.is_call());
            assert_eq!(out.traces.registry.name(last.fn_id()), "MPI_Allreduce");
        }
    }

    #[test]
    fn wrong_op_bug_terminates_but_changes_behavior() {
        let reg = registry();
        let normal = run_ilcs(&tiny(None), reg.clone());
        let faulty = run_ilcs(&tiny(Some(IlcsFault::WrongOpBug { process: 0 })), reg);
        assert!(!normal.deadlocked);
        assert!(
            !faulty.deadlocked,
            "wrong op must NOT deadlock: {:?}",
            faulty.errors
        );
        let bcasts = |out: &RunOutcome| {
            call_names(out, TraceId::master(3))
                .iter()
                .filter(|n| *n == "MPI_Bcast")
                .count()
        };
        // The MAX champion keeps changing while stragglers improve, so
        // the faulty run takes at least as many rounds (usually more).
        assert!(
            bcasts(&faulty) >= bcasts(&normal),
            "faulty {} vs normal {}",
            bcasts(&faulty),
            bcasts(&normal)
        );
    }

    #[test]
    fn wrong_op_computes_a_worse_answer() {
        // §IV-D: "Instead of computing the best answer, the modified
        // code computes the worst answer … likely to yield the wrong
        // result."
        // Enough cities that ranks land in *different* local optima —
        // with a tiny instance everyone finds the global optimum and
        // MAX = MIN. 40 cities separates the optima for every RNG seed
        // tried; 32 was marginal (seed-dependent).
        let mut cfg = tiny(None);
        cfg.cities = 40;
        let reg = registry();
        let (n_out, n_champ) = run_ilcs_collecting(&cfg, reg.clone());
        cfg.fault = Some(IlcsFault::WrongOpBug { process: 0 });
        let (f_out, f_champ) = run_ilcs_collecting(&cfg, reg);
        assert!(!n_out.deadlocked && !f_out.deadlocked);
        // All ranks agree on the champion within a run.
        assert!(n_champ.iter().all(|&c| c == n_champ[0]), "{n_champ:?}");
        assert!(f_champ.iter().all(|&c| c == f_champ[0]), "{f_champ:?}");
        // The MAX-reduced "champion" is strictly worse (longer tour).
        assert!(
            f_champ[0] > n_champ[0],
            "wrong op must yield a worse tour: {} vs {}",
            f_champ[0],
            n_champ[0]
        );
    }

    #[test]
    fn deterministic_master_traces() {
        let shape = |out: &RunOutcome| {
            (0..4u32)
                .map(|p| call_names(out, TraceId::master(p)))
                .collect::<Vec<_>>()
        };
        let a = run_ilcs(&tiny(None), registry());
        let b = run_ilcs(&tiny(None), registry());
        assert_eq!(shape(&a), shape(&b));
    }

    #[test]
    fn gpu_workers_join_the_team_with_their_own_kernel() {
        let mut cfg = tiny(None);
        cfg.gpu_workers = 1;
        let out = run_ilcs(&cfg, registry());
        assert!(!out.deadlocked, "{:?}", out.errors);
        // Team = master + 2 CPU + 1 GPU → 4 traces per rank.
        assert_eq!(out.traces.len(), 16);
        // The GPU thread (id = workers + 1 = 3) runs GPU_Exec, never
        // CPU_Exec; CPU workers do the opposite.
        let names = |id: TraceId| -> Vec<String> {
            out.traces
                .get(id)
                .unwrap()
                .calls()
                .map(|e| out.traces.registry.name(e.fn_id()))
                .collect()
        };
        let gpu = names(TraceId::new(0, 3));
        assert!(gpu.iter().any(|n| n == "GPU_Exec"), "{gpu:?}");
        assert!(!gpu.iter().any(|n| n == "CPU_Exec"));
        let cpu = names(TraceId::new(0, 1));
        assert!(cpu.iter().any(|n| n == "CPU_Exec"));
        assert!(!cpu.iter().any(|n| n == "GPU_Exec"));
        // GPU threads evaluate 4× the seeds per round.
        let count = |v: &[String], k: &str| v.iter().filter(|n| *n == k).count();
        assert!(count(&gpu, "GPU_Exec") >= 4 * count(&cpu, "CPU_Exec") / 2);
    }

    #[test]
    fn seed_derivation_is_unique_per_coordinate() {
        let mut seen = std::collections::HashSet::new();
        for r in 0..4 {
            for t in 1..3 {
                for round in 0..4 {
                    for s in 0..2 {
                        assert!(seen.insert(derive_seed(1, r, t, round, s)));
                    }
                }
            }
        }
    }
}
