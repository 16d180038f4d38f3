//! OpenMP shared-memory workloads for `racecheck` — hybrid MPI+OpenMP
//! programs whose *intra-process* thread teams touch named shared
//! variables through the `omp_*@` marker vocabulary.
//!
//! Two programs, each with one planted fault:
//!
//! * [`run_omp_counter`] — a reduction: every worker accumulates
//!   partial sums into a shared `counter` under `counter_lock`; after
//!   the team barrier the master reads the total (also under the
//!   lock) and the ranks allreduce it.
//!   [`OmpCounterFault::Unprotected`] makes one rank's team update the
//!   counter **without** the lock — the textbook unprotected-counter
//!   bug (`RC001` write-write, `RC002` read-write, `RC004` empty
//!   Eraser lockset).
//! * [`run_omp_lockorder`] — a two-account ledger: each thread, on its
//!   turn, moves value between accounts holding `alpha` **then**
//!   `beta`. [`OmpLockOrderFault::Inverted`] makes one thread take
//!   them in the opposite order (`RC003` lock-order inversion). Turns
//!   are round-robin with a barrier per round, so the inverted order
//!   never actually deadlocks the simulation — exactly the *potential*
//!   deadlock a dynamic analysis must catch before the unlucky
//!   interleaving ships.

use dt_trace::FunctionRegistry;
use mpisim::{run, ReduceOp, RunOutcome, SimConfig};
use std::sync::Arc;

/// Fault injected into the counter reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OmpCounterFault {
    /// `rank`'s whole team updates `counter` without `counter_lock`.
    Unprotected {
        /// The faulty rank.
        rank: u32,
    },
}

/// Configuration of one counter-reduction execution.
#[derive(Debug, Clone)]
pub struct OmpCounterConfig {
    /// MPI ranks.
    pub ranks: u32,
    /// OpenMP threads per rank (master + workers).
    pub threads: u32,
    /// Loop iterations split statically across the workers.
    pub iters: u32,
    /// Optional fault.
    pub fault: Option<OmpCounterFault>,
}

impl OmpCounterConfig {
    /// A small default: 2 ranks × 4 threads × 24 iterations.
    pub fn default_2x4() -> OmpCounterConfig {
        OmpCounterConfig {
            ranks: 2,
            threads: 4,
            iters: 24,
            fault: None,
        }
    }
}

/// Run the counter reduction.
pub fn run_omp_counter(cfg: &OmpCounterConfig, registry: Arc<FunctionRegistry>) -> RunOutcome {
    let cfg = cfg.clone();
    let sim = SimConfig::new(cfg.ranks).with_watchdog(std::time::Duration::from_secs(20));
    run(sim, registry, move |rank| {
        let tr = rank.tracer();
        let main = tr.enter("main");
        rank.init()?;
        let me = rank.comm_rank()?;
        let unprotected = matches!(
            cfg.fault,
            Some(OmpCounterFault::Unprotected { rank: fr }) if fr == me
        );
        rank.omp_parallel(cfg.threads, |omp| {
            let tr = omp.tracer();
            let scope = tr.enter("AccumulatePartials");
            for _ in omp.static_iters(cfg.iters) {
                tr.leaf("compute_chunk");
                if unprotected {
                    // The planted bug: read-modify-write with no lock.
                    omp.shared_read("counter");
                    omp.shared_write("counter");
                } else {
                    omp.lock("counter_lock", || {
                        omp.shared_read("counter");
                        omp.shared_write("counter");
                    });
                }
            }
            drop(scope);
            if omp.barrier().is_err() {
                return;
            }
            // The master publishes the total after the team barrier —
            // still under the lock, keeping the Eraser set non-empty.
            if omp.thread_num() == 0 {
                let scope = tr.enter("PublishTotal");
                omp.lock("counter_lock", || omp.shared_read("counter"));
                drop(scope);
            }
        });
        rank.allreduce(&[i64::from(cfg.iters)], ReduceOp::Sum)?;
        rank.finalize()?;
        drop(main);
        Ok(())
    })
}

/// Fault injected into the ledger workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OmpLockOrderFault {
    /// `thread` on `rank` nests `beta` → `alpha` instead of
    /// `alpha` → `beta`.
    Inverted {
        /// The faulty rank.
        rank: u32,
        /// The faulty thread of that rank's team.
        thread: u32,
    },
}

/// Configuration of one ledger execution.
#[derive(Debug, Clone)]
pub struct OmpLockOrderConfig {
    /// MPI ranks.
    pub ranks: u32,
    /// OpenMP threads per rank.
    pub threads: u32,
    /// Barrier-separated transfer rounds; thread `r % threads` moves
    /// value in round `r`.
    pub rounds: u32,
    /// Optional fault.
    pub fault: Option<OmpLockOrderFault>,
}

impl OmpLockOrderConfig {
    /// A small default: 2 ranks × 3 threads × 12 rounds.
    pub fn default_2x3() -> OmpLockOrderConfig {
        OmpLockOrderConfig {
            ranks: 2,
            threads: 3,
            rounds: 12,
            fault: None,
        }
    }
}

/// Run the ledger workload.
pub fn run_omp_lockorder(cfg: &OmpLockOrderConfig, registry: Arc<FunctionRegistry>) -> RunOutcome {
    let cfg = cfg.clone();
    let sim = SimConfig::new(cfg.ranks).with_watchdog(std::time::Duration::from_secs(20));
    run(sim, registry, move |rank| {
        let tr = rank.tracer();
        let main = tr.enter("main");
        rank.init()?;
        let me = rank.comm_rank()?;
        rank.omp_parallel(cfg.threads, |omp| {
            let tr = omp.tracer();
            let inverted = matches!(
                cfg.fault,
                Some(OmpLockOrderFault::Inverted { rank: fr, thread: ft })
                    if fr == me && ft == omp.thread_num()
            );
            for round in 0..cfg.rounds {
                if round % omp.num_threads() == omp.thread_num() {
                    let scope = tr.enter("TransferRound");
                    let (outer, inner) = if inverted {
                        ("beta", "alpha")
                    } else {
                        ("alpha", "beta")
                    };
                    omp.lock(outer, || {
                        tr.leaf("debit_account");
                        omp.lock(inner, || tr.leaf("credit_account"));
                    });
                    drop(scope);
                }
                if omp.barrier().is_err() {
                    return;
                }
            }
        });
        rank.allreduce(&[i64::from(cfg.rounds)], ReduceOp::Sum)?;
        rank.finalize()?;
        drop(main);
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_racecheck::{analyze, RaceCode, RaceVocab};
    use dt_trace::TraceId;

    fn registry() -> Arc<FunctionRegistry> {
        Arc::new(FunctionRegistry::new())
    }

    fn report(out: &RunOutcome, reg: &FunctionRegistry) -> dt_racecheck::RaceReport {
        let vocab = RaceVocab::build(reg);
        let facts: Vec<_> = out
            .traces
            .iter()
            .map(|t| dt_racecheck::expanded::summarize(t.id, &t.events, t.truncated, &vocab))
            .collect();
        analyze(&facts)
    }

    #[test]
    fn protected_counter_is_race_clean() {
        let reg = registry();
        let out = run_omp_counter(&OmpCounterConfig::default_2x4(), reg.clone());
        assert!(!out.deadlocked, "{:?}", out.errors);
        let r = report(&out, &reg);
        assert!(r.is_clean(), "{}", r.render_text());
        // The workers really did hit the marker vocabulary.
        let t = out.traces.get(TraceId::new(0, 1)).unwrap();
        assert!(t
            .calls()
            .any(|e| out.traces.registry.name(e.fn_id()) == "omp_write@counter"));
    }

    #[test]
    fn unprotected_counter_fires_rc001_rc002_rc004() {
        let reg = registry();
        let mut cfg = OmpCounterConfig::default_2x4();
        cfg.fault = Some(OmpCounterFault::Unprotected { rank: 1 });
        let out = run_omp_counter(&cfg, reg.clone());
        assert!(!out.deadlocked, "{:?}", out.errors);
        let r = report(&out, &reg);
        let codes = r.codes();
        assert!(codes.contains(&RaceCode::WriteWrite), "{}", r.render_text());
        assert!(codes.contains(&RaceCode::ReadWrite));
        assert!(codes.contains(&RaceCode::Unprotected));
        // The race lives in process 1 only.
        assert!(r
            .diagnostics()
            .iter()
            .all(|d| d.trace.is_none_or(|t| t.process == 1)));
    }

    #[test]
    fn consistent_lock_order_is_race_clean() {
        let reg = registry();
        let out = run_omp_lockorder(&OmpLockOrderConfig::default_2x3(), reg.clone());
        assert!(!out.deadlocked, "{:?}", out.errors);
        let r = report(&out, &reg);
        assert!(r.is_clean(), "{}", r.render_text());
    }

    #[test]
    fn inverted_lock_order_fires_exactly_rc003() {
        let reg = registry();
        let mut cfg = OmpLockOrderConfig::default_2x3();
        cfg.fault = Some(OmpLockOrderFault::Inverted { rank: 0, thread: 2 });
        let out = run_omp_lockorder(&cfg, reg.clone());
        assert!(
            !out.deadlocked,
            "the round-robin schedule must not deadlock"
        );
        let r = report(&out, &reg);
        assert_eq!(
            r.codes().into_iter().collect::<Vec<_>>(),
            vec![RaceCode::LockOrder],
            "{}",
            r.render_text()
        );
        let d = &r.diagnostics()[0];
        assert!(
            d.message.contains("`alpha` → `beta` → `alpha`"),
            "{}",
            d.message
        );
    }
}
