//! Randomized stress tests for the simulated MPI runtime: correct
//! protocols never deadlock; broken protocols always *terminate* (the
//! detector fires rather than hanging the process).

use dt_trace::FunctionRegistry;
use mpisim::{run, ReduceOp, SimConfig};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    // Each case spawns real threads: keep the counts modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A shifting ring with random message sizes (straddling the eager
    /// limit) and a parity-safe protocol completes for any world size.
    #[test]
    fn safe_ring_never_deadlocks(
        n in 2u32..8,
        msg_len in 1usize..60,
        eager in 8usize..256,
        rounds in 1u32..4,
    ) {
        let cfg = SimConfig::new(n).with_eager_limit(eager);
        let out = run(cfg, Arc::new(FunctionRegistry::new()), move |rank| {
            rank.init()?;
            let me = rank.rank();
            let next = (me + 1) % n;
            let prev = (me + n - 1) % n;
            let data = vec![i64::from(me); msg_len];
            for r in 0..rounds {
                // Parity-safe: even ranks send first. With odd world
                // sizes the "ring" parity trick breaks, so serialize
                // through rank 0 instead.
                if n % 2 == 0 {
                    if me % 2 == 0 {
                        rank.send(next, r as i32, &data)?;
                        let _ = rank.recv(prev, r as i32)?;
                    } else {
                        let _ = rank.recv(prev, r as i32)?;
                        rank.send(next, r as i32, &data)?;
                    }
                } else if me == 0 {
                    rank.send(next, r as i32, &data)?;
                    let _ = rank.recv(prev, r as i32)?;
                } else {
                    let _ = rank.recv(prev, r as i32)?;
                    rank.send(next, r as i32, &data)?;
                }
                rank.barrier()?;
            }
            rank.finalize()
        });
        prop_assert!(!out.deadlocked, "errors: {:?}", out.errors);
        prop_assert!(out.errors.is_empty());
    }

    /// Random collective sequences complete when all ranks agree.
    #[test]
    fn agreeing_collectives_complete(
        n in 2u32..6,
        script in proptest::collection::vec(0u8..4, 1..8),
    ) {
        let script = Arc::new(script);
        let s2 = script.clone();
        let out = run(SimConfig::new(n), Arc::new(FunctionRegistry::new()), move |rank| {
            rank.init()?;
            let me = i64::from(rank.rank());
            for (i, op) in s2.iter().enumerate() {
                match op {
                    0 => { rank.barrier()?; }
                    1 => { let _ = rank.allreduce(&[me], ReduceOp::Sum)?; }
                    2 => { let _ = rank.reduce(&[me], ReduceOp::Max, (i as u32) % n)?; }
                    _ => { let _ = rank.bcast(&[i as i64], 1, (i as u32) % n)?; }
                }
            }
            rank.finalize()
        });
        prop_assert!(!out.deadlocked, "errors: {:?}", out.errors);
    }

    /// A rank that drops out of a random collective slot produces a
    /// detected deadlock (truncated traces), never a hang.
    #[test]
    fn dropping_out_is_detected(
        n in 2u32..6,
        steps in 1usize..5,
        culprit_seed in 0u32..100,
    ) {
        let culprit = culprit_seed % n;
        let out = run(SimConfig::new(n), Arc::new(FunctionRegistry::new()), move |rank| {
            rank.init()?;
            for s in 0..steps {
                if rank.rank() == culprit && s == steps - 1 {
                    // Skip the final collective entirely.
                    break;
                }
                rank.barrier()?;
            }
            rank.finalize()
        });
        prop_assert!(out.deadlocked);
        // Every non-culprit rank's trace ends in the unreturned barrier.
        for t in out.traces.iter() {
            if t.id.process != culprit {
                let last = t.iter().next_back().unwrap();
                prop_assert!(last.is_call());
                prop_assert_eq!(out.traces.registry.name(last.fn_id()), "MPI_Barrier");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever collective script the ranks agree on, a single rank
    /// diverging at a random step (wrong count) is always *detected* —
    /// the run ends in a deadlock verdict with every trace truncated at
    /// the divergent slot, never a hang and never silent success.
    #[test]
    fn any_single_divergence_is_detected(
        n in 2u32..6,
        script in proptest::collection::vec(0u8..3, 1..6),
        culprit_seed in 0u32..97,
        step_seed in 0u32..97,
    ) {
        let culprit = culprit_seed % n;
        let bad_step = (step_seed as usize) % script.len();
        let script = Arc::new(script);
        let s2 = script.clone();
        let out = run(SimConfig::new(n), Arc::new(FunctionRegistry::new()), move |rank| {
            rank.init()?;
            let me = i64::from(rank.rank());
            for (i, op) in s2.iter().enumerate() {
                let diverge = rank.rank() == culprit && i == bad_step;
                match op {
                    0 => {
                        // Wrong count on the divergent step.
                        let count = if diverge { 3 } else { 1 };
                        let _ = rank.allreduce_with_count(&[me], ReduceOp::Sum, count)?;
                    }
                    1 => {
                        if diverge {
                            // Calls a different collective entirely.
                            let _ = rank.allreduce(&[me], ReduceOp::Min)?;
                        } else {
                            rank.barrier()?;
                        }
                    }
                    _ => {
                        // Divergent root must actually differ from the
                        // healthy root 0.
                        let root = if diverge {
                            if rank.rank() == 0 { 1 } else { rank.rank() }
                        } else {
                            0
                        };
                        let _ = rank.bcast(&[i as i64], 1, root)?;
                    }
                }
            }
            rank.finalize()
        });
        prop_assert!(out.deadlocked, "divergence must be detected");
        // Every master truncated (no one escapes a collective hang).
        for t in out.traces.iter() {
            prop_assert!(t.truncated, "trace {} escaped", t.id);
        }
    }
}
