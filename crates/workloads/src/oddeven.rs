//! MPI odd/even transposition sort (the paper's Figure 2) with the
//! §II-G faults.
//!
//! Every rank holds a block of values; the sort runs `comm_size`
//! phases. In each phase a rank pairs with a neighbour (even phases
//! pair (0,1)(2,3)…, odd phases pair (1,2)(3,4)…); as in the paper's
//! simplified listing, *even* ranks `Send; Recv` and *odd* ranks
//! `Recv; Send`. Lower rank keeps the smaller half.
//!
//! Faults (both "in rank 5 after the seventh iteration" by default):
//!
//! * **swapBug** — the faulty rank swaps its `Recv; Send` order to
//!   `Send; Recv`. Under eager buffering this is a *potential* deadlock
//!   only: execution completes, but the loop body changes from `L1` to
//!   `L0` — Figure 5.
//! * **dlBug** — the faulty rank receives on a tag nobody sends: a real
//!   deadlock that stalls the whole job — Figure 6.

use dt_trace::FunctionRegistry;
use mpisim::{run, MpiError, Rank, RunOutcome, SimConfig};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Fault injected into the odd/even sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OddEvenFault {
    /// Swap the faulty rank's Recv;Send to Send;Recv from `after_iter`.
    SwapBug {
        /// The rank to perturb (the paper uses 5).
        rank: u32,
        /// First affected loop iteration (the paper uses 7).
        after_iter: u32,
    },
    /// Receive on a bogus tag from `after_iter` on: a real deadlock.
    DlBug {
        /// The rank to perturb.
        rank: u32,
        /// First affected loop iteration.
        after_iter: u32,
    },
}

/// Configuration of one odd/even-sort execution.
#[derive(Debug, Clone)]
pub struct OddEvenConfig {
    /// Number of MPI ranks.
    pub ranks: u32,
    /// Values held per rank.
    pub values_per_rank: usize,
    /// RNG seed for the input data.
    pub seed: u64,
    /// Optional fault.
    pub fault: Option<OddEvenFault>,
}

impl OddEvenConfig {
    /// The paper's §II-G setup: 16 ranks.
    pub fn paper(fault: Option<OddEvenFault>) -> OddEvenConfig {
        OddEvenConfig {
            ranks: 16,
            values_per_rank: 4,
            seed: 2019,
            fault,
        }
    }

    /// The swapBug of §II-G: rank 5, after iteration 7.
    pub fn swap_bug() -> OddEvenFault {
        OddEvenFault::SwapBug {
            rank: 5,
            after_iter: 7,
        }
    }

    /// The dlBug of §II-G: rank 5, after iteration 7.
    pub fn dl_bug() -> OddEvenFault {
        OddEvenFault::DlBug {
            rank: 5,
            after_iter: 7,
        }
    }
}

/// Tag used for sort exchanges.
const TAG: i32 = 0;
/// Tag nobody ever sends on (dlBug).
const BOGUS_TAG: i32 = 666;

/// Neighbour of `rank` in phase `i`, or `None` when the rank idles
/// (edge ranks on alternating phases) — `findPtr` in Figure 2.
fn find_ptr(i: u32, rank: u32, size: u32) -> Option<u32> {
    let partner = if i.is_multiple_of(2) {
        // Even phase: pairs (0,1)(2,3)…
        if rank.is_multiple_of(2) {
            rank.checked_add(1)
        } else {
            rank.checked_sub(1)
        }
    } else {
        // Odd phase: pairs (1,2)(3,4)…
        if rank % 2 == 1 {
            rank.checked_add(1)
        } else {
            rank.checked_sub(1)
        }
    };
    partner.filter(|&p| p < size)
}

fn odd_even_sort(
    rank: &Rank,
    mut data: Vec<i64>,
    fault: Option<OddEvenFault>,
) -> Result<Vec<i64>, MpiError> {
    let tracer = rank.tracer();
    let scope = tracer.enter("oddEvenSort");
    let me = rank.rank();
    let cp = rank.size();
    for i in 0..cp {
        tracer.leaf("findPtr");
        let Some(ptr) = find_ptr(i, me, cp) else {
            continue;
        };
        // Which protocol does this rank use this iteration?
        let mut send_first = me.is_multiple_of(2);
        let mut bogus_recv = false;
        match fault {
            Some(OddEvenFault::SwapBug {
                rank: fr,
                after_iter,
            }) if fr == me && i >= after_iter => {
                send_first = !send_first;
            }
            Some(OddEvenFault::DlBug {
                rank: fr,
                after_iter,
            }) if fr == me && i >= after_iter => {
                bogus_recv = true;
            }
            _ => {}
        }
        let received = if bogus_recv {
            // Real deadlock: wait for a message that never comes.
            rank.recv(ptr, BOGUS_TAG)?
        } else if send_first {
            rank.send(ptr, TAG, &data)?;
            rank.recv(ptr, TAG)?
        } else {
            let r = rank.recv(ptr, TAG)?;
            rank.send(ptr, TAG, &data)?;
            r
        };
        // Exchange step: lower rank keeps the smaller half.
        let mut merged = data.clone();
        merged.extend_from_slice(&received);
        merged.sort_unstable();
        data = if me < ptr {
            merged[..data.len()].to_vec()
        } else {
            merged[merged.len() - data.len()..].to_vec()
        };
    }
    drop(scope);
    Ok(data)
}

/// Run the odd/even sort, returning the traces and (through
/// `RunOutcome::errors`) any deadlock. The sorted data is validated by
/// the tests via [`run_oddeven_collecting`].
pub fn run_oddeven(cfg: &OddEvenConfig, registry: Arc<FunctionRegistry>) -> RunOutcome {
    run_oddeven_collecting(cfg, registry).0
}

/// As [`run_oddeven`], also returning each rank's final block (empty
/// for ranks that died).
pub fn run_oddeven_collecting(
    cfg: &OddEvenConfig,
    registry: Arc<FunctionRegistry>,
) -> (RunOutcome, Vec<Vec<i64>>) {
    let results: Mutex<Vec<Vec<i64>>> = Mutex::new(vec![Vec::new(); cfg.ranks as usize]);
    let cfg2 = cfg.clone();
    let sim = SimConfig::new(cfg.ranks).with_watchdog(std::time::Duration::from_secs(20));
    let outcome = run(sim, registry, |rank| {
        let tracer = rank.tracer();
        let main = tracer.enter("main");
        rank.init()?;
        let me = rank.comm_rank()?;
        let _n = rank.comm_size()?;
        // Initialize data to sort (deterministic per rank).
        let mut rng = StdRng::seed_from_u64(cfg2.seed.wrapping_add(u64::from(me)));
        let data: Vec<i64> = (0..cfg2.values_per_rank)
            .map(|_| rng.gen_range(0..10_000))
            .collect();
        let sorted = odd_even_sort(rank, data, cfg2.fault)?;
        results.lock()[me as usize] = sorted;
        rank.finalize()?;
        drop(main);
        Ok(())
    });
    (outcome, results.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_trace::TraceId;

    fn registry() -> Arc<FunctionRegistry> {
        Arc::new(FunctionRegistry::new())
    }

    fn small(fault: Option<OddEvenFault>) -> OddEvenConfig {
        OddEvenConfig {
            ranks: 4,
            values_per_rank: 4,
            seed: 7,
            fault,
        }
    }

    #[test]
    fn normal_run_sorts_globally() {
        let (out, blocks) = run_oddeven_collecting(&small(None), registry());
        assert!(!out.deadlocked, "{:?}", out.errors);
        let all: Vec<i64> = blocks.concat();
        // Each rank's block sorted, and blocks ordered across ranks.
        let mut sorted = all.clone();
        sorted.sort_unstable();
        assert_eq!(all, sorted, "global order violated: {blocks:?}");
    }

    #[test]
    fn find_ptr_matches_paper_pairing() {
        // 4 ranks: even phase pairs (0,1)(2,3); odd phase pairs (1,2).
        assert_eq!(find_ptr(0, 0, 4), Some(1));
        assert_eq!(find_ptr(0, 1, 4), Some(0));
        assert_eq!(find_ptr(0, 2, 4), Some(3));
        assert_eq!(find_ptr(1, 0, 4), None); // edge rank idles
        assert_eq!(find_ptr(1, 1, 4), Some(2));
        assert_eq!(find_ptr(1, 3, 4), None);
        // Partners always see each other.
        for i in 0..8 {
            for r in 0..8u32 {
                if let Some(p) = find_ptr(i, r, 8) {
                    assert_eq!(find_ptr(i, p, 8), Some(r), "phase {i} rank {r}");
                }
            }
        }
    }

    #[test]
    fn trace_shape_matches_table_ii() {
        // 4 ranks: ranks 1,2 exchange every phase (4×), ranks 0,3 only
        // on even phases (2×).
        let (out, _) = run_oddeven_collecting(&small(None), registry());
        let count_sends = |p: u32| {
            let t = out.traces.get(TraceId::master(p)).unwrap();
            t.calls()
                .filter(|e| out.traces.registry.name(e.fn_id()) == "MPI_Send")
                .count()
        };
        assert_eq!(count_sends(0), 2);
        assert_eq!(count_sends(1), 4);
        assert_eq!(count_sends(2), 4);
        assert_eq!(count_sends(3), 2);
    }

    #[test]
    fn swap_bug_still_terminates() {
        let cfg = OddEvenConfig::paper(Some(OddEvenConfig::swap_bug()));
        let out = run_oddeven(&cfg, registry());
        assert!(!out.deadlocked, "swapBug must complete under eager sends");
        // Rank 5's trace still reaches MPI_Finalize.
        let t5 = out.traces.get(TraceId::master(5)).unwrap();
        let names: Vec<String> = t5
            .calls()
            .map(|e| out.traces.registry.name(e.fn_id()))
            .collect();
        assert_eq!(names.last().unwrap(), "MPI_Finalize");
    }

    #[test]
    fn dl_bug_deadlocks_and_truncates_rank_5() {
        let cfg = OddEvenConfig::paper(Some(OddEvenConfig::dl_bug()));
        let out = run_oddeven(&cfg, registry());
        assert!(out.deadlocked);
        let t5 = out.traces.get(TraceId::master(5)).unwrap();
        assert!(t5.truncated);
        let last = t5.iter().next_back().unwrap();
        assert!(last.is_call());
        assert_eq!(out.traces.registry.name(last.fn_id()), "MPI_Recv");
        // No MPI_Finalize in rank 5's trace (Figure 6).
        assert!(!t5
            .calls()
            .any(|e| out.traces.registry.name(e.fn_id()) == "MPI_Finalize"));
    }

    #[test]
    fn shared_registry_aligns_fn_ids_across_runs() {
        let reg = registry();
        let normal = run_oddeven(&small(None), reg.clone());
        let faulty = run_oddeven(
            &small(Some(OddEvenFault::SwapBug {
                rank: 1,
                after_iter: 2,
            })),
            reg.clone(),
        );
        let f = |set: &dt_trace::TraceSet| set.registry.resolve("MPI_Send").unwrap();
        assert_eq!(f(&normal.traces), f(&faulty.traces));
    }
}
