//! A 1-D heat-diffusion stencil — a fourth workload beyond the paper's
//! three, exercising the full collective family (`MPI_Scatter`,
//! `MPI_Sendrecv`, `MPI_Allreduce`, `MPI_Gather`) in the shape of a
//! classic domain-decomposed iterative solver.
//!
//! Rank 0 scatters the initial rod temperatures; every iteration each
//! rank exchanges halo cells with both neighbours via `MPI_Sendrecv`,
//! applies the explicit-Euler update, and the job allreduces the
//! residual until convergence; rank 0 gathers the final field.
//!
//! Faults:
//!
//! * [`StencilFault::WrongNeighbor`] — one rank exchanges its halo with
//!   the wrong peer: its true neighbours starve → detected deadlock
//!   (trace truncation at `MPI_Sendrecv`).
//! * [`StencilFault::StaleHalo`] — one rank keeps communicating but
//!   never *applies* the received halos (a forgot-to-unpack bug): the
//!   run terminates with a wrong field; the per-iteration call shape
//!   is unchanged but the convergence length — and hence the loop
//!   counts DiffTrace mines — shifts.
//! * [`StencilFault::FlippedSign`] — one rank applies the stencil with
//!   a flipped diffusion sign: the per-iteration call shape is
//!   **identical**; only the convergence length (and hence loop trip
//!   counts) moves — the same faint, global signal as the paper's
//!   wrong-collective-op bug, marking the boundary of what call-trace
//!   diffing can see.

use dt_trace::FunctionRegistry;
use mpisim::{run, RunOutcome, SimConfig};
use parking_lot::Mutex;
use std::sync::Arc;

/// Fault injected into the stencil solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StencilFault {
    /// `rank` exchanges its right halo with `wrong_peer` instead of
    /// its true right neighbour.
    WrongNeighbor {
        /// The faulty rank.
        rank: u32,
        /// The peer it wrongly talks to.
        wrong_peer: u32,
    },
    /// `rank` still exchanges halos but ignores the received values
    /// from iteration `after_iter` on (uses stale boundary data).
    StaleHalo {
        /// The faulty rank.
        rank: u32,
        /// First affected iteration.
        after_iter: u32,
    },
    /// `rank` flips the sign of the diffusion term (silent numeric
    /// corruption, identical trace shape).
    FlippedSign {
        /// The faulty rank.
        rank: u32,
    },
    /// `rank` swaps the send/receive tags of its halo exchanges: it
    /// sends what its neighbours do not expect and waits for what they
    /// never send. Both sides block inside `MPI_Sendrecv` — a true
    /// receive↔receive wait-for cycle (`hbcheck` HB001) plus
    /// wrong-tag messages that are never consumed (HB003).
    TagMismatch {
        /// The faulty rank.
        rank: u32,
    },
}

/// Configuration of one stencil execution.
#[derive(Debug, Clone)]
pub struct StencilConfig {
    /// MPI ranks.
    pub ranks: u32,
    /// Grid cells per rank.
    pub cells_per_rank: usize,
    /// Maximum iterations.
    pub max_iters: u32,
    /// Convergence threshold on the residual (scaled integer).
    pub residual_threshold: i64,
    /// Optional fault.
    pub fault: Option<StencilFault>,
}

impl StencilConfig {
    /// A medium default: 8 ranks × 16 cells.
    pub fn default_8() -> StencilConfig {
        StencilConfig {
            ranks: 8,
            cells_per_rank: 16,
            max_iters: 400,
            residual_threshold: 400,
            fault: None,
        }
    }
}

/// Run the solver; also returns rank 0's gathered final field (empty
/// if the run died before gathering).
pub fn run_stencil(cfg: &StencilConfig, registry: Arc<FunctionRegistry>) -> (RunOutcome, Vec<i64>) {
    let cfg = cfg.clone();
    let final_field: Mutex<Vec<i64>> = Mutex::new(Vec::new());
    let sim = SimConfig::new(cfg.ranks).with_watchdog(std::time::Duration::from_secs(20));
    let outcome = run(sim, registry, |rank| {
        let tr = rank.tracer();
        let main = tr.enter("main");
        rank.init()?;
        let me = rank.comm_rank()?;
        let n = rank.comm_size()?;
        let cells = cfg.cells_per_rank;

        // Rank 0 builds a hot-spot initial condition and scatters it.
        let full: Vec<i64> = (0..cells * n as usize)
            .map(|i| if i < cells { 10_000 } else { 0 })
            .collect();
        let scope = tr.enter("InitializeField");
        let mut field = rank.scatter(&full, cells, 0)?;
        drop(scope);

        let left = me.checked_sub(1);
        let right = (me + 1 < n).then_some(me + 1);

        for iter in 0..cfg.max_iters {
            // Halo exchange (possibly faulty).
            let mut stale = false;
            let mut right_peer = right;
            let mut swap_tags = false;
            match cfg.fault {
                Some(StencilFault::StaleHalo {
                    rank: fr,
                    after_iter,
                }) if fr == me && iter >= after_iter => {
                    stale = true;
                }
                Some(StencilFault::WrongNeighbor {
                    rank: fr,
                    wrong_peer,
                }) if fr == me => {
                    right_peer = Some(wrong_peer);
                }
                Some(StencilFault::TagMismatch { rank: fr }) if fr == me => {
                    swap_tags = true;
                }
                _ => {}
            }
            // Tag convention: tag 0 flows leftward, tag 1 rightward.
            // The faulty rank uses them backwards, so it and a true
            // neighbour each wait for a tag the other never sends.
            let (tag_a, tag_b) = if swap_tags { (1, 0) } else { (0, 1) };
            let scope = tr.enter("HaloExchange");
            let mut left_halo = field[0];
            let mut right_halo = *field.last().unwrap();
            if let Some(l) = left {
                let got = rank.sendrecv(l, tag_a, &[field[0]], l, tag_b)?;
                if !stale {
                    left_halo = got[0];
                }
            }
            if let Some(r) = right_peer {
                let got = rank.sendrecv(r, tag_b, &[*field.last().unwrap()], r, tag_a)?;
                if !stale {
                    right_halo = got[0];
                }
            }
            drop(scope);

            // Explicit Euler update: u' = u + α(∇²u), α = 1/4 in
            // fixed-point arithmetic.
            let scope = tr.enter("ApplyStencil");
            let sign = match cfg.fault {
                Some(StencilFault::FlippedSign { rank: fr }) if fr == me => -1,
                _ => 1,
            };
            let mut next = field.clone();
            let mut local_residual = 0i64;
            for i in 0..cells {
                let l = if i == 0 { left_halo } else { field[i - 1] };
                let r = if i + 1 == cells {
                    right_halo
                } else {
                    field[i + 1]
                };
                // Saturating fixed-point arithmetic: the flipped-sign
                // fault anti-diffuses and would overflow (a trap in
                // debug builds); real codes in f64 would go to ±inf —
                // saturation is the integer analogue.
                let lap = (l as i128 + r as i128 - 2 * field[i] as i128)
                    .clamp(i64::MIN as i128, i64::MAX as i128) as i64;
                let delta = (lap / 4).saturating_mul(sign);
                next[i] = field[i]
                    .saturating_add(delta)
                    .clamp(-1_000_000_000_000, 1_000_000_000_000);
                local_residual = local_residual.saturating_add(delta.abs());
            }
            field = next;
            drop(scope);

            // Global convergence check.
            let g = rank.allreduce(&[local_residual], mpisim::ReduceOp::Sum)?;
            if g[0] <= cfg.residual_threshold {
                break;
            }
        }

        let gathered = rank.gather(&field, 0)?;
        if let Some(all) = gathered {
            tr.leaf("WriteOutput");
            *final_field.lock() = all;
        }
        rank.finalize()?;
        drop(main);
        Ok(())
    });
    (outcome, final_field.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_trace::TraceId;

    fn registry() -> Arc<FunctionRegistry> {
        Arc::new(FunctionRegistry::new())
    }

    fn small(fault: Option<StencilFault>) -> StencilConfig {
        StencilConfig {
            ranks: 4,
            cells_per_rank: 8,
            max_iters: 400,
            residual_threshold: 200,
            fault,
        }
    }

    fn calls(out: &RunOutcome, id: TraceId, name: &str) -> usize {
        out.traces
            .get(id)
            .unwrap()
            .calls()
            .filter(|e| out.traces.registry.name(e.fn_id()) == name)
            .count()
    }

    #[test]
    fn normal_run_diffuses_heat() {
        let (out, field) = run_stencil(&small(None), registry());
        assert!(!out.deadlocked, "{:?}", out.errors);
        assert_eq!(field.len(), 32);
        // Heat spreads right past the second rank's boundary.
        assert!(field[16] > 0, "heat must diffuse: {field:?}");
        // Heat never exceeds the initial total (integer truncation
        // only loses energy).
        let total: i64 = field.iter().sum();
        assert!(total > 7_000 && total <= 80_000, "total {total}");
        // Trace shape: interior ranks sendrecv twice per iteration.
        assert!(calls(&out, TraceId::master(1), "MPI_Sendrecv") >= 4);
    }

    #[test]
    fn wrong_neighbor_deadlocks() {
        let fault = StencilFault::WrongNeighbor {
            rank: 1,
            wrong_peer: 3,
        };
        let (out, _) = run_stencil(&small(Some(fault)), registry());
        assert!(out.deadlocked);
        // Some master died inside the halo exchange.
        assert!(out.traces.iter().any(|t| {
            t.truncated
                && t.iter()
                    .next_back()
                    .is_some_and(|e| out.traces.registry.name(e.fn_id()) == "MPI_Sendrecv")
        }));
    }

    #[test]
    fn tag_mismatch_is_a_true_recv_recv_wait_cycle() {
        let fault = StencilFault::TagMismatch { rank: 1 };
        let reg = registry();
        let (out, _) = run_stencil(&small(Some(fault)), reg.clone());
        assert!(out.deadlocked);
        // The wait-for graph must contain the faulty rank and its left
        // neighbour waiting on each other inside MPI_Sendrecv.
        let progress: Vec<_> = out
            .traces
            .iter()
            .map(|t| hbcheck::expanded::summarize(t.id, &t.events, t.truncated))
            .collect();
        let report = hbcheck::analyze(&out.hb, &progress, &reg);
        let cycle = report
            .diagnostics()
            .iter()
            .find(|d| d.code == hbcheck::HbCode::WaitCycle)
            .expect("HB001 must fire on the tag-mismatch deadlock");
        assert!(
            cycle
                .message
                .contains("rank 0 blocked in MPI_Sendrecv(src=1, tag=0)"),
            "{}",
            cycle.message
        );
        assert!(
            cycle
                .message
                .contains("rank 1 blocked in MPI_Sendrecv(src=0, tag=0)"),
            "{}",
            cycle.message
        );
        // The wrong-tag messages are flagged as never received.
        assert!(report.codes().contains(&hbcheck::HbCode::UnmatchedSend));
    }

    #[test]
    fn stale_halo_terminates_with_wrong_field() {
        let fault = StencilFault::StaleHalo {
            rank: 2,
            after_iter: 2,
        };
        let reg = registry();
        let (normal, nf) = run_stencil(&small(None), reg.clone());
        let (faulty, ff) = run_stencil(&small(Some(fault)), reg);
        assert!(!faulty.deadlocked, "{:?}", faulty.errors);
        // The physical result differs …
        assert_ne!(nf, ff, "stale halos must corrupt the field");
        // … and the convergence length (loop trip counts) shifts,
        // which is what DiffTrace mines from the traces.
        let id = TraceId::master(0);
        assert_ne!(
            calls(&faulty, id, "MPI_Allreduce"),
            calls(&normal, id, "MPI_Allreduce"),
            "convergence length should change"
        );
    }

    #[test]
    fn flipped_sign_is_trace_invisible_but_numerically_wrong() {
        let fault = StencilFault::FlippedSign { rank: 1 };
        let reg = registry();
        let (normal, nf) = run_stencil(&small(None), reg.clone());
        let (faulty, ff) = run_stencil(&small(Some(fault)), reg);
        assert!(!faulty.deadlocked);
        // Numerically wrong …
        assert_ne!(nf, ff);
        // … but the per-iteration call shape of the faulty rank is the
        // same MPI alphabet (the documented blind spot of call-trace
        // diffing; only convergence length may differ).
        let names = |out: &RunOutcome| {
            let mut v: Vec<String> = out
                .traces
                .get(TraceId::master(1))
                .unwrap()
                .calls()
                .map(|e| out.traces.registry.name(e.fn_id()))
                .collect();
            v.dedup();
            v.sort();
            v.dedup();
            v
        };
        assert_eq!(names(&normal), names(&faulty));
    }
}
