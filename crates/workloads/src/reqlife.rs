//! A nonblocking ring exchange — the request-lifecycle workload for
//! `reqcheck`, run with request tracking on so traces carry
//! `mpi_coll@…` signature markers and `mpi_req_pending@…` teardown
//! witnesses.
//!
//! Every iteration each rank posts `MPI_Irecv` from its left
//! neighbour, `MPI_Isend`s to its right neighbour (above the eager
//! limit, so sends are real rendezvous requests), waits on both, and
//! the ring allreduces a running checksum; a final barrier closes the
//! run.
//!
//! Faults:
//!
//! * [`ReqLifeFault::LeakRequest`] — one rank forgets to `MPI_Wait` on
//!   one of its sends. The message is still consumed by the matching
//!   receive, so the run *completes cleanly* — only the request-balance
//!   accounting (RQ001) and the teardown witness see the leak.
//! * [`ReqLifeFault::MismatchedCollArgs`] — one rank reduces with MAX
//!   while the others use SUM. Real MPI cannot validate op consistency,
//!   so the collective completes (lowest rank's op wins) — the bug is
//!   visible only in the `mpi_coll@` argument signatures (RQ003).

use dt_trace::FunctionRegistry;
use mpisim::{run, ReduceOp, RunOutcome, SimConfig};
use std::sync::Arc;
use std::time::Duration;

/// Fault injected into the ring exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqLifeFault {
    /// `rank` never waits on the send request it posts in iteration
    /// `iter` (a classic forgotten `MPI_Wait`; the run still
    /// terminates).
    LeakRequest {
        /// The faulty rank.
        rank: u32,
        /// The iteration whose send request leaks.
        iter: u32,
    },
    /// `rank` passes `ReduceOp::Max` to every allreduce while the
    /// other ranks pass `ReduceOp::Sum` (silent semantic divergence;
    /// the collective still completes).
    MismatchedCollArgs {
        /// The faulty rank.
        rank: u32,
    },
}

/// Configuration of one ring-exchange execution.
#[derive(Debug, Clone)]
pub struct ReqLifeConfig {
    /// MPI ranks.
    pub ranks: u32,
    /// Ring iterations.
    pub iters: u32,
    /// Optional fault.
    pub fault: Option<ReqLifeFault>,
}

impl ReqLifeConfig {
    /// The default corpus: 4 ranks × 3 iterations.
    pub fn default_4() -> ReqLifeConfig {
        ReqLifeConfig {
            ranks: 4,
            iters: 3,
            fault: None,
        }
    }
}

/// Run the ring exchange with request tracking enabled.
pub fn run_reqlife(cfg: &ReqLifeConfig, registry: Arc<FunctionRegistry>) -> RunOutcome {
    let cfg = cfg.clone();
    // Eager limit below the 32-byte payload: isends park real
    // rendezvous requests instead of completing inline.
    let sim = SimConfig::new(cfg.ranks)
        .with_request_tracking()
        .with_eager_limit(8)
        .with_watchdog(Duration::from_secs(20));
    run(sim, registry, |rank| {
        let tr = rank.tracer();
        let main = tr.enter("main");
        rank.init()?;
        let me = rank.comm_rank()?;
        let n = rank.comm_size()?;
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        let mut value = i64::from(me) + 1;
        for iter in 0..cfg.iters {
            let scope = tr.enter("RingExchange");
            let recv_req = rank.irecv(left, 0)?;
            let payload = vec![value; 4]; // 32 bytes > eager limit
            let send_req = rank.isend(right, 0, &payload)?;
            let got = rank.wait(recv_req)?.expect("recv request yields data");
            let leak = matches!(
                cfg.fault,
                Some(ReqLifeFault::LeakRequest { rank: fr, iter: fi }) if fr == me && fi == iter
            );
            // The forgotten MPI_Wait: on the faulted iteration the
            // handle just goes out of scope; the peer still consumes
            // the message.
            if !leak {
                let none = rank.wait(send_req)?;
                assert!(none.is_none(), "send requests carry no payload");
            }
            value = value.wrapping_add(got[0]);
            drop(scope);

            let op = match cfg.fault {
                Some(ReqLifeFault::MismatchedCollArgs { rank: fr }) if fr == me => ReduceOp::Max,
                _ => ReduceOp::Sum,
            };
            let g = rank.allreduce(&[value], op)?;
            value = g[0] % 1_000;
        }
        rank.barrier()?;
        rank.finalize()?;
        drop(main);
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_reqcheck::{analyze, expanded, ReqCode, ReqVocab};
    use dt_trace::TraceId;
    use std::collections::BTreeSet;

    fn registry() -> Arc<FunctionRegistry> {
        Arc::new(FunctionRegistry::new())
    }

    fn codes(out: &RunOutcome) -> BTreeSet<ReqCode> {
        let vocab = ReqVocab::build(&out.traces.registry);
        let facts: Vec<_> = out
            .traces
            .iter()
            .map(|t| expanded::summarize(t.id, &t.events, t.truncated, &vocab))
            .collect();
        analyze(&facts).codes().into_iter().collect()
    }

    #[test]
    fn clean_run_is_req_clean() {
        let out = run_reqlife(&ReqLifeConfig::default_4(), registry());
        assert!(!out.deadlocked, "{:?}", out.errors);
        assert!(codes(&out).is_empty(), "{:?}", codes(&out));
        // Signature markers are present on every rank.
        for p in 0..4 {
            let t = out.traces.get(TraceId::master(p)).unwrap();
            assert!(t
                .calls()
                .any(|e| out.traces.registry.name(e.fn_id()) == "mpi_coll@MPI_Allreduce:1:-:sum"));
        }
    }

    #[test]
    fn leak_request_fires_exactly_rq001_with_a_named_witness() {
        let fault = ReqLifeFault::LeakRequest { rank: 2, iter: 1 };
        let cfg = ReqLifeConfig {
            fault: Some(fault),
            ..ReqLifeConfig::default_4()
        };
        let out = run_reqlife(&cfg, registry());
        assert!(!out.deadlocked, "the leak must not hang: {:?}", out.errors);
        assert_eq!(codes(&out), BTreeSet::from([ReqCode::Leaked]));
        let vocab = ReqVocab::build(&out.traces.registry);
        let facts: Vec<_> = out
            .traces
            .iter()
            .map(|t| expanded::summarize(t.id, &t.events, t.truncated, &vocab))
            .collect();
        let report = analyze(&facts);
        let d = &report.diagnostics()[0];
        assert_eq!(d.trace, Some(TraceId::master(2)));
        assert!(
            d.hint
                .as_deref()
                .is_some_and(|h| h.contains("MPI_Isend:dst=3,tag=0")),
            "{:?}",
            d.hint
        );
    }

    #[test]
    fn mismatched_coll_args_fires_exactly_rq003_and_terminates() {
        let fault = ReqLifeFault::MismatchedCollArgs { rank: 1 };
        let cfg = ReqLifeConfig {
            fault: Some(fault),
            ..ReqLifeConfig::default_4()
        };
        let out = run_reqlife(&cfg, registry());
        assert!(!out.deadlocked, "{:?}", out.errors);
        assert_eq!(codes(&out), BTreeSet::from([ReqCode::SignatureMismatch]));
        let vocab = ReqVocab::build(&out.traces.registry);
        let facts: Vec<_> = out
            .traces
            .iter()
            .map(|t| expanded::summarize(t.id, &t.events, t.truncated, &vocab))
            .collect();
        let report = analyze(&facts);
        let d = &report.diagnostics()[0];
        assert_eq!(
            d.trace,
            Some(TraceId::master(1)),
            "anchored on the divergent rank"
        );
        assert!(d.message.contains("MPI_Allreduce:1:-:max"), "{}", d.message);
    }

    #[test]
    fn faulty_kind_order_would_be_rq004_not_rq003() {
        // Sanity for the rule split: the coll-args fault keeps the kind
        // order identical across ranks.
        let fault = ReqLifeFault::MismatchedCollArgs { rank: 1 };
        let cfg = ReqLifeConfig {
            fault: Some(fault),
            ..ReqLifeConfig::default_4()
        };
        let out = run_reqlife(&cfg, registry());
        let vocab = ReqVocab::build(&out.traces.registry);
        let kind_seq = |p: u32| {
            let t = out.traces.get(TraceId::master(p)).unwrap();
            expanded::summarize(t.id, &t.events, t.truncated, &vocab).kinds
        };
        assert_eq!(kind_seq(0), kind_seq(1));
    }
}
