//! Launching simulated executions.

use crate::error::{AbortReason, MpiError};
use crate::hb::{BlockedOp, HbLog, PendingCollective, UnmatchedSend};
use crate::rank::Rank;
use crate::world::{World, WorldState};
use dt_trace::{FunctionRegistry, TraceCollector, TraceSet};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of one simulated execution.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Number of MPI ranks.
    pub world_size: u32,
    /// Eager/rendezvous threshold in bytes. The default of 256 bytes
    /// mirrors small-message eager protocols; workloads that want to
    /// exercise the low-buffering `Send ‖ Send` trap lower it.
    pub eager_limit: usize,
    /// Wall-clock watchdog: if no simulation progress happens for this
    /// long the run is aborted (backstop for stalls the quiescence
    /// detector cannot see, e.g. user-code livelock).
    pub watchdog: Duration,
    /// Also trace MPI-internal library calls (`MPIDI_*`/`MPIR_*`,
    /// transport and progress-engine functions) — the analogue of
    /// ParLOT's "all images" mode; the paper's runs used "main image"
    /// only, so this defaults to off.
    pub trace_internals: bool,
    /// Emit request-lifecycle markers for the `reqcheck` analysis:
    /// `mpi_coll@<kind:count:root:op>` argument signatures inside every
    /// collective call, and `mpi_req_pending@<origin>` teardown
    /// witnesses for requests posted but never waited on. Off by
    /// default so existing trace shapes are untouched.
    pub record_requests: bool,
}

impl SimConfig {
    /// Defaults for `world_size` ranks.
    pub fn new(world_size: u32) -> SimConfig {
        SimConfig {
            world_size,
            eager_limit: 256,
            watchdog: Duration::from_secs(10),
            trace_internals: false,
            record_requests: false,
        }
    }

    /// Enable MPI-internal call tracing (ParLOT "all images").
    pub fn with_internals(mut self) -> SimConfig {
        self.trace_internals = true;
        self
    }

    /// Enable request-lifecycle markers (for `reqcheck`).
    pub fn with_request_tracking(mut self) -> SimConfig {
        self.record_requests = true;
        self
    }

    /// Override the eager limit.
    pub fn with_eager_limit(mut self, bytes: usize) -> SimConfig {
        self.eager_limit = bytes;
        self
    }

    /// Override the watchdog timeout.
    pub fn with_watchdog(mut self, d: Duration) -> SimConfig {
        self.watchdog = d;
        self
    }
}

/// Everything a simulated execution produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// All per-thread traces (ParLOT's output for this execution).
    pub traces: TraceSet,
    /// Did the run abort due to detected deadlock?
    pub deadlocked: bool,
    /// Abort reason, when aborted.
    pub abort_reason: Option<AbortReason>,
    /// Per-rank errors (aborted operations, invalid arguments).
    pub errors: Vec<(u32, MpiError)>,
    /// Causally-stamped MPI event log (vector clocks; see
    /// [`crate::hb`]).
    pub hb: HbLog,
}

/// Snapshot the world's happens-before state into a self-contained
/// [`HbLog`]: the stamped event log plus, for aborted runs, the frozen
/// blocked-operation / in-flight-collective / unconsumed-message state
/// that the wait-for-graph analysis (`hbcheck`) consumes.
fn export_hb(st: &WorldState) -> HbLog {
    let mut hb = st.hb.clone();

    hb.blocked = st
        .waiting
        .iter()
        .map(|(&rank, (name, op))| BlockedOp {
            rank,
            name: name.clone(),
            op: *op,
        })
        .collect();
    hb.blocked.sort_by_key(|b| b.rank);

    hb.pending_collectives = st
        .collectives
        .iter()
        .map(|(&slot, inst)| {
            let arrived: Vec<u32> = (0..inst.vcs.len() as u32)
                .filter(|&r| inst.vcs[r as usize].is_some())
                .collect();
            let mismatched = arrived
                .iter()
                .copied()
                .filter(|&r| !inst.sig_ok[r as usize])
                .collect();
            PendingCollective {
                slot,
                name: inst.signature.kind.mpi_name().to_string(),
                arrived,
                mismatched,
            }
        })
        .collect();
    hb.pending_collectives.sort_by_key(|p| p.slot);

    let mut unmatched: BTreeMap<(u32, u32, i32), u64> = BTreeMap::new();
    for (&(src, dst, tag), q) in &st.mailbox {
        if !q.is_empty() {
            *unmatched.entry((src, dst, tag)).or_default() += q.len() as u64;
        }
    }
    for p in &st.pending_sends {
        *unmatched.entry((p.src, p.dst, p.tag)).or_default() += 1;
    }
    hb.unmatched_sends = unmatched
        .into_iter()
        .map(|((src, dst, tag), count)| UnmatchedSend {
            src,
            dst,
            tag,
            count,
        })
        .collect();

    // A rank aborted *inside* a blocked operation is hung, not done —
    // its thread returned, but for happens-before purposes it counts
    // as blocked, never finished.
    hb.finished = st
        .finished_ranks
        .iter()
        .copied()
        .filter(|r| !st.waiting.contains_key(r))
        .collect();
    hb.finished.sort_unstable();
    hb
}

/// Run `body` on every rank of a fresh world, collecting traces.
///
/// `body` is shared by all ranks (it receives the rank handle); rank
/// threads are real OS threads. The call returns when every rank body
/// has returned — on deadlock, the detector aborts blocked operations
/// so bodies unwind with `Err(Aborted)`.
pub fn run<F>(config: SimConfig, registry: Arc<FunctionRegistry>, body: F) -> RunOutcome
where
    F: Fn(&Rank) -> Result<(), MpiError> + Send + Sync,
{
    let collector = TraceCollector::shared(registry);
    let world = World::new_full(
        config.world_size,
        config.eager_limit,
        config.trace_internals,
        config.record_requests,
    );
    let errors: Mutex<Vec<(u32, MpiError)>> = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        for r in 0..config.world_size {
            let world = Arc::clone(&world);
            let collector = Arc::clone(&collector);
            let body = &body;
            let errors = &errors;
            s.spawn(move || {
                let rank = Rank::new(world.clone(), r, collector);
                // A panicking body models a crashed process: its trace
                // is frozen where it died and the rank still counts as
                // finished, so the deadlock detector / watchdog see the
                // survivors correctly instead of waiting forever.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&rank)));
                let result = match result {
                    Ok(r) => r,
                    Err(_) => {
                        rank.tracer().poison();
                        Err(MpiError::RankPanicked)
                    }
                };
                // Requests the body posted but never waited on become
                // explicit teardown witnesses (no-op on a poisoned
                // trace or when request tracking is off).
                rank.export_pending_requests();
                world.rank_done(r);
                if let Err(e) = result {
                    errors.lock().push((r, e));
                }
                drop(rank); // submits the trace
            });
        }
        // Watchdog: poll the progress version; abort on stall. Exits
        // when every rank has finished.
        let world_w = Arc::clone(&world);
        let cfg = config;
        s.spawn(move || {
            let mut last_version = world_w.progress_version();
            let mut last_change = Instant::now();
            loop {
                std::thread::sleep(Duration::from_millis(20));
                let done = world_w.with_state(|st| st.finished) >= cfg.world_size;
                if done {
                    return;
                }
                let v = world_w.progress_version();
                if v != last_version {
                    last_version = v;
                    last_change = Instant::now();
                } else if last_change.elapsed() > cfg.watchdog {
                    world_w.abort(AbortReason::WatchdogTimeout);
                    // Keep polling until ranks drain.
                    last_change = Instant::now();
                }
            }
        });
    });

    let abort_reason = world.with_state(|st| st.aborted);
    let hb = world.with_state(export_hb);
    let mut errors = errors.into_inner();
    errors.sort_by_key(|&(r, _)| r);
    RunOutcome {
        traces: collector.into_trace_set(),
        deadlocked: abort_reason == Some(AbortReason::Deadlock),
        abort_reason,
        errors,
        hb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> Arc<FunctionRegistry> {
        Arc::new(FunctionRegistry::new())
    }

    #[test]
    fn empty_bodies_complete() {
        let out = run(SimConfig::new(3), registry(), |rank| rank.finalize());
        assert!(!out.deadlocked);
        assert!(out.abort_reason.is_none());
        assert_eq!(out.traces.len(), 3);
    }

    #[test]
    fn watchdog_kills_livelock() {
        let cfg = SimConfig::new(1).with_watchdog(Duration::from_millis(150));
        let t0 = Instant::now();
        let out = run(cfg, registry(), |rank| {
            rank.init()?;
            // Livelock: spin until the watchdog kills the run (polling
            // the abort flag like a well-behaved worker).
            while !rank.world().is_aborted() {
                std::hint::spin_loop();
            }
            rank.tracer().poison();
            Err(MpiError::Aborted(AbortReason::WatchdogTimeout))
        });
        assert_eq!(out.abort_reason, Some(AbortReason::WatchdogTimeout));
        assert!(!out.deadlocked);
        assert!(t0.elapsed() < Duration::from_secs(8), "watchdog too slow");
        assert!(
            out.traces
                .get(dt_trace::TraceId::master(0))
                .unwrap()
                .truncated
        );
    }

    #[test]
    fn rank_panic_is_a_crash_not_a_hang() {
        let t0 = Instant::now();
        let out = run(SimConfig::new(3), registry(), |rank| {
            rank.init()?;
            if rank.rank() == 1 {
                panic!("simulated crash (e.g. debug-mode overflow)");
            }
            let _ = rank.allreduce(&[1], crate::ReduceOp::Sum)?;
            rank.finalize()
        });
        // The survivors' allreduce can never complete: detected deadlock.
        assert!(out.deadlocked);
        assert!(
            out.errors
                .iter()
                .any(|(r, e)| *r == 1 && matches!(e, MpiError::RankPanicked)),
            "{:?}",
            out.errors
        );
        // The crashed rank's trace is frozen mid-call.
        assert!(
            out.traces
                .get(dt_trace::TraceId::master(1))
                .unwrap()
                .truncated
        );
        // And the whole thing resolves promptly (no watchdog wait).
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn deterministic_trace_shapes_across_runs() {
        let run_once = || {
            let out = run(SimConfig::new(4), registry(), |rank| {
                rank.init()?;
                let r = rank.comm_rank()?;
                let _ = rank.allreduce(&[i64::from(r)], crate::ReduceOp::Sum)?;
                rank.barrier()?;
                rank.finalize()
            });
            let mut shape = Vec::new();
            for t in out.traces.iter() {
                let names: Vec<String> = t
                    .iter()
                    .map(|e| out.traces.registry.name(e.fn_id()))
                    .collect();
                shape.push((t.id, names));
            }
            shape
        };
        assert_eq!(run_once(), run_once());
    }
}
