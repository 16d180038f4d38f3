//! The catalogue of `difftrace demo` corpora: every pair workload's
//! normal and faulty run, and every fleet. The CLI writes these and the
//! test suites rebuild them from here, so a workload added to the
//! catalogue reaches both.

use crate::*;
use dt_trace::FunctionRegistry;
use std::sync::Arc;

/// The pair workloads, in the order `difftrace demo` lists them.
pub const DEMO_PAIRS: &[&str] = &[
    "oddeven",
    "oddeven-dl",
    "ilcs-crit",
    "ilcs-size",
    "ilcs-op",
    "lulesh",
    "stencil-tag",
    "lulesh-coll",
    "omp-counter",
    "omp-lockorder",
    "isend-leak",
    "coll-args",
];

/// The fleet workloads: healthy runs plus one injected fault.
pub const DEMO_FLEETS: &[&str] = &["fleet-oddeven", "fleet-stencil"];

/// Healthy runs per demo fleet.
pub const FLEET_HEALTHY: usize = 8;

/// The normal and faulty run of pair workload `name`, both recorded
/// against `registry`; `None` for a name not in [`DEMO_PAIRS`].
pub fn demo_pair(name: &str, registry: &Arc<FunctionRegistry>) -> Option<(RunOutcome, RunOutcome)> {
    let run = |faulty: bool| -> Option<RunOutcome> {
        let r = registry.clone();
        Some(match name {
            "oddeven" => {
                let fault = faulty.then(OddEvenConfig::swap_bug);
                run_oddeven(&OddEvenConfig::paper(fault), r)
            }
            "oddeven-dl" => {
                let fault = faulty.then(OddEvenConfig::dl_bug);
                run_oddeven(&OddEvenConfig::paper(fault), r)
            }
            "ilcs-crit" => {
                let fault = faulty.then(IlcsConfig::omp_crit_bug);
                run_ilcs(&IlcsConfig::paper(fault), r)
            }
            "ilcs-size" => {
                let fault = faulty.then(IlcsConfig::coll_size_bug);
                run_ilcs(&IlcsConfig::paper(fault), r)
            }
            "ilcs-op" => {
                let fault = faulty.then(IlcsConfig::wrong_op_bug);
                run_ilcs(&IlcsConfig::paper(fault), r)
            }
            "lulesh" => {
                let fault = faulty.then(LuleshConfig::skip_bug);
                run_lulesh(&LuleshConfig::paper(fault), r)
            }
            "stencil-tag" => {
                let cfg = StencilConfig {
                    fault: faulty.then_some(StencilFault::TagMismatch { rank: 1 }),
                    ..StencilConfig::default_8()
                };
                run_stencil(&cfg, r).0
            }
            "lulesh-coll" => {
                let fault = faulty.then_some(LuleshFault::SkipCollective { rank: 2 });
                run_lulesh(&LuleshConfig::paper(fault), r)
            }
            "omp-counter" => {
                let cfg = OmpCounterConfig {
                    fault: faulty.then_some(OmpCounterFault::Unprotected { rank: 1 }),
                    ..OmpCounterConfig::default_2x4()
                };
                run_omp_counter(&cfg, r)
            }
            "omp-lockorder" => {
                let cfg = OmpLockOrderConfig {
                    fault: faulty.then_some(OmpLockOrderFault::Inverted { rank: 0, thread: 2 }),
                    ..OmpLockOrderConfig::default_2x3()
                };
                run_omp_lockorder(&cfg, r)
            }
            "isend-leak" => {
                let cfg = ReqLifeConfig {
                    fault: faulty.then_some(ReqLifeFault::LeakRequest { rank: 2, iter: 1 }),
                    ..ReqLifeConfig::default_4()
                };
                run_reqlife(&cfg, r)
            }
            "coll-args" => {
                let cfg = ReqLifeConfig {
                    fault: faulty.then_some(ReqLifeFault::MismatchedCollArgs { rank: 1 }),
                    ..ReqLifeConfig::default_4()
                };
                run_reqlife(&cfg, r)
            }
            _ => return None,
        })
    };
    Some((run(false)?, run(true)?))
}

/// Every `(run name, run)` of fleet workload `name`; `None` for a name
/// not in [`DEMO_FLEETS`].
pub fn demo_fleet(name: &str) -> Option<Vec<(String, RunOutcome)>> {
    match name {
        "fleet-oddeven" => Some(oddeven_fleet(FLEET_HEALTHY)),
        "fleet-stencil" => Some(stencil_fleet(FLEET_HEALTHY)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_names_have_no_corpus() {
        let registry = Arc::new(FunctionRegistry::new());
        assert!(demo_pair("nope", &registry).is_none());
        assert!(demo_pair("fleet-oddeven", &registry).is_none());
        assert!(demo_fleet("oddeven").is_none());
    }
}
