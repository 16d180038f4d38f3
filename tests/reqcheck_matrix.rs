//! Defect-injection matrix for the reqcheck pre-pass.
//!
//! The contract under test, end to end over real mpisim corpora:
//!
//! * clean corpora from every workload family (odd–even sort, stencil
//!   halo exchange, LULESH proxy, request-lifecycle) are RQ-clean in
//!   **both** summary domains;
//! * each injected request-lifecycle fault fires **exactly** its
//!   predicted RQ codes, for every fault site the workload can express
//!   (a proptest over rank × iteration) — reqcheck neither under- nor
//!   over-reports;
//! * rendered reports are byte-identical at thread counts {1, 4}, in
//!   both domains, and with no cache, a cold cache, or a warm cache —
//!   the same observational-equivalence contract `tests/baseline_gate.rs`
//!   pins for the regression gate.

use std::collections::BTreeSet;
use std::sync::Arc;

use difftrace::{
    reqcheck_set, try_diff_runs, AttrConfig, AttrKind, FilterConfig, FreqMode, LintDomain,
    LintGate, Params, PipelineOptions, ReqOptions,
};
use dt_cache::Cache;
use dt_reqcheck::ReqCode;
use dt_trace::{FunctionRegistry, TraceSet};
use proptest::prelude::*;
use workloads::{
    run_lulesh, run_oddeven, run_reqlife, run_stencil, LuleshConfig, OddEvenConfig, ReqLifeConfig,
    ReqLifeFault, RunOutcome, StencilConfig,
};

fn reqlife(fault: Option<ReqLifeFault>) -> RunOutcome {
    let reg = Arc::new(FunctionRegistry::new());
    let mut cfg = ReqLifeConfig::default_4();
    cfg.fault = fault;
    run_reqlife(&cfg, reg)
}

fn opts(domain: LintDomain, threads: usize) -> ReqOptions {
    ReqOptions {
        threads,
        domain,
        ..ReqOptions::default()
    }
}

fn codes(set: &TraceSet, domain: LintDomain) -> BTreeSet<ReqCode> {
    reqcheck_set(set, &opts(domain, 1)).codes()
}

const DOMAINS: [LintDomain; 2] = [LintDomain::Expanded, LintDomain::Compressed];

/// Every clean corpus family is RQ-clean in both domains: the rules
/// fire on defects, not on healthy MPI usage (or on workloads that use
/// no requests at all).
#[test]
fn clean_corpora_stay_req_clean() {
    let corpora = [
        run_oddeven(
            &OddEvenConfig::paper(None),
            Arc::new(FunctionRegistry::new()),
        ),
        run_stencil(
            &StencilConfig::default_8(),
            Arc::new(FunctionRegistry::new()),
        )
        .0,
        run_lulesh(
            &LuleshConfig::paper(None),
            Arc::new(FunctionRegistry::new()),
        ),
        reqlife(None),
    ];
    for (i, out) in corpora.iter().enumerate() {
        assert!(
            !out.deadlocked,
            "corpus {i} must complete: {:?}",
            out.errors
        );
        for domain in DOMAINS {
            let report = reqcheck_set(&out.traces, &opts(domain, 1));
            assert!(
                report.is_clean(),
                "corpus {i} not RQ-clean in {domain:?}:\n{}",
                report.render_text()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Leaking the request at any (rank, iteration) site fires exactly
    /// RQ001 — never RQ002/RQ005 collateral — in both domains.
    #[test]
    fn leak_fault_fires_exactly_rq001(rank in 0u32..4, iter in 0u32..3) {
        let out = reqlife(Some(ReqLifeFault::LeakRequest { rank, iter }));
        prop_assert!(!out.deadlocked, "{:?}", out.errors);
        for domain in DOMAINS {
            prop_assert_eq!(
                codes(&out.traces, domain),
                BTreeSet::from([ReqCode::Leaked]),
                "{:?}",
                domain
            );
        }
    }

    /// Diverging the reduce op on any rank fires exactly RQ003: the
    /// kind sequence still agrees (so no RQ004), and the run completes
    /// (so no RQ001).
    #[test]
    fn coll_args_fault_fires_exactly_rq003(rank in 0u32..4) {
        let out = reqlife(Some(ReqLifeFault::MismatchedCollArgs { rank }));
        prop_assert!(!out.deadlocked, "{:?}", out.errors);
        for domain in DOMAINS {
            prop_assert_eq!(
                codes(&out.traces, domain),
                BTreeSet::from([ReqCode::SignatureMismatch]),
                "{:?}",
                domain
            );
        }
    }
}

/// Rendered reports — text and JSON — are byte-identical at thread
/// counts {1, 4} in both domains, for a clean corpus and for each
/// fault class.
#[test]
fn reports_are_byte_identical_across_threads_and_domains() {
    let corpora = [
        reqlife(None),
        reqlife(Some(ReqLifeFault::LeakRequest { rank: 2, iter: 1 })),
        reqlife(Some(ReqLifeFault::MismatchedCollArgs { rank: 1 })),
    ];
    for (i, out) in corpora.iter().enumerate() {
        let reference = reqcheck_set(&out.traces, &opts(LintDomain::Expanded, 1));
        for domain in DOMAINS {
            for threads in [1usize, 4] {
                let got = reqcheck_set(&out.traces, &opts(domain, threads));
                assert_eq!(
                    got.render_text(),
                    reference.render_text(),
                    "corpus {i} text differs at {domain:?}/threads={threads}"
                );
                assert_eq!(
                    got.render_json(),
                    reference.render_json(),
                    "corpus {i} json differs at {domain:?}/threads={threads}"
                );
            }
        }
    }
}

fn params() -> Params {
    Params::new(
        FilterConfig::everything(10),
        AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::Actual,
        },
    )
}

/// The reqcheck pre-pass attached to a warn-gated diff is untouched by
/// the analysis cache: reports are byte-identical with no cache, a
/// cold cache, and a warm cache, at thread counts {1, 4}.
#[test]
fn reports_are_byte_identical_across_cache_states() {
    let normal = reqlife(None);
    let faulty = reqlife(Some(ReqLifeFault::LeakRequest { rank: 2, iter: 1 }));

    let reference = {
        let o = PipelineOptions {
            gates: [("reqcheck", LintGate::Warn)].into(),
            ..PipelineOptions::default()
        };
        let d = try_diff_runs(
            &normal.traces,
            &faulty.traces,
            None,
            &params(),
            &o,
            &dt_obs::NOOP,
        )
        .unwrap();
        let pre = d.req.expect("warn attaches the reports");
        assert!(pre.normal.is_clean(), "{}", pre.normal.render_text());
        assert!(!pre.faulty.is_clean());
        (pre.normal.render_json(), pre.faulty.render_json())
    };

    let shared = Arc::new(Cache::new());
    for threads in [1usize, 4] {
        for cache in [None, Some(shared.clone())] {
            // Two passes over the same cache: the first is cold (or
            // warmed by a previous iteration), the second warm. Both
            // must reproduce the reference bytes exactly.
            for _pass in 0..2 {
                let o = PipelineOptions {
                    threads,
                    gates: [("reqcheck", LintGate::Warn)].into(),
                    cache: cache.clone(),
                };
                let d = try_diff_runs(
                    &normal.traces,
                    &faulty.traces,
                    None,
                    &params(),
                    &o,
                    &dt_obs::NOOP,
                )
                .unwrap();
                let pre = d.req.expect("warn attaches the reports");
                assert_eq!(
                    (pre.normal.render_json(), pre.faulty.render_json()),
                    reference,
                    "reports differ at threads={threads} cache={}",
                    cache.is_some()
                );
            }
        }
    }
}
