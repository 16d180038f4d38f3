//! Defect-injection suite for the baseline regression gate.
//!
//! The contract under test, end to end over real mpisim corpora:
//!
//! * clean-vs-clean always passes (re-running the identical workload
//!   and re-checking changes nothing);
//! * each injected fault fails **exactly** the clauses its defect
//!   class predicts — the gate neither under- nor over-reports;
//! * verdicts are byte-identical at any thread count and with a cold,
//!   warm, or absent cache (the same observational-equivalence
//!   contract `tests/cache_equivalence.rs` pins for the diff pipeline);
//! * the bundle encoding is stable: re-recording is byte-identical,
//!   and schema drift is caught by a pinned golden digest, so format
//!   changes require a deliberate `BUNDLE_FORMAT_VERSION` bump.

use difftrace::{AttrConfig, AttrKind, FilterConfig, FreqMode, Params, PipelineOptions};
use dt_baseline::{
    evaluate, sealed_hash, snapshot, snapshot_rec, Baseline, CheckSection, CodeCount, DiffClass,
    Policy, TraceRecord,
};
use dt_cache::Cache;
use dt_trace::hb::HbLog;
use dt_trace::{FunctionRegistry, TraceId, TraceSet};
use std::sync::Arc;
use workloads::{
    run_lulesh, run_oddeven, run_omp_counter, run_reqlife, run_stencil, LuleshConfig, LuleshFault,
    OddEvenConfig, OmpCounterConfig, OmpCounterFault, ReqLifeConfig, ReqLifeFault, RunOutcome,
    StencilConfig, StencilFault,
};

fn params() -> Params {
    Params::new(
        FilterConfig::everything(10),
        AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::Actual,
        },
    )
}

fn stencil(fault: Option<StencilFault>) -> RunOutcome {
    let reg = Arc::new(FunctionRegistry::new());
    let mut cfg = StencilConfig::default_8();
    cfg.fault = fault;
    run_stencil(&cfg, reg).0
}

fn lulesh(fault: Option<LuleshFault>) -> RunOutcome {
    let reg = Arc::new(FunctionRegistry::new());
    run_lulesh(&LuleshConfig::paper(fault), reg)
}

fn oddeven() -> RunOutcome {
    let reg = Arc::new(FunctionRegistry::new());
    run_oddeven(&OddEvenConfig::paper(None), reg)
}

fn omp_counter(fault: Option<OmpCounterFault>) -> RunOutcome {
    let reg = Arc::new(FunctionRegistry::new());
    let mut cfg = OmpCounterConfig::default_2x4();
    cfg.fault = fault;
    run_omp_counter(&cfg, reg)
}

fn reqlife(fault: Option<ReqLifeFault>) -> RunOutcome {
    let reg = Arc::new(FunctionRegistry::new());
    let mut cfg = ReqLifeConfig::default_4();
    cfg.fault = fault;
    run_reqlife(&cfg, reg)
}

/// The regression class of the checker tagged `tag`.
fn regression(tag: &str) -> DiffClass {
    DiffClass::parse(&format!("{tag}-regression")).unwrap()
}

fn check(base: &RunOutcome, cand: &RunOutcome) -> Vec<DiffClass> {
    let p = params();
    let baseline = snapshot(&base.traces, &base.hb, &p);
    let candidate = snapshot(&cand.traces, &cand.hb, &p);
    evaluate(&baseline, &candidate, &Policy::default(), "candidate")
        .expect("matching params")
        .failures()
}

/// Re-running the identical workload and checking it against its own
/// baseline passes every clause, for every corpus family.
#[test]
fn clean_vs_clean_passes() {
    assert_eq!(check(&stencil(None), &stencil(None)), vec![]);
    assert_eq!(check(&oddeven(), &oddeven()), vec![]);
    assert_eq!(check(&lulesh(None), &lulesh(None)), vec![]);
    assert_eq!(check(&reqlife(None), &reqlife(None)), vec![]);
}

/// The stencil tag-mismatch deadlock (recv↔recv) changes the NLR
/// content of every rank (truncation), collapses the ranking, and
/// fires hbcheck — and nothing else.
#[test]
fn stencil_tag_fault_fires_expected_clauses() {
    let failures = check(
        &stencil(None),
        &stencil(Some(StencilFault::TagMismatch { rank: 1 })),
    );
    assert_eq!(
        failures,
        vec![
            DiffClass::NlrChanged,
            DiffClass::RankingShift,
            regression("hb"),
        ]
    );
}

/// The LULESH skipped-collective fault (wait-for cycle at rank 2)
/// adds one clause to the stencil signature: the aborted job also
/// *loses* worker threads that never ran, so the trace population
/// shrinks — exactly the defect `trace-removed` exists to catch.
#[test]
fn lulesh_skip_fault_fires_expected_clauses() {
    let faulty = lulesh(Some(LuleshFault::SkipCollective { rank: 2 }));
    assert!(faulty.deadlocked, "the skip fault must stall the job");
    let failures = check(&lulesh(None), &faulty);
    assert_eq!(
        failures,
        vec![
            DiffClass::TraceRemoved,
            DiffClass::NlrChanged,
            DiffClass::RankingShift,
            regression("hb"),
        ]
    );
}

/// The OpenMP counter corpus is race-clean when protected, and the
/// unprotected fault fires the race-regression clause — alongside the
/// content/ranking clauses the dropped lock markers inevitably trip.
/// Narrowing the policy to tolerate those shows the race clause is the
/// one doing the shared-memory work.
#[test]
fn omp_race_fault_fires_the_race_clause() {
    assert_eq!(check(&omp_counter(None), &omp_counter(None)), vec![]);
    let failures = check(
        &omp_counter(None),
        &omp_counter(Some(OmpCounterFault::Unprotected { rank: 1 })),
    );
    assert!(failures.contains(&regression("race")), "{failures:?}");
    assert_eq!(
        failures,
        vec![
            DiffClass::NlrChanged,
            DiffClass::RankingShift,
            regression("race"),
        ]
    );

    // With the content/ranking divergence tolerated, the verdict hangs
    // on require_clean_race alone — and emptying that set passes.
    let base = omp_counter(None);
    let cand = omp_counter(Some(OmpCounterFault::Unprotected { rank: 1 }));
    let p = params();
    let baseline = snapshot(&base.traces, &base.hb, &p);
    let candidate = snapshot(&cand.traces, &cand.hb, &p);
    let mut policy = Policy::default();
    policy.tolerate.insert(DiffClass::NlrChanged);
    policy.tolerate.insert(DiffClass::RankingShift);
    let report = evaluate(&baseline, &candidate, &policy, "candidate").unwrap();
    assert_eq!(report.failures(), vec![regression("race")]);
    policy.require_clean.get_mut("racecheck").unwrap().clear();
    let report = evaluate(&baseline, &candidate, &policy, "candidate").unwrap();
    assert!(report.passed(), "{}", report.render_text());
}

/// The divergent-reduce-op fault changes the faulty rank's collective
/// signature markers (content + ranking) and fires the req-regression
/// clause via RQ003 — and nothing else: the run still completes (the
/// reduce op is not part of the match), so no traces vanish and
/// hbcheck stays clean.
#[test]
fn coll_args_fault_fires_the_req_clause() {
    let faulty = reqlife(Some(ReqLifeFault::MismatchedCollArgs { rank: 1 }));
    assert!(!faulty.deadlocked, "the op mismatch must not stall the run");
    let failures = check(&reqlife(None), &faulty);
    assert_eq!(
        failures,
        vec![
            DiffClass::NlrChanged,
            DiffClass::RankingShift,
            regression("req"),
        ]
    );

    // With content/ranking divergence tolerated, the verdict hangs on
    // require_clean_req alone — and emptying that set passes.
    let base = reqlife(None);
    let cand = reqlife(Some(ReqLifeFault::MismatchedCollArgs { rank: 1 }));
    let p = params();
    let baseline = snapshot(&base.traces, &base.hb, &p);
    let candidate = snapshot(&cand.traces, &cand.hb, &p);
    let mut policy = Policy::default();
    policy.tolerate.insert(DiffClass::NlrChanged);
    policy.tolerate.insert(DiffClass::RankingShift);
    let report = evaluate(&baseline, &candidate, &policy, "candidate").unwrap();
    assert_eq!(report.failures(), vec![regression("req")]);
    policy.require_clean.get_mut("reqcheck").unwrap().clear();
    let report = evaluate(&baseline, &candidate, &policy, "candidate").unwrap();
    assert!(report.passed(), "{}", report.render_text());
}

/// Policy knobs downgrade exactly the clause they target: tolerating
/// the stencil fault's three classes turns the same check green.
#[test]
fn tolerances_turn_the_gate_green() {
    let base = stencil(None);
    let cand = stencil(Some(StencilFault::TagMismatch { rank: 1 }));
    let p = params();
    let baseline = snapshot(&base.traces, &base.hb, &p);
    let candidate = snapshot(&cand.traces, &cand.hb, &p);
    let mut policy = Policy::default();
    for c in [
        DiffClass::NlrChanged,
        DiffClass::RankingShift,
        regression("hb"),
    ] {
        policy.tolerate.insert(c);
    }
    let report = evaluate(&baseline, &candidate, &policy, "candidate").unwrap();
    assert!(report.passed(), "{}", report.render_text());
    // The divergences are still reported, just not gating.
    assert!(report.render_text().contains("tolerated"));
}

fn snap(set: &TraceSet, hb: &HbLog, threads: usize, cache: Option<Arc<Cache>>) -> Baseline {
    let opts = PipelineOptions {
        threads,
        cache,
        ..PipelineOptions::default()
    };
    snapshot_rec(set, hb, &params(), &opts, &dt_obs::NOOP)
}

/// The whole gate is observationally deterministic: bundles and
/// rendered verdicts are byte-identical at thread counts {1, 4}, with
/// no cache, a cold cache, and a warm cache.
#[test]
fn verdicts_are_byte_identical_across_threads_and_cache() {
    let base = stencil(None);
    let cand = stencil(Some(StencilFault::TagMismatch { rank: 1 }));

    let reference_bundle = snap(&base.traces, &base.hb, 1, None).encode();
    let reference_report = {
        let b = snap(&base.traces, &base.hb, 1, None);
        let c = snap(&cand.traces, &cand.hb, 1, None);
        evaluate(&b, &c, &Policy::default(), "cand")
            .unwrap()
            .render_json()
    };

    let shared = Arc::new(Cache::new());
    for threads in [1usize, 4] {
        for cache in [None, Some(shared.clone())] {
            // Two passes over the same cache: the first is cold (or
            // warmed by a previous iteration), the second warm. Both
            // must reproduce the reference bytes exactly.
            for _pass in 0..2 {
                let b = snap(&base.traces, &base.hb, threads, cache.clone());
                assert_eq!(
                    b.encode(),
                    reference_bundle,
                    "bundle differs at threads={threads} cache={}",
                    cache.is_some()
                );
                let c = snap(&cand.traces, &cand.hb, threads, cache.clone());
                let report = evaluate(&b, &c, &Policy::default(), "cand").unwrap();
                assert_eq!(
                    report.render_json(),
                    reference_report,
                    "verdict differs at threads={threads} cache={}",
                    cache.is_some()
                );
            }
        }
    }
}

/// A fixed synthetic baseline whose encoding exercises every field of
/// the format: empty and non-empty sections, extreme floats, the
/// truncation flag, multi-thread trace ids.
fn golden_fixture() -> Baseline {
    Baseline {
        filter: "11.mpiall.K10".to_string(),
        attrs: "sing.actual".to_string(),
        traces: vec![
            TraceRecord {
                id: TraceId::new(0, 0),
                fingerprint: 0x0123_4567_89ab_cdef_0123_4567_89ab_cdef,
                score: 2.5,
                truncated: false,
            },
            TraceRecord {
                id: TraceId::new(3, 1),
                fingerprint: u128::MAX,
                score: 0.1,
                truncated: true,
            },
        ],
        clusters: 2,
        outliers: vec![TraceId::new(3, 1)],
        checks: vec![
            section("lint", &[("TL003", 0, 1)]),
            section("hbcheck", &[("HB001", 1, 0)]),
            section("racecheck", &[("RC001", 2, 0), ("RC004", 0, 1)]),
            section("reqcheck", &[("RQ001", 1, 0), ("RQ005", 0, 2)]),
        ],
    }
}

/// A checker section that ran and recorded `(code, errors, warnings)`.
fn section(name: &str, counts: &[(&str, u64, u64)]) -> CheckSection {
    CheckSection {
        name: name.to_string(),
        ran: true,
        counts: counts
            .iter()
            .map(|&(code, errors, warnings)| CodeCount {
                code: code.to_string(),
                errors,
                warnings,
            })
            .collect(),
    }
}

/// Golden stability: the byte encoding of a fixed baseline is pinned.
/// Any change to the wire format fails here first; the fix is a
/// deliberate `BUNDLE_FORMAT_VERSION` bump, never a silent drift
/// (mirrors the cache-format pin in `tests/cache_equivalence.rs`).
#[test]
fn bundle_encoding_is_pinned() {
    assert_eq!(dt_baseline::BUNDLE_FORMAT_VERSION, 4);
    let bytes = golden_fixture().encode();
    assert_eq!(bytes, golden_fixture().encode(), "encoding must be pure");
    let digest = sealed_hash(&bytes).expect("well-sealed");
    assert_eq!(
        format!("{digest:032x}"),
        "d776cda560744f7d45bd4fd45751fa98",
        "bundle wire format changed — bump BUNDLE_FORMAT_VERSION and re-pin"
    );
}

/// Recording the same corpus twice through the full pipeline produces
/// byte-identical bundles — the property CI's `cmp` step relies on.
#[test]
fn re_recording_is_byte_identical() {
    let run = stencil(None);
    let a = snapshot(&run.traces, &run.hb, &params()).encode();
    // A fresh workload execution, fresh registry, fresh everything.
    let rerun = stencil(None);
    let b = snapshot(&rerun.traces, &rerun.hb, &params()).encode();
    assert_eq!(a, b);
}
