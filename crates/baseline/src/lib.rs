//! `dt-baseline` — recorded baselines and policy assertions.
//!
//! DiffTrace's whole point is telling a faulty run apart from a known
//! good one; this crate is the CI-shaped form of that. `baseline
//! record` snapshots one analyzed run into a sealed [`Baseline`]
//! bundle: per-trace NLR content fingerprints (the same dt-cache keys
//! the analysis cache uses), the single-run JSM ranking, and the
//! tracelint/hbcheck/racecheck/reqcheck findings. `baseline check`
//! re-snapshots a
//! candidate run under the baseline's recorded parameters and judges
//! the divergence under a [`Policy`], producing an [`AssertionReport`]
//! with one entry per policy clause.
//!
//! Everything here inherits the pipeline's determinism contract: a
//! snapshot (and therefore a verdict, and therefore an encoded
//! bundle) is byte-identical at any thread count, cold or warm cache.
//! What varies between machines is wall-clock, never the verdict.

mod bundle;
mod policy;
mod report;

pub use bundle::{sealed_hash, Baseline, CodeCount, TraceRecord, BUNDLE_FORMAT_VERSION};
pub use policy::{DiffClass, Policy};
pub use report::{AssertionReport, ClauseEntry, ClauseStatus};

use difftrace::{
    analyze_single_opts_rec, content_fingerprints, CheckInput, LintOptions, Params,
    PipelineOptions, CHECKERS,
};
use dt_obs::{stage, Recorder};
use dt_trace::hb::HbLog;
use dt_trace::{TraceId, TraceSet};
use std::collections::BTreeMap;

/// Aggregate a dt-diag report into per-code error/warning counts,
/// sorted by code (BTreeMap iteration order).
fn code_counts<C: dt_diag::Code>(report: &dt_diag::Report<C>) -> Vec<CodeCount> {
    let mut by_code: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for d in report.diagnostics() {
        let slot = by_code.entry(d.code.as_str()).or_insert((0, 0));
        match d.severity {
            dt_diag::Severity::Error => slot.0 += 1,
            dt_diag::Severity::Warning => slot.1 += 1,
        }
    }
    by_code
        .into_iter()
        .map(|(code, (errors, warnings))| CodeCount {
            code: code.to_string(),
            errors,
            warnings,
        })
        .collect()
}

/// Snapshot one run into a [`Baseline`] under `params`
/// (sequential, uninstrumented). See [`snapshot_rec`].
pub fn snapshot(set: &TraceSet, hb: &HbLog, params: &Params) -> Baseline {
    snapshot_rec(set, hb, params, &PipelineOptions::default(), &dt_obs::NOOP)
}

/// Snapshot one run into a [`Baseline`]: content fingerprints, the
/// single-run JSM ranking, cluster/outlier structure, and the
/// findings of every registered checker, all under `params`. Like
/// every `_rec` entry point, `opts` and `rec` change how fast the
/// snapshot is computed, never what it says — the encoded bundle is
/// byte-identical for every thread count and cache state.
pub fn snapshot_rec(
    set: &TraceSet,
    hb: &HbLog,
    params: &Params,
    opts: &PipelineOptions,
    rec: &dyn Recorder,
) -> Baseline {
    let fingerprints: BTreeMap<TraceId, u128> = {
        let _s = stage(rec, "fingerprint");
        content_fingerprints(set, &params.filter)
            .into_iter()
            .collect()
    };
    let single = analyze_single_opts_rec(set, params, 0, opts, rec);
    let scores: BTreeMap<TraceId, f64> = single
        .run
        .jsm
        .row_scores_opts(opts.threads)
        .into_iter()
        .collect();
    let traces: Vec<TraceRecord> = set
        .ids()
        .into_iter()
        .map(|id| TraceRecord {
            id,
            fingerprint: *fingerprints.get(&id).expect("fingerprint for every trace"),
            score: *scores.get(&id).expect("score for every trace"),
            truncated: set.get(id).is_some_and(|t| t.truncated),
        })
        .collect();
    let mut outliers = single.outliers.clone();
    outliers.sort_unstable();
    let has_hb = hb.world_size() > 0;
    let mut baseline = Baseline {
        filter: params.filter.stable_code(),
        attrs: params.attrs.to_string(),
        traces,
        clusters: single.clusters.len() as u64,
        outliers,
        has_hb,
        ..Baseline::default()
    };
    if rec.enabled() {
        rec.add("baseline_traces", baseline.traces.len() as u64);
    }
    // Every checker under the pipeline pre-pass options (the recorded
    // filter for lint, expanded domain). Checkers that need a
    // happens-before section record nothing for runs without one.
    let check = LintOptions::for_pipeline(params, opts.threads);
    let input = CheckInput { set, hb: Some(hb) };
    for c in CHECKERS {
        let counts = if has_hb || !c.needs_hb() {
            let _s = stage(rec, c.name());
            code_counts(&c.check(&input, &check, rec))
        } else {
            Vec::new()
        };
        if rec.enabled() {
            let errors = counts.iter().map(|c| c.errors).sum();
            rec.add(&format!("baseline_{}_errors", c.tag()), errors);
        }
        *baseline.counts_mut(c.name()) = counts;
    }
    baseline
}

/// Build one clause entry: a quiet pass when nothing diverged, an
/// explicit pass when the policy allows the divergence, `Tolerated`
/// when the class is tolerated, `Fail` otherwise.
fn clause(
    class: DiffClass,
    policy: &Policy,
    summary: String,
    details: Vec<String>,
    allowed: bool,
) -> ClauseEntry {
    let status = if details.is_empty() || allowed {
        ClauseStatus::Pass
    } else if policy.tolerate.contains(&class) {
        ClauseStatus::Tolerated
    } else {
        ClauseStatus::Fail
    };
    ClauseEntry {
        class,
        status,
        summary,
        details,
    }
}

/// Codes from `counts` that the policy requires clean but which fired
/// at error severity.
fn required_clean_violations(
    counts: &[CodeCount],
    required: &std::collections::BTreeSet<String>,
) -> Vec<String> {
    counts
        .iter()
        .filter(|c| c.errors > 0 && required.contains(&c.code))
        .map(|c| format!("{}: {} error(s) (required clean)", c.code, c.errors))
        .collect()
}

/// Judge a candidate snapshot against a recorded baseline under
/// `policy`. Both snapshots must have been taken under the same
/// analysis parameters (the CLI re-uses the baseline's recorded
/// parameters for the candidate); mismatched parameters are a usage
/// error, not a verdict.
pub fn evaluate(
    baseline: &Baseline,
    candidate: &Baseline,
    policy: &Policy,
    candidate_label: &str,
) -> Result<AssertionReport, String> {
    if baseline.filter != candidate.filter || baseline.attrs != candidate.attrs {
        return Err(format!(
            "parameter mismatch: baseline recorded under `{} {}`, candidate snapshot under \
             `{} {}`",
            baseline.filter, baseline.attrs, candidate.filter, candidate.attrs
        ));
    }
    let base: BTreeMap<TraceId, &TraceRecord> = baseline.traces.iter().map(|t| (t.id, t)).collect();
    let cand: BTreeMap<TraceId, &TraceRecord> =
        candidate.traces.iter().map(|t| (t.id, t)).collect();

    let added: Vec<String> = cand
        .keys()
        .filter(|id| !base.contains_key(id))
        .map(|id| format!("{id}: not in the baseline"))
        .collect();
    let removed: Vec<String> = base
        .keys()
        .filter(|id| !cand.contains_key(id))
        .map(|id| format!("{id}: recorded in the baseline, missing from the candidate"))
        .collect();

    let common: Vec<TraceId> = base
        .keys()
        .filter(|id| cand.contains_key(id))
        .copied()
        .collect();
    let changed: Vec<String> = common
        .iter()
        .filter(|id| base[id].fingerprint != cand[id].fingerprint)
        .map(|id| {
            format!(
                "{id}: fingerprint {:032x} -> {:032x}",
                base[id].fingerprint, cand[id].fingerprint
            )
        })
        .collect();
    let shifted: Vec<String> = common
        .iter()
        .filter(|id| (base[id].score - cand[id].score).abs() > policy.max_ranking_shift)
        .map(|id| {
            format!(
                "{id}: score {} -> {} (|shift| {} > {})",
                base[id].score,
                cand[id].score,
                (base[id].score - cand[id].score).abs(),
                policy.max_ranking_shift
            )
        })
        .collect();

    let lint_viol = required_clean_violations(&candidate.lint, &policy.require_clean_tl);
    let hb_viol = required_clean_violations(&candidate.hb, &policy.require_clean_hb);
    let race_viol = required_clean_violations(&candidate.race, &policy.require_clean_race);
    let req_viol = required_clean_violations(&candidate.req, &policy.require_clean_req);

    let count_summary = |n: usize, what: &str, suffix: &str| {
        if n == 0 {
            String::new()
        } else {
            format!("{n} {what}{suffix}")
        }
    };
    let mut clauses = vec![
        clause(
            DiffClass::TraceAdded,
            policy,
            count_summary(
                added.len(),
                "new trace(s)",
                if policy.allow_new_traces {
                    " (allowed by policy)"
                } else {
                    ""
                },
            ),
            added,
            policy.allow_new_traces,
        ),
        clause(
            DiffClass::TraceRemoved,
            policy,
            count_summary(
                removed.len(),
                "removed trace(s)",
                if policy.allow_removed_traces {
                    " (allowed by policy)"
                } else {
                    ""
                },
            ),
            removed,
            policy.allow_removed_traces,
        ),
        clause(
            DiffClass::NlrChanged,
            policy,
            if changed.is_empty() {
                String::new()
            } else {
                format!(
                    "{} of {} fingerprint(s) changed",
                    changed.len(),
                    common.len()
                )
            },
            changed,
            false,
        ),
        clause(
            DiffClass::RankingShift,
            policy,
            if shifted.is_empty() {
                String::new()
            } else {
                format!(
                    "{} of {} score(s) shifted more than {}",
                    shifted.len(),
                    common.len(),
                    policy.max_ranking_shift
                )
            },
            shifted,
            false,
        ),
        clause(
            DiffClass::LintRegression,
            policy,
            count_summary(lint_viol.len(), "required-clean lint code(s) fired", ""),
            lint_viol,
            false,
        ),
    ];
    if candidate.has_hb {
        clauses.push(clause(
            DiffClass::HbRegression,
            policy,
            count_summary(hb_viol.len(), "required-clean hbcheck code(s) fired", ""),
            hb_viol,
            false,
        ));
    } else {
        clauses.push(ClauseEntry {
            class: DiffClass::HbRegression,
            status: ClauseStatus::Skipped,
            summary: "no happens-before section in the candidate run".to_string(),
            details: Vec::new(),
        });
    }
    // Races need no happens-before section; this clause always runs.
    clauses.push(clause(
        DiffClass::RaceRegression,
        policy,
        count_summary(
            race_viol.len(),
            "required-clean racecheck code(s) fired",
            "",
        ),
        race_viol,
        false,
    ));
    // Request markers likewise live in the traces themselves.
    clauses.push(clause(
        DiffClass::ReqRegression,
        policy,
        count_summary(req_viol.len(), "required-clean reqcheck code(s) fired", ""),
        req_viol,
        false,
    ));
    Ok(AssertionReport {
        candidate: candidate_label.to_string(),
        baseline_hash: baseline.bundle_hash(),
        clauses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(p: u32, fp: u128, score: f64) -> TraceRecord {
        TraceRecord {
            id: TraceId::new(p, 0),
            fingerprint: fp,
            score,
            truncated: false,
        }
    }

    fn snap(traces: Vec<TraceRecord>) -> Baseline {
        Baseline {
            filter: "11.all.K10".to_string(),
            attrs: "sing.actual".to_string(),
            traces,
            clusters: 1,
            outliers: Vec::new(),
            lint: Vec::new(),
            has_hb: true,
            hb: Vec::new(),
            race: Vec::new(),
            req: Vec::new(),
        }
    }

    #[test]
    fn identical_snapshots_pass_every_clause() {
        let b = snap(vec![rec(0, 1, 2.0), rec(1, 2, 2.0)]);
        let r = evaluate(&b, &b, &Policy::default(), "run").unwrap();
        assert!(r.passed(), "{}", r.render_text());
        assert!(r.clauses.iter().all(|c| c.status == ClauseStatus::Pass));
    }

    #[test]
    fn each_divergence_fires_its_own_clause() {
        let b = snap(vec![rec(0, 1, 2.0), rec(1, 2, 2.0)]);
        let policy = Policy::default();

        let mut added = b.clone();
        added.traces.push(rec(2, 9, 2.0));
        let r = evaluate(&b, &added, &policy, "run").unwrap();
        assert_eq!(r.failures(), vec![DiffClass::TraceAdded]);

        let mut removed = b.clone();
        removed.traces.pop();
        let r = evaluate(&b, &removed, &policy, "run").unwrap();
        assert_eq!(r.failures(), vec![DiffClass::TraceRemoved]);

        let mut changed = b.clone();
        changed.traces[1].fingerprint = 77;
        let r = evaluate(&b, &changed, &policy, "run").unwrap();
        assert_eq!(r.failures(), vec![DiffClass::NlrChanged]);

        let mut shifted = b.clone();
        shifted.traces[1].score = 3.5;
        let r = evaluate(&b, &shifted, &policy, "run").unwrap();
        assert_eq!(r.failures(), vec![DiffClass::RankingShift]);

        let mut linty = b.clone();
        linty.lint = vec![CodeCount {
            code: "TL002".to_string(),
            errors: 2,
            warnings: 0,
        }];
        let r = evaluate(&b, &linty, &policy, "run").unwrap();
        assert_eq!(r.failures(), vec![DiffClass::LintRegression]);

        let mut hb = b.clone();
        hb.hb = vec![CodeCount {
            code: "HB001".to_string(),
            errors: 1,
            warnings: 0,
        }];
        let r = evaluate(&b, &hb, &policy, "run").unwrap();
        assert_eq!(r.failures(), vec![DiffClass::HbRegression]);

        let mut racy = b.clone();
        racy.race = vec![CodeCount {
            code: "RC001".to_string(),
            errors: 3,
            warnings: 0,
        }];
        let r = evaluate(&b, &racy, &policy, "run").unwrap();
        assert_eq!(r.failures(), vec![DiffClass::RaceRegression]);

        let mut leaky = b.clone();
        leaky.req = vec![CodeCount {
            code: "RQ001".to_string(),
            errors: 1,
            warnings: 0,
        }];
        let r = evaluate(&b, &leaky, &policy, "run").unwrap();
        assert_eq!(r.failures(), vec![DiffClass::ReqRegression]);
    }

    #[test]
    fn policy_knobs_downgrade_failures() {
        let b = snap(vec![rec(0, 1, 2.0)]);

        // Allowance: new traces pass outright.
        let mut added = b.clone();
        added.traces.push(rec(1, 9, 2.0));
        let allow = Policy {
            allow_new_traces: true,
            ..Policy::default()
        };
        let r = evaluate(&b, &added, &allow, "run").unwrap();
        assert!(r.passed());
        assert!(r.clauses[0].summary.contains("allowed by policy"));

        // Tolerance: reported, not gating.
        let mut changed = b.clone();
        changed.traces[0].fingerprint = 9;
        let tol = Policy {
            tolerate: [DiffClass::NlrChanged].into_iter().collect(),
            ..Policy::default()
        };
        let r = evaluate(&b, &changed, &tol, "run").unwrap();
        assert!(r.passed());
        assert_eq!(r.clauses[2].status, ClauseStatus::Tolerated);

        // Threshold: shifts inside the budget pass.
        let mut shifted = b.clone();
        shifted.traces[0].score = 2.25;
        let loose = Policy {
            max_ranking_shift: 0.5,
            ..Policy::default()
        };
        assert!(evaluate(&b, &shifted, &loose, "run").unwrap().passed());
        assert!(!evaluate(&b, &shifted, &Policy::default(), "run")
            .unwrap()
            .passed());

        // Required-clean sets: codes outside the set never gate.
        let mut warn_only = b.clone();
        warn_only.lint = vec![CodeCount {
            code: "TL003".to_string(),
            errors: 0,
            warnings: 4,
        }];
        assert!(evaluate(&b, &warn_only, &Policy::default(), "run")
            .unwrap()
            .passed());
        let mut off_list = b.clone();
        off_list.hb = vec![CodeCount {
            code: "HB001".to_string(),
            errors: 1,
            warnings: 0,
        }];
        let narrow = Policy {
            require_clean_hb: ["HB002".to_string()].into_iter().collect(),
            ..Policy::default()
        };
        assert!(evaluate(&b, &off_list, &narrow, "run").unwrap().passed());
    }

    #[test]
    fn missing_hb_section_skips_the_clause() {
        let mut b = snap(vec![rec(0, 1, 2.0)]);
        b.has_hb = false;
        let r = evaluate(&b, &b, &Policy::default(), "run").unwrap();
        assert!(r.passed());
        assert_eq!(r.clauses[5].status, ClauseStatus::Skipped);
        // The race and req clauses need no happens-before log; they
        // still run.
        assert_eq!(r.clauses[6].class, DiffClass::RaceRegression);
        assert_eq!(r.clauses[6].status, ClauseStatus::Pass);
        assert_eq!(r.clauses[7].class, DiffClass::ReqRegression);
        assert_eq!(r.clauses[7].status, ClauseStatus::Pass);
    }

    #[test]
    fn parameter_mismatch_is_a_usage_error() {
        let b = snap(vec![rec(0, 1, 2.0)]);
        let mut other = b.clone();
        other.filter = "11.mpiall.K10".to_string();
        let err = evaluate(&b, &other, &Policy::default(), "run").unwrap_err();
        assert!(err.contains("parameter mismatch"), "{err}");
    }
}
