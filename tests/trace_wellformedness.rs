//! Substrate sanity: every healthy workload run must produce perfectly
//! nested call/return traces (Pin would); faulty runs may only leave
//! open frames in truncated traces.
//!
//! The second half turns this around: adversarial corpora with known
//! defects, checked through the full `difftrace lint` engine, asserting
//! the exact `TL0xx` code and span of each finding.

use difftrace::{lint_set, FilterConfig, LintDomain, LintOptions};
use dt_trace::{FunctionRegistry, Trace, TraceId, TraceSet};
use proptest::prelude::*;
use std::sync::Arc;
use tracelint::{RuleCode, Severity, Span};
use workloads::*;

/// No trace of `set` has a stack-discipline error: no crossed return,
/// no return with nothing open, and open frames only in a truncated
/// trace (TL001 and TL003 at error severity).
fn assert_well_formed(set: &dt_trace::TraceSet, what: &str) {
    for t in set.iter() {
        let problems: Vec<String> = tracelint::rules::check_stack_discipline(t, &set.registry)
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.message)
            .collect();
        assert!(
            problems.is_empty(),
            "{what}: trace {} has nesting violations: {problems:?}",
            t.id
        );
    }
}

#[test]
fn all_healthy_workloads_are_well_nested() {
    let reg = || Arc::new(FunctionRegistry::new());
    assert_well_formed(
        &run_oddeven(&OddEvenConfig::paper(None), reg()).traces,
        "oddeven",
    );
    assert_well_formed(&run_ilcs(&IlcsConfig::paper(None), reg()).traces, "ilcs");
    assert_well_formed(
        &run_lulesh(&LuleshConfig::paper(None), reg()).traces,
        "lulesh",
    );
    assert_well_formed(
        &run_stencil(&StencilConfig::default_8(), reg()).0.traces,
        "stencil",
    );
}

#[test]
fn deadlocked_runs_are_well_nested_modulo_truncation() {
    let out = run_oddeven(
        &OddEvenConfig::paper(Some(OddEvenConfig::dl_bug())),
        Arc::new(FunctionRegistry::new()),
    );
    assert!(out.deadlocked);
    // Open frames in a truncated trace are only a TL003 warning;
    // crossed returns must still never happen.
    assert_well_formed(&out.traces, "oddeven-dl");
}

#[test]
fn internals_mode_traces_are_well_nested_too() {
    use mpisim::{run, ReduceOp, SimConfig};
    let out = run(
        SimConfig::new(3).with_internals(),
        Arc::new(FunctionRegistry::new()),
        |rank| {
            rank.init()?;
            let r = rank.rank();
            if r == 0 {
                rank.send(1, 0, &[1; 64])?; // rendezvous
            } else if r == 1 {
                let _ = rank.recv(0, 0)?;
            }
            let _ = rank.allreduce(&[1], ReduceOp::Sum)?;
            rank.finalize()
        },
    );
    assert!(!out.deadlocked, "{:?}", out.errors);
    assert_well_formed(&out.traces, "internals");
}

// =====================================================================
// Adversarial corpora: hand-built defective traces, checked through the
// full lint engine with exact code/severity/span assertions.
// =====================================================================

fn call(f: u32) -> u32 {
    f << 1
}
fn ret(f: u32) -> u32 {
    (f << 1) | 1
}

/// Lint options that suppress TL004 corpus-vs-preset noise so the
/// assertions below see only the defect under test.
fn quiet_opts(domain: LintDomain) -> LintOptions {
    LintOptions {
        domain,
        filter: Some(FilterConfig::everything(10)),
        ..LintOptions::default()
    }
}

/// A trace set over `names`, with one master trace per entry of
/// `streams` (symbols, truncated-flag).
fn adversarial_set(names: &[&str], streams: &[(&[u32], bool)]) -> TraceSet {
    let registry = Arc::new(FunctionRegistry::new());
    for n in names {
        registry.intern(n);
    }
    let mut set = TraceSet::new(registry);
    for (p, (syms, truncated)) in streams.iter().enumerate() {
        set.insert(Trace::from_symbols(
            TraceId::master(p as u32),
            syms,
            *truncated,
        ));
    }
    set
}

#[test]
fn crossed_return_is_tl001_at_the_exact_event() {
    // call a, call b, ret a  — the ret crosses `b`'s open frame.
    let set = adversarial_set(&["a", "b"], &[(&[call(0), call(1), ret(0)], false)]);
    let report = lint_set(&set, &quiet_opts(LintDomain::Expanded));
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == RuleCode::StackDiscipline)
        .expect("crossed return must produce a TL001");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.span, Some(Span::at(2)));
    assert_eq!(
        d.message,
        "return from `a` while `b` (entered at event 1) is innermost"
    );
    assert!(d.hint.is_some());
}

#[test]
fn return_with_no_open_call_is_tl001() {
    let set = adversarial_set(&["a"], &[(&[ret(0)], false)]);
    let report = lint_set(&set, &quiet_opts(LintDomain::Expanded));
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == RuleCode::StackDiscipline)
        .expect("orphan return must produce a TL001");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.span, Some(Span::at(0)));
    assert_eq!(d.message, "return from `a` with no open call");
}

#[test]
fn open_frames_split_on_the_truncated_flag() {
    // Same poisoned shape twice: flagged truncated it is a hang
    // signature (warning), unflagged it is a broken trace (error).
    let set = adversarial_set(
        &["a", "b"],
        &[
            (&[call(0), call(1)], true),  // trace 0.1: truncated
            (&[call(0), call(1)], false), // trace 1.1: not flagged
        ],
    );
    let report = lint_set(&set, &quiet_opts(LintDomain::Expanded));

    let t0 = report.verdicts_for(TraceId::master(0));
    assert_eq!(
        t0,
        [(RuleCode::Truncation, Severity::Warning)]
            .into_iter()
            .collect(),
        "truncated trace must warn, not error"
    );
    let warn = report
        .diagnostics()
        .iter()
        .find(|d| d.trace == Some(TraceId::master(0)))
        .unwrap();
    // Span covers the innermost open frame to end-of-trace.
    assert_eq!(warn.span, Some(Span::new(1, 2)));
    assert!(warn.message.contains("hang signature"), "{}", warn.message);

    let err = report
        .diagnostics()
        .iter()
        .find(|d| d.trace == Some(TraceId::master(1)))
        .unwrap();
    assert_eq!(err.code, RuleCode::Truncation);
    assert_eq!(err.severity, Severity::Error);
    // Span covers from the first never-returned call to end-of-trace.
    assert_eq!(err.span, Some(Span::new(0, 2)));
    assert!(
        err.message
            .contains("2 call(s) never returned in a trace not flagged truncated"),
        "{}",
        err.message
    );
}

#[test]
fn empty_trace_is_a_tl003_warning() {
    let set = adversarial_set(&[], &[(&[], false)]);
    let report = lint_set(&set, &quiet_opts(LintDomain::Expanded));
    assert_eq!(
        report.verdicts_for(TraceId::master(0)),
        [(RuleCode::Truncation, Severity::Warning)]
            .into_iter()
            .collect()
    );
    let d = &report.diagnostics()[0];
    assert_eq!(d.message, "empty trace: no events were recorded");
    assert_eq!(d.span, None);
}

#[test]
fn rank_divergent_collectives_are_tl002_at_the_divergent_site() {
    // Ranks 0 and 1 do compute + Allreduce; rank 2 calls Reduce instead.
    let agree: &[u32] = &[call(0), ret(0), call(1), ret(1)];
    let rogue: &[u32] = &[call(0), ret(0), call(2), ret(2)];
    let set = adversarial_set(
        &["compute", "MPI_Allreduce", "MPI_Reduce"],
        &[(agree, false), (agree, false), (rogue, false)],
    );
    let report = lint_set(&set, &quiet_opts(LintDomain::Expanded));
    assert!(report.has_errors());

    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == RuleCode::CollectiveOrder)
        .expect("divergent rank must produce a TL002");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.trace, Some(TraceId::master(2)));
    // The span points at the event where rank 2 entered the wrong
    // collective (event 2 = call MPI_Reduce).
    assert_eq!(d.span, Some(Span::at(2)));
    assert!(
        d.message
            .contains("expected `MPI_Allreduce`, found `MPI_Reduce`"),
        "{}",
        d.message
    );
    // The conforming ranks are not blamed.
    assert!(report.verdicts_for(TraceId::master(0)).is_empty());
    assert!(report.verdicts_for(TraceId::master(1)).is_empty());

    // The compressed-domain TL002 reaches the same verdict per trace.
    let compressed = lint_set(&set, &quiet_opts(LintDomain::Compressed));
    for id in set.ids() {
        assert_eq!(report.verdicts_for(id), compressed.verdicts_for(id));
    }
}

#[test]
fn compressed_domain_agrees_on_every_adversarial_corpus() {
    let corpora: Vec<Vec<(Vec<u32>, bool)>> = vec![
        vec![(vec![call(0), call(1), ret(0)], false)],
        vec![(vec![ret(0)], false)],
        vec![(vec![call(0), call(1)], true), (vec![call(0)], false)],
        vec![(vec![], false)],
        vec![(vec![call(0), ret(0)], true)], // balanced-but-truncated
    ];
    for (i, streams) in corpora.iter().enumerate() {
        let borrowed: Vec<(&[u32], bool)> =
            streams.iter().map(|(s, t)| (s.as_slice(), *t)).collect();
        let set = adversarial_set(&["a", "b"], &borrowed);
        let exp = lint_set(&set, &quiet_opts(LintDomain::Expanded));
        let com = lint_set(&set, &quiet_opts(LintDomain::Compressed));
        for id in set.ids() {
            assert_eq!(
                exp.verdicts_for(id),
                com.verdicts_for(id),
                "corpus {i}: domains disagree on {id}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Defect injection: mutate a random well-formed stream and assert lint
// localizes the damage.
// ---------------------------------------------------------------------

/// Build a balanced call/return stream from a push/pop script. `Push`
/// opens a frame on one of three functions, `Pop` closes the innermost
/// (no-op when the stack is empty); all leftovers close at the end.
fn balanced_stream(script: &[(bool, u32)]) -> Vec<u32> {
    let mut stream = Vec::new();
    let mut stack = Vec::new();
    for &(push, f) in script {
        let f = f % 3;
        if push {
            stream.push(call(f));
            stack.push(f);
        } else if let Some(f) = stack.pop() {
            stream.push(ret(f));
        }
    }
    while let Some(f) = stack.pop() {
        stream.push(ret(f));
    }
    stream
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single-event mutation of a well-formed stream (flipping a
    /// call into a return or deleting an event) unbalances it, and
    /// lint must report a TL001/TL003 *error* with an in-bounds span —
    /// identically in both domains.
    #[test]
    fn injected_defects_are_caught_and_localized(
        script in proptest::collection::vec((any::<bool>(), 0u32..3), 1..40),
        idx in 0usize..10_000,
        flip in any::<bool>(),
    ) {
        let mut stream = balanced_stream(&script);
        prop_assume!(!stream.is_empty());
        let i = idx % stream.len();
        if flip {
            stream[i] ^= 1; // call <-> return
        } else {
            stream.remove(i);
        }
        let set = adversarial_set(&["f0", "f1", "f2"], &[(&stream, false)]);
        let id = TraceId::master(0);

        let exp = lint_set(&set, &quiet_opts(LintDomain::Expanded));
        let com = lint_set(&set, &quiet_opts(LintDomain::Compressed));
        prop_assert_eq!(exp.verdicts_for(id), com.verdicts_for(id));

        // A one-event mutation shifts the call/return balance, so the
        // stream cannot lint clean: expect an error-severity nesting
        // or truncation finding.
        prop_assert!(
            exp.verdicts_for(id).iter().any(|&(code, sev)| {
                sev == Severity::Error
                    && (code == RuleCode::StackDiscipline || code == RuleCode::Truncation)
            }),
            "mutated stream linted clean: {:?}", stream
        );
        for d in exp.diagnostics() {
            if let Some(s) = d.span {
                prop_assert!(s.start < s.end && s.end <= stream.len(),
                    "span {s:?} out of bounds for len {}", stream.len());
            }
        }
    }
}
