//! The reqcheck checker: MPI request-lifecycle and
//! collective-consistency analysis before any diffing.
//!
//! [`ReqCheck`] runs the RQ001–RQ005 rule families (see the
//! `dt-reqcheck` crate) over one execution's recorded traces. Its
//! per-trace facts are request lifecycles and collective signatures;
//! the rule evaluation is a pure function of them. It needs no
//! happens-before log.

use crate::check::{run_facts, CheckInput, CheckOptions, Checker, PrePass};
use crate::pipeline::DiffRun;
use dt_reqcheck::{analyze, compressed, expanded, ReqCode, ReqReport, ReqVocab, TraceReqFacts};
use dt_trace::{Trace, TraceSet};
use nlr::{LoopTable, Nlr};

/// The reqcheck [`Checker`].
#[derive(Debug, Clone, Copy)]
pub struct ReqCheck;

impl Checker for ReqCheck {
    type Code = ReqCode;
    type Facts = TraceReqFacts;
    type Vocab = ReqVocab;

    const NAME: &'static str = "reqcheck";
    const TAG: &'static str = "req";
    const DIFF_FLAG: &'static str = "--req";

    fn vocab(&self, input: &CheckInput) -> ReqVocab {
        ReqVocab::build(&input.set.registry)
    }

    fn expanded(&self, vocab: &ReqVocab, t: &Trace) -> TraceReqFacts {
        expanded::summarize(t.id, &t.to_symbols(), t.truncated, vocab)
    }

    fn compressed(
        &self,
        vocab: &ReqVocab,
        table: &LoopTable,
        t: &Trace,
        term: &Nlr,
    ) -> TraceReqFacts {
        compressed::summarize(table, vocab, t.id, term, t.truncated)
    }

    fn analyze(
        &self,
        _vocab: &ReqVocab,
        _input: &CheckInput,
        facts: Vec<TraceReqFacts>,
    ) -> ReqReport {
        analyze(&facts)
    }

    fn attached(run: &DiffRun) -> Option<&PrePass<ReqCheck>> {
        run.req.as_ref()
    }
}

/// Analyze one execution's traces for request-lifecycle and
/// collective-consistency defects.
pub fn reqcheck_set(set: &TraceSet, opts: &CheckOptions) -> ReqReport {
    run_facts(
        &ReqCheck,
        &CheckInput { set, hb: None },
        opts,
        &dt_obs::NOOP,
    )
}
