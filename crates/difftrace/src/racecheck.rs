//! The racecheck checker: shared-memory data-race detection before any
//! diffing.
//!
//! [`RaceCheck`] runs the RC001–RC004 rule families (see the
//! `dt-racecheck` crate) over one execution's recorded traces. Its
//! per-trace facts are access-group summaries over the `omp_*@` marker
//! vocabulary; the rule evaluation is a pure function of them. It needs
//! no happens-before log.

use crate::check::{run_facts, CheckInput, CheckOptions, Checker, PrePass};
use crate::pipeline::DiffRun;
use dt_racecheck::{
    analyze, compressed, expanded, RaceCode, RaceReport, RaceVocab, TraceRaceFacts,
};
use dt_trace::{Trace, TraceSet};
use nlr::{LoopTable, Nlr};

/// The racecheck [`Checker`].
#[derive(Debug, Clone, Copy)]
pub struct RaceCheck;

impl Checker for RaceCheck {
    type Code = RaceCode;
    type Facts = TraceRaceFacts;
    type Vocab = RaceVocab;

    const NAME: &'static str = "racecheck";
    const TAG: &'static str = "race";
    const DIFF_FLAG: &'static str = "--race";

    fn vocab(&self, input: &CheckInput) -> RaceVocab {
        RaceVocab::build(&input.set.registry)
    }

    fn expanded(&self, vocab: &RaceVocab, t: &Trace) -> TraceRaceFacts {
        expanded::summarize(t.id, &t.to_symbols(), t.truncated, vocab)
    }

    fn compressed(
        &self,
        vocab: &RaceVocab,
        table: &LoopTable,
        t: &Trace,
        term: &Nlr,
    ) -> TraceRaceFacts {
        compressed::summarize(table, vocab, t.id, term, t.truncated)
    }

    fn analyze(
        &self,
        _vocab: &RaceVocab,
        _input: &CheckInput,
        facts: Vec<TraceRaceFacts>,
    ) -> RaceReport {
        analyze(&facts)
    }

    fn attached(run: &DiffRun) -> Option<&PrePass<RaceCheck>> {
        run.race.as_ref()
    }
}

/// Analyze one execution's traces for shared-memory races.
pub fn racecheck_set(set: &TraceSet, opts: &CheckOptions) -> RaceReport {
    run_facts(
        &RaceCheck,
        &CheckInput { set, hb: None },
        opts,
        &dt_obs::NOOP,
    )
}
