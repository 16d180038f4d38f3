//! The hbcheck checker: happens-before analysis before any diffing.
//!
//! [`HbCheck`] runs the HB001–HB005 rule families (see the `hbcheck`
//! crate) over one execution's causally-stamped event log and recorded
//! traces. Its per-trace facts are progress summaries; the wait-for
//! graph analysis over them is sequential and deterministic. It needs
//! the run's happens-before section, and the faulty run's deadlock
//! cycles become the divergence causes of `diffNLR` views (see
//! [`crate::check::Checker::causes`]).

use crate::check::{run_facts, CheckInput, CheckOptions, Checker, PrePass};
use crate::pipeline::DiffRun;
use ::hbcheck::{compressed, expanded, HbCode, HbReport, TraceProgress, WaitForGraph};
use dt_trace::hb::HbLog;
use dt_trace::{Trace, TraceSet};
use nlr::{LoopTable, Nlr};

/// The hbcheck [`Checker`].
#[derive(Debug, Clone, Copy)]
pub struct HbCheck;

impl Checker for HbCheck {
    type Code = HbCode;
    type Facts = TraceProgress;
    type Vocab = ();

    const NAME: &'static str = "hbcheck";
    const TAG: &'static str = "hb";
    const DIFF_FLAG: &'static str = "--hb";
    const NEEDS_HB: bool = true;

    fn vocab(&self, _input: &CheckInput) {}

    fn expanded(&self, _vocab: &(), t: &Trace) -> TraceProgress {
        expanded::summarize(t.id, &t.to_symbols(), t.truncated)
    }

    fn compressed(&self, _vocab: &(), table: &LoopTable, t: &Trace, term: &Nlr) -> TraceProgress {
        compressed::summarize(table, t.id, term, t.truncated)
    }

    fn analyze(&self, _vocab: &(), input: &CheckInput, facts: Vec<TraceProgress>) -> HbReport {
        let hb = input.hb.expect("hbcheck runs with a happens-before log");
        ::hbcheck::analyze(hb, &facts, &input.set.registry)
    }

    /// `analyze` emits its HB001 diagnostics in `cycles()` order, so
    /// zipping recovers each deadlock cycle's rendered chain.
    fn causes(&self, input: &CheckInput, report: &HbReport) -> Vec<(Vec<u32>, String)> {
        let Some(hb) = input.hb else {
            return Vec::new();
        };
        let messages = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == HbCode::WaitCycle)
            .map(|d| d.message.clone());
        WaitForGraph::build(hb)
            .cycles()
            .into_iter()
            .zip(messages)
            .collect()
    }

    fn attached(run: &DiffRun) -> Option<&PrePass<HbCheck>> {
        run.hb.as_ref()
    }
}

/// Analyze one execution's happens-before log.
pub fn hbcheck_set(set: &TraceSet, hb: &HbLog, opts: &CheckOptions) -> HbReport {
    let input = CheckInput { set, hb: Some(hb) };
    run_facts(&HbCheck, &input, opts, &dt_obs::NOOP)
}
