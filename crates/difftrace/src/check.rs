//! The one checker path: every pre-diff analysis — tracelint,
//! hbcheck, racecheck, reqcheck — implements [`Checker`], and the CLI,
//! the daemon, the diff pipeline and `baseline` all reach them through
//! the [`CHECKERS`] registry instead of one copy of plumbing each.
//!
//! A checker supplies per-trace *facts* in two domains — over the
//! expanded event stream, and over the trace's raw (unfiltered) NLR
//! term without expanding it — plus a [`Checker::analyze`] step that
//! turns the input-ordered facts into a report. [`run_facts`] owns the
//! rest: the raw NLR fold (compressed domain only), the per-trace
//! fan-out through [`crate::sync::par_map`], and the `<name>_folds`
//! counter. Reports are byte-identical at every thread count, and the
//! two domains agree (DESIGN.md §14).

use crate::filter::{FilteredSet, FilteredTrace};
use crate::lint::LintOptions;
use crate::nlr_stage::NlrSet;
use crate::pipeline::{build_nlrs, DiffRun, PipelineOptions};
use crate::sync::{effective_threads, par_map};
use dt_obs::{stage_owned, Recorder};
use dt_trace::hb::HbLog;
use dt_trace::{Trace, TraceSet};
use nlr::{LoopTable, Nlr};
use std::fmt;
use tracelint::{AnyCode, Code, Report};

/// When a checker's findings stop the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintGate {
    /// Skip the pass entirely (the default).
    #[default]
    Off,
    /// Run the pass and attach its reports, but never stop.
    Warn,
    /// Refuse to run the pipeline if any **error**-severity diagnostic
    /// fires (warnings pass).
    Deny,
}

impl LintGate {
    /// Parse a CLI-style gate name.
    pub fn parse(s: &str) -> Result<LintGate, String> {
        match s {
            "off" => Ok(LintGate::Off),
            "warn" => Ok(LintGate::Warn),
            "deny" => Ok(LintGate::Deny),
            other => Err(format!("unknown lint gate `{other}` (off|warn|deny)")),
        }
    }
}

/// Which implementation family computes a checker's per-trace facts.
///
/// Both produce the same reports — for lint the same per-trace
/// verdicts, since its expanded domain adds precise event-offset spans
/// (the agreement contract, DESIGN.md §14). The compressed domain
/// never expands the NLR terms and is flat in loop repetition count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintDomain {
    /// Scan the expanded event streams.
    #[default]
    Expanded,
    /// Check the NLR terms directly.
    Compressed,
}

impl LintDomain {
    /// Parse a CLI-style domain name.
    pub fn parse(s: &str) -> Result<LintDomain, String> {
        match s {
            "expanded" => Ok(LintDomain::Expanded),
            "compressed" => Ok(LintDomain::Compressed),
            other => Err(format!(
                "unknown lint domain `{other}` (expanded|compressed)"
            )),
        }
    }
}

/// Configuration for one [`run_facts`] pass.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Worker threads (same convention as
    /// [`PipelineOptions::threads`]: `1` sequential, `0` all cores).
    pub threads: usize,
    /// Implementation family for the per-trace facts.
    pub domain: LintDomain,
    /// NLR window size used by the compressed domain.
    pub nlr_k: usize,
}

impl Default for CheckOptions {
    fn default() -> CheckOptions {
        CheckOptions {
            threads: 1,
            domain: LintDomain::Expanded,
            nlr_k: 10,
        }
    }
}

/// One execution as a checker sees it.
#[derive(Clone, Copy)]
pub struct CheckInput<'a> {
    /// The recorded traces.
    pub set: &'a TraceSet,
    /// The happens-before log, when the run carries one. Checkers with
    /// [`Checker::NEEDS_HB`] only ever run with `Some`.
    pub hb: Option<&'a HbLog>,
}

/// The raw (unfiltered) symbol streams of one execution and their NLR
/// terms under one canonical loop table.
pub struct RawFold {
    /// The streams, in trace-set order.
    pub streams: FilteredSet,
    /// One term per trace.
    pub nlrs: NlrSet,
    /// The loop table the terms reference.
    pub table: LoopTable,
}

impl RawFold {
    /// Fold every trace's raw stream — identical output at any thread
    /// count (see `nlr::shared`) — and count the folds as
    /// `<name>_folds` in `rec`.
    pub fn build(
        name: &str,
        traces: &[&Trace],
        k: usize,
        threads: usize,
        rec: &dyn Recorder,
    ) -> RawFold {
        let streams = FilteredSet {
            traces: traces
                .iter()
                .map(|t| FilteredTrace {
                    id: t.id,
                    symbols: t.to_symbols(),
                    truncated: t.truncated,
                })
                .collect(),
        };
        let mut table = LoopTable::new();
        let (nlrs, folds) = build_nlrs(&streams, k, &mut table, threads, None, None);
        if rec.enabled() {
            rec.add(&format!("{name}_folds"), folds);
        }
        RawFold {
            streams,
            nlrs,
            table,
        }
    }

    /// The term of trace `t`.
    pub fn term(&self, t: &Trace) -> &Nlr {
        self.nlrs.get(t.id).expect("term built for every trace")
    }
}

/// One pre-diff analysis. Implementations are unit structs listed in
/// [`CHECKERS`]; everything that differs between checkers is trait
/// data here, never a `match` on the checker's name.
pub trait Checker: Sync + Sized {
    /// The checker's rule codes.
    type Code: Code + fmt::Debug;
    /// What one trace contributes to the analysis.
    type Facts: Send;
    /// Per-execution lookup data shared by every trace (e.g. the
    /// marker vocabulary resolved against the registry).
    type Vocab: Sync;

    /// Subcommand, query, metrics-stage and counter name.
    const NAME: &'static str;
    /// Short tag of the diff pre-pass stage (`pre/<tag>`) and of the
    /// baseline counters (`baseline_<tag>_errors`).
    const TAG: &'static str;
    /// The `difftrace diff` flag that gates the pre-pass.
    const DIFF_FLAG: &'static str;
    /// Needs the run's happens-before section.
    const NEEDS_HB: bool = false;
    /// Takes the lint-only options `--trace`, `--deep` and `--filter`.
    const LINT_OPTIONS: bool = false;

    /// Build the per-execution lookup data.
    fn vocab(&self, input: &CheckInput) -> Self::Vocab;
    /// Facts of one trace from its expanded event stream.
    fn expanded(&self, vocab: &Self::Vocab, trace: &Trace) -> Self::Facts;
    /// Facts of one trace from its raw NLR `term`, without expansion.
    fn compressed(
        &self,
        vocab: &Self::Vocab,
        table: &LoopTable,
        trace: &Trace,
        term: &Nlr,
    ) -> Self::Facts;
    /// Turn the input-ordered facts into the execution's report.
    fn analyze(
        &self,
        vocab: &Self::Vocab,
        input: &CheckInput,
        facts: Vec<Self::Facts>,
    ) -> Report<Self::Code>;

    /// The whole run step. Only lint overrides it: its cross-trace and
    /// filter rules do not fit per-trace facts. `opts` carries every
    /// checker's options; only `LINT_OPTIONS` checkers read `deep` and
    /// `filter`.
    fn run(
        &self,
        input: &CheckInput,
        opts: &LintOptions,
        rec: &dyn Recorder,
    ) -> Report<Self::Code> {
        run_facts(self, input, &opts.check_options(), rec)
    }

    /// Divergence causes found in a faulty run's `report`: the ranks
    /// involved and the message `diffNLR` views of those ranks carry.
    fn causes(&self, _input: &CheckInput, _report: &Report<Self::Code>) -> Vec<(Vec<u32>, String)> {
        Vec::new()
    }

    /// This checker's pre-pass gate.
    fn gate(opts: &PipelineOptions) -> LintGate;
    /// This checker's pre-pass gate, for setting it.
    fn gate_mut(opts: &mut PipelineOptions) -> &mut LintGate;
    /// This checker's pre-pass results on a finished diff.
    fn attached(run: &DiffRun) -> Option<&PrePass<Self>>;
}

/// Per-trace facts in input order: the one place a checker's domain is
/// dispatched. `fold` must be present for the compressed domain.
pub(crate) fn trace_facts<C: Checker>(
    checker: &C,
    vocab: &C::Vocab,
    traces: &[&Trace],
    domain: LintDomain,
    fold: Option<&RawFold>,
    threads: usize,
) -> Vec<C::Facts> {
    par_map(traces, threads, |_, t| match (domain, fold) {
        (LintDomain::Compressed, Some(f)) => checker.compressed(vocab, &f.table, t, f.term(t)),
        (LintDomain::Compressed, None) => unreachable!("the compressed domain folds first"),
        (LintDomain::Expanded, _) => checker.expanded(vocab, t),
    })
}

/// Run `checker` over one execution: fold the raw streams when the
/// domain is compressed, fan the per-trace facts out, then analyze.
/// The report is byte-identical at every thread count.
pub fn run_facts<C: Checker>(
    checker: &C,
    input: &CheckInput,
    opts: &CheckOptions,
    rec: &dyn Recorder,
) -> Report<C::Code> {
    let traces: Vec<&Trace> = input.set.iter().collect();
    let threads = effective_threads(opts.threads, traces.len().max(1));
    let fold = (opts.domain == LintDomain::Compressed)
        .then(|| RawFold::build(C::NAME, &traces, opts.nlr_k, threads, rec));
    let vocab = checker.vocab(input);
    let facts = trace_facts(
        checker,
        &vocab,
        &traces,
        opts.domain,
        fold.as_ref(),
        threads,
    );
    checker.analyze(&vocab, input, facts)
}

/// `<name> (normal):` and `<name> (faulty):` followed by each report's
/// text — how the CLI shows a pre-pass on stderr.
fn render_pair<C: Code>(name: &str, normal: &Report<C>, faulty: &Report<C>) -> String {
    format!(
        "{name} (normal):\n{}{name} (faulty):\n{}",
        normal.render_text(),
        faulty.render_text()
    )
}

/// The results of one checker's diff pre-pass, kept on the
/// [`DiffRun`] when its gate is `Warn` (or a passing `Deny`).
#[derive(Debug, Clone)]
pub struct PrePass<C: Checker> {
    /// Report for the normal execution.
    pub normal: Report<C::Code>,
    /// Report for the faulty execution.
    pub faulty: Report<C::Code>,
    /// The faulty run's divergence causes ([`Checker::causes`]).
    pub causes: Vec<(Vec<u32>, String)>,
}

impl<C: Checker> PrePass<C> {
    /// Run `checker` over both executions of a diff under its gate in
    /// `opts`. `None` when the gate is off, or when the checker needs
    /// happens-before logs and the inputs carry none.
    pub fn run(
        checker: &C,
        normal: &CheckInput,
        faulty: &CheckInput,
        check: &LintOptions,
        opts: &PipelineOptions,
        rec: &dyn Recorder,
    ) -> Result<Option<PrePass<C>>, DiffDenied> {
        let gate = C::gate(opts);
        if gate == LintGate::Off || (C::NEEDS_HB && normal.hb.is_none()) {
            return Ok(None);
        }
        let _s = stage_owned(rec, format!("pre/{}", C::TAG));
        let n = checker.run(normal, check, rec);
        let f = checker.run(faulty, check, rec);
        if gate == LintGate::Deny && (n.has_errors() || f.has_errors()) {
            return Err(DiffDenied {
                checker: C::NAME,
                normal: n.erase(),
                faulty: f.erase(),
            });
        }
        let causes = checker.causes(faulty, &f);
        Ok(Some(PrePass {
            normal: n,
            faulty: f,
            causes,
        }))
    }

    /// The divergence cause for trace `rank`, if the faulty run's
    /// report names one.
    pub fn cause_for(&self, rank: u32) -> Option<&str> {
        self.causes
            .iter()
            .find(|(ranks, _)| ranks.contains(&rank))
            .map(|(_, msg)| msg.as_str())
    }
}

/// A gated pre-pass refused to diff: the denying checker and its
/// reports for both executions.
#[derive(Debug)]
pub struct DiffDenied {
    /// [`Checker::NAME`] of the checker whose `Deny` gate tripped.
    pub checker: &'static str,
    /// Report for the normal execution.
    pub normal: Report<AnyCode>,
    /// Report for the faulty execution.
    pub faulty: Report<AnyCode>,
}

impl DiffDenied {
    /// Both reports as the CLI prints them on stderr.
    pub fn render_reports(&self) -> String {
        render_pair(self.checker, &self.normal, &self.faulty)
    }
}

impl fmt::Display for DiffDenied {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} gate denied: {} error(s) in the normal run, {} in the faulty run",
            self.checker,
            self.normal.error_count(),
            self.faulty.error_count()
        )
    }
}

impl std::error::Error for DiffDenied {}

/// A [`Checker`] with its types erased, as the registry holds it.
/// Blanket-implemented for every checker.
pub trait AnyChecker: Sync {
    /// [`Checker::NAME`].
    fn name(&self) -> &'static str;
    /// [`Checker::TAG`].
    fn tag(&self) -> &'static str;
    /// [`Checker::DIFF_FLAG`].
    fn diff_flag(&self) -> &'static str;
    /// [`Checker::NEEDS_HB`].
    fn needs_hb(&self) -> bool;
    /// [`Checker::LINT_OPTIONS`].
    fn lint_options(&self) -> bool;
    /// [`Checker::run`], with the report's code type erased.
    fn check(&self, input: &CheckInput, opts: &LintOptions, rec: &dyn Recorder) -> Report<AnyCode>;
    /// [`Checker::gate`].
    fn gate(&self, opts: &PipelineOptions) -> LintGate;
    /// [`Checker::gate_mut`].
    fn gate_mut<'o>(&self, opts: &'o mut PipelineOptions) -> &'o mut LintGate;
    /// The attached pre-pass reports of `run` as the CLI prints them on
    /// stderr; empty when the pass did not run or found nothing.
    fn findings(&self, run: &DiffRun) -> String;
}

impl<C: Checker> AnyChecker for C {
    fn name(&self) -> &'static str {
        C::NAME
    }
    fn tag(&self) -> &'static str {
        C::TAG
    }
    fn diff_flag(&self) -> &'static str {
        C::DIFF_FLAG
    }
    fn needs_hb(&self) -> bool {
        C::NEEDS_HB
    }
    fn lint_options(&self) -> bool {
        C::LINT_OPTIONS
    }
    fn check(&self, input: &CheckInput, opts: &LintOptions, rec: &dyn Recorder) -> Report<AnyCode> {
        self.run(input, opts, rec).erase()
    }
    fn gate(&self, opts: &PipelineOptions) -> LintGate {
        C::gate(opts)
    }
    fn gate_mut<'o>(&self, opts: &'o mut PipelineOptions) -> &'o mut LintGate {
        C::gate_mut(opts)
    }
    fn findings(&self, run: &DiffRun) -> String {
        match C::attached(run) {
            Some(p) if !p.normal.is_clean() || !p.faulty.is_clean() => {
                render_pair(C::NAME, &p.normal, &p.faulty)
            }
            _ => String::new(),
        }
    }
}

/// Every checker, in pre-pass order: a diff runs the gated ones in
/// this order and stops at the first `Deny` that trips.
pub static CHECKERS: [&dyn AnyChecker; 4] = [
    &crate::lint::Lint,
    &crate::hbcheck::HbCheck,
    &crate::racecheck::RaceCheck,
    &crate::reqcheck::ReqCheck,
];

/// The registered checker called `name`.
pub fn checker(name: &str) -> Option<&'static dyn AnyChecker> {
    CHECKERS.iter().copied().find(|c| c.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::{AttrConfig, AttrKind, FreqMode};
    use crate::filter::FilterConfig;
    use crate::pipeline::{try_diff_runs, Params};
    use dt_trace::hb::{BlockedOp, HbOp, VectorClock};
    use dt_trace::{FunctionRegistry, TraceCollector, TraceId, Tracer};
    use std::sync::Arc;

    /// A (normal, faulty) pair of executions with their HB logs.
    struct Pair {
        normal: (TraceSet, HbLog),
        faulty: (TraceSet, HbLog),
    }

    /// One conformance row: a registered checker, a pair whose normal
    /// side is clean and whose faulty side trips error findings, the
    /// exact deny message of a diff gated on it, and whether its two
    /// domains agree byte for byte (lint's expanded domain adds
    /// precise event spans, so its contract is per-trace verdicts).
    struct Row {
        name: &'static str,
        pair: fn() -> Pair,
        denied: &'static str,
        exact_domains: bool,
    }

    const ROWS: [Row; 4] = [
        Row {
            name: "lint",
            pair: divergent_pair,
            denied: "lint gate denied: 0 error(s) in the normal run, 1 in the faulty run",
            exact_domains: false,
        },
        Row {
            name: "hbcheck",
            pair: deadlocked_pair,
            denied: "hbcheck gate denied: 0 error(s) in the normal run, 1 in the faulty run",
            exact_domains: true,
        },
        Row {
            name: "racecheck",
            pair: racy_pair,
            denied: "racecheck gate denied: 0 error(s) in the normal run, 2 in the faulty run",
            exact_domains: true,
        },
        Row {
            name: "reqcheck",
            pair: leaky_pair,
            denied: "reqcheck gate denied: 0 error(s) in the normal run, 1 in the faulty run",
            exact_domains: true,
        },
    ];

    fn no_hb(set: TraceSet) -> (TraceSet, HbLog) {
        (set, HbLog::new(0))
    }

    /// Master traces of `ranks` processes, each running `body(rank)`.
    fn masters(ranks: u32, body: impl Fn(u32, &Tracer) + Sync) -> TraceSet {
        crate::record_masters(&Arc::new(FunctionRegistry::new()), ranks, body)
    }

    /// Rank 2 of the faulty run calls a different collective (TL002).
    fn divergent_pair() -> Pair {
        let run = |divergent: bool| {
            masters(4, move |p, tr| {
                tr.leaf("MPI_Init");
                for _ in 0..6 {
                    if divergent && p == 2 {
                        tr.leaf("MPI_Reduce");
                    } else {
                        tr.leaf("MPI_Allreduce");
                    }
                    tr.leaf("compute");
                }
                tr.leaf("MPI_Finalize");
            })
        };
        Pair {
            normal: no_hb(run(false)),
            faulty: no_hb(run(true)),
        }
    }

    /// The faulty run's HB log records a recv↔recv deadlock between
    /// ranks 0 and 1.
    fn deadlocked_pair() -> Pair {
        let normal = masters(2, |_p, tr| {
            tr.leaf("MPI_Init");
            for _ in 0..8 {
                tr.leaf("MPI_Send");
                tr.leaf("MPI_Recv");
            }
            tr.leaf("MPI_Finalize");
        });
        let faulty = masters(2, |_p, tr| {
            tr.leaf("MPI_Init");
            for _ in 0..3 {
                tr.leaf("MPI_Send");
                tr.leaf("MPI_Recv");
            }
            let open = Box::new(tr.enter("MPI_Recv"));
            std::mem::forget(open); // hung: the receive never returns
        });
        let mut hb = HbLog::new(2);
        for r in 0..2u32 {
            let mut c = VectorClock::zero(2);
            c.tick(r as usize);
            hb.push(TraceId::master(r), "MPI_Init", HbOp::Local, &c);
            hb.blocked.push(BlockedOp {
                rank: r,
                name: "MPI_Recv".into(),
                op: HbOp::Recv {
                    src: Some(1 - r),
                    tag: 0,
                },
            });
        }
        Pair {
            normal: (normal, HbLog::new(2)),
            faulty: (faulty, hb),
        }
    }

    /// Two threads update `counter`; only the normal run locks.
    fn racy_pair() -> Pair {
        let run = |locked: bool| {
            let collector = TraceCollector::shared(Arc::new(FunctionRegistry::new()));
            for thread in 0..2 {
                let tr = collector.tracer(TraceId::new(0, thread));
                tr.leaf("MPI_Init");
                for _ in 0..50 {
                    tr.leaf("compute");
                    if locked {
                        tr.leaf("omp_acquire@l");
                    }
                    tr.leaf("omp_read@counter");
                    tr.leaf("omp_write@counter");
                    if locked {
                        tr.leaf("omp_release@l");
                    }
                }
                tr.leaf("MPI_Finalize");
                tr.finish();
            }
            collector.into_trace_set()
        };
        Pair {
            normal: no_hb(run(true)),
            faulty: no_hb(run(false)),
        }
    }

    /// The faulty run's rank 0 posts an `MPI_Isend` it never waits on.
    fn leaky_pair() -> Pair {
        let run = |leak: bool| {
            masters(2, move |p, tr| {
                tr.leaf("MPI_Init");
                for _ in 0..20 {
                    tr.leaf("MPI_Isend");
                    tr.leaf("compute");
                    tr.leaf("MPI_Wait");
                }
                if leak && p == 0 {
                    tr.leaf("MPI_Isend");
                    tr.leaf("mpi_req_pending@MPI_Isend:dst=1,tag=3");
                }
                tr.leaf("MPI_Finalize");
            })
        };
        Pair {
            normal: no_hb(run(false)),
            faulty: no_hb(run(true)),
        }
    }

    fn params() -> Params {
        Params::new(
            FilterConfig::mpi_all(10),
            AttrConfig {
                kind: AttrKind::Single,
                freq: FreqMode::Actual,
            },
        )
    }

    fn input((set, hb): &(TraceSet, HbLog)) -> CheckInput<'_> {
        CheckInput { set, hb: Some(hb) }
    }

    fn gated(c: &dyn AnyChecker, gate: LintGate) -> PipelineOptions {
        let mut opts = PipelineOptions::default();
        *c.gate_mut(&mut opts) = gate;
        opts
    }

    fn diff(pair: &Pair, opts: &PipelineOptions) -> Result<DiffRun, DiffDenied> {
        let logs = Some((&pair.normal.1, &pair.faulty.1));
        try_diff_runs(
            &pair.normal.0,
            &pair.faulty.0,
            logs,
            &params(),
            opts,
            &dt_obs::NOOP,
        )
    }

    #[test]
    fn rows_cover_the_registry() {
        let names: Vec<&str> = CHECKERS.iter().map(|c| c.name()).collect();
        let rows: Vec<&str> = ROWS.iter().map(|r| r.name).collect();
        assert_eq!(names, rows);
        for c in CHECKERS {
            assert!(std::ptr::eq(checker(c.name()).unwrap(), c));
        }
        assert!(checker("single").is_none());
    }

    #[test]
    fn both_domains_agree_at_every_thread_count() {
        for row in &ROWS {
            let c = checker(row.name).unwrap();
            let pair = (row.pair)();
            for side in [&pair.normal, &pair.faulty] {
                let run = |threads: usize, domain: LintDomain| {
                    let opts = LintOptions {
                        threads,
                        domain,
                        ..LintOptions::default()
                    };
                    c.check(&input(side), &opts, &dt_obs::NOOP)
                };
                let base = run(1, LintDomain::Expanded);
                for domain in [LintDomain::Expanded, LintDomain::Compressed] {
                    let at_one = run(1, domain);
                    if row.exact_domains {
                        assert_eq!(base.render_text(), at_one.render_text(), "{}", row.name);
                        assert_eq!(base.render_json(), at_one.render_json(), "{}", row.name);
                    } else {
                        for t in side.0.ids() {
                            assert_eq!(base.verdicts_for(t), at_one.verdicts_for(t));
                        }
                        assert_eq!(base.codes(), at_one.codes(), "{}", row.name);
                    }
                    for threads in [2usize, 0] {
                        let got = run(threads, domain);
                        let tag = format!("{}/{domain:?}/{threads}", row.name);
                        assert_eq!(at_one.render_text(), got.render_text(), "{tag}");
                        assert_eq!(at_one.render_json(), got.render_json(), "{tag}");
                    }
                }
            }
        }
    }

    #[test]
    fn compressed_domain_counts_its_folds() {
        for row in &ROWS {
            let c = checker(row.name).unwrap();
            let pair = (row.pair)();
            let rec = dt_obs::MetricsRecorder::new();
            let opts = LintOptions {
                domain: LintDomain::Compressed,
                ..LintOptions::default()
            };
            c.check(&input(&pair.faulty), &opts, &rec);
            let key = format!("{}_folds", row.name);
            let m = rec.finish(row.name, 1);
            let folds = pair.faulty.0.len() as u64;
            assert!(m.counters.contains(&(key, folds)), "{:?}", m.counters);
        }
    }

    #[test]
    fn prepass_pairs_both_executions() {
        for row in &ROWS {
            let c = checker(row.name).unwrap();
            let pair = (row.pair)();
            let d = diff(&pair, &gated(c, LintGate::Warn)).expect("warn never denies");
            let shown = c.findings(&d);
            let (normal, faulty) = shown
                .split_once(" (faulty):\n")
                .expect("faulty report shown");
            let clean = format!(
                "{} (normal):\n0 error(s), 0 warning(s)\n{}",
                row.name, row.name
            );
            assert_eq!(normal, clean, "{}", row.name);
            assert!(!faulty.starts_with("0 error(s)"), "{faulty}");
            // Other checkers' gates stayed off.
            for other in CHECKERS.iter().filter(|o| o.name() != row.name) {
                assert_eq!(other.findings(&d), "");
            }
        }
    }

    #[test]
    fn deny_gate_names_the_checker() {
        for row in &ROWS {
            let c = checker(row.name).unwrap();
            let pair = (row.pair)();
            let denied = diff(&pair, &gated(c, LintGate::Deny)).expect_err("deny must trip");
            assert_eq!(denied.checker, row.name);
            assert!(denied.normal.is_clean(), "{}", denied.normal.render_text());
            assert!(denied.faulty.has_errors());
            assert_eq!(denied.to_string(), row.denied);
            assert!(denied
                .render_reports()
                .starts_with(&format!("{} (normal):\n", row.name)));
        }
    }

    #[test]
    fn hb_cycle_annotates_diffnlr_as_the_divergence_cause() {
        let pair = deadlocked_pair();
        let d = diff(&pair, &gated(&crate::hbcheck::HbCheck, LintGate::Warn)).unwrap();
        let pre = d.hb.as_ref().expect("reports attached");
        assert_eq!(pre.causes.len(), 1);
        assert_eq!(pre.causes[0].0, vec![0, 1]);
        assert_eq!(pre.cause_for(0), pre.cause_for(1));
        for r in 0..2 {
            let view = d.diff_nlr(TraceId::master(r)).unwrap();
            let cause = view
                .divergence_cause
                .as_deref()
                .expect("rank is in the cycle");
            assert!(
                cause.contains("rank 0 blocked in MPI_Recv(src=1, tag=0)"),
                "{cause}"
            );
            assert!(
                view.render().contains("! cause: deadlock"),
                "{}",
                view.render()
            );
        }
        // Without logs the hb gate is inert even at Deny.
        let opts = gated(&crate::hbcheck::HbCheck, LintGate::Deny);
        let d = try_diff_runs(
            &pair.normal.0,
            &pair.faulty.0,
            None,
            &params(),
            &opts,
            &dt_obs::NOOP,
        )
        .unwrap();
        assert!(d.hb.is_none());
        let view = d.diff_nlr(TraceId::master(0)).unwrap();
        assert!(view.divergence_cause.is_none());
    }
}
