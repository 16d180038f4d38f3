//! The tracelint checker: static trace analysis before any diffing.
//!
//! [`Lint`] runs the TL001–TL006 rule families (see the `tracelint`
//! crate) over one execution's raw traces. Its per-trace facts are the
//! stack-discipline findings (TL001/TL003); its cross-trace (TL002),
//! round-trip (TL005), filter (TL004) and lattice (TL006) rules do not
//! fit per-trace facts, so lint implements the whole run step itself
//! on top of the shared fold and per-trace dispatch.

use crate::check::{trace_facts, CheckInput, CheckOptions, Checker, LintDomain, PrePass, RawFold};
use crate::filter::{table_i_catalog, ClassProbe, FilterConfig};
use crate::pipeline::{analyze, DiffRun, Params, PipelineOptions};
use crate::sync::{effective_threads, par_map};
use dt_obs::Recorder;
use dt_trace::{FunctionRegistry, Trace, TraceId, TraceSet};
use nlr::{LoopTable, Nlr};
use std::sync::Arc;
use tracelint::compressed::{
    check_collective_order_compressed, check_stack_discipline_compressed, rank_streams,
    CollProjector, EffectChecker,
};
use tracelint::rules;
use tracelint::{Diagnostic, LintReport, RuleCode, Span};

/// Options of one checker run. `threads` and `domain` apply to every
/// checker; `deep` and `filter` only to lint
/// ([`Checker::LINT_OPTIONS`]).
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Worker threads (same convention as
    /// [`PipelineOptions::threads`]: `1` sequential, `0` all cores).
    pub threads: usize,
    /// Implementation family for the per-trace facts.
    pub domain: LintDomain,
    /// Also run the expensive TL006 lattice postconditions.
    pub deep: bool,
    /// Filter whose keep classes TL004 probes (and whose `K` sizes the
    /// NLR terms). `None` probes the Table I presets instead.
    pub filter: Option<FilterConfig>,
}

impl Default for LintOptions {
    fn default() -> LintOptions {
        LintOptions {
            threads: 1,
            domain: LintDomain::Expanded,
            deep: false,
            filter: None,
        }
    }
}

impl LintOptions {
    /// Options for the pipeline pre-pass: probe the pipeline's own
    /// filter, expanded domain for precise spans, no deep pass.
    pub fn for_pipeline(params: &Params, threads: usize) -> LintOptions {
        LintOptions {
            threads,
            domain: LintDomain::Expanded,
            deep: false,
            filter: Some(params.filter.clone()),
        }
    }

    /// The options every checker understands; the NLR window is the
    /// filter's `K` (10 without a filter).
    pub fn check_options(&self) -> CheckOptions {
        CheckOptions {
            threads: self.threads,
            domain: self.domain,
            nlr_k: self.filter.as_ref().map_or(10, |f| f.nlr_k),
        }
    }
}

/// The tracelint [`Checker`].
#[derive(Debug, Clone, Copy)]
pub struct Lint;

impl Checker for Lint {
    type Code = RuleCode;
    type Facts = Vec<Diagnostic>;
    type Vocab = Arc<FunctionRegistry>;

    const NAME: &'static str = "lint";
    const TAG: &'static str = "lint";
    const DIFF_FLAG: &'static str = "--gate";
    const LINT_OPTIONS: bool = true;

    fn vocab(&self, input: &CheckInput) -> Arc<FunctionRegistry> {
        input.set.registry.clone()
    }

    fn expanded(&self, registry: &Arc<FunctionRegistry>, t: &Trace) -> Vec<Diagnostic> {
        rules::check_stack_discipline(t, registry)
    }

    fn compressed(
        &self,
        registry: &Arc<FunctionRegistry>,
        table: &LoopTable,
        t: &Trace,
        term: &Nlr,
    ) -> Vec<Diagnostic> {
        let mut checker = EffectChecker::new(table);
        check_stack_discipline_compressed(&mut checker, t.id, term, t.truncated, registry)
    }

    /// The per-trace findings alone; [`Lint::run`] adds the rest.
    fn analyze(
        &self,
        _registry: &Arc<FunctionRegistry>,
        _input: &CheckInput,
        facts: Vec<Vec<Diagnostic>>,
    ) -> LintReport {
        LintReport::new(facts.into_iter().flatten().collect())
    }

    fn run(&self, input: &CheckInput, opts: &LintOptions, rec: &dyn Recorder) -> LintReport {
        let set = input.set;
        let traces: Vec<&Trace> = set.iter().collect();
        let threads = effective_threads(opts.threads, traces.len().max(1));
        let k = opts.check_options().nlr_k;
        // TL005 checks the raw NLR terms, so lint folds in both domains.
        let fold = RawFold::build(Self::NAME, &traces, k, threads, rec);
        let registry = self.vocab(input);
        let per_trace = trace_facts(self, &registry, &traces, opts.domain, Some(&fold), threads);
        let roundtrip = par_map(&fold.streams.traces, threads, |i, rt| {
            rules::check_roundtrip(rt.id, &rt.symbols, fold.term(traces[i]), &fold.table)
        });
        let mut diags: Vec<Diagnostic> = per_trace.into_iter().chain(roundtrip).flatten().collect();

        // Cross-trace and corpus-level rules, sequential.
        match opts.domain {
            LintDomain::Expanded => diags.extend(rules::check_collective_order(set)),
            LintDomain::Compressed => {
                let coll = rules::collective_fn_ids(&registry);
                let mut projector = CollProjector::new(&fold.table, &coll);
                let terms: Vec<(TraceId, &Nlr, bool)> = fold
                    .nlrs
                    .nlrs
                    .iter()
                    .map(|(&id, n)| (id, n, *fold.nlrs.truncated.get(&id).unwrap_or(&false)))
                    .collect();
                let ranks = rank_streams(&terms, &mut projector);
                diags.extend(check_collective_order_compressed(
                    &ranks, &projector, &registry,
                ));
            }
        }
        diags.extend(dead_filter_diags(
            opts.filter.as_ref(),
            &registry.names(),
            k,
        ));
        if opts.deep {
            diags.extend(deep_lattice_diags(set, opts, k));
        }
        LintReport::new(diags)
    }

    fn attached(run: &DiffRun) -> Option<&PrePass<Lint>> {
        run.lint.as_ref()
    }
}

/// Lint one execution. Diagnostics are byte-identical for every thread
/// count: per-trace checks fan out input-ordered, cross-trace checks
/// run sequentially, and [`LintReport::new`] sorts canonically.
pub fn lint_set(set: &TraceSet, opts: &LintOptions) -> LintReport {
    Lint.run(&CheckInput { set, hb: None }, opts, &dt_obs::NOOP)
}

/// TL004: dead-filter analysis. With a filter, probe its keep classes;
/// without one, probe every Table I preset against the corpus's
/// distinct function names.
fn dead_filter_diags(filter: Option<&FilterConfig>, names: &[String], k: usize) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    match filter {
        Some(cfg) => {
            for probe in cfg.probe_classes(names) {
                out.extend(probe_diag(&probe, names.len()));
            }
        }
        None => {
            for (label, cfg) in table_i_catalog(k) {
                if cfg.keep.is_empty() {
                    continue; // "Everything" keeps all — never dead.
                }
                let dead = cfg.probe_classes(names).iter().all(|p| p.matched == 0);
                if dead {
                    out.push(
                        Diagnostic::warning(
                            RuleCode::DeadFilter,
                            format!(
                                "Table I filter `{label}` matches none of the {} distinct \
                                 function name(s) in this corpus",
                                names.len()
                            ),
                        )
                        .with_hint("running the pipeline under this filter would diff empty NLRs"),
                    );
                }
            }
        }
    }
    out
}

/// One keep class's probe result, as diagnostics.
fn probe_diag(probe: &ClassProbe, corpus: usize) -> Vec<Diagnostic> {
    let describe = |p: &ClassProbe| match &p.pattern {
        Some(pat) => format!("custom pattern `{pat}`"),
        None => format!("filter class `{}`", p.code),
    };
    if let Some((at, msg)) = &probe.parse_error {
        return vec![Diagnostic::error(
            RuleCode::DeadFilter,
            format!("{} fails to parse at byte {at}: {msg}", describe(probe)),
        )
        .with_span(Span::at(*at))
        .with_hint("the span is a byte offset into the pattern string")];
    }
    if !probe.satisfiable {
        return vec![Diagnostic::error(
            RuleCode::DeadFilter,
            format!(
                "{} cannot match any string (contradictory anchors)",
                describe(probe)
            ),
        )
        .with_hint("remove the unreachable `^`/`$` assertion")];
    }
    if probe.matched == 0 {
        return vec![Diagnostic::warning(
            RuleCode::DeadFilter,
            format!(
                "{} matches none of the {corpus} distinct function name(s) in this corpus",
                describe(probe)
            ),
        )
        .with_hint("a filter that keeps nothing makes every downstream stage vacuous")];
    }
    Vec::new()
}

/// TL006 (deep): run the front half of the pipeline and check the
/// Godin postconditions of the resulting concept lattice.
fn deep_lattice_diags(set: &TraceSet, opts: &LintOptions, k: usize) -> Vec<Diagnostic> {
    let params = Params {
        filter: opts
            .filter
            .clone()
            .unwrap_or_else(|| FilterConfig::everything(k)),
        ..Params::default()
    };
    let run = analyze(
        set,
        &params,
        &mut LoopTable::new(),
        &PipelineOptions::with_threads(opts.threads),
        &dt_obs::NOOP,
    );
    rules::check_lattice(&run.lattice, &run.context)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record_masters;
    use dt_trace::FunctionRegistry;
    use std::sync::Arc;
    use tracelint::Severity;

    fn clean_run() -> TraceSet {
        let registry = Arc::new(FunctionRegistry::new());
        record_masters(&registry, 4, |_p, tr| {
            tr.leaf("MPI_Init");
            for _ in 0..6 {
                tr.leaf("MPI_Allreduce");
                tr.leaf("compute");
            }
            tr.leaf("MPI_Finalize");
        })
    }

    fn run_with_divergent_rank() -> TraceSet {
        let registry = Arc::new(FunctionRegistry::new());
        record_masters(&registry, 4, |p, tr| {
            tr.leaf("MPI_Init");
            if p == 2 {
                tr.leaf("MPI_Reduce");
            } else {
                tr.leaf("MPI_Allreduce");
            }
            tr.leaf("MPI_Finalize");
        })
    }

    #[test]
    fn clean_run_lints_clean() {
        // With the pipeline's own (live) filter, nothing fires.
        let report = lint_set(
            &clean_run(),
            &LintOptions {
                filter: Some(FilterConfig::mpi_all(10)),
                ..LintOptions::default()
            },
        );
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn divergent_rank_trips_tl002_in_both_domains() {
        let set = run_with_divergent_rank();
        for domain in [LintDomain::Expanded, LintDomain::Compressed] {
            let report = lint_set(
                &set,
                &LintOptions {
                    domain,
                    ..LintOptions::default()
                },
            );
            assert!(
                report.codes().contains(&RuleCode::CollectiveOrder),
                "{domain:?}: {}",
                report.render_text()
            );
            assert!(report.has_errors());
        }
    }

    #[test]
    fn dead_and_broken_custom_filters_trip_tl004() {
        let set = clean_run();
        // Dead (valid but matches nothing) → warning.
        let dead = lint_set(
            &set,
            &LintOptions {
                filter: Some(FilterConfig::parse_lenient("11.cust:^CUDA_.K10").unwrap()),
                ..LintOptions::default()
            },
        );
        assert!(dead.codes().contains(&RuleCode::DeadFilter));
        assert_eq!(dead.error_count(), 0);
        assert_eq!(dead.warning_count(), 1);

        // Unparsable → error, span at the offending byte (the `*`
        // at byte 0 has nothing to repeat).
        let broken = lint_set(
            &set,
            &LintOptions {
                filter: Some(FilterConfig::parse_lenient("11.cust:*oops.K10").unwrap()),
                ..LintOptions::default()
            },
        );
        let d = broken
            .diagnostics()
            .iter()
            .find(|d| d.code == RuleCode::DeadFilter)
            .expect("TL004 fired");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.span, Some(Span::at(0)));

        // Unsatisfiable anchors → error.
        let unsat = lint_set(
            &set,
            &LintOptions {
                filter: Some(FilterConfig::parse_lenient("11.cust:a$b.K10").unwrap()),
                ..LintOptions::default()
            },
        );
        assert!(unsat.has_errors());
        assert!(unsat.render_text().contains("cannot match any string"));
    }

    #[test]
    fn preset_probe_flags_dead_table_i_rows() {
        // Without a filter the pass audits the Table I presets. A
        // pure-MPI corpus leaves the OMP preset (among others) dead —
        // warnings only, never errors.
        let report = lint_set(&clean_run(), &LintOptions::default());
        assert!(!report.has_errors(), "{}", report.render_text());
        let text = report.render_text();
        assert!(text.contains("OMP All"), "{text}");
        assert!(!text.contains("`MPI All`"), "{text}");
        assert!(report
            .diagnostics()
            .iter()
            .all(|d| d.code == RuleCode::DeadFilter));
    }

    #[test]
    fn deep_pass_checks_the_lattice() {
        let report = lint_set(
            &clean_run(),
            &LintOptions {
                deep: true,
                filter: Some(FilterConfig::mpi_all(10)),
                ..LintOptions::default()
            },
        );
        assert!(report.is_clean(), "{}", report.render_text());
    }
}
