//! Sequential-equivalence harness for the parallel intra-run engine.
//!
//! The contract under test: for every pipeline entry point and every
//! thread count, the parallel execution produces **byte-identical**
//! results to `threads = 1` (the plain sequential path) — including the
//! parts where loop-ID numbering leaks into output (attribute names,
//! rendered NLR summaries, the loop table itself). Floats are compared
//! bit-for-bit, renders as exact strings.
//!
//! Workloads come from the `workloads` generators (the paper's case
//! studies), so the traces exercised here have realistic loop nests,
//! truncation, and cross-run asymmetries.

use cluster::render_dendrogram;
use difftrace::filter::symbol_name;
use difftrace::{
    analyze, analyze_single_opts_rec, diff_runs_opts, sweep, try_diff_runs, AnalysisRun,
    AttrConfig, AttrKind, DiffRun, FilterConfig, FreqMode, Params, PipelineOptions,
};
use dt_trace::{FunctionRegistry, TraceSet};
use nlr::{LoopId, LoopTable};
use std::sync::Arc;
use workloads::{
    run_ilcs, run_oddeven, run_stencil, IlcsConfig, OddEvenConfig, StencilConfig, StencilFault,
};

/// Thread counts that force the parallel code path (this container may
/// have a single core, so `0` could degenerate to sequential — use
/// explicit over-subscription instead, plus `0` for coverage).
const THREADS: &[usize] = &[2, 3, 8, 0];

fn workload_pairs() -> Vec<(&'static str, TraceSet, TraceSet)> {
    let mut out = Vec::new();

    let reg = Arc::new(FunctionRegistry::new());
    let n = run_oddeven(&OddEvenConfig::paper(None), reg.clone()).traces;
    let f = run_oddeven(&OddEvenConfig::paper(Some(OddEvenConfig::swap_bug())), reg).traces;
    out.push(("oddeven/swap", n, f));

    let reg = Arc::new(FunctionRegistry::new());
    let n = run_ilcs(&IlcsConfig::paper(None), reg.clone()).traces;
    let f = run_ilcs(&IlcsConfig::paper(Some(IlcsConfig::omp_crit_bug())), reg).traces;
    out.push(("ilcs/omp-crit", n, f));

    let reg = Arc::new(FunctionRegistry::new());
    let mut cfg = StencilConfig::default_8();
    let (n, _) = run_stencil(&cfg, reg.clone());
    cfg.fault = Some(StencilFault::FlippedSign { rank: 1 });
    let (f, _) = run_stencil(&cfg, reg);
    out.push(("stencil/flipped-sign", n.traces, f.traces));

    out
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

fn assert_tables_equal(tag: &str, a: &LoopTable, b: &LoopTable) {
    assert_eq!(a.len(), b.len(), "{tag}: loop table size");
    for i in 0..a.len() {
        let id = LoopId(i as u32);
        assert_eq!(a.body(id), b.body(id), "{tag}: body of L{i}");
    }
}

fn assert_matrices_equal(tag: &str, a: &difftrace::JsmMatrix, b: &difftrace::JsmMatrix) {
    assert_eq!(a.ids, b.ids, "{tag}: matrix labels");
    for (i, (ra, rb)) in a.m.iter().zip(&b.m).enumerate() {
        for (j, (x, y)) in ra.iter().zip(rb).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{tag}: cell ({i},{j})");
        }
    }
}

fn assert_runs_equal(tag: &str, a: &AnalysisRun, b: &AnalysisRun) {
    assert_eq!(a.ids, b.ids, "{tag}: trace ids");
    // Rendered NLR summaries — loop numbering included.
    let name = |s: u32| symbol_name(&a.registry, s);
    for id in &a.ids {
        let (na, nb) = (a.nlrs.get(*id).unwrap(), b.nlrs.get(*id).unwrap());
        assert_eq!(na.render(&name), nb.render(&name), "{tag}: NLR of {id}");
        assert_eq!(na.elements(), nb.elements(), "{tag}: elements of {id}");
    }
    assert_eq!(
        a.nlrs.truncated, b.nlrs.truncated,
        "{tag}: truncation flags"
    );
    // Mined context — attribute names carry loop IDs; CSV pins
    // object order, attribute order, and weights.
    assert_eq!(a.context.to_csv(), b.context.to_csv(), "{tag}: context");
    assert_eq!(
        a.lattice.to_dot(&a.context),
        b.lattice.to_dot(&b.context),
        "{tag}: lattice"
    );
    assert_matrices_equal(&format!("{tag}: JSM"), &a.jsm, &b.jsm);
    // Dendrogram — rendered form, which pins merge order and heights.
    let label_a = |i: usize| a.ids[i].to_string();
    let label_b = |i: usize| b.ids[i].to_string();
    assert_eq!(
        render_dendrogram(&a.dendrogram, &label_a),
        render_dendrogram(&b.dendrogram, &label_b),
        "{tag}: dendrogram"
    );
}

fn assert_diffs_equal(tag: &str, a: &DiffRun, b: &DiffRun) {
    assert_runs_equal(&format!("{tag}/normal"), &a.normal, &b.normal);
    assert_runs_equal(&format!("{tag}/faulty"), &a.faulty, &b.faulty);
    assert_tables_equal(tag, &a.table, &b.table);
    assert_matrices_equal(&format!("{tag}: JSM_D"), &a.jsm_d, &b.jsm_d);
    assert_eq!(a.bscore.to_bits(), b.bscore.to_bits(), "{tag}: B-score");
    assert_eq!(
        a.suspicious_processes, b.suspicious_processes,
        "{tag}: processes"
    );
    assert_eq!(a.suspicious_threads, b.suspicious_threads, "{tag}: threads");
    // diffNLR views (rendered, loop IDs and drill-downs included).
    for &id in &a.suspicious_threads {
        let va = a.diff_nlr(id).map(|v| v.render());
        let vb = b.diff_nlr(id).map(|v| v.render());
        assert_eq!(va, vb, "{tag}: diffNLR of {id}");
    }
}

#[test]
fn analyze_matches_sequential_on_all_workloads() {
    for (tag, normal, faulty) in workload_pairs() {
        for set in [&normal, &faulty] {
            let mut seq_table = LoopTable::new();
            let seq = analyze(
                set,
                &params(),
                &mut seq_table,
                &PipelineOptions::default(),
                &dt_obs::NOOP,
            );
            for &threads in THREADS {
                let mut par_table = LoopTable::new();
                let par = analyze(
                    set,
                    &params(),
                    &mut par_table,
                    &PipelineOptions::with_threads(threads),
                    &dt_obs::NOOP,
                );
                assert_runs_equal(&format!("{tag} t={threads}"), &seq, &par);
                assert_tables_equal(&format!("{tag} t={threads}"), &seq_table, &par_table);
            }
        }
    }
}

#[test]
fn diff_runs_matches_sequential_on_all_workloads() {
    for (tag, normal, faulty) in workload_pairs() {
        let seq = diff_runs_opts(&normal, &faulty, &params(), &PipelineOptions::default());
        for &threads in THREADS {
            let par = diff_runs_opts(
                &normal,
                &faulty,
                &params(),
                &PipelineOptions::with_threads(threads),
            );
            assert_diffs_equal(&format!("{tag} t={threads}"), &seq, &par);
        }
    }
}

#[test]
fn diff_runs_equivalence_across_attribute_configs() {
    // The loop-ID canonicalization must hold under every attribute
    // scheme (doubletons and context attributes mine different names
    // from the same summaries).
    let (tag, normal, faulty) = workload_pairs().swap_remove(0);
    for attrs in AttrConfig::ALL {
        let p = Params::new(FilterConfig::mpi_all(10), attrs);
        let seq = diff_runs_opts(&normal, &faulty, &p, &PipelineOptions::default());
        let par = diff_runs_opts(&normal, &faulty, &p, &PipelineOptions::with_threads(8));
        assert_diffs_equal(&format!("{tag} attrs={attrs}"), &seq, &par);
    }
}

#[test]
fn sweep_matches_sequential_on_workload_traces() {
    let (_, normal, faulty) = workload_pairs().swap_remove(0);
    let filters = vec![FilterConfig::mpi_all(10), FilterConfig::everything(10)];
    let attrs = [
        AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::Actual,
        },
        AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::NoFreq,
        },
    ];
    let sweep_at = |threads: usize| {
        let opts = PipelineOptions::with_threads(threads);
        sweep(
            &normal,
            &faulty,
            &filters,
            &attrs,
            cluster::Method::Ward,
            &opts,
            &dt_obs::NOOP,
        )
    };
    let serial = sweep_at(1);
    for &threads in THREADS {
        let par = sweep_at(threads);
        assert_eq!(par.len(), serial.len());
        for (a, b) in par.iter().zip(&serial) {
            assert_eq!(a.filter, b.filter, "t={threads}");
            assert_eq!(a.attrs, b.attrs, "t={threads}");
            assert_eq!(a.bscore.to_bits(), b.bscore.to_bits(), "t={threads}");
            assert_eq!(a.top_processes, b.top_processes, "t={threads}");
            assert_eq!(a.top_threads, b.top_threads, "t={threads}");
        }
    }
}

#[test]
fn instrumentation_is_observational() {
    // The dt-obs recorder must never influence analysis results: the
    // diff computed with a live MetricsRecorder is bit-identical to the
    // uninstrumented one, at the sequential and parallel thread counts
    // — and the recorder actually saw the pipeline run.
    let (tag, normal, faulty) = workload_pairs().swap_remove(0);
    for threads in [1usize, 4] {
        let opts = PipelineOptions::with_threads(threads);
        let plain = try_diff_runs(&normal, &faulty, None, &params(), &opts, &dt_obs::NOOP)
            .expect("gates are off");
        let rec = dt_obs::MetricsRecorder::new();
        let instrumented =
            try_diff_runs(&normal, &faulty, None, &params(), &opts, &rec).expect("gates are off");
        assert_diffs_equal(
            &format!("{tag} t={threads} instrumented"),
            &plain,
            &instrumented,
        );

        let m = rec.finish("diff", threads);
        let stage = |p: &str| {
            m.stages
                .iter()
                .find(|s| s.path == p)
                .unwrap_or_else(|| panic!("t={threads}: missing stage `{p}` in {:?}", m.stages))
        };
        for p in ["filter", "nlr", "mine", "lattice", "jsm", "linkage"] {
            assert!(stage(p).calls > 0, "t={threads}: stage `{p}` never ran");
        }
        for c in ["traces", "events_kept", "nlr_terms", "loops_interned"] {
            let &(_, v) = m
                .counters
                .iter()
                .find(|(k, _)| k == c)
                .unwrap_or_else(|| panic!("t={threads}: missing counter `{c}`"));
            assert!(v > 0, "t={threads}: counter `{c}` is zero");
        }
    }

    // Same contract for the single-run and sweep entry points.
    let single = PipelineOptions::default();
    let plain = analyze_single_opts_rec(&faulty, &params(), 0, &single, &dt_obs::NOOP);
    let rec = dt_obs::MetricsRecorder::new();
    let instrumented = analyze_single_opts_rec(&faulty, &params(), 0, &single, &rec);
    assert_runs_equal("single instrumented", &plain.run, &instrumented.run);
    assert_eq!(plain.clusters, instrumented.clusters, "single clusters");
    assert_eq!(plain.outliers, instrumented.outliers, "single outliers");

    let filters = vec![FilterConfig::mpi_all(10)];
    let attrs = [AttrConfig {
        kind: AttrKind::Single,
        freq: FreqMode::Actual,
    }];
    let plain = sweep(
        &normal,
        &faulty,
        &filters,
        &attrs,
        cluster::Method::Ward,
        &PipelineOptions::default(),
        &dt_obs::NOOP,
    );
    let rec = dt_obs::MetricsRecorder::new();
    let instrumented = sweep(
        &normal,
        &faulty,
        &filters,
        &attrs,
        cluster::Method::Ward,
        &PipelineOptions::with_threads(4),
        &rec,
    );
    assert_eq!(plain.len(), instrumented.len());
    for (a, b) in plain.iter().zip(&instrumented) {
        assert_eq!(a.bscore.to_bits(), b.bscore.to_bits(), "sweep instrumented");
        assert_eq!(a.top_threads, b.top_threads, "sweep instrumented");
    }
    let m = rec.finish("sweep", 4);
    assert!(
        m.workers.iter().any(|(p, _)| p == "cells"),
        "sweep recorded no per-worker busy times: {:?}",
        m.workers
    );
}

#[test]
fn repeated_parallel_runs_are_self_consistent() {
    // Schedules differ run to run; outputs must not. Ten parallel
    // repetitions of the same diff, all bit-identical.
    let (tag, normal, faulty) = workload_pairs().swap_remove(0);
    let first = diff_runs_opts(
        &normal,
        &faulty,
        &params(),
        &PipelineOptions::with_threads(8),
    );
    for rep in 0..9 {
        let again = diff_runs_opts(
            &normal,
            &faulty,
            &params(),
            &PipelineOptions::with_threads(8),
        );
        assert_diffs_equal(&format!("{tag} rep={rep}"), &first, &again);
    }
}
