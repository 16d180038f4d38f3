//! One function per paper artifact. Each returns a printable report;
//! the integration tests assert the reproduced *shapes* (who wins,
//! what is flagged, where traces truncate).

use crate::harness;
use difftrace::{
    analyze, diff_runs, render_ranking, sweep, AttrConfig, AttrKind, DiffRun, FilterConfig,
    FreqMode, KeepClass, Params, PipelineOptions, RankingRow,
};
use dt_trace::{FunctionRegistry, TraceId, TraceSetStats};
use nlr::LoopTable;
use std::fmt::Write as _;
use std::sync::Arc;
use workloads::{run_ilcs, run_lulesh, run_oddeven, IlcsConfig, LuleshConfig, OddEvenConfig};

fn oddeven4() -> dt_trace::TraceSet {
    let cfg = OddEvenConfig {
        ranks: 4,
        values_per_rank: 4,
        seed: 7,
        fault: None,
    };
    run_oddeven(&cfg, Arc::new(FunctionRegistry::new())).traces
}

/// Walk-through filter: MPI calls plus the user functions of Figure 2.
fn walkthrough_filter(k: usize) -> FilterConfig {
    FilterConfig {
        keep: vec![
            KeepClass::MpiAll,
            KeepClass::Custom("^(main|oddEvenSort|findPtr)$".to_string()),
        ],
        nlr_k: k,
        ..FilterConfig::default()
    }
}

/// E1 — Tables II & III: the odd/even traces (pre-processed) and their
/// NLR summaries.
pub fn e1_traces_and_nlr() -> String {
    let set = oddeven4();
    let mut out = String::new();
    out.push_str("== Table II: pre-processed traces (4 ranks) ==\n");
    let full = walkthrough_filter(10);
    let filtered = full.apply(&set);
    for t in &filtered.traces {
        let names: Vec<String> = t
            .symbols
            .iter()
            .map(|&s| difftrace::filter::symbol_name(&set.registry, s))
            .collect();
        let _ = writeln!(out, "T{}: {}", t.id.process, names.join(" · "));
    }

    out.push_str("\n== Table III: NLR of MPI-filtered traces (K=10) ==\n");
    let params = Params::new(
        FilterConfig::mpi_all(10),
        AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::NoFreq,
        },
    );
    let mut table = LoopTable::new();
    let run = analyze(
        &set,
        &params,
        &mut table,
        &PipelineOptions::default(),
        &dt_obs::NOOP,
    );
    for id in &run.ids {
        let nlr = run.nlrs.get(*id).unwrap();
        let rendered = nlr.render(&|s| difftrace::filter::symbol_name(&set.registry, s));
        let _ = writeln!(out, "T{}: {}", id.process, rendered.join(" · "));
    }
    out.push_str("\nLoop bodies:\n");
    for i in 0..table.len() {
        let id = nlr::LoopId(i as u32);
        let _ = writeln!(
            out,
            "{id} = {}",
            table.render_body(id, &|s| difftrace::filter::symbol_name(&set.registry, s))
        );
    }
    out
}

/// The analysis used by E2/E3 (MPI filter, single/noFreq attributes).
fn walkthrough_analysis() -> (dt_trace::TraceSet, difftrace::AnalysisRun) {
    let set = oddeven4();
    let params = Params::new(
        FilterConfig::mpi_all(10),
        AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::NoFreq,
        },
    );
    let mut table = LoopTable::new();
    let run = analyze(
        &set,
        &params,
        &mut table,
        &PipelineOptions::default(),
        &dt_obs::NOOP,
    );
    (set, run)
}

/// E2 — Table IV (formal context) and Figure 3 (concept lattice).
pub fn e2_context_and_lattice() -> String {
    let (_set, run) = walkthrough_analysis();
    let mut out = String::new();
    out.push_str("== Table IV: formal context ==\n");
    out.push_str(&run.context.render_table());
    out.push_str("\n== Figure 3: concept lattice (top-down) ==\n");
    out.push_str(&run.lattice.render(&run.context));
    let _ = writeln!(
        out,
        "\nconcepts: {}   top extent: {}   bottom intent: {}",
        run.lattice.concepts().len(),
        run.lattice.top().extent_len(),
        run.lattice.bottom().intent_len()
    );
    out
}

/// E3 — Figure 4: the pairwise JSM heatmap.
pub fn e3_jsm_heatmap() -> String {
    let (_set, run) = walkthrough_analysis();
    let mut out = String::new();
    out.push_str("== Figure 4: Jaccard similarity matrix ==\n");
    out.push_str(&run.jsm.render_heatmap());
    out.push('\n');
    out.push_str(&run.jsm.to_csv());
    out
}

fn oddeven_pair(fault: workloads::OddEvenFault) -> DiffRun {
    let (normal, faulty) = harness::trace_pair(|inject, reg| {
        let cfg = OddEvenConfig::paper(if inject { Some(fault) } else { None });
        run_oddeven(&cfg, reg).traces
    });
    diff_runs(
        &normal,
        &faulty,
        &Params::new(
            FilterConfig::mpi_all(10),
            AttrConfig {
                kind: AttrKind::Single,
                freq: FreqMode::Actual,
            },
        ),
    )
}

/// E4 — Figures 5 & 6: diffNLR of swapBug and dlBug (16 ranks, bug in
/// rank 5 after iteration 7).
pub fn e4_diffnlr_oddeven() -> String {
    let mut out = String::new();
    out.push_str("== Figure 5: diffNLR(5) of swapBug ==\n");
    let swap = oddeven_pair(OddEvenConfig::swap_bug());
    out.push_str(&swap.diff_nlr(TraceId::master(5)).unwrap().render());
    let _ = writeln!(
        out,
        "suspects: threads [{}]  processes {:?}  (B-score {:.3})",
        fmt_ids(&swap.suspicious_threads),
        swap.suspicious_processes,
        swap.bscore
    );
    out.push_str("\n== Figure 6: diffNLR(5) of dlBug ==\n");
    let dl = oddeven_pair(OddEvenConfig::dl_bug());
    out.push_str(&dl.diff_nlr(TraceId::master(5)).unwrap().render());
    let _ = writeln!(
        out,
        "suspects: threads [{}]  processes {:?}  (B-score {:.3})",
        fmt_ids(&dl.suspicious_threads),
        dl.suspicious_processes,
        dl.bscore
    );
    out
}

fn ilcs_pair(fault: workloads::IlcsFault) -> (dt_trace::TraceSet, dt_trace::TraceSet) {
    harness::trace_pair(|inject, reg| {
        let cfg = IlcsConfig::paper(if inject { Some(fault) } else { None });
        run_ilcs(&cfg, reg).traces
    })
}

fn fmt_ids(ids: &[TraceId]) -> String {
    ids.iter()
        .map(|t| t.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

fn report_rows(title: &str, rows: &[RankingRow]) -> String {
    format!("== {title} ==\n{}\n", render_ranking(rows))
}

/// E5 — Table VI + Figure 7a: ILCS OpenMP bug (unprotected memcpy in
/// thread 4 of process 6).
pub fn e5_ilcs_ompcrit() -> String {
    let (normal, faulty) = ilcs_pair(IlcsConfig::omp_crit_bug());
    let rows = sweep(
        &normal,
        &faulty,
        &harness::table_vi_filters(),
        &harness::all_attr_configs(),
        cluster::Method::Ward,
        &PipelineOptions::default(),
        &dt_obs::NOOP,
    );
    let mut out = report_rows("Table VI: ranking, OpenMP unprotected-memcpy bug", &rows);
    // Figure 7a: diffNLR(6.4) under the mem+ompcrit+cust filter.
    let params = Params::new(
        FilterConfig {
            keep: vec![
                KeepClass::Memory,
                KeepClass::OmpCritical,
                harness::ilcs_custom(),
            ],
            nlr_k: 10,
            ..FilterConfig::default()
        },
        AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::NoFreq,
        },
    );
    let d = diff_runs(&normal, &faulty, &params);
    out.push_str("\n== Figure 7a: diffNLR(6.4) ==\n");
    out.push_str(&d.diff_nlr(TraceId::new(6, 4)).unwrap().render());
    out
}

/// E6 — Table VII + Figure 7b: ILCS deadlock via wrong collective size
/// in process 2.
pub fn e6_ilcs_collsize() -> String {
    let (normal, faulty) = ilcs_pair(IlcsConfig::coll_size_bug());
    let rows = sweep(
        &normal,
        &faulty,
        &harness::mpi_filters(),
        &harness::all_attr_configs(),
        cluster::Method::Ward,
        &PipelineOptions::default(),
        &dt_obs::NOOP,
    );
    let mut out = report_rows(
        "Table VII: ranking, wrong collective size in process 2",
        &rows,
    );
    let params = Params::new(
        FilterConfig {
            keep: vec![KeepClass::MpiAll, harness::ilcs_custom()],
            nlr_k: 10,
            ..FilterConfig::default()
        },
        AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::Actual,
        },
    );
    let d = diff_runs(&normal, &faulty, &params);
    out.push_str("\n== Figure 7b: diffNLR(4.0) — picked arbitrarily, as in the paper ==\n");
    out.push_str(&d.diff_nlr(TraceId::master(4)).unwrap().render());
    out
}

/// E7 — Table VIII + Figure 7c: wrong collective operation (MAX for
/// MIN) in process 0.
pub fn e7_ilcs_wrongop() -> String {
    let (normal, faulty) = ilcs_pair(IlcsConfig::wrong_op_bug());
    let mut filters = harness::mpi_filters();
    // The paper's table also sweeps plt+cust (user-code) filters.
    for drop_returns in [true, false] {
        filters.push(FilterConfig {
            drop_returns,
            drop_plt: true,
            keep: vec![harness::ilcs_custom(), KeepClass::Memory],
            nlr_k: 10,
        });
    }
    let rows = sweep(
        &normal,
        &faulty,
        &filters,
        &harness::all_attr_configs(),
        cluster::Method::Ward,
        &PipelineOptions::default(),
        &dt_obs::NOOP,
    );
    let mut out = report_rows(
        "Table VIII: ranking, wrong collective operation in process 0",
        &rows,
    );
    // Figure 7c: diffNLR of the top suspicious master trace under an
    // MPI filter — the buggy run executes more champion rounds, i.e.
    // more MPI_Bcast calls.
    let params = Params::new(
        FilterConfig {
            keep: vec![KeepClass::MpiAll, harness::ilcs_custom()],
            nlr_k: 10,
            ..FilterConfig::default()
        },
        AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::Actual,
        },
    );
    let d = diff_runs(&normal, &faulty, &params);
    let pick = d
        .suspicious_threads
        .iter()
        .find(|t| t.thread == 0)
        .copied()
        .unwrap_or(TraceId::master(5));
    let _ = writeln!(out, "\n== Figure 7c: diffNLR({pick}) ==");
    out.push_str(&d.diff_nlr(pick).unwrap().render());
    out
}

/// E8 — §V LULESH trace statistics: distinct functions, compressed
/// size, call counts, NLR reduction factors at K=10 and K=50.
pub fn e8_lulesh_stats() -> String {
    let set = run_lulesh(
        &LuleshConfig::paper_scale(),
        Arc::new(FunctionRegistry::new()),
    )
    .traces;
    let stats = TraceSetStats::measure(&set);
    let mut out = String::new();
    out.push_str("== §V LULESH trace statistics (paper: ≈410 distinct fns, ≈421k calls/process, <2.8 KB/thread compressed, NLR ×1.92 @K10 / ×16.74 @K50) ==\n");
    let _ = writeln!(
        out,
        "distinct functions / process (avg): {:.0}",
        stats.avg_distinct_per_process()
    );
    let _ = writeln!(
        out,
        "function calls / process (avg):     {:.0}",
        stats.avg_calls_per_process()
    );
    let _ = writeln!(
        out,
        "compressed trace / thread (avg):    {:.1} KB",
        stats.avg_compressed_bytes_per_thread() / 1024.0
    );
    let _ = writeln!(
        out,
        "overall compression ratio:          {:.0}×",
        stats.overall_ratio()
    );

    // NLR reduction on returns-kept traces, K = 10 vs K = 50. The
    // master traces carry the long EOS loops whose 12-symbol bodies
    // only fold at K = 50 — the K-dependence the paper reports.
    for k in [10usize, 50] {
        let filter = FilterConfig {
            drop_returns: false,
            ..FilterConfig::everything(k)
        };
        let filtered = filter.apply(&set);
        let mut table = LoopTable::new();
        let nlrs = difftrace::NlrSet::build(&filtered, k, &mut table);
        let masters: Vec<f64> = nlrs
            .ids()
            .iter()
            .filter(|id| id.thread == 0)
            .map(|id| nlrs.get(*id).unwrap().reduction_factor())
            .collect();
        let master_mean = masters.iter().sum::<f64>() / masters.len().max(1) as f64;
        let max_depth = nlrs
            .ids()
            .iter()
            .map(|id| nlrs.get(*id).unwrap().max_depth(&table))
            .max()
            .unwrap_or(0);
        let _ = writeln!(
            out,
            "NLR sequence reduction @K={k}:        ×{:.2} (all threads)   ×{:.2} (master traces)   max nest depth {}",
            nlrs.mean_reduction_factor(),
            master_mean,
            max_depth
        );
    }
    out
}

/// E9 — Table IX: LULESH ranking for the rank-2 skip fault.
pub fn e9_lulesh_ranking() -> String {
    let (normal, faulty) = harness::trace_pair(|inject, reg| {
        let cfg = LuleshConfig::paper(if inject {
            Some(LuleshConfig::skip_bug())
        } else {
            None
        });
        run_lulesh(&cfg, reg).traces
    });
    let attrs = [
        AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::NoFreq,
        },
        AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::Actual,
        },
        AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::Log10,
        },
        AttrConfig {
            kind: AttrKind::Double,
            freq: FreqMode::NoFreq,
        },
    ];
    let rows = sweep(
        &normal,
        &faulty,
        &harness::lulesh_filters(),
        &attrs,
        cluster::Method::Ward,
        &PipelineOptions::default(),
        &dt_obs::NOOP,
    );
    let mut out = report_rows(
        "Table IX: LULESH ranking (rank 2 skips LagrangeLeapFrog)",
        &rows,
    );
    // The paper notes the diffNLRs clearly show where each process
    // stopped; show rank 1 (a neighbour stuck in the halo exchange).
    let d = diff_runs(
        &normal,
        &faulty,
        &Params::new(FilterConfig::mpi_all(10), attrs[1]),
    );
    out.push_str("\n== diffNLR(1.0): neighbour of the faulty rank ==\n");
    out.push_str(&d.diff_nlr(TraceId::master(1)).unwrap().render());
    out
}

/// E10 — the paper's §VII-3 future-work extension: systematic bug
/// injection + bug classification from lattice/loop features.
///
/// Builds a labelled corpus by injecting every fault family at several
/// sites across all three workloads, extracts the "elevated features"
/// from each normal/faulty diff, and reports leave-one-out accuracy of
/// a nearest-centroid classifier.
pub fn e10_bug_classification() -> String {
    use difftrace::{extract_features, leave_one_out, Sample};
    use workloads::{IlcsFault, LuleshFault, OddEvenFault};

    let params = Params::new(
        FilterConfig::everything(10),
        AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::Actual,
        },
    );

    let mut samples: Vec<Sample> = Vec::new();
    let mut push = |label: &str, normal: dt_trace::TraceSet, faulty: dt_trace::TraceSet| {
        let d = diff_runs(&normal, &faulty, &params);
        samples.push(Sample {
            label: label.to_string(),
            features: extract_features(&d),
        });
    };

    // hang: real deadlocks from three different mechanisms/sites.
    for (rank, after_iter) in [(5, 7), (3, 5), (9, 3)] {
        let (n, f) = harness::trace_pair(|inject, reg| {
            let fault = inject.then_some(OddEvenFault::DlBug { rank, after_iter });
            run_oddeven(&OddEvenConfig::paper(fault), reg).traces
        });
        push("hang", n, f);
    }
    {
        let (n, f) = harness::trace_pair(|inject, reg| {
            let fault = inject.then_some(IlcsFault::CollSizeBug { process: 2 });
            run_ilcs(&IlcsConfig::paper(fault), reg).traces
        });
        push("hang", n, f);
    }
    {
        let (n, f) = harness::trace_pair(|inject, reg| {
            let fault = inject.then_some(LuleshFault::SkipLagrangeLeapFrog { rank: 2 });
            run_lulesh(&LuleshConfig::paper(fault), reg).traces
        });
        push("hang", n, f);
    }

    // reorder: swapped Send/Recv at several sites (terminates).
    for (rank, after_iter) in [(5, 7), (3, 5), (9, 3), (11, 9)] {
        let (n, f) = harness::trace_pair(|inject, reg| {
            let fault = inject.then_some(OddEvenFault::SwapBug { rank, after_iter });
            run_oddeven(&OddEvenConfig::paper(fault), reg).traces
        });
        push("reorder", n, f);
    }

    // missing-sync: omitted critical sections at several threads.
    for (process, thread) in [(6, 4), (3, 2), (1, 1)] {
        let (n, f) = harness::trace_pair(|inject, reg| {
            let fault = inject.then_some(IlcsFault::OmpCritBug { process, thread });
            run_ilcs(&IlcsConfig::paper(fault), reg).traces
        });
        push("missing-sync", n, f);
    }

    // semantic-drift: wrong reduction op over several instances.
    for cities in [20usize, 24, 28] {
        let (n, f) = harness::trace_pair(|inject, reg| {
            let mut cfg = IlcsConfig::paper(inject.then_some(IlcsFault::WrongOpBug { process: 0 }));
            cfg.cities = cities;
            run_ilcs(&cfg, reg).traces
        });
        push("semantic-drift", n, f);
    }

    let (correct, total, predictions) = leave_one_out(&samples);
    let mut out = String::new();
    out.push_str("== E10: systematic bug injection + classification (§VII-3) ==\n");
    let _ = writeln!(
        out,
        "{} labelled injections, 4 classes; leave-one-out nearest-centroid accuracy: {}/{} ({:.0}%)",
        total,
        correct,
        total,
        100.0 * correct as f64 / total as f64
    );
    out.push_str("\nlabel           -> predicted\n");
    for (truth, pred) in &predictions {
        let mark = if truth == pred { "✓" } else { "✗" };
        let _ = writeln!(out, "{truth:<15} -> {pred:<15} {mark}");
    }
    out.push_str("\nper-class feature centroids (raw):\n");
    let mut by_label: std::collections::BTreeMap<&str, Vec<&Sample>> = Default::default();
    for s in &samples {
        by_label.entry(&s.label).or_default().push(s);
    }
    for (label, group) in by_label {
        let mut mean = [0.0f64; difftrace::classify::NUM_FEATURES];
        for s in &group {
            for (m, v) in mean.iter_mut().zip(&s.features.0) {
                *m += v / group.len() as f64;
            }
        }
        let _ = writeln!(out, "{label}:");
        for (name, v) in difftrace::classify::FEATURE_NAMES.iter().zip(mean) {
            let _ = writeln!(out, "    {name:<22} {v:.4}");
        }
    }
    out
}

/// E11 — attribute-granularity ablation, including the caller/callee
/// extension (`ctxt.*`): does each attribute kind still pin the ILCS
/// OpenMP bug to trace 6.4 when returns are kept (so nesting is
/// recoverable)?
pub fn e11_attribute_ablation() -> String {
    let (normal, faulty) = ilcs_pair(IlcsConfig::omp_crit_bug());
    let filter = FilterConfig {
        drop_returns: false, // ctxt needs returns for nesting
        drop_plt: true,
        keep: vec![
            KeepClass::Memory,
            KeepClass::OmpCritical,
            harness::ilcs_custom(),
        ],
        nlr_k: 10,
    };
    let rows = sweep(
        &normal,
        &faulty,
        &[filter],
        &AttrConfig::EXTENDED,
        cluster::Method::Ward,
        &PipelineOptions::default(),
        &dt_obs::NOOP,
    );
    let mut out = report_rows(
        "E11: attribute ablation (Table V + caller/callee) on the ILCS OpenMP bug",
        &rows,
    );
    let hits = rows
        .iter()
        .filter(|r| r.top_threads.first() == Some(&TraceId::new(6, 4)))
        .count();
    let _ = writeln!(
        out,
        "{hits}/{} attribute configurations put the planted bug site (6.4) first",
        rows.len()
    );
    out
}

/// Run every experiment, concatenating the reports.
pub fn run_all() -> String {
    let mut out = String::new();
    for (name, f) in experiments_list() {
        let _ = writeln!(out, "\n######## {name} ########\n");
        out.push_str(&f());
    }
    out
}

/// An experiment id paired with its report generator.
pub type Experiment = (&'static str, fn() -> String);

/// `(id, function)` pairs for dispatch.
pub fn experiments_list() -> Vec<Experiment> {
    vec![
        ("e1", e1_traces_and_nlr as fn() -> String),
        ("e2", e2_context_and_lattice),
        ("e3", e3_jsm_heatmap),
        ("e4", e4_diffnlr_oddeven),
        ("e5", e5_ilcs_ompcrit),
        ("e6", e6_ilcs_collsize),
        ("e7", e7_ilcs_wrongop),
        ("e8", e8_lulesh_stats),
        ("e9", e9_lulesh_ranking),
        ("e10", e10_bug_classification),
        ("e11", e11_attribute_ablation),
    ]
}
