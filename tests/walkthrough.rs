//! Integration: the §II odd/even walk-through end-to-end — Tables
//! II/III/IV, Figures 3/4/5/6 — asserting the *exact* shapes the paper
//! prints (these small experiments are deterministic).

use difftrace::{
    analyze, diff_runs, AttrConfig, AttrKind, FilterConfig, FreqMode, Params, PipelineOptions,
};
use dt_trace::{FunctionRegistry, TraceId};
use nlr::LoopTable;
use std::sync::Arc;
use workloads::{run_oddeven, OddEvenConfig};

fn oddeven(
    ranks: u32,
    fault: Option<workloads::OddEvenFault>,
    reg: Arc<FunctionRegistry>,
) -> dt_trace::TraceSet {
    let cfg = OddEvenConfig {
        ranks,
        values_per_rank: 4,
        seed: 7,
        fault,
    };
    run_oddeven(&cfg, reg).traces
}

fn params(freq: FreqMode) -> Params {
    Params::new(
        FilterConfig::mpi_all(10),
        AttrConfig {
            kind: AttrKind::Single,
            freq,
        },
    )
}

#[test]
fn table_iii_nlr_shapes() {
    let set = oddeven(4, None, Arc::new(FunctionRegistry::new()));
    let mut table = LoopTable::new();
    let run = analyze(
        &set,
        &params(FreqMode::NoFreq),
        &mut table,
        &PipelineOptions::default(),
        &dt_obs::NOOP,
    );
    let render = |p: u32| {
        run.nlrs
            .get(TraceId::master(p))
            .unwrap()
            .render(&|s| difftrace::filter::symbol_name(&set.registry, s))
            .join(" ")
    };
    // Table III: T0 = L0^2, T1 = L1^4, T2 = L0^4, T3 = L1^2.
    assert!(render(0).contains("L0 ^ 2"), "{}", render(0));
    assert!(render(1).contains("L1 ^ 4"), "{}", render(1));
    assert!(render(2).contains("L0 ^ 4"), "{}", render(2));
    assert!(render(3).contains("L1 ^ 2"), "{}", render(3));
    // Shared loop table: exactly the two bodies of the paper.
    assert_eq!(table.len(), 2);
}

#[test]
fn figure_3_lattice_and_figure_4_jsm() {
    let set = oddeven(4, None, Arc::new(FunctionRegistry::new()));
    let mut table = LoopTable::new();
    let run = analyze(
        &set,
        &params(FreqMode::NoFreq),
        &mut table,
        &PipelineOptions::default(),
        &dt_obs::NOOP,
    );
    // Figure 3: 4-concept diamond.
    assert_eq!(run.lattice.concepts().len(), 4);
    assert_eq!(run.lattice.top().extent_len(), 4);
    assert_eq!(run.lattice.top().intent_len(), 4); // the 4 shared MPI calls
    assert_eq!(run.lattice.bottom().extent_len(), 0);
    // Figure 4: even/even and odd/odd pairs at 1.0, cross pairs at 2/3.
    assert!((run.jsm.m[0][2] - 1.0).abs() < 1e-12);
    assert!((run.jsm.m[1][3] - 1.0).abs() < 1e-12);
    assert!((run.jsm.m[0][1] - 2.0 / 3.0).abs() < 1e-12);
}

#[test]
fn figure_5_swap_bug_diffnlr() {
    let reg = Arc::new(FunctionRegistry::new());
    let normal = oddeven(16, None, reg.clone());
    let faulty = oddeven(16, Some(OddEvenConfig::swap_bug()), reg);
    let d = diff_runs(&normal, &faulty, &params(FreqMode::Actual));
    assert_eq!(d.suspicious_processes, vec![5], "rank 5 is the culprit");
    let dn = d.diff_nlr(TraceId::master(5)).unwrap();
    assert!(!dn.faulty_truncated);
    // Normal: one 16-iteration loop; faulty: 7 + 9 split.
    let normal_only = dn.normal_only().join(" ");
    let faulty_only = dn.faulty_only().join(" ");
    assert!(normal_only.contains("^ 16"), "{normal_only}");
    assert!(faulty_only.contains("^ 7"), "{faulty_only}");
    assert!(faulty_only.contains("^ 9"), "{faulty_only}");
    // Both versions reach MPI_Finalize (it stays in the common stem).
    assert!(!normal_only.contains("MPI_Finalize"));
    assert!(!faulty_only.contains("MPI_Finalize"));
}

#[test]
fn figure_6_dl_bug_truncation() {
    let reg = Arc::new(FunctionRegistry::new());
    let normal = oddeven(16, None, reg.clone());
    let faulty = oddeven(16, Some(OddEvenConfig::dl_bug()), reg);
    let d = diff_runs(&normal, &faulty, &params(FreqMode::Actual));
    let dn = d.diff_nlr(TraceId::master(5)).unwrap();
    assert!(dn.faulty_truncated);
    // The faulty run never reaches MPI_Finalize; the dangling MPI_Recv
    // call is faulty-only.
    assert!(dn.normal_only().iter().any(|s| s.contains("MPI_Finalize")));
    assert!(dn.faulty_only().iter().any(|s| s.contains("MPI_Recv")));
    // Rank 5 is among the suspects even though the stall is global.
    assert!(d.suspicious_processes.contains(&5));
    assert!(d.bscore > 0.1, "a deadlock changes the clustering a lot");
}

#[test]
fn relative_debugging_on_jsm_faulty_alone() {
    // §II-A: "processes whose execution got truncated will look highly
    // dissimilar to those that terminated normally" — check the faulty
    // JSM separates dead from finished ranks without the diff.
    let reg = Arc::new(FunctionRegistry::new());
    let normal = oddeven(16, None, reg.clone());
    let faulty = oddeven(16, Some(OddEvenConfig::dl_bug()), reg);
    let d = diff_runs(&normal, &faulty, &params(FreqMode::Actual));
    let jsm_f = &d.faulty.jsm;
    // Every trace is truncated in a global deadlock, but at different
    // points: similarity to rank 5 is lower than the self-similarity.
    let idx5 = jsm_f.ids.iter().position(|t| t.process == 5).unwrap();
    let other = jsm_f.ids.iter().position(|t| t.process == 8).unwrap();
    assert!(jsm_f.m[idx5][other] < 1.0);
}
