//! Integration: the full DiffTrace pipeline on the stencil workload's
//! fault spectrum — from loud (deadlock) to silent-but-visible
//! (convergence change) to the documented blind spot.

use difftrace::{diff_runs, AttrConfig, AttrKind, FilterConfig, FreqMode, Params};
use dt_trace::{FunctionRegistry, TraceId};
use std::sync::Arc;
use workloads::{run_stencil, StencilConfig, StencilFault};

fn pair(fault: StencilFault) -> (dt_trace::TraceSet, dt_trace::TraceSet, bool) {
    let reg = Arc::new(FunctionRegistry::new());
    let mut cfg = StencilConfig::default_8();
    let (normal, _) = run_stencil(&cfg, reg.clone());
    cfg.fault = Some(fault);
    let (faulty, _) = run_stencil(&cfg, reg);
    let dl = faulty.deadlocked;
    (normal.traces, faulty.traces, dl)
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

#[test]
fn wrong_neighbor_truncates_and_is_flagged() {
    let (normal, faulty, deadlocked) = pair(StencilFault::WrongNeighbor {
        rank: 3,
        wrong_peer: 6,
    });
    assert!(deadlocked);
    let d = diff_runs(&normal, &faulty, &params());
    assert!(d.bscore > 0.1);
    // Every surviving trace shows the truncation signature in diffNLR.
    let dn = d.diff_nlr(TraceId::master(3)).unwrap();
    assert!(dn.faulty_truncated);
    assert!(dn.normal_only().iter().any(|s| s.contains("MPI_Finalize")));
}

#[test]
fn stale_halo_shows_as_loop_count_change() {
    let (normal, faulty, deadlocked) = pair(StencilFault::StaleHalo {
        rank: 1,
        after_iter: 2,
    });
    assert!(!deadlocked);
    let d = diff_runs(&normal, &faulty, &params());
    // Convergence length changed: the iteration loop's trip count
    // moved in every rank's diffNLR (uniform effect, like the paper's
    // wrong-op bug).
    let dn = d.diff_nlr(TraceId::master(0)).unwrap();
    assert!(!dn.is_identical(), "loop counts must differ");
    assert!(!dn.faulty_truncated);
    // Both runs reach MPI_Finalize (it stays in the common stem).
    assert!(!dn.normal_only().iter().any(|s| s.contains("MPI_Finalize")));
}

#[test]
fn flipped_sign_only_moves_trip_counts() {
    let (normal, faulty, deadlocked) = pair(StencilFault::FlippedSign { rank: 1 });
    assert!(!deadlocked);
    let d = diff_runs(&normal, &faulty, &params());
    let dn = d.diff_nlr(TraceId::master(0)).unwrap();
    // The change is exactly one loop element swapped for another with
    // a different trip count — nothing else.
    assert_eq!(dn.normal_only().len(), 1, "{:?}", dn.normal_only());
    assert_eq!(dn.faulty_only().len(), 1, "{:?}", dn.faulty_only());
    assert!(dn.normal_only()[0].contains('^'));
    assert!(dn.faulty_only()[0].contains('^'));
    // Under noFreq attributes the fault is fully invisible — the
    // documented boundary of call-trace diffing.
    let d2 = diff_runs(
        &normal,
        &faulty,
        &Params::new(
            FilterConfig::mpi_all(10),
            AttrConfig {
                kind: AttrKind::Single,
                freq: FreqMode::NoFreq,
            },
        ),
    );
    assert!(d2.suspicious_threads.is_empty());
    assert_eq!(d2.bscore, 0.0);
}

#[test]
fn single_run_mode_isolates_the_faulty_lulesh_rank() {
    use difftrace::{analyze_single_opts_rec, PipelineOptions};
    use workloads::{run_lulesh, LuleshConfig};
    let out = run_lulesh(
        &LuleshConfig::paper(Some(LuleshConfig::skip_bug())),
        Arc::new(FunctionRegistry::new()),
    );
    // The fault prevents rank 2 from opening its parallel region:
    // a single trace where every healthy rank has four.
    assert_eq!(out.traces.process_traces(2).len(), 1);
    assert_eq!(out.traces.process_traces(1).len(), 4);
    // And JSM_faulty-only clustering pins 2.0 as a singleton outlier.
    let p = Params::new(
        FilterConfig::everything(10),
        AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::Actual,
        },
    );
    let opts = PipelineOptions::default();
    let report = analyze_single_opts_rec(&out.traces, &p, 4, &opts, &dt_obs::NOOP);
    assert_eq!(report.outliers, vec![TraceId::master(2)]);
}
