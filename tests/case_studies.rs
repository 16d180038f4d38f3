//! Integration: the §IV ILCS case study and the §V LULESH example,
//! asserting the result *shapes* of Tables VI–IX and Figure 7.

use difftrace::{
    diff_runs, sweep, AttrConfig, AttrKind, FilterConfig, FreqMode, KeepClass, Params,
    PipelineOptions,
};
use dt_trace::{FunctionRegistry, TraceId};
use std::sync::Arc;
use workloads::{run_ilcs, run_lulesh, IlcsConfig, LuleshConfig};

fn ilcs_pair(fault: workloads::IlcsFault) -> (dt_trace::TraceSet, dt_trace::TraceSet) {
    let reg = Arc::new(FunctionRegistry::new());
    let normal = run_ilcs(&IlcsConfig::paper(None), reg.clone()).traces;
    let faulty = run_ilcs(&IlcsConfig::paper(Some(fault)), reg).traces;
    (normal, faulty)
}

fn cust() -> KeepClass {
    KeepClass::Custom("^CPU_".to_string())
}

#[test]
fn table_vi_flags_thread_6_4() {
    let (normal, faulty) = ilcs_pair(IlcsConfig::omp_crit_bug());
    let filters = vec![FilterConfig {
        keep: vec![KeepClass::Memory, KeepClass::OmpCritical, cust()],
        nlr_k: 10,
        ..FilterConfig::default()
    }];
    let rows = sweep(
        &normal,
        &faulty,
        &filters,
        &AttrConfig::ALL,
        cluster::Method::Ward,
        &PipelineOptions::default(),
        &dt_obs::NOOP,
    );
    assert_eq!(rows.len(), 6);
    for r in &rows {
        assert_eq!(
            r.top_threads.first(),
            Some(&TraceId::new(6, 4)),
            "row {r} must put the planted bug site first"
        );
        assert_eq!(r.top_processes.first(), Some(&6));
        assert!(r.bscore >= 0.0);
    }
}

#[test]
fn figure_7a_critical_section_disappears() {
    let (normal, faulty) = ilcs_pair(IlcsConfig::omp_crit_bug());
    let params = Params::new(
        FilterConfig {
            keep: vec![KeepClass::Memory, KeepClass::OmpCritical, cust()],
            nlr_k: 10,
            ..FilterConfig::default()
        },
        AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::NoFreq,
        },
    );
    let d = diff_runs(&normal, &faulty, &params);
    let dn = d.diff_nlr(TraceId::new(6, 4)).unwrap();
    let gone = dn.normal_only().join(" ");
    assert!(gone.contains("GOMP_critical_start"), "{gone}");
    assert!(gone.contains("GOMP_critical_end"), "{gone}");
    // A healthy sibling thread shows no such difference.
    let sibling = d.diff_nlr(TraceId::new(5, 4)).unwrap();
    assert!(
        !sibling.normal_only().join(" ").contains("GOMP_critical"),
        "unaffected threads keep their critical sections"
    );
}

#[test]
fn table_vii_collective_deadlock_truncates_all_masters() {
    let (normal, faulty) = ilcs_pair(IlcsConfig::coll_size_bug());
    // Every master dies inside MPI_Allreduce.
    for p in 0..8u32 {
        let t = faulty.get(TraceId::master(p)).unwrap();
        assert!(t.truncated, "master {p}");
        let last = t.iter().next_back().unwrap();
        assert!(last.is_call());
        assert_eq!(faulty.registry.name(last.fn_id()), "MPI_Allreduce");
    }
    let params = Params::new(
        FilterConfig {
            keep: vec![KeepClass::MpiAll, cust()],
            nlr_k: 10,
            ..FilterConfig::default()
        },
        AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::Actual,
        },
    );
    let d = diff_runs(&normal, &faulty, &params);
    assert!(d.bscore > 0.05, "an early deadlock reshapes the clustering");
    // Figure 7b: any master's diffNLR shows the common prefix up to the
    // first Allreduce and the missing MPI_Finalize.
    let dn = d.diff_nlr(TraceId::master(4)).unwrap();
    assert!(dn.faulty_truncated);
    assert!(dn.normal_only().iter().any(|s| s.contains("MPI_Finalize")));
}

#[test]
fn table_viii_wrong_op_runs_longer_not_deadlocked() {
    let reg = Arc::new(FunctionRegistry::new());
    let normal = run_ilcs(&IlcsConfig::paper(None), reg.clone());
    let faulty = run_ilcs(&IlcsConfig::paper(Some(IlcsConfig::wrong_op_bug())), reg);
    assert!(!normal.deadlocked && !faulty.deadlocked);
    let bcasts = |set: &dt_trace::TraceSet, p: u32| {
        set.get(TraceId::master(p))
            .unwrap()
            .calls()
            .filter(|e| set.registry.name(e.fn_id()) == "MPI_Bcast")
            .count()
    };
    // Figure 7c: the buggy run executes more MPI_Bcast calls (more
    // champion rounds) — in every master.
    for p in 0..8u32 {
        assert!(
            bcasts(&faulty.traces, p) > bcasts(&normal.traces, p),
            "rank {p}: faulty {} vs normal {}",
            bcasts(&faulty.traces, p),
            bcasts(&normal.traces, p)
        );
    }
    // The round loop's trip count is what diffNLR exposes.
    let params = Params::new(
        FilterConfig {
            keep: vec![KeepClass::MpiAll, cust()],
            nlr_k: 10,
            ..FilterConfig::default()
        },
        AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::Actual,
        },
    );
    let d = diff_runs(&normal.traces, &faulty.traces, &params);
    let dn = d.diff_nlr(TraceId::master(3)).unwrap();
    assert!(!dn.is_identical(), "loop counts changed");
    assert!(!dn.faulty_truncated, "silent bug: no truncation");
}

#[test]
fn table_ix_lulesh_flags_rank_2() {
    let reg = Arc::new(FunctionRegistry::new());
    let normal = run_lulesh(&LuleshConfig::paper(None), reg.clone()).traces;
    let faulty_run = run_lulesh(&LuleshConfig::paper(Some(LuleshConfig::skip_bug())), reg);
    assert!(faulty_run.deadlocked, "the skip fault stalls the job");
    let faulty = faulty_run.traces;
    let rows = sweep(
        &normal,
        &faulty,
        &[FilterConfig::everything(10)],
        &[
            AttrConfig {
                kind: AttrKind::Single,
                freq: FreqMode::NoFreq,
            },
            AttrConfig {
                kind: AttrKind::Double,
                freq: FreqMode::NoFreq,
            },
        ],
        cluster::Method::Ward,
        &PipelineOptions::default(),
        &dt_obs::NOOP,
    );
    for r in &rows {
        assert_eq!(r.top_processes.first(), Some(&2), "{r}");
        assert!(r.top_threads.iter().any(|t| t.process == 2));
    }
}

#[test]
fn lulesh_diffnlr_shows_where_progress_stopped() {
    let reg = Arc::new(FunctionRegistry::new());
    let normal = run_lulesh(&LuleshConfig::paper(None), reg.clone()).traces;
    let faulty = run_lulesh(&LuleshConfig::paper(Some(LuleshConfig::skip_bug())), reg).traces;
    let d = diff_runs(
        &normal,
        &faulty,
        &Params::new(
            FilterConfig::mpi_all(10),
            AttrConfig {
                kind: AttrKind::Single,
                freq: FreqMode::Actual,
            },
        ),
    );
    // Rank 2 lost its whole communication phase.
    let dn2 = d.diff_nlr(TraceId::master(2)).unwrap();
    assert!(dn2
        .normal_only()
        .iter()
        .any(|s| s.contains("MPI_Send") || s.contains('L')));
    // A neighbour died waiting: truncated, missing finalize.
    let dn1 = d.diff_nlr(TraceId::master(1)).unwrap();
    assert!(dn1.faulty_truncated);
    assert!(dn1.normal_only().iter().any(|s| s.contains("MPI_Finalize")));
}
