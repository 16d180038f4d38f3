//! End-to-end determinism: the experiment harness must produce
//! identical artifacts on repeated runs — the property that makes the
//! normal/faulty diffing sound (any difference comes from the fault,
//! not the harness).

use difftrace::{render_ranking, sweep, AttrConfig, FilterConfig, PipelineOptions};
use dt_trace::FunctionRegistry;
use std::sync::Arc;
use workloads::{run_ilcs, run_lulesh, IlcsConfig, LuleshConfig};

#[test]
fn ilcs_ranking_tables_are_identical_across_harness_runs() {
    let table = || {
        let reg = Arc::new(FunctionRegistry::new());
        let normal = run_ilcs(&IlcsConfig::paper(None), reg.clone()).traces;
        let faulty = run_ilcs(&IlcsConfig::paper(Some(IlcsConfig::omp_crit_bug())), reg).traces;
        let rows = sweep(
            &normal,
            &faulty,
            &[FilterConfig::mpi_all(10), FilterConfig::everything(10)],
            &AttrConfig::ALL,
            cluster::Method::Ward,
            &PipelineOptions::default(),
            &dt_obs::NOOP,
        );
        render_ranking(&rows)
    };
    assert_eq!(table(), table());
}

#[test]
fn lulesh_master_traces_are_bit_identical_across_runs() {
    let shape = || {
        let out = run_lulesh(
            &LuleshConfig::paper(None),
            Arc::new(FunctionRegistry::new()),
        );
        let mut v = Vec::new();
        for p in 0..8u32 {
            let t = out.traces.get(dt_trace::TraceId::master(p)).unwrap();
            let names: Vec<String> = t
                .iter()
                .map(|e| out.traces.registry.name(e.fn_id()))
                .collect();
            v.push(names);
        }
        v
    };
    assert_eq!(shape(), shape());
}

#[test]
fn hb_master_event_sequences_are_deterministic() {
    // The *per-rank* stamped event sequence is deterministic even
    // though the global interleaving may vary.
    let per_rank = || {
        let out = run_ilcs(&IlcsConfig::paper(None), Arc::new(FunctionRegistry::new()));
        let mut v: Vec<Vec<(String, u64)>> = vec![Vec::new(); 8];
        for e in out.hb.events() {
            v[e.trace.process as usize].push((e.name.clone(), e.vc.lamport()));
        }
        v
    };
    assert_eq!(per_rank(), per_rank());
}
