//! Hunting the ILCS OpenMP bug (§IV-B): an unprotected champion update
//! in worker thread 4 of process 6. Sweeps the filter/attribute grid
//! like the paper's Table VI and prints the ranking table plus the
//! Figure 7a diffNLR.
//!
//! ```text
//! cargo run --release --example ilcs_bug_hunt
//! ```

use difftrace::{
    diff_runs, render_ranking, sweep, AttrConfig, AttrKind, FilterConfig, FreqMode, KeepClass,
    Params, PipelineOptions,
};
use dt_trace::{FunctionRegistry, TraceId};
use std::sync::Arc;
use workloads::{run_ilcs, IlcsConfig};

fn main() {
    let registry = Arc::new(FunctionRegistry::new());
    let normal = run_ilcs(&IlcsConfig::paper(None), registry.clone()).traces;
    let faulty = run_ilcs(
        &IlcsConfig::paper(Some(IlcsConfig::omp_crit_bug())),
        registry,
    )
    .traces;

    // Filter grid: memory / OpenMP-critical / user-code classes.
    let cust = KeepClass::Custom("^CPU_".to_string());
    let mut filters = Vec::new();
    for drop_returns in [true, false] {
        filters.push(FilterConfig {
            drop_returns,
            drop_plt: true,
            keep: vec![KeepClass::Memory, KeepClass::OmpCritical, cust.clone()],
            nlr_k: 10,
        });
    }
    let rows = sweep(
        &normal,
        &faulty,
        &filters,
        &AttrConfig::ALL,
        cluster::Method::Ward,
        &PipelineOptions::default(),
        &dt_obs::NOOP,
    );
    println!("{}", render_ranking(&rows));
    println!("every informative row flags trace 6.4 — the planted bug site\n");

    let params = Params::new(
        filters[0].clone(),
        AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::NoFreq,
        },
    );
    let d = diff_runs(&normal, &faulty, &params);
    println!("{}", d.diff_nlr(TraceId::new(6, 4)).unwrap());
    println!(
        "the normal run brackets its memcpy with GOMP_critical_start/end;\n\
         the buggy run does not — exactly the paper's Figure 7a."
    );
}
