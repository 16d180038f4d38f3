//! Triage on the LULESH proxy (§V): rank 2 never calls
//! `LagrangeLeapFrog`, so its neighbours starve in the halo exchange
//! and the whole job stalls. DiffTrace's ranking pins rank 2; diffNLR
//! shows where each process stopped making progress.
//!
//! ```text
//! cargo run --release --example lulesh_triage
//! ```

use difftrace::{
    diff_runs, render_ranking, sweep, AttrConfig, AttrKind, FilterConfig, FreqMode, Params,
    PipelineOptions,
};
use dt_trace::{FunctionRegistry, TraceId};
use std::sync::Arc;
use workloads::{run_lulesh, LuleshConfig};

fn main() {
    let registry = Arc::new(FunctionRegistry::new());
    let normal = run_lulesh(&LuleshConfig::paper(None), registry.clone()).traces;
    let faulty_run = run_lulesh(
        &LuleshConfig::paper(Some(LuleshConfig::skip_bug())),
        registry,
    );
    println!(
        "faulty run: deadlocked={} abort={:?}",
        faulty_run.deadlocked, faulty_run.abort_reason
    );
    let faulty = faulty_run.traces;

    let filters = vec![
        FilterConfig::everything(10),
        FilterConfig {
            drop_returns: false,
            ..FilterConfig::everything(10)
        },
    ];
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

    let params = Params::new(
        FilterConfig::mpi_all(10),
        AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::Actual,
        },
    );
    let d = diff_runs(&normal, &faulty, &params);
    for p in [2u32, 1] {
        println!("{}", d.diff_nlr(TraceId::master(p)).unwrap());
    }
    println!(
        "rank 2's trace is missing the whole Lagrange phase; rank 1's\n\
         trace is truncated inside the halo exchange it was waiting on."
    );
}
