//! No-reference triage (§II-A of the paper): when there is no "last
//! known good" execution, cluster the traces of the faulty run alone —
//! truncated processes look highly dissimilar from those that
//! terminated normally.
//!
//! ```text
//! cargo run --release --example single_run_triage
//! ```

use difftrace::{
    analyze_single_opts_rec, AttrConfig, AttrKind, FilterConfig, FreqMode, Params, PipelineOptions,
};
use dt_trace::FunctionRegistry;
use std::sync::Arc;
use workloads::{run_lulesh, LuleshConfig};

fn main() {
    // Only the faulty run exists: rank 2 skipped LagrangeLeapFrog and
    // the job stalled.
    let out = run_lulesh(
        &LuleshConfig::paper(Some(LuleshConfig::skip_bug())),
        Arc::new(FunctionRegistry::new()),
    );
    println!(
        "single faulty execution: {} traces, deadlocked={}",
        out.traces.len(),
        out.deadlocked
    );

    // The missing-thread signal alone is damning: rank 2 never opened
    // its parallel region, so it produced a single trace.
    for p in out.traces.processes() {
        let n = out.traces.process_traces(p).len();
        let marker = if n == 1 {
            "   <- spawned no workers!"
        } else {
            ""
        };
        println!("rank {p}: {n} traces{marker}");
    }

    let params = Params::new(
        FilterConfig::everything(10),
        AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::Actual,
        },
    );
    let opts = PipelineOptions::default();
    let report = analyze_single_opts_rec(&out.traces, &params, 4, &opts, &dt_obs::NOOP);
    println!("\nclusters (largest first):");
    for (i, c) in report.clusters.iter().enumerate() {
        println!(
            "  {i}: {}",
            c.iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    println!(
        "\noutliers: {:?}",
        report
            .outliers
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
    );
    println!(
        "\nrank 2 never entered the Lagrange phase: it spawned no\n\
         workers, and its master trace lacks the whole kernel family —\n\
         at k = 4 it is a singleton cluster, flagged with no reference\n\
         run at all."
    );
}
