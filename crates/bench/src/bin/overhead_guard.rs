//! `overhead_guard` — assert the dt-obs instrumentation stays cheap.
//!
//! Runs the same single-threaded DiffTrace iteration N times without a
//! recorder and N times with a live [`dt_obs::MetricsRecorder`], then
//! compares the *minimum* wall times (min-of-N is the standard
//! noise-resistant estimator for "how fast can this go"). The
//! instrumented minimum must stay within `--tolerance` percent of the
//! uninstrumented one — the tentpole's "disabled instrumentation
//! compiles to nothing" claim, enforced on the enabled side too.
//!
//! ```text
//! cargo run --release -p difftrace-bench --bin overhead_guard -- \
//!     [--runs N] [--tolerance PCT]
//! ```
//!
//! Exits 0 when within tolerance, 1 on breach, 2 on usage errors.

use difftrace::{
    try_diff_runs, AttrConfig, AttrKind, FilterConfig, FreqMode, Params, PipelineOptions,
};
use dt_trace::{FunctionRegistry, TraceSet};
use std::sync::Arc;
use std::time::Instant;
use workloads::{run_oddeven, OddEvenConfig};

fn min_wall(
    runs: usize,
    normal: &TraceSet,
    faulty: &TraceSet,
    params: &Params,
    rec: &dyn dt_obs::Recorder,
) -> f64 {
    let opts = PipelineOptions::with_threads(1);
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let t0 = Instant::now();
        let d = try_diff_runs(normal, faulty, None, params, &opts, rec).expect("gates are off");
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(d.suspicious_processes.first(), Some(&5));
        best = best.min(dt);
    }
    best
}

fn main() {
    let mut runs = 5usize;
    let mut tolerance = 5.0f64;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--runs" => {
                runs = value("--runs").parse().unwrap_or_else(|_| {
                    eprintln!("bad --runs");
                    std::process::exit(2);
                });
            }
            "--tolerance" => {
                tolerance = value("--tolerance").parse().unwrap_or_else(|_| {
                    eprintln!("bad --tolerance");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!(
                    "unknown option `{other}` (usage: overhead_guard [--runs N] [--tolerance PCT])"
                );
                std::process::exit(2);
            }
        }
    }

    let registry = Arc::new(FunctionRegistry::new());
    let normal = run_oddeven(&OddEvenConfig::paper(None), registry.clone()).traces;
    let faulty = run_oddeven(
        &OddEvenConfig::paper(Some(OddEvenConfig::swap_bug())),
        registry,
    )
    .traces;
    let params = Params::new(
        FilterConfig::mpi_all(10),
        AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::Actual,
        },
    );

    // Warm-up: fault in lazily-initialized state before timing either
    // side, and interleave-free: full uninstrumented pass, then full
    // instrumented pass.
    min_wall(1, &normal, &faulty, &params, &dt_obs::NOOP);
    let plain = min_wall(runs, &normal, &faulty, &params, &dt_obs::NOOP);
    let live = dt_obs::MetricsRecorder::new();
    let instrumented = min_wall(runs, &normal, &faulty, &params, &live);

    let overhead_pct = 100.0 * (instrumented - plain) / plain;
    println!(
        "uninstrumented min {:.3} ms, instrumented min {:.3} ms, overhead {overhead_pct:+.2}% (tolerance {tolerance}%, {runs} runs)",
        plain * 1e3,
        instrumented * 1e3,
    );
    if overhead_pct > tolerance {
        eprintln!("overhead guard breached: {overhead_pct:.2}% > {tolerance}%");
        std::process::exit(1);
    }
}
