//! `bench_pipeline` — run one instrumented DiffTrace iteration on the
//! golden odd/even corpus and write the stage metrics as
//! `BENCH_pipeline.json` (schema `difftrace-metrics/v1`, the same
//! document `difftrace --metrics` emits). This is the machine-readable
//! perf trajectory: CI archives one document per commit, so stage-level
//! regressions show up as a diffable time series.
//!
//! ```text
//! cargo run --release -p difftrace-bench --bin bench_pipeline -- [out.json]
//! ```

use difftrace::{
    sweep, try_diff_runs, AttrConfig, AttrKind, FilterConfig, FreqMode, Params, PipelineOptions,
};
use dt_cache::Cache;
use dt_obs::Recorder;
use dt_trace::FunctionRegistry;
use std::sync::Arc;
use workloads::{run_oddeven, OddEvenConfig};

/// Sweep options: every core, sharing `cache`.
fn all_cores(cache: Arc<Cache>) -> PipelineOptions {
    PipelineOptions {
        threads: 0,
        cache: Some(cache),
        ..PipelineOptions::default()
    }
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pipeline.json".to_string());

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

    let rec = dt_obs::MetricsRecorder::new();
    let d = try_diff_runs(
        &normal,
        &faulty,
        None,
        &params,
        &PipelineOptions::default(),
        &rec,
    )
    .expect("gates are off");
    // Sanity: the corpus must still implicate the seeded fault — a
    // perf document for a wrong answer is worse than no document.
    assert_eq!(
        d.suspicious_processes.first(),
        Some(&5),
        "odd/even swap bug no longer implicates rank 5"
    );

    // Cold vs. warm sweep through the analysis cache: two identical
    // parameter sweeps sharing one in-memory cache. The first pays for
    // every NLR fold; the second answers from the memo. Both land in
    // the document as `sweep_cold` / `sweep_cached` spans, so the time
    // series records what the cache is worth on the golden corpus.
    let filters = vec![FilterConfig::mpi_all(10), FilterConfig::everything(10)];
    let cache = Arc::new(Cache::new());
    let mut sweeps = Vec::new();
    for pass in ["sweep_cold", "sweep_cached"] {
        let _s = dt_obs::stage(&rec, pass);
        sweeps.push(sweep(
            &normal,
            &faulty,
            &filters,
            &AttrConfig::ALL,
            cluster::Method::Ward,
            &all_cores(cache.clone()),
            &rec,
        ));
    }
    let [cold, warm] = &sweeps[..] else {
        unreachable!()
    };
    assert_eq!(cold.len(), warm.len(), "cold/warm sweep row count");
    for (a, b) in cold.iter().zip(warm) {
        assert_eq!(
            (a.bscore.to_bits(), &a.filter, &a.attrs),
            (b.bscore.to_bits(), &b.filter, &b.attrs),
            "cached sweep diverged from cold sweep"
        );
    }
    cache.report_to(&rec);

    // Best-of-K sweep timing for CI's bench_gate: a single sweep on
    // this corpus takes single-digit milliseconds, so one-shot times
    // jitter far beyond any useful gate tolerance. Measure K fresh
    // cold/warm pairs and record the minima as counters; bench_gate
    // holds these against the committed snapshot.
    let (mut best_cold, mut best_cached) = (u64::MAX, u64::MAX);
    for _ in 0..5 {
        let cache = Arc::new(Cache::new());
        let t = std::time::Instant::now();
        let cold = sweep(
            &normal,
            &faulty,
            &filters,
            &AttrConfig::ALL,
            cluster::Method::Ward,
            &all_cores(cache.clone()),
            &dt_obs::NOOP,
        );
        best_cold = best_cold.min(t.elapsed().as_nanos() as u64);
        let t = std::time::Instant::now();
        let warm = sweep(
            &normal,
            &faulty,
            &filters,
            &AttrConfig::ALL,
            cluster::Method::Ward,
            &all_cores(cache),
            &dt_obs::NOOP,
        );
        best_cached = best_cached.min(t.elapsed().as_nanos() as u64);
        assert_eq!(cold.len(), warm.len(), "gate sweep row count");
    }
    rec.add("sweep_cold_best_ns", best_cold);
    rec.add("sweep_cached_best_ns", best_cached);

    let m = rec.finish("bench_pipeline", 0);
    let doc = m.to_json();
    if let Err(e) = dt_obs::validate_json(&doc) {
        eprintln!("emitted metrics do not validate: {e}\n{doc}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(&out, &doc) {
        eprintln!("writing {out}: {e}");
        std::process::exit(2);
    }
    eprintln!(
        "wrote {out} ({} stages, {} counters)",
        m.stages.len(),
        m.counters.len()
    );
    print!("{}", m.render_table());
}
