//! `perfbench` — the DiffTrace benchmark runner.
//!
//! ```text
//! perfbench --workload <serve-mixed|serve-cold> --seed N --seconds S --trace 0|1
//! perfbench gen --workload W --seed N --out DIR
//! ```
//!
//! A run generates its inputs from the seed in a child process (off the
//! clock), sets the program up several times and keeps the median, then
//! runs ops for `S` seconds, checking every op's output. The last stdout
//! line is one JSON object: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a
//! traced run (`--trace 1`). See `README.md` beside this crate.

mod compose;
mod inputs;
mod measure;
mod serve;
mod spans;

use measure::Metrics;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// Every per-layer metric a traced run reports, with its unit. A layer
/// the workload never reaches reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("store.decode_ms", "ms"),
    ("store.trace_decodes", "count"),
    ("filter.ms", "ms"),
    ("filter.events_in", "count"),
    ("filter.kept_ratio", "ratio"),
    ("nlr.ms", "ms"),
    ("nlr.folds", "count"),
    ("nlr.terms", "count"),
    ("mine.ms", "ms"),
    ("lattice.ms", "ms"),
    ("lattice.concepts", "count"),
    ("jsm.ms", "ms"),
    ("jsm.cells", "count"),
    ("linkage.ms", "ms"),
    ("bscore.ms", "ms"),
    ("diffnlr.ms", "ms"),
    ("cache.nlr_hit_ratio", "ratio"),
    ("cache.nlr_hits", "count"),
    ("cache.nlr_lookups", "count"),
    ("cache.attr_hit_ratio", "ratio"),
    ("cache.attr_hits", "count"),
    ("cache.attr_lookups", "count"),
    ("lint.ms", "ms"),
    ("hbcheck.ms", "ms"),
    ("racecheck.ms", "ms"),
    ("reqcheck.ms", "ms"),
    ("fleet.fold_ms", "ms"),
    ("fleet.report_ms", "ms"),
    ("fleet.lattice_folds", "count"),
    ("serve.lint_p50_ms", "ms"),
    ("serve.hbcheck_p50_ms", "ms"),
    ("serve.racecheck_p50_ms", "ms"),
    ("serve.reqcheck_p50_ms", "ms"),
    ("serve.single_p50_ms", "ms"),
    ("serve.diff_p50_ms", "ms"),
    ("serve.fleet_p50_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.failed", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("cpu_ms_per_op", "ms"),
];

/// Layer spans whose per-op self time is reported as `<metric>`.
const LAYER_SPANS: &[(&str, &str)] = &[
    ("filter", "filter.ms"),
    ("nlr", "nlr.ms"),
    ("mine", "mine.ms"),
    ("lattice", "lattice.ms"),
    ("jsm", "jsm.ms"),
    ("linkage", "linkage.ms"),
    ("bscore", "bscore.ms"),
    ("diffnlr", "diffnlr.ms"),
];

/// Parsed command line of a measuring run.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Checks outside the per-op ones (set-up references, exact counts).
    pub checks_ok: bool,
    pub metrics: Metrics,
}

/// Where this run's scratch files and span dumps go (inside the
/// working directory, which is the checkout's root).
fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

/// The traced run's common tail: write the spans to
/// `.perfbench/spans-<workload>-seed<N>.jsonl`, print each layer's share
/// of the traced op, and report each layer's median self time plus the
/// tracing overhead (traced op median over untraced op median).
pub fn traced_metrics(
    tr: &spans::Tracer,
    args: &RunArgs,
    plain_ms: &[f64],
    traced_ms: &[f64],
) -> Result<Metrics, String> {
    let path = out_dir().join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    tr.write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    let layers = spans::layer_medians(&tr.self_ms());
    let total: f64 = layers.values().sum();
    let mut rows: Vec<(&&str, &f64)> = layers.iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(a.1));
    println!("layer self time per op (median over traced ops):");
    for (name, ms) in rows {
        println!("  {name:<10} {ms:>10.3} ms  {:>5.1}%", 100.0 * ms / total);
    }
    let mut m = Metrics::default();
    for (span, metric) in LAYER_SPANS {
        if let Some(&ms) = layers.get(span) {
            m.put(metric, ms, "ms");
        }
    }
    m.put(
        "trace.overhead_ratio",
        measure::median(traced_ms) / measure::median(plain_ms),
        "ratio",
    );
    Ok(m)
}

/// Record `now` as the first op's exact counts, or check it against
/// them; a mismatch is flagged, and returns false.
pub fn same_counts<T: PartialEq>(first: &mut Option<T>, now: T, workload: &str) -> bool {
    match first {
        None => {
            *first = Some(now);
            true
        }
        Some(f) if *f == now => true,
        Some(_) => {
            eprintln!("FLAG: {workload} work counts changed between ops");
            false
        }
    }
}

pub fn put_counts(m: &mut Metrics, c: &compose::Counts) {
    m.count("filter.events_in", c.events_in);
    m.put(
        "filter.kept_ratio",
        c.events_kept as f64 / c.events_in.max(1) as f64,
        "ratio",
    );
    m.count("nlr.folds", c.nlr_folds);
    m.count("nlr.terms", c.nlr_terms);
    m.count("lattice.concepts", c.concepts);
    m.count("jsm.cells", c.jsm_cells);
}

pub fn put_cache(m: &mut Metrics, s: &dt_cache::CacheStats) {
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    m.put(
        "cache.nlr_hit_ratio",
        ratio(s.nlr_hits, s.nlr_misses),
        "ratio",
    );
    m.count("cache.nlr_hits", s.nlr_hits);
    m.count("cache.nlr_lookups", s.nlr_hits + s.nlr_misses);
    m.put(
        "cache.attr_hit_ratio",
        ratio(s.attr_hits, s.attr_misses),
        "ratio",
    );
    m.count("cache.attr_hits", s.attr_hits);
    m.count("cache.attr_lookups", s.attr_hits + s.attr_misses);
}

/// Complete a traced run's metrics: every per-layer name present (0
/// for a layer this workload never reaches), nothing else.
fn finish_per_layer(m: Metrics) -> Result<Metrics, String> {
    let mut out = Metrics::default();
    for (name, unit) in PER_LAYER {
        let v = m.0.get(*name).map_or(0.0, |(v, _)| *v);
        out.0.insert(name.to_string(), (v, *unit));
    }
    match m.0.keys().find(|k| !out.0.contains_key(*k)) {
        Some(extra) => Err(format!(
            "metric `{extra}` is not a declared per-layer metric"
        )),
        None => Ok(out),
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    let i = args
        .iter()
        .position(|a| a == name)
        .ok_or_else(|| format!("missing {name}"))?;
    args.get(i + 1)
        .map(String::as_str)
        .ok_or_else(|| format!("{name} needs a value"))
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let seconds: f64 = flag(args, "--seconds")?
        .parse()
        .map_err(|_| "bad --seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(RunArgs {
        workload: flag(args, "--workload")?.to_string(),
        seed: flag(args, "--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace: match flag(args, "--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace wants 0 or 1, got `{other}`")),
        },
    })
}

/// `gen`: record the workload's corpora into `--out` and list their
/// names on stdout, one per line.
fn gen(args: &[String]) -> Result<(), String> {
    let workload = flag(args, "--workload")?;
    let seed: u64 = flag(args, "--seed")?.parse().map_err(|_| "bad --seed")?;
    let dir = Path::new(flag(args, "--out")?);
    let corpora = inputs::generate(workload, seed)?;
    inputs::write_dir(dir, &corpora)?;
    for c in &corpora {
        println!("{}", c.name);
    }
    Ok(())
}

fn run(args: &RunArgs) -> Result<String, String> {
    let work = out_dir().join(format!(
        "work-{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let corpora = inputs::generate_in_child(&args.workload, args.seed, &work);
    let result = corpora.and_then(|corpora| {
        let total: usize = corpora.iter().map(|c| c.bytes.len()).sum();
        println!(
            "inputs {} seed {}: {} corpora, {total} bytes, digest {}",
            args.workload,
            args.seed,
            corpora.len(),
            inputs::digest_all(&corpora)
        );
        for c in &corpora {
            println!("  {:<14} {}", c.name, inputs::digest(&c.bytes));
        }
        match args.workload.as_str() {
            "serve-mixed" => serve::run(corpora, &work, args, false),
            "serve-cold" => serve::run(corpora, &work, args, true),
            other => Err(format!("unknown workload `{other}`")),
        }
    });
    std::fs::remove_dir_all(&work).ok();
    let out = result?;
    let metrics = if args.trace {
        finish_per_layer(out.metrics)?
    } else {
        out.metrics
    };
    let correct = out.checks_ok && out.failed == 0;
    Ok(measure::result_line(
        correct,
        out.attempted,
        out.failed,
        &metrics,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = if args.first().map(String::as_str) == Some("gen") {
        gen(&args[1..])
    } else {
        parse_run_args(&args)
            .and_then(|a| run(&a))
            .map(|line| println!("{line}"))
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
