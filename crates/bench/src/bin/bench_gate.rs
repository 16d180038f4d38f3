//! `bench_gate` — hold the pipeline perf trajectory to the committed
//! snapshot.
//!
//! Compares a freshly measured `BENCH_pipeline.json` against the
//! checked-in baseline document (`BENCH_baselines/BENCH_pipeline.json`)
//! and fails when the gated sweep stages regress beyond the tolerance.
//!
//! Two comparison modes:
//!
//! * **ratio** (default): gates the cache-effectiveness ratio
//!   `sweep_cached_best_ns / sweep_cold_best_ns`. Absolute times are
//!   machine-relative — CI hardware is not the machine that recorded
//!   the snapshot — but the warm/cold ratio measures what the analysis
//!   cache is worth on the golden corpus and is portable. A regression
//!   here means the cached sweep stopped answering from the memo.
//! * **`--absolute`**: gates each stage's raw nanoseconds directly.
//!   Only meaningful when both documents come from the same machine
//!   (e.g. a local before/after check while optimising).
//!
//! ```text
//! cargo run --release -p difftrace-bench --bin bench_gate -- \
//!     [--tolerance PCT] [--absolute] <baseline.json> <fresh.json>
//! ```
//!
//! Exits 0 when within tolerance, 1 on a regression, 2 on usage/IO/
//! schema errors (2 means the gate could not run, not that perf is ok).

use dt_obs::json::Value;

/// The cold and warm times of the median-ratio pair among the many
/// interleaved sweep pairs `bench_pipeline` times for this gate (the
/// committed snapshot carries them under these names). One-shot stage
/// times jitter far beyond any useful tolerance, so the gate reads
/// these counters, not the `sweep_cold`/`sweep_cached` stage spans
/// (those stay in the document for the perf trajectory).
const GATED_STAGES: [&str; 2] = ["sweep_cold_best_ns", "sweep_cached_best_ns"];

/// The value of counter `name` in a parsed metrics document.
fn counter_ns(doc: &Value, name: &str) -> Option<f64> {
    let counters = doc
        .as_object()?
        .iter()
        .find(|(k, _)| k == "counters")?
        .1
        .as_object()?;
    counters.iter().find(|(k, _)| k == name).and_then(|(_, v)| {
        if let Value::Num(n) = v {
            Some(*n)
        } else {
            None
        }
    })
}

fn load(path: &str) -> Value {
    let doc = match std::fs::read_to_string(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = dt_obs::validate_json(&doc) {
        eprintln!("{path}: schema violation: {e}");
        std::process::exit(2);
    }
    match dt_obs::json::parse(&doc) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{path}: unparseable after validation: {e}");
            std::process::exit(2);
        }
    }
}

fn gated(doc: &Value, path: &str) -> [f64; 2] {
    GATED_STAGES.map(|stage| match counter_ns(doc, stage) {
        Some(ns) if ns > 0.0 => ns,
        Some(_) => {
            eprintln!("{path}: counter `{stage}` recorded zero time");
            std::process::exit(2);
        }
        None => {
            eprintln!("{path}: counter `{stage}` is missing — not a bench_pipeline document?");
            std::process::exit(2);
        }
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tolerance = 15.0_f64;
    let mut absolute = false;
    let mut paths: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tolerance" => {
                i += 1;
                tolerance = match args.get(i).and_then(|s| s.parse::<f64>().ok()) {
                    Some(t) if t >= 0.0 => t,
                    _ => {
                        eprintln!("--tolerance needs a non-negative percentage");
                        std::process::exit(2);
                    }
                };
            }
            "--absolute" => absolute = true,
            flag if flag.starts_with("--") => {
                eprintln!("unknown option {flag}");
                std::process::exit(2);
            }
            p => paths.push(p.to_string()),
        }
        i += 1;
    }
    let [base_path, fresh_path] = &paths[..] else {
        eprintln!("usage: bench_gate [--tolerance PCT] [--absolute] <baseline.json> <fresh.json>");
        std::process::exit(2);
    };

    let base = gated(&load(base_path), base_path);
    let fresh = gated(&load(fresh_path), fresh_path);
    let mut failed = false;

    if absolute {
        for (stage, (b, f)) in GATED_STAGES.iter().zip(base.iter().zip(&fresh)) {
            let pct = (f / b - 1.0) * 100.0;
            let verdict = if pct > tolerance {
                failed = true;
                "REGRESSED"
            } else {
                "ok"
            };
            println!("{stage}: baseline {b:.0} ns, fresh {f:.0} ns ({pct:+.1}%) {verdict}");
        }
    } else {
        let [b_cold, b_cached] = base;
        let [f_cold, f_cached] = fresh;
        let (r_base, r_fresh) = (b_cached / b_cold, f_cached / f_cold);
        let pct = (r_fresh / r_base - 1.0) * 100.0;
        let verdict = if pct > tolerance {
            failed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "sweep_cached/sweep_cold: baseline {r_base:.3}, fresh {r_fresh:.3} ({pct:+.1}%) {verdict}"
        );
    }

    if failed {
        eprintln!(
            "bench gate: regression beyond {tolerance}% tolerance vs {base_path} — \
             investigate, or re-record the snapshot if the change is intentional"
        );
        std::process::exit(1);
    }
}
