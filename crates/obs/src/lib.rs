//! `dt-obs` — the observability substrate of the DiffTrace pipeline.
//!
//! The paper sells DiffTrace on *efficiency* (§IV reports per-stage
//! costs for NLR, FCA, and clustering); this crate is how the
//! reproduction answers "where did the time go?" for any run. It
//! provides:
//!
//! * a [`Recorder`] trait every pipeline stage reports into, with a
//!   **no-op default** ([`Noop`] / [`NOOP`]) whose methods are empty —
//!   disabled instrumentation is a virtual call that immediately
//!   returns, and the [`stage`] guard does not even read the clock
//!   unless [`Recorder::enabled`] says someone is listening;
//! * [`MetricsRecorder`], a thread-safe collector aggregating
//!   monotonic stage spans (hierarchical `a/b` paths), u64 counters,
//!   and per-worker wall-time samples for imbalance analysis;
//! * [`Metrics`], the finished snapshot, rendering either as a text
//!   profile table ([`Metrics::render_table`]) or as a JSON document
//!   in the stable `difftrace-metrics/v1` schema ([`Metrics::to_json`],
//!   validated by [`validate_json`]);
//! * [`peak_rss_bytes`], a Linux `VmHWM` sampler (graceful `None`
//!   elsewhere).
//!
//! # Contract
//!
//! Instrumentation is **observational only**: recorders receive copies
//! of measurements and may never influence an analysis result. The
//! pipeline's byte-identity harness asserts this (instrumented and
//! uninstrumented runs produce identical reports at every thread
//! count).

pub mod json;

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// The stable schema identifier written into every metrics document.
pub const SCHEMA: &str = "difftrace-metrics/v1";

/// A sink for pipeline measurements.
///
/// All methods default to doing nothing, so a unit struct gets a
/// complete no-op implementation for free. Implementors must be `Sync`:
/// parallel stages report from worker threads.
pub trait Recorder: Sync {
    /// Is anyone listening? Hot paths consult this before computing
    /// anything purely diagnostic (clock reads, event tallies).
    fn enabled(&self) -> bool {
        false
    }

    /// A completed span of stage `path` (hierarchical, `/`-separated),
    /// `ns` nanoseconds long. Repeated spans of one path aggregate.
    fn span_ns(&self, _path: &str, _ns: u64) {}

    /// Add `n` to the named monotonic counter.
    fn add(&self, _counter: &str, _n: u64) {}

    /// One worker's total busy time inside a parallel stage — the raw
    /// material of the per-thread imbalance report.
    fn worker_ns(&self, _path: &str, _worker: usize, _ns: u64) {}
}

/// The do-nothing recorder. Every entry point that does not thread an
/// explicit recorder uses this.
#[derive(Debug, Clone, Copy, Default)]
pub struct Noop;

impl Recorder for Noop {}

/// Shared instance of [`Noop`] for `&dyn Recorder` call sites.
pub static NOOP: Noop = Noop;

/// RAII stage timer: measures from construction to drop and reports to
/// the recorder. When the recorder is disabled the clock is never read.
pub struct StageTimer<'a> {
    rec: &'a dyn Recorder,
    path: std::borrow::Cow<'a, str>,
    start: Option<Instant>,
}

impl Drop for StageTimer<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.rec
                .span_ns(&self.path, start.elapsed().as_nanos() as u64);
        }
    }
}

/// Time a stage with a static path: `let _s = stage(rec, "nlr");`.
pub fn stage<'a>(rec: &'a dyn Recorder, path: &'a str) -> StageTimer<'a> {
    StageTimer {
        rec,
        path: std::borrow::Cow::Borrowed(path),
        start: rec.enabled().then(Instant::now),
    }
}

/// [`stage`] with an owned path (e.g. one sweep grid cell). Callers
/// should guard the `format!` behind [`Recorder::enabled`].
pub fn stage_owned(rec: &dyn Recorder, path: String) -> StageTimer<'_> {
    StageTimer {
        rec,
        path: std::borrow::Cow::Owned(path),
        start: rec.enabled().then(Instant::now),
    }
}

/// Run `f`, adding its wall time to `ns` when `rec` is enabled. A stage
/// timed in many short sections (one per chunk of a loop) sums them
/// here and reports once through [`Recorder::span_ns`], so a shared
/// recorder is not locked once per section.
pub fn time_into<T>(rec: &dyn Recorder, ns: &mut u64, f: impl FnOnce() -> T) -> T {
    let start = rec.enabled().then(Instant::now);
    let out = f();
    if let Some(start) = start {
        *ns += start.elapsed().as_nanos() as u64;
    }
    out
}

/// Aggregate of all spans recorded under one path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SpanAgg {
    ns: u64,
    calls: u64,
}

#[derive(Debug, Default)]
struct Inner {
    spans: BTreeMap<String, SpanAgg>,
    counters: BTreeMap<String, u64>,
    workers: BTreeMap<String, BTreeMap<usize, u64>>,
}

/// Thread-safe metrics collector. Create one per CLI invocation (or
/// bench iteration), pass it as `&dyn Recorder` to the `_rec` pipeline
/// entry points, then snapshot with [`MetricsRecorder::finish`].
#[derive(Debug)]
pub struct MetricsRecorder {
    start: Instant,
    inner: Mutex<Inner>,
}

impl Default for MetricsRecorder {
    fn default() -> MetricsRecorder {
        MetricsRecorder::new()
    }
}

impl MetricsRecorder {
    /// A fresh recorder; wall time counts from here.
    pub fn new() -> MetricsRecorder {
        MetricsRecorder {
            start: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned lock only means another worker panicked mid-write;
        // metrics are diagnostics, so keep what we have.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Live snapshot of every monotonic counter recorded so far,
    /// sorted by name. Unlike [`MetricsRecorder::finish`] this takes
    /// no command context — it is the cheap probe a long-running
    /// server polls for its `metrics` query between requests.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.lock()
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Live value of one counter (0 if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Snapshot everything recorded so far into a [`Metrics`] document.
    pub fn finish(&self, command: &str, threads: usize) -> Metrics {
        let inner = self.lock();
        Metrics {
            command: command.to_string(),
            threads,
            wall_ns: self.start.elapsed().as_nanos() as u64,
            peak_rss_bytes: peak_rss_bytes(),
            stages: inner
                .spans
                .iter()
                .map(|(path, agg)| StageMetric {
                    path: path.clone(),
                    ns: agg.ns,
                    calls: agg.calls,
                })
                .collect(),
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            workers: inner
                .workers
                .iter()
                .map(|(path, by_worker)| {
                    // Dense per-worker vector; workers that never
                    // reported (no work stolen) show as 0.
                    let max = by_worker.keys().copied().max().unwrap_or(0);
                    let mut v = vec![0u64; max + 1];
                    for (&w, &ns) in by_worker {
                        v[w] = ns;
                    }
                    (path.clone(), v)
                })
                .collect(),
        }
    }
}

impl Recorder for MetricsRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn span_ns(&self, path: &str, ns: u64) {
        let mut inner = self.lock();
        let agg = inner.spans.entry(path.to_string()).or_default();
        agg.ns += ns;
        agg.calls += 1;
    }

    fn add(&self, counter: &str, n: u64) {
        *self.lock().counters.entry(counter.to_string()).or_insert(0) += n;
    }

    fn worker_ns(&self, path: &str, worker: usize, ns: u64) {
        *self
            .lock()
            .workers
            .entry(path.to_string())
            .or_default()
            .entry(worker)
            .or_insert(0) += ns;
    }
}

/// One aggregated stage of a [`Metrics`] document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageMetric {
    /// Hierarchical `/`-separated stage path, e.g. `diff/nlr`.
    pub path: String,
    /// Total wall nanoseconds across all spans of this path.
    pub ns: u64,
    /// Number of spans aggregated.
    pub calls: u64,
}

/// A finished metrics snapshot — one `difftrace-metrics/v1` document.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// The invocation that produced this document (`diff`, `sweep`, …).
    pub command: String,
    /// The *requested* thread knob (0 = all available parallelism).
    pub threads: usize,
    /// Wall time from recorder creation to snapshot.
    pub wall_ns: u64,
    /// Peak resident set (`VmHWM`), when the platform exposes it.
    pub peak_rss_bytes: Option<u64>,
    /// Aggregated stage spans, sorted by path.
    pub stages: Vec<StageMetric>,
    /// Monotonic counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Per-worker busy nanoseconds of parallel stages, sorted by path.
    pub workers: Vec<(String, Vec<u64>)>,
}

impl Metrics {
    /// Serialise as one `difftrace-metrics/v1` JSON document
    /// (newline-terminated). The field set is a stability promise; see
    /// DESIGN.md §"Metrics schema".
    pub fn to_json(&self) -> String {
        use json::escape;
        let mut out = String::with_capacity(512);
        out.push_str(&format!(
            "{{\"schema\":\"{SCHEMA}\",\"command\":\"{}\",\"threads\":{},\"wall_ns\":{}",
            escape(&self.command),
            self.threads,
            self.wall_ns
        ));
        match self.peak_rss_bytes {
            Some(b) => out.push_str(&format!(",\"peak_rss_bytes\":{b}")),
            None => out.push_str(",\"peak_rss_bytes\":null"),
        }
        out.push_str(",\"stages\":[");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"path\":\"{}\",\"ns\":{},\"calls\":{}}}",
                escape(&s.path),
                s.ns,
                s.calls
            ));
        }
        out.push_str("],\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", escape(k)));
        }
        out.push_str("},\"workers\":{");
        for (i, (k, v)) in self.workers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ns: Vec<String> = v.iter().map(u64::to_string).collect();
            out.push_str(&format!("\"{}\":[{}]", escape(k), ns.join(",")));
        }
        out.push_str("}}\n");
        out
    }

    /// Render the human profile table (`--profile`): stage wall-times
    /// with share-of-total, counters, and per-thread imbalance.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== profile: {} (threads={}, wall {}{})\n",
            self.command,
            if self.threads == 0 {
                "all".to_string()
            } else {
                self.threads.to_string()
            },
            fmt_ns(self.wall_ns),
            match self.peak_rss_bytes {
                Some(b) => format!(", peak RSS {}", fmt_bytes(b)),
                None => String::new(),
            }
        ));
        if !self.stages.is_empty() {
            out.push_str(&format!(
                "{:<28} {:>6} {:>12} {:>8}\n",
                "stage", "calls", "wall", "% wall"
            ));
            for s in &self.stages {
                let pct = if self.wall_ns > 0 {
                    100.0 * s.ns as f64 / self.wall_ns as f64
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "{:<28} {:>6} {:>12} {:>7.1}%\n",
                    s.path,
                    s.calls,
                    fmt_ns(s.ns),
                    pct
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str(&format!("{:<28} {:>12}\n", "counter", "value"));
            for (k, v) in &self.counters {
                out.push_str(&format!("{k:<28} {v:>12}\n"));
            }
        }
        for (path, per_worker) in &self.workers {
            if per_worker.is_empty() {
                continue;
            }
            let max = per_worker.iter().copied().max().unwrap_or(0);
            let mean = per_worker.iter().sum::<u64>() as f64 / per_worker.len() as f64;
            let imbalance = if mean > 0.0 { max as f64 / mean } else { 1.0 };
            let times: Vec<String> = per_worker.iter().map(|&ns| fmt_ns(ns)).collect();
            out.push_str(&format!(
                "workers[{path}]: [{}]  max/mean {imbalance:.2}\n",
                times.join(", ")
            ));
        }
        out
    }
}

/// Human-readable duration.
fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Human-readable byte count.
fn fmt_bytes(b: u64) -> String {
    let b = b as f64;
    if b >= 1024.0 * 1024.0 * 1024.0 {
        format!("{:.2} GiB", b / (1024.0 * 1024.0 * 1024.0))
    } else if b >= 1024.0 * 1024.0 {
        format!("{:.2} MiB", b / (1024.0 * 1024.0))
    } else if b >= 1024.0 {
        format!("{:.1} KiB", b / 1024.0)
    } else {
        format!("{b:.0} B")
    }
}

/// Peak resident set size of this process, in bytes, sampled from
/// `/proc/self/status` (`VmHWM`). `None` where the platform does not
/// expose it — metrics documents then carry `"peak_rss_bytes":null`.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                return Some(kb * 1024);
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Validate a `difftrace-metrics/v1` document: well-formed JSON with
/// every schema field present and correctly typed. Returns a
/// human-readable description of the first violation.
pub fn validate_json(doc: &str) -> Result<(), String> {
    use json::Value;
    let v = json::parse(doc)?;
    let obj = v.as_object().ok_or("top level is not an object")?;
    let field = |name: &str| -> Result<&Value, String> {
        obj.iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field `{name}`"))
    };
    match field("schema")? {
        Value::Str(s) if s == SCHEMA => {}
        other => return Err(format!("bad `schema`: {other:?} (want \"{SCHEMA}\")")),
    }
    if !matches!(field("command")?, Value::Str(_)) {
        return Err("`command` is not a string".into());
    }
    for key in ["threads", "wall_ns"] {
        if !matches!(field(key)?, Value::Num(_)) {
            return Err(format!("`{key}` is not a number"));
        }
    }
    if !matches!(field("peak_rss_bytes")?, Value::Num(_) | Value::Null) {
        return Err("`peak_rss_bytes` is not a number or null".into());
    }
    let stages = field("stages")?
        .as_array()
        .ok_or("`stages` is not an array")?;
    for (i, s) in stages.iter().enumerate() {
        let s = s
            .as_object()
            .ok_or_else(|| format!("stages[{i}] is not an object"))?;
        let want = [("path", false), ("ns", true), ("calls", true)];
        for (key, numeric) in want {
            let v = s
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("stages[{i}] missing `{key}`"))?;
            let ok = if numeric {
                matches!(v, Value::Num(_))
            } else {
                matches!(v, Value::Str(_))
            };
            if !ok {
                return Err(format!("stages[{i}].{key} has the wrong type"));
            }
        }
    }
    let counters = field("counters")?
        .as_object()
        .ok_or("`counters` is not an object")?;
    for (k, v) in counters {
        if !matches!(v, Value::Num(_)) {
            return Err(format!("counter `{k}` is not a number"));
        }
    }
    let workers = field("workers")?
        .as_object()
        .ok_or("`workers` is not an object")?;
    for (k, v) in workers {
        let arr = v
            .as_array()
            .ok_or_else(|| format!("workers[`{k}`] is not an array"))?;
        if arr.iter().any(|x| !matches!(x, Value::Num(_))) {
            return Err(format!("workers[`{k}`] has a non-numeric element"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_is_inert() {
        assert!(!NOOP.enabled());
        {
            let _t = stage(&NOOP, "anything");
        }
        NOOP.add("c", 3);
        NOOP.worker_ns("p", 0, 5);
        // Nothing to observe — the point is that this compiles to
        // nothing and panics nowhere.
    }

    #[test]
    fn recorder_aggregates_spans_and_counters() {
        let rec = MetricsRecorder::new();
        rec.span_ns("diff/nlr", 100);
        rec.span_ns("diff/nlr", 50);
        rec.span_ns("diff/filter", 7);
        rec.add("events_kept", 10);
        rec.add("events_kept", 5);
        rec.worker_ns("diff/mine", 1, 30);
        rec.worker_ns("diff/mine", 0, 20);
        let m = rec.finish("diff", 4);
        assert_eq!(m.command, "diff");
        assert_eq!(m.threads, 4);
        let nlr = m.stages.iter().find(|s| s.path == "diff/nlr").unwrap();
        assert_eq!((nlr.ns, nlr.calls), (150, 2));
        assert_eq!(m.counters, vec![("events_kept".to_string(), 15)]);
        assert_eq!(m.workers, vec![("diff/mine".to_string(), vec![20, 30])]);
        // Stage paths come out sorted.
        let paths: Vec<&str> = m.stages.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, vec!["diff/filter", "diff/nlr"]);
    }

    #[test]
    fn stage_guard_times_only_when_enabled() {
        let rec = MetricsRecorder::new();
        {
            let _t = stage(&rec, "s");
        }
        {
            let _t = stage_owned(&rec, format!("cell/{}", 3));
        }
        let m = rec.finish("t", 1);
        assert_eq!(m.stages.len(), 2);
        assert!(m.stages.iter().any(|s| s.path == "cell/3"));
    }

    #[test]
    fn json_round_trips_the_schema() {
        let rec = MetricsRecorder::new();
        rec.span_ns("a/b", 12);
        rec.add("n \"quoted\"", 1);
        rec.worker_ns("a/b", 0, 12);
        let doc = rec.finish("diff", 0).to_json();
        validate_json(&doc).unwrap();
        assert!(doc.ends_with('\n'));
        assert!(doc.contains("\"schema\":\"difftrace-metrics/v1\""));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_json("").is_err());
        assert!(validate_json("{}").is_err());
        assert!(validate_json("[1,2]").is_err());
        // Wrong schema tag.
        let wrong = Metrics {
            command: "x".into(),
            threads: 1,
            wall_ns: 1,
            peak_rss_bytes: None,
            stages: vec![],
            counters: vec![],
            workers: vec![],
        }
        .to_json()
        .replace("metrics/v1", "metrics/v9");
        assert!(validate_json(&wrong).is_err());
        // Field with the wrong type.
        let bad = "{\"schema\":\"difftrace-metrics/v1\",\"command\":7,\"threads\":1,\
                   \"wall_ns\":1,\"peak_rss_bytes\":null,\"stages\":[],\"counters\":{},\
                   \"workers\":{}}";
        assert!(validate_json(bad).unwrap_err().contains("command"));
    }

    #[test]
    fn peak_rss_is_plausible_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = peak_rss_bytes().expect("linux exposes VmHWM");
            assert!(rss > 0);
        }
    }

    #[test]
    fn table_renders_all_sections() {
        let rec = MetricsRecorder::new();
        rec.span_ns("filter", 1_500_000);
        rec.add("events_kept", 42);
        rec.worker_ns("mine", 0, 1_000);
        rec.worker_ns("mine", 1, 3_000);
        let t = rec.finish("diff", 2).render_table();
        assert!(t.contains("== profile: diff"), "{t}");
        assert!(t.contains("filter"), "{t}");
        assert!(t.contains("events_kept"), "{t}");
        assert!(t.contains("workers[mine]"), "{t}");
        assert!(t.contains("max/mean"), "{t}");
    }

    /// The live-counter probe reads without consuming: values keep
    /// accumulating afterwards, and a later `finish` still sees
    /// everything.
    #[test]
    fn live_counter_snapshot_is_nondestructive() {
        let rec = MetricsRecorder::new();
        assert_eq!(rec.counter("requests"), 0);
        assert!(rec.counters().is_empty());
        rec.add("requests", 2);
        rec.add("cache_hits", 1);
        assert_eq!(rec.counter("requests"), 2);
        assert_eq!(
            rec.counters(),
            vec![("cache_hits".to_string(), 1), ("requests".to_string(), 2)]
        );
        rec.add("requests", 1);
        assert_eq!(rec.counter("requests"), 3);
        let m = rec.finish("serve", 1);
        assert!(m.counters.contains(&("requests".to_string(), 3)));
    }
}
