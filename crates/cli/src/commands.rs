//! Command parsing and execution.

use difftrace::{
    checker, render_ranking, sweep_parallel_cached_rec, try_diff_runs, AnyChecker, AttrConfig,
    AttrKind, CheckInput, FilterConfig, FreqMode, LintDomain, LintGate, LintOptions, Params,
    PipelineOptions, CHECKERS,
};
use dt_baseline::{evaluate, snapshot_rec, Baseline, Policy};
use dt_cache::Cache;
use dt_obs::{stage, MetricsRecorder, Recorder};
use dt_trace::hb::HbLog;
use dt_trace::{store, FunctionRegistry, TraceId, TraceSet, TraceSetStats};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// CLI failure modes; `main` maps each variant to a distinct exit code
/// (see the EXIT CODES section of the help text).
#[derive(Debug)]
pub enum CliError {
    /// Ordinary failure — bad arguments, unreadable input. Exit code 2.
    Msg(String),
    /// The lint gate denied the inputs (`--gate deny`). Exit code 3,
    /// so CI scripts can tell "traces are broken" from "tool misused".
    LintDenied(String),
}

impl From<String> for CliError {
    fn from(m: String) -> CliError {
        CliError::Msg(m)
    }
}

impl From<&str> for CliError {
    fn from(m: &str) -> CliError {
        CliError::Msg(m.to_string())
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Msg(m) | CliError::LintDenied(m) => write!(f, "{m}"),
        }
    }
}

/// One-line usage string per subcommand, appended to argument errors
/// so the fix is visible without a round-trip through `help`.
fn usage_of(cmd: &str) -> String {
    if let Some(c) = checker(cmd) {
        return format!("usage: difftrace {} <file.dtts>... [options]", c.name());
    }
    let usage = match cmd {
        "demo" => "usage: difftrace demo <workload> <outdir> [--force]",
        "info" => "usage: difftrace info <file.dtts>",
        "filters" => "usage: difftrace filters <file.dtts>",
        "single" => "usage: difftrace single <run.dtts> [options]",
        "diff" => "usage: difftrace diff <normal.dtts> <faulty.dtts> [options]",
        "fleet" => "usage: difftrace fleet <run.dtts|dir>... [--suspect RUN] [options]",
        "serve" => {
            "usage: difftrace serve <file.dtts>... [--addr HOST:PORT] [--jobs N] [--cache DIR]"
        }
        "query" => {
            "usage: difftrace query <HOST:PORT> <cmd> [<corpus> | <normal> <faulty>] [options]"
        }
        "export" => "usage: difftrace export <normal.dtts> <faulty.dtts> <outdir> [options]",
        "sweep" => "usage: difftrace sweep <normal.dtts> <faulty.dtts> [options]",
        "cache" => "usage: difftrace cache <stats|clear> <DIR>",
        "baseline" => "usage: difftrace baseline <record|check> … (see `difftrace help`)",
        "baseline record" => "usage: difftrace baseline record <run.dtts> <out.dtb> [options]",
        "baseline check" => {
            "usage: difftrace baseline check <run.dtts> <baseline.dtb> [options], or \
             difftrace baseline check --dir RUNS --out OUTDIR <baseline.dtb> [options]"
        }
        _ => "try `difftrace help`",
    };
    usage.to_string()
}

fn unknown_option(flag: &str, cmd: &str) -> String {
    format!("unknown option `{flag}` for `{cmd}` ({})", usage_of(cmd))
}

/// Duplicate-flag guard for the hand-rolled option loops. Every flag
/// match arm calls [`Seen::check`] first, so `--filter A --filter B`
/// fails the same way on every subcommand instead of silently keeping
/// whichever value the loop happened to see last. Flags that are
/// genuinely repeatable (sweep's grid axes) skip the check.
struct Seen<'a> {
    cmd: &'a str,
    seen: std::collections::BTreeSet<&'static str>,
}

impl<'a> Seen<'a> {
    fn new(cmd: &'a str) -> Seen<'a> {
        Seen {
            cmd,
            seen: std::collections::BTreeSet::new(),
        }
    }

    fn check(&mut self, flag: &'static str) -> Result<(), String> {
        if self.seen.insert(flag) {
            Ok(())
        } else {
            Err(format!(
                "duplicate option `{flag}` for `{}` ({})",
                self.cmd,
                usage_of(self.cmd)
            ))
        }
    }
}

/// The `--profile` / `--metrics FILE` pair shared by the analysis
/// subcommands.
#[derive(Default)]
struct ObsOpts {
    profile: bool,
    metrics: Option<PathBuf>,
}

impl ObsOpts {
    fn active(&self) -> bool {
        self.profile || self.metrics.is_some()
    }

    /// The recorder the pipeline should report into: the live one when
    /// any observability output was requested, the no-op (whose stage
    /// guards never read the clock) otherwise.
    fn recorder<'r>(&self, live: &'r MetricsRecorder) -> &'r dyn Recorder {
        if self.active() {
            live
        } else {
            &dt_obs::NOOP
        }
    }

    /// Finalize and emit: the profile table goes to stderr (stdout is
    /// reserved for the analysis report, which must stay byte-identical
    /// under instrumentation), the JSON document to `--metrics FILE`.
    fn emit(&self, live: &MetricsRecorder, command: &str, threads: usize) -> Result<(), String> {
        if !self.active() {
            return Ok(());
        }
        let m = live.finish(command, threads);
        if self.profile {
            eprint!("{}", m.render_table());
        }
        if let Some(path) = &self.metrics {
            let doc = m.to_json();
            debug_assert!(dt_obs::validate_json(&doc).is_ok());
            write_file_atomic(path, doc.as_bytes())
                .map_err(|e| format!("writing metrics to {}: {e}", path.display()))?;
        }
        Ok(())
    }
}

const HELP: &str = "\
difftrace — whole-program trace analysis and diffing for debugging

USAGE:
  difftrace demo <workload> <outdir> [--force]
      Run the workload twice (healthy + with its paper fault) under the
      simulated MPI runtime; write <outdir>/normal.dtts and
      <outdir>/faulty.dtts (with their happens-before logs). Refuses
      to overwrite an existing pair unless --force is given.
      Workloads: oddeven oddeven-dl ilcs-crit ilcs-size ilcs-op lulesh
      stencil-tag (halo-exchange tag mismatch → recv↔recv deadlock)
      lulesh-coll (rank deserts a collective → wait-for cycle)
      omp-counter (shared counter updated without its lock → data race)
      omp-lockorder (two locks nested in opposite orders → potential
      deadlock)
      isend-leak (MPI_Isend posted but never waited on → leaked request)
      coll-args (one rank passes a different reduce op → divergent
      collective signature).
      Fleet workloads write N runs instead of a pair: fleet-oddeven /
      fleet-stencil produce <outdir>/run-0.dtts … run-7.dtts (healthy,
      varied seeds/thresholds) plus <outdir>/fault.dtts (one injected
      fault) — the corpus shape `difftrace fleet` consumes.

  difftrace info <file.dtts>
      Per-process/per-thread statistics of a stored trace set.

  difftrace filters <file.dtts>
      Coverage of every predefined Table I filter on this trace set
      (how many events each keeps) — guidance for the iterative loop.

  difftrace lint <file.dtts>... [--format text|json] [--gate warn|deny]
          [--domain expanded|compressed] [--deep] [--threads N] [--filter CODE]
          [--trace P.T] [--profile] [--metrics FILE]
      Static trace analysis *before* any diffing: stack discipline
      (TL001), cross-rank collective order (TL002), truncation (TL003),
      dead filters (TL004), NLR roundtrip (TL005), and — under --deep —
      the FCA lattice postconditions (TL006). --domain compressed runs
      TL001–TL003 directly on the NLR terms without expansion (same
      verdicts, no event spans). --filter probes that filter's classes
      for TL004 (bad custom patterns become diagnostics, not argument
      errors); without it the Table I presets are audited. --gate deny
      exits 3 when any error-severity diagnostic fires.

  difftrace hbcheck <file.dtts>... [--format text|json] [--gate warn|deny]
          [--domain expanded|compressed] [--threads N] [--profile] [--metrics FILE]
      Happens-before analysis of recorded runs: wait-for-graph deadlock
      cycles (HB001), operations blocked on finished peers (HB002),
      unmatched sends (HB003), racy channels — concurrent sends to one
      receiver slot (HB004), and least-progressed-rank hang triage
      (HB005). Needs traces recorded with a happens-before section
      (`difftrace demo` writes one). --domain compressed computes the
      per-rank progress summaries on the NLR terms without expansion
      (same verdicts, property-tested). --gate deny exits 3 when any
      error-severity diagnostic fires.

  difftrace racecheck <file.dtts>... [--format text|json] [--gate warn|deny]
          [--domain expanded|compressed] [--threads N] [--profile] [--metrics FILE]
      Shared-memory data-race detection over the `omp_*@` marker
      vocabulary: write-write races (RC001), read-write races (RC002),
      lock-order inversions — potential deadlocks (RC003), and
      inconsistently protected variables à la Eraser (RC004), using a
      barrier-phase + lockset abstraction that is independent of the
      recorded interleaving. --domain compressed folds per-term access
      summaries over the NLR loop structure without expansion — flat in
      loop repetition count (same reports byte for byte,
      property-tested). Trace sets without race markers are trivially
      clean. --gate deny exits 3 when any error-severity diagnostic
      fires.

  difftrace reqcheck <file.dtts>... [--format text|json] [--gate warn|deny]
          [--domain expanded|compressed] [--threads N] [--profile] [--metrics FILE]
      MPI request-lifecycle and collective-consistency analysis over
      the request marker vocabulary: leaked nonblocking requests
      (RQ001), waits without a matching post (RQ002), collective
      signature mismatches across ranks (RQ003), collective order
      divergence (RQ004), and request activity after MPI_Finalize
      (RQ005, warning). Runs record the vocabulary when request
      tracking is on (`difftrace demo isend-leak` / `coll-args` do).
      --domain compressed folds per-trace request summaries over the
      NLR loop structure without expansion — flat in loop repetition
      count (same reports byte for byte, property-tested). Trace sets
      without request markers are trivially clean. --gate deny exits 3
      when any error-severity diagnostic fires.

  difftrace diff <normal.dtts> <faulty.dtts>
          [--filter CODE] [--attrs CODE] [--linkage NAME] [--diffnlr P.T]
          [--threads N] [--full] [--gate off|warn|deny] [--hb off|warn|deny]
          [--race off|warn|deny] [--req off|warn|deny] [--cache DIR]
          [--profile] [--metrics FILE]
      One DiffTrace iteration: suspects, B-score, optional diffNLR view.
      --full prints the complete report (heatmaps, dendrograms,
      lattice summary, top diffNLRs).
      --threads 0 (default) parallelizes the iteration across all
      cores; --threads 1 forces the sequential path. The output is
      byte-identical either way.
      --gate runs the tracelint pre-pass first: warn reports findings
      and continues, deny refuses to diff broken traces (exit code 3).
      --hb runs the hbcheck pre-pass over the runs' happens-before
      logs: warn attaches the reports and annotates diffNLR views of
      deadlocked ranks with their wait-for cycle, deny refuses to diff
      a deadlocked/racy run (exit code 3).
      --race runs the racecheck pre-pass (no happens-before log
      needed): warn attaches the race reports, deny refuses to diff a
      run with data races or lock-order inversions (exit code 3).
      --req runs the reqcheck pre-pass: warn attaches the request-
      lifecycle reports, deny refuses to diff a run with leaked
      requests or inconsistent collectives (exit code 3).
      Defaults: --filter 11.all.K10 --attrs sing.actual --linkage ward
      --gate off --hb off --race off --req off.

  difftrace fleet <run.dtts|dir>... [--suspect RUN]
          [--filter CODE] [--attrs CODE] [--linkage NAME] [--threads N]
          [--format text|json] [--gate off|warn|deny] [--cache DIR]
          [--profile] [--metrics FILE]
      N-way corpus analysis WITHOUT a blessed reference: fold every
      run's mined attribute sets into ONE concept lattice (each new
      run arrives as an incremental Godin fold — the lattice is never
      rebuilt), maintain the cross-run JSM view incrementally, and
      rank which run (and which trace within it) deviates most from
      the fleet consensus. A run is flagged as THE outlier when its
      deviation exceeds 2 × the fleet median. Each positional is a
      .dtts file or a directory (expanded to its *.dtts, sorted);
      run names are file stems and must be unique. Ingestion order
      does not matter: any fold order yields byte-identical rankings.
      --suspect RUN additionally reports where that run ranked.
      --gate deny exits 3 when the fleet has an outlier (healthy
      fleets exit 0), so CI can gate on fleet homogeneity. A ragged
      fleet (runs covering different trace sets) is a diagnosed
      error naming the offending run and trace ids — exit 2.

  difftrace single <run.dtts> [--filter CODE] [--attrs CODE] [--k N]
          [--trace P.T] [--cache DIR] [--profile] [--metrics FILE]
      No-reference outlier analysis of ONE execution (the paper's
      §II-A mode): cluster traces, report the smallest clusters as
      outliers. --k 0 (default) picks the granularity automatically.
      --trace P.T restricts the analysis to one trace, decoded through
      the store's offset index without touching the rest of the file
      (lint takes the same flag).

  difftrace serve <file.dtts>... [--addr HOST:PORT] [--jobs N] [--cache DIR]
      Persistent analysis daemon. Each file becomes a named corpus
      (its file stem), opened ONCE behind the v3 offset index — no
      trace is decoded until a query touches it, and decoded traces
      stay cached across requests, as do intermediate analysis results
      in the shared cache. Queries arrive as line-delimited JSON over
      TCP (one request object per line, `id` echoed in the reply) and
      run on a bounded worker pool (--jobs 0 = all cores). Supported
      query cmds: lint hbcheck racecheck reqcheck diff fleet single
      metrics shutdown. Every reply's `output` is byte-identical to the
      one-shot subcommand's stdout for the same query, at any worker
      count. Default --addr 127.0.0.1:4178 (`:0` picks a free port;
      the chosen address is printed). Malformed frames get diagnosed
      `ok:false` replies; they never crash the daemon.

  difftrace query <HOST:PORT> <cmd> [<corpus> | <normal> <faulty> | <run>...]
          [--format text|json] [--gate warn|deny] [--domain expanded|compressed]
          [--deep] [--filter CODE] [--attrs CODE] [--linkage NAME] [--k N]
          [--threads N] [--trace P.T] [--diffnlr P.T] [--suspect RUN] [--full]
      One-shot client for a running `difftrace serve`: sends <cmd>
      against the named corpus (two names for diff: normal faulty;
      two or more for fleet; none for metrics/shutdown) and prints
      the reply's output — byte-identical to running the subcommand
      locally. --gate deny exits 3 when the reply carries
      error-severity diagnostics; a refused or failed query exits 2
      with the daemon's diagnosis.

  difftrace export <normal.dtts> <faulty.dtts> <outdir>
          [--filter CODE] [--attrs CODE] [--linkage NAME] [--threads N]
          [--cache DIR]
      Write analysis artifacts for external tools: concept lattices and
      dendrograms as Graphviz DOT, formal contexts and JSMs as CSV, and
      the full text report.

  difftrace sweep <normal.dtts> <faulty.dtts>
          [--filter CODE]... [--attrs CODE]... [--linkage NAME] [--jobs N]
          [--cache DIR] [--profile] [--metrics FILE]
      Ranking table over a parameter grid (default: the 11.all/01.all ×
      Table V grid), computed in parallel (--jobs 0 = all cores).
      Repeated --filter/--attrs values are deduplicated: each distinct
      (filter, attrs) combination runs exactly once.

  difftrace cache stats <DIR>
      Entry counts and total size of an analysis cache directory.

  difftrace cache clear <DIR>
      Delete every cache entry in DIR (the directory itself stays).

  difftrace baseline record <run.dtts> <out.dtb>
          [--filter CODE] [--attrs CODE] [--threads N] [--cache DIR]
          [--force] [--profile] [--metrics FILE]
      Snapshot a blessed run into a sealed baseline bundle: per-trace
      NLR content fingerprints (the same dt-cache content keys the
      analysis cache uses), the single-run JSM ranking and cluster
      structure, and the tracelint/hbcheck findings. Re-recording an
      unchanged corpus reproduces the bundle byte for byte. Refuses
      to overwrite an existing bundle unless --force is given.

  difftrace baseline check <run.dtts> <baseline.dtb>
          [--policy FILE] [--format text|json] [--threads N]
          [--cache DIR] [--profile] [--metrics FILE]
      Re-analyze a candidate run under the baseline's recorded
      parameters and judge the divergence under a policy: new/removed
      traces, changed fingerprints, ranking shifts beyond the allowed
      budget, and required-clean tracelint/hbcheck codes. Prints an
      assertion report with one entry per policy clause and exits 3
      when any clause fails. Without --policy the strict default
      applies: nothing tolerated, zero ranking shift, every TL/HB
      code required clean, fixed trace population. A corrupt or
      truncated bundle is an ordinary error (exit 2) naming the file.

  difftrace baseline check --dir RUNS --out OUTDIR <baseline.dtb>
          [--policy FILE] [--threads N] [--cache DIR]
          [--profile] [--metrics FILE]
      Check every RUNS/*.dtts against the baseline through one shared
      analysis cache; write OUTDIR/index.json plus one JSON assertion
      report per run (all with stable content hashes), and exit 3 if
      any run fails.

CACHING (single, diff, export, sweep, baseline):
  --cache DIR      memoize content-addressed analysis results — per-
                   trace NLR folds and mined attribute sets — in DIR
                   (created if absent). Grid cells sharing a filter
                   reuse each other's folds within one sweep, and later
                   invocations over unchanged traces hit from disk.
                   Entries are keyed by a stable digest of trace
                   content + parameters and stamped with the cache
                   format version; corrupted, truncated, or stale
                   entries are silently re-derived. The cache is
                   observational: output is byte-identical with or
                   without it, at any thread count.

PROFILING (lint, hbcheck, racecheck, reqcheck, diff, single, export, sweep,
           baseline):
  --profile        print a per-stage wall-time and counter table to
                   stderr after the run, including per-worker busy
                   times for the parallel stages.
  --metrics FILE   write the same data as one machine-readable JSON
                   document (schema `difftrace-metrics/v1`, see
                   DESIGN.md). One document per invocation.
  Instrumentation is observational only: the analysis output on stdout
  is byte-identical with or without it, at any thread count.

CODES:
  filter   <r><p>.<class>*.K<k>  e.g. 11.mpiall.K10, 01.mem.ompcrit.K10,
           classes: all mpiall mpicol mpisr mpiint omp ompcrit mem net poll str
           cust:<regex>
  attrs    sing|doub|ctxt . actual|log10|noFreq
  linkage  single complete average weighted centroid median ward

EXIT CODES:
  0  success
  2  error (bad arguments, unreadable input, corrupt baseline bundle, …)
  3  gate denied: `--gate deny` / `--hb deny` / `--race deny` /
     `--req deny` found error-severity diagnostics, or `baseline
     check` failed a policy clause
";

pub fn dispatch(args: &[String]) -> Result<(), CliError> {
    if let Some(c) = args.first().and_then(|cmd| checker(cmd)) {
        return check_cmd(c, &args[1..]);
    }
    match args.first().map(|s| s.as_str()) {
        None | Some("help") | Some("--help") | Some("-h") => {
            print!("{HELP}");
            Ok(())
        }
        Some("demo") => demo(&args[1..]).map_err(CliError::Msg),
        Some("info") => info(&args[1..]).map_err(CliError::Msg),
        Some("filters") => filters(&args[1..]).map_err(CliError::Msg),
        Some("single") => single(&args[1..]).map_err(CliError::Msg),
        Some("export") => export(&args[1..]).map_err(CliError::Msg),
        Some("diff") => diff_cmd(&args[1..]),
        Some("fleet") => fleet_cmd(&args[1..]),
        Some("serve") => serve_cmd(&args[1..]).map_err(CliError::Msg),
        Some("query") => query_cmd(&args[1..]),
        Some("sweep") => sweep_cmd(&args[1..]).map_err(CliError::Msg),
        Some("cache") => cache_cmd(&args[1..]).map_err(CliError::Msg),
        Some("baseline") => baseline_cmd(&args[1..]),
        Some(other) => Err(CliError::Msg(format!(
            "unknown command `{other}` (try `difftrace help`)"
        ))),
    }
}

fn demo(args: &[String]) -> Result<(), String> {
    let mut seen = Seen::new("demo");
    let mut force = false;
    let mut positional = Vec::new();
    for a in args {
        match a.as_str() {
            "--force" => {
                seen.check("--force")?;
                force = true;
            }
            other if other.starts_with("--") => return Err(unknown_option(other, "demo")),
            other => positional.push(other.to_string()),
        }
    }
    let [workload, outdir] = positional.as_slice() else {
        return Err(usage_of("demo"));
    };
    if matches!(workload.as_str(), "fleet-oddeven" | "fleet-stencil") {
        return demo_fleet(workload, outdir, force);
    }
    let out = PathBuf::from(outdir);
    let np = out.join("normal.dtts");
    let fp = out.join("faulty.dtts");
    if !force {
        let existing: Vec<String> = [&np, &fp]
            .into_iter()
            .filter(|p| p.exists())
            .map(|p| p.display().to_string())
            .collect();
        if !existing.is_empty() {
            return Err(format!(
                "refusing to overwrite {} (pass --force to replace the pair)",
                existing.join(" and ")
            ));
        }
    }
    let registry = Arc::new(FunctionRegistry::new());
    let ((normal, normal_hb), (faulty, faulty_hb)) = run_demo_pair(workload, &registry)?;
    std::fs::create_dir_all(outdir).map_err(|e| format!("creating {outdir}: {e}"))?;
    store::save_full(&normal, &normal_hb, &np).map_err(|e| e.to_string())?;
    store::save_full(&faulty, &faulty_hb, &fp).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} traces) and {} ({} traces)",
        np.display(),
        normal.len(),
        fp.display(),
        faulty.len()
    );
    Ok(())
}

/// `demo fleet-*`: write an N-run corpus — healthy runs plus one
/// injected fault, each under its run name — instead of the
/// normal/faulty pair the other workloads produce.
fn demo_fleet(workload: &str, outdir: &str, force: bool) -> Result<(), String> {
    const HEALTHY: usize = 8;
    let fleet = match workload {
        "fleet-oddeven" => workloads::oddeven_fleet(HEALTHY),
        "fleet-stencil" => workloads::stencil_fleet(HEALTHY),
        _ => unreachable!("caller matched the fleet workloads"),
    };
    let out = PathBuf::from(outdir);
    let paths: Vec<PathBuf> = fleet
        .iter()
        .map(|(name, _)| out.join(format!("{name}.dtts")))
        .collect();
    if !force {
        let existing: Vec<String> = paths
            .iter()
            .filter(|p| p.exists())
            .map(|p| p.display().to_string())
            .collect();
        if !existing.is_empty() {
            return Err(format!(
                "refusing to overwrite {} (pass --force to replace the fleet)",
                existing.join(" and ")
            ));
        }
    }
    std::fs::create_dir_all(outdir).map_err(|e| format!("creating {outdir}: {e}"))?;
    for ((_, run), path) in fleet.iter().zip(&paths) {
        store::save_full(&run.traces, &run.hb, path).map_err(|e| e.to_string())?;
    }
    println!(
        "wrote {} runs ({} traces each) to {outdir}: {}",
        fleet.len(),
        fleet[0].1.traces.len(),
        fleet
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok(())
}

/// One recorded execution: its traces plus its happens-before log.
type RecordedRun = (TraceSet, HbLog);

fn run_demo_pair(
    workload: &str,
    registry: &Arc<FunctionRegistry>,
) -> Result<(RecordedRun, RecordedRun), String> {
    use workloads::*;
    let pair = |n: RunOutcome, f: RunOutcome| Ok(((n.traces, n.hb), (f.traces, f.hb)));
    match workload {
        "oddeven" => pair(
            run_oddeven(&OddEvenConfig::paper(None), registry.clone()),
            run_oddeven(
                &OddEvenConfig::paper(Some(OddEvenConfig::swap_bug())),
                registry.clone(),
            ),
        ),
        "oddeven-dl" => pair(
            run_oddeven(&OddEvenConfig::paper(None), registry.clone()),
            run_oddeven(
                &OddEvenConfig::paper(Some(OddEvenConfig::dl_bug())),
                registry.clone(),
            ),
        ),
        "ilcs-crit" => pair(
            run_ilcs(&IlcsConfig::paper(None), registry.clone()),
            run_ilcs(
                &IlcsConfig::paper(Some(IlcsConfig::omp_crit_bug())),
                registry.clone(),
            ),
        ),
        "ilcs-size" => pair(
            run_ilcs(&IlcsConfig::paper(None), registry.clone()),
            run_ilcs(
                &IlcsConfig::paper(Some(IlcsConfig::coll_size_bug())),
                registry.clone(),
            ),
        ),
        "ilcs-op" => pair(
            run_ilcs(&IlcsConfig::paper(None), registry.clone()),
            run_ilcs(
                &IlcsConfig::paper(Some(IlcsConfig::wrong_op_bug())),
                registry.clone(),
            ),
        ),
        "lulesh" => pair(
            run_lulesh(&LuleshConfig::paper(None), registry.clone()),
            run_lulesh(
                &LuleshConfig::paper(Some(LuleshConfig::skip_bug())),
                registry.clone(),
            ),
        ),
        "stencil-tag" => pair(
            run_stencil(&StencilConfig::default_8(), registry.clone()).0,
            run_stencil(
                &StencilConfig {
                    fault: Some(StencilFault::TagMismatch { rank: 1 }),
                    ..StencilConfig::default_8()
                },
                registry.clone(),
            )
            .0,
        ),
        "lulesh-coll" => pair(
            run_lulesh(&LuleshConfig::paper(None), registry.clone()),
            run_lulesh(
                &LuleshConfig::paper(Some(LuleshFault::SkipCollective { rank: 2 })),
                registry.clone(),
            ),
        ),
        "omp-counter" => pair(
            run_omp_counter(&OmpCounterConfig::default_2x4(), registry.clone()),
            run_omp_counter(
                &OmpCounterConfig {
                    fault: Some(OmpCounterFault::Unprotected { rank: 1 }),
                    ..OmpCounterConfig::default_2x4()
                },
                registry.clone(),
            ),
        ),
        "omp-lockorder" => pair(
            run_omp_lockorder(&OmpLockOrderConfig::default_2x3(), registry.clone()),
            run_omp_lockorder(
                &OmpLockOrderConfig {
                    fault: Some(OmpLockOrderFault::Inverted { rank: 0, thread: 2 }),
                    ..OmpLockOrderConfig::default_2x3()
                },
                registry.clone(),
            ),
        ),
        "isend-leak" => pair(
            run_reqlife(&ReqLifeConfig::default_4(), registry.clone()),
            run_reqlife(
                &ReqLifeConfig {
                    fault: Some(ReqLifeFault::LeakRequest { rank: 2, iter: 1 }),
                    ..ReqLifeConfig::default_4()
                },
                registry.clone(),
            ),
        ),
        "coll-args" => pair(
            run_reqlife(&ReqLifeConfig::default_4(), registry.clone()),
            run_reqlife(
                &ReqLifeConfig {
                    fault: Some(ReqLifeFault::MismatchedCollArgs { rank: 1 }),
                    ..ReqLifeConfig::default_4()
                },
                registry.clone(),
            ),
        ),
        other => Err(format!(
            "unknown workload `{other}` (oddeven, oddeven-dl, ilcs-crit, ilcs-size, ilcs-op, \
             lulesh, stencil-tag, lulesh-coll, omp-counter, omp-lockorder, isend-leak, coll-args, \
             fleet-oddeven, fleet-stencil)"
        )),
    }
}

fn load(path: &str) -> Result<TraceSet, String> {
    store::load(Path::new(path)).map_err(|e| format!("{path}: {e}"))
}

/// Load ONE trace from a store via the v3 offset index: the rest of
/// the file's blobs are never decompressed. The store reports its
/// decode tally (`store_trace_decodes`) into `rec`, which is how the
/// laziness is asserted under `--metrics`.
fn load_one_trace(path: &str, id: TraceId, rec: &dyn Recorder) -> Result<TraceSet, String> {
    let ix = store::IndexedSet::open(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    let sub = ix.subset(&[id]).map_err(|e| format!("{path}: {e}"))?;
    ix.report_to(rec);
    Ok(sub)
}

/// Write a CLI output file through the store's temp+rename helper, so
/// no reader ever observes a partial file and a failed write leaves
/// nothing behind at the destination. Every file this tool emits —
/// metrics documents, export artifacts, baseline bundles, batch
/// reports — goes through here.
fn write_file_atomic(path: &Path, bytes: &[u8]) -> Result<(), String> {
    store::write_atomic(path, bytes).map_err(|e| match e {
        // Callers prefix their own context; keep the raw OS error so
        // the message reads like the plain `fs::write` one did.
        store::StoreError::Io(io) => io.to_string(),
        other => other.to_string(),
    })
}

/// Open the persistent analysis cache when `--cache DIR` was given.
fn open_cache(dir: Option<&PathBuf>) -> Result<Option<Arc<Cache>>, String> {
    match dir {
        None => Ok(None),
        Some(d) => Cache::with_dir(d)
            .map(|c| Some(Arc::new(c)))
            .map_err(|e| format!("opening cache {}: {e}", d.display())),
    }
}

/// Fold the cache's hit/miss/byte counters into the metrics recorder,
/// so `--profile`/`--metrics` describe the cache's contribution.
fn report_cache(cache: Option<&Arc<Cache>>, rec: &dyn Recorder) {
    if let Some(c) = cache {
        c.report_to(rec);
    }
}

fn cache_cmd(args: &[String]) -> Result<(), String> {
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(unknown_option(flag, "cache"));
    }
    let [action, dir] = args else {
        return Err(usage_of("cache"));
    };
    let path = Path::new(dir.as_str());
    match action.as_str() {
        "stats" => {
            let s = dt_cache::disk_stats(path).map_err(|e| format!("{dir}: {e}"))?;
            println!(
                "cache {dir}: {} NLR fold(s), {} attribute set(s), {} bytes",
                s.nlr_entries, s.attr_entries, s.total_bytes
            );
            Ok(())
        }
        "clear" => {
            let n = dt_cache::clear_dir(path).map_err(|e| format!("{dir}: {e}"))?;
            println!("cache {dir}: removed {n} entries");
            Ok(())
        }
        other => Err(format!(
            "unknown cache action `{other}` ({})",
            usage_of("cache")
        )),
    }
}

fn load_full(path: &str) -> Result<(TraceSet, HbLog), String> {
    store::load_full(Path::new(path)).map_err(|e| format!("{path}: {e}"))
}

fn info(args: &[String]) -> Result<(), String> {
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(unknown_option(flag, "info"));
    }
    let [path] = args else {
        return Err(usage_of("info"));
    };
    let set = load(path)?;
    let stats = TraceSetStats::measure(&set);
    println!(
        "{path}: {} traces, {} functions interned",
        set.len(),
        set.registry.len()
    );
    println!(
        "calls/process avg {:.0}   distinct fns/process avg {:.0}   compressed/thread avg {:.0} B   ratio {:.0}×",
        stats.avg_calls_per_process(),
        stats.avg_distinct_per_process(),
        stats.avg_compressed_bytes_per_thread(),
        stats.overall_ratio()
    );
    for t in &stats.per_trace {
        println!(
            "  {:>6}  events {:>8}  calls {:>8}  distinct {:>5}  compressed {:>7} B{}",
            t.id.to_string(),
            t.events,
            t.calls,
            t.distinct_functions,
            t.compression.compressed_bytes,
            if set.get(t.id).is_some_and(|tr| tr.truncated) {
                "  [truncated]"
            } else {
                ""
            }
        );
    }
    Ok(())
}

fn filters(args: &[String]) -> Result<(), String> {
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(unknown_option(flag, "filters"));
    }
    let [path] = args else {
        return Err(usage_of("filters"));
    };
    let set = load(path)?;
    println!(
        "{:<18} {:<24} {:>10} {:>8} {:>9}",
        "Filter", "code", "kept", "of", "distinct"
    );
    for (name, f) in difftrace::filter::table_i_catalog(10) {
        let c = f.coverage(&set);
        println!(
            "{:<18} {:<24} {:>10} {:>7.1}% {:>9}",
            name,
            f.to_string(),
            c.kept_events,
            100.0 * c.fraction(),
            c.distinct_kept
        );
    }
    Ok(())
}

fn single(args: &[String]) -> Result<(), String> {
    let mut seen = Seen::new("single");
    let mut path: Option<String> = None;
    let mut filter = FilterConfig::everything(10);
    let mut attrs = AttrConfig {
        kind: AttrKind::Single,
        freq: FreqMode::Actual,
    };
    let mut k = 0usize;
    let mut trace: Option<TraceId> = None;
    let mut cache_dir: Option<PathBuf> = None;
    let mut obs = ObsOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--filter" => {
                seen.check("--filter")?;
                filter = value("--filter")?.parse()?;
            }
            "--attrs" => {
                seen.check("--attrs")?;
                attrs = value("--attrs")?.parse()?;
            }
            "--k" => {
                seen.check("--k")?;
                k = value("--k")?.parse().map_err(|_| "bad --k")?;
            }
            "--trace" => {
                seen.check("--trace")?;
                trace = Some(dt_serve::render::parse_trace_id(&value("--trace")?)?);
            }
            "--cache" => {
                seen.check("--cache")?;
                cache_dir = Some(PathBuf::from(value("--cache")?));
            }
            "--profile" => {
                seen.check("--profile")?;
                obs.profile = true;
            }
            "--metrics" => {
                seen.check("--metrics")?;
                obs.metrics = Some(PathBuf::from(value("--metrics")?));
            }
            other if other.starts_with("--") => return Err(unknown_option(other, "single")),
            other => {
                if path.is_some() {
                    return Err(format!(
                        "unexpected extra argument `{other}` ({})",
                        usage_of("single")
                    ));
                }
                path = Some(other.to_string());
            }
        }
    }
    let path = path.ok_or_else(|| usage_of("single"))?;
    let cache = open_cache(cache_dir.as_ref())?;
    let live = MetricsRecorder::new();
    let rec = obs.recorder(&live);
    let set = {
        let _s = stage(rec, "load");
        match trace {
            None => load(&path)?,
            Some(id) => load_one_trace(&path, id, rec)?,
        }
    };
    let params = difftrace::Params::new(filter, attrs);
    let popts = PipelineOptions {
        cache: cache.clone(),
        ..PipelineOptions::default()
    };
    let report = difftrace::analyze_single_opts_rec(&set, &params, k, &popts, rec);
    // Shared with `difftrace serve`, whose replies must be
    // byte-identical to this stdout.
    print!("{}", dt_serve::render::single_summary(set.len(), &report));
    report_cache(cache.as_ref(), rec);
    obs.emit(&live, "single", 1)?;
    Ok(())
}

/// `difftrace <checker>`: one subcommand shape for every registered
/// checker. Flags beyond the common ones are the checker's trait data
/// (lint alone takes `--deep`, `--filter` and `--trace`).
fn check_cmd(c: &dyn AnyChecker, args: &[String]) -> Result<(), CliError> {
    let name = c.name();
    let mut seen = Seen::new(name);
    let mut paths = Vec::new();
    let mut format = "text".to_string();
    let mut gate = LintGate::Warn;
    let mut trace: Option<TraceId> = None;
    let mut opts = LintOptions::default();
    let mut obs = ObsOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--format" => {
                seen.check("--format")?;
                format = value("--format")?;
                if format != "text" && format != "json" {
                    return Err(format!("unknown format `{format}` (text|json)").into());
                }
            }
            "--gate" => {
                seen.check("--gate")?;
                gate = LintGate::parse(&value("--gate")?)?;
            }
            "--domain" => {
                seen.check("--domain")?;
                opts.domain = LintDomain::parse(&value("--domain")?)?;
            }
            "--deep" if c.lint_options() => {
                seen.check("--deep")?;
                opts.deep = true;
            }
            "--threads" => {
                seen.check("--threads")?;
                opts.threads = value("--threads")?.parse().map_err(|_| "bad --threads")?;
            }
            // Lenient on purpose: a bad custom pattern must surface as
            // a TL004 diagnostic with a byte span, not an arg error.
            "--filter" if c.lint_options() => {
                seen.check("--filter")?;
                opts.filter = Some(FilterConfig::parse_lenient(&value("--filter")?)?);
            }
            "--trace" if c.lint_options() => {
                seen.check("--trace")?;
                trace = Some(dt_serve::render::parse_trace_id(&value("--trace")?)?);
            }
            "--profile" => {
                seen.check("--profile")?;
                obs.profile = true;
            }
            "--metrics" => {
                seen.check("--metrics")?;
                obs.metrics = Some(PathBuf::from(value("--metrics")?));
            }
            other if other.starts_with("--") => return Err(unknown_option(other, name).into()),
            other => paths.push(other.to_string()),
        }
    }
    if paths.is_empty() {
        return Err(usage_of(name).into());
    }
    let live = MetricsRecorder::new();
    let (rendered, errors) = check_render(c, &paths, &format, &opts, trace, obs.recorder(&live))?;
    print!("{rendered}");
    obs.emit(&live, name, opts.threads.max(1))?;
    if gate == LintGate::Deny && errors > 0 {
        return Err(CliError::LintDenied(format!(
            "{name} gate denied: {errors} error(s) across {} file(s)",
            paths.len()
        )));
    }
    Ok(())
}

/// Render checker `c`'s reports for `paths` — split out from
/// [`check_cmd`] so tests can assert the output is byte-identical
/// across thread counts and domains. Returns the rendered output and
/// the total error count. With `trace` set, each file is opened
/// through the v3 offset index and ONLY that trace is decoded (the
/// decode tally lands in the metrics as `store_trace_decodes`).
fn check_render(
    c: &dyn AnyChecker,
    paths: &[String],
    format: &str,
    opts: &LintOptions,
    trace: Option<TraceId>,
    rec: &dyn Recorder,
) -> Result<(String, usize), String> {
    let mut out = String::new();
    let mut errors = 0;
    for path in paths {
        let (set, hb) = {
            let _s = stage(rec, "load");
            match trace {
                _ if c.needs_hb() => load_full(path)?,
                None => (load(path)?, HbLog::default()),
                Some(id) => (load_one_trace(path, id, rec)?, HbLog::default()),
            }
        };
        if c.needs_hb() && hb.world_size() == 0 {
            return Err(format!(
                "{path}: no happens-before section — re-record the run (e.g. `difftrace demo`) \
                 to get one"
            ));
        }
        let report = {
            let _s = stage(rec, c.name());
            c.check(
                &CheckInput {
                    set: &set,
                    hb: Some(&hb),
                },
                opts,
                rec,
            )
        };
        if rec.enabled() {
            rec.add("files", 1);
            rec.add("diagnostics", report.diagnostics().len() as u64);
            rec.add("errors", report.error_count() as u64);
        }
        errors += report.error_count();
        if format == "json" {
            if paths.len() == 1 {
                out.push_str(&report.render_json());
            } else {
                // One object per line, tagged with its file.
                out.push_str(&format!(
                    "{{\"path\":\"{}\",\"report\":{}}}\n",
                    path.replace('\\', "\\\\").replace('"', "\\\""),
                    report.render_json().trim_end()
                ));
            }
        } else {
            if paths.len() > 1 {
                out.push_str(&format!("== {path}\n"));
            }
            out.push_str(&report.render_text());
        }
    }
    Ok((out, errors))
}

struct DiffOpts {
    normal: String,
    faulty: String,
    filters: Vec<FilterConfig>,
    attrs: Vec<AttrConfig>,
    linkage: cluster::Method,
    diffnlr: Option<TraceId>,
    jobs: usize,
    threads: usize,
    full: bool,
    /// The checker gates (`--gate`, `--hb`, `--race`, `--req`); the
    /// pipeline's other options are filled in by the caller.
    gates: PipelineOptions,
    cache: Option<PathBuf>,
    obs: ObsOpts,
}

fn parse_opts(args: &[String], cmd: &str) -> Result<DiffOpts, String> {
    let mut seen = Seen::new(cmd);
    // Only sweep's grid axes are repeatable; everywhere else a repeated
    // flag is a mistake, not a list.
    let repeatable_axes = cmd == "sweep";
    let mut positional = Vec::new();
    let mut filters = Vec::new();
    let mut attrs = Vec::new();
    let mut linkage = cluster::Method::Ward;
    let mut diffnlr = None;
    let mut jobs = 0usize;
    let mut threads = 0usize;
    let mut full = false;
    let mut gates = PipelineOptions::default();
    let mut cache = None;
    let mut obs = ObsOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        if let Some(c) = CHECKERS.iter().find(|c| c.diff_flag() == a) {
            seen.check(c.diff_flag())?;
            *c.gate_mut(&mut gates) = LintGate::parse(&value(c.diff_flag())?)?;
            continue;
        }
        match a.as_str() {
            "--filter" => {
                if !repeatable_axes {
                    seen.check("--filter")?;
                }
                filters.push(value("--filter")?.parse::<FilterConfig>()?);
            }
            "--attrs" => {
                if !repeatable_axes {
                    seen.check("--attrs")?;
                }
                attrs.push(value("--attrs")?.parse::<AttrConfig>()?);
            }
            "--linkage" => {
                seen.check("--linkage")?;
                let name = value("--linkage")?;
                linkage = cluster::Method::ALL
                    .into_iter()
                    .find(|m| m.name() == name)
                    .ok_or_else(|| format!("unknown linkage `{name}`"))?;
            }
            "--diffnlr" => {
                seen.check("--diffnlr")?;
                let spec = value("--diffnlr")?;
                let (p, t) = spec
                    .split_once('.')
                    .ok_or_else(|| format!("--diffnlr wants P.T, got `{spec}`"))?;
                diffnlr = Some(TraceId::new(
                    p.parse().map_err(|_| "bad process id")?,
                    t.parse().map_err(|_| "bad thread id")?,
                ));
            }
            "--jobs" => {
                seen.check("--jobs")?;
                jobs = value("--jobs")?.parse().map_err(|_| "bad --jobs")?;
            }
            "--threads" => {
                seen.check("--threads")?;
                threads = value("--threads")?.parse().map_err(|_| "bad --threads")?;
            }
            "--full" => {
                seen.check("--full")?;
                full = true;
            }
            "--cache" => {
                seen.check("--cache")?;
                cache = Some(PathBuf::from(value("--cache")?));
            }
            "--profile" => {
                seen.check("--profile")?;
                obs.profile = true;
            }
            "--metrics" => {
                seen.check("--metrics")?;
                obs.metrics = Some(PathBuf::from(value("--metrics")?));
            }
            other if other.starts_with("--") => return Err(unknown_option(other, cmd)),
            other => positional.push(other.to_string()),
        }
    }
    let [normal, faulty] = positional.as_slice() else {
        return Err(usage_of(cmd));
    };
    Ok(DiffOpts {
        normal: normal.clone(),
        faulty: faulty.clone(),
        filters,
        attrs,
        linkage,
        diffnlr,
        jobs,
        threads,
        full,
        gates,
        cache,
        obs,
    })
}

fn diff_cmd(args: &[String]) -> Result<(), CliError> {
    let opts = parse_opts(args, "diff")?;
    let cache = open_cache(opts.cache.as_ref())?;
    let live = MetricsRecorder::new();
    let rec = opts.obs.recorder(&live);
    let (normal, normal_hb) = {
        let _s = stage(rec, "load");
        load_full(&opts.normal)?
    };
    let (faulty, faulty_hb) = {
        let _s = stage(rec, "load");
        load_full(&opts.faulty)?
    };
    let filter = opts
        .filters
        .into_iter()
        .next()
        .unwrap_or_else(|| FilterConfig::everything(10));
    let attrs = opts.attrs.into_iter().next().unwrap_or(AttrConfig {
        kind: AttrKind::Single,
        freq: FreqMode::Actual,
    });
    let params = Params {
        filter,
        attrs,
        linkage: opts.linkage,
    };
    let have_logs = normal_hb.world_size() > 0 && faulty_hb.world_size() > 0;
    for c in CHECKERS.iter().filter(|c| c.needs_hb() && !have_logs) {
        if c.gate(&opts.gates) != LintGate::Off {
            eprintln!(
                "note: {} ignored — the inputs carry no happens-before section",
                c.diff_flag()
            );
        }
    }
    let popts = PipelineOptions {
        threads: opts.threads,
        cache: cache.clone(),
        ..opts.gates
    };
    let hb_logs = have_logs.then_some((&normal_hb, &faulty_hb));
    let d = match try_diff_runs(&normal, &faulty, hb_logs, &params, &popts, rec) {
        Ok(d) => d,
        Err(denied) => {
            eprint!("{}", denied.render_reports());
            // The metrics still describe the work that ran (load + the
            // pre-pass that denied).
            opts.obs.emit(&live, "diff", opts.threads)?;
            return Err(CliError::LintDenied(denied.to_string()));
        }
    };
    report_cache(cache.as_ref(), rec);
    for c in CHECKERS {
        eprint!("{}", c.findings(&d));
    }
    if opts.full {
        print!(
            "{}",
            difftrace::generate_report(&d, &difftrace::ReportOptions::default())
        );
        opts.obs.emit(&live, "diff", opts.threads)?;
        return Ok(());
    }
    // Shared with `difftrace serve`, whose replies must be
    // byte-identical to this stdout.
    print!(
        "{}",
        dt_serve::render::diff_summary(&d, &params, opts.diffnlr)
    );
    opts.obs.emit(&live, "diff", opts.threads)?;
    Ok(())
}

/// Derive unique corpus/run names from file stems. A collision
/// (`a/run.dtts b/run.dtts`) is a diagnosed error naming BOTH paths —
/// silently keeping one would make queries against the name ambiguous.
fn named_by_stem(files: &[String]) -> Result<Vec<(String, PathBuf)>, String> {
    let mut named: Vec<(String, PathBuf)> = Vec::new();
    for f in files {
        let p = PathBuf::from(f);
        let stem = p
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .ok_or_else(|| format!("{f}: cannot derive a corpus name from this path"))?;
        if let Some((_, prev)) = named.iter().find(|(n, _)| *n == stem) {
            return Err(format!(
                "corpus name `{stem}` is ambiguous: {} and {} share a file stem \
                 (rename one of the files)",
                prev.display(),
                p.display()
            ));
        }
        named.push((stem, p));
    }
    Ok(named)
}

/// Expand `fleet` positionals: a directory contributes its `*.dtts`
/// stores in name order, anything else is taken as a store path.
fn expand_fleet_paths(positional: &[String]) -> Result<Vec<String>, String> {
    let mut files = Vec::new();
    for arg in positional {
        let path = Path::new(arg);
        if path.is_dir() {
            let mut found: Vec<String> = std::fs::read_dir(path)
                .map_err(|e| format!("{arg}: {e}"))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "dtts"))
                .map(|p| p.display().to_string())
                .collect();
            if found.is_empty() {
                return Err(format!("{arg}: directory holds no .dtts stores"));
            }
            found.sort();
            files.extend(found);
        } else {
            files.push(arg.clone());
        }
    }
    Ok(files)
}

fn fleet_cmd(args: &[String]) -> Result<(), CliError> {
    let mut seen = Seen::new("fleet");
    let mut positional = Vec::new();
    let mut suspect: Option<String> = None;
    let mut filter: Option<FilterConfig> = None;
    let mut attrs: Option<AttrConfig> = None;
    let mut linkage = cluster::Method::Ward;
    let mut threads = 0usize;
    let mut format = "text".to_string();
    let mut gate = LintGate::Off;
    let mut cache_dir: Option<PathBuf> = None;
    let mut obs = ObsOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--suspect" => {
                seen.check("--suspect")?;
                suspect = Some(value("--suspect")?);
            }
            "--filter" => {
                seen.check("--filter")?;
                filter = Some(value("--filter")?.parse::<FilterConfig>()?);
            }
            "--attrs" => {
                seen.check("--attrs")?;
                attrs = Some(value("--attrs")?.parse::<AttrConfig>()?);
            }
            "--linkage" => {
                seen.check("--linkage")?;
                let name = value("--linkage")?;
                linkage = cluster::Method::ALL
                    .into_iter()
                    .find(|m| m.name() == name)
                    .ok_or_else(|| format!("unknown linkage `{name}`"))?;
            }
            "--threads" => {
                seen.check("--threads")?;
                threads = value("--threads")?.parse().map_err(|_| "bad --threads")?;
            }
            "--format" => {
                seen.check("--format")?;
                format = value("--format")?;
            }
            "--gate" => {
                seen.check("--gate")?;
                gate = LintGate::parse(&value("--gate")?)?;
            }
            "--cache" => {
                seen.check("--cache")?;
                cache_dir = Some(PathBuf::from(value("--cache")?));
            }
            "--profile" => {
                seen.check("--profile")?;
                obs.profile = true;
            }
            "--metrics" => {
                seen.check("--metrics")?;
                obs.metrics = Some(PathBuf::from(value("--metrics")?));
            }
            other if other.starts_with("--") => return Err(unknown_option(other, "fleet").into()),
            other => positional.push(other.to_string()),
        }
    }
    if positional.is_empty() {
        return Err(usage_of("fleet").into());
    }
    let files = expand_fleet_paths(&positional)?;
    if files.len() < 2 {
        return Err(format!(
            "fleet needs at least 2 runs, got {} ({})",
            files.len(),
            usage_of("fleet")
        )
        .into());
    }
    let named = named_by_stem(&files)?;
    let cache = open_cache(cache_dir.as_ref())?;
    let live = MetricsRecorder::new();
    let rec = obs.recorder(&live);
    let params = Params {
        filter: filter.unwrap_or_else(|| FilterConfig::everything(10)),
        attrs: attrs.unwrap_or(AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::Actual,
        }),
        linkage,
    };
    let opts = difftrace::FleetOptions {
        threads,
        cache: cache.clone(),
    };
    let mut fleet = difftrace::FleetRun::new(params.clone());
    for (name, path) in &named {
        let set = {
            let _s = stage(rec, "load");
            load(&path.display().to_string())?
        };
        fleet
            .add_run_rec(name, &set, &opts, rec)
            .map_err(|e| e.to_string())?;
    }
    report_cache(cache.as_ref(), rec);
    let report = fleet.report();
    // Shared with `difftrace serve`, whose `fleet` replies must be
    // byte-identical to this stdout.
    let out = dt_serve::render::fleet_summary(&report, &params, suspect.as_deref(), &format)?;
    print!("{out}");
    obs.emit(&live, "fleet", threads)?;
    if gate == LintGate::Deny {
        if let Some(name) = &report.outlier {
            return Err(CliError::LintDenied(format!(
                "fleet gate denied: run `{name}` deviates from the fleet consensus"
            )));
        }
    }
    Ok(())
}

fn serve_cmd(args: &[String]) -> Result<(), String> {
    let mut seen = Seen::new("serve");
    let mut files = Vec::new();
    let mut addr = "127.0.0.1:4178".to_string();
    let mut jobs = 0usize;
    let mut cache_dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--addr" => {
                seen.check("--addr")?;
                addr = value("--addr")?;
            }
            "--jobs" => {
                seen.check("--jobs")?;
                jobs = value("--jobs")?.parse().map_err(|_| "bad --jobs")?;
            }
            "--cache" => {
                seen.check("--cache")?;
                cache_dir = Some(PathBuf::from(value("--cache")?));
            }
            other if other.starts_with("--") => return Err(unknown_option(other, "serve")),
            other => files.push(other.to_string()),
        }
    }
    if files.is_empty() {
        return Err(usage_of("serve"));
    }
    let corpora = named_by_stem(&files)?;
    let server = dt_serve::Server::bind(&dt_serve::ServeConfig {
        addr,
        corpora,
        jobs,
        cache_dir,
    })?;
    println!(
        "listening on {} ({} corpora: {}; {} workers)",
        server.local_addr(),
        server.corpus_names().len(),
        server.corpus_names().join(", "),
        server.workers()
    );
    // Smoke scripts wait for the line above through a pipe; flush past
    // the block buffering a non-tty stdout gets.
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    server.run()
}

fn query_cmd(args: &[String]) -> Result<(), CliError> {
    let mut seen = Seen::new("query");
    let mut positional = Vec::new();
    let mut gate = LintGate::Warn;
    let mut req = dt_serve::Request {
        id: 1,
        ..dt_serve::Request::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--format" => {
                seen.check("--format")?;
                req.format = Some(value("--format")?);
            }
            "--gate" => {
                seen.check("--gate")?;
                gate = LintGate::parse(&value("--gate")?)?;
            }
            "--domain" => {
                seen.check("--domain")?;
                req.domain = Some(value("--domain")?);
            }
            "--deep" => {
                seen.check("--deep")?;
                req.deep = true;
            }
            "--filter" => {
                seen.check("--filter")?;
                req.filter = Some(value("--filter")?);
            }
            "--attrs" => {
                seen.check("--attrs")?;
                req.attrs = Some(value("--attrs")?);
            }
            "--linkage" => {
                seen.check("--linkage")?;
                req.linkage = Some(value("--linkage")?);
            }
            "--k" => {
                seen.check("--k")?;
                req.k = Some(value("--k")?.parse().map_err(|_| "bad --k")?);
            }
            "--threads" => {
                seen.check("--threads")?;
                req.threads = Some(value("--threads")?.parse().map_err(|_| "bad --threads")?);
            }
            "--trace" => {
                seen.check("--trace")?;
                req.trace = Some(value("--trace")?);
            }
            "--diffnlr" => {
                seen.check("--diffnlr")?;
                req.diffnlr = Some(value("--diffnlr")?);
            }
            "--suspect" => {
                seen.check("--suspect")?;
                req.suspect = Some(value("--suspect")?);
            }
            "--full" => {
                seen.check("--full")?;
                req.full = true;
            }
            other if other.starts_with("--") => return Err(unknown_option(other, "query").into()),
            other => positional.push(other.to_string()),
        }
    }
    let (addr, cmd, rest) = match positional.as_slice() {
        [addr, cmd, rest @ ..] => (addr.clone(), cmd.clone(), rest.to_vec()),
        _ => return Err(usage_of("query").into()),
    };
    req.cmd = cmd.clone();
    match (cmd.as_str(), rest.as_slice()) {
        ("metrics" | "shutdown", []) => {}
        ("diff", [normal, faulty]) => {
            req.normal = Some(normal.clone());
            req.faulty = Some(faulty.clone());
        }
        ("fleet", runs @ [_, _, ..]) => {
            req.corpora = runs.to_vec();
        }
        (name, [corpus]) if name == "single" || checker(name).is_some() => {
            req.corpus = Some(corpus.clone());
        }
        _ => {
            return Err(format!(
                "wrong arguments for query cmd `{cmd}` ({})",
                usage_of("query")
            )
            .into())
        }
    }
    let mut stream =
        std::net::TcpStream::connect(&addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    {
        use std::io::Write as _;
        writeln!(stream, "{}", dt_serve::request_line(&req))
            .and_then(|()| stream.flush())
            .map_err(|e| format!("sending query to {addr}: {e}"))?;
    }
    let mut reply = String::new();
    {
        use std::io::BufRead as _;
        let mut reader = std::io::BufReader::new(&stream);
        reader
            .read_line(&mut reply)
            .map_err(|e| format!("reading reply from {addr}: {e}"))?;
    }
    if reply.is_empty() {
        return Err(format!("{addr}: connection closed before a reply arrived").into());
    }
    let resp = dt_serve::parse_response(reply.trim_end())?;
    if !resp.ok {
        return Err(CliError::Msg(resp.error));
    }
    print!("{}", resp.output);
    if gate == LintGate::Deny && resp.errors > 0 {
        return Err(CliError::LintDenied(format!(
            "query gate denied: {} error(s) from `{cmd}`",
            resp.errors
        )));
    }
    Ok(())
}

fn export(args: &[String]) -> Result<(), String> {
    let mut rest = Vec::new();
    let mut outdir = None;
    // Reuse the diff option parser by peeling off the third positional.
    let mut positional_seen = 0;
    for a in args {
        if !a.starts_with("--") && positional_seen == 2 && outdir.is_none() {
            outdir = Some(a.clone());
            continue;
        }
        if !a.starts_with("--")
            && rest
                .iter()
                .filter(|x: &&String| !x.starts_with("--"))
                .count()
                < 2
        {
            positional_seen += 1;
        }
        rest.push(a.clone());
    }
    let outdir = outdir.ok_or_else(|| usage_of("export"))?;
    let opts = parse_opts(&rest, "export")?;
    let cache = open_cache(opts.cache.as_ref())?;
    let live = MetricsRecorder::new();
    let rec = opts.obs.recorder(&live);
    let normal = {
        let _s = stage(rec, "load");
        load(&opts.normal)?
    };
    let faulty = {
        let _s = stage(rec, "load");
        load(&opts.faulty)?
    };
    let params = difftrace::Params {
        filter: opts
            .filters
            .into_iter()
            .next()
            .unwrap_or_else(|| FilterConfig::everything(10)),
        attrs: opts.attrs.into_iter().next().unwrap_or(AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::Actual,
        }),
        linkage: opts.linkage,
    };
    // Gates stay off for export (as before); with them off the
    // pipeline cannot deny.
    let Ok(d) = try_diff_runs(
        &normal,
        &faulty,
        None,
        &params,
        &PipelineOptions {
            cache: cache.clone(),
            ..PipelineOptions::with_threads(opts.threads)
        },
        rec,
    ) else {
        unreachable!("gates are off");
    };
    report_cache(cache.as_ref(), rec);
    let dir = PathBuf::from(&outdir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {outdir}: {e}"))?;
    let write = |name: &str, content: String| -> Result<(), String> {
        write_file_atomic(&dir.join(name), content.as_bytes()).map_err(|e| format!("{name}: {e}"))
    };
    for (tag, run) in [("normal", &d.normal), ("faulty", &d.faulty)] {
        write(
            &format!("{tag}.lattice.dot"),
            run.lattice.to_dot(&run.context),
        )?;
        let ids = run.ids.clone();
        write(
            &format!("{tag}.dendrogram.dot"),
            cluster::dendrogram_to_dot(&run.dendrogram, &|i| ids[i].to_string()),
        )?;
        write(&format!("{tag}.context.csv"), run.context.to_csv())?;
        write(&format!("{tag}.jsm.csv"), run.jsm.to_csv())?;
    }
    write("jsm_d.csv", d.jsm_d.to_csv())?;
    write(
        "report.txt",
        difftrace::generate_report(&d, &difftrace::ReportOptions::default()),
    )?;
    println!("wrote 10 artifacts to {outdir}");
    opts.obs.emit(&live, "export", opts.threads)?;
    Ok(())
}

fn sweep_cmd(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args, "sweep")?;
    let cache = open_cache(opts.cache.as_ref())?;
    let live = MetricsRecorder::new();
    let rec = opts.obs.recorder(&live);
    let normal = {
        let _s = stage(rec, "load");
        load(&opts.normal)?
    };
    let faulty = {
        let _s = stage(rec, "load");
        load(&opts.faulty)?
    };
    let filters = if opts.filters.is_empty() {
        vec![
            FilterConfig::everything(10),
            FilterConfig {
                drop_returns: false,
                ..FilterConfig::everything(10)
            },
        ]
    } else {
        opts.filters
    };
    let attrs = if opts.attrs.is_empty() {
        AttrConfig::ALL.to_vec()
    } else {
        opts.attrs
    };
    let rows = sweep_parallel_cached_rec(
        &normal,
        &faulty,
        &filters,
        &attrs,
        opts.linkage,
        opts.jobs,
        cache.clone(),
        rec,
    );
    print!("{}", render_ranking(&rows));
    report_cache(cache.as_ref(), rec);
    opts.obs.emit(&live, "sweep", opts.jobs)?;
    Ok(())
}

fn baseline_cmd(args: &[String]) -> Result<(), CliError> {
    match args.first().map(|s| s.as_str()) {
        Some("record") => baseline_record(&args[1..]).map_err(CliError::Msg),
        Some("check") => baseline_check(&args[1..]),
        Some(other) => Err(CliError::Msg(format!(
            "unknown baseline action `{other}` ({})",
            usage_of("baseline")
        ))),
        None => Err(CliError::Msg(usage_of("baseline"))),
    }
}

/// Read and decode a baseline bundle; every failure (unreadable,
/// truncated, corrupt, version skew) names the file and stays an
/// ordinary exit-2 error.
fn load_baseline(path: &str) -> Result<Baseline, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    Baseline::decode(&bytes).map_err(|e| format!("{path}: {e}"))
}

/// Reconstruct the analysis parameters a baseline was recorded under.
fn baseline_params(b: &Baseline) -> Result<Params, String> {
    let filter: FilterConfig = b
        .filter
        .parse()
        .map_err(|e| format!("baseline filter code `{}`: {e}", b.filter))?;
    let attrs: AttrConfig = b
        .attrs
        .parse()
        .map_err(|e| format!("baseline attribute code `{}`: {e}", b.attrs))?;
    Ok(Params::new(filter, attrs))
}

/// Load `--policy FILE`, or the strict default without one.
fn load_policy(path: Option<&PathBuf>) -> Result<Policy, String> {
    match path {
        None => Ok(Policy::default()),
        Some(p) => {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            Policy::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
        }
    }
}

fn baseline_record(args: &[String]) -> Result<(), String> {
    let mut seen = Seen::new("baseline record");
    let mut positional = Vec::new();
    let mut filter = FilterConfig::everything(10);
    let mut attrs = AttrConfig {
        kind: AttrKind::Single,
        freq: FreqMode::Actual,
    };
    let mut threads = 0usize;
    let mut cache_dir: Option<PathBuf> = None;
    let mut force = false;
    let mut obs = ObsOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--filter" => {
                seen.check("--filter")?;
                filter = value("--filter")?.parse()?;
            }
            "--attrs" => {
                seen.check("--attrs")?;
                attrs = value("--attrs")?.parse()?;
            }
            "--threads" => {
                seen.check("--threads")?;
                threads = value("--threads")?.parse().map_err(|_| "bad --threads")?;
            }
            "--cache" => {
                seen.check("--cache")?;
                cache_dir = Some(PathBuf::from(value("--cache")?));
            }
            "--force" => {
                seen.check("--force")?;
                force = true;
            }
            "--profile" => {
                seen.check("--profile")?;
                obs.profile = true;
            }
            "--metrics" => {
                seen.check("--metrics")?;
                obs.metrics = Some(PathBuf::from(value("--metrics")?));
            }
            other if other.starts_with("--") => {
                return Err(unknown_option(other, "baseline record"))
            }
            other => positional.push(other.to_string()),
        }
    }
    let [run, out] = positional.as_slice() else {
        return Err(usage_of("baseline record"));
    };
    let out_path = PathBuf::from(out);
    if out_path.exists() && !force {
        return Err(format!(
            "refusing to overwrite {out} (pass --force to replace the baseline)"
        ));
    }
    let cache = open_cache(cache_dir.as_ref())?;
    let live = MetricsRecorder::new();
    let rec = obs.recorder(&live);
    let (set, hb) = {
        let _s = stage(rec, "load");
        load_full(run)?
    };
    let params = Params::new(filter, attrs);
    let popts = PipelineOptions {
        threads,
        cache: cache.clone(),
        ..PipelineOptions::default()
    };
    let baseline = snapshot_rec(&set, &hb, &params, &popts, rec);
    let bytes = baseline.encode();
    if rec.enabled() {
        rec.add("baseline_bundle_bytes", bytes.len() as u64);
    }
    if let Some(parent) = out_path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("creating {}: {e}", parent.display()))?;
    }
    write_file_atomic(&out_path, &bytes).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "wrote {out}: {} trace(s), {} cluster(s), bundle {:#034x}",
        baseline.traces.len(),
        baseline.clusters,
        baseline.bundle_hash()
    );
    report_cache(cache.as_ref(), rec);
    obs.emit(&live, "baseline-record", threads)?;
    Ok(())
}

/// Minimal JSON string escaping for the batch index (same idiom as the
/// multi-file lint/hbcheck renderers).
fn json_str(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn baseline_check(args: &[String]) -> Result<(), CliError> {
    let mut seen = Seen::new("baseline check");
    let mut positional = Vec::new();
    let mut policy_path: Option<PathBuf> = None;
    let mut format = "text".to_string();
    let mut threads = 0usize;
    let mut cache_dir: Option<PathBuf> = None;
    let mut runs_dir: Option<PathBuf> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut obs = ObsOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--policy" => {
                seen.check("--policy")?;
                policy_path = Some(PathBuf::from(value("--policy")?));
            }
            "--format" => {
                seen.check("--format")?;
                format = value("--format")?;
                if format != "text" && format != "json" {
                    return Err(format!("unknown format `{format}` (text|json)").into());
                }
            }
            "--threads" => {
                seen.check("--threads")?;
                threads = value("--threads")?.parse().map_err(|_| "bad --threads")?;
            }
            "--cache" => {
                seen.check("--cache")?;
                cache_dir = Some(PathBuf::from(value("--cache")?));
            }
            "--dir" => {
                seen.check("--dir")?;
                runs_dir = Some(PathBuf::from(value("--dir")?));
            }
            "--out" => {
                seen.check("--out")?;
                out_dir = Some(PathBuf::from(value("--out")?));
            }
            "--profile" => {
                seen.check("--profile")?;
                obs.profile = true;
            }
            "--metrics" => {
                seen.check("--metrics")?;
                obs.metrics = Some(PathBuf::from(value("--metrics")?));
            }
            other if other.starts_with("--") => {
                return Err(unknown_option(other, "baseline check").into())
            }
            other => positional.push(other.to_string()),
        }
    }
    let policy = load_policy(policy_path.as_ref())?;
    match runs_dir {
        None => {
            if out_dir.is_some() {
                return Err("--out only applies to --dir batch checks"
                    .to_string()
                    .into());
            }
            let [run, bundle] = positional.as_slice() else {
                return Err(usage_of("baseline check").into());
            };
            let baseline = load_baseline(bundle)?;
            let params = baseline_params(&baseline)?;
            let cache = open_cache(cache_dir.as_ref())?;
            let live = MetricsRecorder::new();
            let rec = obs.recorder(&live);
            let (set, hb) = {
                let _s = stage(rec, "load");
                load_full(run)?
            };
            let popts = PipelineOptions {
                threads,
                cache: cache.clone(),
                ..PipelineOptions::default()
            };
            let candidate = snapshot_rec(&set, &hb, &params, &popts, rec);
            let report = evaluate(&baseline, &candidate, &policy, run)?;
            if rec.enabled() {
                rec.add("baseline_runs_checked", 1);
                rec.add("baseline_clauses_failed", report.failures().len() as u64);
            }
            report_cache(cache.as_ref(), rec);
            if format == "json" {
                print!("{}", report.render_json());
            } else {
                print!("{}", report.render_text());
            }
            obs.emit(&live, "baseline-check", threads)?;
            if !report.passed() {
                let names: Vec<&str> = report.failures().iter().map(|c| c.as_str()).collect();
                return Err(CliError::LintDenied(format!(
                    "baseline gate failed for {run}: {}",
                    names.join(", ")
                )));
            }
            Ok(())
        }
        Some(dir) => {
            let out = out_dir.ok_or("--dir needs --out OUTDIR for the report bundle")?;
            let [bundle] = positional.as_slice() else {
                return Err(usage_of("baseline check").into());
            };
            let baseline = load_baseline(bundle)?;
            let params = baseline_params(&baseline)?;
            let mut runs: Vec<PathBuf> = std::fs::read_dir(&dir)
                .map_err(|e| format!("{}: {e}", dir.display()))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "dtts"))
                .collect();
            runs.sort();
            if runs.is_empty() {
                return Err(format!("{}: no .dtts runs to check", dir.display()).into());
            }
            std::fs::create_dir_all(&out)
                .map_err(|e| format!("creating {}: {e}", out.display()))?;
            // One shared cache for the whole batch: identical traces
            // across runs fold once. In-memory unless --cache persists
            // it on disk.
            let cache = open_cache(cache_dir.as_ref())?.unwrap_or_else(|| Arc::new(Cache::new()));
            let live = MetricsRecorder::new();
            let rec = obs.recorder(&live);
            let popts = PipelineOptions {
                threads,
                cache: Some(cache.clone()),
                ..PipelineOptions::default()
            };
            let mut failed: Vec<String> = Vec::new();
            let mut index_rows = Vec::new();
            for run in &runs {
                let label = run.display().to_string();
                let (set, hb) = {
                    let _s = stage(rec, "load");
                    load_full(&label)?
                };
                let candidate = snapshot_rec(&set, &hb, &params, &popts, rec);
                let report = evaluate(&baseline, &candidate, &policy, &label)?;
                let stem = run
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| "run".to_string());
                let report_name = format!("{stem}.json");
                write_file_atomic(&out.join(&report_name), report.render_json().as_bytes())
                    .map_err(|e| format!("{report_name}: {e}"))?;
                let verdict = if report.passed() {
                    "pass".to_string()
                } else {
                    let names: Vec<&str> = report.failures().iter().map(|c| c.as_str()).collect();
                    failed.push(label.clone());
                    format!("FAIL ({})", names.join(", "))
                };
                println!("{label}: {verdict}");
                index_rows.push(format!(
                    "{{\"run\":\"{}\",\"verdict\":\"{}\",\"report\":\"{}\",\"report_hash\":\"{:032x}\"}}",
                    json_str(&label),
                    if report.passed() { "pass" } else { "fail" },
                    json_str(&report_name),
                    report.report_hash()
                ));
            }
            let index = format!(
                "{{\"schema\":\"difftrace-baseline-index/v1\",\"baseline\":\"{}\",\
                 \"baseline_hash\":\"{:032x}\",\"runs\":[{}]}}\n",
                json_str(bundle),
                baseline.bundle_hash(),
                index_rows.join(",")
            );
            write_file_atomic(&out.join("index.json"), index.as_bytes())
                .map_err(|e| format!("index.json: {e}"))?;
            if rec.enabled() {
                rec.add("baseline_runs_checked", runs.len() as u64);
                rec.add("baseline_runs_failed", failed.len() as u64);
            }
            report_cache(Some(&cache), rec);
            println!(
                "checked {} run(s): {} passed, {} failed; reports in {}",
                runs.len(),
                runs.len() - failed.len(),
                failed.len(),
                out.display()
            );
            obs.emit(&live, "baseline-check", threads)?;
            if !failed.is_empty() {
                return Err(CliError::LintDenied(format!(
                    "baseline gate failed for {}",
                    failed.join(", ")
                )));
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn help_and_unknown() {
        assert!(dispatch(&[]).is_ok());
        assert!(dispatch(&s(&["help"])).is_ok());
        assert!(dispatch(&s(&["frobnicate"])).is_err());
    }

    #[test]
    fn parse_opts_full() {
        let o = parse_opts(
            &s(&[
                "n.dtts",
                "f.dtts",
                "--filter",
                "11.mpiall.K10",
                "--attrs",
                "doub.noFreq",
                "--linkage",
                "average",
                "--diffnlr",
                "6.4",
                "--jobs",
                "3",
                "--threads",
                "4",
            ]),
            "diff",
        )
        .unwrap();
        assert_eq!(o.normal, "n.dtts");
        assert_eq!(o.faulty, "f.dtts");
        assert_eq!(o.filters.len(), 1);
        assert_eq!(o.attrs.len(), 1);
        assert_eq!(o.linkage.name(), "average");
        assert_eq!(o.diffnlr, Some(TraceId::new(6, 4)));
        assert_eq!(o.jobs, 3);
        assert_eq!(o.threads, 4);
    }

    #[test]
    fn parse_opts_rejects_garbage() {
        assert!(parse_opts(&s(&["only-one.dtts"]), "diff").is_err());
        assert!(parse_opts(&s(&["a", "b", "--filter", "zz"]), "diff").is_err());
        assert!(parse_opts(&s(&["a", "b", "--linkage", "quantum"]), "diff").is_err());
        assert!(parse_opts(&s(&["a", "b", "--bogus"]), "diff").is_err());
        assert!(parse_opts(&s(&["a", "b", "--diffnlr", "64"]), "diff").is_err());
    }

    #[test]
    fn end_to_end_demo_info_diff_sweep() {
        let dir = std::env::temp_dir().join("difftrace_cli_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let dirs = dir.to_str().unwrap().to_string();
        dispatch(&s(&["demo", "oddeven", &dirs])).unwrap();
        let n = format!("{dirs}/normal.dtts");
        let f = format!("{dirs}/faulty.dtts");
        dispatch(&s(&["info", &n])).unwrap();
        dispatch(&s(&["filters", &n])).unwrap();
        dispatch(&s(&["single", &f, "--attrs", "sing.actual"])).unwrap();
        let exp = format!("{dirs}/artifacts");
        dispatch(&s(&["export", &n, &f, &exp, "--filter", "11.mpiall.K10"])).unwrap();
        for artifact in [
            "normal.lattice.dot",
            "faulty.dendrogram.dot",
            "normal.context.csv",
            "jsm_d.csv",
            "report.txt",
        ] {
            assert!(
                std::path::Path::new(&exp).join(artifact).exists(),
                "{artifact} missing"
            );
        }
        dispatch(&s(&["diff", &n, &f, "--filter", "11.mpiall.K10"])).unwrap();
        dispatch(&s(&[
            "diff",
            &n,
            &f,
            "--filter",
            "11.mpiall.K10",
            "--threads",
            "1",
        ]))
        .unwrap();
        dispatch(&s(&["diff", &n, &f, "--filter", "11.mpiall.K10", "--full"])).unwrap();
        dispatch(&s(&[
            "sweep",
            &n,
            &f,
            "--filter",
            "11.mpiall.K10",
            "--attrs",
            "sing.actual",
            "--jobs",
            "2",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lint_end_to_end() {
        let dir = std::env::temp_dir().join("difftrace_cli_lint_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let dirs = dir.to_str().unwrap().to_string();
        dispatch(&s(&["demo", "oddeven", &dirs])).unwrap();
        let n = format!("{dirs}/normal.dtts");
        let f = format!("{dirs}/faulty.dtts");

        // Clean corpus under its live filter: lint passes, any gate.
        dispatch(&s(&[
            "lint",
            &n,
            &f,
            "--filter",
            "11.mpiall.K10",
            "--gate",
            "deny",
        ]))
        .unwrap();
        dispatch(&s(&["lint", &n, "--format", "json"])).unwrap();
        dispatch(&s(&["lint", &n, "--domain", "compressed", "--deep"])).unwrap();

        // Byte-identical output across thread counts, both formats and
        // both domains.
        for format in ["text", "json"] {
            for domain in [LintDomain::Expanded, LintDomain::Compressed] {
                let render = |threads: usize| {
                    check_render(
                        checker("lint").unwrap(),
                        &[n.clone(), f.clone()],
                        format,
                        &LintOptions {
                            threads,
                            domain,
                            ..LintOptions::default()
                        },
                        None,
                        &dt_obs::NOOP,
                    )
                    .unwrap()
                };
                let base = render(1);
                assert_eq!(base, render(2), "{format}/{domain:?}");
                assert_eq!(base, render(0), "{format}/{domain:?}");
            }
        }

        // A broken custom filter pattern is a TL004 *diagnostic* (with
        // a byte span), not an argument error — and trips `deny` with
        // the dedicated error kind.
        let denied = dispatch(&s(&[
            "lint",
            &n,
            "--filter",
            "11.cust:*bad.K10",
            "--gate",
            "deny",
        ]));
        assert!(matches!(denied, Err(CliError::LintDenied(_))), "{denied:?}");
        let (out, errors) = check_render(
            checker("lint").unwrap(),
            std::slice::from_ref(&n),
            "json",
            &LintOptions {
                filter: Some(FilterConfig::parse_lenient("11.cust:*bad.K10").unwrap()),
                ..LintOptions::default()
            },
            None,
            &dt_obs::NOOP,
        )
        .unwrap();
        assert_eq!(errors, 1);
        assert!(out.contains("\"code\":\"TL004\""), "{out}");
        assert!(out.contains("\"span\":{\"start\":0,\"end\":1}"), "{out}");

        // The diff gate wires through PipelineOptions.
        dispatch(&s(&[
            "diff",
            &n,
            &f,
            "--filter",
            "11.mpiall.K10",
            "--gate",
            "deny",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hbcheck_end_to_end() {
        let dir = std::env::temp_dir().join("difftrace_cli_hbcheck_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let dirs = dir.to_str().unwrap().to_string();
        dispatch(&s(&["demo", "stencil-tag", &dirs])).unwrap();
        let n = format!("{dirs}/normal.dtts");
        let f = format!("{dirs}/faulty.dtts");

        // The healthy run is clean under the strictest gate.
        dispatch(&s(&["hbcheck", &n, "--gate", "deny"])).unwrap();
        // The tag-mismatch run deadlocks: warn reports and passes …
        dispatch(&s(&["hbcheck", &f, "--format", "json"])).unwrap();
        // … deny exits with the dedicated error kind.
        let denied = dispatch(&s(&["hbcheck", &f, "--gate", "deny"]));
        assert!(matches!(denied, Err(CliError::LintDenied(_))), "{denied:?}");

        // The faulty report names the cycle, in both formats.
        let (text, errors) = check_render(
            checker("hbcheck").unwrap(),
            std::slice::from_ref(&f),
            "text",
            &LintOptions::default(),
            None,
            &dt_obs::NOOP,
        )
        .unwrap();
        assert!(errors > 0);
        assert!(text.contains("HB001"), "{text}");
        assert!(text.contains("wait-for cycle"), "{text}");

        // Byte-identical output across thread counts and domains.
        for format in ["text", "json"] {
            let render = |threads: usize, domain: LintDomain| {
                check_render(
                    checker("hbcheck").unwrap(),
                    &[n.clone(), f.clone()],
                    format,
                    &LintOptions {
                        threads,
                        domain,
                        ..LintOptions::default()
                    },
                    None,
                    &dt_obs::NOOP,
                )
                .unwrap()
            };
            let base = render(1, LintDomain::Expanded);
            for domain in [LintDomain::Expanded, LintDomain::Compressed] {
                for threads in [1usize, 2, 0] {
                    assert_eq!(
                        base,
                        render(threads, domain),
                        "{format}/{domain:?}/{threads}"
                    );
                }
            }
        }

        // The diff pipeline wires the gate through: warn diffs and
        // annotates, deny refuses with exit-code-3 semantics.
        dispatch(&s(&[
            "diff",
            &n,
            &f,
            "--filter",
            "11.mpiall.K10",
            "--hb",
            "warn",
        ]))
        .unwrap();
        let denied = dispatch(&s(&[
            "diff",
            &n,
            &f,
            "--filter",
            "11.mpiall.K10",
            "--hb",
            "deny",
        ]));
        assert!(matches!(denied, Err(CliError::LintDenied(_))), "{denied:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn racecheck_end_to_end() {
        let dir = std::env::temp_dir().join("difftrace_cli_racecheck_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let dirs = dir.to_str().unwrap().to_string();
        dispatch(&s(&["demo", "omp-counter", &dirs])).unwrap();
        let n = format!("{dirs}/normal.dtts");
        let f = format!("{dirs}/faulty.dtts");

        // The protected counter is clean under the strictest gate.
        dispatch(&s(&["racecheck", &n, "--gate", "deny"])).unwrap();
        // The unprotected run races: warn reports and passes …
        dispatch(&s(&["racecheck", &f, "--format", "json"])).unwrap();
        // … deny exits with the dedicated error kind.
        let denied = dispatch(&s(&["racecheck", &f, "--gate", "deny"]));
        assert!(matches!(denied, Err(CliError::LintDenied(_))), "{denied:?}");

        // The faulty report names the race, in both formats.
        let (text, errors) = check_render(
            checker("racecheck").unwrap(),
            std::slice::from_ref(&f),
            "text",
            &LintOptions::default(),
            None,
            &dt_obs::NOOP,
        )
        .unwrap();
        assert!(errors > 0);
        assert!(text.contains("RC001"), "{text}");
        assert!(text.contains("counter"), "{text}");

        // Byte-identical output across thread counts and domains.
        for format in ["text", "json"] {
            let render = |threads: usize, domain: LintDomain| {
                check_render(
                    checker("racecheck").unwrap(),
                    &[n.clone(), f.clone()],
                    format,
                    &LintOptions {
                        threads,
                        domain,
                        ..LintOptions::default()
                    },
                    None,
                    &dt_obs::NOOP,
                )
                .unwrap()
            };
            let base = render(1, LintDomain::Expanded);
            for domain in [LintDomain::Expanded, LintDomain::Compressed] {
                for threads in [1usize, 2, 0] {
                    assert_eq!(
                        base,
                        render(threads, domain),
                        "{format}/{domain:?}/{threads}"
                    );
                }
            }
        }

        // The diff pipeline wires the gate through: warn diffs and
        // annotates, deny refuses with exit-code-3 semantics.
        dispatch(&s(&[
            "diff",
            &n,
            &f,
            "--filter",
            "11.mpiall.K10",
            "--race",
            "warn",
        ]))
        .unwrap();
        let denied = dispatch(&s(&[
            "diff",
            &n,
            &f,
            "--filter",
            "11.mpiall.K10",
            "--race",
            "deny",
        ]));
        assert!(matches!(denied, Err(CliError::LintDenied(_))), "{denied:?}");

        // The lock-order demo fires exactly RC003 on its faulty side.
        let ldir = format!("{dirs}/lockorder");
        std::fs::create_dir_all(&ldir).unwrap();
        dispatch(&s(&["demo", "omp-lockorder", &ldir])).unwrap();
        let ln = format!("{ldir}/normal.dtts");
        let lf = format!("{ldir}/faulty.dtts");
        dispatch(&s(&["racecheck", &ln, "--gate", "deny"])).unwrap();
        let (text, errors) = check_render(
            checker("racecheck").unwrap(),
            std::slice::from_ref(&lf),
            "text",
            &LintOptions::default(),
            None,
            &dt_obs::NOOP,
        )
        .unwrap();
        assert_eq!(errors, 1, "{text}");
        assert!(text.contains("RC003"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reqcheck_end_to_end() {
        let dir = std::env::temp_dir().join("difftrace_cli_reqcheck_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let dirs = dir.to_str().unwrap().to_string();
        dispatch(&s(&["demo", "isend-leak", &dirs])).unwrap();
        let n = format!("{dirs}/normal.dtts");
        let f = format!("{dirs}/faulty.dtts");

        // The healthy ring is clean under the strictest gate.
        dispatch(&s(&["reqcheck", &n, "--gate", "deny"])).unwrap();
        // The leaky run: warn reports and passes …
        dispatch(&s(&["reqcheck", &f, "--format", "json"])).unwrap();
        // … deny exits with the dedicated error kind.
        let denied = dispatch(&s(&["reqcheck", &f, "--gate", "deny"]));
        assert!(matches!(denied, Err(CliError::LintDenied(_))), "{denied:?}");

        // The faulty report names the leak with its teardown witness.
        let (text, errors) = check_render(
            checker("reqcheck").unwrap(),
            std::slice::from_ref(&f),
            "text",
            &LintOptions::default(),
            None,
            &dt_obs::NOOP,
        )
        .unwrap();
        assert!(errors > 0);
        assert!(text.contains("RQ001"), "{text}");
        assert!(text.contains("MPI_Isend:dst=3,tag=0"), "{text}");

        // Byte-identical output across thread counts and domains.
        for format in ["text", "json"] {
            let render = |threads: usize, domain: LintDomain| {
                check_render(
                    checker("reqcheck").unwrap(),
                    &[n.clone(), f.clone()],
                    format,
                    &LintOptions {
                        threads,
                        domain,
                        ..LintOptions::default()
                    },
                    None,
                    &dt_obs::NOOP,
                )
                .unwrap()
            };
            let base = render(1, LintDomain::Expanded);
            for domain in [LintDomain::Expanded, LintDomain::Compressed] {
                for threads in [1usize, 2, 0] {
                    assert_eq!(
                        base,
                        render(threads, domain),
                        "{format}/{domain:?}/{threads}"
                    );
                }
            }
        }

        // The compressed domain reports its fold counter through
        // --metrics plumbing.
        let live = MetricsRecorder::new();
        check_render(
            checker("reqcheck").unwrap(),
            std::slice::from_ref(&f),
            "text",
            &LintOptions {
                domain: LintDomain::Compressed,
                ..LintOptions::default()
            },
            None,
            &live,
        )
        .unwrap();
        let m = live.finish("reqcheck", 1);
        assert!(
            m.counters
                .iter()
                .any(|(k, v)| k == "reqcheck_folds" && *v > 0),
            "{:?}",
            m.counters
        );

        // The diff pipeline wires the gate through: warn diffs and
        // attaches, deny refuses with exit-code-3 semantics.
        dispatch(&s(&[
            "diff",
            &n,
            &f,
            "--filter",
            "11.mpiall.K10",
            "--req",
            "warn",
        ]))
        .unwrap();
        let denied = dispatch(&s(&[
            "diff",
            &n,
            &f,
            "--filter",
            "11.mpiall.K10",
            "--req",
            "deny",
        ]));
        assert!(matches!(denied, Err(CliError::LintDenied(_))), "{denied:?}");

        // The coll-args demo fires RQ003 (and only signature errors)
        // on its faulty side.
        let cdir = format!("{dirs}/collargs");
        std::fs::create_dir_all(&cdir).unwrap();
        dispatch(&s(&["demo", "coll-args", &cdir])).unwrap();
        let cn = format!("{cdir}/normal.dtts");
        let cf = format!("{cdir}/faulty.dtts");
        dispatch(&s(&["reqcheck", &cn, "--gate", "deny"])).unwrap();
        let (text, errors) = check_render(
            checker("reqcheck").unwrap(),
            std::slice::from_ref(&cf),
            "text",
            &LintOptions::default(),
            None,
            &dt_obs::NOOP,
        )
        .unwrap();
        assert!(errors > 0);
        assert!(text.contains("RQ003"), "{text}");
        assert!(!text.contains("RQ004"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Satellite: every subcommand rejects repeated and unknown flags
    /// the same way — a `Msg` error (exit 2) naming the flag and
    /// carrying the usage hint. All cases fail during parsing, before
    /// any file is touched.
    #[test]
    fn duplicate_and_unknown_flags_fail_uniformly() {
        let dup_cases: &[&[&str]] = &[
            &["demo", "--force", "--force", "oddeven", "x"],
            &["single", "r.dtts", "--k", "2", "--k", "3"],
            &[
                "single",
                "r.dtts",
                "--filter",
                "11.all.K10",
                "--filter",
                "11.all.K10",
            ],
            &["lint", "a.dtts", "--gate", "warn", "--gate", "deny"],
            &["lint", "a.dtts", "--deep", "--deep"],
            &[
                "hbcheck",
                "a.dtts",
                "--domain",
                "compressed",
                "--domain",
                "expanded",
            ],
            &["racecheck", "a.dtts", "--gate", "warn", "--gate", "deny"],
            &[
                "racecheck",
                "a.dtts",
                "--domain",
                "compressed",
                "--domain",
                "expanded",
            ],
            &["racecheck", "a.dtts", "--threads", "1", "--threads", "2"],
            &["reqcheck", "a.dtts", "--gate", "warn", "--gate", "deny"],
            &[
                "reqcheck",
                "a.dtts",
                "--domain",
                "compressed",
                "--domain",
                "expanded",
            ],
            &["reqcheck", "a.dtts", "--threads", "1", "--threads", "2"],
            &["diff", "n", "f", "--race", "warn", "--race", "deny"],
            &["diff", "n", "f", "--req", "warn", "--req", "deny"],
            &[
                "diff",
                "n",
                "f",
                "--filter",
                "11.all.K10",
                "--filter",
                "01.all.K10",
            ],
            &["diff", "n", "f", "--threads", "1", "--threads", "2"],
            &["diff", "n", "f", "--profile", "--profile"],
            &[
                "diff",
                "n",
                "f",
                "--metrics",
                "a.json",
                "--metrics",
                "b.json",
            ],
            &[
                "export",
                "n",
                "f",
                "out",
                "--attrs",
                "sing.actual",
                "--attrs",
                "doub.noFreq",
            ],
            &[
                "sweep",
                "n",
                "f",
                "--linkage",
                "ward",
                "--linkage",
                "average",
            ],
            &["sweep", "n", "f", "--jobs", "1", "--jobs", "2"],
            &["sweep", "n", "f", "--cache", "c1", "--cache", "c2"],
            &["diff", "n", "f", "--cache", "c1", "--cache", "c2"],
            &["single", "r.dtts", "--cache", "c1", "--cache", "c2"],
            &["baseline", "record", "r", "b", "--force", "--force"],
            &[
                "baseline",
                "record",
                "r",
                "b",
                "--filter",
                "11.all.K10",
                "--filter",
                "01.all.K10",
            ],
            &[
                "baseline",
                "record",
                "r",
                "b",
                "--threads",
                "1",
                "--threads",
                "2",
            ],
            &[
                "baseline", "check", "r", "b", "--policy", "p", "--policy", "q",
            ],
            &[
                "baseline", "check", "r", "b", "--format", "json", "--format", "text",
            ],
            &[
                "baseline", "check", "r", "b", "--cache", "c1", "--cache", "c2",
            ],
            &["lint", "a.dtts", "--trace", "0.0", "--trace", "0.1"],
            &["single", "r.dtts", "--trace", "0.0", "--trace", "0.1"],
            &["serve", "a.dtts", "--jobs", "1", "--jobs", "2"],
            &["serve", "a.dtts", "--addr", ":0", "--addr", ":1"],
            &[
                "query", "addr", "lint", "c", "--format", "json", "--format", "text",
            ],
            &[
                "query", "addr", "lint", "c", "--gate", "warn", "--gate", "deny",
            ],
        ];
        for case in dup_cases {
            let err = dispatch(&s(case)).unwrap_err();
            let CliError::Msg(m) = err else {
                panic!("{case:?}: wrong error kind");
            };
            assert!(m.contains("duplicate option"), "{case:?}: {m}");
            assert!(m.contains("usage: difftrace"), "{case:?}: {m}");
        }

        let unknown_cases: &[&[&str]] = &[
            &["demo", "oddeven", "x", "--bogus"],
            &["info", "a.dtts", "--bogus"],
            &["filters", "--bogus"],
            &["single", "r.dtts", "--bogus"],
            &["lint", "a.dtts", "--bogus"],
            &["hbcheck", "a.dtts", "--bogus"],
            &["racecheck", "a.dtts", "--bogus"],
            &["reqcheck", "a.dtts", "--bogus"],
            &["diff", "n", "f", "--bogus"],
            &["export", "n", "f", "out", "--bogus"],
            &["sweep", "n", "f", "--bogus"],
            &["cache", "stats", "d", "--bogus"],
            &["baseline", "record", "r", "b", "--bogus"],
            &["baseline", "check", "r", "b", "--bogus"],
            &["serve", "a.dtts", "--bogus"],
            &["query", "addr", "lint", "c", "--bogus"],
        ];
        for case in unknown_cases {
            let err = dispatch(&s(case)).unwrap_err();
            let CliError::Msg(m) = err else {
                panic!("{case:?}: wrong error kind");
            };
            assert!(m.contains("unknown option `--bogus`"), "{case:?}: {m}");
            assert!(m.contains("usage: difftrace"), "{case:?}: {m}");
        }

        // sweep's grid axes are the one sanctioned repetition.
        let o = parse_opts(
            &s(&[
                "n",
                "f",
                "--filter",
                "11.all.K10",
                "--filter",
                "11.mpiall.K10",
                "--attrs",
                "sing.actual",
                "--attrs",
                "doub.noFreq",
            ]),
            "sweep",
        )
        .unwrap();
        assert_eq!(o.filters.len(), 2);
        assert_eq!(o.attrs.len(), 2);
    }

    /// `--cache` end to end: a sweep populates the directory, `cache
    /// stats` sees the entries, diff/single reuse the same directory,
    /// and `cache clear` empties it. Warm runs must print the same
    /// ranking the cold run did.
    #[test]
    fn cache_end_to_end() {
        let dir = std::env::temp_dir().join("difftrace_cli_cache_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let dirs = dir.to_str().unwrap().to_string();
        dispatch(&s(&["demo", "oddeven", &dirs])).unwrap();
        let n = format!("{dirs}/normal.dtts");
        let f = format!("{dirs}/faulty.dtts");
        let cdir = format!("{dirs}/cache");
        let sweep_args = [
            "sweep",
            &n,
            &f,
            "--filter",
            "11.mpiall.K10",
            "--attrs",
            "sing.actual",
            "--attrs",
            "doub.noFreq",
            "--cache",
            &cdir,
        ];
        dispatch(&s(&sweep_args)).unwrap(); // cold: populates the cache
        let stats = dt_cache::disk_stats(Path::new(&cdir)).unwrap();
        assert!(stats.nlr_entries > 0, "{stats:?}");
        assert!(stats.attr_entries > 0, "{stats:?}");
        dispatch(&s(&sweep_args)).unwrap(); // warm: hits from disk
        dispatch(&s(&["cache", "stats", &cdir])).unwrap();
        dispatch(&s(&[
            "diff",
            &n,
            &f,
            "--filter",
            "11.mpiall.K10",
            "--cache",
            &cdir,
        ]))
        .unwrap();
        dispatch(&s(&["single", &f, "--cache", &cdir])).unwrap();
        dispatch(&s(&["cache", "clear", &cdir])).unwrap();
        let cleared = dt_cache::disk_stats(Path::new(&cdir)).unwrap();
        assert_eq!(cleared.nlr_entries + cleared.attr_entries, 0);
        // Bad action is an argument error carrying the usage hint.
        let err = dispatch(&s(&["cache", "frobnicate", &cdir])).unwrap_err();
        assert!(err.to_string().contains("usage: difftrace cache"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Satellite: `demo` must not clobber an existing corpus unless
    /// `--force` is given.
    #[test]
    fn demo_refuses_overwrite_without_force() {
        let dir = std::env::temp_dir().join("difftrace_cli_force_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let dirs = dir.to_str().unwrap().to_string();
        dispatch(&s(&["demo", "oddeven", &dirs])).unwrap();
        let err = dispatch(&s(&["demo", "oddeven", &dirs])).unwrap_err();
        assert!(err.to_string().contains("refusing to overwrite"), "{err}");
        assert!(err.to_string().contains("--force"), "{err}");
        dispatch(&s(&["demo", "oddeven", &dirs, "--force"])).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn demo_knows_all_workloads() {
        // Just validate the dispatch table (without running the heavy
        // ones): unknown workloads error out.
        let reg = Arc::new(FunctionRegistry::new());
        assert!(run_demo_pair("nope", &reg).is_err());
    }

    /// Tentpole: record → re-record byte-identical → clean check
    /// passes → faulty check is a gate failure (LintDenied, exit 3) →
    /// corrupt bundle is an ordinary error naming the file (exit 2) →
    /// batch mode writes the report bundle and index.
    #[test]
    fn baseline_end_to_end() {
        let dir = std::env::temp_dir().join("difftrace_cli_baseline_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let dirs = dir.to_str().unwrap().to_string();
        dispatch(&s(&["demo", "stencil-tag", &dirs])).unwrap();
        let n = format!("{dirs}/normal.dtts");
        let f = format!("{dirs}/faulty.dtts");
        let b = format!("{dirs}/base.dtb");
        let b2 = format!("{dirs}/base2.dtb");

        dispatch(&s(&["baseline", "record", &n, &b])).unwrap();
        // Refuses to clobber without --force, like demo.
        let err = dispatch(&s(&["baseline", "record", &n, &b])).unwrap_err();
        assert!(err.to_string().contains("refusing to overwrite"), "{err}");
        dispatch(&s(&["baseline", "record", &n, &b2])).unwrap();
        assert_eq!(
            std::fs::read(&b).unwrap(),
            std::fs::read(&b2).unwrap(),
            "re-recording the same run must be byte-identical"
        );

        // Clean candidate passes; JSON format too.
        dispatch(&s(&["baseline", "check", &n, &b])).unwrap();
        dispatch(&s(&["baseline", "check", "--format", "json", &n, &b])).unwrap();
        // The faulty run is a gate failure, not a usage error.
        let err = dispatch(&s(&["baseline", "check", &f, &b])).unwrap_err();
        let CliError::LintDenied(m) = err else {
            panic!("faulty check should be LintDenied");
        };
        assert!(m.contains("baseline gate failed"), "{m}");
        // Tolerating every divergence class turns the gate green.
        let lax = format!("{dirs}/lax.policy");
        std::fs::write(
            &lax,
            "tolerate = nlr-changed,ranking-shift,lint-regression,hb-regression\n\
             allow_new_traces = true\nallow_removed_traces = true\n",
        )
        .unwrap();
        dispatch(&s(&["baseline", "check", "--policy", &lax, &f, &b])).unwrap();

        // A truncated bundle is an ordinary error naming the file.
        let bad = format!("{dirs}/bad.dtb");
        let bytes = std::fs::read(&b).unwrap();
        std::fs::write(&bad, &bytes[..bytes.len() / 2]).unwrap();
        let err = dispatch(&s(&["baseline", "check", &n, &bad])).unwrap_err();
        let CliError::Msg(m) = err else {
            panic!("corrupt bundle must be a usage-class error");
        };
        assert!(m.contains("bad.dtb"), "{m}");
        assert!(m.contains("re-record"), "{m}");

        // Batch mode: index + per-run reports, gate failure overall.
        let runs = format!("{dirs}/runs");
        std::fs::create_dir_all(&runs).unwrap();
        std::fs::copy(&n, format!("{runs}/a-clean.dtts")).unwrap();
        std::fs::copy(&f, format!("{runs}/b-fault.dtts")).unwrap();
        let out = format!("{dirs}/reports");
        let err = dispatch(&s(&[
            "baseline", "check", "--dir", &runs, "--out", &out, &b,
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::LintDenied(_)), "{err}");
        let index = std::fs::read_to_string(format!("{out}/index.json")).unwrap();
        dt_obs::json::parse(&index).expect("valid index JSON");
        assert!(index.contains("difftrace-baseline-index/v1"), "{index}");
        assert!(index.contains("\"verdict\":\"pass\""), "{index}");
        assert!(index.contains("\"verdict\":\"fail\""), "{index}");
        for report in ["a-clean.json", "b-fault.json"] {
            let doc = std::fs::read_to_string(format!("{out}/{report}")).unwrap();
            dt_obs::json::parse(&doc).expect("valid report JSON");
        }
        // --dir without --out (and --out without --dir) are usage errors.
        assert!(dispatch(&s(&["baseline", "check", "--dir", &runs, &b])).is_err());
        assert!(dispatch(&s(&["baseline", "check", "--out", &out, &n, &b])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Satellite: every file the CLI writes goes through temp+rename.
    /// A write that fails at the destination must leave no partial
    /// file and no temp debris — here the destination is squatted by a
    /// directory, so the final rename (not the data write) fails.
    #[test]
    fn failed_writes_leave_no_partial_file_or_debris() {
        let dir = std::env::temp_dir().join("difftrace_cli_atomic_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let dirs = dir.to_str().unwrap().to_string();
        dispatch(&s(&["demo", "oddeven", &dirs])).unwrap();
        let n = format!("{dirs}/normal.dtts");

        let debris = |label: &str| {
            let left: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|name| name.contains(".tmp."))
                .collect();
            assert!(left.is_empty(), "{label}: temp debris {left:?}");
        };

        // --metrics output.
        let squat = dir.join("metrics.json");
        std::fs::create_dir_all(&squat).unwrap();
        let err = dispatch(&s(&["lint", &n, "--metrics", squat.to_str().unwrap()])).unwrap_err();
        assert!(err.to_string().contains("writing metrics"), "{err}");
        assert!(squat.is_dir(), "squatting directory must survive");
        debris("metrics");

        // baseline bundles (--force skips the overwrite refusal so the
        // write itself is what fails).
        let bundle = dir.join("base.dtb");
        std::fs::create_dir_all(&bundle).unwrap();
        let err = dispatch(&s(&[
            "baseline",
            "record",
            &n,
            bundle.to_str().unwrap(),
            "--force",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("base.dtb"), "{err}");
        assert!(bundle.is_dir(), "squatting directory must survive");
        debris("baseline record");
    }

    /// Tentpole plumbing: `--trace P.T` routes lint/single through the
    /// v3 offset index — exactly one blob decode, recorded in the
    /// metrics document — and matches a hand-built one-trace subset.
    #[test]
    fn trace_flag_decodes_exactly_one_trace() {
        let dir = std::env::temp_dir().join("difftrace_cli_trace_flag_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let dirs = dir.to_str().unwrap().to_string();
        dispatch(&s(&["demo", "oddeven", &dirs])).unwrap();
        let f = format!("{dirs}/faulty.dtts");
        let set = store::load(Path::new(&f)).unwrap();
        assert!(set.len() > 1, "need a multi-trace corpus");
        let id = set.ids()[0];

        let metrics = |name: &str| format!("{dirs}/{name}.json");
        dispatch(&s(&[
            "lint",
            &f,
            "--trace",
            &id.to_string(),
            "--metrics",
            &metrics("lint"),
        ]))
        .unwrap();
        let doc = std::fs::read_to_string(metrics("lint")).unwrap();
        assert!(doc.contains("\"store_trace_decodes\":1"), "{doc}");

        dispatch(&s(&[
            "single",
            &f,
            "--trace",
            &id.to_string(),
            "--metrics",
            &metrics("single"),
        ]))
        .unwrap();
        let doc = std::fs::read_to_string(metrics("single")).unwrap();
        assert!(doc.contains("\"store_trace_decodes\":1"), "{doc}");

        // The restricted report equals linting a hand-built subset.
        let (out, _) = check_render(
            checker("lint").unwrap(),
            std::slice::from_ref(&f),
            "text",
            &LintOptions::default(),
            Some(id),
            &dt_obs::NOOP,
        )
        .unwrap();
        let mut sub = TraceSet::new(set.registry.clone());
        sub.insert(set.get(id).unwrap().clone());
        assert_eq!(
            out,
            difftrace::lint_set(&sub, &LintOptions::default()).render_text()
        );

        // Unknown trace → diagnosed error; bad spec → argument error.
        let err = dispatch(&s(&["lint", &f, "--trace", "99.99"])).unwrap_err();
        assert!(err.to_string().contains("not in store"), "{err}");
        assert!(dispatch(&s(&["lint", &f, "--trace", "zz"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
