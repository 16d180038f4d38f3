//! Command parsing and execution.

use difftrace::{
    checker, render_ranking, sweep, try_diff_runs, AnyChecker, AttrConfig, FilterConfig, LintGate,
    Params, PipelineOptions, CHECKERS,
};
use dt_baseline::{evaluate, snapshot_rec, Baseline, Policy};
use dt_cache::Cache;
use dt_obs::{json, stage, MetricsRecorder, Recorder};
use dt_serve::{Corpora, Failure, Request};
use dt_trace::hb::HbLog;
use dt_trace::{store, FunctionRegistry, TraceSet, TraceSetStats};
use std::collections::BTreeMap;
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

impl From<Failure> for CliError {
    fn from(f: Failure) -> CliError {
        match f {
            Failure::Error(m) => CliError::Msg(m),
            Failure::Denied { verdict, .. } => CliError::LintDenied(verdict),
        }
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

/// How a flag takes its argument.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Arity {
    /// A bare switch, at most once (`--full`).
    Switch,
    /// One value, at most once (`--filter CODE`).
    Value,
    /// One value per occurrence, repeatable (sweep's grid axes).
    Repeat,
}

use Arity::{Repeat, Switch, Value};

/// One accepted flag: its name and how it takes its argument.
type Flag = (&'static str, Arity);

/// The flags that travel on the wire for an analysis command (`single`,
/// `diff`, `fleet`, each checker): what `query <cmd>` accepts and what
/// [`request_of`] maps onto a [`Request`]. Empty for other commands.
fn wire_flags(cmd: &str) -> &'static [Flag] {
    match cmd {
        "single" => &[
            ("--filter", Value),
            ("--attrs", Value),
            ("--k", Value),
            ("--trace", Value),
        ],
        "diff" => &[
            ("--filter", Value),
            ("--attrs", Value),
            ("--linkage", Value),
            ("--diffnlr", Value),
            ("--threads", Value),
            ("--full", Switch),
        ],
        "fleet" => &[
            ("--suspect", Value),
            ("--filter", Value),
            ("--attrs", Value),
            ("--linkage", Value),
            ("--threads", Value),
            ("--format", Value),
        ],
        _ => match checker(cmd) {
            Some(c) if c.lint_options() => &[
                ("--format", Value),
                ("--domain", Value),
                ("--threads", Value),
                ("--deep", Switch),
                ("--filter", Value),
                ("--trace", Value),
            ],
            Some(_) => &[
                ("--format", Value),
                ("--domain", Value),
                ("--threads", Value),
            ],
            None => &[],
        },
    }
}

/// Every flag `cmd` accepts on its own command line: its wire flags
/// plus the ones that stay local to the process (cache, profiling,
/// gates, output paths). `info`, `filters` and `cache` take none.
fn flags_of(cmd: &str) -> Vec<Flag> {
    const CACHE: Flag = ("--cache", Value);
    const OBS: [Flag; 2] = [("--profile", Switch), ("--metrics", Value)];
    let local: Vec<Flag> = match cmd {
        "demo" => vec![("--force", Switch)],
        "serve" => vec![("--addr", Value), ("--jobs", Value), CACHE],
        // The union over every served command; `query_cmd` narrows it
        // to the queried command once that positional is known.
        "query" => {
            let mut all = vec![("--gate", Value)];
            for flag in dt_serve::COMMANDS.iter().flat_map(|c| wire_flags(c)) {
                if !all.contains(flag) {
                    all.push(*flag);
                }
            }
            return all;
        }
        "single" => vec![CACHE],
        "diff" => CHECKERS
            .iter()
            .map(|c| (c.diff_flag(), Value))
            .chain([CACHE])
            .collect(),
        "fleet" => vec![("--gate", Value), CACHE],
        "export" => vec![
            ("--filter", Value),
            ("--attrs", Value),
            ("--linkage", Value),
            ("--threads", Value),
            CACHE,
        ],
        "sweep" => vec![
            ("--filter", Repeat),
            ("--attrs", Repeat),
            ("--linkage", Value),
            ("--jobs", Value),
            CACHE,
        ],
        "baseline record" => vec![
            ("--filter", Value),
            ("--attrs", Value),
            ("--threads", Value),
            CACHE,
            ("--force", Switch),
        ],
        "baseline check" => vec![
            ("--policy", Value),
            ("--format", Value),
            ("--threads", Value),
            CACHE,
            ("--dir", Value),
            ("--out", Value),
        ],
        _ if checker(cmd).is_some() => vec![("--gate", Value)],
        _ => return Vec::new(),
    };
    let mut flags = wire_flags(cmd).to_vec();
    flags.extend(local);
    if !matches!(cmd, "demo" | "serve") {
        flags.extend(OBS);
    }
    flags
}

/// A parsed command line: the positionals in order, and each given
/// flag with its values (none for a switch) in order of first use.
#[derive(Default)]
struct Args {
    positional: Vec<String>,
    flags: Vec<(&'static str, Vec<String>)>,
}

impl Args {
    /// Walk `argv` against `cmd`'s flag table ([`flags_of`]). Anything
    /// not starting with `--` is a positional. A flag outside the
    /// table, a second use of a non-repeatable flag, and a value flag
    /// with nothing after it are argument errors naming the flag.
    fn parse(cmd: &str, argv: &[String]) -> Result<Args, String> {
        let table = flags_of(cmd);
        let mut args = Args::default();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                args.positional.push(a.clone());
                continue;
            }
            let &(name, arity) = table
                .iter()
                .find(|(n, _)| n == a)
                .ok_or_else(|| unknown_option(a, cmd))?;
            let slot = args.flags.iter().position(|(n, _)| *n == name);
            if slot.is_some() && arity != Repeat {
                return Err(format!(
                    "duplicate option `{name}` for `{cmd}` ({})",
                    usage_of(cmd)
                ));
            }
            let value = match arity {
                Switch => None,
                Value | Repeat => Some(
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("{name} needs a value"))?,
                ),
            };
            match slot {
                Some(i) => args.flags[i].1.extend(value),
                None => args.flags.push((name, value.into_iter().collect())),
            }
        }
        Ok(args)
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == flag)
    }

    /// Every value given for `flag`, in order.
    fn values(&self, flag: &str) -> &[String] {
        self.flags
            .iter()
            .find(|(n, _)| *n == flag)
            .map_or(&[], |(_, v)| v)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.values(flag).first().map(String::as_str)
    }

    fn path(&self, flag: &str) -> Option<PathBuf> {
        self.value(flag).map(PathBuf::from)
    }

    /// A count flag (`--k`, `--threads`, `--jobs`), if given.
    fn number(&self, flag: &str) -> Result<Option<usize>, String> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| format!("bad {flag}")))
            .transpose()
    }

    /// A gate flag (`off|warn|deny`), `default` when absent.
    fn gate(&self, flag: &str, default: LintGate) -> Result<LintGate, String> {
        self.value(flag).map_or(Ok(default), LintGate::parse)
    }
}

/// Map the wire flags in `args` onto a [`Request`] for `cmd`: the one
/// option vocabulary of `query <cmd>` and of the one-shot commands,
/// which resolve it through the daemon's own conversions
/// (`dt_serve::options`). `export` and `baseline` reuse it for the
/// subset of those flags they take.
fn request_of(cmd: &str, args: &Args) -> Result<Request, String> {
    let text = |flag: &str| args.value(flag).map(str::to_string);
    Ok(Request {
        cmd: cmd.to_string(),
        suspect: text("--suspect"),
        format: text("--format"),
        domain: text("--domain"),
        deep: args.has("--deep"),
        filter: text("--filter"),
        attrs: text("--attrs"),
        linkage: text("--linkage"),
        k: args.number("--k")?,
        threads: args.number("--threads")?,
        trace: text("--trace"),
        diffnlr: text("--diffnlr"),
        full: args.has("--full"),
        ..Request::default()
    })
}

/// The `--profile` / `--metrics FILE` pair shared by the analysis
/// subcommands.
struct ObsOpts {
    profile: bool,
    metrics: Option<PathBuf>,
}

impl ObsOpts {
    fn of(args: &Args) -> ObsOpts {
        ObsOpts {
            profile: args.has("--profile"),
            metrics: args.path("--metrics"),
        }
    }

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
      locally. Each <cmd> takes exactly the analysis flags of its
      one-shot subcommand, so `single` takes no --threads or
      --linkage (the daemon still reads those fields from raw wire
      frames). --gate applies to the checkers and fleet only: deny
      exits 3 when the reply carries error-severity diagnostics or a
      fleet outlier. A refused or failed query exits 2 with the
      daemon's diagnosis.

  difftrace export <normal.dtts> <faulty.dtts> <outdir>
          [--filter CODE] [--attrs CODE] [--linkage NAME] [--threads N]
          [--cache DIR] [--profile] [--metrics FILE]
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
      any run fails. Batch reports are always JSON, so --format is
      refused here.

CACHING (single, diff, fleet, export, sweep, baseline, serve):
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

PROFILING (lint, hbcheck, racecheck, reqcheck, diff, single, fleet, export,
           sweep, baseline):
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
        Some("single") => single(&args[1..]),
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
    let args = Args::parse("demo", args)?;
    let force = args.has("--force");
    let [workload, outdir] = args.positional.as_slice() else {
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
fn open_cache(dir: Option<&str>) -> Result<Option<Arc<Cache>>, String> {
    match dir {
        None => Ok(None),
        Some(d) => Cache::with_dir(Path::new(d))
            .map(|c| Some(Arc::new(c)))
            .map_err(|e| format!("opening cache {d}: {e}")),
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
    let args = Args::parse("cache", args)?;
    let [action, dir] = args.positional.as_slice() else {
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
    let args = Args::parse("info", args)?;
    let [path] = args.positional.as_slice() else {
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
    let args = Args::parse("filters", args)?;
    let [path] = args.positional.as_slice() else {
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

fn single(args: &[String]) -> Result<(), CliError> {
    let args = Args::parse("single", args)?;
    let mut req = request_of("single", &args)?;
    req.corpus = match args.positional.as_slice() {
        [path] => Some(path.clone()),
        [] => return Err(usage_of("single").into()),
        [_, extra, ..] => {
            return Err(format!(
                "unexpected extra argument `{extra}` ({})",
                usage_of("single")
            )
            .into())
        }
    };
    let cache = open_cache(args.value("--cache"))?;
    let obs = ObsOpts::of(&args);
    let live = MetricsRecorder::new();
    let rec = obs.recorder(&live);
    let files = files_named_by_path(&args.positional);
    let answer = dt_serve::execute(&req, &files, cache.clone(), BTreeMap::new(), rec)?;
    print!("{}", answer.output);
    report_cache(cache.as_ref(), rec);
    obs.emit(&live, "single", req.pipeline_options(None).threads)?;
    Ok(())
}

/// The stores named on a command line, each under its own path.
fn files_named_by_path(paths: &[String]) -> Corpora<'static> {
    Corpora::Files(
        paths
            .iter()
            .map(|p| (p.clone(), PathBuf::from(p)))
            .collect(),
    )
}

/// `difftrace <checker>`: one subcommand shape for every registered
/// checker. Flags beyond the common ones are the checker's trait data
/// (lint alone takes `--deep`, `--filter` and `--trace`).
fn check_cmd(c: &dyn AnyChecker, args: &[String]) -> Result<(), CliError> {
    let name = c.name();
    let args = Args::parse(name, args)?;
    let req = request_of(name, &args)?;
    let gate = args.gate("--gate", LintGate::Warn)?;
    let paths = &args.positional;
    if paths.is_empty() {
        return Err(usage_of(name).into());
    }
    let obs = ObsOpts::of(&args);
    let live = MetricsRecorder::new();
    let (rendered, errors) = check_render(paths, &req, obs.recorder(&live))?;
    print!("{rendered}");
    let threads = req.lint_options(c).map_or(1, |o| o.threads.max(1));
    obs.emit(&live, name, threads)?;
    if gate == LintGate::Deny && errors > 0 {
        return Err(CliError::LintDenied(format!(
            "{name} gate denied: {errors} error(s) across {} file(s)",
            paths.len()
        )));
    }
    Ok(())
}

/// Run the checker query `req` on each of `paths` and frame the
/// reports — split out from [`check_cmd`] so tests can assert the
/// output is byte-identical across thread counts and domains. Returns
/// the rendered output and the total error count. Several files are
/// framed by path (`== path` headers, or one JSON object per line).
fn check_render(
    paths: &[String],
    req: &Request,
    rec: &dyn Recorder,
) -> Result<(String, usize), CliError> {
    let files = files_named_by_path(paths);
    let mut out = String::new();
    let mut errors = 0;
    for path in paths {
        let req = Request {
            corpus: Some(path.clone()),
            ..req.clone()
        };
        let answer = dt_serve::execute(&req, &files, None, BTreeMap::new(), rec)?;
        if rec.enabled() {
            rec.add("files", 1);
            rec.add("diagnostics", answer.diagnostics as u64);
            rec.add("errors", answer.errors as u64);
        }
        errors += answer.errors;
        if paths.len() == 1 {
            out.push_str(&answer.output);
        } else if req.format.as_deref() == Some("json") {
            // One object per line, tagged with its file.
            out.push_str(&format!(
                "{{\"path\":\"{}\",\"report\":{}}}\n",
                json::escape(path),
                answer.output.trim_end()
            ));
        } else {
            out.push_str(&format!("== {path}\n{}", answer.output));
        }
    }
    Ok((out, errors))
}

fn diff_cmd(args: &[String]) -> Result<(), CliError> {
    let args = Args::parse("diff", args)?;
    let mut req = request_of("diff", &args)?;
    // The checker gates (`--gate`, `--hb`, `--race`, `--req`), keyed
    // by checker name.
    let mut gates = BTreeMap::new();
    for c in CHECKERS {
        if let Some(v) = args.value(c.diff_flag()) {
            gates.insert(c.name(), LintGate::parse(v)?);
        }
    }
    let [normal, faulty] = args.positional.as_slice() else {
        return Err(usage_of("diff").into());
    };
    req.normal = Some(normal.clone());
    req.faulty = Some(faulty.clone());
    let cache = open_cache(args.value("--cache"))?;
    let obs = ObsOpts::of(&args);
    let live = MetricsRecorder::new();
    let rec = obs.recorder(&live);
    let files = files_named_by_path(&args.positional);
    let threads = req.pipeline_options(None).threads;
    let answer = match dt_serve::execute(&req, &files, cache.clone(), gates, rec) {
        Ok(answer) => answer,
        Err(Failure::Denied { stderr, verdict }) => {
            eprint!("{stderr}");
            // The metrics still describe the work that ran (load + the
            // pre-pass that denied).
            obs.emit(&live, "diff", threads)?;
            return Err(CliError::LintDenied(verdict));
        }
        Err(e) => return Err(e.into()),
    };
    report_cache(cache.as_ref(), rec);
    eprint!("{}", answer.stderr);
    print!("{}", answer.output);
    obs.emit(&live, "diff", threads)?;
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
    let args = Args::parse("fleet", args)?;
    let mut req = request_of("fleet", &args)?;
    let gate = args.gate("--gate", LintGate::Off)?;
    if args.positional.is_empty() {
        return Err(usage_of("fleet").into());
    }
    let files = expand_fleet_paths(&args.positional)?;
    if files.len() < 2 {
        return Err(format!(
            "fleet needs at least 2 runs, got {} ({})",
            files.len(),
            usage_of("fleet")
        )
        .into());
    }
    let named = named_by_stem(&files)?;
    req.corpora = named.iter().map(|(name, _)| name.clone()).collect();
    let cache = open_cache(args.value("--cache"))?;
    let obs = ObsOpts::of(&args);
    let live = MetricsRecorder::new();
    let rec = obs.recorder(&live);
    let answer = dt_serve::execute(
        &req,
        &Corpora::Files(named),
        cache.clone(),
        BTreeMap::new(),
        rec,
    )?;
    report_cache(cache.as_ref(), rec);
    print!("{}", answer.output);
    obs.emit(&live, "fleet", req.fleet_options(None).threads)?;
    if gate == LintGate::Deny {
        if let Some(name) = &answer.outlier {
            return Err(CliError::LintDenied(format!(
                "fleet gate denied: run `{name}` deviates from the fleet consensus"
            )));
        }
    }
    Ok(())
}

fn serve_cmd(args: &[String]) -> Result<(), String> {
    let args = Args::parse("serve", args)?;
    let jobs = args.number("--jobs")?.unwrap_or(0);
    if args.positional.is_empty() {
        return Err(usage_of("serve"));
    }
    let corpora = named_by_stem(&args.positional)?;
    let server = dt_serve::Server::bind(&dt_serve::ServeConfig {
        addr: args.value("--addr").unwrap_or("127.0.0.1:4178").to_string(),
        corpora,
        jobs,
        cache_dir: args.path("--cache"),
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
    let args = Args::parse("query", args)?;
    let [addr, cmd, rest @ ..] = args.positional.as_slice() else {
        return Err(usage_of("query").into());
    };
    let gate = args.gate("--gate", LintGate::Warn)?;
    let mut req = Request {
        id: 1,
        ..request_of(cmd, &args)?
    };
    match (cmd.as_str(), rest) {
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
    // `query <cmd>` takes exactly `cmd`'s wire flags, plus `--gate`
    // where the reply's error count is the verdict (checkers, fleet).
    let gated = cmd == "fleet" || checker(cmd).is_some();
    let accepted =
        |flag: &str| wire_flags(cmd).iter().any(|(n, _)| *n == flag) || (gated && flag == "--gate");
    if let Some((flag, _)) = args.flags.iter().find(|(flag, _)| !accepted(flag)) {
        return Err(unknown_option(flag, "query").into());
    }
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
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
    let args = Args::parse("export", args)?;
    let req = request_of("export", &args)?;
    let params = req.params()?;
    let [normal_path, faulty_path, outdir] = args.positional.as_slice() else {
        return Err(usage_of("export"));
    };
    let cache = open_cache(args.value("--cache"))?;
    let obs = ObsOpts::of(&args);
    let live = MetricsRecorder::new();
    let rec = obs.recorder(&live);
    let normal = {
        let _s = stage(rec, "load");
        load(normal_path)?
    };
    let faulty = {
        let _s = stage(rec, "load");
        load(faulty_path)?
    };
    // Export takes no gate flags; with every gate off the pipeline
    // cannot deny.
    let popts = req.pipeline_options(cache.clone());
    let Ok(d) = try_diff_runs(&normal, &faulty, None, &params, &popts, rec) else {
        unreachable!("gates are off");
    };
    report_cache(cache.as_ref(), rec);
    let dir = PathBuf::from(outdir);
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
    write("report.txt", difftrace::generate_report(&d))?;
    println!("wrote 10 artifacts to {outdir}");
    obs.emit(&live, "export", popts.threads)?;
    Ok(())
}

fn sweep_cmd(args: &[String]) -> Result<(), String> {
    let args = Args::parse("sweep", args)?;
    let mut filters: Vec<FilterConfig> = args
        .values("--filter")
        .iter()
        .map(|v| v.parse())
        .collect::<Result<_, _>>()?;
    let mut attrs: Vec<AttrConfig> = args
        .values("--attrs")
        .iter()
        .map(|v| v.parse())
        .collect::<Result<_, _>>()?;
    let linkage = args
        .value("--linkage")
        .map_or(Ok(cluster::Method::Ward), str::parse)?;
    let jobs = args.number("--jobs")?.unwrap_or(0);
    let [normal_path, faulty_path] = args.positional.as_slice() else {
        return Err(usage_of("sweep"));
    };
    let cache = open_cache(args.value("--cache"))?;
    let obs = ObsOpts::of(&args);
    let live = MetricsRecorder::new();
    let rec = obs.recorder(&live);
    let normal = {
        let _s = stage(rec, "load");
        load(normal_path)?
    };
    let faulty = {
        let _s = stage(rec, "load");
        load(faulty_path)?
    };
    if filters.is_empty() {
        filters = vec![
            FilterConfig::everything(10),
            FilterConfig {
                drop_returns: false,
                ..FilterConfig::everything(10)
            },
        ];
    }
    if attrs.is_empty() {
        attrs = AttrConfig::ALL.to_vec();
    }
    let popts = PipelineOptions {
        threads: jobs,
        cache: cache.clone(),
        ..PipelineOptions::default()
    };
    let rows = sweep(&normal, &faulty, &filters, &attrs, linkage, &popts, rec);
    print!("{}", render_ranking(&rows));
    report_cache(cache.as_ref(), rec);
    obs.emit(&live, "sweep", jobs)?;
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
fn load_policy(path: Option<&str>) -> Result<Policy, String> {
    match path {
        None => Ok(Policy::default()),
        Some(p) => {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            Policy::parse(&text).map_err(|e| format!("{p}: {e}"))
        }
    }
}

fn baseline_record(args: &[String]) -> Result<(), String> {
    let args = Args::parse("baseline record", args)?;
    let req = request_of("baseline record", &args)?;
    let params = req.params()?;
    let [run, out] = args.positional.as_slice() else {
        return Err(usage_of("baseline record"));
    };
    let out_path = PathBuf::from(out);
    if out_path.exists() && !args.has("--force") {
        return Err(format!(
            "refusing to overwrite {out} (pass --force to replace the baseline)"
        ));
    }
    let cache = open_cache(args.value("--cache"))?;
    let obs = ObsOpts::of(&args);
    let live = MetricsRecorder::new();
    let rec = obs.recorder(&live);
    let (set, hb) = {
        let _s = stage(rec, "load");
        load_full(run)?
    };
    let popts = req.pipeline_options(cache.clone());
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
    obs.emit(&live, "baseline-record", popts.threads)?;
    Ok(())
}

fn baseline_check(args: &[String]) -> Result<(), CliError> {
    let args = Args::parse("baseline check", args)?;
    let req = request_of("baseline check", &args)?;
    let format = req.report_format()?;
    let policy = load_policy(args.value("--policy"))?;
    let obs = ObsOpts::of(&args);
    let out_dir = args.path("--out");
    match args.path("--dir") {
        None => {
            if out_dir.is_some() {
                return Err("--out only applies to --dir batch checks".into());
            }
            let [run, bundle] = args.positional.as_slice() else {
                return Err(usage_of("baseline check").into());
            };
            let baseline = load_baseline(bundle)?;
            let params = baseline_params(&baseline)?;
            let cache = open_cache(args.value("--cache"))?;
            let live = MetricsRecorder::new();
            let rec = obs.recorder(&live);
            let (set, hb) = {
                let _s = stage(rec, "load");
                load_full(run)?
            };
            let popts = req.pipeline_options(cache.clone());
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
            obs.emit(&live, "baseline-check", popts.threads)?;
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
            if args.has("--format") {
                return Err(
                    "--format only applies to single-run checks (batch reports are always JSON)"
                        .into(),
                );
            }
            let out = out_dir.ok_or("--dir needs --out OUTDIR for the report bundle")?;
            let [bundle] = args.positional.as_slice() else {
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
            let cache =
                open_cache(args.value("--cache"))?.unwrap_or_else(|| Arc::new(Cache::new()));
            let live = MetricsRecorder::new();
            let rec = obs.recorder(&live);
            let popts = req.pipeline_options(Some(cache.clone()));
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
                    json::escape(&label),
                    if report.passed() { "pass" } else { "fail" },
                    json::escape(&report_name),
                    report.report_hash()
                ));
            }
            let index = format!(
                "{{\"schema\":\"difftrace-baseline-index/v1\",\"baseline\":\"{}\",\
                 \"baseline_hash\":\"{:032x}\",\"runs\":[{}]}}\n",
                json::escape(bundle),
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
            obs.emit(&live, "baseline-check", popts.threads)?;
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
    use difftrace::LintOptions;
    use dt_trace::TraceId;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    /// The request `difftrace <cmd> <flags>…` builds from its flags.
    fn request(argv: &[&str]) -> Request {
        let args = Args::parse(argv[0], &s(&argv[1..])).unwrap();
        request_of(argv[0], &args).unwrap()
    }

    #[test]
    fn help_and_unknown() {
        assert!(dispatch(&[]).is_ok());
        assert!(dispatch(&s(&["help"])).is_ok());
        assert!(dispatch(&s(&["frobnicate"])).is_err());
    }

    #[test]
    fn parse_opts_full() {
        let args = Args::parse(
            "diff",
            &s(&[
                "n.dtts",
                "--filter",
                "11.mpiall.K10",
                "f.dtts",
                "--attrs",
                "doub.noFreq",
                "--linkage",
                "average",
                "--diffnlr",
                "6.4",
                "--threads",
                "4",
                "--hb",
                "warn",
            ]),
        )
        .unwrap();
        assert_eq!(args.positional, s(&["n.dtts", "f.dtts"]));
        assert_eq!(args.value("--hb"), Some("warn"));
        let req = request_of("diff", &args).unwrap();
        let params = req.params().unwrap();
        assert_eq!(params.filter.to_string(), "11.mpiall.K10");
        assert_eq!(params.attrs.to_string(), "doub.noFreq");
        assert_eq!(params.linkage.name(), "average");
        assert_eq!(req.diffnlr_id().unwrap(), Some(TraceId::new(6, 4)));
        assert_eq!(req.pipeline_options(None).threads, 4);
        let args = Args::parse("sweep", &s(&["n.dtts", "f.dtts", "--jobs", "3"])).unwrap();
        assert_eq!(args.number("--jobs").unwrap(), Some(3));
    }

    /// `diff` diagnoses each bad argument before touching a file (none
    /// of the stores named here exists).
    #[test]
    fn parse_opts_rejects_garbage() {
        let cases: &[(&[&str], &str)] = &[
            (&["only-one.dtts"], "usage: difftrace diff"),
            (&["a", "b", "--filter", "zz"], "filter code"),
            (
                &["a", "b", "--linkage", "quantum"],
                "unknown linkage `quantum`",
            ),
            (&["a", "b", "--bogus"], "unknown option `--bogus`"),
            (
                &["a", "b", "--diffnlr", "64"],
                "trace spec wants P.T, got `64`",
            ),
            (&["a", "b", "--jobs", "3"], "unknown option `--jobs`"),
        ];
        for (args, want) in cases {
            let err = dispatch(&s(&[&["diff"], *args].concat())).unwrap_err();
            assert!(err.to_string().contains(want), "{args:?}: {err}");
        }
    }

    /// Every subcommand's HELP synopsis lists exactly the flags its
    /// table accepts (for `query`, the union over the served commands),
    /// and the CACHING / PROFILING headers name exactly the subcommands
    /// that take `--cache` / `--profile`.
    #[test]
    fn help_synopses_match_the_flag_tables() {
        use std::collections::{BTreeMap, BTreeSet};
        let flag_of = |token: &str| {
            let t = token.trim_start_matches('[');
            t.starts_with("--").then(|| {
                t.chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                    .collect::<String>()
            })
        };
        let mut synopsis: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut current: Option<String> = None;
        for line in HELP.lines() {
            if let Some(rest) = line.strip_prefix("  difftrace ") {
                let words: Vec<&str> = rest.split_whitespace().collect();
                current = Some(match words[0] {
                    "baseline" => format!("baseline {}", words[1]),
                    cmd => cmd.to_string(),
                });
            } else if !line.starts_with("          ") {
                current = None;
            }
            if let Some(cmd) = &current {
                let flags = synopsis.entry(cmd.clone()).or_default();
                flags.extend(line.split_whitespace().filter_map(flag_of));
            }
        }
        let mut commands = vec![
            "demo",
            "info",
            "filters",
            "single",
            "diff",
            "fleet",
            "serve",
            "query",
            "export",
            "sweep",
            "cache",
            "baseline record",
            "baseline check",
        ];
        commands.extend(CHECKERS.iter().map(|c| c.name()));
        assert_eq!(
            synopsis.keys().map(String::as_str).collect::<BTreeSet<_>>(),
            commands.iter().copied().collect::<BTreeSet<_>>()
        );
        for cmd in &commands {
            let table: BTreeSet<String> = flags_of(cmd).iter().map(|f| f.0.to_string()).collect();
            assert_eq!(synopsis[*cmd], table, "HELP synopsis of `{cmd}`");
        }
        for (header, flag) in [("CACHING (", "--cache"), ("PROFILING (", "--profile")] {
            let start = HELP.find(header).unwrap() + header.len();
            let listed: BTreeSet<&str> = HELP[start..start + HELP[start..].find(')').unwrap()]
                .split([',', ' ', '\n'])
                .filter(|w| !w.is_empty())
                .collect();
            let takers: BTreeSet<&str> = commands
                .iter()
                .filter(|cmd| flags_of(cmd).iter().any(|f| f.0 == flag))
                .map(|cmd| cmd.split(' ').next().unwrap())
                .collect();
            assert_eq!(listed, takers, "HELP header {header}…)");
        }
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
            for domain in ["expanded", "compressed"] {
                let render = |threads: usize| {
                    check_render(
                        &[n.clone(), f.clone()],
                        &request(&[
                            "lint",
                            "--format",
                            format,
                            "--threads",
                            &threads.to_string(),
                            "--domain",
                            domain,
                        ]),
                        &dt_obs::NOOP,
                    )
                    .unwrap()
                };
                let base = render(1);
                assert_eq!(base, render(2), "{format}/{domain}");
                assert_eq!(base, render(0), "{format}/{domain}");
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
            std::slice::from_ref(&n),
            &request(&["lint", "--format", "json", "--filter", "11.cust:*bad.K10"]),
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
            std::slice::from_ref(&f),
            &request(&["hbcheck", "--format", "text"]),
            &dt_obs::NOOP,
        )
        .unwrap();
        assert!(errors > 0);
        assert!(text.contains("HB001"), "{text}");
        assert!(text.contains("wait-for cycle"), "{text}");

        // Byte-identical output across thread counts and domains.
        for format in ["text", "json"] {
            let render = |threads: usize, domain: &str| {
                check_render(
                    &[n.clone(), f.clone()],
                    &request(&[
                        "hbcheck",
                        "--format",
                        format,
                        "--threads",
                        &threads.to_string(),
                        "--domain",
                        domain,
                    ]),
                    &dt_obs::NOOP,
                )
                .unwrap()
            };
            let base = render(1, "expanded");
            for domain in ["expanded", "compressed"] {
                for threads in [1usize, 2, 0] {
                    assert_eq!(base, render(threads, domain), "{format}/{domain}/{threads}");
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
            std::slice::from_ref(&f),
            &request(&["racecheck", "--format", "text"]),
            &dt_obs::NOOP,
        )
        .unwrap();
        assert!(errors > 0);
        assert!(text.contains("RC001"), "{text}");
        assert!(text.contains("counter"), "{text}");

        // Byte-identical output across thread counts and domains.
        for format in ["text", "json"] {
            let render = |threads: usize, domain: &str| {
                check_render(
                    &[n.clone(), f.clone()],
                    &request(&[
                        "racecheck",
                        "--format",
                        format,
                        "--threads",
                        &threads.to_string(),
                        "--domain",
                        domain,
                    ]),
                    &dt_obs::NOOP,
                )
                .unwrap()
            };
            let base = render(1, "expanded");
            for domain in ["expanded", "compressed"] {
                for threads in [1usize, 2, 0] {
                    assert_eq!(base, render(threads, domain), "{format}/{domain}/{threads}");
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
            std::slice::from_ref(&lf),
            &request(&["racecheck", "--format", "text"]),
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
            std::slice::from_ref(&f),
            &request(&["reqcheck", "--format", "text"]),
            &dt_obs::NOOP,
        )
        .unwrap();
        assert!(errors > 0);
        assert!(text.contains("RQ001"), "{text}");
        assert!(text.contains("MPI_Isend:dst=3,tag=0"), "{text}");

        // Byte-identical output across thread counts and domains.
        for format in ["text", "json"] {
            let render = |threads: usize, domain: &str| {
                check_render(
                    &[n.clone(), f.clone()],
                    &request(&[
                        "reqcheck",
                        "--format",
                        format,
                        "--threads",
                        &threads.to_string(),
                        "--domain",
                        domain,
                    ]),
                    &dt_obs::NOOP,
                )
                .unwrap()
            };
            let base = render(1, "expanded");
            for domain in ["expanded", "compressed"] {
                for threads in [1usize, 2, 0] {
                    assert_eq!(base, render(threads, domain), "{format}/{domain}/{threads}");
                }
            }
        }

        // The compressed domain reports its fold counter through
        // --metrics plumbing.
        let live = MetricsRecorder::new();
        check_render(
            std::slice::from_ref(&f),
            &request(&["reqcheck", "--domain", "compressed"]),
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
            std::slice::from_ref(&cf),
            &request(&["reqcheck", "--format", "text"]),
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
            &["fleet", "a", "b", "--suspect", "x", "--suspect", "y"],
            &["export", "n", "f", "out", "--profile", "--profile"],
            &["query", "addr", "single", "c", "--k", "1", "--k", "2"],
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
            &["fleet", "a", "b", "--bogus"],
            &["query", "addr", "metrics", "--bogus"],
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
        let o = Args::parse(
            "sweep",
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
        )
        .unwrap();
        assert_eq!(o.values("--filter").len(), 2);
        assert_eq!(o.values("--attrs").len(), 2);
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

    /// The batch index is valid JSON whatever the run paths hold: a
    /// tab in a run name is escaped, and parses back to the same name.
    #[test]
    fn batch_index_escapes_control_characters() {
        let dir = std::env::temp_dir().join("difftrace_cli_index_escape_test");
        std::fs::remove_dir_all(&dir).ok();
        let dirs = dir.to_str().unwrap().to_string();
        dispatch(&s(&["demo", "oddeven", &dirs])).unwrap();
        let b = format!("{dirs}/base.dtb");
        dispatch(&s(&[
            "baseline",
            "record",
            &format!("{dirs}/normal.dtts"),
            &b,
        ]))
        .unwrap();
        let runs = format!("{dirs}/runs");
        std::fs::create_dir_all(&runs).unwrap();
        let run = format!("{runs}/tab\there.dtts");
        std::fs::copy(format!("{dirs}/normal.dtts"), &run).unwrap();
        let out = format!("{dirs}/reports");
        dispatch(&s(&[
            "baseline", "check", "--dir", &runs, "--out", &out, &b,
        ]))
        .unwrap();
        let index = std::fs::read_to_string(format!("{out}/index.json")).unwrap();
        assert!(index.contains("tab\\there.dtts"), "{index}");
        let doc = dt_obs::json::parse(&index).expect("valid index JSON");
        let field = |v: &dt_obs::json::Value, key: &str| {
            let members = v.as_object().expect("object");
            members.iter().find(|(k, _)| k == key).expect(key).1.clone()
        };
        let rows = field(&doc, "runs");
        let row = &rows.as_array().expect("runs array")[0];
        assert_eq!(field(row, "run"), dt_obs::json::Value::Str(run));
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
            std::slice::from_ref(&f),
            &request(&["lint", "--format", "text", "--trace", &id.to_string()]),
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
