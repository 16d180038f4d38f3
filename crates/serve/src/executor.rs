//! The one request executor. Every analysis query — `single`, `diff`,
//! `fleet` and each checker — runs through [`execute`], whether the
//! daemon received it as a wire frame or the one-shot CLI built it from
//! its command line. The two front ends differ only in how they reach
//! the corpora ([`Corpora`]), in the cache they pass, and in the diff
//! gates, which only the CLI has; what a query reads, in which order it
//! diagnoses, what it runs and how it renders is this module.

use crate::protocol::Request;
use crate::render;
use difftrace::{checker, AnyChecker, CheckInput, FleetRun, LintGate, PipelineOptions, CHECKERS};
use dt_cache::Cache;
use dt_obs::{stage, Recorder};
use dt_trace::store::IndexedSet;
use dt_trace::{TraceId, TraceSet};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The corpora a request may name.
pub enum Corpora<'a> {
    /// The daemon's corpora by name, opened when it started.
    Served(&'a BTreeMap<String, Arc<IndexedSet>>),
    /// Stores named on a command line, `(name, path)`. Each is opened
    /// when the query reads it — so an unreadable file is diagnosed
    /// after the request's options, as the one-shot CLI always did —
    /// and closed when the query is done with it.
    Files(Vec<(String, PathBuf)>),
}

impl Corpora<'_> {
    /// Diagnose a name no corpus has. Files are named by the command
    /// line itself, so only a served name can be unknown.
    fn find(&self, name: &str) -> Result<(), String> {
        match self {
            Corpora::Served(_) => self.open(name).map(|_| ()),
            Corpora::Files(_) => Ok(()),
        }
    }

    fn open(&self, name: &str) -> Result<Arc<IndexedSet>, String> {
        match (self, self.path(name)) {
            (Corpora::Served(map), _) => map.get(name).cloned().ok_or_else(|| {
                format!(
                    "unknown corpus `{name}` (serving: {})",
                    map.keys().cloned().collect::<Vec<_>>().join(", ")
                )
            }),
            (Corpora::Files(_), Some(path)) => IndexedSet::open(path)
                .map(Arc::new)
                .map_err(|e| format!("{}: {e}", path.display())),
            (Corpora::Files(_), None) => Err(format!("unknown corpus `{name}`")),
        }
    }

    /// The file `name` names; `None` for a served corpus, which
    /// diagnoses by the name the client chose.
    fn path(&self, name: &str) -> Option<&Path> {
        match self {
            Corpora::Served(_) => None,
            Corpora::Files(files) => files
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, path)| path.as_path()),
        }
    }
}

/// One executed query.
#[derive(Debug, Default)]
pub struct Answer {
    /// The rendered report: the one-shot CLI's stdout and the served
    /// reply's `output`, byte for byte.
    pub output: String,
    /// The reply's `errors`: a checker report's error-severity
    /// diagnostics, `1` for a fleet with an outlier, `0` otherwise.
    pub errors: usize,
    /// A checker report's diagnostics of any severity (`0` otherwise).
    pub diagnostics: usize,
    /// `diff` with gates: what the CLI prints on stderr — a note for
    /// each gate that had no happens-before logs to run on, then each
    /// gated checker's findings. Empty without gates.
    pub stderr: String,
    /// `fleet`: the run the fleet singles out, if any.
    pub outlier: Option<String>,
}

/// Why a query produced no answer.
#[derive(Debug)]
pub enum Failure {
    /// A diagnosed error: the reply's `error`, the CLI's exit-2 message.
    Error(String),
    /// A gated `diff` pre-pass refused the inputs (only with gates):
    /// what the CLI prints on stderr (as [`Answer::stderr`], with both
    /// reports of the denying checker in place of the findings), and
    /// the verdict.
    Denied { stderr: String, verdict: String },
}

impl From<String> for Failure {
    fn from(e: String) -> Failure {
        Failure::Error(e)
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Error(e) | Failure::Denied { verdict: e, .. } => write!(f, "{e}"),
        }
    }
}

/// Run one analysis query against `corpora`, sharing `cache`, and
/// render it. `gates` are the diff pre-pass gates, keyed by checker
/// name; the daemon passes none.
pub fn execute(
    req: &Request,
    corpora: &Corpora,
    cache: Option<Arc<Cache>>,
    gates: BTreeMap<&'static str, LintGate>,
    rec: &dyn Recorder,
) -> Result<Answer, Failure> {
    match req.cmd.as_str() {
        "single" => single(req, corpora, cache, rec),
        "diff" => diff(req, corpora, cache, gates, rec),
        "fleet" => fleet(req, corpora, cache, rec),
        other => match checker(other) {
            Some(c) => check(c, req, corpora, rec),
            None => Err(format!("unknown command `{other}`").into()),
        },
    }
}

fn field<'r>(value: &'r Option<String>, field: &str) -> Result<&'r str, String> {
    value
        .as_deref()
        .ok_or_else(|| format!("request needs a `{field}` field"))
}

fn no_trace_field(req: &Request) -> Result<(), String> {
    if req.trace.is_some() {
        return Err(format!(
            "`trace` is only supported for lint and single queries, not `{}`",
            req.cmd
        ));
    }
    Ok(())
}

/// Read `name`'s traces — all of them, or only trace `only` through
/// the offset index — under the `load` stage, and return them with the
/// open store. With `needs_hb`, a store without a happens-before
/// section is refused before any trace is decoded.
fn load(
    corpora: &Corpora,
    name: &str,
    only: Option<TraceId>,
    needs_hb: bool,
    rec: &dyn Recorder,
) -> Result<(Arc<TraceSet>, Arc<IndexedSet>), String> {
    let _s = stage(rec, "load");
    let store = corpora.open(name)?;
    let path = corpora.path(name);
    if needs_hb && store.hb().world_size() == 0 {
        let what = path.map_or_else(|| format!("corpus `{name}`"), |p| p.display().to_string());
        return Err(format!(
            "{what}: no happens-before section — re-record the run (e.g. `difftrace demo`) \
             to get one"
        ));
    }
    let set = match only {
        None => store.full_set(),
        Some(id) => store.subset(&[id]).map(Arc::new),
    };
    let set = set.map_err(|e| match path {
        Some(path) => format!("{}: {e}", path.display()),
        None => e.to_string(),
    })?;
    if only.is_some() && path.is_some() {
        // A file's decode tally (`store_trace_decodes`) shows that a
        // one-trace read decoded that trace only.
        store.report_to(rec);
    }
    Ok((set, store))
}

fn single(
    req: &Request,
    corpora: &Corpora,
    cache: Option<Arc<Cache>>,
    rec: &dyn Recorder,
) -> Result<Answer, Failure> {
    let name = field(&req.corpus, "corpus")?;
    corpora.find(name)?;
    let params = req.params()?;
    let trace = req.trace_id()?;
    let (set, _) = load(corpora, name, trace, false, rec)?;
    let popts = req.pipeline_options(cache);
    let report =
        difftrace::analyze_single_opts_rec(&set, &params, req.flat_clusters(), &popts, rec);
    Ok(Answer {
        output: render::single_summary(set.len(), &report),
        ..Answer::default()
    })
}

fn diff(
    req: &Request,
    corpora: &Corpora,
    cache: Option<Arc<Cache>>,
    gates: BTreeMap<&'static str, LintGate>,
    rec: &dyn Recorder,
) -> Result<Answer, Failure> {
    no_trace_field(req)?;
    let normal = field(&req.normal, "normal")?;
    corpora.find(normal)?;
    let faulty = field(&req.faulty, "faulty")?;
    corpora.find(faulty)?;
    let params = req.params()?;
    let diffnlr = req.diffnlr_id()?;
    let (normal, normal_store) = load(corpora, normal, None, false, rec)?;
    let (faulty, faulty_store) = load(corpora, faulty, None, false, rec)?;
    let popts = PipelineOptions {
        gates,
        ..req.pipeline_options(cache)
    };
    // Checkers that need happens-before logs run only when both runs
    // carry one.
    let have_logs = normal_store.hb().world_size() > 0 && faulty_store.hb().world_size() > 0;
    let mut stderr = String::new();
    for c in CHECKERS.iter().filter(|c| c.needs_hb() && !have_logs) {
        if popts.gate(c.name()) != LintGate::Off {
            stderr.push_str(&format!(
                "note: {} ignored — the inputs carry no happens-before section\n",
                c.diff_flag()
            ));
        }
    }
    let hb_logs = have_logs.then(|| (normal_store.hb(), faulty_store.hb()));
    let d = match difftrace::try_diff_runs(&normal, &faulty, hb_logs, &params, &popts, rec) {
        Ok(d) => d,
        Err(denied) => {
            return Err(Failure::Denied {
                stderr: stderr + &denied.render_reports(),
                verdict: denied.to_string(),
            })
        }
    };
    stderr.extend(CHECKERS.iter().map(|c| c.findings(&d)));
    let output = if req.full {
        difftrace::generate_report(&d)
    } else {
        render::diff_summary(&d, &params, diffnlr)
    };
    Ok(Answer {
        output,
        stderr,
        ..Answer::default()
    })
}

fn fleet(
    req: &Request,
    corpora: &Corpora,
    cache: Option<Arc<Cache>>,
    rec: &dyn Recorder,
) -> Result<Answer, Failure> {
    no_trace_field(req)?;
    if req.corpora.len() < 2 {
        return Err(format!("fleet needs at least 2 corpora, got {}", req.corpora.len()).into());
    }
    let params = req.params()?;
    let format = req.report_format()?;
    let opts = req.fleet_options(cache);
    let mut fleet = FleetRun::new(params.clone());
    for name in &req.corpora {
        let (set, _) = load(corpora, name, None, false, rec)?;
        fleet
            .add_run_rec(name, &set, &opts, rec)
            .map_err(|e| e.to_string())?;
    }
    let report = fleet.report();
    Ok(Answer {
        output: render::fleet_summary(&report, &params, req.suspect.as_deref(), format)?,
        errors: usize::from(report.outlier.is_some()),
        outlier: report.outlier,
        ..Answer::default()
    })
}

/// Lint-only fields (`deep`, `filter`, `trace`) apply to checkers that
/// take them ([`AnyChecker::lint_options`]); others reject `trace` and
/// ignore the rest, which only raw frames can carry.
fn check(
    c: &dyn AnyChecker,
    req: &Request,
    corpora: &Corpora,
    rec: &dyn Recorder,
) -> Result<Answer, Failure> {
    if !c.lint_options() {
        no_trace_field(req)?;
    }
    let name = field(&req.corpus, "corpus")?;
    corpora.find(name)?;
    let format = req.report_format()?;
    let opts = req.lint_options(c)?;
    let trace = req.trace_id()?;
    let (set, store) = load(corpora, name, trace, c.needs_hb(), rec)?;
    // Only a checker that reads the happens-before log keeps the store
    // open while it runs.
    let store = c.needs_hb().then_some(store);
    let report = {
        let _s = stage(rec, c.name());
        let hb = store.as_deref().map(IndexedSet::hb);
        c.check(&CheckInput { set: &set, hb }, &opts, rec)
    };
    let output = if format == "json" {
        report.render_json()
    } else {
        report.render_text()
    };
    Ok(Answer {
        output,
        errors: report.error_count(),
        diagnostics: report.diagnostics().len(),
        ..Answer::default()
    })
}
