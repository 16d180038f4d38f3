//! The daemon: corpora behind lazily-decoded [`IndexedSet`]s, a
//! persistent [`difftrace::sync::Pool`] scheduling query execution, a
//! shared in-memory analysis cache as the cross-request hot set, and a
//! live [`MetricsRecorder`] the `metrics` query snapshots.
//!
//! Concurrency model: one OS thread per *connection* reads frames and
//! writes replies in order; each query's analysis runs as one job on
//! the worker pool, so at most `jobs` analyses execute at once no
//! matter how many clients connect. Every analysis entry point used
//! here is observational-deterministic (byte-identical output at any
//! thread count), and per-corpus decode caches are interior-mutable
//! behind per-trace once-cells — so replies are byte-identical to the
//! one-shot CLI at any interleaving, which the serve-equivalence suite
//! enforces.

use crate::protocol::{self, Request};
use crate::render;
use difftrace::sync::Pool;
use difftrace::{
    checker, AnyChecker, AttrConfig, AttrKind, CheckInput, FilterConfig, FreqMode, LintDomain,
    LintOptions, Params, PipelineOptions,
};
use dt_cache::Cache;
use dt_obs::{MetricsRecorder, Recorder};
use dt_trace::store::IndexedSet;
use dt_trace::TraceSet;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// What to serve and how.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:4178` (`:0` picks a free port).
    pub addr: String,
    /// Named corpora: `(name, path-to-.dtts)`.
    pub corpora: Vec<(String, PathBuf)>,
    /// Worker-pool size (`0` = all available parallelism).
    pub jobs: usize,
    /// Persist the shared analysis cache here (in-memory when `None`).
    pub cache_dir: Option<PathBuf>,
}

struct State {
    corpora: BTreeMap<String, IndexedSet>,
    cache: Arc<Cache>,
    rec: MetricsRecorder,
    pool: Pool,
    stop: AtomicBool,
    addr: SocketAddr,
}

/// A bound (not yet running) daemon. Splitting bind from run lets the
/// caller learn the actual port (`:0` requests) before serving, and
/// lets tests run the accept loop on a thread they control.
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

impl Server {
    /// Load every corpus lazily, open the cache, spawn the pool, and
    /// bind the socket. No request runs yet.
    pub fn bind(cfg: &ServeConfig) -> Result<Server, String> {
        if cfg.corpora.is_empty() {
            return Err("nothing to serve: no corpora given".to_string());
        }
        let mut corpora = BTreeMap::new();
        for (name, path) in &cfg.corpora {
            let ix = IndexedSet::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
            if corpora.insert(name.clone(), ix).is_some() {
                return Err(format!("duplicate corpus name `{name}`"));
            }
        }
        let cache = match &cfg.cache_dir {
            None => Arc::new(Cache::new()),
            Some(d) => Arc::new(
                Cache::with_dir(d).map_err(|e| format!("opening cache {}: {e}", d.display()))?,
            ),
        };
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("binding {}: {e}", cfg.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("resolving listen address: {e}"))?;
        Ok(Server {
            listener,
            state: Arc::new(State {
                corpora,
                cache,
                rec: MetricsRecorder::new(),
                pool: Pool::new(cfg.jobs),
                stop: AtomicBool::new(false),
                addr,
            }),
        })
    }

    /// The bound address (with the real port when `:0` was asked for).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Worker-pool size actually spawned.
    pub fn workers(&self) -> usize {
        self.state.pool.threads()
    }

    /// Corpus names being served, sorted.
    pub fn corpus_names(&self) -> Vec<String> {
        self.state.corpora.keys().cloned().collect()
    }

    /// Accept connections until a `shutdown` request arrives. Each
    /// connection gets its own reader thread; replies to one
    /// connection go out in request order. Connection threads are
    /// detached, not joined: an idle client blocked in a read must not
    /// be able to hold up shutdown. They share only the `Arc`'d state,
    /// which outlives this call, and die when their client disconnects.
    pub fn run(self) -> Result<(), String> {
        for stream in self.listener.incoming() {
            if self.state.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let state = Arc::clone(&self.state);
            std::thread::spawn(move || handle_connection(&state, stream));
        }
        Ok(())
    }
}

fn handle_connection(state: &Arc<State>, stream: TcpStream) {
    let Ok(reader) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    for line in BufReader::new(reader).lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let reply = answer(state, &line);
        if writeln!(writer, "{reply}")
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
        if state.stop.load(Ordering::SeqCst) {
            break;
        }
    }
}

/// One frame in, one reply line out. Never panics the daemon: parse
/// failures become diagnosed error replies, and a panicking analysis
/// job is caught at the pool boundary and reported as an error too.
fn answer(state: &Arc<State>, line: &str) -> String {
    state.rec.add("requests", 1);
    let req = match protocol::parse_request(line) {
        Ok(req) => req,
        Err(e) => {
            state.rec.add("requests_malformed", 1);
            return protocol::err_line(0, &e);
        }
    };
    state.rec.add(&format!("requests_{}", req.cmd), 1);
    let id = req.id;
    match req.cmd.as_str() {
        // Control-plane commands answer inline — they must not queue
        // behind long analyses.
        "metrics" => protocol::ok_line(id, &metrics_text(state), 0),
        "shutdown" => {
            state.stop.store(true, Ordering::SeqCst);
            // Unblock the accept loop so `run` can join and return.
            let _ = TcpStream::connect(state.addr);
            protocol::ok_line(id, "shutting down\n", 0)
        }
        _ => {
            let st = Arc::clone(state);
            let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                state.pool.run(move || execute(&st, &req))
            }));
            match ran {
                Ok(Ok((output, errors))) => protocol::ok_line(id, &output, errors as u64),
                Ok(Err(e)) => {
                    state.rec.add("requests_failed", 1);
                    protocol::err_line(id, &e)
                }
                Err(_) => {
                    state.rec.add("requests_panicked", 1);
                    protocol::err_line(id, "internal error: query panicked (daemon still up)")
                }
            }
        }
    }
}

/// `GET /metrics`-style text: one `name value` line per counter, the
/// live dt-obs counters plus the store-level decode tally and corpus
/// count. Deterministic for a given request history.
fn metrics_text(state: &State) -> String {
    let mut counters: BTreeMap<String, u64> = state.rec.counters().into_iter().collect();
    counters.insert(
        "store_trace_decodes".to_string(),
        state.corpora.values().map(|ix| ix.decode_count()).sum(),
    );
    counters.insert("corpora".to_string(), state.corpora.len() as u64);
    counters.insert("workers".to_string(), state.pool.threads() as u64);
    let mut out = String::new();
    for (k, v) in counters {
        out.push_str(&format!("{k} {v}\n"));
    }
    out
}

fn corpus<'s>(
    state: &'s State,
    name: &Option<String>,
    field: &str,
) -> Result<&'s IndexedSet, String> {
    let name = name
        .as_deref()
        .ok_or_else(|| format!("request needs a `{field}` field"))?;
    state.corpora.get(name).ok_or_else(|| {
        format!(
            "unknown corpus `{name}` (serving: {})",
            state.corpora.keys().cloned().collect::<Vec<_>>().join(", ")
        )
    })
}

/// The set a query analyzes: the whole corpus (decoded once, shared
/// across requests) or a lazily-decoded single-trace subset.
enum WorkingSet {
    Full(Arc<TraceSet>),
    Sub(TraceSet),
}

impl WorkingSet {
    fn as_set(&self) -> &TraceSet {
        match self {
            WorkingSet::Full(s) => s,
            WorkingSet::Sub(s) => s,
        }
    }
}

fn working_set(ix: &IndexedSet, trace: &Option<String>) -> Result<WorkingSet, String> {
    match trace {
        None => Ok(WorkingSet::Full(ix.full_set().map_err(|e| e.to_string())?)),
        Some(spec) => {
            let id = render::parse_trace_id(spec)?;
            Ok(WorkingSet::Sub(
                ix.subset(&[id]).map_err(|e| e.to_string())?,
            ))
        }
    }
}

fn format_of(req: &Request) -> Result<&str, String> {
    match req.format.as_deref() {
        None => Ok("text"),
        Some(f @ ("text" | "json")) => Ok(f),
        Some(other) => Err(format!("unknown format `{other}` (text|json)")),
    }
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

fn params_of(req: &Request) -> Result<Params, String> {
    let filter = match &req.filter {
        Some(f) => f.parse::<FilterConfig>()?,
        None => FilterConfig::everything(10),
    };
    let attrs = match &req.attrs {
        Some(a) => a.parse::<AttrConfig>()?,
        None => AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::Actual,
        },
    };
    let linkage = match &req.linkage {
        Some(name) => cluster::Method::ALL
            .into_iter()
            .find(|m| m.name() == name.as_str())
            .ok_or_else(|| format!("unknown linkage `{name}`"))?,
        None => cluster::Method::Ward,
    };
    Ok(Params {
        filter,
        attrs,
        linkage,
    })
}

/// Run one analysis query. Returns `(stdout-equivalent output,
/// error-severity diagnostic count)`.
fn execute(state: &State, req: &Request) -> Result<(String, usize), String> {
    let rec: &dyn Recorder = &state.rec;
    match req.cmd.as_str() {
        "fleet" => {
            no_trace_field(req)?;
            if req.corpora.len() < 2 {
                return Err(format!(
                    "fleet needs at least 2 corpora, got {}",
                    req.corpora.len()
                ));
            }
            let params = params_of(req)?;
            let format = format_of(req)?;
            let opts = difftrace::FleetOptions {
                threads: req.threads.unwrap_or(0),
                cache: Some(Arc::clone(&state.cache)),
            };
            let mut fleet = difftrace::FleetRun::new(params.clone());
            for name in &req.corpora {
                let ix = state.corpora.get(name).ok_or_else(|| {
                    format!(
                        "unknown corpus `{name}` (serving: {})",
                        state.corpora.keys().cloned().collect::<Vec<_>>().join(", ")
                    )
                })?;
                let set = ix.full_set().map_err(|e| e.to_string())?;
                fleet
                    .add_run_rec(name, &set, &opts, rec)
                    .map_err(|e| e.to_string())?;
            }
            let report = fleet.report();
            let out = render::fleet_summary(&report, &params, req.suspect.as_deref(), format)?;
            Ok((out, usize::from(report.outlier.is_some())))
        }
        "single" => {
            let ix = corpus(state, &req.corpus, "corpus")?;
            let params = params_of(req)?;
            let k = req.k.unwrap_or(0);
            let ws = working_set(ix, &req.trace)?;
            let popts = PipelineOptions {
                threads: req.threads.unwrap_or(1),
                cache: Some(Arc::clone(&state.cache)),
                ..PipelineOptions::default()
            };
            let set = ws.as_set();
            let report = difftrace::analyze_single_opts_rec(set, &params, k, &popts, rec);
            Ok((render::single_summary(set.len(), &report), 0))
        }
        "diff" => {
            no_trace_field(req)?;
            let normal_ix = corpus(state, &req.normal, "normal")?;
            let faulty_ix = corpus(state, &req.faulty, "faulty")?;
            let params = params_of(req)?;
            let diffnlr = match &req.diffnlr {
                Some(spec) => Some(render::parse_trace_id(spec)?),
                None => None,
            };
            let normal = normal_ix.full_set().map_err(|e| e.to_string())?;
            let faulty = faulty_ix.full_set().map_err(|e| e.to_string())?;
            let popts = PipelineOptions {
                threads: req.threads.unwrap_or(0),
                cache: Some(Arc::clone(&state.cache)),
                ..PipelineOptions::default()
            };
            let Ok(d) = difftrace::try_diff_runs(&normal, &faulty, None, &params, &popts, rec)
            else {
                unreachable!("gates are off");
            };
            let out = if req.full {
                difftrace::generate_report(&d, &difftrace::ReportOptions::default())
            } else {
                render::diff_summary(&d, &params, diffnlr)
            };
            Ok((out, 0))
        }
        other => match checker(other) {
            Some(c) => check(state, c, req),
            None => Err(format!("unknown command `{other}`")),
        },
    }
}

/// Run one checker query — the daemon twin of `difftrace <checker>`.
/// Lint-only fields (`deep`, `filter`, `trace`) apply to checkers that
/// take them ([`AnyChecker::lint_options`]); others reject `trace` and
/// ignore the rest, like their CLI subcommands.
fn check(state: &State, c: &dyn AnyChecker, req: &Request) -> Result<(String, usize), String> {
    if !c.lint_options() {
        no_trace_field(req)?;
    }
    let ix = corpus(state, &req.corpus, "corpus")?;
    let format = format_of(req)?;
    if c.needs_hb() && ix.hb().world_size() == 0 {
        return Err(format!(
            "corpus `{}`: no happens-before section — re-record the run (e.g. \
             `difftrace demo`) to get one",
            req.corpus.as_deref().unwrap_or_default()
        ));
    }
    let mut opts = LintOptions::default();
    if let Some(d) = &req.domain {
        opts.domain = LintDomain::parse(d)?;
    }
    if let Some(t) = req.threads {
        opts.threads = t;
    }
    if c.lint_options() {
        opts.deep = req.deep;
        if let Some(f) = &req.filter {
            opts.filter = Some(FilterConfig::parse_lenient(f)?);
        }
    }
    let ws = working_set(ix, &req.trace)?;
    let input = CheckInput {
        set: ws.as_set(),
        hb: Some(ix.hb()),
    };
    let report = c.check(&input, &opts, &state.rec);
    let out = if format == "json" {
        report.render_json()
    } else {
        report.render_text()
    };
    Ok((out, report.error_count()))
}
