//! The two daemon workloads. Both run an in-process `dt_serve::Server`
//! on loopback with two workers over the same corpora, send the seven
//! query kinds, and check every reply against the direct library render
//! of the same query computed before set-up.
//!
//! * `serve-mixed`: one warm daemon driven by two closed-loop clients.
//!   Each client walks one fixed cyclic mix of the seven kinds, the
//!   second starting half a cycle after the first, and sends its next
//!   query only after the previous reply arrived. One op is one query
//!   round trip.
//! * `serve-cold`: one op is a whole daemon lifecycle: bind a fresh
//!   daemon (cold cache, nothing decoded), answer one query of each
//!   kind from one client, shut it down.

use crate::compose::{self, default_params, verdict_bits, Counts};
use crate::inputs::{self, Corpus};
use crate::measure::{self, Metrics, Window};
use crate::spans::Tracer;
use crate::{Outcome, RunArgs, SETUP_REPEATS};
use difftrace::{HbOptions, LintOptions, PipelineOptions, RaceOptions, ReqOptions};
use dt_cache::{Cache, CacheStats};
use dt_serve::protocol::{self, Request};
use dt_serve::{render, ServeConfig, Server};
use dt_trace::store::IndexedSet;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon worker-pool size and serve-mixed's closed-loop client count.
const JOBS: usize = 2;
const CLIENTS: usize = 2;

/// Query kinds and how often each appears in one serve-mixed cycle.
/// The weights keep p50 and p90 inside one kind's latency band each
/// (see README.md); the cycle interleaves the kinds evenly.
const MIX: &[(&str, usize)] = &[
    ("lint", 2),
    ("hbcheck", 4),
    ("racecheck", 4),
    ("reqcheck", 4),
    ("single", 4),
    ("diff", 1),
    ("fleet", 1),
];

/// Direct-call repetitions per kind in the traced run.
const DIRECT_REPS: usize = 15;

fn fleet_names() -> Vec<String> {
    let mut v: Vec<String> = (0..inputs::FLEET_HEALTHY)
        .map(|i| format!("run-{i}"))
        .collect();
    v.push("fault".to_string());
    v
}

/// The one query of each kind, as a client sends it. Every query pins
/// `threads` to 1, so at most `JOBS` analysis threads ever run.
fn query(kind: &str, seed: u64) -> Request {
    let mut r = Request {
        id: 1,
        cmd: kind.to_string(),
        threads: Some(1),
        ..Request::default()
    };
    let corpus = |c: &str| Some(c.to_string());
    match kind {
        "lint" => r.corpus = corpus("lulesh-faulty"),
        "hbcheck" => r.corpus = corpus("lulesh-faulty"),
        "racecheck" => r.corpus = corpus("omp-faulty"),
        "reqcheck" => r.corpus = corpus("leak-faulty"),
        "single" => {
            // One LULESH trace (8 ranks × 4 threads), drawn from the seed.
            r.corpus = corpus("lulesh-normal");
            r.trace = Some(format!("{}.{}", seed % 8, (seed / 8) % 4));
        }
        "diff" => {
            r.normal = corpus("lulesh-normal");
            r.faulty = corpus("lulesh-faulty");
        }
        "fleet" => r.corpora = fleet_names(),
        other => unreachable!("unknown query kind {other}"),
    }
    r
}

/// The kinds of one serve-mixed cycle, spread evenly (smooth weighted
/// round robin).
fn cycle() -> Vec<usize> {
    let total: usize = MIX.iter().map(|(_, w)| w).sum();
    let mut credit = vec![0i64; MIX.len()];
    (0..total)
        .map(|_| {
            for (c, (_, w)) in credit.iter_mut().zip(MIX) {
                *c += *w as i64;
            }
            let k = (0..MIX.len())
                .max_by_key(|&k| (credit[k], std::cmp::Reverse(k)))
                .expect("non-empty mix");
            credit[k] -= total as i64;
            k
        })
        .collect()
}

/// The daemon's answer to `req`, computed by calling the library
/// directly with the daemon's option defaults (`dt_serve`'s
/// `execute`).
fn direct(req: &Request, ix: &BTreeMap<String, IndexedSet>, cache: &Arc<Cache>) -> String {
    let full = |name: &Option<String>| {
        ix[name.as_deref().expect("corpus field")]
            .full_set()
            .expect("generated store decodes")
    };
    let threads = req.threads.expect("queries pin threads");
    match req.cmd.as_str() {
        "lint" => {
            let opts = LintOptions {
                threads,
                ..LintOptions::default()
            };
            difftrace::lint_set(&full(&req.corpus), &opts).render_text()
        }
        "hbcheck" => {
            let hb = ix[req.corpus.as_deref().expect("corpus")].hb();
            let opts = HbOptions {
                threads,
                ..HbOptions::default()
            };
            difftrace::hbcheck_set(&full(&req.corpus), hb, &opts).render_text()
        }
        "racecheck" => {
            let opts = RaceOptions {
                threads,
                ..RaceOptions::default()
            };
            difftrace::racecheck_set(&full(&req.corpus), &opts).render_text()
        }
        "reqcheck" => {
            let opts = ReqOptions {
                threads,
                ..ReqOptions::default()
            };
            difftrace::reqcheck_set(&full(&req.corpus), &opts).render_text()
        }
        "single" => {
            let spec = req.trace.as_deref().expect("single names a trace");
            let id = render::parse_trace_id(spec).expect("valid trace spec");
            let set = ix[req.corpus.as_deref().expect("corpus")]
                .subset(&[id])
                .expect("trace present");
            let popts = PipelineOptions {
                threads,
                cache: Some(Arc::clone(cache)),
                ..PipelineOptions::default()
            };
            let params = default_params();
            let report =
                difftrace::analyze_single_opts_rec(&set, &params, 0, &popts, &dt_obs::NOOP);
            render::single_summary(set.len(), &report)
        }
        "diff" => {
            let popts = PipelineOptions {
                threads,
                cache: Some(Arc::clone(cache)),
                ..PipelineOptions::default()
            };
            let params = default_params();
            let (n, f) = (full(&req.normal), full(&req.faulty));
            let d = difftrace::diff_runs_opts(&n, &f, &params, &popts);
            render::diff_summary(&d, &params, None)
        }
        "fleet" => {
            let (report, ..) = fleet(req, ix, cache);
            render::fleet_summary(&report, &default_params(), None, "text").expect("text format")
        }
        other => unreachable!("unknown query kind {other}"),
    }
}

/// Fold the fleet query's runs and report: the report, the fold and
/// report times (ms), and the lattice-fold count.
fn fleet(
    req: &Request,
    ix: &BTreeMap<String, IndexedSet>,
    cache: &Arc<Cache>,
) -> (difftrace::FleetReport, f64, f64, u64) {
    let opts = difftrace::FleetOptions {
        threads: req.threads.expect("queries pin threads"),
        cache: Some(Arc::clone(cache)),
    };
    let rec = dt_obs::MetricsRecorder::new();
    let mut fleet = difftrace::FleetRun::new(default_params());
    let t = Instant::now();
    for name in &req.corpora {
        let set = ix[name].full_set().expect("generated store decodes");
        fleet
            .add_run_rec(name, &set, &opts, &rec)
            .expect("fleet runs are aligned");
    }
    let fold_ms = measure::ms(t);
    let t = Instant::now();
    let report = fleet.report();
    let report_ms = measure::ms(t);
    (
        report,
        fold_ms,
        report_ms,
        rec.counter("fleet_lattice_folds"),
    )
}

fn open_all(corpora: &[Corpus]) -> BTreeMap<String, IndexedSet> {
    corpora
        .iter()
        .map(|c| {
            let ix = IndexedSet::from_bytes(c.bytes.clone()).expect("generated store opens");
            (c.name.clone(), ix)
        })
        .collect()
}

/// One client connection.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { stream, reader })
    }

    /// Send one frame and read the reply line.
    fn roundtrip(&mut self, line: &str) -> Result<protocol::Response, String> {
        writeln!(self.stream, "{line}")
            .and_then(|()| self.stream.flush())
            .map_err(|e| format!("sending a query: {e}"))?;
        let mut reply = String::new();
        self.reader
            .read_line(&mut reply)
            .map_err(|e| format!("reading a reply: {e}"))?;
        protocol::parse_response(reply.trim_end())
    }

    /// Send query `kind` and time its reply, which must be `ok` and
    /// byte-identical to `want`.
    fn check(&mut self, kind: usize, line: &str, want: &str) -> Result<Reply, String> {
        let cpu0 = measure::thread_cpu_time();
        let t = Instant::now();
        let resp = self.roundtrip(line)?;
        let ms = measure::ms(t);
        let ok = resp.ok && resp.output == want;
        let cpu = measure::thread_cpu_time().saturating_sub(cpu0);
        Ok(Reply { kind, ms, ok, cpu })
    }
}

/// A bound daemon running its accept loop on a thread.
struct Daemon {
    addr: SocketAddr,
    handle: JoinHandle<Result<(), String>>,
}

impl Daemon {
    fn start(paths: &[(String, PathBuf)]) -> Result<Daemon, String> {
        let server = Server::bind(&ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            corpora: paths.to_vec(),
            jobs: JOBS,
            cache_dir: None,
        })?;
        let addr = server.local_addr();
        Ok(Daemon {
            addr,
            handle: std::thread::spawn(move || server.run()),
        })
    }

    /// The daemon's live counters (`metrics` query).
    fn counters(&self) -> Result<BTreeMap<String, u64>, String> {
        let resp = Client::connect(self.addr)?.roundtrip("{\"cmd\":\"metrics\"}")?;
        Ok(resp
            .output
            .lines()
            .filter_map(|l| l.split_once(' '))
            .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
            .collect())
    }

    /// Send `shutdown`, wait for the accept loop to end, then for the
    /// detached connection threads and the worker pool they keep alive:
    /// called with no client connected, it returns once the calling
    /// thread is the process's only one.
    fn stop(self) -> Result<(), String> {
        let resp = Client::connect(self.addr)?.roundtrip("{\"cmd\":\"shutdown\"}")?;
        if !resp.ok {
            return Err(format!("shutdown refused: {}", resp.error));
        }
        self.handle
            .join()
            .map_err(|_| "daemon thread panicked".to_string())??;
        let t = Instant::now();
        while measure::threads() > 1 {
            if t.elapsed() > Duration::from_secs(10) {
                return Err("daemon threads still running 10 s after shutdown".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        // As a daemon process's exit would, give its freed memory back,
        // so that the next daemon does not start on pages this one left
        // in some thread's malloc arena.
        measure::trim_heap();
        Ok(())
    }
}

/// One reply as a client saw it. `cpu` is the CPU time the client's
/// thread spent on it (sending, parsing the reply, comparing it), which
/// `cpu_ms_per_op` leaves out: it is the benchmark's, not the daemon's.
struct Reply {
    kind: usize,
    ms: f64,
    ok: bool,
    cpu: Duration,
}

fn client_cpu(replies: &[Reply]) -> Duration {
    replies.iter().map(|r| r.cpu).sum()
}

/// What every op sends and expects, and where the daemon finds the
/// corpora.
struct Queries {
    lines: Vec<String>,
    expected: Vec<String>,
    paths: Vec<(String, PathBuf)>,
}

impl Queries {
    /// Bind a fresh daemon and send one query of each kind on one
    /// connection.
    fn start_and_pass(&self) -> Result<(Daemon, Vec<Reply>), String> {
        let d = Daemon::start(&self.paths)?;
        let mut c = Client::connect(d.addr)?;
        let replies = (0..self.lines.len())
            .map(|k| c.check(k, &self.lines[k], &self.expected[k]))
            .collect::<Result<_, _>>()?;
        Ok((d, replies))
    }

    /// serve-cold's op: a whole daemon lifecycle. Returns its replies
    /// and its peak resident set (MiB).
    fn lifecycle(&self) -> Result<(Vec<Reply>, f64), String> {
        measure::restart_peak_rss()?;
        let (d, replies) = self.start_and_pass()?;
        d.stop()?;
        Ok((replies, measure::peak_rss_mb()))
    }

    /// serve-mixed's timed window: the closed-loop clients on a warm
    /// daemon for `seconds`.
    fn load(&self, addr: SocketAddr, seconds: f64) -> Result<(Vec<Reply>, Window), String> {
        let order = cycle();
        let clients: Vec<Client> = (0..CLIENTS)
            .map(|_| Client::connect(addr))
            .collect::<Result<_, _>>()?;
        let cpu0 = measure::cpu_time();
        let start = Instant::now();
        let deadline = Duration::from_secs_f64(seconds);
        let per_client: Vec<Result<Vec<Reply>, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(c, mut client)| {
                    let order = &order;
                    s.spawn(move || {
                        let mut replies = Vec::new();
                        let mut j = c * order.len() / CLIENTS;
                        let min_replies = measure::P90_MIN_SAMPLES / CLIENTS;
                        while start.elapsed() < deadline || replies.len() < min_replies {
                            let kind = order[j % order.len()];
                            j += 1;
                            replies.push(client.check(
                                kind,
                                &self.lines[kind],
                                &self.expected[kind],
                            )?);
                        }
                        Ok(replies)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall_s = measure::secs(start);
        let cpu = measure::cpu_time().saturating_sub(cpu0);
        let mut replies = Vec::new();
        for r in per_client {
            replies.extend(r?);
        }
        let w = Window {
            latencies_ms: replies.iter().map(|r| r.ms).collect(),
            attempted: replies.len() as u64,
            failed: replies.iter().filter(|r| !r.ok).count() as u64,
            wall_s,
            cpu: cpu.saturating_sub(client_cpu(&replies)),
            peak_rss_mb: measure::peak_rss_mb(),
        };
        Ok((replies, w))
    }
}

/// Run `serve-mixed` (`cold` false) or `serve-cold` (`cold` true).
pub fn run(
    corpora: Vec<Corpus>,
    work: &Path,
    args: &RunArgs,
    cold: bool,
) -> Result<Outcome, String> {
    let kinds: Vec<&str> = MIX.iter().map(|(k, _)| *k).collect();
    let reqs: Vec<Request> = kinds.iter().map(|k| query(k, args.seed)).collect();

    // Off the clock: the reference answers, by direct library calls.
    // The decoded corpora, the cache and the input bytes are freed
    // before set-up, and the peak resident set restarts there, so that
    // `peak_rss_mb` is the daemon's.
    let expected: Vec<String> = {
        let ix = open_all(&corpora);
        let cache = Arc::new(Cache::new());
        reqs.iter().map(|r| direct(r, &ix, &cache)).collect()
    };
    for (k, out) in kinds.iter().zip(&expected) {
        println!(
            "{} {k:<10} reference digest {}",
            args.workload,
            inputs::digest(out.as_bytes())
        );
    }
    let names: Vec<String> = corpora.iter().map(|c| c.name.clone()).collect();
    drop(corpora);
    measure::restart_peak_rss()?;

    let q = Queries {
        lines: reqs.iter().map(protocol::request_line).collect(),
        expected,
        paths: names
            .iter()
            .map(|n| (n.clone(), work.join(format!("{n}.dtts"))))
            .collect(),
    };

    // Set-up: bind a daemon over the corpora and answer one query of
    // each kind; repeated, keeping the last daemon for serve-mixed.
    let mut setups = Vec::new();
    let mut checks_ok = true;
    let mut daemon: Option<Daemon> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(d) = daemon.take() {
            d.stop()?;
        }
        let t = Instant::now();
        let (d, replies) = q.start_and_pass()?;
        setups.push(measure::secs(t));
        checks_ok &= replies.iter().all(|r| r.ok);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");

    let (replies, w, counters) = if cold {
        daemon.stop()?;
        let mut replies = Vec::new();
        let mut peaks = Vec::new();
        let mut err = None;
        let mut w = measure::timed_loop(args.seconds, |_| match q.lifecycle() {
            Ok((rs, peak)) => {
                let ok = rs.iter().all(|r| r.ok);
                let cpu = client_cpu(&rs);
                replies.extend(rs);
                peaks.push(peak);
                (ok, cpu)
            }
            Err(e) => {
                err.get_or_insert(e);
                (false, Duration::ZERO)
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        // Each op is a daemon's whole life, so its peak is the op's own.
        w.peak_rss_mb = measure::median(&peaks);
        // The decode counter of one lifecycle, off the clock.
        let (d, _) = q.start_and_pass()?;
        let counters = d.counters()?;
        d.stop()?;
        (replies, w, counters)
    } else {
        let before = daemon.counters()?;
        let (replies, w) = q.load(daemon.addr, args.seconds)?;
        let after = daemon.counters()?;
        // A warm daemon folds nothing new and decodes nothing new.
        let delta =
            |k: &str| after.get(k).copied().unwrap_or(0) - before.get(k).copied().unwrap_or(0);
        if delta("nlr_folds") != 0 || delta("store_trace_decodes") != 0 {
            eprintln!(
                "FLAG: warm daemon did new work under load ({} folds, {} decodes)",
                delta("nlr_folds"),
                delta("store_trace_decodes")
            );
            checks_ok = false;
        }
        daemon.stop()?;
        (replies, w, after)
    };
    print_kinds(&kinds, &replies, !cold);

    if !args.trace {
        return Ok(Outcome {
            attempted: w.attempted,
            failed: w.failed,
            checks_ok,
            metrics: w.end_to_end(&setups)?,
        });
    }

    // Traced run: per-kind reply latency under load, then each layer's
    // public calls timed directly, in process, with the daemon's cache
    // discipline: one shared warm cache, or a fresh cache per call.
    let corpora = inputs::read_corpora(work, &names)?;
    let ix = open_all(&corpora);
    let shared = Arc::new(Cache::new());
    if !cold {
        for (r, want) in reqs.iter().zip(&q.expected) {
            checks_ok &= direct(r, &ix, &shared) == *want;
        }
    }
    let direct_calls = Direct {
        kinds: &kinds,
        reqs: &reqs,
        expected: &q.expected,
        ix: &ix,
        shared: if cold { None } else { Some(shared) },
    };
    let (mut metrics, layers_ok) = direct_calls.layers(&corpora, &replies, &counters, args)?;
    metrics.put("cpu_ms_per_op", w.cpu_ms_per_op(), "ms");
    Ok(Outcome {
        attempted: w.attempted,
        failed: w.failed,
        checks_ok: checks_ok && layers_ok,
        metrics,
    })
}

/// The in-process twin of the daemon's state: the queries, their
/// reference answers, the decoded corpora, and either one warm shared
/// cache (`serve-mixed`) or none, for a fresh cache per call
/// (`serve-cold`).
struct Direct<'a> {
    kinds: &'a [&'a str],
    reqs: &'a [Request],
    expected: &'a [String],
    ix: &'a BTreeMap<String, IndexedSet>,
    shared: Option<Arc<Cache>>,
}

fn stats_since(now: &CacheStats, then: &CacheStats) -> CacheStats {
    CacheStats {
        nlr_hits: now.nlr_hits - then.nlr_hits,
        nlr_misses: now.nlr_misses - then.nlr_misses,
        attr_hits: now.attr_hits - then.attr_hits,
        attr_misses: now.attr_misses - then.attr_misses,
        ..CacheStats::default()
    }
}

impl Direct<'_> {
    fn kind(&self, kind: &str) -> usize {
        self.kinds
            .iter()
            .position(|k| *k == kind)
            .expect("known kind")
    }

    /// The cache one call sees.
    fn cache(&self) -> Arc<Cache> {
        self.shared
            .clone()
            .unwrap_or_else(|| Arc::new(Cache::new()))
    }

    /// Per-layer metrics of the traced run, and whether every direct
    /// call reproduced its reference answer.
    fn layers(
        &self,
        corpora: &[Corpus],
        replies: &[Reply],
        counters: &BTreeMap<String, u64>,
        args: &RunArgs,
    ) -> Result<(Metrics, bool), String> {
        let ix = self.ix;
        let mut ok = true;
        let mut m = Metrics::default();
        let mut direct_p50 = Vec::new();
        for (k, kind) in self.kinds.iter().enumerate() {
            let served: Vec<f64> = replies
                .iter()
                .filter(|r| r.kind == k)
                .map(|r| r.ms)
                .collect();
            if served.is_empty() {
                return Err(format!("no `{kind}` replies in the timed window"));
            }
            m.put(
                &format!("serve.{kind}_p50_ms"),
                measure::median(&served),
                "ms",
            );
            let times: Vec<f64> = (0..DIRECT_REPS)
                .map(|_| {
                    let cache = self.cache();
                    let t = Instant::now();
                    ok &= direct(&self.reqs[k], ix, &cache) == self.expected[k];
                    measure::ms(t)
                })
                .collect();
            direct_p50.push(measure::median(&times));
            if ["lint", "hbcheck", "racecheck", "reqcheck"].contains(kind) {
                m.put(&format!("{kind}.ms"), measure::median(&times), "ms");
            }
        }
        let overhead: Vec<f64> = replies.iter().map(|r| r.ms - direct_p50[r.kind]).collect();
        m.put("serve.overhead_ms", measure::median(&overhead), "ms");
        m.count(
            "serve.failed",
            replies.iter().filter(|r| !r.ok).count() as u64,
        );
        m.count(
            "store.trace_decodes",
            counters.get("store_trace_decodes").copied().unwrap_or(0),
        );

        let fleet_req = &self.reqs[self.kind("fleet")];
        let (mut folds, mut reports, mut lattice_folds) = (Vec::new(), Vec::new(), 0);
        for _ in 0..DIRECT_REPS {
            let (_, fold_ms, report_ms, lf) = fleet(fleet_req, ix, &self.cache());
            folds.push(fold_ms);
            reports.push(report_ms);
            lattice_folds = lf;
        }
        m.put("fleet.fold_ms", measure::median(&folds), "ms");
        m.put("fleet.report_ms", measure::median(&reports), "ms");
        m.count("fleet.lattice_folds", lattice_folds);

        // The store layer: what a daemon pays to open and decode every
        // corpus once.
        let decode: Vec<f64> = (0..DIRECT_REPS)
            .map(|_| {
                let t = Instant::now();
                for ix in open_all(corpora).values() {
                    ix.full_set().expect("generated store decodes");
                }
                measure::ms(t)
            })
            .collect();
        m.put("store.decode_ms", measure::median(&decode), "ms");

        // The diff query recomposed under spans, alternated with the
        // end-to-end call for the tracing overhead. The recomposition
        // must reproduce the uncached diff's B-score and JSM_D bits and
        // the daemon's rendered reply.
        let d = self.kind("diff");
        let n = ix["lulesh-normal"].full_set().expect("decodes");
        let f = ix["lulesh-faulty"].full_set().expect("decodes");
        let params = default_params();
        let ref_bits = verdict_bits(&difftrace::diff_runs_opts(
            &n,
            &f,
            &params,
            &PipelineOptions::with_threads(1),
        ));
        let tr = Tracer::new();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut first: Option<(Counts, CacheStats)> = None;
        for i in 0..2 * DIRECT_REPS as u64 {
            let cache = self.cache();
            let stats0 = cache.stats();
            let t = Instant::now();
            if i % 2 == 0 {
                ok &= direct(&self.reqs[d], ix, &cache) == self.expected[d];
                plain.push(measure::ms(t));
                continue;
            }
            tr.set_op(i);
            let mut counts = Counts::default();
            let (run, out) = tr.span("op", || {
                let run = compose::diff(&tr, &n, &f, &params, Some(&cache), &mut counts);
                let out = tr.span("diffnlr", || render::diff_summary(&run, &params, None));
                (run, out)
            });
            traced.push(measure::ms(t));
            ok &= out == self.expected[d] && verdict_bits(&run) == ref_bits;
            let stats = stats_since(&cache.stats(), &stats0);
            ok &= crate::same_counts(&mut first, (counts, stats), &args.workload);
        }
        m.0.extend(crate::traced_metrics(&tr, args, &plain, &traced)?.0);
        let (counts, stats) = first.ok_or("no traced diff ran")?;
        crate::put_counts(&mut m, &counts);
        crate::put_cache(&mut m, &stats);
        Ok((m, ok))
    }
}

/// Per-kind reply counts and latency quartiles and, when each reply is
/// an op (`bands`), where the overall p50 and p90 fall — the evidence
/// that neither sits on a boundary between two kinds' latency bands.
fn print_kinds(kinds: &[&str], replies: &[Reply], bands: bool) {
    let mut all: Vec<(f64, usize)> = replies.iter().map(|r| (r.ms, r.kind)).collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0));
    for (k, kind) in kinds.iter().enumerate() {
        let mut v: Vec<f64> = replies
            .iter()
            .filter(|r| r.kind == k)
            .map(|r| r.ms)
            .collect();
        if v.is_empty() {
            continue;
        }
        v.sort_by(f64::total_cmp);
        println!(
            "  {kind:<10} n={:<5} share={:.3}  p10={:.2} p50={:.2} p90={:.2} ms",
            v.len(),
            v.len() as f64 / all.len() as f64,
            measure::quantile(&v, 0.1),
            measure::quantile(&v, 0.5),
            measure::quantile(&v, 0.9),
        );
    }
    if !bands {
        return;
    }
    for q in [0.5, 0.9] {
        let i = ((all.len() - 1) as f64 * q).round() as usize;
        let lo = all[i.saturating_sub(all.len() / 20)].1;
        let hi = all[(i + all.len() / 20).min(all.len() - 1)].1;
        println!(
            "  overall q{:.0} = {:.2} ms ({}); ±5% of samples spans {} .. {}",
            q * 100.0,
            all[i].0,
            kinds[all[i].1],
            kinds[lo],
            kinds[hi]
        );
    }
}
