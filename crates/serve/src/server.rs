//! The daemon: corpora behind lazily-decoded [`IndexedSet`]s, a
//! persistent [`difftrace::sync::Pool`] scheduling query execution, a
//! shared in-memory analysis cache as the cross-request hot set, and a
//! live [`MetricsRecorder`] the `metrics` query snapshots.
//!
//! Concurrency model: one OS thread per *connection* reads frames and
//! writes replies in order; each query runs as one job on the worker
//! pool, so at most `jobs` analyses execute at once no matter how many
//! clients connect. The job is [`executor::execute`], the path the
//! one-shot CLI takes too. Every analysis entry point is
//! observational-deterministic (byte-identical output at any thread
//! count), and per-corpus decode caches are interior-mutable behind
//! per-trace once-cells — so replies are byte-identical to the one-shot
//! CLI at any interleaving, which the serve-equivalence suite checks.

use crate::executor::{self, Corpora};
use crate::protocol;
use difftrace::sync::Pool;
use dt_cache::Cache;
use dt_obs::{MetricsRecorder, Recorder};
use dt_trace::store::IndexedSet;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
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
    corpora: BTreeMap<String, Arc<IndexedSet>>,
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
            if corpora.insert(name.clone(), Arc::new(ix)).is_some() {
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

/// Longest request frame the daemon reads, newline excluded. The
/// largest real request, a fleet query naming every served corpus, is a
/// few KiB; 1 MiB is far above any of them, and it bounds what a client
/// that never sends a newline can make a connection buffer.
const MAX_FRAME: u64 = 1 << 20;

fn handle_connection(state: &Arc<State>, stream: TcpStream) {
    let Ok(reader) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(reader);
    let mut writer = stream;
    let mut frame = Vec::new();
    loop {
        frame.clear();
        // One byte past the cap tells a full-size frame from an oversize one.
        match (&mut reader)
            .take(MAX_FRAME + 1)
            .read_until(b'\n', &mut frame)
        {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if frame.last() == Some(&b'\n') {
            frame.pop();
            if frame.last() == Some(&b'\r') {
                frame.pop();
            }
        } else if frame.len() as u64 > MAX_FRAME {
            state.rec.add("requests_oversize", 1);
            let reply = protocol::err_line(
                0,
                &format!("request frame exceeds {MAX_FRAME} bytes; closing the connection"),
            );
            if writeln!(writer, "{reply}")
                .and_then(|()| writer.flush())
                .is_ok()
            {
                // FIN right after the reply: closing with the rest of
                // the frame unread resets the connection.
                let _ = writer.shutdown(Shutdown::Write);
            }
            break;
        }
        let Ok(line) = std::str::from_utf8(&frame) else {
            break;
        };
        if line.trim().is_empty() {
            continue;
        }
        let (reply, shutdown) = answer(state, line);
        let sent = writeln!(writer, "{reply}").and_then(|()| writer.flush());
        if shutdown {
            // Only now that the reply is written: once the flag is set
            // and the accept loop woken, `run` returns and the process
            // may exit.
            state.stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(state.addr);
            break;
        }
        if sent.is_err() || state.stop.load(Ordering::SeqCst) {
            break;
        }
    }
}

/// One frame in, one reply line out, and whether the frame asked the
/// daemon to shut down. Never panics the daemon: parse failures become
/// diagnosed error replies, and a panicking analysis job is caught at
/// the pool boundary and reported as an error too.
fn answer(state: &Arc<State>, line: &str) -> (String, bool) {
    state.rec.add("requests", 1);
    let req = match protocol::parse_request(line) {
        Ok(req) => req,
        Err(e) => {
            state.rec.add("requests_malformed", 1);
            return (protocol::err_line(0, &e), false);
        }
    };
    state.rec.add(&format!("requests_{}", req.cmd), 1);
    let id = req.id;
    let reply = match req.cmd.as_str() {
        // Control-plane commands answer inline — they must not queue
        // behind long analyses.
        "metrics" => protocol::ok_line(id, &metrics_text(state), 0),
        "shutdown" => return (protocol::ok_line(id, "shutting down\n", 0), true),
        _ => {
            let st = Arc::clone(state);
            let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                state.pool.run(move || {
                    let corpora = Corpora::Served(&st.corpora);
                    let cache = Some(Arc::clone(&st.cache));
                    executor::execute(&req, &corpora, cache, BTreeMap::new(), &st.rec)
                })
            }));
            match ran {
                Ok(Ok(answer)) => protocol::ok_line(id, &answer.output, answer.errors as u64),
                Ok(Err(e)) => {
                    state.rec.add("requests_failed", 1);
                    protocol::err_line(id, &e.to_string())
                }
                Err(_) => {
                    state.rec.add("requests_panicked", 1);
                    protocol::err_line(id, "internal error: query panicked (daemon still up)")
                }
            }
        }
    };
    (reply, false)
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
