//! Daemon behaviour tests: equivalence with direct library calls,
//! malformed-frame resilience, lazy decode accounting, concurrent
//! clients, clean shutdown.

use dt_serve::protocol::{self, Request};
use dt_serve::{render, ServeConfig, Server};
use dt_trace::{store, FunctionRegistry, TraceId};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use workloads::{run_oddeven, OddEvenConfig};

/// Record the demo oddeven pair into `<tmp>/{normal,faulty}.dtts` and
/// return the directory. Deterministic: the workloads are seeded.
fn demo_corpora(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dt_serve_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let registry = Arc::new(FunctionRegistry::new());
    let normal = run_oddeven(&OddEvenConfig::paper(None), registry.clone());
    let faulty = run_oddeven(
        &OddEvenConfig::paper(Some(OddEvenConfig::swap_bug())),
        registry.clone(),
    );
    store::save_full(&normal.traces, &normal.hb, &dir.join("normal.dtts")).unwrap();
    store::save_full(&faulty.traces, &faulty.hb, &dir.join("faulty.dtts")).unwrap();
    dir
}

struct Daemon {
    addr: std::net::SocketAddr,
    handle: Option<std::thread::JoinHandle<Result<(), String>>>,
}

impl Daemon {
    fn start(dir: &std::path::Path, jobs: usize) -> Daemon {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            corpora: vec![
                ("normal".to_string(), dir.join("normal.dtts")),
                ("faulty".to_string(), dir.join("faulty.dtts")),
            ],
            jobs,
            cache_dir: None,
        };
        let server = Server::bind(&cfg).unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        Daemon {
            addr,
            handle: Some(handle),
        }
    }

    fn connect(&self) -> Client {
        let stream = TcpStream::connect(self.addr).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader }
    }

    fn shutdown(mut self) {
        let mut c = self.connect();
        let resp = c.roundtrip(&Request {
            id: 999,
            cmd: "shutdown".to_string(),
            ..Request::default()
        });
        assert!(resp.ok, "{}", resp.error);
        self.handle.take().unwrap().join().unwrap().unwrap();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            // Best-effort shutdown so a failing test doesn't hang.
            if let Ok(mut s) = TcpStream::connect(self.addr) {
                let _ = writeln!(s, "{{\"cmd\":\"shutdown\"}}");
            }
            let _ = h.join();
        }
    }
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn send_line(&mut self, line: &str) -> protocol::Response {
        writeln!(self.stream, "{line}").unwrap();
        self.stream.flush().unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).unwrap();
        protocol::parse_response(reply.trim_end()).unwrap()
    }

    fn roundtrip(&mut self, req: &Request) -> protocol::Response {
        self.send_line(&protocol::request_line(req))
    }
}

fn req(cmd: &str, corpus: &str) -> Request {
    Request {
        id: 1,
        cmd: cmd.to_string(),
        corpus: Some(corpus.to_string()),
        ..Request::default()
    }
}

#[test]
fn check_queries_match_direct_library_calls() {
    let dir = demo_corpora("checks");
    let daemon = Daemon::start(&dir, 2);
    let mut c = daemon.connect();

    let set = store::load(&dir.join("faulty.dtts")).unwrap();
    let (hb_set, hb) = store::load_full(&dir.join("faulty.dtts")).unwrap();

    // lint, text and json.
    let expect = difftrace::lint_set(&set, &difftrace::LintOptions::default());
    let resp = c.roundtrip(&req("lint", "faulty"));
    assert!(resp.ok, "{}", resp.error);
    assert_eq!(resp.output, expect.render_text());
    assert_eq!(resp.errors as usize, expect.error_count());
    let mut jq = req("lint", "faulty");
    jq.format = Some("json".to_string());
    assert_eq!(c.roundtrip(&jq).output, expect.render_json());

    // hbcheck.
    let expect = difftrace::hbcheck_set(&hb_set, &hb, &difftrace::HbOptions::default());
    let resp = c.roundtrip(&req("hbcheck", "faulty"));
    assert!(resp.ok, "{}", resp.error);
    assert_eq!(resp.output, expect.render_text());

    // racecheck.
    let expect = difftrace::racecheck_set(&set, &difftrace::RaceOptions::default());
    assert_eq!(
        c.roundtrip(&req("racecheck", "faulty")).output,
        expect.render_text()
    );

    // reqcheck.
    let expect = difftrace::reqcheck_set(&set, &difftrace::ReqOptions::default());
    assert_eq!(
        c.roundtrip(&req("reqcheck", "faulty")).output,
        expect.render_text()
    );

    daemon.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn single_and_diff_match_shared_renderers() {
    let dir = demo_corpora("sd");
    let daemon = Daemon::start(&dir, 2);
    let mut c = daemon.connect();

    let normal = store::load(&dir.join("normal.dtts")).unwrap();
    let faulty = store::load(&dir.join("faulty.dtts")).unwrap();
    let params = difftrace::Params::new(
        difftrace::FilterConfig::everything(10),
        difftrace::AttrConfig {
            kind: difftrace::AttrKind::Single,
            freq: difftrace::FreqMode::Actual,
        },
    );

    let popts = difftrace::PipelineOptions::default();
    let rec: &dyn dt_obs::Recorder = &dt_obs::Noop;
    let report = difftrace::analyze_single_opts_rec(&faulty, &params, 0, &popts, rec);
    let resp = c.roundtrip(&req("single", "faulty"));
    assert!(resp.ok, "{}", resp.error);
    assert_eq!(resp.output, render::single_summary(faulty.len(), &report));

    let dopts = difftrace::PipelineOptions {
        threads: 0,
        ..difftrace::PipelineOptions::default()
    };
    let d = difftrace::try_diff_runs(&normal, &faulty, None, &params, &dopts, rec).unwrap();
    let mut dq = Request {
        id: 4,
        cmd: "diff".to_string(),
        normal: Some("normal".to_string()),
        faulty: Some("faulty".to_string()),
        ..Request::default()
    };
    let resp = c.roundtrip(&dq);
    assert!(resp.ok, "{}", resp.error);
    assert_eq!(resp.output, render::diff_summary(&d, &params, None));

    // --full report too.
    dq.full = true;
    assert_eq!(
        c.roundtrip(&dq).output,
        difftrace::generate_report(&d, &difftrace::ReportOptions::default())
    );

    daemon.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_frames_get_error_replies_and_the_connection_survives() {
    let dir = demo_corpora("bad");
    let daemon = Daemon::start(&dir, 1);
    let mut c = daemon.connect();

    for frame in [
        "not json at all",
        "[]",
        "{\"cmd\":\"explode\"}",
        "{\"cmd\":\"lint\",\"wat\":true}",
        "{\"cmd\":\"lint\"}", // no corpus
        "{\"cmd\":\"lint\",\"corpus\":\"nope\"}",
        "{\"cmd\":\"lint\",\"corpus\":\"faulty\",\"format\":\"yaml\"}",
        "{\"cmd\":\"hbcheck\",\"corpus\":\"faulty\",\"trace\":\"0.0\"}",
        "{\"cmd\":\"diff\",\"normal\":\"normal\"}", // no faulty
        "{\"cmd\":\"lint\",\"corpus\":\"faulty\",\"trace\":\"zero.zero\"}",
    ] {
        let resp = c.send_line(frame);
        assert!(!resp.ok, "frame should fail: {frame}");
        assert!(!resp.error.is_empty(), "diagnosis missing for: {frame}");
    }

    // Same connection still answers real queries.
    let resp = c.roundtrip(&req("lint", "faulty"));
    assert!(resp.ok, "{}", resp.error);

    daemon.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn single_trace_query_decodes_exactly_one_trace() {
    let dir = demo_corpora("lazy");
    let daemon = Daemon::start(&dir, 1);
    let mut c = daemon.connect();

    let set = store::load(&dir.join("faulty.dtts")).unwrap();
    let id = set.ids()[0];
    assert!(set.len() > 1, "need a multi-trace corpus for this test");

    let mut lq = req("lint", "faulty");
    lq.trace = Some(id.to_string());
    let resp = c.roundtrip(&lq);
    assert!(resp.ok, "{}", resp.error);
    // Equivalent one-trace one-shot output.
    let sub = {
        let mut s = dt_trace::TraceSet::new(set.registry.clone());
        s.insert(set.get(id).unwrap().clone());
        s
    };
    let expect = difftrace::lint_set(&sub, &difftrace::LintOptions::default());
    assert_eq!(resp.output, expect.render_text());

    // The metrics query proves the store decoded ONLY that trace.
    let m = c.roundtrip(&Request {
        id: 2,
        cmd: "metrics".to_string(),
        ..Request::default()
    });
    assert!(m.ok);
    let decodes = m
        .output
        .lines()
        .find_map(|l| l.strip_prefix("store_trace_decodes "))
        .unwrap()
        .parse::<u64>()
        .unwrap();
    assert_eq!(decodes, 1, "metrics:\n{}", m.output);
    assert!(m.output.contains("requests_lint 1"));
    assert!(m.output.contains("corpora 2"));

    daemon.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_clients_get_identical_bytes() {
    let dir = demo_corpora("conc");
    let daemon = Daemon::start(&dir, 4);

    let set = store::load(&dir.join("faulty.dtts")).unwrap();
    let expect_lint = difftrace::lint_set(&set, &difftrace::LintOptions::default()).render_text();
    let expect_race =
        difftrace::racecheck_set(&set, &difftrace::RaceOptions::default()).render_text();

    std::thread::scope(|s| {
        for w in 0..8u64 {
            let daemon = &daemon;
            let (expect_lint, expect_race) = (&expect_lint, &expect_race);
            s.spawn(move || {
                let mut c = daemon.connect();
                for round in 0..3u64 {
                    let id = w * 100 + round;
                    let (cmd, expect) = if (w + round) % 2 == 0 {
                        ("lint", expect_lint)
                    } else {
                        ("racecheck", expect_race)
                    };
                    let mut r = req(cmd, "faulty");
                    r.id = id;
                    let resp = c.roundtrip(&r);
                    assert!(resp.ok, "{}", resp.error);
                    assert_eq!(resp.id, id, "reply order broken");
                    assert_eq!(&resp.output, expect);
                }
            });
        }
    });

    daemon.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_trace_and_bad_spec_are_diagnosed() {
    let dir = demo_corpora("spec");
    let daemon = Daemon::start(&dir, 1);
    let mut c = daemon.connect();

    let mut q = req("lint", "faulty");
    q.trace = Some(TraceId::new(99, 99).to_string());
    let resp = c.roundtrip(&q);
    assert!(!resp.ok);
    assert!(resp.error.contains("not in store"), "{}", resp.error);

    daemon.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
