//! Integration test for the CLI's exit-code contract, driven through
//! the real binary: 0 = success, 2 = ordinary error (bad arguments,
//! unreadable input, unwritable `--metrics` path), 3 = a `deny` gate
//! fired. Every subcommand is exercised on every applicable code.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_difftrace"))
}

fn run(args: &[&str]) -> (i32, String, String) {
    let out = bin().args(args).output().expect("spawn difftrace");
    (
        out.status.code().expect("no exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_exit(expected: i32, args: &[&str]) {
    let (code, _, stderr) = run(args);
    assert_eq!(code, expected, "{args:?}\nstderr: {stderr}");
}

/// Record the demo corpora once per test-process into a fresh dir.
#[allow(clippy::type_complexity)]
fn corpus() -> (
    PathBuf,
    String,
    String,
    String,
    String,
    String,
    String,
    String,
    String,
) {
    let dir = std::env::temp_dir().join(format!("difftrace_exit_codes_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let odd = dir.join("oddeven");
    let stencil = dir.join("stencil");
    let omp = dir.join("omp");
    let req = dir.join("reqlife");
    assert_exit(0, &["demo", "oddeven", odd.to_str().unwrap()]);
    assert_exit(0, &["demo", "stencil-tag", stencil.to_str().unwrap()]);
    assert_exit(0, &["demo", "omp-counter", omp.to_str().unwrap()]);
    assert_exit(0, &["demo", "isend-leak", req.to_str().unwrap()]);
    let n = odd.join("normal.dtts").to_str().unwrap().to_string();
    let f = odd.join("faulty.dtts").to_str().unwrap().to_string();
    let sn = stencil.join("normal.dtts").to_str().unwrap().to_string();
    let sf = stencil.join("faulty.dtts").to_str().unwrap().to_string();
    let on = omp.join("normal.dtts").to_str().unwrap().to_string();
    let of = omp.join("faulty.dtts").to_str().unwrap().to_string();
    let rn = req.join("normal.dtts").to_str().unwrap().to_string();
    let rf = req.join("faulty.dtts").to_str().unwrap().to_string();
    (dir, n, f, sn, sf, on, of, rn, rf)
}

#[test]
fn exit_codes_for_every_subcommand() {
    let (dir, n, f, sn, sf, on, of, rn, rf) = corpus();
    let out = dir.to_str().unwrap();

    let base = dir.join("base.dtb").to_str().unwrap().to_string();

    // ── exit 0: every subcommand has a success path ─────────────────
    assert_exit(0, &["help"]);
    assert_exit(0, &["info", &n]);
    assert_exit(0, &["filters", &n]);
    assert_exit(0, &["single", &f]);
    assert_exit(0, &["lint", &n, "--filter", "11.mpiall.K10"]);
    assert_exit(0, &["hbcheck", &sn, "--gate", "deny"]);
    assert_exit(0, &["racecheck", &on, "--gate", "deny"]);
    assert_exit(0, &["racecheck", &of, "--domain", "compressed"]); // warn passes
    assert_exit(0, &["reqcheck", &rn, "--gate", "deny"]);
    assert_exit(0, &["reqcheck", &rf, "--domain", "compressed"]); // warn passes
    assert_exit(0, &["diff", &n, &f, "--filter", "11.mpiall.K10"]);
    let exp = dir.join("artifacts");
    assert_exit(
        0,
        &[
            "export",
            &n,
            &f,
            exp.to_str().unwrap(),
            "--filter",
            "11.mpiall.K10",
        ],
    );
    // Flags may sit anywhere among export's three positionals.
    let exp = dir.join("artifacts-mid");
    let exp = exp.to_str().unwrap();
    assert_exit(0, &["export", &n, &f, "--filter", "11.mpiall.K10", exp]);
    let exp = dir.join("artifacts-first");
    let exp = exp.to_str().unwrap();
    assert_exit(0, &["export", "--filter", "11.mpiall.K10", &n, &f, exp]);
    assert_exit(
        0,
        &[
            "sweep",
            &n,
            &f,
            "--filter",
            "11.mpiall.K10",
            "--attrs",
            "sing.actual",
        ],
    );
    assert_exit(0, &["baseline", "record", &sn, &base]);
    assert_exit(0, &["baseline", "check", &sn, &base]);
    assert_exit(0, &["baseline", "check", "--format", "json", &sn, &base]);

    // ── exit 2: bad arguments, unreadable input, duplicate/unknown
    //    flags, refused overwrite ─────────────────────────────────────
    assert_exit(2, &["frobnicate"]);
    assert_exit(2, &["demo", "nope-workload", out]);
    assert_exit(
        2,
        &["demo", "oddeven", dir.join("oddeven").to_str().unwrap()],
    ); // no --force
    assert_exit(2, &["info", "/nonexistent/x.dtts"]);
    assert_exit(2, &["filters", "--bogus"]);
    assert_exit(2, &["single", &f, "--k", "2", "--k", "3"]);
    assert_exit(2, &["lint", &n, "--bogus"]);
    assert_exit(2, &["hbcheck", &sn, "--domain", "x"]);
    assert_exit(2, &["racecheck", &on, "--domain", "x"]);
    assert_exit(2, &["racecheck", &on, "--bogus"]);
    assert_exit(2, &["racecheck", "/nonexistent/x.dtts"]);
    assert_exit(2, &["reqcheck", &rn, "--domain", "x"]);
    assert_exit(2, &["reqcheck", &rn, "--bogus"]);
    assert_exit(2, &["reqcheck", "/nonexistent/x.dtts"]);
    assert_exit(2, &["diff", &n]); // missing positional
    assert_exit(2, &["diff", &n, &f, "--filter", "a", "--filter", "b"]);
    assert_exit(2, &["export", &n, &f]); // missing outdir
    assert_exit(2, &["sweep", &n, &f, "--jobs", "1", "--jobs", "2"]);
    // A flag the command would ignore is refused, never a silent pass.
    assert_exit(2, &["diff", &n, &f, "--jobs", "7"]);
    assert_exit(2, &["export", &n, &f, out, "--gate", "deny", "--full"]);
    assert_exit(2, &["sweep", &n, &f, "--hb", "deny", "--threads", "8"]);
    // `--diffnlr` goes through the same trace-spec parser as the
    // served `diffnlr` field, with the same diagnosis.
    let (code, _, stderr) = run(&["diff", &n, &f, "--diffnlr", "10"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(
        stderr.contains("trace spec wants P.T, got `10`"),
        "{stderr}"
    );
    // `query <cmd>` refuses flags that `cmd` does not read, before it
    // connects anywhere.
    for (args, flag) in [
        (&["diff", "n", "f", "--gate", "deny"][..], "--gate"),
        (&["single", "c", "--gate", "deny"][..], "--gate"),
        (&["lint", "c", "--diffnlr", "1.0"][..], "--diffnlr"),
        (&["metrics", "--format", "json"][..], "--format"),
    ] {
        let (code, _, stderr) = run(&[&["query", "127.0.0.1:1"][..], args].concat());
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown option `{flag}` for `query`")),
            "{args:?}: {stderr}"
        );
    }
    assert_exit(2, &["baseline"]); // missing action
    assert_exit(2, &["baseline", "frobnicate"]);
    assert_exit(2, &["baseline", "record", &sn]); // missing out
    assert_exit(2, &["baseline", "record", &sn, &base]); // no --force
    assert_exit(2, &["baseline", "record", &sn, &base, "--bogus"]);
    assert_exit(2, &["baseline", "check", &sn, &base, "--format", "xml"]);
    assert_exit(
        2,
        &[
            "baseline", "check", &sn, &base, "--policy", "p", "--policy", "q",
        ],
    );
    assert_exit(2, &["baseline", "check", &sn, "/nonexistent/b.dtb"]);
    // Batch reports are always JSON: `--format` with `--dir` is a
    // diagnosed misuse, like `--out` without `--dir`.
    let runs = dir.join("stencil").to_str().unwrap().to_string();
    let reports = dir.join("reports").to_str().unwrap().to_string();
    let (code, _, stderr) = run(&[
        "baseline", "check", "--dir", &runs, "--out", &reports, "--format", "text", &base,
    ]);
    assert_eq!(code, 2, "{stderr}");
    assert!(
        stderr.contains("--format only applies to single-run checks"),
        "{stderr}"
    );
    // A corrupt bundle must be a diagnosed exit-2 error naming the
    // file — never a panic, never a false pass.
    let corrupt = dir.join("corrupt.dtb");
    let bytes = std::fs::read(&base).unwrap();
    std::fs::write(&corrupt, &bytes[..bytes.len() - 3]).unwrap();
    let (code, _, stderr) = run(&["baseline", "check", &sn, corrupt.to_str().unwrap()]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("corrupt.dtb"), "{stderr}");
    assert!(stderr.contains("re-record"), "{stderr}");

    // --metrics to an unwritable path: the analysis runs, the write
    // fails, and that is an ordinary (exit 2) error on every command
    // that takes the flag.
    let unwritable = format!("{n}/metrics.json"); // a file is not a directory
    assert_exit(2, &["lint", &n, "--metrics", &unwritable]);
    assert_exit(2, &["hbcheck", &sn, "--metrics", &unwritable]);
    assert_exit(2, &["racecheck", &on, "--metrics", &unwritable]);
    assert_exit(2, &["reqcheck", &rn, "--metrics", &unwritable]);
    assert_exit(2, &["single", &f, "--metrics", &unwritable]);
    assert_exit(
        2,
        &[
            "diff",
            &n,
            &f,
            "--filter",
            "11.mpiall.K10",
            "--metrics",
            &unwritable,
        ],
    );
    assert_exit(
        2,
        &[
            "sweep",
            &n,
            &f,
            "--filter",
            "11.mpiall.K10",
            "--attrs",
            "sing.actual",
            "--metrics",
            &unwritable,
        ],
    );

    // ── exit 3: deny gates, distinct from misuse ────────────────────
    assert_exit(
        3,
        &["lint", &n, "--filter", "11.cust:*bad.K10", "--gate", "deny"],
    );
    assert_exit(3, &["hbcheck", &sf, "--gate", "deny"]);
    assert_exit(3, &["racecheck", &of, "--gate", "deny"]);
    assert_exit(
        3,
        &["racecheck", &of, "--gate", "deny", "--domain", "compressed"],
    );
    assert_exit(3, &["reqcheck", &rf, "--gate", "deny"]);
    assert_exit(
        3,
        &["reqcheck", &rf, "--gate", "deny", "--domain", "compressed"],
    );
    assert_exit(
        3,
        &[
            "diff",
            &sn,
            &sf,
            "--filter",
            "11.mpiall.K10",
            "--hb",
            "deny",
        ],
    );
    assert_exit(
        3,
        &[
            "diff",
            &on,
            &of,
            "--filter",
            "11.mpiall.K10",
            "--race",
            "deny",
        ],
    );
    assert_exit(
        3,
        &[
            "diff",
            &rn,
            &rf,
            "--filter",
            "11.mpiall.K10",
            "--req",
            "deny",
        ],
    );
    // The injected stencil tag fault fails the default policy gate.
    let (code, stdout, stderr) = run(&["baseline", "check", &sf, &base]);
    assert_eq!(code, 3, "{stderr}");
    assert!(stdout.contains("verdict: FAIL"), "{stdout}");
    assert!(stderr.contains("baseline gate failed"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleet_exit_codes_and_diagnoses() {
    let dir = std::env::temp_dir().join(format!("difftrace_fleet_exit_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let fleet = dir.join("fleet");
    let stencil = dir.join("stencil");
    assert_exit(0, &["demo", "fleet-oddeven", fleet.to_str().unwrap()]);
    assert_exit(0, &["demo", "stencil-tag", stencil.to_str().unwrap()]);
    // Refuses to overwrite the recorded fleet without --force.
    assert_exit(2, &["demo", "fleet-oddeven", fleet.to_str().unwrap()]);
    assert_exit(
        0,
        &["demo", "fleet-oddeven", fleet.to_str().unwrap(), "--force"],
    );
    let fdir = fleet.to_str().unwrap().to_string();
    let run0 = fleet.join("run-0.dtts").to_str().unwrap().to_string();
    let run1 = fleet.join("run-1.dtts").to_str().unwrap().to_string();
    let run2 = fleet.join("run-2.dtts").to_str().unwrap().to_string();
    let sn = stencil.join("normal.dtts").to_str().unwrap().to_string();

    // A healthy fleet passes the deny gate; one with the injected
    // fault is ranked #1 and denied with exit 3 — distinct from
    // misuse (2) so CI can gate on fleet homogeneity.
    assert_exit(0, &["fleet", &run0, &run1, &run2, "--gate", "deny"]);
    let (code, stdout, stderr) = run(&["fleet", &fdir, "--gate", "deny", "--suspect", "fault"]);
    assert_eq!(code, 3, "{stderr}");
    let rank1 = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("1  "))
        .unwrap_or_else(|| panic!("no rank-1 row in:\n{stdout}"));
    assert!(rank1.contains("fault"), "{stdout}");
    assert!(stdout.contains("it IS the fleet outlier"), "{stdout}");
    assert!(stderr.contains("fleet gate denied"), "{stderr}");

    // Misuse and diagnosed errors are exit 2.
    assert_exit(2, &["fleet", &run0]); // needs at least 2 runs
    assert_exit(2, &["fleet", &run0, &run1, "--suspect", "nope"]);
    assert_exit(2, &["fleet", &run0, &run1, "--format", "xml"]);
    // The format is checked before any run is loaded.
    let (code, _, stderr) = run(&[
        "fleet",
        "/nonexistent/a.dtts",
        "/nonexistent/b.dtts",
        "--format",
        "xml",
    ]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("unknown format `xml`"), "{stderr}");
    assert_exit(2, &["fleet", &run0, &run1, "--bogus"]);
    // A ragged fleet (different world size → different trace set) is
    // a diagnosed refusal naming the run — never a panic.
    let (code, _, stderr) = run(&["fleet", &run0, &sn]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("ragged fleet"), "{stderr}");
    assert!(stderr.contains("`normal`"), "{stderr}");

    // Two stores sharing a file stem cannot both be served or fleeted
    // under one name: diagnosed at startup, naming BOTH paths.
    let a = dir.join("a");
    let b = dir.join("b");
    std::fs::create_dir_all(&a).unwrap();
    std::fs::create_dir_all(&b).unwrap();
    std::fs::copy(&run0, a.join("run.dtts")).unwrap();
    std::fs::copy(&run1, b.join("run.dtts")).unwrap();
    let ar = a.join("run.dtts").to_str().unwrap().to_string();
    let br = b.join("run.dtts").to_str().unwrap().to_string();
    for cmd in ["serve", "fleet"] {
        let (code, _, stderr) = run(&[cmd, &ar, &br]);
        assert_eq!(code, 2, "{cmd}: {stderr}");
        assert!(stderr.contains("ambiguous"), "{cmd}: {stderr}");
        assert!(
            stderr.contains(&ar) && stderr.contains(&br),
            "{cmd}: {stderr}"
        );
    }

    // `diff` aligns ragged runs over the union universe — different
    // trace populations degrade the scores, they never abort.
    assert_exit(0, &["diff", &run0, &sn, "--filter", "11.mpiall.K10"]);

    // --metrics carries the incrementality counters.
    let metrics = dir.join("m.json");
    assert_exit(0, &["fleet", &fdir, "--metrics", metrics.to_str().unwrap()]);
    let doc = std::fs::read_to_string(&metrics).unwrap();
    dt_obs::validate_json(&doc).unwrap_or_else(|e| panic!("{e}\n{doc}"));
    assert!(doc.contains("\"fleet_runs\":9"), "{doc}");
    assert!(doc.contains("\"fleet_lattice_folds\":144"), "{doc}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_and_metrics_outputs() {
    let dir = std::env::temp_dir().join(format!("difftrace_obs_out_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    assert_exit(0, &["demo", "oddeven", dir.to_str().unwrap()]);
    let n = dir.join("normal.dtts").to_str().unwrap().to_string();
    let f = dir.join("faulty.dtts").to_str().unwrap().to_string();
    let metrics = dir.join("m.json");

    // --profile goes to stderr; the report on stdout stays clean and
    // byte-identical to the uninstrumented run at any thread count.
    let (code, plain_stdout, _) = run(&[
        "diff",
        &n,
        &f,
        "--filter",
        "11.mpiall.K10",
        "--threads",
        "1",
    ]);
    assert_eq!(code, 0);
    for threads in ["1", "4"] {
        let (code, stdout, stderr) = run(&[
            "diff",
            &n,
            &f,
            "--filter",
            "11.mpiall.K10",
            "--threads",
            threads,
            "--profile",
            "--metrics",
            metrics.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "t={threads}: {stderr}");
        assert_eq!(stdout, plain_stdout, "t={threads}: stdout not identical");
        assert!(stderr.contains("== profile: diff"), "t={threads}: {stderr}");
        assert!(stderr.contains("filter"), "t={threads}: {stderr}");

        let doc = std::fs::read_to_string(&metrics).unwrap();
        dt_obs::validate_json(&doc).unwrap_or_else(|e| panic!("t={threads}: {e}\n{doc}"));
        assert!(doc.contains("\"schema\":\"difftrace-metrics/v1\""), "{doc}");
        std::fs::remove_file(&metrics).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A run whose trace calls a function its registry lacks is a
/// diagnosed exit-2 error on every command that decodes it: the
/// registry holds only `main`, `bad.dtts` also calls `FnId(7)`.
#[test]
fn out_of_registry_symbols_are_exit_2() {
    use dt_trace::{store, FnId, FunctionRegistry, Trace, TraceEvent, TraceId, TraceSet};
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!("difftrace_out_of_reg_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, callee: Option<FnId>| {
        let reg = Arc::new(FunctionRegistry::new());
        let main = reg.intern("main");
        let mut t = Trace::new(TraceId::master(0));
        t.push(TraceEvent::Call(main));
        if let Some(f) = callee {
            t.push(TraceEvent::Call(f));
            t.push(TraceEvent::Return(f));
        }
        t.push(TraceEvent::Return(main));
        let mut set = TraceSet::new(reg);
        set.insert(t);
        let path = dir.join(name);
        store::save(&set, &path).unwrap();
        path.to_str().unwrap().to_string()
    };
    let ok = write("ok.dtts", None);
    let bad = write("bad.dtts", Some(FnId(7)));
    assert_exit(0, &["single", &ok]);
    for args in [
        &["diff", &ok, &bad][..],
        &["single", &bad],
        &["lint", &bad, "--deep"],
        &["racecheck", &bad],
        &["reqcheck", &bad],
    ] {
        let (code, _, stderr) = run(args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(
            stderr.contains("symbol outside the function registry"),
            "{args:?}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
