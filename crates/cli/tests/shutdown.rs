//! `difftrace query <addr> shutdown` always gets its reply: the daemon
//! writes `shutting down` before it stops accepting connections, so the
//! process cannot exit with the reply unsent.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_difftrace"))
}

const ROUNDS: usize = 20;

#[test]
fn every_shutdown_query_is_answered_and_the_daemon_exits_cleanly() {
    let dir = std::env::temp_dir().join(format!("difftrace_shutdown_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let demo = bin()
        .args(["demo", "oddeven", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(demo.status.success(), "demo recording failed");
    let corpus = dir.join("normal.dtts");

    let mut failures = Vec::new();
    for round in 0..ROUNDS {
        let mut serve = bin()
            .args(["serve", corpus.to_str().unwrap()])
            .args(["--addr", "127.0.0.1:0", "--jobs", "1"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn difftrace serve");
        let mut stdout = BufReader::new(serve.stdout.take().unwrap());
        let mut banner = String::new();
        stdout.read_line(&mut banner).unwrap();
        let addr = banner
            .strip_prefix("listening on ")
            .and_then(|rest| rest.split(' ').next())
            .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
            .to_string();

        let query = bin().args(["query", &addr, "shutdown"]).output().unwrap();
        if !query.status.success() {
            // A daemon that is still up would never exit on its own.
            serve.kill().ok();
        }
        let exit = serve.wait().unwrap();
        let reply = String::from_utf8_lossy(&query.stdout);
        if !query.status.success() || reply != "shutting down\n" || !exit.success() {
            failures.push(format!(
                "round {round}: query {:?} stdout {reply:?} stderr {:?}; daemon {exit:?}",
                query.status.code(),
                String::from_utf8_lossy(&query.stderr).trim_end()
            ));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        failures.is_empty(),
        "{} of {ROUNDS} shutdowns failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
