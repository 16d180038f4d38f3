//! A version-3 store written by the last v3 writer (`difftrace demo
//! oddeven`'s `faulty.dtts`, committed under `crates/trace/tests/data/`)
//! still reads: `info`, `hbcheck` and `lint` print exactly what the v3
//! build printed for it, pinned below.

use std::process::Command;

const FIXTURE: &str = "oddeven-faulty-v3.dtts";

/// `difftrace <cmd> oddeven-faulty-v3.dtts`, run beside the fixture:
/// its exit code, stdout and stderr.
fn run(cmd: &str) -> (i32, String, String) {
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/../trace/tests/data");
    let out = Command::new(env!("CARGO_BIN_EXE_difftrace"))
        .args([cmd, FIXTURE])
        .current_dir(data)
        .output()
        .expect("spawn difftrace");
    (
        out.status.code().expect("no exit code"),
        String::from_utf8(out.stdout).expect("UTF-8 stdout"),
        String::from_utf8(out.stderr).expect("UTF-8 stderr"),
    )
}

#[test]
fn v3_fixture_renders_as_the_v3_build_did() {
    let data = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../trace/tests/data/oddeven-faulty-v3.dtts"
    ))
    .unwrap();
    assert_eq!(data[4], 3, "the fixture is a version-3 store");
    for (cmd, want) in [("info", INFO), ("hbcheck", HBCHECK), ("lint", LINT)] {
        assert_eq!(run(cmd), (0, want.to_string(), String::new()), "{cmd}");
    }
}

const INFO: &str = r#"oddeven-faulty-v3.dtts: 16 traces, 9 functions interned
calls/process avg 52   distinct fns/process avg 9   compressed/thread avg 27 B   ratio 15×
     0.0  events       76  calls       38  distinct     9  compressed      28 B
     1.0  events      108  calls       54  distinct     9  compressed      27 B
     2.0  events      108  calls       54  distinct     9  compressed      27 B
     3.0  events      108  calls       54  distinct     9  compressed      27 B
     4.0  events      108  calls       54  distinct     9  compressed      27 B
     5.0  events      108  calls       54  distinct     9  compressed      32 B
     6.0  events      108  calls       54  distinct     9  compressed      27 B
     7.0  events      108  calls       54  distinct     9  compressed      27 B
     8.0  events      108  calls       54  distinct     9  compressed      27 B
     9.0  events      108  calls       54  distinct     9  compressed      27 B
    10.0  events      108  calls       54  distinct     9  compressed      27 B
    11.0  events      108  calls       54  distinct     9  compressed      27 B
    12.0  events      108  calls       54  distinct     9  compressed      27 B
    13.0  events      108  calls       54  distinct     9  compressed      27 B
    14.0  events      108  calls       54  distinct     9  compressed      27 B
    15.0  events       76  calls       38  distinct     9  compressed      28 B
"#;

const HBCHECK: &str = r#"warning[HB004]: 15 concurrent send pair(s) race on channel (dst=1, tag=0); e.g. MPI_Send from rank 0 ‖ MPI_Send from rank 2
  hint: a wildcard receive on this channel may observe either order across runs
warning[HB004]: 15 concurrent send pair(s) race on channel (dst=11, tag=0); e.g. MPI_Send from rank 10 ‖ MPI_Send from rank 12
  hint: a wildcard receive on this channel may observe either order across runs
warning[HB004]: 15 concurrent send pair(s) race on channel (dst=13, tag=0); e.g. MPI_Send from rank 12 ‖ MPI_Send from rank 14
  hint: a wildcard receive on this channel may observe either order across runs
warning[HB004]: 15 concurrent send pair(s) race on channel (dst=3, tag=0); e.g. MPI_Send from rank 2 ‖ MPI_Send from rank 4
  hint: a wildcard receive on this channel may observe either order across runs
warning[HB004]: 15 concurrent send pair(s) race on channel (dst=5, tag=0); e.g. MPI_Send from rank 4 ‖ MPI_Send from rank 6
  hint: a wildcard receive on this channel may observe either order across runs
warning[HB004]: 15 concurrent send pair(s) race on channel (dst=7, tag=0); e.g. MPI_Send from rank 6 ‖ MPI_Send from rank 8
  hint: a wildcard receive on this channel may observe either order across runs
warning[HB004]: 15 concurrent send pair(s) race on channel (dst=9, tag=0); e.g. MPI_Send from rank 8 ‖ MPI_Send from rank 10
  hint: a wildcard receive on this channel may observe either order across runs
warning[HB004]: 4 concurrent send pair(s) race on channel (dst=4, tag=0); e.g. MPI_Send from rank 3 ‖ MPI_Send from rank 5
  hint: a wildcard receive on this channel may observe either order across runs
warning[HB004]: 5 concurrent send pair(s) race on channel (dst=6, tag=0); e.g. MPI_Send from rank 5 ‖ MPI_Send from rank 7
  hint: a wildcard receive on this channel may observe either order across runs
0 error(s), 9 warning(s)
"#;

const LINT: &str = r#"warning[TL004]: Table I filter `MPI Collectives` matches none of the 9 distinct function name(s) in this corpus
  hint: running the pipeline under this filter would diff empty NLRs
warning[TL004]: Table I filter `MPI Internal Library` matches none of the 9 distinct function name(s) in this corpus
  hint: running the pipeline under this filter would diff empty NLRs
warning[TL004]: Table I filter `Memory` matches none of the 9 distinct function name(s) in this corpus
  hint: running the pipeline under this filter would diff empty NLRs
warning[TL004]: Table I filter `Network` matches none of the 9 distinct function name(s) in this corpus
  hint: running the pipeline under this filter would diff empty NLRs
warning[TL004]: Table I filter `OMP All` matches none of the 9 distinct function name(s) in this corpus
  hint: running the pipeline under this filter would diff empty NLRs
warning[TL004]: Table I filter `OMP Critical` matches none of the 9 distinct function name(s) in this corpus
  hint: running the pipeline under this filter would diff empty NLRs
warning[TL004]: Table I filter `Poll` matches none of the 9 distinct function name(s) in this corpus
  hint: running the pipeline under this filter would diff empty NLRs
warning[TL004]: Table I filter `String` matches none of the 9 distinct function name(s) in this corpus
  hint: running the pipeline under this filter would diff empty NLRs
0 error(s), 8 warning(s)
"#;
