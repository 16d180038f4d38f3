//! The §II-G dlBug walk-through: a *real* MPI deadlock, detected by
//! the simulator's quiescence check, diagnosed by diffNLR — plus the
//! ParLOT trace-file round trip (traces are stored compressed and
//! decompressed by the analysis front-end).
//!
//! ```text
//! cargo run --example oddeven_deadlock
//! ```

use difftrace::{diff_runs, AttrConfig, AttrKind, FilterConfig, FreqMode, Params};
use dt_trace::{store, FunctionRegistry, TraceId};
use std::sync::Arc;
use workloads::{run_oddeven, OddEvenConfig};

fn main() {
    let registry = Arc::new(FunctionRegistry::new());
    let normal = run_oddeven(&OddEvenConfig::paper(None), registry.clone());
    let faulty = run_oddeven(
        &OddEvenConfig::paper(Some(OddEvenConfig::dl_bug())),
        registry,
    );
    assert!(faulty.deadlocked, "dlBug must deadlock");
    println!(
        "faulty run aborted: {:?} ({} rank errors)",
        faulty.abort_reason,
        faulty.errors.len()
    );

    // ParLOT writes compressed per-thread trace files; round-trip the
    // faulty execution through the on-disk format.
    let dir = std::env::temp_dir().join("difftrace_example");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("faulty.dtts");
    store::save(&faulty.traces, &path).expect("save traces");
    let loaded = store::IndexedSet::open(&path)
        .and_then(|ix| ix.full_set())
        .expect("load traces");
    let bytes = std::fs::metadata(&path).expect("stat").len();
    println!(
        "stored {} traces in {} bytes ({} bytes/trace) at {}",
        loaded.len(),
        bytes,
        bytes as usize / loaded.len(),
        path.display()
    );

    // Diff the pair and look at rank 5 — the planted culprit.
    let params = Params::new(
        FilterConfig::mpi_all(10),
        AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::Actual,
        },
    );
    let d = diff_runs(&normal.traces, &loaded, &params);
    println!("\nsuspicious processes: {:?}", d.suspicious_processes);
    println!("\n{}", d.diff_nlr(TraceId::master(5)).unwrap());
    println!(
        "note: the faulty trace never reaches MPI_Finalize — the hang\n\
         signature the paper highlights in Figure 6."
    );
    std::fs::remove_file(&path).ok();
}
