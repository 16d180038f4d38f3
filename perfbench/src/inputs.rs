//! Benchmark inputs: generated from the seed, off the clock, in a child
//! process, and written as name-canonical `.dtts` bytes.
//!
//! mpisim runs one OS thread per rank and interns function names in
//! thread-schedule order, so two recordings of one program carry the
//! same traces under permuted symbol ids (and a happens-before log in
//! arrival order). [`canonical`] renumbers symbols by sorted name
//! and orders the log by rank, so one seed always yields the same bytes.
//! The generator runs in a child process so that neither its time nor
//! its memory (one thread stack per simulated rank) lands in the
//! measuring process.

use dt_trace::hash::StableHasher;
use dt_trace::hb::HbLog;
use dt_trace::{store, FunctionRegistry, Trace, TraceSet};
use std::path::Path;
use std::sync::Arc;
use workloads::{
    LuleshConfig, OddEvenConfig, OmpCounterConfig, OmpCounterFault, ReqLifeConfig, ReqLifeFault,
    RunOutcome,
};

/// Healthy runs of the fleet corpus (plus one faulty run).
pub const FLEET_HEALTHY: usize = 8;

/// One named `.dtts` image.
pub struct Corpus {
    pub name: String,
    pub bytes: Vec<u8>,
}

/// Record the corpora of `workload` for `seed`, canonicalized. Both
/// daemon workloads serve the same corpora.
pub fn generate(workload: &str, seed: u64) -> Result<Vec<Corpus>, String> {
    match workload {
        "serve-mixed" | "serve-cold" => {
            let mut out = Vec::new();
            let paper = LuleshConfig::paper(None);
            out.extend(pair(
                "lulesh-",
                |reg| workloads::run_lulesh(&paper, reg),
                |reg| {
                    workloads::run_lulesh(&LuleshConfig::paper(Some(LuleshConfig::skip_bug())), reg)
                },
            ));
            out.extend(pair(
                "omp-",
                |reg| workloads::run_omp_counter(&OmpCounterConfig::default_2x4(), reg),
                |reg| {
                    let cfg = OmpCounterConfig {
                        fault: Some(OmpCounterFault::Unprotected { rank: 1 }),
                        ..OmpCounterConfig::default_2x4()
                    };
                    workloads::run_omp_counter(&cfg, reg)
                },
            ));
            out.extend(pair(
                "leak-",
                |reg| workloads::run_reqlife(&ReqLifeConfig::default_4(), reg),
                |reg| {
                    let cfg = ReqLifeConfig {
                        fault: Some(ReqLifeFault::LeakRequest { rank: 2, iter: 1 }),
                        ..ReqLifeConfig::default_4()
                    };
                    workloads::run_reqlife(&cfg, reg)
                },
            ));
            // The demo fleet's shape, with the healthy input seeds drawn
            // from the benchmark seed.
            for i in 0..=FLEET_HEALTHY {
                let healthy = i < FLEET_HEALTHY;
                let cfg = OddEvenConfig {
                    ranks: 16,
                    values_per_rank: 4,
                    seed: seed.wrapping_mul(16).wrapping_add(i as u64),
                    fault: (!healthy).then(OddEvenConfig::swap_bug),
                };
                let run = workloads::run_oddeven(&cfg, Arc::new(FunctionRegistry::new()));
                let name = if healthy {
                    format!("run-{i}")
                } else {
                    "fault".to_string()
                };
                let [c] = canonical(&run.traces.registry.names(), [&run], [name]);
                out.push(c);
            }
            Ok(out)
        }
        other => Err(format!(
            "unknown workload `{other}` (serve-mixed, serve-cold)"
        )),
    }
}

/// Record a normal/faulty pair on one shared registry (as `difftrace
/// demo` does) and canonicalize both over the union of their names.
fn pair(
    prefix: &str,
    normal: impl FnOnce(Arc<FunctionRegistry>) -> RunOutcome,
    faulty: impl FnOnce(Arc<FunctionRegistry>) -> RunOutcome,
) -> [Corpus; 2] {
    let reg = Arc::new(FunctionRegistry::new());
    let n = normal(reg.clone());
    let f = faulty(reg.clone());
    canonical(
        &reg.names(),
        [&n, &f],
        [format!("{prefix}normal"), format!("{prefix}faulty")],
    )
}

/// Re-encode runs recorded on a registry holding `names` with symbols
/// renumbered by sorted name and the happens-before log in rank order.
fn canonical<const N: usize>(
    names: &[String],
    runs: [&RunOutcome; N],
    labels: [String; N],
) -> [Corpus; N] {
    let mut sorted: Vec<String> = names.to_vec();
    sorted.sort();
    let new_id: Vec<u32> = names
        .iter()
        .map(|n| sorted.binary_search(n).expect("name present") as u32)
        .collect();
    let registry = Arc::new(FunctionRegistry::from_names(sorted));
    let mut i = 0;
    labels.map(|name| {
        let run = runs[i];
        i += 1;
        let mut set = TraceSet::new(registry.clone());
        for t in run.traces.iter() {
            let symbols: Vec<u32> = t
                .to_symbols()
                .iter()
                .map(|&s| (new_id[(s >> 1) as usize] << 1) | (s & 1))
                .collect();
            set.insert(Trace::from_symbols(t.id, &symbols, t.truncated));
        }
        let bytes = store::to_bytes_full(&set, Some(&canonical_hb(&run.hb)));
        Corpus { name, bytes }
    })
}

/// The log with events in (rank, program order) and every abort-time
/// list sorted: the same causal content, independent of arrival order.
fn canonical_hb(hb: &HbLog) -> HbLog {
    let mut events = hb.events();
    events.sort_by_key(|e| e.trace);
    let mut out = HbLog::new(hb.world_size());
    for e in &events {
        out.push(e.trace, &e.name, e.op, &e.vc);
    }
    out.blocked = hb.blocked.clone();
    out.blocked.sort_by_key(|b| b.rank);
    out.pending_collectives = hb.pending_collectives.clone();
    out.pending_collectives.sort_by_key(|p| p.slot);
    out.unmatched_sends = hb.unmatched_sends.clone();
    out.unmatched_sends.sort_by_key(|u| (u.src, u.dst, u.tag));
    out.finished = hb.finished.clone();
    out.finished.sort_unstable();
    out
}

/// 128-bit stable digest of `bytes`, as hex.
pub fn digest(bytes: &[u8]) -> String {
    let mut h = StableHasher::new();
    h.write_bytes(bytes);
    format!("{:032x}", h.finish())
}

/// Digest over every corpus name and image, in order.
pub fn digest_all(corpora: &[Corpus]) -> String {
    let mut h = StableHasher::new();
    for c in corpora {
        h.write_str(&c.name);
        h.write_bytes(&c.bytes);
    }
    format!("{:032x}", h.finish())
}

/// Write each corpus as `<dir>/<name>.dtts`.
pub fn write_dir(dir: &Path, corpora: &[Corpus]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    for c in corpora {
        let path = dir.join(format!("{}.dtts", c.name));
        std::fs::write(&path, &c.bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// Run the generator as a child process writing into `dir`, wait for
/// it, and read back the corpora it wrote (in the order it listed them).
pub fn generate_in_child(workload: &str, seed: u64, dir: &Path) -> Result<Vec<Corpus>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["gen", "--workload", workload, "--seed", &seed.to_string()])
        .arg("--out")
        .arg(dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the input generator: {e}"))?;
    if !out.status.success() {
        return Err(format!("input generator failed ({})", out.status));
    }
    let listing = String::from_utf8_lossy(&out.stdout);
    let names: Vec<String> = listing.lines().map(str::to_string).collect();
    read_corpora(dir, &names)
}

/// Read back the corpora `names` written into `dir`.
pub fn read_corpora(dir: &Path, names: &[String]) -> Result<Vec<Corpus>, String> {
    names
        .iter()
        .map(|name| {
            let path = dir.join(format!("{name}.dtts"));
            let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(Corpus {
                name: name.clone(),
                bytes,
            })
        })
        .collect()
}
