//! Cache-equivalence harness for the content-addressed analysis cache.
//!
//! The contract under test: the cache is **observational**. For every
//! entry point and every thread count, an analysis through a cache —
//! cold (empty), warm (fully populated), memory-only or disk-backed,
//! even over a corrupted cache directory — produces byte-identical
//! output to the uncached sequential run. Floats are compared
//! bit-for-bit, renders as exact strings. On top of identity, the
//! harness pins the *point* of the cache: a warm sweep performs
//! strictly fewer NLR folds than a cold one (via the `nlr_folds`
//! counter), and a fresh process over the same cache directory hits
//! from disk.

use difftrace::filter::symbol_name;
use difftrace::{
    sweep, try_diff_runs, AttrConfig, AttrKind, DiffRun, FilterConfig, FreqMode, Params,
    PipelineOptions, RankingRow,
};
use dt_cache::Cache;
use dt_trace::{FunctionRegistry, TraceCollector, TraceId, TraceSet};
use nlr::LoopId;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use workloads::{run_oddeven, OddEvenConfig};

const THREADS: &[usize] = &[1, 2, 8, 0];

fn oddeven_pair() -> (TraceSet, TraceSet) {
    let reg = Arc::new(FunctionRegistry::new());
    let n = run_oddeven(&OddEvenConfig::paper(None), reg.clone()).traces;
    let f = run_oddeven(&OddEvenConfig::paper(Some(OddEvenConfig::swap_bug())), reg).traces;
    (n, f)
}

fn params() -> Params {
    Params::new(
        FilterConfig::mpi_all(10),
        AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::Actual,
        },
    )
}

fn opts(threads: usize, cache: Option<Arc<Cache>>) -> PipelineOptions {
    PipelineOptions {
        threads,
        gates: Default::default(),
        cache,
    }
}

fn run_diff(
    normal: &TraceSet,
    faulty: &TraceSet,
    threads: usize,
    cache: Option<Arc<Cache>>,
) -> DiffRun {
    try_diff_runs(
        normal,
        faulty,
        None,
        &params(),
        &opts(threads, cache),
        &dt_obs::NOOP,
    )
    .expect("gates are off")
}

/// A byte-exact fingerprint of everything loop-ID numbering and float
/// computation can leak into: the full report, both mined contexts,
/// every NLR render, the shared loop table, and the raw B-score bits.
fn fingerprint(d: &DiffRun) -> String {
    let mut s = difftrace::generate_report(d);
    s.push_str(&format!("\nbscore={:016x}\n", d.bscore.to_bits()));
    for (tag, run) in [("normal", &d.normal), ("faulty", &d.faulty)] {
        s.push_str(&format!("{tag}.context:\n{}", run.context.to_csv()));
        let name = |sym: u32| symbol_name(&run.registry, sym);
        for id in &run.ids {
            s.push_str(&format!(
                "{tag}.nlr[{id}]: {:?}\n",
                run.nlrs.get(*id).unwrap().render(&name)
            ));
        }
    }
    for i in 0..d.table.len() {
        s.push_str(&format!("L{i}={:?}\n", d.table.body(LoopId(i as u32))));
    }
    s
}

fn assert_rows_equal(tag: &str, a: &[RankingRow], b: &[RankingRow]) {
    assert_eq!(a.len(), b.len(), "{tag}: row count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.filter, y.filter, "{tag}");
        assert_eq!(x.attrs, y.attrs, "{tag}");
        assert_eq!(x.bscore.to_bits(), y.bscore.to_bits(), "{tag}: B-score");
        assert_eq!(x.top_processes, y.top_processes, "{tag}");
        assert_eq!(x.top_threads, y.top_threads, "{tag}");
    }
}

fn counter(m: &dt_obs::Metrics, name: &str) -> u64 {
    m.counters
        .iter()
        .find(|(k, _)| k == name)
        .map(|&(_, v)| v)
        .unwrap_or_else(|| panic!("missing counter `{name}` in {:?}", m.counters))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dt_cache_equiv_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The tentpole contract: cold-through-cache and warm-through-cache
/// diffs are byte-identical to the uncached sequential run, at every
/// thread count — and the warm passes actually hit.
#[test]
fn cached_diff_is_byte_identical_cold_and_warm() {
    let (normal, faulty) = oddeven_pair();
    let baseline = fingerprint(&run_diff(&normal, &faulty, 1, None));
    let cache = Arc::new(Cache::new());
    // First loop iteration runs cold, every later one warm — and warm
    // entries were populated by *different* thread counts, which is
    // exactly the aliasing the portable-fold design must absorb.
    for pass in ["cold", "warm"] {
        for &threads in THREADS {
            let d = run_diff(&normal, &faulty, threads, Some(cache.clone()));
            assert_eq!(
                fingerprint(&d),
                baseline,
                "{pass} t={threads} diverged from uncached sequential"
            );
        }
    }
    let stats = cache.stats();
    assert!(stats.nlr_hits > 0, "warm passes never hit: {stats:?}");
    assert!(stats.attr_hits > 0, "attr cache never hit: {stats:?}");
}

/// The acceptance criterion: a warm sweep folds strictly fewer traces
/// than a cold one (counted by `nlr_folds`), with byte-identical rows.
#[test]
fn warm_sweep_folds_strictly_fewer_with_identical_rows() {
    let (normal, faulty) = oddeven_pair();
    let filters = vec![FilterConfig::mpi_all(10), FilterConfig::everything(10)];
    let uncached = sweep(
        &normal,
        &faulty,
        &filters,
        &AttrConfig::ALL,
        cluster::Method::Ward,
        &opts(1, None),
        &dt_obs::NOOP,
    );

    let cache = Arc::new(Cache::new());
    let run = |tag: &str| {
        let rec = dt_obs::MetricsRecorder::new();
        let rows = sweep(
            &normal,
            &faulty,
            &filters,
            &AttrConfig::ALL,
            cluster::Method::Ward,
            &opts(4, Some(cache.clone())),
            &rec,
        );
        assert_rows_equal(tag, &rows, &uncached);
        counter(&rec.finish("sweep", 4), "nlr_folds")
    };
    let cold = run("cold");
    let warm = run("warm");
    assert!(cold > 0, "cold sweep must fold something");
    assert_eq!(warm, 0, "a fully warm sweep re-folds nothing");
    assert!(warm < cold, "warm sweep must do strictly fewer folds");
}

/// Disk persistence: a brand-new `Cache` over a directory another
/// instance populated answers from disk — byte-identically — and a
/// corrupted directory degrades to recomputation, never to an error or
/// a wrong row.
#[test]
fn disk_cache_persists_and_corruption_degrades_to_miss() {
    let (normal, faulty) = oddeven_pair();
    let filters = vec![FilterConfig::mpi_all(10)];
    let attrs = [
        AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::Actual,
        },
        AttrConfig {
            kind: AttrKind::Double,
            freq: FreqMode::NoFreq,
        },
    ];
    let uncached = sweep(
        &normal,
        &faulty,
        &filters,
        &attrs,
        cluster::Method::Ward,
        &opts(1, None),
        &dt_obs::NOOP,
    );
    let dir = tmp("persist");

    // Populate.
    let writer = Arc::new(Cache::with_dir(&dir).unwrap());
    let rows = sweep(
        &normal,
        &faulty,
        &filters,
        &attrs,
        cluster::Method::Ward,
        &opts(1, Some(writer.clone())),
        &dt_obs::NOOP,
    );
    assert_rows_equal("populate", &rows, &uncached);
    assert!(writer.stats().disk_write_bytes > 0);
    drop(writer);

    // A fresh instance (empty memory) hits from disk, re-folds nothing.
    let reader = Arc::new(Cache::with_dir(&dir).unwrap());
    let rows = sweep(
        &normal,
        &faulty,
        &filters,
        &attrs,
        cluster::Method::Ward,
        &opts(1, Some(reader.clone())),
        &dt_obs::NOOP,
    );
    assert_rows_equal("disk-warm", &rows, &uncached);
    let s = reader.stats();
    assert!(s.disk_read_bytes > 0, "{s:?}");
    assert_eq!(s.nlr_misses, 0, "disk-warm run must not re-fold: {s:?}");

    // Vandalize every entry: truncate half of them, scribble over the
    // rest. The analysis must neither fail nor change.
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    assert!(!entries.is_empty());
    for (i, path) in entries.iter().enumerate() {
        if i % 2 == 0 {
            let bytes = std::fs::read(path).unwrap();
            std::fs::write(path, &bytes[..bytes.len() / 2]).unwrap();
        } else {
            std::fs::write(path, b"not a cache entry").unwrap();
        }
    }
    let survivor = Arc::new(Cache::with_dir(&dir).unwrap());
    let rows = sweep(
        &normal,
        &faulty,
        &filters,
        &attrs,
        cluster::Method::Ward,
        &opts(1, Some(survivor.clone())),
        &dt_obs::NOOP,
    );
    assert_rows_equal("corrupted-dir", &rows, &uncached);
    assert!(
        survivor.stats().nlr_misses > 0,
        "corrupted entries must read as misses: {:?}",
        survivor.stats()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Random "call trace": loopy with a small alphabet plus noise (the
/// same shape the cross-crate property tests use).
fn trace_strategy() -> impl Strategy<Value = Vec<u32>> {
    let loopy = (
        1usize..4,
        1usize..12,
        proptest::collection::vec(0u32..6, 1..5),
    )
        .prop_map(|(reps_outer, reps_inner, body)| {
            let mut v = Vec::new();
            for _ in 0..reps_outer {
                for _ in 0..reps_inner {
                    v.extend(&body);
                }
                v.push(7); // separator
            }
            v
        });
    let noisy = proptest::collection::vec(0u32..10, 0..60);
    prop_oneof![loopy, noisy]
}

fn set_from_streams(reg: &Arc<FunctionRegistry>, streams: &[Vec<u32>]) -> TraceSet {
    let collector = TraceCollector::shared(reg.clone());
    for (p, stream) in streams.iter().enumerate() {
        let tr = collector.tracer(TraceId::master(p as u32));
        for &s in stream {
            tr.leaf(&format!("fn_{s}"));
        }
        tr.finish();
    }
    collector.into_trace_set()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite: for arbitrary corpora, a warm parallel sweep through
    /// a cache equals the cold sequential uncached sweep, row for row
    /// and bit for bit.
    #[test]
    fn warm_parallel_sweep_matches_cold_sequential(
        streams in proptest::collection::vec(trace_strategy(), 2..5),
        bad in 0usize..4,
    ) {
        let reg = Arc::new(FunctionRegistry::new());
        let normal = set_from_streams(&reg, &streams);
        // Perturb one stream for the "faulty" run.
        let mut perturbed = streams.clone();
        let victim = bad % perturbed.len();
        let keep = perturbed[victim].len() / 2;
        perturbed[victim].truncate(keep);
        let faulty = set_from_streams(&reg, &perturbed);

        let filters = vec![
            FilterConfig::everything(10),
            FilterConfig { drop_returns: false, ..FilterConfig::everything(10) },
        ];
        let attrs = [
            AttrConfig { kind: AttrKind::Single, freq: FreqMode::Actual },
            AttrConfig { kind: AttrKind::Double, freq: FreqMode::NoFreq },
        ];
        let cold = sweep(
            &normal, &faulty, &filters, &attrs, cluster::Method::Ward, &opts(1, None),
            &dt_obs::NOOP,
        );

        let cache = Arc::new(Cache::new());
        // Prime, then sweep warm in parallel.
        let primed = sweep(
            &normal, &faulty, &filters, &attrs, cluster::Method::Ward,
            &opts(1, Some(cache.clone())), &dt_obs::NOOP,
        );
        let warm = sweep(
            &normal, &faulty, &filters, &attrs, cluster::Method::Ward,
            &opts(4, Some(cache)), &dt_obs::NOOP,
        );
        for (label, rows) in [("primed", &primed), ("warm", &warm)] {
            prop_assert_eq!(rows.len(), cold.len(), "{}", label);
            for (a, b) in rows.iter().zip(&cold) {
                prop_assert_eq!(&a.filter, &b.filter, "{}", label);
                prop_assert_eq!(&a.attrs, &b.attrs, "{}", label);
                prop_assert_eq!(a.bscore.to_bits(), b.bscore.to_bits(), "{}", label);
                prop_assert_eq!(&a.top_processes, &b.top_processes, "{}", label);
                prop_assert_eq!(&a.top_threads, &b.top_threads, "{}", label);
            }
        }
    }

    /// Satellite: arbitrary corruption of a disk entry — truncation at
    /// any point or a byte flip anywhere — reads as a miss: the next
    /// analysis recomputes and stays byte-identical, never errors.
    #[test]
    fn corrupted_disk_entry_is_always_a_miss(
        stream in trace_strategy(),
        cut in 0.0f64..1.0,
        flip in 0usize..512,
        truncate in any::<bool>(),
    ) {
        let reg = Arc::new(FunctionRegistry::new());
        let set = set_from_streams(&reg, std::slice::from_ref(&stream));
        let p = Params::new(FilterConfig::everything(10), AttrConfig {
            kind: AttrKind::Single, freq: FreqMode::Actual,
        });
        let baseline = difftrace::analyze_single_opts_rec(
            &set, &p, 0, &PipelineOptions::default(), &dt_obs::NOOP,
        );

        let dir = tmp(&format!("prop_{:x}", dt_cache::nlr_key(10, &stream, |s| s.to_string())));
        let writer = Arc::new(Cache::with_dir(&dir).unwrap());
        let popts = PipelineOptions { cache: Some(writer.clone()), ..PipelineOptions::default() };
        let through = difftrace::analyze_single_opts_rec(&set, &p, 0, &popts, &dt_obs::NOOP);
        prop_assert_eq!(&baseline.outliers, &through.outliers);
        drop(writer);

        // Corrupt every entry at a stream-derived offset.
        let mut touched = false;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let mut bytes = std::fs::read(&path).unwrap();
            if bytes.is_empty() { continue; }
            if truncate {
                let keep = ((bytes.len() as f64) * cut) as usize;
                bytes.truncate(keep.min(bytes.len().saturating_sub(1)));
            } else {
                let i = flip % bytes.len();
                bytes[i] ^= 0x5a;
            }
            std::fs::write(&path, &bytes).unwrap();
            touched = true;
        }
        prop_assert!(touched, "cached single run wrote no entries");

        let reader = Arc::new(Cache::with_dir(&dir).unwrap());
        let popts = PipelineOptions { cache: Some(reader.clone()), ..PipelineOptions::default() };
        let recovered = difftrace::analyze_single_opts_rec(&set, &p, 0, &popts, &dt_obs::NOOP);
        prop_assert_eq!(&baseline.clusters, &recovered.clusters);
        prop_assert_eq!(&baseline.outliers, &recovered.outliers);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
