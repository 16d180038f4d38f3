//! The checkers' working sets, counted exactly. A counting global
//! allocator tracks live heap bytes, so the peak a checker call
//! reaches is a property of the code and the input, not of the
//! machine.
//!
//! Every checker reads raw NLR terms through one fold that streams
//! them a chunk at a time, so at one thread neither lint (whose TL005
//! folds in both domains) nor a compressed-domain checker ever holds
//! every raw term at once; and TL005 reports the same in both domains.
//! A decoded trace is its packed symbol stream, so reading a whole
//! corpus costs about 4 bytes per event.

use difftrace::{
    hbcheck_set, lint_set, racecheck_set, reqcheck_set, CheckInput, CheckOptions, Checker, Lint,
    LintDomain, LintOptions,
};
use dt_obs::MetricsRecorder;
use dt_trace::{store, FunctionRegistry, IndexedSet, TraceSet};
use nlr::{Element, NlrBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use tracelint::RuleCode;
use workloads::{run_lulesh, LuleshConfig, RunOutcome};

mod common;

/// The system allocator, with a running count of live bytes and the
/// highest count seen since [`peak_during`] last reset it.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(n: usize) {
    let now = LIVE.fetch_add(n, Ordering::SeqCst) + n;
    PEAK.fetch_max(now, Ordering::SeqCst);
}

fn shrank(n: usize) {
    LIVE.fetch_sub(n, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Tests in this binary take turns, so no other test's allocations
/// land inside a measured window.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Live heap bytes `f` adds at its peak, above what was live when it
/// started.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let out = f();
    (out, PEAK.load(Ordering::SeqCst) - base)
}

/// The demo LULESH faulty run.
fn lulesh_faulty() -> RunOutcome {
    run_lulesh(
        &LuleshConfig::paper(Some(LuleshConfig::skip_bug())),
        Arc::new(FunctionRegistry::new()),
    )
}

/// The bytes of `set`'s raw NLR terms at `K = 10` (664,096 on the demo
/// LULESH faulty corpus).
fn raw_term_bytes(set: &TraceSet) -> usize {
    set.iter()
        .map(|t| NlrBuilder::new(10).fold(&t.events).elements.len())
        .sum::<usize>()
        * std::mem::size_of::<Element>()
}

/// At one thread, lint's peak live heap on the demo LULESH faulty
/// corpus stays below the bytes of that corpus's raw NLR terms: the
/// terms are never all held at once.
#[test]
fn one_thread_lint_never_holds_every_raw_term() {
    let _turn = serial();
    let set = lulesh_faulty().traces;
    let opts = LintOptions::default();
    let terms = raw_term_bytes(&set);
    let (report, peak) = peak_during(|| lint_set(&set, &opts));
    assert!(!report.diagnostics().is_empty(), "the faulty corpus lints");
    assert!(
        peak < terms,
        "lint_set peaked at {peak} live heap bytes; the raw terms alone are {terms}"
    );
}

/// At one thread, each compressed-domain checker's peak live heap on
/// the demo LULESH faulty corpus stays below the bytes of its raw NLR
/// terms: the facts are computed a chunk at a time and the terms are
/// dropped with their chunk. Lint projects each chunk's terms for TL002
/// there too, keeping only the per-rank collective streams.
#[test]
fn one_thread_compressed_checkers_never_hold_every_raw_term() {
    let _turn = serial();
    let run = lulesh_faulty();
    let set = &run.traces;
    let terms = raw_term_bytes(set);
    let opts = CheckOptions {
        domain: LintDomain::Compressed,
        ..CheckOptions::default()
    };
    let lint_opts = LintOptions {
        domain: LintDomain::Compressed,
        ..LintOptions::default()
    };
    let peaks = [
        (
            "lint",
            peak_during(|| lint_set(set, &lint_opts).render_text()),
        ),
        (
            "hbcheck",
            peak_during(|| hbcheck_set(set, &run.hb, &opts).render_text()),
        ),
        (
            "racecheck",
            peak_during(|| racecheck_set(set, &opts).render_text()),
        ),
        (
            "reqcheck",
            peak_during(|| reqcheck_set(set, &opts).render_text()),
        ),
    ];
    for (name, (_, peak)) in peaks {
        assert!(
            peak < terms,
            "compressed {name} peaked at {peak} live heap bytes; the raw terms alone are {terms}"
        );
    }
}

/// Decoding the demo LULESH faulty corpus holds each event once, as
/// its 4-byte symbol: `IndexedSet::full_set` peaks below 5 bytes per
/// event (the trace headers, the set's tree and one vector per trace
/// share the last byte).
#[test]
fn whole_corpus_decode_holds_four_bytes_per_event() {
    let _turn = serial();
    let run = lulesh_faulty();
    let events: usize = run.traces.iter().map(|t| t.len()).sum();
    let ix = IndexedSet::from_bytes(store::to_bytes_full(&run.traces, Some(&run.hb))).unwrap();
    drop(run);
    let (set, peak) = peak_during(|| ix.full_set().unwrap());
    assert_eq!(set.iter().map(|t| t.len()).sum::<usize>(), events);
    assert!(
        peak < 5 * events,
        "full_set peaked at {peak} live heap bytes for {events} events ({:.2} B/event)",
        peak as f64 / events as f64
    );
}

/// On every demo corpus, TL005 reports the same in both domains at every
/// thread count, and each domain folds each class of equal streams once.
#[test]
fn roundtrip_diagnostics_agree_across_domains() {
    let _turn = serial();
    for (name, set) in common::demo_runs() {
        let distinct: std::collections::BTreeSet<&[u32]> =
            set.iter().map(|t| t.events.as_slice()).collect();
        let tl005 = |domain: LintDomain, threads: usize| {
            let opts = LintOptions {
                threads,
                domain,
                ..LintOptions::default()
            };
            let rec = MetricsRecorder::new();
            let report = Lint.run(
                &CheckInput {
                    set: &set,
                    hb: None,
                },
                &opts,
                &rec,
            );
            let folds = rec
                .counters()
                .into_iter()
                .find(|(k, _)| k == "lint_folds")
                .map(|(_, v)| v);
            assert_eq!(folds, Some(distinct.len() as u64), "{name}: {domain:?}");
            report
                .diagnostics()
                .iter()
                .filter(|d| d.code == RuleCode::NlrRoundtrip)
                .map(|d| format!("{d:?}"))
                .collect::<Vec<String>>()
        };
        let reference = tl005(LintDomain::Compressed, 1);
        for threads in [1, 2, 4] {
            for domain in [LintDomain::Expanded, LintDomain::Compressed] {
                assert_eq!(
                    tl005(domain, threads),
                    reference,
                    "{name}: {domain:?} at {threads} thread(s)"
                );
            }
        }
    }
}
