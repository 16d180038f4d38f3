//! Compressed-domain vs expanded-domain per-trace facts, for every
//! checker.
//!
//! Each checker computes one trace's facts two ways with tested
//! agreement (`difftrace::Checker`): replaying the expanded event
//! stream, and folding the trace's NLR term with closed-form loop
//! repetition. The expanded walk is O(events); the compressed one is
//! O(term size), so on a high-repetition trace (`reps` iterations of
//! one body) its cost should stay flat while the expanded walk grows
//! linearly — the asymptotic win this bench exhibits per checker.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use difftrace::{CheckInput, Checker, HbCheck, Lint, RaceCheck, ReqCheck};
use dt_trace::hb::HbLog;
use dt_trace::{FunctionRegistry, Trace, TraceId, TraceSet};
use nlr::{LoopTable, NlrBuilder};
use std::hint::black_box;
use std::sync::Arc;

/// One body touching every checker's vocabulary: a locked
/// read-modify-write (racecheck), a completed post and a signed
/// collective (reqcheck), plain calls (hbcheck, lint).
const BODY: [&str; 8] = [
    "omp_acquire@counter_lock",
    "omp_read@counter",
    "omp_write@counter",
    "omp_release@counter_lock",
    "MPI_Isend",
    "MPI_Wait",
    "mpi_coll@MPI_Allreduce:4:-:sum",
    "MPI_Allreduce",
];

// The body's period (2·8 symbols) must fit the NLR window K below, or
// nothing folds and there is no compressed domain to speak of.
const NLR_K: usize = 16;

/// `reps` iterations of [`BODY`], then a leaked post and an unlocked
/// write that never returns: the trace is truncated inside it, so the
/// open-stack, leak-witness and unprotected-access paths all get work.
fn high_repetition_set(reps: usize) -> TraceSet {
    let registry = FunctionRegistry::new();
    let ids: Vec<u32> = BODY.iter().map(|n| registry.intern(n).0).collect();
    let call = |f: u32| f << 1;
    let ret = |f: u32| (f << 1) | 1;
    let mut syms = Vec::with_capacity(reps * 16 + 3);
    for _ in 0..reps {
        for &f in &ids {
            syms.extend([call(f), ret(f)]);
        }
    }
    syms.extend([call(ids[4]), ret(ids[4]), call(ids[2])]);
    let mut set = TraceSet::new(Arc::new(registry));
    set.insert(Trace::from_symbols(TraceId::new(0, 1), &syms, true));
    set
}

fn bench<C: Checker>(c: &mut Criterion, checker: &C) {
    let mut g = c.benchmark_group(format!("{}_facts", C::NAME));
    g.sample_size(10);
    for reps in [1_000usize, 10_000, 100_000] {
        let set = high_repetition_set(reps);
        let trace = set.iter().next().expect("one trace");
        let syms = &trace.events;
        let mut table = LoopTable::new();
        let term = NlrBuilder::new(NLR_K).build(syms, &mut table);
        assert_eq!(&term.expand(&table), syms, "NLR must be lossless");
        assert!(
            term.elements().len() * 100 < syms.len(),
            "the stream must actually fold ({} elements for {} events)",
            term.elements().len(),
            syms.len()
        );

        // The two domains must agree before their speeds mean anything
        // (per-trace verdicts: lint's expanded facts add event spans).
        let hb = HbLog::new(1);
        let input = CheckInput {
            set: &set,
            hb: Some(&hb),
        };
        let vocab = checker.vocab(&input);
        let verdicts = |facts| {
            checker
                .analyze(&vocab, &input, vec![facts])
                .verdicts_for(trace.id)
        };
        assert_eq!(
            verdicts(checker.expanded(&vocab, trace)),
            verdicts(checker.compressed(&vocab, &table, trace, &term)),
            "{}: domains disagree",
            C::NAME
        );

        g.throughput(Throughput::Elements(syms.len() as u64));
        let id = format!("{reps}reps/{}ev", syms.len());
        g.bench_with_input(BenchmarkId::new("expanded", &id), trace, |b, t| {
            b.iter(|| black_box(checker.expanded(&vocab, black_box(t))));
        });
        g.bench_with_input(BenchmarkId::new("compressed", &id), &term, |b, term| {
            b.iter(|| black_box(checker.compressed(&vocab, &table, trace, black_box(term))));
        });
    }
    g.finish();
}

fn bench_checkers(c: &mut Criterion) {
    bench(c, &Lint);
    bench(c, &HbCheck);
    bench(c, &RaceCheck);
    bench(c, &ReqCheck);
}

criterion_group!(benches, bench_checkers);
criterion_main!(benches);
