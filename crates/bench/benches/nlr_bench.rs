//! NLR throughput and reduction vs the buffer constant K.
//!
//! The paper quotes Θ(K²·N) complexity for trying every body length up
//! to K on every push, and reports trace-size reductions at K = 10 and
//! K = 50 (§V). The builder scans once and visits only the stack slots
//! that can match, so its time should barely move with K. This bench
//! measures both the time and (printed once) the reduction factor over
//! three synthetic shapes — flat loops, nested loops, and loop bodies
//! longer than K — and over the raw traces of the demo LULESH faulty
//! run (`lulesh_raw`, every trace folded).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dt_trace::FunctionRegistry;
use nlr::{LoopTable, NlrBuilder};
use std::hint::black_box;
use std::sync::Arc;
use workloads::{run_lulesh, LuleshConfig};

/// (A B C D)^n — a flat 4-symbol loop.
fn flat_loop(n: usize) -> Vec<u32> {
    (0..n).flat_map(|_| [0u32, 1, 2, 3]).collect()
}

/// ((A B)^3 C)^n — depth-2 nest.
fn nested_loop(n: usize) -> Vec<u32> {
    let mut v = Vec::new();
    for _ in 0..n {
        for _ in 0..3 {
            v.push(0);
            v.push(1);
        }
        v.push(2);
    }
    v
}

/// A 12-symbol body repeated — foldable only for K ≥ 12.
fn long_body(n: usize) -> Vec<u32> {
    (0..n).flat_map(|_| 0u32..12).collect()
}

/// The raw symbol stream of every trace of the demo LULESH faulty run.
fn lulesh_raw() -> Vec<Vec<u32>> {
    let run = run_lulesh(
        &LuleshConfig::paper(Some(LuleshConfig::skip_bug())),
        Arc::new(FunctionRegistry::new()),
    );
    run.traces.iter().map(|t| t.events.clone()).collect()
}

fn bench_nlr(c: &mut Criterion) {
    let mut g = c.benchmark_group("nlr");
    for (name, input) in [
        ("flat", flat_loop(25_000)),
        ("nested", nested_loop(10_000)),
        ("long_body", long_body(8_000)),
    ] {
        g.throughput(Throughput::Elements(input.len() as u64));
        for k in [10usize, 50] {
            g.bench_with_input(BenchmarkId::new(name, k), &input, |b, input| {
                b.iter(|| {
                    let mut table = LoopTable::new();
                    let nlr = NlrBuilder::new(k).build(black_box(input), &mut table);
                    black_box(nlr.elements().len())
                });
            });
        }
    }
    let traces = lulesh_raw();
    let events: usize = traces.iter().map(Vec::len).sum();
    g.throughput(Throughput::Elements(events as u64));
    for k in [10usize, 50] {
        g.bench_with_input(BenchmarkId::new("lulesh_raw", k), &traces, |b, traces| {
            b.iter(|| {
                traces
                    .iter()
                    .map(|s| NlrBuilder::new(k).fold(black_box(s)).elements.len())
                    .sum::<usize>()
            });
        });
    }
    g.finish();

    // Print the K-dependence of the reduction once (the §V numbers).
    for (name, input) in [
        ("flat", flat_loop(25_000)),
        ("nested", nested_loop(10_000)),
        ("long_body", long_body(8_000)),
    ] {
        for k in [10usize, 50] {
            let mut table = LoopTable::new();
            let nlr = NlrBuilder::new(k).build(&input, &mut table);
            eprintln!(
                "[nlr] {name} K={k}: {} -> {} elements (×{:.1})",
                input.len(),
                nlr.elements().len(),
                nlr.reduction_factor()
            );
        }
    }
    for k in [10usize, 50] {
        let elements: usize = traces
            .iter()
            .map(|s| NlrBuilder::new(k).fold(s).elements.len())
            .sum();
        eprintln!("[nlr] lulesh_raw K={k}: {events} -> {elements} elements");
    }
}

/// Short measurement profile so `cargo bench --workspace` stays
/// practical; pass `--measurement-time` on the CLI to override.
fn short() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800))
        .sample_size(10)
}
criterion_group! {name = benches; config = short(); targets = bench_nlr}
criterion_main!(benches);
