//! Incremental concept-lattice construction scaling.
//!
//! The paper chooses Godin's incremental algorithm (O(2^{2K}·|G|))
//! over Ganter's batch Next Closure because traces arrive one at a
//! time. This bench measures lattice build time as the number of
//! objects (traces) and attributes grows, plus the JSM computation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use difftrace::JsmMatrix;
use dt_trace::TraceId;
use fca::{ConceptLattice, FormalContext};
use std::hint::black_box;

/// A context resembling trace attributes: `n` objects over a universe
/// of `m` attributes, each object holding a deterministic subset.
fn trace_like_context(n: usize, m: usize) -> FormalContext {
    let mut ctx = FormalContext::new();
    let names: Vec<String> = (0..m).map(|i| format!("fn_{i}")).collect();
    for g in 0..n {
        // Common core + a structured per-object slice (master/worker
        // style classes) + a couple of object-specific attributes.
        let mut attrs: Vec<&str> = names[..m / 4].iter().map(|s| s.as_str()).collect();
        let class = g % 4;
        attrs.extend(
            names[m / 4 + class * (m / 8)..m / 4 + (class + 1) * (m / 8)]
                .iter()
                .map(|s| s.as_str()),
        );
        attrs.push(&names[m / 2 + g % (m / 2)]);
        ctx.add_object_unweighted(&format!("T{g}"), attrs);
    }
    ctx
}

fn bench_fca(c: &mut Criterion) {
    let mut g = c.benchmark_group("fca");
    for n in [8usize, 16, 32, 64] {
        let ctx = trace_like_context(n, 64);
        g.bench_with_input(BenchmarkId::new("lattice_build", n), &ctx, |b, ctx| {
            b.iter(|| {
                black_box(
                    ConceptLattice::from_context(black_box(ctx))
                        .concepts()
                        .len(),
                )
            });
        });
        g.bench_with_input(BenchmarkId::new("jaccard_matrix", n), &ctx, |b, ctx| {
            let ids: Vec<TraceId> = (0..n as u32).map(TraceId::master).collect();
            b.iter(|| black_box(JsmMatrix::from_context(black_box(ctx), ids.clone())));
        });
    }
    g.finish();

    for n in [8usize, 64] {
        let ctx = trace_like_context(n, 64);
        let l = ConceptLattice::from_context(&ctx);
        eprintln!("[fca] n={n}: {} concepts", l.concepts().len());
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
criterion_group! {name = benches; config = short(); targets = bench_fca}
criterion_main!(benches);
