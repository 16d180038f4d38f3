//! ParLOT-style trace compression: throughput and (printed) ratios on
//! loopy vs incompressible streams — the §I/§V compression claims.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dt_trace::compress::{compress, decompress, CompressionStats};
use std::hint::black_box;

fn loopy(n: usize) -> Vec<u32> {
    // (A B C D E F)^k with occasional phase markers — call-trace-like.
    let mut v = Vec::with_capacity(n);
    while v.len() < n {
        for s in 0..6u32 {
            v.push(s);
        }
        if v.len() % 1200 < 6 {
            v.push(99);
        }
    }
    v.truncate(n);
    v
}

fn random(n: usize) -> Vec<u32> {
    let mut x = 88172645463325252u64;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 33) as u32
        })
        .collect()
}

fn bench_compress(c: &mut Criterion) {
    let mut g = c.benchmark_group("compress");
    for n in [10_000usize, 100_000] {
        for (name, data) in [("loopy", loopy(n)), ("random", random(n))] {
            g.throughput(Throughput::Elements(n as u64));
            g.bench_with_input(BenchmarkId::new(name, n), &data, |b, data| {
                b.iter(|| black_box(compress(black_box(data))).len());
            });
            let blob = compress(&data);
            g.bench_with_input(
                BenchmarkId::new(format!("{name}_decompress"), n),
                &blob,
                |b, blob| {
                    b.iter(|| {
                        black_box(decompress(black_box(blob), u64::MAX, u64::MAX).unwrap()).len()
                    });
                },
            );
        }
    }
    g.finish();

    for (name, data) in [("loopy", loopy(400_000)), ("random", random(400_000))] {
        let blob = compress(&data);
        let s = CompressionStats::measure(&data, &blob);
        eprintln!(
            "[compress] {name}: {} symbols -> {} bytes (ratio {:.0}×)",
            s.symbols,
            s.compressed_bytes,
            s.ratio()
        );
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
criterion_group! {name = benches; config = short(); targets = bench_compress}
criterion_main!(benches);
