//! Stress tests for the concurrency primitive under the parallel
//! engine: `par_map`'s claim-and-publish of one `OnceLock` per output
//! cell. `loom` is not available in this build environment, so these
//! hammer the real scheduler with heavy over-subscription and
//! repetition instead; a cell written twice or never is a panic inside
//! `par_map`, which any interleaving violation turns into a failure
//! here.

use difftrace::sync::par_map;
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn par_map_under_heavy_oversubscription() {
    // 64 threads on (likely) far fewer cores, 10k near-empty items:
    // maximizes claim/publish races on the output cells.
    let items: Vec<usize> = (0..10_000).collect();
    for rep in 0..3 {
        let out = par_map(&items, 64, |i, &x| {
            assert_eq!(i, x);
            x.wrapping_mul(2654435761) ^ rep
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i.wrapping_mul(2654435761) ^ rep);
        }
    }
}

#[test]
fn par_map_runs_every_item_exactly_once() {
    let calls = AtomicUsize::new(0);
    let items: Vec<u32> = (0..4096).collect();
    let out = par_map(&items, 16, |_, &x| {
        calls.fetch_add(1, Ordering::Relaxed);
        x
    });
    assert_eq!(calls.load(Ordering::Relaxed), items.len());
    assert_eq!(out, items);
}

#[test]
fn nested_par_map_inside_par_map() {
    // diff_runs_opts nests par_map (per-side workers) inside join;
    // exercise the same shape directly.
    let outer: Vec<usize> = (0..8).collect();
    let out = par_map(&outer, 4, |_, &o| {
        let inner: Vec<usize> = (0..64).collect();
        par_map(&inner, 4, |_, &i| o * 1000 + i)
            .iter()
            .sum::<usize>()
    });
    for (o, v) in out.iter().enumerate() {
        assert_eq!(*v, o * 1000 * 64 + (0..64).sum::<usize>());
    }
}
