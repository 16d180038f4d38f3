//! Every prefix and every byte flip of a sealed `.dtts` store is either
//! diagnosed or harmless: opening it, reading its whole corpus or
//! decoding a trace fails with a `StoreError`, or `hbcheck` and `lint`
//! print exactly what they print for the intact store. No variant
//! panics. A v4 store seals its registry, HB section and index, and its
//! index records each blob's digest and symbol count, so no byte is
//! left unchecked.

use difftrace::{hbcheck_set, lint_set, CheckOptions, LintOptions};
use dt_trace::store::{to_bytes_full, IndexedSet, StoreError};
use dt_trace::{canonicalize, FunctionRegistry};
use std::sync::Arc;
use workloads::{run_oddeven, OddEvenConfig, OddEvenFault, RunOutcome};

/// `hbcheck` then `lint`, as text, over the store `image`.
fn outputs(image: Vec<u8>) -> Result<String, StoreError> {
    let ix = IndexedSet::from_bytes(image)?;
    let set = ix.full_set()?;
    let hb = hbcheck_set(&set, ix.hb(), &CheckOptions::default()).render_text();
    Ok(hb + &lint_set(&set, &LintOptions::default()).render_text())
}

/// The recorded run as the CLI's `demo` stores it.
fn store_of(mut run: RunOutcome) -> Vec<u8> {
    canonicalize(&mut [(&mut run.traces, &mut run.hb)]);
    to_bytes_full(&run.traces, Some(&run.hb))
}

/// Cut `image` at every prefix and flip each of its bytes (XOR 0xff);
/// every variant whose output differs from the intact store's without
/// a diagnosis, or that panics. Also returns how many were diagnosed.
fn silent_changes(image: &[u8]) -> (Vec<String>, usize) {
    let want = outputs(image.to_vec()).expect("the intact store reads");
    let prefixes = (0..image.len()).map(|cut| (format!("prefix {cut}"), image[..cut].to_vec()));
    let flips = (0..image.len()).map(|i| {
        let mut flipped = image.to_vec();
        flipped[i] ^= 0xff;
        (format!("byte {i} ^ 0xff"), flipped)
    });
    let mut silent = Vec::new();
    let mut diagnosed = 0;
    for (what, bytes) in prefixes.chain(flips) {
        match std::panic::catch_unwind(|| outputs(bytes)) {
            Ok(Err(_)) => diagnosed += 1,
            Ok(Ok(got)) if got == want => {}
            Ok(Ok(_)) => silent.push(what),
            Err(_) => silent.push(format!("{what}: panic")),
        }
    }
    (silent, diagnosed)
}

/// A store with every section — a registry, traces (a truncated one
/// among them), an HB log with blocked ranks, the index and footer —
/// in a few hundred bytes, so the scan runs in seconds unoptimised.
#[test]
fn small_store_flip_and_prefix_scan() {
    let cfg = OddEvenConfig {
        ranks: 4,
        values_per_rank: 1,
        seed: 1,
        fault: Some(OddEvenFault::DlBug {
            rank: 1,
            after_iter: 1,
        }),
    };
    let run = run_oddeven(&cfg, Arc::new(FunctionRegistry::new()));
    assert!(!run.hb.blocked.is_empty(), "the store needs blocked ranks");
    let image = store_of(run);
    assert!(image.len() < 1000, "{} bytes", image.len());
    let (silent, diagnosed) = silent_changes(&image);
    assert!(silent.is_empty(), "silent changes: {silent:?}");
    assert!(diagnosed > image.len(), "{diagnosed} diagnosed");
}

/// The same scan over the demo `oddeven` faulty store (about 9 KB).
/// Run it optimised: `cargo test --release -p difftrace --test
/// store_scan demo_store_flip_and_prefix_scan`.
#[test]
fn demo_store_flip_and_prefix_scan() {
    let registry = Arc::new(FunctionRegistry::new());
    let (_, faulty) = workloads::demo_pair("oddeven", &registry).expect("a demo pair");
    let image = store_of(faulty);
    let (silent, diagnosed) = silent_changes(&image);
    assert!(silent.is_empty(), "silent changes: {silent:?}");
    assert!(diagnosed > image.len(), "{diagnosed} diagnosed");
}
