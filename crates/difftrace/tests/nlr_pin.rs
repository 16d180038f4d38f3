//! Every NLR fold of every demo corpus, pinned to one digest. Each
//! trace of each corpus folds raw (its whole symbol stream) and under
//! the default filter, at K = 1, 2, 10 and 50; the digest covers each
//! fold's elements, its bodies in intern order and its input length.
//! Loop numbering leaks into every report (`L0` in attribute names and
//! rendered summaries), so any change to a folding decision or to the
//! intern order shows here, on real workload traces.
//!
//! Ranks intern function names into a run's registry concurrently, so
//! symbol numbers vary from run to run while the traces do not. Each
//! stream is therefore renamed first: a function becomes its name's
//! place in the sorted registry. Folding reads symbols only through
//! equality, so the renaming changes no decision.

mod common;

use difftrace::filter::FilterConfig;
use dt_trace::hash::StableHasher;
use dt_trace::TraceSet;
use nlr::{Element, Fold, NlrBuilder};

/// The digest of every fold below.
const PINNED: u128 = 0xe91c_939a_c443_6e9b_25eb_2cd7_924a_5d1b;

fn hash_elements(h: &mut StableHasher, elements: &[Element]) {
    h.write_u64(elements.len() as u64);
    for e in elements {
        match *e {
            Element::Sym(s) => {
                h.write_u8(0);
                h.write_u32(s);
            }
            Element::Loop { body, count } => {
                h.write_u8(1);
                h.write_u32(body.0);
                h.write_u64(count);
            }
        }
    }
}

fn hash_fold(h: &mut StableHasher, fold: &Fold) {
    h.write_u64(fold.input_len as u64);
    h.write_u64(fold.bodies.len() as u64);
    for body in &fold.bodies {
        hash_elements(h, body);
    }
    hash_elements(h, &fold.elements);
}

/// Rename every symbol of `set` by its function's sorted name.
fn renamer(set: &TraceSet) -> impl Fn(Vec<u32>) -> Vec<u32> {
    let names = set.registry.names();
    let mut order: Vec<usize> = (0..names.len()).collect();
    order.sort_by(|&a, &b| names[a].cmp(&names[b]));
    let mut rank = vec![0u32; names.len()];
    for (i, &f) in order.iter().enumerate() {
        rank[f] = i as u32;
    }
    move |symbols| {
        symbols
            .into_iter()
            .map(|s| (rank[(s >> 1) as usize] << 1) | (s & 1))
            .collect()
    }
}

#[test]
fn demo_workload_folds_are_pinned() {
    let mut h = StableHasher::new();
    let mut folds = 0;
    for (name, set) in common::demo_runs() {
        h.write_str(&name);
        let rename = renamer(&set);
        let filtered = FilterConfig::default().apply(&set);
        let streams = set
            .iter()
            .map(|t| t.events.clone())
            .chain(filtered.traces.into_iter().map(|t| t.symbols));
        for symbols in streams.map(rename) {
            for k in [1, 2, 10, 50] {
                hash_fold(&mut h, &NlrBuilder::new(k).fold(&symbols));
                folds += 1;
            }
        }
    }
    assert!(folds > 0);
    assert_eq!(
        h.finish(),
        PINNED,
        "{:#034x} over {folds} folds",
        h.finish()
    );
}
