//! The central compressed-domain soundness property: for rules
//! TL001–TL003, checking the NLR-compressed term yields the same
//! verdict as checking the expanded event stream.

use dt_trace::{FunctionRegistry, Trace, TraceId};
use nlr::{LoopTable, NlrBuilder};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;
use tracelint::compressed::{
    check_stack_discipline_compressed, collective_divergences, rank_streams, CollProjector,
};
use tracelint::rules::{self, CollDivergence};
use tracelint::{RuleCode, Severity};

const FNS: usize = 6;

fn call(f: u32) -> u32 {
    f << 1
}
fn ret(f: u32) -> u32 {
    (f << 1) | 1
}

fn registry() -> Arc<FunctionRegistry> {
    let reg = Arc::new(FunctionRegistry::new());
    // First two functions are collectives, the rest ordinary.
    reg.intern("MPI_Barrier");
    reg.intern("MPI_Allreduce");
    for i in 2..FNS {
        reg.intern(&format!("fn{i}"));
    }
    reg
}

/// A *well-formed* stream: balanced, properly nested, loopy.
fn balanced_stream() -> impl Strategy<Value = Vec<u32>> {
    (
        proptest::collection::vec(0u32..FNS as u32, 1..5),
        1usize..20,
        proptest::collection::vec(0u32..FNS as u32, 0..4),
    )
        .prop_map(|(body, reps, tail)| {
            let unit: Vec<u32> = body
                .iter()
                .map(|&f| call(f))
                .chain(body.iter().rev().map(|&f| ret(f)))
                .collect();
            let mut v = Vec::new();
            for _ in 0..reps {
                v.extend(&unit);
            }
            for &f in &tail {
                v.push(call(f));
                v.push(ret(f));
            }
            v
        })
}

/// A random single defect to inject.
#[derive(Debug, Clone, Copy)]
enum Defect {
    None,
    DeleteEvent(usize),
    DuplicateEvent(usize),
    FlipDirection(usize),
    TruncateTail(usize),
}

fn defect() -> impl Strategy<Value = Defect> {
    prop_oneof![
        Just(Defect::None),
        (0usize..1000).prop_map(Defect::DeleteEvent),
        (0usize..1000).prop_map(Defect::DuplicateEvent),
        (0usize..1000).prop_map(Defect::FlipDirection),
        (1usize..1000).prop_map(Defect::TruncateTail),
    ]
}

/// Apply the defect; returns the stream and its `truncated` flag.
fn apply_defect(mut syms: Vec<u32>, d: Defect, truncated: bool) -> (Vec<u32>, bool) {
    if syms.is_empty() {
        return (syms, truncated);
    }
    match d {
        Defect::None => (syms, truncated),
        Defect::DeleteEvent(i) => {
            let i = i % syms.len();
            syms.remove(i);
            (syms, truncated)
        }
        Defect::DuplicateEvent(i) => {
            let i = i % syms.len();
            let s = syms[i];
            syms.insert(i, s);
            (syms, truncated)
        }
        Defect::FlipDirection(i) => {
            let i = i % syms.len();
            syms[i] ^= 1;
            (syms, truncated)
        }
        Defect::TruncateTail(n) => {
            let keep = syms.len().saturating_sub(1 + n % syms.len().max(1));
            syms.truncate(keep);
            // A cut-short capture is what the truncated flag models.
            (syms, true)
        }
    }
}

fn verdicts(diags: &[tracelint::Diagnostic]) -> BTreeSet<(RuleCode, Severity)> {
    diags.iter().map(|d| (d.code, d.severity)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// TL001 + TL003: compressed and expanded verdicts agree for any
    /// (possibly defective) stream, any compression window K.
    #[test]
    fn stack_discipline_verdicts_agree(
        base in balanced_stream(),
        d in defect(),
        truncated in any::<bool>(),
        k in 2usize..16,
    ) {
        let reg = registry();
        let (syms, truncated) = apply_defect(base, d, truncated);
        let id = TraceId::master(0);

        let trace = Trace::from_symbols(id, &syms, truncated);
        let expanded = rules::check_stack_discipline(&trace, &reg);

        let mut table = LoopTable::new();
        let term = NlrBuilder::new(k).build(&syms, &mut table);
        let compressed = check_stack_discipline_compressed(&table, id, &term, truncated, &reg);

        prop_assert_eq!(
            verdicts(&expanded),
            verdicts(&compressed),
            "syms={:?} truncated={} k={}",
            syms, truncated, k
        );
    }

    /// TL001 localization: injecting a defect into a well-formed trace
    /// makes tracelint flag it, and the expanded rule's span points at
    /// a real event of the trace.
    #[test]
    fn injected_defects_are_localized(
        base in balanced_stream(),
        i in 0usize..1000,
        flip in any::<bool>(),
    ) {
        let reg = registry();
        prop_assume!(!base.is_empty());
        let mut syms = base;
        let i = i % syms.len();
        if flip {
            syms[i] ^= 1; // call↔return at one site
        } else {
            syms.remove(i); // drop one event
        }
        let trace = Trace::from_symbols(TraceId::master(0), &syms, false);
        let diags = rules::check_stack_discipline(&trace, &reg);
        prop_assert!(!diags.is_empty(), "defect at {} not detected: {:?}", i, syms);
        for d in &diags {
            if let Some(span) = d.span {
                prop_assert!(span.start <= syms.len());
                prop_assert!(span.end <= syms.len() + 1);
            }
        }
    }

    /// TL002: the compressed stream comparison produces exactly the
    /// divergence verdict of the expanded sequence comparison, for
    /// ranks whose collective streams randomly agree or diverge.
    #[test]
    fn collective_verdicts_agree(
        bodies in proptest::collection::vec(
            (proptest::collection::vec(0u32..FNS as u32, 1..4), 1usize..25),
            2..5
        ),
        mutate_rank in any::<bool>(),
        trunc_mask in 0u32..8,
        k in 2usize..12,
    ) {
        let reg = registry();
        // Collectives are fn 0 and fn 1 (see `registry`).
        let coll: HashSet<u32> = rules::collective_fn_ids(&reg);
        prop_assert_eq!(coll.len(), 2);

        // Every rank runs the same program: the first (body, reps)
        // pattern repeated. Optionally the last rank gets the *second*
        // pattern instead — a divergence candidate (it may also be
        // collective-equivalent by accident; the property must hold
        // either way).
        let ranks = bodies.len() as u32;
        let stream_for = |pat: &(Vec<u32>, usize)| -> Vec<u32> {
            let (body, reps) = pat;
            let unit: Vec<u32> = body
                .iter()
                .map(|&f| call(f))
                .chain(body.iter().rev().map(|&f| ret(f)))
                .collect();
            let mut v = Vec::new();
            for _ in 0..*reps {
                v.extend(&unit);
            }
            v
        };
        let mut table = LoopTable::new();
        let builder = NlrBuilder::new(k);
        let mut expanded_seqs = Vec::new();
        let mut terms_store = Vec::new();
        for p in 0..ranks {
            let pat = if mutate_rank && p == ranks - 1 {
                &bodies[1]
            } else {
                &bodies[0]
            };
            let syms = stream_for(pat);
            let truncated = trunc_mask & (1 << p.min(7)) != 0;
            // Expanded collective sequence.
            let seq: Vec<u32> = syms
                .iter()
                .filter(|&&s| s & 1 == 0 && coll.contains(&(s >> 1)))
                .map(|&s| s >> 1)
                .collect();
            expanded_seqs.push((seq, truncated));
            let term = builder.build(&syms, &mut table);
            terms_store.push((TraceId::master(p), term, truncated));
        }

        // Expanded verdicts.
        let (ref_seq, ref_trunc) = &expanded_seqs[0];
        let expanded: Vec<(u32, Option<CollDivergence>)> = expanded_seqs[1..]
            .iter()
            .enumerate()
            .map(|(i, (seq, trunc))| {
                (i as u32 + 1, rules::divergence(ref_seq, *ref_trunc, seq, *trunc))
            })
            .collect();

        // Compressed verdicts over the shared table.
        let mut projector = CollProjector::new(&table, &coll);
        let term_refs: Vec<(TraceId, &nlr::Nlr, bool)> = terms_store
            .iter()
            .map(|(id, t, tr)| (*id, t, *tr))
            .collect();
        let streams = rank_streams(&term_refs, &mut projector);
        let compressed = collective_divergences(&streams, &projector);

        prop_assert_eq!(expanded, compressed);
    }
}
