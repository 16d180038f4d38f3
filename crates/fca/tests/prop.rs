//! Property tests: the incremental lattice matches a brute-force
//! closure enumeration on random contexts (also when objects repeat),
//! and the weighted-Jaccard
//! merge kernel matches a reference union-and-map algorithm bitwise.

use fca::{BitSet, ConceptLattice, FormalContext};
use proptest::prelude::*;
use std::collections::HashMap;

fn random_context() -> impl Strategy<Value = FormalContext> {
    proptest::collection::vec(proptest::collection::vec(0usize..8, 0..8), 1..7).prop_map(|objs| {
        let mut ctx = FormalContext::new();
        for (i, attrs) in objs.iter().enumerate() {
            let names: Vec<String> = attrs.iter().map(|a| format!("m{a}")).collect();
            ctx.add_object_unweighted(&format!("g{i}"), names.iter().map(|s| s.as_str()));
        }
        ctx
    })
}

/// Random contexts whose objects repeat: a few distinct intents, each
/// inserted any number of times in a random interleaving — the shape of
/// an SPMD run, where most threads record the same stream.
fn repeating_context() -> impl Strategy<Value = FormalContext> {
    (
        proptest::collection::vec(proptest::collection::vec(0usize..8, 0..8), 1..5),
        proptest::collection::vec(0usize..16, 1..12),
    )
        .prop_map(|(distinct, picks)| {
            let mut ctx = FormalContext::new();
            for (i, p) in picks.iter().enumerate() {
                let attrs = &distinct[p % distinct.len()];
                let names: Vec<String> = attrs.iter().map(|a| format!("m{a}")).collect();
                ctx.add_object_unweighted(&format!("g{i}"), names.iter().map(|s| s.as_str()));
            }
            ctx
        })
}

/// All closed intents by fixpoint intersection, with their extents.
fn brute_force(ctx: &FormalContext) -> Vec<(Vec<usize>, Vec<usize>)> {
    let n = ctx.num_objects();
    let mut all_attrs = BitSet::new();
    for g in 0..n {
        all_attrs = all_attrs.union(&ctx.object_attrs(g));
    }
    let mut intents = vec![all_attrs.canonical()];
    let mut changed = true;
    while changed {
        changed = false;
        let snapshot = intents.clone();
        for y in &snapshot {
            for g in 0..n {
                let cand = y.intersection(&ctx.object_attrs(g)).canonical();
                if !intents.contains(&cand) {
                    intents.push(cand);
                    changed = true;
                }
            }
        }
    }
    let mut out: Vec<(Vec<usize>, Vec<usize>)> = intents
        .into_iter()
        .map(|intent| {
            let extent: Vec<usize> = (0..n)
                .filter(|&g| intent.is_subset(&ctx.object_attrs(g)))
                .collect();
            (extent, intent.iter().collect())
        })
        .collect();
    out.sort();
    out
}

/// Random weighted objects as the context receives them: names may
/// repeat within an object and weights may be zero or negative.
fn random_weighted_objects() -> impl Strategy<Value = Vec<Vec<(String, f64)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0usize..10, 0u32..40), 0..10),
        1..7,
    )
    .prop_map(|objs| {
        objs.into_iter()
            .map(|attrs| {
                attrs
                    .into_iter()
                    .map(|(a, w)| (format!("m{a}"), (f64::from(w % 9) - 2.0) / 3.0))
                    .collect()
            })
            .collect()
    })
}

/// Reference weighted Jaccard: per object an incidence bit set plus an
/// attribute → weight map (last weight wins), summed over the union of
/// the two sets in attribute-index order.
fn reference_jaccard(ctx: &FormalContext, objs: &[Vec<(String, f64)>], a: usize, b: usize) -> f64 {
    let model = |attrs: &[(String, f64)]| {
        let mut set = BitSet::new();
        let mut w = HashMap::new();
        for (name, weight) in attrs {
            let id = ctx.resolve_attr(name).unwrap().index();
            set.insert(id);
            w.insert(id, *weight);
        }
        (set, w)
    };
    let (sa, wa) = model(&objs[a]);
    let (sb, wb) = model(&objs[b]);
    let (mut min_sum, mut max_sum) = (0.0f64, 0.0f64);
    for m in sa.union(&sb).iter() {
        let x = wa.get(&m).copied().unwrap_or(0.0);
        let y = wb.get(&m).copied().unwrap_or(0.0);
        min_sum += x.min(y);
        max_sum += x.max(y);
    }
    if max_sum == 0.0 {
        1.0
    } else {
        min_sum / max_sum
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn incremental_equals_brute_force(ctx in random_context()) {
        let lattice = ConceptLattice::from_context(&ctx);
        let mut got: Vec<(Vec<usize>, Vec<usize>)> = lattice
            .concepts()
            .iter()
            .map(|c| (c.extent.iter().collect(), c.intent.iter().collect()))
            .collect();
        got.sort();
        prop_assert_eq!(got, brute_force(&ctx));
    }

    #[test]
    fn repeated_objects_match_brute_force(ctx in repeating_context()) {
        let lattice = ConceptLattice::from_context(&ctx);
        let mut got: Vec<(Vec<usize>, Vec<usize>)> = lattice
            .concepts()
            .iter()
            .map(|c| (c.extent.iter().collect(), c.intent.iter().collect()))
            .collect();
        got.sort();
        prop_assert_eq!(got, brute_force(&ctx));
    }

    #[test]
    fn object_concept_is_minimal_and_contains_object(ctx in random_context()) {
        let lattice = ConceptLattice::from_context(&ctx);
        for g in 0..ctx.num_objects() {
            let oc = lattice.object_concept(g);
            prop_assert!(oc.extent.contains(g));
            // Minimality: no other concept containing g has a smaller
            // extent.
            for c in lattice.concepts() {
                if c.extent.contains(g) {
                    prop_assert!(c.extent_len() >= oc.extent_len());
                }
            }
        }
    }

    #[test]
    fn covers_are_acyclic_and_respect_order(ctx in random_context()) {
        let lattice = ConceptLattice::from_context(&ctx);
        for (lo, hi) in lattice.covers() {
            let cl = &lattice.concepts()[lo];
            let ch = &lattice.concepts()[hi];
            prop_assert!(cl.extent.is_proper_subset(&ch.extent));
        }
    }

    #[test]
    fn lattice_jaccard_matches_direct(ctx in random_context()) {
        let lattice = ConceptLattice::from_context(&ctx);
        for a in 0..ctx.num_objects() {
            for b in 0..ctx.num_objects() {
                let lhs = lattice.object_jaccard(a, b);
                let rhs = fca::weighted_jaccard(ctx.row(a), ctx.row(b));
                prop_assert!((lhs - rhs).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn kernel_matches_reference_bitwise(objs in random_weighted_objects()) {
        let mut ctx = FormalContext::new();
        for (i, attrs) in objs.iter().enumerate() {
            ctx.add_object(&format!("g{i}"), attrs.iter().map(|(k, w)| (k.as_str(), *w)));
        }
        for a in 0..objs.len() {
            for b in 0..objs.len() {
                let got = fca::weighted_jaccard(ctx.row(a), ctx.row(b));
                let want = reference_jaccard(&ctx, &objs, a, b);
                prop_assert_eq!(got.to_bits(), want.to_bits(), "({}, {})", a, b);
            }
        }
    }
}
