//! Property tests for nested-loop recognition.

use nlr::{LoopId, LoopTable, NlrBuilder, RecordingInterner, SharedLoopTable, Summarizer, Summary};
use proptest::prelude::*;

fn loopy_stream() -> impl Strategy<Value = Vec<u32>> {
    prop_oneof![
        // Pure repetition of a random body.
        (proptest::collection::vec(0u32..8, 1..8), 1usize..30)
            .prop_map(|(body, reps)| body.repeat(reps)),
        // Nested: ((body)^inner sep)^outer.
        (
            proptest::collection::vec(0u32..5, 1..4),
            1usize..6,
            1usize..6
        )
            .prop_map(|(body, inner, outer)| {
                let mut v = Vec::new();
                for _ in 0..outer {
                    for _ in 0..inner {
                        v.extend(&body);
                    }
                    v.push(9);
                }
                v
            }),
        // Arbitrary noise.
        proptest::collection::vec(0u32..12, 0..200),
    ]
}

/// The free monoid: a summary that keeps the whole sequence, so the
/// summary walk must reproduce the expansion exactly.
#[derive(Debug, Clone, PartialEq)]
struct Free(Vec<u32>);

impl Summary for Free {
    type Ctx = ();

    fn identity() -> Free {
        Free(Vec::new())
    }

    fn push_symbol(&mut self, sym: u32, _ctx: &()) {
        self.0.push(sym);
    }

    fn append(&mut self, next: &Free) {
        self.0.extend_from_slice(&next.0);
    }

    fn repeat(&self, count: u64) -> Free {
        Free(self.0.repeat(count as usize))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The one summary walk over a term (its loop bodies memoized once
    /// across every term of the table) equals the term's expansion.
    #[test]
    fn summary_walk_matches_expansion(
        streams in proptest::collection::vec(loopy_stream(), 1..4),
        k in 1usize..25,
    ) {
        let mut table = LoopTable::new();
        let terms: Vec<_> = streams
            .iter()
            .map(|s| NlrBuilder::new(k).build(s, &mut table))
            .collect();
        let mut summarizer = Summarizer::<Free>::new(&table, &());
        for (term, stream) in terms.iter().zip(&streams) {
            let walked = summarizer.summary_of(term.elements());
            prop_assert_eq!(&walked.0, &term.expand(&table));
            prop_assert_eq!(&walked.0, stream);
        }
    }

    /// Expansion always reproduces the input, for any K.
    #[test]
    fn lossless(input in loopy_stream(), k in 1usize..25) {
        let mut table = LoopTable::new();
        let nlr = NlrBuilder::new(k).build(&input, &mut table);
        prop_assert_eq!(nlr.expand(&table), input);
    }

    /// Summaries never grow, and the reduction factor is ≥ 1.
    #[test]
    fn never_grows(input in loopy_stream(), k in 1usize..25) {
        let mut table = LoopTable::new();
        let nlr = NlrBuilder::new(k).build(&input, &mut table);
        prop_assert!(nlr.elements().len() <= input.len().max(1));
        if !input.is_empty() {
            prop_assert!(nlr.reduction_factor() >= 1.0 - 1e-12);
        }
    }

    /// Building the same stream twice against a shared table yields
    /// identical summaries (the cross-trace loop-ID heuristic).
    #[test]
    fn deterministic_with_shared_table(input in loopy_stream(), k in 1usize..15) {
        let mut table = LoopTable::new();
        let b = NlrBuilder::new(k);
        let a = b.build(&input, &mut table);
        let c = b.build(&input, &mut table);
        prop_assert_eq!(a.elements(), c.elements());
    }

    /// Pure repetitions of a body with *distinct* symbols collapse to a
    /// single loop element. (Self-overlapping bodies like `[5,0,5]` may
    /// legitimately fold differently under the greedy stack machine —
    /// the same ambiguity Ketterlin & Clauss note — so they are
    /// excluded here; losslessness for them is covered above.)
    #[test]
    fn pure_repetition_of_distinct_body_collapses(
        body_len in 1usize..7,
        reps in 2usize..40,
    ) {
        let body: Vec<u32> = (0..body_len as u32).collect();
        let input = body.repeat(reps);
        let mut table = LoopTable::new();
        let nlr = NlrBuilder::new(10).build(&input, &mut table);
        prop_assert_eq!(
            nlr.elements().len(),
            1,
            "{} reps of {:?} left {:?}",
            reps,
            body,
            nlr.elements()
        );
        prop_assert_eq!(nlr.expand(&table), input);
    }

    /// Interning the same loop bodies from many threads concurrently
    /// always yields exactly one ID per distinct body, every thread
    /// observes the same ID for the same body, and every ID reads back
    /// its body.
    #[test]
    fn concurrent_interning_is_race_free(
        streams in proptest::collection::vec(loopy_stream(), 2..6),
        threads in 2usize..8,
    ) {
        fn expand_shared(elements: &[nlr::Element], t: &SharedLoopTable, out: &mut Vec<u32>) {
            for &e in elements {
                match e {
                    nlr::Element::Sym(s) => out.push(s),
                    nlr::Element::Loop { body, count } => {
                        for _ in 0..count {
                            expand_shared(t.body(body), t, out);
                        }
                    }
                }
            }
        }
        let shared = SharedLoopTable::new();
        let builder = NlrBuilder::new(10);
        let per_thread: Vec<Vec<(usize, Vec<nlr::Element>)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let shared = &shared;
                    let streams = &streams;
                    let builder = &builder;
                    s.spawn(move || {
                        let mut seen = Vec::new();
                        // Each thread builds every stream, starting at a
                        // different offset so schedules interleave.
                        for i in 0..streams.len() {
                            let idx = (i + t) % streams.len();
                            let mut rec = RecordingInterner::new(shared);
                            let nlr = builder.build(&streams[idx], &mut rec);
                            let mut expanded = Vec::new();
                            expand_shared(nlr.elements(), shared, &mut expanded);
                            assert_eq!(expanded, streams[idx], "lossless through the shared table");
                            for id in rec.into_order() {
                                seen.push((id.0 as usize, shared.body(id).to_vec()));
                            }
                        }
                        seen
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // One body per ID, globally consistent across threads.
        let mut by_id: std::collections::BTreeMap<usize, Vec<nlr::Element>> =
            std::collections::BTreeMap::new();
        for (id, body) in per_thread.into_iter().flatten() {
            if let Some(prev) = by_id.insert(id, body.clone()) {
                prop_assert_eq!(prev, body, "id {} maps to two bodies", id);
            }
        }
        // IDs are dense and each body is interned exactly once.
        let distinct: std::collections::HashSet<Vec<nlr::Element>> =
            by_id.values().cloned().collect();
        prop_assert_eq!(distinct.len(), by_id.len(), "duplicate bodies under distinct ids");
        prop_assert_eq!(shared.len(), by_id.len());
        for id in by_id.keys() {
            prop_assert!(*id < shared.len());
        }
    }

    /// Canonicalizing a worst-case (reverse-order) parallel build
    /// reproduces the sequential table and summaries exactly.
    #[test]
    fn canonicalization_reproduces_sequential_numbering(
        streams in proptest::collection::vec(loopy_stream(), 1..6),
        k in 2usize..12,
    ) {
        let builder = NlrBuilder::new(k);
        let mut seq_table = LoopTable::new();
        let seq: Vec<_> = streams.iter().map(|s| builder.build(s, &mut seq_table)).collect();

        let shared = SharedLoopTable::new();
        let mut orders = vec![Vec::new(); streams.len()];
        let mut prov = vec![None; streams.len()];
        for i in (0..streams.len()).rev() {
            let mut rec = RecordingInterner::new(&shared);
            prov[i] = Some(builder.build(&streams[i], &mut rec));
            orders[i] = rec.into_order();
        }
        let mut canon_table = LoopTable::new();
        let map = shared.canonicalize_into(orders.into_iter().flatten(), &mut canon_table);
        prop_assert_eq!(canon_table.len(), seq_table.len());
        for i in 0..canon_table.len() {
            let id = LoopId(i as u32);
            prop_assert_eq!(canon_table.body(id), seq_table.body(id), "body L{}", i);
        }
        for (p, s) in prov.into_iter().zip(&seq) {
            let c = p.unwrap().remap_loops(&|id| map[id.0 as usize]);
            prop_assert_eq!(c.elements(), s.elements());
        }
    }
}
