//! Compressed-domain rules: TL001–TL003 evaluated **directly on the
//! NLR term**, without expanding loops.
//!
//! Following Kini et al.'s compressed-trace analyses, both checks
//! exploit the algebraic structure of the term:
//!
//! * **Stack discipline** (TL001/TL003): every symbol has a *stack
//!   effect* (pop a frame / push a frame); effects compose, and the
//!   effect of `body^n` has a closed form, so a loop of a million
//!   iterations is checked in O(|body|) — see [`StackEffect`], folded
//!   by the shared [`Summarizer`] walk.
//! * **Collective order** (TL002): each term is projected onto its
//!   collective calls, keeping the loop structure ([`PTok`]); two
//!   projected streams are compared lazily, consuming identical
//!   `Loop(id, n)` tokens in O(1) — sound because all traces share one
//!   canonical loop table, so equal IDs mean equal expansions.
//!
//! The expanded rules in [`crate::rules`] are the reference semantics;
//! `tests/prop.rs` asserts the verdicts agree on random inputs.

use crate::rules::CollDivergence;
use crate::{Diagnostic, RuleCode};
use dt_trace::{FunctionRegistry, TraceId};
use nlr::summary::StackEffect;
use nlr::{Element, LoopId, LoopTable, Nlr, Summarizer};
use std::collections::{HashMap, HashSet};

/// Compressed TL001 + TL003 for one trace. Produces the same
/// `(code, severity)` verdicts as `rules::check_stack_discipline` on
/// the expanded stream — asserted by the crate's property test — but
/// without event offsets, which do not exist in the compressed domain.
pub fn check_stack_discipline_compressed(
    table: &LoopTable,
    id: TraceId,
    term: &Nlr,
    truncated: bool,
    registry: &FunctionRegistry,
) -> Vec<Diagnostic> {
    let eff: StackEffect = Summarizer::new(table, &()).summary_of(term.elements());
    let mut out = Vec::new();
    if !eff.ok {
        out.push(
            Diagnostic::error(
                RuleCode::StackDiscipline,
                "call/return stack discipline violated: a return crosses a different \
                 open call (compressed check)",
            )
            .with_trace(id)
            .with_hint("re-run in the expanded domain for exact event offsets"),
        );
    }
    if !eff.pops.is_empty() {
        out.push(
            Diagnostic::error(
                RuleCode::StackDiscipline,
                format!("{} return(s) with no open call", eff.pops.len()),
            )
            .with_trace(id),
        );
    }
    if term.input_len() == 0 {
        out.push(
            Diagnostic::warning(RuleCode::Truncation, "empty trace: no events were recorded")
                .with_trace(id)
                .with_hint("the thread may have been spawned but never instrumented"),
        );
    } else if !eff.pushes.is_empty() {
        let inner = *eff.pushes.last().expect("non-empty pushes");
        if truncated {
            out.push(
                Diagnostic::warning(
                    RuleCode::Truncation,
                    format!(
                        "truncated trace: {} call(s) still open; innermost `{}` never \
                         returned (hang signature)",
                        eff.pushes.len(),
                        registry.name(dt_trace::FnId(inner)),
                    ),
                )
                .with_trace(id),
            );
        } else {
            out.push(
                Diagnostic::error(
                    RuleCode::Truncation,
                    format!(
                        "{} call(s) never returned in a trace not flagged truncated",
                        eff.pushes.len()
                    ),
                )
                .with_trace(id)
                .with_hint(
                    "either the capture was cut short (flag it truncated) or events were lost",
                ),
            );
        }
    } else if truncated {
        out.push(
            Diagnostic::warning(
                RuleCode::Truncation,
                "trace flagged truncated but its call/return stream is balanced",
            )
            .with_trace(id),
        );
    }
    out
}

// ---------------------------------------------------------------------
// Collective projection (TL002).
// ---------------------------------------------------------------------

/// A token of a term projected onto collective calls: either a run of
/// one collective, or a whole loop (whose body projects to more than a
/// single run) taken `count` times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PTok {
    /// `count` consecutive occurrences of collective `fn_id`.
    Run {
        /// Collective function ID.
        fn_id: u32,
        /// Occurrences.
        count: u64,
    },
    /// `count` iterations of loop `id`'s (non-trivial) projection.
    Loop {
        /// Loop body ID in the shared table.
        id: LoopId,
        /// Iterations.
        count: u64,
    },
}

/// Projects terms onto their collective subsequence, memoizing per
/// loop body: the projected tokens and the number of collectives one
/// iteration contributes. Bodies never change once interned, so the
/// memo stays valid while the table grows between calls.
pub struct CollProjector<'c> {
    collectives: &'c HashSet<u32>,
    memo: HashMap<LoopId, Vec<PTok>>,
    counts: HashMap<LoopId, u64>,
}

impl<'c> CollProjector<'c> {
    /// A projector keeping calls to `collectives` (function IDs).
    pub fn new(collectives: &'c HashSet<u32>) -> CollProjector<'c> {
        CollProjector {
            collectives,
            memo: HashMap::new(),
            counts: HashMap::new(),
        }
    }

    /// Project an element sequence whose loops live in `table`. Loops
    /// whose projection is empty vanish; loops projecting to a single
    /// run are flattened into a multiplied run; anything else stays a
    /// [`PTok::Loop`].
    pub fn project(&mut self, table: &LoopTable, elements: &[Element]) -> Vec<PTok> {
        let mut out: Vec<PTok> = Vec::new();
        for e in elements {
            match *e {
                Element::Sym(s) => {
                    let fn_id = s >> 1;
                    if s & 1 == 0 && self.collectives.contains(&fn_id) {
                        push_run(&mut out, fn_id, 1);
                    }
                }
                Element::Loop { body, count } => {
                    self.ensure(table, body);
                    let per_iter = self.counts[&body];
                    if per_iter == 0 {
                        continue;
                    }
                    if let [PTok::Run { fn_id, count: c }] = self.memo[&body][..] {
                        push_run(&mut out, fn_id, c * count);
                    } else {
                        out.push(PTok::Loop { id: body, count });
                    }
                }
            }
        }
        out
    }

    /// Collectives contributed by one iteration of `id`.
    pub fn per_iteration(&self, id: LoopId) -> u64 {
        self.counts[&id]
    }

    fn ensure(&mut self, table: &LoopTable, id: LoopId) {
        if self.memo.contains_key(&id) {
            return;
        }
        let toks = self.project(table, table.body(id));
        let count = toks
            .iter()
            .map(|t| match t {
                PTok::Run { count, .. } => *count,
                PTok::Loop { id, count } => self.counts[id] * count,
            })
            .sum();
        self.memo.insert(id, toks);
        self.counts.insert(id, count);
    }
}

/// Append a run, merging with a trailing run of the same collective.
fn push_run(out: &mut Vec<PTok>, fn_id: u32, count: u64) {
    if count == 0 {
        return;
    }
    if let Some(PTok::Run {
        fn_id: last,
        count: c,
    }) = out.last_mut()
    {
        if *last == fn_id {
            *c += count;
            return;
        }
    }
    out.push(PTok::Run { fn_id, count });
}

// ---------------------------------------------------------------------
// Lazy compressed-stream comparison.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Frame {
    /// `None` = the top-level token stream.
    id: Option<LoopId>,
    idx: usize,
    reps_left: u64,
}

/// A lazily expanding cursor over a projected stream. The head token
/// is materialized with its remaining count so runs and identical
/// loops can be partially consumed without expansion.
struct Cursor<'a> {
    top: &'a [PTok],
    memo: &'a HashMap<LoopId, Vec<PTok>>,
    frames: Vec<Frame>,
    head: Option<PTok>,
}

impl<'a> Cursor<'a> {
    fn new(top: &'a [PTok], memo: &'a HashMap<LoopId, Vec<PTok>>) -> Cursor<'a> {
        Cursor {
            top,
            memo,
            frames: vec![Frame {
                id: None,
                idx: 0,
                reps_left: 1,
            }],
            head: None,
        }
    }

    fn toks_of(&self, f: Frame) -> &'a [PTok] {
        match f.id {
            None => self.top,
            Some(id) => &self.memo[&id],
        }
    }

    /// Refill `head` from the frame stack.
    fn head(&mut self) -> Option<PTok> {
        while self.head.is_none() {
            let f = *self.frames.last()?;
            let toks = self.toks_of(f);
            let top = self.frames.last_mut().expect("frame");
            if f.idx < toks.len() {
                self.head = Some(toks[f.idx]);
                top.idx += 1;
            } else if f.reps_left > 1 {
                top.reps_left -= 1;
                top.idx = 0;
            } else {
                self.frames.pop();
            }
        }
        self.head
    }

    /// Replace a `Loop` head by a frame over its body.
    fn expand_head(&mut self) {
        if let Some(PTok::Loop { id, count }) = self.head.take() {
            self.frames.push(Frame {
                id: Some(id),
                idx: 0,
                reps_left: count,
            });
        }
    }

    /// Consume `k` collectives off a `Run` head.
    fn consume_run(&mut self, k: u64) {
        if let Some(PTok::Run { fn_id, count }) = self.head {
            self.head = (count > k).then_some(PTok::Run {
                fn_id,
                count: count - k,
            });
        }
    }

    /// Consume `k` whole iterations off a `Loop` head.
    fn consume_loops(&mut self, k: u64) {
        if let Some(PTok::Loop { id, count }) = self.head {
            self.head = (count > k).then_some(PTok::Loop {
                id,
                count: count - k,
            });
        }
    }

    /// The next collective's function ID (expanding loops as needed).
    fn peek_fn(&mut self) -> Option<u32> {
        loop {
            match self.head()? {
                PTok::Run { fn_id, .. } => return Some(fn_id),
                PTok::Loop { .. } => self.expand_head(),
            }
        }
    }
}

/// Outcome of comparing two projected streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamCmp {
    /// Identical collective sequences.
    Equal,
    /// First difference at collective `ordinal`; `None` on a side
    /// means that stream was exhausted.
    Diverged {
        /// 0-based collective ordinal of the first difference.
        ordinal: u64,
        /// Reference stream's collective there (`None` = exhausted).
        want: Option<u32>,
        /// Other stream's collective there (`None` = exhausted).
        got: Option<u32>,
    },
}

/// Compare two projected streams lazily. Identical `Loop(id, n)` heads
/// are consumed in O(1) (equal IDs in the shared table expand
/// identically); differing structure is peeled one level at a time, so
/// cost is proportional to the *structural* difference, not the
/// expanded length.
pub fn compare_streams(
    reference: &[PTok],
    other: &[PTok],
    projector: &CollProjector<'_>,
) -> StreamCmp {
    let mut a = Cursor::new(reference, &projector.memo);
    let mut b = Cursor::new(other, &projector.memo);
    let mut ordinal = 0u64;
    loop {
        match (a.head(), b.head()) {
            (None, None) => return StreamCmp::Equal,
            (None, Some(_)) => {
                return StreamCmp::Diverged {
                    ordinal,
                    want: None,
                    got: b.peek_fn(),
                }
            }
            (Some(_), None) => {
                return StreamCmp::Diverged {
                    ordinal,
                    want: a.peek_fn(),
                    got: None,
                }
            }
            (Some(PTok::Loop { id: ia, count: ca }), Some(PTok::Loop { id: ib, count: cb }))
                if ia == ib =>
            {
                let k = ca.min(cb);
                ordinal += projector.per_iteration(ia) * k;
                a.consume_loops(k);
                b.consume_loops(k);
            }
            (Some(PTok::Loop { .. }), _) => a.expand_head(),
            (_, Some(PTok::Loop { .. })) => b.expand_head(),
            (
                Some(PTok::Run {
                    fn_id: fa,
                    count: ca,
                }),
                Some(PTok::Run {
                    fn_id: fb,
                    count: cb,
                }),
            ) => {
                if fa != fb {
                    return StreamCmp::Diverged {
                        ordinal,
                        want: Some(fa),
                        got: Some(fb),
                    };
                }
                let k = ca.min(cb);
                ordinal += k;
                a.consume_run(k);
                b.consume_run(k);
            }
        }
    }
}

/// One rank's compressed collective stream: the per-trace terms are
/// projected and concatenated in thread order.
#[derive(Debug, Clone)]
pub struct RankCollStream {
    /// The rank.
    pub process: u32,
    /// Projected stream.
    pub stream: Vec<PTok>,
    /// True if any of the rank's traces is truncated.
    pub truncated: bool,
}

/// Append the terms of `(trace id, term, truncated)` triples to the
/// per-rank streams `ranks`. The triples must come in trace-ID order,
/// as `NlrSet` iteration gives them, and may come over several calls
/// (one per chunk of a streamed fold), so a rank's stream can be built
/// without holding its terms.
pub fn rank_streams<'n>(
    ranks: &mut Vec<RankCollStream>,
    table: &LoopTable,
    terms: impl IntoIterator<Item = (TraceId, &'n Nlr, bool)>,
    projector: &mut CollProjector<'_>,
) {
    for (id, term, truncated) in terms {
        let toks = projector.project(table, term.elements());
        match ranks.last_mut() {
            Some(r) if r.process == id.process => {
                r.truncated |= truncated;
                for t in toks {
                    match t {
                        PTok::Run { fn_id, count } => push_run(&mut r.stream, fn_id, count),
                        l => r.stream.push(l),
                    }
                }
            }
            _ => ranks.push(RankCollStream {
                process: id.process,
                stream: toks,
                truncated,
            }),
        }
    }
}

/// Compressed TL002 verdicts: for every non-reference rank, where (if
/// anywhere) its collective order departs from the lowest rank's.
/// Produces exactly the same [`CollDivergence`] values as
/// `rules::divergence` over the expanded sequences.
pub fn collective_divergences(
    ranks: &[RankCollStream],
    projector: &CollProjector<'_>,
) -> Vec<(u32, Option<CollDivergence>)> {
    if ranks.len() < 2 {
        return Vec::new();
    }
    let reference = &ranks[0];
    ranks[1..]
        .iter()
        .map(|r| {
            let verdict = match compare_streams(&reference.stream, &r.stream, projector) {
                StreamCmp::Equal => None,
                StreamCmp::Diverged {
                    ordinal,
                    want: Some(w),
                    got: Some(g),
                } => Some(CollDivergence::Mismatch {
                    ordinal,
                    want: w,
                    got: g,
                }),
                StreamCmp::Diverged {
                    ordinal,
                    want: Some(w),
                    got: None,
                } => (!r.truncated).then_some(CollDivergence::Shortfall { ordinal, want: w }),
                StreamCmp::Diverged {
                    ordinal,
                    want: None,
                    got: Some(g),
                } => (!reference.truncated).then_some(CollDivergence::Excess { ordinal, got: g }),
                StreamCmp::Diverged {
                    want: None,
                    got: None,
                    ..
                } => unreachable!("both streams exhausted is Equal"),
            };
            (r.process, verdict)
        })
        .collect()
}

/// Compressed TL002 diagnostics (no event spans — offsets do not exist
/// here; the divergence ordinal is in the message instead).
pub fn check_collective_order_compressed(
    ranks: &[RankCollStream],
    projector: &CollProjector<'_>,
    registry: &FunctionRegistry,
) -> Vec<Diagnostic> {
    let reference_process = match ranks.first() {
        Some(r) => r.process,
        None => return Vec::new(),
    };
    collective_divergences(ranks, projector)
        .into_iter()
        .filter_map(|(process, verdict)| verdict.map(|d| (process, d)))
        .map(|(process, d)| {
            let message = match d {
                CollDivergence::Mismatch { ordinal, want, got } => format!(
                    "rank {} diverges from rank {} at collective #{}: expected `{}`, found `{}` \
                     (compressed check)",
                    process,
                    reference_process,
                    ordinal,
                    registry.name(dt_trace::FnId(want)),
                    registry.name(dt_trace::FnId(got)),
                ),
                CollDivergence::Shortfall { ordinal, want } => format!(
                    "rank {} stops issuing collectives at #{} but rank {} continues with `{}` \
                     (compressed check)",
                    process,
                    ordinal,
                    reference_process,
                    registry.name(dt_trace::FnId(want)),
                ),
                CollDivergence::Excess { ordinal, got } => format!(
                    "rank {} issues an extra collective `{}` at #{} (compressed check)",
                    process,
                    registry.name(dt_trace::FnId(got)),
                    ordinal,
                ),
            };
            Diagnostic::error(RuleCode::CollectiveOrder, message)
                .with_trace(TraceId::master(process))
                .with_hint(
                    "all ranks of a communicator must issue the same collective sequence; \
                     diff the diverging rank's NLR against the reference rank's",
                )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules;
    use crate::Severity;
    use dt_trace::Trace;
    use nlr::NlrBuilder;
    use std::sync::Arc;

    fn call(f: u32) -> u32 {
        f << 1
    }
    fn ret(f: u32) -> u32 {
        (f << 1) | 1
    }

    fn effect_of(syms: &[u32], k: usize) -> StackEffect {
        let mut table = LoopTable::new();
        let term = NlrBuilder::new(k).build(syms, &mut table);
        Summarizer::new(&table, &()).summary_of(term.elements())
    }

    #[test]
    fn balanced_loop_effect_is_identity() {
        let unit = [call(1), call(2), ret(2), ret(1)];
        let syms: Vec<u32> = unit.iter().copied().cycle().take(4 * 50).collect();
        let e = effect_of(&syms, 8);
        assert!(e.ok);
        assert!(e.pops.is_empty());
        assert!(e.pushes.is_empty());
    }

    #[test]
    fn crossed_returns_detected_inside_loops() {
        // (call a, ret b) repeated: every iteration crosses.
        let unit = [call(1), ret(2)];
        let syms: Vec<u32> = unit.iter().copied().cycle().take(2 * 40).collect();
        let e = effect_of(&syms, 8);
        assert!(!e.ok);
    }

    #[test]
    fn compressed_verdicts_match_expanded_on_examples() {
        let registry = Arc::new(dt_trace::FunctionRegistry::new());
        for n in ["a", "b", "c"] {
            registry.intern(n);
        }
        let streams: Vec<(Vec<u32>, bool)> = vec![
            (vec![], false),
            (vec![call(0), ret(0)], false),
            (vec![call(0), call(1), ret(0)], false), // crossed
            (vec![call(0), call(1)], true),          // truncated hang
            (vec![call(0), call(1)], false),         // poisoned
            (vec![ret(2)], false),                   // no open call
            (
                [call(0), call(1), ret(1), ret(0)]
                    .iter()
                    .copied()
                    .cycle()
                    .take(4 * 9)
                    .chain([call(2)])
                    .collect(),
                true,
            ),
        ];
        for (syms, truncated) in streams {
            let id = TraceId::master(0);
            let mut trace = Trace::from_symbols(id, &syms, truncated);
            trace.truncated = truncated;
            let expanded = rules::check_stack_discipline(&trace, &registry);
            let mut table = LoopTable::new();
            let term = NlrBuilder::new(4).build(&syms, &mut table);
            let compressed =
                check_stack_discipline_compressed(&table, id, &term, truncated, &registry);
            let ev: std::collections::BTreeSet<(RuleCode, Severity)> =
                expanded.iter().map(|d| (d.code, d.severity)).collect();
            let cv: std::collections::BTreeSet<(RuleCode, Severity)> =
                compressed.iter().map(|d| (d.code, d.severity)).collect();
            assert_eq!(ev, cv, "syms={syms:?} truncated={truncated}");
        }
    }

    #[test]
    fn projection_flattens_and_compares() {
        let registry = Arc::new(dt_trace::FunctionRegistry::new());
        let barrier = registry.intern("MPI_Barrier").0;
        let reduce = registry.intern("MPI_Allreduce").0;
        let work = registry.intern("compute").0;
        let collectives: HashSet<u32> = [barrier, reduce].into_iter().collect();

        // Both ranks: 30× (work, barrier), then one allreduce — but
        // rank 1 swaps the final collective.
        let mk = |last: u32| -> Vec<u32> {
            let mut s = Vec::new();
            for _ in 0..30 {
                s.extend([call(work), ret(work), call(barrier), ret(barrier)]);
            }
            s.extend([call(last), ret(last)]);
            s
        };
        let mut table = LoopTable::new();
        let t0 = NlrBuilder::new(6).build(&mk(reduce), &mut table);
        let t1 = NlrBuilder::new(6).build(&mk(barrier), &mut table);
        let mut projector = CollProjector::new(&collectives);
        let terms = [
            (TraceId::master(0), &t0, false),
            (TraceId::master(1), &t1, false),
        ];
        let mut ranks = Vec::new();
        rank_streams(&mut ranks, &table, terms, &mut projector);
        assert_eq!(ranks.len(), 2);
        let div = collective_divergences(&ranks, &projector);
        assert_eq!(
            div,
            vec![(
                1,
                Some(CollDivergence::Mismatch {
                    ordinal: 30,
                    want: reduce,
                    got: barrier,
                })
            )]
        );
        // And identical ranks compare Equal without expansion.
        let t2 = NlrBuilder::new(6).build(&mk(reduce), &mut table);
        let mut projector = CollProjector::new(&collectives);
        let terms = [
            (TraceId::master(0), &t0, false),
            (TraceId::master(1), &t2, false),
        ];
        let mut ranks = Vec::new();
        rank_streams(&mut ranks, &table, terms, &mut projector);
        assert_eq!(collective_divergences(&ranks, &projector), vec![(1, None)]);
    }

    #[test]
    fn loop_count_mismatch_yields_correct_ordinal() {
        let registry = Arc::new(dt_trace::FunctionRegistry::new());
        let barrier = registry.intern("MPI_Barrier").0;
        let send = registry.intern("MPI_Send").0;
        let collectives: HashSet<u32> = [barrier].into_iter().collect();
        // Loops with *different* iteration counts: 20 barriers vs 15.
        let mk = |iters: usize| -> Vec<u32> {
            let mut s = Vec::new();
            for _ in 0..iters {
                s.extend([call(send), ret(send), call(barrier), ret(barrier)]);
            }
            s
        };
        let mut table = LoopTable::new();
        let t0 = NlrBuilder::new(6).build(&mk(20), &mut table);
        let t1 = NlrBuilder::new(6).build(&mk(15), &mut table);
        let mut projector = CollProjector::new(&collectives);
        let terms = [
            (TraceId::master(0), &t0, false),
            (TraceId::master(1), &t1, false),
        ];
        let mut ranks = Vec::new();
        rank_streams(&mut ranks, &table, terms, &mut projector);
        let div = collective_divergences(&ranks, &projector);
        assert_eq!(
            div,
            vec![(
                1,
                Some(CollDivergence::Shortfall {
                    ordinal: 15,
                    want: barrier,
                })
            )]
        );
    }
}
