//! Compressed-domain trace summarization: [`crate::TraceProgress`]
//! computed **directly on the NLR term**, without expanding loops.
//!
//! Mirrors `tracelint`'s compressed checks (after Kini et al.'s
//! compressed-trace analyses): every loop *body* is summarized once —
//! its per-function call counts, its net stack effect, and its symbol
//! length — and `body^n` is handled in closed form: counts and length
//! multiply by `n`, and the stack effect's repetition follows the same
//! grow-prefix algebra as `tracelint::compressed::StackEffect`. A loop
//! of a million iterations therefore costs O(|body|), which is the
//! asymptotic win `checker_bench` measures.

use crate::TraceProgress;
use dt_trace::TraceId;
use nlr::{Element, LoopId, LoopTable, Nlr};
use std::collections::{BTreeMap, HashMap};

/// The net effect of a symbol sequence on the call stack: the frames
/// it pops from its caller and the frames it leaves open. (Unlike
/// `tracelint`, no `ok` flag — judging stack *discipline* is TL001's
/// job; `hbcheck` only needs the open chain at truncation.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackEffect {
    /// Function IDs popped from the surrounding context, first first.
    pub pops: Vec<u32>,
    /// Function IDs left open, outermost first.
    pub pushes: Vec<u32>,
}

impl StackEffect {
    /// The empty sequence's effect.
    pub fn identity() -> StackEffect {
        StackEffect {
            pops: Vec::new(),
            pushes: Vec::new(),
        }
    }

    /// The effect of one NLR symbol (`fn_id << 1 | is_return`).
    pub fn sym(sym: u32) -> StackEffect {
        let fn_id = sym >> 1;
        if sym & 1 == 1 {
            StackEffect {
                pops: vec![fn_id],
                pushes: Vec::new(),
            }
        } else {
            StackEffect {
                pops: Vec::new(),
                pushes: vec![fn_id],
            }
        }
    }

    /// Sequential composition: `self` then `next`. `next`'s pops
    /// consume `self`'s pushes top-down (a return pops the innermost
    /// open call whether or not it matches — the expanded semantics).
    pub fn compose(&self, next: &StackEffect) -> StackEffect {
        let mut pops = self.pops.clone();
        let mut pushes = self.pushes.clone();
        for &f in &next.pops {
            if pushes.pop().is_none() {
                pops.push(f);
            }
        }
        pushes.extend_from_slice(&next.pushes);
        StackEffect { pops, pushes }
    }

    /// `self` composed with itself `count` times, in closed form: for
    /// `|pushes| ≥ |pops|` each extra iteration deposits the surviving
    /// prefix `pushes[..|pushes|−|pops|]`; symmetrically the unmatched
    /// pop tail accumulates. O(1) decision work for balanced bodies.
    pub fn repeat(&self, count: u64) -> StackEffect {
        match count {
            0 => return StackEffect::identity(),
            1 => return self.clone(),
            _ => {}
        }
        let p = &self.pops;
        let q = &self.pushes;
        let reps = usize::try_from(count - 1).expect("loop count exceeds usize");
        if q.len() >= p.len() {
            let grow = &q[..q.len() - p.len()];
            let mut pushes = Vec::with_capacity(grow.len() * reps + q.len());
            for _ in 0..reps {
                pushes.extend_from_slice(grow);
            }
            pushes.extend_from_slice(q);
            StackEffect {
                pops: p.clone(),
                pushes,
            }
        } else {
            let tail = &p[q.len()..];
            let mut pops = Vec::with_capacity(p.len() + tail.len() * reps);
            pops.extend_from_slice(p);
            for _ in 0..reps {
                pops.extend_from_slice(tail);
            }
            StackEffect {
                pops,
                pushes: q.clone(),
            }
        }
    }
}

/// One loop body's (or element sequence's) summary: everything the
/// progress analysis needs from one iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BodySummary {
    /// Call-event count per function ID, for one iteration.
    pub calls: BTreeMap<u32, u64>,
    /// Net stack effect of one iteration.
    pub effect: StackEffect,
    /// Symbol count of one iteration.
    pub len: u64,
}

impl BodySummary {
    fn identity() -> BodySummary {
        BodySummary {
            calls: BTreeMap::new(),
            effect: StackEffect::identity(),
            len: 0,
        }
    }

    fn sym(sym: u32) -> BodySummary {
        let mut calls = BTreeMap::new();
        if sym & 1 == 0 {
            calls.insert(sym >> 1, 1);
        }
        BodySummary {
            calls,
            effect: StackEffect::sym(sym),
            len: 1,
        }
    }

    fn compose(&self, next: &BodySummary) -> BodySummary {
        let mut calls = self.calls.clone();
        for (&f, &n) in &next.calls {
            *calls.entry(f).or_insert(0) += n;
        }
        BodySummary {
            calls,
            effect: self.effect.compose(&next.effect),
            len: self.len + next.len,
        }
    }

    fn repeat(&self, count: u64) -> BodySummary {
        BodySummary {
            calls: self.calls.iter().map(|(&f, &n)| (f, n * count)).collect(),
            effect: self.effect.repeat(count),
            len: self.len * count,
        }
    }
}

/// Memoizes per-loop-body summaries against a shared loop table.
pub struct Summarizer<'t> {
    table: &'t LoopTable,
    memo: HashMap<LoopId, BodySummary>,
}

impl<'t> Summarizer<'t> {
    /// A summarizer over `table`.
    pub fn new(table: &'t LoopTable) -> Summarizer<'t> {
        Summarizer {
            table,
            memo: HashMap::new(),
        }
    }

    /// Summary of a whole element sequence.
    pub fn summary_of(&mut self, elements: &[Element]) -> BodySummary {
        let mut acc = BodySummary::identity();
        for e in elements {
            let s = match *e {
                Element::Sym(s) => BodySummary::sym(s),
                Element::Loop { body, count } => self.body_summary(body).repeat(count),
            };
            acc = acc.compose(&s);
        }
        acc
    }

    /// Summary of one iteration of `id`'s body (memoized).
    fn body_summary(&mut self, id: LoopId) -> BodySummary {
        if let Some(s) = self.memo.get(&id) {
            return s.clone();
        }
        let body = self.table.body(id);
        let s = self.summary_of(body);
        self.memo.insert(id, s.clone());
        s
    }

    /// Summarize one NLR term — must equal
    /// [`crate::expanded::summarize`] on the term's expansion.
    pub fn summarize(&mut self, id: TraceId, term: &Nlr, truncated: bool) -> TraceProgress {
        let s = self.summary_of(term.elements());
        TraceProgress {
            id,
            len: usize::try_from(s.len).expect("trace length exceeds usize"),
            calls: s.calls,
            open_stack: s.effect.pushes,
            truncated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expanded;
    use nlr::NlrBuilder;

    fn call(f: u32) -> u32 {
        f << 1
    }
    fn ret(f: u32) -> u32 {
        (f << 1) | 1
    }

    fn agree(symbols: &[u32], truncated: bool) {
        let mut table = LoopTable::new();
        let term = NlrBuilder::new(10).build(symbols, &mut table);
        assert_eq!(term.expand(&table), symbols, "NLR must be lossless");
        let mut summarizer = Summarizer::new(&table);
        let id = TraceId::master(0);
        assert_eq!(
            summarizer.summarize(id, &term, truncated),
            expanded::summarize(id, symbols, truncated),
        );
    }

    #[test]
    fn loopy_stream_agrees_with_expanded() {
        let mut syms = vec![call(0)];
        for _ in 0..50 {
            syms.extend_from_slice(&[call(1), call(2), ret(2), ret(1)]);
        }
        syms.push(call(3)); // truncated inside fn 3
        agree(&syms, true);
    }

    #[test]
    fn nested_loops_agree_with_expanded() {
        let mut syms = Vec::new();
        for _ in 0..6 {
            for _ in 0..4 {
                syms.extend_from_slice(&[call(5), ret(5)]);
            }
            syms.extend_from_slice(&[call(6), ret(6)]);
        }
        agree(&syms, false);
    }

    #[test]
    fn unbalanced_loop_body_accumulates_open_calls() {
        // Each iteration opens fn 1 and never closes it.
        let mut syms = vec![call(0)];
        for _ in 0..5 {
            syms.extend_from_slice(&[call(1), call(2), ret(2)]);
        }
        agree(&syms, true);
    }

    #[test]
    fn high_repetition_counts_multiply_without_expansion() {
        // Hand-build L0 = (call 7, ret 7), term = L0^1_000_000.
        let mut table = LoopTable::new();
        let body = table.intern(vec![Element::Sym(call(7)), Element::Sym(ret(7))]);
        let term_elements = vec![Element::Loop {
            body,
            count: 1_000_000,
        }];
        let mut summarizer = Summarizer::new(&table);
        let s = summarizer.summary_of(&term_elements);
        assert_eq!(s.calls.get(&7), Some(&1_000_000));
        assert_eq!(s.len, 2_000_000);
        assert!(s.effect.pushes.is_empty());
    }

    #[test]
    fn stack_effect_repeat_matches_naive_composition() {
        let body = StackEffect::sym(call(1))
            .compose(&StackEffect::sym(call(2)))
            .compose(&StackEffect::sym(ret(2)));
        let mut naive = StackEffect::identity();
        for _ in 0..7 {
            naive = naive.compose(&body);
        }
        assert_eq!(body.repeat(7), naive);
    }
}
