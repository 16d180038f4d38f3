//! Compressed-domain trace summarization: [`crate::TraceProgress`]
//! computed **directly on the NLR term**, without expanding loops.
//!
//! A [`BodySummary`] folded by the shared [`Summarizer`] walk (after
//! Kini et al.'s compressed-trace analyses): every loop *body* is
//! summarized once — its per-function call counts, its net stack
//! effect, and its symbol length — and `body^n` is handled in closed
//! form: counts and length multiply by `n`, and the stack effect is
//! the shared [`StackEffect`], whose `ok` flag hbcheck ignores (judging
//! stack *discipline* is TL001's job; hbcheck only needs the open chain
//! at truncation). A loop of a million iterations therefore costs
//! O(|body|), which is the asymptotic win `checker_bench` measures.

use crate::TraceProgress;
use dt_trace::TraceId;
use nlr::summary::StackEffect;
use nlr::{LoopTable, Nlr, Summarizer, Summary};
use std::collections::BTreeMap;

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

impl Summary for BodySummary {
    type Ctx = ();

    fn identity() -> BodySummary {
        BodySummary {
            calls: BTreeMap::new(),
            effect: StackEffect::identity(),
            len: 0,
        }
    }

    fn push_symbol(&mut self, sym: u32, ctx: &()) {
        if sym & 1 == 0 {
            *self.calls.entry(sym >> 1).or_insert(0) += 1;
        }
        self.effect.push_symbol(sym, ctx);
        self.len += 1;
    }

    fn append(&mut self, next: &BodySummary) {
        for (&f, &n) in &next.calls {
            *self.calls.entry(f).or_insert(0) += n;
        }
        self.effect.append(&next.effect);
        self.len += next.len;
    }

    fn repeat(&self, count: u64) -> BodySummary {
        BodySummary {
            calls: self.calls.iter().map(|(&f, &n)| (f, n * count)).collect(),
            effect: self.effect.repeat(count),
            len: self.len * count,
        }
    }
}

/// Summarize one NLR term — must equal [`crate::expanded::summarize`]
/// on the term's expansion.
pub fn summarize(table: &LoopTable, id: TraceId, term: &Nlr, truncated: bool) -> TraceProgress {
    let s: BodySummary = Summarizer::new(table, &()).summary_of(term.elements());
    TraceProgress {
        id,
        len: usize::try_from(s.len).expect("trace length exceeds usize"),
        calls: s.calls,
        open_stack: s.effect.pushes,
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expanded;
    use nlr::{Element, NlrBuilder};

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
        let id = TraceId::master(0);
        assert_eq!(
            summarize(&table, id, &term, truncated),
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
        let s: BodySummary = Summarizer::new(&table, &()).summary_of(&term_elements);
        assert_eq!(s.calls.get(&7), Some(&1_000_000));
        assert_eq!(s.len, 2_000_000);
        assert!(s.effect.pushes.is_empty());
    }
}
