//! Compressed-domain summaries: one memoized walk over NLR terms.
//!
//! Following Kini et al.'s analyses on compressed traces, a checker
//! that can describe any symbol sequence by a small monoid value — a
//! [`Summary`] — never needs to expand a loop: each distinct loop body
//! is summarized once, and `body^n` is applied in closed form by
//! [`Summary::repeat`]. A loop of a million iterations therefore costs
//! O(|body|). The algebra is the checker's; the walk over
//! [`Element`]s, with its per-loop memo, is [`Summarizer`], shared by
//! every compressed-domain checker.
//!
//! Symbols follow the pipeline's convention: `fn_id << 1 | is_return`,
//! so an even symbol is a call of `fn_id` and an odd one its return.

use crate::element::{Element, LoopId};
use crate::table::LoopTable;
use std::collections::HashMap;

/// A summary of a symbol sequence that composes associatively and
/// repeats in closed form. Implementations must agree with
/// folding the expanded sequence symbol by symbol: `append` is
/// concatenation and `repeat(n)` is `append` applied `n` times.
pub trait Summary: Clone {
    /// What `push_symbol` needs to classify a symbol: the checker's
    /// vocabulary, or `()`.
    type Ctx: ?Sized;

    /// The empty sequence's summary.
    fn identity() -> Self;

    /// Append one raw symbol.
    fn push_symbol(&mut self, sym: u32, ctx: &Self::Ctx);

    /// Append a whole summary (sequential composition `self · next`).
    fn append(&mut self, next: &Self);

    /// `self` concatenated `count` times, in closed form.
    fn repeat(&self, count: u64) -> Self;
}

/// The one compressed-domain walk: summarizes element sequences over
/// a shared loop table, memoizing one iteration of each loop body.
pub struct Summarizer<'t, S: Summary> {
    table: &'t LoopTable,
    ctx: &'t S::Ctx,
    memo: HashMap<LoopId, S>,
}

impl<'t, S: Summary> Summarizer<'t, S> {
    /// A summarizer over `table`, classifying symbols with `ctx`.
    pub fn new(table: &'t LoopTable, ctx: &'t S::Ctx) -> Summarizer<'t, S> {
        Summarizer {
            table,
            ctx,
            memo: HashMap::new(),
        }
    }

    /// Summary of a whole element sequence.
    pub fn summary_of(&mut self, elements: &[Element]) -> S {
        let mut acc = S::identity();
        for e in elements {
            match *e {
                Element::Sym(s) => acc.push_symbol(s, self.ctx),
                Element::Loop { body, count } => {
                    if !self.memo.contains_key(&body) {
                        let table = self.table;
                        let s = self.summary_of(table.body(body));
                        self.memo.insert(body, s);
                    }
                    acc.append(&self.memo[&body].repeat(count));
                }
            }
        }
        acc
    }
}

/// The net effect of a symbol sequence on the call stack, abstracted
/// from *which* events produced it: the frames it pops from its caller
/// (in pop order), the frames it leaves pushed (bottom to top), and
/// whether every interior return matched its innermost open call.
///
/// A call symbol pushes `fn_id`; a return pops the innermost open call
/// whether or not it matches (as tracelint's TL001 walk does), and
/// a mismatch only clears `ok`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackEffect {
    /// False if some return crossed a different open call.
    pub ok: bool,
    /// Function IDs popped from the surrounding context, first first.
    pub pops: Vec<u32>,
    /// Function IDs left open, outermost first.
    pub pushes: Vec<u32>,
}

impl StackEffect {
    /// A return of `fn_id`: pop the innermost open call, or the
    /// surrounding context's when none is open.
    fn pop(&mut self, fn_id: u32) {
        match self.pushes.pop() {
            Some(top) => self.ok &= top == fn_id,
            None => self.pops.push(fn_id),
        }
    }
}

impl Summary for StackEffect {
    type Ctx = ();

    fn identity() -> StackEffect {
        StackEffect {
            ok: true,
            pops: Vec::new(),
            pushes: Vec::new(),
        }
    }

    fn push_symbol(&mut self, sym: u32, _ctx: &()) {
        if sym & 1 == 1 {
            self.pop(sym >> 1);
        } else {
            self.pushes.push(sym >> 1);
        }
    }

    /// `next`'s pops match against `self`'s pushes top-down.
    fn append(&mut self, next: &StackEffect) {
        self.ok &= next.ok;
        for &f in &next.pops {
            self.pop(f);
        }
        self.pushes.extend_from_slice(&next.pushes);
    }

    /// For `e = (ok, p, q)` with `|q| ≥ |p|`, each extra iteration
    /// consumes `p` from the top of `q` and re-deposits `q`, so the
    /// surviving prefix `grow = q[..|q|−|p|]` accumulates:
    /// `e^n = (ok₂, p, grow^{n−1} ++ q)`. Symmetrically for `|q| < |p|`
    /// the unmatched pop tail accumulates. All iteration boundaries are
    /// identical, so `ok₂`, the `ok` of `e·e`, accounts for every
    /// boundary mismatch. Cost: O(|e| · n) output size but O(|e|)
    /// decision work — and for the common balanced loop body, O(1).
    fn repeat(&self, count: u64) -> StackEffect {
        match count {
            0 => return StackEffect::identity(),
            1 => return self.clone(),
            _ => {}
        }
        let p = &self.pops;
        let q = &self.pushes;
        let ok = self.ok && p.iter().zip(q.iter().rev()).all(|(a, b)| a == b);
        let reps = usize::try_from(count - 1).expect("loop count exceeds usize");
        if q.len() >= p.len() {
            let grow = &q[..q.len() - p.len()];
            let mut pushes = Vec::with_capacity(grow.len() * reps + q.len());
            for _ in 0..reps {
                pushes.extend_from_slice(grow);
            }
            pushes.extend_from_slice(q);
            StackEffect {
                ok,
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
                ok,
                pops,
                pushes: q.clone(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(f: u32) -> u32 {
        f << 1
    }
    fn ret(f: u32) -> u32 {
        (f << 1) | 1
    }

    fn effect(syms: &[u32]) -> StackEffect {
        let mut e = StackEffect::identity();
        for &s in syms {
            e.push_symbol(s, &());
        }
        e
    }

    #[test]
    fn repeat_closed_form_matches_iterated_append() {
        // Effects with every shape: growing, shrinking, mixed, broken.
        let cases: Vec<Vec<u32>> = vec![
            vec![call(1)],                          // push
            vec![ret(1)],                           // pop
            vec![call(1), call(2)],                 // push×2
            vec![ret(2), call(2)],                  // pop then push
            vec![call(1), ret(2)],                  // crossed
            vec![ret(1), ret(2), call(3)],          // net pop
            vec![call(1), call(2), ret(2)],         // net push
            vec![call(7), ret(7), ret(7), call(7)], // balanced but popping
        ];
        for syms in cases {
            let base = effect(&syms);
            let mut iterated = StackEffect::identity();
            for n in 0..=7u64 {
                assert_eq!(base.repeat(n), iterated, "syms={syms:?} n={n}");
                iterated.append(&base);
            }
        }
    }
}
