//! The NLR stack machine (the paper's Procedure 1). It interns into a
//! plain [`LoopTable`]: [`NlrBuilder::build`] into a given one,
//! [`NlrBuilder::fold`] into a fresh trace-local one whose bodies form
//! the portable [`Fold`].
//!
//! One pass over the input finds every loop nest. A folded loop is an
//! element of the stack like any symbol, so later folds take it into
//! their bodies (`((A B)^3 C)^4` folds inside out in one scan). A
//! second pass over the output would be the identity: right after an
//! output element's last write the stack was exactly the output's prefix
//! up to it, and `reduce` had reached a fixpoint there; the rules read
//! only the stack, `K` and bodies that never change once interned, so
//! re-pushing the output fires no rule.
//!
//! The rules visit only the stack slots that can match, in the order a
//! scan of every body length `b` in `1..=K` would meet them, so the
//! decisions, the intern order and every [`Fold`] are those of that
//! scan: a fold walks the links to earlier slots shaped like the top
//! element, an extension the links between loops that end where the
//! stack ends.

use crate::element::{Element, LoopId, Nlr};
use crate::fold::Fold;
use crate::table::LoopTable;
use std::collections::HashMap;

/// Configurable NLR recognizer.
///
/// `K` is the paper's buffer constant: the maximum loop-body length
/// considered. A reduction step compares only candidate slots: earlier
/// slots within `K` shaped like the top element, and loops whose body
/// would end at the top. A trace costs `O(K²·N)` at worst, as a scan of
/// every body length does, and close to `O(N)` when few slots repeat.
#[derive(Debug, Clone, Copy)]
pub struct NlrBuilder {
    k: usize,
}

impl NlrBuilder {
    /// A builder with body-length bound `k` (the paper uses K = 10 and
    /// K = 50).
    pub fn new(k: usize) -> NlrBuilder {
        NlrBuilder { k }
    }

    /// The body-length bound.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Summarize `input`, interning loop bodies into `table`. The
    /// folding decisions depend only on the input and the bodies this
    /// build interned itself, never on what the table already
    /// contained — so the resulting *structure* is table-independent
    /// (only the ID numbering varies), which is what makes a
    /// trace-local [`NlrBuilder::fold`] replayable into any table.
    pub fn build(&self, input: &[u32], table: &mut LoopTable) -> Nlr {
        let mut m = Machine::new(self.k, table, input.len());
        for &s in input {
            m.push(Element::Sym(s));
            m.reduce();
        }
        // The stack was sized for the input; the summary is kept, often
        // far shorter.
        let mut elements = m.stack;
        elements.shrink_to_fit();
        Nlr::from_parts(elements, input.len())
    }

    /// Summarize `input` into a fresh trace-local table: the portable
    /// [`Fold`] of this trace. Local IDs are assigned in first-intern
    /// order, so [`Fold::replay`] into any table re-interns exactly the
    /// sequence [`NlrBuilder::build`] into that table would have.
    pub fn fold(&self, input: &[u32]) -> Fold {
        let mut table = LoopTable::new();
        let nlr = self.build(input, &mut table);
        Fold {
            bodies: table.into_bodies(),
            elements: nlr.elements,
            input_len: nlr.input_len,
        }
    }
}

/// No earlier slot.
const NONE: u32 = u32::MAX;

/// Symbols below this find their last slot in a dense array, larger
/// ones in a map.
const DENSE_SYMBOLS: u32 = 1 << 16;

/// The stack of one build, with the indexes its rules walk. Every
/// change goes through [`Machine::push`] and [`Machine::truncate`],
/// which keep the indexes equal to the stack.
///
/// A fold's candidates are linked by *shape* ([`Element::same_shape`]:
/// a symbol, or a loop body whatever its count), so a loop's link needs
/// no hash: the walk meets every slot equal to the top, plus
/// equal-bodied loops of other counts that its comparison rejects. An
/// extension's candidates are linked by *reach*: a loop at slot `p`
/// with a body of `b` elements can only absorb the top when the stack
/// is `p + 1 + b` long.
struct Machine<'t> {
    k: usize,
    table: &'t mut LoopTable,
    stack: Vec<Element>,
    /// `shape_prev[i]`: the highest slot below `i` with the shape of
    /// `stack[i]`, or [`NONE`].
    shape_prev: Vec<u32>,
    /// `reach_prev[i]`: for a loop, the highest loop slot below `i`
    /// with the same reach; [`NONE`] otherwise.
    reach_prev: Vec<u32>,
    /// The highest slot holding each small symbol, or [`NONE`].
    last_sym: Vec<u32>,
    /// The highest slot holding each large symbol.
    last_wide: HashMap<u32, u32>,
    /// The highest slot holding a loop of each body, or [`NONE`].
    last_loop: Vec<u32>,
    /// The highest loop slot of each reach, or [`NONE`].
    last_reach: Vec<u32>,
}

/// `v[i]`, growing `v` with [`NONE`] to reach it.
fn dense(v: &mut Vec<u32>, i: usize) -> &mut u32 {
    if i >= v.len() {
        v.resize(i + 1, NONE);
    }
    &mut v[i]
}

impl<'t> Machine<'t> {
    fn new(k: usize, table: &'t mut LoopTable, len: usize) -> Machine<'t> {
        let cap = len.min(4096);
        Machine {
            k,
            table,
            stack: Vec::with_capacity(cap),
            shape_prev: Vec::with_capacity(cap),
            reach_prev: Vec::with_capacity(cap),
            last_sym: Vec::new(),
            last_wide: HashMap::new(),
            last_loop: Vec::new(),
            last_reach: Vec::new(),
        }
    }

    /// The head of `e`'s shape chain: the highest slot with its shape.
    fn shape_head(&mut self, e: Element) -> &mut u32 {
        match e {
            Element::Sym(s) if s < DENSE_SYMBOLS => dense(&mut self.last_sym, s as usize),
            Element::Sym(s) => self.last_wide.entry(s).or_insert(NONE),
            Element::Loop { body, .. } => dense(&mut self.last_loop, body.0 as usize),
        }
    }

    /// The head of the reach chain a loop of `body` at `slot` joins: the
    /// highest loop slot with its reach.
    fn reach_head(&mut self, slot: usize, body: LoopId) -> &mut u32 {
        let reach = slot + 1 + self.table.body(body).len();
        dense(&mut self.last_reach, reach)
    }

    fn push(&mut self, e: Element) {
        let slot = self.stack.len();
        // Links are `u32` with `NONE` reserved; a stack that long would
        // already hold 64 GiB of elements.
        let link = u32::try_from(slot)
            .ok()
            .filter(|&l| l != NONE)
            .expect("NLR stack fits u32 slot links");
        let prev = std::mem::replace(self.shape_head(e), link);
        self.shape_prev.push(prev);
        let prev = match e {
            Element::Loop { body, .. } => std::mem::replace(self.reach_head(slot, body), link),
            Element::Sym(_) => NONE,
        };
        self.reach_prev.push(prev);
        self.stack.push(e);
    }

    /// Pop down to `len` slots, handing each popped slot's links back
    /// to the indexes.
    fn truncate(&mut self, len: usize) {
        while self.stack.len() > len {
            let e = self.stack.pop().expect("non-empty");
            *self.shape_head(e) = self.shape_prev.pop().expect("one link per slot");
            let prev = self.reach_prev.pop().expect("one link per slot");
            if let Element::Loop { body, .. } = e {
                *self.reach_head(self.stack.len(), body) = prev;
            }
        }
    }

    /// Procedure 1: repeatedly apply (in priority order) loop merge,
    /// loop extension, and loop folding to the top of the stack.
    fn reduce(&mut self) {
        while self.try_merge_adjacent() || self.try_extend() || self.try_fold() {}
    }

    /// `… L(b)^c1 L(b)^c2` → `… L(b)^(c1+c2)`.
    fn try_merge_adjacent(&mut self) -> bool {
        let n = self.stack.len();
        if n < 2 {
            return false;
        }
        if let (
            Element::Loop {
                body: b1,
                count: c1,
            },
            Element::Loop {
                body: b2,
                count: c2,
            },
        ) = (self.stack[n - 2], self.stack[n - 1])
        {
            if b1 == b2 {
                self.truncate(n - 2);
                self.push(Element::Loop {
                    body: b1,
                    count: c1 + c2,
                });
                return true;
            }
        }
        false
    }

    /// If the top `b` elements equal the body of the loop right below
    /// them, absorb them as one more iteration:
    /// `… L(body)^c body` → `… L(body)^(c+1)`. Only the loops whose
    /// reach is the stack's length are candidates, nearest (smallest
    /// `b`) first; their bodies are at most `K` long by construction.
    fn try_extend(&mut self) -> bool {
        let n = self.stack.len();
        let mut j = self.last_reach.get(n).copied().unwrap_or(NONE);
        while j != NONE {
            let pos = j as usize;
            if let Element::Loop { body, count } = self.stack[pos] {
                if self.table.body(body) == &self.stack[pos + 1..] {
                    self.truncate(pos);
                    self.push(Element::Loop {
                        body,
                        count: count + 1,
                    });
                    return true;
                }
            }
            j = self.reach_prev[pos];
        }
        false
    }

    /// If the top `2·b` elements are two equal halves, fold them into a
    /// fresh loop of two iterations: `… X X` → `… L(X)^2`. The halves
    /// can only match if their last elements do, so only the earlier
    /// slots with the top's shape are candidates, nearest first.
    fn try_fold(&mut self) -> bool {
        let n = self.stack.len();
        let Some(&top) = self.stack.last() else {
            return false;
        };
        let limit = self.k.min(n / 2);
        let mut j = self.shape_prev[n - 1];
        while j != NONE {
            let b = n - 1 - j as usize;
            if b > limit {
                break;
            }
            j = self.shape_prev[j as usize];
            // Folding a bare `L^c L^c` pair would create a loop whose
            // body is a loop — that is just a count multiply; leave it
            // to merge instead (it already ran).
            if b == 1 && top.is_loop() {
                continue;
            }
            if self.stack[n - b..] == self.stack[n - 2 * b..n - b] {
                let id = self.table.intern(self.stack[n - b..].to_vec());
                self.truncate(n - 2 * b);
                self.push(Element::Loop { body: id, count: 2 });
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(k: usize, input: &[u32]) -> (Nlr, LoopTable) {
        let mut table = LoopTable::new();
        let nlr = NlrBuilder::new(k).build(input, &mut table);
        assert_eq!(nlr.expand(&table), input, "NLR must be lossless");
        (nlr, table)
    }

    #[test]
    fn empty_and_singleton() {
        let (nlr, _) = build(10, &[]);
        assert!(nlr.elements().is_empty());
        let (nlr, _) = build(10, &[42]);
        assert_eq!(nlr.elements(), &[Element::Sym(42)]);
    }

    #[test]
    fn simple_repetition_folds() {
        // A A A A → L(A)^4
        let (nlr, table) = build(10, &[7, 7, 7, 7]);
        assert_eq!(nlr.elements().len(), 1);
        match nlr.elements()[0] {
            Element::Loop { body, count } => {
                assert_eq!(count, 4);
                assert_eq!(table.body(body), &[Element::Sym(7)]);
            }
            other => panic!("expected loop, got {other:?}"),
        }
    }

    #[test]
    fn odd_even_example_matches_table_iii() {
        // Table II/III: Init, Rank, Size, (Send Recv)^4, Finalize
        // symbols: 0=Init 1=Rank 2=Size 3=Send 4=Recv 5=Finalize
        let input = [0, 1, 2, 3, 4, 3, 4, 3, 4, 3, 4, 5];
        let (nlr, table) = build(10, &input);
        let names = |s: u32| {
            [
                "MPI_Init",
                "MPI_Comm_Rank",
                "MPI_Comm_Size",
                "MPI_Send",
                "MPI_Recv",
                "MPI_Finalize",
            ][s as usize]
                .to_string()
        };
        let rendered = nlr.render(&names);
        assert_eq!(
            rendered,
            vec![
                "MPI_Init",
                "MPI_Comm_Rank",
                "MPI_Comm_Size",
                "L0 ^ 4",
                "MPI_Finalize"
            ]
        );
        assert_eq!(
            table.render_body(LoopId(0), &names),
            "[MPI_Send - MPI_Recv]"
        );
    }

    #[test]
    fn shared_table_gives_same_loop_id_across_traces() {
        let mut table = LoopTable::new();
        let b = NlrBuilder::new(10);
        // Even trace: (Send Recv)^4 ; Odd trace: (Recv Send)^4.
        let even = b.build(&[3, 4, 3, 4, 3, 4, 3, 4], &mut table);
        let odd = b.build(&[4, 3, 4, 3, 4, 3, 4, 3], &mut table);
        let even2 = b.build(&[3, 4, 3, 4], &mut table);
        let l_even = even.elements()[0].loop_id().unwrap();
        let l_odd = odd.elements()[0].loop_id().unwrap();
        let l_even2 = even2.elements()[0].loop_id().unwrap();
        assert_ne!(l_even, l_odd, "L0 vs L1 as in Table III");
        assert_eq!(l_even, l_even2, "same body ⇒ same ID across traces");
    }

    #[test]
    fn nested_loops_fold_in_one_pass() {
        // ((A B)^3 C)^4 — depth-2 nest.
        let mut input = Vec::new();
        for _ in 0..4 {
            for _ in 0..3 {
                input.push(1);
                input.push(2);
            }
            input.push(3);
        }
        let (nlr, table) = build(10, &input);
        assert_eq!(nlr.elements().len(), 1, "whole trace is one outer loop");
        match nlr.elements()[0] {
            Element::Loop { body, count } => {
                assert_eq!(count, 4);
                let outer_body = table.body(body);
                assert_eq!(outer_body.len(), 2); // inner loop + C
                assert!(outer_body[0].is_loop());
                assert_eq!(outer_body[1], Element::Sym(3));
            }
            other => panic!("expected loop, got {other:?}"),
        }
    }

    #[test]
    fn depth_statistics() {
        // ((A B)^3 C)^4 → depth-2 nest.
        let mut input = Vec::new();
        for _ in 0..4 {
            for _ in 0..3 {
                input.push(1);
                input.push(2);
            }
            input.push(3);
        }
        let (nlr, table) = build(10, &input);
        assert_eq!(nlr.max_depth(&table), 2);
        assert_eq!(nlr.loop_count(), 1);
        // Flat trace: depth 0, no loops.
        let (flat, t2) = build(10, &[1, 2, 3, 4]);
        assert_eq!(flat.max_depth(&t2), 0);
        assert_eq!(flat.loop_count(), 0);
        // Simple loop: depth 1.
        let (one, t3) = build(10, &[7, 7, 7]);
        assert_eq!(one.max_depth(&t3), 1);
    }

    #[test]
    fn render_nested_expands_bodies() {
        let mut input = Vec::new();
        for _ in 0..4 {
            for _ in 0..3 {
                input.push(1);
                input.push(2);
            }
            input.push(3);
        }
        let (nlr, table) = build(10, &input);
        let s = nlr.render_nested(&table, &|x| format!("f{x}"));
        assert_eq!(s, "((f1 f2)^3 f3)^4");
        let (flat, t2) = build(10, &[5, 6]);
        assert_eq!(flat.render_nested(&t2, &|x| format!("f{x}")), "f5 f6");
    }

    #[test]
    fn k_limits_body_length() {
        // Body of length 4 repeated: K=3 cannot fold it, K=4 can.
        let input = [1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4];
        let (nlr_small, _) = build(3, &input);
        assert_eq!(nlr_small.elements().len(), 12, "K too small: no folding");
        let (nlr_big, _) = build(4, &input);
        assert_eq!(nlr_big.elements().len(), 1);
    }

    #[test]
    fn truncated_loop_keeps_remainder() {
        // (A B)^3 then a dangling A — the dangling call of a thread
        // that died mid-loop must survive as its own element.
        let input = [1, 2, 1, 2, 1, 2, 1];
        let (nlr, _) = build(10, &input);
        let n = nlr.elements().len();
        assert_eq!(n, 2);
        assert!(nlr.elements()[0].is_loop());
        assert_eq!(nlr.elements()[1], Element::Sym(1));
    }

    #[test]
    fn different_counts_same_body_share_id() {
        let mut table = LoopTable::new();
        let b = NlrBuilder::new(10);
        let t16 = b.build(&[1u32, 2].repeat(16), &mut table);
        let t7 = b.build(&[1u32, 2].repeat(7), &mut table);
        let (l16, c16) = match t16.elements()[0] {
            Element::Loop { body, count } => (body, count),
            _ => panic!(),
        };
        let (l7, c7) = match t7.elements()[0] {
            Element::Loop { body, count } => (body, count),
            _ => panic!(),
        };
        assert_eq!(l16, l7);
        assert_eq!((c16, c7), (16, 7));
    }

    #[test]
    fn reduction_factor_grows_with_k() {
        // Long outer loop with body length 12: only foldable at K ≥ 12.
        let mut input = Vec::new();
        for _ in 0..200 {
            input.extend(0..12u32);
        }
        let (n10, _) = build(10, &input);
        let (n50, _) = build(50, &input);
        assert!(
            n50.reduction_factor() > n10.reduction_factor(),
            "K=50 must summarize more: {} vs {}",
            n50.reduction_factor(),
            n10.reduction_factor()
        );
    }
}
