//! The NLR stack machine (the paper's Procedure 1) and the multi-pass
//! driver that finds deeper loop nests. It interns into a plain
//! [`LoopTable`]: [`NlrBuilder::build`] into a given one,
//! [`NlrBuilder::fold`] into a fresh trace-local one whose bodies form
//! the portable [`Fold`].

use crate::element::{Element, Nlr};
use crate::fold::Fold;
use crate::table::LoopTable;

/// Configurable NLR recognizer.
///
/// `K` is the paper's buffer constant: the maximum loop-body length
/// considered. Complexity per pass is `Θ(K²·N)`.
#[derive(Debug, Clone, Copy)]
pub struct NlrBuilder {
    k: usize,
    max_passes: usize,
}

impl NlrBuilder {
    /// A builder with body-length bound `k` (the paper uses K = 10 and
    /// K = 50) and the default nesting-pass limit.
    pub fn new(k: usize) -> NlrBuilder {
        NlrBuilder { k, max_passes: 8 }
    }

    /// Override the maximum number of re-analysis passes (each pass can
    /// add one level of loop nesting; the default of 8 is far deeper
    /// than real call traces need).
    pub fn with_max_passes(mut self, passes: usize) -> NlrBuilder {
        self.max_passes = passes.max(1);
        self
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
        let mut elements: Vec<Element> = input.iter().map(|&s| Element::Sym(s)).collect();
        // Pass 1 finds depth-1 loops; each subsequent pass treats the
        // previous summary's loops as atomic symbols and can therefore
        // fold loops-of-loops — the paper's "restarted once the whole
        // trace has been analyzed for depth-2 loops and so on".
        for _ in 0..self.max_passes {
            let before = elements.len();
            elements = self.pass(&elements, table);
            if elements.len() == before {
                break;
            }
        }
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

    /// One stack-machine pass over an element sequence.
    fn pass(&self, input: &[Element], table: &mut LoopTable) -> Vec<Element> {
        let mut stack: Vec<Element> = Vec::with_capacity(input.len().min(4096));
        for &e in input {
            stack.push(e);
            self.reduce(&mut stack, table);
        }
        stack
    }

    /// Procedure 1: repeatedly apply (in priority order) loop merge,
    /// loop extension, and loop folding to the top of the stack.
    fn reduce(&self, stack: &mut Vec<Element>, table: &mut LoopTable) {
        loop {
            if self.try_merge_adjacent(stack)
                || self.try_extend(stack, table)
                || self.try_fold(stack, table)
            {
                continue;
            }
            break;
        }
    }

    /// `… L(b)^c1 L(b)^c2` → `… L(b)^(c1+c2)`.
    fn try_merge_adjacent(&self, stack: &mut Vec<Element>) -> bool {
        let n = stack.len();
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
        ) = (stack[n - 2], stack[n - 1])
        {
            if b1 == b2 {
                stack.truncate(n - 2);
                stack.push(Element::Loop {
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
    /// `… L(body)^c body` → `… L(body)^(c+1)`.
    fn try_extend(&self, stack: &mut Vec<Element>, table: &LoopTable) -> bool {
        let n = stack.len();
        for b in 1..=self.k.min(n.saturating_sub(1)) {
            let loop_pos = n - b - 1;
            if let Element::Loop { body, count } = stack[loop_pos] {
                let body_elems = table.body(body);
                // Cheap prefilter: the first body element must match
                // before paying for the slice comparison.
                if body_elems.len() == b
                    && body_elems.first() == stack.get(n - b)
                    && body_elems == &stack[n - b..]
                {
                    stack.truncate(loop_pos);
                    stack.push(Element::Loop {
                        body,
                        count: count + 1,
                    });
                    return true;
                }
            }
        }
        false
    }

    /// If the top `2·b` elements are two equal halves, fold them into a
    /// fresh loop of two iterations: `… X X` → `… L(X)^2`.
    fn try_fold(&self, stack: &mut Vec<Element>, table: &mut LoopTable) -> bool {
        let n = stack.len();
        for b in 1..=self.k.min(n / 2) {
            // Cheap prefilter: the halves can only match if their last
            // elements do — turns the common non-matching case from
            // O(b) into O(1), keeping long-trace passes near O(K·N).
            if stack[n - 1] == stack[n - 1 - b] && stack[n - b..] == stack[n - 2 * b..n - b] {
                let body: Vec<Element> = stack[n - b..].to_vec();
                // Folding a bare `L^c L^c` pair would create a loop
                // whose body is a loop — that is just a count multiply;
                // leave it to merge instead (it already ran).
                if b == 1 {
                    if let Element::Loop { .. } = body[0] {
                        continue;
                    }
                }
                let id = table.intern(body);
                stack.truncate(n - 2 * b);
                stack.push(Element::Loop { body: id, count: 2 });
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::LoopId;

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
    fn nested_loops_found_in_later_passes() {
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
