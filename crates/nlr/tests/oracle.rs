//! The one-pass, candidate-indexed builder against a reference: the
//! plain multi-pass stack machine that tries every body length `1..=K`
//! on every push and re-runs itself over its own output until nothing
//! changes. Both must give the same [`Fold`] — the same elements, the
//! same bodies in the same intern order, the same input length — for
//! every stream and every `K`.

use nlr::{Element, Fold, LoopId, LoopTable, NlrBuilder};
use proptest::prelude::*;

/// The reference builder: Procedure 1 scanning every body length, in
/// passes until a pass leaves the sequence as long as it was.
struct Reference {
    k: usize,
}

impl Reference {
    const MAX_PASSES: usize = 8;

    fn fold(&self, input: &[u32]) -> Fold {
        let mut table = LoopTable::new();
        let mut elements: Vec<Element> = input.iter().map(|&s| Element::Sym(s)).collect();
        for _ in 0..Self::MAX_PASSES {
            let before = elements.len();
            elements = self.pass(&elements, &mut table);
            if elements.len() == before {
                break;
            }
        }
        Fold {
            bodies: (0..table.len())
                .map(|i| table.body(LoopId(i as u32)).to_vec())
                .collect(),
            elements,
            input_len: input.len(),
        }
    }

    fn pass(&self, input: &[Element], table: &mut LoopTable) -> Vec<Element> {
        let mut stack = Vec::new();
        for &e in input {
            stack.push(e);
            while self.try_merge_adjacent(&mut stack)
                || self.try_extend(&mut stack, table)
                || self.try_fold(&mut stack, table)
            {}
        }
        stack
    }

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

    fn try_extend(&self, stack: &mut Vec<Element>, table: &LoopTable) -> bool {
        let n = stack.len();
        for b in 1..=self.k.min(n.saturating_sub(1)) {
            let loop_pos = n - b - 1;
            if let Element::Loop { body, count } = stack[loop_pos] {
                if table.body(body) == &stack[n - b..] {
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

    fn try_fold(&self, stack: &mut Vec<Element>, table: &mut LoopTable) -> bool {
        let n = stack.len();
        for b in 1..=self.k.min(n / 2) {
            if stack[n - b..] == stack[n - 2 * b..n - b] {
                let body: Vec<Element> = stack[n - b..].to_vec();
                if b == 1 && body[0].is_loop() {
                    continue;
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

/// Noise over a small alphabet, where equal symbols sit close together.
fn small_alphabet() -> impl Strategy<Value = Vec<u32>> {
    (2u32..7).prop_flat_map(|a| proptest::collection::vec(0..a, 0..300))
}

/// Repeated and nested bodies, with a noisy tail.
fn loopy() -> impl Strategy<Value = Vec<u32>> {
    (
        proptest::collection::vec(0u32..6, 1..12),
        1usize..30,
        1usize..5,
        proptest::collection::vec(0u32..6, 0..20),
    )
        .prop_map(|(body, inner, outer, tail)| {
            let mut v = Vec::new();
            for _ in 0..outer {
                for _ in 0..inner {
                    v.extend(&body);
                }
                v.push(9);
            }
            v.extend(tail);
            v
        })
}

/// Call/return-shaped streams (`2f` enters `f`, `2f + 1` leaves it):
/// `outer` times, enter `main` and call each `(f, depth)` nest `inner`
/// times, cut short after `keep` symbols as a killed thread would be.
fn enter_exit() -> impl Strategy<Value = Vec<u32>> {
    (
        proptest::collection::vec((0u32..5, 0u32..3), 1..6),
        1usize..25,
        1usize..4,
        0usize..2000,
    )
        .prop_map(|(calls, inner, outer, keep)| {
            let mut v = Vec::new();
            for _ in 0..outer {
                v.push(2 * 10);
                for _ in 0..inner {
                    for &(f, depth) in &calls {
                        v.extend((0..=depth).map(|d| 2 * (f + d)));
                        v.extend((0..=depth).rev().map(|d| 2 * (f + d) + 1));
                    }
                }
                v.push(2 * 10 + 1);
            }
            v.truncate(keep.max(1));
            v
        })
}

/// Symbols above the dense index's range, mixed with small ones.
fn wide_symbols() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(
        proptest::sample::select(vec![0u32, 1, 70_000, 70_001, u32::MAX - 1, u32::MAX]),
        0..200,
    )
}

fn any_stream() -> impl Strategy<Value = Vec<u32>> {
    prop_oneof![small_alphabet(), loopy(), enter_exit(), wide_symbols()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The builder's fold equals the reference's, bodies and intern
    /// order included, for every `K` in `1..=50`.
    #[test]
    fn one_pass_fold_equals_the_multi_pass_reference(
        stream in any_stream(),
        k in 1usize..51,
    ) {
        let fold = NlrBuilder::new(k).fold(&stream);
        prop_assert_eq!(fold, Reference { k }.fold(&stream));
    }

    /// Folding a fold's own output is the identity: a second pass of
    /// the stack machine over the summary fires no rule and interns no
    /// body. This is why one pass suffices.
    #[test]
    fn refolding_the_output_is_the_identity(
        stream in any_stream(),
        k in 1usize..51,
    ) {
        let mut table = LoopTable::new();
        let nlr = NlrBuilder::new(k).build(&stream, &mut table);
        let bodies = table.len();
        let again = Reference { k }.pass(nlr.elements(), &mut table);
        prop_assert_eq!(&again[..], nlr.elements());
        prop_assert_eq!(table.len(), bodies);
    }
}
