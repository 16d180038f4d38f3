//! (Weighted) Jaccard similarity between attribute rows.
//!
//! The paper's JSMs (Figures 4, and the JSM_normal/JSM_faulty pair) are
//! pairwise Jaccard similarity matrices over traces. With `noFreq`
//! attributes this is set Jaccard `|A∩B| / |A∪B|`; with frequency
//! weights it is the weighted Jaccard `Σ min(w_a, w_b) / Σ max(w_a, w_b)`
//! over the attribute universe.

use std::cmp::Ordering;

/// Weighted Jaccard similarity of two attribute rows, each sorted by
/// key with every key once — a context's [`crate::FormalContext::row`]s,
/// or any name-sorted `(name, weight)` lists.
///
/// The rows are merged in key order. An attribute missing on one side
/// weighs 0.0 and still goes through `min`/`max`, so the sums add up in
/// the same order and to the same bits whatever the weights, and the
/// result is a pure function of the two rows.
///
/// Two objects with no attributes at all are defined maximally similar
/// (1.0) — e.g. two traces that were filtered to nothing.
pub fn weighted_jaccard<K: Ord>(a: &[(K, f64)], b: &[(K, f64)]) -> f64 {
    let (mut i, mut j) = (0, 0);
    let mut min_sum = 0.0f64;
    let mut max_sum = 0.0f64;
    loop {
        let (wa, wb) = match (a.get(i), b.get(j)) {
            (Some((ka, wa)), Some((kb, wb))) => match ka.cmp(kb) {
                Ordering::Less => {
                    i += 1;
                    (*wa, 0.0)
                }
                Ordering::Greater => {
                    j += 1;
                    (0.0, *wb)
                }
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                    (*wa, *wb)
                }
            },
            (Some((_, wa)), None) => {
                i += 1;
                (*wa, 0.0)
            }
            (None, Some((_, wb))) => {
                j += 1;
                (0.0, *wb)
            }
            (None, None) => break,
        };
        min_sum += wa.min(wb);
        max_sum += wa.max(wb);
    }
    if max_sum == 0.0 {
        1.0
    } else {
        min_sum / max_sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FormalContext;
    use crate::lattice::ConceptLattice;

    fn pair(ctx: &FormalContext, a: usize, b: usize) -> f64 {
        weighted_jaccard(ctx.row(a), ctx.row(b))
    }

    fn al(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|(k, w)| (k.to_string(), *w)).collect()
    }

    #[test]
    fn unweighted_equals_set_jaccard() {
        let mut ctx = FormalContext::new();
        ctx.add_object_unweighted("a", ["x", "y", "z"]);
        ctx.add_object_unweighted("b", ["y", "z", "w"]);
        // |∩| = 2 (y,z), |∪| = 4.
        assert!((pair(&ctx, 0, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weighted_jaccard_uses_min_over_max() {
        let mut ctx = FormalContext::new();
        ctx.add_object("a", [("x", 4.0), ("y", 1.0)]);
        ctx.add_object("b", [("x", 2.0), ("y", 1.0)]);
        // Σmin = 2+1 = 3, Σmax = 4+1 = 5.
        assert!((pair(&ctx, 0, 1) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn name_sorted_rows_identical_empty_disjoint_and_symmetric() {
        // Identical sets → 1, empty pair → 1, disjoint → 0.
        let a = al(&[("a", 2.0), ("b", 1.0)]);
        assert_eq!(weighted_jaccard(&a, &a), 1.0);
        assert_eq!(weighted_jaccard::<String>(&[], &[]), 1.0);
        assert_eq!(weighted_jaccard(&a, &al(&[("c", 3.0)])), 0.0);
        // min/max over the union: (min(2,1)) / (max(2,1)+1) = 1/3.
        let b = al(&[("a", 1.0)]);
        assert!((weighted_jaccard(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
        // Symmetric to the bit.
        assert_eq!(
            weighted_jaccard(&a, &b).to_bits(),
            weighted_jaccard(&b, &a).to_bits()
        );
    }

    #[test]
    fn empty_objects_are_maximally_similar() {
        let mut ctx = FormalContext::new();
        ctx.add_object_unweighted("a", []);
        ctx.add_object_unweighted("b", []);
        assert_eq!(pair(&ctx, 0, 1), 1.0);
    }

    #[test]
    fn lattice_side_and_context_side_agree_on_unweighted() {
        let mut ctx = FormalContext::new();
        ctx.add_object_unweighted("a", ["p", "q", "r"]);
        ctx.add_object_unweighted("b", ["q", "r", "s"]);
        ctx.add_object_unweighted("c", ["p"]);
        let l = ConceptLattice::from_context(&ctx);
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (l.object_jaccard(i, j) - pair(&ctx, i, j)).abs() < 1e-12,
                    "mismatch at ({i},{j})"
                );
            }
        }
    }
}
