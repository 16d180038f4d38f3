//! Property tests for [`difftrace::JsmMatrix`] invariants — the
//! algebra the suspect ranking relies on — plus thread-count
//! equivalence of the parallel matrix kernels on random inputs.

use difftrace::JsmMatrix;
use dt_trace::TraceId;
use fca::FormalContext;
use proptest::prelude::*;

/// A random weighted formal context: `n` objects over a small
/// attribute alphabet with positive weights.
fn context_strategy() -> impl Strategy<Value = FormalContext> {
    proptest::collection::vec(proptest::collection::vec((0u8..8, 1u32..1000), 0..8), 1..10)
        .prop_map(|objects| {
            let mut ctx = FormalContext::new();
            for (i, attrs) in objects.iter().enumerate() {
                let mut named: Vec<(String, f64)> = attrs
                    .iter()
                    .map(|&(a, w)| (format!("a{a}"), f64::from(w) / 16.0))
                    .collect();
                // Duplicate attribute names within one object are
                // last-write-wins in the context; dedup for determinism.
                named.sort_by(|x, y| x.0.cmp(&y.0));
                named.dedup_by(|x, y| x.0 == y.0);
                ctx.add_object(
                    &format!("{i}.0"),
                    named.iter().map(|(k, w)| (k.as_str(), *w)),
                );
            }
            ctx
        })
}

/// A random context whose objects repeat: a few distinct weighted rows
/// (the empty one among them), each inserted any number of times in a
/// random interleaving.
fn repeating_context_strategy() -> impl Strategy<Value = FormalContext> {
    (
        proptest::collection::vec(proptest::collection::vec((0u8..8, 1u32..1000), 0..6), 1..5),
        proptest::collection::vec(0usize..16, 1..14),
    )
        .prop_map(|(distinct, picks)| {
            let mut ctx = FormalContext::new();
            for (i, p) in picks.iter().enumerate() {
                let mut named: Vec<(String, f64)> = distinct[p % distinct.len()]
                    .iter()
                    .map(|&(a, w)| (format!("a{a}"), f64::from(w) / 16.0))
                    .collect();
                named.sort_by(|x, y| x.0.cmp(&y.0));
                named.dedup_by(|x, y| x.0 == y.0);
                ctx.add_object(
                    &format!("{i}.0"),
                    named.iter().map(|(k, w)| (k.as_str(), *w)),
                );
            }
            ctx
        })
}

fn ids(n: usize) -> Vec<TraceId> {
    (0..n as u32).map(TraceId::master).collect()
}

/// A random symmetric matrix with unit diagonal, as a JsmMatrix.
fn matrix_strategy() -> impl Strategy<Value = JsmMatrix> {
    proptest::collection::vec(proptest::collection::vec(0u32..1000, 1..10), 1..10).prop_map(
        |rows| {
            let n = rows.len();
            let mut m = vec![vec![0.0; n]; n];
            for i in 0..n {
                m[i][i] = 1.0;
                for j in i + 1..n {
                    let v = f64::from(rows[i][j % rows[i].len()]) / 1000.0;
                    m[i][j] = v;
                    m[j][i] = v;
                }
            }
            JsmMatrix { ids: ids(n), m }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// JSMs from any context are symmetric (bitwise), have a unit
    /// diagonal, and stay within [0, 1].
    #[test]
    fn jsm_is_symmetric_unit_diagonal_bounded(ctx in context_strategy()) {
        let n = ctx.num_objects();
        let j = JsmMatrix::from_context(&ctx, ids(n));
        for i in 0..n {
            prop_assert_eq!(j.m[i][i].to_bits(), 1.0f64.to_bits());
            for k in 0..n {
                prop_assert_eq!(j.m[i][k].to_bits(), j.m[k][i].to_bits(), "({},{})", i, k);
                prop_assert!((0.0..=1.0).contains(&j.m[i][k]));
            }
        }
    }

    /// The JSM fill is bitwise identical at every thread count.
    #[test]
    fn jsm_thread_count_is_unobservable(ctx in context_strategy(), threads in 2usize..9) {
        let n = ctx.num_objects();
        let seq = JsmMatrix::from_context(&ctx, ids(n));
        let par = JsmMatrix::from_context_opts(&ctx, ids(n), threads);
        for i in 0..n {
            for k in 0..n {
                prop_assert_eq!(seq.m[i][k].to_bits(), par.m[i][k].to_bits());
            }
        }
    }

    /// Repeated rows are paired once per class and expanded by index:
    /// every cell is still the kernel over its two rows in index order,
    /// same-class cells included, at every thread count.
    #[test]
    fn repeated_rows_fill_like_a_pairwise_fill(
        ctx in repeating_context_strategy(),
        threads in 1usize..5,
    ) {
        let n = ctx.num_objects();
        let j = JsmMatrix::from_context_opts(&ctx, ids(n), threads);
        for i in 0..n {
            prop_assert_eq!(j.m[i][i].to_bits(), 1.0f64.to_bits());
            for k in i + 1..n {
                let want = fca::weighted_jaccard(ctx.row(i), ctx.row(k)).to_bits();
                prop_assert_eq!(j.m[i][k].to_bits(), want, "({},{})", i, k);
                prop_assert_eq!(j.m[k][i].to_bits(), want, "({},{})", k, i);
            }
        }
    }

    /// JSM_D cells are non-negative, symmetric for symmetric inputs,
    /// zero on the self-diff — and identical for every thread count.
    #[test]
    fn diff_is_nonnegative_symmetric_and_zero_on_self(
        a in matrix_strategy(),
        b in matrix_strategy(),
        threads in 2usize..9,
    ) {
        // Align the smaller onto the larger's leading block.
        let n = a.len().min(b.len());
        let shrink = |m: &JsmMatrix| JsmMatrix {
            ids: ids(n),
            m: m.m[..n].iter().map(|r| r[..n].to_vec()).collect(),
        };
        let (a, b) = (shrink(&a), shrink(&b));
        let d = a.diff(&b).unwrap();
        for i in 0..n {
            prop_assert_eq!(d.m[i][i].to_bits(), 0.0f64.to_bits());
            for k in 0..n {
                prop_assert!(d.m[i][k] >= 0.0);
                prop_assert_eq!(d.m[i][k].to_bits(), d.m[k][i].to_bits());
            }
        }
        let par = a.diff_opts(&b, threads).unwrap();
        for i in 0..n {
            for k in 0..n {
                prop_assert_eq!(d.m[i][k].to_bits(), par.m[i][k].to_bits());
            }
        }
        let z = a.diff(&a).unwrap();
        for row in &z.m {
            for v in row {
                prop_assert_eq!(v.to_bits(), 0.0f64.to_bits());
            }
        }
    }

    /// Row scores are permutation-equivariant: permuting the matrix
    /// rows (labels included) permutes the scores the same way, with
    /// bit-identical sums — and the parallel kernel agrees.
    #[test]
    fn row_scores_are_permutation_equivariant(
        m in matrix_strategy(),
        seed in 0usize..64,
        threads in 2usize..9,
    ) {
        let n = m.len();
        // A deterministic permutation derived from the seed.
        let mut perm: Vec<usize> = (0..n).collect();
        for i in 0..n {
            perm.swap(i, (i + seed) % n);
        }
        let permuted = JsmMatrix {
            ids: perm.iter().map(|&i| m.ids[i]).collect(),
            m: perm.iter().map(|&i| m.m[i].clone()).collect(),
        };
        let base = m.row_scores();
        let shuffled = permuted.row_scores();
        for (k, &i) in perm.iter().enumerate() {
            prop_assert_eq!(shuffled[k].0, base[i].0);
            prop_assert_eq!(shuffled[k].1.to_bits(), base[i].1.to_bits());
        }
        let par = m.row_scores_opts(threads);
        for (s, p) in base.iter().zip(&par) {
            prop_assert_eq!(s.0, p.0);
            prop_assert_eq!(s.1.to_bits(), p.1.to_bits());
        }
    }
}
