//! Jaccard Similarity Matrices and their diffs.
//!
//! `JSM[i][j]` is the (weighted) Jaccard similarity of traces `i` and
//! `j`; `JSM_D = |JSM_faulty − JSM_normal|` quantifies how much the
//! fault changed each pairwise relation — the paper's "sky subtraction"
//! (§II, footnote): asymmetries exist even in healthy runs (master vs
//! worker), so it is the *change* of the similarity structure that
//! matters, not the similarity itself.

use dt_trace::TraceId;
use fca::FormalContext;
use std::fmt;

/// Two matrices cover different trace sets, so their cells cannot be
/// subtracted. Carries the offending ids so the caller can print a
/// diagnosis instead of aborting — ragged corpora are an input error,
/// not a programming error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Misaligned {
    /// Traces in the left matrix that the right one lacks.
    pub missing: Vec<TraceId>,
    /// Traces in the right matrix that the left one lacks.
    pub extra: Vec<TraceId>,
}

impl fmt::Display for Misaligned {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let list = |ids: &[TraceId]| {
            ids.iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        if self.missing.is_empty() && self.extra.is_empty() {
            return write!(f, "JSMs cover the same traces in different orders");
        }
        write!(f, "JSMs cover different trace sets:")?;
        if !self.missing.is_empty() {
            write!(f, " missing [{}]", list(&self.missing))?;
        }
        if !self.extra.is_empty() {
            write!(f, " extra [{}]", list(&self.extra))?;
        }
        Ok(())
    }
}

impl std::error::Error for Misaligned {}

/// A labelled pairwise similarity (or similarity-difference) matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct JsmMatrix {
    /// Trace labels, in matrix order.
    pub ids: Vec<TraceId>,
    /// Symmetric matrix, `m[i][j] ∈ [0, 1]`.
    pub m: Vec<Vec<f64>>,
}

impl JsmMatrix {
    /// Compute from a formal context whose objects are the traces in
    /// `ids` order.
    pub fn from_context(ctx: &FormalContext, ids: Vec<TraceId>) -> JsmMatrix {
        JsmMatrix::from_context_opts(ctx, ids, 1)
    }

    /// Like [`JsmMatrix::from_context`], computing the cells on up to
    /// `threads` threads (0 = available parallelism, ≤1 = inline).
    ///
    /// Objects with bit-equal rows form one class
    /// ([`dt_trace::Classes`]), and only the distinct rows are paired:
    /// each ordered pair of classes `(a, b)` is one
    /// [`fca::weighted_jaccard`] call over their first objects' rows
    /// (`(a, a)` too, for two members of one class). Cell `(i, j)`,
    /// `i < j`, is then the pair of their classes, read by index, and
    /// is mirrored to `(j, i)`; only the diagonal is 1.0 by definition.
    /// Every cell is thus the kernel over its two rows in index order,
    /// as a pair-by-pair fill computes it, at any thread count.
    pub fn from_context_opts(ctx: &FormalContext, ids: Vec<TraceId>, threads: usize) -> JsmMatrix {
        assert_eq!(ctx.num_objects(), ids.len());
        let n = ids.len();
        let bits: Vec<Vec<(fca::AttrId, u64)>> = (0..n)
            .map(|i| ctx.row(i).iter().map(|&(a, w)| (a, w.to_bits())).collect())
            .collect();
        let classes = dt_trace::Classes::new(&bits, |r| r.as_slice());
        let pairs = crate::sync::par_map(&classes.reps, threads, |_, &i| {
            classes
                .reps
                .iter()
                .map(|&j| fca::weighted_jaccard(ctx.row(i), ctx.row(j)))
                .collect::<Vec<f64>>()
        });
        let of = &classes.of;
        let m = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| match i.cmp(&j) {
                        std::cmp::Ordering::Less => pairs[of[i]][of[j]],
                        std::cmp::Ordering::Equal => 1.0,
                        std::cmp::Ordering::Greater => pairs[of[j]][of[i]],
                    })
                    .collect()
            })
            .collect();
        JsmMatrix { ids, m }
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// `JSM_D = |self − other|`, elementwise. Returns [`Misaligned`]
    /// (naming the offending trace ids) when the two matrices cover
    /// different trace sets — analyses of a pair must be aligned first
    /// (see `pipeline`), but ragged inputs reached from the CLI must be
    /// diagnosed, never abort the process.
    pub fn diff(&self, other: &JsmMatrix) -> Result<JsmMatrix, Misaligned> {
        self.diff_opts(other, 1)
    }

    /// [`JsmMatrix::diff`] computed row-by-row on up to `threads`
    /// threads. `|a − b|` is computed per cell, so the split cannot
    /// change any float.
    pub fn diff_opts(&self, other: &JsmMatrix, threads: usize) -> Result<JsmMatrix, Misaligned> {
        if self.ids != other.ids {
            let missing = self
                .ids
                .iter()
                .filter(|t| !other.ids.contains(t))
                .copied()
                .collect();
            let extra = other
                .ids
                .iter()
                .filter(|t| !self.ids.contains(t))
                .copied()
                .collect();
            return Err(Misaligned { missing, extra });
        }
        let rows: Vec<usize> = (0..self.len()).collect();
        let m = crate::sync::par_map(&rows, threads, |_, &i| {
            self.m[i]
                .iter()
                .zip(&other.m[i])
                .map(|(a, b)| (a - b).abs())
                .collect::<Vec<f64>>()
        });
        Ok(JsmMatrix {
            ids: self.ids.clone(),
            m,
        })
    }

    /// Per-trace change score: the row sum (how much this trace's
    /// relations to everyone else changed). Used to rank suspects.
    pub fn row_scores(&self) -> Vec<(TraceId, f64)> {
        self.row_scores_opts(1)
    }

    /// [`JsmMatrix::row_scores`] with the row sums computed on up to
    /// `threads` threads. Each row is summed left-to-right by one
    /// thread, so the result is bitwise identical to the sequential
    /// path.
    pub fn row_scores_opts(&self, threads: usize) -> Vec<(TraceId, f64)> {
        crate::sync::par_map(&self.ids, threads, |i, &id| {
            (id, self.m[i].iter().sum::<f64>())
        })
    }

    /// Render as CSV (header row + one line per trace).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("trace");
        for id in &self.ids {
            out.push_str(&format!(",{id}"));
        }
        out.push('\n');
        for (i, id) in self.ids.iter().enumerate() {
            out.push_str(&id.to_string());
            for v in &self.m[i] {
                out.push_str(&format!(",{v:.4}"));
            }
            out.push('\n');
        }
        out
    }

    /// ASCII heatmap (Figure 4): darker glyph = higher value.
    pub fn render_heatmap(&self) -> String {
        const SHADES: &[u8] = b" .:-=+*#%@";
        let mut out = String::new();
        out.push_str("      ");
        for id in &self.ids {
            out.push_str(&format!("{:>5}", id.to_string()));
        }
        out.push('\n');
        for (i, id) in self.ids.iter().enumerate() {
            out.push_str(&format!("{:>5} ", id.to_string()));
            for &v in &self.m[i] {
                let idx = ((v.clamp(0.0, 1.0)) * (SHADES.len() - 1) as f64).round() as usize;
                let c = SHADES[idx] as char;
                out.push_str(&format!("  {c}{c} "));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for JsmMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render_heatmap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(ids: Vec<TraceId>, m: Vec<Vec<f64>>) -> JsmMatrix {
        JsmMatrix { ids, m }
    }

    fn ids(n: u32) -> Vec<TraceId> {
        (0..n).map(TraceId::master).collect()
    }

    #[test]
    fn from_context_matches_fca() {
        let mut ctx = FormalContext::new();
        ctx.add_object_unweighted("0.0", ["a", "b"]);
        ctx.add_object_unweighted("1.0", ["b", "c"]);
        let j = JsmMatrix::from_context(&ctx, ids(2));
        assert!((j.m[0][1] - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(j.m[0][0], 1.0);
    }

    #[test]
    fn diff_is_elementwise_abs() {
        let a = mk(ids(2), vec![vec![1.0, 0.8], vec![0.8, 1.0]]);
        let b = mk(ids(2), vec![vec![1.0, 0.3], vec![0.3, 1.0]]);
        let d = a.diff(&b).unwrap();
        assert!((d.m[0][1] - 0.5).abs() < 1e-12);
        assert_eq!(d.m[0][0], 0.0);
    }

    #[test]
    fn diff_diagnoses_misalignment_instead_of_panicking() {
        let a = mk(ids(2), vec![vec![1.0, 0.0], vec![0.0, 1.0]]);
        let b = mk(
            vec![TraceId::master(0), TraceId::master(5)],
            vec![vec![1.0, 0.0], vec![0.0, 1.0]],
        );
        let err = a.diff(&b).unwrap_err();
        assert_eq!(err.missing, vec![TraceId::master(1)]);
        assert_eq!(err.extra, vec![TraceId::master(5)]);
        let msg = err.to_string();
        assert!(msg.contains("different trace sets"), "{msg}");
        assert!(msg.contains("missing [1.0]"), "{msg}");
        assert!(msg.contains("extra [5.0]"), "{msg}");
        // Same sets, different order: still diagnosed, differently.
        let c = mk(
            vec![TraceId::master(1), TraceId::master(0)],
            vec![vec![1.0, 0.0], vec![0.0, 1.0]],
        );
        let err = a.diff(&c).unwrap_err();
        assert!(err.missing.is_empty() && err.extra.is_empty());
        assert!(err.to_string().contains("different orders"), "{err}");
    }

    #[test]
    fn row_scores_rank_changed_traces() {
        let d = mk(
            ids(3),
            vec![
                vec![0.0, 0.1, 0.0],
                vec![0.1, 0.0, 0.9],
                vec![0.0, 0.9, 0.0],
            ],
        );
        let scores = d.row_scores();
        let max = scores.iter().max_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
        assert_eq!(max.0, TraceId::master(1));
    }

    #[test]
    fn renders() {
        let j = mk(ids(2), vec![vec![1.0, 0.5], vec![0.5, 1.0]]);
        let csv = j.to_csv();
        assert!(csv.starts_with("trace,0.0,1.0"));
        assert!(csv.contains("0.5000"));
        let hm = j.render_heatmap();
        assert!(hm.contains('@'), "diagonal should be darkest: {hm}");
    }
}
