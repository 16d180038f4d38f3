//! The one NLR fold form: a trace summarized into its own table, and
//! replayed into the shared one.
//!
//! Loop IDs leak into user-visible output (attribute names like `L0`,
//! rendered summaries like `L0 ^ 4`), and a shared table numbers bodies
//! in first-intern order across *all* traces. Every trace is therefore
//! folded in isolation ([`crate::NlrBuilder::fold`]) — in any order, on
//! any thread, or read back from a cache — and the folds are then
//! replayed into the shared table one after another, in the analysis's
//! fixed trace order ([`Fold::replay`]).
//!
//! That replay is exact because the builder's folding decisions depend
//! only on the input and the bodies it interned itself, never on the
//! table's other content: a trace-local table holds the same bodies in
//! the same first-intern order as a build into the shared table would
//! have interned them, so re-interning them in that order (duplicates
//! keep their existing IDs) reproduces the shared table's numbering
//! exactly.

use crate::element::{Element, LoopId, Nlr};
use crate::table::LoopTable;

/// One trace's NLR fold in table-independent form. Loop references
/// inside a fold are **local**: `LoopId(i)` is `bodies[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fold {
    /// Every distinct body the trace's build interned, in first-intern
    /// order; a body references only strictly earlier bodies (inner
    /// loops fold first).
    pub bodies: Vec<Vec<Element>>,
    /// The top-level summarized sequence.
    pub elements: Vec<Element>,
    /// Length of the original (filtered) symbol stream.
    pub input_len: usize,
}

impl Fold {
    /// Structural validity: every loop reference points at a strictly
    /// earlier body (for bodies) or any body (for elements). Decoders
    /// of untrusted folds check this so [`Fold::replay`] can never
    /// index out of bounds.
    pub fn is_well_formed(&self) -> bool {
        let ok = |es: &[Element], limit: usize| {
            es.iter()
                .all(|e| e.loop_id().is_none_or(|l| (l.0 as usize) < limit))
        };
        self.bodies.iter().enumerate().all(|(i, b)| ok(b, i))
            && ok(&self.elements, self.bodies.len())
    }

    /// Replay this fold into `table`: intern the bodies in order and
    /// return the summary, relabelled to the table's numbering.
    /// Interning a present body keeps its ID, so replaying folds in
    /// trace order numbers loops exactly as building the traces into
    /// `table` in that order would.
    ///
    /// # Panics
    ///
    /// Panics on a malformed fold (see [`Fold::is_well_formed`]).
    pub fn replay(self, table: &mut LoopTable) -> Nlr {
        let mut ids: Vec<LoopId> = Vec::with_capacity(self.bodies.len());
        for mut body in self.bodies {
            relabel(&mut body, &ids);
            ids.push(table.intern(body));
        }
        // The summary can be as long as the input: relabel it in place
        // rather than copy it.
        let mut elements = self.elements;
        relabel(&mut elements, &ids);
        Nlr::from_parts(elements, self.input_len)
    }
}

/// Map every local loop reference in `es` through `ids`.
fn relabel(es: &mut [Element], ids: &[LoopId]) {
    for e in es {
        if let Element::Loop { body, .. } = e {
            *body = ids[body.0 as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_fold_is_detected() {
        let forward = Fold {
            bodies: vec![vec![Element::Loop {
                body: LoopId(0),
                count: 2,
            }]],
            elements: vec![],
            input_len: 0,
        };
        assert!(!forward.is_well_formed(), "self/forward reference");
        let oob = Fold {
            bodies: vec![],
            elements: vec![Element::Loop {
                body: LoopId(5),
                count: 2,
            }],
            input_len: 10,
        };
        assert!(!oob.is_well_formed(), "element past bodies");
    }
}
