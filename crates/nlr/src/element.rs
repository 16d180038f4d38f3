//! NLR elements and summarized traces.

use crate::table::LoopTable;
use std::fmt;

/// Identifier of a distinct loop body in a [`LoopTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LoopId(pub u32);

impl fmt::Display for LoopId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// One element of a summarized trace: a plain symbol (function-call ID)
/// or a recognized loop `L<id> ^ count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Element {
    /// An unsummarized symbol (e.g. a function call).
    Sym(u32),
    /// `count` repetitions of the loop body `body`.
    Loop {
        /// Which body (see [`LoopTable`]).
        body: LoopId,
        /// Iteration count (≥ 2 when produced by recognition).
        count: u64,
    },
}

impl Element {
    /// True for [`Element::Loop`].
    pub fn is_loop(self) -> bool {
        matches!(self, Element::Loop { .. })
    }

    /// The loop body ID if this is a loop.
    pub fn loop_id(self) -> Option<LoopId> {
        match self {
            Element::Loop { body, .. } => Some(body),
            Element::Sym(_) => None,
        }
    }

    /// Structural equality *ignoring* loop iteration counts: two loops
    /// with the same body are "the same loop", which is how diffNLR
    /// aligns loops whose trip counts differ between executions.
    pub fn same_shape(self, other: Element) -> bool {
        match (self, other) {
            (Element::Sym(a), Element::Sym(b)) => a == b,
            (Element::Loop { body: a, .. }, Element::Loop { body: b, .. }) => a == b,
            _ => false,
        }
    }
}

/// A summarized (NLR) trace: the top-level element sequence. Loop bodies
/// live in the shared [`LoopTable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nlr {
    pub(crate) elements: Vec<Element>,
    /// Length of the original (unsummarized) sequence.
    pub(crate) input_len: usize,
}

impl Nlr {
    /// Assemble a summary from its top-level elements — e.g. a replayed
    /// [`crate::Fold`]. The caller is responsible for every [`LoopId`]
    /// referring to the table the summary will be used with.
    pub fn from_parts(elements: Vec<Element>, input_len: usize) -> Nlr {
        Nlr {
            elements,
            input_len,
        }
    }

    /// The top-level summarized sequence.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Length of the original input sequence.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// The paper's §V "reduction factor": input length over summarized
    /// length (≥ 1; equals 1 when nothing folded).
    pub fn reduction_factor(&self) -> f64 {
        if self.elements.is_empty() {
            return 1.0;
        }
        self.input_len as f64 / self.elements.len() as f64
    }

    /// Undo the summarization — reproduces the input symbol stream
    /// exactly (lossless abstraction).
    pub fn expand(&self, table: &LoopTable) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.input_len);
        for &e in &self.elements {
            expand_into(e, table, &mut out);
        }
        out
    }

    /// Maximum loop-nesting depth of this summary (0 when it contains
    /// no loops).
    pub fn max_depth(&self, table: &LoopTable) -> usize {
        self.elements
            .iter()
            .map(|e| match e {
                Element::Sym(_) => 0,
                Element::Loop { body, .. } => table.depth_of(*body),
            })
            .max()
            .unwrap_or(0)
    }

    /// Number of top-level loop elements.
    pub fn loop_count(&self) -> usize {
        self.elements.iter().filter(|e| e.is_loop()).count()
    }

    /// Fully recursive rendering: loop bodies expanded structurally,
    /// e.g. `(MPI_Send MPI_Recv)^4` or `((a b)^3 c)^4` — a
    /// self-contained alternative to the `L<id>` form for small
    /// summaries.
    pub fn render_nested<F: Fn(u32) -> String>(&self, table: &LoopTable, name: &F) -> String {
        self.elements
            .iter()
            .map(|&e| render_element(e, table, name))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Render with a symbol-name resolver, e.g.
    /// `["MPI_Init", "L0 ^ 4", "MPI_Finalize"]` (cf. Table III).
    pub fn render<F: Fn(u32) -> String>(&self, name: &F) -> Vec<String> {
        self.elements
            .iter()
            .map(|e| match e {
                Element::Sym(s) => name(*s),
                Element::Loop { body, count } => format!("{body} ^ {count}"),
            })
            .collect()
    }
}

fn render_element<F: Fn(u32) -> String>(e: Element, table: &LoopTable, name: &F) -> String {
    match e {
        Element::Sym(s) => name(s),
        Element::Loop { body, count } => {
            let inner: Vec<String> = table
                .body(body)
                .iter()
                .map(|&b| render_element(b, table, name))
                .collect();
            format!("({})^{count}", inner.join(" "))
        }
    }
}

fn expand_into(e: Element, table: &LoopTable, out: &mut Vec<u32>) {
    match e {
        Element::Sym(s) => out.push(s),
        Element::Loop { body, count } => {
            for _ in 0..count {
                for &inner in table.body(body) {
                    expand_into(inner, table, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_shape_ignores_counts() {
        let l1 = Element::Loop {
            body: LoopId(0),
            count: 7,
        };
        let l2 = Element::Loop {
            body: LoopId(0),
            count: 16,
        };
        let l3 = Element::Loop {
            body: LoopId(1),
            count: 7,
        };
        assert!(l1.same_shape(l2));
        assert!(!l1.same_shape(l3));
        assert!(Element::Sym(4).same_shape(Element::Sym(4)));
        assert!(!Element::Sym(4).same_shape(l1));
        assert_ne!(l1, l2); // but exact equality sees counts
    }

    #[test]
    fn display_of_loop_id() {
        assert_eq!(LoopId(3).to_string(), "L3");
    }

    #[test]
    fn nested_expansion() {
        let mut table = LoopTable::new();
        let inner = table.intern(vec![Element::Sym(1), Element::Sym(2)]);
        let outer = table.intern(vec![
            Element::Loop {
                body: inner,
                count: 2,
            },
            Element::Sym(3),
        ]);
        let nlr = Nlr::from_parts(
            vec![
                Element::Sym(0),
                Element::Loop {
                    body: outer,
                    count: 2,
                },
            ],
            11,
        );
        assert_eq!(nlr.expand(&table), vec![0, 1, 2, 1, 2, 3, 1, 2, 1, 2, 3]);
        assert!((nlr.reduction_factor() - 11.0 / 2.0).abs() < 1e-12);
    }
}
