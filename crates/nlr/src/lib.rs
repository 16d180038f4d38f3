//! `nlr` — Nested Loop Recognition for function-call traces.
//!
//! Implements §III-A of the DiffTrace paper: an adaptation of the NLR
//! algorithm of Ketterlin & Clauss (CGO'08) — with the bottom-up
//! loop-nest construction of Kobayashi & MacDougall — to whole-program
//! call traces. Repetitive patterns are folded into *loops*: each
//! distinct loop **body** gets a unique ID in a global [`LoopTable`],
//! and a trace like
//!
//! ```text
//! MPI_Init · (MPI_Send · MPI_Recv)⁴ · MPI_Finalize
//! ```
//!
//! summarizes to `MPI_Init, L0 ^ 4, MPI_Finalize` (cf. Table III of the
//! paper). The summarization is **lossless**: [`Nlr::expand`] reproduces
//! the input exactly, a property the test-suite checks by construction
//! and by `proptest`.
//!
//! The algorithm is the stack machine of the paper's *Procedure 1*:
//! every pushed element triggers [`reduce`](builder::NlrBuilder), which
//! (a) extends a loop below the stack top when the top `b` elements
//! repeat its body, (b) merges adjacent equal-bodied loops, and (c)
//! folds the top `2·b` elements into a fresh loop when the two halves
//! are equal, for `b ≤ K`. `K` bounds the loop-body length; the paper
//! quotes `Θ(K²·N)` for trying every `b`, and the builder visits only
//! the stack slots that can match, in the same order. The paper's
//! adaptation restarts on the summarized sequence to find deeper nests
//! ("depth-2 loops and so on"); one scan already folds loops of loops,
//! and a restart on its output never folds anything (see
//! [`builder`]), so the builder scans once.
//!
//! Loop IDs are assigned from a [`LoopTable`] that is *shared across
//! traces of the same execution*, so `L0` means the same loop body in
//! every trace — the heuristic the paper uses to diff loops across
//! threads. There is one way to fill it: each trace folds into its own
//! table ([`NlrBuilder::fold`], any order, any thread, or a cached
//! [`Fold`]) and the folds are replayed into the shared table in trace
//! order ([`Fold::replay`]), which numbers loops exactly as building
//! trace after trace into it would (see [`fold`]).
//!
//! Checkers read the compressed form directly through [`summary`]: a
//! [`Summary`] monoid with a closed-form `repeat`, folded over a term
//! by the one memoized walk, [`Summarizer`].
//!
//! # Example
//!
//! ```
//! use nlr::{LoopTable, NlrBuilder};
//!
//! let mut table = LoopTable::new();
//! // symbols: 0 = MPI_Init, 1 = MPI_Send, 2 = MPI_Recv, 3 = MPI_Finalize
//! let trace = [0, 1, 2, 1, 2, 1, 2, 1, 2, 3];
//! let nlr = NlrBuilder::new(10).build(&trace, &mut table);
//! assert_eq!(nlr.elements().len(), 3); // Init, L0^4, Finalize
//! assert_eq!(nlr.expand(&table), trace);
//! ```

pub mod builder;
pub mod element;
pub mod fold;
pub mod summary;
pub mod table;

pub use builder::NlrBuilder;
pub use element::{Element, LoopId, Nlr};
pub use fold::Fold;
pub use summary::{Summarizer, Summary};
pub use table::LoopTable;
