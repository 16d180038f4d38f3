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
//! are equal, for `b ≤ K`. `K` bounds the loop-body length and gives
//! the `Θ(K²·N)` complexity quoted in the paper. As in the paper's
//! adaptation, the process restarts on the summarized sequence to find
//! deeper nests ("depth-2 loops and so on") until a fixpoint.
//!
//! Loop IDs are assigned from a [`LoopTable`] that is *shared across
//! traces of the same execution*, so `L0` means the same loop body in
//! every trace — the heuristic the paper uses to diff loops across
//! threads.
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
pub mod shared;
pub mod table;

pub use builder::NlrBuilder;
pub use element::{Element, LoopId, Nlr};
pub use shared::SharedLoopTable;
pub use table::{LoopInterner, LoopTable, RecordingInterner};
