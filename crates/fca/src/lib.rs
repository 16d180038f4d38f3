//! `fca` — Formal Concept Analysis for trace clustering.
//!
//! Implements §II-E / §III-B of the DiffTrace paper. A *formal context*
//! `K = (G, M, I)` has objects `G` (traces), attributes `M` (mined
//! trace features — function calls, loop IDs, pairs of consecutive
//! entries), and an incidence relation `I ⊆ G × M`. The *concept
//! lattice* `B(K)` is the set of all `(extent, intent)` pairs closed
//! under the Galois connection; DiffTrace derives the pairwise Jaccard
//! Similarity Matrix (JSM) of traces from it.
//!
//! Because HPC executions produce one object per thread and contexts
//! arrive trace-by-trace, the paper rejects Ganter's batch *Next
//! Closure* in favour of **Godin's incremental algorithm**: objects are
//! injected one at a time into an initially empty lattice, each
//! insertion minimally updating the concept set (`O(2^{2K}·|G|)` with
//! `K` bounding attributes per object). [`ConceptLattice::add_object`]
//! implements that incremental step.
//!
//! Attributes can carry *weights* (the paper's `{attr:freq}` with
//! `actual`, `log10`, or `noFreq` frequency modes — Table V). Each
//! object keeps one attribute row, `(AttrId, weight)` sorted by id
//! ([`FormalContext::row`]). Weighted Jaccard similarity is
//! `Σᵢ min(wᵢ) / Σᵢ max(wᵢ)`, which degenerates to set Jaccard under
//! `noFreq`; [`weighted_jaccard`] computes it by merging two sorted
//! rows, and is the one Jaccard kernel of the workspace.
//!
//! # Example (the paper's Table IV / Figure 3)
//!
//! ```
//! use fca::{FormalContext, ConceptLattice};
//!
//! let mut ctx = FormalContext::new();
//! for (label, attrs) in [
//!     ("T0", vec!["MPI_Init", "MPI_Comm_Size", "MPI_Comm_Rank", "L0", "MPI_Finalize"]),
//!     ("T1", vec!["MPI_Init", "MPI_Comm_Size", "MPI_Comm_Rank", "L1", "MPI_Finalize"]),
//!     ("T2", vec!["MPI_Init", "MPI_Comm_Size", "MPI_Comm_Rank", "L0", "MPI_Finalize"]),
//!     ("T3", vec!["MPI_Init", "MPI_Comm_Size", "MPI_Comm_Rank", "L1", "MPI_Finalize"]),
//! ] {
//!     ctx.add_object_unweighted(label, attrs);
//! }
//! let lattice = ConceptLattice::from_context(&ctx);
//! // top: all traces share the four MPI calls; middle: {T0,T2} vs {T1,T3}.
//! assert_eq!(lattice.top().extent_len(), 4);
//! let sim = |a, b| fca::weighted_jaccard(ctx.row(a), ctx.row(b));
//! assert!(sim(0, 2) > sim(0, 1)); // T0 is more similar to T2 than to T1
//! ```

pub mod bitset;
pub mod context;
pub mod jaccard;
pub mod lattice;

pub use bitset::BitSet;
pub use context::{AttrId, FormalContext};
pub use jaccard::weighted_jaccard;
pub use lattice::{Concept, ConceptLattice};
