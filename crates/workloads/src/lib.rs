//! `workloads` — the instrumented MPI/OpenMP programs of the paper's
//! evaluation, with fault injection.
//!
//! Three workloads, each a faithful structural model of the paper's:
//!
//! * [`oddeven`] — the §II walk-through: textbook MPI odd/even
//!   transposition sort (Figure 2) with the *swapBug* (reordered
//!   Send/Recv) and *dlBug* (real deadlock) faults planted in rank 5
//!   after the seventh iteration.
//! * [`ilcs`] — the §IV case study: the ILCS iterative-local-search
//!   framework (Burtscher & Rabeti) running a real 2-opt TSP solver
//!   ([`tsp`]) under a master/worker MPI+OpenMP structure matching
//!   Listing 1, with the three §IV faults: an unprotected critical
//!   section, a wrong-size collective (deadlock), and a wrong
//!   collective operation (silent semantic change).
//! * [`lulesh`] — the §V example: a structural proxy of the LULESH2
//!   shock-hydro miniapp — the real phase call tree (LagrangeLeapFrog →
//!   nodal/element subphases), parametric per-region kernel families
//!   (~400 distinct traced functions), MPI halo exchange, OpenMP worker
//!   teams — with the §V fault (rank 2 skips `LagrangeLeapFrog`).
//!
//! Plus [`stencil`] (a 1-D heat solver exercising the collective
//! family), the shared-memory [`omp`] pair for `racecheck` (an
//! unprotected-counter bug and a lock-order inversion), and the
//! nonblocking [`reqlife`] ring exchange for `reqcheck` (a leaked
//! `MPI_Isend` request and a divergent collective reduce-op).
//!
//! Each workload exposes `run_*(config, registry) → RunOutcome`; run
//! the same config twice (one with `fault: None`) against a **shared
//! registry** to produce an aligned normal/faulty trace pair for
//! DiffTrace.

pub mod demo;
pub mod fleet;
pub mod ilcs;
pub mod lulesh;
pub mod oddeven;
pub mod omp;
pub mod reqlife;
pub mod stencil;
pub mod tsp;

pub use demo::{demo_fleet, demo_pair, DEMO_FLEETS, DEMO_PAIRS, FLEET_HEALTHY};
pub use fleet::{oddeven_fleet, oddeven_fleet_sized, stencil_fleet};
pub use ilcs::{run_ilcs, IlcsConfig, IlcsFault};
pub use lulesh::{run_lulesh, LuleshConfig, LuleshFault};
pub use mpisim::RunOutcome;
pub use oddeven::{run_oddeven, OddEvenConfig, OddEvenFault};
pub use omp::{
    run_omp_counter, run_omp_lockorder, OmpCounterConfig, OmpCounterFault, OmpLockOrderConfig,
    OmpLockOrderFault,
};
pub use reqlife::{run_reqlife, ReqLifeConfig, ReqLifeFault};
pub use stencil::{run_stencil, StencilConfig, StencilFault};
