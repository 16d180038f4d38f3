//! `difftrace` — whole-program trace analysis and diffing for debugging.
//!
//! The core pipeline of the DiffTrace paper (CLUSTER 2019), assembled
//! from the workspace's substrate crates:
//!
//! ```text
//!        ParLOT traces (dt-trace)          ParLOT traces (faulty)
//!                │                                 │
//!        [filter]  Table I front-end filters (rex)
//!                │                                 │
//!        [nlr_stage]  nested-loop summarization (nlr)
//!                │                                 │
//!        [attributes]  Table V attribute mining
//!                │                                 │
//!        [fca]  incremental concept lattices → [jsm]  JSM_normal / JSM_faulty
//!                                │
//!                     JSM_D = |JSM_faulty − JSM_normal|
//!                                │
//!        [pipeline] hierarchical clustering (cluster) + B-score
//!                                │
//!        [ranking]  suspicious-trace tables   [diffnlr]  diffNLR views
//! ```
//!
//! Entry points — one function per analysis, each taking its execution
//! options ([`PipelineOptions`]: threads, checker gates, cache) and a
//! [`dt_obs::Recorder`] where it has any:
//!
//! * [`Params`] bundles one parameter combination (filter, attributes,
//!   linkage, NLR K) — the "dashed box" of the paper's Figure 1.
//! * [`analyze`] runs filter → NLR → FCA → JSM for one execution.
//! * [`try_diff_runs`] analyzes a (normal, faulty) pair behind the
//!   checker pre-passes, computes `JSM_D`, the B-score, and the
//!   suspicious-trace ranking; [`diff_runs`] and [`diff_runs_opts`] are
//!   its shorthands for ungated runs.
//! * [`sweep`] iterates a parameter grid producing the paper's ranking
//!   tables (Tables VI–IX).
//! * [`analyze_single_opts_rec`] is the no-reference mode of §II-A.
//! * [`DiffNlr`] renders the diffNLR visualization (Figures 5–7).
//!
//! # Example
//!
//! ```
//! use difftrace::{diff_runs, AttrConfig, AttrKind, FilterConfig, FreqMode, Params};
//! use dt_trace::{FunctionRegistry, TraceCollector, TraceId};
//! use std::sync::Arc;
//!
//! // Two executions sharing one function registry. Rank 1's loop runs
//! // 2 iterations in the "faulty" run instead of 8.
//! let registry = Arc::new(FunctionRegistry::new());
//! let record = |iters_for_rank1: usize| {
//!     let collector = TraceCollector::shared(registry.clone());
//!     for p in 0..4u32 {
//!         let tr = collector.tracer(TraceId::master(p));
//!         tr.leaf("MPI_Init");
//!         let n = if p == 1 { iters_for_rank1 } else { 8 };
//!         for _ in 0..n {
//!             tr.leaf("MPI_Send");
//!             tr.leaf("MPI_Recv");
//!         }
//!         tr.leaf("MPI_Finalize");
//!         tr.finish();
//!     }
//!     collector.into_trace_set()
//! };
//! let normal = record(8);
//! let faulty = record(2);
//!
//! let params = Params::new(
//!     FilterConfig::mpi_all(10),
//!     AttrConfig { kind: AttrKind::Single, freq: FreqMode::Actual },
//! );
//! let d = diff_runs(&normal, &faulty, &params);
//! assert_eq!(d.suspicious_processes.first(), Some(&1));
//! let view = d.diff_nlr(TraceId::master(1)).unwrap();
//! assert!(view.normal_only()[0].contains("^ 8"));
//! assert!(view.faulty_only()[0].contains("^ 2"));
//! ```

pub mod attributes;
pub mod check;
pub mod classify;
pub mod diffnlr;
pub mod filter;
pub mod fleet;
pub mod hbcheck;
pub mod jsm;
pub mod lint;
pub mod nlr_stage;
pub mod pipeline;
pub mod racecheck;
pub mod ranking;
pub mod recording;
pub mod report;
pub mod reqcheck;
pub mod single_run;
pub mod sync;

pub use attributes::{AttrConfig, AttrKind, FreqMode};
pub use check::{
    checker, AnyChecker, CheckInput, CheckOptions, Checker, DiffDenied, LintDomain, LintGate,
    PrePass, CHECKERS,
};
pub use classify::{extract_features, leave_one_out, FeatureVector, NearestCentroid, Sample};
pub use diffnlr::DiffNlr;
pub use filter::{ClassProbe, FilterConfig, FilteredSet, FilteredTrace, KeepClass};
pub use fleet::{FleetError, FleetOptions, FleetReport, FleetRun, RunScore};
pub use hbcheck::{hbcheck_set, HbCheck};
pub use jsm::{JsmMatrix, Misaligned};
pub use lint::{lint_set, Lint, LintOptions};
pub use nlr_stage::NlrSet;
pub use racecheck::{racecheck_set, RaceCheck};
pub use reqcheck::{reqcheck_set, ReqCheck};

/// The options of [`hbcheck_set`]: an alias of [`CheckOptions`], as
/// are [`RaceOptions`] and [`ReqOptions`].
pub type HbOptions = CheckOptions;
/// See [`HbOptions`].
pub type RaceOptions = CheckOptions;
/// See [`HbOptions`].
pub type ReqOptions = CheckOptions;

pub use pipeline::{
    analyze, content_fingerprints, diff_runs, diff_runs_opts, try_diff_runs, AnalysisRun, DiffRun,
    Params, PipelineOptions,
};
pub use ranking::{render_ranking, sweep, RankingRow};
pub use recording::record_masters;
pub use report::{generate as generate_report, ReportOptions};
pub use single_run::{analyze_single_opts_rec, SingleRunReport};
