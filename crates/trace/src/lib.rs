//! `dt-trace` — ParLOT-style whole-program function-call tracing.
//!
//! The DiffTrace paper collects its input with **ParLOT** (Taheri et al.,
//! ESPT 2018): a Pin-based binary instrumentation tool that records, per
//! thread, the sequence of *function call and return* events, compressed
//! on the fly (ratios beyond 21,000×, a few KB/s per core).
//!
//! This crate is the reproduction's substitute for ParLOT + Pin. Instead
//! of dynamic binary instrumentation it provides an explicit
//! instrumentation API with the **same observable output**: per-thread
//! streams of function-ID call/return events.
//!
//! * [`FunctionRegistry`] interns function names to dense [`FnId`]s —
//!   the moral equivalent of Pin's image/function tables.
//! * [`Tracer`] is a per-thread recording handle. Scope guards
//!   ([`Tracer::enter`]) pair calls with returns; [`Tracer::poison`]
//!   models a killed/deadlocked thread whose trace is truncated
//!   mid-call, which is exactly the signature DiffTrace exploits to spot
//!   hangs ("the last entry is a call that never returned").
//! * [`TraceCollector`] gathers finished per-thread traces into a
//!   [`TraceSet`]. A [`Trace`] holds its events as the packed `u32`
//!   symbol stream the compressor and every analysis read
//!   ([`TraceEvent::to_symbol`], 4 bytes per event); [`Trace::iter`]
//!   views them as [`TraceEvent`]s. [`canonicalize`] renumbers runs by
//!   sorted function name so that re-recordings store equal bytes.
//! * [`compress`] implements the on-the-fly trace compressor: an
//!   LZ-style coder specialised for extremely repetitive (loopy) symbol
//!   streams; [`store`] is the on-disk format (ParLOT's trace files),
//!   whose readers decompress each blob straight into its trace and
//!   reject a symbol outside the file's registry.
//! * [`codec`] is the bounded reader, varint writer and integrity seal
//!   that every binary format in the workspace decodes and seals with.
//! * [`stats`] reproduces the §V trace statistics (distinct functions,
//!   compressed bytes per thread, calls per process).
//! * [`class`] groups equal items (streams, blobs, rows) into classes,
//!   so every per-trace layer works once per distinct trace.
//!
//! # Example
//!
//! ```
//! use dt_trace::{FunctionRegistry, TraceCollector, TraceId};
//! use std::sync::Arc;
//!
//! let registry = Arc::new(FunctionRegistry::new());
//! let collector = TraceCollector::shared(registry.clone());
//!
//! let tracer = collector.tracer(TraceId::new(0, 0));
//! {
//!     let _main = tracer.enter("main");
//!     let _init = tracer.enter("MPI_Init");
//! } // scopes close in order: returns recorded
//! tracer.finish();
//!
//! let set = collector.into_trace_set();
//! let trace = set.get(TraceId::new(0, 0)).unwrap();
//! assert_eq!(trace.len(), 4); // 2 calls + 2 returns
//! ```

pub mod class;
pub mod codec;
pub mod collector;
pub mod compress;
pub mod event;
pub mod hash;
pub mod hb;
pub mod race;
pub mod registry;
pub mod req;
pub mod stats;
pub mod store;
pub mod trace;

pub use class::{first_equal, Classes};
pub use collector::{TraceCollector, Tracer};
pub use compress::StreamCompressor;
pub use event::TraceEvent;
pub use hb::{BlockedOp, HbEvent, HbLog, HbOp, PendingCollective, UnmatchedSend, VectorClock};
pub use race::RaceOp;
pub use registry::{FnId, FunctionRegistry};
pub use req::ReqMarker;
pub use stats::{ProcessStats, TraceSetStats, TraceStats};
pub use store::{IndexedSet, StoreError, STORE_FORMAT_VERSION};
pub use trace::{canonicalize, Trace, TraceId, TraceSet};
