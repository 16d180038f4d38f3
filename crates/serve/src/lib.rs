//! `dt-serve` — the DiffTrace analysis daemon.
//!
//! One-shot `difftrace` invocations pay the whole corpus cost on every
//! query: read the file, decode every blob, analyze, exit. For
//! interactive debugging loops ("lint this, now diff those, now show
//! me trace 3.1") that load dominates. `difftrace serve` amortizes it:
//! the daemon opens each corpus ONCE behind a
//! [`dt_trace::store::IndexedSet`] — the `.dtts` per-trace offset
//! index means *opening* decodes nothing — and answers queries over a
//! line-delimited JSON protocol on TCP ([`protocol`]). Traces decode
//! lazily on first touch and stay cached; a shared [`dt_cache::Cache`]
//! carries intermediate analysis artifacts across requests; a
//! [`difftrace::sync::Pool`] bounds how many analyses run at once.
//!
//! The contract that makes the daemon trustworthy: **every served
//! reply's `output` is byte-identical to what the one-shot CLI prints
//! for the same query**, at any worker count and any request
//! interleaving. It holds by construction: both front ends run every
//! analysis query through the one executor, [`execute`] — which finds
//! the corpora, parses the options ([`options`]), runs the analysis and
//! renders it ([`render`]) — and differ only in how they reach the
//! corpora ([`Corpora`]). The serve-equivalence suite in
//! `crates/cli/tests` checks it end to end.

pub mod executor;
pub mod options;
pub mod protocol;
pub mod render;
pub mod server;

pub use executor::{execute, Answer, Corpora, Failure};
pub use protocol::{
    err_line, ok_line, parse_request, parse_response, request_line, write_line, Request, Response,
    COMMANDS,
};
pub use server::{ServeConfig, Server};
