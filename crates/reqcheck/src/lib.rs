//! `reqcheck` — MPI request-lifecycle and collective-consistency
//! analysis over recorded runs.
//!
//! The fourth dual-implementation analysis product (after `tracelint`,
//! `hbcheck`, and `racecheck`): it counts the ordinary MPI call names
//! every trace already contains (`MPI_Isend`/`MPI_Irecv` post a
//! nonblocking request, `MPI_Wait` completes one, `MPI_Finalize`
//! closes the epoch, the collective calls form the per-rank collective
//! order) plus the two marker families of [`dt_trace::req`]
//! (`mpi_coll@…` argument signatures, `mpi_req_pending@…` teardown
//! witnesses) and reports the classic MPI misuse classes.
//!
//! # Rule catalog
//!
//! | code  | severity | meaning |
//! |-------|----------|---------|
//! | RQ001 | error    | leaked request: a request posted by `MPI_Isend`/`MPI_Irecv` is never completed by `MPI_Wait` before trace end |
//! | RQ002 | error    | wait without post: at some point more `MPI_Wait` calls have run than requests were outstanding |
//! | RQ003 | error    | collective signature mismatch: ranks disagree on count/root/reduce-op of the k-th collective |
//! | RQ004 | error    | collective order divergence: ranks disagree on the kind (or count) of the k-th collective |
//! | RQ005 | warning  | completion after finalize: `MPI_Wait` runs after `MPI_Finalize` was entered |
//!
//! # Detection model
//!
//! Everything the rules consume is in the per-trace [`TraceReqFacts`]:
//! request counters with a prefix-minimum balance, the finalize epoch,
//! and two run-length-encoded collective sequences (plain kinds and
//! canonical argument signatures). RQ001/RQ002/RQ005 are per-trace;
//! RQ003/RQ004 align the *master* (thread 0) traces of all processes
//! and report the first sequence position where they diverge.
//!
//! # Domains
//!
//! [`expanded::summarize`] walks the raw symbol stream; the
//! [`compressed`] summary is folded bottom-up over NLR loop structure
//! by the shared `nlr::Summarizer` walk with closed-form repeat rules (prefix minima
//! shift linearly per iteration, uniform collective runs multiply), so
//! a million-iteration loop costs O(|body|). Property tests assert the
//! two produce *equal* facts, and [`analyze`] is a pure function of
//! the facts, so the rendered reports are byte-identical.

pub mod compressed;
pub mod expanded;

use dt_trace::{FnId, FunctionRegistry, TraceId};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

pub use dt_diag::{Severity, Span};

/// A diagnostic carrying a [`ReqCode`].
pub type ReqDiagnostic = dt_diag::Diagnostic<ReqCode>;

/// A canonical, sorted report of request diagnostics.
pub type ReqReport = dt_diag::Report<ReqCode>;

/// Stable rule codes (RQ001–RQ005).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReqCode {
    /// RQ001: leaked request (posted, never completed).
    Leaked,
    /// RQ002: wait without post.
    UnmatchedWait,
    /// RQ003: collective signature mismatch across ranks.
    SignatureMismatch,
    /// RQ004: collective order divergence across ranks.
    OrderDivergence,
    /// RQ005: request completed after `MPI_Finalize`.
    CompleteAfterFinalize,
}

impl ReqCode {
    /// The stable `RQnnn` code string.
    pub fn as_str(self) -> &'static str {
        match self {
            ReqCode::Leaked => "RQ001",
            ReqCode::UnmatchedWait => "RQ002",
            ReqCode::SignatureMismatch => "RQ003",
            ReqCode::OrderDivergence => "RQ004",
            ReqCode::CompleteAfterFinalize => "RQ005",
        }
    }

    /// Short human title of the rule family.
    pub fn title(self) -> &'static str {
        match self {
            ReqCode::Leaked => "leaked request",
            ReqCode::UnmatchedWait => "wait without post",
            ReqCode::SignatureMismatch => "collective signature mismatch",
            ReqCode::OrderDivergence => "collective order divergence",
            ReqCode::CompleteAfterFinalize => "completion after finalize",
        }
    }
}

impl fmt::Display for ReqCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl dt_diag::Code for ReqCode {
    const ALL: &'static [ReqCode] = &[
        ReqCode::Leaked,
        ReqCode::UnmatchedWait,
        ReqCode::SignatureMismatch,
        ReqCode::OrderDivergence,
        ReqCode::CompleteAfterFinalize,
    ];

    fn as_str(self) -> &'static str {
        ReqCode::as_str(self)
    }
    fn title(self) -> &'static str {
        ReqCode::title(self)
    }
}

/// One run of identical consecutive collectives: the collective
/// sequences are kept run-length-encoded so the compressed domain can
/// fold uniform loops in O(1) while staying *equal* to the expanded
/// walk (which builds the same runs by adjacent merge).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CollRun {
    /// The run's value: a plain kind (`MPI_Allreduce`) in
    /// [`TraceReqFacts::kinds`], a canonical signature payload
    /// (`MPI_Allreduce:4:-:sum`) in [`TraceReqFacts::sigs`].
    pub sig: String,
    /// Consecutive occurrences.
    pub count: u64,
    /// Symbol offset of the run's first collective call.
    pub first_offset: u64,
}

/// Per-trace facts, derivable in either domain.
///
/// [`expanded::summarize`] and [`compressed::summarize`]
/// must produce *equal* values for the same trace — that equality is
/// what "verdict agreement" means for `reqcheck`, since [`analyze`]
/// is a pure function of these facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReqFacts {
    /// Which trace.
    pub id: TraceId,
    /// `MPI_Isend` + `MPI_Irecv` calls.
    pub posted: u64,
    /// `MPI_Wait` calls.
    pub completed: u64,
    /// Minimum over all stream prefixes of the running
    /// `posted − completed` balance (≤ 0; the empty prefix counts).
    pub min_balance: i64,
    /// Offset of the `MPI_Wait` call first attaining [`min_balance`];
    /// `Some` exactly when `min_balance < 0`.
    ///
    /// [`min_balance`]: TraceReqFacts::min_balance
    pub min_balance_offset: Option<u64>,
    /// Offset of the first request-posting call, if any.
    pub first_post_offset: Option<u64>,
    /// Whether `MPI_Finalize` was called.
    pub finalized: bool,
    /// `MPI_Wait` calls after `MPI_Finalize` was entered.
    pub after_finalize: u64,
    /// Offset of the first such call; `Some` exactly when
    /// [`after_finalize`] > 0.
    ///
    /// [`after_finalize`]: TraceReqFacts::after_finalize
    pub after_finalize_offset: Option<u64>,
    /// Run-length-encoded sequence of plain collective kinds, in call
    /// order.
    pub kinds: Vec<CollRun>,
    /// Run-length-encoded sequence of `mpi_coll@` signature payloads,
    /// in call order (empty when the run recorded no signatures).
    pub sigs: Vec<CollRun>,
    /// Teardown `mpi_req_pending@` witnesses: (origin, count), sorted
    /// by origin.
    pub pending: Vec<(String, u64)>,
    /// Whether the trace was flagged truncated by the tracer.
    pub truncated: bool,
}

/// Classification of one interned function for the request analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReqSym {
    /// Posts a nonblocking request (`MPI_Isend` / `MPI_Irecv`).
    Post,
    /// Completes a request (`MPI_Wait`).
    Wait,
    /// Closes the epoch (`MPI_Finalize`).
    Finalize,
    /// A plain collective call; the payload is its kind name.
    Coll(&'static str),
    /// An `mpi_coll@` signature marker; the payload is the canonical
    /// signature.
    Sig(String),
    /// An `mpi_req_pending@` teardown witness; the payload is the
    /// leaking origin.
    Pending(String),
    /// Anything else: inert.
    Other,
}

/// Function-ID → request-operation lookup, built once per registry so
/// the per-symbol walks never parse strings.
pub struct ReqVocab {
    ops: HashMap<u32, ReqSym>,
}

impl ReqVocab {
    /// Classify every interned name of `registry`.
    pub fn build(registry: &FunctionRegistry) -> ReqVocab {
        use dt_trace::req::{self, ReqMarker};
        let mut ops = HashMap::new();
        for (i, name) in registry.names().into_iter().enumerate() {
            let sym = if req::posts_request(&name) {
                ReqSym::Post
            } else if name == req::WAIT_MARKER {
                ReqSym::Wait
            } else if name == req::FINALIZE_MARKER {
                ReqSym::Finalize
            } else if let Some(kind) = req::collective_kind(&name) {
                ReqSym::Coll(kind)
            } else if let Some(marker) = ReqMarker::parse(&name) {
                match marker {
                    ReqMarker::CollSig(sig) => ReqSym::Sig(sig),
                    ReqMarker::Pending(origin) => ReqSym::Pending(origin),
                }
            } else {
                continue;
            };
            ops.insert(i as u32, sym);
        }
        ReqVocab { ops }
    }

    /// Classification of `fn_id` ([`ReqSym::Other`] when inert).
    pub fn classify(&self, fn_id: u32) -> &ReqSym {
        self.ops.get(&fn_id).unwrap_or(&ReqSym::Other)
    }

    /// True when the registry contains no request-relevant name at all
    /// (used to skip whole traces cheaply).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Convenience for callers holding [`FnId`]s.
    pub fn classify_fn(&self, id: FnId) -> &ReqSym {
        self.classify(id.0)
    }
}

fn us(offset: u64) -> usize {
    usize::try_from(offset).unwrap_or(usize::MAX)
}

/// `0, 2` renderer for process lists.
fn render_procs(procs: &[u32]) -> String {
    procs
        .iter()
        .map(|p| p.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Run every RQ rule over one execution's per-trace facts.
///
/// RQ001/RQ002/RQ005 apply to every trace independently; RQ003/RQ004
/// align the master (thread 0) traces of all processes — MPI calls run
/// on the master thread, worker threads never carry collectives. The
/// report is canonically sorted and independent of `facts` order.
pub fn analyze(facts: &[TraceReqFacts]) -> ReqReport {
    let mut sorted: Vec<&TraceReqFacts> = facts.iter().collect();
    sorted.sort_by_key(|f| f.id);

    let mut diags: Vec<ReqDiagnostic> = Vec::new();
    for f in &sorted {
        diags.extend(per_trace(f));
    }
    let masters: Vec<&TraceReqFacts> = sorted
        .iter()
        .copied()
        .filter(|f| f.id.thread == 0)
        .collect();
    if masters.len() >= 2 {
        diags.extend(order_divergence(&masters));
        diags.extend(signature_mismatch(&masters));
    }
    ReqReport::new(diags)
}

/// RQ001/RQ002/RQ005 for one trace.
fn per_trace(f: &TraceReqFacts) -> Vec<ReqDiagnostic> {
    let mut out = Vec::new();
    if !f.truncated && f.posted > f.completed {
        let leaked = f.posted - f.completed;
        let mut d = ReqDiagnostic::error(
            ReqCode::Leaked,
            format!(
                "{leaked} request(s) posted in trace {} but never completed by MPI_Wait",
                f.id
            ),
        )
        .with_trace(f.id);
        if let Some(o) = f.first_post_offset {
            d = d.with_span(Span::at(us(o)));
        }
        let hint = if f.pending.is_empty() {
            "every MPI_Isend/MPI_Irecv must be completed by a matching MPI_Wait".to_string()
        } else {
            let origins: Vec<String> = f
                .pending
                .iter()
                .map(|(origin, n)| {
                    if *n > 1 {
                        format!("{origin} (×{n})")
                    } else {
                        origin.clone()
                    }
                })
                .collect();
            format!("never waited on: {}", origins.join(", "))
        };
        out.push(d.with_hint(hint));
    }
    if f.min_balance < 0 {
        let excess = f.min_balance.unsigned_abs();
        let mut d = ReqDiagnostic::error(
            ReqCode::UnmatchedWait,
            format!(
                "{excess} more MPI_Wait call(s) in trace {} than requests were outstanding",
                f.id
            ),
        )
        .with_trace(f.id);
        if let Some(o) = f.min_balance_offset {
            d = d.with_span(Span::at(us(o)));
        }
        out.push(d.with_hint("this MPI_Wait has no posted request to complete"));
    }
    if f.after_finalize > 0 {
        let mut d = ReqDiagnostic::warning(
            ReqCode::CompleteAfterFinalize,
            format!(
                "{} MPI_Wait call(s) in trace {} after MPI_Finalize was entered",
                f.after_finalize, f.id
            ),
        )
        .with_trace(f.id);
        if let Some(o) = f.after_finalize_offset {
            d = d.with_span(Span::at(us(o)));
        }
        out.push(d.with_hint("complete every outstanding request before MPI_Finalize"));
    }
    out
}

/// A read cursor over one run-length-encoded collective sequence.
struct Cursor<'a> {
    runs: &'a [CollRun],
    idx: usize,
    used: u64,
}

impl<'a> Cursor<'a> {
    fn new(runs: &'a [CollRun]) -> Cursor<'a> {
        Cursor {
            runs,
            idx: 0,
            used: 0,
        }
    }
    fn current(&self) -> Option<&'a CollRun> {
        self.runs.get(self.idx)
    }
    fn remaining(&self) -> u64 {
        self.current().map_or(0, |r| r.count - self.used)
    }
    fn advance(&mut self, n: u64) {
        self.used += n;
        if let Some(r) = self.current() {
            if self.used >= r.count {
                self.idx += 1;
                self.used = 0;
            }
        }
    }
}

/// First sequence position where the per-process sequences disagree
/// (or where some end while others continue), with each process's run
/// at that position (`None` = exhausted). `None` = full agreement.
fn scan_divergence<'a>(seqs: &[&'a [CollRun]]) -> Option<(u64, Vec<Option<&'a CollRun>>)> {
    let mut cursors: Vec<Cursor<'a>> = seqs.iter().map(|s| Cursor::new(s)).collect();
    let mut index = 0u64;
    loop {
        let current: Vec<Option<&CollRun>> = cursors.iter().map(Cursor::current).collect();
        if current.iter().all(Option::is_none) {
            return None;
        }
        let values: BTreeSet<Option<&str>> =
            current.iter().map(|r| r.map(|r| r.sig.as_str())).collect();
        if values.len() > 1 {
            return Some((index, current));
        }
        let step = cursors
            .iter()
            .map(Cursor::remaining)
            .min()
            .expect("at least two sequences");
        for c in &mut cursors {
            c.advance(step);
        }
        index += step;
    }
}

/// Group the diverging processes by their value at the divergence
/// point.
fn partition<'a>(
    masters: &[&TraceReqFacts],
    current: &[Option<&'a CollRun>],
) -> BTreeMap<&'a str, Vec<u32>> {
    let mut groups: BTreeMap<&str, Vec<u32>> = BTreeMap::new();
    for (f, run) in masters.iter().zip(current) {
        if let Some(run) = run {
            groups.entry(&run.sig).or_default().push(f.id.process);
        }
    }
    groups
}

/// The consensus is the largest group; ties resolve to the group
/// containing the lowest rank, so the anchor is the rank that diverged
/// from rank 0's view.
fn consensus_value<'a>(groups: &BTreeMap<&'a str, Vec<u32>>) -> &'a str {
    groups
        .iter()
        .max_by_key(|(_, procs)| (procs.len(), std::cmp::Reverse(procs[0])))
        .map(|(sig, _)| *sig)
        .expect("non-empty partition")
}

/// The lowest-process trace not in the consensus group, with its run
/// at the divergence point — the diagnostic anchor.
fn minority_anchor<'a>(
    masters: &[&'a TraceReqFacts],
    current: &[Option<&CollRun>],
    consensus: &str,
) -> (&'a TraceReqFacts, u64) {
    masters
        .iter()
        .zip(current)
        .find_map(|(f, run)| {
            run.filter(|r| r.sig != consensus)
                .map(|r| (*f, r.first_offset))
        })
        .expect("a divergent process exists")
}

/// RQ004: first position where the ranks' plain collective-kind
/// sequences disagree, or where some ranks end while others continue
/// (only reported when an ended trace is *not* truncated — a killed
/// rank's missing tail is a hang symptom, not an order bug).
fn order_divergence(masters: &[&TraceReqFacts]) -> Option<ReqDiagnostic> {
    let seqs: Vec<&[CollRun]> = masters.iter().map(|f| f.kinds.as_slice()).collect();
    let (index, current) = scan_divergence(&seqs)?;
    let ended: Vec<usize> = (0..masters.len())
        .filter(|&i| current[i].is_none())
        .collect();
    if ended.is_empty() {
        let groups = partition(masters, &current);
        let consensus = consensus_value(&groups);
        let parts: Vec<String> = groups
            .iter()
            .map(|(kind, procs)| format!("rank(s) {} call `{kind}`", render_procs(procs)))
            .collect();
        let (anchor, offset) = minority_anchor(masters, &current, consensus);
        return Some(
            ReqDiagnostic::error(
                ReqCode::OrderDivergence,
                format!(
                    "collective order divergence at collective #{index}: {}",
                    parts.join(", ")
                ),
            )
            .with_trace(anchor.id)
            .with_span(Span::at(us(offset)))
            .with_hint("every rank must invoke the same collectives in the same order"),
        );
    }
    // Length divergence: suppress when every ended trace is truncated.
    if ended.iter().all(|&i| masters[i].truncated) {
        return None;
    }
    let ended_procs: Vec<u32> = ended.iter().map(|&i| masters[i].id.process).collect();
    let (witness, run) = masters
        .iter()
        .zip(&current)
        .find_map(|(f, run)| run.map(|r| (*f, r)))
        .expect("some process continues");
    let cont_procs: Vec<u32> = (0..masters.len())
        .filter(|&i| current[i].is_some())
        .map(|i| masters[i].id.process)
        .collect();
    Some(
        ReqDiagnostic::error(
            ReqCode::OrderDivergence,
            format!(
                "collective count divergence: rank(s) {} end after {index} collective(s) \
                 while rank(s) {} continue with `{}`",
                render_procs(&ended_procs),
                render_procs(&cont_procs),
                run.sig
            ),
        )
        .with_trace(witness.id)
        .with_span(Span::at(us(run.first_offset)))
        .with_hint("every rank must invoke the same collectives in the same order"),
    )
}

/// RQ003: first position where the ranks' recorded collective argument
/// signatures disagree *while agreeing on the kind* (kind divergence
/// is RQ004's). Count divergence of the signature streams is never
/// reported here — the plain-kind scan owns sequence length.
fn signature_mismatch(masters: &[&TraceReqFacts]) -> Option<ReqDiagnostic> {
    let seqs: Vec<&[CollRun]> = masters.iter().map(|f| f.sigs.as_slice()).collect();
    let (index, current) = scan_divergence(&seqs)?;
    if current.iter().any(Option::is_none) {
        return None;
    }
    let kinds: BTreeSet<&str> = current
        .iter()
        .filter_map(|r| r.map(|r| r.sig.split(':').next().unwrap_or(&r.sig)))
        .collect();
    if kinds.len() > 1 {
        return None; // the kinds themselves diverge: RQ004 territory
    }
    let kind = kinds.into_iter().next().expect("non-empty divergence");
    let groups = partition(masters, &current);
    let consensus = consensus_value(&groups);
    let parts: Vec<String> = groups
        .iter()
        .map(|(sig, procs)| format!("rank(s) {} use `{sig}`", render_procs(procs)))
        .collect();
    let (anchor, offset) = minority_anchor(masters, &current, consensus);
    Some(
        ReqDiagnostic::error(
            ReqCode::SignatureMismatch,
            format!(
                "collective signature mismatch at collective #{index} (`{kind}`): {}",
                parts.join(", ")
            ),
        )
        .with_trace(anchor.id)
        .with_span(Span::at(us(offset)))
        .with_hint("every rank must pass the same count, root, and reduce op to a collective"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(process: u32, thread: u32) -> TraceReqFacts {
        TraceReqFacts {
            id: TraceId::new(process, thread),
            posted: 0,
            completed: 0,
            min_balance: 0,
            min_balance_offset: None,
            first_post_offset: None,
            finalized: true,
            after_finalize: 0,
            after_finalize_offset: None,
            kinds: Vec::new(),
            sigs: Vec::new(),
            pending: Vec::new(),
            truncated: false,
        }
    }

    fn runs(items: &[(&str, u64, u64)]) -> Vec<CollRun> {
        items
            .iter()
            .map(|(sig, count, off)| CollRun {
                sig: sig.to_string(),
                count: *count,
                first_offset: *off,
            })
            .collect()
    }

    #[test]
    fn codes_are_stable() {
        assert_eq!(ReqCode::Leaked.as_str(), "RQ001");
        assert_eq!(ReqCode::UnmatchedWait.as_str(), "RQ002");
        assert_eq!(ReqCode::SignatureMismatch.as_str(), "RQ003");
        assert_eq!(ReqCode::OrderDivergence.as_str(), "RQ004");
        assert_eq!(ReqCode::CompleteAfterFinalize.as_str(), "RQ005");
        assert_eq!(ReqCode::CompleteAfterFinalize.to_string(), "RQ005");
    }

    #[test]
    fn leaked_request_fires_rq001_with_pending_hint() {
        let mut f = base(0, 0);
        f.posted = 3;
        f.completed = 1;
        f.first_post_offset = Some(4);
        f.pending = vec![("MPI_Isend:dst=1,tag=7".to_string(), 2)];
        let r = analyze(&[f]);
        assert_eq!(
            r.codes().into_iter().collect::<Vec<_>>(),
            vec![ReqCode::Leaked]
        );
        let d = &r.diagnostics()[0];
        assert!(d.message.contains("2 request(s)"), "{}", d.message);
        assert_eq!(d.span, Some(Span::at(4)));
        assert!(
            d.hint
                .as_deref()
                .unwrap()
                .contains("MPI_Isend:dst=1,tag=7 (×2)"),
            "{:?}",
            d.hint
        );
    }

    #[test]
    fn truncated_traces_do_not_fire_rq001() {
        let mut f = base(0, 0);
        f.posted = 3;
        f.completed = 1;
        f.truncated = true;
        let r = analyze(&[f]);
        assert!(r.is_clean(), "{}", r.render_text());
    }

    #[test]
    fn negative_balance_fires_rq002() {
        let mut f = base(0, 0);
        f.posted = 2;
        f.completed = 3;
        f.min_balance = -1;
        f.min_balance_offset = Some(17);
        f.first_post_offset = Some(1);
        let r = analyze(&[f]);
        // posted < completed, so no RQ001; the dip is the bug.
        assert_eq!(
            r.codes().into_iter().collect::<Vec<_>>(),
            vec![ReqCode::UnmatchedWait]
        );
        assert_eq!(r.diagnostics()[0].span, Some(Span::at(17)));
    }

    #[test]
    fn wait_after_finalize_is_a_warning() {
        let mut f = base(0, 0);
        f.posted = 1;
        f.completed = 1;
        f.after_finalize = 1;
        f.after_finalize_offset = Some(9);
        let r = analyze(&[f]);
        assert_eq!(
            r.codes().into_iter().collect::<Vec<_>>(),
            vec![ReqCode::CompleteAfterFinalize]
        );
        assert!(!r.has_errors());
        assert_eq!(r.diagnostics()[0].severity, Severity::Warning);
    }

    #[test]
    fn kind_divergence_fires_rq004_anchored_on_the_minority() {
        let mut a = base(0, 0);
        a.kinds = runs(&[("MPI_Bcast", 3, 2), ("MPI_Reduce", 1, 20)]);
        let mut b = base(1, 0);
        b.kinds = runs(&[("MPI_Bcast", 3, 2), ("MPI_Allreduce", 1, 22)]);
        let mut c = base(2, 0);
        c.kinds = runs(&[("MPI_Bcast", 3, 2), ("MPI_Reduce", 1, 20)]);
        let r = analyze(&[a, b, c]);
        assert_eq!(
            r.codes().into_iter().collect::<Vec<_>>(),
            vec![ReqCode::OrderDivergence]
        );
        let d = &r.diagnostics()[0];
        assert!(d.message.contains("collective #3"), "{}", d.message);
        assert!(
            d.message
                .contains("rank(s) 1 call `MPI_Allreduce`, rank(s) 0, 2 call `MPI_Reduce`"),
            "{}",
            d.message
        );
        assert_eq!(d.trace, Some(TraceId::new(1, 0)));
        assert_eq!(d.span, Some(Span::at(22)));
    }

    #[test]
    fn count_divergence_fires_rq004_unless_the_short_rank_is_truncated() {
        let mut a = base(0, 0);
        a.kinds = runs(&[("MPI_Barrier", 4, 2)]);
        let mut b = base(1, 0);
        b.kinds = runs(&[("MPI_Barrier", 3, 2)]);
        let r = analyze(&[a.clone(), b.clone()]);
        let d = &r.diagnostics()[0];
        assert_eq!(d.code, ReqCode::OrderDivergence);
        assert!(
            d.message
                .contains("rank(s) 1 end after 3 collective(s) while rank(s) 0 continue"),
            "{}",
            d.message
        );
        assert_eq!(d.trace, Some(TraceId::new(0, 0)));
        // A truncated short rank is a hang symptom, not an order bug.
        b.truncated = true;
        assert!(analyze(&[a, b]).is_clean());
    }

    #[test]
    fn signature_divergence_fires_rq003_when_kinds_agree() {
        let mut a = base(0, 0);
        a.kinds = runs(&[("MPI_Allreduce", 2, 4)]);
        a.sigs = runs(&[("MPI_Allreduce:4:-:sum", 2, 5)]);
        let mut b = base(1, 0);
        b.kinds = runs(&[("MPI_Allreduce", 2, 4)]);
        b.sigs = runs(&[
            ("MPI_Allreduce:4:-:sum", 1, 5),
            ("MPI_Allreduce:4:-:max", 1, 15),
        ]);
        let r = analyze(&[a, b]);
        assert_eq!(
            r.codes().into_iter().collect::<Vec<_>>(),
            vec![ReqCode::SignatureMismatch]
        );
        let d = &r.diagnostics()[0];
        assert!(d.message.contains("collective #1"), "{}", d.message);
        assert!(d.message.contains("`MPI_Allreduce`"), "{}", d.message);
        assert!(
            d.message.contains("rank(s) 1 use `MPI_Allreduce:4:-:max`"),
            "{}",
            d.message
        );
        assert_eq!(d.trace, Some(TraceId::new(1, 0)));
        assert_eq!(d.span, Some(Span::at(15)));
    }

    #[test]
    fn kind_level_signature_divergence_defers_to_rq004() {
        let mut a = base(0, 0);
        a.kinds = runs(&[("MPI_Reduce", 1, 4)]);
        a.sigs = runs(&[("MPI_Reduce:2:0:sum", 1, 5)]);
        let mut b = base(1, 0);
        b.kinds = runs(&[("MPI_Bcast", 1, 4)]);
        b.sigs = runs(&[("MPI_Bcast:2:0:-", 1, 5)]);
        let r = analyze(&[a, b]);
        assert_eq!(
            r.codes().into_iter().collect::<Vec<_>>(),
            vec![ReqCode::OrderDivergence]
        );
    }

    #[test]
    fn missing_signature_streams_never_fire_rq003() {
        // One rank recorded signatures, the other did not: not a bug.
        let mut a = base(0, 0);
        a.kinds = runs(&[("MPI_Barrier", 2, 2)]);
        a.sigs = runs(&[("MPI_Barrier:0:-:-", 2, 3)]);
        let mut b = base(1, 0);
        b.kinds = runs(&[("MPI_Barrier", 2, 2)]);
        let r = analyze(&[a, b]);
        assert!(r.is_clean(), "{}", r.render_text());
    }

    #[test]
    fn worker_threads_do_not_join_the_collective_alignment() {
        let mut a = base(0, 0);
        a.kinds = runs(&[("MPI_Barrier", 2, 2)]);
        let mut b = base(1, 0);
        b.kinds = runs(&[("MPI_Barrier", 2, 2)]);
        // A worker thread with no collectives at all must not count as
        // a diverging rank.
        let w = base(0, 1);
        let r = analyze(&[a, b, w]);
        assert!(r.is_clean(), "{}", r.render_text());
    }

    #[test]
    fn single_process_runs_skip_cross_rank_rules() {
        let mut a = base(0, 0);
        a.kinds = runs(&[("MPI_Barrier", 2, 2)]);
        let r = analyze(&[a]);
        assert!(r.is_clean(), "{}", r.render_text());
    }

    #[test]
    fn vocab_classifies_the_request_vocabulary() {
        let reg = FunctionRegistry::new();
        let isend = reg.intern("MPI_Isend");
        let irecv = reg.intern("MPI_Irecv");
        let wait = reg.intern("MPI_Wait");
        let fin = reg.intern("MPI_Finalize");
        let coll = reg.intern("MPI_Allreduce");
        let sig = reg.intern("mpi_coll@MPI_Allreduce:4:-:sum");
        let pend = reg.intern("mpi_req_pending@MPI_Isend:dst=1,tag=7");
        let other = reg.intern("MPI_Send");
        let vocab = ReqVocab::build(&reg);
        assert_eq!(vocab.classify_fn(isend), &ReqSym::Post);
        assert_eq!(vocab.classify_fn(irecv), &ReqSym::Post);
        assert_eq!(vocab.classify_fn(wait), &ReqSym::Wait);
        assert_eq!(vocab.classify_fn(fin), &ReqSym::Finalize);
        assert_eq!(vocab.classify_fn(coll), &ReqSym::Coll("MPI_Allreduce"));
        assert_eq!(
            vocab.classify_fn(sig),
            &ReqSym::Sig("MPI_Allreduce:4:-:sum".to_string())
        );
        assert_eq!(
            vocab.classify_fn(pend),
            &ReqSym::Pending("MPI_Isend:dst=1,tag=7".to_string())
        );
        assert_eq!(vocab.classify_fn(other), &ReqSym::Other);
        assert!(!vocab.is_empty());
        assert!(ReqVocab::build(&FunctionRegistry::new()).is_empty());
    }
}
