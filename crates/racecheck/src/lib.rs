//! `racecheck` — shared-memory data-race detection over recorded runs.
//!
//! The third dual-implementation analysis product (after `tracelint`
//! and `hbcheck`): it reads the `omp_read@…` / `omp_write@…` /
//! `omp_acquire@…` / `omp_release@…` marker events the simulated
//! OpenMP runtime embeds in its ParLOT call traces (see
//! [`dt_trace::race`]) and reports the shared-memory bug classes of
//! hybrid MPI+OpenMP codes.
//!
//! # Rule catalog
//!
//! | code  | severity | meaning |
//! |-------|----------|---------|
//! | RC001 | error    | write-write race: two threads write one variable in overlapping barrier phases with disjoint locksets |
//! | RC002 | error    | read-write race: a read and a write of one variable, unordered and unprotected |
//! | RC003 | error    | lock-order inversion: the lock-acquisition graph has a cycle — potential deadlock |
//! | RC004 | warning  | unprotected shared access: no single lock consistently protects a variable written by several threads (Eraser-style lockset) |
//!
//! # Detection model
//!
//! The analysis is deliberately *interleaving-independent* so reports
//! are byte-identical across runs and thread counts: instead of a
//! dynamic vector clock per event it abstracts each thread's stream
//! into **barrier phases** (the count of `GOMP_barrier` calls before
//! an access — two accesses in disjoint phases are ordered, two in
//! overlapping phase intervals are not) and **locksets** (Eraser): two
//! unordered accesses race unless they share a lock. Everything the
//! rules consume is in the per-trace [`TraceRaceFacts`].
//!
//! # Domains
//!
//! [`expanded::summarize`] walks the raw symbol stream; the
//! [`compressed`] summary is folded bottom-up over NLR loop structure
//! by the shared `nlr::Summarizer` walk — each loop body is summarized once and its
//! repetition applied in closed form, so a million-iteration loop
//! costs O(|body|) (the ZipTrack result, adapted to barrier-phase
//! abstraction). Property tests assert the two produce *equal* facts,
//! and [`analyze`] is a pure function of the facts, so the rendered
//! reports are byte-identical.

pub mod compressed;
pub mod expanded;

use dt_trace::race::{RaceOp, BARRIER_MARKER};
use dt_trace::{FnId, FunctionRegistry, TraceId};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

pub use dt_diag::{Severity, Span};

/// A diagnostic carrying a [`RaceCode`].
pub type RaceDiagnostic = dt_diag::Diagnostic<RaceCode>;

/// A canonical, sorted report of race diagnostics.
pub type RaceReport = dt_diag::Report<RaceCode>;

/// Stable rule codes (RC001–RC004).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RaceCode {
    /// RC001: write-write data race.
    WriteWrite,
    /// RC002: read-write data race.
    ReadWrite,
    /// RC003: lock-order inversion (potential deadlock).
    LockOrder,
    /// RC004: unprotected shared access (inconsistent lockset).
    Unprotected,
}

impl RaceCode {
    /// The stable `RCnnn` code string.
    pub fn as_str(self) -> &'static str {
        match self {
            RaceCode::WriteWrite => "RC001",
            RaceCode::ReadWrite => "RC002",
            RaceCode::LockOrder => "RC003",
            RaceCode::Unprotected => "RC004",
        }
    }

    /// Short human title of the rule family.
    pub fn title(self) -> &'static str {
        match self {
            RaceCode::WriteWrite => "write-write race",
            RaceCode::ReadWrite => "read-write race",
            RaceCode::LockOrder => "lock-order inversion",
            RaceCode::Unprotected => "unprotected shared access",
        }
    }
}

impl fmt::Display for RaceCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl dt_diag::Code for RaceCode {
    const ALL: &'static [RaceCode] = &[
        RaceCode::WriteWrite,
        RaceCode::ReadWrite,
        RaceCode::LockOrder,
        RaceCode::Unprotected,
    ];

    fn as_str(self) -> &'static str {
        RaceCode::as_str(self)
    }
    fn title(self) -> &'static str {
        RaceCode::title(self)
    }
}

/// How a group of accesses touches its variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessKind {
    /// Reads (`omp_read@…`).
    Read,
    /// Writes (`omp_write@…`).
    Write,
    /// Lock acquisitions (`omp_acquire@…`) — kept as groups too, so
    /// the lock-order graph derives from the same facts.
    Acquire,
}

/// All accesses of one trace to one target under one lockset,
/// aggregated: the analysis never needs individual events, only the
/// set of (variable, kind, lockset) combinations each thread exhibits
/// and *when* (which barrier phases) and *where* (first symbol offset)
/// they happen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessGroup {
    /// The shared variable (or, for [`AccessKind::Acquire`], the lock
    /// being acquired).
    pub var: String,
    /// Read, write, or acquire.
    pub kind: AccessKind,
    /// Locks held at the access (for acquires: held *before* the
    /// acquisition — the held-while-acquiring context the lock-order
    /// graph is built from).
    pub lockset: BTreeSet<String>,
    /// Number of such accesses.
    pub count: u64,
    /// Symbol offset (index into the expanded stream) of the first
    /// such access's marker call.
    pub first_offset: u64,
    /// Earliest barrier phase containing such an access.
    pub phase_first: u64,
    /// Latest barrier phase containing such an access.
    pub phase_last: u64,
}

/// Per-trace facts, derivable in either domain.
///
/// [`expanded::summarize`] and [`compressed::summarize`]
/// must produce *equal* values for the same trace — that equality is
/// what "verdict agreement" means for `racecheck`, since [`analyze`]
/// is a pure function of these facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRaceFacts {
    /// Which trace.
    pub id: TraceId,
    /// Access groups, canonically sorted by (var, kind, lockset).
    pub groups: Vec<AccessGroup>,
    /// Total `GOMP_barrier` calls in the trace.
    pub barriers: u64,
    /// Whether the trace was flagged truncated by the tracer.
    pub truncated: bool,
}

/// Classification of one interned function for the race analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaceSym {
    /// A `GOMP_barrier` call: phase boundary.
    Barrier,
    /// A shared-memory marker.
    Op(RaceOp),
    /// Anything else: inert.
    Other,
}

/// Function-ID → race-operation lookup, built once per registry so the
/// per-symbol walks never parse strings.
pub struct RaceVocab {
    ops: HashMap<u32, RaceSym>,
}

impl RaceVocab {
    /// Classify every interned name of `registry`.
    pub fn build(registry: &FunctionRegistry) -> RaceVocab {
        let mut ops = HashMap::new();
        for (i, name) in registry.names().into_iter().enumerate() {
            let sym = if name == BARRIER_MARKER {
                RaceSym::Barrier
            } else if let Some(op) = RaceOp::parse(&name) {
                RaceSym::Op(op)
            } else {
                continue;
            };
            ops.insert(i as u32, sym);
        }
        RaceVocab { ops }
    }

    /// Classification of `fn_id` ([`RaceSym::Other`] when inert).
    pub fn classify(&self, fn_id: u32) -> &RaceSym {
        self.ops.get(&fn_id).unwrap_or(&RaceSym::Other)
    }

    /// True when the registry contains any race-relevant marker at all
    /// (used to skip whole traces cheaply).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Convenience for callers holding [`FnId`]s.
    pub fn classify_fn(&self, id: FnId) -> &RaceSym {
        self.classify(id.0)
    }
}

/// Two phase intervals overlap (no barrier orders every pair).
fn phases_overlap(a: &AccessGroup, b: &AccessGroup) -> bool {
    a.phase_first <= b.phase_last && b.phase_first <= a.phase_last
}

/// Disjoint locksets: no common lock protects the pair.
fn locksets_disjoint(a: &AccessGroup, b: &AccessGroup) -> bool {
    a.lockset.intersection(&b.lockset).next().is_none()
}

/// `0.0, 0.1` renderer for trace-id lists.
fn render_threads(ids: &BTreeSet<TraceId>) -> String {
    ids.iter()
        .map(|id| id.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Run every RC rule over one execution's per-trace facts.
///
/// Shared memory does not cross MPI process boundaries, so traces are
/// grouped by process and every rule applies within one process's
/// thread team. The report is canonically sorted and independent of
/// `facts` order.
pub fn analyze(facts: &[TraceRaceFacts]) -> RaceReport {
    let mut diags: Vec<RaceDiagnostic> = Vec::new();
    let mut by_process: BTreeMap<u32, Vec<&TraceRaceFacts>> = BTreeMap::new();
    for f in facts {
        by_process.entry(f.id.process).or_default().push(f);
    }
    for traces in by_process.values_mut() {
        traces.sort_by_key(|f| f.id);
    }

    for (&process, traces) in &by_process {
        diags.extend(race_pairs(process, traces));
        diags.extend(unprotected(process, traces));
        diags.extend(lock_order(process, traces));
    }
    RaceReport::new(diags)
}

/// All (trace, group) data-access pairs of one process, flattened.
fn access_groups<'a>(traces: &'a [&TraceRaceFacts]) -> Vec<(TraceId, &'a AccessGroup)> {
    let mut out = Vec::new();
    for t in traces {
        for g in &t.groups {
            if matches!(g.kind, AccessKind::Read | AccessKind::Write) {
                out.push((t.id, g));
            }
        }
    }
    out
}

/// RC001/RC002: cross-thread unordered, unprotected access pairs,
/// aggregated into one diagnostic per (variable, code).
fn race_pairs(process: u32, traces: &[&TraceRaceFacts]) -> Vec<RaceDiagnostic> {
    let groups = access_groups(traces);
    // (var, code) → (pair count, threads, anchor candidates).
    #[derive(Default)]
    struct Agg {
        pairs: u64,
        threads: BTreeSet<TraceId>,
        anchor: Option<(TraceId, u64)>,
    }
    let mut aggs: BTreeMap<(String, RaceCode), Agg> = BTreeMap::new();
    for (x, &(ti, gi)) in groups.iter().enumerate() {
        for &(tj, gj) in &groups[x + 1..] {
            if ti == tj || gi.var != gj.var {
                continue;
            }
            let code = match (gi.kind, gj.kind) {
                (AccessKind::Write, AccessKind::Write) => RaceCode::WriteWrite,
                (AccessKind::Read, AccessKind::Write) | (AccessKind::Write, AccessKind::Read) => {
                    RaceCode::ReadWrite
                }
                _ => continue, // read-read pairs never race
            };
            if !phases_overlap(gi, gj) || !locksets_disjoint(gi, gj) {
                continue;
            }
            let agg = aggs.entry((gi.var.clone(), code)).or_default();
            agg.pairs += gi.count.saturating_mul(gj.count);
            agg.threads.insert(ti);
            agg.threads.insert(tj);
            for (t, g) in [(ti, gi), (tj, gj)] {
                let cand = (t, g.first_offset);
                if agg.anchor.is_none_or(|a| cand < a) {
                    agg.anchor = Some(cand);
                }
            }
        }
    }
    aggs.into_iter()
        .map(|((var, code), agg)| {
            let what = match code {
                RaceCode::WriteWrite => "write-write",
                _ => "read-write",
            };
            let (trace, offset) = agg.anchor.expect("aggregate implies a witness");
            RaceDiagnostic::error(
                code,
                format!(
                    "{what} race on `{var}` in process {process}: {} unordered, unprotected \
                     access pair(s) across threads {}",
                    agg.pairs,
                    render_threads(&agg.threads)
                ),
            )
            .with_trace(trace)
            .with_span(Span::at(usize::try_from(offset).unwrap_or(usize::MAX)))
            .with_hint(format!(
                "protect `{var}` with one common lock, or order the accesses with a barrier"
            ))
        })
        .collect()
}

/// RC004: Eraser-style lockset warnings — a variable written by a
/// thread team with an empty *common* lockset and at least one
/// genuinely unordered pair.
fn unprotected(process: u32, traces: &[&TraceRaceFacts]) -> Vec<RaceDiagnostic> {
    let groups = access_groups(traces);
    let mut vars: BTreeSet<&str> = BTreeSet::new();
    for &(_, g) in &groups {
        vars.insert(&g.var);
    }
    let mut out = Vec::new();
    for var in vars {
        let mine: Vec<&(TraceId, &AccessGroup)> =
            groups.iter().filter(|(_, g)| g.var == var).collect();
        let threads: BTreeSet<TraceId> = mine.iter().map(|(t, _)| *t).collect();
        if threads.len() < 2 || !mine.iter().any(|(_, g)| g.kind == AccessKind::Write) {
            continue;
        }
        // The Eraser candidate set: locks held at *every* access.
        let mut common = mine[0].1.lockset.clone();
        for (_, g) in &mine[1..] {
            common = common.intersection(&g.lockset).cloned().collect();
        }
        if !common.is_empty() {
            continue;
        }
        // Only warn when some cross-thread pair is actually unordered —
        // strictly barrier-phased protocols are fine without locks.
        let unordered = mine.iter().enumerate().any(|(x, (ti, gi))| {
            mine[x + 1..]
                .iter()
                .any(|(tj, gj)| ti != tj && phases_overlap(gi, gj))
        });
        if !unordered {
            continue;
        }
        let anchor = mine
            .iter()
            .filter(|(_, g)| g.lockset.is_empty())
            .chain(mine.iter())
            .map(|(t, g)| (*t, g.first_offset))
            .min()
            .expect("non-empty access set");
        out.push(
            RaceDiagnostic::warning(
                RaceCode::Unprotected,
                format!(
                    "no single lock consistently protects `{var}` in process {process} \
                     (written by threads {})",
                    render_threads(&threads)
                ),
            )
            .with_trace(anchor.0)
            .with_span(Span::at(usize::try_from(anchor.1).unwrap_or(usize::MAX)))
            .with_hint(
                "the Eraser lockset for this variable is empty: every access should hold \
                 one common lock",
            ),
        );
    }
    out
}

/// RC003: cycles in the per-process lock-acquisition-order graph
/// (edge `h → l` when some thread acquires `l` while holding `h`).
fn lock_order(process: u32, traces: &[&TraceRaceFacts]) -> Vec<RaceDiagnostic> {
    // Edges with their earliest witness (trace, offset).
    let mut edges: BTreeMap<(String, String), (TraceId, u64)> = BTreeMap::new();
    for t in traces {
        for g in &t.groups {
            if g.kind != AccessKind::Acquire {
                continue;
            }
            for held in &g.lockset {
                if held == &g.var {
                    continue; // re-acquisition is not an ordering edge
                }
                let witness = (t.id, g.first_offset);
                edges
                    .entry((held.clone(), g.var.clone()))
                    .and_modify(|w| {
                        if witness < *w {
                            *w = witness;
                        }
                    })
                    .or_insert(witness);
            }
        }
    }
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (h, l) in edges.keys() {
        adj.entry(h).or_default().push(l);
        adj.entry(l).or_default();
    }
    let mut out = Vec::new();
    for cycle in cycles(&adj) {
        let chain: Vec<String> = cycle
            .iter()
            .chain(cycle.first())
            .map(|l| format!("`{l}`"))
            .collect();
        // Witness: the earliest edge of the cycle.
        let witness = cycle
            .iter()
            .zip(cycle.iter().cycle().skip(1))
            .filter_map(|(h, l)| edges.get(&(h.clone(), l.clone())))
            .min()
            .copied()
            .expect("cycle edges exist");
        out.push(
            RaceDiagnostic::error(
                RaceCode::LockOrder,
                format!(
                    "lock-order inversion in process {process}: acquisition order cycle {} \
                     — threads taking these locks in opposite orders can deadlock",
                    chain.join(" → ")
                ),
            )
            .with_trace(witness.0)
            .with_span(Span::at(usize::try_from(witness.1).unwrap_or(usize::MAX)))
            .with_hint("impose one global acquisition order on these locks"),
        );
    }
    out
}

/// One witness cycle per strongly-connected component of the lock
/// graph, deterministic: the shortest cycle through the component's
/// lexicographically smallest lock, components in that lock's order
/// ([`dt_diag::witness_cycles`] over the locks in name order).
fn cycles(adj: &BTreeMap<&str, Vec<&str>>) -> Vec<Vec<String>> {
    let nodes: Vec<&str> = adj.keys().copied().collect();
    let index = |t: &&str| nodes.binary_search(t).expect("every lock is a node");
    let edges: Vec<Vec<usize>> = adj
        .values()
        .map(|targets| {
            let mut v: Vec<usize> = targets.iter().map(index).collect();
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect();
    dt_diag::witness_cycles(&edges)
        .into_iter()
        .map(|cycle| cycle.into_iter().map(|i| nodes[i].to_string()).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(
        var: &str,
        kind: AccessKind,
        locks: &[&str],
        count: u64,
        offset: u64,
        phases: (u64, u64),
    ) -> AccessGroup {
        AccessGroup {
            var: var.to_string(),
            kind,
            lockset: locks.iter().map(|s| s.to_string()).collect(),
            count,
            first_offset: offset,
            phase_first: phases.0,
            phase_last: phases.1,
        }
    }

    fn facts(process: u32, thread: u32, groups: Vec<AccessGroup>) -> TraceRaceFacts {
        TraceRaceFacts {
            id: TraceId::new(process, thread),
            groups,
            barriers: 0,
            truncated: false,
        }
    }

    #[test]
    fn codes_are_stable() {
        assert_eq!(RaceCode::WriteWrite.as_str(), "RC001");
        assert_eq!(RaceCode::ReadWrite.as_str(), "RC002");
        assert_eq!(RaceCode::LockOrder.as_str(), "RC003");
        assert_eq!(RaceCode::Unprotected.as_str(), "RC004");
        assert_eq!(RaceCode::Unprotected.to_string(), "RC004");
    }

    #[test]
    fn unprotected_writes_fire_rc001_and_rc004() {
        let report = analyze(&[
            facts(0, 0, vec![group("c", AccessKind::Write, &[], 5, 3, (0, 0))]),
            facts(0, 1, vec![group("c", AccessKind::Write, &[], 5, 2, (0, 0))]),
        ]);
        assert!(report.codes().contains(&RaceCode::WriteWrite));
        assert!(report.codes().contains(&RaceCode::Unprotected));
        assert!(report.has_errors());
        let d = report
            .diagnostics()
            .iter()
            .find(|d| d.code == RaceCode::WriteWrite)
            .unwrap();
        assert_eq!(d.trace, Some(TraceId::new(0, 0)));
        assert_eq!(d.span, Some(Span::at(3)));
        assert!(d.message.contains("25 unordered"), "{}", d.message);
    }

    #[test]
    fn common_lock_silences_everything() {
        let report = analyze(&[
            facts(
                0,
                0,
                vec![
                    group("c", AccessKind::Write, &["l"], 5, 3, (0, 0)),
                    group("c", AccessKind::Read, &["l"], 5, 4, (0, 0)),
                ],
            ),
            facts(
                0,
                1,
                vec![group("c", AccessKind::Write, &["l"], 5, 2, (0, 0))],
            ),
        ]);
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn barrier_separation_silences_everything() {
        let report = analyze(&[
            facts(0, 0, vec![group("c", AccessKind::Write, &[], 5, 3, (0, 0))]),
            facts(0, 1, vec![group("c", AccessKind::Read, &[], 5, 2, (1, 1))]),
        ]);
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn read_write_mix_fires_rc002() {
        let report = analyze(&[
            facts(
                0,
                0,
                vec![group("c", AccessKind::Write, &["l"], 1, 3, (0, 0))],
            ),
            facts(0, 1, vec![group("c", AccessKind::Read, &[], 1, 2, (0, 0))]),
        ]);
        assert!(report.codes().contains(&RaceCode::ReadWrite));
        assert!(!report.codes().contains(&RaceCode::WriteWrite));
    }

    #[test]
    fn cross_process_accesses_never_race() {
        let report = analyze(&[
            facts(0, 0, vec![group("c", AccessKind::Write, &[], 5, 3, (0, 0))]),
            facts(1, 0, vec![group("c", AccessKind::Write, &[], 5, 2, (0, 0))]),
        ]);
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn lock_order_cycle_fires_rc003() {
        let report = analyze(&[
            facts(
                0,
                1,
                vec![group("B", AccessKind::Acquire, &["A"], 2, 10, (0, 0))],
            ),
            facts(
                0,
                2,
                vec![group("A", AccessKind::Acquire, &["B"], 2, 8, (0, 0))],
            ),
        ]);
        assert!(report.codes().contains(&RaceCode::LockOrder));
        let d = report.diagnostics()[0].clone();
        assert!(d.message.contains("`A` → `B` → `A`"), "{}", d.message);
        // Anchored at the cycle's earliest (trace, offset) edge witness.
        assert_eq!(d.trace, Some(TraceId::new(0, 1)));
        assert_eq!(d.span, Some(Span::at(10)));
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let report = analyze(&[
            facts(
                0,
                1,
                vec![group("B", AccessKind::Acquire, &["A"], 2, 10, (0, 0))],
            ),
            facts(
                0,
                2,
                vec![group("B", AccessKind::Acquire, &["A"], 2, 8, (0, 0))],
            ),
        ]);
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn three_lock_ring_renders_canonically() {
        let report = analyze(&[
            facts(
                0,
                1,
                vec![
                    group("B", AccessKind::Acquire, &["A"], 1, 1, (0, 0)),
                    group("C", AccessKind::Acquire, &["B"], 1, 2, (0, 0)),
                ],
            ),
            facts(
                0,
                2,
                vec![group("A", AccessKind::Acquire, &["C"], 1, 1, (0, 0))],
            ),
        ]);
        let d = report.diagnostics()[0].clone();
        assert!(d.message.contains("`A` → `B` → `C` → `A`"), "{}", d.message);
    }

    #[test]
    fn vocab_classifies_markers_and_barriers() {
        let reg = FunctionRegistry::new();
        let r = reg.intern("omp_read@x");
        let b = reg.intern("GOMP_barrier");
        let o = reg.intern("MPI_Send");
        let vocab = RaceVocab::build(&reg);
        assert_eq!(vocab.classify_fn(r), &RaceSym::Op(RaceOp::Read("x".into())));
        assert_eq!(vocab.classify_fn(b), &RaceSym::Barrier);
        assert_eq!(vocab.classify_fn(o), &RaceSym::Other);
        assert!(!vocab.is_empty());
        assert!(RaceVocab::build(&FunctionRegistry::new()).is_empty());
    }
}
