//! Expanded-domain rules: walk raw event streams and report findings
//! with precise event-offset spans.
//!
//! Each rule is a pure function from trace data to diagnostics; the
//! pipeline glue (parallel dispatch, gating) lives in `difftrace`.

#[cfg(test)]
use crate::Severity;
use crate::{Diagnostic, RuleCode, Span};
use dt_trace::{FunctionRegistry, Trace, TraceEvent, TraceId, TraceSet};
use fca::{BitSet, ConceptLattice, FormalContext};
use mpisim::collective::CollKind;
use nlr::{LoopTable, Nlr};
use std::collections::{HashMap, HashSet};

// ---------------------------------------------------------------------
// TL001 + TL003 — stack discipline and truncation (expanded).
// ---------------------------------------------------------------------

/// Walk one trace's call/return stream. Emits TL001 errors for every
/// stack-discipline violation (crossed returns, returns with nothing
/// open) at the exact event offset, and a single TL003 finding
/// describing the end state (open frames, truncation, emptiness).
pub fn check_stack_discipline(trace: &Trace, registry: &FunctionRegistry) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut stack: Vec<(u32, usize)> = Vec::new();
    for (i, e) in trace.iter().enumerate() {
        match e {
            TraceEvent::Call(f) => stack.push((f.0, i)),
            TraceEvent::Return(f) => match stack.pop() {
                Some((open, _)) if open == f.0 => {}
                Some((open, opened_at)) => out.push(
                    Diagnostic::error(
                        RuleCode::StackDiscipline,
                        format!(
                            "return from `{}` while `{}` (entered at event {}) is innermost",
                            name_of(registry, f.0),
                            name_of(registry, open),
                            opened_at,
                        ),
                    )
                    .with_trace(trace.id)
                    .with_span(Span::at(i))
                    .with_hint("calls and returns must nest; the tracer likely missed an event"),
                ),
                None => out.push(
                    Diagnostic::error(
                        RuleCode::StackDiscipline,
                        format!("return from `{}` with no open call", name_of(registry, f.0)),
                    )
                    .with_trace(trace.id)
                    .with_span(Span::at(i)),
                ),
            },
        }
    }
    out.extend(end_state_diag(
        trace.id,
        trace.events.len(),
        trace.truncated,
        &stack,
        registry,
    ));
    out
}

/// The TL003 end-state finding shared by the expanded walk above.
/// `stack` holds the still-open `(fn_id, opened_at)` frames.
fn end_state_diag(
    id: TraceId,
    len: usize,
    truncated: bool,
    stack: &[(u32, usize)],
    registry: &FunctionRegistry,
) -> Option<Diagnostic> {
    if len == 0 {
        return Some(
            Diagnostic::warning(RuleCode::Truncation, "empty trace: no events were recorded")
                .with_trace(id)
                .with_hint("the thread may have been spawned but never instrumented"),
        );
    }
    if !stack.is_empty() {
        let (inner, opened_at) = *stack.last().expect("non-empty stack");
        return Some(if truncated {
            Diagnostic::warning(
                RuleCode::Truncation,
                format!(
                    "truncated trace: {} call(s) still open; innermost `{}` entered at event {} \
                     never returned (hang signature)",
                    stack.len(),
                    name_of(registry, inner),
                    opened_at,
                ),
            )
            .with_trace(id)
            .with_span(Span::new(opened_at, len))
        } else {
            let (_, first_open) = stack[0];
            Diagnostic::error(
                RuleCode::Truncation,
                format!(
                    "{} call(s) never returned in a trace not flagged truncated",
                    stack.len()
                ),
            )
            .with_trace(id)
            .with_span(Span::new(first_open, len))
            .with_hint("either the capture was cut short (flag it truncated) or events were lost")
        });
    }
    if truncated {
        return Some(
            Diagnostic::warning(
                RuleCode::Truncation,
                "trace flagged truncated but its call/return stream is balanced",
            )
            .with_trace(id),
        );
    }
    None
}

fn name_of(registry: &FunctionRegistry, fn_id: u32) -> String {
    registry.name(dt_trace::FnId(fn_id))
}

// ---------------------------------------------------------------------
// TL002 — cross-rank collective order (expanded).
// ---------------------------------------------------------------------

/// Is `name` an MPI collective? Delegates to the simulator's
/// [`CollKind`] catalog; `MPI_Alltoall` is traced by real applications
/// but not modelled by the simulator, so it is recognized by name.
pub fn is_collective_name(name: &str) -> bool {
    CollKind::from_mpi_name(name).is_some() || name == "MPI_Alltoall"
}

/// The function IDs in `registry` that are collectives.
pub fn collective_fn_ids(registry: &FunctionRegistry) -> HashSet<u32> {
    registry
        .names()
        .iter()
        .enumerate()
        .filter(|(_, n)| is_collective_name(n))
        .map(|(i, _)| i as u32)
        .collect()
}

/// Where a rank's collective order first departs from the reference
/// rank's. Ordinals count collectives (0-based), not raw events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollDivergence {
    /// A different collective at ordinal `ordinal`.
    Mismatch {
        /// First divergent collective ordinal.
        ordinal: u64,
        /// What the reference rank issued there.
        want: u32,
        /// What this rank issued instead.
        got: u32,
    },
    /// The rank stopped issuing collectives early without being
    /// truncated (a truncated rank's shorter sequence is the expected
    /// hang signature, not an inconsistency).
    Shortfall {
        /// Ordinal of the first missing collective.
        ordinal: u64,
        /// The collective the reference issued there.
        want: u32,
    },
    /// The rank issued more collectives than the (non-truncated)
    /// reference.
    Excess {
        /// Ordinal of the first extra collective.
        ordinal: u64,
        /// The extra collective.
        got: u32,
    },
}

/// Compare one rank's collective sequence against the reference
/// rank's. Both implementations (expanded here, compressed in
/// [`crate::compressed`]) reduce to this verdict, which is what the
/// agreement property is stated over.
pub fn divergence(
    reference: &[u32],
    ref_truncated: bool,
    seq: &[u32],
    truncated: bool,
) -> Option<CollDivergence> {
    let common = reference.len().min(seq.len());
    for j in 0..common {
        if reference[j] != seq[j] {
            return Some(CollDivergence::Mismatch {
                ordinal: j as u64,
                want: reference[j],
                got: seq[j],
            });
        }
    }
    if seq.len() < reference.len() && !truncated {
        return Some(CollDivergence::Shortfall {
            ordinal: seq.len() as u64,
            want: reference[seq.len()],
        });
    }
    if seq.len() > reference.len() && !ref_truncated {
        return Some(CollDivergence::Excess {
            ordinal: reference.len() as u64,
            got: seq[reference.len()],
        });
    }
    None
}

/// One rank's collective-call sequence, with the trace/event site of
/// every collective so diagnostics can point at exact offsets.
#[derive(Debug, Clone)]
pub struct RankCollSeq {
    /// The rank.
    pub process: u32,
    /// Collective function IDs in issue order (threads concatenated in
    /// thread order; in practice collectives live on the master).
    pub seq: Vec<u32>,
    /// `(trace, event offset)` of each entry in `seq`.
    pub sites: Vec<(TraceId, usize)>,
    /// True if any of the rank's traces is truncated.
    pub truncated: bool,
}

/// Extract every rank's collective sequence from raw traces.
pub fn collective_sequences(set: &TraceSet) -> Vec<RankCollSeq> {
    let coll = collective_fn_ids(&set.registry);
    set.processes()
        .into_iter()
        .map(|p| {
            let mut seq = Vec::new();
            let mut sites = Vec::new();
            let mut truncated = false;
            for t in set.process_traces(p) {
                truncated |= t.truncated;
                for (i, e) in t.iter().enumerate() {
                    if let TraceEvent::Call(f) = e {
                        if coll.contains(&f.0) {
                            seq.push(f.0);
                            sites.push((t.id, i));
                        }
                    }
                }
            }
            RankCollSeq {
                process: p,
                seq,
                sites,
                truncated,
            }
        })
        .collect()
}

/// TL002 over a full trace set: every rank must issue the same
/// collective order as the lowest rank (MPI's matching rule — a rank
/// arriving at a different collective can never complete).
///
/// The diagnostic carries the happens-before frontier reconstructed
/// with `mpisim::hb`'s [`mpisim::hb::VectorClock`]: each consistently
/// ordered collective synchronizes all ranks, so the per-rank
/// collective counts, merged into one clock, summarize how far the
/// ranks got together before diverging.
pub fn check_collective_order(set: &TraceSet) -> Vec<Diagnostic> {
    let seqs = collective_sequences(set);
    diagnose_collective_order(&seqs, &set.registry)
}

/// Diagnostic construction shared with the engine: takes pre-extracted
/// sequences so the compressed path can reuse the messages via its own
/// extraction.
pub fn diagnose_collective_order(
    seqs: &[RankCollSeq],
    registry: &FunctionRegistry,
) -> Vec<Diagnostic> {
    if seqs.len() < 2 {
        return Vec::new();
    }
    let reference = &seqs[0];
    // Happens-before frontier: merge each rank's collective-count
    // clock. The consistent prefix is how many rounds *everyone*
    // completed in the same order.
    let mut frontier = mpisim::hb::VectorClock::zero(seqs.len());
    for (i, s) in seqs.iter().enumerate() {
        let mut clock = mpisim::hb::VectorClock::zero(seqs.len());
        clock.0[i] = s.seq.len() as u64;
        frontier.merge(&clock);
    }
    let mut diags = Vec::new();
    let mut consistent = reference.seq.len() as u64;
    let mut findings = Vec::new();
    for s in &seqs[1..] {
        let d = divergence(&reference.seq, reference.truncated, &s.seq, s.truncated);
        let agreed = match d {
            Some(
                CollDivergence::Mismatch { ordinal, .. }
                | CollDivergence::Shortfall { ordinal, .. }
                | CollDivergence::Excess { ordinal, .. },
            ) => ordinal,
            None => reference.seq.len().min(s.seq.len()) as u64,
        };
        consistent = consistent.min(agreed);
        if let Some(d) = d {
            findings.push((s, d));
        }
    }
    for (s, d) in findings {
        let (message, site) = match d {
            CollDivergence::Mismatch { ordinal, want, got } => (
                format!(
                    "rank {} diverges from rank {} at collective #{}: expected `{}`, found `{}`",
                    s.process,
                    reference.process,
                    ordinal,
                    name_of(registry, want),
                    name_of(registry, got),
                ),
                s.sites.get(ordinal as usize).copied(),
            ),
            CollDivergence::Shortfall { ordinal, want } => (
                format!(
                    "rank {} issued only {} collective(s) but rank {} continues with `{}` \
                     at collective #{}",
                    s.process,
                    s.seq.len(),
                    reference.process,
                    name_of(registry, want),
                    ordinal,
                ),
                s.sites.last().copied(),
            ),
            CollDivergence::Excess { ordinal, got } => (
                format!(
                    "rank {} issues an extra collective `{}` at #{} beyond rank {}'s {} \
                     collective(s)",
                    s.process,
                    name_of(registry, got),
                    ordinal,
                    reference.process,
                    reference.seq.len(),
                ),
                s.sites.get(ordinal as usize).copied(),
            ),
        };
        let message = format!(
            "{message}; collective frontier {frontier} (all ranks agree on the first {consistent} \
             collective(s))"
        );
        let mut diag = Diagnostic::error(RuleCode::CollectiveOrder, message).with_hint(
            "all ranks of a communicator must issue the same collective sequence; \
             diff the diverging rank's NLR against the reference rank's",
        );
        if let Some((trace, offset)) = site {
            diag = diag.with_trace(trace).with_span(Span::at(offset));
        } else {
            diag = diag.with_trace(TraceId::master(s.process));
        }
        diags.push(diag);
    }
    diags
}

// ---------------------------------------------------------------------
// TL005 — NLR lossless roundtrip.
// ---------------------------------------------------------------------

/// Verify that expanding `nlr` reproduces `symbols` exactly. The NLR
/// summarization is lossless by construction; a mismatch means the
/// loop table was corrupted (e.g. by a bad canonical remap).
pub fn check_roundtrip(
    id: TraceId,
    symbols: &[u32],
    nlr: &Nlr,
    table: &LoopTable,
) -> Vec<Diagnostic> {
    let expanded = nlr.expand(table);
    if expanded == symbols {
        return Vec::new();
    }
    let at = expanded
        .iter()
        .zip(symbols.iter())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| expanded.len().min(symbols.len()));
    vec![Diagnostic::error(
        RuleCode::NlrRoundtrip,
        format!(
            "NLR expansion diverges from the original stream at event {at} \
             (expanded {} events, original {})",
            expanded.len(),
            symbols.len(),
        ),
    )
    .with_trace(id)
    .with_span(Span::at(at))
    .with_hint("the loop table no longer matches this term — check loop-ID remapping")]
}

// ---------------------------------------------------------------------
// TL006 — FCA lattice postconditions (Godin invariants).
// ---------------------------------------------------------------------

/// Check the Godin-style postconditions of an incrementally built
/// concept lattice against its formal context:
///
/// 1. every intent is *closed* (the intersection of its extent's
///    attribute rows),
/// 2. every extent is *maximal* (all objects whose attributes contain
///    the intent),
/// 3. intents are unique,
/// 4. a top concept (all objects) and a bottom concept (all attributes)
///    exist,
/// 5. intents are closed under pairwise intersection (the lattice is a
///    complete meet-semilattice).
///
/// Runs in O(concepts² · attrs/64): expensive, hence behind `--deep`.
pub fn check_lattice(lattice: &ConceptLattice, ctx: &FormalContext) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let n = ctx.num_objects();
    let concepts = lattice.concepts();
    if n == 0 {
        return out;
    }
    if concepts.is_empty() {
        out.push(Diagnostic::error(
            RuleCode::LatticeInvariant,
            format!("lattice is empty for a context with {n} object(s)"),
        ));
        return out;
    }
    let rows: Vec<BitSet> = (0..n).map(|g| ctx.object_attrs(g).canonical()).collect();
    let mut all_attrs = BitSet::new();
    for r in &rows {
        all_attrs = all_attrs.union(r);
    }
    let all_attrs = all_attrs.canonical();

    let mut intents: HashMap<BitSet, usize> = HashMap::new();
    for (ci, c) in concepts.iter().enumerate() {
        let intent = c.intent.canonical();
        // (0) extents must reference objects of *this* context.
        if c.extent.iter().any(|g| g >= n) {
            out.push(Diagnostic::error(
                RuleCode::LatticeInvariant,
                format!(
                    "concept #{ci}: extent references an object outside the context \
                     ({n} object(s))"
                ),
            ));
            continue;
        }
        // (1) intent = closure of extent.
        let mut closure = all_attrs.clone();
        for g in c.extent.iter() {
            closure = closure.intersection(&rows[g]);
        }
        if closure.canonical() != intent {
            out.push(Diagnostic::error(
                RuleCode::LatticeInvariant,
                format!("concept #{ci}: intent is not the closure of its extent (Godin invariant)"),
            ));
        }
        // (2) extent = all objects carrying the intent.
        let extent: BitSet =
            BitSet::from_indices((0..n).filter(|&g| intent.is_subset(&rows[g]))).canonical();
        if extent != c.extent.canonical() {
            out.push(Diagnostic::error(
                RuleCode::LatticeInvariant,
                format!("concept #{ci}: extent is not maximal for its intent"),
            ));
        }
        // (3) intents unique.
        if let Some(prev) = intents.insert(intent, ci) {
            out.push(Diagnostic::error(
                RuleCode::LatticeInvariant,
                format!("concepts #{prev} and #{ci} share the same intent"),
            ));
        }
    }
    // (4) top and bottom.
    if !concepts.iter().any(|c| c.extent_len() == n) {
        out.push(Diagnostic::error(
            RuleCode::LatticeInvariant,
            "no top concept: no concept's extent covers every object",
        ));
    }
    if !concepts.iter().any(|c| c.intent.canonical() == all_attrs) {
        out.push(Diagnostic::error(
            RuleCode::LatticeInvariant,
            "no bottom concept: no concept's intent holds every attribute",
        ));
    }
    // (5) meet closure: pairwise intent intersections are intents.
    let keys: Vec<&BitSet> = intents.keys().collect();
    'outer: for i in 0..keys.len() {
        for j in (i + 1)..keys.len() {
            let meet = keys[i].intersection(keys[j]).canonical();
            if !intents.contains_key(&meet) {
                out.push(Diagnostic::error(
                    RuleCode::LatticeInvariant,
                    "intents are not meet-closed: an intent intersection is missing \
                     from the lattice",
                ));
                break 'outer;
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use dt_trace::FnId;
    use std::sync::Arc;

    fn reg() -> Arc<FunctionRegistry> {
        Arc::new(FunctionRegistry::new())
    }

    fn trace_of(reg: &FunctionRegistry, id: TraceId, script: &[(&str, bool)]) -> Trace {
        let mut t = Trace::new(id);
        for (name, is_ret) in script {
            let f = reg.intern(name);
            t.push(if *is_ret {
                TraceEvent::Return(f)
            } else {
                TraceEvent::Call(f)
            });
        }
        t
    }

    #[test]
    fn balanced_trace_is_clean() {
        let r = reg();
        let t = trace_of(
            &r,
            TraceId::master(0),
            &[("main", false), ("f", false), ("f", true), ("main", true)],
        );
        assert!(check_stack_discipline(&t, &r).is_empty());
    }

    #[test]
    fn crossed_return_is_tl001_with_offset() {
        let r = reg();
        let t = trace_of(
            &r,
            TraceId::master(0),
            &[("a", false), ("b", false), ("a", true)],
        );
        let ds = check_stack_discipline(&t, &r);
        let tl001: Vec<_> = ds
            .iter()
            .filter(|d| d.code == RuleCode::StackDiscipline)
            .collect();
        assert_eq!(tl001.len(), 1);
        assert_eq!(tl001[0].span, Some(Span::at(2)));
        assert_eq!(tl001[0].severity, Severity::Error);
        assert!(tl001[0].message.contains("`a`"));
        assert!(tl001[0].message.contains("`b`"));
    }

    #[test]
    fn return_with_no_open_call() {
        let r = reg();
        let t = trace_of(&r, TraceId::master(0), &[("x", true)]);
        let ds = check_stack_discipline(&t, &r);
        assert!(ds
            .iter()
            .any(|d| d.code == RuleCode::StackDiscipline && d.message.contains("no open call")));
    }

    #[test]
    fn truncation_severities() {
        let r = reg();
        // Open frame, not truncated → TL003 error.
        let t = trace_of(&r, TraceId::master(0), &[("main", false)]);
        let ds = check_stack_discipline(&t, &r);
        assert!(ds
            .iter()
            .any(|d| d.code == RuleCode::Truncation && d.severity == Severity::Error));
        // Same stream flagged truncated → warning with hang span.
        let mut t2 = t.clone();
        t2.truncated = true;
        let ds = check_stack_discipline(&t2, &r);
        let tl003 = ds
            .iter()
            .find(|d| d.code == RuleCode::Truncation)
            .expect("TL003");
        assert_eq!(tl003.severity, Severity::Warning);
        assert_eq!(tl003.span, Some(Span::new(0, 1)));
        assert!(tl003.message.contains("hang signature"));
        // Empty trace → warning.
        let empty = Trace::new(TraceId::master(1));
        let ds = check_stack_discipline(&empty, &r);
        assert!(ds.iter().any(|d| d.code == RuleCode::Truncation
            && d.severity == Severity::Warning
            && d.message.contains("empty")));
    }

    #[test]
    fn divergence_cases() {
        // Mismatch beats length difference.
        assert_eq!(
            divergence(&[1, 2, 3], false, &[1, 9], false),
            Some(CollDivergence::Mismatch {
                ordinal: 1,
                want: 2,
                got: 9
            })
        );
        assert_eq!(
            divergence(&[1, 2, 3], false, &[1, 2], false),
            Some(CollDivergence::Shortfall {
                ordinal: 2,
                want: 3
            })
        );
        // Truncated shorter side is the hang signature, not divergence.
        assert_eq!(divergence(&[1, 2, 3], false, &[1, 2], true), None);
        assert_eq!(
            divergence(&[1], false, &[1, 2], false),
            Some(CollDivergence::Excess { ordinal: 1, got: 2 })
        );
        assert_eq!(divergence(&[1], true, &[1, 2], false), None);
        assert_eq!(divergence(&[1, 2], false, &[1, 2], false), None);
    }

    #[test]
    fn collective_order_across_ranks() {
        let r = reg();
        let mut set = TraceSet::new(r.clone());
        for p in 0..3u32 {
            let script: Vec<(&str, bool)> = if p == 2 {
                vec![
                    ("MPI_Barrier", false),
                    ("MPI_Barrier", true),
                    ("MPI_Reduce", false), // others do Allreduce here
                    ("MPI_Reduce", true),
                ]
            } else {
                vec![
                    ("MPI_Barrier", false),
                    ("MPI_Barrier", true),
                    ("MPI_Allreduce", false),
                    ("MPI_Allreduce", true),
                ]
            };
            set.insert(trace_of(&r, TraceId::master(p), &script));
        }
        let ds = check_collective_order(&set);
        assert_eq!(ds.len(), 1);
        let d = &ds[0];
        assert_eq!(d.code, RuleCode::CollectiveOrder);
        assert_eq!(d.trace, Some(TraceId::master(2)));
        // Collective #1 of rank 2 sits at event offset 2.
        assert_eq!(d.span, Some(Span::at(2)));
        assert!(d.message.contains("expected `MPI_Allreduce`"));
        assert!(d.message.contains("found `MPI_Reduce`"));
        assert!(d.message.contains("agree on the first 1"));
        // Frontier rendered via mpisim's vector clock Display.
        assert!(d.message.contains('⟨'));
    }

    #[test]
    fn roundtrip_detects_table_corruption() {
        let r = reg();
        let f = r.intern("f");
        let g = r.intern("g");
        let syms: Vec<u32> = std::iter::repeat_n([f, g], 6)
            .flatten()
            .flat_map(|x| {
                [
                    TraceEvent::Call(x).to_symbol(),
                    TraceEvent::Return(x).to_symbol(),
                ]
            })
            .collect();
        let mut table = LoopTable::new();
        let term = nlr::NlrBuilder::new(10).build(&syms, &mut table);
        assert!(check_roundtrip(TraceId::master(0), &syms, &term, &table).is_empty());
        // A table whose loop IDs resolve to different bodies breaks the
        // roundtrip.
        let mut wrong = LoopTable::new();
        for i in 0..8u32 {
            wrong.intern(vec![nlr::Element::Sym(1000 + i)]);
        }
        assert!(
            term.loop_count() > 0,
            "periodic input must compress to a loop"
        );
        let ds = check_roundtrip(TraceId::master(0), &syms, &term, &wrong);
        assert!(!ds.is_empty());
        assert_eq!(ds[0].code, RuleCode::NlrRoundtrip);
        let _ = FnId(0);
    }

    #[test]
    fn lattice_invariants_hold_for_real_lattice() {
        let mut ctx = FormalContext::new();
        ctx.add_object_unweighted("g1", ["a", "b"]);
        ctx.add_object_unweighted("g2", ["b", "c"]);
        ctx.add_object_unweighted("g3", ["a", "b", "c"]);
        let lattice = ConceptLattice::from_context(&ctx);
        assert!(check_lattice(&lattice, &ctx).is_empty());
        // An unrelated context must violate the invariants.
        let mut other = FormalContext::new();
        other.add_object_unweighted("x", ["p"]);
        other.add_object_unweighted("y", ["q"]);
        assert!(!check_lattice(&lattice, &other).is_empty());
    }
}
