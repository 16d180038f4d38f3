//! `hbcheck` — happens-before analysis over recorded runs.
//!
//! A static semantic analyzer for the causally-stamped logs
//! ([`dt_trace::hb::HbLog`]) that the simulated MPI runtime exports
//! alongside its ParLOT-style call traces. Where `tracelint` checks the
//! *traces* (call/return streams), `hbcheck` checks the *run*: it
//! reconstructs who was waiting on whom when the execution ended and
//! turns that into actionable diagnostics.
//!
//! # Rule catalog
//!
//! | code  | severity | meaning |
//! |-------|----------|---------|
//! | HB001 | error    | wait-for cycle: a set of ranks each blocked on the next — true deadlock |
//! | HB002 | error    | blocked operation that can never be matched (peer finished, collective signature mismatch, collective missing a finished rank) |
//! | HB003 | warning  | messages sent but never received |
//! | HB004 | warning  | concurrent (racy) sends on one `(dst, tag)` channel |
//! | HB005 | warning  | least-progressed-rank hang triage (PRODOMETER-style) |
//!
//! # Domains
//!
//! The per-trace side of the analysis (per-rank progress counts, the
//! open call chain at truncation) has two implementations with
//! identical verdicts: [`expanded`] scans the expanded symbol streams;
//! [`compressed`] walks NLR terms directly with the shared
//! `nlr::Summarizer`, summarizing each loop body once and applying
//! closed forms for the repetition — the same walk, and the same
//! `nlr::summary::StackEffect`, as `tracelint`'s TL001–TL003 checks.
//! Property tests assert the two agree event-for-event.

pub mod compressed;
pub mod expanded;
pub mod graph;

use dt_trace::hb::HbLog;
use dt_trace::{FnId, FunctionRegistry, TraceId};
use std::collections::BTreeMap;
use std::fmt;

pub use dt_diag::{Severity, Span};
pub use graph::WaitForGraph;

/// A diagnostic carrying an [`HbCode`].
pub type HbDiagnostic = dt_diag::Diagnostic<HbCode>;

/// A canonical, sorted report of HB diagnostics.
pub type HbReport = dt_diag::Report<HbCode>;

/// Stable rule codes (HB001–HB005).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HbCode {
    /// HB001: wait-for-graph deadlock cycle.
    WaitCycle,
    /// HB002: blocked operation with no possible matching peer.
    OrphanOp,
    /// HB003: sends that were never received.
    UnmatchedSend,
    /// HB004: concurrent racy sends on one channel.
    RacyChannel,
    /// HB005: least-progressed-rank hang triage.
    Triage,
}

impl HbCode {
    /// The stable `HBnnn` code string.
    pub fn as_str(self) -> &'static str {
        match self {
            HbCode::WaitCycle => "HB001",
            HbCode::OrphanOp => "HB002",
            HbCode::UnmatchedSend => "HB003",
            HbCode::RacyChannel => "HB004",
            HbCode::Triage => "HB005",
        }
    }

    /// Short human title of the rule family.
    pub fn title(self) -> &'static str {
        match self {
            HbCode::WaitCycle => "wait-for cycle",
            HbCode::OrphanOp => "orphaned operation",
            HbCode::UnmatchedSend => "unmatched sends",
            HbCode::RacyChannel => "racy channel",
            HbCode::Triage => "hang triage",
        }
    }
}

impl fmt::Display for HbCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl dt_diag::Code for HbCode {
    const ALL: &'static [HbCode] = &[
        HbCode::WaitCycle,
        HbCode::OrphanOp,
        HbCode::UnmatchedSend,
        HbCode::RacyChannel,
        HbCode::Triage,
    ];

    fn as_str(self) -> &'static str {
        HbCode::as_str(self)
    }
    fn title(self) -> &'static str {
        HbCode::title(self)
    }
}

/// Per-trace progress facts, derivable in either domain.
///
/// [`expanded::summarize`] and [`compressed::summarize`]
/// must produce *equal* values for the same trace — that equality is
/// what "verdict agreement" means for `hbcheck`, since [`analyze`]
/// is a pure function of the [`HbLog`] and these summaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceProgress {
    /// Which trace.
    pub id: TraceId,
    /// Total symbol count of the original stream (calls + returns).
    pub len: usize,
    /// Call-event count per function ID.
    pub calls: BTreeMap<u32, u64>,
    /// Function IDs of the calls still open at the end of the stream,
    /// outermost first (innermost last) — the hang signature.
    pub open_stack: Vec<u32>,
    /// Whether the trace was flagged truncated by the tracer.
    pub truncated: bool,
}

impl TraceProgress {
    /// Number of `MPI_*` call events, given the registry that interned
    /// the function IDs.
    pub fn mpi_calls(&self, registry: &FunctionRegistry) -> u64 {
        self.calls
            .iter()
            .filter(|(&f, _)| registry.name(FnId(f)).starts_with("MPI_"))
            .map(|(_, &n)| n)
            .sum()
    }

    /// Name of the innermost open call, if any.
    pub fn innermost_open(&self, registry: &FunctionRegistry) -> Option<String> {
        self.open_stack.last().map(|&f| registry.name(FnId(f)))
    }
}

/// Run every HB rule over one recorded execution.
///
/// `progress` carries the per-trace facts (from either domain — see
/// [`TraceProgress`]); `registry` resolves function IDs. The report is
/// canonically sorted and independent of `progress` order.
pub fn analyze(hb: &HbLog, progress: &[TraceProgress], registry: &FunctionRegistry) -> HbReport {
    let mut diags: Vec<HbDiagnostic> = Vec::new();
    let by_id: BTreeMap<TraceId, &TraceProgress> = progress.iter().map(|p| (p.id, p)).collect();
    let master = |r: u32| by_id.get(&TraceId::master(r)).copied();

    let graph = WaitForGraph::build(hb);
    let blocked: BTreeMap<u32, &dt_trace::hb::BlockedOp> =
        hb.blocked.iter().map(|b| (b.rank, b)).collect();

    // HB001: one witness cycle per strongly-connected wait-for
    // component, rendered rank-by-rank.
    for cycle in graph.cycles() {
        let chain = cycle
            .iter()
            .map(|&r| {
                let b = blocked[&r];
                format!("rank {r} blocked in {}", b.op.describe(&b.name))
            })
            .collect::<Vec<_>>()
            .join(" → ");
        let confirm: Vec<String> = cycle
            .iter()
            .filter_map(|&r| {
                let open = master(r)?.innermost_open(registry)?;
                Some(format!("rank {r} trace ends inside `{open}`"))
            })
            .collect();
        let mut d = HbDiagnostic::error(
            HbCode::WaitCycle,
            format!(
                "deadlock: wait-for cycle — {chain} → back to rank {}",
                cycle[0]
            ),
        );
        if !confirm.is_empty() {
            d = d.with_hint(format!("confirmed by the traces: {}", confirm.join("; ")));
        }
        diags.push(d);
    }

    // HB002: blocked operations that can never complete, anchored to
    // the blocked (or offending) rank's trace at its final event.
    let anchor = |r: u32| -> (Option<Span>, TraceId) {
        let id = TraceId::master(r);
        let span = master(r).filter(|p| p.len > 0).map(|p| Span::at(p.len - 1));
        (span, id)
    };
    let finished = |r: u32| hb.finished.contains(&r);
    for b in &hb.blocked {
        let peer = match b.op {
            dt_trace::hb::HbOp::Recv { src: Some(s), .. } => Some(("send", s)),
            dt_trace::hb::HbOp::Send {
                dst,
                rendezvous: true,
                ..
            } => Some(("receive", dst)),
            _ => None,
        };
        if let Some((verb, peer)) = peer {
            if finished(peer) {
                let (span, id) = anchor(b.rank);
                let mut d = HbDiagnostic::error(
                    HbCode::OrphanOp,
                    format!(
                        "rank {} blocked in {}, but rank {peer} already finished — \
                         no matching {verb} can ever arrive",
                        b.rank,
                        b.op.describe(&b.name)
                    ),
                )
                .with_trace(id);
                if let Some(s) = span {
                    d = d.with_span(s);
                }
                diags.push(d);
            }
        }
    }
    for pc in &hb.pending_collectives {
        for &m in &pc.mismatched {
            let (span, id) = anchor(m);
            let mut d = HbDiagnostic::error(
                HbCode::OrphanOp,
                format!(
                    "rank {m} arrived at {}(slot={}) with a mismatched signature; \
                     the collective can never complete",
                    pc.name, pc.slot
                ),
            )
            .with_trace(id);
            if let Some(s) = span {
                d = d.with_span(s);
            }
            diags.push(d);
        }
        let deserters: Vec<u32> = (0..hb.world_size() as u32)
            .filter(|&r| finished(r) && !pc.arrived.contains(&r))
            .collect();
        if !deserters.is_empty() {
            diags.push(HbDiagnostic::error(
                HbCode::OrphanOp,
                format!(
                    "{}(slot={}) can never complete: rank(s) {} finished without joining it",
                    pc.name,
                    pc.slot,
                    render_ranks(&deserters)
                ),
            ));
        }
    }

    // HB003: sends nobody received.
    for u in &hb.unmatched_sends {
        diags.push(
            HbDiagnostic::warning(
                HbCode::UnmatchedSend,
                format!(
                    "rank {} sent {} message(s) to rank {} (tag {}) that were never received",
                    u.src, u.count, u.dst, u.tag
                ),
            )
            .with_trace(TraceId::master(u.src)),
        );
    }

    // HB004: concurrent sends racing on one (dst, tag) channel — the
    // wildcard-receive nondeterminism source. One diagnostic per
    // channel, with the first racy pair as the witness.
    diags.extend(racy_channels(hb));

    // HB005: PRODOMETER-style triage, only for runs that hung.
    if !hb.blocked.is_empty() || progress.iter().any(|p| p.truncated) {
        diags.extend(triage(hb, progress, registry));
    }

    HbReport::new(diags)
}

/// `1, 2, 5` renderer for rank lists.
fn render_ranks(ranks: &[u32]) -> String {
    ranks
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

/// HB004: group send events by `(dst, tag)` channel and count
/// causally-concurrent pairs from different sources. The example pair
/// is the one with the smallest (rank, rank, name, name), each pair
/// taken lower rank first, so the text depends on the log's content
/// and not on the order its events were recorded in.
fn racy_channels(hb: &HbLog) -> Vec<HbDiagnostic> {
    let mut channels: BTreeMap<(u32, i32), Vec<(usize, u32)>> = BTreeMap::new();
    for i in 0..hb.len() {
        if let dt_trace::hb::HbOp::Send { dst, tag, .. } = hb.op_of(i) {
            channels
                .entry((dst, tag))
                .or_default()
                .push((i, hb.trace_of(i).process));
        }
    }
    let mut out = Vec::new();
    for ((dst, tag), sends) in channels {
        let mut racy = 0u64;
        let mut witness: Option<(u32, u32, &str, &str)> = None;
        for (x, &(i, pi)) in sends.iter().enumerate() {
            for &(j, pj) in &sends[x + 1..] {
                if pi != pj && hb.concurrent(i, j) {
                    racy += 1;
                    let pair = if pi < pj {
                        (pi, pj, hb.name_of(i), hb.name_of(j))
                    } else {
                        (pj, pi, hb.name_of(j), hb.name_of(i))
                    };
                    witness = Some(witness.map_or(pair, |w| w.min(pair)));
                }
            }
        }
        if let Some((pi, pj, ni, nj)) = witness {
            out.push(
                HbDiagnostic::warning(
                    HbCode::RacyChannel,
                    format!(
                        "{racy} concurrent send pair(s) race on channel (dst={dst}, tag={tag}); \
                         e.g. {ni} from rank {pi} ‖ {nj} from rank {pj}"
                    ),
                )
                .with_hint(
                    "a wildcard receive on this channel may observe either order across runs",
                ),
            );
        }
    }
    out
}

/// HB005: the ranked per-rank progress table, least progressed first.
fn triage(
    hb: &HbLog,
    progress: &[TraceProgress],
    registry: &FunctionRegistry,
) -> Vec<HbDiagnostic> {
    let least = hb.least_progressed_ranks();
    let last = hb.last_event_per_rank();
    let mut rows: Vec<(u64, u32, String)> = Vec::new();
    for r in 0..hb.world_size() as u32 {
        let p = progress.iter().find(|p| p.id == TraceId::master(r));
        let mpi = p.map_or(0, |p| p.mpi_calls(registry));
        let last_desc = last.get(r as usize).and_then(|e| e.as_ref()).map_or_else(
            || "no events".to_string(),
            |e| format!("{} {}", e.name, e.vc),
        );
        let marker = if least.contains(&r) { " [least]" } else { "" };
        rows.push((
            mpi,
            r,
            format!("rank {r}: {mpi} MPI call(s), last {last_desc}{marker}"),
        ));
    }
    rows.sort_by_key(|&(mpi, r, _)| (mpi, r));
    let table = rows
        .iter()
        .map(|(_, _, s)| s.as_str())
        .collect::<Vec<_>>()
        .join("; ");
    vec![HbDiagnostic::warning(
        HbCode::Triage,
        format!(
            "hang triage: least-progressed rank(s) {} — {table}",
            render_ranks(&least)
        ),
    )
    .with_hint("the least-progressed rank is where PRODOMETER would point first")]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_trace::hb::{
        BlockedOp, HbOp, PendingCollective, UnmatchedSend as Unmatched, VectorClock,
    };

    fn registry_with(names: &[&str]) -> FunctionRegistry {
        let r = FunctionRegistry::new();
        for n in names {
            r.intern(n);
        }
        r
    }

    fn log2() -> HbLog {
        let mut hb = HbLog::new(2);
        let mut c0 = VectorClock::zero(2);
        let mut c1 = VectorClock::zero(2);
        c0.tick(0);
        hb.push(TraceId::master(0), "MPI_Init", HbOp::Local, &c0);
        c1.tick(1);
        hb.push(TraceId::master(1), "MPI_Init", HbOp::Local, &c1);
        c0.tick(0);
        hb.push(
            TraceId::master(0),
            "MPI_Recv",
            HbOp::Recv {
                src: Some(1),
                tag: 0,
            },
            &c0,
        );
        c1.tick(1);
        hb.push(
            TraceId::master(1),
            "MPI_Recv",
            HbOp::Recv {
                src: Some(0),
                tag: 0,
            },
            &c1,
        );
        hb
    }

    #[test]
    fn codes_are_stable() {
        assert_eq!(HbCode::WaitCycle.as_str(), "HB001");
        assert_eq!(HbCode::OrphanOp.as_str(), "HB002");
        assert_eq!(HbCode::UnmatchedSend.as_str(), "HB003");
        assert_eq!(HbCode::RacyChannel.as_str(), "HB004");
        assert_eq!(HbCode::Triage.as_str(), "HB005");
        assert_eq!(HbCode::Triage.to_string(), "HB005");
    }

    #[test]
    fn recv_recv_cycle_fires_hb001_rank_by_rank() {
        let mut hb = log2();
        hb.blocked = vec![
            BlockedOp {
                rank: 0,
                name: "MPI_Recv".into(),
                op: HbOp::Recv {
                    src: Some(1),
                    tag: 0,
                },
            },
            BlockedOp {
                rank: 1,
                name: "MPI_Recv".into(),
                op: HbOp::Recv {
                    src: Some(0),
                    tag: 0,
                },
            },
        ];
        let registry = registry_with(&["MPI_Init", "MPI_Recv"]);
        let report = analyze(&hb, &[], &registry);
        assert!(report.codes().contains(&HbCode::WaitCycle));
        let text = report.render_text();
        assert!(
            text.contains(
                "rank 0 blocked in MPI_Recv(src=1, tag=0) → \
                 rank 1 blocked in MPI_Recv(src=0, tag=0) → back to rank 0"
            ),
            "{text}"
        );
        assert!(report.has_errors());
    }

    #[test]
    fn orphan_recv_from_finished_rank_fires_hb002() {
        let mut hb = log2();
        hb.blocked = vec![BlockedOp {
            rank: 0,
            name: "MPI_Recv".into(),
            op: HbOp::Recv {
                src: Some(1),
                tag: 7,
            },
        }];
        hb.finished = vec![1];
        let registry = registry_with(&["MPI_Init", "MPI_Recv"]);
        let progress = vec![TraceProgress {
            id: TraceId::master(0),
            len: 5,
            calls: BTreeMap::new(),
            open_stack: vec![1],
            truncated: true,
        }];
        let report = analyze(&hb, &progress, &registry);
        assert!(report.codes().contains(&HbCode::OrphanOp));
        let d = report
            .diagnostics()
            .iter()
            .find(|d| d.code == HbCode::OrphanOp)
            .unwrap();
        assert_eq!(d.trace, Some(TraceId::master(0)));
        assert_eq!(d.span, Some(Span::at(4)));
        assert!(!report.codes().contains(&HbCode::WaitCycle));
    }

    #[test]
    fn collective_mismatch_and_deserter_fire_hb002() {
        let mut hb = log2();
        hb.pending_collectives = vec![PendingCollective {
            slot: 3,
            name: "MPI_Allreduce".into(),
            arrived: vec![0, 1],
            mismatched: vec![1],
        }];
        let registry = registry_with(&["MPI_Allreduce"]);
        let report = analyze(&hb, &[], &registry);
        let text = report.render_text();
        assert!(text.contains("mismatched signature"), "{text}");

        let mut hb2 = log2();
        hb2.pending_collectives = vec![PendingCollective {
            slot: 0,
            name: "MPI_Barrier".into(),
            arrived: vec![0],
            mismatched: vec![],
        }];
        hb2.finished = vec![1];
        let report2 = analyze(&hb2, &[], &registry);
        assert!(
            report2
                .render_text()
                .contains("rank(s) 1 finished without joining"),
            "{}",
            report2.render_text()
        );
    }

    #[test]
    fn unmatched_sends_fire_hb003_warnings() {
        let mut hb = log2();
        hb.unmatched_sends = vec![Unmatched {
            src: 1,
            dst: 0,
            tag: 9,
            count: 3,
        }];
        let registry = registry_with(&[]);
        let report = analyze(&hb, &[], &registry);
        assert!(report.codes().contains(&HbCode::UnmatchedSend));
        assert!(!report.has_errors());
        assert_eq!(report.warning_count(), 1);
    }

    #[test]
    fn concurrent_sends_on_one_channel_fire_hb004() {
        let mut hb = HbLog::new(3);
        let mut c1 = VectorClock::zero(3);
        let mut c2 = VectorClock::zero(3);
        c1.tick(1);
        hb.push(
            TraceId::master(1),
            "MPI_Send",
            HbOp::Send {
                dst: 0,
                tag: 5,
                rendezvous: false,
            },
            &c1,
        );
        c2.tick(2);
        hb.push(
            TraceId::master(2),
            "MPI_Send",
            HbOp::Send {
                dst: 0,
                tag: 5,
                rendezvous: false,
            },
            &c2,
        );
        let registry = registry_with(&["MPI_Send"]);
        let report = analyze(&hb, &[], &registry);
        assert!(report.codes().contains(&HbCode::RacyChannel));
        let text = report.render_text();
        assert!(text.contains("(dst=0, tag=5)"), "{text}");

        // Causally ordered sends do not race.
        let mut hb2 = HbLog::new(3);
        let mut d1 = VectorClock::zero(3);
        d1.tick(1);
        hb2.push(
            TraceId::master(1),
            "MPI_Send",
            HbOp::Send {
                dst: 0,
                tag: 5,
                rendezvous: false,
            },
            &d1,
        );
        let mut d2 = d1.clone();
        d2.tick(2);
        hb2.push(
            TraceId::master(2),
            "MPI_Send",
            HbOp::Send {
                dst: 0,
                tag: 5,
                rendezvous: false,
            },
            &d2,
        );
        assert!(!analyze(&hb2, &[], &registry)
            .codes()
            .contains(&HbCode::RacyChannel));
    }

    #[test]
    fn triage_ranks_least_progressed_first() {
        let mut hb = log2();
        hb.blocked = vec![BlockedOp {
            rank: 1,
            name: "MPI_Recv".into(),
            op: HbOp::Recv {
                src: Some(0),
                tag: 0,
            },
        }];
        let registry = registry_with(&["MPI_Init", "MPI_Recv", "compute"]);
        let init = registry.intern("MPI_Init").0;
        let recv = registry.intern("MPI_Recv").0;
        let mk = |r: u32, mpi: u64| TraceProgress {
            id: TraceId::master(r),
            len: 4,
            calls: [(init, 1u64), (recv, mpi.saturating_sub(1))]
                .into_iter()
                .collect(),
            open_stack: vec![],
            truncated: false,
        };
        let report = analyze(&hb, &[mk(0, 5), mk(1, 2)], &registry);
        let text = report.render_text();
        let d = report
            .diagnostics()
            .iter()
            .find(|d| d.code == HbCode::Triage)
            .unwrap();
        let r1 = d.message.find("rank 1:").unwrap();
        let r0 = d.message.find("rank 0:").unwrap();
        assert!(r1 < r0, "least progressed must come first: {text}");
    }

    #[test]
    fn clean_run_is_clean() {
        let registry = registry_with(&["MPI_Init"]);
        let report = analyze(&log2(), &[], &registry);
        assert!(report.is_clean(), "{}", report.render_text());
    }
}
