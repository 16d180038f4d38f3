//! End-to-end: real simulated MPI deadlocks, analyzed through the
//! runtime-exported [`HbLog`] snapshot — the same artifact the
//! `difftrace hbcheck` pipeline consumes. Each scenario asserts the
//! *exact* HB0xx code set and, for the cycle, its rank-by-rank
//! rendering; progress summaries are computed in both domains and the
//! reports compared byte for byte.

use dt_trace::{FunctionRegistry, TraceId};
use hbcheck::{analyze, compressed, expanded, HbCode, TraceProgress};
use mpisim::{run, RunOutcome, SimConfig};
use nlr::{LoopTable, NlrBuilder};
use std::collections::BTreeSet;
use std::sync::Arc;

fn registry() -> Arc<FunctionRegistry> {
    Arc::new(FunctionRegistry::new())
}

/// Expanded-domain progress for every recorded trace.
fn expanded_progress(out: &RunOutcome) -> Vec<TraceProgress> {
    out.traces
        .iter()
        .map(|t| expanded::summarize(t.id, &t.to_symbols(), t.truncated))
        .collect()
}

/// Compressed-domain progress: compress each trace to an NLR term and
/// summarize without expanding.
fn compressed_progress(out: &RunOutcome) -> Vec<TraceProgress> {
    let mut table = LoopTable::new();
    let terms: Vec<(TraceId, nlr::Nlr, bool)> = out
        .traces
        .iter()
        .map(|t| {
            (
                t.id,
                NlrBuilder::new(6).build(&t.to_symbols(), &mut table),
                t.truncated,
            )
        })
        .collect();
    terms
        .iter()
        .map(|(id, term, truncated)| compressed::summarize(&table, *id, term, *truncated))
        .collect()
}

fn codes_of(report: &hbcheck::HbReport) -> BTreeSet<HbCode> {
    report.codes()
}

#[test]
fn head_to_head_rendezvous_sends_report_the_exact_cycle() {
    let reg = registry();
    let cfg = SimConfig::new(2).with_eager_limit(8); // [i64; 4] forces rendezvous
    let out = run(cfg, reg.clone(), |rank| {
        rank.init()?;
        let peer = 1 - rank.rank();
        rank.send(peer, 0, &[7; 4])?; // both park: classic unsafe send
        let _ = rank.recv(peer, 0)?;
        rank.finalize()
    });
    assert!(out.deadlocked);

    let pe = expanded_progress(&out);
    let pc = compressed_progress(&out);
    let re = analyze(&out.hb, &pe, &reg);
    let rc = analyze(&out.hb, &pc, &reg);
    assert_eq!(re.render_text(), rc.render_text());
    assert_eq!(re.render_json(), rc.render_json());

    // Cycle + hang triage, plus one unmatched-send warning per parked
    // message that never found its receive.
    let expect: BTreeSet<HbCode> = [HbCode::WaitCycle, HbCode::UnmatchedSend, HbCode::Triage]
        .into_iter()
        .collect();
    assert_eq!(codes_of(&re), expect, "{}", re.render_text());

    let cycle = re
        .diagnostics()
        .iter()
        .find(|d| d.code == HbCode::WaitCycle)
        .expect("HB001 must fire");
    assert!(
        cycle.message.contains(
            "rank 0 blocked in MPI_Send(dst=1, tag=0) \u{2192} \
             rank 1 blocked in MPI_Send(dst=0, tag=0) \u{2192} back to rank 0"
        ),
        "cycle must be rendered rank by rank: {}",
        cycle.message
    );
}

#[test]
fn recv_from_finished_rank_is_an_orphan_not_a_cycle() {
    let reg = registry();
    let out = run(SimConfig::new(2), reg.clone(), |rank| {
        rank.init()?;
        if rank.rank() == 0 {
            let _ = rank.recv(1, 3)?; // rank 1 never sends
        }
        rank.finalize()
    });
    assert!(out.deadlocked);
    let re = analyze(&out.hb, &expanded_progress(&out), &reg);
    let expect: BTreeSet<HbCode> = [HbCode::OrphanOp, HbCode::Triage].into_iter().collect();
    assert_eq!(codes_of(&re), expect, "{}", re.render_text());
    let orphan = re
        .diagnostics()
        .iter()
        .find(|d| d.code == HbCode::OrphanOp)
        .unwrap();
    assert!(orphan.message.contains("MPI_Recv(src=1, tag=3)"));
    assert_eq!(orphan.trace, Some(TraceId::master(0)));
}

#[test]
fn collective_deserter_is_called_out_by_name() {
    let reg = registry();
    let out = run(SimConfig::new(3), reg.clone(), |rank| {
        rank.init()?;
        if rank.rank() != 2 {
            rank.barrier()?; // rank 2 deserts the barrier
        }
        rank.finalize()
    });
    assert!(out.deadlocked);
    let re = analyze(&out.hb, &expanded_progress(&out), &reg);
    let expect: BTreeSet<HbCode> = [HbCode::OrphanOp, HbCode::Triage].into_iter().collect();
    assert_eq!(codes_of(&re), expect, "{}", re.render_text());
    let orphan = re
        .diagnostics()
        .iter()
        .find(|d| d.code == HbCode::OrphanOp)
        .unwrap();
    assert!(
        orphan
            .message
            .contains("rank(s) 2 finished without joining"),
        "{}",
        orphan.message
    );
}

#[test]
fn triage_orders_ranks_least_progressed_first() {
    let reg = registry();
    // Rank 0 stalls immediately; rank 1 does extra sends to rank 2
    // before waiting on rank 0; rank 2 keeps receiving.
    let out = run(SimConfig::new(3), reg.clone(), |rank| {
        rank.init()?;
        match rank.rank() {
            0 => {
                let _ = rank.recv(1, 9)?; // never sent
            }
            1 => {
                rank.send(2, 0, &[1])?;
                rank.send(2, 0, &[2])?;
                let _ = rank.recv(0, 9)?; // never sent
            }
            _ => {
                let _ = rank.recv(1, 0)?;
                let _ = rank.recv(1, 0)?;
                let _ = rank.recv(1, 9)?; // never sent
            }
        }
        rank.finalize()
    });
    assert!(out.deadlocked);
    let re = analyze(&out.hb, &expanded_progress(&out), &reg);
    let triage = re
        .diagnostics()
        .iter()
        .find(|d| d.code == HbCode::Triage)
        .expect("HB005 must fire on a hung run");
    // Rank 0 (2 MPI calls: Init + the blocked recv) precedes the
    // busier ranks in the progress table.
    let pos = |needle: &str| triage.message.find(needle).unwrap_or(usize::MAX);
    assert!(
        pos("rank 0:") < pos("rank 1:"),
        "least-progressed rank must lead the table: {}",
        triage.message
    );
}
