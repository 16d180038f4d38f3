//! Property tests: (1) the compressed-domain summarizer agrees with
//! the expanded walk on arbitrary (possibly defective) streams, and
//! (2) injected deadlock / orphan / race defects produce exactly the
//! expected HB0xx codes, with byte-identical reports in both domains.

use dt_trace::hb::{BlockedOp, HbLog, HbOp, VectorClock};
use dt_trace::{FunctionRegistry, TraceId};
use hbcheck::{analyze, compressed, expanded, HbCode, TraceProgress};
use nlr::{LoopTable, NlrBuilder};
use proptest::prelude::*;
use std::collections::BTreeSet;

const FNS: u32 = 6;

fn call(f: u32) -> u32 {
    f << 1
}
fn ret(f: u32) -> u32 {
    (f << 1) | 1
}

fn registry() -> FunctionRegistry {
    let reg = FunctionRegistry::new();
    reg.intern("MPI_Init");
    reg.intern("MPI_Recv");
    reg.intern("MPI_Send");
    for i in 3..FNS {
        reg.intern(&format!("fn{i}"));
    }
    reg
}

/// A well-formed, loopy stream.
fn balanced_stream() -> impl Strategy<Value = Vec<u32>> {
    (
        proptest::collection::vec(0u32..FNS, 1..5),
        1usize..25,
        proptest::collection::vec(0u32..FNS, 0..4),
    )
        .prop_map(|(body, reps, tail)| {
            let unit: Vec<u32> = body
                .iter()
                .map(|&f| call(f))
                .chain(body.iter().rev().map(|&f| ret(f)))
                .collect();
            let mut v = Vec::new();
            for _ in 0..reps {
                v.extend(&unit);
            }
            for &f in &tail {
                v.push(call(f));
                v.push(ret(f));
            }
            v
        })
}

#[derive(Debug, Clone, Copy)]
enum Defect {
    None,
    DeleteEvent(usize),
    DuplicateEvent(usize),
    FlipDirection(usize),
    TruncateTail(usize),
}

fn defect() -> impl Strategy<Value = Defect> {
    prop_oneof![
        Just(Defect::None),
        (0usize..1000).prop_map(Defect::DeleteEvent),
        (0usize..1000).prop_map(Defect::DuplicateEvent),
        (0usize..1000).prop_map(Defect::FlipDirection),
        (1usize..1000).prop_map(Defect::TruncateTail),
    ]
}

fn apply_defect(mut syms: Vec<u32>, d: Defect, truncated: bool) -> (Vec<u32>, bool) {
    if syms.is_empty() {
        return (syms, truncated);
    }
    match d {
        Defect::None => (syms, truncated),
        Defect::DeleteEvent(i) => {
            let i = i % syms.len();
            syms.remove(i);
            (syms, truncated)
        }
        Defect::DuplicateEvent(i) => {
            let i = i % syms.len();
            let s = syms[i];
            syms.insert(i, s);
            (syms, truncated)
        }
        Defect::FlipDirection(i) => {
            let i = i % syms.len();
            syms[i] ^= 1;
            (syms, truncated)
        }
        Defect::TruncateTail(n) => {
            let keep = syms.len().saturating_sub(1 + n % syms.len().max(1));
            syms.truncate(keep);
            (syms, true)
        }
    }
}

/// Both domains' progress for one stream (asserting NLR losslessness
/// on the way).
fn both_domains(
    id: TraceId,
    syms: &[u32],
    truncated: bool,
    k: usize,
) -> (TraceProgress, TraceProgress) {
    let exp = expanded::summarize(id, syms, truncated);
    let mut table = LoopTable::new();
    let term = NlrBuilder::new(k).build(syms, &mut table);
    assert_eq!(term.expand(&table), syms);
    (exp, compressed::summarize(&table, id, &term, truncated))
}

fn codes(report: &hbcheck::HbReport) -> BTreeSet<HbCode> {
    report.codes()
}

/// A minimal log where each of `n` ranks stamps one Init event.
fn init_log(n: u32) -> HbLog {
    let mut hb = HbLog::new(n as usize);
    for r in 0..n {
        let mut c = VectorClock::zero(n as usize);
        c.tick(r as usize);
        hb.push(TraceId::master(r), "MPI_Init", HbOp::Local, &c);
    }
    hb
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Core agreement: expanded and compressed summaries are equal for
    /// any stream, any compression window K.
    #[test]
    fn summaries_agree(
        base in balanced_stream(),
        d in defect(),
        truncated in any::<bool>(),
        k in 2usize..16,
    ) {
        let (syms, truncated) = apply_defect(base, d, truncated);
        let (exp, comp) = both_domains(TraceId::master(0), &syms, truncated, k);
        prop_assert_eq!(exp, comp, "syms={:?} k={}", syms, k);
    }

    /// An injected recv ring deadlock yields exactly {HB001, HB005}
    /// and byte-identical reports in both domains.
    #[test]
    fn injected_deadlock_cycle_is_exact_in_both_domains(
        n in 2u32..6,
        streams in proptest::collection::vec(balanced_stream(), 6),
        k in 2usize..12,
    ) {
        let reg = registry();
        let recv_fn = reg.intern("MPI_Recv").0;
        let mut hb = init_log(n);
        for r in 0..n {
            hb.blocked.push(BlockedOp {
                rank: r,
                name: "MPI_Recv".into(),
                op: HbOp::Recv { src: Some((r + 1) % n), tag: 0 },
            });
        }
        // Every rank's trace ends inside the blocking MPI_Recv call.
        let mut expanded_p = Vec::new();
        let mut compressed_p = Vec::new();
        for r in 0..n {
            let mut syms = streams[r as usize].clone();
            syms.push(call(recv_fn));
            let (e, c) = both_domains(TraceId::master(r), &syms, true, k);
            expanded_p.push(e);
            compressed_p.push(c);
        }
        let re = analyze(&hb, &expanded_p, &reg);
        let rc = analyze(&hb, &compressed_p, &reg);
        prop_assert_eq!(re.render_text(), rc.render_text());
        prop_assert_eq!(re.render_json(), rc.render_json());
        let expect: BTreeSet<HbCode> =
            [HbCode::WaitCycle, HbCode::Triage].into_iter().collect();
        prop_assert_eq!(codes(&re), expect, "{}", re.render_text());
        // The cycle is rendered rank-by-rank: every rank appears.
        let d = re.diagnostics().iter().find(|d| d.code == HbCode::WaitCycle).unwrap();
        for r in 0..n {
            prop_assert!(d.message.contains(&format!("rank {r} blocked in")), "{}", d.message);
        }
    }

    /// An orphaned receive (peer finished) yields exactly
    /// {HB002, HB005} — no phantom cycle.
    #[test]
    fn injected_orphan_is_exact(
        base in balanced_stream(),
        k in 2usize..12,
    ) {
        let reg = registry();
        let recv_fn = reg.intern("MPI_Recv").0;
        let mut hb = init_log(2);
        hb.blocked.push(BlockedOp {
            rank: 0,
            name: "MPI_Recv".into(),
            op: HbOp::Recv { src: Some(1), tag: 4 },
        });
        hb.finished = vec![1];
        let mut syms = base;
        syms.push(call(recv_fn));
        let (e, c) = both_domains(TraceId::master(0), &syms, true, k);
        let re = analyze(&hb, &[e], &reg);
        let rc = analyze(&hb, &[c], &reg);
        prop_assert_eq!(re.render_text(), rc.render_text());
        let expect: BTreeSet<HbCode> =
            [HbCode::OrphanOp, HbCode::Triage].into_iter().collect();
        prop_assert_eq!(codes(&re), expect, "{}", re.render_text());
        // HB002 anchors to the blocked rank's final event.
        let d = re.diagnostics().iter().find(|d| d.code == HbCode::OrphanOp).unwrap();
        prop_assert_eq!(d.trace, Some(TraceId::master(0)));
        prop_assert_eq!(d.span.map(|s| s.start), Some(syms.len() - 1));
    }

    /// Concurrent sends injected on one channel yield exactly {HB004};
    /// causally ordering the same sends silences it.
    #[test]
    fn injected_race_is_exact(
        n_sends in 2usize..5,
        tag in 0i32..3,
    ) {
        let reg = registry();
        let world = 4usize;
        let mut racy = HbLog::new(world);
        let mut ordered = HbLog::new(world);
        let mut carried = VectorClock::zero(world);
        for s in 0..n_sends {
            let sender = 1 + (s % (world - 1)) as u32;
            let op = HbOp::Send { dst: 0, tag, rendezvous: false };
            // Racy: each sender knows only itself.
            let mut c = VectorClock::zero(world);
            c.tick(sender as usize);
            racy.push(TraceId::master(sender), "MPI_Send", op, &c);
            // Ordered: each send carries the previous one's clock.
            carried.tick(sender as usize);
            ordered.push(TraceId::master(sender), "MPI_Send", op, &carried);
        }
        let rr = analyze(&racy, &[], &reg);
        let expect: BTreeSet<HbCode> = [HbCode::RacyChannel].into_iter().collect();
        prop_assert_eq!(codes(&rr), expect, "{}", rr.render_text());
        prop_assert!(analyze(&ordered, &[], &reg).is_clean());
    }
}
