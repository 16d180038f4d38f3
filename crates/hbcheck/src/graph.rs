//! The wait-for graph: who is blocked on whom.
//!
//! Built from the [`HbLog`]'s frozen blocked-operation state, with one
//! node per blocked rank and an edge `a → b` when `a` cannot proceed
//! until `b` acts:
//!
//! * a receive from a named source waits on that source;
//! * a wildcard receive waits on *every* other live rank (any of them
//!   could send — the edge set over-approximates, matching MPI's
//!   progress semantics);
//! * a rendezvous send waits on its destination;
//! * a collective waits on every live rank that has not arrived at its
//!   instance.
//!
//! Construction is O(ranks²) worst case (wildcards/collectives), with
//! no reference to the event log at all — the graph is a pure function
//! of the abort-time snapshot, so it is identical in the expanded and
//! compressed analysis domains.

use dt_trace::hb::{HbLog, HbOp};
use std::collections::BTreeMap;

/// The wait-for graph of one aborted (or hung) run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitForGraph {
    /// `rank → ranks it waits on` (sorted, deduplicated), for every
    /// blocked rank.
    edges: BTreeMap<u32, Vec<u32>>,
}

impl WaitForGraph {
    /// Build the graph from a log's blocked-operation snapshot.
    pub fn build(hb: &HbLog) -> WaitForGraph {
        let world = hb.world_size() as u32;
        let live: Vec<u32> = (0..world).filter(|r| !hb.finished.contains(r)).collect();
        let mut edges: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for b in &hb.blocked {
            let mut targets: Vec<u32> = match b.op {
                HbOp::Recv { src: Some(s), .. } => vec![s],
                HbOp::Recv { src: None, .. } => {
                    live.iter().copied().filter(|&r| r != b.rank).collect()
                }
                HbOp::Send {
                    dst,
                    rendezvous: true,
                    ..
                } => vec![dst],
                HbOp::Collective { slot } => hb
                    .pending_collectives
                    .iter()
                    .find(|pc| pc.slot == slot)
                    .map(|pc| {
                        live.iter()
                            .copied()
                            .filter(|r| !pc.arrived.contains(r))
                            .collect()
                    })
                    .unwrap_or_default(),
                HbOp::Send {
                    rendezvous: false, ..
                }
                | HbOp::Local => Vec::new(),
            };
            targets.sort_unstable();
            targets.dedup();
            edges.insert(b.rank, targets);
        }
        WaitForGraph { edges }
    }

    /// The ranks `rank` waits on (empty when not blocked).
    pub fn waits_on(&self, rank: u32) -> &[u32] {
        self.edges.get(&rank).map_or(&[], Vec::as_slice)
    }

    /// All blocked ranks, ascending.
    pub fn blocked_ranks(&self) -> Vec<u32> {
        self.edges.keys().copied().collect()
    }

    /// One witness cycle per deadlocked strongly-connected component,
    /// deterministic: each cycle is the shortest cycle through its
    /// component's smallest rank, and cycles are returned in order of
    /// that smallest rank. A cycle `[r0, r1, …, rk]` means
    /// `r0 → r1 → … → rk → r0`. Only edges between blocked ranks count
    /// ([`dt_diag::witness_cycles`] over the blocked ranks in order).
    pub fn cycles(&self) -> Vec<Vec<u32>> {
        let nodes = self.blocked_ranks();
        let adj: Vec<Vec<usize>> = nodes
            .iter()
            .map(|&r| {
                self.waits_on(r)
                    .iter()
                    .filter_map(|t| nodes.binary_search(t).ok())
                    .collect()
            })
            .collect();
        dt_diag::witness_cycles(&adj)
            .into_iter()
            .map(|cycle| cycle.into_iter().map(|i| nodes[i]).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_trace::hb::BlockedOp;

    fn blocked(rank: u32, op: HbOp) -> BlockedOp {
        BlockedOp {
            rank,
            name: match op {
                HbOp::Recv { .. } => "MPI_Recv".into(),
                HbOp::Send { .. } => "MPI_Send".into(),
                HbOp::Collective { .. } => "MPI_Allreduce".into(),
                HbOp::Local => "compute".into(),
            },
            op,
        }
    }

    fn recv(src: u32) -> HbOp {
        HbOp::Recv {
            src: Some(src),
            tag: 0,
        }
    }

    #[test]
    fn two_rank_recv_cycle() {
        let mut hb = HbLog::new(2);
        hb.blocked = vec![blocked(0, recv(1)), blocked(1, recv(0))];
        let g = WaitForGraph::build(&hb);
        assert_eq!(g.waits_on(0), &[1]);
        assert_eq!(g.cycles(), vec![vec![0, 1]]);
    }

    #[test]
    fn chain_without_cycle_is_clean() {
        let mut hb = HbLog::new(3);
        hb.blocked = vec![blocked(1, recv(0)), blocked(2, recv(1))];
        let g = WaitForGraph::build(&hb);
        assert!(g.cycles().is_empty());
        assert_eq!(g.blocked_ranks(), vec![1, 2]);
    }

    #[test]
    fn collective_edges_point_at_missing_ranks() {
        // Rank 2 skipped the collective and blocks in a recv from 0;
        // ranks 0 and 1 wait in the collective on rank 2.
        let mut hb = HbLog::new(3);
        hb.blocked = vec![
            blocked(0, HbOp::Collective { slot: 4 }),
            blocked(1, HbOp::Collective { slot: 4 }),
            blocked(2, recv(0)),
        ];
        hb.pending_collectives = vec![dt_trace::hb::PendingCollective {
            slot: 4,
            name: "MPI_Allreduce".into(),
            arrived: vec![0, 1],
            mismatched: vec![],
        }];
        let g = WaitForGraph::build(&hb);
        assert_eq!(g.waits_on(0), &[2]);
        assert_eq!(g.waits_on(1), &[2]);
        assert_eq!(g.waits_on(2), &[0]);
        // One SCC {0, 2}; rank 1 waits into it but is not part of it.
        assert_eq!(g.cycles(), vec![vec![0, 2]]);
    }

    #[test]
    fn wildcard_recv_waits_on_all_live_ranks() {
        let mut hb = HbLog::new(4);
        hb.blocked = vec![blocked(1, HbOp::Recv { src: None, tag: 3 })];
        hb.finished = vec![3];
        let g = WaitForGraph::build(&hb);
        assert_eq!(g.waits_on(1), &[0, 2]);
        assert!(g.cycles().is_empty());
    }

    #[test]
    fn rendezvous_send_cycle_head_to_head() {
        let send = |dst| HbOp::Send {
            dst,
            tag: 0,
            rendezvous: true,
        };
        let mut hb = HbLog::new(2);
        hb.blocked = vec![blocked(0, send(1)), blocked(1, send(0))];
        let g = WaitForGraph::build(&hb);
        assert_eq!(g.cycles(), vec![vec![0, 1]]);
    }

    #[test]
    fn three_rank_ring_cycle_is_reported_once() {
        let mut hb = HbLog::new(3);
        hb.blocked = vec![
            blocked(0, recv(1)),
            blocked(1, recv(2)),
            blocked(2, recv(0)),
        ];
        let g = WaitForGraph::build(&hb);
        assert_eq!(g.cycles(), vec![vec![0, 1, 2]]);
    }
}
