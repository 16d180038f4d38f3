//! Vector clocks and happens-before logging.
//!
//! The paper's future work (§VII-2) plans to "convert ParLOT traces
//! into Open Trace Format (OTF2) by logically timestamping trace
//! entries to mine temporal properties of functions such as
//! *happened-before*". This module implements that extension for the
//! simulated runtime: every MPI operation is stamped with a **vector
//! clock** (exact happens-before, not just Lamport order), the runtime
//! collects an event log, and [`HbLog`] answers causality queries —
//! including the PRODOMETER-style "least-progressed rank" triage the
//! paper cites as symbiotic related work.
//!
//! # Storage
//!
//! A dense log stores one `world_size`-component clock per event —
//! O(events × ranks) memory, which dominates long runs. [`HbLog`]
//! instead stores each clock as a sparse *delta* against the same
//! rank's previous clock (between two operations of one rank only its
//! own component plus any merged-in peers change), re-anchoring with a
//! full interned snapshot every [`SNAPSHOT_EVERY`] events per rank so
//! random access never walks more than a bounded chain. The
//! reconstruction is exact; `hb::tests` asserts equivalence against
//! the dense representation on randomized logs.

use crate::TraceId;
use std::fmt;

/// A vector clock over `world_size` ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorClock(pub Vec<u64>);

impl VectorClock {
    /// The zero clock for `n` ranks.
    pub fn zero(n: usize) -> VectorClock {
        VectorClock(vec![0; n])
    }

    /// Advance `rank`'s own component.
    pub fn tick(&mut self, rank: usize) {
        self.0[rank] += 1;
    }

    /// Component-wise maximum (message receive / collective join).
    pub fn merge(&mut self, other: &VectorClock) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    /// `self ≤ other` component-wise.
    pub fn leq(&self, other: &VectorClock) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }

    /// Strict happens-before: `self ≤ other` and `self ≠ other`.
    pub fn happens_before(&self, other: &VectorClock) -> bool {
        self.leq(other) && self != other
    }

    /// Neither happens before the other.
    pub fn concurrent(&self, other: &VectorClock) -> bool {
        !self.leq(other) && !other.leq(self)
    }

    /// Lamport scalar projection (max component) — the "logical
    /// timestamp" an OTF2 export would use.
    pub fn lamport(&self) -> u64 {
        self.0.iter().copied().max().unwrap_or(0)
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "⟨{}⟩",
            self.0
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(",")
        )
    }
}

/// What kind of operation an event (or a blocked rank) was performing,
/// reduced to the fields the wait-for-graph analysis needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HbOp {
    /// Not a communication edge (init, finalize, compute markers).
    Local,
    /// A send to `dst` with `tag`. `rendezvous` is true when the send
    /// blocks until matched (payload above the eager limit) — only
    /// rendezvous sends create wait-for edges.
    Send {
        /// Destination rank.
        dst: u32,
        /// Message tag.
        tag: i32,
        /// True when the send blocks until the receiver arrives.
        rendezvous: bool,
    },
    /// A receive from `src` (`None` = any source) with `tag`.
    Recv {
        /// Source rank, `None` for wildcard receives.
        src: Option<u32>,
        /// Message tag.
        tag: i32,
    },
    /// Participation in the collective occupying call-order `slot`.
    Collective {
        /// Per-rank call-order slot identifying the collective instance.
        slot: u64,
    },
}

impl HbOp {
    /// Render the operation with its operands, e.g.
    /// `MPI_Recv(src=1, tag=0)`.
    pub fn describe(&self, name: &str) -> String {
        match *self {
            HbOp::Local => name.to_string(),
            HbOp::Send { dst, tag, .. } => format!("{name}(dst={dst}, tag={tag})"),
            HbOp::Recv { src: Some(s), tag } => format!("{name}(src={s}, tag={tag})"),
            HbOp::Recv { src: None, tag } => format!("{name}(src=ANY, tag={tag})"),
            HbOp::Collective { slot } => format!("{name}(slot={slot})"),
        }
    }
}

/// One logged, causally-stamped runtime event (the reconstructed,
/// user-facing view — see [`HbLog`] for the stored representation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HbEvent {
    /// Which thread performed it (always a master thread `p.0` — only
    /// MPI operations move the clocks).
    pub trace: TraceId,
    /// The operation name (`MPI_Send`, `MPI_Allreduce`, …).
    pub name: String,
    /// The operation's communication shape.
    pub op: HbOp,
    /// The vector clock *after* the operation.
    pub vc: VectorClock,
}

/// A rank blocked inside an operation when the run ended — the raw
/// material of the wait-for graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedOp {
    /// The blocked rank.
    pub rank: u32,
    /// Operation name (`MPI_Recv`, …).
    pub name: String,
    /// Communication shape of the blocking operation.
    pub op: HbOp,
}

/// A collective instance that never completed: who arrived, and whose
/// call signature disagreed with the first arrival.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingCollective {
    /// The per-rank call-order slot.
    pub slot: u64,
    /// MPI name of the collective (first arrival's).
    pub name: String,
    /// Ranks that reached the collective, ascending.
    pub arrived: Vec<u32>,
    /// Arrived ranks whose signature mismatched the first arrival's.
    pub mismatched: Vec<u32>,
}

/// An eager send that was never received (message left in the mailbox
/// or a rendezvous send never matched).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnmatchedSend {
    /// Sender rank.
    pub src: u32,
    /// Destination rank.
    pub dst: u32,
    /// Message tag.
    pub tag: i32,
    /// Number of unmatched messages on this `(src, dst, tag)` channel.
    pub count: u64,
}

/// Interned full snapshots are emitted every this many events per
/// rank, bounding the delta chain any reconstruction must walk.
pub const SNAPSHOT_EVERY: u32 = 64;

/// `u32` sentinel for "no previous event of this rank".
const NO_PREV: u32 = u32::MAX;

/// How one event's clock is stored.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ClockRepr {
    /// A full snapshot (chain anchor).
    Full(VectorClock),
    /// Components that changed vs the same rank's previous clock, as
    /// `(component, new absolute value)` pairs, ascending.
    Delta(Vec<(u32, u64)>),
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Record {
    trace: TraceId,
    /// Index into `HbLog::names`.
    name: u32,
    op: HbOp,
    clock: ClockRepr,
    /// Index of the same rank's previous record (`NO_PREV` if none).
    prev: u32,
}

/// Per-rank append cursor: where the rank's last record is, how long
/// the current delta chain is, and the rank's last stored clock.
#[derive(Debug, Clone)]
struct RankCursor {
    last: u32,
    since_snapshot: u32,
    clock: VectorClock,
}

/// The happens-before log of one execution: causally-stamped events
/// (delta-encoded clocks) plus the abort-time blocked-operation state
/// exported by the runtime.
#[derive(Debug, Clone, Default)]
pub struct HbLog {
    world_size: u32,
    names: Vec<String>,
    records: Vec<Record>,
    cursors: Vec<Option<RankCursor>>,
    /// Ranks blocked inside an operation when the run ended.
    pub blocked: Vec<BlockedOp>,
    /// Collectives with arrivals that never completed.
    pub pending_collectives: Vec<PendingCollective>,
    /// Sends that were never received.
    pub unmatched_sends: Vec<UnmatchedSend>,
    /// Ranks that completed `MPI_Finalize`, ascending.
    pub finished: Vec<u32>,
}

impl HbLog {
    /// An empty log for a `world_size`-rank execution.
    pub fn new(world_size: usize) -> HbLog {
        HbLog {
            world_size: u32::try_from(world_size).expect("world size"),
            cursors: vec![None; world_size],
            ..HbLog::default()
        }
    }

    /// The number of ranks.
    pub fn world_size(&self) -> usize {
        self.world_size as usize
    }

    /// Number of logged events.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Append a stamped event. `vc` is the clock *after* the
    /// operation; it is stored as a sparse delta against `trace`'s
    /// rank's previous clock (or a full snapshot at chain boundaries).
    pub fn push(&mut self, trace: TraceId, name: &str, op: HbOp, vc: &VectorClock) {
        let name_idx = self.intern(name);
        let rank = trace.process as usize;
        let idx = u32::try_from(self.records.len()).expect("record count");
        let (clock, prev) = match &mut self.cursors[rank] {
            Some(cur) if cur.since_snapshot < SNAPSHOT_EVERY => {
                let deltas: Vec<(u32, u64)> =
                    vc.0.iter()
                        .enumerate()
                        .filter(|&(c, &v)| cur.clock.0[c] != v)
                        .map(|(c, &v)| (u32::try_from(c).expect("component"), v))
                        .collect();
                // A delta no smaller than the clock is stored full and
                // re-anchors the chain.
                if deltas.len() >= vc.0.len() {
                    (ClockRepr::Full(vc.clone()), cur.last)
                } else {
                    (ClockRepr::Delta(deltas), cur.last)
                }
            }
            Some(cur) => (ClockRepr::Full(vc.clone()), cur.last),
            None => (ClockRepr::Full(vc.clone()), NO_PREV),
        };
        let since = if matches!(clock, ClockRepr::Full(_)) {
            0
        } else {
            self.cursors[rank]
                .as_ref()
                .map_or(0, |c| c.since_snapshot + 1)
        };
        self.cursors[rank] = Some(RankCursor {
            last: idx,
            since_snapshot: since,
            clock: vc.clone(),
        });
        self.records.push(Record {
            trace,
            name: name_idx,
            op,
            clock,
            prev,
        });
    }

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return u32::try_from(i).expect("name index");
        }
        self.names.push(name.to_string());
        u32::try_from(self.names.len() - 1).expect("name index")
    }

    /// The thread that performed event `i`.
    pub fn trace_of(&self, i: usize) -> TraceId {
        self.records[i].trace
    }

    /// The operation name of event `i`.
    pub fn name_of(&self, i: usize) -> &str {
        &self.names[self.records[i].name as usize]
    }

    /// The communication shape of event `i`.
    pub fn op_of(&self, i: usize) -> HbOp {
        self.records[i].op
    }

    /// Reconstruct event `i`'s clock by walking the delta chain back
    /// to the nearest full snapshot (bounded by [`SNAPSHOT_EVERY`]).
    pub fn clock_of(&self, i: usize) -> VectorClock {
        let mut chain: Vec<usize> = Vec::new();
        let mut at = i;
        let mut vc = loop {
            match &self.records[at].clock {
                ClockRepr::Full(vc) => break vc.clone(),
                ClockRepr::Delta(_) => {
                    chain.push(at);
                    let prev = self.records[at].prev;
                    assert_ne!(prev, NO_PREV, "delta chain must end in a snapshot");
                    at = prev as usize;
                }
            }
        };
        for &j in chain.iter().rev() {
            if let ClockRepr::Delta(d) = &self.records[j].clock {
                for &(c, v) in d {
                    vc.0[c as usize] = v;
                }
            }
        }
        vc
    }

    /// Reconstruct event `i` in full.
    pub fn event(&self, i: usize) -> HbEvent {
        let r = &self.records[i];
        HbEvent {
            trace: r.trace,
            name: self.names[r.name as usize].clone(),
            op: r.op,
            vc: self.clock_of(i),
        }
    }

    /// All events in log order, reconstructed in one forward pass
    /// (O(events × ranks) total, no chain walking).
    pub fn events(&self) -> Vec<HbEvent> {
        let mut clocks: Vec<Option<VectorClock>> = vec![None; self.world_size as usize];
        self.records
            .iter()
            .map(|r| {
                let rank = r.trace.process as usize;
                let vc = match &r.clock {
                    ClockRepr::Full(vc) => vc.clone(),
                    ClockRepr::Delta(d) => {
                        let mut vc = clocks[rank].clone().expect("delta without snapshot");
                        for &(c, v) in d {
                            vc.0[c as usize] = v;
                        }
                        vc
                    }
                };
                clocks[rank] = Some(vc.clone());
                HbEvent {
                    trace: r.trace,
                    name: self.names[r.name as usize].clone(),
                    op: r.op,
                    vc,
                }
            })
            .collect()
    }

    /// Does event `a` happen before event `b` (indices into the log)?
    pub fn happens_before(&self, a: usize, b: usize) -> bool {
        self.clock_of(a).happens_before(&self.clock_of(b))
    }

    /// Are two events causally unordered?
    pub fn concurrent(&self, a: usize, b: usize) -> bool {
        self.clock_of(a).concurrent(&self.clock_of(b))
    }

    /// The last event of each rank, in rank order.
    pub fn last_event_per_rank(&self) -> Vec<Option<HbEvent>> {
        let mut last: Vec<Option<HbEvent>> = vec![None; self.world_size as usize];
        for (rank, cur) in self.cursors.iter().enumerate() {
            if let Some(cur) = cur {
                last[rank] = Some(self.event(cur.last as usize));
            }
        }
        last
    }

    /// PRODOMETER-style progress triage: ranks whose final event is
    /// causally *minimal* among the final events — nobody waits on
    /// less-progressed work than theirs, so they are the most likely
    /// origin of a stall. Returns rank IDs.
    pub fn least_progressed_ranks(&self) -> Vec<u32> {
        let last = self.last_event_per_rank();
        let finals: Vec<(u32, &HbEvent)> = last
            .iter()
            .enumerate()
            .filter_map(|(p, e)| e.as_ref().map(|e| (u32::try_from(p).expect("rank"), e)))
            .collect();
        finals
            .iter()
            .filter(|(_, e)| {
                !finals
                    .iter()
                    .any(|(_, other)| other.vc.happens_before(&e.vc))
            })
            .map(|(p, _)| *p)
            .collect()
    }

    /// Number of events each rank performed, in rank order.
    pub fn events_per_rank(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.world_size as usize];
        for r in &self.records {
            counts[r.trace.process as usize] += 1;
        }
        counts
    }

    /// OTF2-flavoured text export: one line per event with its logical
    /// (Lamport) timestamp and full vector clock.
    pub fn to_event_log(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            out.push_str(&format!(
                "t={:<6} rank={:<4} {:<16} vc={}\n",
                e.vc.lamport(),
                e.trace.process,
                e.name,
                e.vc
            ));
        }
        out
    }
}

/// Export a whole execution — per-thread call/return traces merged
/// with the causal MPI stamps — as an OTF2-flavoured text event log:
/// one `ENTER`/`LEAVE` record per trace event, each carrying a logical
/// timestamp `t=<lamport>.<seq>` where the Lamport part comes from the
/// nearest preceding stamped MPI operation of that thread and `<seq>`
/// is the intra-interval sequence number. This is the paper's §VII-2
/// "converting ParLOT traces into OTF2 by logically timestamping trace
/// entries", end to end.
pub fn export_otf(set: &crate::TraceSet, hb: &HbLog) -> String {
    let events = hb.events();
    let mut out = String::new();
    out.push_str("# OTF2-style logical event log (difftrace reproduction)\n");
    for trace in set.iter() {
        // The stamped MPI events of this thread, in order.
        let mut stamps = events
            .iter()
            .filter(|e| e.trace == trace.id)
            .map(|e| (e.name.as_str(), e.vc.lamport()))
            .collect::<Vec<_>>()
            .into_iter();
        let mut current: u64 = 0;
        let mut seq: u32 = 0;
        let mut pending: Option<(&str, u64)> = stamps.next();
        for ev in &trace.events {
            let name = set.registry.name(ev.fn_id());
            // Advance the logical clock when this is the call event of
            // the next stamped MPI op.
            if ev.is_call() {
                if let Some((sname, t)) = pending {
                    if sname == name {
                        current = t;
                        seq = 0;
                        pending = stamps.next();
                    }
                }
            }
            let kind = if ev.is_call() { "ENTER" } else { "LEAVE" };
            out.push_str(&format!(
                "t={current}.{seq:04} loc={} {kind:<5} {name}\n",
                trace.id
            ));
            seq += 1;
        }
    }
    out
}

// ---------------------------------------------------------------------
// Serialization (used by `store` for the DTTS v2 HB section).
// ---------------------------------------------------------------------

impl HbLog {
    /// Serialize into `out` (varint-based; see `store` for framing).
    pub(crate) fn write_to(&self, out: &mut Vec<u8>) {
        use crate::compress::write_varint;
        write_varint(out, u64::from(self.world_size));
        write_varint(out, self.names.len() as u64);
        for n in &self.names {
            write_varint(out, n.len() as u64);
            out.extend_from_slice(n.as_bytes());
        }
        write_varint(out, self.records.len() as u64);
        for r in &self.records {
            write_varint(out, u64::from(r.trace.process));
            write_varint(out, u64::from(r.trace.thread));
            write_varint(out, u64::from(r.name));
            write_op(out, r.op);
            match &r.clock {
                ClockRepr::Full(vc) => {
                    out.push(0);
                    write_varint(out, vc.0.len() as u64);
                    for &v in &vc.0 {
                        write_varint(out, v);
                    }
                }
                ClockRepr::Delta(d) => {
                    out.push(1);
                    write_varint(out, d.len() as u64);
                    for &(c, v) in d {
                        write_varint(out, u64::from(c));
                        write_varint(out, v);
                    }
                }
            }
        }
        write_varint(out, self.blocked.len() as u64);
        for b in &self.blocked {
            write_varint(out, u64::from(b.rank));
            write_varint(out, b.name.len() as u64);
            out.extend_from_slice(b.name.as_bytes());
            write_op(out, b.op);
        }
        write_varint(out, self.pending_collectives.len() as u64);
        for p in &self.pending_collectives {
            write_varint(out, p.slot);
            write_varint(out, p.name.len() as u64);
            out.extend_from_slice(p.name.as_bytes());
            write_varint(out, p.arrived.len() as u64);
            for &r in &p.arrived {
                write_varint(out, u64::from(r));
            }
            write_varint(out, p.mismatched.len() as u64);
            for &r in &p.mismatched {
                write_varint(out, u64::from(r));
            }
        }
        write_varint(out, self.unmatched_sends.len() as u64);
        for u in &self.unmatched_sends {
            write_varint(out, u64::from(u.src));
            write_varint(out, u64::from(u.dst));
            write_varint(out, zigzag(u.tag));
            write_varint(out, u.count);
        }
        write_varint(out, self.finished.len() as u64);
        for &r in &self.finished {
            write_varint(out, u64::from(r));
        }
    }

    /// Deserialize from `buf[*pos..]`, advancing `pos`. Errors are
    /// reported as `None` (the caller maps to its format error).
    pub(crate) fn read_from(buf: &[u8], pos: &mut usize) -> Option<HbLog> {
        let world_size = u32::try_from(rv(buf, pos)?).ok()?;
        let mut log = HbLog::new(world_size as usize);
        let n_names = rv(buf, pos)?;
        for _ in 0..n_names {
            log.names.push(read_string(buf, pos)?);
        }
        let n_records = rv(buf, pos)?;
        let mut lasts: Vec<u32> = vec![NO_PREV; world_size as usize];
        for i in 0..n_records {
            let process = u32::try_from(rv(buf, pos)?).ok()?;
            let thread = u32::try_from(rv(buf, pos)?).ok()?;
            let name = u32::try_from(rv(buf, pos)?).ok()?;
            if name as usize >= log.names.len() || process >= world_size {
                return None;
            }
            let op = read_op(buf, pos)?;
            let clock = match *buf.get(*pos)? {
                0 => {
                    *pos += 1;
                    let n = rv(buf, pos)?;
                    let mut vc = Vec::with_capacity(capacity(n, buf, *pos));
                    for _ in 0..n {
                        vc.push(rv(buf, pos)?);
                    }
                    ClockRepr::Full(VectorClock(vc))
                }
                1 => {
                    *pos += 1;
                    let n = rv(buf, pos)?;
                    let mut d = Vec::with_capacity(capacity(n, buf, *pos));
                    for _ in 0..n {
                        let c = u32::try_from(rv(buf, pos)?).ok()?;
                        let v = rv(buf, pos)?;
                        d.push((c, v));
                    }
                    ClockRepr::Delta(d)
                }
                _ => return None,
            };
            let prev = lasts[process as usize];
            if matches!(clock, ClockRepr::Delta(_)) && prev == NO_PREV {
                return None;
            }
            lasts[process as usize] = u32::try_from(i).ok()?;
            log.records.push(Record {
                trace: TraceId::new(process, thread),
                name,
                op,
                clock,
                prev,
            });
        }
        // Rebuild the append cursors so pushes after a load still work.
        for (rank, &last) in lasts.iter().enumerate() {
            if last != NO_PREV {
                log.cursors[rank] = Some(RankCursor {
                    last,
                    since_snapshot: 0,
                    clock: log.clock_of(last as usize),
                });
            }
        }
        let n_blocked = rv(buf, pos)?;
        for _ in 0..n_blocked {
            let rank = u32::try_from(rv(buf, pos)?).ok()?;
            let name = read_string(buf, pos)?;
            let op = read_op(buf, pos)?;
            log.blocked.push(BlockedOp { rank, name, op });
        }
        let n_pending = rv(buf, pos)?;
        for _ in 0..n_pending {
            let slot = rv(buf, pos)?;
            let name = read_string(buf, pos)?;
            let arrived = read_ranks(buf, pos)?;
            let mismatched = read_ranks(buf, pos)?;
            log.pending_collectives.push(PendingCollective {
                slot,
                name,
                arrived,
                mismatched,
            });
        }
        let n_unmatched = rv(buf, pos)?;
        for _ in 0..n_unmatched {
            let src = u32::try_from(rv(buf, pos)?).ok()?;
            let dst = u32::try_from(rv(buf, pos)?).ok()?;
            let tag = unzigzag(rv(buf, pos)?);
            let count = rv(buf, pos)?;
            log.unmatched_sends.push(UnmatchedSend {
                src,
                dst,
                tag,
                count,
            });
        }
        log.finished = read_ranks(buf, pos)?;
        Some(log)
    }
}

fn write_op(out: &mut Vec<u8>, op: HbOp) {
    use crate::compress::write_varint;
    match op {
        HbOp::Local => out.push(0),
        HbOp::Send {
            dst,
            tag,
            rendezvous,
        } => {
            out.push(1);
            write_varint(out, u64::from(dst));
            write_varint(out, zigzag(tag));
            out.push(u8::from(rendezvous));
        }
        HbOp::Recv { src, tag } => {
            out.push(2);
            match src {
                Some(s) => {
                    out.push(1);
                    write_varint(out, u64::from(s));
                }
                None => out.push(0),
            }
            write_varint(out, zigzag(tag));
        }
        HbOp::Collective { slot } => {
            out.push(3);
            write_varint(out, slot);
        }
    }
}

fn read_op(buf: &[u8], pos: &mut usize) -> Option<HbOp> {
    let tag_byte = *buf.get(*pos)?;
    *pos += 1;
    Some(match tag_byte {
        0 => HbOp::Local,
        1 => {
            let dst = u32::try_from(rv(buf, pos)?).ok()?;
            let tag = unzigzag(rv(buf, pos)?);
            let rendezvous = match *buf.get(*pos)? {
                0 => false,
                1 => true,
                _ => return None,
            };
            *pos += 1;
            HbOp::Send {
                dst,
                tag,
                rendezvous,
            }
        }
        2 => {
            let src = match *buf.get(*pos)? {
                0 => {
                    *pos += 1;
                    None
                }
                1 => {
                    *pos += 1;
                    Some(u32::try_from(rv(buf, pos)?).ok()?)
                }
                _ => return None,
            };
            let tag = unzigzag(rv(buf, pos)?);
            HbOp::Recv { src, tag }
        }
        3 => HbOp::Collective {
            slot: rv(buf, pos)?,
        },
        _ => return None,
    })
}

/// `read_varint` adapted to the `Option`-based parsing in this module.
fn rv(buf: &[u8], pos: &mut usize) -> Option<u64> {
    crate::compress::read_varint(buf, pos).ok()
}

/// Initial capacity for `n` encoded items: each takes at least one
/// byte, so an untrusted `n` never sizes an allocation beyond the bytes
/// left after `pos`.
fn capacity(n: u64, buf: &[u8], pos: usize) -> usize {
    usize::try_from(n)
        .unwrap_or(usize::MAX)
        .min(buf.len().saturating_sub(pos))
}

fn read_string(buf: &[u8], pos: &mut usize) -> Option<String> {
    let len = usize::try_from(rv(buf, pos)?).ok()?;
    let bytes = buf.get(*pos..pos.checked_add(len)?)?;
    *pos += len;
    String::from_utf8(bytes.to_vec()).ok()
}

fn read_ranks(buf: &[u8], pos: &mut usize) -> Option<Vec<u32>> {
    let n = rv(buf, pos)?;
    let mut out = Vec::with_capacity(capacity(n, buf, *pos));
    for _ in 0..n {
        out.push(u32::try_from(rv(buf, pos)?).ok()?);
    }
    Some(out)
}

fn zigzag(v: i32) -> u64 {
    u64::from(((v << 1) ^ (v >> 31)) as u32)
}

fn unzigzag(v: u64) -> i32 {
    let v = v as u32;
    ((v >> 1) as i32) ^ -((v & 1) as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_algebra() {
        let mut a = VectorClock::zero(3);
        let mut b = VectorClock::zero(3);
        a.tick(0); // a = <1,0,0>
        b.tick(1); // b = <0,1,0>
        assert!(a.concurrent(&b));
        // b receives from a.
        b.merge(&a);
        b.tick(1); // b = <1,2,0>
        assert!(a.happens_before(&b));
        assert!(!b.happens_before(&a));
        assert!(a.leq(&b));
        assert_eq!(b.lamport(), 2);
        assert_eq!(b.to_string(), "⟨1,2,0⟩");
    }

    fn push(log: &mut HbLog, p: u32, vc: Vec<u64>) {
        log.push(
            TraceId::master(p),
            "MPI_Send",
            HbOp::Local,
            &VectorClock(vc),
        );
    }

    #[test]
    fn log_queries() {
        let mut log = HbLog::new(2);
        push(&mut log, 0, vec![1, 0]);
        push(&mut log, 1, vec![1, 1]); // saw rank 0's event
        push(&mut log, 0, vec![2, 0]); // concurrent with rank 1's
        assert!(log.happens_before(0, 1));
        assert!(!log.happens_before(1, 0));
        assert!(log.concurrent(1, 2));
        let last = log.last_event_per_rank();
        assert_eq!(last[0].as_ref().unwrap().vc.0, vec![2, 0]);
        assert_eq!(last[1].as_ref().unwrap().vc.0, vec![1, 1]);
        // Both final events are concurrent → both ranks are minimal.
        assert_eq!(log.least_progressed_ranks(), vec![0, 1]);
        assert!(log.to_event_log().contains("rank=0"));
        assert_eq!(log.events_per_rank(), vec![2, 1]);
    }

    #[test]
    fn least_progressed_identifies_laggard() {
        let mut log = HbLog::new(3);
        // Rank 0 stopped early; ranks 1,2 both saw its last event.
        push(&mut log, 0, vec![1, 0, 0]);
        push(&mut log, 1, vec![1, 3, 0]);
        push(&mut log, 2, vec![1, 0, 4]);
        assert_eq!(log.least_progressed_ranks(), vec![0]);
    }

    /// Deterministic xorshift so the equivalence test needs no rng dep.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    /// Satellite: the delta-encoded log reconstructs exactly the
    /// clocks a dense (one-clock-per-event) log would store, through
    /// both the forward iterator and random access, across snapshot
    /// boundaries.
    #[test]
    fn delta_encoding_is_equivalent_to_dense() {
        let n_ranks = 4usize;
        let mut rng = Rng(0x00dd_7ace_5eed);
        let mut clocks: Vec<VectorClock> = (0..n_ranks).map(|_| VectorClock::zero(4)).collect();
        let mut log = HbLog::new(n_ranks);
        let mut dense: Vec<(TraceId, VectorClock)> = Vec::new();
        // 4 ranks × ~200 events each crosses SNAPSHOT_EVERY several
        // times per rank; ~1/4 of events merge a peer's clock
        // (multi-component deltas).
        for _ in 0..800 {
            let rank = (rng.next() % n_ranks as u64) as usize;
            if rng.next().is_multiple_of(4) {
                let peer = (rng.next() % n_ranks as u64) as usize;
                let peer_vc = clocks[peer].clone();
                clocks[rank].merge(&peer_vc);
            }
            clocks[rank].tick(rank);
            let id = TraceId::master(u32::try_from(rank).unwrap());
            log.push(id, "op", HbOp::Local, &clocks[rank]);
            dense.push((id, clocks[rank].clone()));
        }
        assert_eq!(log.len(), dense.len());
        // Forward pass.
        for (ev, (id, vc)) in log.events().iter().zip(&dense) {
            assert_eq!(ev.trace, *id);
            assert_eq!(&ev.vc, vc);
        }
        // Random access (walks delta chains).
        for i in (0..dense.len()).step_by(7) {
            assert_eq!(log.clock_of(i), dense[i].1, "event {i}");
        }
        // Queries agree with the dense clocks.
        for (a, b) in [(0, 799), (100, 101), (400, 200)] {
            assert_eq!(
                log.happens_before(a, b),
                dense[a].1.happens_before(&dense[b].1)
            );
            assert_eq!(log.concurrent(a, b), dense[a].1.concurrent(&dense[b].1));
        }
    }

    #[test]
    fn serialization_round_trips() {
        let mut log = HbLog::new(3);
        let mut vc = VectorClock::zero(3);
        for i in 0..150u32 {
            let rank = i % 3;
            vc.tick(rank as usize);
            let op = match i % 4 {
                0 => HbOp::Send {
                    dst: (rank + 1) % 3,
                    tag: -7,
                    rendezvous: i % 8 == 0,
                },
                1 => HbOp::Recv {
                    src: (i % 2 == 0).then_some((rank + 2) % 3),
                    tag: 3,
                },
                2 => HbOp::Collective { slot: u64::from(i) },
                _ => HbOp::Local,
            };
            log.push(TraceId::master(rank), "MPI_Op", op, &vc);
        }
        log.blocked.push(BlockedOp {
            rank: 1,
            name: "MPI_Recv".to_string(),
            op: HbOp::Recv {
                src: Some(2),
                tag: -1,
            },
        });
        log.pending_collectives.push(PendingCollective {
            slot: 9,
            name: "MPI_Barrier".to_string(),
            arrived: vec![0, 2],
            mismatched: vec![2],
        });
        log.unmatched_sends.push(UnmatchedSend {
            src: 0,
            dst: 1,
            tag: 5,
            count: 2,
        });
        log.finished = vec![0];
        let mut buf = Vec::new();
        log.write_to(&mut buf);
        let mut pos = 0;
        let back = HbLog::read_from(&buf, &mut pos).expect("round trip");
        assert_eq!(pos, buf.len());
        assert_eq!(back.world_size(), 3);
        assert_eq!(back.len(), log.len());
        assert_eq!(back.events(), log.events());
        assert_eq!(back.blocked, log.blocked);
        assert_eq!(back.pending_collectives, log.pending_collectives);
        assert_eq!(back.unmatched_sends, log.unmatched_sends);
        assert_eq!(back.finished, log.finished);
    }

    #[test]
    fn op_descriptions() {
        assert_eq!(
            HbOp::Recv {
                src: Some(1),
                tag: 0
            }
            .describe("MPI_Recv"),
            "MPI_Recv(src=1, tag=0)"
        );
        assert_eq!(
            HbOp::Recv { src: None, tag: 9 }.describe("MPI_Recv"),
            "MPI_Recv(src=ANY, tag=9)"
        );
        assert_eq!(
            HbOp::Send {
                dst: 2,
                tag: 1,
                rendezvous: true
            }
            .describe("MPI_Send"),
            "MPI_Send(dst=2, tag=1)"
        );
        assert_eq!(
            HbOp::Collective { slot: 4 }.describe("MPI_Barrier"),
            "MPI_Barrier(slot=4)"
        );
        assert_eq!(HbOp::Local.describe("MPI_Init"), "MPI_Init");
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0, 1, -1, 5, -5, i32::MAX, i32::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
