//! The per-rank MPI API, instrumented through `dt-trace`.
//!
//! Every operation records its call event before acting and its return
//! event only on success; on abort the tracer is poisoned so the trace
//! ends with the call that never returned — the paper's hang signature.

use crate::collective::{CollKind, CollSignature, ReduceOp};
use crate::error::MpiError;
use crate::hb::HbOp;
use crate::omp::{self, OmpCtx};
use crate::world::{
    arrive_collective, take_collective, take_pending_send, Msg, PendingSend, PostedRecv, World,
};
use dt_trace::{FnId, ReqMarker, TraceCollector, TraceId, Tracer};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A nonblocking-operation handle (`MPI_Request`).
#[derive(Debug)]
pub enum Request {
    /// Already complete (eager send).
    Done {
        /// Rank-local request serial (teardown-witness bookkeeping).
        serial: u64,
    },
    /// A rendezvous send awaiting its match.
    Send {
        /// Rank-local request serial (teardown-witness bookkeeping).
        serial: u64,
        /// Pending-send ID in the world state.
        id: u64,
        /// Destination rank (for blocked-operation reporting).
        dst: u32,
        /// Message tag.
        tag: i32,
    },
    /// A posted receive; completed inside [`Rank::wait`].
    Recv {
        /// Rank-local request serial (teardown-witness bookkeeping).
        serial: u64,
        /// Posted-receive ID in the world state.
        id: u64,
        /// Source rank.
        src: u32,
        /// Message tag.
        tag: i32,
    },
}

impl Request {
    /// The rank-local serial every request carries.
    fn serial(&self) -> u64 {
        match *self {
            Request::Done { serial }
            | Request::Send { serial, .. }
            | Request::Recv { serial, .. } => serial,
        }
    }

    /// The world-state entry ID, for requests that parked one.
    fn world_id(&self) -> Option<u64> {
        match *self {
            Request::Done { .. } => None,
            Request::Send { id, .. } | Request::Recv { id, .. } => Some(id),
        }
    }
}

/// Handle through which one simulated MPI rank performs communication.
///
/// Owned by (and confined to) the rank's master thread — it is the
/// thread labelled `p.0` in traces.
pub struct Rank {
    world: Arc<World>,
    rank: u32,
    tracer: Tracer,
    collector: Arc<TraceCollector>,
    coll_seq: Cell<u64>,
    req_serial: Cell<u64>,
    /// serial → origin label (`MPI_Isend:dst=1,tag=7`) for requests not
    /// yet completed by [`Rank::wait`]; whatever remains at teardown is
    /// exported as `mpi_req_pending@…` witnesses under request
    /// tracking.
    outstanding: RefCell<BTreeMap<u64, String>>,
}

impl Rank {
    /// Internal constructor used by the runtime.
    pub(crate) fn new(world: Arc<World>, rank: u32, collector: Arc<TraceCollector>) -> Rank {
        let tracer = collector.tracer(TraceId::master(rank));
        Rank {
            world,
            rank,
            tracer,
            collector,
            coll_seq: Cell::new(0),
            req_serial: Cell::new(0),
            outstanding: RefCell::new(BTreeMap::new()),
        }
    }

    fn next_request_serial(&self) -> u64 {
        let s = self.req_serial.get();
        self.req_serial.set(s + 1);
        s
    }

    /// Remember a posted request's origin until `MPI_Wait` consumes it
    /// (request tracking only — the table feeds teardown witnesses).
    fn track_request(&self, serial: u64, origin: String) {
        if self.world.record_requests {
            self.outstanding.borrow_mut().insert(serial, origin);
        }
    }

    /// Emit one `mpi_req_pending@<origin>` leaf per request posted but
    /// never completed by [`Rank::wait`]. Called by the runtime at rank
    /// teardown; a poisoned (aborted) tracer suppresses the leaves, so
    /// witnesses name only requests a cleanly-finished rank forgot.
    pub(crate) fn export_pending_requests(&self) {
        if !self.world.record_requests {
            return;
        }
        for origin in self.outstanding.borrow().values() {
            self.tracer
                .leaf(&ReqMarker::Pending(origin.clone()).marker_name());
        }
    }

    /// This rank's ID (untraced accessor).
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// World size (untraced accessor).
    pub fn size(&self) -> u32 {
        self.world.size
    }

    /// The rank's tracer, for instrumenting user code.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The shared world (used by workloads for abort polling).
    pub fn world(&self) -> &Arc<World> {
        &self.world
    }

    /// Record MPI-internal library leaf calls when the world runs in
    /// "all images" mode (ParLOT tracing library code too). Emitted
    /// nested inside the public MPI call, as Pin would observe them.
    fn internals(&self, names: &[&str]) {
        if self.world.trace_internals {
            for n in names {
                self.tracer.leaf(n);
            }
        }
    }

    fn traced<R>(
        &self,
        name: &str,
        f: impl FnOnce() -> Result<R, MpiError>,
    ) -> Result<R, MpiError> {
        let fid: FnId = self.tracer.intern(name);
        self.tracer.call(fid);
        match f() {
            Ok(r) => {
                self.tracer.ret(fid);
                Ok(r)
            }
            Err(e) => {
                // The op never returned: freeze the trace mid-call.
                self.tracer.poison();
                Err(e)
            }
        }
    }

    /// `MPI_Init`.
    pub fn init(&self) -> Result<(), MpiError> {
        self.traced("MPI_Init", || {
            self.world.mutate(|st| {
                st.stamp(self.rank, "MPI_Init");
            })
        })
    }

    /// `MPI_Comm_rank`.
    pub fn comm_rank(&self) -> Result<u32, MpiError> {
        self.traced("MPI_Comm_rank", || Ok(self.rank))
    }

    /// `MPI_Comm_size`.
    pub fn comm_size(&self) -> Result<u32, MpiError> {
        self.traced("MPI_Comm_size", || Ok(self.world.size))
    }

    /// `MPI_Finalize`. No synchronization (matching the common MPICH
    /// behaviour for single-communicator programs).
    pub fn finalize(&self) -> Result<(), MpiError> {
        self.traced("MPI_Finalize", || {
            self.world.mutate(|st| {
                st.stamp(self.rank, "MPI_Finalize");
            })
        })
    }

    /// `MPI_Send`: eager when `data` fits in the eager limit, otherwise
    /// rendezvous (blocks until the matching receive).
    pub fn send(&self, dst: u32, tag: i32, data: &[i64]) -> Result<(), MpiError> {
        if dst >= self.world.size {
            return Err(MpiError::InvalidRank(dst));
        }
        self.traced("MPI_Send", || {
            let bytes = std::mem::size_of_val(data);
            if bytes <= self.world.eager_limit {
                self.internals(&["MPIDI_CH3_EagerContigSend", "MPIDI_memcpy", "tcp_sendmsg"]);
                let op = HbOp::Send {
                    dst,
                    tag,
                    rendezvous: false,
                };
                self.world.mutate(|st| {
                    let vc = st.stamp_op(self.rank, "MPI_Send", op);
                    if World::try_deliver_posted(st, self.rank, dst, tag, data, &vc) {
                        return;
                    }
                    st.mailbox
                        .entry((self.rank, dst, tag))
                        .or_default()
                        .push_back(Msg {
                            data: data.to_vec(),
                            vc,
                        });
                })
            } else {
                // Rendezvous: a posted receive completes the send at
                // once; otherwise park the payload and wait until a
                // receive takes it.
                self.internals(&["MPIDI_CH3_RndvSend", "tcp_sendmsg", "sched_yield"]);
                let op = HbOp::Send {
                    dst,
                    tag,
                    rendezvous: true,
                };
                let id = self.world.mutate(|st| {
                    let vc = st.stamp_op(self.rank, "MPI_Send", op);
                    if World::try_deliver_posted(st, self.rank, dst, tag, data, &vc) {
                        return None;
                    }
                    let id = World::next_send_id(st);
                    st.pending_sends.push(PendingSend {
                        id,
                        src: self.rank,
                        dst,
                        tag,
                        data: data.to_vec(),
                        vc,
                    });
                    Some(id)
                })?;
                let Some(id) = id else {
                    return Ok(()); // delivered into a posted receive
                };
                // Complete when the receiver has consumed the entry.
                self.world.block_on(self.rank, "MPI_Send", op, move |st| {
                    st.pending_sends.iter().all(|p| p.id != id).then_some(())
                })
            }
        })
    }

    /// `MPI_Recv` from `src` with `tag` (no wildcards — the workloads
    /// never need them).
    pub fn recv(&self, src: u32, tag: i32) -> Result<Vec<i64>, MpiError> {
        if src >= self.world.size {
            return Err(MpiError::InvalidRank(src));
        }
        let me = self.rank;
        self.traced("MPI_Recv", || {
            self.internals(&[
                "MPIDI_CH3U_Recvq_FDU_or_AEP",
                "poll_progress",
                "MPIDI_memcpy",
            ]);
            let op = HbOp::Recv {
                src: Some(src),
                tag,
            };
            self.world.block_on(me, "MPI_Recv", op, move |st| {
                // Eagerly buffered message first …
                if let Some(q) = st.mailbox.get_mut(&(src, me, tag)) {
                    if let Some(msg) = q.pop_front() {
                        st.stamp_recv_op(me, "MPI_Recv", op, &msg.vc);
                        return Some(msg.data);
                    }
                }
                // … then a parked rendezvous send.
                let (data, vc) = take_pending_send(st, src, me, tag)?;
                st.stamp_recv_op(me, "MPI_Recv", op, &vc);
                Some(data)
            })
        })
    }

    /// `MPI_Recv` with `MPI_ANY_SOURCE`: receive a message with `tag`
    /// from whichever rank sent one. Returns `(source, payload)`.
    /// Deterministic among simultaneously-available messages (lowest
    /// source rank wins).
    pub fn recv_any(&self, tag: i32) -> Result<(u32, Vec<i64>), MpiError> {
        let me = self.rank;
        self.traced("MPI_Recv", || {
            let wildcard = HbOp::Recv { src: None, tag };
            self.world.block_on(me, "MPI_Recv", wildcard, move |st| {
                // Lowest-source eager message …
                let mut best: Option<u32> = None;
                for (&(src, dst, t), q) in st.mailbox.iter() {
                    if dst == me && t == tag && !q.is_empty() {
                        best = Some(best.map_or(src, |b| b.min(src)));
                    }
                }
                // … or lowest-source parked rendezvous send.
                for p in st.pending_sends.iter() {
                    if p.dst == me && p.tag == tag {
                        best = Some(best.map_or(p.src, |b| b.min(p.src)));
                    }
                }
                let src = best?;
                let matched = HbOp::Recv {
                    src: Some(src),
                    tag,
                };
                if let Some(q) = st.mailbox.get_mut(&(src, me, tag)) {
                    if let Some(msg) = q.pop_front() {
                        st.stamp_recv_op(me, "MPI_Recv", matched, &msg.vc);
                        return Some((src, msg.data));
                    }
                }
                let (data, vc) = take_pending_send(st, src, me, tag)?;
                st.stamp_recv_op(me, "MPI_Recv", matched, &vc);
                Some((src, data))
            })
        })
    }

    /// `MPI_Isend`: starts a send and returns a [`Request`]. In the
    /// simulated runtime the payload is parked immediately; completion
    /// (buffer reuse) is deferred to [`Rank::wait`] for above-eager
    /// messages, mirroring real nonblocking semantics.
    pub fn isend(&self, dst: u32, tag: i32, data: &[i64]) -> Result<Request, MpiError> {
        if dst >= self.world.size {
            return Err(MpiError::InvalidRank(dst));
        }
        let serial = self.next_request_serial();
        let req = self.traced("MPI_Isend", || {
            let bytes = std::mem::size_of_val(data);
            if bytes <= self.world.eager_limit {
                let op = HbOp::Send {
                    dst,
                    tag,
                    rendezvous: false,
                };
                self.world.mutate(|st| {
                    let vc = st.stamp_op(self.rank, "MPI_Isend", op);
                    if World::try_deliver_posted(st, self.rank, dst, tag, data, &vc) {
                        return;
                    }
                    st.mailbox
                        .entry((self.rank, dst, tag))
                        .or_default()
                        .push_back(Msg {
                            data: data.to_vec(),
                            vc,
                        });
                })?;
                Ok(Request::Done { serial })
            } else {
                let op = HbOp::Send {
                    dst,
                    tag,
                    rendezvous: true,
                };
                let id = self.world.mutate(|st| {
                    let vc = st.stamp_op(self.rank, "MPI_Isend", op);
                    if World::try_deliver_posted(st, self.rank, dst, tag, data, &vc) {
                        return None;
                    }
                    let id = World::next_send_id(st);
                    st.pending_sends.push(PendingSend {
                        id,
                        src: self.rank,
                        dst,
                        tag,
                        data: data.to_vec(),
                        vc,
                    });
                    Some(id)
                })?;
                Ok(match id {
                    Some(id) => Request::Send {
                        serial,
                        id,
                        dst,
                        tag,
                    },
                    None => Request::Done { serial },
                })
            }
        })?;
        self.track_request(serial, format!("MPI_Isend:dst={dst},tag={tag}"));
        Ok(req)
    }

    /// `MPI_Irecv`: posts a receive that senders can complete
    /// immediately (the progress-engine behaviour that makes the
    /// post-receive-then-send idiom deadlock-free).
    pub fn irecv(&self, src: u32, tag: i32) -> Result<Request, MpiError> {
        if src >= self.world.size {
            return Err(MpiError::InvalidRank(src));
        }
        let me = self.rank;
        let serial = self.next_request_serial();
        let req = self.traced("MPI_Irecv", || {
            let id = self.world.mutate(|st| {
                let id = World::next_send_id(st);
                st.posted_recvs.push(PostedRecv {
                    id,
                    src,
                    dst: me,
                    tag,
                    msg: None,
                });
                id
            })?;
            Ok(Request::Recv {
                serial,
                id,
                src,
                tag,
            })
        })?;
        self.track_request(serial, format!("MPI_Irecv:src={src},tag={tag}"));
        Ok(req)
    }

    /// `MPI_Wait`: completes a request. Returns the received payload
    /// for receive requests, `None` for sends.
    ///
    /// Takes the request by value: like MPI's `MPI_Wait`, completing a
    /// request invalidates the handle, and consuming it makes double
    /// waits unrepresentable.
    #[allow(clippy::needless_pass_by_value)]
    pub fn wait(&self, req: Request) -> Result<Option<Vec<i64>>, MpiError> {
        let me = self.rank;
        self.internals(&["MPID_Progress_wait", "poll_progress"]);
        let serial = req.serial();
        let world_id = req.world_id();
        let out = self.traced("MPI_Wait", || match req {
            Request::Done { .. } => Ok(None),
            Request::Send { id, dst, tag, .. } => {
                let op = HbOp::Send {
                    dst,
                    tag,
                    rendezvous: true,
                };
                self.world
                    .block_on(me, "MPI_Wait", op, move |st| {
                        st.pending_sends.iter().all(|p| p.id != id).then_some(())
                    })
                    .map(|()| None)
            }
            Request::Recv { id, src, tag, .. } => {
                let op = HbOp::Recv {
                    src: Some(src),
                    tag,
                };
                self.world
                    .block_on(me, "MPI_Wait", op, move |st| {
                        // A sender may have filled the posted slot …
                        let pos = st.posted_recvs.iter().position(|p| p.id == id)?;
                        if let Some(msg) = st.posted_recvs[pos].msg.take() {
                            st.posted_recvs.swap_remove(pos);
                            st.stamp_recv_op(me, "MPI_Wait", op, &msg.vc);
                            return Some(msg.data);
                        }
                        // … or the message arrived before the post and sits
                        // in the mailbox / as a parked rendezvous send.
                        if let Some(q) = st.mailbox.get_mut(&(src, me, tag)) {
                            if let Some(msg) = q.pop_front() {
                                st.posted_recvs.swap_remove(pos);
                                st.stamp_recv_op(me, "MPI_Wait", op, &msg.vc);
                                return Some(msg.data);
                            }
                        }
                        let (data, vc) = take_pending_send(st, src, me, tag)?;
                        st.posted_recvs.swap_remove(pos);
                        st.stamp_recv_op(me, "MPI_Wait", op, &vc);
                        Some(data)
                    })
                    .map(Some)
            }
        });
        // MPI_Wait consumes the handle whether it completed or was
        // aborted: drop the teardown witness, and on abort also retract
        // the world-state entry so one injected fault cannot strand a
        // posted receive / parked send that would swallow a surviving
        // rank's message.
        self.outstanding.borrow_mut().remove(&serial);
        if out.is_err() {
            if let Some(id) = world_id {
                self.world.forget_request(id);
            }
        }
        out
    }

    fn next_slot(&self) -> u64 {
        let s = self.coll_seq.get();
        self.coll_seq.set(s + 1);
        s
    }

    fn collective(
        &self,
        name: &str,
        sig: CollSignature,
        op: Option<ReduceOp>,
        payload: Option<Vec<i64>>,
    ) -> Result<Vec<i64>, MpiError> {
        let slot = self.next_slot();
        let me = self.rank;
        let size = self.world.size as usize;
        self.traced(name, || {
            // The argument signature the rank is arriving with, as a
            // leaf marker nested inside the collective call (reqcheck's
            // RQ003 evidence).
            if self.world.record_requests {
                let marker =
                    ReqMarker::coll_sig(name, sig.count, sig.root, op.map(ReduceOp::marker_name));
                self.tracer.leaf(&marker.marker_name());
            }
            // e.g. MPI_Allreduce → MPIR_Allreduce_intra.
            if self.world.trace_internals {
                let inner = format!("MPIR_{}_intra", name.trim_start_matches("MPI_"));
                self.tracer.leaf(&inner);
                self.internals(&["tcp_sendmsg", "tcp_recvmsg", "poll_progress"]);
            }
            let hb_op = HbOp::Collective { slot };
            self.world.mutate(|st| {
                st.stamp_op(me, name, hb_op);
                arrive_collective(st, size, slot, me, sig, op, payload);
            })?;
            self.world
                .block_on(me, name, hb_op, move |st| take_collective(st, slot, me))
        })
    }

    /// `MPI_Barrier`.
    pub fn barrier(&self) -> Result<(), MpiError> {
        let sig = CollSignature {
            kind: CollKind::Barrier,
            count: 0,
            root: None,
        };
        self.collective("MPI_Barrier", sig, None, None).map(|_| ())
    }

    /// `MPI_Allreduce` of `data` under `op`.
    pub fn allreduce(&self, data: &[i64], op: ReduceOp) -> Result<Vec<i64>, MpiError> {
        self.allreduce_with_count(data, op, data.len())
    }

    /// `MPI_Allreduce` with an explicit signature count — the fault
    /// injection hook for the paper's "wrong collective size" bug
    /// (§IV-C): a rank advertising a different count can never match.
    pub fn allreduce_with_count(
        &self,
        data: &[i64],
        op: ReduceOp,
        count: usize,
    ) -> Result<Vec<i64>, MpiError> {
        let sig = CollSignature {
            kind: CollKind::Allreduce,
            count,
            root: None,
        };
        self.collective("MPI_Allreduce", sig, Some(op), Some(data.to_vec()))
    }

    /// `MPI_Reduce` to `root`; non-roots receive `None`.
    pub fn reduce(
        &self,
        data: &[i64],
        op: ReduceOp,
        root: u32,
    ) -> Result<Option<Vec<i64>>, MpiError> {
        let sig = CollSignature {
            kind: CollKind::Reduce,
            count: data.len(),
            root: Some(root),
        };
        let r = self.collective("MPI_Reduce", sig, Some(op), Some(data.to_vec()))?;
        Ok(if self.rank == root { Some(r) } else { None })
    }

    /// `MPI_Bcast`: `root` supplies `data` (of length `count`), all
    /// ranks receive the root's payload.
    pub fn bcast(&self, data: &[i64], count: usize, root: u32) -> Result<Vec<i64>, MpiError> {
        let sig = CollSignature {
            kind: CollKind::Bcast,
            count,
            root: Some(root),
        };
        let payload = if self.rank == root {
            Some(data.to_vec())
        } else {
            None
        };
        self.collective("MPI_Bcast", sig, None, payload)
    }

    /// `MPI_Allgather`: every rank contributes `data`; everyone receives
    /// the concatenation in rank order.
    pub fn allgather(&self, data: &[i64]) -> Result<Vec<i64>, MpiError> {
        let sig = CollSignature {
            kind: CollKind::Allgather,
            count: data.len(),
            root: None,
        };
        self.collective("MPI_Allgather", sig, None, Some(data.to_vec()))
    }

    /// `MPI_Gather` to `root`: root receives the rank-ordered
    /// concatenation, non-roots receive `None`.
    pub fn gather(&self, data: &[i64], root: u32) -> Result<Option<Vec<i64>>, MpiError> {
        let sig = CollSignature {
            kind: CollKind::Gather,
            count: data.len(),
            root: Some(root),
        };
        let r = self.collective("MPI_Gather", sig, None, Some(data.to_vec()))?;
        Ok(if self.rank == root { Some(r) } else { None })
    }

    /// `MPI_Scatter` from `root`: root supplies `world_size × chunk`
    /// elements; every rank receives its own `chunk`-sized slice.
    pub fn scatter(&self, data: &[i64], chunk: usize, root: u32) -> Result<Vec<i64>, MpiError> {
        let sig = CollSignature {
            kind: CollKind::Scatter,
            count: chunk,
            root: Some(root),
        };
        let payload = if self.rank == root {
            assert_eq!(
                data.len(),
                chunk * self.world.size as usize,
                "scatter root must supply world_size × chunk elements"
            );
            Some(data.to_vec())
        } else {
            None
        };
        let full = self.collective("MPI_Scatter", sig, None, payload)?;
        let start = self.rank as usize * chunk;
        Ok(full[start..start + chunk].to_vec())
    }

    /// `MPI_Sendrecv`: simultaneous send to `dst` and receive from
    /// `src` — deadlock-free pairwise exchange (internally a posted
    /// receive followed by the send).
    pub fn sendrecv(
        &self,
        dst: u32,
        send_tag: i32,
        data: &[i64],
        src: u32,
        recv_tag: i32,
    ) -> Result<Vec<i64>, MpiError> {
        if dst >= self.world.size {
            return Err(MpiError::InvalidRank(dst));
        }
        if src >= self.world.size {
            return Err(MpiError::InvalidRank(src));
        }
        let me = self.rank;
        self.traced("MPI_Sendrecv", || {
            // Post the receive, then send (posted-receive delivery makes
            // the send complete even above the eager limit).
            let send_op = HbOp::Send {
                dst,
                tag: send_tag,
                rendezvous: false,
            };
            let recv_op = HbOp::Recv {
                src: Some(src),
                tag: recv_tag,
            };
            let id = self.world.mutate(|st| {
                let vc = st.stamp_op(me, "MPI_Sendrecv", send_op);
                let id = World::next_send_id(st);
                st.posted_recvs.push(PostedRecv {
                    id,
                    src,
                    dst: me,
                    tag: recv_tag,
                    msg: None,
                });
                if !World::try_deliver_posted(st, me, dst, send_tag, data, &vc) {
                    let sid = World::next_send_id(st);
                    st.pending_sends.push(PendingSend {
                        id: sid,
                        src: me,
                        dst,
                        tag: send_tag,
                        data: data.to_vec(),
                        vc,
                    });
                }
                id
            })?;
            // Complete the receive (the send side is buffered; its
            // parked payload is consumed by the peer's posted receive
            // or a later explicit receive).
            self.world.block_on(me, "MPI_Sendrecv", recv_op, move |st| {
                let pos = st.posted_recvs.iter().position(|p| p.id == id)?;
                if let Some(msg) = st.posted_recvs[pos].msg.take() {
                    st.posted_recvs.swap_remove(pos);
                    st.stamp_recv_op(me, "MPI_Sendrecv", recv_op, &msg.vc);
                    return Some(msg.data);
                }
                if let Some(q) = st.mailbox.get_mut(&(src, me, recv_tag)) {
                    if let Some(msg) = q.pop_front() {
                        st.posted_recvs.swap_remove(pos);
                        st.stamp_recv_op(me, "MPI_Sendrecv", recv_op, &msg.vc);
                        return Some(msg.data);
                    }
                }
                let (data, vc) = take_pending_send(st, src, me, recv_tag)?;
                st.posted_recvs.swap_remove(pos);
                st.stamp_recv_op(me, "MPI_Sendrecv", recv_op, &vc);
                Some(data)
            })
        })
    }

    /// Open an OpenMP-style parallel region with `num_threads` total
    /// threads (this thread participates as thread 0; workers get
    /// thread IDs `1..num_threads` and their own tracers). Traced as
    /// `GOMP_parallel_start` / `GOMP_parallel_end`.
    pub fn omp_parallel<F>(&self, num_threads: u32, body: F)
    where
        F: Fn(&OmpCtx) + Send + Sync,
    {
        omp::parallel_region(
            &self.world,
            &self.collector,
            &self.tracer,
            self.rank,
            num_threads,
            &body,
            &body,
        );
    }

    /// Master/worker variant of [`Rank::omp_parallel`]: thread 0 runs
    /// `master` (which may capture this `Rank` and issue MPI calls —
    /// the ILCS Listing 1 shape), the other threads run `worker`.
    pub fn omp_parallel_mw<M, W>(&self, num_threads: u32, master: M, worker: W)
    where
        M: FnOnce(&OmpCtx),
        W: Fn(&OmpCtx) + Send + Sync,
    {
        omp::parallel_region(
            &self.world,
            &self.collector,
            &self.tracer,
            self.rank,
            num_threads,
            master,
            worker,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{run, SimConfig};
    use crate::AbortReason;
    use dt_trace::FunctionRegistry;

    fn registry() -> Arc<FunctionRegistry> {
        Arc::new(FunctionRegistry::new())
    }

    #[test]
    fn ring_send_recv() {
        let out = run(SimConfig::new(4), registry(), |rank| {
            rank.init()?;
            let r = rank.comm_rank()?;
            let n = rank.comm_size()?;
            let next = (r + 1) % n;
            let prev = (r + n - 1) % n;
            rank.send(next, 0, &[i64::from(r)])?;
            let got = rank.recv(prev, 0)?;
            assert_eq!(got, vec![i64::from(prev)]);
            rank.finalize()
        });
        assert!(!out.deadlocked);
        assert!(out.errors.is_empty());
        // Trace shape: Init, Comm_rank, Comm_size, Send, Recv, Finalize
        // (calls+returns = 12 events).
        for t in out.traces.iter() {
            assert_eq!(t.events.len(), 12);
            assert!(!t.truncated);
        }
    }

    #[test]
    fn rendezvous_head_to_head_send_deadlocks() {
        // The §II-B trap: both ranks Send first with messages above the
        // eager limit — classic Send‖Send deadlock.
        let cfg = SimConfig::new(2).with_eager_limit(8); // one i64 fits; two do not
        let out = run(cfg, registry(), |rank| {
            rank.init()?;
            let peer = 1 - rank.rank();
            rank.send(peer, 0, &[1, 2, 3, 4])?; // 32 bytes > limit
            let _ = rank.recv(peer, 0)?;
            rank.finalize()
        });
        assert!(out.deadlocked);
        for t in out.traces.iter() {
            assert!(t.truncated);
            // Last event is the MPI_Send call that never returned.
            let last = t.iter().next_back().unwrap();
            assert!(last.is_call());
            assert_eq!(out.traces.registry.name(last.fn_id()), "MPI_Send");
        }
    }

    #[test]
    fn eager_buffering_avoids_the_trap() {
        // Same code, small messages: eager buffering absorbs both sends.
        let cfg = SimConfig::new(2).with_eager_limit(1024);
        let out = run(cfg, registry(), |rank| {
            rank.init()?;
            let peer = 1 - rank.rank();
            rank.send(peer, 0, &[1, 2, 3, 4])?;
            let _ = rank.recv(peer, 0)?;
            rank.finalize()
        });
        assert!(!out.deadlocked);
    }

    #[test]
    fn allreduce_and_reduce_and_bcast() {
        let out = run(SimConfig::new(3), registry(), |rank| {
            rank.init()?;
            let r = i64::from(rank.rank());
            assert_eq!(rank.allreduce(&[r], ReduceOp::Sum)?, vec![3]);
            assert_eq!(rank.allreduce(&[r], ReduceOp::Max)?, vec![2]);
            let red = rank.reduce(&[r + 1], ReduceOp::Min, 0)?;
            if rank.rank() == 0 {
                assert_eq!(red, Some(vec![1]));
            } else {
                assert_eq!(red, None);
            }
            let data = if rank.rank() == 1 {
                vec![7, 8]
            } else {
                vec![0, 0]
            };
            assert_eq!(rank.bcast(&data, 2, 1)?, vec![7, 8]);
            rank.barrier()?;
            rank.finalize()
        });
        assert!(!out.deadlocked, "errors: {:?}", out.errors);
    }

    #[test]
    fn wrong_collective_size_deadlocks_and_truncates() {
        // §IV-C: rank 1 advertises the wrong count.
        let out = run(SimConfig::new(3), registry(), |rank| {
            rank.init()?;
            let r = i64::from(rank.rank());
            let count = if rank.rank() == 1 { 5 } else { 1 };
            let _ = rank.allreduce_with_count(&[r], ReduceOp::Min, count)?;
            rank.finalize()
        });
        assert!(out.deadlocked);
        for t in out.traces.iter() {
            let last = t.iter().next_back().unwrap();
            assert!(last.is_call());
            assert_eq!(out.traces.registry.name(last.fn_id()), "MPI_Allreduce");
        }
    }

    #[test]
    fn recv_from_nobody_deadlocks_only_that_shape() {
        let out = run(SimConfig::new(2), registry(), |rank| {
            rank.init()?;
            if rank.rank() == 0 {
                let _ = rank.recv(1, 999)?; // never sent
            }
            rank.finalize()
        });
        assert!(out.deadlocked);
        let t0 = out.traces.get(TraceId::master(0)).unwrap();
        assert!(t0.truncated);
        let t1 = out.traces.get(TraceId::master(1)).unwrap();
        assert!(!t1.truncated, "rank 1 finished cleanly");
    }

    #[test]
    fn invalid_rank_is_an_error_not_a_hang() {
        let out = run(SimConfig::new(2), registry(), |rank| {
            rank.init()?;
            if rank.rank() == 0 {
                rank.send(7, 0, &[1])?;
            }
            rank.finalize()
        });
        assert!(out
            .errors
            .iter()
            .any(|(r, e)| *r == 0 && matches!(e, MpiError::InvalidRank(7))));
    }

    #[test]
    fn collectives_match_by_call_order() {
        // Two successive allreduces must not interfere.
        let out = run(SimConfig::new(2), registry(), |rank| {
            rank.init()?;
            let r = i64::from(rank.rank());
            assert_eq!(rank.allreduce(&[r], ReduceOp::Sum)?, vec![1]);
            assert_eq!(rank.allreduce(&[r * 10], ReduceOp::Sum)?, vec![10]);
            rank.finalize()
        });
        assert!(!out.deadlocked);
    }

    #[test]
    fn internals_mode_traces_library_calls() {
        let run_with = |internals: bool| {
            let cfg = if internals {
                SimConfig::new(2).with_internals()
            } else {
                SimConfig::new(2)
            };
            run(cfg, registry(), |rank| {
                rank.init()?;
                let peer = 1 - rank.rank();
                if rank.rank() == 0 {
                    rank.send(peer, 0, &[1])?;
                } else {
                    let _ = rank.recv(peer, 0)?;
                }
                let _ = rank.allreduce(&[1], ReduceOp::Sum)?;
                rank.finalize()
            })
        };
        let plain = run_with(false);
        let all_images = run_with(true);
        let names = |out: &crate::RunOutcome, p: u32| -> Vec<String> {
            out.traces
                .get(TraceId::master(p))
                .unwrap()
                .calls()
                .map(|e| out.traces.registry.name(e.fn_id()))
                .collect()
        };
        // Main-image mode (the paper's runs): no MPIDI_/MPIR_ names.
        assert!(!names(&plain, 0)
            .iter()
            .any(|n| n.starts_with("MPIDI_") || n.starts_with("MPIR_")));
        // All-images mode: eager-send path + collective internals show.
        let v = names(&all_images, 0);
        assert!(
            v.contains(&"MPIDI_CH3_EagerContigSend".to_string()),
            "{v:?}"
        );
        assert!(v.contains(&"tcp_sendmsg".to_string()));
        assert!(v.contains(&"MPIR_Allreduce_intra".to_string()));
        let r = names(&all_images, 1);
        assert!(
            r.contains(&"MPIDI_CH3U_Recvq_FDU_or_AEP".to_string()),
            "{r:?}"
        );
        assert!(r.contains(&"poll_progress".to_string()));
    }

    #[test]
    fn recv_any_services_a_task_farm() {
        // Master/worker task farm: workers pull results in arrival
        // order via MPI_ANY_SOURCE.
        let out = run(SimConfig::new(4), registry(), |rank| {
            rank.init()?;
            if rank.rank() == 0 {
                let mut seen = Vec::new();
                for _ in 0..3 {
                    let (src, data) = rank.recv_any(9)?;
                    assert_eq!(data, vec![i64::from(src) * 100]);
                    seen.push(src);
                }
                seen.sort_unstable();
                assert_eq!(seen, vec![1, 2, 3]);
            } else {
                rank.send(0, 9, &[i64::from(rank.rank()) * 100])?;
            }
            rank.finalize()
        });
        assert!(!out.deadlocked, "{:?}", out.errors);
    }

    #[test]
    fn recv_any_matches_rendezvous_sends_too() {
        let cfg = SimConfig::new(2).with_eager_limit(8);
        let out = run(cfg, registry(), |rank| {
            rank.init()?;
            if rank.rank() == 1 {
                rank.send(0, 5, &[7; 32])?; // rendezvous-sized
            } else {
                let (src, data) = rank.recv_any(5)?;
                assert_eq!(src, 1);
                assert_eq!(data, vec![7; 32]);
            }
            rank.finalize()
        });
        assert!(!out.deadlocked, "{:?}", out.errors);
    }

    #[test]
    fn allgather_gather_scatter() {
        let out = run(SimConfig::new(3), registry(), |rank| {
            rank.init()?;
            let r = i64::from(rank.rank());
            assert_eq!(rank.allgather(&[r, r * 10])?, vec![0, 0, 1, 10, 2, 20]);
            let g = rank.gather(&[r + 1], 2)?;
            if rank.rank() == 2 {
                assert_eq!(g, Some(vec![1, 2, 3]));
            } else {
                assert_eq!(g, None);
            }
            let full: Vec<i64> = (0..6).collect();
            let mine = rank.scatter(&full, 2, 0)?;
            assert_eq!(mine, vec![r * 2, r * 2 + 1]);
            rank.finalize()
        });
        assert!(!out.deadlocked, "{:?}", out.errors);
    }

    #[test]
    fn sendrecv_pairwise_exchange_above_eager() {
        // The classic shift exchange that deadlocks with blocking
        // Send+Recv under low buffering — MPI_Sendrecv must survive it.
        let cfg = SimConfig::new(4).with_eager_limit(8);
        let out = run(cfg, registry(), |rank| {
            rank.init()?;
            let me = rank.rank();
            let n = rank.size();
            let next = (me + 1) % n;
            let prev = (me + n - 1) % n;
            let data = vec![i64::from(me); 8]; // 64 bytes > eager limit
            let got = rank.sendrecv(next, 0, &data, prev, 0)?;
            assert_eq!(got, vec![i64::from(prev); 8]);
            rank.finalize()
        });
        assert!(!out.deadlocked, "{:?}", out.errors);
        // The trace records MPI_Sendrecv, not Send/Recv pairs.
        let t = out.traces.get(TraceId::master(0)).unwrap();
        let names: Vec<String> = t
            .calls()
            .map(|e| out.traces.registry.name(e.fn_id()))
            .collect();
        assert!(names.contains(&"MPI_Sendrecv".to_string()));
        assert!(!names.contains(&"MPI_Send".to_string()));
    }

    #[test]
    fn scatter_size_mismatch_hangs_like_mpi() {
        // Rank 1 advertises the wrong chunk size: signature mismatch
        // → detected deadlock, not silence.
        let out = run(SimConfig::new(2), registry(), |rank| {
            rank.init()?;
            let chunk = if rank.rank() == 1 { 3 } else { 2 };
            let full: Vec<i64> = (0..4).collect();
            let data = if rank.rank() == 0 { full } else { vec![0; 6] };
            let _ = rank.scatter(&data[..], chunk, 0)?;
            rank.finalize()
        });
        assert!(out.deadlocked);
    }

    #[test]
    fn nonblocking_exchange_avoids_head_to_head() {
        // The textbook fix for the §II-B trap: post irecv first, then
        // send — works even above the eager limit.
        let cfg = SimConfig::new(2).with_eager_limit(8);
        let out = run(cfg, registry(), |rank| {
            rank.init()?;
            let peer = 1 - rank.rank();
            let req = rank.irecv(peer, 0)?;
            rank.send(peer, 0, &[1, 2, 3, 4])?; // 32 bytes > eager
            let got = rank.wait(req)?.expect("recv request yields data");
            assert_eq!(got, vec![1, 2, 3, 4]);
            rank.finalize()
        });
        assert!(!out.deadlocked, "{:?}", out.errors);
        // Trace shows the Isend-family names of Table I's filter row.
        let t = out.traces.get(TraceId::master(0)).unwrap();
        let names: Vec<String> = t
            .calls()
            .map(|e| out.traces.registry.name(e.fn_id()))
            .collect();
        assert!(names.contains(&"MPI_Irecv".to_string()));
        assert!(names.contains(&"MPI_Wait".to_string()));
    }

    #[test]
    fn isend_wait_round_trip_above_eager() {
        let cfg = SimConfig::new(2).with_eager_limit(8);
        let out = run(cfg, registry(), |rank| {
            rank.init()?;
            if rank.rank() == 0 {
                let req = rank.isend(1, 5, &[9; 16])?;
                let r = rank.wait(req)?;
                assert!(r.is_none(), "send requests carry no payload");
            } else {
                assert_eq!(rank.recv(0, 5)?, vec![9; 16]);
            }
            rank.finalize()
        });
        assert!(!out.deadlocked, "{:?}", out.errors);
    }

    #[test]
    fn eager_isend_completes_immediately() {
        let out = run(SimConfig::new(2), registry(), |rank| {
            rank.init()?;
            if rank.rank() == 0 {
                let req = rank.isend(1, 0, &[7])?;
                assert!(matches!(req, crate::rank::Request::Done { .. }));
                let _ = rank.wait(req)?;
            } else {
                assert_eq!(rank.recv(0, 0)?, vec![7]);
            }
            rank.finalize()
        });
        assert!(!out.deadlocked);
    }

    #[test]
    fn request_tracking_exports_pending_and_signatures() {
        let out = run(
            SimConfig::new(2).with_request_tracking(),
            registry(),
            |rank| {
                rank.init()?;
                if rank.rank() == 0 {
                    let _leaked = rank.isend(1, 4, &[7])?; // never waited
                } else {
                    assert_eq!(rank.recv(0, 4)?, vec![7]);
                }
                let _ = rank.allreduce(&[1], ReduceOp::Sum)?;
                rank.finalize()
            },
        );
        assert!(!out.deadlocked, "{:?}", out.errors);
        let names = |p: u32| -> Vec<String> {
            out.traces
                .get(TraceId::master(p))
                .unwrap()
                .calls()
                .map(|e| out.traces.registry.name(e.fn_id()))
                .collect()
        };
        let v0 = names(0);
        assert!(
            v0.contains(&"mpi_coll@MPI_Allreduce:1:-:sum".to_string()),
            "{v0:?}"
        );
        // The leak witness lands at teardown, after MPI_Finalize.
        assert_eq!(
            v0.last().map(String::as_str),
            Some("mpi_req_pending@MPI_Isend:dst=1,tag=4"),
            "{v0:?}"
        );
        let v1 = names(1);
        assert!(
            !v1.iter().any(|n| n.starts_with("mpi_req_pending@")),
            "{v1:?}"
        );
    }

    #[test]
    fn waited_requests_leave_no_pending_witness() {
        let cfg = SimConfig::new(2)
            .with_request_tracking()
            .with_eager_limit(8);
        let out = run(cfg, registry(), |rank| {
            rank.init()?;
            let peer = 1 - rank.rank();
            let req = rank.irecv(peer, 0)?;
            rank.send(peer, 0, &[1, 2, 3, 4])?;
            let _ = rank.wait(req)?;
            rank.finalize()
        });
        assert!(!out.deadlocked, "{:?}", out.errors);
        for t in out.traces.iter() {
            assert!(!t.calls().any(|e| out
                .traces
                .registry
                .name(e.fn_id())
                .starts_with("mpi_req_pending@")));
        }
    }

    #[test]
    fn default_config_emits_no_request_markers() {
        // Request tracking is opt-in: existing corpora keep their exact
        // trace shapes.
        let out = run(SimConfig::new(2), registry(), |rank| {
            rank.init()?;
            if rank.rank() == 0 {
                let _ = rank.isend(1, 0, &[1])?; // even a leak is silent
            } else {
                let _ = rank.recv(0, 0)?;
            }
            rank.barrier()?;
            rank.finalize()
        });
        assert!(!out.deadlocked, "{:?}", out.errors);
        for t in out.traces.iter() {
            assert!(!t.calls().any(|e| {
                let n = out.traces.registry.name(e.fn_id());
                n.starts_with("mpi_coll@") || n.starts_with("mpi_req_pending@")
            }));
        }
    }

    #[test]
    fn aborted_wait_still_consumes_the_world_entry() {
        // One rank's MPI_Wait dies in a deadlock abort; its posted
        // receive must not linger in world state where it could swallow
        // another rank's message.
        let out = run(SimConfig::new(2), registry(), |rank| {
            rank.init()?;
            if rank.rank() == 0 {
                let req = rank.irecv(1, 3)?; // never sent: wait deadlocks
                let err = rank.wait(req);
                assert!(err.is_err());
                assert!(rank.world().with_state(|st| st.posted_recvs.is_empty()));
                err.map(|_| ())
            } else {
                rank.finalize()
            }
        });
        assert!(out.deadlocked);
    }

    #[test]
    fn abort_reason_surfaces() {
        let out = run(SimConfig::new(2), registry(), |rank| {
            rank.init()?;
            if rank.rank() == 0 {
                let _ = rank.recv(1, 3)?;
            }
            rank.finalize()
        });
        assert!(out
            .errors
            .iter()
            .any(|(_, e)| matches!(e, MpiError::Aborted(AbortReason::Deadlock))));
    }
}
