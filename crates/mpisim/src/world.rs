//! The shared simulation world: message matching, collectives,
//! blocking, and the quiescence deadlock detector.

use crate::collective::{CollInstance, CollSignature};
use crate::error::{AbortReason, MpiError};
use crate::hb::{HbLog, HbOp, VectorClock};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// An in-flight message: payload plus the sender's causal stamp.
#[derive(Debug, Clone)]
pub struct Msg {
    /// Payload.
    pub data: Vec<i64>,
    /// Sender's vector clock at send time.
    pub vc: VectorClock,
}

/// A receive posted by `MPI_Irecv`, waiting for a sender to fill it.
#[derive(Debug)]
pub struct PostedRecv {
    /// Unique ID so the receiver can find its entry in `MPI_Wait`.
    pub id: u64,
    /// Expected source rank.
    pub src: u32,
    /// Receiving rank.
    pub dst: u32,
    /// Message tag.
    pub tag: i32,
    /// Filled by the matching send.
    pub msg: Option<Msg>,
}

/// A rendezvous send waiting for its matching receive.
#[derive(Debug)]
pub struct PendingSend {
    /// Unique ID so the sender can find its entry again.
    pub id: u64,
    /// Source rank.
    pub src: u32,
    /// Destination rank.
    pub dst: u32,
    /// Message tag.
    pub tag: i32,
    /// Payload.
    pub data: Vec<i64>,
    /// Sender's vector clock at send time.
    pub vc: VectorClock,
}

/// Receiver-side consumption of a parked rendezvous send: removes the
/// entry and returns its payload+stamp. The blocking sender (if any)
/// completes when it observes its entry has vanished.
pub fn take_pending_send(
    st: &mut WorldState,
    src: u32,
    dst: u32,
    tag: i32,
) -> Option<(Vec<i64>, VectorClock)> {
    let idx = st
        .pending_sends
        .iter()
        .position(|p| p.src == src && p.dst == dst && p.tag == tag)?;
    let p = st.pending_sends.swap_remove(idx);
    Some((p.data, p.vc))
}

/// One named OpenMP lock or critical section.
pub type CriticalMutex = Arc<Mutex<()>>;

/// Mutable world state, guarded by one global lock. The lock is
/// world-global on purpose: it makes the quiescence argument airtight
/// (a predicate is re-evaluated atomically with the blocked-count
/// bookkeeping) and the simulated scale — tens of ranks — never
/// contends enough to matter.
#[derive(Debug, Default)]
pub struct WorldState {
    /// Abort reason, once aborted.
    pub aborted: Option<AbortReason>,
    /// State-mutation counter; every change bumps it and wakes everyone.
    pub version: u64,
    /// Eagerly buffered messages: (src, dst, tag) → FIFO of messages.
    pub mailbox: HashMap<(u32, u32, i32), VecDeque<Msg>>,
    /// Rendezvous sends awaiting a matching receive.
    pub pending_sends: Vec<PendingSend>,
    /// Receives posted by `MPI_Irecv`, not yet completed.
    pub posted_recvs: Vec<PostedRecv>,
    next_send_id: u64,
    /// In-flight collectives keyed by call-order slot.
    pub collectives: HashMap<u64, CollInstance>,
    /// rank → version at which it last found its predicate false.
    blocked_at: HashMap<u32, u64>,
    /// Ranks whose body has returned (will never act again).
    pub finished: u32,
    /// The ranks that finished, for the HB export.
    pub finished_ranks: Vec<u32>,
    /// Per-rank vector clocks (causality tracking — see [`crate::hb`]).
    pub vclocks: Vec<VectorClock>,
    /// Causally-stamped event log (delta-encoded clocks).
    pub hb: HbLog,
    /// rank → the operation it is currently blocked inside (registered
    /// by [`World::block_on`]; survives an abort, which is exactly what
    /// the wait-for-graph analysis reads).
    pub waiting: HashMap<u32, (String, HbOp)>,
}

impl WorldState {
    /// Advance `rank`'s clock and log `name`; returns the new stamp.
    pub fn stamp(&mut self, rank: u32, name: &str) -> VectorClock {
        self.stamp_op(rank, name, HbOp::Local)
    }

    /// [`WorldState::stamp`] with the operation's communication shape.
    pub fn stamp_op(&mut self, rank: u32, name: &str, op: HbOp) -> VectorClock {
        self.vclocks[rank as usize].tick(rank as usize);
        let vc = self.vclocks[rank as usize].clone();
        self.hb.push(dt_trace::TraceId::master(rank), name, op, &vc);
        vc
    }

    /// Merge a received stamp into `rank`'s clock, advance it, and log.
    pub fn stamp_recv(&mut self, rank: u32, name: &str, from: &VectorClock) {
        self.stamp_recv_op(rank, name, HbOp::Local, from);
    }

    /// [`WorldState::stamp_recv`] with the operation's shape.
    pub fn stamp_recv_op(&mut self, rank: u32, name: &str, op: HbOp, from: &VectorClock) {
        self.vclocks[rank as usize].merge(from);
        self.stamp_op(rank, name, op);
    }
}

/// The shared world for one simulated execution.
#[derive(Debug)]
pub struct World {
    /// Number of ranks.
    pub size: u32,
    /// Eager/rendezvous threshold in bytes (8 bytes per `i64` element).
    pub eager_limit: usize,
    /// Trace MPI-internal library calls (ParLOT "all images" mode).
    pub trace_internals: bool,
    /// Emit request-lifecycle markers (`mpi_coll@…` collective
    /// signatures, `mpi_req_pending@…` teardown witnesses) for the
    /// `reqcheck` analysis.
    pub record_requests: bool,
    state: Mutex<WorldState>,
    cv: Condvar,
    aborted_flag: AtomicBool,
    /// Mirror of `WorldState::version` readable without the lock (the
    /// watchdog polls it).
    progress: AtomicU64,
    /// Named OpenMP locks and criticals: (process, name) → mutex.
    criticals: Mutex<HashMap<(u32, String), CriticalMutex>>,
    /// `omp single` election slots: name → winning thread.
    singles: Mutex<HashMap<String, u32>>,
}

impl World {
    /// A fresh world (internals tracing and request markers off).
    pub fn new(size: u32, eager_limit: usize) -> Arc<World> {
        World::new_full(size, eager_limit, false, false)
    }

    /// A fresh world with every knob explicit.
    pub fn new_full(
        size: u32,
        eager_limit: usize,
        trace_internals: bool,
        record_requests: bool,
    ) -> Arc<World> {
        let state = WorldState {
            vclocks: vec![VectorClock::zero(size as usize); size as usize],
            hb: HbLog::new(size as usize),
            ..WorldState::default()
        };
        Arc::new(World {
            size,
            eager_limit,
            trace_internals,
            record_requests,
            state: Mutex::new(state),
            cv: Condvar::new(),
            aborted_flag: AtomicBool::new(false),
            progress: AtomicU64::new(0),
            criticals: Mutex::new(HashMap::new()),
            singles: Mutex::new(HashMap::new()),
        })
    }

    /// Claim the `omp single` slot `name` for `thread`; true only for
    /// the first claimer.
    pub fn claim_single(&self, name: &str, thread: u32) -> bool {
        let mut m = self.singles.lock();
        match m.entry(name.to_string()) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(thread);
                true
            }
            std::collections::hash_map::Entry::Occupied(o) => *o.get() == thread,
        }
    }

    /// Lock-free abort check (polled by OpenMP worker loops, like a
    /// worker noticing the job scheduler killed the allocation).
    pub fn is_aborted(&self) -> bool {
        self.aborted_flag.load(Ordering::Acquire)
    }

    /// Current progress version (for the watchdog).
    pub fn progress_version(&self) -> u64 {
        self.progress.load(Ordering::Acquire)
    }

    fn bump_locked(&self, st: &mut WorldState) {
        st.version += 1;
        self.progress.store(st.version, Ordering::Release);
        self.cv.notify_all();
    }

    /// Abort the run (deadlock detector / watchdog / tests).
    pub fn abort(&self, reason: AbortReason) {
        let mut st = self.state.lock();
        self.abort_locked(&mut st, reason);
    }

    fn abort_locked(&self, st: &mut WorldState, reason: AbortReason) {
        if st.aborted.is_none() {
            st.aborted = Some(reason);
            self.aborted_flag.store(true, Ordering::Release);
            self.bump_locked(st);
        }
    }

    /// Run a non-blocking state mutation (eager send, collective
    /// arrival, rank completion, …) and wake all waiters.
    pub fn mutate<R>(&self, f: impl FnOnce(&mut WorldState) -> R) -> Result<R, MpiError> {
        let mut st = self.state.lock();
        if let Some(r) = st.aborted {
            return Err(MpiError::Aborted(r));
        }
        let out = f(&mut st);
        self.bump_locked(&mut st);
        Ok(out)
    }

    /// Block rank `rank` until `pred` yields a value.
    ///
    /// `pred` must be pure on failure; it may mutate state only when it
    /// succeeds (e.g. popping the matched message) — the mutation is
    /// published with a version bump.
    ///
    /// Quiescence detection: a rank records the state version at which
    /// its predicate last failed. If *every* live rank is blocked with
    /// an up-to-date failure record, no rank can ever make progress
    /// (predicates are functions of the state and the state can only be
    /// changed by live ranks) — global deadlock, abort.
    pub fn block_until<R>(
        &self,
        rank: u32,
        mut pred: impl FnMut(&mut WorldState) -> Option<R>,
    ) -> Result<R, MpiError> {
        let mut st = self.state.lock();
        loop {
            if let Some(r) = st.aborted {
                return Err(MpiError::Aborted(r));
            }
            if let Some(out) = pred(&mut st) {
                // Success may have consumed state (message, collective
                // slot) that other predicates observe.
                self.bump_locked(&mut st);
                return Ok(out);
            }
            let v = st.version;
            st.blocked_at.insert(rank, v);
            let alive = self.size - st.finished;
            let all_blocked_current =
                st.blocked_at.len() as u32 == alive && st.blocked_at.values().all(|&bv| bv == v);
            if all_blocked_current {
                self.abort_locked(&mut st, AbortReason::Deadlock);
                st.blocked_at.remove(&rank);
                return Err(MpiError::Aborted(AbortReason::Deadlock));
            }
            self.cv.wait(&mut st);
            st.blocked_at.remove(&rank);
        }
    }

    /// [`World::block_until`], registering what `rank` is blocked *on*
    /// in [`WorldState::waiting`]. On success the registration is
    /// removed; on abort it is left in place — that frozen snapshot of
    /// blocked operations is exactly what the wait-for-graph deadlock
    /// analysis consumes.
    pub fn block_on<R>(
        &self,
        rank: u32,
        name: &str,
        op: HbOp,
        pred: impl FnMut(&mut WorldState) -> Option<R>,
    ) -> Result<R, MpiError> {
        {
            let mut st = self.state.lock();
            st.waiting.insert(rank, (name.to_string(), op));
        }
        let out = self.block_until(rank, pred);
        if out.is_ok() {
            let mut st = self.state.lock();
            st.waiting.remove(&rank);
        }
        out
    }

    /// Allocate a rendezvous-send / posted-receive ID.
    pub fn next_send_id(st: &mut WorldState) -> u64 {
        st.next_send_id += 1;
        st.next_send_id
    }

    /// Try to deliver a message straight into a matching posted
    /// receive (the progress-engine path `MPI_Irecv` enables). Returns
    /// true when delivered.
    pub fn try_deliver_posted(
        st: &mut WorldState,
        src: u32,
        dst: u32,
        tag: i32,
        data: &[i64],
        vc: &crate::hb::VectorClock,
    ) -> bool {
        if let Some(pr) = st
            .posted_recvs
            .iter_mut()
            .find(|p| p.msg.is_none() && p.src == src && p.dst == dst && p.tag == tag)
        {
            pr.msg = Some(Msg {
                data: data.to_vec(),
                vc: vc.clone(),
            });
            true
        } else {
            false
        }
    }

    /// Mark a rank's body as returned; it no longer counts as "live"
    /// for quiescence detection.
    pub fn rank_done(&self, rank: u32) {
        // Ignore the abort error: completion bookkeeping must run even
        // after an abort so joins don't hang.
        let mut st = self.state.lock();
        st.finished += 1;
        st.finished_ranks.push(rank);
        self.bump_locked(&mut st);
        // A finishing rank can expose a deadlock among the rest; the
        // remaining blocked ranks will wake (we just notified), re-check
        // and re-record, so detection happens on their side.
    }

    /// Forget a nonblocking request's world-state entry. Runs even
    /// after an abort (unlike [`World::mutate`], mirroring
    /// [`World::rank_done`]): a rank whose `MPI_Wait` was aborted must
    /// still relinquish its posted receive / parked send, otherwise the
    /// stale entry can swallow a surviving rank's message and cascade
    /// one injected fault into spurious failures elsewhere.
    pub fn forget_request(&self, id: u64) {
        let mut st = self.state.lock();
        st.pending_sends.retain(|p| p.id != id);
        st.posted_recvs.retain(|p| p.id != id);
        self.bump_locked(&mut st);
    }

    /// The mutex of named critical section or lock `name` in rank
    /// `process` (created on first use). OpenMP names are global to one
    /// program *instance*: two ranks never share a lock, so a
    /// cross-rank lock cycle cannot block threads the MPI deadlock
    /// detector does not see.
    pub fn critical_mutex(&self, process: u32, name: &str) -> CriticalMutex {
        let mut m = self.criticals.lock();
        m.entry((process, name.to_string()))
            .or_insert_with(|| Arc::new(Mutex::new(())))
            .clone()
    }

    /// The current collective signature/instance map (tests only).
    pub fn with_state<R>(&self, f: impl FnOnce(&WorldState) -> R) -> R {
        f(&self.state.lock())
    }
}

/// Helpers the rank API uses for collective bookkeeping.
pub fn arrive_collective(
    st: &mut WorldState,
    world_size: usize,
    slot: u64,
    rank: u32,
    sig: CollSignature,
    op: Option<crate::collective::ReduceOp>,
    payload: Option<Vec<i64>>,
) {
    let vc = st.vclocks.get(rank as usize).cloned();
    let inst = st
        .collectives
        .entry(slot)
        .or_insert_with(|| CollInstance::new(world_size, sig));
    inst.arrive_stamped(rank as usize, sig, op, payload, vc);
}

/// Take the collective result for `rank` once complete; removes the
/// instance after the last departure.
pub fn take_collective(st: &mut WorldState, slot: u64, rank: u32) -> Option<Vec<i64>> {
    let world = st.vclocks.len();
    let inst = st.collectives.get_mut(&slot)?;
    if !inst.complete() {
        return None;
    }
    let result = inst.result.clone().expect("complete implies result");
    let joined = inst.joined_vc(world);
    inst.departed += 1;
    if inst.departed == inst.payloads.len() {
        st.collectives.remove(&slot);
    }
    // Departing from a collective makes every participant's arrival
    // causally visible.
    if let Some(vc) = st.vclocks.get_mut(rank as usize) {
        vc.merge(&joined);
    }
    Some(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::{CollKind, ReduceOp};
    use std::thread;
    use std::time::Duration;

    #[test]
    fn mutate_bumps_version_and_notifies() {
        let w = World::new(2, 64);
        assert_eq!(w.progress_version(), 0);
        w.mutate(|st| {
            st.mailbox.entry((0, 1, 0)).or_default().push_back(Msg {
                data: vec![42],
                vc: VectorClock::zero(2),
            });
        })
        .unwrap();
        assert_eq!(w.progress_version(), 1);
    }

    #[test]
    fn block_until_returns_when_predicate_satisfied() {
        let w = World::new(2, 64);
        let w2 = w.clone();
        let h = thread::spawn(move || {
            w2.block_until(1, |st| {
                st.mailbox.get_mut(&(0, 1, 7)).and_then(|q| q.pop_front())
            })
        });
        thread::sleep(Duration::from_millis(20));
        w.mutate(|st| {
            st.mailbox.entry((0, 1, 7)).or_default().push_back(Msg {
                data: vec![9],
                vc: VectorClock::zero(2),
            });
        })
        .unwrap();
        assert_eq!(h.join().unwrap().unwrap().data, vec![9]);
    }

    #[test]
    fn two_blocked_ranks_deadlock_is_detected() {
        let w = World::new(2, 64);
        let mut handles = Vec::new();
        for r in 0..2u32 {
            let w = w.clone();
            handles.push(thread::spawn(move || {
                // Both wait for messages no one will send.
                w.block_until(r, |st| {
                    st.mailbox
                        .get_mut(&(1 - r, r, 0))
                        .and_then(|q| q.pop_front())
                })
            }));
        }
        for h in handles {
            let err = h.join().unwrap().unwrap_err();
            assert_eq!(err, MpiError::Aborted(AbortReason::Deadlock));
        }
        assert!(w.is_aborted());
    }

    #[test]
    fn finished_rank_exposes_deadlock_of_the_rest() {
        let w = World::new(2, 64);
        let w1 = w.clone();
        let blocked = thread::spawn(move || {
            w1.block_until(1, |st| {
                st.mailbox.get_mut(&(0, 1, 0)).and_then(|q| q.pop_front())
            })
        });
        thread::sleep(Duration::from_millis(20));
        // Rank 0 finishes without sending: rank 1 can never proceed.
        w.rank_done(0);
        let err = blocked.join().unwrap().unwrap_err();
        assert_eq!(err, MpiError::Aborted(AbortReason::Deadlock));
    }

    #[test]
    fn no_false_deadlock_when_message_is_in_flight() {
        // Rank 0 posts an eager message and *then* blocks on something
        // unsatisfiable; rank 1's recv must succeed and then the true
        // deadlock (only rank 0 left blocked... which then has no peer)
        // is declared.
        let w = World::new(2, 64);
        let w0 = w.clone();
        let sender = thread::spawn(move || {
            w0.mutate(|st| {
                st.mailbox.entry((0, 1, 0)).or_default().push_back(Msg {
                    data: vec![5],
                    vc: VectorClock::zero(2),
                });
            })
            .unwrap();
            // Block forever.
            w0.block_until(0, |st| {
                st.mailbox.get_mut(&(1, 0, 9)).and_then(|q| q.pop_front())
            })
        });
        let w1 = w.clone();
        let receiver = thread::spawn(move || {
            let got = w1
                .block_until(1, |st| {
                    st.mailbox.get_mut(&(0, 1, 0)).and_then(|q| q.pop_front())
                })
                .unwrap();
            assert_eq!(got.data, vec![5]);
            w1.rank_done(1);
        });
        receiver.join().unwrap();
        let err = sender.join().unwrap().unwrap_err();
        assert_eq!(err, MpiError::Aborted(AbortReason::Deadlock));
    }

    #[test]
    fn collective_helpers_round_trip() {
        let w = World::new(2, 64);
        let sig = CollSignature {
            kind: CollKind::Allreduce,
            count: 1,
            root: None,
        };
        w.mutate(|st| arrive_collective(st, 2, 0, 0, sig, Some(ReduceOp::Sum), Some(vec![1])))
            .unwrap();
        w.mutate(|st| {
            assert!(take_collective(st, 0, 0).is_none(), "incomplete");
            arrive_collective(st, 2, 0, 1, sig, Some(ReduceOp::Sum), Some(vec![2]));
        })
        .unwrap();
        w.mutate(|st| {
            assert_eq!(take_collective(st, 0, 0), Some(vec![3]));
            assert_eq!(take_collective(st, 0, 1), Some(vec![3]));
            assert!(st.collectives.is_empty(), "instance cleaned up");
        })
        .unwrap();
    }

    #[test]
    fn forget_request_runs_even_after_abort() {
        let w = World::new(2, 64);
        w.mutate(|st| {
            st.posted_recvs.push(PostedRecv {
                id: 7,
                src: 1,
                dst: 0,
                tag: 0,
                msg: None,
            });
        })
        .unwrap();
        w.abort(AbortReason::Deadlock);
        assert!(w.mutate(|_| ()).is_err(), "mutate refuses after abort");
        w.forget_request(7);
        w.with_state(|st| assert!(st.posted_recvs.is_empty()));
    }

    #[test]
    fn critical_mutexes_are_shared_by_name() {
        let w = World::new(1, 64);
        let a = w.critical_mutex(0, "champ");
        let b = w.critical_mutex(0, "champ");
        let c = w.critical_mutex(0, "other");
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn critical_mutexes_are_per_process() {
        let w = World::new(2, 64);
        let a = w.critical_mutex(0, "champ");
        let b = w.critical_mutex(1, "champ");
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&b, &w.critical_mutex(1, "champ")));
    }
}
