//! Traces, trace identifiers, and collections of traces.

use crate::event::TraceEvent;
use crate::hb::HbLog;
use crate::registry::FunctionRegistry;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Identifies one traced thread: MPI process (rank) and thread index
/// within it. Displayed as `"p.t"`, matching the paper's ranking tables
/// (e.g. trace `6.4` = process 6, thread 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId {
    /// MPI rank.
    pub process: u32,
    /// Thread index within the rank; 0 is the master thread.
    pub thread: u32,
}

impl TraceId {
    /// Construct from rank and thread index.
    pub fn new(process: u32, thread: u32) -> TraceId {
        TraceId { process, thread }
    }

    /// The master-thread trace of a rank.
    pub fn master(process: u32) -> TraceId {
        TraceId::new(process, 0)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.process, self.thread)
    }
}

/// One per-thread trace: an ordered sequence of call/return events,
/// held as the packed symbol stream ParLOT stores — each event is its
/// [`TraceEvent::to_symbol`] `u32`, 4 bytes, so a decoded trace is the
/// compressor's input as-is and every consumer (filter, NLR fold,
/// checkers, store) reads it without conversion. [`Trace::iter`] views
/// the events as [`TraceEvent`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Which process/thread produced it.
    pub id: TraceId,
    /// The recorded events in program order, packed as symbols
    /// (`fn_id << 1 | return_bit`).
    pub events: Vec<u32>,
    /// True if the thread was aborted (deadlock/job kill) — its last
    /// call(s) have no matching return.
    pub truncated: bool,
}

impl Trace {
    /// An empty trace for `id`.
    pub fn new(id: TraceId) -> Trace {
        Trace {
            id,
            events: Vec::new(),
            truncated: false,
        }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Record one event.
    pub fn push(&mut self, e: TraceEvent) {
        self.events.push(e.to_symbol());
    }

    /// The events, decoded from their symbols, in program order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = TraceEvent> + ExactSizeIterator + '_ {
        self.events.iter().map(|&s| TraceEvent::from_symbol(s))
    }

    /// Only the call events (ParLOT's "filter out all returns" view).
    pub fn calls(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        self.iter().filter(|e| e.is_call())
    }

    /// The symbol stream consumed by the compressor (the events
    /// themselves).
    pub fn to_symbols(&self) -> &[u32] {
        &self.events
    }

    /// A trace holding a copy of `symbols`.
    pub fn from_symbols(id: TraceId, symbols: &[u32], truncated: bool) -> Trace {
        Trace {
            id,
            events: symbols.to_vec(),
            truncated,
        }
    }
}

/// All traces of one execution plus the shared function-name table.
#[derive(Debug, Clone)]
pub struct TraceSet {
    /// Shared name table.
    pub registry: Arc<FunctionRegistry>,
    traces: BTreeMap<TraceId, Trace>,
}

impl TraceSet {
    /// An empty set over `registry`.
    pub fn new(registry: Arc<FunctionRegistry>) -> TraceSet {
        TraceSet {
            registry,
            traces: BTreeMap::new(),
        }
    }

    /// Insert (or replace) a trace.
    pub fn insert(&mut self, trace: Trace) {
        self.traces.insert(trace.id, trace);
    }

    /// Fetch a trace by ID.
    pub fn get(&self, id: TraceId) -> Option<&Trace> {
        self.traces.get(&id)
    }

    /// All traces in `TraceId` order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = &Trace> {
        self.traces.values()
    }

    /// All trace IDs in order.
    pub fn ids(&self) -> Vec<TraceId> {
        self.traces.keys().copied().collect()
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True if the set holds no traces.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Distinct process (rank) IDs present.
    pub fn processes(&self) -> Vec<u32> {
        let mut ps: Vec<u32> = self.traces.keys().map(|t| t.process).collect();
        ps.dedup();
        ps
    }

    /// Traces belonging to one process, in thread order.
    pub fn process_traces(&self, process: u32) -> Vec<&Trace> {
        self.traces
            .values()
            .filter(|t| t.id.process == process)
            .collect()
    }
}

/// Canonicalise runs recorded on one shared registry, so that the
/// bytes they store depend only on what they recorded. Threads intern
/// function names as they first call them, so a re-recording numbers
/// the same functions differently, and its happens-before log holds
/// events in arrival order. This renumbers every function by sorted
/// name — the registry is replaced by the sorted one, still shared by
/// every run, and each event is rewritten in place — and replaces each
/// log by its [`HbLog::canonical`] form.
///
/// Panics if the runs do not share one registry.
pub fn canonicalize(runs: &mut [(&mut TraceSet, &mut HbLog)]) {
    let Some(recorded) = runs.first().map(|(set, _)| Arc::clone(&set.registry)) else {
        return;
    };
    let names = recorded.names();
    let mut order: Vec<usize> = (0..names.len()).collect();
    order.sort_by(|&a, &b| names[a].cmp(&names[b]));
    let mut new_id = vec![0u32; names.len()];
    for (i, &f) in order.iter().enumerate() {
        new_id[f] = i as u32;
    }
    let registry = Arc::new(FunctionRegistry::from_names(
        order.iter().map(|&f| names[f].clone()),
    ));
    for (set, hb) in runs.iter_mut() {
        assert!(
            Arc::ptr_eq(&set.registry, &recorded),
            "canonicalized runs share one registry"
        );
        set.registry = Arc::clone(&registry);
        for t in set.traces.values_mut() {
            for s in &mut t.events {
                *s = (new_id[(*s >> 1) as usize] << 1) | (*s & 1);
            }
        }
        **hb = hb.canonical();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hb::{HbOp, VectorClock};

    fn set_with(id: TraceId, names: &[&str]) -> TraceSet {
        let reg = Arc::new(FunctionRegistry::new());
        let mut t = Trace::new(id);
        for n in names {
            let f = reg.intern(n);
            t.push(TraceEvent::Call(f));
            t.push(TraceEvent::Return(f));
        }
        let mut s = TraceSet::new(reg);
        s.insert(t);
        s
    }

    #[test]
    fn trace_id_display_matches_paper() {
        assert_eq!(TraceId::new(6, 4).to_string(), "6.4");
        assert_eq!(TraceId::master(3).to_string(), "3.0");
    }

    #[test]
    fn symbol_round_trip_preserves_trace() {
        let s = set_with(TraceId::new(0, 0), &["main", "MPI_Init", "MPI_Finalize"]);
        let t = s.get(TraceId::new(0, 0)).unwrap();
        let back = Trace::from_symbols(t.id, t.to_symbols(), t.truncated);
        assert_eq!(&back, t);
        assert_eq!(t.iter().len(), 6);
        assert!(t
            .iter()
            .map(TraceEvent::to_symbol)
            .eq(t.events.iter().copied()));
    }

    #[test]
    fn calls_filters_returns() {
        let s = set_with(TraceId::new(1, 2), &["a", "b"]);
        let t = s.get(TraceId::new(1, 2)).unwrap();
        assert_eq!(t.len(), 4);
        let calls: Vec<_> = t.calls().collect();
        assert_eq!(calls.len(), 2);
        assert!(calls.iter().all(|e| e.is_call()));
    }

    #[test]
    fn set_ordering_and_process_queries() {
        let reg = Arc::new(FunctionRegistry::new());
        let mut s = TraceSet::new(reg);
        for (p, t) in [(1, 0), (0, 1), (0, 0), (1, 1)] {
            s.insert(Trace::new(TraceId::new(p, t)));
        }
        assert_eq!(
            s.ids(),
            vec![
                TraceId::new(0, 0),
                TraceId::new(0, 1),
                TraceId::new(1, 0),
                TraceId::new(1, 1)
            ]
        );
        assert_eq!(s.processes(), vec![0, 1]);
        assert_eq!(s.process_traces(1).len(), 2);
        assert_eq!(s.len(), 4);
    }

    /// Two recordings of one pair that interned names in different
    /// orders, with their log events in different arrival orders.
    fn recording(names: [&str; 2], first: u32) -> [(TraceSet, HbLog); 2] {
        let reg = Arc::new(FunctionRegistry::new());
        for n in names {
            reg.intern(n);
        }
        let (a, b) = (reg.resolve("a").unwrap(), reg.resolve("b").unwrap());
        let run = |f| {
            let mut set = TraceSet::new(reg.clone());
            for p in 0..2 {
                let mut t = Trace::new(TraceId::master(p));
                t.push(TraceEvent::Call(a));
                t.push(TraceEvent::Call(f));
                t.push(TraceEvent::Return(f));
                set.insert(t);
            }
            let mut hb = HbLog::new(2);
            for p in [first, 1 - first] {
                let mut vc = VectorClock::zero(2);
                vc.tick(p as usize);
                hb.push(TraceId::master(p), "MPI_Barrier", HbOp::Local, &vc);
            }
            hb.finished = vec![1 - first, first];
            (set, hb)
        };
        [run(a), run(b)]
    }

    #[test]
    fn canonicalize_makes_recordings_store_equal_bytes() {
        let bytes = |names, first| {
            let [(mut n, mut nh), (mut f, mut fh)] = recording(names, first);
            canonicalize(&mut [(&mut n, &mut nh), (&mut f, &mut fh)]);
            assert!(
                Arc::ptr_eq(&n.registry, &f.registry),
                "the pair shares one registry"
            );
            assert_eq!(n.registry.names(), ["a", "b"]);
            assert_eq!(nh.finished, [0, 1]);
            [
                crate::store::to_bytes_full(&n, Some(&nh)),
                crate::store::to_bytes_full(&f, Some(&fh)),
            ]
        };
        assert_eq!(bytes(["a", "b"], 0), bytes(["b", "a"], 1));
        let [(set, _), _] = recording(["b", "a"], 1);
        assert_ne!(
            crate::store::to_bytes(&set),
            crate::store::to_bytes(&recording(["a", "b"], 0)[0].0),
            "the recordings differ before canonicalization"
        );
    }
}
