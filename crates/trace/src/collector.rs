//! Per-thread trace recording and cross-thread collection.
//!
//! A [`Tracer`] is handed to each simulated thread; it buffers events
//! locally (no cross-thread synchronisation on the hot path, mirroring
//! ParLOT's per-thread trace buffers) and submits the finished trace to
//! the shared [`TraceCollector`].

use crate::event::TraceEvent;
use crate::registry::{FnId, FunctionRegistry};
use crate::trace::{Trace, TraceId, TraceSet};
use parking_lot::Mutex;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Gathers per-thread traces of one execution.
#[derive(Debug)]
pub struct TraceCollector {
    registry: Arc<FunctionRegistry>,
    done: Mutex<BTreeMap<TraceId, Trace>>,
}

impl TraceCollector {
    /// A collector over a shared registry.
    pub fn new(registry: Arc<FunctionRegistry>) -> TraceCollector {
        TraceCollector {
            registry,
            done: Mutex::new(BTreeMap::new()),
        }
    }

    /// The shared registry.
    pub fn registry(&self) -> &Arc<FunctionRegistry> {
        &self.registry
    }

    /// Create a recording handle for thread `id`. The handle is
    /// single-threaded (`!Sync`); move it into the thread it traces.
    pub fn tracer(self: &Arc<Self>, id: TraceId) -> Tracer {
        Tracer {
            collector: Arc::clone(self),
            id,
            events: RefCell::new(Vec::new()),
            poisoned: Cell::new(false),
            finished: Cell::new(false),
        }
    }

    /// Consume the collector, producing the final [`TraceSet`].
    pub fn into_trace_set(self: Arc<Self>) -> TraceSet {
        let collector =
            Arc::try_unwrap(self).unwrap_or_else(|_| panic!("tracers still alive at collection"));
        let mut set = TraceSet::new(collector.registry);
        for (_, t) in collector.done.into_inner() {
            set.insert(t);
        }
        set
    }
}

// Convenience: allow `TraceCollector::new(...)` call sites to wrap in Arc.
impl TraceCollector {
    /// Shorthand for `Arc::new(TraceCollector::new(registry))`.
    pub fn shared(registry: Arc<FunctionRegistry>) -> Arc<TraceCollector> {
        Arc::new(TraceCollector::new(registry))
    }
}

/// Per-thread recording handle.
///
/// Events are appended to a local buffer. When the thread completes it
/// calls [`Tracer::finish`]; if it is killed by the deadlock detector,
/// [`Tracer::poison`] freezes the buffer first so no spurious returns
/// from unwinding scope guards are recorded — the trace then ends with
/// the call that never returned, the paper's hang signature.
#[derive(Debug)]
pub struct Tracer {
    collector: Arc<TraceCollector>,
    id: TraceId,
    /// Recorded events, packed as [`TraceEvent::to_symbol`] symbols.
    events: RefCell<Vec<u32>>,
    poisoned: Cell<bool>,
    finished: Cell<bool>,
}

impl Tracer {
    /// The thread this tracer records.
    pub fn id(&self) -> TraceId {
        self.id
    }

    /// The shared registry (for interning ad-hoc names).
    pub fn registry(&self) -> &Arc<FunctionRegistry> {
        self.collector.registry()
    }

    /// Intern a function name.
    pub fn intern(&self, name: &str) -> FnId {
        self.collector.registry.intern(name)
    }

    /// Record a call event.
    pub fn call(&self, f: FnId) {
        self.record(TraceEvent::Call(f));
    }

    /// Record a return event.
    pub fn ret(&self, f: FnId) {
        self.record(TraceEvent::Return(f));
    }

    fn record(&self, e: TraceEvent) {
        if !self.poisoned.get() {
            self.events.borrow_mut().push(e.to_symbol());
        }
    }

    /// Record a call+return pair for a leaf function with no traced
    /// callees (e.g. `findPtr` in the odd/even example).
    pub fn leaf(&self, name: &str) {
        let f = self.intern(name);
        self.call(f);
        self.ret(f);
    }

    /// Enter a traced scope: records the call now and the return when
    /// the returned guard drops.
    pub fn enter(&self, name: &str) -> Scope<'_> {
        let f = self.intern(name);
        self.call(f);
        Scope { tracer: self, f }
    }

    /// Stop recording permanently: the thread was killed (deadlock /
    /// job abort). Already-buffered events are kept; anything after —
    /// including returns from unwinding guards — is dropped, and the
    /// trace is marked truncated.
    pub fn poison(&self) {
        self.poisoned.set(true);
    }

    /// Has this tracer been poisoned?
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.get()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Submit the trace to the collector. Called automatically on drop;
    /// explicit calls make intent clear in workload code.
    pub fn finish(self) {
        // Drop runs the submission.
    }

    fn submit(&self) {
        if self.finished.replace(true) {
            return;
        }
        let events = std::mem::take(&mut *self.events.borrow_mut());
        let truncated = self.poisoned.get();
        let mut done = self.collector.done.lock();
        // The same thread ID may submit several times (an OpenMP thread
        // pool runs one worker per parallel region under one ID); the
        // per-thread trace is the concatenation, as Pin would record it.
        let entry = done.entry(self.id).or_insert_with(|| Trace::new(self.id));
        entry.events.extend(events);
        entry.truncated |= truncated;
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        self.submit();
    }
}

/// RAII guard recording the matching return of an [`Tracer::enter`].
#[derive(Debug)]
pub struct Scope<'a> {
    tracer: &'a Tracer,
    f: FnId,
}

impl Scope<'_> {
    /// The function this scope traces.
    pub fn fn_id(&self) -> FnId {
        self.f
    }
}

impl Drop for Scope<'_> {
    fn drop(&mut self) {
        self.tracer.ret(self.f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> Arc<TraceCollector> {
        TraceCollector::shared(Arc::new(FunctionRegistry::new()))
    }

    #[test]
    fn scopes_nest_correctly() {
        let c = setup();
        let tr = c.tracer(TraceId::new(0, 0));
        {
            let _a = tr.enter("outer");
            {
                let _b = tr.enter("inner");
            }
            tr.leaf("leaf");
        }
        tr.finish();
        let set = c.into_trace_set();
        let t = set.get(TraceId::new(0, 0)).unwrap();
        let names: Vec<String> = t
            .iter()
            .map(|e| {
                let n = set.registry.name(e.fn_id());
                if e.is_call() {
                    n
                } else {
                    format!("ret {n}")
                }
            })
            .collect();
        assert_eq!(
            names,
            vec![
                "outer",
                "inner",
                "ret inner",
                "leaf",
                "ret leaf",
                "ret outer"
            ]
        );
        assert!(!t.truncated);
    }

    #[test]
    fn poison_truncates_and_suppresses_unwind_returns() {
        let c = setup();
        let tr = c.tracer(TraceId::new(2, 0));
        {
            let _main = tr.enter("main");
            let f = tr.intern("MPI_Allreduce");
            tr.call(f);
            // The op deadlocked: the runtime poisons the tracer; the
            // return is never recorded, nor is main's unwinding return.
            tr.poison();
        }
        tr.finish();
        let set = c.into_trace_set();
        let t = set.get(TraceId::new(2, 0)).unwrap();
        assert!(t.truncated);
        assert_eq!(t.events.len(), 2); // main call + allreduce call
        let last = t.iter().next_back().unwrap();
        assert!(last.is_call());
        assert_eq!(set.registry.name(last.fn_id()), "MPI_Allreduce");
    }

    #[test]
    fn traces_collected_from_many_threads() {
        let c = setup();
        let mut handles = Vec::new();
        for p in 0..4u32 {
            for th in 0..3u32 {
                let tr = c.tracer(TraceId::new(p, th));
                handles.push(std::thread::spawn(move || {
                    let _m = tr.enter("work");
                    tr.leaf(&format!("kernel_{th}"));
                    drop(_m);
                    tr.finish();
                }));
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        let set = c.into_trace_set();
        assert_eq!(set.len(), 12);
        for t in set.iter() {
            assert_eq!(t.events.len(), 4);
        }
    }

    #[test]
    fn drop_submits_even_without_finish() {
        let c = setup();
        {
            let tr = c.tracer(TraceId::new(0, 1));
            tr.leaf("f");
        } // dropped here
        let set = c.into_trace_set();
        assert_eq!(set.get(TraceId::new(0, 1)).unwrap().events.len(), 2);
    }
}
