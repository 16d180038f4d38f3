//! In-memory spans for the traced run: name, start, end, parent, op id.
//! Spans are recorded around calls into each layer's public functions
//! and written out once, when the run ends.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// A single-threaded span recorder.
pub struct Tracer {
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    op: Cell<u64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            op: Cell::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span, tagged with the current op id.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                op: self.op.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    /// Tag later spans with op `id`.
    pub fn set_op(&self, id: u64) {
        self.op.set(id);
    }

    /// Self time (span minus its children) summed per (op, name), ms.
    pub fn self_ms(&self) -> BTreeMap<u64, BTreeMap<&'static str, f64>> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (s, child) in spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(*child);
            *out.entry(s.op).or_default().entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )
            .expect("string write");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Median over ops of each span name's per-op self time, ms.
pub fn layer_medians(
    per_op: &BTreeMap<u64, BTreeMap<&'static str, f64>>,
) -> BTreeMap<&'static str, f64> {
    let mut by_layer: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for layers in per_op.values() {
        for (&name, &ms) in layers {
            by_layer.entry(name).or_default().push(ms);
        }
    }
    // An op that never entered a layer spent 0 ms in it.
    let ops = per_op.len();
    by_layer
        .into_iter()
        .map(|(name, mut v)| {
            v.resize(ops, 0.0);
            (name, crate::measure::median(&v))
        })
        .collect()
}
