//! Running NLR summarization over a filtered execution: the one
//! per-stream fold ([`fold_stream`], cache-aware) and the per-trace
//! summaries it yields ([`NlrSet`]).
//!
//! One [`nlr::LoopTable`] is shared by **all** traces of an analysis —
//! including both the normal and the faulty execution of a diff — so a
//! loop ID (`L0`, `L1`, …) denotes the same loop body everywhere, as in
//! the paper's Tables III/IV and diffNLR figures.
//!
//! Traces with equal streams form one class ([`Classes`]), and only a
//! class's first trace folds: each class folds into its own table (on
//! any worker of the analysis front half, `pipeline::fold_runs`, or
//! from the cache), the folds replay into the shared one in (set,
//! class) order — which is first-occurrence (set, trace) order — and
//! every member gets its class's summary. A repeated trace's replay
//! would intern nothing new and yield the same summary, so the
//! numbering equals a trace-by-trace build's (see [`nlr::fold`]).

use crate::filter::FilteredSet;
use dt_cache::Cache;
use dt_trace::{Classes, TraceId};
use nlr::{Fold, LoopTable, Nlr, NlrBuilder};
use std::collections::BTreeMap;
use std::sync::Arc;

/// NLR summaries of one execution's filtered traces.
#[derive(Debug, Clone, Default)]
pub struct NlrSet {
    /// Per-trace summaries.
    pub nlrs: BTreeMap<TraceId, Nlr>,
    /// Truncation flags carried through from filtering.
    pub truncated: BTreeMap<TraceId, bool>,
}

/// The one per-stream NLR fold: the cache's fold under the stream's
/// key (folded there on its first miss), or a fresh stream-local fold
/// without a cache. Returns the fold and whether the builder ran.
pub(crate) fn fold_stream(
    k: usize,
    symbols: &[u32],
    cached: Option<(&Cache, u128)>,
) -> (Arc<Fold>, bool) {
    let fold = || NlrBuilder::new(k).fold(symbols);
    match cached {
        Some((cache, key)) => cache.nlr_fold(key, fold),
        None => (Arc::new(fold()), true),
    }
}

impl NlrSet {
    /// Summarize every trace of `set` with body bound `k`, interning
    /// loops into the shared `table`. Traces with equal streams fold
    /// once.
    pub fn build(set: &FilteredSet, k: usize, table: &mut LoopTable) -> NlrSet {
        NlrSet::fold_set(set, k, table, None).0
    }

    /// [`NlrSet::build`] through a [`Cache`]: each class of equal
    /// streams is looked up by its first trace's content key (`keys`,
    /// aligned with `set.traces`) and folded and stored on a miss.
    /// Returns the set plus the number of actual builder invocations.
    pub fn build_cached(
        set: &FilteredSet,
        k: usize,
        table: &mut LoopTable,
        cache: &Cache,
        keys: &[u128],
    ) -> (NlrSet, u64) {
        NlrSet::fold_set(set, k, table, Some((cache, keys)))
    }

    /// Fold each class of `set` in class order and replay it into
    /// `table`; returns the set and its builder-invocation count.
    fn fold_set(
        set: &FilteredSet,
        k: usize,
        table: &mut LoopTable,
        cached: Option<(&Cache, &[u128])>,
    ) -> (NlrSet, u64) {
        let classes = Classes::new(&set.traces, |t| t.symbols.as_slice());
        let mut built = 0;
        let terms: Vec<Nlr> = classes
            .reps
            .iter()
            .map(|&i| {
                let cached = cached.map(|(cache, keys)| (cache, keys[i]));
                let (fold, fresh) = fold_stream(k, &set.traces[i].symbols, cached);
                built += u64::from(fresh);
                Arc::unwrap_or_clone(fold).replay(table)
            })
            .collect();
        let traces = set.traces.iter().map(|t| (t.id, t.truncated));
        (NlrSet::of_classes(traces, &classes, &terms), built)
    }

    /// Every trace of `traces` (id and truncation flag, in class-index
    /// order) with its class's summary from `terms`.
    pub(crate) fn of_classes(
        traces: impl IntoIterator<Item = (TraceId, bool)>,
        classes: &Classes,
        terms: &[Nlr],
    ) -> NlrSet {
        let mut out = NlrSet::default();
        for ((id, truncated), &c) in traces.into_iter().zip(&classes.of) {
            out.nlrs.insert(id, terms[c].clone());
            out.truncated.insert(id, truncated);
        }
        out
    }

    /// Look up one summary.
    pub fn get(&self, id: TraceId) -> Option<&Nlr> {
        self.nlrs.get(&id)
    }

    /// Trace IDs in order.
    pub fn ids(&self) -> Vec<TraceId> {
        self.nlrs.keys().copied().collect()
    }

    /// Mean reduction factor across traces (the paper's §V metric).
    pub fn mean_reduction_factor(&self) -> f64 {
        if self.nlrs.is_empty() {
            return 1.0;
        }
        self.nlrs
            .values()
            .map(|n| n.reduction_factor())
            .sum::<f64>()
            / self.nlrs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{FilteredSet, FilteredTrace};

    fn filtered(id: TraceId, symbols: Vec<u32>) -> FilteredTrace {
        FilteredTrace {
            id,
            symbols,
            truncated: false,
        }
    }

    #[test]
    fn shared_loop_table_across_traces() {
        let set = FilteredSet {
            traces: vec![
                filtered(TraceId::new(0, 0), vec![1, 2, 1, 2, 1, 2]),
                filtered(TraceId::new(1, 0), vec![1, 2, 1, 2]),
            ],
        };
        let mut table = LoopTable::new();
        let ns = NlrSet::build(&set, 10, &mut table);
        assert_eq!(table.len(), 1, "one shared loop body");
        let a = ns.get(TraceId::new(0, 0)).unwrap().elements()[0];
        let b = ns.get(TraceId::new(1, 0)).unwrap().elements()[0];
        assert_eq!(a.loop_id(), b.loop_id());
        assert!(ns.mean_reduction_factor() > 1.0);
    }

    #[test]
    fn empty_set() {
        let mut table = LoopTable::new();
        let ns = NlrSet::build(&FilteredSet::default(), 10, &mut table);
        assert!(ns.ids().is_empty());
        assert_eq!(ns.mean_reduction_factor(), 1.0);
    }
}
