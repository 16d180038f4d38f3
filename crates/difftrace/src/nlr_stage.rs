//! Running NLR summarization over a filtered execution: the one
//! per-trace fold (`fold_trace`, cache-aware) and its two drivers —
//! sequential into a [`LoopTable`], parallel into a [`SharedLoopTable`]
//! with canonical replay — behind `NlrSet::fold`.
//!
//! One [`nlr::LoopTable`] is shared by **all** traces of an analysis —
//! including both the normal and the faulty execution of a diff — so a
//! loop ID (`L0`, `L1`, …) denotes the same loop body everywhere, as in
//! the paper's Tables III/IV and diffNLR figures.

use crate::filter::FilteredSet;
use crate::sync::par_map;
use dt_cache::Cache;
use dt_trace::TraceId;
use nlr::{LoopId, LoopInterner, LoopTable, Nlr, NlrBuilder, RecordingInterner, SharedLoopTable};
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

/// One set of filtered traces to fold, with its per-trace cache keys
/// (aligned with `traces`) when a [`Cache`] is in use.
pub(crate) type FoldInput<'a> = (&'a FilteredSet, Option<(&'a Cache, &'a [u128])>);

/// The one per-trace NLR fold. With a cache, a hit replays the stored
/// fold into `interner` — re-interning the trace's bodies in its own
/// first-fold order, exactly the intern sequence a cold build issues,
/// so loop numbering is byte-identical either way — and a miss builds
/// and stores the fold. Returns the summary, the trace's fold order
/// (every intern result, in call order) and whether the builder ran.
fn fold_trace<I: LoopInterner>(
    k: usize,
    symbols: &[u32],
    interner: I,
    cached: Option<(&Cache, u128)>,
) -> (Nlr, Vec<LoopId>, bool) {
    let mut rec = RecordingInterner::new(interner);
    if let Some(fold) = cached.and_then(|(cache, key)| cache.get_nlr(key)) {
        let nlr = Nlr::from_parts(dt_cache::replay(&fold, &mut rec), fold.input_len);
        return (nlr, rec.into_order(), false);
    }
    let nlr = NlrBuilder::new(k).build(symbols, &mut rec);
    if let Some((cache, key)) = cached {
        let fold = dt_cache::fold_from_build(rec.order(), nlr.elements(), nlr.input_len(), |id| {
            rec.body(id).to_vec()
        });
        cache.put_nlr(key, Arc::new(fold));
    }
    (nlr, rec.into_order(), true)
}

impl NlrSet {
    /// Summarize every trace of `set` with body bound `k`, interning
    /// loops into the shared `table`.
    pub fn build(set: &FilteredSet, k: usize, table: &mut LoopTable) -> NlrSet {
        NlrSet::fold_sequential((set, None), k, table).0
    }

    /// [`NlrSet::build`] through a [`Cache`]: each trace's fold is
    /// looked up by its content key (`keys`, aligned with `set.traces`)
    /// and replayed on a hit or built and stored on a miss. Returns the
    /// set plus the number of actual builder invocations.
    pub fn build_cached(
        set: &FilteredSet,
        k: usize,
        table: &mut LoopTable,
        cache: &Cache,
        keys: &[u128],
    ) -> (NlrSet, u64) {
        NlrSet::fold_sequential((set, Some((cache, keys))), k, table)
    }

    /// Fold `sets` into `table` on up to `threads` workers: the
    /// sequential driver at one thread, the parallel one otherwise.
    /// Either way the numbering is that of folding set 0, then set 1, …
    /// in trace order. Returns each set with its builder-invocation
    /// count.
    pub(crate) fn fold(
        sets: &[FoldInput],
        k: usize,
        table: &mut LoopTable,
        threads: usize,
    ) -> Vec<(NlrSet, u64)> {
        if threads <= 1 {
            sets.iter()
                .map(|&input| NlrSet::fold_sequential(input, k, table))
                .collect()
        } else {
            NlrSet::fold_parallel(sets, k, table, threads)
        }
    }

    /// The sequential driver: fold trace by trace straight into `table`.
    fn fold_sequential((set, cache): FoldInput, k: usize, table: &mut LoopTable) -> (NlrSet, u64) {
        let mut out = NlrSet::default();
        let mut folds = 0u64;
        for (i, t) in set.traces.iter().enumerate() {
            let cached = cache.map(|(c, keys)| (c, keys[i]));
            let (nlr, _, built) = fold_trace(k, &t.symbols, &mut *table, cached);
            folds += u64::from(built);
            out.nlrs.insert(t.id, nlr);
            out.truncated.insert(t.id, t.truncated);
        }
        (out, folds)
    }

    /// The parallel driver: every trace of every set folds concurrently
    /// into a [`SharedLoopTable`] seeded from `table` (provisional,
    /// scheduling-dependent IDs); the recorded fold orders are then
    /// replayed into `table` in (set, trace) order, and the summaries
    /// remapped to those canonical IDs. NLR folding decisions are
    /// independent of the interner's numbering, so the result is
    /// byte-identical to the sequential driver (see `nlr::shared`).
    fn fold_parallel(
        sets: &[FoldInput],
        k: usize,
        table: &mut LoopTable,
        threads: usize,
    ) -> Vec<(NlrSet, u64)> {
        let shared = SharedLoopTable::from_table(table);
        let items: Vec<(usize, usize)> = sets
            .iter()
            .enumerate()
            .flat_map(|(s, (set, _))| (0..set.traces.len()).map(move |i| (s, i)))
            .collect();
        let built = par_map(&items, threads, |_, &(s, i)| {
            let (set, cache) = sets[s];
            let cached = cache.map(|(c, keys)| (c, keys[i]));
            fold_trace(k, &set.traces[i].symbols, &shared, cached)
        });
        let orders = built.iter().flat_map(|(_, order, _)| order.iter().copied());
        let map = shared.canonicalize_into(orders, table);
        let mut out: Vec<(NlrSet, u64)> = sets.iter().map(|_| Default::default()).collect();
        for ((s, i), (nlr, _, built)) in items.into_iter().zip(built) {
            let t = &sets[s].0.traces[i];
            let (set, folds) = &mut out[s];
            set.nlrs
                .insert(t.id, nlr.remap_loops(&|l: LoopId| map[l.0 as usize]));
            set.truncated.insert(t.id, t.truncated);
            *folds += u64::from(built);
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
