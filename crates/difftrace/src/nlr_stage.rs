//! Running NLR summarization over a filtered execution: the one
//! per-trace fold (`fold_trace`, cache-aware) and its one driver,
//! `NlrSet::fold`.
//!
//! One [`nlr::LoopTable`] is shared by **all** traces of an analysis —
//! including both the normal and the faulty execution of a diff — so a
//! loop ID (`L0`, `L1`, …) denotes the same loop body everywhere, as in
//! the paper's Tables III/IV and diffNLR figures. Each trace folds into
//! its own table (on any worker, or from the cache) and the folds are
//! replayed into the shared one in (set, trace) order — see
//! [`nlr::fold`] for why that numbering equals a trace-by-trace build.

use crate::filter::FilteredSet;
use crate::sync::par_map;
use dt_cache::Cache;
use dt_trace::TraceId;
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

/// One set of filtered traces to fold, with its per-trace cache keys
/// (aligned with `traces`) when a [`Cache`] is in use.
pub(crate) type FoldInput<'a> = (&'a FilteredSet, Option<(&'a Cache, &'a [u128])>);

/// The one per-trace NLR fold: the cache's fold under the trace's key
/// (folded there on its first miss), or a fresh trace-local fold
/// without a cache. Returns the fold and whether the builder ran.
fn fold_trace(k: usize, symbols: &[u32], cached: Option<(&Cache, u128)>) -> (Arc<Fold>, bool) {
    let fold = || NlrBuilder::new(k).fold(symbols);
    match cached {
        Some((cache, key)) => cache.nlr_fold(key, fold),
        None => (Arc::new(fold()), true),
    }
}

impl NlrSet {
    /// Summarize every trace of `set` with body bound `k`, interning
    /// loops into the shared `table`.
    pub fn build(set: &FilteredSet, k: usize, table: &mut LoopTable) -> NlrSet {
        NlrSet::fold_one((set, None), k, table).0
    }

    /// [`NlrSet::build`] through a [`Cache`]: each trace's fold is
    /// looked up by its content key (`keys`, aligned with `set.traces`)
    /// and folded and stored on a miss. Returns the set plus the number
    /// of actual builder invocations.
    pub fn build_cached(
        set: &FilteredSet,
        k: usize,
        table: &mut LoopTable,
        cache: &Cache,
        keys: &[u128],
    ) -> (NlrSet, u64) {
        NlrSet::fold_one((set, Some((cache, keys))), k, table)
    }

    fn fold_one(input: FoldInput, k: usize, table: &mut LoopTable) -> (NlrSet, u64) {
        NlrSet::fold(&[input], k, table, 1)
            .pop()
            .expect("one set folded")
    }

    /// Fold `sets` into `table` on up to `threads` workers: every trace
    /// of every set folds into its own table (concurrently; inline at
    /// one thread), then the folds replay into `table` in (set, trace)
    /// order. The numbering is therefore that of folding set 0, then
    /// set 1, … in trace order, at any thread count. Returns each set
    /// with its builder-invocation count.
    pub(crate) fn fold(
        sets: &[FoldInput],
        k: usize,
        table: &mut LoopTable,
        threads: usize,
    ) -> Vec<(NlrSet, u64)> {
        let items: Vec<(usize, usize)> = sets
            .iter()
            .enumerate()
            .flat_map(|(s, (set, _))| (0..set.traces.len()).map(move |i| (s, i)))
            .collect();
        let folds = par_map(&items, threads, |_, &(s, i)| {
            let (set, cache) = sets[s];
            fold_trace(
                k,
                &set.traces[i].symbols,
                cache.map(|(c, keys)| (c, keys[i])),
            )
        });
        let mut out: Vec<(NlrSet, u64)> = sets.iter().map(|_| Default::default()).collect();
        for ((s, i), (fold, built)) in items.into_iter().zip(folds) {
            let t = &sets[s].0.traces[i];
            let (set, folds) = &mut out[s];
            set.nlrs
                .insert(t.id, Arc::unwrap_or_clone(fold).replay(table));
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

    /// Duplicate traces through one cache fold once per content key at
    /// every thread count: the builder runs and the cache counters read
    /// exactly what they read at one thread, however the workers race.
    #[test]
    fn fold_counts_do_not_depend_on_threads() {
        // 16 traces over 4 distinct streams, long enough that workers
        // overlap on one key.
        let streams: Vec<Vec<u32>> = (0..4u32)
            .map(|s| {
                (0..20_000u32)
                    .map(|i| s + i % (3 + s) + (i / 97) % 2)
                    .collect()
            })
            .collect();
        let set = FilteredSet {
            traces: (0..16)
                .map(|t| filtered(TraceId::new(t, 0), streams[t as usize % 4].clone()))
                .collect(),
        };
        let keys: Vec<u128> = set
            .traces
            .iter()
            .map(|t| dt_cache::nlr_key(10, &t.symbols, |s| s.to_string()))
            .collect();
        let counts = |threads: usize| {
            let cache = Cache::new();
            let mut table = LoopTable::new();
            let input = (&set, Some((&cache, keys.as_slice())));
            let folds: u64 = NlrSet::fold(&[input, input], 10, &mut table, threads)
                .iter()
                .map(|(_, f)| f)
                .sum();
            let s = cache.stats();
            (folds, s.nlr_hits, s.nlr_misses)
        };
        let sequential = counts(1);
        assert_eq!(sequential, (4, 28, 4));
        for threads in [2, 4, 8] {
            for rep in 0..20 {
                assert_eq!(counts(threads), sequential, "threads={threads} rep={rep}");
            }
        }
    }
}
