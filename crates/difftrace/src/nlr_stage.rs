//! Running NLR summarization over a filtered execution: the one
//! per-stream fold (`fold_stream`, cache-aware) and its one driver,
//! `NlrSet::fold`.
//!
//! One [`nlr::LoopTable`] is shared by **all** traces of an analysis —
//! including both the normal and the faulty execution of a diff — so a
//! loop ID (`L0`, `L1`, …) denotes the same loop body everywhere, as in
//! the paper's Tables III/IV and diffNLR figures.
//!
//! Traces with equal streams form one class ([`Classes`]), and only a
//! class's first trace folds: each class folds into its own table (on
//! any worker, or from the cache), the folds replay into the shared one
//! in (set, class) order — which is first-occurrence (set, trace)
//! order — and every member gets its class's summary. A repeated
//! trace's replay would intern nothing new and yield the same summary,
//! so the numbering equals a trace-by-trace build's (see [`nlr::fold`]).

use crate::filter::FilteredSet;
use crate::sync::par_map;
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

/// One execution to fold: its traces grouped into classes of equal
/// streams, one stream per class, and each class's cache key when a
/// [`Cache`] is in use.
pub(crate) struct FoldInput<'a> {
    /// Per trace: its id and truncation flag.
    pub traces: Vec<(TraceId, bool)>,
    /// The traces' classes.
    pub classes: &'a Classes,
    /// Each class's stream, in class order.
    pub streams: Vec<&'a [u32]>,
    /// The cache and each class's key, in class order.
    pub cached: Option<(&'a Cache, &'a [u128])>,
}

impl<'a> FoldInput<'a> {
    /// `set`'s traces under `classes` (of their filtered streams), with
    /// per-class keys when cached.
    fn of_set(
        set: &'a FilteredSet,
        classes: &'a Classes,
        cached: Option<(&'a Cache, &'a [u128])>,
    ) -> FoldInput<'a> {
        FoldInput {
            traces: set.traces.iter().map(|t| (t.id, t.truncated)).collect(),
            classes,
            streams: classes
                .reps
                .iter()
                .map(|&i| set.traces[i].symbols.as_slice())
                .collect(),
            cached,
        }
    }
}

/// The one per-stream NLR fold: the cache's fold under the stream's
/// key (folded there on its first miss), or a fresh stream-local fold
/// without a cache. Returns the fold and whether the builder ran.
fn fold_stream(k: usize, symbols: &[u32], cached: Option<(&Cache, u128)>) -> (Arc<Fold>, bool) {
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
        let classes = Classes::new(&set.traces, |t| t.symbols.as_slice());
        NlrSet::fold_one(FoldInput::of_set(set, &classes, None), k, table).0
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
        let classes = Classes::new(&set.traces, |t| t.symbols.as_slice());
        let class_keys: Vec<u128> = classes.reps.iter().map(|&i| keys[i]).collect();
        let input = FoldInput::of_set(set, &classes, Some((cache, &class_keys)));
        NlrSet::fold_one(input, k, table)
    }

    fn fold_one(input: FoldInput, k: usize, table: &mut LoopTable) -> (NlrSet, u64) {
        NlrSet::fold(&[input], k, table, 1)
            .pop()
            .expect("one set folded")
    }

    /// Fold `sets` into `table` on up to `threads` workers: every class
    /// of every set folds into its own table (concurrently; inline at
    /// one thread), then the folds replay into `table` in (set, class)
    /// order and each trace takes its class's summary. The numbering is
    /// therefore that of folding set 0, then set 1, … in trace order,
    /// at any thread count. Returns each set with its
    /// builder-invocation count.
    pub(crate) fn fold(
        sets: &[FoldInput],
        k: usize,
        table: &mut LoopTable,
        threads: usize,
    ) -> Vec<(NlrSet, u64)> {
        let items: Vec<(usize, usize)> = sets
            .iter()
            .enumerate()
            .flat_map(|(s, set)| (0..set.streams.len()).map(move |c| (s, c)))
            .collect();
        let folds = par_map(&items, threads, |_, &(s, c)| {
            let set = &sets[s];
            fold_stream(
                k,
                set.streams[c],
                set.cached.map(|(cache, keys)| (cache, keys[c])),
            )
        });
        let mut terms: Vec<Vec<Nlr>> = sets.iter().map(|_| Vec::new()).collect();
        let mut built = vec![0u64; sets.len()];
        for ((s, _), (fold, fresh)) in items.into_iter().zip(folds) {
            terms[s].push(Arc::unwrap_or_clone(fold).replay(table));
            built[s] += u64::from(fresh);
        }
        sets.iter()
            .zip(terms)
            .zip(built)
            .map(|((set, terms), built)| {
                let mut out = NlrSet::default();
                for (&(id, truncated), &c) in set.traces.iter().zip(&set.classes.of) {
                    out.nlrs.insert(id, terms[c].clone());
                    out.truncated.insert(id, truncated);
                }
                (out, built)
            })
            .collect()
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

    /// Duplicate traces fold once per class, and classes through one
    /// cache fold once per content key, at every thread count: the
    /// builder runs and the cache counters read exactly what they read
    /// at one thread, however the workers race.
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
        let classes = Classes::new(&set.traces, |t| t.symbols.as_slice());
        let keys: Vec<u128> = classes
            .reps
            .iter()
            .map(|&i| dt_cache::nlr_key(10, &set.traces[i].symbols, |s| s.to_string()))
            .collect();
        let counts = |threads: usize| {
            let cache = Cache::new();
            let mut table = LoopTable::new();
            let input = || FoldInput::of_set(&set, &classes, Some((&cache, keys.as_slice())));
            let folds: u64 = NlrSet::fold(&[input(), input()], 10, &mut table, threads)
                .iter()
                .map(|(_, f)| f)
                .sum();
            let s = cache.stats();
            (folds, s.nlr_hits, s.nlr_misses)
        };
        // Each set looks up its 4 classes once: the first set folds
        // them, the second hits.
        let sequential = counts(1);
        assert_eq!(classes.len(), 4);
        assert_eq!(sequential, (4, 4, 4));
        for threads in [2, 4, 8] {
            for rep in 0..20 {
                assert_eq!(counts(threads), sequential, "threads={threads} rep={rep}");
            }
        }
    }
}
