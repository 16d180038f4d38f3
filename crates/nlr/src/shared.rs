//! A loop-body interner safe for concurrent use, plus the canonical
//! renumbering that makes parallel NLR construction byte-identical to
//! the sequential one.
//!
//! # Why two tables
//!
//! Loop IDs leak into user-visible output: attribute names (`L0`),
//! rendered NLRs (`L0 ^ 4`), loop-table dumps. A sequential analysis
//! assigns IDs in fold order — first fold anywhere in the trace-by-trace
//! scan gets `L0`. Threads interning concurrently would assign IDs in
//! scheduling order, changing output run to run.
//!
//! The fix exploits a property of the NLR builder: its folding decisions
//! depend only on the input symbols (and bodies it interned itself),
//! never on IDs already in the table. So a parallel build produces the
//! *same loop structures* as a sequential one; only the numbering
//! differs. The pipeline therefore:
//!
//! 1. builds all NLRs in parallel against a [`SharedLoopTable`], each
//!    worker recording its per-trace fold order via a
//!    [`crate::RecordingInterner`] (**provisional** IDs,
//!    scheduling-dependent);
//! 2. replays the recorded fold orders sequentially — traces in
//!    deterministic order, folds in recorded order — assigning
//!    **canonical** IDs into a plain [`LoopTable`]
//!    ([`SharedLoopTable::canonicalize_into`]);
//! 3. remaps every NLR from provisional to canonical IDs
//!    ([`crate::Nlr::remap_loops`]).
//!
//! Because a sequential build *is* the replay (trace order × fold
//! order), the canonical numbering equals what a plain sequential build
//! into the same starting table would have produced — exactly.
//!
//! # Concurrency design
//!
//! Deduplication uses mutex-sharded hash maps keyed by body content.
//! Bodies themselves live in a fixed-geometry paged arena of
//! `OnceLock` slots, so [`SharedLoopTable::body`] is lock-free: an ID
//! obtained from `intern` (directly, or via the shard map under its
//! mutex) happens-after its body was published.

use crate::element::{Element, LoopId};
use crate::table::{LoopInterner, LoopTable};
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of dedup shards. A power of two so the shard pick is a mask.
const SHARDS: usize = 16;
/// Bodies per arena page.
const PAGE: usize = 1024;
/// Maximum pages — caps the table at `PAGE * MAX_PAGES` distinct
/// bodies, far beyond what real trace sets produce.
const MAX_PAGES: usize = 4096;

type Page = Box<[OnceLock<Vec<Element>>]>;

/// A loop-body interner shareable across threads (`&SharedLoopTable`
/// implements [`LoopInterner`]). IDs are **provisional**: dense and
/// content-unique, but assigned in scheduling order — run
/// [`SharedLoopTable::canonicalize_into`] before any ID reaches output.
pub struct SharedLoopTable {
    shards: Vec<Mutex<HashMap<Vec<Element>, LoopId>>>,
    pages: Box<[OnceLock<Page>]>,
    next: AtomicU32,
}

impl SharedLoopTable {
    /// An empty table.
    pub fn new() -> SharedLoopTable {
        SharedLoopTable {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            pages: (0..MAX_PAGES).map(|_| OnceLock::new()).collect(),
            next: AtomicU32::new(0),
        }
    }

    /// A table seeded with the entries of `table`, keeping their IDs.
    /// Used when a parallel stage continues from an existing canonical
    /// table (e.g. the faulty run of a diff after the normal run): the
    /// seeded IDs are already canonical, so `canonicalize_into` maps
    /// them to themselves.
    pub fn from_table(table: &LoopTable) -> SharedLoopTable {
        let shared = SharedLoopTable::new();
        for i in 0..table.len() {
            let id = shared.intern(table.body(LoopId(i as u32)).to_vec());
            debug_assert_eq!(id, LoopId(i as u32));
        }
        shared
    }

    fn shard_of(body: &[Element]) -> usize {
        let mut h = DefaultHasher::new();
        body.hash(&mut h);
        (h.finish() as usize) & (SHARDS - 1)
    }

    /// Intern `body`, returning its (possibly pre-existing) provisional
    /// ID. Safe to call from many threads.
    pub fn intern(&self, body: Vec<Element>) -> LoopId {
        let mut map = self.shards[Self::shard_of(&body)]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(&id) = map.get(&body) {
            return id;
        }
        let id = LoopId(self.next.fetch_add(1, Ordering::Relaxed));
        // Publish the body before the map entry becomes visible: any
        // thread that learns `id` (from this return value or from the
        // map, under the shard mutex) can then read the body without
        // synchronization beyond the OnceLock's own acquire load.
        self.publish(id, body.clone());
        map.insert(body, id);
        id
    }

    fn publish(&self, id: LoopId, body: Vec<Element>) {
        let idx = id.0 as usize;
        let page = idx / PAGE;
        assert!(page < MAX_PAGES, "SharedLoopTable capacity exceeded");
        let slots = self.pages[page].get_or_init(|| {
            (0..PAGE)
                .map(|_| OnceLock::new())
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        slots[idx % PAGE]
            .set(body)
            .expect("each provisional id is published exactly once");
    }

    /// The body of `id`. Lock-free. Panics on an ID this table never
    /// returned.
    pub fn body(&self, id: LoopId) -> &[Element] {
        let idx = id.0 as usize;
        self.pages[idx / PAGE]
            .get()
            .and_then(|slots| slots[idx % PAGE].get())
            .expect("foreign or unpublished LoopId")
    }

    /// Number of distinct bodies interned so far. Racy under concurrent
    /// interning; exact once all workers have joined.
    pub fn len(&self) -> usize {
        self.next.load(Ordering::Acquire) as usize
    }

    /// True if no bodies have been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replay `fold_orders` (per-trace intern sequences, concatenated in
    /// the deterministic trace order) against `out`, assigning canonical
    /// IDs in first-fold order — the exact order a sequential build into
    /// `out` would have used. Entries already in `out` (when this table
    /// was seeded with [`SharedLoopTable::from_table`]) keep their IDs.
    /// Returns the provisional→canonical map, indexed by provisional ID.
    ///
    /// Panics if a fold order references an inner loop before it was
    /// recorded — impossible for orders produced by a
    /// [`crate::RecordingInterner`], since the builder always folds
    /// inner loops before the outer loop whose body references them.
    pub fn canonicalize_into<I>(&self, fold_orders: I, out: &mut LoopTable) -> Vec<LoopId>
    where
        I: IntoIterator<Item = LoopId>,
    {
        let total = self.len();
        let mut map: Vec<Option<LoopId>> = vec![None; total];
        for (i, slot) in map.iter_mut().enumerate().take(out.len()) {
            *slot = Some(LoopId(i as u32));
        }
        for pid in fold_orders {
            if map[pid.0 as usize].is_some() {
                continue;
            }
            let body: Vec<Element> = self
                .body(pid)
                .iter()
                .map(|&e| match e {
                    Element::Loop { body, count } => Element::Loop {
                        body: map[body.0 as usize].expect("inner loop folded before outer"),
                        count,
                    },
                    sym => sym,
                })
                .collect();
            let cid = out.intern(body);
            map[pid.0 as usize] = Some(cid);
        }
        map.into_iter()
            .map(|m| m.expect("every provisional id appears in some fold order"))
            .collect()
    }
}

impl Default for SharedLoopTable {
    fn default() -> SharedLoopTable {
        SharedLoopTable::new()
    }
}

impl LoopInterner for &SharedLoopTable {
    fn intern(&mut self, body: Vec<Element>) -> LoopId {
        SharedLoopTable::intern(self, body)
    }
    fn body(&self, id: LoopId) -> &[Element] {
        SharedLoopTable::body(self, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NlrBuilder, RecordingInterner};

    fn sym(s: u32) -> Element {
        Element::Sym(s)
    }

    #[test]
    fn intern_dedups_and_reads_back() {
        let t = SharedLoopTable::new();
        let a = t.intern(vec![sym(1), sym(2)]);
        let b = t.intern(vec![sym(3)]);
        let a2 = t.intern(vec![sym(1), sym(2)]);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.body(a), &[sym(1), sym(2)]);
        assert_eq!(t.body(b), &[sym(3)]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn concurrent_interning_same_bodies_one_id() {
        let t = SharedLoopTable::new();
        let ids: Vec<Vec<LoopId>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        (0..100u32)
                            .map(|i| t.intern(vec![sym(i % 10)]))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(t.len(), 10, "10 distinct bodies regardless of races");
        // Every thread resolved each body to the same id.
        for per_thread in &ids {
            assert_eq!(&per_thread[..10], &per_thread[90..100]);
        }
        for i in 0..10 {
            assert_eq!(t.body(ids[0][i]), &[sym(i as u32 % 10)]);
            for thread in &ids {
                assert_eq!(thread[i], ids[0][i]);
            }
        }
    }

    #[test]
    fn canonicalization_matches_sequential_build() {
        // Traces crafted so that provisional order (here: reversed trace
        // order) differs from sequential order.
        let traces: Vec<Vec<u32>> = vec![
            [1u32, 2].repeat(4),                        // folds (1 2)
            [3u32].repeat(5),                           // folds (3)
            [1u32, 2, 1, 2, 9, 1, 2, 1, 2, 9].to_vec(), // nested ((1 2)^2 9)
        ];
        let builder = NlrBuilder::new(10);

        // Reference: plain sequential build.
        let mut seq_table = LoopTable::new();
        let seq_nlrs: Vec<_> = traces
            .iter()
            .map(|t| builder.build(t, &mut seq_table))
            .collect();

        // Parallel-style build in REVERSE order (worst-case schedule),
        // then canonical replay in forward order.
        let shared = SharedLoopTable::new();
        let mut orders = vec![Vec::new(); traces.len()];
        let mut prov_nlrs = vec![None; traces.len()];
        for i in (0..traces.len()).rev() {
            let mut rec = RecordingInterner::new(&shared);
            prov_nlrs[i] = Some(builder.build(&traces[i], &mut rec));
            orders[i] = rec.into_order();
        }
        let mut canon_table = LoopTable::new();
        let map = shared.canonicalize_into(orders.into_iter().flatten(), &mut canon_table);
        let canon_nlrs: Vec<_> = prov_nlrs
            .into_iter()
            .map(|n| n.unwrap().remap_loops(&|id| map[id.0 as usize]))
            .collect();

        assert_eq!(canon_table.len(), seq_table.len());
        for i in 0..canon_table.len() {
            assert_eq!(
                canon_table.body(LoopId(i as u32)),
                seq_table.body(LoopId(i as u32)),
                "body {i}"
            );
        }
        for (c, s) in canon_nlrs.iter().zip(&seq_nlrs) {
            assert_eq!(c.elements(), s.elements());
        }
    }

    #[test]
    fn seeded_table_keeps_existing_ids() {
        let mut base = LoopTable::new();
        let pre = base.intern(vec![sym(7)]);
        let shared = SharedLoopTable::from_table(&base);
        assert_eq!(shared.len(), 1);
        assert_eq!(shared.intern(vec![sym(7)]), pre, "seed entry dedups");
        let fresh = shared.intern(vec![sym(8)]);
        let map = shared.canonicalize_into(vec![pre, fresh], &mut base);
        assert_eq!(map[pre.0 as usize], pre);
        assert_eq!(map[fresh.0 as usize], fresh);
        assert_eq!(base.len(), 2);
    }

    #[test]
    fn arena_crosses_page_boundaries() {
        let t = SharedLoopTable::new();
        let n = (PAGE + 10) as u32;
        for i in 0..n {
            t.intern(vec![sym(i)]);
        }
        assert_eq!(t.len(), n as usize);
        assert_eq!(t.body(LoopId(PAGE as u32 + 5)), &[sym(PAGE as u32 + 5)]);
    }
}
