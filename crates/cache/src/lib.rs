//! `dt-cache` — content-addressed memoization for the DiffTrace
//! pipeline.
//!
//! A parameter sweep runs one full DiffTrace iteration per grid cell,
//! but most of the work repeats across cells: every attribute config
//! sharing a filter re-folds the identical per-trace NLR, and
//! re-running a diff after editing only the faulty corpus re-folds
//! every normal-side trace. This crate provides a [`Cache`] keyed by
//! *content* — a stable digest of the filtered symbol stream and the
//! analysis parameters — so identical work is done once:
//!
//! * `(trace content, filter K)` → the trace's NLR fold, stored
//!   *portably* (see [`NlrFold`]) so one cached fold replays into any
//!   loop table, sequential or shared, reproducing the exact loop
//!   numbering a cold build would have produced;
//! * `(NLR key, attribute config, loop numbering)` → the mined
//!   attribute set.
//!
//! An optional on-disk layer (`Cache::with_dir`) persists entries
//! across processes. Disk entries are versioned
//! ([`CACHE_FORMAT_VERSION`]) and validated structurally on read; a
//! corrupted, truncated, or foreign file is treated as a miss, never an
//! error. The cache is observational only: outputs are byte-identical
//! cold vs. warm at any thread count (enforced by the
//! `cache_equivalence` harness in the workspace root).

mod disk;

pub use disk::{clear_dir, disk_stats, DiskStats};

use dt_trace::hash::StableHasher;
use nlr::{Element, LoopId, LoopInterner};
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Version stamp of the cache key derivation *and* the on-disk entry
/// encoding. Bump whenever either changes (hash algorithm, key inputs,
/// serialization layout, or any pipeline change that alters what a
/// cached value means): old entries then miss instead of being reused
/// incorrectly.
pub const CACHE_FORMAT_VERSION: u32 = 1;

/// One element of a *portable* NLR fold: like [`nlr::Element`], but
/// loop references use trace-local IDs (first-intern order within the
/// trace) instead of table-global [`LoopId`]s, which depend on what
/// other traces interned first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PElem {
    /// An unsummarized symbol.
    Sym(u32),
    /// `count` repetitions of the trace-local body `local`.
    Loop {
        /// Index into [`NlrFold::bodies`].
        local: u32,
        /// Iteration count.
        count: u64,
    },
}

/// A per-trace NLR fold in table-independent form.
///
/// The NLR builder only ever embeds loop IDs returned by its *own*
/// intern calls, so numbering every body by its first intern occurrence
/// within the trace captures the complete fold. Replaying the bodies in
/// that order into any [`LoopInterner`] ([`replay`]) re-interns exactly
/// the sequence a cold build of this trace would have interned
/// (duplicate interns never change numbering), which is what makes
/// cached and cold analyses byte-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NlrFold {
    /// Distinct loop bodies in first-intern order; a body references
    /// only strictly earlier bodies (inner loops fold first).
    pub bodies: Vec<Vec<PElem>>,
    /// The top-level summarized sequence.
    pub elements: Vec<PElem>,
    /// Length of the original (filtered) symbol stream.
    pub input_len: usize,
}

impl NlrFold {
    /// Structural validity: every loop reference points at a strictly
    /// earlier body (for bodies) or any body (for elements). Disk
    /// deserialization enforces this so [`replay`] can never index out
    /// of bounds on untrusted input.
    pub fn is_well_formed(&self) -> bool {
        let ok = |es: &[PElem], limit: u32| {
            es.iter().all(|e| match e {
                PElem::Sym(_) => true,
                PElem::Loop { local, .. } => *local < limit,
            })
        };
        self.bodies.iter().enumerate().all(|(i, b)| ok(b, i as u32))
            && ok(&self.elements, self.bodies.len() as u32)
    }
}

/// Convert one build result into its portable fold: `order` is the
/// trace's recorded intern sequence (global IDs, duplicates allowed),
/// `elements`/`input_len` the built summary, `body_of` resolves a
/// global ID to its body in the table the build ran against.
///
/// # Panics
///
/// Panics if a body references a global ID absent from `order` — which
/// cannot happen for orders recorded from the NLR builder, since it
/// interns inner loops before any outer body that embeds them.
pub fn fold_from_build<F>(
    order: &[LoopId],
    elements: &[Element],
    input_len: usize,
    body_of: F,
) -> NlrFold
where
    F: Fn(LoopId) -> Vec<Element>,
{
    let mut local: HashMap<u32, u32> = HashMap::new();
    let mut bodies: Vec<Vec<PElem>> = Vec::new();
    for &gid in order {
        if local.contains_key(&gid.0) {
            continue;
        }
        let body = body_of(gid)
            .iter()
            .map(|&e| to_portable(e, &local))
            .collect();
        local.insert(gid.0, bodies.len() as u32);
        bodies.push(body);
    }
    NlrFold {
        elements: elements.iter().map(|&e| to_portable(e, &local)).collect(),
        bodies,
        input_len,
    }
}

fn to_portable(e: Element, local: &HashMap<u32, u32>) -> PElem {
    match e {
        Element::Sym(s) => PElem::Sym(s),
        Element::Loop { body, count } => PElem::Loop {
            local: *local
                .get(&body.0)
                .expect("inner loop interned before any body referencing it"),
            count,
        },
    }
}

/// Replay a fold into `interner`: intern the bodies in recorded order
/// and return the top-level elements under the interner's (global)
/// numbering. Interning an already-present body is a no-op for
/// numbering, so replaying into a table that a cold build would have
/// reached the same way yields byte-identical IDs.
///
/// # Panics
///
/// Panics on a malformed fold (forward/out-of-range body reference);
/// disk deserialization rejects those before they get here.
pub fn replay<I: LoopInterner>(fold: &NlrFold, interner: &mut I) -> Vec<Element> {
    let mut globals: Vec<LoopId> = Vec::with_capacity(fold.bodies.len());
    for body in &fold.bodies {
        let b: Vec<Element> = body.iter().map(|&pe| to_element(pe, &globals)).collect();
        globals.push(interner.intern(b));
    }
    fold.elements
        .iter()
        .map(|&pe| to_element(pe, &globals))
        .collect()
}

fn to_element(pe: PElem, globals: &[LoopId]) -> Element {
    match pe {
        PElem::Sym(s) => Element::Sym(s),
        PElem::Loop { local, count } => Element::Loop {
            body: globals[local as usize],
            count,
        },
    }
}

/// The NLR cache key for one filtered trace: a stable digest of the
/// format version, the fold bound `k`, the filtered symbol stream, and
/// the distinct-symbol → resolved-name mapping. Folding itself depends
/// only on the `u32` stream, but downstream consumers of a fold resolve
/// names through the live registry — hashing the mapping means a
/// corpus whose registry permuted (same streams, different meanings)
/// changes keys and misses safely instead of aliasing.
pub fn nlr_key<F: Fn(u32) -> String>(k: usize, symbols: &[u32], name_of: F) -> u128 {
    let mut h = StableHasher::new();
    h.write_u32(CACHE_FORMAT_VERSION);
    h.write_u64(k as u64);
    h.write_u64(symbols.len() as u64);
    for &s in symbols {
        h.write_u32(s);
    }
    let distinct: BTreeSet<u32> = symbols.iter().copied().collect();
    h.write_u64(distinct.len() as u64);
    for s in distinct {
        h.write_u32(s);
        h.write_str(&name_of(s));
    }
    h.finish()
}

/// The attribute cache key: the trace's NLR key, the attribute config
/// code, and the top-level element sequence under the *global* loop
/// numbering. Mined attribute labels embed global loop IDs (`L3`
/// renders from the table-wide ID), so the numbering is part of what a
/// cached value means: a warm run that assigns the same global IDs hits
/// and reuses the exact strings; any run that numbers differently
/// derives a different key and re-mines.
pub fn attr_key(nlr_key: u128, attr_code: &str, elements: &[Element]) -> u128 {
    let mut h = StableHasher::new();
    h.write_u32(CACHE_FORMAT_VERSION);
    h.write_u128(nlr_key);
    h.write_str(attr_code);
    h.write_u64(elements.len() as u64);
    for &e in elements {
        match e {
            Element::Sym(s) => {
                h.write_u8(0);
                h.write_u32(s);
            }
            Element::Loop { body, count } => {
                h.write_u8(1);
                h.write_u32(body.0);
                h.write_u64(count);
            }
        }
    }
    h.finish()
}

/// A mined attribute set, exactly as `difftrace::attributes::mine`
/// returns it.
pub type AttrSet = Vec<(String, f64)>;

/// Counter snapshot of a cache's activity ([`Cache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// NLR lookups answered from memory or disk.
    pub nlr_hits: u64,
    /// NLR lookups that fell through to a fresh fold.
    pub nlr_misses: u64,
    /// Attribute lookups answered from memory or disk.
    pub attr_hits: u64,
    /// Attribute lookups that fell through to fresh mining.
    pub attr_misses: u64,
    /// Bytes of valid entries read from the disk layer.
    pub disk_read_bytes: u64,
    /// Bytes of entries written to the disk layer.
    pub disk_write_bytes: u64,
}

/// The content-addressed analysis cache: two in-memory maps (NLR folds,
/// attribute sets) shared across threads, plus an optional persistent
/// directory. All methods take `&self`; the cache is designed to be
/// held in an `Arc` and shared across sweep cells and pipeline stages.
///
/// Disk writes are atomic (unique temp file + rename) and best-effort:
/// an I/O error degrades the cache to memory-only behavior for that
/// entry rather than failing the analysis.
#[derive(Debug, Default)]
pub struct Cache {
    nlr: Mutex<HashMap<u128, Arc<NlrFold>>>,
    attrs: Mutex<HashMap<u128, Arc<AttrSet>>>,
    dir: Option<PathBuf>,
    nlr_hits: AtomicU64,
    nlr_misses: AtomicU64,
    attr_hits: AtomicU64,
    attr_misses: AtomicU64,
    disk_read_bytes: AtomicU64,
    disk_write_bytes: AtomicU64,
}

impl Cache {
    /// A fresh in-memory cache.
    pub fn new() -> Cache {
        Cache::default()
    }

    /// A cache backed by `dir` (created if absent): entries persist
    /// across processes, keyed by content digests, so a second run over
    /// unchanged inputs hits from disk.
    pub fn with_dir(dir: &Path) -> std::io::Result<Cache> {
        std::fs::create_dir_all(dir)?;
        Ok(Cache {
            dir: Some(dir.to_path_buf()),
            ..Cache::default()
        })
    }

    /// The backing directory, when persistent.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Look up an NLR fold. Checks memory first, then the disk layer;
    /// a disk entry that fails validation is a miss.
    pub fn get_nlr(&self, key: u128) -> Option<Arc<NlrFold>> {
        if let Some(f) = lock(&self.nlr).get(&key).cloned() {
            self.nlr_hits.fetch_add(1, Ordering::Relaxed);
            return Some(f);
        }
        if let Some(dir) = &self.dir {
            if let Some((fold, bytes)) = disk::read_nlr(&disk::nlr_path(dir, key)) {
                self.disk_read_bytes.fetch_add(bytes, Ordering::Relaxed);
                self.nlr_hits.fetch_add(1, Ordering::Relaxed);
                let fold = Arc::new(fold);
                lock(&self.nlr).insert(key, fold.clone());
                return Some(fold);
            }
        }
        self.nlr_misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Store an NLR fold under `key` (memory, and disk when backed).
    pub fn put_nlr(&self, key: u128, fold: Arc<NlrFold>) {
        if let Some(dir) = &self.dir {
            let bytes = disk::write_nlr(&disk::nlr_path(dir, key), &fold);
            self.disk_write_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
        lock(&self.nlr).insert(key, fold);
    }

    /// Look up a mined attribute set.
    pub fn get_attrs(&self, key: u128) -> Option<Arc<AttrSet>> {
        if let Some(a) = lock(&self.attrs).get(&key).cloned() {
            self.attr_hits.fetch_add(1, Ordering::Relaxed);
            return Some(a);
        }
        if let Some(dir) = &self.dir {
            if let Some((set, bytes)) = disk::read_attrs(&disk::attr_path(dir, key)) {
                self.disk_read_bytes.fetch_add(bytes, Ordering::Relaxed);
                self.attr_hits.fetch_add(1, Ordering::Relaxed);
                let set = Arc::new(set);
                lock(&self.attrs).insert(key, set.clone());
                return Some(set);
            }
        }
        self.attr_misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Store a mined attribute set under `key`.
    pub fn put_attrs(&self, key: u128, set: Arc<AttrSet>) {
        if let Some(dir) = &self.dir {
            let bytes = disk::write_attrs(&disk::attr_path(dir, key), &set);
            self.disk_write_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
        lock(&self.attrs).insert(key, set);
    }

    /// Snapshot the activity counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            nlr_hits: self.nlr_hits.load(Ordering::Relaxed),
            nlr_misses: self.nlr_misses.load(Ordering::Relaxed),
            attr_hits: self.attr_hits.load(Ordering::Relaxed),
            attr_misses: self.attr_misses.load(Ordering::Relaxed),
            disk_read_bytes: self.disk_read_bytes.load(Ordering::Relaxed),
            disk_write_bytes: self.disk_write_bytes.load(Ordering::Relaxed),
        }
    }

    /// Report the activity counters into `rec` (for `--profile` /
    /// `--metrics`). Call once per command, after the pipeline ran —
    /// the counters accumulate across every lookup the command made.
    pub fn report_to(&self, rec: &dyn dt_obs::Recorder) {
        if !rec.enabled() {
            return;
        }
        let s = self.stats();
        rec.add("cache_nlr_hits", s.nlr_hits);
        rec.add("cache_nlr_misses", s.nlr_misses);
        rec.add("cache_attr_hits", s.attr_hits);
        rec.add("cache_attr_misses", s.attr_misses);
        rec.add("cache_disk_read_bytes", s.disk_read_bytes);
        rec.add("cache_disk_write_bytes", s.disk_write_bytes);
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlr::{LoopTable, Nlr, NlrBuilder, RecordingInterner};

    /// Build `symbols` sequentially into `table`, recording the fold
    /// order, and return (summary, portable fold).
    fn build_and_fold(symbols: &[u32], table: &mut LoopTable) -> (Nlr, NlrFold) {
        let builder = NlrBuilder::new(10);
        let mut rec = RecordingInterner::new(&mut *table);
        let nlr = builder.build(symbols, &mut rec);
        let order = rec.into_order();
        let fold = fold_from_build(&order, nlr.elements(), nlr.input_len(), |id| {
            table.body(id).to_vec()
        });
        (nlr, fold)
    }

    #[test]
    fn fold_roundtrips_through_replay() {
        // Nested loops: ((1 2)^2 9)^2 … plus a plain loop.
        let symbols: Vec<u32> = [1u32, 2, 1, 2, 9, 1, 2, 1, 2, 9, 3, 3, 3, 3].to_vec();
        let mut cold = LoopTable::new();
        let (nlr, fold) = build_and_fold(&symbols, &mut cold);
        assert!(fold.is_well_formed());
        assert_eq!(fold.input_len, symbols.len());

        // Replay into a fresh table: identical numbering and bodies.
        let mut warm = LoopTable::new();
        let elements = replay(&fold, &mut warm);
        assert_eq!(elements, nlr.elements());
        assert_eq!(warm.len(), cold.len());
        for i in 0..cold.len() {
            assert_eq!(warm.body(LoopId(i as u32)), cold.body(LoopId(i as u32)));
        }
    }

    #[test]
    fn fold_is_table_independent() {
        // The same trace folded into two tables with different
        // pre-existing content yields the same portable fold.
        let symbols: Vec<u32> = [5u32, 6].repeat(4);
        let mut empty = LoopTable::new();
        let (_, fold_a) = build_and_fold(&symbols, &mut empty);
        let mut seeded = LoopTable::new();
        seeded.intern(vec![Element::Sym(99)]);
        seeded.intern(vec![Element::Sym(98), Element::Sym(97)]);
        let (_, fold_b) = build_and_fold(&symbols, &mut seeded);
        assert_eq!(fold_a, fold_b);
    }

    #[test]
    fn replay_into_populated_table_matches_cold_build() {
        // Two traces share a loop body. Cache the second trace's fold
        // from an isolated build, then replay it into a table the first
        // trace already populated: numbering must equal a cold build of
        // both traces in order.
        let t1: Vec<u32> = [1u32, 2].repeat(5);
        let t2: Vec<u32> = {
            let mut v = [1u32, 2].repeat(3);
            v.extend([7u32, 8].repeat(3));
            v
        };
        let mut cold = LoopTable::new();
        let b = NlrBuilder::new(10);
        let n1 = b.build(&t1, &mut cold);
        let n2 = b.build(&t2, &mut cold);

        let mut iso = LoopTable::new();
        let (_, fold2) = build_and_fold(&t2, &mut iso);

        let mut warm = LoopTable::new();
        let w1 = b.build(&t1, &mut warm);
        let w2 = replay(&fold2, &mut warm);
        assert_eq!(w1.elements(), n1.elements());
        assert_eq!(w2, n2.elements());
        assert_eq!(warm.len(), cold.len());
    }

    #[test]
    fn nlr_key_discriminates_inputs() {
        let name = |s: u32| format!("f{s}");
        let base = nlr_key(10, &[1, 2, 3], name);
        assert_eq!(base, nlr_key(10, &[1, 2, 3], name));
        assert_ne!(base, nlr_key(11, &[1, 2, 3], name), "k in key");
        assert_ne!(base, nlr_key(10, &[1, 2], name), "stream in key");
        assert_ne!(
            base,
            nlr_key(10, &[1, 2, 3], |s| format!("g{s}")),
            "names in key"
        );
    }

    #[test]
    fn attr_key_sees_numbering_and_config() {
        let looped = [Element::Loop {
            body: LoopId(0),
            count: 4,
        }];
        let renumbered = [Element::Loop {
            body: LoopId(1),
            count: 4,
        }];
        let k = attr_key(7, "sing.actual", &looped);
        assert_eq!(k, attr_key(7, "sing.actual", &looped));
        assert_ne!(k, attr_key(7, "doub.actual", &looped));
        assert_ne!(k, attr_key(8, "sing.actual", &looped));
        assert_ne!(k, attr_key(7, "sing.actual", &renumbered));
    }

    #[test]
    fn memory_cache_hits_and_counts() {
        let c = Cache::new();
        assert!(c.get_nlr(1).is_none());
        c.put_nlr(
            1,
            Arc::new(NlrFold {
                bodies: vec![],
                elements: vec![PElem::Sym(3)],
                input_len: 1,
            }),
        );
        assert!(c.get_nlr(1).is_some());
        assert!(c.get_attrs(2).is_none());
        c.put_attrs(2, Arc::new(vec![("a".into(), 1.0)]));
        assert_eq!(c.get_attrs(2).unwrap().as_slice(), &[("a".into(), 1.0)]);
        let s = c.stats();
        assert_eq!((s.nlr_hits, s.nlr_misses), (1, 1));
        assert_eq!((s.attr_hits, s.attr_misses), (1, 1));
        assert_eq!(s.disk_read_bytes + s.disk_write_bytes, 0);
    }

    #[test]
    fn malformed_fold_is_detected() {
        let forward = NlrFold {
            bodies: vec![vec![PElem::Loop { local: 0, count: 2 }]],
            elements: vec![],
            input_len: 0,
        };
        assert!(!forward.is_well_formed(), "self/forward reference");
        let oob = NlrFold {
            bodies: vec![],
            elements: vec![PElem::Loop { local: 5, count: 2 }],
            input_len: 10,
        };
        assert!(!oob.is_well_formed(), "element past bodies");
    }
}
