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
//! * `(trace content, filter K)` → the trace's [`nlr::Fold`], the one
//!   portable fold form: it replays into any loop table, reproducing
//!   the exact loop numbering a cold build would have produced, and
//!   each key folds at most once per cache ([`Cache::nlr_fold`]);
//! * `(NLR key, attribute config, loop numbering)` → the mined
//!   attribute set, mined at most once per cache ([`Cache::attrs`]).
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
use nlr::{Element, Fold};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Version stamp of the cache key derivation *and* the on-disk entry
/// encoding. Bump whenever either changes (hash algorithm, key inputs,
/// serialization layout, or any pipeline change that alters what a
/// cached value means): old entries then miss instead of being reused
/// incorrectly.
pub const CACHE_FORMAT_VERSION: u32 = 1;

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
    // The distinct symbols, one bit each up to the largest: stored
    // streams are checked against their registry's symbol bound at
    // decode, so the registry bounds the set.
    let mut seen: Vec<u64> = Vec::new();
    for &s in symbols {
        h.write_u32(s);
        let word = s as usize / 64;
        if word >= seen.len() {
            seen.resize(word + 1, 0);
        }
        seen[word] |= 1 << (s % 64);
    }
    h.write_u64(seen.iter().map(|w| u64::from(w.count_ones())).sum());
    let distinct = (0..seen.len() * 64).filter(|&s| seen[s / 64] >> (s % 64) & 1 == 1);
    for s in distinct.map(|s| s as u32) {
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

/// One map of write-once slots: a key's value is computed (or read from
/// disk) by the first caller and shared with every later one.
type Slots<T> = Mutex<HashMap<u128, Arc<OnceLock<Arc<T>>>>>;

/// One kind of entry: its slot map, how it reaches the disk layer, and
/// where its lookups are counted.
struct Kind<'a, T> {
    slots: &'a Slots<T>,
    path: fn(&Path, u128) -> PathBuf,
    read: fn(&Path) -> Option<(T, u64)>,
    write: fn(&Path, &T) -> u64,
    hits: &'a AtomicU64,
    misses: &'a AtomicU64,
}

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
/// directory. Each key owns a write-once slot, so a key folds or mines
/// at most once however many threads ask for it. All methods take
/// `&self`; the cache is designed to be held in an `Arc` and shared
/// across sweep cells and pipeline stages.
///
/// Disk writes are atomic (unique temp file + rename) and best-effort:
/// an I/O error degrades the cache to memory-only behavior for that
/// entry rather than failing the analysis.
#[derive(Debug, Default)]
pub struct Cache {
    nlr: Slots<Fold>,
    attrs: Slots<AttrSet>,
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

    /// The fold under `key`: from memory, else from the disk layer (an
    /// entry that fails validation is a miss), else from `fold`, which
    /// is then stored. The first caller for a key does the lookup and
    /// counts a miss when it folds; every later or concurrent caller
    /// waits for that result and counts a hit, so the counters depend
    /// only on the sequence of keys asked for, never on the thread
    /// schedule. Returns the fold and whether `fold` ran.
    pub fn nlr_fold(&self, key: u128, fold: impl FnOnce() -> Fold) -> (Arc<Fold>, bool) {
        let kind = Kind {
            slots: &self.nlr,
            path: disk::nlr_path,
            read: disk::read_nlr,
            write: disk::write_nlr,
            hits: &self.nlr_hits,
            misses: &self.nlr_misses,
        };
        self.once(&kind, key, fold)
    }

    /// The attribute set under `key`, mined by `mine` at most once per
    /// cache: the same contract as [`Cache::nlr_fold`]. Returns the set
    /// and whether `mine` ran.
    pub fn attrs(&self, key: u128, mine: impl FnOnce() -> AttrSet) -> (Arc<AttrSet>, bool) {
        let kind = Kind {
            slots: &self.attrs,
            path: disk::attr_path,
            read: disk::read_attrs,
            write: disk::write_attrs,
            hits: &self.attr_hits,
            misses: &self.attr_misses,
        };
        self.once(&kind, key, mine)
    }

    /// Look up a mined attribute set without mining it: from memory,
    /// else from the disk layer. A miss is counted and leaves the key
    /// to [`Cache::put_attrs`] or [`Cache::attrs`].
    pub fn get_attrs(&self, key: u128) -> Option<Arc<AttrSet>> {
        let slot = lock(&self.attrs).get(&key).cloned();
        let found = slot
            .as_deref()
            .and_then(OnceLock::get)
            .cloned()
            .or_else(|| {
                let (set, bytes) = disk::read_attrs(&disk::attr_path(self.dir.as_deref()?, key))?;
                self.disk_read_bytes.fetch_add(bytes, Ordering::Relaxed);
                Some(Self::store(&self.attrs, key, Arc::new(set)))
            });
        let counter = if found.is_some() {
            &self.attr_hits
        } else {
            &self.attr_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Store a mined attribute set under `key`. A key already set keeps
    /// its value: equal keys mean equal sets.
    pub fn put_attrs(&self, key: u128, set: Arc<AttrSet>) {
        if let Some(dir) = &self.dir {
            let bytes = disk::write_attrs(&disk::attr_path(dir, key), &set);
            self.disk_write_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
        Self::store(&self.attrs, key, set);
    }

    /// The slot of `key` in `slots`, created empty if absent.
    fn slot<T>(slots: &Slots<T>, key: u128) -> Arc<OnceLock<Arc<T>>> {
        lock(slots).entry(key).or_default().clone()
    }

    /// Set `key`'s slot to `value` unless it is set already; returns
    /// what the slot holds.
    fn store<T>(slots: &Slots<T>, key: u128, value: Arc<T>) -> Arc<T> {
        Self::slot(slots, key).get_or_init(|| value).clone()
    }

    /// The one fold-once lookup behind [`Cache::nlr_fold`] and
    /// [`Cache::attrs`]: memory, else disk, else `make` (stored to
    /// disk too), with one hit or one miss counted per call.
    fn once<T>(&self, kind: &Kind<'_, T>, key: u128, make: impl FnOnce() -> T) -> (Arc<T>, bool) {
        let slot = Self::slot(kind.slots, key);
        let mut made = false;
        let value = slot.get_or_init(|| {
            let path = self.dir.as_deref().map(|dir| (kind.path)(dir, key));
            if let Some((value, bytes)) = path.as_deref().and_then(kind.read) {
                self.disk_read_bytes.fetch_add(bytes, Ordering::Relaxed);
                return Arc::new(value);
            }
            made = true;
            let value = make();
            if let Some(path) = &path {
                let bytes = (kind.write)(path, &value);
                self.disk_write_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
            Arc::new(value)
        });
        let counter = if made { kind.misses } else { kind.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        (value.clone(), made)
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
    use nlr::{LoopId, LoopTable, Nlr, NlrBuilder};

    /// `nlr_key` over fixed inputs, folded into one pinned digest: keys
    /// are persisted in `--cache` directories, so any change to them
    /// must bump `CACHE_FORMAT_VERSION`. The inputs cover an empty stream, bit-set
    /// word boundaries (63, 64, 127, 128), one large sparse symbol, and
    /// a long stream at three fold bounds.
    #[test]
    fn nlr_keys_are_pinned() {
        let mut x = 7u32;
        let long: Vec<u32> = (0..2_000)
            .map(|_| {
                x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
                (x >> 16) % 300
            })
            .collect();
        let inputs: [(usize, Vec<u32>); 7] = [
            (10, vec![]),
            (10, vec![3, 1, 2, 1, 2, 0, 3]),
            (10, vec![64, 63, 128, 127, 0, 64, 127]),
            (10, vec![5, 1_000_003, 5, 64, 1_000_003, 0]),
            (1, long.clone()),
            (10, long.clone()),
            (50, long),
        ];
        let mut h = StableHasher::new();
        for (k, symbols) in &inputs {
            h.write_u128(nlr_key(*k, symbols, |s| format!("fn{s}·{}", s % 7)));
        }
        assert_eq!(h.finish(), 0x3301b4906453f36f6f758fba0db4b7c9);
    }

    /// Build `symbols` cold into `table` and fold it in isolation:
    /// (summary, portable fold).
    fn build_and_fold(symbols: &[u32], table: &mut LoopTable) -> (Nlr, Fold) {
        let builder = NlrBuilder::new(10);
        (builder.build(symbols, table), builder.fold(symbols))
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
        assert_eq!(fold.replay(&mut warm), nlr);
        assert_eq!(warm.len(), cold.len());
        for i in 0..cold.len() {
            assert_eq!(warm.body(LoopId(i as u32)), cold.body(LoopId(i as u32)));
        }
    }

    #[test]
    fn replay_into_populated_table_matches_cold_build() {
        // Two traces share a loop body. Cache the second trace's fold,
        // then replay it into a table the first trace already
        // populated: numbering must equal a cold build of both traces
        // in order.
        let t1: Vec<u32> = [1u32, 2].repeat(5);
        let t2: Vec<u32> = {
            let mut v = [1u32, 2].repeat(3);
            v.extend([7u32, 8].repeat(3));
            v
        };
        let mut cold = LoopTable::new();
        let (n1, _) = build_and_fold(&t1, &mut cold);
        let (n2, fold2) = build_and_fold(&t2, &mut cold);

        let mut warm = LoopTable::new();
        let w1 = NlrBuilder::new(10).build(&t1, &mut warm);
        assert_eq!(w1, n1);
        assert_eq!(fold2.replay(&mut warm), n2);
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
        let fold = || NlrBuilder::new(10).fold(&[3]);
        let (first, built) = c.nlr_fold(1, fold);
        assert!(built);
        let (again, built) = c.nlr_fold(1, || unreachable!("key 1 is cached"));
        assert!(!built);
        assert_eq!(first, again);
        assert!(c.get_attrs(2).is_none());
        c.put_attrs(2, Arc::new(vec![("a".into(), 1.0)]));
        assert_eq!(c.get_attrs(2).unwrap().as_slice(), &[("a".into(), 1.0)]);
        let s = c.stats();
        assert_eq!((s.nlr_hits, s.nlr_misses), (1, 1));
        assert_eq!((s.attr_hits, s.attr_misses), (1, 1));
        assert_eq!(s.disk_read_bytes + s.disk_write_bytes, 0);
    }

    #[test]
    fn concurrent_callers_fold_a_key_once() {
        // Many threads ask for the same few keys at once: each key
        // folds exactly once, and the counters are those of asking
        // one key after another.
        let c = Cache::new();
        let runs = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for key in 0..4u128 {
                        c.nlr_fold(key, || {
                            runs.fetch_add(1, Ordering::Relaxed);
                            NlrBuilder::new(10).fold(&[key as u32; 4])
                        });
                    }
                });
            }
        });
        assert_eq!(runs.load(Ordering::Relaxed), 4);
        let s = c.stats();
        assert_eq!((s.nlr_hits, s.nlr_misses), (28, 4));
    }

    #[test]
    fn concurrent_callers_mine_a_key_once() {
        let c = Cache::new();
        let runs = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for key in 0..4u128 {
                        let (set, _) = c.attrs(key, || {
                            runs.fetch_add(1, Ordering::Relaxed);
                            vec![(format!("a{key}"), 1.0)]
                        });
                        assert_eq!(set[0].0, format!("a{key}"));
                    }
                });
            }
        });
        assert_eq!(runs.load(Ordering::Relaxed), 4);
        let s = c.stats();
        assert_eq!((s.attr_hits, s.attr_misses), (28, 4));
        // The slots `attrs` filled answer `get_attrs` too.
        assert_eq!(c.get_attrs(3).unwrap()[0].0, "a3");
        assert!(c.get_attrs(4).is_none());
    }
}
