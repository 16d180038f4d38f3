//! The store's decode is bounded. A blob or an index that claims more
//! symbols than the store allows is a diagnosed format error, refused
//! before any output is reserved. A counting global allocator tracks
//! live heap bytes, so each refusal's peak is a property of the code
//! and the input, not of the machine.

use dt_trace::codec::{seal, write_varint};
use dt_trace::hash::StableHasher;
use dt_trace::store::{IndexedSet, StoreError, DECODE_BUDGET};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The system allocator, with a running count of live bytes and the
/// highest count seen since [`peak_during`] last reset it.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(n: usize) {
    let now = LIVE.fetch_add(n, Ordering::SeqCst) + n;
    PEAK.fetch_max(now, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::SeqCst);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Tests share the counters, so they take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// Live heap bytes `f` adds at its peak, above what was live when it
/// started.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let out = f();
    (out, PEAK.load(Ordering::SeqCst) - base)
}

/// Every refusal below peaks under this many live heap bytes.
const PINNED_PEAK: usize = 1 << 20;

/// A DTLZ blob declaring `symbols`: one literal, then one match of
/// `symbols − 1` at distance 1. At 2²⁷ symbols it is 15 bytes that
/// decode to 512 MiB.
fn bomb(symbols: u64) -> Vec<u8> {
    let mut blob = b"DTLZ\x01".to_vec();
    write_varint(&mut blob, symbols);
    write_varint(&mut blob, 0); // literal: function 0, a call
    write_varint(&mut blob, ((symbols - 1) << 1) | 1);
    write_varint(&mut blob, 1);
    blob
}

/// A store of `version` 3 or 4 holding one trace, `blob`, whose v4
/// index entry declares `symbols`.
fn store(version: u8, blob: &[u8], symbols: u64) -> Vec<u8> {
    let sealed = |bytes: Vec<u8>| if version >= 4 { seal(bytes) } else { bytes };
    let mut out = b"DTTS".to_vec();
    out.push(version);
    out.extend_from_slice(&[1, 1, b'f']); // registry: the one name "f"
    let mut out = sealed(out);
    out.extend_from_slice(&[1, 0, 0, 0]); // one trace, 0.0, not truncated
    write_varint(&mut out, blob.len() as u64);
    let blob_off = out.len() as u64;
    out.extend_from_slice(blob);
    let hb_off = out.len() as u64;
    out.extend_from_slice(&sealed(vec![0])); // no HB log
    let index_off = out.len() as u64;
    let mut index = b"DTIX".to_vec();
    index.extend_from_slice(&[1, 0, 0, 0]);
    write_varint(&mut index, blob_off);
    write_varint(&mut index, blob.len() as u64);
    if version >= 4 {
        write_varint(&mut index, symbols);
        let mut h = StableHasher::new();
        h.write_raw(blob);
        index.extend_from_slice(&h.finish().to_le_bytes());
    }
    out.extend_from_slice(&sealed(index));
    out.extend_from_slice(&hb_off.to_le_bytes());
    out.extend_from_slice(&index_off.to_le_bytes());
    out
}

/// Open `image` and read its whole corpus; the trace count on success.
fn read(image: Vec<u8>) -> Result<usize, StoreError> {
    Ok(IndexedSet::from_bytes(image)?.full_set()?.len())
}

fn assert_refused(image: Vec<u8>, want: &str) {
    let (got, peak) = peak_during(|| read(image));
    assert!(
        matches!(&got, Err(StoreError::Format(m)) if *m == want),
        "{got:?}"
    );
    assert!(
        peak < PINNED_PEAK,
        "refusal peaked at {peak} live heap bytes"
    );
}

/// The builders make stores the reader accepts, in both versions.
#[test]
fn a_small_bomb_within_its_declared_count_reads() {
    for version in [3, 4] {
        assert_eq!(read(store(version, &bomb(1000), 1000)).unwrap(), 1);
    }
}

/// The 2²⁷-symbol bomb in a v4 store whose index declares 1 symbol.
#[test]
fn v4_bomb_over_its_index_count_is_refused() {
    let blob = bomb(1 << 27);
    assert_eq!(blob.len(), 15);
    assert_refused(
        store(4, &blob, 1),
        "blob symbol count disagrees with the index",
    );
}

/// A v4 index declaring 2⁴⁰ symbols fails to open.
#[test]
fn v4_index_over_the_budget_is_refused() {
    const { assert!(1 << 40 > DECODE_BUDGET) };
    assert_refused(
        store(4, &bomb(1 << 40), 1 << 40),
        "store declares more symbols than its decode budget",
    );
}

/// A v3 blob declaring 2⁴⁰ symbols opens, and is refused when read.
#[test]
fn v3_blob_over_the_budget_is_refused() {
    let image = store(3, &bomb(1 << 40), 0);
    assert!(IndexedSet::from_bytes(image.clone()).is_ok());
    assert_refused(image, "store declares more symbols than its decode budget");
}
