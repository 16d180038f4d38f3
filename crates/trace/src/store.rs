//! On-disk trace-set format (ParLOT's trace files).
//!
//! One execution serialises to a single self-describing binary file:
//!
//! ```text
//! "DTTS" ∥ version:u8
//! registry: varint count ∥ (varint len ∥ utf8 bytes)* ∥ (v4) seal
//! traces:   varint count ∥ (process:varint ∥ thread:varint ∥
//!                           truncated:u8 ∥ varint blob_len ∥ blob)*
//! hb:       (v2+) present:u8 ∥ HbLog section (see [`crate::hb`]) ∥ (v4) seal
//! index:    (v3+) "DTIX" ∥ varint count ∥
//!                 (process ∥ thread ∥ truncated:u8 ∥
//!                  blob_off:varint ∥ blob_len:varint ∥
//!                  (v4) symbols:varint ∥ (v4) digest:u128 LE)* ∥ (v4) seal
//! footer:   (v3+) hb_off:u64 LE ∥ index_off:u64 LE
//! ```
//!
//! where each `blob` is the [`crate::compress`] encoding of the trace's
//! symbol stream — traces are stored *compressed*, exactly as ParLOT
//! writes them, and decompressed by DiffTrace's pre-processing stage.
//!
//! Version 2 appends the happens-before log (vector-clock-stamped MPI
//! events plus blocked-operation state) that `hbcheck` analyzes.
//! Version 3 appends a per-trace offset index plus a fixed-size footer
//! so [`IndexedSet`] can open a corpus without decoding (or even
//! touching) any trace blob: `blob_off` is the absolute file offset of
//! that trace's compressed blob, `hb_off` the offset of the
//! HB-presence byte, `index_off` the offset of the `"DTIX"` magic.
//! Version 4 seals the registry (from the magic on), the HB section and
//! the index, each with a [`crate::codec::seal`] over its own bytes, and
//! records each trace's symbol count and a [`StableHasher`] digest of
//! its blob in the index. Open checks the seals and the total count
//! against [`DECODE_BUDGET`]; a blob's digest and count are checked
//! when that blob is decoded, so every byte of a v4 file is covered and
//! lazy reads stay lazy. Earlier-version files still read — v1 files
//! simply carry an empty [`HbLog`], and the symbols a v1–3 file decodes
//! come out of the same budget. Readers predating a version diagnose
//! its files as `unsupported DTTS version` rather than misparsing them.
//!
//! [`IndexedSet`] is the one reader. Fields are read through
//! [`crate::codec::Reader`].

use crate::codec::{self, write_varint, CodecError, Reader};
use crate::compress;
use crate::hash::StableHasher;
use crate::hb::HbLog;
use crate::registry::FunctionRegistry;
use crate::trace::{Trace, TraceId, TraceSet};
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

const MAGIC: &[u8; 4] = b"DTTS";
const INDEX_MAGIC: &[u8; 4] = b"DTIX";

/// Current `.dtts` container version. Bumped to 3 when the per-trace
/// offset index + footer were appended for [`IndexedSet`], and to 4
/// when the sections were sealed and the index gained each blob's
/// symbol count and digest; readers older than a bump reject newer
/// files with a diagnosed `unsupported DTTS version` error instead of
/// misparsing them.
pub const STORE_FORMAT_VERSION: u8 = 4;
const VERSION: u8 = STORE_FORMAT_VERSION;

/// Symbols one store may decode: 2²⁸ (1 GiB of decoded trace). A v4
/// store declaring more in its index fails to open; a v1–3 store's
/// blobs take their declared counts from it as they are read. DESIGN
/// §12 gives the reasons for the figure.
pub const DECODE_BUDGET: u64 = 1 << 28;

/// Bytes of a [`codec::seal`].
const SEAL: usize = 16;

/// Error reading a trace-set file.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem in the file.
    Format(&'static str),
    /// A per-trace blob failed to decompress.
    Codec(CodecError),
    /// Embedded string was not UTF-8.
    Utf8,
    /// Structural problem that needs runtime context to describe
    /// (e.g. *which* trace is missing).
    Invalid(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "trace store I/O error: {e}"),
            StoreError::Format(m) => write!(f, "trace store format error: {m}"),
            StoreError::Codec(e) => write!(f, "trace store codec error: {e}"),
            StoreError::Utf8 => write!(f, "trace store contains invalid UTF-8"),
            StoreError::Invalid(m) => write!(f, "trace store format error: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> StoreError {
        match e {
            CodecError::Truncated => StoreError::Format(TRUNCATED),
            CodecError::Utf8 => StoreError::Utf8,
            CodecError::Container(m) => StoreError::Format(m),
            other => StoreError::Codec(other),
        }
    }
}

/// Serialise a trace set to bytes (traces stored compressed), with no
/// happens-before section.
pub fn to_bytes(set: &TraceSet) -> Vec<u8> {
    to_bytes_full(set, None)
}

/// Serialise a trace set plus its happens-before log. `None` writes a
/// file whose HB section is marked absent.
pub fn to_bytes_full(set: &TraceSet, hb: Option<&HbLog>) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.push(VERSION);
    let names = set.registry.names();
    write_varint(&mut out, names.len() as u64);
    for n in &names {
        write_varint(&mut out, n.len() as u64);
        out.extend_from_slice(n.as_bytes());
    }
    let mut out = codec::seal(out);

    write_varint(&mut out, set.len() as u64);
    let mut index = INDEX_MAGIC.to_vec();
    write_varint(&mut index, set.len() as u64);
    for t in set.iter() {
        let blob = compress::compress(&t.events);
        for part in [&mut out, &mut index] {
            write_varint(part, u64::from(t.id.process));
            write_varint(part, u64::from(t.id.thread));
            part.push(u8::from(t.truncated));
        }
        write_varint(&mut out, blob.len() as u64);
        write_varint(&mut index, out.len() as u64);
        write_varint(&mut index, blob.len() as u64);
        write_varint(&mut index, t.events.len() as u64);
        index.extend_from_slice(&blob_digest(&blob).to_le_bytes());
        out.extend_from_slice(&blob);
    }
    let hb_off = out.len() as u64;
    let mut section = vec![u8::from(hb.is_some())];
    if let Some(hb) = hb {
        hb.write_to(&mut section);
    }
    out.extend_from_slice(&codec::seal(section));
    let index_off = out.len() as u64;
    out.extend_from_slice(&codec::seal(index));
    out.extend_from_slice(&hb_off.to_le_bytes());
    out.extend_from_slice(&index_off.to_le_bytes());
    out
}

/// The digest a v4 index records of a blob.
fn blob_digest(blob: &[u8]) -> u128 {
    let mut h = StableHasher::new();
    h.write_raw(blob);
    h.finish()
}

/// What a v4 index records of a blob, checked when it is decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlobCheck {
    symbols: u64,
    digest: u128,
}

/// One trace's header: its id, truncation flag and where its blob sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IndexEntry {
    id: TraceId,
    truncated: bool,
    off: usize,
    len: usize,
    /// The v4 index's record of the blob (`None` before v4).
    check: Option<BlobCheck>,
}

impl IndexEntry {
    /// This trace holding `events`.
    fn with_events(&self, events: Vec<u32>) -> Trace {
        Trace {
            id: self.id,
            events,
            truncated: self.truncated,
        }
    }
}

/// A `.dtts` image parsed up to its blobs — everything a reader needs
/// before decoding a trace.
struct Layout {
    registry: Arc<FunctionRegistry>,
    /// Sorted by id, no duplicates, every blob inside the image.
    entries: Vec<IndexEntry>,
    hb_section: Option<HbSection>,
}

/// Where a v2+ image's happens-before section lies: from `at` to `end`
/// (its seal excluded), where a v3+ image's index (`exact`) must follow
/// it.
#[derive(Debug, Clone, Copy)]
struct HbSection {
    at: usize,
    end: usize,
    exact: bool,
}

/// The happens-before log in `section` of `buf`; a v1 image has none,
/// which reads as an empty log.
fn read_hb(buf: &[u8], section: Option<HbSection>) -> Result<HbLog, StoreError> {
    let Some(HbSection { at, end, exact }) = section else {
        return Ok(HbLog::default());
    };
    let mut r = Reader::at(&buf[..end], at);
    let present = r
        .flag()
        .map_err(site("file ends before HB section", "bad HB-presence flag"))?;
    let hb = if present {
        HbLog::read_from(&mut r)
            .map_err(|_| StoreError::Format("malformed happens-before section"))?
    } else {
        HbLog::default()
    };
    if exact && r.remaining() != 0 {
        return Err(StoreError::Format("index does not follow the HB section"));
    }
    Ok(hb)
}

/// Check the seal that ends `buf[at..end]`; where its payload ends.
fn check_seal(buf: &[u8], at: usize, end: usize, what: &'static str) -> Result<usize, StoreError> {
    buf.get(at..end)
        .and_then(codec::unseal)
        .map(|(payload, _)| at + payload.len())
        .ok_or(StoreError::Format(what))
}

impl Layout {
    /// Parse magic and version, the registry, every trace header
    /// (skipping the blobs), the v3+ index and footer — which must
    /// agree with the headers — and the HB section, checking each v4
    /// seal.
    fn parse(buf: &[u8]) -> Result<Layout, StoreError> {
        if buf.len() < 5 {
            return Err(StoreError::Format("file too short"));
        }
        if &buf[..4] != MAGIC {
            return Err(StoreError::Format("bad magic (not a DTTS file)"));
        }
        let version = buf[4];
        if !(1..=VERSION).contains(&version) {
            return Err(StoreError::Format("unsupported DTTS version"));
        }
        let sealed = version >= 4;
        let mut r = Reader::at(buf, 5);
        // The name count is bounded by the bytes left, so a hostile
        // count or length is a format error, never an allocation sized
        // by the claim.
        let names = r.list(1, Reader::string).map_err(|e| match e {
            CodecError::Utf8 => StoreError::Utf8,
            _ => StoreError::Format("name overruns file"),
        })?;
        if sealed {
            let end = r.pos().saturating_add(SEAL);
            check_seal(buf, 0, end, "registry seal mismatch")?;
            r = Reader::at(buf, end);
        }
        let n = r
            .count(4)
            .map_err(site(TRUNCATED, "trace count overruns file"))?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let id = read_trace_id(&mut r)?;
            let truncated = r
                .flag()
                .map_err(site("file ends mid-trace", "bad truncated flag"))?;
            let len = r.varint()? as usize;
            let off = r.pos();
            r.take(len)
                .map_err(|_| StoreError::Format("blob overruns file"))?;
            entries.push(IndexEntry {
                id,
                truncated,
                off,
                len,
                check: None,
            });
        }
        let hb_end = if version >= 3 {
            check_index(buf, &mut entries, r.pos(), sealed)?
        } else {
            buf.len()
        };
        let hb_end = if sealed {
            check_seal(buf, r.pos(), hb_end, "HB section seal mismatch")?
        } else {
            hb_end
        };
        let hb_section = (version >= 2).then(|| HbSection {
            at: r.pos(),
            end: hb_end,
            exact: version >= 3,
        });
        read_hb(buf, hb_section)?;
        entries.sort_by_key(|e| e.id);
        if entries.windows(2).any(|w| w[0].id == w[1].id) {
            return Err(StoreError::Format("duplicate trace id in store"));
        }
        Ok(Layout {
            registry: Arc::new(FunctionRegistry::from_names(names)),
            entries,
            hb_section,
        })
    }
}

/// Check the v3+ tail against the body: the footer's HB offset is where
/// the trace headers end, and the `DTIX` index lists exactly `entries`,
/// in order, ending at the footer. A v4 (`sealed`) index must match its
/// seal and declare at most [`DECODE_BUDGET`] symbols in all; its blob
/// checks are copied into `entries`. Returns the index offset (where
/// the HB section must end).
fn check_index(
    buf: &[u8],
    entries: &mut [IndexEntry],
    hb_at: usize,
    sealed: bool,
) -> Result<usize, StoreError> {
    let foot = buf
        .len()
        .checked_sub(16)
        .ok_or(StoreError::Format("v3 file too short for footer"))?;
    let mut r = Reader::at(buf, foot);
    let hb_off = u64::from_le_bytes(r.array()?) as usize;
    let index_off = u64::from_le_bytes(r.array()?) as usize;
    if hb_off >= foot || index_off >= foot || hb_off > index_off {
        return Err(StoreError::Format("bad v3 footer offsets"));
    }
    let end = if sealed {
        check_seal(buf, index_off, foot, "index seal mismatch")?
    } else {
        foot
    };
    let mut r = Reader::at(&buf[..end], index_off);
    if r.take(4).ok() != Some(INDEX_MAGIC.as_slice()) {
        return Err(StoreError::Format("bad index magic"));
    }
    // An entry is at least five one-byte fields, and in v4 a count
    // byte and a 16-byte digest more.
    let count = r
        .count(if sealed { 22 } else { 5 })
        .map_err(site(TRUNCATED, "index count overruns file"))?;
    let mut index = Vec::with_capacity(count);
    let mut checks = Vec::with_capacity(count);
    for _ in 0..count {
        index.push(IndexEntry {
            id: read_trace_id(&mut r)?,
            truncated: r
                .flag()
                .map_err(|_| StoreError::Format("bad truncated flag in index"))?,
            off: r.varint()? as usize,
            len: r.varint()? as usize,
            check: None,
        });
        if sealed {
            checks.push(BlobCheck {
                symbols: r.varint()?,
                digest: u128::from_le_bytes(r.array()?),
            });
        }
    }
    if index != entries || hb_off != hb_at || r.remaining() != 0 {
        return Err(StoreError::Format("index disagrees with trace headers"));
    }
    let total = checks
        .iter()
        .try_fold(0u64, |sum, c| sum.checked_add(c.symbols));
    if total.is_none_or(|t| t > DECODE_BUDGET) {
        return Err(StoreError::Format(OVER_BUDGET));
    }
    for (e, c) in entries.iter_mut().zip(checks) {
        e.check = Some(c);
    }
    Ok(index_off)
}

/// A field cut short by the end of the input.
const TRUNCATED: &str = "truncated blob";

/// More symbols than [`DECODE_BUDGET`].
const OVER_BUDGET: &str = "store declares more symbols than its decode budget";

/// Map a reader error at one site of the layout: running out of input
/// is the format error `ends`, any other defect the format error `bad`.
fn site(ends: &'static str, bad: &'static str) -> impl Fn(CodecError) -> StoreError {
    move |e| {
        StoreError::Format(if e == CodecError::Truncated {
            ends
        } else {
            bad
        })
    }
}

/// A trace id whose parts must each fit a `u32`.
fn read_trace_id(r: &mut Reader<'_>) -> Result<TraceId, StoreError> {
    r.id().map_err(site(TRUNCATED, "trace id exceeds u32"))
}

/// Write `bytes` to `path` atomically: write a uniquely-named temp file
/// in the same directory, then rename it over the destination. A crash
/// (or full disk) mid-write leaves any previous file at `path` intact
/// instead of a truncated one; the failed temp file is cleaned up.
///
/// Public so every tool output in the workspace (baseline bundles,
/// batch reports, exported CSVs, metrics files) can share the store's
/// crash-safety discipline instead of re-deriving it with bare
/// `std::fs::write`.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or(StoreError::Format("save path has no file name"))?;
    let tmp_name = format!(
        ".{name}.tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    );
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    let done = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = done {
        std::fs::remove_file(&tmp).ok();
        return Err(StoreError::Io(e));
    }
    Ok(())
}

/// Write a trace set to `path` (no happens-before section). The write
/// is atomic: an interrupted save never clobbers an existing file.
pub fn save(set: &TraceSet, path: &Path) -> Result<(), StoreError> {
    write_atomic(path, &to_bytes(set))
}

/// Write a trace set and its happens-before log to `path`, atomically.
pub fn save_full(set: &TraceSet, hb: &HbLog, path: &Path) -> Result<(), StoreError> {
    write_atomic(path, &to_bytes_full(set, Some(hb)))
}

/// An index-backed, lazily-decoded view of a `.dtts` corpus — the one
/// reader of the format.
///
/// `open` parses the layout — registry, trace headers (skipping every
/// blob), the v3+ index and footer, each v4 seal, and the
/// happens-before log, which it checks but holds only once
/// [`IndexedSet::hb`] asks for it — and stops there: no trace blob is
/// decompressed until someone asks for that
/// trace, so a single-trace query touches one trace's bytes instead of
/// the whole corpus. Decoded traces are cached interior-mutably —
/// `get` takes `&self` and is safe to call from many threads; the
/// first caller for a given trace decodes it, concurrent callers for
/// the same trace block on that decode, and everyone else proceeds
/// independently. A whole-corpus read ([`IndexedSet::full_set`])
/// decodes the blobs not yet read straight into the shared set, so
/// each trace is held once, not once per cell and again in the set.
///
/// Threads of an SPMD run often record identical streams, which the
/// writer stores as byte-equal blobs. Each distinct blob is
/// decompressed once ([`crate::first_equal`] over the blob bytes,
/// found at open): a trace whose blob equals one already decoded
/// copies that trace's events instead.
///
/// Every trace read is admitted first ([`IndexedSet::admit`]): a v4
/// blob's digest and symbol count must match its index entry, and a
/// v1–3 read takes its symbols from what is left of [`DECODE_BUDGET`].
///
/// The number of blob decodes actually performed is counted and can be
/// reported as the dt-obs `store_trace_decodes` counter via
/// [`IndexedSet::report_to`] — the observable proof that lazy decode
/// stays lazy, and that equal blobs decode once.
pub struct IndexedSet {
    buf: Vec<u8>,
    /// Shared function-name table (parsed eagerly — it is small and
    /// every consumer needs it).
    pub registry: Arc<FunctionRegistry>,
    entries: Vec<IndexEntry>,
    /// Per entry, the first entry whose blob bytes equal its own.
    first: Vec<usize>,
    hb_section: Option<HbSection>,
    /// The happens-before log, read again from `hb_section` on first
    /// access: most corpora a daemon serves are never checked.
    hb: OnceLock<HbLog>,
    /// Traces read one at a time, and every blob that failed.
    cells: Vec<OnceLock<Result<Trace, CodecError>>>,
    /// The whole corpus once read, or the index of the first blob that
    /// failed (its error is in its cell).
    full: OnceLock<Result<Arc<TraceSet>, usize>>,
    decodes: AtomicU64,
    /// Symbols a v1–3 store may still read (a v4 store's total was
    /// checked at open).
    budget: AtomicU64,
}

impl fmt::Debug for IndexedSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IndexedSet")
            .field("traces", &self.entries.len())
            .field("decoded", &self.decode_count())
            .finish()
    }
}

impl IndexedSet {
    /// Open a `.dtts` file lazily.
    pub fn open(path: &Path) -> Result<IndexedSet, StoreError> {
        IndexedSet::from_bytes(std::fs::read(path)?)
    }

    /// Build an indexed view over an in-memory `.dtts` image.
    pub fn from_bytes(buf: Vec<u8>) -> Result<IndexedSet, StoreError> {
        let Layout {
            registry,
            entries,
            hb_section,
        } = Layout::parse(&buf)?;
        let n = entries.len();
        let first = crate::first_equal(&entries, |e| &buf[e.off..e.off + e.len]);
        Ok(IndexedSet {
            buf,
            registry,
            entries,
            first,
            hb_section,
            hb: OnceLock::new(),
            cells: (0..n).map(|_| OnceLock::new()).collect(),
            full: OnceLock::new(),
            decodes: AtomicU64::new(0),
            budget: AtomicU64::new(DECODE_BUDGET),
        })
    }

    /// Number of traces in the corpus (decoded or not).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the corpus empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All trace ids, in sorted order — without decoding anything.
    pub fn ids(&self) -> Vec<TraceId> {
        self.entries.iter().map(|e| e.id).collect()
    }

    /// Does the corpus contain `id`? (No decode.)
    pub fn contains(&self, id: TraceId) -> bool {
        self.entries.binary_search_by_key(&id, |e| e.id).is_ok()
    }

    /// The happens-before log (checked at open, read on first access).
    pub fn hb(&self) -> &HbLog {
        self.hb.get_or_init(|| {
            read_hb(&self.buf, self.hb_section).expect("the section was checked at open")
        })
    }

    /// Fetch one trace, decoding it on first access unless the whole
    /// corpus has been read. Concurrent calls are safe; each blob is
    /// decompressed at most once, unless this call races the first
    /// [`IndexedSet::full_set`] for the same trace.
    pub fn get(&self, id: TraceId) -> Result<&Trace, StoreError> {
        let idx = self
            .entries
            .binary_search_by_key(&id, |e| e.id)
            .map_err(|_| StoreError::Invalid(format!("trace {id} not in store")))?;
        match self.full.get() {
            Some(Ok(full)) => Ok(full.get(id).expect("the full set holds every entry")),
            _ => self.decode(idx),
        }
    }

    fn decode(&self, idx: usize) -> Result<&Trace, StoreError> {
        self.cell(idx).as_ref().map_err(|e| e.clone().into())
    }

    /// Trace `idx`'s cell, read on first access: the first trace with
    /// its blob bytes decompresses it, and every later one copies that
    /// trace's events (reading it first if need be).
    fn cell(&self, idx: usize) -> &Result<Trace, CodecError> {
        self.cells[idx].get_or_init(|| {
            let entry = &self.entries[idx];
            match self.first[idx] {
                first if first < idx => match self.cell(first) {
                    Ok(t) => self.copy(entry, t),
                    Err(e) => Err(e.clone()),
                },
                _ => self.decompress(entry),
            }
        })
    }

    /// Admit a read of `n` symbols into `entry`'s trace: a v4 entry
    /// must hold exactly the count its index records (whose total open
    /// checked against the budget); a v1–3 read takes `n` from what is
    /// left of the store's budget.
    fn admit(&self, entry: &IndexEntry, n: u64) -> Result<(), CodecError> {
        match entry.check {
            Some(c) if c.symbols == n => Ok(()),
            Some(_) => Err(CodecError::Container(
                "blob symbol count disagrees with the index",
            )),
            None => self
                .budget
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| {
                    left.checked_sub(n)
                })
                .map(drop)
                .map_err(|_| CodecError::Container(OVER_BUDGET)),
        }
    }

    /// Decompress `entry`'s blob straight into its trace, once its
    /// digest (v4) and declared symbol count are admitted.
    fn decompress(&self, entry: &IndexEntry) -> Result<Trace, CodecError> {
        self.decodes.fetch_add(1, Ordering::Relaxed);
        let blob = &self.buf[entry.off..entry.off + entry.len];
        if entry.check.is_some_and(|c| c.digest != blob_digest(blob)) {
            return Err(CodecError::Container(
                "blob digest disagrees with the index",
            ));
        }
        let n = compress::declared_len(blob)?;
        self.admit(entry, n)?;
        let events = compress::decompress(blob, self.registry.symbol_bound(), n)?;
        Ok(entry.with_events(events))
    }

    /// `entry`'s trace as a copy of `twin`'s events (their blobs are
    /// equal), once admitted.
    fn copy(&self, entry: &IndexEntry, twin: &Trace) -> Result<Trace, CodecError> {
        self.admit(entry, twin.events.len() as u64)?;
        Ok(entry.with_events(twin.events.clone()))
    }

    /// Materialize a [`TraceSet`] holding just `ids` (sharing the
    /// corpus registry) — the unit a single-trace query analyzes.
    pub fn subset(&self, ids: &[TraceId]) -> Result<TraceSet, StoreError> {
        let mut set = TraceSet::new(self.registry.clone());
        for &id in ids {
            set.insert(self.get(id)?.clone());
        }
        Ok(set)
    }

    /// The whole corpus as a [`TraceSet`], built once and shared
    /// (`Arc`) across callers — the resident-daemon case where many
    /// full-corpus queries hit the same execution. Decodes every trace
    /// not yet read, in index order, up to the first blob that fails.
    pub fn full_set(&self) -> Result<Arc<TraceSet>, StoreError> {
        match self.full.get_or_init(|| self.read().map(Arc::new)) {
            Ok(set) => Ok(Arc::clone(set)),
            Err(idx) => Err(self
                .decode(*idx)
                .expect_err("the failed blob's error is cached")),
        }
    }

    /// Read every trace, decoding the blobs not yet read straight into
    /// the set — a blob equal to an earlier one copies that trace's
    /// events; `Err` is the first blob that fails, whose error (and
    /// every trace decoded before it) is then cached in the cells.
    fn read(&self) -> Result<TraceSet, usize> {
        let mut set = TraceSet::new(self.registry.clone());
        let mut fresh = Vec::new();
        for (idx, entry) in self.entries.iter().enumerate() {
            let twin = set.get(self.entries[self.first[idx]].id);
            let read = match (self.cells[idx].get(), twin) {
                (Some(read), _) => read.clone(),
                (None, Some(t)) => self.copy(entry, t),
                (None, None) => {
                    fresh.push(idx);
                    self.decompress(entry)
                }
            };
            match read {
                Ok(trace) => set.insert(trace),
                Err(e) => {
                    // Keep what was read, as one-at-a-time reads would.
                    for i in fresh {
                        let read = set.get(self.entries[i].id).cloned();
                        let _ = self.cells[i].set(read.ok_or_else(|| e.clone()));
                    }
                    return Err(idx);
                }
            }
        }
        Ok(set)
    }

    /// How many trace blobs have actually been decompressed so far.
    pub fn decode_count(&self) -> u64 {
        self.decodes.load(Ordering::Relaxed)
    }

    /// Report the decode tally as the `store_trace_decodes` counter —
    /// the acceptance probe that a 1-trace query on an N-trace corpus
    /// decodes exactly one blob.
    pub fn report_to(&self, rec: &dyn dt_obs::Recorder) {
        if rec.enabled() {
            rec.add("store_trace_decodes", self.decode_count());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::registry::FnId;

    fn sample_set() -> TraceSet {
        let reg = Arc::new(FunctionRegistry::new());
        let mut set = TraceSet::new(reg.clone());
        for p in 0..3u32 {
            let mut t = Trace::new(TraceId::new(p, 0));
            let main = reg.intern("main");
            let send = reg.intern("MPI_Send");
            t.push(TraceEvent::Call(main));
            for _ in 0..100 {
                t.push(TraceEvent::Call(send));
                t.push(TraceEvent::Return(send));
            }
            if p == 2 {
                t.truncated = true; // simulate a killed rank
            } else {
                t.push(TraceEvent::Return(main));
            }
            set.insert(t);
        }
        set
    }

    /// The whole corpus and HB log of an image, through the one reader.
    fn read_all(bytes: &[u8]) -> Result<(Arc<TraceSet>, HbLog), StoreError> {
        let ix = IndexedSet::from_bytes(bytes.to_vec())?;
        Ok((ix.full_set()?, ix.hb().clone()))
    }

    fn from_bytes(bytes: &[u8]) -> Result<Arc<TraceSet>, StoreError> {
        read_all(bytes).map(|(set, _)| set)
    }

    #[test]
    fn byte_round_trip() {
        let set = sample_set();
        let bytes = to_bytes(&set);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), set.len());
        assert_eq!(back.registry.names(), set.registry.names());
        for t in set.iter() {
            let bt = back.get(t.id).unwrap();
            assert_eq!(bt.events, t.events);
            assert_eq!(bt.truncated, t.truncated);
        }
    }

    #[test]
    fn file_round_trip() {
        let set = sample_set();
        let dir = std::env::temp_dir().join("dt_trace_store_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("exec.dtts");
        save(&set, &path).unwrap();
        let back = IndexedSet::open(&path).unwrap().full_set().unwrap();
        assert_eq!(back.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hb_section_round_trips() {
        use crate::hb::{BlockedOp, HbOp, VectorClock};
        let set = sample_set();
        let mut hb = HbLog::new(3);
        let mut vc = VectorClock::zero(3);
        // A snapshot, then delta records on every component (a flipped
        // component or snapshot length must not index past the clock).
        for c in [0, 1, 2, 0, 2] {
            vc.tick(c);
            hb.push(TraceId::master(0), "MPI_Send", HbOp::Local, &vc);
        }
        hb.blocked.push(BlockedOp {
            rank: 1,
            name: "MPI_Recv".to_string(),
            op: HbOp::Recv {
                src: Some(0),
                tag: 3,
            },
        });
        let bytes = to_bytes_full(&set, Some(&hb));
        let (back_set, back_hb) = read_all(&bytes).unwrap();
        assert_eq!(back_set.len(), set.len());
        assert_eq!(back_hb.events(), hb.events());
        assert_eq!(back_hb.blocked, hb.blocked);
        // Plain to_bytes still works and marks the section absent.
        let (_, empty_hb) = read_all(&to_bytes(&set)).unwrap();
        assert!(empty_hb.is_empty());
        // So do the unsealed versions.
        for version in 2..=3 {
            let (_, back_hb) = read_all(&legacy_image(&set, Some(&hb), version)).unwrap();
            assert_eq!(back_hb.events(), hb.events(), "v{version}");
        }
    }

    /// `set` and `hb` written in the unsealed layout of `version` 1, 2
    /// or 3: the v4 writer without seals, blob checks or (below v3) the
    /// tail, and without an HB section in v1.
    fn legacy_image(set: &TraceSet, hb: Option<&HbLog>, version: u8) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.push(version);
        let names = set.registry.names();
        write_varint(&mut out, names.len() as u64);
        for n in &names {
            write_varint(&mut out, n.len() as u64);
            out.extend_from_slice(n.as_bytes());
        }
        write_varint(&mut out, set.len() as u64);
        let mut index = INDEX_MAGIC.to_vec();
        write_varint(&mut index, set.len() as u64);
        for t in set.iter() {
            let blob = compress::compress(&t.events);
            for part in [&mut out, &mut index] {
                write_varint(part, u64::from(t.id.process));
                write_varint(part, u64::from(t.id.thread));
                part.push(u8::from(t.truncated));
            }
            write_varint(&mut out, blob.len() as u64);
            write_varint(&mut index, out.len() as u64);
            write_varint(&mut index, blob.len() as u64);
            out.extend_from_slice(&blob);
        }
        let hb_off = out.len() as u64;
        if version >= 2 {
            out.push(u8::from(hb.is_some()));
            if let Some(hb) = hb {
                hb.write_to(&mut out);
            }
        }
        if version >= 3 {
            let index_off = out.len() as u64;
            out.extend_from_slice(&index);
            out.extend_from_slice(&hb_off.to_le_bytes());
            out.extend_from_slice(&index_off.to_le_bytes());
        }
        out
    }

    #[test]
    fn v1_files_still_load_with_empty_hb() {
        let bytes = legacy_image(&sample_set(), None, 1);
        let (set, hb) = read_all(&bytes).unwrap();
        assert_eq!(set.len(), 3);
        assert!(hb.is_empty());
    }

    #[test]
    fn v2_files_still_load() {
        let bytes = legacy_image(&sample_set(), None, 2);
        let set = from_bytes(&bytes).unwrap();
        assert_eq!(set.len(), 3);
    }

    /// A hand-built image of empty traces with raw (process, thread)
    /// varints: a v1 body, or (for `version` 3) the body plus an empty
    /// HB section, the index and the footer.
    fn crafted_image(version: u8, ids: &[(u64, u64)]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.push(version);
        write_varint(&mut out, 0); // no names
        write_varint(&mut out, ids.len() as u64);
        let blob = compress::compress(&[]);
        let mut offs = Vec::new();
        for &(p, t) in ids {
            write_varint(&mut out, p);
            write_varint(&mut out, t);
            out.push(0);
            write_varint(&mut out, blob.len() as u64);
            offs.push(out.len() as u64);
            out.extend_from_slice(&blob);
        }
        if version == 3 {
            let hb_off = out.len() as u64;
            out.push(0);
            let index_off = out.len() as u64;
            out.extend_from_slice(INDEX_MAGIC);
            write_varint(&mut out, ids.len() as u64);
            for (&(p, t), &off) in ids.iter().zip(&offs) {
                write_varint(&mut out, p);
                write_varint(&mut out, t);
                out.push(0);
                write_varint(&mut out, off);
                write_varint(&mut out, blob.len() as u64);
            }
            out.extend_from_slice(&hb_off.to_le_bytes());
            out.extend_from_slice(&index_off.to_le_bytes());
        }
        out
    }

    #[test]
    fn over_wide_and_duplicate_trace_ids_are_format_errors() {
        let wide = (1u64 << 32) + 1;
        let cases: [(&[(u64, u64)], &str); 4] = [
            (&[(1, 0), (wide, 0)], "trace id exceeds u32"),
            (&[(1, 0), (2, wide)], "trace id exceeds u32"),
            (&[(wide, 0)], "trace id exceeds u32"),
            (&[(1, 0), (1, 0)], "duplicate trace id in store"),
        ];
        for (ids, want) in cases {
            for version in [1, 3] {
                let bytes = crafted_image(version, ids);
                let got = IndexedSet::from_bytes(bytes).map(|s| s.len());
                assert!(
                    matches!(got, Err(StoreError::Format(m)) if m == want),
                    "v{version} {ids:?}: {got:?}"
                );
            }
        }
        // The same images with in-range, distinct ids load.
        for version in [1, 3] {
            let bytes = crafted_image(version, &[(1, 0), (2, 0)]);
            assert_eq!(from_bytes(&bytes).unwrap().len(), 2);
        }
    }

    /// Every prefix and every single-byte flip (two masks) of a v1, v2
    /// and v3 image with an HB section is read without a panic. (v4
    /// images get the stronger scan of `crates/difftrace/tests/
    /// store_scan.rs`: each variant is diagnosed or changes nothing.)
    #[test]
    fn unsealed_images_never_panic_on_any_mutation() {
        use crate::hb::{BlockedOp, HbOp, VectorClock};
        let mut hb = HbLog::new(3);
        let mut vc = VectorClock::zero(3);
        // A snapshot, then delta records on every component (a flipped
        // component or snapshot length must not index past the clock).
        for c in [0, 1, 2, 0, 2] {
            vc.tick(c);
            hb.push(TraceId::master(0), "MPI_Send", HbOp::Local, &vc);
        }
        hb.blocked.push(BlockedOp {
            rank: 1,
            name: "MPI_Recv".to_string(),
            op: HbOp::Recv { src: None, tag: 3 },
        });
        hb.finished = vec![0, 2];
        for version in 1..=3 {
            let image = legacy_image(&sample_set(), Some(&hb), version);
            assert!(read_all(&image).is_ok(), "v{version} intact");
            let prefixes = (0..image.len()).map(|cut| image[..cut].to_vec());
            let flips = (0..image.len()).flat_map(|i| {
                [0x01u8, 0x80].map(|mask| {
                    let mut flipped = image.clone();
                    flipped[i] ^= mask;
                    flipped
                })
            });
            for (n, bytes) in prefixes.chain(flips).enumerate() {
                let read = std::panic::catch_unwind(|| read_all(&bytes).map(drop));
                assert!(read.is_ok(), "v{version} variant {n}: panic");
            }
        }
    }

    /// A save interrupted mid-write (simulated here by the truncated
    /// temp file a crashed writer leaves behind) must never clobber the
    /// previously saved file: data only reaches `path` via rename.
    #[test]
    fn interrupted_save_leaves_previous_file_loadable() {
        let set = sample_set();
        let dir = std::env::temp_dir().join("dt_trace_store_atomic");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("exec.dtts");
        save(&set, &path).unwrap();

        // Crashed writer: a partial (truncated) image parked under the
        // temp-file naming scheme, never renamed into place.
        let mut partial = to_bytes(&set);
        partial.truncate(partial.len() / 2);
        std::fs::write(dir.join(".exec.dtts.tmp.99999.0"), &partial).unwrap();

        // The real file is untouched and fully loadable.
        let back = IndexedSet::open(&path).unwrap().full_set().unwrap();
        assert_eq!(back.len(), set.len());

        // A subsequent save still works and leaves no temp files of its
        // own behind (only the planted crash artifact remains).
        save(&set, &path).unwrap();
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp.") && n != ".exec.dtts.tmp.99999.0")
            .collect();
        assert!(leftovers.is_empty(), "stray temps: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A failed atomic write (rename cannot land because a directory
    /// squats on the destination) reports the error and cleans up its
    /// temp file rather than leaving junk next to the data.
    #[test]
    fn failed_save_cleans_up_temp_file() {
        let set = sample_set();
        let dir = std::env::temp_dir().join("dt_trace_store_atomic_fail");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blocked.dtts");
        std::fs::create_dir_all(&path).unwrap(); // rename target is a dir
        assert!(save(&set, &path).is_err());
        let temps = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .count();
        assert_eq!(temps, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A trace that calls a function its registry lacks: the registry
    /// holds only `main`, the trace also calls `FnId(7)`.
    fn out_of_registry_set() -> TraceSet {
        let reg = Arc::new(FunctionRegistry::new());
        let main = reg.intern("main");
        let mut t = Trace::new(TraceId::new(0, 0));
        for e in [
            TraceEvent::Call(main),
            TraceEvent::Call(FnId(7)),
            TraceEvent::Return(FnId(7)),
            TraceEvent::Return(main),
        ] {
            t.push(e);
        }
        let mut set = TraceSet::new(reg);
        set.insert(t);
        set
    }

    fn is_out_of_registry(err: &StoreError) -> bool {
        matches!(
            err,
            StoreError::Codec(CodecError::Corrupt("symbol outside the function registry"))
        )
    }

    /// The reader diagnoses a symbol outside the registry when it
    /// decodes the blob, so no consumer ever looks the function up.
    #[test]
    fn symbols_outside_the_registry_are_format_errors() {
        let set = out_of_registry_set();
        for bytes in [to_bytes(&set), legacy_image(&set, None, 3)] {
            // Opening decodes nothing, so it succeeds; every read fails.
            let ix = IndexedSet::from_bytes(bytes).unwrap();
            let err = ix.get(TraceId::new(0, 0)).unwrap_err();
            assert!(is_out_of_registry(&err), "{err:?}");
            let err = ix.full_set().unwrap_err();
            assert!(is_out_of_registry(&err), "{err:?}");
            assert_eq!(ix.decode_count(), 1);
        }
    }

    #[test]
    fn rejects_corrupt_files() {
        assert!(from_bytes(b"").is_err());
        assert!(from_bytes(b"XXXX\x01").is_err());
        assert!(from_bytes(b"DTTS\x07").is_err());
        let mut good = to_bytes(&sample_set());
        good.truncate(good.len() / 2);
        assert!(from_bytes(&good).is_err());
    }

    /// Readers from before the v4 bump reject v4 images with a
    /// diagnosed error — simulated here by the v3-era version check.
    #[test]
    fn old_readers_diagnose_v4_files() {
        let bytes = to_bytes(&sample_set());
        assert_eq!(bytes[4], 4);
        // A v3-era reader accepted only versions 1 to 3.
        let v3_era_accepts = |v: u8| (1..=3).contains(&v);
        assert!(!v3_era_accepts(bytes[4]));
        // And today's reader still diagnoses *future* versions.
        let mut future = bytes;
        future[4] = VERSION + 1;
        let err = from_bytes(&future).unwrap_err();
        assert!(
            matches!(err, StoreError::Format("unsupported DTTS version")),
            "{err:?}"
        );
    }

    #[test]
    fn indexed_open_decodes_nothing() {
        let set = sample_set();
        let ix = IndexedSet::from_bytes(to_bytes(&set)).unwrap();
        assert_eq!(ix.len(), 3);
        assert_eq!(ix.ids(), set.ids());
        assert_eq!(ix.registry.names(), set.registry.names());
        assert_eq!(ix.decode_count(), 0);
    }

    #[test]
    fn indexed_single_get_decodes_exactly_one() {
        let set = sample_set();
        let ix = IndexedSet::from_bytes(to_bytes(&set)).unwrap();
        let id = TraceId::new(1, 0);
        let t = ix.get(id).unwrap();
        assert_eq!(t.events, set.get(id).unwrap().events);
        assert_eq!(ix.decode_count(), 1);
        // Repeated access hits the cache — no second decode.
        ix.get(id).unwrap();
        assert_eq!(ix.decode_count(), 1);
        // An unknown id is a diagnosed error, not a panic.
        assert!(ix.get(TraceId::new(9, 9)).is_err());
        assert_eq!(ix.decode_count(), 1);
    }

    #[test]
    fn indexed_subset_and_full_set_match_the_written_set() {
        let set = sample_set();
        let ix = IndexedSet::from_bytes(to_bytes(&set)).unwrap();
        let sub = ix.subset(&[TraceId::new(2, 0)]).unwrap();
        assert_eq!(sub.len(), 1);
        assert!(sub.get(TraceId::new(2, 0)).unwrap().truncated);
        let full = ix.full_set().unwrap();
        assert_eq!(full.len(), set.len());
        for t in set.iter() {
            assert_eq!(full.get(t.id).unwrap(), t);
        }
        // Traces 0.0 and 1.0 store equal blobs: two distinct decodes.
        assert_eq!(ix.decode_count(), 2);
        // The full set is built once and shared.
        assert!(Arc::ptr_eq(&full, &ix.full_set().unwrap()));
    }

    /// Each distinct blob is decoded once and each trace held once,
    /// whichever read comes first; a failed whole-corpus read keeps the
    /// traces before the bad blob. (Traces 0.0 and 1.0 store equal
    /// blobs, so the sample has two distinct blobs.)
    #[test]
    fn full_set_and_gets_decode_each_blob_once() {
        let set = sample_set();
        let bytes = to_bytes(&set);
        let ix = IndexedSet::from_bytes(bytes.clone()).unwrap();
        let full = ix.full_set().unwrap();
        for id in ix.ids() {
            // Held once: a get after the whole-corpus read is the set's.
            assert!(std::ptr::eq(ix.get(id).unwrap(), full.get(id).unwrap()));
        }
        ix.subset(&ix.ids()).unwrap();
        assert_eq!(ix.decode_count(), 2);

        // Break the last trace's blob magic.
        let mut bad = bytes.clone();
        let last = bad.windows(4).rposition(|w| w == b"DTLZ").unwrap();
        bad[last] ^= 0xff;
        let ix = IndexedSet::from_bytes(bad).unwrap();
        let err = ix.full_set().unwrap_err().to_string();
        assert!(
            err.contains("blob digest disagrees with the index"),
            "{err}"
        );
        assert_eq!(ix.decode_count(), 2);
        ix.get(TraceId::new(0, 0)).unwrap();
        ix.get(TraceId::new(1, 0)).unwrap();
        assert!(ix.get(TraceId::new(2, 0)).is_err());
        assert_eq!(ix.full_set().unwrap_err().to_string(), err);
        assert_eq!(ix.decode_count(), 2);
    }

    /// A trace whose blob equals an earlier trace's copies that trace's
    /// events: one decode for the two, whichever is read first.
    #[test]
    fn equal_blobs_decode_once() {
        let set = sample_set();
        let ix = IndexedSet::from_bytes(to_bytes(&set)).unwrap();
        let twin = ix.get(TraceId::new(1, 0)).unwrap();
        assert_eq!(twin, set.get(TraceId::new(1, 0)).unwrap());
        assert_eq!(ix.decode_count(), 1);
        let first = ix.get(TraceId::new(0, 0)).unwrap();
        assert_eq!(first, set.get(TraceId::new(0, 0)).unwrap());
        assert_eq!(ix.decode_count(), 1);
        ix.get(TraceId::new(2, 0)).unwrap();
        assert_eq!(ix.decode_count(), 2);
    }

    #[test]
    fn indexed_open_reads_v1_and_v2_files_via_header_scan() {
        let set = sample_set();
        let v2 = legacy_image(&set, None, 2);
        let ix = IndexedSet::from_bytes(v2).unwrap();
        assert_eq!(ix.decode_count(), 0);
        assert_eq!(ix.full_set().unwrap().len(), set.len());

        let v1 = legacy_image(&set, None, 1);
        let ix = IndexedSet::from_bytes(v1).unwrap();
        assert_eq!(ix.len(), 3);
        assert!(ix.hb().is_empty());
        assert_eq!(
            ix.get(TraceId::new(0, 0)).unwrap().events,
            set.get(TraceId::new(0, 0)).unwrap().events
        );
    }

    /// Open checks the happens-before section, so a bad one is an open
    /// error; the log itself is read when first asked for.
    #[test]
    fn indexed_hb_section_checked_at_open_and_read_on_access() {
        use crate::hb::{HbOp, VectorClock};
        let set = sample_set();
        let mut hb = HbLog::new(3);
        let mut vc = VectorClock::zero(3);
        vc.tick(0);
        hb.push(TraceId::master(0), "MPI_Send", HbOp::Local, &vc);
        let bytes = to_bytes_full(&set, Some(&hb));
        let ix = IndexedSet::from_bytes(bytes.clone()).unwrap();
        assert_eq!(ix.hb().events(), hb.events());
        assert_eq!(ix.decode_count(), 0);

        let foot = bytes.len() - 16;
        let hb_off = u64::from_le_bytes(bytes[foot..foot + 8].try_into().unwrap()) as usize;
        let mut bad = bytes;
        bad[hb_off] = 2; // neither "absent" nor "present"
        let err = IndexedSet::from_bytes(bad.clone()).unwrap_err().to_string();
        assert!(err.contains("HB section seal mismatch"), "{err}");
        // Unsealed, the same defect is the parser's.
        let mut v3 = legacy_image(&set, Some(&hb), 3);
        let foot = v3.len() - 16;
        let hb_off = u64::from_le_bytes(v3[foot..foot + 8].try_into().unwrap()) as usize;
        v3[hb_off] = 2;
        let err = IndexedSet::from_bytes(v3).unwrap_err().to_string();
        assert!(err.contains("bad HB-presence flag"), "{err}");
    }

    #[test]
    fn indexed_rejects_corrupt_tails() {
        let bytes = to_bytes(&sample_set());
        // Truncated footer.
        let mut cut = bytes.clone();
        cut.truncate(cut.len() - 8);
        assert!(IndexedSet::from_bytes(cut).is_err());
        // Footer pointing past the file.
        let mut wild = bytes.clone();
        let n = wild.len();
        wild[n - 8..].copy_from_slice(&(u64::MAX).to_le_bytes());
        assert!(IndexedSet::from_bytes(wild).is_err());
        // Corrupt blob: surfaces at decode time, as a diagnosed error,
        // in a sealed and in an unsealed image.
        for bytes in [bytes, legacy_image(&sample_set(), None, 3)] {
            let foot = bytes.len() - 16;
            let hb_off = u64::from_le_bytes(bytes[foot..foot + 8].try_into().unwrap()) as usize;
            let mut torn = bytes;
            for b in &mut torn[hb_off - 4..hb_off] {
                *b = 0xFF;
            }
            let ix = IndexedSet::from_bytes(torn).unwrap();
            let last = *ix.ids().last().unwrap();
            assert!(ix.get(last).is_err());
        }
    }

    #[test]
    fn indexed_concurrent_gets_decode_each_blob_once() {
        let set = sample_set();
        let ix = IndexedSet::from_bytes(to_bytes(&set)).unwrap();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for id in ix.ids() {
                        ix.get(id).unwrap();
                    }
                });
            }
        });
        // One decode per distinct blob (0.0 and 1.0 store equal ones).
        assert_eq!(ix.decode_count(), 2);
    }

    #[test]
    fn indexed_reports_decode_counter() {
        let rec = dt_obs::MetricsRecorder::new();
        let ix = IndexedSet::from_bytes(to_bytes(&sample_set())).unwrap();
        ix.get(TraceId::new(0, 0)).unwrap();
        ix.report_to(&rec);
        let m = rec.finish("test", 1);
        let n = m
            .counters
            .iter()
            .find(|(name, _)| name == "store_trace_decodes")
            .map(|(_, v)| *v);
        assert_eq!(n, Some(1));
    }

    /// The index offset of a v3+ image, from its footer.
    fn index_off(bytes: &[u8]) -> usize {
        u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap()) as usize
    }

    /// Each v4 section is sealed: a flipped byte in the registry, the
    /// HB section or the index fails open, naming the section.
    #[test]
    fn v4_sections_are_sealed() {
        use crate::hb::{HbOp, VectorClock};
        let mut hb = HbLog::new(1);
        let mut vc = VectorClock::zero(1);
        vc.tick(0);
        hb.push(TraceId::master(0), "MPI_Send", HbOp::Local, &vc);
        let bytes = to_bytes_full(&sample_set(), Some(&hb));
        let foot = bytes.len() - 16;
        let hb_off = u64::from_le_bytes(bytes[foot..foot + 8].try_into().unwrap()) as usize;
        for (at, want) in [
            (7, "registry seal mismatch"),
            (hb_off + 1, "HB section seal mismatch"),
            (index_off(&bytes) + 5, "index seal mismatch"),
        ] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01; // still a valid name byte, flag or varint
            let err = IndexedSet::from_bytes(bad).unwrap_err().to_string();
            assert!(err.contains(want), "byte {at}: {err}");
        }
    }

    /// The v4 image of `set` with its index rewritten by `edit`
    /// (given each entry's symbol count and digest) and resealed.
    fn with_checks(set: &TraceSet, edit: impl Fn(&mut [BlobCheck])) -> Vec<u8> {
        let mut bytes = to_bytes(set);
        let ix = IndexedSet::from_bytes(bytes.clone()).unwrap();
        let mut checks: Vec<BlobCheck> = ix.entries.iter().map(|e| e.check.unwrap()).collect();
        edit(&mut checks);
        let off = index_off(&bytes);
        let footer = bytes.split_off(bytes.len() - 16);
        bytes.truncate(off);
        let mut index = INDEX_MAGIC.to_vec();
        write_varint(&mut index, checks.len() as u64);
        for (e, c) in ix.entries.iter().zip(&checks) {
            write_varint(&mut index, u64::from(e.id.process));
            write_varint(&mut index, u64::from(e.id.thread));
            index.push(u8::from(e.truncated));
            write_varint(&mut index, e.off as u64);
            write_varint(&mut index, e.len as u64);
            write_varint(&mut index, c.symbols);
            index.extend_from_slice(&c.digest.to_le_bytes());
        }
        bytes.extend_from_slice(&codec::seal(index));
        bytes.extend_from_slice(&footer);
        bytes
    }

    /// A v4 blob is checked against its index entry when it is read:
    /// its digest and symbol count, for a decode and for a copy of an
    /// equal blob alike. A total over the budget fails open.
    #[test]
    fn v4_blobs_are_checked_against_the_index_when_read() {
        let set = sample_set();
        assert!(from_bytes(&with_checks(&set, |_| {})).is_ok());
        type Edit = fn(&mut [BlobCheck]);
        let cases: [(Edit, TraceId, &str); 3] = [
            (
                |c| c[0].digest ^= 1,
                TraceId::new(0, 0),
                "blob digest disagrees with the index",
            ),
            (
                |c| c[2].symbols += 1,
                TraceId::new(2, 0),
                "blob symbol count disagrees with the index",
            ),
            // Trace 1.0's blob equals trace 0.0's: it is copied.
            (
                |c| c[1].symbols -= 1,
                TraceId::new(1, 0),
                "blob symbol count disagrees with the index",
            ),
        ];
        for (edit, id, want) in cases {
            let bytes = with_checks(&set, edit);
            let ix = IndexedSet::from_bytes(bytes.clone()).unwrap();
            assert_eq!(ix.decode_count(), 0);
            let err = ix.get(id).unwrap_err().to_string();
            assert!(err.contains(want), "{id}: {err}");
            let err = from_bytes(&bytes).unwrap_err().to_string();
            assert!(err.contains(want), "{id}: {err}");
        }
        let err = IndexedSet::from_bytes(with_checks(&set, |c| c[0].symbols = DECODE_BUDGET))
            .unwrap_err();
        assert!(matches!(err, StoreError::Format(OVER_BUDGET)), "{err:?}");
    }

    /// A v1–3 store's reads, decodes and copies alike, take their
    /// symbols from one budget: a store whose traces hold more than it
    /// fails at the trace that would overdraw it.
    #[test]
    fn v3_reads_draw_on_one_budget() {
        let bytes = legacy_image(&sample_set(), None, 3);
        let ix = IndexedSet::from_bytes(bytes.clone()).unwrap();
        ix.full_set().unwrap();
        // 201 + 201 + 201 symbols: the second trace (a copy) overdraws.
        let ix = IndexedSet::from_bytes(bytes).unwrap();
        ix.budget.store(201 + 200, Ordering::Relaxed);
        ix.get(TraceId::new(0, 0)).unwrap();
        let err = ix.get(TraceId::new(1, 0)).unwrap_err();
        assert!(matches!(err, StoreError::Format(OVER_BUDGET)), "{err:?}");
    }
}
