//! On-disk trace-set format (ParLOT's trace files).
//!
//! One execution serialises to a single self-describing binary file:
//!
//! ```text
//! "DTTS" ∥ version:u8
//! registry: varint count ∥ (varint len ∥ utf8 bytes)*
//! traces:   varint count ∥ (process:varint ∥ thread:varint ∥
//!                           truncated:u8 ∥ varint blob_len ∥ blob)*
//! hb:       (v2+) present:u8 ∥ HbLog section (see [`crate::hb`])
//! index:    (v3+) "DTIX" ∥ varint count ∥
//!                 (process ∥ thread ∥ truncated:u8 ∥
//!                  blob_off:varint ∥ blob_len:varint)*
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
//! Earlier-version files still load — v1 files simply carry an empty
//! [`HbLog`]. Readers predating v3 diagnose v3 files as `unsupported
//! DTTS version` rather than misparsing the tail.
//!
//! Both readers — the eager [`from_bytes_full`] and the lazy
//! [`IndexedSet`] — share one layout parser, so they accept and reject
//! exactly the same images: it reads the trace headers of every
//! version (skipping the blobs), and checks a v3 index and footer
//! against them. Fields are read through [`crate::codec::Reader`].

use crate::codec::{write_varint, CodecError, Reader};
use crate::compress;
use crate::hb::HbLog;
use crate::registry::FunctionRegistry;
use crate::trace::{Trace, TraceId, TraceSet};
use std::fmt;
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"DTTS";
const INDEX_MAGIC: &[u8; 4] = b"DTIX";

/// Current `.dtts` container version. Bumped to 3 when the per-trace
/// offset index + footer were appended for [`IndexedSet`]; readers
/// older than the bump reject newer files with a diagnosed
/// `unsupported DTTS version` error instead of misparsing them.
pub const STORE_FORMAT_VERSION: u8 = 3;
const VERSION: u8 = STORE_FORMAT_VERSION;

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
    /// (e.g. *which* trace stem collides).
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
/// v2 file whose HB section is marked absent.
pub fn to_bytes_full(set: &TraceSet, hb: Option<&HbLog>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);

    let names = set.registry.names();
    write_varint(&mut out, names.len() as u64);
    for n in &names {
        write_varint(&mut out, n.len() as u64);
        out.extend_from_slice(n.as_bytes());
    }

    write_varint(&mut out, set.len() as u64);
    // (id, truncated, blob_off, blob_len) per trace, for the v3 index.
    let mut index = Vec::with_capacity(set.len());
    for t in set.iter() {
        write_varint(&mut out, u64::from(t.id.process));
        write_varint(&mut out, u64::from(t.id.thread));
        out.push(u8::from(t.truncated));
        let blob = compress::compress(&t.events);
        write_varint(&mut out, blob.len() as u64);
        index.push((t.id, t.truncated, out.len() as u64, blob.len() as u64));
        out.extend_from_slice(&blob);
    }
    let hb_off = out.len() as u64;
    match hb {
        Some(hb) => {
            out.push(1);
            hb.write_to(&mut out);
        }
        None => out.push(0),
    }
    let index_off = out.len() as u64;
    out.extend_from_slice(INDEX_MAGIC);
    write_varint(&mut out, index.len() as u64);
    for (id, truncated, blob_off, blob_len) in index {
        write_varint(&mut out, u64::from(id.process));
        write_varint(&mut out, u64::from(id.thread));
        out.push(u8::from(truncated));
        write_varint(&mut out, blob_off);
        write_varint(&mut out, blob_len);
    }
    out.extend_from_slice(&hb_off.to_le_bytes());
    out.extend_from_slice(&index_off.to_le_bytes());
    out
}

/// Deserialise a trace set from bytes, discarding any HB section.
pub fn from_bytes(buf: &[u8]) -> Result<TraceSet, StoreError> {
    from_bytes_full(buf).map(|(set, _)| set)
}

/// Deserialise a trace set and its happens-before log. V1 files (and
/// v2 files saved without one) yield an empty log.
pub fn from_bytes_full(buf: &[u8]) -> Result<(TraceSet, HbLog), StoreError> {
    let layout = Layout::parse(buf)?;
    let bound = layout.registry.symbol_bound();
    let entries = &layout.entries;
    let first = crate::first_equal(entries, |e| &buf[e.off..e.off + e.len]);
    let mut set = TraceSet::new(layout.registry);
    for (i, e) in entries.iter().enumerate() {
        // A blob equal to an earlier one copies that trace's events.
        let trace = match set.get(entries[first[i]].id) {
            Some(twin) => e.with_events(twin.events.clone()),
            None => e.decode(buf, bound)?,
        };
        set.insert(trace);
    }
    Ok((set, layout.hb))
}

/// One trace's header: its id, truncation flag and where its blob sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IndexEntry {
    id: TraceId,
    truncated: bool,
    off: usize,
    len: usize,
}

impl IndexEntry {
    /// Decompress this trace's blob straight into its [`Trace`]; every
    /// symbol must be below `bound` (the registry's symbol bound).
    fn decode(&self, buf: &[u8], bound: u64) -> Result<Trace, CodecError> {
        let events = compress::decompress(&buf[self.off..self.off + self.len], bound)?;
        Ok(self.with_events(events))
    }

    /// This trace holding `events`.
    fn with_events(&self, events: Vec<u32>) -> Trace {
        Trace {
            id: self.id,
            events,
            truncated: self.truncated,
        }
    }
}

/// A `.dtts` image parsed up to its blobs — everything both readers
/// need before decoding a trace.
struct Layout {
    registry: Arc<FunctionRegistry>,
    /// Sorted by id, no duplicates, every blob inside the image.
    entries: Vec<IndexEntry>,
    hb: HbLog,
    hb_section: Option<HbSection>,
}

/// Where a v2+ image's happens-before section lies: from `at` to `end`,
/// where a v3 image's index (`exact`) must follow it.
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

impl Layout {
    /// Parse magic and version, the registry, every trace header
    /// (skipping the blobs), the v3 index and footer — which must agree
    /// with the headers — and the HB section.
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
        let mut r = Reader::at(buf, 5);
        let names = read_names(&mut r, "name overruns file")?;
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
            });
        }
        let hb_end = if version >= 3 {
            check_index(buf, &entries, r.pos())?
        } else {
            buf.len()
        };
        let hb_section = (version >= 2).then(|| HbSection {
            at: r.pos(),
            end: hb_end,
            exact: version >= 3,
        });
        let hb = read_hb(buf, hb_section)?;
        entries.sort_by_key(|e| e.id);
        if entries.windows(2).any(|w| w[0].id == w[1].id) {
            return Err(StoreError::Format("duplicate trace id in store"));
        }
        Ok(Layout {
            registry: Arc::new(FunctionRegistry::from_names(names)),
            entries,
            hb,
            hb_section,
        })
    }
}

/// Check the v3 tail against the body: the footer's HB offset is where
/// the trace headers end, and the `DTIX` index lists exactly `entries`,
/// in order, ending at the footer. Returns the index offset (where the
/// HB section must end).
fn check_index(buf: &[u8], entries: &[IndexEntry], hb_at: usize) -> Result<usize, StoreError> {
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
    let mut r = Reader::at(&buf[..foot], index_off);
    if r.take(4).ok() != Some(INDEX_MAGIC.as_slice()) {
        return Err(StoreError::Format("bad index magic"));
    }
    let count = r
        .count(5)
        .map_err(site(TRUNCATED, "index count overruns file"))?;
    let mut index = Vec::with_capacity(count);
    for _ in 0..count {
        index.push(IndexEntry {
            id: read_trace_id(&mut r)?,
            truncated: r
                .flag()
                .map_err(|_| StoreError::Format("bad truncated flag in index"))?,
            off: r.varint()? as usize,
            len: r.varint()? as usize,
        });
    }
    if index != entries || hb_off != hb_at || r.remaining() != 0 {
        return Err(StoreError::Format("index disagrees with trace headers"));
    }
    Ok(index_off)
}

/// A field cut short by the end of the input.
const TRUNCATED: &str = "truncated blob";

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

/// A name table: a count, then that many length-prefixed UTF-8
/// strings. The count is bounded by the bytes left, so a hostile count
/// or length is a format error, never an allocation sized by the claim.
fn read_names(r: &mut Reader<'_>, overrun: &'static str) -> Result<Vec<String>, StoreError> {
    r.list(1, Reader::string).map_err(|e| match e {
        CodecError::Utf8 => StoreError::Utf8,
        _ => StoreError::Format(overrun),
    })
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
    use std::sync::atomic::{AtomicU64, Ordering};
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

/// Read a trace set from `path`.
pub fn load(path: &Path) -> Result<TraceSet, StoreError> {
    let buf = std::fs::read(path)?;
    from_bytes(&buf)
}

/// Read a trace set and its happens-before log from `path` (empty log
/// for files saved without one).
pub fn load_full(path: &Path) -> Result<(TraceSet, HbLog), StoreError> {
    let buf = std::fs::read(path)?;
    from_bytes_full(&buf)
}

const THREAD_MAGIC: &[u8; 4] = b"DTT1";
const REGISTRY_FILE: &str = "functions.dtfn";

/// Write a trace set as a directory — ParLOT's actual on-disk layout:
/// one compressed file per thread (`<process>.<thread>.dtt`) plus a
/// shared function-name table.
pub fn save_dir(set: &TraceSet, dir: &Path) -> Result<(), StoreError> {
    std::fs::create_dir_all(dir)?;
    // Name table.
    let mut reg = Vec::new();
    let names = set.registry.names();
    write_varint(&mut reg, names.len() as u64);
    for n in &names {
        write_varint(&mut reg, n.len() as u64);
        reg.extend_from_slice(n.as_bytes());
    }
    write_atomic(&dir.join(REGISTRY_FILE), &reg)?;
    // Per-thread files.
    for t in set.iter() {
        let mut buf = Vec::new();
        buf.extend_from_slice(THREAD_MAGIC);
        buf.push(u8::from(t.truncated));
        buf.extend_from_slice(&compress::compress(&t.events));
        write_atomic(
            &dir.join(format!("{}.{}.dtt", t.id.process, t.id.thread)),
            &buf,
        )?;
    }
    Ok(())
}

/// Read a trace set back from a [`save_dir`] directory.
pub fn load_dir(dir: &Path) -> Result<TraceSet, StoreError> {
    let reg_buf = std::fs::read(dir.join(REGISTRY_FILE))?;
    let names = read_names(&mut Reader::new(&reg_buf), "name overruns registry file")?;
    let registry = Arc::new(FunctionRegistry::from_names(names));
    let bound = registry.symbol_bound();
    let mut set = TraceSet::new(registry);

    // Collect and sort trace files by name before insertion:
    // `read_dir` order is OS-dependent, and error reporting (which
    // file failed, which stems collide) must not depend on it.
    let mut files: Vec<(String, std::path::PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else {
            // A `.dtt` file we cannot decode is a trace we would
            // silently drop — fail loudly instead of analyzing a
            // partial run. Other undecodable names are none of ours.
            if name.as_encoded_bytes().ends_with(b".dtt") {
                return Err(StoreError::Format("undecodable trace file name"));
            }
            continue;
        };
        if name.ends_with(".dtt") {
            files.push((name.to_string(), entry.path()));
        }
    }
    files.sort();

    for (name, path) in files {
        let stem = name.strip_suffix(".dtt").expect("collected above");
        let Some((p, t)) = stem.split_once('.') else {
            return Err(StoreError::Format("trace file name is not <p>.<t>.dtt"));
        };
        let (process, thread) = (
            p.parse::<u32>()
                .map_err(|_| StoreError::Format("bad process id in file name"))?,
            t.parse::<u32>()
                .map_err(|_| StoreError::Format("bad thread id in file name"))?,
        );
        let id = TraceId::new(process, thread);
        if set.get(id).is_some() {
            // Two stems parsing to the same trace id (e.g. "01.2.dtt"
            // vs "1.2.dtt") used to shadow silently in read_dir order.
            return Err(StoreError::Invalid(format!(
                "duplicate trace stem: {name} collides with an earlier file for trace {id}"
            )));
        }
        let buf = std::fs::read(&path)?;
        let mut r = Reader::new(&buf);
        let header = "bad per-thread trace file header";
        if r.take(4).ok() != Some(THREAD_MAGIC.as_slice()) {
            return Err(StoreError::Format(header));
        }
        let truncated = r.flag().map_err(site(header, "bad truncated flag"))?;
        set.insert(Trace {
            id,
            events: compress::decompress(&buf[r.pos()..], bound)?,
            truncated,
        });
    }
    Ok(set)
}

/// An index-backed, lazily-decoded view of a `.dtts` corpus.
///
/// `open` parses the same layout as [`from_bytes_full`] — registry,
/// trace headers (skipping every blob), the v3 index and footer, and
/// the happens-before log, which it checks but holds only once
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
    hb: std::sync::OnceLock<HbLog>,
    /// Traces read one at a time, and every blob that failed.
    cells: Vec<std::sync::OnceLock<Result<Trace, CodecError>>>,
    /// The whole corpus once read, or the index of the first blob that
    /// failed (its error is in its cell).
    full: std::sync::OnceLock<Result<Arc<TraceSet>, usize>>,
    decodes: std::sync::atomic::AtomicU64,
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

    /// Build an indexed view over an in-memory `.dtts` image. It
    /// accepts exactly the images [`from_bytes_full`] accepts, up to
    /// blob decoding.
    pub fn from_bytes(buf: Vec<u8>) -> Result<IndexedSet, StoreError> {
        let Layout {
            registry,
            entries,
            hb_section,
            ..
        } = Layout::parse(&buf)?;
        let n = entries.len();
        let first = crate::first_equal(&entries, |e| &buf[e.off..e.off + e.len]);
        Ok(IndexedSet {
            buf,
            registry,
            entries,
            first,
            hb_section,
            hb: std::sync::OnceLock::new(),
            cells: (0..n).map(|_| std::sync::OnceLock::new()).collect(),
            full: std::sync::OnceLock::new(),
            decodes: std::sync::atomic::AtomicU64::new(0),
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
                    Ok(t) => Ok(entry.with_events(t.events.clone())),
                    Err(e) => Err(e.clone()),
                },
                _ => {
                    self.decodes
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    entry.decode(&self.buf, self.registry.symbol_bound())
                }
            }
        })
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
                (None, Some(t)) => Ok(entry.with_events(t.events.clone())),
                (None, None) => {
                    self.decodes
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    fresh.push(idx);
                    entry.decode(&self.buf, self.registry.symbol_bound())
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
        self.decodes.load(std::sync::atomic::Ordering::Relaxed)
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
        let back = load(&path).unwrap();
        assert_eq!(back.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn directory_round_trip() {
        let set = sample_set();
        let dir = std::env::temp_dir().join("dt_trace_store_dir_test");
        std::fs::remove_dir_all(&dir).ok();
        save_dir(&set, &dir).unwrap();
        // One file per thread plus the registry.
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, set.len() + 1);
        let back = load_dir(&dir).unwrap();
        assert_eq!(back.len(), set.len());
        assert_eq!(back.registry.names(), set.registry.names());
        for t in set.iter() {
            let bt = back.get(t.id).unwrap();
            assert_eq!(bt.events, t.events);
            assert_eq!(bt.truncated, t.truncated);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_dir_rejects_garbage() {
        let dir = std::env::temp_dir().join("dt_trace_store_dir_bad");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // Missing registry file.
        assert!(load_dir(&dir).is_err());
        std::fs::write(dir.join(REGISTRY_FILE), [0u8]).unwrap(); // 0 names
        std::fs::write(dir.join("0.0.dtt"), b"XXXX\x00junk").unwrap();
        assert!(load_dir(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A `.dtt` file whose name is not valid UTF-8 used to be skipped
    /// silently, yielding a partial trace set; it must be a hard error.
    #[cfg(unix)]
    #[test]
    fn load_dir_rejects_undecodable_dtt_name() {
        use std::os::unix::ffi::OsStringExt;
        let dir = std::env::temp_dir().join("dt_trace_store_dir_nonutf8");
        std::fs::remove_dir_all(&dir).ok();
        let set = sample_set();
        save_dir(&set, &dir).unwrap();

        // Undecodable but not a trace file: still ignored.
        let stray = std::ffi::OsString::from_vec(b"str\xFFay.tmp".to_vec());
        std::fs::write(dir.join(&stray), b"x").unwrap();
        assert_eq!(load_dir(&dir).unwrap().len(), set.len());
        std::fs::remove_file(dir.join(&stray)).unwrap();

        // Undecodable *trace* file: loading must fail loudly …
        let bad = std::ffi::OsString::from_vec(b"9.\xFF0.dtt".to_vec());
        std::fs::write(dir.join(&bad), b"x").unwrap();
        let err = load_dir(&dir).unwrap_err();
        assert!(
            matches!(err, StoreError::Format("undecodable trace file name")),
            "{err:?}"
        );
        // … not silently yield a partial set.
        std::fs::remove_dir_all(&dir).ok();
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
        let (back_set, back_hb) = from_bytes_full(&bytes).unwrap();
        assert_eq!(back_set.len(), set.len());
        assert_eq!(back_hb.events(), hb.events());
        assert_eq!(back_hb.blocked, hb.blocked);
        // Plain to_bytes/from_bytes still work and drop the section.
        let (_, empty_hb) = from_bytes_full(&to_bytes(&set)).unwrap();
        assert!(empty_hb.is_empty());
    }

    /// Strip a v3 image down to its v2 body (everything before the
    /// index section) and stamp the requested version byte.
    fn downgrade(mut bytes: Vec<u8>, version: u8) -> Vec<u8> {
        let foot = bytes.len() - 16;
        let index_off = u64::from_le_bytes(bytes[foot + 8..].try_into().unwrap()) as usize;
        bytes.truncate(index_off);
        bytes[4] = version;
        bytes
    }

    #[test]
    fn v1_files_still_load_with_empty_hb() {
        // Reconstruct a v1 byte stream: version byte 1, no index tail,
        // no trailing HB-presence flag.
        let mut bytes = downgrade(to_bytes(&sample_set()), 1);
        bytes.pop(); // drop the HB-presence byte
        let set = from_bytes(&bytes).unwrap();
        assert_eq!(set.len(), 3);
        let (_, hb) = from_bytes_full(&bytes).unwrap();
        assert!(hb.is_empty());
    }

    #[test]
    fn v2_files_still_load() {
        let bytes = downgrade(to_bytes(&sample_set()), 2);
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
                let eager = from_bytes(&bytes).map(|s| s.len());
                assert!(
                    matches!(eager, Err(StoreError::Format(m)) if m == want),
                    "eager v{version} {ids:?}: {eager:?}"
                );
                let lazy = IndexedSet::from_bytes(bytes).map(|s| s.len());
                assert!(
                    matches!(lazy, Err(StoreError::Format(m)) if m == want),
                    "lazy v{version} {ids:?}: {lazy:?}"
                );
            }
        }
        // The same images with in-range, distinct ids load.
        for version in [1, 3] {
            let bytes = crafted_image(version, &[(1, 0), (2, 0)]);
            assert_eq!(from_bytes(&bytes).unwrap().len(), 2);
            assert_eq!(IndexedSet::from_bytes(bytes).unwrap().len(), 2);
        }
    }

    /// Both readers, run on one image: the traces and HB log as text,
    /// or the error's `Display` text. A panic is reported, not raised.
    fn both_readers(bytes: &[u8]) -> [Result<String, String>; 2] {
        let show =
            |set: &TraceSet, hb: &HbLog| format!("{:?} {hb:?}", set.iter().collect::<Vec<_>>());
        let eager = || from_bytes_full(bytes).map(|(set, hb)| show(&set, &hb));
        let lazy = || {
            let ix = IndexedSet::from_bytes(bytes.to_vec())?;
            Ok(show(&*ix.full_set()?, ix.hb()))
        };
        let guard = |f: &dyn Fn() -> Result<String, StoreError>| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                .unwrap_or_else(|_| Ok("PANIC".to_string()))
                .map_err(|e| e.to_string())
        };
        [guard(&eager), guard(&lazy)]
    }

    /// The eager and the lazy reader agree on every prefix and every
    /// single-byte flip (two masks) of a v1, v2 and v3 image with an HB
    /// section: both fail with the same message, or both yield the same
    /// traces and HB log. Neither panics.
    #[test]
    fn eager_and_lazy_readers_agree_on_every_mutation() {
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
        let v3 = to_bytes_full(&sample_set(), Some(&hb));
        for image in [downgrade(v3.clone(), 1), downgrade(v3.clone(), 2), v3] {
            let version = image[4];
            assert!(both_readers(&image)[0].is_ok(), "v{version} intact");
            let mut mutants: Vec<(String, Vec<u8>)> = (0..image.len())
                .map(|cut| (format!("prefix {cut}"), image[..cut].to_vec()))
                .collect();
            for i in 0..image.len() {
                for mask in [0x01u8, 0x80] {
                    let mut flipped = image.clone();
                    flipped[i] ^= mask;
                    mutants.push((format!("byte {i} ^ {mask:#04x}"), flipped));
                }
            }
            for (what, bytes) in mutants {
                let [eager, lazy] = both_readers(&bytes);
                assert!(
                    eager.as_deref() != Ok("PANIC") && lazy.as_deref() != Ok("PANIC"),
                    "v{version} {what}: panic"
                );
                assert_eq!(eager, lazy, "v{version} {what}");
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
        let back = load(&path).unwrap();
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

    /// `load_dir` must skip a crashed writer's temp files rather than
    /// misparse them as trace files.
    #[test]
    fn load_dir_ignores_stray_temp_files() {
        let set = sample_set();
        let dir = std::env::temp_dir().join("dt_trace_store_dir_temps");
        std::fs::remove_dir_all(&dir).ok();
        save_dir(&set, &dir).unwrap();
        std::fs::write(dir.join(".0.0.dtt.tmp.12345.7"), b"garbage").unwrap();
        let back = load_dir(&dir).unwrap();
        assert_eq!(back.len(), set.len());
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

    /// Every reader diagnoses a symbol outside the registry when it
    /// decodes the blob, so no consumer ever looks the function up.
    #[test]
    fn symbols_outside_the_registry_are_format_errors() {
        let set = out_of_registry_set();
        let bytes = to_bytes(&set);
        let err = from_bytes_full(&bytes).unwrap_err();
        assert!(is_out_of_registry(&err), "{err:?}");

        // Opening decodes nothing, so it succeeds; every read fails.
        let ix = IndexedSet::from_bytes(bytes).unwrap();
        let err = ix.get(TraceId::new(0, 0)).unwrap_err();
        assert!(is_out_of_registry(&err), "{err:?}");
        let err = ix.full_set().unwrap_err();
        assert!(is_out_of_registry(&err), "{err:?}");
        assert_eq!(ix.decode_count(), 1);

        let dir = std::env::temp_dir().join("dt_trace_store_dir_out_of_registry");
        std::fs::remove_dir_all(&dir).ok();
        save_dir(&set, &dir).unwrap();
        let err = load_dir(&dir).unwrap_err();
        assert!(is_out_of_registry(&err), "{err:?}");
        std::fs::remove_dir_all(&dir).ok();
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

    /// Files written before the v3 bump reject v3 images with a
    /// diagnosed error — simulated here by the v2-era version check.
    #[test]
    fn old_readers_diagnose_v3_files() {
        let bytes = to_bytes(&sample_set());
        assert_eq!(bytes[4], 3);
        // A v2-era reader accepted only versions 1 and 2.
        let v2_era_accepts = |v: u8| v == 1 || v == 2;
        assert!(!v2_era_accepts(bytes[4]));
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
    fn indexed_subset_and_full_set_match_eager_load() {
        let set = sample_set();
        let bytes = to_bytes(&set);
        let ix = IndexedSet::from_bytes(bytes.clone()).unwrap();
        let sub = ix.subset(&[TraceId::new(2, 0)]).unwrap();
        assert_eq!(sub.len(), 1);
        assert!(sub.get(TraceId::new(2, 0)).unwrap().truncated);
        let full = ix.full_set().unwrap();
        let eager = from_bytes(&bytes).unwrap();
        assert_eq!(full.len(), eager.len());
        for t in eager.iter() {
            assert_eq!(full.get(t.id).unwrap().events, t.events);
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
        let eager = from_bytes(&bad).unwrap_err().to_string();
        let ix = IndexedSet::from_bytes(bad).unwrap();
        assert_eq!(ix.full_set().unwrap_err().to_string(), eager);
        assert_eq!(ix.decode_count(), 2);
        ix.get(TraceId::new(0, 0)).unwrap();
        ix.get(TraceId::new(1, 0)).unwrap();
        assert!(ix.get(TraceId::new(2, 0)).is_err());
        assert_eq!(ix.full_set().unwrap_err().to_string(), eager);
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
        let v2 = downgrade(to_bytes(&set), 2);
        let ix = IndexedSet::from_bytes(v2).unwrap();
        assert_eq!(ix.decode_count(), 0);
        assert_eq!(ix.full_set().unwrap().len(), set.len());

        let mut v1 = downgrade(to_bytes(&set), 1);
        v1.pop();
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
        let err = IndexedSet::from_bytes(bad).unwrap_err().to_string();
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
        // Corrupt blob: surfaces at decode time, as a diagnosed error.
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

    /// Duplicate stems ("01.2.dtt" vs "1.2.dtt" both parse to trace
    /// 1.2) used to shadow silently in OS `read_dir` order; they must
    /// be a diagnosed error naming the collision.
    #[test]
    fn load_dir_rejects_duplicate_trace_stems() {
        let set = sample_set();
        let dir = std::env::temp_dir().join("dt_trace_store_dir_dup");
        std::fs::remove_dir_all(&dir).ok();
        save_dir(&set, &dir).unwrap();
        std::fs::copy(dir.join("1.0.dtt"), dir.join("01.0.dtt")).unwrap();
        let err = load_dir(&dir).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("duplicate trace stem"), "{msg}");
        assert!(msg.contains("1.0"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `load_dir` sorts trace files by name, so which file "wins" an
    /// error and the traversal order no longer depend on the OS's
    /// `read_dir` order. Probed via the error for a malformed stem:
    /// with two bad files present, the lexicographically first one is
    /// always the one reported.
    #[test]
    fn load_dir_is_deterministic_under_any_read_dir_order() {
        let set = sample_set();
        let dir = std::env::temp_dir().join("dt_trace_store_dir_sorted");
        std::fs::remove_dir_all(&dir).ok();
        save_dir(&set, &dir).unwrap();
        // Loads fine when clean.
        assert_eq!(load_dir(&dir).unwrap().len(), set.len());
        // Plant a duplicate late in sort order and one early: the
        // first collision in *name* order is diagnosed.
        std::fs::copy(dir.join("0.0.dtt"), dir.join("00.0.dtt")).unwrap();
        std::fs::copy(dir.join("2.0.dtt"), dir.join("02.0.dtt")).unwrap();
        let msg = load_dir(&dir).unwrap_err().to_string();
        // "00.0.dtt" sorts before "0.0.dtt"; the collision is reported
        // when the *second* name for trace 0.0 (i.e. "0.0.dtt") is
        // reached — before trace 2.0's pair is ever considered.
        assert!(msg.contains("0.0.dtt"), "{msg}");
        assert!(!msg.contains("2.0"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
