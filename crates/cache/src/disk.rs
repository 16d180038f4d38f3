//! The persistent layer: one file per entry, named by the hex key.
//!
//! * `<key:032x>.nlr` — a serialized [`NlrFold`]
//! * `<key:032x>.att` — a serialized attribute set
//!
//! Both formats are magic + format version + varint-encoded payload
//! (LEB128, via `dt_trace::compress`) + a 16-byte integrity digest of
//! everything before it. Readers validate everything — magic, version,
//! digest, structural well-formedness, exact length — and return
//! `None` on any deviation: a corrupt or truncated entry is a cache
//! miss, never an error and never a wrong value. The digest closes the
//! hole structural checks leave open: a flipped byte that still parses
//! would silently decode to a *different* value under the same content
//! key. Writers go through a uniquely-named temp file and an atomic
//! rename, so readers (including concurrent sweeps sharing a
//! directory) only ever see complete entries.

use crate::{AttrSet, NlrFold, PElem, CACHE_FORMAT_VERSION};
use dt_trace::compress::{read_varint, write_varint};
use dt_trace::hash::StableHasher;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const NLR_MAGIC: &[u8; 4] = b"DTCN";
const ATTR_MAGIC: &[u8; 4] = b"DTCA";

pub(crate) fn nlr_path(dir: &Path, key: u128) -> PathBuf {
    dir.join(format!("{key:032x}.nlr"))
}

pub(crate) fn attr_path(dir: &Path, key: u128) -> PathBuf {
    dir.join(format!("{key:032x}.att"))
}

/// Write `bytes` to `path` atomically: a unique temp sibling (same
/// directory, so the rename cannot cross filesystems) followed by a
/// rename. Returns the bytes written, 0 on any I/O failure — the disk
/// layer is best-effort by contract.
fn write_atomic(path: &Path, bytes: &[u8]) -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let Some(dir) = path.parent() else { return 0 };
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
        return 0;
    };
    let tmp = dir.join(format!(
        ".{name}.tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    if std::fs::write(&tmp, bytes).is_err() {
        let _ = std::fs::remove_file(&tmp);
        return 0;
    }
    if std::fs::rename(&tmp, path).is_err() {
        let _ = std::fs::remove_file(&tmp);
        return 0;
    }
    bytes.len() as u64
}

/// Append the integrity digest: 16 bytes of [`StableHasher`] over the
/// encoded entry so far (magic and version included).
fn seal(mut bytes: Vec<u8>) -> Vec<u8> {
    let mut h = StableHasher::new();
    h.write_raw(&bytes);
    bytes.extend_from_slice(&h.finish().to_le_bytes());
    bytes
}

/// Strip and verify the integrity digest; `None` on any mismatch.
fn unseal(buf: &[u8]) -> Option<&[u8]> {
    let payload_len = buf.len().checked_sub(16)?;
    let (payload, digest) = buf.split_at(payload_len);
    let mut h = StableHasher::new();
    h.write_raw(payload);
    (h.finish().to_le_bytes() == digest).then_some(payload)
}

fn encode_pelem(out: &mut Vec<u8>, e: PElem) {
    match e {
        PElem::Sym(s) => {
            write_varint(out, 0);
            write_varint(out, u64::from(s));
        }
        PElem::Loop { local, count } => {
            write_varint(out, 1);
            write_varint(out, u64::from(local));
            write_varint(out, count);
        }
    }
}

fn decode_pelem(buf: &[u8], at: &mut usize) -> Option<PElem> {
    match read_varint(buf, at).ok()? {
        0 => Some(PElem::Sym(u32::try_from(read_varint(buf, at).ok()?).ok()?)),
        1 => {
            let local = u32::try_from(read_varint(buf, at).ok()?).ok()?;
            let count = read_varint(buf, at).ok()?;
            Some(PElem::Loop { local, count })
        }
        _ => None,
    }
}

fn encode_nlr(fold: &NlrFold) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + 4 * fold.elements.len());
    out.extend_from_slice(NLR_MAGIC);
    write_varint(&mut out, u64::from(CACHE_FORMAT_VERSION));
    write_varint(&mut out, fold.input_len as u64);
    write_varint(&mut out, fold.bodies.len() as u64);
    for body in &fold.bodies {
        write_varint(&mut out, body.len() as u64);
        for &e in body {
            encode_pelem(&mut out, e);
        }
    }
    write_varint(&mut out, fold.elements.len() as u64);
    for &e in &fold.elements {
        encode_pelem(&mut out, e);
    }
    seal(out)
}

fn decode_nlr(sealed: &[u8]) -> Option<NlrFold> {
    let buf = unseal(sealed)?;
    if buf.len() < 4 || &buf[..4] != NLR_MAGIC {
        return None;
    }
    let mut at = 4;
    if read_varint(buf, &mut at).ok()? != u64::from(CACHE_FORMAT_VERSION) {
        return None;
    }
    let input_len = usize::try_from(read_varint(buf, &mut at).ok()?).ok()?;
    let n_bodies = read_varint(buf, &mut at).ok()?;
    let mut bodies = Vec::new();
    for _ in 0..n_bodies {
        let len = read_varint(buf, &mut at).ok()?;
        let mut body = Vec::new();
        for _ in 0..len {
            body.push(decode_pelem(buf, &mut at)?);
        }
        bodies.push(body);
    }
    let n_elems = read_varint(buf, &mut at).ok()?;
    let mut elements = Vec::new();
    for _ in 0..n_elems {
        elements.push(decode_pelem(buf, &mut at)?);
    }
    if at != buf.len() {
        return None; // trailing garbage
    }
    let fold = NlrFold {
        bodies,
        elements,
        input_len,
    };
    fold.is_well_formed().then_some(fold)
}

fn encode_attrs(set: &AttrSet) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + 16 * set.len());
    out.extend_from_slice(ATTR_MAGIC);
    write_varint(&mut out, u64::from(CACHE_FORMAT_VERSION));
    write_varint(&mut out, set.len() as u64);
    for (name, weight) in set {
        write_varint(&mut out, name.len() as u64);
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&weight.to_bits().to_le_bytes());
    }
    seal(out)
}

fn decode_attrs(sealed: &[u8]) -> Option<AttrSet> {
    let buf = unseal(sealed)?;
    if buf.len() < 4 || &buf[..4] != ATTR_MAGIC {
        return None;
    }
    let mut at = 4;
    if read_varint(buf, &mut at).ok()? != u64::from(CACHE_FORMAT_VERSION) {
        return None;
    }
    let count = read_varint(buf, &mut at).ok()?;
    let mut out = Vec::new();
    for _ in 0..count {
        let len = usize::try_from(read_varint(buf, &mut at).ok()?).ok()?;
        let name = std::str::from_utf8(buf.get(at..at.checked_add(len)?)?).ok()?;
        at += len;
        let bits = buf.get(at..at + 8)?;
        at += 8;
        let weight = f64::from_bits(u64::from_le_bytes(bits.try_into().ok()?));
        out.push((name.to_string(), weight));
    }
    (at == buf.len()).then_some(out)
}

pub(crate) fn read_nlr(path: &Path) -> Option<(NlrFold, u64)> {
    let bytes = std::fs::read(path).ok()?;
    decode_nlr(&bytes).map(|f| (f, bytes.len() as u64))
}

pub(crate) fn write_nlr(path: &Path, fold: &NlrFold) -> u64 {
    write_atomic(path, &encode_nlr(fold))
}

pub(crate) fn read_attrs(path: &Path) -> Option<(AttrSet, u64)> {
    let bytes = std::fs::read(path).ok()?;
    decode_attrs(&bytes).map(|s| (s, bytes.len() as u64))
}

pub(crate) fn write_attrs(path: &Path, set: &AttrSet) -> u64 {
    write_atomic(path, &encode_attrs(set))
}

/// What `difftrace cache stats` reports about a cache directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// `.nlr` entries present.
    pub nlr_entries: u64,
    /// `.att` entries present.
    pub attr_entries: u64,
    /// Total bytes across both entry kinds.
    pub total_bytes: u64,
}

/// Tally the entries of a cache directory.
pub fn disk_stats(dir: &Path) -> std::io::Result<DiskStats> {
    let mut s = DiskStats::default();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let kind = if name.ends_with(".nlr") {
            &mut s.nlr_entries
        } else if name.ends_with(".att") {
            &mut s.attr_entries
        } else {
            continue;
        };
        *kind += 1;
        s.total_bytes += entry.metadata()?.len();
    }
    Ok(s)
}

/// Delete every cache entry (and stray temp file) in `dir`, returning
/// how many files were removed. Leaves foreign files alone.
pub fn clear_dir(dir: &Path) -> std::io::Result<u64> {
    let mut removed = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let ours = name.ends_with(".nlr")
            || name.ends_with(".att")
            || (name.starts_with('.') && name.contains(".tmp."));
        if ours {
            std::fs::remove_file(entry.path())?;
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cache;
    use std::sync::Arc;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dt_cache_disk_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_fold() -> NlrFold {
        NlrFold {
            bodies: vec![
                vec![PElem::Sym(1), PElem::Sym(2)],
                vec![PElem::Loop { local: 0, count: 2 }, PElem::Sym(9)],
            ],
            elements: vec![PElem::Loop { local: 1, count: 2 }, PElem::Sym(3)],
            input_len: 11,
        }
    }

    #[test]
    fn nlr_entry_roundtrips() {
        let fold = sample_fold();
        let bytes = encode_nlr(&fold);
        assert_eq!(decode_nlr(&bytes), Some(fold));
    }

    #[test]
    fn attr_entry_roundtrips() {
        let set: AttrSet = vec![
            ("MPI_Send".into(), 8.0),
            ("L0".into(), 4.5),
            ("{a}→{b}".into(), 1.0),
        ];
        let bytes = encode_attrs(&set);
        assert_eq!(decode_attrs(&bytes), Some(set));
    }

    /// A correctly sealed attribute entry whose name length is
    /// `u64::MAX` (the seal is an unkeyed hash anyone can recompute) is
    /// a miss, not an offset overflow.
    #[test]
    fn forged_attr_name_length_is_a_miss() {
        let mut out = ATTR_MAGIC.to_vec();
        write_varint(&mut out, u64::from(CACHE_FORMAT_VERSION));
        write_varint(&mut out, 1);
        write_varint(&mut out, u64::MAX);
        out.extend_from_slice(b"name");
        assert_eq!(decode_attrs(&seal(out)), None);
    }

    #[test]
    fn corruption_is_a_miss_not_an_error() {
        let good = encode_nlr(&sample_fold());
        // Truncation at every prefix length.
        for len in 0..good.len() {
            assert_eq!(decode_nlr(&good[..len]), None, "truncated at {len}");
        }
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        assert_eq!(decode_nlr(&long), None);
        // Every single-byte flip — payload or digest — is caught by the
        // integrity digest, even where the mutation would still parse.
        for i in 0..good.len() {
            let mut flipped = good.clone();
            flipped[i] ^= 0x01;
            assert_eq!(decode_nlr(&flipped), None, "flipped byte {i}");
        }
        // Wrong magic / version.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert_eq!(decode_nlr(&bad), None);
        let mut ver = good;
        ver[4] = ver[4].wrapping_add(1);
        assert_eq!(decode_nlr(&ver), None);
        // An attr blob under an NLR reader and vice versa.
        let attrs = encode_attrs(&vec![("x".into(), 1.0)]);
        assert_eq!(decode_nlr(&attrs), None);

        // A structurally invalid fold (forward body reference) encodes
        // fine but must be rejected on read.
        let evil = NlrFold {
            bodies: vec![vec![PElem::Loop { local: 9, count: 2 }]],
            elements: vec![],
            input_len: 0,
        };
        assert_eq!(decode_nlr(&encode_nlr(&evil)), None);
    }

    #[test]
    fn disk_cache_persists_across_instances() {
        let dir = tmp("persist");
        let key = 0xabcdefu128;
        {
            let c = Cache::with_dir(&dir).unwrap();
            c.put_nlr(key, Arc::new(sample_fold()));
            c.put_attrs(key, Arc::new(vec![("a".into(), 2.0)]));
            assert!(c.stats().disk_write_bytes > 0);
        }
        // A brand-new instance over the same directory hits from disk.
        let c2 = Cache::with_dir(&dir).unwrap();
        assert_eq!(*c2.get_nlr(key).unwrap(), sample_fold());
        assert_eq!(c2.get_attrs(key).unwrap().as_slice(), &[("a".into(), 2.0)]);
        let s = c2.stats();
        assert_eq!((s.nlr_hits, s.attr_hits), (1, 1));
        assert!(s.disk_read_bytes > 0);

        let ds = disk_stats(&dir).unwrap();
        assert_eq!((ds.nlr_entries, ds.attr_entries), (1, 1));
        assert!(ds.total_bytes > 0);
        assert_eq!(clear_dir(&dir).unwrap(), 2);
        assert_eq!(disk_stats(&dir).unwrap(), DiskStats::default());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_disk_entry_misses() {
        let dir = tmp("corrupt");
        let key = 42u128;
        let c = Cache::with_dir(&dir).unwrap();
        c.put_nlr(key, Arc::new(sample_fold()));
        // Truncate the entry on disk behind the cache's back, then ask
        // a fresh instance (no memory copy): must miss cleanly.
        let path = nlr_path(&dir, key);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let fresh = Cache::with_dir(&dir).unwrap();
        assert!(fresh.get_nlr(key).is_none());
        assert_eq!(fresh.stats().nlr_misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_temp_files_left_behind() {
        let dir = tmp("tmpfiles");
        let c = Cache::with_dir(&dir).unwrap();
        for k in 0..8u128 {
            c.put_nlr(k, Arc::new(sample_fold()));
        }
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
