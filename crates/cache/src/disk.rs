//! The persistent layer: one file per entry, named by the hex key.
//!
//! * `<key:032x>.nlr` — a serialized [`nlr::Fold`]
//! * `<key:032x>.att` — a serialized attribute set
//!
//! Both formats are magic + format version + varint-encoded payload +
//! the 16-byte integrity seal of everything before it, all through
//! [`dt_trace::codec`] (the same seal baseline bundles use). Readers
//! validate everything — magic, version, seal, structural
//! well-formedness, exact length — and return `None` on any deviation:
//! a corrupt or truncated entry is a cache miss, never an error and
//! never a wrong value. The seal closes the hole structural checks
//! leave open: a flipped byte that still parses would silently decode
//! to a *different* value under the same content key. Writers go
//! through [`dt_trace::store::write_atomic`] (a uniquely-named temp
//! file and an atomic rename), so readers (including concurrent sweeps
//! sharing a directory) only ever see complete entries.

use crate::{AttrSet, CACHE_FORMAT_VERSION};
use dt_trace::codec::{seal, unseal, write_varint, CodecError, Reader};
use nlr::{Element, Fold, LoopId};
use std::path::{Path, PathBuf};

const NLR_MAGIC: &[u8; 4] = b"DTCN";
const ATTR_MAGIC: &[u8; 4] = b"DTCA";

pub(crate) fn nlr_path(dir: &Path, key: u128) -> PathBuf {
    dir.join(format!("{key:032x}.nlr"))
}

pub(crate) fn attr_path(dir: &Path, key: u128) -> PathBuf {
    dir.join(format!("{key:032x}.att"))
}

/// Write an entry with [`dt_trace::store::write_atomic`]. Returns the
/// bytes written, 0 on any I/O failure — the disk layer is best-effort
/// by contract.
fn write_entry(path: &Path, bytes: &[u8]) -> u64 {
    dt_trace::store::write_atomic(path, bytes).map_or(0, |()| bytes.len() as u64)
}

/// One element: tag 0 and the symbol, or tag 1, the local body index
/// and the count.
fn encode_element(out: &mut Vec<u8>, e: Element) {
    match e {
        Element::Sym(s) => {
            write_varint(out, 0);
            write_varint(out, u64::from(s));
        }
        Element::Loop { body, count } => {
            write_varint(out, 1);
            write_varint(out, u64::from(body.0));
            write_varint(out, count);
        }
    }
}

fn decode_element(r: &mut Reader<'_>) -> Result<Element, CodecError> {
    match r.varint()? {
        0 => Ok(Element::Sym(r.u32()?)),
        1 => Ok(Element::Loop {
            body: LoopId(r.u32()?),
            count: r.varint()?,
        }),
        _ => Err(CodecError::Corrupt("bad element tag")),
    }
}

/// A sealed entry's payload, past its magic and version; `None` on a
/// bad seal, magic or version.
fn open_entry<'a>(sealed: &'a [u8], magic: &[u8; 4]) -> Option<Reader<'a>> {
    let mut r = Reader::new(unseal(sealed)?.0);
    (r.take(4).ok()? == magic && r.varint().ok()? == u64::from(CACHE_FORMAT_VERSION)).then_some(r)
}

fn encode_nlr(fold: &Fold) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + 4 * fold.elements.len());
    out.extend_from_slice(NLR_MAGIC);
    write_varint(&mut out, u64::from(CACHE_FORMAT_VERSION));
    write_varint(&mut out, fold.input_len as u64);
    write_varint(&mut out, fold.bodies.len() as u64);
    for body in &fold.bodies {
        write_varint(&mut out, body.len() as u64);
        for &e in body {
            encode_element(&mut out, e);
        }
    }
    write_varint(&mut out, fold.elements.len() as u64);
    for &e in &fold.elements {
        encode_element(&mut out, e);
    }
    seal(out)
}

fn decode_nlr(sealed: &[u8]) -> Option<Fold> {
    let mut r = open_entry(sealed, NLR_MAGIC)?;
    let input_len = usize::try_from(r.varint().ok()?).ok()?;
    // Every element takes at least two bytes: a tag and a value.
    let fold = Fold {
        bodies: r.list(1, |r| r.list(2, decode_element)).ok()?,
        elements: r.list(2, decode_element).ok()?,
        input_len,
    };
    (r.remaining() == 0 && fold.is_well_formed()).then_some(fold)
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
    let mut r = open_entry(sealed, ATTR_MAGIC)?;
    // Each entry is a name length, the name, and an 8-byte weight.
    let set = r
        .list(9, |r| {
            Ok((r.string()?, f64::from_bits(u64::from_le_bytes(r.array()?))))
        })
        .ok()?;
    (r.remaining() == 0).then_some(set)
}

pub(crate) fn read_nlr(path: &Path) -> Option<(Fold, u64)> {
    let bytes = std::fs::read(path).ok()?;
    decode_nlr(&bytes).map(|f| (f, bytes.len() as u64))
}

pub(crate) fn write_nlr(path: &Path, fold: &Fold) -> u64 {
    write_entry(path, &encode_nlr(fold))
}

pub(crate) fn read_attrs(path: &Path) -> Option<(AttrSet, u64)> {
    let bytes = std::fs::read(path).ok()?;
    decode_attrs(&bytes).map(|s| (s, bytes.len() as u64))
}

pub(crate) fn write_attrs(path: &Path, set: &AttrSet) -> u64 {
    write_entry(path, &encode_attrs(set))
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

    fn lp(body: u32, count: u64) -> Element {
        Element::Loop {
            body: LoopId(body),
            count,
        }
    }

    fn sample_fold() -> Fold {
        Fold {
            bodies: vec![
                vec![Element::Sym(1), Element::Sym(2)],
                vec![lp(0, 2), Element::Sym(9)],
            ],
            elements: vec![lp(1, 2), Element::Sym(3)],
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
        let evil = Fold {
            bodies: vec![vec![lp(9, 2)]],
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
            c.nlr_fold(key, sample_fold);
            c.put_attrs(key, Arc::new(vec![("a".into(), 2.0)]));
            assert!(c.stats().disk_write_bytes > 0);
        }
        // A brand-new instance over the same directory hits from disk.
        let c2 = Cache::with_dir(&dir).unwrap();
        let (fold, built) = c2.nlr_fold(key, || unreachable!("the entry is on disk"));
        assert_eq!(*fold, sample_fold());
        assert!(!built);
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
        c.nlr_fold(key, sample_fold);
        // Truncate the entry on disk behind the cache's back, then ask
        // a fresh instance (no memory copy): must miss cleanly.
        let path = nlr_path(&dir, key);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let fresh = Cache::with_dir(&dir).unwrap();
        assert!(fresh.nlr_fold(key, sample_fold).1, "folded afresh");
        assert_eq!(fresh.stats().nlr_misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_temp_files_left_behind() {
        let dir = tmp("tmpfiles");
        let c = Cache::with_dir(&dir).unwrap();
        for k in 0..8u128 {
            c.nlr_fold(k, sample_fold);
        }
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Fixed loopy inputs, one per `(k, symbols)` pair: nested loops,
    /// a truncated remainder, noise over small alphabets (dozens of
    /// bodies) and a body only a large `k` folds.
    fn pinned_inputs() -> Vec<(usize, Vec<u32>)> {
        let mut x = 11u64;
        let mut noise = |m: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) % m) as u32
        };
        let nested: Vec<u32> = (0..5)
            .flat_map(|_| [0u32, 1, 0, 1, 0, 1, 2])
            .chain([7])
            .collect();
        let mut oddeven = vec![0u32, 1, 2];
        oddeven.extend([3u32, 4].repeat(8));
        oddeven.extend([5, 3]);
        vec![
            (10, vec![]),
            (10, vec![1, 2, 1, 2, 9, 1, 2, 1, 2, 9, 3, 3, 3, 3]),
            (10, [1u32, 2, 3, 4].repeat(50)),
            (10, nested),
            (10, oddeven),
            (10, (0..2_000).map(|_| noise(3)).collect()),
            (4, (0..3_000).map(|_| noise(6)).collect()),
            (50, (0..40).flat_map(|_| 0..12u32).collect()),
        ]
    }

    /// The disk bytes of every fold are pinned: the fold's first-intern
    /// body order is the loop numbering of every cached analysis, so a
    /// change here would silently renumber warm caches written earlier.
    #[test]
    fn fold_encoding_is_pinned() {
        let mut h = dt_trace::hash::StableHasher::new();
        for (k, symbols) in pinned_inputs() {
            let fold = nlr::NlrBuilder::new(k).fold(&symbols);
            assert!(fold.is_well_formed());
            h.write_bytes(&encode_nlr(&fold));
        }
        assert_eq!(h.finish(), PINNED_FOLDS, "{:#034x}", h.finish());
    }

    const PINNED_FOLDS: u128 = 0xeb2c_ce0e_18c0_dbd7_57f5_705a_abc2_d3d3;
}
