//! The on-disk baseline bundle: a sealed, versioned snapshot of one
//! analyzed run.
//!
//! # Format
//!
//! A bundle is a single file:
//!
//! ```text
//! magic "DTBL" (4 bytes)
//! varint bundle format version
//! varint dt-cache content-key format version
//! canonical payload (varint/LE fields, see `Baseline::encode`)
//! 16-byte StableHasher digest of everything above (the seal)
//! ```
//!
//! The trailing digest is the same sealing scheme dt-cache uses for
//! disk entries, with one deliberate difference in *policy*: a cache
//! entry that fails its seal is silently re-derived (a miss), while a
//! baseline that fails its seal is a hard, diagnosable error — a CI
//! gate must never silently pass because its reference data rotted.
//! [`Baseline::decode`] therefore returns a reason string (digest
//! mismatch, bad magic, version skew, …) that the CLI prefixes with
//! the offending file's path and maps to exit code 2.
//!
//! The payload is canonical: traces sorted by ID, diagnostic codes
//! sorted, floats encoded via [`f64::to_bits`]. Re-recording an
//! unchanged corpus therefore reproduces the bundle byte for byte —
//! the CI `baseline-gate` job byte-diffs two recordings to pin this.

use dt_trace::compress::{read_varint, write_varint};
use dt_trace::hash::StableHasher;
use dt_trace::TraceId;

/// Bump whenever the encoded payload changes shape. Decoders reject
/// other versions with a "re-record" message rather than guessing.
/// Version 2 added the racecheck per-code section; version 3 the
/// reqcheck one.
pub const BUNDLE_FORMAT_VERSION: u32 = 3;

/// File magic: distinguishes bundles from other sealed artifacts
/// (dt-cache entries carry their own magic).
const MAGIC: [u8; 4] = *b"DTBL";

/// One trace's recorded identity and rank.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Which process/thread.
    pub id: TraceId,
    /// dt-cache NLR content key of the trace's filtered stream (see
    /// [`difftrace::content_fingerprints`]).
    pub fingerprint: u128,
    /// JSM row score — the trace's summed similarity to every other
    /// trace of the run. Bit-deterministic for any thread count.
    pub score: f64,
    /// Whether the recorded trace was truncated (hang signature).
    pub truncated: bool,
}

/// Aggregated diagnostics of one analyzer code, e.g. `("HB001", 2, 0)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeCount {
    /// The stable rule code (`TL001`…, `HB001`…).
    pub code: String,
    /// Error-severity findings.
    pub errors: u64,
    /// Warning-severity findings.
    pub warnings: u64,
}

/// A recorded baseline: everything `baseline check` needs to judge a
/// candidate run without re-reading the blessed corpus.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Baseline {
    /// Filter the snapshot was computed under
    /// ([`difftrace::FilterConfig::stable_code`] form, parseable back).
    pub filter: String,
    /// Attribute configuration (display form, parseable back).
    pub attrs: String,
    /// Per-trace records, sorted by trace ID.
    pub traces: Vec<TraceRecord>,
    /// Number of flat clusters the single-run analysis chose.
    pub clusters: u64,
    /// Outlier traces (members of the smallest cluster), sorted.
    pub outliers: Vec<TraceId>,
    /// tracelint findings aggregated per code, sorted by code.
    pub lint: Vec<CodeCount>,
    /// Whether the recorded run carried a happens-before section.
    pub has_hb: bool,
    /// hbcheck findings aggregated per code, sorted by code. Empty
    /// when `has_hb` is false.
    pub hb: Vec<CodeCount>,
    /// racecheck findings aggregated per code (`RC001`…), sorted by
    /// code. Races need no happens-before section, so this is recorded
    /// for every corpus.
    pub race: Vec<CodeCount>,
    /// reqcheck findings aggregated per code (`RQ001`…), sorted by
    /// code. Runs without request markers are trivially clean, so this
    /// is recorded for every corpus too.
    pub req: Vec<CodeCount>,
}

impl Baseline {
    /// The per-code counts recorded for the registered checker `name`
    /// (one bundle field per checker; a new checker needs a bundle
    /// format bump).
    ///
    /// # Panics
    ///
    /// Panics for a name no bundle field records.
    pub fn counts_mut(&mut self, name: &str) -> &mut Vec<CodeCount> {
        match name {
            "lint" => &mut self.lint,
            "hbcheck" => &mut self.hb,
            "racecheck" => &mut self.race,
            "reqcheck" => &mut self.req,
            other => panic!("no bundle field records checker `{other}`"),
        }
    }
}

fn write_id(out: &mut Vec<u8>, id: TraceId) {
    write_varint(out, u64::from(id.process));
    write_varint(out, u64::from(id.thread));
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    write_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Bounded cursor over a decoded payload. Every read is checked; no
/// input can make decoding panic.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn varint(&mut self) -> Result<u64, String> {
        read_varint(self.buf, &mut self.at).map_err(|e| format!("truncated field: {e}"))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or("truncated field")?;
        let slice = &self.buf[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn id(&mut self) -> Result<TraceId, String> {
        let p = self.varint()?;
        let t = self.varint()?;
        let (p, t) = (
            u32::try_from(p).map_err(|_| "process id out of range")?,
            u32::try_from(t).map_err(|_| "thread id out of range")?,
        );
        Ok(TraceId::new(p, t))
    }

    fn string(&mut self) -> Result<String, String> {
        let n = usize::try_from(self.varint()?).map_err(|_| "string length out of range")?;
        if n > self.buf.len() {
            return Err("string length out of range".to_string());
        }
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| "invalid UTF-8".to_string())
    }

    /// A length header for `n` follow-up records of at least
    /// `min_bytes` each — bounded by the remaining input so a corrupt
    /// count cannot trigger a huge allocation.
    fn count(&mut self, min_bytes: usize) -> Result<usize, String> {
        let n = usize::try_from(self.varint()?).map_err(|_| "count out of range")?;
        if n.saturating_mul(min_bytes.max(1)) > self.buf.len() - self.at.min(self.buf.len()) {
            return Err("count exceeds input size".to_string());
        }
        Ok(n)
    }
}

fn code_counts_encode(out: &mut Vec<u8>, counts: &[CodeCount]) {
    write_varint(out, counts.len() as u64);
    for c in counts {
        write_str(out, &c.code);
        write_varint(out, c.errors);
        write_varint(out, c.warnings);
    }
}

fn code_counts_decode(r: &mut Reader<'_>) -> Result<Vec<CodeCount>, String> {
    let n = r.count(3)?;
    let mut counts = Vec::with_capacity(n);
    for _ in 0..n {
        counts.push(CodeCount {
            code: r.string()?,
            errors: r.varint()?,
            warnings: r.varint()?,
        });
    }
    Ok(counts)
}

impl Baseline {
    /// Serialize to the sealed on-disk form. Encoding is a pure
    /// function of the (canonical) contents: the same snapshot always
    /// yields the same bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        write_varint(&mut out, u64::from(BUNDLE_FORMAT_VERSION));
        write_varint(&mut out, u64::from(dt_cache::CACHE_FORMAT_VERSION));
        write_str(&mut out, &self.filter);
        write_str(&mut out, &self.attrs);
        write_varint(&mut out, self.traces.len() as u64);
        for t in &self.traces {
            write_id(&mut out, t.id);
            out.extend_from_slice(&t.fingerprint.to_le_bytes());
            out.extend_from_slice(&t.score.to_bits().to_le_bytes());
            out.push(u8::from(t.truncated));
        }
        write_varint(&mut out, self.clusters);
        write_varint(&mut out, self.outliers.len() as u64);
        for &id in &self.outliers {
            write_id(&mut out, id);
        }
        code_counts_encode(&mut out, &self.lint);
        out.push(u8::from(self.has_hb));
        code_counts_encode(&mut out, &self.hb);
        code_counts_encode(&mut out, &self.race);
        code_counts_encode(&mut out, &self.req);
        let mut h = StableHasher::new();
        h.write_raw(&out);
        out.extend_from_slice(&h.finish().to_le_bytes());
        out
    }

    /// Decode a sealed bundle. The error is a human-readable reason —
    /// callers prefix the file path and surface it as an ordinary
    /// (exit 2) error. Never panics, whatever the input.
    pub fn decode(bytes: &[u8]) -> Result<Baseline, String> {
        let payload_len = bytes
            .len()
            .checked_sub(16)
            .ok_or("truncated baseline bundle (shorter than its seal)")?;
        let (payload, digest) = bytes.split_at(payload_len);
        let mut h = StableHasher::new();
        h.write_raw(payload);
        if h.finish().to_le_bytes() != digest {
            return Err(
                "corrupt or truncated baseline bundle (seal digest mismatch) — re-record it"
                    .to_string(),
            );
        }
        let mut r = Reader {
            buf: payload,
            at: 0,
        };
        if r.take(4)? != MAGIC {
            return Err("not a baseline bundle (bad magic)".to_string());
        }
        let version = r.varint()?;
        if version != u64::from(BUNDLE_FORMAT_VERSION) {
            return Err(format!(
                "baseline bundle format version {version}; this build reads \
                 {BUNDLE_FORMAT_VERSION} — re-record the baseline"
            ));
        }
        let cache_version = r.varint()?;
        if cache_version != u64::from(dt_cache::CACHE_FORMAT_VERSION) {
            return Err(format!(
                "baseline recorded with content-key format {cache_version}; this build \
                 computes format {} — fingerprints are not comparable, re-record the baseline",
                dt_cache::CACHE_FORMAT_VERSION
            ));
        }
        let filter = r.string()?;
        let attrs = r.string()?;
        let n = r.count(27)?;
        let mut traces = Vec::with_capacity(n);
        for _ in 0..n {
            let id = r.id()?;
            let fingerprint = u128::from_le_bytes(r.take(16)?.try_into().expect("16-byte slice"));
            let score = f64::from_bits(u64::from_le_bytes(
                r.take(8)?.try_into().expect("8-byte slice"),
            ));
            let truncated = match r.take(1)?[0] {
                0 => false,
                1 => true,
                b => return Err(format!("bad truncated flag {b}")),
            };
            traces.push(TraceRecord {
                id,
                fingerprint,
                score,
                truncated,
            });
        }
        let clusters = r.varint()?;
        let n = r.count(2)?;
        let mut outliers = Vec::with_capacity(n);
        for _ in 0..n {
            outliers.push(r.id()?);
        }
        let lint = code_counts_decode(&mut r)?;
        let has_hb = match r.take(1)?[0] {
            0 => false,
            1 => true,
            b => return Err(format!("bad happens-before flag {b}")),
        };
        let hb = code_counts_decode(&mut r)?;
        let race = code_counts_decode(&mut r)?;
        let req = code_counts_decode(&mut r)?;
        if r.at != payload.len() {
            return Err(format!(
                "{} trailing byte(s) after the payload",
                payload.len() - r.at
            ));
        }
        Ok(Baseline {
            filter,
            attrs,
            traces,
            clusters,
            outliers,
            lint,
            has_hb,
            hb,
            race,
            req,
        })
    }

    /// The bundle's stable identity: the seal digest of its encoding.
    pub fn bundle_hash(&self) -> u128 {
        let bytes = self.encode();
        let digest: [u8; 16] = bytes[bytes.len() - 16..].try_into().expect("sealed");
        u128::from_le_bytes(digest)
    }
}

/// Read the seal digest off an already-encoded bundle, verifying it.
/// `None` when the bytes are not a validly sealed bundle.
pub fn sealed_hash(bytes: &[u8]) -> Option<u128> {
    let payload_len = bytes.len().checked_sub(16)?;
    let (payload, digest) = bytes.split_at(payload_len);
    let mut h = StableHasher::new();
    h.write_raw(payload);
    let d = h.finish();
    (d.to_le_bytes() == digest).then_some(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample() -> Baseline {
        Baseline {
            filter: "11.all.K10".to_string(),
            attrs: "sing.actual".to_string(),
            traces: vec![
                TraceRecord {
                    id: TraceId::new(0, 0),
                    fingerprint: 0xdead_beef,
                    score: 6.5,
                    truncated: false,
                },
                TraceRecord {
                    id: TraceId::new(1, 0),
                    fingerprint: 0xfeed_face,
                    score: 5.25,
                    truncated: true,
                },
            ],
            clusters: 2,
            outliers: vec![TraceId::new(1, 0)],
            lint: vec![CodeCount {
                code: "TL003".to_string(),
                errors: 0,
                warnings: 1,
            }],
            has_hb: true,
            hb: vec![CodeCount {
                code: "HB001".to_string(),
                errors: 1,
                warnings: 0,
            }],
            race: vec![CodeCount {
                code: "RC004".to_string(),
                errors: 0,
                warnings: 2,
            }],
            req: vec![CodeCount {
                code: "RQ001".to_string(),
                errors: 1,
                warnings: 0,
            }],
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        let b = sample();
        assert_eq!(Baseline::decode(&b.encode()).unwrap(), b);
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(sample().encode(), sample().encode());
        assert_eq!(sample().bundle_hash(), sample().bundle_hash());
    }

    #[test]
    fn truncation_at_every_prefix_is_an_error() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            let r = Baseline::decode(&bytes[..cut]);
            assert!(r.is_err(), "decoded a {cut}-byte prefix");
        }
    }

    #[test]
    fn every_single_byte_flip_is_an_error() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            let r = Baseline::decode(&bad);
            assert!(r.is_err(), "decoded with byte {i} flipped");
        }
    }

    #[test]
    fn version_skew_names_the_reason() {
        // Re-seal a payload with a bumped format version: the digest is
        // valid, so decode must fail on the version check specifically.
        let bytes = sample().encode();
        let mut payload = bytes[..bytes.len() - 16].to_vec();
        assert_eq!(payload[4], BUNDLE_FORMAT_VERSION as u8);
        payload[4] = BUNDLE_FORMAT_VERSION as u8 + 1;
        let mut h = StableHasher::new();
        h.write_raw(&payload);
        payload.extend_from_slice(&h.finish().to_le_bytes());
        let err = Baseline::decode(&payload).unwrap_err();
        assert!(err.contains("format version"), "{err}");
        assert!(err.contains("re-record"), "{err}");
    }

    #[test]
    fn sealed_hash_checks_the_seal() {
        let bytes = sample().encode();
        assert_eq!(sealed_hash(&bytes), Some(sample().bundle_hash()));
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert_eq!(sealed_hash(&bad), None);
        assert_eq!(sealed_hash(&bytes[..15]), None);
    }

    #[test]
    fn empty_and_garbage_inputs_never_panic() {
        for input in [
            &[][..],
            &[0u8; 15][..],
            &[0u8; 16][..],
            &[0xff; 64][..],
            b"DTBL",
        ] {
            assert!(Baseline::decode(input).is_err());
        }
    }
}
