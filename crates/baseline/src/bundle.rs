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
//! The trailing digest is [`dt_trace::codec::seal`], the seal dt-cache
//! puts on its disk entries, with one deliberate difference in
//! *policy*: a cache
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

use difftrace::CHECKERS;
use dt_trace::codec::{seal, unseal, write_varint, CodecError, Reader};
use dt_trace::TraceId;

/// Bump whenever the encoded payload changes shape. Decoders reject
/// other versions with a "re-record" message rather than guessing.
/// Version 4 records one named section per registered checker, so a
/// new checker changes the sections a bundle must hold, not the format.
pub const BUNDLE_FORMAT_VERSION: u32 = 4;

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
    /// One section per registered checker, in registry order
    /// ([`difftrace::CHECKERS`]).
    pub checks: Vec<CheckSection>,
}

/// One registered checker's findings in a bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckSection {
    /// The checker's name ([`difftrace::AnyChecker::name`]).
    pub name: String,
    /// Whether the checker ran. A checker that needs a happens-before
    /// section does not run on a run without one.
    pub ran: bool,
    /// Findings aggregated per code, sorted by code; empty when the
    /// checker did not run.
    pub counts: Vec<CodeCount>,
}

impl Baseline {
    /// The section of the registered checker `name`.
    pub fn section(&self, name: &str) -> Option<&CheckSection> {
        self.checks.iter().find(|c| c.name == name)
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

/// The reason string for a payload field that fails to decode.
fn field_error(e: CodecError) -> String {
    match e {
        CodecError::Truncated => "truncated field".to_string(),
        CodecError::Corrupt(m) => m.to_string(),
        other => other.to_string(),
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

/// A 0/1 flag byte; any other value is the defect `what`.
fn flag(r: &mut Reader<'_>, what: &'static str) -> Result<bool, CodecError> {
    match r.byte()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(CodecError::Corrupt(what)),
    }
}

fn code_counts_decode(r: &mut Reader<'_>) -> Result<Vec<CodeCount>, CodecError> {
    r.list(3, |r| {
        Ok(CodeCount {
            code: r.string()?,
            errors: r.varint()?,
            warnings: r.varint()?,
        })
    })
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
        write_varint(&mut out, self.checks.len() as u64);
        for c in &self.checks {
            write_str(&mut out, &c.name);
            out.push(u8::from(c.ran));
            code_counts_encode(&mut out, &c.counts);
        }
        seal(out)
    }

    /// Decode a sealed bundle. The error is a human-readable reason —
    /// callers prefix the file path and surface it as an ordinary
    /// (exit 2) error. Never panics, whatever the input.
    pub fn decode(bytes: &[u8]) -> Result<Baseline, String> {
        if bytes.len() < 16 {
            return Err("truncated baseline bundle (shorter than its seal)".to_string());
        }
        let (payload, _) = unseal(bytes)
            .ok_or("corrupt or truncated baseline bundle (seal digest mismatch) — re-record it")?;
        let mut r = Reader::new(payload);
        if r.take(4).map_err(field_error)? != MAGIC {
            return Err("not a baseline bundle (bad magic)".to_string());
        }
        let version = r.varint().map_err(field_error)?;
        if version != u64::from(BUNDLE_FORMAT_VERSION) {
            return Err(format!(
                "baseline bundle format version {version}; this build reads \
                 {BUNDLE_FORMAT_VERSION} — re-record the baseline"
            ));
        }
        let cache_version = r.varint().map_err(field_error)?;
        if cache_version != u64::from(dt_cache::CACHE_FORMAT_VERSION) {
            return Err(format!(
                "baseline recorded with content-key format {cache_version}; this build \
                 computes format {} — fingerprints are not comparable, re-record the baseline",
                dt_cache::CACHE_FORMAT_VERSION
            ));
        }
        let baseline = Self::decode_payload(&mut r).map_err(field_error)?;
        if r.remaining() != 0 {
            return Err(format!(
                "{} trailing byte(s) after the payload",
                r.remaining()
            ));
        }
        // Exactly this build's checkers, in registry order.
        let names: Vec<&str> = baseline.checks.iter().map(|c| c.name.as_str()).collect();
        let registry: Vec<&str> = CHECKERS.iter().map(|c| c.name()).collect();
        if names != registry {
            return Err(format!(
                "baseline bundle has checker sections [{}]; this build runs [{}] — re-record \
                 the baseline",
                names.join(", "),
                registry.join(", ")
            ));
        }
        Ok(baseline)
    }

    /// The payload fields after the two format versions.
    fn decode_payload(r: &mut Reader<'_>) -> Result<Baseline, CodecError> {
        let filter = r.string()?;
        let attrs = r.string()?;
        let traces = r.list(27, |r| {
            Ok(TraceRecord {
                id: r.id()?,
                fingerprint: u128::from_le_bytes(r.array()?),
                score: f64::from_bits(u64::from_le_bytes(r.array()?)),
                truncated: flag(r, "bad truncated flag")?,
            })
        })?;
        let clusters = r.varint()?;
        let outliers = r.list(2, Reader::id)?;
        let checks = r.list(3, |r| {
            Ok(CheckSection {
                name: r.string()?,
                ran: flag(r, "bad ran flag")?,
                counts: code_counts_decode(r)?,
            })
        })?;
        Ok(Baseline {
            filter,
            attrs,
            traces,
            clusters,
            outliers,
            checks,
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
    unseal(bytes).map(|(_, digest)| digest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_trace::hash::StableHasher;

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
            checks: CHECKERS
                .iter()
                .enumerate()
                .map(|(i, c)| CheckSection {
                    name: c.name().to_string(),
                    ran: true,
                    counts: vec![CodeCount {
                        code: c.codes()[i].to_string(),
                        errors: i as u64 % 2,
                        warnings: 2 - i as u64 % 2,
                    }],
                })
                .collect(),
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

    /// Sections that are not this build's registry, in its order, are
    /// a diagnosed re-record error, never a panic or a false decode.
    #[test]
    fn sections_off_the_registry_are_a_re_record_error() {
        let with = |edit: fn(&mut Vec<CheckSection>)| {
            let mut b = sample();
            edit(&mut b.checks);
            b
        };
        let cases = [
            ("missing", with(|s| drop(s.pop()))),
            ("none", with(Vec::clear)),
            (
                "extra",
                with(|s| {
                    s.push(CheckSection {
                        name: "newcheck".to_string(),
                        ran: true,
                        counts: Vec::new(),
                    });
                }),
            ),
            ("renamed", with(|s| s[1].name = "hb".to_string())),
            ("out of order", with(|s| s.swap(1, 2))),
        ];
        for (what, bad) in cases {
            let err = Baseline::decode(&bad.encode()).unwrap_err();
            assert!(err.contains("checker sections"), "{what}: {err}");
            assert!(err.contains("re-record"), "{what}: {err}");
        }
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
