//! Property tests for the policy text format and the bundle codec:
//! `Policy::parse ∘ Policy::to_text` and `Baseline::decode ∘ encode`
//! are identities on arbitrary values, and mutilated bundle bytes are
//! always a diagnosed error, never a panic or a false decode.

use std::collections::BTreeSet;

use difftrace::CHECKERS;
use dt_baseline::{Baseline, CheckSection, CodeCount, DiffClass, Policy, TraceRecord};
use dt_trace::TraceId;
use proptest::prelude::*;

fn policy_strategy() -> impl Strategy<Value = Policy> {
    let classes = proptest::collection::vec(0usize..DiffClass::all().count(), 0..8);
    let shift = (0u32..2_000_000).prop_map(|v| f64::from(v) / 1000.0);
    // One keep-mask per registered checker over its code list (no
    // checker has more than 8 codes).
    let masks =
        proptest::collection::vec(proptest::collection::vec(any::<bool>(), 8), CHECKERS.len());
    (classes, shift, masks, any::<bool>(), any::<bool>()).prop_map(
        |(classes, shift, masks, new, removed)| {
            let all: Vec<DiffClass> = DiffClass::all().collect();
            Policy {
                tolerate: classes.into_iter().map(|i| all[i]).collect(),
                max_ranking_shift: shift,
                require_clean: CHECKERS
                    .iter()
                    .zip(masks)
                    .map(|(c, mask)| {
                        let kept = c.codes().into_iter().zip(mask).filter(|&(_, keep)| keep);
                        (c.name(), kept.map(|(code, _)| code.to_string()).collect())
                    })
                    .collect(),
                allow_new_traces: new,
                allow_removed_traces: removed,
            }
        },
    )
}

fn baseline_strategy() -> impl Strategy<Value = Baseline> {
    let trace = (
        0u32..64,
        0u32..4,
        any::<u64>(),
        any::<u64>(),
        0u32..1000,
        any::<bool>(),
    )
        .prop_map(|(p, t, hi, lo, score, truncated)| TraceRecord {
            id: TraceId::new(p, t),
            fingerprint: (u128::from(hi) << 64) | u128::from(lo),
            score: f64::from(score) / 8.0,
            truncated,
        });
    // One section per registered checker: a ran flag and counts of
    // (code index, errors, warnings).
    let section = (
        any::<bool>(),
        proptest::collection::vec((0usize..8, 0u8..10, 0u8..10), 0..4),
    );
    (
        proptest::collection::vec(trace, 0..12),
        proptest::collection::vec(section, CHECKERS.len()),
        0u64..10,
    )
        .prop_map(|(mut traces, sections, clusters)| {
            // Canonical form: unique trace ids in sorted order, unique
            // codes sorted — what `snapshot` always produces.
            traces.sort_by_key(|t| t.id);
            traces.dedup_by_key(|t| t.id);
            let outliers: Vec<TraceId> = traces.iter().take(2).map(|t| t.id).collect();
            let checks = CHECKERS
                .iter()
                .zip(sections)
                .map(|(c, (ran, counts))| {
                    let codes = c.codes();
                    let mut counts: Vec<CodeCount> = counts
                        .into_iter()
                        .map(|(i, e, w)| CodeCount {
                            code: codes[i % codes.len()].to_string(),
                            errors: u64::from(e),
                            warnings: u64::from(w),
                        })
                        .collect();
                    counts.sort_by(|a, b| a.code.cmp(&b.code));
                    counts.dedup_by(|a, b| a.code == b.code);
                    CheckSection {
                        name: c.name().to_string(),
                        ran,
                        counts,
                    }
                })
                .collect();
            Baseline {
                filter: "11.mpiall.K10".to_string(),
                attrs: "sing.actual".to_string(),
                traces,
                clusters,
                outliers,
                checks,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any policy survives a text round-trip exactly — the property
    /// that makes a committed policy file trustworthy.
    #[test]
    fn policy_text_roundtrips(p in policy_strategy()) {
        let text = p.to_text();
        let back = Policy::parse(&text).unwrap();
        prop_assert_eq!(&back, &p);
        // And the round-trip is a fixed point: re-rendering is stable.
        prop_assert_eq!(back.to_text(), text);
    }

    /// Any canonical baseline survives the sealed binary codec, and
    /// its encoding is deterministic.
    #[test]
    fn bundle_codec_roundtrips(b in baseline_strategy()) {
        let bytes = b.encode();
        prop_assert_eq!(&bytes, &b.encode());
        let back = Baseline::decode(&bytes).unwrap();
        prop_assert_eq!(back, b);
    }

    /// Flipping any one byte of a sealed bundle is always a diagnosed
    /// error — the seal leaves no silent corruption.
    #[test]
    fn bundle_rejects_any_flip(b in baseline_strategy(), pos in any::<u64>(), bit in 0u8..8) {
        let mut bytes = b.encode();
        let i = (pos % bytes.len() as u64) as usize;
        bytes[i] ^= 1 << bit;
        prop_assert!(Baseline::decode(&bytes).is_err());
    }
}

/// Non-property check kept next to the strategies: every class name a
/// strategy can emit parses back, so policies mentioning any subset of
/// classes stay readable by older readers of the same format.
#[test]
fn all_class_names_parse() {
    let mut seen = BTreeSet::new();
    for c in DiffClass::all() {
        assert_eq!(DiffClass::parse(c.as_str()).unwrap(), c);
        assert!(seen.insert(c.as_str()), "duplicate name {}", c.as_str());
    }
}
