//! The [`AssertionReport`]: one entry per policy clause, rendered as
//! text and JSON with a stable content hash.
//!
//! The renderers follow the dt-diag conventions (canonical ordering,
//! [`dt_obs::json::escape`] for strings) so a report is a pure
//! function of its findings: the same check renders the same bytes at
//! any thread count, with or without a cache — the property the
//! defect-injection suite pins.

use crate::policy::DiffClass;
use dt_obs::json;
use dt_trace::hash::StableHasher;

/// Outcome of one policy clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClauseStatus {
    /// No divergence of this class (or the policy allows it).
    Pass,
    /// Divergence observed and the policy does not tolerate it.
    Fail,
    /// Divergence observed, but the class is in the policy's
    /// `tolerate` set — reported, never gating.
    Tolerated,
    /// The clause could not be evaluated (e.g. no happens-before
    /// section in the recorded runs). Never gating.
    Skipped,
}

impl ClauseStatus {
    /// Stable label used by both renderers.
    pub fn label(self) -> &'static str {
        match self {
            ClauseStatus::Pass => "pass",
            ClauseStatus::Fail => "fail",
            ClauseStatus::Tolerated => "tolerated",
            ClauseStatus::Skipped => "skipped",
        }
    }
}

/// How many detail lines a clause renders before eliding the rest.
/// The elision line carries the suppressed count, so the report stays
/// deterministic (and diffable) for any corpus size.
const DETAIL_CAP: usize = 8;

/// One evaluated policy clause.
#[derive(Debug, Clone, PartialEq)]
pub struct ClauseEntry {
    /// Which divergence class the clause judges.
    pub class: DiffClass,
    /// Its outcome.
    pub status: ClauseStatus,
    /// One-line summary ("3 of 8 fingerprints changed"); empty on a
    /// quiet pass.
    pub summary: String,
    /// Per-finding detail lines, in canonical (trace/code) order.
    pub details: Vec<String>,
}

/// The result of `baseline check`: the candidate's verdict under every
/// policy clause.
#[derive(Debug, Clone, PartialEq)]
pub struct AssertionReport {
    /// Label of the candidate run (its file path in CLI use).
    pub candidate: String,
    /// Seal digest of the baseline bundle the check ran against.
    pub baseline_hash: u128,
    /// One entry per [`DiffClass`], in [`DiffClass::all`] order.
    pub clauses: Vec<ClauseEntry>,
}

impl AssertionReport {
    /// True when no clause failed (tolerated and skipped clauses do
    /// not gate).
    pub fn passed(&self) -> bool {
        !self.clauses.iter().any(|c| c.status == ClauseStatus::Fail)
    }

    /// The failed clauses, in report order.
    pub fn failures(&self) -> Vec<DiffClass> {
        self.clauses
            .iter()
            .filter(|c| c.status == ClauseStatus::Fail)
            .map(|c| c.class)
            .collect()
    }

    /// Stable digest of the report's verdict-relevant content. Two
    /// checks that observed the same divergences produce the same
    /// hash, whatever machine or thread count computed them.
    pub fn report_hash(&self) -> u128 {
        let mut h = StableHasher::new();
        h.write_str(&self.candidate);
        h.write_u128(self.baseline_hash);
        h.write_u64(self.clauses.len() as u64);
        for c in &self.clauses {
            h.write_str(c.class.as_str());
            h.write_str(c.status.label());
            h.write_str(&c.summary);
            h.write_u64(c.details.len() as u64);
            for d in &c.details {
                h.write_str(d);
            }
        }
        h.finish()
    }

    /// Human-readable rendering.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "baseline check: {}\n  baseline bundle {:#034x}\n",
            self.candidate, self.baseline_hash
        );
        for c in &self.clauses {
            let status = match c.status {
                ClauseStatus::Fail => "FAIL",
                other => other.label(),
            };
            out.push_str(&format!("  {:<16} {:<9}", c.class.as_str(), status));
            if !c.summary.is_empty() {
                out.push_str(&format!(" {}", c.summary));
            }
            out.push('\n');
            for d in c.details.iter().take(DETAIL_CAP) {
                out.push_str(&format!("      {d}\n"));
            }
            if c.details.len() > DETAIL_CAP {
                out.push_str(&format!(
                    "      … and {} more\n",
                    c.details.len() - DETAIL_CAP
                ));
            }
        }
        let verdict = if self.passed() {
            "verdict: pass".to_string()
        } else {
            let names: Vec<&str> = self.failures().iter().map(|c| c.as_str()).collect();
            format!("verdict: FAIL ({})", names.join(", "))
        };
        out.push_str(&verdict);
        out.push('\n');
        out
    }

    /// Machine-readable rendering (schema
    /// `difftrace-baseline-report/v1`), one JSON document.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"difftrace-baseline-report/v1\",");
        out.push_str(&format!(
            "\"candidate\":\"{}\",",
            json::escape(&self.candidate)
        ));
        out.push_str(&format!(
            "\"baseline_hash\":\"{:032x}\",",
            self.baseline_hash
        ));
        out.push_str(&format!(
            "\"verdict\":\"{}\",",
            if self.passed() { "pass" } else { "fail" }
        ));
        out.push_str("\"clauses\":[");
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"class\":\"{}\",\"status\":\"{}\",\"summary\":\"{}\",\"details\":[",
                c.class.as_str(),
                c.status.label(),
                json::escape(&c.summary)
            ));
            for (j, d) in c.details.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\"", json::escape(d)));
            }
            out.push_str("]}");
        }
        out.push_str(&format!(
            "],\"report_hash\":\"{:032x}\"}}\n",
            self.report_hash()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(status: ClauseStatus) -> AssertionReport {
        AssertionReport {
            candidate: "runs/faulty.dtts".to_string(),
            baseline_hash: 0xabcd,
            clauses: DiffClass::all()
                .map(|class| ClauseEntry {
                    class,
                    status: if class == DiffClass::NlrChanged {
                        status
                    } else {
                        ClauseStatus::Pass
                    },
                    summary: if class == DiffClass::NlrChanged {
                        "1 of 2 fingerprints changed".to_string()
                    } else {
                        String::new()
                    },
                    details: if class == DiffClass::NlrChanged {
                        vec!["1.0: fingerprint changed".to_string()]
                    } else {
                        Vec::new()
                    },
                })
                .collect(),
        }
    }

    #[test]
    fn verdict_follows_failures() {
        assert!(sample(ClauseStatus::Pass).passed());
        assert!(sample(ClauseStatus::Tolerated).passed());
        assert!(sample(ClauseStatus::Skipped).passed());
        let failing = sample(ClauseStatus::Fail);
        assert!(!failing.passed());
        assert_eq!(failing.failures(), vec![DiffClass::NlrChanged]);
    }

    #[test]
    fn renderings_are_deterministic_and_valid() {
        let r = sample(ClauseStatus::Fail);
        assert_eq!(r.render_text(), r.render_text());
        assert_eq!(r.render_json(), r.render_json());
        assert_eq!(r.report_hash(), r.report_hash());
        let doc = r.render_json();
        dt_obs::json::parse(&doc).expect("valid JSON");
        assert!(doc.contains("\"verdict\":\"fail\""), "{doc}");
        assert!(r.render_text().contains("verdict: FAIL (nlr-changed)"));
    }

    #[test]
    fn detail_cap_elides_deterministically() {
        let mut r = sample(ClauseStatus::Fail);
        r.clauses[2].details = (0..20).map(|i| format!("0.{i}: changed")).collect();
        let text = r.render_text();
        assert!(text.contains("… and 12 more"), "{text}");
        // The JSON document carries every detail — only text elides.
        let json = r.render_json();
        assert!(json.contains("0.19: changed"), "{json}");
    }

    #[test]
    fn report_hash_discriminates() {
        let pass = sample(ClauseStatus::Pass);
        let fail = sample(ClauseStatus::Fail);
        assert_ne!(pass.report_hash(), fail.report_hash());
    }
}
