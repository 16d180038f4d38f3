//! `tracelint` — static analysis for whole-program traces.
//!
//! DiffTrace's diffing pipeline (filter → NLR → FCA → JSM → ranking)
//! silently trusts its inputs: an unbalanced call/return stream, a
//! rank-divergent collective order, or a dead filter pattern flows
//! straight into the summarization stages and corrupts the ranking
//! downstream. `tracelint` checks traces and pipeline configuration
//! *before* diffing and emits structured diagnostics with stable rule
//! codes, so problems are reported at the input where they originate
//! instead of as a mysterious B-score three stages later.
//!
//! # Rule catalog
//!
//! | code  | checks                                             | compressed-domain |
//! |-------|----------------------------------------------------|-------------------|
//! | TL001 | call/return balance and stack discipline           | yes ([`nlr::summary::StackEffect`]) |
//! | TL002 | cross-rank collective-sequence consistency         | yes (projected compressed streams) |
//! | TL003 | truncated/poisoned/empty-trace detection           | yes (shares TL001's stack effects) |
//! | TL004 | dead-filter analysis (patterns matching nothing)   | n/a (configuration rule) |
//! | TL005 | NLR lossless-roundtrip verification                | n/a (relates both domains) |
//! | TL006 | FCA lattice postconditions (Godin invariants)      | n/a (`--deep` only) |
//!
//! Rules TL001–TL003 have two implementations: the *expanded* rules in
//! [`rules`] walk raw event streams and report precise event offsets;
//! the *compressed* rules in [`compressed`] run directly on the
//! NLR-compressed term without expansion — O(compressed size) instead
//! of O(trace), in the spirit of Kini et al.'s compressed-trace race
//! detection. A property test asserts the two always agree on the
//! verdict.
//!
//! The diagnostic/report machinery (severities, spans, canonical
//! ordering, text+JSON renderers) lives in the shared [`dt_diag`]
//! crate, generic over the rule-code enum; this crate instantiates it
//! with [`RuleCode`] and re-exports the concrete types under their
//! original names, so the output format is unchanged byte for byte.
//!
//! This crate is pure analysis: it depends on the substrate crates
//! (`dt-trace`, `dt-diag`, `nlr`, `fca`, `mpisim`, `rex`) but not on
//! the pipeline. The `difftrace` crate wires it into `PipelineOptions`
//! gating and the `difftrace lint` CLI subcommand.

pub mod compressed;
pub mod rules;

pub use dt_diag::{AnyCode, Code, Report, Severity, Span};
use std::fmt;

/// A lint finding, anchored by a [`RuleCode`].
pub type Diagnostic = dt_diag::Diagnostic<RuleCode>;

/// The result of a lint pass: diagnostics in canonical order.
pub type LintReport = dt_diag::Report<RuleCode>;

/// Stable rule identifiers. The numeric codes are part of the output
/// format contract (scripts grep for them); never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleCode {
    /// TL001 — call/return balance and stack discipline.
    StackDiscipline,
    /// TL002 — cross-rank collective-sequence consistency.
    CollectiveOrder,
    /// TL003 — truncated / poisoned / empty trace.
    Truncation,
    /// TL004 — filter pattern that selects nothing (or cannot).
    DeadFilter,
    /// TL005 — NLR expansion does not reproduce the original stream.
    NlrRoundtrip,
    /// TL006 — FCA lattice postcondition (Godin invariant) violated.
    LatticeInvariant,
}

impl RuleCode {
    /// The stable `TL0xx` code string.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleCode::StackDiscipline => "TL001",
            RuleCode::CollectiveOrder => "TL002",
            RuleCode::Truncation => "TL003",
            RuleCode::DeadFilter => "TL004",
            RuleCode::NlrRoundtrip => "TL005",
            RuleCode::LatticeInvariant => "TL006",
        }
    }

    /// One-line description of what the rule checks.
    pub fn title(self) -> &'static str {
        match self {
            RuleCode::StackDiscipline => "call/return balance and stack discipline",
            RuleCode::CollectiveOrder => "cross-rank collective-sequence consistency",
            RuleCode::Truncation => "truncated or poisoned trace",
            RuleCode::DeadFilter => "dead filter pattern",
            RuleCode::NlrRoundtrip => "NLR lossless roundtrip",
            RuleCode::LatticeInvariant => "FCA lattice postconditions",
        }
    }
}

impl fmt::Display for RuleCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl dt_diag::Code for RuleCode {
    fn as_str(self) -> &'static str {
        RuleCode::as_str(self)
    }

    fn title(self) -> &'static str {
        RuleCode::title(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_trace::TraceId;

    #[test]
    fn codes_are_stable() {
        assert_eq!(RuleCode::StackDiscipline.to_string(), "TL001");
        assert_eq!(RuleCode::CollectiveOrder.to_string(), "TL002");
        assert_eq!(RuleCode::Truncation.to_string(), "TL003");
        assert_eq!(RuleCode::DeadFilter.to_string(), "TL004");
        assert_eq!(RuleCode::NlrRoundtrip.to_string(), "TL005");
        assert_eq!(RuleCode::LatticeInvariant.to_string(), "TL006");
    }

    #[test]
    fn report_sorts_canonically_and_counts() {
        let global = Diagnostic::warning(RuleCode::DeadFilter, "dead");
        let late = Diagnostic::error(RuleCode::StackDiscipline, "late")
            .with_trace(TraceId::master(1))
            .with_span(Span::at(9));
        let early = Diagnostic::error(RuleCode::Truncation, "early")
            .with_trace(TraceId::master(0))
            .with_span(Span::at(2));
        // Insertion order scrambled on purpose.
        let r = LintReport::new(vec![global.clone(), late.clone(), early.clone()]);
        assert_eq!(r.diagnostics(), &[early, late, global]);
        assert_eq!(r.error_count(), 2);
        assert_eq!(r.warning_count(), 1);
        assert!(r.has_errors());
        assert!(!r.is_clean());
        assert_eq!(r.codes().len(), 3);
    }

    #[test]
    fn text_rendering_shape() {
        let d = Diagnostic::error(RuleCode::StackDiscipline, "crossed return")
            .with_trace(TraceId::new(2, 1))
            .with_span(Span::new(4, 5))
            .with_hint("check instrumentation");
        let txt = LintReport::new(vec![d]).render_text();
        assert!(txt.contains("error[TL001] trace 2.1 @ [4, 5): crossed return"));
        assert!(txt.contains("  hint: check instrumentation"));
        assert!(txt.ends_with("1 error(s), 0 warning(s)\n"));
    }

    #[test]
    fn json_rendering_escapes_and_omits() {
        let d = Diagnostic::warning(RuleCode::DeadFilter, "pattern `a\"b\\` is dead");
        let js = LintReport::new(vec![d]).render_json();
        assert!(js.starts_with("{\"errors\":0,\"warnings\":1,"));
        assert!(js.contains(r#"pattern `a\"b\\` is dead"#));
        // No trace/span/hint keys when absent.
        assert!(!js.contains("\"trace\""));
        assert!(!js.contains("\"span\""));
        assert!(!js.contains("\"hint\""));
        let with_all = Diagnostic::error(RuleCode::NlrRoundtrip, "m")
            .with_trace(TraceId::master(7))
            .with_span(Span::at(3))
            .with_hint("h\nnewline");
        let js = LintReport::new(vec![with_all]).render_json();
        assert!(js.contains("\"trace\":\"7.0\""));
        assert!(js.contains("\"span\":{\"start\":3,\"end\":4}"));
        assert!(js.contains("\"hint\":\"h\\nnewline\""));
    }

    #[test]
    fn empty_report_is_clean() {
        let r = LintReport::default();
        assert!(r.is_clean());
        assert!(!r.has_errors());
        assert_eq!(
            r.render_json(),
            "{\"errors\":0,\"warnings\":0,\"diagnostics\":[]}"
        );
    }
}
