//! `dt-diag` — shared diagnostic-report machinery for DiffTrace's
//! static analyzers.
//!
//! Both `tracelint` (TL001–TL006) and `hbcheck` (HB001–HB005) emit the
//! same *shape* of finding — a stable rule code, a severity, an
//! optional trace/span anchor, a message, and a fix hint — and render
//! reports with the same text and JSON grammar. This crate holds that
//! machinery once, generic over the analyzer's code enum via the
//! [`Code`] trait, so every analyzer gets canonical ordering (the
//! property that makes parallel runs byte-identical) and the stable
//! renderers for free.
//!
//! The renderers only ever consult [`Code::as_str`], so an analyzer's
//! output is a pure function of its diagnostics — factoring a concrete
//! report type through this crate cannot change a single output byte.
//!
//! [`witness_cycles`] is the one cycle finder behind the analyzers
//! whose findings are cycles: hbcheck's wait-for deadlocks and
//! racecheck's lock-order inversions.

mod cycles;

pub use cycles::witness_cycles;
use dt_trace::TraceId;
use std::collections::BTreeSet;
use std::fmt;

/// An analyzer's closed rule-code enum. The string form returned by
/// [`Code::as_str`] is part of the analyzer's output-format contract
/// (scripts grep for it); implementors must never renumber.
pub trait Code: Copy + Ord + fmt::Display {
    /// The stable code string, e.g. `"TL001"` or `"HB003"`.
    fn as_str(self) -> &'static str;

    /// One-line description of what the rule checks.
    fn title(self) -> &'static str;
}

/// Any analyzer's rule code with the analyzer's enum erased: the code
/// string and title of a [`Code`]. [`Report::erase`] maps a typed
/// report onto it, so callers that handle every analyzer alike (the
/// CLI, the daemon, gate failures) share one report type while the
/// renderers — which only consult [`Code::as_str`] — print the same
/// bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AnyCode {
    code: &'static str,
    title: &'static str,
}

impl fmt::Display for AnyCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code)
    }
}

impl Code for AnyCode {
    fn as_str(self) -> &'static str {
        self.code
    }

    fn title(self) -> &'static str {
        self.title
    }
}

/// How bad a diagnostic is.
///
/// `Error`s indicate inputs the analysis cannot trust (and fail a
/// `--gate deny` run); `Warning`s flag suspicious but analyzable
/// inputs — e.g. a truncated trace *is* the hang signature the paper
/// diffs against, so truncation alone is never an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but analyzable.
    Warning,
    /// The analyzer's assumptions are violated.
    Error,
}

impl Severity {
    /// Lower-case label used by both renderers.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// A half-open `[start, end)` range. For trace diagnostics the unit is
/// *event offsets* within the trace; configuration rules may use byte
/// offsets within a pattern string instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span {
    /// First offset covered.
    pub start: usize,
    /// One past the last offset covered.
    pub end: usize,
}

impl Span {
    /// `[start, end)`.
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }

    /// A single offset, `[at, at+1)`.
    pub fn at(at: usize) -> Span {
        Span {
            start: at,
            end: at + 1,
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// One finding: rule code, severity, optional trace/span anchor, a
/// human-readable message, and an optional fix hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic<C: Code> {
    /// Which rule fired.
    pub code: C,
    /// How bad it is.
    pub severity: Severity,
    /// The trace the finding anchors to; `None` for corpus-wide or
    /// configuration findings.
    pub trace: Option<TraceId>,
    /// Event-offset span; `None` when the finding has no precise
    /// location (e.g. compressed-domain checks).
    pub span: Option<Span>,
    /// What went wrong.
    pub message: String,
    /// How to fix it.
    pub hint: Option<String>,
}

impl<C: Code> Diagnostic<C> {
    /// A bare diagnostic; attach anchors with the `with_*` builders.
    pub fn new(code: C, severity: Severity, message: impl Into<String>) -> Diagnostic<C> {
        Diagnostic {
            code,
            severity,
            trace: None,
            span: None,
            message: message.into(),
            hint: None,
        }
    }

    /// Shorthand for an error.
    pub fn error(code: C, message: impl Into<String>) -> Diagnostic<C> {
        Diagnostic::new(code, Severity::Error, message)
    }

    /// Shorthand for a warning.
    pub fn warning(code: C, message: impl Into<String>) -> Diagnostic<C> {
        Diagnostic::new(code, Severity::Warning, message)
    }

    /// Anchor to a trace.
    pub fn with_trace(mut self, id: TraceId) -> Diagnostic<C> {
        self.trace = Some(id);
        self
    }

    /// Anchor to a span within the trace (or pattern).
    pub fn with_span(mut self, span: Span) -> Diagnostic<C> {
        self.span = Some(span);
        self
    }

    /// Attach a fix hint.
    pub fn with_hint(mut self, hint: impl Into<String>) -> Diagnostic<C> {
        self.hint = Some(hint.into());
        self
    }

    /// Canonical ordering key: per-trace findings first (by trace, then
    /// span start), then corpus-wide findings; ties broken by code,
    /// severity, and message so the full order is total. The report
    /// sorts by this, which is what makes output byte-identical
    /// regardless of how many threads produced the diagnostics.
    fn sort_key(&self) -> (bool, Option<TraceId>, usize, C, Severity, &str) {
        (
            self.trace.is_none(),
            self.trace,
            self.span.map_or(0, |s| s.start),
            self.code,
            self.severity,
            &self.message,
        )
    }
}

/// The result of an analysis pass: diagnostics in canonical order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report<C: Code> {
    diagnostics: Vec<Diagnostic<C>>,
}

impl<C: Code> Default for Report<C> {
    fn default() -> Report<C> {
        Report {
            diagnostics: Vec::new(),
        }
    }
}

impl<C: Code> Report<C> {
    /// Build a report, sorting `diagnostics` into canonical order.
    pub fn new(mut diagnostics: Vec<Diagnostic<C>>) -> Report<C> {
        diagnostics.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        Report { diagnostics }
    }

    /// The same report over [`AnyCode`]. The canonical order is kept
    /// as is (never re-sorted), so both render byte-identically.
    pub fn erase(self) -> Report<AnyCode> {
        let diagnostics = self
            .diagnostics
            .into_iter()
            .map(|d| Diagnostic {
                code: AnyCode {
                    code: d.code.as_str(),
                    title: d.code.title(),
                },
                severity: d.severity,
                trace: d.trace,
                span: d.span,
                message: d.message,
                hint: d.hint,
            })
            .collect();
        Report { diagnostics }
    }

    /// The findings, canonically ordered.
    pub fn diagnostics(&self) -> &[Diagnostic<C>] {
        &self.diagnostics
    }

    /// True if nothing fired.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True if any finding is an error (what `--gate deny` trips on).
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// The distinct rule codes that fired.
    pub fn codes(&self) -> BTreeSet<C> {
        self.diagnostics.iter().map(|d| d.code).collect()
    }

    /// The `(code, severity)` verdict set for one trace — the unit the
    /// compressed/expanded agreement property is stated over.
    pub fn verdicts_for(&self, id: TraceId) -> BTreeSet<(C, Severity)> {
        self.diagnostics
            .iter()
            .filter(|d| d.trace == Some(id))
            .map(|d| (d.code, d.severity))
            .collect()
    }

    /// Human-readable rendering, one finding per line (plus indented
    /// hint lines), ending with a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(d.severity.label());
            out.push('[');
            out.push_str(d.code.as_str());
            out.push(']');
            if let Some(t) = d.trace {
                out.push_str(&format!(" trace {t}"));
            }
            if let Some(s) = d.span {
                out.push_str(&format!(" @ {s}"));
            }
            out.push_str(": ");
            out.push_str(&d.message);
            out.push('\n');
            if let Some(h) = &d.hint {
                out.push_str("  hint: ");
                out.push_str(h);
                out.push('\n');
            }
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s)\n",
            self.error_count(),
            self.warning_count()
        ));
        out
    }

    /// JSON rendering (hand-rolled; the workspace has no serde). The
    /// schema is stable:
    ///
    /// ```json
    /// {"errors":1,"warnings":0,"diagnostics":[
    ///   {"code":"TL001","severity":"error","trace":"3.0",
    ///    "span":{"start":5,"end":6},"message":"…","hint":"…"}]}
    /// ```
    ///
    /// `trace`, `span`, and `hint` are omitted when absent.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"errors\":{},\"warnings\":{},\"diagnostics\":[",
            self.error_count(),
            self.warning_count()
        ));
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":\"{}\",\"severity\":\"{}\"",
                d.code.as_str(),
                d.severity.label()
            ));
            if let Some(t) = d.trace {
                out.push_str(&format!(",\"trace\":\"{t}\""));
            }
            if let Some(s) = d.span {
                out.push_str(&format!(
                    ",\"span\":{{\"start\":{},\"end\":{}}}",
                    s.start, s.end
                ));
            }
            out.push_str(",\"message\":\"");
            out.push_str(&dt_obs::json::escape(&d.message));
            out.push('"');
            if let Some(h) = &d.hint {
                out.push_str(",\"hint\":\"");
                out.push_str(&dt_obs::json::escape(h));
                out.push('"');
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    enum TestCode {
        Alpha,
        Beta,
    }

    impl fmt::Display for TestCode {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(self.as_str())
        }
    }

    impl Code for TestCode {
        fn as_str(self) -> &'static str {
            match self {
                TestCode::Alpha => "XX001",
                TestCode::Beta => "XX002",
            }
        }
        fn title(self) -> &'static str {
            match self {
                TestCode::Alpha => "alpha rule",
                TestCode::Beta => "beta rule",
            }
        }
    }

    #[test]
    fn report_sorts_canonically_and_counts() {
        let global = Diagnostic::warning(TestCode::Beta, "dead");
        let late = Diagnostic::error(TestCode::Alpha, "late")
            .with_trace(TraceId::master(1))
            .with_span(Span::at(9));
        let early = Diagnostic::error(TestCode::Beta, "early")
            .with_trace(TraceId::master(0))
            .with_span(Span::at(2));
        // Insertion order scrambled on purpose.
        let r = Report::new(vec![global.clone(), late.clone(), early.clone()]);
        assert_eq!(r.diagnostics(), &[early, late, global]);
        assert_eq!(r.error_count(), 2);
        assert_eq!(r.warning_count(), 1);
        assert!(r.has_errors());
        assert!(!r.is_clean());
        assert_eq!(r.codes().len(), 2);
    }

    #[test]
    fn text_rendering_shape() {
        let d = Diagnostic::error(TestCode::Alpha, "crossed return")
            .with_trace(TraceId::new(2, 1))
            .with_span(Span::new(4, 5))
            .with_hint("check instrumentation");
        let txt = Report::new(vec![d]).render_text();
        assert!(txt.contains("error[XX001] trace 2.1 @ [4, 5): crossed return"));
        assert!(txt.contains("  hint: check instrumentation"));
        assert!(txt.ends_with("1 error(s), 0 warning(s)\n"));
    }

    #[test]
    fn json_rendering_escapes_and_omits() {
        let d = Diagnostic::warning(TestCode::Beta, "pattern `a\"b\\` is dead");
        let js = Report::new(vec![d]).render_json();
        assert!(js.starts_with("{\"errors\":0,\"warnings\":1,"));
        assert!(js.contains(r#"pattern `a\"b\\` is dead"#));
        // No trace/span/hint keys when absent.
        assert!(!js.contains("\"trace\""));
        assert!(!js.contains("\"span\""));
        assert!(!js.contains("\"hint\""));
        let with_all = Diagnostic::error(TestCode::Alpha, "m")
            .with_trace(TraceId::master(7))
            .with_span(Span::at(3))
            .with_hint("h\nnewline");
        let js = Report::new(vec![with_all]).render_json();
        assert!(js.contains("\"trace\":\"7.0\""));
        assert!(js.contains("\"span\":{\"start\":3,\"end\":4}"));
        assert!(js.contains("\"hint\":\"h\\nnewline\""));
    }

    #[test]
    fn erased_report_renders_identically() {
        let r = Report::new(vec![
            Diagnostic::warning(TestCode::Beta, "w"),
            Diagnostic::error(TestCode::Alpha, "e").with_trace(TraceId::master(1)),
        ]);
        let erased = r.clone().erase();
        assert_eq!(r.render_text(), erased.render_text());
        assert_eq!(r.render_json(), erased.render_json());
        assert_eq!(erased.diagnostics()[0].code.title(), "alpha rule");
    }

    #[test]
    fn empty_report_is_clean() {
        let r: Report<TestCode> = Report::default();
        assert!(r.is_clean());
        assert!(!r.has_errors());
        assert_eq!(
            r.render_json(),
            "{\"errors\":0,\"warnings\":0,\"diagnostics\":[]}"
        );
    }

    #[test]
    fn verdicts_are_per_trace() {
        let a = Diagnostic::error(TestCode::Alpha, "x").with_trace(TraceId::master(0));
        let b = Diagnostic::warning(TestCode::Beta, "y").with_trace(TraceId::master(1));
        let r = Report::new(vec![a, b]);
        assert_eq!(
            r.verdicts_for(TraceId::master(0)),
            [(TestCode::Alpha, Severity::Error)].into_iter().collect()
        );
        assert_eq!(
            r.verdicts_for(TraceId::master(1)),
            [(TestCode::Beta, Severity::Warning)].into_iter().collect()
        );
        assert!(r.verdicts_for(TraceId::master(2)).is_empty());
    }
}
