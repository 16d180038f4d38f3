//! Divergence classes and the serializable tolerance [`Policy`].
//!
//! A `baseline check` never judges "did any byte change" — it
//! classifies each divergence between the candidate and the baseline
//! into one [`DiffClass`] (four fixed classes, then one regression
//! class per registered checker) and judges each class under the
//! policy. The policy text format is a deliberately boring
//! `key = value` file (hand-parsed; the workspace carries no serde):
//! it diffs well in review, and a CI gate's tolerances belong in
//! version control next to the workflows that consume them.

use difftrace::{AnyChecker, CHECKERS};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::OnceLock;

/// The kinds of divergence a check can observe; each is one clause of
/// the [`crate::AssertionReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DiffClass {
    /// The candidate has a trace the baseline lacks.
    TraceAdded,
    /// A baseline trace is missing from the candidate.
    TraceRemoved,
    /// A trace present in both changed its NLR content fingerprint.
    NlrChanged,
    /// A trace's JSM row score moved more than the allowed shift.
    RankingShift,
    /// The candidate fires a required-clean code of the checker at this
    /// index of [`CHECKERS`] at error severity (`<tag>-regression`).
    Regression(usize),
}

impl DiffClass {
    /// Every class, in report (and evaluation) order: the four fixed
    /// classes, then one regression class per registered checker.
    pub fn all() -> impl Iterator<Item = DiffClass> {
        [
            DiffClass::TraceAdded,
            DiffClass::TraceRemoved,
            DiffClass::NlrChanged,
            DiffClass::RankingShift,
        ]
        .into_iter()
        .chain((0..CHECKERS.len()).map(DiffClass::Regression))
    }

    /// Stable name used in policy files, reports, and gate messages.
    pub fn as_str(self) -> &'static str {
        static REGRESSIONS: OnceLock<Vec<String>> = OnceLock::new();
        match self {
            DiffClass::TraceAdded => "trace-added",
            DiffClass::TraceRemoved => "trace-removed",
            DiffClass::NlrChanged => "nlr-changed",
            DiffClass::RankingShift => "ranking-shift",
            DiffClass::Regression(i) => &REGRESSIONS.get_or_init(|| {
                CHECKERS
                    .iter()
                    .map(|c| format!("{}-regression", c.tag()))
                    .collect()
            })[i],
        }
    }

    /// Parse a class name (the [`DiffClass::as_str`] form).
    pub fn parse(s: &str) -> Result<DiffClass, String> {
        DiffClass::all().find(|c| c.as_str() == s).ok_or_else(|| {
            let all: Vec<&str> = DiffClass::all().map(DiffClass::as_str).collect();
            format!("unknown diff class `{s}` ({})", all.join(", "))
        })
    }
}

impl fmt::Display for DiffClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What a candidate run is allowed to get away with. The default is
/// the strictest useful gate: nothing tolerated, zero ranking shift,
/// every analyzer code required clean, fixed trace population.
#[derive(Debug, Clone, PartialEq)]
pub struct Policy {
    /// Diff classes that report but never gate.
    pub tolerate: BTreeSet<DiffClass>,
    /// Maximum allowed |candidate − baseline| JSM row score per trace;
    /// strictly larger shifts fail. Scores are bit-deterministic, so
    /// the default `0.0` means "exactly the recorded ranking".
    pub max_ranking_shift: f64,
    /// Per registered checker, keyed by its name: the codes that must
    /// not fire at error severity (policy key `require_clean_<key>`).
    pub require_clean: BTreeMap<&'static str, BTreeSet<String>>,
    /// Whether traces absent from the baseline are acceptable.
    pub allow_new_traces: bool,
    /// Whether missing baseline traces are acceptable.
    pub allow_removed_traces: bool,
}

impl Default for Policy {
    fn default() -> Policy {
        Policy {
            tolerate: BTreeSet::new(),
            max_ranking_shift: 0.0,
            require_clean: CHECKERS
                .iter()
                .map(|c| (c.name(), c.codes().into_iter().map(String::from).collect()))
                .collect(),
            allow_new_traces: false,
            allow_removed_traces: false,
        }
    }
}

fn parse_bool(key: &str, v: &str) -> Result<bool, String> {
    match v {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(format!("{key}: expected true|false, got `{other}`")),
    }
}

/// A comma-separated set of `checker`'s codes; any other token is an
/// error, so a typo never leaves a code silently ungated.
fn parse_codes(key: &str, v: &str, checker: &dyn AnyChecker) -> Result<BTreeSet<String>, String> {
    let codes = checker.codes();
    let mut set = BTreeSet::new();
    for tok in v.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        if !codes.contains(&tok) {
            return Err(format!(
                "{key}: bad code token `{tok}`: not a {} code ({})",
                checker.name(),
                codes.join(", ")
            ));
        }
        set.insert(tok.to_string());
    }
    Ok(set)
}

impl Policy {
    /// Render as the policy text format. `Policy::parse` of the result
    /// reconstructs the policy exactly (property-tested).
    pub fn to_text(&self) -> String {
        let classes: Vec<&str> = self.tolerate.iter().map(|c| c.as_str()).collect();
        let mut out = format!(
            "# difftrace baseline policy\n\
             tolerate = {}\n\
             max_ranking_shift = {}\n",
            classes.join(","),
            self.max_ranking_shift,
        );
        for c in CHECKERS {
            let codes: Vec<&str> = self
                .require_clean
                .get(c.name())
                .into_iter()
                .flatten()
                .map(String::as_str)
                .collect();
            out.push_str(&format!(
                "require_clean_{} = {}\n",
                c.key(),
                codes.join(",")
            ));
        }
        out.push_str(&format!(
            "allow_new_traces = {}\n\
             allow_removed_traces = {}\n",
            self.allow_new_traces, self.allow_removed_traces,
        ));
        out
    }

    /// Parse the policy text format. Unknown keys and repeated keys are
    /// errors; omitted keys keep their [`Policy::default`] value, so a
    /// policy file can state only the tolerances it loosens.
    pub fn parse(text: &str) -> Result<Policy, String> {
        let mut policy = Policy::default();
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", lineno + 1))?;
            let (key, value) = (key.trim(), value.trim());
            let at = |msg: String| format!("line {}: {msg}", lineno + 1);
            match key {
                "tolerate" => {
                    let mut set = BTreeSet::new();
                    for tok in value.split(',') {
                        let tok = tok.trim();
                        if tok.is_empty() {
                            continue;
                        }
                        set.insert(DiffClass::parse(tok).map_err(&at)?);
                    }
                    policy.tolerate = set;
                }
                "max_ranking_shift" => {
                    let v: f64 = value
                        .parse()
                        .map_err(|_| at(format!("bad number `{value}`")))?;
                    if !v.is_finite() || v < 0.0 {
                        return Err(at(format!(
                            "max_ranking_shift must be a finite number ≥ 0, got `{value}`"
                        )));
                    }
                    policy.max_ranking_shift = v;
                }
                "allow_new_traces" => {
                    policy.allow_new_traces = parse_bool(key, value).map_err(&at)?;
                }
                "allow_removed_traces" => {
                    policy.allow_removed_traces = parse_bool(key, value).map_err(&at)?;
                }
                other => {
                    let checker = other
                        .strip_prefix("require_clean_")
                        .and_then(|k| CHECKERS.iter().find(|c| c.key() == k))
                        .ok_or_else(|| at(format!("unknown policy key `{other}`")))?;
                    let codes = parse_codes(key, value, *checker).map_err(&at)?;
                    policy.require_clean.insert(checker.name(), codes);
                }
            }
            // Checked after the value parse so the error for a bad
            // value on a fresh key wins over the duplicate complaint.
            if !seen.insert(key) {
                return Err(format!("line {}: duplicate policy key `{key}`", lineno + 1));
            }
        }
        Ok(policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_roundtrips() {
        let p = Policy::default();
        assert_eq!(Policy::parse(&p.to_text()).unwrap(), p);
    }

    /// The default renders exactly as it did when every checker had
    /// its own policy field, so committed policy files stay valid.
    #[test]
    fn default_text_is_pinned() {
        assert_eq!(
            Policy::default().to_text(),
            "# difftrace baseline policy\n\
             tolerate = \n\
             max_ranking_shift = 0\n\
             require_clean_tl = TL001,TL002,TL003,TL004,TL005,TL006\n\
             require_clean_hb = HB001,HB002,HB003,HB004,HB005\n\
             require_clean_race = RC001,RC002,RC003,RC004\n\
             require_clean_req = RQ001,RQ002,RQ003,RQ004,RQ005\n\
             allow_new_traces = false\n\
             allow_removed_traces = false\n"
        );
    }

    #[test]
    fn empty_text_is_the_default() {
        assert_eq!(Policy::parse("").unwrap(), Policy::default());
        assert_eq!(
            Policy::parse("# only a comment\n\n").unwrap(),
            Policy::default()
        );
    }

    #[test]
    fn partial_file_keeps_defaults_for_the_rest() {
        let p = Policy::parse("tolerate = ranking-shift\nmax_ranking_shift = 0.5\n").unwrap();
        assert!(p.tolerate.contains(&DiffClass::RankingShift));
        assert_eq!(p.max_ranking_shift, 0.5);
        assert_eq!(p.require_clean, Policy::default().require_clean);
        assert!(!p.allow_new_traces);
    }

    #[test]
    fn bad_inputs_error_with_line_numbers() {
        for (text, needle) in [
            ("tolerate = frobnicate", "unknown diff class"),
            ("max_ranking_shift = NaN", "finite number"),
            ("max_ranking_shift = -1", "finite number"),
            ("max_ranking_shift = plenty", "bad number"),
            ("allow_new_traces = yes", "true|false"),
            ("frobnication = on", "unknown policy key"),
            ("just some words", "key = value"),
            ("require_clean_tl = TL 001", "bad code token"),
            ("require_clean_hb = HB001, TL001", "not a hbcheck code"),
            ("require_clean_race = RC005", "not a racecheck code"),
            ("require_clean_lint = TL001", "unknown policy key"),
            (
                "tolerate = nlr-changed\ntolerate = trace-added",
                "duplicate policy key",
            ),
            (
                "allow_new_traces = true\nallow_new_traces = true",
                "duplicate policy key",
            ),
        ] {
            let err = Policy::parse(text).unwrap_err();
            assert!(err.contains(needle), "{text:?}: {err}");
        }
    }

    #[test]
    fn class_names_roundtrip() {
        for c in DiffClass::all() {
            assert_eq!(DiffClass::parse(c.as_str()).unwrap(), c);
        }
        assert!(DiffClass::parse("NLR-CHANGED").is_err());
        let names: Vec<&str> = DiffClass::all().map(DiffClass::as_str).collect();
        assert_eq!(
            names,
            [
                "trace-added",
                "trace-removed",
                "nlr-changed",
                "ranking-shift",
                "lint-regression",
                "hb-regression",
                "race-regression",
                "req-regression",
            ]
        );
    }
}
