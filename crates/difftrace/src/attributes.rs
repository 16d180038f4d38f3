//! Table V attribute mining.
//!
//! Attributes are mined *from the NLR* of each trace: each attribute is
//! either a **single** entry of the summarized sequence (a function
//! name or a loop ID `L<n>`) or a **double** — a pair of consecutive
//! entries (`a→b`), which encodes calling-context-like information.
//! Each attribute carries a frequency, encoded per [`FreqMode`]:
//! `actual` (observed count; loop entries weigh their iteration count),
//! `log10` (compressed), or `noFreq` (presence only).

use nlr::{Element, LoopId, Nlr};
use std::collections::BTreeMap;
use std::fmt;

/// Single entries or consecutive pairs (Table V rows), plus the
/// caller/callee extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrKind {
    /// Each entry of the trace NLR.
    Single,
    /// Each pair of consecutive entries.
    Double,
    /// Caller→callee pairs recovered from call/return nesting — the
    /// "pairs of function calls … this reflects calling context"
    /// vantage point the paper inherits from Weber et al. Requires a
    /// filter that keeps returns (otherwise nesting is unknown and the
    /// mining falls back to [`AttrKind::Double`] semantics).
    CallerCallee,
}

/// Frequency encoding (Table V columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FreqMode {
    /// The observed frequency.
    Actual,
    /// `log10(frequency) + 1` — compresses large trip-count gaps while
    /// keeping presence weight ≥ 1.
    Log10,
    /// Presence/absence only (weight 1).
    NoFreq,
}

/// One attribute-mining configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttrConfig {
    /// Entry granularity.
    pub kind: AttrKind,
    /// Frequency encoding.
    pub freq: FreqMode,
}

impl AttrConfig {
    /// All six Table V combinations, for parameter sweeps.
    pub const ALL: [AttrConfig; 6] = [
        AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::Actual,
        },
        AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::Log10,
        },
        AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::NoFreq,
        },
        AttrConfig {
            kind: AttrKind::Double,
            freq: FreqMode::Actual,
        },
        AttrConfig {
            kind: AttrKind::Double,
            freq: FreqMode::Log10,
        },
        AttrConfig {
            kind: AttrKind::Double,
            freq: FreqMode::NoFreq,
        },
    ];

    /// Table V plus the caller/callee extension — nine combinations.
    pub const EXTENDED: [AttrConfig; 9] = [
        AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::Actual,
        },
        AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::Log10,
        },
        AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::NoFreq,
        },
        AttrConfig {
            kind: AttrKind::Double,
            freq: FreqMode::Actual,
        },
        AttrConfig {
            kind: AttrKind::Double,
            freq: FreqMode::Log10,
        },
        AttrConfig {
            kind: AttrKind::Double,
            freq: FreqMode::NoFreq,
        },
        AttrConfig {
            kind: AttrKind::CallerCallee,
            freq: FreqMode::Actual,
        },
        AttrConfig {
            kind: AttrKind::CallerCallee,
            freq: FreqMode::Log10,
        },
        AttrConfig {
            kind: AttrKind::CallerCallee,
            freq: FreqMode::NoFreq,
        },
    ];
}

impl fmt::Display for AttrConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = match self.kind {
            AttrKind::Single => "sing",
            AttrKind::Double => "doub",
            AttrKind::CallerCallee => "ctxt",
        };
        let m = match self.freq {
            FreqMode::Actual => "actual",
            FreqMode::Log10 => "log10",
            FreqMode::NoFreq => "noFreq",
        };
        write!(f, "{k}.{m}")
    }
}

impl std::str::FromStr for AttrConfig {
    type Err = String;

    /// Parse an attribute code like `sing.actual` / `doub.noFreq` /
    /// `ctxt.log10`.
    fn from_str(code: &str) -> Result<AttrConfig, String> {
        let (k, m) = code
            .split_once('.')
            .ok_or_else(|| format!("attribute code `{code}` must be <kind>.<freq>"))?;
        let kind = match k {
            "sing" => AttrKind::Single,
            "doub" => AttrKind::Double,
            "ctxt" => AttrKind::CallerCallee,
            other => return Err(format!("unknown attribute kind `{other}`")),
        };
        let freq = match m {
            "actual" => FreqMode::Actual,
            "log10" => FreqMode::Log10,
            "noFreq" | "nofreq" => FreqMode::NoFreq,
            other => return Err(format!("unknown frequency mode `{other}`")),
        };
        Ok(AttrConfig { kind, freq })
    }
}

/// Occurrence weight of one NLR element: a symbol counts 1, a loop
/// counts its iteration count (it stands for that many body executions).
fn entry_weight(e: Element) -> f64 {
    match e {
        Element::Sym(_) => 1.0,
        Element::Loop { count, .. } => count as f64,
    }
}

/// Mine the attribute set `{attr: weight}` of one trace, name-sorted.
///
/// `symbols` is the filtered pre-NLR stream (needed for the
/// caller/callee kind, which recovers nesting from call/return bits);
/// `nlr` is its summarization (used for single/double kinds). Loop
/// entries are labelled `L<n>` by their loop id.
pub fn mine<F: Fn(u32) -> String>(
    symbols: &[u32],
    nlr: &Nlr,
    cfg: AttrConfig,
    name: &F,
) -> Vec<(String, f64)> {
    mine_labelled(symbols, nlr, cfg, name, &|id: LoopId| id.to_string())
}

/// [`mine`] with loop entries labelled by `loop_label`. Entries that
/// render to the same label are one attribute: their counts add up
/// before the [`FreqMode`] transform.
pub(crate) fn mine_labelled<F, L>(
    symbols: &[u32],
    nlr: &Nlr,
    cfg: AttrConfig,
    name: &F,
    loop_label: &L,
) -> Vec<(String, f64)>
where
    F: Fn(u32) -> String,
    L: Fn(LoopId) -> String,
{
    let label = |e: Element| match e {
        Element::Sym(s) => name(s),
        Element::Loop { body, .. } => loop_label(body),
    };
    let mut freq: BTreeMap<String, f64> = BTreeMap::new();
    let elems = nlr.elements();
    match cfg.kind {
        AttrKind::Single => {
            for &e in elems {
                *freq.entry(label(e)).or_insert(0.0) += entry_weight(e);
            }
        }
        AttrKind::Double => {
            mine_double(elems, &label, &mut freq);
        }
        AttrKind::CallerCallee => {
            if !mine_caller_callee(symbols, name, &mut freq) {
                // No return events in the stream: nesting unknown.
                mine_double(elems, &label, &mut freq);
            }
        }
    }
    freq.into_iter()
        .map(|(k, f)| {
            let w = match cfg.freq {
                FreqMode::Actual => f,
                FreqMode::Log10 => f.log10() + 1.0,
                FreqMode::NoFreq => 1.0,
            };
            (k, w)
        })
        .collect()
}

fn mine_double<E: Fn(Element) -> String>(
    elems: &[Element],
    label: &E,
    freq: &mut BTreeMap<String, f64>,
) {
    for w in elems.windows(2) {
        let key = format!("{}→{}", label(w[0]), label(w[1]));
        *freq.entry(key).or_insert(0.0) += 1.0;
    }
    // A 1-element trace still yields its lone entry so the object is
    // not empty.
    if elems.len() == 1 {
        freq.insert(label(elems[0]), 1.0);
    }
}

/// Caller→callee pairs from call/return nesting. Returns false when
/// the stream contains no returns (nesting unrecoverable).
fn mine_caller_callee<F: Fn(u32) -> String>(
    symbols: &[u32],
    name: &F,
    freq: &mut BTreeMap<String, f64>,
) -> bool {
    use dt_trace::TraceEvent;
    if !symbols
        .iter()
        .any(|&s| TraceEvent::from_symbol(s).is_return())
    {
        return false;
    }
    let mut stack: Vec<u32> = Vec::new();
    for &sym in symbols {
        let e = TraceEvent::from_symbol(sym);
        if e.is_call() {
            let callee = e.fn_id().0;
            let key = match stack.last() {
                Some(&caller) => format!("{}⇒{}", name(caller << 1), name(callee << 1)),
                None => format!("⊤⇒{}", name(callee << 1)),
            };
            *freq.entry(key).or_insert(0.0) += 1.0;
            stack.push(callee);
        } else {
            // Tolerate unbalanced streams (filters may drop the call
            // side of a pair): pop the matching frame if present.
            if let Some(pos) = stack.iter().rposition(|&f| f == e.fn_id().0) {
                stack.truncate(pos);
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlr::{LoopTable, NlrBuilder};

    fn names(s: u32) -> String {
        format!("f{s}")
    }

    fn sample_nlr() -> (Vec<u32>, Nlr, LoopTable) {
        let mut table = LoopTable::new();
        // f0 (f1 f2)^4 f3 f0
        let input = vec![0, 1, 2, 1, 2, 1, 2, 1, 2, 3, 0];
        let nlr = NlrBuilder::new(10).build(&input, &mut table);
        (input, nlr, table)
    }

    #[test]
    fn single_actual_counts_loops_by_iterations() {
        let (input, nlr, _t) = sample_nlr();
        let attrs = mine(
            &input,
            &nlr,
            AttrConfig {
                kind: AttrKind::Single,
                freq: FreqMode::Actual,
            },
            &names,
        );
        let get = |k: &str| attrs.iter().find(|(a, _)| a == k).map(|(_, w)| *w);
        assert_eq!(get("f0"), Some(2.0));
        assert_eq!(get("L0"), Some(4.0)); // loop weighted by trip count
        assert_eq!(get("f3"), Some(1.0));
    }

    #[test]
    fn nofreq_flattens_weights() {
        let (input, nlr, _t) = sample_nlr();
        let attrs = mine(
            &input,
            &nlr,
            AttrConfig {
                kind: AttrKind::Single,
                freq: FreqMode::NoFreq,
            },
            &names,
        );
        assert!(attrs.iter().all(|(_, w)| *w == 1.0));
    }

    #[test]
    fn log10_compresses() {
        let (input, nlr, _t) = sample_nlr();
        let attrs = mine(
            &input,
            &nlr,
            AttrConfig {
                kind: AttrKind::Single,
                freq: FreqMode::Log10,
            },
            &names,
        );
        let l0 = attrs.iter().find(|(a, _)| a == "L0").unwrap().1;
        assert!((l0 - (4.0f64.log10() + 1.0)).abs() < 1e-12);
        let f3 = attrs.iter().find(|(a, _)| a == "f3").unwrap().1;
        assert!((f3 - 1.0).abs() < 1e-12); // log10(1)+1
    }

    #[test]
    fn double_attrs_are_consecutive_pairs() {
        let (input, nlr, _t) = sample_nlr();
        let attrs = mine(
            &input,
            &nlr,
            AttrConfig {
                kind: AttrKind::Double,
                freq: FreqMode::Actual,
            },
            &names,
        );
        let keys: Vec<&str> = attrs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["L0→f3", "f0→L0", "f3→f0"]);
    }

    #[test]
    fn double_attrs_label_loops_on_both_sides_of_a_pair() {
        let mut table = LoopTable::new();
        // f0 (f1 f2)^4 (f3 f4)^2 f0, where f0 is a function named `L0`.
        let input = vec![0, 1, 2, 1, 2, 1, 2, 1, 2, 3, 4, 3, 4, 0];
        let nlr = NlrBuilder::new(10).build(&input, &mut table);
        let name = |s: u32| if s == 0 { "L0".to_string() } else { names(s) };
        let loop_label = |id: LoopId| ["L#cafe", "L#beef"][id.0 as usize].to_string();
        let attrs = mine_labelled(
            &input,
            &nlr,
            AttrConfig {
                kind: AttrKind::Double,
                freq: FreqMode::Actual,
            },
            &name,
            &loop_label,
        );
        let keys: Vec<&str> = attrs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["L#beef→L0", "L#cafe→L#beef", "L0→L#cafe"]);
    }

    #[test]
    fn singleton_trace_double_fallback() {
        let mut table = LoopTable::new();
        let nlr = NlrBuilder::new(10).build(&[5], &mut table);
        let attrs = mine(
            &[5],
            &nlr,
            AttrConfig {
                kind: AttrKind::Double,
                freq: FreqMode::NoFreq,
            },
            &names,
        );
        assert_eq!(attrs, vec![("f5".to_string(), 1.0)]);
    }

    #[test]
    fn caller_callee_uses_nesting() {
        use dt_trace::{FnId, TraceEvent};
        // main { a { b } b } encoded as call/return symbols.
        let sym = |f: u32, ret: bool| {
            if ret {
                TraceEvent::Return(FnId(f)).to_symbol()
            } else {
                TraceEvent::Call(FnId(f)).to_symbol()
            }
        };
        let stream = vec![
            sym(0, false), // main
            sym(1, false), // a
            sym(2, false), // b
            sym(2, true),
            sym(1, true),
            sym(2, false), // b again, from main
            sym(2, true),
            sym(0, true),
        ];
        let mut table = LoopTable::new();
        let nlr = NlrBuilder::new(10).build(&stream, &mut table);
        let name = |s: u32| format!("f{}", s >> 1);
        let attrs = mine(
            &stream,
            &nlr,
            AttrConfig {
                kind: AttrKind::CallerCallee,
                freq: FreqMode::Actual,
            },
            &name,
        );
        let get = |k: &str| attrs.iter().find(|(a, _)| a == k).map(|(_, w)| *w);
        assert_eq!(get("⊤⇒f0"), Some(1.0));
        assert_eq!(get("f0⇒f1"), Some(1.0));
        assert_eq!(get("f1⇒f2"), Some(1.0));
        assert_eq!(get("f0⇒f2"), Some(1.0), "second b is called from main");
    }

    #[test]
    fn caller_callee_without_returns_falls_back_to_double() {
        // Calls only: nesting unknown → consecutive-pair semantics.
        use dt_trace::{FnId, TraceEvent};
        let stream: Vec<u32> = [0u32, 1, 2]
            .iter()
            .map(|&f| TraceEvent::Call(FnId(f)).to_symbol())
            .collect();
        let mut table = LoopTable::new();
        let nlr = NlrBuilder::new(10).build(&stream, &mut table);
        let name = |s: u32| format!("f{}", s >> 1);
        let cc = mine(
            &stream,
            &nlr,
            AttrConfig {
                kind: AttrKind::CallerCallee,
                freq: FreqMode::NoFreq,
            },
            &name,
        );
        let dd = mine(
            &stream,
            &nlr,
            AttrConfig {
                kind: AttrKind::Double,
                freq: FreqMode::NoFreq,
            },
            &name,
        );
        assert_eq!(cc, dd);
    }

    #[test]
    fn attr_codes_parse_round_trip() {
        for cfg in AttrConfig::ALL {
            let parsed: AttrConfig = cfg.to_string().parse().unwrap();
            assert_eq!(parsed, cfg);
        }
        let c: AttrConfig = "ctxt.log10".parse().unwrap();
        assert_eq!(c.kind, AttrKind::CallerCallee);
        assert!("trip.actual".parse::<AttrConfig>().is_err());
        assert!("sing".parse::<AttrConfig>().is_err());
        assert!("sing.huge".parse::<AttrConfig>().is_err());
    }

    #[test]
    fn display_codes_match_paper() {
        assert_eq!(
            AttrConfig {
                kind: AttrKind::Single,
                freq: FreqMode::NoFreq
            }
            .to_string(),
            "sing.noFreq"
        );
        assert_eq!(
            AttrConfig {
                kind: AttrKind::Double,
                freq: FreqMode::Actual
            }
            .to_string(),
            "doub.actual"
        );
        assert_eq!(AttrConfig::ALL.len(), 6);
    }
}
