//! The Table I front-end filters.
//!
//! Pre-processing extracts "the desired functions … based on predefined
//! or custom regular expressions" from decompressed ParLOT traces. A
//! [`FilterConfig`] combines the primary filters (drop returns, drop
//! `.plt` stubs) with a union of *keep classes*; an empty keep set
//! means "Everything".
//!
//! Filter codes render in the paper's style, e.g.
//! `11.mem.ompcrit.cust.K10` — first digit: returns dropped, second:
//! PLT dropped, then the keep classes, then the NLR constant.

use dt_trace::{TraceEvent, TraceId, TraceSet};
use rex::Regex;
use std::fmt;

/// One keep class of Table I.
#[derive(Debug, Clone)]
pub enum KeepClass {
    /// Functions starting with `MPI_`.
    MpiAll,
    /// MPI collective calls only.
    MpiCollectives,
    /// `MPI_Send`, `MPI_Isend`, `MPI_Recv`, `MPI_Irecv`, `MPI_Wait`.
    MpiSendRecv,
    /// Inner MPI library calls (`MPIDI_*`, `MPIR_*`, `MPID_*`) — only
    /// present when traces were captured in "all images" mode.
    MpiInternal,
    /// Functions starting with `GOMP_` (OpenMP runtime).
    OmpAll,
    /// `GOMP_critical_start` / `GOMP_critical_end` only.
    OmpCritical,
    /// Memory-related functions (memcpy, malloc, …).
    Memory,
    /// Network-related functions (tcp, socket, …).
    Network,
    /// Poll/yield/sched functions.
    Poll,
    /// String functions (strlen, strcpy, …).
    Strings,
    /// A custom regular expression (the "Advanced" row of Table I).
    Custom(String),
}

impl KeepClass {
    fn code(&self) -> &str {
        match self {
            KeepClass::MpiAll => "mpiall",
            KeepClass::MpiCollectives => "mpicol",
            KeepClass::MpiSendRecv => "mpisr",
            KeepClass::MpiInternal => "mpiint",
            KeepClass::OmpAll => "omp",
            KeepClass::OmpCritical => "ompcrit",
            KeepClass::Memory => "mem",
            KeepClass::Network => "net",
            KeepClass::Poll => "poll",
            KeepClass::Strings => "str",
            KeepClass::Custom(_) => "cust",
        }
    }
}

const MPI_COLLECTIVES: &[&str] = &[
    "MPI_Barrier",
    "MPI_Allreduce",
    "MPI_Reduce",
    "MPI_Bcast",
    "MPI_Allgather",
    "MPI_Gather",
    "MPI_Scatter",
    "MPI_Alltoall",
];

const MPI_SENDRECV: &[&str] = &["MPI_Send", "MPI_Isend", "MPI_Recv", "MPI_Irecv", "MPI_Wait"];

/// Compiled keep predicate for one class.
enum CompiledClass {
    Prefix(&'static str),
    OneOf(&'static [&'static str]),
    Re(Regex),
}

impl CompiledClass {
    fn matches(&self, name: &str) -> bool {
        match self {
            CompiledClass::Prefix(p) => name.starts_with(p),
            CompiledClass::OneOf(set) => set.contains(&name),
            CompiledClass::Re(re) => re.is_match(name),
        }
    }
}

fn compile_class(c: &KeepClass) -> CompiledClass {
    match c {
        KeepClass::MpiAll => CompiledClass::Prefix("MPI_"),
        KeepClass::MpiCollectives => CompiledClass::OneOf(MPI_COLLECTIVES),
        KeepClass::MpiSendRecv => CompiledClass::OneOf(MPI_SENDRECV),
        KeepClass::MpiInternal => {
            CompiledClass::Re(Regex::new("^(MPIDI_|MPIR_|MPID_)").expect("static pattern"))
        }
        KeepClass::OmpAll => CompiledClass::Prefix("GOMP_"),
        KeepClass::OmpCritical => {
            CompiledClass::Re(Regex::new("^GOMP_critical_(start|end)$").expect("static pattern"))
        }
        KeepClass::Memory => CompiledClass::Re(
            Regex::new_case_insensitive("memcpy|memchk|memset|memmove|alloc|free")
                .expect("static pattern"),
        ),
        KeepClass::Network => CompiledClass::Re(
            Regex::new_case_insensitive("network|tcp|socket|ib_|verbs").expect("static pattern"),
        ),
        KeepClass::Poll => CompiledClass::Re(
            Regex::new_case_insensitive("poll|yield|sched").expect("static pattern"),
        ),
        KeepClass::Strings => CompiledClass::Re(
            Regex::new_case_insensitive("^str(len|cpy|cmp|ncpy|ncmp|cat|chr)")
                .expect("static pattern"),
        ),
        // An invalid custom pattern matches nothing; callers surface
        // the error via `FilterConfig::validate` before running.
        KeepClass::Custom(pat) => match Regex::new(pat) {
            Ok(re) => CompiledClass::Re(re),
            Err(_) => CompiledClass::OneOf(&[]),
        },
    }
}

/// A full filter configuration.
#[derive(Debug, Clone)]
pub struct FilterConfig {
    /// Drop all return events (Table I "Returns").
    pub drop_returns: bool,
    /// Drop `.plt` lazy-binding stubs (Table I "PLT").
    pub drop_plt: bool,
    /// Keep classes (union). Empty = keep everything ("Everything").
    pub keep: Vec<KeepClass>,
    /// The NLR constant `K` used downstream (carried here because the
    /// paper's filter codes end in `K10`/`K50`).
    pub nlr_k: usize,
}

impl Default for FilterConfig {
    fn default() -> FilterConfig {
        FilterConfig {
            drop_returns: true,
            drop_plt: true,
            keep: Vec::new(),
            nlr_k: 10,
        }
    }
}

impl FilterConfig {
    /// "Everything" filter (drop returns + PLT only) with NLR `K`.
    pub fn everything(k: usize) -> FilterConfig {
        FilterConfig {
            nlr_k: k,
            ..FilterConfig::default()
        }
    }

    /// Keep only MPI functions (the odd/even walk-through's filter).
    pub fn mpi_all(k: usize) -> FilterConfig {
        FilterConfig {
            keep: vec![KeepClass::MpiAll],
            nlr_k: k,
            ..FilterConfig::default()
        }
    }

    /// A fully discriminating stable code for this configuration: like
    /// `Display`, but custom classes carry their pattern
    /// (`cust:<pattern>`), so two configs with equal codes filter every
    /// corpus identically. Used to deduplicate sweep grids — the
    /// rendered `Display` code elides custom patterns, which would
    /// conflate genuinely different filters.
    pub fn stable_code(&self) -> String {
        use std::fmt::Write;
        let mut out = format!("{}{}", u8::from(self.drop_returns), u8::from(self.drop_plt));
        if self.keep.is_empty() {
            out.push_str(".all");
        } else {
            for k in &self.keep {
                match k {
                    KeepClass::Custom(p) => {
                        let _ = write!(out, ".cust:{p}");
                    }
                    other => {
                        let _ = write!(out, ".{}", other.code());
                    }
                }
            }
        }
        let _ = write!(out, ".K{}", self.nlr_k);
        out
    }

    /// Validate custom patterns; returns an error message on a bad one.
    pub fn validate(&self) -> Result<(), String> {
        for k in &self.keep {
            if let KeepClass::Custom(p) = k {
                Regex::new(p).map_err(|e| format!("bad custom filter `{p}`: {e}"))?;
            }
        }
        Ok(())
    }

    /// Probe every keep class against a corpus of *distinct* function
    /// names, without re-scanning any trace. Regex-backed classes are
    /// counted through the rex match counter; prefix/set classes are
    /// counted directly. This powers tracelint's dead-filter rule
    /// (TL004).
    pub fn probe_classes(&self, names: &[String]) -> Vec<ClassProbe> {
        self.keep
            .iter()
            .map(|class| {
                let (pattern, parse_error) = match class {
                    KeepClass::Custom(p) => (
                        Some(p.clone()),
                        Regex::new(p).err().map(|e| (e.position, e.message)),
                    ),
                    _ => (None, None),
                };
                if let Some(err) = parse_error {
                    return ClassProbe {
                        code: class.code().to_string(),
                        pattern,
                        matched: 0,
                        parse_error: Some(err),
                        satisfiable: false,
                    };
                }
                let compiled = compile_class(class);
                let (matched, satisfiable) = match &compiled {
                    CompiledClass::Re(re) => {
                        re.reset_match_count();
                        for n in names {
                            re.is_match(n);
                        }
                        (re.match_count(), re.is_satisfiable())
                    }
                    _ => {
                        let hits = names.iter().filter(|n| compiled.matches(n)).count();
                        (hits as u64, true)
                    }
                };
                ClassProbe {
                    code: class.code().to_string(),
                    pattern,
                    matched,
                    parse_error: None,
                    satisfiable,
                }
            })
            .collect()
    }

    /// Apply to every trace of a set. Whether an event is kept depends
    /// only on its function, so the keep decision is made once per
    /// registered name and then looked up per event.
    pub fn apply(&self, set: &TraceSet) -> FilteredSet {
        let compiled: Vec<CompiledClass> = self.keep.iter().map(compile_class).collect();
        let keep: Vec<bool> = set
            .registry
            .names()
            .iter()
            .map(|name| {
                !(self.drop_plt && (name.ends_with("@plt") || name.contains(".plt")))
                    && (compiled.is_empty() || compiled.iter().any(|c| c.matches(name)))
            })
            .collect();
        let traces = set
            .iter()
            .map(|trace| FilteredTrace {
                id: trace.id,
                symbols: trace
                    .events
                    .iter()
                    .filter(|e| !(self.drop_returns && e.is_return()) && keep[e.fn_id().index()])
                    .map(|e| e.to_symbol())
                    .collect(),
                truncated: trace.truncated,
            })
            .collect();
        FilteredSet { traces }
    }
}

impl fmt::Display for FilterConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}",
            u8::from(self.drop_returns),
            u8::from(self.drop_plt)
        )?;
        if self.keep.is_empty() {
            write!(f, ".all")?;
        } else {
            for k in &self.keep {
                write!(f, ".{}", k.code())?;
            }
        }
        write!(f, ".K{}", self.nlr_k)
    }
}

/// Result of probing one keep class against a name corpus
/// ([`FilterConfig::probe_classes`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassProbe {
    /// The class's filter code (`mpiall`, `cust`, …).
    pub code: String,
    /// For custom classes, the pattern text.
    pub pattern: Option<String>,
    /// Distinct corpus names the class matched.
    pub matched: u64,
    /// Parse failure for a custom pattern: byte offset into the
    /// pattern, plus the parser's message.
    pub parse_error: Option<(usize, String)>,
    /// Whether the pattern can match *any* string (always true for
    /// built-in classes; `rex`'s satisfiability analysis for custom
    /// ones). `false` with no parse error means the pattern is
    /// structurally dead, e.g. `a^b`.
    pub satisfiable: bool,
}

/// How much of a trace set a filter keeps — the feedback a user needs
/// when turning the front-end-filter knob of the iterative loop
/// (Figure 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageStats {
    /// Events in the raw traces.
    pub total_events: usize,
    /// Events the filter keeps.
    pub kept_events: usize,
    /// Distinct function names among the kept events.
    pub distinct_kept: usize,
}

impl CoverageStats {
    /// Kept fraction in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        if self.total_events == 0 {
            0.0
        } else {
            self.kept_events as f64 / self.total_events as f64
        }
    }
}

impl FilterConfig {
    /// Measure what this filter keeps of `set`.
    pub fn coverage(&self, set: &TraceSet) -> CoverageStats {
        let filtered = self.apply(set);
        let total_events = set.iter().map(|t| t.events.len()).sum();
        let kept_events = filtered.traces.iter().map(|t| t.symbols.len()).sum();
        let distinct: std::collections::HashSet<u32> = filtered
            .traces
            .iter()
            .flat_map(|t| t.symbols.iter().map(|&s| s >> 1))
            .collect();
        CoverageStats {
            total_events,
            kept_events,
            distinct_kept: distinct.len(),
        }
    }
}

/// The predefined filters of Table I, named as the paper names them.
pub fn table_i_catalog(k: usize) -> Vec<(&'static str, FilterConfig)> {
    let with = |keep: Vec<KeepClass>| FilterConfig {
        keep,
        nlr_k: k,
        ..FilterConfig::default()
    };
    vec![
        ("Everything", FilterConfig::everything(k)),
        ("MPI All", with(vec![KeepClass::MpiAll])),
        ("MPI Collectives", with(vec![KeepClass::MpiCollectives])),
        ("MPI Send/Recv", with(vec![KeepClass::MpiSendRecv])),
        ("MPI Internal Library", with(vec![KeepClass::MpiInternal])),
        ("OMP All", with(vec![KeepClass::OmpAll])),
        ("OMP Critical", with(vec![KeepClass::OmpCritical])),
        ("Memory", with(vec![KeepClass::Memory])),
        ("Network", with(vec![KeepClass::Network])),
        ("Poll", with(vec![KeepClass::Poll])),
        ("String", with(vec![KeepClass::Strings])),
    ]
}

impl FilterConfig {
    /// Parse a filter code *without* validating custom patterns.
    ///
    /// `difftrace lint` uses this so that a bad custom regex becomes a
    /// TL004 diagnostic with a byte-offset span rather than an
    /// argument-parsing error.
    pub fn parse_lenient(code: &str) -> Result<FilterConfig, String> {
        FilterConfig::parse_code(code, false)
    }

    fn parse_code(code: &str, validate: bool) -> Result<FilterConfig, String> {
        let mut parts = code.split('.');
        let flags = parts.next().ok_or("empty filter code")?;
        if flags.len() != 2 || !flags.chars().all(|c| c == '0' || c == '1') {
            return Err(format!(
                "filter code must start with two 0/1 flags (returns, plt), got `{flags}`"
            ));
        }
        let mut cfg = FilterConfig {
            drop_returns: flags.as_bytes()[0] == b'1',
            drop_plt: flags.as_bytes()[1] == b'1',
            keep: Vec::new(),
            nlr_k: 10,
        };
        for part in parts {
            if let Some(k) = part.strip_prefix('K') {
                cfg.nlr_k = k
                    .parse::<usize>()
                    .map_err(|_| format!("bad NLR constant `{part}`"))?;
                if cfg.nlr_k == 0 {
                    return Err("NLR constant K must be ≥ 1".to_string());
                }
                continue;
            }
            let class = match part {
                "all" => continue, // "everything": empty keep set
                "mpiall" => KeepClass::MpiAll,
                "mpicol" => KeepClass::MpiCollectives,
                "mpisr" => KeepClass::MpiSendRecv,
                "mpiint" => KeepClass::MpiInternal,
                "omp" => KeepClass::OmpAll,
                "ompcrit" => KeepClass::OmpCritical,
                "mem" => KeepClass::Memory,
                "net" => KeepClass::Network,
                "poll" => KeepClass::Poll,
                "str" => KeepClass::Strings,
                other => match other.strip_prefix("cust:") {
                    Some(pat) => KeepClass::Custom(pat.to_string()),
                    None => return Err(format!("unknown filter class `{other}`")),
                },
            };
            cfg.keep.push(class);
        }
        if validate {
            cfg.validate()?;
        }
        Ok(cfg)
    }
}

impl std::str::FromStr for FilterConfig {
    type Err = String;

    /// Parse a filter code like `11.mem.ompcrit.K10` or
    /// `01.mpiall.cust:^CPU_.K50` (custom patterns follow `cust:`).
    fn from_str(code: &str) -> Result<FilterConfig, String> {
        FilterConfig::parse_code(code, true)
    }
}

/// One filtered trace: the kept events as NLR symbols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilteredTrace {
    /// Which thread.
    pub id: TraceId,
    /// Kept events, encoded via [`TraceEvent::to_symbol`].
    pub symbols: Vec<u32>,
    /// Carried over from the raw trace (deadlock-killed thread).
    pub truncated: bool,
}

/// All filtered traces of one execution.
#[derive(Debug, Clone, Default)]
pub struct FilteredSet {
    /// Per-thread filtered traces in `TraceId` order.
    pub traces: Vec<FilteredTrace>,
}

impl FilteredSet {
    /// Look up by ID.
    pub fn get(&self, id: TraceId) -> Option<&FilteredTrace> {
        self.traces.iter().find(|t| t.id == id)
    }

    /// The trace IDs, in order.
    pub fn ids(&self) -> Vec<TraceId> {
        self.traces.iter().map(|t| t.id).collect()
    }
}

/// Resolve an NLR symbol back to a display name: call events map to the
/// function name, return events to `ret <name>`.
pub fn symbol_name(registry: &dt_trace::FunctionRegistry, sym: u32) -> String {
    let e = TraceEvent::from_symbol(sym);
    let n = registry.name(e.fn_id());
    if e.is_return() {
        format!("ret {n}")
    } else {
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_trace::{FunctionRegistry, TraceCollector};
    use std::sync::Arc;

    fn sample_set() -> TraceSet {
        let collector = TraceCollector::shared(Arc::new(FunctionRegistry::new()));
        let tr = collector.tracer(TraceId::new(0, 0));
        {
            let _m = tr.enter("main");
            let _i = tr.enter("MPI_Init");
            drop(_i);
            tr.leaf("malloc@plt");
            tr.leaf("memcpy");
            tr.leaf("GOMP_critical_start");
            tr.leaf("GOMP_critical_end");
            tr.leaf("GOMP_barrier");
            tr.leaf("strlen");
            tr.leaf("MPI_Send");
            tr.leaf("MPI_Barrier");
            tr.leaf("CPU_Exec");
        }
        tr.finish();
        collector.into_trace_set()
    }

    fn names_of(set: &TraceSet, ft: &FilteredTrace) -> Vec<String> {
        ft.symbols
            .iter()
            .map(|&s| symbol_name(&set.registry, s))
            .collect()
    }

    #[test]
    fn everything_drops_returns_and_plt() {
        let set = sample_set();
        let f = FilterConfig::everything(10);
        let ft = f.apply(&set).traces.remove(0);
        let names = names_of(&set, &ft);
        assert!(names.contains(&"main".to_string()));
        assert!(names.contains(&"CPU_Exec".to_string()));
        assert!(!names.iter().any(|n| n.contains("plt")));
        assert!(!names.iter().any(|n| n.starts_with("ret ")));
    }

    #[test]
    fn keep_returns_when_configured() {
        let set = sample_set();
        let f = FilterConfig {
            drop_returns: false,
            ..FilterConfig::everything(10)
        };
        let ft = f.apply(&set).traces.remove(0);
        let names = names_of(&set, &ft);
        assert!(names.contains(&"ret main".to_string()));
    }

    #[test]
    fn mpi_filters() {
        let set = sample_set();
        let all = FilterConfig::mpi_all(10).apply(&set).traces.remove(0);
        assert_eq!(
            names_of(&set, &all),
            vec!["MPI_Init", "MPI_Send", "MPI_Barrier"]
        );
        let col = FilterConfig {
            keep: vec![KeepClass::MpiCollectives],
            ..FilterConfig::default()
        }
        .apply(&set)
        .traces
        .remove(0);
        assert_eq!(names_of(&set, &col), vec!["MPI_Barrier"]);
        let sr = FilterConfig {
            keep: vec![KeepClass::MpiSendRecv],
            ..FilterConfig::default()
        }
        .apply(&set)
        .traces
        .remove(0);
        assert_eq!(names_of(&set, &sr), vec!["MPI_Send"]);
    }

    #[test]
    fn omp_and_memory_and_string_classes() {
        let set = sample_set();
        let crit = FilterConfig {
            keep: vec![KeepClass::OmpCritical],
            ..FilterConfig::default()
        }
        .apply(&set)
        .traces
        .remove(0);
        assert_eq!(
            names_of(&set, &crit),
            vec!["GOMP_critical_start", "GOMP_critical_end"]
        );
        let omp = FilterConfig {
            keep: vec![KeepClass::OmpAll],
            ..FilterConfig::default()
        }
        .apply(&set)
        .traces
        .remove(0);
        assert_eq!(names_of(&set, &omp).len(), 3);
        let mem = FilterConfig {
            keep: vec![KeepClass::Memory],
            drop_plt: false,
            ..FilterConfig::default()
        }
        .apply(&set)
        .traces
        .remove(0);
        assert_eq!(names_of(&set, &mem), vec!["malloc@plt", "memcpy"]);
        let s = FilterConfig {
            keep: vec![KeepClass::Strings],
            ..FilterConfig::default()
        }
        .apply(&set)
        .traces
        .remove(0);
        assert_eq!(names_of(&set, &s), vec!["strlen"]);
    }

    #[test]
    fn union_of_classes_and_custom() {
        let set = sample_set();
        let f = FilterConfig {
            keep: vec![
                KeepClass::Memory,
                KeepClass::OmpCritical,
                KeepClass::Custom("^CPU_Exec$".to_string()),
            ],
            ..FilterConfig::default()
        };
        f.validate().unwrap();
        let ft = f.apply(&set).traces.remove(0);
        assert_eq!(
            names_of(&set, &ft),
            vec![
                "memcpy",
                "GOMP_critical_start",
                "GOMP_critical_end",
                "CPU_Exec"
            ]
        );
    }

    #[test]
    fn code_rendering() {
        let f = FilterConfig {
            drop_returns: true,
            drop_plt: true,
            keep: vec![
                KeepClass::Memory,
                KeepClass::OmpCritical,
                KeepClass::Custom("x".into()),
            ],
            nlr_k: 10,
        };
        assert_eq!(f.to_string(), "11.mem.ompcrit.cust.K10");
        assert_eq!(FilterConfig::everything(50).to_string(), "11.all.K50");
        let f2 = FilterConfig {
            drop_returns: false,
            ..FilterConfig::mpi_all(10)
        };
        assert_eq!(f2.to_string(), "01.mpiall.K10");
    }

    #[test]
    fn mpi_internal_class_matches_library_names() {
        let collector = dt_trace::TraceCollector::shared(Arc::new(FunctionRegistry::new()));
        let tr = collector.tracer(TraceId::new(0, 0));
        tr.leaf("MPI_Send");
        tr.leaf("MPIDI_CH3_EagerContigSend");
        tr.leaf("MPIR_Allreduce_intra");
        tr.leaf("tcp_sendmsg");
        tr.leaf("userFn");
        tr.finish();
        let set = collector.into_trace_set();
        let f = FilterConfig {
            keep: vec![KeepClass::MpiInternal],
            ..FilterConfig::default()
        };
        let ft = f.apply(&set).traces.remove(0);
        assert_eq!(
            names_of(&set, &ft),
            vec!["MPIDI_CH3_EagerContigSend", "MPIR_Allreduce_intra"]
        );
        // The code round-trips through FromStr.
        let parsed: FilterConfig = "11.mpiint.K10".parse().unwrap();
        assert!(matches!(parsed.keep[0], KeepClass::MpiInternal));
    }

    #[test]
    fn coverage_measures_kept_fraction() {
        let set = sample_set();
        let total: usize = set.iter().map(|t| t.events.len()).sum();
        let all = FilterConfig {
            drop_returns: false,
            drop_plt: false,
            ..FilterConfig::everything(10)
        }
        .coverage(&set);
        assert_eq!(all.total_events, total);
        assert_eq!(all.kept_events, total);
        assert!((all.fraction() - 1.0).abs() < 1e-12);

        let mpi = FilterConfig::mpi_all(10).coverage(&set);
        assert_eq!(mpi.kept_events, 3); // Init, Send, Barrier calls
        assert_eq!(mpi.distinct_kept, 3);
        assert!(mpi.fraction() < 0.5);

        let none = FilterConfig {
            keep: vec![KeepClass::Network],
            ..FilterConfig::default()
        }
        .coverage(&set);
        assert_eq!(none.kept_events, 0);
        assert_eq!(none.fraction(), 0.0);
    }

    #[test]
    fn table_i_catalog_is_complete() {
        let cat = table_i_catalog(10);
        assert_eq!(cat.len(), 11);
        assert!(cat.iter().any(|(n, _)| *n == "MPI Collectives"));
        // Every entry is valid and keeps a subset of "Everything".
        let set = sample_set();
        let everything = table_i_catalog(10)[0].1.coverage(&set).kept_events;
        for (name, f) in cat {
            f.validate().unwrap();
            assert!(
                f.coverage(&set).kept_events <= everything,
                "{name} keeps more than Everything"
            );
        }
    }

    #[test]
    fn filter_codes_parse_round_trip() {
        for code in [
            "11.all.K10",
            "01.mpiall.K50",
            "11.mem.ompcrit.K10",
            "10.mpicol.mpisr.omp.net.poll.str.K3",
        ] {
            let cfg: FilterConfig = code.parse().unwrap();
            assert_eq!(cfg.to_string().replace(".cust", ""), *code);
        }
        let cfg: FilterConfig = "11.cust:^CPU_.K10".parse().unwrap();
        assert!(matches!(&cfg.keep[0], KeepClass::Custom(p) if p == "^CPU_"));
        assert!("xx.all.K10".parse::<FilterConfig>().is_err());
        assert!("11.bogus.K10".parse::<FilterConfig>().is_err());
        assert!("11.all.K0".parse::<FilterConfig>().is_err());
        assert!("11.cust:a(b.K10".parse::<FilterConfig>().is_err());
    }

    #[test]
    fn invalid_custom_pattern_rejected() {
        let f = FilterConfig {
            keep: vec![KeepClass::Custom("a(b".to_string())],
            ..FilterConfig::default()
        };
        assert!(f.validate().is_err());
    }
}
