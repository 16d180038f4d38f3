//! The built-in Table I keep classes are literal tables; each must keep
//! exactly the names its regular expression kept, through both of its
//! users: `probe_classes` (TL004) and `FilterConfig::apply`. The
//! expressions live on only here, as the reference.

mod common;

use difftrace::filter::{symbol_name, FilterConfig, KeepClass};
use dt_trace::{FunctionRegistry, TraceCollector, TraceId};
use rex::Regex;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Each regex-backed built-in class with the pattern it compiled.
fn reference() -> Vec<(KeepClass, Regex)> {
    let exact = |p: &str| Regex::new(p).unwrap();
    let folded = |p: &str| Regex::new_case_insensitive(p).unwrap();
    vec![
        (KeepClass::MpiInternal, exact("^(MPIDI_|MPIR_|MPID_)")),
        (KeepClass::OmpCritical, exact("^GOMP_critical_(start|end)$")),
        (
            KeepClass::Memory,
            folded("memcpy|memchk|memset|memmove|alloc|free"),
        ),
        (KeepClass::Network, folded("network|tcp|socket|ib_|verbs")),
        (KeepClass::Poll, folded("poll|yield|sched")),
        (
            KeepClass::Strings,
            folded("^str(len|cpy|cmp|ncpy|ncmp|cat|chr)"),
        ),
    ]
}

/// Every registry name of every demo corpus, the classes' own words,
/// ASCII case variants of all of those, and characters whose lower
/// case folds onto ASCII: the Kelvin sign U+212A folds to `k`, and
/// U+0130 (`İ`) to `i`, so `İb_` holds `ib_`.
fn names() -> Vec<String> {
    let mut base: BTreeSet<String> = common::demo_runs()
        .into_iter()
        .flat_map(|(_, set)| set.registry.names())
        .collect();
    let words = [
        "MPIDI_CH3_Send",
        "MPIR_Reduce",
        "MPID_Isend",
        "MPIDX_",
        "xMPIR_",
        "GOMP_critical_start",
        "GOMP_critical_end",
        "GOMP_critical_started",
        "GOMP_critical_",
        "memcpy",
        "__memchk",
        "my_memset",
        "memmove_fast",
        "realloc",
        "free",
        "network_io",
        "tcp_sendmsg",
        "socketpair",
        "ib_post_send",
        "ibverbs",
        "epoll_wait",
        "sched_yield",
        "strlen",
        "strcpy_s",
        "strcmp",
        "strncpy",
        "strncmp",
        "strcat",
        "strchr",
        "strstr",
        "_strlen",
        "tc\u{212A}",
        "soc\u{212A}et",
        "\u{0130}b_",
        "\u{0130}B_foo",
        "x\u{0130}b_",
        "\u{017F}trlen",
        "pOlL\u{00DF}",
        "",
    ];
    base.extend(words.iter().map(|w| w.to_string()));
    let variants: Vec<String> = base
        .iter()
        .flat_map(|n| [n.to_ascii_uppercase(), n.to_ascii_lowercase()])
        .collect();
    base.extend(variants);
    base.into_iter().collect()
}

fn only(class: &KeepClass) -> FilterConfig {
    FilterConfig {
        drop_plt: false,
        keep: vec![class.clone()],
        ..FilterConfig::default()
    }
}

#[test]
fn each_class_keeps_what_its_pattern_matched() {
    let names = names();
    for (class, re) in reference() {
        let cfg = only(&class);
        for name in &names {
            let probe = cfg.probe_classes(std::slice::from_ref(name));
            assert_eq!(
                probe[0].matched,
                u64::from(re.is_match(name)),
                "{class:?} on {name:?}"
            );
            assert!(probe[0].satisfiable && probe[0].parse_error.is_none());
        }
    }
}

#[test]
fn probe_and_apply_agree_with_the_patterns() {
    let names = names();
    let collector = TraceCollector::shared(Arc::new(FunctionRegistry::new()));
    let tr = collector.tracer(TraceId::new(0, 0));
    for name in &names {
        tr.leaf(name);
    }
    tr.finish();
    let set = collector.into_trace_set();
    for (class, re) in reference() {
        let want: Vec<&String> = names.iter().filter(|n| re.is_match(n)).collect();
        let cfg = only(&class);
        let probe = cfg.probe_classes(&names);
        assert_eq!(probe[0].matched, want.len() as u64, "{class:?}");
        let kept: Vec<String> = cfg.apply(&set).traces[0]
            .symbols
            .iter()
            .map(|&s| symbol_name(&set.registry, s))
            .collect();
        assert_eq!(
            kept.iter().collect::<Vec<_>>(),
            want,
            "{class:?} under apply"
        );
    }
}
