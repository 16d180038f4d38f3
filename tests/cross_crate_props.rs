//! Cross-crate property tests: invariants that must hold across the
//! whole pipeline, driven by proptest.

use diffalg::diff;
use difftrace::{diff_runs, AttrConfig, AttrKind, FilterConfig, FreqMode, Params};
use dt_trace::{compress, FunctionRegistry, Trace, TraceCollector, TraceEvent, TraceId, TraceSet};
use nlr::{LoopTable, NlrBuilder};
use proptest::prelude::*;
use std::sync::Arc;

/// Random "call trace": loopy with a small alphabet plus noise.
fn trace_strategy() -> impl Strategy<Value = Vec<u32>> {
    let loopy = (
        1usize..5,
        1usize..20,
        proptest::collection::vec(0u32..6, 1..6),
    )
        .prop_map(|(reps_outer, reps_inner, body)| {
            let mut v = Vec::new();
            for _ in 0..reps_outer {
                for _ in 0..reps_inner {
                    v.extend(&body);
                }
                v.push(7); // separator
            }
            v
        });
    let noisy = proptest::collection::vec(0u32..10, 0..100);
    prop_oneof![loopy, noisy]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// NLR → expand is the identity for any symbol stream and any K.
    #[test]
    fn nlr_is_lossless(input in trace_strategy(), k in 1usize..20) {
        let mut table = LoopTable::new();
        let nlr = NlrBuilder::new(k).build(&input, &mut table);
        prop_assert_eq!(nlr.expand(&table), input);
    }

    /// Compression round-trips any stream, including NLR-hostile ones.
    #[test]
    fn compression_round_trips(input in proptest::collection::vec(any::<u32>(), 0..500)) {
        let blob = compress::compress(&input);
        prop_assert_eq!(compress::decompress(&blob, u64::MAX, u64::MAX).unwrap(), input);
    }

    /// Myers diff reconstructs and its distance is zero iff equal.
    #[test]
    fn diff_reconstructs(a in trace_strategy(), b in trace_strategy()) {
        let s = diff(&a, &b);
        prop_assert_eq!(s.apply_with(&a, &b), b.clone());
        prop_assert_eq!(s.distance() == 0, a == b);
        let (la, lb) = s.side_lens();
        prop_assert_eq!(la, a.len());
        prop_assert_eq!(lb, b.len());
    }

    /// The full pipeline on identical executions is a fixed point:
    /// JSM_D = 0, B-score = 0, no suspects — for every attribute mode.
    #[test]
    fn identical_runs_produce_no_suspects(
        streams in proptest::collection::vec(trace_strategy(), 2..6),
        kind in prop_oneof![Just(AttrKind::Single), Just(AttrKind::Double)],
        freq in prop_oneof![Just(FreqMode::Actual), Just(FreqMode::Log10), Just(FreqMode::NoFreq)],
    ) {
        let registry = Arc::new(FunctionRegistry::new());
        let build = |reg: &Arc<FunctionRegistry>| {
            let collector = TraceCollector::shared(reg.clone());
            for (p, stream) in streams.iter().enumerate() {
                let tr = collector.tracer(TraceId::master(p as u32));
                for &s in stream {
                    tr.leaf(&format!("fn_{s}"));
                }
                tr.finish();
            }
            collector.into_trace_set()
        };
        let a = build(&registry);
        let b = build(&registry);
        let d = diff_runs(&a, &b, &Params::new(
            FilterConfig::everything(10),
            AttrConfig { kind, freq },
        ));
        prop_assert_eq!(d.bscore, 0.0);
        prop_assert!(d.suspicious_threads.is_empty());
        for row in &d.jsm_d.m {
            for &v in row {
                prop_assert!(v.abs() < 1e-12);
            }
        }
    }

    /// Store round-trip preserves arbitrary trace sets exactly.
    #[test]
    fn store_round_trips(
        streams in proptest::collection::vec(
            (trace_strategy(), any::<bool>()), 1..5),
    ) {
        let registry = Arc::new(FunctionRegistry::new());
        for s in 0..10u32 {
            registry.intern(&format!("fn_{s}"));
        }
        let mut set = TraceSet::new(registry.clone());
        for (p, (stream, truncated)) in streams.iter().enumerate() {
            let mut t = Trace::new(TraceId::master(p as u32));
            for &s in stream {
                let f = registry.intern(&format!("fn_{s}"));
                t.push(TraceEvent::Call(f));
                t.push(TraceEvent::Return(f));
            }
            t.truncated = *truncated;
            set.insert(t);
        }
        let back = dt_trace::IndexedSet::from_bytes(dt_trace::store::to_bytes(&set))
            .and_then(|ix| ix.full_set())
            .unwrap();
        prop_assert_eq!(back.len(), set.len());
        for t in set.iter() {
            let bt = back.get(t.id).unwrap();
            prop_assert_eq!(&bt.events, &t.events);
            prop_assert_eq!(bt.truncated, t.truncated);
        }
    }

    /// JSM matrices are symmetric with unit diagonals and values in
    /// [0, 1], for random weighted contexts.
    #[test]
    fn jsm_bounds(
        objs in proptest::collection::vec(
            proptest::collection::vec((0u32..12, 1u32..50), 1..10), 2..6),
    ) {
        let mut ctx = fca::FormalContext::new();
        for (i, attrs) in objs.iter().enumerate() {
            let named: Vec<(String, f64)> = attrs
                .iter()
                .map(|&(a, w)| (format!("a{a}"), f64::from(w)))
                .collect();
            ctx.add_object(&format!("o{i}"), named.iter().map(|(n, w)| (n.as_str(), *w)));
        }
        let ids = (0..objs.len() as u32).map(TraceId::master).collect();
        let m = difftrace::JsmMatrix::from_context(&ctx, ids).m;
        #[allow(clippy::needless_range_loop)]
        for i in 0..m.len() {
            prop_assert!((m[i][i] - 1.0).abs() < 1e-12);
            for j in 0..m.len() {
                prop_assert!(m[i][j] >= 0.0 && m[i][j] <= 1.0 + 1e-12);
                prop_assert!((m[i][j] - m[j][i]).abs() < 1e-12);
            }
        }
    }
}
