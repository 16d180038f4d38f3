//! One DiffTrace iteration recomposed from each layer's public calls,
//! with a span around every call — the traced twin of
//! `difftrace::try_diff_runs_hb_rec` at one thread. The traced run
//! checks that it reproduces the end-to-end call bit for bit.

use crate::spans::Tracer;
use cluster::{bscore, linkage, CondensedMatrix};
use difftrace::attributes::mine;
use difftrace::filter::symbol_name;
use difftrace::{
    AnalysisRun, AttrConfig, AttrKind, DiffRun, FilterConfig, FilteredSet, FilteredTrace, FreqMode,
    JsmMatrix, NlrSet, Params,
};
use dt_cache::Cache;
use dt_trace::{TraceId, TraceSet};
use fca::{ConceptLattice, FormalContext};
use nlr::LoopTable;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The pipeline's suspect threshold (share of the top change score) and
/// thread-list cap, as `difftrace::pipeline` applies them.
const SUSPECT_THRESHOLD: f64 = 0.3;
const MAX_THREADS_LISTED: usize = 6;

/// The `difftrace diff` (and daemon) default parameters: `everything`
/// K=10 filter, `sing.actual` attributes, Ward linkage.
pub fn default_params() -> Params {
    Params::new(
        FilterConfig::everything(10),
        AttrConfig {
            kind: AttrKind::Single,
            freq: FreqMode::Actual,
        },
    )
}

/// Exact work counts of the composed calls. They must repeat exactly
/// from op to op and run to run for one seed.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counts {
    pub events_in: u64,
    pub events_kept: u64,
    pub nlr_folds: u64,
    pub nlr_terms: u64,
    pub concepts: u64,
    pub jsm_cells: u64,
}

/// Analyze one execution against the aligned `ids` universe.
fn analyze_side(
    tr: &Tracer,
    set: &TraceSet,
    params: &Params,
    ids: &[TraceId],
    table: &mut LoopTable,
    cache: Option<&Cache>,
    counts: &mut Counts,
) -> AnalysisRun {
    let k = params.filter.nlr_k;
    let aligned = tr.span("filter", || {
        let mut by_id: BTreeMap<TraceId, FilteredTrace> = params
            .filter
            .apply(set)
            .traces
            .into_iter()
            .map(|t| (t.id, t))
            .collect();
        FilteredSet {
            traces: ids
                .iter()
                .map(|&id| {
                    by_id.remove(&id).unwrap_or(FilteredTrace {
                        id,
                        symbols: Vec::new(),
                        truncated: false,
                    })
                })
                .collect(),
        }
    });
    counts.events_in += set.iter().map(|t| t.events.len() as u64).sum::<u64>();
    counts.events_kept += aligned
        .traces
        .iter()
        .map(|t| t.symbols.len() as u64)
        .sum::<u64>();
    let name = |s: u32| symbol_name(&set.registry, s);
    let (nlrs, keys) = tr.span("nlr", || match cache {
        Some(c) => {
            let keys: Vec<u128> = aligned
                .traces
                .iter()
                .map(|t| dt_cache::nlr_key(k, &t.symbols, name))
                .collect();
            let (nlrs, folds) = NlrSet::build_cached(&aligned, k, table, c, &keys);
            counts.nlr_folds += folds;
            (nlrs, Some(keys))
        }
        None => {
            counts.nlr_folds += aligned.traces.len() as u64;
            (NlrSet::build(&aligned, k, table), None)
        }
    });
    counts.nlr_terms += ids
        .iter()
        .filter_map(|id| nlrs.get(*id))
        .map(|n| n.elements().len() as u64)
        .sum::<u64>();
    let attr_code = params.attrs.to_string();
    let mined: Vec<Vec<(String, f64)>> = tr.span("mine", || {
        aligned
            .traces
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let nlr = nlrs.get(t.id).expect("aligned");
                match (cache, &keys) {
                    (Some(c), Some(keys)) => {
                        let akey = dt_cache::attr_key(keys[i], &attr_code, nlr.elements());
                        if let Some(v) = c.get_attrs(akey) {
                            return (*v).clone();
                        }
                        let fresh = mine(&t.symbols, nlr, params.attrs, &name);
                        c.put_attrs(akey, Arc::new(fresh.clone()));
                        fresh
                    }
                    _ => mine(&t.symbols, nlr, params.attrs, &name),
                }
            })
            .collect()
    });
    let (context, lattice) = tr.span("lattice", || {
        let mut context = FormalContext::new();
        for (id, attrs) in ids.iter().zip(&mined) {
            context.add_object(&id.to_string(), attrs.iter().map(|(k, w)| (k.as_str(), *w)));
        }
        let lattice = ConceptLattice::from_context(&context);
        (context, lattice)
    });
    counts.concepts += lattice.concepts().len() as u64;
    let jsm = tr.span("jsm", || {
        JsmMatrix::from_context_opts(&context, ids.to_vec(), 1)
    });
    counts.jsm_cells += (jsm.len() * jsm.len()) as u64;
    let dendrogram = tr.span("linkage", || {
        linkage(&CondensedMatrix::from_similarity(&jsm.m), params.linkage)
    });
    AnalysisRun {
        registry: set.registry.clone(),
        ids: ids.to_vec(),
        nlrs,
        context,
        lattice,
        jsm,
        dendrogram,
    }
}

/// One pairwise iteration with all gates off, from public calls only.
pub fn diff(
    tr: &Tracer,
    normal: &TraceSet,
    faulty: &TraceSet,
    params: &Params,
    cache: Option<&Cache>,
    counts: &mut Counts,
) -> DiffRun {
    let mut ids = normal.ids();
    for id in faulty.ids() {
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    ids.sort();
    let mut table = LoopTable::new();
    let n = analyze_side(tr, normal, params, &ids, &mut table, cache, counts);
    let f = analyze_side(tr, faulty, params, &ids, &mut table, cache, counts);
    let jsm_d = tr.span("jsm", || {
        f.jsm
            .diff(&n.jsm)
            .expect("both analyses share one aligned id universe")
    });
    let b = tr.span("bscore", || bscore(&n.dendrogram, &f.dendrogram));
    let (suspicious_threads, suspicious_processes) = tr.span("rank", || suspects(&jsm_d));
    DiffRun {
        params: params.clone(),
        normal: n,
        faulty: f,
        jsm_d,
        bscore: b,
        suspicious_processes,
        suspicious_threads,
        table,
        lint: None,
        hb: None,
        race: None,
        req: None,
    }
}

/// Suspect threads (row sums of `JSM_D`) and processes (per-rank sums),
/// most-affected first.
fn suspects(jsm_d: &JsmMatrix) -> (Vec<TraceId>, Vec<u32>) {
    let mut thread_scores = jsm_d.row_scores();
    thread_scores.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let tmax = thread_scores.first().map_or(0.0, |x| x.1);
    let threads = thread_scores
        .iter()
        .filter(|(_, s)| tmax > 0.0 && *s >= SUSPECT_THRESHOLD * tmax)
        .take(MAX_THREADS_LISTED)
        .map(|(id, _)| *id)
        .collect();
    let mut per_proc: BTreeMap<u32, f64> = BTreeMap::new();
    for (id, s) in &thread_scores {
        *per_proc.entry(id.process).or_insert(0.0) += s;
    }
    let mut procs: Vec<(u32, f64)> = per_proc.into_iter().collect();
    procs.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let pmax = procs.first().map_or(0.0, |x| x.1);
    let processes = procs
        .iter()
        .filter(|(_, s)| pmax > 0.0 && *s >= SUSPECT_THRESHOLD * pmax)
        .map(|(p, _)| *p)
        .collect();
    (threads, processes)
}

/// Bit pattern of a diff's verdict: the B-score and every `JSM_D` cell.
pub fn verdict_bits(d: &DiffRun) -> (u64, Vec<u64>) {
    (
        d.bscore.to_bits(),
        d.jsm_d
            .m
            .iter()
            .flat_map(|row| row.iter().map(|v| v.to_bits()))
            .collect(),
    )
}
