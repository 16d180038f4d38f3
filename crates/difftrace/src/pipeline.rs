//! The end-to-end DiffTrace pipeline for one parameter combination.
//!
//! # Parallel execution
//!
//! Every stage of an iteration can run on multiple threads via the
//! entry points that take [`PipelineOptions`] ([`analyze_aligned_rec`],
//! [`analyze_opts`], [`diff_runs_opts`], [`try_diff_runs`]) and its
//! `threads` knob — with **byte-identical output** for every thread
//! count. The only stage
//! whose naive parallelization would change output is NLR construction
//! (loop IDs are assigned in fold order, and IDs leak into attribute
//! names and rendered summaries); see [`nlr::SharedLoopTable`] for the
//! provisional-then-canonical renumbering that removes the schedule
//! from the result. All other stages (mining, JSM rows, JSM diff, row
//! scores) are pure per-item functions whose outputs are merged in a
//! fixed order. `threads == 1` short-circuits to the plain sequential
//! code path.

use crate::attributes::{mine, AttrConfig};
use crate::check::{CheckInput, DiffDenied, LintGate, PrePass};
use crate::filter::{symbol_name, FilterConfig, FilteredSet, FilteredTrace};
use crate::hbcheck::HbCheck;
use crate::jsm::JsmMatrix;
use crate::lint::{Lint, LintOptions};
use crate::nlr_stage::NlrSet;
use crate::racecheck::RaceCheck;
use crate::reqcheck::ReqCheck;
use crate::sync::{effective_threads, join};
use cluster::{bscore, linkage, CondensedMatrix, Dendrogram, Method};
use dt_cache::Cache;
use dt_obs::{stage, Recorder};
use dt_trace::{TraceId, TraceSet};
use fca::{ConceptLattice, FormalContext};
use nlr::{LoopTable, SharedLoopTable};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Execution options orthogonal to the analysis [`Params`]: they may
/// change how fast an answer is computed, never which answer.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Worker threads for the parallel stages. `1` (the default) is the
    /// exact sequential path; `0` means all available parallelism; any
    /// other value is taken literally.
    pub threads: usize,
    /// Gate of the tracelint pre-pass ([`crate::lint`]). Each gate
    /// says whether its checker runs before diffing and whether its
    /// findings stop the pipeline (see [`crate::check`]); the
    /// single-execution entry points never run checkers.
    pub lint: LintGate,
    /// Gate of the hbcheck pre-pass ([`crate::hbcheck`]). It needs the
    /// executions' happens-before logs, so [`try_diff_runs`] without
    /// logs ignores it.
    pub hb: LintGate,
    /// Gate of the racecheck pre-pass ([`crate::racecheck`]).
    pub race: LintGate,
    /// Gate of the reqcheck pre-pass ([`crate::reqcheck`]).
    pub req: LintGate,
    /// Content-addressed analysis cache ([`dt_cache::Cache`]), shared
    /// across pipeline runs (e.g. every cell of a sweep). Like the
    /// other options it is observational: a cached analysis is
    /// byte-identical to a cold one at any thread count (enforced by
    /// the cache-equivalence harness).
    pub cache: Option<Arc<Cache>>,
}

impl Default for PipelineOptions {
    fn default() -> PipelineOptions {
        PipelineOptions {
            threads: 1,
            lint: LintGate::Off,
            hb: LintGate::Off,
            race: LintGate::Off,
            req: LintGate::Off,
            cache: None,
        }
    }
}

impl PipelineOptions {
    /// Options with the given thread count.
    pub fn with_threads(threads: usize) -> PipelineOptions {
        PipelineOptions {
            threads,
            ..PipelineOptions::default()
        }
    }
}

/// One point of the parameter space (the dashed box in Figure 1): the
/// front-end filter (with its NLR K), the FCA attributes, and the
/// linkage method.
#[derive(Debug, Clone)]
pub struct Params {
    /// Front-end filter.
    pub filter: FilterConfig,
    /// Attribute mining configuration.
    pub attrs: AttrConfig,
    /// Linkage for hierarchical clustering ("ward" in all the paper's
    /// reported tables).
    pub linkage: Method,
}

impl Params {
    /// Ward-linkage params.
    pub fn new(filter: FilterConfig, attrs: AttrConfig) -> Params {
        Params {
            filter,
            attrs,
            linkage: Method::Ward,
        }
    }
}

/// The analysis artifacts of a single execution.
#[derive(Debug)]
pub struct AnalysisRun {
    /// The function-name table of the analyzed execution.
    pub registry: std::sync::Arc<dt_trace::FunctionRegistry>,
    /// Trace IDs in matrix/object order.
    pub ids: Vec<TraceId>,
    /// NLR summaries.
    pub nlrs: NlrSet,
    /// The mined formal context.
    pub context: FormalContext,
    /// Incrementally built concept lattice.
    pub lattice: ConceptLattice,
    /// Pairwise Jaccard similarity matrix.
    pub jsm: JsmMatrix,
    /// The dendrogram of `1 − JSM` under the configured linkage.
    pub dendrogram: Dendrogram,
}

/// Analyze one execution under `params`, interning loops into the
/// shared `table`, reporting stage spans and counters into `rec`.
/// `id_universe` fixes the object set (pass the union of normal+faulty
/// IDs when analyzing a pair so the matrices align; traces missing
/// from `set` become empty objects — e.g. threads a fault prevented
/// from spawning). Output is byte-identical for every `opts.threads`
/// value and whatever recorder is passed (asserted by the
/// parallel-equivalence harness).
pub fn analyze_aligned_rec(
    set: &TraceSet,
    params: &Params,
    table: &mut LoopTable,
    id_universe: &[TraceId],
    opts: &PipelineOptions,
    rec: &dyn Recorder,
) -> AnalysisRun {
    let threads = effective_threads(opts.threads, id_universe.len());
    let aligned = {
        let _s = stage(rec, "filter");
        align_filtered(set, params, id_universe)
    };
    record_filter_counters(rec, set, &aligned, id_universe);
    let keys: Option<Vec<u128>> = opts
        .cache
        .as_ref()
        .map(|_| nlr_cache_keys(set, &aligned, params.filter.nlr_k));
    let (nlrs, folds) = {
        let _s = stage(rec, "nlr");
        build_nlrs(
            &aligned,
            params.filter.nlr_k,
            table,
            threads,
            opts.cache.as_deref(),
            keys.as_deref(),
        )
    };
    record_nlr_counters(rec, &nlrs, id_universe, folds);
    let cache_keys = opts.cache.as_deref().zip(keys.as_deref());
    finish_run(
        set,
        params,
        &aligned,
        nlrs,
        id_universe,
        threads,
        rec,
        cache_keys,
    )
}

/// Build the NLR summaries for `aligned`, dispatching over thread count
/// and cache availability. Returns the summaries plus the number of
/// actual NLR-builder invocations (`folds` — lower than the trace count
/// when the cache is warm). Shared by the pairwise pipeline and the
/// N-way fleet fold; every arm produces byte-identical summaries.
pub(crate) fn build_nlrs(
    aligned: &FilteredSet,
    k: usize,
    table: &mut LoopTable,
    threads: usize,
    cache: Option<&Cache>,
    keys: Option<&[u128]>,
) -> (NlrSet, u64) {
    match (cache, keys, threads) {
        (Some(cache), Some(keys), ..=1) => NlrSet::build_cached(aligned, k, table, cache, keys),
        (Some(cache), Some(keys), _) => {
            let shared = SharedLoopTable::from_table(table);
            let (prov, orders, folds) =
                NlrSet::build_shared_cached(aligned, k, &shared, threads, cache, keys);
            let map = shared.canonicalize_into(orders.into_iter().flatten(), table);
            (prov.remap(&map), folds)
        }
        (_, _, ..=1) => (
            NlrSet::build(aligned, k, table),
            aligned.traces.len() as u64,
        ),
        _ => {
            // Parallel NLR build: provisional IDs into a concurrent table,
            // then a sequential replay of the recorded fold orders to
            // restore the exact sequential numbering (see nlr::shared).
            let shared = SharedLoopTable::from_table(table);
            let (prov, orders) = NlrSet::build_shared(aligned, k, &shared, threads);
            let map = shared.canonicalize_into(orders.into_iter().flatten(), table);
            (prov.remap(&map), aligned.traces.len() as u64)
        }
    }
}

/// The per-trace NLR cache keys for `aligned`, in its trace order
/// (which is the `id_universe` order — see [`align_filtered`]).
pub(crate) fn nlr_cache_keys(set: &TraceSet, aligned: &FilteredSet, k: usize) -> Vec<u128> {
    aligned
        .traces
        .iter()
        .map(|t| dt_cache::nlr_key(k, &t.symbols, |s| symbol_name(&set.registry, s)))
        .collect()
}

/// Tally the front-end filter's work into `rec` (no-op when disabled).
fn record_filter_counters(
    rec: &dyn Recorder,
    set: &TraceSet,
    aligned: &FilteredSet,
    id_universe: &[TraceId],
) {
    if !rec.enabled() {
        return;
    }
    rec.add("traces", id_universe.len() as u64);
    rec.add(
        "events_total",
        set.iter().map(|t| t.events.len() as u64).sum(),
    );
    rec.add(
        "events_kept",
        aligned.traces.iter().map(|t| t.symbols.len() as u64).sum(),
    );
}

/// Tally NLR sizes into `rec` (no-op when disabled). `folds` counts
/// actual NLR-builder invocations — with a warm cache it is lower than
/// the trace count, which is how the bench and CI assert that caching
/// skipped work without comparing wall-clock.
fn record_nlr_counters(rec: &dyn Recorder, nlrs: &NlrSet, id_universe: &[TraceId], folds: u64) {
    if !rec.enabled() {
        return;
    }
    rec.add("nlr_folds", folds);
    rec.add(
        "nlr_terms",
        id_universe
            .iter()
            .filter_map(|id| nlrs.get(*id))
            .map(|n| n.elements().len() as u64)
            .sum(),
    );
}

/// Per-trace content fingerprints of one execution under `filter`: for
/// each trace (in [`TraceSet::ids`] order) the dt-cache NLR content
/// key of its filtered symbol stream, computed over a *name-canonical*
/// renumbering of the symbols. Registry ids are an artifact of
/// interning order — mpisim ranks are real threads, so two executions
/// of the identical program intern the same names under permuted ids.
/// Renumbering by sorted distinct name before keying makes the
/// fingerprint a pure function of what the trace *says*, so a
/// re-recorded identical workload fingerprints identically while any
/// behavioural change (different calls, different loop content) still
/// changes the key. `difftrace baseline` persists these as the
/// canonical identity of a recorded run.
pub fn content_fingerprints(set: &TraceSet, filter: &FilterConfig) -> Vec<(TraceId, u128)> {
    let filtered = filter.apply(set);
    filtered
        .traces
        .iter()
        .map(|t| {
            let mut names: std::collections::BTreeMap<u32, String> =
                std::collections::BTreeMap::new();
            for &s in &t.symbols {
                names
                    .entry(s)
                    .or_insert_with(|| symbol_name(&set.registry, s));
            }
            let mut sorted: Vec<&String> = names.values().collect();
            sorted.sort();
            sorted.dedup();
            let canon_of = |s: u32| {
                let name = &names[&s];
                sorted.binary_search(&name).expect("name present") as u32
            };
            let canon: Vec<u32> = t.symbols.iter().map(|&s| canon_of(s)).collect();
            let key = dt_cache::nlr_key(filter.nlr_k, &canon, |c| sorted[c as usize].clone());
            (t.id, key)
        })
        .collect()
}

/// Filter `set` and align the result to `id_universe` order; traces
/// missing from `set` become empty objects.
pub(crate) fn align_filtered(
    set: &TraceSet,
    params: &Params,
    id_universe: &[TraceId],
) -> FilteredSet {
    let filtered = params.filter.apply(set);
    let by_id: BTreeMap<TraceId, FilteredTrace> =
        filtered.traces.into_iter().map(|t| (t.id, t)).collect();
    FilteredSet {
        traces: id_universe
            .iter()
            .map(|&id| {
                by_id.get(&id).cloned().unwrap_or(FilteredTrace {
                    id,
                    symbols: Vec::new(),
                    truncated: false,
                })
            })
            .collect(),
    }
}

/// The back half of an analysis — attribute mining, formal context,
/// lattice, JSM, dendrogram — given the (already canonical) summaries.
/// Mining and JSM rows are pure per-trace/per-row functions and fan out
/// across `threads`; the context is assembled sequentially in
/// `id_universe` order so object/attribute numbering never depends on
/// the schedule. `cache_keys` (the per-trace NLR keys, in `id_universe`
/// order) enables attribute-set memoization: mined labels embed global
/// loop IDs, so the attr key covers the summary's element sequence too
/// (see [`dt_cache::attr_key`]).
#[allow(clippy::too_many_arguments)]
fn finish_run(
    set: &TraceSet,
    params: &Params,
    aligned: &FilteredSet,
    nlrs: NlrSet,
    id_universe: &[TraceId],
    threads: usize,
    rec: &dyn Recorder,
    cache_keys: Option<(&Cache, &[u128])>,
) -> AnalysisRun {
    let name = |s: u32| symbol_name(&set.registry, s);
    let attr_code = params.attrs.to_string();
    let mined: Vec<Vec<(String, f64)>> = {
        let _s = stage(rec, "mine");
        crate::sync::par_map_obs(id_universe, threads, rec, "mine", |i, id| {
            let nlr = nlrs.get(*id).expect("aligned");
            let symbols: &[u32] = aligned
                .traces
                .iter()
                .find(|t| t.id == *id)
                .map(|t| t.symbols.as_slice())
                .unwrap_or(&[]);
            if let Some((cache, keys)) = cache_keys {
                let akey = dt_cache::attr_key(keys[i], &attr_code, nlr.elements());
                if let Some(v) = cache.get_attrs(akey) {
                    return (*v).clone();
                }
                let fresh = mine(symbols, nlr, params.attrs, &name);
                cache.put_attrs(akey, Arc::new(fresh.clone()));
                return fresh;
            }
            mine(symbols, nlr, params.attrs, &name)
        })
    };
    if rec.enabled() {
        rec.add(
            "attributes_mined",
            mined.iter().map(|v| v.len() as u64).sum(),
        );
    }
    let (context, lattice) = {
        let _s = stage(rec, "lattice");
        let mut context = FormalContext::new();
        for (id, attrs) in id_universe.iter().zip(&mined) {
            context.add_object(&id.to_string(), attrs.iter().map(|(k, w)| (k.as_str(), *w)));
        }
        let lattice = ConceptLattice::from_context(&context);
        (context, lattice)
    };
    if rec.enabled() {
        rec.add("concepts", lattice.concepts().len() as u64);
    }
    let jsm = {
        let _s = stage(rec, "jsm");
        JsmMatrix::from_context_opts(&context, id_universe.to_vec(), threads)
    };
    if rec.enabled() {
        rec.add("jsm_cells", (jsm.len() * jsm.len()) as u64);
    }
    let dendrogram = {
        let _s = stage(rec, "linkage");
        linkage(&CondensedMatrix::from_similarity(&jsm.m), params.linkage)
    };
    AnalysisRun {
        registry: set.registry.clone(),
        ids: id_universe.to_vec(),
        nlrs,
        context,
        lattice,
        jsm,
        dendrogram,
    }
}

/// Analyze a single execution (object set = its own traces).
pub fn analyze(set: &TraceSet, params: &Params, table: &mut LoopTable) -> AnalysisRun {
    analyze_opts(set, params, table, &PipelineOptions::default())
}

/// [`analyze`] with explicit execution options.
pub fn analyze_opts(
    set: &TraceSet,
    params: &Params,
    table: &mut LoopTable,
    opts: &PipelineOptions,
) -> AnalysisRun {
    let ids = set.ids();
    analyze_aligned_rec(set, params, table, &ids, opts, &dt_obs::NOOP)
}

/// The result of diffing a normal and a faulty execution.
#[derive(Debug)]
pub struct DiffRun {
    /// The parameter combination used.
    pub params: Params,
    /// Analysis of the fault-free execution.
    pub normal: AnalysisRun,
    /// Analysis of the faulty execution.
    pub faulty: AnalysisRun,
    /// `|JSM_faulty − JSM_normal|`.
    pub jsm_d: JsmMatrix,
    /// B-score of the two hierarchical clusterings (see DESIGN.md).
    pub bscore: f64,
    /// Suspicious processes, most-affected first.
    pub suspicious_processes: Vec<u32>,
    /// Suspicious threads (`p.t`), most-affected first.
    pub suspicious_threads: Vec<TraceId>,
    /// The shared loop table (normal + faulty).
    pub table: LoopTable,
    /// The tracelint pre-pass, when it ran ([`LintGate::Warn`], or a
    /// passing [`LintGate::Deny`]); likewise for the other checkers.
    pub lint: Option<PrePass<Lint>>,
    /// The hbcheck pre-pass. The faulty run's deadlock cycles annotate
    /// `diffNLR` views as the divergence cause.
    pub hb: Option<PrePass<HbCheck>>,
    /// The racecheck pre-pass.
    pub race: Option<PrePass<RaceCheck>>,
    /// The reqcheck pre-pass.
    pub req: Option<PrePass<ReqCheck>>,
}

/// Fraction of the maximum change score a process/thread must reach to
/// be listed as suspicious.
const SUSPECT_THRESHOLD: f64 = 0.3;
/// Maximum threads listed (the paper's tables show ≈6).
const MAX_THREADS_LISTED: usize = 6;

/// Run the full DiffTrace iteration on a (normal, faulty) pair.
pub fn diff_runs(normal: &TraceSet, faulty: &TraceSet, params: &Params) -> DiffRun {
    diff_runs_opts(normal, faulty, params, &PipelineOptions::default())
}

/// [`diff_runs`] with explicit execution options. With more than one
/// thread the normal and faulty analyses run **concurrently** against
/// one shared provisional loop table, then a single canonical replay
/// (normal's fold orders first, faulty's second — the sequential
/// interleaving) renumbers both; output is byte-identical to
/// `threads == 1`.
///
/// # Panics
///
/// Panics if a checker gate is [`LintGate::Deny`] and its pre-pass
/// finds an error; use [`try_diff_runs`] to handle that case.
pub fn diff_runs_opts(
    normal: &TraceSet,
    faulty: &TraceSet,
    params: &Params,
    opts: &PipelineOptions,
) -> DiffRun {
    match try_diff_runs(normal, faulty, None, params, opts, &dt_obs::NOOP) {
        Ok(d) => d,
        Err(e) => panic!("{e}"),
    }
}

/// [`diff_runs_opts`] with the executions' happens-before logs,
/// reporting stage spans (pre-passes, filter, NLR, mining, lattice,
/// JSM, linkage, B-score, ranking) and counters into `rec`.
///
/// First every gated checker runs over both executions, in
/// [`crate::check::CHECKERS`] order: broken traces produce confusing
/// diffs, so structural and semantic defects surface *before* any time
/// goes into NLR/FCA/JSM. Their reports attach to the [`DiffRun`]; a
/// tripped `Deny` gate returns them as [`DiffDenied`] instead. Checkers
/// that need happens-before logs run only when `hb_logs` is `Some`.
/// Instrumentation is observational only: the diff is byte-identical
/// whatever recorder is passed, at any thread count.
pub fn try_diff_runs(
    normal: &TraceSet,
    faulty: &TraceSet,
    hb_logs: Option<(&dt_trace::hb::HbLog, &dt_trace::hb::HbLog)>,
    params: &Params,
    opts: &PipelineOptions,
    rec: &dyn Recorder,
) -> Result<DiffRun, DiffDenied> {
    let n_in = CheckInput {
        set: normal,
        hb: hb_logs.map(|(n, _)| n),
    };
    let f_in = CheckInput {
        set: faulty,
        hb: hb_logs.map(|(_, f)| f),
    };
    let check = LintOptions::for_pipeline(params, opts.threads);
    let lint = PrePass::run(&Lint, &n_in, &f_in, &check, opts, rec)?;
    let hb = PrePass::run(&HbCheck, &n_in, &f_in, &check, opts, rec)?;
    let race = PrePass::run(&RaceCheck, &n_in, &f_in, &check, opts, rec)?;
    let req = PrePass::run(&ReqCheck, &n_in, &f_in, &check, opts, rec)?;

    // Union of trace IDs: a fault may have killed threads before they
    // traced anything, or spawned extra ones.
    let mut ids: Vec<TraceId> = normal.ids();
    for id in faulty.ids() {
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    ids.sort();

    let threads = effective_threads(opts.threads, 2 * ids.len().max(1));
    let mut table = LoopTable::new();
    let (normal_run, faulty_run) = if threads <= 1 {
        let seq_opts = PipelineOptions {
            cache: opts.cache.clone(),
            ..PipelineOptions::default()
        };
        let n = analyze_aligned_rec(normal, params, &mut table, &ids, &seq_opts, rec);
        let f = analyze_aligned_rec(faulty, params, &mut table, &ids, &seq_opts, rec);
        (n, f)
    } else {
        // Each side gets half the workers; both interleave on the same
        // shared table, so every distinct loop body is interned once.
        let half = (threads / 2).max(1);
        let cache = opts.cache.as_deref();
        let (n_aligned, f_aligned) = {
            let _s = stage(rec, "filter");
            (
                align_filtered(normal, params, &ids),
                align_filtered(faulty, params, &ids),
            )
        };
        record_filter_counters(rec, normal, &n_aligned, &ids);
        record_filter_counters(rec, faulty, &f_aligned, &ids);
        let (n_keys, f_keys) = match cache {
            Some(_) => (
                Some(nlr_cache_keys(normal, &n_aligned, params.filter.nlr_k)),
                Some(nlr_cache_keys(faulty, &f_aligned, params.filter.nlr_k)),
            ),
            None => (None, None),
        };
        let (n_nlrs, f_nlrs) = {
            let _s = stage(rec, "nlr");
            let shared = SharedLoopTable::new();
            let k = params.filter.nlr_k;
            let build = |aligned: &FilteredSet, keys: &Option<Vec<u128>>| match (cache, keys) {
                (Some(c), Some(keys)) => {
                    NlrSet::build_shared_cached(aligned, k, &shared, half, c, keys)
                }
                _ => {
                    let (prov, orders) = NlrSet::build_shared(aligned, k, &shared, half);
                    let folds = aligned.traces.len() as u64;
                    (prov, orders, folds)
                }
            };
            let ((n_prov, n_orders, n_folds), (f_prov, f_orders, f_folds)) = join(
                true,
                || build(&n_aligned, &n_keys),
                || build(&f_aligned, &f_keys),
            );
            let map = shared.canonicalize_into(
                n_orders
                    .into_iter()
                    .flatten()
                    .chain(f_orders.into_iter().flatten()),
                &mut table,
            );
            let (n_nlrs, f_nlrs) = (n_prov.remap(&map), f_prov.remap(&map));
            record_nlr_counters(rec, &n_nlrs, &ids, n_folds);
            record_nlr_counters(rec, &f_nlrs, &ids, f_folds);
            (n_nlrs, f_nlrs)
        };
        join(
            true,
            || {
                let ck = cache.zip(n_keys.as_deref());
                finish_run(normal, params, &n_aligned, n_nlrs, &ids, half, rec, ck)
            },
            || {
                let ck = cache.zip(f_keys.as_deref());
                finish_run(faulty, params, &f_aligned, f_nlrs, &ids, half, rec, ck)
            },
        )
    };
    if rec.enabled() {
        rec.add("loops_interned", table.len() as u64);
    }
    let jsm_d = {
        let _s = stage(rec, "jsm_diff");
        faulty_run
            .jsm
            .diff_opts(&normal_run.jsm, threads)
            .expect("both analyses share one aligned id universe")
    };
    let b = {
        let _s = stage(rec, "bscore");
        bscore(&normal_run.dendrogram, &faulty_run.dendrogram)
    };

    let _rank = stage(rec, "rank");
    // Thread-level suspects: row sums of JSM_D.
    let mut thread_scores = jsm_d.row_scores_opts(threads);
    thread_scores.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let tmax = thread_scores.first().map(|x| x.1).unwrap_or(0.0);
    let suspicious_threads: Vec<TraceId> = thread_scores
        .iter()
        .filter(|(_, s)| tmax > 0.0 && *s >= SUSPECT_THRESHOLD * tmax)
        .take(MAX_THREADS_LISTED)
        .map(|(id, _)| *id)
        .collect();

    // Process-level: aggregate thread scores per rank.
    let mut proc_scores: BTreeMap<u32, f64> = BTreeMap::new();
    for (id, s) in &thread_scores {
        *proc_scores.entry(id.process).or_insert(0.0) += s;
    }
    let mut proc_scores: Vec<(u32, f64)> = proc_scores.into_iter().collect();
    proc_scores.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let pmax = proc_scores.first().map(|x| x.1).unwrap_or(0.0);
    let suspicious_processes: Vec<u32> = proc_scores
        .iter()
        .filter(|(_, s)| pmax > 0.0 && *s >= SUSPECT_THRESHOLD * pmax)
        .map(|(p, _)| *p)
        .collect();
    drop(_rank);

    Ok(DiffRun {
        params: params.clone(),
        normal: normal_run,
        faulty: faulty_run,
        jsm_d,
        bscore: b,
        suspicious_processes,
        suspicious_threads,
        table,
        lint,
        hb,
        race,
        req,
    })
}

impl DiffRun {
    /// The diffNLR view of trace `id` (normal vs faulty), cf. §II-F-1:
    /// `diffNLR(x) ≡ diffNLR(T_x, T'_x)`.
    pub fn diff_nlr(&self, id: TraceId) -> Option<crate::diffnlr::DiffNlr> {
        let n = self.normal.nlrs.get(id)?;
        let f = self.faulty.nlrs.get(id)?;
        // Render via the *normal* execution's registry-independent
        // labels: loop IDs come from the shared table, symbols from the
        // context attribute names (both analyses used the same naming).
        let view = crate::diffnlr::DiffNlr::from_blocks(
            id,
            self.element_blocks(n.elements(), f.elements()),
            *self.faulty.nlrs.truncated.get(&id).unwrap_or(&false),
        );
        // When the hbcheck pre-pass found this rank inside a wait-for
        // cycle, the cycle *is* why this trace diverged — annotate it.
        let cause = self
            .hb
            .as_ref()
            .and_then(|pre| pre.cause_for(id.process))
            .map(String::from);
        Some(view.with_cause(cause))
    }

    /// Myers-diff two element sequences into rendered blocks, drilling
    /// into loop bodies where the *structure* changed: when a single
    /// loop is replaced by a single loop with the same trip count but a
    /// different body, the interesting difference is inside the body
    /// (Figure 7a's vanished `GOMP_critical_*` pair), so the body
    /// sequences are diffed recursively under the two header lines.
    /// Count-only changes and all other shapes stay opaque `L<id> ^ n`
    /// references (Figures 5–6).
    fn element_blocks(
        &self,
        normal: &[nlr::Element],
        faulty: &[nlr::Element],
    ) -> Vec<diffalg::Block<String>> {
        use diffalg::{align_blocks, diff, Block, BlockKind};
        use nlr::Element;

        let label = |e: &Element| match e {
            // Both executions of a pair share one registry (one
            // workload, one interner), so either analysis resolves any
            // symbol.
            Element::Sym(s) => symbol_name(&self.normal.registry, *s),
            Element::Loop { body, count } => format!("{body} ^ {count}"),
        };
        let script = diff(normal, faulty);
        let blocks = align_blocks(&script, normal, faulty);
        let mut out: Vec<Block<String>> = Vec::new();
        let mut i = 0;
        while i < blocks.len() {
            let b = &blocks[i];
            if b.kind == BlockKind::LeftOnly && i + 1 < blocks.len() {
                let r = &blocks[i + 1];
                if r.kind == BlockKind::RightOnly {
                    if let (
                        &[Element::Loop {
                            body: lb,
                            count: lc,
                        }],
                        &[Element::Loop {
                            body: rb,
                            count: rc,
                        }],
                    ) = (b.items.as_slice(), r.items.as_slice())
                    {
                        if lc == rc && lb != rb {
                            out.push(Block {
                                kind: BlockKind::LeftOnly,
                                items: vec![label(&b.items[0])],
                            });
                            out.push(Block {
                                kind: BlockKind::RightOnly,
                                items: vec![label(&r.items[0])],
                            });
                            out.extend(
                                self.element_blocks(self.table.body(lb), self.table.body(rb)),
                            );
                            i += 2;
                            continue;
                        }
                    }
                }
            }
            out.push(Block {
                kind: b.kind,
                items: b.items.iter().map(label).collect(),
            });
            i += 1;
        }
        out
    }

    /// Explain *why* trace `id` is suspicious: its attributes whose
    /// weights moved between the normal and faulty context, sorted by
    /// |Δ| descending. `(attribute, normal weight, faulty weight)`.
    pub fn explain(&self, id: TraceId) -> Vec<(String, f64, f64)> {
        let pos = self.normal.ids.iter().position(|&t| t == id);
        let Some(g) = pos else { return Vec::new() };
        let weights = |run: &AnalysisRun| -> BTreeMap<String, f64> {
            run.context
                .object_attrs(g)
                .iter()
                .map(|m| {
                    let a = fca::AttrId(m as u32);
                    (
                        run.context.attr_name(a).to_string(),
                        run.context.weight(g, a),
                    )
                })
                .collect()
        };
        let n = weights(&self.normal);
        let f = weights(&self.faulty);
        let keys: std::collections::BTreeSet<&String> = n.keys().chain(f.keys()).collect();
        let mut out: Vec<(String, f64, f64)> = keys
            .into_iter()
            .map(|k| {
                (
                    k.clone(),
                    n.get(k).copied().unwrap_or(0.0),
                    f.get(k).copied().unwrap_or(0.0),
                )
            })
            .filter(|(_, a, b)| (a - b).abs() > 1e-12)
            .collect();
        out.sort_by(|x, y| {
            let dx = (x.1 - x.2).abs();
            let dy = (y.1 - y.2).abs();
            dy.total_cmp(&dx).then_with(|| x.0.cmp(&y.0))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::{AttrKind, FreqMode};
    use dt_trace::FunctionRegistry;
    use std::sync::Arc;

    fn two_runs() -> (TraceSet, TraceSet, Arc<FunctionRegistry>) {
        let registry = Arc::new(FunctionRegistry::new());
        let mk = |loops: &[usize]| {
            crate::record_masters(&registry, loops.len() as u32, |p, tr| {
                let n = loops[p as usize];
                let _m = tr.enter("main");
                tr.leaf("MPI_Init");
                for _ in 0..n {
                    tr.leaf("MPI_Send");
                    tr.leaf("MPI_Recv");
                }
                tr.leaf("MPI_Finalize");
            })
        };
        // Normal: all ranks loop 8×; faulty: rank 2 loops only once.
        let normal = mk(&[8, 8, 8, 8]);
        let faulty = mk(&[8, 8, 1, 8]);
        (normal, faulty, registry)
    }

    fn params() -> Params {
        Params::new(
            FilterConfig::mpi_all(10),
            AttrConfig {
                kind: AttrKind::Single,
                freq: FreqMode::Actual,
            },
        )
    }

    #[test]
    fn analyze_builds_all_artifacts() {
        let (normal, _, _) = two_runs();
        let mut table = LoopTable::new();
        let run = analyze(&normal, &params(), &mut table);
        assert_eq!(run.ids.len(), 4);
        assert_eq!(run.jsm.len(), 4);
        // All four traces share identical attribute sets, so the
        // lattice degenerates to a single concept (top = bottom).
        assert_eq!(run.lattice.concepts().len(), 1);
        // All ranks identical ⇒ JSM all ones.
        for row in &run.jsm.m {
            for &v in row {
                assert!((v - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn diff_runs_flags_the_perturbed_rank() {
        let (normal, faulty, _) = two_runs();
        let d = diff_runs(&normal, &faulty, &params());
        assert_eq!(
            d.suspicious_threads.first(),
            Some(&TraceId::master(2)),
            "rank 2 changed the most: {:?}",
            d.suspicious_threads
        );
        assert_eq!(d.suspicious_processes.first(), Some(&2));
        assert!(d.bscore >= 0.0);
    }

    #[test]
    fn nofreq_hides_count_only_changes() {
        // Under noFreq a pure loop-count change is invisible: the loop
        // must still fold (count ≥ 2) so both runs mine the same
        // attribute set ⇒ JSM_D = 0 everywhere.
        let registry = Arc::new(FunctionRegistry::new());
        let mk = |counts: &[usize]| {
            crate::record_masters(&registry, counts.len() as u32, |p, tr| {
                tr.leaf("MPI_Init");
                for _ in 0..counts[p as usize] {
                    tr.leaf("MPI_Send");
                    tr.leaf("MPI_Recv");
                }
                tr.leaf("MPI_Finalize");
            })
        };
        let normal = mk(&[8, 8, 8, 8]);
        let faulty = mk(&[8, 8, 3, 8]);
        let p = Params::new(
            FilterConfig::mpi_all(10),
            AttrConfig {
                kind: AttrKind::Single,
                freq: FreqMode::NoFreq,
            },
        );
        let d = diff_runs(&normal, &faulty, &p);
        assert!(d.suspicious_threads.is_empty());
        assert_eq!(d.bscore, 0.0);
    }

    #[test]
    fn explain_names_the_changed_attributes() {
        let (normal, faulty, _) = two_runs();
        let d = diff_runs(&normal, &faulty, &params());
        let explained = d.explain(TraceId::master(2));
        assert!(!explained.is_empty());
        // The loop attribute's weight dropped from 8 iterations to …
        // whatever the broken rank managed; it must top the list.
        let (attr, n, f) = &explained[0];
        assert!(attr.starts_with('L') || attr.starts_with("MPI_"), "{attr}");
        assert_ne!(n, f);
        // An unaffected trace explains to nothing.
        assert!(d.explain(TraceId::master(0)).is_empty());
        // Unknown traces explain to nothing rather than panicking.
        assert!(d.explain(TraceId::new(99, 9)).is_empty());
    }

    #[test]
    fn missing_traces_align_as_empty_objects() {
        let (normal, _, registry) = two_runs();
        // Faulty run lost rank 3 entirely.
        let faulty = crate::record_masters(&registry, 3, |_p, tr| {
            tr.leaf("MPI_Init");
        });
        let d = diff_runs(&normal, &faulty, &params());
        assert_eq!(d.normal.ids.len(), 4);
        assert_eq!(d.faulty.ids.len(), 4);
        // Rank 3 must be among the suspects (it vanished).
        assert!(d.suspicious_threads.contains(&TraceId::master(3)));
    }
}
