//! The end-to-end DiffTrace pipeline for one parameter combination.
//!
//! # One driver
//!
//! Every analysis — one execution ([`analyze`]), a (normal, faulty)
//! pair ([`try_diff_runs`]) and the front half of a fleet fold — runs
//! through one driver that analyzes k executions against one trace-id
//! universe and one loop table: filter → NLR (see [`NlrSet`]) → mine →
//! lattice → JSM → linkage per execution.
//!
//! # Once per distinct trace
//!
//! Most threads of an SPMD run record the same stream. The driver
//! groups each execution's traces into classes of equal raw streams
//! ([`dt_trace::Classes`]) and runs filter, NLR keying and folding, and
//! mining once per class; every trace takes its class's summary and
//! attribute set, keeping its own id and truncation flag. The lattice
//! and the JSM then work once per distinct attribute row. Output is
//! byte-identical to a trace-by-trace run: a repeated trace would fold,
//! mine and pair exactly as its class's first trace did.
//!
//! # Parallel execution
//!
//! The [`PipelineOptions::threads`] knob changes how fast an answer is
//! computed, never which answer: output is **byte-identical** for every
//! thread count. The front half is one ordered stream
//! ([`crate::sync::par_stream`]) with a task per (execution, class):
//! filter, key, fold into the task's own loop table. Its sink replays
//! the folds into the shared table in (execution, class) order as they
//! arrive — the one fold form of [`nlr::fold`], which keeps the
//! schedule out of the loop IDs (they leak into attribute names and
//! rendered summaries). At one thread the driver streams and finishes
//! one execution, then the next; with more, it streams every execution
//! at once and then finishes them concurrently. All other stages
//! (mining, JSM rows, JSM diff, row scores) are pure per-item functions
//! whose outputs are merged in a fixed order.

use crate::attributes::{mine, AttrConfig, AttrKind, FreqMode};
use crate::check::{CheckInput, DiffDenied, LintGate, PrePass};
use crate::filter::{symbol_name, FilterConfig};
use crate::hbcheck::HbCheck;
use crate::jsm::JsmMatrix;
use crate::lint::{Lint, LintOptions};
use crate::nlr_stage::{fold_stream, NlrSet};
use crate::racecheck::RaceCheck;
use crate::reqcheck::ReqCheck;
use crate::sync::{effective_threads, par_map, par_stream};
use cluster::{bscore, linkage, CondensedMatrix, Dendrogram, Method};
use dt_cache::Cache;
use dt_obs::{stage, time_into, Recorder};
use dt_trace::{Classes, TraceId, TraceSet};
use fca::{ConceptLattice, FormalContext};
use nlr::{LoopTable, Nlr};
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
    /// The diff pre-pass gates, keyed by [`crate::Checker::NAME`]; a
    /// checker missing from the table is [`LintGate::Off`]. Each gate
    /// says whether its checker runs before diffing and whether its
    /// findings stop the pipeline (see [`crate::check`]); checkers that
    /// need happens-before logs run only when [`try_diff_runs`] gets
    /// them, and the single-execution entry points never run checkers.
    pub gates: BTreeMap<&'static str, LintGate>,
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
            gates: BTreeMap::new(),
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

    /// The gate of the checker called `name`.
    pub fn gate(&self, name: &str) -> LintGate {
        self.gates.get(name).copied().unwrap_or_default()
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

impl Default for Params {
    /// The defaults of every analysis command and daemon query: the
    /// `everything` filter at K = 10, `sing.actual` attributes, Ward.
    fn default() -> Params {
        Params::new(
            FilterConfig::everything(10),
            AttrConfig {
                kind: AttrKind::Single,
                freq: FreqMode::Actual,
            },
        )
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

/// Analyze one execution (object set = its own traces) under `params`,
/// interning loops into `table` and reporting stage spans and counters
/// into `rec`. Output is byte-identical for every `opts.threads` value
/// and whatever recorder is passed (asserted by the
/// parallel-equivalence harness).
pub fn analyze(
    set: &TraceSet,
    params: &Params,
    table: &mut LoopTable,
    opts: &PipelineOptions,
    rec: &dyn Recorder,
) -> AnalysisRun {
    let mut runs = analyze_runs(&[set], params, &set.ids(), table, opts, rec);
    runs.pop().expect("one execution analyzed")
}

/// The stage names of the driver's front half.
const STAGES: [&str; 2] = ["filter", "nlr"];

/// The one analysis driver: analyze every execution in `sets` against
/// the object universe `ids` (traces missing from a set become empty
/// objects — e.g. threads a fault prevented from spawning), all
/// interning into `table`, so a loop ID means the same body in every
/// execution. The thread count is resolved once, by
/// [`effective_threads`]: at one thread each execution is filtered,
/// folded and finished before the next; with more, every class of
/// every execution streams through one front half (replayed into
/// `table` in `sets` order) and the executions finish concurrently on
/// an equal share of the workers.
fn analyze_runs(
    sets: &[&TraceSet],
    params: &Params,
    ids: &[TraceId],
    table: &mut LoopTable,
    opts: &PipelineOptions,
    rec: &dyn Recorder,
) -> Vec<AnalysisRun> {
    let threads = effective_threads(opts.threads, sets.len() * ids.len().max(1));
    let cache = opts.cache.as_deref();
    let finish = |set: &TraceSet, folded: &Folded, threads: usize| {
        record_front_counters(rec, set, folded, ids);
        finish_run(set, params, folded, ids, threads, rec, cache)
    };
    if threads <= 1 {
        return sets
            .iter()
            .map(|&set| {
                let folded = fold_runs(&[set], params, ids, table, 1, cache, rec, STAGES);
                finish(set, &folded[0], 1)
            })
            .collect();
    }
    let folded = fold_runs(sets, params, ids, table, threads, cache, rec, STAGES);
    let per_run = (threads / sets.len()).max(1);
    par_map(&folded, sets.len(), |s, f| finish(sets[s], f, per_run))
}

/// One execution after the front half of an analysis.
#[derive(Default)]
pub(crate) struct Folded {
    /// Its traces (in `ids` order) grouped into classes of equal raw
    /// streams; a trace missing from the execution is empty.
    pub classes: Classes,
    /// Each class's filtered stream, in class order.
    pub symbols: Vec<Vec<u32>>,
    /// Each class's NLR cache key; empty without a cache.
    pub keys: Vec<u128>,
    /// Each class's summary, under the shared table's canonical
    /// numbering.
    pub terms: Vec<Nlr>,
    /// Actual NLR-builder invocations — at most one per class, fewer
    /// when the cache is warm.
    pub folds: u64,
}

/// The front half of an analysis for every execution in `sets`, all
/// folding into `table` on up to `threads` workers. Each execution's
/// traces, aligned to `ids`, are grouped into classes of equal raw
/// streams — the filter keeps a symbol by its value alone, so equal
/// raw streams filter equally. Then one [`par_stream`] runs a task per
/// (execution, class): filter the class's first stream through the
/// execution's `KeepTable`, key it when a cache is in use, and fold
/// it or look it up ([`fold_stream`]). The sink replays each fold into
/// `table` in (execution, class) order, with a window of `2 × threads`
/// folds, and keeps the filtered stream for mining. Classes never span
/// two executions: each has its own registry.
///
/// `stages` names the two spans, reported once per call: the first
/// (filter) sums the classing and the tasks' filtering, the second
/// (NLR) the tasks' keying and folding and the sink's replay. At one
/// thread that is each stage's wall time; at more, the tasks' busy
/// time. Each worker's task time goes under the second name. Shared by
/// the pipeline driver and the N-way fleet fold.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fold_runs(
    sets: &[&TraceSet],
    params: &Params,
    ids: &[TraceId],
    table: &mut LoopTable,
    threads: usize,
    cache: Option<&Cache>,
    rec: &dyn Recorder,
    stages: [&str; 2],
) -> Vec<Folded> {
    let k = params.filter.nlr_k;
    let (mut filter_ns, mut nlr_ns) = (0, 0);
    let (fronts, mut folded): (Vec<_>, Vec<_>) = time_into(rec, &mut filter_ns, || {
        sets.iter()
            .map(|set| {
                let raw: Vec<&[u32]> = ids
                    .iter()
                    .map(|&id| set.get(id).map_or(&[][..], |t| &t.events))
                    .collect();
                let classes = Classes::new(&raw, |r| *r);
                let keep = params.filter.keep_table(&set.registry);
                let folded = Folded {
                    classes,
                    ..Folded::default()
                };
                ((raw, keep), folded)
            })
            .unzip()
    });
    let tasks: Vec<(usize, usize)> = folded
        .iter()
        .enumerate()
        .flat_map(|(s, f)| f.classes.reps.iter().map(move |&i| (s, i)))
        .collect();
    par_stream(
        &tasks,
        threads,
        2 * threads,
        rec,
        stages[1],
        |_, &(s, i)| {
            let (raw, keep) = &fronts[s];
            let (mut f_ns, mut n_ns) = (0, 0);
            let kept = time_into(rec, &mut f_ns, || keep.filter(raw[i]));
            let (key, fold) = time_into(rec, &mut n_ns, || {
                let name = |sym| symbol_name(&sets[s].registry, sym);
                let key = cache.map(|_| dt_cache::nlr_key(k, &kept, name));
                (key, fold_stream(k, &kept, cache.zip(key)))
            });
            (kept, key, fold, f_ns, n_ns)
        },
        |t, (kept, key, (fold, fresh), f_ns, n_ns)| {
            let f = &mut folded[tasks[t].0];
            filter_ns += f_ns;
            nlr_ns += n_ns;
            time_into(rec, &mut nlr_ns, || {
                f.terms.push(Arc::unwrap_or_clone(fold).replay(table));
            });
            f.symbols.push(kept);
            f.keys.extend(key);
            f.folds += u64::from(fresh);
        },
    );
    if rec.enabled() {
        rec.span_ns(stages[0], filter_ns);
        rec.span_ns(stages[1], nlr_ns);
    }
    folded
}

/// Tally the front half's work into `rec` (no-op when disabled):
/// filter volume, the class count (`trace_classes`), and NLR sizes
/// plus `nlr_folds` — actual builder invocations, one per class cold
/// and fewer with a warm cache, which is how the bench and CI assert
/// that work was skipped without comparing wall-clock.
fn record_front_counters(rec: &dyn Recorder, set: &TraceSet, f: &Folded, ids: &[TraceId]) {
    if !rec.enabled() {
        return;
    }
    rec.add("traces", ids.len() as u64);
    rec.add("trace_classes", f.classes.len() as u64);
    rec.add(
        "events_total",
        set.iter().map(|t| t.events.len() as u64).sum(),
    );
    rec.add(
        "events_kept",
        f.classes
            .of
            .iter()
            .map(|&c| f.symbols[c].len() as u64)
            .sum(),
    );
    rec.add("nlr_folds", f.folds);
    rec.add(
        "nlr_terms",
        f.classes
            .of
            .iter()
            .map(|&c| f.terms[c].elements().len() as u64)
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

/// The back half of an analysis — attribute mining, formal context,
/// lattice, JSM, dendrogram — given the front half's (already
/// canonical) summaries. Mining runs once per class of equal streams,
/// fanned out across `threads`, and every member shares its class's
/// attribute set; the context is assembled sequentially in `ids` order
/// so object/attribute numbering never depends on the schedule, and
/// the lattice and JSM work once per distinct row. With a cache, mined
/// attribute sets are memoized, each key mined once however the
/// workers race ([`Cache::attrs`]): mined labels embed global loop IDs,
/// so the attr key covers the summary's element sequence too (see
/// [`dt_cache::attr_key`]).
fn finish_run(
    set: &TraceSet,
    params: &Params,
    folded: &Folded,
    ids: &[TraceId],
    threads: usize,
    rec: &dyn Recorder,
    cache: Option<&Cache>,
) -> AnalysisRun {
    let Folded {
        classes,
        symbols,
        keys,
        terms,
        ..
    } = folded;
    let name = |s: u32| symbol_name(&set.registry, s);
    let attr_code = params.attrs.to_string();
    let mined: Vec<Arc<dt_cache::AttrSet>> = {
        let _s = stage(rec, "mine");
        crate::sync::par_map_obs(terms, threads, rec, "mine", |c, nlr| {
            let fresh = || mine(&symbols[c], nlr, params.attrs, &name);
            match cache {
                Some(cache) => {
                    let akey = dt_cache::attr_key(keys[c], &attr_code, nlr.elements());
                    cache.attrs(akey, fresh).0
                }
                None => Arc::new(fresh()),
            }
        })
    };
    if rec.enabled() {
        rec.add(
            "attributes_mined",
            classes.of.iter().map(|&c| mined[c].len() as u64).sum(),
        );
    }
    let (context, lattice) = {
        let _s = stage(rec, "lattice");
        let mut context = FormalContext::new();
        for (id, &c) in ids.iter().zip(&classes.of) {
            let attrs = &mined[c];
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
        JsmMatrix::from_context_opts(&context, ids.to_vec(), threads)
    };
    if rec.enabled() {
        rec.add("jsm_cells", (jsm.len() * jsm.len()) as u64);
    }
    let dendrogram = {
        let _s = stage(rec, "linkage");
        linkage(&CondensedMatrix::from_similarity(&jsm.m), params.linkage)
    };
    let traces = ids
        .iter()
        .map(|&id| (id, set.get(id).is_some_and(|t| t.truncated)));
    AnalysisRun {
        registry: set.registry.clone(),
        ids: ids.to_vec(),
        nlrs: NlrSet::of_classes(traces, classes, terms),
        context,
        lattice,
        jsm,
        dendrogram,
    }
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

/// [`diff_runs`] with explicit execution options.
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
/// Both executions are then analyzed by the one driver against the
/// union of their trace IDs and one loop table. Output is
/// byte-identical whatever recorder is passed, at any thread count.
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

    let mut table = LoopTable::new();
    let runs = analyze_runs(&[normal, faulty], params, &ids, &mut table, opts, rec);
    let Ok([normal_run, faulty_run]) = <[AnalysisRun; 2]>::try_from(runs) else {
        unreachable!("two executions analyzed");
    };
    if rec.enabled() {
        rec.add("loops_interned", table.len() as u64);
    }
    let threads = effective_threads(opts.threads, 2 * ids.len().max(1));
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
                .row(g)
                .iter()
                .map(|&(a, w)| (run.context.attr_name(a).to_string(), w))
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
        let run = analyze(
            &normal,
            &params(),
            &mut table,
            &PipelineOptions::default(),
            &dt_obs::NOOP,
        );
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

    /// Duplicate traces fold once per class, and classes through one
    /// cache fold once per content key, at every thread count: the
    /// builder runs and the cache counters read exactly what they read
    /// at one thread, however the workers race.
    #[test]
    fn fold_counts_do_not_depend_on_threads() {
        // 16 traces over 4 distinct streams, long enough that workers
        // overlap on one key.
        let registry = Arc::new(FunctionRegistry::from_names(
            (0..5).map(|f| format!("f{f}")),
        ));
        let mut set = TraceSet::new(registry);
        for t in 0..16u32 {
            let s = t % 4;
            let stream: Vec<u32> = (0..20_000u32)
                .map(|i| s + i % (3 + s) + (i / 97) % 2)
                .collect();
            set.insert(dt_trace::Trace::from_symbols(
                TraceId::new(t, 0),
                &stream,
                false,
            ));
        }
        let counts = |threads: usize| {
            let cache = Cache::new();
            let mut table = LoopTable::new();
            let folded = fold_runs(
                &[&set, &set],
                &Params::default(),
                &set.ids(),
                &mut table,
                threads,
                Some(&cache),
                &dt_obs::NOOP,
                STAGES,
            );
            assert_eq!(folded[0].classes.len(), 4);
            let s = cache.stats();
            (
                folded.iter().map(|f| f.folds).sum::<u64>(),
                s.nlr_hits,
                s.nlr_misses,
            )
        };
        // Each set looks up its 4 classes once: the first set folds
        // them, the second hits.
        let sequential = counts(1);
        assert_eq!(sequential, (4, 4, 4));
        for threads in [2, 4, 8] {
            for rep in 0..20 {
                assert_eq!(counts(threads), sequential, "threads={threads} rep={rep}");
            }
        }
    }

    /// Duplicate traces mine once per class, and classes through one
    /// cache once per attribute key, at every thread count: the
    /// attribute counters read exactly what they read at one thread,
    /// however the workers race.
    #[test]
    fn attr_counts_do_not_depend_on_threads() {
        // 16 traces over 4 distinct streams that barely fold, diffed
        // against themselves: the two executions finish concurrently,
        // and each mine is long enough that they overlap on one key.
        let registry = Arc::new(FunctionRegistry::new());
        let set = crate::record_masters(&registry, 16, |p, tr| {
            let mut x = p % 4 + 1;
            for _ in 0..1_000 {
                x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
                tr.leaf(&format!("f{}", (x >> 16) % 64));
            }
        });
        let params = Params::new(
            FilterConfig::everything(10),
            AttrConfig {
                kind: AttrKind::Double,
                freq: FreqMode::Actual,
            },
        );
        let counts = |threads: usize| {
            let cache = Arc::new(Cache::new());
            let opts = PipelineOptions {
                threads,
                cache: Some(Arc::clone(&cache)),
                ..PipelineOptions::default()
            };
            try_diff_runs(&set, &set, None, &params, &opts, &dt_obs::NOOP).unwrap();
            let s = cache.stats();
            (s.attr_hits, s.attr_misses)
        };
        // Each execution looks up its 4 classes once: one mines, the
        // other hits.
        let sequential = counts(1);
        assert_eq!(sequential, (4, 4));
        for threads in [2, 4, 8] {
            for rep in 0..5 {
                assert_eq!(counts(threads), sequential, "threads={threads} rep={rep}");
            }
        }
    }
}
