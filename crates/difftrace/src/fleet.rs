//! Fleet-scale N-way diffing on one persistent incremental lattice.
//!
//! The pairwise pipeline ([`crate::pipeline`]) answers "how does THIS
//! faulty run differ from THAT normal run". Production debugging is
//! usually the N-way question instead: one suspicious run against a
//! *fleet* of good ones. [`FleetRun`] folds every run's mined
//! attribute sets into ONE [`fca::ConceptLattice`] via the incremental
//! Godin step ([`fca::ConceptLattice::add_object`]) — run N+1 never
//! rebuilds what runs 1..N already paid for — maintains the cross-run
//! similarity view incrementally as runs arrive, and ranks "which run,
//! and which trace within it, deviates from the consensus".
//!
//! # Ingestion-order independence
//!
//! Folding the same runs in any order yields **byte-identical
//! rankings**. Three design rules make that hold:
//!
//! * every run gets its own local [`nlr::LoopTable`], so loop
//!   numbering never depends on which runs were folded before it;
//! * loops are labelled while mining with content-hash labels
//!   (`L#<hash>` over the structural rendering of the body through
//!   *registry names*), so two runs that fold the same loop agree on
//!   its attribute name no matter what their registries or tables look
//!   like, and no function name is ever read back as a loop;
//! * every floating-point reduction (pairwise [`fca::weighted_jaccard`]
//!   merges, consensus sums, run means) iterates in a canonical order —
//!   name-sorted attributes, name-sorted runs, id-sorted traces —
//!   never in ingestion order.
//!
//! This mirrors how [`nlr::Fold`] replay removes the thread schedule
//! from parallel NLR builds: compute in whatever order is convenient,
//! then canonicalize before anything observable.
//!
//! # Scoring
//!
//! For run `r` and trace `t`, the consensus deviation is
//! `dev(r,t) = 1 − mean over other runs r' of sim((r,t), (r',t))`; a
//! run's score is the mean deviation over its traces. The top-ranked
//! run is flagged as the fleet outlier when its score exceeds twice
//! the median run score (plus an epsilon so a perfectly homogeneous
//! fleet is never flagged). All comparisons go through
//! [`f64::total_cmp`] with name/id tie-breaks, so ranking is total
//! and NaN-safe.

use crate::attributes::mine_labelled;
use crate::filter::symbol_name;
use crate::pipeline::{fold_runs, Folded, Params};
use crate::sync::{effective_threads, par_map_obs};
use cluster::{fcluster_maxclust, linkage, CondensedMatrix};
use dt_cache::Cache;
use dt_obs::{stage, Recorder};
use dt_trace::hash::StableHasher;
use dt_trace::{TraceId, TraceSet};
use fca::{AttrId, ConceptLattice, FormalContext};
use nlr::{Element, LoopId, LoopTable};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A healthy-looking fleet is never flagged: the top score must beat
/// `2 × median + ε`.
const OUTLIER_EPSILON: f64 = 1e-12;

/// Execution options for fleet folding, orthogonal to [`Params`]:
/// they change how fast a run is folded, never what the fold yields.
#[derive(Debug, Clone, Default)]
pub struct FleetOptions {
    /// Worker threads for the per-run NLR/mining stages (0 = all
    /// available parallelism, ≤1 = sequential).
    pub threads: usize,
    /// Content-addressed NLR fold cache. Only the NLR stage is cached:
    /// mined attribute sets embed run-local loop labels, so sharing
    /// the attribute cache across runs would be unsound.
    pub cache: Option<Arc<Cache>>,
}

impl FleetOptions {
    /// Options with the given thread count.
    pub fn with_threads(threads: usize) -> FleetOptions {
        FleetOptions {
            threads,
            ..FleetOptions::default()
        }
    }
}

/// Why a run could not join the fleet. Every variant is a diagnosed
/// input error (CLI exit 2), never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The run's trace set differs from the fleet's universe (fixed by
    /// the first run folded).
    Misaligned {
        /// The offending run.
        run: String,
        /// Universe traces the run lacks.
        missing: Vec<TraceId>,
        /// Run traces outside the universe.
        extra: Vec<TraceId>,
    },
    /// Two runs with the same name.
    DuplicateRun(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Misaligned {
                run,
                missing,
                extra,
            } => {
                let list = |ids: &[TraceId]| {
                    ids.iter()
                        .map(|t| t.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                write!(
                    f,
                    "ragged fleet: run `{run}` does not cover the fleet's trace set:"
                )?;
                if !missing.is_empty() {
                    write!(f, " missing [{}]", list(missing))?;
                }
                if !extra.is_empty() {
                    write!(f, " extra [{}]", list(extra))?;
                }
                Ok(())
            }
            FleetError::DuplicateRun(name) => {
                write!(f, "duplicate run name `{name}` in fleet")
            }
        }
    }
}

impl std::error::Error for FleetError {}

/// One run's place in the consensus ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct RunScore {
    /// Run name.
    pub name: String,
    /// Mean consensus deviation over the run's traces (0 = identical
    /// to the fleet consensus).
    pub score: f64,
    /// Per-trace deviations, ranked most-deviant first.
    pub traces: Vec<(TraceId, f64)>,
}

/// The fleet analysis result: ranking, outlier verdict, clusters.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Runs ranked by score (most deviant first; ties broken by name).
    pub runs: Vec<RunScore>,
    /// The trace universe every run covers, in matrix order.
    pub universe: Vec<TraceId>,
    /// `(run, cluster-id)` in canonical (name-sorted) order, from a
    /// 2-way cut of the run-level dendrogram — the "consensus vs
    /// deviant" grouping.
    pub clusters: Vec<(String, usize)>,
    /// The flagged run, when the top score clears `2 × median + ε`
    /// (needs ≥ 3 runs; a pair has no consensus to deviate from).
    pub outlier: Option<String>,
    /// Median run score (the consensus spread the verdict is against).
    pub median: f64,
    /// Objects folded into the persistent lattice (runs × traces).
    pub objects: usize,
    /// Concepts in the persistent lattice.
    pub concepts: usize,
}

impl FleetReport {
    /// The rank (1-based) and score of `run`, if it is in the fleet.
    pub fn rank_of(&self, run: &str) -> Option<(usize, f64)> {
        self.runs
            .iter()
            .position(|r| r.name == run)
            .map(|i| (i + 1, self.runs[i].score))
    }
}

/// An N-way fleet analysis under one [`Params`]: a persistent formal
/// context + concept lattice grown object-by-object as runs are
/// folded, plus the incrementally maintained cross-run similarity
/// view. Fold runs with [`FleetRun::add_run`], read the ranking with
/// [`FleetRun::report`].
#[derive(Debug)]
pub struct FleetRun {
    params: Params,
    /// Trace ids every run must cover, fixed by the first run.
    universe: Vec<TraceId>,
    /// Run names in fold order.
    runs: Vec<String>,
    /// Per run, per trace (universe order): the name-sorted mined
    /// attribute list with canonical loop labels.
    attrs: Vec<Vec<Vec<(String, f64)>>>,
    /// Persistent context; objects are labelled `run/P.T`.
    context: FormalContext,
    /// Persistent lattice, grown only via the incremental Godin step.
    lattice: ConceptLattice,
    /// `cross[i][j][t]` (j < i) = sim of trace `t` between runs `i`
    /// and `j` (fold order) — the incrementally maintained JSM view.
    cross: Vec<Vec<Vec<f64>>>,
}

impl FleetRun {
    /// An empty fleet under `params`.
    pub fn new(params: Params) -> FleetRun {
        FleetRun {
            params,
            universe: Vec::new(),
            runs: Vec::new(),
            attrs: Vec::new(),
            context: FormalContext::new(),
            lattice: ConceptLattice::new(),
            cross: Vec::new(),
        }
    }

    /// The analysis parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Runs folded so far, in fold order.
    pub fn run_names(&self) -> &[String] {
        &self.runs
    }

    /// The trace universe (empty until the first run is folded).
    pub fn universe(&self) -> &[TraceId] {
        &self.universe
    }

    /// Fold one run into the fleet (see [`FleetRun::add_run_rec`]).
    pub fn add_run(
        &mut self,
        run: &str,
        set: &TraceSet,
        opts: &FleetOptions,
    ) -> Result<(), FleetError> {
        self.add_run_rec(run, set, opts, &dt_obs::NOOP)
    }

    /// Fold one run into the fleet, reporting stage spans and the
    /// incrementality counters (`fleet_runs`, `fleet_lattice_folds`,
    /// `nlr_folds`) into `rec`. The first run fixes the trace
    /// universe; later runs must cover exactly the same trace set or
    /// the fold is refused with a diagnosed [`FleetError::Misaligned`]
    /// (the fleet itself is left unchanged).
    pub fn add_run_rec(
        &mut self,
        run: &str,
        set: &TraceSet,
        opts: &FleetOptions,
        rec: &dyn Recorder,
    ) -> Result<(), FleetError> {
        self.admit(run, set)?;
        let attrs = mine_run(set, &self.params, &self.universe, opts, rec);

        // Grow the persistent lattice by exactly this run's objects —
        // the incremental Godin step, never a rebuild. The counter is
        // what `--metrics` greps to prove incrementality.
        {
            let _s = stage(rec, "fleet_fold");
            for (id, a) in self.universe.iter().zip(&attrs) {
                let g = self.context.add_object(
                    &format!("{run}/{id}"),
                    a.iter().map(|(k, w)| (k.as_str(), *w)),
                );
                self.lattice.add_object(&self.context.object_attrs(g));
            }
        }
        if rec.enabled() {
            rec.add("fleet_runs", 1);
            rec.add("fleet_lattice_folds", self.universe.len() as u64);
        }

        // Incrementally extend the cross-run similarity view: one
        // per-trace row against each already-folded run. Each cell is
        // a pure merge over two runs' name-sorted attribute lists, so
        // its value cannot depend on fold order.
        {
            let _s = stage(rec, "fleet_jsm");
            let row: Vec<Vec<f64>> = self
                .attrs
                .iter()
                .map(|prev| {
                    (0..self.universe.len())
                        .map(|t| fca::weighted_jaccard(&attrs[t], &prev[t]))
                        .collect()
                })
                .collect();
            if rec.enabled() {
                rec.add("fleet_jsm_cells", (row.len() * self.universe.len()) as u64);
            }
            self.cross.push(row);
        }
        self.attrs.push(attrs);
        self.runs.push(run.to_string());
        Ok(())
    }

    /// Refuse a duplicate run name or a run whose trace set differs
    /// from the fleet's; the first run fixes the universe.
    fn admit(&mut self, run: &str, set: &TraceSet) -> Result<(), FleetError> {
        if self.runs.iter().any(|r| r == run) {
            return Err(FleetError::DuplicateRun(run.to_string()));
        }
        let ids = set.ids();
        if self.runs.is_empty() {
            self.universe = ids;
        } else if ids != self.universe {
            let outside = |a: &[TraceId], b: &[TraceId]| -> Vec<TraceId> {
                a.iter().filter(|t| !b.contains(t)).copied().collect()
            };
            return Err(FleetError::Misaligned {
                run: run.to_string(),
                missing: outside(&self.universe, &ids),
                extra: outside(&ids, &self.universe),
            });
        }
        Ok(())
    }

    /// Similarity of trace `t` between runs `a` and `b` (fold-order
    /// indices).
    fn sim(&self, a: usize, b: usize, t: usize) -> f64 {
        if a == b {
            return 1.0;
        }
        let (hi, lo) = if a > b { (a, b) } else { (b, a) };
        self.cross[hi][lo][t]
    }

    /// The fleet ranking. Every reduction runs in canonical order
    /// (name-sorted runs, universe-order traces), so the report is
    /// byte-identical for any fold order of the same runs.
    pub fn report(&self) -> FleetReport {
        let n_runs = self.runs.len();
        let n_traces = self.universe.len();
        let mut order: Vec<usize> = (0..n_runs).collect();
        order.sort_by(|&a, &b| self.runs[a].cmp(&self.runs[b]));

        let mut scores: Vec<RunScore> = order
            .iter()
            .map(|&r| {
                let mut traces: Vec<(TraceId, f64)> = (0..n_traces)
                    .map(|t| {
                        let mut sum = 0.0;
                        for &q in &order {
                            if q != r {
                                sum += self.sim(r, q, t);
                            }
                        }
                        let dev = if n_runs > 1 {
                            1.0 - sum / (n_runs - 1) as f64
                        } else {
                            0.0
                        };
                        (self.universe[t], dev)
                    })
                    .collect();
                let score = if n_traces == 0 {
                    0.0
                } else {
                    traces.iter().map(|x| x.1).sum::<f64>() / n_traces as f64
                };
                traces.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                RunScore {
                    name: self.runs[r].clone(),
                    score,
                    traces,
                }
            })
            .collect();

        let mut sorted: Vec<f64> = scores.iter().map(|r| r.score).collect();
        sorted.sort_by(f64::total_cmp);
        let median = sorted
            .get(sorted.len().saturating_sub(1) / 2)
            .copied()
            .unwrap_or(0.0);

        // Run-level clusters over the canonical (name-sorted) run
        // order: mean per-trace similarity, 2-way dendrogram cut.
        let clusters = if n_runs >= 2 {
            let m: Vec<Vec<f64>> = order
                .iter()
                .map(|&a| {
                    order
                        .iter()
                        .map(|&b| {
                            if n_traces == 0 {
                                1.0
                            } else {
                                (0..n_traces).map(|t| self.sim(a, b, t)).sum::<f64>()
                                    / n_traces as f64
                            }
                        })
                        .collect()
                })
                .collect();
            let dend = linkage(&CondensedMatrix::from_similarity(&m), self.params.linkage);
            order
                .iter()
                .zip(fcluster_maxclust(&dend, 2))
                .map(|(&r, c)| (self.runs[r].clone(), c))
                .collect()
        } else {
            self.runs.iter().map(|r| (r.clone(), 1)).collect()
        };

        scores.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.name.cmp(&b.name)));
        let outlier = if n_runs >= 3 {
            scores
                .first()
                .filter(|top| top.score > 2.0 * median + OUTLIER_EPSILON)
                .map(|top| top.name.clone())
        } else {
            None
        };

        FleetReport {
            runs: scores,
            universe: self.universe.clone(),
            clusters,
            outlier,
            median,
            objects: self.context.num_objects(),
            concepts: self.lattice.concepts().len(),
        }
    }

    /// The persistent lattice in canonical form: the sorted set of
    /// `(sorted extent object labels, sorted intent attribute names)`
    /// pairs. Object indices and attribute interning order are fold
    /// artifacts, so this — not struct equality — is what "the same
    /// lattice" means across incremental and batch construction.
    pub fn lattice_canonical(&self) -> Vec<(Vec<String>, Vec<String>)> {
        let mut out: Vec<(Vec<String>, Vec<String>)> = self
            .lattice
            .concepts()
            .iter()
            .map(|c| {
                let mut ext: Vec<String> = c
                    .extent
                    .iter()
                    .map(|g| self.context.object_label(g).to_string())
                    .collect();
                ext.sort();
                let mut int: Vec<String> = c
                    .intent
                    .iter()
                    .map(|m| self.context.attr_name(AttrId(m as u32)).to_string())
                    .collect();
                int.sort();
                (ext, int)
            })
            .collect();
        out.sort();
        out
    }

    /// From-scratch batch construction: mine every run, assemble ONE
    /// full context, and build the lattice with
    /// [`ConceptLattice::from_context`] — deliberately *not* reusing
    /// any incremental state. Exists so tests can hold the incremental
    /// fold to the batch result (equal canonical lattice, byte-equal
    /// rankings); production callers should fold incrementally.
    pub fn batch_rec(
        params: &Params,
        named: &[(&str, &TraceSet)],
        opts: &FleetOptions,
        rec: &dyn Recorder,
    ) -> Result<FleetRun, FleetError> {
        let mut fleet = FleetRun::new(params.clone());
        for (run, set) in named {
            fleet.admit(run, set)?;
            let attrs = mine_run(set, params, &fleet.universe, opts, rec);
            fleet.attrs.push(attrs);
            fleet.runs.push(run.to_string());
        }
        // One flat context over all objects, lattice from scratch.
        for (run, attrs) in fleet.runs.iter().zip(&fleet.attrs) {
            for (id, a) in fleet.universe.iter().zip(attrs) {
                fleet.context.add_object(
                    &format!("{run}/{id}"),
                    a.iter().map(|(k, w)| (k.as_str(), *w)),
                );
            }
        }
        fleet.lattice = ConceptLattice::from_context(&fleet.context);
        // Full cross-run similarity view in one go.
        for i in 0..fleet.runs.len() {
            let row: Vec<Vec<f64>> = (0..i)
                .map(|j| {
                    (0..fleet.universe.len())
                        .map(|t| fca::weighted_jaccard(&fleet.attrs[i][t], &fleet.attrs[j][t]))
                        .collect()
                })
                .collect();
            fleet.cross.push(row);
        }
        Ok(fleet)
    }
}

/// Mine one run into per-trace, name-sorted attribute lists with
/// canonical (content-hash) loop labels. Uses a run-LOCAL loop table:
/// loop numbering must not leak fleet fold order into attribute names.
fn mine_run(
    set: &TraceSet,
    params: &Params,
    universe: &[TraceId],
    opts: &FleetOptions,
    rec: &dyn Recorder,
) -> Vec<Vec<(String, f64)>> {
    let threads = effective_threads(opts.threads, universe.len());
    let mut table = LoopTable::new();
    let stages = ["fleet_filter", "fleet_nlr"];
    let cache = opts.cache.as_deref();
    let mut folded = fold_runs(
        &[set],
        params,
        universe,
        &mut table,
        threads,
        cache,
        rec,
        stages,
    );
    let Folded {
        classes,
        symbols,
        terms,
        folds,
        ..
    } = folded.pop().expect("one run folded");
    if rec.enabled() {
        rec.add("nlr_folds", folds);
        rec.add("trace_classes", classes.len() as u64);
    }

    let name = |s: u32| symbol_name(&set.registry, s);
    // Canonical labels for every top-level loop reference. Nested
    // references render structurally inside the hash input, so only
    // top-level ids (the only ones mining ever labels) need entries.
    let mut labels: BTreeMap<LoopId, String> = BTreeMap::new();
    for nlr in &terms {
        for e in nlr.elements() {
            if let Element::Loop { body, .. } = e {
                labels
                    .entry(*body)
                    .or_insert_with(|| canonical_loop_label(&table, *body, &name));
            }
        }
    }

    let loop_label = |id: LoopId| labels[&id].clone();
    let _s = stage(rec, "fleet_mine");
    let mined = par_map_obs(&terms, threads, rec, "fleet_mine", |c, nlr| {
        mine_labelled(&symbols[c], nlr, params.attrs, &name, &loop_label)
    });
    classes.of.iter().map(|&c| mined[c].clone()).collect()
}

/// The registry-independent canonical label of a loop body:
/// `L#<hash>` over the structural rendering through symbol *names*
/// (`Sym` → name, nested `Loop` → `[body]^count`). Two runs folding
/// the same loop shape agree on this label whatever their interning
/// orders were.
fn canonical_loop_label<F: Fn(u32) -> String>(table: &LoopTable, id: LoopId, name: &F) -> String {
    let mut rendered = String::new();
    render_body(table, id, name, &mut rendered);
    let mut h = StableHasher::new();
    h.write_raw(rendered.as_bytes());
    format!("L#{:016x}", fold64(h.finish()))
}

fn render_body<F: Fn(u32) -> String>(table: &LoopTable, id: LoopId, name: &F, out: &mut String) {
    for (i, &e) in table.body(id).iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        match e {
            Element::Sym(s) => out.push_str(&name(s)),
            Element::Loop { body, count } => {
                out.push('[');
                render_body(table, body, name, out);
                out.push_str(&format!("]^{count}"));
            }
        }
    }
}

fn fold64(h: u128) -> u64 {
    (h ^ (h >> 64)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn function_named_like_a_loop_token_keeps_its_own_attribute() {
        let registry = Arc::new(dt_trace::FunctionRegistry::new());
        let run = || {
            crate::record_masters(&registry, 2, |_, tr| {
                tr.leaf("MPI_Init");
                for _ in 0..8 {
                    tr.leaf("MPI_Send");
                    tr.leaf("MPI_Recv");
                }
                tr.leaf("L1073741824");
            })
        };
        let mut fleet = FleetRun::new(Params::default());
        for name in ["a", "b"] {
            fleet
                .add_run(name, &run(), &FleetOptions::default())
                .unwrap();
        }
        let row = &fleet.attrs[0][0];
        assert_eq!(row.len(), 3, "{row:?}");
        assert!(row.contains(&("L1073741824".to_string(), 1.0)), "{row:?}");
        assert!(row.contains(&("MPI_Init".to_string(), 1.0)), "{row:?}");
        assert!(
            row.iter().any(|(k, w)| k.starts_with("L#") && *w == 8.0),
            "{row:?}"
        );
    }

    #[test]
    fn canonical_loop_labels_ignore_interning_order() {
        // Same loop body content under two different symbol numberings
        // must hash to the same label.
        let mut ta = LoopTable::new();
        let mut tb = LoopTable::new();
        let inner_a = ta.intern(vec![Element::Sym(1), Element::Sym(2)]);
        let outer_a = ta.intern(vec![
            Element::Sym(0),
            Element::Loop {
                body: inner_a,
                count: 3,
            },
        ]);
        let inner_b = tb.intern(vec![Element::Sym(7), Element::Sym(9)]);
        let outer_b = tb.intern(vec![
            Element::Sym(5),
            Element::Loop {
                body: inner_b,
                count: 3,
            },
        ]);
        let name_a = |s: u32| ["x", "send", "recv"][s as usize].to_string();
        let name_b = |s: u32| match s {
            5 => "x".to_string(),
            7 => "send".to_string(),
            _ => "recv".to_string(),
        };
        assert_eq!(
            canonical_loop_label(&ta, outer_a, &name_a),
            canonical_loop_label(&tb, outer_b, &name_b)
        );
        // A different trip count is a different label.
        let outer_c = ta.intern(vec![
            Element::Sym(0),
            Element::Loop {
                body: inner_a,
                count: 4,
            },
        ]);
        assert_ne!(
            canonical_loop_label(&ta, outer_a, &name_a),
            canonical_loop_label(&ta, outer_c, &name_a)
        );
    }

    #[test]
    fn misaligned_and_duplicate_are_diagnosed() {
        let err = FleetError::Misaligned {
            run: "b".into(),
            missing: vec![TraceId::master(2)],
            extra: vec![],
        };
        let msg = err.to_string();
        assert!(msg.contains("run `b`"), "{msg}");
        assert!(msg.contains("missing [2.0]"), "{msg}");
        let dup = FleetError::DuplicateRun("a".into()).to_string();
        assert!(dup.contains("duplicate run name `a`"), "{dup}");
    }
}
