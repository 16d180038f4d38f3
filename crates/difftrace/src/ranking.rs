//! Ranking tables: parameter sweeps over the DiffTrace loop.
//!
//! "Since DiffTrace output is highly dependent on parameters, each row
//! in ranking tables starts with the parameters that the suspicious
//! traces are the result of" (§IV, lightly paraphrased). A sweep runs [`crate::diff_runs`]
//! for every (filter, attribute) combination and sorts rows by B-score
//! ascending, like Tables VI–IX.

use crate::attributes::AttrConfig;
use crate::filter::FilterConfig;
use crate::pipeline::{try_diff_runs, Params, PipelineOptions};
use cluster::Method;
use dt_cache::Cache;
use dt_trace::{TraceId, TraceSet};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// One row of a ranking table.
#[derive(Debug, Clone)]
pub struct RankingRow {
    /// Filter code, e.g. `11.mem.ompcrit.cust.K10`.
    pub filter: String,
    /// Attribute code, e.g. `doub.noFreq`.
    pub attrs: String,
    /// The B-score of the normal/faulty clustering pair.
    pub bscore: f64,
    /// Most-affected processes.
    pub top_processes: Vec<u32>,
    /// Most-affected threads.
    pub top_threads: Vec<TraceId>,
}

/// Sweep the parameter grid on a (normal, faulty) pair; rows come back
/// sorted by B-score ascending (the paper's table order).
pub fn sweep(
    normal: &TraceSet,
    faulty: &TraceSet,
    filters: &[FilterConfig],
    attr_configs: &[AttrConfig],
    method: Method,
) -> Vec<RankingRow> {
    sweep_cached(normal, faulty, filters, attr_configs, method, None)
}

/// [`sweep`] through a shared analysis [`Cache`]: grid cells that share
/// a filter reuse each trace's NLR fold, and re-runs over unchanged
/// corpora reuse everything. Rows are byte-identical to an uncached
/// sweep (the cache is observational; asserted by the cache-equivalence
/// harness).
pub fn sweep_cached(
    normal: &TraceSet,
    faulty: &TraceSet,
    filters: &[FilterConfig],
    attr_configs: &[AttrConfig],
    method: Method,
    cache: Option<Arc<Cache>>,
) -> Vec<RankingRow> {
    let opts = cell_opts(cache);
    let mut rows: Vec<RankingRow> = grid(filters, attr_configs, method)
        .iter()
        .map(|p| run_cell(normal, faulty, p, &opts, &dt_obs::NOOP))
        .collect();
    sort_rows(&mut rows);
    rows
}

/// Pipeline options for one sweep cell: sequential inside the cell (the
/// grid itself is the parallelism axis), gates off, sharing `cache`.
fn cell_opts(cache: Option<Arc<Cache>>) -> PipelineOptions {
    PipelineOptions {
        cache,
        ..PipelineOptions::default()
    }
}

/// Multi-threaded [`sweep`] — the paper's future-work item (1),
/// "optimizing [the components] to exploit multi-core CPUs": every
/// parameter combination is an independent DiffTrace iteration, so the
/// grid is embarrassingly parallel. Results are identical to [`sweep`]
/// (asserted in tests); `threads` ≤ 0 picks the available parallelism.
pub fn sweep_parallel(
    normal: &TraceSet,
    faulty: &TraceSet,
    filters: &[FilterConfig],
    attr_configs: &[AttrConfig],
    method: Method,
    threads: usize,
) -> Vec<RankingRow> {
    sweep_parallel_rec(
        normal,
        faulty,
        filters,
        attr_configs,
        method,
        threads,
        &dt_obs::NOOP,
    )
}

/// [`sweep_parallel`] reporting into `rec`: one `cell/<filter>/<attrs>`
/// span per grid point, per-worker busy time under `cells`, and a
/// `cells` counter. Observational only — rows are identical whatever
/// recorder is passed.
pub fn sweep_parallel_rec(
    normal: &TraceSet,
    faulty: &TraceSet,
    filters: &[FilterConfig],
    attr_configs: &[AttrConfig],
    method: Method,
    threads: usize,
    rec: &dyn dt_obs::Recorder,
) -> Vec<RankingRow> {
    sweep_parallel_cached_rec(
        normal,
        faulty,
        filters,
        attr_configs,
        method,
        threads,
        None,
        rec,
    )
}

/// [`sweep_parallel_rec`] through a shared analysis [`Cache`]: every
/// worker consults the same cache, so whichever cell folds a
/// (filtered trace, K) first saves the work for all later cells sharing
/// that filter — and for later processes, when the cache is
/// disk-backed. Rows are byte-identical to the uncached sweep.
#[allow(clippy::too_many_arguments)]
pub fn sweep_parallel_cached_rec(
    normal: &TraceSet,
    faulty: &TraceSet,
    filters: &[FilterConfig],
    attr_configs: &[AttrConfig],
    method: Method,
    threads: usize,
    cache: Option<Arc<Cache>>,
    rec: &dyn dt_obs::Recorder,
) -> Vec<RankingRow> {
    let params = grid(filters, attr_configs, method);
    if rec.enabled() {
        rec.add("cells", params.len() as u64);
    }
    let opts = cell_opts(cache);
    let mut rows = crate::sync::par_map_obs(&params, threads, rec, "cells", |_, p| {
        let _s = rec
            .enabled()
            .then(|| dt_obs::stage_owned(rec, format!("cell/{}/{}", p.filter, p.attrs)));
        run_cell(normal, faulty, p, &opts, rec)
    });
    sort_rows(&mut rows);
    rows
}

/// The parameter cross product, deduplicated: callers can pass the same
/// filter (or attribute config) twice — e.g. repeated `--filter` flags
/// — and each distinct (filter, attrs) combination still runs exactly
/// once. Filters compare by [`FilterConfig::stable_code`], which keeps
/// custom patterns, so two `cust` filters with different regexes are
/// distinct cells. First occurrence wins, preserving caller order.
fn grid(filters: &[FilterConfig], attr_configs: &[AttrConfig], method: Method) -> Vec<Params> {
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    let mut out = Vec::with_capacity(filters.len() * attr_configs.len());
    for f in filters {
        for &a in attr_configs {
            if !seen.insert((f.stable_code(), a.to_string())) {
                continue;
            }
            out.push(Params {
                filter: f.clone(),
                attrs: a,
                linkage: method,
            });
        }
    }
    out
}

fn run_cell(
    normal: &TraceSet,
    faulty: &TraceSet,
    params: &Params,
    opts: &PipelineOptions,
    rec: &dyn dt_obs::Recorder,
) -> RankingRow {
    let d = try_diff_runs(normal, faulty, None, params, opts, rec)
        .expect("sweep cells run with all gates off");
    RankingRow {
        filter: params.filter.to_string(),
        attrs: params.attrs.to_string(),
        bscore: d.bscore,
        top_processes: d.suspicious_processes,
        top_threads: d.suspicious_threads,
    }
}

fn sort_rows(rows: &mut [RankingRow]) {
    rows.sort_by(|x, y| {
        x.bscore
            .total_cmp(&y.bscore)
            .then_with(|| x.filter.cmp(&y.filter))
            .then_with(|| x.attrs.cmp(&y.attrs))
    });
}

/// Render rows as an aligned text table in the paper's column layout.
pub fn render_ranking(rows: &[RankingRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<32} {:<12} {:>8}  {:<20} {}\n",
        "Filter", "Attributes", "B-score", "Top Processes", "Top Threads"
    ));
    out.push_str(&"-".repeat(100));
    out.push('\n');
    for r in rows {
        let procs = r
            .top_processes
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let threads = r
            .top_threads
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "{:<32} {:<12} {:>8.3}  {:<20} {}\n",
            r.filter, r.attrs, r.bscore, procs, threads
        ));
    }
    out
}

impl fmt::Display for RankingRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} | {} | {:.3} | {:?} | {:?}",
            self.filter, self.attrs, self.bscore, self.top_processes, self.top_threads
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::{AttrKind, FreqMode};
    use dt_trace::FunctionRegistry;
    use std::sync::Arc;

    fn runs() -> (TraceSet, TraceSet) {
        let registry = Arc::new(FunctionRegistry::new());
        let mk = |bad_rank: Option<u32>| {
            crate::record_masters(&registry, 4, |p, tr| {
                tr.leaf("MPI_Init");
                let n = if Some(p) == bad_rank { 2 } else { 10 };
                for _ in 0..n {
                    tr.leaf("MPI_Allreduce");
                    tr.leaf("MPI_Bcast");
                }
                tr.leaf("MPI_Finalize");
            })
        };
        (mk(None), mk(Some(1)))
    }

    #[test]
    fn sweep_produces_sorted_rows() {
        let (normal, faulty) = runs();
        let filters = vec![FilterConfig::mpi_all(10), FilterConfig::everything(10)];
        let attrs = [
            AttrConfig {
                kind: AttrKind::Single,
                freq: FreqMode::Actual,
            },
            AttrConfig {
                kind: AttrKind::Single,
                freq: FreqMode::NoFreq,
            },
        ];
        let rows = sweep(&normal, &faulty, &filters, &attrs, Method::Ward);
        assert_eq!(rows.len(), 4);
        for w in rows.windows(2) {
            assert!(w[0].bscore <= w[1].bscore);
        }
        // Frequency-sensitive rows must implicate rank 1.
        let actual_rows: Vec<&RankingRow> =
            rows.iter().filter(|r| r.attrs == "sing.actual").collect();
        for r in actual_rows {
            assert_eq!(r.top_processes.first(), Some(&1), "{r}");
        }
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        let (normal, faulty) = runs();
        let filters = vec![FilterConfig::mpi_all(10), FilterConfig::everything(10)];
        let serial = sweep(&normal, &faulty, &filters, &AttrConfig::ALL, Method::Ward);
        for threads in [0usize, 1, 3, 16] {
            let par = sweep_parallel(
                &normal,
                &faulty,
                &filters,
                &AttrConfig::ALL,
                Method::Ward,
                threads,
            );
            assert_eq!(par.len(), serial.len());
            for (a, b) in par.iter().zip(&serial) {
                assert_eq!(a.filter, b.filter);
                assert_eq!(a.attrs, b.attrs);
                assert_eq!(a.bscore, b.bscore);
                assert_eq!(a.top_processes, b.top_processes);
                assert_eq!(a.top_threads, b.top_threads);
            }
        }
    }

    /// Satellite: duplicated grid axes must not produce duplicated
    /// rows — each distinct (filter, attrs) cell runs exactly once.
    #[test]
    fn sweep_deduplicates_grid_cells() {
        let (normal, faulty) = runs();
        // mpiall twice, everything once; sing.actual twice, noFreq once
        // → 2 × 2 = 4 distinct cells, not 3 × 3 = 9.
        let filters = vec![
            FilterConfig::mpi_all(10),
            FilterConfig::mpi_all(10),
            FilterConfig::everything(10),
        ];
        let attrs = [
            AttrConfig {
                kind: AttrKind::Single,
                freq: FreqMode::Actual,
            },
            AttrConfig {
                kind: AttrKind::Single,
                freq: FreqMode::Actual,
            },
            AttrConfig {
                kind: AttrKind::Single,
                freq: FreqMode::NoFreq,
            },
        ];
        let rows = sweep(&normal, &faulty, &filters, &attrs, Method::Ward);
        assert_eq!(rows.len(), 4, "{rows:?}");
        let cells: BTreeSet<(String, String)> = rows
            .iter()
            .map(|r| (r.filter.clone(), r.attrs.clone()))
            .collect();
        assert_eq!(cells.len(), 4, "rows must be distinct cells");

        // Custom filters dedup by pattern, not by the (pattern-eliding)
        // display code: two different regexes are two cells.
        let cust = |pat: &str| FilterConfig {
            keep: vec![crate::KeepClass::Custom(pat.to_string())],
            ..FilterConfig::everything(10)
        };
        let g = grid(
            &[cust("MPI_.*"), cust("omp_.*"), cust("MPI_.*")],
            &attrs[..1],
            Method::Ward,
        );
        assert_eq!(g.len(), 2, "{g:?}");
    }

    /// Satellite (NaN bugfix): a NaN B-score must sort deterministically
    /// instead of panicking — `sort_by(total_cmp)` orders NaN after
    /// every finite value, where `partial_cmp().unwrap()` used to abort
    /// the whole sweep.
    #[test]
    fn sort_rows_is_total_over_nan() {
        let row = |bscore: f64, filter: &str| RankingRow {
            filter: filter.to_string(),
            attrs: "sing.actual".to_string(),
            bscore,
            top_processes: vec![],
            top_threads: vec![],
        };
        let mut rows = vec![
            row(f64::NAN, "c"),
            row(1.0, "b"),
            row(f64::NAN, "a"),
            row(0.25, "d"),
        ];
        sort_rows(&mut rows);
        let order: Vec<&str> = rows.iter().map(|r| r.filter.as_str()).collect();
        // Finite ascending first, then the NaNs tie-broken by filter.
        assert_eq!(order, ["d", "b", "a", "c"]);
        // And sorting is idempotent (deterministic under re-sorts).
        let again = {
            let mut r2 = rows.clone();
            sort_rows(&mut r2);
            r2.iter().map(|r| r.filter.clone()).collect::<Vec<_>>()
        };
        assert_eq!(order, again.iter().map(String::as_str).collect::<Vec<_>>());
        // NaN rows still render rather than crash formatting.
        assert!(render_ranking(&rows).contains("NaN"));
    }

    /// Satellite (NaN bugfix): a degenerate corpus — every trace
    /// identical, plus a filter that keeps nothing — must flow through
    /// the whole sweep without panicking, at any thread count.
    #[test]
    fn degenerate_corpus_survives_sweep() {
        let registry = Arc::new(FunctionRegistry::new());
        let identical = || {
            crate::record_masters(&registry, 4, |_, tr| {
                tr.leaf("MPI_Init");
                tr.leaf("MPI_Finalize");
            })
        };
        let (normal, faulty) = (identical(), identical());
        // `cust:` pattern matching no function: every filtered trace is
        // empty, every attribute set is empty, all similarities
        // degenerate.
        let filters = vec![
            FilterConfig {
                keep: vec![crate::KeepClass::Custom("^nothing_matches$".into())],
                ..FilterConfig::everything(10)
            },
            FilterConfig::mpi_all(10),
        ];
        let serial = sweep(&normal, &faulty, &filters, &AttrConfig::ALL, Method::Ward);
        assert_eq!(serial.len(), 2 * AttrConfig::ALL.len());
        for threads in [0usize, 3] {
            let par = sweep_parallel(
                &normal,
                &faulty,
                &filters,
                &AttrConfig::ALL,
                Method::Ward,
                threads,
            );
            for (a, b) in par.iter().zip(&serial) {
                assert_eq!(
                    (a.filter.as_str(), a.attrs.as_str()),
                    (b.filter.as_str(), b.attrs.as_str())
                );
                assert!(a.bscore == b.bscore || (a.bscore.is_nan() && b.bscore.is_nan()));
            }
        }
    }

    #[test]
    fn render_contains_all_rows() {
        let (normal, faulty) = runs();
        let rows = sweep(
            &normal,
            &faulty,
            &[FilterConfig::mpi_all(10)],
            &[AttrConfig {
                kind: AttrKind::Single,
                freq: FreqMode::Actual,
            }],
            Method::Ward,
        );
        let table = render_ranking(&rows);
        assert!(table.contains("B-score"));
        assert!(table.contains("11.mpiall.K10"));
        assert!(table.contains("sing.actual"));
    }
}
