//! Single-execution outlier analysis — the paper's §II-A remark that
//! "many types of faults may be apparent just by analyzing JSM_faulty:
//! for instance, processes whose execution got truncated will look
//! highly dissimilar to those that terminated normally. In those use
//! cases … the B-score based ranking can then be made on JSM_faulty
//! directly."
//!
//! [`analyze_single_opts_rec`] clusters one execution's traces and
//! reports the *outlier clusters*: the smallest flat clusters, which in
//! a mostly homogeneous SPMD job are the aberrant threads. No reference
//! execution is needed — this is the entry point when no "last known
//! good" run exists.

use crate::pipeline::{analyze, AnalysisRun, Params, PipelineOptions};
use cluster::fcluster_maxclust;
use dt_obs::{stage, Recorder};
use dt_trace::{TraceId, TraceSet};
use nlr::LoopTable;

/// The result of single-run outlier analysis.
#[derive(Debug)]
pub struct SingleRunReport {
    /// The underlying analysis (lattice, JSM, dendrogram).
    pub run: AnalysisRun,
    /// Flat clusters at the chosen granularity, largest first; each is
    /// a set of trace IDs.
    pub clusters: Vec<Vec<TraceId>>,
    /// Members of the smallest cluster(s) — the outliers.
    pub outliers: Vec<TraceId>,
}

/// Cluster one execution's traces into `k` flat clusters and surface
/// the outliers, reporting stage spans and counters into `rec`. `k = 0`
/// picks the granularity automatically: the largest `k ≤ 4` whose
/// smallest cluster is a strict minority (falling back to 2). Like
/// every entry point, `opts` (threads, analysis cache) and `rec` change
/// how fast the report is computed, never what it says.
pub fn analyze_single_opts_rec(
    set: &TraceSet,
    params: &Params,
    k: usize,
    opts: &PipelineOptions,
    rec: &dyn Recorder,
) -> SingleRunReport {
    let mut table = LoopTable::new();
    let run = analyze(set, params, &mut table, opts, rec);
    if rec.enabled() {
        rec.add("loops_interned", table.len() as u64);
    }
    let _s = stage(rec, "cluster");
    let n = run.ids.len();
    let k = if k == 0 {
        pick_k(&run, n)
    } else {
        k.clamp(1, n.max(1))
    };
    let labels = fcluster_maxclust(&run.dendrogram, k);
    let mut clusters: Vec<Vec<TraceId>> = vec![Vec::new(); k];
    for (i, &l) in labels.iter().enumerate() {
        clusters[l].push(run.ids[i]);
    }
    clusters.sort_by_key(|c| std::cmp::Reverse(c.len()));
    let min_len = clusters.last().map(|c| c.len()).unwrap_or(0);
    let outliers: Vec<TraceId> = clusters
        .iter()
        .filter(|c| c.len() == min_len && c.len() < n)
        .flatten()
        .copied()
        .collect();
    SingleRunReport {
        run,
        clusters,
        outliers,
    }
}

fn pick_k(run: &AnalysisRun, n: usize) -> usize {
    if n < 2 {
        return 1;
    }
    // Smallest granularity whose minority cluster is strict — coarser
    // cuts keep homogeneous majorities together (zero-distance merges
    // split arbitrarily at finer cuts).
    for k in 2..=4.min(n) {
        let labels = fcluster_maxclust(&run.dendrogram, k);
        let mut sizes = vec![0usize; k];
        for &l in &labels {
            sizes[l] += 1;
        }
        let min = *sizes.iter().min().unwrap();
        if min * 2 < n {
            return k;
        }
    }
    2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::{AttrConfig, AttrKind, FreqMode};
    use crate::filter::FilterConfig;
    use dt_trace::FunctionRegistry;
    use std::sync::Arc;

    fn params() -> Params {
        Params::new(
            FilterConfig::mpi_all(10),
            AttrConfig {
                kind: AttrKind::Single,
                freq: FreqMode::NoFreq,
            },
        )
    }

    fn analyze_single(set: &TraceSet, params: &Params, k: usize) -> SingleRunReport {
        analyze_single_opts_rec(set, params, k, &PipelineOptions::default(), &dt_obs::NOOP)
    }

    /// 7 healthy ranks reach Finalize; one truncated rank does not.
    fn truncated_run() -> TraceSet {
        let registry = Arc::new(FunctionRegistry::new());
        crate::record_masters(&registry, 8, |p, tr| {
            tr.leaf("MPI_Init");
            for _ in 0..4 {
                tr.leaf("MPI_Send");
                tr.leaf("MPI_Recv");
            }
            if p != 5 {
                tr.leaf("MPI_Finalize");
            } else {
                // Rank 5 hung in an extra recv and was killed.
                let f = tr.intern("MPI_Recv");
                tr.call(f);
                tr.poison();
            }
        })
    }

    #[test]
    fn truncated_rank_is_the_outlier() {
        let report = analyze_single(&truncated_run(), &params(), 0);
        assert_eq!(report.outliers, vec![TraceId::master(5)]);
        assert_eq!(report.clusters[0].len(), 7);
    }

    #[test]
    fn homogeneous_run_yields_no_strict_outlier_majority() {
        // All identical traces: any cut splits arbitrarily; outliers
        // may exist but clusters sizes are as even as possible — and
        // with k forced to 1 there are none.
        let registry = Arc::new(FunctionRegistry::new());
        let set = crate::record_masters(&registry, 4, |_p, tr| {
            tr.leaf("MPI_Init");
            tr.leaf("MPI_Finalize");
        });
        let report = analyze_single(&set, &params(), 1);
        assert!(report.outliers.is_empty());
        assert_eq!(report.clusters.len(), 1);
    }

    #[test]
    fn explicit_k_is_respected() {
        let report = analyze_single(&truncated_run(), &params(), 3);
        assert_eq!(report.clusters.len(), 3);
        let total: usize = report.clusters.iter().map(|c| c.len()).sum();
        assert_eq!(total, 8);
    }
}
