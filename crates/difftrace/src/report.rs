//! Full-text debugging reports: everything a DiffTrace iteration
//! produced, in one human-readable document — the "structured
//! presentations of information" the paper argues debugging engineers
//! need (§I, problem 2).

use crate::pipeline::DiffRun;
use cluster::render_dendrogram;
use std::fmt::Write as _;

/// The report prints diffNLR views and weight explanations for this
/// many top suspects.
const DIFFNLR_TOP: usize = 3;

/// Generate the full report for one diff: lattice summaries, the three
/// JSM heatmaps, both dendrograms, and the top suspects' diffNLR views.
pub fn generate(d: &DiffRun) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "================ DiffTrace report ================");
    let _ = writeln!(
        out,
        "params: filter={} attrs={} linkage={}",
        d.params.filter,
        d.params.attrs,
        d.params.linkage.name()
    );
    let _ = writeln!(
        out,
        "traces: {}   B-score: {:.3}",
        d.normal.ids.len(),
        d.bscore
    );
    let _ = writeln!(out, "suspicious processes: {:?}", d.suspicious_processes);
    let _ = writeln!(
        out,
        "suspicious threads:   [{}]",
        d.suspicious_threads
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );

    let _ = writeln!(out, "\n---- concept lattices ----");
    for (label, run) in [("normal", &d.normal), ("faulty", &d.faulty)] {
        let _ = writeln!(
            out,
            "{label}: {} concepts over {} attributes; top extent {} / intent {}",
            run.lattice.concepts().len(),
            run.context.num_attrs(),
            run.lattice.top().extent_len(),
            run.lattice.top().intent_len(),
        );
    }

    let _ = writeln!(
        out,
        "\n---- JSM (normal) ----\n{}",
        d.normal.jsm.render_heatmap()
    );
    let _ = writeln!(
        out,
        "---- JSM (faulty) ----\n{}",
        d.faulty.jsm.render_heatmap()
    );
    let _ = writeln!(
        out,
        "---- JSM_D = |faulty − normal| ----\n{}",
        d.jsm_d.render_heatmap()
    );

    let label = |run: &crate::pipeline::AnalysisRun| {
        let ids = run.ids.clone();
        move |i: usize| ids[i].to_string()
    };
    let _ = writeln!(
        out,
        "---- dendrogram (normal, {}) ----\n{}",
        d.params.linkage.name(),
        render_dendrogram(&d.normal.dendrogram, &label(&d.normal))
    );
    let _ = writeln!(
        out,
        "---- dendrogram (faulty) ----\n{}",
        render_dendrogram(&d.faulty.dendrogram, &label(&d.faulty))
    );

    for id in d.suspicious_threads.iter().take(DIFFNLR_TOP) {
        if let Some(dn) = d.diff_nlr(*id) {
            let _ = writeln!(out, "---- {} ----", dn.render().trim_end());
        }
        let explained = d.explain(*id);
        if !explained.is_empty() {
            let _ = writeln!(out, "why {id} is suspicious (attribute weight changes):");
            for (attr, n, f) in explained.iter().take(8) {
                let _ = writeln!(out, "  {attr:<40} {n:>10.2} -> {f:<10.2}");
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::{AttrConfig, AttrKind, FreqMode};
    use crate::filter::FilterConfig;
    use crate::pipeline::{diff_runs, Params};
    use dt_trace::FunctionRegistry;
    use std::sync::Arc;

    fn diff() -> DiffRun {
        let registry = Arc::new(FunctionRegistry::new());
        let mk = |bad: bool| {
            crate::record_masters(&registry, 4, |p, tr| {
                tr.leaf("MPI_Init");
                let n = if bad && p == 1 { 2 } else { 8 };
                for _ in 0..n {
                    tr.leaf("MPI_Send");
                    tr.leaf("MPI_Recv");
                }
                tr.leaf("MPI_Finalize");
            })
        };
        diff_runs(
            &mk(false),
            &mk(true),
            &Params::new(
                FilterConfig::mpi_all(10),
                AttrConfig {
                    kind: AttrKind::Single,
                    freq: FreqMode::Actual,
                },
            ),
        )
    }

    #[test]
    fn full_report_contains_every_section() {
        let r = generate(&diff());
        for needle in [
            "DiffTrace report",
            "B-score",
            "suspicious processes",
            "concept lattices",
            "JSM (normal)",
            "JSM_D",
            "dendrogram (normal",
            "diffNLR(1.0)",
        ] {
            assert!(r.contains(needle), "missing `{needle}`:\n{r}");
        }
    }
}
