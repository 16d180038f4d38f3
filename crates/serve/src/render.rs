//! Stdout renderers shared by the one-shot CLI and the daemon.
//!
//! The serve contract is *byte identity*: a served reply's `output`
//! must equal what `difftrace <cmd> …` prints for the same query. The
//! only safe way to keep two front ends byte-identical is to make them
//! call the same code — so the `diff` and `single` summaries, which
//! used to be inline `println!`s in the CLI, live here and both sides
//! render through them. (The check commands need no shared helper:
//! their whole stdout is `Report::render_text`/`render_json`, already
//! one function.)

use difftrace::{DiffRun, FleetReport, Params, SingleRunReport};
use dt_obs::json;
use dt_trace::TraceId;

/// The default `difftrace diff` summary: params echo, B-score,
/// suspect lists, and the diffNLR view of `diffnlr` (or, when `None`,
/// of the top suspicious thread).
pub fn diff_summary(d: &DiffRun, params: &Params, diffnlr: Option<TraceId>) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "params: {} {} {}\n",
        params.filter,
        params.attrs,
        params.linkage.name()
    ));
    out.push_str(&format!("B-score: {:.3}\n", d.bscore));
    out.push_str(&format!(
        "suspicious processes: {:?}\n",
        d.suspicious_processes
    ));
    out.push_str(&format!(
        "suspicious threads:   {}\n",
        d.suspicious_threads
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let target = diffnlr.or_else(|| d.suspicious_threads.first().copied());
    if let Some(id) = target {
        match d.diff_nlr(id) {
            Some(dn) => out.push_str(&format!("\n{dn}\n")),
            None => out.push_str(&format!("\n(no trace {id} in both runs)\n")),
        }
    }
    out
}

/// The `difftrace single` summary: cluster membership plus the
/// outlier verdict. `set_len` is the analyzed trace count.
pub fn single_summary(set_len: usize, report: &SingleRunReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{} traces, {} clusters:\n",
        set_len,
        report.clusters.len()
    ));
    for (i, c) in report.clusters.iter().enumerate() {
        out.push_str(&format!(
            "  cluster {i} ({} traces): {}\n",
            c.len(),
            c.iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    if report.outliers.is_empty() {
        out.push_str("no outliers — the execution looks homogeneous\n");
    } else {
        out.push_str(&format!(
            "outliers: {}\n",
            report
                .outliers
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    out
}

/// How many per-trace deviations the fleet summary shows for the
/// top-ranked run.
const FLEET_TOP_TRACES: usize = 3;

/// The `difftrace fleet` summary, shared by the one-shot CLI and the
/// `fleet` daemon query: params echo, ranking table with the 2-way
/// cluster cut, the outlier verdict, and (when `--suspect` names a
/// run) where that run landed. `format` is `"text"` or `"json"`.
pub fn fleet_summary(
    report: &FleetReport,
    params: &Params,
    suspect: Option<&str>,
    format: &str,
) -> Result<String, String> {
    let json = parse_format(format)? == "json";
    let suspect_rank = match suspect {
        None => None,
        Some(name) => Some(report.rank_of(name).ok_or_else(|| {
            format!(
                "suspect run `{name}` is not in the fleet (runs: {})",
                report
                    .runs
                    .iter()
                    .map(|r| r.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?),
    };
    let cluster_of = |name: &str| {
        report
            .clusters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    };
    if json {
        let mut out = String::from("{\"format\":\"difftrace-fleet/v1\"");
        out.push_str(&format!(
            ",\"runs\":{},\"traces\":{},\"objects\":{},\"concepts\":{},\"median\":{:.6}",
            report.runs.len(),
            report.universe.len(),
            report.objects,
            report.concepts,
            report.median
        ));
        match &report.outlier {
            Some(name) => {
                out.push_str(&format!(",\"outlier\":\"{}\"", json::escape(name)));
            }
            None => out.push_str(",\"outlier\":null"),
        }
        out.push_str(",\"ranking\":[");
        for (i, r) in report.runs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rank\":{},\"run\":\"{}\",\"score\":{:.6},\"cluster\":{},\"top_traces\":[",
                i + 1,
                json::escape(&r.name),
                r.score,
                cluster_of(&r.name)
            ));
            for (j, (id, dev)) in r.traces.iter().take(FLEET_TOP_TRACES).enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"trace\":\"{id}\",\"dev\":{dev:.6}}}"));
            }
            out.push_str("]}");
        }
        out.push(']');
        if let (Some(name), Some((rank, score))) = (suspect, suspect_rank) {
            out.push_str(&format!(
                ",\"suspect\":{{\"run\":\"{}\",\"rank\":{rank},\"score\":{score:.6},\
                 \"is_outlier\":{}}}",
                json::escape(name),
                report.outlier.as_deref() == Some(name)
            ));
        }
        out.push_str("}\n");
        return Ok(out);
    }
    let mut out = String::new();
    out.push_str(&format!(
        "params: {} {} {}\n",
        params.filter,
        params.attrs,
        params.linkage.name()
    ));
    out.push_str(&format!(
        "fleet: {} runs × {} traces ({} objects, {} concepts)\n",
        report.runs.len(),
        report.universe.len(),
        report.objects,
        report.concepts
    ));
    out.push_str("rank  score     cluster  run\n");
    for (i, r) in report.runs.iter().enumerate() {
        out.push_str(&format!(
            "{:>4}  {:.6}  {:>7}  {}\n",
            i + 1,
            r.score,
            cluster_of(&r.name),
            r.name
        ));
    }
    match &report.outlier {
        Some(name) => {
            let top = &report.runs[0];
            out.push_str(&format!(
                "outlier: {name} (score {:.6} > 2 × median {:.6})\n",
                top.score, report.median
            ));
            let traces = top
                .traces
                .iter()
                .take(FLEET_TOP_TRACES)
                .map(|(id, dev)| format!("{id} ({dev:.4})"))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!("  most deviant traces: {traces}\n"));
        }
        None => out.push_str("no outlier — the fleet looks homogeneous\n"),
    }
    if let (Some(name), Some((rank, score))) = (suspect, suspect_rank) {
        let verdict = if report.outlier.as_deref() == Some(name) {
            "it IS the fleet outlier"
        } else {
            "it is not the fleet outlier"
        };
        out.push_str(&format!(
            "suspect {name}: ranked #{rank} of {} (score {score:.6}) — {verdict}\n",
            report.runs.len()
        ));
    }
    Ok(out)
}

/// Validate a report format, `text` or `json` — the `--format` value,
/// the wire `format` field and [`fleet_summary`] go through here.
pub fn parse_format(format: &str) -> Result<&str, String> {
    match format {
        "text" | "json" => Ok(format),
        other => Err(format!("unknown format `{other}` (text|json)")),
    }
}

/// Parse a `"P.T"` trace spec — the `--trace`/`--diffnlr` value and
/// the wire `trace`/`diffnlr` fields go through the same function.
pub fn parse_trace_id(spec: &str) -> Result<TraceId, String> {
    let (p, t) = spec
        .split_once('.')
        .ok_or_else(|| format!("trace spec wants P.T, got `{spec}`"))?;
    Ok(TraceId::new(
        p.parse().map_err(|_| "bad process id".to_string())?,
        t.parse().map_err(|_| "bad thread id".to_string())?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_spec_parses_and_diagnoses() {
        assert_eq!(parse_trace_id("3.1").unwrap(), TraceId::new(3, 1));
        assert!(parse_trace_id("31").is_err());
        assert!(parse_trace_id("a.b").is_err());
    }
}
