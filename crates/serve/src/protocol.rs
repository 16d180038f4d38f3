//! The wire protocol of `difftrace serve`: line-delimited JSON over a
//! TCP stream.
//!
//! Each request is ONE line holding ONE JSON object; each reply is one
//! line too. Requests carry an `id` the reply echoes, so a client may
//! pipeline several requests on one connection and match answers.
//!
//! ```text
//! → {"id":1,"cmd":"lint","corpus":"faulty","format":"json"}
//! ← {"id":1,"ok":true,"errors":2,"output":"{…}\n"}
//! → {"id":2,"cmd":"nonsense"}
//! ← {"id":2,"ok":false,"error":"unknown command `nonsense` (…)"}
//! ```
//!
//! The `output` field of a successful reply is byte-for-byte what the
//! one-shot CLI would have printed to stdout for the same query — the
//! serve-equivalence suite holds the daemon to that.
//!
//! Malformed frames (bad JSON, unknown fields, wrong types) get a
//! diagnosed `ok:false` reply — never a dropped connection, never a
//! daemon crash.
//!
//! Both ends send a frame with [`write_line`]: the line and its newline
//! leave in one write, on a stream with `TCP_NODELAY` set, so no part
//! of a frame waits for the peer's delayed ACK.

use dt_obs::json::{self, Value};
use std::io::Write;

/// Commands the daemon answers, in help order.
pub const COMMANDS: &[&str] = &[
    "lint",
    "hbcheck",
    "racecheck",
    "reqcheck",
    "diff",
    "fleet",
    "single",
    "metrics",
    "shutdown",
];

/// One parsed request frame. Fields mirror the one-shot CLI flags of
/// the matching subcommand; absent fields take that subcommand's
/// defaults, so a minimal request reproduces the minimal CLI call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Request {
    /// Echoed in the reply (defaults to 0).
    pub id: u64,
    /// One of [`COMMANDS`].
    pub cmd: String,
    /// Corpus name for single-corpus queries.
    pub corpus: Option<String>,
    /// Reference corpus for `diff`.
    pub normal: Option<String>,
    /// Candidate corpus for `diff`.
    pub faulty: Option<String>,
    /// Fleet member corpora for `fleet` (≥ 2).
    pub corpora: Vec<String>,
    /// `fleet`'s `--suspect` run name.
    pub suspect: Option<String>,
    /// `text` (default) or `json` — check-command report format.
    pub format: Option<String>,
    /// `expanded` or `compressed` — check-command analysis domain.
    pub domain: Option<String>,
    /// Lint's `--deep` switch.
    pub deep: bool,
    /// Filter code (lenient for `lint`, strict elsewhere).
    pub filter: Option<String>,
    /// Attribute code for `diff`/`single`.
    pub attrs: Option<String>,
    /// Linkage name for `diff`.
    pub linkage: Option<String>,
    /// Flat-cluster count for `single` (0 = automatic).
    pub k: Option<usize>,
    /// Worker-thread knob, like the CLI `--threads`.
    pub threads: Option<usize>,
    /// Restrict `lint`/`single` to one trace (`"P.T"`) — the lazy
    /// store decodes only that trace.
    pub trace: Option<String>,
    /// diffNLR target override for `diff` (`"P.T"`).
    pub diffnlr: Option<String>,
    /// `diff`'s `--full` report switch.
    pub full: bool,
}

/// One parsed reply frame.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Response {
    /// The request's `id`, echoed back.
    pub id: u64,
    /// Did the query run?
    pub ok: bool,
    /// Error-severity diagnostic count (check commands; 0 elsewhere).
    pub errors: u64,
    /// Exactly what the one-shot CLI prints to stdout (when `ok`).
    pub output: String,
    /// The diagnosis (when `!ok`).
    pub error: String,
}

fn as_str(v: &Value, field: &str) -> Result<String, String> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(format!("malformed request: `{field}` must be a string")),
    }
}

fn as_bool(v: &Value, field: &str) -> Result<bool, String> {
    match v {
        Value::Bool(b) => Ok(*b),
        _ => Err(format!("malformed request: `{field}` must be a boolean")),
    }
}

fn as_str_array(v: &Value, field: &str) -> Result<Vec<String>, String> {
    let arr = v
        .as_array()
        .ok_or_else(|| format!("malformed request: `{field}` must be an array of strings"))?;
    arr.iter()
        .map(|e| match e {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(format!(
                "malformed request: `{field}` must be an array of strings"
            )),
        })
        .collect()
}

fn as_uint(v: &Value, field: &str) -> Result<u64, String> {
    match v {
        Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => Ok(*n as u64),
        _ => Err(format!(
            "malformed request: `{field}` must be a non-negative integer"
        )),
    }
}

/// Parse one request line. Every failure is a diagnosed message fit
/// for an `ok:false` reply.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = json::parse(line).map_err(|e| format!("malformed request: {e}"))?;
    let obj = v
        .as_object()
        .ok_or("malformed request: frame is not a JSON object")?;
    let mut req = Request::default();
    let mut cmd_seen = false;
    for (key, val) in obj {
        match key.as_str() {
            "id" => req.id = as_uint(val, "id")?,
            "cmd" => {
                req.cmd = as_str(val, "cmd")?;
                cmd_seen = true;
            }
            "corpus" => req.corpus = Some(as_str(val, "corpus")?),
            "normal" => req.normal = Some(as_str(val, "normal")?),
            "faulty" => req.faulty = Some(as_str(val, "faulty")?),
            "corpora" => req.corpora = as_str_array(val, "corpora")?,
            "suspect" => req.suspect = Some(as_str(val, "suspect")?),
            "format" => req.format = Some(as_str(val, "format")?),
            "domain" => req.domain = Some(as_str(val, "domain")?),
            "deep" => req.deep = as_bool(val, "deep")?,
            "filter" => req.filter = Some(as_str(val, "filter")?),
            "attrs" => req.attrs = Some(as_str(val, "attrs")?),
            "linkage" => req.linkage = Some(as_str(val, "linkage")?),
            "k" => req.k = Some(as_uint(val, "k")? as usize),
            "threads" => req.threads = Some(as_uint(val, "threads")? as usize),
            "trace" => req.trace = Some(as_str(val, "trace")?),
            "diffnlr" => req.diffnlr = Some(as_str(val, "diffnlr")?),
            "full" => req.full = as_bool(val, "full")?,
            other => return Err(format!("malformed request: unknown field `{other}`")),
        }
    }
    if !cmd_seen {
        return Err("malformed request: missing `cmd` field".to_string());
    }
    if !COMMANDS.contains(&req.cmd.as_str()) {
        return Err(format!(
            "unknown command `{}` (expected one of: {})",
            req.cmd,
            COMMANDS.join(", ")
        ));
    }
    Ok(req)
}

/// Serialise a request as one wire line (no trailing newline) — the
/// client side of [`parse_request`].
pub fn request_line(req: &Request) -> String {
    let mut out = format!("{{\"id\":{},\"cmd\":\"{}\"", req.id, json::escape(&req.cmd));
    for (key, val) in [
        ("corpus", &req.corpus),
        ("normal", &req.normal),
        ("faulty", &req.faulty),
        ("suspect", &req.suspect),
        ("format", &req.format),
        ("domain", &req.domain),
        ("filter", &req.filter),
        ("attrs", &req.attrs),
        ("linkage", &req.linkage),
        ("trace", &req.trace),
        ("diffnlr", &req.diffnlr),
    ] {
        if let Some(v) = val {
            out.push_str(&format!(",\"{key}\":\"{}\"", json::escape(v)));
        }
    }
    if !req.corpora.is_empty() {
        out.push_str(",\"corpora\":[");
        for (i, c) in req.corpora.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\"", json::escape(c)));
        }
        out.push(']');
    }
    if let Some(k) = req.k {
        out.push_str(&format!(",\"k\":{k}"));
    }
    if let Some(t) = req.threads {
        out.push_str(&format!(",\"threads\":{t}"));
    }
    if req.deep {
        out.push_str(",\"deep\":true");
    }
    if req.full {
        out.push_str(",\"full\":true");
    }
    out.push('}');
    out
}

/// A successful reply line (no trailing newline).
pub fn ok_line(id: u64, output: &str, errors: u64) -> String {
    format!(
        "{{\"id\":{id},\"ok\":true,\"errors\":{errors},\"output\":\"{}\"}}",
        json::escape(output)
    )
}

/// A failed reply line (no trailing newline).
pub fn err_line(id: u64, error: &str) -> String {
    format!(
        "{{\"id\":{id},\"ok\":false,\"error\":\"{}\"}}",
        json::escape(error)
    )
}

/// Send one frame: `line` and its `\n` built into one buffer and
/// handed to the stream in a single `write_all`, then flushed. Writing
/// the newline on its own would send it as a second segment, which
/// Nagle's algorithm holds until the peer ACKs the first — a delayed
/// ACK of about 40 ms on every round trip.
pub fn write_line(w: &mut impl Write, line: &str) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(line.len() + 1);
    frame.extend_from_slice(line.as_bytes());
    frame.push(b'\n');
    w.write_all(&frame)?;
    w.flush()
}

/// Parse one reply line — the client side of [`ok_line`]/[`err_line`].
pub fn parse_response(line: &str) -> Result<Response, String> {
    let v = json::parse(line).map_err(|e| format!("malformed response: {e}"))?;
    let obj = v
        .as_object()
        .ok_or("malformed response: frame is not a JSON object")?;
    let mut resp = Response::default();
    let mut ok_seen = false;
    for (key, val) in obj {
        match key.as_str() {
            "id" => resp.id = as_uint(val, "id")?,
            "ok" => {
                resp.ok = as_bool(val, "ok")?;
                ok_seen = true;
            }
            "errors" => resp.errors = as_uint(val, "errors")?,
            "output" => resp.output = as_str(val, "output")?,
            "error" => resp.error = as_str(val, "error")?,
            other => return Err(format!("malformed response: unknown field `{other}`")),
        }
    }
    if !ok_seen {
        return Err("malformed response: missing `ok` field".to_string());
    }
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_the_wire_format() {
        let fleet = Request {
            id: 11,
            cmd: "fleet".to_string(),
            corpora: vec![
                "run-0".to_string(),
                "run-1".to_string(),
                "fault".to_string(),
            ],
            suspect: Some("fault".to_string()),
            threads: Some(2),
            format: Some("json".to_string()),
            ..Request::default()
        };
        let line = request_line(&fleet);
        assert_eq!(parse_request(&line).unwrap(), fleet);

        let req = Request {
            id: 7,
            cmd: "lint".to_string(),
            corpus: Some("faulty".to_string()),
            format: Some("json".to_string()),
            domain: Some("compressed".to_string()),
            deep: true,
            filter: Some("11.all.K10".to_string()),
            threads: Some(4),
            trace: Some("1.0".to_string()),
            ..Request::default()
        };
        let line = request_line(&req);
        assert_eq!(parse_request(&line).unwrap(), req);
    }

    #[test]
    fn response_round_trips_with_tricky_output_bytes() {
        let out = "line one\nline \"two\"\t\\done\n";
        let line = ok_line(3, out, 2);
        let resp = parse_response(&line).unwrap();
        assert!(resp.ok);
        assert_eq!(resp.id, 3);
        assert_eq!(resp.errors, 2);
        assert_eq!(resp.output, out);
        let err = parse_response(&err_line(9, "bad `thing`")).unwrap();
        assert!(!err.ok);
        assert_eq!(err.error, "bad `thing`");
    }

    #[test]
    fn malformed_frames_are_diagnosed() {
        for (frame, needle) in [
            ("", "malformed request"),
            ("not json", "malformed request"),
            ("[1,2]", "not a JSON object"),
            ("{\"id\":1}", "missing `cmd`"),
            ("{\"cmd\":\"launch-missiles\"}", "unknown command"),
            ("{\"cmd\":\"lint\",\"bogus\":1}", "unknown field `bogus`"),
            ("{\"cmd\":\"lint\",\"id\":\"x\"}", "`id` must be"),
            ("{\"cmd\":\"lint\",\"deep\":3}", "`deep` must be"),
            ("{\"cmd\":\"lint\",\"k\":-2}", "`k` must be"),
            ("{\"cmd\":7}", "`cmd` must be a string"),
            (
                "{\"cmd\":\"fleet\",\"corpora\":\"x\"}",
                "`corpora` must be an array",
            ),
            (
                "{\"cmd\":\"fleet\",\"corpora\":[1]}",
                "`corpora` must be an array of strings",
            ),
            (
                "{\"cmd\":\"fleet\",\"suspect\":4}",
                "`suspect` must be a string",
            ),
        ] {
            let err = parse_request(frame).unwrap_err();
            assert!(err.contains(needle), "{frame} → {err}");
        }
    }
}
