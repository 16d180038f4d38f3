//! A minimal JSON reader/escaper — just enough to validate
//! `difftrace-metrics/v1` documents without an external dependency.
//!
//! The writer side of the schema lives in [`crate::Metrics::to_json`];
//! this module provides the matching [`parse`] (strict recursive
//! descent over the full JSON grammar) and the string [`escape`] both
//! sides share. Numbers are held as `f64`, which is exact for every
//! magnitude the schema emits in practice and irrelevant for
//! validation, the only consumer. The daemon's wire protocol parses its
//! frames with it too, so parsing stays linear in the document: a
//! string copies each unescaped run in one step.

/// A parsed JSON value. Object member order is preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, as members in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The members when this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The elements when this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Escape a string for embedding in a JSON document (no surrounding
/// quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Parse one JSON document. Trailing content (other than whitespace)
/// is an error.
pub fn parse(doc: &str) -> Result<Value, String> {
    let bytes = doc.as_bytes();
    let mut at = 0usize;
    let v = parse_value(bytes, &mut at)?;
    skip_ws(bytes, &mut at);
    if at != bytes.len() {
        return Err(format!("trailing content at byte {at}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], at: &mut usize) {
    while *at < b.len() && matches!(b[*at], b' ' | b'\t' | b'\n' | b'\r') {
        *at += 1;
    }
}

fn expect(b: &[u8], at: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*at) == Some(&c) {
        *at += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {at}", c as char))
    }
}

fn parse_value(b: &[u8], at: &mut usize) -> Result<Value, String> {
    skip_ws(b, at);
    match b.get(*at) {
        None => Err("unexpected end of document".into()),
        Some(b'{') => parse_object(b, at),
        Some(b'[') => parse_array(b, at),
        Some(b'"') => parse_string(b, at).map(Value::Str),
        Some(b't') => parse_lit(b, at, b"true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, at, b"false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, at, b"null", Value::Null),
        Some(_) => parse_number(b, at),
    }
}

fn parse_lit(b: &[u8], at: &mut usize, lit: &[u8], v: Value) -> Result<Value, String> {
    if b.len() >= *at + lit.len() && &b[*at..*at + lit.len()] == lit {
        *at += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {at}"))
    }
}

fn parse_number(b: &[u8], at: &mut usize) -> Result<Value, String> {
    let start = *at;
    if b.get(*at) == Some(&b'-') {
        *at += 1;
    }
    while *at < b.len() && matches!(b[*at], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *at += 1;
    }
    std::str::from_utf8(&b[start..*at])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|n| n.is_finite())
        .map(Value::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], at: &mut usize) -> Result<String, String> {
    expect(b, at, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*at) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *at += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *at += 1;
                match b.get(*at) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*at + 1..*at + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or("bad \\u escape")?;
                        // Surrogate pairs are not emitted by our writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *at += 4;
                    }
                    _ => return Err(format!("bad escape at byte {at}")),
                }
                *at += 1;
            }
            Some(c) if *c < 0x20 => {
                return Err(format!("unescaped control character at byte {at}"));
            }
            Some(_) => {
                // Copy the whole run up to the next quote, backslash or
                // control byte in one step, so the scan stays linear in
                // the document. Those bytes are ASCII, so the run ends
                // on a char boundary of the (valid UTF-8) document.
                let run = b[*at..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                    .map_or(b.len(), |n| *at + n);
                out.push_str(std::str::from_utf8(&b[*at..run]).map_err(|_| "invalid UTF-8")?);
                *at = run;
            }
        }
    }
}

fn parse_array(b: &[u8], at: &mut usize) -> Result<Value, String> {
    expect(b, at, b'[')?;
    let mut out = Vec::new();
    skip_ws(b, at);
    if b.get(*at) == Some(&b']') {
        *at += 1;
        return Ok(Value::Arr(out));
    }
    loop {
        out.push(parse_value(b, at)?);
        skip_ws(b, at);
        match b.get(*at) {
            Some(b',') => *at += 1,
            Some(b']') => {
                *at += 1;
                return Ok(Value::Arr(out));
            }
            _ => return Err(format!("expected `,` or `]` at byte {at}")),
        }
    }
}

fn parse_object(b: &[u8], at: &mut usize) -> Result<Value, String> {
    expect(b, at, b'{')?;
    let mut out = Vec::new();
    skip_ws(b, at);
    if b.get(*at) == Some(&b'}') {
        *at += 1;
        return Ok(Value::Obj(out));
    }
    loop {
        skip_ws(b, at);
        let key = parse_string(b, at)?;
        skip_ws(b, at);
        expect(b, at, b':')?;
        let val = parse_value(b, at)?;
        out.push((key, val));
        skip_ws(b, at);
        match b.get(*at) {
            Some(b',') => *at += 1,
            Some(b'}') => {
                *at += 1;
                return Ok(Value::Obj(out));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {at}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("-1.5e2").unwrap(), Value::Num(-150.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Value::Str("a\nb".into()));
        let v = parse("{\"k\":[1,2,{}],\"s\":\"x\"}").unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj[0].0, "k");
        assert_eq!(obj[0].1.as_array().unwrap().len(), 3);
        assert_eq!(obj[1].1, Value::Str("x".into()));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}π";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&doc).unwrap(), Value::Str(nasty.to_string()));
        // Long multi-byte runs, with escapes at their edges and
        // between them.
        let long = "π→𝄞".repeat(5_000);
        for s in [
            long.clone(),
            format!("\"{long}\\"),
            format!("\n{long}\u{7}{long}\t"),
            format!("{long}\"\"{long}"),
            format!("é{long}é"),
        ] {
            let doc = format!("[\"{}\",\"x\"]", escape(&s));
            let want = Value::Arr(vec![Value::Str(s), Value::Str("x".into())]);
            assert_eq!(parse(&doc).unwrap(), want);
        }
        assert!(parse(&format!("\"{long}")).is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "\"unterminated",
            "1 2",
            "nul",
            "[1,]",
            "\"tab\there\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }
}
