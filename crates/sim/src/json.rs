//! Minimal JSON tree, writer, and parser for the run journals and
//! serialized scenario specs.
//!
//! The workspace's `serde` is an offline no-op stub (derives expand to
//! nothing), so on-disk artifacts — run journals, serialized
//! `ScenarioSpec`s — are produced and consumed by this
//! hand-rolled module instead. It covers exactly the JSON subset those
//! schemas need — objects, arrays, strings, finite numbers, booleans,
//! null — and round-trips losslessly: numbers are written with Rust's
//! shortest `f64` representation, which `str::parse::<f64>` recovers
//! exactly.

use std::fmt::Write as _;

/// A parsed JSON value. Object keys keep insertion order so emitted files
/// diff cleanly across runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj(entries: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Object field lookup; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Numeric field as `u64`; rejects negatives and non-integers.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= (1u64 << 53) as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Single-line rendering with no whitespace — one JSONL record.
    /// Canonical for checksumming: a given tree always renders to the
    /// same byte sequence (keys keep insertion order, numbers use the
    /// shortest `f64` form).
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push('0');
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                // JSON has no NaN/Inf; metrics are finite by construction,
                // so degrade rather than emit an unparseable file.
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push('0');
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(bytes, pos, "null").map(|_| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|_| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(entries));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos)?;
                entries.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(entries));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos).map(Json::Num),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let unit = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        // Surrogate pairs: JSON escapes non-BMP code points
                        // as UTF-16 pairs (`\uD83D\uDE00` is U+1F600),
                        // so a high surrogate must combine with an
                        // immediately following low one; either half alone
                        // encodes no scalar value and is rejected.
                        let code = if (0xD800..=0xDBFF).contains(&unit) {
                            if bytes.get(*pos + 1) != Some(&b'\\')
                                || bytes.get(*pos + 2) != Some(&b'u')
                            {
                                return Err("unpaired high surrogate in \\u escape".into());
                            }
                            let low = parse_hex4(bytes, *pos + 3)?;
                            if !(0xDC00..=0xDFFF).contains(&low) {
                                return Err("unpaired high surrogate in \\u escape".into());
                            }
                            *pos += 6;
                            0x1_0000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                        } else if (0xDC00..=0xDFFF).contains(&unit) {
                            return Err("unpaired low surrogate in \\u escape".into());
                        } else {
                            unit
                        };
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so boundaries
                // are valid; find the next char boundary).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && (bytes[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).unwrap());
            }
        }
    }
}

/// Four hex digits starting at `at` (the payload of a `\u` escape).
fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let hex = bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
    let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
    u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|x| x.is_finite())
        .ok_or_else(|| format!("bad number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_reparses_a_nested_document() {
        let doc = Json::obj(vec![
            ("name", Json::Str("sweep \"grid\"\n".into())),
            ("version", Json::Num(1.0)),
            ("ok", Json::Bool(true)),
            ("nothing", Json::Null),
            (
                "items",
                Json::Arr(vec![Json::Num(0.5), Json::Num(-3.25e-7), Json::Num(1e15)]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).expect("reparse");
        assert_eq!(doc, back);
    }

    #[test]
    fn compact_rendering_is_one_line_and_reparses() {
        let doc = Json::obj(vec![
            ("cell", Json::Str("pass1/duel_clean".into())),
            ("xs", Json::Arr(vec![Json::Num(1.0), Json::Num(2.5)])),
            ("nested", Json::obj(vec![("ok", Json::Bool(true))])),
            ("none", Json::Null),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        let line = doc.render_compact();
        assert!(!line.contains('\n'), "compact must be one line: {line}");
        assert!(!line.contains(": "), "no pretty separators: {line}");
        assert_eq!(Json::parse(&line).expect("reparse"), doc);
        assert_eq!(
            line,
            r#"{"cell":"pass1/duel_clean","xs":[1,2.5],"nested":{"ok":true},"none":null,"empty_arr":[],"empty_obj":{}}"#
        );
    }

    #[test]
    fn compact_rendering_escapes_newlines_so_jsonl_stays_line_safe() {
        let doc = Json::Str("torn\nline\r\t\"q\"".into());
        let line = doc.render_compact();
        assert!(!line.contains('\n') && !line.contains('\r'), "{line}");
        assert_eq!(Json::parse(&line).expect("reparse"), doc);
    }

    #[test]
    fn accessors() {
        let doc = Json::obj(vec![
            ("n", Json::Num(42.0)),
            ("x", Json::Num(0.5)),
            ("s", Json::Str("hi".into())),
            ("a", Json::Arr(vec![Json::Num(1.0)])),
        ]);
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(42));
        assert_eq!(doc.get("x").and_then(Json::as_u64), None, "non-integer");
        assert_eq!(doc.get("x").and_then(Json::as_f64), Some(0.5));
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(
            doc.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "{\"a\" 1}",
            "{\"a\": 1} trailing",
            "\"unterminated",
            "nul",
            "1e999", // overflows to inf → rejected as non-finite
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn unicode_and_escape_round_trip() {
        let doc = Json::Str("π ≈ 3.14159 — \t \"done\"\u{1}".into());
        assert_eq!(Json::parse(&doc.render()).expect("reparse"), doc);
        // \u escapes in the input parse too.
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\"").expect("parse"),
            Json::Str("Aé".into())
        );
    }

    #[test]
    fn surrogate_pair_escapes_decode_to_non_bmp_scalars() {
        // U+1F600 😀 escapes as the UTF-16 pair d83d/de00.
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").expect("parse"),
            Json::Str("😀".into())
        );
        // Mixed with BMP escapes and raw text, and at string edges.
        assert_eq!(
            Json::parse("\"x\\ud83d\\ude00\\u0041y\"").expect("parse"),
            Json::Str("x😀Ay".into())
        );
        // The maximum code point U+10FFFF = dbff/dfff.
        assert_eq!(
            Json::parse("\"\\udbff\\udfff\"").expect("parse"),
            Json::Str("\u{10FFFF}".into())
        );
        // Raw (unescaped) non-BMP text still round-trips through the writer.
        let doc = Json::Str("emoji 😀 and beyond \u{10FFFF}".into());
        assert_eq!(Json::parse(&doc.render()).expect("reparse"), doc);
    }

    #[test]
    fn unpaired_surrogate_escapes_are_rejected() {
        for bad in [
            "\"\\ud83d\"",        // lone high at end of string
            "\"\\ud83dx\"",       // high followed by raw text
            "\"\\ud83d\\n\"",     // high followed by a non-\u escape
            "\"\\ud83d\\ud83d\"", // high followed by another high
            "\"\\ude00\"",        // lone low
            "\"\\ude00\\ud83d\"", // pair in the wrong order
        ] {
            let err = Json::parse(bad).expect_err(bad);
            assert!(err.contains("surrogate"), "{bad}: {err}");
        }
    }

    #[test]
    fn shortest_float_repr_round_trips_exactly() {
        for &x in &[
            0.1,
            1.0 / 3.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            -2.2250738585072014e-308,
            #[allow(clippy::excessive_precision)] // deliberately more digits than f64 keeps
            123456789.123456789,
        ] {
            let text = Json::Num(x).render();
            match Json::parse(&text).expect("parse") {
                Json::Num(y) => assert_eq!(x.to_bits(), y.to_bits(), "{x} → {text}"),
                other => panic!("expected number, got {other:?}"),
            }
        }
    }
}
