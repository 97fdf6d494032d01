//! A minimal, deterministic JSON value — the workspace is std-only, so
//! artifacts that must round-trip (the bench snapshot, checkpoints, fault
//! plans) carry their own writer and parser instead of pulling in serde.
//!
//! Rendering is byte-deterministic: object key order is preserved, floats
//! use Rust's shortest-roundtrip formatter, and indentation is fixed at
//! two spaces — so equal values render to identical bytes, which is what
//! lets lockfiles (`BENCH_louvain.json`, `results/*.json`) be compared
//! with a plain byte diff. Originally private to `louvain-bench`;
//! promoted here so `louvain-core`'s checkpoint subsystem (DESIGN.md §14)
//! can serialize solver state with the same guarantees.

use std::fmt::Write as _;

/// A minimal JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (rendered without a decimal point).
    UInt(u64),
    /// A finite float (rendered via Rust's shortest-roundtrip formatter,
    /// which is deterministic for a given value).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved (and hence deterministic).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (`None` for non-objects and missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value of a `UInt` or `Num`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(u) => Some(*u as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Integer value of a `UInt`.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            _ => None,
        }
    }

    /// Borrow of a `Str`'s content.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow of an `Arr`'s elements.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as pretty-printed JSON (2-space indent, trailing
    /// newline). Key order and float formatting are deterministic, so
    /// equal values render to identical bytes.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        let close_pad = "  ".repeat(indent);
        match self {
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Num(x) => {
                assert!(x.is_finite(), "non-finite float in JSON document: {x}");
                // `{:?}` is the shortest representation that round-trips,
                // always with a decimal point or exponent (valid JSON).
                let _ = write!(out, "{x:?}");
            }
            Json::Str(s) => {
                let _ = write!(out, "\"{}\"", escape(s));
            }
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
                    out.push_str(&pad);
                    item.render_into(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&close_pad);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&pad);
                    let _ = write!(out, "\"{}\": ", escape(k));
                    v.render_into(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&close_pad);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (objects, arrays, strings, numbers, bools;
    /// null is rejected — no producer in this workspace emits it).
    /// Numbers without a fraction, exponent, or sign parse as
    /// [`Json::UInt`]; everything else numeric parses as [`Json::Num`],
    /// so `parse(render(v)) == v` for every value this module produces.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed input or trailing
    /// garbage.
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

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        _ => Err(format!("unexpected input at byte {}", *pos)),
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("bad code point at byte {}", *pos))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            _ => {
                // Copy the run up to the next quote or backslash. Both are
                // ASCII and never occur inside a multi-byte sequence, so
                // the run is whole UTF-8 scalars, and decoding only the
                // run keeps parsing linear in the document length.
                let start = *pos;
                while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
    Err("unterminated string".to_string())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut fractional = false;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                fractional = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    if !fractional && !text.starts_with('-') {
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Json::UInt(u));
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number {text:?} at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_roundtrip_preserves_values() {
        let v = Json::Obj(vec![
            ("a".into(), Json::UInt(42)),
            ("b".into(), Json::Num(0.25)),
            ("c".into(), Json::Str("x \"y\"\nz".into())),
            (
                "d".into(),
                Json::Arr(vec![Json::Bool(true), Json::Num(1e-7), Json::Obj(vec![])]),
            ),
            ("e".into(), Json::Arr(vec![])),
        ]);
        let text = v.render();
        let back = Json::parse(&text).expect("parse");
        assert_eq!(back, v);
    }

    #[test]
    fn multibyte_text_mixed_with_escapes_round_trips() {
        let text = "ß\"é\\ñ\n日本\t語\u{1}𝄞/end";
        let v = Json::Obj(vec![
            ("κλειδί \"q\"".into(), Json::Str(text.into())),
            ("𝄞".into(), Json::Arr(vec![Json::Str("→\\←".into())])),
        ]);
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).expect("parse"), v);
        // Escapes the renderer never emits still decode next to
        // multi-byte text.
        let parsed = Json::parse(r#""ü\u00e9\/ü""#).expect("parse");
        assert_eq!(parsed, Json::Str("üé/ü".into()));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("nope").is_err());
    }

    #[test]
    fn uint_and_float_bits_round_trip() {
        // Checkpoints persist f64s as bit patterns in UInts; the full
        // u64 range must survive a round trip exactly.
        let v = Json::Arr(vec![
            Json::UInt(u64::MAX),
            Json::UInt(f64::NEG_INFINITY.to_bits()),
            Json::UInt(0),
        ]);
        assert_eq!(Json::parse(&v.render()).expect("parse"), v);
    }
}
