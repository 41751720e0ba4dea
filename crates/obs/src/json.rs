//! The workspace's one JSON reader and escaper.
//!
//! The workspace is dependency-free by design (no serde): every emitter
//! builds its JSON by direct string construction (field order fixed by
//! the emitting code, which keeps outputs byte-stable) and escapes names
//! with [`escape`]. This module reads JSON back: the daemon parses its
//! request lines with it, `table1 --check` and `profdiff` validate bench
//! dumps with it, and the tests read Chrome traces with it. Since no
//! emitter shares code with the reader, round-tripping an emitter's
//! output through [`parse`] still checks the emitter independently.
//!
//! The grammar is full JSON minus `\u` surrogate pairs (no emitter
//! produces them). Numbers parse as `f64`, exact for every id and counter
//! below 2^53. Arrays and objects nest at most [`MAX_DEPTH`] deep, so a
//! hostile line of brackets is a parse error instead of a stack overflow.
//! Error messages carry the byte offset and are part of the daemon's wire
//! protocol (the `"message"` of `"error":"parse"` responses).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How deeply arrays and objects may nest. Real requests, bench dumps
/// and traces nest at most 5 deep.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Objects use a `BTreeMap` so iteration and error
/// messages are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Object field lookup; `None` for non-objects and missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    #[must_use]
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number that is
    /// one (rejects fractions, negatives, and values above 2^53).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }
}

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns the first syntax error, with its byte offset where one applies.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the cursor.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at offset {}",
                self.pos
            )),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() != Some(b'}') {
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                map.insert(key, self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => break,
                    _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(Value::Object(map))
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() != Some(b']') {
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => break,
                    _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(Value::Array(items))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote or escape
            // in one go. Both stoppers are ASCII, so the run ends on a
            // char boundary of the (valid UTF-8) input.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code).ok_or("surrogate \\u escape unsupported")?,
                            );
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let n: f64 = self.src[start..self.pos]
            .parse()
            .map_err(|_| format!("bad number at offset {start}"))?;
        if !n.is_finite() {
            return Err(format!("non-finite number at offset {start}"));
        }
        Ok(Value::Number(n))
    }
}

/// Escapes `s` for embedding inside a JSON string literal (quotes not
/// included). The workspace's one JSON escaper: traces, metrics, event
/// logs, lint diagnostics, bench reports and the daemon's wire protocol
/// all use it.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// [`escape`] appending to `out` instead of allocating.
pub fn escape_into(out: &mut String, s: &str) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Documents and what `parse` makes of them: the value's `Debug` text,
    /// or the exact error. The error strings go out on the wire as the
    /// `"message"` of the daemon's `"error":"parse"` responses, so they
    /// are pinned byte for byte.
    const CASES: &[(&str, Result<&str, &str>)] = &[
        (
            r#"{"id":3,"op":"points_to","var":"x","deadline_ms":250}"#,
            Ok(
                r#"Object({"deadline_ms": Number(250.0), "id": Number(3.0), "op": String("points_to"), "var": String("x")})"#,
            ),
        ),
        (
            r#"{"a": [1, -2.5, "x\n", true, false, null], "b": {}}"#,
            Ok(
                r#"Object({"a": Array([Number(1.0), Number(-2.5), String("x\n"), Bool(true), Bool(false), Null]), "b": Object({})})"#,
            ),
        ),
        (" [ ] ", Ok("Array([])")),
        (
            r#""café √ \"q\" \/\b\f\r\t""#,
            Ok(r#"String("café √ \"q\" /\u{8}\u{c}\r\t")"#),
        ),
        ("1e5", Ok("Number(100000.0)")),
        ("", Err("unexpected byte at offset 0")),
        ("}{", Err("unexpected byte at offset 0")),
        ("not json", Err("bad literal at offset 0")),
        (r#"{"id":1,"op":tru}"#, Err("bad literal at offset 13")),
        (r#"{"id":30,"#, Err("expected '\"' at offset 9")),
        (r#"{"id":1,}"#, Err("expected '\"' at offset 8")),
        (r#"{"id" 1}"#, Err("expected ':' at offset 6")),
        (r#"{"id":1 "op":2}"#, Err("expected ',' or '}' at offset 8")),
        ("[1,2", Err("expected ',' or ']' at offset 4")),
        ("[1,]", Err("unexpected byte at offset 3")),
        (r#"{"id":1,"op":"a\qb"}"#, Err("bad escape at offset 17")),
        (r#"{"id":1,"var":"\u12"}"#, Err("bad \\u escape")),
        (r#"{"id":1,"var":"\u12"#, Err("truncated \\u escape")),
        (
            r#"{"id":"\ud800"}"#,
            Err("surrogate \\u escape unsupported"),
        ),
        (r#"{"id":"abc"#, Err("unterminated string")),
        (r#"{"id":"abc\"#, Err("unterminated escape")),
        (r#"{"id":-}"#, Err("bad number at offset 6")),
        (r#"{"id":1e999}"#, Err("non-finite number at offset 6")),
        ("{} trailing", Err("trailing bytes at offset 3")),
        (r#"  {"id":1}  x"#, Err("trailing bytes at offset 12")),
    ];

    #[test]
    fn parses_scalars_and_nesting() {
        for (input, want) in CASES {
            if let Ok(want) = want {
                assert_eq!(format!("{:?}", parse(input).unwrap()), *want, "{input}");
            }
        }
        let nested = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&nested).is_ok());

        let v =
            parse(r#"{"id":3,"n":-1,"f":1.5,"big":9007199254740994,"ok":true,"xs":[1]}"#).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(3));
        for key in ["n", "f", "big"] {
            assert_eq!(v.get(key).and_then(Value::as_u64), None, "{key}");
        }
        assert_eq!(v.get("f").and_then(Value::as_number), Some(1.5));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(
            v.get("xs").and_then(Value::as_array).map(<[_]>::len),
            Some(1)
        );
        assert_eq!(v.get("xs").and_then(|xs| xs.get("id")), None);
        assert_eq!(v.get("id").and_then(Value::as_str), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for (input, want) in CASES {
            if let Err(want) = want {
                assert_eq!(parse(input).unwrap_err(), *want, "{input}");
            }
        }
        // One level past the limit is an error, not a stack overflow, at
        // any length of hostile input.
        for opens in [MAX_DEPTH + 1, 20_000] {
            assert_eq!(
                parse(&"[".repeat(opens)).unwrap_err(),
                format!("nesting deeper than {MAX_DEPTH} levels at offset {MAX_DEPTH}")
            );
        }
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let hairy = "a\"b\\c\nd\te\u{1}f√";
        let line = format!("{{\"s\":\"{}\"}}", escape(hairy));
        let v = parse(&line).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some(hairy));
        let mut appended = String::from("x");
        escape_into(&mut appended, hairy);
        assert_eq!(appended, format!("x{}", escape(hairy)));
    }
}
