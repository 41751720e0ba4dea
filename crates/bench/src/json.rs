//! A minimal JSON reader for validating harness output.
//!
//! The toolchain runs fully offline (no serde), and the harness emits JSON
//! by hand — so round-tripping through an independent parser is the
//! cheapest way to catch a malformed emitter. `table1 --check FILE` and the
//! CI smoke-perf step both parse a dumped `--json` file with this module
//! and assert every cell is present and well-formed.
//!
//! Scope: the full JSON grammar minus `\u` surrogate pairs (the emitter
//! never produces them). Numbers are parsed as `f64`, which is exact for
//! every counter the solver can realistically produce (< 2^53).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value. Objects use a `BTreeMap` so iteration order is
/// deterministic in error messages.
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
    /// The value as a finite number, if it is one.
    #[must_use]
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
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

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Object field lookup; `None` for non-objects and missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }
}

/// A parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parses a complete JSON document; trailing content is an error.
///
/// # Errors
///
/// Returns the first syntax error with its byte offset.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after document"));
    }
    Ok(v)
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_owned(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            map.insert(key, self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.err("expected a string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| self.err("\\u escape is not a scalar"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                // Multi-byte UTF-8 passes through unchanged.
                _ => {
                    let start = self.pos - 1;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&b| b != b'"' && b != b'\\')
                    {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Value::Number)
            .ok_or_else(|| self.err("bad number"))
    }
}

/// Fields every [`crate::ExperimentRow`] JSON object must carry.
///
/// `status`, `schema_version` and `threads` are deliberately absent:
/// they are validated separately because dumps from before those fields
/// existed (`BENCH_baseline.json` among them) omit them. A missing
/// status means `"ok"`, a missing version means v1, a missing thread
/// count means `1`.
const ROW_FIELDS: &[&str] = &[
    "workload",
    "analysis",
    "reachable_methods",
    "avg_objs_per_var",
    "call_graph_edges",
    "poly_v_calls",
    "reachable_v_calls",
    "may_fail_casts",
    "reachable_casts",
    "time_secs",
    "sensitive_var_points_to",
    "contexts",
    "heap_contexts",
    "uncaught_exception_sites",
    "stats",
];

/// What [`validate_rows`] found in a well-formed dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowsSummary {
    /// Total number of rows (cells) in the dump.
    pub cells: usize,
    /// Rows tagged `"status":"timeout"` — cells whose solve exceeded the
    /// per-cell deadline even after the retry. Their metrics are the
    /// salvaged partial result, not a real measurement.
    pub timeouts: usize,
    /// Rows tagged `"status":"memory_cap"` — cells whose solve tripped
    /// the per-cell `--max-memory` budget (a deterministic model trip,
    /// not host noise). Their metrics are the salvaged partial result.
    pub memory_caps: usize,
    /// Rows carrying a `"profile"` embed (cells run with `--profile`).
    /// Profiled solves are forced sequential, so their times are not
    /// comparable to unprofiled rows.
    pub profiled: usize,
}

/// Validates a parsed `--json` dump: a non-empty array of rows, each with
/// the full field set, a non-negative wall time, and a `stats` object with
/// numeric counters. Timed-out rows (`"status":"timeout"`) are tolerated
/// and counted; a missing `status` (legacy dump) means `"ok"`. Rows
/// carrying a `"profile"` embed (`--profile` dumps, `BENCH_profile.json`)
/// are tolerated and counted too; when present the embed must hold a
/// `"rules"` array whose entries have a name and numeric counters.
///
/// Both schema versions are accepted: v1 dumps (no `schema_version`, no
/// `threads` — `BENCH_baseline.json` era) and v2 dumps (both fields on
/// every row). A version this reader does not know is an error, so a
/// future incompatible format fails loudly instead of half-validating.
///
/// # Errors
///
/// Returns a message naming the first offending row and field.
pub fn validate_rows(doc: &Value) -> Result<RowsSummary, String> {
    let rows = doc.as_array().ok_or("top level is not an array")?;
    if rows.is_empty() {
        return Err("no rows".to_owned());
    }
    let mut timeouts = 0;
    let mut memory_caps = 0;
    let mut profiled = 0;
    for (i, row) in rows.iter().enumerate() {
        match row.get("schema_version").map(Value::as_number) {
            None => {} // v1: predates row versioning
            Some(Some(v)) if v == 1.0 || v == f64::from(crate::SCHEMA_VERSION) => {}
            Some(v) => {
                return Err(format!(
                    "row {i}: unsupported schema_version {v:?} (this reader knows 1 and {})",
                    crate::SCHEMA_VERSION
                ))
            }
        }
        match row.get("threads").map(Value::as_number) {
            None => {} // v1 rows are implicitly single-threaded
            Some(Some(n)) if n >= 0.0 && n.fract() == 0.0 => {}
            Some(n) => return Err(format!("row {i}: field \"threads\" is malformed: {n:?}")),
        }
        match row.get("status").map(Value::as_str) {
            None | Some(Some("ok")) => {}
            Some(Some("timeout")) => timeouts += 1,
            Some(Some("memory_cap")) => memory_caps += 1,
            Some(s) => {
                return Err(format!(
                    "row {i}: field \"status\" is malformed: {s:?} \
                     (expected \"ok\", \"timeout\" or \"memory_cap\")"
                ))
            }
        }
        for &field in ROW_FIELDS {
            let v = row
                .get(field)
                .ok_or_else(|| format!("row {i}: missing field {field:?}"))?;
            let ok = match field {
                "workload" | "analysis" => v.as_str().is_some_and(|s| !s.is_empty()),
                "avg_objs_per_var" => v.as_number().is_some_and(|n| n >= 0.0),
                "time_secs" => v.as_number().is_some_and(|n| n >= 0.0),
                "stats" => matches!(v, Value::Object(_)),
                _ => v.as_number().is_some_and(|n| n >= 0.0 && n.fract() == 0.0),
            };
            if !ok {
                return Err(format!("row {i}: field {field:?} is malformed: {v:?}"));
            }
        }
        let Some(Value::Object(stats)) = row.get("stats") else {
            unreachable!("checked above");
        };
        for (name, v) in stats {
            if v.as_number().is_none_or(|n| n < 0.0) {
                return Err(format!("row {i}: stats counter {name:?} is malformed"));
            }
        }
        if let Some(profile) = row.get("profile") {
            validate_profile(profile).map_err(|e| format!("row {i}: {e}"))?;
            profiled += 1;
        }
        if let Some(clients) = row.get("clients") {
            validate_clients(clients).map_err(|e| format!("row {i}: {e}"))?;
        }
        // Optional memory column (cells measured under the counting
        // allocator) and sharing marker (`--share off` rows).
        if let Some(peak) = row.get("peak_rss_bytes") {
            if peak.as_number().is_none_or(|n| n < 0.0 || n.fract() != 0.0) {
                return Err(format!("row {i}: field \"peak_rss_bytes\" is malformed"));
            }
        }
        if let Some(ns) = row.get("no_share") {
            if !matches!(ns, Value::Bool(true)) {
                return Err(format!(
                    "row {i}: field \"no_share\" is malformed (only `true` is ever emitted)"
                ));
            }
        }
    }
    Ok(RowsSummary {
        cells: rows.len(),
        timeouts,
        memory_caps,
        profiled,
    })
}

/// Validates one row's `"clients"` embed (cells run with `--taint-groups`):
/// an object with one non-negative integer finding count per client.
fn validate_clients(clients: &Value) -> Result<(), String> {
    for key in ["taint", "escape", "nullness"] {
        let ok = clients
            .get(key)
            .and_then(Value::as_number)
            .is_some_and(|n| n >= 0.0 && n.fract() == 0.0);
        if !ok {
            return Err(format!("clients embed: counter {key:?} is malformed"));
        }
    }
    Ok(())
}

/// Validates one row's `"profile"` embed: an object whose `"rules"` array
/// holds `{name, fires, derived, ns}` entries with non-negative integer
/// counters (the shape `profdiff` consumes).
fn validate_profile(profile: &Value) -> Result<(), String> {
    let rules = profile
        .get("rules")
        .ok_or("profile embed has no \"rules\" array")?
        .as_array()
        .ok_or("profile \"rules\" is not an array")?;
    for (j, rule) in rules.iter().enumerate() {
        if rule.get("name").and_then(Value::as_str).is_none() {
            return Err(format!("profile rule {j} has no name"));
        }
        for key in ["fires", "derived", "ns"] {
            let ok = rule
                .get(key)
                .and_then(Value::as_number)
                .is_some_and(|n| n >= 0.0 && n.fract() == 0.0);
            if !ok {
                return Err(format!("profile rule {j}: counter {key:?} is malformed"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse(r#"{"a": [1, -2.5, "x\n", true, false, null], "b": {}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 6);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[0].as_number(),
            Some(1.0)
        );
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_str(),
            Some("x\n")
        );
        assert_eq!(v.get("b"), Some(&Value::Object(BTreeMap::new())));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("[1] garbage").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("1e999").is_err()); // non-finite
    }

    #[test]
    fn round_trips_real_rows() {
        let program = pta_workload::dacapo_workload("luindex", 0.15);
        let row = crate::run_cell("luindex", &program, pta_core::Analysis::OneObj, 1);
        let doc = parse(&crate::rows_to_json(std::slice::from_ref(&row))).unwrap();
        assert_eq!(
            validate_rows(&doc),
            Ok(RowsSummary {
                cells: 1,
                timeouts: 0,
                memory_caps: 0,
                profiled: 0
            })
        );
        let parsed = &doc.as_array().unwrap()[0];
        assert_eq!(parsed.get("workload").unwrap().as_str(), Some("luindex"));
        assert_eq!(
            parsed
                .get("stats")
                .unwrap()
                .get("vpt_inserted")
                .unwrap()
                .as_number(),
            Some(row.stats.vpt_inserted as f64)
        );
    }

    #[test]
    fn validation_names_the_broken_field() {
        let doc = parse(r#"[{"workload":"w"}]"#).unwrap();
        let err = validate_rows(&doc).unwrap_err();
        assert!(err.contains("row 0"), "{err}");
        assert!(err.contains("analysis"), "{err}");
        assert_eq!(
            validate_rows(&parse("[]").unwrap()),
            Err("no rows".to_owned())
        );
    }

    #[test]
    fn timeout_rows_validate_and_are_counted() {
        let program = pta_workload::dacapo_workload("luindex", 0.15);
        let ok = crate::run_cell("luindex", &program, pta_core::Analysis::OneObj, 1);
        let timed_out = crate::run_cell_governed(
            "luindex",
            &program,
            pta_core::Analysis::STwoObjH,
            1,
            Some(1e-6),
            None,
        );
        assert_eq!(timed_out.status, crate::CellStatus::Timeout);
        let doc = parse(&crate::rows_to_json(&[ok.clone(), timed_out])).unwrap();
        assert_eq!(
            validate_rows(&doc),
            Ok(RowsSummary {
                cells: 2,
                timeouts: 1,
                memory_caps: 0,
                profiled: 0
            })
        );

        // Legacy dumps (BENCH_baseline.json) predate the status field;
        // a missing status reads as "ok".
        let legacy =
            crate::rows_to_json(std::slice::from_ref(&ok)).replace("\"status\":\"ok\",", "");
        assert_eq!(
            validate_rows(&parse(&legacy).unwrap()),
            Ok(RowsSummary {
                cells: 1,
                timeouts: 0,
                memory_caps: 0,
                profiled: 0
            })
        );

        // Anything else in the status slot is malformed.
        let bogus = crate::rows_to_json(std::slice::from_ref(&ok))
            .replace("\"status\":\"ok\"", "\"status\":\"maybe\"");
        let err = validate_rows(&parse(&bogus).unwrap()).unwrap_err();
        assert!(err.contains("status"), "{err}");
    }

    #[test]
    fn profiled_rows_validate_and_are_counted() {
        let program = pta_workload::dacapo_workload("luindex", 0.15);
        let plain = crate::run_cell("luindex", &program, pta_core::Analysis::OneObj, 1);
        let profiled = crate::run_cell_observed(
            "luindex",
            &program,
            pta_core::Analysis::OneObj,
            1,
            None,
            None,
            None,
            &pta_obs::Trace::disabled(),
            true,
            None,
            true,
        );
        let dump = crate::rows_to_json(&[plain, profiled]);
        assert_eq!(
            validate_rows(&parse(&dump).unwrap()),
            Ok(RowsSummary {
                cells: 2,
                timeouts: 0,
                memory_caps: 0,
                profiled: 1
            })
        );

        // A mangled rule counter inside the embed fails loudly.
        let broken = dump.replacen("\"fires\":", "\"fires\":-", 1);
        let err = validate_rows(&parse(&broken).unwrap()).unwrap_err();
        assert!(err.contains("fires"), "{err}");
    }

    #[test]
    fn both_schema_versions_validate_but_unknown_ones_fail() {
        let program = pta_workload::dacapo_workload("luindex", 0.15);
        let row = crate::run_cell("luindex", &program, pta_core::Analysis::OneObj, 1);
        let current = crate::rows_to_json(std::slice::from_ref(&row));
        assert!(current.contains(&format!("\"schema_version\":{}", crate::SCHEMA_VERSION)));
        assert!(current.contains("\"threads\":1"));
        assert!(validate_rows(&parse(&current).unwrap()).is_ok());

        // A v1 dump (BENCH_baseline.json era): no schema_version, no
        // threads, no status.
        let v1 = current
            .replace(
                &format!("\"schema_version\":{},", crate::SCHEMA_VERSION),
                "",
            )
            .replace("\"threads\":1,", "")
            .replace("\"status\":\"ok\",", "");
        assert!(validate_rows(&parse(&v1).unwrap()).is_ok());

        // A future version must fail loudly.
        let v99 = current.replace(
            &format!("\"schema_version\":{}", crate::SCHEMA_VERSION),
            "\"schema_version\":99",
        );
        let err = validate_rows(&parse(&v99).unwrap()).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }
}
