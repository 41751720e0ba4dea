//! The serve wire protocol: line-delimited JSON requests and responses.
//!
//! # Grammar
//!
//! Every request is one JSON object on one line:
//!
//! ```text
//! {"id": N, "op": OP, ...op-specific fields...}
//! ```
//!
//! | op           | fields                                   | answer                    |
//! |--------------|------------------------------------------|---------------------------|
//! | `points_to`  | `program?`, `policy?`, `var`             | points-to set per binding |
//! | `devirt`     | `program?`, `policy?`, `invo` (index)    | dispatch targets          |
//! | `cast_check` | `program?`, `policy?`, `method`, `instr` | may-fail verdict          |
//! | `findings`   | `program?`, `policy?`, `var`             | client findings for var   |
//! | `update`     | `program?`, `edits` (array)              | new version + per-policy  |
//! | `health`     | —                                        | liveness + queue depth    |
//! | `stats`      | —                                        | full daemon statistics    |
//! | `metrics`    | —                                        | metrics JSON + Prometheus |
//! | `shutdown`   | —                                        | ack, then graceful drain  |
//!
//! An `update` edits the resident program in place and re-establishes
//! every resident policy's fixpoint — incrementally when the session
//! retained its solver state, by re-solving otherwise. Each element of
//! `edits` is an object tagged by `"edit"`:
//!
//! ```text
//! {"edit":"alloc","method":"Main.main","to":"p","class":"A","label":"h9"}
//! {"edit":"move","method":"Main.main","to":"x","from":"y"}
//! {"edit":"remove","method":"Main.main","index":3}
//! {"edit":"clear","method":"Main.main"}
//! {"edit":"entry","method":"Main.boot"}
//! {"edit":"remove_entry","method":"Main.boot"}
//! ```
//!
//! Methods are addressed by qualified name, classes by name, variables
//! by name within the method (`"to"` vars that do not exist yet are
//! created). `remove` addresses an instruction by its index in the
//! method body.
//!
//! `program` may be omitted when exactly one program is resident;
//! `policy` defaults to the first policy the daemon was started with.
//! Any request may carry `deadline_ms` (a per-request deadline measured
//! from admission).
//!
//! Responses are one JSON object per line: `{"id":N,"ok":true,...}` on
//! success, `{"id":N,"ok":false,"error":CODE,"message":...}` otherwise.
//! Error codes are enumerated in [`ErrorCode`]; they are part of the
//! protocol and are asserted on by the soak test.

use crate::json::{self, Value};

/// Machine-readable error codes carried in `"error"` fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not a JSON object.
    Parse,
    /// The line exceeded the daemon's maximum request size.
    Oversized,
    /// Well-formed JSON missing or mistyping a required field.
    BadRequest,
    /// No resident program with that name.
    UnknownProgram,
    /// The policy is not one the daemon was started with.
    UnknownPolicy,
    /// No variable with that name in the program.
    UnknownVar,
    /// The invocation-site index is out of range or not a virtual call.
    UnknownInvo,
    /// `method`/`instr` does not name a cast instruction.
    UnknownCast,
    /// Admission queue full: the request was shed, not queued.
    Overloaded,
    /// The daemon is draining; no new work is admitted.
    ShuttingDown,
    /// The request's deadline passed before or during evaluation.
    DeadlineExceeded,
    /// The request's cancel token tripped (injected fault or forced
    /// drain).
    Cancelled,
    /// The request's evaluation step budget was exhausted (injected
    /// fault).
    BudgetExhausted,
}

impl ErrorCode {
    /// Every code, in declaration order.
    pub(crate) const ALL: [ErrorCode; 13] = [
        ErrorCode::Parse,
        ErrorCode::Oversized,
        ErrorCode::BadRequest,
        ErrorCode::UnknownProgram,
        ErrorCode::UnknownPolicy,
        ErrorCode::UnknownVar,
        ErrorCode::UnknownInvo,
        ErrorCode::UnknownCast,
        ErrorCode::Overloaded,
        ErrorCode::ShuttingDown,
        ErrorCode::DeadlineExceeded,
        ErrorCode::Cancelled,
        ErrorCode::BudgetExhausted,
    ];

    /// The stable wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse",
            ErrorCode::Oversized => "oversized",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownProgram => "unknown_program",
            ErrorCode::UnknownPolicy => "unknown_policy",
            ErrorCode::UnknownVar => "unknown_var",
            ErrorCode::UnknownInvo => "unknown_invo",
            ErrorCode::UnknownCast => "unknown_cast",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::BudgetExhausted => "budget_exhausted",
        }
    }
}

/// One parsed element of an `update` request's `"edits"` array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditSpec {
    /// Append `to = new class` to `method` (creating `to` if needed).
    Alloc {
        method: String,
        to: String,
        class: String,
        label: String,
    },
    /// Append `to = from` to `method`.
    Move {
        method: String,
        to: String,
        from: String,
    },
    /// Remove the instruction at `index` in `method`'s body.
    Remove { method: String, index: u64 },
    /// Remove every instruction of `method`.
    Clear { method: String },
    /// Add `method` to the entry-point set.
    Entry { method: String },
    /// Remove `method` from the entry-point set.
    RemoveEntry { method: String },
}

/// What a query asks of the resident analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    PointsTo { var: String },
    Devirt { invo: u64 },
    CastCheck { method: String, instr: u64 },
    Findings { var: String },
    Update { edits: Vec<EditSpec> },
    Health,
    Stats,
    Metrics,
    Shutdown,
}

impl Op {
    /// Every op's wire name, in declaration order.
    pub(crate) const NAMES: [&'static str; 9] = [
        "points_to",
        "devirt",
        "cast_check",
        "findings",
        "update",
        "health",
        "stats",
        "metrics",
        "shutdown",
    ];

    /// The wire name of the operation (mirrored back in responses).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Op::PointsTo { .. } => "points_to",
            Op::Devirt { .. } => "devirt",
            Op::CastCheck { .. } => "cast_check",
            Op::Findings { .. } => "findings",
            Op::Update { .. } => "update",
            Op::Health => "health",
            Op::Stats => "stats",
            Op::Metrics => "metrics",
            Op::Shutdown => "shutdown",
        }
    }

    /// Whether this op consults a resident (program, policy) entry.
    #[must_use]
    pub fn is_query(&self) -> bool {
        matches!(
            self,
            Op::PointsTo { .. } | Op::Devirt { .. } | Op::CastCheck { .. } | Op::Findings { .. }
        )
    }

    /// Whether this op mutates the resident state (takes the write
    /// lock instead of a read lock).
    #[must_use]
    pub fn is_update(&self) -> bool {
        matches!(self, Op::Update { .. })
    }
}

/// A parsed, validated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    pub op: Op,
    /// Resident program name; `None` means "the only program".
    pub program: Option<String>,
    /// Policy name; `None` means the daemon's first policy.
    pub policy: Option<String>,
    /// Per-request deadline in milliseconds from admission.
    pub deadline_ms: Option<u64>,
}

/// Renders the standard error response line (no trailing newline).
#[must_use]
pub fn error_line(id: u64, code: ErrorCode, message: &str) -> String {
    format!(
        "{{\"id\":{},\"ok\":false,\"error\":\"{}\",\"message\":\"{}\"}}",
        id,
        code.as_str(),
        json::escape(message)
    )
}

/// Parses one element of an `update` request's `"edits"` array.
fn parse_edit(item: &Value) -> Result<EditSpec, String> {
    let str_field = |key: &str| -> Result<String, String> {
        match item.get(key) {
            Some(Value::String(s)) => Ok(s.clone()),
            _ => Err(format!("edit missing string field \"{key}\"")),
        }
    };
    let kind = str_field("edit")?;
    let method = str_field("method")?;
    Ok(match kind.as_str() {
        "alloc" => EditSpec::Alloc {
            method,
            to: str_field("to")?,
            class: str_field("class")?,
            label: str_field("label")?,
        },
        "move" => EditSpec::Move {
            method,
            to: str_field("to")?,
            from: str_field("from")?,
        },
        "remove" => {
            let index = item
                .get("index")
                .and_then(Value::as_u64)
                .ok_or("edit \"remove\" needs a non-negative integer \"index\"")?;
            EditSpec::Remove { method, index }
        }
        "clear" => EditSpec::Clear { method },
        "entry" => EditSpec::Entry { method },
        "remove_entry" => EditSpec::RemoveEntry { method },
        other => return Err(format!("unknown edit kind \"{other}\"")),
    })
}

/// Parses one request line. On failure returns `(best-effort id, code,
/// message)` so the connection can still answer with a correlated error:
/// the id is recovered from the malformed object when possible, else 0.
pub fn parse_request(line: &str) -> Result<Request, (u64, ErrorCode, String)> {
    let v = match json::parse(line) {
        Ok(v @ Value::Object(_)) => v,
        Ok(_) => return Err((0, ErrorCode::Parse, "request must be a JSON object".into())),
        Err(e) => return Err((0, ErrorCode::Parse, e)),
    };
    let id = match v.get("id") {
        Some(idv) => idv.as_u64().ok_or((
            0,
            ErrorCode::BadRequest,
            "\"id\" must be a non-negative integer".into(),
        ))?,
        None => {
            return Err((
                0,
                ErrorCode::BadRequest,
                "missing required field \"id\"".into(),
            ));
        }
    };
    let fail = |msg: &str| (id, ErrorCode::BadRequest, msg.to_string());
    let opt_str = |key: &str| -> Result<Option<String>, (u64, ErrorCode, String)> {
        match v.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(Value::String(s)) => Ok(Some(s.clone())),
            Some(_) => Err(fail(&format!("\"{key}\" must be a string"))),
        }
    };
    let req_str = |key: &str| -> Result<String, (u64, ErrorCode, String)> {
        opt_str(key)?.ok_or_else(|| fail(&format!("missing required field \"{key}\"")))
    };
    let req_u64 = |key: &str| -> Result<u64, (u64, ErrorCode, String)> {
        match v.get(key) {
            Some(n) => n
                .as_u64()
                .ok_or_else(|| fail(&format!("\"{key}\" must be a non-negative integer"))),
            None => Err(fail(&format!("missing required field \"{key}\""))),
        }
    };
    let op_name = req_str("op")?;
    let op = match op_name.as_str() {
        "points_to" => Op::PointsTo {
            var: req_str("var")?,
        },
        "devirt" => Op::Devirt {
            invo: req_u64("invo")?,
        },
        "cast_check" => Op::CastCheck {
            method: req_str("method")?,
            instr: req_u64("instr")?,
        },
        "findings" => Op::Findings {
            var: req_str("var")?,
        },
        "update" => {
            let Some(Value::Array(items)) = v.get("edits") else {
                return Err(fail("\"edits\" must be an array of edit objects"));
            };
            if items.is_empty() {
                return Err(fail("\"edits\" must not be empty"));
            }
            let mut edits = Vec::with_capacity(items.len());
            for item in items {
                edits.push(parse_edit(item).map_err(|m| fail(&m))?);
            }
            Op::Update { edits }
        }
        "health" => Op::Health,
        "stats" => Op::Stats,
        "metrics" => Op::Metrics,
        "shutdown" => Op::Shutdown,
        other => return Err((id, ErrorCode::BadRequest, format!("unknown op \"{other}\""))),
    };
    let deadline_ms = match v.get("deadline_ms") {
        None | Some(Value::Null) => None,
        Some(n) => Some(
            n.as_u64()
                .ok_or_else(|| fail("\"deadline_ms\" must be a non-negative integer"))?,
        ),
    };
    Ok(Request {
        id,
        op,
        program: opt_str("program")?,
        policy: opt_str("policy")?,
        deadline_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_each_op() {
        let r = parse_request(r#"{"id":1,"op":"points_to","var":"x"}"#).unwrap();
        assert_eq!(r.op, Op::PointsTo { var: "x".into() });
        let r = parse_request(r#"{"id":2,"op":"devirt","invo":7,"policy":"2objH"}"#).unwrap();
        assert_eq!(r.op, Op::Devirt { invo: 7 });
        assert_eq!(r.policy.as_deref(), Some("2objH"));
        let r = parse_request(r#"{"id":3,"op":"cast_check","method":"A.m","instr":4}"#).unwrap();
        assert_eq!(
            r.op,
            Op::CastCheck {
                method: "A.m".into(),
                instr: 4
            }
        );
        let r = parse_request(r#"{"id":4,"op":"findings","var":"v","deadline_ms":9}"#).unwrap();
        assert_eq!(r.deadline_ms, Some(9));
        for (op, want) in [
            ("health", Op::Health),
            ("stats", Op::Stats),
            ("metrics", Op::Metrics),
            ("shutdown", Op::Shutdown),
        ] {
            let r = parse_request(&format!("{{\"id\":5,\"op\":\"{op}\"}}")).unwrap();
            assert_eq!(r.op, want);
        }
    }

    #[test]
    fn name_tables_list_every_variant() {
        let ops = [
            Op::PointsTo { var: "x".into() },
            Op::Devirt { invo: 0 },
            Op::CastCheck {
                method: "A.m".into(),
                instr: 0,
            },
            Op::Findings { var: "x".into() },
            Op::Update { edits: Vec::new() },
            Op::Health,
            Op::Stats,
            Op::Metrics,
            Op::Shutdown,
        ];
        assert_eq!(ops.map(|op| op.name()), Op::NAMES);
        let codes = ErrorCode::ALL.map(ErrorCode::as_str);
        for (i, code) in codes.iter().enumerate() {
            assert!(!codes[..i].contains(code), "duplicate code {code}");
        }
    }

    #[test]
    fn parses_update_edit_scripts() {
        let r = parse_request(
            r#"{"id":6,"op":"update","program":"app","edits":[
                {"edit":"alloc","method":"A.main","to":"x","class":"B","label":"h9"},
                {"edit":"move","method":"A.main","to":"y","from":"x"},
                {"edit":"remove","method":"A.main","index":3},
                {"edit":"clear","method":"B.helper"},
                {"edit":"entry","method":"B.boot"},
                {"edit":"remove_entry","method":"A.main"}]}"#,
        )
        .unwrap();
        assert_eq!(r.program.as_deref(), Some("app"));
        assert!(r.op.is_update());
        let Op::Update { edits } = r.op else {
            unreachable!()
        };
        assert_eq!(edits.len(), 6);
        assert_eq!(
            edits[0],
            EditSpec::Alloc {
                method: "A.main".into(),
                to: "x".into(),
                class: "B".into(),
                label: "h9".into(),
            }
        );
        assert_eq!(
            edits[2],
            EditSpec::Remove {
                method: "A.main".into(),
                index: 3
            }
        );
        assert_eq!(
            edits[5],
            EditSpec::RemoveEntry {
                method: "A.main".into()
            }
        );
    }

    #[test]
    fn rejects_malformed_edit_scripts() {
        for line in [
            // Missing, empty, or mistyped edits array.
            r#"{"id":1,"op":"update"}"#,
            r#"{"id":1,"op":"update","edits":[]}"#,
            r#"{"id":1,"op":"update","edits":"clear"}"#,
            // Unknown kind, missing fields, mistyped index.
            r#"{"id":1,"op":"update","edits":[{"edit":"explode","method":"A.m"}]}"#,
            r#"{"id":1,"op":"update","edits":[{"edit":"alloc","method":"A.m","to":"x"}]}"#,
            r#"{"id":1,"op":"update","edits":[{"edit":"remove","method":"A.m","index":-1}]}"#,
            r#"{"id":1,"op":"update","edits":[{"edit":"clear"}]}"#,
        ] {
            let (id, code, _) = parse_request(line).unwrap_err();
            assert_eq!((id, code), (1, ErrorCode::BadRequest), "accepted: {line}");
        }
    }

    #[test]
    fn recovers_the_id_from_malformed_requests() {
        // Unknown op and missing fields still correlate to the id...
        let (id, code, _) = parse_request(r#"{"id":41,"op":"frobnicate"}"#).unwrap_err();
        assert_eq!((id, code), (41, ErrorCode::BadRequest));
        let (id, code, _) = parse_request(r#"{"id":42,"op":"points_to"}"#).unwrap_err();
        assert_eq!((id, code), (42, ErrorCode::BadRequest));
        // ...while unparseable lines fall back to id 0.
        let (id, code, _) = parse_request("{\"id\":43,").unwrap_err();
        assert_eq!((id, code), (0, ErrorCode::Parse));
    }

    #[test]
    fn rejects_mistyped_fields() {
        for line in [
            r#"{"op":"health"}"#,
            r#"{"id":-1,"op":"health"}"#,
            r#"{"id":1.5,"op":"health"}"#,
            r#"{"id":1,"op":"devirt","invo":"seven"}"#,
            r#"{"id":1,"op":"points_to","var":7}"#,
            r#"{"id":1,"op":"health","deadline_ms":"soon"}"#,
            r#"[1,2,3]"#,
        ] {
            assert!(parse_request(line).is_err(), "accepted: {line}");
        }
    }
}
