//! Pure query evaluation: one request in, one response line out.
//!
//! This module is the daemon's single source of answer bytes — and the
//! soak oracle's too. The test in `crates/serve/tests/soak.rs` builds its
//! own [`Resident`](crate::resident::Resident) from the same config and
//! calls [`answer`] directly; any daemon response that differs by one
//! byte from the oracle's is a wire-format or caching bug, which is the
//! whole point of the comparison. So: nothing here may read a clock it
//! doesn't check cooperatively, touch global state, or emit fields in
//! nondeterministic order.
//!
//! Evaluation is governed per request through [`ReqCtx`]: every scan
//! loop ticks it, each tick consults the cancel token (cheap relaxed
//! load, keeps cancellation latency to one loop iteration), a step
//! budget (so an injected exhaustion fault trips at the very first
//! tick), and — every 256 ticks — the wall-clock deadline.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

use pta_govern::CancelToken;
use pta_ir::{HeapId, Instr, InvoId, MethodId, Program, VarId};

use crate::json::escape_into;
use crate::protocol::{error_line, ErrorCode, Op, Request};
use crate::resident::{Resident, ResidentProgram};

/// Per-request governance handed to the evaluator by the worker.
#[derive(Debug)]
pub struct ReqCtx {
    /// Cooperative cancellation: injected faults, forced drain.
    pub cancel: CancelToken,
    /// Absolute deadline; `None` when the request set no deadline and
    /// the daemon has no default.
    pub deadline: Option<Instant>,
    /// Evaluation step budget; an injected exhaustion fault sets 0.
    pub max_steps: Option<u64>,
    steps: u64,
}

impl ReqCtx {
    /// An ungoverned context (the oracle's, and the default request's).
    #[must_use]
    pub fn unlimited() -> ReqCtx {
        ReqCtx {
            cancel: CancelToken::new(),
            deadline: None,
            max_steps: None,
            steps: 0,
        }
    }

    /// Builds a governed context.
    #[must_use]
    pub fn new(cancel: CancelToken, deadline: Option<Instant>, max_steps: Option<u64>) -> ReqCtx {
        ReqCtx {
            cancel,
            deadline,
            max_steps,
            steps: 0,
        }
    }

    /// One cooperative governance check; call once per scan iteration.
    fn tick(&mut self) -> Result<(), ErrorCode> {
        if self.cancel.is_cancelled() {
            return Err(ErrorCode::Cancelled);
        }
        self.steps += 1;
        if self.max_steps.is_some_and(|max| self.steps > max) {
            return Err(ErrorCode::BudgetExhausted);
        }
        if self.steps.is_multiple_of(256) {
            self.check_deadline()?;
        }
        Ok(())
    }

    /// Direct deadline check (also run once before evaluation starts).
    pub fn check_deadline(&self) -> Result<(), ErrorCode> {
        match self.deadline {
            Some(d) if Instant::now() >= d => Err(ErrorCode::DeadlineExceeded),
            _ => Ok(()),
        }
    }
}

/// Evaluates one *query* request against the resident state and renders
/// the response line (no trailing newline). `health`/`stats`/`shutdown`
/// are daemon-side ops and must not reach this function.
///
/// # Panics
///
/// Panics if `req.op` is not a query op.
#[must_use]
pub fn answer(req: &Request, resident: &Resident, ctx: &mut ReqCtx) -> String {
    assert!(req.op.is_query(), "non-query op {:?}", req.op.name());
    match evaluate(req, resident, ctx) {
        Ok(line) => line,
        Err((code, message)) => error_line(req.id, code, &message),
    }
}

type Fail = (ErrorCode, String);

fn evaluate(req: &Request, resident: &Resident, ctx: &mut ReqCtx) -> Result<String, Fail> {
    ctx.check_deadline()
        .map_err(|c| (c, "deadline passed before evaluation".into()))?;
    let rp = resident
        .program(req.program.as_deref())
        .map_err(|m| (ErrorCode::UnknownProgram, m))?;
    let entry = resident
        .entry(rp, req.policy.as_deref())
        .map_err(|m| (ErrorCode::UnknownPolicy, m))?;
    let program = &rp.program;
    let result = &entry.result;
    let head = |op: &str| {
        format!(
            "{{\"id\":{},\"ok\":true,\"op\":\"{}\",\"partial\":{}",
            req.id, op, entry.partial
        )
    };
    let gov = |c: ErrorCode| (c, "request budget tripped during evaluation".to_string());

    match &req.op {
        Op::PointsTo { var } => {
            let bindings = vars_named(rp, var, ctx)?;
            let mut out = head("points_to");
            out.push_str(",\"var\":");
            push_quoted(&mut out, var);
            out.push_str(",\"bindings\":[");
            for (i, &v) in bindings.iter().enumerate() {
                ctx.tick().map_err(gov)?;
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"method\":");
                push_method(&mut out, program, program.var_method(v));
                out.push_str(",\"heaps\":[");
                for (j, &h) in result.points_to(v).iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    push_quoted(&mut out, program.heap_label(h));
                }
                out.push_str("]}");
            }
            out.push_str("]}");
            Ok(out)
        }
        Op::Devirt { invo } => {
            if *invo >= program.invo_count() as u64 {
                return Err((
                    ErrorCode::UnknownInvo,
                    format!(
                        "invo {} out of range (program has {})",
                        invo,
                        program.invo_count()
                    ),
                ));
            }
            ctx.tick().map_err(gov)?;
            let site = InvoId::from_raw(*invo as u32);
            let mut out = head("devirt");
            let _ = write!(out, ",\"invo\":{invo},\"label\":");
            push_quoted(&mut out, program.invo_label(site));
            out.push_str(",\"in\":");
            push_method(&mut out, program, program.invo_method(site));
            out.push_str(",\"targets\":[");
            for (i, &m) in result.call_targets(site).iter().enumerate() {
                ctx.tick().map_err(gov)?;
                if i > 0 {
                    out.push(',');
                }
                push_method(&mut out, program, m);
            }
            out.push_str("]}");
            Ok(out)
        }
        Op::CastCheck { method, instr } => {
            ctx.tick().map_err(gov)?;
            let meth = rp.method_named(method).ok_or_else(|| {
                (
                    ErrorCode::UnknownCast,
                    format!("no method \"{method}\" in program"),
                )
            })?;
            let instrs = program.instrs(meth);
            let Some(Instr::Cast { from, ty, .. }) = instrs.get(*instr as usize) else {
                return Err((
                    ErrorCode::UnknownCast,
                    format!("\"{}\" instr {} is not a cast", method, instr),
                ));
            };
            let mut incompatible = 0usize;
            let pts = result.points_to(*from);
            for &h in pts {
                ctx.tick().map_err(gov)?;
                if !program.is_subtype(program.heap_type(h), *ty) {
                    incompatible += 1;
                }
            }
            let mut out = head("cast_check");
            out.push_str(",\"method\":");
            push_quoted(&mut out, method);
            let _ = write!(out, ",\"instr\":{instr},\"target_type\":");
            push_quoted(&mut out, program.type_name(*ty));
            let _ = write!(
                out,
                ",\"points_to\":{},\"incompatible\":{},\"may_fail\":{}}}",
                pts.len(),
                incompatible,
                incompatible > 0
            );
            Ok(out)
        }
        Op::Findings { var } => {
            // In arena order, so sorted: membership is a binary search.
            let bindings = vars_named(rp, var, ctx)?;
            let mut heaps: BTreeSet<HeapId> = BTreeSet::new();
            for &v in bindings {
                for &h in result.points_to(v) {
                    ctx.tick().map_err(gov)?;
                    heaps.insert(h);
                }
            }
            let report = &entry.report;
            let mut out = head("findings");
            out.push_str(",\"var\":");
            push_quoted(&mut out, var);
            out.push_str(",\"taint\":[");
            let mut first = true;
            for f in &report.taint {
                ctx.tick().map_err(gov)?;
                if !heaps.contains(&f.heap) {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str("{\"invo\":");
                push_quoted(&mut out, program.invo_label(f.invo));
                out.push_str(",\"heap\":");
                push_quoted(&mut out, program.heap_label(f.heap));
                out.push('}');
            }
            out.push_str("],\"escape\":[");
            let mut first = true;
            for f in &report.escape {
                ctx.tick().map_err(gov)?;
                if !heaps.contains(&f.heap) {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                push_quoted(&mut out, program.heap_label(f.heap));
            }
            out.push_str("],\"nullness\":[");
            let mut first = true;
            for f in &report.nullness {
                ctx.tick().map_err(gov)?;
                if bindings.binary_search(&f.var).is_err() {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str("{\"method\":");
                push_method(&mut out, program, f.method);
                let _ = write!(out, ",\"instr\":{}}}", f.instr);
            }
            out.push_str("]}");
            Ok(out)
        }
        Op::Update { .. } | Op::Health | Op::Stats | Op::Metrics | Op::Shutdown => {
            unreachable!("daemon-side op")
        }
    }
}

/// Every variable named `name`, in arena order, from the program's name
/// index. Ticks once first, so a spent budget or a cancelled request
/// answers its governance error before `unknown_var`.
fn vars_named<'r>(
    rp: &'r ResidentProgram,
    name: &str,
    ctx: &mut ReqCtx,
) -> Result<&'r [VarId], Fail> {
    ctx.tick()
        .map_err(|c| (c, "request budget tripped during evaluation".to_string()))?;
    let found = rp.vars_named(name);
    if found.is_empty() {
        return Err((
            ErrorCode::UnknownVar,
            format!("no variable named \"{name}\" in program"),
        ));
    }
    Ok(found)
}

/// Appends `s` as a JSON string literal.
fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Appends `m`'s qualified name as a JSON string literal, without
/// building the name first.
fn push_method(out: &mut String, program: &Program, m: MethodId) {
    out.push('"');
    for part in program.method_qualified_parts(m) {
        escape_into(out, part);
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resident::{ProgramSource, Resident, SolveConfig};

    fn resident() -> Resident {
        Resident::build(
            &[ProgramSource::parse_workload("luindex:0.1").unwrap()],
            &["insens".into()],
            &SolveConfig::default(),
        )
        .unwrap()
    }

    fn req(id: u64, op: Op) -> Request {
        Request {
            id,
            op,
            program: None,
            policy: None,
            deadline_ms: None,
        }
    }

    #[test]
    fn answers_are_deterministic_and_well_formed() {
        let r = resident();
        // Pick a var that exists: scan the program for one with a
        // non-empty points-to set.
        let p = &r.programs[0];
        let var = p
            .program
            .vars()
            .find(|&v| !p.entries[0].result.points_to(v).is_empty())
            .map(|v| p.program.var_name(v).to_owned())
            .expect("some var points somewhere");
        let q = req(7, Op::PointsTo { var: var.clone() });
        let a = answer(&q, &r, &mut ReqCtx::unlimited());
        let b = answer(&q, &r, &mut ReqCtx::unlimited());
        assert_eq!(a, b);
        assert!(
            a.starts_with("{\"id\":7,\"ok\":true,\"op\":\"points_to\""),
            "{a}"
        );
        // The response parses back with our own parser.
        let v = crate::json::parse(&a).unwrap();
        assert_eq!(
            v.get("partial").and_then(crate::json::Value::as_bool),
            Some(false)
        );

        let d = answer(
            &req(8, Op::Devirt { invo: 0 }),
            &r,
            &mut ReqCtx::unlimited(),
        );
        assert!(
            d.starts_with("{\"id\":8,\"ok\":true,\"op\":\"devirt\""),
            "{d}"
        );
        crate::json::parse(&d).unwrap();

        let f = answer(&req(9, Op::Findings { var }), &r, &mut ReqCtx::unlimited());
        assert!(f.contains("\"taint\":["), "{f}");
        crate::json::parse(&f).unwrap();
    }

    #[test]
    fn unknown_references_answer_structured_errors() {
        let r = resident();
        let cases = [
            (
                req(
                    1,
                    Op::PointsTo {
                        var: "no_such_var".into(),
                    },
                ),
                "unknown_var",
            ),
            (req(2, Op::Devirt { invo: u64::MAX }), "unknown_invo"),
            (
                req(
                    3,
                    Op::CastCheck {
                        method: "No.method".into(),
                        instr: 0,
                    },
                ),
                "unknown_cast",
            ),
        ];
        for (q, want) in &cases {
            let a = answer(q, &r, &mut ReqCtx::unlimited());
            assert!(a.contains(&format!("\"error\":\"{want}\"")), "{a}");
            crate::json::parse(&a).unwrap();
        }
        // Unknown policy on a query op.
        let q = Request {
            policy: Some("3obj+2H".into()),
            ..req(5, Op::Devirt { invo: 0 })
        };
        let a = answer(&q, &r, &mut ReqCtx::unlimited());
        assert!(a.contains("\"error\":\"unknown_policy\""), "{a}");
    }

    #[test]
    fn governance_trips_deterministically() {
        let r = resident();
        let q = req(11, Op::PointsTo { var: "x".into() });
        // Zero step budget: the very first tick trips.
        let mut ctx = ReqCtx::new(CancelToken::new(), None, Some(0));
        let a = answer(&q, &r, &mut ctx);
        assert!(a.contains("\"error\":\"budget_exhausted\""), "{a}");
        // Pre-cancelled token: the very first tick trips.
        let cancel = CancelToken::new();
        cancel.cancel();
        let mut ctx = ReqCtx::new(cancel, None, None);
        let a = answer(&q, &r, &mut ctx);
        assert!(a.contains("\"error\":\"cancelled\""), "{a}");
        // Expired deadline: refused before evaluation.
        let mut ctx = ReqCtx::new(CancelToken::new(), Some(Instant::now()), None);
        let a = answer(&q, &r, &mut ctx);
        assert!(a.contains("\"error\":\"deadline_exceeded\""), "{a}");
    }
}
