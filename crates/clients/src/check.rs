//! `pta check` orchestration: run the three clients, cross-validate the
//! two client back ends, and render findings as [`pta_lint`]
//! diagnostics.
//!
//! The client suite has the same two-implementation discipline as the
//! core analysis: the direct Rust fixpoints
//! ([`taint_findings`],
//! [`escape_findings`],
//! [`nullness_findings`]) and the Datalog rule
//! encoding ([`datalog_check`]) must agree
//! finding-for-finding on every run; [`run_check`] with
//! [`ClientBackend::CrossValidated`] evaluates both and panics on any
//! divergence, so a disagreement is a bug in one of the encodings, not a
//! degraded answer.
//!
//! When the underlying [`PointsToResult`] is *partial* — the solver
//! tripped a budget, was cancelled, or demoted call sites to
//! context-insensitive treatment — every client answer is a sound
//! over-approximation of a *prefix* of the full derivation and may miss
//! findings. The report carries that bit, [`CheckReport::to_diagnostics`]
//! prepends a `W023` warning, and the CLI maps it to exit code 3
//! (partial), mirroring `pta run`.

use pta_core::PointsToResult;
use pta_ir::Program;
use pta_lint::Diagnostic;

use crate::escape::{escape_findings, EscapeFinding};
use crate::nullness::{nullness_findings, NullnessFinding};
use crate::rules::datalog_check;
use crate::spec::CheckSpec;
use crate::taint::{taint_findings, TaintFinding};

/// Which client implementation answers a [`run_check`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClientBackend {
    /// The hand-specialized Rust fixpoints.
    #[default]
    Direct,
    /// The Datalog rule encoding.
    Datalog,
    /// Run both and assert they agree finding-for-finding.
    CrossValidated,
}

/// Per-cell client-metric counts, the bench-matrix view of a
/// [`CheckReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientMetrics {
    /// Number of taint findings (sink site × tainted heap pairs).
    pub taint_findings: usize,
    /// Number of allocation sites that may escape their thread.
    pub escape_findings: usize,
    /// Number of dereference sites with a maybe-null base.
    pub nullness_findings: usize,
}

/// The findings of one `pta check` run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// Taint findings, sorted by `(invo, heap)`.
    pub taint: Vec<TaintFinding>,
    /// Escape findings, sorted by heap.
    pub escape: Vec<EscapeFinding>,
    /// Nullness findings, sorted by `(method, instr)`.
    pub nullness: Vec<NullnessFinding>,
    /// `true` if the underlying result is incomplete (budget trip,
    /// cancellation, or context demotion) and findings may be missing.
    pub partial: bool,
}

/// Runs all three clients over `result` on the chosen back end.
pub fn run_check(
    program: &Program,
    result: &PointsToResult,
    spec: &CheckSpec,
    backend: ClientBackend,
) -> CheckReport {
    let partial = !result.termination().is_complete() || !result.demoted_sites().is_empty();
    let (taint, escape, nullness) = match backend {
        ClientBackend::Direct => (
            taint_findings(program, result, spec),
            escape_findings(program, result),
            nullness_findings(program, result),
        ),
        ClientBackend::Datalog => {
            let dl = datalog_check(program, result, spec);
            (dl.taint, dl.escape, dl.nullness)
        }
        ClientBackend::CrossValidated => {
            let taint = taint_findings(program, result, spec);
            let escape = escape_findings(program, result);
            let nullness = nullness_findings(program, result);
            let dl = datalog_check(program, result, spec);
            assert_eq!(dl.taint, taint, "taint: rule/direct divergence");
            assert_eq!(dl.escape, escape, "escape: rule/direct divergence");
            assert_eq!(dl.nullness, nullness, "nullness: rule/direct divergence");
            (taint, escape, nullness)
        }
    };
    CheckReport {
        taint,
        escape,
        nullness,
        partial,
    }
}

/// The per-cell counts the bench matrix records.
pub fn client_metrics(report: &CheckReport) -> ClientMetrics {
    ClientMetrics {
        taint_findings: report.taint.len(),
        escape_findings: report.escape.len(),
        nullness_findings: report.nullness.len(),
    }
}

impl CheckReport {
    /// `true` if no client reported anything.
    pub fn is_clean(&self) -> bool {
        self.taint.is_empty() && self.escape.is_empty() && self.nullness.is_empty()
    }

    /// Renders the findings as diagnostics, in client order (`W023`
    /// partial tag first, then taint, escape, nullness). Deterministic:
    /// each finding list is already sorted on IR ids.
    pub fn to_diagnostics(&self, program: &Program) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        if self.partial {
            diags.push(Diagnostic::warning(
                "W023",
                "analysis result is partial (budget trip, cancellation, or context \
                 demotion); client findings may be incomplete"
                    .to_owned(),
            ));
        }
        // Alloc/call instruction indices, for spans.
        let heap_site = |h: pta_ir::HeapId| {
            let m = program.heap_method(h);
            program
                .instrs(m)
                .iter()
                .position(|i| matches!(*i, pta_ir::Instr::Alloc { heap, .. } if heap == h))
                .map(|idx| program.instr_loc(m, idx))
        };
        let invo_site = |i: pta_ir::InvoId| {
            let m = program.invo_method(i);
            program
                .instrs(m)
                .iter()
                .position(|ins| {
                    matches!(*ins,
                        pta_ir::Instr::VCall { invo, .. } | pta_ir::Instr::SCall { invo, .. }
                            if invo == i)
                })
                .map(|idx| program.instr_loc(m, idx))
        };
        for f in &self.taint {
            let mut d = Diagnostic::warning(
                "W020",
                format!(
                    "tainted value may reach sink call `{}`",
                    program.invo_label(f.invo)
                ),
            )
            .with_context(format!(
                "tainted allocation: {}",
                program.heap_label(f.heap)
            ));
            if let Some(loc) = invo_site(f.invo) {
                d = d.with_span(loc);
            }
            diags.push(d);
        }
        for f in &self.escape {
            let mut d = Diagnostic::warning(
                "W021",
                format!(
                    "allocation `{}` may escape its thread",
                    program.heap_label(f.heap)
                ),
            )
            .with_context(format!(
                "allocated in {}",
                program.method_qualified_name(program.heap_method(f.heap))
            ));
            if let Some(loc) = heap_site(f.heap) {
                d = d.with_span(loc);
            }
            diags.push(d);
        }
        for f in &self.nullness {
            diags.push(
                Diagnostic::warning(
                    "W022",
                    format!(
                        "`{}` may be null at this dereference",
                        program.var_name(f.var)
                    ),
                )
                .with_span(program.instr_loc(f.method, f.instr))
                .with_context(format!("in {}", program.method_qualified_name(f.method))),
            );
        }
        diags
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pta_core::{Analysis, AnalysisSession, Budget};
    use pta_lang::parse_program;

    const SOURCE: &str = r#"
        class Object {}
        class Payload : Object {}
        class Src : Object { static make() { t = new Payload; return t; } }
        class Sink : Object { static sink(x) {} }
        class Holder : Object { field val; }
        class Main : Object {
            static main() {
                t = Src.make();
                Sink.sink(t);
                h = new Holder;
                u = h.val;
                u.hash();
            }
        }
        entry Main.main;
    "#;

    const SPEC: &str = "source Src.make\nsink Sink.sink 0\n";

    #[test]
    fn cross_validated_report_and_diagnostics() {
        let p = parse_program(SOURCE).unwrap();
        let spec = CheckSpec::parse(SPEC).unwrap();
        let r = AnalysisSession::open(p.clone())
            .policy(Analysis::OneObjH)
            .solve();
        let report = run_check(&p, &r, &spec, ClientBackend::CrossValidated);
        assert!(!report.partial);
        assert_eq!(report.taint.len(), 1);
        assert_eq!(report.nullness.len(), 1);
        let diags = report.to_diagnostics(&p);
        assert!(diags.iter().any(|d| d.code == "W020"));
        assert!(diags.iter().any(|d| d.code == "W022"));
        assert!(diags.iter().all(|d| d.code != "W023"));
        let metrics = client_metrics(&report);
        assert_eq!(metrics.taint_findings, 1);
        assert_eq!(metrics.nullness_findings, 1);
    }

    #[test]
    fn partial_result_is_tagged_w023() {
        let p = parse_program(SOURCE).unwrap();
        let spec = CheckSpec::parse(SPEC).unwrap();
        let r = AnalysisSession::open(p.clone())
            .policy(Analysis::TwoObjH)
            .budget(Budget::default().with_max_steps(1))
            .solve();
        assert!(!r.termination().is_complete());
        let report = run_check(&p, &r, &spec, ClientBackend::Direct);
        assert!(report.partial);
        let diags = report.to_diagnostics(&p);
        assert_eq!(diags.first().map(|d| d.code), Some("W023"));
    }
}
