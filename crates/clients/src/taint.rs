//! Heap taint-flow client (`W020`).
//!
//! An allocation site is *tainted* when it sits in a method the
//! [`CheckSpec`] marks as a `source`, and taint
//! propagates *contents-to-container* along the context-insensitive
//! field points-to view: an object that can reach a tainted object
//! through instance fields is itself tainted (a crate holding a tainted
//! payload must not be handed to a sink). Allocation sites in
//! `sanitizer` methods are never tainted and stop the propagation —
//! wrapping a tainted value in a sanitizer-allocated box launders it.
//!
//! A finding is a *sink call site* — an invocation whose resolved
//! targets include a spec'd sink method — where the inspected argument
//! may point to a tainted heap. Because everything is derived from the
//! cross-validated projections of [`PointsToResult`] (points-to sets,
//! call targets, field views), the findings are byte-identical across
//! the dense and Datalog back ends and across thread counts; a *more
//! precise* analysis can only shrink them.

use pta_core::PointsToResult;
use pta_ir::{HeapId, InvoId, Program};

use crate::spec::CheckSpec;

/// One taint alarm: a sink call site and the tainted heap reaching it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaintFinding {
    /// The sink call site.
    pub invo: InvoId,
    /// The tainted allocation site flowing into the inspected argument.
    pub heap: HeapId,
}

/// The tainted-heap fixpoint: seeds from `source` methods, closed
/// contents-to-container over the field points-to view, blocked at
/// `sanitizer` allocations. Indexed by `HeapId`.
pub(crate) fn tainted_heaps(
    program: &Program,
    result: &PointsToResult,
    spec: &CheckSpec,
) -> Vec<bool> {
    let n = program.heap_count();
    let mut sanitized = vec![false; n];
    let mut tainted = vec![false; n];
    for h in program.heaps() {
        let owner = program.heap_method(h);
        sanitized[h.index()] = spec.is_sanitizer(program, owner);
        tainted[h.index()] = !sanitized[h.index()] && spec.is_source(program, owner);
    }
    loop {
        let mut changed = false;
        for ((base, _field), contents) in result.field_points_to_iter() {
            if tainted[base.index()] || sanitized[base.index()] {
                continue;
            }
            if contents.iter().any(|h| tainted[h.index()]) {
                tainted[base.index()] = true;
                changed = true;
            }
        }
        if !changed {
            return tainted;
        }
    }
}

/// Computes every taint finding, sorted by `(invo, heap)`.
pub fn taint_findings(
    program: &Program,
    result: &PointsToResult,
    spec: &CheckSpec,
) -> Vec<TaintFinding> {
    let tainted = tainted_heaps(program, result, spec);
    let mut findings = Vec::new();
    for invo in program.invos() {
        for &target in result.call_targets(invo) {
            for sink in spec.sinks_for(program, target) {
                let args = program.actual_args(invo);
                let inspected: &[pta_ir::VarId] = match sink.arg {
                    Some(k) => match args.get(k) {
                        Some(v) => std::slice::from_ref(v),
                        None => &[],
                    },
                    None => args,
                };
                for &var in inspected {
                    for &h in result.points_to(var) {
                        if tainted[h.index()] {
                            findings.push(TaintFinding { invo, heap: h });
                        }
                    }
                }
            }
        }
    }
    findings.sort_unstable();
    findings.dedup();
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use pta_core::{Analysis, AnalysisSession};
    use pta_lang::parse_program;

    const SOURCE: &str = r#"
        class Object {}
        class Payload : Object {}
        class Crate : Object { field lid; }
        class Box : Object { field inner; }
        class Src : Object { static make() { t = new Payload; return t; } }
        class San : Object {
            static cleanse(x) { b = new Box; b.inner = x; return b; }
        }
        class Sink : Object { static sink(x) {} }
        class Main : Object {
            static main() {
                t = Src.make();
                c = new Payload;
                Sink.sink(t);
                Sink.sink(c);
                k = new Crate;
                k.lid = t;
                Sink.sink(k);
                s = San.cleanse(t);
                Sink.sink(s);
            }
        }
        entry Main.main;
    "#;

    const SPEC: &str = "source Src.make\nsanitizer San.cleanse\nsink Sink.sink 0\n";

    #[test]
    fn direct_field_and_sanitized_flows() {
        let p = parse_program(SOURCE).unwrap();
        let spec = CheckSpec::parse(SPEC).unwrap();
        let r = AnalysisSession::open(p.clone())
            .policy(Analysis::OneCall)
            .solve();
        let findings = taint_findings(&p, &r, &spec);
        // sink(t): the tainted payload directly; sink(k): the crate holding
        // it. sink(c) is clean and sink(s) is laundered by the sanitizer.
        assert_eq!(findings.len(), 2);
        let labels: Vec<&str> = findings.iter().map(|f| p.heap_label(f.heap)).collect();
        assert!(
            labels.iter().any(|l| l.starts_with("Src.make/new Payload")),
            "{labels:?}"
        );
        assert!(labels.iter().any(|l| l.contains("new Crate")), "{labels:?}");
    }

    #[test]
    fn empty_spec_reports_nothing() {
        let p = parse_program(SOURCE).unwrap();
        let r = AnalysisSession::open(p.clone())
            .policy(Analysis::Insens)
            .solve();
        assert!(taint_findings(&p, &r, &CheckSpec::default()).is_empty());
    }
}
