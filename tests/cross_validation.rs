//! Cross-validation: the specialized solver and the literal Figure 2
//! Datalog rule set must produce identical results for every analysis on
//! every workload.
//!
//! This is the repository's strongest correctness check: two independently
//! written evaluation strategies (an explicit worklist algorithm and a
//! generic semi-naive join engine) agree on points-to sets, call graphs,
//! reachability, and context-sensitive tuple counts.

use hybrid_pta::core::{Analysis, Budget, PointsToResult, Termination};
use hybrid_pta::ir::{FieldId, HeapId, MethodId, Program};
use hybrid_pta::workload::{generate, WorkloadConfig};
use hybrid_pta::{AnalysisSession, Backend};

/// The field view, the static-field view and the reachable methods, each
/// as a sorted list.
type Views = (
    Vec<((HeapId, FieldId), Vec<HeapId>)>,
    Vec<(FieldId, Vec<HeapId>)>,
    Vec<MethodId>,
);

fn views(r: &PointsToResult) -> Views {
    let mut fields: Vec<_> = r
        .field_points_to_iter()
        .map(|(k, v)| (k, v.to_vec()))
        .collect();
    let mut statics: Vec<_> = r
        .static_points_to_iter()
        .map(|(k, v)| (k, v.to_vec()))
        .collect();
    let mut reach: Vec<MethodId> = r.reachable_methods().collect();
    fields.sort_unstable();
    statics.sort_unstable();
    reach.sort_unstable();
    (fields, statics, reach)
}

fn assert_identical(program: &Program, analysis: Analysis, label: &str) {
    let fast = AnalysisSession::open(program.clone())
        .policy(analysis)
        .solve();
    let slow = AnalysisSession::open(program.clone())
        .policy(analysis)
        .backend(Backend::Datalog)
        .solve();
    for var in program.vars() {
        assert_eq!(
            fast.points_to(var),
            slow.points_to(var),
            "{label}/{analysis}: points-to mismatch at {var:?} ({})",
            program.var_name(var)
        );
    }
    for invo in program.invos() {
        assert_eq!(
            fast.call_targets(invo),
            slow.call_targets(invo),
            "{label}/{analysis}: call-graph mismatch at {invo:?}"
        );
    }
    assert_eq!(
        fast.call_graph_edge_count(),
        slow.call_graph_edge_count(),
        "{label}/{analysis}: edge count"
    );
    assert_eq!(
        views(&fast),
        views(&slow),
        "{label}/{analysis}: field, static-field or reachable-method view"
    );
    assert_eq!(
        fast.ctx_var_points_to_count(),
        slow.ctx_var_points_to_count(),
        "{label}/{analysis}: context-sensitive tuple count"
    );
    assert_eq!(
        fast.ctx_call_graph_edge_count(),
        slow.ctx_call_graph_edge_count(),
        "{label}/{analysis}: context-sensitive edge count"
    );
    assert_eq!(
        fast.uncaught_exceptions(),
        slow.uncaught_exceptions(),
        "{label}/{analysis}: uncaught-exception sites (ThrowPointsTo projection)"
    );
}

/// One analysis across every DaCapo configuration — the per-policy guard
/// that keeps the dense solver honest against the literal rule set after
/// representation changes in its hot paths.
fn assert_identical_on_all_dacapo(analysis: Analysis) {
    for name in hybrid_pta::workload::DACAPO_NAMES {
        let program = hybrid_pta::workload::dacapo_workload(name, 0.15);
        assert_identical(&program, analysis, name);
    }
}

#[test]
fn insens_agrees_on_every_dacapo_config() {
    assert_identical_on_all_dacapo(Analysis::Insens);
}

#[test]
fn one_call_agrees_on_every_dacapo_config() {
    assert_identical_on_all_dacapo(Analysis::OneCall);
}

#[test]
fn selective_b_one_obj_agrees_on_every_dacapo_config() {
    assert_identical_on_all_dacapo(Analysis::SBOneObj);
}

#[test]
fn selective_two_obj_h_agrees_on_every_dacapo_config() {
    assert_identical_on_all_dacapo(Analysis::STwoObjH);
}

#[test]
fn all_analyses_agree_on_tiny_workloads() {
    for seed in 0..4 {
        let program = generate(&WorkloadConfig::tiny(seed));
        for analysis in Analysis::ALL {
            assert_identical(&program, analysis, &format!("tiny-{seed}"));
        }
    }
}

#[test]
fn key_analyses_agree_on_a_small_workload() {
    // The small config is an order of magnitude bigger; run the analyses
    // most important to the paper's claims.
    let program = generate(&WorkloadConfig::small(99));
    for analysis in [
        Analysis::Insens,
        Analysis::OneCall,
        Analysis::OneObj,
        Analysis::SBOneObj,
        Analysis::TwoObjH,
        Analysis::STwoObjH,
        Analysis::UTwoObjH,
        Analysis::STwoTypeH,
    ] {
        assert_identical(&program, analysis, "small-99");
    }
}

/// `partial` (from either back end) must be a sound prefix of `complete`.
fn assert_partial_subset(
    program: &Program,
    partial: &PointsToResult,
    complete: &PointsToResult,
    label: &str,
) {
    assert!(
        !partial.termination().is_complete(),
        "{label}: the starved run unexpectedly completed; tighten the budget"
    );
    for var in program.vars() {
        for h in partial.points_to(var) {
            assert!(
                complete.points_to(var).contains(h),
                "{label}: partial fact {}::{} -> {} is not in the complete run",
                program.method_qualified_name(program.var_method(var)),
                program.var_name(var),
                program.heap_label(*h)
            );
        }
    }
    for invo in program.invos() {
        for m in partial.call_targets(invo) {
            assert!(
                complete.call_targets(invo).contains(m),
                "{label}: partial call edge {invo:?} -> {} is not in the complete run",
                program.method_qualified_name(*m)
            );
        }
    }
    assert!(partial.reachable_method_count() <= complete.reachable_method_count());
}

/// The resource-governance guard, companion to the identical-results
/// checks above: when either back end is starved into a partial result,
/// that partial must be a subset of the other back end's complete run on
/// every DaCapo configuration. (Both-complete ⇒ bit-identical is what the
/// `*_agrees_on_every_dacapo_config` tests already pin.)
#[test]
fn starved_partials_are_subsets_of_complete_runs_on_every_dacapo_config() {
    for name in hybrid_pta::workload::DACAPO_NAMES {
        let program = hybrid_pta::workload::dacapo_workload(name, 0.15);
        let complete_fast = AnalysisSession::open(program.clone())
            .policy(Analysis::STwoObjH)
            .solve();
        let complete_slow = AnalysisSession::open(program.clone())
            .policy(Analysis::STwoObjH)
            .backend(Backend::Datalog)
            .solve();

        // Specialized solver starved by a step budget, checked against the
        // Datalog back end's complete fixpoint.
        let partial_fast = AnalysisSession::open(program.clone())
            .policy(Analysis::STwoObjH)
            .budget(Budget::unlimited().with_max_steps(150))
            .solve();
        assert_eq!(partial_fast.termination(), Termination::StepLimit);
        assert_partial_subset(&program, &partial_fast, &complete_slow, name);

        // Datalog engine starved by a round budget, checked against the
        // specialized solver's complete fixpoint.
        let partial_slow = AnalysisSession::open(program.clone())
            .policy(Analysis::STwoObjH)
            .backend(Backend::Datalog)
            .budget(Budget::unlimited().with_max_steps(2))
            .solve();
        assert_eq!(partial_slow.termination(), Termination::StepLimit);
        assert_partial_subset(&program, &partial_slow, &complete_fast, name);
    }
}

/// A degraded-complete specialized run must over-approximate the Datalog
/// back end's precise fixpoint: demotion merges contexts, it never drops
/// facts the literal rule set derives.
#[test]
fn degraded_runs_over_approximate_the_datalog_fixpoint() {
    for name in ["antlr", "luindex", "xalan"] {
        let program = hybrid_pta::workload::dacapo_workload(name, 0.15);
        let precise = AnalysisSession::open(program.clone())
            .policy(Analysis::STwoObjH)
            .backend(Backend::Datalog)
            .solve();
        let coarse = AnalysisSession::open(program.clone())
            .policy(Analysis::STwoObjH)
            .budget(Budget::unlimited().with_max_steps(400))
            .degrade(true)
            .solve();
        assert_eq!(coarse.termination(), Termination::Complete, "{name}");
        for var in program.vars() {
            for h in precise.points_to(var) {
                assert!(
                    coarse.points_to(var).contains(h),
                    "{name}: degraded run lost {}::{} -> {}",
                    program.method_qualified_name(program.var_method(var)),
                    program.var_name(var),
                    program.heap_label(*h)
                );
            }
        }
        assert!(coarse.reachable_method_count() >= precise.reachable_method_count());
    }
}

#[test]
fn engines_agree_on_dacapo_miniatures() {
    for name in ["antlr", "jython", "hsqldb"] {
        let program = hybrid_pta::workload::dacapo_workload(name, 0.15);
        for analysis in [Analysis::OneObj, Analysis::STwoObjH] {
            assert_identical(&program, analysis, name);
        }
    }
}
