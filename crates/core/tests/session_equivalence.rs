//! Session-API property tests: every configuration corner of
//! `AnalysisSession` must agree with every other on the analysis
//! semantics.
//!
//! Configuration spellings that promise the same semantics (`config(c)`
//! vs dedicated setters, governed vs ungoverned unlimited budgets on the
//! Datalog back end) produce identical semantic
//! fingerprints: points-to sets, call graph, reachability,
//! context-sensitive tuple counts, interned-key counts and uncaught
//! exceptions. Internal effort counters (`steps`) are *not* part of the
//! fingerprint: they describe the schedule, not the fixpoint.
//!
//! Governance composition (starved runs stop with a sound prefix,
//! degraded runs stay complete) is covered at the end.

use pta_core::{Analysis, AnalysisSession, Backend, Budget, PointsToResult, SolverConfig};
use pta_ir::Program;
use pta_workload::dacapo_workload;

/// Semantic fingerprint of a result: everything the analysis *means*,
/// nothing about how hard the solver worked to get there.
fn fingerprint(program: &Program, r: &PointsToResult) -> String {
    let mut out = String::new();
    for var in program.vars() {
        if !r.points_to(var).is_empty() {
            out.push_str(&format!("v{:?}={:?};", var, r.points_to(var)));
        }
    }
    for invo in program.invos() {
        if !r.call_targets(invo).is_empty() {
            out.push_str(&format!("c{:?}={:?};", invo, r.call_targets(invo)));
        }
    }
    let mut fields: Vec<_> = r.field_points_to_iter().collect();
    fields.sort_unstable();
    let mut statics: Vec<_> = r.static_points_to_iter().collect();
    statics.sort_unstable();
    let mut reach: Vec<_> = r.reachable_methods().collect();
    reach.sort_unstable();
    out.push_str(&format!("f={fields:?};s={statics:?};r={reach:?};"));
    let s = r.solver_stats();
    out.push_str(&format!(
        "reach={};edges={};ctx_vpt={};ctx_edges={};uncaught={:?};\
         ctxs={};hctxs={};objs={};term={}",
        r.reachable_method_count(),
        r.call_graph_edge_count(),
        r.ctx_var_points_to_count(),
        r.ctx_call_graph_edge_count(),
        r.uncaught_exceptions(),
        s.contexts,
        s.heap_contexts,
        s.objects,
        r.termination(),
    ));
    out
}

/// `config(c)` and the dedicated builder setters are the same knob: an
/// explicit `SolverConfig` produces the same fingerprint as the
/// equivalent setter spelling.
#[test]
fn explicit_config_matches_builder_setters() {
    let program = dacapo_workload("bloat", 0.3);
    let config = SolverConfig {
        keep_tuples: true,
        ..SolverConfig::default()
    };
    let explicit = AnalysisSession::open(program.clone())
        .policy(Analysis::SAOneObj)
        .config(config)
        .solve();
    let spelled = AnalysisSession::open(program.clone())
        .policy(Analysis::SAOneObj)
        .keep_tuples(true)
        .solve();
    assert_eq!(
        fingerprint(&program, &explicit),
        fingerprint(&program, &spelled),
        "config(c) diverged from the setter spelling"
    );
    assert!(explicit.context_sensitive_tuples().is_some());
}

/// On the Datalog back end, `solve()` surfaces the engine's round and
/// row counters through `SolverStats`, and an explicit unlimited budget
/// is a no-op: same fingerprint, same engine effort.
#[test]
fn datalog_solve_reports_engine_stats() {
    for analysis in Analysis::ALL {
        let program = dacapo_workload("luindex", 0.1);
        let r = AnalysisSession::open(program.clone())
            .policy(analysis)
            .backend(Backend::Datalog)
            .solve();
        let s = r.solver_stats();
        assert!(
            s.engine_rounds > 0 && s.engine_strata > 0 && s.engine_rows > 0,
            "{analysis}: Datalog solve must fold engine stats into SolverStats"
        );
    }
    // An explicit unlimited budget is a no-op, and the engine stats are
    // deterministic across the two spellings.
    let program = dacapo_workload("luindex", 0.2);
    let plain = AnalysisSession::open(program.clone())
        .policy(Analysis::UOneObj)
        .backend(Backend::Datalog)
        .solve();
    let gov = AnalysisSession::open(program.clone())
        .policy(Analysis::UOneObj)
        .backend(Backend::Datalog)
        .budget(Budget::unlimited())
        .solve();
    assert_eq!(fingerprint(&program, &plain), fingerprint(&program, &gov));
    assert_eq!(
        plain.solver_stats().engine_rounds,
        gov.solver_stats().engine_rounds
    );
    assert_eq!(
        plain.solver_stats().engine_rows,
        gov.solver_stats().engine_rows
    );
}

/// Provenance tracking records a derivation for every derived fact.
#[test]
fn provenance_explains_derived_facts() {
    let program = dacapo_workload("antlr", 0.2);
    let r = AnalysisSession::open(program.clone())
        .policy(Analysis::OneObj)
        .track_provenance(true)
        .solve();
    let var = program
        .vars()
        .find(|&v| !r.points_to(v).is_empty())
        .expect("some variable points somewhere");
    let heap = r.points_to(var)[0];
    assert!(
        r.explain(&program, var, heap).is_some(),
        "provenance tracked, yet the fact has no explanation"
    );
}

/// `partial` must be a sound prefix of `complete`: every fact it derived
/// is a fact of the full fixpoint.
fn assert_subset(program: &Program, partial: &PointsToResult, complete: &PointsToResult) {
    for var in program.vars() {
        for h in partial.points_to(var) {
            assert!(
                complete.points_to(var).contains(h),
                "partial derived {h:?} for {} not in complete run",
                program.var_name(var)
            );
        }
    }
    for invo in program.invos() {
        for m in partial.call_targets(invo) {
            assert!(
                complete.call_targets(invo).contains(m),
                "partial call edge at {invo:?} not in complete run"
            );
        }
    }
}

/// A starved run stops early with a tagged, sound partial result.
#[test]
fn starved_run_is_a_sound_prefix() {
    let program = dacapo_workload("chart", 0.4);
    let complete = AnalysisSession::open(program.clone())
        .policy(Analysis::STwoObjH)
        .solve();
    let partial = AnalysisSession::open(program.clone())
        .policy(Analysis::STwoObjH)
        .budget(Budget::unlimited().with_max_steps(400))
        .solve();
    assert!(
        !partial.termination().is_complete(),
        "400 steps should starve this workload"
    );
    assert_subset(&program, &partial, &complete);
}

/// A starved run with `--degrade` demotes hot methods and runs to
/// (degraded) completion instead of stopping.
#[test]
fn degraded_run_completes() {
    let program = dacapo_workload("chart", 0.4);
    let insens = AnalysisSession::open(program.clone())
        .policy(Analysis::Insens)
        .solve();
    let degraded = AnalysisSession::open(program.clone())
        .policy(Analysis::STwoObjH)
        .budget(Budget::unlimited().with_max_steps(400).with_watermark(4))
        .degrade(true)
        .solve();
    assert!(
        degraded.termination().is_complete(),
        "degrade must trade precision for completion"
    );
    assert!(
        !degraded.demoted_sites().is_empty(),
        "a starved degraded run must demote something"
    );
    // Degradation must stay sound: everything the context-insensitive
    // baseline would *not* derive cannot appear, i.e. the degraded run is
    // a refinement of insens — so insens over-approximates it.
    assert_subset(&program, &degraded, &insens);
}

/// A cancelled run returns a sound prefix.
#[test]
fn cancelled_run_stops_soundly() {
    use pta_core::CancelToken;
    let program = dacapo_workload("chart", 0.4);
    let complete = AnalysisSession::open(program.clone())
        .policy(Analysis::STwoObjH)
        .solve();
    let token = CancelToken::new();
    token.cancel();
    let partial = AnalysisSession::open(program.clone())
        .policy(Analysis::STwoObjH)
        .cancel(token)
        .solve();
    assert!(!partial.termination().is_complete());
    assert_subset(&program, &partial, &complete);
}
