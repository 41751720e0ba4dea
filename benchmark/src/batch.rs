//! The batch workloads: one-shot analyses, as `pta analyze` runs them.

use std::sync::Arc;
use std::time::Instant;

use hybrid_pta::report::{reports_to_json, AnalysisReport};
use pta_clients::{precision_metrics, ExperimentMetrics};
use pta_core::{Analysis, AnalysisSession, PointsToResult};
use pta_ir::Program;
use pta_lang::{lexer, lower, parse_program, parser};

use crate::digest::{check_golden, fast};
use crate::programs::{golden_key, setup};
use crate::{ms, run_ops, Layers, Measured, Params};

/// Renders one `pta analyze --metrics --format json` report.
fn render(
    program: &Program,
    analysis: Analysis,
    time_secs: f64,
    result: &PointsToResult,
    metrics: &ExperimentMetrics,
) -> String {
    let demoted: Vec<(String, u32)> = result
        .demoted_sites()
        .iter()
        .map(|d| (program.method_qualified_name(d.method), d.fanout))
        .collect();
    reports_to_json(&[AnalysisReport {
        analysis: analysis.name(),
        backend: "specialized",
        time_secs,
        threads: 1,
        result,
        metrics: Some(metrics),
        include_stats: false,
        include_profile: false,
        demoted: &demoted,
        peak_rss_bytes: None,
    }])
}

/// `analyze-text`: luindex at scale 64, printed once to `.jir`; each op
/// is the `pta analyze F --analysis S-2obj+H --metrics --format json`
/// path from source text to JSON report. The only workload that runs the
/// front end, which costs about as much as the solve.
pub fn analyze_text(params: &Params, m: &mut Measured) {
    const POLICY: Analysis = Analysis::STwoObjH;
    let scale = params.scale(64.0);
    let (_, source, ()) = setup(params, "luindex", scale, m, |_| ());

    // The reference: the same analysis of the program as parsed once, kept
    // in memory.
    let program = parse_program(&source).expect("printed programs parse");
    let reference = AnalysisSession::open(program.clone())
        .policy(POLICY)
        .solve();
    check_golden(
        params,
        m,
        &golden_key("luindex", scale, POLICY.name()),
        &program,
        &reference,
    );
    let ref_digest = fast(&program, &reference);
    let ref_metrics = precision_metrics(&program, &reference);

    run_ops(params, m, |traced, layers: &mut Layers| {
        let t = Instant::now();
        // Each stage frees its input, as `parse_program` does on return.
        let parsed = if traced {
            let tokens = layers.time(true, "lang.lex_ms", || lexer::lex(&source));
            let tokens = tokens.expect("printed programs lex");
            layers.set("lang.tokens", tokens.len() as f64);
            let module = layers.time(true, "lang.parse_ms", || {
                let module = parser::parse(&tokens);
                drop(tokens);
                module
            });
            let module = module.expect("printed programs parse");
            layers.time(true, "lang.lower_ms", || {
                let program = lower::lower(&module);
                drop(module);
                program
            })
        } else {
            parse_program(&source)
        };
        let program = parsed.expect("printed programs lower");
        let solve_start = Instant::now();
        let mut session = layers.time(traced, "ir.clone_ms", || {
            AnalysisSession::open(program.clone()).policy(POLICY)
        });
        let result = layers.time(traced, "core.solve_ms", || session.solve());
        let time_secs = solve_start.elapsed().as_secs_f64();
        let metrics = layers.time(traced, "clients.metrics_ms", || {
            precision_metrics(&program, &result)
        });
        let json = layers.time(traced, "report.render_ms", || {
            render(&program, POLICY, time_secs, &result, &metrics)
        });
        let op_ms = ms(t);
        if traced {
            layers.set("report.bytes", json.len() as f64);
            layers.solver_counters(&[result.solver_stats()]);
            let lang_ms: f64 = ["lang.lex_ms", "lang.parse_ms", "lang.lower_ms"]
                .iter()
                .filter_map(|n| layers.last(n))
                .sum();
            layers.push("lang.mb_per_s", source.len() as f64 / 1e6 / (lang_ms / 1e3));
        }
        let ok = fast(&program, &result) == ref_digest
            && json == render(&program, POLICY, time_secs, &reference, &ref_metrics);
        (op_ms, ok)
    });
}

/// Set-up of the solve workloads: generate, print and parse the program.
fn setup_parsed(params: &Params, name: &str, scale: f64, m: &mut Measured) -> Arc<Program> {
    let (_, _, program) = setup(params, name, scale, m, |source| {
        parse_program(source).expect("printed programs parse")
    });
    Arc::new(program)
}

/// Solves `program` under each policy, as one op, and checks each result
/// against its reference digest.
fn solve_op(
    program: &Arc<Program>,
    policies: &[Analysis],
    threads: usize,
    reference: &[u64],
    traced: bool,
    layers: &mut Layers,
) -> (f64, bool) {
    let mut op_ms = 0.0;
    let mut ok = true;
    let mut results = Vec::with_capacity(policies.len());
    for (&policy, &want) in policies.iter().zip(reference) {
        let mut session = AnalysisSession::from_arc(Arc::clone(program))
            .policy(policy)
            .threads(threads);
        let t = Instant::now();
        let result = layers.time(traced, "core.solve_ms", || session.solve());
        op_ms += ms(t);
        ok &= fast(program, &result) == want;
        results.push(result);
    }
    if traced {
        let solves = results.len();
        layers.merge_last("core.solve_ms", solves);
        let stats: Vec<_> = results.iter().map(PointsToResult::solver_stats).collect();
        layers.solver_counters(&stats);
    }
    (op_ms, ok)
}

/// References for the solve workloads: each policy solved on one thread
/// with hash-consing off, a configuration independent of the measured one.
fn references(
    params: &Params,
    m: &mut Measured,
    name: &str,
    scale: f64,
    program: &Arc<Program>,
    policies: &[Analysis],
) -> Vec<u64> {
    policies
        .iter()
        .map(|&policy| {
            let r = AnalysisSession::from_arc(Arc::clone(program))
                .policy(policy)
                .threads(1)
                .share(false)
                .solve();
            check_golden(
                params,
                m,
                &golden_key(name, scale, policy.name()),
                program,
                &r,
            );
            fast(program, &r)
        })
        .collect()
}

/// `solve-insens`: luindex at scale 64 in memory; each op solves the
/// context-insensitive analysis on one thread. Solve only, in the
/// large-set regime: the points-to sets and the hash-consing store carry
/// the cost, and the front end is not run.
pub fn solve_insens(params: &Params, m: &mut Measured) {
    let scale = params.scale(64.0);
    let program = setup_parsed(params, "luindex", scale, m);
    let policies = [Analysis::Insens];
    let reference = references(params, m, "luindex", scale, &program, &policies);
    run_ops(params, m, |traced, layers: &mut Layers| {
        solve_op(&program, &policies, 1, &reference, traced, layers)
    });
}

/// `solve-par2`: chart at scale 24 in memory; each op solves 2obj+H,
/// U-2obj+H and S-2obj+H with two threads. The only workload on the
/// sharded parallel solver.
pub fn solve_par2(params: &Params, m: &mut Measured) {
    let scale = params.scale(24.0);
    let program = setup_parsed(params, "chart", scale, m);
    let policies = [Analysis::TwoObjH, Analysis::UTwoObjH, Analysis::STwoObjH];
    let reference = references(params, m, "chart", scale, &program, &policies);
    run_ops(params, m, |traced, layers: &mut Layers| {
        solve_op(&program, &policies, 2, &reference, traced, layers)
    });
}
