//! Internal-consistency invariants of the metrics pipeline, across all
//! analyses and a spread of workloads.

use hybrid_pta::clients::precision_metrics;
use hybrid_pta::workload::{dacapo_workload, generate, WorkloadConfig, DACAPO_NAMES};
use hybrid_pta::{Analysis, AnalysisSession};

#[test]
fn metrics_invariants_hold_for_all_analyses() {
    let program = generate(&WorkloadConfig::small(7));
    let insens = precision_metrics(
        &program,
        &AnalysisSession::open(program.clone())
            .policy(Analysis::Insens)
            .solve(),
    );
    for analysis in Analysis::ALL {
        let result = AnalysisSession::open(program.clone())
            .policy(analysis)
            .solve();
        let m = precision_metrics(&program, &result);

        assert!(m.may_fail_casts <= m.reachable_casts, "{analysis}");
        assert!(
            m.poly_virtual_calls <= m.reachable_virtual_calls,
            "{analysis}"
        );
        assert!(m.reachable_methods <= program.method_count(), "{analysis}");
        assert!(m.reachable_methods > 0, "{analysis}");
        assert!(
            m.avg_var_points_to >= 1.0,
            "{analysis}: non-empty sets average >= 1"
        );
        // The paper notes the median points-to size is 1 for all its
        // benchmarks; our synthetic programs have a slightly denser core,
        // so allow a small constant.
        assert!(
            m.median_var_points_to <= 2,
            "{analysis}: median {}",
            m.median_var_points_to
        );
        assert!(m.ctx_var_points_to > 0, "{analysis}");
        assert!(m.contexts >= 1 && m.heap_contexts >= 1, "{analysis}");

        // Context-sensitivity can only remove behaviors relative to insens.
        assert!(m.call_graph_edges <= insens.call_graph_edges, "{analysis}");
        assert!(m.may_fail_casts <= insens.may_fail_casts, "{analysis}");
        assert!(
            m.poly_virtual_calls <= insens.poly_virtual_calls,
            "{analysis}"
        );
        assert!(
            m.reachable_methods <= insens.reachable_methods,
            "{analysis}"
        );
    }
}

#[test]
fn insens_has_exactly_one_context() {
    let program = generate(&WorkloadConfig::tiny(1));
    let m = precision_metrics(
        &program,
        &AnalysisSession::open(program.clone())
            .policy(Analysis::Insens)
            .solve(),
    );
    assert_eq!(m.contexts, 1);
    assert_eq!(m.heap_contexts, 1);
}

#[test]
fn heap_context_counts_track_analysis_family() {
    let program = generate(&WorkloadConfig::tiny(2));
    // HC = {*} for 1call, 1obj and all 1obj hybrids.
    for analysis in [
        Analysis::OneCall,
        Analysis::OneObj,
        Analysis::UOneObj,
        Analysis::SAOneObj,
        Analysis::SBOneObj,
    ] {
        let m = precision_metrics(
            &program,
            &AnalysisSession::open(program.clone())
                .policy(analysis)
                .solve(),
        );
        assert_eq!(m.heap_contexts, 1, "{analysis} has no heap context");
    }
    // Context-sensitive-heap analyses create more than one heap context.
    for analysis in [
        Analysis::OneCallH,
        Analysis::TwoObjH,
        Analysis::STwoObjH,
        Analysis::TwoTypeH,
    ] {
        let m = precision_metrics(
            &program,
            &AnalysisSession::open(program.clone())
                .policy(analysis)
                .solve(),
        );
        assert!(
            m.heap_contexts > 1,
            "{analysis} should create heap contexts"
        );
    }
}

#[test]
fn reference_counts_are_stable_across_analyses() {
    // The paper prints "of ~N" reference counts once per benchmark because
    // they "change little per-analysis": totals may only shrink as
    // precision grows (fewer reachable methods).
    let program = dacapo_workload("luindex", 0.3);
    let insens = precision_metrics(
        &program,
        &AnalysisSession::open(program.clone())
            .policy(Analysis::Insens)
            .solve(),
    );
    for analysis in [Analysis::OneObj, Analysis::STwoObjH] {
        let m = precision_metrics(
            &program,
            &AnalysisSession::open(program.clone())
                .policy(analysis)
                .solve(),
        );
        assert!(m.reachable_casts <= insens.reachable_casts);
        assert!(m.reachable_virtual_calls <= insens.reachable_virtual_calls);
        // And they stay in the same ballpark (within 25%).
        assert!(m.reachable_casts as f64 >= 0.75 * insens.reachable_casts as f64);
    }
}

#[test]
fn every_dacapo_workload_analyzes_cleanly_at_miniature_scale() {
    for name in DACAPO_NAMES {
        let program = dacapo_workload(name, 0.1);
        let m = precision_metrics(
            &program,
            &AnalysisSession::open(program.clone())
                .policy(Analysis::STwoObjH)
                .solve(),
        );
        assert!(m.reachable_methods > 5, "{name}");
        assert!(m.ctx_var_points_to > 0, "{name}");
    }
}

/// Soak test: the full Table 1 analysis set on a scale-8 workload (about
/// the size ratio of the paper's smaller benchmarks). Run explicitly with
/// `cargo test --release -- --ignored soak`.
#[test]
#[ignore = "multi-second soak test; run with --ignored"]
fn soak_scale_8_full_analysis_set() {
    let program = dacapo_workload("antlr", 8.0);
    let insens = precision_metrics(
        &program,
        &AnalysisSession::open(program.clone())
            .policy(Analysis::Insens)
            .solve(),
    );
    for analysis in Analysis::ALL {
        let m = precision_metrics(
            &program,
            &AnalysisSession::open(program.clone())
                .policy(analysis)
                .solve(),
        );
        assert!(m.may_fail_casts <= insens.may_fail_casts, "{analysis}");
        assert!(m.ctx_var_points_to > 0, "{analysis}");
    }
}

/// §2.2 "Other Analyses": the paper rejects `1obj+H` as "a strictly
/// inferior choice to other analyses (especially 2type+H) in practice: it
/// is both much less precise and much slower". Measured on our suite:
/// 2type+H dominates it on may-fail casts *and* on the sensitive
/// var-points-to cost metric — and 1obj+H's heap context buys no cast
/// precision over plain 1obj, because its `Merge = heap` drops the heap
/// context from method contexts, re-conflating methods invoked on the
/// objects the heap context had separated.
#[test]
fn one_obj_h_is_dominated_by_two_type_h() {
    for name in ["antlr", "jython", "xalan"] {
        let program = dacapo_workload(name, 1.0);
        let one_obj = precision_metrics(
            &program,
            &AnalysisSession::open(program.clone())
                .policy(Analysis::OneObj)
                .solve(),
        );
        let one_obj_h = precision_metrics(
            &program,
            &AnalysisSession::open(program.clone())
                .policy(Analysis::OneObjH)
                .solve(),
        );
        let two_type = precision_metrics(
            &program,
            &AnalysisSession::open(program.clone())
                .policy(Analysis::TwoTypeH)
                .solve(),
        );

        // "much less precise" than 2type+H:
        assert!(
            two_type.may_fail_casts < one_obj_h.may_fail_casts,
            "{name}: 2type+H should beat 1obj+H on casts ({} vs {})",
            two_type.may_fail_casts,
            one_obj_h.may_fail_casts
        );
        // "much slower" (platform-independent cost metric):
        assert!(
            two_type.ctx_var_points_to < one_obj_h.ctx_var_points_to,
            "{name}: 2type+H should be cheaper than 1obj+H"
        );
        // And the heap context alone buys nothing over 1obj:
        assert_eq!(one_obj_h.may_fail_casts, one_obj.may_fail_casts, "{name}");
        assert!(
            one_obj_h.ctx_var_points_to > one_obj.ctx_var_points_to,
            "{name}"
        );
    }
}

/// `pta check` on a partial (budget-exhausted) result: the report is
/// tagged partial, the diagnostics lead with `W023`, and the CLI exits
/// `3` — the same partial-result contract `pta analyze` honors.
#[test]
fn client_metrics_on_degraded_runs_are_tagged_partial() {
    use hybrid_pta::clients::{run_check, CheckSpec, ClientBackend};
    use hybrid_pta::core::Budget;
    use hybrid_pta::workload::{dacapo_config, TAINT_SPEC};

    let mut cfg = dacapo_config("luindex", 0.1);
    cfg.taint_groups = 2;
    let program = generate(&cfg);
    let spec = CheckSpec::parse(TAINT_SPEC).unwrap();

    // Starve the solve: the result is a sound prefix, not a fixpoint.
    let starved = AnalysisSession::open(program.clone())
        .policy(Analysis::STwoObjH)
        .budget(Budget::default().with_max_steps(10))
        .solve();
    assert!(!starved.termination().is_complete());
    let report = run_check(&program, &starved, &spec, ClientBackend::CrossValidated);
    assert!(report.partial, "starved result must tag the report partial");
    let diags = report.to_diagnostics(&program);
    assert_eq!(diags[0].code, "W023", "partial tag leads the diagnostics");

    // A complete run of the same cell is not tagged.
    let complete = AnalysisSession::open(program.clone())
        .policy(Analysis::STwoObjH)
        .solve();
    let report = run_check(&program, &complete, &spec, ClientBackend::CrossValidated);
    assert!(!report.partial);
    assert!(report
        .to_diagnostics(&program)
        .iter()
        .all(|d| d.code != "W023"));
}

/// End-to-end exit-code contract: a budget-starved `pta check` exits `3`
/// and still renders its (partial) findings with the `W023` tag.
#[test]
fn check_cli_exits_3_on_partial_results() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_pta"))
        .args([
            "workload",
            "luindex",
            "--scale",
            "0.2",
            "--taint-groups",
            "1",
            "--print",
        ])
        .output()
        .expect("spawn pta workload");
    assert!(out.status.success());
    let path = std::env::temp_dir().join(format!("pta-check-partial-{}.jir", std::process::id()));
    std::fs::write(&path, &out.stdout).unwrap();

    let spec_path = std::env::temp_dir().join(format!("pta-check-spec-{}.txt", std::process::id()));
    std::fs::write(&spec_path, hybrid_pta::workload::TAINT_SPEC).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_pta"))
        .args([
            "check",
            path.to_str().unwrap(),
            "--spec",
            spec_path.to_str().unwrap(),
            "--max-steps",
            "10",
            "--format",
            "json",
        ])
        .output()
        .expect("spawn pta check");
    assert_eq!(out.status.code(), Some(3), "partial check must exit 3");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"code\":\"W023\""), "{stdout}");

    // The same cell without a budget completes and exits 0 or 1 — never 3.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_pta"))
        .args([
            "check",
            path.to_str().unwrap(),
            "--spec",
            spec_path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn pta check");
    assert_ne!(out.status.code(), Some(3));
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&spec_path).ok();
}

/// Writes the luindex workload at scale 0.3 to a temp file tagged `tag`.
fn luindex_jir(tag: &str) -> std::path::PathBuf {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_pta"))
        .args(["workload", "luindex", "--scale", "0.3", "--print"])
        .output()
        .expect("spawn pta workload");
    assert!(out.status.success());
    let path = std::env::temp_dir().join(format!("pta-analyze-{tag}-{}.jir", std::process::id()));
    std::fs::write(&path, &out.stdout).unwrap();
    path
}

/// One solve reads the same in three places: `pta analyze --stats`, the
/// `--profile` fires of all ten rules (through the solver's rule table),
/// and a one-policy daemon's `pta_solver_*_total` scrape. Checks that do
/// not read the firing counters pin them too: the workload fires every
/// counter, a rule derives no tuple it did not fire for (except that an
/// escaping exception is derived again in each caller), and every
/// context-sensitive call edge comes from one static-call firing or one
/// virtual dispatch.
#[test]
fn solver_counters_read_the_same_in_stats_profile_and_scrape() {
    use hybrid_pta::core::solver::RULES;
    use pta_obs::json::{parse, Value};
    use pta_serve::{launch, ProgramSource, ServeConfig};

    let path = luindex_jir("counters");
    for policy in ["insens", "S-2obj+H"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_pta"))
            .args(["analyze", path.to_str().unwrap(), "--analysis", policy])
            .args(["--stats", "--profile", "--format", "json"])
            .output()
            .expect("spawn pta analyze");
        assert!(out.status.success(), "{policy}: {out:?}");
        let report = parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
        let row = &report.as_array().unwrap()[0];
        let Some(Value::Object(stats)) = row.get("stats") else {
            panic!("{policy}: no stats object");
        };
        let stat = |name: &str| stats.get(name).and_then(Value::as_u64).unwrap();

        let rules = row
            .get("profile")
            .and_then(|p| p.get("rules"))
            .and_then(Value::as_array)
            .unwrap();
        assert_eq!(rules.len(), RULES.len(), "{policy}");
        for (rule, (name, counters)) in rules.iter().zip(RULES) {
            assert_eq!(rule.get("name").and_then(Value::as_str), Some(name));
            let fires = rule.get("fires").and_then(Value::as_u64).unwrap();
            let derived = rule.get("derived").and_then(Value::as_u64).unwrap();
            assert_eq!(
                fires,
                counters.iter().map(|&c| stat(c)).sum(),
                "{policy} {name}"
            );
            assert!(counters.iter().all(|&c| stat(c) > 0), "{policy} {name}");
            assert!(name == "exception" || derived <= fires, "{policy} {rule:?}");
        }
        assert!(
            stat("call_edges") <= stat("fire_scall") + stat("fire_vcall_dispatch"),
            "{policy}: {stats:?}"
        );

        let daemon = launch(ServeConfig {
            sources: vec![ProgramSource::parse_workload("luindex:0.3").unwrap()],
            policies: vec![policy.into()],
            use_stdin: false,
            ..ServeConfig::default()
        })
        .expect("launch daemon");
        let prom = daemon.metrics().to_prometheus();
        daemon.request_shutdown();
        assert_eq!(daemon.wait(), 0);
        assert!(prom.contains("\npta_solve_total 1\n"), "{policy}: {prom}");
        for (name, value) in stats.iter().filter(|(name, _)| *name != "dedup_hit_rate") {
            let series = match name.as_str() {
                "peak_worklist" => "pta_solver_peak_worklist".to_string(),
                _ => format!("pta_solver_{name}_total"),
            };
            let scraped = prom
                .lines()
                .find_map(|l| l.strip_prefix(&series)?.strip_prefix(' '))
                .and_then(|v| v.parse::<u64>().ok());
            assert_eq!(scraped, value.as_u64(), "{policy}: {series}");
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Runs `pta analyze` on the luindex s0.3 workload under 2obj+H with a
/// 1000-step budget plus `extra` flags.
fn analyze_starved(tag: &str, extra: &[&str]) -> std::process::Output {
    let path = luindex_jir(tag);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_pta"))
        .args(["analyze", path.to_str().unwrap(), "--analysis", "2obj+H"])
        .args(["--max-steps", "1000"])
        .args(extra)
        .output()
        .expect("spawn pta analyze");
    std::fs::remove_file(&path).ok();
    out
}

/// Under a starved step budget without `--degrade`, `pta analyze` stops
/// with a tagged partial result and exits `3`.
#[test]
fn starved_analyze_run_exits_partial() {
    let starved = analyze_starved("starved", &[]);
    assert_eq!(
        starved.status.code(),
        Some(3),
        "partial analyze must exit 3"
    );
    let text = String::from_utf8(starved.stdout).unwrap();
    assert!(text.contains("PARTIAL RESULT: budget exhausted"), "{text}");
}

/// Under the same starved budget with `--degrade`, hot methods are demoted
/// (one `W007` each) and the run completes with exit `0`.
#[test]
fn degraded_analyze_run_completes_with_demotions() {
    let degraded = analyze_starved("degraded", &["--degrade"]);
    assert_eq!(
        degraded.status.code(),
        Some(0),
        "degraded run must complete"
    );
    let text = String::from_utf8(degraded.stdout).unwrap();
    assert!(
        text.contains("degraded:"),
        "demotion report missing: {text}"
    );
    assert!(text.contains("W007"), "W007 diagnostics missing: {text}");
}
