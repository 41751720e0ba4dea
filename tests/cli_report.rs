//! Golden tests for the `pta analyze --format json` report shape
//! (`hybrid_pta::report`). The JSON is hand-rolled, so these tests pin the
//! exact bytes for a deterministic fixture — any emitter change must be a
//! deliberate golden update here (and a `SCHEMA_VERSION` bump when the
//! change is not purely additive).

use hybrid_pta::clients::precision_metrics;
use hybrid_pta::core::Analysis;
use hybrid_pta::lang::parse_program;
use hybrid_pta::report::{reports_to_json, AnalysisReport, SCHEMA_VERSION};
use hybrid_pta::AnalysisSession;

const MOTIVATING: &str = include_str!("../examples/programs/motivating.jir");

#[test]
fn minimal_report_golden() {
    let program = parse_program(MOTIVATING).unwrap();
    let result = AnalysisSession::open(program.clone()).solve();
    let report = AnalysisReport {
        analysis: Analysis::Insens.name(),
        backend: "specialized",
        threads: 1,
        time_secs: 0.25,
        result: &result,
        metrics: None,
        include_stats: false,
        include_profile: false,
        demoted: &[],
        peak_rss_bytes: None,
    };
    assert_eq!(
        report.to_json(),
        "{\"schema_version\":2,\"analysis\":\"insens\",\"backend\":\"specialized\",\
         \"threads\":1,\"time_secs\":0.25,\
         \"reachable_methods\":2,\"call_graph_edges\":2,\"termination\":\"complete\"}"
    );
    // The golden bytes above pin the constant too.
    assert_eq!(SCHEMA_VERSION, 2);
}

#[test]
fn demoted_sites_golden() {
    let program = parse_program(MOTIVATING).unwrap();
    let result = AnalysisSession::open(program.clone()).solve();
    let demoted = vec![("C.run".to_owned(), 21u32), ("D.go".to_owned(), 17u32)];
    let report = AnalysisReport {
        analysis: Analysis::Insens.name(),
        backend: "specialized",
        threads: 1,
        time_secs: 0.25,
        result: &result,
        metrics: None,
        include_stats: false,
        include_profile: false,
        demoted: &demoted,
        peak_rss_bytes: None,
    };
    assert_eq!(
        report.to_json(),
        "{\"schema_version\":2,\"analysis\":\"insens\",\"backend\":\"specialized\",\
         \"threads\":1,\"time_secs\":0.25,\
         \"reachable_methods\":2,\"call_graph_edges\":2,\"termination\":\"complete\",\
         \"demoted_sites\":[{\"method\":\"C.run\",\"fanout\":21},\
         {\"method\":\"D.go\",\"fanout\":17}]}"
    );
}

#[test]
fn stats_ride_under_the_stats_key() {
    let program = parse_program(MOTIVATING).unwrap();
    let result = AnalysisSession::open(program.clone())
        .policy(Analysis::STwoObjH)
        .solve();
    let report = AnalysisReport {
        analysis: Analysis::STwoObjH.name(),
        backend: "specialized",
        threads: 1,
        time_secs: 0.5,
        result: &result,
        metrics: None,
        include_stats: true,
        include_profile: false,
        demoted: &[],
        peak_rss_bytes: None,
    };
    let json = report.to_json();
    // The counters appear as a nested object under "stats", mirroring the
    // live values, ending with the derived dedup rate.
    let stats = result.solver_stats();
    assert!(json.contains(&format!(
        "\"stats\":{{\"vpt_inserted\":{},\"vpt_dup\":{},",
        stats.vpt_inserted, stats.vpt_dup
    )));
    assert!(json.contains("\"dedup_hit_rate\":"));
    assert!(json.ends_with("}}"));
    // The retired parallel counters keep their place, always zero, so
    // the stats object keeps its shape.
    assert!(json.contains("\"par_rounds\":0,\"par_msgs\":0,"));
    // The governance outcome rides with the stats block: budget consumed
    // (fixpoint steps) and demotions applied. New-in-place keys keep the
    // schema at v2 because consumers treat them as optional.
    assert!(json.contains(&format!(
        "\"governance\":{{\"steps_consumed\":{},\"demotions_applied\":0}}",
        stats.steps
    )));
    // Without --stats the governance object stays out too.
    let lean = AnalysisReport {
        analysis: Analysis::STwoObjH.name(),
        backend: "specialized",
        threads: 1,
        time_secs: 0.5,
        result: &result,
        metrics: None,
        include_stats: false,
        include_profile: false,
        demoted: &[],
        peak_rss_bytes: None,
    };
    assert!(!lean.to_json().contains("\"governance\""));
}

#[test]
fn profile_rides_under_the_profile_key() {
    let program = parse_program(MOTIVATING).unwrap();
    let result = AnalysisSession::open(program.clone())
        .policy(Analysis::STwoObjH)
        .profile(true)
        .solve();
    let report = AnalysisReport {
        analysis: Analysis::STwoObjH.name(),
        backend: "specialized",
        threads: 1,
        time_secs: 0.5,
        result: &result,
        metrics: None,
        include_stats: false,
        include_profile: true,
        demoted: &[],
        peak_rss_bytes: None,
    };
    let json = report.to_json();
    assert!(
        json.contains(",\"profile\":{\"rules\":[{\"name\":\"alloc\","),
        "profiled run must embed the rule table: {json}"
    );
    assert!(json.contains("\"hot_vars\":[{\"name\":\""));
    assert!(json.contains("\"set_promotions\":"));
    // An unprofiled result stays lean even when the embed is requested.
    let unprofiled = AnalysisSession::open(program.clone())
        .policy(Analysis::STwoObjH)
        .solve();
    let lean = AnalysisReport {
        analysis: Analysis::STwoObjH.name(),
        backend: "specialized",
        threads: 1,
        time_secs: 0.5,
        result: &unprofiled,
        metrics: None,
        include_stats: false,
        include_profile: true,
        demoted: &[],
        peak_rss_bytes: None,
    };
    assert!(!lean.to_json().contains("\"profile\""));
}

#[test]
fn metrics_and_array_shape_golden() {
    let program = parse_program(MOTIVATING).unwrap();
    let result = AnalysisSession::open(program.clone())
        .policy(Analysis::OneObj)
        .solve();
    let metrics = precision_metrics(&program, &result);
    let reports = [AnalysisReport {
        analysis: Analysis::OneObj.name(),
        backend: "specialized",
        threads: 1,
        time_secs: 0.125,
        result: &result,
        metrics: Some(&metrics),
        include_stats: false,
        include_profile: false,
        demoted: &[],
        peak_rss_bytes: None,
    }];
    let json = reports_to_json(&reports);
    assert_eq!(
        json,
        format!(
            "[{{\"schema_version\":2,\"analysis\":\"1obj\",\"backend\":\"specialized\",\
             \"threads\":1,\"time_secs\":0.125,\
             \"reachable_methods\":{},\"call_graph_edges\":{},\"termination\":\"complete\",\
             \"metrics\":{{\"avg_objs_per_var\":{},\"poly_v_calls\":{},\
             \"reachable_v_calls\":{},\"may_fail_casts\":{},\"reachable_casts\":{},\
             \"sensitive_var_points_to\":{},\"contexts\":{},\"heap_contexts\":{},\
             \"uncaught_exception_sites\":{}}}}}]",
            result.reachable_method_count(),
            result.call_graph_edge_count(),
            metrics.avg_var_points_to,
            metrics.poly_virtual_calls,
            metrics.reachable_virtual_calls,
            metrics.may_fail_casts,
            metrics.reachable_casts,
            metrics.ctx_var_points_to,
            metrics.contexts,
            metrics.heap_contexts,
            metrics.uncaught_exception_sites,
        )
    );
}

#[test]
fn json_string_escaping() {
    // Analysis names never need escaping today, but the emitter must not
    // corrupt a future name or backend label containing specials.
    let program = parse_program(MOTIVATING).unwrap();
    let result = AnalysisSession::open(program.clone()).solve();
    let report = AnalysisReport {
        analysis: "a\"b\\c",
        backend: "x\ny",
        threads: 1,
        time_secs: 0.0,
        result: &result,
        metrics: None,
        include_stats: false,
        include_profile: false,
        demoted: &[],
        peak_rss_bytes: None,
    };
    let json = report.to_json();
    assert!(json
        .starts_with("{\"schema_version\":2,\"analysis\":\"a\\\"b\\\\c\",\"backend\":\"x\\ny\","));
}
