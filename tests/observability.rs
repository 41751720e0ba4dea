//! End-to-end observability tests: Chrome trace-event output shape,
//! run-to-run determinism of the recorded timeline, and the provenance
//! `explain` chain on the paper's §1 motivating example.
//!
//! The trace JSON is validated with the workspace's JSON reader
//! (`pta_obs::json`), which shares no code with the trace writer: the same
//! round-trip trick `table1 --check` uses to catch a malformed emitter.

use hybrid_pta::core::{PointsToResult, Trace};
use hybrid_pta::ir::{HeapId, Program, VarId};
use hybrid_pta::lang::parse_program;
use hybrid_pta::{Analysis, AnalysisSession};
use pta_obs::json::{self, Value};

/// The §1 motivating example: two call sites of `C.foo` whose receivers
/// point to distinct `C` allocations.
const SECTION1: &str = r#"
    class Object {}
    class C : Object {
        method foo(o) { kept = o; return kept; }
    }
    class Client : Object {
        static main() {
            c1 = new C;
            c2 = new C;
            obj1 = new Object;
            obj2 = new Object;
            r1 = c1.foo(obj1);
            r2 = c2.foo(obj2);
        }
    }
    entry Client.main;
"#;

fn var(program: &Program, meth: &str, name: &str) -> VarId {
    program
        .vars()
        .find(|&v| {
            program.var_name(v) == name
                && program.method_qualified_name(program.var_method(v)) == meth
        })
        .unwrap_or_else(|| panic!("no var {meth}::{name}"))
}

fn heap(program: &Program, label: &str) -> HeapId {
    program
        .heaps()
        .find(|&h| program.heap_label(h) == label)
        .unwrap_or_else(|| panic!("no heap labeled {label}"))
}

fn traced_run(program: &Program) -> (PointsToResult, Trace) {
    let trace = Trace::enabled();
    let result = AnalysisSession::open(program.clone())
        .policy(Analysis::STwoObjH)
        .trace(trace.clone())
        .solve();
    (result, trace)
}

/// Every event in a trace file must carry the Chrome trace-event
/// essentials, and the phases must be ones the format defines.
fn validate_timeline(doc: &Value) -> &[Value] {
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("trace carries a traceEvents array");
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("event {i} has no ph"));
        assert!(
            matches!(ph, "X" | "i" | "C" | "M"),
            "event {i}: unknown phase {ph:?}"
        );
        assert!(ev.get("name").and_then(Value::as_str).is_some());
        assert!(ev.get("ts").and_then(Value::as_number).is_some());
        assert!(ev.get("pid").and_then(Value::as_number).is_some());
        assert!(ev.get("tid").and_then(Value::as_number).is_some());
        if ph == "X" {
            let dur = ev.get("dur").and_then(Value::as_number);
            assert!(dur.is_some_and(|d| d >= 0.0), "event {i}: X without dur");
        }
    }
    events
}

#[test]
fn traced_run_emits_a_valid_chrome_timeline() {
    let program = parse_program(SECTION1).unwrap();
    let (_, trace) = traced_run(&program);
    let rendered = trace.to_chrome_json();
    let doc = json::parse(&rendered).expect("trace output is valid JSON");
    let events = validate_timeline(&doc);
    assert!(!events.is_empty());

    let named = |name: &str| {
        events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some(name))
            .count()
    };
    // The solve itself is one complete span carrying its step count...
    assert_eq!(named("solve"), 1);
    let solve = events
        .iter()
        .find(|e| e.get("name").and_then(Value::as_str) == Some("solve"))
        .unwrap();
    assert!(solve
        .get("args")
        .and_then(|a| a.get("steps"))
        .and_then(Value::as_number)
        .is_some_and(|s| s > 0.0));
    // ...and the per-rule cost ladder rides in the "rule" category, with
    // the motivating example exercising at least alloc, move and vcall.
    for rule in ["alloc", "move", "vcall"] {
        assert!(named(rule) >= 1, "missing rule span {rule:?}");
    }
}

/// Two runs of the same deterministic workload must record the same
/// events (timestamps and durations excluded): the timeline's *shape* is
/// a function of the analysis, not the scheduler.
#[test]
fn sequential_traces_are_deterministic_across_runs() {
    let program = parse_program(SECTION1).unwrap();
    let (_, first) = traced_run(&program);
    let (_, second) = traced_run(&program);
    let counts = first.event_counts();
    assert!(!counts.is_empty());
    assert_eq!(counts, second.event_counts());
}

#[test]
fn explain_walks_the_motivating_derivation() {
    let program = parse_program(SECTION1).unwrap();
    let result = AnalysisSession::open(program.clone())
        .policy(Analysis::STwoObjH)
        .track_provenance(true)
        .solve();
    let r1 = var(&program, "Client.main", "r1");
    let obj1 = heap(&program, "Client.main/new Object#2");
    let chain = result
        .explain(&program, r1, obj1)
        .expect("S-2obj+H derives r1 -> obj1 with provenance on");
    // The chain walks from the returned value back to the allocation:
    // r1 <- foo's return (kept) <- parameter o <- obj1's allocation site.
    assert!(chain.len() >= 3, "chain too short: {chain:#?}");
    assert!(chain[0].contains("r1"), "{chain:#?}");
    assert!(
        chain.last().unwrap().contains("allocation site"),
        "{chain:#?}"
    );
    assert!(chain.last().unwrap().contains("new Object#2"), "{chain:#?}");
    // Precision sanity: the hybrid keeps the two call sites apart, so r1
    // must NOT be explainable to obj2's allocation.
    let obj2 = heap(&program, "Client.main/new Object#3");
    assert!(result.explain(&program, r1, obj2).is_none());

    // Without provenance tracking the same query declines loudly
    // (None), never a wrong chain.
    let untracked = AnalysisSession::open(program.clone())
        .policy(Analysis::STwoObjH)
        .solve();
    assert!(untracked.explain(&program, r1, obj1).is_none());
}

/// Profiling and tracing agree on rule activity: a rule that fired in the
/// profile has a span in the trace and vice versa.
#[test]
fn profile_and_trace_agree_on_rule_activity() {
    let program = parse_program(SECTION1).unwrap();
    let trace = Trace::enabled();
    let result = AnalysisSession::open(program.clone())
        .policy(Analysis::STwoObjH)
        .trace(trace.clone())
        .profile(true)
        .solve();
    let profile = result.profile().expect("profiled run records a profile");
    let doc = json::parse(&trace.to_chrome_json()).unwrap();
    let events = validate_timeline(&doc);
    let span_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("cat").and_then(Value::as_str) == Some("rule"))
        .filter_map(|e| e.get("name").and_then(Value::as_str))
        .collect();
    // A rule span is emitted whenever the rule did any observable work
    // (fired, or accumulated clock time on a fruitless activation).
    for rule in &profile.rules {
        assert_eq!(
            rule.fires > 0 || rule.ns > 0,
            span_names.contains(&rule.name.as_str()),
            "trace and profile disagree on rule {:?}",
            rule.name
        );
    }
}

/// The CLI surface of the same features: `pta analyze --trace` writes a
/// Chrome timeline with the session's `solve` span and per-rule spans on
/// a DaCapo-shaped workload, and `pta explain` prints a derivation chain
/// on the motivating example.
#[test]
fn cli_trace_file_and_explain_chain() {
    let pta = env!("CARGO_BIN_EXE_pta");
    let out = std::process::Command::new(pta)
        .args(["workload", "luindex", "--scale", "0.3", "--print"])
        .output()
        .expect("spawn pta workload");
    assert!(out.status.success());
    let dir = std::env::temp_dir();
    let id = std::process::id();
    let jir = dir.join(format!("pta-obs-{id}.jir"));
    let trace = dir.join(format!("pta-obs-{id}.trace.json"));
    std::fs::write(&jir, &out.stdout).unwrap();
    let out = std::process::Command::new(pta)
        .args(["analyze", jir.to_str().unwrap(), "--analysis", "S-2obj+H"])
        .args(["--trace", trace.to_str().unwrap()])
        .output()
        .expect("spawn pta analyze");
    let written = std::fs::read_to_string(&trace);
    std::fs::remove_file(&jir).ok();
    std::fs::remove_file(&trace).ok();
    assert!(out.status.success(), "{out:?}");
    let written = written.expect("trace file written");
    for needle in [
        r#""traceEvents""#,
        r#""name":"solve""#,
        r#""name":"alloc","cat":"rule""#,
        r#""name":"project","cat":"solver""#,
    ] {
        assert!(written.contains(needle), "trace lacks {needle}");
    }
    // The result projection is its own span, sized by its arguments.
    let project = written.split(r#""name":"project""#).nth(1).unwrap();
    let project = &project[..project.find('}').unwrap()];
    assert!(project.contains(r#""args":{"vars":"#), "{project}");
    assert!(project.contains(r#""heaps":"#), "{project}");

    let out = std::process::Command::new(pta)
        .args([
            "explain",
            "examples/programs/motivating.jir",
            "r1",
            "Object#",
        ])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn pta explain");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    assert!(text.contains("allocation site"), "{text}");
}
