//! Every workload, at smoke-test size, in both modes: its outputs check
//! out and its verdict line names exactly the metrics `BENCHMARK.json`
//! declares, with the declared units.

use pta_benchmark::{run_workload, Params, WORKLOADS};
use pta_serve::json::{self, Value};

#[global_allocator]
static ALLOC: pta_govern::memtrack::CountingAlloc = pta_govern::memtrack::CountingAlloc;

/// `(name, unit)` of every entry of array `key` in `spec`.
fn declared(spec: &Value, key: &str) -> Vec<(String, String)> {
    let Some(Value::Array(items)) = spec.get(key) else {
        panic!("BENCHMARK.json has no array {key:?}");
    };
    items
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_prints_the_declared_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(|w| match w {
            Value::Array(ws) => Some(ws.iter().filter_map(|w| w.get("name")?.as_str()).collect()),
            _ => None,
        })
        .unwrap();
    assert_eq!(workloads, WORKLOADS);
    for trace in [false, true] {
        let want = declared(&spec, if trace { "per_layer" } else { "end_to_end" });
        for name in WORKLOADS {
            let params = Params {
                seed: 1,
                seconds: 1.0,
                trace,
                tiny: true,
            };
            let outcome = run_workload(name, params).unwrap();
            assert!(outcome.correct(), "{name}: {:?}", outcome.problems);
            let verdict = json::parse(&outcome.verdict_json()).unwrap();
            assert_eq!(verdict.get("correct"), Some(&Value::Bool(true)));
            let Some(Value::Object(metrics)) = verdict.get("metrics") else {
                panic!("{name}: verdict without metrics");
            };
            let mut got: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v.get("unit").and_then(Value::as_str).unwrap().into(),
                    )
                })
                .collect();
            let mut want = want.clone();
            got.sort();
            want.sort();
            assert_eq!(got, want, "{name} (trace {trace})");
            if !trace {
                let value = |m: &str| match metrics[m].get("value") {
                    Some(Value::Number(x)) => *x,
                    other => panic!("{name}/{m}: {other:?}"),
                };
                for (m, _) in &want {
                    assert!(value(m) > 0.0, "{name}/{m} is not positive");
                }
            }
        }
    }
}

#[test]
fn unknown_workloads_are_rejected() {
    let params = Params {
        seed: 0,
        seconds: 1.0,
        trace: false,
        tiny: true,
    };
    assert!(run_workload("no-such-workload", params).is_err());
}
