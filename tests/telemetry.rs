//! End-to-end contract of the telemetry layer (DESIGN.md §16): solver
//! counters attached through [`AnalysisSession::metrics`] are
//! deterministic across reruns, Prometheus exposition escapes and
//! orders its output the way scrapers require, event-log lines are valid
//! JSON by the serve crate's own parser, apply-path metrics distinguish
//! incremental maintenance from full-re-solve fallbacks, and an
//! in-process daemon serves the same registry over both the `metrics`
//! protocol op and the HTTP exposition endpoint, as does the `pta`
//! binary.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pta_core::{Analysis, AnalysisSession};
use pta_ir::{Program, ProgramBuilder, ProgramDelta};
use pta_obs::{EventLog, Field, Metrics, LATENCY_BUCKETS_US};
use pta_serve::json::{parse, Value};
use pta_serve::{launch, ProgramSource, ServeConfig};
use pta_workload::dacapo_workload;

/// Counters that reflect the *fixpoint* (final relation and interner
/// sizes), not the schedule that reached it. Every solve exports them.
const FIXPOINT_COUNTERS: &[&str] = &[
    "pta_solve_total",
    "pta_solver_vpt_inserted_total",
    "pta_solver_fld_inserted_total",
    "pta_solver_call_edges_total",
    "pta_solver_objects_total",
    "pta_solver_contexts_total",
    "pta_solver_heap_contexts_total",
    "pta_solver_throw_tuples_total",
    "pta_solver_fire_scall_total",
    "pta_solver_fire_throw_total",
];

fn solve_with_metrics(program: &Program, analysis: Analysis) -> Metrics {
    let m = Metrics::enabled();
    let _ = AnalysisSession::open(program.clone())
        .policy(analysis)
        .metrics(m.clone())
        .solve();
    m
}

/// Every solve exports the fixpoint-shaped counters, and a rerun must
/// reproduce the whole registry byte-for-byte — the property the counter
/// digest pinned in `crates/serve/tests/soak.rs` relies on.
#[test]
fn solver_counters_are_rerun_deterministic() {
    let program = dacapo_workload("luindex", 0.2);
    for analysis in [Analysis::Insens, Analysis::OneObj, Analysis::UOneObj] {
        let seq = solve_with_metrics(&program, analysis);
        for name in FIXPOINT_COUNTERS {
            assert!(
                seq.value(name, &[]).is_some(),
                "{analysis:?}: {name} missing from registry"
            );
        }
        // Rerun determinism covers *every* series, including the
        // schedule-dependent ones: the solver's schedule is fixed, so
        // the full exposition text must be identical.
        let again = solve_with_metrics(&program, analysis);
        assert_eq!(
            seq.to_prometheus(),
            again.to_prometheus(),
            "{analysis:?}: sequential solve metrics are not rerun-deterministic"
        );
        assert_eq!(
            seq.to_json(),
            again.to_json(),
            "{analysis:?}: JSON export drifts"
        );
    }
}

/// Exposition-format details scrapers depend on: one `# TYPE` header per
/// family, lexicographic series order, label escaping of quotes,
/// backslashes, and newlines, a cumulative `+Inf` bucket, and `_sum` /
/// `_count` series for histograms.
#[test]
fn prometheus_exposition_escapes_and_orders_output() {
    let m = Metrics::enabled();
    m.counter("evil", &[("path", "C:\\tmp\n\"x\"")]).add(3);
    m.counter("evil", &[("path", "a")]).inc();
    let h = m.histogram("lat", &[("op", "q")], &[10, 100]);
    h.observe(5);
    h.observe(50);
    h.observe(5_000);
    let text = m.to_prometheus();

    assert_eq!(text.matches("# TYPE evil counter").count(), 1);
    assert!(
        text.contains("evil{path=\"C:\\\\tmp\\n\\\"x\\\"\"} 3"),
        "label escaping broken:\n{text}"
    );
    // Series within a family are in byte-lexicographic label order
    // ('C' < 'a'), so reruns render identically.
    let a = text.find("evil{path=\"a\"}").unwrap();
    let c = text.find("evil{path=\"C:").unwrap();
    assert!(c < a, "series not in sorted order:\n{text}");

    assert!(text.contains("# TYPE lat histogram"));
    assert!(text.contains("lat_bucket{op=\"q\",le=\"10\"} 1"));
    assert!(
        text.contains("lat_bucket{op=\"q\",le=\"100\"} 2"),
        "buckets not cumulative"
    );
    assert!(text.contains("lat_bucket{op=\"q\",le=\"+Inf\"} 3"));
    assert!(text.contains("lat_sum{op=\"q\"} 5055"));
    assert!(text.contains("lat_count{op=\"q\"} 3"));

    // The JSON export of the same registry must parse with the serve
    // crate's reader and agree on the counter value.
    let v = parse(&m.to_json()).expect("metrics JSON must parse");
    let counters = match v.get("counters") {
        Some(Value::Array(items)) => items,
        other => panic!("counters not an array: {other:?}"),
    };
    let evil = counters
        .iter()
        .find(|c| {
            c.get("labels")
                .and_then(|l| l.get("path"))
                .and_then(Value::as_str)
                == Some("C:\\tmp\n\"x\"")
        })
        .expect("escaped label must round-trip through JSON");
    assert_eq!(evil.get("value").and_then(Value::as_u64), Some(3));
}

/// A `Write` sink tests can read back.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Every event-log line is a self-contained JSON object that the serve
/// crate's parser accepts, with monotonically increasing sequence
/// numbers and all field types intact — including strings that need
/// escaping.
#[test]
fn event_log_lines_round_trip_through_serve_json() {
    let buf = SharedBuf::default();
    let log = EventLog::from_writer(Box::new(buf.clone()));
    log.emit("start", &[("workers", Field::U64(4))]);
    log.emit(
        "request",
        &[
            ("op", Field::Str("points_to")),
            ("var", Field::Str("tab\there \"quoted\" \\slash\nnewline")),
            ("latency_us", Field::U64(1234)),
            ("delta", Field::I64(-7)),
            ("ok", Field::Bool(true)),
        ],
    );
    log.emit("stop", &[]);

    let raw = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = raw.lines().collect();
    assert_eq!(lines.len(), 3, "one line per event:\n{raw}");

    let mut last_seq = None;
    for line in &lines {
        let v = parse(line).unwrap_or_else(|e| panic!("unparseable event line {line}: {e}"));
        let seq = v.get("seq").and_then(Value::as_u64).expect("seq field");
        assert!(last_seq < Some(seq), "seq not strictly increasing");
        last_seq = Some(seq);
        assert!(
            v.get("ts_ms").and_then(Value::as_u64).is_some(),
            "ts_ms field"
        );
        assert!(
            v.get("event").and_then(Value::as_str).is_some(),
            "event field"
        );
    }
    let req = parse(lines[1]).unwrap();
    assert_eq!(req.get("event").and_then(Value::as_str), Some("request"));
    assert_eq!(
        req.get("var").and_then(Value::as_str),
        Some("tab\there \"quoted\" \\slash\nnewline"),
        "string fields must survive escaping"
    );
    assert_eq!(req.get("latency_us").and_then(Value::as_u64), Some(1234));
    assert_eq!(req.get("ok").and_then(Value::as_bool), Some(true));
    assert!(matches!(req.get("delta"), Some(Value::Number(n)) if *n == -7.0));
}

/// Throw-free base program whose additive deltas stay on the
/// incremental path (mirrors `incremental_equivalence.rs`).
fn throw_free_base() -> Program {
    let mut b = ProgramBuilder::new();
    let object = b.class("Object", None);
    let node = b.class("Node", Some(object));
    let next = b.field(node, "next");
    let attach = b.method(node, "attach", &["n"], false);
    let t = b.this(attach).unwrap();
    let n = b.formals(attach)[0];
    b.store(attach, t, next, n);
    let main = b.method(node, "main", &[], true);
    let a = b.var(main, "a");
    b.alloc(main, a, node, "node A");
    b.vcall(main, a, "attach", &[a], None, "a.attach(a)");
    b.entry_point(main);
    b.finish().unwrap()
}

fn additive_delta(base: &Program) -> ProgramDelta {
    let main = base
        .methods()
        .find(|&m| base.method_name(m) == "main")
        .unwrap();
    let node = base.types().find(|&t| base.type_name(t) == "Node").unwrap();
    let a = base
        .vars()
        .find(|&v| base.var_method(v) == main && base.var_name(v) == "a")
        .unwrap();
    let mut d = ProgramDelta::new(base);
    let fresh = d.var(main, "fresh");
    d.alloc(main, fresh, node, "node FRESH");
    d.vcall(main, a, "attach", &[fresh], None, "a.attach(fresh)");
    d
}

/// `pta_apply_total` is split by mode and fallbacks carry their reason,
/// so an operator can tell from the scrape alone whether edits are
/// being maintained in place or silently re-solved.
#[test]
fn apply_metrics_distinguish_incremental_from_fallback() {
    let base = throw_free_base();

    // Retention-eligible session: the additive delta must register as
    // an incremental apply with a maintained-tuple count.
    let m = Metrics::enabled();
    let mut session = AnalysisSession::open(base.clone())
        .policy(Analysis::OneObj)
        .incremental(true)
        .metrics(m.clone());
    session.solve();
    session.apply(&additive_delta(&base)).unwrap();
    assert!(session.last_apply_was_incremental());
    assert_eq!(
        m.value("pta_apply_total", &[("mode", "incremental")]),
        Some(1)
    );
    assert_eq!(m.value("pta_apply_total", &[("mode", "full")]), None);
    assert!(
        m.value("pta_apply_maintained_tuples_total", &[]).is_some(),
        "incremental applies must report maintained tuples"
    );
    assert!(!m.to_prometheus().contains("pta_apply_fallback_total"));

    // A retracting delta on the same session re-solves from scratch and
    // says why; no apply exports invalidation-cone gauges.
    let current = std::sync::Arc::clone(session.program());
    let main = current
        .methods()
        .find(|&m| current.method_name(m) == "main")
        .unwrap();
    let mut retract = ProgramDelta::new(&current);
    retract.remove_instr(main, 0);
    session.apply(&retract).unwrap();
    assert!(!session.last_apply_was_incremental());
    assert_eq!(m.value("pta_apply_total", &[("mode", "full")]), Some(1));
    assert_eq!(
        m.value(
            "pta_apply_fallback_total",
            &[("reason", "delta retracts facts")]
        ),
        Some(1)
    );
    let prom = m.to_prometheus();
    assert!(!prom.contains("pta_apply_cone_"), "{prom}");

    // A session that did not opt into incremental maintenance retains
    // nothing: the same delta must fall back to a full re-solve, and the
    // scrape must say why.
    let m2 = Metrics::enabled();
    let mut fallback = AnalysisSession::open(base.clone())
        .policy(Analysis::OneObj)
        .metrics(m2.clone());
    fallback.solve();
    fallback.apply(&additive_delta(&base)).unwrap();
    assert!(!fallback.last_apply_was_incremental());
    assert_eq!(m2.value("pta_apply_total", &[("mode", "full")]), Some(1));
    assert_eq!(
        m2.value("pta_apply_total", &[("mode", "incremental")]),
        None
    );
    let reason = fallback.last_fallback().unwrap_or("no retained solver");
    assert_eq!(
        m2.value("pta_apply_fallback_total", &[("reason", reason)]),
        Some(1),
        "fallback reason must be labeled:\n{}",
        m2.to_prometheus()
    );
}

fn read_response(stream: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    stream.read_line(&mut line).expect("read response line");
    line
}

/// One `GET /metrics` against the exposition endpoint: the raw HTTP
/// response, headers included.
fn scrape(metrics_port: u16) -> String {
    let mut conn = TcpStream::connect(("127.0.0.1", metrics_port)).unwrap();
    conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .unwrap();
    let mut http = String::new();
    conn.read_to_string(&mut http).unwrap();
    http
}

/// Waits for a daemon to publish a bound port into `path`.
fn read_port_file(path: &Path) -> u16 {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(port) = std::fs::read_to_string(path)
            .ok()
            .and_then(|t| t.trim().parse().ok())
        {
            return port;
        }
        assert!(
            Instant::now() < deadline,
            "{} never appeared",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One in-process daemon, observed through all three telemetry
/// channels: the `metrics` protocol op (JSON + embedded Prometheus
/// text), the HTTP exposition endpoint, and the shared registry handle.
/// Request counters, latency histograms, and resident gauges must
/// agree on what the daemon just did. The `pta` binary then serves the
/// same endpoint from its `--metrics-addr` / `--metrics-port-file` flags.
#[test]
fn daemon_exposes_request_metrics_over_op_and_http() {
    let handle = launch(ServeConfig {
        sources: vec![ProgramSource::parse_workload("luindex:0.2").unwrap()],
        policies: vec!["insens".into()],
        port: Some(0),
        metrics_addr: Some("127.0.0.1:0".into()),
        use_stdin: false,
        ..ServeConfig::default()
    })
    .expect("launch daemon");
    let port = handle.port.expect("TCP port");
    let metrics_port = handle.metrics_port.expect("metrics port");

    let mut conn = BufReader::new(TcpStream::connect(("127.0.0.1", port)).unwrap());
    // Three queries; reading each response guarantees the worker has
    // recorded its latency observation before we scrape.
    for (id, req) in [
        (1, "{\"id\":1,\"op\":\"points_to\",\"var\":\"r\"}\n"),
        (2, "{\"id\":2,\"op\":\"points_to\",\"var\":\"r\"}\n"),
        (3, "{\"id\":3,\"op\":\"devirt\",\"invo\":0}\n"),
    ] {
        conn.get_mut().write_all(req.as_bytes()).unwrap();
        let reply = read_response(&mut conn);
        assert!(
            reply.starts_with(&format!("{{\"id\":{id},\"ok\":true")),
            "{reply}"
        );
    }

    // Channel 1: the `metrics` protocol op.
    conn.get_mut()
        .write_all(b"{\"id\":4,\"op\":\"metrics\"}\n")
        .unwrap();
    let reply = read_response(&mut conn);
    let v = parse(&reply).expect("metrics reply must be JSON");
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    let counters = match v.get("metrics").and_then(|m| m.get("counters")) {
        Some(Value::Array(items)) => items.clone(),
        other => panic!("no counters array in {other:?}"),
    };
    let counter = |name: &str, op: Option<&str>| {
        counters
            .iter()
            .find(|c| {
                c.get("name").and_then(Value::as_str) == Some(name)
                    && c.get("labels")
                        .and_then(|l| l.get("op"))
                        .and_then(Value::as_str)
                        == op
            })
            .and_then(|c| c.get("value").and_then(Value::as_u64))
    };
    assert_eq!(counter("pta_requests_total", Some("points_to")), Some(2));
    assert_eq!(counter("pta_requests_total", Some("devirt")), Some(1));
    assert_eq!(counter("pta_solve_total", None), Some(1));
    let embedded = v.get("prometheus").and_then(Value::as_str).unwrap();
    assert!(embedded.contains("pta_requests_total{op=\"points_to\"} 2"));

    // Channel 2: the HTTP exposition endpoint.
    let http = scrape(metrics_port);
    assert!(http.starts_with("HTTP/1.1 200 OK"), "{http}");
    assert!(http.contains("text/plain; version=0.0.4"));
    let body = http.split("\r\n\r\n").nth(1).expect("HTTP body");
    assert!(
        body.contains("pta_requests_total{op=\"points_to\"} 2"),
        "{body}"
    );
    assert!(
        body.contains("pta_request_latency_us_count{op=\"points_to\"} 2"),
        "{body}"
    );
    assert!(body.contains("# TYPE pta_request_latency_us histogram"));
    assert!(
        body.contains("pta_solve_total 1"),
        "startup solve must be exported"
    );
    assert!(
        body.contains("pta_program_version{program=\"luindex:0.2\"} 1"),
        "resident gauges missing:\n{body}"
    );
    assert!(body.contains("pta_policy_solve_ms{policy=\"insens\",program=\"luindex:0.2\"}"));

    // Unknown paths are 404, not a hang or a panic.
    let mut bad = TcpStream::connect(("127.0.0.1", metrics_port)).unwrap();
    bad.write_all(b"GET /nope HTTP/1.1\r\n\r\n").unwrap();
    let mut notfound = String::new();
    bad.read_to_string(&mut notfound).unwrap();
    assert!(notfound.starts_with("HTTP/1.1 404"), "{notfound}");

    // Channel 3: the registry handle the daemon shares with embedders
    // is the same registry both exports rendered.
    let m = handle.metrics();
    assert_eq!(
        m.value("pta_requests_total", &[("op", "points_to")]),
        Some(2)
    );
    assert_eq!(m.value("pta_requests_total", &[("op", "metrics")]), Some(1));
    let hist = m.histogram(
        "pta_request_latency_us",
        &[("op", "points_to")],
        LATENCY_BUCKETS_US,
    );
    assert_eq!(hist.count(), 2);
    assert!(hist.quantile(0.99) >= hist.quantile(0.50));

    conn.get_mut()
        .write_all(b"{\"id\":9,\"op\":\"shutdown\"}\n")
        .unwrap();
    let _ = read_response(&mut conn);
    assert_eq!(handle.wait(), 0, "clean drain after shutdown op");

    // The same endpoint through the `pta` binary's flags: ports published
    // to files, one answered query, then a well-formed scrape.
    let tmp = std::env::temp_dir();
    let port_file = tmp.join(format!("pta-telemetry-{}.port", std::process::id()));
    let metrics_port_file = tmp.join(format!("pta-telemetry-{}.mport", std::process::id()));
    let _ = std::fs::remove_file(&port_file);
    let _ = std::fs::remove_file(&metrics_port_file);
    let mut child = Command::new(env!("CARGO_BIN_EXE_pta"))
        .args(["serve", "--workload", "luindex:0.2", "--no-stdin"])
        .args(["--port", "0", "--port-file"])
        .arg(&port_file)
        .args(["--metrics-addr", "127.0.0.1:0", "--metrics-port-file"])
        .arg(&metrics_port_file)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pta serve");
    let port = read_port_file(&port_file);
    let metrics_port = read_port_file(&metrics_port_file);
    let mut conn = BufReader::new(TcpStream::connect(("127.0.0.1", port)).unwrap());
    conn.get_mut()
        .write_all(b"{\"id\":8,\"op\":\"points_to\",\"var\":\"r\"}\n")
        .unwrap();
    let reply = read_response(&mut conn);
    assert!(reply.contains("\"ok\":true"), "{reply}");
    let http = scrape(metrics_port);
    assert!(http.starts_with("HTTP/1.1 200 OK"), "{http}");
    for want in [
        "# TYPE pta_request_latency_us histogram",
        "\npta_request_latency_us_count{op=\"points_to\"} 1\n",
        "# TYPE pta_solver_vpt_inserted_total counter",
        "\npta_solve_total 1\n",
    ] {
        assert!(http.contains(want), "scrape lacks {want:?}:\n{http}");
    }
    conn.get_mut()
        .write_all(b"{\"id\":9,\"op\":\"shutdown\"}\n")
        .unwrap();
    let _ = read_response(&mut conn);
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("pta serve did not drain after the shutdown op");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(0), "clean drain after shutdown op");
    let _ = std::fs::remove_file(&port_file);
    let _ = std::fs::remove_file(&metrics_port_file);
}
