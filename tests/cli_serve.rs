//! End-to-end contract of `pta serve`: the daemon answers every query
//! kind over stdio, survives hostile protocol input without panicking or
//! leaking queue slots, sheds under load, enforces deadlines, degrades to
//! the insens fallback when a startup budget trips, and drains gracefully
//! on stdin EOF, the `shutdown` op, and SIGTERM — with the documented
//! exit codes (0 clean drain, 2 usage, 3 forced drain). In process, it
//! also pins the daemon's latency floor and its name index.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use pta_govern::CancelToken;
use pta_ir::{MethodId, VarId};
use pta_serve::json::{parse, Value};
use pta_serve::protocol::EditSpec;
use pta_serve::{
    answer, launch, Op, ProgramSource, ReqCtx, Request, Resident, ServeConfig, SolveConfig,
};

fn pta() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pta"))
}

/// Pipes `input` into `pta serve <args>`, closes stdin, and collects the
/// run (the daemon drains on EOF).
fn serve_stdio(args: &[&str], input: &str) -> Output {
    let mut child = pta()
        .arg("serve")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn pta serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .expect("write requests");
    wait_with_deadline(child, Duration::from_secs(120))
}

/// `wait_with_output` guarded by a deadline: a wedged daemon fails the
/// test instead of hanging the suite.
fn wait_with_deadline(mut child: Child, limit: Duration) -> Output {
    let deadline = Instant::now() + limit;
    loop {
        match child.try_wait().expect("try_wait") {
            Some(_) => return child.wait_with_output().expect("collect output"),
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                panic!("pta serve failed to exit within {limit:?}");
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// The response line for request `id`, if any.
fn line_for(stdout: &str, id: u64) -> Option<&str> {
    stdout
        .lines()
        .find(|l| l.starts_with(&format!("{{\"id\":{id},")))
}

const WORKLOAD: &[&str] = &["--workload", "luindex:0.2"];

/// The `stats` reply's counter `key` for request `id`.
fn stats_count(stdout: &str, id: u64, key: &str) -> u64 {
    let line = line_for(stdout, id).unwrap_or_else(|| panic!("no stats reply {id}: {stdout}"));
    let v = parse(line).expect("stats reply is JSON");
    v.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no {key:?} in {line}"))
}

/// The sum of every series of counter `family` in the Prometheus text of
/// `metrics` reply `id`.
fn scraped_sum(stdout: &str, id: u64, family: &str) -> u64 {
    let line = line_for(stdout, id).unwrap_or_else(|| panic!("no metrics reply {id}: {stdout}"));
    let v = parse(line).expect("metrics reply is JSON");
    let prom = v.get("prometheus").and_then(Value::as_str).unwrap();
    prom.lines()
        .filter(|l| l.split(['{', ' ']).next() == Some(family))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum()
}

#[test]
fn answers_all_four_query_kinds_then_drains_on_eof() {
    // `r` exists in every generated workload (field-load results);
    // devirt 0 and a bogus cast give the remaining two kinds structured
    // answers without needing to know instruction layout. The real cast
    // is a fixed property of the deterministic luindex generator
    // (visible via `pta analyze --casts`).
    let input = concat!(
        "{\"id\":1,\"op\":\"points_to\",\"var\":\"r\"}\n",
        "{\"id\":2,\"op\":\"devirt\",\"invo\":0}\n",
        "{\"id\":3,\"op\":\"cast_check\",\"method\":\"No.method\",\"instr\":0}\n",
        "{\"id\":4,\"op\":\"findings\",\"var\":\"r\",\"policy\":\"2obj+H\"}\n",
        "{\"id\":5,\"op\":\"health\"}\n",
        "{\"id\":6,\"op\":\"stats\"}\n",
        "{\"id\":7,\"op\":\"cast_check\",\"method\":\"Service0.step0\",\"instr\":2,",
        "\"policy\":\"S-2obj+H\"}\n",
    );
    let events =
        std::env::temp_dir().join(format!("pta-serve-events-{}.jsonl", std::process::id()));
    let policies = [
        "--policy", "insens", "--policy", "2obj+H", "--policy", "S-2obj+H",
    ];
    let out = serve_stdio(
        &[WORKLOAD, &policies, &["--events", events.to_str().unwrap()]].concat(),
        input,
    );
    assert_eq!(out.status.code(), Some(0), "EOF must drain cleanly");
    let stdout = String::from_utf8(out.stdout).unwrap();
    for (id, want) in [
        (1, "\"op\":\"points_to\""),
        (2, "\"op\":\"devirt\""),
        (4, "\"op\":\"findings\""),
        (5, "\"op\":\"health\",\"status\":\"ok\""),
        (6, "\"op\":\"stats\""),
        (7, "\"may_fail\":true"),
    ] {
        let line = line_for(&stdout, id).unwrap_or_else(|| panic!("no response {id}: {stdout}"));
        assert!(line.contains("\"ok\":true"), "id {id}: {line}");
        assert!(line.contains(want), "id {id}: {line}");
    }
    // The bogus cast answers a *structured* error, not a dropped line.
    let cast = line_for(&stdout, 3).expect("cast response");
    assert!(cast.contains("\"error\":\"unknown_cast\""), "{cast}");

    // The event log records the lifecycle: start, each request, and a
    // graceful (unforced) drain.
    let log = std::fs::read_to_string(&events).expect("event log written");
    let _ = std::fs::remove_file(&events);
    for want in [
        "\"event\":\"daemon_start\"",
        "\"event\":\"request\",\"id\":1,\"op\":\"points_to\",\"status\":\"ok\"",
        "\"event\":\"shutdown\",\"forced\":false",
    ] {
        assert!(log.contains(want), "event log lacks {want}:\n{log}");
    }
}

#[test]
fn shutdown_op_acks_and_drains() {
    let out = serve_stdio(
        WORKLOAD,
        "{\"id\":9,\"op\":\"shutdown\"}\n{\"id\":10,\"op\":\"health\"}\n",
    );
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let ack = line_for(&stdout, 9).expect("shutdown ack");
    assert!(ack.contains("\"stopping\":true"), "{ack}");
}

#[test]
fn hostile_protocol_input_answers_errors_and_keeps_serving() {
    // Garbage, truncated JSON, mistyped fields, an oversized line, and
    // interleaved valid requests. The daemon must answer each bad line
    // with a structured error, keep the stream synchronized, and still
    // answer valid queries afterwards — with a queue so small that any
    // leaked slot would wedge or shed them.
    let oversized = format!("{{\"id\":40,\"junk\":\"{}\"}}", "x".repeat(2 * 1024 * 1024));
    let mut input = String::new();
    input.push_str("not json at all\n");
    input.push_str("{\"id\":30,\n");
    input.push_str("{\"id\":31,\"op\":\"points_to\",\"var\":7}\n");
    input.push_str("{\"id\":32,\"op\":\"frobnicate\"}\n");
    input.push_str("[1,2,3]\n");
    input.push_str("{\"id\":33,\"op\":\"points_to\",\"var\":\"r\"}\n");
    input.push_str(&oversized);
    input.push('\n');
    for _ in 0..20 {
        input.push_str("}{\n");
    }
    input.push_str("{\"id\":34,\"op\":\"points_to\",\"var\":\"r\"}\n");
    // Nesting far past the reader's depth limit, well under the line cap:
    // one parse error, not a stack overflow in the reader thread.
    input.push_str(&"[".repeat(20_000));
    input.push('\n');
    input.push_str("{\"id\":35,\"op\":\"stats\"}\n");
    input.push_str("{\"id\":36,\"op\":\"metrics\"}\n");
    let out = serve_stdio(&[WORKLOAD, &["--queue", "2"]].concat(), &input);
    assert_eq!(out.status.code(), Some(0), "hostile input must not crash");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(!stderr.contains("panic"), "daemon panicked: {stderr}");
    for (id, code) in [(31, "bad_request"), (32, "bad_request")] {
        let line = line_for(&stdout, id).unwrap_or_else(|| panic!("no response {id}: {stdout}"));
        assert!(line.contains(&format!("\"error\":\"{code}\"")), "{line}");
    }
    assert!(stdout.contains("\"error\":\"oversized\""), "{stdout}");
    assert!(stdout.contains("\"error\":\"parse\""), "{stdout}");
    // Valid queries interleaved with (and after) the garbage still work:
    // malformed lines consumed no queue slots.
    for id in [33, 34, 35] {
        let line = line_for(&stdout, id).unwrap_or_else(|| panic!("no response {id}: {stdout}"));
        assert!(line.contains("\"ok\":true"), "id {id}: {line}");
    }
    let deep = stdout
        .lines()
        .filter(|l| l.contains("\"error\":\"parse\"") && l.contains("nesting deeper"))
        .count();
    assert_eq!(deep, 1, "{stdout}");
    // Every error reply is counted once, in the registry, and the `stats`
    // op reads that count: the oversized line included.
    let failed = stdout.matches("\"ok\":false").count() as u64;
    assert_eq!(stats_count(&stdout, 35, "errors"), failed, "{stdout}");
    assert_eq!(
        scraped_sum(&stdout, 36, "pta_request_errors_total"),
        failed,
        "{stdout}"
    );
}

#[test]
fn full_queue_sheds_with_overloaded_instead_of_buffering() {
    // One worker stalled ~tens of ms per request by delay faults, a
    // one-deep queue, and a reader that enqueues as fast as stdin
    // delivers: most requests must shed, the rest must answer normally.
    let mut input = String::new();
    for id in 1..=60 {
        input.push_str(&format!("{{\"id\":{id},\"op\":\"devirt\",\"invo\":0}}\n"));
    }
    // Answered inline once every query above has been admitted or shed.
    input.push_str("{\"id\":61,\"op\":\"stats\"}\n");
    input.push_str("{\"id\":62,\"op\":\"metrics\"}\n");
    let out = serve_stdio(
        &[
            WORKLOAD,
            &[
                "--workers",
                "1",
                "--queue",
                "1",
                "--inject-faults",
                "1,delay",
            ],
        ]
        .concat(),
        &input,
    );
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let shed = stdout.matches("\"error\":\"overloaded\"").count();
    let ok = stdout.matches("\"ok\":true").count();
    assert!(shed > 0, "nothing shed — queue not bounded? {stdout}");
    assert!(ok > 2, "nothing served: {stdout}");
    assert_eq!(
        shed + ok,
        62,
        "every request answered exactly once: {stdout}"
    );
    // The `stats` op, the scrape and the replies agree on the shed count,
    // and every shed reply is an error.
    let shed = shed as u64;
    assert_eq!(stats_count(&stdout, 61, "shed"), shed, "{stdout}");
    assert_eq!(
        scraped_sum(&stdout, 62, "pta_requests_shed_total"),
        shed,
        "{stdout}"
    );
    assert_eq!(stats_count(&stdout, 61, "errors"), shed, "{stdout}");
}

#[test]
fn per_request_deadline_is_enforced() {
    let out = serve_stdio(
        WORKLOAD,
        "{\"id\":1,\"op\":\"points_to\",\"var\":\"r\",\"deadline_ms\":0}\n\
         {\"id\":2,\"op\":\"points_to\",\"var\":\"r\"}\n",
    );
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let line = line_for(&stdout, 1).expect("deadline response");
    assert!(line.contains("\"error\":\"deadline_exceeded\""), "{line}");
    let line = line_for(&stdout, 2).expect("undeadlined response");
    assert!(line.contains("\"ok\":true"), "{line}");
}

#[test]
fn budget_tripped_policy_answers_partial_from_insens_fallback() {
    // 50 steps is far below the 2obj+H fixpoint: the startup solve trips,
    // the daemon stays up, and every answer for that policy carries
    // "partial":true — the serve analog of batch exit code 3.
    let out = serve_stdio(
        &[WORKLOAD, &["--policy", "2obj+H", "--solve-max-steps", "50"]].concat(),
        "{\"id\":1,\"op\":\"points_to\",\"var\":\"r\"}\n{\"id\":2,\"op\":\"stats\"}\n",
    );
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let line = line_for(&stdout, 1).expect("query response");
    assert!(
        line.contains("\"ok\":true") && line.contains("\"partial\":true"),
        "degraded policy must answer (partially) instead of failing: {line}"
    );
    let stats = line_for(&stdout, 2).expect("stats response");
    assert!(stats.contains("\"status\":\"partial\""), "{stats}");
}

#[test]
fn sigterm_stops_admission_and_drains_with_exit_0() {
    let port_file =
        std::env::temp_dir().join(format!("pta-serve-sigterm-{}.port", std::process::id()));
    let _ = std::fs::remove_file(&port_file);
    let child = pta()
        .arg("serve")
        .args(WORKLOAD)
        .args(["--port", "0", "--no-stdin", "--port-file"])
        .arg(&port_file)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn pta serve");

    // Wait for the daemon to publish its bound port, then prove it is
    // live over TCP before signalling.
    let deadline = Instant::now() + Duration::from_secs(60);
    let port: u16 = loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if let Ok(p) = text.trim().parse() {
                break p;
            }
        }
        assert!(Instant::now() < deadline, "port file never appeared");
        std::thread::sleep(Duration::from_millis(20));
    };
    let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer
        .write_all(b"{\"id\":1,\"op\":\"points_to\",\"var\":\"r\"}\n")
        .unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    assert!(line.contains("\"ok\":true"), "{line}");

    // std's Child::kill is SIGKILL; shell out for a graceful SIGTERM.
    let killed = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("spawn kill");
    assert!(killed.success(), "kill -TERM failed");
    let out = wait_with_deadline(child, Duration::from_secs(60));
    assert_eq!(
        out.status.code(),
        Some(0),
        "SIGTERM with an idle queue must drain cleanly: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_file(&port_file);
}

#[test]
fn startup_errors_are_structured_and_exit_2() {
    // Unknown workload name.
    let out = pta()
        .args(["serve", "--workload", "nosuch:1.0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("error[E030]"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Unreadable program file.
    let out = pta()
        .args(["serve", "/nonexistent/daemon.jir"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("error[E031]"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // TCP-only with no TCP is a refused combination.
    let out = pta()
        .args(["serve", "--workload", "antlr:0.1", "--no-stdin"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

/// A closed-loop client pays the daemon's reply latency once per query.
/// Forty queries on one TCP connection, one outstanding at a time, must
/// finish well inside a second: a reply whose newline trails in a second
/// small write waits for the client's delayed ACK (about 40 ms each,
/// 1.8 s in all). Every reply is one line with exactly one newline.
#[test]
fn sequential_tcp_queries_answer_without_an_ack_stall() {
    let handle = launch(ServeConfig {
        sources: vec![ProgramSource::parse_workload("luindex:0.3").unwrap()],
        policies: vec!["insens".into()],
        port: Some(0),
        use_stdin: false,
        ..ServeConfig::default()
    })
    .expect("launch daemon");
    let stream = TcpStream::connect(("127.0.0.1", handle.port.expect("TCP port"))).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let queries = [
        "\"op\":\"points_to\",\"var\":\"r\"",
        "\"op\":\"devirt\",\"invo\":0",
        "\"op\":\"findings\",\"var\":\"r\"",
        "\"op\":\"cast_check\",\"method\":\"No.method\",\"instr\":0",
    ];
    let started = Instant::now();
    for id in 1..=40u64 {
        let query = queries[id as usize % queries.len()];
        writer
            .write_all(format!("{{\"id\":{id},{query}}}\n").as_bytes())
            .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        // A stray second newline would surface as the next line's start.
        assert!(line.starts_with(&format!("{{\"id\":{id},")), "{line:?}");
        assert!(line.ends_with("}\n"), "{line:?}");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "40 sequential queries took {elapsed:?}"
    );
    writer
        .write_all(b"{\"id\":99,\"op\":\"shutdown\"}\n")
        .unwrap();
    let mut ack = String::new();
    reader.read_line(&mut ack).unwrap();
    assert_eq!(handle.wait(), 0, "clean drain after shutdown op");
}

fn query(id: u64, op: Op) -> Request {
    Request {
        id,
        op,
        program: None,
        policy: None,
        deadline_ms: None,
    }
}

fn answer_unlimited(resident: &Resident, op: Op) -> String {
    answer(&query(1, op), resident, &mut ReqCtx::unlimited())
}

/// What the linear scans the name index replaced would return: every
/// variable of each name in arena order, and the first method in arena
/// order of each qualified name.
fn scan_names(p: &pta_ir::Program) -> (HashMap<String, Vec<VarId>>, HashMap<String, MethodId>) {
    let mut vars: HashMap<String, Vec<VarId>> = HashMap::new();
    for v in p.vars() {
        vars.entry(p.var_name(v).to_owned()).or_default().push(v);
    }
    let mut methods = HashMap::new();
    for m in p.methods() {
        methods.entry(p.method_qualified_name(m)).or_insert(m);
    }
    (vars, methods)
}

/// The name index answers exactly what a scan over every variable or
/// method does, including for names it does not hold; it is rebuilt on
/// `update`; and a spent step budget still answers `budget_exhausted`
/// ahead of any lookup.
#[test]
fn name_index_agrees_with_a_linear_scan() {
    let mut resident = Resident::build(
        &[ProgramSource::parse_workload("luindex:0.3").unwrap()],
        &["insens".into()],
        &SolveConfig::default(),
    )
    .unwrap();
    let rp = &resident.programs[0];
    let p = &rp.program;
    let (vars, methods) = scan_names(p);
    for (name, scanned) in &vars {
        assert_eq!(rp.vars_named(name), scanned.as_slice(), "variable {name}");
    }
    for (name, &scanned) in &methods {
        assert_eq!(rp.method_named(name), Some(scanned), "method {name}");
        // Near misses of a real name are not found.
        for miss in [format!("{name}x"), name[..name.len() - 1].to_owned()] {
            if !methods.contains_key(&miss) {
                assert_eq!(rp.method_named(&miss), None, "method {miss}");
            }
        }
    }
    // Responses name each binding's method exactly as the program does.
    for (name, scanned) in &vars {
        let line = answer_unlimited(&resident, Op::PointsTo { var: name.clone() });
        let v = parse(&line).unwrap();
        let Some(Value::Array(bindings)) = v.get("bindings") else {
            panic!("no bindings: {line}");
        };
        let named: Vec<&str> = bindings
            .iter()
            .map(|b| b.get("method").and_then(Value::as_str).unwrap())
            .collect();
        let want: Vec<String> = scanned
            .iter()
            .map(|&v| p.method_qualified_name(p.var_method(v)))
            .collect();
        assert_eq!(named, want, "{line}");
    }

    for (op, code) in [
        (
            Op::PointsTo {
                var: "no_such_var".into(),
            },
            "unknown_var",
        ),
        (
            Op::Findings {
                var: "no_such_var".into(),
            },
            "unknown_var",
        ),
        (
            Op::CastCheck {
                method: "No.method".into(),
                instr: 0,
            },
            "unknown_cast",
        ),
    ] {
        let line = answer_unlimited(&resident, op.clone());
        assert!(line.contains(&format!("\"error\":\"{code}\"")), "{line}");
        // A zero step budget trips before the lookup, known name or not.
        let known = match op {
            Op::PointsTo { .. } => Op::PointsTo { var: "r".into() },
            Op::Findings { .. } => Op::Findings { var: "r".into() },
            _ => Op::CastCheck {
                method: methods.keys().next().unwrap().clone(),
                instr: 0,
            },
        };
        for op in [op, known] {
            let mut ctx = ReqCtx::new(CancelToken::new(), None, Some(0));
            let line = answer(&query(2, op), &resident, &mut ctx);
            assert!(line.contains("\"error\":\"budget_exhausted\""), "{line}");
        }
    }

    // An update that adds a variable must be visible to the next query:
    // a stale index would answer `unknown_var`.
    let entry = p.entry_points()[0];
    let edits = vec![EditSpec::Alloc {
        method: p.method_qualified_name(entry),
        to: "fresh_upd".into(),
        class: p.type_name(p.method_declaring(entry)).to_owned(),
        label: "upd_h0".into(),
    }];
    resident
        .update(None, &edits, &SolveConfig::default())
        .unwrap();
    let line = answer_unlimited(
        &resident,
        Op::PointsTo {
            var: "fresh_upd".into(),
        },
    );
    assert!(
        line.contains("\"ok\":true") && line.contains("\"heaps\":[\"upd_h0\"]"),
        "{line}"
    );
    let rp = &resident.programs[0];
    let (vars, _) = scan_names(&rp.program);
    for (name, scanned) in &vars {
        assert_eq!(rp.vars_named(name), scanned.as_slice(), "variable {name}");
    }
}
