//! Daemon vs. batch under injected faults: the seeded soak oracle.
//!
//! Launches the daemon in-process (TCP only, OS-assigned port), replays a
//! seeded stream of 500 mixed queries from four concurrent connections
//! with 2% of requests faulted, and checks the robustness properties the
//! serve design promises:
//!
//! 1. **Zero wrong answers** — every response is byte-identical to an
//!    oracle [`Resident`] built from the same config, evaluated with the
//!    same pure [`answer`] function. Faulted requests are predictable
//!    too, because the injector decides from `(seed, request id)` alone:
//!    a `cancel` fault *must* produce the `cancelled` error line,
//!    `exhaust` the `budget_exhausted` line, `garble` the `!garble <id>`
//!    line, and `delay` the normal answer (late, not different).
//! 2. **Zero hangs** — every request gets exactly one response line
//!    within the per-read timeout, and the daemon then drains with exit 0.
//! 3. **Bounded cancellation** — cancel-faulted requests turn around
//!    inside a generous wall-clock bound instead of wedging a worker.
//! 4. **Exact accounting** — the daemon's own request counters sum to the
//!    planned stream, nothing is shed, and the counter section of its
//!    Prometheus exposition folds to a pinned digest. Counters are
//!    commutative sums of per-request increments decided by `(seed, id)`,
//!    so the digest is identical on every run; a change means the
//!    telemetry or the request lifecycle changed observably.
//!
//! Latency is not measured here; the benchmark's serve workloads own it.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pta_govern::CancelToken;
use pta_ir::rng::Rng;
use pta_ir::Instr;
use pta_serve::json::Value;
use pta_serve::{
    answer, garble_line, launch, FaultInjector, FaultKind, ProgramSource, ReqCtx, Request,
    Resident, ServeConfig, SolveConfig,
};

/// The same allocator configuration as the `pta` binary, so the daemon's
/// `resident_bytes`/`request_peak_bytes` stats are live.
#[global_allocator]
static ALLOC: pta_govern::memtrack::CountingAlloc = pta_govern::memtrack::CountingAlloc;

const WORKLOAD: &str = "luindex:0.3";
const POLICIES: [&str; 2] = ["insens", "2obj+H"];
const REQUESTS: u64 = 500;
const SEED: u64 = 42;
const FAULT_RATE: f64 = 0.02;
const WORKERS: usize = 4;
const CONNECTIONS: usize = 4;
/// Outstanding-request window per connection. Small enough that total
/// outstanding work stays below the queue capacity (so nothing sheds and
/// every response is oracle-predictable), large enough to keep all
/// workers busy.
const WINDOW: usize = 8;
const QUEUE_CAPACITY: usize = CONNECTIONS * WINDOW + WORKERS + 8;
/// Per-read timeout: a response taking longer than this counts as a hang.
const READ_TIMEOUT: Duration = Duration::from_secs(60);
/// Wall-clock bound on the turnaround of a cancel-faulted request.
const CANCEL_LATENCY_BOUND: Duration = Duration::from_secs(10);
/// FNV-1a digest of the exposition's counter sections after this stream.
/// Update it only with a change that alters the counters on purpose, and
/// say why in CHANGES.md.
const COUNTER_DIGEST: &str = "a2ddb9d22425c35c";

/// One generated request: the wire line and the injector's
/// (deterministic) decision for its id.
struct Planned {
    line: String,
    fault: Option<FaultKind>,
}

/// Builds the seeded request mix. Ops cycle through the four query kinds
/// with valid targets drawn from the program and a sprinkling of invalid
/// ones (which must answer structured errors, also byte-predictable).
fn plan_requests(resident: &Resident, injector: &FaultInjector) -> Vec<Planned> {
    let rp = &resident.programs[0];
    let program = &rp.program;
    let mut rng = Rng::seed_from_u64(SEED ^ 0x5eed_50a1);

    // Target pools, all in deterministic arena order.
    let mut var_names: Vec<String> = Vec::new();
    for v in program.vars() {
        let name = program.var_name(v);
        if var_names.len() < 256 && !var_names.iter().any(|n| n == name) {
            var_names.push(name.to_string());
        }
    }
    let invo_count = program.invo_count() as u64;
    let mut casts: Vec<(String, usize)> = Vec::new();
    for m in program.methods() {
        for (idx, instr) in program.instrs(m).iter().enumerate() {
            if matches!(instr, Instr::Cast { .. }) && casts.len() < 256 {
                casts.push((program.method_qualified_name(m), idx));
            }
        }
    }
    assert!(
        !var_names.is_empty() && invo_count > 0,
        "workload too small"
    );

    let mut planned = Vec::with_capacity(REQUESTS as usize);
    for id in 1..=REQUESTS {
        let policy = if rng.gen_bool(0.2) {
            None // exercise the default-policy path
        } else {
            Some(POLICIES[rng.gen_range(0..POLICIES.len() as u64) as usize])
        };
        let program_field = if rng.gen_bool(0.3) {
            Some(rp.name.clone())
        } else {
            None
        };
        let bogus = rng.gen_bool(0.1);
        let mut line = format!("{{\"id\":{id},\"op\":");
        match rng.gen_range(0..4u64) {
            0 | 3 => {
                let op = if rng.gen_bool(0.5) {
                    "points_to"
                } else {
                    "findings"
                };
                let var = if bogus {
                    format!("no_such_var_{id}")
                } else {
                    var_names[rng.gen_range(0..var_names.len() as u64) as usize].clone()
                };
                line.push_str(&format!("\"{op}\",\"var\":\"{var}\""));
            }
            1 => {
                let invo = if bogus {
                    invo_count + id
                } else {
                    rng.gen_range(0..invo_count)
                };
                line.push_str(&format!("\"devirt\",\"invo\":{invo}"));
            }
            _ => {
                if bogus || casts.is_empty() {
                    line.push_str("\"cast_check\",\"method\":\"No.method\",\"instr\":0");
                } else {
                    let (m, idx) = &casts[rng.gen_range(0..casts.len() as u64) as usize];
                    line.push_str(&format!(
                        "\"cast_check\",\"method\":\"{m}\",\"instr\":{idx}"
                    ));
                }
            }
        }
        if let Some(p) = policy {
            line.push_str(&format!(",\"policy\":\"{p}\""));
        }
        if let Some(p) = &program_field {
            line.push_str(&format!(",\"program\":\"{p}\""));
        }
        line.push('}');
        planned.push(Planned {
            line,
            fault: injector.decide(id),
        });
    }
    planned
}

/// The oracle's expected response bytes for one planned request,
/// replaying the injector's decision through the same evaluator the
/// daemon uses.
fn expected_line(p: &Planned, resident: &Resident) -> String {
    let req: Request = pta_serve::parse_request(&p.line).expect("planned lines are well-formed");
    match p.fault {
        Some(FaultKind::Garble) => garble_line(req.id),
        Some(FaultKind::Cancel) => {
            let cancel = CancelToken::new();
            cancel.cancel();
            answer(&req, resident, &mut ReqCtx::new(cancel, None, None))
        }
        Some(FaultKind::Exhaust) => answer(
            &req,
            resident,
            &mut ReqCtx::new(CancelToken::new(), None, Some(0)),
        ),
        // A delay changes when the answer arrives, never what it says.
        Some(FaultKind::Delay) | None => answer(&req, resident, &mut ReqCtx::unlimited()),
    }
}

/// Sends one control request on a fresh connection and returns the
/// single response line.
fn control_request(port: u16, line: &str) -> String {
    let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect for control op");
    stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut out = String::new();
    reader.read_line(&mut out).unwrap();
    out.trim_end().to_string()
}

/// FNV-1a over the counter sections of a Prometheus exposition (the
/// `# TYPE ... counter` header and its series lines, in registry order).
/// Latency histograms and point-in-time gauges are excluded by
/// construction, so the digest does not depend on timing.
fn digest_counters(prom: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut absorb = |line: &str| {
        for &b in line.as_bytes().iter().chain(b"\n") {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut counting = false;
    for line in prom.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            counting = rest.ends_with(" counter");
        }
        if counting {
            absorb(line);
        }
    }
    format!("{hash:016x}")
}

/// The value of one exposition series, e.g.
/// `prom_value(text, "pta_requests_total{op=\"devirt\"}")`.
fn prom_value(prom: &str, series: &str) -> Option<u64> {
    prom.lines().find_map(|l| {
        l.strip_prefix(series)
            .and_then(|rest| rest.trim().parse().ok())
    })
}

/// Pulls the request id back out of a response line (normal responses
/// carry `"id":N`, garbled ones are `!garble N`).
fn response_id(line: &str) -> Option<u64> {
    if let Some(rest) = line.strip_prefix("!garble ") {
        return rest.trim().parse().ok();
    }
    let at = line.find("\"id\":")? + 5;
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Replays one connection's round-robin slice of the stream, keeping up
/// to [`WINDOW`] requests outstanding and matching responses by id.
/// Returns the slowest cancel-faulted turnaround seen, in microseconds.
fn replay_connection(
    conn: usize,
    port: u16,
    lines: &[String],
    expected: &HashMap<u64, String>,
    cancel_ids: &[u64],
    problems: &Mutex<Vec<String>>,
) -> u64 {
    let report = |msg: String| problems.lock().unwrap().push(msg);
    let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mine: Vec<usize> = (0..lines.len()).skip(conn).step_by(CONNECTIONS).collect();
    let mut sent_at: HashMap<u64, Instant> = HashMap::new();
    let mut max_cancel_us = 0;
    let mut next = 0;
    for received in 0..mine.len() {
        while next < mine.len() && sent_at.len() < WINDOW {
            let idx = mine[next];
            sent_at.insert(idx as u64 + 1, Instant::now());
            writer
                .write_all(format!("{}\n", lines[idx]).as_bytes())
                .expect("write request");
            next += 1;
        }
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => {
                report(format!(
                    "HANG: conn {conn} closed with {received}/{} answered",
                    mine.len()
                ));
                return max_cancel_us;
            }
            Ok(_) => {}
            Err(e) => {
                report(format!("HANG: read timed out/failed on conn {conn}: {e}"));
                return max_cancel_us;
            }
        }
        let line = line.trim_end_matches('\n');
        let Some(id) = response_id(line) else {
            report(format!("MISMATCH: uncorrelatable response {line:?}"));
            continue;
        };
        let latency = sent_at.remove(&id).map_or(Duration::ZERO, |t| t.elapsed());
        if cancel_ids.contains(&id) {
            let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
            max_cancel_us = max_cancel_us.max(us);
        }
        match expected.get(&id) {
            Some(want) if want == line => {}
            Some(want) => report(format!("MISMATCH id {id}:\n  want: {want}\n  got:  {line}")),
            None => report(format!("MISMATCH: unexpected response id {id}: {line}")),
        }
    }
    max_cancel_us
}

#[test]
fn daemon_matches_the_batch_oracle_under_injected_faults() {
    let injector = FaultInjector {
        rate: FAULT_RATE,
        kinds: vec![
            FaultKind::Delay,
            FaultKind::Cancel,
            FaultKind::Exhaust,
            FaultKind::Garble,
        ],
        seed: SEED,
    };
    let sources = vec![ProgramSource::parse_workload(WORKLOAD).unwrap()];
    let policies: Vec<String> = POLICIES.iter().map(|p| p.to_string()).collect();
    let solve = SolveConfig::default();

    // The oracle: an independent Resident from the same config. Startup
    // solves are deterministic, so the daemon's copy answers identically.
    let oracle = Resident::build(&sources, &policies, &solve).expect("oracle build");
    let planned = plan_requests(&oracle, &injector);
    let expected: HashMap<u64, String> = planned
        .iter()
        .enumerate()
        .map(|(i, p)| (i as u64 + 1, expected_line(p, &oracle)))
        .collect();
    let cancel_ids: Vec<u64> = planned
        .iter()
        .enumerate()
        .filter(|(_, p)| p.fault == Some(FaultKind::Cancel))
        .map(|(i, _)| i as u64 + 1)
        .collect();
    let lines: Vec<String> = planned.into_iter().map(|p| p.line).collect();

    let handle = launch(ServeConfig {
        sources,
        policies,
        solve,
        workers: WORKERS,
        queue_capacity: QUEUE_CAPACITY,
        port: Some(0),
        use_stdin: false,
        faults: Some(injector),
        ..ServeConfig::default()
    })
    .expect("launch daemon");
    let port = handle.port.expect("TCP was requested");

    let problems = Mutex::new(Vec::new());
    let max_cancel_us = AtomicU64::new(0);
    std::thread::scope(|s| {
        for conn in 0..CONNECTIONS {
            let (lines, expected, cancel_ids) = (&lines, &expected, &cancel_ids);
            let (problems, max_cancel_us) = (&problems, &max_cancel_us);
            s.spawn(move || {
                let us = replay_connection(conn, port, lines, expected, cancel_ids, problems);
                max_cancel_us.fetch_max(us, Ordering::SeqCst);
            });
        }
    });

    // Pull the daemon's own accounting before shutting it down.
    let stats = control_request(port, "{\"id\":0,\"op\":\"stats\"}");
    let metrics_reply = control_request(port, "{\"id\":0,\"op\":\"metrics\"}");
    let prometheus = match pta_serve::json::parse(&metrics_reply)
        .ok()
        .and_then(|v| v.get("prometheus").cloned())
    {
        Some(Value::String(s)) => s,
        other => panic!("metrics reply carries no exposition ({other:?}): {metrics_reply}"),
    };
    handle.request_shutdown();
    let exit = handle.wait();

    let problems = problems.into_inner().unwrap();
    assert!(
        problems.is_empty(),
        "{} response problem(s):\n{}",
        problems.len(),
        problems.join("\n")
    );
    assert_eq!(exit, 0, "daemon drain must exit 0");

    let max_cancel = Duration::from_micros(max_cancel_us.into_inner());
    assert!(!cancel_ids.is_empty(), "the stream must fault a cancel");
    assert!(
        max_cancel <= CANCEL_LATENCY_BOUND,
        "cancel turnaround {max_cancel:?} exceeds {CANCEL_LATENCY_BOUND:?}"
    );

    // The daemon's request counters must account for exactly the planned
    // query stream (the stats and metrics pulls count under their own op
    // labels).
    let counted: u64 = ["points_to", "findings", "devirt", "cast_check"]
        .iter()
        .map(|op| {
            prom_value(&prometheus, &format!("pta_requests_total{{op=\"{op}\"}}")).unwrap_or(0)
        })
        .sum();
    assert_eq!(counted, REQUESTS, "per-op request counters");
    assert_eq!(
        prom_value(&prometheus, "pta_requests_shed_total").unwrap_or(0),
        0,
        "requests were shed; the window should keep the queue under capacity"
    );
    assert!(
        stats.contains(&format!("\"served\":{REQUESTS}")),
        "daemon served-count disagrees with {REQUESTS} requests: {stats}"
    );
    assert!(
        prom_value(
            &prometheus,
            "pta_request_latency_us_count{op=\"points_to\"}"
        )
        .is_some_and(|n| n > 0),
        "daemon latency histogram recorded no points_to observations"
    );
    assert_eq!(
        digest_counters(&prometheus),
        COUNTER_DIGEST,
        "counter digest drifted; exposition:\n{prometheus}"
    );
}
