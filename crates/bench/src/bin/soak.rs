//! `soak` — deterministic fault-injection soak test for `pta serve`.
//!
//! Launches the daemon in-process (TCP only, OS-assigned port), replays a
//! seeded stream of mixed queries from several concurrent connections, and
//! checks the three robustness properties the serve design promises:
//!
//! 1. **Zero hangs** — every request gets exactly one response line before
//!    a per-read timeout; the daemon then drains cleanly (exit 0).
//! 2. **Zero wrong answers** — every response is byte-identical to a fresh
//!    batch oracle: the driver builds its own `Resident` from the same
//!    config and computes each expected line with the same pure
//!    [`pta_serve::answer`] evaluator. Faulted requests are predictable
//!    too, because the injector decides from `(seed, request id)` alone:
//!    a `cancel` fault *must* produce the `cancelled` error line, `exhaust`
//!    the `budget_exhausted` line, `garble` the `!garble <id>` line, and
//!    `delay` the normal answer (late, not different).
//! 3. **Bounded cancellation latency** — cancel-faulted requests turn
//!    around inside a generous wall-clock bound instead of wedging a
//!    worker.
//!
//! It also measures the client-observed latency distribution in the
//! shared fixed-bucket histogram from `pta-obs` (p50/p95/p99 are bucket
//! upper bounds), pulls the daemon's own metrics via the `metrics` op,
//! cross-checks the request counters against the planned stream, and
//! folds the counter section of the Prometheus exposition into a
//! digest. Counters are commutative sums of per-request increments
//! decided by `(seed, id)` alone, so the digest is byte-identical
//! across reruns — `BENCH_serve.json` pins it.
//!
//! Usage: `soak [--requests N] [--seed S] [--fault-rate R]
//! [--workers N] [--connections N] [--workload NAME:SCALE]
//! [--json FILE]`. Exits 0 on a clean pass, 1 with a report on any
//! violation.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pta_govern::CancelToken;
use pta_ir::rng::Rng;
use pta_ir::Instr;
use pta_obs::{Metrics, LATENCY_BUCKETS_US};
use pta_serve::json::Value;
use pta_serve::{
    answer, garble_line, launch, FaultInjector, FaultKind, ProgramSource, ReqCtx, Request,
    Resident, ServeConfig,
};

/// The soak exercises the same allocator configuration as the real binary
/// so the daemon's `resident_bytes`/`request_peak_bytes` stats are live.
#[global_allocator]
static ALLOC: pta_govern::memtrack::CountingAlloc = pta_govern::memtrack::CountingAlloc;

/// Per-read timeout: a response taking longer than this counts as a hang.
const READ_TIMEOUT: Duration = Duration::from_secs(60);
/// Outstanding-request window per connection. Small enough that total
/// outstanding work stays below the queue capacity (so nothing sheds and
/// every response is oracle-predictable), large enough to keep all
/// workers busy.
const WINDOW: usize = 8;
/// Wall-clock bound on the turnaround of a cancel-faulted request.
const CANCEL_LATENCY_BOUND: Duration = Duration::from_secs(10);

struct Args {
    requests: u64,
    seed: u64,
    fault_rate: f64,
    workers: usize,
    connections: usize,
    workload: String,
    json_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        requests: 500,
        seed: 42,
        fault_rate: 0.02,
        workers: 4,
        connections: 4,
        workload: "luindex:0.3".to_string(),
        json_out: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let need = |j: usize| -> Result<&String, String> {
            argv.get(j)
                .ok_or_else(|| format!("{} needs a value", argv[j - 1]))
        };
        match argv[i].as_str() {
            "--requests" => a.requests = need(i + 1)?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => a.seed = need(i + 1)?.parse().map_err(|e| format!("{e}"))?,
            "--fault-rate" => a.fault_rate = need(i + 1)?.parse().map_err(|e| format!("{e}"))?,
            "--workers" => a.workers = need(i + 1)?.parse().map_err(|e| format!("{e}"))?,
            "--connections" => a.connections = need(i + 1)?.parse().map_err(|e| format!("{e}"))?,
            "--workload" => a.workload = need(i + 1)?.clone(),
            "--json" => a.json_out = Some(need(i + 1)?.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    if a.requests == 0 || a.connections == 0 {
        return Err("--requests and --connections must be positive".into());
    }
    Ok(a)
}

/// One generated request: the wire line, the parsed form for the oracle,
/// and the injector's (deterministic) decision for its id.
struct Planned {
    line: String,
    fault: Option<FaultKind>,
}

/// Builds the seeded request mix. Ops cycle through the four query kinds
/// with valid targets drawn from the program and a sprinkling of invalid
/// ones (which must answer structured errors, also byte-predictable).
fn plan_requests(args: &Args, resident: &Resident, injector: &FaultInjector) -> Vec<Planned> {
    let rp = &resident.programs[0];
    let program = &rp.program;
    let mut rng = Rng::seed_from_u64(args.seed ^ 0x5eed_50a1);

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

    let policies = ["insens", "2obj+H"];
    let mut planned = Vec::with_capacity(args.requests as usize);
    for id in 1..=args.requests {
        let policy = if rng.gen_bool(0.2) {
            None // exercise the default-policy path
        } else {
            Some(policies[rng.gen_range(0..policies.len() as u64) as usize])
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

/// Computes the oracle's expected response bytes for one planned request,
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
/// `# TYPE ... counter` header and its series lines, in registry
/// order). Counters are deterministic sums of per-request increments
/// decided by `(seed, id)`, so this digest is rerun-stable; latency
/// histograms and point-in-time gauges are excluded by construction.
fn digest_counters(prom: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut absorb = |line: &str| {
        for &b in line.as_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash ^= u64::from(b'\n');
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
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

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("soak: {e}");
            return ExitCode::from(2);
        }
    };
    let injector = FaultInjector {
        rate: args.fault_rate,
        kinds: vec![
            FaultKind::Delay,
            FaultKind::Cancel,
            FaultKind::Exhaust,
            FaultKind::Garble,
        ],
        seed: args.seed,
    };
    let sources = match ProgramSource::parse_workload(&args.workload) {
        Ok(s) => vec![s],
        Err(e) => {
            eprintln!("soak: --workload: {e}");
            return ExitCode::from(2);
        }
    };
    let policies = vec!["insens".to_string(), "2obj+H".to_string()];
    let solve = pta_serve::SolveConfig::default();

    eprintln!(
        "soak: {} requests, seed {}, fault rate {}, {} connections -> {} workers",
        args.requests, args.seed, args.fault_rate, args.connections, args.workers
    );

    // The oracle: an independent Resident from the same config. Startup
    // solves are deterministic, so the daemon's copy answers identically.
    let t0 = Instant::now();
    let oracle = match Resident::build(&sources, &policies, &solve) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("soak: oracle build failed: {e}");
            return ExitCode::from(2);
        }
    };
    let planned = plan_requests(&args, &oracle, &injector);
    let expected: HashMap<u64, String> = planned
        .iter()
        .enumerate()
        .map(|(i, p)| (i as u64 + 1, expected_line(p, &oracle)))
        .collect();
    let predicted_faults = planned.iter().filter(|p| p.fault.is_some()).count();
    eprintln!(
        "soak: oracle ready in {:.1?} ({} faults predicted)",
        t0.elapsed(),
        predicted_faults
    );

    let handle = match launch(ServeConfig {
        sources,
        policies,
        solve,
        workers: args.workers,
        queue_capacity: args.connections * WINDOW + args.workers + 8,
        port: Some(0),
        use_stdin: false,
        faults: Some(injector),
        ..ServeConfig::default()
    }) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("soak: launch failed: {e}");
            return ExitCode::from(2);
        }
    };
    let port = handle.port.expect("TCP was requested");

    // Replay: each connection owns a round-robin slice of the stream and
    // keeps up to WINDOW requests outstanding, matching responses by id.
    let mismatches = Arc::new(AtomicU64::new(0));
    let hangs = Arc::new(AtomicU64::new(0));
    let max_latency_us = Arc::new(AtomicU64::new(0));
    let max_cancel_latency_us = Arc::new(AtomicU64::new(0));
    // Client-observed latency distribution, in the same fixed buckets
    // the daemon uses for `pta_request_latency_us`.
    let client_metrics = Metrics::enabled();
    let latency_hist = client_metrics.histogram("soak_request_latency_us", &[], LATENCY_BUCKETS_US);
    let expected = Arc::new(expected);
    let cancel_ids: Arc<Vec<u64>> = Arc::new(
        planned
            .iter()
            .enumerate()
            .filter(|(_, p)| p.fault == Some(FaultKind::Cancel))
            .map(|(i, _)| i as u64 + 1)
            .collect(),
    );
    let lines: Arc<Vec<String>> = Arc::new(planned.into_iter().map(|p| p.line).collect());

    let replay_start = Instant::now();
    let mut clients = Vec::new();
    for c in 0..args.connections {
        let lines = Arc::clone(&lines);
        let expected = Arc::clone(&expected);
        let mismatches = Arc::clone(&mismatches);
        let hangs = Arc::clone(&hangs);
        let max_latency_us = Arc::clone(&max_latency_us);
        let max_cancel_latency_us = Arc::clone(&max_cancel_latency_us);
        let cancel_ids = Arc::clone(&cancel_ids);
        let latency_hist = latency_hist.clone();
        let connections = args.connections;
        clients.push(std::thread::spawn(move || {
            let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
            stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
            stream.set_nodelay(true).ok();
            let mut writer = stream.try_clone().expect("clone stream");
            let mut reader = BufReader::new(stream);
            let mine: Vec<usize> = (0..lines.len()).skip(c).step_by(connections).collect();
            let mut sent_at: HashMap<u64, Instant> = HashMap::new();
            let mut next = 0usize;
            let mut received = 0usize;
            while received < mine.len() {
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
                    Ok(0) => panic!("connection closed with {received}/{} answered", mine.len()),
                    Ok(_) => {}
                    Err(e) => {
                        eprintln!("soak: HANG: read timed out/failed on conn {c}: {e}");
                        hangs.fetch_add(1, Ordering::SeqCst);
                        return;
                    }
                }
                let line = line.trim_end_matches('\n');
                let Some(id) = response_id(line) else {
                    eprintln!("soak: MISMATCH: uncorrelatable response {line:?}");
                    mismatches.fetch_add(1, Ordering::SeqCst);
                    received += 1;
                    continue;
                };
                let latency = sent_at.remove(&id).map_or(Duration::ZERO, |t| t.elapsed());
                let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
                max_latency_us.fetch_max(us, Ordering::SeqCst);
                latency_hist.observe(us);
                if cancel_ids.contains(&id) {
                    max_cancel_latency_us.fetch_max(us, Ordering::SeqCst);
                }
                received += 1;
                match expected.get(&id) {
                    Some(want) if want == line => {}
                    Some(want) => {
                        eprintln!("soak: MISMATCH id {id}:\n  want: {want}\n  got:  {line}");
                        mismatches.fetch_add(1, Ordering::SeqCst);
                    }
                    None => {
                        eprintln!("soak: MISMATCH: unexpected response id {id}: {line}");
                        mismatches.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
        }));
    }
    for cthread in clients {
        if cthread.join().is_err() {
            hangs.fetch_add(1, Ordering::SeqCst);
        }
    }
    let replay_elapsed = replay_start.elapsed();

    // Pull the daemon's own accounting before shutting it down.
    let stats = control_request(port, "{\"id\":0,\"op\":\"stats\"}");
    let metrics_reply = control_request(port, "{\"id\":0,\"op\":\"metrics\"}");
    let prometheus = pta_serve::json::parse(&metrics_reply)
        .ok()
        .and_then(|v| match v.get("prometheus") {
            Some(Value::String(s)) => Some(s.clone()),
            _ => None,
        })
        .unwrap_or_default();
    let digest = digest_counters(&prometheus);

    handle.request_shutdown();
    let exit = handle.wait();

    let n_mismatch = mismatches.load(Ordering::SeqCst);
    let n_hangs = hangs.load(Ordering::SeqCst);
    let max_lat = Duration::from_micros(max_latency_us.load(Ordering::SeqCst));
    let max_cancel_lat = Duration::from_micros(max_cancel_latency_us.load(Ordering::SeqCst));
    let (p50, p95, p99) = (
        latency_hist.quantile(0.50),
        latency_hist.quantile(0.95),
        latency_hist.quantile(0.99),
    );
    println!(
        "soak: {} requests in {:.1?} | faults {} | max latency {:.1?} | max cancel latency {:.1?}",
        args.requests, replay_elapsed, predicted_faults, max_lat, max_cancel_lat
    );
    println!("soak: latency p50 <= {p50}us, p95 <= {p95}us, p99 <= {p99}us (bucket upper bounds)");
    println!("soak: metrics digest {digest}");
    println!("soak: daemon stats: {stats}");

    let mut failed = false;
    // Cross-check: the daemon's own request counters must account for
    // exactly the planned query stream (plus the stats + metrics pulls
    // this driver makes, counted under their own op labels).
    let counted: u64 = ["points_to", "findings", "devirt", "cast_check"]
        .iter()
        .map(|op| {
            prom_value(&prometheus, &format!("pta_requests_total{{op=\"{op}\"}}")).unwrap_or(0)
        })
        .sum();
    if counted != args.requests {
        println!(
            "soak: FAIL: daemon query counters sum to {counted}, want {} requests",
            args.requests
        );
        failed = true;
    }
    if prom_value(&prometheus, "pta_requests_shed_total").unwrap_or(0) != 0 {
        println!("soak: FAIL: requests were shed; the window should keep the queue under capacity");
        failed = true;
    }
    let hist_count = prom_value(
        &prometheus,
        "pta_request_latency_us_count{op=\"points_to\"}",
    );
    if hist_count.is_none_or(|n| n == 0) {
        println!("soak: FAIL: daemon latency histogram recorded no points_to observations");
        failed = true;
    }
    if n_hangs > 0 {
        println!("soak: FAIL: {n_hangs} hang(s)");
        failed = true;
    }
    if n_mismatch > 0 {
        println!("soak: FAIL: {n_mismatch} response(s) differed from the oracle");
        failed = true;
    }
    if !cancel_ids.is_empty() && max_cancel_lat > CANCEL_LATENCY_BOUND {
        println!(
            "soak: FAIL: cancel latency {max_cancel_lat:.1?} exceeds bound {CANCEL_LATENCY_BOUND:?}"
        );
        failed = true;
    }
    if exit != 0 {
        println!("soak: FAIL: daemon drain exited {exit}, want 0");
        failed = true;
    }
    if !stats.contains(&format!("\"served\":{}", args.requests)) {
        println!(
            "soak: FAIL: daemon served-count disagrees with {} requests: {stats}",
            args.requests
        );
        failed = true;
    }
    if let Some(path) = &args.json_out {
        let row = format!(
            "[\n  {{\"schema_version\":1,\"driver\":\"soak\",\"workload\":\"{}\",\"requests\":{},\"seed\":{},\"fault_rate\":{},\"workers\":{},\"connections\":{},\"faults\":{},\"replay_ms\":{},\"p50_us\":{p50},\"p95_us\":{p95},\"p99_us\":{p99},\"max_us\":{},\"metrics_digest\":\"{digest}\",\"passed\":{}}}\n]\n",
            args.workload,
            args.requests,
            args.seed,
            args.fault_rate,
            args.workers,
            args.connections,
            predicted_faults,
            replay_elapsed.as_millis(),
            max_latency_us.load(Ordering::SeqCst),
            !failed
        );
        if let Err(e) = std::fs::write(path, row) {
            eprintln!("soak: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("soak: PASS");
        ExitCode::SUCCESS
    }
}
