//! The daemon workloads: `pta_serve::launch` in this process, driven over
//! TCP on 127.0.0.1 by a load generator of two connections, one thread
//! each. Every response is compared byte for byte with
//! `pta_serve::answer` on an oracle `Resident` built from the same
//! configuration; the oracle replays the same updates.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use pta_clients::{run_check, CheckSpec, ClientBackend};
use pta_ir::rng::Rng;
use pta_ir::Instr;
use pta_serve::{
    answer, launch, parse_request, Op, ProgramSource, ReqCtx, Resident, ServeConfig, ServerHandle,
    SolveConfig,
};

use crate::digest::{check_golden, hash_bytes};
use crate::{stats, Measured, Metric, Params, SETUP_REPS};

/// The policies the daemon serves (and the golden digests cover).
pub const POLICIES: [&str; 2] = ["insens", "2obj+H"];
const CONNECTIONS: usize = 2;
/// A response later than this counts as missing.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(5);
/// `serve-mixed` query rate (open loop) and update period.
const RATE_PER_S: f64 = 200.0;
const UPDATE_PERIOD: Duration = Duration::from_secs(1);

/// What requests can name, drawn from the oracle's program.
struct Targets {
    program: String,
    vars: Vec<String>,
    invos: u64,
    casts: Vec<(String, usize)>,
    methods: Vec<String>,
    classes: Vec<String>,
}

impl Targets {
    fn of(resident: &Resident) -> Targets {
        let rp = &resident.programs[0];
        let p = &rp.program;
        let mut vars: Vec<String> = Vec::new();
        for v in p.vars() {
            let name = p.var_name(v);
            if vars.len() < 256 && !vars.iter().any(|n| n == name) {
                vars.push(name.to_owned());
            }
        }
        let mut casts = Vec::new();
        for m in p.methods() {
            for (idx, instr) in p.instrs(m).iter().enumerate() {
                if matches!(instr, Instr::Cast { .. }) && casts.len() < 256 {
                    casts.push((p.method_qualified_name(m), idx));
                }
            }
        }
        Targets {
            program: rp.name.clone(),
            vars,
            invos: p.invo_count() as u64,
            casts,
            methods: p.methods().map(|m| p.method_qualified_name(m)).collect(),
            classes: p.types().map(|t| p.type_name(t).to_owned()).collect(),
        }
    }

    fn pick<'a>(rng: &mut Rng, from: &'a [String]) -> &'a str {
        &from[rng.gen_range(0..from.len())]
    }

    /// One query of the daemon soak's mix, without faults or invalid
    /// targets: points-to and findings by variable, devirtualization by
    /// call site, cast checks; sometimes naming the default policy or the
    /// program implicitly.
    fn query(&self, rng: &mut Rng, id: u64) -> String {
        let policy = if rng.gen_bool(0.2) {
            None
        } else {
            Some(POLICIES[rng.gen_range(0..POLICIES.len())])
        };
        let named = rng.gen_bool(0.3);
        let mut line = format!("{{\"id\":{id},\"op\":");
        match rng.gen_range(0..4u64) {
            1 => line.push_str(&format!(
                "\"devirt\",\"invo\":{}",
                rng.gen_range(0..self.invos)
            )),
            2 if !self.casts.is_empty() => {
                let (m, idx) = &self.casts[rng.gen_range(0..self.casts.len())];
                line.push_str(&format!(
                    "\"cast_check\",\"method\":\"{m}\",\"instr\":{idx}"
                ));
            }
            _ => {
                let op = if rng.gen_bool(0.5) {
                    "points_to"
                } else {
                    "findings"
                };
                let var = Targets::pick(rng, &self.vars);
                line.push_str(&format!("\"{op}\",\"var\":\"{var}\""));
            }
        }
        if let Some(p) = policy {
            line.push_str(&format!(",\"policy\":\"{p}\""));
        }
        if named {
            line.push_str(&format!(",\"program\":\"{}\"", self.program));
        }
        line.push('}');
        line
    }

    /// Update `k`: one allocation appended to a method, with names drawn
    /// from the program.
    fn update(&self, rng: &mut Rng, id: u64, k: u64) -> String {
        format!(
            "{{\"id\":{id},\"op\":\"update\",\"edits\":[{{\"edit\":\"alloc\",\"method\":\"{}\",\
             \"to\":\"bench_u{k}\",\"class\":\"{}\",\"label\":\"bench_h{k}\"}}]}}",
            Targets::pick(rng, &self.methods),
            Targets::pick(rng, &self.classes),
        )
    }
}

/// One line-oriented client connection.
struct Conn {
    stream: TcpStream,
    pending: Vec<u8>,
}

impl Conn {
    fn connect(port: u16) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            pending: Vec::new(),
        })
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.stream.write_all(format!("{line}\n").as_bytes())
    }

    /// Waits up to `timeout` for data and returns the complete lines
    /// received (possibly none).
    fn recv(&mut self, timeout: Duration) -> std::io::Result<Vec<String>> {
        self.stream
            .set_read_timeout(Some(timeout.max(Duration::from_micros(100))))?;
        let mut buf = [0u8; 1 << 16];
        match self.stream.read(&mut buf) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => self.pending.extend_from_slice(&buf[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(e),
        }
        let mut lines = Vec::new();
        while let Some(at) = self.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.pending.drain(..=at).collect();
            lines.push(String::from_utf8_lossy(&line[..at]).into_owned());
        }
        Ok(lines)
    }
}

/// The request id a response line echoes.
fn response_id(line: &str) -> Option<u64> {
    let rest = &line[line.find("\"id\":")? + 5..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// A response as the load generator keeps it: when it arrived, and its
/// length and hash, so the client's own heap stays small and does not
/// depend on the query mix. Update responses are kept whole.
struct Response {
    at: Instant,
    len: usize,
    hash: u64,
    text: Option<String>,
}

impl Response {
    fn new(at: Instant, line: String, keep: bool) -> Response {
        Response {
            at,
            len: line.len(),
            hash: hash_bytes(line.as_bytes()),
            text: keep.then_some(line),
        }
    }

    fn is(&self, want: &str) -> bool {
        self.len == want.len() && self.hash == hash_bytes(want.as_bytes())
    }
}

/// One request of the timed phase and its response.
struct Record {
    id: u64,
    conn: usize,
    line: String,
    update: bool,
    /// When the request was due (open loop) or sent (closed loop).
    due: Instant,
    sent: Instant,
    response: Option<Response>,
}

impl Record {
    fn latency_us(&self) -> Option<f64> {
        let at = self.response.as_ref()?.at;
        Some(at.duration_since(self.due).as_secs_f64() * 1e6)
    }
}

/// How one connection sends during the timed phase.
#[derive(Clone, Copy)]
enum Load {
    /// One outstanding request at a time, until the phase ends.
    Closed,
    /// Queries on a fixed schedule whatever the responses; connection 0
    /// also sends one update per [`UPDATE_PERIOD`].
    Open,
}

/// A connection's traffic: closed-loop warm-up until `start`, then the
/// timed phase of `seconds`. Returns the timed phase's requests.
fn drive(
    port: u16,
    conn: usize,
    seed: u64,
    targets: &Targets,
    start: Instant,
    seconds: f64,
    load: Load,
) -> std::io::Result<Vec<Record>> {
    let mut c = Conn::connect(port)?;
    // Ids are unique across connections, so failures and spans name one
    // request.
    let mut next_id = 1 + conn as u64 * 1_000_000_000;
    let mut warm = Rng::seed_from_u64(seed ^ 0x3a3a_0000 ^ conn as u64);
    while Instant::now() < start {
        let line = targets.query(&mut warm, next_id);
        next_id += 1;
        c.send(&line)?;
        let deadline = Instant::now() + RESPONSE_TIMEOUT;
        while c
            .recv(deadline.saturating_duration_since(Instant::now()))?
            .is_empty()
        {
            if Instant::now() >= deadline {
                return Err(ErrorKind::TimedOut.into());
            }
        }
    }
    let mut rng = Rng::seed_from_u64(seed ^ 0x5eed_50a1 ^ ((conn as u64) << 32));
    let end = start + Duration::from_secs_f64(seconds);
    let mut records: Vec<Record> = Vec::new();
    let mut outstanding: HashMap<u64, usize> = HashMap::new();
    let period = Duration::from_secs_f64(CONNECTIONS as f64 / RATE_PER_S);
    let mut next_query = start + Duration::from_secs_f64(conn as f64 / RATE_PER_S);
    let mut next_update = (conn == 0).then_some(start + UPDATE_PERIOD);
    let mut updates = 0u64;
    loop {
        let now = Instant::now();
        let due = match load {
            Load::Closed => (now < end && outstanding.is_empty()).then_some((now, false)),
            Load::Open => match next_update.filter(|u| *u < end && *u <= next_query) {
                Some(u) => Some((u, true)),
                None => (next_query < end).then_some((next_query, false)),
            },
        };
        if let Some((at, update)) = due.filter(|(at, _)| *at <= now) {
            let id = next_id;
            next_id += 1;
            let line = if update {
                updates += 1;
                next_update = Some(at + UPDATE_PERIOD);
                targets.update(&mut rng, id, updates)
            } else {
                next_query += period;
                targets.query(&mut rng, id)
            };
            let sent = Instant::now();
            c.send(&line)?;
            outstanding.insert(id, records.len());
            records.push(Record {
                id,
                conn,
                line,
                update,
                due: if matches!(load, Load::Closed) {
                    sent
                } else {
                    at
                },
                sent,
                response: None,
            });
            continue;
        }
        let oldest = outstanding.values().map(|&i| records[i].sent).min();
        if due.is_none() && oldest.is_none() {
            return Ok(records);
        }
        let give_up = oldest.map(|t| t + RESPONSE_TIMEOUT);
        if give_up.is_some_and(|t| now >= t) {
            return Ok(records); // the rest are missing
        }
        let wake = [due.map(|d| d.0), give_up].into_iter().flatten().min();
        let wait = wake.map_or(RESPONSE_TIMEOUT, |w| w.saturating_duration_since(now));
        for line in c.recv(wait)? {
            let at = Instant::now();
            if let Some(i) = response_id(&line).and_then(|id| outstanding.remove(&id)) {
                let keep = records[i].update;
                records[i].response = Some(Response::new(at, line, keep));
            }
        }
    }
}

/// Launches the daemon [`SETUP_REPS`] times (timing each launch as
/// set-up) and keeps the last one running.
fn launch_daemon(source: &ProgramSource, m: &mut Measured) -> Result<ServerHandle, String> {
    let config = ServeConfig {
        sources: vec![source.clone()],
        policies: POLICIES.iter().map(|p| (*p).to_owned()).collect(),
        workers: 2,
        port: Some(0),
        use_stdin: false,
        ..ServeConfig::default()
    };
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let handle = launch(config.clone())?;
        m.setup_s.push(t.elapsed().as_secs_f64());
        if rep + 1 == SETUP_REPS {
            return Ok(handle);
        }
        handle.request_shutdown();
        if handle.wait() != 0 {
            return Err("set-up daemon did not drain cleanly".into());
        }
    }
    unreachable!("SETUP_REPS is positive")
}

/// Runs one daemon workload: launch, warm up for a second, drive both
/// connections for the timed phase, drain, then check every response
/// against the oracle.
fn run(params: &Params, m: &mut Measured, load: Load) {
    let scale = params.scale(16.0);
    let source = ProgramSource::Workload {
        name: "luindex".into(),
        scale: scale.to_string(),
    };
    let handle = match launch_daemon(&source, m) {
        Ok(h) => h,
        Err(e) => return m.fail(0, format!("launch: {e}")),
    };
    let port = handle.port.expect("TCP was requested");
    let mut oracle = Resident::build(
        std::slice::from_ref(&source),
        &POLICIES.map(str::to_owned),
        &SolveConfig::default(),
    )
    .expect("the daemon built the same resident state");
    let targets = Targets::of(&oracle);

    let warm_up = if params.tiny { 0.2 } else { 1.0 };
    let start = Instant::now() + Duration::from_secs_f64(warm_up);
    let seconds = params.seconds;
    let per_conn: Vec<std::io::Result<Vec<Record>>> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let targets = &targets;
                let seed = params.seed;
                s.spawn(move || drive(port, conn, seed, targets, start, seconds, load))
            })
            .collect();
        std::thread::sleep(start.saturating_duration_since(Instant::now()));
        pta_govern::memtrack::reset_peak();
        clients
            .into_iter()
            .map(|c| c.join().expect("client threads do not panic"))
            .collect()
    });
    m.peak_bytes = pta_govern::memtrack::peak_bytes();
    handle.request_shutdown();
    if handle.wait() != 0 {
        m.fail(0, "daemon did not drain cleanly".into());
    }

    let mut records = Vec::new();
    for (conn, r) in per_conn.into_iter().enumerate() {
        match r {
            Ok(rs) => records.extend(rs),
            Err(e) => m.fail(0, format!("connection {conn}: {e}")),
        }
    }
    let anchor = (Instant::now(), m.layers.now_ns());
    verify(params, m, &mut oracle, &records, anchor);

    let (queries, updates): (Vec<&Record>, Vec<&Record>) = records.iter().partition(|r| !r.update);
    m.op_ms = queries
        .iter()
        .filter_map(|r| r.latency_us())
        .map(|us| us / 1e3)
        .collect();
    // Throughput counts the phase until its last answer arrived.
    let last = records
        .iter()
        .filter_map(|r| Some(r.response.as_ref()?.at))
        .max();
    m.busy_s = last.map_or(seconds, |t| {
        t.saturating_duration_since(start).as_secs_f64()
    });
    if matches!(load, Load::Open) {
        let update_ms: Vec<f64> = updates
            .iter()
            .filter_map(|r| r.latency_us())
            .map(|us| us / 1e3)
            .collect();
        m.extras.push(Metric {
            name: "update_p50_ms".into(),
            value: stats::median(&update_ms).unwrap_or(0.0),
            unit: "ms".into(),
            n: update_ms.len(),
        });
        for q in &queries {
            m.layers
                .push("bench.send_late_p99_us", micros(q.sent, q.due));
        }
    }
    let rp = &oracle.programs[0];
    if let Some(e) = rp.entries.iter().find(|e| e.policy.name() == "2obj+H") {
        m.layers.solver_counters(&[e.result.solver_stats()]);
    }
}

/// Microseconds from `from` to `to` (0 if `to` is earlier).
fn micros(to: Instant, from: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e6
}

/// Checks every response against the oracle, replaying updates in order.
/// A query answered while update `k` was in flight may match the version
/// before or after it. Also records the per-query layer times: request
/// parsing and evaluation on the oracle, and the wire time the client
/// saw beyond them.
fn verify(
    params: &Params,
    m: &mut Measured,
    oracle: &mut Resident,
    records: &[Record],
    anchor: (Instant, u64),
) {
    let golden = |policy: &str| format!("serve {}/{policy}", oracle.programs[0].name);
    for entry in &oracle.programs[0].entries {
        let key = golden(entry.policy.name());
        check_golden(params, m, &key, &oracle.programs[0].program, &entry.result);
    }
    // Record instants on the trace clock: `anchor` pairs the two clocks,
    // and every record precedes it.
    let ns = |t: Instant| {
        let before = anchor.0.saturating_duration_since(t).as_nanos();
        anchor
            .1
            .saturating_sub(u64::try_from(before).unwrap_or(u64::MAX))
    };
    let mut updates: Vec<&Record> = records.iter().filter(|r| r.update).collect();
    updates.sort_by_key(|r| r.id);
    let received = |r: &Record| Some(r.response.as_ref()?.at);
    // Versions a query may have seen: updates answered before it was
    // sent, up to updates sent before it was answered.
    let mut pending: Vec<(usize, usize, &Record)> = Vec::new();
    for r in records {
        m.attempted += 1;
        let Some(answered) = received(r) else {
            m.fail(
                1,
                format!("request {}: no response within {RESPONSE_TIMEOUT:?}", r.id),
            );
            continue;
        };
        if !r.update {
            let lo = updates
                .iter()
                .filter(|u| received(u).is_some_and(|a| a <= r.sent))
                .count();
            let hi = updates.iter().filter(|u| u.sent <= answered).count();
            pending.push((lo, hi, r));
            let overlap = updates
                .iter()
                .any(|u| u.sent < answered && received(u).is_none_or(|a| a > r.sent));
            let layer = if overlap {
                "serve.query_overlap_p50_us"
            } else {
                "serve.query_clear_p50_us"
            };
            m.layers.push(layer, r.latency_us().unwrap_or(0.0));
        }
    }
    let mut matched = vec![false; pending.len()];
    let traced = m.layers.is_enabled();
    for version in 0..=updates.len() {
        for (i, &(lo, hi, r)) in pending.iter().enumerate() {
            if matched[i] || version < lo || version > hi {
                continue;
            }
            let t = Instant::now();
            let req = parse_request(&r.line).expect("planned requests parse");
            let parse_us = micros(Instant::now(), t);
            let t = Instant::now();
            let want = answer(&req, oracle, &mut ReqCtx::unlimited());
            let eval_us = micros(Instant::now(), t);
            let got = r.response.as_ref().expect("pending queries were answered");
            matched[i] = got.is(&want);
            if version == lo && traced {
                let latency = r.latency_us().unwrap_or(0.0);
                m.layers.push("serve.parse_p50_us", parse_us);
                m.layers.push("serve.eval_p50_us", eval_us);
                m.layers.push("serve.eval_p95_us", eval_us);
                m.layers
                    .push("serve.wire_p50_us", latency - parse_us - eval_us);
                m.layers.push("serve.response_bytes_p95", got.len as f64);
                let (sent, at) = (ns(r.sent), ns(received(r).expect("answered")));
                let tid = 1 + r.conn as u32;
                m.layers
                    .span("request", tid, sent, at.saturating_sub(sent), r.id);
            }
        }
        if traced {
            let rp = &oracle.programs[0];
            if let Some(e) = rp.entries.iter().find(|e| e.policy.name() == "2obj+H") {
                let spec = CheckSpec::default();
                m.layers.time(true, "clients.check_ms", || {
                    run_check(&rp.program, &e.result, &spec, ClientBackend::Direct)
                });
            }
        }
        let Some(u) = updates.get(version) else {
            break;
        };
        let req = parse_request(&u.line).expect("planned updates parse");
        let Op::Update { edits } = req.op else {
            unreachable!("update records hold update requests")
        };
        let applied = m.layers.time(true, "serve.update_eval_ms", || {
            oracle.update(None, &edits, &SolveConfig::default())
        });
        let want = format!("\"version\":{}", version + 2);
        let got = u.response.as_ref().and_then(|r| r.text.as_deref());
        match (applied, got) {
            (Ok(_), Some(got)) if got.contains("\"ok\":true") && got.contains(&want) => {}
            (applied, got) => m.fail(
                1,
                format!(
                    "update {}: oracle {:?}, daemon {got:?}",
                    u.id,
                    applied.map(|o| o.version)
                ),
            ),
        }
    }
    for (i, (_, _, r)) in pending.iter().enumerate() {
        if !matched[i] {
            m.fail(1, format!("request {}: response matches no version", r.id));
        }
    }
}

/// `serve-query`: the daemon over luindex at scale 16 with policies
/// `insens` and `2obj+H`, read path only; two connections in a closed
/// loop with one outstanding request each, like IDE clients that wait
/// for every answer.
pub fn serve_query(params: &Params, m: &mut Measured) {
    run(params, m, Load::Closed);
}

/// `serve-mixed`: the same daemon under an open loop of 200 queries/s
/// split over two connections, plus one `update` per second on the first;
/// latency is timed from when each request was due, so a stall behind an
/// update is charged to the queries it delays.
pub fn serve_mixed(params: &Params, m: &mut Measured) {
    run(params, m, Load::Open);
}
