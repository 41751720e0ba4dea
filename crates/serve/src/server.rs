//! The resident daemon: readers, a bounded admission queue, workers,
//! and a drain-deadline shutdown path.
//!
//! # Request lifecycle
//!
//! 1. A **reader** (stdin, or one thread per TCP connection) pulls one
//!    line. Lines that fail to parse — garbage, truncated JSON,
//!    oversized — are answered inline with a structured error and never
//!    touch the queue, so malformed traffic cannot occupy a slot.
//! 2. Control ops (`health`, `stats`, `shutdown`) are answered inline
//!    too: they must keep working while the queue is saturated or
//!    draining, which is exactly when they are most needed.
//! 3. Query ops go through **admission**: if the daemon is draining the
//!    reader answers `shutting_down`; if the bounded queue is full it
//!    answers `overloaded` immediately (load shedding — the daemon
//!    never buffers without bound). Otherwise the request is queued
//!    with its admission timestamp and any injected fault decision.
//! 4. A **worker** pops the job, arms per-request governance (cancel
//!    token, deadline from admission time, step budget), applies any
//!    injected fault, evaluates via [`crate::answer()`], and writes the
//!    response line to the connection the request came from.
//! 5. **Shutdown** (SIGTERM, stdin EOF, or the `shutdown` op) stops
//!    admission, wakes the workers, and waits for in-flight work up to
//!    the drain deadline. If the deadline passes, every in-flight
//!    request's token is cancelled — the bounded-latency guarantee from
//!    the solver and the answer loops means workers come back promptly,
//!    their requests answered with `cancelled` errors. Exit code 0 for
//!    a clean drain, 3 when the drain was forced.

use std::collections::VecDeque;
use std::io::{BufRead, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

use pta_govern::{memtrack, CancelToken};
use pta_obs::{
    events_to_chrome_json, Counter, Event, EventLog, Field, Gauge, Histogram, Metrics, Trace,
    LATENCY_BUCKETS_US,
};

use crate::answer::{answer, ReqCtx};
use crate::fault::{garble_line, FaultInjector, FaultKind};
use crate::protocol::{error_line, parse_request, ErrorCode, Op, Request};
use crate::resident::{ProgramSource, Resident, SolveConfig};

/// Everything `pta serve` can be configured with.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    pub sources: Vec<ProgramSource>,
    /// Policy names to solve at startup (`["insens"]` when empty).
    pub policies: Vec<String>,
    pub solve: SolveConfig,
    /// Worker pool size.
    pub workers: usize,
    /// Bounded admission queue capacity; beyond it, requests are shed.
    pub queue_capacity: usize,
    /// Default per-request deadline (ms from admission); a request's
    /// own `deadline_ms` overrides it.
    pub default_deadline_ms: Option<u64>,
    /// How long shutdown waits for in-flight requests before forcing
    /// cancellation.
    pub drain_ms: u64,
    /// TCP listener port (`Some(0)` = OS-assigned).
    pub port: Option<u16>,
    /// Where to write the bound TCP port (for test orchestration).
    pub port_file: Option<String>,
    pub faults: Option<FaultInjector>,
    /// Chrome-trace output path; enables per-request spans.
    pub trace_path: Option<String>,
    /// Prometheus exposition address (`host:port`, port 0 =
    /// OS-assigned); `None` disables the HTTP endpoint (the `metrics`
    /// op still answers over the regular protocol).
    pub metrics_addr: Option<String>,
    /// Where to write the bound metrics port (for test orchestration).
    pub metrics_port_file: Option<String>,
    /// Structured event-log path; enables request-lifecycle events.
    pub events_path: Option<String>,
    /// Serve the stdin/stdout channel (EOF initiates shutdown). TCP-only
    /// deployments turn this off so a closed stdin doesn't stop them.
    pub use_stdin: bool,
    /// Requests longer than this are rejected with an `oversized` error.
    pub max_line_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            sources: Vec::new(),
            policies: Vec::new(),
            solve: SolveConfig::default(),
            workers: 2,
            queue_capacity: 64,
            default_deadline_ms: None,
            drain_ms: 2_000,
            port: None,
            port_file: None,
            faults: None,
            trace_path: None,
            metrics_addr: None,
            metrics_port_file: None,
            events_path: None,
            use_stdin: true,
            max_line_bytes: 1 << 20,
        }
    }
}

/// A connection's write half; one response line per lock acquisition,
/// so lines from concurrent workers never interleave mid-line.
type Reply = Arc<Mutex<Box<dyn Write + Send>>>;

struct Job {
    req: Request,
    reply: Reply,
    admitted: Instant,
    fault: Option<FaultKind>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    draining: bool,
}

/// State shared by readers, workers, and the drain loop.
struct Shared {
    /// Queries take the read lock; `update` requests take the write
    /// lock for the duration of the re-solve.
    resident: RwLock<Resident>,
    cfg: ServeConfig,
    queue: Mutex<QueueState>,
    available: Condvar,
    /// Jobs popped but not yet answered (bumped under the queue lock so
    /// the drain loop can't observe an empty queue + zero in-flight
    /// while a job is in hand).
    in_flight: AtomicUsize,
    /// One slot per worker: the cancel token of its current request,
    /// for forced drain.
    active: Mutex<Vec<Option<CancelToken>>>,
    shutdown: AtomicBool,
    last_request_peak: AtomicU64,
    max_request_peak: AtomicU64,
    trace: Trace,
    /// Drained trace events, capped — the daemon's trace memory bound.
    trace_events: Mutex<Vec<Event>>,
    /// The daemon's metrics registry — always enabled: the `metrics`
    /// op and the exposition endpoint must answer whether or not any
    /// flag was passed. Resident sessions share this handle, so solver
    /// and apply counters land beside the request counters.
    metrics: Metrics,
    /// The request path's handles into `metrics`.
    series: RequestSeries,
    /// Structured lifecycle event log (disabled unless `--events`).
    events: EventLog,
}

/// One labeled metric family: a series per label value of a fixed set,
/// each registered on its first use and then kept.
struct Family<T>(Vec<(&'static str, OnceLock<T>)>);

impl<T> Family<T> {
    fn new(values: impl IntoIterator<Item = &'static str>) -> Family<T> {
        Family(values.into_iter().map(|v| (v, OnceLock::new())).collect())
    }

    /// The series for `value`, registered by `register` on first use.
    fn get(&self, value: &str, register: impl FnOnce(&'static str) -> T) -> &T {
        let (value, slot) = self
            .0
            .iter()
            .find(|(v, _)| *v == value)
            .expect("label values come from the family's fixed set");
        slot.get_or_init(|| register(value))
    }

    /// `read` summed over the series registered so far.
    fn sum(&self, read: impl Fn(&T) -> u64) -> u64 {
        self.0.iter().filter_map(|(_, s)| s.get()).map(read).sum()
    }
}

/// The handles the request path updates. Resolving a handle through
/// [`Metrics`] builds label strings and locks the registry, so each
/// series is resolved once, on its first use (series no request has
/// touched stay out of the exposition), and later requests only touch
/// its atomics. These series are the daemon's only count of request
/// outcomes: the `stats` op and the `shutdown` event sum them.
struct RequestSeries {
    requests: Family<Counter>,
    latency: Family<Histogram>,
    deadline_misses: Family<Counter>,
    errors: Family<Counter>,
    faulted: Family<Counter>,
    shed: OnceLock<Counter>,
    queue_depth: OnceLock<Gauge>,
    in_flight: OnceLock<Gauge>,
}

impl RequestSeries {
    /// Requests answered by a worker (one latency observation each).
    fn served(&self) -> u64 {
        self.latency.sum(Histogram::count)
    }

    /// Requests shed by the full admission queue.
    fn shed(&self) -> u64 {
        self.shed.get().map_or(0, Counter::get)
    }

    fn new() -> RequestSeries {
        let codes = ErrorCode::ALL.map(ErrorCode::as_str);
        RequestSeries {
            requests: Family::new(Op::NAMES),
            latency: Family::new(Op::NAMES),
            deadline_misses: Family::new(Op::NAMES),
            errors: Family::new(codes.into_iter().chain(["unknown"])),
            faulted: Family::new(FaultKind::ALL.map(FaultKind::as_str)),
            shed: OnceLock::new(),
            queue_depth: OnceLock::new(),
            in_flight: OnceLock::new(),
        }
    }
}

/// Caps the daemon's retained trace events (oldest dropped first).
const TRACE_EVENT_CAP: usize = 100_000;
/// How often workers move trace buffers into the capped aggregate.
const TRACE_DRAIN_STRIDE: u64 = 64;

impl Shared {
    /// Sends one response line. Line and newline go out in one write: a
    /// separate one-byte write of the newline would sit in the kernel
    /// until the client's delayed ACK whenever Nagle is on.
    fn write_line(reply: &Reply, mut line: String) {
        // Grow a full buffer by one byte, not by doubling: responses run
        // to megabytes.
        line.reserve_exact(1);
        line.push('\n');
        let mut w = reply.lock().unwrap();
        // A vanished client is its own problem; the daemon stays up.
        let _ = w.write_all(line.as_bytes());
        let _ = w.flush();
    }

    fn count_error(&self, code: &str) {
        self.series
            .errors
            .get(code, |code| {
                self.metrics
                    .counter("pta_request_errors_total", &[("code", code)])
            })
            .inc();
    }

    fn set_queue_depth(&self, depth: usize) {
        self.series
            .queue_depth
            .get_or_init(|| self.metrics.gauge("pta_queue_depth", &[]))
            .set(depth as u64);
    }

    fn set_in_flight(&self, now: usize) {
        self.series
            .in_flight
            .get_or_init(|| self.metrics.gauge("pta_in_flight", &[]))
            .set(now as u64);
    }

    fn status(&self) -> &'static str {
        if self.shutdown.load(Ordering::SeqCst) || self.queue.lock().unwrap().draining {
            "draining"
        } else {
            "ok"
        }
    }

    fn health_line(&self, id: u64) -> String {
        let q = self.queue.lock().unwrap();
        let depth = q.jobs.len();
        drop(q);
        format!(
            "{{\"id\":{},\"ok\":true,\"op\":\"health\",\"status\":\"{}\",\"queue_depth\":{},\"queue_capacity\":{},\"in_flight\":{}}}",
            id,
            self.status(),
            depth,
            self.cfg.queue_capacity,
            self.in_flight.load(Ordering::SeqCst)
        )
    }

    fn stats_line(&self, id: u64) -> String {
        let mut policies = String::new();
        for p in &self.resident.read().unwrap().programs {
            for e in &p.entries {
                if !policies.is_empty() {
                    policies.push(',');
                }
                policies.push_str(&format!(
                    "{{\"program\":\"{}\",\"version\":{},\"policy\":\"{}\",\"status\":\"{}\",\"termination\":\"{}\",\"steps\":{},\"solve_ms\":{},\"incremental\":{},\"last_fallback\":{}}}",
                    crate::json::escape(&p.name),
                    p.version,
                    e.policy.name(),
                    e.status(),
                    e.termination.as_str(),
                    e.steps,
                    e.solve_ms,
                    e.session.last_apply_was_incremental(),
                    match e.session.last_fallback() {
                        Some(reason) => format!("\"{}\"", crate::json::escape(reason)),
                        None => "null".to_string(),
                    }
                ));
            }
        }
        let depth = self.queue.lock().unwrap().jobs.len();
        format!(
            "{{\"id\":{},\"ok\":true,\"op\":\"stats\",\"status\":\"{}\",\"queue_depth\":{},\"queue_capacity\":{},\"workers\":{},\"in_flight\":{},\"served\":{},\"shed\":{},\"errors\":{},\"faulted\":{},\"resident_bytes\":{},\"request_peak_bytes\":{{\"last\":{},\"max\":{}}},\"policies\":[{}]}}",
            id,
            self.status(),
            depth,
            self.cfg.queue_capacity,
            self.cfg.workers,
            self.in_flight.load(Ordering::SeqCst),
            self.series.served(),
            self.series.shed(),
            self.series.errors.sum(Counter::get),
            self.series.faulted.sum(Counter::get),
            memtrack::current_bytes(),
            self.last_request_peak.load(Ordering::SeqCst),
            self.max_request_peak.load(Ordering::SeqCst),
            policies
        )
    }

    /// The `metrics` op's response: the registry as JSON alongside the
    /// same registry rendered in Prometheus text format (escaped into
    /// one string field), so clients pick whichever they parse.
    fn metrics_line(&self, id: u64) -> String {
        format!(
            "{{\"id\":{},\"ok\":true,\"op\":\"metrics\",\"metrics\":{},\"prometheus\":\"{}\"}}",
            id,
            self.metrics.to_json(),
            crate::json::escape(&self.metrics.to_prometheus())
        )
    }

    /// Handles one raw request line from a reader thread. Parse errors
    /// and control ops are answered inline; queries go through
    /// admission. Returns `true` when the line asked for shutdown.
    fn handle_line(self: &Arc<Shared>, line: &str, reply: &Reply) -> bool {
        let line = line.trim();
        if line.is_empty() {
            return false;
        }
        let req = match parse_request(line) {
            Ok(req) => req,
            Err((id, code, msg)) => {
                self.count_error(code.as_str());
                Shared::write_line(reply, error_line(id, code, &msg));
                return false;
            }
        };
        self.series
            .requests
            .get(req.op.name(), |op| {
                self.metrics.counter("pta_requests_total", &[("op", op)])
            })
            .inc();
        match req.op {
            Op::Health => {
                Shared::write_line(reply, self.health_line(req.id));
                false
            }
            Op::Stats => {
                Shared::write_line(reply, self.stats_line(req.id));
                false
            }
            Op::Metrics => {
                Shared::write_line(reply, self.metrics_line(req.id));
                false
            }
            Op::Shutdown => {
                Shared::write_line(
                    reply,
                    format!(
                        "{{\"id\":{},\"ok\":true,\"op\":\"shutdown\",\"stopping\":true}}",
                        req.id
                    ),
                );
                self.shutdown.store(true, Ordering::SeqCst);
                true
            }
            _ => {
                self.admit(req, reply);
                false
            }
        }
    }

    /// Bounded admission: shed (`overloaded`) when full, refuse
    /// (`shutting_down`) when draining, else enqueue.
    fn admit(self: &Arc<Shared>, req: Request, reply: &Reply) {
        let fault = self.cfg.faults.as_ref().and_then(|f| f.decide(req.id));
        let id = req.id;
        let verdict = {
            let mut q = self.queue.lock().unwrap();
            if q.draining || self.shutdown.load(Ordering::SeqCst) {
                Some(ErrorCode::ShuttingDown)
            } else if q.jobs.len() >= self.cfg.queue_capacity {
                Some(ErrorCode::Overloaded)
            } else {
                q.jobs.push_back(Job {
                    req,
                    reply: Arc::clone(reply),
                    admitted: Instant::now(),
                    fault,
                });
                self.set_queue_depth(q.jobs.len());
                None
            }
        };
        match verdict {
            Some(code) => {
                self.count_error(code.as_str());
                let message = if code == ErrorCode::Overloaded {
                    self.series
                        .shed
                        .get_or_init(|| self.metrics.counter("pta_requests_shed_total", &[]))
                        .inc();
                    self.events.emit("shed", &[("id", Field::U64(id))]);
                    "admission queue full; retry later"
                } else {
                    "daemon is draining"
                };
                Shared::write_line(reply, error_line(id, code, message));
            }
            None => self.available.notify_one(),
        }
    }

    /// One worker: pop, govern, evaluate, reply — until drained.
    fn worker_loop(self: &Arc<Shared>, slot: usize) {
        loop {
            let job = {
                let mut q = self.queue.lock().unwrap();
                loop {
                    if let Some(job) = q.jobs.pop_front() {
                        // Under the lock: drain can never see "queue
                        // empty and nothing in flight" while this job is
                        // in hand.
                        let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                        self.set_queue_depth(q.jobs.len());
                        self.set_in_flight(now);
                        break job;
                    }
                    if q.draining {
                        return;
                    }
                    q = self.available.wait(q).unwrap();
                }
            };
            self.serve_job(slot, job);
            let now = self.in_flight.fetch_sub(1, Ordering::SeqCst) - 1;
            self.set_in_flight(now);
        }
    }

    fn serve_job(self: &Arc<Shared>, slot: usize, job: Job) {
        let id = job.req.id;
        let cancel = CancelToken::new();
        self.active.lock().unwrap()[slot] = Some(cancel.clone());
        let deadline_ms = job.req.deadline_ms.or(self.cfg.default_deadline_ms);
        let deadline = deadline_ms.map(|ms| job.admitted + Duration::from_millis(ms));
        let mut max_steps = None;
        if let Some(kind) = job.fault {
            self.series
                .faulted
                .get(kind.as_str(), |kind| {
                    self.metrics
                        .counter("pta_requests_faulted_total", &[("kind", kind)])
                })
                .inc();
            match kind {
                FaultKind::Delay => {
                    let ms = self.cfg.faults.as_ref().unwrap().delay_ms(id);
                    std::thread::sleep(Duration::from_millis(ms));
                }
                FaultKind::Cancel => cancel.cancel(),
                FaultKind::Exhaust => max_steps = Some(0),
                FaultKind::Garble => {}
            }
        }
        let peak = memtrack::ScopedPeak::begin();
        let mut ts = self.trace.scope_named(id as u32, &format!("request {id}"));
        let t0 = ts.now_ns();
        let mut ctx = ReqCtx::new(cancel, deadline, max_steps);
        let line = if let Op::Update { edits } = &job.req.op {
            let mut resident = self.resident.write().unwrap();
            match resident.update(job.req.program.as_deref(), edits, &self.cfg.solve) {
                Ok(outcome) => {
                    resident.export_gauges(&self.metrics);
                    let incremental = outcome
                        .entries
                        .iter()
                        .filter(|&&(_, inc, _, _)| inc)
                        .count() as u64;
                    self.events.emit(
                        "policy_update",
                        &[
                            ("program", Field::Str(&outcome.program)),
                            ("version", Field::U64(outcome.version)),
                            ("policies", Field::U64(outcome.entries.len() as u64)),
                            ("incremental", Field::U64(incremental)),
                        ],
                    );
                    let mut out = format!(
                        "{{\"id\":{},\"ok\":true,\"op\":\"update\",\"program\":\"{}\",\"version\":{},\"policies\":[",
                        id,
                        crate::json::escape(&outcome.program),
                        outcome.version
                    );
                    for (i, (policy, incremental, solve_ms, fallback)) in
                        outcome.entries.iter().enumerate()
                    {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!(
                            "{{\"policy\":\"{}\",\"incremental\":{},\"solve_ms\":{}",
                            policy.name(),
                            incremental,
                            solve_ms
                        ));
                        if let Some(reason) = fallback {
                            out.push_str(&format!(
                                ",\"fallback\":\"{}\"",
                                crate::json::escape(reason)
                            ));
                        }
                        out.push('}');
                    }
                    out.push_str("]}");
                    out
                }
                Err(m) => {
                    let code = if m.starts_with("no resident program") {
                        ErrorCode::UnknownProgram
                    } else {
                        ErrorCode::BadRequest
                    };
                    error_line(id, code, &m)
                }
            }
        } else {
            answer(&job.req, &self.resident.read().unwrap(), &mut ctx)
        };
        ts.complete(
            job.req.op.name(),
            "serve",
            t0,
            ts.now_ns() - t0,
            &[("id", id)],
        );
        drop(ts); // flush the request's span before the reply goes out
        let peak_bytes = peak.peak_bytes();
        self.last_request_peak.store(peak_bytes, Ordering::SeqCst);
        self.max_request_peak
            .fetch_max(peak_bytes, Ordering::SeqCst);
        self.active.lock().unwrap()[slot] = None;
        let code = error_code_of(&line);
        if line.contains("\"ok\":false") {
            self.count_error(code.unwrap_or("unknown"));
        }
        if code == Some(ErrorCode::DeadlineExceeded.as_str()) {
            self.series
                .deadline_misses
                .get(job.req.op.name(), |op| {
                    self.metrics
                        .counter("pta_deadline_miss_total", &[("op", op)])
                })
                .inc();
        }
        let latency_us = job.admitted.elapsed().as_micros() as u64;
        self.series
            .latency
            .get(job.req.op.name(), |op| {
                self.metrics
                    .histogram("pta_request_latency_us", &[("op", op)], LATENCY_BUCKETS_US)
            })
            .observe(latency_us);
        self.events.emit(
            "request",
            &[
                ("id", Field::U64(id)),
                ("op", Field::Str(job.req.op.name())),
                ("status", Field::Str(code.unwrap_or("ok"))),
                ("latency_us", Field::U64(latency_us)),
            ],
        );
        let out = if job.fault == Some(FaultKind::Garble) {
            garble_line(id)
        } else {
            line
        };
        Shared::write_line(&job.reply, out);
        if self.trace.is_enabled() && self.series.served().is_multiple_of(TRACE_DRAIN_STRIDE) {
            self.cap_trace();
        }
    }

    /// Moves flushed trace buffers into the capped daemon-side
    /// aggregate — the memory bound that lets `--trace` run for the
    /// daemon's whole (unbounded) lifetime.
    fn cap_trace(&self) {
        let drained = self.trace.drain();
        let mut held = self.trace_events.lock().unwrap();
        held.extend(drained);
        if held.len() > TRACE_EVENT_CAP {
            let excess = held.len() - TRACE_EVENT_CAP;
            held.drain(..excess);
        }
    }
}

/// A launched daemon: bound port (when TCP was requested) plus the
/// blocking [`ServerHandle::wait`] that runs the shutdown protocol.
pub struct ServerHandle {
    /// The TCP port actually bound, when `cfg.port` was set.
    pub port: Option<u16>,
    /// The Prometheus exposition port, when `cfg.metrics_addr` was set.
    pub metrics_port: Option<u16>,
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    sigterm: CancelToken,
}

impl ServerHandle {
    /// The daemon's metrics registry (for in-process embedding/tests).
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        self.shared.metrics.clone()
    }
}

/// Builds the resident state and starts readers + workers. Returns
/// `Err` for configuration problems (bad program, unbindable port).
pub fn launch(mut cfg: ServeConfig) -> Result<ServerHandle, String> {
    let metrics = Metrics::enabled();
    cfg.solve.metrics = metrics.clone();
    let events = match &cfg.events_path {
        Some(path) => {
            EventLog::to_file(path).map_err(|e| format!("cannot open event log {path}: {e}"))?
        }
        None => EventLog::disabled(),
    };
    let resident = Resident::build(&cfg.sources, &cfg.policies, &cfg.solve)?;
    resident.export_gauges(&metrics);
    events.emit(
        "daemon_start",
        &[
            ("programs", Field::U64(resident.programs.len() as u64)),
            ("policies", Field::U64(resident.policies.len() as u64)),
            ("workers", Field::U64(cfg.workers.max(1) as u64)),
        ],
    );
    for p in &resident.programs {
        for e in &p.entries {
            events.emit(
                "policy_solved",
                &[
                    ("program", Field::Str(&p.name)),
                    ("policy", Field::Str(e.policy.name())),
                    ("status", Field::Str(e.status())),
                    ("steps", Field::U64(e.steps)),
                    ("solve_ms", Field::U64(e.solve_ms)),
                ],
            );
        }
    }
    let trace = if cfg.trace_path.is_some() {
        Trace::enabled()
    } else {
        Trace::disabled()
    };
    let workers = cfg.workers.max(1);
    let shared = Arc::new(Shared {
        resident: RwLock::new(resident),
        queue: Mutex::new(QueueState {
            jobs: VecDeque::new(),
            draining: false,
        }),
        available: Condvar::new(),
        in_flight: AtomicUsize::new(0),
        active: Mutex::new(vec![None; workers]),
        shutdown: AtomicBool::new(false),
        last_request_peak: AtomicU64::new(0),
        max_request_peak: AtomicU64::new(0),
        trace,
        trace_events: Mutex::new(Vec::new()),
        metrics,
        series: RequestSeries::new(),
        events,
        cfg,
    });

    let mut worker_handles = Vec::new();
    for slot in 0..workers {
        let s = Arc::clone(&shared);
        worker_handles.push(
            std::thread::Builder::new()
                .name(format!("serve-worker-{slot}"))
                .spawn(move || s.worker_loop(slot))
                .map_err(|e| format!("cannot spawn worker: {e}"))?,
        );
    }

    let mut port = None;
    if let Some(want) = shared.cfg.port {
        let listener = TcpListener::bind(("127.0.0.1", want))
            .map_err(|e| format!("cannot bind 127.0.0.1:{want}: {e}"))?;
        let bound = listener
            .local_addr()
            .map_err(|e| format!("cannot read bound address: {e}"))?
            .port();
        port = Some(bound);
        if let Some(path) = &shared.cfg.port_file {
            std::fs::write(path, format!("{bound}\n"))
                .map_err(|e| format!("cannot write port file {path}: {e}"))?;
        }
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot configure listener: {e}"))?;
        let s = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(&s, &listener))
            .map_err(|e| format!("cannot spawn acceptor: {e}"))?;
    }

    let mut metrics_port = None;
    if let Some(addr) = &shared.cfg.metrics_addr {
        let listener = TcpListener::bind(addr.as_str())
            .map_err(|e| format!("cannot bind metrics endpoint {addr}: {e}"))?;
        let bound = listener
            .local_addr()
            .map_err(|e| format!("cannot read bound metrics address: {e}"))?
            .port();
        metrics_port = Some(bound);
        if let Some(path) = &shared.cfg.metrics_port_file {
            std::fs::write(path, format!("{bound}\n"))
                .map_err(|e| format!("cannot write metrics port file {path}: {e}"))?;
        }
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot configure metrics listener: {e}"))?;
        let s = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("serve-metrics".into())
            .spawn(move || metrics_loop(&s, &listener))
            .map_err(|e| format!("cannot spawn metrics endpoint: {e}"))?;
    }

    if shared.cfg.use_stdin {
        let s = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("serve-stdin".into())
            .spawn(move || {
                let stdout: Reply = Arc::new(Mutex::new(Box::new(std::io::stdout())));
                read_loop(&s, std::io::stdin().lock(), &stdout);
                // EOF on the control channel means the operator is done:
                // initiate a graceful drain.
                s.shutdown.store(true, Ordering::SeqCst);
            })
            .map_err(|e| format!("cannot spawn stdin reader: {e}"))?;
    }

    Ok(ServerHandle {
        port,
        metrics_port,
        shared,
        workers: worker_handles,
        sigterm: CancelToken::linked_to_sigterm(),
    })
}

impl ServerHandle {
    /// Blocks until shutdown is requested (SIGTERM, stdin EOF, or the
    /// `shutdown` op), runs the drain protocol, writes the trace file,
    /// and returns the process exit code: 0 for a clean drain, 3 when
    /// in-flight requests had to be force-cancelled.
    #[must_use]
    pub fn wait(self) -> i32 {
        while !self.shared.shutdown.load(Ordering::SeqCst) && !self.sigterm.is_cancelled() {
            std::thread::sleep(Duration::from_millis(10));
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);

        // Stop admission and wake every parked worker.
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.draining = true;
        }
        self.shared.available.notify_all();

        // Drain under the deadline.
        let drain_deadline = Instant::now() + Duration::from_millis(self.shared.cfg.drain_ms);
        let mut forced = false;
        loop {
            let idle = {
                let q = self.shared.queue.lock().unwrap();
                q.jobs.is_empty() && self.shared.in_flight.load(Ordering::SeqCst) == 0
            };
            if idle {
                break;
            }
            if Instant::now() >= drain_deadline {
                // Deadline passed: force-cancel whatever is in flight.
                // Cancellation latency is bounded (per-pop checks in the
                // solver, per-tick checks in the evaluator), so workers
                // come back promptly with `cancelled` answers.
                forced = true;
                for token in self.shared.active.lock().unwrap().iter().flatten() {
                    token.cancel();
                }
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        for w in self.workers {
            let _ = w.join();
        }
        if let Some(path) = &self.shared.cfg.trace_path {
            self.shared.cap_trace();
            let events = self.shared.trace_events.lock().unwrap();
            let _ = std::fs::write(path, events_to_chrome_json(&events));
        }
        self.shared.events.emit(
            "shutdown",
            &[
                ("forced", Field::Bool(forced)),
                ("served", Field::U64(self.shared.series.served())),
                ("shed", Field::U64(self.shared.series.shed())),
            ],
        );
        if forced {
            3
        } else {
            0
        }
    }

    /// Asks the daemon to shut down (what the `shutdown` op does).
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }
}

/// Runs a daemon to completion: launch, serve, drain. The CLI entry.
pub fn run(cfg: ServeConfig) -> Result<i32, String> {
    let handle = launch(cfg)?;
    if let Some(port) = handle.port {
        eprintln!("pta serve: listening on 127.0.0.1:{port}");
    }
    if let Some(port) = handle.metrics_port {
        eprintln!("pta serve: metrics on http://127.0.0.1:{port}/metrics");
    }
    eprintln!(
        "{}",
        handle.shared.resident.read().unwrap().summary().trim_end()
    );
    Ok(handle.wait())
}

/// Extracts the wire error code from a rendered response line, if any
/// (`{"id":N,"ok":false,"error":"CODE",...}` → `Some("CODE")`).
fn error_code_of(line: &str) -> Option<&str> {
    let rest = &line[line.find("\"error\":\"")? + 9..];
    rest.split('"').next()
}

/// Accepts Prometheus scrapes on the metrics endpoint until shutdown.
fn metrics_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                let s = Arc::clone(shared);
                let _ = std::thread::Builder::new()
                    .name("serve-scrape".into())
                    .spawn(move || serve_scrape(&s, stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => return,
        }
    }
}

/// Answers one scrape connection. Just enough HTTP/1.1 for a
/// Prometheus scraper or `curl`: the request head is read up to a
/// small cap, only the request line is inspected, `GET /metrics` gets
/// the exposition text, anything else a 404, and the connection
/// closes after one response.
fn serve_scrape(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(2_000)));
    let mut head = [0u8; 4096];
    let mut len = 0;
    while len < head.len() {
        match stream.read(&mut head[len..]) {
            Ok(0) => break,
            Ok(n) => {
                len += n;
                if head[..len].windows(4).any(|w| w == b"\r\n\r\n")
                    || head[..len].windows(2).any(|w| w == b"\n\n")
                {
                    break;
                }
            }
            Err(_) => return,
        }
    }
    let request = String::from_utf8_lossy(&head[..len]);
    let first = request.lines().next().unwrap_or("");
    let path_matches = first
        .strip_prefix("GET ")
        .is_some_and(|rest| rest == "/metrics" || rest.starts_with("/metrics "));
    let (status, body) = if path_matches {
        ("200 OK", shared.metrics.to_prometheus())
    } else {
        ("404 Not Found", "not found\n".to_string())
    };
    let _ = stream.write_all(
        format!(
            "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    );
    let _ = stream.flush();
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                let s = Arc::clone(shared);
                let _ = std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || serve_connection(&s, stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => return,
        }
    }
}

fn serve_connection(shared: &Arc<Shared>, stream: TcpStream) {
    // Clients wait for each answer before sending more, so a response
    // must leave at once instead of waiting for an ACK under Nagle.
    if stream.set_nodelay(true).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let reply: Reply = Arc::new(Mutex::new(Box::new(write_half)));
    let reader = std::io::BufReader::new(stream);
    read_loop(shared, reader, &reply);
}

/// What one bounded line read produced.
enum LineRead {
    Line(String),
    /// The line exceeded the cap; the remainder was discarded up to the
    /// next newline.
    Oversized,
    Eof,
}

/// Reads one `\n`-terminated line of at most `cap` bytes. Longer lines
/// are consumed (so the stream stays line-synchronized) but reported as
/// [`LineRead::Oversized`] without ever buffering more than `cap` bytes
/// — a hostile client cannot balloon the daemon's memory.
fn read_line_bounded<R: BufRead>(reader: &mut R, cap: usize) -> std::io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        let available = match reader.fill_buf() {
            Ok(a) => a,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(if oversized {
                LineRead::Oversized
            } else if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
        let (chunk, found_newline) = match available.iter().position(|&b| b == b'\n') {
            Some(pos) => (&available[..pos], true),
            None => (available, false),
        };
        if !oversized {
            if buf.len() + chunk.len() > cap {
                oversized = true;
                buf.clear();
            } else {
                buf.extend_from_slice(chunk);
            }
        }
        let consumed = chunk.len() + usize::from(found_newline);
        reader.consume(consumed);
        if found_newline {
            return Ok(if oversized {
                LineRead::Oversized
            } else {
                LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
    }
}

/// Drives one input channel until EOF, error, or daemon shutdown.
fn read_loop<R: BufRead>(shared: &Arc<Shared>, mut reader: R, reply: &Reply) {
    loop {
        match read_line_bounded(&mut reader, shared.cfg.max_line_bytes) {
            Ok(LineRead::Line(line)) => {
                if shared.handle_line(&line, reply) {
                    return; // shutdown requested on this channel
                }
            }
            Ok(LineRead::Oversized) => {
                shared.count_error(ErrorCode::Oversized.as_str());
                Shared::write_line(
                    reply,
                    error_line(
                        0,
                        ErrorCode::Oversized,
                        &format!("request line exceeds {} bytes", shared.cfg.max_line_bytes),
                    ),
                );
            }
            Ok(LineRead::Eof) | Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_are_extracted_from_response_lines() {
        assert_eq!(
            error_code_of("{\"id\":1,\"ok\":false,\"error\":\"overloaded\",\"message\":\"m\"}"),
            Some("overloaded")
        );
        assert_eq!(
            error_code_of("{\"id\":1,\"ok\":true,\"op\":\"health\"}"),
            None
        );
    }

    #[test]
    fn bounded_reads_preserve_line_sync() {
        let input = b"short\n0123456789abcdef\nafter\nlast-no-newline".to_vec();
        let mut r = std::io::BufReader::with_capacity(4, std::io::Cursor::new(input));
        let mut next = || read_line_bounded(&mut r, 8).unwrap();
        assert!(matches!(next(), LineRead::Line(l) if l == "short"));
        assert!(matches!(next(), LineRead::Oversized));
        assert!(matches!(next(), LineRead::Line(l) if l == "after"));
        // The unterminated tail is over the cap too: reported oversized
        // at EOF, not silently returned as a line.
        assert!(matches!(next(), LineRead::Oversized));
        assert!(matches!(next(), LineRead::Eof));
    }
}
