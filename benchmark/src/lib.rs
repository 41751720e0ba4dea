//! The repository's benchmark: six seeded workloads that drive the batch,
//! incremental and daemon paths through their public entry points, time
//! them end to end, check every output, and (in a traced run) time the
//! calls into each layer from outside.
//!
//! Each workload module returns a [`Measured`]; [`run_workload`] turns it
//! into named metrics. The metric names and units printed here are the
//! ones `BENCHMARK.json` declares, which the smoke test pins.

pub mod batch;
pub mod compare;
pub mod digest;
pub mod host;
pub mod incr;
pub mod programs;
pub mod serve;
pub mod stats;

use std::collections::BTreeMap;
use std::time::Instant;

use pta_core::SolverStats;
use pta_obs::{Trace, TraceScope};

/// Workload names, in the order `run` executes them.
pub const WORKLOADS: [&str; 6] = [
    "analyze-text",
    "solve-insens",
    "solve-par2",
    "incr-edits",
    "serve-query",
    "serve-mixed",
];

/// End-to-end metrics every workload reports in an untraced run.
pub const END_TO_END: [&str; 4] = ["setup_s", "op_p50_ms", "ops_per_s", "peak_heap_mb"];

/// Per-layer metrics every workload reports in a traced run. A workload
/// that does not cross a layer reports 0 for it, with `n` = 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("lang.lex_ms", "ms"),
    ("lang.parse_ms", "ms"),
    ("lang.lower_ms", "ms"),
    ("lang.tokens", "count"),
    ("lang.mb_per_s", "MB/s"),
    ("ir.clone_ms", "ms"),
    ("core.solve_ms", "ms"),
    ("core.steps", "count"),
    ("core.vpt_inserted", "count"),
    ("core.dedup_hit_rate", "ratio"),
    ("core.batches", "count"),
    ("core.peak_worklist", "count"),
    ("core.contexts", "count"),
    ("core.heap_contexts", "count"),
    ("core.call_edges", "count"),
    ("core.sets_shared", "count"),
    ("core.bytes_saved", "bytes"),
    ("core.par_rounds", "count"),
    ("core.par_msgs", "count"),
    ("core.apply_incremental_ms", "ms"),
    ("core.apply_fallback_ms", "ms"),
    ("core.apply_incremental_ratio", "ratio"),
    ("core.cone_keys", "count"),
    ("core.maintained_tuples", "count"),
    ("clients.metrics_ms", "ms"),
    ("clients.check_ms", "ms"),
    ("report.render_ms", "ms"),
    ("report.bytes", "bytes"),
    ("serve.parse_p50_us", "us"),
    ("serve.eval_p50_us", "us"),
    ("serve.eval_p95_us", "us"),
    ("serve.wire_p50_us", "us"),
    ("serve.response_bytes_p95", "bytes"),
    ("serve.update_eval_ms", "ms"),
    ("serve.query_overlap_p50_us", "us"),
    ("serve.query_clear_p50_us", "us"),
    ("bench.send_late_p99_us", "us"),
    ("bench.other_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// How a workload is run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Workload seed: permutes declaration order (program workloads) and
    /// seeds the request planner (serve workloads).
    pub seed: u64,
    /// Wall-clock length of the timed phase.
    pub seconds: f64,
    /// Traced run: time each layer call and report per-layer metrics.
    pub trace: bool,
    /// Smoke-test sizes: small programs, goldens not consulted.
    pub tiny: bool,
}

impl Params {
    /// `full` unless [`Params::tiny`].
    #[must_use]
    pub fn scale(&self, full: f64) -> f64 {
        if self.tiny {
            0.3
        } else {
            full
        }
    }

    /// The least number of timed batch ops, whatever `seconds` says.
    fn min_ops(&self) -> usize {
        if self.tiny {
            1
        } else {
            3
        }
    }
}

/// One named measurement with its unit and sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub n: usize,
}

/// Everything one workload measured.
#[derive(Default)]
pub struct Measured {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Latency of each timed op, ms.
    pub op_ms: Vec<f64>,
    /// Wall seconds the timed ops occupied (the `ops_per_s` denominator).
    pub busy_s: f64,
    /// Peak live heap bytes during the timed phase.
    pub peak_bytes: u64,
    /// Workload-specific end-to-end figures printed beside the declared
    /// ones (e.g. the update latency of `serve-mixed`).
    pub extras: Vec<Metric>,
    /// Ops whose output was checked.
    pub attempted: u64,
    /// Ops whose output was wrong or missing.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    pub layers: Layers,
}

impl Measured {
    /// Records a failed check.
    pub fn fail(&mut self, ops: u64, problem: String) {
        self.failed += ops;
        self.problems.push(problem);
    }
}

/// Per-layer samples and spans, recorded only in a traced run.
pub struct Layers {
    trace: Trace,
    scope: TraceScope,
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Milliseconds of [`Layers::time`] spans since the last
    /// [`Layers::close_op`].
    covered_ms: f64,
}

impl Default for Layers {
    fn default() -> Self {
        Layers::new(false)
    }
}

impl Layers {
    /// A recorder; disabled unless `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Layers {
        let trace = if enabled {
            Trace::enabled()
        } else {
            Trace::disabled()
        };
        let scope = trace.scope_named(0, "benchmark");
        Layers {
            trace,
            scope,
            samples: BTreeMap::new(),
            covered_ms: 0.0,
        }
    }

    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.trace.is_enabled()
    }

    /// Runs `f`; when `on` and enabled, records it as span `name` and its
    /// duration (ms) as a sample of layer metric `name`.
    pub fn time<R>(&mut self, on: bool, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !on || !self.is_enabled() {
            return f();
        }
        let t0 = self.scope.now_ns();
        let r = f();
        let dur = self.scope.now_ns() - t0;
        self.scope.complete(name, "layer", t0, dur, &[]);
        self.covered_ms += dur as f64 / 1e6;
        self.push(name, dur as f64 / 1e6);
        r
    }

    /// Records a span measured elsewhere (start and duration in ns on this
    /// recorder's clock), on track `tid`.
    pub fn span(&mut self, name: &str, tid: u32, start_ns: u64, dur_ns: u64, id: u64) {
        if self.is_enabled() {
            let mut s = self.trace.scope(tid);
            s.complete(name, "layer", start_ns, dur_ns, &[("id", id)]);
        }
    }

    /// Nanoseconds on this recorder's clock (0 when disabled).
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.scope.now_ns()
    }

    /// Adds one sample to layer metric `name` (in its declared unit), when
    /// enabled.
    pub fn push(&mut self, name: &'static str, value: f64) {
        if self.is_enabled() {
            self.samples.entry(name).or_default().push(value);
        }
    }

    /// The latest sample of layer metric `name`.
    #[must_use]
    pub fn last(&self, name: &str) -> Option<f64> {
        self.samples.get(name)?.last().copied()
    }

    /// Replaces the latest `k` samples of `name` by their sum (one op that
    /// called the layer `k` times).
    pub fn merge_last(&mut self, name: &'static str, k: usize) {
        if let Some(v) = self.samples.get_mut(name) {
            let sum: f64 = v.drain(v.len().saturating_sub(k)..).sum();
            v.push(sum);
        }
    }

    /// Sets a layer metric that is a single value (a count or a ratio),
    /// when enabled.
    pub fn set(&mut self, name: &'static str, value: f64) {
        if self.is_enabled() {
            self.samples.insert(name, vec![value]);
        }
    }

    /// Closes a traced op that took `op_ms`: the part of it no layer span
    /// covered is recorded as `bench.other_ms`.
    pub fn close_op(&mut self, op_ms: f64) {
        let covered = std::mem::take(&mut self.covered_ms);
        self.push("bench.other_ms", op_ms - covered);
    }

    /// Records the solver counters of `stats` (summed; the peak worklist
    /// is the maximum).
    pub fn solver_counters(&mut self, stats: &[&SolverStats]) {
        let sum = |f: fn(&SolverStats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>() as f64;
        let inserted = sum(|s| s.vpt_inserted);
        let dup = sum(|s| s.vpt_dup);
        self.set("core.steps", sum(|s| s.steps));
        self.set("core.vpt_inserted", inserted);
        let attempts = inserted + dup;
        self.set(
            "core.dedup_hit_rate",
            if attempts > 0.0 { dup / attempts } else { 0.0 },
        );
        self.set("core.batches", sum(|s| s.batches));
        let peak = stats.iter().map(|s| s.peak_worklist).max().unwrap_or(0);
        self.set("core.peak_worklist", peak as f64);
        self.set("core.contexts", sum(|s| s.contexts));
        self.set("core.heap_contexts", sum(|s| s.heap_contexts));
        self.set("core.call_edges", sum(|s| s.call_edges));
        self.set("core.sets_shared", sum(|s| s.sets_shared));
        self.set("core.bytes_saved", sum(|s| s.bytes_saved));
        self.set("core.par_rounds", sum(|s| s.par_rounds));
        self.set("core.par_msgs", sum(|s| s.par_msgs));
    }

    /// The recorded spans as Chrome trace-event JSON.
    #[must_use]
    pub fn chrome_json(&mut self) -> String {
        self.scope.flush();
        self.trace.to_chrome_json()
    }

    /// Every declared per-layer metric: the median of its samples, or 0
    /// with `n` = 0 when the workload does not cross that layer. Latency
    /// layers named `*_pNN_*` take that percentile instead, when the sample
    /// supports it.
    fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let samples = self.samples.get(name).map_or(&[][..], Vec::as_slice);
                let value = match quantile_of(name) {
                    Some(p) => stats::percentile(&stats::sorted(samples), p),
                    None => stats::median(samples),
                };
                Metric {
                    name: name.to_owned(),
                    value: value.unwrap_or(0.0),
                    unit: unit.to_owned(),
                    n: if value.is_some() { samples.len() } else { 0 },
                }
            })
            .collect()
    }
}

/// The percentile a per-layer name asks for (`serve.eval_p95_us` → 95);
/// `None` for plain medians and single values.
fn quantile_of(name: &str) -> Option<f64> {
    let at = name.rfind("_p")?;
    let digits: String = name[at + 2..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Runs a batch op once untimed (warm-up), then for `seconds` of wall
/// time and at least [`Params::min_ops`] times. `op(traced, layers)`
/// returns its latency in ms and whether its output checked out. In a
/// traced run, ops alternate between untraced and traced so the tracing
/// overhead is measured in the same process.
pub fn run_ops(
    params: &Params,
    m: &mut Measured,
    mut op: impl FnMut(bool, &mut Layers) -> (f64, bool),
) {
    let (_, ok) = op(false, &mut m.layers);
    if !ok {
        m.fail(0, "warm-up op output differs from the reference".into());
    }
    pta_govern::memtrack::reset_peak();
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut i = 0usize;
    // A traced run needs at least one op of each kind.
    let min_ops = params.min_ops().max(2 * usize::from(params.trace));
    while i < min_ops || start.elapsed().as_secs_f64() < params.seconds {
        let trace_this = params.trace && i % 2 == 1;
        let (ms, ok) = op(trace_this, &mut m.layers);
        if trace_this {
            m.layers.close_op(ms);
            traced.push(ms);
        } else {
            plain.push(ms);
        }
        m.attempted += 1;
        if !ok {
            m.fail(1, format!("op {i}: output differs from the reference"));
        }
        i += 1;
    }
    m.peak_bytes = pta_govern::memtrack::peak_bytes();
    if params.trace {
        if let (Some(a), Some(b)) = (stats::median(&plain), stats::median(&traced)) {
            m.layers
                .set("bench.trace_overhead_pct", (b - a) / a * 100.0);
        }
    }
    m.busy_s = plain.iter().sum::<f64>() / 1e3;
    m.op_ms = plain;
}

/// Milliseconds since `t`.
#[must_use]
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The result of one workload run.
pub struct Outcome {
    pub workload: &'static str,
    pub params: Params,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Declared end-to-end metrics then workload extras (untraced), or
    /// the declared per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Chrome trace of a traced run.
    pub chrome: Option<String>,
}

impl Outcome {
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// The declared metrics for this run's mode, in declaration order.
    #[must_use]
    pub fn declared(&self) -> Vec<&Metric> {
        let names: Vec<&str> = if self.params.trace {
            PER_LAYER.iter().map(|m| m.0).collect()
        } else {
            END_TO_END.to_vec()
        };
        names
            .iter()
            .filter_map(|n| self.metrics.iter().find(|m| m.name == *n))
            .collect()
    }

    /// The run's verdict line: one JSON object with `correct`,
    /// `attempted`, `failed` and the declared metrics.
    #[must_use]
    pub fn verdict_json(&self) -> String {
        let metrics: Vec<String> = self
            .declared()
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// `workload\tmetric\tvalue\tunit\tn` rows, one per metric.
    #[must_use]
    pub fn tsv(&self) -> String {
        self.metrics
            .iter()
            .map(|m| {
                format!(
                    "{}\t{}\t{}\t{}\t{}\n",
                    self.workload,
                    m.name,
                    json_num(m.value),
                    m.unit,
                    m.n
                )
            })
            .collect()
    }
}

/// A finite number as JSON (non-finite values become 0).
#[must_use]
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}

/// Runs workload `name` in this process.
///
/// # Errors
///
/// Unknown workload names.
pub fn run_workload(name: &str, params: Params) -> Result<Outcome, String> {
    let mut m = Measured {
        layers: Layers::new(params.trace),
        ..Measured::default()
    };
    let workload = *WORKLOADS.iter().find(|w| **w == name).ok_or_else(|| {
        format!(
            "unknown workload {name:?} (want one of {})",
            WORKLOADS.join(", ")
        )
    })?;
    match workload {
        "analyze-text" => batch::analyze_text(&params, &mut m),
        "solve-insens" => batch::solve_insens(&params, &mut m),
        "solve-par2" => batch::solve_par2(&params, &mut m),
        "incr-edits" => incr::incr_edits(&params, &mut m),
        "serve-query" => serve::serve_query(&params, &mut m),
        _ => serve::serve_mixed(&params, &mut m),
    }
    let metrics = if params.trace {
        m.layers.metrics()
    } else {
        end_to_end(&m)
    };
    let chrome = params.trace.then(|| m.layers.chrome_json());
    Ok(Outcome {
        workload,
        params,
        attempted: m.attempted,
        failed: m.failed,
        problems: m.problems,
        metrics,
        chrome,
    })
}

fn end_to_end(m: &Measured) -> Vec<Metric> {
    let metric = |name: &str, value: Option<f64>, unit: &str, n: usize| Metric {
        name: name.to_owned(),
        value: value.unwrap_or(0.0),
        unit: unit.to_owned(),
        n,
    };
    let ops = m.op_ms.len();
    let mut out = vec![
        metric("setup_s", stats::median(&m.setup_s), "s", m.setup_s.len()),
        metric("op_p50_ms", stats::median(&m.op_ms), "ms", ops),
        metric(
            "ops_per_s",
            (m.busy_s > 0.0).then(|| ops as f64 / m.busy_s),
            "1/s",
            ops,
        ),
        metric("peak_heap_mb", Some(m.peak_bytes as f64 / 1e6), "MB", 1),
    ];
    if let Some((p, v)) = stats::tail(&m.op_ms) {
        out.push(metric(
            &format!("op_{}_ms", stats::pct_name(p)),
            Some(v),
            "ms",
            ops,
        ));
    }
    out.extend(m.extras.iter().cloned());
    out
}
