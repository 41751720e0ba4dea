//! # pta-bench — the experiment harness
//!
//! Regenerates **every table and figure** of the paper's evaluation (§4)
//! as subcommands of the `pta` binary:
//!
//! | paper artifact | subcommand | output |
//! |---|---|---|
//! | Table 1 (12 analyses × 10 benchmarks × 6 metrics) | `pta table1` | the table, in the paper's layout, plus JSON rows |
//! | Figure 3 (time vs may-fail casts scatter) | `pta figure3` | per-benchmark CSV series + ASCII scatter |
//! | §1/§4 summary statistics (speedups, slowdowns) | `pta summary` | the aggregate claims, paper vs. measured |
//!
//! The three share the [`MatrixOptions`] flags (listed in `pta`'s usage
//! text). [`run_matrix`] runs the matrix, [`rows_to_json`] writes the
//! `--json` dump, and [`json`] reads dumps back: `pta table1 --check`
//! validates one ([`json::check_dump`]) and `pta profdiff` compares the
//! per-rule profiles of two ([`json::diff_profiles`]).

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pta_clients::{
    client_metrics, precision_metrics, run_check, CheckSpec, ClientBackend, ClientMetrics,
};
use pta_core::{Analysis, AnalysisSession, Budget, CancelToken, SolverStats};
use pta_ir::{Program, ProgramStats};
use pta_obs::escape;
use pta_workload::{DACAPO_NAMES, TAINT_SPEC};

pub mod json;
pub mod render;

pub use render::{render_figure3_csv, render_figure3_scatter, render_summary, render_table1};

/// Version of the JSON row format emitted by [`ExperimentRow::to_json`].
///
/// History: v1 (unversioned) dumps predate the `schema_version` and
/// `threads` fields; v2 added both, and later v2 rows dropped `threads`
/// (always 1). `pta table1 --check` accepts all of them — see
/// [`json::validate_rows`].
pub const SCHEMA_VERSION: u32 = 2;

/// How a matrix cell ended: completed, timed out (even after the one
/// retry), or tripped a `--max-memory` budget; partial rows carry the
/// salvaged solve's numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CellStatus {
    /// The solve reached its fixpoint; the row is a real measurement.
    #[default]
    Ok,
    /// The per-cell deadline (or a shared cancellation) tripped twice;
    /// every metric in the row under-approximates the true fixpoint.
    Timeout,
    /// The solver's memory estimate crossed the cell's `--max-memory`
    /// budget. Deterministic (the estimate is a model, not a host
    /// measurement), so the cell is not retried; every metric
    /// under-approximates the true fixpoint.
    MemoryCap,
}

impl CellStatus {
    /// Stable machine-readable name, used verbatim in JSON rows.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Timeout => "timeout",
            CellStatus::MemoryCap => "memory_cap",
        }
    }
}

/// One `(workload, analysis)` measurement: every Table 1 cell group.
#[derive(Debug, Clone)]
pub struct ExperimentRow {
    /// Benchmark name (Table 1 row).
    pub workload: String,
    /// Analysis name (Table 1 column).
    pub analysis: String,
    /// Whether the cell completed or timed out.
    pub status: CellStatus,
    /// Reachable methods ("over ~N meths").
    pub reachable_methods: usize,
    /// "avg objs per var".
    pub avg_objs_per_var: f64,
    /// "edges" in the context-insensitive call graph.
    pub call_graph_edges: usize,
    /// "poly v-calls".
    pub poly_v_calls: usize,
    /// Total reachable virtual call sites ("of ~N").
    pub reachable_v_calls: usize,
    /// "may-fail casts".
    pub may_fail_casts: usize,
    /// Total reachable casts ("of ~N").
    pub reachable_casts: usize,
    /// "elapsed time (s)".
    pub time_secs: f64,
    /// "sensitive var-points-to" (tuples; the paper reports millions).
    pub sensitive_var_points_to: u64,
    /// Distinct calling contexts.
    pub contexts: usize,
    /// Distinct heap contexts.
    pub heap_contexts: usize,
    /// Exception sites that may escape `main` uncaught.
    pub uncaught_exception_sites: usize,
    /// The solver's internal counters for the timed run (rule firings,
    /// dedup traffic, worklist shape).
    pub stats: SolverStats,
    /// Per-rule evaluation profile of the final repetition, when the cell
    /// ran with profiling on (`--profile`). Optional in the JSON row, so
    /// the schema stays at v2.
    pub profile: Option<pta_obs::Profile>,
    /// `pta check` client finding counts (taint / escape / nullness),
    /// when the cell ran with taint fixtures injected (`--taint-groups`).
    /// Like `profile`, optional in the JSON row — the schema stays at v2.
    pub clients: Option<ClientMetrics>,
    /// Peak heap bytes over the cell's solves, measured by `pta`'s
    /// counting allocator (`pta_govern::memtrack`; the high-water mark is
    /// reset at cell start). `None` — and absent from the JSON row — in
    /// processes without the allocator installed, e.g. unit tests. With
    /// `--jobs > 1` the counter is process-wide, so concurrent cells
    /// inflate each other; memory experiments run `--jobs 1`.
    pub peak_rss_bytes: Option<u64>,
}

/// Formats an `f64` as a JSON number (finite values only).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

impl ExperimentRow {
    /// Serializes the row as a single-line JSON object. The toolchain runs
    /// fully offline, so this is hand-rolled rather than serde-derived.
    /// Profiled cells append an optional `"profile"` object — an addition
    /// consumers treat as optional, so the schema stays at v2.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"schema_version\":{},\"workload\":\"{}\",\"analysis\":\"{}\",\
             \"status\":\"{}\",\"reachable_methods\":{},\
             \"avg_objs_per_var\":{},\"call_graph_edges\":{},\"poly_v_calls\":{},\
             \"reachable_v_calls\":{},\"may_fail_casts\":{},\"reachable_casts\":{},\
             \"time_secs\":{},\"sensitive_var_points_to\":{},\"contexts\":{},\
             \"heap_contexts\":{},\"uncaught_exception_sites\":{},\"stats\":{}",
            SCHEMA_VERSION,
            escape(&self.workload),
            escape(&self.analysis),
            self.status.as_str(),
            self.reachable_methods,
            json_f64(self.avg_objs_per_var),
            self.call_graph_edges,
            self.poly_v_calls,
            self.reachable_v_calls,
            self.may_fail_casts,
            self.reachable_casts,
            json_f64(self.time_secs),
            self.sensitive_var_points_to,
            self.contexts,
            self.heap_contexts,
            self.uncaught_exception_sites,
            self.stats.to_json(),
        );
        if let Some(p) = &self.profile {
            out.push_str(&format!(",\"profile\":{}", p.to_json()));
        }
        if let Some(c) = &self.clients {
            out.push_str(&format!(
                ",\"clients\":{{\"taint\":{},\"escape\":{},\"nullness\":{}}}",
                c.taint_findings, c.escape_findings, c.nullness_findings
            ));
        }
        if let Some(peak) = self.peak_rss_bytes {
            out.push_str(&format!(",\"peak_rss_bytes\":{peak}"));
        }
        out.push('}');
        out
    }
}

/// Serializes rows as a JSON array, one object per line.
#[must_use]
pub fn rows_to_json(rows: &[ExperimentRow]) -> String {
    let body: Vec<String> = rows.iter().map(|r| format!("  {}", r.to_json())).collect();
    format!("[\n{}\n]", body.join(",\n"))
}

/// Harness options: what the matrix runs and how each cell is governed
/// and observed. `pta table1|figure3|summary` set them from their flags.
#[derive(Debug, Clone)]
pub struct MatrixOptions {
    /// Workload scale factor.
    pub scale: f64,
    /// Benchmarks to run (Table 1 row order).
    pub workloads: Vec<String>,
    /// Analyses to run (Table 1 column order).
    pub analyses: Vec<Analysis>,
    /// Repetitions per cell; the median time is reported (the paper uses
    /// medians of three runs).
    pub repetitions: usize,
    /// Worker threads for the matrix: `1` = sequential, `0` = one per core.
    pub jobs: usize,
    /// Per-cell wall-clock deadline, if any. A tripped cell is retried
    /// once; a second trip yields a `"status":"timeout"` row.
    pub cell_timeout: Option<Duration>,
    /// Per-cell memory budget in bytes, enforced against the solver's
    /// deterministic memory estimate. A tripped cell yields a
    /// `"status":"memory_cap"` row without a retry — the estimate is a
    /// model, so the trip reproduces exactly.
    pub max_memory: Option<u64>,
    /// Directory receiving one Chrome trace-event JSON file per cell,
    /// `{workload}-{analysis}.trace.json`; [`run_matrix`] creates it. `None`
    /// disables tracing, which keeps the solver's recording paths true
    /// no-ops.
    pub trace_dir: Option<String>,
    /// Collect a per-rule profile per cell and embed it in the JSON rows.
    /// Profiling skews wall times, so profiled dumps are for rule-cost
    /// analysis, not timing.
    pub profile: bool,
    /// Taint-fixture groups injected into every workload (see
    /// `pta_workload::WorkloadConfig::taint_groups`). With a non-zero
    /// count, each cell also runs the `pta check` client suite against
    /// [`pta_workload::TAINT_SPEC`] (untimed, after the measured solves)
    /// and embeds the finding counts under `"clients"`. `0` (the default)
    /// leaves workloads and JSON rows unchanged.
    pub taint_groups: usize,
}

impl Default for MatrixOptions {
    fn default() -> Self {
        MatrixOptions {
            scale: 1.0,
            workloads: DACAPO_NAMES.iter().map(|s| s.to_string()).collect(),
            analyses: Analysis::TABLE1.to_vec(),
            repetitions: 3,
            jobs: 0,
            cell_timeout: None,
            max_memory: None,
            trace_dir: None,
            profile: false,
            taint_groups: 0,
        }
    }
}

impl MatrixOptions {
    /// Generates one named workload at the options' scale, with the
    /// options' taint fixtures injected.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a known DaCapo workload.
    #[must_use]
    pub fn generate_workload(&self, name: &str) -> Program {
        let mut cfg = pta_workload::dacapo_config(name, self.scale);
        cfg.taint_groups = self.taint_groups;
        pta_workload::generate(&cfg)
    }

    /// The number of worker threads the matrix will actually use: `jobs`,
    /// with `0` resolved to the core count.
    #[must_use]
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            self.jobs
        }
    }
}

/// Runs one `(program, analysis)` cell under `opts`, timing the solver
/// only (workload generation and metric computation excluded), median of
/// `opts.repetitions` runs.
///
/// Each repetition gets the options' deadline and memory budget, and the
/// shared `cancel` token if any (the matrix links one to SIGINT when a
/// timeout is configured). A repetition whose solve comes back partial is
/// retried once — on a loaded box the first trip is often transient
/// scheduling noise. If the retry is partial too, the cell stops burning
/// repetitions and its row is tagged [`CellStatus::Timeout`] (or
/// [`CellStatus::MemoryCap`]), carrying the metrics of the salvaged
/// partial result (every count under-approximates the true fixpoint).
///
/// With `opts.trace_dir` set, every repetition records into one timeline
/// written to `{dir}/{workload}-{analysis}.trace.json`; with
/// `opts.profile` the row embeds the final repetition's per-rule profile.
/// Both instruments skew wall times, so observed rows are diagnostics.
/// With `opts.taint_groups > 0` the `pta check` client suite runs against
/// the final repetition's result — after the clock stops, like the
/// precision metrics — and its finding counts land in the row's `clients`
/// column.
///
/// # Errors
///
/// Fails if the trace file cannot be written.
pub fn run_cell(
    opts: &MatrixOptions,
    workload: &str,
    program: &Program,
    analysis: Analysis,
    cancel: Option<&CancelToken>,
) -> io::Result<ExperimentRow> {
    let trace = if opts.trace_dir.is_some() {
        pta_obs::Trace::enabled()
    } else {
        pta_obs::Trace::disabled()
    };
    let solve = || {
        let start = Instant::now();
        let mut budget = Budget::unlimited();
        if let Some(deadline) = opts.cell_timeout {
            budget = budget.with_deadline(deadline);
        }
        if let Some(bytes) = opts.max_memory {
            budget = budget.with_max_memory(bytes);
        }
        let mut session = AnalysisSession::open(program.clone())
            .policy(analysis)
            .budget(budget)
            .trace(trace.clone())
            .profile(opts.profile);
        if let Some(token) = cancel {
            session = session.cancel(token.clone());
        }
        let result = session.solve();
        (start.elapsed().as_secs_f64(), result)
    };
    pta_govern::memtrack::reset_peak();
    let reps = opts.repetitions.max(1);
    let mut times = Vec::with_capacity(reps);
    let mut result = None;
    let mut status = CellStatus::Ok;
    let mut retried = false;
    for _ in 0..reps {
        let (mut secs, mut r) = solve();
        // A memory-cap trip is deterministic (the estimate is a model,
        // not wall-clock luck), so retrying it would only repeat the
        // same partial solve.
        let memory_capped =
            |r: &pta_core::PointsToResult| r.termination() == pta_govern::Termination::MemoryCap;
        if !r.termination().is_complete() && !memory_capped(&r) && !retried {
            retried = true;
            (secs, r) = solve();
        }
        let tripped = !r.termination().is_complete();
        let capped = memory_capped(&r);
        times.push(secs);
        result = Some(r);
        if tripped {
            status = if capped {
                CellStatus::MemoryCap
            } else {
                CellStatus::Timeout
            };
            break;
        }
    }
    // Read the high-water mark before the (allocation-heavy) metric
    // computation below, so the figure covers exactly the solves.
    let peak = pta_govern::memtrack::peak_bytes();
    times.sort_by(f64::total_cmp);
    let result = result.expect("at least one repetition");
    let m = precision_metrics(program, &result);
    let clients = (opts.taint_groups > 0).then(|| {
        let spec = CheckSpec::parse(TAINT_SPEC).expect("TAINT_SPEC is well-formed");
        client_metrics(&run_check(program, &result, &spec, ClientBackend::Direct))
    });
    if let Some(dir) = &opts.trace_dir {
        let path = format!("{dir}/{workload}-{}.trace.json", analysis.name());
        std::fs::write(&path, trace.to_chrome_json())
            .map_err(|e| io::Error::new(e.kind(), format!("cannot write {path}: {e}")))?;
    }
    Ok(ExperimentRow {
        workload: workload.to_owned(),
        analysis: analysis.name().to_owned(),
        status,
        reachable_methods: m.reachable_methods,
        avg_objs_per_var: m.avg_var_points_to,
        call_graph_edges: m.call_graph_edges,
        poly_v_calls: m.poly_virtual_calls,
        reachable_v_calls: m.reachable_virtual_calls,
        may_fail_casts: m.may_fail_casts,
        reachable_casts: m.reachable_casts,
        time_secs: times[times.len() / 2],
        sensitive_var_points_to: m.ctx_var_points_to,
        contexts: m.contexts,
        heap_contexts: m.heap_contexts,
        uncaught_exception_sites: m.uncaught_exception_sites,
        stats: *result.solver_stats(),
        profile: result.profile().cloned(),
        clients,
        peak_rss_bytes: (peak > 0).then_some(peak),
    })
}

fn log_cell(row: &ExperimentRow) {
    eprintln!(
        "[pta-bench]   {:>10} {:>10}  {:>8.3}s  vpt {:>10}  casts {}/{}{}",
        row.workload,
        row.analysis,
        row.time_secs,
        row.sensitive_var_points_to,
        row.may_fail_casts,
        row.reachable_casts,
        if row.status == CellStatus::Timeout {
            "  TIMEOUT (partial)"
        } else {
            ""
        }
    );
}

/// Runs the full matrix described by `opts`, printing progress to stderr.
///
/// With `jobs > 1` (or `jobs == 0` on a multi-core box), `(workload,
/// analysis)` cells are farmed out to worker threads pulling from a shared
/// queue. Workloads are generated once up front and shared read-only; each
/// cell is still timed with [`run_cell`], and the returned rows are in
/// workload-major, analysis-minor order regardless of which worker finished
/// first — identical to the sequential order, so `pta table1`, `figure3`
/// and `summary` render the same layout either way.
///
/// # Errors
///
/// Fails if `opts.trace_dir` cannot be created or a trace file cannot be
/// written; the sequential driver stops at the first failure, the parallel
/// one finishes the claimed cells and reports the first failure in order.
pub fn run_matrix(opts: &MatrixOptions) -> io::Result<Vec<ExperimentRow>> {
    let cells: Vec<(usize, usize)> = (0..opts.workloads.len())
        .flat_map(|w| (0..opts.analyses.len()).map(move |a| (w, a)))
        .collect();
    // One SIGINT-linked token shared by every cell: with a per-cell
    // deadline configured, ctrl-c drains the matrix into timeout rows
    // instead of killing the process mid-dump.
    let cancel = opts
        .cell_timeout
        .is_some()
        .then(CancelToken::linked_to_sigint);
    if let Some(dir) = &opts.trace_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| io::Error::new(e.kind(), format!("cannot create {dir}: {e}")))?;
    }
    let jobs = opts.effective_jobs().min(cells.len()).max(1);
    if jobs == 1 {
        let mut rows = Vec::with_capacity(cells.len());
        for name in &opts.workloads {
            let program = opts.generate_workload(name);
            eprintln!("[pta-bench] {name}: {}", ProgramStats::of(&program));
            for &analysis in &opts.analyses {
                let row = run_cell(opts, name, &program, analysis, cancel.as_ref())?;
                log_cell(&row);
                rows.push(row);
            }
        }
        return Ok(rows);
    }

    let programs: Vec<Program> = opts
        .workloads
        .iter()
        .map(|name| {
            let program = opts.generate_workload(name);
            eprintln!("[pta-bench] {name}: {}", ProgramStats::of(&program));
            program
        })
        .collect();
    eprintln!("[pta-bench] {} cells on {jobs} workers", cells.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<io::Result<ExperimentRow>>>> =
        cells.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(w, a)) = cells.get(i) else {
                    break;
                };
                let row = run_cell(
                    opts,
                    &opts.workloads[w],
                    &programs[w],
                    opts.analyses[a],
                    cancel.as_ref(),
                );
                if let Ok(row) = &row {
                    log_cell(row);
                }
                *slots[i].lock().expect("no panics while holding the slot") = Some(row);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("worker panics propagate out of the scope")
                .expect("every cell index was claimed and filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pta_workload::dacapo_workload;

    /// Options for a lone [`run_cell`]: `reps` repetitions, nothing else.
    fn reps(n: usize) -> MatrixOptions {
        MatrixOptions {
            repetitions: n,
            ..MatrixOptions::default()
        }
    }

    #[test]
    fn run_cell_produces_consistent_row() {
        let program = dacapo_workload("luindex", 0.15);
        let row = run_cell(&reps(1), "luindex", &program, Analysis::OneObj, None).unwrap();
        assert_eq!(row.workload, "luindex");
        assert_eq!(row.analysis, "1obj");
        assert!(row.reachable_methods > 0);
        assert!(row.sensitive_var_points_to > 0);
        assert!(row.may_fail_casts <= row.reachable_casts);
        assert!(row.poly_v_calls <= row.reachable_v_calls);
        assert!(row.time_secs >= 0.0);
    }

    #[test]
    fn taint_groups_populate_client_columns() {
        let opts = MatrixOptions {
            scale: 0.1,
            workloads: vec!["luindex".into()],
            analyses: vec![Analysis::OneObj, Analysis::SAOneObj],
            jobs: 1,
            taint_groups: 2,
            ..reps(1)
        };
        let rows = run_matrix(&opts).unwrap();
        let pure = rows[0].clients.expect("clients column populated");
        let hybrid = rows[1].clients.expect("clients column populated");
        // The injected fixtures make the hybrid's advantage visible on
        // every client: SA-1obj reports no more findings than 1obj.
        assert!(
            hybrid.taint_findings < pure.taint_findings,
            "{hybrid:?} vs {pure:?}"
        );
        assert!(
            hybrid.escape_findings < pure.escape_findings,
            "{hybrid:?} vs {pure:?}"
        );
        assert!(
            hybrid.nullness_findings < pure.nullness_findings,
            "{hybrid:?} vs {pure:?}"
        );
        // The column round-trips through the JSON dump and its validator.
        let dump = rows_to_json(&rows);
        let doc = pta_obs::json::parse(&dump).unwrap();
        json::validate_rows(&doc).unwrap();
        assert!(dump.contains("\"clients\""), "{dump}");
        // Without fixtures the column stays absent.
        let plain = run_cell(
            &reps(1),
            "luindex",
            &dacapo_workload("luindex", 0.1),
            Analysis::OneObj,
            None,
        )
        .unwrap();
        assert!(plain.clients.is_none());
        assert!(!plain.to_json().contains("clients"));
    }

    #[test]
    fn matrix_runs_a_small_subset() {
        let opts = MatrixOptions {
            scale: 0.15,
            workloads: vec!["antlr".into()],
            analyses: vec![Analysis::Insens, Analysis::STwoObjH],
            jobs: 1,
            ..reps(1)
        };
        let rows = run_matrix(&opts).unwrap();
        assert_eq!(rows.len(), 2);
        // Context-sensitivity is more precise than insens on every metric.
        assert!(rows[1].may_fail_casts <= rows[0].may_fail_casts);
        assert!(rows[1].call_graph_edges <= rows[0].call_graph_edges);
        // Counters are always on: the timed run fired real rules.
        assert!(rows[0].stats.vpt_inserted > 0);
        assert!(rows[1].stats.fire_vcall_dispatch > 0);
    }

    #[test]
    fn parallel_matrix_matches_sequential_order_and_results() {
        let mut opts = MatrixOptions {
            scale: 0.15,
            workloads: vec!["luindex".into(), "lusearch".into()],
            analyses: vec![Analysis::Insens, Analysis::OneObj, Analysis::STwoObjH],
            jobs: 1,
            ..reps(1)
        };
        let sequential = run_matrix(&opts).unwrap();
        opts.jobs = 4;
        let parallel = run_matrix(&opts).unwrap();
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.workload, p.workload);
            assert_eq!(s.analysis, p.analysis);
            // The analysis is deterministic, so everything but wall time
            // must agree bit-for-bit across drivers.
            assert_eq!(s.sensitive_var_points_to, p.sensitive_var_points_to);
            assert_eq!(s.call_graph_edges, p.call_graph_edges);
            assert_eq!(s.may_fail_casts, p.may_fail_casts);
            assert_eq!(s.stats, p.stats);
        }
    }

    #[test]
    fn timed_out_cells_are_tagged_and_salvage_the_partial_run() {
        let program = dacapo_workload("hsqldb", 0.3);
        // A microsecond deadline trips on the meter's first clock read, on
        // both the initial attempt and the retry.
        let opts = MatrixOptions {
            cell_timeout: Some(Duration::from_micros(1)),
            ..reps(3)
        };
        let row = run_cell(&opts, "hsqldb", &program, Analysis::TwoObjH, None).unwrap();
        assert_eq!(row.status, CellStatus::Timeout);
        assert!(row.to_json().contains("\"status\":\"timeout\""));
        // The timeout short-circuits the remaining repetitions, and the
        // salvaged partial numbers under-approximate a complete run.
        let complete = run_cell(&reps(1), "hsqldb", &program, Analysis::TwoObjH, None).unwrap();
        assert_eq!(complete.status, CellStatus::Ok);
        assert!(row.reachable_methods <= complete.reachable_methods);
        assert!(row.sensitive_var_points_to <= complete.sensitive_var_points_to);
    }

    #[test]
    fn a_shared_cancellation_turns_cells_into_timeout_rows() {
        let token = CancelToken::new();
        token.cancel();
        let program = dacapo_workload("antlr", 0.15);
        let row = run_cell(
            &reps(2),
            "antlr",
            &program,
            Analysis::STwoObjH,
            Some(&token),
        )
        .unwrap();
        assert_eq!(row.status, CellStatus::Timeout);
    }

    #[test]
    fn a_roomy_cell_timeout_changes_nothing() {
        let program = dacapo_workload("luindex", 0.15);
        let opts = MatrixOptions {
            cell_timeout: Some(Duration::from_secs(600)),
            ..reps(1)
        };
        let governed = run_cell(&opts, "luindex", &program, Analysis::OneObj, None).unwrap();
        let plain = run_cell(&reps(1), "luindex", &program, Analysis::OneObj, None).unwrap();
        assert_eq!(governed.status, CellStatus::Ok);
        assert_eq!(
            governed.sensitive_var_points_to,
            plain.sensitive_var_points_to
        );
        assert_eq!(governed.may_fail_casts, plain.may_fail_casts);
        assert_eq!(governed.stats, plain.stats);
    }

    #[test]
    fn rows_serialize_to_json() {
        let program = dacapo_workload("luindex", 0.15);
        let row = run_cell(&reps(1), "luindex", &program, Analysis::OneCall, None).unwrap();
        let json = row.to_json();
        assert!(json.contains("\"analysis\":\"1call\""));
        assert!(json.contains("\"status\":\"ok\""));
        assert!(json.contains("\"stats\":{\"vpt_inserted\":"));
        assert!(json.starts_with('{') && json.ends_with('}'));
        let arr = rows_to_json(std::slice::from_ref(&row));
        assert!(arr.starts_with('[') && arr.trim_end().ends_with(']'));
    }

    #[test]
    fn profiled_cells_embed_the_rule_table() {
        let program = dacapo_workload("luindex", 0.15);
        let opts = MatrixOptions {
            profile: true,
            ..reps(1)
        };
        let row = run_cell(&opts, "luindex", &program, Analysis::OneObj, None).unwrap();
        let p = row
            .profile
            .as_ref()
            .expect("profiled cell carries a profile");
        assert!(p.rules.iter().any(|r| r.name == "alloc" && r.fires > 0));
        let json = row.to_json();
        assert!(json.contains(",\"profile\":{\"rules\":[{\"name\":\"alloc\","));
        assert!(json.ends_with("}}"));
        // An unprofiled cell stays lean.
        let plain = run_cell(&reps(1), "luindex", &program, Analysis::OneObj, None).unwrap();
        assert!(plain.profile.is_none());
        assert!(!plain.to_json().contains("\"profile\""));
    }

    #[test]
    fn trace_dir_writes_one_timeline_per_cell() {
        let dir = std::env::temp_dir().join(format!("pta-bench-traces-{}", std::process::id()));
        let opts = MatrixOptions {
            scale: 0.15,
            workloads: vec!["luindex".into()],
            analyses: vec![Analysis::OneObj, Analysis::Insens],
            jobs: 1,
            trace_dir: Some(dir.to_string_lossy().into_owned()),
            ..reps(1)
        };
        let rows = run_matrix(&opts).unwrap();
        assert_eq!(rows.len(), 2);
        for analysis in ["1obj", "insens"] {
            let path = dir.join(format!("luindex-{analysis}.trace.json"));
            let source = std::fs::read_to_string(&path).expect("trace file written");
            let doc = pta_obs::json::parse(&source).expect("trace file is valid JSON");
            let events = doc
                .get("traceEvents")
                .and_then(pta_obs::json::Value::as_array)
                .expect("trace carries a traceEvents array");
            assert!(!events.is_empty(), "timeline for {analysis} has events");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
    }
}
