//! `pta` — command-line driver for the hybrid points-to analysis.
//!
//! ```text
//! pta list                               list available analyses
//! pta analyze FILE.jir [options]         analyze a .jir program
//!     --analysis NAME      analysis to run (repeatable; default S-2obj+H)
//!     --metrics            print the full Table 1 metric set
//!     --points-to VAR      print the points-to set of every local named VAR
//!     --explain VAR        explain each object VAR may point to (derivation
//!                          chains back to the allocation)
//!     --casts              print may-fail cast warnings
//!     --devirt             print polymorphic virtual call sites
//!     --exceptions         print exception sites that may escape main
//!     --hot                print the context/tuple distribution and the
//!                          methods dominating analysis cost
//!     --stats              print the solver's internal counters (rule
//!                          firings, dedup traffic, worklist shape)
//!     --format text|json   output format (default text); json emits one
//!                          object per analysis with any --metrics under
//!                          "metrics" and any --stats under "stats"
//!     --datalog            evaluate on the Datalog back end instead
//!     --timeout SECS       wall-clock budget (float); on expiry the run
//!                          stops cooperatively with a tagged partial result
//!     --max-steps N        fixpoint-step budget (engine rounds on --datalog)
//!     --max-memory BYTES   interned-key/tuple memory budget (K/M/G suffixes)
//!     --watermark N        per-method context fan-out watermark used by
//!                          --degrade (default 16)
//!     --degrade            on budget exhaustion, demote high-fan-out
//!                          methods to the context-insensitive constructor
//!                          and keep going instead of stopping (specialized
//!                          solver only); each demoted method is reported
//!                          as a W007 diagnostic
//!     --trace FILE         record a Chrome trace-event timeline (session
//!                          phases, per-rule spans) and write it to FILE;
//!                          load in Perfetto or chrome://tracing
//!     --profile            collect and print the per-rule evaluation
//!                          profile (fires, derived tuples, cumulative ms)
//!                          and the hottest variables by set size; rides
//!                          under "profile" with --format json
//!     --no-share           disable hash-consing of large points-to sets
//!                          (differential debugging; results are identical,
//!                          only memory and the sets_* counters change)
//! pta explain FILE.jir VAR OBJ [--analysis NAME]
//!                                        run one analysis with provenance
//!                                        tracking and print the derivation
//!                                        chain for why VAR may point to the
//!                                        allocation site labeled OBJ
//! pta workload NAME [--scale S] [--print]
//!                                        generate a synthetic DaCapo
//!                                        workload; --print emits it as .jir
//! pta update FILE.jir [options]          replay a deterministic edit stream
//!                                        against a long-lived session and
//!                                        byte-compare the incrementally
//!                                        maintained result with a
//!                                        from-scratch solve after every edit
//!                                        (exit 0 when every step is
//!                                        identical, 1 on the first
//!                                        divergence)
//!     --workload NAME:SCALE edit a synthetic workload instead of a file
//!     --edits N            number of edits to replay (default 5)
//!     --seed S             edit-stream RNG seed (default 1)
//!     --analysis NAME      policy to maintain (repeatable; default S-2obj+H)
//!     --datalog            maintain on the Datalog back end instead
//! pta lint FILE.jir [options]            check a .jir program without
//!                                        running any analysis
//!     --format text|json   output format (default text)
//!     --deny-warnings      exit non-zero on warnings, not just errors
//!     --explain CODE       describe a diagnostic code (e.g. W003) and exit
//! pta serve [FILE.jir ...] [options]     resident analysis daemon: load the
//!                                        given programs, solve each --policy
//!                                        once, then answer line-delimited
//!                                        JSON queries on stdin/stdout (and
//!                                        --port) until shutdown (README
//!                                        "Serving" has the protocol grammar)
//!     --workload NAME:SCALE load a synthetic workload instead of (or along
//!                          with) .jir files (repeatable, as are files)
//!     --policy NAME        policy to solve at startup (repeatable; default
//!                          insens; queries name one of these)
//!     --workers N          request worker pool size (default 2)
//!     --queue N            admission queue capacity (default 64); beyond
//!                          it requests are shed with an `overloaded` error
//!     --deadline-ms N      default per-request deadline (requests may
//!                          override with their own "deadline_ms")
//!     --drain-ms N         shutdown drain deadline (default 2000); if
//!                          in-flight work outlives it, exit 3 instead of 0
//!     --solve-timeout SECS / --solve-max-steps N / --solve-max-memory B
//!                          startup solve budget; a tripped policy answers
//!                          from the insens fallback with "partial": true
//!     --port N             also listen on 127.0.0.1:N (0 = OS-assigned)
//!     --port-file PATH     write the bound port to PATH once listening
//!     --no-stdin           TCP only; don't serve (or watch EOF on) stdin
//!     --inject-faults R,K  fault injection: rate R in [0,1] and `+`-joined
//!                          kinds from delay|cancel|exhaust|garble
//!     --fault-seed N       injection decision seed (default 0)
//!     --no-share           disable hash-consed sets in startup solves
//!     --trace FILE         Chrome trace of the request lifecycle
//!     --metrics-addr H:P   serve Prometheus text at http://H:P/metrics
//!                          (port 0 = OS-assigned); the `metrics` op
//!                          answers over the protocol regardless
//!     --metrics-port-file PATH  write the bound metrics port to PATH
//!     --events FILE        append one JSON line per lifecycle event
//!                          (start, solves, requests, sheds, shutdown)
//! pta check FILE.jir [options]           run the client-analysis suite
//!                                        (taint W020, escape W021,
//!                                        nullness W022) over one analysis
//!     --spec FILE          source/sink/sanitizer spec for the taint client
//!                          (see DESIGN.md §12; without it taint reports
//!                          nothing, escape and nullness still run)
//!     --analysis NAME      points-to policy to run under (default S-2obj+H)
//!     --format text|json   output format (default text); json emits the
//!                          findings through the lint diagnostic renderer,
//!                          byte-identical across back ends
//!     --client-backend B   direct | datalog | both (default both: evaluate
//!                          the Rust fixpoints AND the Datalog client rules
//!                          and assert they agree finding-for-finding)
//!     --datalog            compute the points-to result on the Datalog
//!                          back end instead of the specialized solver
//!     --deny-findings      exit 1 when any finding is reported
//!     --timeout/--max-steps/--max-memory/--watermark/--degrade
//!                          as for analyze; a partial result tags every
//!                          report with W023 and exits 3
//!
//! Exit codes (all subcommands; table also in the README):
//!   0  success — analysis ran to completion (including degraded-complete
//!      runs under --degrade), lint/check found nothing to report (or
//!      check found findings without --deny-findings)
//!   1  lint diagnostics reported (errors, or warnings under
//!      --deny-warnings); check spec errors (E020/E021) or findings under
//!      --deny-findings
//!   2  usage, I/O or parse error (bad flag, unreadable file, invalid .jir)
//!   3  partial analysis result — a budget tripped (or SIGINT landed) and
//!      the run stopped early with a sound under-approximation, tagged via
//!      "termination" (analyze) or a W023 diagnostic (check); for serve,
//!      shutdown had to force-cancel in-flight requests after the drain
//!      deadline (clean drains exit 0)
//!
//! The diagnostic code index lives in the README and in
//! `pta_lint::code_description`.
//! ```

use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use pta_clients::{
    context_stats, may_fail_casts, poly_virtual_calls, precision_metrics, run_check, CheckSpec,
    ClientBackend,
};
use pta_core::{Analysis, AnalysisSession, Backend, Budget, CancelToken, PointsToResult, Trace};
use pta_govern::parse_byte_size;
use pta_ir::Program;
use pta_lang::{parse_program, print_program};
use pta_lint::Diagnostic;
use pta_serve::{FaultInjector, ProgramSource, ServeConfig};
use pta_workload::{check_name, dacapo_config, dacapo_workload, generate, parse_scale, EditStream};

/// Count heap usage so `--stats` can report `peak_rss_bytes` exactly
/// (see `pta_govern::memtrack`); delegates to the system allocator.
#[global_allocator]
static ALLOC: pta_govern::memtrack::CountingAlloc = pta_govern::memtrack::CountingAlloc;

/// Exit code for usage, I/O and parse errors (see the module docs).
const EXIT_USAGE: u8 = 2;
/// Exit code for a budget-tripped (or cancelled) partial result.
const EXIT_PARTIAL: u8 = 3;

/// A subcommand's outcome. `Err` carries the exit code of a failure
/// whose diagnostic is already printed, so `?` ends the subcommand.
type Exit = Result<ExitCode, ExitCode>;

/// Report a usage problem (unknown flag, bad flag value, invalid flag
/// combination) as a structured `E030` diagnostic and return the usage
/// exit code. Every flag error in the driver funnels through here so even
/// CLI misuse is machine-parseable (`pta lint --explain E030`).
fn usage_error(message: impl Into<String>) -> ExitCode {
    eprintln!("{}", Diagnostic::error("E030", message));
    ExitCode::from(EXIT_USAGE)
}

/// [`usage_error`] followed by the subcommand's usage line.
fn usage_with(message: impl Into<String>, usage: &str) -> ExitCode {
    let exit = usage_error(message);
    eprintln!("{usage}");
    exit
}

/// Report an I/O problem (unreadable input, unwritable output) as a
/// structured `E031` diagnostic and return the usage exit code.
fn io_error(message: impl Into<String>) -> ExitCode {
    eprintln!("{}", Diagnostic::error("E031", message));
    ExitCode::from(EXIT_USAGE)
}

/// Reads and parses a `.jir` file. An unreadable file is `E031`; a
/// malformed one gets the E007/E008 diagnostics `pta lint` emits, tagged
/// with the path. Returns the program and its source text.
fn load_program(path: &str) -> Result<(Program, String), ExitCode> {
    let source =
        std::fs::read_to_string(path).map_err(|e| io_error(format!("cannot read {path}: {e}")))?;
    let program = parse_program(&source).map_err(|e| {
        eprintln!("{}", pta_lint::diagnose_lang_error(&e).with_context(path));
        ExitCode::from(EXIT_USAGE)
    })?;
    Ok((program, source))
}

/// Prints diagnostics in the `--format` the user chose.
fn print_diagnostics(diags: &[Diagnostic], json: bool) {
    if json {
        print!("{}", pta_lint::render_json(diags));
    } else {
        print!("{}", pta_lint::render_text(diags));
    }
}

/// A cursor over one subcommand's arguments: the driver's one flag
/// parser. Every value check reports "FLAG needs WHAT" as an `E030`.
struct Args<'a> {
    args: &'a [String],
    i: usize,
}

impl Args<'_> {
    /// Offers every argument to `take`, which reads any value through the
    /// cursor and returns whether it took the argument, or `Err(code)` to
    /// end the subcommand at once. An argument nothing takes is an unknown
    /// flag, reported with the usage line.
    fn walk(
        args: &[String],
        usage: &str,
        mut take: impl FnMut(&mut Args<'_>) -> Result<bool, ExitCode>,
    ) -> Result<(), ExitCode> {
        let mut c = Args { args, i: 0 };
        while c.i < args.len() {
            if !take(&mut c)? {
                return Err(usage_with(format!("unknown flag {}", c.flag()), usage));
            }
            c.i += 1;
        }
        Ok(())
    }

    /// The argument under the cursor.
    fn flag(&self) -> &str {
        &self.args[self.i]
    }

    /// Moves onto the flag's value and maps it with `map`; a missing or
    /// rejected value is the usage error "FLAG needs WHAT".
    fn read<T>(&mut self, what: &str, map: impl FnOnce(&str) -> Option<T>) -> Result<T, ExitCode> {
        let flag = self.flag().to_owned();
        self.i += 1;
        self.args
            .get(self.i)
            .and_then(|v| map(v))
            .ok_or_else(|| usage_error(format!("{flag} needs {what}")))
    }

    /// The flag's value parsed as `T` and accepted by `ok`.
    fn value<T: FromStr>(&mut self, what: &str, ok: impl Fn(&T) -> bool) -> Result<T, ExitCode> {
        self.read(what, |v| v.parse().ok().filter(|t| ok(t)))
    }

    /// The flag's value as text.
    fn text(&mut self, what: &str) -> Result<String, ExitCode> {
        self.read(what, |v| Some(v.to_owned()))
    }

    /// The flag's value looked up in `choices`.
    fn choose<T: Copy>(&mut self, what: &str, choices: &[(&str, T)]) -> Result<T, ExitCode> {
        self.read(what, |v| {
            choices.iter().find(|(name, _)| *name == v).map(|&(_, t)| t)
        })
    }

    /// `--format text|json`; true for json.
    fn format(&mut self) -> Result<bool, ExitCode> {
        self.choose("`text` or `json`", &[("text", false), ("json", true)])
    }

    /// A budget deadline: positive seconds, at most 1e9 (larger values
    /// overflow `Duration`).
    fn seconds(&mut self) -> Result<Duration, ExitCode> {
        self.value("a positive number of seconds (at most 1e9)", |s: &f64| {
            *s > 0.0 && s.is_finite() && *s <= 1e9
        })
        .map(Duration::from_secs_f64)
    }

    /// A step budget or watermark: a positive integer.
    fn positive<T: FromStr + PartialOrd + From<u8>>(&mut self) -> Result<T, ExitCode> {
        self.value("a positive integer", |n: &T| *n > T::from(0))
    }

    /// A memory budget: a positive byte size with an optional K/M/G suffix.
    fn byte_size(&mut self) -> Result<u64, ExitCode> {
        let flag = self.flag().to_owned();
        match self.read("a byte size (e.g. 64M)", |v| Some(parse_byte_size(v)))? {
            Ok(bytes) if bytes > 0 => Ok(bytes),
            Ok(_) => Err(usage_error(format!("{flag} needs a byte size (e.g. 64M)"))),
            Err(e) => Err(usage_error(format!("{flag}: {e}"))),
        }
    }
}

/// The subcommand's leading positional argument, which must come first.
fn leading<'a>(args: &'a [String], what: &str, usage: &str) -> Result<&'a str, ExitCode> {
    args.first()
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| usage_with(format!("expected {what} as the first argument"), usage))
}

/// Which of the shared analysis flags a subcommand takes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Takes {
    /// `--analysis` (explain).
    Policy,
    /// `--analysis` and `--datalog` (update).
    Backend,
    /// Those, `--format`, and the budget flags (analyze, check).
    All,
}

/// The flags the solving subcommands share, parsed in one place: which
/// policies to run, on which back end, under which budget, and the
/// output format.
#[derive(Default)]
struct AnalysisArgs {
    /// Every `--analysis`, in order; `S-2obj+H` when none is given.
    analyses: Vec<Analysis>,
    datalog: bool,
    json: bool,
    budget: Budget,
    degrade: bool,
    /// SIGINT cancellation for governed runs, made with the first session.
    cancel: Option<CancelToken>,
}

impl AnalysisArgs {
    /// Parses a subcommand's arguments: the shared flags it `takes` here,
    /// everything else through `own` (see [`Args::walk`]).
    fn parse(
        takes: Takes,
        args: &[String],
        usage: &str,
        mut own: impl FnMut(&mut Args<'_>) -> Result<bool, ExitCode>,
    ) -> Result<AnalysisArgs, ExitCode> {
        let mut parsed = AnalysisArgs::default();
        Args::walk(args, usage, |c| Ok(parsed.take(takes, c)? || own(c)?))?;
        if parsed.degrade && parsed.datalog {
            return Err(usage_error(
                "--degrade requires the specialized solver (drop --datalog); \
                 the Datalog back end stops with a partial result instead",
            ));
        }
        if parsed.analyses.is_empty() {
            parsed.analyses.push(Analysis::STwoObjH);
        }
        Ok(parsed)
    }

    fn take(&mut self, takes: Takes, c: &mut Args<'_>) -> Result<bool, ExitCode> {
        let all = takes == Takes::All;
        match c.flag() {
            "--analysis" => self
                .analyses
                .push(c.value("a known name (try `pta list`)", |_| true)?),
            "--datalog" if takes != Takes::Policy => self.datalog = true,
            "--format" if all => self.json = c.format()?,
            "--timeout" if all => self.budget.deadline = Some(c.seconds()?),
            "--max-steps" if all => self.budget.max_steps = Some(c.positive()?),
            "--max-memory" if all => self.budget.max_memory_bytes = Some(c.byte_size()?),
            "--watermark" if all => self.budget.watermark = Some(c.positive()?),
            "--degrade" if all => self.degrade = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Takes every `--analysis`, in order (analyze and update repeat it).
    fn policies(&mut self) -> Vec<Analysis> {
        std::mem::take(&mut self.analyses)
    }

    /// The last `--analysis` (check and explain run one policy).
    fn policy(&self) -> Analysis {
        *self.analyses.last().expect("parse supplies the default")
    }

    /// A session solving `program` under `policy` with the parsed back
    /// end, budget and degrade mode. Governed runs get cooperative ctrl-c:
    /// SIGINT flips the token and the solver stops at the next batch
    /// boundary with a tagged partial result. Ungoverned runs keep the
    /// zero-overhead path (and default SIGINT).
    fn session(&mut self, program: Program, policy: Analysis) -> AnalysisSession {
        if (!self.budget.is_unlimited() || self.degrade) && self.cancel.is_none() {
            self.cancel = Some(CancelToken::linked_to_sigint());
        }
        let session = AnalysisSession::open(program)
            .policy(policy)
            .backend(if self.datalog {
                Backend::Datalog
            } else {
                Backend::Dense
            })
            .budget(self.budget.clone())
            .degrade(self.degrade);
        match &self.cancel {
            Some(token) => session.cancel(token.clone()),
            None => session,
        }
    }
}

const USAGE: &str = "usage: pta <list|analyze|explain|workload|update|lint|check|serve> ...  \
(see --help in the README)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("available analyses (paper name — description):");
            for a in Analysis::ALL {
                println!("  {:>10} — {}", a.name(), describe(a));
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("analyze") => cmd_analyze(rest),
        Some("explain") => cmd_explain(rest),
        Some("workload") => cmd_workload(rest),
        Some("update") => cmd_update(rest),
        Some("lint") => cmd_lint(rest),
        Some("check") => cmd_check(rest),
        Some("serve") => cmd_serve(rest),
        Some(other) => Err(usage_with(format!("unknown subcommand {other}"), USAGE)),
        None => Err(usage_with("missing subcommand", USAGE)),
    }
    .unwrap_or_else(|code| code)
}

fn describe(a: Analysis) -> &'static str {
    match a {
        Analysis::Insens => "context-insensitive Andersen-style baseline",
        Analysis::OneCall => "1-call-site-sensitive (kCFA, k=1)",
        Analysis::OneCallH => "1call with a call-site-sensitive heap",
        Analysis::TwoCallH => "2-call-site-sensitive with 1-ctx heap (ablation)",
        Analysis::OneObj => "1-object-sensitive",
        Analysis::UOneObj => "uniform 1-object hybrid (receiver + call site)",
        Analysis::SAOneObj => "selective hybrid A: call site replaces ctx at static calls",
        Analysis::SBOneObj => "selective hybrid B: call site extends ctx at static calls",
        Analysis::OneObjH => "1obj with context-sensitive heap (paper: strictly inferior)",
        Analysis::TwoObjH => "2-object-sensitive with context-sensitive heap",
        Analysis::UTwoObjH => "uniform 2-object hybrid",
        Analysis::STwoObjH => "selective 2-object hybrid (the paper's sweet spot)",
        Analysis::TwoTypeH => "2-type-sensitive with context-sensitive heap",
        Analysis::UTwoTypeH => "uniform 2-type hybrid",
        Analysis::STwoTypeH => "selective 2-type hybrid",
        Analysis::TwoObj2H => "2-object with 2-deep heap context (extension)",
        Analysis::ThreeObj2H => "3-object with 2-deep heap context (extension)",
        Analysis::SThreeObj2H => "selective 3-object hybrid (extension)",
    }
}

const ANALYZE_USAGE: &str = "usage: pta analyze FILE.jir [--analysis NAME] [--format text|json] \
[--metrics] [--stats] [--points-to VAR] [--explain VAR] [--casts] [--devirt] [--exceptions] \
[--hot] [--datalog] [--timeout SECS] [--max-steps N] [--max-memory BYTES] [--watermark N] \
[--degrade] [--trace FILE] [--profile] [--no-share]";

fn cmd_analyze(args: &[String]) -> Exit {
    let path = leading(args, "FILE.jir", ANALYZE_USAGE)?;
    let mut metrics = false;
    let mut hot = false;
    let mut casts = false;
    let mut devirt = false;
    let mut exceptions = false;
    let mut stats = false;
    let mut points_to: Vec<String> = Vec::new();
    let mut explain: Vec<String> = Vec::new();
    let mut trace_path: Option<String> = None;
    let mut profile = false;
    let mut share = true;
    let mut shared = AnalysisArgs::parse(Takes::All, &args[1..], ANALYZE_USAGE, |c| {
        match c.flag() {
            "--points-to" => points_to.push(c.text("a variable name")?),
            "--explain" => explain.push(c.text("a variable name")?),
            "--trace" => trace_path = Some(c.text("an output file path")?),
            "--profile" => profile = true,
            "--no-share" => share = false,
            "--metrics" => metrics = true,
            "--stats" => stats = true,
            "--hot" => hot = true,
            "--casts" => casts = true,
            "--devirt" => devirt = true,
            "--exceptions" => exceptions = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let (datalog, json) = (shared.datalog, shared.json);
    // The trace recorder exists before the file is read so session setup
    // (parse, IR construction) lands on the timeline too. A disabled
    // trace (no --trace flag) makes every recording call a no-op.
    let trace = if trace_path.is_some() {
        Trace::enabled()
    } else {
        Trace::disabled()
    };
    let mut ts = trace.scope_named(0, "main");
    let t_parse = ts.now_ns();
    let (program, source) = load_program(path)?;
    if ts.is_enabled() {
        let t_end = ts.now_ns();
        ts.complete(
            "parse",
            "session",
            t_parse,
            t_end - t_parse,
            &[("bytes", source.len() as u64)],
        );
    }
    if json {
        // The flags below produce free-form text walks (derivations, cast
        // listings, …) with no JSON rendering; refuse rather than silently
        // drop them from the output.
        for (flag, used) in [
            ("--points-to", !points_to.is_empty()),
            ("--explain", !explain.is_empty()),
            ("--hot", hot),
            ("--casts", casts),
            ("--devirt", devirt),
            ("--exceptions", exceptions),
        ] {
            if used {
                return Err(usage_error(format!(
                    "{flag} has no JSON rendering; drop it or use --format text"
                )));
            }
        }
    }

    // Keep each (analysis, result) alive until the end so JSON reports can
    // borrow them and print as one array.
    let mut runs: Vec<(Analysis, f64, PointsToResult)> = Vec::new();
    let mut any_partial = false;
    if datalog && !explain.is_empty() {
        return Err(usage_error(
            "--explain requires the specialized solver (drop --datalog)",
        ));
    }
    for analysis in shared.policies() {
        let start = std::time::Instant::now();
        let mut session = shared
            .session(program.clone(), analysis)
            .keep_tuples(hot)
            .track_provenance(!explain.is_empty())
            .trace(trace.clone())
            .profile(profile)
            .share(share);
        let t_run = ts.now_ns();
        let result: PointsToResult = session.solve();
        let elapsed = start.elapsed();
        if ts.is_enabled() {
            let t_end = ts.now_ns();
            ts.complete(
                &format!("analysis {analysis}"),
                "session",
                t_run,
                t_end - t_run,
                &[],
            );
        }
        any_partial |= !result.termination().is_complete();
        if json {
            runs.push((analysis, elapsed.as_secs_f64(), result));
            continue;
        }
        println!(
            "== {analysis} ({}; {elapsed:.2?}): {} reachable methods, {} call-graph edges",
            if datalog {
                "datalog back end"
            } else {
                "specialized solver"
            },
            result.reachable_method_count(),
            result.call_graph_edge_count(),
        );
        if !result.termination().is_complete() {
            println!(
                "   PARTIAL RESULT: budget exhausted ({}); points-to sets are a sound prefix of the fixpoint",
                result.termination()
            );
        }
        if !result.demoted_sites().is_empty() {
            println!(
                "   degraded: {} method(s) demoted to context-insensitive:",
                result.demoted_sites().len()
            );
            for d in result.demoted_sites() {
                // Demotions surface as structured W007 diagnostics so text
                // consumers can grep them like any other toolchain finding.
                let diag = Diagnostic::warning(
                    "W007",
                    format!(
                        "demoted to context-insensitive: context fan-out {} crossed the watermark",
                        d.fanout
                    ),
                )
                .with_context(program.method_qualified_name(d.method));
                println!("     {diag}");
            }
        }
        if metrics {
            let m = precision_metrics(&program, &result);
            println!(
                "   avg objs/var {:.2} | poly v-calls {}/{} | may-fail casts {}/{} | sensitive vpt {} | ctxs {} | hctxs {}",
                m.avg_var_points_to,
                m.poly_virtual_calls,
                m.reachable_virtual_calls,
                m.may_fail_casts,
                m.reachable_casts,
                m.ctx_var_points_to,
                m.contexts,
                m.heap_contexts,
            );
        }
        if stats {
            println!("   solver counters:");
            println!("{}", result.solver_stats());
            println!(
                "  {:<20} {}",
                "peak_rss_bytes",
                pta_govern::memtrack::peak_bytes()
            );
        }
        if profile {
            match result.profile() {
                Some(p) => print!("{}", p.render_text(10)),
                None => println!("   (no profile recorded)"),
            }
        }
        for name in &points_to {
            print_points_to(&program, &result, name);
        }
        for name in &explain {
            explain_var(&program, &result, name);
        }
        if hot {
            if let Some(s) = context_stats(&program, &result, 8) {
                println!(
                    "   contexts/method: avg {:.1}, max {} | tuples/context: avg {:.1} | {} methods carry tuples",
                    s.avg_contexts_per_method,
                    s.max_contexts_per_method,
                    s.avg_tuples_per_context,
                    s.methods_with_tuples,
                );
                println!("   hottest methods:");
                for (m, n) in s.hottest_methods {
                    println!("     {:>6} tuples  {}", n, program.method_qualified_name(m));
                }
            }
        }
        if casts {
            let (failing, total) = may_fail_casts(&program, &result);
            println!("   may-fail casts: {} of {total}", failing.len());
            for c in failing {
                println!(
                    "     cast to {} in {} (instr {}) — {} incompatible object(s)",
                    program.type_name(c.target_type),
                    program.method_qualified_name(c.method),
                    c.instr_index,
                    c.incompatible_objects
                );
            }
        }
        if exceptions {
            let sites = result.uncaught_exceptions();
            println!("   uncaught exception sites: {}", sites.len());
            for &h in sites {
                println!(
                    "     {} ({})",
                    program.heap_label(h),
                    program.type_name(program.heap_type(h))
                );
            }
        }
        if devirt {
            let (poly, total) = poly_virtual_calls(&program, &result);
            println!("   polymorphic v-calls: {} of {total}", poly.len());
            for site in poly {
                let targets: Vec<String> = site
                    .targets
                    .iter()
                    .map(|&m| program.method_qualified_name(m))
                    .collect();
                println!(
                    "     {} -> {{{}}}",
                    program.invo_label(site.invo),
                    targets.join(", ")
                );
            }
        }
    }
    if json {
        let metric_sets: Vec<Option<pta_clients::ExperimentMetrics>> = runs
            .iter()
            .map(|(_, _, result)| metrics.then(|| precision_metrics(&program, result)))
            .collect();
        let demoted_sets: Vec<Vec<(String, u32)>> = runs
            .iter()
            .map(|(_, _, result)| {
                result
                    .demoted_sites()
                    .iter()
                    .map(|d| (program.method_qualified_name(d.method), d.fanout))
                    .collect()
            })
            .collect();
        let reports: Vec<hybrid_pta::report::AnalysisReport<'_>> = runs
            .iter()
            .zip(&metric_sets)
            .zip(&demoted_sets)
            .map(|(((analysis, time_secs, result), m), demoted)| {
                hybrid_pta::report::AnalysisReport {
                    analysis: analysis.name(),
                    backend: if datalog { "datalog" } else { "specialized" },
                    threads: 1,
                    time_secs: *time_secs,
                    result,
                    metrics: m.as_ref(),
                    include_stats: stats,
                    include_profile: profile,
                    demoted,
                    peak_rss_bytes: stats.then(pta_govern::memtrack::peak_bytes),
                }
            })
            .collect();
        println!("{}", hybrid_pta::report::reports_to_json(&reports));
    }
    if let Some(tp) = &trace_path {
        ts.flush();
        if let Err(e) = std::fs::write(tp, trace.to_chrome_json()) {
            return Err(io_error(format!("cannot write trace {tp}: {e}")));
        }
    }
    Ok(if any_partial {
        ExitCode::from(EXIT_PARTIAL)
    } else {
        ExitCode::SUCCESS
    })
}

fn print_points_to(program: &Program, result: &PointsToResult, name: &str) {
    let mut found = false;
    for var in program.vars() {
        if program.var_name(var) != name {
            continue;
        }
        found = true;
        let labels: Vec<&str> = result
            .points_to(var)
            .iter()
            .map(|&h| program.heap_label(h))
            .collect();
        println!(
            "   {}::{} -> {{{}}}",
            program.method_qualified_name(program.var_method(var)),
            name,
            labels.join(", ")
        );
    }
    if !found {
        println!("   (no variable named {name})");
    }
}

fn explain_var(program: &Program, result: &PointsToResult, name: &str) {
    let mut found = false;
    for var in program.vars() {
        if program.var_name(var) != name {
            continue;
        }
        found = true;
        for &heap in result.points_to(var) {
            println!(
                "   why {}::{} -> {}:",
                program.method_qualified_name(program.var_method(var)),
                name,
                program.heap_label(heap)
            );
            match result.explain(program, var, heap) {
                Some(lines) => {
                    for line in lines {
                        println!("     {line}");
                    }
                }
                None => println!("     (no derivation recorded)"),
            }
        }
    }
    if !found {
        println!("   (no variable named {name})");
    }
}

const EXPLAIN_USAGE: &str = "usage: pta explain FILE.jir VAR OBJ [--analysis NAME]\n\
     VAR  variable name, optionally method-qualified (r1 or Client.main::r1)\n\
     OBJ  allocation-site label, exact or substring (Client.main/new Object#2)";

/// `pta explain FILE VAR OBJ`: runs one analysis with provenance tracking
/// and prints the recorded derivation chain for every `(VAR, OBJ)` pair
/// that matches — why may VAR point to OBJ, traced back to the allocation.
///
/// Exit codes follow the module table: 0 when at least one chain printed,
/// 1 when the fact does not hold (or nothing matched), 2 on usage errors.
fn cmd_explain(args: &[String]) -> Exit {
    let mut pos: Vec<String> = Vec::new();
    let mut shared = AnalysisArgs::parse(Takes::Policy, args, EXPLAIN_USAGE, |c| {
        if c.flag().starts_with("--") {
            return Ok(false);
        }
        pos.push(c.flag().to_owned());
        Ok(true)
    })?;
    let [path, var_name, obj_label] = pos.as_slice() else {
        return Err(usage_with(
            format!(
                "expected FILE.jir, VAR and OBJ, got {} argument(s)",
                pos.len()
            ),
            EXPLAIN_USAGE,
        ));
    };
    let analysis = shared.policy();
    let (program, _) = load_program(path)?;

    // VAR matches by bare name or by the `Method::var` qualified form;
    // OBJ matches its allocation-site label exactly, falling back to
    // substring so `Object#2` finds `Client.main/new Object#2`.
    let vars: Vec<_> = program
        .vars()
        .filter(|&v| {
            let bare = program.var_name(v);
            bare == var_name.as_str()
                || format!(
                    "{}::{bare}",
                    program.method_qualified_name(program.var_method(v))
                ) == var_name.as_str()
        })
        .collect();
    if vars.is_empty() {
        return Err(usage_error(format!("no variable named {var_name}")));
    }
    let mut heaps: Vec<_> = program
        .heaps()
        .filter(|&h| program.heap_label(h) == obj_label.as_str())
        .collect();
    if heaps.is_empty() {
        heaps = program
            .heaps()
            .filter(|&h| program.heap_label(h).contains(obj_label.as_str()))
            .collect();
    }
    if heaps.is_empty() {
        return Err(usage_error(format!(
            "no allocation site labeled {obj_label}"
        )));
    }

    let result = shared
        .session(program.clone(), analysis)
        .track_provenance(true)
        .solve();
    let mut printed = false;
    for &var in &vars {
        for &heap in &heaps {
            let Some(lines) = result.explain(&program, var, heap) else {
                continue;
            };
            printed = true;
            println!(
                "why {}::{} -> {} under {analysis}:",
                program.method_qualified_name(program.var_method(var)),
                program.var_name(var),
                program.heap_label(heap),
            );
            for line in lines {
                println!("  {line}");
            }
        }
    }
    if printed {
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "{var_name} does not point to {obj_label} under {analysis} (no derivation exists)"
        );
        Ok(ExitCode::from(1))
    }
}

const LINT_USAGE: &str =
    "usage: pta lint FILE.jir [--format text|json] [--deny-warnings] | pta lint --explain CODE";

/// `pta lint --explain CODE`: describes one diagnostic code.
fn explain_code(code: &str) -> ExitCode {
    match pta_lint::code_description(code) {
        Some(desc) => {
            println!("{code}: {desc}");
            ExitCode::SUCCESS
        }
        None => {
            let exit = usage_error(format!("unknown diagnostic code {code}"));
            eprintln!("known codes:");
            for c in pta_lint::ALL_CODES {
                eprintln!("  {c}: {}", pta_lint::code_description(c).unwrap());
            }
            exit
        }
    }
}

fn cmd_lint(args: &[String]) -> Exit {
    let mut path: Option<String> = None;
    let mut json = false;
    let mut deny_warnings = false;
    Args::walk(args, LINT_USAGE, |c| {
        match c.flag() {
            "--format" => json = c.format()?,
            "--deny-warnings" => deny_warnings = true,
            "--explain" => return Err(explain_code(&c.text("a diagnostic code (e.g. W003)")?)),
            flag if flag.starts_with("--") => return Ok(false),
            file => path = Some(file.to_owned()),
        }
        Ok(true)
    })?;
    let Some(path) = path else {
        return Err(usage_with(
            "expected FILE.jir or --explain CODE",
            LINT_USAGE,
        ));
    };
    let source =
        std::fs::read_to_string(&path).map_err(|e| io_error(format!("cannot read {path}: {e}")))?;
    let diags = pta_lint::lint_source(&source);
    print_diagnostics(&diags, json);
    let has = |severity| diags.iter().any(|d| d.severity == severity);
    let has_errors = has(pta_lint::Severity::Error);
    let has_warnings = has(pta_lint::Severity::Warning);
    Ok(if has_errors || (deny_warnings && has_warnings) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

const CHECK_USAGE: &str = "usage: pta check FILE.jir [--spec FILE] [--analysis NAME] \
[--format text|json] [--client-backend direct|datalog|both] [--datalog] \
[--deny-findings] [--timeout SECS] [--max-steps N] [--max-memory BYTES] [--watermark N] \
[--degrade]";

/// `pta check`: run the taint/escape/nullness client suite over one
/// points-to result and render the findings as W02x diagnostics. See the
/// module docs for flags and exit codes.
fn cmd_check(args: &[String]) -> Exit {
    let path = leading(args, "FILE.jir", CHECK_USAGE)?;
    let mut spec_path: Option<String> = None;
    let mut client_backend = ClientBackend::CrossValidated;
    let mut deny_findings = false;
    let mut shared = AnalysisArgs::parse(Takes::All, &args[1..], CHECK_USAGE, |c| {
        match c.flag() {
            "--spec" => spec_path = Some(c.text("a file path")?),
            "--client-backend" => {
                client_backend = c.choose(
                    "direct, datalog or both",
                    &[
                        ("direct", ClientBackend::Direct),
                        ("datalog", ClientBackend::Datalog),
                        ("both", ClientBackend::CrossValidated),
                    ],
                )?;
            }
            "--deny-findings" => deny_findings = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let (analysis, json) = (shared.policy(), shared.json);
    let (program, _) = load_program(path)?;
    let spec = match &spec_path {
        None => CheckSpec::default(),
        Some(sp) => {
            let text = std::fs::read_to_string(sp)
                .map_err(|e| io_error(format!("cannot read spec {sp}: {e}")))?;
            match CheckSpec::parse(&text) {
                Ok(s) => s,
                Err(diags) => {
                    // Malformed spec lines are E020 diagnostics, rendered
                    // like lint errors (exit 1, not a usage error: the file
                    // parsed as a spec, its contents are wrong).
                    print_diagnostics(&diags, json);
                    return Ok(ExitCode::from(1));
                }
            }
        }
    };
    let spec_errors = spec.validate(&program);
    if !spec_errors.is_empty() {
        print_diagnostics(&spec_errors, json);
        return Ok(ExitCode::from(1));
    }

    let result = shared.session(program.clone(), analysis).solve();
    let report = run_check(&program, &result, &spec, client_backend);
    let diags = report.to_diagnostics(&program);
    print_diagnostics(&diags, json);
    if !json {
        println!(
            "check: {analysis}: {} taint, {} escape, {} nullness finding(s){}",
            report.taint.len(),
            report.escape.len(),
            report.nullness.len(),
            if report.partial { " (partial)" } else { "" },
        );
    }
    Ok(if report.partial {
        ExitCode::from(EXIT_PARTIAL)
    } else if deny_findings && !report.is_clean() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

const WORKLOAD_USAGE: &str = "usage: pta workload NAME [--scale S] [--taint-groups N] [--print]";

fn cmd_workload(args: &[String]) -> Exit {
    let name = leading(args, "NAME", WORKLOAD_USAGE)?;
    check_name(name).map_err(usage_error)?;
    let mut scale = 1.0f64;
    let mut taint_groups = 0usize;
    let mut print = false;
    Args::walk(&args[1..], WORKLOAD_USAGE, |c| {
        match c.flag() {
            "--scale" => {
                let text = c.text("a finite number in (0, 1024]")?;
                scale = parse_scale(&text).map_err(|e| usage_error(format!("--scale: {e}")))?;
            }
            "--taint-groups" => taint_groups = c.value("a count", |_| true)?,
            "--print" => print = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let mut cfg = dacapo_config(name, scale);
    cfg.taint_groups = taint_groups;
    let program = generate(&cfg);
    if print {
        print!("{}", print_program(&program));
    } else {
        println!("{name} @ {scale}: {}", pta_ir::ProgramStats::of(&program));
    }
    Ok(ExitCode::SUCCESS)
}

const UPDATE_USAGE: &str = "usage: pta update FILE.jir [--workload NAME:SCALE] [--edits N] \
[--seed S] [--analysis NAME] [--datalog]";

/// A canonical rendering of everything a [`PointsToResult`] answers:
/// per-variable points-to sets, per-site call targets, the reachable
/// set, escaping exceptions, and the context-sensitive cardinalities
/// (raw context ids are interner-order dependent and not comparable
/// across runs, but the counts are canonical). Two results are
/// equivalent iff their fingerprints are byte-identical.
fn result_fingerprint(program: &Program, r: &PointsToResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for v in program.vars() {
        let mut pts: Vec<usize> = r.points_to(v).iter().map(|h| h.index()).collect();
        pts.sort_unstable();
        let _ = writeln!(out, "v{} {pts:?}", v.index());
    }
    for i in program.invos() {
        let mut targets: Vec<usize> = r.call_targets(i).iter().map(|m| m.index()).collect();
        targets.sort_unstable();
        let _ = writeln!(out, "i{} {targets:?}", i.index());
    }
    let mut reach: Vec<usize> = r.reachable_methods().map(|m| m.index()).collect();
    reach.sort_unstable();
    let _ = writeln!(out, "reach {reach:?}");
    let mut uncaught: Vec<usize> = r.uncaught_exceptions().iter().map(|h| h.index()).collect();
    uncaught.sort_unstable();
    let _ = writeln!(out, "uncaught {uncaught:?}");
    let _ = writeln!(
        out,
        "ctx {} {} {}",
        r.ctx_var_points_to_count(),
        r.ctx_call_graph_edge_count(),
        r.ctx_reachable_count()
    );
    out
}

/// `pta update`: replay a deterministic edit stream against a long-lived
/// [`AnalysisSession`] and compare the incrementally maintained result
/// with a from-scratch solve after every edit (the CI smoke for the
/// incremental engine). Exits 0 when every step is byte-identical, 1 on
/// the first divergence.
fn cmd_update(args: &[String]) -> Exit {
    let mut path: Option<String> = None;
    let mut workload: Option<String> = None;
    let mut edits = 5usize;
    let mut seed = 1u64;
    let mut shared = AnalysisArgs::parse(Takes::Backend, args, UPDATE_USAGE, |c| {
        match c.flag() {
            "--workload" => workload = Some(c.text("NAME:SCALE")?),
            "--edits" => {
                edits = c.value("a count in [1, 100000]", |n| (1..=100_000).contains(n))?;
            }
            "--seed" => seed = c.value("a non-negative integer", |_| true)?,
            flag if flag.starts_with("--") => return Ok(false),
            file if path.is_none() => path = Some(file.to_owned()),
            extra => {
                return Err(usage_with(
                    format!("unexpected argument {extra}"),
                    UPDATE_USAGE,
                ))
            }
        }
        Ok(true)
    })?;
    let base: Program = match (&path, &workload) {
        (Some(p), None) => load_program(p)?.0,
        (None, Some(spec)) => {
            let (name, scale) = pta_workload::parse_spec(spec)
                .map_err(|e| usage_error(format!("--workload: {e}")))?;
            dacapo_workload(name, scale)
        }
        _ => {
            return Err(usage_with(
                "expected exactly one of FILE.jir and --workload NAME:SCALE",
                UPDATE_USAGE,
            ))
        }
    };
    let mut failed = false;
    for analysis in shared.policies() {
        let mut stream = EditStream::new(base.clone(), seed);
        let mut session = shared.session(base.clone(), analysis).incremental(true);
        session.solve();
        let mut incremental = 0usize;
        let mut diverged: Option<usize> = None;
        for step in 0..edits {
            let delta = stream.next_delta();
            let maintained = session.apply(&delta).map_err(|e| io_error(e.to_string()))?;
            if session.last_apply_was_incremental() {
                incremental += 1;
            }
            let scratch = shared.session(stream.program().clone(), analysis).solve();
            if result_fingerprint(stream.program(), &maintained)
                != result_fingerprint(stream.program(), &scratch)
            {
                diverged = Some(step + 1);
                break;
            }
        }
        match diverged {
            Some(step) => {
                failed = true;
                println!(
                    "{}: DIVERGED from scratch at edit {step}/{edits} (seed {seed})",
                    analysis.name()
                );
            }
            None => println!(
                "{}: {edits} edits, {incremental} incremental, identical to scratch",
                analysis.name()
            ),
        }
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

const SERVE_USAGE: &str = "usage: pta serve [FILE.jir ...] [--workload NAME:SCALE] \
[--policy NAME] [--workers N] [--queue N] [--deadline-ms N] [--drain-ms N] \
[--solve-timeout SECS] [--solve-max-steps N] [--solve-max-memory BYTES] [--port N] \
[--port-file PATH] [--no-stdin] [--inject-faults RATE,KINDS] [--fault-seed N] \
[--no-share] [--trace FILE] [--metrics-addr HOST:PORT] [--metrics-port-file PATH] \
[--events FILE]";

/// `pta serve`: parse the daemon flags into a [`ServeConfig`] and hand off
/// to `pta_serve::run`, which owns the request lifecycle. Exit codes: 0 on
/// a clean drain, 2 on startup/usage errors, 3 when shutdown had to
/// force-cancel in-flight work.
fn cmd_serve(args: &[String]) -> Exit {
    let mut cfg = ServeConfig::default();
    let mut fault_spec: Option<String> = None;
    let mut fault_seed: u64 = 0;
    Args::walk(args, SERVE_USAGE, |c| {
        match c.flag() {
            "--workload" => {
                let spec = c.text("NAME:SCALE (e.g. antlr:0.5)")?;
                let source = ProgramSource::parse_workload(&spec)
                    .map_err(|e| usage_error(format!("--workload: {e}")))?;
                cfg.sources.push(source);
            }
            "--policy" => {
                let policy: Analysis =
                    c.value("a known analysis name (try `pta list`)", |_| true)?;
                cfg.policies.push(policy.name().to_string());
            }
            "--workers" => {
                cfg.workers = c.value("a count in [1, 1024]", |n| (1..=1024).contains(n))?
            }
            "--queue" => cfg.queue_capacity = c.value("a positive capacity", |&n| n > 0)?,
            "--deadline-ms" => {
                cfg.default_deadline_ms = Some(c.value("a millisecond count", |_| true)?);
            }
            "--drain-ms" => cfg.drain_ms = c.value("a millisecond count", |_| true)?,
            "--solve-timeout" => cfg.solve.budget.deadline = Some(c.seconds()?),
            "--solve-max-steps" => cfg.solve.budget.max_steps = Some(c.positive()?),
            "--solve-max-memory" => cfg.solve.budget.max_memory_bytes = Some(c.byte_size()?),
            "--port" => cfg.port = Some(c.value("a TCP port (0 = OS-assigned)", |_| true)?),
            "--port-file" => cfg.port_file = Some(c.text("an output file path")?),
            "--inject-faults" => {
                fault_spec = Some(c.text("RATE,KINDS (e.g. 0.05,delay+cancel)")?);
            }
            "--fault-seed" => fault_seed = c.value("an integer seed", |_| true)?,
            "--trace" => cfg.trace_path = Some(c.text("an output file path")?),
            "--metrics-addr" => {
                cfg.metrics_addr = Some(c.value(
                    "HOST:PORT (e.g. 127.0.0.1:9464; port 0 = OS-assigned)",
                    |a: &String| a.contains(':'),
                )?);
            }
            "--metrics-port-file" => cfg.metrics_port_file = Some(c.text("an output file path")?),
            "--events" => cfg.events_path = Some(c.text("an output file path")?),
            "--no-stdin" => cfg.use_stdin = false,
            "--no-share" => cfg.solve.share = false,
            flag if flag.starts_with("--") => return Ok(false),
            file => cfg.sources.push(ProgramSource::File(file.to_string())),
        }
        Ok(true)
    })?;
    if cfg.sources.is_empty() {
        return Err(usage_with(
            "serve needs at least one program (a FILE.jir or --workload)",
            SERVE_USAGE,
        ));
    }
    if !cfg.use_stdin && cfg.port.is_none() {
        return Err(usage_error(
            "--no-stdin needs --port, or the daemon would be unreachable",
        ));
    }
    if let Some(spec) = &fault_spec {
        let injector = FaultInjector::parse(spec, fault_seed)
            .map_err(|e| usage_error(format!("--inject-faults: {e}")))?;
        cfg.faults = Some(injector);
    }
    Ok(match pta_serve::run(cfg) {
        // Startup errors are pre-flight: unreadable inputs are E031, bad
        // specs (unknown policy, duplicate program names, parse failures)
        // are E030. Both exit 2 like every other pre-flight error.
        Err(msg) if msg.starts_with("cannot read") || msg.starts_with("cannot write") => {
            io_error(msg)
        }
        Err(msg) => usage_error(msg),
        Ok(code) => ExitCode::from(u8::try_from(code).unwrap_or(EXIT_USAGE)),
    })
}
