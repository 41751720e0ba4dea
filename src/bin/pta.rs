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
use std::time::Duration;

use pta_clients::{
    context_stats, may_fail_casts, poly_virtual_calls, precision_metrics, run_check, CheckSpec,
    ClientBackend,
};
use pta_core::{Analysis, AnalysisSession, Backend, Budget, CancelToken, PointsToResult, Trace};
use pta_govern::parse_byte_size;
use pta_ir::Program;
use pta_lang::{parse_program, print_program};
use pta_serve::{FaultInjector, ProgramSource, ServeConfig};
use pta_workload::{dacapo_config, generate, EditStream, DACAPO_NAMES};

/// Count heap usage so `--stats` can report `peak_rss_bytes` exactly
/// (see `pta_govern::memtrack`); delegates to the system allocator.
#[global_allocator]
static ALLOC: pta_govern::memtrack::CountingAlloc = pta_govern::memtrack::CountingAlloc;

/// Exit code for usage, I/O and parse errors (see the module docs).
const EXIT_USAGE: u8 = 2;
/// Exit code for a budget-tripped (or cancelled) partial result.
const EXIT_PARTIAL: u8 = 3;

/// Report a usage problem (unknown flag, bad flag value, invalid flag
/// combination) as a structured `E030` diagnostic and return the usage
/// exit code. Every flag error in the driver funnels through here so even
/// CLI misuse is machine-parseable (`pta lint --explain E030`).
fn usage_error(message: impl Into<String>) -> ExitCode {
    eprintln!("{}", pta_lint::Diagnostic::error("E030", message));
    ExitCode::from(EXIT_USAGE)
}

/// Report an I/O problem (unreadable input, unwritable output) as a
/// structured `E031` diagnostic and return the usage exit code.
fn io_error(message: impl Into<String>) -> ExitCode {
    eprintln!("{}", pta_lint::Diagnostic::error("E031", message));
    ExitCode::from(EXIT_USAGE)
}

/// Report a `.jir` frontend error through the same E007/E008 diagnostics
/// `pta lint` emits, tagged with the offending path, and return the usage
/// exit code.
fn parse_error(path: &str, err: &pta_lang::LangError) -> ExitCode {
    eprintln!("{}", pta_lint::diagnose_lang_error(err).with_context(path));
    ExitCode::from(EXIT_USAGE)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("available analyses (paper name — description):");
            for a in Analysis::ALL {
                println!("  {:>10} — {}", a.name(), describe(a));
            }
            ExitCode::SUCCESS
        }
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("workload") => cmd_workload(&args[1..]),
        Some("update") => cmd_update(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        _ => {
            eprintln!(
                "usage: pta <list|analyze|explain|workload|update|lint|check|serve> ...  (see --help in the README)"
            );
            ExitCode::from(EXIT_USAGE)
        }
    }
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

fn cmd_analyze(args: &[String]) -> ExitCode {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: pta analyze FILE.jir [--analysis NAME] [--metrics] [--points-to VAR] [--casts] [--devirt] [--datalog] [--timeout SECS] [--max-steps N] [--max-memory BYTES] [--degrade] [--trace FILE] [--profile] [--no-share]");
        return ExitCode::from(EXIT_USAGE);
    };

    let mut analyses: Vec<Analysis> = Vec::new();
    let mut metrics = false;
    let mut hot = false;
    let mut casts = false;
    let mut devirt = false;
    let mut exceptions = false;
    let mut datalog = false;
    let mut stats = false;
    let mut json = false;
    let mut points_to: Vec<String> = Vec::new();
    let mut explain: Vec<String> = Vec::new();
    let mut budget = Budget::unlimited();
    let mut degrade = false;
    let mut trace_path: Option<String> = None;
    let mut profile = false;
    let mut share = true;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--format" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("text") => json = false,
                    Some("json") => json = true,
                    _ => {
                        return usage_error("--format needs `text` or `json`");
                    }
                }
            }
            "--analysis" => {
                i += 1;
                match args.get(i).map(|s| s.parse::<Analysis>()) {
                    Some(Ok(a)) => analyses.push(a),
                    _ => {
                        return usage_error("--analysis needs a known name (try `pta list`)");
                    }
                }
            }
            "--points-to" => {
                i += 1;
                match args.get(i) {
                    Some(v) => points_to.push(v.clone()),
                    None => {
                        return usage_error("--points-to needs a variable name");
                    }
                }
            }
            "--explain" => {
                i += 1;
                match args.get(i) {
                    Some(v) => explain.push(v.clone()),
                    None => {
                        return usage_error("--explain needs a variable name");
                    }
                }
            }
            "--timeout" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<f64>().ok()) {
                    Some(secs) if secs > 0.0 && secs.is_finite() && secs <= 1e9 => {
                        budget = budget.with_deadline(Duration::from_secs_f64(secs));
                    }
                    _ => {
                        return usage_error(
                            "--timeout needs a positive number of seconds (at most 1e9)",
                        );
                    }
                }
            }
            "--max-steps" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(n) if n > 0 => budget = budget.with_max_steps(n),
                    _ => {
                        return usage_error("--max-steps needs a positive integer");
                    }
                }
            }
            "--max-memory" => {
                i += 1;
                match args.get(i).map(|s| parse_byte_size(s)) {
                    Some(Ok(bytes)) if bytes > 0 => budget = budget.with_max_memory(bytes),
                    Some(Err(e)) => {
                        return usage_error(format!("--max-memory: {e}"));
                    }
                    _ => {
                        return usage_error("--max-memory needs a byte size (e.g. 64M)");
                    }
                }
            }
            "--watermark" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u32>().ok()) {
                    Some(n) if n > 0 => budget = budget.with_watermark(n),
                    _ => {
                        return usage_error("--watermark needs a positive integer");
                    }
                }
            }
            "--trace" => {
                i += 1;
                match args.get(i) {
                    Some(p) => trace_path = Some(p.clone()),
                    None => {
                        return usage_error("--trace needs an output file path");
                    }
                }
            }
            "--profile" => profile = true,
            "--no-share" => share = false,
            "--degrade" => degrade = true,
            "--metrics" => metrics = true,
            "--stats" => stats = true,
            "--hot" => hot = true,
            "--casts" => casts = true,
            "--devirt" => devirt = true,
            "--exceptions" => exceptions = true,
            "--datalog" => datalog = true,
            other => {
                return usage_error(format!("unknown flag {other}"));
            }
        }
        i += 1;
    }
    if analyses.is_empty() {
        analyses.push(Analysis::STwoObjH);
    }
    if degrade && datalog {
        return usage_error(
            "--degrade requires the specialized solver (drop --datalog); \
             the Datalog back end stops with a partial result instead",
        );
    }
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
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            return io_error(format!("cannot read {path}: {e}"));
        }
    };
    let program = match parse_program(&source) {
        Ok(p) => p,
        Err(e) => {
            return parse_error(path, &e);
        }
    };
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
    // Governed runs get cooperative ctrl-c: SIGINT flips the token and the
    // solver stops at the next batch boundary with a tagged partial result.
    // Ungoverned runs keep the zero-overhead path (and default SIGINT).
    let governed = !budget.is_unlimited() || degrade;
    let cancel = governed.then(CancelToken::linked_to_sigint);
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
                return usage_error(format!(
                    "{flag} has no JSON rendering; drop it or use --format text"
                ));
            }
        }
    }

    // Keep each (analysis, result) alive until the end so JSON reports can
    // borrow them and print as one array.
    let mut runs: Vec<(Analysis, f64, PointsToResult)> = Vec::new();
    let mut any_partial = false;
    if datalog && !explain.is_empty() {
        return usage_error("--explain requires the specialized solver (drop --datalog)");
    }
    for analysis in analyses {
        let start = std::time::Instant::now();
        let mut session = AnalysisSession::open(program.clone())
            .policy(analysis)
            .backend(if datalog {
                Backend::Datalog
            } else {
                Backend::Dense
            })
            .budget(budget.clone())
            .degrade(degrade)
            .keep_tuples(hot)
            .track_provenance(!explain.is_empty())
            .trace(trace.clone())
            .profile(profile)
            .share(share);
        if let Some(token) = &cancel {
            session = session.cancel(token.clone());
        }
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
                let diag = pta_lint::Diagnostic::warning(
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
            return io_error(format!("cannot write trace {tp}: {e}"));
        }
    }
    if any_partial {
        ExitCode::from(EXIT_PARTIAL)
    } else {
        ExitCode::SUCCESS
    }
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
fn cmd_explain(args: &[String]) -> ExitCode {
    let mut pos: Vec<&String> = Vec::new();
    let mut analysis = Analysis::STwoObjH;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--analysis" => {
                i += 1;
                match args.get(i).map(|s| s.parse::<Analysis>()) {
                    Some(Ok(a)) => analysis = a,
                    _ => {
                        return usage_error("--analysis needs a known name (try `pta list`)");
                    }
                }
            }
            flag if flag.starts_with("--") => {
                let exit = usage_error(format!("unknown flag {flag}"));
                eprintln!("{EXPLAIN_USAGE}");
                return exit;
            }
            _ => pos.push(&args[i]),
        }
        i += 1;
    }
    let [path, var_name, obj_label] = pos.as_slice() else {
        eprintln!("{EXPLAIN_USAGE}");
        return ExitCode::from(EXIT_USAGE);
    };
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            return io_error(format!("cannot read {path}: {e}"));
        }
    };
    let program = match parse_program(&source) {
        Ok(p) => p,
        Err(e) => {
            return parse_error(path, &e);
        }
    };

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
        return usage_error(format!("no variable named {var_name}"));
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
        return usage_error(format!("no allocation site labeled {obj_label}"));
    }

    let result = AnalysisSession::open(program.clone())
        .policy(analysis)
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
        ExitCode::SUCCESS
    } else {
        println!(
            "{var_name} does not point to {obj_label} under {analysis} (no derivation exists)"
        );
        ExitCode::from(1)
    }
}

const LINT_USAGE: &str =
    "usage: pta lint FILE.jir [--format text|json] [--deny-warnings] | pta lint --explain CODE";

fn cmd_lint(args: &[String]) -> ExitCode {
    let mut path: Option<&String> = None;
    let mut json = false;
    let mut deny_warnings = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--format" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("text") => json = false,
                    Some("json") => json = true,
                    _ => {
                        return usage_error("--format needs `text` or `json`");
                    }
                }
            }
            "--deny-warnings" => deny_warnings = true,
            "--explain" => {
                i += 1;
                let Some(code) = args.get(i) else {
                    return usage_error("--explain needs a diagnostic code (e.g. W003)");
                };
                return match pta_lint::code_description(code) {
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
                };
            }
            flag if flag.starts_with("--") => {
                let exit = usage_error(format!("unknown flag {flag}"));
                eprintln!("{LINT_USAGE}");
                return exit;
            }
            _ => path = Some(&args[i]),
        }
        i += 1;
    }
    let Some(path) = path else {
        eprintln!("{LINT_USAGE}");
        return ExitCode::from(2);
    };
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            return io_error(format!("cannot read {path}: {e}"));
        }
    };
    let diags = pta_lint::lint_source(&source);
    if json {
        print!("{}", pta_lint::render_json(&diags));
    } else {
        print!("{}", pta_lint::render_text(&diags));
    }
    let has_errors = diags
        .iter()
        .any(|d| d.severity == pta_lint::Severity::Error);
    let has_warnings = diags
        .iter()
        .any(|d| d.severity == pta_lint::Severity::Warning);
    if has_errors || (deny_warnings && has_warnings) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

const CHECK_USAGE: &str = "usage: pta check FILE.jir [--spec FILE] [--analysis NAME] \
[--format text|json] [--client-backend direct|datalog|both] [--datalog] \
[--deny-findings] [--timeout SECS] [--max-steps N] [--max-memory BYTES] [--watermark N] \
[--degrade]";

/// `pta check`: run the taint/escape/nullness client suite over one
/// points-to result and render the findings as W02x diagnostics. See the
/// module docs for flags and exit codes.
fn cmd_check(args: &[String]) -> ExitCode {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("{CHECK_USAGE}");
        return ExitCode::from(EXIT_USAGE);
    };
    let mut spec_path: Option<String> = None;
    let mut analysis = Analysis::STwoObjH;
    let mut json = false;
    let mut client_backend = ClientBackend::CrossValidated;
    let mut datalog = false;
    let mut deny_findings = false;
    let mut budget = Budget::unlimited();
    let mut degrade = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--spec" => {
                i += 1;
                match args.get(i) {
                    Some(p) => spec_path = Some(p.clone()),
                    None => {
                        return usage_error("--spec needs a file path");
                    }
                }
            }
            "--analysis" => {
                i += 1;
                match args.get(i).map(|s| s.parse::<Analysis>()) {
                    Some(Ok(a)) => analysis = a,
                    _ => {
                        return usage_error("--analysis needs a known name (try `pta list`)");
                    }
                }
            }
            "--format" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("text") => json = false,
                    Some("json") => json = true,
                    _ => {
                        return usage_error("--format needs `text` or `json`");
                    }
                }
            }
            "--client-backend" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("direct") => client_backend = ClientBackend::Direct,
                    Some("datalog") => client_backend = ClientBackend::Datalog,
                    Some("both") => client_backend = ClientBackend::CrossValidated,
                    _ => {
                        return usage_error("--client-backend needs direct, datalog or both");
                    }
                }
            }
            "--timeout" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<f64>().ok()) {
                    Some(secs) if secs > 0.0 && secs.is_finite() && secs <= 1e9 => {
                        budget = budget.with_deadline(Duration::from_secs_f64(secs));
                    }
                    _ => {
                        return usage_error(
                            "--timeout needs a positive number of seconds (at most 1e9)",
                        );
                    }
                }
            }
            "--max-steps" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(n) if n > 0 => budget = budget.with_max_steps(n),
                    _ => {
                        return usage_error("--max-steps needs a positive integer");
                    }
                }
            }
            "--max-memory" => {
                i += 1;
                match args.get(i).map(|s| parse_byte_size(s)) {
                    Some(Ok(bytes)) if bytes > 0 => budget = budget.with_max_memory(bytes),
                    _ => {
                        return usage_error("--max-memory needs a byte size (e.g. 64M)");
                    }
                }
            }
            "--watermark" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u32>().ok()) {
                    Some(n) if n > 0 => budget = budget.with_watermark(n),
                    _ => {
                        return usage_error("--watermark needs a positive integer");
                    }
                }
            }
            "--deny-findings" => deny_findings = true,
            "--degrade" => degrade = true,
            "--datalog" => datalog = true,
            other => {
                let exit = usage_error(format!("unknown flag {other}"));
                eprintln!("{CHECK_USAGE}");
                return exit;
            }
        }
        i += 1;
    }
    if degrade && datalog {
        return usage_error(
            "--degrade requires the specialized solver (drop --datalog); \
             the Datalog back end stops with a partial result instead",
        );
    }
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            return io_error(format!("cannot read {path}: {e}"));
        }
    };
    let program = match parse_program(&source) {
        Ok(p) => p,
        Err(e) => {
            return parse_error(path, &e);
        }
    };
    let spec = match &spec_path {
        None => CheckSpec::default(),
        Some(sp) => {
            let text = match std::fs::read_to_string(sp) {
                Ok(t) => t,
                Err(e) => {
                    return io_error(format!("cannot read spec {sp}: {e}"));
                }
            };
            match CheckSpec::parse(&text) {
                Ok(s) => s,
                Err(diags) => {
                    // Malformed spec lines are E020 diagnostics, rendered
                    // like lint errors (exit 1, not a usage error: the file
                    // parsed as a spec, its contents are wrong).
                    if json {
                        print!("{}", pta_lint::render_json(&diags));
                    } else {
                        print!("{}", pta_lint::render_text(&diags));
                    }
                    return ExitCode::from(1);
                }
            }
        }
    };
    let spec_errors = spec.validate(&program);
    if !spec_errors.is_empty() {
        if json {
            print!("{}", pta_lint::render_json(&spec_errors));
        } else {
            print!("{}", pta_lint::render_text(&spec_errors));
        }
        return ExitCode::from(1);
    }

    let governed = !budget.is_unlimited() || degrade;
    let cancel = governed.then(CancelToken::linked_to_sigint);
    let mut session = AnalysisSession::open(program.clone())
        .policy(analysis)
        .backend(if datalog {
            Backend::Datalog
        } else {
            Backend::Dense
        })
        .budget(budget)
        .degrade(degrade);
    if let Some(token) = &cancel {
        session = session.cancel(token.clone());
    }
    let result = session.solve();
    let report = run_check(&program, &result, &spec, client_backend);
    let diags = report.to_diagnostics(&program);
    if json {
        print!("{}", pta_lint::render_json(&diags));
    } else {
        print!("{}", pta_lint::render_text(&diags));
        println!(
            "check: {analysis}: {} taint, {} escape, {} nullness finding(s){}",
            report.taint.len(),
            report.escape.len(),
            report.nullness.len(),
            if report.partial { " (partial)" } else { "" },
        );
    }
    if report.partial {
        ExitCode::from(EXIT_PARTIAL)
    } else if deny_findings && !report.is_clean() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_workload(args: &[String]) -> ExitCode {
    let Some(name) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!(
            "usage: pta workload NAME [--scale S] [--taint-groups N] [--print]; names: {DACAPO_NAMES:?}"
        );
        return ExitCode::from(EXIT_USAGE);
    };
    if !DACAPO_NAMES.contains(&name.as_str()) {
        return usage_error(format!("unknown workload {name}; names: {DACAPO_NAMES:?}"));
    }
    let mut scale = 1.0f64;
    let mut taint_groups = 0usize;
    let mut print = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = match args.get(i).and_then(|s| s.parse::<f64>().ok()) {
                    Some(s) if s.is_finite() && s > 0.0 && s <= 1024.0 => s,
                    _ => {
                        return usage_error("--scale needs a finite number in (0, 1024]");
                    }
                };
            }
            "--taint-groups" => {
                i += 1;
                taint_groups = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) => n,
                    None => {
                        return usage_error("--taint-groups needs a count");
                    }
                };
            }
            "--print" => print = true,
            other => {
                return usage_error(format!("unknown flag {other}"));
            }
        }
        i += 1;
    }
    let mut cfg = dacapo_config(name, scale);
    cfg.taint_groups = taint_groups;
    let program = generate(&cfg);
    if print {
        print!("{}", print_program(&program));
    } else {
        println!("{name} @ {scale}: {}", pta_ir::ProgramStats::of(&program));
    }
    ExitCode::SUCCESS
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
fn cmd_update(args: &[String]) -> ExitCode {
    let mut path: Option<String> = None;
    let mut workload: Option<String> = None;
    let mut analyses: Vec<Analysis> = Vec::new();
    let mut edits = 5usize;
    let mut seed = 1u64;
    let mut datalog = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                i += 1;
                match args.get(i) {
                    Some(spec) => workload = Some(spec.clone()),
                    None => return usage_error("--workload needs NAME:SCALE"),
                }
            }
            "--edits" => {
                i += 1;
                edits = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) if (1..=100_000).contains(&n) => n,
                    _ => return usage_error("--edits needs a count in [1, 100000]"),
                };
            }
            "--seed" => {
                i += 1;
                seed = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(s) => s,
                    None => return usage_error("--seed needs a non-negative integer"),
                };
            }
            "--analysis" => {
                i += 1;
                match args.get(i).map(|s| s.parse::<Analysis>()) {
                    Some(Ok(a)) => analyses.push(a),
                    _ => return usage_error("--analysis needs a known name (try `pta list`)"),
                }
            }
            "--datalog" => datalog = true,
            other if !other.starts_with("--") && path.is_none() => path = Some(other.to_owned()),
            other => return usage_error(format!("unknown flag {other} ({UPDATE_USAGE})")),
        }
        i += 1;
    }
    let base: Program = match (&path, &workload) {
        (Some(p), None) => {
            let source = match std::fs::read_to_string(p) {
                Ok(s) => s,
                Err(e) => return io_error(format!("cannot read {p}: {e}")),
            };
            match parse_program(&source) {
                Ok(prog) => prog,
                Err(e) => return parse_error(p, &e),
            }
        }
        (None, Some(spec)) => {
            let Some((name, scale)) = spec.split_once(':') else {
                return usage_error("--workload needs NAME:SCALE");
            };
            if !DACAPO_NAMES.contains(&name) {
                return usage_error(format!("unknown workload {name}; names: {DACAPO_NAMES:?}"));
            }
            match scale.parse::<f64>() {
                Ok(s) if s.is_finite() && s > 0.0 && s <= 1024.0 => {
                    generate(&dacapo_config(name, s))
                }
                _ => return usage_error("--workload scale must be a finite number in (0, 1024]"),
            }
        }
        _ => {
            eprintln!("{UPDATE_USAGE}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    if analyses.is_empty() {
        analyses.push(Analysis::STwoObjH);
    }
    let backend = if datalog {
        Backend::Datalog
    } else {
        Backend::Dense
    };
    let mut failed = false;
    for &analysis in &analyses {
        let mut stream = EditStream::new(base.clone(), seed);
        let mut session = AnalysisSession::open(base.clone())
            .policy(analysis)
            .backend(backend)
            .incremental(true);
        session.solve();
        let mut incremental = 0usize;
        let mut diverged: Option<usize> = None;
        for step in 0..edits {
            let delta = stream.next_delta();
            let maintained = match session.apply(&delta) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{}", pta_lint::Diagnostic::error("E031", e.to_string()));
                    return ExitCode::from(EXIT_USAGE);
                }
            };
            if session.last_apply_was_incremental() {
                incremental += 1;
            }
            let scratch_fp = {
                let mut scratch = AnalysisSession::open(stream.program().clone())
                    .policy(analysis)
                    .backend(backend);
                result_fingerprint(stream.program(), &scratch.solve())
            };
            if result_fingerprint(stream.program(), &maintained) != scratch_fp {
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
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
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
fn cmd_serve(args: &[String]) -> ExitCode {
    let mut cfg = ServeConfig::default();
    let mut fault_spec: Option<String> = None;
    let mut fault_seed: u64 = 0;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                i += 1;
                let Some(spec) = args.get(i) else {
                    return usage_error("--workload needs NAME:SCALE (e.g. antlr:0.5)");
                };
                match ProgramSource::parse_workload(spec) {
                    Ok(src) => cfg.sources.push(src),
                    Err(e) => return usage_error(format!("--workload: {e}")),
                }
            }
            "--policy" => {
                i += 1;
                match args.get(i).map(|s| s.parse::<Analysis>()) {
                    Some(Ok(a)) => cfg.policies.push(a.name().to_string()),
                    _ => {
                        return usage_error("--policy needs a known analysis name (try `pta list`)")
                    }
                }
            }
            "--workers" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n > 0 && n <= 1024 => cfg.workers = n,
                    _ => return usage_error("--workers needs a count in [1, 1024]"),
                }
            }
            "--queue" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n > 0 => cfg.queue_capacity = n,
                    _ => return usage_error("--queue needs a positive capacity"),
                }
            }
            "--deadline-ms" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(n) => cfg.default_deadline_ms = Some(n),
                    None => return usage_error("--deadline-ms needs a millisecond count"),
                }
            }
            "--drain-ms" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(n) => cfg.drain_ms = n,
                    None => return usage_error("--drain-ms needs a millisecond count"),
                }
            }
            "--solve-timeout" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<f64>().ok()) {
                    Some(secs) if secs > 0.0 && secs.is_finite() && secs <= 1e9 => {
                        cfg.solve.budget = cfg
                            .solve
                            .budget
                            .clone()
                            .with_deadline(Duration::from_secs_f64(secs));
                    }
                    _ => {
                        return usage_error(
                            "--solve-timeout needs a positive number of seconds (at most 1e9)",
                        )
                    }
                }
            }
            "--solve-max-steps" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(n) if n > 0 => {
                        cfg.solve.budget = cfg.solve.budget.clone().with_max_steps(n);
                    }
                    _ => return usage_error("--solve-max-steps needs a positive integer"),
                }
            }
            "--solve-max-memory" => {
                i += 1;
                match args.get(i).map(|s| parse_byte_size(s)) {
                    Some(Ok(bytes)) if bytes > 0 => {
                        cfg.solve.budget = cfg.solve.budget.clone().with_max_memory(bytes);
                    }
                    Some(Err(e)) => return usage_error(format!("--solve-max-memory: {e}")),
                    _ => return usage_error("--solve-max-memory needs a byte size (e.g. 64M)"),
                }
            }
            "--port" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u16>().ok()) {
                    Some(n) => cfg.port = Some(n),
                    None => return usage_error("--port needs a TCP port (0 = OS-assigned)"),
                }
            }
            "--port-file" => {
                i += 1;
                match args.get(i) {
                    Some(p) => cfg.port_file = Some(p.clone()),
                    None => return usage_error("--port-file needs an output file path"),
                }
            }
            "--inject-faults" => {
                i += 1;
                match args.get(i) {
                    Some(s) => fault_spec = Some(s.clone()),
                    None => {
                        return usage_error(
                            "--inject-faults needs RATE,KINDS (e.g. 0.05,delay+cancel)",
                        )
                    }
                }
            }
            "--fault-seed" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(n) => fault_seed = n,
                    None => return usage_error("--fault-seed needs an integer seed"),
                }
            }
            "--trace" => {
                i += 1;
                match args.get(i) {
                    Some(p) => cfg.trace_path = Some(p.clone()),
                    None => return usage_error("--trace needs an output file path"),
                }
            }
            "--metrics-addr" => {
                i += 1;
                match args.get(i) {
                    Some(a) if a.contains(':') => cfg.metrics_addr = Some(a.clone()),
                    _ => {
                        return usage_error(
                            "--metrics-addr needs HOST:PORT (e.g. 127.0.0.1:9464; port 0 = OS-assigned)",
                        )
                    }
                }
            }
            "--metrics-port-file" => {
                i += 1;
                match args.get(i) {
                    Some(p) => cfg.metrics_port_file = Some(p.clone()),
                    None => return usage_error("--metrics-port-file needs an output file path"),
                }
            }
            "--events" => {
                i += 1;
                match args.get(i) {
                    Some(p) => cfg.events_path = Some(p.clone()),
                    None => return usage_error("--events needs an output file path"),
                }
            }
            "--no-stdin" => cfg.use_stdin = false,
            "--no-share" => cfg.solve.share = false,
            flag if flag.starts_with("--") => {
                let exit = usage_error(format!("unknown flag {flag}"));
                eprintln!("{SERVE_USAGE}");
                return exit;
            }
            file => cfg.sources.push(ProgramSource::File(file.to_string())),
        }
        i += 1;
    }
    if cfg.sources.is_empty() {
        eprintln!("{SERVE_USAGE}");
        return usage_error("serve needs at least one program (a FILE.jir or --workload)");
    }
    if !cfg.use_stdin && cfg.port.is_none() {
        return usage_error("--no-stdin needs --port, or the daemon would be unreachable");
    }
    if let Some(spec) = &fault_spec {
        match FaultInjector::parse(spec, fault_seed) {
            Ok(inj) => cfg.faults = Some(inj),
            Err(e) => return usage_error(format!("--inject-faults: {e}")),
        }
    }
    match pta_serve::run(cfg) {
        // Startup errors are pre-flight: unreadable inputs are E031, bad
        // specs (unknown policy, duplicate program names, parse failures)
        // are E030. Both exit 2 like every other pre-flight error.
        Err(msg) if msg.starts_with("cannot read") || msg.starts_with("cannot write") => {
            io_error(msg)
        }
        Err(msg) => usage_error(msg),
        Ok(code) => ExitCode::from(u8::try_from(code).unwrap_or(EXIT_USAGE)),
    }
}
