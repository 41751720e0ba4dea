//! Measures incremental fixpoint maintenance against full re-solves:
//! the experiment behind `BENCH_incremental.json`.
//!
//! A long-lived [`AnalysisSession`] solves a workload once, then absorbs
//! a stream of seeded single-method additive edits (one fresh allocation
//! appended to one existing method per edit) through
//! [`AnalysisSession::apply`]. Each apply is timed; after the stream, the
//! final program is re-solved from scratch `--reps` times for the
//! baseline. The headline number is `speedup`: median from-scratch solve
//! time over median incremental apply time.
//!
//! Wall-clock is host-dependent, so the JSON row also carries the
//! deterministic `final_ctx_tuples` / `final_reachable` counts — those
//! are what the checked-in artifact pins, and every apply is verified to
//! have taken the incremental path (`"incremental_applies"` must equal
//! `"edits"` for an `"status":"ok"` row).
//!
//! Usage: `incrbench [--workload NAME] [--scale S] [--analysis NAME]
//! [--edits N] [--seed S] [--reps N] [--min-speedup X]
//! [--json PATH]`
//!
//! Exit codes: 0 ok; 1 a session apply fell back to a from-scratch
//! re-solve or the measured speedup is below `--min-speedup`; 2 usage.

use std::process::ExitCode;
use std::time::Instant;

use pta_core::{Analysis, AnalysisSession, PointsToResult};
use pta_ir::rng::Rng;
use pta_ir::{Program, ProgramDelta};
use pta_workload::{check_name, dacapo_config, generate, parse_scale};

struct Options {
    workload: String,
    scale: f64,
    analysis: Analysis,
    edits: usize,
    seed: u64,
    reps: usize,
    min_speedup: f64,
    json: Option<String>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            workload: "luindex".into(),
            scale: 64.0,
            analysis: Analysis::TwoObjH,
            edits: 20,
            seed: 1,
            reps: 3,
            min_speedup: 0.0,
            json: None,
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut i = 0;
    while i < args.len() {
        let need = |key: &str| args.get(i + 1).ok_or(format!("{key} needs a value"));
        match args[i].as_str() {
            "--workload" => {
                o.workload = check_name(need("--workload")?)?.to_owned();
                i += 1;
            }
            "--scale" => {
                o.scale = parse_scale(need("--scale")?)?;
                i += 1;
            }
            "--analysis" => {
                o.analysis = need("--analysis")?
                    .parse()
                    .map_err(|_| "--analysis needs a known name")?;
                i += 1;
            }
            "--edits" => {
                o.edits = need("--edits")?
                    .parse()
                    .map_err(|_| "--edits needs a count")?;
                i += 1;
            }
            "--seed" => {
                o.seed = need("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an integer")?;
                i += 1;
            }
            "--reps" => {
                o.reps = need("--reps")?
                    .parse()
                    .map_err(|_| "--reps needs a count")?;
                i += 1;
            }
            "--min-speedup" => {
                o.min_speedup = need("--min-speedup")?
                    .parse()
                    .map_err(|_| "--min-speedup needs a number")?;
                i += 1;
            }
            "--json" => {
                o.json = Some(need("--json")?.clone());
                i += 1;
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    if o.edits == 0 || o.reps == 0 {
        return Err("--edits and --reps must be positive".into());
    }
    Ok(o)
}

/// One seeded single-method additive edit: append `fresh = new T` to a
/// randomly chosen existing method, with `T` drawn from the program's
/// classes. This is the "developer edits one method body" workload the
/// incremental engine is built for.
fn single_method_edit(program: &Program, step: usize, seed: u64) -> ProgramDelta {
    let mut rng = Rng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(step as u64),
    );
    let mut next = || rng.next_u64() as usize;
    let meth = pta_ir::MethodId::from_index(next() % program.method_count());
    let ty = pta_ir::TypeId::from_index(next() % program.type_count());
    let mut delta = ProgramDelta::new(program);
    let var = delta.var(meth, &format!("incr_v{step}"));
    delta.alloc(meth, var, ty, &format!("incr_h{step}"));
    delta
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn fmt_ms(secs: f64) -> f64 {
    (secs * 1e6).round() / 1e3
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: incrbench [--workload NAME] [--scale S] [--analysis NAME] [--edits N] \
                 [--seed S] [--reps N] [--min-speedup X] [--json PATH]"
            );
            return ExitCode::from(2);
        }
    };

    let base = generate(&dacapo_config(&o.workload, o.scale));
    let mut session = AnalysisSession::open(base)
        .policy(o.analysis)
        .incremental(true);
    let started = Instant::now();
    session.solve();
    let initial_solve = started.elapsed().as_secs_f64();
    println!(
        "{} @ {} x {}: initial solve {:.3}s (retained: {})",
        o.workload,
        o.scale,
        o.analysis.name(),
        initial_solve,
        session.is_retained()
    );

    let mut apply_secs: Vec<f64> = Vec::with_capacity(o.edits);
    let mut incremental_applies = 0usize;
    let mut last: Option<PointsToResult> = None;
    for step in 0..o.edits {
        let delta = single_method_edit(session.program(), step, o.seed);
        let t = Instant::now();
        let result = session.apply(&delta).expect("additive edit applies");
        apply_secs.push(t.elapsed().as_secs_f64());
        if session.last_apply_was_incremental() {
            incremental_applies += 1;
        }
        last = Some(result);
    }
    let last = last.expect("at least one edit");

    let final_program = session.program().clone();
    let mut solve_secs: Vec<f64> = Vec::with_capacity(o.reps);
    for _ in 0..o.reps {
        let mut scratch = AnalysisSession::from_arc(final_program.clone()).policy(o.analysis);
        let t = Instant::now();
        scratch.solve();
        solve_secs.push(t.elapsed().as_secs_f64());
    }

    let med_apply = median(&mut apply_secs);
    let med_solve = median(&mut solve_secs);
    let speedup = med_solve / med_apply;
    let all_incremental = incremental_applies == o.edits;
    let status = if all_incremental { "ok" } else { "fallback" };
    println!(
        "{} edits: median apply {:.3}ms, median re-solve {:.3}ms, speedup {:.1}x ({} incremental)",
        o.edits,
        med_apply * 1e3,
        med_solve * 1e3,
        speedup,
        incremental_applies
    );

    let row = format!(
        "[\n  {{\"schema_version\":1,\"workload\":\"{}\",\"scale\":{},\"analysis\":\"{}\",\
         \"status\":\"{}\",\"edits\":{},\"seed\":{},\"reps\":{},\
         \"incremental_applies\":{},\"initial_solve_ms\":{},\"median_apply_ms\":{},\
         \"median_solve_ms\":{},\"speedup\":{:.3},\"final_ctx_tuples\":{},\
         \"final_reachable\":{},\"final_call_edges\":{}}}\n]",
        o.workload,
        o.scale,
        o.analysis.name(),
        status,
        o.edits,
        o.seed,
        o.reps,
        incremental_applies,
        fmt_ms(initial_solve),
        fmt_ms(med_apply),
        fmt_ms(med_solve),
        speedup,
        last.ctx_var_points_to_count(),
        last.reachable_method_count(),
        last.ctx_call_graph_edge_count(),
    );
    if let Some(path) = &o.json {
        if let Err(e) = std::fs::write(path, format!("{row}\n")) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote {path}");
    }

    if !all_incremental {
        eprintln!(
            "error: {} of {} applies fell back to a from-scratch re-solve",
            o.edits - incremental_applies,
            o.edits
        );
        return ExitCode::FAILURE;
    }
    if speedup < o.min_speedup {
        eprintln!(
            "error: speedup {speedup:.1}x is below the required {:.1}x",
            o.min_speedup
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
