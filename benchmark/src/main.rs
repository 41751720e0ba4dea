//! `pta-benchmark`: run the workloads, bless golden digests, compare runs.
//!
//! ```text
//! run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!     [--trace-dir DIR] [--tsv FILE] [--json FILE]
//! bless
//! compare A.tsv B.tsv [--spec BENCHMARK.json]
//! ```
//!
//! `run` without `--workload` runs every workload, each in its own process
//! so heap peaks and allocator state do not carry over. The last line of
//! standard output is always one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};

use pta_benchmark::{
    compare, digest, host, json_num, programs, run_workload, serve, Params, WORKLOADS,
};
use pta_core::{Analysis, AnalysisSession, Backend};
use pta_serve::json::{self, Value};

/// Heap peaks are measured by the same counting allocator the `pta`
/// binary installs.
#[global_allocator]
static ALLOC: pta_govern::memtrack::CountingAlloc = pta_govern::memtrack::CountingAlloc;

const USAGE: &str = "usage: pta-benchmark run [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--trace-dir DIR] [--tsv FILE] [--json FILE]\n       \
                     pta-benchmark bless\n       \
                     pta-benchmark compare A.tsv B.tsv [--spec BENCHMARK.json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("bless") if args.len() == 1 => cmd_bless(),
        Some("compare") => cmd_compare(&args[1..]),
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("pta-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Flags of `run`.
struct RunArgs {
    workload: Option<String>,
    params: Params,
    trace_dir: Option<String>,
    tsv: Option<String>,
    json: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workload: None,
        params: Params {
            seed: 0,
            seconds: 10.0,
            trace: false,
            tiny: false,
        },
        trace_dir: None,
        tsv: None,
        json: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => r.workload = Some(value.clone()),
            "--seed" => r.params.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                r.params.seconds = value.parse().map_err(|_| bad())?;
                if !(r.params.seconds.is_finite() && r.params.seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                r.params.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--trace-dir" => r.trace_dir = Some(value.clone()),
            "--tsv" => r.tsv = Some(value.clone()),
            "--json" => r.json = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(r)
}

fn append(path: &str, text: &str) -> Result<(), String> {
    OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(text.as_bytes()))
        .map_err(|e| format!("cannot write {path}: {e}"))
}

fn write(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let r = parse_run(args)?;
    match &r.workload {
        Some(name) => run_one(&r, name),
        None => run_all(args, &r),
    }
}

/// Runs one workload in this process and prints its metrics, its result
/// record and the verdict line.
fn run_one(r: &RunArgs, name: &str) -> Result<ExitCode, String> {
    let outcome = run_workload(name, r.params)?;
    for p in &outcome.problems {
        eprintln!("{name}: FAILED CHECK: {p}");
    }
    for m in &outcome.metrics {
        println!(
            "{:<13} {:<28} {:>14} {:<6} n={}",
            name,
            m.name,
            json_num(m.value),
            m.unit,
            m.n
        );
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{{\"name\":\"{}\",\"value\":{},\"unit\":\"{}\",\"n\":{}}}",
                m.name,
                json_num(m.value),
                m.unit,
                m.n
            )
        })
        .collect();
    let host = host::host_json(r.params.seed);
    let record = format!(
        "{{\"workload\":\"{name}\",\"trace\":{},\"seconds\":{},\"host\":{host},\"attempted\":{},\
         \"failed\":{},\"metrics\":[{}]}}",
        r.params.trace,
        r.params.seconds,
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
    println!("result {record}");
    if let Some(path) = &r.tsv {
        // The comment line keeps each set of rows with its host block.
        append(path, &format!("# {name} host {host}\n{}", outcome.tsv()))?;
    }
    if let Some(path) = &r.json {
        write(path, &format!("[{record}]\n"))?;
    }
    if let (Some(dir), Some(chrome)) = (&r.trace_dir, &outcome.chrome) {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        write(&format!("{dir}/{name}.trace.json"), chrome)?;
        write(&format!("{dir}/{name}.layers.tsv"), &outcome.tsv())?;
    }
    println!("{}", outcome.verdict_json());
    Ok(ExitCode::SUCCESS)
}

/// Runs every workload, each in a child process of this binary, and
/// prints a combined verdict whose metric names are `workload/metric`.
fn run_all(args: &[String], r: &RunArgs) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    // Children get every flag but `--json`, which this process writes.
    let mut passed: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().expect("flags were validated");
        if flag != "--json" {
            passed.extend([flag, value]);
        }
    }
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let (mut metrics, mut records) = (Vec::new(), Vec::new());
    for name in WORKLOADS {
        let out = Command::new(&exe)
            .arg("run")
            .args(&passed)
            .args(["--workload", name])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let verdict = lines.pop().and_then(|l| json::parse(l).ok());
        let Some(verdict) = verdict.filter(|_| out.status.success()) else {
            return Err(format!("workload {name} failed ({})", out.status));
        };
        for line in &lines {
            println!("{line}");
            if let Some(rec) = line.strip_prefix("result ") {
                records.push(rec.to_owned());
            }
        }
        correct &= verdict.get("correct").and_then(Value::as_bool) == Some(true);
        attempted += verdict
            .get("attempted")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        failed += verdict.get("failed").and_then(Value::as_u64).unwrap_or(0);
        if let Some(Value::Object(ms)) = verdict.get("metrics") {
            for (metric, v) in ms {
                let value = match v.get("value") {
                    Some(Value::Number(x)) => *x,
                    _ => 0.0,
                };
                let unit = v.get("unit").and_then(Value::as_str).unwrap_or("");
                metrics.push(format!(
                    "\"{name}/{metric}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_num(value)
                ));
            }
        }
    }
    if let Some(path) = &r.json {
        write(path, &format!("[{}]\n", records.join(",\n")))?;
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
    Ok(ExitCode::SUCCESS)
}

/// Writes the seed-0 golden digests to `expected/digests.tsv`, after
/// checking that the dense solver and the Datalog back end agree on each
/// workload's program at scale 4 (Datalog is not feasible at the
/// benchmark's scales).
fn cmd_bless() -> Result<ExitCode, String> {
    use Analysis::{Insens, STwoObjH, TwoObjH, UTwoObjH};
    // The (program, scale, policies) each workload checks against.
    let sets: [(&str, f64, &[Analysis]); 2] = [
        ("luindex", 64.0, &[Insens, TwoObjH, STwoObjH]),
        ("chart", 24.0, &[TwoObjH, UTwoObjH, STwoObjH]),
    ];
    let mut lines = Vec::new();
    for (name, scale, policies) in sets {
        let cross = pta_lang::parse_program(&programs::generate_text(name, 4.0))
            .map_err(|e| e.to_string())?;
        let program = pta_lang::parse_program(&programs::generate_text(name, scale))
            .map_err(|e| e.to_string())?;
        for &policy in policies {
            cross_check(name, &cross, policy)?;
            let canon = digest::Canon::new(&program);
            let result = AnalysisSession::open(program.clone())
                .policy(policy)
                .solve();
            let key = programs::golden_key(name, scale, policy.name());
            lines.push(format!(
                "{key}\t{}",
                digest::canonical(&program, &canon, &result)
            ));
            eprintln!("blessed {key}");
        }
    }
    let (name, scale) = ("luindex", 16.0);
    let source = pta_serve::ProgramSource::Workload {
        name: name.into(),
        scale: scale.to_string(),
    };
    let policies = serve::POLICIES.map(str::to_owned);
    let resident = pta_serve::Resident::build(&[source], &policies, &Default::default())?;
    let rp = &resident.programs[0];
    let cross = pta_workload::dacapo_workload(name, 4.0);
    for e in &rp.entries {
        cross_check(name, &cross, e.policy)?;
        let key = format!("serve {}/{}", rp.name, e.policy.name());
        let canon = digest::Canon::new(&rp.program);
        lines.push(format!(
            "{key}\t{}",
            digest::canonical(&rp.program, &canon, &e.result)
        ));
        eprintln!("blessed {key}");
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected/digests.tsv");
    write(path, &(lines.join("\n") + "\n"))?;
    eprintln!("wrote {path}");
    Ok(ExitCode::SUCCESS)
}

/// Dense and Datalog digests of `program` under `policy` must agree.
fn cross_check(name: &str, program: &pta_ir::Program, policy: Analysis) -> Result<(), String> {
    let canon = digest::Canon::new(program);
    let [dense, datalog] = [Backend::Dense, Backend::Datalog].map(|backend| {
        let session = AnalysisSession::open(program.clone()).policy(policy);
        digest::canonical(program, &canon, &session.backend(backend).solve())
    });
    if dense == datalog {
        Ok(())
    } else {
        Err(format!(
            "{name}:4/{}: dense digest {dense} but Datalog {datalog}",
            policy.name()
        ))
    }
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let (files, spec_path): (Vec<&String>, &str) = match args {
        [a, b] => (vec![a, b], "BENCHMARK.json"),
        [a, b, flag, spec] if flag == "--spec" => (vec![a, b], spec.as_str()),
        _ => return Err(USAGE.to_owned()),
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let spec = compare::read_spec(&read(spec_path)?).map_err(|e| format!("{spec_path}: {e}"))?;
    let a = compare::read_tsv(&read(files[0])?).map_err(|e| format!("{}: {e}", files[0]))?;
    let b = compare::read_tsv(&read(files[1])?).map_err(|e| format!("{}: {e}", files[1]))?;
    let (report, regressed) = compare::compare(&a, &b, &spec);
    print!("{report}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
