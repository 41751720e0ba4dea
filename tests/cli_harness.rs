//! The experiment harness through the `pta` binary: `table1`, `figure3`,
//! `summary` and `profdiff` take their flags like every other subcommand,
//! and every row a run dumps is well-formed and carries its peak heap.

use std::path::PathBuf;
use std::process::{Command, Output};

use pta_obs::json::{self, Value};

fn pta(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pta"))
        .args(args)
        .output()
        .expect("spawn pta")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A per-process path under the temp directory.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pta-cli-harness-{}-{name}", std::process::id()))
}

/// The rows of a `--json` dump.
fn rows(path: &PathBuf) -> Vec<Value> {
    let source = std::fs::read_to_string(path).expect("dump written");
    let doc = json::parse(&source).expect("dump is JSON");
    doc.as_array().expect("dump is an array").to_vec()
}

fn text<'a>(row: &'a Value, key: &str) -> &'a str {
    row.get(key).and_then(Value::as_str).unwrap_or("")
}

/// The smoke matrix, then the rule-profile drift gate: rerun the
/// configuration behind the checked-in `BENCH_profile.json` and hold every
/// rule's `fires` and `derived` counts exactly to it (`--tolerance 0`):
/// the solver is deterministic, and `fires` is read from `SolverStats`
/// through the solver's rule table, so any drift is a change. When a change
/// to rule behaviour is intended, regenerate the baseline in the same
/// commit and review its diff with the code change:
///
/// ```text
/// pta table1 --workloads luindex,lusearch --analyses insens,1obj,S-2obj+H \
///     --reps 1 --jobs 1 --profile --json BENCH_profile.json
/// ```
#[test]
fn table1_smoke_matrix_dumps_checks_and_measures_every_row() {
    let dump = scratch("smoke.json");
    let path = dump.to_str().unwrap();
    let out = pta(&[
        "table1",
        "--workloads",
        "luindex,lusearch",
        "--reps",
        "1",
        "--jobs",
        "1",
        "--json",
        path,
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).starts_with("Table 1:"), "{}", stdout(&out));
    let rows = rows(&dump);
    assert_eq!(rows.len(), 24);
    for row in &rows {
        let peak = row.get("peak_rss_bytes").and_then(Value::as_number);
        assert!(peak.is_some_and(|b| b > 0.0), "{row:?}");
        assert!(row.get("threads").is_none(), "{row:?}");
    }
    let profiled = scratch("profile.json");
    let profiled = profiled.to_str().unwrap();
    let out = pta(&[
        "table1",
        "--workloads",
        "luindex,lusearch",
        "--analyses",
        "insens,1obj,S-2obj+H",
        "--reps",
        "1",
        "--jobs",
        "1",
        "--profile",
        "--json",
        profiled,
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let out = pta(&[
        "profdiff",
        "BENCH_profile.json",
        profiled,
        "--tolerance",
        "0",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "rule profiles drifted from BENCH_profile.json; if intended, \
         regenerate it (see this test's docs):\n{}{}",
        stdout(&out),
        stderr(&out)
    );
    assert_eq!(stdout(&out), "[profdiff] 60 rule profiles match\n");
    std::fs::remove_file(profiled).ok();

    let out = pta(&["table1", "--check", path, "--expect-cells", "24"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(stdout(&out), format!("{path}: 24 cells OK\n"));
    let out = pta(&["table1", "--check", path, "--expect-cells", "25"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("24 cells, expected 25"),
        "{}",
        stderr(&out)
    );
    std::fs::write(&dump, "[{\"workload\":\"w\"}]").unwrap();
    let out = pta(&["table1", "--check", path]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("missing field \"analysis\""),
        "{}",
        stderr(&out)
    );

    // The checked-in baseline predates `status`, `threads` and
    // `schema_version`; it still checks.
    let out = pta(&[
        "table1",
        "--check",
        "BENCH_baseline.json",
        "--expect-cells",
        "120",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(stdout(&out), "BENCH_baseline.json: 120 cells OK\n");

    // figure3 and summary run the same matrix, so their rows carry the
    // peak heap too.
    for (sub, head) in [
        ("figure3", "workload,analysis,may_fail_casts,time_secs\n"),
        ("summary", "Summary"),
    ] {
        let out = pta(&[
            sub,
            "--workloads",
            "luindex",
            "--analyses",
            "2obj+H,S-2obj+H",
            "--reps",
            "1",
            "--jobs",
            "1",
            "--json",
            path,
        ]);
        assert_eq!(out.status.code(), Some(0), "{sub}: {}", stderr(&out));
        assert!(stdout(&out).contains(head), "{sub}: {}", stdout(&out));
        let rows = self::rows(&dump);
        assert_eq!(rows.len(), 2, "{sub}");
        for row in &rows {
            assert!(row.get("peak_rss_bytes").is_some(), "{sub}: {row:?}");
        }
    }
    std::fs::remove_file(&dump).ok();
}

/// The number of `solve` spans in a cell's trace: one per repetition.
fn solve_spans(trace: &PathBuf) -> usize {
    let source = std::fs::read_to_string(trace).expect("trace written");
    let doc = json::parse(&source).expect("trace is JSON");
    let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
    events.iter().filter(|e| text(e, "name") == "solve").count()
}

/// Every matrix flag reaches the harness: the workloads (trimmed) at the
/// scale with the taint fixtures, the analyses in order, the repetitions,
/// the worker count, the trace directory, the profile, the client columns
/// and the cell budgets.
#[test]
fn matrix_flags_reach_the_harness() {
    let dump = scratch("flags.json");
    let traces = scratch("traces");
    let out = pta(&[
        "table1",
        "--scale",
        "0.2",
        "--workloads",
        "antlr, chart",
        "--analyses",
        "insens,S-2obj+H",
        "--reps",
        "2",
        "--jobs",
        "2",
        "--cell-timeout",
        "600",
        "--max-memory",
        "1G",
        "--json",
        dump.to_str().unwrap(),
        "--trace-dir",
        traces.to_str().unwrap(),
        "--profile",
        "--taint-groups",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("[pta-bench] 4 cells on 2 workers"), "{err}");
    for name in ["antlr", "chart"] {
        let generated = pta(&["workload", name, "--scale", "0.2", "--taint-groups", "2"]);
        let stats = stdout(&generated);
        let stats = stats.split_once(": ").expect("NAME @ SCALE: stats").1;
        assert!(
            err.contains(&format!("[pta-bench] {name}: {stats}")),
            "{name}: {err}"
        );
    }
    let rows = rows(&dump);
    let cells: Vec<(&str, &str)> = rows
        .iter()
        .map(|r| (text(r, "workload"), text(r, "analysis")))
        .collect();
    assert_eq!(
        cells,
        [
            ("antlr", "insens"),
            ("antlr", "S-2obj+H"),
            ("chart", "insens"),
            ("chart", "S-2obj+H")
        ]
    );
    for row in &rows {
        assert_eq!(text(row, "status"), "ok", "{row:?}");
        assert!(row.get("profile").is_some(), "{row:?}");
        assert!(row.get("clients").is_some(), "{row:?}");
        let trace = traces.join(format!(
            "{}-{}.trace.json",
            text(row, "workload"),
            text(row, "analysis")
        ));
        assert_eq!(solve_spans(&trace), 2, "{}", trace.display());
    }

    // A microsecond deadline trips every cell, and a kilobyte budget caps
    // every cell; the roomy ones above tripped none.
    for (budget, value, status) in [
        ("--cell-timeout", "0.000001", "timeout"),
        ("--max-memory", "1K", "memory_cap"),
    ] {
        let out = pta(&[
            "table1",
            "--workloads",
            "luindex",
            "--analyses",
            "insens,2obj+H",
            "--reps",
            "2",
            "--jobs",
            "1",
            budget,
            value,
            "--json",
            dump.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(0), "{budget}: {}", stderr(&out));
        for row in &self::rows(&dump) {
            assert_eq!(text(row, "status"), status, "{budget}: {row:?}");
        }
    }
    std::fs::remove_file(&dump).ok();

    // A trace that cannot be written fails the run with E031.
    let blocked = traces.join("luindex-insens.trace.json");
    std::fs::create_dir_all(&blocked).unwrap();
    for jobs in ["1", "2"] {
        let out = pta(&[
            "table1",
            "--workloads",
            "luindex",
            "--analyses",
            "insens,1obj",
            "--reps",
            "1",
            "--jobs",
            jobs,
            "--trace-dir",
            traces.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(2), "jobs {jobs}");
        let err = stderr(&out);
        assert!(
            err.contains(&format!("error[E031]: cannot write {}", blocked.display())),
            "jobs {jobs}: {err}"
        );
    }
    std::fs::remove_dir_all(&traces).ok();

    // An unwritable dump or trace directory fails before any workload is
    // generated.
    let file = scratch("not-a-dir");
    std::fs::write(&file, "").unwrap();
    for flag in ["--json", "--trace-dir"] {
        let out = pta(&["table1", flag, file.join("x").to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let err = stderr(&out);
        assert!(err.starts_with("error[E031]: cannot "), "{flag}: {err}");
        assert!(!err.contains("[pta-bench]"), "{flag}: {err}");
    }
    std::fs::remove_file(&file).ok();

    // A value out of range is the same E030 as on every subcommand.
    for args in [
        &["table1", "--reps", "0"] as &[&str],
        &["table1", "--cell-timeout", "-1"],
        &["table1", "--jobs", "many"],
        &["table1", "--taint-groups"],
        &["profdiff", "a.json", "b.json", "--tolerance", "-5"],
    ] {
        let out = pta(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr(&out);
        let flag = args.iter().rev().find(|a| a.starts_with("--")).unwrap();
        assert!(
            err.contains(&format!("error[E030]: {flag} needs")),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn profdiff_fails_on_drift_beyond_the_tolerance() {
    let out = pta(&["profdiff", "BENCH_profile.json", "BENCH_profile.json"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(stdout(&out), "[profdiff] 60 rule profiles match\n");

    // Move the first rule's `fires` by 10%: past 5%, within 20%.
    let baseline = std::fs::read_to_string("BENCH_profile.json").unwrap();
    let fires: u64 = baseline
        .split("\"fires\":")
        .nth(1)
        .unwrap()
        .split(',')
        .next()
        .unwrap()
        .parse()
        .unwrap();
    let moved = fires + fires / 10 + 1;
    let current = scratch("moved.json");
    std::fs::write(
        &current,
        baseline.replacen(
            &format!("\"fires\":{fires},"),
            &format!("\"fires\":{moved},"),
            1,
        ),
    )
    .unwrap();
    let current = current.to_str().unwrap();
    let out = pta(&[
        "profdiff",
        "BENCH_profile.json",
        current,
        "--tolerance",
        "5",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let report = stdout(&out);
    assert!(
        report.contains(&format!("luindex/insens alloc fires: {fires} -> {moved}")),
        "{report}"
    );
    assert!(
        report.contains("[profdiff] 1 drifted counters across 60 compared rules"),
        "{report}"
    );
    let out = pta(&[
        "profdiff",
        "BENCH_profile.json",
        current,
        "--tolerance",
        "20",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    // A baseline row the current dump lacks is a drift too.
    let first_row = baseline.lines().nth(1).unwrap();
    std::fs::write(current, baseline.replacen(&format!("{first_row}\n"), "", 1)).unwrap();
    let out = pta(&["profdiff", "BENCH_profile.json", current]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("luindex/insens: missing from the current dump"),
        "{}",
        stdout(&out)
    );

    // Dumps without profiles have nothing to compare.
    let out = pta(&["profdiff", "BENCH_baseline.json", "BENCH_baseline.json"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("no comparable profiled rows"));
    std::fs::remove_file(current).ok();
}
