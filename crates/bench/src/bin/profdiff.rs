//! Compares per-rule fire counts between two profiled bench dumps.
//!
//! Usage: `profdiff BASELINE CURRENT [--tolerance PCT]`
//!
//! Both inputs are `table1 --profile --json` dumps (the checked-in
//! baseline is `BENCH_profile.json`). Rows are matched by `(workload,
//! analysis, threads)`; for every rule in a matched pair the `fires` and
//! `derived` counters are compared. The solver is deterministic, so on an
//! unchanged tree the counts agree exactly; a drift means the rule
//! engine's behaviour changed and the baseline needs a deliberate
//! regeneration. `--tolerance PCT` (default `0`) allows proportional
//! slack for experiments that are expected to move counts slightly.
//!
//! Timing (`ns`) is never compared — it is machine noise by design.
//!
//! Exit codes: `0` all matched rules agree, `1` drift detected (or no
//! comparable rows), `2` usage or input errors. CI gates on this
//! (`ci.sh` runs it with `--tolerance 5`): drift fails the build, and an
//! *intended* behaviour change must regenerate `BENCH_profile.json` in
//! the same commit (the refresh command is printed by `ci.sh` and
//! documented in the README).

use std::process::ExitCode;

use pta_bench::json::validate_rows;
use pta_obs::json::{self, Value};

const USAGE: &str = "usage: profdiff BASELINE CURRENT [--tolerance PCT]";

/// One row's rule table, keyed for matching against the other dump.
struct ProfiledRow {
    key: (String, String, u64),
    /// `(rule name, fires, derived)` in dump order.
    rules: Vec<(String, u64, u64)>,
}

fn load(path: &str) -> Result<Vec<ProfiledRow>, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&source).map_err(|e| format!("{path}: {e}"))?;
    validate_rows(&doc).map_err(|e| format!("{path}: {e}"))?;
    let rows = doc.as_array().expect("validated dumps are arrays");
    let mut out = Vec::new();
    for row in rows {
        let Some(profile) = row.get("profile") else {
            continue; // unprofiled rows have nothing to diff
        };
        let field = |k: &str| row.get(k).and_then(Value::as_str).unwrap_or("").to_owned();
        let threads = row.get("threads").and_then(Value::as_number).unwrap_or(1.0) as u64;
        let rules = profile
            .get("rules")
            .and_then(Value::as_array)
            .expect("validated profiles carry a rules array")
            .iter()
            .map(|r| {
                let num = |k: &str| r.get(k).and_then(Value::as_number).unwrap_or(0.0) as u64;
                (
                    r.get("name")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_owned(),
                    num("fires"),
                    num("derived"),
                )
            })
            .collect();
        out.push(ProfiledRow {
            key: (field("workload"), field("analysis"), threads),
            rules,
        });
    }
    Ok(out)
}

/// `true` if `current` is within `tolerance` (a fraction, e.g. `0.05`)
/// of `base`, in either direction.
fn within(base: u64, current: u64, tolerance: f64) -> bool {
    let slack = (base as f64 * tolerance).abs();
    (current as f64 - base as f64).abs() <= slack
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut tolerance = 0.0f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tolerance" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("error: --tolerance needs a percentage\n{USAGE}");
                    return ExitCode::from(2);
                };
                tolerance = v / 100.0;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => paths.push(other.to_owned()),
        }
        i += 1;
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let (baseline, current) = match (load(baseline_path), load(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let mut compared = 0usize;
    let mut drifted = 0usize;
    for b in &baseline {
        let Some(c) = current.iter().find(|c| c.key == b.key) else {
            eprintln!(
                "[profdiff] {}/{} x{}: missing from {current_path}",
                b.key.0, b.key.1, b.key.2
            );
            drifted += 1;
            continue;
        };
        for (name, b_fires, b_derived) in &b.rules {
            let Some((_, c_fires, c_derived)) = c.rules.iter().find(|(n, _, _)| n == name) else {
                eprintln!(
                    "[profdiff] {}/{} x{}: rule {name:?} missing from {current_path}",
                    b.key.0, b.key.1, b.key.2
                );
                drifted += 1;
                continue;
            };
            compared += 1;
            for (what, base, cur) in [
                ("fires", *b_fires, *c_fires),
                ("derived", *b_derived, *c_derived),
            ] {
                if !within(base, cur, tolerance) {
                    let delta = cur as i128 - base as i128;
                    println!(
                        "{}/{} x{} {name} {what}: {base} -> {cur} ({delta:+})",
                        b.key.0, b.key.1, b.key.2
                    );
                    drifted += 1;
                }
            }
        }
    }
    if compared == 0 {
        eprintln!("error: no comparable profiled rows between the two dumps");
        return ExitCode::FAILURE;
    }
    if drifted > 0 {
        println!("[profdiff] {drifted} drifted counters across {compared} compared rules");
        return ExitCode::FAILURE;
    }
    println!("[profdiff] {compared} rule profiles match");
    ExitCode::SUCCESS
}
