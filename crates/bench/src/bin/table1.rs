//! Regenerates the paper's Table 1 (§4.2) over the synthetic DaCapo suite.
//!
//! Usage: `cargo run --release -p pta-bench --bin table1 -- [flags]`
//! Flags: `--scale S --workloads A,B --analyses A,B --reps N --jobs N
//! --cell-timeout SECS --json PATH --trace-dir DIR --profile` (see the
//! crate docs; `PTA_*` environment variables are the fallback for each).
//!
//! Check mode: `table1 --check FILE [--expect-cells N]` parses a previous
//! `--json` dump with the workspace JSON reader, validates every row, and
//! exits without running anything — the CI smoke-perf step uses this to
//! assert a fresh dump is well-formed and complete. Rows with `--profile`
//! embeds validate too and are counted in the summary line.

use std::process::ExitCode;

use pta_bench::{json::validate_rows, maybe_dump_json, render_table1, run_matrix, MatrixOptions};
use pta_obs::json;

/// Count heap usage so every row carries `peak_rss_bytes` (see
/// `pta_govern::memtrack`); delegates to the system allocator.
#[global_allocator]
static ALLOC: pta_govern::memtrack::CountingAlloc = pta_govern::memtrack::CountingAlloc;

fn check(path: &str, expect_cells: Option<usize>) -> ExitCode {
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match json::parse(&source) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let summary = match validate_rows(&doc) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cells = summary.cells;
    if let Some(expected) = expect_cells {
        if cells != expected {
            eprintln!("error: {path}: {cells} cells, expected {expected}");
            return ExitCode::FAILURE;
        }
    }
    let mut notes = Vec::new();
    if summary.timeouts > 0 {
        // Timed-out cells are tolerated — the dump is well-formed and
        // complete — but loudly reported: their metrics are partial.
        notes.push(format!(
            "{} timed out; those rows carry partial results",
            summary.timeouts
        ));
    }
    if summary.memory_caps > 0 {
        notes.push(format!(
            "{} tripped their memory budget; those rows carry partial results",
            summary.memory_caps
        ));
    }
    if summary.profiled > 0 {
        notes.push(format!("{} carry profile embeds", summary.profiled));
    }
    if notes.is_empty() {
        println!("{path}: {cells} cells OK");
    } else {
        println!("{path}: {cells} cells OK ({})", notes.join("; "));
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--check") {
        let Some(path) = args.get(i + 1) else {
            eprintln!("usage: table1 --check FILE [--expect-cells N]");
            return ExitCode::FAILURE;
        };
        let expect = match args.iter().position(|a| a == "--expect-cells") {
            Some(j) => match args.get(j + 1).and_then(|n| n.parse().ok()) {
                Some(n) => Some(n),
                None => {
                    eprintln!("error: --expect-cells needs a number");
                    return ExitCode::FAILURE;
                }
            },
            None => None,
        };
        return check(path, expect);
    }

    let mut opts = MatrixOptions::default();
    if let Err(e) = opts.apply_cli_args(&args) {
        eprintln!("error: {e}");
        eprintln!(
            "usage: table1 [--scale S] [--workloads A,B] [--analyses A,B] \
             [--reps N] [--jobs N] [--cell-timeout SECS] [--max-memory BYTES] \
             [--json PATH] [--trace-dir DIR] [--profile] [--taint-groups N] \
             | table1 --check FILE [--expect-cells N]"
        );
        return ExitCode::FAILURE;
    }
    let rows = run_matrix(&opts);
    print!("{}", render_table1(&rows));
    maybe_dump_json(&opts, &rows);
    ExitCode::SUCCESS
}
