//! Computes the paper's §1/§4 aggregate claims (average speedups, uniform
//! hybrid slowdowns, the 1call+H tradeoff) from a full matrix run and
//! reports paper-vs-measured for each.
//!
//! Usage: `cargo run --release -p pta-bench --bin summary -- [flags]`
//! Flags: `--scale S --workloads A,B --analyses A,B --reps N --jobs N
//! --json PATH` (`PTA_*` environment variables are the fallback for each).

use std::process::ExitCode;

use pta_bench::{maybe_dump_json, render_summary, run_matrix, MatrixOptions};

fn main() -> ExitCode {
    let mut opts = MatrixOptions::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = opts.apply_cli_args(&args) {
        eprintln!("error: {e}");
        eprintln!(
            "usage: summary [--scale S] [--workloads A,B] [--analyses A,B] \
             [--reps N] [--jobs N] [--cell-timeout SECS] [--json PATH]"
        );
        return ExitCode::FAILURE;
    }
    let rows = run_matrix(&opts);
    print!("{}", render_summary(&rows));
    maybe_dump_json(&opts, &rows);
    ExitCode::SUCCESS
}
