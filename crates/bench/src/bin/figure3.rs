//! Regenerates the paper's Figure 3 (§4.1): execution time vs may-fail
//! casts, one series per benchmark. Prints CSV data followed by ASCII
//! scatter plots (lower-left is better, as in the paper).
//!
//! Usage: `cargo run --release -p pta-bench --bin figure3 -- [flags]`
//! Flags: `--scale S --workloads A,B --analyses A,B --reps N --jobs N
//! --json PATH` (`PTA_*` environment variables are the fallback for each).

use std::process::ExitCode;

use pta_bench::{
    maybe_dump_json, render_figure3_csv, render_figure3_scatter, run_matrix, MatrixOptions,
};

fn main() -> ExitCode {
    let mut opts = MatrixOptions::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = opts.apply_cli_args(&args) {
        eprintln!("error: {e}");
        eprintln!(
            "usage: figure3 [--scale S] [--workloads A,B] [--analyses A,B] \
             [--reps N] [--jobs N] [--cell-timeout SECS] [--json PATH]"
        );
        return ExitCode::FAILURE;
    }
    let rows = run_matrix(&opts);
    println!("{}", render_figure3_csv(&rows));
    print!("{}", render_figure3_scatter(&rows));
    maybe_dump_json(&opts, &rows);
    ExitCode::SUCCESS
}
