//! The host and provenance block recorded with every result: what ran the
//! benchmark, on what, from which source.

use std::path::Path;
use std::process::Command;

use pta_serve::json::escape;

/// The first line of a command's standard output, if it ran and succeeded.
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_owned()
    })
}

/// The value after `key` in a `key : value` line of a `/proc` file.
fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_owned())
    })
}

/// The host block as a JSON object: core count, CPU model, memory, Rust
/// compiler, source commit (when run from a git checkout) and whether the
/// tree had uncommitted changes, plus the seed of the run.
#[must_use]
pub fn host_json(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into());
    let mem_mb = proc_field("/proc/meminfo", "MemTotal")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb / 1024);
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc = first_line(&rustc, &["-V"]).unwrap_or_else(|| "unknown".into());
    let (commit, dirty) = if Path::new(".git").exists() {
        let commit = first_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
        let status = Command::new("git")
            .args(["status", "--porcelain", "--untracked-files=no"])
            .output();
        let dirty = status.is_ok_and(|o| !o.stdout.is_empty());
        (commit, dirty)
    } else {
        ("none".to_owned(), false)
    };
    format!(
        "{{\"nproc\":{nproc},\"cpu\":\"{}\",\"mem_mb\":{mem_mb},\"rustc\":\"{}\",\
         \"commit\":\"{}\",\"dirty\":{dirty},\"seed\":{seed}}}",
        escape(&cpu),
        escape(&rustc),
        escape(&commit)
    )
}
