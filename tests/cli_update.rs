//! `pta update` end to end: the binary replays a seeded edit stream
//! through an incremental session and byte-compares every result with a
//! from-scratch solve, exiting non-zero on any divergence. One run on a
//! throw-free example, one on a workload with live exception flow, so
//! both the in-place path and the fallback re-solve are driven.

use std::process::Command;

fn update(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_pta"))
        .arg("update")
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run pta update");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "pta update {args:?} exited {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("identical to scratch"), "{stdout}");
    stdout
}

#[test]
fn update_on_a_throw_free_example_matches_scratch() {
    update(&["examples/programs/motivating.jir", "--edits", "5"]);
}

#[test]
fn update_under_exception_flow_matches_scratch() {
    update(&["--workload", "luindex:0.3", "--edits", "20"]);
}
