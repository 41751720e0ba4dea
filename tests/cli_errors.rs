//! The driver's error contract: every usage, I/O, and frontend problem is
//! a *structured* diagnostic (E030/E031/E007/E008) on stderr with exit
//! code 2 — never a panic, never a free-form message. The three cases
//! here are the top user-controlled inputs that previously bypassed the
//! diagnostic model (including a `Duration::from_secs_f64` overflow panic
//! on absurd `--timeout` values).

use std::process::{Command, Output};

fn pta(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pta"))
        .args(args)
        .output()
        .expect("spawn pta")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_flags_are_e030_usage_errors() {
    for args in [
        &["analyze", "x.jir", "--frobnicate"] as &[&str],
        &["check", "x.jir", "--frobnicate"],
        &["workload", "antlr", "--frobnicate"],
        &["serve", "--frobnicate"],
        &["explain", "x.jir", "v", "o", "--frobnicate"],
        &["update", "x.jir", "--frobnicate"],
        &["lint", "x.jir", "--frobnicate"],
    ] {
        let out = pta(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr(&out);
        assert!(err.contains("error[E030]"), "{args:?}: {err}");
        assert!(err.contains("unknown flag --frobnicate"), "{err}");
    }
}

#[test]
fn missing_and_extra_arguments_are_e030_followed_by_the_usage_line() {
    for (args, detail, usage) in [
        (&[] as &[&str], "missing subcommand", "usage: pta <"),
        (
            &["frobnicate"],
            "unknown subcommand frobnicate",
            "usage: pta <",
        ),
        (&["analyze"], "expected FILE.jir", "usage: pta analyze"),
        (
            &["analyze", "--stats"],
            "expected FILE.jir",
            "usage: pta analyze",
        ),
        (&["check"], "expected FILE.jir", "usage: pta check"),
        (
            &["lint"],
            "expected FILE.jir or --explain CODE",
            "usage: pta lint",
        ),
        (
            &["explain", "a", "b"],
            "got 2 argument(s)",
            "usage: pta explain",
        ),
        (&["update"], "exactly one of", "usage: pta update"),
        (
            &["update", "a.jir", "--workload", "antlr:1"],
            "exactly one of",
            "usage: pta update",
        ),
        (
            &["update", "a.jir", "b.jir"],
            "unexpected argument b.jir",
            "usage: pta update",
        ),
        (&["workload"], "expected NAME", "usage: pta workload"),
        (&["serve"], "at least one program", "usage: pta serve"),
    ] {
        let out = pta(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr(&out);
        let diag = err
            .find("error[E030]")
            .unwrap_or_else(|| panic!("{args:?}: {err}"));
        assert!(err[diag..].contains(detail), "{args:?}: {err}");
        let line = err.find(usage).unwrap_or_else(|| panic!("{args:?}: {err}"));
        assert!(
            diag < line,
            "{args:?}: usage line before the diagnostic: {err}"
        );
    }
}

#[test]
fn bad_flag_values_say_the_same_on_every_subcommand() {
    let detail = "invalid byte size `12Q`";
    for args in [
        &["analyze", "x.jir", "--max-memory", "12Q"] as &[&str],
        &["check", "x.jir", "--max-memory", "12Q"],
        &[
            "serve",
            "--workload",
            "antlr:0.1",
            "--solve-max-memory",
            "12Q",
        ],
    ] {
        let out = pta(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr(&out);
        assert!(err.contains("error[E030]"), "{args:?}: {err}");
        assert!(err.contains(detail), "{args:?}: {err}");
    }
    // One NAME:SCALE check behind every --workload and --scale.
    for args in [
        &["workload", "antlr", "--scale", "2000"] as &[&str],
        &["update", "--workload", "antlr:2000"],
        &["serve", "--workload", "antlr:2000"],
    ] {
        let out = pta(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr(&out);
        assert!(err.contains("error[E030]"), "{args:?}: {err}");
        assert!(
            err.contains("\"2000\" is not a finite number in (0, 1024]"),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn absurd_timeout_values_are_rejected_not_panicked() {
    // 1e300 seconds overflows Duration::from_secs_f64; before the E030
    // audit this aborted with a panic backtrace.
    for sub in ["analyze", "check"] {
        let out = pta(&[sub, "x.jir", "--timeout", "1e300"]);
        assert_eq!(out.status.code(), Some(2), "{sub}");
        let err = stderr(&out);
        assert!(!err.contains("panicked"), "{sub}: {err}");
        assert!(err.contains("error[E030]"), "{sub}: {err}");
    }
    // Same audit: non-finite workload scales.
    let out = pta(&["workload", "antlr", "--scale", "inf"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("error[E030]"));
}

#[test]
fn unreadable_inputs_are_e031_io_errors() {
    for args in [
        &["analyze", "/nonexistent/prog.jir"] as &[&str],
        &["lint", "/nonexistent/prog.jir"],
        &["check", "/nonexistent/prog.jir"],
    ] {
        let out = pta(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains("error[E031]"), "{args:?}");
    }
}

#[test]
fn frontend_errors_reuse_the_lint_codes_with_the_path_as_context() {
    let path = std::env::temp_dir().join(format!("pta-cli-errors-{}.jir", std::process::id()));
    std::fs::write(&path, "class {").unwrap();
    let out = pta(&["analyze", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("error[E007]"), "{err}");
    assert!(err.contains(path.to_str().unwrap()), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn e030_and_e031_are_documented_codes() {
    for code in ["E030", "E031"] {
        let out = pta(&["lint", "--explain", code]);
        assert_eq!(out.status.code(), Some(0), "{code}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains(code),
            "{code}"
        );
    }
}
