//! Cross-validation of the `pta check` client suite (taint, escape,
//! nullness): the direct Rust fixpoints and the Datalog rule set must
//! produce **byte-identical** findings, on both points-to back ends, at
//! any worker count, for every policy.
//!
//! This mirrors `tests/cross_validation.rs` one level up the stack: two
//! independently written client implementations (explicit fixpoints vs.
//! declarative rules over the solver's EDB) agree not just semantically
//! but down to the rendered diagnostic bytes.

use hybrid_pta::clients::{run_check, CheckSpec, ClientBackend};
use hybrid_pta::ir::Program;
use hybrid_pta::workload::{dacapo_config, generate, TAINT_SPEC};
use hybrid_pta::{Analysis, AnalysisSession, Backend};
use pta_lint::render_json;

/// A workload with injected taint fixtures, so all three clients have
/// real findings to disagree about.
fn fixture_workload(name: &str, scale: f64, groups: usize) -> Program {
    let mut cfg = dacapo_config(name, scale);
    cfg.taint_groups = groups;
    generate(&cfg)
}

fn spec() -> CheckSpec {
    CheckSpec::parse(TAINT_SPEC).expect("TAINT_SPEC is well-formed")
}

/// Renders a report to the exact bytes `pta check --format json` emits
/// for its diagnostics.
fn report_bytes(program: &Program, report: &hybrid_pta::clients::CheckReport) -> String {
    render_json(&report.to_diagnostics(program))
}

#[test]
fn client_backends_agree_byte_for_byte_across_policies() {
    let program = fixture_workload("luindex", 0.1, 2);
    let spec = spec();
    for analysis in Analysis::ALL {
        let result = AnalysisSession::open(program.clone())
            .policy(analysis)
            .solve();
        let direct = run_check(&program, &result, &spec, ClientBackend::Direct);
        let datalog = run_check(&program, &result, &spec, ClientBackend::Datalog);
        assert_eq!(direct, datalog, "{analysis}: reports diverge");
        assert!(
            !direct.taint.is_empty() && !direct.nullness.is_empty(),
            "{analysis}: fixture produced no findings — test is vacuous"
        );
        assert_eq!(
            report_bytes(&program, &direct),
            report_bytes(&program, &datalog),
            "{analysis}: rendered diagnostics diverge"
        );
    }
}

#[test]
fn points_to_backends_and_thread_counts_agree() {
    let program = fixture_workload("antlr", 0.1, 2);
    let spec = spec();
    for analysis in [
        Analysis::Insens,
        Analysis::OneObj,
        Analysis::SAOneObj,
        Analysis::STwoObjH,
    ] {
        let dense = AnalysisSession::open(program.clone())
            .policy(analysis)
            .solve();
        // `threads` is a deprecated no-op kept for old callers; asking
        // for 4 threads must not move a single finding.
        #[allow(deprecated)]
        let parallel = AnalysisSession::open(program.clone())
            .policy(analysis)
            .threads(4)
            .solve();
        let datalog = AnalysisSession::open(program.clone())
            .policy(analysis)
            .backend(Backend::Datalog)
            .solve();
        let baseline = report_bytes(
            &program,
            &run_check(&program, &dense, &spec, ClientBackend::CrossValidated),
        );
        for (label, result) in [("threads 4", &parallel), ("datalog backend", &datalog)] {
            let bytes = report_bytes(
                &program,
                &run_check(&program, result, &spec, ClientBackend::CrossValidated),
            );
            assert_eq!(baseline, bytes, "{analysis}/{label}: findings differ");
        }
    }
}

/// The headline client-level claim (EXPERIMENTS.md): every hybrid policy
/// reports strictly fewer alarms than its pure base on all three clients,
/// and the hybrids agree with the call-site family's ground truth.
#[test]
fn hybrids_report_strictly_fewer_alarms_than_their_pure_bases() {
    let program = fixture_workload("luindex", 0.1, 3);
    let spec = spec();
    let count = |analysis: Analysis| {
        let result = AnalysisSession::open(program.clone())
            .policy(analysis)
            .solve();
        let r = run_check(&program, &result, &spec, ClientBackend::Direct);
        (r.taint.len(), r.escape.len(), r.nullness.len())
    };
    let truth = count(Analysis::OneCall);
    for (pure, hybrids) in [
        (
            Analysis::OneObj,
            &[Analysis::UOneObj, Analysis::SAOneObj, Analysis::SBOneObj][..],
        ),
        (
            Analysis::TwoObjH,
            &[Analysis::UTwoObjH, Analysis::STwoObjH][..],
        ),
        (
            Analysis::TwoTypeH,
            &[Analysis::UTwoTypeH, Analysis::STwoTypeH][..],
        ),
        (Analysis::ThreeObj2H, &[Analysis::SThreeObj2H][..]),
    ] {
        let (pt, pe, pn) = count(pure);
        for &hybrid in hybrids {
            let (ht, he, hn) = count(hybrid);
            assert!(
                ht < pt && he < pe && hn < pn,
                "{hybrid} ({ht}/{he}/{hn}) not strictly below {pure} ({pt}/{pe}/{pn})"
            );
            assert_eq!(
                (ht, hn),
                (truth.0, truth.2),
                "{hybrid}: taint/nullness truth"
            );
        }
    }
}

/// The full acceptance sweep: all 18 policies x all 10 DaCapo-shaped
/// workloads (miniature scale), direct vs. Datalog client back ends
/// byte-identical on every cell.
#[test]
fn full_matrix_client_backends_agree() {
    use hybrid_pta::workload::DACAPO_NAMES;
    let spec = spec();
    for name in DACAPO_NAMES {
        let program = fixture_workload(name, 0.05, 1);
        for analysis in Analysis::ALL {
            let result = AnalysisSession::open(program.clone())
                .policy(analysis)
                .solve();
            let direct = run_check(&program, &result, &spec, ClientBackend::Direct);
            let datalog = run_check(&program, &result, &spec, ClientBackend::Datalog);
            assert_eq!(direct, datalog, "{name}/{analysis}");
            assert_eq!(
                report_bytes(&program, &direct),
                report_bytes(&program, &datalog),
                "{name}/{analysis}: rendered bytes"
            );
        }
    }
}

/// The `pta check` binary on the motivating example: the spec marks
/// `Client.main` a source and `C.foo`'s argument a sink, so exactly the
/// two conflation-visible taint findings (W020) appear, and the direct
/// and Datalog client back ends print byte-identical JSON.
#[test]
fn cli_check_motivating_example_direct_and_datalog_agree() {
    let run = |backend: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_pta"))
            .args(["check", "examples/programs/motivating.jir"])
            .args(["--spec", "examples/specs/motivating.spec"])
            .args(["--format", "json", "--client-backend", backend])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .expect("spawn pta check");
        assert!(out.status.success(), "{out:?}");
        String::from_utf8(out.stdout).expect("UTF-8 JSON")
    };
    let direct = run("direct");
    assert_eq!(direct, run("datalog"), "client back ends disagree");
    assert_eq!(direct.matches(r#""code":""#).count(), 2, "{direct}");
    assert_eq!(direct.matches(r#""code":"W020""#).count(), 2, "{direct}");
}
