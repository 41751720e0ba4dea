//! Resource-governance behavior of the specialized solver: fault-injected
//! exhaustion of every budget kind, graceful degradation, cancellation
//! priority, deadline overshoot, and bit-exact determinism of governed
//! (partial and degraded) runs.
//!
//! The [`FaultPlan`] hooks exist precisely for this suite: a healthy run
//! never trips its budget, so without forced trips the partial-result and
//! degradation paths would go untested.

use std::time::{Duration, Instant};

use pta_core::{
    Analysis, AnalysisSession, Budget, CancelToken, FaultPlan, PointsToResult, SolverConfig,
    Termination,
};
use pta_ir::Program;
use pta_workload::{dacapo_workload, generate, WorkloadConfig};

fn governed(budget: Budget, degrade: bool, fault: Option<FaultPlan>) -> SolverConfig {
    SolverConfig {
        budget,
        degrade,
        fault,
        ..SolverConfig::default()
    }
}

/// A deterministic, order-independent fingerprint of everything a governed
/// run reports: points-to sets, call graph, reachability, termination,
/// step count, and the demoted-site list.
fn fingerprint(program: &Program, r: &PointsToResult) -> String {
    let mut out = String::new();
    for var in program.vars() {
        if !r.points_to(var).is_empty() {
            out.push_str(&format!("v{:?}={:?};", var, r.points_to(var)));
        }
    }
    for invo in program.invos() {
        if !r.call_targets(invo).is_empty() {
            out.push_str(&format!("c{:?}={:?};", invo, r.call_targets(invo)));
        }
    }
    out.push_str(&format!(
        "reach={};edges={};ctx_vpt={};term={};steps={};demoted={:?}",
        r.reachable_method_count(),
        r.call_graph_edge_count(),
        r.ctx_var_points_to_count(),
        r.termination(),
        r.solver_stats().steps,
        r.demoted_sites()
            .iter()
            .map(|d| (d.method, d.fanout))
            .collect::<Vec<_>>(),
    ));
    out
}

/// `partial` must be a sound prefix of `complete`: every fact it derived
/// is a fact of the full fixpoint.
fn assert_subset(program: &Program, partial: &PointsToResult, complete: &PointsToResult) {
    for var in program.vars() {
        for h in partial.points_to(var) {
            assert!(
                complete.points_to(var).contains(h),
                "partial derived {h:?} for {} not in complete run",
                program.var_name(var)
            );
        }
    }
    for invo in program.invos() {
        for m in partial.call_targets(invo) {
            assert!(
                complete.call_targets(invo).contains(m),
                "partial call edge {invo:?}->{m:?} not in complete run"
            );
        }
    }
    assert!(partial.reachable_method_count() <= complete.reachable_method_count());
}

/// `coarse` (a degraded-complete run) must over-approximate `precise`:
/// demotion only merges contexts, so it may add facts but never lose any.
fn assert_superset(program: &Program, coarse: &PointsToResult, precise: &PointsToResult) {
    for var in program.vars() {
        for h in precise.points_to(var) {
            assert!(
                coarse.points_to(var).contains(h),
                "degraded run lost {h:?} for {} — demotion must be sound",
                program.var_name(var)
            );
        }
    }
    for invo in program.invos() {
        for m in precise.call_targets(invo) {
            assert!(
                coarse.call_targets(invo).contains(m),
                "degraded run lost call edge {invo:?}->{m:?}"
            );
        }
    }
    assert!(coarse.reachable_method_count() >= precise.reachable_method_count());
}

#[test]
fn forced_step_limit_yields_tagged_sound_partial() {
    let p = dacapo_workload("luindex", 0.3);
    let complete = AnalysisSession::open(p.clone())
        .policy(Analysis::TwoObjH)
        .solve();
    let partial = AnalysisSession::open(p.clone())
        .policy(Analysis::TwoObjH)
        .config(governed(
            Budget::unlimited(),
            false,
            Some(FaultPlan::trip_at(200, Termination::StepLimit)),
        ))
        .solve();
    assert_eq!(partial.termination(), Termination::StepLimit);
    assert!(partial.demoted_sites().is_empty());
    assert_subset(&p, &partial, &complete);
}

#[test]
fn forced_memory_cap_yields_tagged_sound_partial() {
    let p = dacapo_workload("luindex", 0.3);
    let complete = AnalysisSession::open(p.clone())
        .policy(Analysis::TwoObjH)
        .solve();
    let partial = AnalysisSession::open(p.clone())
        .policy(Analysis::TwoObjH)
        .config(governed(
            Budget::unlimited(),
            false,
            Some(FaultPlan::trip_at(150, Termination::MemoryCap)),
        ))
        .solve();
    assert_eq!(partial.termination(), Termination::MemoryCap);
    assert_subset(&p, &partial, &complete);
}

#[test]
fn forced_deadline_yields_tagged_sound_partial() {
    let p = dacapo_workload("luindex", 0.3);
    let complete = AnalysisSession::open(p.clone())
        .policy(Analysis::TwoObjH)
        .solve();
    let partial = AnalysisSession::open(p.clone())
        .policy(Analysis::TwoObjH)
        .config(governed(
            Budget::unlimited(),
            false,
            Some(FaultPlan::trip_at(100, Termination::DeadlineExceeded)),
        ))
        .solve();
    assert_eq!(partial.termination(), Termination::DeadlineExceeded);
    assert_subset(&p, &partial, &complete);
}

#[test]
fn real_deadline_trips_via_injected_stall_within_overshoot_bound() {
    // A stall of ~200µs per step makes a 150ms deadline trip for real,
    // exercising the meter's strided clock path end to end. The overshoot
    // bound is deliberately loose (CI schedulers oversleep), but still
    // catches a solver that ignores its deadline.
    let p = dacapo_workload("luindex", 0.4);
    let deadline = Duration::from_millis(150);
    let start = Instant::now();
    let partial = AnalysisSession::open(p.clone())
        .policy(Analysis::TwoObjH)
        .config(governed(
            Budget::unlimited().with_deadline(deadline),
            false,
            Some(FaultPlan::stall(1, 200)),
        ))
        .solve();
    let elapsed = start.elapsed();
    assert_eq!(partial.termination(), Termination::DeadlineExceeded);
    assert!(
        elapsed < deadline * 3,
        "deadline overshoot: ran {elapsed:?} against a {deadline:?} budget"
    );
}

#[test]
fn degrade_turns_step_limit_into_degraded_complete() {
    let p = dacapo_workload("luindex", 0.3);
    let precise = AnalysisSession::open(p.clone())
        .policy(Analysis::TwoObjH)
        .solve();
    let coarse = AnalysisSession::open(p.clone())
        .policy(Analysis::TwoObjH)
        .config(governed(
            Budget::unlimited().with_max_steps(1000),
            true,
            None,
        ))
        .solve();
    assert_eq!(coarse.termination(), Termination::Complete);
    assert!(
        !coarse.demoted_sites().is_empty(),
        "a starved degrade run must demote something"
    );
    assert_eq!(
        coarse.solver_stats().demoted_methods as usize,
        coarse.demoted_sites().len()
    );
    assert_superset(&p, &coarse, &precise);
}

#[test]
fn degrade_turns_memory_cap_into_degraded_complete() {
    let p = dacapo_workload("luindex", 0.3);
    let precise = AnalysisSession::open(p.clone())
        .policy(Analysis::TwoObjH)
        .solve();
    let coarse = AnalysisSession::open(p.clone())
        .policy(Analysis::TwoObjH)
        .config(governed(
            Budget::unlimited().with_max_memory(32 * 1024),
            true,
            None,
        ))
        .solve();
    assert_eq!(coarse.termination(), Termination::Complete);
    assert!(!coarse.demoted_sites().is_empty());
    assert_superset(&p, &coarse, &precise);
}

#[test]
fn degrade_gives_a_deadline_one_grace_window_then_goes_partial() {
    // Under --degrade a tripped deadline is extended exactly once (by a
    // tenth of the original budget); if the degraded run still cannot
    // finish, the result is partial — the deadline contract survives
    // degradation.
    let p = dacapo_workload("luindex", 0.4);
    let deadline = Duration::from_millis(100);
    let start = Instant::now();
    let r = AnalysisSession::open(p.clone())
        .policy(Analysis::TwoObjH)
        .config(governed(
            Budget::unlimited().with_deadline(deadline),
            true,
            Some(FaultPlan::stall(1, 200)),
        ))
        .solve();
    let elapsed = start.elapsed();
    // With a 200µs stall every step the grace window cannot finish either.
    assert_eq!(r.termination(), Termination::DeadlineExceeded);
    assert!(
        !r.demoted_sites().is_empty(),
        "the grace window must have demoted methods before giving up"
    );
    assert!(
        elapsed < deadline * 3,
        "grace window broke the deadline contract: {elapsed:?} vs {deadline:?}"
    );
}

#[test]
fn cancellation_is_never_degraded_away() {
    let p = dacapo_workload("luindex", 0.3);
    let cancel = CancelToken::new();
    cancel.cancel();
    let r = AnalysisSession::open(p.clone())
        .policy(Analysis::TwoObjH)
        .degrade(true)
        .cancel(cancel)
        .solve();
    // External cancellation reports as DeadlineExceeded (the budget
    // vocabulary's "out of time") and must stop the run even with
    // --degrade: the user asked for a stop, not a coarser answer.
    assert_eq!(r.termination(), Termination::DeadlineExceeded);
    assert!(r.demoted_sites().is_empty());
}

#[test]
fn seeded_fault_plans_hit_every_termination_variant() {
    let p = dacapo_workload("luindex", 0.3);
    // The workload must be big enough that every seeded trip step (< 512)
    // lands mid-run.
    let full = AnalysisSession::open(p.clone())
        .policy(Analysis::TwoObjH)
        .config(governed(Budget::unlimited(), false, None))
        .solve();
    assert!(full.solver_stats().steps > 512, "workload too small");
    let mut seen = [false; 3];
    for seed in 0..12 {
        let plan = FaultPlan::from_seed(seed);
        let r = AnalysisSession::open(p.clone())
            .policy(Analysis::TwoObjH)
            .config(governed(Budget::unlimited(), false, Some(plan)))
            .solve();
        let t = r.termination();
        assert!(!t.is_complete(), "seed {seed}: forced trip did not fire");
        assert_eq!(Some(t), plan.trip.map(|(_, t)| t));
        seen[match t {
            Termination::DeadlineExceeded => 0,
            Termination::StepLimit => 1,
            Termination::MemoryCap => 2,
            Termination::Complete => unreachable!(),
        }] = true;
        assert_subset(&p, &r, &full);
    }
    assert_eq!(
        seen, [true; 3],
        "12 seeds must cover all three exhaustion variants"
    );
}

#[test]
fn governed_runs_are_bit_identical_across_repeats_and_threads() {
    // The budget-determinism property: same seed + same (step) budget ⇒
    // the same partial result and the same demoted-site set, whether runs
    // happen sequentially or on worker threads (the bench driver's --jobs
    // mode runs one solver per thread). Wall-clock budgets are excluded by
    // design — only step/memory budgets are deterministic.
    let seeds = [11u64, 22, 33];
    let budgets = [200u64, 800, 3200];
    let mut expected: Vec<(u64, u64, String)> = Vec::new();
    for &seed in &seeds {
        let p = generate(&WorkloadConfig::tiny(seed));
        for &max_steps in &budgets {
            let cfg = || governed(Budget::unlimited().with_max_steps(max_steps), true, None);
            let a = AnalysisSession::open(p.clone())
                .policy(Analysis::STwoObjH)
                .config(cfg())
                .solve();
            let b = AnalysisSession::open(p.clone())
                .policy(Analysis::STwoObjH)
                .config(cfg())
                .solve();
            let fp = fingerprint(&p, &a);
            assert_eq!(fp, fingerprint(&p, &b), "seed {seed} budget {max_steps}");
            expected.push((seed, max_steps, fp));
        }
    }
    // Re-run every cell on 4 threads at once, like `--jobs 4`.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let expected = &expected;
            scope.spawn(move || {
                for (seed, max_steps, fp) in expected {
                    let p = generate(&WorkloadConfig::tiny(*seed));
                    let r = AnalysisSession::open(p.clone())
                        .policy(Analysis::STwoObjH)
                        .config(governed(
                            Budget::unlimited().with_max_steps(*max_steps),
                            true,
                            None,
                        ))
                        .solve();
                    assert_eq!(
                        &fingerprint(&p, &r),
                        fp,
                        "threaded run diverged: seed {seed} budget {max_steps}"
                    );
                }
            });
        }
    });
}

#[test]
fn untripped_budgets_do_not_change_results() {
    // Governance with roomy limits (and no --degrade: under --degrade the
    // watermark demotes high-fan-out methods proactively, budget or not)
    // must be invisible: same fixpoint as the ungoverned fast path.
    let p = dacapo_workload("antlr", 0.15);
    let plain = AnalysisSession::open(p.clone())
        .policy(Analysis::STwoObjH)
        .solve();
    let roomy = AnalysisSession::open(p.clone())
        .policy(Analysis::STwoObjH)
        .config(governed(
            Budget::unlimited()
                .with_max_steps(u64::MAX / 2)
                .with_max_memory(u64::MAX / 2),
            false,
            None,
        ))
        .solve();
    assert_eq!(roomy.termination(), Termination::Complete);
    assert!(roomy.demoted_sites().is_empty());
    assert_subset(&p, &roomy, &plain);
    assert_superset(&p, &roomy, &plain);
    assert_eq!(
        plain.ctx_var_points_to_count(),
        roomy.ctx_var_points_to_count()
    );
}

/// The counters and demoted sites of two degraded solves, as the solver
/// produced them when demotion still scanned every interned key. A
/// demotion bridges each fine key of the method into its demoted key, in
/// key-ID order; any other order reaches the same fixpoint on a
/// different schedule, which moves counters such as `vpt_dup`, `batches`
/// and `steps` here. The step budget trips mid-solve, so both the
/// watermark demotions and a degradation round are covered.
#[test]
fn degraded_solve_counters_are_pinned() {
    /// A policy, its 32 counters and its `(method, fan-out)` demotions.
    type Pin = (Analysis, [u64; 32], &'static [(u32, u32)]);
    #[rustfmt::skip]
    let pinned: [Pin; 2] = [
        (Analysis::TwoObjH, [44258, 149155, 559, 773, 92943, 97180, 205453, 437, 105, 1517, 1519, 441, 4, 4, 4, 12935, 1435, 3761, 5698, 708, 316, 90, 533, 6568, 37, 0, 0, 0, 0, 0, 0, 0], &[
            (10, 4), (11, 4), (12, 4), (13, 4), (14, 7), (15, 4), (18, 7), (19, 4), (30, 5), (34, 6),
            (38, 5), (70, 5), (72, 8), (74, 5), (76, 6), (78, 8), (80, 16), (81, 16), (82, 16), (83, 15),
            (84, 10), (85, 8), (86, 16), (87, 16), (88, 16), (89, 16), (90, 9), (91, 8), (92, 6), (93, 4),
            (94, 4), (95, 14), (104, 13), (105, 6), (106, 4), (107, 13), (139, 10),
        ]),
        (Analysis::STwoObjH, [45085, 147042, 608, 785, 93350, 94693, 196342, 437, 105, 2250, 2258, 495, 4, 4, 4, 12932, 2059, 3982, 5950, 784, 742, 89, 533, 6909, 41, 0, 0, 0, 0, 0, 0, 0], &[
            (3, 4), (10, 4), (11, 4), (12, 4), (13, 4), (14, 7), (15, 4), (18, 6), (19, 4), (30, 5),
            (34, 6), (38, 4), (70, 4), (72, 7), (74, 4), (76, 5), (78, 6), (80, 16), (81, 16), (82, 16),
            (83, 15), (84, 10), (85, 8), (86, 16), (87, 16), (88, 16), (89, 16), (90, 9), (91, 8), (92, 6),
            (93, 4), (94, 4), (95, 14), (104, 13), (105, 6), (106, 4), (107, 15), (120, 9), (127, 9), (139, 11),
            (408, 16),
        ]),
    ];
    let p = dacapo_workload("luindex", 1.0);
    for (analysis, want, sites) in pinned {
        let r = AnalysisSession::open(p.clone())
            .policy(analysis)
            .config(governed(
                Budget::unlimited().with_max_steps(4000),
                true,
                None,
            ))
            .solve();
        assert_eq!(r.termination(), Termination::Complete, "{analysis}");
        let got = r.solver_stats().fields();
        let demoted: Vec<(u32, u32)> = r
            .demoted_sites()
            .iter()
            .map(|d| (d.method.raw(), d.fanout))
            .collect();
        let values: Vec<u64> = got.iter().map(|f| f.1).collect();
        let want: Vec<_> = got.iter().map(|f| f.0).zip(want).collect();
        assert_eq!(got, want, "{analysis}: {values:?}");
        assert_eq!(demoted, sites, "{analysis}");
    }
}
