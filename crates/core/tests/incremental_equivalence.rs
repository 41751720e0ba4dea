//! Incremental maintenance vs. from-scratch solving: after every edit an
//! incremental session applies, its result must be *semantically
//! identical* to a fresh solve of the edited program.
//!
//! This is the correctness bar of the incremental subsystem (DESIGN.md
//! §15): whether `apply` took the additive resume path or fell back to a
//! full re-solve is an implementation detail the caller must never be
//! able to observe in the analysis results. Edit sequences come from the deterministic
//! [`pta_workload::EditStream`] generator; a failure is shrunk to a
//! locally-minimal edit subsequence with [`pta_workload::shrink_steps`]
//! before the panic message is built, so the reproduction in the test log
//! is small enough to debug.
//!
//! The fingerprint compares semantic projections only — points-to sets,
//! call graph, reachability, context-sensitive tuple counts, uncaught
//! exceptions. Interner sizes (`SolverStats::contexts` etc.) are
//! deliberately excluded: they are not analysis meaning, and an
//! implementation may keep slack in them.

use pta_core::{Analysis, AnalysisSession, Backend, PointsToResult, SolverStats};
use pta_ir::rng::Rng;
use pta_ir::{FieldId, MethodId, Program, ProgramBuilder, ProgramDelta, TypeId, VarId};
use pta_workload::{dacapo_workload, materialize, shrink_steps, Edit, EditStream};

/// Everything the analysis *means* about `program`, as one string.
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
    let mut fields: Vec<_> = r.field_points_to_iter().collect();
    fields.sort_unstable();
    let mut statics: Vec<_> = r.static_points_to_iter().collect();
    statics.sort_unstable();
    let mut reach: Vec<_> = r.reachable_methods().collect();
    reach.sort_unstable();
    out.push_str(&format!("f={fields:?};s={statics:?};r={reach:?};"));
    out.push_str(&format!(
        "reach={};edges={};ctx_vpt={};ctx_edges={};uncaught={:?}",
        r.reachable_method_count(),
        r.call_graph_edge_count(),
        r.ctx_var_points_to_count(),
        r.ctx_call_graph_edge_count(),
        r.uncaught_exceptions(),
    ));
    out
}

fn scratch(program: &Program, analysis: Analysis, backend: Backend) -> String {
    let r = AnalysisSession::open(program.clone())
        .policy(analysis)
        .backend(backend)
        .solve();
    fingerprint(program, &r)
}

/// A solved incremental session over `base`. `threads` goes to the
/// deprecated no-op builder, so tests can show that a thread count no
/// longer keeps a session from retaining its solver state.
fn solved_session(
    base: &Program,
    analysis: Analysis,
    backend: Backend,
    threads: usize,
) -> AnalysisSession {
    #[allow(deprecated)]
    let mut session = AnalysisSession::open(base.clone())
        .policy(analysis)
        .backend(backend)
        .threads(threads)
        .incremental(true);
    session.solve();
    session
}

/// Replays `edits` (skipping unmaterializable steps) against a fresh
/// incremental session; returns `Some(step)` of the first edit after
/// which the incremental result diverged from a from-scratch solve.
fn first_divergence(
    base: &Program,
    edits: &[Edit],
    analysis: Analysis,
    backend: Backend,
    threads: usize,
) -> Option<usize> {
    let mut session = solved_session(base, analysis, backend, threads);
    let mut program = base.clone();
    for (step, edit) in edits.iter().enumerate() {
        let Some(delta) = materialize(&program, edit) else {
            continue;
        };
        program = program
            .apply_delta(&delta)
            .expect("materialized delta applies");
        let inc = session
            .apply(&delta)
            .expect("session accepts its own version's delta");
        if fingerprint(&program, &inc) != scratch(&program, analysis, backend) {
            return Some(step);
        }
    }
    None
}

/// Drives `session` through `stream` for `n` edits, comparing against a
/// from-scratch solve after every single one; on divergence, shrinks the
/// edit log and panics with the minimal reproduction. Returns how many
/// applies took an incremental path (vs. internal full re-solve) and
/// whether the session still retains solver state at the end.
fn assert_stream_equivalence(
    base: &Program,
    seed: u64,
    n: usize,
    analysis: Analysis,
    backend: Backend,
    threads: usize,
) -> (usize, bool) {
    let mut stream = EditStream::new(base.clone(), seed);
    let mut session = solved_session(base, analysis, backend, threads);
    let mut incremental_applies = 0;
    for step in 0..n {
        let delta = stream.next_delta();
        let inc = session
            .apply(&delta)
            .expect("stream deltas are built against the session's version");
        if session.last_apply_was_incremental() {
            incremental_applies += 1;
        }
        let program = stream.program();
        let want = scratch(program, analysis, backend);
        if fingerprint(program, &inc) != want {
            // Shrink before reporting: find a locally-minimal subsequence
            // of the log that still diverges somewhere.
            let log = stream.log().to_vec();
            let minimal = shrink_steps(log.len(), |steps| {
                let subset: Vec<Edit> = steps.iter().map(|&i| log[i].clone()).collect();
                first_divergence(base, &subset, analysis, backend, threads).is_some()
            });
            let subset: Vec<&Edit> = minimal.iter().map(|&i| &log[i]).collect();
            panic!(
                "{analysis}/{backend:?}/threads={threads}: incremental diverged from \
                 scratch at step {step} (seed {seed}); minimal reproduction \
                 ({} of {} edits): {subset:#?}",
                minimal.len(),
                log.len(),
            );
        }
    }
    (incremental_applies, session.is_retained())
}

/// The headline property: every policy, a stream of mixed edits
/// (additive and retracting), byte-identical semantics after each one.
#[test]
fn edit_streams_match_scratch_for_every_policy() {
    let base = dacapo_workload("luindex", 0.1);
    for (i, &analysis) in Analysis::ALL.iter().enumerate() {
        assert_stream_equivalence(&base, 1000 + i as u64, 8, analysis, Backend::Dense, 1);
    }
}

/// A second base program and seed band, for the policies the paper's
/// claims lean on hardest.
#[test]
fn edit_streams_match_scratch_on_a_second_workload() {
    let base = dacapo_workload("antlr", 0.1);
    for (i, &analysis) in [
        Analysis::Insens,
        Analysis::OneCall,
        Analysis::OneObj,
        Analysis::TwoObjH,
        Analysis::SBOneObj,
        Analysis::STwoObjH,
        Analysis::UTwoObjH,
        Analysis::STwoTypeH,
    ]
    .iter()
    .enumerate()
    {
        assert_stream_equivalence(&base, 7000 + i as u64, 8, analysis, Backend::Dense, 1);
    }
}

/// The Datalog back end never retains solver state, so `apply` re-solves
/// internally. A dense session asked for 4 threads solves with the one
/// kernel like any other and maintains its fixpoint incrementally. The
/// API contract (results identical to scratch after every edit) holds
/// for both.
#[test]
fn edit_streams_match_scratch_on_datalog_and_threads() {
    let base = dacapo_workload("hsqldb", 0.1);
    for &analysis in &[Analysis::Insens, Analysis::OneCall, Analysis::STwoObjH] {
        let (inc, retained) =
            assert_stream_equivalence(&base, 42, 5, analysis, Backend::Datalog, 1);
        assert!(
            inc == 0 && !retained,
            "{analysis}/Datalog: a non-retaining config must report apply() as a \
             fallback, not an incremental pass"
        );
        let (inc, retained) = assert_stream_equivalence(&base, 42, 5, analysis, Backend::Dense, 4);
        assert!(
            inc > 0 && retained,
            "{analysis}/Dense/threads=4: the session must retain and apply edits \
             incrementally ({inc} incremental applies, retained: {retained})"
        );
    }
}

/// A small program with no exception traffic, so the incremental engine's
/// exception guard never forces a fallback: additive edits genuinely take
/// the resume path, and retracting edits fall back only because they
/// retract.
fn throw_free_base() -> Program {
    let mut b = ProgramBuilder::new();
    let object = b.class("Object", None);
    let node = b.class("Node", Some(object));
    let leaf = b.class("Leaf", Some(node));
    let next = b.field(node, "next");

    // Node.attach(n) { this.next = n; }  (overridden in Leaf)
    let attach = b.method(node, "attach", &["n"], false);
    let t = b.this(attach).unwrap();
    let n = b.formals(attach)[0];
    b.store(attach, t, next, n);
    let attach2 = b.method(leaf, "attach", &["n"], false);
    let t2 = b.this(attach2).unwrap();
    let n2 = b.formals(attach2)[0];
    b.store(attach2, t2, next, n2);

    // Node.follow() { return this.next; }
    let follow = b.method(node, "follow", &[], false);
    let ft = b.this(follow).unwrap();
    let fr = b.var(follow, "r");
    b.load(follow, fr, ft, next);
    b.set_return(follow, fr);

    // static id(x) { return x; }
    let id = b.method(node, "id", &["x"], true);
    let x = b.formals(id)[0];
    b.set_return(id, x);

    // static main() { a = new Node; l = new Leaf; a.attach(l); got = a.follow(); e = id(got); }
    let main = b.method(node, "main", &[], true);
    let a = b.var(main, "a");
    let l = b.var(main, "l");
    let got = b.var(main, "got");
    let e = b.var(main, "e");
    b.alloc(main, a, node, "node A");
    b.alloc(main, l, leaf, "leaf L");
    b.vcall(main, a, "attach", &[l], None, "a.attach(l)");
    b.vcall(main, a, "follow", &[], Some(got), "a.follow()");
    b.scall(main, id, &[got], Some(e), "id(got)");
    b.entry_point(main);
    b.finish().unwrap()
}

/// One seeded single-method additive edit: append `fresh = new T` to a
/// randomly chosen existing method, with `T` drawn from the program's
/// classes — the "developer edits one method body" shape.
fn single_method_edit(program: &Program, step: usize, seed: u64) -> ProgramDelta {
    let mut rng = Rng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(step as u64),
    );
    let mut next = || rng.next_u64() as usize;
    let meth = MethodId::from_index(next() % program.method_count());
    let ty = TypeId::from_index(next() % program.type_count());
    let mut delta = ProgramDelta::new(program);
    let var = delta.var(meth, &format!("incr_v{step}"));
    delta.alloc(meth, var, ty, &format!("incr_h{step}"));
    delta
}

/// Purely additive edits must take the incremental path (no fallback)
/// and still match scratch: hand-written edits on a throw-free base under
/// every policy, and seeded single-method allocations on a workload with
/// live exception flow.
#[test]
fn additive_edits_take_the_incremental_path() {
    let base = throw_free_base();
    for analysis in Analysis::ALL {
        let mut session = AnalysisSession::open(base.clone())
            .policy(analysis)
            .incremental(true);
        session.solve();
        assert!(
            session.is_retained(),
            "{analysis}: session should retain state"
        );

        // Edit 1: a new allocation flowing into the existing attach chain.
        let main = base
            .methods()
            .find(|&m| base.method_name(m) == "main")
            .unwrap();
        let node_ty = base.types().find(|&t| base.type_name(t) == "Node").unwrap();
        let mut d1 = ProgramDelta::new(&base);
        let fresh = d1.var(main, "fresh");
        d1.alloc(main, fresh, node_ty, "node FRESH");
        let a_var = base
            .vars()
            .find(|&v| base.var_method(v) == main && base.var_name(v) == "a")
            .unwrap();
        d1.vcall(main, a_var, "attach", &[fresh], None, "a.attach(fresh)");
        let v2 = base.apply_delta(&d1).unwrap();
        let r1 = session.apply(&d1).unwrap();
        assert!(
            session.last_apply_was_incremental(),
            "{analysis}: additive delta fell back: {:?}",
            session.last_fallback()
        );
        assert_eq!(
            fingerprint(&v2, &r1),
            scratch(&v2, analysis, Backend::Dense),
            "{analysis}"
        );

        // Edit 2: a new static call through the identity helper.
        let id = v2.methods().find(|&m| v2.method_name(m) == "id").unwrap();
        let main2 = v2.methods().find(|&m| v2.method_name(m) == "main").unwrap();
        let fresh2 = v2
            .vars()
            .find(|&v| v2.var_method(v) == main2 && v2.var_name(v) == "fresh")
            .unwrap();
        let mut d2 = ProgramDelta::new(&v2);
        let out = d2.var(main2, "out");
        d2.scall(main2, id, &[fresh2], Some(out), "id(fresh)");
        let v3 = v2.apply_delta(&d2).unwrap();
        let r2 = session.apply(&d2).unwrap();
        assert!(
            session.last_apply_was_incremental(),
            "{analysis}: second additive delta fell back: {:?}",
            session.last_fallback()
        );
        assert_eq!(
            fingerprint(&v3, &r2),
            scratch(&v3, analysis, Backend::Dense),
            "{analysis}"
        );
    }

    let mut session = AnalysisSession::open(dacapo_workload("luindex", 0.3))
        .policy(Analysis::TwoObjH)
        .incremental(true);
    let solved = session.solve();
    assert!(
        solved.solver_stats().throw_tuples > 0,
        "luindex must carry live exception flow"
    );
    for step in 0..20 {
        let delta = single_method_edit(session.program(), step, 1);
        let r = session.apply(&delta).unwrap();
        assert!(
            session.last_apply_was_incremental(),
            "luindex edit {step} fell back: {:?}",
            session.last_fallback()
        );
        let program = session.program();
        assert_eq!(
            fingerprint(program, &r),
            scratch(program, Analysis::TwoObjH, Backend::Dense),
            "luindex edit {step}"
        );
    }
}

/// Retractions re-solve from scratch even on a throw-free base, name why,
/// retain the re-solved state for the next apply, and match scratch —
/// including deleting the allocation an entire points-to chain hangs off.
#[test]
fn retracting_edits_fall_back_and_match_scratch() {
    let base = throw_free_base();
    for analysis in Analysis::ALL {
        let mut session = AnalysisSession::open(base.clone())
            .policy(analysis)
            .incremental(true);
        session.solve();

        let main = base
            .methods()
            .find(|&m| base.method_name(m) == "main")
            .unwrap();
        // Remove `l = new Leaf` (instruction 1): the attach argument, the
        // field contents, and the follow/load result all lose `leaf L`.
        let mut d1 = ProgramDelta::new(&base);
        d1.remove_instr(main, 1);
        let v2 = base.apply_delta(&d1).unwrap();
        let r1 = session.apply(&d1).unwrap();
        assert!(!session.last_apply_was_incremental(), "{analysis}");
        assert_eq!(
            session.last_fallback(),
            Some("delta retracts facts"),
            "{analysis}"
        );
        assert!(
            session.is_retained(),
            "{analysis}: the fallback solve must retain its state"
        );
        assert_eq!(
            fingerprint(&v2, &r1),
            scratch(&v2, analysis, Backend::Dense),
            "{analysis}"
        );

        // Clear the whole attach override in Leaf — dispatch target loses
        // its body, stores disappear.
        let leaf_attach = v2
            .methods()
            .find(|&m| {
                v2.method_name(m) == "attach" && v2.type_name(v2.method_declaring(m)) == "Leaf"
            })
            .unwrap();
        let mut d2 = ProgramDelta::new(&v2);
        d2.clear_method(leaf_attach);
        let v3 = v2.apply_delta(&d2).unwrap();
        let r2 = session.apply(&d2).unwrap();
        assert!(!session.last_apply_was_incremental(), "{analysis}");
        assert_eq!(
            session.last_fallback(),
            Some("delta retracts facts"),
            "{analysis}"
        );
        assert!(
            session.is_retained(),
            "{analysis}: the fallback solve must retain its state"
        );
        assert_eq!(
            fingerprint(&v3, &r2),
            scratch(&v3, analysis, Backend::Dense),
            "{analysis}"
        );
    }
}

/// Version discipline: a delta built against a stale version is rejected
/// with `StaleBase`, and the session's retained state survives the error.
#[test]
fn stale_deltas_are_rejected_without_corrupting_the_session() {
    let base = throw_free_base();
    let mut session = AnalysisSession::open(base.clone())
        .policy(Analysis::OneObj)
        .incremental(true);
    session.solve();

    let main = base
        .methods()
        .find(|&m| base.method_name(m) == "main")
        .unwrap();
    let node_ty = base.types().find(|&t| base.type_name(t) == "Node").unwrap();
    let mut d1 = ProgramDelta::new(&base);
    let f1 = d1.var(main, "f1");
    d1.alloc(main, f1, node_ty, "F1");
    session.apply(&d1).unwrap();
    assert_eq!(session.version(), 2);

    // d2 is built against version 1, but the session is at version 2.
    let mut d2 = ProgramDelta::new(&base);
    let f2 = d2.var(main, "f2");
    d2.alloc(main, f2, node_ty, "F2");
    session.apply(&d2).unwrap_err();
    assert_eq!(
        session.version(),
        2,
        "failed apply must not advance the version"
    );
    // A stale retracting delta is rejected the same way, before the
    // retained solver is given up.
    let mut d2r = ProgramDelta::new(&base);
    d2r.remove_instr(main, 0);
    session.apply(&d2r).unwrap_err();
    assert_eq!(session.version(), 2);
    assert!(session.is_retained());

    // The session still works incrementally afterwards.
    let current = std::sync::Arc::clone(session.program());
    let main2 = current
        .methods()
        .find(|&m| current.method_name(m) == "main")
        .unwrap();
    let mut d3 = ProgramDelta::new(&current);
    let f3 = d3.var(main2, "f3");
    d3.alloc(main2, f3, node_ty, "F3");
    let r = session.apply(&d3).unwrap();
    assert!(session.last_apply_was_incremental());
    let v = current.apply_delta(&d3).unwrap();
    assert_eq!(
        fingerprint(&v, &r),
        scratch(&v, Analysis::OneObj, Backend::Dense)
    );
}

/// Mixed streams on an exception-bearing workload: retracting edits fall
/// back, but results must still be exact, and purely additive steps must
/// still take the fast path.
#[test]
fn fallbacks_on_exception_traffic_are_exact() {
    let base = dacapo_workload("xalan", 0.1);
    let (incremental_applies, _) =
        assert_stream_equivalence(&base, 99, 10, Analysis::SBOneObj, Backend::Dense, 1);
    // The stream's weights guarantee a majority of additive edits; at
    // least one of them must have avoided the fallback.
    assert!(
        incremental_applies > 0,
        "no apply took the incremental path on a 10-edit stream"
    );
}

/// Retraction over large sets: a copy chain of a 150-object points-to
/// set (well past the small → bitmap promotion) loses its copies one
/// `apply` at a time. Each apply must stay exact against a scratch solve.
#[test]
fn retracting_copies_of_a_bitmap_set_matches_scratch() {
    let mut b = ProgramBuilder::new();
    let object = b.class("Object", None);
    let thing = b.class("Thing", Some(object));
    let main = b.method(thing, "main", &[], true);
    let a = b.var(main, "a");
    for i in 0..150 {
        b.alloc(main, a, thing, &format!("obj {i}"));
    }
    let c = b.var(main, "c");
    b.move_(main, c, a);
    let d = b.var(main, "d");
    b.move_(main, d, a);
    b.entry_point(main);
    let base = b.finish().unwrap();

    let mut session = AnalysisSession::open(base.clone())
        .policy(Analysis::Insens)
        .incremental(true);
    let r0 = session.solve();
    assert_eq!(r0.points_to(d).len(), 150);

    // Retract the copies one at a time.
    let mut program = base.clone();
    for _ in 0..2 {
        let last = program.instrs(main).len() - 1;
        let mut delta = ProgramDelta::new(&program);
        delta.remove_instr(main, last);
        let next = program.apply_delta(&delta).unwrap();
        let r = session.apply(&delta).unwrap();
        assert_eq!(
            fingerprint(&next, &r),
            scratch(&next, Analysis::Insens, Backend::Dense)
        );
        program = next;
    }
}

/// The `SolverStats` counters of the facts a fixpoint holds, which an
/// exact incremental apply must reproduce. The rest count evaluation work
/// (rule fires, worklist pops, duplicate inserts) and interner sizes, and
/// differ between resuming and re-solving by design.
fn fact_counters(r: &PointsToResult) -> String {
    let s = r.solver_stats();
    format!(
        "vpt={} fld={} call_edges={} ipa_edges={} throw_tuples={} objects={} \
         contexts={} heap_contexts={}",
        s.vpt_inserted,
        s.fld_inserted,
        s.call_edges,
        s.ipa_edges,
        s.throw_tuples,
        s.objects,
        s.contexts,
        s.heap_contexts,
    )
}

/// Applies `delta` to a solved incremental session over `base`; asserts
/// the apply stayed incremental and matches a scratch solve in every view
/// and every fact counter.
fn assert_additive_apply_exact(base: &Program, delta: &ProgramDelta, analysis: Analysis) {
    let mut session = AnalysisSession::open(base.clone())
        .policy(analysis)
        .incremental(true);
    session.solve();
    let edited = base.apply_delta(delta).unwrap();
    let inc = session.apply(delta).unwrap();
    assert!(
        session.last_apply_was_incremental(),
        "{analysis}: fell back: {:?}",
        session.last_fallback()
    );
    let fresh = AnalysisSession::open(edited.clone())
        .policy(analysis)
        .solve();
    assert_eq!(
        fingerprint(&edited, &inc),
        fingerprint(&edited, &fresh),
        "{analysis}"
    );
    assert_eq!(
        fact_counters(&inc),
        fact_counters(&fresh),
        "{analysis}: {:?} vs {:?}",
        inc.solver_stats(),
        fresh.solver_stats()
    );
}

/// A method live under three receiver contexts, and a delta that gives it
/// a local and a call passing it, then an allocation into it.
fn many_context_method_gains_a_call_and_an_alloc() -> (Program, ProgramDelta) {
    let mut b = ProgramBuilder::new();
    let object = b.class("Object", None);
    let cell = b.class("Cell", Some(object));
    let get = b.method(cell, "get", &[], false);
    let r = b.var(get, "r");
    b.alloc(get, r, object, "inner");
    b.set_return(get, r);
    let id = b.method(cell, "id", &["x"], true);
    let x = b.formals(id)[0];
    b.set_return(id, x);
    let main = b.method(cell, "main", &[], true);
    for i in 0..3 {
        let (c, got) = (b.var(main, &format!("c{i}")), b.var(main, &format!("g{i}")));
        b.alloc(main, c, cell, &format!("cell {i}"));
        b.vcall(main, c, "get", &[], Some(got), &format!("c{i}.get()"));
    }
    b.entry_point(main);
    let base = b.finish().unwrap();

    let mut delta = ProgramDelta::new(&base);
    let fresh = delta.var(get, "fresh");
    let out = delta.var(get, "out");
    delta.scall(get, id, &[fresh], Some(out), "id(fresh)");
    delta.alloc(get, fresh, cell, "fresh cell");
    (base, delta)
}

/// Every existing frame of the method grows a variable and an invocation
/// after it was laid out.
#[test]
fn new_locals_and_calls_in_a_many_context_method_match_scratch() {
    let (base, delta) = many_context_method_gains_a_call_and_an_alloc();
    for analysis in Analysis::ALL {
        assert_additive_apply_exact(&base, &delta, analysis);
    }
}

/// The rule instances an additive apply seeds are counted: the allocation
/// and the static call added to a reachable method fire once each, as they
/// do in a scratch solve of the edited program.
#[test]
fn seeded_rule_instances_are_counted() {
    let (base, delta) = many_context_method_gains_a_call_and_an_alloc();
    let mut session = AnalysisSession::open(base.clone())
        .policy(Analysis::Insens)
        .incremental(true);
    let before = *session.solve().solver_stats();
    let inc = session.apply(&delta).unwrap();
    assert!(session.last_apply_was_incremental());
    let fresh = AnalysisSession::open(base.apply_delta(&delta).unwrap())
        .policy(Analysis::Insens)
        .solve();
    let (inc, fresh) = (inc.solver_stats(), fresh.solver_stats());
    assert_eq!((before.fire_alloc, before.fire_scall), (4, 0));
    assert_eq!((inc.fire_alloc, inc.fire_scall), (5, 1));
    assert_eq!(
        (inc.fire_alloc, inc.fire_scall),
        (fresh.fire_alloc, fresh.fire_scall)
    );
}

/// Two new call sites in one caller reach a callee frame that has already
/// thrown: the first registers the caller and re-fires the escaped
/// exception, the second is a repeat registration and fires nothing.
#[test]
fn new_calls_into_a_frame_that_threw_match_scratch() {
    let mut b = ProgramBuilder::new();
    let object = b.class("Object", None);
    let err = b.class("Err", Some(object));
    let boom = b.method(err, "boom", &[], true);
    let e = b.var(boom, "e");
    b.alloc(boom, e, err, "the error");
    b.throw(boom, e);
    let quiet = b.method(err, "quiet", &[], true);
    let q = b.var(quiet, "q");
    b.alloc(quiet, q, object, "quiet value");
    let main = b.method(err, "main", &[], true);
    b.scall(main, boom, &[], None, "boom()");
    b.scall(main, quiet, &[], None, "quiet()");
    b.entry_point(main);
    let base = b.finish().unwrap();

    let mut delta = ProgramDelta::new(&base);
    delta.scall(quiet, boom, &[], None, "boom() #1");
    delta.scall(quiet, boom, &[], None, "boom() #2");
    for analysis in Analysis::ALL {
        assert_additive_apply_exact(&base, &delta, analysis);
    }
}

/// The handles of [`cell_program`]: `get` is an instance method of `Cell`
/// called on three receivers, so it is live under three contexts in
/// every context-sensitive policy, and each of its frames has non-empty
/// keys for `this` and `r`. `idle` is a static method nothing calls.
struct CellProgram {
    base: Program,
    get: MethodId,
    idle: MethodId,
    this: VarId,
    r: VarId,
    cell: TypeId,
    boxed: TypeId,
    err: TypeId,
    f: FieldId,
    s: FieldId,
}

/// `get` allocates a `Box`, stores it into `this.f` and the static
/// `Cell.S` and returns it; `main` calls it on three cells, loads `c.f`
/// and `Cell.S` (pending witnesses for new stores) and catches `Box`.
/// `Box.id()` and `Cell.idle()` exist but nothing calls them.
fn cell_program() -> CellProgram {
    let mut b = ProgramBuilder::new();
    let object = b.class("Object", None);
    let cell = b.class("Cell", Some(object));
    let boxed = b.class("Box", Some(object));
    let err = b.class("Err", Some(object));
    let f = b.field(cell, "f");
    let s = b.static_field(cell, "S");
    let id = b.method(boxed, "id", &[], false);
    let id_this = b.this(id).unwrap();
    b.set_return(id, id_this);
    let get = b.method(cell, "get", &[], false);
    let this = b.this(get).unwrap();
    let r = b.var(get, "r");
    b.alloc(get, r, boxed, "inner");
    b.store(get, this, f, r);
    b.sstore(get, s, r);
    b.set_return(get, r);
    let idle = b.method(cell, "idle", &[], true);
    let main = b.method(cell, "main", &[], true);
    for i in 0..3 {
        let (c, got) = (b.var(main, &format!("c{i}")), b.var(main, &format!("g{i}")));
        let held = b.var(main, &format!("h{i}"));
        b.alloc(main, c, cell, &format!("cell {i}"));
        b.vcall(main, c, "get", &[], Some(got), &format!("c{i}.get()"));
        b.load(main, held, c, f);
    }
    let z = b.var(main, "z");
    b.sload(main, z, s);
    b.catch_clause(main, boxed, "caught");
    b.entry_point(main);
    CellProgram {
        base: b.finish().unwrap(),
        get,
        idle,
        this,
        r,
        cell,
        boxed,
        err,
        f,
        s,
    }
}

/// Records an edit of [`cell_program`] into a delta.
type CellEdit = fn(&CellProgram, &mut ProgramDelta);

/// One additive delta per instruction kind, each appended to `get` (live
/// under three contexts) and checked against a scratch solve under every
/// policy: seeding joins each against the existing frames and keys.
#[test]
fn each_appended_instruction_kind_matches_scratch() {
    let cases: [(&str, CellEdit); 8] = [
        ("cast", |p, d| {
            let t = d.var(p.get, "t");
            d.cast(p.get, t, p.r, p.boxed);
        }),
        ("cast whose filter drops every object", |p, d| {
            let t = d.var(p.get, "t");
            d.cast(p.get, t, p.r, p.err);
        }),
        ("static load of a field with facts", |p, d| {
            let t = d.var(p.get, "t");
            d.sload(p.get, t, p.s);
        }),
        ("static store reaching main's pending load", |p, d| {
            d.sstore(p.get, p.s, p.this);
        }),
        ("throw escaping into main's catch", |p, d| {
            d.throw(p.get, p.r)
        }),
        ("load through this", |p, d| {
            let t = d.var(p.get, "t");
            d.load(p.get, t, p.this, p.f);
        }),
        ("stores waking main's pending loads", |p, d| {
            let fresh = d.var(p.get, "fresh");
            d.alloc(p.get, fresh, p.cell, "fresh cell");
            d.store(p.get, p.this, p.f, fresh);
            d.store(p.get, p.this, p.f, p.this);
        }),
        ("virtual call reaching Box.id", |p, d| {
            let t = d.var(p.get, "t");
            d.vcall(p.get, p.r, "id", &[], Some(t), "r.id()");
        }),
    ];
    let p = cell_program();
    for (case, edit) in cases {
        eprintln!("case: {case}");
        let mut delta = ProgramDelta::new(&p.base);
        edit(&p, &mut delta);
        for analysis in Analysis::ALL {
            assert_additive_apply_exact(&p.base, &delta, analysis);
        }
    }
}

/// Each rule instance an additive apply introduces fires once: seeding
/// skips the frames it queues (their bodies are processed whole) and the
/// keys the delta's own instructions mint (the worklist joins their
/// pending objects against the new index).
#[test]
fn each_seeded_rule_instance_fires_once() {
    let p = cell_program();
    let mut delta = ProgramDelta::new(&p.base);
    delta.entry_point(p.idle);
    let h = delta.var(p.idle, "h");
    delta.alloc(p.idle, h, p.boxed, "idle box");
    let (fresh, t) = (delta.var(p.get, "fresh"), delta.var(p.get, "t"));
    delta.alloc(p.get, fresh, p.cell, "fresh cell");
    delta.move_(p.get, t, fresh);
    let mut session = AnalysisSession::open(p.base.clone())
        .policy(Analysis::Insens)
        .incremental(true);
    let before = *session.solve().solver_stats();
    let inc = *session.apply(&delta).unwrap().solver_stats();
    assert!(session.last_apply_was_incremental());
    let counts = |s: &SolverStats| (s.fire_alloc, s.fire_assign, s.vpt_dup);
    let want = (
        before.fire_alloc + 2,
        before.fire_assign + 1,
        before.vpt_dup,
    );
    assert_eq!(counts(&inc), want);
    let edited = p.base.apply_delta(&delta).unwrap();
    let fresh = AnalysisSession::open(edited)
        .policy(Analysis::Insens)
        .solve();
    assert_eq!(counts(&inc), counts(fresh.solver_stats()));
}

/// Every `SolverStats` counter after the additive-only prefix of two
/// luindex:0.3 edit streams, evaluation counters included: the seeding of
/// an additive apply fires the same rule instances, in the same order, as
/// the kernel did when these values were taken. Each row is `(stream
/// seed, edits, policy, SolverStats::fields() values)`; the two prefixes
/// append every instruction kind the edit stream emits.
#[test]
fn additive_prefix_counters_are_pinned() {
    #[rustfmt::skip]
    let pinned: [(u64, usize, Analysis, [u64; 32]); 6] = [
        (8, 8, Analysis::Insens, [3964, 2648, 111, 293, 4942, 931, 1542, 15, 15, 319, 331, 127, 1, 1, 3, 1174, 371, 596, 1120, 176, 1, 1, 111, 1241, 0, 0, 0, 0, 0, 0, 0, 0]),
        (8, 8, Analysis::TwoObjH, [1671, 468, 197, 106, 1355, 150, 331, 18, 18, 312, 312, 160, 1, 1, 3, 189, 472, 730, 1238, 265, 107, 26, 174, 1551, 0, 0, 0, 0, 0, 0, 0, 0]),
        (8, 8, Analysis::STwoObjH, [1701, 466, 211, 106, 1357, 145, 323, 18, 18, 329, 329, 168, 1, 1, 3, 183, 497, 751, 1293, 264, 271, 26, 174, 1640, 0, 0, 0, 0, 0, 0, 0, 0]),
        (1, 2, Analysis::Insens, [3924, 2612, 108, 291, 4880, 922, 1528, 15, 15, 319, 336, 126, 1, 1, 3, 1160, 370, 595, 1080, 176, 1, 1, 108, 1201, 0, 0, 0, 0, 0, 0, 0, 0]),
        (1, 2, Analysis::TwoObjH, [1618, 455, 183, 104, 1305, 150, 331, 18, 18, 312, 313, 148, 1, 1, 3, 189, 460, 710, 1185, 265, 107, 26, 167, 1486, 0, 0, 0, 0, 0, 0, 0, 0]),
        (1, 2, Analysis::STwoObjH, [1637, 453, 197, 104, 1296, 145, 323, 18, 18, 329, 330, 159, 1, 1, 3, 183, 488, 737, 1250, 264, 265, 26, 167, 1591, 0, 0, 0, 0, 0, 0, 0, 0]),
    ];
    let base = dacapo_workload("luindex", 0.3);
    for (seed, edits, analysis, want) in pinned {
        let mut stream = EditStream::new(base.clone(), seed);
        let mut session = solved_session(&base, analysis, Backend::Dense, 1);
        let mut result = None;
        for _ in 0..edits {
            let delta = stream.next_delta();
            assert!(
                !delta.has_retractions(),
                "seed {seed}: the prefix is additive"
            );
            result = Some(session.apply(&delta).unwrap());
            assert!(
                session.last_apply_was_incremental(),
                "seed {seed}/{analysis}"
            );
        }
        let got = result.expect("a non-empty prefix").solver_stats().fields();
        let want: Vec<_> = got.iter().map(|f| f.0).zip(want).collect();
        assert_eq!(got, want, "seed {seed}/{analysis}");
    }
}
