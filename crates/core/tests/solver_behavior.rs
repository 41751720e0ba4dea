//! Behavioral tests for the specialized solver: each of the nine rules of
//! Figure 2, on-the-fly call-graph construction, cast filtering,
//! field-sensitivity, recursion, and the retained-tuples API.

use pta_core::{Analysis, AnalysisSession, CtxElemKind};
use pta_ir::{HeapId, Program, ProgramBuilder, VarId};

/// `main` allocates, calls a virtual method that stores into a field and a
/// static method that echoes — one program exercising every rule.
fn full_rule_program() -> (Program, Vec<VarId>, Vec<HeapId>) {
    let mut b = ProgramBuilder::new();
    let object = b.class("Object", None);
    let node = b.class("Node", Some(object));
    let next = b.field(node, "next");

    // Node.attach(n) { this.next = n; }
    let attach = b.method(node, "attach", &["n"], false);
    let attach_this = b.this(attach).unwrap();
    let attach_n = b.formals(attach)[0];
    b.store(attach, attach_this, next, attach_n);

    // Node.follow() { r = this.next; return r; }
    let follow = b.method(node, "follow", &[], false);
    let follow_this = b.this(follow).unwrap();
    let follow_r = b.var(follow, "r");
    b.load(follow, follow_r, follow_this, next);
    b.set_return(follow, follow_r);

    // static echo(x) { return x; }
    let echo = b.method(node, "echo", &["x"], true);
    let echo_x = b.formals(echo)[0];
    b.set_return(echo, echo_x);

    // main
    let main = b.method(node, "main", &[], true);
    let a = b.var(main, "a");
    let c = b.var(main, "c");
    let got = b.var(main, "got");
    let echoed = b.var(main, "echoed");
    let moved = b.var(main, "moved");
    let h_a = b.alloc(main, a, node, "node A");
    let h_c = b.alloc(main, c, node, "node C");
    b.vcall(main, a, "attach", &[c], None, "a.attach(c)");
    b.vcall(main, a, "follow", &[], Some(got), "a.follow()");
    b.scall(main, echo, &[got], Some(echoed), "echo(got)");
    b.move_(main, moved, echoed);
    b.entry_point(main);
    let p = b.finish().unwrap();
    (
        p,
        vec![a, c, got, echoed, moved, attach_n, follow_r],
        vec![h_a, h_c],
    )
}

#[test]
fn every_rule_fires_and_flows_compose() {
    let (p, vars, heaps) = full_rule_program();
    let [_a, _c, got, echoed, moved, attach_n, follow_r] = vars[..] else {
        unreachable!()
    };
    let h_c = heaps[1];
    for analysis in Analysis::ALL {
        let r = AnalysisSession::open(p.clone()).policy(analysis).solve();
        // Alloc + vcall arg flow: attach's formal sees node C.
        assert_eq!(r.points_to(attach_n), &[h_c], "{analysis}: arg flow");
        // Store + load through the field: follow returns node C.
        assert_eq!(r.points_to(follow_r), &[h_c], "{analysis}: field flow");
        // Virtual return flow.
        assert_eq!(r.points_to(got), &[h_c], "{analysis}: vreturn flow");
        // Static call arg + return flow.
        assert_eq!(r.points_to(echoed), &[h_c], "{analysis}: static flow");
        // Move.
        assert_eq!(r.points_to(moved), &[h_c], "{analysis}: move flow");
    }
}

#[test]
fn unreachable_code_is_not_analyzed() {
    let mut b = ProgramBuilder::new();
    let object = b.class("Object", None);
    let c = b.class("C", Some(object));
    let dead = b.method(c, "dead", &[], true);
    let dv = b.var(dead, "dv");
    b.alloc(dead, dv, c, "dead alloc");
    let main = b.method(c, "main", &[], true);
    let live = b.var(main, "live");
    b.alloc(main, live, c, "live alloc");
    b.entry_point(main);
    let p = b.finish().unwrap();
    let r = AnalysisSession::open(p.clone())
        .policy(Analysis::Insens)
        .solve();
    assert!(r.points_to(dv).is_empty());
    assert!(!r.is_reachable(dead));
    assert!(r.is_reachable(main));
    assert_eq!(r.reachable_method_count(), 1);
}

#[test]
fn cast_filters_incompatible_objects() {
    let mut b = ProgramBuilder::new();
    let object = b.class("Object", None);
    let a = b.class("A", Some(object));
    let bb = b.class("B", Some(object));
    let main = b.method(object, "main", &[], true);
    let mixed = b.var(main, "mixed");
    let a_only = b.var(main, "a_only");
    let ha = b.alloc(main, mixed, a, "an A");
    let _hb = b.alloc(main, mixed, bb, "a B");
    b.cast(main, a_only, mixed, a);
    b.entry_point(main);
    let p = b.finish().unwrap();
    let r = AnalysisSession::open(p.clone())
        .policy(Analysis::Insens)
        .solve();
    assert_eq!(r.points_to(mixed).len(), 2);
    assert_eq!(r.points_to(a_only), &[ha], "cast keeps only A objects");
}

#[test]
fn distinct_fields_do_not_leak() {
    let mut b = ProgramBuilder::new();
    let object = b.class("Object", None);
    let c = b.class("C", Some(object));
    let f1 = b.field(c, "f1");
    let f2 = b.field(c, "f2");
    let main = b.method(c, "main", &[], true);
    let base = b.var(main, "base");
    let v1 = b.var(main, "v1");
    let v2 = b.var(main, "v2");
    let r1 = b.var(main, "r1");
    let r2 = b.var(main, "r2");
    b.alloc(main, base, c, "base");
    let h1 = b.alloc(main, v1, object, "one");
    let h2 = b.alloc(main, v2, object, "two");
    b.store(main, base, f1, v1);
    b.store(main, base, f2, v2);
    b.load(main, r1, base, f1);
    b.load(main, r2, base, f2);
    b.entry_point(main);
    let p = b.finish().unwrap();
    let r = AnalysisSession::open(p.clone())
        .policy(Analysis::Insens)
        .solve();
    assert_eq!(r.points_to(r1), &[h1]);
    assert_eq!(r.points_to(r2), &[h2]);
}

#[test]
fn mutual_recursion_converges() {
    let mut b = ProgramBuilder::new();
    let object = b.class("Object", None);
    let c = b.class("C", Some(object));
    // even(x) { r = odd(x); return r; }   odd(x) { r = even(x); return r; }
    let even = b.method(c, "even", &["x"], true);
    let odd = b.method(c, "odd", &["x"], true);
    let ex = b.formals(even)[0];
    let er = b.var(even, "r");
    b.scall(even, odd, &[ex], Some(er), "even->odd");
    b.set_return(even, er);
    let ox = b.formals(odd)[0];
    let or = b.var(odd, "r");
    b.scall(odd, even, &[ox], Some(or), "odd->even");
    b.set_return(odd, or);
    let main = b.method(c, "main", &[], true);
    let seed = b.var(main, "seed");
    let out = b.var(main, "out");
    let h = b.alloc(main, seed, c, "seed");
    b.scall(main, even, &[seed], Some(out), "start");
    b.entry_point(main);
    let p = b.finish().unwrap();
    // Terminates for every analysis, including call-site-sensitive ones
    // whose contexts cycle through the recursion.
    for analysis in Analysis::ALL {
        let r = AnalysisSession::open(p.clone()).policy(analysis).solve();
        assert_eq!(r.points_to(ex), &[h], "{analysis}");
        // The recursion never returns a value in a finite execution, but
        // the flow-insensitive fixpoint propagates the (vacuous) cycle
        // without diverging; `out` simply stays empty or gets the seed.
        assert!(r.points_to(out).len() <= 1, "{analysis}");
    }
}

#[test]
fn virtual_recursion_through_fields_converges() {
    // A linked structure where follow() walks this.next.follow() — virtual
    // recursion with receiver-dependent contexts.
    let mut b = ProgramBuilder::new();
    let object = b.class("Object", None);
    let node = b.class("Node", Some(object));
    let next = b.field(node, "next");
    let walk = b.method(node, "walk", &[], false);
    let this = b.this(walk).unwrap();
    let n = b.var(walk, "n");
    let r = b.var(walk, "r");
    b.load(walk, n, this, next);
    b.vcall(walk, n, "walk", &[], Some(r), "n.walk()");
    b.set_return(walk, r);
    let main = b.method(node, "main", &[], true);
    let x = b.var(main, "x");
    let y = b.var(main, "y");
    let out = b.var(main, "out");
    b.alloc(main, x, node, "x");
    b.alloc(main, y, node, "y");
    b.store(main, x, next, y);
    b.store(main, y, next, x); // cycle
    b.vcall(main, x, "walk", &[], Some(out), "x.walk()");
    b.entry_point(main);
    let p = b.finish().unwrap();
    for analysis in [
        Analysis::Insens,
        Analysis::OneObj,
        Analysis::TwoObjH,
        Analysis::SThreeObj2H,
    ] {
        let res = AnalysisSession::open(p.clone()).policy(analysis).solve();
        assert!(res.is_reachable(walk), "{analysis}");
    }
}

#[test]
fn retained_tuples_are_consistent_with_projections() {
    let (p, vars, _) = full_rule_program();
    let r = AnalysisSession::open(p.clone())
        .policy(Analysis::STwoObjH)
        .keep_tuples(true)
        .solve();
    let tuples = r.context_sensitive_tuples().expect("tuples retained");
    assert_eq!(tuples.len() as u64, r.ctx_var_points_to_count());
    // Projection of tuples equals the insensitive API.
    for &v in &vars {
        let mut from_tuples: Vec<_> = tuples
            .iter()
            .filter(|t| t.var == v)
            .map(|t| t.heap)
            .collect();
        from_tuples.sort_unstable();
        from_tuples.dedup();
        assert_eq!(from_tuples, r.points_to(v));
    }
    // Every tuple's context resolves.
    for t in tuples.iter().take(50) {
        let _ = r.resolve_ctx(t.ctx);
        let _ = r.resolve_hctx(t.hctx);
    }
}

#[test]
fn two_obj_heap_context_is_the_allocating_receiver() {
    // An object allocated inside an instance method gets the receiver's
    // allocation site as its heap context under 2obj+H.
    let mut b = ProgramBuilder::new();
    let object = b.class("Object", None);
    let fac = b.class("Factory", Some(object));
    let make = b.method(fac, "make", &[], false);
    let prod = b.var(make, "p");
    let h_prod = b.alloc(make, prod, object, "product");
    b.set_return(make, prod);
    let main = b.method(fac, "main", &[], true);
    let f = b.var(main, "f");
    let out = b.var(main, "out");
    let h_factory = b.alloc(main, f, fac, "factory");
    b.vcall(main, f, "make", &[], Some(out), "f.make()");
    b.entry_point(main);
    let p = b.finish().unwrap();

    let r = AnalysisSession::open(p.clone())
        .policy(Analysis::TwoObjH)
        .keep_tuples(true)
        .solve();
    let tuples = r.context_sensitive_tuples().unwrap();
    let product_tuple = tuples
        .iter()
        .find(|t| t.var == out && t.heap == h_prod)
        .expect("main.out points to the product");
    let hctx = r.resolve_hctx(product_tuple.hctx);
    assert_eq!(
        hctx[0].kind(),
        CtxElemKind::Heap(h_factory),
        "product's heap context is the factory that made it"
    );
}

#[test]
fn multiple_entry_points_are_all_roots() {
    let mut b = ProgramBuilder::new();
    let object = b.class("Object", None);
    let c = b.class("C", Some(object));
    let m1 = b.method(c, "entry1", &[], true);
    let v1 = b.var(m1, "v1");
    b.alloc(m1, v1, c, "from entry1");
    let m2 = b.method(c, "entry2", &[], true);
    let v2 = b.var(m2, "v2");
    b.alloc(m2, v2, c, "from entry2");
    b.entry_point(m1);
    b.entry_point(m2);
    let p = b.finish().unwrap();
    let r = AnalysisSession::open(p.clone())
        .policy(Analysis::OneObj)
        .solve();
    assert!(!r.points_to(v1).is_empty());
    assert!(!r.points_to(v2).is_empty());
    assert_eq!(r.reachable_method_count(), 2);
}

#[test]
fn dispatch_failure_derives_nothing() {
    // A virtual call whose receiver's class lacks the signature: no callee,
    // no crash (the analysis just derives no call-graph edge).
    let mut b = ProgramBuilder::new();
    let object = b.class("Object", None);
    let c = b.class("C", Some(object));
    let main = b.method(c, "main", &[], true);
    let x = b.var(main, "x");
    let out = b.var(main, "out");
    b.alloc(main, x, object, "plain object");
    b.vcall(main, x, "nonexistent", &[], Some(out), "bad call");
    b.entry_point(main);
    let p = b.finish().unwrap();
    let r = AnalysisSession::open(p.clone())
        .policy(Analysis::OneObj)
        .solve();
    assert!(r.points_to(out).is_empty());
    assert_eq!(r.call_graph_edge_count(), 0);
}

#[test]
fn may_alias_tracks_precision() {
    // Two boxes, two payloads: under insens the box contents alias; under
    // 1obj they do not.
    let mut b = ProgramBuilder::new();
    let object = b.class("Object", None);
    let boxc = b.class("Box", Some(object));
    let f = b.field(boxc, "v");
    let set = b.method(boxc, "set", &["x"], false);
    let st = b.this(set).unwrap();
    let sx = b.formals(set)[0];
    b.store(set, st, f, sx);
    let get = b.method(boxc, "get", &[], false);
    let gt = b.this(get).unwrap();
    let gr = b.var(get, "r");
    b.load(get, gr, gt, f);
    b.set_return(get, gr);
    let main = b.method(boxc, "main", &[], true);
    let (b1, b2) = (b.var(main, "b1"), b.var(main, "b2"));
    let (p1, p2) = (b.var(main, "p1"), b.var(main, "p2"));
    let (r1, r2) = (b.var(main, "r1"), b.var(main, "r2"));
    b.alloc(main, b1, boxc, "box1");
    b.alloc(main, b2, boxc, "box2");
    b.alloc(main, p1, object, "pay1");
    b.alloc(main, p2, object, "pay2");
    b.vcall(main, b1, "set", &[p1], None, "s1");
    b.vcall(main, b2, "set", &[p2], None, "s2");
    b.vcall(main, b1, "get", &[], Some(r1), "g1");
    b.vcall(main, b2, "get", &[], Some(r2), "g2");
    b.entry_point(main);
    let p = b.finish().unwrap();

    let coarse = AnalysisSession::open(p.clone())
        .policy(Analysis::Insens)
        .solve();
    assert!(coarse.may_alias(r1, r2), "insens conflates the boxes");
    assert!(coarse.may_alias(r1, p1));

    let fine = AnalysisSession::open(p.clone())
        .policy(Analysis::OneObj)
        .solve();
    assert!(!fine.may_alias(r1, r2), "1obj separates the boxes");
    assert!(fine.may_alias(r1, p1), "r1 really does alias p1");
    assert!(!fine.may_alias(r1, p2));

    // may_alias is symmetric and reflexive-on-pointing-vars.
    assert_eq!(fine.may_alias(r1, r2), fine.may_alias(r2, r1));
    assert!(fine.may_alias(r1, r1));
}

#[test]
fn provenance_chains_reach_the_allocation() {
    let (p, vars, heaps) = full_rule_program();
    let moved = vars[4];
    let h_c = heaps[1];
    let r = AnalysisSession::open(p.clone())
        .policy(Analysis::TwoObjH)
        .track_provenance(true)
        .solve();
    let chain = r
        .explain(&p, moved, h_c)
        .expect("provenance recorded for moved -> node C");
    // The chain walks: moved <- echoed <- echo::x <- got <- follow::r
    // <- field load <- attach::n <- main::c = new.
    assert!(chain.len() >= 5, "chain too short: {chain:#?}");
    let last = chain.last().unwrap();
    assert!(
        last.contains("= new") && last.contains("node C"),
        "chain must end at the allocation: {chain:#?}"
    );
    let joined = chain.join("\n");
    assert!(joined.contains("loaded from field next"), "{joined}");
    assert!(joined.contains("call boundary"), "{joined}");

    // Non-facts have no explanation.
    assert!(r.explain(&p, moved, heaps[0]).is_none());
}

#[test]
fn provenance_is_absent_without_the_flag() {
    let (p, vars, heaps) = full_rule_program();
    let r = AnalysisSession::open(p.clone())
        .policy(Analysis::OneObj)
        .solve();
    assert!(r.explain(&p, vars[4], heaps[1]).is_none());
}

#[test]
fn provenance_does_not_change_results() {
    let p = pta_workload::generate(&pta_workload::WorkloadConfig::tiny(9));
    let plain = AnalysisSession::open(p.clone())
        .policy(Analysis::STwoObjH)
        .solve();
    let tracked = AnalysisSession::open(p.clone())
        .policy(Analysis::STwoObjH)
        .track_provenance(true)
        .keep_tuples(true)
        .solve();
    assert_eq!(
        plain.ctx_var_points_to_count(),
        tracked.ctx_var_points_to_count()
    );
    for v in p.vars() {
        assert_eq!(plain.points_to(v), tracked.points_to(v));
    }
    // Every tuple has a recorded derivation.
    for t in tracked.context_sensitive_tuples().unwrap() {
        assert!(
            tracked.explain(&p, t.var, t.heap).is_some(),
            "missing derivation for {t:?}"
        );
    }
}

#[test]
fn static_fields_are_global_cells() {
    // publisher() writes into a static cell; consumer() reads it. The flow
    // crosses methods without any call edge between them.
    let mut b = ProgramBuilder::new();
    let object = b.class("Object", None);
    let reg = b.class("Registry", Some(object));
    let cell = b.static_field(reg, "current");
    let publisher = b.method(reg, "publish", &[], true);
    let pv = b.var(publisher, "v");
    let h = b.alloc(publisher, pv, object, "published");
    b.sstore(publisher, cell, pv);
    let consumer = b.method(reg, "consume", &[], true);
    let cv = b.var(consumer, "got");
    b.sload(consumer, cv, cell);
    b.set_return(consumer, cv);
    let main = b.method(reg, "main", &[], true);
    let out = b.var(main, "out");
    b.scall(main, publisher, &[], None, "publish()");
    b.scall(main, consumer, &[], Some(out), "consume()");
    b.entry_point(main);
    let p = b.finish().unwrap();

    for analysis in Analysis::ALL {
        let r = AnalysisSession::open(p.clone()).policy(analysis).solve();
        assert_eq!(r.points_to(cv), &[h], "{analysis}: static cell flows");
        assert_eq!(r.points_to(out), &[h], "{analysis}");
    }
}

#[test]
fn static_fields_conflate_across_all_contexts() {
    // Two publishers under different object contexts share the cell: even
    // the most precise analysis merges them — the paper's rationale for
    // leaving static fields out of the context model ("does not interact
    // with context choice").
    let mut b = ProgramBuilder::new();
    let object = b.class("Object", None);
    let reg = b.class("Reg", Some(object));
    let cell = b.static_field(reg, "shared");
    let worker = b.class("Worker", Some(object));
    let put = b.method(worker, "put", &["x"], false);
    let px = b.formals(put)[0];
    b.sstore(put, cell, px);
    let take = b.method(worker, "take", &[], false);
    let tv = b.var(take, "got");
    b.sload(take, tv, cell);
    b.set_return(take, tv);
    let main = b.method(reg, "main", &[], true);
    let (w1, w2) = (b.var(main, "w1"), b.var(main, "w2"));
    let (a, bb) = (b.var(main, "a"), b.var(main, "bb"));
    let (r1, r2) = (b.var(main, "r1"), b.var(main, "r2"));
    b.alloc(main, w1, worker, "worker1");
    b.alloc(main, w2, worker, "worker2");
    b.alloc(main, a, object, "A");
    b.alloc(main, bb, object, "B");
    b.vcall(main, w1, "put", &[a], None, "w1.put");
    b.vcall(main, w2, "put", &[bb], None, "w2.put");
    b.vcall(main, w1, "take", &[], Some(r1), "w1.take");
    b.vcall(main, w2, "take", &[], Some(r2), "w2.take");
    b.entry_point(main);
    let p = b.finish().unwrap();

    for analysis in [
        Analysis::Insens,
        Analysis::TwoObjH,
        Analysis::UTwoObjH,
        Analysis::ThreeObj2H,
    ] {
        let r = AnalysisSession::open(p.clone()).policy(analysis).solve();
        assert_eq!(
            r.points_to(r1).len(),
            2,
            "{analysis}: the static cell conflates regardless of context"
        );
        assert_eq!(r.points_to(r1), r.points_to(r2), "{analysis}");
    }
}

#[test]
fn static_field_provenance_chains_through_the_cell() {
    let mut b = ProgramBuilder::new();
    let object = b.class("Object", None);
    let reg = b.class("Reg", Some(object));
    let cell = b.static_field(reg, "cell");
    let main = b.method(reg, "main", &[], true);
    let v = b.var(main, "v");
    let got = b.var(main, "got");
    let h = b.alloc(main, v, object, "the value");
    b.sstore(main, cell, v);
    b.sload(main, got, cell);
    b.entry_point(main);
    let p = b.finish().unwrap();
    let r = AnalysisSession::open(p.clone())
        .policy(Analysis::OneObj)
        .track_provenance(true)
        .solve();
    let chain = r.explain(&p, got, h).expect("chain exists");
    let joined = chain.join("\n");
    assert!(joined.contains("static field Reg.cell"), "{joined}");
    assert!(joined.contains("= new"), "{joined}");
}

/// An exception thrown at the bottom of a 100,000-deep static call chain
/// escapes every frame on the way up. Propagation keeps its pending frames
/// on the heap, so the solve fits the 2 MiB stack of a daemon worker
/// thread.
#[test]
fn exceptions_escape_a_deep_call_chain_on_a_small_stack() {
    const DEPTH: usize = 100_000;
    let mut b = ProgramBuilder::new();
    let object = b.class("Object", None);
    let err = b.class("Err", Some(object));
    let main = b.method(err, "main", &[], true);
    b.entry_point(main);
    let mut caller = main;
    for i in 0..DEPTH {
        let callee = b.method(err, &format!("m{i}"), &[], true);
        b.scall(caller, callee, &[], None, &format!("call m{i}"));
        caller = callee;
    }
    let e = b.var(caller, "e");
    b.alloc(caller, e, err, "the error");
    b.throw(caller, e);
    let program = b.finish().unwrap();
    let stats = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let r = AnalysisSession::open(program)
                .policy(Analysis::TwoObjH)
                .solve();
            assert_eq!(r.uncaught_exceptions().len(), 1);
            *r.solver_stats()
        })
        .unwrap()
        .join()
        .expect("the solve must not overflow its stack");
    assert_eq!(stats.throw_tuples, DEPTH as u64 + 1);
}
