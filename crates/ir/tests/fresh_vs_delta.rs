//! One implementation numbers IDs and interns names for fresh programs and
//! for edits: the same entities built fresh with `ProgramBuilder`, and
//! built as a base program plus a `ProgramDelta`, get the same IDs, the
//! same names and labels, and print to the same `.jir` text.

use pta_ir::{
    HeapId, Instr, InvoId, MethodId, Program, ProgramBuilder, ProgramDelta, SrcLoc, TypeId, VarId,
};
use pta_lang::print_program;

/// IDs the base half hands to the second half.
#[derive(Clone, Copy)]
struct Base {
    c: TypeId,
    main: MethodId,
    v: VarId,
}

/// Every ID the second half creates, to compare across both builds.
#[derive(Debug, PartialEq, Eq)]
struct Added {
    sub: TypeId,
    run: MethodId,
    helper: MethodId,
    vars: Vec<VarId>,
    heaps: Vec<HeapId>,
    invos: Vec<InvoId>,
}

fn loc(line: u32) -> SrcLoc {
    SrcLoc { line, column: 1 }
}

/// The base program: `Object`, `C` with a static field, and an entry
/// point that allocates a `C`.
fn declare_base(b: &mut ProgramDelta) -> Base {
    let object = b.class("Object", None);
    let c = b.class("C", Some(object));
    let main = b.method(c, "main", &[], true);
    b.set_method_loc(main, loc(1));
    let v = b.var(main, "v");
    b.alloc(main, v, c, "new C");
    b.set_last_instr_loc(main, loc(2));
    b.entry_point(main);
    Base { c, main, v }
}

/// Adds a subclass with an instance method and a static helper, and a
/// call of each from `main`. Runs against a builder or a delta, and reads
/// back what it declared through the delta accessors.
fn declare_more(b: &mut ProgramDelta, base: Base) -> Added {
    let Base { c, main, v } = base;
    assert_eq!(
        b.class_by_name("C"),
        Some(c),
        "base classes resolve by name"
    );
    assert_eq!(b.class_by_name("Sub"), None);
    let sub = b.class("Sub", Some(c));
    assert_eq!(b.class_by_name("Sub"), Some(sub));
    let slot = b.field(sub, "slot");
    let cell = b.static_field(c, "cell");

    let run = b.method(sub, "run", &["x"], false);
    b.set_method_loc(run, loc(10));
    let this = b.this(run).expect("instance methods have a receiver");
    let x = b.formals(run)[0];
    b.store(run, this, slot, x);
    b.set_last_instr_loc(run, loc(11));
    let y = b.var(run, "y");
    b.load(run, y, this, slot);
    b.set_return(run, y);
    assert_eq!(b.formal_return(run), Some(y));
    assert_eq!(b.instrs(run).len(), 2);
    assert!(matches!(b.instrs(run)[1], Instr::Load { to, .. } if to == y));

    let helper = b.method(sub, "helper", &["a", "b"], true);
    assert_eq!(b.this(helper), None);
    let (a, bb) = (b.formals(helper)[0], b.formals(helper)[1]);
    b.move_(helper, a, bb);
    b.set_return(helper, a);
    let err = b.class("Err", Some(c));
    let caught = b.catch_clause(helper, err, "e");
    b.throw(helper, caught);

    let s = b.var(main, "s");
    let r = b.var(main, "r");
    let t = b.var(main, "t");
    let h1 = b.alloc(main, s, sub, "new Sub");
    let call_run = b.vcall(main, s, "run", &[v], Some(r), "call run");
    assert_eq!(b.actual_args(call_run), &[v]);
    assert_eq!(b.actual_return(call_run), Some(r));
    let call_helper = b.scall(main, helper, &[r, v], Some(t), "call helper");
    assert_eq!(b.actual_args(call_helper), &[r, v]);
    b.cast(main, t, t, c);
    b.sstore(main, cell, t);
    b.sload(main, s, cell);
    let h2 = b.alloc(main, t, err, "new Err");
    assert_eq!(b.method_count(), 3);
    Added {
        sub,
        run,
        helper,
        vars: vec![this, x, y, a, bb, caught, s, r, t],
        heaps: vec![h1, h2],
        invos: vec![call_run, call_helper],
    }
}

fn fresh() -> (Program, Added) {
    let mut b = ProgramBuilder::new();
    let base = declare_base(&mut b);
    let added = declare_more(&mut b, base);
    (b.finish().expect("fresh program is well-formed"), added)
}

fn base_plus_delta() -> (Program, Added) {
    let mut b = ProgramBuilder::new();
    let ids = declare_base(&mut b);
    let base = b.finish().expect("base program is well-formed");
    let mut d = ProgramDelta::new(&base);
    let added = declare_more(&mut d, ids);
    (base.apply_delta(&d).expect("delta applies"), added)
}

#[test]
fn fresh_and_base_plus_delta_agree() {
    let (p, fresh_ids) = fresh();
    let (q, delta_ids) = base_plus_delta();
    assert_eq!(fresh_ids, delta_ids);

    assert_eq!(print_program(&p), print_program(&q));
    assert_eq!(p.type_count(), q.type_count());
    assert_eq!(p.field_count(), q.field_count());
    assert_eq!(p.sig_count(), q.sig_count());
    for t in p.types() {
        assert_eq!(p.type_name(t), q.type_name(t));
        assert_eq!(p.type_parent(t), q.type_parent(t));
    }
    for m in p.methods() {
        assert_eq!(p.method_qualified_name(m), q.method_qualified_name(m));
        assert_eq!(p.this_var(m), q.this_var(m));
        assert_eq!(p.formals(m), q.formals(m));
        assert_eq!(p.formal_return(m), q.formal_return(m));
        assert_eq!(p.catches(m), q.catches(m));
        assert_eq!(p.method_loc(m), q.method_loc(m));
        assert_eq!(p.instrs(m), q.instrs(m));
        for i in 0..p.instrs(m).len() {
            assert_eq!(p.instr_loc(m, i), q.instr_loc(m, i));
        }
    }
    for v in p.vars() {
        assert_eq!(p.var_name(v), q.var_name(v));
        assert_eq!(p.var_method(v), q.var_method(v));
    }
    for h in p.heaps() {
        assert_eq!(p.heap_label(h), q.heap_label(h));
        assert_eq!(p.heap_type(h), q.heap_type(h));
    }
    for i in p.invos() {
        assert_eq!(p.invo_label(i), q.invo_label(i));
        assert_eq!(p.actual_args(i), q.actual_args(i));
        assert_eq!(p.actual_return(i), q.actual_return(i));
    }
    assert_eq!(p.entry_points(), q.entry_points());
    assert_eq!(p.method_loc(fresh_ids.run), loc(10));
    assert_eq!(p.instr_loc(fresh_ids.run, 0), loc(11));
    assert_eq!(p.instr_loc(fresh_ids.run, 1), SrcLoc::UNKNOWN);
    assert_eq!(p.instr_loc(MethodId::from_index(0), 0), loc(2));
}

#[test]
fn fresh_programs_report_the_first_error_in_method_order() {
    let mut b = ProgramBuilder::new();
    let object = b.class("Object", None);
    let one = b.method(object, "one", &[], true);
    let two = b.method(object, "two", &[], true);
    let x = b.var(one, "x");
    let y = b.var(two, "y");
    b.move_(two, y, x); // x belongs to `one`
    b.move_(one, x, y); // y belongs to `two`; reported first
    b.entry_point(one);
    assert_eq!(
        b.finish().unwrap_err(),
        pta_ir::ValidateError::ForeignVariable {
            method: one,
            var: y
        }
    );
}
