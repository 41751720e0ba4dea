//! The incremental workload: a long-lived session absorbing a stream of
//! small edits, as an IDE drives `AnalysisSession::apply`.

use std::collections::HashMap;
use std::time::Instant;

use pta_core::{Analysis, AnalysisSession};
use pta_ir::Program;
use pta_lang::parse_program;
use pta_workload::{materialize, Edit, EditStream};

use crate::digest::{check_golden, fast};
use crate::programs::{golden_key, setup};
use crate::{ms, Measured, Params};

/// The edit stream's own seed. It is fixed: edits are drawn on the
/// seed-0 declaration order and carried over to the seed's order by name
/// (see [`Remap`]), so every seed applies the same edits and differs only
/// in entity numbering.
const EDIT_SEED: u64 = 1;

/// Edits applied per second of `--seconds`. The count is fixed rather
/// than timed, so every run, and every commit, applies the same edits;
/// six per second fill the timed phase on a 2-core host.
const EDITS_PER_S: f64 = 6.0;

/// Entity indices of one declaration order mapped to another by name.
/// Indices past the base program (variables created by earlier edits)
/// are appended in the same order by both, so they map to themselves.
struct Remap {
    method: Vec<usize>,
    var: Vec<usize>,
    ty: Vec<usize>,
    field: Vec<usize>,
}

fn at(table: &[usize], i: usize) -> usize {
    table.get(i).copied().unwrap_or(i)
}

impl Remap {
    fn new(from: &Program, to: &Program) -> Remap {
        let methods: HashMap<String, usize> = to
            .methods()
            .map(|m| (to.method_qualified_name(m), m.index()))
            .collect();
        let method: Vec<usize> = from
            .methods()
            .map(|m| methods[&from.method_qualified_name(m)])
            .collect();
        let vars: HashMap<(usize, &str), usize> = to
            .vars()
            .map(|v| ((to.var_method(v).index(), to.var_name(v)), v.index()))
            .collect();
        let var = from
            .vars()
            .map(|v| vars[&(method[from.var_method(v).index()], from.var_name(v))])
            .collect();
        let types: HashMap<&str, usize> =
            to.types().map(|t| (to.type_name(t), t.index())).collect();
        let ty = from.types().map(|t| types[from.type_name(t)]).collect();
        let field_id = pta_ir::FieldId::from_index;
        let fields: HashMap<&str, usize> = (0..to.field_count())
            .map(|i| (to.field_name(field_id(i)), i))
            .collect();
        let field = (0..from.field_count())
            .map(|i| fields[from.field_name(field_id(i))])
            .collect();
        Remap {
            method,
            var,
            ty,
            field,
        }
    }

    fn edit(&self, e: &Edit) -> Edit {
        let m = |i: &usize| at(&self.method, *i);
        let v = |i: &usize| at(&self.var, *i);
        let vs = |is: &[usize]| is.iter().map(v).collect();
        match e.clone() {
            Edit::Alloc {
                meth,
                to,
                ty,
                fresh,
            } => Edit::Alloc {
                meth: m(&meth),
                to: to.as_ref().map(v),
                ty: at(&self.ty, ty),
                fresh,
            },
            Edit::Move {
                meth,
                to,
                from,
                fresh,
            } => Edit::Move {
                meth: m(&meth),
                to: to.as_ref().map(v),
                from: v(&from),
                fresh,
            },
            Edit::Load {
                meth,
                base,
                field,
                fresh,
            } => Edit::Load {
                meth: m(&meth),
                base: v(&base),
                field: at(&self.field, field),
                fresh,
            },
            Edit::Store {
                meth,
                base,
                field,
                from,
            } => Edit::Store {
                meth: m(&meth),
                base: v(&base),
                field: at(&self.field, field),
                from: v(&from),
            },
            Edit::SCall {
                meth,
                target,
                args,
                label,
            } => Edit::SCall {
                meth: m(&meth),
                target: m(&target),
                args: vs(&args),
                label,
            },
            Edit::VCall {
                meth,
                base,
                name,
                arity,
                args,
                label,
            } => Edit::VCall {
                meth: m(&meth),
                base: v(&base),
                name,
                arity,
                args: vs(&args),
                label,
            },
            Edit::RemoveInstr { meth, index } => Edit::RemoveInstr {
                meth: m(&meth),
                index,
            },
            Edit::ClearMethod { meth } => Edit::ClearMethod { meth: m(&meth) },
            Edit::AddEntry { meth } => Edit::AddEntry { meth: m(&meth) },
            Edit::RemoveEntry { meth } => Edit::RemoveEntry { meth: m(&meth) },
        }
    }
}

/// `incr-edits`: luindex at scale 64 under 2obj+H in an incremental
/// session; each op applies one edit of a seeded stream (allocations,
/// copies, calls, instruction removals, entry-point changes). Most edits
/// are maintained in place; retractions under live exception flow fall
/// back to a full re-solve, so both paths are timed.
pub fn incr_edits(params: &Params, m: &mut Measured) {
    const POLICY: Analysis = Analysis::TwoObjH;
    let scale = params.scale(64.0);
    let (text, _, (mut session, initial)) = setup(params, "luindex", scale, m, |source| {
        let program = parse_program(source).expect("printed programs parse");
        let mut session = AnalysisSession::open(program)
            .policy(POLICY)
            .incremental(true);
        let initial = session.solve();
        (session, initial)
    });
    check_golden(
        params,
        m,
        &golden_key("luindex", scale, POLICY.name()),
        session.program(),
        &initial,
    );
    m.layers.solver_counters(&[initial.solver_stats()]);
    drop(initial);

    // Edits are drawn on the seed-0 order (untimed) and carried over.
    let base = parse_program(&text).expect("printed programs parse");
    let remap = (params.seed != 0).then(|| Remap::new(&base, session.program()));
    let mut stream = EditStream::new(base, EDIT_SEED);

    pta_govern::memtrack::reset_peak();
    let (mut incremental, mut cone_keys, mut maintained) = (0u64, 0u64, 0u64);
    let mut last = None;
    for _ in 0..((params.seconds * EDITS_PER_S).round() as u64).max(1) {
        stream.next_delta();
        let edit = stream.log().last().expect("an edit was just drawn");
        let edit = remap
            .as_ref()
            .map_or_else(|| edit.clone(), |r| r.edit(edit));
        let Some(delta) = materialize(session.program(), &edit) else {
            m.fail(
                1,
                format!("edit {} did not carry over: {edit:?}", m.attempted),
            );
            break;
        };
        let t0 = m.layers.now_ns();
        let t = Instant::now();
        let applied = session.apply(&delta);
        let op_ms = ms(t);
        m.attempted += 1;
        m.op_ms.push(op_ms);
        match applied {
            Ok(result) => last = Some(result),
            Err(e) => {
                m.fail(1, format!("apply {}: {e}", m.attempted));
                break;
            }
        }
        let layer = match session.last_apply_stats() {
            Some(s) => {
                incremental += 1;
                cone_keys += s.cone_keys;
                maintained += s.maintained_tuples;
                "core.apply_incremental_ms"
            }
            None => "core.apply_fallback_ms",
        };
        if m.layers.is_enabled() {
            m.layers.push(layer, op_ms);
            let dur = m.layers.now_ns() - t0;
            m.layers.span(layer, 0, t0, dur, m.attempted);
        }
    }
    m.peak_bytes = pta_govern::memtrack::peak_bytes();
    m.busy_s = m.op_ms.iter().sum::<f64>() / 1e3;
    let ratio = |x: u64, of: u64| if of == 0 { 0.0 } else { x as f64 / of as f64 };
    m.layers.set(
        "core.apply_incremental_ratio",
        ratio(incremental, m.attempted),
    );
    m.layers
        .set("core.cone_keys", ratio(cone_keys, incremental));
    m.layers
        .set("core.maintained_tuples", ratio(maintained, incremental));

    // The reference: a from-scratch solve of the final version.
    if let Some(result) = last {
        let program = session.program();
        let scratch = AnalysisSession::open(Program::clone(program))
            .policy(POLICY)
            .solve();
        if fast(program, &result) != fast(program, &scratch) {
            let n = m.attempted;
            m.fail(
                n,
                format!("after {n} edits the result differs from a fresh solve"),
            );
        }
    }
}
