//! Deterministic random edit streams over a base program.
//!
//! The incremental session's correctness bar is "byte-identical to a
//! from-scratch solve after every edit" — this module supplies the edit
//! sequences that bar is checked against. [`EditStream`] holds the
//! current program version and, per step, samples one small abstract
//! [`Edit`] (an allocation, a copy, a call, an instruction removal,
//! ...), materializes it into a [`ProgramDelta`] against the current
//! version, applies it, and hands both back so the caller can drive
//! `AnalysisSession::apply` with exactly the same sequence of versions.
//!
//! Everything is driven by the workspace's splitmix64 [`Rng`], so a
//! stream is fully determined by `(base program, seed)`. Edits are
//! *abstract* — they reference methods/vars/types by raw index — so a
//! recorded sequence can be replayed as any subsequence: materializing
//! against the version a replay actually reached simply skips edits
//! whose references no longer resolve. That is what makes delta-
//! debugging shrinking ([`shrink_steps`]) sound on chained streams.

use pta_ir::rng::Rng;
use pta_ir::{FieldId, MethodId, Program, ProgramDelta, TypeId, VarId};

/// One abstract program edit, replayable against any program version
/// whose arenas still contain the referenced indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Edit {
    /// `var = new ty` appended to `meth`; `to: None` creates a fresh
    /// variable named `fresh`.
    Alloc {
        meth: usize,
        to: Option<usize>,
        ty: usize,
        fresh: String,
    },
    /// `to = from` appended to `meth` (`to: None` creates `fresh`).
    Move {
        meth: usize,
        to: Option<usize>,
        from: usize,
        fresh: String,
    },
    /// `fresh = base.field` appended to `meth`.
    Load {
        meth: usize,
        base: usize,
        field: usize,
        fresh: String,
    },
    /// `base.field = from` appended to `meth`.
    Store {
        meth: usize,
        base: usize,
        field: usize,
        from: usize,
    },
    /// Zero/`n`-arg static call `target(args...)` appended to `meth`.
    SCall {
        meth: usize,
        target: usize,
        args: Vec<usize>,
        label: String,
    },
    /// Virtual call `base.name(args...)` appended to `meth`.
    VCall {
        meth: usize,
        base: usize,
        name: String,
        arity: usize,
        args: Vec<usize>,
        label: String,
    },
    /// Remove the `index`-th instruction of `meth`'s body.
    RemoveInstr { meth: usize, index: usize },
    /// Empty `meth`'s body.
    ClearMethod { meth: usize },
    /// Add `meth` to the entry points.
    AddEntry { meth: usize },
    /// Remove `meth` from the entry points.
    RemoveEntry { meth: usize },
}

/// Materializes `edit` against `program`, or `None` when a reference no
/// longer resolves (possible when replaying a subsequence: an earlier
/// step that created the variable was dropped, the method body shrank,
/// ...). A `None` is a skipped step, not an error.
#[must_use]
pub fn materialize(program: &Program, edit: &Edit) -> Option<ProgramDelta> {
    let meth_of = |idx: usize| -> Option<MethodId> {
        (idx < program.method_count()).then(|| MethodId::from_index(idx))
    };
    // A var must exist AND still belong to the method the edit targets.
    let var_in = |idx: usize, m: MethodId| -> Option<VarId> {
        let v = (idx < program.var_count()).then(|| VarId::from_index(idx))?;
        (program.var_method(v) == m).then_some(v)
    };
    let type_of = |idx: usize| -> Option<TypeId> {
        (idx < program.type_count()).then(|| TypeId::from_index(idx))
    };
    let mut delta = ProgramDelta::new(program);
    match edit {
        Edit::Alloc {
            meth,
            to,
            ty,
            fresh,
        } => {
            let m = meth_of(*meth)?;
            let ty = type_of(*ty)?;
            let var = match to {
                Some(idx) => var_in(*idx, m)?,
                None => delta.var(m, fresh),
            };
            delta.alloc(m, var, ty, fresh);
        }
        Edit::Move {
            meth,
            to,
            from,
            fresh,
        } => {
            let m = meth_of(*meth)?;
            let from = var_in(*from, m)?;
            let to = match to {
                Some(idx) => var_in(*idx, m)?,
                None => delta.var(m, fresh),
            };
            delta.move_(m, to, from);
        }
        Edit::Load {
            meth,
            base,
            field,
            fresh,
        } => {
            let m = meth_of(*meth)?;
            let base = var_in(*base, m)?;
            let field = (*field < program.field_count()).then(|| FieldId::from_index(*field))?;
            if program.field_is_static(field) {
                return None;
            }
            let to = delta.var(m, fresh);
            delta.load(m, to, base, field);
        }
        Edit::Store {
            meth,
            base,
            field,
            from,
        } => {
            let m = meth_of(*meth)?;
            let base = var_in(*base, m)?;
            let from = var_in(*from, m)?;
            let field = (*field < program.field_count()).then(|| FieldId::from_index(*field))?;
            if program.field_is_static(field) {
                return None;
            }
            delta.store(m, base, field, from);
        }
        Edit::SCall {
            meth,
            target,
            args,
            label,
        } => {
            let m = meth_of(*meth)?;
            let target = meth_of(*target)?;
            if !program.method_is_static(target) || program.formals(target).len() != args.len() {
                return None;
            }
            let mut actuals = Vec::with_capacity(args.len());
            for &a in args {
                actuals.push(var_in(a, m)?);
            }
            delta.scall(m, target, &actuals, None, label);
        }
        Edit::VCall {
            meth,
            base,
            name,
            arity,
            args,
            label,
        } => {
            let m = meth_of(*meth)?;
            let base = var_in(*base, m)?;
            if args.len() != *arity {
                return None;
            }
            let mut actuals = Vec::with_capacity(args.len());
            for &a in args {
                actuals.push(var_in(a, m)?);
            }
            delta.vcall(m, base, name, &actuals, None, label);
        }
        Edit::RemoveInstr { meth, index } => {
            let m = meth_of(*meth)?;
            if *index >= program.instrs(m).len() {
                return None;
            }
            delta.remove_instr(m, *index);
        }
        Edit::ClearMethod { meth } => delta.clear_method(meth_of(*meth)?),
        Edit::AddEntry { meth } => {
            let m = meth_of(*meth)?;
            if !program.method_is_static(m) || !program.formals(m).is_empty() {
                return None;
            }
            delta.entry_point(m);
        }
        Edit::RemoveEntry { meth } => {
            let m = meth_of(*meth)?;
            // Never orphan the program: keep at least one entry point.
            if program.entry_points().len() < 2 || !program.entry_points().contains(&m) {
                return None;
            }
            delta.remove_entry_point(m);
        }
    }
    Some(delta)
}

/// Replays `edits` in order from `base`, skipping unmaterializable
/// steps; returns the final program. Useful for shrinking candidates.
#[must_use]
pub fn replay(base: &Program, edits: &[Edit]) -> Program {
    let mut program = base.clone();
    for edit in edits {
        if let Some(delta) = materialize(&program, edit) {
            program = program
                .apply_delta(&delta)
                .expect("materialized edits always apply");
        }
    }
    program
}

/// A reproducible stream of small program edits.
pub struct EditStream {
    program: Program,
    rng: Rng,
    /// Every edit sampled so far, in order — the shrinkable log.
    log: Vec<Edit>,
    /// Fresh-name counter, so labels/vars never collide across steps.
    fresh: u64,
}

impl EditStream {
    /// Starts a stream over `base` driven by `seed`.
    #[must_use]
    pub fn new(base: Program, seed: u64) -> EditStream {
        EditStream {
            program: base,
            rng: Rng::seed_from_u64(seed),
            log: Vec::new(),
            fresh: 0,
        }
    }

    /// The current program version (the base with every edit so far
    /// applied).
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The abstract edits sampled so far, in order.
    #[must_use]
    pub fn log(&self) -> &[Edit] {
        &self.log
    }

    /// Samples the next edit against the current version, applies it,
    /// and returns its materialized delta. The delta's base is the
    /// program [`Self::program`] returned *before* this call.
    pub fn next_delta(&mut self) -> ProgramDelta {
        let edit = self.sample();
        let delta =
            materialize(&self.program, &edit).expect("freshly sampled edits always materialize");
        self.program = self
            .program
            .apply_delta(&delta)
            .expect("freshly sampled edits always apply");
        self.log.push(edit);
        delta
    }

    fn fresh_name(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}_e{}", self.fresh)
    }

    fn pick_method(&mut self) -> usize {
        self.rng.gen_range(0..self.program.method_count())
    }

    /// A random local of `meth` (by raw index), when it has one.
    fn pick_var_of(&mut self, meth: usize) -> Option<usize> {
        let p = &self.program;
        let m = MethodId::from_index(meth);
        let locals: Vec<usize> = p
            .vars()
            .filter(|&v| p.var_method(v) == m)
            .map(|v| v.index())
            .collect();
        if locals.is_empty() {
            return None;
        }
        let i = self.rng.gen_range(0..locals.len());
        Some(locals[i])
    }

    /// Fallback edit when a sampled shape has no applicable operands.
    fn fallback_alloc(&mut self, meth: usize) -> Edit {
        Edit::Alloc {
            meth,
            to: None,
            ty: self.rng.gen_range(0..self.program.type_count()),
            fresh: self.fresh_name("v"),
        }
    }

    /// Samples one edit. Weights favor the additive edits an editor
    /// session mostly produces, with enough retraction traffic
    /// (instruction removal, method clearing, entry-point toggling) to
    /// exercise the fallback re-solve.
    fn sample(&mut self) -> Edit {
        let roll = self.rng.gen_range(0..100u32);
        let meth = self.pick_method();
        match roll {
            // new allocation into an existing method
            0..=24 => {
                let to = match self.pick_var_of(meth) {
                    Some(v) if self.rng.gen_bool(0.5) => Some(v),
                    _ => None,
                };
                Edit::Alloc {
                    meth,
                    to,
                    ty: self.rng.gen_range(0..self.program.type_count()),
                    fresh: self.fresh_name("v"),
                }
            }
            // copy between two locals of one method
            25..=39 => match self.pick_var_of(meth) {
                Some(from) => {
                    let to = if self.rng.gen_bool(0.5) {
                        self.pick_var_of(meth)
                    } else {
                        None
                    };
                    Edit::Move {
                        meth,
                        to,
                        from,
                        fresh: self.fresh_name("v"),
                    }
                }
                None => self.fallback_alloc(meth),
            },
            // field store or load through a local base
            40..=49 => {
                let p = &self.program;
                let fields: Vec<usize> = (0..p.field_count())
                    .filter(|&f| !p.field_is_static(FieldId::from_index(f)))
                    .collect();
                match (self.pick_var_of(meth), fields.is_empty()) {
                    (Some(base), false) => {
                        let fi = self.rng.gen_range(0..fields.len());
                        let field = fields[fi];
                        if self.rng.gen_bool(0.5) {
                            Edit::Load {
                                meth,
                                base,
                                field,
                                fresh: self.fresh_name("v"),
                            }
                        } else {
                            let from = self.pick_var_of(meth).unwrap();
                            Edit::Store {
                                meth,
                                base,
                                field,
                                from,
                            }
                        }
                    }
                    _ => self.fallback_alloc(meth),
                }
            }
            // static call to an existing static method
            50..=59 => {
                let p = &self.program;
                let statics: Vec<usize> = p
                    .methods()
                    .filter(|&m| p.method_is_static(m))
                    .map(|m| m.index())
                    .collect();
                let i = self.rng.gen_range(0..statics.len());
                let target = statics[i];
                let arity = self.program.formals(MethodId::from_index(target)).len();
                let mut args = Vec::with_capacity(arity);
                for _ in 0..arity {
                    match self.pick_var_of(meth) {
                        Some(v) => args.push(v),
                        None => return self.fallback_alloc(meth),
                    }
                }
                Edit::SCall {
                    meth,
                    target,
                    args,
                    label: self.fresh_name("cs"),
                }
            }
            // virtual call through a local, reusing an existing virtual
            // method's name/arity so dispatch can actually resolve
            60..=69 => {
                let p = &self.program;
                let virtuals: Vec<usize> = p
                    .methods()
                    .filter(|&m| !p.method_is_static(m))
                    .map(|m| m.index())
                    .collect();
                match (self.pick_var_of(meth), virtuals.is_empty()) {
                    (Some(base), false) => {
                        let i = self.rng.gen_range(0..virtuals.len());
                        let callee = MethodId::from_index(virtuals[i]);
                        let name = self.program.method_name(callee).to_owned();
                        let arity = self.program.formals(callee).len();
                        let mut args = Vec::with_capacity(arity);
                        for _ in 0..arity {
                            match self.pick_var_of(meth) {
                                Some(v) => args.push(v),
                                None => return self.fallback_alloc(meth),
                            }
                        }
                        Edit::VCall {
                            meth,
                            base,
                            name,
                            arity,
                            args,
                            label: self.fresh_name("cv"),
                        }
                    }
                    _ => self.fallback_alloc(meth),
                }
            }
            // remove one instruction
            70..=84 => {
                let p = &self.program;
                let bodied: Vec<usize> = p
                    .methods()
                    .filter(|&m| !p.instrs(m).is_empty())
                    .map(|m| m.index())
                    .collect();
                if bodied.is_empty() {
                    self.fallback_alloc(meth)
                } else {
                    let i = self.rng.gen_range(0..bodied.len());
                    let m = bodied[i];
                    let index = self
                        .rng
                        .gen_range(0..self.program.instrs(MethodId::from_index(m)).len());
                    Edit::RemoveInstr { meth: m, index }
                }
            }
            // clear a whole method body
            85..=89 => Edit::ClearMethod { meth },
            // toggle an entry point (roots must be zero-arg statics)
            _ => {
                let p = &self.program;
                let roots: Vec<usize> = p
                    .methods()
                    .filter(|&m| p.method_is_static(m) && p.formals(m).is_empty())
                    .map(|m| m.index())
                    .collect();
                let i = self.rng.gen_range(0..roots.len());
                let m = MethodId::from_index(roots[i]);
                if self.program.entry_points().contains(&m) && self.program.entry_points().len() > 1
                {
                    Edit::RemoveEntry { meth: roots[i] }
                } else {
                    Edit::AddEntry { meth: roots[i] }
                }
            }
        }
    }
}

/// Shrinks a failing edit sequence to a locally-minimal one.
///
/// `fails(steps)` replays the step indices (into the original log, in
/// order) and reports whether the failure still reproduces — typically
/// via [`replay`]/[`materialize`] so dropped steps simply skip. The
/// function returns the indices of a minimal failing subsequence.
///
/// This is classic delta debugging over the step list: drop chunks
/// (halves, then quarters, ...) while the failure persists.
pub fn shrink_steps<F>(total: usize, mut fails: F) -> Vec<usize>
where
    F: FnMut(&[usize]) -> bool,
{
    let mut keep: Vec<usize> = (0..total).collect();
    if !fails(&keep) {
        return keep; // not failing at all; nothing to shrink
    }
    let mut chunk = keep.len().div_ceil(2);
    loop {
        let mut i = 0;
        while i < keep.len() {
            let mut candidate = Vec::with_capacity(keep.len().saturating_sub(chunk));
            candidate.extend_from_slice(&keep[..i]);
            candidate.extend_from_slice(&keep[(i + chunk).min(keep.len())..]);
            if !candidate.is_empty() && fails(&candidate) {
                keep = candidate; // chunk was irrelevant; drop it
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk = chunk.div_ceil(2);
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dacapo_workload;

    #[test]
    fn streams_are_deterministic() {
        let base = dacapo_workload("luindex", 0.1);
        let mut a = EditStream::new(base.clone(), 7);
        let mut b = EditStream::new(base, 7);
        for _ in 0..20 {
            a.next_delta();
            b.next_delta();
            assert_eq!(a.log().last(), b.log().last());
            assert_eq!(a.program().instr_count(), b.program().instr_count());
        }
    }

    #[test]
    fn streams_apply_cleanly_for_many_seeds() {
        for seed in 0..8u64 {
            let mut s = EditStream::new(dacapo_workload("antlr", 0.1), seed);
            for _ in 0..25 {
                s.next_delta();
            }
            assert!(s.program().method_count() > 0);
        }
    }

    #[test]
    fn full_log_replay_reaches_the_stream_state() {
        let base = dacapo_workload("pmd", 0.1);
        let mut s = EditStream::new(base.clone(), 3);
        for _ in 0..15 {
            s.next_delta();
        }
        let replayed = replay(&base, s.log());
        assert_eq!(replayed.instr_count(), s.program().instr_count());
        assert_eq!(replayed.var_count(), s.program().var_count());
        assert_eq!(replayed.heap_count(), s.program().heap_count());
    }

    #[test]
    fn subsequence_replay_skips_dangling_references() {
        let base = dacapo_workload("pmd", 0.1);
        let mut s = EditStream::new(base.clone(), 11);
        for _ in 0..30 {
            s.next_delta();
        }
        // Every suffix/subset replays without panicking, even though
        // dropped steps may orphan later references.
        let log = s.log().to_vec();
        let odd: Vec<Edit> = log.iter().skip(1).step_by(2).cloned().collect();
        let _ = replay(&base, &odd);
        let _ = replay(&base, &log[10..]);
    }

    #[test]
    fn shrinking_finds_a_minimal_failing_subset() {
        // A synthetic failure: any sequence containing steps 3 AND 11.
        let minimal = shrink_steps(20, |steps| steps.contains(&3) && steps.contains(&11));
        assert_eq!(minimal, vec![3, 11]);
    }
}
