//! Incremental fixpoint maintenance for the specialized solver.
//!
//! Mounted as a child module of [`super`] (`solver::incremental`) so it can
//! reach the solver's private state; the split is purely textual.
//!
//! ## Additive edits
//!
//! The nine rules of Figure 2 are monotone, so an old fixpoint is a sound
//! *under*-approximation of the new one: applying an additive delta only
//! needs the new rule instances seeded (each appended instruction joined
//! against the facts that already exist) and the ordinary worklist run to
//! quiescence. No derivation bookkeeping is required — this is plain
//! semi-naive resumption.
//!
//! ## Everything else re-solves
//!
//! A delta that retracts facts (removed instructions, cleared methods,
//! removed entry points) falls back to a from-scratch solve, and so does a
//! delta that can change `Lookup` for existing receivers (a method
//! override: additive in the input, retracting in the derived call graph)
//! and a catch clause added while exception facts exist
//! ([`Solver::exc_seen`]).

use std::sync::Arc;

use pta_govern::Termination;
use pta_ir::hash::{FxHashMap, FxHashSet};
use pta_ir::{HeapId, Instr, Program, ProgramDelta, TypeId};

use super::{Reason, Solver, StaticEntry, NOT_DEMOTED};
use crate::context::{CtxId, HCtxId};
use crate::policy::ContextPolicy;

/// Result of [`Solver::apply_delta`].
pub(crate) enum ApplyOutcome {
    /// The fixpoint was maintained in place.
    Done(Termination, ApplyStats),
    /// Incremental maintenance is not applicable; the caller should solve
    /// from scratch. The string names the reason (surfaced in logs/tests).
    Fallback(&'static str),
}

/// Counters describing one successful incremental apply. Surfaced through
/// [`AnalysisSession::last_apply_stats`](crate::session::AnalysisSession::last_apply_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyStats {
    /// Always 0. Kept so that code reading it keeps compiling now that
    /// retracting deltas re-solve instead of clearing an invalidation cone
    /// of `(var, ctx)` keys.
    pub cone_keys: u64,
    /// `VarPointsTo` tuples newly derived by the maintenance run.
    pub maintained_tuples: u64,
}

impl<P: ContextPolicy> Solver<P> {
    /// Maintains the solved fixpoint under `delta`, which must already
    /// have been applied to produce `new_program`
    /// ([`Program::apply_delta`]). On [`ApplyOutcome::Done`] the solver's
    /// state is the exact fixpoint of `new_program` — byte-identical, in
    /// its semantic projections, to a from-scratch solve. On
    /// [`ApplyOutcome::Fallback`] the solver's state is untouched.
    pub(crate) fn apply_delta(
        &mut self,
        new_program: &Arc<Program>,
        delta: &ProgramDelta,
    ) -> ApplyOutcome {
        if !self.config.retain {
            return ApplyOutcome::Fallback("solver was not retained");
        }
        if self.config.degrade || self.has_demotions() {
            return ApplyOutcome::Fallback("graceful degradation in play");
        }
        if delta.has_retractions() {
            return ApplyOutcome::Fallback("delta retracts facts");
        }
        if delta.may_change_base_dispatch() {
            return ApplyOutcome::Fallback("delta may override existing dispatch");
        }
        if self.exc_seen && !delta.added_catches().is_empty() {
            return ApplyOutcome::Fallback("catch added under live exception flow");
        }

        let vpt_before = self.stats.vpt_inserted;
        // Entity arenas are append-only, so existing IDs stay valid and the
        // static index absorbs the delta by linear merge.
        self.program = Arc::clone(new_program);
        self.index.append_additive(new_program, delta);
        self.grow_side_tables();
        self.seed_additive(delta);
        let termination = self.run_loop();
        let apply_stats = ApplyStats {
            cone_keys: 0,
            maintained_tuples: self.stats.vpt_inserted - vpt_before,
        };
        ApplyOutcome::Done(termination, apply_stats)
    }

    /// Grows the per-field and per-method side tables to the current
    /// program's entity counts.
    fn grow_side_tables(&mut self) {
        let n_fields = self.program.field_count();
        if self.statics.len() < n_fields {
            self.statics.resize_with(n_fields, StaticEntry::default);
        }
        let n_methods = self.program.method_count();
        if self.method_fanout.len() < n_methods {
            self.method_fanout.resize(n_methods, 0);
            self.demote_ctx.resize(n_methods, NOT_DEMOTED);
        }
    }

    /// The context value of `frame`.
    fn ctx_of(&self, frame: u32) -> crate::Ctx {
        self.ctxs
            .resolve(CtxId::from_raw(self.reachable.resolve(frame).1))
    }

    /// Snapshot of a key's points-to set.
    fn pts_vec(&self, key: u32) -> Vec<u32> {
        let mut v = Vec::new();
        self.entries[key as usize].set.extend_into(&mut v);
        v
    }

    // ----- additive seeding ---------------------------------------------------

    /// Seeds the rule instances an additive delta introduces:
    /// new entry points, and each appended instruction joined against the
    /// facts that already exist. Bodies of delta-declared methods need no
    /// seeding — they are processed wholesale when first reached.
    fn seed_additive(&mut self, delta: &ProgramDelta) {
        let program = Arc::clone(&self.program);
        let entries: Vec<u32> = program.entry_points().iter().map(|m| m.raw()).collect();
        for m in entries {
            self.mark_reachable(m, CtxId::INITIAL.raw());
        }
        if delta.appended_instrs().is_empty() {
            return;
        }

        // Frames already queued will have their whole (new) body
        // processed; skip reachability-driven seeds for them.
        let queued: FxHashSet<u32> = self.reach_queue.iter().copied().collect();

        // Both prep maps are restricted to the entities the delta actually
        // names: the scans below are over solver-global tables (every
        // frame, every variable key), and an unfiltered build costs more
        // than the rest of a small apply combined.
        let mut need_methods: FxHashSet<u32> = FxHashSet::default();
        let mut need_vars: FxHashSet<u32> = FxHashSet::default();
        for &(m, instr) in delta.appended_instrs() {
            need_methods.insert(m.raw());
            match instr {
                Instr::Move { from, .. } | Instr::Cast { from, .. } => {
                    need_vars.insert(from.raw());
                }
                Instr::Load { base, .. }
                | Instr::Store { base, .. }
                | Instr::VCall { base, .. } => {
                    need_vars.insert(base.raw());
                }
                Instr::SStore { from, .. } => {
                    need_vars.insert(from.raw());
                }
                Instr::Throw { var } => {
                    need_vars.insert(var.raw());
                }
                Instr::Alloc { .. } | Instr::SCall { .. } | Instr::SLoad { .. } => {}
            }
        }
        let mut live_frames: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
        for (frame, &(m, _ctx)) in self.reachable.keys().iter().enumerate() {
            if need_methods.contains(&m) && !queued.contains(&(frame as u32)) {
                live_frames.entry(m).or_default().push(frame as u32);
            }
        }
        let mut keys_of_var: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
        if !need_vars.is_empty() {
            for (k, &(var, _frame)) in self.keys.iter().enumerate() {
                if need_vars.contains(&var) {
                    keys_of_var.entry(var).or_default().push(k as u32);
                }
            }
        }
        let no_frames: Vec<u32> = Vec::new();
        let no_keys: Vec<u32> = Vec::new();

        for &(m, instr) in delta.appended_instrs() {
            let m_raw = m.raw();
            match instr {
                // Reachability-driven rules: fire under every live context
                // of the enclosing method.
                Instr::Alloc { var, heap } => {
                    for &frame in live_frames.get(&m_raw).unwrap_or(&no_frames) {
                        let ctx = self.ctx_of(frame);
                        let elem = self.policy.record(heap, ctx, &program);
                        let hctx = self.hctxs.intern(elem);
                        let obj = self.obj_id(heap.raw(), hctx.raw());
                        let vkey = self.key_id(frame, var.raw());
                        self.insert_batch(vkey, &[obj], Reason::Alloc);
                    }
                }
                Instr::SCall { target, invo } => {
                    for &frame in live_frames.get(&m_raw).unwrap_or(&no_frames) {
                        let ctx = self.ctx_of(frame);
                        let v = self.policy.merge_static(invo, ctx, &program);
                        let cctx = self.ctxs.intern(v).raw();
                        self.add_call_edge(invo, frame, target, cctx);
                    }
                }
                Instr::SLoad { to, field } => {
                    for &frame in live_frames.get(&m_raw).unwrap_or(&no_frames) {
                        let to_key = self.key_id(frame, to.raw());
                        let fld = field.raw() as usize;
                        self.statics[fld].witnesses.push(to_key);
                        let mut vals = Vec::new();
                        self.statics[fld].set.extend_into(&mut vals);
                        if !vals.is_empty() {
                            self.insert_batch(
                                to_key,
                                &vals,
                                Reason::StaticLoad { field: field.raw() },
                            );
                        }
                    }
                }
                // Join rules: fire against every existing key of the
                // variable the rule joins on (new facts flow through the
                // ordinary worklist).
                Instr::Move { to, from } | Instr::Cast { to, from, .. } => {
                    let filter = match instr {
                        Instr::Cast { ty, .. } => Some(ty),
                        _ => None,
                    };
                    for &fk in keys_of_var.get(&from.raw()).unwrap_or(&no_keys) {
                        let frame = self.keys[fk as usize].1;
                        let mut vals = self.pts_vec(fk);
                        if let Some(ty) = filter {
                            let obj_type = &self.obj_type;
                            vals.retain(|&o| {
                                program.is_subtype(TypeId::from_raw(obj_type[o as usize]), ty)
                            });
                        }
                        if vals.is_empty() {
                            continue;
                        }
                        let tk = self.key_id(frame, to.raw());
                        self.insert_batch(tk, &vals, Reason::Assign { src_key: fk });
                    }
                }
                Instr::Load { to, base, field } => {
                    for &bk in keys_of_var.get(&base.raw()).unwrap_or(&no_keys) {
                        let frame = self.keys[bk as usize].1;
                        let bases = self.pts_vec(bk);
                        if bases.is_empty() {
                            continue;
                        }
                        let tk = self.key_id(frame, to.raw());
                        for base_obj in bases {
                            let fe = self.fld_id(base_obj, field.raw());
                            self.fentries[fe as usize].witnesses.push((tk, bk));
                            let mut vals = Vec::new();
                            self.fentries[fe as usize].set.extend_into(&mut vals);
                            if !vals.is_empty() {
                                self.insert_batch(
                                    tk,
                                    &vals,
                                    Reason::Load {
                                        base_key: bk,
                                        base_obj,
                                        field: field.raw(),
                                    },
                                );
                            }
                        }
                    }
                }
                Instr::Store { base, field, from } => {
                    for &bk in keys_of_var.get(&base.raw()).unwrap_or(&no_keys) {
                        let frame = self.keys[bk as usize].1;
                        let Some(fk) = self.key_get(frame, from.raw()) else {
                            continue;
                        };
                        let vals = self.pts_vec(fk);
                        if vals.is_empty() {
                            continue;
                        }
                        for base_obj in self.pts_vec(bk) {
                            self.insert_fld_batch(base_obj, field.raw(), &vals, fk);
                        }
                    }
                }
                Instr::SStore { field, from } => {
                    for &fk in keys_of_var.get(&from.raw()).unwrap_or(&no_keys) {
                        let vals = self.pts_vec(fk);
                        if !vals.is_empty() {
                            self.insert_static_batch(field.raw(), &vals, fk);
                        }
                    }
                }
                Instr::Throw { var } => {
                    for &vk in keys_of_var.get(&var.raw()).unwrap_or(&no_keys) {
                        let frame = self.keys[vk as usize].1;
                        for obj in self.pts_vec(vk) {
                            self.throw_into(frame, obj);
                        }
                    }
                }
                Instr::VCall { base, sig, invo } => {
                    for &bk in keys_of_var.get(&base.raw()).unwrap_or(&no_keys) {
                        let frame = self.keys[bk as usize].1;
                        let objs = self.pts_vec(bk);
                        if objs.is_empty() {
                            continue;
                        }
                        let ctx_val = self.ctx_of(frame);
                        for obj in objs {
                            let heap_ty = TypeId::from_raw(self.obj_type[obj as usize]);
                            let Some(callee) = program.lookup(heap_ty, sig) else {
                                continue;
                            };
                            let (heap, hctx) = self.objs.resolve(obj);
                            let hctx_val = self.hctxs.resolve(HCtxId::from_raw(hctx));
                            let v = self.policy.merge(
                                HeapId::from_raw(heap),
                                hctx_val,
                                invo,
                                ctx_val,
                                &program,
                            );
                            let cctx = self.ctxs.intern(v).raw();
                            let cframe = self.add_call_edge(invo, frame, callee, cctx);
                            if let Some(this) = program.this_var(callee) {
                                let tkey = self.key_id(cframe, this.raw());
                                self.insert_batch(
                                    tkey,
                                    &[obj],
                                    Reason::ThisBinding { invo: invo.raw() },
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
