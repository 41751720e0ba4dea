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
//! Seeding has no rule bodies of its own. It fires each appended
//! instruction through the kernel's rule function for it
//! ([`Solver::alloc`], [`Solver::assign`], [`Solver::vcall`], …): a
//! reachability rule in each frame of the instruction's method that the
//! old fixpoint reached, a join rule with the full set of each existing
//! key of the variable it joins on. Both come from the method's frame
//! list (`Solver::method_frames`, a prefix of it for the old frames) and
//! the key slots of those frames ([`Solver::keys_of`]), so no apply
//! scans the frames or the interned keys.
//!
//! ## Everything else re-solves
//!
//! A delta that retracts facts (removed instructions, cleared methods,
//! removed entry points) falls back to a from-scratch solve, and so does a
//! delta that can change `Lookup` for existing receivers (a method
//! override: additive in the input, retracting in the derived call graph)
//! and a catch clause added once any `throw` has fired (the new clause can
//! capture exceptions that already escaped, which retracts derived facts).

use std::sync::Arc;

use pta_govern::Termination;
use pta_ir::{Instr, Program, ProgramDelta};

use super::{Solver, StaticEntry, NOT_DEMOTED};
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
        // Only a retained solve gets here, and retention excludes graceful
        // degradation, so no method was ever demoted.
        debug_assert!(!self.config.degrade && self.demoted_sites.is_empty());
        if delta.has_retractions() {
            return ApplyOutcome::Fallback("delta retracts facts");
        }
        if delta.may_change_base_dispatch() {
            return ApplyOutcome::Fallback("delta may override existing dispatch");
        }
        if self.stats.fire_throw > 0 && !delta.added_catches().is_empty() {
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
        if self.method_frames.len() < n_methods {
            self.method_frames.resize_with(n_methods, Vec::new);
            self.demote_ctx.resize(n_methods, NOT_DEMOTED);
        }
    }

    /// Seeds the rule instances an additive delta introduces: new entry
    /// points, and each appended instruction fired through the kernel's
    /// rule function against the facts that already exist — in each
    /// existing frame of its method for the reachability rules, with each
    /// existing key's full set for the join rules. Bodies of
    /// delta-declared methods need no seeding: they are processed
    /// wholesale when first reached.
    fn seed_additive(&mut self, delta: &ProgramDelta) {
        // The old fixpoint's frames and keys. Its worklist is drained, so
        // a frame marked from here on (a new entry point, a new callee) is
        // queued: the worklist processes its whole new body, and it holds
        // no key yet. Likewise, a key minted from here on holds only
        // objects still pending in its delta, which the worklist joins
        // against the new index.
        debug_assert!(self.reach_queue.is_empty() && self.dirty.is_empty());
        let old_frames = self.frames.len() as u32;
        let old_keys = self.keys.len() as u32;
        self.mark_entry_points();
        let (mut keys, mut objs) = (Vec::new(), Vec::new());

        for &(m, instr) in delta.appended_instrs() {
            let var = match instr {
                Instr::Alloc { .. } | Instr::SCall { .. } | Instr::SLoad { .. } => {
                    let frames = &self.method_frames[m.index()];
                    let old = frames.partition_point(|&f| f < old_frames);
                    for i in 0..old {
                        let frame = self.method_frames[m.index()][i];
                        let ctx = self.ctx_of(frame);
                        match instr {
                            Instr::Alloc { var, heap } => self.alloc(frame, ctx, var, heap),
                            Instr::SCall { target, invo } => self.scall(frame, ctx, target, invo),
                            Instr::SLoad { to, field } => self.sload(frame, to, field),
                            _ => unreachable!("a reachability rule"),
                        }
                    }
                    continue;
                }
                Instr::Move { from, .. }
                | Instr::Cast { from, .. }
                | Instr::SStore { from, .. } => from,
                Instr::Load { base, .. }
                | Instr::Store { base, .. }
                | Instr::VCall { base, .. } => base,
                Instr::Throw { var } => var,
            };
            // The existing keys of the joined variable, in key order.
            keys.clear();
            keys.extend(self.keys_of(var.raw()).filter(|&key| key < old_keys));
            keys.sort_unstable();
            for &key in &keys {
                objs.clear();
                self.entries[key as usize].set.extend_into(&mut objs);
                if objs.is_empty() {
                    continue;
                }
                let frame = self.keys[key as usize].1;
                match instr {
                    Instr::Move { to, .. } => self.assign(frame, key, to, None, &objs),
                    Instr::Cast { to, ty, .. } => self.assign(frame, key, to, Some(ty), &objs),
                    Instr::Load { to, field, .. } => self.load(frame, key, to, field, &objs),
                    Instr::Store { field, from, .. } => self.store_on(frame, field, from, &objs),
                    Instr::SStore { field, .. } => self.sstore(key, field, &objs),
                    Instr::Throw { .. } => self.throw(frame, &objs),
                    Instr::VCall { sig, invo, .. } => {
                        let ctx = self.ctx_of(frame);
                        self.vcall(frame, ctx, sig, invo, &objs);
                    }
                    _ => unreachable!("a join rule"),
                }
            }
        }
    }
}
