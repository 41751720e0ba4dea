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
//! ## Retractions (DRed at key granularity)
//!
//! Removing an instruction can invalidate derived tuples, and points-to
//! derivations are mutually recursive, so counting per tuple does not
//! terminate the way it does for stratified rules. Instead we run
//! delete-and-rederive over *whole cells*:
//!
//! 1. **Cone.** Starting from the retracted rule instances, close over the
//!    solver's own join structure to find every cell the removed facts
//!    could have reached: variable keys (`K`), field entries (`F`), static
//!    cells (`S`), call sites (`E`) and reachability pairs (`R`). This
//!    over-approximates the damage (anything outside the cone provably has
//!    a derivation that never used a removed fact).
//! 2. **Churn check.** If the cone covers more than [`CHURN_DENOM`]⁻¹ of
//!    all keys (and is past [`CHURN_MIN_KEYS`]), re-deriving it piecemeal
//!    is slower than a fresh solve — fall back.
//! 3. **Clear.** Empty every cell in the cone, drop load witnesses that
//!    reference suspect keys, tombstone suspect reachability pairs, and
//!    remove the suspect sites' call edges. `InterProcAssign` edges are
//!    the one place exact counting works (their supports — call-graph
//!    edges — are not themselves derived from points-to facts of the same
//!    cycle), so each removed call edge decrements [`Solver::ipa_support`]
//!    and the assign edge dies only at zero.
//! 4. **Re-seed.** Re-fire, from surviving facts only, every rule whose
//!    consequent lands in the cone: reverse moves/loads into suspect keys,
//!    surviving `InterProcAssign` in-edges, surviving stores into suspect
//!    field cells, allocation/static-load rules under still-reachable
//!    contexts, dispatch at suspect sites whose call instruction survived,
//!    and entry-point reachability. Suspect antecedents are skipped — if
//!    they re-derive, the ordinary worklist re-fires their consumers.
//! 5. **Run.** The normal fixpoint loop finishes the job.
//!
//! Exception flow (`Throw`/catch) is recursive across the call graph and
//! not tracked per cell; a retraction while any exception fact exists
//! falls back to a full solve ([`Solver::exc_seen`]). Likewise a delta
//! that can change `Lookup` for existing receivers (a method override) is
//! additive in the input but retracting in the derived call graph, and
//! falls back.

use std::sync::Arc;

use pta_govern::Termination;
use pta_ir::hash::{FxHashMap, FxHashSet};
use pta_ir::{HeapId, Instr, InvoId, MethodId, Program, ProgramDelta, SigId, TypeId, VarId};

use super::{
    Reason, Solver, StaticEntry, StaticIndex, NOT_DEMOTED, ROW_ASSIGN, ROW_LOAD_ON, ROW_SSTORE_OF,
    ROW_STORE_OF,
};
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

/// Counters describing one successful incremental apply: how large the
/// invalidation cone was (all zero for purely additive deltas) and how
/// many `VarPointsTo` tuples the maintenance run re-derived or newly
/// derived. Surfaced through
/// [`AnalysisSession::last_apply_stats`](crate::session::AnalysisSession::last_apply_stats)
/// and exported as telemetry gauges by the daemon.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyStats {
    /// `true` if the delta retracted facts (the DRed path ran).
    pub retraction: bool,
    /// Suspect `(var, ctx)` keys cleared and re-derived.
    pub cone_keys: u64,
    /// Suspect `(object, field)` entries cleared and re-derived.
    pub cone_flds: u64,
    /// Suspect static field cells cleared and re-derived.
    pub cone_statics: u64,
    /// Suspect call sites whose edges were removed and re-derived.
    pub cone_sites: u64,
    /// Suspect `Reachable` pairs tombstoned.
    pub cone_reach: u64,
    /// `VarPointsTo` tuples inserted by the maintenance run (re-seeded
    /// re-derivations plus genuinely new tuples).
    pub maintained_tuples: u64,
}

/// Below this many suspect keys the churn ratio is not consulted at all —
/// tiny cones are always worth maintaining in place.
const CHURN_MIN_KEYS: usize = 256;
/// Fall back to a full solve when the suspect cone covers more than
/// `1/CHURN_DENOM` of all variable keys.
const CHURN_DENOM: usize = 4;

/// One cell in the invalidation cone.
enum Item {
    /// A `(var, ctx)` key.
    K(u32),
    /// A `(base object, field)` entry.
    F(u32),
    /// A static field cell (raw field ID).
    S(u32),
    /// A call site (`cg_sites` ID): all its outgoing edges are suspect.
    E(u32),
    /// A `Reachable(meth, ctx)` pair ID.
    R(u32),
}

/// The closed invalidation cone.
#[derive(Default)]
struct Cone {
    keys: FxHashSet<u32>,
    flds: FxHashSet<u32>,
    statics: FxHashSet<u32>,
    sites: FxHashSet<u32>,
    reach: FxHashSet<u32>,
}

/// What kind of call a (surviving) invocation site makes.
#[derive(Clone, Copy)]
enum CallSpec {
    Static(MethodId),
    Virtual(VarId, SigId),
}

impl<P: ContextPolicy> Solver<P> {
    /// Maintains the solved fixpoint under `delta`, which must already
    /// have been applied to produce `new_program`
    /// ([`Program::apply_delta`]). On [`ApplyOutcome::Done`] the solver's
    /// state is the exact fixpoint of `new_program` — byte-identical, in
    /// its semantic projections, to a from-scratch solve.
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
        if delta.may_change_base_dispatch() {
            return ApplyOutcome::Fallback("delta may override existing dispatch");
        }
        let retracting = delta.has_retractions();
        if self.exc_seen && (retracting || !delta.added_catches().is_empty()) {
            return ApplyOutcome::Fallback("retraction under live exception flow");
        }

        let mut apply_stats = ApplyStats::default();
        let vpt_before = self.stats.vpt_inserted;
        if retracting {
            let cone = self.collect_cone(delta, new_program);
            let total_keys = self.entries.len();
            if cone.keys.len() > CHURN_MIN_KEYS && cone.keys.len() * CHURN_DENOM > total_keys {
                return ApplyOutcome::Fallback("retraction cone exceeds churn threshold");
            }
            apply_stats.retraction = true;
            apply_stats.cone_keys = cone.keys.len() as u64;
            apply_stats.cone_flds = cone.flds.len() as u64;
            apply_stats.cone_statics = cone.statics.len() as u64;
            apply_stats.cone_sites = cone.sites.len() as u64;
            apply_stats.cone_reach = cone.reach.len() as u64;
            // Retraction shrinks sets behind the dirty tracking's back;
            // drop the projection cache and rebuild it at the next
            // result build.
            self.proj_cache = None;
            self.swap_program(new_program);
            self.retract(&cone);
            self.reseed(&cone);
        } else {
            self.swap_program_additive(new_program, delta);
        }
        self.seed_additive(delta);
        let termination = self.run_loop();
        apply_stats.maintained_tuples = self.stats.vpt_inserted - vpt_before;
        ApplyOutcome::Done(termination, apply_stats)
    }

    /// Installs the new program and its static index, growing the
    /// per-field and per-method side tables (all entity arenas are
    /// append-only, so existing IDs stay valid).
    fn swap_program(&mut self, new_program: &Arc<Program>) {
        self.program = Arc::clone(new_program);
        self.index = StaticIndex::build(new_program);
        self.grow_side_tables();
    }

    /// [`Solver::swap_program`] for purely additive deltas: the static
    /// index absorbs the delta by linear merge instead of a full rebuild.
    fn swap_program_additive(&mut self, new_program: &Arc<Program>, delta: &ProgramDelta) {
        self.program = Arc::clone(new_program);
        self.index.append_additive(new_program, delta);
        self.grow_side_tables();
    }

    /// Grows the per-field and per-method side tables to the current
    /// program's entity counts (all arenas are append-only, so existing
    /// IDs stay valid).
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

    /// `true` while `(meth, ctx)` is reachable and not tombstoned.
    fn alive(&self, meth: u32, ctx: u32) -> bool {
        self.reachable
            .get((meth, ctx))
            .is_some_and(|id| !self.reach_dead.contains(&id))
    }

    /// Snapshot of a key's points-to set.
    fn pts_vec(&self, key: u32) -> Vec<u32> {
        let mut v = Vec::new();
        self.entries[key as usize].set.extend_into(&mut v);
        v
    }

    // ----- phase 1: cone collection (old program, old index) ----------------

    /// Closes the suspect cone over the solver's join structure, starting
    /// from the rule instances `delta` retracts. Read-only: runs against
    /// the *pre-edit* program, index and state.
    fn collect_cone(&self, delta: &ProgramDelta, new_program: &Program) -> Cone {
        let program = Arc::clone(&self.program);
        let mut cone = Cone::default();
        let mut work: Vec<Item> = Vec::new();

        // Live contexts per method and existing keys per (method, ctx),
        // both needed to expand instruction-level seeds and `R` items.
        let mut live_ctxs: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
        for (id, &(m, ctx)) in self.reachable.keys().iter().enumerate() {
            if !self.reach_dead.contains(&(id as u32)) {
                live_ctxs.entry(m).or_default().push(ctx);
            }
        }
        let mut keys_of_pair: FxHashMap<(u32, u32), Vec<u32>> = FxHashMap::default();
        for (k, &(var, ctx)) in self.vkeys.keys().iter().enumerate() {
            let m = program.var_method(VarId::from_raw(var)).raw();
            keys_of_pair.entry((m, ctx)).or_default().push(k as u32);
        }

        // Seeds: every retracted instruction, under every live context of
        // its method, marks the cell its rule derives into.
        let mut removed: Vec<(u32, Instr)> = Vec::new();
        for &(m, idx) in delta.removed_instrs() {
            if let Some(&instr) = program.instrs(m).get(idx) {
                removed.push((m.raw(), instr));
            }
        }
        for &m in delta.cleared_methods() {
            for &instr in program.instrs(m) {
                removed.push((m.raw(), instr));
            }
        }
        for (m_raw, instr) in removed {
            let Some(ctxs) = live_ctxs.get(&m_raw) else {
                continue;
            };
            for &ctx in ctxs {
                match instr {
                    Instr::Alloc { var, .. } => {
                        if let Some(k) = self.vkeys.get((var.raw(), ctx)) {
                            work.push(Item::K(k));
                        }
                    }
                    Instr::Move { to, .. }
                    | Instr::Cast { to, .. }
                    | Instr::Load { to, .. }
                    | Instr::SLoad { to, .. } => {
                        if let Some(k) = self.vkeys.get((to.raw(), ctx)) {
                            work.push(Item::K(k));
                        }
                    }
                    Instr::Store { base, field, .. } => {
                        if let Some(bk) = self.vkeys.get((base.raw(), ctx)) {
                            for obj in self.pts_vec(bk) {
                                if let Some(fe) = self.fkeys.get((obj, field.raw())) {
                                    work.push(Item::F(fe));
                                }
                            }
                        }
                    }
                    Instr::SStore { field, .. } => work.push(Item::S(field.raw())),
                    Instr::VCall { invo, .. } | Instr::SCall { invo, .. } => {
                        if let Some(site) = self.cg_sites.get((invo.raw(), ctx)) {
                            work.push(Item::E(site));
                        }
                    }
                    // `exc_seen` is false here (guard), so no exception
                    // fact was ever derived from this throw.
                    Instr::Throw { .. } => {}
                }
            }
        }
        for &m in delta.removed_entry_points() {
            if new_program.entry_points().contains(&m) {
                continue;
            }
            if let Some(rid) = self.reachable.get((m.raw(), CtxId::INITIAL.raw())) {
                if !self.reach_dead.contains(&rid) {
                    work.push(Item::R(rid));
                }
            }
        }

        // Closure: each suspect cell marks every cell a rule could have
        // carried its facts into (mirror images of `process_key`,
        // `process_reachable` and `add_call_edge`).
        while let Some(item) = work.pop() {
            match item {
                Item::K(k) => {
                    if !cone.keys.insert(k) {
                        continue;
                    }
                    let (var, ctx) = self.vkeys.resolve(k);
                    let v = var as usize;
                    let row = self.index.rows[v];
                    let next = self.index.rows[v + 1];
                    for i in row[ROW_ASSIGN] as usize..next[ROW_ASSIGN] as usize {
                        let (to, _filter) = self.index.assigns[i];
                        if let Some(tk) = self.vkeys.get((to.raw(), ctx)) {
                            work.push(Item::K(tk));
                        }
                    }
                    for &tk in &self.ipa_out[k as usize] {
                        work.push(Item::K(tk));
                    }
                    for i in row[ROW_LOAD_ON] as usize..next[ROW_LOAD_ON] as usize {
                        let (to, _field) = self.index.loads_on[i];
                        if let Some(tk) = self.vkeys.get((to.raw(), ctx)) {
                            work.push(Item::K(tk));
                        }
                    }
                    // Stores where `var` is base or source both land in
                    // field entries of the respective base objects.
                    for i in row[super::ROW_STORE_ON] as usize..next[super::ROW_STORE_ON] as usize {
                        let (field, _from) = self.index.stores_on[i];
                        for obj in self.pts_vec(k) {
                            if let Some(fe) = self.fkeys.get((obj, field.raw())) {
                                work.push(Item::F(fe));
                            }
                        }
                    }
                    for i in row[ROW_STORE_OF] as usize..next[ROW_STORE_OF] as usize {
                        let (base, field) = self.index.stores_of[i];
                        if let Some(bk) = self.vkeys.get((base.raw(), ctx)) {
                            for obj in self.pts_vec(bk) {
                                if let Some(fe) = self.fkeys.get((obj, field.raw())) {
                                    work.push(Item::F(fe));
                                }
                            }
                        }
                    }
                    for i in row[ROW_SSTORE_OF] as usize..next[ROW_SSTORE_OF] as usize {
                        work.push(Item::S(self.index.sstores_of[i].raw()));
                    }
                    for i in row[super::ROW_VCALL_ON] as usize..next[super::ROW_VCALL_ON] as usize {
                        let (_sig, invo) = self.index.vcalls_on[i];
                        if let Some(site) = self.cg_sites.get((invo.raw(), ctx)) {
                            work.push(Item::E(site));
                        }
                    }
                }
                Item::F(fe) => {
                    if !cone.flds.insert(fe) {
                        continue;
                    }
                    for &(to_key, _base_key) in &self.fentries[fe as usize].witnesses {
                        work.push(Item::K(to_key));
                    }
                }
                Item::S(s) => {
                    if !cone.statics.insert(s) {
                        continue;
                    }
                    for &to_key in &self.statics[s as usize].witnesses {
                        work.push(Item::K(to_key));
                    }
                }
                Item::E(site) => {
                    if !cone.sites.insert(site) {
                        continue;
                    }
                    let (invo_raw, ctx) = self.cg_sites.resolve(site);
                    let invo = InvoId::from_raw(invo_raw);
                    for &(callee_raw, cctx) in &self.cg_targets[site as usize] {
                        if let Some(rid) = self.reachable.get((callee_raw, cctx)) {
                            if !self.reach_dead.contains(&rid) {
                                work.push(Item::R(rid));
                            }
                        }
                        let callee = MethodId::from_raw(callee_raw);
                        for &formal in program.formals(callee) {
                            if let Some(tk) = self.vkeys.get((formal.raw(), cctx)) {
                                work.push(Item::K(tk));
                            }
                        }
                        if let (Some(_fret), Some(aret)) =
                            (program.formal_return(callee), program.actual_return(invo))
                        {
                            if let Some(tk) = self.vkeys.get((aret.raw(), ctx)) {
                                work.push(Item::K(tk));
                            }
                        }
                        if let Some(this) = program.this_var(callee) {
                            if let Some(tk) = self.vkeys.get((this.raw(), cctx)) {
                                work.push(Item::K(tk));
                            }
                        }
                    }
                }
                Item::R(rid) => {
                    if !cone.reach.insert(rid) {
                        continue;
                    }
                    let (m, ctx) = self.reachable.resolve(rid);
                    if let Some(keys) = keys_of_pair.get(&(m, ctx)) {
                        for &k in keys {
                            work.push(Item::K(k));
                        }
                    }
                    for &instr in program.instrs(MethodId::from_raw(m)) {
                        if let Instr::VCall { invo, .. } | Instr::SCall { invo, .. } = instr {
                            if let Some(site) = self.cg_sites.get((invo.raw(), ctx)) {
                                work.push(Item::E(site));
                            }
                        }
                    }
                }
            }
        }
        cone
    }

    // ----- phase 2: clearing --------------------------------------------------

    /// Empties every cell in the cone and detaches the derived structure
    /// hanging off it (witnesses, call edges, `InterProcAssign` supports,
    /// reachability, the call-graph projections and throw listeners).
    fn retract(&mut self, cone: &Cone) {
        let mut keys: Vec<u32> = cone.keys.iter().copied().collect();
        keys.sort_unstable();
        for &k in &keys {
            let entry = &mut self.entries[k as usize];
            let set = std::mem::take(&mut entry.set);
            entry.delta.clear();
            entry.queued = false;
            self.bitmap_bytes -= set.bitmap_bytes();
        }
        for &fe in &cone.flds {
            let set = std::mem::take(&mut self.fentries[fe as usize].set);
            self.bitmap_bytes -= set.bitmap_bytes();
        }
        for &s in &cone.statics {
            let set = std::mem::take(&mut self.statics[s as usize].set);
            self.bitmap_bytes -= set.bitmap_bytes();
        }
        // Witness hygiene: nothing may reference a suspect key. Surviving
        // lists are sorted + deduped, which also compacts duplicates left
        // by earlier re-seed rounds.
        for entry in &mut self.fentries {
            entry
                .witnesses
                .retain(|&(to, bk)| !cone.keys.contains(&to) && !cone.keys.contains(&bk));
            entry.witnesses.sort_unstable();
            entry.witnesses.dedup();
        }
        for st in &mut self.statics {
            st.witnesses.retain(|to| !cone.keys.contains(to));
            st.witnesses.sort_unstable();
            st.witnesses.dedup();
        }

        // Remove the suspect sites' call edges, un-supporting their
        // parameter/return assign edges (entity IDs are append-only, so
        // the new program resolves old invocations identically).
        let program = Arc::clone(&self.program);
        let mut sites: Vec<u32> = cone.sites.iter().copied().collect();
        sites.sort_unstable();
        for &site in &sites {
            let targets = std::mem::take(&mut self.cg_targets[site as usize]);
            let (invo_raw, ctx) = self.cg_sites.resolve(site);
            let invo = InvoId::from_raw(invo_raw);
            for (callee_raw, cctx) in targets {
                let callee = MethodId::from_raw(callee_raw);
                for (&formal, &actual) in program
                    .formals(callee)
                    .iter()
                    .zip(program.actual_args(invo))
                {
                    self.unsupport_ipa(actual.raw(), ctx, formal.raw(), cctx);
                }
                if let (Some(fret), Some(aret)) =
                    (program.formal_return(callee), program.actual_return(invo))
                {
                    self.unsupport_ipa(fret.raw(), cctx, aret.raw(), ctx);
                }
            }
        }

        // Tombstone suspect reachability pairs (the interner is
        // append-only; `mark_reachable` resurrects).
        let mut rids: Vec<u32> = cone.reach.iter().copied().collect();
        rids.sort_unstable();
        for &rid in &rids {
            if self.reach_dead.insert(rid) {
                let (m, _ctx) = self.reachable.resolve(rid);
                self.method_fanout[m as usize] = self.method_fanout[m as usize].saturating_sub(1);
            }
        }

        // The context-insensitive projection, the edge count and the throw
        // listeners are cheap O(edges) folds of the surviving call graph —
        // rebuild them wholesale instead of maintaining them per edge.
        self.cg_insens.clear();
        self.ctx_cg_edges = 0;
        self.throw_listeners.clear();
        self.throw_listener_set.clear();
        for site in 0..self.cg_targets.len() {
            if self.cg_targets[site].is_empty() {
                continue;
            }
            let (invo_raw, ctx) = self.cg_sites.resolve(site as u32);
            let invo = InvoId::from_raw(invo_raw);
            let caller = program.invo_method(invo).raw();
            for &(callee_raw, cctx) in &self.cg_targets[site] {
                self.ctx_cg_edges += 1;
                self.cg_insens
                    .insert((invo, MethodId::from_raw(callee_raw)));
                if self
                    .throw_listener_set
                    .insert((callee_raw, cctx, caller, ctx))
                {
                    self.throw_listeners
                        .entry((callee_raw, cctx))
                        .or_default()
                        .push((caller, ctx));
                }
            }
        }
        // `throw_pts` is empty (retraction requires `!exc_seen`), so no
        // escape replay is needed.
    }

    /// Decrements the support count of one `InterProcAssign` edge,
    /// removing the edge when its last call-graph support disappears.
    fn unsupport_ipa(&mut self, from: u32, from_ctx: u32, to: u32, to_ctx: u32) {
        let (Some(fk), Some(tk)) = (
            self.vkeys.get((from, from_ctx)),
            self.vkeys.get((to, to_ctx)),
        ) else {
            return;
        };
        if let Some(n) = self.ipa_support.get_mut(&(fk, tk)) {
            *n -= 1;
            if *n == 0 {
                self.ipa_support.remove(&(fk, tk));
                if let Some(pos) = self.ipa_out[fk as usize].iter().position(|&t| t == tk) {
                    self.ipa_out[fk as usize].remove(pos);
                }
            }
        }
    }

    // ----- phase 3: re-seeding (new program, new index) ----------------------

    /// Re-fires, from surviving facts, every rule instance whose
    /// consequent lies in the cone. Rule instances whose antecedents are
    /// themselves suspect are skipped — if those re-derive, the worklist
    /// re-fires their consumers automatically.
    fn reseed(&mut self, cone: &Cone) {
        let program = Arc::clone(&self.program);

        // Entry points re-mark (resurrecting tombstoned pairs).
        let entries: Vec<u32> = program.entry_points().iter().map(|m| m.raw()).collect();
        for m in entries {
            self.mark_reachable(m, CtxId::INITIAL.raw());
        }

        // One scan over the new program: what each surviving invocation
        // does, and where suspect variables get allocations/static loads.
        let suspect_vars: FxHashSet<u32> =
            cone.keys.iter().map(|&k| self.vkeys.resolve(k).0).collect();
        let mut call_specs: FxHashMap<u32, CallSpec> = FxHashMap::default();
        let mut allocs_of: FxHashMap<u32, Vec<(u32, HeapId)>> = FxHashMap::default();
        let mut sloads_of: FxHashMap<u32, Vec<(u32, u32)>> = FxHashMap::default();
        for m in program.methods() {
            for &instr in program.instrs(m) {
                match instr {
                    Instr::VCall { base, sig, invo } => {
                        call_specs.insert(invo.raw(), CallSpec::Virtual(base, sig));
                    }
                    Instr::SCall { target, invo } => {
                        call_specs.insert(invo.raw(), CallSpec::Static(target));
                    }
                    Instr::Alloc { var, heap } if suspect_vars.contains(&var.raw()) => {
                        allocs_of
                            .entry(var.raw())
                            .or_default()
                            .push((m.raw(), heap));
                    }
                    Instr::SLoad { to, field } if suspect_vars.contains(&to.raw()) => {
                        sloads_of
                            .entry(to.raw())
                            .or_default()
                            .push((m.raw(), field.raw()));
                    }
                    _ => {}
                }
            }
        }
        // Reverse move/load tables restricted to suspect targets.
        let mut rev_assign: FxHashMap<u32, Vec<(u32, Option<TypeId>)>> = FxHashMap::default();
        let mut rev_load: FxHashMap<u32, Vec<(u32, u32)>> = FxHashMap::default();
        for from in 0..program.var_count() {
            let row = self.index.rows[from];
            let next = self.index.rows[from + 1];
            for i in row[ROW_ASSIGN] as usize..next[ROW_ASSIGN] as usize {
                let (to, filter) = self.index.assigns[i];
                if suspect_vars.contains(&to.raw()) {
                    rev_assign
                        .entry(to.raw())
                        .or_default()
                        .push((from as u32, filter));
                }
            }
            for i in row[ROW_LOAD_ON] as usize..next[ROW_LOAD_ON] as usize {
                let (to, field) = self.index.loads_on[i];
                if suspect_vars.contains(&to.raw()) {
                    rev_load
                        .entry(to.raw())
                        .or_default()
                        .push((from as u32, field.raw()));
                }
            }
        }

        // Surviving call edges: resurrect tombstoned callee pairs, and
        // re-bind suspect `this` keys by re-running the dispatch rule per
        // receiver object. The context computation must mirror the
        // solver's vcall rule exactly: each receiver binds only under the
        // callee context *it* constructs (`policy.merge` of its own heap
        // context), never under sibling contexts of the same callee —
        // binding every dispatching receiver into every surviving context
        // would smuggle objects across context boundaries.
        for site in 0..self.cg_targets.len() as u32 {
            if self.cg_targets[site as usize].is_empty() {
                continue;
            }
            let (invo_raw, ctx) = self.cg_sites.resolve(site);
            let targets = self.cg_targets[site as usize].clone();
            let mut rebind = false;
            for (callee_raw, cctx) in targets {
                self.mark_reachable(callee_raw, cctx);
                let callee = MethodId::from_raw(callee_raw);
                let Some(this) = program.this_var(callee) else {
                    continue;
                };
                if let Some(tk) = self.vkeys.get((this.raw(), cctx)) {
                    rebind |= cone.keys.contains(&tk);
                }
            }
            if !rebind {
                continue;
            }
            let Some(&CallSpec::Virtual(base, sig)) = call_specs.get(&invo_raw) else {
                continue;
            };
            let Some(rk) = self.vkeys.get((base.raw(), ctx)) else {
                continue;
            };
            let objs = self.pts_vec(rk);
            let invo = InvoId::from_raw(invo_raw);
            let ctx_val = self.ctxs.resolve(CtxId::from_raw(ctx));
            for obj in objs {
                let heap_ty = TypeId::from_raw(self.obj_type[obj as usize]);
                let Some(callee) = program.lookup(heap_ty, sig) else {
                    continue;
                };
                let Some(this) = program.this_var(callee) else {
                    continue;
                };
                let (heap, hctx) = self.objs.resolve(obj);
                let hctx_val = self.hctxs.resolve(HCtxId::from_raw(hctx));
                let cctx = match self.demote_ctx[callee.index()] {
                    NOT_DEMOTED => {
                        let v = self.policy.merge(
                            HeapId::from_raw(heap),
                            hctx_val,
                            invo,
                            ctx_val,
                            &program,
                        );
                        self.ctxs.intern(v).raw()
                    }
                    demoted => demoted,
                };
                // Only refill keys in the cone; surviving keys already
                // hold their bindings.
                if let Some(tk) = self.vkeys.get((this.raw(), cctx)) {
                    if cone.keys.contains(&tk) {
                        self.insert_batch(tk, &[obj], Reason::ThisBinding { invo: invo_raw });
                    }
                }
            }
        }

        // Suspect sites whose call instruction survived: re-derive their
        // edges from the (surviving) receiver set / static target.
        let mut sites: Vec<u32> = cone.sites.iter().copied().collect();
        sites.sort_unstable();
        for &site in &sites {
            let (invo_raw, ctx) = self.cg_sites.resolve(site);
            let Some(&spec) = call_specs.get(&invo_raw) else {
                continue; // the call instruction itself was removed
            };
            let invo = InvoId::from_raw(invo_raw);
            let caller = program.invo_method(invo).raw();
            if !self.alive(caller, ctx) {
                continue;
            }
            match spec {
                CallSpec::Static(target) => {
                    let ctx_val = self.ctxs.resolve(CtxId::from_raw(ctx));
                    let v = self.policy.merge_static(invo, ctx_val, &program);
                    let cctx = self.ctxs.intern(v).raw();
                    self.add_call_edge(invo, ctx, target, cctx);
                }
                CallSpec::Virtual(base, sig) => {
                    let Some(rk) = self.vkeys.get((base.raw(), ctx)) else {
                        continue;
                    };
                    let objs = self.pts_vec(rk);
                    if objs.is_empty() {
                        continue;
                    }
                    let ctx_val = self.ctxs.resolve(CtxId::from_raw(ctx));
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
                        self.add_call_edge(invo, ctx, callee, cctx);
                        if let Some(this) = program.this_var(callee) {
                            let tkey = self.key_id(this.raw(), cctx);
                            self.insert_batch(tkey, &[obj], Reason::ThisBinding { invo: invo_raw });
                        }
                    }
                }
            }
        }

        // Pairs already enqueued for (re-)processing get their whole body
        // fired by `process_reachable`; skip the reachability-driven seeds
        // for them so witnesses are not registered twice.
        let queued: FxHashSet<(u32, u32)> = self.reach_queue.iter().copied().collect();

        // Per suspect key: re-fire allocation, reverse moves/casts,
        // reverse loads and static loads from surviving antecedents.
        let mut keys: Vec<u32> = cone.keys.iter().copied().collect();
        keys.sort_unstable();
        for &k in &keys {
            let (var, ctx) = self.vkeys.resolve(k);
            if let Some(list) = allocs_of.get(&var) {
                for &(m, heap) in list {
                    if self.alive(m, ctx) && !queued.contains(&(m, ctx)) {
                        let ctx_val = self.ctxs.resolve(CtxId::from_raw(ctx));
                        let elem = self.policy.record(heap, ctx_val, &program);
                        let hctx = self.hctxs.intern(elem);
                        let obj = self.obj_id(heap.raw(), hctx.raw());
                        self.insert_batch(k, &[obj], Reason::Alloc);
                    }
                }
            }
            if let Some(list) = rev_assign.get(&var) {
                for &(from, filter) in list {
                    let Some(fk) = self.vkeys.get((from, ctx)) else {
                        continue;
                    };
                    if fk == k {
                        continue;
                    }
                    let mut vals = self.pts_vec(fk);
                    if let Some(ty) = filter {
                        let obj_type = &self.obj_type;
                        vals.retain(|&o| {
                            program.is_subtype(TypeId::from_raw(obj_type[o as usize]), ty)
                        });
                    }
                    if !vals.is_empty() {
                        self.insert_batch(k, &vals, Reason::Assign { src_key: fk });
                    }
                }
            }
            if let Some(list) = rev_load.get(&var) {
                for &(base, field) in list {
                    let Some(bk) = self.vkeys.get((base, ctx)) else {
                        continue;
                    };
                    for base_obj in self.pts_vec(bk) {
                        let fe = self.fld_id(base_obj, field);
                        self.fentries[fe as usize].witnesses.push((k, bk));
                        let mut vals = Vec::new();
                        self.fentries[fe as usize].set.extend_into(&mut vals);
                        if !vals.is_empty() {
                            self.insert_batch(
                                k,
                                &vals,
                                Reason::Load {
                                    base_key: bk,
                                    base_obj,
                                    field,
                                },
                            );
                        }
                    }
                }
            }
            if let Some(list) = sloads_of.get(&var) {
                for &(m, field) in list {
                    if self.alive(m, ctx) && !queued.contains(&(m, ctx)) {
                        self.statics[field as usize].witnesses.push(k);
                        let mut vals = Vec::new();
                        self.statics[field as usize].set.extend_into(&mut vals);
                        if !vals.is_empty() {
                            self.insert_batch(k, &vals, Reason::StaticLoad { field });
                        }
                    }
                }
            }
        }

        // Surviving `InterProcAssign` in-edges push into suspect targets.
        for fk in 0..self.entries.len() as u32 {
            if cone.keys.contains(&fk) || self.entries[fk as usize].set.is_empty() {
                continue;
            }
            let outs: Vec<u32> = self.ipa_out[fk as usize]
                .iter()
                .copied()
                .filter(|t| cone.keys.contains(t))
                .collect();
            if outs.is_empty() {
                continue;
            }
            let vals = self.pts_vec(fk);
            for tk in outs {
                self.insert_batch(tk, &vals, Reason::InterProc { src_key: fk });
            }
        }

        // Surviving stores refill suspect field entries and static cells.
        for k in 0..self.entries.len() as u32 {
            if cone.keys.contains(&k) || self.entries[k as usize].set.is_empty() {
                continue;
            }
            let (var, ctx) = self.vkeys.resolve(k);
            let v = var as usize;
            let row = self.index.rows[v];
            let next = self.index.rows[v + 1];
            let mut vals: Option<Vec<u32>> = None;
            for i in row[ROW_STORE_OF] as usize..next[ROW_STORE_OF] as usize {
                let (base, field) = self.index.stores_of[i];
                let Some(bk) = self.vkeys.get((base.raw(), ctx)) else {
                    continue;
                };
                for base_obj in self.pts_vec(bk) {
                    let Some(fe) = self.fkeys.get((base_obj, field.raw())) else {
                        continue;
                    };
                    if !cone.flds.contains(&fe) {
                        continue;
                    }
                    if vals.is_none() {
                        vals = Some(self.pts_vec(k));
                    }
                    self.insert_fld_batch(base_obj, field.raw(), vals.as_ref().unwrap(), k);
                }
            }
            for i in row[ROW_SSTORE_OF] as usize..next[ROW_SSTORE_OF] as usize {
                let field = self.index.sstores_of[i];
                if !cone.statics.contains(&field.raw()) {
                    continue;
                }
                if vals.is_none() {
                    vals = Some(self.pts_vec(k));
                }
                self.insert_static_batch(field.raw(), vals.as_ref().unwrap(), k);
            }
        }
    }

    // ----- additive seeding ---------------------------------------------------

    /// Seeds the rule instances an (additive part of a) delta introduces:
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

        // Pairs already queued will have their whole (new) body processed;
        // skip reachability-driven seeds for them.
        let queued: FxHashSet<(u32, u32)> = self.reach_queue.iter().copied().collect();

        // Both prep maps are restricted to the entities the delta actually
        // names: the scans below are over solver-global tables (every live
        // (method, ctx) pair, every variable key), and an unfiltered build
        // costs more than the rest of a small apply combined.
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
        let mut live_ctxs: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
        for (id, &(m, ctx)) in self.reachable.keys().iter().enumerate() {
            if need_methods.contains(&m) && !self.reach_dead.contains(&(id as u32)) {
                live_ctxs.entry(m).or_default().push(ctx);
            }
        }
        let mut keys_of_var: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
        if !need_vars.is_empty() {
            for (k, &(var, _ctx)) in self.vkeys.keys().iter().enumerate() {
                if need_vars.contains(&var) {
                    keys_of_var.entry(var).or_default().push(k as u32);
                }
            }
        }
        let no_ctxs: Vec<u32> = Vec::new();
        let no_keys: Vec<u32> = Vec::new();

        for &(m, instr) in delta.appended_instrs() {
            let m_raw = m.raw();
            match instr {
                // Reachability-driven rules: fire under every live context
                // of the enclosing method.
                Instr::Alloc { var, heap } => {
                    let ctxs = live_ctxs.get(&m_raw).unwrap_or(&no_ctxs).clone();
                    for ctx in ctxs {
                        if queued.contains(&(m_raw, ctx)) {
                            continue;
                        }
                        let ctx_val = self.ctxs.resolve(CtxId::from_raw(ctx));
                        let elem = self.policy.record(heap, ctx_val, &program);
                        let hctx = self.hctxs.intern(elem);
                        let obj = self.obj_id(heap.raw(), hctx.raw());
                        let vkey = self.key_id(var.raw(), ctx);
                        self.insert_batch(vkey, &[obj], Reason::Alloc);
                    }
                }
                Instr::SCall { target, invo } => {
                    let ctxs = live_ctxs.get(&m_raw).unwrap_or(&no_ctxs).clone();
                    for ctx in ctxs {
                        if queued.contains(&(m_raw, ctx)) {
                            continue;
                        }
                        let ctx_val = self.ctxs.resolve(CtxId::from_raw(ctx));
                        let v = self.policy.merge_static(invo, ctx_val, &program);
                        let cctx = self.ctxs.intern(v).raw();
                        self.add_call_edge(invo, ctx, target, cctx);
                    }
                }
                Instr::SLoad { to, field } => {
                    let ctxs = live_ctxs.get(&m_raw).unwrap_or(&no_ctxs).clone();
                    for ctx in ctxs {
                        if queued.contains(&(m_raw, ctx)) {
                            continue;
                        }
                        let to_key = self.key_id(to.raw(), ctx);
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
                    let fks = keys_of_var.get(&from.raw()).unwrap_or(&no_keys).clone();
                    for fk in fks {
                        let (_var, ctx) = self.vkeys.resolve(fk);
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
                        let tk = self.key_id(to.raw(), ctx);
                        self.insert_batch(tk, &vals, Reason::Assign { src_key: fk });
                    }
                }
                Instr::Load { to, base, field } => {
                    let bks = keys_of_var.get(&base.raw()).unwrap_or(&no_keys).clone();
                    for bk in bks {
                        let (_var, ctx) = self.vkeys.resolve(bk);
                        let bases = self.pts_vec(bk);
                        if bases.is_empty() {
                            continue;
                        }
                        let tk = self.key_id(to.raw(), ctx);
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
                    let bks = keys_of_var.get(&base.raw()).unwrap_or(&no_keys).clone();
                    for bk in bks {
                        let (_var, ctx) = self.vkeys.resolve(bk);
                        let Some(fk) = self.vkeys.get((from.raw(), ctx)) else {
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
                    let fks = keys_of_var.get(&from.raw()).unwrap_or(&no_keys).clone();
                    for fk in fks {
                        let vals = self.pts_vec(fk);
                        if !vals.is_empty() {
                            self.insert_static_batch(field.raw(), &vals, fk);
                        }
                    }
                }
                Instr::Throw { var } => {
                    let vks = keys_of_var.get(&var.raw()).unwrap_or(&no_keys).clone();
                    for vk in vks {
                        let (_var, ctx) = self.vkeys.resolve(vk);
                        for obj in self.pts_vec(vk) {
                            self.handle_incoming_exception(m_raw, ctx, obj);
                        }
                    }
                }
                Instr::VCall { base, sig, invo } => {
                    let bks = keys_of_var.get(&base.raw()).unwrap_or(&no_keys).clone();
                    for bk in bks {
                        let (_var, ctx) = self.vkeys.resolve(bk);
                        let objs = self.pts_vec(bk);
                        if objs.is_empty() {
                            continue;
                        }
                        let ctx_val = self.ctxs.resolve(CtxId::from_raw(ctx));
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
                            self.add_call_edge(invo, ctx, callee, cctx);
                            if let Some(this) = program.this_var(callee) {
                                let tkey = self.key_id(this.raw(), cctx);
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
