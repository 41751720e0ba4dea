//! The specialized semi-naive solver for the paper's nine rules (Figure 2).
//!
//! This is the performance-oriented implementation — the analogue of the
//! compiled, indexed LogicBlox program Doop generates. It is an explicit
//! worklist algorithm whose indices correspond one-to-one to the joins in
//! Figure 2:
//!
//! | Figure 2 rule | here |
//! |---|---|
//! | `InterProcAssign <- CallGraph, FormalArg, ActualArg` | `Solver::add_call_edge` installs parameter edges |
//! | `InterProcAssign <- CallGraph, FormalReturn, ActualReturn` | `Solver::add_call_edge` installs the return edge |
//! | `VarPointsTo <- Reachable, Alloc` (+ `Record`) | `Solver::alloc` |
//! | `VarPointsTo <- Move, VarPointsTo` | `Solver::assign` (casts are filtered moves) |
//! | `VarPointsTo <- InterProcAssign, VarPointsTo` | inter-procedural edges in `Solver::process_key` |
//! | `VarPointsTo <- Load, VarPointsTo, FldPointsTo` | `Solver::load` registers witnesses, `Solver::insert_fld_batch` wakes them |
//! | `FldPointsTo <- Store, VarPointsTo, VarPointsTo` | `Solver::store_on` (base side), `Solver::store_of` (source side) |
//! | virtual-call rule (+ `Merge`) | `Solver::vcall` |
//! | static-call rule (+ `MergeStatic`) | `Solver::scall` |
//!
//! Static loads and stores (`Solver::sload`, `Solver::sstore`) and
//! exceptions (`Solver::throw`) extend the table. `Solver::process_reachable`
//! fires a new frame's reachability rules and `Solver::process_key` a
//! key's join rules, both through these functions; an additive apply
//! seeds through them too (module `incremental`).
//!
//! ## Hot-path representation
//!
//! Facts are stored *dense*, not hashed:
//!
//! - every `(heap, heap-context)` pair is interned once to a dense **object
//!   ID** (with its dynamic type cached), so a points-to element is a
//!   single `u32`;
//! - every `(variable, context)` pair is interned to a dense **key ID**
//!   whose [`PtsSet`] holds its objects — the inner "is this tuple new?"
//!   check is a key-local binary search or bit test instead of a global
//!   5-tuple hash probe, and iterating a variable's points-to set is a
//!   linear scan;
//! - the key IDs and call sites of a method under a context live in
//!   slots of its **frame** (its `Reachable` fact), so finding one is an
//!   array read;
//! - each method lists its frames (`Solver::method_frames`), the one
//!   reverse index: a variable's keys and a method's context fan-out are
//!   read through it, and the call graph from the frames' call-site
//!   slots, so no hash set or counter keeps a second copy of them;
//! - the static input relations live in CSR-style per-variable tables
//!   (`StaticIndex`), one flat allocation per relation.
//!
//! ## Batched semi-naive evaluation
//!
//! The worklist carries *keys with pending deltas*, not individual tuples:
//! `process_key` drains a key's whole delta batch and fires each of
//! Figure 2's joins once per `(edge, batch)` instead of once per tuple, so
//! per-join overhead (index lookup, target-set location) is amortized over
//! the batch. Inserts are idempotent and every new tuple eventually gets
//! its own delta processing, which is precisely semi-naive evaluation with
//! the rule set unrolled.
//!
//! Always-on [`SolverStats`] counters record rule firings, dedup traffic
//! and worklist shape; they are plain `u64` increments and are surfaced
//! through [`PointsToResult::solver_stats`].

use std::collections::VecDeque;
use std::sync::Arc;

use pta_govern::{Budget, BudgetMeter, CancelToken, Termination};
use pta_ir::hash::{FxHashMap, FxHashSet};
use pta_ir::{
    FieldId, HeapId, Instr, InvoId, MethodId, Program, ProgramDelta, SigId, TypeId, VarId,
};

use crate::context::{Ctx, CtxId, CtxInterner, DenseMap, HCtxId, HCtxInterner};
use crate::fault::FaultPlan;
use crate::policy::ContextPolicy;
use crate::project::{self, Csr, FieldView, Union};
use crate::pts::PtsSet;
use crate::results::{
    hot_vars, CtxVarPointsTo, DemotedSite, Derivation, PointsToResult, SolverStats,
};

/// Solver configuration. The default is an unlimited, uninstrumented
/// solve.
#[derive(Debug, Clone, Default)]
pub struct SolverConfig {
    /// Retain the full context-sensitive tuple set in the result (memory
    /// proportional to the sensitive var-points-to metric). Off by default.
    pub keep_tuples: bool,
    /// Record one derivation per tuple so `PointsToResult::explain` can
    /// reconstruct why a variable points to an object. Off by default
    /// (costs one map entry per tuple).
    pub track_provenance: bool,
    /// Resource limits checked cooperatively once per fixpoint step.
    /// Unlimited by default (the governance checks are skipped entirely).
    pub budget: Budget,
    /// On budget exhaustion, demote high-fan-out methods to the policy's
    /// context-insensitive fallback and keep going (coarser but complete
    /// and sound) instead of returning a partial result. Off by default.
    pub degrade: bool,
    /// Cooperative cancellation (ctrl-c, bench cell deadlines). A
    /// cancelled run returns a partial result tagged
    /// [`Termination::DeadlineExceeded`]; cancellation is never degraded
    /// away.
    pub cancel: Option<CancelToken>,
    /// Deterministic fault injection for testing the exhaustion paths
    /// (see [`crate::fault`]). `None` in production.
    pub fault: Option<FaultPlan>,
    /// Span/event recorder (see [`pta_obs::Trace`]). Disabled by default —
    /// a disabled handle is a compiled-in no-op on every hot path.
    pub trace: pta_obs::Trace,
    /// Collect a rule-level [`pta_obs::Profile`] (per-rule fires, derived
    /// tuples, self-time ns, the fixpoint span; hottest variables) into
    /// the result. Off by default; enabling it adds two clock reads per
    /// rule batch.
    pub profile: bool,
}

/// The rules in stable profile order — the paper's nine Figure 2 rule
/// groups plus the exception extension — each with the [`SolverStats`]
/// counters whose sum is its `fires` in profiles and trace rule spans,
/// which so agree with `--stats` and `pta_solver_*_total` by construction.
pub const RULES: [(&str, &[&str]); 10] = [
    ("alloc", &["fire_alloc"]),
    ("move", &["fire_assign"]),
    ("interproc", &["fire_interproc"]),
    ("load", &["fire_load"]),
    ("store", &["fire_store"]),
    ("sload", &["fire_static_load"]),
    ("sstore", &["fire_static_store"]),
    ("vcall", &["fire_vcall_dispatch"]),
    ("scall", &["fire_scall"]),
    ("exception", &["fire_throw", "fire_caught"]),
];
const R_ALLOC: usize = 0;
const R_MOVE: usize = 1;
const R_INTERPROC: usize = 2;
const R_LOAD: usize = 3;
const R_STORE: usize = 4;
const R_SLOAD: usize = 5;
const R_SSTORE: usize = 6;
const R_VCALL: usize = 7;
const R_SCALL: usize = 8;
const R_EXC: usize = 9;

/// Per-rule fires of `stats`, in [`RULES`] order.
fn rule_fires(stats: &SolverStats) -> [u64; RULES.len()] {
    let fields = stats.fields();
    let get = |c: &&str| fields.iter().find(|f| f.0 == *c).expect("a stats field").1;
    RULES.map(|(_, counters)| counters.iter().map(get).sum())
}

/// The profiling-only per-rule accumulators (fixed arrays, allocated once
/// behind the `profile`/`trace` opt-in — `None` keeps the hot loop
/// allocation-free and clock-free). Fires are not among them: they are
/// always counted, in [`SolverStats`].
///
/// Rule time is self time: a rule timed inside another (the interproc
/// propagation of an edge a call rule installs) is charged to the inner
/// rule only, so the rules' ns add up to at most the solve span.
#[derive(Default)]
struct RuleProf {
    derived: [u64; RULES.len()],
    ns: [u64; RULES.len()],
    set_promotions: u64,
    /// Wall time of the fixpoint runs, in ns.
    solve_ns: u64,
    /// The rules being timed, innermost last.
    running: Vec<usize>,
    /// When the innermost running rule last started or resumed.
    since: Option<std::time::Instant>,
}

impl RuleProf {
    /// Charges the time since the last switch to the innermost running
    /// rule and restarts the clock.
    fn switch(&mut self) {
        let now = std::time::Instant::now();
        if let (Some(&rule), Some(since)) = (self.running.last(), self.since) {
            self.ns[rule] += now.duration_since(since).as_nanos() as u64;
        }
        self.since = Some(now);
    }

    /// Converts the accumulators into the shared profile type, attaching
    /// the fires from `stats` and the hottest variables (computed by the
    /// caller).
    fn into_profile(self, stats: &SolverStats, hot_vars: Vec<pta_obs::HotVar>) -> pta_obs::Profile {
        let fires = rule_fires(stats);
        pta_obs::Profile {
            rules: RULES
                .iter()
                .enumerate()
                .map(|(i, &(name, _))| pta_obs::RuleStat {
                    name: name.to_owned(),
                    fires: fires[i],
                    derived: self.derived[i],
                    ns: self.ns[i],
                })
                .collect(),
            hot_vars,
            set_promotions: self.set_promotions,
            solve_ns: self.solve_ns,
        }
    }
}

/// Sentinel in `Solver::demote_ctx` for a method that is not demoted.
const NOT_DEMOTED: u32 = u32::MAX;

/// Degradation watermark used when `SolverConfig::degrade` is set but the
/// budget does not name one.
const DEFAULT_WATERMARK: u32 = 16;

/// The sequential dense back end behind [`crate::AnalysisSession`].
pub(crate) fn solve_sequential<P: ContextPolicy + Clone>(
    program: &Arc<Program>,
    policy: &P,
    config: SolverConfig,
) -> PointsToResult {
    Solver::new(Arc::clone(program), policy.clone(), config).solve()
}

/// Incremental fixpoint maintenance (additive delta application) — a child
/// module so it can reach the solver's private state without widening any
/// visibility.
#[path = "incremental.rs"]
pub(crate) mod incremental;

/// Builds table `t` of the static index from unsorted `(var, item)`
/// pairs into zeroed `rows`: a flat, sorted, deduplicated item array plus
/// per-variable segment offsets in column `t`. One global sort orders every
/// per-var segment as a side effect; pairs collected in variable order
/// arrive sorted and skip it.
fn build_table<T: Copy + Ord>(rows: &mut [[u32; 7]], t: usize, mut pairs: Vec<(u32, T)>) -> Vec<T> {
    if !pairs.is_sorted() {
        pairs.sort_unstable();
    }
    pairs.dedup();
    for &(v, _) in &pairs {
        rows[v as usize + 1][t] += 1;
    }
    for v in 1..rows.len() {
        rows[v][t] += rows[v - 1][t];
    }
    pairs.into_iter().map(|(_, item)| item).collect()
}

/// Row layout of [`StaticIndex::rows`]: segment starts of the six item
/// tables, plus the thrown flag in the last slot.
const ROW_ASSIGN: usize = 0;
const ROW_LOAD_ON: usize = 1;
const ROW_STORE_ON: usize = 2;
const ROW_STORE_OF: usize = 3;
const ROW_SSTORE_OF: usize = 4;
const ROW_VCALL_ON: usize = 5;
const ROW_THROWN: usize = 6;

/// Precomputed, context-independent instruction indices keyed by variable.
/// These are the static input relations of Figure 1, organized by the
/// variable each rule joins on.
///
/// All six per-variable segment-offset arrays are interleaved into one
/// `rows` array so that `process_key` touches one or two cache lines per
/// variable instead of twelve scattered ones: `rows[v][t]..rows[v + 1][t]`
/// is variable `v`'s segment in item table `t`.
struct StaticIndex {
    rows: Vec<[u32; 7]>,
    /// `from -> [(to, cast filter)]` for `Move` and `Cast`.
    assigns: Vec<(VarId, Option<TypeId>)>,
    /// `base -> [(to, field)]` for `Load`.
    loads_on: Vec<(VarId, FieldId)>,
    /// `base -> [(field, from)]` for `Store`.
    stores_on: Vec<(FieldId, VarId)>,
    /// `from -> [(base, field)]` for `Store`.
    stores_of: Vec<(VarId, FieldId)>,
    /// `from -> [field]` for `SStore` (static-field writes).
    sstores_of: Vec<FieldId>,
    /// `base -> [(sig, invo)]` for `VCall`.
    vcalls_on: Vec<(SigId, InvoId)>,
    /// Variable -> its index among its method's variables: the offset of
    /// its key slot in every frame of the method.
    var_slot: Vec<u32>,
    /// Invocation -> its index among its method's invocations: the offset
    /// of its call-site slot in every frame of the method.
    invo_slot: Vec<u32>,
    /// Method -> `(variables, invocations)` it declares: the lengths of
    /// the two slot ranges of each of its frames.
    frame_shape: Vec<(u32, u32)>,
}

/// The `(var, item)` pairs of the six [`StaticIndex`] tables, each under
/// the variable its rule joins on, plus the thrown variables.
#[derive(Default)]
struct IndexPairs {
    assigns: Vec<(u32, (VarId, Option<TypeId>))>,
    loads_on: Vec<(u32, (VarId, FieldId))>,
    stores_on: Vec<(u32, (FieldId, VarId))>,
    stores_of: Vec<(u32, (VarId, FieldId))>,
    sstores_of: Vec<(u32, FieldId)>,
    vcalls_on: Vec<(u32, (SigId, InvoId))>,
    thrown: Vec<VarId>,
}

impl IndexPairs {
    /// The pairs of `instrs`, in instruction order.
    fn collect(instrs: impl Iterator<Item = Instr>) -> IndexPairs {
        let mut p = IndexPairs::default();
        for instr in instrs {
            match instr {
                Instr::Move { to, from } => p.assigns.push((from.raw(), (to, None))),
                Instr::Cast { to, from, ty } => p.assigns.push((from.raw(), (to, Some(ty)))),
                Instr::Load { to, base, field } => p.loads_on.push((base.raw(), (to, field))),
                Instr::Store { base, field, from } => {
                    p.stores_on.push((base.raw(), (field, from)));
                    p.stores_of.push((from.raw(), (base, field)));
                }
                Instr::VCall { base, sig, invo } => p.vcalls_on.push((base.raw(), (sig, invo))),
                Instr::SStore { field, from } => p.sstores_of.push((from.raw(), field)),
                Instr::Throw { var } => p.thrown.push(var),
                // These fire on reachability, not on a variable's facts.
                Instr::Alloc { .. } | Instr::SCall { .. } | Instr::SLoad { .. } => {}
            }
        }
        p
    }
}

impl StaticIndex {
    fn build(program: &Program) -> StaticIndex {
        let instrs = program
            .methods()
            .flat_map(|m| program.instrs(m).iter().copied());
        let pairs = IndexPairs::collect(instrs);
        let mut rows = vec![[0u32; 7]; program.var_count() + 1];
        let assigns = build_table(&mut rows, ROW_ASSIGN, pairs.assigns);
        let loads_on = build_table(&mut rows, ROW_LOAD_ON, pairs.loads_on);
        let stores_on = build_table(&mut rows, ROW_STORE_ON, pairs.stores_on);
        let stores_of = build_table(&mut rows, ROW_STORE_OF, pairs.stores_of);
        let sstores_of = build_table(&mut rows, ROW_SSTORE_OF, pairs.sstores_of);
        let vcalls_on = build_table(&mut rows, ROW_VCALL_ON, pairs.vcalls_on);
        for v in pairs.thrown {
            rows[v.index()][ROW_THROWN] = 1;
        }
        let mut index = StaticIndex {
            rows,
            assigns,
            loads_on,
            stores_on,
            stores_of,
            sstores_of,
            vcalls_on,
            var_slot: Vec::new(),
            invo_slot: Vec::new(),
            frame_shape: Vec::new(),
        };
        index.number_locals(program);
        index
    }

    /// Numbers the variables and invocations the slot tables do not cover
    /// yet (all of them on a fresh index, the delta's on an additive
    /// apply) within their methods, in ID order.
    fn number_locals(&mut self, program: &Program) {
        self.frame_shape.resize(program.method_count(), (0, 0));
        for v in self.var_slot.len()..program.var_count() {
            let m = program.var_method(VarId::from_index(v)).index();
            self.var_slot.push(self.frame_shape[m].0);
            self.frame_shape[m].0 += 1;
        }
        for i in self.invo_slot.len()..program.invo_count() {
            let m = program.invo_method(InvoId::from_index(i)).index();
            self.invo_slot.push(self.frame_shape[m].1);
            self.frame_shape[m].1 += 1;
        }
    }

    /// Extends the index with a purely additive delta's instructions —
    /// the base-method appends plus the bodies of methods the delta
    /// declares. Each CSR table with new pairs is spliced: the variables
    /// they name are re-merged and every other segment is copied in bulk,
    /// so the cost is one pass over the index instead of a re-scan and
    /// re-sort of every instruction in the program. Retracting deltas
    /// never get here: they re-solve, building a fresh index.
    fn append_additive(&mut self, program: &Program, delta: &ProgramDelta) {
        let new_method_instrs = (delta.base_method_count()..program.method_count())
            .flat_map(|i| program.instrs(MethodId::from_index(i)).iter().copied());
        let appended = delta.appended_instrs().iter().map(|&(_, i)| i);
        let pairs = IndexPairs::collect(appended.chain(new_method_instrs));

        // New variables get empty segments (the sentinel row's starts,
        // which carries no thrown flag); then each table with new pairs is
        // spliced.
        let sentinel = *self.rows.last().expect("the sentinel row");
        self.rows.resize(program.var_count() + 1, sentinel);
        for v in pairs.thrown {
            self.rows[v.index()][ROW_THROWN] = 1;
        }
        let rows = &mut self.rows;
        splice_table(rows, ROW_ASSIGN, &mut self.assigns, pairs.assigns);
        splice_table(rows, ROW_LOAD_ON, &mut self.loads_on, pairs.loads_on);
        splice_table(rows, ROW_STORE_ON, &mut self.stores_on, pairs.stores_on);
        splice_table(rows, ROW_STORE_OF, &mut self.stores_of, pairs.stores_of);
        splice_table(rows, ROW_SSTORE_OF, &mut self.sstores_of, pairs.sstores_of);
        splice_table(rows, ROW_VCALL_ON, &mut self.vcalls_on, pairs.vcalls_on);
        self.number_locals(program);
    }
}

/// Merges the unsorted `new` pairs into table `t` of the static index:
/// the variables they name are re-merged (sorted, deduplicated like
/// [`build_table`]) and the segments between them are copied in bulk.
fn splice_table<T: Copy + Ord>(
    rows: &mut [[u32; 7]],
    t: usize,
    items: &mut Vec<T>,
    mut new: Vec<(u32, T)>,
) {
    if new.is_empty() {
        return;
    }
    new.sort_unstable();
    let mut dirty: Vec<u32> = new.iter().map(|&(v, _)| v).collect();
    dirty.dedup();
    let starts = rows.iter().map(|row| row[t]).collect();
    let old = Csr::from_parts(starts, std::mem::take(items));
    let mut rest = new.as_slice();
    let table = old.splice(rows.len() - 1, &dirty, |v, seg, out| {
        let (run, tail) = rest.split_at(rest.partition_point(|&(w, _)| w as usize <= v));
        let mut merged = seg.to_vec();
        merged.extend(run.iter().map(|&(_, item)| item));
        merged.sort_unstable();
        merged.dedup();
        out.extend(merged);
        rest = tail;
    });
    let (starts, table) = table.into_parts();
    for (row, start) in rows.iter_mut().zip(starts) {
        row[t] = start;
    }
    *items = table;
}

/// How a `VarPointsTo` tuple was first derived (recorded only under
/// `SolverConfig::track_provenance`). Mirrors `results::Derivation` with
/// dense solver IDs; the pointed-to object is implicit (it is the tuple's
/// own object).
#[derive(Debug, Clone, Copy)]
enum Reason {
    /// The allocation rule.
    Alloc,
    /// A `Move`/`Cast`; the source holds the same object under `src_key`.
    Assign { src_key: u32 },
    /// An `InterProcAssign` edge; same object under `src_key`.
    InterProc { src_key: u32 },
    /// A `Load` through `base_obj`'s `field`, reached via `base_key`.
    Load {
        base_key: u32,
        base_obj: u32,
        field: u32,
    },
    /// The receiver (`this`) binding at a virtual call site.
    ThisBinding { invo: u32 },
    /// A static-field load.
    StaticLoad { field: u32 },
    /// Bound by a catch clause.
    Caught,
}

/// Per-(var, ctx) points-to state: the full set plus the pending delta.
#[derive(Default)]
struct VarEntry {
    set: PtsSet,
    /// `slot + 1` of the objects inserted since this key was last
    /// processed, a slot of `Solver::deltas`; 0 while there are none. A key
    /// sits in the dirty queue exactly while it holds a slot.
    pending: u32,
}

/// Capacity up to which a drained delta buffer goes back to the pool; a
/// longer one is dropped, so a few large batches do not pin their
/// buffers for the rest of the solve.
const DELTA_KEEP: usize = 64;

/// Per-(base object, field) state: the field's points-to set plus the load
/// destinations waiting for new facts (`(to_key, base_key)`; the base key
/// is kept for provenance).
#[derive(Default)]
struct FldEntry {
    set: PtsSet,
    witnesses: Vec<(u32, u32)>,
}

/// Per static field: the global cell plus pending load destinations.
#[derive(Default)]
struct StaticEntry {
    set: PtsSet,
    witnesses: Vec<u32>,
}

/// Where a frame's slots live in `Solver::slots`: `nvars` key slots from
/// `base`, then `ninvos` call-site slots. A slot holds `id + 1`, or 0
/// while its key or site is not interned.
#[derive(Clone, Copy)]
struct Frame {
    base: u32,
    nvars: u32,
    ninvos: u32,
}

/// `ThrowPointsTo` of one frame, kept from its first escape on.
#[derive(Default)]
struct Escapes {
    /// The exception objects escaping the frame.
    objs: PtsSet,
    /// The frame's distinct callers (the members of its caller list).
    callers: FxHashSet<u32>,
}

pub(crate) struct Solver<P: ContextPolicy> {
    program: Arc<Program>,
    policy: P,
    config: SolverConfig,
    index: StaticIndex,
    ctxs: CtxInterner,
    hctxs: HCtxInterner,

    /// `(heap, hctx) -> object ID`.
    objs: DenseMap<(u32, u32)>,
    /// Object ID -> raw dynamic type (cached `heap_type`).
    obj_type: Vec<u32>,
    /// Key ID -> `(var, frame)`. A `VarPointsTo(var, ctx)` key belongs to
    /// the frame `(method of var, ctx)`, where it is interned in a slot.
    keys: Vec<(u32, u32)>,
    /// Key ID -> points-to state.
    entries: Vec<VarEntry>,
    /// Pending deltas of the queued keys, by slot. A drained buffer stays
    /// in its slot for reuse (see [`DELTA_KEEP`]).
    deltas: Vec<Vec<u32>>,
    /// Slots of `deltas` no queued key holds.
    free_deltas: Vec<u32>,
    /// Key ID -> `InterProcAssign` successor keys. Deduplication scans the
    /// list directly: per-key fan-out is small (one entry per distinct
    /// callee binding of the variable), so a linear probe beats a global
    /// edge hash set.
    ipa_out: Vec<Vec<u32>>,
    /// `(base object, field) -> field entry ID`.
    fkeys: DenseMap<(u32, u32)>,
    fentries: Vec<FldEntry>,
    /// Static-field cells, indexed by raw field ID.
    statics: Vec<StaticEntry>,

    /// `CallGraph(invo, callerCtx, meth, calleeCtx)`: site ID -> callee
    /// frames. An `(invo, callerCtx)` site is interned in a slot of the
    /// caller's frame; its distinct targets are a short list (virtual
    /// sites are overwhelmingly monomorphic), so edge dedup is a linear
    /// scan instead of a 4-tuple hash probe.
    cg_targets: Vec<Vec<u32>>,
    /// `Reachable(meth, ctx)`: the frame interner. A frame is the
    /// `(method, context)` record that owns the method's keys and call
    /// sites under that context.
    reachable: DenseMap<(u32, u32)>,
    /// Frame ID -> its slot ranges.
    frames: Vec<Frame>,
    /// Method -> its frames, in frame-ID order: the solver's one reverse
    /// index. Through their key slots it answers which keys a variable
    /// has, so seeding, projection, demotion and the context fan-out all
    /// read it.
    method_frames: Vec<Vec<u32>>,
    /// Key and call-site slots of every frame (see [`Frame`]).
    slots: Vec<u32>,
    /// Frame ID -> the caller frames of its call edges, in registration
    /// order: the frames an escaping exception propagates to. Append-only
    /// with repeats until the frame first throws, distinct from then on.
    callers: Vec<Vec<u32>>,

    /// Keys with non-empty deltas, FIFO.
    dirty: VecDeque<u32>,
    /// Newly reachable frames, FIFO.
    reach_queue: VecDeque<u32>,

    /// Frame ID -> exceptions escaping it, for frames that ever threw.
    throws: FxHashMap<u32, Escapes>,

    /// First derivation of each `(key, object)` tuple (provenance mode).
    provenance: FxHashMap<(u32, u32), Reason>,
    /// `(field entry, value object) -> source key` of the store that first
    /// populated it (provenance mode).
    fld_provenance: FxHashMap<(u32, u32), u32>,
    /// `(static field, value object) -> source key` (provenance mode).
    static_fld_provenance: FxHashMap<(u32, u32), u32>,

    /// Scratch buffers (taken/restored around batch joins so the hot path
    /// never allocates). `buf` serves the `process_key` joins, `buf2` the
    /// field-insert paths nested inside them, `ipa_buf` edge installation.
    buf: Vec<u32>,
    buf2: Vec<u32>,
    ipa_buf: Vec<u32>,

    /// Bytes held by the bitmap word arrays of every var, field and
    /// static points-to set: the deterministic set-memory term of
    /// [`Solver::mem_estimate`].
    bitmap_bytes: u64,

    stats: SolverStats,

    /// Per-rule profile accumulators; `None` unless profiling or tracing
    /// was requested (the hot loop then skips all clock reads).
    prof: Option<Box<RuleProf>>,
    /// Recorder scope for this solve (tid 0). A no-op when the trace is
    /// disabled.
    ts: pta_obs::TraceScope,

    // ----- resource governance ---------------------------------------------
    /// Running budget checker (strided wall-clock reads).
    meter: BudgetMeter,
    /// `true` when any budget limit, cancel token or fault plan is set;
    /// ungoverned runs skip every per-step governance check.
    governed: bool,
    /// Fixpoint steps executed (worklist pops).
    steps: u64,
    /// Current degradation watermark (halved after each degrade round).
    watermark: u32,
    /// Whether the one-time 10% deadline grace window has been spent.
    grace_used: bool,
    /// Per-method demoted context ID, or [`NOT_DEMOTED`].
    demote_ctx: Vec<u32>,
    /// Demotion log, in demotion order (sorted for the result).
    demoted_sites: Vec<DemotedSite>,

    /// Cached context-insensitive projections, carried across retained
    /// incremental applies so [`Solver::build_result`] only recomputes
    /// the variables that actually changed. Built on the first retained
    /// build and patched additively afterwards (incremental applies only
    /// ever grow sets).
    proj_cache: Option<Box<ProjCache>>,
}

/// See [`Solver::proj_cache`].
struct ProjCache {
    /// Insens variable points-to as of the last build; each build
    /// re-derives the dirty variables and splices them in.
    var_points_to: Csr<HeapId>,
    /// Insens call targets as of the last build, patched from `cg_new`.
    call_targets: Csr<MethodId>,
    /// Insens field view as of the last build; each build re-derives the
    /// dirty base heaps and splices them in.
    field_points_to: FieldView,
    /// Reverse index: base heap -> its field entry IDs, ordered by field
    /// (new ones pushed by [`Solver::fld_id`]).
    heap_fes: RevIndex,
    /// Variables whose context-sensitive sets grew since the last build.
    dirty_vars: FxHashSet<u32>,
    /// Base heaps whose field cells grew since the last build.
    dirty_bases: FxHashSet<u32>,
    /// The `(invo, callee)` of each context-sensitive call-graph edge
    /// inserted since the last build, repeats included.
    cg_new: Vec<(InvoId, MethodId)>,
}

/// The base heap -> field entries index of [`ProjCache`]: `base` holds
/// the elements the first retained build grouped by row; elements minted
/// later wait in `new` until they outgrow a 32nd of `base` and are
/// spliced in. A build reads only its dirty rows, so it pays for the new
/// elements, not for a copy of the whole index.
#[derive(Default)]
struct RevIndex {
    base: Csr<u32>,
    /// `(row, element)` pairs minted since `base` was built; sorted by row
    /// at each build, each row in minting order.
    new: Vec<(u32, u32)>,
}

impl RevIndex {
    /// Rows `dirty` (ascending) of the index, as a CSR over positions in
    /// `dirty`, each stably sorted by `order` (older elements first among
    /// equals).
    fn rows(&mut self, n_rows: usize, dirty: &[u32], order: impl Fn(u32) -> u32) -> Csr<u32> {
        let merge = |old: &[u32], run: &[(u32, u32)], out: &mut Vec<u32>| {
            let at = out.len();
            out.extend_from_slice(old);
            out.extend(run.iter().map(|&(_, e)| e));
            out[at..].sort_by_key(|&e| order(e));
        };
        // Stable, and mostly sorted already: only the pairs pushed since
        // the last build move.
        self.new.sort_by_key(|&(r, _)| r);
        if self.new.len() * 32 > self.base.items().len() {
            let mut grown: Vec<u32> = self.new.iter().map(|&(r, _)| r).collect();
            grown.dedup();
            let new = std::mem::take(&mut self.new);
            let mut rest = new.as_slice();
            self.base = self.base.splice(n_rows, &grown, |r, old, out| {
                let (run, tail) = rest.split_at(rest.partition_point(|p| p.0 as usize <= r));
                merge(old, run, out);
                rest = tail;
            });
        }
        let mut rest = self.new.as_slice();
        Csr::build(dirty.len(), 0, |i, out| {
            let r = dirty[i];
            rest = &rest[rest.partition_point(|p| p.0 < r)..];
            let (run, tail) = rest.split_at(rest.partition_point(|p| p.0 == r));
            merge(self.base.row(r as usize), run, out);
            rest = tail;
        })
    }
}

/// Appends the sorted, distinct heaps of one variable's `(var, ctx)`
/// `keys` to `out`, whatever their order.
fn var_row(
    union: &mut Union,
    entries: &[VarEntry],
    objs: &DenseMap<(u32, u32)>,
    keys: &[u32],
    out: &mut Vec<HeapId>,
) {
    let sets = keys.iter().map(|&k| &entries[k as usize].set);
    let total = sets.clone().map(PtsSet::len).sum();
    let heaps = sets.flat_map(PtsSet::iter).map(|o| objs.resolve(o).0);
    union.append(out, total, heaps, HeapId::from_raw);
}

impl<P: ContextPolicy> Solver<P> {
    pub(crate) fn new(program: Arc<Program>, policy: P, config: SolverConfig) -> Solver<P> {
        let meter = BudgetMeter::new(&config.budget);
        let governed =
            !config.budget.is_unlimited() || config.cancel.is_some() || config.fault.is_some();
        let watermark = config.budget.watermark.unwrap_or(DEFAULT_WATERMARK).max(1);
        let n_methods = program.method_count();
        let n_fields = program.field_count();
        let prof = (config.profile || config.trace.is_enabled()).then(Box::<RuleProf>::default);
        let ts = config.trace.scope(0);
        let index = StaticIndex::build(&program);
        Solver {
            prof,
            ts,
            meter,
            governed,
            steps: 0,
            watermark,
            grace_used: false,
            demote_ctx: vec![NOT_DEMOTED; n_methods],
            demoted_sites: Vec::new(),
            proj_cache: None,
            program,
            policy,
            config,
            index,
            ctxs: CtxInterner::new(),
            hctxs: HCtxInterner::new(),
            objs: DenseMap::default(),
            obj_type: Vec::new(),
            keys: Vec::new(),
            entries: Vec::new(),
            deltas: Vec::new(),
            free_deltas: Vec::new(),
            ipa_out: Vec::new(),
            fkeys: DenseMap::default(),
            fentries: Vec::new(),
            statics: (0..n_fields).map(|_| StaticEntry::default()).collect(),
            cg_targets: Vec::new(),
            reachable: DenseMap::default(),
            frames: Vec::new(),
            method_frames: vec![Vec::new(); n_methods],
            slots: Vec::new(),
            callers: Vec::new(),
            dirty: VecDeque::new(),
            reach_queue: VecDeque::new(),
            throws: FxHashMap::default(),
            provenance: FxHashMap::default(),
            fld_provenance: FxHashMap::default(),
            static_fld_provenance: FxHashMap::default(),
            buf: Vec::new(),
            buf2: Vec::new(),
            ipa_buf: Vec::new(),
            bitmap_bytes: 0,
            stats: SolverStats::default(),
        }
    }

    pub(crate) fn solve(mut self) -> PointsToResult {
        let termination = self.solve_fix();
        self.build_result(termination, false)
    }

    /// Runs the fixpoint (entry-point seeding plus worklist drain) without
    /// consuming the solver, so retained sessions can keep the state for
    /// later incremental applies.
    pub(crate) fn solve_fix(&mut self) -> Termination {
        let t0 = self.ts.now_ns();
        let started = std::time::Instant::now();
        self.mark_entry_points();
        let termination = self.run_loop();
        if let Some(p) = self.prof.as_deref_mut() {
            p.solve_ns += started.elapsed().as_nanos() as u64;
        }
        if self.ts.is_enabled() {
            self.ts.complete(
                "solve",
                "solver",
                t0,
                self.ts.now_ns().saturating_sub(t0),
                &[
                    ("steps", self.steps),
                    ("peak_worklist", self.stats.peak_worklist),
                    ("flushes", self.stats.batches),
                ],
            );
            self.emit_rule_spans(t0);
        }
        termination
    }

    /// Marks the program's entry points reachable under the initial
    /// context.
    fn mark_entry_points(&mut self) {
        let program = Arc::clone(&self.program);
        for &entry in program.entry_points() {
            self.mark_reachable(entry.raw(), CtxId::INITIAL.raw());
        }
    }

    /// The counters as of the last [`Solver::build_result`] plus whatever
    /// ran since.
    pub(crate) fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Replaces the solver's program handle without touching any derived
    /// state. The session uses this to recall the handle before an
    /// in-place program edit (see `AnalysisSession::apply`); the next
    /// incremental apply installs the edited program.
    pub(crate) fn set_program(&mut self, program: Arc<Program>) {
        self.program = program;
    }

    /// Renders the cumulative per-rule cost as a ladder of complete spans
    /// (stacked end-to-end from the solve start so trace viewers show one
    /// non-overlapping bar per rule; the *widths* are the real cumulative
    /// nanoseconds, the offsets are synthetic).
    fn emit_rule_spans(&mut self, base_ns: u64) {
        let Some(prof) = self.prof.as_deref() else {
            return;
        };
        let fires = rule_fires(&self.stats);
        let mut at = base_ns;
        for (i, &(name, _)) in RULES.iter().enumerate() {
            if fires[i] == 0 && prof.ns[i] == 0 {
                continue;
            }
            self.ts.complete(
                name,
                "rule",
                at,
                prof.ns[i],
                &[("fires", fires[i]), ("derived", prof.derived[i])],
            );
            at += prof.ns[i];
        }
        if prof.set_promotions > 0 {
            self.ts.instant(
                "set_promotions",
                "solver",
                &[("count", prof.set_promotions)],
            );
        }
    }

    /// Starts timing `rule`, pausing the rule it runs inside — a clock
    /// read only when profiling is on.
    #[inline]
    fn tick(&mut self, rule: usize) {
        if let Some(p) = self.prof.as_deref_mut() {
            p.switch();
            p.running.push(rule);
        }
    }

    /// Stops the innermost [`Solver::tick`] timer, charging its time to its
    /// rule and resuming the rule it ran inside.
    #[inline]
    fn tock(&mut self) {
        if let Some(p) = self.prof.as_deref_mut() {
            p.switch();
            p.running.pop();
        }
    }

    /// Counts `n` newly derived tuples for `rule` (profiling only).
    #[inline]
    fn prof_derive(&mut self, rule: usize, n: u64) {
        if n > 0 {
            if let Some(p) = self.prof.as_deref_mut() {
                p.derived[rule] += n;
            }
        }
    }

    /// Maps a provenance reason to its rule slot (for derived counts).
    #[inline]
    fn rule_of(reason: Reason) -> usize {
        match reason {
            Reason::Alloc => R_ALLOC,
            Reason::Assign { .. } => R_MOVE,
            Reason::InterProc { .. } => R_INTERPROC,
            Reason::Load { .. } => R_LOAD,
            Reason::ThisBinding { .. } => R_VCALL,
            Reason::StaticLoad { .. } => R_SLOAD,
            Reason::Caught => R_EXC,
        }
    }

    /// Drains both worklists to fixpoint, or until the budget trips.
    /// Reachability events are processed eagerly because they seed
    /// allocations and static calls.
    fn run_loop(&mut self) -> Termination {
        loop {
            if let Some(frame) = self.reach_queue.pop_front() {
                self.process_reachable(frame);
            } else if let Some(key) = self.dirty.pop_front() {
                self.process_key(key);
            } else {
                return Termination::Complete;
            }
            self.steps += 1;
            // Sampled queue-depth counter (every 4096 pops); disabled
            // traces skip this with a single branch.
            if self.ts.is_enabled() && self.steps & 0xFFF == 0 {
                let depth = self.dirty.len() as u64;
                self.ts.counter("worklist_depth", "solver", depth);
            }
            if !self.governed {
                continue;
            }
            // Fault injection first: a forced trip takes the same
            // degrade-or-stop path as a real one.
            if let Some(plan) = self.config.fault {
                plan.apply_stall(self.steps);
                if let Some(t) = plan.forced_trip(self.steps) {
                    match self.handle_trip(t) {
                        Some(t) => return t,
                        None => continue,
                    }
                }
            }
            let mem = self.mem_estimate();
            if let Some(t) = self
                .meter
                .check(self.steps, mem, self.config.cancel.as_ref())
            {
                if let Some(t) = self.handle_trip(t) {
                    return t;
                }
            }
        }
    }

    /// A budget limit tripped. Returns `Some(t)` to stop with a partial
    /// result, `None` to continue after graceful degradation.
    fn handle_trip(&mut self, t: Termination) -> Option<Termination> {
        let cancelled = self
            .config
            .cancel
            .as_ref()
            .is_some_and(CancelToken::is_cancelled);
        // Cancellation is an order, not a resource problem: never
        // degraded away.
        if cancelled || !self.config.degrade {
            return Some(t);
        }
        if self.try_degrade(t) {
            None
        } else {
            Some(t)
        }
    }

    /// One graceful-degradation round: demote every method whose context
    /// fan-out reached the watermark (lowering the watermark until
    /// victims exist, floor 1), then grant headroom on the tripped limit
    /// so the now-coarser run can finish. Returns `false` when no more
    /// headroom may be granted (deadline grace already spent).
    fn try_degrade(&mut self, t: Termination) -> bool {
        match t {
            Termination::Complete => return true,
            Termination::DeadlineExceeded => {
                // One grace window of 10% of the original deadline keeps
                // the "never exceeds the deadline by >10%" contract; a
                // second deadline trip means degradation was too slow.
                if self.grace_used {
                    return false;
                }
                self.grace_used = true;
                if let Some(d) = self.config.budget.deadline {
                    self.meter.extend_deadline(d / 10);
                }
            }
            Termination::StepLimit => {
                self.meter
                    .extend_steps(self.config.budget.max_steps.unwrap_or(1024).max(1));
            }
            Termination::MemoryCap => {
                // Demotion cannot shrink what is already interned, so
                // grant half the original cap per round; the watermark
                // halving below guarantees the rounds bottom out in a
                // finite context-insensitive fixpoint.
                let cap = self.config.budget.max_memory_bytes.unwrap_or(0);
                self.meter.extend_memory((cap / 2).max(1 << 20));
            }
        }
        loop {
            let w = self.watermark;
            let mut any = false;
            for m in 0..self.method_frames.len() {
                if self.demote_ctx[m] == NOT_DEMOTED && self.method_frames[m].len() >= w as usize {
                    self.demote_method(m as u32);
                    any = true;
                }
            }
            self.watermark = (w / 2).max(1);
            if any || w == 1 {
                break;
            }
        }
        true
    }

    /// Demotes `meth`: every future call edge into it reuses the
    /// policy's fallback context, and the method is re-queued under that
    /// context so its allocations and static calls are seeded coarsely.
    /// Existing fine-context facts stay — demotion only merges contexts
    /// (a monotone over-approximation), it never retracts derivations.
    ///
    /// Soundness hinges on the bridge edges installed below. Demotion
    /// re-records the method's allocation sites under the demoted
    /// context, so a site can yield twin abstract objects — a
    /// fine-context one wired into pre-demotion call edges and a
    /// demoted-context one receiving post-demotion field stores. Left
    /// apart, each twin sees only half the flows and facts are lost.
    /// Bridging every existing fine-context key of the method into its
    /// demoted key makes the coarse pipeline subsume the fine ones:
    /// pre-existing inter-procedural edges keep feeding fine keys, the
    /// bridges forward those facts coarsely, and all *new* external
    /// inflows are already intercepted into the demoted context.
    fn demote_method(&mut self, meth: u32) {
        debug_assert_eq!(self.demote_ctx[meth as usize], NOT_DEMOTED);
        let meth_id = MethodId::from_raw(meth);
        let ctx_val = self.policy.demote(meth_id, &self.program);
        let dctx = self.ctxs.intern(ctx_val).raw();
        self.demote_ctx[meth as usize] = dctx;
        self.demoted_sites.push(DemotedSite {
            method: meth_id,
            fanout: self.method_frames[meth as usize].len() as u32,
        });
        let dframe = self.mark_reachable(meth, dctx);
        // The method's fine keys are the filled key slots of its other
        // frames, so a demotion costs the size of those slots. They are
        // collected before bridging on purpose: the bridge targets it
        // interns are (var, dctx) keys, which need no bridging
        // themselves. Bridging in key-ID order adds the IPA edges in the
        // order the keys were minted. Bridges run BOTH ways — demotion
        // declares the method's contexts one equivalence class.
        // Fine→coarse feeds the demoted pipeline; coarse→fine keeps
        // pre-demotion call edges live (their return edges read fine
        // keys, which would otherwise go stale while new facts accrue
        // only under the demoted context).
        let mut fine: Vec<u32> = Vec::new();
        for &frame in &self.method_frames[meth as usize] {
            if frame != dframe {
                let f = self.frames[frame as usize];
                let vars = &self.slots[f.base as usize..(f.base + f.nvars) as usize];
                fine.extend(vars.iter().filter(|&&s| s != 0).map(|&s| s - 1));
            }
        }
        fine.sort_unstable();
        for key in fine {
            let (var, frame) = self.keys[key as usize];
            self.add_ipa_edge(var, frame, var, dframe);
            self.add_ipa_edge(var, dframe, var, frame);
        }
    }

    /// Coarse bytes held by the dense stores the budget memory cap
    /// governs: interned keys (objects, var keys and their entry records,
    /// field keys, frames and their key and call-site slots, contexts),
    /// the delta pool (each buffer at its kept capacity) and the
    /// points-to tuples.
    fn mem_estimate(&self) -> u64 {
        let frames = self.keys.capacity() * 8
            + self.entries.capacity() * std::mem::size_of::<VarEntry>()
            + self.deltas.len() * (std::mem::size_of::<Vec<u32>>() + DELTA_KEEP * 4)
            + self.frames.capacity() * std::mem::size_of::<Frame>()
            + self.slots.capacity() * 4;
        self.objs.mem_bytes()
            + frames as u64
            + self.fkeys.mem_bytes()
            + self.reachable.mem_bytes()
            + self.ctxs.mem_bytes()
            + self.hctxs.mem_bytes()
            + (self.stats.vpt_inserted + self.stats.fld_inserted) * 4
            + self.bitmap_bytes
    }

    // ----- dense ID management ---------------------------------------------

    /// Interns a `(heap, hctx)` pair, caching its dynamic type.
    fn obj_id(&mut self, heap: u32, hctx: u32) -> u32 {
        let id = self.objs.intern((heap, hctx));
        if id as usize == self.obj_type.len() {
            self.obj_type
                .push(self.program.heap_type(HeapId::from_raw(heap)).raw());
        }
        id
    }

    /// The slot of `var` (a variable of `frame`'s method) in `frame`.
    #[inline]
    fn var_slot(&mut self, frame: u32, var: u32) -> usize {
        let at = self.index.var_slot[var as usize];
        if at >= self.frames[frame as usize].nvars {
            self.relocate(frame);
        }
        (self.frames[frame as usize].base + at) as usize
    }

    /// The slot of `invo` (an invocation in `frame`'s method) in `frame`.
    #[inline]
    fn invo_slot(&mut self, frame: u32, invo: u32) -> usize {
        let at = self.index.invo_slot[invo as usize];
        if at >= self.frames[frame as usize].ninvos {
            self.relocate(frame);
        }
        let f = self.frames[frame as usize];
        (f.base + f.nvars + at) as usize
    }

    /// Moves `frame`'s slots to the end of the slot array, with ranges as
    /// long as its method's current variable and invocation counts: an
    /// additive delta declared locals or calls in a method that already
    /// had frames. The old range is left unused.
    #[cold]
    fn relocate(&mut self, frame: u32) {
        let f = self.frames[frame as usize];
        let meth = self.reachable.resolve(frame).0 as usize;
        let (nvars, ninvos) = self.index.frame_shape[meth];
        let base = self.slots.len();
        let (vars, invos) = (f.base as usize, (f.base + f.nvars) as usize);
        self.slots.extend_from_within(vars..invos);
        self.slots.resize(base + nvars as usize, 0);
        self.slots
            .extend_from_within(invos..invos + f.ninvos as usize);
        self.slots.resize(base + (nvars + ninvos) as usize, 0);
        self.frames[frame as usize] = Frame {
            base: base as u32,
            nvars,
            ninvos,
        };
    }

    /// The key of `var` in `frame`, if interned.
    #[inline]
    fn key_get(&self, frame: u32, var: u32) -> Option<u32> {
        let f = self.frames[frame as usize];
        let at = self.index.var_slot[var as usize];
        (at < f.nvars)
            .then(|| self.slots[(f.base + at) as usize])
            .filter(|&s| s != 0)
            .map(|s| s - 1)
    }

    /// The interned keys of `var`: its slot in each frame of its method.
    fn keys_of(&self, var: u32) -> impl Iterator<Item = u32> + '_ {
        let meth = self.program.var_method(VarId::from_raw(var));
        let frames = self.method_frames[meth.index()].iter();
        frames.filter_map(move |&f| self.key_get(f, var))
    }

    /// Interns the key of `var` (a variable of `frame`'s method) in
    /// `frame`, materializing its entry.
    ///
    /// A key minted under a fine context for an already-demoted method is
    /// bridged into the method's demoted key on the spot (see
    /// [`Solver::demote_method`]): fine keys can keep appearing after
    /// demotion — a queued reachability event firing its allocations, a
    /// return edge landing at a fine caller context — and every one of
    /// them must forward into the coarse pipeline or its facts split off.
    fn key_id(&mut self, frame: u32, var: u32) -> u32 {
        let slot = self.var_slot(frame, var);
        if self.slots[slot] != 0 {
            return self.slots[slot] - 1;
        }
        let id = self.keys.len() as u32;
        self.slots[slot] = id + 1;
        self.keys.push((var, frame));
        self.entries.push(VarEntry::default());
        self.ipa_out.push(Vec::new());
        if self.config.degrade {
            let (m, ctx) = self.reachable.resolve(frame);
            let d = self.demote_ctx[m as usize];
            if d != NOT_DEMOTED && ctx != d {
                // Recursion bottoms out immediately: the bridge target
                // is the key of var in the demoted frame itself.
                let dframe = self
                    .reachable
                    .get((m, d))
                    .expect("demotion marks its frame");
                self.add_ipa_edge(var, frame, var, dframe);
                self.add_ipa_edge(var, dframe, var, frame);
            }
        }
        id
    }

    /// Interns a `(base object, field)` pair, materializing its entry.
    fn fld_id(&mut self, base_obj: u32, field: u32) -> u32 {
        let id = self.fkeys.intern((base_obj, field));
        if id as usize == self.fentries.len() {
            self.fentries.push(FldEntry::default());
            if let Some(cache) = self.proj_cache.as_deref_mut() {
                let base = self.objs.resolve(base_obj).0;
                cache.heap_fes.new.push((base, id));
            }
        }
        id
    }

    // ----- tuple insertion -------------------------------------------------

    /// Inserts a batch of objects into `key`'s points-to set; new objects
    /// join the key's delta, and the first one queues the key if it is not
    /// queued. `reason` applies to every object in the batch (batch joins
    /// are object-invariant).
    fn insert_batch(&mut self, key: u32, objs: &[u32], reason: Reason) {
        if objs.is_empty() {
            return;
        }
        let profiling = self.prof.is_some();
        let entry = &mut self.entries[key as usize];
        let was_bitmap = profiling && entry.set.is_bitmap();
        let bytes_before = entry.set.bitmap_bytes();
        let mut newly = 0u64;
        for &obj in objs {
            if entry.set.insert(obj) {
                if entry.pending == 0 {
                    entry.pending = 1 + self.free_deltas.pop().unwrap_or_else(|| {
                        self.deltas.push(Vec::new());
                        self.deltas.len() as u32 - 1
                    });
                    self.dirty.push_back(key);
                    let depth = self.dirty.len() as u64;
                    self.stats.peak_worklist = self.stats.peak_worklist.max(depth);
                }
                self.deltas[entry.pending as usize - 1].push(obj);
                self.stats.vpt_inserted += 1;
                newly += 1;
                if self.config.track_provenance {
                    self.provenance.insert((key, obj), reason);
                }
            } else {
                self.stats.vpt_dup += 1;
            }
        }
        self.bitmap_bytes += entry.set.bitmap_bytes() - bytes_before;
        if profiling {
            let promoted = !was_bitmap && entry.set.is_bitmap();
            let p = self.prof.as_deref_mut().expect("profiling implies prof");
            p.derived[Self::rule_of(reason)] += newly;
            p.set_promotions += u64::from(promoted);
        }
        if newly > 0 {
            if let Some(cache) = self.proj_cache.as_deref_mut() {
                cache.dirty_vars.insert(self.keys[key as usize].0);
            }
        }
    }

    /// Inserts a batch of values into `(base_obj, field)`; fresh values
    /// wake every pending load witness. `src_key` is the store source (for
    /// provenance).
    fn insert_fld_batch(&mut self, base_obj: u32, field: u32, vals: &[u32], src_key: u32) {
        if vals.is_empty() {
            return;
        }
        self.stats.fire_store += vals.len() as u64;
        let fe = self.fld_id(base_obj, field);
        let mut fresh = std::mem::take(&mut self.buf2);
        fresh.clear();
        {
            let entry = &mut self.fentries[fe as usize];
            let bytes_before = entry.set.bitmap_bytes();
            for &v in vals {
                if entry.set.insert(v) {
                    fresh.push(v);
                }
            }
            self.bitmap_bytes += entry.set.bitmap_bytes() - bytes_before;
        }
        if !fresh.is_empty() {
            if let Some(cache) = self.proj_cache.as_deref_mut() {
                cache.dirty_bases.insert(self.objs.resolve(base_obj).0);
            }
            self.stats.fld_inserted += fresh.len() as u64;
            self.prof_derive(R_STORE, fresh.len() as u64);
            if self.config.track_provenance {
                for &v in &fresh {
                    self.fld_provenance.insert((fe, v), src_key);
                }
            }
            for wi in 0..self.fentries[fe as usize].witnesses.len() {
                let (to_key, base_key) = self.fentries[fe as usize].witnesses[wi];
                self.stats.fire_load += fresh.len() as u64;
                self.insert_batch(
                    to_key,
                    &fresh,
                    Reason::Load {
                        base_key,
                        base_obj,
                        field,
                    },
                );
            }
        }
        self.buf2 = fresh;
    }

    /// Inserts a batch of values into static field `field`; fresh values
    /// wake every pending static-load witness.
    fn insert_static_batch(&mut self, field: u32, vals: &[u32], src_key: u32) {
        if vals.is_empty() {
            return;
        }
        self.stats.fire_static_store += vals.len() as u64;
        let mut fresh = std::mem::take(&mut self.buf2);
        fresh.clear();
        {
            let entry = &mut self.statics[field as usize];
            let bytes_before = entry.set.bitmap_bytes();
            for &v in vals {
                if entry.set.insert(v) {
                    fresh.push(v);
                }
            }
            self.bitmap_bytes += entry.set.bitmap_bytes() - bytes_before;
        }
        if !fresh.is_empty() {
            self.prof_derive(R_SSTORE, fresh.len() as u64);
            if self.config.track_provenance {
                for &v in &fresh {
                    self.static_fld_provenance.insert((field, v), src_key);
                }
            }
            for wi in 0..self.statics[field as usize].witnesses.len() {
                let to_key = self.statics[field as usize].witnesses[wi];
                self.stats.fire_static_load += fresh.len() as u64;
                self.insert_batch(to_key, &fresh, Reason::StaticLoad { field });
            }
        }
        self.buf2 = fresh;
    }

    /// Marks `(meth, ctx)` reachable and returns its frame; a new frame
    /// gets empty slot ranges and its body processing enqueued. New frames
    /// grow the method's context fan-out; in degrade mode a method
    /// crossing the watermark is demoted proactively, before any budget
    /// limit trips.
    fn mark_reachable(&mut self, meth: u32, ctx: u32) -> u32 {
        let frame = self.reachable.intern((meth, ctx));
        if frame as usize == self.frames.len() {
            let (nvars, ninvos) = self.index.frame_shape[meth as usize];
            let base = self.slots.len();
            self.slots.resize(base + (nvars + ninvos) as usize, 0);
            self.frames.push(Frame {
                base: base as u32,
                nvars,
                ninvos,
            });
            self.callers.push(Vec::new());
            self.reach_queue.push_back(frame);
            let frames = &mut self.method_frames[meth as usize];
            frames.push(frame);
            if self.config.degrade
                && self.demote_ctx[meth as usize] == NOT_DEMOTED
                && frames.len() >= self.watermark as usize
            {
                self.demote_method(meth);
            }
        }
        frame
    }

    /// Installs a call-graph edge from `invo` in `caller` (a frame of the
    /// method containing `invo`) with its parameter/return
    /// `InterProcAssign` edges (first two rules of Figure 2) and marks the
    /// callee reachable. Returns the callee's frame.
    fn add_call_edge(
        &mut self,
        invo: InvoId,
        caller: u32,
        callee: MethodId,
        mut callee_ctx: u32,
    ) -> u32 {
        // Demoted callees take their fallback context regardless of what
        // the policy's constructors produced (the single interception
        // point through which every call edge flows).
        let demoted = self.demote_ctx[callee.index()];
        if demoted != NOT_DEMOTED {
            callee_ctx = demoted;
        }
        let slot = self.invo_slot(caller, invo.raw());
        if self.slots[slot] == 0 {
            self.cg_targets.push(Vec::new());
            self.slots[slot] = self.cg_targets.len() as u32;
        }
        let site = self.slots[slot] as usize - 1;
        let reachable = &self.reachable;
        let target = (callee.raw(), callee_ctx);
        if let Some(&frame) = self.cg_targets[site]
            .iter()
            .find(|&&f| reachable.resolve(f) == target)
        {
            return frame;
        }
        self.stats.call_edges += 1;
        if let Some(cache) = self.proj_cache.as_deref_mut() {
            cache.cg_new.push((invo, callee));
        }
        let frame = self.mark_reachable(callee.raw(), callee_ctx);
        self.cg_targets[site].push(frame);
        let program = Arc::clone(&self.program);
        let formals = program.formals(callee);
        let actuals = program.actual_args(invo);
        for (&formal, &actual) in formals.iter().zip(actuals.iter()) {
            self.add_ipa_edge(actual.raw(), caller, formal.raw(), frame);
        }
        if let (Some(fret), Some(aret)) =
            (program.formal_return(callee), program.actual_return(invo))
        {
            self.add_ipa_edge(fret.raw(), frame, aret.raw(), caller);
        }

        // Exceptions escaping the callee propagate to the caller. Until
        // the callee throws, registering is one push; after, a repeat
        // registration re-fires nothing.
        match self.throws.get_mut(&frame) {
            None => self.callers[frame as usize].push(caller),
            Some(escapes) => {
                if escapes.callers.insert(caller) {
                    self.callers[frame as usize].push(caller);
                    let mut objs = Vec::with_capacity(escapes.objs.len());
                    escapes.objs.extend_into(&mut objs);
                    self.tick(R_EXC);
                    for obj in objs {
                        self.throw_into(caller, obj);
                    }
                    self.tock();
                }
            }
        }
        frame
    }

    /// An exception object has arrived at `frame` — from the method's own
    /// `throw` or from a callee. Any matching catch clause binds it; if
    /// none matches it escapes to `ThrowPointsTo` and propagates to the
    /// frame's callers, depth first in registration order. The frames
    /// still to visit live on an explicit stack, so a deep call chain
    /// cannot overflow the thread's stack.
    fn throw_into(&mut self, frame: u32, obj: u32) {
        let program = Arc::clone(&self.program);
        let heap_ty = TypeId::from_raw(self.obj_type[obj as usize]);
        let mut stack = vec![frame];
        while let Some(frame) = stack.pop() {
            let meth = MethodId::from_raw(self.reachable.resolve(frame).0);
            let mut caught = false;
            for &(ty, binder) in program.catches(meth) {
                if program.is_subtype(heap_ty, ty) {
                    let bkey = self.key_id(frame, binder.raw());
                    self.stats.fire_caught += 1;
                    self.insert_batch(bkey, &[obj], Reason::Caught);
                    caught = true;
                }
            }
            if caught {
                continue;
            }
            let callers = &mut self.callers[frame as usize];
            let escapes = self.throws.entry(frame).or_insert_with(|| {
                // First escape: the caller list becomes distinct, keeping
                // each caller's first registration.
                let mut seen = FxHashSet::default();
                callers.retain(|&c| seen.insert(c));
                Escapes {
                    objs: PtsSet::default(),
                    callers: seen,
                }
            });
            if escapes.objs.insert(obj) {
                stack.extend(callers.iter().rev());
                self.stats.throw_tuples += 1;
                self.prof_derive(R_EXC, 1);
            }
        }
    }

    /// Installs an `InterProcAssign` edge from `from` in frame `from_frame`
    /// to `to` in frame `to_frame`, and propagates existing facts across
    /// it.
    fn add_ipa_edge(&mut self, from: u32, from_frame: u32, to: u32, to_frame: u32) {
        let from_key = self.key_id(from_frame, from);
        let to_key = self.key_id(to_frame, to);
        if self.ipa_out[from_key as usize].contains(&to_key) {
            return;
        }
        self.stats.ipa_edges += 1;
        self.ipa_out[from_key as usize].push(to_key);
        if !self.entries[from_key as usize].set.is_empty() {
            self.tick(R_INTERPROC);
            let mut existing = std::mem::take(&mut self.ipa_buf);
            existing.clear();
            self.entries[from_key as usize]
                .set
                .extend_into(&mut existing);
            self.stats.fire_interproc += existing.len() as u64;
            self.insert_batch(to_key, &existing, Reason::InterProc { src_key: from_key });
            self.ipa_buf = existing;
            self.tock();
        }
    }

    // ----- rule firing ------------------------------------------------------
    //
    // One function per Figure 2 join of an instruction. The worklist calls
    // them with a new frame or a key's delta; an additive apply calls them
    // with an existing frame or key's full set (`incremental`). Callers own
    // the profiling clock. They are inlined into the worklist loops, where
    // they run once per (edge, batch): left to the compiler, five of them
    // were called out of line from `run_loop`.

    /// The context value of `frame`.
    fn ctx_of(&self, frame: u32) -> Ctx {
        self.ctxs
            .resolve(CtxId::from_raw(self.reachable.resolve(frame).1))
    }

    /// Fires the allocation, static-call and static-load rules for a newly
    /// reachable frame.
    fn process_reachable(&mut self, frame: u32) {
        let program = Arc::clone(&self.program);
        let meth = MethodId::from_raw(self.reachable.resolve(frame).0);
        let ctx = self.ctx_of(frame);
        for instr in program.instrs(meth) {
            match *instr {
                Instr::Alloc { var, heap } => {
                    self.tick(R_ALLOC);
                    self.alloc(frame, ctx, var, heap);
                    self.tock();
                }
                Instr::SCall { target, invo } => {
                    self.tick(R_SCALL);
                    self.scall(frame, ctx, target, invo);
                    self.tock();
                }
                Instr::SLoad { to, field } => {
                    self.tick(R_SLOAD);
                    self.sload(frame, to, field);
                    self.tock();
                }
                _ => {}
            }
        }
    }

    /// Drains a key's pending delta and fires every rule that joins on it,
    /// once per `(edge, batch)`.
    fn process_key(&mut self, key: u32) {
        let (var, frame) = self.keys[key as usize];
        let slot = std::mem::take(&mut self.entries[key as usize].pending) as usize - 1;
        let mut delta = std::mem::take(&mut self.deltas[slot]);
        self.stats.batches += 1;
        let (row, next) = (
            self.index.rows[var as usize],
            self.index.rows[var as usize + 1],
        );
        let segment = |t: usize| row[t] as usize..next[t] as usize;

        self.tick(R_MOVE);
        for i in segment(ROW_ASSIGN) {
            let (to, filter) = self.index.assigns[i];
            self.assign(frame, key, to, filter, &delta);
        }
        self.tock();

        // InterProcAssign propagation.
        self.tick(R_INTERPROC);
        for i in 0..self.ipa_out[key as usize].len() {
            let to_key = self.ipa_out[key as usize][i];
            self.stats.fire_interproc += delta.len() as u64;
            self.insert_batch(to_key, &delta, Reason::InterProc { src_key: key });
        }
        self.tock();

        self.tick(R_LOAD);
        for i in segment(ROW_LOAD_ON) {
            let (to, field) = self.index.loads_on[i];
            self.load(frame, key, to, field, &delta);
        }
        self.tock();

        self.tick(R_STORE);
        for i in segment(ROW_STORE_ON) {
            let (field, from) = self.index.stores_on[i];
            self.store_on(frame, field, from, &delta);
        }
        for i in segment(ROW_STORE_OF) {
            let (base, field) = self.index.stores_of[i];
            self.store_of(frame, key, base, field, &delta);
        }
        self.tock();

        if row[ROW_THROWN] != 0 {
            self.tick(R_EXC);
            self.throw(frame, &delta);
            self.tock();
        }

        self.tick(R_SSTORE);
        for i in segment(ROW_SSTORE_OF) {
            self.sstore(key, self.index.sstores_of[i], &delta);
        }
        self.tock();

        let vcalls = segment(ROW_VCALL_ON);
        if !vcalls.is_empty() {
            self.tick(R_VCALL);
            let ctx = self.ctx_of(frame);
            for i in vcalls {
                let (sig, invo) = self.index.vcalls_on[i];
                self.vcall(frame, ctx, sig, invo, &delta);
            }
            self.tock();
        }

        if delta.capacity() <= DELTA_KEEP {
            delta.clear();
            self.deltas[slot] = delta;
        }
        self.free_deltas.push(slot as u32);
    }

    /// `var = new heap` in `frame` (context `ctx`):
    /// `VarPointsTo(var, ctx, heap, Record(heap, ctx))`.
    #[inline(always)]
    fn alloc(&mut self, frame: u32, ctx: Ctx, var: VarId, heap: HeapId) {
        self.stats.fire_alloc += 1;
        let elem = self.policy.record(heap, ctx, &self.program);
        let hctx = self.hctxs.intern(elem);
        let obj = self.obj_id(heap.raw(), hctx.raw());
        let vkey = self.key_id(frame, var.raw());
        self.insert_batch(vkey, &[obj], Reason::Alloc);
    }

    /// `target(...)` at `invo` in `frame` (context `ctx`):
    /// `CallGraph(invo, ctx, target, MergeStatic(invo, ctx))`. Demoted
    /// targets skip the constructor so no unused context is interned on
    /// their behalf.
    #[inline(always)]
    fn scall(&mut self, frame: u32, ctx: Ctx, target: MethodId, invo: InvoId) {
        self.stats.fire_scall += 1;
        let callee_ctx = match self.demote_ctx[target.index()] {
            NOT_DEMOTED => {
                let v = self.policy.merge_static(invo, ctx, &self.program);
                self.ctxs.intern(v).raw()
            }
            demoted => demoted,
        };
        self.add_call_edge(invo, frame, target, callee_ctx);
    }

    /// `to = C.field` in `frame`: `to` becomes a witness of the static
    /// field and pulls its current facts.
    #[inline(always)]
    fn sload(&mut self, frame: u32, to: VarId, field: FieldId) {
        let to_key = self.key_id(frame, to.raw());
        let fld = field.raw() as usize;
        self.statics[fld].witnesses.push(to_key);
        if !self.statics[fld].set.is_empty() {
            let mut existing = std::mem::take(&mut self.buf);
            existing.clear();
            self.statics[fld].set.extend_into(&mut existing);
            self.stats.fire_static_load += existing.len() as u64;
            self.insert_batch(to_key, &existing, Reason::StaticLoad { field: field.raw() });
            self.buf = existing;
        }
    }

    /// `to = from` (or `to = (filter) from`) for the objects `objs` of
    /// `from`'s key `key` in `frame`: `VarPointsTo(to, ctx, obj)`. Casts
    /// filter by subtyping (Doop's AssignCast).
    #[inline(always)]
    fn assign(&mut self, frame: u32, key: u32, to: VarId, filter: Option<TypeId>, objs: &[u32]) {
        let to_key = self.key_id(frame, to.raw());
        let Some(ty) = filter else {
            self.stats.fire_assign += objs.len() as u64;
            self.insert_batch(to_key, objs, Reason::Assign { src_key: key });
            return;
        };
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        for &obj in objs {
            if self
                .program
                .is_subtype(TypeId::from_raw(self.obj_type[obj as usize]), ty)
            {
                buf.push(obj);
            }
        }
        self.stats.fire_assign += buf.len() as u64;
        self.insert_batch(to_key, &buf, Reason::Assign { src_key: key });
        self.buf = buf;
    }

    /// `to = base.field` for the base objects `objs` of `key` in `frame`:
    /// each registers a load witness on its field cell and pulls the
    /// cell's current facts.
    #[inline(always)]
    fn load(&mut self, frame: u32, key: u32, to: VarId, field: FieldId, objs: &[u32]) {
        let to_key = self.key_id(frame, to.raw());
        for &base_obj in objs {
            let fe = self.fld_id(base_obj, field.raw());
            self.fentries[fe as usize].witnesses.push((to_key, key));
            if !self.fentries[fe as usize].set.is_empty() {
                let mut buf = std::mem::take(&mut self.buf);
                buf.clear();
                self.fentries[fe as usize].set.extend_into(&mut buf);
                self.stats.fire_load += buf.len() as u64;
                self.insert_batch(
                    to_key,
                    &buf,
                    Reason::Load {
                        base_key: key,
                        base_obj,
                        field: field.raw(),
                    },
                );
                self.buf = buf;
            }
        }
    }

    /// `base.field = from`, base side, for the base objects `objs` in
    /// `frame`: `FldPointsTo(baseObj, field, *pts(from, ctx))`.
    #[inline(always)]
    fn store_on(&mut self, frame: u32, field: FieldId, from: VarId, objs: &[u32]) {
        let Some(from_key) = self.key_get(frame, from.raw()) else {
            return;
        };
        if self.entries[from_key as usize].set.is_empty() {
            return;
        }
        let mut vals = std::mem::take(&mut self.buf);
        vals.clear();
        self.entries[from_key as usize].set.extend_into(&mut vals);
        for &base_obj in objs {
            self.insert_fld_batch(base_obj, field.raw(), &vals, from_key);
        }
        self.buf = vals;
    }

    /// `base.field = from`, source side, for the objects `objs` of
    /// `from`'s key `key` in `frame`: `FldPointsTo(*pts(base, ctx), field,
    /// objs)`.
    #[inline(always)]
    fn store_of(&mut self, frame: u32, key: u32, base: VarId, field: FieldId, objs: &[u32]) {
        let Some(base_key) = self.key_get(frame, base.raw()) else {
            return;
        };
        if self.entries[base_key as usize].set.is_empty() {
            return;
        }
        let mut bases = std::mem::take(&mut self.buf);
        bases.clear();
        self.entries[base_key as usize].set.extend_into(&mut bases);
        for &base_obj in &bases {
            self.insert_fld_batch(base_obj, field.raw(), objs, key);
        }
        self.buf = bases;
    }

    /// `C.field = from` for the objects `objs` of `from`'s key `key`.
    #[inline(always)]
    fn sstore(&mut self, key: u32, field: FieldId, objs: &[u32]) {
        self.insert_static_batch(field.raw(), objs, key);
    }

    /// `throw var` for the objects `objs` of `var`'s key in `frame`: each
    /// exception arrives at the frame.
    #[inline(always)]
    fn throw(&mut self, frame: u32, objs: &[u32]) {
        for &obj in objs {
            self.stats.fire_throw += 1;
            self.throw_into(frame, obj);
        }
    }

    /// `base.sig(...)` at `invo` for the receiver objects `objs` of
    /// `base`'s key in `frame` (context `ctx`): dispatch, Merge, and derive
    /// CallGraph + this-points-to + Reachable.
    #[inline(always)]
    fn vcall(&mut self, frame: u32, ctx: Ctx, sig: SigId, invo: InvoId, objs: &[u32]) {
        for &obj in objs {
            self.stats.fire_vcall_dispatch += 1;
            let heap_ty = TypeId::from_raw(self.obj_type[obj as usize]);
            let Some(callee) = self.program.lookup(heap_ty, sig) else {
                continue;
            };
            let (heap, hctx) = self.objs.resolve(obj);
            let hctx_val = self.hctxs.resolve(HCtxId::from_raw(hctx));
            // Demoted callees skip Merge so no unused context is interned
            // on their behalf.
            let callee_ctx = match self.demote_ctx[callee.index()] {
                NOT_DEMOTED => {
                    let v = self.policy.merge(
                        HeapId::from_raw(heap),
                        hctx_val,
                        invo,
                        ctx,
                        &self.program,
                    );
                    self.ctxs.intern(v).raw()
                }
                demoted => demoted,
            };
            let cframe = self.add_call_edge(invo, frame, callee, callee_ctx);
            if let Some(this) = self.program.this_var(callee) {
                // VarPointsTo(this, calleeCtx, obj) — per receiver object,
                // even when the call-graph edge existed.
                let tkey = self.key_id(cframe, this.raw());
                self.stats.fire_this_binding += 1;
                self.insert_batch(tkey, &[obj], Reason::ThisBinding { invo: invo.raw() });
            }
        }
    }

    // ----- result construction ----------------------------------------------

    /// Projects the solver state into a [`PointsToResult`]. With
    /// `retain`, the state survives (interners are cloned into the result
    /// instead of moved) so the caller can keep the solver for later
    /// incremental delta application; without it, heavy members are moved
    /// out and the solver should be dropped.
    pub(crate) fn build_result(
        &mut self,
        termination: Termination,
        retain: bool,
    ) -> PointsToResult {
        let (keys, frames) = (&self.keys, self.reachable.keys());
        self.stats.contexts = self.ctxs.len() as u64;
        self.stats.heap_contexts = self.hctxs.len() as u64;
        self.stats.objects = self.objs.len() as u64;
        self.stats.steps = self.steps;
        self.stats.demoted_methods = self.demoted_sites.len() as u64;
        self.demoted_sites.sort_unstable_by_key(|d| d.method);

        // Resolves a dense (key, object) pair to the public tuple form.
        let tuple = |objs: &DenseMap<(u32, u32)>, key: u32, obj: u32| {
            let (var, frame) = keys[key as usize];
            let (heap, hctx) = objs.resolve(obj);
            CtxVarPointsTo {
                var: VarId::from_raw(var),
                ctx: CtxId::from_raw(frames[frame as usize].1),
                heap: HeapId::from_raw(heap),
                hctx: HCtxId::from_raw(hctx),
            }
        };

        // Context-insensitive projections into flat views (see
        // `crate::project`). A retained build after the first re-derives
        // only the variables, call sites and base heaps that changed since
        // the last one and copies the clean rows around them in bulk.
        let t0 = self.ts.now_ns();
        let (n_vars, n_heaps) = (self.program.var_count(), self.program.heap_count());
        let n_invos = self.program.invo_count();
        // Sets only grow, so every insertion is one tuple.
        let ctx_vpt_count = self.stats.vpt_inserted;
        let cached = self.proj_cache.take().filter(|_| retain);
        let (entries, objs) = (&self.entries, &self.objs);
        let (fkeys, fentries) = (&self.fkeys, &self.fentries);
        let field_of = |fe: u32| fkeys.resolve(fe).1;
        let fe_len = |fe: u32| fentries[fe as usize].set.len();
        let fe_heaps = |fe: u32| fentries[fe as usize].set.iter().map(|o| objs.resolve(o).0);
        let mut union = Union::default();
        let projected;
        let cache = if let Some(mut cache) = cached {
            let mut dirty: Vec<u32> = cache.dirty_vars.drain().collect();
            dirty.sort_unstable();
            let mut keys = Vec::new();
            cache.var_points_to = cache.var_points_to.splice(n_vars, &dirty, |v, _, out| {
                keys.clear();
                keys.extend(self.keys_of(v as u32));
                var_row(&mut union, entries, objs, &keys, out);
            });
            projected = dirty.len();
            cache.cg_new.sort_unstable();
            cache.cg_new.dedup();
            let mut invos: Vec<u32> = cache.cg_new.iter().map(|(i, _)| i.raw()).collect();
            invos.dedup();
            let mut new = cache.cg_new.as_slice();
            cache.call_targets = cache.call_targets.splice(n_invos, &invos, |i, old, out| {
                let (added, tail) = new.split_at(new.partition_point(|(v, _)| v.index() <= i));
                let total = old.len() + added.len();
                let methods = old.iter().copied().chain(added.iter().map(|&(_, m)| m));
                union.append(out, total, methods.map(MethodId::raw), MethodId::from_raw);
                new = tail;
            });
            cache.cg_new.clear();
            let mut dirty: Vec<u32> = cache.dirty_bases.drain().collect();
            dirty.sort_unstable();
            let heap_fes = cache.heap_fes.rows(n_heaps, &dirty, field_of);
            let elems = |b: usize| {
                let at = dirty.binary_search(&(b as u32)).expect("a dirty base heap");
                heap_fes.row(at)
            };
            cache.field_points_to = cache
                .field_points_to
                .splice(n_heaps, &dirty, elems, field_of, fe_len, fe_heaps);
            cache
        } else {
            let by_var = Csr::group(n_vars, 0..entries.len() as u32, |k| {
                keys[k as usize].0 as usize
            });
            let (field_points_to, by_base) = FieldView::build(
                n_heaps,
                self.program.field_count(),
                fentries.len(),
                |fe| (objs.resolve(fkeys.resolve(fe).0).0, field_of(fe)),
                fe_len,
                fe_heaps,
            );
            // Each variable's row holds at most the objects of its keys.
            let var_points_to = Csr::build(n_vars, ctx_vpt_count as usize, |v, out| {
                var_row(&mut union, entries, objs, by_var.row(v), out);
            });
            // Every context-sensitive call edge as `(invo, callee)`, read
            // from each frame's call-site slots; `from_pairs` drops the
            // repeats across contexts. Slot `j` of a frame of method `m`
            // holds the `j`-th invocation of `m` in ID order
            // (`StaticIndex::number_locals`).
            let invos_of = Csr::group(self.program.method_count(), 0..n_invos as u32, |i| {
                self.program.invo_method(InvoId::from_raw(i)).index()
            });
            let mut pairs = Vec::with_capacity(self.stats.call_edges as usize);
            for (f, &(m, _)) in self.frames.iter().zip(frames) {
                let at = (f.base + f.nvars) as usize;
                let sites = &self.slots[at..at + f.ninvos as usize];
                for (&invo, &site) in invos_of.row(m as usize).iter().zip(sites) {
                    if site != 0 {
                        let callees = &self.cg_targets[site as usize - 1];
                        pairs.extend(callees.iter().map(|&c| (invo, frames[c as usize].0)));
                    }
                }
            }
            let call_targets = Csr::from_pairs(n_invos, &pairs, MethodId::from_raw);
            projected = n_vars;
            Box::new(ProjCache {
                var_points_to,
                call_targets,
                field_points_to,
                heap_fes: RevIndex {
                    base: by_base,
                    new: Vec::new(),
                },
                dirty_vars: FxHashSet::default(),
                dirty_bases: FxHashSet::default(),
                cg_new: Vec::new(),
            })
        };
        // A retained build clones the (flat) views; any other moves them.
        let (var_points_to, call_targets, field_points_to) = if retain {
            let views = (
                cache.var_points_to.clone(),
                cache.call_targets.clone(),
                cache.field_points_to.clone(),
            );
            self.proj_cache = Some(cache);
            views
        } else {
            let ProjCache {
                var_points_to,
                call_targets,
                field_points_to,
                ..
            } = *cache;
            (var_points_to, call_targets, field_points_to)
        };
        let reachable =
            project::bitset(self.program.method_count(), frames.iter().map(|&(m, _)| m));
        let statics_len = self.statics.iter().map(|e| e.set.len()).sum();
        let static_points_to = Csr::build(self.statics.len(), statics_len, |f, out| {
            let set = &self.statics[f].set;
            let heaps = set.iter().map(|o| objs.resolve(o).0);
            union.append(out, set.len(), heaps, HeapId::from_raw);
        });
        if self.ts.is_enabled() {
            let dur = self.ts.now_ns().saturating_sub(t0);
            let heaps = var_points_to.items().len() as u64;
            let args = [("vars", projected as u64), ("heaps", heaps)];
            self.ts.complete("project", "solver", t0, dur, &args);
            // A retained solver outlives this build: publish its spans now.
            self.ts.flush();
        }

        // Rule-level profile plus the hottest variables.
        let profile = self.prof.take().map(|p| {
            Box::new(p.into_profile(&self.stats, hot_vars(&self.program, &var_points_to)))
        });

        let tuples = if self.config.keep_tuples {
            let mut out = Vec::with_capacity(ctx_vpt_count as usize);
            for (key, entry) in self.entries.iter().enumerate() {
                for obj in entry.set.iter() {
                    out.push(tuple(&self.objs, key as u32, obj));
                }
            }
            Some(out)
        } else {
            None
        };

        let provenance = if self.config.track_provenance {
            Some(
                self.provenance
                    .iter()
                    .map(|(&(key, obj), &r)| {
                        let d = match r {
                            Reason::Alloc => Derivation::Alloc,
                            Reason::Assign { src_key } => Derivation::Assign {
                                from: tuple(&self.objs, src_key, obj),
                            },
                            Reason::InterProc { src_key } => Derivation::InterProc {
                                from: tuple(&self.objs, src_key, obj),
                            },
                            Reason::Load {
                                base_key,
                                base_obj,
                                field,
                            } => Derivation::Load {
                                base: tuple(&self.objs, base_key, base_obj),
                                field: FieldId::from_raw(field),
                            },
                            Reason::ThisBinding { invo } => Derivation::ThisBinding {
                                invo: InvoId::from_raw(invo),
                            },
                            Reason::StaticLoad { field } => Derivation::StaticLoad {
                                field: FieldId::from_raw(field),
                            },
                            Reason::Caught => Derivation::Caught,
                        };
                        (tuple(&self.objs, key, obj), d)
                    })
                    .collect(),
            )
        } else {
            None
        };

        let mut uncaught: Vec<HeapId> = {
            let entries: FxHashSet<u32> = self
                .program
                .entry_points()
                .iter()
                .map(|m| m.raw())
                .collect();
            let mut set: FxHashSet<HeapId> = FxHashSet::default();
            for (&frame, escapes) in &self.throws {
                if entries.contains(&frames[frame as usize].0) {
                    for obj in escapes.objs.iter() {
                        set.insert(HeapId::from_raw(self.objs.resolve(obj).0));
                    }
                }
            }
            set.into_iter().collect()
        };
        uncaught.sort_unstable();

        let fld_provenance = if self.config.track_provenance {
            Some(
                self.fld_provenance
                    .iter()
                    .map(|(&(fe, val_obj), &src_key)| {
                        let (base_obj, field) = self.fkeys.resolve(fe);
                        let (bh, bhc) = self.objs.resolve(base_obj);
                        let (h, hc) = self.objs.resolve(val_obj);
                        (
                            (
                                HeapId::from_raw(bh),
                                HCtxId::from_raw(bhc),
                                FieldId::from_raw(field),
                                HeapId::from_raw(h),
                                HCtxId::from_raw(hc),
                            ),
                            tuple(&self.objs, src_key, val_obj),
                        )
                    })
                    .collect(),
            )
        } else {
            None
        };
        let static_fld_provenance = if self.config.track_provenance {
            Some(
                self.static_fld_provenance
                    .iter()
                    .map(|(&(fld, val_obj), &src_key)| {
                        let (h, hc) = self.objs.resolve(val_obj);
                        (
                            (
                                FieldId::from_raw(fld),
                                HeapId::from_raw(h),
                                HCtxId::from_raw(hc),
                            ),
                            tuple(&self.objs, src_key, val_obj),
                        )
                    })
                    .collect(),
            )
        } else {
            None
        };

        let (ctx_interner, hctx_interner, demoted) = if retain {
            (
                self.ctxs.clone(),
                self.hctxs.clone(),
                self.demoted_sites.clone(),
            )
        } else {
            (
                std::mem::take(&mut self.ctxs),
                std::mem::take(&mut self.hctxs),
                std::mem::take(&mut self.demoted_sites),
            )
        };

        PointsToResult {
            var_points_to,
            call_targets,
            reachable,
            ctx_vpt_count,
            ctx_call_graph_edges: self.stats.call_edges,
            ctx_reachable_count: self.reachable.len() as u64,
            tuples,
            provenance,
            fld_provenance,
            static_fld_provenance,
            uncaught,
            field_points_to,
            static_points_to,
            ctx_interner,
            hctx_interner,
            stats: self.stats,
            termination,
            demoted,
            profile,
        }
    }
}
