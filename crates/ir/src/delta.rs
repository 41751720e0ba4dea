//! Program edits: [`ProgramDelta`] describes a batch of changes against a
//! frozen [`Program`], and [`Program::apply_delta`] produces the edited
//! program without disturbing any existing ID.
//!
//! A delta is built against a specific *base* program (captured as the
//! sizes of every ID space). New classes, signatures, fields, methods,
//! variables, allocation sites and invocation sites are appended to the
//! base arenas, so **every ID valid in the base program remains valid —
//! and means the same thing — in the edited program**. This append-only
//! discipline is what lets a long-lived analysis session keep its
//! interned keys across edits (see `pta-core`'s incremental solver).
//!
//! Removals are deliberately conservative:
//!
//! - [`ProgramDelta::remove_instr`] removes one instruction from a base
//!   method's body (by index into the *base* body). Orphaned invocation
//!   and allocation sites stay in their arenas — they are simply no
//!   longer referenced, which validation permits.
//! - [`ProgramDelta::clear_method`] empties a method's body (and drops it
//!   from the entry points). The method itself stays declared, so
//!   dispatch tables — `Lookup` — are unchanged: calls to it still
//!   resolve, they just reach an empty body.
//!
//! Entire methods are never deleted from the arena and added methods on
//! *existing* classes may override inherited signatures, which changes
//! `Lookup` for old receivers; `pta-core` detects that case and falls
//! back to a full re-solve (the hierarchy is rebuilt here either way).
//!
//! Names follow the same append-only rule. A delta keeps the names and
//! labels of its new entities in a name arena of its own, and their
//! formals and argument lists in a flat list of its own, with spans
//! counted from the start of each. Applying the delta appends both to the
//! program's arenas and rebases every new span by the program's arena
//! lengths at that moment. Interning against the base (`class`, `sig`) looks names up in a
//! snapshot of the base's class and signature names, taken once in
//! [`ProgramDelta::new`] into one buffer.

use crate::hash::FxHashMap;
use crate::hierarchy::Hierarchy;
use crate::ids::{FieldId, HeapId, InvoId, MethodId, SigId, TypeId, VarId};
use crate::names::{name_hash, NameIndex, Span};
use crate::program::{
    FieldInfo, HeapInfo, Instr, InvoInfo, InvoKind, MethodInfo, Program, SigInfo, TypeInfo, VarInfo,
};
use crate::srcloc::SrcLoc;
use crate::validate::{
    check_catch_binder, check_entry_point, check_instr, EntityView, ValidateError,
};

/// Why a delta could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The delta was built against a program with different ID-space
    /// sizes than the one it is being applied to.
    StaleBase,
    /// `remove_instr` named an index outside the method's base body.
    BadRemoveIndex {
        /// The method whose body was edited.
        method: MethodId,
        /// The offending instruction index.
        index: usize,
        /// The base body length.
        body_len: usize,
    },
    /// The edited program failed well-formedness validation.
    Invalid(ValidateError),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::StaleBase => {
                write!(f, "delta was built against a different base program")
            }
            DeltaError::BadRemoveIndex {
                method,
                index,
                body_len,
            } => write!(
                f,
                "remove_instr index {index} out of range for {method} (body has {body_len} instructions)"
            ),
            DeltaError::Invalid(e) => write!(f, "edited program is ill-formed: {e}"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<ValidateError> for DeltaError {
    fn from(e: ValidateError) -> DeltaError {
        DeltaError::Invalid(e)
    }
}

/// Sizes of every ID space of the base program; the compatibility stamp
/// checked by [`Program::apply_delta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BaseCounts {
    types: usize,
    fields: usize,
    sigs: usize,
    methods: usize,
    vars: usize,
    heaps: usize,
    invos: usize,
}

impl BaseCounts {
    fn of(p: &Program) -> BaseCounts {
        BaseCounts {
            types: p.type_count(),
            fields: p.field_count(),
            sigs: p.sig_count(),
            methods: p.method_count(),
            vars: p.var_count(),
            heaps: p.heap_count(),
            invos: p.invo_count(),
        }
    }
}

/// A batch of edits against a base [`Program`].
///
/// Build one with [`ProgramDelta::new`], record edits with the same
/// vocabulary as [`crate::ProgramBuilder`] (new entities get provisional
/// IDs that continue the base numbering), then apply it with
/// [`Program::apply_delta`]. A delta may be applied to any program with
/// the same ID-space sizes as its base — in practice, the program it was
/// built from.
///
/// # Example
///
/// ```
/// use pta_ir::{ProgramBuilder, ProgramDelta};
///
/// let mut b = ProgramBuilder::new();
/// let object = b.class("Object", None);
/// let c = b.class("C", Some(object));
/// let main = b.method(c, "main", &[], true);
/// let v = b.var(main, "v");
/// b.alloc(main, v, c, "new C");
/// b.entry_point(main);
/// let base = b.finish()?;
///
/// let mut d = ProgramDelta::new(&base);
/// let w = d.var(main, "w");
/// d.move_(main, w, v);
/// let edited = base.apply_delta(&d).unwrap();
/// assert_eq!(edited.var_count(), base.var_count() + 1);
/// assert_eq!(edited.instrs(main).len(), 2);
/// # Ok::<(), pta_ir::ValidateError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ProgramDelta {
    base: BaseCounts,
    /// Names and labels of the appended entities; spans count from 0 and
    /// are rebased when the delta is applied.
    names: String,
    /// Formals of the appended methods and actual arguments of the
    /// appended invocation sites, likewise.
    var_lists: Vec<VarId>,
    // Appended entities (IDs continue the base numbering).
    new_types: Vec<TypeInfo>,
    new_fields: Vec<FieldInfo>,
    new_sigs: Vec<SigInfo>,
    new_methods: Vec<MethodInfo>,
    new_vars: Vec<VarInfo>,
    new_heaps: Vec<HeapInfo>,
    new_invos: Vec<InvoInfo>,
    // Body edits, in recording order.
    appends: Vec<(MethodId, Instr)>,
    removals: Vec<(MethodId, usize)>,
    cleared: Vec<MethodId>,
    new_catches: Vec<(MethodId, TypeId, VarId)>,
    add_entries: Vec<MethodId>,
    remove_entries: Vec<MethodId>,
    // Interning against the base and the pending entities. The base's
    // class and signature names are copied into `base_names`, with their
    // spans in `base_types`/`base_sigs`.
    base_names: String,
    base_types: Vec<Span>,
    base_sigs: Vec<(Span, usize)>,
    /// Base and appended classes by name.
    type_by_name: NameIndex,
    /// Base and appended signatures by `(name, arity)`.
    sig_by_key: NameIndex,
    /// Appended fields by `(owner, name)`.
    field_by_key: NameIndex,
}

impl ProgramDelta {
    /// Starts an empty delta against `base`.
    #[must_use]
    pub fn new(base: &Program) -> ProgramDelta {
        let mut base_names = String::new();
        let mut type_by_name = NameIndex::default();
        let base_types = base
            .types()
            .map(|t| {
                let name = base.type_name(t);
                type_by_name.insert(name_hash(name, 0), t.index());
                Span::push_str(&mut base_names, name)
            })
            .collect();
        let mut sig_by_key = NameIndex::default();
        let base_sigs = base
            .sigs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let name = s.name.str(&base.names);
                sig_by_key.insert(name_hash(name, s.arity), i);
                (Span::push_str(&mut base_names, name), s.arity)
            })
            .collect();
        ProgramDelta {
            base: BaseCounts::of(base),
            names: String::new(),
            var_lists: Vec::new(),
            new_types: Vec::new(),
            new_fields: Vec::new(),
            new_sigs: Vec::new(),
            new_methods: Vec::new(),
            new_vars: Vec::new(),
            new_heaps: Vec::new(),
            new_invos: Vec::new(),
            appends: Vec::new(),
            removals: Vec::new(),
            cleared: Vec::new(),
            new_catches: Vec::new(),
            add_entries: Vec::new(),
            remove_entries: Vec::new(),
            base_names,
            base_types,
            base_sigs,
            type_by_name,
            sig_by_key,
            field_by_key: NameIndex::default(),
        }
    }

    /// `true` if the delta records no edits at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.new_types.is_empty()
            && self.new_fields.is_empty()
            && self.new_sigs.is_empty()
            && self.new_methods.is_empty()
            && self.new_vars.is_empty()
            && self.new_heaps.is_empty()
            && self.new_invos.is_empty()
            && self.appends.is_empty()
            && self.removals.is_empty()
            && self.cleared.is_empty()
            && self.new_catches.is_empty()
            && self.add_entries.is_empty()
            && self.remove_entries.is_empty()
    }

    /// `true` if the delta removes anything (instructions, bodies or
    /// entry points) — the cases that require derivation retraction.
    #[must_use]
    pub fn has_retractions(&self) -> bool {
        !self.removals.is_empty() || !self.cleared.is_empty() || !self.remove_entries.is_empty()
    }

    /// Number of methods in the base program this delta was built from.
    #[must_use]
    pub fn base_method_count(&self) -> usize {
        self.base.methods
    }

    /// Entry points added by this delta.
    #[must_use]
    pub fn added_entry_points(&self) -> &[MethodId] {
        &self.add_entries
    }

    /// Instructions appended to *base* methods, in recording order.
    /// (Bodies of methods declared by this delta are not listed — they
    /// are whole new methods, reached through the normal call rules.)
    #[must_use]
    pub fn appended_instrs(&self) -> &[(MethodId, Instr)] {
        &self.appends
    }

    /// Catch clauses added to base methods.
    #[must_use]
    pub fn added_catches(&self) -> &[(MethodId, TypeId, VarId)] {
        &self.new_catches
    }

    /// `true` when the delta declares a method on a *base* type under a
    /// *base* signature. Such a method may override an inherited one, so
    /// `Lookup` can change for receivers that already exist — the one
    /// additive edit that silently retracts old virtual-dispatch
    /// derivations. Incremental maintenance falls back to a full
    /// re-solve when this returns `true`.
    #[must_use]
    pub fn may_change_base_dispatch(&self) -> bool {
        self.new_methods
            .iter()
            .any(|m| m.declaring.index() < self.base.types && m.sig.index() < self.base.sigs)
    }

    // ----- interning helpers ----------------------------------------------

    fn type_index(&self, ty: TypeId) -> usize {
        let i = ty.index();
        assert!(
            i < self.base.types + self.new_types.len(),
            "type {ty} out of range for this delta"
        );
        i
    }

    fn method_info(&mut self, meth: MethodId) -> &mut MethodInfo {
        let i = meth.index();
        assert!(
            i >= self.base.methods,
            "method {meth} belongs to the base program; record body edits via append/remove ops"
        );
        &mut self.new_methods[i - self.base.methods]
    }

    fn is_new_method(&self, meth: MethodId) -> bool {
        meth.index() >= self.base.methods
    }

    /// Appends `instr` to `meth` — into the new-method skeleton for
    /// methods declared by this delta, or the edit list for base methods.
    fn push_instr(&mut self, meth: MethodId, instr: Instr) {
        if self.is_new_method(meth) {
            self.method_info(meth).instrs.push(instr);
        } else {
            self.appends.push((meth, instr));
        }
    }

    // ----- declarations (mirroring ProgramBuilder) ------------------------

    /// Declares a class (or returns the existing/pending ID by name).
    ///
    /// # Panics
    ///
    /// Panics if the name exists with a different parent.
    pub fn class(&mut self, name: &str, parent: Option<TypeId>) -> TypeId {
        let hash = name_hash(name, 0);
        let found = self
            .type_by_name
            .find(hash, |i| match i.checked_sub(self.base.types) {
                None => self.base_types[i].str(&self.base_names) == name,
                Some(pos) => self.new_types[pos].name.str(&self.names) == name,
            });
        if let Some(i) = found {
            if let Some(pos) = i.checked_sub(self.base.types) {
                assert_eq!(
                    self.new_types[pos].parent, parent,
                    "class {name} redeclared with a different parent"
                );
            }
            return TypeId::from_index(i);
        }
        if let Some(p) = parent {
            self.type_index(p);
        }
        let id = TypeId::from_index(self.base.types + self.new_types.len());
        self.new_types.push(TypeInfo {
            name: Span::push_str(&mut self.names, name),
            parent,
        });
        self.type_by_name.insert(hash, id.index());
        id
    }

    /// Interns a signature `(name, arity)` against the base and pending
    /// signatures.
    pub fn sig(&mut self, name: &str, arity: usize) -> SigId {
        let hash = name_hash(name, arity);
        let found = self
            .sig_by_key
            .find(hash, |i| match i.checked_sub(self.base.sigs) {
                None => {
                    let (span, a) = self.base_sigs[i];
                    a == arity && span.str(&self.base_names) == name
                }
                Some(pos) => {
                    let s = &self.new_sigs[pos];
                    s.arity == arity && s.name.str(&self.names) == name
                }
            });
        if let Some(i) = found {
            return SigId::from_index(i);
        }
        let id = SigId::from_index(self.base.sigs + self.new_sigs.len());
        self.new_sigs.push(SigInfo {
            name: Span::push_str(&mut self.names, name),
            arity,
        });
        self.sig_by_key.insert(hash, id.index());
        id
    }

    /// Declares a new instance field `owner.name`.
    pub fn field(&mut self, owner: TypeId, name: &str) -> FieldId {
        self.field_impl(owner, name, false)
    }

    /// Declares a new static field `owner.name`.
    pub fn static_field(&mut self, owner: TypeId, name: &str) -> FieldId {
        self.field_impl(owner, name, true)
    }

    fn field_impl(&mut self, owner: TypeId, name: &str, is_static: bool) -> FieldId {
        self.type_index(owner);
        let hash = name_hash(name, owner.index());
        let found = self.field_by_key.find(hash, |pos| {
            let f = &self.new_fields[pos];
            f.owner == owner && f.name.str(&self.names) == name
        });
        if let Some(pos) = found {
            assert_eq!(
                self.new_fields[pos].is_static, is_static,
                "field {name} redeclared with different staticness"
            );
            return FieldId::from_index(self.base.fields + pos);
        }
        let id = FieldId::from_index(self.base.fields + self.new_fields.len());
        self.field_by_key.insert(hash, self.new_fields.len());
        self.new_fields.push(FieldInfo {
            name: Span::push_str(&mut self.names, name),
            owner,
            is_static,
        });
        id
    }

    /// Declares a new method on `declaring`; instance methods implicitly
    /// receive a fresh `this` variable.
    pub fn method(
        &mut self,
        declaring: TypeId,
        name: &str,
        params: &[&str],
        is_static: bool,
    ) -> MethodId {
        self.type_index(declaring);
        let sig = self.sig(name, params.len());
        let id = MethodId::from_index(self.base.methods + self.new_methods.len());
        self.new_methods.push(MethodInfo {
            declaring,
            sig,
            is_static,
            this: None,
            formals: Span::default(),
            ret: None,
            instrs: Vec::new(),
            instr_locs: Vec::new(),
            loc: SrcLoc::UNKNOWN,
            catches: Vec::new(),
        });
        if !is_static {
            let this = self.var(id, "this");
            self.method_info(id).this = Some(this);
        }
        let start = self.var_lists.len();
        for p in params {
            let v = self.var(id, p);
            self.var_lists.push(v);
        }
        self.method_info(id).formals = Span::since(&self.var_lists, start);
        id
    }

    /// Declares a fresh local variable in `meth` (base or new method).
    pub fn var(&mut self, meth: MethodId, name: &str) -> VarId {
        assert!(
            meth.index() < self.base.methods + self.new_methods.len(),
            "method {meth} out of range for this delta"
        );
        let id = VarId::from_index(self.base.vars + self.new_vars.len());
        self.new_vars.push(VarInfo {
            name: Span::push_str(&mut self.names, name),
            method: meth,
        });
        id
    }

    /// Marks `var` as the return variable of a method *declared by this
    /// delta* (base methods keep their return variable).
    pub fn set_return(&mut self, meth: MethodId, var: VarId) {
        self.method_info(meth).ret = Some(var);
    }

    /// The formal parameters of a method declared by this delta.
    #[must_use]
    pub fn formals(&self, meth: MethodId) -> &[VarId] {
        assert!(self.is_new_method(meth), "formals only for delta methods");
        self.new_methods[meth.index() - self.base.methods]
            .formals
            .slice(&self.var_lists)
    }

    /// Registers `meth` as an additional entry point.
    pub fn entry_point(&mut self, meth: MethodId) {
        self.add_entries.push(meth);
    }

    /// Removes `meth` from the entry points (if present).
    pub fn remove_entry_point(&mut self, meth: MethodId) {
        self.remove_entries.push(meth);
    }

    // ----- instructions ----------------------------------------------------

    /// Appends `var = new ty`; returns the fresh allocation site.
    pub fn alloc(&mut self, meth: MethodId, var: VarId, ty: TypeId, label: &str) -> HeapId {
        self.type_index(ty);
        let heap = HeapId::from_index(self.base.heaps + self.new_heaps.len());
        self.new_heaps.push(HeapInfo {
            label: Span::push_str(&mut self.names, label),
            ty,
            method: meth,
        });
        self.push_instr(meth, Instr::Alloc { var, heap });
        heap
    }

    /// Appends `to = from`.
    pub fn move_(&mut self, meth: MethodId, to: VarId, from: VarId) {
        self.push_instr(meth, Instr::Move { to, from });
    }

    /// Appends `to = (ty) from`.
    pub fn cast(&mut self, meth: MethodId, to: VarId, from: VarId, ty: TypeId) {
        self.type_index(ty);
        self.push_instr(meth, Instr::Cast { to, from, ty });
    }

    /// Appends `to = base.field`.
    pub fn load(&mut self, meth: MethodId, to: VarId, base: VarId, field: FieldId) {
        self.push_instr(meth, Instr::Load { to, base, field });
    }

    /// Appends `base.field = from`.
    pub fn store(&mut self, meth: MethodId, base: VarId, field: FieldId, from: VarId) {
        self.push_instr(meth, Instr::Store { base, field, from });
    }

    /// Appends `to = Class.field`.
    pub fn sload(&mut self, meth: MethodId, to: VarId, field: FieldId) {
        self.push_instr(meth, Instr::SLoad { to, field });
    }

    /// Appends `Class.field = from`.
    pub fn sstore(&mut self, meth: MethodId, field: FieldId, from: VarId) {
        self.push_instr(meth, Instr::SStore { field, from });
    }

    /// Appends `throw var`.
    pub fn throw(&mut self, meth: MethodId, var: VarId) {
        self.push_instr(meth, Instr::Throw { var });
    }

    /// Adds a catch clause to `meth`; returns the fresh binder variable.
    pub fn catch_clause(&mut self, meth: MethodId, ty: TypeId, name: &str) -> VarId {
        self.type_index(ty);
        let var = self.var(meth, name);
        if self.is_new_method(meth) {
            self.method_info(meth).catches.push((ty, var));
        } else {
            self.new_catches.push((meth, ty, var));
        }
        var
    }

    /// Appends a virtual call; returns the fresh invocation site.
    pub fn vcall(
        &mut self,
        meth: MethodId,
        base: VarId,
        name: &str,
        args: &[VarId],
        ret: Option<VarId>,
        label: &str,
    ) -> InvoId {
        let sig = self.sig(name, args.len());
        let invo = InvoId::from_index(self.base.invos + self.new_invos.len());
        self.new_invos.push(InvoInfo {
            label: Span::push_str(&mut self.names, label),
            method: meth,
            kind: InvoKind::Virtual,
            args: Span::push_slice(&mut self.var_lists, args),
            ret,
        });
        self.push_instr(meth, Instr::VCall { base, sig, invo });
        invo
    }

    /// Appends a static call; returns the fresh invocation site.
    pub fn scall(
        &mut self,
        meth: MethodId,
        target: MethodId,
        args: &[VarId],
        ret: Option<VarId>,
        label: &str,
    ) -> InvoId {
        let invo = InvoId::from_index(self.base.invos + self.new_invos.len());
        self.new_invos.push(InvoInfo {
            label: Span::push_str(&mut self.names, label),
            method: meth,
            kind: InvoKind::Static,
            args: Span::push_slice(&mut self.var_lists, args),
            ret,
        });
        self.push_instr(meth, Instr::SCall { target, invo });
        invo
    }

    // ----- removals --------------------------------------------------------

    /// Removes the `index`-th instruction of `meth`'s *base* body. The
    /// orphaned allocation/invocation site (if any) stays in its arena.
    pub fn remove_instr(&mut self, meth: MethodId, index: usize) {
        assert!(
            !self.is_new_method(meth),
            "remove_instr targets base methods only"
        );
        self.removals.push((meth, index));
    }

    /// Empties `meth`'s body (and catch clauses), and drops it from the
    /// entry points. The method stays declared: dispatch is unchanged.
    pub fn clear_method(&mut self, meth: MethodId) {
        assert!(
            !self.is_new_method(meth),
            "clear_method targets base methods only"
        );
        self.cleared.push(meth);
        self.remove_entries.push(meth);
    }
}

/// Overlay view of a base program plus a pending delta: IDs below the
/// base counts resolve in the base arenas, appended IDs in the delta's
/// pending lists. This is what lets a delta be validated *before* it is
/// applied, which in turn is what makes [`Program::apply_delta_in_place`]
/// safe — nothing can fail once mutation starts.
struct DeltaView<'a> {
    base: &'a Program,
    delta: &'a ProgramDelta,
}

impl EntityView for DeltaView<'_> {
    fn var_method(&self, var: VarId) -> MethodId {
        match var.index().checked_sub(self.delta.base.vars) {
            None => self.base.var_method(var),
            Some(i) => self.delta.new_vars[i].method,
        }
    }
    fn field_is_static(&self, field: FieldId) -> bool {
        match field.index().checked_sub(self.delta.base.fields) {
            None => self.base.field_is_static(field),
            Some(i) => self.delta.new_fields[i].is_static,
        }
    }
    fn invo_kind(&self, invo: InvoId) -> InvoKind {
        match invo.index().checked_sub(self.delta.base.invos) {
            None => self.base.invo_kind(invo),
            Some(i) => self.delta.new_invos[i].kind,
        }
    }
    fn actual_args(&self, invo: InvoId) -> &[VarId] {
        match invo.index().checked_sub(self.delta.base.invos) {
            None => self.base.actual_args(invo),
            Some(i) => self.delta.new_invos[i].args.slice(&self.delta.var_lists),
        }
    }
    fn actual_return(&self, invo: InvoId) -> Option<VarId> {
        match invo.index().checked_sub(self.delta.base.invos) {
            None => self.base.actual_return(invo),
            Some(i) => self.delta.new_invos[i].ret,
        }
    }
    fn sig_arity(&self, sig: SigId) -> usize {
        match sig.index().checked_sub(self.delta.base.sigs) {
            None => self.base.sig_arity(sig),
            Some(i) => self.delta.new_sigs[i].arity,
        }
    }
    fn method_is_static(&self, meth: MethodId) -> bool {
        match meth.index().checked_sub(self.delta.base.methods) {
            None => self.base.method_is_static(meth),
            Some(i) => self.delta.new_methods[i].is_static,
        }
    }
    fn formals_len(&self, meth: MethodId) -> usize {
        match meth.index().checked_sub(self.delta.base.methods) {
            None => self.base.formals(meth).len(),
            Some(i) => self.delta.new_methods[i].formals.len(),
        }
    }
}

/// Validates everything `delta` contributes to the edited program —
/// stale-base stamp, removal indices, entry points, appended
/// instructions, new method bodies, new catch clauses — against the
/// *unmodified* base. Every check the full [`crate::validate`] pass
/// would make on the edited program is either made here or holds by
/// induction (base entities were validated when the base was frozen).
fn validate_delta(base: &Program, delta: &ProgramDelta) -> Result<(), DeltaError> {
    if BaseCounts::of(base) != delta.base {
        return Err(DeltaError::StaleBase);
    }

    for &(m, idx) in &delta.removals {
        if delta.cleared.contains(&m) {
            continue; // the whole body is gone anyway
        }
        let body_len = base.instrs(m).len();
        if idx >= body_len {
            return Err(DeltaError::BadRemoveIndex {
                method: m,
                index: idx,
                body_len,
            });
        }
    }

    let view = DeltaView { base, delta };
    let keeps_base_entry = base
        .entry_points()
        .iter()
        .any(|m| !delta.remove_entries.contains(m));
    if !keeps_base_entry && delta.add_entries.is_empty() {
        return Err(ValidateError::NoEntryPoint.into());
    }
    for &m in &delta.add_entries {
        check_entry_point(&view, m)?;
    }

    for &(m, instr) in &delta.appends {
        check_instr(&view, m, &instr)?;
    }
    for (i, info) in delta.new_methods.iter().enumerate() {
        let id = MethodId::from_index(delta.base.methods + i);
        for instr in &info.instrs {
            check_instr(&view, id, instr)?;
        }
        for &(_, binder) in &info.catches {
            check_catch_binder(&view, id, binder)?;
        }
    }
    for &(m, _ty, binder) in &delta.new_catches {
        check_catch_binder(&view, m, binder)?;
    }
    Ok(())
}

impl Program {
    /// Applies `delta`, producing the edited program. The base program is
    /// untouched; every base ID remains valid in the result.
    ///
    /// # Errors
    ///
    /// [`DeltaError::StaleBase`] if the delta was built against a program
    /// with different ID-space sizes, [`DeltaError::BadRemoveIndex`] for
    /// out-of-range removals, and [`DeltaError::Invalid`] if the edited
    /// program would fail validation.
    pub fn apply_delta(&self, delta: &ProgramDelta) -> Result<Program, DeltaError> {
        validate_delta(self, delta)?;
        let mut program = self.clone();
        program.apply_validated(delta);
        Ok(program)
    }

    /// Applies `delta` by mutating this program directly — no arena
    /// clones. The long-lived session uses this when it holds the only
    /// reference to the current version, which is the common case for an
    /// edit-apply loop; any caller that kept a handle to an old version
    /// forces the cloning path instead, so old versions are never
    /// disturbed.
    ///
    /// All validation runs before the first mutation, so on `Err` the
    /// program is guaranteed unchanged.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Program::apply_delta`].
    pub fn apply_delta_in_place(&mut self, delta: &ProgramDelta) -> Result<(), DeltaError> {
        validate_delta(self, delta)?;
        self.apply_validated(delta);
        Ok(())
    }

    /// The mutation half of delta application; `delta` must already have
    /// passed [`validate_delta`]. Infallible by construction.
    fn apply_validated(&mut self, delta: &ProgramDelta) {
        // The delta's spans count from the start of its own arenas; after
        // the append they start where this program's arenas ended.
        let at = self.names.len();
        let lists_at = self.var_lists.len();
        self.names.push_str(&delta.names);
        self.var_lists.extend_from_slice(&delta.var_lists);
        let rebase = |name: Span| name.rebase(at);
        self.types.extend(delta.new_types.iter().map(|t| TypeInfo {
            name: rebase(t.name),
            ..*t
        }));
        self.fields
            .extend(delta.new_fields.iter().map(|f| FieldInfo {
                name: rebase(f.name),
                ..*f
            }));
        self.sigs.extend(delta.new_sigs.iter().map(|s| SigInfo {
            name: rebase(s.name),
            ..*s
        }));
        self.methods
            .extend(delta.new_methods.iter().map(|m| MethodInfo {
                formals: m.formals.rebase(lists_at),
                ..m.clone()
            }));
        self.vars.extend(delta.new_vars.iter().map(|v| VarInfo {
            name: rebase(v.name),
            ..*v
        }));
        self.heaps.extend(delta.new_heaps.iter().map(|h| HeapInfo {
            label: rebase(h.label),
            ..*h
        }));
        self.invos.extend(delta.new_invos.iter().map(|i| InvoInfo {
            label: rebase(i.label),
            args: i.args.rebase(lists_at),
            ..*i
        }));

        for &m in &delta.cleared {
            let info = &mut self.methods[m.index()];
            info.instrs.clear();
            info.instr_locs.clear();
            info.catches.clear();
        }
        // Group removals per method and delete from highest index down so
        // earlier removals don't shift later ones. (Removals run before
        // appends, so the indices still address the base body here.)
        let mut by_method: FxHashMap<MethodId, Vec<usize>> = FxHashMap::default();
        for &(m, idx) in &delta.removals {
            if delta.cleared.contains(&m) {
                continue;
            }
            by_method.entry(m).or_default().push(idx);
        }
        for (m, mut idxs) in by_method {
            idxs.sort_unstable();
            idxs.dedup();
            let info = &mut self.methods[m.index()];
            for &i in idxs.iter().rev() {
                info.instrs.remove(i);
                if i < info.instr_locs.len() {
                    info.instr_locs.remove(i);
                }
            }
        }
        for &(m, instr) in &delta.appends {
            self.methods[m.index()].instrs.push(instr);
        }
        for &(m, ty, var) in &delta.new_catches {
            self.methods[m.index()].catches.push((ty, var));
        }

        self.entry_points
            .retain(|m| !delta.remove_entries.contains(m));
        for &m in &delta.add_entries {
            if !self.entry_points.contains(&m) {
                self.entry_points.push(m);
            }
        }

        // Method bodies don't affect subtyping or dispatch, so the
        // hierarchy only needs rebuilding when declarations were added.
        if !delta.new_types.is_empty() || !delta.new_methods.is_empty() {
            self.hierarchy = Hierarchy::build(&self.types, &self.methods);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProgramBuilder;

    fn base() -> (Program, MethodId, VarId, TypeId) {
        let mut b = ProgramBuilder::new();
        let object = b.class("Object", None);
        let c = b.class("C", Some(object));
        let main = b.method(c, "main", &[], true);
        let v = b.var(main, "v");
        b.alloc(main, v, c, "new C");
        b.entry_point(main);
        (b.finish().unwrap(), main, v, c)
    }

    #[test]
    fn appended_entities_extend_id_spaces_stably() {
        let (p, main, v, c) = base();
        let mut d = ProgramDelta::new(&p);
        let w = d.var(main, "w");
        d.move_(main, w, v);
        let h = d.alloc(main, w, c, "new C 2");
        let edited = p.apply_delta(&d).unwrap();
        assert_eq!(w.index(), p.var_count());
        assert_eq!(h.index(), p.heap_count());
        assert_eq!(edited.var_count(), p.var_count() + 1);
        assert_eq!(edited.heap_count(), p.heap_count() + 1);
        // Base IDs mean the same thing.
        assert_eq!(edited.var_name(v), p.var_name(v));
        assert_eq!(edited.instrs(main).len(), 3);
        // The base program is untouched.
        assert_eq!(p.instrs(main).len(), 1);
    }

    #[test]
    fn new_class_method_and_call_validate() {
        let (p, main, _v, c) = base();
        let mut d = ProgramDelta::new(&p);
        let sub = d.class("Sub", Some(c));
        let helper = d.method(sub, "freshHelper", &["x"], true);
        let x = d.formals(helper)[0];
        d.set_return(helper, x);
        let r = d.var(main, "r");
        let a = d.var(main, "a");
        d.alloc(main, a, sub, "new Sub");
        d.scall(main, helper, &[a], Some(r), "call helper");
        let edited = p.apply_delta(&d).unwrap();
        assert_eq!(edited.type_count(), p.type_count() + 1);
        assert_eq!(edited.method_count(), p.method_count() + 1);
        assert_eq!(edited.invo_count(), p.invo_count() + 1);
        assert!(edited.method_is_static(helper));
    }

    #[test]
    fn remove_instr_deletes_by_base_index() {
        let (p, main, v, c) = base();
        let mut d = ProgramDelta::new(&p);
        d.remove_instr(main, 0);
        let w = d.var(main, "w");
        d.alloc(main, w, c, "replacement");
        let edited = p.apply_delta(&d).unwrap();
        assert_eq!(edited.instrs(main).len(), 1);
        assert!(matches!(
            edited.instrs(main)[0],
            Instr::Alloc { var, .. } if var == w
        ));
        let _ = v;
    }

    #[test]
    fn clear_method_empties_body_but_keeps_dispatch() {
        let mut b = ProgramBuilder::new();
        let object = b.class("Object", None);
        let c = b.class("C", Some(object));
        let run = b.method(c, "run", &[], false);
        let rv = b.var(run, "rv");
        b.alloc(run, rv, c, "inner");
        let main = b.method(c, "main", &[], true);
        let recv = b.var(main, "recv");
        b.alloc(main, recv, c, "new C");
        b.vcall(main, recv, "run", &[], None, "call run");
        b.entry_point(main);
        let p = b.finish().unwrap();

        let mut d = ProgramDelta::new(&p);
        d.clear_method(run);
        let edited = p.apply_delta(&d).unwrap();
        assert!(edited.instrs(run).is_empty());
        // Dispatch still resolves: the method is declared, just empty.
        let sig = edited.method_sig(run);
        assert_eq!(edited.lookup(c, sig), Some(run));
    }

    #[test]
    fn stale_base_and_bad_index_are_rejected() {
        let (p, main, v, c) = base();
        let mut grow = ProgramDelta::new(&p);
        let w = grow.var(main, "w");
        grow.move_(main, w, v);
        let p2 = p.apply_delta(&grow).unwrap();

        // A delta built against p cannot be applied to p2.
        let mut stale = ProgramDelta::new(&p);
        let x = stale.var(main, "x");
        stale.alloc(main, x, c, "h");
        assert_eq!(p2.apply_delta(&stale).unwrap_err(), DeltaError::StaleBase);

        let mut bad = ProgramDelta::new(&p);
        bad.remove_instr(main, 7);
        assert!(matches!(
            p.apply_delta(&bad).unwrap_err(),
            DeltaError::BadRemoveIndex { index: 7, .. }
        ));
    }

    #[test]
    fn removing_the_only_entry_point_fails_validation() {
        let (p, main, _v, _c) = base();
        let mut d = ProgramDelta::new(&p);
        d.remove_entry_point(main);
        assert!(matches!(
            p.apply_delta(&d).unwrap_err(),
            DeltaError::Invalid(ValidateError::NoEntryPoint)
        ));
    }

    #[test]
    fn appended_names_and_lists_are_rebased_onto_the_program() {
        let (p, main, v, c) = base();
        let mut d = ProgramDelta::new(&p);
        assert_eq!(d.class("C", None), c, "base classes intern by name");
        let sub = d.class("Sub", Some(c));
        let helper = d.method(sub, "helper", &["a", "b"], true);
        let (a, b) = (d.formals(helper)[0], d.formals(helper)[1]);
        d.set_return(helper, b);
        d.move_(helper, a, b);
        let r = d.var(main, "r");
        let invo = d.scall(main, helper, &[v, v], Some(r), "call helper");
        let heap = d.alloc(main, r, sub, "new Sub");
        let check = |edited: &Program| {
            assert_eq!(edited.type_name(sub), "Sub");
            assert_eq!(edited.method_qualified_name(helper), "Sub.helper");
            assert_eq!(edited.formals(helper), &[a, b]);
            assert_eq!((edited.var_name(a), edited.var_name(b)), ("a", "b"));
            assert_eq!(edited.var_name(r), "r");
            assert_eq!(edited.invo_label(invo), "call helper");
            assert_eq!(edited.actual_args(invo), &[v, v]);
            assert_eq!(edited.heap_label(heap), "new Sub");
            // Base names keep their meaning.
            assert_eq!(edited.var_name(v), "v");
            assert_eq!(edited.heap_label(HeapId::from_index(0)), "new C");
        };
        check(&p.apply_delta(&d).unwrap());
        let mut in_place = p.clone();
        in_place.apply_delta_in_place(&d).unwrap();
        check(&in_place);

        // A second delta on the edited program rebases past the first.
        let edited = p.apply_delta(&d).unwrap();
        let mut d2 = ProgramDelta::new(&edited);
        assert_eq!(d2.class("Sub", None), sub, "appended classes intern too");
        let w = d2.var(helper, "w");
        let again = edited.apply_delta(&d2).unwrap();
        assert_eq!(again.var_name(w), "w");
        assert_eq!(again.formals(helper), &[a, b]);
        assert_eq!(again.method_qualified_name(helper), "Sub.helper");
    }

    #[test]
    fn empty_delta_roundtrips() {
        let (p, main, _v, _c) = base();
        let d = ProgramDelta::new(&p);
        assert!(d.is_empty());
        assert!(!d.has_retractions());
        let edited = p.apply_delta(&d).unwrap();
        assert_eq!(edited.instr_count(), p.instr_count());
        assert_eq!(edited.entry_points(), p.entry_points());
        let _ = main;
    }
}
