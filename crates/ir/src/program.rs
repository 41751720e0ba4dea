//! The program representation: classes, fields, methods, variables,
//! allocation sites, invocation sites and instructions.
//!
//! A [`Program`] is an immutable, fully-resolved module. It owns dense
//! arenas for every ID space of the paper's Figure 1 and exposes the
//! symbol-table relations (`FormalArg`, `ActualArg`, `FormalReturn`,
//! `ActualReturn`, `ThisVar`, `HeapType`, `Lookup`) as accessors. Programs
//! are built with [`crate::ProgramBuilder`] and are never mutated afterwards,
//! so analyses may freely share references across threads.

use crate::hierarchy::Hierarchy;
use crate::ids::{FieldId, HeapId, InvoId, MethodId, SigId, TypeId, VarId};
use crate::srcloc::SrcLoc;

/// One instruction of the simplified intermediate language (paper §2.1).
///
/// The five instruction kinds of the paper's input language map to the
/// `ALLOC`, `MOVE`, `LOAD`, `STORE`, `VCALL` and `SCALL` input relations;
/// [`Instr::Cast`] is the checked-cast assignment used by the *may-fail
/// casts* client in the paper's evaluation (§4.2). Call instructions carry
/// their [`InvoId`]; actual arguments and return targets live in the
/// invocation-site table ([`Program::actual_args`], [`Program::actual_return`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `var = new T` — allocates `heap` and assigns it to `var`.
    Alloc {
        /// The variable assigned.
        var: VarId,
        /// The allocation site, which is also the heap abstraction.
        heap: HeapId,
    },
    /// `to = from` — copies a reference between locals.
    Move {
        /// Destination variable.
        to: VarId,
        /// Source variable.
        from: VarId,
    },
    /// `to = (ty) from` — checked downcast.
    ///
    /// Following Doop's `AssignCast` semantics, only heap objects whose type
    /// is a subtype of `ty` flow from `from` to `to`; the may-fail-casts
    /// client reports the cast if `from` may point to any object of an
    /// incompatible type.
    Cast {
        /// Destination variable.
        to: VarId,
        /// Source variable.
        from: VarId,
        /// The cast target type.
        ty: TypeId,
    },
    /// `to = base.fld` — field load.
    Load {
        /// Destination variable.
        to: VarId,
        /// Base object variable.
        base: VarId,
        /// The field read.
        field: FieldId,
    },
    /// `base.fld = from` — field store.
    Store {
        /// Base object variable.
        base: VarId,
        /// The field written.
        field: FieldId,
        /// Source variable.
        from: VarId,
    },
    /// `to = Class.fld` — static-field load.
    ///
    /// Static fields are outside the paper's nine-rule model ("their
    /// treatment is a mere engineering complexity, as it does not interact
    /// with context choice", §2.1) but present in the full Doop
    /// implementation; they behave as context-insensitive global cells.
    SLoad {
        /// Destination variable.
        to: VarId,
        /// The static field read.
        field: FieldId,
    },
    /// `Class.fld = from` — static-field store.
    SStore {
        /// The static field written.
        field: FieldId,
        /// Source variable.
        from: VarId,
    },
    /// `base.sig(..)` — virtual call, dispatched on the dynamic type of the
    /// object `base` points to via `Lookup`.
    VCall {
        /// Receiver variable.
        base: VarId,
        /// Signature resolved at the receiver's dynamic type.
        sig: SigId,
        /// The invocation site.
        invo: InvoId,
    },
    /// `throw var` — raises the exception object `var` points to.
    ///
    /// Exceptions are part of full Doop (outside the paper's nine-rule
    /// model); thrown objects propagate to the method's own catch clauses
    /// and, uncaught, across call-graph edges to callers.
    Throw {
        /// The thrown value.
        var: VarId,
    },
    /// `Class.meth(..)` — static call with a statically known target.
    SCall {
        /// The statically known callee.
        target: MethodId,
        /// The invocation site.
        invo: InvoId,
    },
}

/// Whether an invocation site is a virtual or a static call.
///
/// The paper's central observation is that these two language features
/// benefit from *different* context shapes, which is why its `MergeStatic`
/// constructor exists at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvoKind {
    /// A virtual (dynamically dispatched) call.
    Virtual,
    /// A static (direct) call.
    Static,
}

#[derive(Debug, Clone)]
pub(crate) struct TypeInfo {
    pub name: String,
    pub parent: Option<TypeId>,
}

#[derive(Debug, Clone)]
pub(crate) struct FieldInfo {
    pub name: String,
    pub owner: TypeId,
    pub is_static: bool,
}

#[derive(Debug, Clone)]
pub(crate) struct SigInfo {
    pub name: String,
    pub arity: usize,
}

#[derive(Debug, Clone)]
pub(crate) struct MethodInfo {
    pub name: String,
    pub declaring: TypeId,
    pub sig: SigId,
    pub is_static: bool,
    pub this: Option<VarId>,
    pub formals: Vec<VarId>,
    pub ret: Option<VarId>,
    pub instrs: Vec<Instr>,
    /// Source location of each instruction, parallel to `instrs`. Entries
    /// are [`SrcLoc::UNKNOWN`] for programmatically built IR; the vector may
    /// be shorter than `instrs` (trailing instructions are then unknown).
    pub instr_locs: Vec<SrcLoc>,
    /// Source location of the method declaration itself.
    pub loc: SrcLoc,
    /// Catch clauses `(type, binder)`: exceptions reaching this method
    /// whose dynamic type is a subtype of `type` bind to `binder`. Without
    /// block structure in the IR, clauses are method-scoped and *any*
    /// matching clause catches (a sound flow-insensitive approximation of
    /// Java's try ranges and first-match rule).
    pub catches: Vec<(TypeId, VarId)>,
}

#[derive(Debug, Clone)]
pub(crate) struct VarInfo {
    pub name: String,
    pub method: MethodId,
}

#[derive(Debug, Clone)]
pub(crate) struct HeapInfo {
    pub label: String,
    pub ty: TypeId,
    pub method: MethodId,
}

#[derive(Debug, Clone)]
pub(crate) struct InvoInfo {
    pub label: String,
    pub method: MethodId,
    pub kind: InvoKind,
    pub args: Vec<VarId>,
    pub ret: Option<VarId>,
}

/// An immutable, fully-resolved program module.
///
/// See the [crate docs](crate) for the relationship to the paper's model.
#[derive(Debug, Clone)]
pub struct Program {
    pub(crate) types: Vec<TypeInfo>,
    pub(crate) fields: Vec<FieldInfo>,
    pub(crate) sigs: Vec<SigInfo>,
    pub(crate) methods: Vec<MethodInfo>,
    pub(crate) vars: Vec<VarInfo>,
    pub(crate) heaps: Vec<HeapInfo>,
    pub(crate) invos: Vec<InvoInfo>,
    pub(crate) entry_points: Vec<MethodId>,
    pub(crate) hierarchy: Hierarchy,
}

impl Program {
    // ----- counts -------------------------------------------------------

    /// Number of class types (`|T|`).
    pub fn type_count(&self) -> usize {
        self.types.len()
    }

    /// Number of instance fields (`|F|`).
    pub fn field_count(&self) -> usize {
        self.fields.len()
    }

    /// Number of method signatures (`|S|`).
    pub fn sig_count(&self) -> usize {
        self.sigs.len()
    }

    /// Number of methods (`|M|`).
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Number of local variables (`|V|`).
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Total instruction count across all method bodies. Used by solvers to
    /// pre-size worklists, indices and interners before the first tuple is
    /// derived.
    pub fn instr_count(&self) -> usize {
        self.methods.iter().map(|m| m.instrs.len()).sum()
    }

    /// Number of allocation sites (`|H|`).
    pub fn heap_count(&self) -> usize {
        self.heaps.len()
    }

    /// Number of invocation sites (`|I|`).
    pub fn invo_count(&self) -> usize {
        self.invos.len()
    }

    // ----- iteration ----------------------------------------------------

    /// Iterates over all type IDs.
    pub fn types(&self) -> impl Iterator<Item = TypeId> + '_ {
        (0..self.types.len()).map(TypeId::from_index)
    }

    /// Iterates over all method IDs.
    pub fn methods(&self) -> impl Iterator<Item = MethodId> + '_ {
        (0..self.methods.len()).map(MethodId::from_index)
    }

    /// Iterates over all variable IDs.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.vars.len()).map(VarId::from_index)
    }

    /// Iterates over all heap (allocation-site) IDs.
    pub fn heaps(&self) -> impl Iterator<Item = HeapId> + '_ {
        (0..self.heaps.len()).map(HeapId::from_index)
    }

    /// Iterates over all invocation-site IDs.
    pub fn invos(&self) -> impl Iterator<Item = InvoId> + '_ {
        (0..self.invos.len()).map(InvoId::from_index)
    }

    /// The program's entry-point methods (analysis roots).
    pub fn entry_points(&self) -> &[MethodId] {
        &self.entry_points
    }

    // ----- types --------------------------------------------------------

    /// The name of a class type.
    pub fn type_name(&self, ty: TypeId) -> &str {
        &self.types[ty.index()].name
    }

    /// The direct superclass, if any.
    pub fn type_parent(&self, ty: TypeId) -> Option<TypeId> {
        self.types[ty.index()].parent
    }

    /// The class hierarchy (subtyping and dispatch tables).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// `true` if `sub` is a (reflexive, transitive) subtype of `sup`.
    pub fn is_subtype(&self, sub: TypeId, sup: TypeId) -> bool {
        self.hierarchy.is_subtype(sub, sup)
    }

    /// The paper's `LOOKUP(type, sig) = meth`: resolves a virtual call
    /// signature against a dynamic receiver type.
    pub fn lookup(&self, ty: TypeId, sig: SigId) -> Option<MethodId> {
        self.hierarchy.lookup(ty, sig)
    }

    // ----- fields -------------------------------------------------------

    /// The name of a field.
    pub fn field_name(&self, field: FieldId) -> &str {
        &self.fields[field.index()].name
    }

    /// The class declaring a field.
    pub fn field_owner(&self, field: FieldId) -> TypeId {
        self.fields[field.index()].owner
    }

    /// `true` if the field is static (a global cell rather than a per-object
    /// slot).
    pub fn field_is_static(&self, field: FieldId) -> bool {
        self.fields[field.index()].is_static
    }

    // ----- signatures ---------------------------------------------------

    /// The name component of a signature.
    pub fn sig_name(&self, sig: SigId) -> &str {
        &self.sigs[sig.index()].name
    }

    /// The parameter count of a signature.
    pub fn sig_arity(&self, sig: SigId) -> usize {
        self.sigs[sig.index()].arity
    }

    // ----- methods ------------------------------------------------------

    /// The simple name of a method.
    pub fn method_name(&self, meth: MethodId) -> &str {
        &self.methods[meth.index()].name
    }

    /// A qualified `Class.name` display form.
    pub fn method_qualified_name(&self, meth: MethodId) -> String {
        self.method_qualified_parts(meth).concat()
    }

    /// [`Program::method_qualified_name`] in pieces, for callers that
    /// compare or render it without building the string.
    pub fn method_qualified_parts(&self, meth: MethodId) -> [&str; 3] {
        let info = &self.methods[meth.index()];
        [&self.types[info.declaring.index()].name, ".", &info.name]
    }

    /// The class declaring a method.
    pub fn method_declaring(&self, meth: MethodId) -> TypeId {
        self.methods[meth.index()].declaring
    }

    /// The method's signature.
    pub fn method_sig(&self, meth: MethodId) -> SigId {
        self.methods[meth.index()].sig
    }

    /// `true` if the method is static.
    pub fn method_is_static(&self, meth: MethodId) -> bool {
        self.methods[meth.index()].is_static
    }

    /// The paper's `THISVAR(meth) = this`: the receiver variable of an
    /// instance method, or `None` for static methods.
    pub fn this_var(&self, meth: MethodId) -> Option<VarId> {
        self.methods[meth.index()].this
    }

    /// The paper's `FORMALARG(meth, i) = arg` relation, as a slice.
    pub fn formals(&self, meth: MethodId) -> &[VarId] {
        &self.methods[meth.index()].formals
    }

    /// The paper's `FORMALRETURN(meth) = ret`: the variable whose value a
    /// method returns, or `None` for `void` methods.
    pub fn formal_return(&self, meth: MethodId) -> Option<VarId> {
        self.methods[meth.index()].ret
    }

    /// The instruction body of a method.
    pub fn instrs(&self, meth: MethodId) -> &[Instr] {
        &self.methods[meth.index()].instrs
    }

    /// The method's catch clauses as `(caught type, binder variable)`.
    pub fn catches(&self, meth: MethodId) -> &[(TypeId, VarId)] {
        &self.methods[meth.index()].catches
    }

    /// Source location of the method declaration ([`SrcLoc::UNKNOWN`] for
    /// programmatically built IR).
    pub fn method_loc(&self, meth: MethodId) -> SrcLoc {
        self.methods[meth.index()].loc
    }

    /// Source location of the `idx`-th instruction of `meth`, if recorded.
    pub fn instr_loc(&self, meth: MethodId, idx: usize) -> SrcLoc {
        self.methods[meth.index()]
            .instr_locs
            .get(idx)
            .copied()
            .unwrap_or(SrcLoc::UNKNOWN)
    }

    // ----- variables ----------------------------------------------------

    /// The declared name of a variable.
    pub fn var_name(&self, var: VarId) -> &str {
        &self.vars[var.index()].name
    }

    /// The unique method declaring a variable (every local "is defined in a
    /// unique method", paper §2.1).
    pub fn var_method(&self, var: VarId) -> MethodId {
        self.vars[var.index()].method
    }

    // ----- heap abstractions ---------------------------------------------

    /// A display label for an allocation site.
    pub fn heap_label(&self, heap: HeapId) -> &str {
        &self.heaps[heap.index()].label
    }

    /// The paper's `HEAPTYPE(heap) = type`: the class instantiated at the
    /// allocation site.
    pub fn heap_type(&self, heap: HeapId) -> TypeId {
        self.heaps[heap.index()].ty
    }

    /// The method containing the allocation site.
    pub fn heap_method(&self, heap: HeapId) -> MethodId {
        self.heaps[heap.index()].method
    }

    /// The paper's `CA : H -> T` map for type-sensitivity: the class
    /// *containing* the allocation site, i.e. the class declaring the
    /// allocating method (not the allocated type).
    pub fn heap_containing_class(&self, heap: HeapId) -> TypeId {
        self.method_declaring(self.heap_method(heap))
    }

    // ----- invocation sites ----------------------------------------------

    /// A display label for an invocation site.
    pub fn invo_label(&self, invo: InvoId) -> &str {
        &self.invos[invo.index()].label
    }

    /// The method containing the invocation site.
    pub fn invo_method(&self, invo: InvoId) -> MethodId {
        self.invos[invo.index()].method
    }

    /// Whether the site is a virtual or static call.
    pub fn invo_kind(&self, invo: InvoId) -> InvoKind {
        self.invos[invo.index()].kind
    }

    /// The paper's `ACTUALARG(invo, i) = arg` relation, as a slice.
    pub fn actual_args(&self, invo: InvoId) -> &[VarId] {
        &self.invos[invo.index()].args
    }

    /// The paper's `ACTUALRETURN(invo) = var`: the local receiving the
    /// call's return value, if any.
    pub fn actual_return(&self, invo: InvoId) -> Option<VarId> {
        self.invos[invo.index()].ret
    }
}

#[cfg(test)]
mod tests {
    use crate::ProgramBuilder;

    #[test]
    fn accessors_agree_with_builder() {
        let mut b = ProgramBuilder::new();
        let object = b.class("Object", None);
        let a = b.class("A", Some(object));
        let f = b.field(a, "fld");
        let m = b.method(a, "run", &["p"], false);
        let v = b.var(m, "x");
        let h = b.alloc(m, v, a, "new A");
        let p = b.formals(m)[0];
        b.store(m, v, f, p);
        let main = b.method(a, "main", &[], true);
        b.entry_point(main);
        let prog = b.finish().unwrap();

        assert_eq!(prog.type_count(), 2);
        assert_eq!(prog.field_count(), 1);
        assert_eq!(prog.method_count(), 2);
        assert_eq!(prog.heap_count(), 1);
        assert_eq!(prog.type_name(a), "A");
        assert_eq!(prog.type_parent(a), Some(object));
        assert_eq!(prog.field_owner(f), a);
        assert_eq!(prog.heap_type(h), a);
        assert_eq!(prog.heap_method(h), m);
        assert_eq!(prog.heap_containing_class(h), a);
        assert_eq!(prog.method_qualified_name(m), "A.run");
        assert_eq!(prog.formals(m).len(), 1);
        assert!(prog.this_var(m).is_some());
        assert_eq!(prog.var_method(v), m);
        assert_eq!(prog.entry_points(), &[main]);
        assert_eq!(prog.instrs(m).len(), 2);
    }

    #[test]
    fn static_method_has_no_this() {
        let mut b = ProgramBuilder::new();
        let object = b.class("Object", None);
        let a = b.class("A", Some(object));
        let m = b.method(a, "util", &[], true);
        b.entry_point(m);
        let prog = b.finish().unwrap();
        assert!(prog.method_is_static(m));
        assert_eq!(prog.this_var(m), None);
    }
}
