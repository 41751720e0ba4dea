//! Programmatic construction of [`Program`]s.
//!
//! [`ProgramBuilder`] is the single way to create a program: it interns
//! classes, signatures, fields, methods and variables into their dense ID
//! spaces, appends instructions, and on [`ProgramBuilder::finish`] freezes
//! everything, builds the class hierarchy, and validates well-formedness.
//!
//! The `pta-lang` textual frontend and the `pta-workload` generator are both
//! thin layers over this builder.

use crate::hierarchy::Hierarchy;
use crate::ids::{FieldId, HeapId, InvoId, MethodId, SigId, TypeId, VarId};
use crate::names::{name_hash, NameIndex, Span};
use crate::program::{
    FieldInfo, HeapInfo, Instr, InvoInfo, InvoKind, MethodInfo, Program, SigInfo, TypeInfo, VarInfo,
};
use crate::srcloc::SrcLoc;
use crate::validate::{validate, ValidateError};

/// Incremental builder for [`Program`]s.
///
/// # Example
///
/// ```
/// use pta_ir::ProgramBuilder;
///
/// let mut b = ProgramBuilder::new();
/// let object = b.class("Object", None);
/// let c = b.class("C", Some(object));
/// let foo = b.method(c, "foo", &["o"], false);
/// let main = b.method(c, "main", &[], true);
/// let recv = b.var(main, "recv");
/// let arg = b.var(main, "arg");
/// b.alloc(main, recv, c, "new C");
/// b.alloc(main, arg, object, "new Object");
/// b.vcall(main, recv, "foo", &[arg], None, "call foo");
/// b.entry_point(main);
/// let program = b.finish()?;
/// assert_eq!(program.invo_count(), 1);
/// let _ = foo;
/// # Ok::<(), pta_ir::ValidateError>(())
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    /// The program's name arena; every name and label is appended here.
    names: String,
    /// The program's flat list of formals and actual arguments.
    var_lists: Vec<VarId>,
    types: Vec<TypeInfo>,
    fields: Vec<FieldInfo>,
    sigs: Vec<SigInfo>,
    methods: Vec<MethodInfo>,
    vars: Vec<VarInfo>,
    heaps: Vec<HeapInfo>,
    invos: Vec<InvoInfo>,
    entry_points: Vec<MethodId>,
    /// Classes by name.
    type_by_name: NameIndex,
    /// Signatures by `(name, arity)`.
    sig_by_key: NameIndex,
    /// Fields by `(owner, name)`.
    field_by_key: NameIndex,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    // ----- declarations ---------------------------------------------------

    /// Declares a class with an optional superclass, or returns the existing
    /// ID if a class of this name was already declared.
    ///
    /// # Panics
    ///
    /// Panics if the class was already declared with a *different* parent.
    pub fn class(&mut self, name: &str, parent: Option<TypeId>) -> TypeId {
        if let Some(id) = self.class_by_name(name) {
            assert_eq!(
                self.types[id.index()].parent,
                parent,
                "class {name} redeclared with a different parent"
            );
            return id;
        }
        let id = TypeId::from_index(self.types.len());
        self.types.push(TypeInfo {
            name: Span::push_str(&mut self.names, name),
            parent,
        });
        self.type_by_name.insert(name_hash(name, 0), id.index());
        id
    }

    /// Looks up a previously declared class by name.
    pub fn class_by_name(&self, name: &str) -> Option<TypeId> {
        self.type_by_name
            .find(name_hash(name, 0), |i| {
                self.types[i].name.str(&self.names) == name
            })
            .map(TypeId::from_index)
    }

    /// Interns a method signature (name, arity).
    pub fn sig(&mut self, name: &str, arity: usize) -> SigId {
        let hash = name_hash(name, arity);
        let found = self.sig_by_key.find(hash, |i| {
            let s = &self.sigs[i];
            s.arity == arity && s.name.str(&self.names) == name
        });
        if let Some(i) = found {
            return SigId::from_index(i);
        }
        let id = SigId::from_index(self.sigs.len());
        self.sigs.push(SigInfo {
            name: Span::push_str(&mut self.names, name),
            arity,
        });
        self.sig_by_key.insert(hash, id.index());
        id
    }

    /// Declares (or returns the existing) instance field `owner.name`.
    pub fn field(&mut self, owner: TypeId, name: &str) -> FieldId {
        self.field_impl(owner, name, false)
    }

    /// Declares (or returns the existing) static field `owner.name`.
    pub fn static_field(&mut self, owner: TypeId, name: &str) -> FieldId {
        self.field_impl(owner, name, true)
    }

    fn field_impl(&mut self, owner: TypeId, name: &str, is_static: bool) -> FieldId {
        let hash = name_hash(name, owner.index());
        let found = self.field_by_key.find(hash, |i| {
            let f = &self.fields[i];
            f.owner == owner && f.name.str(&self.names) == name
        });
        if let Some(i) = found {
            assert_eq!(
                self.fields[i].is_static, is_static,
                "field {name} redeclared with different staticness"
            );
            return FieldId::from_index(i);
        }
        let id = FieldId::from_index(self.fields.len());
        self.fields.push(FieldInfo {
            name: Span::push_str(&mut self.names, name),
            owner,
            is_static,
        });
        self.field_by_key.insert(hash, id.index());
        id
    }

    /// Declares a method on `declaring` with the given formal parameter
    /// names. Instance methods (`is_static == false`) implicitly receive a
    /// `this` variable. The signature is interned from the name and arity.
    pub fn method(
        &mut self,
        declaring: TypeId,
        name: &str,
        params: &[&str],
        is_static: bool,
    ) -> MethodId {
        let sig = self.sig(name, params.len());
        let id = MethodId::from_index(self.methods.len());
        self.methods.push(MethodInfo {
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
            self.methods[id.index()].this = Some(this);
        }
        let start = self.var_lists.len();
        for p in params {
            let v = self.var(id, p);
            self.var_lists.push(v);
        }
        self.methods[id.index()].formals = Span::since(&self.var_lists, start);
        id
    }

    /// Declares a fresh local variable in `meth`.
    pub fn var(&mut self, meth: MethodId, name: &str) -> VarId {
        let id = VarId::from_index(self.vars.len());
        self.vars.push(VarInfo {
            name: Span::push_str(&mut self.names, name),
            method: meth,
        });
        id
    }

    /// Marks `var` as the method's return variable (the paper's
    /// `FORMALRETURN`).
    pub fn set_return(&mut self, meth: MethodId, var: VarId) {
        self.methods[meth.index()].ret = Some(var);
    }

    /// The formal parameters of a previously declared method.
    pub fn formals(&self, meth: MethodId) -> &[VarId] {
        self.methods[meth.index()].formals.slice(&self.var_lists)
    }

    /// The implicit receiver variable of an instance method.
    pub fn this(&self, meth: MethodId) -> Option<VarId> {
        self.methods[meth.index()].this
    }

    /// Registers `meth` as an analysis entry point.
    pub fn entry_point(&mut self, meth: MethodId) {
        self.entry_points.push(meth);
    }

    // ----- instructions ---------------------------------------------------

    /// Appends `var = new ty` to `meth`; returns the fresh allocation site.
    pub fn alloc(&mut self, meth: MethodId, var: VarId, ty: TypeId, label: &str) -> HeapId {
        let heap = HeapId::from_index(self.heaps.len());
        self.heaps.push(HeapInfo {
            label: Span::push_str(&mut self.names, label),
            ty,
            method: meth,
        });
        self.methods[meth.index()]
            .instrs
            .push(Instr::Alloc { var, heap });
        heap
    }

    /// Appends `to = from`.
    pub fn move_(&mut self, meth: MethodId, to: VarId, from: VarId) {
        self.methods[meth.index()]
            .instrs
            .push(Instr::Move { to, from });
    }

    /// Appends `to = (ty) from`.
    pub fn cast(&mut self, meth: MethodId, to: VarId, from: VarId, ty: TypeId) {
        self.methods[meth.index()]
            .instrs
            .push(Instr::Cast { to, from, ty });
    }

    /// Appends `to = base.field`.
    pub fn load(&mut self, meth: MethodId, to: VarId, base: VarId, field: FieldId) {
        self.methods[meth.index()]
            .instrs
            .push(Instr::Load { to, base, field });
    }

    /// Appends `base.field = from`.
    pub fn store(&mut self, meth: MethodId, base: VarId, field: FieldId, from: VarId) {
        self.methods[meth.index()]
            .instrs
            .push(Instr::Store { base, field, from });
    }

    /// Appends `throw var`.
    pub fn throw(&mut self, meth: MethodId, var: VarId) {
        self.methods[meth.index()].instrs.push(Instr::Throw { var });
    }

    /// Adds a catch clause to `meth`: exceptions of (a subtype of) `ty`
    /// reaching the method bind to a fresh variable, which is returned.
    pub fn catch_clause(&mut self, meth: MethodId, ty: TypeId, name: &str) -> VarId {
        let var = self.var(meth, name);
        self.methods[meth.index()].catches.push((ty, var));
        var
    }

    /// Appends `to = Class.field` (static-field load).
    pub fn sload(&mut self, meth: MethodId, to: VarId, field: FieldId) {
        self.methods[meth.index()]
            .instrs
            .push(Instr::SLoad { to, field });
    }

    /// Appends `Class.field = from` (static-field store).
    pub fn sstore(&mut self, meth: MethodId, field: FieldId, from: VarId) {
        self.methods[meth.index()]
            .instrs
            .push(Instr::SStore { field, from });
    }

    /// Appends a virtual call `ret = base.name(args)`; returns the fresh
    /// invocation site.
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
        let invo = InvoId::from_index(self.invos.len());
        self.invos.push(InvoInfo {
            label: Span::push_str(&mut self.names, label),
            method: meth,
            kind: InvoKind::Virtual,
            args: Span::push_slice(&mut self.var_lists, args),
            ret,
        });
        self.methods[meth.index()]
            .instrs
            .push(Instr::VCall { base, sig, invo });
        invo
    }

    /// Appends a static call `ret = target(args)`; returns the fresh
    /// invocation site.
    pub fn scall(
        &mut self,
        meth: MethodId,
        target: MethodId,
        args: &[VarId],
        ret: Option<VarId>,
        label: &str,
    ) -> InvoId {
        let invo = InvoId::from_index(self.invos.len());
        self.invos.push(InvoInfo {
            label: Span::push_str(&mut self.names, label),
            method: meth,
            kind: InvoKind::Static,
            args: Span::push_slice(&mut self.var_lists, args),
            ret,
        });
        self.methods[meth.index()]
            .instrs
            .push(Instr::SCall { target, invo });
        invo
    }

    // ----- source locations ------------------------------------------------

    /// Records the source location of the method declaration (used by the
    /// textual frontend so diagnostics can point at `.jir` source).
    pub fn set_method_loc(&mut self, meth: MethodId, loc: SrcLoc) {
        self.methods[meth.index()].loc = loc;
    }

    /// Records the source location of the most recently appended instruction
    /// of `meth`. Earlier instructions without a recorded location default
    /// to [`SrcLoc::UNKNOWN`].
    ///
    /// # Panics
    ///
    /// Panics if `meth` has no instructions yet.
    pub fn set_last_instr_loc(&mut self, meth: MethodId, loc: SrcLoc) {
        let info = &mut self.methods[meth.index()];
        assert!(
            !info.instrs.is_empty(),
            "set_last_instr_loc on empty method {meth}"
        );
        info.instr_locs
            .resize(info.instrs.len() - 1, SrcLoc::UNKNOWN);
        info.instr_locs.push(loc);
    }

    // ----- introspection ---------------------------------------------------
    //
    // Read access to the partially built program; used by generators that
    // post-process their own output (e.g. the workload generator's
    // dead-allocation sweep) before freezing it.

    /// Number of methods declared so far.
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// The instructions appended to `meth` so far.
    pub fn instrs(&self, meth: MethodId) -> &[Instr] {
        &self.methods[meth.index()].instrs
    }

    /// The return variable of `meth`, if one was set.
    pub fn formal_return(&self, meth: MethodId) -> Option<VarId> {
        self.methods[meth.index()].ret
    }

    /// Actual arguments recorded for an invocation site.
    pub fn actual_args(&self, invo: InvoId) -> &[VarId] {
        self.invos[invo.index()].args.slice(&self.var_lists)
    }

    /// The variable receiving an invocation site's return value, if any.
    pub fn actual_return(&self, invo: InvoId) -> Option<VarId> {
        self.invos[invo.index()].ret
    }

    // ----- finalization ----------------------------------------------------

    /// Freezes the builder into an immutable [`Program`], building the class
    /// hierarchy and dispatch tables.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateError`] if the program is ill-formed (e.g. an
    /// instruction references a variable of another method, an entry point is
    /// missing, or a call's argument count mismatches the callee).
    pub fn finish(self) -> Result<Program, ValidateError> {
        let hierarchy = Hierarchy::build(&self.types, &self.methods);
        let program = Program {
            names: self.names,
            var_lists: self.var_lists,
            types: self.types,
            fields: self.fields,
            sigs: self.sigs,
            methods: self.methods,
            vars: self.vars,
            heaps: self.heaps,
            invos: self.invos,
            entry_points: self.entry_points,
            hierarchy,
        };
        validate(&program)?;
        Ok(program)
    }

    /// Like [`finish`](Self::finish) but panics on ill-formed programs.
    /// Intended for generators and tests that construct programs they know
    /// to be valid.
    pub fn finish_unchecked_panic(self) -> Program {
        self.finish()
            .expect("generated program must be well-formed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut b = ProgramBuilder::new();
        let object = b.class("Object", None);
        let a1 = b.class("A", Some(object));
        let a2 = b.class("A", Some(object));
        assert_eq!(a1, a2);
        let s1 = b.sig("foo", 2);
        let s2 = b.sig("foo", 2);
        let s3 = b.sig("foo", 3);
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
        let f1 = b.field(a1, "next");
        let f2 = b.field(a1, "next");
        assert_eq!(f1, f2);
    }

    #[test]
    #[should_panic(expected = "different parent")]
    fn class_redeclaration_with_new_parent_panics() {
        let mut b = ProgramBuilder::new();
        let object = b.class("Object", None);
        let a = b.class("A", Some(object));
        b.class("Object", Some(a));
    }

    #[test]
    fn overload_by_arity_gets_distinct_sigs() {
        let mut b = ProgramBuilder::new();
        let object = b.class("Object", None);
        let c = b.class("C", Some(object));
        let m0 = b.method(c, "foo", &[], false);
        let m1 = b.method(c, "foo", &["x"], false);
        let main = b.method(c, "main", &[], true);
        b.entry_point(main);
        let p = b.finish().unwrap();
        assert_ne!(p.method_sig(m0), p.method_sig(m1));
    }

    #[test]
    fn finish_rejects_cross_method_vars() {
        let mut b = ProgramBuilder::new();
        let object = b.class("Object", None);
        let c = b.class("C", Some(object));
        let m1 = b.method(c, "one", &[], true);
        let m2 = b.method(c, "two", &[], true);
        let v1 = b.var(m1, "x");
        let v2 = b.var(m2, "y");
        b.move_(m1, v1, v2); // v2 belongs to m2: ill-formed
        b.entry_point(m1);
        assert!(b.finish().is_err());
    }
}
