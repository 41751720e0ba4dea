//! AST → IR lowering: name resolution and program construction.
//!
//! Lowering resolves class names (with forward references), builds the
//! field and method tables, classifies each call as virtual or static (a
//! receiver that names a class is a static call; a receiver that names a
//! local is a virtual call — locals shadow classes), and lowers bodies to
//! the intermediate language. `return x;` statements lower to moves into a
//! synthetic `$ret` variable when a method has several returns, which is
//! equivalent under flow-insensitive analysis.
//!
//! Field names must be unique program-wide (diagnosed otherwise); prefix
//! with the class name (`box_value`) when two classes need a same-named
//! field. This keeps field uses resolvable without local type annotations.
//!
//! Every table is keyed on names borrowed from the source text, and the
//! per-method state (the variable map, the site-label and argument
//! buffers) is cleared and reused from one method to the next, so lowering
//! allocates per table and per method body, not per name.

use std::fmt::{self, Write as _};

use pta_ir::hash::{FxHashMap, FxHashSet};
use pta_ir::{FieldId, MethodId, Program, ProgramBuilder, TypeId, VarId};

use crate::ast::{ClassDecl, MethodDecl, Module, StmtKind};
use crate::error::LangError;

/// Lowers a parsed module into a validated [`Program`].
///
/// # Errors
///
/// Returns [`LangError::Lower`] for unresolved or ambiguous names and
/// [`LangError::Validate`] if the resulting IR is ill-formed.
pub fn lower(module: &Module<'_>) -> Result<Program, LangError> {
    Lowerer::default().run(module)
}

#[derive(Default)]
struct Lowerer<'src> {
    builder: ProgramBuilder,
    fields: FxHashMap<&'src str, FieldId>,
    /// (class, method name) -> (id, arity, is_static)
    methods: FxHashMap<(TypeId, &'src str), (MethodId, usize, bool)>,
    /// Every declared method, in declaration order (the order bodies are
    /// lowered in).
    declared: Vec<MethodId>,
    /// Superclass of each class by type index, kept for static-method
    /// resolution up the chain.
    parents: Vec<Option<TypeId>>,
    /// The locals of the method being lowered.
    vars: FxHashMap<&'src str, VarId>,
    /// The label of the allocation or call site being lowered.
    label: String,
    /// The actual arguments of the call being lowered.
    args: Vec<VarId>,
}

fn err(message: impl Into<String>) -> LangError {
    LangError::Lower {
        message: message.into(),
    }
}

/// A method's `Class.name` display form, written into messages and site
/// labels without building a string of its own.
#[derive(Clone, Copy)]
struct Qualified<'a>(&'a str, &'a str);

impl fmt::Display for Qualified<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.0, self.1)
    }
}

/// The local `name` refers to, or the error for using it unassigned.
fn use_var(
    vars: &FxHashMap<&str, VarId>,
    qualified: Qualified<'_>,
    name: &str,
) -> Result<VarId, LangError> {
    vars.get(name).copied().ok_or_else(|| {
        err(format!(
            "in {qualified}: variable `{name}` is used but never assigned"
        ))
    })
}

impl<'src> Lowerer<'src> {
    fn run(mut self, module: &Module<'src>) -> Result<Program, LangError> {
        self.declare_classes(module)?;
        self.declare_members(module)?;
        let declared = std::mem::take(&mut self.declared);
        let bodies = module
            .classes
            .iter()
            .flat_map(|class| module.methods_of(class).iter().map(move |m| (class, m)));
        for ((class, method), meth) in bodies.zip(declared) {
            self.lower_body(module, class, meth, method)?;
        }
        for entry in &module.entries {
            let ty = self
                .builder
                .class_by_name(entry.class)
                .ok_or_else(|| err(format!("entry names unknown class `{}`", entry.class)))?;
            let (meth, _, is_static) = self.resolve_method(ty, entry.method).ok_or_else(|| {
                err(format!(
                    "entry names unknown method `{}.{}`",
                    entry.class, entry.method
                ))
            })?;
            if !is_static {
                return Err(err(format!(
                    "entry `{}.{}` must be static",
                    entry.class, entry.method
                )));
            }
            self.builder.entry_point(meth);
        }
        Ok(self.builder.finish()?)
    }

    /// Declares all classes, tolerating forward references to superclasses
    /// by iterating to a fixpoint. Remaining unresolved classes indicate an
    /// unknown parent or an inheritance cycle.
    fn declare_classes(&mut self, module: &Module<'src>) -> Result<(), LangError> {
        let mut pending: Vec<&ClassDecl<'src>> = module.classes.iter().collect();
        // Duplicate check first for a clearer message.
        {
            let mut seen = FxHashSet::default();
            for c in &pending {
                if !seen.insert(c.name) {
                    return Err(err(format!("class `{}` declared twice", c.name)));
                }
            }
        }
        while !pending.is_empty() {
            let before = pending.len();
            pending.retain(|class| {
                let parent = match class.parent {
                    None => None,
                    Some(p) => match self.builder.class_by_name(p) {
                        Some(ty) => Some(ty),
                        None => return true, // try again next round
                    },
                };
                let ty = self.builder.class(class.name, parent);
                debug_assert_eq!(ty.index(), self.parents.len());
                self.parents.push(parent);
                false
            });
            if pending.len() == before {
                let names: Vec<&str> = pending.iter().map(|c| c.name).collect();
                return Err(err(format!(
                    "unresolved superclass or inheritance cycle involving: {}",
                    names.join(", ")
                )));
            }
        }
        Ok(())
    }

    fn declare_members(&mut self, module: &Module<'src>) -> Result<(), LangError> {
        for class in &module.classes {
            let ty = self
                .builder
                .class_by_name(class.name)
                .expect("declared above");
            let instance = module.names(class.fields).iter().map(|&f| (f, false));
            let statics = module.names(class.static_fields).iter().map(|&f| (f, true));
            for (field, is_static) in instance.chain(statics) {
                if self.fields.contains_key(field) {
                    return Err(err(format!(
                        "field `{field}` declared in more than one class; field names must be \
                         unique program-wide (prefix with the class name)"
                    )));
                }
                let id = if is_static {
                    self.builder.static_field(ty, field)
                } else {
                    self.builder.field(ty, field)
                };
                self.fields.insert(field, id);
            }
            for method in module.methods_of(class) {
                let key = (ty, method.name);
                if self.methods.contains_key(&key) {
                    return Err(err(format!(
                        "method `{}.{}` declared twice",
                        class.name, method.name
                    )));
                }
                let params = module.names(method.params);
                let id = self
                    .builder
                    .method(ty, method.name, params, method.is_static);
                self.methods
                    .insert(key, (id, method.params.len(), method.is_static));
                self.declared.push(id);
            }
        }
        Ok(())
    }

    /// Resolves `name` on `ty` or the nearest ancestor declaring it. The
    /// chain is finite because `declare_classes` rejected cycles.
    fn resolve_method(&self, ty: TypeId, name: &'src str) -> Option<(MethodId, usize, bool)> {
        let mut cur = Some(ty);
        while let Some(t) = cur {
            if let Some(&found) = self.methods.get(&(t, name)) {
                return Some(found);
            }
            cur = self.parents[t.index()];
        }
        None
    }

    fn lower_body(
        &mut self,
        module: &Module<'src>,
        class: &ClassDecl<'src>,
        meth: MethodId,
        method: &MethodDecl<'src>,
    ) -> Result<(), LangError> {
        self.builder.set_method_loc(meth, method.location);
        let qualified = Qualified(class.name, method.name);
        let body = module.body(method);

        // Clearing a hash map costs its capacity, so one huge method must
        // not tax every method after it: drop a map far larger than needed.
        let needed = 1 + method.params.len() + method.body.len() + method.catches.len();
        let vars = &mut self.vars;
        if vars.capacity() > 4 * needed.max(16) {
            *vars = FxHashMap::default();
        }
        vars.clear();

        // Pass 1: names assigned somewhere in the body (flow-insensitive
        // definition set).
        if let Some(this) = self.builder.this(meth) {
            vars.insert("this", this);
        }
        for (&p, &v) in module
            .names(method.params)
            .iter()
            .zip(self.builder.formals(meth))
        {
            vars.insert(p, v);
        }
        for stmt in body {
            let target = match stmt.kind {
                StmtKind::Alloc { to, .. }
                | StmtKind::Move { to, .. }
                | StmtKind::Cast { to, .. }
                | StmtKind::Load { to, .. } => Some(to),
                StmtKind::Call { to, .. } => to,
                _ => None,
            };
            if let Some(name) = target {
                let builder = &mut self.builder;
                vars.entry(name).or_insert_with(|| builder.var(meth, name));
            }
        }

        // Catch binders are implicit definitions.
        for &(ty_name, binder) in module.catches_of(method) {
            let cty = self
                .builder
                .class_by_name(ty_name)
                .ok_or_else(|| err(format!("in {qualified}: unknown catch type `{ty_name}`")))?;
            if vars.contains_key(binder) {
                return Err(err(format!(
                    "in {qualified}: catch binder `{binder}` shadows another variable"
                )));
            }
            let v = self.builder.catch_clause(meth, cty, binder);
            vars.insert(binder, v);
        }

        // Return handling: a single `return v;` sets the return variable
        // directly; multiple returns move into a synthetic `$ret`.
        let return_count = body
            .iter()
            .filter(|s| matches!(s.kind, StmtKind::Return { .. }))
            .count();
        let ret_var = if return_count > 1 {
            let v = self.builder.var(meth, "$ret");
            self.builder.set_return(meth, v);
            Some(v)
        } else {
            None
        };

        // Pass 2: lower statements.
        let vars = &self.vars;
        let mut alloc_counter = 0usize;
        let mut invo_counter = 0usize;
        for stmt in body {
            let emitted_before = self.builder.instrs(meth).len();
            match stmt.kind {
                StmtKind::Alloc { to, class: cname } => {
                    let to = vars[to];
                    let cty = self.builder.class_by_name(cname).ok_or_else(|| {
                        err(format!("in {qualified}: unknown class `{cname}` in `new`"))
                    })?;
                    self.label.clear();
                    let _ = write!(self.label, "{qualified}/new {cname}#{alloc_counter}");
                    alloc_counter += 1;
                    self.builder.alloc(meth, to, cty, &self.label);
                }
                StmtKind::Move { to, from } => {
                    let from = use_var(vars, qualified, from)?;
                    self.builder.move_(meth, vars[to], from);
                }
                StmtKind::Cast {
                    to,
                    class: cname,
                    from,
                } => {
                    let from = use_var(vars, qualified, from)?;
                    let cty = self.builder.class_by_name(cname).ok_or_else(|| {
                        err(format!("in {qualified}: unknown class `{cname}` in cast"))
                    })?;
                    self.builder.cast(meth, vars[to], from, cty);
                }
                StmtKind::Load { to, base, field } => {
                    let f = *self
                        .fields
                        .get(field)
                        .ok_or_else(|| err(format!("in {qualified}: unknown field `{field}`")))?;
                    if let Some(&base) = vars.get(base) {
                        self.builder.load(meth, vars[to], base, f);
                    } else if self.builder.class_by_name(base).is_some() {
                        // `x = Class.field` — static-field load.
                        self.builder.sload(meth, vars[to], f);
                    } else {
                        return Err(err(format!(
                            "in {qualified}: `{base}` is neither a local variable nor a class"
                        )));
                    }
                }
                StmtKind::Store { base, field, from } => {
                    let from = use_var(vars, qualified, from)?;
                    let f = *self
                        .fields
                        .get(field)
                        .ok_or_else(|| err(format!("in {qualified}: unknown field `{field}`")))?;
                    if let Some(&base) = vars.get(base) {
                        self.builder.store(meth, base, f, from);
                    } else if self.builder.class_by_name(base).is_some() {
                        // `Class.field = x` — static-field store.
                        self.builder.sstore(meth, f, from);
                    } else {
                        return Err(err(format!(
                            "in {qualified}: `{base}` is neither a local variable nor a class"
                        )));
                    }
                }
                StmtKind::Call {
                    to,
                    recv,
                    method: mname,
                    args,
                } => {
                    let ret = to.map(|name| vars[name]);
                    self.args.clear();
                    for a in module.names(args) {
                        self.args.push(use_var(vars, qualified, a)?);
                    }
                    self.label.clear();
                    let _ = write!(self.label, "{qualified}/{mname}#{invo_counter}");
                    invo_counter += 1;
                    if let Some(&base) = vars.get(recv) {
                        // Virtual call on a local.
                        self.builder
                            .vcall(meth, base, mname, &self.args, ret, &self.label);
                    } else if let Some(cty) = self.builder.class_by_name(recv) {
                        // Static call on a class.
                        let (target, arity, is_static) =
                            self.resolve_method(cty, mname).ok_or_else(|| {
                                err(format!(
                                    "in {qualified}: unknown static method `{recv}.{mname}`"
                                ))
                            })?;
                        if !is_static {
                            return Err(err(format!(
                                "in {qualified}: `{recv}.{mname}` is an instance method; call it \
                                 on a variable"
                            )));
                        }
                        if arity != self.args.len() {
                            return Err(err(format!(
                                "in {qualified}: `{recv}.{mname}` expects {arity} arguments, got {}",
                                self.args.len()
                            )));
                        }
                        self.builder
                            .scall(meth, target, &self.args, ret, &self.label);
                    } else {
                        return Err(err(format!(
                            "in {qualified}: `{recv}` is neither a local variable nor a class"
                        )));
                    }
                }
                StmtKind::Throw { var } => {
                    let v = use_var(vars, qualified, var)?;
                    self.builder.throw(meth, v);
                }
                StmtKind::Return { var } => {
                    let v = use_var(vars, qualified, var)?;
                    match ret_var {
                        Some(synthetic) => self.builder.move_(meth, synthetic, v),
                        None => self.builder.set_return(meth, v),
                    }
                }
            }
            // Statements lower to at most one instruction; tag it with the
            // statement's source position (a bare `return` emits none).
            if self.builder.instrs(meth).len() > emitted_before {
                self.builder.set_last_instr_loc(meth, stmt.location);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::parse_program;
    use crate::LangError;

    fn lower_err(src: &str) -> String {
        match parse_program(src) {
            Err(LangError::Lower { message }) => message,
            other => panic!("expected lowering error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_class_in_new_is_reported() {
        let msg = lower_err(
            "class Object {} class Main : Object { static main() { x = new Ghost; } } entry Main.main;",
        );
        assert!(msg.contains("Ghost"), "{msg}");
        assert!(msg.contains("Main.main"), "{msg}");
    }

    #[test]
    fn use_of_unassigned_variable_is_reported() {
        let msg = lower_err(
            "class Object {} class Main : Object { static main() { x = y; } } entry Main.main;",
        );
        assert!(msg.contains("`y`"), "{msg}");
        assert!(msg.contains("never assigned"), "{msg}");
    }

    #[test]
    fn unknown_field_is_reported() {
        let msg = lower_err(
            "class Object {} class Main : Object { static main() { x = new Object; x.ghost = x; } } entry Main.main;",
        );
        assert!(msg.contains("ghost"), "{msg}");
    }

    #[test]
    fn duplicate_field_names_across_classes_are_rejected_with_hint() {
        let msg = lower_err(
            "class Object {} class A : Object { field v; } class B : Object { field v; }
             class Main : Object { static main() {} } entry Main.main;",
        );
        assert!(msg.contains("unique program-wide"), "{msg}");
    }

    #[test]
    fn unknown_superclass_is_reported() {
        let msg = lower_err("class A : Nowhere {}");
        assert!(
            msg.contains("Nowhere") || msg.contains("unresolved"),
            "{msg}"
        );
    }

    #[test]
    fn inheritance_cycle_is_reported() {
        let msg = lower_err("class A : B {} class B : A {}");
        assert!(msg.contains("cycle") || msg.contains("unresolved"), "{msg}");
    }

    #[test]
    fn static_call_resolves_up_the_superclass_chain() {
        let p = parse_program(
            "class Object {}
             class Base : Object { static helper(x) { return x; } }
             class Derived : Base {}
             class Main : Object {
                 static main() { v = new Object; r = Derived.helper(v); }
             }
             entry Main.main;",
        )
        .unwrap();
        // The call resolved: one static call site exists and targets
        // Base.helper.
        assert_eq!(p.invo_count(), 1);
    }

    #[test]
    fn calling_instance_method_statically_is_reported() {
        let msg = lower_err(
            "class Object {}
             class C : Object { method m() {} }
             class Main : Object { static main() { C.m(); } }
             entry Main.main;",
        );
        assert!(msg.contains("instance method"), "{msg}");
    }

    #[test]
    fn static_call_arity_mismatch_is_reported() {
        let msg = lower_err(
            "class Object {}
             class C : Object { static m(a, b) {} }
             class Main : Object { static main() { x = new Object; C.m(x); } }
             entry Main.main;",
        );
        assert!(msg.contains("expects 2 arguments"), "{msg}");
    }

    #[test]
    fn unknown_receiver_is_reported() {
        let msg = lower_err(
            "class Object {} class Main : Object { static main() { Ghost.m(); } } entry Main.main;",
        );
        assert!(
            msg.contains("neither a local variable nor a class"),
            "{msg}"
        );
    }

    #[test]
    fn multiple_returns_lower_through_synthetic_ret() {
        let p = parse_program(
            "class Object {}
             class Main : Object {
                 static pick(a, b) { return a; return b; }
                 static main() { x = new Object; y = new Object; r = Main.pick(x, y); }
             }
             entry Main.main;",
        )
        .unwrap();
        // pick has a formal return and both returns feed it.
        let pick = p
            .methods()
            .find(|&m| p.method_name(m) == "pick")
            .expect("pick exists");
        assert!(p.formal_return(pick).is_some());
        assert_eq!(p.var_name(p.formal_return(pick).unwrap()), "$ret");
    }

    #[test]
    fn entry_must_be_static_and_known() {
        let msg =
            lower_err("class Object {} class Main : Object { method main() {} } entry Main.main;");
        assert!(msg.contains("must be static"), "{msg}");
        let msg = lower_err("class Object {} entry Object.nothing;");
        assert!(msg.contains("unknown method"), "{msg}");
        let msg = lower_err("class Object {} entry Ghost.main;");
        assert!(msg.contains("unknown class"), "{msg}");
    }

    #[test]
    fn locals_shadow_classes_in_call_position() {
        // A local named like a class: the call must be virtual on the local.
        let p = parse_program(
            "class Object {}
             class Box : Object { method get() { return this; } }
             class Main : Object {
                 static main() {
                     Box = new Box;      // local named Box
                     r = Box.get();      // virtual call on the local
                 }
             }
             entry Main.main;",
        )
        .unwrap();
        use pta_ir::InvoKind;
        let invo = p.invos().next().unwrap();
        assert_eq!(p.invo_kind(invo), InvoKind::Virtual);
    }

    #[test]
    fn duplicate_method_in_class_is_reported() {
        let msg = lower_err("class Object {} class C : Object { static m() {} static m() {} }");
        assert!(msg.contains("declared twice"), "{msg}");
    }

    #[test]
    fn duplicate_class_is_reported() {
        let msg = lower_err("class A {} class A {}");
        assert!(msg.contains("declared twice"), "{msg}");
    }
}

#[cfg(test)]
mod static_field_tests {
    use crate::parse_program;
    use pta_ir::{Instr, ProgramStats};

    const SOURCE: &str = r#"
        class Object {}
        class Registry : Object {
            static field current;
            static publish(x) { Registry.current = x; }
            static consume() { r = Registry.current; return r; }
        }
        class Main : Object {
            static main() {
                v = new Object;
                Registry.publish(v);
                got = Registry.consume();
            }
        }
        entry Main.main;
    "#;

    #[test]
    fn static_fields_parse_and_lower() {
        let p = parse_program(SOURCE).unwrap();
        let s = ProgramStats::of(&p);
        assert_eq!(s.sloads, 1);
        assert_eq!(s.sstores, 1);
        let f = (0..p.field_count())
            .map(pta_ir::FieldId::from_index)
            .find(|&f| p.field_name(f) == "current")
            .unwrap();
        assert!(p.field_is_static(f));
    }

    #[test]
    fn class_receiver_selects_static_access() {
        let p = parse_program(SOURCE).unwrap();
        let publish = p
            .methods()
            .find(|&m| p.method_name(m) == "publish")
            .unwrap();
        assert!(matches!(p.instrs(publish)[0], Instr::SStore { .. }));
        let consume = p
            .methods()
            .find(|&m| p.method_name(m) == "consume")
            .unwrap();
        assert!(matches!(p.instrs(consume)[0], Instr::SLoad { .. }));
    }

    #[test]
    fn instance_access_to_static_field_is_rejected() {
        let err = parse_program(
            r#"
            class Object {}
            class R : Object { static field cell; }
            class Main : Object {
                static main() { r = new R; x = r.cell; }
            }
            entry Main.main;
        "#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("static"), "{err}");
    }
}
