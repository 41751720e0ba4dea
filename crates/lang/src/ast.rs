//! Abstract syntax for `.jir` modules.
//!
//! The AST is deliberately unresolved: call receivers are plain identifiers
//! whose classification (local variable vs. class name, i.e. virtual vs.
//! static call) happens during lowering, once all classes are known.
//!
//! Every name is a `&'src str` slice of the source text, and a module keeps
//! its declarations and statements in a few flat vectors: all methods, all
//! statements, all name lists. A class, method or call refers to its part
//! of them with a [`List`], read back through [`Module`]'s accessors. So a
//! module of any size owns a handful of buffers, not one per method body
//! or argument list.

use crate::error::Location;

/// A run of consecutive entries in one of a [`Module`]'s flat vectors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct List {
    start: u32,
    len: u32,
}

impl List {
    /// The entries `items` gained since it was `start` long.
    pub(crate) fn since<T>(items: &[T], start: usize) -> List {
        let fits = |n: usize| u32::try_from(n).expect("module exceeds 2^32 entries");
        List {
            start: fits(start),
            len: fits(items.len() - start),
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// `true` if the list has no entries.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    fn of<T>(self, items: &[T]) -> &[T] {
        &items[self.start as usize..(self.start + self.len) as usize]
    }
}

/// A whole source module.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Module<'src> {
    /// Class declarations, in source order.
    pub classes: Vec<ClassDecl<'src>>,
    /// `entry Class.method;` directives.
    pub entries: Vec<EntryDecl<'src>>,
    /// Every method declaration, class by class in source order.
    pub methods: Vec<MethodDecl<'src>>,
    /// Every statement, method by method in source order.
    pub stmts: Vec<Stmt<'src>>,
    /// Every name list: field names, parameter names, call arguments.
    pub names: Vec<&'src str>,
    /// Every catch clause `(type name, binder name)`.
    pub catches: Vec<(&'src str, &'src str)>,
}

impl<'src> Module<'src> {
    /// The methods `class` declares.
    #[must_use]
    pub fn methods_of(&self, class: &ClassDecl<'src>) -> &[MethodDecl<'src>] {
        class.methods.of(&self.methods)
    }

    /// The statements of `method`'s body.
    #[must_use]
    pub fn body(&self, method: &MethodDecl<'src>) -> &[Stmt<'src>] {
        method.body.of(&self.stmts)
    }

    /// The catch clauses of `method`.
    #[must_use]
    pub fn catches_of(&self, method: &MethodDecl<'src>) -> &[(&'src str, &'src str)] {
        method.catches.of(&self.catches)
    }

    /// The names of a name list (fields, parameters or call arguments).
    #[must_use]
    pub fn names(&self, list: List) -> &[&'src str] {
        list.of(&self.names)
    }
}

/// `class Name : Parent { ... }`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassDecl<'src> {
    /// The class name.
    pub name: &'src str,
    /// The superclass name, or `None` for a root class.
    pub parent: Option<&'src str>,
    /// Instance field declarations ([`Module::names`]).
    pub fields: List,
    /// Static field declarations (`static field name;`,
    /// [`Module::names`]).
    pub static_fields: List,
    /// Method declarations ([`Module::methods_of`]).
    pub methods: List,
    /// Source location of the declaration.
    pub location: Location,
}

/// `method name(params) { ... }` or `static name(params) { ... }`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodDecl<'src> {
    /// The method name.
    pub name: &'src str,
    /// Formal parameter names ([`Module::names`]).
    pub params: List,
    /// `true` for `static` methods.
    pub is_static: bool,
    /// Catch clauses from the optional `catch (T e, U f)` header suffix
    /// ([`Module::catches_of`]).
    pub catches: List,
    /// Statements in source order ([`Module::body`]).
    pub body: List,
    /// Source location of the declaration.
    pub location: Location,
}

/// `entry Class.method;`
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryDecl<'src> {
    /// The class name.
    pub class: &'src str,
    /// The method name.
    pub method: &'src str,
    /// Source location of the directive.
    pub location: Location,
}

/// One statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stmt<'src> {
    /// The statement's payload.
    pub kind: StmtKind<'src>,
    /// Source location.
    pub location: Location,
}

/// Statement kinds, mirroring the intermediate language one-to-one (plus
/// `Return`, which lowers to a move into the method's return variable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StmtKind<'src> {
    /// `x = new C;`
    Alloc {
        /// Destination local.
        to: &'src str,
        /// Allocated class name.
        class: &'src str,
    },
    /// `x = y;`
    Move {
        /// Destination local.
        to: &'src str,
        /// Source local.
        from: &'src str,
    },
    /// `x = (C) y;`
    Cast {
        /// Destination local.
        to: &'src str,
        /// Cast target class name.
        class: &'src str,
        /// Source local.
        from: &'src str,
    },
    /// `x = y.f;`
    Load {
        /// Destination local.
        to: &'src str,
        /// Base local.
        base: &'src str,
        /// Field name.
        field: &'src str,
    },
    /// `x.f = y;`
    Store {
        /// Base local.
        base: &'src str,
        /// Field name.
        field: &'src str,
        /// Source local.
        from: &'src str,
    },
    /// `[x =] recv.m(args);` — virtual if `recv` is a local, static if it
    /// names a class (resolved during lowering).
    Call {
        /// Destination local receiving the return value, if any.
        to: Option<&'src str>,
        /// Receiver identifier (local or class name).
        recv: &'src str,
        /// Method name.
        method: &'src str,
        /// Argument locals ([`Module::names`]).
        args: List,
    },
    /// `return x;`
    Return {
        /// The returned local.
        var: &'src str,
    },
    /// `throw x;`
    Throw {
        /// The thrown local.
        var: &'src str,
    },
}
