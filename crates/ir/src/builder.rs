//! Programmatic construction of [`Program`]s.
//!
//! A [`ProgramBuilder`] is a [`ProgramDelta`] over the empty program. It
//! declares classes, signatures, fields, methods and variables and appends
//! instructions through the delta's own methods (reached by `Deref`), so
//! IDs are numbered and names interned in one place for fresh programs and
//! for edits alike. [`ProgramBuilder::finish`] validates well-formedness,
//! moves the delta's arenas into a [`Program`] and builds the class
//! hierarchy.
//!
//! The `pta-lang` textual frontend and the `pta-workload` generator are both
//! thin layers over this builder.

use std::ops::{Deref, DerefMut};

use crate::delta::{validate_additions, ProgramDelta};
use crate::program::Program;
use crate::validate::ValidateError;

/// Incremental builder for [`Program`]s: a [`ProgramDelta`] whose base is
/// the empty program. The type guarantees that base, which is what lets
/// [`finish`](Self::finish) move the arenas instead of copying them.
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
pub struct ProgramBuilder(ProgramDelta);

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Freezes the builder into an immutable [`Program`], building the class
    /// hierarchy and dispatch tables.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateError`] if the program is ill-formed (e.g. an
    /// instruction references a variable of another method, an entry point is
    /// missing, or a call's argument count mismatches the callee).
    pub fn finish(self) -> Result<Program, ValidateError> {
        validate_additions(&ProgramDelta::default().into_program(), &self.0)?;
        Ok(self.0.into_program())
    }

    /// Like [`finish`](Self::finish) but panics on ill-formed programs.
    /// Intended for generators and tests that construct programs they know
    /// to be valid.
    pub fn finish_unchecked_panic(self) -> Program {
        self.finish()
            .expect("generated program must be well-formed")
    }
}

impl Deref for ProgramBuilder {
    type Target = ProgramDelta;

    fn deref(&self) -> &ProgramDelta {
        &self.0
    }
}

impl DerefMut for ProgramBuilder {
    fn deref_mut(&mut self) -> &mut ProgramDelta {
        &mut self.0
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
