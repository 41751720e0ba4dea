//! Well-formedness checks for [`crate::Program`]s.
//!
//! Every program is checked when its builder is frozen, and every edit
//! before it is applied: both run [`crate::delta`]'s `validate_additions`,
//! which calls the checks here on a base program overlaid with the
//! pending delta. Analyses may then rely on these invariants without
//! re-checking (e.g. every variable in an instruction belongs to the
//! enclosing method, call arities match, entry points exist).

use std::error::Error;
use std::fmt;

use crate::delta::DeltaView;
use crate::ids::{FieldId, InvoId, MethodId, VarId};
use crate::program::{Instr, InvoKind};

/// The four field-access shapes, used to report kind mismatches precisely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldAccess {
    /// `to = base.field` where `field` is static.
    InstanceLoad,
    /// `base.field = from` where `field` is static.
    InstanceStore,
    /// `to = Class.field` where `field` is an instance field.
    StaticLoad,
    /// `Class.field = from` where `field` is an instance field.
    StaticStore,
}

/// An ill-formedness diagnosis for a program under construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// A program must have at least one entry point.
    NoEntryPoint,
    /// An instruction in `method` uses `var`, which belongs to a different
    /// method.
    ForeignVariable {
        /// The method containing the offending instruction.
        method: MethodId,
        /// The variable that belongs elsewhere.
        var: VarId,
    },
    /// An invocation site passes a different number of arguments than the
    /// callee declares (static call) or the signature carries (virtual call).
    ArityMismatch {
        /// The method containing the call.
        method: MethodId,
        /// The offending invocation site.
        invo: InvoId,
        /// The statically known callee, for static calls.
        callee: Option<MethodId>,
        /// Number of actual arguments at the site.
        got: usize,
        /// Number of arguments the callee/signature expects.
        expected: usize,
    },
    /// A call instruction disagrees with its invocation site's recorded
    /// kind, or a static call targets an instance method.
    BadCallKind {
        /// The method containing the call.
        method: MethodId,
        /// The offending invocation site.
        invo: InvoId,
        /// The kind the instruction requires.
        expected: InvoKind,
        /// The kind the site was recorded with.
        found: InvoKind,
        /// For static calls only: the instance method wrongly targeted.
        target: Option<MethodId>,
    },
    /// A static-field instruction names an instance field or vice versa.
    BadFieldKind {
        /// The method containing the instruction.
        method: MethodId,
        /// The field accessed with the wrong kind of instruction.
        field: FieldId,
        /// Which access shape was used.
        access: FieldAccess,
    },
    /// An entry point declares formal parameters or a receiver; analysis
    /// roots must be self-contained static methods.
    BadEntryPoint {
        /// The offending entry point.
        method: MethodId,
    },
}

fn kind_name(k: InvoKind) -> &'static str {
    match k {
        InvoKind::Virtual => "virtual",
        InvoKind::Static => "static",
    }
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::NoEntryPoint => write!(f, "program has no entry point"),
            ValidateError::ForeignVariable { method, var } => {
                write!(
                    f,
                    "method {method} uses variable {var} declared in another method"
                )
            }
            ValidateError::ArityMismatch {
                method,
                invo,
                callee,
                got,
                expected,
            } => match callee {
                Some(c) => write!(
                    f,
                    "arity mismatch in {method}: static site {invo} passes {got} args to {c} expecting {expected}"
                ),
                None => write!(
                    f,
                    "arity mismatch in {method}: virtual site {invo} passes {got} args for signature of arity {expected}"
                ),
            },
            ValidateError::BadCallKind {
                method,
                invo,
                expected,
                found,
                target,
            } => match target {
                Some(t) => write!(
                    f,
                    "bad call kind in {method}: static site {invo} targets instance method {t}"
                ),
                None => write!(
                    f,
                    "bad call kind in {method}: site {invo} recorded as {} but used as {}",
                    kind_name(*found),
                    kind_name(*expected)
                ),
            },
            ValidateError::BadFieldKind {
                method,
                field,
                access,
            } => {
                let what = match access {
                    FieldAccess::InstanceLoad => "instance load of static field",
                    FieldAccess::InstanceStore => "instance store to static field",
                    FieldAccess::StaticLoad => "static load of instance field",
                    FieldAccess::StaticStore => "static store to instance field",
                };
                write!(f, "bad field kind in {method}: {what} {field}")
            }
            ValidateError::BadEntryPoint { method } => {
                write!(
                    f,
                    "entry point {method} must be a static method without parameters"
                )
            }
        }
    }
}

impl Error for ValidateError {}

/// Checks that `entry` is a legal analysis root: a static method without
/// parameters.
pub(crate) fn check_entry_point(
    view: &DeltaView<'_>,
    entry: MethodId,
) -> Result<(), ValidateError> {
    if !view.method_is_static(entry) || view.formals_len(entry) != 0 {
        return Err(ValidateError::BadEntryPoint { method: entry });
    }
    Ok(())
}

/// Checks one instruction of `meth`'s body against the view.
pub(crate) fn check_instr(
    view: &DeltaView<'_>,
    meth: MethodId,
    instr: &Instr,
) -> Result<(), ValidateError> {
    let own = |var: VarId| -> Result<(), ValidateError> {
        if view.var_method(var) == meth {
            Ok(())
        } else {
            Err(ValidateError::ForeignVariable { method: meth, var })
        }
    };
    match *instr {
        Instr::Alloc { var, .. } => own(var)?,
        Instr::Move { to, from } | Instr::Cast { to, from, .. } => {
            own(to)?;
            own(from)?;
        }
        Instr::Load { to, base, field } => {
            own(to)?;
            own(base)?;
            if view.field_is_static(field) {
                return Err(ValidateError::BadFieldKind {
                    method: meth,
                    field,
                    access: FieldAccess::InstanceLoad,
                });
            }
        }
        Instr::Store { base, from, field } => {
            own(base)?;
            own(from)?;
            if view.field_is_static(field) {
                return Err(ValidateError::BadFieldKind {
                    method: meth,
                    field,
                    access: FieldAccess::InstanceStore,
                });
            }
        }
        Instr::Throw { var } => own(var)?,
        Instr::SLoad { to, field } => {
            own(to)?;
            if !view.field_is_static(field) {
                return Err(ValidateError::BadFieldKind {
                    method: meth,
                    field,
                    access: FieldAccess::StaticLoad,
                });
            }
        }
        Instr::SStore { field, from } => {
            own(from)?;
            if !view.field_is_static(field) {
                return Err(ValidateError::BadFieldKind {
                    method: meth,
                    field,
                    access: FieldAccess::StaticStore,
                });
            }
        }
        Instr::VCall { base, sig, invo } => {
            own(base)?;
            for &a in view.actual_args(invo) {
                own(a)?;
            }
            if let Some(r) = view.actual_return(invo) {
                own(r)?;
            }
            if view.invo_kind(invo) != InvoKind::Virtual {
                return Err(ValidateError::BadCallKind {
                    method: meth,
                    invo,
                    expected: InvoKind::Virtual,
                    found: view.invo_kind(invo),
                    target: None,
                });
            }
            if view.actual_args(invo).len() != view.sig_arity(sig) {
                return Err(ValidateError::ArityMismatch {
                    method: meth,
                    invo,
                    callee: None,
                    got: view.actual_args(invo).len(),
                    expected: view.sig_arity(sig),
                });
            }
        }
        Instr::SCall { target, invo } => {
            for &a in view.actual_args(invo) {
                own(a)?;
            }
            if let Some(r) = view.actual_return(invo) {
                own(r)?;
            }
            if view.invo_kind(invo) != InvoKind::Static {
                return Err(ValidateError::BadCallKind {
                    method: meth,
                    invo,
                    expected: InvoKind::Static,
                    found: view.invo_kind(invo),
                    target: None,
                });
            }
            if !view.method_is_static(target) {
                return Err(ValidateError::BadCallKind {
                    method: meth,
                    invo,
                    expected: InvoKind::Static,
                    found: InvoKind::Static,
                    target: Some(target),
                });
            }
            if view.actual_args(invo).len() != view.formals_len(target) {
                return Err(ValidateError::ArityMismatch {
                    method: meth,
                    invo,
                    callee: Some(target),
                    got: view.actual_args(invo).len(),
                    expected: view.formals_len(target),
                });
            }
        }
    }
    Ok(())
}

/// Checks that a catch clause's binder variable belongs to `meth`.
pub(crate) fn check_catch_binder(
    view: &DeltaView<'_>,
    meth: MethodId,
    binder: VarId,
) -> Result<(), ValidateError> {
    if view.var_method(binder) == meth {
        Ok(())
    } else {
        Err(ValidateError::ForeignVariable {
            method: meth,
            var: binder,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProgramBuilder;

    #[test]
    fn missing_entry_point_is_rejected() {
        let mut b = ProgramBuilder::new();
        let object = b.class("Object", None);
        let _ = b.method(object, "main", &[], true);
        assert_eq!(b.finish().unwrap_err(), ValidateError::NoEntryPoint);
    }

    #[test]
    fn instance_entry_point_is_rejected() {
        let mut b = ProgramBuilder::new();
        let object = b.class("Object", None);
        let m = b.method(object, "main", &[], false);
        b.entry_point(m);
        assert!(matches!(
            b.finish().unwrap_err(),
            ValidateError::BadEntryPoint { .. }
        ));
    }

    #[test]
    fn static_call_to_instance_method_is_rejected() {
        let mut b = ProgramBuilder::new();
        let object = b.class("Object", None);
        let c = b.class("C", Some(object));
        let inst = b.method(c, "foo", &[], false);
        let main = b.method(c, "main", &[], true);
        b.scall(main, inst, &[], None, "bad");
        b.entry_point(main);
        assert!(matches!(
            b.finish().unwrap_err(),
            ValidateError::BadCallKind { .. }
        ));
    }

    #[test]
    fn arity_mismatch_on_static_call_is_rejected() {
        let mut b = ProgramBuilder::new();
        let object = b.class("Object", None);
        let c = b.class("C", Some(object));
        let callee = b.method(c, "util", &["a", "b"], true);
        let main = b.method(c, "main", &[], true);
        let x = b.var(main, "x");
        b.scall(main, callee, &[x], None, "bad arity");
        b.entry_point(main);
        assert!(matches!(
            b.finish().unwrap_err(),
            ValidateError::ArityMismatch { .. }
        ));
    }

    #[test]
    fn well_formed_program_passes() {
        let mut b = ProgramBuilder::new();
        let object = b.class("Object", None);
        let c = b.class("C", Some(object));
        let callee = b.method(c, "id", &["a"], true);
        let pa = b.formals(callee)[0];
        b.set_return(callee, pa);
        let main = b.method(c, "main", &[], true);
        let x = b.var(main, "x");
        let y = b.var(main, "y");
        b.alloc(main, x, c, "new C");
        b.scall(main, callee, &[x], Some(y), "call id");
        b.entry_point(main);
        assert!(b.finish().is_ok());
    }
}

#[cfg(test)]
mod field_kind_tests {
    use super::*;
    use crate::ProgramBuilder;

    #[test]
    fn instance_access_to_static_field_is_rejected() {
        let mut b = ProgramBuilder::new();
        let object = b.class("Object", None);
        let c = b.class("C", Some(object));
        let f = b.static_field(c, "cell");
        let main = b.method(c, "main", &[], true);
        let x = b.var(main, "x");
        let y = b.var(main, "y");
        b.alloc(main, x, c, "new C");
        b.load(main, y, x, f); // instance load of a static field
        b.entry_point(main);
        assert!(matches!(
            b.finish().unwrap_err(),
            ValidateError::BadFieldKind { .. }
        ));
    }

    #[test]
    fn static_access_to_instance_field_is_rejected() {
        let mut b = ProgramBuilder::new();
        let object = b.class("Object", None);
        let c = b.class("C", Some(object));
        let f = b.field(c, "slot");
        let main = b.method(c, "main", &[], true);
        let y = b.var(main, "y");
        b.sload(main, y, f); // static load of an instance field
        b.entry_point(main);
        assert!(matches!(
            b.finish().unwrap_err(),
            ValidateError::BadFieldKind { .. }
        ));
    }

    #[test]
    fn throw_and_catch_validate() {
        let mut b = ProgramBuilder::new();
        let object = b.class("Object", None);
        let err = b.class("Err", Some(object));
        let main = b.method(object, "main", &[], true);
        let _binder = b.catch_clause(main, err, "e");
        let x = b.var(main, "x");
        b.alloc(main, x, err, "new Err");
        b.throw(main, x);
        b.entry_point(main);
        assert!(b.finish().is_ok());
    }
}
