//! # pta-ir — program representation for hybrid points-to analysis
//!
//! This crate implements the *domain* and *input language* of the PLDI 2013
//! paper "Hybrid Context-Sensitivity for Points-To Analysis" (Kastrinis and
//! Smaragdakis), Figure 1:
//!
//! - the value sets `V` (variables), `H` (heap abstractions / allocation
//!   sites), `M` (methods), `S` (signatures), `F` (fields), `I` (invocation
//!   sites) and `T` (class types), each modeled as a dense [`u32`] ID space
//!   (see [`ids`]);
//! - the instruction set of the simplified intermediate language: `new`
//!   (allocation), `move`, `load`, `store`, virtual calls and static calls
//!   (see [`Instr`]), plus `cast`, which the paper's evaluation uses for the
//!   *may-fail casts* client metric;
//! - the symbol-table relations `FormalArg`, `ActualArg`, `FormalReturn`,
//!   `ActualReturn`, `ThisVar`, `HeapType` and `Lookup`, which appear here as
//!   accessors on [`Program`] and as the precomputed dispatch tables in
//!   [`hierarchy`].
//!
//! The representation deliberately mirrors Java bytecode after Soot's Jimple
//! lowering (three-address form, explicit invocation sites, allocation sites
//! as heap abstractions), which is the input the paper's Doop implementation
//! consumes. Programs are constructed either programmatically through
//! [`ProgramBuilder`] or from the textual `.jir` format in the `pta-lang`
//! crate.
//!
//! As in the paper's model (§2.1), static fields, reflection, native methods
//! and threads are out of scope: "their treatment is a mere engineering
//! complexity, as it does not interact with context choice".
//!
//! ## Example
//!
//! ```
//! use pta_ir::ProgramBuilder;
//!
//! let mut b = ProgramBuilder::new();
//! let object = b.class("Object", None);
//! let c = b.class("C", Some(object));
//! let m = b.method(c, "main", &[], true);
//! let v = b.var(m, "v");
//! b.alloc(m, v, c, "new C");
//! b.entry_point(m);
//! let program = b.finish().expect("valid program");
//! assert_eq!(program.method_count(), 1);
//! ```

pub mod builder;
pub mod delta;
pub mod hash;
pub mod hierarchy;
pub mod ids;
pub mod interp;
mod names;
pub mod program;
pub mod rng;
pub mod srcloc;
pub mod stats;
pub mod validate;

pub use builder::ProgramBuilder;
pub use delta::{DeltaError, ProgramDelta};
pub use hierarchy::Hierarchy;
pub use ids::{FieldId, HeapId, InvoId, MethodId, SigId, TypeId, VarId};
pub use interp::{DynamicFacts, InterpConfig, Interpreter};
pub use program::{Instr, InvoKind, Program};
pub use srcloc::SrcLoc;
pub use stats::{ProgramStats, SizeHints};
pub use validate::{FieldAccess, ValidateError};
