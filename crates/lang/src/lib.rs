//! # pta-lang — a textual frontend for the analysis intermediate language
//!
//! The paper's implementation consumes Java bytecode through Soot's Jimple
//! representation and Doop's fact extraction. This crate provides the
//! equivalent ingestion path for this reproduction: a small, readable
//! surface syntax (`.jir`) that lowers to the exact intermediate language of
//! the paper's Figure 1 (allocations, moves, casts, field loads/stores,
//! virtual calls, static calls).
//!
//! ## Syntax
//!
//! ```text
//! class Object {}
//!
//! class Box : Object {
//!     field value;
//!
//!     method set(v) {
//!         this.value = v;
//!     }
//!
//!     method get() {
//!         r = this.value;
//!         return r;
//!     }
//! }
//!
//! class Main : Object {
//!     static main() {
//!         b = new Box;
//!         p = new Object;
//!         b.set(p);
//!         r = b.get();
//!         o = (Object) r;
//!     }
//! }
//!
//! entry Main.main;
//! ```
//!
//! - Local variables are implicitly declared at first assignment; `this`
//!   and formal parameters are pre-bound.
//! - `X.m(...)` is a **static call** when `X` names a class, and a
//!   **virtual call** when `X` is a local variable — mirroring Java source.
//! - `return x;` designates the method's return variable (multiple returns
//!   lower to moves into a synthetic `$ret`, which is sound for a
//!   flow-insensitive analysis).
//!
//! ## Example
//!
//! ```
//! let program = pta_lang::parse_program(r#"
//!     class Object {}
//!     class Main : Object {
//!         static main() { x = new Object; }
//!     }
//!     entry Main.main;
//! "#).unwrap();
//! assert_eq!(program.heap_count(), 1);
//! ```

pub mod ast;
pub mod error;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod printer;

pub use error::{LangError, Location};
pub use printer::print_program;

use pta_ir::Program;

/// Parses and lowers a `.jir` source text into a [`Program`].
///
/// # Errors
///
/// Returns a [`LangError`] describing the first lexical, syntactic, or
/// semantic problem encountered (with source location where applicable).
pub fn parse_program(source: &str) -> Result<Program, LangError> {
    let tokens = lexer::lex(source)?;
    let module = parser::parse(&tokens)?;
    // The AST borrows from the source, not the tokens: free them before
    // lowering allocates the program.
    drop(tokens);
    lower::lower(&module)
}
