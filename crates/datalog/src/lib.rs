//! # pta-datalog — a semi-naive Datalog engine with constructor functors
//!
//! The PLDI 2013 paper specifies its points-to analysis as nine Datalog
//! rules evaluated on the commercial LogicBlox engine (via the Doop
//! framework). This crate is a from-scratch reimplementation of the engine
//! machinery that evaluation relies on:
//!
//! - **relations** of fixed-arity `u32` tuples with hash-set deduplication
//!   and incrementally maintained hash indices over arbitrary column subsets
//!   ([`relation`]);
//! - **rules** — conjunctive queries with multiple head atoms, constants,
//!   and *constructor functors* ([`rule`]). Functors model the paper's
//!   `Record` / `Merge` / `MergeStatic` context constructors, which the
//!   paper notes are "not part of regular Datalog";
//! - **semi-naive fixpoint evaluation** with delta relations, so each rule
//!   only re-joins against facts produced in the previous round
//!   ([`engine`]);
//! - **stratified scheduling**: rules are grouped by the strongly connected
//!   components of the relation dependency graph and each stratum is run to
//!   fixpoint in topological order ([`stratify`]).
//!
//! The engine is deliberately general: `pta-core` uses it to express the
//! paper's Figure 2 rule set *literally* (see `pta_core`'s `datalog_impl`
//! module), and the test suites cross-validate it against the specialized
//! solver on every workload. It is also usable stand-alone:
//!
//! ```
//! use pta_datalog::{Engine, Term};
//!
//! let mut e = Engine::new();
//! let edge = e.relation("edge", 2);
//! let path = e.relation("path", 2);
//! e.fact(edge, &[0, 1]);
//! e.fact(edge, &[1, 2]);
//! e.fact(edge, &[2, 3]);
//!
//! // path(x, y) <- edge(x, y).
//! e.rule()
//!     .head(path, &[Term::var("x"), Term::var("y")])
//!     .atom(edge, &[Term::var("x"), Term::var("y")])
//!     .build()
//!     .unwrap();
//! // path(x, z) <- edge(x, y), path(y, z).
//! e.rule()
//!     .head(path, &[Term::var("x"), Term::var("z")])
//!     .atom(edge, &[Term::var("x"), Term::var("y")])
//!     .atom(path, &[Term::var("y"), Term::var("z")])
//!     .build()
//!     .unwrap();
//!
//! e.run();
//! assert_eq!(e.rows(path).count(), 6); // all reachable pairs
//! ```

pub mod engine;
pub mod relation;
pub mod rule;
pub mod stratify;
pub mod tuple;
pub mod verify;

pub use engine::{Engine, EngineStats, FunctorId, RelId, RuleProfile};
pub use rule::{RuleBuildError, RuleBuilder, Term};
pub use tuple::{Row, MAX_ARITY};
pub use verify::{StratumInfo, VerifyIssue, VerifyIssueKind, VerifyReport};
