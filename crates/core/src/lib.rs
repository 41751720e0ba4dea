//! # pta-core — hybrid context-sensitive points-to analysis
//!
//! This crate implements the primary contribution of *"Hybrid
//! Context-Sensitivity for Points-To Analysis"* (Kastrinis & Smaragdakis,
//! PLDI 2013): a context-sensitive, flow-insensitive, field-sensitive
//! points-to analysis with on-the-fly call-graph construction, parameterized
//! by three context-constructor functions (`Record`, `Merge`,
//! `MergeStatic`), together with **every analysis the paper defines**:
//!
//! - the classic analyses `insens`, `1call`, `1call+H`, `1obj`, `2obj+H`,
//!   `2type+H` (§2.2);
//! - the **uniform hybrids** `U-1obj`, `U-2obj+H`, `U-2type+H` (§3.1);
//! - the **selective hybrids** `SA-1obj`, `SB-1obj`, `S-2obj+H`,
//!   `S-2type+H` (§3.2) — the paper's contribution;
//! - the `2call+H` deep-call-site ablation.
//!
//! Two interchangeable evaluation back ends are provided, both reached
//! through the [`AnalysisSession`] builder:
//!
//! - [`Backend::Dense`] / [`solver`] — a specialized semi-naive worklist
//!   solver, the analogue of Doop's compiled LogicBlox program. This is
//!   the fast path used by benchmarks.
//! - [`Backend::Datalog`] / [`datalog_impl`] — the paper's Figure 2 rules
//!   encoded *literally* on the generic [`pta_datalog`] engine, with the
//!   context constructors registered as functors. The two back ends are
//!   cross-validated to produce identical results on every workload.
//!
//! ## Quick start
//!
//! ```
//! use pta_core::{Analysis, AnalysisSession};
//! use pta_ir::ProgramBuilder;
//!
//! // new C; two call sites of a static identity method.
//! let mut b = ProgramBuilder::new();
//! let object = b.class("Object", None);
//! let c = b.class("C", Some(object));
//! let id = b.method(c, "id", &["x"], true);
//! let x = b.formals(id)[0];
//! b.set_return(id, x);
//! let main = b.method(c, "main", &[], true);
//! let (a1, a2) = (b.var(main, "a1"), b.var(main, "a2"));
//! let (r1, r2) = (b.var(main, "r1"), b.var(main, "r2"));
//! b.alloc(main, a1, c, "h1");
//! b.alloc(main, a2, c, "h2");
//! b.scall(main, id, &[a1], Some(r1), "i1");
//! b.scall(main, id, &[a2], Some(r2), "i2");
//! b.entry_point(main);
//! let program = b.finish()?;
//!
//! // 1obj merges the two static calls; the selective hybrid SA-1obj
//! // distinguishes them by call site — the paper's core observation.
//! let merged = AnalysisSession::open(program.clone())
//!     .policy(Analysis::OneObj)
//!     .solve();
//! let hybrid = AnalysisSession::open(program).policy(Analysis::SAOneObj).solve();
//! assert_eq!(merged.points_to(r1).len(), 2);
//! assert_eq!(hybrid.points_to(r1).len(), 1);
//! # let _ = r2;
//! # Ok::<(), pta_ir::ValidateError>(())
//! ```

pub mod context;
pub mod datalog_impl;
pub mod fault;
pub mod policy;
pub mod project;
pub mod pts;
pub mod results;
pub mod session;
pub mod solver;

pub use context::{
    ctx1, ctx2, ctx3, hctx1, hctx2, Ctx, CtxElem, CtxElemKind, CtxId, HCtxId, HeapCtx, CTX_EMPTY,
    HCTX_EMPTY,
};
pub use fault::FaultPlan;
pub use policy::{Analysis, ContextPolicy, ParseAnalysisError};
pub use pts::PtsSet;
// Governance vocabulary, re-exported so downstream users configure
// budgets without naming pta-govern directly.
pub use pta_govern::{Budget, BudgetMeter, CancelToken, Termination};
// Observability vocabulary, likewise: sessions are traced/profiled
// without naming pta-obs directly.
pub use pta_obs::{Profile, Trace};
pub use results::{CtxVarPointsTo, DemotedSite, Derivation, PointsToResult, SolverStats};
pub use session::{AnalysisSession, Backend};
pub use solver::incremental::ApplyStats;
pub use solver::SolverConfig;
