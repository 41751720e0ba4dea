//! # pta-workload — synthetic Java-like workloads
//!
//! The paper evaluates on the DaCapo 2006-10-MR2 benchmarks plus the JDK,
//! extracted to Datalog facts via Soot. This reproduction cannot ship Java
//! bytecode, so this crate generates **deterministic synthetic programs** in
//! the paper's intermediate language that exhibit the idioms whose
//! interaction with context-sensitivity the paper studies:
//!
//! - **static utility layers** (identity/wrapper/conversion helpers, and
//!   *chains* of static calls) — the language feature whose context
//!   treatment (`MergeStatic`) is the paper's central knob. Object-sensitive
//!   analyses conflate all calls to these helpers that share a caller
//!   context; the hybrid analyses separate them by invocation site;
//! - **polymorphic class hierarchies** driven through virtual calls — where
//!   object-sensitivity pays off and call-site-sensitivity does not;
//! - **container classes** (`set`/`get` through fields) reached through
//!   *shared helper methods*, the classic pattern where a 1-call-site
//!   analysis loses the distinction but a 1-object analysis keeps it;
//! - **downcasts after container retrieval** — the source of the may-fail
//!   casts metric;
//! - **driver layers** of static methods fanning out from `main`, matching
//!   the static-heavy call structure of real Java programs.
//!
//! [`dacapo`] instantiates ten named workloads mirroring the DaCapo suite's
//! relative sizes and idiom mixes. Generation is fully deterministic in
//! `(config, seed)`.
//!
//! ## Example
//!
//! ```
//! use pta_workload::{generate, WorkloadConfig};
//!
//! let program = generate(&WorkloadConfig::tiny(42));
//! assert!(program.method_count() > 10);
//! // Deterministic: same config, same program.
//! let again = generate(&WorkloadConfig::tiny(42));
//! assert_eq!(program.method_count(), again.method_count());
//! ```

pub mod config;
pub mod dacapo;
pub mod edits;
pub mod gen;
pub mod prelude;

pub use config::WorkloadConfig;
pub use dacapo::{
    check_name, dacapo_config, dacapo_suite, dacapo_workload, parse_scale, parse_spec, DACAPO_NAMES,
};
pub use edits::{materialize, replay, shrink_steps, Edit, EditStream};
pub use gen::generate;
pub use prelude::{build_array_list, build_pair, ArrayListClasses, PairClasses};

/// The `pta check` spec matching the classes injected by
/// [`WorkloadConfig::taint_groups`]: every `TaintSrc{g}.make` is a taint
/// source, every `TaintSan{g}.cleanse` a sanitizer, and argument 0 of
/// every `TaintSink{g}.sink` a sink.
pub const TAINT_SPEC: &str =
    "source TaintSrc*.make\nsanitizer TaintSan*.cleanse\nsink TaintSink*.sink 0\n";
