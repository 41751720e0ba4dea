//! `pta-serve` — the resident analysis daemon behind `pta serve`.
//!
//! The batch CLI answers one question per process; this crate keeps the
//! expensive state — interned programs and solved `PointsToResult`s —
//! resident and answers many cheap questions over a line-delimited JSON
//! protocol (stdin/stdout and an optional TCP listener). The design
//! brief is *robustness of the request lifecycle*, built from the
//! governance primitives the batch mode already has:
//!
//! - **Admission control**: a bounded queue; a full queue sheds with an
//!   explicit `overloaded` error instead of buffering without bound.
//! - **Deadlines + cancellation**: every request carries a
//!   `CancelToken` and optional deadline, checked cooperatively at
//!   every evaluation step, so a cancelled request frees its worker
//!   within one loop iteration.
//! - **Graceful degradation**: a policy whose startup solve tripped its
//!   budget answers from the context-insensitive fallback, tagged
//!   `"partial": true` — the resident analog of batch exit code 3.
//! - **Graceful shutdown**: SIGTERM, stdin EOF, or the `shutdown` op
//!   stop admission and drain in-flight work under a drain deadline
//!   (exit 0), force-cancelling only if the deadline passes (exit 3).
//! - **Fault injection**: `--inject-faults` disturbs a seeded,
//!   per-request-id-deterministic subset of requests (delay / cancel /
//!   exhaust / garble) so the soak test (`crates/serve/tests/soak.rs`)
//!   can predict every byte the daemon should emit — see [`fault`].
//!
//! Module map: [`protocol`] defines the wire grammar, [`resident`] the
//! solved-once cache, [`answer`](mod@answer) the pure evaluator shared with the
//! soak oracle, [`fault`] the injector, and [`server`] the
//! queue/worker/drain machinery.

pub mod answer;
pub mod fault;
pub mod json;
pub mod protocol;
pub mod resident;
pub mod server;

pub use answer::{answer, ReqCtx};
pub use fault::{garble_line, FaultInjector, FaultKind};
pub use protocol::{error_line, parse_request, ErrorCode, Op, Request};
pub use resident::{PolicyEntry, ProgramSource, Resident, ResidentProgram, SolveConfig};
pub use server::{launch, run, ServeConfig, ServerHandle};
