//! Resource governance for the analysis back ends.
//!
//! Context-sensitive points-to analysis can blow up unpredictably: the
//! paper's own evaluation reports multi-hour timeouts on hsqldb and
//! jython-class configurations. This crate is the small, dependency-free
//! vocabulary both back ends (the specialized solver and the Datalog
//! engine) share to keep such runs governed:
//!
//! * [`Budget`] — declarative limits: a wall-clock deadline, a fixpoint
//!   step limit, a memory cap over interned keys and tuples, and a
//!   context fan-out watermark used by graceful degradation.
//! * [`CancelToken`] — a cloneable cooperative cancellation flag
//!   (optionally following the process-wide SIGINT latch) so a CLI
//!   ctrl-c or a bench driver can stop an in-flight solve.
//! * [`BudgetMeter`] — the cheap cooperative checker the fixpoint loops
//!   consult once per batch/round; wall-clock reads are strided so the
//!   hot loop never pays a syscall per step.
//! * [`Termination`] — the structured status every governed run returns
//!   instead of aborting: `Complete`, `DeadlineExceeded`, `StepLimit` or
//!   `MemoryCap`.
//!
//! External cancellation (ctrl-c, a bench cell deadline firing from
//! outside) is reported as [`Termination::DeadlineExceeded`]: from the
//! caller's point of view both mean "time was called on this run", and
//! keeping the status space at exactly four variants keeps every
//! downstream `match` total.

pub mod memtrack;

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a governed run ended.
///
/// `Complete` means the fixpoint was reached (possibly after graceful
/// degradation — a degraded run is coarser but still a fixpoint). The
/// other three variants tag a *partial* result: a sound prefix of the
/// fixpoint, safe to inspect but not to treat as the full answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Termination {
    /// The fixpoint was reached; the result is the full answer.
    #[default]
    Complete,
    /// The wall-clock deadline passed, or the run was cancelled from
    /// outside (ctrl-c, bench cell deadline).
    DeadlineExceeded,
    /// The fixpoint step limit was exhausted.
    StepLimit,
    /// The interned-key/tuple memory estimate crossed the cap.
    MemoryCap,
}

impl Termination {
    /// Stable machine-readable name, used verbatim in JSON reports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Termination::Complete => "complete",
            Termination::DeadlineExceeded => "deadline_exceeded",
            Termination::StepLimit => "step_limit",
            Termination::MemoryCap => "memory_cap",
        }
    }

    /// Whether the run reached its fixpoint.
    #[must_use]
    pub fn is_complete(self) -> bool {
        matches!(self, Termination::Complete)
    }
}

impl fmt::Display for Termination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Declarative resource limits for one solve. `Default` is unlimited.
///
/// All limits are optional and independent; the first one to trip
/// decides the [`Termination`] status. The `watermark` is not a hard
/// limit by itself — it is the per-method context fan-out threshold the
/// solver's graceful-degradation mode uses to pick demotion victims.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock deadline, measured from [`BudgetMeter::new`].
    pub deadline: Option<Duration>,
    /// Maximum number of fixpoint steps (worklist pops / engine rounds).
    pub max_steps: Option<u64>,
    /// Cap on the solver's coarse interned-key/tuple byte estimate.
    pub max_memory_bytes: Option<u64>,
    /// Context fan-out watermark for graceful degradation.
    pub watermark: Option<u32>,
}

impl Budget {
    /// An unlimited budget (same as `Budget::default()`).
    #[must_use]
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Sets the wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the fixpoint step limit.
    #[must_use]
    pub fn with_max_steps(mut self, steps: u64) -> Self {
        self.max_steps = Some(steps);
        self
    }

    /// Sets the memory-estimate cap in bytes.
    #[must_use]
    pub fn with_max_memory(mut self, bytes: u64) -> Self {
        self.max_memory_bytes = Some(bytes);
        self
    }

    /// Sets the context fan-out watermark.
    #[must_use]
    pub fn with_watermark(mut self, watermark: u32) -> Self {
        self.watermark = Some(watermark);
        self
    }

    /// Whether no limit is set at all (the meter can skip every check).
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_steps.is_none() && self.max_memory_bytes.is_none()
    }
}

/// Process-wide SIGINT latch; see [`CancelToken::linked_to_sigint`].
static SIGINT_HIT: AtomicBool = AtomicBool::new(false);
/// Process-wide SIGTERM latch; see [`CancelToken::linked_to_sigterm`].
static SIGTERM_HIT: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handler(signum: i32, latch: &'static AtomicBool) {
    // One handler per latch; the latch is selected by signal number so
    // the handler body stays a single async-signal-safe atomic store.
    extern "C" fn on_signal(signum: i32) {
        let latch = if signum == SIGTERM {
            &SIGTERM_HIT
        } else {
            &SIGINT_HIT
        };
        latch.store(true, Ordering::SeqCst);
    }
    let _ = latch;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    // SAFETY: `signal` is the C standard library's handler installer
    // (std already links libc on unix); the handler performs only an
    // atomic store, which is async-signal-safe.
    unsafe {
        signal(signum, on_signal as *const () as usize);
    }
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

#[cfg(unix)]
fn install_sigint_handler() {
    install_signal_handler(SIGINT, &SIGINT_HIT);
}

#[cfg(unix)]
fn install_sigterm_handler() {
    install_signal_handler(SIGTERM, &SIGTERM_HIT);
}

#[cfg(not(unix))]
fn install_sigint_handler() {}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

/// Cooperative cancellation flag shared between a driver and the solve
/// it started. Cloning yields a handle to the *same* flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    follow_sigint: bool,
    follow_sigterm: bool,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A fresh token that also trips when the process receives SIGINT.
    ///
    /// Installs the (idempotent) SIGINT handler on unix; elsewhere the
    /// token behaves exactly like [`CancelToken::new`].
    #[must_use]
    pub fn linked_to_sigint() -> Self {
        install_sigint_handler();
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            follow_sigint: true,
            follow_sigterm: false,
        }
    }

    /// A fresh token that also trips when the process receives SIGTERM —
    /// the shutdown signal a service manager sends a resident daemon.
    ///
    /// Installs the (idempotent) SIGTERM handler on unix; elsewhere the
    /// token behaves exactly like [`CancelToken::new`]. The latch is
    /// process-wide: every linked token trips together, which is the
    /// desired semantics for "stop the daemon".
    #[must_use]
    pub fn linked_to_sigterm() -> Self {
        install_sigterm_handler();
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            follow_sigint: false,
            follow_sigterm: true,
        }
    }

    /// Requests cancellation; every clone observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation was requested (directly or, for linked
    /// tokens, via SIGINT).
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
            || (self.follow_sigint && SIGINT_HIT.load(Ordering::Relaxed))
            || (self.follow_sigterm && SIGTERM_HIT.load(Ordering::Relaxed))
    }
}

/// How many `check` calls pass between wall-clock reads. Steps are tiny
/// (one worklist pop / one engine round), so even a coarse stride keeps
/// deadline overshoot far below the contractual 10%.
const TIME_CHECK_STRIDE: u32 = 64;

/// The runtime side of a [`Budget`]: captures the start instant and
/// answers "has anything tripped?" cheaply from inside a fixpoint loop.
///
/// Step and memory comparisons happen on every call; wall-clock reads
/// are strided (`TIME_CHECK_STRIDE`) because `Instant::now` is the
/// only costly probe. The limits are mutable (`extend_*`) so graceful
/// degradation can demote contexts and then grant itself headroom to
/// finish the coarser run.
#[derive(Debug)]
pub struct BudgetMeter {
    start: Instant,
    deadline: Option<Instant>,
    max_steps: Option<u64>,
    max_memory_bytes: Option<u64>,
    until_time_check: u32,
}

impl BudgetMeter {
    /// Starts the clock on `budget`.
    #[must_use]
    pub fn new(budget: &Budget) -> Self {
        let start = Instant::now();
        BudgetMeter {
            start,
            deadline: budget.deadline.map(|d| start + d),
            max_steps: budget.max_steps,
            max_memory_bytes: budget.max_memory_bytes,
            until_time_check: 0,
        }
    }

    /// Time elapsed since the meter was created.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// The cooperative check. Returns the first tripped limit, or
    /// `None` while the run is still within budget. `steps` and
    /// `memory_bytes` are the caller's running totals; `cancel` is
    /// consulted on every call (one relaxed atomic load).
    pub fn check(
        &mut self,
        steps: u64,
        memory_bytes: u64,
        cancel: Option<&CancelToken>,
    ) -> Option<Termination> {
        if let Some(token) = cancel {
            if token.is_cancelled() {
                return Some(Termination::DeadlineExceeded);
            }
        }
        if let Some(max) = self.max_steps {
            if steps >= max {
                return Some(Termination::StepLimit);
            }
        }
        if let Some(cap) = self.max_memory_bytes {
            if memory_bytes > cap {
                return Some(Termination::MemoryCap);
            }
        }
        if let Some(deadline) = self.deadline {
            if self.until_time_check == 0 {
                self.until_time_check = TIME_CHECK_STRIDE;
                if Instant::now() >= deadline {
                    return Some(Termination::DeadlineExceeded);
                }
            }
            self.until_time_check -= 1;
        }
        None
    }

    /// Raises the step limit by `extra` (no-op when unlimited).
    pub fn extend_steps(&mut self, extra: u64) {
        if let Some(max) = self.max_steps.as_mut() {
            *max = max.saturating_add(extra);
        }
    }

    /// Raises the memory cap by `extra` bytes (no-op when unlimited).
    pub fn extend_memory(&mut self, extra: u64) {
        if let Some(cap) = self.max_memory_bytes.as_mut() {
            *cap = cap.saturating_add(extra);
        }
    }

    /// Pushes the deadline back by `extra` and forces the next `check`
    /// to re-read the clock (no-op when no deadline is set).
    pub fn extend_deadline(&mut self, extra: Duration) {
        if let Some(deadline) = self.deadline.as_mut() {
            *deadline += extra;
            self.until_time_check = 0;
        }
    }
}

/// Parses a human-friendly byte size: a plain integer, or one with a
/// `K`/`M`/`G` suffix (case-insensitive, powers of 1024). Used by the
/// CLI's `--max-memory` flag.
pub fn parse_byte_size(s: &str) -> Result<u64, String> {
    let s = s.trim();
    if s.is_empty() {
        return Err("empty byte size".to_owned());
    }
    let (digits, multiplier) = match s.as_bytes()[s.len() - 1] {
        b'k' | b'K' => (&s[..s.len() - 1], 1u64 << 10),
        b'm' | b'M' => (&s[..s.len() - 1], 1u64 << 20),
        b'g' | b'G' => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    let value: u64 = digits
        .trim()
        .parse()
        .map_err(|_| format!("invalid byte size `{s}` (expected N, NK, NM or NG)"))?;
    value
        .checked_mul(multiplier)
        .ok_or_else(|| format!("byte size `{s}` overflows u64"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unlimited_and_never_trips() {
        let budget = Budget::default();
        assert!(budget.is_unlimited());
        let mut meter = BudgetMeter::new(&budget);
        for step in 0..10_000 {
            assert_eq!(meter.check(step, u64::MAX, None), None);
        }
    }

    #[test]
    fn step_limit_trips_at_the_limit() {
        let mut meter = BudgetMeter::new(&Budget::default().with_max_steps(5));
        assert_eq!(meter.check(4, 0, None), None);
        assert_eq!(meter.check(5, 0, None), Some(Termination::StepLimit));
    }

    #[test]
    fn memory_cap_trips_past_the_cap() {
        let mut meter = BudgetMeter::new(&Budget::default().with_max_memory(1024));
        assert_eq!(meter.check(0, 1024, None), None);
        assert_eq!(meter.check(0, 1025, None), Some(Termination::MemoryCap));
    }

    #[test]
    fn deadline_trips_within_the_stride() {
        let mut meter = BudgetMeter::new(&Budget::default().with_deadline(Duration::ZERO));
        let mut tripped = false;
        for step in 0..=u64::from(TIME_CHECK_STRIDE) {
            if meter.check(step, 0, None) == Some(Termination::DeadlineExceeded) {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "zero deadline must trip within one stride");
    }

    #[test]
    fn cancellation_is_shared_across_clones_and_maps_to_deadline() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        let mut meter = BudgetMeter::new(&Budget::default());
        assert_eq!(
            meter.check(0, 0, Some(&clone)),
            Some(Termination::DeadlineExceeded)
        );
    }

    #[test]
    fn extensions_raise_tripped_limits() {
        let mut meter = BudgetMeter::new(&Budget::default().with_max_steps(2).with_max_memory(10));
        assert_eq!(meter.check(2, 0, None), Some(Termination::StepLimit));
        meter.extend_steps(10);
        assert_eq!(meter.check(2, 0, None), None);
        assert_eq!(meter.check(0, 11, None), Some(Termination::MemoryCap));
        meter.extend_memory(100);
        assert_eq!(meter.check(0, 11, None), None);
    }

    #[test]
    fn termination_strings_are_stable() {
        assert_eq!(Termination::Complete.as_str(), "complete");
        assert_eq!(Termination::DeadlineExceeded.as_str(), "deadline_exceeded");
        assert_eq!(Termination::StepLimit.as_str(), "step_limit");
        assert_eq!(Termination::MemoryCap.as_str(), "memory_cap");
        assert!(Termination::Complete.is_complete());
        assert!(!Termination::StepLimit.is_complete());
    }

    #[cfg(unix)]
    #[test]
    fn sigterm_linked_token_trips_on_the_signal() {
        // Install the handler first, then raise SIGTERM at ourselves;
        // the handler only latches an atomic, so the test binary
        // survives and every linked token observes the cancellation.
        let token = CancelToken::linked_to_sigterm();
        let unlinked = CancelToken::new();
        assert!(!token.is_cancelled());
        extern "C" {
            fn raise(signum: i32) -> i32;
        }
        // SAFETY: the handler installed by `linked_to_sigterm` replaces
        // the default terminate disposition with an atomic store.
        unsafe {
            raise(SIGTERM);
        }
        assert!(token.is_cancelled());
        assert!(!unlinked.is_cancelled());
    }

    #[test]
    fn byte_sizes_parse_with_suffixes() {
        assert_eq!(parse_byte_size("1024"), Ok(1024));
        assert_eq!(parse_byte_size("4K"), Ok(4096));
        assert_eq!(parse_byte_size("2m"), Ok(2 << 20));
        assert_eq!(parse_byte_size("1G"), Ok(1 << 30));
        assert!(parse_byte_size("").is_err());
        assert!(parse_byte_size("12Q").is_err());
        assert!(parse_byte_size("nope").is_err());
    }
}
