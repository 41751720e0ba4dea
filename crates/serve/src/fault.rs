//! Request-level fault injection for soak testing the daemon.
//!
//! `--inject-faults RATE,KINDS` arms an injector that decides, **per
//! request id**, whether to disturb the request and how. The decision is
//! a pure function of `(seed, request id)` — admission order, worker
//! scheduling, and connection multiplexing cannot change it — so the
//! soak driver in `crates/bench` runs the same function and knows in
//! advance exactly which of its requests will be delayed, cancelled,
//! starved, or garbled, and therefore exactly what bytes every response
//! must carry. Fault injection never makes an answer *wrong*: a faulted
//! request either still answers correctly (delay), answers with a
//! deterministic structured error (cancel, exhaust), or is replaced by
//! the sentinel garble line that carries its id.

use pta_ir::rng::Rng;

/// The ways a request can be disturbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Sleep a deterministic 1–50 ms before evaluation; the answer is
    /// still correct. Exercises queueing and deadline pressure.
    Delay,
    /// Trip the request's `CancelToken` before evaluation: the worker
    /// must come back immediately with a `cancelled` error.
    Cancel,
    /// Zero the request's evaluation step budget: the first cooperative
    /// check trips with a `budget_exhausted` error.
    Exhaust,
    /// Replace the response with the malformed sentinel line
    /// `!garble <id>` — simulates a daemon bug corrupting a response so
    /// clients (and the soak driver) prove they survive one.
    Garble,
}

impl FaultKind {
    /// Every kind, in declaration order.
    pub(crate) const ALL: [FaultKind; 4] = [
        FaultKind::Delay,
        FaultKind::Cancel,
        FaultKind::Exhaust,
        FaultKind::Garble,
    ];

    /// Stable flag/wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Delay => "delay",
            FaultKind::Cancel => "cancel",
            FaultKind::Exhaust => "exhaust",
            FaultKind::Garble => "garble",
        }
    }

    fn parse(text: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.as_str() == text)
    }
}

/// A seeded per-request fault plan; `None` rate means injection is off.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjector {
    /// Probability in `[0, 1]` that a given request id faults.
    pub rate: f64,
    /// The kinds eligible for injection, in flag order.
    pub kinds: Vec<FaultKind>,
    /// Decision seed, mixed with the request id.
    pub seed: u64,
}

impl FaultInjector {
    /// Parses the `--inject-faults` flag value: `RATE,KIND[+KIND...]`,
    /// e.g. `0.05,delay+cancel+exhaust+garble`.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultInjector, String> {
        let (rate_text, kinds_text) = spec
            .split_once(',')
            .ok_or_else(|| format!("expected RATE,KINDS, got \"{spec}\""))?;
        let rate: f64 = rate_text
            .parse()
            .map_err(|_| format!("bad fault rate \"{rate_text}\""))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("fault rate {rate} outside [0, 1]"));
        }
        let mut kinds = Vec::new();
        for k in kinds_text.split('+') {
            let kind = FaultKind::parse(k).ok_or_else(|| {
                format!("unknown fault kind \"{k}\" (want delay|cancel|exhaust|garble)")
            })?;
            if !kinds.contains(&kind) {
                kinds.push(kind);
            }
        }
        if kinds.is_empty() {
            return Err("at least one fault kind is required".into());
        }
        Ok(FaultInjector { rate, kinds, seed })
    }

    /// The fault (if any) for request `id`. Pure in `(self, id)`.
    #[must_use]
    pub fn decide(&self, id: u64) -> Option<FaultKind> {
        let mut rng = Rng::seed_from_u64(self.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if !rng.gen_bool(self.rate) {
            return None;
        }
        Some(self.kinds[rng.gen_range(0..self.kinds.len())])
    }

    /// Deterministic delay duration for a [`FaultKind::Delay`] fault on
    /// request `id`: 1–50 ms.
    #[must_use]
    pub fn delay_ms(&self, id: u64) -> u64 {
        let mut rng = Rng::seed_from_u64(self.seed.rotate_left(17) ^ id);
        rng.gen_range(1..51u64)
    }
}

/// The sentinel line emitted in place of a response for a garble fault.
/// It is intentionally not JSON; it still carries the request id so a
/// client can correlate (the soak driver matches on this exact shape).
#[must_use]
pub fn garble_line(id: u64) -> String {
    format!("!garble {id}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_shape() {
        let f = FaultInjector::parse("0.25,delay+garble", 7).unwrap();
        assert_eq!(f.rate, 0.25);
        assert_eq!(f.kinds, vec![FaultKind::Delay, FaultKind::Garble]);
        assert!(FaultInjector::parse("delay", 0).is_err());
        assert!(FaultInjector::parse("2.0,delay", 0).is_err());
        assert!(FaultInjector::parse("0.1,sparkle", 0).is_err());
        assert!(FaultInjector::parse("0.1,", 0).is_err());
    }

    #[test]
    fn decisions_are_pure_and_rate_shaped() {
        let f = FaultInjector::parse("0.1,delay+cancel+exhaust+garble", 42).unwrap();
        let hits: Vec<_> = (0..10_000).filter_map(|id| f.decide(id)).collect();
        // ~10% of 10k ids fault, with generous slack for the tiny Rng.
        assert!((500..2000).contains(&hits.len()), "{} faults", hits.len());
        // Every kind shows up, and re-deciding gives identical answers.
        for kind in FaultKind::ALL {
            assert!(hits.contains(&kind), "{kind:?} never injected");
        }
        for id in 0..10_000 {
            assert_eq!(f.decide(id), f.decide(id));
        }
    }

    #[test]
    fn rate_zero_and_one_are_exact() {
        let off = FaultInjector::parse("0,delay", 1).unwrap();
        let on = FaultInjector::parse("1,cancel", 1).unwrap();
        for id in 0..256 {
            assert_eq!(off.decide(id), None);
            assert_eq!(on.decide(id), Some(FaultKind::Cancel));
        }
    }
}
