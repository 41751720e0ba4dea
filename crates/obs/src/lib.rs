//! `pta-obs`: the observability layer — a span/event recorder with a
//! monotonic clock, a Chrome trace-event JSON writer, and rule-level
//! profile types shared by both analysis back ends.
//!
//! # Recorder architecture
//!
//! A [`Trace`] is a cheap cloneable handle. Disabled (the default) it is
//! a true no-op: every recording method is an inlined early return on a
//! `None`, performs **zero heap allocations**, and reads no clock —
//! `crates/obs/tests/overhead.rs` pins this with a counting global
//! allocator. Enabled, each participating thread obtains a [`TraceScope`]
//! and appends events to a thread-local buffer with **no locking on the
//! hot path**; the single shared `Mutex` is taken only when a scope is
//! dropped (or explicitly flushed), merging the buffer into the trace.
//!
//! Timestamps are nanoseconds from a single monotonic origin
//! ([`std::time::Instant`]) captured when the trace is enabled, so events
//! from different threads share one timeline.
//!
//! # Output
//!
//! [`Trace::to_chrome_json`] renders the classic Chrome trace-event
//! format — `{"traceEvents":[...]}` with `ph:"X"` complete spans,
//! `ph:"i"` instants, `ph:"C"` counters and `ph:"M"` thread-name
//! metadata — loadable in `chrome://tracing` and Perfetto. Timestamps are
//! emitted in fractional microseconds as the format prescribes.
//!
//! # Profiles
//!
//! [`Profile`] aggregates per-rule cost ([`RuleStat`]: fires, derived
//! tuples, cumulative ns) and the hottest variables by final points-to
//! set size ([`HotVar`]). Both back ends produce one; the CLI renders it
//! as a text table (`--profile`) or embeds it in JSON reports and bench
//! rows.

use std::sync::{Arc, Mutex};
use std::time::Instant;

pub mod eventlog;
pub mod json;
pub mod metrics;

pub use eventlog::{EventLog, Field};
pub use json::{escape, escape_into};
pub use metrics::{Counter, Gauge, Histogram, MetricKind, Metrics, LATENCY_BUCKETS_US};

/// An event phase, mirroring the Chrome trace-event `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A complete span (`ph:"X"`) with a duration in nanoseconds.
    Complete { dur_ns: u64 },
    /// A zero-duration instant (`ph:"i"`, thread-scoped).
    Instant,
    /// A counter sample (`ph:"C"`); the value rides in `args`.
    Counter,
    /// Thread-name metadata (`ph:"M"`); the name is the event name.
    ThreadName,
}

/// One recorded event. `ts_ns` is nanoseconds since the trace origin.
#[derive(Debug, Clone)]
pub struct Event {
    pub phase: Phase,
    pub name: String,
    pub cat: &'static str,
    pub ts_ns: u64,
    pub tid: u32,
    /// Small set of numeric arguments rendered under `args`.
    pub args: Vec<(&'static str, u64)>,
}

#[derive(Debug)]
struct Inner {
    origin: Instant,
    bufs: Mutex<Vec<Vec<Event>>>,
}

/// A cloneable recorder handle. See the [crate docs](crate) for the
/// design; disabled handles (the [`Default`]) record nothing and
/// allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    inner: Option<Arc<Inner>>,
}

impl Trace {
    /// A disabled trace: every operation is a no-op.
    #[must_use]
    pub fn disabled() -> Trace {
        Trace::default()
    }

    /// An enabled trace with its monotonic origin at "now".
    #[must_use]
    pub fn enabled() -> Trace {
        Trace {
            inner: Some(Arc::new(Inner {
                origin: Instant::now(),
                bufs: Mutex::new(Vec::new()),
            })),
        }
    }

    /// `true` if events are being recorded.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds since the trace origin (0 when disabled — no clock
    /// read happens on the disabled path).
    #[inline]
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.origin.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Opens a recording scope for thread `tid`. On a disabled trace the
    /// scope is itself a no-op (and never allocates).
    #[must_use]
    pub fn scope(&self, tid: u32) -> TraceScope {
        TraceScope {
            inner: self.inner.clone(),
            tid,
            buf: Vec::new(),
        }
    }

    /// Like [`Trace::scope`], also emitting a thread-name metadata event
    /// so trace viewers label the track.
    #[must_use]
    pub fn scope_named(&self, tid: u32, name: &str) -> TraceScope {
        let mut scope = self.scope(tid);
        if scope.is_enabled() {
            scope.push(Event {
                phase: Phase::ThreadName,
                name: name.to_owned(),
                cat: "meta",
                ts_ns: 0,
                tid,
                args: Vec::new(),
            });
        }
        scope
    }

    /// Snapshot of all flushed events, sorted by (timestamp, tid) for
    /// deterministic output. Scopes still open are not included — drop or
    /// flush them first.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let bufs = inner.bufs.lock().unwrap();
        let mut all: Vec<Event> = bufs.iter().flatten().cloned().collect();
        all.sort_by_key(|a| (a.ts_ns, a.tid));
        all
    }

    /// Removes and returns all flushed events, sorted like
    /// [`Trace::events`]. A resident daemon uses this to bound the
    /// trace's memory: buffers are periodically drained into the
    /// daemon's own (capped) aggregate instead of growing inside the
    /// trace for the life of the process. Scopes still open keep their
    /// local buffers and are unaffected.
    #[must_use]
    pub fn drain(&self) -> Vec<Event> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut bufs = inner.bufs.lock().unwrap();
        let mut all: Vec<Event> = bufs.drain(..).flatten().collect();
        all.sort_by_key(|a| (a.ts_ns, a.tid));
        all
    }

    /// Event counts keyed structurally by `(name, category)` and sorted
    /// on that pair — timestamps and durations excluded. Counting is
    /// structural (not on a rendered `cat/name` string) so a name
    /// containing `/` can never collide with another category, and the
    /// order never depends on how the key happens to render. Each entry
    /// is returned as a `("cat/name", count)` pair. Two runs of a
    /// deterministic workload must produce identical count vectors; the
    /// determinism tests rely on this.
    #[must_use]
    pub fn event_counts(&self) -> Vec<(String, usize)> {
        let mut counts: std::collections::BTreeMap<(String, &'static str), usize> =
            Default::default();
        for ev in self.events() {
            *counts.entry((ev.name, ev.cat)).or_default() += 1;
        }
        counts
            .into_iter()
            .map(|((name, cat), n)| (format!("{cat}/{name}"), n))
            .collect()
    }

    /// Renders the flushed events as Chrome trace-event JSON.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        events_to_chrome_json(&self.events())
    }
}

/// Renders `events` as Chrome trace-event JSON
/// (`{"traceEvents":[...]}`, timestamps in fractional microseconds).
#[must_use]
pub fn events_to_chrome_json(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 32);
    out.push_str("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"name\":\"");
        // Metadata events carry the fixed "thread_name" marker; the
        // actual name rides under args, per the trace-event spec.
        if ev.phase == Phase::ThreadName {
            out.push_str("thread_name");
        } else {
            escape_into(&mut out, &ev.name);
        }
        out.push_str("\",\"cat\":\"");
        out.push_str(ev.cat);
        out.push_str("\",\"ph\":\"");
        out.push_str(match ev.phase {
            Phase::Complete { .. } => "X",
            Phase::Instant => "i",
            Phase::Counter => "C",
            Phase::ThreadName => "M",
        });
        out.push_str("\",\"ts\":");
        push_us(&mut out, ev.ts_ns);
        if let Phase::Complete { dur_ns } = ev.phase {
            out.push_str(",\"dur\":");
            push_us(&mut out, dur_ns);
        }
        if ev.phase == Phase::Instant {
            out.push_str(",\"s\":\"t\"");
        }
        out.push_str(",\"pid\":1,\"tid\":");
        out.push_str(&ev.tid.to_string());
        if ev.phase == Phase::ThreadName {
            out.push_str(",\"args\":{\"name\":\"");
            escape_into(&mut out, &ev.name);
            out.push_str("\"}");
        } else if !ev.args.is_empty() {
            out.push_str(",\"args\":{");
            for (j, (k, v)) in ev.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(k);
                out.push_str("\":");
                out.push_str(&v.to_string());
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

/// Writes `ns` as fractional microseconds with nanosecond precision,
/// trimming trailing zeros (`1500` ns → `1.5`).
fn push_us(out: &mut String, ns: u64) {
    let whole = ns / 1_000;
    let frac = ns % 1_000;
    out.push_str(&whole.to_string());
    if frac != 0 {
        let s = format!(".{frac:03}");
        out.push_str(s.trim_end_matches('0'));
    }
}

/// A per-thread event recorder. All methods are inlined no-ops when the
/// parent [`Trace`] is disabled. Dropping the scope flushes its buffer
/// into the trace (the only locking this type ever does).
#[derive(Debug)]
pub struct TraceScope {
    inner: Option<Arc<Inner>>,
    tid: u32,
    buf: Vec<Event>,
}

impl TraceScope {
    /// `true` if this scope records events.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds since the trace origin (0 when disabled).
    #[inline]
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.origin.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    #[inline]
    fn push(&mut self, ev: Event) {
        if self.inner.is_some() {
            self.buf.push(ev);
        }
    }

    /// Records a complete span `[start_ns, start_ns + dur_ns)`.
    #[inline]
    pub fn complete(
        &mut self,
        name: &str,
        cat: &'static str,
        start_ns: u64,
        dur_ns: u64,
        args: &[(&'static str, u64)],
    ) {
        if self.inner.is_none() {
            return;
        }
        let (tid, name) = (self.tid, name.to_owned());
        self.push(Event {
            phase: Phase::Complete { dur_ns },
            name,
            cat,
            ts_ns: start_ns,
            tid,
            args: args.to_vec(),
        });
    }

    /// Records an instant event at "now".
    #[inline]
    pub fn instant(&mut self, name: &str, cat: &'static str, args: &[(&'static str, u64)]) {
        if self.inner.is_none() {
            return;
        }
        let (tid, ts_ns) = (self.tid, self.now_ns());
        self.push(Event {
            phase: Phase::Instant,
            name: name.to_owned(),
            cat,
            ts_ns,
            tid,
            args: args.to_vec(),
        });
    }

    /// Records a counter sample at "now".
    #[inline]
    pub fn counter(&mut self, name: &str, cat: &'static str, value: u64) {
        if self.inner.is_none() {
            return;
        }
        let (tid, ts_ns) = (self.tid, self.now_ns());
        self.push(Event {
            phase: Phase::Counter,
            name: name.to_owned(),
            cat,
            ts_ns,
            tid,
            args: vec![("value", value)],
        });
    }

    /// Flushes buffered events into the trace without closing the scope.
    pub fn flush(&mut self) {
        if let Some(inner) = &self.inner {
            if !self.buf.is_empty() {
                inner
                    .bufs
                    .lock()
                    .unwrap()
                    .push(std::mem::take(&mut self.buf));
            }
        }
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        self.flush();
    }
}

// ---------------------------------------------------------------------------
// Profiles
// ---------------------------------------------------------------------------

/// Cumulative cost of one rule over a whole run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleStat {
    /// Rule label (solver rule name or Datalog rule label).
    pub name: String,
    /// How many times the rule fired (delta evaluations / activations).
    pub fires: u64,
    /// New tuples the rule derived (post-dedup for the dense solver,
    /// pre-dedup delta rows for the Datalog engine).
    pub derived: u64,
    /// Cumulative wall time attributed to the rule, in nanoseconds.
    pub ns: u64,
}

/// A variable whose final points-to set is among the largest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HotVar {
    /// `method::var` display name.
    pub name: String,
    /// Final (context-projected) points-to set size.
    pub size: u64,
}

/// A rule-level profile of one analysis run. Produced by either back end
/// when profiling is enabled; rendered by the CLI and embedded in bench
/// rows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// One entry per rule, in the back end's stable rule order.
    pub rules: Vec<RuleStat>,
    /// Hottest variables by final set size, largest first (top-K only).
    pub hot_vars: Vec<HotVar>,
    /// PtsSet small→bitmap stage promotions (dense solver only).
    pub set_promotions: u64,
}

impl Profile {
    /// Rules sorted by cumulative time, most expensive first; ties break
    /// by fires (descending), then name (ascending), then derived
    /// (descending), so the order is fully deterministic even for rules
    /// sharing a name — it never depends on the back end's insertion
    /// order.
    #[must_use]
    pub fn top_rules(&self, k: usize) -> Vec<&RuleStat> {
        let mut sorted: Vec<&RuleStat> = self.rules.iter().collect();
        sorted.sort_by(|a, b| {
            (b.ns, b.fires, &a.name, b.derived).cmp(&(a.ns, a.fires, &b.name, a.derived))
        });
        sorted.truncate(k);
        sorted
    }

    /// Renders the profile as an aligned text table (top `k` rules plus
    /// the hot-variable list).
    #[must_use]
    pub fn render_text(&self, k: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<22} {:>12} {:>12} {:>12}\n",
            "rule", "fires", "derived", "ms"
        ));
        for r in self.top_rules(k) {
            out.push_str(&format!(
                "{:<22} {:>12} {:>12} {:>12.3}\n",
                r.name,
                r.fires,
                r.derived,
                r.ns as f64 / 1e6
            ));
        }
        if self.set_promotions > 0 {
            out.push_str(&format!("set promotions: {}\n", self.set_promotions));
        }
        if !self.hot_vars.is_empty() {
            out.push_str("hottest variables by points-to set size:\n");
            for hv in &self.hot_vars {
                out.push_str(&format!("  {:<40} {:>8}\n", hv.name, hv.size));
            }
        }
        out
    }

    /// Renders the profile as a JSON object (hand-rolled, stable key
    /// order): `{"rules":[...],"hot_vars":[...],"set_promotions":N}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"rules\":[");
        for (i, r) in self.rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"fires\":{},\"derived\":{},\"ns\":{}}}",
                escape(&r.name),
                r.fires,
                r.derived,
                r.ns
            ));
        }
        out.push_str("],\"hot_vars\":[");
        for (i, hv) in self.hot_vars.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"size\":{}}}",
                escape(&hv.name),
                hv.size
            ));
        }
        out.push_str(&format!("],\"set_promotions\":{}}}", self.set_promotions));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let t = Trace::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.now_ns(), 0);
        let mut s = t.scope(0);
        s.complete("a", "c", 0, 10, &[("x", 1)]);
        s.instant("b", "c", &[]);
        s.counter("d", "c", 7);
        drop(s);
        assert!(t.events().is_empty());
        assert_eq!(t.to_chrome_json(), "{\"traceEvents\":[\n]}\n");
    }

    #[test]
    fn chrome_json_shape_golden() {
        let t = Trace::enabled();
        {
            let mut s = t.scope_named(3, "shard-3");
            s.complete("solve", "session", 1_000, 2_500, &[("steps", 42)]);
            s.counter("worklist", "solver", 9);
            s.instant("promote", "solver", &[]);
        }
        let json = t.to_chrome_json();
        // Envelope and metadata event.
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("\n]}\n"));
        assert!(json.contains(
            "{\"name\":\"thread_name\",\"cat\":\"meta\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\
             \"tid\":3,\"args\":{\"name\":\"shard-3\"}}"
        ));
        // Complete span: ts/dur in fractional microseconds.
        assert!(json.contains(
            "{\"name\":\"solve\",\"cat\":\"session\",\"ph\":\"X\",\"ts\":1,\"dur\":2.5,\
             \"pid\":1,\"tid\":3,\"args\":{\"steps\":42}}"
        ));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains(",\"s\":\"t\","));
    }

    #[test]
    fn drain_moves_events_out_and_resets_the_buffers() {
        let t = Trace::enabled();
        {
            let mut s = t.scope(1);
            s.complete("x", "c", 20, 1, &[]);
            s.complete("y", "c", 10, 1, &[]);
        }
        let drained = t.drain();
        // Sorted by timestamp, like events().
        assert_eq!(drained.len(), 2);
        assert!(drained[0].ts_ns <= drained[1].ts_ns);
        // Drained means gone: the trace starts empty again (this is what
        // bounds the daemon's trace memory over an unbounded lifetime).
        assert!(t.drain().is_empty());
        assert!(t.events().is_empty());
        {
            let mut s = t.scope(2);
            s.complete("z", "c", 5, 1, &[]);
        }
        assert_eq!(t.drain().len(), 1);
        // And a disabled trace drains nothing.
        assert!(Trace::disabled().drain().is_empty());
    }

    #[test]
    fn events_sorted_and_counted_across_scopes() {
        let t = Trace::enabled();
        {
            let mut a = t.scope(1);
            a.complete("x", "c", 50, 1, &[]);
            let mut b = t.scope(2);
            b.complete("x", "c", 10, 1, &[]);
            b.complete("y", "c", 90, 1, &[]);
        }
        let evs = t.events();
        assert_eq!(evs.len(), 3);
        assert!(evs.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        assert_eq!(
            t.event_counts(),
            vec![("c/x".to_owned(), 2), ("c/y".to_owned(), 1)]
        );
    }

    #[test]
    fn event_counts_are_structural_and_ordered_by_name_then_cat() {
        let t = Trace::enabled();
        {
            let mut s = t.scope(1);
            // Slash-ambiguous pair: cat="c", name="x/y" vs cat="c/x",
            // name="y" render identically but must count separately.
            s.instant("x/y", "c", &[]);
            s.instant("y", "c/x", &[]);
            s.instant("y", "c/x", &[]);
            // Same name under two categories: ordered name-first, so
            // both "m" entries are adjacent regardless of category.
            s.instant("m", "zeta", &[]);
            s.instant("m", "alpha", &[]);
            s.instant("a", "zeta", &[]);
        }
        assert_eq!(
            t.event_counts(),
            vec![
                ("zeta/a".to_owned(), 1),
                ("alpha/m".to_owned(), 1),
                ("zeta/m".to_owned(), 1),
                ("c/x/y".to_owned(), 1),
                ("c/x/y".to_owned(), 2),
            ]
        );
    }

    #[test]
    fn top_rules_order_is_deterministic_under_ties() {
        let mk = |name: &str, fires, derived, ns| RuleStat {
            name: name.into(),
            fires,
            derived,
            ns,
        };
        let mut p = Profile {
            rules: vec![
                mk("b", 5, 1, 100),
                mk("a", 5, 1, 100), // ns+fires tie: name breaks it
                mk("c", 9, 1, 100), // ns tie: fires break it
                mk("d", 2, 7, 50),
                mk("d", 2, 3, 50), // full tie on (ns, fires, name): derived breaks it
            ],
            hot_vars: Vec::new(),
            set_promotions: 0,
        };
        let order = |p: &Profile| {
            p.top_rules(10)
                .iter()
                .map(|r| (r.name.clone(), r.derived))
                .collect::<Vec<_>>()
        };
        let first = order(&p);
        assert_eq!(
            first,
            vec![
                ("c".to_owned(), 1),
                ("a".to_owned(), 1),
                ("b".to_owned(), 1),
                ("d".to_owned(), 7),
                ("d".to_owned(), 3),
            ]
        );
        // Reversing the back end's insertion order must not change the
        // ranking.
        p.rules.reverse();
        assert_eq!(order(&p), first);
    }

    #[test]
    fn microsecond_rendering_trims_zeros() {
        let mut s = String::new();
        push_us(&mut s, 1_500);
        s.push('|');
        push_us(&mut s, 2_000_000);
        s.push('|');
        push_us(&mut s, 1_001);
        assert_eq!(s, "1.5|2000|1.001");
    }

    #[test]
    fn profile_renders_text_and_json() {
        let p = Profile {
            rules: vec![
                RuleStat {
                    name: "move".into(),
                    fires: 10,
                    derived: 4,
                    ns: 1_000,
                },
                RuleStat {
                    name: "vcall".into(),
                    fires: 3,
                    derived: 2,
                    ns: 9_000,
                },
            ],
            hot_vars: vec![HotVar {
                name: "Main.main::r".into(),
                size: 12,
            }],
            set_promotions: 1,
        };
        let top = p.top_rules(1);
        assert_eq!(top[0].name, "vcall");
        let text = p.render_text(5);
        assert!(text.contains("vcall"));
        assert!(text.contains("Main.main::r"));
        assert_eq!(
            p.to_json(),
            "{\"rules\":[{\"name\":\"move\",\"fires\":10,\"derived\":4,\"ns\":1000},\
             {\"name\":\"vcall\",\"fires\":3,\"derived\":2,\"ns\":9000}],\
             \"hot_vars\":[{\"name\":\"Main.main::r\",\"size\":12}],\"set_promotions\":1}"
        );
    }
}
