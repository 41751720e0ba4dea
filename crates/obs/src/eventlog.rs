//! A structured line-JSON event log for daemon lifecycle events.
//!
//! An [`EventLog`] is a cheap cloneable handle, disabled by default
//! (the [`Default`] records nothing, allocates nothing, and reads no
//! clock — pinned by `crates/obs/tests/overhead.rs`). Enabled, every
//! [`EventLog::emit`] appends one self-contained JSON object per line
//! to the sink and flushes it immediately, so the log survives a
//! daemon crash up to the last completed event:
//!
//! ```text
//! {"seq":3,"ts_ms":1754650000123,"event":"request","op":"points_to","latency_us":412}
//! ```
//!
//! `seq` is a process-monotonic sequence number (events from all
//! threads share one counter) and `ts_ms` is wall-clock Unix
//! milliseconds. Field values are typed via [`Field`]; keys and the
//! event name are escaped, so every line parses back through any JSON
//! parser (the telemetry suite round-trips lines through
//! `crates/serve/src/json.rs`).

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::escape_into;

/// A typed event field value.
#[derive(Debug, Clone, Copy)]
pub enum Field<'a> {
    /// An unsigned integer, rendered bare.
    U64(u64),
    /// A signed integer, rendered bare.
    I64(i64),
    /// A string, rendered escaped and quoted.
    Str(&'a str),
    /// A boolean, rendered as `true`/`false`.
    Bool(bool),
}

struct LogInner {
    seq: AtomicU64,
    sink: Mutex<Box<dyn Write + Send>>,
}

/// A cloneable structured event-log handle. See the
/// [module docs](self); disabled handles (the [`Default`]) record
/// nothing and allocate nothing.
#[derive(Clone, Default)]
pub struct EventLog {
    inner: Option<Arc<LogInner>>,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl EventLog {
    /// A disabled log: every operation is a no-op.
    #[must_use]
    pub fn disabled() -> EventLog {
        EventLog::default()
    }

    /// An enabled log appending to `path` (created if absent).
    pub fn to_file(path: &str) -> std::io::Result<EventLog> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(EventLog::from_writer(Box::new(file)))
    }

    /// An enabled log writing to an arbitrary sink (tests use an
    /// in-memory buffer).
    #[must_use]
    pub fn from_writer(sink: Box<dyn Write + Send>) -> EventLog {
        EventLog {
            inner: Some(Arc::new(LogInner {
                seq: AtomicU64::new(0),
                sink: Mutex::new(sink),
            })),
        }
    }

    /// `true` if events are being written.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Appends one event line (`{"seq":N,"ts_ms":M,"event":...,...}`)
    /// and flushes the sink. Write errors are swallowed: telemetry must
    /// never take the daemon down.
    pub fn emit(&self, event: &str, fields: &[(&str, Field<'_>)]) {
        let Some(inner) = &self.inner else {
            return;
        };
        let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let mut line = String::with_capacity(64 + fields.len() * 24);
        line.push_str("{\"seq\":");
        line.push_str(&seq.to_string());
        line.push_str(",\"ts_ms\":");
        line.push_str(&ts_ms.to_string());
        line.push_str(",\"event\":\"");
        escape_into(&mut line, event);
        line.push('"');
        for (k, v) in fields {
            line.push_str(",\"");
            escape_into(&mut line, k);
            line.push_str("\":");
            match v {
                Field::U64(n) => line.push_str(&n.to_string()),
                Field::I64(n) => line.push_str(&n.to_string()),
                Field::Bool(b) => line.push_str(if *b { "true" } else { "false" }),
                Field::Str(s) => {
                    line.push('"');
                    escape_into(&mut line, s);
                    line.push('"');
                }
            }
        }
        line.push_str("}\n");
        let mut sink = inner.sink.lock().unwrap();
        let _ = sink.write_all(line.as_bytes());
        let _ = sink.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn disabled_log_writes_nothing() {
        let log = EventLog::disabled();
        assert!(!log.is_enabled());
        log.emit("start", &[("x", Field::U64(1))]);
    }

    #[test]
    fn emits_one_escaped_json_line_per_event() {
        let buf = SharedBuf::default();
        let log = EventLog::from_writer(Box::new(buf.clone()));
        assert!(log.is_enabled());
        log.emit(
            "request",
            &[
                ("op", Field::Str("points_to")),
                ("latency_us", Field::U64(412)),
                ("delta", Field::I64(-3)),
                ("ok", Field::Bool(true)),
                ("note", Field::Str("a\"b\nc")),
            ],
        );
        log.emit("shutdown", &[]);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"seq\":0,\"ts_ms\":"));
        assert!(lines[0].ends_with(
            ",\"event\":\"request\",\"op\":\"points_to\",\"latency_us\":412,\
             \"delta\":-3,\"ok\":true,\"note\":\"a\\\"b\\nc\"}"
        ));
        assert!(lines[1].starts_with("{\"seq\":1,\"ts_ms\":"));
        assert!(lines[1].ends_with(",\"event\":\"shutdown\"}"));
    }

    #[test]
    fn sequence_numbers_are_process_monotonic_across_clones() {
        let buf = SharedBuf::default();
        let log = EventLog::from_writer(Box::new(buf.clone()));
        let clone = log.clone();
        log.emit("a", &[]);
        clone.emit("b", &[]);
        log.emit("c", &[]);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let seqs: Vec<&str> = text
            .lines()
            .map(|l| &l[7..l.find(",\"ts_ms\"").unwrap()])
            .collect();
        assert_eq!(seqs, vec!["0", "1", "2"]);
    }
}
