//! No-panic sweep for the JSON reader: every prefix, and a seeded set of
//! single-byte mutations, of the three kinds of document the workspace
//! reads back (a daemon request line, a `table1` row dump and a Chrome
//! trace) must parse to `Ok` or `Err`, never panic.

use pta_obs::json::parse;
use pta_obs::Trace;

const REQUEST: &str =
    r#"{"id":7,"op":"points_to","program":"luindex:0.1","var":"r1","deadline_ms":250}"#;

/// The first row of the checked-in profile dump, as a one-row dump.
fn row_dump() -> String {
    let dump = include_str!("../../../BENCH_profile.json");
    let row = dump.lines().nth(1).expect("one row per line");
    format!("[{}]", row.trim_end_matches(','))
}

fn chrome_trace() -> String {
    let trace = Trace::enabled();
    let mut scope = trace.scope_named(0, "main \"quoted\"");
    let t0 = scope.now_ns();
    scope.complete("solve", "session", t0, 1500, &[("steps", 42)]);
    scope.instant("demote", "govern", &[("method", 3)]);
    scope.counter("worklist", "solver", 17);
    scope.flush();
    trace.to_chrome_json()
}

/// Bytes the mutations write: JSON punctuation, escapes, digits and
/// letters that start literals, plus whitespace.
const ALPHABET: &[u8] = b"{}[]\",:\\u0123456789abcdefnrt+-.eE \t\n";

/// xorshift64: a fixed seed gives the same mutations on every run.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn sweep(doc: &str, seed: u64) {
    let doc = doc.trim_end();
    assert!(parse(doc).is_ok(), "fixture must parse: {doc}");
    for end in 0..doc.len() {
        if let Some(prefix) = doc.get(..end) {
            // Every fixture is one array or object, so a proper prefix is
            // always truncated.
            assert!(parse(prefix).is_err(), "{prefix}");
        }
    }
    let mut state = seed;
    for _ in 0..3000 {
        let mut bytes = doc.as_bytes().to_vec();
        let at = next(&mut state) as usize % bytes.len();
        let b = ALPHABET[next(&mut state) as usize % ALPHABET.len()];
        match next(&mut state) % 3 {
            0 => bytes[at] = b,
            1 => bytes.insert(at, b),
            _ => {
                bytes.remove(at);
            }
        }
        if let Ok(mutant) = String::from_utf8(bytes) {
            let _ = parse(&mutant);
        }
    }
}

#[test]
fn request_lines_never_panic_the_reader() {
    sweep(REQUEST, 0x5eed_0001);
}

#[test]
fn row_dumps_never_panic_the_reader() {
    sweep(&row_dump(), 0x5eed_0002);
}

#[test]
fn chrome_traces_never_panic_the_reader() {
    sweep(&chrome_trace(), 0x5eed_0003);
}
