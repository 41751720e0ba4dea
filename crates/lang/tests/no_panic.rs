//! No input panics the front end: every prefix of every example program
//! and of a generated workload, and a seeded set of single-byte mutations
//! of each, must come back from `parse_program` as `Ok` or as a
//! `LangError` — never as a panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pta_ir::rng::Rng;
use pta_lang::{parse_program, print_program};
use pta_workload::dacapo_workload;

/// Mutations tried per input.
const MUTATIONS: usize = 400;

/// Replacement bytes worth trying: every punctuation character the
/// grammar uses, identifier characters, whitespace, comment openers and a
/// few bytes the lexer rejects.
const ALPHABET: &[u8] = b"{}();,:.=/*_$aZ09 \n\t\r#%\"\\\x00\x7f";

fn inputs() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/programs");
    let mut inputs: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("examples directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "jir"))
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("example reads");
            (path.display().to_string(), text)
        })
        .collect();
    inputs.sort();
    assert!(inputs.len() >= 5, "examples found: {}", inputs.len());
    inputs.push((
        "luindex s0.3".to_owned(),
        print_program(&dacapo_workload("luindex", 0.3)),
    ));
    inputs
}

/// Runs `parse_program`, turning a panic into an error naming the case.
fn must_not_panic(name: &str, case: &str, source: &str) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let _ = parse_program(source);
    }));
    assert!(outcome.is_ok(), "{name}: parse_program panicked on {case}");
}

#[test]
fn no_prefix_panics_the_front_end() {
    for (name, text) in inputs() {
        assert!(parse_program(&text).is_ok(), "{name} parses whole");
        for end in (0..text.len()).filter(|&end| text.is_char_boundary(end)) {
            must_not_panic(&name, &format!("the prefix of {end} bytes"), &text[..end]);
        }
    }
}

#[test]
fn no_single_byte_mutation_panics_the_front_end() {
    let mut rng = Rng::seed_from_u64(0x6a69_7221);
    for (name, text) in inputs() {
        assert!(text.is_ascii(), "{name} is ASCII, so byte edits stay UTF-8");
        let mut bytes = text.into_bytes();
        for _ in 0..MUTATIONS {
            let at = rng.gen_range(0..bytes.len());
            let with = ALPHABET[rng.gen_range(0..ALPHABET.len())];
            let was = std::mem::replace(&mut bytes[at], with);
            let source = std::str::from_utf8(&bytes).expect("ASCII stays UTF-8");
            must_not_panic(&name, &format!("byte {at} set to {with:#04x}"), source);
            bytes[at] = was;
        }
    }
}
