//! Program inputs.
//!
//! Every program workload starts from a generated DaCapo-shaped program
//! printed to `.jir`. The seed then permutes the order of the class
//! declarations in that text, which renumbers every class, method,
//! variable, allocation and call site without changing what the program
//! means. So each seed is a fresh input for code that depends on entity
//! order, while the work, and with it the timing, stays comparable across
//! seeds. (Seeding the generator instead changes the program itself: the
//! context-insensitive solve of luindex at scale 64 takes from 0.55 s to
//! 27 s across generator seeds.) Seed 0 keeps the printed order.

use std::time::Instant;

use pta_ir::rng::Rng;
use pta_lang::print_program;
use pta_workload::{dacapo_config, generate};

use crate::{Measured, Params, SETUP_REPS};

/// Generates DaCapo program `name` at `scale` and prints it.
#[must_use]
pub fn generate_text(name: &str, scale: f64) -> String {
    print_program(&generate(&dacapo_config(name, scale)))
}

/// Re-declares the classes of printed program `text` in the order seed
/// `seed` draws; seed 0 returns the text unchanged. Class declarations
/// may refer forward, so any order parses to the same program.
#[must_use]
pub fn permute(text: &str, seed: u64) -> String {
    if seed == 0 {
        return text.to_owned();
    }
    let mut blocks: Vec<String> = Vec::new();
    let mut rest = String::new();
    let mut open: Option<String> = None;
    for line in text.lines() {
        match open.as_mut() {
            Some(block) => {
                block.push_str(line);
                block.push('\n');
                if line == "}" {
                    blocks.extend(open.take());
                }
            }
            None if line.starts_with("class ") => open = Some(format!("{line}\n")),
            None if line.is_empty() => {}
            None => {
                rest.push_str(line);
                rest.push('\n');
            }
        }
    }
    blocks.extend(open);
    let mut rng = Rng::seed_from_u64(seed);
    for i in (1..blocks.len()).rev() {
        blocks.swap(i, rng.gen_range(0..i + 1));
    }
    // One exact-size allocation: the source stays live through the timed
    // phase, so its heap footprint must not depend on the seed.
    [blocks.join("\n"), rest].join("\n")
}

/// The set-up of a program workload, done [`SETUP_REPS`] times: generate
/// and print program `name` (at `full_scale`, or the smoke-test scale),
/// permute it for the seed, and pass the permuted source to `finish`.
/// Generating, printing and `finish` are timed into `m.setup_s`; the
/// permutation is the benchmark's own work and is not. Returns the
/// printed (seed 0) text, the permuted source and what `finish` built in
/// the last repetition.
pub fn setup<T>(
    params: &Params,
    name: &str,
    full_scale: f64,
    m: &mut Measured,
    mut finish: impl FnMut(&str) -> T,
) -> (String, String, T) {
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let text = generate_text(name, params.scale(full_scale));
        let made = t.elapsed().as_secs_f64();
        let source = permute(&text, params.seed);
        let t = Instant::now();
        let built = finish(&source);
        m.setup_s.push(made + t.elapsed().as_secs_f64());
        last = Some((text, source, built));
    }
    last.expect("SETUP_REPS is positive")
}

/// The golden-digest key of DaCapo program `name` at `scale` under
/// `policy`.
#[must_use]
pub fn golden_key(name: &str, scale: f64, policy: &str) -> String {
    format!("{name}:{scale}/{policy}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pta_core::{Analysis, AnalysisSession};

    #[test]
    fn permuted_programs_parse_to_the_same_program() {
        let text = generate_text("luindex", 0.3);
        assert_eq!(permute(&text, 0), text);
        let base = pta_lang::parse_program(&text).unwrap();
        let canon = crate::digest::Canon::new(&base);
        let want = crate::digest::canonical(
            &base,
            &canon,
            &AnalysisSession::open(base.clone())
                .policy(Analysis::TwoObjH)
                .solve(),
        );
        for seed in [1, 2, 3] {
            let source = permute(&text, seed);
            assert_ne!(source, text, "seed {seed} kept the order");
            assert_eq!(source.len(), text.len());
            let p = pta_lang::parse_program(&source).unwrap();
            assert_eq!(p.method_count(), base.method_count());
            let r = AnalysisSession::open(p.clone())
                .policy(Analysis::TwoObjH)
                .solve();
            let got = crate::digest::canonical(&p, &crate::digest::Canon::new(&p), &r);
            assert_eq!(got, want, "seed {seed}");
        }
    }
}
